// Versioned snapshot container: named, checksummed, 64-byte-aligned
// sections behind a self-describing header, designed to be read back
// with a single mmap.
//
// Layout (all integers little-endian):
//
//     [magic "DPSNAP01"]
//     [u32 header_len]                    total header bytes, magic..crc
//     [u32 meta_count]  meta_count x [lp key][lp value]
//     [u32 section_count] per section: [lp name][u64 offset][u64 size][u32 crc]
//     [u32 header_crc]                    CRC32C of all preceding bytes
//     <zero padding to 64-byte boundary>
//     [section 0 bytes] <zero padding to 64> [section 1 bytes] ...
//
// ("lp" = u32 length-prefixed byte string.)  Every section offset is a
// multiple of 64, so vector rows dropped in as a section keep the
// alignment the SIMD kernels rely on when the file is mapped (mmap
// returns page-aligned memory, and 4096 is a multiple of 64) and can be
// served straight from the mapping.
//
// Writing is crash-atomic: the container is written to `path.tmp`,
// fsynced, renamed over `path`, and the directory fsynced — a reader
// either sees the complete old file, the complete new file, or a .tmp
// it ignores.  Reading validates the magic, the header CRC, and every
// section CRC before returning, so a half-written or bit-rotted
// snapshot is rejected as a whole and recovery falls back to the
// previous one.
//
// The meta map carries the engine-level identity of the snapshot
// (registry spec, seed, generation number, point kind) so recovery can
// refuse to load a snapshot into a database opened with different
// parameters instead of silently serving wrong results.

#ifndef DISTPERM_STORAGE_SNAPSHOT_H_
#define DISTPERM_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/env.h"
#include "util/status.h"

namespace distperm {
namespace storage {

inline constexpr char kSnapshotMagic[8] = {'D', 'P', 'S', 'N',
                                           'A', 'P', '0', '1'};

/// Assembles and atomically writes one snapshot container.
class SnapshotWriter {
 public:
  void SetMeta(const std::string& key, const std::string& value) {
    meta_[key] = value;
  }

  /// Adds a section owning its bytes.
  void AddSection(const std::string& name, std::string data);

  /// A borrowed run of section bytes.
  struct Chunk {
    const void* data = nullptr;
    uint64_t size = 0;
  };

  /// Adds a section borrowing `size` bytes at `data`; the memory must
  /// stay valid until Write returns.
  void AddSectionRef(const std::string& name, const void* data,
                     uint64_t size) {
    AddSectionRefs(name, {{data, size}});
  }

  /// Adds a section made of `chunks`, back to back, borrowed like
  /// AddSectionRef (the point rows of every shard, which would be
  /// wasteful to gather into one buffer first; small chunks cost no
  /// extra writes).
  void AddSectionRefs(const std::string& name, std::vector<Chunk> chunks);

  /// Writes the container to `path` via tmp + fsync + rename + dir
  /// fsync.  On failure the tmp file may remain; readers ignore it and
  /// the next successful write replaces it.
  util::Status Write(Env* env, const std::string& path) const;

  /// Writes the container bytes directly to `path` (truncating) and
  /// fsyncs, without the rename step.  For two-phase protocols that
  /// must order the publication rename after other durable writes
  /// (e.g. the engine's WAL rotation): write the .tmp here, then
  /// Env::RenameFile + Env::SyncDir when it is safe to publish.
  util::Status WriteFile(Env* env, const std::string& path) const;

 private:
  struct Section {
    std::string name;
    std::unique_ptr<const std::string> owned;  // AddSection's bytes
    std::vector<Chunk> chunks;
    uint64_t size = 0;
  };

  std::map<std::string, std::string> meta_;
  std::vector<Section> sections_;
};

/// Maps and fully validates one snapshot container.
class SnapshotReader {
 public:
  /// A validated section inside the mapping; valid while the reader
  /// (or a copy of its mapping handle) lives.
  struct Section {
    const uint8_t* data = nullptr;
    uint64_t size = 0;
  };

  /// Maps `path` and validates magic, header CRC, section bounds and
  /// every section CRC.  Any failure rejects the whole file.
  static util::Result<SnapshotReader> Open(Env* env, const std::string& path);

  const std::map<std::string, std::string>& meta() const { return meta_; }

  /// Meta value for `key`; NotFound if absent.
  util::Result<std::string> GetMeta(const std::string& key) const;

  bool HasSection(const std::string& name) const {
    return sections_.count(name) != 0;
  }

  /// Section bytes; NotFound if absent.
  util::Result<Section> GetSection(const std::string& name) const;

  /// The underlying mapping; hold a copy to keep sections valid past
  /// the reader's lifetime.
  std::shared_ptr<MappedFile> mapping() const { return mapping_; }

 private:
  SnapshotReader() = default;

  std::shared_ptr<MappedFile> mapping_;
  std::map<std::string, std::string> meta_;
  std::map<std::string, Section> sections_;
};

}  // namespace storage
}  // namespace distperm

#endif  // DISTPERM_STORAGE_SNAPSHOT_H_
