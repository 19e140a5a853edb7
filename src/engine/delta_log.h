// The live store's delta log and its replication hooks.
//
// A DeltaLog holds the writes a LiveDatabase accepted since its serving
// generation (engine/live_database.h): one writer appends under the
// store's write mutex, and any number of readers see a consistent
// prefix without a lock.  ReplicationListener and ReplicationSeed are
// how a serving layer taps the same write stream to feed replicas.

#ifndef DISTPERM_ENGINE_DELTA_LOG_H_
#define DISTPERM_ENGINE_DELTA_LOG_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace distperm {
namespace engine {

/// Append-only write log with lock-free reads.  Appends are serialized
/// externally (LiveDatabase's writer mutex); readers see a consistent
/// prefix by acquiring `committed()` once and reading entries below it
/// — entry contents (and the lazily allocated chunk they live in) are
/// published by the release store of the counter, and the chunk
/// directory itself is a fixed array of atomic pointers, so no read
/// ever races a reallocation.
template <typename P>
class DeltaLog {
 public:
  struct Entry {
    bool is_remove = false;
    size_t id = 0;       ///< Assigned id (insert) or target id (remove).
    uint32_t shard = 0;  ///< Owning shard under the entry's generation.
    P point{};           ///< The inserted point; default for removes.
  };

  static constexpr size_t kChunkSize = 256;
  static constexpr size_t kMaxChunks = 4096;
  /// Hard capacity (1M entries); delta_scan_limit caps far earlier.
  static constexpr size_t kCapacity = kChunkSize * kMaxChunks;

  DeltaLog() {
    for (auto& chunk : chunks_) chunk.store(nullptr, std::memory_order_relaxed);
  }
  ~DeltaLog() {
    for (auto& chunk : chunks_) delete chunk.load(std::memory_order_relaxed);
  }
  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  /// Number of fully published entries.  Everything below this index is
  /// immutable and safe to read from any thread.
  size_t committed() const { return committed_.load(std::memory_order_acquire); }

  /// Entry `i`; the caller must have observed committed() > i.
  const Entry& entry(size_t i) const {
    const Chunk* chunk = chunks_[i / kChunkSize].load(std::memory_order_acquire);
    return chunk->entries[i % kChunkSize];
  }

  /// Appends one entry.  Single-writer: the caller must hold the
  /// database's writer mutex.  False when the hard capacity is reached.
  bool Append(Entry entry) {
    const size_t n = committed_.load(std::memory_order_relaxed);
    if (n >= kCapacity) return false;
    const size_t c = n / kChunkSize;
    Chunk* chunk = chunks_[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Chunk();
      chunks_[c].store(chunk, std::memory_order_release);
    }
    chunk->entries[n % kChunkSize] = std::move(entry);
    committed_.store(n + 1, std::memory_order_release);
    return true;
  }

 private:
  struct Chunk {
    std::array<Entry, kChunkSize> entries{};
  };
  std::atomic<size_t> committed_{0};
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_;
};

/// Observer of a store's logical write stream — the hook a serving
/// layer uses to feed replicas.  Callbacks fire on the writer's thread
/// with the write mutex held, in exact commit order; implementations
/// must be fast (hand off to another thread) and must not call back
/// into the store.
class ReplicationListener {
 public:
  virtual ~ReplicationListener() = default;
  /// One committed write.  `record` is the exact WAL payload bytes
  /// (EncodeWalInsert/EncodeWalRemove), `seq` its 1-based WAL sequence
  /// within `generation` — a replica appending these to its own WAL
  /// reproduces the primary's log byte for byte.
  virtual void OnRecord(uint64_t generation, uint64_t seq,
                        const std::string& record) = 0;
  /// A generation swap: the first `folded` records of the old window
  /// were folded into `new_generation`; `carried` holds the unconsumed
  /// tail re-encoded into the new id space (seqs 1..carried.size() of
  /// the new generation's WAL).  A replica replays the same fold with
  /// CompactPrefix(folded) — the deterministic build makes its new
  /// generation (and tail remap) bit-identical, so `carried` is a
  /// cross-check, not required input.
  virtual void OnRotate(uint64_t new_generation, uint64_t folded,
                        std::vector<std::string> carried) = 0;
};

/// The stream position a newly attached listener joins at: the serving
/// generation plus its committed window re-encoded as WAL payloads
/// (record i carrying seq i+1).  Everything after arrives via
/// OnRecord/OnRotate with no gap and no overlap.
struct ReplicationSeed {
  uint64_t generation = 0;
  std::vector<std::string> records;
};

}  // namespace engine
}  // namespace distperm

#endif  // DISTPERM_ENGINE_DELTA_LOG_H_
