// The live store's delta log and its replication hooks.
//
// A DeltaLog holds the writes a LiveDatabase accepted since its serving
// generation (engine/live_database.h): one writer appends under the
// store's write mutex, and any number of readers see a consistent
// prefix without a lock.  It is also the store's one record of removed
// ids: each id's removal position, which every reader, the writer and
// the fold check with the same predicate.  ReplicationListener and
// ReplicationSeed are how a serving layer taps the same write stream to
// feed replicas.

#ifndef DISTPERM_ENGINE_DELTA_LOG_H_
#define DISTPERM_ENGINE_DELTA_LOG_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/search.h"
#include "util/status.h"

namespace distperm {
namespace engine {

/// Append-only write log with lock-free reads.  Appends are serialized
/// externally (LiveDatabase's writer mutex); readers see a consistent
/// prefix by acquiring `committed()` once and reading entries below it
/// — entry contents (and the lazily allocated chunk they live in) are
/// published by the release store of the counter, and the chunk
/// directory itself is a fixed array of atomic pointers, so no read
/// ever races a reallocation.  A remove's position is stored for its
/// target id before that release store too, so a pinned window sees
/// exactly the removes below its length.
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
  /// Removal position of an id no remove has retired.
  static constexpr uint32_t kNever = std::numeric_limits<uint32_t>::max();
  static_assert(kCapacity < kNever);

  /// A log over a generation of `base_size` ids holding at most
  /// `capacity` (<= kCapacity) entries, so its insert ids stay below
  /// base_size + capacity.
  DeltaLog(size_t base_size, size_t capacity)
      : capacity_(capacity),
        removed_at_(new std::atomic<uint32_t>[base_size + capacity]) {
    DP_CHECK(capacity <= kCapacity);
    for (size_t id = 0; id < base_size + capacity; ++id) {
      removed_at_[id].store(kNever, std::memory_order_relaxed);
    }
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

  size_t capacity() const { return capacity_; }

  /// The ids removed by the first `end` entries, indexed by base id or
  /// by an insert id this log assigned.
  index::RemovedIds RemovedIn(size_t end) const {
    return {removed_at_.get(), end};
  }

  /// Appends one entry, recording a remove's position for its target.
  /// Single-writer: the caller must hold the database's writer mutex.
  /// False when the capacity is reached.
  bool Append(Entry entry) {
    const size_t n = committed_.load(std::memory_order_relaxed);
    if (n >= capacity_) return false;
    if (entry.is_remove) {
      removed_at_[entry.id].store(static_cast<uint32_t>(n),
                                  std::memory_order_relaxed);
    }
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
  const size_t capacity_;
  const std::unique_ptr<std::atomic<uint32_t>[]> removed_at_;
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
