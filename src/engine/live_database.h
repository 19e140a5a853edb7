// Live-updatable front over generation-versioned sharded databases.
//
// The engine's serving state is one immutable State object behind a
// single atomic slot (a hand-rolled std::atomic<std::shared_ptr> with
// TSan-verifiable ordering):
//
//   pin ───► State ──► Generation N   (immutable shards + indexes)
//                 ├──► DeltaLog       (append-only writes since N)
//                 └──► SideRuns       (exact indexes over a log prefix)
//
// Queries pin the current State with one acquire of that slot (no
// mutex, no blocking on writers or compactions): the generation is
// immutable and the delta log (engine/delta_log.h) is append-only with
// a release/acquire committed counter, so a pinned (generation, delta
// window) view stays frozen no matter how many writes and compactions
// race past it.  One batch executes against exactly one generation.
//
// Writes append to the delta log under a writer mutex through one
// commit path: Insert, Remove and a replica's ApplyReplicated all pass
// the same check (shard tag in range, insert dimension, remove target
// live), then one commit step logs the WAL record, appends the entry
// and runs the upkeep; WAL replay passes the same check and the same
// append, without re-logging, counters or upkeep.  Each entry is
// routed to the shard that owns it (engine/shard_router.h); the
// routing travels in the WAL record, so recovery and replicas
// reproduce it exactly.  The log also records, per id, the position
// of the remove that retired it, so "removed in this pin" is one
// array read against the pinned window's length.  A query merges the
// log into its answer exactly: delta hits are measured (and charged
// to the query's distance accounting), every index search skips the
// pinned window's removed ids itself (so a shard is asked for k
// results, never k plus spares), and — via the request's
// initial_radius_bound — the delta's k-th distance caps the
// generation search's pruning radius.  Every `delta_index_min`
// writes, the writer covers the new stretch of the window with side
// runs — exact `laesa:k=4` indexes in a logarithmic stack per shard
// (engine/side_runs.h) — so the delta leg stops being a flat scan;
// the uncovered tail stays a scan.  The window is bounded by
// `delta_scan_limit`: a full buffer pushes back on writers
// (OutOfRange) instead of degrading readers.
//
// Compact() folds base ⊕ delta into generation N+1 (Fold() in
// engine/fold.h rebuilds only the dirty shards), writes the snapshot,
// rotates the WAL and swaps the new State in; unconsumed tail writes
// are carried over, remapped and re-routed.  In-flight queries finish
// on the old generation.  Compaction runs on the caller's thread, or
// in the background via CompactAsync() / `auto_compact_threshold`.
//
// Id semantics: ids name positions in the pinned view — [0, base_size)
// for the generation, base_size + j for the j-th insert in the current
// delta log.  Compaction compacts the numbering (removed ids vanish,
// delta inserts move into the base), so ids are stable between
// compactions and remapped across them; Remove() always interprets its
// argument against the current (post-swap) numbering.

#ifndef DISTPERM_ENGINE_LIVE_DATABASE_H_
#define DISTPERM_ENGINE_LIVE_DATABASE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/delta_log.h"
#include "engine/fold.h"
#include "engine/generation.h"
#include "engine/generation_store.h"
#include "engine/query.h"
#include "engine/query_engine.h"
#include "engine/sharded_database.h"
#include "engine/side_runs.h"
#include "index/registry.h"
#include "index/search.h"
#include "metric/metric.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace distperm {
namespace engine {

/// Host-side knobs for a LiveDatabase (the delta knobs travel in the
/// index spec — see index::LiveSpecOptions).
struct LiveOptions {
  /// Worker threads for compaction rebuilds (ShardedDatabase
  /// build_threads; builds stay bit-identical at any count).
  size_t build_threads = 1;
  /// When non-null, the store records its live_* and wal_* instruments
  /// here (write/backpressure counters, compaction histograms,
  /// delta-depth and pinned-generation gauges — see README.md
  /// "Observability").  The engine_*/threadpool_* series come from the
  /// QueryEngine whose EnableMetrics the caller calls.  The registry
  /// must outlive the store.  The pinned query path stays zero-lock:
  /// hot-path recordings are sharded relaxed atomics, and the
  /// point-in-time gauges are exposition-time callbacks.
  obs::MetricsRegistry* metrics = nullptr;
  /// File-system access for the durable path (`wal_dir` spec knob).
  /// Null uses storage::Env::Default(); tests inject a
  /// storage::FaultInjectionEnv to exercise crash recovery.  Ignored
  /// when the spec has no wal_dir.
  storage::Env* env = nullptr;
};

/// Generation-versioned live store: lock-free pinned reads, mutex-
/// serialized writes, compaction with atomic generation swap-in.
template <typename P>
class LiveDatabase {
 private:
  struct State {
    std::shared_ptr<const Generation<P>> generation;
    std::shared_ptr<DeltaLog<P>> log;
    /// Side runs covering a prefix of `log` (engine/side_runs.h); empty
    /// at each generation's start.  Republished in place (same
    /// generation + log) by the writer as the window grows.
    std::shared_ptr<const SideRuns<P>> side;
  };

  /// The write side of one generation's delta window, all under
  /// write_mutex_: the State last published (held here so the write
  /// path never takes the state slot; the next side-run publication
  /// extends its stack), plus the mirrors that validate and tag writes
  /// in O(1).  A fold or resync builds its successor aside and installs
  /// it whole.
  struct Writer : State {
    /// A writer over `gen` whose log holds `capacity` entries.
    Writer(const std::shared_ptr<const Generation<P>>& gen, size_t capacity)
        : State{gen, std::make_shared<DeltaLog<P>>(gen->size(), capacity),
                std::make_shared<const SideRuns<P>>()},
          base_size(gen->size()) {}

    size_t base_size;
    /// Owning shard of pending insert base_size + j, at index j.
    std::vector<uint32_t> insert_shard;

    bool Live(size_t id) const {
      return id < base_size + insert_shard.size() &&
             !this->log->RemovedIn(this->log->committed()).Contains(id);
    }

    /// Owning shard of a live id: a base id's owner comes from the
    /// slice layout, a pending insert's from the routing recorded at
    /// its append.
    uint32_t ShardOf(size_t id) const {
      if (id < base_size) return this->generation->database().ShardOf(id);
      return insert_shard[id - base_size];
    }

    /// Appends `op` to the log, assigning an insert the next id, and
    /// returns the entry's id.  The caller has checked the op and the
    /// log's capacity.
    size_t Append(WalOp<P> op) {
      size_t id = static_cast<size_t>(op.id);
      if (!op.is_remove) {
        id = base_size + insert_shard.size();
        insert_shard.push_back(op.shard);
      }
      DP_CHECK(this->log->Append(
          {op.is_remove, id, op.shard, std::move(op.point)}));
      return id;
    }
  };

  /// Atomic publication slot for the serving state — functionally
  /// std::atomic<std::shared_ptr<const State>>, hand-rolled because
  /// libstdc++'s _Sp_atomic unlocks its reader path with a relaxed
  /// RMW, which leaves the reader's pointer read formally unordered
  /// against the next writer's swap (benign on real hardware, but a
  /// data race under the C++ model that ThreadSanitizer reports —
  /// and the TSan CI job gates on zero reports).  A few-instruction
  /// test-and-test-and-set spinlock with fully paired acquire/release
  /// is the same mechanism, verifiably clean, and uncontended at this
  /// call rate: one load per batch pin, one store per compaction.
  class StateSlot {
   public:
    std::shared_ptr<const State> load() const {
      Lock();
      std::shared_ptr<const State> copy = ptr_;
      Unlock();
      return copy;
    }

    void store(std::shared_ptr<const State> next) {
      Lock();
      ptr_.swap(next);
      Unlock();
      // `next` now holds the retired state; it releases outside the
      // critical section, so a last-reference Generation teardown
      // never runs under the slot lock.
    }

   private:
    void Lock() const {
      for (;;) {
        if (!locked_.exchange(true, std::memory_order_acquire)) return;
        while (locked_.load(std::memory_order_relaxed)) {
        }
      }
    }
    void Unlock() const {
      locked_.store(false, std::memory_order_release);
    }

    mutable std::atomic<bool> locked_{false};
    std::shared_ptr<const State> ptr_;
  };

 public:
  using BatchOutput = typename QueryEngine<P>::BatchOutput;

  /// A pinned, immutable view: one generation plus the delta window
  /// that was committed at pin time.  Copyable; holding any copy keeps
  /// the pinned generation (and log) alive.
  class Snapshot {
   public:
    uint64_t generation_number() const { return state_->generation->number(); }
    /// The pinned generation (exposed so callers can hold weak
    /// references and observe retirement after a swap).
    std::shared_ptr<const Generation<P>> generation() const {
      return state_->generation;
    }
    const ShardedDatabase<P>& database() const {
      return state_->generation->database();
    }
    /// Entries of the pinned delta window.
    size_t delta_entries() const { return delta_end_; }
    /// Live points in this view: the base plus the window's inserts,
    /// less its removes (each retired exactly one live id).
    size_t live_size() const {
      size_t size = state_->generation->size();
      for (size_t i = 0; i < delta_end_; ++i) {
        state_->log->entry(i).is_remove ? --size : ++size;
      }
      return size;
    }
    /// The view's dataset in compaction order — the concatenation of
    /// MaterializeSlices() in shard order.  Compacting this exact view
    /// and building a fresh database over these slices (see
    /// MaterializeSlices) yield bit-identical search behavior.
    std::vector<P> Materialize() const {
      return Concatenate(MaterializeSlices());
    }

    /// The view's dataset as the per-shard slices compaction folds it
    /// into: slice s holds shard s's base survivors in id order, then
    /// the alive delta inserts routed to s in arrival order.  A
    /// ShardedDatabase::BuildFromRegistrySliced over these slices with
    /// the store's (spec, seed) is the full-rebuild reference an
    /// incremental compaction must match bit-for-bit.
    std::vector<std::vector<P>> MaterializeSlices() const {
      return MaterializeRouted(*state_->generation, *state_->log,
                               delta_end_);
    }

    /// The point behind a live id in this view — how a serving layer
    /// fetches the record named by a SearchResult.  NotFound for
    /// removed or never-assigned ids.
    util::Result<P> ResolvePoint(size_t id) const {
      const DeltaLog<P>& log = *state_->log;
      const ShardedDatabase<P>& db = state_->generation->database();
      // The window assigned fewer than delta_end_ insert ids.
      if (id < db.size() + delta_end_ &&
          log.RemovedIn(delta_end_).Contains(id)) {
        return util::Status::NotFound("LiveDatabase: id " +
                                      std::to_string(id) +
                                      " was removed in this view");
      }
      if (id < db.size()) {
        const uint32_t s = db.ShardOf(id);
        return db.shard(s).points().Point(id - db.shard_offset(s));
      }
      // Pending insert base + j sits at log position j or later.
      for (size_t i = id - db.size(); i < delta_end_; ++i) {
        const typename DeltaLog<P>::Entry& entry = log.entry(i);
        if (!entry.is_remove && entry.id == id) return entry.point;
      }
      return util::Status::NotFound(
          "LiveDatabase: no point with id " + std::to_string(id));
    }

   private:
    friend class LiveDatabase<P>;
    // Only Pin() constructs snapshots, so state_ is always set and the
    // accessors never see a null view.
    Snapshot() = default;
    std::shared_ptr<const State> state_;
    size_t delta_end_ = 0;
  };

  /// Opens the store.  `spec` is an index registry spec optionally
  /// carrying the live knobs (`delta_scan_limit`,
  /// `auto_compact_threshold`, `wal_dir`, `fsync`); the residual spec
  /// (knobs stripped) builds every generation's shards.
  ///
  /// Without `wal_dir` the store is purely in memory: generation 1 is
  /// built over `data` and a crash discards everything.  With
  /// `wal_dir`, the store is durable:
  ///   - an empty directory opens fresh — generation 1 is built over
  ///     `data`, its snapshot is written, and a WAL is started;
  ///   - a directory holding a store recovers it — the newest valid
  ///     snapshot is loaded (a partially written or corrupted one is
  ///     rejected by checksum and the previous one used), its WAL is
  ///     replayed with any torn tail truncated, and the store resumes
  ///     exactly where the acked-and-durable writes left it.  `data`
  ///     must be empty in this case (the on-disk store IS the data);
  ///     spec/seed/shard_count must match what the snapshot records.
  static util::Result<std::unique_ptr<LiveDatabase>> Open(
      std::vector<P> data, const metric::Metric<P>& metric,
      size_t shard_count, const std::string& spec, uint64_t seed,
      LiveOptions options = {}) {
    util::Result<std::pair<std::string, index::LiveSpecOptions>> split =
        index::SplitLiveSpec(spec);
    if (!split.ok()) return split.status();
    const std::string& residual_spec = split.value().first;
    const index::LiveSpecOptions& live = split.value().second;
    if (!live.wal_dir.empty()) {
      return OpenDurable(std::move(data), metric, shard_count,
                         residual_spec, seed, live, options);
    }
    util::Result<std::shared_ptr<const Generation<P>>> generation =
        Generation<P>::Build(std::move(data), metric, shard_count,
                             residual_spec, seed, /*number=*/1,
                             options.build_threads);
    if (!generation.ok()) return generation.status();
    return std::unique_ptr<LiveDatabase>(new LiveDatabase(
        std::move(generation).value(), metric, shard_count, residual_spec,
        seed, live, options));
  }

  ~LiveDatabase() {
    // Drain any in-flight background compaction before members die.
    compact_pool_.Wait();
    if (wal_ != nullptr) {
      // Best-effort flush of a buffered tail (kBatched/kNever); a
      // failure here is a failure to extend durability past the last
      // policy-mandated sync, which the policy already allows.
      wal_->Close();
    }
    if (registry_ != nullptr) {
      for (uint64_t handle : callback_handles_) {
        registry_->UnregisterCallback(handle);
      }
    }
  }

  // ------------------------------------------------------------ reads

  /// Pins the current (generation, delta window) with a single acquire
  /// of the state slot.  Never blocks on writers or compactions and
  /// never observes a torn pair: the window length is read from the
  /// pinned log, which stops growing once a swap retires it.
  Snapshot Pin() const {
    Snapshot snapshot;
    snapshot.state_ = state_.load();
    snapshot.delta_end_ = snapshot.state_->log->committed();
    return snapshot;
  }

  /// The validation RunBatch applies to `spec` (index::ValidateRequest
  /// against the stored points' dimension): a serving layer runs it
  /// before anything of its own evaluates the query point.
  util::Status ValidateRequest(const QuerySpec<P>& spec) const {
    return index::ValidateRequest(spec, dim_.load(std::memory_order_relaxed));
  }

  /// Serves `batch` on the caller's engine against a pinned view (for
  /// a fresh one, pass Pin()).  QueryEngine::RunBatch is not reentrant,
  /// so concurrent callers each bring their own engine.  The whole
  /// batch sees `snapshot`'s generation and delta window,
  /// bit-identically to a fresh database built over
  /// snapshot.Materialize() for exact indexes — racing writes and swaps
  /// cannot leak in.  Per-query distance accounting includes the delta
  /// scan's exact evaluations; distance budgets and truncation flags
  /// apply to the generation search exactly as in the non-live engine
  /// (the delta leg is bounded by delta_scan_limit instead of the
  /// budget).
  BatchOutput RunBatch(QueryEngine<P>& engine, const Snapshot& snapshot,
                       const std::vector<QuerySpec<P>>& batch) const {
    const State& state = *snapshot.state_;
    if (snapshot.delta_end_ == 0) {
      // Empty window: the pinned generation answers alone, with the
      // exact behavior (and zero copies) of the non-live engine path.
      return engine.RunBatch(state.generation->database(), batch);
    }
    const DeltaLog<P>& log = *state.log;
    const size_t end = snapshot.delta_end_;
    const size_t query_count = batch.size();

    // Trace bookkeeping: traced queries get a delta-leg span, and the
    // engine's shard spans are rebased so every span of a live query
    // is relative to this call's start.
    const bool any_trace = std::any_of(
        batch.begin(), batch.end(),
        [](const QuerySpec<P>& spec) { return spec.collect_trace; });
    const auto live_start = std::chrono::steady_clock::now();
    std::vector<std::pair<double, double>> delta_times(
        any_trace ? query_count : 0);

    // Delta leg first: exact hits over the alive inserts, per query.
    // Its k-th distance seeds the generation search's pruning radius —
    // delta hits tighten shard pruning instead of only adding work.
    std::vector<QuerySpec<P>> adjusted(batch);
    std::vector<DeltaHits> delta(query_count);
    // Requests the store rejects (the engine checks the generation's
    // dimension, which is 0 for a store whose points are all pending).
    std::vector<util::Status> rejected(query_count, util::Status::OK());
    for (size_t q = 0; q < query_count; ++q) {
      const QuerySpec<P>& spec = batch[q];
      rejected[q] = ValidateRequest(spec);
      if (!rejected[q].ok()) continue;
      std::chrono::steady_clock::time_point delta_t0{};
      if (spec.collect_trace) delta_t0 = std::chrono::steady_clock::now();
      delta[q] = state.side->Search(spec, log, end, metric_);
      // k delta hits in hand (k >= 1 once validated): their k-th
      // distance bounds the merged k-th distance.
      if (spec.mode != index::SearchMode::kRange &&
          delta[q].results.size() == spec.k) {
        adjusted[q].initial_radius_bound =
            std::min(adjusted[q].initial_radius_bound,
                     delta[q].results.back().distance);
      }
      if (spec.collect_trace) {
        delta_times[q] = {Seconds(live_start, delta_t0),
                          Seconds(live_start,
                                  std::chrono::steady_clock::now())};
      }
    }

    // The shards skip the window's removed base ids inside the search.
    const index::RemovedIds removed = log.RemovedIn(end);
    BatchOutput out =
        engine.RunBatch(state.generation->database(), adjusted, &removed);

    const double engine_offset =
        any_trace ? Seconds(live_start, out.batch_start) : 0.0;
    for (size_t q = 0; q < query_count; ++q) {
      if (!rejected[q].ok()) {
        out.statuses[q] = rejected[q];
        out.results[q].clear();
        continue;
      }
      if (!out.statuses[q].ok()) continue;
      index::MergeDeltaResults(&out.results[q], std::move(delta[q].results),
                               batch[q].mode, batch[q].k);
      const uint64_t delta_cost = delta[q].distance_computations;
      out.per_query_distance_computations[q] += delta_cost;
      out.stats.distance_computations += delta_cost;
      if (batch[q].collect_trace) {
        // Rebase the engine's shard spans onto this call's clock and
        // prepend the delta-leg span, so the traced spans still
        // partition the query's (delta-inclusive) distance count.
        auto& spans = out.traces[q].spans;
        for (obs::SearchTrace::Span& span : spans) {
          span.start_seconds += engine_offset;
          span.stop_seconds += engine_offset;
        }
        obs::SearchTrace::Span delta_span;
        delta_span.delta = true;
        delta_span.start_seconds = delta_times[q].first;
        delta_span.stop_seconds = delta_times[q].second;
        delta_span.distance_computations = delta_cost;
        // The bound the delta leg handed the generation search (or
        // +inf when the delta could not cap it).
        delta_span.bound = adjusted[q].initial_radius_bound;
        spans.insert(spans.begin(), delta_span);
      }
    }
    if (any_trace) out.batch_start = live_start;
    return out;
  }

  // ----------------------------------------------------------- writes

  /// Appends `point` to the delta; visible to every query pinned after
  /// the append.  Returns the assigned id (stable until the next
  /// compaction folds it into the base).  OutOfRange when the delta
  /// holds delta_scan_limit entries — compact to make room.
  ///
  /// Durable stores write the WAL record first: an insert is only
  /// committed to the in-memory log (and thus acked) after the WAL
  /// accepted it, so no acked write can be absent from the log a
  /// recovery replays.  A WAL I/O error is returned and the write is
  /// NOT applied.
  util::Result<size_t> Insert(P point) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    WalOp<P> op;
    op.point = std::move(point);
    util::Status valid = CheckOpLocked(op);
    if (!valid.ok()) return valid;
    // Route against the serving generation: the routing decides which
    // shard this insert dirties at the next fold, and travels in the
    // WAL record so recovery and replicas reproduce it exactly.
    op.shard = writer_.generation->router().Route(op.point);
    return CommitLocked(std::move(op), nullptr);
  }

  /// Removes the live point with `id` (a base point or a pending
  /// insert) from every query pinned after the append.  NotFound for
  /// ids that do not name a live point in the current numbering;
  /// OutOfRange when the delta is full.  WAL-before-commit as Insert.
  util::Status Remove(size_t id) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    WalOp<P> op;
    op.is_remove = true;
    op.id = id;
    util::Status valid = CheckOpLocked(op);
    if (!valid.ok()) return valid;
    // The remove dirties the shard that owns its target.
    op.shard = writer_.ShardOf(id);
    return CommitLocked(std::move(op), nullptr).status();
  }

  /// Replication fast path: applies one WAL record received from a
  /// primary, appending the primary's exact encoded bytes to the
  /// local WAL instead of re-encoding the point.  The replica's WAL
  /// mirrors the primary's record stream 1:1, so `record` is
  /// byte-identical to what Insert/Remove would have produced —
  /// callers must pass `op` == DecodeWalRecord(record).  Same
  /// semantics and error statuses as Insert/Remove otherwise.
  util::Status ApplyReplicated(WalOp<P> op, const std::string& record) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    // The primary's routing is authoritative — re-deriving it here
    // could only agree (the routers are built from bit-identical
    // generations), so trust the tag once the check has bounded it.
    util::Status valid = CheckOpLocked(op);
    if (!valid.ok()) return valid;
    return CommitLocked(std::move(op), &record).status();
  }

  /// Forces everything acked so far onto disk regardless of fsync
  /// policy (no-op for in-memory stores).  The one way to get a
  /// durability point under fsync=batched/never without compacting.
  util::Status SyncWal() {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (wal_ == nullptr) return util::Status::OK();
    return wal_->Sync();
  }

  // ------------------------------------------------------ replication

  /// Registers `listener` (one at a time; replaces any previous) and
  /// returns the exact stream position it joins at: OnRecord/OnRotate
  /// continue seamlessly after the seed's records, with no gap and no
  /// duplicate — both the seed capture and every callback happen under
  /// the write mutex, so the order is total.
  ReplicationSeed AttachReplicationListener(ReplicationListener* listener) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    listener_ = listener;
    ReplicationSeed seed;
    seed.generation =
        published_generation_.load(std::memory_order_relaxed);
    const size_t len = writer_.log->committed();
    seed.records.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      seed.records.push_back(EncodeWrite(writer_.log->entry(i)));
    }
    return seed;
  }

  /// Unregisters the listener; no callback fires after this returns.
  void DetachReplicationListener() {
    std::lock_guard<std::mutex> lock(write_mutex_);
    listener_ = nullptr;
  }

  /// Replaces the entire serving state with `generation` — the replica
  /// resync path after fetching a primary's snapshot.  The delta log is
  /// discarded (the caller re-applies the primary's stream from seq 1),
  /// a fresh WAL for the new generation is started (durable stores;
  /// the fetched snapshot file must already sit at its final name), and
  /// the old generation's files are retired unless it IS the new one
  /// (same-generation divergence resync: the rename that landed the
  /// fetched snapshot already replaced the file).  Both clocks bump —
  /// every cached result and bound predating the reset must die.
  /// Incompatible with an attached listener (a store being reset is a
  /// follower, not a source).
  util::Status ResetToGeneration(
      std::shared_ptr<const Generation<P>> generation) {
    std::lock_guard<std::mutex> compact_lock(compact_mutex_);
    std::lock_guard<std::mutex> write_lock(write_mutex_);
    DP_CHECK(listener_ == nullptr);
    const uint64_t old_generation =
        published_generation_.load(std::memory_order_relaxed);
    const uint64_t new_generation = generation->number();
    std::unique_ptr<storage::WalWriter> next_wal;
    if (env_ != nullptr) {
      auto opened = OpenWal(new_generation, /*truncate=*/true,
                            /*first_seq=*/1);
      if (!opened.ok()) return opened.status();
      next_wal = std::move(opened).value();
    }
    InstallWriterLocked(Writer(generation, delta_scan_limit_),
                        std::move(next_wal));
    remove_clock_.fetch_add(1, std::memory_order_relaxed);
    if (env_ != nullptr && old_generation != new_generation) {
      env_->DeleteFile(StorePath(WalFileName(old_generation)));
      env_->DeleteFile(StorePath(SnapshotFileName(old_generation)));
    }
    return util::Status::OK();
  }

  // ------------------------------------------------------- compaction

  /// Folds the committed delta into a new generation on the calling
  /// thread and swaps it in: Fold() (engine/fold.h) rebuilds the dirty
  /// shards from base ⊕ delta with the store's deterministic (spec,
  /// seed, shard count) — on `build_threads` workers — then this
  /// publishes the new
  /// State atomically.  Writes landing during the rebuild are carried
  /// over into the new generation's delta log, remapped to the new id
  /// space.  Queries never block: in-flight batches finish on the old
  /// generation, which retires when its last pin drops.  On a rebuild
  /// error (e.g. a spec that cannot index an emptied database) the old
  /// generation keeps serving and the delta is kept.
  util::Status Compact() {
    return CompactPrefix(std::numeric_limits<size_t>::max());
  }

  /// Like Compact(), but folds at most the first `limit` committed
  /// delta entries; the rest stay pending (remapped into the new
  /// generation's log).  Smaller windows bound the rebuild's latency
  /// and memory at the price of more frequent swaps.
  ///
  /// Durable stores additionally rotate their on-disk state, ordered so
  /// a crash at ANY point leaves exactly one recoverable store:
  ///   1. write snapshot-(N+1) under a .tmp name (fsynced, unpublished;
  ///      the slow part — runs before writers are blocked);
  ///   2. under the write lock, start wal-(N+1) with the remapped
  ///      unconsumed tail and fsync it — the tail must be durable in
  ///      the new log BEFORE the new snapshot becomes the recovery
  ///      root, or a crash after step 3 would lose acked writes;
  ///   3. publish: rename the .tmp to snapshot-(N+1) + directory fsync.
  ///      A crash before this recovers from snapshot-N + wal-N (the
  ///      orphan wal-(N+1)/.tmp are deleted); after it, from N+1;
  ///   4. swap the in-memory state and switch the writer to wal-(N+1);
  ///   5. outside the locks, retire snapshot-N and wal-N (best-effort —
  ///      recovery ignores stale generations anyway).
  /// Any I/O failure aborts before step 4: the old generation (memory
  /// and disk) keeps serving, partial files are deleted, and the error
  /// is returned and counted in live_compaction_failures_total.
  util::Status CompactPrefix(size_t limit) {
    std::lock_guard<std::mutex> compact_lock(compact_mutex_);
    std::shared_ptr<const State> state = state_.load();
    const size_t end = std::min(limit, state->log->committed());
    if (end == 0) return util::Status::OK();  // nothing to fold

    const auto compact_start = std::chrono::steady_clock::now();
    const uint64_t old_generation = state->generation->number();
    const uint64_t new_generation = old_generation + 1;
    util::Result<FoldOutput<P>> folded =
        Fold(*state->generation, *state->log, end, metric_, build_threads_);
    if (!folded.ok()) return CompactionFailed(folded.status());
    FoldOutput<P>& fold = folded.value();

    const bool durable = env_ != nullptr;
    const std::string snapshot_path =
        durable ? StorePath(SnapshotFileName(new_generation)) : std::string();
    const std::string tmp_snapshot_path = snapshot_path + ".tmp";
    if (durable) {
      util::Status written = WriteSnapshotTimed(
          *fold.generation, tmp_snapshot_path, /*atomic=*/false);
      if (!written.ok()) {
        env_->DeleteFile(tmp_snapshot_path);  // best effort
        return CompactionFailed(written);
      }
    }

    {
      // Swap: carry the unconsumed tail into a fresh log (copied, not
      // moved — pinned readers still scan the retired log) and publish.
      // Writers block only for the tail replay (and, when durable, the
      // tail fsync + rename).
      std::lock_guard<std::mutex> write_lock(write_mutex_);

      std::unique_ptr<storage::WalWriter> next_wal;
      const auto fail_rotation = [&](util::Status error) {
        if (next_wal != nullptr) next_wal->Close();  // best effort, like
        next_wal.reset();                            // the deletes below
        env_->DeleteFile(StorePath(WalFileName(new_generation)));
        env_->DeleteFile(tmp_snapshot_path);
        env_->DeleteFile(snapshot_path);
        return CompactionFailed(error);
      };
      if (durable) {
        auto opened = OpenWal(new_generation, /*truncate=*/true,
                              /*first_seq=*/1);
        if (!opened.ok()) return fail_rotation(opened.status());
        next_wal = std::move(opened).value();
      }

      const size_t len = state->log->committed();
      // The carried tail may exceed the limit only after a replay did.
      Writer next(fold.generation, std::max(delta_scan_limit_, len - end));
      std::unordered_map<size_t, size_t> tail_map;  // old id -> new id
      std::vector<std::string> carried;  // re-encoded tail, for OnRotate
      for (size_t i = end; i < len; ++i) {
        const typename DeltaLog<P>::Entry& entry = state->log->entry(i);
        WalOp<P> op;
        op.is_remove = entry.is_remove;
        if (!entry.is_remove) {
          // Re-route against the NEW generation's layout: the carried
          // entry now dirties a shard of generation N+1.  Replicas
          // replay the same CompactPrefix over a bit-identical state,
          // so their re-encoded tails match byte for byte.
          op.shard = next.generation->router().Route(entry.point);
          op.point = entry.point;
        } else {
          // Writer-side validation guarantees the target survived the
          // folded window, so it maps into the new space (a tail insert
          // replayed above, else a base survivor or folded insert via
          // the closed-form remap).
          const auto tail_mapped = tail_map.find(entry.id);
          op.id = tail_mapped != tail_map.end() ? tail_mapped->second
                                                : fold.remap.At(entry.id);
          op.shard = next.ShardOf(op.id);
        }
        if (next_wal != nullptr || listener_ != nullptr) {
          std::string record = EncodeWrite(op);
          if (next_wal != nullptr) {
            util::Status logged = next_wal->Append(record);
            if (!logged.ok()) return fail_rotation(logged);
          }
          if (listener_ != nullptr) carried.push_back(std::move(record));
        }
        const size_t new_id = next.Append(std::move(op));
        if (!entry.is_remove) tail_map.emplace(entry.id, new_id);
      }
      if (durable) {
        util::Status synced = next_wal->Sync();
        if (!synced.ok()) return fail_rotation(synced);
        util::Status renamed =
            env_->RenameFile(tmp_snapshot_path, snapshot_path);
        if (!renamed.ok()) return fail_rotation(renamed);
        util::Status dir_synced = env_->SyncDir(wal_dir_);
        if (!dir_synced.ok()) return fail_rotation(dir_synced);
      }
      // A swap remaps ids, so cached result sets keyed on the old
      // numbering must stop serving: the install bumps the mutation
      // clock even though the live point set is unchanged.
      InstallWriterLocked(std::move(next), std::move(next_wal));
      if (listener_ != nullptr) {
        listener_->OnRotate(new_generation, end, std::move(carried));
      }
      if (compactions_ != nullptr) compactions_->Increment();
      if (compaction_seconds_ != nullptr) {
        compaction_seconds_->Record(
            Seconds(compact_start, std::chrono::steady_clock::now()));
      }
      if (compaction_folded_entries_ != nullptr) {
        compaction_folded_entries_->Record(static_cast<double>(end));
      }
      if (compaction_shards_rebuilt_ != nullptr) {
        compaction_shards_rebuilt_->Add(fold.stats.shards_rebuilt);
      }
      if (compaction_shards_shared_ != nullptr) {
        compaction_shards_shared_->Add(fold.stats.shards_shared);
      }
    }
    fold.stats.seconds =
        Seconds(compact_start, std::chrono::steady_clock::now());
    {
      std::lock_guard<std::mutex> stats_lock(compaction_stats_mutex_);
      last_compaction_stats_ = fold.stats;
    }
    if (durable) {
      env_->DeleteFile(StorePath(WalFileName(old_generation)));
      env_->DeleteFile(StorePath(SnapshotFileName(old_generation)));
    }
    return util::Status::OK();
  }

  /// Counts a failed compaction and passes its status through.
  util::Status CompactionFailed(util::Status error) {
    if (compaction_failures_ != nullptr) compaction_failures_->Increment();
    return error;
  }

  /// Schedules Compact() on the store's background thread and returns
  /// immediately; at most one background compaction is pending at a
  /// time (further calls are no-ops until it settles).  A failed
  /// attempt is retried with capped exponential backoff (10/20/40 ms,
  /// four attempts total) so a transient fault — a failed fsync, a
  /// momentarily full disk — does not permanently wedge
  /// auto-compaction; every failed attempt counts in
  /// live_compaction_failures_total, and the sequence's final status
  /// lands in last_background_compact_status().
  void CompactAsync() {
    bool expected = false;
    if (!compact_pending_.compare_exchange_strong(expected, true)) return;
    compact_pool_.Submit([this]() {
      constexpr int kAttempts = 4;
      constexpr std::chrono::milliseconds kBaseBackoff{10};
      util::Status status = Compact();
      for (int attempt = 1; !status.ok() && attempt < kAttempts; ++attempt) {
        std::this_thread::sleep_for(kBaseBackoff * (1 << (attempt - 1)));
        status = Compact();
      }
      {
        std::lock_guard<std::mutex> lock(background_status_mutex_);
        background_compact_status_ = status;
      }
      compact_pending_.store(false);
      // Writes that landed during the fold (and were carried over as
      // the new log's tail) found compact_pending_ set and could not
      // re-arm the trigger — re-check here so a threshold-sized tail
      // folds without waiting for the next write.
      if (status.ok() && auto_compact_threshold_ != 0 &&
          delta_entries() >= auto_compact_threshold_) {
        CompactAsync();
      }
    });
  }

  /// Blocks until every scheduled background compaction has finished.
  /// Call from the owning thread only (ThreadPool::Wait contract).
  void WaitForCompaction() { compact_pool_.Wait(); }

  /// Final status of the most recent background compaction sequence
  /// (OK initially, and again once a later sequence succeeds).
  util::Status last_background_compact_status() const {
    std::lock_guard<std::mutex> lock(background_status_mutex_);
    return background_compact_status_;
  }

  /// Accounting of the most recent successful compaction — how many
  /// shards it rebuilt vs shared, and the build work it spent.
  LiveCompactionStats last_compaction_stats() const {
    std::lock_guard<std::mutex> lock(compaction_stats_mutex_);
    return last_compaction_stats_;
  }

  // -------------------------------------------------------- accessors

  /// Current generation number (starts at 1, +1 per compaction).  A
  /// relaxed atomic mirror of the published state — no pin, no slot
  /// lock — so serving layers can tag cache entries per request.
  uint64_t generation_number() const {
    return published_generation_.load(std::memory_order_relaxed);
  }
  /// Pending delta entries (inserts + removes) awaiting compaction.
  /// Mirror of the current log's committed counter, readable without
  /// pinning; paired with generation_number() it identifies the
  /// serving (generation, delta window) to within one racing write.
  size_t delta_entries() const {
    return published_delta_depth_.load(std::memory_order_relaxed);
  }
  /// Monotone write clock: +1 per acked Insert/Remove and +1 per
  /// generation swap.  Two equal readings bracket a window in which the
  /// set of visible (id, point) pairs cannot have changed, which is
  /// exactly the validity condition for serving a cached result set.
  uint64_t mutation_clock() const {
    return mutation_clock_.load(std::memory_order_relaxed);
  }
  /// Monotone removal clock: +1 per acked Remove.  Inserts only shrink
  /// true k-th distances and compactions preserve the live point set,
  /// so a cached k-th-distance upper bound stays valid exactly while
  /// this clock is unchanged.
  uint64_t remove_clock() const {
    return remove_clock_.load(std::memory_order_relaxed);
  }
  /// Live points in the current view.
  size_t size() const { return Pin().live_size(); }

  const metric::Metric<P>& metric() const { return metric_; }
  size_t shard_count() const { return shard_count_; }
  /// The residual index spec every generation is built from.
  const std::string& index_spec() const { return index_spec_; }
  uint64_t seed() const { return seed_; }
  size_t delta_scan_limit() const { return delta_scan_limit_; }
  size_t auto_compact_threshold() const { return auto_compact_threshold_; }
  /// True when the store persists (spec carried `wal_dir`).  The next
  /// two are only meaningful then — the serving layer uses them to
  /// read snapshot files for replication.
  bool durable() const { return env_ != nullptr; }
  storage::Env* env() const { return env_; }
  const std::string& wal_dir() const { return wal_dir_; }
  size_t build_threads() const { return build_threads_; }

 private:
  LiveDatabase(std::shared_ptr<const Generation<P>> generation,
               metric::Metric<P> metric, size_t shard_count,
               std::string index_spec, uint64_t seed,
               index::LiveSpecOptions live, LiveOptions options)
      : metric_(std::move(metric)),
        shard_count_(shard_count),
        index_spec_(std::move(index_spec)),
        seed_(seed),
        delta_scan_limit_(
            std::min(live.delta_scan_limit, DeltaLog<P>::kCapacity)),
        auto_compact_threshold_(live.auto_compact_threshold),
        delta_index_min_(live.delta_index_min),
        build_threads_(options.build_threads),
        writer_(generation, delta_scan_limit_) {
    TrackGeneration(writer_.generation);
    published_generation_.store(writer_.generation->number(),
                                std::memory_order_relaxed);
    NoteDimLocked(writer_.generation->database().dim());
    state_.store(std::make_shared<const State>(writer_));
    if (options.metrics != nullptr) EnableMetrics(options.metrics);
  }

  // ------------------------------------------------------- durability

  /// Open() for specs carrying `wal_dir`: a directory with no snapshot
  /// opens fresh (generation 1 over `data`, snapshot written, WAL
  /// started); a directory holding a store recovers it (newest valid
  /// snapshot + WAL replay).  See the Open() doc comment for the
  /// contract.
  static util::Result<std::unique_ptr<LiveDatabase>> OpenDurable(
      std::vector<P> data, const metric::Metric<P>& metric,
      size_t shard_count, const std::string& index_spec, uint64_t seed,
      const index::LiveSpecOptions& live, LiveOptions options) {
    storage::Env* env =
        options.env != nullptr ? options.env : storage::Env::Default();
    util::Result<storage::FsyncPolicy> policy =
        storage::ParseFsyncPolicy(live.fsync);
    if (!policy.ok()) return policy.status();
    DP_RETURN_IF_ERROR(env->CreateDir(live.wal_dir));
    util::Result<std::vector<uint64_t>> listed =
        ListStoreSnapshots(env, live.wal_dir);
    if (!listed.ok()) return listed.status();
    const std::vector<uint64_t>& snapshots = listed.value();

    if (!snapshots.empty() && !data.empty()) {
      return util::Status::InvalidArgument(
          "LiveDatabase: opening an existing durable store requires "
          "empty seed data (the on-disk store IS the data)");
    }
    // A fresh store publishes its snapshot before the WAL opens, so a
    // crash anywhere in here leaves either nothing (re-open fresh) or a
    // recoverable generation 1.
    util::Result<std::shared_ptr<const Generation<P>>> generation =
        snapshots.empty()
            ? Generation<P>::Build(std::move(data), metric, shard_count,
                                   index_spec, seed, /*number=*/1,
                                   options.build_threads)
            : ReadNewestStoreSnapshot<P>(env, live.wal_dir, snapshots,
                                         metric, shard_count, index_spec,
                                         seed, options.build_threads);
    if (!generation.ok()) return generation.status();

    const uint64_t gen_number = generation.value()->number();
    std::unique_ptr<LiveDatabase> db(new LiveDatabase(
        std::move(generation).value(), metric, shard_count, index_spec, seed,
        live, options));
    db->env_ = env;
    db->wal_dir_ = live.wal_dir;
    db->fsync_policy_ = policy.value();
    uint64_t next_seq = 1;
    if (snapshots.empty()) {
      DP_RETURN_IF_ERROR(db->WriteSnapshotTimed(
          *db->writer_.generation, db->StorePath(SnapshotFileName(1)),
          /*atomic=*/true));
    } else {
      std::lock_guard<std::mutex> lock(db->write_mutex_);
      const std::string wal_path = db->StorePath(WalFileName(gen_number));
      auto contents = storage::ReadWal(env, wal_path, /*first_seq=*/1);
      if (contents.ok()) {
        if (contents.value().torn_tail) {
          // A frame the crash tore in half; everything before it is
          // intact, and under fsync=always everything acked is before it.
          DP_RETURN_IF_ERROR(
              env->TruncateFile(wal_path, contents.value().valid_bytes));
        }
        const size_t replayed = contents.value().records.size();
        if (replayed > db->writer_.log->capacity()) {
          // A store reopened with a smaller delta_scan_limit replays
          // the longer window it logged under the old one.
          db->writer_ = Writer(db->writer_.generation,
                               std::min(replayed, DeltaLog<P>::kCapacity));
          db->state_.store(std::make_shared<const State>(db->writer_));
        }
        for (const storage::WalRecord& record : contents.value().records) {
          auto op = DecodeWalRecord<P>(record.payload);
          if (!op.ok()) return op.status();
          DP_RETURN_IF_ERROR(db->ApplyRecoveredOp(std::move(op).value()));
        }
        if (!contents.value().records.empty()) {
          next_seq = contents.value().records.back().seq + 1;
        }
        if (db->recovery_replayed_ != nullptr) {
          db->recovery_replayed_->Add(contents.value().records.size());
        }
      } else if (contents.status().code() != util::StatusCode::kNotFound) {
        // A missing WAL is fine (a crash between snapshot publication and
        // WAL creation: zero replay); any other read error is fatal.
        return contents.status();
      }
      // Replay bypassed side-run upkeep: cover the replayed window with
      // one run per shard.  The live store's deeper stack of the same
      // window answers identically; per-query distance counts may differ.
      db->MaybeExtendSideIndexLocked();
    }
    auto wal = db->OpenWal(gen_number, /*truncate=*/snapshots.empty(),
                           next_seq);
    if (!wal.ok()) return wal.status();
    db->wal_ = std::move(wal).value();
    DeleteStrayStoreFiles(env, live.wal_dir, gen_number);
    return db;
  }

  std::string StorePath(const std::string& name) const {
    return wal_dir_ + "/" + name;
  }

  /// WriteGenerationSnapshot timed into snapshot_write_seconds.
  util::Status WriteSnapshotTimed(const Generation<P>& generation,
                                  const std::string& path, bool atomic) {
    const auto start = std::chrono::steady_clock::now();
    util::Status status =
        WriteGenerationSnapshot<P>(env_, path, generation, atomic);
    if (status.ok() && snapshot_seconds_ != nullptr) {
      snapshot_seconds_->Record(
          Seconds(start, std::chrono::steady_clock::now()));
    }
    return status;
  }

  /// Opens (or, with truncate=false, continues) wal-<generation> under
  /// the store's fsync policy and instruments.
  util::Result<std::unique_ptr<storage::WalWriter>> OpenWal(
      uint64_t generation, bool truncate, uint64_t first_seq) const {
    storage::WalWriter::Options wal_options;
    wal_options.policy = fsync_policy_;
    wal_options.instruments = wal_instruments_;
    return storage::WalWriter::Open(env_, StorePath(WalFileName(generation)),
                                    truncate, first_seq, wal_options);
  }

  /// Re-applies one recovered WAL operation: the write path's check
  /// and append, without the WAL append (the record is already in the
  /// log being replayed), counters, side-index upkeep or
  /// auto-compaction.  Insert ids are reassigned deterministically in
  /// replay order, reproducing the original assignment; an op the
  /// check refuses means the log does not belong to the snapshot.
  /// Caller holds write_mutex_.
  util::Status ApplyRecoveredOp(WalOp<P> op) {
    util::Status valid = CheckOpLocked(op);
    if (!valid.ok()) {
      return util::Status::IoError("recovery: " + valid.message() +
                                   " — the log does not match the snapshot");
    }
    if (writer_.log->committed() >= writer_.log->capacity()) {
      return util::Status::OutOfRange(
          "recovery: delta log capacity exceeded during replay");
    }
    AppendLocked(std::move(op));
    return util::Status::OK();
  }

  /// Wires the store's instruments into `registry`; called from the
  /// constructor when LiveOptions names a registry.
  void EnableMetrics(obs::MetricsRegistry* registry) {
    registry_ = registry;
    inserts_ = registry->GetCounter("live_inserts_total");
    removes_ = registry->GetCounter("live_removes_total");
    backpressure_ = registry->GetCounter("live_backpressure_total");
    compactions_ = registry->GetCounter("live_compactions_total");
    compaction_failures_ =
        registry->GetCounter("live_compaction_failures_total");
    compaction_seconds_ = registry->GetHistogram("live_compaction_seconds");
    compaction_folded_entries_ =
        registry->GetHistogram("live_compaction_folded_entries");
    compaction_shards_rebuilt_ =
        registry->GetCounter("live_compaction_shards_rebuilt_total");
    compaction_shards_shared_ =
        registry->GetCounter("live_compaction_shards_shared_total");
    side_points_built_ =
        registry->GetCounter("live_side_index_points_built_total");
    // Durability instruments: registered unconditionally (they stay at
    // zero for in-memory stores) so dashboards see a stable series set.
    wal_instruments_.appends_total = registry->GetCounter("wal_appends_total");
    wal_instruments_.bytes_total = registry->GetCounter("wal_bytes_total");
    wal_instruments_.fsync_seconds =
        registry->GetHistogram("wal_fsync_seconds");
    recovery_replayed_ = registry->GetCounter("recovery_replayed_entries");
    snapshot_seconds_ = registry->GetHistogram("snapshot_write_seconds");
    callback_handles_.push_back(registry->RegisterCallback(
        "live_delta_depth",
        [this]() { return static_cast<double>(delta_entries()); }));
    callback_handles_.push_back(registry->RegisterCallback(
        "live_pinned_generations",
        [this]() { return static_cast<double>(AliveGenerationCount()); }));
    callback_handles_.push_back(registry->RegisterCallback(
        "live_side_index_runs", [this]() {
          return static_cast<double>(state_.load()->side->run_count());
        }));
  }

  /// Remembers a generation so the pinned-generation gauge can count
  /// how many are still alive (the serving one plus every retired
  /// generation kept alive by an in-flight pin).
  void TrackGeneration(
      const std::shared_ptr<const Generation<P>>& generation) {
    std::lock_guard<std::mutex> lock(generations_mutex_);
    tracked_generations_.erase(
        std::remove_if(
            tracked_generations_.begin(), tracked_generations_.end(),
            [](const std::weak_ptr<const Generation<P>>& tracked) {
              return tracked.expired();
            }),
        tracked_generations_.end());
    tracked_generations_.push_back(generation);
  }

  size_t AliveGenerationCount() const {
    std::lock_guard<std::mutex> lock(generations_mutex_);
    size_t alive = 0;
    for (const auto& tracked : tracked_generations_) {
      if (!tracked.expired()) ++alive;
    }
    return alive;
  }

  static double Seconds(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  }

  /// Records the stored points' dimension the first time one is known.
  /// Caller holds write_mutex_ (or is the constructor).
  void NoteDimLocked(size_t dim) {
    if (dim_.load(std::memory_order_relaxed) == 0) {
      dim_.store(dim, std::memory_order_relaxed);
    }
  }

  /// Extends the side runs over the window's new stretch once it has
  /// grown delta_index_min_ entries past the covered prefix, and
  /// republishes the SAME (generation, log) with them: answers stay the
  /// same, only the per-query cost moves.  Caller holds write_mutex_.
  void MaybeExtendSideIndexLocked() {
    if (delta_index_min_ == 0) return;
    const size_t committed = writer_.log->committed();
    if (committed - writer_.side->covers() < delta_index_min_) return;
    writer_.side = SideRuns<P>::Extend(*writer_.side, *writer_.log,
                                       committed, metric_, seed_,
                                       shard_count_);
    if (side_points_built_ != nullptr) {
      side_points_built_->Add(writer_.side->points_built());
    }
    state_.store(std::make_shared<const State>(writer_));
  }

  /// Backpressure check; caller holds write_mutex_.
  util::Status EnsureRoomLocked() {
    if (writer_.log->committed() < delta_scan_limit_) {
      return util::Status::OK();
    }
    if (backpressure_ != nullptr) backpressure_->Increment();
    return util::Status::OutOfRange(
        "LiveDatabase: delta buffer full (delta_scan_limit=" +
        std::to_string(delta_scan_limit_) + "); Compact() to make room");
  }

  /// Fires the background compaction once the delta reaches the
  /// auto_compact_threshold knob; caller holds write_mutex_.
  void MaybeScheduleAutoCompactLocked() {
    if (auto_compact_threshold_ == 0) return;
    if (writer_.log->committed() < auto_compact_threshold_) return;
    CompactAsync();
  }

  /// The one validation every write passes — Insert, Remove,
  /// ApplyReplicated and WAL replay alike: the shard tag names a shard,
  /// an insert has the stored points' dimension (rejected before the
  /// WAL sees it, so a bad point can neither reach a metric nor poison
  /// recovery), and a remove names a live id.  InvalidArgument,
  /// InvalidArgument and NotFound respectively.  Caller holds
  /// write_mutex_.
  util::Status CheckOpLocked(const WalOp<P>& op) const {
    if (op.shard >= shard_count_) {
      return util::Status::InvalidArgument(
          "LiveDatabase: record routes to shard " + std::to_string(op.shard) +
          " of " + std::to_string(shard_count_));
    }
    if (!op.is_remove) {
      return index::ValidateDimension(op.point,
                                      dim_.load(std::memory_order_relaxed),
                                      "LiveDatabase: inserted point");
    }
    if (!writer_.Live(static_cast<size_t>(op.id))) {
      return util::Status::NotFound("LiveDatabase: no live point with id " +
                                    std::to_string(op.id));
    }
    return util::Status::OK();
  }

  /// Commits a checked, routed op and returns its id: backpressure, then
  /// the WAL record (the primary's bytes when `prelogged` is given, else
  /// the op's encoding — built only when a WAL or listener needs it),
  /// the append, the listener, the counter, side-run upkeep and the
  /// auto-compaction trigger.  The WAL accepts the record before the
  /// entry is appended (and thus acked), so no acked write can be
  /// absent from the log a recovery replays; a WAL error is returned
  /// and the write is NOT applied.  Caller holds write_mutex_.
  util::Result<size_t> CommitLocked(WalOp<P> op,
                                    const std::string* prelogged) {
    util::Status room = EnsureRoomLocked();
    if (!room.ok()) return room;
    std::string encoded;
    const std::string* record = prelogged;
    if (record == nullptr && (wal_ != nullptr || listener_ != nullptr)) {
      encoded = EncodeWrite(op);
      record = &encoded;
    }
    if (wal_ != nullptr) {
      util::Status logged = wal_->Append(*record);
      if (!logged.ok()) return logged;
    }
    obs::Counter* counter = op.is_remove ? removes_ : inserts_;
    const size_t id = AppendLocked(std::move(op));
    if (listener_ != nullptr) {
      listener_->OnRecord(
          published_generation_.load(std::memory_order_relaxed),
          writer_.log->committed(), *record);
    }
    if (counter != nullptr) counter->Increment();
    MaybeExtendSideIndexLocked();
    MaybeScheduleAutoCompactLocked();
    return id;
  }

  /// Writer::Append plus the store-wide mirrors: the stored dimension,
  /// the delta depth and both clocks.  Caller holds write_mutex_.
  size_t AppendLocked(WalOp<P> op) {
    const bool is_remove = op.is_remove;
    if (!is_remove) NoteDimLocked(index::PointDimension(op.point));
    const size_t id = writer_.Append(std::move(op));
    published_delta_depth_.store(writer_.log->committed(),
                                 std::memory_order_relaxed);
    mutation_clock_.fetch_add(1, std::memory_order_relaxed);
    if (is_remove) remove_clock_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  /// Makes `next` the serving writer — the one swap behind folds and
  /// resyncs: publishes its State, switches the WAL to `wal` (null for
  /// in-memory stores; the old log is about to retire), and bumps the
  /// generation and depth mirrors and the mutation clock (a swap remaps
  /// ids).  Caller holds write_mutex_.
  void InstallWriterLocked(Writer next,
                           std::unique_ptr<storage::WalWriter> wal) {
    if (registry_ != nullptr) TrackGeneration(next.generation);
    NoteDimLocked(next.generation->database().dim());
    state_.store(std::make_shared<const State>(next));
    writer_ = std::move(next);
    if (wal_ != nullptr) wal_->Close();
    wal_ = std::move(wal);
    published_generation_.store(writer_.generation->number(),
                                std::memory_order_relaxed);
    published_delta_depth_.store(writer_.log->committed(),
                                 std::memory_order_relaxed);
    mutation_clock_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The WAL payload for one write: a WalOp or a delta log entry.
  template <typename Write>
  static std::string EncodeWrite(const Write& write) {
    return write.is_remove ? EncodeWalRemove<P>(write.id, write.shard)
                           : EncodeWalInsert<P>(write.point, write.shard);
  }

  const metric::Metric<P> metric_;
  const size_t shard_count_;
  const std::string index_spec_;
  const uint64_t seed_;
  const size_t delta_scan_limit_;
  const size_t auto_compact_threshold_;
  /// Window size at which the side runs engage (and the publication
  /// cadence as the window keeps growing); 0 disables them.
  const size_t delta_index_min_;
  const size_t build_threads_;

  /// The serving state; queries pin it through the atomic slot.
  StateSlot state_;

  /// Pin-free mirrors of the published state, for cache tagging and
  /// cheap introspection (/statz).  All monotone except the delta
  /// depth, which resets to the carried tail at each swap.  Relaxed is
  /// sufficient: a tag is read before the pin it guards, so an entry
  /// filled under tag T only ever serves while zero mutations landed
  /// since T — any write between the tag read and a later lookup bumps
  /// the clock before that lookup can observe equality.
  std::atomic<uint64_t> published_generation_{1};
  std::atomic<size_t> published_delta_depth_{0};
  std::atomic<uint64_t> mutation_clock_{0};
  std::atomic<uint64_t> remove_clock_{0};
  /// Dimension of the stored points (see index::ValidateDimension):
  /// set by the first generation or insert that holds a point with
  /// one, never changed after.  0 accepts any dimension.
  std::atomic<size_t> dim_{0};

  /// Serializes writes; guards writer_ and listener_.
  std::mutex write_mutex_;
  Writer writer_;
  /// Replication tap.
  ReplicationListener* listener_ = nullptr;

  /// Observability (all null/empty when no registry was given): the
  /// write-path counters, the compaction histograms, and the weak list
  /// behind the pinned-generation gauge.
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* inserts_ = nullptr;
  obs::Counter* removes_ = nullptr;
  obs::Counter* backpressure_ = nullptr;
  obs::Counter* compactions_ = nullptr;
  obs::Counter* compaction_failures_ = nullptr;
  obs::Histogram* compaction_seconds_ = nullptr;
  obs::Histogram* compaction_folded_entries_ = nullptr;
  obs::Counter* compaction_shards_rebuilt_ = nullptr;
  obs::Counter* compaction_shards_shared_ = nullptr;
  obs::Counter* side_points_built_ = nullptr;  ///< SideRuns::points_built
  std::vector<uint64_t> callback_handles_;
  mutable std::mutex generations_mutex_;
  std::vector<std::weak_ptr<const Generation<P>>> tracked_generations_;

  /// Compactions are serialized; the swap additionally takes
  /// write_mutex_ for the tail replay.
  std::mutex compact_mutex_;
  std::atomic<bool> compact_pending_{false};
  mutable std::mutex background_status_mutex_;
  util::Status background_compact_status_;
  mutable std::mutex compaction_stats_mutex_;
  LiveCompactionStats last_compaction_stats_;

  /// Durable-store state; all unset for in-memory stores.  `env_` is
  /// borrowed (LiveOptions contract: it outlives the store); `wal_` is
  /// written under write_mutex_ and read by the destructor after every
  /// other thread has drained.
  storage::Env* env_ = nullptr;
  std::string wal_dir_;
  storage::FsyncPolicy fsync_policy_ = storage::FsyncPolicy::kBatched;
  std::unique_ptr<storage::WalWriter> wal_;
  storage::WalInstruments wal_instruments_;
  obs::Counter* recovery_replayed_ = nullptr;
  obs::Histogram* snapshot_seconds_ = nullptr;

  /// Background compaction worker.  Declared last: destroyed first, so
  /// a draining compaction task never touches dead members.
  util::ThreadPool compact_pool_{1};
};

}  // namespace engine
}  // namespace distperm

#endif  // DISTPERM_ENGINE_LIVE_DATABASE_H_
