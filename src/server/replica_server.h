// A self-healing read replica: a durable LiveDatabase whose only
// writer is a ReplicationClient, fronted by a read-only SearchServer.
//
// Open() bootstraps an empty directory by pulling the primary's
// current snapshot over the wire (resumable, CRC-checked), then opens
// the store through the ordinary durable recovery path — so a replica
// restarted after a crash needs no special casing: it recovers its own
// snapshot + WAL like any durable store and resumes the stream from
// its own delta_entries() + 1.
//
// Invariants this wiring enforces:
//   - read_only: wire Insert/Remove get kUnavailable; a client write
//     landing here would fork the replica from its primary.
//   - enable_replication = false: no chaining (a follow-on); the
//     replica never re-serves the stream.
//   - no auto_compact and no final Compact(): rotation is driven by
//     the primary's kWalFrameRotate frames only.  A self-initiated
//     fold would advance the local generation past the primary's and
//     force a full resync on the next handshake.
//
// Degradation: when the primary dies the server keeps answering from
// the last applied state while the client retries with backoff;
// staleness is visible as replica_lag_seconds / replica_applied_seq /
// replica_reconnects_total in the registry.

#ifndef DISTPERM_SERVER_REPLICA_SERVER_H_
#define DISTPERM_SERVER_REPLICA_SERVER_H_

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "engine/live_database.h"
#include "metric/metric.h"
#include "obs/metrics.h"
#include "server/replication_client.h"
#include "server/search_server.h"
#include "storage/env.h"
#include "util/status.h"

namespace distperm {
namespace server {

template <typename P>
class ReplicaServer {
 public:
  struct Options {
    /// Replica-local store directory (snapshot + WAL land here).
    std::string dir;
    /// Identity — must equal the primary's (spec, seed, shard_count)
    /// exactly; the handshake rejects any mismatch.  `index_spec` is
    /// the base spec without `wal_dir` (this class appends its own).
    std::string index_spec = "vp-tree";
    uint64_t seed = 0;
    size_t shard_count = 1;
    /// Extra live-spec knobs appended verbatim (e.g. "fsync=always" or
    /// "delta_scan_limit=512" to mirror the primary's).  Never pass
    /// auto_compact here — see the header comment.
    std::string live_knobs;
    size_t build_threads = 1;
    size_t engine_threads = 1;
    /// Primary endpoint, timeouts, and backoff.  `metrics` inside is
    /// ignored; the registry below is used throughout.
    typename ReplicationClient<P>::Options replication;
    /// Cap on how long Open() keeps retrying the initial snapshot
    /// bootstrap when the directory is empty and the primary is down.
    int bootstrap_timeout_ms = 30000;
    obs::MetricsRegistry* metrics = nullptr;
    /// Null uses storage::Env::Default().
    storage::Env* env = nullptr;
  };

  /// Bootstraps (if needed), recovers the local store, and wires the
  /// server + tail thread.  Nothing is listening yet — call Start().
  static util::Result<std::unique_ptr<ReplicaServer>> Open(
      const metric::Metric<P>& metric, const Options& options) {
    storage::Env* env =
        options.env != nullptr ? options.env : storage::Env::Default();
    DP_RETURN_IF_ERROR(env->CreateDir(options.dir));

    // Empty directory: pull the primary's current snapshot first, with
    // the same backoff the steady-state tail uses.  A directory that
    // already holds a snapshot recovers locally — even against a dead
    // primary — and catches up once it connects.  Only a published
    // snapshot counts (recovery's own listing decides): a .partial left by
    // a bootstrap cut short is not a store, and bootstrap resumes it.
    const auto snapshots = engine::ListStoreSnapshots(env, options.dir);
    if (!snapshots.ok() || snapshots.value().empty()) {
      typename ReplicationClient<P>::Options bootstrap = options.replication;
      bootstrap.metrics = options.metrics;
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(options.bootstrap_timeout_ms);
      int64_t backoff_ms = bootstrap.backoff_initial_ms;
      for (;;) {
        util::Status status = ReplicationClient<P>::BootstrapSnapshot(
            env, options.dir, options.index_spec, options.seed,
            options.shard_count, bootstrap);
        if (status.ok()) break;
        if (std::chrono::steady_clock::now() >= deadline) return status;
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms =
            std::min<int64_t>(backoff_ms * 2, bootstrap.backoff_max_ms);
      }
    }

    std::string live_spec = options.index_spec;
    live_spec +=
        (live_spec.find(':') == std::string::npos ? ":" : ",");
    live_spec += "wal_dir=" + options.dir;
    if (!options.live_knobs.empty()) live_spec += "," + options.live_knobs;

    engine::LiveOptions live_options;
    live_options.build_threads = options.build_threads;
    live_options.metrics = options.metrics;
    live_options.env = options.env;  // null = default, same as above
    auto opened = engine::LiveDatabase<P>::Open(
        {}, metric, options.shard_count, live_spec, options.seed,
        live_options);
    if (!opened.ok()) return opened.status();

    std::unique_ptr<ReplicaServer> replica(
        new ReplicaServer(options, std::move(opened).value()));
    return replica;
  }

  ~ReplicaServer() { Shutdown(); }
  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  /// Starts listening (0 = ephemeral) and launches the tail thread.
  /// Call before Run() (see SearchServer::Start).
  util::Status Start(uint16_t port) {
    DP_RETURN_IF_ERROR(server_->Start(port));
    client_->Start();
    return util::Status::OK();
  }

  /// Binds the metrics port; call before Run().
  util::Status StartMetrics(uint16_t port) {
    return server_->StartMetrics(port);
  }

  /// Runs the serving loop on the calling thread until Shutdown().
  void Run() { server_->Run(); }

  /// Tail thread first (no writer left), then the serving loop.
  /// Idempotent.  Deliberately NO final Compact() — see header.
  void Shutdown() {
    client_->Stop();
    server_->Shutdown();
  }

  engine::LiveDatabase<P>& db() { return *db_; }
  SearchServer<P>& server() { return *server_; }
  ReplicationClient<P>& replication() { return *client_; }

 private:
  ReplicaServer(const Options& options,
                std::unique_ptr<engine::LiveDatabase<P>> db)
      : db_(std::move(db)) {
    typename SearchServer<P>::Options server_options;
    server_options.engine_threads = options.engine_threads;
    server_options.metrics = options.metrics;
    server_options.read_only = true;
    server_options.enable_replication = false;
    server_ = std::make_unique<SearchServer<P>>(db_.get(), server_options);
    typename ReplicationClient<P>::Options client_options =
        options.replication;
    client_options.metrics = options.metrics;
    client_ = std::make_unique<ReplicationClient<P>>(db_.get(),
                                                     client_options);
  }

  std::unique_ptr<engine::LiveDatabase<P>> db_;
  std::unique_ptr<SearchServer<P>> server_;
  std::unique_ptr<ReplicationClient<P>> client_;
};

}  // namespace server
}  // namespace distperm

#endif  // DISTPERM_SERVER_REPLICA_SERVER_H_
