// Network front door over a LiveDatabase.
//
// One epoll thread owns everything: accepts, frame parsing, admission,
// cache probes, and the engine call itself.  Search frames that arrive
// back-to-back on a connection are coalesced into one
// QueryEngine::RunBatch against a single pinned snapshot (the engine
// parallelizes internally across its worker pool), so a pipelining
// client gets batch throughput without the server juggling futures.
// Any non-search frame (ping/insert/remove) flushes the pending batch
// first — responses always leave in request order.
//
// Admission control spends a distance-computation budget as currency:
// each search's cost is estimated from the live store's size (clamped
// by the request's own budget when it has one), and a batch stops
// admitting once the estimates exceed `max_inflight_distance_budget`.
// Rejected requests get an explicit kUnavailable response — overload
// is an answer, not a dropped connection.  The first request of a
// batch is always admitted, so a budget below the cost of one search
// degrades to serial execution instead of livelock.
//
// A connection whose unsent responses exceed kMaxWriteBacklog is not
// read until its client drains them below the cap, so a client that
// pipelines requests and never reads fills its own socket buffers, not
// server memory.  Frames already read are answered only while the
// backlog stays under the cap: a batch is cut where its answers, kNN
// ones counted at k results each, would pass it, and the rest of the
// read stays buffered until a flush brings the backlog back under.  So
// the backlog passes the cap by at most one answer, plus whatever range
// answers (whose size is not known in advance) hold beyond their fixed
// fields.
//
// The perm cache (see perm_cache.h) sits in front of the engine:
// mutation tags are read BEFORE the snapshot pin, hits replay verbatim
// (flagged kResponseCacheHit), and prefix-cell neighbours seed
// initial_radius_bound (flagged kResponseBoundSeeded) — exactness-
// preserving, so the bound path only ever reduces distance
// computations.  The bound path is disabled automatically for
// approximate ("distperm*") index specs.
//
// Shutdown() is thread-safe: the next tick closes the listeners,
// flushes every connection, and stops the loop — callers then drop
// the server and run their own final Compact() for durable stores.

#ifndef DISTPERM_SERVER_SEARCH_SERVER_H_
#define DISTPERM_SERVER_SEARCH_SERVER_H_

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/live_database.h"
#include "engine/query_engine.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/listener.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "server/perm_cache.h"
#include "storage/crc32.h"
#include "storage/point_codec.h"
#include "util/status.h"

namespace distperm {
namespace server {

/// Point-in-time snapshot for the /statz page (built in the .cc so the
/// JSON shape has one owner).
struct ServerStatz {
  uint64_t generation = 0;
  uint64_t delta_depth = 0;
  uint64_t mutation_clock = 0;
  uint64_t remove_clock = 0;
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t batches = 0;
  uint64_t overload_rejected = 0;
  uint64_t decode_errors = 0;
  uint64_t paused_connections = 0;
  uint64_t write_backlog_max_bytes = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_bound_seeds = 0;
  uint64_t cache_invalidations = 0;
  uint64_t cache_evictions = 0;
};
std::string StatzJson(const ServerStatz& statz);

/// True once `buffer` holds a complete HTTP request line; extracts the
/// GET path ("" for malformed lines).
bool ParseHttpGetPath(const std::string& buffer, std::string* path);
std::string HttpTextResponse(int status_code, const std::string& body);

template <typename P>
class SearchServer {
 public:
  /// Unsent response bytes above which a connection is not read.
  static constexpr size_t kMaxWriteBacklog = size_t{8} << 20;

  struct Options {
    /// Worker threads of the server-owned QueryEngine.
    size_t engine_threads = 1;
    /// Admission currency: estimated distance computations a batch may
    /// admit.  0 = unlimited.
    uint64_t max_inflight_distance_budget = 0;
    /// Cap on search requests coalesced into one batch per connection;
    /// the overflow gets kUnavailable.
    size_t max_requests_per_connection = 256;
    size_t max_connections = 1024;
    /// Idle connections older than this are closed by the tick sweep.
    /// 0 = never.
    uint64_t idle_timeout_ms = 0;
    /// Perm-cache answer capacity; 0 = cache off.
    size_t perm_cache_capacity = 0;
    /// Sites sampled from the store at startup for the cache's
    /// distance permutations.
    size_t perm_cache_sites = 12;
    size_t perm_cache_prefix = 4;
    uint64_t perm_cache_ttl_seconds = 0;
    obs::MetricsRegistry* metrics = nullptr;
    /// Serve replication (handshake / snapshot chunks / WAL stream) to
    /// followers.  Effective only for durable stores — replication
    /// ships snapshot files and WAL positions, which in-memory stores
    /// do not have.
    bool enable_replication = true;
    /// Snapshot transfer chunk size.  Each chunk is one kSnapshotChunk
    /// frame, so this bounds the per-subscriber write-buffer spike and
    /// must stay well under net::kMaxPayloadSize.
    size_t replication_chunk_bytes = 256 * 1024;
    /// Reject wire Insert/Remove with kUnavailable — the replica mode:
    /// the only writer is the replication apply path, and a client
    /// write landing on a follower would fork it from its primary.
    bool read_only = false;
  };

  SearchServer(engine::LiveDatabase<P>* db, const Options& options)
      : db_(db), options_(options), engine_(options.engine_threads) {
    DP_CHECK(db_ != nullptr);
    if (options_.metrics != nullptr) {
      engine_.EnableMetrics(options_.metrics);
      obs_accepted_ = options_.metrics->GetCounter(
          "server_connections_accepted_total");
      obs_requests_ = options_.metrics->GetCounter("server_requests_total");
      obs_overload_ = options_.metrics->GetCounter(
          "server_overload_rejected_total");
      obs_decode_errors_ =
          options_.metrics->GetCounter("server_decode_errors_total");
      obs_batches_ = options_.metrics->GetCounter("server_batches_total");
      gauge_handles_.push_back(options_.metrics->RegisterCallback(
          "server_active_connections",
          [this]() { return static_cast<double>(connections_.size()); }));
      gauge_handles_.push_back(options_.metrics->RegisterCallback(
          "server_paused_connections",
          [this]() { return static_cast<double>(paused_connections()); }));
      gauge_handles_.push_back(options_.metrics->RegisterCallback(
          "server_write_backlog_max_bytes", [this]() {
            return static_cast<double>(write_backlog_max_bytes());
          }));
    }
    bounds_allowed_ = db_->index_spec().rfind("distperm", 0) != 0;
    approx_size_.store(std::max<uint64_t>(1, db_->size()),
                       std::memory_order_relaxed);
    if (options_.perm_cache_capacity > 0) {
      typename PermCache<P>::Options cache_options;
      cache_options.capacity = options_.perm_cache_capacity;
      cache_options.prefix_length = options_.perm_cache_prefix;
      cache_options.ttl_seconds = options_.perm_cache_ttl_seconds;
      cache_options.enable_bounds = bounds_allowed_;
      cache_options.metrics = options_.metrics;
      cache_ = std::make_unique<PermCache<P>>(db_->metric(), cache_options);
      SampleCacheSites();
    }
    if (options_.enable_replication && db_->durable()) {
      source_listener_ = std::make_unique<SourceListener>(this);
      engine::ReplicationSeed seed =
          db_->AttachReplicationListener(source_listener_.get());
      repl_generation_ = seed.generation;
      repl_history_ = std::move(seed.records);
      replication_enabled_ = true;
      if (options_.metrics != nullptr) {
        obs_repl_handshakes_ = options_.metrics->GetCounter(
            "replication_handshakes_total");
        obs_repl_chunks_ = options_.metrics->GetCounter(
            "replication_snapshot_chunks_total");
        obs_repl_chunk_bytes_ = options_.metrics->GetCounter(
            "replication_snapshot_bytes_total");
        obs_repl_frames_ = options_.metrics->GetCounter(
            "replication_wal_frames_total");
        gauge_handles_.push_back(options_.metrics->RegisterCallback(
            "replication_subscribers", [this]() {
              return static_cast<double>(repl_subscriber_count_.load(
                  std::memory_order_relaxed));
            }));
      }
    }
    loop_.set_tick([this]() { Tick(); });
  }

  ~SearchServer() {
    // Detach first: after this returns no writer thread is inside a
    // listener callback, so member teardown cannot race one.
    if (source_listener_ != nullptr) db_->DetachReplicationListener();
    for (const uint64_t handle : gauge_handles_) {
      options_.metrics->UnregisterCallback(handle);
    }
  }
  SearchServer(const SearchServer&) = delete;
  SearchServer& operator=(const SearchServer&) = delete;

  /// Binds the search port (0 = ephemeral; see port()).  Call before
  /// Run(): it registers the listener with the event loop, which only
  /// the loop thread may touch once Run() has started.
  util::Status Start(uint16_t port) {
    auto listener = net::Listener::Bind(port);
    if (!listener.ok()) return listener.status();
    listener_ = std::move(listener).value();
    return loop_.Add(listener_->fd(), EPOLLIN,
                     [this](uint32_t) { AcceptReady(); });
  }

  /// Binds the plaintext metrics port (GET /metrics, GET /statz).
  /// Like Start(), call before Run().
  util::Status StartMetrics(uint16_t port) {
    auto listener = net::Listener::Bind(port);
    if (!listener.ok()) return listener.status();
    metrics_listener_ = std::move(listener).value();
    return loop_.Add(metrics_listener_->fd(), EPOLLIN,
                     [this](uint32_t) { AcceptMetricsReady(); });
  }

  uint16_t port() const { return listener_ ? listener_->port() : 0; }
  uint16_t metrics_port() const {
    return metrics_listener_ ? metrics_listener_->port() : 0;
  }

  /// Blocks serving until Shutdown().
  void Run() { loop_.Run(); }

  /// Thread/signal-safe-ish graceful stop: the next tick closes the
  /// listeners, flushes connections, and stops the loop.
  void Shutdown() {
    draining_.store(true, std::memory_order_release);
    loop_.Wake();
  }

  // Test accessors (loop-thread values mirrored in relaxed atomics).
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t overload_rejected() const {
    return overloads_.load(std::memory_order_relaxed);
  }
  uint64_t decode_errors() const {
    return decode_errors_.load(std::memory_order_relaxed);
  }
  uint64_t batches_executed() const {
    return batches_.load(std::memory_order_relaxed);
  }
  /// Connections not being read because their backlog passed the cap.
  uint64_t paused_connections() const {
    return paused_count_.load(std::memory_order_relaxed);
  }
  /// High-water mark of any search connection's unsent bytes.
  uint64_t write_backlog_max_bytes() const {
    return backlog_max_.load(std::memory_order_relaxed);
  }
  const PermCacheStore* cache_store() const {
    return cache_ ? &cache_->store() : nullptr;
  }

 private:
  struct BatchItem {
    index::SearchRequest<P> request;
    bool no_cache = false;
    bool rejected = false;
    std::string reject_message;
  };

  /// The search frames one ProcessFrames pass has coalesced and not yet
  /// answered, with their admission cost and the answer bytes they owe.
  /// Flush() answers them and resets all three together.
  struct PendingBatch {
    explicit PendingBatch(SearchServer* server) : server(server) {}

    void Flush(net::Connection* conn) {
      server->ExecuteSearchBatch(conn, &items);
      cost = 0;
      answer_bytes = 0;
    }

    SearchServer* const server;
    std::vector<BatchItem> items;
    uint64_t cost = 0;
    size_t answer_bytes = 0;
  };

  /// Evenly spaced ids over the initial snapshot; removed ids (holes)
  /// are skipped, and fewer than two surviving sites disable the cache.
  void SampleCacheSites() {
    typename engine::LiveDatabase<P>::Snapshot snapshot = db_->Pin();
    const size_t n =
        snapshot.database().size() + snapshot.delta_entries();
    if (n == 0) return;
    const size_t want =
        std::min(options_.perm_cache_sites, std::min(n, core::kMaxSites));
    std::vector<P> sites;
    sites.reserve(want);
    for (size_t i = 0; i < want; ++i) {
      util::Result<P> point = snapshot.ResolvePoint(i * n / want);
      if (point.ok()) sites.push_back(std::move(point).value());
    }
    cache_->SetSites(std::move(sites));
  }

  void AcceptReady() {
    for (;;) {
      util::Result<int> accepted = listener_->Accept();
      if (!accepted.ok()) return;
      const int fd = accepted.value();
      if (fd < 0) return;
      if (draining_.load(std::memory_order_acquire) ||
          connections_.size() + metrics_connections_.size() >=
              options_.max_connections) {
        close(fd);
        continue;
      }
      Count(&accepted_, obs_accepted_);
      connections_.emplace(fd, std::make_unique<net::Connection>(fd));
      loop_.Add(fd, EPOLLIN,
                [this, fd](uint32_t events) { ConnectionReady(fd, events); });
    }
  }

  void AcceptMetricsReady() {
    for (;;) {
      util::Result<int> accepted = metrics_listener_->Accept();
      if (!accepted.ok()) return;
      const int fd = accepted.value();
      if (fd < 0) return;
      if (draining_.load(std::memory_order_acquire)) {
        close(fd);
        continue;
      }
      metrics_connections_.emplace(fd, std::make_unique<net::Connection>(fd));
      loop_.Add(fd, EPOLLIN,
                [this, fd](uint32_t events) { MetricsReady(fd, events); });
    }
  }

  void ConnectionReady(int fd, uint32_t events) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    net::Connection& conn = *it->second;
    bool close_after = closing_.count(fd) != 0;
    if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 &&
        conn.ReadReady() != net::Connection::ReadResult::kOpen) {
      // Answer what arrived, then drop: close once it is flushed.
      close_after = true;
    }
    // Flush, then answer buffered frames while the backlog is under the
    // cap: a pass stops taking frames once it passes the cap, and a
    // flush that brings it back under lets the next pass go on.
    // Reading resumes only once every buffered frame is answered.
    bool keep = true;
    bool took_frames = true;
    for (;;) {
      if (!conn.Flush().ok()) {
        CloseConnection(fd);
        return;
      }
      if (!keep || !took_frames ||
          conn.pending_write_bytes() > kMaxWriteBacklog) {
        break;
      }
      const size_t buffered = conn.read_size();
      keep = ProcessFrames(&conn);
      NoteBacklog(conn);
      took_frames = conn.read_size() != buffered;
    }
    if (!keep) close_after = true;
    if (close_after && !conn.has_pending_write()) {
      CloseConnection(fd);
      return;
    }
    if (close_after) closing_.emplace(fd, true);
    UpdateInterest(fd, conn);
  }

  void MetricsReady(int fd, uint32_t events) {
    auto it = metrics_connections_.find(fd);
    if (it == metrics_connections_.end()) return;
    net::Connection& conn = *it->second;
    bool respond = false;
    std::string path;
    if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
      const net::Connection::ReadResult read = conn.ReadReady();
      respond = ParseHttpGetPath(
          std::string(conn.read_data(), conn.read_size()), &path);
      if (!respond && read != net::Connection::ReadResult::kOpen) {
        CloseMetricsConnection(fd);
        return;
      }
    }
    if (respond) {
      conn.Queue(MetricsResponse(path));
      closing_.emplace(fd, true);
    }
    if (!conn.Flush().ok() ||
        (closing_.count(fd) != 0 && !conn.has_pending_write())) {
      CloseMetricsConnection(fd);
      return;
    }
    UpdateInterest(fd, conn);
  }

  std::string MetricsResponse(const std::string& path) {
    if (path == "/metrics") {
      const std::string body = options_.metrics != nullptr
                                   ? options_.metrics->TextExposition()
                                   : std::string("# no metrics registry\n");
      return HttpTextResponse(200, body);
    }
    if (path == "/statz") {
      ServerStatz statz;
      statz.generation = db_->generation_number();
      statz.delta_depth = db_->delta_entries();
      statz.mutation_clock = db_->mutation_clock();
      statz.remove_clock = db_->remove_clock();
      statz.connections = connections_.size();
      statz.requests = requests_.load(std::memory_order_relaxed);
      statz.batches = batches_.load(std::memory_order_relaxed);
      statz.overload_rejected = overloads_.load(std::memory_order_relaxed);
      statz.decode_errors = decode_errors_.load(std::memory_order_relaxed);
      statz.paused_connections = paused_connections();
      statz.write_backlog_max_bytes = write_backlog_max_bytes();
      if (cache_) {
        const PermCacheStore& store = cache_->store();
        statz.cache_hits = store.hits();
        statz.cache_misses = store.misses();
        statz.cache_bound_seeds = store.bound_seeds();
        statz.cache_invalidations = store.invalidations();
        statz.cache_evictions = store.evictions();
      }
      return HttpTextResponse(200, StatzJson(statz));
    }
    return HttpTextResponse(404, "not found: " + path + "\n");
  }

  /// Parses complete frames from the connection's read buffer until it
  /// is empty or the answers queued and owed pass kMaxWriteBacklog; the
  /// first frame is always taken, so a pass under the cap makes
  /// progress.  Consecutive search frames coalesce into one batch,
  /// which is answered before any other frame runs, so answers keep
  /// the frames' order.  Returns false when the connection must close
  /// (protocol error); the unparsed rest of the buffer is then dropped.
  bool ProcessFrames(net::Connection* conn) {
    PendingBatch pending(this);
    bool keep = true;
    for (;;) {
      if (conn->pending_write_bytes() + pending.answer_bytes >
          kMaxWriteBacklog) {
        break;
      }
      net::FrameView view;
      size_t frame_size = 0;
      util::Status error;
      const net::FrameParse parse = net::ParseFrame(
          reinterpret_cast<const uint8_t*>(conn->read_data()),
          conn->read_size(), &view, &frame_size, &error);
      if (parse == net::FrameParse::kIncomplete) break;
      if (parse == net::FrameParse::kError) {
        pending.Flush(conn);
        SendError(conn, net::WireStatus::FromStatus(error));
        Count(&decode_errors_, obs_decode_errors_);
        keep = false;
        break;
      }
      if (view.type != net::MessageType::kSearch) pending.Flush(conn);
      const bool frame_ok = DispatchFrame(conn, view, &pending);
      conn->Consume(frame_size);
      if (!frame_ok) {
        keep = false;
        break;
      }
    }
    pending.Flush(conn);
    if (!keep) conn->Consume(conn->read_size());
    return keep;
  }

  /// Wire bytes of an OK answer to `request`: the frame header, the 42
  /// bytes of fixed fields net::EncodeSearchResponse writes, and 16 per
  /// result — k of them for a kNN search (k clamped so the product
  /// cannot overflow), none for a range search, whose result count is
  /// not known in advance.
  static size_t AnswerBytes(const index::SearchRequest<P>& request) {
    constexpr size_t kFixedBytes = net::kFrameHeaderSize + 42;
    if (request.mode == index::SearchMode::kRange) return kFixedBytes;
    return kFixedBytes + std::min<size_t>(request.k, kMaxWriteBacklog) * 16;
  }

  /// Answers one frame.  A search frame joins `pending`; every other
  /// frame finds it already flushed.
  bool DispatchFrame(net::Connection* conn, const net::FrameView& view,
                     PendingBatch* pending) {
    switch (view.type) {
      case net::MessageType::kPing:
        conn->Queue(net::EncodeFrame(net::MessageType::kPong, ""));
        return true;
      case net::MessageType::kSearch: {
        auto decoded = net::DecodeSearchRequest<P>(view.payload,
                                                   view.payload_size);
        if (!decoded.ok()) {
          pending->Flush(conn);
          SendError(conn, net::WireStatus::FromStatus(decoded.status()));
          Count(&decode_errors_, obs_decode_errors_);
          return false;
        }
        BatchItem item;
        item.request = std::move(decoded.value().request);
        item.no_cache = decoded.value().no_cache;
        Admit(&item, pending);
        if (!item.rejected) pending->answer_bytes += AnswerBytes(item.request);
        pending->items.push_back(std::move(item));
        return true;
      }
      case net::MessageType::kInsert: {
        net::WireInsertResponse response;
        if (options_.read_only) {
          response.status = net::WireStatus::Unavailable(
              "read-only replica: writes arrive via replication");
          std::string payload;
          net::EncodeInsertResponse(&payload, response);
          conn->Queue(
              net::EncodeFrame(net::MessageType::kInsertResult, payload));
          return true;
        }
        auto point = net::DecodeInsertRequest<P>(view.payload,
                                                 view.payload_size);
        if (!point.ok()) {
          response.status = net::WireStatus::FromStatus(point.status());
          Count(&decode_errors_, obs_decode_errors_);
        } else {
          util::Result<size_t> id = db_->Insert(std::move(point).value());
          if (id.ok()) {
            response.id = id.value();
          } else {
            response.status = net::WireStatus::FromStatus(id.status());
          }
        }
        std::string payload;
        net::EncodeInsertResponse(&payload, response);
        conn->Queue(
            net::EncodeFrame(net::MessageType::kInsertResult, payload));
        return true;
      }
      case net::MessageType::kRemove: {
        net::WireStatus response;
        if (options_.read_only) {
          response = net::WireStatus::Unavailable(
              "read-only replica: writes arrive via replication");
          std::string payload;
          net::EncodeWireStatus(&payload, response);
          conn->Queue(
              net::EncodeFrame(net::MessageType::kRemoveResult, payload));
          return true;
        }
        auto id = net::DecodeRemoveRequest(view.payload, view.payload_size);
        if (!id.ok()) {
          response = net::WireStatus::FromStatus(id.status());
          Count(&decode_errors_, obs_decode_errors_);
        } else {
          response = net::WireStatus::FromStatus(db_->Remove(id.value()));
        }
        std::string payload;
        net::EncodeWireStatus(&payload, response);
        conn->Queue(
            net::EncodeFrame(net::MessageType::kRemoveResult, payload));
        return true;
      }
      case net::MessageType::kCatchUpHandshake:
        return HandleCatchUpHandshake(conn, view);
      case net::MessageType::kFetchSnapshot:
        return HandleFetchSnapshot(conn, view);
      case net::MessageType::kStreamWal:
        return HandleStreamWal(conn, view);
      default: {
        SendError(conn,
                  {net::WireCode::kInvalidArgument,
                   "unexpected client frame type " +
                       std::to_string(static_cast<int>(view.type))});
        Count(&decode_errors_, obs_decode_errors_);
        return false;
      }
    }
  }

  /// Admission: per-connection batch cap, then the distance budget.
  /// The first request of a batch is always admitted (progress
  /// guarantee); after that, estimated cost must fit the budget.
  void Admit(BatchItem* item, PendingBatch* pending) {
    const size_t batch_size = pending->items.size();
    if (batch_size >= options_.max_requests_per_connection) {
      item->rejected = true;
      item->reject_message =
          "admission: per-connection request cap (" +
          std::to_string(options_.max_requests_per_connection) +
          ") exceeded";
      Count(&overloads_, obs_overload_);
      return;
    }
    const uint64_t approx = approx_size_.load(std::memory_order_relaxed);
    uint64_t estimate = approx;
    if (item->request.max_distance_computations > 0) {
      estimate = std::min<uint64_t>(
          estimate, item->request.max_distance_computations);
    }
    if (options_.max_inflight_distance_budget > 0 && batch_size > 0 &&
        pending->cost + estimate > options_.max_inflight_distance_budget) {
      item->rejected = true;
      item->reject_message =
          "admission: distance budget exhausted (estimated " +
          std::to_string(estimate) + " over a batch budget of " +
          std::to_string(options_.max_inflight_distance_budget) + ")";
      Count(&overloads_, obs_overload_);
      return;
    }
    pending->cost += estimate;
  }

  void ExecuteSearchBatch(net::Connection* conn,
                          std::vector<BatchItem>* batch) {
    if (batch->empty()) return;
    Count(&batches_, obs_batches_);
    // Tags first, pin second: an entry stamped with these tags only
    // serves while zero mutations landed since they were read.
    CacheTags tags;
    tags.generation = db_->generation_number();
    tags.mutation_clock = db_->mutation_clock();
    tags.remove_clock = db_->remove_clock();
    typename engine::LiveDatabase<P>::Snapshot snapshot = db_->Pin();
    approx_size_.store(
        snapshot.database().size() + snapshot.delta_entries(),
        std::memory_order_relaxed);

    const size_t count = batch->size();
    std::vector<CacheProbe> probes(count);
    std::vector<engine::QuerySpec<P>> engine_batch;
    constexpr size_t kNotRun = static_cast<size_t>(-1);
    std::vector<size_t> engine_index(count, kNotRun);
    for (size_t i = 0; i < count; ++i) {
      BatchItem& item = (*batch)[i];
      if (item.rejected) continue;
      // The cache measures the query against its sites, so a request
      // the store rejects goes straight to the engine for its status.
      if (cache_ && !item.no_cache && db_->ValidateRequest(item.request).ok()) {
        probes[i] = cache_->Lookup(item.request, tags, bounds_allowed_);
        if (probes[i].hit) continue;
      }
      engine::QuerySpec<P> spec = item.request;
      if (probes[i].bound_seeded &&
          probes[i].bound < spec.initial_radius_bound) {
        spec.initial_radius_bound = probes[i].bound;
      }
      engine_index[i] = engine_batch.size();
      engine_batch.push_back(std::move(spec));
    }

    typename engine::QueryEngine<P>::BatchOutput out;
    if (!engine_batch.empty()) {
      out = db_->RunBatch(engine_, snapshot, engine_batch);
    }

    for (size_t i = 0; i < count; ++i) {
      BatchItem& item = (*batch)[i];
      net::WireSearchResponse response;
      if (item.rejected) {
        response.status = net::WireStatus::Unavailable(item.reject_message);
      } else if (probes[i].hit) {
        response = probes[i].cached;
        response.cache_hit = true;
      } else {
        const size_t j = engine_index[i];
        if (!out.statuses[j].ok()) {
          response.status = net::WireStatus::FromStatus(out.statuses[j]);
        }
        response.truncated = out.truncated[j];
        response.bound_seeded = probes[i].bound_seeded;
        response.generation = snapshot.generation_number();
        response.stats.distance_computations =
            out.per_query_distance_computations[j];
        response.results = std::move(out.results[j]);
        if (cache_ && !item.no_cache && response.status.ok()) {
          cache_->Fill(probes[i], item.request, response, tags);
        }
      }
      Count(&requests_, obs_requests_);
      std::string payload;
      net::EncodeSearchResponse(&payload, response);
      conn->Queue(
          net::EncodeFrame(net::MessageType::kSearchResult, payload));
    }
    batch->clear();
  }

  // ------------------------------------------------ replication source

  /// One event of the store's write stream, queued by SourceListener on
  /// the writer's thread and drained in order on the loop thread.
  struct ReplEvent {
    bool rotate = false;
    uint64_t generation = 0;
    uint64_t seq = 0;     // records
    std::string record;   // records
    uint64_t folded = 0;  // rotates
    std::vector<std::string> carried;  // rotates
  };

  /// The LiveDatabase tap.  Runs under the store's write mutex, so it
  /// only copies into the inbox and wakes the loop — the inbox mutex is
  /// the sole lock it takes, and the loop thread never takes the write
  /// mutex while holding the inbox mutex, so no cycle exists.
  struct SourceListener : engine::ReplicationListener {
    explicit SourceListener(SearchServer* server) : server(server) {}
    void OnRecord(uint64_t generation, uint64_t seq,
                  const std::string& record) override {
      ReplEvent event;
      event.generation = generation;
      event.seq = seq;
      event.record = record;
      server->EnqueueReplEvent(std::move(event));
    }
    void OnRotate(uint64_t new_generation, uint64_t folded,
                  std::vector<std::string> carried) override {
      ReplEvent event;
      event.rotate = true;
      event.generation = new_generation;
      event.folded = folded;
      event.carried = std::move(carried);
      server->EnqueueReplEvent(std::move(event));
    }
    SearchServer* server;
  };

  void EnqueueReplEvent(ReplEvent event) {
    {
      std::lock_guard<std::mutex> lock(repl_inbox_mutex_);
      repl_inbox_.push_back(std::move(event));
    }
    loop_.Wake();  // the loop's tick drains promptly
  }

  /// Applies queued write-stream events to the loop-thread mirror
  /// (generation + per-seq history) and pushes the frames to every
  /// subscribed replica.  Called from the tick and before handling any
  /// replication frame, so handshake answers are never stale.
  void DrainReplicationEvents() {
    if (!replication_enabled_) return;
    std::vector<ReplEvent> events;
    {
      std::lock_guard<std::mutex> lock(repl_inbox_mutex_);
      events.swap(repl_inbox_);
    }
    if (events.empty()) return;
    std::unordered_set<int> touched;
    for (ReplEvent& event : events) {
      net::WalStreamFrame frame;
      frame.generation = event.generation;
      if (event.rotate) {
        // Subscribers rerun the fold locally; the carried tail becomes
        // the new history so late joiners can resume mid-tail.
        repl_generation_ = event.generation;
        repl_history_ = std::move(event.carried);
        frame.kind = net::kWalFrameRotate;
        frame.folded = event.folded;
      } else {
        DP_CHECK(event.generation == repl_generation_ &&
                 event.seq == repl_history_.size() + 1);
        frame.kind = net::kWalFrameRecord;
        frame.seq = event.seq;
        frame.record = event.record;
        repl_history_.push_back(std::move(event.record));
      }
      if (repl_subscribers_.empty()) continue;
      std::string payload;
      net::EncodeWalStreamFrame(&payload, frame);
      const std::string encoded =
          net::EncodeFrame(net::MessageType::kWalFrame, payload);
      for (const int fd : repl_subscribers_) {
        auto it = connections_.find(fd);
        if (it == connections_.end()) continue;
        it->second->Queue(encoded);
        touched.insert(fd);
        if (obs_repl_frames_ != nullptr) obs_repl_frames_->Increment();
      }
    }
    for (const int fd : touched) {
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      NoteBacklog(*it->second);
      if (!it->second->Flush().ok()) {
        CloseConnection(fd);
        continue;
      }
      UpdateInterest(fd, *it->second);
    }
  }

  /// Maps (and pins) snapshot-<generation>.snap.  The shared_ptr keeps
  /// the mapping alive even after a compaction unlinks the file, so an
  /// in-flight transfer finishes off the old bytes — the replica's
  /// next handshake then points it at the new generation.
  util::Result<std::shared_ptr<storage::MappedFile>> EnsureSnapshotMapped(
      uint64_t generation) {
    if (repl_snapshot_map_ != nullptr && repl_snapshot_gen_ == generation) {
      return repl_snapshot_map_;
    }
    auto mapped = db_->env()->MapFile(
        db_->wal_dir() + "/" + engine::SnapshotFileName(generation));
    if (!mapped.ok()) return mapped.status();
    repl_snapshot_map_ = std::move(mapped).value();
    repl_snapshot_gen_ = generation;
    return repl_snapshot_map_;
  }

  bool HandleCatchUpHandshake(net::Connection* conn,
                              const net::FrameView& view) {
    DrainReplicationEvents();
    auto decoded =
        net::DecodeCatchUpRequest(view.payload, view.payload_size);
    if (!decoded.ok()) {
      SendError(conn, net::WireStatus::FromStatus(decoded.status()));
      Count(&decode_errors_, obs_decode_errors_);
      return false;
    }
    net::CatchUpResponse response;
    if (!replication_enabled_) {
      response.status = {
          net::WireCode::kUnimplemented,
          "replication: not served here (in-memory store or disabled)"};
    } else {
      const net::CatchUpRequest& request = decoded.value();
      if (request.point_kind != storage::PointCodec<P>::kName ||
          request.spec != db_->index_spec() ||
          request.seed != db_->seed() ||
          request.shard_count != db_->shard_count()) {
        // Determinism only holds for identical build parameters, and
        // replication leans on it — refuse a mismatched follower.
        response.status = {
            net::WireCode::kInvalidArgument,
            "replication: identity mismatch (replica must use the "
            "primary's point kind, spec, seed, and shard count)"};
      } else {
        response.generation = repl_generation_;
        response.next_seq = repl_history_.size() + 1;
        const bool in_history =
            request.generation == repl_generation_ &&
            request.next_seq >= 1 &&
            request.next_seq <= repl_history_.size() + 1;
        if (in_history) {
          response.action = net::CatchUpAction::kStreamWal;
        } else {
          response.action = net::CatchUpAction::kFetchSnapshot;
          auto mapped = EnsureSnapshotMapped(repl_generation_);
          if (!mapped.ok()) {
            response.status = net::WireStatus::FromStatus(mapped.status());
          } else {
            response.snapshot_bytes = mapped.value()->size();
          }
        }
      }
    }
    if (obs_repl_handshakes_ != nullptr) obs_repl_handshakes_->Increment();
    std::string payload;
    net::EncodeCatchUpResponse(&payload, response);
    conn->Queue(
        net::EncodeFrame(net::MessageType::kCatchUpHandshake, payload));
    return true;
  }

  bool HandleFetchSnapshot(net::Connection* conn,
                           const net::FrameView& view) {
    DrainReplicationEvents();
    auto decoded =
        net::DecodeFetchSnapshotRequest(view.payload, view.payload_size);
    if (!decoded.ok()) {
      SendError(conn, net::WireStatus::FromStatus(decoded.status()));
      Count(&decode_errors_, obs_decode_errors_);
      return false;
    }
    net::SnapshotChunk chunk;
    chunk.generation = decoded.value().generation;
    if (!replication_enabled_) {
      chunk.status = {
          net::WireCode::kUnimplemented,
          "replication: not served here (in-memory store or disabled)"};
    } else {
      // An error status (e.g. the generation rotated away before the
      // handshake pinned it) rides back in the chunk; the replica
      // re-handshakes and fetches the current generation instead.
      auto mapped = EnsureSnapshotMapped(decoded.value().generation);
      if (!mapped.ok()) {
        chunk.status = net::WireStatus::FromStatus(mapped.status());
      } else {
        const storage::MappedFile& file = *mapped.value();
        const uint64_t offset = decoded.value().offset;
        chunk.total_bytes = file.size();
        chunk.offset = offset;
        if (offset > file.size()) {
          chunk.status = {net::WireCode::kInvalidArgument,
                          "replication: offset past end of snapshot"};
        } else {
          const size_t n = static_cast<size_t>(std::min<uint64_t>(
              options_.replication_chunk_bytes, file.size() - offset));
          chunk.data.assign(
              reinterpret_cast<const char*>(file.data()) + offset, n);
          chunk.crc = storage::Crc32c(chunk.data.data(), n);
          chunk.last = offset + n == file.size();
          if (obs_repl_chunks_ != nullptr) obs_repl_chunks_->Increment();
          if (obs_repl_chunk_bytes_ != nullptr) {
            obs_repl_chunk_bytes_->Add(n);
          }
        }
      }
    }
    std::string payload;
    net::EncodeSnapshotChunk(&payload, chunk);
    conn->Queue(
        net::EncodeFrame(net::MessageType::kSnapshotChunk, payload));
    return true;
  }

  bool HandleStreamWal(net::Connection* conn, const net::FrameView& view) {
    DrainReplicationEvents();
    auto decoded =
        net::DecodeStreamWalRequest(view.payload, view.payload_size);
    if (!decoded.ok()) {
      SendError(conn, net::WireStatus::FromStatus(decoded.status()));
      Count(&decode_errors_, obs_decode_errors_);
      return false;
    }
    if (!replication_enabled_) {
      SendError(conn, {
          net::WireCode::kUnimplemented,
          "replication: not served here (in-memory store or disabled)"});
      return false;
    }
    const net::StreamWalRequest& request = decoded.value();
    if (request.generation != repl_generation_ || request.next_seq < 1 ||
        request.next_seq > repl_history_.size() + 1) {
      // Position gone (compacted past it, or a stale generation): the
      // replica re-handshakes, which routes it to a snapshot fetch.
      SendError(conn,
                {net::WireCode::kNotFound,
                 "replication: position (generation " +
                     std::to_string(request.generation) + ", seq " +
                     std::to_string(request.next_seq) +
                     ") is gone; handshake again"});
      return false;
    }
    // Replay the retained history from the asked seq, then subscribe:
    // everything later arrives via DrainReplicationEvents in commit
    // order, so the stream has no gap and no duplicate.
    for (size_t i = request.next_seq - 1; i < repl_history_.size(); ++i) {
      net::WalStreamFrame frame;
      frame.kind = net::kWalFrameRecord;
      frame.generation = repl_generation_;
      frame.seq = i + 1;
      frame.record = repl_history_[i];
      std::string payload;
      net::EncodeWalStreamFrame(&payload, frame);
      conn->Queue(net::EncodeFrame(net::MessageType::kWalFrame, payload));
      if (obs_repl_frames_ != nullptr) obs_repl_frames_->Increment();
    }
    repl_subscribers_.insert(conn->fd());
    repl_subscriber_count_.store(repl_subscribers_.size(),
                                 std::memory_order_relaxed);
    return true;
  }

  void SendError(net::Connection* conn, const net::WireStatus& status) {
    std::string payload;
    net::EncodeWireStatus(&payload, status);
    conn->Queue(net::EncodeFrame(net::MessageType::kError, payload));
  }

  void UpdateInterest(int fd, const net::Connection& conn) {
    const bool paused = conn.pending_write_bytes() > kMaxWriteBacklog;
    if (paused) {
      loop_.Modify(fd, EPOLLOUT);
    } else {
      loop_.Modify(fd, conn.has_pending_write() ? (EPOLLIN | EPOLLOUT)
                                                : EPOLLIN);
    }
    SetPaused(fd, paused);
  }

  void SetPaused(int fd, bool paused) {
    if (paused ? paused_.insert(fd).second : paused_.erase(fd) != 0) {
      paused_count_.store(paused_.size(), std::memory_order_relaxed);
    }
  }

  /// Raises the backlog high-water mark to `conn`'s unsent bytes.
  void NoteBacklog(const net::Connection& conn) {
    const uint64_t pending = conn.pending_write_bytes();
    if (pending > backlog_max_.load(std::memory_order_relaxed)) {
      backlog_max_.store(pending, std::memory_order_relaxed);
    }
  }

  void CloseConnection(int fd) {
    loop_.Remove(fd);
    closing_.erase(fd);
    SetPaused(fd, false);
    if (repl_subscribers_.erase(fd) != 0) {
      repl_subscriber_count_.store(repl_subscribers_.size(),
                                   std::memory_order_relaxed);
    }
    connections_.erase(fd);  // Connection dtor closes the fd.
  }

  void CloseMetricsConnection(int fd) {
    loop_.Remove(fd);
    closing_.erase(fd);
    SetPaused(fd, false);
    metrics_connections_.erase(fd);
  }

  void Tick() {
    DrainReplicationEvents();
    if (draining_.load(std::memory_order_acquire)) {
      if (listener_) {
        loop_.Remove(listener_->fd());
        listener_.reset();
      }
      if (metrics_listener_) {
        loop_.Remove(metrics_listener_->fd());
        metrics_listener_.reset();
      }
      // Everything parsed has been answered inline; flush best-effort
      // and drop the rest, including frames a paused connection has
      // not parsed yet.
      for (auto& entry : connections_) entry.second->Flush();
      for (auto& entry : metrics_connections_) entry.second->Flush();
      while (!connections_.empty()) {
        CloseConnection(connections_.begin()->first);
      }
      while (!metrics_connections_.empty()) {
        CloseMetricsConnection(metrics_connections_.begin()->first);
      }
      loop_.Stop();
      return;
    }
    if (options_.idle_timeout_ms == 0) return;
    const auto now = std::chrono::steady_clock::now();
    const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
    std::vector<int> idle;
    for (const auto& entry : connections_) {
      if (now - entry.second->last_activity() >= limit) {
        idle.push_back(entry.first);
      }
    }
    for (const int fd : idle) CloseConnection(fd);
  }

  void Count(std::atomic<uint64_t>* mirror, obs::Counter* counter) {
    mirror->fetch_add(1, std::memory_order_relaxed);
    if (counter != nullptr) counter->Increment();
  }

  engine::LiveDatabase<P>* db_;
  Options options_;
  engine::QueryEngine<P> engine_;
  net::EventLoop loop_;
  std::unique_ptr<net::Listener> listener_;
  std::unique_ptr<net::Listener> metrics_listener_;
  std::unordered_map<int, std::unique_ptr<net::Connection>> connections_;
  std::unordered_map<int, std::unique_ptr<net::Connection>>
      metrics_connections_;
  std::unordered_map<int, bool> closing_;
  std::unique_ptr<PermCache<P>> cache_;
  bool bounds_allowed_ = true;
  std::atomic<bool> draining_{false};
  /// Approximate live size, refreshed from each batch's snapshot; the
  /// admission estimator's notion of "one full scan".
  std::atomic<uint64_t> approx_size_{1};

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> overloads_{0};
  std::atomic<uint64_t> decode_errors_{0};
  std::atomic<uint64_t> batches_{0};

  obs::Counter* obs_accepted_ = nullptr;
  obs::Counter* obs_requests_ = nullptr;
  obs::Counter* obs_overload_ = nullptr;
  obs::Counter* obs_decode_errors_ = nullptr;
  obs::Counter* obs_batches_ = nullptr;
  /// Every callback gauge this server registered.
  std::vector<uint64_t> gauge_handles_;
  /// Paused connections (loop thread) and the mirrors the gauges read.
  std::unordered_set<int> paused_;
  std::atomic<uint64_t> paused_count_{0};
  std::atomic<uint64_t> backlog_max_{0};

  /// Replication source state.  The inbox is the writer->loop handoff
  /// (under repl_inbox_mutex_); everything else is loop-thread-only
  /// except the subscriber-count mirror the gauge reads.
  bool replication_enabled_ = false;
  std::unique_ptr<SourceListener> source_listener_;
  std::mutex repl_inbox_mutex_;
  std::vector<ReplEvent> repl_inbox_;
  uint64_t repl_generation_ = 0;
  std::vector<std::string> repl_history_;  ///< seq i+1 = history[i]
  std::unordered_set<int> repl_subscribers_;
  std::shared_ptr<storage::MappedFile> repl_snapshot_map_;
  uint64_t repl_snapshot_gen_ = 0;
  std::atomic<uint64_t> repl_subscriber_count_{0};
  obs::Counter* obs_repl_handshakes_ = nullptr;
  obs::Counter* obs_repl_chunks_ = nullptr;
  obs::Counter* obs_repl_chunk_bytes_ = nullptr;
  obs::Counter* obs_repl_frames_ = nullptr;
};

}  // namespace server
}  // namespace distperm

#endif  // DISTPERM_SERVER_SEARCH_SERVER_H_
