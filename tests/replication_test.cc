// Replication end to end on loopback: a replica bootstrapped from the
// primary's snapshot must tail the WAL stream into a bit-identical
// store, survive primary rotations mid-stream, resume a severed
// snapshot transfer from its partial file, keep serving (stale) reads
// while the primary is down, and reconnect-and-resume from its own
// next_seq without re-fetching the snapshot.  The satellites ride
// along: the replication codecs reject every truncation, the
// WalFrameReader decodes a byte-at-a-time stream exactly like a whole
// file, client socket deadlines surface as kDeadlineExceeded without
// corrupting a mid-frame buffer, read-only replicas refuse wire
// writes, and the replica_*/replication_* series land in the
// Prometheus exposition with exact counts.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/vector_gen.h"
#include "engine/generation_store.h"
#include "engine/live_database.h"
#include "engine/query_engine.h"
#include "metric/lp.h"
#include "net/client.h"
#include "net/fault_proxy.h"
#include "net/listener.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "server/replica_server.h"
#include "server/replication_client.h"
#include "server/search_server.h"
#include "storage/coding.h"
#include "storage/crc32.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "util/rng.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace distperm {
namespace server {
namespace {

using engine::LiveDatabase;
using engine::QueryEngine;
using index::SearchRequest;
using metric::Vector;
using net::Client;
using net::WireCode;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

constexpr uint64_t kSeed = 20260809;
constexpr size_t kShards = 2;
const char kSpec[] = "vp-tree";

std::string FreshDir(const std::string& name) {
  storage::Env* env = storage::Env::Default();
  const std::string dir = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(env->CreateDir(dir).ok());
  if (auto listing = env->ListDir(dir); listing.ok()) {
    for (const std::string& file : listing.value()) {
      env->DeleteFile(dir + "/" + file);
    }
  }
  return dir;
}

/// A durable primary whose SearchServer can be stopped and restarted
/// on the same port while the store (and its WAL history) stays up —
/// the shape every reconnect test needs.
struct Primary {
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<LiveDatabase<Vector>> db;
  std::unique_ptr<SearchServer<Vector>> server;
  std::thread thread;
  uint16_t port = 0;

  static std::unique_ptr<Primary> Start(
      const std::string& dir, size_t n, size_t dim,
      SearchServer<Vector>::Options options = {}) {
    auto primary = std::make_unique<Primary>();
    primary->metrics = std::make_unique<obs::MetricsRegistry>("primary");
    util::Rng rng(kSeed);
    std::vector<Vector> data = dataset::UniformCube(n, dim, &rng);
    const std::string live_spec =
        std::string(kSpec) + ":wal_dir=" + dir;
    auto opened = LiveDatabase<Vector>::Open(std::move(data), L2(),
                                             kShards, live_spec, kSeed);
    EXPECT_TRUE(opened.ok()) << opened.status();
    if (!opened.ok()) return nullptr;
    primary->db = std::move(opened).value();
    if (!primary->StartServer(0, options)) return nullptr;
    return primary;
  }

  bool StartServer(uint16_t port_hint,
                   SearchServer<Vector>::Options options = {}) {
    options.metrics = metrics.get();
    server = std::make_unique<SearchServer<Vector>>(db.get(), options);
    auto started = server->Start(port_hint);
    EXPECT_TRUE(started.ok()) << started;
    if (!started.ok()) return false;
    port = server->port();
    SearchServer<Vector>* raw = server.get();
    thread = std::thread([raw]() { raw->Run(); });
    return true;
  }

  /// Stops serving; the db (and the port number) survive for a
  /// restart.
  void StopServer() {
    if (!server) return;
    server->Shutdown();
    thread.join();
    server.reset();
  }

  ~Primary() {
    StopServer();
    server.reset();
    db.reset();
  }
};

ReplicaServer<Vector>::Options ReplicaOptions(
    const std::string& dir, uint16_t primary_port,
    obs::MetricsRegistry* metrics) {
  ReplicaServer<Vector>::Options options;
  options.dir = dir;
  options.index_spec = kSpec;
  options.seed = kSeed;
  options.shard_count = kShards;
  options.metrics = metrics;
  options.replication.primary_port = primary_port;
  // Short enough that Stop() joins fast and keepalive pings flow
  // during quiet waits; pings answered promptly never strike out, so
  // reconnect counts stay exact.
  options.replication.idle_timeout_ms = 250;
  options.replication.backoff_initial_ms = 20;
  options.replication.backoff_max_ms = 200;
  return options;
}

/// Spins until `done` or the deadline; returns whether `done` held.
bool WaitFor(const std::function<bool()>& done, int timeout_ms = 15000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

void ExpectStoresIdentical(LiveDatabase<Vector>& a, LiveDatabase<Vector>& b,
                           const std::string& context) {
  EXPECT_EQ(a.generation_number(), b.generation_number()) << context;
  EXPECT_EQ(a.delta_entries(), b.delta_entries()) << context;
  const std::vector<Vector> left = a.Pin().Materialize();
  const std::vector<Vector> right = b.Pin().Materialize();
  ASSERT_EQ(left.size(), right.size()) << context;
  for (size_t i = 0; i < left.size(); ++i) {
    ASSERT_EQ(left[i], right[i]) << context << " point " << i;
  }
  // Replaying the primary's fold must make the replica take the exact
  // same incremental-compaction decisions: the same per-shard slicing
  // AND the same rebuild-vs-share choice for every shard.  Shard sizes
  // pin the slicing; epochs pin which generation last rebuilt each
  // shard — a replica that rebuilt a shard the primary shared (or vice
  // versa) diverges here even though the points all match.
  const auto a_pin = a.Pin();
  const auto b_pin = b.Pin();
  EXPECT_EQ(a_pin.database().ShardSizes(), b_pin.database().ShardSizes())
      << context;
  EXPECT_EQ(a_pin.generation()->epochs(), b_pin.generation()->epochs())
      << context;
}

// -------------------------------------------------------------- codecs

TEST(Replication, CodecsRoundTripAndSurviveTruncation) {
  net::CatchUpRequest request;
  request.point_kind = "vector_f64";
  request.spec = "distperm:k=6,fraction=0.5";
  request.seed = 0xfeedface;
  request.shard_count = 7;
  request.generation = 12;
  request.next_seq = 90001;
  std::string bytes;
  net::EncodeCatchUpRequest(&bytes, request);
  auto decoded = net::DecodeCatchUpRequest(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().point_kind, request.point_kind);
  EXPECT_EQ(decoded.value().spec, request.spec);
  EXPECT_EQ(decoded.value().seed, request.seed);
  EXPECT_EQ(decoded.value().shard_count, request.shard_count);
  EXPECT_EQ(decoded.value().generation, request.generation);
  EXPECT_EQ(decoded.value().next_seq, request.next_seq);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(net::DecodeCatchUpRequest(
                     reinterpret_cast<const uint8_t*>(bytes.data()), cut)
                     .ok())
        << "truncation at " << cut << " must not decode";
  }

  net::CatchUpResponse response;
  response.status = net::WireStatus::Unavailable("busy");
  response.action = net::CatchUpAction::kFetchSnapshot;
  response.generation = 3;
  response.next_seq = 41;
  response.snapshot_bytes = 1 << 20;
  bytes.clear();
  net::EncodeCatchUpResponse(&bytes, response);
  auto response_decoded = net::DecodeCatchUpResponse(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  ASSERT_TRUE(response_decoded.ok());
  EXPECT_EQ(response_decoded.value().status.code, WireCode::kUnavailable);
  EXPECT_EQ(response_decoded.value().status.message, "busy");
  EXPECT_EQ(response_decoded.value().action,
            net::CatchUpAction::kFetchSnapshot);
  EXPECT_EQ(response_decoded.value().generation, 3u);
  EXPECT_EQ(response_decoded.value().next_seq, 41u);
  EXPECT_EQ(response_decoded.value().snapshot_bytes, uint64_t{1} << 20);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(net::DecodeCatchUpResponse(
                     reinterpret_cast<const uint8_t*>(bytes.data()), cut)
                     .ok());
  }

  net::SnapshotChunk chunk;
  chunk.generation = 9;
  chunk.total_bytes = 100;
  chunk.offset = 64;
  chunk.last = true;
  chunk.data = "the last thirty-six bytes of a snap";
  chunk.crc = storage::Crc32c(chunk.data.data(), chunk.data.size());
  bytes.clear();
  net::EncodeSnapshotChunk(&bytes, chunk);
  auto chunk_decoded = net::DecodeSnapshotChunk(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  ASSERT_TRUE(chunk_decoded.ok());
  EXPECT_EQ(chunk_decoded.value().generation, 9u);
  EXPECT_EQ(chunk_decoded.value().offset, 64u);
  EXPECT_TRUE(chunk_decoded.value().last);
  EXPECT_EQ(chunk_decoded.value().data, chunk.data);
  EXPECT_EQ(chunk_decoded.value().crc, chunk.crc);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(net::DecodeSnapshotChunk(
                     reinterpret_cast<const uint8_t*>(bytes.data()), cut)
                     .ok());
  }

  net::WalStreamFrame frame;
  frame.kind = net::kWalFrameRotate;
  frame.generation = 4;
  frame.folded = 2048;
  bytes.clear();
  net::EncodeWalStreamFrame(&bytes, frame);
  auto frame_decoded = net::DecodeWalStreamFrame(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  ASSERT_TRUE(frame_decoded.ok());
  EXPECT_EQ(frame_decoded.value().kind, net::kWalFrameRotate);
  EXPECT_EQ(frame_decoded.value().generation, 4u);
  EXPECT_EQ(frame_decoded.value().folded, 2048u);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(net::DecodeWalStreamFrame(
                     reinterpret_cast<const uint8_t*>(bytes.data()), cut)
                     .ok());
  }
}

// ------------------------------------------------------ WalFrameReader

std::string EncodeWalFrame(uint64_t seq, const std::string& payload) {
  std::string seq_bytes;
  storage::PutFixed64(&seq_bytes, seq);
  std::string frame;
  storage::PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  storage::PutFixed32(
      &frame, storage::Crc32c(payload.data(), payload.size(),
                              storage::Crc32c(seq_bytes)));
  frame.append(seq_bytes);
  frame.append(payload);
  return frame;
}

TEST(Replication, WalFrameReaderByteAtATimeMatchesWholeBuffer) {
  const std::vector<std::string> payloads = {"alpha", "", "gamma gamma",
                                             std::string(300, 'x')};
  std::string stream;
  for (size_t i = 0; i < payloads.size(); ++i) {
    stream += EncodeWalFrame(/*seq=*/i + 1, payloads[i]);
  }
  // Plus a torn half-frame at the tail.
  const std::string torn = EncodeWalFrame(5, "never finished");
  stream += torn.substr(0, torn.size() - 3);

  storage::WalFrameReader reader(/*first_seq=*/1);
  std::vector<storage::WalRecord> records;
  for (char byte : stream) {
    reader.Feed(&byte, 1);
    storage::WalRecord record;
    while (reader.Poll(&record) == storage::WalFrameReader::Next::kRecord) {
      records.push_back(record);
    }
  }
  ASSERT_EQ(records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(records[i].seq, i + 1);
    EXPECT_EQ(records[i].payload, payloads[i]);
  }
  // The torn tail is "need more", never corruption, and valid_bytes
  // stops exactly at the last whole frame.
  storage::WalRecord record;
  EXPECT_EQ(reader.Poll(&record), storage::WalFrameReader::Next::kNeedMore);
  uint64_t whole = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    whole += 16 + payloads[i].size();
  }
  EXPECT_EQ(reader.valid_bytes(), whole);
  EXPECT_EQ(reader.next_seq(), 5u);
}

TEST(Replication, WalFrameReaderLatchesOnCorruptionAndSeqSkips) {
  std::string good = EncodeWalFrame(1, "fine");
  std::string bad = EncodeWalFrame(2, "flipped");
  bad[8 + 2] ^= 0x40;  // corrupt the seq field -> CRC mismatch
  storage::WalFrameReader reader(1);
  reader.Feed(good.data(), good.size());
  reader.Feed(bad.data(), bad.size());
  storage::WalRecord record;
  EXPECT_EQ(reader.Poll(&record), storage::WalFrameReader::Next::kRecord);
  EXPECT_EQ(reader.Poll(&record), storage::WalFrameReader::Next::kCorrupt);
  // Latched: feeding pristine frames afterwards cannot resurrect it.
  std::string next = EncodeWalFrame(2, "pristine");
  reader.Feed(next.data(), next.size());
  EXPECT_EQ(reader.Poll(&record), storage::WalFrameReader::Next::kCorrupt);

  // A well-formed frame with the wrong sequence number is corruption
  // too (a gap means the stream skipped a record).
  storage::WalFrameReader strict(5);
  std::string wrong_seq = EncodeWalFrame(7, "skipped ahead");
  strict.Feed(wrong_seq.data(), wrong_seq.size());
  EXPECT_EQ(strict.Poll(&record), storage::WalFrameReader::Next::kCorrupt);
}

// ----------------------------------------------------- client deadlines

TEST(Replication, ClientRecvTimeoutPreservesPartialFrame) {
  auto listener = net::Listener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status();

  auto client = Client::Connect(
      "127.0.0.1", listener.value()->port(),
      Client::Options{/*connect_timeout_ms=*/2000, /*recv_timeout_ms=*/100,
                      /*send_timeout_ms=*/2000});
  ASSERT_TRUE(client.ok()) << client.status();

  int server_fd = -1;
  for (int i = 0; i < 200 && server_fd < 0; ++i) {
    auto accepted = listener.value()->Accept();
    ASSERT_TRUE(accepted.ok());
    server_fd = accepted.value();
    if (server_fd < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_GE(server_fd, 0);

  // Nothing sent yet: the deadline must surface as kDeadlineExceeded,
  // not a generic error and not a hang.
  auto timed_out = client.value()->ReadFrame();
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), util::StatusCode::kDeadlineExceeded);

  // Half a frame, a timeout in the middle, then the rest: the buffered
  // prefix must survive the deadline and the frame decode intact.
  const std::string frame = net::EncodeFrame(net::MessageType::kPong, "");
  ASSERT_EQ(send(server_fd, frame.data(), 7, 0), 7);
  auto mid_frame = client.value()->ReadFrame();
  ASSERT_FALSE(mid_frame.ok());
  EXPECT_EQ(mid_frame.status().code(),
            util::StatusCode::kDeadlineExceeded);
  ASSERT_EQ(send(server_fd, frame.data() + 7, frame.size() - 7, 0),
            static_cast<ssize_t>(frame.size() - 7));
  auto whole = client.value()->ReadFrame();
  ASSERT_TRUE(whole.ok()) << whole.status();
  EXPECT_EQ(whole.value().first, net::MessageType::kPong);
  close(server_fd);
}

// ------------------------------------------------------------------ e2e

TEST(Replication, BootstrapTailRotateConvergeWithExactMetrics) {
  const std::string primary_dir = FreshDir("repl_primary_basic");
  const std::string replica_dir = FreshDir("repl_replica_basic");
  auto primary = Primary::Start(primary_dir, 400, 4);
  ASSERT_NE(primary, nullptr);

  obs::MetricsRegistry replica_metrics("replica");
  auto opened = ReplicaServer<Vector>::Open(
      L2(), ReplicaOptions(replica_dir, primary->port, &replica_metrics));
  ASSERT_TRUE(opened.ok()) << opened.status();
  ReplicaServer<Vector>& replica = *opened.value();
  EXPECT_EQ(replica.db().size(), 400u);  // bootstrapped snapshot
  ASSERT_TRUE(replica.Start(0).ok());
  std::thread serving([&replica]() { replica.Run(); });

  // Live tail: inserts and removes land on the primary's write path
  // and must stream through in commit order.
  util::Rng rng(7);
  const std::vector<Vector> extra = dataset::UniformCube(25, 4, &rng);
  for (const Vector& point : extra) {
    ASSERT_TRUE(primary->db->Insert(point).ok());
  }
  ASSERT_TRUE(primary->db->Remove(3).ok());
  ASSERT_TRUE(primary->db->Remove(410).ok());
  ASSERT_TRUE(WaitFor([&]() {
    return replica.replication().applied_seq() ==
               primary->db->delta_entries() &&
           replica.db().generation_number() ==
               primary->db->generation_number();
  })) << "replica never caught up; last error: "
      << replica.replication().last_error();
  ExpectStoresIdentical(*primary->db, replica.db(), "after live tail");

  // Rotation mid-stream: the primary folds; the replica replays the
  // same fold locally and must land on the identical generation.
  ASSERT_TRUE(primary->db->Compact().ok());
  const std::vector<Vector> after = dataset::UniformCube(5, 4, &rng);
  for (const Vector& point : after) {
    ASSERT_TRUE(primary->db->Insert(point).ok());
  }
  ASSERT_TRUE(WaitFor([&]() {
    return replica.db().generation_number() ==
               primary->db->generation_number() &&
           replica.replication().applied_seq() ==
               primary->db->delta_entries();
  })) << "replica never converged past the rotation; last error: "
      << replica.replication().last_error();
  ExpectStoresIdentical(*primary->db, replica.db(), "after rotation");

  // Reads served by the replica are bit-identical to a local run over
  // the primary's store.
  auto client = Client::Connect("127.0.0.1", replica.server().port());
  ASSERT_TRUE(client.ok()) << client.status();
  std::vector<SearchRequest<Vector>> batch;
  util::Rng qrng(9);
  for (int q = 0; q < 6; ++q) {
    batch.push_back(SearchRequest<Vector>::Knn(
        dataset::UniformCube(1, 4, &qrng)[0], 5));
  }
  QueryEngine<Vector> local_engine(1);
  const auto local =
      primary->db->RunBatch(local_engine, primary->db->Pin(), batch);
  auto remote = client.value()->SearchBatch(batch);
  ASSERT_TRUE(remote.ok()) << remote.status();
  ASSERT_EQ(remote.value().size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(remote.value()[i].status.ok());
    ASSERT_EQ(remote.value()[i].results.size(), local.results[i].size());
    for (size_t r = 0; r < local.results[i].size(); ++r) {
      EXPECT_EQ(remote.value()[i].results[r].id, local.results[i][r].id);
      EXPECT_EQ(remote.value()[i].results[r].distance,
                local.results[i][r].distance);
    }
  }

  // Exact counts, both sides of the wire (satellite: the series must
  // land in the Prometheus exposition, not just internal accessors).
  // 25 inserts + 2 removes before the rotation, 5 inserts after; one
  // bootstrap handshake + one streaming handshake; the whole snapshot
  // fit one default-sized chunk.
  const std::string replica_text = replica_metrics.TextExposition();
  EXPECT_NE(replica_text.find("replica_applied_records_total 32"),
            std::string::npos)
      << replica_text;
  EXPECT_NE(replica_text.find("replica_rotations_total 1"),
            std::string::npos);
  EXPECT_NE(replica_text.find("replica_reconnects_total 1"),
            std::string::npos);
  EXPECT_NE(replica_text.find("replica_snapshot_chunks_total 1"),
            std::string::npos);
  EXPECT_NE(replica_text.find("replica_snapshot_resumes_total 0"),
            std::string::npos);
  EXPECT_NE(replica_text.find("replica_applied_seq 5"), std::string::npos);
  EXPECT_NE(replica_text.find("replica_lag_seconds "), std::string::npos);
  const std::string primary_text = primary->metrics->TextExposition();
  EXPECT_NE(primary_text.find("replication_handshakes_total 2"),
            std::string::npos)
      << primary_text;
  EXPECT_NE(primary_text.find("replication_snapshot_chunks_total 1"),
            std::string::npos);
  EXPECT_NE(primary_text.find("replication_subscribers 1"),
            std::string::npos);
  // 32 record frames + 1 rotate frame to one subscriber.
  EXPECT_NE(primary_text.find("replication_wal_frames_total 33"),
            std::string::npos)
      << primary_text;

  // Skewed incremental fold: fold the pending tail, then insert six
  // copies of one far-away point — they all route to a single shard,
  // so the primary rebuilds exactly one shard and shares the other.
  // The replica replays the same fold and must take the identical
  // share-vs-rebuild decisions: same stats, and (via the epochs check
  // in ExpectStoresIdentical) the same per-shard rebuild history.
  ASSERT_TRUE(primary->db->Compact().ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(primary->db->Insert(Vector{5.0, 5.0, 5.0, 5.0}).ok());
  }
  ASSERT_TRUE(primary->db->Compact().ok());
  const engine::LiveCompactionStats primary_stats =
      primary->db->last_compaction_stats();
  EXPECT_FALSE(primary_stats.rebalanced);
  EXPECT_EQ(primary_stats.shards_rebuilt, 1u);
  EXPECT_EQ(primary_stats.shards_shared, kShards - 1);
  ASSERT_TRUE(WaitFor([&]() {
    return replica.db().generation_number() ==
               primary->db->generation_number() &&
           replica.replication().applied_seq() ==
               primary->db->delta_entries();
  })) << "replica never converged past the skewed fold; last error: "
      << replica.replication().last_error();
  const engine::LiveCompactionStats replica_stats =
      replica.db().last_compaction_stats();
  EXPECT_FALSE(replica_stats.rebalanced);
  EXPECT_EQ(replica_stats.shards_rebuilt, primary_stats.shards_rebuilt);
  EXPECT_EQ(replica_stats.shards_shared, primary_stats.shards_shared);
  EXPECT_EQ(replica_stats.folded_entries, primary_stats.folded_entries);
  ExpectStoresIdentical(*primary->db, replica.db(),
                        "after skewed incremental fold");

  replica.Shutdown();
  serving.join();
}

TEST(Replication, PrimaryLossDegradesThenResumesWithoutRefetch) {
  const std::string primary_dir = FreshDir("repl_primary_loss");
  const std::string replica_dir = FreshDir("repl_replica_loss");
  auto primary = Primary::Start(primary_dir, 200, 4);
  ASSERT_NE(primary, nullptr);
  const uint16_t primary_port = primary->port;

  obs::MetricsRegistry replica_metrics("replica");
  auto opened = ReplicaServer<Vector>::Open(
      L2(), ReplicaOptions(replica_dir, primary_port, &replica_metrics));
  ASSERT_TRUE(opened.ok()) << opened.status();
  ReplicaServer<Vector>& replica = *opened.value();
  ASSERT_TRUE(replica.Start(0).ok());
  std::thread serving([&replica]() { replica.Run(); });

  ASSERT_TRUE(primary->db->Insert(Vector{9.0, 9.0, 9.0, 9.0}).ok());
  ASSERT_TRUE(WaitFor([&]() {
    return replica.replication().applied_seq() == 1;
  }));
  const uint64_t chunks_after_bootstrap =
      replica_metrics.GetCounter("replica_snapshot_chunks_total")->Value();

  // Primary gone: the replica must keep answering from its last
  // applied state while its lag grows.
  primary->StopServer();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto client = Client::Connect("127.0.0.1", replica.server().port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto stale = client.value()->Search(
      SearchRequest<Vector>::Knn(Vector{9.0, 9.0, 9.0, 9.0}, 1));
  ASSERT_TRUE(stale.ok()) << stale.status();
  ASSERT_TRUE(stale.value().status.ok());
  ASSERT_EQ(stale.value().results.size(), 1u);
  EXPECT_EQ(stale.value().results[0].distance, 0.0);
  EXPECT_GT(replica.replication().lag_seconds(), 0.3);

  // Primary back on the same port with more writes committed while the
  // replica was away: it must reconnect, resume from its own next_seq,
  // and converge WITHOUT re-fetching the snapshot.
  ASSERT_TRUE(primary->db->Insert(Vector{8.0, 8.0, 8.0, 8.0}).ok());
  const uint64_t reconnects_before = replica.replication().reconnects();
  ASSERT_TRUE(primary->StartServer(primary_port));
  ASSERT_TRUE(WaitFor([&]() {
    return replica.replication().applied_seq() ==
           primary->db->delta_entries();
  })) << "replica never re-converged; last error: "
      << replica.replication().last_error();
  EXPECT_GT(replica.replication().reconnects(), reconnects_before);
  EXPECT_EQ(
      replica_metrics.GetCounter("replica_snapshot_chunks_total")->Value(),
      chunks_after_bootstrap)
      << "resume must ride the WAL stream, not a snapshot re-fetch";
  EXPECT_LT(replica.replication().lag_seconds(), 5.0);
  ExpectStoresIdentical(*primary->db, replica.db(), "after reconnect");

  replica.Shutdown();
  serving.join();
}

TEST(Replication, SnapshotTransferCutMidStreamResumesFromPartial) {
  const std::string primary_dir = FreshDir("repl_primary_cut");
  const std::string replica_dir = FreshDir("repl_replica_cut");
  SearchServer<Vector>::Options small_chunks;
  small_chunks.replication_chunk_bytes = 4096;
  auto primary = Primary::Start(primary_dir, 2000, 8, small_chunks);
  ASSERT_NE(primary, nullptr);

  net::FaultProxy::Options proxy_options;
  proxy_options.upstream_port = primary->port;
  // Enough for the handshake plus a couple of chunks, then sever
  // mid-chunk.
  proxy_options.cut_to_client_after_bytes = 10000;
  auto proxy = net::FaultProxy::Start(proxy_options);
  ASSERT_TRUE(proxy.ok()) << proxy.status();

  obs::MetricsRegistry metrics("bootstrap");
  ReplicationClient<Vector>::Options options;
  options.primary_port = proxy.value()->port();
  options.idle_timeout_ms = 500;
  options.metrics = &metrics;
  storage::Env* env = storage::Env::Default();

  // First attempt dies mid-transfer but leaves a CRC-verified partial.
  util::Status first = ReplicationClient<Vector>::BootstrapSnapshot(
      env, replica_dir, kSpec, kSeed, kShards, options);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(proxy.value()->cuts_total(), 1u);
  const std::string partial_path =
      replica_dir + "/" + engine::SnapshotFileName(1) + ".partial";
  auto partial = env->MapFile(partial_path);
  ASSERT_TRUE(partial.ok()) << "a cut transfer must leave its partial";
  EXPECT_GT(partial.value()->size(), 0u);
  const uint64_t partial_bytes = partial.value()->size();

  // Second attempt (cut disarmed itself) resumes at the partial's
  // byte offset instead of starting over.
  util::Status second = ReplicationClient<Vector>::BootstrapSnapshot(
      env, replica_dir, kSpec, kSeed, kShards, options);
  ASSERT_TRUE(second.ok()) << second;
  EXPECT_EQ(metrics.GetCounter("replica_snapshot_resumes_total")->Value(),
            1u);
  EXPECT_FALSE(env->MapFile(partial_path).ok())
      << "the partial must be renamed away on completion";
  // Bytes pulled over both attempts together cover the file exactly
  // once: the resume did not re-download the prefix.
  const std::string final_path =
      replica_dir + "/" + engine::SnapshotFileName(1);
  auto final_file = env->MapFile(final_path);
  ASSERT_TRUE(final_file.ok());
  EXPECT_EQ(metrics.GetCounter("replica_snapshot_bytes_total")->Value(),
            final_file.value()->size());
  EXPECT_GT(final_file.value()->size(), partial_bytes);

  // And the stitched file is a valid, identity-matching snapshot.
  auto loaded = engine::ReadGenerationSnapshot<Vector>(
      env, final_path, L2(), kShards, kSpec, kSeed, /*build_threads=*/1);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded.value()->size(), 2000u);
}

TEST(Replication, ReplicaRestartedMidBootstrapResumesThePartialSnapshot) {
  const std::string primary_dir = FreshDir("repl_primary_restart_partial");
  const std::string replica_dir = FreshDir("repl_replica_restart_partial");
  auto primary = Primary::Start(primary_dir, 400, 4);
  ASSERT_NE(primary, nullptr);

  // A replica that died mid-bootstrap leaves only a prefix of the
  // primary's snapshot, under the .partial name.
  storage::Env* env = storage::Env::Default();
  auto snapshot =
      env->ReadFile(primary_dir + "/" + engine::SnapshotFileName(1));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_GT(snapshot.value().size(), 100u);
  {
    auto partial = env->NewWritableFile(
        replica_dir + "/" + engine::SnapshotFileName(1) + ".partial",
        /*truncate=*/true);
    ASSERT_TRUE(partial.ok()) << partial.status();
    ASSERT_TRUE(partial.value()->Append(snapshot.value().data(), 100).ok());
    ASSERT_TRUE(partial.value()->Close().ok());
  }

  // The partial is not a store: reopening must resume the bootstrap,
  // not recover an empty generation from a directory with no snapshot.
  obs::MetricsRegistry replica_metrics("replica");
  auto opened = ReplicaServer<Vector>::Open(
      L2(), ReplicaOptions(replica_dir, primary->port, &replica_metrics));
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened.value()->db().size(), 400u);
  EXPECT_EQ(opened.value()->db().generation_number(), 1u);
  EXPECT_EQ(
      replica_metrics.GetCounter("replica_snapshot_resumes_total")->Value(),
      1u);
}

TEST(Replication, ReadOnlyReplicaRejectsWireWrites) {
  const std::string primary_dir = FreshDir("repl_primary_ro");
  const std::string replica_dir = FreshDir("repl_replica_ro");
  auto primary = Primary::Start(primary_dir, 100, 4);
  ASSERT_NE(primary, nullptr);

  obs::MetricsRegistry replica_metrics("replica");
  auto opened = ReplicaServer<Vector>::Open(
      L2(), ReplicaOptions(replica_dir, primary->port, &replica_metrics));
  ASSERT_TRUE(opened.ok()) << opened.status();
  ReplicaServer<Vector>& replica = *opened.value();
  ASSERT_TRUE(replica.Start(0).ok());
  std::thread serving([&replica]() { replica.Run(); });

  auto client = Client::Connect("127.0.0.1", replica.server().port());
  ASSERT_TRUE(client.ok()) << client.status();
  auto inserted = client.value()->Insert(Vector{1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(inserted.value().status.code, WireCode::kUnavailable);
  auto removed = client.value()->Remove(0);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(removed.value().code, WireCode::kUnavailable);
  EXPECT_EQ(replica.db().size(), 100u) << "rejected writes must not land";

  // Reads still work on the same connection.
  auto found = client.value()->Search(
      SearchRequest<Vector>::Knn(Vector{0.5, 0.5, 0.5, 0.5}, 3));
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found.value().status.ok());
  EXPECT_EQ(found.value().results.size(), 3u);

  replica.Shutdown();
  serving.join();
}

TEST(Replication, HandshakeRejectsIdentityMismatch) {
  const std::string primary_dir = FreshDir("repl_primary_identity");
  auto primary = Primary::Start(primary_dir, 50, 4);
  ASSERT_NE(primary, nullptr);

  auto client = Client::Connect("127.0.0.1", primary->port);
  ASSERT_TRUE(client.ok());
  net::CatchUpRequest request;
  request.point_kind = "vector_f64";
  request.spec = "gh-tree";  // primary is vp-tree
  request.seed = kSeed;
  request.shard_count = kShards;
  std::string payload;
  net::EncodeCatchUpRequest(&payload, request);
  ASSERT_TRUE(client.value()
                  ->SendFrame(net::MessageType::kCatchUpHandshake, payload)
                  .ok());
  auto frame = client.value()->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_EQ(frame.value().first, net::MessageType::kCatchUpHandshake);
  auto response = net::DecodeCatchUpResponse(
      reinterpret_cast<const uint8_t*>(frame.value().second.data()),
      frame.value().second.size());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status.code, WireCode::kInvalidArgument);

  // An in-memory (non-durable) primary declines replication outright.
  util::Rng rng(3);
  auto mem = LiveDatabase<Vector>::Open(dataset::UniformCube(50, 4, &rng),
                                        L2(), kShards, kSpec, kSeed);
  ASSERT_TRUE(mem.ok());
  obs::MetricsRegistry mem_metrics("mem");
  SearchServer<Vector>::Options mem_options;
  mem_options.metrics = &mem_metrics;
  SearchServer<Vector> mem_server(mem.value().get(), mem_options);
  ASSERT_TRUE(mem_server.Start(0).ok());
  std::thread mem_thread([&mem_server]() { mem_server.Run(); });
  auto mem_client = Client::Connect("127.0.0.1", mem_server.port());
  ASSERT_TRUE(mem_client.ok());
  request.spec = kSpec;
  payload.clear();
  net::EncodeCatchUpRequest(&payload, request);
  ASSERT_TRUE(mem_client.value()
                  ->SendFrame(net::MessageType::kCatchUpHandshake, payload)
                  .ok());
  auto mem_frame = mem_client.value()->ReadFrame();
  ASSERT_TRUE(mem_frame.ok());
  auto mem_response = net::DecodeCatchUpResponse(
      reinterpret_cast<const uint8_t*>(mem_frame.value().second.data()),
      mem_frame.value().second.size());
  ASSERT_TRUE(mem_response.ok());
  EXPECT_EQ(mem_response.value().status.code, WireCode::kUnimplemented);
  mem_server.Shutdown();
  mem_thread.join();
}

}  // namespace
}  // namespace server
}  // namespace distperm
