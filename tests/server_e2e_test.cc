// Loopback end-to-end: a SearchServer answering the binary protocol
// must be indistinguishable from calling QueryEngine::RunBatch in
// process — bit-identical results, statuses, truncation flags, AND
// per-query distance counts — for every index spec in the registry.
// On top of that contract: writes over the wire are immediately
// visible, admission control answers kUnavailable instead of dropping,
// malformed streams get a kError frame then teardown, the perm cache
// replays bit-identically and invalidates across mutations and
// compactions, the bound path only ever reduces distance computations,
// and a durable store survives serve -> shutdown -> reopen with its
// WAL tail intact.
//
// The LiveClock suite pins the pin-free accessor semantics the cache
// tags rely on.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/vector_gen.h"
#include "engine/live_database.h"
#include "engine/query_engine.h"
#include "metric/lp.h"
#include "net/client.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "server/search_server.h"
#include "storage/env.h"
#include "util/rng.h"

namespace distperm {
namespace server {
namespace {

using engine::LiveDatabase;
using engine::QueryEngine;
using index::SearchRequest;
using metric::Vector;
using net::Client;
using net::WireCode;
using net::WireSearchResponse;

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

const std::vector<std::string> kAllSpecs = {
    "linear-scan",          "aesa",
    "vp-tree",              "gh-tree",
    "laesa:k=4",            "iaesa:k=4",
    "distperm:k=6,fraction=0.5", "distperm-prefix:k=6,prefix=2"};

/// A LiveDatabase plus a SearchServer running on its own thread; the
/// destructor drains and joins.
struct TestServer {
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<LiveDatabase<Vector>> db;
  std::unique_ptr<SearchServer<Vector>> server;
  std::thread thread;

  ~TestServer() {
    if (server) {
      server->Shutdown();
      thread.join();
    }
    // The server (and its engine callbacks) must die before the
    // registry they record into.
    server.reset();
    db.reset();
  }
};

std::unique_ptr<TestServer> StartServer(
    const std::string& spec, size_t n, size_t dim, uint64_t seed,
    typename SearchServer<Vector>::Options options = {},
    const std::string& wal_dir = "", bool with_metrics_port = false) {
  auto ts = std::make_unique<TestServer>();
  ts->metrics = std::make_unique<obs::MetricsRegistry>("server_e2e");
  util::Rng rng(seed);
  std::vector<Vector> data;
  std::string live_spec = spec;
  if (!wal_dir.empty()) {
    live_spec += (live_spec.find(':') == std::string::npos ? ":" : ",");
    live_spec += "wal_dir=" + wal_dir;
    storage::Env* env = storage::Env::Default();
    bool has_snapshot = false;
    if (auto listing = env->ListDir(wal_dir); listing.ok()) {
      for (const std::string& name : listing.value()) {
        if (name.rfind("snapshot-", 0) == 0) has_snapshot = true;
      }
    }
    if (!has_snapshot) data = dataset::UniformCube(n, dim, &rng);
  } else {
    data = dataset::UniformCube(n, dim, &rng);
  }
  auto opened =
      LiveDatabase<Vector>::Open(std::move(data), L2(), /*shard_count=*/3,
                                 live_spec, seed);
  EXPECT_TRUE(opened.ok()) << opened.status();
  if (!opened.ok()) return nullptr;
  ts->db = std::move(opened).value();
  options.metrics = ts->metrics.get();
  ts->server =
      std::make_unique<SearchServer<Vector>>(ts->db.get(), options);
  auto started = ts->server->Start(0);
  EXPECT_TRUE(started.ok()) << started;
  if (!started.ok()) return nullptr;
  // Listeners register with the event loop, so bind them before Run().
  if (with_metrics_port) {
    auto metrics_started = ts->server->StartMetrics(0);
    EXPECT_TRUE(metrics_started.ok()) << metrics_started;
    if (!metrics_started.ok()) return nullptr;
  }
  SearchServer<Vector>* server = ts->server.get();
  ts->thread = std::thread([server]() { server->Run(); });
  return ts;
}

std::unique_ptr<Client> Connect(const TestServer& ts) {
  auto client = Client::Connect("127.0.0.1", ts.server->port());
  EXPECT_TRUE(client.ok()) << client.status();
  return client.ok() ? std::move(client).value() : nullptr;
}

/// A mixed batch exercising the full request surface.
std::vector<SearchRequest<Vector>> MixedBatch(size_t dim, uint64_t seed) {
  util::Rng rng(seed);
  const std::vector<Vector> probes = dataset::UniformCube(24, dim, &rng);
  std::vector<SearchRequest<Vector>> batch;
  for (size_t i = 0; i < probes.size(); ++i) {
    switch (i % 4) {
      case 0:
        batch.push_back(SearchRequest<Vector>::Knn(probes[i], 5));
        break;
      case 1:
        batch.push_back(SearchRequest<Vector>::Range(probes[i], 0.4));
        break;
      case 2:
        batch.push_back(
            SearchRequest<Vector>::KnnWithinRadius(probes[i], 3, 0.8));
        break;
      default:
        batch.push_back(
            SearchRequest<Vector>::Knn(probes[i], 4).WithDistanceBudget(150));
        break;
    }
  }
  return batch;
}

void ExpectBitIdentical(const WireSearchResponse& wire,
                        const QueryEngine<Vector>::BatchOutput& local,
                        size_t i, const std::string& context) {
  ASSERT_TRUE(wire.status.ok())
      << context << " query " << i << ": " << wire.status.message;
  ASSERT_TRUE(local.statuses[i].ok()) << context << " query " << i;
  EXPECT_EQ(wire.truncated, local.truncated[i]) << context << " query " << i;
  EXPECT_EQ(wire.stats.distance_computations,
            local.per_query_distance_computations[i])
      << context << " query " << i;
  ASSERT_EQ(wire.results.size(), local.results[i].size())
      << context << " query " << i;
  for (size_t r = 0; r < wire.results.size(); ++r) {
    EXPECT_EQ(wire.results[r].id, local.results[i][r].id)
        << context << " query " << i << " result " << r;
    EXPECT_EQ(wire.results[r].distance, local.results[i][r].distance)
        << context << " query " << i << " result " << r;
  }
}

TEST(ServerE2E, LoopbackBitIdenticalAcrossRegistrySpecs) {
  for (const std::string& spec : kAllSpecs) {
    SCOPED_TRACE(spec);
    auto ts = StartServer(spec, 500, 6, 20260809);
    ASSERT_NE(ts, nullptr);
    auto client = Connect(*ts);
    ASSERT_NE(client, nullptr);

    const std::vector<SearchRequest<Vector>> batch = MixedBatch(6, 7);
    QueryEngine<Vector> local_engine(1);
    const auto local = ts->db->RunBatch(local_engine, ts->db->Pin(), batch);

    auto remote = client->SearchBatch(batch);
    ASSERT_TRUE(remote.ok()) << remote.status();
    ASSERT_EQ(remote.value().size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      ExpectBitIdentical(remote.value()[i], local, i, spec);
      EXPECT_FALSE(remote.value()[i].cache_hit);
      EXPECT_EQ(remote.value()[i].generation,
                ts->db->generation_number());
    }
  }
}

TEST(ServerE2E, PingPong) {
  auto ts = StartServer("vp-tree", 100, 4, 1);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_NE(client, nullptr);
  EXPECT_TRUE(client->Ping().ok());
}

TEST(ServerE2E, InsertAndRemoveVisibleOverTheWire) {
  auto ts = StartServer("vp-tree", 300, 4, 2);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_NE(client, nullptr);

  // Insert a point far outside the unit cube: its own nearest
  // neighbour, trivially.
  const Vector outlier{50.0, 50.0, 50.0, 50.0};
  auto inserted = client->Insert(outlier);
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  ASSERT_TRUE(inserted.value().status.ok());
  const uint64_t id = inserted.value().id;
  EXPECT_EQ(id, 300u);

  auto found = client->Search(SearchRequest<Vector>::Knn(outlier, 1));
  ASSERT_TRUE(found.ok()) << found.status();
  ASSERT_EQ(found.value().results.size(), 1u);
  EXPECT_EQ(found.value().results[0].id, id);
  EXPECT_EQ(found.value().results[0].distance, 0.0);

  auto removed = client->Remove(id);
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_TRUE(removed.value().ok());

  auto gone = client->Search(SearchRequest<Vector>::Knn(outlier, 1));
  ASSERT_TRUE(gone.ok());
  ASSERT_EQ(gone.value().results.size(), 1u);
  EXPECT_NE(gone.value().results[0].id, id);

  // Removing it again reports the library's NotFound over the wire.
  auto again = client->Remove(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().code, WireCode::kNotFound);
}

// A client sending points of the wrong dimension gets InvalidArgument
// for each of them — before the perm cache or any index measures the
// point — and the server keeps answering everyone, that client
// included.
TEST(ServerE2E, WrongDimensionIsRejectedAndServingContinues) {
  SearchServer<Vector>::Options options;
  options.perm_cache_capacity = 1024;
  options.perm_cache_sites = 8;
  auto ts = StartServer("vp-tree", 300, 4, 12, options);
  ASSERT_NE(ts, nullptr);
  auto bad_client = Connect(*ts);
  auto good_client = Connect(*ts);
  ASSERT_NE(bad_client, nullptr);
  ASSERT_NE(good_client, nullptr);
  const Vector good_point{0.5, 0.5, 0.5, 0.5};
  const Vector bad_point{0.5, 0.5, 0.5};

  const std::vector<SearchRequest<Vector>> batch = {
      SearchRequest<Vector>::Knn(bad_point, 3),
      SearchRequest<Vector>::Knn(good_point, 3)};
  auto searched = bad_client->SearchBatch(batch);
  ASSERT_TRUE(searched.ok()) << searched.status();
  EXPECT_EQ(searched.value()[0].status.code, WireCode::kInvalidArgument);
  EXPECT_TRUE(searched.value()[0].results.empty());
  EXPECT_EQ(searched.value()[0].stats.distance_computations, 0u);
  EXPECT_TRUE(searched.value()[1].status.ok());
  EXPECT_EQ(searched.value()[1].results.size(), 3u);

  auto inserted = bad_client->Insert(bad_point);
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(inserted.value().status.code, WireCode::kInvalidArgument);
  EXPECT_EQ(ts->db->size(), 300u);

  auto other = good_client->Search(SearchRequest<Vector>::Knn(good_point, 3));
  ASSERT_TRUE(other.ok()) << other.status();
  EXPECT_TRUE(other.value().status.ok());
  EXPECT_EQ(other.value().results, searched.value()[1].results);
  auto same = bad_client->Search(SearchRequest<Vector>::Knn(good_point, 3));
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_TRUE(same.value().status.ok());
}

TEST(ServerE2E, AdmissionBudgetRejectsWithUnavailable) {
  SearchServer<Vector>::Options options;
  options.max_inflight_distance_budget = 1;  // below one search's cost
  auto ts = StartServer("linear-scan", 400, 4, 3, options);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_NE(client, nullptr);

  util::Rng rng(5);
  const std::vector<Vector> probes = dataset::UniformCube(3, 4, &rng);
  std::vector<SearchRequest<Vector>> batch;
  for (const Vector& probe : probes) {
    batch.push_back(SearchRequest<Vector>::Knn(probe, 3));
  }
  auto responses = client->SearchBatch(batch);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses.value().size(), 3u);
  // The first is always admitted (progress guarantee); the rest are
  // over budget and get an explicit kUnavailable, not a dropped frame.
  EXPECT_TRUE(responses.value()[0].status.ok());
  EXPECT_GT(responses.value()[0].results.size(), 0u);
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(responses.value()[i].status.code, WireCode::kUnavailable);
    EXPECT_TRUE(responses.value()[i].results.empty());
  }
  EXPECT_EQ(ts->server->overload_rejected(), 2u);
}

// Admission prices each batch on its own: a ping between searches runs
// the pending batch, and the searches after it start a fresh budget.
// One write holds [search, ping, search, search] against a 400-point
// store with a budget of 800, so the two batches cost 400 and
// 400 + 400 and nothing is rejected.
TEST(ServerE2E, AdmissionBudgetRestartsAfterANonSearchFrame) {
  SearchServer<Vector>::Options options;
  options.max_inflight_distance_budget = 800;
  auto ts = StartServer("linear-scan", 400, 4, 3, options);
  ASSERT_NE(ts, nullptr);

  util::Rng rng(19);
  const std::vector<Vector> probes = dataset::UniformCube(3, 4, &rng);
  std::string frames[3];
  for (size_t i = 0; i < 3; ++i) {
    std::string payload;
    net::EncodeSearchRequest(&payload,
                             SearchRequest<Vector>::Knn(probes[i], 3));
    frames[i] = net::EncodeFrame(net::MessageType::kSearch, payload);
  }
  const std::string bytes = frames[0] +
                            net::EncodeFrame(net::MessageType::kPing, "") +
                            frames[1] + frames[2];

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(ts->server->port());
  inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)),
            0)
      << std::strerror(errno);
  timeval timeout{};
  timeout.tv_sec = 10;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));

  std::vector<net::MessageType> types;
  std::vector<WireCode> codes;
  std::string in;
  while (types.size() < 4) {
    char buffer[4096];
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    in.append(buffer, static_cast<size_t>(n));
    for (;;) {
      net::FrameView view;
      size_t frame_size = 0;
      util::Status error;
      const net::FrameParse parse = net::ParseFrame(
          reinterpret_cast<const uint8_t*>(in.data()), in.size(), &view,
          &frame_size, &error);
      ASSERT_NE(parse, net::FrameParse::kError) << error;
      if (parse == net::FrameParse::kIncomplete) break;
      types.push_back(view.type);
      if (view.type == net::MessageType::kSearchResult) {
        auto response =
            net::DecodeSearchResponse(view.payload, view.payload_size);
        ASSERT_TRUE(response.ok()) << response.status();
        codes.push_back(response.value().status.code);
      }
      in.erase(0, frame_size);
    }
  }
  close(fd);
  ASSERT_EQ(types.size(), 4u);
  EXPECT_EQ(types[1], net::MessageType::kPong);
  ASSERT_EQ(codes.size(), 3u);
  for (const WireCode code : codes) EXPECT_EQ(code, WireCode::kOk);
  EXPECT_EQ(ts->server->overload_rejected(), 0u);
}

TEST(ServerE2E, PerConnectionRequestCapRejects) {
  SearchServer<Vector>::Options options;
  options.max_requests_per_connection = 2;
  auto ts = StartServer("vp-tree", 200, 4, 4, options);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_NE(client, nullptr);

  util::Rng rng(6);
  const std::vector<Vector> probes = dataset::UniformCube(4, 4, &rng);
  std::vector<SearchRequest<Vector>> batch;
  for (const Vector& probe : probes) {
    batch.push_back(SearchRequest<Vector>::Knn(probe, 2));
  }
  auto responses = client->SearchBatch(batch);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses.value().size(), 4u);
  EXPECT_TRUE(responses.value()[0].status.ok());
  EXPECT_TRUE(responses.value()[1].status.ok());
  EXPECT_EQ(responses.value()[2].status.code, WireCode::kUnavailable);
  EXPECT_EQ(responses.value()[3].status.code, WireCode::kUnavailable);
}

TEST(ServerE2E, GarbageGetsErrorFrameThenTeardown) {
  auto ts = StartServer("vp-tree", 100, 4, 8);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_NE(client, nullptr);

  ASSERT_TRUE(client->SendRaw("this is not a frame at all......").ok());
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame.value().first, net::MessageType::kError);
  auto error = net::DecodeWireStatus(
      reinterpret_cast<const uint8_t*>(frame.value().second.data()),
      frame.value().second.size());
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().code, WireCode::kInvalidArgument);
  // After the error frame the server hangs up.
  EXPECT_FALSE(client->ReadFrame().ok());
  EXPECT_GE(ts->server->decode_errors(), 1u);

  // A fresh connection still works: the blast radius was one socket.
  auto client2 = Connect(*ts);
  ASSERT_NE(client2, nullptr);
  EXPECT_TRUE(client2->Ping().ok());

  // Corrupted CRC on an otherwise valid frame: same contract.
  std::string payload;
  net::EncodeSearchRequest(
      &payload, SearchRequest<Vector>::Knn(Vector{0.1, 0.1, 0.1, 0.1}, 1));
  std::string bytes = net::EncodeFrame(net::MessageType::kSearch, payload);
  bytes[net::kFrameHeaderSize] ^= 0x01;
  ASSERT_TRUE(client2->SendRaw(bytes).ok());
  auto crc_frame = client2->ReadFrame();
  ASSERT_TRUE(crc_frame.ok());
  EXPECT_EQ(crc_frame.value().first, net::MessageType::kError);
  EXPECT_FALSE(client2->ReadFrame().ok());
}

TEST(ServerE2E, CacheHitsReplayBitIdentically) {
  SearchServer<Vector>::Options options;
  options.perm_cache_capacity = 1024;
  options.perm_cache_sites = 8;
  auto ts = StartServer("vp-tree", 500, 6, 9, options);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_NE(client, nullptr);

  const std::vector<SearchRequest<Vector>> batch = MixedBatch(6, 11);
  auto first = client->SearchBatch(batch);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = client->SearchBatch(batch);
  ASSERT_TRUE(second.ok()) << second.status();

  ASSERT_EQ(first.value().size(), second.value().size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const WireSearchResponse& a = first.value()[i];
    const WireSearchResponse& b = second.value()[i];
    EXPECT_FALSE(a.cache_hit);
    EXPECT_TRUE(b.cache_hit) << "query " << i;
    EXPECT_EQ(a.generation, b.generation);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.stats.distance_computations, b.stats.distance_computations);
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t r = 0; r < a.results.size(); ++r) {
      EXPECT_EQ(a.results[r].id, b.results[r].id);
      EXPECT_EQ(a.results[r].distance, b.results[r].distance);
    }
  }
  const PermCacheStore* store = ts->server->cache_store();
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->hits(), batch.size());
  EXPECT_EQ(store->misses(), batch.size());

  // The no-cache flag bypasses the warm cache.
  auto uncached = client->SearchBatch(batch, /*no_cache=*/true);
  ASSERT_TRUE(uncached.ok());
  for (const WireSearchResponse& response : uncached.value()) {
    EXPECT_FALSE(response.cache_hit);
  }
  EXPECT_EQ(store->hits(), batch.size());
}

TEST(ServerE2E, CacheInvalidatesAcrossMutationsAndCompaction) {
  SearchServer<Vector>::Options options;
  options.perm_cache_capacity = 1024;
  options.perm_cache_sites = 8;
  auto ts = StartServer("vp-tree", 400, 5, 10, options);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_NE(client, nullptr);

  const SearchRequest<Vector> request = SearchRequest<Vector>::Knn(
      Vector{0.5, 0.5, 0.5, 0.5, 0.5}, 6);
  ASSERT_TRUE(client->Search(request).ok());
  ASSERT_TRUE(client->Search(request).value().cache_hit);

  // An insert over the wire bumps the mutation clock: the next probe
  // misses, re-executes against the post-insert view, and refills.
  const Vector near{0.5, 0.5, 0.5, 0.5, 0.501};
  ASSERT_TRUE(client->Insert(near).ok());
  auto after_insert = client->Search(request);
  ASSERT_TRUE(after_insert.ok());
  EXPECT_FALSE(after_insert.value().cache_hit);
  bool sees_insert = false;
  for (const auto& result : after_insert.value().results) {
    if (result.id == 400u) sees_insert = true;
  }
  EXPECT_TRUE(sees_insert) << "post-insert execution must see the insert";
  ASSERT_TRUE(client->Search(request).value().cache_hit);

  // A compaction swaps the generation (ids remap): cached answers die;
  // the re-executed answer matches a local run on the new generation.
  ASSERT_TRUE(ts->db->Compact().ok());
  auto after_compact = client->Search(request);
  ASSERT_TRUE(after_compact.ok());
  EXPECT_FALSE(after_compact.value().cache_hit);
  EXPECT_EQ(after_compact.value().generation,
            ts->db->generation_number());
  QueryEngine<Vector> local_engine(1);
  const auto local = ts->db->RunBatch(local_engine, ts->db->Pin(), {request});
  ExpectBitIdentical(after_compact.value(), local, 0, "post-compact");
  const PermCacheStore* store = ts->server->cache_store();
  ASSERT_NE(store, nullptr);
  EXPECT_GE(store->invalidations(), 2u);
}

TEST(ServerE2E, BoundSeedingOnlyReducesDistanceComputations) {
  SearchServer<Vector>::Options options;
  options.perm_cache_capacity = 1024;
  options.perm_cache_sites = 8;
  options.perm_cache_prefix = 2;
  auto ts = StartServer("vp-tree", 1500, 4, 12, options);
  ASSERT_NE(ts, nullptr);
  auto client = Connect(*ts);
  ASSERT_NE(client, nullptr);

  // Warm the bound table from one query...
  const Vector anchor{0.31, 0.62, 0.45, 0.58};
  ASSERT_TRUE(
      client->Search(SearchRequest<Vector>::Knn(anchor, 5)).ok());

  // ...then ask a *different* nearby query: full key misses, but the
  // permutation-prefix cell matches and seeds the bound.
  Vector neighbour = anchor;
  neighbour[0] += 0.004;
  const SearchRequest<Vector> request =
      SearchRequest<Vector>::Knn(neighbour, 5);
  auto seeded = client->Search(request);
  ASSERT_TRUE(seeded.ok()) << seeded.status();
  EXPECT_FALSE(seeded.value().cache_hit);
  ASSERT_TRUE(seeded.value().bound_seeded)
      << "neighbour query should land in the same permutation cell";

  // Ground truth without any cache interference.
  QueryEngine<Vector> local_engine(1);
  const auto local = ts->db->RunBatch(local_engine, ts->db->Pin(), {request});
  ASSERT_TRUE(local.statuses[0].ok());

  // Exact results, never more distance computations than unhinted.
  ASSERT_EQ(seeded.value().results.size(), local.results[0].size());
  for (size_t r = 0; r < local.results[0].size(); ++r) {
    EXPECT_EQ(seeded.value().results[r].id, local.results[0][r].id);
    EXPECT_EQ(seeded.value().results[r].distance,
              local.results[0][r].distance);
  }
  EXPECT_LE(seeded.value().stats.distance_computations,
            local.per_query_distance_computations[0]);
  const PermCacheStore* store = ts->server->cache_store();
  ASSERT_NE(store, nullptr);
  EXPECT_GE(store->bound_seeds(), 1u);
}

TEST(ServerE2E, GracefulShutdownPreservesWalTail) {
  storage::Env* env = storage::Env::Default();
  const std::string dir = ::testing::TempDir() + "/server_e2e_wal";
  ASSERT_TRUE(env->CreateDir(dir).ok());
  if (auto listing = env->ListDir(dir); listing.ok()) {
    for (const std::string& file : listing.value()) {
      env->DeleteFile(dir + "/" + file);
    }
  }

  const Vector outlier{9.0, 9.0, 9.0, 9.0};
  {
    auto ts = StartServer("vp-tree", 200, 4, 13, {}, dir);
    ASSERT_NE(ts, nullptr);
    auto client = Connect(*ts);
    ASSERT_NE(client, nullptr);
    auto inserted = client->Insert(outlier);
    ASSERT_TRUE(inserted.ok());
    ASSERT_TRUE(inserted.value().status.ok());
    ASSERT_TRUE(ts->db->SyncWal().ok());
    // TestServer's destructor shuts the server down gracefully; the
    // store closes with the insert only in the WAL tail.
  }

  // Reopen from disk alone: the tail must replay.
  auto reopened = StartServer("vp-tree", 0, 4, 13, {}, dir);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->db->size(), 201u);
  auto client = Connect(*reopened);
  ASSERT_NE(client, nullptr);
  auto found = client->Search(SearchRequest<Vector>::Knn(outlier, 1));
  ASSERT_TRUE(found.ok());
  ASSERT_EQ(found.value().results.size(), 1u);
  EXPECT_EQ(found.value().results[0].distance, 0.0);
}

/// Plain HTTP GET against the metrics port.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)),
            0);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

TEST(ServerE2E, MetricsEndpointServesExpositionAndStatz) {
  SearchServer<Vector>::Options options;
  options.perm_cache_capacity = 256;
  options.perm_cache_sites = 6;
  auto ts = StartServer("vp-tree", 300, 4, 14, options, /*wal_dir=*/"",
                        /*with_metrics_port=*/true);
  ASSERT_NE(ts, nullptr);
  const uint16_t metrics_port = ts->server->metrics_port();
  ASSERT_NE(metrics_port, 0);

  auto client = Connect(*ts);
  ASSERT_NE(client, nullptr);
  const SearchRequest<Vector> request =
      SearchRequest<Vector>::Knn(Vector{0.2, 0.4, 0.6, 0.8}, 3);
  ASSERT_TRUE(client->Search(request).ok());
  ASSERT_TRUE(client->Search(request).ok());  // cache hit

  const std::string metrics = HttpGet(metrics_port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("perm_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(metrics.find("perm_cache_misses_total 1"), std::string::npos);
  EXPECT_NE(metrics.find("server_requests_total 2"), std::string::npos);
  EXPECT_NE(metrics.find("engine_queries_total"), std::string::npos);
  EXPECT_NE(metrics.find("server_paused_connections 0"), std::string::npos);
  EXPECT_NE(metrics.find("server_write_backlog_max_bytes "),
            std::string::npos);

  const std::string statz = HttpGet(metrics_port, "/statz");
  EXPECT_NE(statz.find("\"generation\": 1"), std::string::npos);
  EXPECT_NE(statz.find("\"cache_hits\": 1"), std::string::npos);
  EXPECT_NE(statz.find("\"requests\": 2"), std::string::npos);
  EXPECT_NE(statz.find("\"paused_connections\": 0"), std::string::npos);
  EXPECT_NE(statz.find("\"write_backlog_max_bytes\": "), std::string::npos);

  const std::string missing = HttpGet(metrics_port, "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
}

/// A pipelined stream of k-NN requests with answers of at least
/// 4 KiB each, plus the local answers they must match.
struct SlowReaderStream {
  static constexpr size_t kK = 256;
  static constexpr size_t kProbes = 64;

  explicit SlowReaderStream(const TestServer& ts) {
    // The answers total 6x the cap — well over 4x the cap plus both
    // socket buffers (the client's receive buffer is pinned small).
    total = 6 * SearchServer<Vector>::kMaxWriteBacklog / (kK * 16);
    util::Rng rng(18);
    const std::vector<Vector> probes = dataset::UniformCube(kProbes, 4, &rng);
    for (const Vector& probe : probes) {
      cycle.push_back(SearchRequest<Vector>::Knn(probe, kK));
    }
    QueryEngine<Vector> local_engine(1);
    local = ts.db->RunBatch(local_engine, ts.db->Pin(), cycle);
    for (size_t i = 0; i < total; ++i) {
      std::string payload;
      net::EncodeSearchRequest(&payload, cycle[i % kProbes]);
      bytes += net::EncodeFrame(net::MessageType::kSearch, payload);
      frame_ends.push_back(bytes.size());
    }
  }

  /// Requests wholly inside the first `sent` bytes.
  uint64_t RequestsSent(size_t sent) const {
    return static_cast<uint64_t>(
        std::upper_bound(frame_ends.begin(), frame_ends.end(), sent) -
        frame_ends.begin());
  }

  size_t total = 0;
  std::vector<SearchRequest<Vector>> cycle;
  QueryEngine<Vector>::BatchOutput local;
  std::string bytes;
  std::vector<size_t> frame_ends;
};

/// A non-blocking loopback socket to `port` with a small receive
/// buffer, so unread answers back up into the server quickly.
int ConnectSlowReader(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int rcvbuf = 64 << 10;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&address),
              sizeof(address)) != 0 ||
      fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Reads answers off `fd` — sending the rest of the stream as the
/// socket accepts it — until every request is answered or `deadline`
/// passes; expects each answer in request order.
void DrainInOrder(int fd, const SlowReaderStream& stream, size_t sent,
                  std::chrono::steady_clock::time_point deadline) {
  std::string in;
  size_t consumed = 0;
  size_t answered = 0;
  size_t mismatches = 0;
  while (answered < stream.total &&
         std::chrono::steady_clock::now() < deadline) {
    pollfd poll_fd{fd, POLLIN, 0};
    if (sent < stream.bytes.size()) poll_fd.events |= POLLOUT;
    poll(&poll_fd, 1, 100);
    if (sent < stream.bytes.size()) {
      const ssize_t n = send(fd, stream.bytes.data() + sent,
                             stream.bytes.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<size_t>(n);
    }
    char buffer[65536];
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n == 0) break;
    if (n < 0) continue;
    in.append(buffer, static_cast<size_t>(n));
    for (;;) {
      net::FrameView view;
      size_t frame_size = 0;
      util::Status error;
      const net::FrameParse parse = net::ParseFrame(
          reinterpret_cast<const uint8_t*>(in.data()) + consumed,
          in.size() - consumed, &view, &frame_size, &error);
      ASSERT_NE(parse, net::FrameParse::kError) << error;
      if (parse == net::FrameParse::kIncomplete) break;
      consumed += frame_size;
      auto response =
          net::DecodeSearchResponse(view.payload, view.payload_size);
      if (view.type != net::MessageType::kSearchResult || !response.ok() ||
          response.value().results !=
              stream.local.results[answered % SlowReaderStream::kProbes]) {
        ++mismatches;
      }
      ++answered;
    }
    in.erase(0, consumed);
    consumed = 0;
  }
  EXPECT_EQ(answered, stream.total);
  EXPECT_EQ(mismatches, 0u);
}

// A client that pipelines requests and never reads its answers must
// fill its own socket, not server memory: once the unsent backlog
// passes the cap the server stops reading that connection, keeps
// serving others, and resumes — in order — when the client drains.
TEST(ServerE2E, SlowReaderIsPausedNotBuffered) {
  using Clock = std::chrono::steady_clock;
  SearchServer<Vector>::Options options;
  options.max_requests_per_connection = std::numeric_limits<size_t>::max();
  auto ts = StartServer("linear-scan", 512, 4, 17, options);
  ASSERT_NE(ts, nullptr);
  const SlowReaderStream stream(*ts);
  constexpr size_t kChunk = 64;
  const int fd = ConnectSlowReader(ts->server->port());
  ASSERT_GE(fd, 0) << std::strerror(errno);
  size_t sent = 0;  // bytes of the stream the socket accepted

  // Pipeline in chunks without reading, waiting after each for the
  // server to answer it, until the server stops answering.  Chunking
  // keeps each server read small, so the stop is the cap's doing, not
  // one huge read's.
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  uint64_t served = 0;
  bool stalled = false;
  while (sent < stream.bytes.size() && !stalled && Clock::now() < deadline) {
    const size_t chunk_end = stream.frame_ends[std::min(
        stream.RequestsSent(sent) + kChunk, stream.total) - 1];
    auto progress = Clock::now();
    while (sent < chunk_end &&
           Clock::now() - progress < std::chrono::seconds(1)) {
      const ssize_t n = send(fd, stream.bytes.data() + sent,
                             chunk_end - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        progress = Clock::now();
      } else {
        ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
            << std::strerror(errno);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    progress = Clock::now();
    while (served < stream.RequestsSent(sent) &&
           Clock::now() - progress < std::chrono::seconds(1)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      const uint64_t now_served = ts->server->requests_served();
      if (now_served != served) progress = Clock::now();
      served = now_served;
    }
    stalled = served < stream.RequestsSent(sent);
  }
  EXPECT_TRUE(stalled) << "server answered all " << served
                       << " pipelined requests without being read";
  EXPECT_LT(served, stream.RequestsSent(sent));
  EXPECT_LT(served, stream.total);

  // The paused connection does not stall the loop.
  auto other = Connect(*ts);
  ASSERT_NE(other, nullptr);
  auto answer = other->Search(stream.cycle[0]);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer.value().results, stream.local.results[0]);

  // Draining resumes the stream: every answer arrives, in order.
  DrainInOrder(fd, stream, sent, deadline);
  close(fd);
}

// The same stream sent in one unpaced loop, so one server read can
// return thousands of requests at once: the server answers them only
// while the backlog is under the cap and leaves the rest buffered, so
// the unsent answers stay under twice the cap, and every answer still
// arrives in order once the client drains.
TEST(ServerE2E, UnpacedBurstStaysUnderTheBacklogCap) {
  using Clock = std::chrono::steady_clock;
  constexpr size_t kCap = SearchServer<Vector>::kMaxWriteBacklog;
  SearchServer<Vector>::Options options;
  options.max_requests_per_connection = std::numeric_limits<size_t>::max();
  auto ts = StartServer("linear-scan", 512, 4, 17, options);
  ASSERT_NE(ts, nullptr);
  const SlowReaderStream stream(*ts);
  const int fd = ConnectSlowReader(ts->server->port());
  ASSERT_GE(fd, 0) << std::strerror(errno);

  // Send until the socket stops accepting bytes for a second.
  size_t sent = 0;
  auto progress = Clock::now();
  while (sent < stream.bytes.size() &&
         Clock::now() - progress < std::chrono::seconds(1)) {
    const ssize_t n = send(fd, stream.bytes.data() + sent,
                           stream.bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      progress = Clock::now();
    } else {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          << std::strerror(errno);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // The server pauses the connection once the backlog passes the cap
  // (and answers nothing more until the client reads).
  const auto paused_by = Clock::now() + std::chrono::seconds(60);
  while (ts->server->paused_connections() == 0 &&
         ts->server->requests_served() < stream.total &&
         Clock::now() < paused_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(ts->server->paused_connections(), 1u);
  EXPECT_LT(ts->server->requests_served(), stream.total)
      << "server answered every pipelined request without being read";
  const uint64_t high_water = ts->server->write_backlog_max_bytes();
  EXPECT_GT(high_water, kCap);
  EXPECT_LT(high_water, 2 * kCap);

  DrainInOrder(fd, stream, sent, Clock::now() + std::chrono::seconds(60));
  close(fd);
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (ts->server->paused_connections() != 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(ts->server->paused_connections(), 0u);
}

// ----------------------------------------------------------- LiveClock

TEST(LiveClock, AccessorsAdvanceWithoutPinning) {
  util::Rng rng(15);
  auto data = dataset::UniformCube(100, 4, &rng);
  auto opened = LiveDatabase<Vector>::Open(data, L2(), 2, "vp-tree", 15);
  ASSERT_TRUE(opened.ok());
  LiveDatabase<Vector>& db = *opened.value();

  EXPECT_EQ(db.generation_number(), 1u);
  EXPECT_EQ(db.delta_entries(), 0u);
  EXPECT_EQ(db.mutation_clock(), 0u);
  EXPECT_EQ(db.remove_clock(), 0u);

  ASSERT_TRUE(db.Insert(Vector{2.0, 2.0, 2.0, 2.0}).ok());
  EXPECT_EQ(db.delta_entries(), 1u);
  EXPECT_EQ(db.mutation_clock(), 1u);
  EXPECT_EQ(db.remove_clock(), 0u);

  ASSERT_TRUE(db.Remove(0).ok());
  EXPECT_EQ(db.delta_entries(), 2u);
  EXPECT_EQ(db.mutation_clock(), 2u);
  EXPECT_EQ(db.remove_clock(), 1u);

  // Compaction advances the generation and the mutation clock (ids
  // remap) but not the remove clock (the live point set is preserved).
  const uint64_t mutations_before = db.mutation_clock();
  ASSERT_TRUE(db.Compact().ok());
  EXPECT_EQ(db.generation_number(), 2u);
  EXPECT_EQ(db.delta_entries(), 0u);
  EXPECT_GT(db.mutation_clock(), mutations_before);
  EXPECT_EQ(db.remove_clock(), 1u);
}

TEST(LiveClock, ClocksAreMonotone) {
  util::Rng rng(16);
  auto data = dataset::UniformCube(50, 3, &rng);
  auto opened = LiveDatabase<Vector>::Open(data, L2(), 2, "linear-scan", 16);
  ASSERT_TRUE(opened.ok());
  LiveDatabase<Vector>& db = *opened.value();

  uint64_t last_mutation = db.mutation_clock();
  uint64_t last_remove = db.remove_clock();
  uint64_t last_generation = db.generation_number();
  for (int i = 0; i < 10; ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(db.Insert(Vector{1.0, 1.0, 1.0}).ok());
    } else if (i % 3 == 1) {
      ASSERT_TRUE(db.Remove(static_cast<size_t>(i)).ok());
    } else {
      ASSERT_TRUE(db.Compact().ok());
    }
    EXPECT_GE(db.mutation_clock(), last_mutation);
    EXPECT_GE(db.remove_clock(), last_remove);
    EXPECT_GE(db.generation_number(), last_generation);
    last_mutation = db.mutation_clock();
    last_remove = db.remove_clock();
    last_generation = db.generation_number();
  }
}

}  // namespace
}  // namespace server
}  // namespace distperm
