// Crash recovery with a real process kill.
//
// The test forks a writer child that opens a durable store
// (fsync=always), inserts a deterministic stream of points, and
// compacts periodically, signalling the parent over a pipe right
// before each compaction.  The parent SIGKILLs the child on one of
// those signals — so the kill lands in or around a compaction, the
// hardest window (tmp snapshot write, WAL rotation, generation swap,
// old-file retirement) — then reopens the directory and requires that
// the recovered store is exactly the seed data plus a prefix of the
// insert stream, and answers queries fingerprint-identically to a
// fresh in-memory build over that same prefix.
//
// Which compaction triggers the kill rotates across invocations, so
// CI's `--gtest_repeat=20` loop sweeps the kill point through
// different phases of the rotation protocol.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "dataset/vector_gen.h"
#include "engine/live_database.h"
#include "engine/query.h"
#include "metric/lp.h"
#include "storage/env.h"
#include "util/rng.h"

namespace distperm {
namespace engine {
namespace {

using metric::Vector;

#if defined(__SANITIZE_THREAD__)
constexpr bool kForkUnsafe = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kForkUnsafe = true;
#else
constexpr bool kForkUnsafe = false;
#endif
#else
constexpr bool kForkUnsafe = false;
#endif

constexpr size_t kBaseCount = 80;
constexpr size_t kStreamCount = 120;
constexpr size_t kInsertsPerCompact = 25;
constexpr uint64_t kSeed = 97;
const char kSpecTail[] = ",wal_dir=";

metric::Metric<Vector> L2() { return metric::LpMetric::L2(); }

std::vector<Vector> BaseData() {
  util::Rng rng(181);
  return dataset::UniformCube(kBaseCount, 3, &rng);
}

std::vector<Vector> StreamData() {
  util::Rng rng(182);
  return dataset::UniformCube(kStreamCount, 3, &rng);
}

std::string StoreSpec(const std::string& dir) {
  return std::string("vp-tree:fsync=always") + kSpecTail + dir;
}

/// The child's whole life.  No gtest here: any failure is an abnormal
/// exit code the parent turns into a test failure.
[[noreturn]] void WriterChild(const std::string& dir, int signal_fd) {
  auto live = LiveDatabase<Vector>::Open(BaseData(), L2(), 2,
                                         StoreSpec(dir), kSeed);
  if (!live.ok()) _exit(2);
  const std::vector<Vector> stream = StreamData();
  for (size_t i = 0; i < stream.size(); ++i) {
    if (!live.value()->Insert(stream[i]).ok()) _exit(3);
    if ((i + 1) % kInsertsPerCompact == 0) {
      const char byte = 'c';
      if (::write(signal_fd, &byte, 1) != 1) _exit(4);
      if (!live.value()->Compact().ok()) _exit(5);
    }
  }
  _exit(0);
}

TEST(CrashRecovery, KillMidCompactionRecoversAckedPrefix) {
  if (kForkUnsafe) {
    GTEST_SKIP() << "fork-based crash test is not run under TSan";
  }
  storage::Env* env = storage::Env::Default();
  const std::string dir = ::testing::TempDir() + "/crash_recovery_store";
  ASSERT_TRUE(env->CreateDir(dir).ok());
  auto stale = env->ListDir(dir);
  ASSERT_TRUE(stale.ok());
  for (const std::string& file : stale.value()) {
    ASSERT_TRUE(env->DeleteFile(dir + "/" + file).ok());
  }

  // Rotate the kill point across repeated invocations (gtest_repeat
  // keeps static state), so the SIGKILL sweeps the rotation protocol.
  static int invocation = 0;
  const int kill_on_signal = invocation++ % 4 + 1;

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipe_fds[0]);
    WriterChild(dir, pipe_fds[1]);  // never returns
  }
  ::close(pipe_fds[1]);

  int signals_seen = 0;
  char byte;
  while (signals_seen < kill_on_signal &&
         ::read(pipe_fds[0], &byte, 1) == 1) {
    ++signals_seen;
  }
  ::close(pipe_fds[0]);
  // Kill as the child enters (or is inside) its compaction.  If the
  // child already finished the whole stream, the kill is a no-op and
  // recovery must produce the complete dataset — also a valid case.
  ::kill(child, SIGKILL);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  if (WIFEXITED(wait_status)) {
    ASSERT_EQ(WEXITSTATUS(wait_status), 0)
        << "writer child failed before the kill";
  } else {
    ASSERT_TRUE(WIFSIGNALED(wait_status));
    ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);
  }

  // Reboot: recover the store from disk alone.
  auto live = LiveDatabase<Vector>::Open({}, L2(), 2, StoreSpec(dir), kSeed);
  ASSERT_TRUE(live.ok()) << live.status();
  const std::vector<Vector> recovered = live.value()->Pin().Materialize();

  // fsync=always and no removes: the recovered view must hold exactly
  // the base data plus a prefix of the insert stream.  Routed
  // compaction groups points by owning shard, so the materialized
  // order is not insert order — compare as multisets.
  const std::vector<Vector> base = BaseData();
  const std::vector<Vector> stream = StreamData();
  ASSERT_GE(recovered.size(), base.size());
  ASSERT_LE(recovered.size(), base.size() + stream.size());
  const size_t acked = recovered.size() - base.size();
  ASSERT_GE(acked, kill_on_signal * kInsertsPerCompact)
      << "inserts acked before the signalled compaction must survive";
  std::vector<Vector> want_points = base;
  want_points.insert(want_points.end(), stream.begin(),
                     stream.begin() + acked);
  std::vector<Vector> got_points = recovered;
  std::sort(got_points.begin(), got_points.end());
  std::sort(want_points.begin(), want_points.end());
  ASSERT_EQ(got_points, want_points)
      << "recovered store is not base + a " << acked
      << "-insert prefix of the stream";

  // And the recovered store answers exactly like a fresh build over
  // the recovered dataset.  Id spaces differ (the recovered store may
  // carry replayed WAL inserts as delta entries), so compare
  // (distance, point) fingerprints.
  auto fresh = LiveDatabase<Vector>::Open(recovered, L2(), 2, "vp-tree",
                                          kSeed);
  ASSERT_TRUE(fresh.ok());
  std::vector<QuerySpec<Vector>> batch;
  util::Rng qrng(183);
  for (int q = 0; q < 4; ++q) {
    batch.push_back(QuerySpec<Vector>::Knn(
        {qrng.NextDouble(), qrng.NextDouble(), qrng.NextDouble()}, 9));
  }
  auto snapshot = live.value()->Pin();
  QueryEngine<Vector> engine(1);
  auto got = live.value()->RunBatch(engine, snapshot, batch);
  auto want = fresh.value()->RunBatch(engine, fresh.value()->Pin(), batch);
  ASSERT_TRUE(got.all_ok());
  ASSERT_TRUE(want.all_ok());
  for (size_t q = 0; q < batch.size(); ++q) {
    std::vector<std::pair<double, Vector>> got_pairs, want_pairs;
    for (const auto& r : got.results[q]) {
      auto point = snapshot.ResolvePoint(r.id);
      ASSERT_TRUE(point.ok()) << "query " << q << " id " << r.id;
      got_pairs.emplace_back(r.distance, point.value());
    }
    for (const auto& r : want.results[q]) {
      want_pairs.emplace_back(r.distance, recovered.at(r.id));
    }
    std::sort(got_pairs.begin(), got_pairs.end());
    std::sort(want_pairs.begin(), want_pairs.end());
    EXPECT_EQ(got_pairs, want_pairs) << "query " << q;
  }
}

// ---------------------------------------------------- removes + sweep
//
// The same fork+SIGKILL harness over a write stream that also removes
// — base points in the first window (dirtying their owning shards for
// the incremental rotation) and freshly inserted points in every
// window.  fsync=always makes the acked op sequence a strict prefix of
// the deterministic op stream, so the parent can simulate every prefix
// and require the recovered live set to equal one of them: that single
// multiset equality rules out both lost acked writes AND resurrected
// removed points, at every kill point of the incremental rotation.

/// One scripted writer operation.  Removal targets are expressed so
/// the child needs no id bookkeeping across compactions: a base id is
/// only removed in the first window (generation-1 ids are stable until
/// the first fold), and an inserted point is only removed within the
/// window that inserted it (pending ids are stable between folds).
struct ScriptOp {
  enum Kind { kInsert, kRemoveBase, kRemoveLastInsert } kind;
  size_t index = 0;  ///< stream index (kInsert) or base id (kRemoveBase)
};

std::vector<ScriptOp> RemoveScript() {
  std::vector<ScriptOp> ops;
  const std::vector<Vector> stream = StreamData();
  for (size_t i = 0; i < stream.size(); ++i) {
    ops.push_back({ScriptOp::kInsert, i});
    const size_t in_window = i % kInsertsPerCompact;
    // Never directly after a window-final insert: the compaction that
    // follows it would remap the id the child still holds.
    if (in_window % 5 == 3) {
      ops.push_back({ScriptOp::kRemoveLastInsert, i});
    }
    if (i < kInsertsPerCompact && in_window % 8 == 6) {
      ops.push_back({ScriptOp::kRemoveBase, (in_window / 8) * 5 + 2});
    }
  }
  return ops;
}

/// The live multiset after the first `prefix` script ops.
std::vector<Vector> SimulateScript(size_t prefix) {
  const std::vector<Vector> base = BaseData();
  const std::vector<Vector> stream = StreamData();
  const std::vector<ScriptOp> ops = RemoveScript();
  std::vector<bool> base_alive(base.size(), true);
  std::vector<bool> stream_alive(stream.size(), false);
  for (size_t i = 0; i < prefix && i < ops.size(); ++i) {
    switch (ops[i].kind) {
      case ScriptOp::kInsert:
        stream_alive[ops[i].index] = true;
        break;
      case ScriptOp::kRemoveBase:
        base_alive[ops[i].index] = false;
        break;
      case ScriptOp::kRemoveLastInsert:
        stream_alive[ops[i].index] = false;
        break;
    }
  }
  std::vector<Vector> live;
  for (size_t i = 0; i < base.size(); ++i) {
    if (base_alive[i]) live.push_back(base[i]);
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    if (stream_alive[i]) live.push_back(stream[i]);
  }
  std::sort(live.begin(), live.end());
  return live;
}

[[noreturn]] void RemovingWriterChild(const std::string& dir,
                                      int signal_fd) {
  auto live = LiveDatabase<Vector>::Open(BaseData(), L2(), 2,
                                         StoreSpec(dir), kSeed);
  if (!live.ok()) _exit(2);
  const std::vector<Vector> stream = StreamData();
  const std::vector<ScriptOp> ops = RemoveScript();
  size_t last_insert_id = 0;
  size_t inserts_done = 0;
  for (const ScriptOp& op : ops) {
    switch (op.kind) {
      case ScriptOp::kInsert: {
        auto id = live.value()->Insert(stream[op.index]);
        if (!id.ok()) _exit(3);
        last_insert_id = id.value();
        ++inserts_done;
        break;
      }
      case ScriptOp::kRemoveBase:
        if (!live.value()->Remove(op.index).ok()) _exit(6);
        break;
      case ScriptOp::kRemoveLastInsert:
        if (!live.value()->Remove(last_insert_id).ok()) _exit(7);
        break;
    }
    if (op.kind == ScriptOp::kInsert &&
        inserts_done % kInsertsPerCompact == 0) {
      const char byte = 'c';
      if (::write(signal_fd, &byte, 1) != 1) _exit(4);
      if (!live.value()->Compact().ok()) _exit(5);
    }
  }
  _exit(0);
}

TEST(CrashRecovery, KillSweepWithRemovesLosesNothingResurrectsNothing) {
  if (kForkUnsafe) {
    GTEST_SKIP() << "fork-based crash test is not run under TSan";
  }
  storage::Env* env = storage::Env::Default();
  const std::string dir = ::testing::TempDir() + "/crash_recovery_removes";
  ASSERT_TRUE(env->CreateDir(dir).ok());
  auto stale = env->ListDir(dir);
  ASSERT_TRUE(stale.ok());
  for (const std::string& file : stale.value()) {
    ASSERT_TRUE(env->DeleteFile(dir + "/" + file).ok());
  }

  static int invocation = 0;
  const int kill_on_signal = invocation++ % 4 + 1;

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipe_fds[0]);
    RemovingWriterChild(dir, pipe_fds[1]);  // never returns
  }
  ::close(pipe_fds[1]);

  int signals_seen = 0;
  char byte;
  while (signals_seen < kill_on_signal &&
         ::read(pipe_fds[0], &byte, 1) == 1) {
    ++signals_seen;
  }
  ::close(pipe_fds[0]);
  ::kill(child, SIGKILL);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  if (WIFEXITED(wait_status)) {
    ASSERT_EQ(WEXITSTATUS(wait_status), 0)
        << "writer child failed before the kill";
  } else {
    ASSERT_TRUE(WIFSIGNALED(wait_status));
    ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);
  }

  auto live = LiveDatabase<Vector>::Open({}, L2(), 2, StoreSpec(dir), kSeed);
  ASSERT_TRUE(live.ok()) << live.status();
  std::vector<Vector> recovered = live.value()->Pin().Materialize();
  std::sort(recovered.begin(), recovered.end());

  // The acked ops are a prefix of the script (fsync=always, one
  // synchronous writer).  Find the prefix the recovered store equals;
  // anything else means a lost acked write or a resurrected remove.
  const std::vector<ScriptOp> ops = RemoveScript();
  // Everything through the (kill_on_signal * kInsertsPerCompact)-th
  // insert was acked before the child signalled (the signal fires
  // right after that insert), so at least that prefix must survive.
  size_t min_prefix = 0;
  size_t inserts_seen = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == ScriptOp::kInsert) {
      ++inserts_seen;
      if (inserts_seen ==
          static_cast<size_t>(kill_on_signal) * kInsertsPerCompact) {
        min_prefix = i + 1;
        break;
      }
    }
  }
  bool matched = false;
  for (size_t prefix = min_prefix; prefix <= ops.size(); ++prefix) {
    if (SimulateScript(prefix) == recovered) {
      matched = true;
      break;
    }
  }
  EXPECT_TRUE(matched)
      << "recovered live set (size " << recovered.size()
      << ") matches no acked prefix of the op script with at least "
      << min_prefix << " ops";

  // The recovered store must still be writable and compactable.
  ASSERT_TRUE(live.value()->Insert({9.0, 9.0, 9.0}).ok());
  ASSERT_TRUE(live.value()->Compact().ok());
}

}  // namespace
}  // namespace engine
}  // namespace distperm
