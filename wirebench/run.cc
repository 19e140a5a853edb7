// `wirebench run`: one benchmark run of one workload.
//
// The orchestrator spawns the serving process (`wirebench serve`) as a
// child, times its set-up until the first answered ping, drives the
// load over loopback TCP from this process, scrapes the server's
// /metrics around the measured window, checks every answer it can, and
// prints one JSON result line.  Generator threads and connections never
// exceed four, nor nproc.
//
// Load shape of a serving workload: the window (--seconds) alternates
// kRounds closed-loop capacity slices (30% of the time in all; four
// connections, pipelined for read-only mixes) with open-loop windows at
// the workload's fixed rate (70%).  Open-loop latency is timed from each
// request's scheduled send time, and the generator records how late it
// sent.  Capacity and latency are medians over slices and windows.
//
// replica_catchup instead starts fresh replicas, one after another,
// against a primary that holds a snapshot plus an unfolded WAL delta,
// and times how long each takes to converge.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "metric/kernels.h"
#include "metric/lp.h"
#include "net/client.h"
#include "net/protocol.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workloads.h"

namespace wirebench {

namespace {

namespace net = distperm::net;
using distperm::index::SearchResult;

/// Share of --seconds spent in the closed-loop capacity phase.
constexpr double kCapacityShare = 0.3;
/// A run whose generator sent its p99 request later than this is
/// invalid: its latencies would describe the generator, not the server.
/// A bare sleep loop on the 4-vCPU VM the baseline was recorded on
/// already wakes 4-12 ms late at p99 (the hypervisor deschedules
/// vCPUs), so the bound sits well above that floor.
constexpr double kLateBoundMs = 50.0;
/// Closed-loop requests in flight per connection.
constexpr size_t kPipelineDepth = 8;
/// The measured window alternates capacity slices and open-loop windows
/// this many times.
constexpr size_t kRounds = 6;
/// replica_catchup: fresh replicas started per run (as many as fit in
/// --seconds, within these limits).
constexpr size_t kMinCatchups = 3;
constexpr size_t kMaxCatchups = 7;
/// Probe queries each converged replica and its primary answer.
constexpr size_t kReplicaProbes = 200;
/// Cap on concurrently open generator threads (and connections).
constexpr size_t kMaxGeneratorThreads = 4;

size_t GeneratorThreads() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hardware, 2, kMaxGeneratorThreads);
}

const distperm::metric::Metric<Vector>& L2() {
  static const distperm::metric::Metric<Vector> l2(
      distperm::metric::LpMetric::L2());
  return l2;
}

// ------------------------------------------------------------ child process

/// One `wirebench serve` child: its stdout is read line by line on a
/// reader thread; Stop() sends SIGTERM and reaps it with its rusage.
class Child {
 public:
  Child(const std::string& exe, const std::vector<std::string>& args) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) return;
    // argv is built before fork: the child of a threaded parent may only
    // make async-signal-safe calls until exec.
    std::vector<std::string> argv_store = {exe, "serve"};
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& arg : argv_store) argv.push_back(arg.data());
    argv.push_back(nullptr);
    spawn_ns_ = NowNs();
    pid_ = fork();
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      execv(exe.c_str(), argv.data());
      _exit(127);
    }
    close(fds[1]);
    fd_ = fds[0];
    reader_ = std::thread([this]() { ReadLines(); });
  }
  ~Child() {
    Stop();
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) close(fd_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool started() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  int64_t spawn_ns() const { return spawn_ns_; }

  /// The first line starting with `prefix` (waits up to `timeout_s`).
  std::optional<std::string> WaitLine(const std::string& prefix,
                                      double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(
                              static_cast<int64_t>(timeout_s * 1e3));
    for (;;) {
      for (const std::string& line : lines_) {
        if (line.rfind(prefix, 0) == 0) return line;
      }
      if (eof_) return std::nullopt;
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        return std::nullopt;
      }
    }
  }

  /// RESULT lines printed so far, by name.
  std::map<std::string, double> Results() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> results;
    for (const std::string& line : lines_) {
      std::istringstream is(line);
      std::string tag, name;
      double value = 0.0;
      if (is >> tag >> name >> value && tag == "RESULT") results[name] = value;
    }
    return results;
  }

  /// SIGTERM, then reap (SIGKILL after 60 s).  Returns the exit status;
  /// `max_rss_kb` receives the child's peak resident set.
  int Stop(long* max_rss_kb = nullptr) {
    if (pid_ <= 0) return exit_status_;
    kill(pid_, SIGTERM);
    const int64_t deadline = NowNs() + 60'000'000'000LL;
    int status = 0;
    struct rusage usage;
    for (;;) {
      const pid_t done = wait4(pid_, &status, WNOHANG, &usage);
      if (done == pid_) break;
      if (NowNs() > deadline) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &usage);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = 0;
    max_rss_kb_ = usage.ru_maxrss;
    exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    if (reader_.joinable()) reader_.join();
    if (max_rss_kb != nullptr) *max_rss_kb = max_rss_kb_;
    return exit_status_;
  }

  /// Waits for a child that exits on its own (the prepare role).
  int Wait() {
    if (pid_ <= 0) return exit_status_;
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = 0;
    exit_status_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    if (reader_.joinable()) reader_.join();
    return exit_status_;
  }

 private:
  void ReadLines() {
    std::string buffer;
    char chunk[4096];
    for (;;) {
      const ssize_t n = read(fd_, chunk, sizeof(chunk));
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
      size_t newline;
      while ((newline = buffer.find('\n')) != std::string::npos) {
        std::lock_guard<std::mutex> lock(mutex_);
        lines_.push_back(buffer.substr(0, newline));
        buffer.erase(0, newline + 1);
        cv_.notify_all();
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    eof_ = true;
    cv_.notify_all();
  }

  pid_t pid_ = -1;
  int fd_ = -1;
  int64_t spawn_ns_ = 0;
  long max_rss_kb_ = 0;
  int exit_status_ = -1;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
  bool eof_ = false;
  std::thread reader_;
};

/// CPU time all of a process's threads have run (the first field of
/// each /proc/<pid>/task/<tid>/schedstat), in nanoseconds.  Unlike wall
/// time it does not grow while the hypervisor holds a vCPU, so cost per
/// operation reads the same on a busy host and a quiet one.
uint64_t ProcessCpuNs(pid_t pid) {
  uint64_t total = 0;
  std::error_code error;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry :
       std::filesystem::directory_iterator(tasks, error)) {
    std::ifstream stat(entry.path() / "schedstat");
    uint64_t ns = 0;
    if (stat >> ns) total += ns;
  }
  return total;
}

std::vector<std::string> Words(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> words;
  std::string word;
  while (is >> word) words.push_back(word);
  return words;
}

// ---------------------------------------------------------------- the wire

/// The open loop's raw loopback connection: a sender writes to it while
/// a receiver polls its socket and drains whatever frames have arrived,
/// which the blocking net::Client does not offer.
class Conn {
 public:
  explicit Conn(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
      close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  int fd() const { return fd_; }

  /// Takes one complete buffered frame, if there is one.  `*frame_bytes`
  /// is the frame's size on the wire; `*broken` is set on a malformed
  /// stream.
  bool Next(net::MessageType* type, std::string* payload, size_t* frame_bytes,
            bool* broken) {
    net::FrameView view;
    size_t size = 0;
    distperm::util::Status error;
    const net::FrameParse parse = net::ParseFrame(
        reinterpret_cast<const uint8_t*>(buffer_.data()) + pos_,
        buffer_.size() - pos_, &view, &size, &error);
    if (parse == net::FrameParse::kError) *broken = true;
    if (parse != net::FrameParse::kComplete) return false;
    *type = view.type;
    payload->assign(reinterpret_cast<const char*>(view.payload),
                    view.payload_size);
    *frame_bytes = size;
    pos_ += size;
    if (pos_ == buffer_.size()) {
      buffer_.clear();
      pos_ = 0;
    }
    return true;
  }

  /// One non-blocking recv into the buffer; false once the peer closed
  /// or the socket failed.
  bool Fill() {
    char chunk[65536];
    const ssize_t n = recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      buffer_.append(chunk, static_cast<size_t>(n));
      return true;
    }
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;
};

std::unique_ptr<net::Client> Connect(uint16_t port) {
  auto client = net::Client::Connect("127.0.0.1", port);
  return client.ok() ? std::move(client).value() : nullptr;
}

bool Ping(uint16_t port) {
  const auto client = Connect(port);
  return client != nullptr && client->Ping().ok();
}

/// GET /metrics from the server's plaintext port (the server answers
/// and closes, so the body runs to EOF).
Scrape ScrapeMetrics(uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int sock = socket(AF_INET, SOCK_STREAM, 0);
  if (connect(sock, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    close(sock);
    return {};
  }
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  send(sock, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char chunk[65536];
  for (;;) {
    const ssize_t n = recv(sock, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  close(sock);
  const size_t body = response.find("\r\n\r\n");
  return ParseExposition(body == std::string::npos ? ""
                                                   : response.substr(body + 4));
}

// ---------------------------------------------------------------- requests

/// One operation as sent and answered.
struct Record {
  Op op;
  uint64_t remove_id = 0;
  int64_t sched_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  bool answered = false;
  bool ok = false;
  bool cache_hit = false;
  uint64_t distances = 0;
  size_t resp_bytes = 0;
  std::vector<SearchResult> results;
  // Traced runs: the codec spans around this request.
  int64_t encode_start = 0, encode_end = 0, decode_start = 0, decode_end = 0;
};

struct RunContext {
  const Workload* workload = nullptr;
  const Inputs* inputs = nullptr;
  /// Next id the writer removes.  Ids below it are the only dead ones in
  /// any numbering the store can be in (compaction only renumbers
  /// downward), so each remove names a live point.
  std::mutex remove_mutex;
  uint64_t next_remove = 0;
  distperm::util::Rng insert_rng{1};
  size_t inserts = 0;
};

std::string EncodeOp(RunContext* ctx, Record* record) {
  std::string payload;
  switch (record->op.kind) {
    case Op::kQuery: {
      distperm::index::SearchRequest<Vector> request;
      request.mode = distperm::index::SearchMode::kKnn;
      request.k = kNeighbours;
      request.point = record->op.hot ? ctx->inputs->hot(record->op.index)
                                     : ctx->inputs->unique(record->op.index);
      net::EncodeSearchRequest(&payload, request, false);
      return net::EncodeFrame(net::MessageType::kSearch, payload);
    }
    case Op::kInsert: {
      net::EncodeInsertRequest(
          &payload,
          InsertPoint(*ctx->inputs, ctx->inserts++, &ctx->insert_rng));
      return net::EncodeFrame(net::MessageType::kInsert, payload);
    }
    case Op::kRemove:
      net::EncodeRemoveRequest(&payload, record->remove_id);
      return net::EncodeFrame(net::MessageType::kRemove, payload);
  }
  return "";
}

void DecodeAnswer(net::MessageType type, const std::string& payload,
                  Record* record) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(payload.data());
  record->answered = true;
  switch (type) {
    case net::MessageType::kSearchResult: {
      auto response = net::DecodeSearchResponse(bytes, payload.size());
      if (!response.ok()) return;
      record->ok = response.value().status.ok() && !response.value().truncated;
      record->cache_hit = response.value().cache_hit;
      record->distances = response.value().stats.distance_computations;
      record->results = std::move(response.value().results);
      return;
    }
    case net::MessageType::kInsertResult: {
      auto response = net::DecodeInsertResponse(bytes, payload.size());
      record->ok = response.ok() && response.value().status.ok();
      return;
    }
    case net::MessageType::kRemoveResult: {
      auto response = net::DecodeWireStatus(bytes, payload.size());
      record->ok = response.ok() && response.value().ok();
      return;
    }
    default:
      record->ok = false;
  }
}

/// Reads and decodes the next answer on a blocking client; false once
/// the connection failed.
bool ReadAnswer(net::Client* client, Record* record) {
  auto frame = client->ReadFrame();
  if (!frame.ok()) return false;
  const auto& [type, payload] = frame.value();
  record->recv_ns = NowNs();
  record->resp_bytes = net::kFrameHeaderSize + payload.size();
  DecodeAnswer(type, payload, record);
  return true;
}

/// Closed loop: `threads` connections, each keeping kPipelineDepth
/// requests in flight (sent back to back, then all answers read; one for
/// mixes with writes), drawing `ops` operations from one shared op
/// stream (fewer if `deadline_ns` passes first).  A fixed count keeps
/// the store's state at the end of a slice the same from run to run.
std::vector<Record> ClosedLoop(RunContext* ctx, uint16_t port, size_t threads,
                               size_t ops, int64_t deadline_ns,
                               OpStream* stream, double* elapsed_s) {
  std::mutex stream_mutex;
  size_t drawn = 0;  // guarded by stream_mutex
  std::vector<std::vector<Record>> per_thread(threads);
  std::vector<std::thread> workers;
  const int64_t start = NowNs();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t]() {
      const auto client = Connect(port);
      if (client == nullptr) return;
      while (NowNs() < deadline_ns) {
        // Read-only mixes pipeline; a mix with writes keeps one request
        // in flight, so a remove holds the ordering lock for one round
        // trip only.
        std::vector<Record> batch(
            ctx->workload->insert_share > 0 ? 1 : kPipelineDepth);
        bool removes = false;
        {
          std::lock_guard<std::mutex> lock(stream_mutex);
          if (drawn >= ops) break;
          batch.resize(std::min(batch.size(), ops - drawn));
          drawn += batch.size();
          for (Record& record : batch) {
            record.op = stream->Next();
            removes = removes || record.op.kind == Op::kRemove;
          }
        }
        // A batch with removes holds the remove lock until answered, so
        // removes reach the store in id order.
        std::unique_lock<std::mutex> remove_lock(ctx->remove_mutex,
                                                 std::defer_lock);
        if (removes) remove_lock.lock();
        std::string frames;
        {
          std::lock_guard<std::mutex> lock(stream_mutex);
          for (Record& record : batch) {
            if (record.op.kind == Op::kRemove) {
              record.remove_id = ctx->next_remove++;
            }
            frames += EncodeOp(ctx, &record);
          }
        }
        const int64_t sent = NowNs();
        if (!client->SendRaw(frames).ok()) return;
        for (Record& record : batch) {
          record.sched_ns = record.send_ns = sent;
          if (!ReadAnswer(client.get(), &record)) break;
        }
        for (Record& record : batch) per_thread[t].push_back(std::move(record));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  *elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  std::vector<Record> all;
  for (auto& records : per_thread) {
    for (Record& record : records) all.push_back(std::move(record));
  }
  return all;
}

/// Open loop: a sender thread sends every record at its scheduled time
/// on its lane's connection, whatever is still outstanding; a receiver
/// thread waits in poll on all connections and matches answers to
/// requests in order per connection, timestamping each on arrival.  With
/// `spans`, it also times each request's encode and decode (the traced
/// windows); otherwise it reads no clock beyond send and arrival.
void OpenLoop(RunContext* ctx, uint16_t port, bool spans,
              std::vector<std::vector<Record>>* lanes) {
  const size_t count = lanes->size();
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<pollfd> fds(count);
  for (size_t c = 0; c < count; ++c) {
    conns.push_back(std::make_unique<Conn>(port));
    if (!conns[c]->ok()) return;
    fds[c].fd = conns[c]->fd();
    fds[c].events = POLLIN;
  }
  // Per lane: records handed to the socket.  The release store after a
  // record's send fields are written is what lets the receiver read them.
  std::vector<std::atomic<size_t>> sent(count);
  for (auto& n : sent) n.store(0);
  std::atomic<bool> sender_failed{false};
  std::thread receiver([&]() {
    std::vector<size_t> received(count, 0);
    for (;;) {
      bool pending = false;
      for (size_t c = 0; c < count; ++c) {
        pending = pending || received[c] < (*lanes)[c].size();
      }
      if (!pending || sender_failed.load()) return;
      if (poll(fds.data(), count, 1000) < 0) return;
      for (size_t c = 0; c < count; ++c) {
        if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        const int64_t arrived = NowNs();
        if (!conns[c]->Fill()) return;
        net::MessageType type;
        std::string payload;
        size_t bytes = 0;
        bool broken = false;
        while (conns[c]->Next(&type, &payload, &bytes, &broken)) {
          const size_t j = received[c]++;
          while (sent[c].load(std::memory_order_acquire) <= j) {
            std::this_thread::yield();
          }
          Record& record = (*lanes)[c][j];
          record.recv_ns = arrived;
          record.resp_bytes = bytes;
          if (spans) record.decode_start = NowNs();
          DecodeAnswer(type, payload, &record);
          if (spans) record.decode_end = NowNs();
        }
        if (broken) return;
      }
    }
  });
  // Global send order: merge the lanes by scheduled time.
  std::vector<size_t> next(count, 0);
  for (;;) {
    size_t lane = count;
    for (size_t c = 0; c < count; ++c) {
      if (next[c] < (*lanes)[c].size() &&
          (lane == count || (*lanes)[c][next[c]].sched_ns <
                                (*lanes)[lane][next[lane]].sched_ns)) {
        lane = c;
      }
    }
    if (lane == count) break;
    Record& record = (*lanes)[lane][next[lane]];
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(record.sched_ns)));
    record.send_ns = NowNs();
    if (record.op.kind == Op::kRemove) record.remove_id = ctx->next_remove++;
    const std::string frame = EncodeOp(ctx, &record);
    if (spans) {
      record.encode_start = record.send_ns;
      record.encode_end = NowNs();
    }
    sent[lane].store(++next[lane], std::memory_order_release);
    if (!conns[lane]->Send(frame)) {
      sender_failed.store(true);
      break;
    }
  }
  receiver.join();
}

// ---------------------------------------------------------------- checking

/// Brute-force k nearest neighbours by (distance, id).
std::vector<SearchResult> BruteForce(const std::vector<Vector>& data,
                                     const Vector& query) {
  // sqrt(L2sqRaw) is exactly what the L2 metric computes; calling the
  // kernel directly skips the type-erased call per distance.
  std::vector<SearchResult> all(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    all[i].id = i;
    all[i].distance = std::sqrt(
        distperm::metric::L2sqRaw(query.data(), data[i].data(), query.size()));
  }
  const auto less = [](const SearchResult& a, const SearchResult& b) {
    return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
  };
  std::partial_sort(all.begin(), all.begin() + kNeighbours, all.end(), less);
  all.resize(kNeighbours);
  return all;
}

/// References for a set of query points, computed on `threads` threads.
std::vector<std::vector<SearchResult>> References(
    const std::vector<Vector>& data, const std::vector<const Vector*>& queries,
    size_t threads) {
  std::vector<std::vector<SearchResult>> out(queries.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&]() {
      for (size_t i; (i = next.fetch_add(1)) < queries.size();) {
        out[i] = BruteForce(data, *queries[i]);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return out;
}

struct CheckOutcome {
  uint64_t wrong = 0;
  uint64_t checked = 0;
  double recall = 1.0;
};

const Vector& QueryPoint(const Inputs& inputs, const Op& op) {
  return op.hot ? inputs.hot(op.index) : inputs.unique(op.index);
}

/// exact_read: every answered query equals brute force exactly.
/// distperm_read: every returned distance is the true distance of its
/// id, and recall@10 against brute force over a sample.
/// mixed_write: answers are well formed (the store itself is checked
/// against a fresh build at the end of the run).
CheckOutcome CheckAnswers(const Workload& workload, const Inputs& inputs,
                          const std::vector<const Record*>& queries,
                          size_t threads) {
  CheckOutcome outcome;
  const bool exact = workload.spec.rfind("distperm", 0) != 0;
  const bool static_store = workload.insert_share == 0;
  for (const Record* record : queries) {
    const auto& results = record->results;
    bool ok = results.size() == kNeighbours;
    for (size_t i = 1; ok && i < results.size(); ++i) {
      ok = results[i - 1].distance < results[i].distance ||
           (results[i - 1].distance == results[i].distance &&
            results[i - 1].id < results[i].id);
    }
    if (static_store) {
      for (const SearchResult& r : results) {
        ok = ok && r.id < inputs.data.size() &&
             L2()(QueryPoint(inputs, record->op), inputs.data[r.id]) ==
                 r.distance;
      }
    }
    ++outcome.checked;
    if (!ok) ++outcome.wrong;
  }
  if (!static_store) return outcome;
  // Exact answers are compared in full; approximate ones on a sample
  // for recall (a brute-force reference per answer would dominate the
  // run).
  std::vector<const Record*> sample;
  std::map<std::pair<bool, uint32_t>, size_t> distinct;
  const size_t limit = exact ? queries.size() : 400;
  for (const Record* record : queries) {
    if (sample.size() >= limit) break;
    const auto key = std::make_pair(record->op.hot, record->op.index);
    if (distinct.count(key) != 0) continue;
    distinct[key] = sample.size();
    sample.push_back(record);
  }
  std::vector<const Vector*> points;
  for (const Record* record : sample) {
    points.push_back(&QueryPoint(inputs, record->op));
  }
  const auto references = References(inputs.data, points, threads);
  size_t overlap = 0;
  size_t counted = 0;
  for (const Record* record : queries) {
    auto it = distinct.find(std::make_pair(record->op.hot, record->op.index));
    if (it == distinct.end()) continue;
    const auto& reference = references[it->second];
    if (exact && record->results != reference) ++outcome.wrong;
    std::set<size_t> ids;
    for (const SearchResult& r : reference) ids.insert(r.id);
    for (const SearchResult& r : record->results) overlap += ids.count(r.id);
    counted += kNeighbours;
  }
  outcome.recall =
      counted == 0 ? 0.0 : static_cast<double>(overlap) / counted;
  return outcome;
}

// ------------------------------------------------------------------ report

struct Report {
  std::vector<std::pair<std::string, MetricValue>> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// A traced run takes spans in every other open-loop window; the windows
/// between stay untraced, for trace.overhead_frac.
bool TracedWindow(bool trace, size_t round) { return trace && round % 2 == 1; }

/// RESULT lines that are per-layer figures (not checks or inputs to one).
bool LayerResult(const std::string& name) {
  return name.rfind("check.", 0) != 0 && name.rfind("serve.", 0) != 0 &&
         name != "storage.snapshot_bytes";
}

std::vector<std::string> ServeArgs(const Workload& workload, uint64_t seed,
                                   const std::string& dir,
                                   const std::string& spans,
                                   const std::string& role) {
  return {"--workload=" + workload.name, "--seed=" + std::to_string(seed),
          "--dir=" + dir, "--trace=" + std::string(spans.empty() ? "0" : "1"),
          "--spans=" + spans, "--role=" + role};
}

struct Started {
  std::unique_ptr<Child> child;
  uint16_t port = 0;
  uint16_t metrics_port = 0;
  double setup_s = 0.0;
  double open_s = 0.0;
  uint64_t delta_entries = 0;
};

/// Spawns a serving process and times it until its first answered
/// ping, minus the time it spent generating the benchmark's inputs.
std::optional<Started> StartServer(const std::string& exe,
                                   const std::vector<std::string>& args) {
  Started started;
  started.child = std::make_unique<Child>(exe, args);
  if (!started.child->started()) return std::nullopt;
  const auto ready = started.child->WaitLine("READY", 170.0);
  if (!ready) return std::nullopt;
  const auto words = Words(*ready);
  if (words.size() < 3) return std::nullopt;
  started.port = static_cast<uint16_t>(std::stoi(words[1]));
  started.metrics_port = static_cast<uint16_t>(std::stoi(words[2]));
  while (!Ping(started.port)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const int64_t answered = NowNs();
  const double gen_s = words.size() > 3 ? std::stod(words[3]) : 0.0;
  started.open_s = words.size() > 4 ? std::stod(words[4]) : 0.0;
  started.delta_entries = words.size() > 5 ? std::stoull(words[5]) : 0;
  started.setup_s =
      static_cast<double>(answered - started.child->spawn_ns()) / 1e9 - gen_s;
  return started;
}

int Fail(const std::string& message) {
  std::cerr << "wirebench: " << message << "\n";
  return 1;
}

}  // namespace

int RunMain(const distperm::util::Flags& flags, const std::string& exe) {
  std::signal(SIGPIPE, SIG_IGN);
  const Workload* workload = FindWorkload(flags.GetString("workload", ""));
  if (workload == nullptr) return Fail("unknown --workload");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string root = flags.GetString("dir", ".wirebench_runs/run");
  // Traced runs keep their spans in memory and write them here at exit.
  const std::string spans_prefix =
      flags.GetString("spans-dir", ".bench_build/spans") + "/" +
      flags.GetString("workload", "") + "-" + std::to_string(seed);
  const std::string serve_spans = trace ? spans_prefix + "-serve.tsv" : "";
  if (trace) {
    std::filesystem::create_directories(
        std::filesystem::path(spans_prefix).parent_path());
  }
  const size_t threads = GeneratorThreads();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  std::cout << "# stamp {\"workload\": \"" << workload->name
            << "\", \"seed\": " << seed << ", \"nproc\": "
            << std::thread::hardware_concurrency()
            << ", \"generator_threads\": " << threads
            << ", \"build_type\": \"" << WIREBENCH_BUILD_TYPE
            << "\", \"kernel_march_native\": "
            << (WIREBENCH_KERNEL_NATIVE ? "true" : "false")
            << ", \"commit\": \"" << flags.GetString("commit", "unknown")
            << "\", \"trace\": " << (trace ? 1 : 0) << "}\n";

  const Inputs inputs = MakeInputs(*workload, seed);
  RunContext ctx;
  ctx.workload = workload;
  ctx.inputs = &inputs;
  ctx.insert_rng = distperm::util::Rng(seed + 2);

  // ---- prepare the durable store a reopen workload restores
  const bool reopen = workload->durable && workload->insert_share == 0;
  const std::string store = root + "/store";
  if (reopen) {
    Child prepare(exe, ServeArgs(*workload, seed, store, "", "prepare"));
    if (prepare.Wait() != 0) return Fail("prepare failed");
  }

  // ---- set-up, several times; the last server carries the load
  std::vector<double> setups;
  std::optional<Started> server;
  for (size_t i = 0; i < workload->setups; ++i) {
    const std::string dir = reopen ? store : root + "/store" + std::to_string(i);
    if (server) {
      server->child->Stop();
      if (!reopen && workload->durable) std::filesystem::remove_all(
          root + "/store" + std::to_string(i - 1));
    }
    server = StartServer(
        exe, ServeArgs(*workload, seed, dir, serve_spans, "primary"));
    if (!server) return Fail("server did not start");
    setups.push_back(server->setup_s);
  }
  const double setup_s = Median(setups);

  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::map<std::string, double> layer;
  std::vector<std::string> notes;

  if (workload->wal_records > 0) {
    // ------------------------------------------------ replica catch-up
    std::vector<double> t_half, t_most, t_p99, t_all, rates, rss;
    std::vector<double> cpu_per_record;
    std::vector<std::string> digests;
    std::vector<double> frames, snapshot_bytes;
    uint64_t probe_distances = 0, probe_answers = 0, overlap = 0;
    const int64_t window_end =
        NowNs() + static_cast<int64_t>(seconds * 1e9);
    size_t round = 0;
    Scrape before = ScrapeMetrics(server->metrics_port);
    while (round < kMinCatchups ||
           (NowNs() < window_end && round < kMaxCatchups)) {
      const std::string dir = root + "/replica" + std::to_string(round);
      auto args = ServeArgs(*workload, seed, dir, "", "replica");
      args.push_back("--primary-port=" + std::to_string(server->port));
      args.push_back("--expect=" + std::to_string(server->delta_entries));
      Child replica(exe, args);
      ++attempted;
      const auto converged = replica.WaitLine("CONVERGED", 150.0);
      const auto ready = replica.WaitLine("READY", 1.0);
      const auto words = converged ? Words(*converged)
                                   : std::vector<std::string>();
      if (!ready || words.size() < 6) {
        // A replica that does not converge, or reports no digest, is a
        // wrong answer: the run stops here and fails.
        ++failed;
        ++wrong;
        break;
      }
      const double replica_cpu_ns =
          static_cast<double>(ProcessCpuNs(replica.pid()));
      const int64_t spawn = replica.spawn_ns();
      t_half.push_back(Ms(std::stoll(words[1]) - spawn));
      t_most.push_back(Ms(std::stoll(words[2]) - spawn));
      t_p99.push_back(Ms(std::stoll(words[3]) - spawn));
      t_all.push_back(Ms(std::stoll(words[4]) - spawn));
      rates.push_back(static_cast<double>(server->delta_entries) /
                      (t_all.back() / 1e3));
      cpu_per_record.push_back(replica_cpu_ns / 1e3 /
                               static_cast<double>(server->delta_entries));
      digests.push_back(words[5]);
      const Scrape after = ScrapeMetrics(server->metrics_port);
      frames.push_back(
          CounterDelta(before, after, "replication_wal_frames_total"));
      snapshot_bytes.push_back(
          CounterDelta(before, after, "replication_snapshot_bytes_total"));
      before = after;
      // The converged replica must answer exactly as its primary: the
      // same probe batch, pipelined to both.
      const uint16_t replica_port =
          static_cast<uint16_t>(std::stoi(Words(*ready)[1]));
      std::vector<Record> on_replica(kReplicaProbes), on_primary(kReplicaProbes);
      std::string probe_frames;
      for (size_t i = 0; i < kReplicaProbes; ++i) {
        on_replica[i].op.index = on_primary[i].op.index =
            static_cast<uint32_t>(round * kReplicaProbes + i);
        probe_frames += EncodeOp(&ctx, &on_replica[i]);
      }
      for (auto [port, answers] :
           {std::make_pair(replica_port, &on_replica),
            std::make_pair(server->port, &on_primary)}) {
        const auto client = Connect(port);
        attempted += kReplicaProbes;
        if (client == nullptr || !client->SendRaw(probe_frames).ok()) continue;
        for (Record& record : *answers) {
          if (!ReadAnswer(client.get(), &record)) break;
        }
      }
      for (size_t i = 0; i < kReplicaProbes; ++i) {
        if (!on_replica[i].ok || !on_primary[i].ok) {
          ++failed;
          continue;
        }
        if (on_replica[i].results != on_primary[i].results) ++wrong;
        std::set<size_t> ids;
        for (const auto& r : on_primary[i].results) ids.insert(r.id);
        for (const auto& r : on_replica[i].results) overlap += ids.count(r.id);
        probe_distances += on_replica[i].distances;
        ++probe_answers;
      }
      long rss_kb = 0;
      replica.Stop(&rss_kb);
      rss.push_back(static_cast<double>(rss_kb) / 1024.0);
      std::filesystem::remove_all(dir);
      ++round;
    }
    server->child->Stop();
    const auto results = server->child->Results();
    if (results.count("serve.peak_rss_mb") == 0) {
      return Fail("the serving process did not finish its drain");
    }
    if (digests.size() < kMinCatchups) {
      return Fail("only " + std::to_string(digests.size()) + " of " +
                  std::to_string(round + 1) + " replicas converged");
    }
    // Digests are exact integers below 2^53 on both sides.
    const auto digest = results.find("check.digest");
    if (digest == results.end()) {
      ++wrong;  // nothing to compare the replicas against
    } else {
      for (const std::string& d : digests) {
        if (std::stod(d) != digest->second) ++wrong;
      }
    }
    report.Add("setup_s", setup_s, "s");
    report.Add("op_p50_ms", Median(t_half), "ms");
    // The replica's CPU (bootstrap, apply, serving) per delta record,
    // read as it reports convergence.
    layer["e2e.cpu_us_per_op"] = Median(cpu_per_record);
    layer["e2e.capacity_ops_s"] = Median(rates);
    report.Add("dist_per_query",
               probe_answers == 0 ? 0.0
                                  : static_cast<double>(probe_distances) /
                                        probe_answers,
               "count");
    report.Add("recall_at_10",
               probe_answers == 0 ? 0.0
                                  : static_cast<double>(overlap) /
                                        (probe_answers * kNeighbours),
               "ratio");
    // The primary's peak: snapshot restore, WAL replay, the retained
    // history and every subscriber's frames.  A replica's own peak
    // depends on how far its reads run ahead of its apply loop, which
    // varies run to run, so it is reported per layer.
    report.Add("rss_mb", results.at("serve.peak_rss_mb"), "MB");
    layer["server.replica_rss_mb"] = Median(rss);
    layer["e2e.catchup_s"] = Median(t_all) / 1e3;
    layer["e2e.op_p90_ms"] = Median(t_most);
    layer["e2e.op_p99_ms"] = Median(t_p99);
    layer["server.repl_frames"] = Median(frames);
    layer["server.repl_snapshot_bytes"] = Median(snapshot_bytes);
    for (const auto& [name, value] : results) {
      if (LayerResult(name)) layer[name] = value;
    }
    if (results.count("storage.replay_records_per_s") != 0) {
      layer["server.repl_catchup_vs_replay"] =
          Median(rates) / results.at("storage.replay_records_per_s");
    }
    std::string halves;
    for (double ms : t_half) halves += " " + std::to_string(ms);
    notes.push_back("catch-ups: " + std::to_string(round) + " of " +
                    std::to_string(server->delta_entries) +
                    " WAL records; half applied after (ms):" + halves);
  } else {
    // ------------------------------------------------ serving workloads
    // The window alternates kRounds closed-loop capacity slices (a fixed
    // number of operations each, planned to take 30% of the time in all)
    // with open-loop windows at the workload's fixed rate.  Capacity, the
    // server's CPU per operation at capacity, and latency are medians
    // over slices and windows, so a host stall that spans one of them
    // does not set any of them.
    const int64_t slice_ns =
        static_cast<int64_t>(seconds * kCapacityShare / kRounds * 1e9);
    const double window_s = seconds * (1.0 - kCapacityShare) / kRounds;
    const size_t per_window = static_cast<size_t>(workload->rate * window_s);
    constexpr size_t kLanes = 2;  // writes in order on the last lane
    size_t uniques = 0;
    std::vector<Record> capacity;
    std::vector<double> slice_rates, slice_cpu_us;
    std::vector<std::vector<std::vector<Record>>> windows(kRounds);
    Scrape window;  // per-layer counters summed over the open windows
    std::vector<double> depth_samples;
    int64_t open_ns = 0;
    for (size_t round = 0; round < kRounds; ++round) {
      OpStream capacity_stream(*workload, seed * 7919 + 2 * round + 1,
                               uniques);
      double elapsed = 0.0;
      const uint64_t cpu_before = ProcessCpuNs(server->child->pid());
      std::vector<Record> slice =
          ClosedLoop(&ctx, server->port, threads, workload->slice_ops,
                     NowNs() + 4 * slice_ns, &capacity_stream, &elapsed);
      const uint64_t cpu_after = ProcessCpuNs(server->child->pid());
      uniques += capacity_stream.uniques_issued();
      slice_rates.push_back(static_cast<double>(slice.size()) / elapsed);
      slice_cpu_us.push_back(static_cast<double>(cpu_after - cpu_before) /
                             1e3 / static_cast<double>(slice.size()));
      for (Record& record : slice) capacity.push_back(std::move(record));

      OpStream open_stream(*workload, seed * 7919 + 2 * round + 2, uniques);
      auto& lanes = windows[round];
      lanes.resize(kLanes);
      for (size_t i = 0; i < per_window; ++i) {
        Record record;
        record.op = open_stream.Next();
        record.sched_ns = static_cast<int64_t>(static_cast<double>(i) *
                                               1e9 / workload->rate);
        const bool write = record.op.kind != Op::kQuery;
        const size_t lane = workload->insert_share > 0
                                ? (write ? kLanes - 1 : 0)
                                : i % kLanes;
        lanes[lane].push_back(std::move(record));
      }
      uniques += open_stream.uniques_issued();
      // A fold the capacity slice triggered must not spill into the
      // window: wait until the delta is below the auto-compaction
      // threshold again (no fold pending), at most two seconds.
      if (workload->compact_threshold > 0) {
        const int64_t give_up = NowNs() + 2'000'000'000;
        while (NowNs() < give_up &&
               ScrapeMetrics(server->metrics_port).Value("live_delta_depth") >=
                   static_cast<double>(workload->compact_threshold)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
      const int64_t start = NowNs() + 20'000'000;
      for (auto& lane : lanes) {
        for (Record& record : lane) record.sched_ns += start;
      }
      const Scrape before = ScrapeMetrics(server->metrics_port);
      std::atomic<bool> open_done{false};
      std::thread sampler([&]() {
        if (!trace) return;
        while (!open_done.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(250));
          depth_samples.push_back(
              ScrapeMetrics(server->metrics_port).Value("live_delta_depth"));
        }
      });
      OpenLoop(&ctx, server->port, TracedWindow(trace, round), &lanes);
      open_ns += NowNs() - start;
      open_done.store(true);
      sampler.join();
      AddWindow(&window, before, ScrapeMetrics(server->metrics_port));
    }
    const double capacity_ops = Median(slice_rates);
    server->child->Stop();
    const auto results = server->child->Results();
    if (results.count("serve.peak_rss_mb") == 0) {
      return Fail("the serving process did not finish its drain");
    }
    const Scrape before;  // `window` already holds the deltas
    const Scrape& after = window;

    // ---- latencies, from the scheduled send time
    std::vector<double> all_ms, query_ms, write_ms, late_ms;
    std::vector<double> window_p50, window_p90, traced_p50, untraced_p50;
    std::vector<const Record*> answered_queries;
    uint64_t engine_distances = 0, engine_answers = 0;
    size_t completed = 0;
    size_t open_count = 0;
    std::vector<Span> spans;
    for (size_t round = 0; round < kRounds; ++round) {
      const auto& lanes = windows[round];
      const bool traced = TracedWindow(trace, round);
      std::vector<const Record*> open_records;
      for (const auto& lane : lanes) {
        for (const Record& r : lane) open_records.push_back(&r);
      }
      std::sort(open_records.begin(), open_records.end(),
                [](const Record* a, const Record* b) {
                  return a->sched_ns < b->sched_ns;
                });
      std::vector<double> window_ms;
      for (size_t i = 0; i < open_records.size(); ++i) {
        const Record& r = *open_records[i];
        ++attempted;
        ++open_count;
        late_ms.push_back(Ms(r.send_ns - r.sched_ns));
        // A failed or unanswered request misses every latency limit.
        const double ms =
            r.answered && r.ok ? Ms(r.recv_ns - r.sched_ns) : 1e9;
        if (!r.answered || !r.ok) ++failed;
        if (r.answered) ++completed;
        all_ms.push_back(ms);
        window_ms.push_back(ms);
        (r.op.kind == Op::kQuery ? query_ms : write_ms).push_back(ms);
        if (r.op.kind == Op::kQuery && r.answered && r.ok) {
          answered_queries.push_back(&r);
          if (!r.cache_hit) {
            engine_distances += r.distances;
            ++engine_answers;
          }
        }
        if (traced && r.answered) {
          const uint64_t id = spans.size() + 1;
          const uint64_t request = open_count;
          spans.push_back({id, 0, request, "request", r.send_ns, r.recv_ns});
          spans.push_back({id + 1, id, request, "net.encode", r.encode_start,
                           r.encode_end});
          spans.push_back({id + 2, 0, request, "net.decode", r.decode_start,
                           r.decode_end});
        }
      }
      window_p50.push_back(Percentile(window_ms, 0.5));
      window_p90.push_back(Percentile(window_ms, 0.9));
      (traced ? traced_p50 : untraced_p50).push_back(window_p50.back());
    }
    for (const Record& r : capacity) {
      ++attempted;
      if (!r.answered || !r.ok) ++failed;
      if (r.op.kind == Op::kQuery && r.answered && r.ok) {
        answered_queries.push_back(&r);
      }
    }
    const CheckOutcome check =
        CheckAnswers(*workload, inputs, answered_queries, threads);
    wrong += check.wrong;
    double recall = check.recall;
    if (workload->insert_share > 0) {
      const double mismatches = results.count("check.mismatches") != 0
                                    ? results.at("check.mismatches")
                                    : kProbeQueries;
      wrong += static_cast<uint64_t>(mismatches);
      attempted += kProbeQueries;
      recall = results.count("check.recall") != 0 ? results.at("check.recall")
                                                  : 0.0;
    }

    // Latency is each window's median, then the median over windows.
    report.Add("setup_s", setup_s, "s");
    report.Add("op_p50_ms", Median(window_p50), "ms");
    layer["e2e.cpu_us_per_op"] = Median(slice_cpu_us);
    layer["e2e.capacity_ops_s"] = capacity_ops;
    report.Add("dist_per_query",
               engine_answers == 0 ? 0.0
                                   : static_cast<double>(engine_distances) /
                                         engine_answers,
               "count");
    report.Add("recall_at_10", recall, "ratio");
    // The store's peak while it built (or restored) and served, read by
    // the serving process before its end-of-run checks allocate.
    report.Add("rss_mb", results.at("serve.peak_rss_mb"), "MB");

    const double late_p99 = Percentile(late_ms, 0.99);
    std::cout << "# generator lateness (ms): p50 " << Percentile(late_ms, 0.5)
              << ", p90 " << Percentile(late_ms, 0.9) << ", p99 " << late_p99
              << ", max " << Percentile(late_ms, 1.0) << "\n";
    if (late_p99 > kLateBoundMs) {
      std::cout << "# INVALID: the generator sent its p99 request "
                << late_p99 << " ms late (bound " << kLateBoundMs
                << " ms); latencies not reported\n";
      return 3;
    }

    // ---- per-layer metrics
    const Tail query_p99 = TailPercentile(query_ms, 0.99);
    const Tail write_p99 = TailPercentile(write_ms, 0.99);
    const Tail op_p99 = TailPercentile(all_ms, 0.99);
    layer["e2e.op_p99_ms"] = op_p99.value;
    // Per window p90 (n/10 samples beyond it: at least ten at every
    // workload's rate), then the median over windows.
    layer["e2e.op_p90_ms"] = Median(window_p90);
    if (op_p99.q != 0.99) {
      notes.push_back("e2e.*_p99_ms fall back to p" +
                      std::to_string(op_p99.q * 100) + " (" +
                      std::to_string(all_ms.size()) + " samples)");
    }
    layer["e2e.query_p50_ms"] = Percentile(query_ms, 0.5);
    layer["e2e.query_p99_ms"] = query_p99.value;
    layer["e2e.write_p50_ms"] = Percentile(write_ms, 0.5);
    layer["e2e.write_p99_ms"] = write_ms.empty() ? 0.0 : write_p99.value;
    layer["loadgen.late_p99_ms"] = late_p99;
    layer["loadgen.achieved_rate"] =
        static_cast<double>(completed) / (static_cast<double>(open_ns) / 1e9);
    // Traced windows against the untraced ones of the same run: the
    // generator's span clocks are the only tracing work under load (the
    // serving process traces only in its probes, after the drain).
    if (trace) {
      layer["trace.overhead_frac"] =
          Median(traced_p50) / std::max(1e-9, Median(untraced_p50)) - 1.0;
    }
    const auto self = SelfTimes(spans);
    const size_t traced = spans.size() / 3;
    layer["net.encode_us"] = MeanSelfUsPerRequest(spans, self, "net.encode",
                                                  traced);
    layer["net.decode_us"] = MeanSelfUsPerRequest(spans, self, "net.decode",
                                                  traced);
    double resp_bytes = 0.0;
    for (const Record* r : answered_queries) resp_bytes += r->resp_bytes;
    layer["net.resp_bytes"] =
        answered_queries.empty() ? 0.0 : resp_bytes / answered_queries.size();

    const auto delta = [&](const std::string& name) {
      return CounterDelta(before, after, name);
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double lookups = delta("perm_cache_hits_total") +
                           delta("perm_cache_misses_total");
    const double queries = delta("engine_queries_total");
    layer["server.batch_size"] = ratio(delta("server_requests_total"),
                                       delta("server_batches_total"));
    layer["server.cache_hit_ratio"] =
        ratio(delta("perm_cache_hits_total"), lookups);
    layer["server.cache_bound_seed_ratio"] =
        ratio(delta("perm_cache_bound_seeds_total"), lookups);
    layer["server.cache_invalidations"] =
        delta("perm_cache_invalidations_total");
    layer["server.overload_rejected"] =
        delta("server_overload_rejected_total");
    layer["engine.query_p99_ms"] =
        1e3 * HistogramQuantile(before, after,
                                "engine_query_latency_seconds", 0.99);
    layer["engine.queue_wait_p99_ms"] =
        1e3 * HistogramQuantile(before, after,
                                "engine_task_queue_wait_seconds", 0.99);
    layer["engine.task_run_p50_ms"] =
        1e3 * HistogramQuantile(before, after, "engine_task_run_seconds",
                                0.5);
    layer["engine.shard_tasks_per_query"] =
        ratio(delta("engine_shard_tasks_total"), queries);
    layer["engine.delta_depth_mean"] = Mean(depth_samples);
    layer["engine.compactions"] = delta("live_compactions_total");
    layer["engine.compaction_s"] =
        HistogramMean(before, after, "live_compaction_seconds");
    const double shared = delta("live_compaction_shards_shared_total");
    layer["engine.shards_shared_ratio"] =
        ratio(shared, shared + delta("live_compaction_shards_rebuilt_total"));
    layer["engine.backpressure"] = delta("live_backpressure_total");
    layer["index.pruned_per_query"] =
        ratio(delta("engine_pruning_eliminated_total"), queries);
    layer["index.verified_per_query"] =
        ratio(delta("engine_candidates_verified_total"), queries);
    layer["storage.wal_fsync_p99_ms"] =
        1e3 * HistogramQuantile(before, after, "wal_fsync_seconds", 0.99);
    layer["storage.wal_bytes_per_write"] =
        ratio(delta("wal_bytes_total"), delta("wal_appends_total"));
    layer["storage.snapshot_write_s"] =
        HistogramMean(before, after, "snapshot_write_seconds");
    // Bytes the store wrote (WAL + one snapshot per fold) per byte of
    // user data written (a vector insert or an 8-byte id).
    const double user_bytes =
        delta("live_inserts_total") * workload->ambient * 8.0 +
        delta("live_removes_total") * 8.0;
    const double snapshot_bytes =
        results.count("storage.snapshot_bytes") != 0
            ? results.at("storage.snapshot_bytes")
            : 0.0;
    layer["storage.write_amp"] = ratio(
        delta("wal_bytes_total") +
            HistogramCount(before, after, "snapshot_write_seconds") *
                snapshot_bytes,
        user_bytes);
    for (const auto& [name, value] : results) {
      if (LayerResult(name)) layer[name] = value;
    }
    notes.push_back("op latency (ms): p50 " +
                    std::to_string(Percentile(all_ms, 0.5)) + ", p90 " +
                    std::to_string(Percentile(all_ms, 0.9)) + ", p95 " +
                    std::to_string(Percentile(all_ms, 0.95)) + ", p99 " +
                    std::to_string(Percentile(all_ms, 0.99)));
    std::string slices, p50s;
    for (double rate : slice_rates) slices += " " + std::to_string(rate);
    for (double ms : window_p50) p50s += " " + std::to_string(ms);
    notes.push_back("capacity slices (ops/s):" + slices + "; open loop: " +
                    std::to_string(open_count) + " ops at " +
                    std::to_string(workload->rate) + "/s; window p50s (ms):" +
                    p50s + "; answers checked: " +
                    std::to_string(check.checked));
    if (trace) {
      std::ofstream(spans_prefix + "-load.tsv") << FormatSpans(spans);
    }
  }
  layer["e2e.error_rate"] =
      attempted == 0 ? 0.0 : static_cast<double>(failed + wrong) / attempted;

  // ---- print: human-readable report, then the JSON line
  for (const std::string& note : notes) std::cout << "# " << note << "\n";
  std::cout << "# setups (s):";
  for (double s : setups) std::cout << " " << s;
  std::cout << "\n# attempted " << attempted << ", failed " << failed
            << ", wrong answers " << wrong << "\n";
  for (const auto& [name, metric] : report.metrics) {
    std::cout << "# " << name << " = " << metric.value << " " << metric.unit
              << "\n";
  }
  for (const auto& [name, value] : layer) {
    std::cout << "#   " << name << " = " << value << "\n";
  }
  std::vector<std::pair<std::string, MetricValue>> printed;
  if (trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      const auto it = layer.find(name);
      printed.push_back({name, {it == layer.end() ? 0.0 : it->second, unit}});
    }
  } else {
    printed = report.metrics;
  }
  const bool correct = wrong == 0;
  std::cout << ResultJson(correct, std::max<uint64_t>(attempted, 1), failed,
                          printed)
            << std::endl;
  std::filesystem::remove_all(root);
  return correct ? 0 : 1;
}

}  // namespace wirebench
