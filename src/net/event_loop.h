// Minimal epoll event loop for the serving subsystem.
//
// One loop, one thread: Add/Modify/Remove are called from the loop
// thread (or before Run() starts); only Stop() and Wake() are safe
// from other threads (they signal an eventfd the loop waits on).
// Callbacks receive the ready-event mask; a callback may Remove any
// fd, including its own — the dispatcher re-checks registration
// before every invocation, so a removal in one callback safely
// cancels a later one in the same wave.
//
// The loop wakes at least every tick interval and runs the tick
// callback after every wait, so periodic work (idle sweeps, drain
// checks) happens even on a busy loop.

#ifndef DISTPERM_NET_EVENT_LOOP_H_
#define DISTPERM_NET_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "util/status.h"

namespace distperm {
namespace net {

class EventLoop {
 public:
  using Callback = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (EPOLLIN / EPOLLOUT / ...).
  util::Status Add(int fd, uint32_t events, Callback callback);
  /// Changes the watched event mask of a registered fd.
  util::Status Modify(int fd, uint32_t events);
  /// Unregisters; safe to call for fds that were never added.
  void Remove(int fd);

  /// Dispatches until Stop().  Runs the tick callback after every
  /// epoll wait (ready or timed out).
  void Run();
  /// Makes Run() return after the current wave.  Thread-safe.
  void Stop();
  /// Interrupts the current wait without stopping.  Thread-safe.
  void Wake();

  void set_tick(std::function<void()> tick) { tick_ = std::move(tick); }

  bool running() const { return running_.load(std::memory_order_relaxed); }

 private:
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::unordered_map<int, Callback> callbacks_;
  std::function<void()> tick_;
  static constexpr int kTickIntervalMs = 200;
};

}  // namespace net
}  // namespace distperm

#endif  // DISTPERM_NET_EVENT_LOOP_H_
