#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

namespace distperm {
namespace net {

namespace {
std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}
}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  DP_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed");
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  DP_CHECK_MSG(wake_fd_ >= 0, "eventfd failed");
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = wake_fd_;
  DP_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) == 0);
}

EventLoop::~EventLoop() {
  close(wake_fd_);
  close(epoll_fd_);
}

util::Status EventLoop::Add(int fd, uint32_t events, Callback callback) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    return util::Status::IoError(Errno("net: epoll add"));
  }
  callbacks_[fd] = std::move(callback);
  return util::Status::OK();
}

util::Status EventLoop::Modify(int fd, uint32_t events) {
  epoll_event event{};
  event.events = events;
  event.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) != 0) {
    return util::Status::IoError(Errno("net: epoll modify"));
  }
  return util::Status::OK();
}

void EventLoop::Remove(int fd) {
  if (callbacks_.erase(fd) == 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::Run() {
  running_.store(true, std::memory_order_relaxed);
  std::vector<epoll_event> events(64);
  while (!stop_.load(std::memory_order_acquire)) {
    const int ready = epoll_wait(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()),
                                 kTickIntervalMs);
    if (ready < 0 && errno != EINTR) break;
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      // Re-resolve per event: an earlier callback in this wave may
      // have removed this fd (closing a connection closes its peer's
      // entry too, for instance).
      auto it = callbacks_.find(fd);
      if (it == callbacks_.end()) continue;
      it->second(events[i].events);
    }
    if (tick_) tick_();
  }
  running_.store(false, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_release);  // allow a later Run()
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  Wake();
}

void EventLoop::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t written = write(wake_fd_, &one, sizeof(one));
}

}  // namespace net
}  // namespace distperm
