#include "net/connection.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace distperm {
namespace net {

Connection::Connection(int fd) : fd_(fd) { Touch(); }

Connection::~Connection() { close(fd_); }

Connection::ReadResult Connection::ReadReady() {
  // Compact before growing: the unparsed tail (a partial frame, or
  // frames a server left buffered while its write backlog drains)
  // moves to the front so the buffer never accumulates dead prefix
  // across reads.
  if (read_consumed_ > 0) {
    read_buffer_.erase(0, read_consumed_);
    read_consumed_ = 0;
  }
  char buffer[65536];
  for (;;) {
    const ssize_t n = recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      read_buffer_.append(buffer, static_cast<size_t>(n));
      bytes_read_ += static_cast<uint64_t>(n);
      Touch();
      continue;
    }
    if (n == 0) return ReadResult::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadResult::kOpen;
    if (errno == EINTR) continue;
    return ReadResult::kError;
  }
}

util::Status Connection::Flush() {
  while (write_sent_ < write_buffer_.size()) {
    const ssize_t n =
        send(fd_, write_buffer_.data() + write_sent_,
             write_buffer_.size() - write_sent_, MSG_NOSIGNAL);
    if (n > 0) {
      write_sent_ += static_cast<size_t>(n);
      bytes_written_ += static_cast<uint64_t>(n);
      Touch();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return util::Status::OK();
    if (errno == EINTR) continue;
    return util::Status::IoError(std::string("net: send: ") +
                                 std::strerror(errno));
  }
  write_buffer_.clear();
  write_sent_ = 0;
  return util::Status::OK();
}

}  // namespace net
}  // namespace distperm
