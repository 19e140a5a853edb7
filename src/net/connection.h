// One non-blocking connection: owned fd, read buffer, write buffer.
//
// The event loop drives it: ReadReady() drains the socket into the
// read buffer (the frame parser consumes from the front), Queue() +
// Flush() stage and push response bytes.  Partial writes stay queued;
// the server watches EPOLLOUT only while has_pending_write(), and stops
// reading while pending_write_bytes() is above its backlog cap.

#ifndef DISTPERM_NET_CONNECTION_H_
#define DISTPERM_NET_CONNECTION_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace distperm {
namespace net {

class Connection {
 public:
  /// Takes ownership of `fd` (closed in the destructor).
  explicit Connection(int fd);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  enum class ReadResult {
    kOpen,    ///< Drained what was available; connection still up.
    kClosed,  ///< Peer closed cleanly.
    kError,   ///< Socket error; tear the connection down.
  };

  /// Drains everything available into the read buffer.
  ReadResult ReadReady();

  /// Unparsed received bytes.  Both sides of the connection consume
  /// by advancing an offset rather than erasing the prefix, so
  /// draining a burst of small frames costs O(bytes), not
  /// O(frames x buffered bytes); ReadReady/Queue compact the dead
  /// prefix before growing the buffer.
  const char* read_data() const {
    return read_buffer_.data() + read_consumed_;
  }
  size_t read_size() const { return read_buffer_.size() - read_consumed_; }
  /// Drops `n` parsed bytes from the front of the unparsed region.
  void Consume(size_t n) {
    read_consumed_ += n;
    if (read_consumed_ == read_buffer_.size()) {
      read_buffer_.clear();
      read_consumed_ = 0;
    }
  }

  /// Stages bytes for writing (appends to the write buffer).
  void Queue(const std::string& bytes) {
    if (write_sent_ > 0) {
      write_buffer_.erase(0, write_sent_);
      write_sent_ = 0;
    }
    write_buffer_.append(bytes);
  }

  /// Writes as much of the write buffer as the socket accepts.
  util::Status Flush();
  bool has_pending_write() const { return pending_write_bytes() > 0; }
  /// Queued bytes the socket has not accepted yet.
  size_t pending_write_bytes() const {
    return write_buffer_.size() - write_sent_;
  }

  std::chrono::steady_clock::time_point last_activity() const {
    return last_activity_;
  }
  void Touch() { last_activity_ = std::chrono::steady_clock::now(); }

  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  int fd_;
  std::string read_buffer_;
  size_t read_consumed_ = 0;
  std::string write_buffer_;
  size_t write_sent_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  std::chrono::steady_clock::time_point last_activity_;
};

}  // namespace net
}  // namespace distperm

#endif  // DISTPERM_NET_CONNECTION_H_
