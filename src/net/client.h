// Small blocking client for the serving protocol.
//
// One connection, synchronous round trips.  SearchBatch() pipelines:
// it writes every request frame back to back and then reads the
// responses in order, so the server's frame loop batches the whole
// set into one QueryEngine::RunBatch — over loopback this keeps the
// remote path within a small constant of the in-process path (the
// bench gates the ratio).
//
// Used by tests, the bench's serving section, and
// examples/remote_search.cpp; a production client would speak the
// same frames asynchronously.

#ifndef DISTPERM_NET_CLIENT_H_
#define DISTPERM_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/search.h"
#include "net/protocol.h"
#include "util/status.h"

namespace distperm {
namespace net {

class Client {
 public:
  /// Socket deadlines.  A zero member means "no deadline" for that
  /// operation (the historical blocking behavior).
  struct Options {
    /// Cap on the TCP handshake (non-blocking connect + poll).  A peer
    /// that never answers its SYN can no longer wedge the caller.
    int connect_timeout_ms = 5000;
    /// SO_RCVTIMEO: a recv that sees no bytes for this long fails with
    /// kDeadlineExceeded (the connection stays usable — buffered
    /// partial frames are kept, so callers can ping and keep reading).
    int recv_timeout_ms = 0;
    /// SO_SNDTIMEO: a send stalled this long (peer not draining) fails
    /// with kDeadlineExceeded.
    int send_timeout_ms = 0;
  };

  /// Connects to host:port (numeric IPv4 or "localhost") with the
  /// default Options (5 s connect deadline, no I/O deadlines),
  /// TCP_NODELAY.
  static util::Result<std::unique_ptr<Client>> Connect(
      const std::string& host, uint16_t port) {
    return Connect(host, port, Options{});
  }
  static util::Result<std::unique_ptr<Client>> Connect(
      const std::string& host, uint16_t port, const Options& options);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  util::Status Ping();

  template <typename P>
  util::Result<WireSearchResponse> Search(
      const index::SearchRequest<P>& request, bool no_cache = false) {
    std::string payload;
    EncodeSearchRequest(&payload, request, no_cache);
    DP_RETURN_IF_ERROR(SendFrame(MessageType::kSearch, payload));
    return ReadSearchResponse();
  }

  /// Pipelined batch: all requests on the wire first, then all
  /// responses, in order.  The server stops reading a connection whose
  /// unsent answers pass its backlog cap, so a batch whose answers
  /// outgrow that cap plus the socket buffers before its last request
  /// is sent stalls; split such batches.
  template <typename P>
  util::Result<std::vector<WireSearchResponse>> SearchBatch(
      const std::vector<index::SearchRequest<P>>& batch,
      bool no_cache = false) {
    std::string frames;
    for (const index::SearchRequest<P>& request : batch) {
      std::string payload;
      EncodeSearchRequest(&payload, request, no_cache);
      frames.append(EncodeFrame(MessageType::kSearch, payload));
    }
    DP_RETURN_IF_ERROR(SendRaw(frames));
    std::vector<WireSearchResponse> responses;
    responses.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      auto response = ReadSearchResponse();
      if (!response.ok()) return response.status();
      responses.push_back(std::move(response).value());
    }
    return responses;
  }

  template <typename P>
  util::Result<WireInsertResponse> Insert(const P& point) {
    std::string payload;
    EncodeInsertRequest(&payload, point);
    DP_RETURN_IF_ERROR(SendFrame(MessageType::kInsert, payload));
    auto frame = ReadFrame();
    if (!frame.ok()) return frame.status();
    if (frame.value().first != MessageType::kInsertResult) {
      return UnexpectedFrame(frame.value());
    }
    const std::string& bytes = frame.value().second;
    return DecodeInsertResponse(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  }

  util::Result<WireStatus> Remove(uint64_t id);

  /// Raw access for protocol robustness tests and pipelining.
  util::Status SendFrame(MessageType type, const std::string& payload);
  util::Status SendRaw(const std::string& bytes);
  /// Reads one frame (blocking).  An error here includes the peer
  /// hanging up — which is exactly what the teardown tests expect
  /// after feeding the server garbage.
  util::Result<std::pair<MessageType, std::string>> ReadFrame();

 private:
  explicit Client(int fd) : fd_(fd) {}

  util::Result<WireSearchResponse> ReadSearchResponse();
  /// A kError frame (or an unrelated type) surfaced as a Status.
  util::Status UnexpectedFrame(
      const std::pair<MessageType, std::string>& frame);

  int fd_;
  /// Receive buffer: frames are consumed by advancing `consumed_`
  /// rather than erasing the prefix, so draining a burst of small
  /// streamed frames costs O(bytes), not O(frames x buffered bytes).
  std::string buffer_;
  size_t consumed_ = 0;
};

}  // namespace net
}  // namespace distperm

#endif  // DISTPERM_NET_CLIENT_H_
