// Length-prefixed binary wire protocol for the serving subsystem.
//
// Every message travels in one frame:
//
//     offset  size  field
//     ------  ----  --------------------------------------------
//          0     4  magic 0x314E5044 ("DPN1", little-endian)
//          4     1  protocol version (kProtocolVersion)
//          5     1  message type (MessageType)
//          6     2  reserved (written as 0, ignored on read)
//          8     4  payload length (little-endian u32)
//         12     4  CRC32C of the payload (storage::Crc32c)
//         16     n  payload
//
// The frame layer is deliberately dumb: ParseFrame either yields a
// complete frame view, asks for more bytes, or reports a malformed
// stream (bad magic, version skew, oversized length, checksum
// mismatch) as a util::Status — the caller tears the connection down.
// Payload codecs reuse the storage layer's little-endian primitives
// and PointCodec<P>, so points round-trip bit-exactly over the wire
// the same way they do through the WAL.
//
// Responses carry a WireCode rather than util::StatusCode: the wire
// needs one extra value, kUnavailable, for admission-control
// rejections (overload is not an error in the library's sense — the
// request was well-formed, the server declined the work).

#ifndef DISTPERM_NET_PROTOCOL_H_
#define DISTPERM_NET_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "index/search.h"
#include "storage/coding.h"
#include "storage/point_codec.h"
#include "util/status.h"

namespace distperm {
namespace net {

inline constexpr uint32_t kFrameMagic = 0x314E5044;  // "DPN1"
inline constexpr uint8_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderSize = 16;
/// Hard cap on one frame's payload; ParseFrame rejects anything larger
/// before buffering it, so a hostile length field cannot balloon a
/// connection's read buffer.
inline constexpr size_t kMaxPayloadSize = 16u << 20;

enum class MessageType : uint8_t {
  kPing = 1,
  kPong = 2,
  kSearch = 3,
  kSearchResult = 4,
  kInsert = 5,
  kInsertResult = 6,
  kRemove = 7,
  kRemoveResult = 8,
  /// Server -> client: the stream was malformed; the connection closes
  /// after this frame.  Payload is a WireStatus.
  kError = 9,
  // ---- replication (see README "Replication").  A replica opens with
  // kCatchUpHandshake carrying its identity and resume position; the
  // primary answers with the same type (CatchUpResponse), directing it
  // to fetch a snapshot or stream the WAL.  Snapshot transfer is a
  // pull loop of kFetchSnapshot -> kSnapshotChunk (each chunk CRC32C'd
  // and offset-stamped, so a torn transfer resumes at the exact byte).
  // kStreamWal subscribes the connection; the primary then pushes
  // seq-numbered kWalFrame frames until the connection dies.
  kCatchUpHandshake = 10,
  kFetchSnapshot = 11,
  kSnapshotChunk = 12,
  kStreamWal = 13,
  kWalFrame = 14,
};

/// Response status codes: util::StatusCode values plus kUnavailable
/// (admission control declined the request — retry later or elsewhere).
enum class WireCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kIoError = 4,
  kUnimplemented = 5,
  kInternal = 6,
  kUnavailable = 7,
};

const char* WireCodeName(WireCode code);
WireCode WireCodeFromStatus(const util::Status& status);

struct WireStatus {
  WireCode code = WireCode::kOk;
  std::string message;

  bool ok() const { return code == WireCode::kOk; }
  static WireStatus FromStatus(const util::Status& status) {
    return {WireCodeFromStatus(status), status.message()};
  }
  static WireStatus Unavailable(std::string message) {
    return {WireCode::kUnavailable, std::move(message)};
  }
};

// ------------------------------------------------------------- frames

/// A parsed frame borrowing the caller's buffer.
struct FrameView {
  uint8_t version = 0;
  MessageType type = MessageType::kPing;
  const uint8_t* payload = nullptr;
  size_t payload_size = 0;
};

enum class FrameParse {
  kComplete,    ///< `*out` is valid; consume `*frame_size` bytes.
  kIncomplete,  ///< Valid so far; read more bytes and retry.
  kError,       ///< Malformed stream; `*error` says why.  Tear down.
};

/// One full frame: header (with CRC32C over `payload`) plus payload.
std::string EncodeFrame(MessageType type, const std::string& payload);

/// Examines the first frame in `data`.  Never reads past `size`; a
/// truncated prefix of a valid frame is kIncomplete at every offset.
FrameParse ParseFrame(const uint8_t* data, size_t size, FrameView* out,
                      size_t* frame_size, util::Status* error);

// ----------------------------------------------------- payload reader

/// Bounds-checked little-endian reader over one payload.  Every getter
/// returns a zero value once the reader has failed; callers check
/// ok()/AtEnd() after the reads (the storage-layer decode idiom).
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == size_; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return data_[pos_++];
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    const uint32_t value = storage::GetFixed32(data_ + pos_);
    pos_ += 4;
    return value;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    const uint64_t value = storage::GetFixed64(data_ + pos_);
    pos_ += 8;
    return value;
  }
  double F64() {
    if (!Need(8)) return 0.0;
    const double value = storage::GetDouble(data_ + pos_);
    pos_ += 8;
    return value;
  }
  /// u32 length + raw bytes.
  std::string Bytes() {
    const uint32_t length = U32();
    if (!Need(length)) return std::string();
    std::string value(reinterpret_cast<const char*>(data_ + pos_), length);
    pos_ += length;
    return value;
  }
  template <typename P>
  P Point() {
    P point{};
    size_t consumed = 0;
    if (!ok_ ||
        !storage::PointCodec<P>::Decode(data_ + pos_, size_ - pos_,
                                        &consumed, &point)) {
      ok_ = false;
      return P{};
    }
    pos_ += consumed;
    return point;
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------- search messages

/// The one request flag bit (u8 on the wire; DecodeSearchRequest
/// rejects every other bit): the client asks the server to bypass its
/// perm cache for this request (used by benches to measure the uncached
/// path on a warm server).
inline constexpr uint8_t kRequestNoCache = 1u << 1;

/// A decoded search request plus the wire-only knobs that have no
/// SearchRequest field.
template <typename P>
struct DecodedSearchRequest {
  index::SearchRequest<P> request;
  bool no_cache = false;
};

template <typename P>
void EncodeSearchRequest(std::string* out,
                         const index::SearchRequest<P>& request,
                         bool no_cache = false) {
  out->push_back(static_cast<char>(request.mode));
  out->push_back(static_cast<char>(no_cache ? kRequestNoCache : 0));
  storage::PutFixed64(out, request.k);
  storage::PutDouble(out, request.radius);
  storage::PutFixed64(out, request.max_distance_computations);
  storage::PutDouble(out, request.approx_candidate_fraction);
  storage::PutDouble(out, request.initial_radius_bound);
  storage::PointCodec<P>::Encode(out, request.point);
}

template <typename P>
util::Result<DecodedSearchRequest<P>> DecodeSearchRequest(
    const uint8_t* data, size_t size) {
  PayloadReader reader(data, size);
  const uint8_t mode = reader.U8();
  const uint8_t flags = reader.U8();
  DecodedSearchRequest<P> decoded;
  index::SearchRequest<P>& request = decoded.request;
  request.k = reader.U64();
  request.radius = reader.F64();
  request.max_distance_computations = reader.U64();
  request.approx_candidate_fraction = reader.F64();
  request.initial_radius_bound = reader.F64();
  request.point = reader.template Point<P>();
  if (!reader.AtEnd()) {
    return util::Status::InvalidArgument(
        "net: truncated or oversized search request payload");
  }
  if (mode > static_cast<uint8_t>(index::SearchMode::kKnnWithinRadius)) {
    return util::Status::InvalidArgument(
        "net: unknown search mode " + std::to_string(mode));
  }
  if ((flags & ~kRequestNoCache) != 0) {
    return util::Status::InvalidArgument(
        "net: unknown search request flags " + std::to_string(flags));
  }
  request.mode = static_cast<index::SearchMode>(mode);
  decoded.no_cache = (flags & kRequestNoCache) != 0;
  return decoded;
}

/// Response flag bits (u8 on the wire).
inline constexpr uint8_t kResponseTruncated = 1u << 0;
inline constexpr uint8_t kResponseCacheHit = 1u << 1;
inline constexpr uint8_t kResponseBoundSeeded = 1u << 2;

/// One search answer as it travels: per-request status, result list,
/// the exact distance accounting, and the generation that answered.
struct WireSearchResponse {
  WireStatus status;
  bool truncated = false;
  /// Served verbatim from the server's perm cache.
  bool cache_hit = false;
  /// The perm cache seeded this search's initial_radius_bound.
  bool bound_seeded = false;
  uint64_t generation = 0;
  index::QueryStats stats;
  std::vector<index::SearchResult> results;
};

void EncodeSearchResponse(std::string* out,
                          const WireSearchResponse& response);
util::Result<WireSearchResponse> DecodeSearchResponse(const uint8_t* data,
                                                      size_t size);

// -------------------------------------------------- write-path messages

template <typename P>
void EncodeInsertRequest(std::string* out, const P& point) {
  storage::PointCodec<P>::Encode(out, point);
}

template <typename P>
util::Result<P> DecodeInsertRequest(const uint8_t* data, size_t size) {
  PayloadReader reader(data, size);
  P point = reader.template Point<P>();
  if (!reader.AtEnd()) {
    return util::Status::InvalidArgument(
        "net: truncated or oversized insert request payload");
  }
  return point;
}

struct WireInsertResponse {
  WireStatus status;
  uint64_t id = 0;
};

void EncodeInsertResponse(std::string* out,
                          const WireInsertResponse& response);
util::Result<WireInsertResponse> DecodeInsertResponse(const uint8_t* data,
                                                      size_t size);

void EncodeRemoveRequest(std::string* out, uint64_t id);
util::Result<uint64_t> DecodeRemoveRequest(const uint8_t* data, size_t size);

/// Remove responses and kError frames share this shape: one WireStatus.
void EncodeWireStatus(std::string* out, const WireStatus& status);
util::Result<WireStatus> DecodeWireStatus(const uint8_t* data, size_t size);

// ------------------------------------------------- replication messages

/// Replica -> primary: identity plus resume position.  The identity
/// half (point kind, residual spec, seed, shard count) must match the
/// primary exactly — replication relies on the engine's determinism
/// guarantee, which only holds for identical build parameters.  The
/// resume half names the first WAL record the replica still needs:
/// generation G, sequence next_seq (1 when the replica holds only the
/// snapshot of G; generation 0 = no local state at all).
struct CatchUpRequest {
  std::string point_kind;
  std::string spec;
  uint64_t seed = 0;
  uint64_t shard_count = 0;
  uint64_t generation = 0;
  uint64_t next_seq = 1;
};

void EncodeCatchUpRequest(std::string* out, const CatchUpRequest& request);
util::Result<CatchUpRequest> DecodeCatchUpRequest(const uint8_t* data,
                                                  size_t size);

enum class CatchUpAction : uint8_t {
  /// The replica's position is inside the primary's history: send
  /// kStreamWal with the same (generation, next_seq) to subscribe.
  kStreamWal = 1,
  /// The position is gone (compacted past, divergent, or fresh): fetch
  /// the snapshot of `generation` first, then handshake again.
  kFetchSnapshot = 2,
};

/// Primary -> replica, answering kCatchUpHandshake.
struct CatchUpResponse {
  WireStatus status;
  CatchUpAction action = CatchUpAction::kStreamWal;
  /// The primary's current generation and the seq its next record will
  /// carry (so the replica can report lag before the stream starts).
  uint64_t generation = 0;
  uint64_t next_seq = 1;
  /// Size of snapshot-<generation>.snap; set when action=kFetchSnapshot
  /// so the replica can pre-check resume offsets against the total.
  uint64_t snapshot_bytes = 0;
};

void EncodeCatchUpResponse(std::string* out, const CatchUpResponse& response);
util::Result<CatchUpResponse> DecodeCatchUpResponse(const uint8_t* data,
                                                    size_t size);

/// Replica -> primary: one chunk of snapshot-<generation>.snap starting
/// at `offset`.  Pull-model on purpose: the replica drives the pace (no
/// server-side buffering of a slow receiver) and a reconnect resumes by
/// asking for the offset it has durably written — nothing to negotiate.
struct FetchSnapshotRequest {
  uint64_t generation = 0;
  uint64_t offset = 0;
};

void EncodeFetchSnapshotRequest(std::string* out,
                                const FetchSnapshotRequest& request);
util::Result<FetchSnapshotRequest> DecodeFetchSnapshotRequest(
    const uint8_t* data, size_t size);

/// Primary -> replica, answering kFetchSnapshot.  `crc` is the CRC32C
/// of `data` alone (the frame layer checksums the whole payload too;
/// the chunk CRC survives into the replica's partial-file bookkeeping
/// so a resumed transfer re-verifies what it already wrote).
struct SnapshotChunk {
  WireStatus status;
  uint64_t generation = 0;
  uint64_t total_bytes = 0;
  uint64_t offset = 0;
  bool last = false;
  uint32_t crc = 0;
  std::string data;
};

void EncodeSnapshotChunk(std::string* out, const SnapshotChunk& chunk);
util::Result<SnapshotChunk> DecodeSnapshotChunk(const uint8_t* data,
                                                size_t size);

/// Replica -> primary: subscribe to WAL frames of `generation` from
/// `next_seq` on.  The primary replays history [next_seq ..] and keeps
/// pushing; a position it no longer holds gets a kError frame and the
/// replica re-handshakes.
struct StreamWalRequest {
  uint64_t generation = 0;
  uint64_t next_seq = 1;
};

void EncodeStreamWalRequest(std::string* out, const StreamWalRequest& request);
util::Result<StreamWalRequest> DecodeStreamWalRequest(const uint8_t* data,
                                                      size_t size);

inline constexpr uint8_t kWalFrameRecord = 1;
inline constexpr uint8_t kWalFrameRotate = 2;

/// Primary -> replica: one streamed replication event.
///   kind=kWalFrameRecord  one WAL record of `generation`: `seq` (the
///                         1-based position in that generation's delta
///                         log) and `record` (the engine's WAL payload,
///                         byte-identical to what the primary logged —
///                         the replica applies it through its own
///                         LiveDatabase write path).
///   kind=kWalFrameRotate  the primary compacted: the first `folded`
///                         records folded into generation `generation`
///                         (= old + 1).  The replica runs the same
///                         deterministic CompactPrefix(folded) locally
///                         and both sides land on bit-identical state.
struct WalStreamFrame {
  uint8_t kind = kWalFrameRecord;
  uint64_t generation = 0;
  uint64_t seq = 0;     ///< records only
  uint64_t folded = 0;  ///< rotates only
  std::string record;   ///< records only
};

void EncodeWalStreamFrame(std::string* out, const WalStreamFrame& frame);
util::Result<WalStreamFrame> DecodeWalStreamFrame(const uint8_t* data,
                                                  size_t size);

}  // namespace net
}  // namespace distperm

#endif  // DISTPERM_NET_PROTOCOL_H_
