// Wire protocol robustness: frames and payload codecs must round-trip
// every field bit-exactly, and ParseFrame/Decode* must answer any
// byte-level corruption — truncation at every offset, flipped bits,
// bad magic, version skew, hostile lengths, garbage — with a clean
// Status, never a crash or an over-read (the asan CI job runs this
// suite instrumented).

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "index/search.h"
#include "metric/metric.h"
#include "net/protocol.h"
#include "storage/coding.h"
#include "util/rng.h"
#include "util/status.h"

namespace distperm {
namespace net {
namespace {

using metric::Vector;

std::string Frame(MessageType type, const std::string& payload) {
  return EncodeFrame(type, payload);
}

FrameParse Parse(const std::string& bytes, FrameView* view,
                 size_t* frame_size, util::Status* error) {
  return ParseFrame(reinterpret_cast<const uint8_t*>(bytes.data()),
                    bytes.size(), view, frame_size, error);
}

TEST(NetProtocol, FrameRoundTrip) {
  const std::string payload = "hello distance permutations";
  const std::string bytes = Frame(MessageType::kSearch, payload);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + payload.size());

  FrameView view;
  size_t frame_size = 0;
  util::Status error;
  ASSERT_EQ(Parse(bytes, &view, &frame_size, &error), FrameParse::kComplete);
  EXPECT_EQ(frame_size, bytes.size());
  EXPECT_EQ(view.version, kProtocolVersion);
  EXPECT_EQ(view.type, MessageType::kSearch);
  ASSERT_EQ(view.payload_size, payload.size());
  EXPECT_EQ(std::memcmp(view.payload, payload.data(), payload.size()), 0);
}

TEST(NetProtocol, EmptyPayloadFrame) {
  const std::string bytes = Frame(MessageType::kPing, "");
  FrameView view;
  size_t frame_size = 0;
  util::Status error;
  ASSERT_EQ(Parse(bytes, &view, &frame_size, &error), FrameParse::kComplete);
  EXPECT_EQ(view.payload_size, 0u);
  EXPECT_EQ(frame_size, kFrameHeaderSize);
}

TEST(NetProtocol, TruncatedAtEveryOffsetIsIncomplete) {
  const std::string bytes = Frame(MessageType::kSearch, "some payload");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string prefix = bytes.substr(0, cut);
    FrameView view;
    size_t frame_size = 0;
    util::Status error;
    EXPECT_EQ(Parse(prefix, &view, &frame_size, &error),
              FrameParse::kIncomplete)
        << "cut at " << cut;
  }
}

TEST(NetProtocol, CorruptedCrcIsError) {
  std::string bytes = Frame(MessageType::kSearch, "payload under crc");
  bytes[kFrameHeaderSize + 3] ^= 0x40;  // flip a payload bit
  FrameView view;
  size_t frame_size = 0;
  util::Status error;
  ASSERT_EQ(Parse(bytes, &view, &frame_size, &error), FrameParse::kError);
  EXPECT_EQ(error.code(), util::StatusCode::kIoError);
  EXPECT_NE(error.message().find("checksum"), std::string::npos);
}

TEST(NetProtocol, BadMagicIsError) {
  std::string bytes = Frame(MessageType::kPing, "");
  bytes[0] ^= 0xFF;
  FrameView view;
  size_t frame_size = 0;
  util::Status error;
  ASSERT_EQ(Parse(bytes, &view, &frame_size, &error), FrameParse::kError);
  EXPECT_EQ(error.code(), util::StatusCode::kInvalidArgument);
}

// A newer peer and an older (v1) peer are both refused, with a message
// naming the peer's version.
TEST(NetProtocol, VersionSkewIsError) {
  for (const int version : {kProtocolVersion + 1, kProtocolVersion - 1}) {
    std::string bytes = Frame(MessageType::kPing, "");
    bytes[4] = static_cast<char>(version);
    FrameView view;
    size_t frame_size = 0;
    util::Status error;
    ASSERT_EQ(Parse(bytes, &view, &frame_size, &error), FrameParse::kError)
        << version;
    EXPECT_NE(error.message().find("version"), std::string::npos);
    EXPECT_NE(error.message().find("v" + std::to_string(version)),
              std::string::npos)
        << error.message();
  }
}

TEST(NetProtocol, OversizedLengthIsRejectedBeforeBuffering) {
  std::string bytes = Frame(MessageType::kSearch, "x");
  // Rewrite the length field to a hostile value; only the 16-byte
  // header is present, yet the parser must answer now, not wait for
  // 4GiB of payload.
  std::string hostile_length;
  storage::PutFixed32(&hostile_length,
                      std::numeric_limits<uint32_t>::max());
  bytes.replace(8, 4, hostile_length);
  FrameView view;
  size_t frame_size = 0;
  util::Status error;
  ASSERT_EQ(Parse(bytes.substr(0, kFrameHeaderSize), &view, &frame_size,
                  &error),
            FrameParse::kError);
  EXPECT_NE(error.message().find("payload"), std::string::npos);
}

TEST(NetProtocol, HeaderBitFlipsNeverCrash) {
  const std::string clean = Frame(MessageType::kSearch, "fuzz me gently");
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bytes = clean;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      FrameView view;
      size_t frame_size = 0;
      util::Status error;
      const FrameParse parse = Parse(bytes, &view, &frame_size, &error);
      if (parse == FrameParse::kComplete) {
        // A flip that survives must be in the reserved bytes (ignored)
        // or a type change; the CRC guards the payload.
        EXPECT_TRUE(byte == 5 || byte == 6 || byte == 7)
            << "unexpected survivor at byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(NetProtocol, DeterministicGarbageNeverCrashes) {
  util::Rng rng(20260809);
  for (int round = 0; round < 200; ++round) {
    const size_t size = rng.NextBounded(64);
    std::string bytes;
    for (size_t i = 0; i < size; ++i) {
      bytes.push_back(static_cast<char>(rng.NextBounded(256)));
    }
    FrameView view;
    size_t frame_size = 0;
    util::Status error;
    Parse(bytes, &view, &frame_size, &error);  // must simply not crash

    // Also hurl the garbage at every payload decoder.
    const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
    DecodeSearchRequest<Vector>(data, bytes.size());
    DecodeSearchRequest<std::string>(data, bytes.size());
    DecodeSearchResponse(data, bytes.size());
    DecodeInsertRequest<Vector>(data, bytes.size());
    DecodeInsertResponse(data, bytes.size());
    DecodeRemoveRequest(data, bytes.size());
    DecodeWireStatus(data, bytes.size());
  }
}

TEST(NetProtocol, SearchRequestRoundTripVector) {
  index::SearchRequest<Vector> request =
      index::SearchRequest<Vector>::Knn(Vector{0.25, -1.5, 3.0}, 7);
  request.max_distance_computations = 123;
  request.approx_candidate_fraction = 0.375;
  request.initial_radius_bound = 2.25;

  std::string payload;
  EncodeSearchRequest(&payload, request, /*no_cache=*/true);
  auto decoded = DecodeSearchRequest<Vector>(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const index::SearchRequest<Vector>& got = decoded.value().request;
  EXPECT_TRUE(decoded.value().no_cache);
  EXPECT_EQ(got.mode, request.mode);
  EXPECT_EQ(got.point, request.point);
  EXPECT_EQ(got.k, request.k);
  EXPECT_EQ(got.max_distance_computations,
            request.max_distance_computations);
  EXPECT_EQ(got.approx_candidate_fraction,
            request.approx_candidate_fraction);
  EXPECT_EQ(got.initial_radius_bound, request.initial_radius_bound);
}

TEST(NetProtocol, SearchRequestRoundTripString) {
  index::SearchRequest<std::string> request =
      index::SearchRequest<std::string>::Range("permutation", 2.0);
  std::string payload;
  EncodeSearchRequest(&payload, request);
  auto decoded = DecodeSearchRequest<std::string>(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().request.point, "permutation");
  EXPECT_EQ(decoded.value().request.mode, index::SearchMode::kRange);
  EXPECT_EQ(decoded.value().request.radius, 2.0);
  EXPECT_FALSE(decoded.value().no_cache);
}

TEST(NetProtocol, SearchRequestRejectsUnknownEnums) {
  index::SearchRequest<Vector> request =
      index::SearchRequest<Vector>::Knn(Vector{1.0}, 1);
  std::string payload;
  EncodeSearchRequest(&payload, request);
  {
    std::string bad = payload;
    bad[0] = 17;  // mode
    EXPECT_FALSE(DecodeSearchRequest<Vector>(
                     reinterpret_cast<const uint8_t*>(bad.data()),
                     bad.size())
                     .ok());
  }
  // Every flag bit but kRequestNoCache is malformed.
  for (int bit = 0; bit < 8; ++bit) {
    const uint8_t flag = static_cast<uint8_t>(1u << bit);
    if (flag == kRequestNoCache) continue;
    std::string bad = payload;
    bad[1] = static_cast<char>(flag | kRequestNoCache);  // flags
    auto decoded = DecodeSearchRequest<Vector>(
        reinterpret_cast<const uint8_t*>(bad.data()), bad.size());
    ASSERT_FALSE(decoded.ok()) << bit;
    EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
  }
  // Trailing junk is an error, not silently ignored.
  payload.push_back('x');
  EXPECT_FALSE(DecodeSearchRequest<Vector>(
                   reinterpret_cast<const uint8_t*>(payload.data()),
                   payload.size())
                   .ok());
}

TEST(NetProtocol, SearchResponseRoundTrip) {
  WireSearchResponse response;
  response.status = {WireCode::kOk, ""};
  response.truncated = true;
  response.cache_hit = true;
  response.bound_seeded = true;
  response.generation = 42;
  response.stats.distance_computations = 987654321;
  response.results = {{7, 0.125}, {9, 2.5}, {123456789, 1e9}};

  std::string payload;
  EncodeSearchResponse(&payload, response);
  auto decoded = DecodeSearchResponse(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const WireSearchResponse& got = decoded.value();
  EXPECT_TRUE(got.status.ok());
  EXPECT_TRUE(got.truncated);
  EXPECT_TRUE(got.cache_hit);
  EXPECT_TRUE(got.bound_seeded);
  EXPECT_EQ(got.generation, 42u);
  EXPECT_EQ(got.stats.distance_computations, 987654321u);
  ASSERT_EQ(got.results.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got.results[i].id, response.results[i].id);
    EXPECT_EQ(got.results[i].distance, response.results[i].distance);
  }
}

TEST(NetProtocol, SearchResponseRejectsHostileResultCount) {
  WireSearchResponse response;
  response.results = {{1, 1.0}};
  std::string payload;
  EncodeSearchResponse(&payload, response);
  // The u32 result count sits right before the single 16-byte result;
  // inflate it and the decoder must reject rather than trust it.
  const size_t count_offset = payload.size() - 16 - 4;
  std::string hostile;
  storage::PutFixed32(&hostile, 1000000000);
  payload.replace(count_offset, 4, hostile);
  auto decoded = DecodeSearchResponse(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(NetProtocol, InsertAndRemoveRoundTrips) {
  const Vector point{1.0, -2.0, 0.5};
  std::string payload;
  EncodeInsertRequest(&payload, point);
  auto decoded_point = DecodeInsertRequest<Vector>(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(decoded_point.ok());
  EXPECT_EQ(decoded_point.value(), point);

  WireInsertResponse insert_response;
  insert_response.status = {WireCode::kNotFound, "nope"};
  insert_response.id = 77;
  payload.clear();
  EncodeInsertResponse(&payload, insert_response);
  auto decoded_insert = DecodeInsertResponse(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(decoded_insert.ok());
  EXPECT_EQ(decoded_insert.value().status.code, WireCode::kNotFound);
  EXPECT_EQ(decoded_insert.value().status.message, "nope");
  EXPECT_EQ(decoded_insert.value().id, 77u);

  payload.clear();
  EncodeRemoveRequest(&payload, 123456789ull);
  auto decoded_remove = DecodeRemoveRequest(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(decoded_remove.ok());
  EXPECT_EQ(decoded_remove.value(), 123456789ull);

  payload.clear();
  EncodeWireStatus(&payload, WireStatus::Unavailable("overloaded"));
  auto decoded_status = DecodeWireStatus(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size());
  ASSERT_TRUE(decoded_status.ok());
  EXPECT_EQ(decoded_status.value().code, WireCode::kUnavailable);
  EXPECT_EQ(decoded_status.value().message, "overloaded");
}

TEST(NetProtocol, WireCodeMapsEveryStatusCode) {
  EXPECT_EQ(WireCodeFromStatus(util::Status::OK()), WireCode::kOk);
  EXPECT_EQ(WireCodeFromStatus(util::Status::InvalidArgument("x")),
            WireCode::kInvalidArgument);
  EXPECT_EQ(WireCodeFromStatus(util::Status::NotFound("x")),
            WireCode::kNotFound);
  EXPECT_EQ(WireCodeFromStatus(util::Status::IoError("x")),
            WireCode::kIoError);
  EXPECT_EQ(WireCodeFromStatus(util::Status::Internal("x")),
            WireCode::kInternal);
  EXPECT_STREQ(WireCodeName(WireCode::kUnavailable), "Unavailable");
}

}  // namespace
}  // namespace net
}  // namespace distperm
