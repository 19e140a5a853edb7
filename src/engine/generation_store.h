// On-disk form of an engine::Generation and the WAL record codec —
// the glue between the storage layer's containers and the engine's
// types.
//
// A generation snapshot is a storage::SnapshotWriter container with:
//
//   meta   format="generation.v2", point_kind, spec, seed, shard_count,
//          generation, point_count, index_state ("distperm"|"rebuild"),
//          shard_sizes/shard_epochs (comma-joined per-shard layout and
//          rebuild epochs; absent in pre-incremental snapshots, which
//          imply the uniform split), and for vectors dim/stride
//   sections
//     "vectors"   (vector stores)  the row-major FlatVectorStore block,
//                 64-byte-aligned rows, dropped into the file verbatim
//                 so the mmap'd bytes are exactly the in-memory layout
//     "points"    (string stores)  concatenated PointCodec encodings
//     "shard<N>"  (index_state=distperm) the N-th shard's exported
//                 DistPermIndex state: its sites and its n x k
//                 inverted-rank table, one byte per (point, site)
//
// Restore is bit-identical either way: a "distperm" snapshot feeds the
// exported state straight back through DistPermIndex's restore
// constructor (no build-time distance evaluations — this is what makes
// Open() an order of magnitude cheaper than a cold build), and a
// "rebuild" snapshot replays the deterministic registry build with the
// recorded (spec, seed, shard_count), which reproduces the original
// shards exactly by the engine's determinism guarantee.
//
// The snapshot records the identity of the store it belongs to (spec,
// seed, shard count, point kind); ReadGenerationSnapshot refuses a
// mismatch instead of silently serving an index built with different
// parameters.  It also refuses a file of another format version, and a
// distperm shard state that does not fit its shard, with a Status
// rather than a CHECK failure: a replica reads snapshots that came over
// the wire.

#ifndef DISTPERM_ENGINE_GENERATION_STORE_H_
#define DISTPERM_ENGINE_GENERATION_STORE_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataset/flat_vector_store.h"
#include "engine/generation.h"
#include "engine/sharded_database.h"
#include "index/distperm_index.h"
#include "metric/metric.h"
#include "storage/coding.h"
#include "storage/env.h"
#include "storage/point_codec.h"
#include "storage/snapshot.h"
#include "util/status.h"

namespace distperm {
namespace engine {

// ------------------------------------------------------- store file names

/// "snapshot-<generation>.snap" (zero-padded so lexicographic order is
/// numeric order).
inline std::string SnapshotFileName(uint64_t generation) {
  char name[32];
  std::snprintf(name, sizeof(name), "snapshot-%08llu.snap",
                static_cast<unsigned long long>(generation));
  return name;
}

/// "wal-<generation>.log": the log of writes on top of that generation.
inline std::string WalFileName(uint64_t generation) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%08llu.log",
                static_cast<unsigned long long>(generation));
  return name;
}

/// Parses a store file name; returns true and fills (is_snapshot,
/// generation) for the two forms above, false for anything else
/// (including .tmp leftovers, which recovery deletes).
inline bool ParseStoreFileName(const std::string& name, bool* is_snapshot,
                               uint64_t* generation) {
  const auto parse = [&](const std::string& prefix,
                         const std::string& suffix) -> bool {
    if (name.size() <= prefix.size() + suffix.size()) return false;
    if (name.compare(0, prefix.size(), prefix) != 0) return false;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      return false;
    }
    uint64_t value = 0;
    for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') return false;
      value = value * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    *generation = value;
    return true;
  };
  if (parse("snapshot-", ".snap")) {
    *is_snapshot = true;
    return true;
  }
  if (parse("wal-", ".log")) {
    *is_snapshot = false;
    return true;
  }
  return false;
}

// --------------------------------------------------------- WAL record codec

/// One decoded live-store WAL operation.  Every record carries the
/// owning shard under the generation it was logged against — the tag
/// that lets incremental compaction fold only dirty shards, and lets
/// recovery and replicas reproduce the primary's routing without
/// re-deriving it.
template <typename P>
struct WalOp {
  bool is_remove = false;
  uint32_t shard = 0;  ///< Owning shard under the logged-against generation.
  uint64_t id = 0;     ///< Target id; meaningful for removes only.
  P point{};           ///< Inserted point; meaningful for inserts only.
};

namespace internal {
inline constexpr uint8_t kWalOpInsert = 1;
inline constexpr uint8_t kWalOpRemove = 2;
}  // namespace internal

template <typename P>
std::string EncodeWalInsert(const P& point, uint32_t shard) {
  std::string payload;
  payload.push_back(static_cast<char>(internal::kWalOpInsert));
  storage::PutFixed32(&payload, shard);
  storage::PointCodec<P>::Encode(&payload, point);
  return payload;
}

template <typename P>
std::string EncodeWalRemove(uint64_t id, uint32_t shard) {
  std::string payload;
  payload.push_back(static_cast<char>(internal::kWalOpRemove));
  storage::PutFixed32(&payload, shard);
  storage::PutFixed64(&payload, id);
  return payload;
}

template <typename P>
util::Result<WalOp<P>> DecodeWalRecord(const std::string& payload) {
  if (payload.size() < 5) {
    return util::Status::IoError("wal record: truncated payload");
  }
  const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
  WalOp<P> op;
  op.shard = storage::GetFixed32(p + 1);
  if (p[0] == internal::kWalOpInsert) {
    size_t consumed = 0;
    if (!storage::PointCodec<P>::Decode(p + 5, payload.size() - 5, &consumed,
                                        &op.point) ||
        consumed != payload.size() - 5) {
      return util::Status::IoError("wal record: malformed insert payload");
    }
    return op;
  }
  if (p[0] == internal::kWalOpRemove) {
    if (payload.size() != 13) {
      return util::Status::IoError("wal record: malformed remove payload");
    }
    op.is_remove = true;
    op.id = storage::GetFixed64(p + 5);
    return op;
  }
  return util::Status::IoError("wal record: unknown op byte " +
                               std::to_string(p[0]));
}

// ------------------------------------------------------ generation snapshot

/// The snapshot "format" meta.  Bumped whenever a section's layout
/// changes, so a reader refuses an older file instead of misparsing it.
inline constexpr char kGenerationFormat[] = "generation.v2";

namespace internal {

/// Bounds-checked reader over a snapshot section.
class SectionCursor {
 public:
  SectionCursor(const uint8_t* data, uint64_t size)
      : p_(data), end_(data + size) {}

  bool ReadFixed32(uint32_t* out) {
    if (remaining() < 4) return false;
    *out = storage::GetFixed32(p_);
    p_ += 4;
    return true;
  }
  bool ReadFixed64(uint64_t* out) {
    if (remaining() < 8) return false;
    *out = storage::GetFixed64(p_);
    p_ += 8;
    return true;
  }
  bool ReadDouble(double* out) {
    if (remaining() < 8) return false;
    *out = storage::GetDouble(p_);
    p_ += 8;
    return true;
  }
  bool ReadBytes(std::vector<uint8_t>* out, uint64_t size) {
    if (remaining() < size) return false;
    out->assign(p_, p_ + size);
    p_ += size;
    return true;
  }
  template <typename P>
  bool ReadPoint(P* out) {
    size_t consumed = 0;
    if (!storage::PointCodec<P>::Decode(p_, remaining(), &consumed, out)) {
      return false;
    }
    p_ += consumed;
    return true;
  }
  uint64_t remaining() const { return static_cast<uint64_t>(end_ - p_); }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

/// Serialized DistPermIndex::State (sites via PointCodec, the rank
/// table length-prefixed).
template <typename P>
std::string EncodeDistPermState(
    const typename index::DistPermIndex<P>::State& state) {
  std::string out;
  storage::PutFixed32(&out, static_cast<uint32_t>(state.sites.size()));
  for (const P& site : state.sites) {
    storage::PointCodec<P>::Encode(&out, site);
  }
  storage::PutFixed64(&out, state.prefix);
  storage::PutDouble(&out, state.fraction);
  storage::PutFixed64(&out, state.inv_ranks.size());
  out.append(reinterpret_cast<const char*>(state.inv_ranks.data()),
             state.inv_ranks.size());
  return out;
}

/// Parses a shard section.  Checks only that it parses; whether the
/// state fits its shard is DistPermIndex::ValidateState's job.
template <typename P>
bool DecodeDistPermState(const uint8_t* data, uint64_t size,
                         typename index::DistPermIndex<P>::State* out) {
  SectionCursor cursor(data, size);
  uint32_t site_count = 0;
  if (!cursor.ReadFixed32(&site_count)) return false;
  // Sites are appended as they decode, so a corrupt count cannot size
  // an allocation beyond what the section holds.
  for (uint32_t i = 0; i < site_count; ++i) {
    P site;
    if (!cursor.template ReadPoint<P>(&site)) return false;
    out->sites.push_back(std::move(site));
  }
  uint64_t prefix = 0, inv_size = 0;
  if (!cursor.ReadFixed64(&prefix)) return false;
  out->prefix = prefix;
  if (!cursor.ReadDouble(&out->fraction)) return false;
  if (!cursor.ReadFixed64(&inv_size)) return false;
  if (!cursor.ReadBytes(&out->inv_ranks, inv_size)) return false;
  return cursor.remaining() == 0;
}

/// Every site of a vector store must have the snapshot's dimension: the
/// flat L2 kernels read `dim` coordinates from each.  Strings have no
/// dimension.
inline util::Status CheckSiteDims(const storage::SnapshotReader& reader,
                                  const std::vector<metric::Vector>& sites) {
  auto dim_meta = reader.GetMeta("dim");
  if (!dim_meta.ok()) return dim_meta.status();
  const uint64_t dim = std::stoull(dim_meta.value());
  for (const metric::Vector& site : sites) {
    if (site.size() != dim) {
      return util::Status::IoError("site of dimension " +
                                   std::to_string(site.size()) +
                                   " in a dim=" + std::to_string(dim) +
                                   " snapshot");
    }
  }
  return util::Status::OK();
}

inline util::Status CheckSiteDims(const storage::SnapshotReader&,
                                  const std::vector<std::string>&) {
  return util::Status::OK();
}

/// Adds the point payload of a generation to the snapshot.  The vector
/// form packs the points into a FlatVectorStore and drops its aligned
/// block in verbatim; the returned holder must outlive
/// SnapshotWriter::Write.
inline std::shared_ptr<void> AddPointSections(
    storage::SnapshotWriter* writer, const std::vector<metric::Vector>& data) {
  auto store = std::make_shared<dataset::FlatVectorStore>(data);
  writer->SetMeta("dim", std::to_string(store->dim()));
  writer->SetMeta("stride", std::to_string(store->stride()));
  writer->AddSectionRef("vectors", store->data(), store->AllocatedBytes());
  return store;
}

inline std::shared_ptr<void> AddPointSections(
    storage::SnapshotWriter* writer, const std::vector<std::string>& data) {
  std::string encoded;
  for (const std::string& point : data) {
    storage::PointCodec<std::string>::Encode(&encoded, point);
  }
  writer->AddSection("points", std::move(encoded));
  return nullptr;
}

inline util::Result<std::vector<metric::Vector>> ReadPoints(
    const storage::SnapshotReader& reader, uint64_t count,
    const std::vector<metric::Vector>*) {
  std::vector<metric::Vector> points(count);
  if (count == 0) return points;
  auto dim_meta = reader.GetMeta("dim");
  if (!dim_meta.ok()) return dim_meta.status();
  auto stride_meta = reader.GetMeta("stride");
  if (!stride_meta.ok()) return stride_meta.status();
  const uint64_t dim = std::stoull(dim_meta.value());
  const uint64_t stride = std::stoull(stride_meta.value());
  auto section = reader.GetSection("vectors");
  if (!section.ok()) return section.status();
  if (stride < dim || section.value().size < count * stride * sizeof(double)) {
    return util::Status::IoError(
        "snapshot vectors section does not cover point_count x stride");
  }
  const double* rows = reinterpret_cast<const double*>(section.value().data);
  for (uint64_t i = 0; i < count; ++i) {
    // assign() writes each row once; resize()+memcpy would zero-fill
    // first and write the 100k-point restore path's bytes twice.
    const double* row = rows + i * stride;
    points[i].assign(row, row + dim);
  }
  return points;
}

inline util::Result<std::vector<std::string>> ReadPoints(
    const storage::SnapshotReader& reader, uint64_t count,
    const std::vector<std::string>*) {
  std::vector<std::string> points(count);
  auto section = reader.GetSection("points");
  if (!section.ok()) return section.status();
  SectionCursor cursor(section.value().data, section.value().size);
  for (uint64_t i = 0; i < count; ++i) {
    if (!cursor.ReadPoint(&points[i])) {
      return util::Status::IoError(
          "snapshot points section truncated at point " + std::to_string(i));
    }
  }
  return points;
}

inline std::string JoinUint64List(const std::vector<uint64_t>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += std::to_string(values[i]);
  }
  return out;
}

inline bool ParseUint64List(const std::string& text,
                            std::vector<uint64_t>* out) {
  out->clear();
  if (text.empty()) return false;
  uint64_t value = 0;
  bool have_digit = false;
  for (char c : text) {
    if (c == ',') {
      if (!have_digit) return false;
      out->push_back(value);
      value = 0;
      have_digit = false;
      continue;
    }
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
    have_digit = true;
  }
  if (!have_digit) return false;
  out->push_back(value);
  return true;
}

/// Moves `points` apart into slices of the recorded per-shard sizes —
/// the layout the snapshot was written with, which routed deltas made
/// non-uniform.
template <typename P>
std::vector<std::vector<P>> SlicesBySizes(std::vector<P> points,
                                          const std::vector<uint64_t>& sizes) {
  std::vector<std::vector<P>> slices;
  slices.reserve(sizes.size());
  size_t offset = 0;
  for (uint64_t size : sizes) {
    auto begin = points.begin() + static_cast<ptrdiff_t>(offset);
    slices.emplace_back(std::make_move_iterator(begin),
                        std::make_move_iterator(begin + size));
    offset += size;
  }
  return slices;
}

}  // namespace internal

/// Writes `generation` to `path`.  With `atomic` (the default) the
/// container goes through the tmp+rename protocol and lands published;
/// with atomic=false the bytes are written and fsynced directly at
/// `path` (a .tmp name by convention) and the caller publishes with
/// RenameFile + SyncDir once its ordering constraints allow — the
/// engine's WAL rotation must sync the next log before the snapshot
/// rename makes the new generation recoverable.  Captures the
/// per-shard DistPermIndex state when every shard is one; otherwise
/// records index_state="rebuild" and the reader replays the
/// deterministic registry build.
template <typename P>
util::Status WriteGenerationSnapshot(storage::Env* env,
                                     const std::string& path,
                                     const Generation<P>& generation,
                                     bool atomic = true) {
  storage::SnapshotWriter writer;
  writer.SetMeta("format", kGenerationFormat);
  writer.SetMeta("point_kind", storage::PointCodec<P>::kName);
  writer.SetMeta("spec", generation.index_spec());
  writer.SetMeta("seed", std::to_string(generation.seed()));
  writer.SetMeta("generation", std::to_string(generation.number()));
  writer.SetMeta("shard_count",
                 std::to_string(generation.database().shard_count()));
  writer.SetMeta("point_count", std::to_string(generation.size()));
  // Shard layout + rebuild epochs: routed deltas make shard sizes
  // non-uniform, and restore must slice the points exactly as they
  // were sliced when the snapshot's shards were built.  Epochs record
  // which generation last rebuilt each shard so recovery and replicas
  // agree with the primary's sharing decisions bit-for-bit.
  {
    const std::vector<size_t> sizes = generation.database().ShardSizes();
    writer.SetMeta("shard_sizes",
                   internal::JoinUint64List(std::vector<uint64_t>(
                       sizes.begin(), sizes.end())));
    writer.SetMeta("shard_epochs",
                   internal::JoinUint64List(generation.epochs()));
  }

  const std::vector<P> data = generation.CollectData();
  // Holder keeps the packed vector block alive until Write returns.
  std::shared_ptr<void> holder =
      internal::AddPointSections(&writer, data);

  const ShardedDatabase<P>& db = generation.database();
  std::vector<std::string> shard_states;
  bool all_distperm = true;
  for (size_t s = 0; s < db.shard_count(); ++s) {
    const auto* distperm =
        dynamic_cast<const index::DistPermIndex<P>*>(&db.shard(s));
    if (distperm == nullptr) {
      all_distperm = false;
      break;
    }
    shard_states.push_back(internal::EncodeDistPermState<P>(
        distperm->ExportState()));
  }
  writer.SetMeta("index_state", all_distperm ? "distperm" : "rebuild");
  if (all_distperm) {
    for (size_t s = 0; s < shard_states.size(); ++s) {
      writer.AddSection("shard" + std::to_string(s),
                        std::move(shard_states[s]));
    }
  }
  return atomic ? writer.Write(env, path) : writer.WriteFile(env, path);
}

/// Loads the generation at `path`, validating it against the store's
/// identity.  Restores DistPermIndex shards from their exported state
/// when the snapshot carries it; rebuilds through the registry
/// otherwise.  Both paths yield shards bit-identical to the ones the
/// snapshot was written from.
template <typename P>
util::Result<std::shared_ptr<const Generation<P>>> ReadGenerationSnapshot(
    storage::Env* env, const std::string& path,
    const metric::Metric<P>& metric, size_t shard_count,
    const std::string& index_spec, uint64_t seed, size_t build_threads) {
  auto opened = storage::SnapshotReader::Open(env, path);
  if (!opened.ok()) return opened.status();
  const storage::SnapshotReader& reader = opened.value();

  const auto expect_meta = [&](const std::string& key,
                               const std::string& want) -> util::Status {
    auto got = reader.GetMeta(key);
    if (!got.ok()) return got.status();
    if (got.value() != want) {
      return util::Status::InvalidArgument(
          "snapshot " + path + ": " + key + " is '" + got.value() +
          "' but the store expects '" + want + "'");
    }
    return util::Status::OK();
  };
  DP_RETURN_IF_ERROR(expect_meta("format", kGenerationFormat));
  DP_RETURN_IF_ERROR(
      expect_meta("point_kind", storage::PointCodec<P>::kName));
  DP_RETURN_IF_ERROR(expect_meta("spec", index_spec));
  DP_RETURN_IF_ERROR(expect_meta("seed", std::to_string(seed)));
  DP_RETURN_IF_ERROR(
      expect_meta("shard_count", std::to_string(shard_count)));

  auto generation_meta = reader.GetMeta("generation");
  if (!generation_meta.ok()) return generation_meta.status();
  const uint64_t number = std::stoull(generation_meta.value());
  auto count_meta = reader.GetMeta("point_count");
  if (!count_meta.ok()) return count_meta.status();
  const uint64_t point_count = std::stoull(count_meta.value());

  auto points =
      internal::ReadPoints(reader, point_count, static_cast<std::vector<P>*>(nullptr));
  if (!points.ok()) return points.status();

  // Shard layout: recorded explicitly since incremental compaction made
  // slices non-uniform.  Snapshots written before the layout meta
  // existed imply the uniform split (sizes differ by at most one).
  std::vector<uint64_t> shard_sizes;
  if (auto sizes_meta = reader.GetMeta("shard_sizes"); sizes_meta.ok()) {
    if (!internal::ParseUint64List(sizes_meta.value(), &shard_sizes) ||
        shard_sizes.size() != shard_count) {
      return util::Status::IoError("snapshot " + path +
                                   ": malformed shard_sizes meta");
    }
    uint64_t total = 0;
    for (uint64_t size : shard_sizes) total += size;
    if (total != point_count) {
      return util::Status::IoError(
          "snapshot " + path + ": shard_sizes do not sum to point_count");
    }
  } else {
    const uint64_t base = point_count / shard_count;
    const uint64_t extra = point_count % shard_count;
    for (size_t s = 0; s < shard_count; ++s) {
      shard_sizes.push_back(base + (s < extra ? 1 : 0));
    }
  }
  std::vector<uint64_t> shard_epochs;
  if (auto epochs_meta = reader.GetMeta("shard_epochs"); epochs_meta.ok()) {
    if (!internal::ParseUint64List(epochs_meta.value(), &shard_epochs) ||
        shard_epochs.size() != shard_count) {
      return util::Status::IoError("snapshot " + path +
                                   ": malformed shard_epochs meta");
    }
  }

  std::vector<std::vector<P>> slices =
      internal::SlicesBySizes(std::move(points).value(), shard_sizes);

  auto state_meta = reader.GetMeta("index_state");
  if (!state_meta.ok()) return state_meta.status();
  if (state_meta.value() == "distperm") {
    // Pre-decode every shard's state, then hand each to the restore
    // constructor inside the (possibly parallel) sharded build.
    std::vector<typename index::DistPermIndex<P>::State> states(
        shard_count);
    for (size_t s = 0; s < shard_count; ++s) {
      const std::string where =
          "snapshot " + path + ": shard " + std::to_string(s) + " state";
      auto section = reader.GetSection("shard" + std::to_string(s));
      if (!section.ok()) return section.status();
      if (!internal::DecodeDistPermState<P>(section.value().data,
                                            section.value().size,
                                            &states[s])) {
        return util::Status::IoError(where + " is malformed");
      }
      util::Status valid = index::DistPermIndex<P>::ValidateState(
          states[s], shard_sizes[s]);
      if (valid.ok()) {
        valid = internal::CheckSiteDims(reader, states[s].sites);
      }
      if (!valid.ok()) {
        return util::Status::IoError(where + " is inconsistent: " +
                                     valid.message());
      }
    }
    ShardedDatabase<P> db = ShardedDatabase<P>::BuildSliced(
        std::move(slices), metric,
        [&states](std::vector<P> shard_data,
                  const metric::Metric<P>& shard_metric, size_t s)
            -> std::unique_ptr<index::SearchIndex<P>> {
          return std::make_unique<index::DistPermIndex<P>>(
              std::move(shard_data), shard_metric, std::move(states[s]));
        },
        build_threads);
    return Generation<P>::Adopt(std::move(db), index_spec, seed, number,
                                std::move(shard_epochs));
  }

  util::Result<ShardedDatabase<P>> rebuilt =
      ShardedDatabase<P>::BuildFromRegistrySliced(std::move(slices), metric,
                                                  index_spec, seed,
                                                  build_threads);
  if (!rebuilt.ok()) return rebuilt.status();
  return Generation<P>::Adopt(std::move(rebuilt).value(), index_spec, seed,
                              number, std::move(shard_epochs));
}

}  // namespace engine
}  // namespace distperm

#endif  // DISTPERM_ENGINE_GENERATION_STORE_H_
