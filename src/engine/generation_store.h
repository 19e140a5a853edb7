// On-disk form of an engine::Generation and the WAL record codec —
// the glue between the storage layer's containers and the engine's
// types.
//
// A generation snapshot is a storage::SnapshotWriter container with:
//
//   meta   format="generation.v3", point_kind, spec, seed, shard_count,
//          generation, point_count, index_state ("distperm"|"rebuild"),
//          shard_sizes/shard_epochs (comma-joined per-shard layout and
//          rebuild epochs), and for vectors dim/stride
//   sections
//     "vectors"   (vector stores)  every shard's point-store rows, in
//                 shard order, 64-byte-aligned and written straight
//                 from the stores, so the mmap'd bytes are exactly the
//                 in-memory layout
//     "points"    (string stores)  concatenated PointCodec encodings
//     "shard<N>"  (index_state=distperm) the N-th shard's exported
//                 DistPermIndex state: its sites, prefix and fraction,
//                 its table of distinct inverted-rank rows (k bytes
//                 each) and one 32-bit table id per point
//
// Restore is bit-identical either way: a "distperm" snapshot feeds the
// exported state straight back through DistPermIndex's restore
// constructor (no build-time distance evaluations — this is what makes
// Open() an order of magnitude cheaper than a cold build), and a
// "rebuild" snapshot replays the deterministic registry build with the
// recorded (spec, seed, shard_count), which reproduces the original
// shards exactly by the engine's determinism guarantee.
//
// A restored vector generation holds no copy of its points: each
// shard's index::PointStore borrows its contiguous row range of the
// "vectors" section, and every store keeps the file mapping alive
// through its shared_ptr owner — past the reader, past the unlinking of
// the file, for as long as any generation sharing the shard lives.
// That is sound because a published snapshot file is never modified in
// place: compaction writes "<name>.tmp" and replicas write
// "<name>.partial", and both publish with a rename, which leaves a
// mapped older file's bytes untouched.  Anything that writes a store
// directory must keep that invariant.
//
// The snapshot records the identity of the store it belongs to (spec,
// seed, shard count, point kind); ReadGenerationSnapshot refuses a
// mismatch instead of silently serving an index built with different
// parameters.  It also refuses a file of another format version, a
// malformed or missing meta value, a point section that does not cover
// the recorded layout, and a distperm shard state that does not fit its
// shard, with a Status rather than an exception or a CHECK failure: a
// replica reads snapshots that came over the wire.

#ifndef DISTPERM_ENGINE_GENERATION_STORE_H_
#define DISTPERM_ENGINE_GENERATION_STORE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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

/// The generations whose published snapshot sits in store directory
/// `dir`, newest first.  A .tmp or .partial left by a cut-short write
/// is not a snapshot.
inline util::Result<std::vector<uint64_t>> ListStoreSnapshots(
    storage::Env* env, const std::string& dir) {
  util::Result<std::vector<std::string>> listing = env->ListDir(dir);
  if (!listing.ok()) return listing.status();
  std::vector<uint64_t> snapshots;
  for (const std::string& name : listing.value()) {
    bool is_snapshot = false;
    uint64_t generation = 0;
    if (ParseStoreFileName(name, &is_snapshot, &generation) && is_snapshot) {
      snapshots.push_back(generation);
    }
  }
  std::sort(snapshots.rbegin(), snapshots.rend());
  return snapshots;
}

/// Deletes the store files of every generation but `keep_generation`
/// from `dir`, and .tmp leftovers — orphans of a crashed rotation.
/// Best-effort: a failed listing or delete is ignored.
inline void DeleteStrayStoreFiles(storage::Env* env, const std::string& dir,
                                  uint64_t keep_generation) {
  util::Result<std::vector<std::string>> listing = env->ListDir(dir);
  if (!listing.ok()) return;
  for (const std::string& name : listing.value()) {
    bool is_snapshot = false;
    uint64_t generation = 0;
    const bool store_file =
        ParseStoreFileName(name, &is_snapshot, &generation);
    const bool tmp = name.size() > 4 &&
                     name.compare(name.size() - 4, 4, ".tmp") == 0;
    if ((store_file && generation != keep_generation) || tmp) {
      env->DeleteFile(dir + "/" + name);
    }
  }
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
inline constexpr char kGenerationFormat[] = "generation.v3";

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
  bool ReadFixed32s(std::vector<uint32_t>* out, uint64_t count) {
    if (remaining() / 4 < count) return false;
    out->resize(count);
    for (uint32_t& value : *out) {
      value = storage::GetFixed32(p_);
      p_ += 4;
    }
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

/// Serialized DistPermIndex::State (sites via PointCodec, then the
/// rank table and the per-point table ids, each length-prefixed).
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
  storage::PutFixed64(&out, state.table.size());
  out.append(reinterpret_cast<const char*>(state.table.data()),
             state.table.size());
  storage::PutFixed64(&out, state.ids.size());
  for (uint32_t id : state.ids) storage::PutFixed32(&out, id);
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
  uint64_t prefix = 0, table_size = 0, id_count = 0;
  if (!cursor.ReadFixed64(&prefix)) return false;
  out->prefix = prefix;
  if (!cursor.ReadDouble(&out->fraction)) return false;
  if (!cursor.ReadFixed64(&table_size)) return false;
  if (!cursor.ReadBytes(&out->table, table_size)) return false;
  if (!cursor.ReadFixed64(&id_count)) return false;
  if (!cursor.ReadFixed32s(&out->ids, id_count)) return false;
  return cursor.remaining() == 0;
}

/// Parses an unsigned decimal that fits in 64 bits.
inline bool ParseUint64(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Meta `key` as an unsigned 64-bit decimal; IoError when it is absent
/// or is not one.
inline util::Result<uint64_t> GetUint64Meta(
    const storage::SnapshotReader& reader, const std::string& key) {
  auto text = reader.GetMeta(key);
  uint64_t value = 0;
  if (!text.ok() || !ParseUint64(text.value(), &value)) {
    return util::Status::IoError("snapshot meta " + key +
                                 " is missing or not a number");
  }
  return value;
}

inline std::string JoinUint64List(const std::vector<uint64_t>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += std::to_string(values[i]);
  }
  return out;
}

/// Meta `key` as a comma-separated list of `count` unsigned 64-bit
/// decimals; IoError when it is absent or malformed.
inline util::Result<std::vector<uint64_t>> GetUint64ListMeta(
    const storage::SnapshotReader& reader, const std::string& key,
    size_t count) {
  auto text = reader.GetMeta(key);
  bool ok = text.ok();
  std::vector<uint64_t> values;
  for (size_t begin = 0; ok && begin <= text.value().size();) {
    const size_t end =
        std::min(text.value().find(',', begin), text.value().size());
    uint64_t value = 0;
    ok = ParseUint64(text.value().substr(begin, end - begin), &value);
    values.push_back(value);
    begin = end + 1;
  }
  if (!ok || values.size() != count) {
    return util::Status::IoError("snapshot meta " + key +
                                 " is missing or malformed");
  }
  return values;
}

/// Every site of a vector store must have the snapshot's dimension: the
/// kernels read `dim` coordinates from each.  Strings have no
/// dimension.
inline util::Status CheckSiteDims(const storage::SnapshotReader& reader,
                                  const std::vector<metric::Vector>& sites) {
  auto dim = GetUint64Meta(reader, "dim");
  if (!dim.ok()) return dim.status();
  for (const metric::Vector& site : sites) {
    if (site.size() != dim.value()) {
      return util::Status::IoError("site of dimension " +
                                   std::to_string(site.size()) +
                                   " in a dim=" + std::to_string(dim.value()) +
                                   " snapshot");
    }
  }
  return util::Status::OK();
}

inline util::Status CheckSiteDims(const storage::SnapshotReader&,
                                  const std::vector<std::string>&) {
  return util::Status::OK();
}

/// Adds the points of every shard of `db` to the snapshot, in shard
/// order.  The vector form borrows every row from its shard's store as
/// one chunk of the "vectors" section (plus zero padding up to the
/// stride), so the database is written without being gathered anywhere
/// first; `db` must outlive SnapshotWriter::Write.
inline void AddPointSections(storage::SnapshotWriter* writer,
                             const ShardedDatabase<metric::Vector>& db) {
  static constexpr double kZeros[8] = {};
  const size_t dim = db.dim();
  const size_t stride = index::PointStore<metric::Vector>::StrideFor(dim);
  writer->SetMeta("dim", std::to_string(dim));
  writer->SetMeta("stride", std::to_string(stride));
  std::vector<storage::SnapshotWriter::Chunk> chunks;
  for (size_t s = 0; s < db.shard_count(); ++s) {
    const index::PointStore<metric::Vector>& points = db.shard(s).points();
    for (size_t i = 0; i < points.size(); ++i) {
      chunks.push_back({points.row(i), dim * sizeof(double)});
      if (stride > dim) {
        chunks.push_back({kZeros, (stride - dim) * sizeof(double)});
      }
    }
  }
  writer->AddSectionRefs("vectors", std::move(chunks));
}

inline void AddPointSections(storage::SnapshotWriter* writer,
                             const ShardedDatabase<std::string>& db) {
  std::string encoded;
  for (size_t s = 0; s < db.shard_count(); ++s) {
    const index::PointStore<std::string>& points = db.shard(s).points();
    for (size_t i = 0; i < points.size(); ++i) {
      storage::PointCodec<std::string>::Encode(&encoded, points.Point(i));
    }
  }
  writer->AddSection("points", std::move(encoded));
}

/// One point store per shard, `sizes[s]` points each, borrowing its
/// rows from the snapshot's "vectors" section (and keeping the mapping
/// alive).  The section must hold exactly sum(sizes) rows of the
/// recorded dim and stride; everything is checked before any store
/// exists, without arithmetic that could overflow.
inline util::Result<std::vector<index::PointStore<metric::Vector>>>
ReadShardStores(const storage::SnapshotReader& reader,
                const std::vector<uint64_t>& sizes, uint64_t point_count,
                const metric::Metric<metric::Vector>& metric) {
  using Store = index::PointStore<metric::Vector>;
  auto dim = GetUint64Meta(reader, "dim");
  if (!dim.ok()) return dim.status();
  auto stride = GetUint64Meta(reader, "stride");
  if (!stride.ok()) return stride.status();
  auto section = reader.GetSection("vectors");
  if (!section.ok()) return section.status();
  if (stride.value() < dim.value()) {
    return util::Status::IoError(
        "snapshot stride " + std::to_string(stride.value()) +
        " is below dim " + std::to_string(dim.value()));
  }
  const uint64_t row_bytes = stride.value() * sizeof(double);
  if (point_count > 0 &&
      (dim.value() == 0 || stride.value() != Store::StrideFor(dim.value()) ||
       section.value().size % row_bytes != 0 ||
       section.value().size / row_bytes != point_count ||
       reinterpret_cast<uintptr_t>(section.value().data) %
               Store::kRowAlignBytes != 0)) {
    return util::Status::IoError(
        "snapshot vectors section does not hold point_count aligned rows");
  }
  const double* rows = reinterpret_cast<const double*>(section.value().data);
  std::vector<Store> stores;
  for (uint64_t size : sizes) {
    stores.emplace_back(reader.mapping(), rows, size, dim.value(), metric);
    rows += size * stride.value();
  }
  return stores;
}

inline util::Result<std::vector<index::PointStore<std::string>>>
ReadShardStores(const storage::SnapshotReader& reader,
                const std::vector<uint64_t>& sizes, uint64_t,
                const metric::Metric<std::string>& metric) {
  auto section = reader.GetSection("points");
  if (!section.ok()) return section.status();
  SectionCursor cursor(section.value().data, section.value().size);
  std::vector<index::PointStore<std::string>> stores;
  stores.reserve(sizes.size());
  for (uint64_t size : sizes) {
    // Points are appended as they decode, so a corrupt size cannot
    // allocate beyond what the section holds.
    std::vector<std::string> points;
    for (uint64_t i = 0; i < size; ++i) {
      std::string point;
      if (!cursor.ReadPoint(&point)) {
        return util::Status::IoError("snapshot points section truncated");
      }
      points.push_back(std::move(point));
    }
    stores.emplace_back(std::move(points), metric);
  }
  return stores;
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

  const ShardedDatabase<P>& db = generation.database();
  internal::AddPointSections(&writer, db);

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
/// snapshot was written from, and vector shards of both borrow their
/// rows from the file mapping.
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

  auto number = internal::GetUint64Meta(reader, "generation");
  if (!number.ok()) return number.status();
  auto point_count = internal::GetUint64Meta(reader, "point_count");
  if (!point_count.ok()) return point_count.status();
  // Shard layout and rebuild epochs: restore slices the points exactly
  // as they were sliced when the snapshot's shards were built.
  auto shard_sizes =
      internal::GetUint64ListMeta(reader, "shard_sizes", shard_count);
  if (!shard_sizes.ok()) return shard_sizes.status();
  uint64_t left = point_count.value();  // summed without overflow
  bool fits = true;
  for (uint64_t size : shard_sizes.value()) {
    fits = fits && size <= left;
    if (fits) left -= size;
  }
  if (!fits || left != 0) {
    return util::Status::IoError(
        "snapshot " + path + ": shard_sizes do not sum to point_count");
  }
  auto shard_epochs =
      internal::GetUint64ListMeta(reader, "shard_epochs", shard_count);
  if (!shard_epochs.ok()) return shard_epochs.status();

  auto stores = internal::ReadShardStores(reader, shard_sizes.value(),
                                          point_count.value(), metric);
  if (!stores.ok()) return stores.status();

  auto state_meta = reader.GetMeta("index_state");
  if (!state_meta.ok()) return state_meta.status();
  const bool distperm = state_meta.value() == "distperm";
  std::vector<typename index::DistPermIndex<P>::State> states;
  if (distperm) {
    // Decode and validate every shard's state before building any shard.
    states.resize(shard_count);
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
          states[s], shard_sizes.value()[s]);
      if (valid.ok()) {
        valid = internal::CheckSiteDims(reader, states[s].sites);
      }
      if (!valid.ok()) {
        return util::Status::IoError(where + " is inconsistent: " +
                                     valid.message());
      }
    }
  }
  std::vector<index::PointStore<P>>& shard_stores = stores.value();
  util::Result<ShardedDatabase<P>> db = ShardedDatabase<P>::BuildShards(
      shard_count,
      [&](size_t s) -> util::Result<typename ShardedDatabase<P>::ShardPtr> {
        if (distperm) {
          return typename ShardedDatabase<P>::ShardPtr(
              new index::DistPermIndex<P>(std::move(shard_stores[s]),
                                          std::move(states[s])));
        }
        return ShardedDatabase<P>::CreateShard(index_spec, seed, s,
                                               std::move(shard_stores[s]));
      },
      build_threads);
  if (!db.ok()) return db.status();
  return Generation<P>::Assemble(std::move(db).value(), index_spec, seed,
                                 number.value(),
                                 std::move(shard_epochs).value());
}

/// Loads the newest of `snapshots` (ListStoreSnapshots order) in `dir`
/// that reads back, trying the next older after a corrupt file.  An
/// identity mismatch (InvalidArgument: wrong spec, seed or shard count)
/// returns at once — an older snapshot would mismatch the same way.
template <typename P>
util::Result<std::shared_ptr<const Generation<P>>> ReadNewestStoreSnapshot(
    storage::Env* env, const std::string& dir,
    const std::vector<uint64_t>& snapshots, const metric::Metric<P>& metric,
    size_t shard_count, const std::string& index_spec, uint64_t seed,
    size_t build_threads) {
  util::Status last_error =
      util::Status::IoError("no loadable snapshot in " + dir);
  for (uint64_t generation : snapshots) {
    auto loaded = ReadGenerationSnapshot<P>(
        env, dir + "/" + SnapshotFileName(generation), metric, shard_count,
        index_spec, seed, build_threads);
    if (loaded.ok()) return loaded;
    last_error = loaded.status();
    if (last_error.code() == util::StatusCode::kInvalidArgument) break;
  }
  return last_error;
}

}  // namespace engine
}  // namespace distperm

#endif  // DISTPERM_ENGINE_GENERATION_STORE_H_
