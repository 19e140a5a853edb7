// Runtime index registry: string-keyed factories for every search index.
//
// A spec string selects an index structure and its build options at
// runtime — no compile-time index selection, no per-binary factory
// lambdas.  Grammar:
//
//   spec    := name [":" option ("," option)*]
//   option  := key "=" value
//   name    := [a-z0-9-]+        key := [a-z_]+
//
// Registered names and their options (defaults in parentheses):
//
//   "linear-scan"                      exhaustive scan
//   "aesa"                             full O(n^2) distance matrix
//   "iaesa"          k(6)              AESA + permutation-guided picking
//   "laesa"          k(8)              k max-min pivots, O(nk) table
//   "vp-tree"                          vantage-point tree
//   "gh-tree"                          generalized-hyperplane tree
//   "distperm"       k(8) fraction(0.1) prefix(0)   permutation index
//   "distperm-prefix" k(12) prefix(4) fraction(0.1) truncated variant
//
// Examples: "laesa:k=16", "distperm:k=6,fraction=0.2".  Every
// SearchIndex::name() is itself a valid spec, so name() round-trips
// through Create.  Unknown names, malformed option strings, unknown or
// duplicate keys, and out-of-range values come back as util::Status
// errors — never UB or CHECK-death.  Counts that exceed the database
// size (pivot/site counts on small shards) are clamped to it.

#ifndef DISTPERM_INDEX_REGISTRY_H_
#define DISTPERM_INDEX_REGISTRY_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/perm_codec.h"
#include "index/aesa.h"
#include "index/distperm_index.h"
#include "index/gh_tree.h"
#include "index/iaesa.h"
#include "index/index.h"
#include "index/laesa.h"
#include "index/linear_scan.h"
#include "index/vp_tree.h"
#include "metric/metric.h"
#include "util/rng.h"
#include "util/status.h"

namespace distperm {
namespace index {

/// A spec string split into its name and (key, value) options, in
/// order of appearance.
struct ParsedIndexSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> options;
};

/// Parses "name:key=value,..." per the grammar above.  InvalidArgument
/// on an empty or ill-formed name, a dangling ':', a malformed or
/// empty option, or a duplicate key.
util::Result<ParsedIndexSpec> ParseIndexSpec(const std::string& spec);

/// Live-store knobs that ride inside an index spec.  A spec like
/// "vp-tree:k=4,delta_scan_limit=2048,auto_compact_threshold=256"
/// fully describes a live database: the live keys below configure the
/// engine::LiveDatabase delta buffer and the residual spec ("vp-tree:
/// k=4") is what every generation's shards are built from.  Any other
/// key stays in the residual spec, so a key no index knows fails the
/// store's Open as an unknown option.
struct LiveSpecOptions {
  /// Hard cap on pending delta entries.  Every query searches the
  /// pinned delta window, so this bounds the per-query delta overhead;
  /// once the buffer is full, Insert/Remove return OutOfRange
  /// (backpressure) until a compaction folds the delta into a new
  /// generation.  Must be >= 1.
  size_t delta_scan_limit = 4096;
  /// Pending-entry count at which a background compaction is scheduled
  /// automatically.  0 (the default) disables auto-compaction — the
  /// owner calls Compact()/CompactAsync() itself.  When set, must be
  /// <= delta_scan_limit (the compaction must trigger before
  /// backpressure does).
  size_t auto_compact_threshold = 0;
  /// Directory for the store's write-ahead log and snapshots.  Empty
  /// (the default) keeps the store purely in memory.
  /// Non-empty makes every Insert/Remove durable per the fsync policy
  /// and every compaction write a snapshot (see engine::LiveDatabase).
  std::string wal_dir;
  /// WAL fsync policy: "always" | "batched" | "never".  Parsed into
  /// storage::FsyncPolicy by the engine; kept as a string here so the
  /// index layer stays independent of the storage layer.
  std::string fsync = "batched";
  /// Pending delta entries below which queries keep the flat linear
  /// scan (side runs aren't worth building for a handful of entries) —
  /// also the publication cadence: every delta_index_min new entries
  /// are covered by one new side run per touched shard.  Side runs are
  /// always exact `laesa:k=4` indexes (engine/side_runs.h), so this
  /// knob moves a query's cost, never its answer.  0 disables side
  /// runs entirely.  Must be <= delta_scan_limit when non-zero.
  size_t delta_index_min = 256;
};

/// Splits `spec` into the live-store knobs and the residual index spec
/// with the live keys removed (option order otherwise preserved, so
/// the residual spec builds bit-identical shards).  InvalidArgument on
/// a malformed spec, a non-integer knob value, delta_scan_limit = 0,
/// or auto_compact_threshold > delta_scan_limit.
util::Result<std::pair<std::string, LiveSpecOptions>> SplitLiveSpec(
    const std::string& spec);

/// The option view a factory reads from: typed getters with defaults
/// that mark keys as consumed, plus a final unknown-key check, so a
/// misspelled option is an error instead of a silently applied default.
class IndexOptions {
 public:
  IndexOptions(std::string index_name,
               std::vector<std::pair<std::string, std::string>> options);

  /// Unsigned integer option (InvalidArgument on unparseable or
  /// negative values); `fallback` when absent.
  util::Result<size_t> GetSize(const std::string& key, size_t fallback);

  /// Floating-point option; `fallback` when absent.
  util::Result<double> GetDouble(const std::string& key, double fallback);

  /// Verbatim string option; `fallback` when absent.  Values are
  /// already non-empty and ','-free by the spec grammar.
  util::Result<std::string> GetString(const std::string& key,
                                      const std::string& fallback);

  /// OK iff every supplied option was consumed by a getter.
  util::Status CheckAllConsumed() const;

  const std::string& index_name() const { return index_name_; }

 private:
  struct Entry {
    std::string key;
    std::string value;
    bool consumed = false;
  };
  const Entry* Find(const std::string& key);

  std::string index_name_;
  std::vector<Entry> entries_;
};

/// String-keyed index factories for point type P.  Global() serves the
/// built-in seven (plus the distperm-prefix variant) and accepts
/// additional Register() calls; registration is not synchronized
/// against concurrent Create(), so register before serving.
template <typename P>
class Registry {
 public:
  using IndexPtr = std::unique_ptr<SearchIndex<P>>;
  /// Builds one index.  `points` is the (possibly empty) shard the
  /// index serves, with its metric; `options` holds the spec's parsed
  /// key=value pairs; `rng` drives any randomized construction
  /// (pivot/site selection).
  using Factory = std::function<util::Result<IndexPtr>(
      PointStore<P> points, IndexOptions* options, util::Rng* rng)>;

  /// The process-wide registry for P, with the built-ins registered.
  static Registry& Global() {
    static Registry* registry = new Registry(WithBuiltins());
    return *registry;
  }

  /// Registers a factory under `name` (which must be a valid spec name
  /// and unused).
  void Register(const std::string& name, Factory factory) {
    DP_CHECK_MSG(factories_.emplace(name, std::move(factory)).second,
                 "duplicate index registration: " << name);
  }

  bool Has(const std::string& name) const {
    return factories_.find(name) != factories_.end();
  }

  /// All registered names, sorted.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) names.push_back(name);
    return names;
  }

  /// Parses `spec`, looks up the factory, builds the index.  NotFound
  /// for an unregistered name; InvalidArgument for malformed specs,
  /// unknown/duplicate/out-of-range options, or an index that cannot
  /// be built over `data` (e.g. permutation sites on an empty shard).
  util::Result<IndexPtr> Create(const std::string& spec,
                                std::vector<P> data,
                                const metric::Metric<P>& metric,
                                util::Rng* rng) const {
    return Create(spec, PointStore<P>(std::move(data), metric), rng);
  }

  /// Create over an existing store — a restored shard's borrowed rows.
  util::Result<IndexPtr> Create(const std::string& spec,
                                PointStore<P> points,
                                util::Rng* rng) const {
    util::Result<ParsedIndexSpec> parsed = ParseIndexSpec(spec);
    if (!parsed.ok()) return parsed.status();
    auto it = factories_.find(parsed.value().name);
    if (it == factories_.end()) {
      std::string names;
      for (const std::string& name : Names()) {
        names += names.empty() ? name : ", " + name;
      }
      return util::Status::NotFound("unknown index '" +
                                    parsed.value().name +
                                    "'; registered: " + names);
    }
    IndexOptions options(parsed.value().name,
                         std::move(parsed.value().options));
    util::Result<IndexPtr> created =
        it->second(std::move(points), &options, rng);
    if (!created.ok()) return created;
    util::Status all_consumed = options.CheckAllConsumed();
    if (!all_consumed.ok()) return all_consumed;
    return created;
  }

 private:
  Registry() = default;

  static util::Status BadOption(const IndexOptions& options,
                                const std::string& message) {
    return util::Status::InvalidArgument(options.index_name() + ": " +
                                         message);
  }

  static Registry WithBuiltins() {
    Registry registry;
    registry.Register(
        "linear-scan",
        [](PointStore<P> points, IndexOptions* options,
           util::Rng*) -> util::Result<IndexPtr> {
          util::Status no_options = options->CheckAllConsumed();
          if (!no_options.ok()) return no_options;
          return IndexPtr(
              new LinearScanIndex<P>(std::move(points)));
        });
    registry.Register(
        "aesa",
        [](PointStore<P> points, IndexOptions* options,
           util::Rng*) -> util::Result<IndexPtr> {
          util::Status no_options = options->CheckAllConsumed();
          if (!no_options.ok()) return no_options;
          return IndexPtr(new AesaIndex<P>(std::move(points)));
        });
    registry.Register(
        "vp-tree",
        [](PointStore<P> points, IndexOptions* options,
           util::Rng* rng) -> util::Result<IndexPtr> {
          util::Status no_options = options->CheckAllConsumed();
          if (!no_options.ok()) return no_options;
          return IndexPtr(new VpTreeIndex<P>(std::move(points), rng));
        });
    registry.Register(
        "gh-tree",
        [](PointStore<P> points, IndexOptions* options,
           util::Rng* rng) -> util::Result<IndexPtr> {
          util::Status no_options = options->CheckAllConsumed();
          if (!no_options.ok()) return no_options;
          return IndexPtr(new GhTreeIndex<P>(std::move(points), rng));
        });
    registry.Register(
        "laesa",
        [](PointStore<P> points, IndexOptions* options,
           util::Rng* rng) -> util::Result<IndexPtr> {
          util::Result<size_t> k = options->GetSize("k", 8);
          if (!k.ok()) return k.status();
          if (k.value() == 0) {
            return BadOption(*options, "k must be >= 1");
          }
          util::Status consumed = options->CheckAllConsumed();
          if (!consumed.ok()) return consumed;
          const size_t pivots = std::min(k.value(), points.size());
          return IndexPtr(new LaesaIndex<P>(std::move(points), pivots, rng));
        });
    registry.Register(
        "iaesa",
        [](PointStore<P> points, IndexOptions* options,
           util::Rng* rng) -> util::Result<IndexPtr> {
          util::Result<size_t> sites =
              SiteCount(options, "k", 6, points.size());
          if (!sites.ok()) return sites.status();
          util::Status consumed = options->CheckAllConsumed();
          if (!consumed.ok()) return consumed;
          const size_t site_count = std::min(sites.value(), points.size());
          return IndexPtr(
              new IaesaIndex<P>(std::move(points), site_count, rng));
        });
    registry.Register(
        "distperm",
        [](PointStore<P> points, IndexOptions* options,
           util::Rng* rng) -> util::Result<IndexPtr> {
          util::Result<size_t> requested =
              SiteCount(options, "k", 8, points.size());
          if (!requested.ok()) return requested.status();
          util::Result<double> fraction = Fraction(options, 0.1);
          if (!fraction.ok()) return fraction.status();
          util::Result<size_t> prefix = options->GetSize("prefix", 0);
          if (!prefix.ok()) return prefix.status();
          // Validate against the requested k; clamp both to the shard.
          if (prefix.value() >= requested.value() && prefix.value() != 0) {
            return BadOption(*options, "prefix must be < k (use "
                                       "prefix=0 or omit it for full "
                                       "permutations)");
          }
          util::Status consumed = options->CheckAllConsumed();
          if (!consumed.ok()) return consumed;
          const size_t sites = std::min(requested.value(), points.size());
          const size_t clamped_prefix =
              std::min(prefix.value(), sites - 1);
          return IndexPtr(new DistPermIndex<P>(std::move(points), sites, rng,
                                               fraction.value(),
                                               clamped_prefix));
        });
    registry.Register(
        "distperm-prefix",
        [](PointStore<P> points, IndexOptions* options,
           util::Rng* rng) -> util::Result<IndexPtr> {
          util::Result<size_t> requested =
              SiteCount(options, "k", 12, points.size());
          if (!requested.ok()) return requested.status();
          if (requested.value() < 2) {
            return BadOption(*options,
                             "needs k >= 2 to truncate a permutation");
          }
          util::Result<double> fraction = Fraction(options, 0.1);
          if (!fraction.ok()) return fraction.status();
          util::Result<size_t> prefix = options->GetSize(
              "prefix", std::min<size_t>(4, requested.value() - 1));
          if (!prefix.ok()) return prefix.status();
          if (prefix.value() < 1 || prefix.value() >= requested.value()) {
            return BadOption(*options, "prefix must be in [1, k)");
          }
          util::Status consumed = options->CheckAllConsumed();
          if (!consumed.ok()) return consumed;
          // Clamp to the shard; a 1-point shard degenerates to a full
          // 1-site permutation (prefix 0).
          const size_t sites = std::min(requested.value(), points.size());
          const size_t clamped_prefix =
              std::min(prefix.value(), sites - 1);
          return IndexPtr(new DistPermIndex<P>(std::move(points), sites, rng,
                                               fraction.value(),
                                               clamped_prefix));
        });
    return registry;
  }

  /// Shared validation for permutation-site counts: parses `key` and
  /// requires a non-empty database (of `point_count` points) and a
  /// value in [1, kMaxRank64Sites].
  /// Returns the *requested* count — callers clamp to the shard size
  /// just before construction, after all option validation.
  static util::Result<size_t> SiteCount(IndexOptions* options,
                                        const std::string& key,
                                        size_t fallback,
                                        size_t point_count) {
    util::Result<size_t> sites = options->GetSize(key, fallback);
    if (!sites.ok()) return sites;
    if (sites.value() == 0) {
      return BadOption(*options, key + " must be >= 1");
    }
    if (sites.value() > core::kMaxRank64Sites) {
      return BadOption(*options,
                       key + " must be <= " +
                           std::to_string(core::kMaxRank64Sites));
    }
    if (point_count == 0) {
      return BadOption(*options, "cannot build over an empty database");
    }
    return sites;
  }

  /// Shared validation for verification fractions: in (0, 1].
  static util::Result<double> Fraction(IndexOptions* options,
                                       double fallback) {
    util::Result<double> fraction = options->GetDouble("fraction", fallback);
    if (!fraction.ok()) return fraction;
    if (!(fraction.value() > 0.0 && fraction.value() <= 1.0)) {
      return BadOption(*options, "fraction must be in (0, 1]");
    }
    return fraction;
  }

  std::map<std::string, Factory> factories_;
};

}  // namespace index
}  // namespace distperm

#endif  // DISTPERM_INDEX_REGISTRY_H_
