#include "index/registry.h"

#include <cctype>
#include <cstdlib>

namespace distperm {
namespace index {

namespace {

bool ValidNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
}

bool ValidKeyChar(char c) { return (c >= 'a' && c <= 'z') || c == '_'; }

util::Status Malformed(const std::string& spec,
                       const std::string& message) {
  return util::Status::InvalidArgument("index spec '" + spec +
                                       "': " + message);
}

}  // namespace

util::Result<ParsedIndexSpec> ParseIndexSpec(const std::string& spec) {
  ParsedIndexSpec parsed;
  const size_t colon = spec.find(':');
  parsed.name =
      spec.substr(0, colon == std::string::npos ? spec.size() : colon);
  if (parsed.name.empty()) {
    return Malformed(spec, "empty index name");
  }
  for (char c : parsed.name) {
    if (!ValidNameChar(c)) {
      return Malformed(spec, std::string("invalid character '") + c +
                                 "' in index name (allowed: [a-z0-9-])");
    }
  }
  if (colon == std::string::npos) return parsed;

  const std::string options = spec.substr(colon + 1);
  if (options.empty()) {
    return Malformed(spec, "dangling ':' with no options");
  }
  size_t begin = 0;
  while (begin <= options.size()) {
    size_t end = options.find(',', begin);
    if (end == std::string::npos) end = options.size();
    const std::string option = options.substr(begin, end - begin);
    const size_t equals = option.find('=');
    if (equals == std::string::npos) {
      return Malformed(spec, "option '" + option +
                                 "' is not of the form key=value");
    }
    const std::string key = option.substr(0, equals);
    const std::string value = option.substr(equals + 1);
    if (key.empty()) {
      return Malformed(spec, "option with an empty key");
    }
    for (char c : key) {
      if (!ValidKeyChar(c)) {
        return Malformed(spec, std::string("invalid character '") + c +
                                   "' in option key '" + key +
                                   "' (allowed: [a-z_])");
      }
    }
    if (value.empty()) {
      return Malformed(spec, "option '" + key + "' has an empty value");
    }
    for (const auto& [seen_key, seen_value] : parsed.options) {
      if (seen_key == key) {
        return Malformed(spec, "duplicate option '" + key + "'");
      }
    }
    parsed.options.emplace_back(key, value);
    begin = end + 1;
  }
  return parsed;
}

util::Result<std::pair<std::string, LiveSpecOptions>> SplitLiveSpec(
    const std::string& spec) {
  util::Result<ParsedIndexSpec> parsed = ParseIndexSpec(spec);
  if (!parsed.ok()) return parsed.status();

  std::vector<std::pair<std::string, std::string>> live_pairs;
  std::string residual = parsed.value().name;
  bool first_option = true;
  for (auto& [key, value] : parsed.value().options) {
    if (key == "delta_scan_limit" || key == "auto_compact_threshold" ||
        key == "wal_dir" || key == "fsync" || key == "delta_index_min") {
      live_pairs.emplace_back(key, value);
      continue;
    }
    residual += first_option ? ":" : ",";
    residual += key + "=" + value;
    first_option = false;
  }

  // Reuse IndexOptions for the option parsing and its error messages;
  // only the live keys are present, so CheckAllConsumed is moot.
  LiveSpecOptions defaults;
  IndexOptions live("live", std::move(live_pairs));
  util::Result<size_t> limit =
      live.GetSize("delta_scan_limit", defaults.delta_scan_limit);
  if (!limit.ok()) return limit.status();
  util::Result<size_t> threshold = live.GetSize(
      "auto_compact_threshold", defaults.auto_compact_threshold);
  if (!threshold.ok()) return threshold.status();
  util::Result<std::string> wal_dir = live.GetString("wal_dir", "");
  if (!wal_dir.ok()) return wal_dir.status();
  util::Result<std::string> fsync = live.GetString("fsync", defaults.fsync);
  if (!fsync.ok()) return fsync.status();
  if (fsync.value() != "always" && fsync.value() != "batched" &&
      fsync.value() != "never") {
    return util::Status::InvalidArgument(
        "live spec '" + spec + "': fsync must be always|batched|never, got '" +
        fsync.value() + "'");
  }
  // Sentinel fallback distinguishes "knob absent" (default, clamped to
  // the scan limit so small-delta specs keep working) from an explicit
  // contradictory setting (an error).
  constexpr size_t kUnsetSize = static_cast<size_t>(-1);
  util::Result<size_t> delta_index_min =
      live.GetSize("delta_index_min", kUnsetSize);
  if (!delta_index_min.ok()) return delta_index_min.status();

  LiveSpecOptions options;
  options.delta_scan_limit = limit.value();
  options.auto_compact_threshold = threshold.value();
  options.wal_dir = wal_dir.value();
  options.fsync = fsync.value();
  const bool delta_index_min_set = delta_index_min.value() != kUnsetSize;
  options.delta_index_min =
      delta_index_min_set
          ? delta_index_min.value()
          : std::min(defaults.delta_index_min, options.delta_scan_limit);
  if (options.delta_scan_limit == 0) {
    return util::Status::InvalidArgument(
        "live spec '" + spec + "': delta_scan_limit must be >= 1");
  }
  if (options.auto_compact_threshold > options.delta_scan_limit) {
    return util::Status::InvalidArgument(
        "live spec '" + spec +
        "': auto_compact_threshold must be <= delta_scan_limit "
        "(the compaction must trigger before backpressure)");
  }
  if (delta_index_min_set &&
      options.delta_index_min > options.delta_scan_limit) {
    return util::Status::InvalidArgument(
        "live spec '" + spec +
        "': delta_index_min must be <= delta_scan_limit");
  }
  return std::make_pair(std::move(residual), options);
}

IndexOptions::IndexOptions(
    std::string index_name,
    std::vector<std::pair<std::string, std::string>> options)
    : index_name_(std::move(index_name)) {
  entries_.reserve(options.size());
  for (auto& [key, value] : options) {
    entries_.push_back({std::move(key), std::move(value), false});
  }
}

const IndexOptions::Entry* IndexOptions::Find(const std::string& key) {
  for (Entry& entry : entries_) {
    if (entry.key == key) {
      entry.consumed = true;
      return &entry;
    }
  }
  return nullptr;
}

util::Result<size_t> IndexOptions::GetSize(const std::string& key,
                                           size_t fallback) {
  const Entry* entry = Find(key);
  if (entry == nullptr) return fallback;
  const std::string& value = entry->value;
  if (value[0] == '-' || value[0] == '+' ||
      !std::isdigit(static_cast<unsigned char>(value[0]))) {
    return util::Status::InvalidArgument(
        index_name_ + ": option '" + key + "=" + value +
        "' is not a non-negative integer");
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end != value.c_str() + value.size()) {
    return util::Status::InvalidArgument(
        index_name_ + ": option '" + key + "=" + value +
        "' is not a non-negative integer");
  }
  return static_cast<size_t>(parsed);
}

util::Result<double> IndexOptions::GetDouble(const std::string& key,
                                             double fallback) {
  const Entry* entry = Find(key);
  if (entry == nullptr) return fallback;
  const std::string& value = entry->value;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || value.empty()) {
    return util::Status::InvalidArgument(index_name_ + ": option '" + key +
                                         "=" + value +
                                         "' is not a number");
  }
  return parsed;
}

util::Result<std::string> IndexOptions::GetString(
    const std::string& key, const std::string& fallback) {
  const Entry* entry = Find(key);
  if (entry == nullptr) return fallback;
  return entry->value;
}

util::Status IndexOptions::CheckAllConsumed() const {
  for (const Entry& entry : entries_) {
    if (!entry.consumed) {
      return util::Status::InvalidArgument(
          index_name_ + ": unknown option '" + entry.key + "'");
    }
  }
  return util::Status::OK();
}

}  // namespace index
}  // namespace distperm
