#include "storage/snapshot.h"

#include <cstring>

#include "storage/coding.h"
#include "storage/crc32.h"

namespace distperm {
namespace storage {

namespace {

constexpr uint64_t kAlignment = 64;

uint64_t Align64(uint64_t offset) {
  return (offset + kAlignment - 1) & ~(kAlignment - 1);
}

/// Bounded cursor over the mapped header; every read checks remaining
/// bytes so a truncated or hostile header cannot run past the mapping.
class HeaderCursor {
 public:
  HeaderCursor(const uint8_t* data, uint64_t size) : p_(data), end_(data + size) {}

  bool ReadFixed32(uint32_t* out) {
    if (end_ - p_ < 4) return false;
    *out = GetFixed32(p_);
    p_ += 4;
    return true;
  }
  bool ReadFixed64(uint64_t* out) {
    if (end_ - p_ < 8) return false;
    *out = GetFixed64(p_);
    p_ += 8;
    return true;
  }
  bool ReadLengthPrefixed(std::string* out) {
    uint32_t len = 0;
    if (!ReadFixed32(&len)) return false;
    if (static_cast<uint64_t>(end_ - p_) < len) return false;
    out->assign(reinterpret_cast<const char*>(p_), len);
    p_ += len;
    return true;
  }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

}  // namespace

void SnapshotWriter::AddSection(const std::string& name, std::string data) {
  auto owned = std::make_unique<const std::string>(std::move(data));
  AddSectionRefs(name, {{owned->data(), owned->size()}});
  sections_.back().owned = std::move(owned);
}

void SnapshotWriter::AddSectionRefs(const std::string& name,
                                    std::vector<Chunk> chunks) {
  Section section;
  section.name = name;
  for (const Chunk& chunk : chunks) section.size += chunk.size;
  section.chunks = std::move(chunks);
  sections_.push_back(std::move(section));
}

util::Status SnapshotWriter::Write(Env* env, const std::string& path) const {
  const std::string tmp_path = path + ".tmp";
  DP_RETURN_IF_ERROR(WriteFile(env, tmp_path));
  DP_RETURN_IF_ERROR(env->RenameFile(tmp_path, path));
  // Make the rename itself durable: without the directory fsync a crash
  // could bring back the old name (or neither).
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  return env->SyncDir(dir);
}

util::Status SnapshotWriter::WriteFile(Env* env,
                                       const std::string& path) const {
  // The header's size is known before its contents (offsets depend on
  // where the header ends), so compute it analytically first.
  uint64_t header_len = 8 + 4;  // magic + header_len field
  header_len += 4;              // meta_count
  for (const auto& [key, value] : meta_) {
    header_len += 4 + key.size() + 4 + value.size();
  }
  header_len += 4;  // section_count
  for (const Section& section : sections_) {
    header_len += 4 + section.name.size() + 8 + 8 + 4;
  }
  header_len += 4;  // header_crc

  std::vector<uint64_t> offsets(sections_.size());
  uint64_t cursor = Align64(header_len);
  for (size_t i = 0; i < sections_.size(); ++i) {
    offsets[i] = cursor;
    cursor = Align64(cursor + sections_[i].size);
  }

  std::string header;
  header.reserve(header_len);
  header.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutFixed32(&header, static_cast<uint32_t>(header_len));
  PutFixed32(&header, static_cast<uint32_t>(meta_.size()));
  for (const auto& [key, value] : meta_) {
    PutLengthPrefixed(&header, key);
    PutLengthPrefixed(&header, value);
  }
  PutFixed32(&header, static_cast<uint32_t>(sections_.size()));
  for (size_t i = 0; i < sections_.size(); ++i) {
    const Section& section = sections_[i];
    PutLengthPrefixed(&header, section.name);
    PutFixed64(&header, offsets[i]);
    PutFixed64(&header, section.size);
    uint32_t crc = 0;
    for (const Chunk& chunk : section.chunks) {
      crc = Crc32c(chunk.data, chunk.size, crc);
    }
    PutFixed32(&header, crc);
  }
  PutFixed32(&header, Crc32c(header));
  DP_CHECK_MSG(header.size() == header_len,
               "snapshot header size mismatch: " << header.size() << " vs "
                                                 << header_len);

  auto file_result = env->NewWritableFile(path, /*truncate=*/true);
  if (!file_result.ok()) return file_result.status();
  std::unique_ptr<WritableFile> file = std::move(file_result).value();

  // Small pieces (padding, one-row chunks) are staged so the file sees
  // large appends; anything at least a stage long goes straight through.
  constexpr uint64_t kStageBytes = uint64_t{1} << 20;
  std::string staged;
  auto append = [&](const void* data, uint64_t size) -> util::Status {
    if (staged.size() + size > kStageBytes) {
      DP_RETURN_IF_ERROR(file->Append(staged.data(), staged.size()));
      staged.clear();
    }
    if (size >= kStageBytes) return file->Append(data, size);
    staged.append(static_cast<const char*>(data), size);
    return util::Status::OK();
  };
  const std::string padding(kAlignment, '\0');
  uint64_t written = 0;
  auto pad_to = [&](uint64_t target) -> util::Status {
    while (written < target) {
      const uint64_t chunk =
          target - written < kAlignment ? target - written : kAlignment;
      DP_RETURN_IF_ERROR(append(padding.data(), chunk));
      written += chunk;
    }
    return util::Status::OK();
  };

  DP_RETURN_IF_ERROR(append(header.data(), header.size()));
  written = header.size();
  for (size_t i = 0; i < sections_.size(); ++i) {
    DP_RETURN_IF_ERROR(pad_to(offsets[i]));
    for (const Chunk& chunk : sections_[i].chunks) {
      DP_RETURN_IF_ERROR(append(chunk.data, chunk.size));
    }
    written += sections_[i].size;
  }
  DP_RETURN_IF_ERROR(file->Append(staged.data(), staged.size()));
  DP_RETURN_IF_ERROR(file->Flush());
  DP_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

util::Result<SnapshotReader> SnapshotReader::Open(Env* env,
                                                  const std::string& path) {
  auto mapping_result = env->MapFile(path);
  if (!mapping_result.ok()) return mapping_result.status();
  std::shared_ptr<MappedFile> mapping = std::move(mapping_result).value();
  const uint8_t* base = mapping->data();
  const uint64_t size = mapping->size();

  if (size < sizeof(kSnapshotMagic) + 8) {
    return util::Status::IoError("snapshot " + path + ": file too small");
  }
  if (std::memcmp(base, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return util::Status::IoError("snapshot " + path + ": bad magic");
  }
  const uint32_t header_len = GetFixed32(base + 8);
  if (header_len < sizeof(kSnapshotMagic) + 8 || header_len > size) {
    return util::Status::IoError("snapshot " + path +
                                 ": header length out of bounds");
  }
  const uint32_t stored_header_crc = GetFixed32(base + header_len - 4);
  if (Crc32c(base, header_len - 4) != stored_header_crc) {
    return util::Status::IoError("snapshot " + path +
                                 ": header checksum mismatch");
  }

  SnapshotReader reader;
  reader.mapping_ = mapping;
  HeaderCursor cursor(base + 12, header_len - 12 - 4);
  uint32_t meta_count = 0;
  if (!cursor.ReadFixed32(&meta_count)) {
    return util::Status::IoError("snapshot " + path + ": truncated header");
  }
  for (uint32_t i = 0; i < meta_count; ++i) {
    std::string key, value;
    if (!cursor.ReadLengthPrefixed(&key) ||
        !cursor.ReadLengthPrefixed(&value)) {
      return util::Status::IoError("snapshot " + path + ": truncated header");
    }
    reader.meta_[key] = value;
  }
  uint32_t section_count = 0;
  if (!cursor.ReadFixed32(&section_count)) {
    return util::Status::IoError("snapshot " + path + ": truncated header");
  }
  for (uint32_t i = 0; i < section_count; ++i) {
    std::string name;
    uint64_t offset = 0, section_size = 0;
    uint32_t crc = 0;
    if (!cursor.ReadLengthPrefixed(&name) || !cursor.ReadFixed64(&offset) ||
        !cursor.ReadFixed64(&section_size) || !cursor.ReadFixed32(&crc)) {
      return util::Status::IoError("snapshot " + path + ": truncated header");
    }
    if (offset > size || section_size > size - offset) {
      return util::Status::IoError("snapshot " + path + ": section '" + name +
                                   "' out of bounds");
    }
    if (Crc32c(base + offset, section_size) != crc) {
      return util::Status::IoError("snapshot " + path + ": section '" + name +
                                   "' checksum mismatch");
    }
    Section section;
    section.data = base + offset;
    section.size = section_size;
    reader.sections_[name] = section;
  }
  return reader;
}

util::Result<std::string> SnapshotReader::GetMeta(
    const std::string& key) const {
  auto it = meta_.find(key);
  if (it == meta_.end()) {
    return util::Status::NotFound("snapshot meta key '" + key + "' absent");
  }
  return it->second;
}

util::Result<SnapshotReader::Section> SnapshotReader::GetSection(
    const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    return util::Status::NotFound("snapshot section '" + name + "' absent");
  }
  return it->second;
}

}  // namespace storage
}  // namespace distperm
