#include "src/waldo/kvstore.h"

#include "src/util/crc32.h"
#include "src/util/encode.h"

namespace pass::waldo {

void KvStore::AppendEntry(std::string_view key, std::string_view value,
                          bool tombstone) {
  std::string payload;
  PutU8(&payload, tombstone ? 1 : 0);
  PutBytes(&payload, key);
  PutBytes(&payload, value);
  std::string frame;
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  frame.append(payload);

  if (segments_.back().size() + frame.size() > segment_bytes_ &&
      !segments_.back().empty()) {
    segments_.emplace_back();
  }
  segments_.back().append(frame);
}

void KvStore::Put(std::string_view key, std::string_view value) {
  AppendEntry(key, value, /*tombstone=*/false);
  index_[std::string(key)].emplace_back(value);
  live_bytes_ += key.size() + value.size() + 9;
  ++entries_;
}

std::vector<std::string> KvStore::Get(std::string_view key) const {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return {};
  }
  return it->second;
}

bool KvStore::Contains(std::string_view key) const {
  return index_.find(key) != index_.end();
}

void KvStore::Delete(std::string_view key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return;
  }
  for (const std::string& value : it->second) {
    dead_bytes_ += key.size() + value.size() + 9;
    live_bytes_ -= key.size() + value.size() + 9;
    --entries_;
  }
  index_.erase(it);
  AppendEntry(key, "", /*tombstone=*/true);
  ++tombstones_;
  MaybeAutoCompact();
}

uint64_t KvStore::TotalSegmentBytes() const {
  uint64_t total = 0;
  for (const std::string& segment : segments_) {
    total += segment.size();
  }
  return total;
}

void KvStore::MaybeAutoCompact() {
  if (!auto_compact_ || dead_bytes_ == 0) {
    return;
  }
  if (dead_bytes_ * 2 > TotalSegmentBytes()) {
    Compact();
  }
}

void KvStore::Scan(std::string_view prefix,
                   const std::function<void(std::string_view,
                                            std::string_view)>& fn) const {
  for (auto it = index_.lower_bound(prefix); it != index_.end(); ++it) {
    std::string_view key = it->first;
    if (key.substr(0, prefix.size()) != prefix) {
      break;
    }
    for (const std::string& value : it->second) {
      fn(key, value);
    }
  }
}

uint64_t KvStore::Compact() {
  uint64_t before = 0;
  for (const std::string& segment : segments_) {
    before += segment.size();
  }
  std::vector<std::string> fresh;
  fresh.emplace_back();
  std::vector<std::string> old_segments = std::move(segments_);
  segments_ = std::move(fresh);
  uint64_t old_entries = entries_;
  entries_ = 0;
  live_bytes_ = 0;
  dead_bytes_ = 0;
  tombstones_ = 0;
  auto index = std::move(index_);
  index_.clear();
  for (auto& [key, values] : index) {
    for (auto& value : values) {
      Put(key, value);
    }
  }
  (void)old_entries;
  uint64_t after = 0;
  for (const std::string& segment : segments_) {
    after += segment.size();
  }
  ++compactions_;
  return before > after ? before - after : 0;
}

std::string KvStore::Serialize() const {
  std::string out;
  for (const std::string& segment : segments_) {
    out.append(segment);
  }
  return out;
}

Result<KvStore> KvStore::Deserialize(std::string_view image) {
  KvStore store;
  // Replay with auto-compaction off so the restored segment layout is
  // byte-faithful to the serialized one; re-enable once rebuilt.
  store.auto_compact_ = false;
  Decoder in(image);
  while (!in.done()) {
    PASS_ASSIGN_OR_RETURN(uint32_t len, in.U32());
    PASS_ASSIGN_OR_RETURN(uint32_t crc, in.U32());
    PASS_ASSIGN_OR_RETURN(std::string_view payload, in.Raw(len));
    if (Crc32(payload) != crc) {
      return Corrupt("kvstore: CRC mismatch");
    }
    Decoder body(payload);
    PASS_ASSIGN_OR_RETURN(uint8_t tombstone, body.U8());
    PASS_ASSIGN_OR_RETURN(std::string key, body.Bytes());
    PASS_ASSIGN_OR_RETURN(std::string value, body.Bytes());
    if (!body.done()) {
      return Corrupt("kvstore: trailing bytes in frame");
    }
    if (tombstone != 0) {
      store.Delete(key);
    } else {
      store.Put(key, value);
    }
  }
  store.auto_compact_ = true;
  return store;
}

KvStats KvStore::stats() const {
  KvStats stats;
  stats.entries = entries_;
  stats.tombstones = tombstones_;
  stats.segments = segments_.size();
  for (const std::string& segment : segments_) {
    stats.bytes += segment.size();
  }
  stats.live_bytes = live_bytes_;
  stats.compactions = compactions_;
  return stats;
}

}  // namespace pass::waldo
