#include "src/cluster/tamper.h"

#include <algorithm>

#include "src/util/crc32.h"
#include "src/util/encode.h"
#include "src/util/strings.h"

namespace pass::cluster {

using lasagna::FrameMap;
using lasagna::FrameMapEntry;

const char* TamperKindName(TamperKind kind) {
  switch (kind) {
    case TamperKind::kFlipByte:
      return "flip_byte";
    case TamperKind::kFlipByteFixCrc:
      return "flip_byte_fix_crc";
    case TamperKind::kDeleteFrame:
      return "delete_frame";
    case TamperKind::kSwapFrames:
      return "swap_frames";
    case TamperKind::kTruncateAtFrame:
      return "truncate_at_frame";
    case TamperKind::kTruncateMidFrame:
      return "truncate_mid_frame";
  }
  return "unknown";
}

namespace {

std::string SiteLabel(TamperKind kind, size_t frame, size_t byte_offset) {
  return StrFormat("%s@frame%llu+%llu", TamperKindName(kind),
                   static_cast<unsigned long long>(frame),
                   static_cast<unsigned long long>(byte_offset));
}

TamperSite MakeSite(TamperKind kind, size_t frame, size_t byte_offset) {
  return TamperSite{kind, frame, byte_offset,
                    SiteLabel(kind, frame, byte_offset)};
}

}  // namespace

std::vector<TamperSite> TamperFs::EnumerateSites(
    const std::string& path, size_t flips_per_frame) const {
  std::vector<TamperSite> sites;
  auto image = fs_->ReadFileRaw(path);
  if (!image.ok()) {
    return sites;
  }
  FrameMap map = lasagna::MapFrames(*image);
  for (size_t i = 0; i < map.frames.size(); ++i) {
    const FrameMapEntry& frame = map.frames[i];
    // Byte flips, sampled across the payload: first byte, then evenly
    // spaced positions — every payload byte is addressable, the sweep just
    // bounds how many it visits per frame.
    size_t flips = std::min<size_t>(flips_per_frame,
                                    frame.length == 0 ? 0 : frame.length);
    for (size_t f = 0; f < flips; ++f) {
      size_t byte = 8 + (flips == 1 ? 0 : f * (frame.length - 1) / (flips - 1));
      sites.push_back(MakeSite(TamperKind::kFlipByte, i, byte));
      sites.push_back(MakeSite(TamperKind::kFlipByteFixCrc, i, byte));
    }
    sites.push_back(MakeSite(TamperKind::kDeleteFrame, i, 0));
    if (i + 1 < map.frames.size() &&
        map.frames[i].payload_md5 != map.frames[i + 1].payload_md5) {
      // Swapping byte-identical payloads is a no-op, not a mutation.
      sites.push_back(MakeSite(TamperKind::kSwapFrames, i, 0));
    }
    if (i > 0) {
      // Truncating at frame 0 empties the file — same as deleting every
      // frame, kept out so each site is a distinct image.
      sites.push_back(MakeSite(TamperKind::kTruncateAtFrame, i, 0));
    }
    if (frame.length > 1) {
      sites.push_back(
          MakeSite(TamperKind::kTruncateMidFrame, i, 8 + frame.length / 2));
    }
  }
  return sites;
}

Status TamperFs::Inject(const std::string& path, const TamperSite& site) {
  PASS_ASSIGN_OR_RETURN(std::string image, fs_->ReadFileRaw(path));
  FrameMap map = lasagna::MapFrames(image);
  if (site.frame >= map.frames.size()) {
    return InvalidArgument("tamper site beyond last frame");
  }
  const FrameMapEntry& frame = map.frames[site.frame];
  size_t frame_size = 8 + frame.length;
  switch (site.kind) {
    case TamperKind::kFlipByte:
    case TamperKind::kFlipByteFixCrc: {
      size_t at = frame.offset + site.byte_offset;
      if (site.byte_offset < 8 || site.byte_offset >= frame_size ||
          at >= image.size()) {
        return InvalidArgument("flip offset outside frame payload");
      }
      image[at] = static_cast<char>(image[at] ^ 0x01);
      if (site.kind == TamperKind::kFlipByteFixCrc) {
        // The format-aware attacker: recompute the CRC so the frame still
        // self-validates and only the hash chain can convict it.
        std::string_view payload(image.data() + frame.offset + 8,
                                 frame.length);
        std::string crc;
        PutU32(&crc, Crc32(payload));
        image.replace(frame.offset + 4, 4, crc);
      }
      break;
    }
    case TamperKind::kDeleteFrame:
      image.erase(frame.offset, frame_size);
      break;
    case TamperKind::kSwapFrames: {
      if (site.frame + 1 >= map.frames.size()) {
        return InvalidArgument("swap site has no successor frame");
      }
      const FrameMapEntry& next = map.frames[site.frame + 1];
      std::string a = image.substr(frame.offset, frame_size);
      std::string b = image.substr(next.offset, 8 + next.length);
      image = image.substr(0, frame.offset) + b + a +
              image.substr(next.offset + 8 + next.length);
      break;
    }
    case TamperKind::kTruncateAtFrame:
      image.resize(frame.offset);
      break;
    case TamperKind::kTruncateMidFrame: {
      if (site.byte_offset == 0 || site.byte_offset >= frame_size) {
        return InvalidArgument("mid-frame truncation outside frame");
      }
      image.resize(frame.offset + site.byte_offset);
      break;
    }
  }
  return fs_->WriteFileRaw(path, image);
}

Status TamperFs::TearTail(const std::string& path, size_t bytes) {
  PASS_ASSIGN_OR_RETURN(std::string image, fs_->ReadFileRaw(path));
  if (image.size() <= bytes) {
    return InvalidArgument("torn tail would empty " + path);
  }
  image.resize(image.size() - bytes);
  return fs_->WriteFileRaw(path, image);
}

}  // namespace pass::cluster
