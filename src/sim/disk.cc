#include "src/sim/disk.h"

#include <cmath>

namespace pass::sim {

namespace {

// Fixed cost of any media access (command overhead + rotational average).
constexpr Nanos kAccessOverheadNs = 2 * kMilli;
// Full-stroke seek cost; actual seek scales with sqrt(distance/capacity),
// a standard seek-curve approximation.
constexpr Nanos kFullSeekNs = 8 * kMilli;
// Sequential transfer rate, expressed as ns per byte (~60 MB/s disk of the
// paper's era: ~16 ns/byte).
constexpr double kTransferNsPerByte = 16.0;
// Accesses within this distance of the head are treated as sequential
// (track buffer / readahead) and pay transfer cost only.
constexpr uint64_t kNearThresholdBytes = 2u << 20;

}  // namespace

Nanos Disk::SeekCost(uint64_t from, uint64_t to) const {
  uint64_t distance = from > to ? from - to : to - from;
  if (distance <= kNearThresholdBytes) {
    return 0;
  }
  double frac = static_cast<double>(distance) /
                static_cast<double>(kCapacityBytes);
  if (frac > 1.0) {
    frac = 1.0;
  }
  // Seek time grows with the square root of distance (arm acceleration).
  double cost = static_cast<double>(kFullSeekNs) * std::sqrt(frac);
  return static_cast<Nanos>(cost) + kAccessOverheadNs;
}

void Disk::Access(uint64_t addr, uint64_t len, bool write) {
  Nanos cost = SeekCost(head_pos_, addr);
  if (cost > 0) {
    ++stats_.seeks;
  }
  cost += static_cast<Nanos>(kTransferNsPerByte * static_cast<double>(len));
  head_pos_ = addr + len;
  if (write) {
    ++stats_.writes;
    stats_.bytes_written += len;
  } else {
    ++stats_.reads;
    stats_.bytes_read += len;
  }
  stats_.busy_ns += cost;
  clock_->Advance(cost);
}

void Disk::Sync() {
  stats_.busy_ns += kAccessOverheadNs;
  clock_->Advance(kAccessOverheadNs);
}

uint64_t DiskZone::Allocate(uint64_t len) {
  if (size_ == 0) {
    return base_;
  }
  if (next_ + len > size_) {
    next_ = 0;  // wrap: zone reuse
  }
  uint64_t addr = base_ + next_;
  next_ += len;
  return addr;
}

}  // namespace pass::sim
