#ifndef SRC_SIM_DISK_H_
#define SRC_SIM_DISK_H_

// Seek-aware disk model.
//
// The paper's elapsed-time results (Table 2) are explained almost entirely by
// one mechanism: "provenance writes interfere with the workload's metadata
// I/O, leading to extra seeks" (§7, Mercurial discussion). To reproduce that
// shape we model a single-head disk: an access at an address far from the
// current head position pays a distance-dependent seek penalty plus transfer
// time. The base file system places data, journal, and the provenance log in
// different regions, so interleaved provenance traffic produces exactly the
// head movement the paper describes.
//
// A small write-back cache batches consecutive appends, mirroring the disk's
// track buffer; Sync() flushes it.

#include <cstdint>

#include "src/sim/clock.h"

namespace pass::sim {

struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t seeks = 0;
  Nanos busy_ns = 0;
};

class Disk {
 public:
  // Device capacity: normalizes seek distance and bounds the zone layout.
  static constexpr uint64_t kCapacityBytes = 80ull << 30;

  explicit Disk(Clock* clock) : clock_(clock) {}

  // Charge a read/write of `len` bytes at byte address `addr`.
  void Read(uint64_t addr, uint64_t len) { Access(addr, len, /*write=*/false); }
  void Write(uint64_t addr, uint64_t len) { Access(addr, len, /*write=*/true); }

  // Flush: pays one access overhead (cache flush barrier).
  void Sync();

  const DiskStats& stats() const { return stats_; }

 private:
  void Access(uint64_t addr, uint64_t len, bool write);
  Nanos SeekCost(uint64_t from, uint64_t to) const;

  Clock* clock_;
  DiskStats stats_;
  uint64_t head_pos_ = 0;
};

// Region allocator: carves a disk's address space into named zones (data
// blocks, journal, provenance log) so callers get stable, disjoint address
// ranges. Bump allocation within a zone models mostly-sequential layout.
class DiskZone {
 public:
  DiskZone() = default;
  DiskZone(uint64_t base, uint64_t size) : base_(base), size_(size) {}

  // Allocate `len` bytes; wraps at the end of the zone (old space is assumed
  // reclaimed — good enough for layout purposes).
  uint64_t Allocate(uint64_t len);

  uint64_t base() const { return base_; }
  uint64_t size() const { return size_; }
  uint64_t used() const { return next_; }

 private:
  uint64_t base_ = 0;
  uint64_t size_ = 0;
  uint64_t next_ = 0;
};

}  // namespace pass::sim

#endif  // SRC_SIM_DISK_H_
