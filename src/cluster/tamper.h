#ifndef SRC_CLUSTER_TAMPER_H_
#define SRC_CLUSTER_TAMPER_H_

// TamperFs: an adversarial shim over a shard's lower MemFs for the audit
// tests and bench/fig10_audit. Where fig5 enumerates every crash site and
// replays the workload into each, the tamper sweep enumerates every
// byte-addressable mutation an adversary with disk access could apply to a
// framed file — flip a payload byte (with or without re-fixing the CRC, the
// latter modelling an attacker who understands the format), delete a frame,
// swap two adjacent frames, truncate at or inside a frame — injects each
// one, and asks the auditor to name the exact site and class.
//
// TamperFs never touches write paths: it edits durable images in place via
// the raw MemFs API, exactly like an adversary mutating the disk under a
// running system.

#include <string>
#include <vector>

#include "src/fs/memfs.h"
#include "src/lasagna/log_format.h"
#include "src/util/result.h"

namespace pass::cluster {

enum class TamperKind {
  kFlipByte,        // flip one payload byte; breaks the frame CRC
  kFlipByteFixCrc,  // flip one payload byte AND recompute the CRC
  kDeleteFrame,     // splice one whole frame out of the image
  kSwapFrames,      // exchange this frame with its successor
  kTruncateAtFrame,    // drop the image from this frame's header on
  kTruncateMidFrame,   // drop the image from inside this frame's payload
};

const char* TamperKindName(TamperKind kind);

// One injectable mutation, addressed down to the byte.
struct TamperSite {
  TamperKind kind = TamperKind::kFlipByte;
  size_t frame = 0;        // index of the targeted frame
  size_t byte_offset = 0;  // offset inside the frame (flips: payload byte)
  std::string description; // "flip_byte@frame3+17" — stable test/CSV label
};

class TamperFs {
 public:
  explicit TamperFs(fs::MemFs* fs) : fs_(fs) {}

  // Every applicable tampering site of the framed file at `path`.
  // `flips_per_frame` samples that many byte positions per frame for the
  // two flip kinds (the full cross-product is quadratic in file size);
  // structural kinds (delete/swap/truncate) enumerate every frame. Swaps of
  // identical adjacent payloads are skipped: exchanging equal bytes is not
  // an observable mutation.
  std::vector<TamperSite> EnumerateSites(const std::string& path,
                                         size_t flips_per_frame = 2) const;

  // Apply one mutation to the durable image.
  Status Inject(const std::string& path, const TamperSite& site);

  // Cut the last `bytes` bytes off the durable image: the tail a crash
  // tears off the final write. An error unless the image is longer.
  Status TearTail(const std::string& path, size_t bytes);

 private:
  fs::MemFs* fs_;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_TAMPER_H_
