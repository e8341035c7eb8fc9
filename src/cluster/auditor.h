#ifndef SRC_CLUSTER_AUDITOR_H_
#define SRC_CLUSTER_AUDITOR_H_

// Auditor: the cluster's tamper-detection plane.
//
// Threat model ("Provenance Threat Modeling", PAPERS.md): an adversary with
// access to the durable images — Lasagna logs, cluster journals, or the
// provenance databases they feed — rewrites history after the fact. CRC
// framing only catches accidents; the audit plane catches intent, using the
// hash chains every framed file now carries (log_format.h) plus the
// custody digests migrations seal into their EPOCH_BUMP records.
//
// The auditor works in two steps:
//
//   Seal()      captures the trusted reference while the system is known
//               good: per-file frame maps + writer-side chain heads,
//               per-range and per-pnode database content hashes, and the
//               custody records journaled by migrations. Sealing verifies
//               disk against the writers, so a pre-compromised image is
//               caught at the seal, not silently trusted.
//
//   AuditAll()  re-derives everything from the durable images and
//   Challenge() classifies each divergence:
//
//     truncation      frames missing from a sealed prefix (tail dropped or
//                     a frame spliced out);
//     reordering      same payload multiset, different order;
//     row_edit        a payload byte changed in place (with or without a
//                     recomputed CRC) or a database row re-valued;
//     torn_tail_crash damage strictly *beyond* the sealed prefix that looks
//                     exactly like a torn write — the one benign class,
//                     shared with fig5's crash classification.
//
// File seals are valid until a *legitimate* rewrite (journal checkpoint,
// log consumption by Waldo) replaces the image; the custody audit survives
// those, because EPOCH_BUMP records are never garbage-collected and their
// payloads are checkpoint-preserved verbatim.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/lasagna/log_format.h"
#include "src/util/md5.h"
#include "src/util/rng.h"

namespace pass::cluster {

enum class TamperClass {
  kNone = 0,
  kTruncation,
  kReordering,
  kRowEdit,
  kTornTailCrash,  // benign: indistinguishable from a crash-torn tail
};

const char* TamperClassName(TamperClass klass);

// One verified divergence between a durable image and its seal.
struct AuditFinding {
  int shard = -1;
  std::string file;  // lower-fs path, "db:shard<k>" or "custody:shard<k>"
  TamperClass klass = TamperClass::kNone;
  uint64_t frame = 0;    // first diverging frame (file findings)
  size_t position = 0;   // byte offset of the divergence
  std::string detail;
};

struct AuditReport {
  uint64_t files_verified = 0;
  uint64_t frames_verified = 0;
  uint64_t bytes_hashed = 0;
  uint64_t ranges_verified = 0;   // database content-hash checks
  uint64_t custody_records_verified = 0;
  uint64_t challenges = 0;
  uint64_t benign_torn_tails = 0;  // torn-tail-crash classifications
  double audit_seconds = 0;        // virtual time the verification cost
  std::vector<AuditFinding> findings;

  bool clean() const { return findings.empty(); }
  void Merge(const AuditReport& other);
};

struct AuditOptions {
  bool files = true;    // frame-chain audit of sealed logs + journals
  bool db = true;       // sealed range/pnode content hashes (only valid
                        // while no legitimate mutation ran since the seal)
  bool custody = true;  // journaled EPOCH_BUMP custody records
};

class Auditor {
 public:
  explicit Auditor(ClusterCoordinator* cluster, uint64_t seed = 1);

  // Capture the trusted reference (and verify disk against the writers at
  // the same time — the returned report flags pre-seal divergence).
  AuditReport Seal();

  // Verify every sealed artifact. Read-only; repeatable.
  AuditReport AuditAll(const AuditOptions& options = AuditOptions());

  // `n` random challenges drawn from the sealed surface: "prove frame k of
  // file F under head h" (re-hash the prefix through frame k and fold the
  // rest to the head) and "prove range R's rows still hash to its sealed
  // fingerprint".
  AuditReport Challenge(size_t n);

  // Lineage challenge (the Kepler workflow case): walk `ref`'s ancestry
  // across shards and verify each visited subject's rows against the
  // sealed per-pnode hashes — a forged ancestor record is pinpointed by
  // pnode, not just by shard.
  AuditReport ChallengeLineage(const core::ObjectRef& ref);

  const EpochDigest& sealed_epoch_digest() const { return sealed_digest_; }
  // Every file Seal() sealed, as (shard, lower-fs path): each shard's
  // journal when on disk, then its live Lasagna logs.
  std::vector<std::pair<int, std::string>> sealed_files() const;

 private:
  struct FileSeal {
    int shard = -1;
    std::string path;
    lasagna::FrameMap map;             // reference frame map
    lasagna::ChainHash writer_head{};  // writer-maintained chain head
    uint64_t writer_frames = 0;
    size_t bytes = 0;
  };
  struct RangeSeal {
    int shard = -1;
    core::PnodeRange range{};
    Md5Digest digest{};
  };
  struct CustodySeal {
    int shard = -1;
    uint64_t epoch = 0;
    Md5Digest payload_md5{};  // MD5 of the bump payload as journaled
  };

  fs::MemFs* LowerOf(int shard);
  // Charge the virtual CPU for hashing work and account it in `report`.
  void ChargeHashing(AuditReport* report, uint64_t bytes);
  void RecordFinding(AuditReport* report, AuditFinding finding);
  // Classify one file against its seal and append any finding.
  void VerifyFile(const FileSeal& seal, AuditReport* report);
  void VerifyRange(const RangeSeal& seal, AuditReport* report);
  void VerifyCustody(int shard, AuditReport* report);
  // Per-pnode content check against the sealed per-pnode hashes.
  bool VerifyPnode(int shard, core::PnodeId pnode, AuditReport* report);

  ClusterCoordinator* cluster_;
  Rng rng_;
  std::vector<FileSeal> file_seals_;
  std::vector<RangeSeal> range_seals_;
  // shard -> epoch -> payload MD5 of its journaled custody record.
  std::map<int, std::map<uint64_t, Md5Digest>> custody_seals_;
  // shard -> pnode -> content hash (lineage challenges).
  std::map<int, std::map<core::PnodeId, Md5Digest>> pnode_seals_;
  EpochDigest sealed_digest_;
  bool sealed_ = false;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_AUDITOR_H_
