// Tamper-evidence tests: the fig5-style *tampering* sweep. Where the crash
// sweep enumerates every crash site and expects recovery to repair each
// one, this sweep enumerates every byte-addressable mutation an adversary
// could apply to a sealed journal or log (TamperFs) and expects the auditor
// to name the exact site and class of each injection — with zero findings
// on clean images.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cluster/auditor.h"
#include "src/cluster/cluster.h"
#include "src/cluster/oracle.h"
#include "src/cluster/tamper.h"

namespace pass::cluster {
namespace {

ClusterOptions SmallCluster(int shards) {
  ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = 8;
  return options;
}

// Workload leaving rich durable state: cross-shard lineage (journal holds
// REPL_BATCH / REPL_APPLIED records), one migration (MIGRATE_* + the
// EPOCH_BUMP custody record), and an unsynced log on shard 0.
void BuildAuditedCluster(ClusterCoordinator* cluster) {
  auto a = cluster->WriteWithLineage(0, "/a", "alpha", {});
  ASSERT_TRUE(a.ok());
  auto b = cluster->WriteWithLineage(1, "/b", "beta", {*a});
  ASSERT_TRUE(b.ok());
  auto c = cluster->WriteWithLineage(0, "/c", "gamma", {*b});
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(cluster->Sync().ok());
  auto moved = cluster->MigrateRange({a->pnode, a->pnode + 1}, 1);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  // Fresh provenance left *unsynced*: its rotated log stays on disk for the
  // file sweep (Sync would consume and remove it).
  ASSERT_TRUE(cluster->WriteWithLineage(0, "/d", "delta", {*c}).ok());
  ASSERT_TRUE(cluster->machine(0).volume()->ForceRotate().ok());
}

TEST(AuditTest, CleanClusterSealsAndAuditsClean) {
  ClusterCoordinator cluster(SmallCluster(2));
  BuildAuditedCluster(&cluster);
  Auditor auditor(&cluster, /*seed=*/7);
  AuditReport sealed = auditor.Seal();
  EXPECT_TRUE(sealed.clean()) << sealed.findings[0].detail;
  EXPECT_GT(sealed.files_verified, 0u);
  EXPECT_GT(sealed.frames_verified, 0u);

  AuditReport audit = auditor.AuditAll();
  EXPECT_TRUE(audit.clean()) << audit.findings[0].detail;
  EXPECT_EQ(audit.files_verified, sealed.files_verified);
  EXPECT_GT(audit.bytes_hashed, 0u);
  EXPECT_GT(audit.custody_records_verified, 0u);  // the migration's bump
  EXPECT_GT(audit.ranges_verified, 0u);
  EXPECT_GT(audit.audit_seconds, 0.0);  // verification is charged time

  AuditReport challenges = auditor.Challenge(20);
  EXPECT_TRUE(challenges.clean());
  EXPECT_EQ(challenges.challenges, 20u);
}

TEST(AuditTest, EnumerationCoversEveryTamperKind) {
  ClusterCoordinator cluster(SmallCluster(2));
  BuildAuditedCluster(&cluster);
  TamperFs tamper(cluster.machine(0).volume()->lower());
  std::vector<TamperSite> sites =
      tamper.EnumerateSites(cluster.journal(0).path());
  ASSERT_GT(sites.size(), 6u);
  std::set<TamperKind> kinds;
  std::set<std::string> labels;
  for (const TamperSite& site : sites) {
    kinds.insert(site.kind);
    EXPECT_TRUE(labels.insert(site.description).second)
        << "duplicate site " << site.description;
  }
  EXPECT_EQ(kinds.size(), 6u);
}

// The tentpole acceptance sweep: inject every enumerated tampering into
// every sealed file, one at a time, and require the auditor to (a) detect
// it, (b) name the file, (c) name the first damaged frame, and (d) assign
// the right class — then come back clean once the image is restored.
TEST(AuditTest, TamperSweepNamesExactSiteAndClass) {
  ClusterCoordinator cluster(SmallCluster(2));
  BuildAuditedCluster(&cluster);
  Auditor auditor(&cluster, /*seed=*/7);
  ASSERT_TRUE(auditor.Seal().clean());
  // The verdict audits files only: database + custody audits are exercised
  // separately, and a file injection must be pinned to its file, not echoed
  // by other planes.
  const auto targets = auditor.sealed_files();
  ASSERT_GT(targets.size(), 2u);  // journals + at least one live log

  size_t injections = 0;
  for (const auto& [shard, path] : targets) {
    TamperFs tamper(cluster.machine(shard).volume()->lower());
    for (const TamperSite& site : tamper.EnumerateSites(path)) {
      EXPECT_EQ(
          CheckTamperVerdict(&auditor, &cluster, shard, path, site).ToString(),
          "OK");
      ++injections;
    }
  }
  // The sweep must actually have swept: every kind, many sites.
  EXPECT_GT(injections, 50u);
}

// A database row edit is invisible to the file chains (the db is derived
// state) but caught by the sealed range fingerprints — and pinpointed to
// the pnode by a lineage challenge.
TEST(AuditTest, DatabaseRowEditCaughtByRangeAndLineageAudit) {
  ClusterCoordinator cluster(SmallCluster(2));
  BuildAuditedCluster(&cluster);
  Auditor auditor(&cluster, /*seed=*/7);
  ASSERT_TRUE(auditor.Seal().clean());

  auto c = cluster.RefOfPath(0, "/c");
  ASSERT_TRUE(c.ok());
  int owner = cluster.OwnerOf(c->pnode);
  // Forge a record on the owning shard: re-type the object in place.
  cluster.shard_db(owner).Insert(
      lasagna::LogEntry{*c, core::Record::Type("forged")});

  AuditReport report =
      auditor.AuditAll(AuditOptions{.files = false, .db = true,
                                    .custody = false});
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.findings[0].klass, TamperClass::kRowEdit);
  EXPECT_EQ(report.findings[0].shard, owner);

  AuditReport lineage = auditor.ChallengeLineage(*c);
  ASSERT_FALSE(lineage.clean());
  EXPECT_NE(lineage.findings[0].detail.find(std::to_string(c->pnode)),
            std::string::npos)
      << lineage.findings[0].detail;
}

// The custody audit survives a checkpoint (a *legitimate* journal rewrite):
// EPOCH_BUMP payloads are re-emitted verbatim, so their sealed hashes still
// verify — and an attacker who edits the custody digest bytes afterwards,
// even fixing the CRC, is caught.
TEST(AuditTest, CustodyAuditSurvivesCheckpointAndCatchesDigestEdit) {
  ClusterCoordinator cluster(SmallCluster(2));
  BuildAuditedCluster(&cluster);
  Auditor auditor(&cluster, /*seed=*/7);
  ASSERT_TRUE(auditor.Seal().clean());

  // Recover() checkpoints every journal: file seals are stale now (their
  // images were legitimately rewritten), custody seals must not be.
  ASSERT_TRUE(cluster.Recover().ok());
  AuditOptions custody_only{.files = false, .db = false, .custody = true};
  AuditReport after = auditor.AuditAll(custody_only);
  EXPECT_TRUE(after.clean()) << after.findings[0].detail;
  EXPECT_GT(after.custody_records_verified, 0u);

  // Flip the last payload byte of the bump — the tail of the sealed range
  // digest — with the CRC re-fixed.
  int bump_shard = EditCustodyDigest(&cluster).value();
  auto state = cluster.journal(bump_shard).Scan();
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->epoch_bumps[0].has_digests);

  AuditReport caught = auditor.AuditAll(custody_only);
  ASSERT_FALSE(caught.clean());
  EXPECT_EQ(caught.findings[0].klass, TamperClass::kRowEdit);
  EXPECT_EQ(caught.findings[0].shard, bump_shard);
  EXPECT_NE(caught.findings[0].detail.find("custody"), std::string::npos);
}

// Epoch digests: two identical clusters agree on the root; any tampering
// that survives into state moves a shard digest and therefore the root.
TEST(AuditTest, EpochDigestIsDeterministicAndTamperSensitive) {
  ClusterCoordinator a(SmallCluster(2));
  ClusterCoordinator b(SmallCluster(2));
  BuildAuditedCluster(&a);
  BuildAuditedCluster(&b);
  EpochDigest da = a.ComputeEpochDigest();
  EpochDigest db = b.ComputeEpochDigest();
  EXPECT_EQ(da.epoch, db.epoch);
  EXPECT_EQ(da.root, db.root);
  ASSERT_EQ(da.shards.size(), 2u);
  EXPECT_NE(da.shards[0].digest, da.shards[1].digest);

  // Recomputing without mutation is stable.
  EXPECT_EQ(a.ComputeEpochDigest().root, da.root);

  // A forged database row moves the owner's ranges digest and the root.
  auto c = a.RefOfPath(0, "/c");
  ASSERT_TRUE(c.ok());
  a.shard_db(a.OwnerOf(c->pnode))
      .Insert(lasagna::LogEntry{*c, core::Record::Type("forged")});
  EXPECT_NE(a.ComputeEpochDigest().root, da.root);
}

}  // namespace
}  // namespace pass::cluster
