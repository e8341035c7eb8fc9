// Tests for the portal tier: epoch-pinned sessions whose answers stay
// consistent across live migration (backed by the coordinator's deferred
// source-side retirement), the shared cache budget with per-tenant quotas
// and FIFO admission queueing, and the portal.* metric surface.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/oracle.h"
#include "src/cluster/portal.h"
#include "src/obs/stats_bridge.h"
#include "src/workloads/lineage_chain.h"

namespace pass::cluster {
namespace {

using workloads::WriteLineageChain;

ClusterOptions SmallCluster(int shards) {
  ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = 16;
  return options;
}

std::vector<std::string> SessionAnswer(PortalSession* session,
                                       const std::string& query) {
  auto result = session->Run(query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->RowKeys() : std::vector<std::string>{};
}

const char kTailClosure[] =
    "select Ancestor from Provenance.file as F F.input* as Ancestor "
    "where F.name = \"/f11\"";

TEST(PortalSessionTest, PinCapturesEpochAndJournalHorizons) {
  ClusterCoordinator cluster(SmallCluster(4));
  ASSERT_TRUE(WriteLineageChain(&cluster, 8, /*spread=*/4).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  PortalTier tier(&cluster);
  auto opened = tier.Open();
  ASSERT_TRUE(opened.ok());
  PortalSession* session = opened->get();
  EXPECT_EQ(session->pinned_epoch(), cluster.shard_map().epoch());
  ASSERT_EQ(session->journal_horizons().size(),
            static_cast<size_t>(cluster.shard_count()));
  for (int s = 0; s < cluster.shard_count(); ++s) {
    EXPECT_EQ(session->journal_horizons()[s],
              cluster.journal(s).records_appended());
  }
  EXPECT_EQ(cluster.min_pinned_epoch(), session->pinned_epoch());
}

// Tentpole acceptance: a session pinned before a migration keeps answering
// exactly the merged database *during* the migration window — the
// coordinator defers the source-side delete while the pin routes the moved
// range to the old owner — and after RePin() the deferral retires and the
// session follows the live map.
TEST(PortalSessionTest, PinnedSessionAnswersConsistentlyAcrossMigration) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = WriteLineageChain(&cluster, 12, /*spread=*/4).value();
  ASSERT_TRUE(cluster.Sync().ok());

  PortalTier tier(&cluster);
  auto opened = tier.Open();
  ASSERT_TRUE(opened.ok());
  PortalSession* session = opened->get();
  auto before = SessionAnswer(session, kTailClosure);
  EXPECT_EQ(before, MergedRows(cluster, kTailClosure).value());

  // Live migration while the session stays pinned: /f5's range (shard 1)
  // moves to shard 3. The source-side delete must be held back.
  core::PnodeRange range{refs[5].pnode, refs[5].pnode + 1};
  uint64_t deleted_before = cluster.migration_stats().rows_deleted;
  ASSERT_TRUE(cluster.MigrateRange(range, 3).ok());
  EXPECT_EQ(cluster.deferred_retirements(), 1u);
  EXPECT_EQ(cluster.migration_stats().rows_deleted, deleted_before);
  EXPECT_EQ(cluster.OwnerOf(refs[5].pnode), 3);  // live map moved on

  // Mid-migration: the pinned snapshot still routes /f5 to shard 1, whose
  // rows are intact, so the answer is unchanged and equals the merged view.
  auto during = SessionAnswer(session, kTailClosure);
  EXPECT_EQ(during, before);
  EXPECT_EQ(during, MergedRows(cluster, kTailClosure).value());

  // Re-pin: the old pin releases, the deferred delete retires, and the
  // session adopts the bumped map — same answers through the new owner.
  session->RePin();
  EXPECT_EQ(cluster.deferred_retirements(), 0u);
  EXPECT_GT(cluster.migration_stats().rows_deleted, deleted_before);
  EXPECT_EQ(session->pinned_epoch(), cluster.shard_map().epoch());
  auto after = SessionAnswer(session, kTailClosure);
  EXPECT_EQ(after, before);
  EXPECT_EQ(after, MergedRows(cluster, kTailClosure).value());
}

// Closing the pinned session (not just RePin) must also release deferrals.
TEST(PortalSessionTest, ClosingSessionRetiresDeferredDeletes) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = WriteLineageChain(&cluster, 12, /*spread=*/4).value();
  ASSERT_TRUE(cluster.Sync().ok());

  PortalTier tier(&cluster);
  auto opened = tier.Open();
  ASSERT_TRUE(opened.ok());
  uint64_t id = opened->id();
  core::PnodeRange range{refs[5].pnode, refs[5].pnode + 1};
  ASSERT_TRUE(cluster.MigrateRange(range, 3).ok());
  EXPECT_EQ(cluster.deferred_retirements(), 1u);

  ASSERT_TRUE(tier.Close(id).ok());
  EXPECT_EQ(cluster.deferred_retirements(), 0u);
  // The migrated rows now live only on the destination; a fresh portal and
  // the merged view agree.
  EXPECT_EQ(CheckFederatedMatchesMerged(&cluster, {kTailClosure}).ToString(),
            "OK");
}

// Regression: a deferred source-side delete must not fire after a later
// migration moves the range *back* onto that shard — the re-ship makes the
// shard's copy live again, so the stale deferral is cancelled (committed
// without the delete), not left to destroy rows the shard now owns.
TEST(PortalSessionTest, MigratingBackCancelsOverlappingDeferredDelete) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = WriteLineageChain(&cluster, 12, /*spread=*/4).value();
  ASSERT_TRUE(cluster.Sync().ok());

  PortalTier tier(&cluster);
  auto opened = tier.Open();
  ASSERT_TRUE(opened.ok());
  PortalSession* session = opened->get();
  auto before = SessionAnswer(session, kTailClosure);
  ASSERT_EQ(before, MergedRows(cluster, kTailClosure).value());

  core::PnodeRange range{refs[5].pnode, refs[5].pnode + 1};
  int home = cluster.OwnerOf(refs[5].pnode);
  ASSERT_TRUE(cluster.MigrateRange(range, 3).ok());
  ASSERT_EQ(cluster.deferred_retirements(), 1u);

  // Move the range straight back while the pin still holds the first
  // migration's delete. The first deferral is cancelled; the second
  // migration's own delete (on shard 3) defers in its place.
  ASSERT_TRUE(cluster.MigrateRange(range, home).ok());
  EXPECT_EQ(cluster.OwnerOf(refs[5].pnode), home);
  EXPECT_EQ(cluster.deferred_retirements(), 1u);

  // Release the pin: retirement may only delete shard 3's copy, never the
  // rows shard `home` owns again.
  session->RePin();
  EXPECT_EQ(cluster.deferred_retirements(), 0u);
  auto after = SessionAnswer(session, kTailClosure);
  EXPECT_EQ(after, before);
  EXPECT_EQ(after, MergedRows(cluster, kTailClosure).value());
}

// Same scenario through a crash: the cancelled migration is committed on
// disk before the re-ship begins, so Recover()'s roll-forward must not run
// its delete either.
TEST(PortalSessionTest, RecoveryAfterMigrateBackKeepsReShippedRows) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = WriteLineageChain(&cluster, 12, /*spread=*/4).value();
  ASSERT_TRUE(cluster.Sync().ok());
  auto merged_before = MergedRows(cluster, kTailClosure).value();

  PortalTier tier(&cluster);
  auto opened = tier.Open();
  ASSERT_TRUE(opened.ok());
  uint64_t id = opened->id();
  core::PnodeRange range{refs[5].pnode, refs[5].pnode + 1};
  int home = cluster.OwnerOf(refs[5].pnode);
  ASSERT_TRUE(cluster.MigrateRange(range, 3).ok());
  ASSERT_TRUE(cluster.MigrateRange(range, home).ok());

  // Recover() forgets pins and deferrals and replays the journals; only the
  // still-open second migration may roll its delete forward (on shard 3).
  auto report = cluster.Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(cluster.deferred_retirements(), 0u);
  EXPECT_EQ(cluster.OwnerOf(refs[5].pnode), home);

  EXPECT_EQ(MergedRows(cluster, kTailClosure).value(), merged_before);
  EXPECT_EQ(CheckFederatedMatchesMerged(&cluster, {kTailClosure}).ToString(),
            "OK");
  ASSERT_TRUE(tier.Close(id).ok());  // pre-crash session just unpins cleanly
}

// A session's cache survives RePin: only entries whose range was reassigned
// since the old pin drop; the rest keep their bytes.
TEST(PortalSessionTest, RePinKeepsUnaffectedCacheEntries) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = WriteLineageChain(&cluster, 12, /*spread=*/4).value();
  ASSERT_TRUE(cluster.Sync().ok());

  PortalTier tier(&cluster);
  auto opened = tier.Open();
  ASSERT_TRUE(opened.ok());
  PortalSession* session = opened->get();
  SessionAnswer(session, kTailClosure);  // warm
  size_t warm_bytes = session->source().cache_bytes_used();
  ASSERT_GT(warm_bytes, 0u);

  core::PnodeRange range{refs[5].pnode, refs[5].pnode + 1};
  ASSERT_TRUE(cluster.MigrateRange(range, 3).ok());
  session->RePin();
  SessionAnswer(session, kTailClosure);
  // Only /f5's entries were dropped and refilled; no full flush happened.
  EXPECT_EQ(session->source().stats().cache_invalidations_full, 0u);
  EXPECT_GT(session->source().stats().cache_entries_invalidated, 0u);
  EXPECT_LT(session->source().stats().cache_entries_invalidated,
            session->source().stats().cache_hits +
                session->source().stats().cache_misses);
}

TEST(PortalTierTest, TenantQuotaIsolatesBudgets) {
  ClusterCoordinator cluster(SmallCluster(2));
  PortalTierOptions options;
  options.total_cache_bytes = 4u << 20;
  PortalTier tier(&cluster, options);
  tier.SetTenantQuota("alice", 1u << 20);

  PortalSessionOptions alice;
  alice.tenant = "alice";
  alice.cache_bytes = 1u << 20;
  auto first_alice = tier.Open(alice);
  ASSERT_TRUE(first_alice.ok());
  // Alice is at quota: her next open is rejected outright — not queued —
  // while Bob still fits in the tier budget.
  auto again = tier.Open(alice);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), Code::kNoSpace);
  EXPECT_EQ(tier.queued(), 0u);

  PortalSessionOptions bob;
  bob.tenant = "bob";
  bob.cache_bytes = 2u << 20;
  auto first_bob = tier.Open(bob);
  ASSERT_TRUE(first_bob.ok());
  EXPECT_EQ(tier.tenant_bytes_reserved("alice"), 1u << 20);
  EXPECT_EQ(tier.tenant_bytes_reserved("bob"), 2u << 20);
  EXPECT_EQ(tier.bytes_reserved(), 3u << 20);
  EXPECT_EQ(tier.admission_stats().admitted, 2u);
  EXPECT_EQ(tier.admission_stats().rejected_quota, 1u);
}

TEST(PortalTierTest, BudgetExhaustionQueuesThenAdmitsOnClose) {
  ClusterCoordinator cluster(SmallCluster(2));
  PortalTierOptions options;
  options.total_cache_bytes = 2u << 20;
  options.max_queued = 1;
  PortalTier tier(&cluster, options);

  PortalSessionOptions one_mb;
  one_mb.cache_bytes = 1u << 20;
  auto first = tier.Open(one_mb);
  auto second = tier.Open(one_mb);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  // Budget full: a third tenant (inside its own quota) parks in the queue,
  // a fourth finds the queue full. Distinct tenants, because the "default"
  // tenant's quota already equals the whole tier budget.
  PortalSessionOptions carol = one_mb;
  carol.tenant = "carol";
  auto third = tier.Open(carol);
  EXPECT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), Code::kUnavailable);
  EXPECT_EQ(tier.queued(), 1u);
  PortalSessionOptions dave = one_mb;
  dave.tenant = "dave";
  auto fourth = tier.Open(dave);
  EXPECT_FALSE(fourth.ok());
  EXPECT_EQ(fourth.status().code(), Code::kNoSpace);

  // A close frees bytes and admits the queued request FIFO.
  ASSERT_TRUE(tier.Close(first->id()).ok());
  EXPECT_EQ(tier.queued(), 0u);
  EXPECT_EQ(tier.open_sessions(), 2u);
  EXPECT_EQ(tier.bytes_reserved(), 2u << 20);
  const PortalAdmissionStats& stats = tier.admission_stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.admitted_from_queue, 1u);
  EXPECT_EQ(stats.queued, 1u);
  EXPECT_EQ(stats.rejected_budget, 1u);
}

// Regression: cache_bytes == 0 is a valid (cache-disabling) reservation;
// closing the second of two 0-byte sessions must not touch an already
// erased tenant ledger entry.
TEST(PortalTierTest, ZeroByteSessionsCloseCleanly) {
  ClusterCoordinator cluster(SmallCluster(2));
  PortalTier tier(&cluster);
  PortalSessionOptions zero;
  zero.cache_bytes = 0;
  auto a = tier.Open(zero);
  auto b = tier.Open(zero);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  a->Close();
  b->Close();
  EXPECT_EQ(tier.open_sessions(), 0u);
  EXPECT_EQ(tier.bytes_reserved(), 0u);
  EXPECT_EQ(tier.tenant_bytes_reserved("default"), 0u);
}

TEST(PortalTierTest, MetricsSurfaceSessionsAndAdmission) {
  ClusterCoordinator cluster(SmallCluster(2));
  PortalTierOptions options;
  options.total_cache_bytes = 2u << 20;
  PortalTier tier(&cluster, options);
  PortalSessionOptions one_mb;
  one_mb.cache_bytes = 1u << 20;
  auto first = tier.Open(one_mb);
  auto second = tier.Open(one_mb);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  tier.PublishMetrics();
  obs::MetricRegistry& m = cluster.env().obs().metrics();
  obs::Publish(&m, tier.admission_stats());
  EXPECT_EQ(m.GetGauge("portal.sessions_open").value(), 2);
  EXPECT_EQ(m.GetGauge("portal.bytes_reserved").value(),
            static_cast<int64_t>(2u << 20));
  EXPECT_EQ(m.GetGauge("portal.queue_depth").value(), 0);
  EXPECT_EQ(m.GetGauge("portal.admission.admitted").value(), 2);
  EXPECT_EQ(m.GetGauge("portal.admission.rejected_quota").value(), 0);
}

}  // namespace
}  // namespace pass::cluster
