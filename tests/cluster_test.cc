// Tests for the sharded provenance cluster: shard provisioning, batched
// cross-shard ingest/replication, and federated PQL queries.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cluster/auditor.h"
#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/cluster/ingest.h"
#include "src/cluster/oracle.h"
#include "src/cluster/standing.h"
#include "src/cluster/tamper.h"
#include "src/lasagna/log_format.h"
#include "src/pql/eval.h"
#include "src/workloads/lineage_chain.h"

namespace pass::cluster {
namespace {

using workloads::WriteLineageChain;

ClusterOptions SmallCluster(int shards, size_t batch = 16) {
  ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = batch;
  return options;
}

// Equivalence probes over the /f0 .. /f11 chain, checked through the
// cluster oracle.
const std::vector<std::string> kQueries = {
    // Full ancestry closure of the chain tail, crossing every shard.
    "select Ancestor from Provenance.file as F F.input* as Ancestor "
    "where F.name = \"/f11\"",
    // Descendant closure from the chain head.
    "select D from Provenance.file as F F.~input* as D "
    "where F.name = \"/f0\"",
    // Direct ancestors only.
    "select A from Provenance.file as F F.input as A "
    "where F.name = \"/f7\"",
    // Typed root set spanning every shard.
    "select F.name from Provenance.file as F",
};

TEST(ClusterTest, ProvisionsShardsWithDisjointPnodeSpaces) {
  ClusterCoordinator cluster(SmallCluster(4));
  ASSERT_EQ(cluster.shard_count(), 4);
  for (int shard = 0; shard < 4; ++shard) {
    auto ref = cluster.WriteWithLineage(shard, "/probe", "x", {});
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(cluster.OwnerOf(ref->pnode), shard);
  }
  EXPECT_EQ(cluster.OwnerOf(core::PnodeId{200} << 48), -1);
}

TEST(ClusterTest, SyncRecoversEachShardLogIntoLocalDb) {
  ClusterCoordinator cluster(SmallCluster(3));
  for (int shard = 0; shard < 3; ++shard) {
    ASSERT_TRUE(cluster
                    .WriteWithLineage(shard, "/local" + std::to_string(shard),
                                      "data", {})
                    .ok());
  }
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_GT(cluster.entries_recovered(), 0u);
  for (int shard = 0; shard < 3; ++shard) {
    std::string name = "/local" + std::to_string(shard);
    EXPECT_EQ(cluster.shard_db(shard).PnodesByName(name).size(), 1u)
        << "shard " << shard;
    // Purely local provenance does not replicate.
    for (int other = 0; other < 3; ++other) {
      if (other != shard) {
        EXPECT_TRUE(cluster.shard_db(other).PnodesByName(name).empty());
      }
    }
    // Consumed logs are gone: a second sync is a no-op.
  }
  uint64_t recovered = cluster.entries_recovered();
  uint64_t batches = cluster.ingest_stats().batches_sent;
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_EQ(cluster.entries_recovered(), recovered);
  EXPECT_EQ(cluster.ingest_stats().batches_sent, batches);
}

TEST(ClusterTest, CrossShardEdgesReplicateToAncestorOwner) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto a = cluster.WriteWithLineage(0, "/a", "aaa", {});
  ASSERT_TRUE(a.ok());
  auto b = cluster.WriteWithLineage(1, "/b", "bbb", {*a});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(cluster.Sync().ok());

  EXPECT_GT(cluster.ingest_stats().entries_replicated, 0u);
  EXPECT_GT(cluster.ingest_stats().batches_sent, 0u);

  // Shard 1 (subject owner) has the forward edge.
  EXPECT_FALSE(cluster.shard_db(1).Inputs(*b).empty());
  // Shard 0 (ancestor owner) got the replicated reverse edge: /a's
  // descendants include /b even though /b lives on another machine.
  auto outputs = cluster.shard_db(0).Outputs(*a);
  ASSERT_FALSE(outputs.empty());
  EXPECT_EQ(outputs[0].pnode, b->pnode);
}

TEST(ClusterTest, FederatedFollowRoutesAcrossShards) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = WriteLineageChain(&cluster, 8, /*spread=*/4).value();
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  uint64_t trips_before = cluster.network().stats().round_trips;

  // Ancestors of /f5 (shard 1) include /f4 (shard 0).
  auto ancestors = source.Follow(refs[5], "input", /*inverse=*/false);
  bool found = false;
  for (const auto& node : ancestors) {
    found = found || node.pnode == refs[4].pnode;
  }
  EXPECT_TRUE(found);
  // Descendants of /f4 (shard 0) include /f5 (shard 1) via the replicated
  // reverse edge.
  auto descendants = source.Follow(refs[4], "input", /*inverse=*/true);
  found = false;
  for (const auto& node : descendants) {
    found = found || node.pnode == refs[5].pnode;
  }
  EXPECT_TRUE(found);
  // The /f5 lookup was remote from portal 0 and charged the network.
  EXPECT_GT(source.stats().remote_ops, 0u);
  EXPECT_GT(cluster.network().stats().round_trips, trips_before);
}

// Acceptance: a PQL ancestry query over a 4-shard cluster returns the same
// result set as the equivalent single-merged-database run.
TEST(ClusterTest, FederatedAncestryQueryMatchesMergedSingleDb) {
  ClusterCoordinator cluster(SmallCluster(4));
  ASSERT_TRUE(WriteLineageChain(&cluster, 12, /*spread=*/4).ok());
  // A second, unrelated lineage island on shard 2.
  ASSERT_TRUE(cluster.WriteWithLineage(2, "/island", "iii", {}).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  EXPECT_EQ(CheckFederatedMatchesMerged(&cluster, kQueries).ToString(), "OK");
}

TEST(ClusterTest, BatchedIngestReducesRoundTripsAtEqualRecordCounts) {
  auto run = [](size_t batch) {
    ClusterCoordinator cluster(SmallCluster(2, batch));
    EXPECT_TRUE(WriteLineageChain(&cluster, 30, /*spread=*/2).ok());
    EXPECT_TRUE(cluster.Sync().ok());
    return std::make_pair(cluster.ingest_stats(),
                          cluster.network().stats().round_trips);
  };
  auto [unbatched_stats, unbatched_trips] = run(1);
  auto [batched_stats, batched_trips] = run(64);

  // Same records crossed the wire either way.
  ASSERT_GT(unbatched_stats.entries_replicated, 0u);
  EXPECT_EQ(batched_stats.entries_replicated,
            unbatched_stats.entries_replicated);
  // Batching collapses round trips.
  EXPECT_LT(batched_stats.batches_sent, unbatched_stats.batches_sent);
  EXPECT_LT(batched_trips, unbatched_trips);
  EXPECT_EQ(unbatched_stats.batches_sent, unbatched_stats.entries_replicated);
}

// ---- ShardMap routing / live migration --------------------------------------

TEST(ClusterTest, MigrateRangeMovesOwnershipAndRows) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto a = cluster.WriteWithLineage(0, "/a", "aaa", {});
  ASSERT_TRUE(a.ok());
  auto b = cluster.WriteWithLineage(1, "/b", "bbb", {*a});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(cluster.Sync().ok());

  ASSERT_EQ(cluster.OwnerOf(a->pnode), 0);
  uint64_t epoch = cluster.shard_map().epoch();
  uint64_t trips = cluster.network().stats().round_trips;

  core::PnodeRange range{a->pnode, a->pnode + 1};
  auto report = cluster.MigrateRange(range, 1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->from, 0);
  EXPECT_EQ(report->to, 1);
  EXPECT_GT(report->entries_shipped + report->entries_skipped, 0u);
  EXPECT_GT(report->batches, 0u);
  EXPECT_GT(report->rows_deleted, 0u);

  // Ownership, epoch, and the network meter all moved.
  EXPECT_EQ(cluster.OwnerOf(a->pnode), 1);
  EXPECT_GT(cluster.shard_map().epoch(), epoch);
  EXPECT_GT(cluster.network().stats().round_trips, trips);
  EXPECT_EQ(cluster.migration_stats().migrations, 1u);

  // The destination now answers for /a: records and the reverse edge to /b.
  EXPECT_FALSE(cluster.shard_db(1).RecordsOfAllVersions(a->pnode).empty());
  auto outputs = cluster.shard_db(1).Outputs(*a);
  ASSERT_FALSE(outputs.empty());
  EXPECT_EQ(outputs[0].pnode, b->pnode);
  // The source dropped the moved rows.
  EXPECT_TRUE(cluster.shard_db(0).RecordsOfAllVersions(a->pnode).empty());
}

TEST(ClusterTest, MigrateRangeRejectsSplitOrForeignRanges) {
  ClusterCoordinator cluster(SmallCluster(2));
  EXPECT_FALSE(cluster.MigrateRange(core::ShardSpace(7), 1).ok());
  EXPECT_FALSE(
      cluster.MigrateRange({core::ShardSpace(0).begin,
                            core::ShardSpace(1).begin + 10}, 1).ok());
  ASSERT_TRUE(cluster.MigrateRange(core::ShardSpace(0), 1).ok());
  EXPECT_FALSE(cluster.MigrateRange(core::ShardSpace(0), 5).ok());
  // Shard 1 now owns both home spaces, so this range is uniformly owned yet
  // spans a home boundary: it must be rejected before any rows ship.
  uint64_t trips = cluster.network().stats().round_trips;
  uint64_t migrations = cluster.migration_stats().migrations;
  EXPECT_FALSE(cluster
                   .MigrateRange({core::ShardSpace(0).begin,
                                  core::ShardSpace(1).begin + 10}, 0)
                   .ok());
  EXPECT_EQ(cluster.network().stats().round_trips, trips);
  EXPECT_EQ(cluster.migration_stats().migrations, migrations);
}

// Acceptance: interleave workloads, migrations, and Sync() — the federated
// query must keep matching the merged single-database answer throughout.
TEST(ClusterTest, FederatedQueriesSurviveInterleavedMigrations) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = WriteLineageChain(&cluster, 12, /*spread=*/4).value();
  ASSERT_TRUE(cluster.WriteWithLineage(2, "/island", "iii", {}).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_EQ(CheckFederatedMatchesMerged(&cluster, kQueries).ToString(), "OK")
      << "before any migration";

  // Move the prefix of shard 0's space (covering /f0, /f4) to shard 2.
  core::PnodeRange prefix{core::ShardSpace(0).begin, refs[4].pnode + 1};
  ASSERT_TRUE(cluster.MigrateRange(prefix, 2).ok());
  EXPECT_EQ(CheckFederatedMatchesMerged(&cluster, kQueries).ToString(), "OK")
      << "after prefix migration";

  // More workload after the migration, including writes on shard 0 that
  // disclose lineage to a migrated ancestor.
  auto extra = cluster.WriteWithLineage(0, "/extra", "eee", {refs[0]});
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_EQ(CheckFederatedMatchesMerged(&cluster, kQueries).ToString(), "OK")
      << "after post-migration workload";

  // Move shard 1's *entire* home space to shard 3, then keep writing on
  // shard 1: even freshly minted pnodes belong to shard 3 now.
  ASSERT_TRUE(cluster.MigrateRange(core::ShardSpace(1), 3).ok());
  auto late = cluster.WriteWithLineage(1, "/late", "lll", {*extra});
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(cluster.OwnerOf(late->pnode), 3);
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_EQ(CheckFederatedMatchesMerged(&cluster, kQueries).ToString(), "OK")
      << "after whole-space migration";

  // And back again: migrating home restores the default route.
  ASSERT_TRUE(cluster.MigrateRange(core::ShardSpace(1), 1).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_EQ(cluster.OwnerOf(late->pnode), 1);
  EXPECT_EQ(CheckFederatedMatchesMerged(&cluster, kQueries).ToString(), "OK")
      << "after migrating home";
}

// Satellite regression: a FederatedSource created *before* a migration must
// pick up post-migration routing (it is wired to the live ShardMap).
TEST(ClusterTest, SourceCreatedBeforeMigrationRoutesThroughLiveMap) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto a = cluster.WriteWithLineage(0, "/a", "aaa", {});
  ASSERT_TRUE(a.ok());
  auto b = cluster.WriteWithLineage(1, "/b", "bbb", {*a});
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource stale = cluster.Source(/*portal_shard=*/0);
  const std::string query =
      "select D from Provenance.file as F F.~input* as D "
      "where F.name = \"/a\"";
  auto before = QueryRows(&stale, query).value();
  EXPECT_FALSE(before.empty());

  ASSERT_TRUE(
      cluster.MigrateRange({a->pnode, a->pnode + 1}, 1).ok());

  // Same source object, post-migration: answers come from shard 1 now and
  // still match both the pre-migration answer and the merged view.
  auto after = QueryRows(&stale, query).value();
  EXPECT_EQ(after, before);
  EXPECT_EQ(MergedRows(cluster, query).value(), after);
}

// Satellite: federated queries with a non-default portal shard.
TEST(ClusterTest, NonZeroPortalShardServesLocalOpsWithoutNetwork) {
  ClusterCoordinator cluster(SmallCluster(3));
  auto refs = WriteLineageChain(&cluster, 9, /*spread=*/3).value();
  ASSERT_TRUE(cluster.Sync().ok());

  const std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f8\"";
  auto want = MergedRows(cluster, query).value();

  for (int portal = 0; portal < 3; ++portal) {
    FederatedSource source = cluster.Source(portal);
    EXPECT_EQ(QueryRows(&source, query).value(), want) << "portal " << portal;
    // Every portal serves its own pnodes locally and routes the rest.
    EXPECT_GT(source.stats().local_ops, 0u) << "portal " << portal;
    EXPECT_GT(source.stats().remote_ops, 0u) << "portal " << portal;
  }

  // A lookup of a portal-owned pnode is free; the same lookup from another
  // portal charges the network.
  FederatedSource portal2 = cluster.Source(2);
  uint64_t trips = cluster.network().stats().round_trips;
  portal2.Follow(refs[2], "input", /*inverse=*/false);  // /f2 lives on shard 2
  EXPECT_EQ(cluster.network().stats().round_trips, trips);
  portal2.Follow(refs[1], "input", /*inverse=*/false);  // /f1 lives on shard 1
  EXPECT_EQ(cluster.network().stats().round_trips, trips + 1);
}

// Satellite: per-shard size accessors surface in cluster stats.
TEST(ClusterTest, ShardSizesReportPerShardRecordCounts) {
  ClusterCoordinator cluster(SmallCluster(2));
  ASSERT_TRUE(WriteLineageChain(&cluster, 6, /*spread=*/2).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  auto sizes = cluster.shard_sizes();
  ASSERT_EQ(sizes.size(), 2u);
  for (int shard = 0; shard < 2; ++shard) {
    EXPECT_EQ(sizes[shard].records, cluster.shard_db(shard).RecordCount());
    EXPECT_EQ(sizes[shard].edges, cluster.shard_db(shard).EdgeCount());
    EXPECT_GT(sizes[shard].owned_rows, 0u);
  }
  // Owned rows move with a migration; totals are conserved.
  uint64_t owned_before = sizes[0].owned_rows + sizes[1].owned_rows;
  ASSERT_TRUE(cluster.MigrateRange(core::ShardSpace(0), 1).ok());
  auto after = cluster.shard_sizes();
  EXPECT_EQ(after[0].owned_rows, 0u);
  EXPECT_EQ(after[1].owned_rows, owned_before);
}

TEST(ClusterTest, RebalanceConvergesASkewedCluster) {
  ClusterCoordinator cluster(SmallCluster(4, /*batch=*/32));
  // Heavily skewed workload: every write lands on shard 0.
  ASSERT_TRUE(WriteLineageChain(&cluster, 24, /*spread=*/1).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  auto before = cluster.shard_sizes();
  EXPECT_GT(before[0].owned_rows, 0u);
  EXPECT_EQ(before[1].owned_rows, 0u);

  RebalanceReport report = cluster.Rebalance(/*max_min_ratio=*/1.5);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.migrations, 0);
  EXPECT_GT(report.min_rows, 0u);
  EXPECT_LE(report.ratio, 1.5);
  EXPECT_GT(cluster.migration_stats().batches, 0u);

  // Rebalancing changed placement, not answers.
  const std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f23\"";
  EXPECT_EQ(CheckFederatedMatchesMerged(&cluster, {query}).ToString(), "OK");
  EXPECT_GE(MergedRows(cluster, query).value().size(), 23u);
}

TEST(ClusterTest, RebalanceIsANoOpOnABalancedCluster) {
  ClusterCoordinator cluster(SmallCluster(2));
  // Round-robin: already balanced.
  ASSERT_TRUE(WriteLineageChain(&cluster, 8, /*spread=*/2).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  RebalanceReport report = cluster.Rebalance(/*max_min_ratio=*/2.0);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.migrations, 0);
  EXPECT_EQ(cluster.migration_stats().migrations, 0u);
}

// ---- Crash consistency over the cluster journal -----------------------------

// Acceptance: a coordinator crash mid-Sync loses nothing — the journaled
// batches and unconsumed logs replay, and the federated view still equals
// the merged single-database view.
TEST(ClusterTest, CrashMidSyncRecoversToEquivalentView) {
  // Measure the crash sites of a clean sync on a twin cluster, then crash a
  // fresh identical cluster in the middle of its own sync.
  ClusterCoordinator twin(SmallCluster(4, /*batch=*/4));
  ASSERT_TRUE(WriteLineageChain(&twin, 12, /*spread=*/4).ok());
  uint64_t points =
      CountCrashPoints(&twin, [&] { return twin.Sync(); }).value();
  ASSERT_GT(points, 2u);

  ClusterCoordinator cluster(SmallCluster(4, /*batch=*/4));
  ASSERT_TRUE(WriteLineageChain(&cluster, 12, /*spread=*/4).ok());
  auto run =
      CrashAndRecover(&cluster, points / 2, [&] { return cluster.Sync(); });
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->crashed);
  EXPECT_GT(run->recovery.journals_scanned, 0u);
  EXPECT_EQ(CheckRecovered(&cluster, run->recovery, kQueries).ToString(), "OK")
      << "after mid-sync crash recovery";
}

// Acceptance: a coordinator crash between the copy and delete phases of a
// migration leaves rows on both shards only until recovery, which rolls the
// journaled migration forward to a consistent ShardMap epoch.
TEST(ClusterTest, CrashBetweenMigrationCopyAndDeleteRollsForward) {
  // /a on shard 0 with a descendant /b on shard 1; the sweep migrates /a's
  // one-pnode range to shard 1. Deterministic, so every cluster allocates
  // the same pnodes.
  auto build = [](ClusterCoordinator* cluster) {
    auto a = cluster->WriteWithLineage(0, "/a", "aaa", {});
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(cluster->WriteWithLineage(1, "/b", "bbb", {*a}).ok());
    EXPECT_TRUE(cluster->Sync().ok());
    return core::PnodeRange{a->pnode, a->pnode + 1};
  };
  // Lineage through the moved object.
  const std::vector<std::string> queries = {
      "select D from Provenance.file as F F.~input* as D "
      "where F.name = \"/a\"",
      "select F.name from Provenance.file as F"};

  // Find the crash point between MIGRATE_COPIED and the source delete by
  // sweeping until the crash leaves rows on both shards.
  ClusterCoordinator twin(SmallCluster(2));
  const core::PnodeRange range = build(&twin);
  const MovedRange moved{range, 0, 1};
  uint64_t points =
      CountCrashPoints(&twin, [&] {
        return twin.MigrateRange(range, 1).status();
      }).value();
  bool saw_both_shards_holding_rows = false;
  for (uint64_t point = 0; point < points; ++point) {
    ClusterCoordinator crashed(SmallCluster(2));
    ASSERT_EQ(build(&crashed), range);
    // Record whether the crash left the copy on both shards — the
    // inconsistency the journal exists to repair — before recovery runs.
    auto run = CrashAndRecover(&crashed, point, [&] {
      Status status = crashed.MigrateRange(range, 1).status();
      saw_both_shards_holding_rows =
          saw_both_shards_holding_rows ||
          (crashed.shard_db(0).RowsInRange(range.begin, range.end) > 0 &&
           crashed.shard_db(1).RowsInRange(range.begin, range.end) > 0);
      return status;
    });
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run->crashed) << "point " << point;
    // Post-recovery: exactly one shard, the owner, holds the range's rows,
    // and federated still equals merged.
    EXPECT_EQ(CheckRecovered(&crashed, run->recovery, queries, &moved)
                  .ToString(),
              "OK")
        << "point " << point;
  }
  // The sweep must have covered the copied-but-not-deleted window.
  EXPECT_TRUE(saw_both_shards_holding_rows);
}

TEST(ClusterTest, SingleShardClusterNeedsNoNetwork) {
  ClusterCoordinator cluster(SmallCluster(1));
  ASSERT_TRUE(WriteLineageChain(&cluster, 5, /*spread=*/1).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  EXPECT_EQ(cluster.ingest_stats().entries_replicated, 0u);
  EXPECT_EQ(cluster.network().stats().round_trips, 0u);

  FederatedSource source = cluster.Source(0);
  pql::Engine engine(&source);
  auto result = engine.Run(
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f4\"");
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->rows.size(), 5u);
  EXPECT_EQ(cluster.network().stats().round_trips, 0u);
}

// The same operations on `m`: a file written with disclosed lineage and then
// renamed (Mercurial's temp-file pattern), and a file written with lineage
// and then unlinked. Returns the writing process, the source and the two
// written objects.
std::vector<core::ObjectRef> WriteRenameUnlink(workloads::Machine* m) {
  os::Pid pid = m->Spawn("writer");
  EXPECT_TRUE(m->kernel().WriteFile(pid, "/src", "source").ok());
  core::ObjectRef source = *m->pass()->RefOfPath("/src");
  auto write = [&](const std::string& path) {
    EXPECT_TRUE(m->kernel().WriteFile(pid, path, "data").ok());
    core::ObjectRef ref = *m->pass()->RefOfPath(path);
    EXPECT_TRUE(
        m->pass()->DiscloseRecords(pid, ref, {core::Record::Input(source)})
            .ok());
    return *m->pass()->RefOfPath(path);
  };
  core::ObjectRef renamed = write("/out.tmp");
  EXPECT_TRUE(m->kernel().Rename(pid, "/out.tmp", "/out").ok());
  core::ObjectRef unlinked = write("/gone");
  EXPECT_TRUE(m->kernel().Unlink(pid, "/gone").ok());
  return {m->pass()->RefOfPid(pid), source, renamed, unlinked};
}

// Sync consumes a shard's log the way Waldo does on a standalone machine:
// writes to files renamed or deleted before the Sync keep their lineage,
// both the disclosed INPUT edge and the one from the writing process.
TEST(ClusterTest, SyncKeepsLineageOfRenamedAndDeletedFiles) {
  ClusterCoordinator cluster(SmallCluster(1));
  std::vector<core::ObjectRef> written =
      WriteRenameUnlink(&cluster.machine(0));
  ASSERT_TRUE(cluster.Sync().ok());

  workloads::MachineOptions options;
  options.with_pass = true;
  workloads::Machine standalone(options);
  standalone.Spawn("clusterd");  // the cluster's resident worker
  WriteRenameUnlink(&standalone);
  ASSERT_TRUE(standalone.waldo()->Drain().ok());

  const waldo::ProvDb& db = cluster.shard_db(0);
  for (size_t i = 2; i < written.size(); ++i) {
    std::set<core::PnodeId> inputs;
    for (const core::ObjectRef& input : db.Inputs(written[i])) {
      inputs.insert(input.pnode);
    }
    EXPECT_EQ(inputs, (std::set<core::PnodeId>{written[0].pnode,
                                                written[1].pnode}))
        << "object " << i;
  }
  EXPECT_EQ(db.stats().records, standalone.db()->stats().records);
  EXPECT_EQ(db.stats().edges, standalone.db()->stats().edges);
}

// Frontier publication reports exactly the pnodes a write keyed rows under
// — the new file (its attributes and forward edges) and each ancestor (its
// reverse row) — each once, from its owner. The chain's other pnodes share
// the new file's pnode neighbourhood and must stay out.
TEST(ClusterTest, FrontierSinceReportsExactlyThePnodesAWriteTouched) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto refs = WriteLineageChain(&cluster, 8, /*spread=*/2).value();
  ASSERT_TRUE(cluster.Sync().ok());

  FrontierSnapshot cursor = cluster.CaptureFrontier();
  auto fresh = cluster.WriteWithLineage(1, "/fresh", "x", {refs[0]});
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(cluster.Sync().ok());

  const waldo::ProvDb& home = cluster.shard_db(cluster.OwnerOf(fresh->pnode));
  std::set<core::PnodeId> touched = {fresh->pnode};
  for (core::Version version : home.VersionsOf(fresh->pnode)) {
    for (const core::ObjectRef& input : home.Inputs({fresh->pnode, version})) {
      touched.insert(input.pnode);
    }
  }
  ASSERT_TRUE(touched.count(refs[0].pnode));

  FrontierDelta delta = cluster.FrontierSince(cursor);
  std::set<core::PnodeId> reported;
  for (const FrontierEntry& entry : delta.entries) {
    EXPECT_TRUE(reported.insert(entry.pnode).second) << entry.pnode;
    EXPECT_EQ(entry.shard, cluster.OwnerOf(entry.pnode)) << entry.pnode;
  }
  EXPECT_EQ(reported, touched);

  // A cursor taken after the write sees nothing, and costs no RPC.
  FrontierDelta quiet = cluster.FrontierSince(cluster.CaptureFrontier());
  EXPECT_TRUE(quiet.entries.empty());
  EXPECT_EQ(quiet.shards_reporting, 0u);
  EXPECT_EQ(quiet.rpcs, 0u);
}

// ---- The cluster oracle itself must be able to fail ------------------------

// `status` is an error whose message names `what`.
void ExpectFailureNaming(const Status& status, const std::string& what) {
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find(what), std::string::npos)
      << status.ToString();
}

// A reverse-index row forged onto one shard's ProvDb changes the federated
// answer but not the merged one (MergeInto replays owned rows only), and
// the oracle names the first query that differs.
TEST(ClusterOracleTest, ForgedShardRowFailsAndNamesTheQuery) {
  ClusterCoordinator cluster(SmallCluster(3));
  ASSERT_TRUE(WriteLineageChain(&cluster, 6, /*spread=*/3).ok());
  auto stray = cluster.WriteWithLineage(1, "/stray", "s", {});
  ASSERT_TRUE(stray.ok());
  ASSERT_TRUE(cluster.Sync().ok());
  const std::string descendants =
      "select D from Provenance.file as F F.~input* as D "
      "where F.name = \"/f0\"";
  const std::vector<std::string> queries = {
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f5\"",
      descendants,
  };
  ASSERT_EQ(CheckFederatedMatchesMerged(&cluster, queries).ToString(), "OK");

  // /f0's shard now claims /stray as a descendant; /stray's owner does not.
  auto f0 = cluster.RefOfPath(0, "/f0");
  ASSERT_TRUE(f0.ok());
  cluster.shard_db(0).Insert(
      lasagna::LogEntry{*stray, core::Record::Input(*f0)});

  ExpectFailureNaming(CheckFederatedMatchesMerged(&cluster, queries),
                      descendants);
}

TEST(ClusterOracleTest, EmptyMergedAnswerFails) {
  ClusterCoordinator cluster(SmallCluster(2));
  ASSERT_TRUE(WriteLineageChain(&cluster, 4, /*spread=*/2).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  const std::string nothing =
      "select F from Provenance.file as F where F.name = \"/absent\"";
  ASSERT_TRUE(MergedRows(cluster, nothing).ok());
  EXPECT_TRUE(MergedRows(cluster, nothing)->empty());

  ExpectFailureNaming(CheckFederatedMatchesMerged(&cluster, {nothing}),
                      nothing);
}

// Each recovered invariant fails on its own and names itself: a stale
// epoch, a row forged onto a migrated range's other shard, and work left
// for a second Recover().
TEST(ClusterOracleTest, RecoveredInvariantsFailOneByOne) {
  ClusterCoordinator cluster(SmallCluster(3));
  ASSERT_TRUE(WriteLineageChain(&cluster, 6, /*spread=*/2).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  ClusterRecoveryReport recovery = cluster.Recover().value();
  auto f0 = cluster.RefOfPath(0, "/f0");
  ASSERT_TRUE(f0.ok());
  const MovedRange moved{{f0->pnode, f0->pnode + 1}, 0, 2};
  const std::vector<std::string> queries = {
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f5\""};
  ASSERT_EQ(CheckRecovered(&cluster, recovery, queries, &moved).ToString(),
            "OK");

  ClusterRecoveryReport stale = recovery;
  ++stale.shard_map_epoch;
  ExpectFailureNaming(CheckRecovered(&cluster, stale, queries), "epoch");

  cluster.shard_db(2).Insert(
      lasagna::LogEntry{*f0, core::Record::Name("/forged")});
  ExpectFailureNaming(CheckRecovered(&cluster, recovery, queries, &moved),
                      "rows on two shards");

  ASSERT_TRUE(cluster.WriteWithLineage(1, "/unsynced", "u", {}).ok());
  ExpectFailureNaming(CheckRecovered(&cluster, recovery, queries),
                      "second Recover()");
}

TEST(ClusterOracleTest, StepFailingWithoutACrashFails) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto run = CrashAndRecover(&cluster, 0, [] { return Internal("boom"); });
  ExpectFailureNaming(run.status(), "failed without crashing");
  ExpectFailureNaming(run.status(), "boom");
}

// A standing result still holding a row the shards no longer have.
TEST(ClusterOracleTest, StandingRowMissingFromScratchFails) {
  ClusterCoordinator cluster(SmallCluster(2));
  ASSERT_TRUE(WriteLineageChain(&cluster, 4, /*spread=*/2).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  const std::string names = "select F.name from Provenance.file as F";
  StandingQueryTier tier(&cluster);
  auto id = tier.Register(names);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(tier.Refresh().ok());
  ASSERT_EQ(CheckStandingMatches(tier, *id, names, cluster).ToString(), "OK");

  auto f1 = cluster.RefOfPath(1, "/f1");
  ASSERT_TRUE(f1.ok());
  ASSERT_GT(cluster.shard_db(1).DeleteRange(f1->pnode, f1->pnode + 1), 0u);

  Status status = CheckStandingMatches(tier, *id, names, cluster);
  ExpectFailureNaming(status, "/f1");
  ExpectFailureNaming(status, names);
}

// Damage already in frame 0 is what the audit reports first, so a verdict
// expecting a later frame's injection must fail and name both frames.
TEST(ClusterOracleTest, TamperVerdictAgainstTheWrongFrameFails) {
  ClusterCoordinator cluster(SmallCluster(2));
  ASSERT_TRUE(WriteLineageChain(&cluster, 8, /*spread=*/2).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  Auditor auditor(&cluster, /*seed=*/5);
  ASSERT_TRUE(auditor.Seal().clean());
  const std::string& path = cluster.journal(0).path();
  TamperFs tamper(cluster.machine(0).volume()->lower());
  std::vector<TamperSite> sites = tamper.EnumerateSites(path);
  ASSERT_GT(sites.size(), 1u);
  const TamperSite& first = sites.front();
  const TamperSite& later = sites.back();
  ASSERT_TRUE(first.frame == 0 && later.frame > 0);
  ASSERT_EQ(CheckTamperVerdict(&auditor, &cluster, 0, path, later).ToString(),
            "OK");

  ASSERT_TRUE(tamper.Inject(path, first).ok());
  Status status = CheckTamperVerdict(&auditor, &cluster, 0, path, later);
  ExpectFailureNaming(status, later.description);
  ExpectFailureNaming(status, "frame 0 ");
}

}  // namespace
}  // namespace pass::cluster
