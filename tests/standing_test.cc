// Tests for the standing-query tier: PQL queries registered once and kept
// incrementally fresh over streaming audit ingest. The invariant under test
// everywhere: after every Refresh(), a standing query's materialized result
// equals a from-scratch evaluation of the same text over the merged
// single-database view (src/cluster/oracle.h) — across plain ingest rounds,
// live migration, and crash+Recover.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/oracle.h"
#include "src/cluster/standing.h"
#include "src/pql/eval.h"
#include "src/workloads/audit_stream.h"

namespace pass::cluster {
namespace {

using workloads::AuditStreamGenerator;
using workloads::AuditStreamOptions;

ClusterOptions SmallCluster(int shards) {
  ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = 16;
  return options;
}

AuditStreamOptions SmallStream() {
  AuditStreamOptions options;
  options.processes_per_shard = 2;
  options.reads_per_process = 1;
  options.taint_sources = 1;
  options.taint_fraction = 0.5;
  options.cross_shard_fraction = 0.5;
  return options;
}

// The taint watchlists, checked against the merged single-database answer.
const std::string kDescendants = AuditStreamGenerator::TaintDescendantQuery();
const std::string kAncestry = AuditStreamGenerator::TaintAncestryQuery();

TEST(StandingQueryTest, IncrementalMatchesFullEvalEachRound) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  pql::QueryOptions options;
  options.trace_label = "taint-watch";
  auto descend = tier.Register(AuditStreamGenerator::TaintDescendantQuery(),
                               options);
  auto ancestry = tier.Register(AuditStreamGenerator::TaintAncestryQuery());
  ASSERT_TRUE(descend.ok());
  ASSERT_TRUE(ancestry.ok());
  EXPECT_TRUE(*tier.IsIncremental(*descend));
  EXPECT_TRUE(*tier.IsIncremental(*ancestry));

  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    auto notes = tier.Refresh();
    ASSERT_TRUE(notes.ok()) << notes.status().ToString();
    EXPECT_EQ(
        CheckStandingMatches(tier, *descend, kDescendants, cluster).ToString(),
        "OK")
        << "round " << round;
    EXPECT_EQ(
        CheckStandingMatches(tier, *ancestry, kAncestry, cluster).ToString(),
        "OK")
        << "round " << round;
  }
  // Only the registration seeds ran as full evaluations.
  EXPECT_GT(tier.stats().incremental_evals, 0u);
  EXPECT_EQ(tier.stats().full_evals, 0u);
  EXPECT_GT(tier.stats().frontier_entries, 0u);

  // Ground truth: every process the generator knows read taint (directly or
  // through a tainted file) is flagged by the descendant watchlist.
  std::set<std::string> flagged;
  auto result = tier.ResultOf(*descend);
  ASSERT_TRUE(result.ok());
  for (const auto& row : result->rows) {
    for (const pql::Value& value : row) {
      flagged.insert(value.ToString());
    }
  }
  EXPECT_FALSE(stream.expected_tainted_processes().empty());
  for (const std::string& name : stream.expected_tainted_processes()) {
    EXPECT_EQ(flagged.count(name), 1u) << name;
  }
}

TEST(StandingQueryTest, NotificationsAppearExactlyOnce) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  auto id = tier.Register(AuditStreamGenerator::TaintDescendantQuery());
  ASSERT_TRUE(id.ok());

  std::set<std::string> notified;
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    auto notes = tier.Refresh();
    ASSERT_TRUE(notes.ok());
    for (const StandingNotification& note : *notes) {
      EXPECT_EQ(note.query_id, *id);
      std::string line = pql::RowKey(note.row);
      // A row never notifies twice while it stays present.
      EXPECT_TRUE(notified.insert(line).second) << line;
    }
  }
  // Everything standing was notified, and nothing else.
  EXPECT_EQ(notified, StandingRows(tier, *id).value());
  EXPECT_EQ(tier.stats().notifications, notified.size());
}

TEST(StandingQueryTest, RegisterRejectsPinnedEpochConsistency) {
  ClusterCoordinator cluster(SmallCluster(2));
  StandingQueryTier tier(&cluster);
  pql::QueryOptions options;
  options.consistency = pql::Consistency::kPinnedEpoch;
  auto id = tier.Register(AuditStreamGenerator::TaintDescendantQuery(),
                          options);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), Code::kInvalidArgument);
  EXPECT_EQ(tier.query_count(), 0u);
}

TEST(StandingQueryTest, NonIncrementalShapesFallBackAndStayCorrect) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  // A second Provenance-rooted FROM: root restriction cannot cover it, so
  // the tier must re-evaluate from scratch each refresh — and say so.
  const std::string join =
      "select F.name, T.name from Provenance.file as F Provenance.file as T "
      "where F.name = T.name and T.taint = 1";
  auto id = tier.Register(join);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(*tier.IsIncremental(*id));

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    ASSERT_TRUE(tier.Refresh().ok());
    EXPECT_EQ(CheckStandingMatches(tier, *id, join, cluster).ToString(), "OK")
        << "round " << round;
  }
  EXPECT_GT(tier.stats().full_evals, 0u);
  EXPECT_EQ(tier.stats().incremental_evals, 0u);
}

TEST(StandingQueryTest, AffectedWalkOverflowFallsBackWithoutDivergence) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  // No link steps, so the query's own evaluation never expands a closure —
  // but each round's frontier delta alone exceeds the tiny limit, forcing
  // the affected-root walk into its re-evaluate-everything fallback.
  const std::string attrs_only =
      "select F.name from Provenance.file as F where F.taint = 1";
  pql::QueryOptions tiny;
  tiny.limits.max_closure_nodes = 4;
  auto id = tier.Register(attrs_only, tiny);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(*tier.IsIncremental(*id));

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    ASSERT_TRUE(tier.Refresh().ok());
    EXPECT_EQ(CheckStandingMatches(tier, *id, attrs_only, cluster).ToString(),
              "OK")
        << "round " << round;
  }
  EXPECT_GT(tier.stats().walk_overflows, 0u);
}

// Limits are a registration contract: when the data outgrows them, Refresh
// surfaces the evaluator's limit error (the naive baseline with the same
// limits errors identically) instead of silently truncating, and the tier
// recovers once the offending query is unregistered.
TEST(StandingQueryTest, EvalLimitErrorsSurfaceAndUnregisterRecovers) {
  ClusterCoordinator cluster(SmallCluster(2));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  pql::QueryOptions tiny;
  tiny.limits.max_closure_nodes = 1;
  auto bounded = tier.Register(AuditStreamGenerator::TaintDescendantQuery(),
                               tiny);
  auto healthy = tier.Register(AuditStreamGenerator::TaintDescendantQuery());
  ASSERT_TRUE(bounded.ok());
  ASSERT_TRUE(healthy.ok());

  ASSERT_TRUE(stream.StreamRound().ok());
  auto refreshed = tier.Refresh();
  EXPECT_FALSE(refreshed.ok());
  EXPECT_EQ(refreshed.status().code(), Code::kUnavailable);

  ASSERT_TRUE(tier.Unregister(*bounded).ok());
  ASSERT_TRUE(tier.Refresh().ok());
  EXPECT_EQ(
      CheckStandingMatches(tier, *healthy, kDescendants, cluster).ToString(),
      "OK");
}

TEST(StandingQueryTest, SurvivesLiveMigrationMidStream) {
  ClusterCoordinator cluster(SmallCluster(3));
  AuditStreamGenerator stream(&cluster, SmallStream());
  ASSERT_TRUE(stream.SeedTaintSources().ok());

  StandingQueryTier tier(&cluster);
  auto id = tier.Register(AuditStreamGenerator::TaintDescendantQuery());
  ASSERT_TRUE(id.ok());
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    ASSERT_TRUE(tier.Refresh().ok());
  }

  // Move everything shard 0 allocated (taint source included) to shard 2,
  // then keep streaming: frontier entries for the moved range must be
  // owner-attributed through the live map.
  core::PnodeRange range{core::ShardSpace(0).begin,
                         cluster.machine(0).allocator().peek_next()};
  ASSERT_TRUE(cluster.MigrateRange(range, 2).ok());
  ASSERT_TRUE(tier.Refresh().ok());
  EXPECT_EQ(CheckStandingMatches(tier, *id, kDescendants, cluster).ToString(),
            "OK");

  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(stream.StreamRound().ok());
    ASSERT_TRUE(tier.Refresh().ok());
    EXPECT_EQ(CheckStandingMatches(tier, *id, kDescendants, cluster).ToString(),
              "OK")
        << "post-migration round " << round;
  }

  // And back again.
  ASSERT_TRUE(cluster.MigrateRange(range, 0).ok());
  ASSERT_TRUE(stream.StreamRound().ok());
  ASSERT_TRUE(tier.Refresh().ok());
  EXPECT_EQ(CheckStandingMatches(tier, *id, kDescendants, cluster).ToString(),
            "OK");
}

// The crash sweep's state before the crashed round: seeded taint sources,
// one streamed round, and the descendant watchlist's first refresh.
struct WatchedStream {
  WatchedStream() {
    EXPECT_TRUE(stream.SeedTaintSources().ok());
    id = tier.Register(kDescendants).value();
    EXPECT_TRUE(stream.StreamRound().ok());
    first = tier.Refresh().value();
  }

  ClusterCoordinator cluster{SmallCluster(2)};
  AuditStreamGenerator stream{&cluster, SmallStream()};
  StandingQueryTier tier{&cluster};
  uint64_t id = 0;
  std::vector<StandingNotification> first;  // the first refresh's notes
};

// Acceptance (journal_test style): crash the coordinator mid-ingest at a
// sweep of injection points; Recover() must pass the oracle's recovered
// invariants, and the next Refresh() must leave the standing result equal
// to a from-scratch evaluation, with no duplicated notifications.
TEST(StandingQueryTest, CrashDuringIngestRecoversConsistently) {
  WatchedStream clean;
  uint64_t points = CountCrashPoints(&clean.cluster, [&] {
                      return clean.stream.StreamRound();
                    }).value();
  ASSERT_GT(points, 2u);
  uint64_t stride = points / 5 == 0 ? 1 : points / 5;

  for (uint64_t point = 0; point < points; point += stride) {
    WatchedStream watched;
    ClusterCoordinator& cluster = watched.cluster;
    StandingQueryTier& tier = watched.tier;
    const uint64_t id = watched.id;
    std::set<std::string> notified;
    for (const StandingNotification& note : watched.first) {
      notified.insert(pql::RowKey(note.row));
    }

    auto run = CrashAndRecover(&cluster, point,
                               [&] { return watched.stream.StreamRound(); });
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run->crashed) << "point " << point;
    EXPECT_EQ(CheckRecovered(&cluster, run->recovery, {kDescendants})
                  .ToString(),
              "OK")
        << "point " << point;

    auto notes = tier.Refresh();
    ASSERT_TRUE(notes.ok()) << "point " << point;
    for (const StandingNotification& note : *notes) {
      std::string line = pql::RowKey(note.row);
      EXPECT_TRUE(notified.insert(line).second)
          << "duplicate notification at point " << point << ": " << line;
    }
    EXPECT_EQ(CheckStandingMatches(tier, id, kDescendants, cluster).ToString(),
              "OK")
        << "point " << point;
    EXPECT_EQ(notified, StandingRows(tier, id).value()) << "point " << point;

    // The repaired cluster keeps streaming and the tier keeps up.
    ASSERT_TRUE(watched.stream.StreamRound().ok()) << "point " << point;
    ASSERT_TRUE(tier.Refresh().ok()) << "point " << point;
    EXPECT_EQ(CheckStandingMatches(tier, id, kDescendants, cluster).ToString(),
              "OK")
        << "point " << point;
  }
}

}  // namespace
}  // namespace pass::cluster
