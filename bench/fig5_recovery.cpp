// Figure 5 (this repo's extension): crash-consistent replication and
// migration over the cluster write-ahead journal.
//
// Runs a cross-shard lineage workload on a 3-shard cluster, then kills the
// coordinator at every injected crash point of (a) Sync() — mid-journal,
// mid-send, mid-apply, mid-log-removal — and (b) a pnode-range migration —
// between every phase of the journaled BEGIN/EPOCH_BUMP/copy/COPIED/delete/
// COMMIT protocol. After each crash it runs Recover() and checks the
// recovered invariants of src/cluster/oracle.h (epoch consistent, the
// federated ancestry query equals the merged single-database answer, the
// migrated range's rows live on one shard, a second Recover() repairs
// nothing), while reporting what recovery replayed (batches, entries,
// migrations) and how much virtual time the repair cost.
//
// Usage: fig5_recovery [files]   (default 48; CI runs a small scale)
//
// Machine-readable output: lines beginning with "csv," form three tables —
//   csv,sync_crash,point,batches_redelivered,entries_reapplied,
//       log_entries_resynced,epoch,recovery_s,match
//   csv,migration_crash,point,outcome,epoch,rows_src,rows_dst,recovery_s,match
//   csv,recovery_summary,files,sync_points,migration_points,
//       batches_redelivered,entries_reapplied,rolled_forward,aborted,match

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/cluster/cluster.h"
#include "src/cluster/oracle.h"
#include "src/util/logging.h"
#include "src/workloads/lineage_chain.h"

namespace {

using pass::cluster::CheckFederatedMatchesMerged;
using pass::cluster::CheckRecovered;
using pass::cluster::ClusterCoordinator;
using pass::cluster::ClusterOptions;
using pass::cluster::CountCrashPoints;
using pass::cluster::CrashAndRecover;
using pass::cluster::MovedRange;
using pass::workloads::WriteLineageChain;

constexpr int kShards = 3;

ClusterOptions Options() {
  ClusterOptions options;
  options.shards = kShards;
  options.ingest_batch_records = 8;
  return options;
}

// Every run writes one cross-shard lineage chain between shards 0 and 1;
// shard 2 stays cold so the migration below moves rows nothing was
// replicated to.
constexpr int kChainSpread = 2;
const std::string kPayload(128, 'd');

}  // namespace

int main(int argc, char** argv) {
  int files = argc > 1 ? std::atoi(argv[1]) : 48;
  PASS_CHECK(files >= 8);

  std::printf("Figure 5: crash recovery over the cluster write-ahead "
              "journal\n(%d shards, %d-file cross-shard chain; every crash "
              "point swept)\n\n",
              kShards, files);

  const std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f" + std::to_string(files - 1) + "\"";

  // ---- Phase A: crash mid-Sync ----------------------------------------------
  uint64_t sync_points = 0;
  {
    ClusterCoordinator clean(Options());
    PASS_CHECK(
        WriteLineageChain(&clean, files, kChainSpread, kPayload).ok());
    auto points = CountCrashPoints(&clean, [&] { return clean.Sync(); });
    PASS_CHECK(points.ok());
    sync_points = *points;
    PASS_CHECK(CheckFederatedMatchesMerged(&clean, {query}).ok());
  }
  std::printf("sync: %llu crash points\n",
              (unsigned long long)sync_points);

  bool all_match = true;
  uint64_t total_batches = 0;
  uint64_t total_entries = 0;
  for (uint64_t point = 0; point < sync_points; ++point) {
    ClusterCoordinator cluster(Options());
    PASS_CHECK(
        WriteLineageChain(&cluster, files, kChainSpread, kPayload).ok());
    auto run = CrashAndRecover(&cluster, point, [&] { return cluster.Sync(); });
    PASS_CHECK(run.ok() && run->crashed);
    const auto& recovery = run->recovery;
    bool match = CheckRecovered(&cluster, recovery, {query}).ok();
    all_match = all_match && match;
    total_batches += recovery.batches_redelivered;
    total_entries += recovery.entries_reapplied;
    std::printf("  point %-3llu: %llu batches redelivered, %llu entries "
                "reapplied, %llu entries resynced, %.6f s repair, %s\n",
                (unsigned long long)point,
                (unsigned long long)recovery.batches_redelivered,
                (unsigned long long)recovery.entries_reapplied,
                (unsigned long long)recovery.log_entries_resynced,
                recovery.recovery_seconds, match ? "match" : "MISMATCH");
    std::printf("csv,sync_crash,%llu,%llu,%llu,%llu,%llu,%.6f,%s\n",
                (unsigned long long)point,
                (unsigned long long)recovery.batches_redelivered,
                (unsigned long long)recovery.entries_reapplied,
                (unsigned long long)recovery.log_entries_resynced,
                (unsigned long long)recovery.shard_map_epoch,
                recovery.recovery_seconds, match ? "yes" : "no");
  }

  // ---- Phase B: crash mid-migration -----------------------------------------
  uint64_t migration_points = 0;
  pass::core::PnodeRange range{};
  {
    ClusterCoordinator clean(Options());
    PASS_CHECK(
        WriteLineageChain(&clean, files, kChainSpread, kPayload).ok());
    PASS_CHECK(clean.Sync().ok());
    range = pass::core::PnodeRange{pass::core::ShardSpace(0).begin,
                                   clean.machine(0).allocator().peek_next()};
    auto points = CountCrashPoints(
        &clean, [&] { return clean.MigrateRange(range, 2).status(); });
    PASS_CHECK(points.ok());
    migration_points = *points;
    PASS_CHECK(CheckFederatedMatchesMerged(&clean, {query}).ok());
  }
  std::printf("\nmigration of shard 0's range to shard 2: %llu crash "
              "points\n",
              (unsigned long long)migration_points);

  uint64_t rolled_forward = 0;
  uint64_t aborted = 0;
  for (uint64_t point = 0; point < migration_points; ++point) {
    ClusterCoordinator cluster(Options());
    PASS_CHECK(
        WriteLineageChain(&cluster, files, kChainSpread, kPayload).ok());
    PASS_CHECK(cluster.Sync().ok());
    auto run = CrashAndRecover(&cluster, point, [&] {
      return cluster.MigrateRange(range, 2).status();
    });
    PASS_CHECK(run.ok() && run->crashed);
    const auto& recovery = run->recovery;

    uint64_t rows_src = cluster.shard_db(0).RowsInRange(range.begin,
                                                        range.end);
    uint64_t rows_dst = cluster.shard_db(2).RowsInRange(range.begin,
                                                        range.end);
    const MovedRange moved{range, 0, 2};
    bool match = CheckRecovered(&cluster, recovery, {query}, &moved).ok();
    all_match = all_match && match;
    const char* outcome =
        recovery.migrations_rolled_forward > 0
            ? "rolled_forward"
            : (recovery.migrations_aborted > 0 ? "aborted" : "unstarted");
    rolled_forward += recovery.migrations_rolled_forward;
    aborted += recovery.migrations_aborted;
    std::printf("  point %-3llu: %-14s epoch=%llu rows src/dst=%llu/%llu "
                "%.6f s repair, %s\n",
                (unsigned long long)point, outcome,
                (unsigned long long)recovery.shard_map_epoch,
                (unsigned long long)rows_src, (unsigned long long)rows_dst,
                recovery.recovery_seconds, match ? "match" : "MISMATCH");
    std::printf("csv,migration_crash,%llu,%s,%llu,%llu,%llu,%.6f,%s\n",
                (unsigned long long)point, outcome,
                (unsigned long long)recovery.shard_map_epoch,
                (unsigned long long)rows_src, (unsigned long long)rows_dst,
                recovery.recovery_seconds, match ? "yes" : "no");
  }

  std::printf("\ncsv,recovery_summary,%d,%llu,%llu,%llu,%llu,%llu,%llu,%s\n",
              files, (unsigned long long)sync_points,
              (unsigned long long)migration_points,
              (unsigned long long)total_batches,
              (unsigned long long)total_entries,
              (unsigned long long)rolled_forward,
              (unsigned long long)aborted, all_match ? "yes" : "no");

  // Regression gates (CI runs this binary at small scale).
  PASS_CHECK(all_match);
  PASS_CHECK(sync_points > 4);
  PASS_CHECK(migration_points > 4);
  PASS_CHECK(total_batches > 0);       // some crash left journaled batches
  PASS_CHECK(rolled_forward > 0);      // some crash landed past the bump
  PASS_CHECK(aborted > 0);             // some crash landed before it
  std::printf("\nEvery crash point recovers: journaled batches redeliver "
              "idempotently,\ninterrupted migrations roll forward or abort "
              "cleanly, and the federated view\nnever drifts from the merged "
              "single-database answer.\n");
  return 0;
}
