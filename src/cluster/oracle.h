#ifndef SRC_CLUSTER_ORACLE_H_
#define SRC_CLUSTER_ORACLE_H_

// The cluster oracle: the one invariant set every bench and test checks.
// Each check returns OK or an error naming what failed.
//  1. federated == merged: the cluster answers every PQL query as one
//     un-sharded machine would. The merged answer runs over MergeInto (each
//     row replayed from its owning shard into one scratch ProvDb), the
//     federated one over a fresh FederatedSource on portal shard 0; answers
//     compare as pql::QueryResult::RowKeys(), bags of rows.
//  2. recovered, after a crash and Recover(): the report's epoch is the
//     ShardMap's; 1 holds; a migrated range's rows live only on its owner;
//     a second Recover() has nothing left to repair.
//  3. standing == from-scratch: a standing query holds exactly the distinct
//     rows of its text evaluated from scratch.
//  4. tamper verdict: an injected tampering is detected, pinned to its file,
//     shard and frame, and classed by kind (byte flips are row edits,
//     removed frames or tails truncations, swapped frames reorderings);
//     once the image is restored the audit is clean.
// A crash sweep counts the crash points a step passes on a clean cluster,
// then replays it on a fresh identical cluster per point the caller picks,
// crashed there, and checks 2.

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/auditor.h"
#include "src/cluster/cluster.h"
#include "src/cluster/standing.h"
#include "src/cluster/tamper.h"
#include "src/pql/graph.h"
#include "src/util/result.h"

namespace pass::cluster {

// `query`'s rows over `source`, as RowKeys(). An error names the query.
Result<std::vector<std::string>> QueryRows(const pql::GraphSource* source,
                                           std::string_view query);

// QueryRows over the merged single-database view of `cluster`. Charges no
// simulated time.
Result<std::vector<std::string>> MergedRows(const ClusterCoordinator& cluster,
                                            std::string_view query);

// Invariant 1 on every query; an empty merged answer fails too (it would
// compare nothing). Takes Source()'s Quiesce barrier and charges the
// federated queries' network time, like any portal query.
Status CheckFederatedMatchesMerged(ClusterCoordinator* cluster,
                                   const std::vector<std::string>& queries);

// Crash points `step` passes on `cluster` with no crash armed. An error if
// `step` fails.
Result<uint64_t> CountCrashPoints(ClusterCoordinator* cluster,
                                  const std::function<Status()>& step);

struct CrashRun {
  bool crashed = false;  // false: `step` finished before reaching the point
  ClusterRecoveryReport recovery;  // Recover()'s report when crashed
};

// Runs `step` with a crash armed `point` crash points in, then Recover().
// A step that finishes first just clears the armed crash. An error if
// `step` fails without crashing or Recover() does not revive the cluster.
Result<CrashRun> CrashAndRecover(ClusterCoordinator* cluster, uint64_t point,
                                 const std::function<Status()>& step);

// A range a migration moves from one shard to another.
struct MovedRange {
  core::PnodeRange range;
  int from = -1;
  int to = -1;
};

// Invariant 2 after Recover() returned `recovery`, with federated == merged
// on `queries`; `moved`, when given, must be owned by `from` or `to` and
// have no rows on the other. The second Recover() runs last.
Status CheckRecovered(ClusterCoordinator* cluster,
                      const ClusterRecoveryReport& recovery,
                      const std::vector<std::string>& queries,
                      const MovedRange* moved = nullptr);

// Standing query `id`'s rows as a set of RowKeys.
Result<std::set<std::string>> StandingRows(const StandingQueryTier& tier,
                                           uint64_t id);

// Invariant 3 for standing query `id`, registered as `query`, evaluated
// from scratch over `source`; an error names a row only one side holds.
Status CheckStandingMatches(const StandingQueryTier& tier, uint64_t id,
                            std::string_view query,
                            const pql::GraphSource* source);
// The same, from scratch over the merged view of `cluster`.
Status CheckStandingMatches(const StandingQueryTier& tier, uint64_t id,
                            std::string_view query,
                            const ClusterCoordinator& cluster);

// Invariant 4 for one `site` of the sealed file `path` on `shard`, audited
// files only.
Status CheckTamperVerdict(Auditor* auditor, ClusterCoordinator* cluster,
                          int shard, const std::string& path,
                          const TamperSite& site);

// An adversary's edit of a custody record: flips the last payload byte (the
// sealed range digest's tail) of the first EPOCH_BUMP in the first journal
// holding one, with the CRC re-fixed. Returns that journal's shard.
Result<int> EditCustodyDigest(ClusterCoordinator* cluster);

// Right after a seal: grows the journals with a cross-shard write pair and
// a Sync(), then tears the first grown journal's tail mid-frame, as a crash
// during its group commit would. Returns that shard.
Result<int> TearJournalPastSeal(ClusterCoordinator* cluster);

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_ORACLE_H_
