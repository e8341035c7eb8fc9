#ifndef SRC_CLUSTER_ORACLE_H_
#define SRC_CLUSTER_ORACLE_H_

// The cluster equivalence oracle: a sharded cluster must answer every PQL
// query exactly as one un-sharded machine holding the same provenance.
//
// The un-sharded answer runs over ClusterCoordinator::MergeInto (every row
// replayed from its owning shard into one scratch ProvDb); the federated
// answer over a fresh FederatedSource with its portal on shard 0. Answers
// compare as pql::QueryResult::RowKeys(): bags of rows, order-free. Every
// federated == merged gate in bench/ and tests/ goes through here.
//
// It also owns the audit plane's expectation: the TamperClass an Auditor
// must report for each kind of injected tampering.

#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/auditor.h"
#include "src/cluster/cluster.h"
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

// OK when every query's federated rows equal its merged rows and the merged
// answer is non-empty (an empty answer would compare nothing). Otherwise an
// error naming the first query that failed, mismatched, or came back empty.
// Takes Source()'s Quiesce barrier and charges the federated queries'
// network time, like any portal query.
Status CheckFederatedMatchesMerged(ClusterCoordinator* cluster,
                                   const std::vector<std::string>& queries);

// The class an Auditor reports for a tampered file: byte flips are row
// edits, removed frames or tails are truncations, swapped frames are
// reorderings.
TamperClass ExpectedTamperClass(TamperKind kind);

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_ORACLE_H_
