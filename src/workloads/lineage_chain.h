#ifndef SRC_WORKLOADS_LINEAGE_CHAIN_H_
#define SRC_WORKLOADS_LINEAGE_CHAIN_H_

// The cross-shard lineage chain: the cluster benches' and tests' common
// fixture for replication, migration, recovery, and federated queries.

#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/object.h"
#include "src/util/result.h"

namespace pass::workloads {

// Write files <prefix>0 .. <prefix>(files-1), each holding `payload`, where
// file i lives on shard i % spread and records file i-1 as its INPUT: a
// chain striped round-robin over the first `spread` shards, so with
// spread > 1 every edge crosses a machine boundary. Returns each file's
// ref in chain order. Does not Sync().
Result<std::vector<core::ObjectRef>> WriteLineageChain(
    cluster::ClusterCoordinator* cluster, int files, int spread,
    std::string_view payload = "payload", std::string_view prefix = "/f");

}  // namespace pass::workloads

#endif  // SRC_WORKLOADS_LINEAGE_CHAIN_H_
