// Tests for the federated query portal: frontier-shipped RPCs and the
// byte-bounded portal result cache, including its invalidation contract —
// every cached entry carries its owner shard's change stamp for the
// entry's pnode, and lookups revalidate it, so the portal can never serve
// stale ownership or stale data while churn elsewhere leaves entries warm.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/cluster/oracle.h"
#include "src/workloads/lineage_chain.h"

// Binary-wide counting allocator: the zero-alloc probe test asserts the
// warm cache-lookup path never reaches operator new. malloc stays the
// backing store, so sanitizer interception keeps working. (GCC flags
// free() of these pointers as mismatched because it cannot see through the
// replacement; the pairing is correct.)
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
uint64_t g_heap_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pass::cluster {

// Reaches the private cache internals so tests can drive the exact probe
// sequence AttributeMany/FollowMany use, without network or evaluator noise.
class FederatedSourceTestPeer {
 public:
  explicit FederatedSourceTestPeer(FederatedSource* source)
      : source_(source) {}
  uint32_t Intern(const std::string& attr) { return source_->InternAttr(attr); }
  void Validate() { source_->ValidateCache(); }
  bool ProbeAttr(core::PnodeId pnode, uint32_t attr_id) {
    return source_->CacheLookup(
               FederatedSource::CacheKey{pnode, 0, false, attr_id}) != nullptr;
  }
  bool ProbeEdges(const core::ObjectRef& ref, bool inverse) {
    return source_->CacheLookup(FederatedSource::CacheKey{
               ref.pnode, ref.version, inverse, 0}) != nullptr;
  }

 private:
  FederatedSource* source_;
};

namespace {

using workloads::WriteLineageChain;

ClusterOptions SmallCluster(int shards) {
  ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = 16;
  return options;
}

const char kTailClosure[] =
    "select Ancestor from Provenance.file as F F.input* as Ancestor "
    "where F.name = \"/f11\"";
// Every file's closure: the walks from different roots share ancestry.
const char kEveryClosure[] =
    "select Ancestor from Provenance.file as F F.input* as Ancestor";

TEST(FederatedCacheTest, RepeatedQueriesAreServedFromTheCache) {
  ClusterCoordinator cluster(SmallCluster(4));
  ASSERT_TRUE(WriteLineageChain(&cluster, 12, /*spread=*/4).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  auto first = QueryRows(&source, kEveryClosure).value();
  EXPECT_EQ(first, MergedRows(cluster, kEveryClosure).value());
  uint64_t rpc_after_first = source.stats().remote_ops;
  uint64_t hits_after_first = source.stats().cache_hits;
  EXPECT_GT(rpc_after_first, 0u);
  EXPECT_GT(hits_after_first, 0u);  // later roots re-walk shared ancestry
  EXPECT_GT(source.cache_bytes_used(), 0u);

  // The same query again: every edge list is cached, so the only new RPCs
  // are the (uncached) root-set scatter.
  auto second = QueryRows(&source, kEveryClosure).value();
  EXPECT_EQ(second, first);
  uint64_t scatter = static_cast<uint64_t>(cluster.shard_count()) - 1;
  EXPECT_EQ(source.stats().remote_ops, rpc_after_first + scatter);
  EXPECT_GT(source.stats().cache_hits, hits_after_first);
}

// Satellite acceptance: a query warms the portal cache, MigrateRange moves
// the queried range, and the next query must observe the epoch bump and
// re-route to the new owner — federated == merged before and after.
TEST(FederatedCacheTest, MigrationInvalidatesWarmCacheAndReRoutes) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = WriteLineageChain(&cluster, 12, /*spread=*/4).value();
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  auto before = QueryRows(&source, kTailClosure).value();
  EXPECT_EQ(before, MergedRows(cluster, kTailClosure).value());
  EXPECT_GT(source.cache_bytes_used(), 0u);
  uint64_t invalidated = source.stats().cache_entries_invalidated;
  uint64_t epoch = cluster.shard_map().epoch();

  // Move the range holding /f5 (shard 1's space — a *remote* pnode whose
  // edge list and name set the portal cached) to shard 3.
  core::PnodeRange range{refs[5].pnode, refs[5].pnode + 1};
  ASSERT_TRUE(cluster.MigrateRange(range, 3).ok());
  EXPECT_GT(cluster.shard_map().epoch(), epoch);  // epoch observed to bump
  EXPECT_EQ(cluster.OwnerOf(refs[5].pnode), 3);

  // Same source object, post-migration: entries in the migrated range are
  // dropped (and only those — no full flush) and the query re-routes
  // through the live map to the new owner.
  auto after = QueryRows(&source, kTailClosure).value();
  EXPECT_EQ(after, before);
  EXPECT_EQ(after, MergedRows(cluster, kTailClosure).value());
  EXPECT_GT(source.stats().cache_entries_invalidated, invalidated);
  EXPECT_EQ(source.stats().cache_invalidations_full, 0u);
}

TEST(FederatedCacheTest, IngestInvalidatesStaleEdgeLists) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto a = cluster.WriteWithLineage(0, "/a", "aaa", {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(cluster.WriteWithLineage(1, "/b", "bbb", {*a}).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  const std::string descendants =
      "select D from Provenance.file as F F.~input* as D "
      "where F.name = \"/a\"";
  // Portal on shard 1: /a lives on shard 0, so its reverse-edge list is a
  // remote lookup the portal caches.
  FederatedSource source = cluster.Source(/*portal_shard=*/1);
  auto before = QueryRows(&source, descendants).value();
  EXPECT_EQ(before.size(), 2u);  // /a and /b

  // New lineage lands after the cache warmed: /c (on shard 1) descends from
  // /a. Sync mutates both shard databases; the portal must not serve the
  // cached pre-sync edge list.
  ASSERT_TRUE(cluster.WriteWithLineage(1, "/c", "ccc", {*a}).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  auto after = QueryRows(&source, descendants).value();
  EXPECT_EQ(after.size(), 3u);
  EXPECT_EQ(after, MergedRows(cluster, descendants).value());
}

TEST(FederatedCacheTest, TinyCacheEvictsButStaysCorrect) {
  ClusterCoordinator cluster(SmallCluster(4));
  ASSERT_TRUE(WriteLineageChain(&cluster, 12, /*spread=*/4).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0,
                                          /*cache_bytes=*/256);
  auto got = QueryRows(&source, kTailClosure).value();
  EXPECT_EQ(got, MergedRows(cluster, kTailClosure).value());
  EXPECT_GT(source.stats().cache_evictions, 0u);
  EXPECT_LE(source.cache_bytes_used(), 256u);
}

TEST(FederatedCacheTest, ZeroBudgetDisablesCaching) {
  ClusterCoordinator cluster(SmallCluster(4));
  ASSERT_TRUE(WriteLineageChain(&cluster, 12, /*spread=*/4).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0,
                                          /*cache_bytes=*/0);
  auto got = QueryRows(&source, kTailClosure).value();
  EXPECT_EQ(got, MergedRows(cluster, kTailClosure).value());
  EXPECT_EQ(source.stats().cache_hits, 0u);
  EXPECT_EQ(source.cache_bytes_used(), 0u);
}

// Tentpole acceptance: ingest that only touches a foreign shard must leave
// the portal's warm entries alone — the fingerprint check is per entry, so
// unrelated churn costs nothing. The legacy whole-cache mode drops
// everything on the same churn (the baseline fig9 measures against).
TEST(FederatedCacheTest, ForeignShardIngestKeepsWarmEntries) {
  ClusterCoordinator cluster(SmallCluster(4));
  // Chain over shards 0-2 only: shard 3 is pure churn, so no cached pnode
  // is stamped by the churn writes.
  ASSERT_TRUE(WriteLineageChain(&cluster, 12, /*spread=*/3).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource fine = cluster.Source(/*portal_shard=*/0);
  FederatedSource flush = cluster.Source(/*portal_shard=*/0);
  flush.set_whole_cache_invalidation(true);
  auto before = QueryRows(&fine, kTailClosure).value();
  EXPECT_EQ(before, QueryRows(&flush, kTailClosure).value());

  // Churn: new lineage-free files on shard 3 only. The chain's pnodes and
  // rows are untouched; only shard 3 stamps outside the chain move.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        cluster.WriteWithLineage(3, "/churn" + std::to_string(i), "x", {})
            .ok());
  }
  ASSERT_TRUE(cluster.Sync().ok());

  fine.ResetStats();
  flush.ResetStats();
  auto fine_after = QueryRows(&fine, kTailClosure).value();
  auto flush_after = QueryRows(&flush, kTailClosure).value();
  EXPECT_EQ(fine_after, before);
  EXPECT_EQ(flush_after, before);
  // Fine-grained: the warm entries survived — no invalidation of either
  // kind, and strictly fewer misses than the flushed baseline.
  EXPECT_EQ(fine.stats().cache_entries_invalidated, 0u);
  EXPECT_EQ(fine.stats().cache_invalidations_full, 0u);
  EXPECT_GT(flush.stats().cache_invalidations_full, 0u);
  EXPECT_LT(fine.stats().cache_misses, flush.stats().cache_misses);
}

// Ingest that *does* mutate a cached pnode's rows must drop exactly that
// entry via its fingerprint, even with no epoch bump anywhere.
TEST(FederatedCacheTest, FingerprintCatchesMutationOfCachedRange) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto a = cluster.WriteWithLineage(0, "/a", "aaa", {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(cluster.Sync().ok());

  const std::string descendants =
      "select D from Provenance.file as F F.~input* as D "
      "where F.name = \"/a\"";
  FederatedSource source = cluster.Source(/*portal_shard=*/1);
  auto before = QueryRows(&source, descendants).value();
  EXPECT_EQ(before.size(), 1u);

  // /b descends from /a: replication inserts a reverse-index row keyed by
  // /a's pnode on shard 0, moving its change stamp.
  ASSERT_TRUE(cluster.WriteWithLineage(1, "/b", "bbb", {*a}).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  auto after = QueryRows(&source, descendants).value();
  EXPECT_EQ(after.size(), 2u);
  EXPECT_EQ(after, MergedRows(cluster, descendants).value());
  EXPECT_GT(source.stats().cache_entries_invalidated, 0u);
  EXPECT_EQ(source.stats().cache_invalidations_full, 0u);
}

// Stamps are per pnode: a write keyed by pnode p drops p's cached entries
// and leaves those of its neighbour p + 1 warm.
TEST(FederatedCacheTest, IngestIntoOnePnodeKeepsItsNeighboursEntries) {
  ClusterCoordinator cluster(SmallCluster(2));
  auto refs = WriteLineageChain(&cluster, 12, /*spread=*/1).value();
  ASSERT_TRUE(cluster.Sync().ok());
  size_t i = 0;
  while (i + 1 < refs.size() && refs[i + 1].pnode != refs[i].pnode + 1) {
    ++i;
  }
  ASSERT_LT(i + 1, refs.size()) << "no two chain files on adjacent pnodes";
  const core::ObjectRef p = refs[i];
  const core::ObjectRef next = refs[i + 1];

  // Portal on shard 1: the chain lives on shard 0, so every entry the
  // closure warms is a remote fetch the portal caches.
  FederatedSource source = cluster.Source(/*portal_shard=*/1);
  ASSERT_TRUE(QueryRows(&source, kTailClosure).ok());
  FederatedSourceTestPeer peer(&source);
  uint32_t name_id = peer.Intern("name");

  // A descendant of p on shard 1: replication lands a reverse row keyed by
  // p on shard 0, and nothing keyed by p + 1.
  ASSERT_TRUE(cluster.WriteWithLineage(1, "/child", "x", {p}).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  peer.Validate();
  EXPECT_TRUE(peer.ProbeAttr(next.pnode, name_id));
  EXPECT_TRUE(peer.ProbeEdges(next, /*inverse=*/false));
  EXPECT_FALSE(peer.ProbeAttr(p.pnode, name_id));
  EXPECT_EQ(source.stats().cache_invalidations_full, 0u);
}

// Satellite acceptance: probing a warm cache allocates nothing — the
// CacheKey is flat (interned attr id, no strings), the fingerprint check
// is a map lookup, and the LRU update is a splice.
TEST(FederatedCacheTest, WarmCacheProbesAreAllocationFree) {
  ClusterCoordinator cluster(SmallCluster(4));
  auto refs = WriteLineageChain(&cluster, 12, /*spread=*/4).value();
  ASSERT_TRUE(cluster.Sync().ok());

  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  // Warm every edge list + name set.
  ASSERT_TRUE(QueryRows(&source, kTailClosure).ok());
  FederatedSourceTestPeer peer(&source);
  uint32_t name_id = peer.Intern("name");  // intern outside the counted loop
  uint64_t hits_before = source.stats().cache_hits;

  uint64_t allocs_before = g_heap_allocs;
  for (int round = 0; round < 8; ++round) {
    peer.Validate();
    for (const auto& ref : refs) {
      peer.ProbeAttr(ref.pnode, name_id);
      peer.ProbeEdges(ref, /*inverse=*/false);
    }
  }
  EXPECT_EQ(g_heap_allocs, allocs_before);
  EXPECT_GT(source.stats().cache_hits, hits_before);
}

TEST(FederatedCacheTest, CachedAndUncachedByteAccountingBalance) {
  ClusterCoordinator cluster(SmallCluster(4));
  ASSERT_TRUE(WriteLineageChain(&cluster, 12, /*spread=*/4).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  uint64_t net_before = cluster.network().stats().bytes_sent +
                        cluster.network().stats().bytes_received;
  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  ASSERT_TRUE(QueryRows(&source, kTailClosure).ok());
  uint64_t net_after = cluster.network().stats().bytes_sent +
                       cluster.network().stats().bytes_received;
  // Remote request/response bytes are exactly what hit the wire; local
  // bytes never did.
  EXPECT_EQ(net_after - net_before, source.stats().remote_request_bytes +
                                        source.stats().remote_response_bytes);
  EXPECT_GT(source.stats().local_bytes, 0u);
  EXPECT_GT(source.stats().remote_request_bytes, 0u);
  EXPECT_GT(source.stats().remote_response_bytes, 0u);
}

}  // namespace
}  // namespace pass::cluster
