#ifndef SRC_CLUSTER_FEDERATED_SOURCE_H_
#define SRC_CLUSTER_FEDERATED_SOURCE_H_

// FederatedSource: a pql::GraphSource over a sharded cluster.
//
// The query portal runs on one shard. Every graph operation is routed to
// the shard owning the pnode it touches, resolved through the borrowed
// *live* ShardMap — so a source created before a range migration keeps
// routing correctly after it. Operations against a remote shard charge
// sim::Network round trips, so PQL queries spanning shards accumulate
// realistic network cost. Root-set construction is a scatter-gather over
// every shard.
//
// Two mechanisms keep a closure query from paying one round trip per node:
//
//   * Frontier shipping: the evaluator traverses level-synchronously and
//     hands whole frontiers to FollowMany/AttributeMany; the portal groups
//     each frontier by owning shard and ships ONE RPC per shard per hop,
//     answered by ProvDb's bulk lookups.
//
//   * A portal result cache: a byte-bounded LRU over per-node edge lists
//     and attribute sets, so overlapping traversals fetch each node once.
//     Invalidation is per-entry: each entry remembers the shard it was
//     filled from and that shard's change stamp for the entry's pnode
//     (ProvDb::changed_at), and a lookup revalidates only that stamp —
//     ingest into pnode p does not evict the entries of pnode p + 1, nor
//     ingest into shard 3 those homed on shard 0. ShardMap epoch bumps
//     consult the map's epoch-change history and drop only entries whose
//     range actually changed owner. Stale ownership or data is never served, but unrelated
//     churn no longer flushes the cache (set_whole_cache_invalidation(true)
//     restores the old drop-everything behavior as a bench baseline).
//
// Provided the cross-shard ingest queue has replicated foreign-subject
// records and foreign-ancestor edges (see src/cluster/ingest.h), a query
// evaluated here returns exactly what it would over a single ProvDb holding
// every shard's entries.

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/shard_map.h"
#include "src/obs/obs.h"
#include "src/pql/graph.h"
#include "src/sim/net.h"
#include "src/waldo/provdb.h"

namespace pass::cluster {

struct FederatedStats {
  uint64_t local_ops = 0;   // lookups served by the portal shard
  uint64_t remote_ops = 0;  // RPCs sent over the network (one RTT each)
  // Byte accounting, local vs remote: remote bytes are what Route() charges
  // the network; local bytes are the same payloads served portal-side for
  // free (no RTT, no wire time).
  uint64_t remote_request_bytes = 0;
  uint64_t remote_response_bytes = 0;
  uint64_t local_bytes = 0;
  // Portal result cache counters. A "hit" answers one node's lookup with no
  // shard traffic at all.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  // Invalidation accounting, split by blast radius: full clears (the map
  // was rebuilt, or every clear in whole-cache compatibility mode) vs
  // individual entries dropped because their own pnode's stamp moved or
  // their range changed owner.
  uint64_t cache_invalidations_full = 0;
  uint64_t cache_entries_invalidated = 0;
};

class FederatedSource : public pql::GraphSource {
 public:
  static constexpr size_t kDefaultCacheBytes = 1u << 20;
  // The portal tier's shard: portal sessions and the standing-query tier
  // originate their queries and frontier pulls here.
  static constexpr int kPortalShard = 0;

  // `cache_bytes` bounds the portal result cache (0 disables caching).
  // `obs` (borrowed, may be null) records query spans and hop latency
  // histograms; ClusterCoordinator::Source wires the cluster Env's plane.
  FederatedSource(std::vector<const waldo::ProvDb*> shards, sim::Network* net,
                  const ShardMap* map, int portal_shard = 0,
                  size_t cache_bytes = kDefaultCacheBytes,
                  obs::Observability* obs = nullptr)
      : shards_(std::move(shards)),
        net_(net),
        map_(map),
        portal_shard_(portal_shard),
        cache_capacity_(cache_bytes),
        obs_(obs) {}

  // Movable but not copyable: cache entries hold iterators into lru_, which
  // survive a move (std::list/map moves preserve them) but would alias the
  // original's list in a copy.
  FederatedSource(FederatedSource&&) = default;
  FederatedSource& operator=(FederatedSource&&) = default;
  FederatedSource(const FederatedSource&) = delete;
  FederatedSource& operator=(const FederatedSource&) = delete;

  std::vector<pql::Node> RootSet(const std::string& name) const override;
  // Single-node Follow/Attribute come from GraphSource's defaulted wrappers
  // (a frontier of one through the batched core below).
  std::vector<std::vector<pql::Node>> FollowMany(
      const std::vector<pql::Node>& nodes, const std::string& link,
      bool inverse) const override;
  std::vector<pql::ValueSet> AttributeMany(
      const std::vector<pql::Node>& nodes,
      const std::string& attr) const override;
  bool IsLink(const std::string& name) const override;
  std::string NodeLabel(const pql::Node& node) const override;

  const FederatedStats& stats() const { return stats_; }
  // Compatibility baseline for benches: drop the whole cache whenever the
  // ShardMap epoch or the sum of all shards' mutation_count() moves — the
  // pre-fingerprint behavior whose hit ratio collapses under ingest churn.
  void set_whole_cache_invalidation(bool on) { whole_cache_ = on; }
  // Zero the counters so benches can measure phases (the cache itself is
  // untouched — only the counters reset, so a warm-cache phase reports
  // pure-hit numbers).
  void ResetStats() { stats_ = FederatedStats(); }
  size_t cache_bytes_used() const { return cache_bytes_; }
  size_t cache_capacity() const { return cache_capacity_; }

 private:
  friend class FederatedSourceTestPeer;  // zero-alloc probe assertions

  // One cached lookup result: the edge list of (pnode, version, direction)
  // or the attribute set of (pnode, attr). Attribute names are interned to
  // small ids (InternAttr) so building a probe key on the lookup hot path
  // never allocates. Ordered by pnode first, so invalidating a migrated
  // pnode range is one contiguous map scan.
  struct CacheKey {
    core::PnodeId pnode = 0;
    core::Version version = 0;  // 0 for attribute entries (object-level)
    bool inverse = false;
    uint32_t attr_id = 0;  // 0 for edge entries; interned attr otherwise
    auto operator<=>(const CacheKey&) const = default;
  };
  struct CacheEntry {
    std::vector<pql::Node> nodes;
    pql::ValueSet values;
    uint64_t bytes = 0;
    // Provenance of the entry itself: the shard it was fetched from and
    // that shard's changed_at() stamp for the entry's pnode at fill time. A
    // lookup revalidates by re-reading the stamp — cheap, allocation-free,
    // and local to the entry's own pnode.
    int shard = 0;
    uint64_t fingerprint = 0;
    std::list<CacheKey>::iterator lru;
  };

  // Database owning `pnode` per the ShardMap, charging a round trip when
  // remote; null when the pnode maps to no cluster member.
  const waldo::ProvDb* Route(core::PnodeId pnode, uint64_t request_bytes,
                             uint64_t response_bytes) const;
  // Account one request/response exchange with `shard` (network-charged
  // when remote, free when it is the portal).
  void ChargeExchange(int shard, uint64_t request_bytes,
                      uint64_t response_bytes) const;
  // Latest version node of `pnode` in its owner's database.
  pql::Node Latest(const waldo::ProvDb& db, core::PnodeId pnode) const;

  obs::TraceCollector* Tracer() const {
    return obs_ == nullptr ? nullptr : &obs_->trace();
  }
  // Record one hop's sim-clock latency into "query.hop_ns"{op=...}.
  void RecordHop(const char* op, sim::Nanos start_ns) const;

  // Reconcile the cache with the ShardMap epoch: entries in ranges the
  // epoch-change history says were reassigned since the last validation are
  // dropped; everything else survives. (Whole-cache mode: any epoch or
  // mutation-sum movement clears everything, the legacy behavior.)
  void ValidateCache() const;
  // Small-id intern table for attribute names; allocation happens only the
  // first time a name is seen, never on a probe.
  uint32_t InternAttr(const std::string& attr) const;
  const CacheEntry* CacheLookup(const CacheKey& key) const;
  void CacheInsert(CacheKey key, CacheEntry entry, int shard) const;
  void EraseEntry(std::map<CacheKey, CacheEntry>::iterator it) const;
  void ClearCache() const;

  std::vector<const waldo::ProvDb*> shards_;
  sim::Network* net_;
  const ShardMap* map_;
  int portal_shard_;
  size_t cache_capacity_;
  obs::Observability* obs_ = nullptr;
  bool whole_cache_ = false;  // legacy flush-everything baseline mode
  mutable FederatedStats stats_;
  mutable std::map<CacheKey, CacheEntry> cache_;
  mutable std::list<CacheKey> lru_;  // front = most recently used
  mutable std::map<std::string, uint32_t> attr_ids_;  // interned attr names
  mutable size_t cache_bytes_ = 0;
  mutable uint64_t cache_epoch_ = 0;
  mutable uint64_t cache_mutations_ = 0;  // whole-cache mode only
  mutable bool cache_filled_ = false;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_FEDERATED_SOURCE_H_
