#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

// ClusterCoordinator: a sharded provenance cluster of N simulated machines.
//
// Each shard is a full PASSv2 machine (kernel + PassSystem + Lasagna volume
// + ProvDb) whose pnode allocator stamps the shard id into the top 16 bits.
// That allocator shard is only the *home* hint: actual ownership of any
// pnode range is resolved through the ShardMap routing layer, which live
// migration and rebalancing update. All machines share one sim::Env (one
// timeline) and one sim::Network (the cluster fabric).
//
// The coordinator:
//   * provisions the machines and one resident worker process per shard;
//   * runs workloads on individual shards;
//   * builds cross-shard lineage via the DPAPI (a write on shard B can
//     disclose INPUT edges to objects owned by shard A);
//   * consumes each shard's Lasagna log through that shard's Waldo into
//     the shard-local ProvDb and pushes cross-shard entries through the
//     batched IngestQueue
//     (see src/cluster/ingest.h), charging network per batch — by default
//     pipelined: batches are acked at the group-committed journal write
//     and shipped on a background async timeline that only a Quiesce()
//     barrier (taken by queries, migration, and recovery) waits out;
//   * migrates pnode ranges between shards (MigrateRange) and rebalances
//     skewed clusters (Rebalance) without changing query results;
//   * journals every cross-shard mutation — replication batches and the
//     three migration phases — in per-shard ClusterJournals (the cluster
//     WAL, src/cluster/journal.h) before performing it, so Recover() can
//     repair a coordinator crash at any point: it rebuilds the ShardMap
//     from the journaled epoch history, rolls interrupted migrations
//     forward, redelivers unacknowledged batches, and re-syncs the logs;
//   * hands out FederatedSource instances — wired to the live ShardMap, so
//     they survive later migrations — and a merged single-database view
//     for equivalence checks.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/federated_source.h"
#include "src/cluster/ingest.h"
#include "src/cluster/journal.h"
#include "src/cluster/shard_map.h"
#include "src/sim/env.h"
#include "src/sim/net.h"
#include "src/workloads/machine.h"
#include "src/workloads/workloads.h"

namespace pass::cluster {

struct ClusterOptions {
  int shards = 4;
  uint64_t seed = 42;
  // Records per cross-shard replication batch; 1 = one RTT per record.
  size_t ingest_batch_records = 64;
  // Pipelined replication (the default): Sync acks a batch once its
  // REPL_BATCH record is group-committed, and ships it on the background
  // async timeline; false restores the sync-drain shape where every Sync
  // waits for every remote ack inline (bench/fig8's baseline).
  bool pipelined_replication = true;
  // Bound on journaled-but-unacknowledged transfers in flight before the
  // shipper blocks (backpressure).
  size_t max_in_flight_batches = 16;
};

// One completed MigrateRange.
struct MigrationReport {
  int from = -1;
  int to = -1;
  uint64_t entries_shipped = 0;  // rows inserted at the destination
  uint64_t entries_skipped = 0;  // rows the destination already held
  uint64_t batches = 0;          // network round trips charged
  uint64_t bytes = 0;            // encoded payload bytes on the wire
  uint64_t rows_deleted = 0;     // rows dropped from the source database
};

// Running totals across every migration (bench/fig4_rebalance reports these
// as the cost of rebalancing).
struct MigrationStats {
  uint64_t migrations = 0;
  uint64_t entries_shipped = 0;
  uint64_t entries_skipped = 0;
  uint64_t batches = 0;
  uint64_t bytes = 0;
  uint64_t rows_deleted = 0;
};

// Size of one shard's database, ingest_stats()-style.
struct ShardSize {
  uint64_t records = 0;     // attribute rows held (including replicas)
  uint64_t edges = 0;       // forward edge rows held (including replicas)
  uint64_t owned_rows = 0;  // rows whose subject the ShardMap assigns here
};

struct RebalanceReport {
  int migrations = 0;
  uint64_t max_rows = 0;  // final owned-row extremes across shards
  uint64_t min_rows = 0;
  double ratio = 0;       // final max/min (1 when empty: trivially balanced)
  bool converged = false;
};

// ---- Epoch digest (audit plane) ---------------------------------------------
// A Merkle-style commitment to the whole cluster's provenance state at one
// ShardMap epoch. Per shard: the journal hash-chain head (commits to every
// journaled cross-shard operation) folded with the content hashes of the
// ranges the ShardMap assigns to that shard and the epoch itself. The root
// reduces the shard digests pairwise, so two clusters agree on the root iff
// they agree on every shard's journal history and owned rows.
struct ShardDigest {
  int shard = -1;
  lasagna::ChainHash journal_head{};  // writer-side chain head
  uint64_t journal_frames = 0;
  Md5Digest ranges_digest{};  // XOR fold of owned-range content hashes
  uint64_t owned_ranges = 0;
  Md5Digest digest{};  // MD5(journal_head || ranges_digest || epoch)
};

struct EpochDigest {
  uint64_t epoch = 0;
  std::vector<ShardDigest> shards;
  Md5Digest root{};  // pairwise Merkle reduction over shard digests
};

// ---- Frontier publication (standing-query plane) ----------------------------
// The per-shard "new pnode" feed the standing-query tier subscribes to,
// piggybacked on ProvDb's per-pnode change stamps: a FrontierSnapshot
// remembers every shard's mutation_count(), and FrontierSince asks each
// shard for the pnodes stamped after it (ProvDb::PnodesChangedSince). The
// delta is exactly the pnodes whose rows changed — attributed to their
// current ShardMap owner (replica copies are reported by the owner only)
// and stamped with their latest version and TYPE.

struct FrontierEntry {
  core::PnodeId pnode = 0;
  core::Version version = 0;  // latest known at publication time
  int shard = -1;             // current owner per the ShardMap
  std::string type;           // TYPE attribute ("FILE", "PROC", ...)
};

struct FrontierSnapshot {
  // Per shard: mutation_count() at capture time.
  std::vector<uint64_t> cursors;
};

struct FrontierDelta {
  std::vector<FrontierEntry> entries;
  uint64_t shards_reporting = 0;  // shards with >= 1 mutation since the cursor
  uint64_t rpcs = 0;              // publication exchanges network-charged
};

// What Recover() found and repaired after a coordinator crash.
struct ClusterRecoveryReport {
  uint64_t journals_scanned = 0;
  uint64_t journal_records_scanned = 0;
  uint64_t truncated_journals = 0;  // torn journal tails (CRC-detected)
  uint64_t epoch_bumps_replayed = 0;  // ShardMap rebuild history
  uint64_t batches_redelivered = 0;   // REPL_BATCH without REPL_APPLIED
  uint64_t batches_acked = 0;         // already applied: skipped
  uint64_t entries_reapplied = 0;     // rows the redeliveries inserted
  uint64_t migrations_rolled_forward = 0;  // epoch bumped, not committed
  uint64_t migrations_aborted = 0;  // begun, epoch never bumped: discarded
  uint64_t log_entries_resynced = 0;  // from the closing Sync()
  uint64_t shard_map_epoch = 0;       // post-recovery epoch
  double recovery_seconds = 0;        // virtual time the repair cost
};

class ClusterCoordinator {
 public:
  explicit ClusterCoordinator(ClusterOptions options = ClusterOptions());

  int shard_count() const { return static_cast<int>(machines_.size()); }
  workloads::Machine& machine(int shard) { return *machines_[shard]; }
  waldo::ProvDb& shard_db(int shard) { return *machines_[shard]->db(); }
  sim::Env& env() { return env_; }
  sim::Network& network() { return net_; }
  const ShardMap& shard_map() const { return shard_map_; }

  // Shard owning a pnode per the ShardMap; -1 when it names no member.
  int OwnerOf(core::PnodeId pnode) const { return shard_map_.OwnerOf(pnode); }

  // Run a named workload ("compile", "postmark", ...) on one shard.
  workloads::WorkloadReport RunWorkload(int shard, const std::string& name);

  // Write `data` to `path` on `shard` and disclose INPUT edges to `sources`
  // (typically refs owned by other shards). Returns the file's ref.
  Result<core::ObjectRef> WriteWithLineage(
      int shard, const std::string& path, std::string_view data,
      const std::vector<core::ObjectRef>& sources);

  // Current (pnode, version) of `path` on `shard`.
  Result<core::ObjectRef> RefOfPath(int shard, const std::string& path);

  // Consume every shard's closed Lasagna logs through the shard's Waldo
  // (Waldo::Take): the entries of committed transactions, in ENDTXN order,
  // go into the local ProvDb and cross-shard ones through the batched
  // ingest queue. This is exactly what a standalone machine's Waldo
  // ingests; no MD5 check runs, so writes to files renamed or deleted
  // since keep their lineage. Idempotent: consumed logs are removed
  // (Waldo::Remove), so repeated calls only process new records. Every
  // replication batch is journaled before the network is charged and logs
  // are only removed once their batches are journaled, so a crash at any
  // point (sim::Env::CrashAfterOps) is repaired by Recover(); the
  // interrupted call returns Unavailable.
  //
  // Under pipelined replication (the default) Sync returns at the
  // journal-durable point: each shard's batches are group-committed as
  // REPL_BATCH records in one coalesced journal write and handed to the
  // background shipper, whose in-flight transfers overlap whatever the
  // cluster does next. Quiesce() is the barrier that waits them out;
  // Source(), MigrateRange(), and Recover() take it implicitly.
  Status Sync();

  // Wait until every in-flight replication transfer has completed, charging
  // only the time not already covered by foreground execution since the
  // transfers were scheduled. No round trips; a no-op in sync-drain mode
  // and on a crashed cluster. Returns the nanos charged.
  sim::Nanos Quiesce();

  // Repair the durable state after a coordinator crash, as a restarted
  // coordinator would: clear the crash, drop the volatile pending queues,
  // scan every shard's cluster journal, rebuild the ShardMap by replaying
  // the journaled EPOCH_BUMP history, roll interrupted migrations forward
  // (or discard ones whose epoch bump never became durable), redeliver
  // unacknowledged replication batches (idempotent via InsertUnique),
  // re-run Sync() for logs that were mid-consumption, and checkpoint the
  // journals. Safe to call on a healthy cluster (a no-op repair).
  Result<ClusterRecoveryReport> Recover();

  // Move ownership of `range` (currently uniformly owned by one shard) to
  // `to_shard`: flush pending replication, copy the range's subject records
  // and reverse-index rows into the destination through the batched ingest
  // path (charging the network per batch), bump the ShardMap epoch, then
  // delete the moved rows from the source. Query results are unchanged.
  // The phases are journaled (MIGRATE_BEGIN -> EPOCH_BUMP -> copy ->
  // MIGRATE_COPIED -> delete -> MIGRATE_COMMIT) on the source shard's
  // journal; a crash between any two phases is repaired by Recover() with
  // each row on exactly one shard and a consistent ShardMap epoch.
  Result<MigrationReport> MigrateRange(core::PnodeRange range, int to_shard);

  // Migrate ranges from the fullest to the emptiest shard until the
  // max/min owned-row ratio falls under `max_min_ratio` (or no migration
  // can improve it, or 64 migrations ran).
  RebalanceReport Rebalance(double max_min_ratio = 1.5);

  // Per-shard database sizes (Rebalance's input; bench CSV output).
  std::vector<ShardSize> shard_sizes() const;

  // Federated query source with the portal on `portal_shard`, wired to the
  // live ShardMap: sources created before a migration route correctly after
  // (and its portal result cache self-invalidates, entry by entry, when an
  // entry's pnode is written or its range changes owner). `cache_bytes` bounds
  // that cache; 0 disables it. Takes the Quiesce() barrier first, so the
  // portal never reads replica state whose transfer time has not elapsed.
  FederatedSource Source(
      int portal_shard = 0,
      size_t cache_bytes = FederatedSource::kDefaultCacheBytes);

  // Shard databases in shard order (what Source() wires up) — for callers
  // like the portal tier that build FederatedSources over snapshot maps.
  std::vector<const waldo::ProvDb*> shard_dbs() const;

  // ---- Epoch pinning (portal sessions) ------------------------------------
  // A PortalSession captures a ShardMap snapshot at open and pins its epoch
  // here. While any pin predates a migration's epoch bump, that migration's
  // source-side DeleteRange (and its MIGRATE_COMMIT record) is *deferred*:
  // the pinned snapshot still routes the range to the source shard, which
  // therefore must keep answering for it. Releasing the last such pin
  // retires the deferred deletes. Migrating a range back onto a shard with
  // an overlapping deferred delete *cancels* that deferral (its migration
  // is committed without the delete): the re-ship makes the shard's copy
  // live again, and the stale delete would otherwise destroy rows the
  // shard now owns. A crash forgets pins and deferrals alike;
  // Recover()'s roll-forward finishes the delete from the journal, exactly
  // as for any bumped-but-uncommitted migration (pinned sessions die with
  // the coordinator).
  void PinEpoch(uint64_t epoch);
  void UnpinEpoch(uint64_t epoch);
  // Smallest pinned epoch; UINT64_MAX when nothing is pinned.
  uint64_t min_pinned_epoch() const;
  // Source-side deletes currently held back by pins (bench/test surface).
  size_t deferred_retirements() const { return deferred_.size(); }

  // ---- Frontier publication (standing-query tier) --------------------------
  // Snapshot every shard's mutation_count() (the subscription cursor a
  // standing tier holds; advance it only after the delta's consumers
  // committed, so a crash mid-consumption re-reads the same delta — the
  // downstream merge is idempotent).
  FrontierSnapshot CaptureFrontier() const;
  // Every pnode whose change stamp moved past `snap`, owner-attributed
  // (see FrontierEntry). Charges one publication round trip per
  // reporting shard other than the portal's (FederatedSource::kPortalShard).
  FrontierDelta FrontierSince(const FrontierSnapshot& snap);

  // Commitment to the cluster's current state (see EpochDigest above).
  // Takes the Quiesce() barrier first so in-flight replication cannot make
  // two back-to-back digests of an idle cluster disagree.
  EpochDigest ComputeEpochDigest();

  // Replay every shard's (ShardMap-owned) entries into `out`: the database
  // a single un-sharded machine would have built. For equivalence checks.
  void MergeInto(waldo::ProvDb* out) const;

  const IngestStats& ingest_stats() const { return queue_->stats(); }
  // The background replication channel (overlap accounting for benches).
  const sim::AsyncTimeline& replication_timeline() const {
    return queue_->timeline();
  }
  const MigrationStats& migration_stats() const { return migration_stats_; }
  uint64_t entries_recovered() const { return entries_recovered_; }
  const ClusterJournal& journal(int shard) const { return *journals_[shard]; }

 private:
  // One migration's source-side delete held back by an epoch pin.
  struct DeferredRetirement {
    int from = -1;
    core::PnodeRange range;
    uint64_t migration_id = 0;
    uint64_t epoch = 0;  // the migration's bump; retire once pins reach it
  };

  // Run every deferred delete whose blocking pins have released, appending
  // the MIGRATE_COMMIT that closes its migration. Returns rows deleted.
  uint64_t RetireEligible();

  sim::Env env_;
  sim::Network net_;
  ShardMap shard_map_;
  std::vector<std::unique_ptr<workloads::Machine>> machines_;
  std::vector<os::Pid> worker_pids_;
  std::vector<std::unique_ptr<ClusterJournal>> journals_;
  std::unique_ptr<IngestQueue> queue_;
  MigrationStats migration_stats_;
  uint64_t entries_recovered_ = 0;
  uint64_t next_migration_id_ = 1;
  std::multiset<uint64_t> pinned_epochs_;
  std::vector<DeferredRetirement> deferred_;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_CLUSTER_H_
