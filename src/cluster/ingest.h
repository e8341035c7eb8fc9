#ifndef SRC_CLUSTER_INGEST_H_
#define SRC_CLUSTER_INGEST_H_

// Cross-shard ingest/replication queue.
//
// Each shard's Waldo ingests its own Lasagna log into its local ProvDb, so
// purely local provenance never touches the network. Two kinds of entries must
// additionally reach a *remote* shard before federated queries are complete:
//
//   * a record whose subject pnode is owned by another shard (disclosed
//     provenance about a remote object), shipped to the owner so attribute
//     queries routed there see it;
//
//   * an INPUT edge whose ancestor pnode is owned by another shard, shipped
//     to the ancestor's owner so the reverse (descendant) index there lists
//     the foreign subject — exactly the row ProvDb::Insert would have added
//     had the whole cluster shared one database.
//
// Ownership is resolved through the ShardMap routing layer (never the raw
// shard bits), so entries about migrated pnode ranges flow to the current
// owner. Entries are batched per destination shard; each shipped batch is
// one sim::Network round trip. batch_records = 1 degrades to one RTT per
// replicated entry, which is what bench/fig3_cluster uses as the unbatched
// baseline.
//
// The queue runs in one of two modes (Options::pipelined):
//
//   * Pipelined (default) — the Lasagna discipline, extended to the
//     replication boundary: the hot path never waits on the wire. Flush()
//     splits into a foreground half that seals every pending batch and
//     group-commits their REPL_BATCH records in ONE coalesced journal
//     write — the durable point at which the workload is acked — and a
//     background half that ships the sealed batches over the async
//     timeline, where in-flight transfers overlap later foreground
//     execution and cost elapsed time only at a Quiesce() barrier (or when
//     the bounded in-flight window forces a backpressure wait).
//
//   * Sync-drain — the legacy shape (fig8's baseline): each batch
//     journals, ships, and applies inline, and Flush() returns only after
//     every destination has acknowledged.
//
// Durability is identical in both modes: a batch is durable as REPL_BATCH
// in the active ClusterJournal before the network is charged and is marked
// REPL_APPLIED only after the destination applied it. Application goes
// through ProvDb::InsertUnique, so a crash anywhere in between — including
// the new async points: group-committed-but-unsent, sent-but-unacked — is
// repaired by redelivering the journaled batch. Crash points
// (sim::Env::MaybeCrash) bracket the non-durable steps; once the
// environment is crashed the queue does nothing, like the dead process it
// models.
//
// The same batch path ships migration traffic (ShipTo) when the
// coordinator moves a pnode range between shards. ShipTo stays synchronous
// (migration is a quiesced foreground protocol) and needs no batch
// journaling of its own — the journaled MIGRATE_BEGIN/COPIED/COMMIT phases
// protect it and recovery re-runs it from the source rows — but its wire
// traffic is accounted in IngestStats (migrate_*) so benches can total
// every byte the cluster put on the wire from one struct.

#include <cstdint>
#include <deque>
#include <vector>

#include "src/cluster/shard_map.h"
#include "src/lasagna/log_format.h"
#include "src/sim/async.h"
#include "src/sim/env.h"
#include "src/sim/net.h"
#include "src/waldo/provdb.h"

namespace pass::cluster {

class ClusterJournal;

struct IngestStats {
  uint64_t entries_examined = 0;    // everything offered to the queue
  uint64_t entries_replicated = 0;  // copies delivered to remote shards
  uint64_t batches_sent = 0;        // network round trips charged
  uint64_t bytes_sent = 0;          // encoded batch payload bytes
  // Group-committed journal appends (the pipelined foreground ack path).
  uint64_t group_commits = 0;  // coalesced REPL_BATCH journal writes
  uint64_t group_frames = 0;   // REPL_BATCH frames across those writes
  uint64_t batches_acked = 0;  // batches acked back to the workload
  // Migration traffic (ShipTo), previously invisible here.
  uint64_t migrate_batches = 0;  // ShipTo round trips charged
  uint64_t migrate_bytes = 0;    // ShipTo payload bytes on the wire
  uint64_t migrate_entries = 0;  // entries ShipTo put on the wire

  // Every payload byte the queue put on the wire, replication + migration.
  uint64_t wire_bytes() const { return bytes_sent + migrate_bytes; }
};

class IngestQueue {
 public:
  struct Options {
    // Records per cross-shard replication batch; 1 = one RTT per record.
    size_t batch_records = 64;
    // Pipelined (journal-then-ack + background shipper) vs legacy
    // sync-drain. See the header comment.
    bool pipelined = true;
    // Bound on journaled-but-incomplete transfers in flight; submitting
    // past it blocks (backpressure) until the oldest completes.
    size_t max_in_flight_batches = 16;
  };

  // `shards[i]` is shard i's local database; `net` models the cluster
  // fabric; `map` (borrowed, live) resolves pnode ownership; `env` supplies
  // crash points, the clock, and the metric registry and tracer.
  IngestQueue(sim::Env* env, sim::Network* net, const ShardMap* map,
              std::vector<waldo::ProvDb*> shards, Options options)
      : env_(env),
        net_(net),
        map_(map),
        shards_(std::move(shards)),
        options_(options),
        timeline_(&env->clock()),
        pending_(shards_.size()),
        pending_since_(shards_.size(), 0) {
    if (options_.batch_records == 0) {
      options_.batch_records = 1;
    }
  }

  // Journal that subsequent flushed batches append their REPL_BATCH records
  // to — the initiating shard's journal. Null disables journaling.
  void SetJournal(ClusterJournal* journal) { journal_ = journal; }

  // Examine one entry recovered on `source_shard` and enqueue copies for
  // every remote shard that must index it. Full batches seal immediately
  // (pipelined) or flush inline (sync-drain).
  void Offer(int source_shard, const lasagna::LogEntry& entry);

  // Drain everything pending. Pipelined: group-commit every sealed batch's
  // REPL_BATCH record in one journal write, ack, then hand the batches to
  // the background shipper. Sync-drain: journal/ship/apply each batch
  // inline, returning only after every destination acked.
  void Flush();

  // Quiesce the background channel: wait (charging only the remainder the
  // foreground has not covered) until every in-flight transfer completed.
  // The barrier queries, migration, and recovery take before reading
  // remote state. Returns the nanos charged.
  sim::Nanos Quiesce();

  // Forget the volatile pending queues, sealed-but-unshipped batches, and
  // in-flight transfers: they died with the crashed coordinator. Journaled
  // batches survive and are redelivered instead.
  void DropPending();

  // Re-deliver one journaled batch during recovery: one round trip, then an
  // idempotent apply. Returns the number of rows newly inserted.
  uint64_t Redeliver(int destination,
                     const std::vector<lasagna::LogEntry>& entries);

  // Result of one ShipTo call (migration traffic).
  struct ShipReport {
    uint64_t entries_shipped = 0;  // inserted at the destination
    uint64_t entries_skipped = 0;  // already present there (replicated before)
    uint64_t batches = 0;          // network round trips charged
    uint64_t bytes = 0;            // encoded payload bytes
  };

  // Ship `entries` to `destination`'s database in batch-sized chunks, one
  // round trip per chunk. The sender cannot know the receiver's state, so
  // every entry crosses the wire; the destination skips rows it already
  // holds (earlier replication makes migration re-send some). Synchronous:
  // bypasses the per-destination pending queues; accounted under the
  // IngestStats migrate_* counters.
  ShipReport ShipTo(int destination,
                    const std::vector<lasagna::LogEntry>& entries);

  const IngestStats& stats() const { return stats_; }
  // The background replication channel (overlap accounting for benches).
  const sim::AsyncTimeline& timeline() const { return timeline_; }

 private:
  // One batch sealed for shipment: its entries plus the enqueue timestamp
  // of its first record (ack-latency accounting).
  struct SealedBatch {
    int destination = -1;
    std::vector<lasagna::LogEntry> entries;
    sim::Nanos enqueued_at = 0;
  };

  // What one Deliver() put on the wire and into the destination.
  struct Delivery {
    uint64_t bytes = 0;     // encoded payload bytes
    uint64_t inserted = 0;  // rows the destination did not already hold
  };

  obs::TraceCollector* Trace() const { return &env_->obs().trace(); }
  sim::Nanos Now() const { return env_->clock().now(); }
  void Enqueue(int destination, const lasagna::LogEntry& entry);
  void Seal(int destination);           // pending -> ready_ (pipelined)
  void FlushPipelined();                // journal-then-ack + background ship
  void FlushShardSync(int destination); // legacy inline drain
  void ShipSealed(const SealedBatch& batch);  // async wire + remote apply
  // The one delivery path (sync flush, async ship, redelivery, migration):
  // encode `entries`, charge one round trip inside an `rpc_span_name` span
  // (on `timeline` when given, else inline), then InsertUnique them into
  // `destination` inside an `apply_span_name` span parented to the rpc.
  Delivery Deliver(int destination,
                   const std::vector<lasagna::LogEntry>& entries,
                   const char* rpc_span_name, const char* apply_span_name,
                   sim::AsyncTimeline* timeline);
  void RecordAck(const SealedBatch& batch);

  sim::Env* env_;
  sim::Network* net_;
  const ShardMap* map_;
  std::vector<waldo::ProvDb*> shards_;
  Options options_;
  ClusterJournal* journal_ = nullptr;
  sim::AsyncTimeline timeline_;  // the serialized replication stream
  std::vector<std::vector<lasagna::LogEntry>> pending_;  // per destination
  std::vector<sim::Nanos> pending_since_;  // first-enqueue time, per dest
  std::deque<SealedBatch> ready_;  // sealed, awaiting group commit + ship
  IngestStats stats_;
};

}  // namespace pass::cluster

#endif  // SRC_CLUSTER_INGEST_H_
