// Tests for the cluster write-ahead journal (the durability spine): record
// codec and torn-tail classification, ClusterJournal append/scan/checkpoint,
// and the crash-consistency acceptance sweeps — a coordinator crash at
// *every* injected point of Sync() and MigrateRange() must recover to a
// state where federated queries equal the merged single-database view, no
// migrated row lives on two shards, and the ShardMap epoch is consistent.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/cluster/auditor.h"
#include "src/cluster/cluster.h"
#include "src/cluster/journal.h"
#include "src/cluster/oracle.h"
#include "src/cluster/tamper.h"
#include "src/fs/memfs.h"
#include "src/lasagna/log_format.h"
#include "src/lasagna/recovery.h"
#include "src/sim/disk.h"
#include "src/workloads/lineage_chain.h"

namespace pass::cluster {
namespace {

using lasagna::JournalRecord;
using lasagna::JournalRecordType;
using lasagna::LogEntry;
using workloads::WriteLineageChain;

// ---- Codec / scan units -----------------------------------------------------

std::vector<LogEntry> SampleEntries() {
  return {
      LogEntry{{(core::PnodeId{1} << 48) + 7, 0}, core::Record::Name("/x")},
      LogEntry{{(core::PnodeId{1} << 48) + 7, 0}, core::Record::Type("FILE")},
      LogEntry{{(core::PnodeId{0} << 48) + 3, 2},
               core::Record::Input({(core::PnodeId{1} << 48) + 7, 0})},
  };
}

TEST(JournalFormatTest, LogEntriesVectorCodecRoundTrip) {
  std::vector<LogEntry> entries = SampleEntries();
  std::string buf;
  lasagna::EncodeLogEntries(&buf, entries);
  auto decoded = lasagna::DecodeLogEntries(buf);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ((*decoded)[i].subject, entries[i].subject);
    EXPECT_EQ((*decoded)[i].record, entries[i].record);
  }
}

TEST(JournalFormatTest, JournalRecordRoundTrip) {
  std::string buf;
  lasagna::EncodeJournalRecord(
      &buf, JournalRecord{JournalRecordType::kReplBatch, 3, "payload"});
  lasagna::EncodeJournalRecord(
      &buf, JournalRecord{JournalRecordType::kReplApplied, 3, ""});
  bool truncated = true;
  auto records = lasagna::ParseJournal(buf, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_FALSE(truncated);
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].type, JournalRecordType::kReplBatch);
  EXPECT_EQ((*records)[0].id, 3u);
  EXPECT_EQ((*records)[0].payload, "payload");
  EXPECT_EQ((*records)[1].type, JournalRecordType::kReplApplied);
}

TEST(JournalFormatTest, TornTailKeepsValidPrefix) {
  std::string buf;
  lasagna::EncodeJournalRecord(
      &buf, JournalRecord{JournalRecordType::kMigrateBegin, 1, "abc"});
  lasagna::EncodeJournalRecord(
      &buf, JournalRecord{JournalRecordType::kMigrateCommit, 1, ""});
  bool truncated = false;
  auto records =
      lasagna::ParseJournal(std::string_view(buf).substr(0, buf.size() - 3),
                            &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(truncated);
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].type, JournalRecordType::kMigrateBegin);
}

TEST(JournalFormatTest, CorruptFrameDetectedByCrc) {
  std::string buf;
  lasagna::EncodeJournalRecord(
      &buf, JournalRecord{JournalRecordType::kEpochBump, 9, "ranges"});
  buf[buf.size() - 2] ^= 0x20;
  bool truncated = false;
  auto records = lasagna::ParseJournal(buf, &truncated);
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(truncated);
  EXPECT_TRUE(records->empty());
}

class ClusterJournalTest : public ::testing::Test {
 protected:
  ClusterJournalTest()
      : env_(7),
        lower_(&env_, nullptr, {}, {}, {},
               fs::MemFsOptions{.charge_disk = false}) {}

  sim::Env env_;
  fs::MemFs lower_;
};

TEST_F(ClusterJournalTest, AppendScanRoundTrip) {
  ClusterJournal journal(&lower_);
  std::vector<LogEntry> entries = SampleEntries();
  uint64_t applied_batch = journal.AppendReplBatch(2, entries);
  journal.AppendReplApplied(applied_batch);
  uint64_t pending_batch = journal.AppendReplBatch(1, entries);
  core::PnodeRange range{core::ShardSpace(0).begin,
                         core::ShardSpace(0).begin + 100};
  journal.AppendMigrateBegin(5, range, 0, 1);
  journal.AppendEpochBump(1, 5, range, 1);
  journal.AppendMigrateCopied(5);

  auto state = journal.Scan();
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->truncated);
  ASSERT_EQ(state->batches.size(), 2u);
  EXPECT_TRUE(state->batches[0].applied);
  EXPECT_EQ(state->batches[0].destination, 2);
  EXPECT_EQ(state->batches[0].entries.size(), entries.size());
  EXPECT_FALSE(state->batches[1].applied);
  EXPECT_EQ(state->batches[1].id, pending_batch);
  ASSERT_EQ(state->migrations.size(), 1u);
  const JournalMigration& migration = state->migrations[0];
  EXPECT_EQ(migration.id, 5u);
  EXPECT_EQ(migration.range, range);
  EXPECT_EQ(migration.from, 0);
  EXPECT_EQ(migration.to, 1);
  EXPECT_TRUE(migration.epoch_bumped);
  EXPECT_EQ(migration.epoch, 1u);
  EXPECT_TRUE(migration.copied);
  EXPECT_FALSE(migration.committed);
  ASSERT_EQ(state->epoch_bumps.size(), 1u);
  EXPECT_EQ(state->epoch_bumps[0].migration_id, 5u);
  EXPECT_EQ(state->max_migration_id, 5u);
}

// Satellite acceptance: a crash mid-frame in the cluster journal must be
// detected via CRC and classified like a truncated log tail — the valid
// prefix survives, the torn record is dropped and counted.
TEST_F(ClusterJournalTest, TruncatedJournalTailDetectedAndClassified) {
  ClusterJournal journal(&lower_);
  uint64_t batch = journal.AppendReplBatch(1, SampleEntries());
  journal.AppendReplApplied(batch);
  journal.AppendMigrateBegin(9, core::ShardSpace(0), 0, 1);

  // The crash tears the last frame mid-payload.
  ASSERT_TRUE(TamperFs(&lower_).TearTail(journal.path(), 5).ok());

  auto scan = lasagna::ScanJournal(&lower_, journal.path());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->truncated);
  EXPECT_EQ(scan->records_scanned, 2u);  // the torn MIGRATE_BEGIN is gone

  auto state = journal.Scan();
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->truncated);
  ASSERT_EQ(state->batches.size(), 1u);
  EXPECT_TRUE(state->batches[0].applied);
  EXPECT_TRUE(state->migrations.empty());
}

TEST_F(ClusterJournalTest, CheckpointKeepsEpochHistoryAndPendingWork) {
  ClusterJournal journal(&lower_);
  uint64_t applied = journal.AppendReplBatch(1, SampleEntries());
  journal.AppendReplApplied(applied);
  uint64_t pending = journal.AppendReplBatch(2, SampleEntries());
  core::PnodeRange range = core::ShardSpace(0);
  journal.AppendMigrateBegin(1, range, 0, 1);
  journal.AppendEpochBump(1, 1, range, 1);
  journal.AppendMigrateCopied(1);
  journal.AppendMigrateCommit(1);
  journal.AppendMigrateBegin(2, range, 1, 2);

  ASSERT_TRUE(journal.Checkpoint().ok());
  auto state = journal.Scan();
  ASSERT_TRUE(state.ok());
  // Applied batch and committed migration are gone; the epoch history, the
  // pending batch, and the in-flight migration survive.
  ASSERT_EQ(state->batches.size(), 1u);
  EXPECT_EQ(state->batches[0].id, pending);
  EXPECT_FALSE(state->batches[0].applied);
  ASSERT_EQ(state->migrations.size(), 1u);
  EXPECT_EQ(state->migrations[0].id, 2u);
  EXPECT_FALSE(state->migrations[0].committed);
  ASSERT_EQ(state->epoch_bumps.size(), 1u);
  EXPECT_EQ(state->epoch_bumps[0].epoch, 1u);

  // New batch ids keep rising after a checkpoint.
  EXPECT_GT(journal.AppendReplBatch(1, SampleEntries()), pending);
}

// ---- Group commit -----------------------------------------------------------

TEST_F(ClusterJournalTest, GroupCommitCoalescesAndDefersDurability) {
  ClusterJournal journal(&lower_);
  uint64_t solo = journal.AppendReplBatch(1, SampleEntries());

  journal.BeginGroup();
  EXPECT_TRUE(journal.InGroup());
  uint64_t first = journal.AppendReplBatch(2, SampleEntries());
  uint64_t second = journal.AppendReplBatch(0, SampleEntries());
  journal.AppendReplApplied(solo);

  // Nothing in the open group is durable yet: a scan sees only the solo
  // batch, still unapplied.
  auto state = journal.Scan();
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state->batches.size(), 1u);
  EXPECT_EQ(state->batches[0].id, solo);
  EXPECT_FALSE(state->batches[0].applied);

  EXPECT_EQ(journal.CommitGroup(), 3u);
  EXPECT_FALSE(journal.InGroup());

  // The coalesced image parses as the individual records, in order.
  state = journal.Scan();
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->truncated);
  ASSERT_EQ(state->batches.size(), 3u);
  EXPECT_TRUE(state->batches[0].applied);  // solo's APPLIED rode the group
  EXPECT_EQ(state->batches[1].id, first);
  EXPECT_EQ(state->batches[2].id, second);
  EXPECT_FALSE(state->batches[1].applied);
  EXPECT_FALSE(state->batches[2].applied);
}

TEST_F(ClusterJournalTest, EmptyGroupCommitWritesNothing) {
  ClusterJournal journal(&lower_);
  journal.BeginGroup();
  EXPECT_EQ(journal.CommitGroup(), 0u);
  EXPECT_EQ(journal.records_appended(), 0u);
}

TEST_F(ClusterJournalTest, AbortGroupDropsBufferedFrames) {
  ClusterJournal journal(&lower_);
  uint64_t solo = journal.AppendReplBatch(1, SampleEntries());
  uint64_t appended = journal.records_appended();

  // The recovery path: the buffered group died with the process.
  journal.BeginGroup();
  journal.AppendReplBatch(2, SampleEntries());
  journal.AppendReplApplied(solo);
  journal.AbortGroup();
  EXPECT_FALSE(journal.InGroup());
  EXPECT_EQ(journal.records_appended(), appended);

  auto state = journal.Scan();
  ASSERT_TRUE(state.ok());
  ASSERT_EQ(state->batches.size(), 1u);
  EXPECT_FALSE(state->batches[0].applied);

  // The journal keeps working after the abort.
  journal.BeginGroup();
  journal.AppendReplApplied(solo);
  EXPECT_EQ(journal.CommitGroup(), 1u);
  state = journal.Scan();
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->batches[0].applied);
}

TEST_F(ClusterJournalTest, GroupCommitIsOneDiskWrite) {
  // The whole point of group commit: N frames, one charged disk access.
  sim::Env env(7);
  sim::Disk disk(&env.clock());
  sim::DiskZone journal_zone(0, 1 << 20);
  sim::DiskZone log_zone(1 << 20, 1 << 20);
  sim::DiskZone data_zone(2 << 20, 1 << 20);
  fs::MemFs charged(&env, &disk, data_zone, journal_zone, log_zone);
  ClusterJournal journal(&charged);

  journal.AppendReplBatch(1, SampleEntries());
  uint64_t solo_writes = disk.stats().writes;
  EXPECT_GT(solo_writes, 0u);

  journal.BeginGroup();
  for (int i = 0; i < 8; ++i) {
    journal.AppendReplBatch(i % 3, SampleEntries());
  }
  EXPECT_EQ(disk.stats().writes, solo_writes);  // still buffered
  EXPECT_EQ(journal.CommitGroup(), 8u);
  // Eight records cost the same number of disk writes as the one solo
  // append did.
  EXPECT_EQ(disk.stats().writes - solo_writes, solo_writes);
}

// Satellite acceptance: a coalesced multi-frame append cut mid-write must
// classify like any torn tail — the frames fully on disk survive, the torn
// one is dropped and flagged.
TEST_F(ClusterJournalTest, TornGroupCommitKeepsValidFramePrefix) {
  ClusterJournal journal(&lower_);
  journal.BeginGroup();
  uint64_t first = journal.AppendReplBatch(0, SampleEntries());
  uint64_t second = journal.AppendReplBatch(1, SampleEntries());
  journal.AppendReplBatch(2, SampleEntries());
  EXPECT_EQ(journal.CommitGroup(), 3u);

  // The crash tears the single coalesced write inside its third frame.
  ASSERT_TRUE(TamperFs(&lower_).TearTail(journal.path(), 5).ok());

  auto state = journal.Scan();
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->truncated);
  ASSERT_EQ(state->batches.size(), 2u);
  EXPECT_EQ(state->batches[0].id, first);
  EXPECT_EQ(state->batches[1].id, second);
}

// ---- Crash-consistency acceptance sweeps ------------------------------------

constexpr int kShards = 3;

ClusterOptions CrashClusterOptions() {
  ClusterOptions options;
  options.shards = kShards;
  options.ingest_batch_records = 4;  // several batches per sync
  return options;
}

// Cross-shard lineage between shards 0 and 1 only; shard 2 stays cold so a
// migration to it moves rows nothing was ever replicated to.
constexpr int kChainSpread = 2;

// Federated == merged probes over that chain, checked through the oracle.
const std::vector<std::string> kQueries = {
    "select Ancestor from Provenance.file as F F.input* as Ancestor "
    "where F.name = \"/f7\"",
    "select D from Provenance.file as F F.~input* as D "
    "where F.name = \"/f0\"",
    "select F.name from Provenance.file as F",
};

// Acceptance: crash mid-Sync at every injected point; recovery must pass the
// oracle's recovered invariants.
TEST(JournalCrashTest, SyncCrashAtEveryPointRecovers) {
  constexpr int kFiles = 8;
  ClusterCoordinator clean(CrashClusterOptions());
  ASSERT_TRUE(WriteLineageChain(&clean, kFiles, kChainSpread).ok());
  uint64_t points =
      CountCrashPoints(&clean, [&] { return clean.Sync(); }).value();
  ASSERT_GT(points, 4u);  // rotation, journal, send, apply, removal sites

  for (uint64_t point = 0; point < points; ++point) {
    ClusterCoordinator cluster(CrashClusterOptions());
    ASSERT_TRUE(WriteLineageChain(&cluster, kFiles, kChainSpread).ok());
    auto run = CrashAndRecover(&cluster, point, [&] { return cluster.Sync(); });
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run->crashed) << "point " << point;
    EXPECT_EQ(CheckRecovered(&cluster, run->recovery, kQueries).ToString(),
              "OK")
        << "sync crash at point " << point;

    // The repaired cluster keeps working: more writes, another sync.
    auto extra = cluster.WriteWithLineage(0, "/post-crash", "x", {});
    ASSERT_TRUE(extra.ok());
    ASSERT_TRUE(cluster.Sync().ok());
  }
}

// Acceptance: crash between every pair of MigrateRange phases; after
// recovery the range's rows live on exactly one shard, the ShardMap epoch
// matches the journaled history, and federated queries equal the merged
// single-database view.
TEST(JournalCrashTest, MigrationCrashBetweenEveryPhaseRecovers) {
  constexpr int kFiles = 8;
  ClusterCoordinator clean(CrashClusterOptions());
  ASSERT_TRUE(WriteLineageChain(&clean, kFiles, kChainSpread).ok());
  ASSERT_TRUE(clean.Sync().ok());
  const core::PnodeRange range{core::ShardSpace(0).begin,
                               clean.machine(0).allocator().peek_next()};
  const MovedRange moved{range, 0, 2};
  uint64_t points = CountCrashPoints(&clean, [&] {
                      return clean.MigrateRange(range, 2).status();
                    }).value();
  ASSERT_GT(points, 4u);  // begin/bump/copy/copied/delete/commit sites

  for (uint64_t point = 0; point < points; ++point) {
    ClusterCoordinator cluster(CrashClusterOptions());
    ASSERT_TRUE(WriteLineageChain(&cluster, kFiles, kChainSpread).ok());
    ASSERT_TRUE(cluster.Sync().ok());
    uint64_t epoch_before = cluster.shard_map().epoch();
    auto run = CrashAndRecover(&cluster, point, [&] {
      return cluster.MigrateRange(range, 2).status();
    });
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run->crashed) << "point " << point;
    const ClusterRecoveryReport& recovery = run->recovery;
    std::string context = "migration crash at point " + std::to_string(point);

    // The outcome is all-or-nothing: either the migration rolled forward
    // (epoch bumped, destination owns the range) or it aborted (nothing
    // changed). CheckRecovered adds that only the owner holds rows.
    EXPECT_GT(cluster.shard_db(0).RowsInRange(range.begin, range.end) +
                  cluster.shard_db(2).RowsInRange(range.begin, range.end),
              0u)
        << context;
    int owner = cluster.shard_map().OwnerOfRange(range);
    if (recovery.migrations_rolled_forward > 0) {
      EXPECT_EQ(owner, 2) << context;
      EXPECT_EQ(cluster.shard_map().epoch(), epoch_before + 1) << context;
    } else {
      // Aborted before the bump became durable (or before any record did):
      // the migration left no trace in the routed state.
      EXPECT_EQ(owner, 0) << context;
      EXPECT_EQ(cluster.shard_map().epoch(), epoch_before) << context;
    }
    EXPECT_EQ(CheckRecovered(&cluster, recovery, kQueries, &moved).ToString(),
              "OK")
        << context;

    // An aborted migration can simply be retried; a rolled-forward one is
    // already in place and retrying is a no-op move to the same owner.
    auto retry = cluster.MigrateRange(range, 2);
    ASSERT_TRUE(retry.ok()) << context;
    EXPECT_EQ(cluster.shard_map().OwnerOfRange(range), 2) << context;
    EXPECT_EQ(CheckFederatedMatchesMerged(&cluster, kQueries).ToString(), "OK")
        << context + " after retry";
  }
}

// A crash that tears the journal tail mid-frame composes with recovery: the
// torn record is classified and dropped, everything durable replays.
TEST(JournalCrashTest, RecoveryToleratesTornJournalTail) {
  // Crash mid-sync (REPL_BATCH records durable, not all sent), then tear
  // every non-trivial journal's tail by a few bytes.
  ClusterCoordinator twin(CrashClusterOptions());
  ASSERT_TRUE(WriteLineageChain(&twin, 8, kChainSpread).ok());
  uint64_t points =
      CountCrashPoints(&twin, [&] { return twin.Sync(); }).value();
  ClusterCoordinator cluster(CrashClusterOptions());
  ASSERT_TRUE(WriteLineageChain(&cluster, 8, kChainSpread).ok());
  cluster.env().CrashAfterOps(points / 2);
  EXPECT_FALSE(cluster.Sync().ok());

  for (int shard = 0; shard < kShards; ++shard) {
    const std::string& path = cluster.journal(shard).path();
    fs::MemFs& lower = cluster.machine(shard).basefs();
    if (lower.ReadFileRaw(path).value_or("").size() > 4) {
      ASSERT_TRUE(TamperFs(&lower).TearTail(path, 3).ok());
    }
  }
  auto recovery = cluster.Recover();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_GT(recovery->truncated_journals, 0u);
  EXPECT_EQ(CheckFederatedMatchesMerged(&cluster, kQueries).ToString(), "OK")
      << "torn journal tail";
}

// ---- Hash chain + audit interaction -----------------------------------------

// Satellite (small fix): ScanJournal surfaces *where* the valid prefix ends
// and the chain head over it, so recovery and the auditor stop re-deriving
// offsets independently.
TEST_F(ClusterJournalTest, ScanJournalReportsOffsetsAndChainHead) {
  ClusterJournal journal(&lower_);
  journal.AppendReplBatch(1, SampleEntries());
  journal.AppendMigrateBegin(9, core::ShardSpace(0), 0, 1);

  auto image = lower_.ReadFileRaw(journal.path());
  ASSERT_TRUE(image.ok());
  auto scan = lasagna::ScanJournal(&lower_, journal.path());
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan->truncated);
  EXPECT_EQ(scan->valid_bytes, image->size());
  EXPECT_EQ(scan->corrupt_frames, 0u);
  // Writer-maintained chain and disk-derived chain agree.
  EXPECT_EQ(scan->chain_head, journal.chain_head());
  EXPECT_EQ(lasagna::MapFrames(*image).chain_head, journal.chain_head());

  // Tear the tail: valid_bytes pins the boundary, the torn frame is
  // counted, and the chain head shrinks to the surviving prefix.
  size_t first_frame_end = lasagna::MapFrames(*image).frames[1].offset;
  ASSERT_TRUE(TamperFs(&lower_).TearTail(journal.path(), 3).ok());
  scan = lasagna::ScanJournal(&lower_, journal.path());
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->truncated);
  EXPECT_EQ(scan->valid_bytes, first_frame_end);
  EXPECT_EQ(scan->corrupt_frames, 1u);
  EXPECT_EQ(scan->chain_head,
            lasagna::MapFrames(
                std::string_view(*image).substr(0, first_frame_end))
                .chain_head);

  // Scan() forwards the same offsets to the cluster layer.
  auto state = journal.Scan();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->valid_bytes, first_frame_end);
  EXPECT_EQ(state->corrupt_frames, 1u);
}

// The writer chain describes the *durable* image only: buffered group
// frames advance it at commit, never on abort, and a restart re-folds the
// same head from disk.
TEST_F(ClusterJournalTest, ChainHeadTracksDurableImageAcrossGroups) {
  ClusterJournal journal(&lower_);
  journal.AppendReplBatch(1, SampleEntries());
  lasagna::ChainHash before_group = journal.chain_head();

  journal.BeginGroup();
  journal.AppendReplBatch(2, SampleEntries());
  EXPECT_EQ(journal.chain_head(), before_group);  // buffered, not durable
  journal.AbortGroup();
  EXPECT_EQ(journal.chain_head(), before_group);

  journal.BeginGroup();
  journal.AppendReplBatch(2, SampleEntries());
  journal.CommitGroup();
  EXPECT_NE(journal.chain_head(), before_group);
  EXPECT_EQ(journal.chain_frames(), 2u);

  // Disk agrees, and a restarted journal re-derives the identical head.
  auto image = lower_.ReadFileRaw(journal.path());
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(lasagna::MapFrames(*image).chain_head, journal.chain_head());
  ClusterJournal restarted(&lower_);
  EXPECT_EQ(restarted.chain_head(), journal.chain_head());
  EXPECT_EQ(restarted.chain_frames(), journal.chain_frames());
}

// Satellite acceptance (crash x tamper, benign half): a torn multi-frame
// group-commit tail appended *after* the seal classifies as a benign crash
// — zero findings, one counted torn tail — because every sealed frame is
// still intact and the damage lies strictly beyond the sealed prefix.
TEST(JournalCrashTest, TornGroupCommitTailBeyondSealIsBenign) {
  ClusterCoordinator cluster(CrashClusterOptions());
  ASSERT_TRUE(WriteLineageChain(&cluster, 8, kChainSpread).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  // Seal after the sync: only journals are on disk (logs were consumed).
  Auditor auditor(&cluster, /*seed=*/3);
  ASSERT_TRUE(auditor.Seal().clean());

  // More lineage + another sync grow the journals by group-committed
  // REPL_BATCH frames beyond the sealed prefix; the crash tears the
  // coalesced post-seal write mid-frame.
  auto grown = TearJournalPastSeal(&cluster);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();

  AuditReport report = auditor.AuditAll(
      AuditOptions{.files = true, .db = false, .custody = false});
  EXPECT_TRUE(report.clean()) << report.findings[0].detail;
  EXPECT_GE(report.benign_torn_tails, 1u);
}

// Satellite acceptance (crash x tamper, adversarial half): tampering
// injected *before* a crash survives Recover() — the checkpoint re-emits
// the doctored custody payload verbatim — and the first post-recovery
// custody audit convicts it.
TEST(JournalCrashTest, TamperBeforeCrashSurvivesRecoveryAndIsCaught) {
  ClusterCoordinator cluster(CrashClusterOptions());
  ASSERT_TRUE(WriteLineageChain(&cluster, 8, kChainSpread).ok());
  ASSERT_TRUE(cluster.Sync().ok());
  core::PnodeRange range{core::ShardSpace(0).begin,
                         cluster.machine(0).allocator().peek_next()};
  ASSERT_TRUE(cluster.MigrateRange(range, 2).ok());

  Auditor auditor(&cluster, /*seed=*/3);
  ASSERT_TRUE(auditor.Seal().clean());

  // The adversary edits the sealed range digest inside the EPOCH_BUMP
  // custody record — CRC re-fixed, so framing stays self-consistent.
  ASSERT_EQ(EditCustodyDigest(&cluster).value(), 0);

  // Then the machine dies mid-sync...
  auto extra = cluster.WriteWithLineage(0, "/pre-crash", "z", {});
  ASSERT_TRUE(extra.ok());
  // ...and recovery succeeds: the doctored digest bytes are opaque to the
  // epoch replay, and the checkpoint preserves them verbatim.
  auto run = CrashAndRecover(&cluster, 2, [&] { return cluster.Sync(); });
  ASSERT_TRUE(run.ok() && run->crashed) << run.status().ToString();

  // The first post-recovery custody audit pinpoints the rewrite.
  AuditReport report = auditor.AuditAll(
      AuditOptions{.files = false, .db = false, .custody = true});
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.findings[0].klass, TamperClass::kRowEdit);
  EXPECT_EQ(report.findings[0].shard, 0);
  EXPECT_NE(report.findings[0].detail.find("custody"), std::string::npos);
  EXPECT_EQ(CheckRecovered(&cluster, run->recovery, kQueries).ToString(), "OK")
      << "tamper before crash";
}

}  // namespace
}  // namespace pass::cluster
