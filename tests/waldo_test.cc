// Tests for Waldo: the KV segment store, the provenance database, and the
// log-draining daemon.

#include <gtest/gtest.h>

#include "src/core/object.h"
#include "src/fs/memfs.h"
#include "src/lasagna/lasagna.h"
#include "src/sim/env.h"
#include "src/util/crc32.h"
#include "src/util/encode.h"
#include "src/waldo/kvstore.h"
#include "src/waldo/provdb.h"
#include "src/waldo/waldo.h"

namespace pass::waldo {
namespace {

TEST(KvStoreTest, PutGetMultiValue) {
  KvStore store;
  store.Put("k", "v1");
  store.Put("k", "v2");
  auto values = store.Get("k");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], "v1");
  EXPECT_EQ(values[1], "v2");
  EXPECT_TRUE(store.Contains("k"));
  EXPECT_FALSE(store.Contains("missing"));
  EXPECT_TRUE(store.Get("missing").empty());
}

TEST(KvStoreTest, DeleteTombstones) {
  KvStore store;
  store.Put("k", "v");
  store.Delete("k");
  EXPECT_FALSE(store.Contains("k"));
  EXPECT_EQ(store.stats().tombstones, 1u);
  EXPECT_EQ(store.stats().entries, 0u);
}

TEST(KvStoreTest, ScanByPrefixInOrder) {
  KvStore store;
  store.Put("i/b", "2");
  store.Put("i/a", "1");
  store.Put("o/z", "x");
  store.Put("i/c", "3");
  std::vector<std::string> keys;
  store.Scan("i/", [&](std::string_view key, std::string_view value) {
    keys.emplace_back(key);
  });
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "i/a");
  EXPECT_EQ(keys[2], "i/c");
}

TEST(KvStoreTest, SegmentsRotate) {
  KvStore store(/*segment_bytes=*/256);
  for (int i = 0; i < 50; ++i) {
    store.Put("key" + std::to_string(i), std::string(32, 'v'));
  }
  EXPECT_GT(store.stats().segments, 3u);
}

TEST(KvStoreTest, CompactReclaimsDeletedSpace) {
  KvStore store(/*segment_bytes=*/1024, /*auto_compact=*/false);
  for (int i = 0; i < 100; ++i) {
    store.Put("key" + std::to_string(i), std::string(64, 'v'));
  }
  for (int i = 0; i < 90; ++i) {
    store.Delete("key" + std::to_string(i));
  }
  uint64_t before = store.stats().bytes;
  uint64_t reclaimed = store.Compact();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(store.stats().bytes, before);
  // Survivors intact.
  for (int i = 90; i < 100; ++i) {
    EXPECT_TRUE(store.Contains("key" + std::to_string(i)));
  }
}

TEST(KvStoreTest, AutoCompactionReclaimsSpaceUnderDeleteChurn) {
  // Heavy Delete churn: without auto-compaction the segment log would keep
  // every dead entry and every tombstone forever.
  KvStore store(/*segment_bytes=*/1024);
  KvStore baseline(/*segment_bytes=*/1024, /*auto_compact=*/false);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 50; ++i) {
      std::string key = "churn" + std::to_string(i);
      std::string value(64, static_cast<char>('a' + round));
      store.Put(key, value);
      baseline.Put(key, value);
    }
    for (int i = 0; i < 45; ++i) {
      std::string key = "churn" + std::to_string(i);
      store.Delete(key);
      baseline.Delete(key);
    }
  }
  EXPECT_GT(store.stats().compactions, 0u);
  EXPECT_LT(store.stats().bytes, baseline.stats().bytes / 2);
  // Dead bytes stay bounded by the live share (3x allows frame overhead,
  // which live_bytes does not count).
  EXPECT_LE(store.stats().bytes, 3 * store.stats().live_bytes + 1024);
  // Survivors are intact and multi-values preserved.
  for (int i = 45; i < 50; ++i) {
    auto values = store.Get("churn" + std::to_string(i));
    ASSERT_EQ(values.size(), 10u);
    EXPECT_EQ(values.back(), std::string(64, 'j'));
  }
}

TEST(KvStoreTest, SerializeDeserializeRoundTrip) {
  KvStore store;
  store.Put("a", "1");
  store.Put("b", "2");
  store.Put("b", "3");
  store.Delete("a");
  auto restored = KvStore::Deserialize(store.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored->Contains("a"));
  auto values = restored->Get("b");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[1], "3");
}

TEST(KvStoreTest, DeserializeRejectsCorruption) {
  KvStore store;
  store.Put("key", "value");
  std::string image = store.Serialize();
  image[image.size() / 2] ^= 0x10;
  auto restored = KvStore::Deserialize(image);
  EXPECT_FALSE(restored.ok());
}

// A frame whose CRC covers a body longer than its key and value is not a
// frame this store writes: it must not deserialize.
TEST(KvStoreTest, DeserializeRejectsTrailingBytesInFrame) {
  std::string payload;
  PutU8(&payload, 0);
  PutBytes(&payload, "key");
  PutBytes(&payload, "value");
  payload.append("xx");
  std::string image;
  PutU32(&image, static_cast<uint32_t>(payload.size()));
  PutU32(&image, Crc32(payload));
  image.append(payload);
  auto restored = KvStore::Deserialize(image);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), Code::kCorrupt);
}

// ---- ProvDb ------------------------------------------------------------------

lasagna::LogEntry Entry(core::ObjectRef subject, core::Record record) {
  return lasagna::LogEntry{subject, std::move(record)};
}

TEST(ProvDbTest, AttributesAndEdges) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/out")));
  db.Insert(Entry({1, 0}, core::Record::Type("FILE")));
  db.Insert(Entry({1, 0}, core::Record::Input({2, 0})));
  db.Insert(Entry({2, 0}, core::Record::Type("PROC")));

  auto records = db.RecordsOf({1, 0});
  EXPECT_EQ(records.size(), 2u);  // INPUT lives in the edge tables
  auto inputs = db.Inputs({1, 0});
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(inputs[0], (core::ObjectRef{2, 0}));
  auto outputs = db.Outputs({2, 0});
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(outputs[0], (core::ObjectRef{1, 0}));
}

TEST(ProvDbTest, NameAndTypeIndexes) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/out")));
  db.Insert(Entry({2, 0}, core::Record::Type("PROC")));
  db.Insert(Entry({3, 0}, core::Record::Name("/out")));  // hard link twin
  auto by_name = db.PnodesByName("/out");
  EXPECT_EQ(by_name.size(), 2u);
  auto by_type = db.PnodesByType("PROC");
  ASSERT_EQ(by_type.size(), 1u);
  EXPECT_EQ(by_type[0], 2u);
  EXPECT_EQ(db.NameOf(1), "/out");
  EXPECT_EQ(db.NameOf(99), "");
}

TEST(ProvDbTest, VersionsAccumulate) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Type("FILE")));
  db.Insert(Entry({1, 2}, core::Record::Input({1, 1})));
  auto versions = db.VersionsOf(1);
  ASSERT_EQ(versions.size(), 3u);  // 0, 1 (as ancestor), 2
  EXPECT_EQ(versions[2], 2u);
}

TEST(ProvDbTest, BulkLookupsAlignWithSingleLookups) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/a")));
  db.Insert(Entry({1, 0}, core::Record::Input({2, 0})));
  db.Insert(Entry({1, 0}, core::Record::Input({3, 0})));
  db.Insert(Entry({2, 0}, core::Record::Type("PROC")));

  std::vector<core::ObjectRef> refs = {{1, 0}, {2, 0}, {99, 0}};
  auto inputs = db.InputsMany(refs);
  auto outputs = db.OutputsMany(refs);
  ASSERT_EQ(inputs.size(), refs.size());
  ASSERT_EQ(outputs.size(), refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(inputs[i], db.Inputs(refs[i])) << i;
    EXPECT_EQ(outputs[i], db.Outputs(refs[i])) << i;
  }
  auto records = db.RecordsOfAllVersionsMany({1, 2, 99});
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].size(), db.RecordsOfAllVersions(1).size());
  EXPECT_EQ(records[1].size(), db.RecordsOfAllVersions(2).size());
  EXPECT_TRUE(records[2].empty());
}

TEST(ProvDbTest, MutationCountAdvancesOnlyOnChange) {
  ProvDb db;
  uint64_t before = db.mutation_count();
  db.Insert(Entry({1, 0}, core::Record::Name("/a")));
  db.Insert(Entry({1, 0}, core::Record::Input({2, 0})));
  uint64_t after_insert = db.mutation_count();
  EXPECT_GT(after_insert, before);

  // Reads leave it alone.
  db.Inputs({1, 0});
  db.RecordsOfAllVersions(1);
  EXPECT_EQ(db.mutation_count(), after_insert);

  // A fully duplicate InsertUnique is a no-op; a fresh one counts.
  EXPECT_FALSE(db.InsertUnique(Entry({1, 0}, core::Record::Input({2, 0}))));
  EXPECT_EQ(db.mutation_count(), after_insert);
  EXPECT_TRUE(db.InsertUnique(Entry({1, 0}, core::Record::Input({3, 0}))));
  EXPECT_GT(db.mutation_count(), after_insert);

  // A removing DeleteRange counts; an empty one does not.
  uint64_t after_unique = db.mutation_count();
  EXPECT_GT(db.DeleteRange(1, 2), 0u);
  uint64_t after_delete = db.mutation_count();
  EXPECT_GT(after_delete, after_unique);
  EXPECT_EQ(db.DeleteRange(50, 60), 0u);
  EXPECT_EQ(db.mutation_count(), after_delete);
}

TEST(ProvDbTest, StatsTrackStores) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/out")));
  db.Insert(Entry({1, 0}, core::Record::Input({2, 0})));
  auto stats = db.stats();
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.edges, 1u);
  EXPECT_GT(stats.db_bytes, 0u);
  EXPECT_GT(stats.index_bytes, 0u);
}

TEST(ProvDbTest, SerializeDeserializePreservesQueryResults) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/out")));
  db.Insert(Entry({1, 0}, core::Record::Type("FILE")));
  db.Insert(Entry({1, 0}, core::Record::Input({2, 0})));
  db.Insert(Entry({1, 2}, core::Record::Input({1, 1})));
  db.Insert(Entry({2, 0}, core::Record::Type("PROC")));
  db.Insert(Entry({2, 0}, core::Record::Of(core::Attr::kPid, int64_t{42})));
  db.Insert(Entry({3, 0}, core::Record::Annotation("step", int64_t{7})));

  auto restored = ProvDb::Deserialize(db.Serialize());
  ASSERT_TRUE(restored.ok());

  EXPECT_EQ(restored->RecordsOf({1, 0}), db.RecordsOf({1, 0}));
  EXPECT_EQ(restored->RecordsOfAllVersions(1), db.RecordsOfAllVersions(1));
  EXPECT_EQ(restored->Inputs({1, 0}), db.Inputs({1, 0}));
  EXPECT_EQ(restored->Inputs({1, 2}), db.Inputs({1, 2}));
  EXPECT_EQ(restored->Outputs({2, 0}), db.Outputs({2, 0}));
  EXPECT_EQ(restored->VersionsOf(1), db.VersionsOf(1));
  EXPECT_EQ(restored->PnodesByName("/out"), db.PnodesByName("/out"));
  EXPECT_EQ(restored->PnodesByType("PROC"), db.PnodesByType("PROC"));
  EXPECT_EQ(restored->NameOf(1), "/out");
  EXPECT_EQ(restored->AllPnodes(), db.AllPnodes());
  EXPECT_EQ(restored->RecordsOf({3, 0}), db.RecordsOf({3, 0}));
  EXPECT_EQ(restored->stats().records, db.stats().records);
  EXPECT_EQ(restored->stats().edges, db.stats().edges);
  EXPECT_EQ(restored->stats().objects, db.stats().objects);
}

TEST(ProvDbTest, DeserializeRejectsCorruptImage) {
  ProvDb db;
  db.Insert(Entry({1, 0}, core::Record::Name("/out")));
  std::string image = db.Serialize();
  image[image.size() - 3] ^= 0x40;
  EXPECT_FALSE(ProvDb::Deserialize(image).ok());
}

// ---- Range surface (cluster migration) --------------------------------------

// Fixture data: pnodes 10..12 form a chain 12 <- 11 <- 10, and pnode 50
// outside the range depends on 11 inside it.
ProvDb RangeDb() {
  ProvDb db;
  db.Insert(Entry({10, 0}, core::Record::Name("/a")));
  db.Insert(Entry({10, 0}, core::Record::Type("FILE")));
  db.Insert(Entry({11, 0}, core::Record::Name("/b")));
  db.Insert(Entry({11, 0}, core::Record::Input({10, 0})));
  db.Insert(Entry({12, 0}, core::Record::Name("/c")));
  db.Insert(Entry({12, 0}, core::Record::Input({11, 0})));
  db.Insert(Entry({50, 0}, core::Record::Name("/far")));
  db.Insert(Entry({50, 0}, core::Record::Input({11, 0})));
  return db;
}

TEST(ProvDbTest, RecordAndEdgeCountAccessors) {
  ProvDb db = RangeDb();
  EXPECT_EQ(db.RecordCount(), 5u);
  EXPECT_EQ(db.EdgeCount(), 3u);
  EXPECT_EQ(db.RecordCount(), db.stats().records);
  EXPECT_EQ(db.EdgeCount(), db.stats().edges);
}

TEST(ProvDbTest, RowsInRangeCountsSubjectRows) {
  ProvDb db = RangeDb();
  EXPECT_EQ(db.RowsInRange(10, 13), 6u);  // 4 attrs + 2 in-range fwd edges
  EXPECT_EQ(db.RowsInRange(50, 51), 2u);  // /far's name + its edge
  EXPECT_EQ(db.RowsInRange(13, 50), 0u);
  auto weights = db.PnodeRowsInRange(10, 13);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_EQ(weights[0], (std::pair<core::PnodeId, uint64_t>{10, 2}));
  EXPECT_EQ(weights[1], (std::pair<core::PnodeId, uint64_t>{11, 2}));
  EXPECT_EQ(weights[2], (std::pair<core::PnodeId, uint64_t>{12, 2}));
}

TEST(ProvDbTest, InsertUniqueSkipsRowsAlreadyPresent) {
  ProvDb db = RangeDb();
  EXPECT_FALSE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/a"))));
  EXPECT_FALSE(db.InsertUnique(Entry({11, 0}, core::Record::Input({10, 0}))));
  EXPECT_EQ(db.RecordCount(), 5u);
  EXPECT_EQ(db.EdgeCount(), 3u);
  EXPECT_TRUE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/other"))));
  EXPECT_TRUE(db.InsertUnique(Entry({11, 0}, core::Record::Input({12, 0}))));
  EXPECT_FALSE(db.InsertUnique(Entry({11, 0}, core::Record::Input({12, 0}))));
  EXPECT_EQ(db.RecordCount(), 6u);
  EXPECT_EQ(db.EdgeCount(), 4u);
}

TEST(ProvDbTest, InsertUniqueCompletesAHalfPresentEdge) {
  // After DeleteRange(10, 13), the 50 -> 11 edge survives only as 50's
  // forward row; re-inserting the entry must restore the missing reverse
  // half without duplicating the forward one.
  ProvDb db = RangeDb();
  db.DeleteRange(10, 13);
  ASSERT_TRUE(db.Outputs({11, 0}).empty());
  ASSERT_EQ(db.Inputs({50, 0}).size(), 1u);
  EXPECT_TRUE(db.InsertUnique(Entry({50, 0}, core::Record::Input({11, 0}))));
  EXPECT_EQ(db.Inputs({50, 0}).size(), 1u);
  ASSERT_EQ(db.Outputs({11, 0}).size(), 1u);
  EXPECT_EQ(db.Outputs({11, 0})[0], (core::ObjectRef{50, 0}));
}

TEST(ProvDbTest, DeleteRangeIgnoresEmptyAndInvertedRanges) {
  ProvDb db = RangeDb();
  EXPECT_EQ(db.DeleteRange(0, 0), 0u);
  EXPECT_EQ(db.DeleteRange(50, 10), 0u);
  EXPECT_EQ(db.RecordCount(), 5u);
  EXPECT_EQ(db.AllPnodes().size(), 4u);
  EXPECT_EQ(db.NameOf(10), "/a");
}

TEST(ProvDbTest, EntriesInRangeReplayIntoAnEquivalentRange) {
  ProvDb db = RangeDb();
  ProvDb moved;
  for (const auto& entry : db.EntriesInRange(10, 13)) {
    moved.Insert(entry);
  }
  // Subject rows of 10..12 all arrived.
  EXPECT_EQ(moved.RecordsOf({10, 0}), db.RecordsOf({10, 0}));
  EXPECT_EQ(moved.Inputs({11, 0}), db.Inputs({11, 0}));
  EXPECT_EQ(moved.Inputs({12, 0}), db.Inputs({12, 0}));
  // The reverse row naming out-of-range 50 as descendant of 11 came too.
  EXPECT_EQ(moved.Outputs({11, 0}), db.Outputs({11, 0}));
  // But 50's own attribute rows did not (they are not in the range).
  EXPECT_TRUE(moved.RecordsOf({50, 0}).empty());
  // No duplicates: the 12<-11 edge appears once although both ends are
  // in range (forward and reverse rows come from one entry).
  EXPECT_EQ(moved.Inputs({12, 0}).size(), 1u);
  EXPECT_EQ(moved.EdgeCount(), 3u);
}

TEST(ProvDbTest, DeleteRangeDropsKeyedRowsOnly) {
  ProvDb db = RangeDb();
  uint64_t removed = db.DeleteRange(10, 13);
  EXPECT_GT(removed, 0u);
  // In-range subjects are gone from every surface.
  EXPECT_TRUE(db.RecordsOf({10, 0}).empty());
  EXPECT_TRUE(db.Inputs({12, 0}).empty());
  EXPECT_TRUE(db.Outputs({11, 0}).empty());
  EXPECT_TRUE(db.VersionsOf(11).empty());
  EXPECT_TRUE(db.PnodesByName("/b").empty());
  EXPECT_EQ(db.NameOf(10), "");
  EXPECT_EQ(db.RowsInRange(10, 13), 0u);
  // Out-of-range rows stay — including 50's forward edge into the range.
  EXPECT_EQ(db.RecordsOf({50, 0}).size(), 1u);
  ASSERT_EQ(db.Inputs({50, 0}).size(), 1u);
  EXPECT_EQ(db.Inputs({50, 0})[0], (core::ObjectRef{11, 0}));
  ASSERT_EQ(db.PnodesByName("/far").size(), 1u);
  // Counters reconcile.
  EXPECT_EQ(db.RecordCount(), 1u);
  EXPECT_EQ(db.EdgeCount(), 1u);
}

TEST(ProvDbTest, DeleteRangeSurvivesSerializeRoundTrip) {
  ProvDb db = RangeDb();
  db.DeleteRange(10, 13);
  auto restored = ProvDb::Deserialize(db.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->RecordsOf({10, 0}).empty());
  EXPECT_TRUE(restored->VersionsOf(12).empty());
  // The deleted reverse row does not resurrect from 50's surviving forward
  // edge: outputs rebuild from 'o/' keys alone.
  EXPECT_TRUE(restored->Outputs({11, 0}).empty());
  EXPECT_EQ(restored->RecordsOf({50, 0}), db.RecordsOf({50, 0}));
  EXPECT_EQ(restored->Inputs({50, 0}), db.Inputs({50, 0}));
  EXPECT_EQ(restored->PnodesByName("/far"), db.PnodesByName("/far"));
  EXPECT_EQ(restored->stats().records, db.stats().records);
  EXPECT_EQ(restored->stats().edges, db.stats().edges);
}

TEST(ProvDbTest, PartialNameIndexDeleteKeepsSurvivors) {
  ProvDb db;
  db.Insert(Entry({5, 0}, core::Record::Name("/twin")));
  db.Insert(Entry({80, 0}, core::Record::Name("/twin")));  // hard link twin
  db.DeleteRange(0, 10);
  auto by_name = db.PnodesByName("/twin");
  ASSERT_EQ(by_name.size(), 1u);
  EXPECT_EQ(by_name[0], 80u);
}

// ---- Waldo daemon ------------------------------------------------------------

class WaldoTest : public ::testing::Test {
 protected:
  WaldoTest()
      : env_(5),
        lower_(&env_, nullptr, {}, {}, {},
               fs::MemFsOptions{.charge_disk = false}),
        allocator_(0),
        volume_(&env_, &lower_, &allocator_, SmallLogs()),
        waldo_(&db_) {
    waldo_.AddVolume(&volume_);
  }

  static lasagna::LasagnaOptions SmallLogs() {
    lasagna::LasagnaOptions options;
    options.log_rotate_bytes = 512;
    return options;
  }

  sim::Env env_;
  fs::MemFs lower_;
  core::PnodeAllocator allocator_;
  lasagna::LasagnaFs volume_;
  ProvDb db_;
  Waldo waldo_;
};

TEST_F(WaldoTest, DrainMovesRecordsToDatabase) {
  auto root = volume_.root();
  auto file = *root->Create("out", os::VnodeType::kFile);
  core::Bundle bundle{core::BundleEntry{
      {file->pnode(), 0},
      {core::Record::Name("/out"), core::Record::Input({777, 0})}}};
  ASSERT_TRUE(file->PassWrite(0, "data", bundle).ok());
  ASSERT_TRUE(waldo_.Drain().ok());

  EXPECT_GE(waldo_.stats().entries_ingested, 2u);
  EXPECT_EQ(db_.PnodesByName("/out").size(), 1u);
  EXPECT_EQ(db_.Inputs({file->pnode(), 0}).size(), 1u);
  // Logs consumed and removed.
  EXPECT_TRUE(volume_.ClosedLogPaths().empty());
}

TEST_F(WaldoTest, PollConsumesOnlyClosedLogs) {
  auto root = volume_.root();
  auto file = *root->Create("out", os::VnodeType::kFile);
  ASSERT_TRUE(file->Write(0, "x").ok());  // tiny: log stays open
  ASSERT_TRUE(waldo_.Poll().ok());
  EXPECT_EQ(waldo_.stats().logs_processed, 0u);
  ASSERT_TRUE(volume_.ForceRotate().ok());
  ASSERT_TRUE(waldo_.Poll().ok());
  EXPECT_EQ(waldo_.stats().logs_processed, 1u);
}

TEST_F(WaldoTest, OrphanedTransactionsDiscarded) {
  // Hand-craft a log with a BEGINTXN that never commits (crashed client).
  std::string log;
  lasagna::EncodeLogEntry(
      &log, {{1, 0}, core::Record::Of(core::Attr::kBeginTxn, int64_t{99})});
  lasagna::EncodeLogEntry(&log, {{1, 0}, core::Record::Name("/never")});
  ASSERT_TRUE(lower_.WriteFileRaw("/.pass/log.crafted", log).ok());
  // Route it through ProcessLog by pretending it is a closed log: place a
  // fresh volume over the same lower fs.
  ASSERT_TRUE(waldo_.Poll().ok());  // crafted log not in ClosedLogPaths...
  // ...so process it explicitly through a drain cycle after rotation
  // bookkeeping: craft entries via the public API instead.
  auto root = volume_.root();
  auto file = *root->Create("f", os::VnodeType::kFile);
  ASSERT_TRUE(file->Write(0, "y").ok());
  ASSERT_TRUE(waldo_.Drain().ok());
  EXPECT_EQ(db_.PnodesByName("/never").size(), 0u);
}

TEST_F(WaldoTest, MultipleRotationsAllIngested) {
  auto root = volume_.root();
  auto file = *root->Create("big", os::VnodeType::kFile);
  for (int i = 0; i < 20; ++i) {
    core::Bundle bundle{core::BundleEntry{
        {file->pnode(), 0},
        {core::Record::Annotation("step", int64_t{i})}}};
    ASSERT_TRUE(file->PassWrite(i, "z", bundle).ok());
  }
  ASSERT_TRUE(waldo_.Drain().ok());
  EXPECT_GT(waldo_.stats().logs_processed, 2u);
  EXPECT_GE(db_.RecordsOf({file->pnode(), 0}).size(), 20u);
}

// Per-pnode change stamps: a row stamps exactly the pnode that keys it with
// the mutation that wrote it, and no other pnode — the federated cache's
// per-entry revalidation and the standing tier's frontier both depend on a
// write leaving its neighbours' stamps put.
using Pnodes = std::vector<core::PnodeId>;

TEST(ProvDbTest, ChangeStampsTrackMutationsPerPnode) {
  ProvDb db;
  EXPECT_EQ(db.changed_at(10), 0u);
  EXPECT_EQ(db.PnodesChangedSince(0), Pnodes{});
  db.Insert(Entry({10, 0}, core::Record::Name("/a")));
  EXPECT_EQ(db.changed_at(10), 1u);
  EXPECT_EQ(db.changed_at(10), db.mutation_count());
  // Neither a neighbour nor a pnode that shared a 64-pnode range with 10
  // moves.
  EXPECT_EQ(db.changed_at(9), 0u);
  EXPECT_EQ(db.changed_at(11), 0u);
  EXPECT_EQ(db.changed_at(63), 0u);
  // An edge stamps both endpoints: the reverse-index row under the ancestor
  // is as much a mutation of the ancestor as the forward row is of the
  // subject.
  db.Insert(Entry({70, 0}, core::Record::Input({10, 0})));
  EXPECT_EQ(db.changed_at(70), 2u);
  EXPECT_EQ(db.changed_at(10), 2u);
  EXPECT_EQ(db.changed_at(11), 0u);
  EXPECT_EQ(db.changed_at(71), 0u);
  EXPECT_EQ(db.PnodesChangedSince(0), (Pnodes{10, 70}));
  EXPECT_EQ(db.PnodesChangedSince(1), (Pnodes{10, 70}));
  EXPECT_EQ(db.PnodesChangedSince(2), Pnodes{});
  db.Insert(Entry({11, 0}, core::Record::Name("/b")));
  EXPECT_EQ(db.PnodesChangedSince(2), Pnodes{11});
  EXPECT_EQ(db.changed_at(10), 2u);
}

TEST(ProvDbTest, ChangeStampIgnoresDuplicateInsertUnique) {
  ProvDb db;
  EXPECT_TRUE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/a"))));
  EXPECT_TRUE(db.InsertUnique(Entry({11, 0}, core::Record::Input({10, 0}))));
  uint64_t settled = db.mutation_count();
  uint64_t stamp10 = db.changed_at(10);
  uint64_t stamp11 = db.changed_at(11);
  // A replayed row is not a mutation: redelivered ingest batches must not
  // shake warm cache entries loose or re-publish frontier pnodes.
  EXPECT_FALSE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/a"))));
  EXPECT_FALSE(db.InsertUnique(Entry({11, 0}, core::Record::Input({10, 0}))));
  EXPECT_EQ(db.mutation_count(), settled);
  EXPECT_EQ(db.changed_at(10), stamp10);
  EXPECT_EQ(db.changed_at(11), stamp11);
  EXPECT_EQ(db.PnodesChangedSince(settled), Pnodes{});
  // A new row for 10 stamps 10 alone.
  EXPECT_TRUE(db.InsertUnique(Entry({10, 0}, core::Record::Name("/b"))));
  EXPECT_EQ(db.changed_at(10), db.mutation_count());
  EXPECT_EQ(db.changed_at(11), stamp11);
  EXPECT_EQ(db.PnodesChangedSince(settled), Pnodes{10});
  // Half an edge: deleting [10, 11) drops the reverse row keyed by 10 but
  // keeps 11's forward row, so re-inserting the edge adds (and stamps) only
  // the ancestor's side.
  EXPECT_GT(db.DeleteRange(10, 11), 0u);
  settled = db.mutation_count();
  stamp11 = db.changed_at(11);
  EXPECT_TRUE(db.InsertUnique(Entry({11, 0}, core::Record::Input({10, 0}))));
  EXPECT_EQ(db.PnodesChangedSince(settled), Pnodes{10});
  EXPECT_EQ(db.changed_at(11), stamp11);
}

TEST(ProvDbTest, DeleteRangeStampsOnlyPnodesWhoseRowsItRemoved) {
  ProvDb db;
  db.Insert(Entry({10, 0}, core::Record::Name("/a")));
  db.Insert(Entry({11, 0}, core::Record::Input({10, 0})));
  db.Insert(Entry({12, 0}, core::Record::Name("/c")));
  db.Insert(Entry({200, 0}, core::Record::Name("/far")));
  db.Insert(Entry({200, 0}, core::Record::Input({11, 0})));
  uint64_t before = db.mutation_count();
  uint64_t stamp12 = db.changed_at(12);
  uint64_t stamp200 = db.changed_at(200);
  EXPECT_GT(db.DeleteRange(10, 12), 0u);
  // One mutation, stamped on the pnodes keying the removed rows: 10 (its
  // attributes and reverse row) and 11 (its forward edge and the 11 <- 200
  // reverse row). Pnode 12 sits just past the range and pnode 200's rows
  // all survive (even its forward edge into the range): neither moves.
  EXPECT_EQ(db.mutation_count(), before + 1);
  EXPECT_EQ(db.changed_at(10), db.mutation_count());
  EXPECT_EQ(db.changed_at(11), db.mutation_count());
  EXPECT_EQ(db.changed_at(12), stamp12);
  EXPECT_EQ(db.changed_at(200), stamp200);
  EXPECT_EQ(db.PnodesChangedSince(before), (Pnodes{10, 11}));
  // Deleting an already-empty range is not a mutation anywhere.
  uint64_t settled = db.mutation_count();
  EXPECT_EQ(db.DeleteRange(10, 12), 0u);
  EXPECT_EQ(db.mutation_count(), settled);
  EXPECT_EQ(db.PnodesChangedSince(settled), Pnodes{});
}

}  // namespace
}  // namespace pass::waldo
