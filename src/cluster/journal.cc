#include "src/cluster/journal.h"

#include <algorithm>
#include <map>

#include "src/lasagna/recovery.h"
#include "src/util/encode.h"
#include "src/util/logging.h"

namespace pass::cluster {

using lasagna::JournalRecord;
using lasagna::JournalRecordType;

namespace {

std::string EncodeBatchPayload(int destination,
                               const std::vector<lasagna::LogEntry>& entries) {
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(destination));
  lasagna::EncodeLogEntries(&payload, entries);
  return payload;
}

std::string EncodeRangePayload(core::PnodeRange range) {
  std::string payload;
  PutU64(&payload, range.begin);
  PutU64(&payload, range.end);
  return payload;
}

void AppendDigest(std::string* payload, const Md5Digest& digest) {
  payload->append(reinterpret_cast<const char*>(digest.data()),
                  digest.size());
}

}  // namespace

ClusterJournal::ClusterJournal(fs::MemFs* lower, std::string path)
    : lower_(lower), path_(std::move(path)) {
  if (lower_->ExistsRaw(path_)) {
    // Restarted over an existing image: continue the id sequence past it
    // and re-fold the hash chain over the valid prefix.
    auto image = lower_->ReadFileRaw(path_);
    if (image.ok()) {
      size_ = image->size();
      bool truncated = false;
      lasagna::FrameScanInfo scan;
      auto records = lasagna::ParseJournal(*image, &truncated, &scan);
      if (records.ok()) {
        chain_head_ = scan.chain_head;
        chain_frames_ = scan.frames;
        for (const JournalRecord& record : *records) {
          if (record.type == JournalRecordType::kReplBatch) {
            next_batch_id_ = std::max(next_batch_id_, record.id + 1);
          }
        }
      }
    }
  }
}

void ClusterJournal::Append(const JournalRecord& record) {
  std::string frame;
  if (group_open_) {
    // Buffered: durable only when the group commits, so only the staged
    // chain advances here.
    lasagna::EncodeJournalRecord(&frame, record, &staged_chain_);
    ++staged_frames_;
    group_buf_ += frame;
    ++group_pending_frames_;
    return;
  }
  lasagna::EncodeJournalRecord(&frame, record, &chain_head_);
  ++chain_frames_;
  WriteFrames(frame, 1);
}

void ClusterJournal::WriteFrames(std::string_view frames, uint64_t count) {
  if (frames.empty()) {
    return;
  }
  if (!lower_->ExistsRaw(path_)) {
    PASS_CHECK(lower_->WriteFileRaw(path_, "").ok());
    size_ = 0;
  }
  auto vnode = lower_->ResolvePath(path_);
  PASS_CHECK(vnode.ok());
  auto written = (*vnode)->Write(size_, frames);
  PASS_CHECK(written.ok());
  size_ += *written;
  records_appended_ += count;
}

void ClusterJournal::BeginGroup() {
  PASS_CHECK(!group_open_);
  group_open_ = true;
  staged_chain_ = chain_head_;
  staged_frames_ = chain_frames_;
}

size_t ClusterJournal::CommitGroup() {
  PASS_CHECK(group_open_);
  group_open_ = false;
  size_t frames = static_cast<size_t>(group_pending_frames_);
  if (frames > 0) {
    WriteFrames(group_buf_, group_pending_frames_);
    // The coalesced write is durable: the staged chain becomes the head.
    chain_head_ = staged_chain_;
    chain_frames_ = staged_frames_;
  }
  group_buf_.clear();
  group_pending_frames_ = 0;
  return frames;
}

void ClusterJournal::AbortGroup() {
  group_open_ = false;
  group_buf_.clear();
  group_pending_frames_ = 0;
  // The buffered frames never reached the disk; the staged chain dies with
  // them and the head still describes the durable image.
  staged_chain_ = chain_head_;
  staged_frames_ = chain_frames_;
}

uint64_t ClusterJournal::AppendReplBatch(
    int destination, const std::vector<lasagna::LogEntry>& entries) {
  uint64_t id = next_batch_id_++;
  Append(JournalRecord{JournalRecordType::kReplBatch, id,
                       EncodeBatchPayload(destination, entries)});
  return id;
}

void ClusterJournal::AppendReplApplied(uint64_t batch_id) {
  Append(JournalRecord{JournalRecordType::kReplApplied, batch_id, ""});
}

void ClusterJournal::AppendMigrateBegin(uint64_t migration_id,
                                        core::PnodeRange range, int from,
                                        int to) {
  std::string payload = EncodeRangePayload(range);
  PutU32(&payload, static_cast<uint32_t>(from));
  PutU32(&payload, static_cast<uint32_t>(to));
  Append(JournalRecord{JournalRecordType::kMigrateBegin, migration_id,
                       std::move(payload)});
}

void ClusterJournal::AppendEpochBump(uint64_t epoch, uint64_t migration_id,
                                     core::PnodeRange range, int to_shard,
                                     const Md5Digest& range_digest) {
  std::string payload;
  PutU64(&payload, migration_id);
  payload.append(EncodeRangePayload(range));
  PutU32(&payload, static_cast<uint32_t>(to_shard));
  // Custody record: the chain head *before* this frame (it commits to every
  // earlier frame) plus the content digest of the range being handed over.
  AppendDigest(&payload, group_open_ ? staged_chain_ : chain_head_);
  AppendDigest(&payload, range_digest);
  Append(JournalRecord{JournalRecordType::kEpochBump, epoch,
                       std::move(payload)});
}

void ClusterJournal::AppendMigrateCopied(uint64_t migration_id) {
  Append(JournalRecord{JournalRecordType::kMigrateCopied, migration_id, ""});
}

void ClusterJournal::AppendMigrateCommit(uint64_t migration_id) {
  // Pin the chain position at which this journal's source rows were
  // deleted; an auditor replaying the chain can place the hand-off.
  std::string payload;
  AppendDigest(&payload, group_open_ ? staged_chain_ : chain_head_);
  Append(JournalRecord{JournalRecordType::kMigrateCommit, migration_id,
                       std::move(payload)});
}

Result<JournalState> ClusterJournal::Scan() const {
  PASS_ASSIGN_OR_RETURN(lasagna::JournalScanReport scan,
                        lasagna::ScanJournal(lower_, path_));
  JournalState state;
  state.records_scanned = scan.records_scanned;
  state.truncated = scan.truncated;
  state.valid_bytes = scan.valid_bytes;
  state.corrupt_frames = scan.corrupt_frames;
  state.chain_head = scan.chain_head;

  std::map<uint64_t, size_t> batch_at;      // batch id -> index in batches
  std::map<uint64_t, size_t> migration_at;  // migration id -> index
  for (const JournalRecord& record : scan.records) {
    Decoder in(record.payload);
    switch (record.type) {
      case JournalRecordType::kReplBatch: {
        JournalBatch batch;
        batch.id = record.id;
        PASS_ASSIGN_OR_RETURN(uint32_t destination, in.U32());
        batch.destination = static_cast<int>(destination);
        PASS_ASSIGN_OR_RETURN(
            batch.entries,
            lasagna::DecodeLogEntries(
                std::string_view(record.payload).substr(in.position())));
        batch_at[batch.id] = state.batches.size();
        state.batches.push_back(std::move(batch));
        break;
      }
      case JournalRecordType::kReplApplied: {
        auto it = batch_at.find(record.id);
        if (it != batch_at.end()) {
          state.batches[it->second].applied = true;
        }
        break;
      }
      case JournalRecordType::kMigrateBegin: {
        JournalMigration migration;
        migration.id = record.id;
        PASS_ASSIGN_OR_RETURN(migration.range.begin, in.U64());
        PASS_ASSIGN_OR_RETURN(migration.range.end, in.U64());
        PASS_ASSIGN_OR_RETURN(uint32_t from, in.U32());
        PASS_ASSIGN_OR_RETURN(uint32_t to, in.U32());
        migration.from = static_cast<int>(from);
        migration.to = static_cast<int>(to);
        migration_at[migration.id] = state.migrations.size();
        state.migrations.push_back(migration);
        state.max_migration_id = std::max(state.max_migration_id,
                                          migration.id);
        break;
      }
      case JournalRecordType::kMigrateCopied:
      case JournalRecordType::kMigrateCommit: {
        auto it = migration_at.find(record.id);
        if (it != migration_at.end()) {
          JournalMigration& migration = state.migrations[it->second];
          if (record.type == JournalRecordType::kMigrateCopied) {
            migration.copied = true;
          } else {
            migration.committed = true;
          }
        }
        break;
      }
      case JournalRecordType::kEpochBump: {
        JournalEpochBump bump;
        bump.epoch = record.id;
        PASS_ASSIGN_OR_RETURN(bump.migration_id, in.U64());
        PASS_ASSIGN_OR_RETURN(bump.range.begin, in.U64());
        PASS_ASSIGN_OR_RETURN(bump.range.end, in.U64());
        PASS_ASSIGN_OR_RETURN(uint32_t to_shard, in.U32());
        bump.to_shard = static_cast<int>(to_shard);
        // Custody digests: appended by audit-aware writers; a shorter
        // payload is a pre-audit image, not corruption.
        if (in.remaining() >= bump.chain_head.size() +
                                  bump.range_digest.size()) {
          for (auto& byte : bump.chain_head) {
            PASS_ASSIGN_OR_RETURN(byte, in.U8());
          }
          for (auto& byte : bump.range_digest) {
            PASS_ASSIGN_OR_RETURN(byte, in.U8());
          }
          bump.has_digests = true;
        }
        bump.raw_payload = record.payload;
        state.epoch_bumps.push_back(std::move(bump));
        break;
      }
    }
  }
  // Link bumps to their migrations after the full pass, so classification
  // does not depend on record order (Checkpoint may rewrite bumps first).
  for (const JournalEpochBump& bump : state.epoch_bumps) {
    auto it = migration_at.find(bump.migration_id);
    if (it != migration_at.end()) {
      state.migrations[it->second].epoch_bumped = true;
      state.migrations[it->second].epoch = bump.epoch;
    }
  }
  return state;
}

Status ClusterJournal::Checkpoint() {
  PASS_ASSIGN_OR_RETURN(JournalState state, Scan());
  std::vector<JournalRecord> keep;
  for (const JournalEpochBump& bump : state.epoch_bumps) {
    // Re-emit the payload exactly as journaled: the custody digests sealed
    // into it must survive every checkpoint verbatim.
    keep.push_back(JournalRecord{JournalRecordType::kEpochBump, bump.epoch,
                                 bump.raw_payload});
  }
  for (const JournalMigration& migration : state.migrations) {
    if (migration.committed) {
      continue;
    }
    std::string payload = EncodeRangePayload(migration.range);
    PutU32(&payload, static_cast<uint32_t>(migration.from));
    PutU32(&payload, static_cast<uint32_t>(migration.to));
    keep.push_back(JournalRecord{JournalRecordType::kMigrateBegin,
                                 migration.id, std::move(payload)});
    if (migration.copied) {
      keep.push_back(JournalRecord{JournalRecordType::kMigrateCopied,
                                   migration.id, ""});
    }
  }
  for (const JournalBatch& batch : state.batches) {
    if (batch.applied) {
      continue;
    }
    keep.push_back(JournalRecord{JournalRecordType::kReplBatch, batch.id,
                                 EncodeBatchPayload(batch.destination,
                                                    batch.entries)});
  }
  Rewrite(keep);
  return Status::Ok();
}

void ClusterJournal::Rewrite(const std::vector<JournalRecord>& records) {
  // Maintenance write, raw like RemoveLog: checkpointing is a recovery-time
  // housekeeping operation, not part of the charged workload path.
  // A rewrite replaces the image, so the chain starts over from the zero
  // digest and re-folds over the kept records. Seals taken against the old
  // head are invalidated — by design: a checkpoint is a *legitimate*
  // rewrite, and the custody records inside survive to prove history.
  std::string image;
  chain_head_ = lasagna::ChainHash{};
  chain_frames_ = 0;
  for (const JournalRecord& record : records) {
    lasagna::EncodeJournalRecord(&image, record, &chain_head_);
    ++chain_frames_;
  }
  size_ = image.size();
  PASS_CHECK(lower_->WriteFileRaw(path_, image).ok());
}

}  // namespace pass::cluster
