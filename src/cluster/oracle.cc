#include "src/cluster/oracle.h"

#include "src/cluster/federated_source.h"
#include "src/pql/eval.h"
#include "src/pql/provdb_source.h"
#include "src/util/strings.h"
#include "src/waldo/provdb.h"

namespace pass::cluster {

namespace {

using ull = unsigned long long;

// The class an Auditor must report for each kind of tampering.
TamperClass ExpectedTamperClass(TamperKind kind) {
  switch (kind) {
    case TamperKind::kFlipByte:
    case TamperKind::kFlipByteFixCrc:
      return TamperClass::kRowEdit;
    case TamperKind::kDeleteFrame:
    case TamperKind::kTruncateAtFrame:
    case TamperKind::kTruncateMidFrame:
      return TamperClass::kTruncation;
    case TamperKind::kSwapFrames:
      return TamperClass::kReordering;
  }
  return TamperClass::kNone;
}

}  // namespace

Result<std::vector<std::string>> QueryRows(const pql::GraphSource* source,
                                           std::string_view query) {
  auto result = pql::Engine(source).Run(query);
  if (!result.ok()) {
    return Status(result.status().code(),
                  result.status().message() + " in query: " +
                      std::string(query));
  }
  return result->RowKeys();
}

Result<std::vector<std::string>> MergedRows(const ClusterCoordinator& cluster,
                                            std::string_view query) {
  waldo::ProvDb merged;
  cluster.MergeInto(&merged);
  pql::ProvDbSource source(&merged);
  return QueryRows(&source, query);
}

Status CheckFederatedMatchesMerged(ClusterCoordinator* cluster,
                                   const std::vector<std::string>& queries) {
  FederatedSource federated = cluster->Source();
  waldo::ProvDb merged;
  cluster->MergeInto(&merged);
  pql::ProvDbSource merged_source(&merged);
  for (const std::string& query : queries) {
    PASS_ASSIGN_OR_RETURN(std::vector<std::string> got,
                          QueryRows(&federated, query));
    PASS_ASSIGN_OR_RETURN(std::vector<std::string> want,
                          QueryRows(&merged_source, query));
    if (want.empty()) {
      return Internal("merged answer is empty: " + query);
    }
    if (got != want) {
      return Internal("federated answer (" + std::to_string(got.size()) +
                      " rows) != merged answer (" +
                      std::to_string(want.size()) + " rows): " + query);
    }
  }
  return Status::Ok();
}

Result<uint64_t> CountCrashPoints(ClusterCoordinator* cluster,
                                  const std::function<Status()>& step) {
  uint64_t before = cluster->env().crash_points_passed();
  PASS_RETURN_IF_ERROR(step());
  return cluster->env().crash_points_passed() - before;
}

Result<CrashRun> CrashAndRecover(ClusterCoordinator* cluster, uint64_t point,
                                 const std::function<Status()>& step) {
  sim::Env& env = cluster->env();
  env.CrashAfterOps(point);
  Status status = step();
  if (status.ok()) {
    env.ClearCrash();
    return CrashRun{};
  }
  std::string at = "crash point " + std::to_string(point) + ": ";
  if (!env.crashed()) {
    return Internal(at + "step failed without crashing: " + status.ToString());
  }
  auto recovery = cluster->Recover();
  if (!recovery.ok() || env.crashed()) {
    return Internal(at + "Recover() did not revive the cluster: " +
                    recovery.status().ToString());
  }
  return CrashRun{true, *recovery};
}

Status CheckRecovered(ClusterCoordinator* cluster,
                      const ClusterRecoveryReport& recovery,
                      const std::vector<std::string>& queries,
                      const MovedRange* moved) {
  uint64_t epoch = cluster->shard_map().epoch();
  if (recovery.shard_map_epoch != epoch) {
    return Internal(StrFormat("Recover() reported epoch %llu, ShardMap has %llu",
                              (ull)recovery.shard_map_epoch, (ull)epoch));
  }
  if (moved != nullptr) {
    const core::PnodeRange& range = moved->range;
    int owner = cluster->shard_map().OwnerOfRange(range);
    int other = owner == moved->from ? moved->to : moved->from;
    if ((owner != moved->from && owner != moved->to) ||
        cluster->shard_db(other).RowsInRange(range.begin, range.end) > 0) {
      return Internal(StrFormat("range [%llx, %llx) moved from shard %d to %d "
                                "has owner %d and rows on two shards",
                                (ull)range.begin, (ull)range.end, moved->from,
                                moved->to, owner));
    }
  }
  PASS_RETURN_IF_ERROR(CheckFederatedMatchesMerged(cluster, queries));
  PASS_ASSIGN_OR_RETURN(ClusterRecoveryReport again, cluster->Recover());
  if (again.batches_redelivered != 0 || again.log_entries_resynced != 0 ||
      again.migrations_rolled_forward != 0 || again.migrations_aborted != 0 ||
      again.shard_map_epoch != epoch) {
    return Internal(StrFormat(
        "second Recover() still repaired: %llu batches, %llu log entries, "
        "%llu + %llu migrations, epoch %llu -> %llu",
        (ull)again.batches_redelivered, (ull)again.log_entries_resynced,
        (ull)again.migrations_rolled_forward, (ull)again.migrations_aborted,
        (ull)epoch, (ull)again.shard_map_epoch));
  }
  return Status::Ok();
}

Result<std::set<std::string>> StandingRows(const StandingQueryTier& tier,
                                           uint64_t id) {
  PASS_ASSIGN_OR_RETURN(pql::QueryResult result, tier.ResultOf(id));
  std::vector<std::string> keys = result.RowKeys();
  return std::set<std::string>(keys.begin(), keys.end());
}

Status CheckStandingMatches(const StandingQueryTier& tier, uint64_t id,
                            std::string_view query,
                            const pql::GraphSource* source) {
  PASS_ASSIGN_OR_RETURN(std::set<std::string> standing,
                        StandingRows(tier, id));
  PASS_ASSIGN_OR_RETURN(std::vector<std::string> rows,
                        QueryRows(source, query));
  std::set<std::string> scratch(rows.begin(), rows.end());
  std::string unlike = " unlike a from-scratch run of " + std::string(query);
  for (const std::string& row : standing) {
    if (scratch.count(row) == 0) {
      return Internal("standing result holds row " + row + unlike);
    }
  }
  for (const std::string& row : scratch) {
    if (standing.count(row) == 0) {
      return Internal("standing result lacks row " + row + unlike);
    }
  }
  return Status::Ok();
}

Status CheckStandingMatches(const StandingQueryTier& tier, uint64_t id,
                            std::string_view query,
                            const ClusterCoordinator& cluster) {
  waldo::ProvDb merged;
  cluster.MergeInto(&merged);
  pql::ProvDbSource source(&merged);
  return CheckStandingMatches(tier, id, query, &source);
}

Status CheckTamperVerdict(Auditor* auditor, ClusterCoordinator* cluster,
                          int shard, const std::string& path,
                          const TamperSite& site) {
  const AuditOptions files_only{.files = true, .db = false, .custody = false};
  fs::MemFs* lower = cluster->machine(shard).volume()->lower();
  PASS_ASSIGN_OR_RETURN(std::string image, lower->ReadFileRaw(path));
  PASS_RETURN_IF_ERROR(TamperFs(lower).Inject(path, site));
  std::string at = site.description + " in " + path + ": ";
  AuditReport report = auditor->AuditAll(files_only);
  if (report.clean()) {
    return Internal(at + "undetected");
  }
  const AuditFinding& found = report.findings[0];
  TamperClass want = ExpectedTamperClass(site.kind);
  if (found.file != path || found.shard != shard || found.klass != want ||
      found.frame != site.frame) {
    return Internal(StrFormat(
        "%sfound %s at frame %llu of %s on shard %d, want %s at frame %llu",
        at.c_str(), TamperClassName(found.klass), (ull)found.frame,
        found.file.c_str(), found.shard, TamperClassName(want),
        (ull)site.frame));
  }
  PASS_RETURN_IF_ERROR(lower->WriteFileRaw(path, image));
  AuditReport clean = auditor->AuditAll(files_only);
  if (!clean.clean()) {
    return Internal(at + "dirty after restore: " + clean.findings[0].detail);
  }
  return Status::Ok();
}

Result<int> EditCustodyDigest(ClusterCoordinator* cluster) {
  for (int shard = 0; shard < cluster->shard_count(); ++shard) {
    fs::MemFs* lower = cluster->machine(shard).volume()->lower();
    const std::string& path = cluster->journal(shard).path();
    std::string image = lower->ReadFileRaw(path).value_or("");
    PASS_ASSIGN_OR_RETURN(std::vector<lasagna::JournalRecord> records,
                          lasagna::ParseJournal(image));
    for (size_t i = 0; i < records.size(); ++i) {
      if (records[i].type == lasagna::JournalRecordType::kEpochBump) {
        size_t last = 8 + lasagna::MapFrames(image).frames[i].length - 1;
        PASS_RETURN_IF_ERROR(TamperFs(lower).Inject(
            path, TamperSite{TamperKind::kFlipByteFixCrc, i, last,
                             "edit_custody_digest"}));
        return shard;
      }
    }
  }
  return NotFound("no journal holds an EPOCH_BUMP record");
}

Result<int> TearJournalPastSeal(ClusterCoordinator* cluster) {
  std::vector<uint64_t> sealed_frames;
  for (int shard = 0; shard < cluster->shard_count(); ++shard) {
    sealed_frames.push_back(cluster->journal(shard).chain_frames());
  }
  PASS_ASSIGN_OR_RETURN(core::ObjectRef a,
                        cluster->WriteWithLineage(0, "/post-seal-a", "x", {}));
  PASS_RETURN_IF_ERROR(
      cluster->WriteWithLineage(1, "/post-seal-b", "y", {a}).status());
  PASS_RETURN_IF_ERROR(cluster->Sync());
  for (int shard = 0; shard < cluster->shard_count(); ++shard) {
    if (cluster->journal(shard).chain_frames() > sealed_frames[shard]) {
      PASS_RETURN_IF_ERROR(TamperFs(cluster->machine(shard).volume()->lower())
                               .TearTail(cluster->journal(shard).path(), 3));
      return shard;
    }
  }
  return Internal("no journal grew past its seal");
}

}  // namespace pass::cluster
