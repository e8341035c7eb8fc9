#include "src/lasagna/recovery.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/util/md5.h"
#include "src/util/strings.h"

namespace pass::lasagna {
namespace {

bool Overlaps(const TxnDescriptor& a, const TxnDescriptor& b) {
  return a.offset < b.offset + b.length && b.offset < a.offset + a.length;
}

// Numeric sort for log.N names.
uint64_t LogNumber(const std::string& name) {
  size_t dot = name.rfind('.');
  if (dot == std::string::npos) {
    return 0;
  }
  return std::strtoull(name.c_str() + dot + 1, nullptr, 10);
}

}  // namespace

Result<std::vector<CommittedTxn>> TxnFilter::ReadLog(fs::MemFs* lower,
                                                     const std::string& path) {
  PASS_ASSIGN_OR_RETURN(std::string image, lower->ReadFileRaw(path));
  bool truncated = false;
  PASS_ASSIGN_OR_RETURN(std::vector<LogEntry> entries,
                        ParseLog(image, &truncated));
  ++stats_.logs;
  stats_.truncated_logs += truncated ? 1 : 0;
  std::vector<CommittedTxn> committed;
  for (LogEntry& entry : entries) {
    const core::Record& record = entry.record;
    if (record.attr == core::Attr::kBeginTxn) {
      if (const auto* id = std::get_if<int64_t>(&record.value)) {
        open_.push_back(OpenTxn{static_cast<uint64_t>(*id), {}});
      } else {
        ++stats_.strays;  // a BEGINTXN without an id frames nothing
      }
      continue;
    }
    if (record.attr == core::Attr::kEndTxn) {
      const auto* blob = std::get_if<std::string>(&record.value);
      Result<TxnDescriptor> descriptor = DecodeTxnDescriptor(
          blob != nullptr ? std::string_view(*blob) : std::string_view());
      if (!descriptor.ok()) {
        ++stats_.undecodable_ends;
        continue;
      }
      auto open = std::find_if(
          open_.rbegin(), open_.rend(),
          [&](const OpenTxn& txn) { return txn.id == descriptor->txn_id; });
      if (open == open_.rend()) {
        ++stats_.unmatched_ends;
        continue;
      }
      ++stats_.committed_txns;
      stats_.committed_entries += open->entries.size();
      committed.push_back(
          CommittedTxn{std::move(*descriptor), std::move(open->entries)});
      open_.erase(std::next(open).base());
      continue;
    }
    if (open_.empty()) {
      ++stats_.strays;
      continue;
    }
    open_.back().entries.push_back(std::move(entry));
  }
  return committed;
}

Result<RecoveryReport> RunRecovery(fs::MemFs* lower,
                                   const std::string& log_dir) {
  RecoveryReport report;
  if (!lower->ExistsRaw(log_dir)) {
    return report;
  }
  PASS_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        lower->ListDirRaw(log_dir));
  // The log dir also holds the cluster journal; only log.N files are logs.
  names.erase(std::remove_if(names.begin(), names.end(),
                             [](const std::string& name) {
                               return name.rfind("log.", 0) != 0;
                             }),
              names.end());
  std::sort(names.begin(), names.end(),
            [](const std::string& a, const std::string& b) {
              return LogNumber(a) < LogNumber(b);
            });

  TxnFilter filter;
  // Per data path, the committed transactions still awaiting verification,
  // in log order. A later write that overlaps an earlier pending extent
  // supersedes it (the earlier data was durable before the later frames
  // were logged, and the overlap makes its bytes unverifiable); disjoint
  // extents of one file stay independently verifiable.
  std::map<std::string, std::vector<CommittedTxn>> pending_writes;
  auto recover = [&](std::vector<LogEntry>* entries) {
    for (LogEntry& entry : *entries) {
      report.recovered_entries.push_back(std::move(entry));
    }
  };

  for (const std::string& name : names) {
    PASS_ASSIGN_OR_RETURN(std::vector<CommittedTxn> committed,
                          filter.ReadLog(lower, log_dir + "/" + name));
    for (CommittedTxn& txn : committed) {
      if (txn.descriptor.path.empty()) {
        // Provenance-only transaction: always consistent once complete.
        recover(&txn.entries);
        continue;
      }
      // Data transaction: supersede pending checks its extent overlaps
      // (their data became durable before this txn was logged).
      auto& pending = pending_writes[txn.descriptor.path];
      for (auto superseded = pending.begin(); superseded != pending.end();) {
        if (Overlaps(superseded->descriptor, txn.descriptor)) {
          ++report.consistent_extents;
          recover(&superseded->entries);
          superseded = pending.erase(superseded);
        } else {
          ++superseded;
        }
      }
      pending.push_back(std::move(txn));
    }
  }
  report.filter = filter.stats();
  report.orphaned_txns = filter.stats().unmatched_ends + filter.open_txns();

  // Verify every still-pending write against the on-disk bytes. A path can
  // fail more than once (disjoint extents); it is reported once.
  std::set<std::string> inconsistent;
  for (auto& [path, pending] : pending_writes) {
    auto data = lower->ReadFileRaw(path);
    for (CommittedTxn& write : pending) {
      const TxnDescriptor& descriptor = write.descriptor;
      bool consistent = false;
      if (data.ok() &&
          data->size() >= descriptor.offset + descriptor.length) {
        std::string_view extent(*data);
        extent = extent.substr(descriptor.offset, descriptor.length);
        consistent = Md5::Hash(extent) == descriptor.data_md5;
      }
      if (consistent) {
        ++report.consistent_extents;
        recover(&write.entries);
      } else {
        ++report.inconsistent_extents;
        if (inconsistent.insert(path).second) {
          report.inconsistent_paths.push_back(path);
        }
      }
    }
  }
  return report;
}

Result<JournalScanReport> ScanJournal(fs::MemFs* lower,
                                      const std::string& path) {
  JournalScanReport report;
  if (!lower->ExistsRaw(path)) {
    return report;
  }
  PASS_ASSIGN_OR_RETURN(std::string image, lower->ReadFileRaw(path));
  FrameScanInfo scan;
  PASS_ASSIGN_OR_RETURN(report.records,
                        ParseJournal(image, &report.truncated, &scan));
  report.records_scanned = report.records.size();
  report.valid_bytes = scan.valid_bytes;
  report.corrupt_frames = scan.corrupt_frames;
  report.chain_head = scan.chain_head;
  return report;
}

}  // namespace pass::lasagna
