#include "src/waldo/waldo.h"

#include <algorithm>
#include <iterator>

namespace pass::waldo {

Status Waldo::Poll() {
  volume_->MaybeRotateDormant();
  PASS_ASSIGN_OR_RETURN(std::vector<lasagna::LogEntry> entries, Take());
  for (const lasagna::LogEntry& entry : entries) {
    db_->InsertUnique(entry);
  }
  return Remove();
}

Status Waldo::Drain() {
  PASS_RETURN_IF_ERROR(volume_->ForceRotate());
  return Poll();
}

Result<std::vector<lasagna::LogEntry>> Waldo::Take() {
  taken_ = filter_;
  taken_logs_ = volume_->ClosedLogPaths();
  std::vector<lasagna::LogEntry> entries;
  for (const std::string& path : taken_logs_) {
    PASS_ASSIGN_OR_RETURN(std::vector<lasagna::CommittedTxn> committed,
                          taken_.ReadLog(volume_->lower(), path));
    for (lasagna::CommittedTxn& txn : committed) {
      std::move(txn.entries.begin(), txn.entries.end(),
                std::back_inserter(entries));
    }
  }
  return entries;
}

Status Waldo::Remove() {
  for (const std::string& path : taken_logs_) {
    PASS_RETURN_IF_ERROR(volume_->RemoveLog(path));
  }
  taken_logs_.clear();
  filter_ = taken_;
  return Status::Ok();
}

WaldoStats Waldo::stats() const {
  return WaldoStats{filter_.stats().committed_entries, filter_.open_txns(),
                    filter_.stats()};
}

}  // namespace pass::waldo
