#ifndef SRC_LASAGNA_RECOVERY_H_
#define SRC_LASAGNA_RECOVERY_H_

// The one reader of the log's transaction framing, and crash recovery
// built on it (§5.6).
//
// TxnFilter decides which log entries are committed: a run of closed logs
// becomes the transactions whose ENDTXN it holds, in ENDTXN order. Waldo
// consumes the live log through it, both on a standalone machine and in
// the cluster's Sync, and never checks an MD5.
//
// RunRecovery is the crash tool: "we use transactional structures in the
// log along with MD5sums of data so that during file system recovery, we
// identify any data for which the provenance is inconsistent. This
// indicates precisely the data that was being written to disk at the time
// of a crash." It runs the same filter over every log on disk and checks
// each committed data extent against the file as it is now.

#include <string>
#include <vector>

#include "src/fs/memfs.h"
#include "src/lasagna/log_format.h"

namespace pass::lasagna {

// A transaction whose ENDTXN was read: its descriptor and the entries
// logged between its BEGINTXN and ENDTXN (the markers themselves dropped).
struct CommittedTxn {
  TxnDescriptor descriptor;
  std::vector<LogEntry> entries;
};

struct TxnFilterStats {
  uint64_t logs = 0;
  // Logs whose tail was destroyed mid-frame; the valid prefix is read.
  uint64_t truncated_logs = 0;
  uint64_t committed_txns = 0;
  uint64_t committed_entries = 0;
  // Records logged while no transaction was open: dropped.
  uint64_t strays = 0;
  // ENDTXNs with no open BEGINTXN of their id: dropped.
  uint64_t unmatched_ends = 0;
  // ENDTXNs whose descriptor does not decode: dropped, and the transaction
  // they would have closed stays open.
  uint64_t undecodable_ends = 0;
};

// Lasagna frames a local write as BEGINTXN, records, ENDTXN in one append.
// A PA-NFS chunked write (LasagnaFs::BeginExternalTxn) logs its BEGINTXN
// and its chunks as they arrive, so other transactions can land inside it
// and a log rotation can split it. A record therefore belongs to the most
// recently begun transaction still open, and an open transaction carries
// over from one log to the next until its ENDTXN arrives. A BEGINTXN whose
// ENDTXN never comes (a crashed client) stays open and is never committed.
//
// The filter is a value: copy it to read ahead without giving up the state
// to read from again (Waldo::Take).
class TxnFilter {
 public:
  // Read the log at `path` and return the transactions it commits.
  Result<std::vector<CommittedTxn>> ReadLog(fs::MemFs* lower,
                                            const std::string& path);

  // Transactions begun and not yet committed.
  size_t open_txns() const { return open_.size(); }
  const TxnFilterStats& stats() const { return stats_; }

 private:
  struct OpenTxn {
    uint64_t id = 0;
    std::vector<LogEntry> entries;
  };
  std::vector<OpenTxn> open_;  // in BEGINTXN order
  TxnFilterStats stats_;
};

struct RecoveryReport {
  // What the filter read across every log.
  TxnFilterStats filter;
  // Transactions that can never commit: BEGINTXN without ENDTXN (this is
  // also how a PA-NFS server identifies a crashed client's partial
  // transaction) and ENDTXN without BEGINTXN.
  uint64_t orphaned_txns = 0;
  // ENDTXN whose MD5 matches the on-disk extent.
  uint64_t consistent_extents = 0;
  // ENDTXN whose data never (fully) reached the disk.
  uint64_t inconsistent_extents = 0;
  // Paths with at least one inconsistent extent, deduplicated: several
  // failing ENDTXNs for one path report it once.
  std::vector<std::string> inconsistent_paths;

  // Provenance entries that survived recovery (valid, complete txns).
  std::vector<LogEntry> recovered_entries;
};

// Scan every log under `log_dir` on the (possibly crash-truncated) lower
// file system and classify transactions. Only the last transaction per data
// extent can be inconsistent under ordered writes: an earlier transaction's
// data was durable before later log frames were appended, so it is verified
// only while no later write overlaps (and thereby destroys) its extent.
Result<RecoveryReport> RunRecovery(fs::MemFs* lower,
                                   const std::string& log_dir = "/.pass");

// ---- Cluster journal scan ---------------------------------------------------
// The cluster write-ahead journal shares the log's CRC framing, so a torn
// journal tail is detected and classified exactly like truncated_logs above:
// the valid prefix survives, the damaged frame is counted and dropped.

struct JournalScanReport {
  uint64_t records_scanned = 0;
  // Journal tail destroyed mid-frame by the crash (CRC or length mismatch).
  bool truncated = false;
  // Where the valid frame prefix ends — the truncation point a repair or
  // audit acts on, so callers stop re-deriving it from record sizes.
  size_t valid_bytes = 0;
  // Damaged frames hit (the scan stops at the first).
  uint64_t corrupt_frames = 0;
  // Running hash chain head over the valid prefix (see log_format.h).
  ChainHash chain_head{};
  // The valid record prefix, ready for the cluster layer to classify.
  std::vector<JournalRecord> records;
};

// Scan one journal file on the (possibly crash-truncated) lower file
// system; a missing file is an empty journal, not an error.
Result<JournalScanReport> ScanJournal(fs::MemFs* lower,
                                      const std::string& path);

}  // namespace pass::lasagna

#endif  // SRC_LASAGNA_RECOVERY_H_
