#ifndef SRC_WALDO_WALDO_H_
#define SRC_WALDO_WALDO_H_

// Waldo: the user-level daemon that moves provenance from the Lasagna log
// into the database and serves it to the query engine (§5.6). The paper's
// Waldo watches log rotation through inotify; here the simulation calls
// Poll() periodically, which is the same event model.
//
// Waldo is the one consumer of the log. What it ingests is decided by
// lasagna::TxnFilter (src/lasagna/recovery.h): the entries of committed
// transactions, in ENDTXN order. A transaction still open when a log closes
// carries over to the next log, across Poll calls. Waldo never checks an
// MD5; that check belongs to crash recovery (lasagna::RunRecovery).
//
// Waldo runs off the workload's critical path: log *writes* are charged to
// the workload (they share the disk), but database ingestion happens in the
// background, so Poll() does not advance the simulated clock.

#include <string>
#include <vector>

#include "src/lasagna/lasagna.h"
#include "src/lasagna/recovery.h"
#include "src/waldo/provdb.h"

namespace pass::waldo {

struct WaldoStats {
  uint64_t entries_ingested = 0;  // entries of committed transactions
  // Transactions begun but not yet committed. A crashed PA-NFS client's
  // transaction stays here; its entries are never ingested.
  uint64_t open_txns = 0;
  // What the filter read and dropped over every removed log.
  lasagna::TxnFilterStats filter;
};

class Waldo {
 public:
  // Watch `volume`'s log directory and ingest into `db`.
  Waldo(ProvDb* db, lasagna::LasagnaFs* volume) : db_(db), volume_(volume) {}

  // Ingest every closed log into the database and remove it (the inotify
  // wake-up).
  Status Poll();

  // Force-rotate the active log and ingest everything (end of benchmark /
  // clean shutdown).
  Status Drain();

  // Poll in two steps, for a consumer that must put each entry somewhere
  // durable before the log that holds it may go (the cluster's Sync).
  // Take reads every closed log and returns the entries it commits; the
  // logs stay on disk. Remove deletes exactly the logs the last Take read.
  // A Take not followed by Remove (a crash in between) is forgotten: the
  // next Take reads the same logs from the same filter state again.
  Result<std::vector<lasagna::LogEntry>> Take();
  Status Remove();

  ProvDb* db() { return db_; }
  WaldoStats stats() const;

 private:
  ProvDb* db_;
  lasagna::LasagnaFs* volume_;
  // The filter as of the last removed log, and its copy advanced by Take.
  lasagna::TxnFilter filter_;
  lasagna::TxnFilter taken_;
  std::vector<std::string> taken_logs_;
};

}  // namespace pass::waldo

#endif  // SRC_WALDO_WALDO_H_
