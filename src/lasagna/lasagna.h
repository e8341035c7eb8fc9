#ifndef SRC_LASAGNA_LASAGNA_H_
#define SRC_LASAGNA_LASAGNA_H_

// Lasagna: the provenance-aware stackable file system (§5.6).
//
// Lasagna stacks over a base file system (MemFs here, eCryptfs-derived in
// the paper) and implements the DPAPI in addition to regular VFS calls:
// pass_read / pass_write / pass_freeze as inode (vnode) operations and
// pass_mkobj / pass_reviveobj as superblock (filesystem) operations.
//
// All provenance is appended to a log stored in `.pass/log.<N>` on the
// lower file system; the write-ahead provenance (WAP) protocol guarantees
// the log frames of a transaction are durable before the data they
// describe. Logs rotate by size or dormancy; Waldo consumes closed logs.
//
// Stacking cost: like any stackable file system Lasagna double-buffers
// pages, which the paper measures as the dominant share of Postmark's
// overhead; we charge a per-byte copy cost on every read and write.

#include <map>
#include <set>
#include <memory>
#include <string>

#include "src/core/object.h"
#include "src/core/provenance.h"
#include "src/fs/memfs.h"
#include "src/lasagna/log_format.h"
#include "src/os/filesystem.h"
#include "src/sim/env.h"

namespace pass::lasagna {

// MD5 cost per data byte (ENDTXN checksum). The cluster auditor charges the
// same rate to re-hash what it verifies.
inline constexpr double kMd5NsPerByte = 2.0;

struct LasagnaOptions {
  std::string volume_name = "lasagna";
  std::string log_dir = "/.pass";
  uint64_t log_rotate_bytes = 4u << 20;
  // Rotate a dormant log after this much idle time (Waldo inotify, §5.6).
  sim::Nanos log_dormancy_ns = 30 * sim::kSecond;
};

// Writer-side hash chain over one on-disk log (audit plane): maintained as
// frames are flushed, sealed by the cluster auditor, and later checked
// against a fresh scan of the same file.
struct LogChainState {
  ChainHash head{};
  uint64_t frames = 0;
};

struct LasagnaStats {
  uint64_t pass_writes = 0;
  uint64_t pass_reads = 0;
  uint64_t prov_only_writes = 0;
  uint64_t records_logged = 0;
  uint64_t prov_bytes_logged = 0;
  uint64_t data_bytes_written = 0;
  uint64_t freezes = 0;
  uint64_t mkobjs = 0;
  uint64_t txns = 0;
  uint64_t rotations = 0;
};

class LasagnaFs;

namespace internal {

// Vnode wrapping one lower file/directory.
class LasagnaVnode : public os::Vnode {
 public:
  LasagnaVnode(LasagnaFs* fs, os::VnodeRef lower, os::Ino ino, bool is_root)
      : fs_(fs), lower_(std::move(lower)), ino_(ino), is_root_(is_root) {}

  os::VnodeType type() const override { return lower_->type(); }
  Result<os::Attr> Getattr() override { return lower_->Getattr(); }

  Result<size_t> Read(uint64_t offset, size_t len, std::string* out) override;
  Result<size_t> Write(uint64_t offset, std::string_view data) override;
  Status Truncate(uint64_t length) override;
  Result<os::VnodeRef> Lookup(std::string_view name) override;
  Result<os::VnodeRef> Create(std::string_view name,
                              os::VnodeType type) override;
  Status Unlink(std::string_view name) override;
  Result<std::vector<os::Dirent>> Readdir() override;

  Result<os::PassReadInfo> PassRead(uint64_t offset, size_t len,
                                    std::string* out) override;
  Result<size_t> PassWrite(uint64_t offset, std::string_view data,
                           const core::Bundle& bundle) override;
  Result<core::Version> PassFreeze() override;

  core::PnodeId pnode() const override;
  core::Version version() const override;

  const os::VnodeRef& lower() const { return lower_; }
  os::Ino ino() const { return ino_; }

 private:
  LasagnaFs* fs_;
  os::VnodeRef lower_;
  os::Ino ino_;
  bool is_root_;
};

// Object created by pass_mkobj: referenced like a file but with no
// file-system presence.
class PhantomVnode : public os::Vnode {
 public:
  PhantomVnode(LasagnaFs* fs, core::PnodeId pnode)
      : fs_(fs), pnode_(pnode) {}

  os::VnodeType type() const override { return os::VnodeType::kPhantom; }
  Result<os::Attr> Getattr() override {
    return os::Attr{os::VnodeType::kPhantom, 0, 0, 1};
  }

  Result<size_t> PassWrite(uint64_t offset, std::string_view data,
                           const core::Bundle& bundle) override;
  Result<core::Version> PassFreeze() override;

  core::PnodeId pnode() const override { return pnode_; }
  core::Version version() const override { return version_; }

 private:
  friend class pass::lasagna::LasagnaFs;
  LasagnaFs* fs_;
  core::PnodeId pnode_;
  core::Version version_ = 0;
};

}  // namespace internal

class LasagnaFs : public os::FileSystem {
 public:
  LasagnaFs(sim::Env* env, fs::MemFs* lower, core::PnodeAllocator* allocator,
            LasagnaOptions options = LasagnaOptions());

  // ---- FileSystem ----------------------------------------------------------
  std::string name() const override { return options_.volume_name; }
  os::VnodeRef root() override;
  Status Rename(const os::VnodeRef& parent_from, std::string_view name_from,
                const os::VnodeRef& parent_to,
                std::string_view name_to) override;
  Status Sync() override;
  os::FsStats stats() const override;

  bool provenance_capable() const override { return true; }
  Result<os::VnodeRef> PassMkobj() override;
  Result<os::VnodeRef> PassReviveobj(core::PnodeId pnode,
                                     core::Version version) override;
  Status PassProv(const core::Bundle& bundle) override;

  // ---- Protocol-level transactions (PA-NFS server side, §6.1.2) -----------
  // A client's pass_write whose bundle exceeds the wire size arrives as
  // OP_BEGINTXN + n x OP_PASSPROV + OP_PASSWRITE(ENDTXN). Each chunk is
  // logged on arrival (write-ahead provenance holds across the network);
  // a BEGINTXN without its commit is orphaned provenance that Waldo and
  // recovery discard — precisely the client-crash story of the paper.
  //
  // Allocate an id and log the BEGINTXN record.
  Result<uint64_t> BeginExternalTxn();
  // Log a chunk of the open transaction's records.
  Status AppendExternalTxn(uint64_t txn_id, const core::Bundle& bundle);
  // Commit: log ENDTXN (with the data MD5) and write the data through
  // `target` (a vnode of this volume); pass null for provenance-only.
  Status CommitExternalTxn(uint64_t txn_id, const os::VnodeRef& target,
                           uint64_t offset, std::string_view data);
  // Apply a client-side freeze record: bump the server version of `ino`.
  core::Version ApplyFreeze(os::Ino ino);

  // ---- Log management (Waldo side) ----------------------------------------
  // Close the current log so Waldo can consume it.
  Status ForceRotate();
  // Paths (on the lower fs) of logs closed and ready for processing.
  std::vector<std::string> ClosedLogPaths() const;
  // Called by Waldo after ingesting a log.
  Status RemoveLog(const std::string& path);
  // Rotate if the log has been dormant long enough (periodic tick).
  void MaybeRotateDormant();

  // Chain head + frame count of every log currently on the lower fs, keyed
  // by path; entries appear at first flush and vanish with RemoveLog.
  const std::map<std::string, LogChainState>& log_chains() const {
    return log_chains_;
  }

  const LasagnaStats& lasagna_stats() const { return lasagna_stats_; }
  // Zero the counters so benches can measure phases instead of cumulative
  // totals.
  void ResetStats() { lasagna_stats_ = LasagnaStats(); }
  fs::MemFs* lower() { return lower_; }
  sim::Env* env() { return env_; }

 private:
  friend class internal::LasagnaVnode;
  friend class internal::PhantomVnode;

  struct FileMeta {
    core::PnodeId pnode = core::kInvalidPnode;
    core::Version version = 0;
  };

  FileMeta& MetaOf(os::Ino ino);
  os::VnodeRef WrapLower(os::VnodeRef lower, bool is_root);

  // Append a transaction (bundle framed by BEGINTXN/ENDTXN) to the log.
  Status AppendTxn(const core::Bundle& bundle, const core::ObjectRef& target,
                   const std::string& data_path, uint64_t offset,
                   std::string_view data);
  Status AppendToLog(std::string_view frames);
  // Push the buffered log to the lower fs (charged). Called before any
  // dependent data write.
  Status FlushLogBuffer();
  void ChargeCopy(size_t bytes);

  sim::Env* env_;
  fs::MemFs* lower_;
  core::PnodeAllocator* allocator_;
  LasagnaOptions options_;
  LasagnaStats lasagna_stats_;
  // Cached registry series (references are stable): per-write Record() on
  // the log path costs an array increment, not a map lookup.
  obs::Histogram* txn_ns_hist_ = nullptr;
  obs::Histogram* log_flush_ns_hist_ = nullptr;
  obs::Counter* log_flush_bytes_ = nullptr;

  std::map<os::Ino, FileMeta> meta_;
  std::map<os::Ino, os::VnodeRef> vnode_cache_;
  std::map<core::PnodeId, std::shared_ptr<internal::PhantomVnode>> phantoms_;

  uint64_t next_txn_ = 1;
  std::set<uint64_t> open_external_txns_;
  uint64_t log_index_ = 0;
  uint64_t log_size_ = 0;
  std::string log_buffer_;
  std::map<std::string, LogChainState> log_chains_;
  uint64_t first_closed_log_ = 0;  // logs < log_index_ and >= this exist
  sim::Nanos last_append_ns_ = 0;
};

}  // namespace pass::lasagna

#endif  // SRC_LASAGNA_LASAGNA_H_
