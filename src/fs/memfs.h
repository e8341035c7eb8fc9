#ifndef SRC_FS_MEMFS_H_
#define SRC_FS_MEMFS_H_

// MemFs: the ext3-stand-in base file system ("Ext3Sim").
//
// Contents live in memory; *costs* are charged to the simulated disk. The
// layout model mirrors ordered-mode ext3 on a single spindle:
//
//   * file data is bump-allocated from a data zone (extents),
//   * namespace operations append to a journal zone,
//   * files under `special_zone_prefix` (the Lasagna provenance log,
//     "/.pass") allocate from their own zone far from the data zone.
//
// Interleaving provenance-log appends with workload writes therefore incurs
// the head movement that produces the paper's elapsed-time overheads (§7:
// "provenance writes interfere with patch's metadata I/O, leading to extra
// seeks").
//
// MemFs can record a mutation trace (namespace ops + data writes chunked to
// 4KB) and replay any prefix of it into a fresh MemFs — a strictly ordered
// disk model used by the crash-recovery tests for Lasagna's write-ahead
// provenance protocol.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/os/filesystem.h"
#include "src/os/vnode.h"
#include "src/sim/disk.h"
#include "src/sim/env.h"

namespace pass::fs {

struct MemFsOptions {
  std::string name = "ext3";
  bool charge_disk = true;
  bool enable_trace = false;
  // Files under this top-level prefix allocate from the special zone.
  std::string special_zone_prefix = "/.pass";
};

// One recorded mutation (for crash replay).
struct FsOp {
  enum class Kind : uint8_t {
    kMkdir,
    kCreate,
    kWrite,
    kTruncate,
    kUnlink,
    kRename,
  };
  Kind kind;
  std::string path;
  std::string path2;  // rename target
  std::string data;   // write payload chunk
  uint64_t offset = 0;
  uint64_t length = 0;  // truncate length
};

class MemFs;

namespace internal {

struct Extent {
  uint64_t file_offset;
  uint64_t disk_addr;
  uint64_t length;
};

struct MemInode {
  os::Ino ino = 0;
  os::VnodeType type = os::VnodeType::kFile;
  std::string data;
  std::map<std::string, std::shared_ptr<MemInode>> children;
  MemInode* parent = nullptr;  // borrowed; null for root
  std::string name;            // name within parent
  std::vector<Extent> extents;
  bool cached = false;  // page-cache residency (reads of cold files hit disk)

  std::string PathFromRoot() const;
};

using MemInodeRef = std::shared_ptr<MemInode>;

class MemVnode : public os::Vnode {
 public:
  MemVnode(MemFs* fs, MemInodeRef inode)
      : fs_(fs), inode_(std::move(inode)) {}

  os::VnodeType type() const override { return inode_->type; }
  Result<os::Attr> Getattr() override;
  Result<size_t> Read(uint64_t offset, size_t len, std::string* out) override;
  Result<size_t> Write(uint64_t offset, std::string_view data) override;
  Status Truncate(uint64_t length) override;
  Result<os::VnodeRef> Lookup(std::string_view name) override;
  Result<os::VnodeRef> Create(std::string_view name,
                              os::VnodeType type) override;
  Status Unlink(std::string_view name) override;
  Result<std::vector<os::Dirent>> Readdir() override;

  const MemInodeRef& inode() const { return inode_; }

 private:
  MemFs* fs_;
  MemInodeRef inode_;
};

}  // namespace internal

class MemFs : public os::FileSystem {
 public:
  // `disk` may be null when charge_disk is false. Zones may be empty.
  MemFs(sim::Env* env, sim::Disk* disk, sim::DiskZone data_zone,
        sim::DiskZone journal_zone, sim::DiskZone special_zone,
        MemFsOptions options = MemFsOptions());

  // -- FileSystem interface --
  std::string name() const override { return options_.name; }
  os::VnodeRef root() override;
  Status Rename(const os::VnodeRef& parent_from, std::string_view name_from,
                const os::VnodeRef& parent_to,
                std::string_view name_to) override;
  Status Sync() override;
  os::FsStats stats() const override;

  // -- Raw (uncharged, untraced) access: setup, recovery tools, Waldo --
  Status SeedFile(std::string_view path, std::string_view data);
  Status SeedDir(std::string_view path);
  Result<std::string> ReadFileRaw(std::string_view path) const;
  Status WriteFileRaw(std::string_view path, std::string_view data);
  Status UnlinkRaw(std::string_view path);
  Result<std::vector<std::string>> ListDirRaw(std::string_view path) const;
  bool ExistsRaw(std::string_view path) const;

  // Resolve a path inside this fs (no mount table involved).
  Result<os::VnodeRef> ResolvePath(std::string_view path);

  // Live bytes under a subtree (Table 3 accounting).
  uint64_t BytesUnder(std::string_view path) const;

  // -- Mutation trace / crash replay --
  const std::vector<FsOp>& trace() const { return trace_; }
  // Apply the first `op_count` trace entries to `target` (raw, uncharged):
  // the state the disk would hold had power failed after op_count ops.
  Status ReplayInto(MemFs* target, size_t op_count) const;

  sim::Env* env() { return env_; }

 private:
  friend class internal::MemVnode;

  Result<internal::MemInodeRef> WalkTo(std::string_view path) const;
  void ChargeJournal();
  void ChargeDataWrite(internal::MemInode& inode, uint64_t offset,
                       uint64_t len);
  void ChargeDataRead(internal::MemInode& inode, uint64_t offset,
                      uint64_t len);
  sim::DiskZone* ZoneFor(const internal::MemInode& inode);
  void Trace(FsOp op);
  void TraceWrite(const internal::MemInode& inode, uint64_t offset,
                  std::string_view data);

  // Core mutations shared by charged and raw paths.
  Result<internal::MemInodeRef> DoCreate(internal::MemInode& parent,
                                         std::string_view name,
                                         os::VnodeType type);
  Status DoWrite(internal::MemInode& inode, uint64_t offset,
                 std::string_view data);

  sim::Env* env_;
  sim::Disk* disk_;
  sim::DiskZone data_zone_;
  sim::DiskZone journal_zone_;
  sim::DiskZone special_zone_;
  MemFsOptions options_;
  internal::MemInodeRef root_;
  os::Ino next_ino_ = 2;
  std::vector<FsOp> trace_;
  uint64_t file_count_ = 0;
  uint64_t dir_count_ = 1;
};

}  // namespace pass::fs

#endif  // SRC_FS_MEMFS_H_
