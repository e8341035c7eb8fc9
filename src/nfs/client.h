#ifndef SRC_NFS_CLIENT_H_
#define SRC_NFS_CLIENT_H_

// PA-NFS client: a mountable FileSystem whose vnodes translate VFS + DPAPI
// operations into protocol requests over the simulated network.
//
// Versioning follows §6.1.2: pass_freeze increments the version *locally*
// and the FREEZE record (emitted by the analyzer into the bundle) rides the
// next OP_PASSWRITE, where the server applies it. Because of NFS
// close-to-open consistency, two clients can branch an object's version —
// tested and documented, not prevented, exactly as in the paper.

#include <map>
#include <memory>
#include <string>

#include "src/nfs/protocol.h"
#include "src/nfs/server.h"
#include "src/sim/env.h"
#include "src/sim/net.h"

namespace pass::nfs {

struct NfsClientStats {
  uint64_t rpcs = 0;
  uint64_t pass_writes = 0;
  uint64_t chunked_txns = 0;
  uint64_t prov_chunks = 0;
  uint64_t local_freezes = 0;
};

class NfsClientFs;

namespace internal {

class NfsClientVnode : public os::Vnode {
 public:
  NfsClientVnode(NfsClientFs* fs, std::string path, os::VnodeType type,
                 core::PnodeId pnode, core::Version version)
      : fs_(fs),
        path_(std::move(path)),
        type_(type),
        pnode_(pnode),
        base_version_(version) {}

  os::VnodeType type() const override { return type_; }
  Result<os::Attr> Getattr() override;
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

  core::PnodeId pnode() const override { return pnode_; }
  core::Version version() const override {
    return base_version_ + pending_freezes_;
  }

  const std::string& path() const { return path_; }

 private:
  std::string ChildPath(std::string_view name) const;

  NfsClientFs* fs_;
  std::string path_;
  os::VnodeType type_;
  core::PnodeId pnode_;
  core::Version base_version_;
  core::Version pending_freezes_ = 0;
};

// Client handle for a pass_mkobj object living at the server.
class NfsPhantomVnode : public os::Vnode {
 public:
  NfsPhantomVnode(NfsClientFs* fs, core::PnodeId pnode, core::Version version)
      : fs_(fs), pnode_(pnode), version_(version) {}

  os::VnodeType type() const override { return os::VnodeType::kPhantom; }
  Result<os::Attr> Getattr() override {
    return os::Attr{os::VnodeType::kPhantom, 0, 0, 1};
  }
  Result<size_t> PassWrite(uint64_t offset, std::string_view data,
                           const core::Bundle& bundle) override;
  Result<core::Version> PassFreeze() override {
    return ++version_;  // local only; see header comment
  }
  core::PnodeId pnode() const override { return pnode_; }
  core::Version version() const override { return version_; }

 private:
  NfsClientFs* fs_;
  core::PnodeId pnode_;
  core::Version version_;
};

}  // namespace internal

class NfsClientFs : public os::FileSystem {
 public:
  NfsClientFs(sim::Env* env, sim::Network* network, NfsServer* server);

  std::string name() const override { return "pa-nfs"; }
  os::VnodeRef root() override;
  Status Rename(const os::VnodeRef& parent_from, std::string_view name_from,
                const os::VnodeRef& parent_to,
                std::string_view name_to) override;
  Status Sync() override { return Status::Ok(); }

  bool provenance_capable() const override {
    return server_->volume() != nullptr;
  }
  Result<os::VnodeRef> PassMkobj() override;
  Result<os::VnodeRef> PassReviveobj(core::PnodeId pnode,
                                     core::Version version) override;
  Status PassProv(const core::Bundle& bundle) override;

  // One RPC: charges the network and dispatches to the server.
  NfsResponse Call(const NfsRequest& request);

  // Send a (possibly oversized) bundle+data write for `path`.
  Result<NfsResponse> SendPassWrite(const std::string& path, uint64_t offset,
                                    std::string_view data,
                                    const core::Bundle& bundle);

  const NfsClientStats& client_stats() const { return client_stats_; }
  NfsServer* server() { return server_; }

 private:
  friend class internal::NfsClientVnode;

  os::VnodeRef WrapNode(const std::string& path, os::VnodeType type,
                        core::PnodeId pnode, core::Version version);

  sim::Env* env_;
  sim::Network* network_;
  NfsServer* server_;
  NfsClientStats client_stats_;
  std::map<std::string, os::VnodeRef> vnode_cache_;
};

}  // namespace pass::nfs

#endif  // SRC_NFS_CLIENT_H_
