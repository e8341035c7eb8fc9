#include "src/nfs/client.h"

#include "src/os/path.h"
#include "src/util/strings.h"

namespace pass::nfs {

namespace {

// Client block size: bundles larger than this are chunked through
// OP_BEGINTXN / OP_PASSPROV (64 KB in NFSv4, §6.1.2).
constexpr uint64_t kWsize = 64 * 1024;

}  // namespace

namespace internal {

std::string NfsClientVnode::ChildPath(std::string_view name) const {
  return os::JoinPath(path_.empty() ? "/" : path_, name);
}

Result<os::Attr> NfsClientVnode::Getattr() {
  NfsRequest request;
  request.op = NfsOp::kGetattr;
  request.path = path_;
  NfsResponse response = fs_->Call(request);
  PASS_RETURN_IF_ERROR(response.ToStatus());
  os::Attr attr;
  attr.type = response.attr.is_dir ? os::VnodeType::kDirectory
                                   : os::VnodeType::kFile;
  attr.size = response.attr.size;
  attr.ino = response.pnode;  // stable server identity
  return attr;
}

Result<size_t> NfsClientVnode::Read(uint64_t offset, size_t len,
                                    std::string* out) {
  NfsRequest request;
  request.op = NfsOp::kRead;
  request.path = path_;
  request.offset = offset;
  request.length = len;
  NfsResponse response = fs_->Call(request);
  PASS_RETURN_IF_ERROR(response.ToStatus());
  *out = std::move(response.data);
  return out->size();
}

Result<size_t> NfsClientVnode::Write(uint64_t offset, std::string_view data) {
  NfsRequest request;
  request.op = NfsOp::kWrite;
  request.path = path_;
  request.offset = offset;
  request.data = std::string(data);
  NfsResponse response = fs_->Call(request);
  PASS_RETURN_IF_ERROR(response.ToStatus());
  return static_cast<size_t>(response.bytes);
}

Status NfsClientVnode::Truncate(uint64_t length) {
  NfsRequest request;
  request.op = NfsOp::kTruncate;
  request.path = path_;
  request.length = length;
  return fs_->Call(request).ToStatus();
}

Result<os::VnodeRef> NfsClientVnode::Lookup(std::string_view name) {
  NfsRequest request;
  request.op = NfsOp::kLookup;
  request.path = ChildPath(name);
  NfsResponse response = fs_->Call(request);
  PASS_RETURN_IF_ERROR(response.ToStatus());
  return fs_->WrapNode(request.path,
                       response.attr.is_dir ? os::VnodeType::kDirectory
                                            : os::VnodeType::kFile,
                       response.pnode, response.version);
}

Result<os::VnodeRef> NfsClientVnode::Create(std::string_view name,
                                            os::VnodeType type) {
  NfsRequest request;
  request.op =
      type == os::VnodeType::kDirectory ? NfsOp::kMkdir : NfsOp::kCreate;
  request.path = ChildPath(name);
  NfsResponse response = fs_->Call(request);
  PASS_RETURN_IF_ERROR(response.ToStatus());
  return fs_->WrapNode(request.path, type, response.pnode, response.version);
}

Status NfsClientVnode::Unlink(std::string_view name) {
  NfsRequest request;
  request.op = NfsOp::kRemove;
  request.path = ChildPath(name);
  return fs_->Call(request).ToStatus();
}

Result<std::vector<os::Dirent>> NfsClientVnode::Readdir() {
  NfsRequest request;
  request.op = NfsOp::kReaddir;
  request.path = path_;
  NfsResponse response = fs_->Call(request);
  PASS_RETURN_IF_ERROR(response.ToStatus());
  std::vector<os::Dirent> entries;
  for (const std::string& line : Split(response.names, '\n')) {
    if (line.empty()) {
      continue;
    }
    if (line.back() == '/') {
      entries.push_back(os::Dirent{line.substr(0, line.size() - 1),
                                   os::VnodeType::kDirectory});
    } else {
      entries.push_back(os::Dirent{line, os::VnodeType::kFile});
    }
  }
  return entries;
}

Result<os::PassReadInfo> NfsClientVnode::PassRead(uint64_t offset, size_t len,
                                                  std::string* out) {
  NfsRequest request;
  request.op = NfsOp::kPassRead;
  request.path = path_;
  request.offset = offset;
  request.length = len;
  NfsResponse response = fs_->Call(request);
  PASS_RETURN_IF_ERROR(response.ToStatus());
  *out = std::move(response.data);
  pnode_ = response.pnode;
  if (pending_freezes_ == 0) {
    base_version_ = response.version;
  }
  return os::PassReadInfo{core::ObjectRef{pnode_, version()}, out->size()};
}

Result<size_t> NfsClientVnode::PassWrite(uint64_t offset,
                                         std::string_view data,
                                         const core::Bundle& bundle) {
  PASS_ASSIGN_OR_RETURN(NfsResponse response,
                        fs_->SendPassWrite(path_, offset, data, bundle));
  pnode_ = response.pnode;
  base_version_ = response.version;
  pending_freezes_ = 0;
  return static_cast<size_t>(response.bytes);
}

Result<core::Version> NfsClientVnode::PassFreeze() {
  // §6.1.2: increment locally; the analyzer's FREEZE record rides the next
  // OP_PASSWRITE and the server merges it.
  ++pending_freezes_;
  ++fs_->client_stats_.local_freezes;
  return version();
}

Result<size_t> NfsPhantomVnode::PassWrite(uint64_t offset,
                                          std::string_view data,
                                          const core::Bundle& bundle) {
  if (!data.empty()) {
    return InvalidArgument("pass_write with data on a phantom object");
  }
  PASS_RETURN_IF_ERROR(fs_->PassProv(bundle));
  return static_cast<size_t>(0);
}

}  // namespace internal

NfsClientFs::NfsClientFs(sim::Env* env, sim::Network* network,
                         NfsServer* server)
    : env_(env), network_(network), server_(server) {}

NfsResponse NfsClientFs::Call(const NfsRequest& request) {
  ++client_stats_.rpcs;
  NfsResponse response = server_->Handle(request);
  network_->RoundTrip(request.WireSize(), response.WireSize());
  return response;
}

os::VnodeRef NfsClientFs::WrapNode(const std::string& path, os::VnodeType type,
                                   core::PnodeId pnode,
                                   core::Version version) {
  auto it = vnode_cache_.find(path);
  if (it != vnode_cache_.end()) {
    return it->second;
  }
  auto vnode = std::make_shared<internal::NfsClientVnode>(this, path, type,
                                                          pnode, version);
  vnode_cache_[path] = vnode;
  return vnode;
}

os::VnodeRef NfsClientFs::root() {
  NfsRequest request;
  request.op = NfsOp::kGetattr;
  request.path = "";
  NfsResponse response = Call(request);
  return WrapNode("", os::VnodeType::kDirectory, response.pnode,
                  response.version);
}

Status NfsClientFs::Rename(const os::VnodeRef& parent_from,
                           std::string_view name_from,
                           const os::VnodeRef& parent_to,
                           std::string_view name_to) {
  auto* from = dynamic_cast<internal::NfsClientVnode*>(parent_from.get());
  auto* to = dynamic_cast<internal::NfsClientVnode*>(parent_to.get());
  if (from == nullptr || to == nullptr) {
    return InvalidArgument("rename with foreign vnodes");
  }
  NfsRequest request;
  request.op = NfsOp::kRename;
  request.path = os::JoinPath(from->path().empty() ? "/" : from->path(),
                              name_from);
  request.path2 = os::JoinPath(to->path().empty() ? "/" : to->path(), name_to);
  Status status = Call(request).ToStatus();
  if (status.ok()) {
    vnode_cache_.erase(request.path);
    vnode_cache_.erase(request.path2);
  }
  return status;
}

Result<os::VnodeRef> NfsClientFs::PassMkobj() {
  NfsRequest request;
  request.op = NfsOp::kPassMkobj;
  NfsResponse response = Call(request);
  PASS_RETURN_IF_ERROR(response.ToStatus());
  return os::VnodeRef(std::make_shared<internal::NfsPhantomVnode>(
      this, response.pnode, response.version));
}

Result<os::VnodeRef> NfsClientFs::PassReviveobj(core::PnodeId pnode,
                                                core::Version version) {
  NfsRequest request;
  request.op = NfsOp::kPassReviveobj;
  request.pnode = pnode;
  request.version = version;
  NfsResponse response = Call(request);
  PASS_RETURN_IF_ERROR(response.ToStatus());
  return os::VnodeRef(std::make_shared<internal::NfsPhantomVnode>(
      this, response.pnode, response.version));
}

Status NfsClientFs::PassProv(const core::Bundle& bundle) {
  std::string encoded;
  core::EncodeBundle(&encoded, bundle);
  if (encoded.size() <= kWsize) {
    NfsRequest request;
    request.op = NfsOp::kPassProv;
    request.bundle = std::move(encoded);
    return Call(request).ToStatus();
  }
  // Oversized provenance-only write: wrap in a protocol transaction
  // (§6.1.2, pass_sync case).
  auto response = SendPassWrite("", 0, "", bundle);
  return response.ok() ? Status::Ok() : response.status();
}

Result<NfsResponse> NfsClientFs::SendPassWrite(const std::string& path,
                                               uint64_t offset,
                                               std::string_view data,
                                               const core::Bundle& bundle) {
  std::string encoded;
  core::EncodeBundle(&encoded, bundle);
  ++client_stats_.pass_writes;
  if (encoded.size() + data.size() <= kWsize) {
    NfsRequest request;
    request.op = path.empty() ? NfsOp::kPassProv : NfsOp::kPassWrite;
    request.path = path;
    request.offset = offset;
    request.data = std::string(data);
    request.bundle = std::move(encoded);
    NfsResponse response = Call(request);
    PASS_RETURN_IF_ERROR(response.ToStatus());
    return response;
  }

  // Chunked transaction: OP_BEGINTXN, n x OP_PASSPROV, OP_PASSWRITE(ENDTXN).
  ++client_stats_.chunked_txns;
  NfsRequest begin;
  begin.op = NfsOp::kBeginTxn;
  NfsResponse begin_response = Call(begin);
  PASS_RETURN_IF_ERROR(begin_response.ToStatus());
  uint64_t txn_id = begin_response.txn_id;

  // Ship bundle entries in <= wsize chunks, re-encoding per chunk.
  core::Bundle chunk;
  size_t chunk_bytes = 0;
  auto flush_chunk = [&]() -> Status {
    if (chunk.empty()) {
      return Status::Ok();
    }
    NfsRequest prov;
    prov.op = NfsOp::kPassProv;
    prov.txn_id = txn_id;
    core::EncodeBundle(&prov.bundle, chunk);
    ++client_stats_.prov_chunks;
    chunk.clear();
    chunk_bytes = 0;
    return Call(prov).ToStatus();
  };
  for (const core::BundleEntry& entry : bundle) {
    for (const core::Record& record : entry.records) {
      size_t record_bytes = core::EncodedSize(record) + 16;
      if (chunk_bytes + record_bytes > kWsize) {
        PASS_RETURN_IF_ERROR(flush_chunk());
      }
      if (chunk.empty() || !(chunk.back().target == entry.target)) {
        chunk.push_back(core::BundleEntry{entry.target, {}});
      }
      chunk.back().records.push_back(record);
      chunk_bytes += record_bytes;
    }
  }
  PASS_RETURN_IF_ERROR(flush_chunk());

  NfsRequest commit;
  commit.op = path.empty() ? NfsOp::kPassProv : NfsOp::kPassWrite;
  commit.path = path;
  commit.offset = offset;
  commit.data = std::string(data);
  commit.txn_id = txn_id;
  if (path.empty()) {
    // Provenance-only commit: close the transaction with an empty commit.
    NfsRequest end;
    end.op = NfsOp::kPassWrite;
    end.path = "";
    end.txn_id = txn_id;
    NfsResponse response = Call(end);
    PASS_RETURN_IF_ERROR(response.ToStatus());
    return response;
  }
  NfsResponse response = Call(commit);
  PASS_RETURN_IF_ERROR(response.ToStatus());
  return response;
}

}  // namespace pass::nfs
