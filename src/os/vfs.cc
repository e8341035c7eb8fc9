#include "src/os/vfs.h"

#include "src/os/path.h"
#include "src/util/strings.h"

namespace pass::os {

Status Vfs::Mount(std::string_view path, FileSystem* fs) {
  std::string norm = NormalizePath(path);
  if (mounts_.count(norm) > 0) {
    return Exists("mount point busy: " + norm);
  }
  mounts_[norm] = fs;
  return Status::Ok();
}

Result<std::pair<FileSystem*, std::string>> Vfs::MountOf(
    std::string_view path) {
  std::string norm = NormalizePath(path);
  for (const auto& [mount_path, fs] : mounts_) {
    if (norm == mount_path) {
      return std::make_pair(fs, std::string("/"));
    }
    std::string prefix = mount_path == "/" ? "/" : mount_path + "/";
    if (StartsWith(norm, prefix)) {
      return std::make_pair(fs, "/" + norm.substr(prefix.size()));
    }
  }
  return NotFound("no filesystem mounted for " + norm);
}

Result<ResolvedPath> Vfs::Resolve(std::string_view path) {
  PASS_ASSIGN_OR_RETURN(auto mount, MountOf(path));
  auto [fs, rest] = mount;
  VnodeRef node = fs->root();
  for (const std::string& comp : PathComponents(rest)) {
    PASS_ASSIGN_OR_RETURN(node, node->Lookup(comp));
  }
  return ResolvedPath{fs, std::move(node), NormalizePath(path)};
}

Result<ResolvedParent> Vfs::ResolveParent(std::string_view path) {
  std::string norm = NormalizePath(path);
  if (norm == "/") {
    return InvalidArgument("cannot take parent of /");
  }
  std::string dir = DirName(norm);
  std::string leaf = BaseName(norm);
  PASS_ASSIGN_OR_RETURN(ResolvedPath parent, Resolve(dir));
  if (parent.vnode->type() != VnodeType::kDirectory) {
    return NotDir(dir + " is not a directory");
  }
  return ResolvedParent{parent.fs, std::move(parent.vnode), std::move(leaf),
                        std::move(norm)};
}

}  // namespace pass::os
