#ifndef SRC_OS_VFS_H_
#define SRC_OS_VFS_H_

// Mount table + path resolution. Longest-prefix mounts; a path resolves to
// (filesystem, vnode) by walking Lookup from the mounted root.

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/os/filesystem.h"
#include "src/os/vnode.h"
#include "src/util/result.h"

namespace pass::os {

struct ResolvedPath {
  FileSystem* fs = nullptr;
  VnodeRef vnode;
  std::string path;  // normalized absolute path
};

struct ResolvedParent {
  FileSystem* fs = nullptr;
  VnodeRef parent;
  std::string leaf;
  std::string path;  // full path of the leaf
};

class Vfs {
 public:
  // Mount `fs` at `path` (must not already be mounted). `fs` is borrowed.
  Status Mount(std::string_view path, FileSystem* fs);

  // Resolve a normalized absolute path to a vnode.
  Result<ResolvedPath> Resolve(std::string_view path);

  // Resolve the parent directory of `path`; the leaf need not exist.
  Result<ResolvedParent> ResolveParent(std::string_view path);

  // The filesystem owning `path` (longest-prefix match) and the residual
  // path inside it.
  Result<std::pair<FileSystem*, std::string>> MountOf(std::string_view path);

 private:
  // Mount point path -> filesystem, ordered so longest prefix wins.
  std::map<std::string, FileSystem*, std::greater<std::string>> mounts_;
};

}  // namespace pass::os

#endif  // SRC_OS_VFS_H_
