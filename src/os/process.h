#ifndef SRC_OS_PROCESS_H_
#define SRC_OS_PROCESS_H_

// Process and open-file state for the simulated kernel. Open files are
// shared via shared_ptr so fork/dup share seek offsets, like a real Unix
// file table.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/os/filesystem.h"
#include "src/os/vnode.h"

namespace pass::os {

using Pid = int32_t;
using Fd = int32_t;

// open() flags (subset, bitmask).
enum OpenFlags : uint32_t {
  kOpenRead = 1u << 0,
  kOpenWrite = 1u << 1,
  kOpenCreate = 1u << 2,
  kOpenTrunc = 1u << 3,
  kOpenAppend = 1u << 4,
  kOpenExcl = 1u << 5,
};

struct OpenFile {
  VnodeRef vnode;
  FileSystem* fs = nullptr;  // null for pipes / anonymous objects
  std::string path;          // empty for pipes / anonymous objects
  uint32_t flags = 0;
  uint64_t offset = 0;
  bool created = false;      // O_CREAT actually created the file

  bool readable() const { return (flags & kOpenRead) != 0; }
  bool writable() const { return (flags & kOpenWrite) != 0; }
};

using OpenFileRef = std::shared_ptr<OpenFile>;

class Process {
 public:
  Process(Pid pid, Pid ppid, std::string name)
      : pid_(pid), ppid_(ppid), name_(std::move(name)) {}

  Pid pid() const { return pid_; }
  Pid ppid() const { return ppid_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const std::vector<std::string>& argv() const { return argv_; }
  void set_argv(std::vector<std::string> argv) { argv_ = std::move(argv); }
  const std::vector<std::string>& env() const { return env_; }
  void set_env(std::vector<std::string> env) { env_ = std::move(env); }

  const std::string& cwd() const { return cwd_; }
  void set_cwd(std::string cwd) { cwd_ = std::move(cwd); }

  bool exited() const { return exited_; }
  void MarkExited() { exited_ = true; }

  // File descriptor table.
  Fd InstallFd(OpenFileRef file);
  void InstallFdAt(Fd fd, OpenFileRef file);
  Result<OpenFileRef> GetFd(Fd fd) const;
  Status CloseFd(Fd fd);
  const std::map<Fd, OpenFileRef>& fds() const { return fds_; }
  void CopyFdsFrom(const Process& other) { fds_ = other.fds_; }

 private:
  Pid pid_;
  Pid ppid_;
  std::string name_;
  std::vector<std::string> argv_;
  std::vector<std::string> env_;
  std::string cwd_ = "/";
  bool exited_ = false;
  Fd next_fd_ = 3;  // 0,1,2 reserved by convention
  std::map<Fd, OpenFileRef> fds_;
};

}  // namespace pass::os

#endif  // SRC_OS_PROCESS_H_
