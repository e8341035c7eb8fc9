#ifndef SRC_OS_KERNEL_H_
#define SRC_OS_KERNEL_H_

// The simulated kernel: process table, syscall layer, and the interceptor
// hook points PASSv2 attaches to. The PASSv2 interceptor handles exactly
// these events (§5.3): execve, fork, exit, read, readv, write, writev,
// mmap, open, pipe, and the kernel operation drop_inode.
//
// When a SyscallInterceptor is attached, read and write are *delegated* to
// it (so the observer can substitute pass_read/pass_write and couple data
// with provenance); all other events are reported after the fact. With no
// interceptor attached the kernel behaves as a vanilla OS — that is the
// ext3 baseline configuration of the paper's evaluation.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/os/process.h"
#include "src/os/vfs.h"
#include "src/sim/env.h"
#include "src/util/result.h"

namespace pass::os {

// Hook interface implemented by core::PassSystem. All methods have vanilla
// default behavior so a partial implementation stays functional.
class SyscallInterceptor {
 public:
  virtual ~SyscallInterceptor() = default;

  // Delegated data path. Implementations must perform the actual vnode I/O
  // (typically via pass_read/pass_write on PASS volumes).
  virtual Result<size_t> InterceptRead(Process& proc, OpenFile& file,
                                       uint64_t offset, size_t len,
                                       std::string* out) = 0;
  virtual Result<size_t> InterceptWrite(Process& proc, OpenFile& file,
                                        uint64_t offset,
                                        std::string_view data) = 0;

  // Notification path.
  virtual void OnProcessStart(Process& proc, const Process* parent) {}
  virtual void OnExec(Process& proc, const std::string& path,
                      const VnodeRef& binary) {}
  virtual void OnExit(Process& proc) {}
  virtual void OnOpen(Process& proc, OpenFile& file) {}
  virtual void OnClose(Process& proc, OpenFile& file) {}
  virtual void OnMmap(Process& proc, OpenFile& file, bool writable) {}
  virtual void OnPipe(Process& proc, OpenFile& read_end,
                      OpenFile& write_end) {}
  virtual void OnRename(const std::string& from, const std::string& to) {}
  virtual void OnDropInode(FileSystem* fs, const std::string& path,
                           const VnodeRef& vnode) {}
};

class Kernel {
 public:
  explicit Kernel(sim::Env* env) : env_(env) {}

  sim::Env* env() { return env_; }
  Vfs& vfs() { return vfs_; }

  // Attach / detach the PASSv2 interceptor. Borrowed pointer.
  void set_interceptor(SyscallInterceptor* interceptor) {
    interceptor_ = interceptor;
  }
  SyscallInterceptor* interceptor() { return interceptor_; }

  // ---- Mounts -------------------------------------------------------------
  Status Mount(std::string_view path, FileSystem* fs) {
    return vfs_.Mount(path, fs);
  }

  // ---- Process lifecycle ---------------------------------------------------
  // Create the initial process of a simulated program.
  Pid Spawn(std::string name, std::vector<std::string> argv = {},
            std::vector<std::string> env = {});
  Result<Pid> Fork(Pid pid);
  Status Exec(Pid pid, std::string_view path, std::vector<std::string> argv,
              std::vector<std::string> env = {});
  Status Exit(Pid pid, int code);

  Result<Process*> GetProcess(Pid pid);

  // ---- File syscalls --------------------------------------------------------
  Result<Fd> Open(Pid pid, std::string_view path, uint32_t flags);
  Status Close(Pid pid, Fd fd);
  Result<size_t> Read(Pid pid, Fd fd, size_t len, std::string* out);
  Result<size_t> Write(Pid pid, Fd fd, std::string_view data);
  // Scatter/gather forms (readv/writev): one syscall, n buffers.
  Result<size_t> Writev(Pid pid, Fd fd,
                        const std::vector<std::string_view>& iov);
  Result<size_t> Readv(Pid pid, Fd fd, const std::vector<size_t>& lens,
                       std::vector<std::string>* out);
  Result<uint64_t> Lseek(Pid pid, Fd fd, int64_t offset, int whence);
  Status Mmap(Pid pid, Fd fd, bool writable);

  Status Mkdir(Pid pid, std::string_view path);
  Status Unlink(Pid pid, std::string_view path);
  Status Rmdir(Pid pid, std::string_view path);
  Status Rename(Pid pid, std::string_view from, std::string_view to);
  Result<Attr> Stat(Pid pid, std::string_view path);
  Result<std::vector<Dirent>> Readdir(Pid pid, std::string_view path);
  Result<std::pair<Fd, Fd>> Pipe(Pid pid);
  Status Chdir(Pid pid, std::string_view path);
  Status Dup2(Pid pid, Fd from, Fd to);
  Status FsyncAll();

  // Convenience wrappers used by workloads and applications.
  Status WriteFile(Pid pid, std::string_view path, std::string_view data);
  Result<std::string> ReadFile(Pid pid, std::string_view path);

  uint64_t syscall_count() const { return syscall_count_; }

 private:
  void ChargeSyscall(size_t bytes = 0);
  std::string Normalize(const Process& proc, std::string_view path) const;

  sim::Env* env_;
  Vfs vfs_;
  SyscallInterceptor* interceptor_ = nullptr;
  Pid next_pid_ = 1;
  std::map<Pid, std::unique_ptr<Process>> procs_;
  uint64_t syscall_count_ = 0;
};

}  // namespace pass::os

#endif  // SRC_OS_KERNEL_H_
