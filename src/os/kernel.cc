#include "src/os/kernel.h"

#include "src/os/path.h"
#include "src/os/pipe.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace pass::os {

namespace {

// Per-syscall CPU cost (trap + dispatch).
constexpr sim::Nanos kSyscallCpuNs = 1500;
// Per-byte copy cost between user and kernel space.
constexpr double kCopyioNsPerByte = 0.3;

}  // namespace

void Kernel::ChargeSyscall(size_t bytes) {
  ++syscall_count_;
  sim::Nanos cost = kSyscallCpuNs;
  cost += static_cast<sim::Nanos>(kCopyioNsPerByte *
                                  static_cast<double>(bytes));
  env_->ChargeCpu(cost);
}

std::string Kernel::Normalize(const Process& proc,
                              std::string_view path) const {
  return NormalizePath(path, proc.cwd());
}

Pid Kernel::Spawn(std::string name, std::vector<std::string> argv,
                  std::vector<std::string> env) {
  Pid pid = next_pid_++;
  auto proc = std::make_unique<Process>(pid, 0, name);
  proc->set_argv(argv.empty() ? std::vector<std::string>{name}
                              : std::move(argv));
  proc->set_env(std::move(env));
  Process* raw = proc.get();
  procs_[pid] = std::move(proc);
  if (interceptor_ != nullptr) {
    interceptor_->OnProcessStart(*raw, nullptr);
  }
  return pid;
}

Result<Pid> Kernel::Fork(Pid pid) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * parent, GetProcess(pid));
  Pid child_pid = next_pid_++;
  auto child =
      std::make_unique<Process>(child_pid, pid, parent->name());
  child->set_argv(parent->argv());
  child->set_env(parent->env());
  child->set_cwd(parent->cwd());
  child->CopyFdsFrom(*parent);
  Process* raw = child.get();
  procs_[child_pid] = std::move(child);
  if (interceptor_ != nullptr) {
    interceptor_->OnProcessStart(*raw, parent);
  }
  return child_pid;
}

Status Kernel::Exec(Pid pid, std::string_view path,
                    std::vector<std::string> argv,
                    std::vector<std::string> env) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  std::string norm = Normalize(*proc, path);
  // The binary itself need not exist on a simulated volume; if it does, the
  // interceptor records it as an input to the process.
  VnodeRef binary;
  if (auto resolved = vfs_.Resolve(norm); resolved.ok()) {
    binary = resolved->vnode;
  }
  proc->set_name(BaseName(norm));
  proc->set_argv(std::move(argv));
  if (!env.empty()) {
    proc->set_env(std::move(env));
  }
  if (interceptor_ != nullptr) {
    interceptor_->OnExec(*proc, norm, binary);
  }
  return Status::Ok();
}

Status Kernel::Exit(Pid pid, int code) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  if (interceptor_ != nullptr) {
    interceptor_->OnExit(*proc);
  }
  // Close all fds (fires OnClose through the normal path).
  std::vector<Fd> fds;
  for (const auto& [fd, file] : proc->fds()) {
    fds.push_back(fd);
  }
  for (Fd fd : fds) {
    (void)Close(pid, fd);
  }
  proc->MarkExited(code);
  return Status::Ok();
}

Result<Process*> Kernel::GetProcess(Pid pid) {
  auto it = procs_.find(pid);
  if (it == procs_.end()) {
    return NotFound(StrFormat("no process %d", pid));
  }
  return it->second.get();
}

Result<Fd> Kernel::Open(Pid pid, std::string_view path, uint32_t flags) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  std::string norm = Normalize(*proc, path);

  auto resolved = vfs_.Resolve(norm);
  bool created = false;
  VnodeRef vnode;
  FileSystem* fs = nullptr;
  if (resolved.ok()) {
    if ((flags & kOpenExcl) != 0 && (flags & kOpenCreate) != 0) {
      return Exists(norm + " exists (O_EXCL)");
    }
    vnode = resolved->vnode;
    fs = resolved->fs;
    if (vnode->type() == VnodeType::kDirectory && (flags & kOpenWrite) != 0) {
      return IsDir(norm + " is a directory");
    }
  } else if (resolved.status().code() == Code::kNotFound &&
             (flags & kOpenCreate) != 0) {
    PASS_ASSIGN_OR_RETURN(ResolvedParent parent, vfs_.ResolveParent(norm));
    PASS_ASSIGN_OR_RETURN(vnode,
                          parent.parent->Create(parent.leaf, VnodeType::kFile));
    fs = parent.fs;
    created = true;
  } else {
    return resolved.status();
  }

  if ((flags & kOpenTrunc) != 0 && vnode->type() == VnodeType::kFile) {
    PASS_RETURN_IF_ERROR(vnode->Truncate(0));
  }

  auto file = std::make_shared<OpenFile>();
  file->vnode = std::move(vnode);
  file->fs = fs;
  file->path = norm;
  file->flags = flags;
  file->created = created;
  if ((flags & kOpenAppend) != 0) {
    PASS_ASSIGN_OR_RETURN(Attr attr, file->vnode->Getattr());
    file->offset = attr.size;
  }
  if (interceptor_ != nullptr) {
    interceptor_->OnOpen(*proc, *file);
  }
  return proc->InstallFd(std::move(file));
}

Status Kernel::Close(Pid pid, Fd fd) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  PASS_ASSIGN_OR_RETURN(OpenFileRef file, proc->GetFd(fd));
  if (interceptor_ != nullptr) {
    interceptor_->OnClose(*proc, *file);
  }
  return proc->CloseFd(fd);
}

Result<size_t> Kernel::Read(Pid pid, Fd fd, size_t len, std::string* out) {
  out->clear();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  PASS_ASSIGN_OR_RETURN(OpenFileRef file, proc->GetFd(fd));
  if (!file->readable()) {
    return BadFd("fd not open for reading");
  }
  size_t n = 0;
  if (interceptor_ != nullptr) {
    PASS_ASSIGN_OR_RETURN(
        n, interceptor_->InterceptRead(*proc, *file, file->offset, len, out));
  } else {
    PASS_ASSIGN_OR_RETURN(n, file->vnode->Read(file->offset, len, out));
  }
  ChargeSyscall(n);
  file->offset += n;
  return n;
}

Result<size_t> Kernel::Write(Pid pid, Fd fd, std::string_view data) {
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  PASS_ASSIGN_OR_RETURN(OpenFileRef file, proc->GetFd(fd));
  if (!file->writable()) {
    return BadFd("fd not open for writing");
  }
  uint64_t offset = file->offset;
  if ((file->flags & kOpenAppend) != 0) {
    PASS_ASSIGN_OR_RETURN(Attr attr, file->vnode->Getattr());
    offset = attr.size;
  }
  size_t n = 0;
  if (interceptor_ != nullptr) {
    PASS_ASSIGN_OR_RETURN(
        n, interceptor_->InterceptWrite(*proc, *file, offset, data));
  } else {
    PASS_ASSIGN_OR_RETURN(n, file->vnode->Write(offset, data));
  }
  ChargeSyscall(n);
  file->offset = offset + n;
  return n;
}

Result<size_t> Kernel::Writev(Pid pid, Fd fd,
                              const std::vector<std::string_view>& iov) {
  // One syscall charge, one interceptor event per buffer (matches how the
  // observer sees writev: a single system call moving several extents).
  size_t total = 0;
  for (std::string_view piece : iov) {
    PASS_ASSIGN_OR_RETURN(size_t n, Write(pid, fd, piece));
    total += n;
  }
  return total;
}

Result<size_t> Kernel::Readv(Pid pid, Fd fd, const std::vector<size_t>& lens,
                             std::vector<std::string>* out) {
  size_t total = 0;
  out->clear();
  for (size_t len : lens) {
    std::string piece;
    PASS_ASSIGN_OR_RETURN(size_t n, Read(pid, fd, len, &piece));
    total += n;
    out->push_back(std::move(piece));
    if (n < len) {
      break;
    }
  }
  return total;
}

Result<uint64_t> Kernel::Lseek(Pid pid, Fd fd, int64_t offset, int whence) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  PASS_ASSIGN_OR_RETURN(OpenFileRef file, proc->GetFd(fd));
  int64_t base = 0;
  switch (whence) {
    case 0:  // SEEK_SET
      base = 0;
      break;
    case 1:  // SEEK_CUR
      base = static_cast<int64_t>(file->offset);
      break;
    case 2: {  // SEEK_END
      PASS_ASSIGN_OR_RETURN(Attr attr, file->vnode->Getattr());
      base = static_cast<int64_t>(attr.size);
      break;
    }
    default:
      return InvalidArgument("bad whence");
  }
  int64_t pos = base + offset;
  if (pos < 0) {
    return InvalidArgument("seek before start");
  }
  file->offset = static_cast<uint64_t>(pos);
  return file->offset;
}

Status Kernel::Mmap(Pid pid, Fd fd, bool writable) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  PASS_ASSIGN_OR_RETURN(OpenFileRef file, proc->GetFd(fd));
  if (interceptor_ != nullptr) {
    interceptor_->OnMmap(*proc, *file, writable);
  }
  return Status::Ok();
}

Status Kernel::Mkdir(Pid pid, std::string_view path) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  std::string norm = Normalize(*proc, path);
  PASS_ASSIGN_OR_RETURN(ResolvedParent parent, vfs_.ResolveParent(norm));
  PASS_ASSIGN_OR_RETURN(
      VnodeRef dir, parent.parent->Create(parent.leaf, VnodeType::kDirectory));
  (void)dir;
  return Status::Ok();
}

Status Kernel::Unlink(Pid pid, std::string_view path) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  std::string norm = Normalize(*proc, path);
  PASS_ASSIGN_OR_RETURN(ResolvedParent parent, vfs_.ResolveParent(norm));
  PASS_ASSIGN_OR_RETURN(VnodeRef victim, parent.parent->Lookup(parent.leaf));
  if (victim->type() == VnodeType::kDirectory) {
    return IsDir(norm + " is a directory (use rmdir)");
  }
  PASS_RETURN_IF_ERROR(parent.parent->Unlink(parent.leaf));
  if (interceptor_ != nullptr) {
    interceptor_->OnDropInode(parent.fs, norm, victim);
  }
  return Status::Ok();
}

Status Kernel::Rmdir(Pid pid, std::string_view path) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  std::string norm = Normalize(*proc, path);
  PASS_ASSIGN_OR_RETURN(ResolvedParent parent, vfs_.ResolveParent(norm));
  PASS_ASSIGN_OR_RETURN(VnodeRef victim, parent.parent->Lookup(parent.leaf));
  if (victim->type() != VnodeType::kDirectory) {
    return NotDir(norm + " is not a directory");
  }
  PASS_ASSIGN_OR_RETURN(std::vector<Dirent> entries, victim->Readdir());
  if (!entries.empty()) {
    return NotEmpty(norm + " is not empty");
  }
  return parent.parent->Unlink(parent.leaf);
}

Status Kernel::Rename(Pid pid, std::string_view from, std::string_view to) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  std::string nfrom = Normalize(*proc, from);
  std::string nto = Normalize(*proc, to);
  PASS_ASSIGN_OR_RETURN(ResolvedParent pfrom, vfs_.ResolveParent(nfrom));
  PASS_ASSIGN_OR_RETURN(ResolvedParent pto, vfs_.ResolveParent(nto));
  if (pfrom.fs != pto.fs) {
    return InvalidArgument("cross-filesystem rename");
  }
  PASS_RETURN_IF_ERROR(
      pfrom.fs->Rename(pfrom.parent, pfrom.leaf, pto.parent, pto.leaf));
  if (interceptor_ != nullptr) {
    interceptor_->OnRename(nfrom, nto);
  }
  return Status::Ok();
}

Result<Attr> Kernel::Stat(Pid pid, std::string_view path) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  PASS_ASSIGN_OR_RETURN(ResolvedPath resolved,
                        vfs_.Resolve(Normalize(*proc, path)));
  return resolved.vnode->Getattr();
}

Result<std::vector<Dirent>> Kernel::Readdir(Pid pid, std::string_view path) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  PASS_ASSIGN_OR_RETURN(ResolvedPath resolved,
                        vfs_.Resolve(Normalize(*proc, path)));
  return resolved.vnode->Readdir();
}

Result<std::pair<Fd, Fd>> Kernel::Pipe(Pid pid) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  auto vnode = std::make_shared<PipeVnode>();
  auto read_end = std::make_shared<OpenFile>();
  read_end->vnode = vnode;
  read_end->flags = kOpenRead;
  auto write_end = std::make_shared<OpenFile>();
  write_end->vnode = vnode;
  write_end->flags = kOpenWrite;
  if (interceptor_ != nullptr) {
    interceptor_->OnPipe(*proc, *read_end, *write_end);
  }
  Fd rfd = proc->InstallFd(std::move(read_end));
  Fd wfd = proc->InstallFd(std::move(write_end));
  return std::make_pair(rfd, wfd);
}

Status Kernel::Chdir(Pid pid, std::string_view path) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  std::string norm = Normalize(*proc, path);
  PASS_ASSIGN_OR_RETURN(ResolvedPath resolved, vfs_.Resolve(norm));
  if (resolved.vnode->type() != VnodeType::kDirectory) {
    return NotDir(norm);
  }
  proc->set_cwd(norm);
  return Status::Ok();
}

Status Kernel::Dup2(Pid pid, Fd from, Fd to) {
  ChargeSyscall();
  PASS_ASSIGN_OR_RETURN(Process * proc, GetProcess(pid));
  PASS_ASSIGN_OR_RETURN(OpenFileRef file, proc->GetFd(from));
  (void)proc->CloseFd(to);
  proc->InstallFdAt(to, std::move(file));
  return Status::Ok();
}

Status Kernel::FsyncAll() {
  for (const std::string& mount : vfs_.MountPoints()) {
    auto fs = vfs_.MountOf(mount);
    if (fs.ok()) {
      PASS_RETURN_IF_ERROR(fs->first->Sync());
    }
  }
  return Status::Ok();
}

Status Kernel::WriteFile(Pid pid, std::string_view path,
                         std::string_view data) {
  PASS_ASSIGN_OR_RETURN(
      Fd fd, Open(pid, path, kOpenWrite | kOpenCreate | kOpenTrunc));
  // Whole-file writes move in large buffers (one pass_write transaction
  // per file for typical sizes).
  constexpr size_t kChunk = 1024 * 1024;
  for (size_t pos = 0; pos < data.size(); pos += kChunk) {
    size_t n = std::min(kChunk, data.size() - pos);
    auto written = Write(pid, fd, data.substr(pos, n));
    if (!written.ok()) {
      (void)Close(pid, fd);
      return written.status();
    }
  }
  if (data.empty()) {
    // Still a meaningful event: created/truncated empty file.
  }
  return Close(pid, fd);
}

Result<std::string> Kernel::ReadFile(Pid pid, std::string_view path) {
  PASS_ASSIGN_OR_RETURN(Fd fd, Open(pid, path, kOpenRead));
  std::string out;
  std::string chunk;
  constexpr size_t kChunk = 64 * 1024;
  for (;;) {
    auto n = Read(pid, fd, kChunk, &chunk);
    if (!n.ok()) {
      (void)Close(pid, fd);
      return n.status();
    }
    out.append(chunk);
    if (*n < kChunk) {
      break;
    }
  }
  PASS_RETURN_IF_ERROR(Close(pid, fd));
  return out;
}

}  // namespace pass::os
