#ifndef SRC_WORKLOADS_MACHINE_H_
#define SRC_WORKLOADS_MACHINE_H_

// Machine: one simulated host, assembled exactly like Figure 2 of the paper.
//
//   vanilla configuration:  Kernel -> MemFs("ext3") on a seek-modelled disk
//   PASSv2 configuration:   Kernel -> [interceptor/observer = PassSystem]
//                           -> Lasagna (stackable, WAP log) -> MemFs ->
//                           disk; Waldo + ProvDb drain the log
//
// The benchmarks in bench/ run the same workload on both configurations and
// report elapsed virtual time, which is the paper's Table 2 methodology.

#include <memory>
#include <string>

#include "src/core/libpass.h"
#include "src/core/system.h"
#include "src/fs/memfs.h"
#include "src/lasagna/lasagna.h"
#include "src/os/kernel.h"
#include "src/sim/disk.h"
#include "src/sim/env.h"
#include "src/waldo/provdb.h"
#include "src/waldo/waldo.h"

namespace pass::workloads {

struct MachineOptions {
  uint64_t seed = 42;
  bool with_pass = false;
  // Share a clock/RNG with other machines (PA-NFS client + servers must
  // accumulate costs on one timeline). Null: the machine owns its Env.
  sim::Env* shared_env = nullptr;
  uint16_t shard = 0;
  // Mount this filesystem at "/" instead of local storage (an NFS-root
  // client machine). When with_pass is also set, the PassSystem attaches it
  // as the volume if it is provenance-capable.
  os::FileSystem* root_fs = nullptr;
};

class Machine {
 public:
  explicit Machine(MachineOptions options = MachineOptions());

  sim::Env& env() { return *env_; }
  sim::Disk& disk() { return disk_; }
  os::Kernel& kernel() { return *kernel_; }
  fs::MemFs& basefs() { return *basefs_; }

  // Null in the vanilla configuration.
  lasagna::LasagnaFs* volume() { return volume_.get(); }
  core::PassSystem* pass() { return pass_.get(); }
  waldo::Waldo* waldo() { return waldo_.get(); }
  waldo::ProvDb* db() { return db_.get(); }
  core::PnodeAllocator& allocator() { return allocator_; }

  bool with_pass() const { return options_.with_pass; }
  double elapsed_seconds() const { return env_->clock().seconds(); }

  // Spawn a process and a libpass handle bound to it (provenance-aware
  // applications).
  os::Pid Spawn(const std::string& name) { return kernel_->Spawn(name); }
  core::LibPass Lib(os::Pid pid) { return core::LibPass(pass_.get(), pid); }

  // Root filesystem as mounted at "/" (Lasagna or MemFs).
  os::FileSystem* rootfs();

 private:
  MachineOptions options_;
  std::unique_ptr<sim::Env> owned_env_;
  sim::Env* env_;
  sim::Disk disk_;
  core::PnodeAllocator allocator_;
  std::unique_ptr<fs::MemFs> basefs_;
  std::unique_ptr<lasagna::LasagnaFs> volume_;
  std::unique_ptr<os::Kernel> kernel_;
  std::unique_ptr<core::PassSystem> pass_;
  std::unique_ptr<waldo::ProvDb> db_;
  std::unique_ptr<waldo::Waldo> waldo_;
};

}  // namespace pass::workloads

#endif  // SRC_WORKLOADS_MACHINE_H_
