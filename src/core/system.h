#ifndef SRC_CORE_SYSTEM_H_
#define SRC_CORE_SYSTEM_H_

// PassSystem: the in-kernel PASSv2 core (Figure 2).
//
// It plays two roles at once:
//
//  * the *interceptor + observer*: attached to the simulated kernel as the
//    SyscallInterceptor, it translates system-call events into provenance
//    records ("when a process P reads a file A, the observer generates a
//    record P -> A", §5.1) and couples data movement with provenance
//    movement by routing PASS-volume I/O through pass_read / pass_write;
//
//  * the *DPAPI entry point* for provenance-aware applications: disclosed
//    provenance enters here, gets augmented with the implicit
//    application-to-file dependencies the observer must add (§5.3), and is
//    pushed through the same analyzer -> distributor -> storage pipeline.
//
// One PassSystem exists per machine. Volumes (Lasagna locally, PA-NFS
// mounts remotely) register with it; the first registered volume is the
// default target for pass_mkobj.

#include <map>
#include <string>
#include <vector>

#include "src/core/analyzer.h"
#include "src/core/distributor.h"
#include "src/core/object.h"
#include "src/core/provenance.h"
#include "src/os/kernel.h"
#include "src/sim/env.h"

namespace pass::core {

struct ObserverStats {
  uint64_t process_starts = 0;
  uint64_t execs = 0;
  uint64_t exits = 0;
  uint64_t opens = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t pipes = 0;
  uint64_t mmaps = 0;
  uint64_t renames = 0;
  uint64_t drop_inodes = 0;
  uint64_t disclosures = 0;  // DPAPI calls from provenance-aware apps
};

// Result of a user-level pass_read.
struct DpapiReadResult {
  std::string data;
  ObjectRef source;  // pnode + version as of the moment of the read
};

class PassSystem : public os::SyscallInterceptor {
 public:
  // `allocator` is the machine's pnode allocator, shared with its volumes
  // (everything on one machine allocates from the same space).
  PassSystem(sim::Env* env, os::Kernel* kernel, PnodeAllocator* allocator);

  // Register a provenance-capable volume (Lasagna or a PA-NFS mount).
  // The first becomes the default volume for pass_mkobj.
  void AttachVolume(os::FileSystem* volume);

  // ---- SyscallInterceptor (the interceptor + observer) -------------------
  Result<size_t> InterceptRead(os::Process& proc, os::OpenFile& file,
                               uint64_t offset, size_t len,
                               std::string* out) override;
  Result<size_t> InterceptWrite(os::Process& proc, os::OpenFile& file,
                                uint64_t offset,
                                std::string_view data) override;
  void OnProcessStart(os::Process& proc, const os::Process* parent) override;
  void OnExec(os::Process& proc, const std::string& path,
              const os::VnodeRef& binary) override;
  void OnExit(os::Process& proc) override;
  void OnOpen(os::Process& proc, os::OpenFile& file) override;
  void OnMmap(os::Process& proc, os::OpenFile& file, bool writable) override;
  void OnPipe(os::Process& proc, os::OpenFile& read_end,
              os::OpenFile& write_end) override;
  void OnRename(const std::string& from, const std::string& to) override;
  void OnDropInode(os::FileSystem* fs, const std::string& path,
                   const os::VnodeRef& vnode) override;

  // ---- DPAPI for provenance-aware applications (libpass backend) ---------
  // pass_mkobj: create an application object on `volume` (default volume if
  // null).
  Result<PassObject> Mkobj(os::FileSystem* volume = nullptr);
  // pass_reviveobj: reattach to an object created earlier with pass_mkobj.
  Result<PassObject> Reviveobj(PnodeId pnode, Version version,
                               os::FileSystem* volume = nullptr);
  // pass_write with no data: disclose records describing `target`. INPUT
  // records become analyzer edges; others become attributes. The implicit
  // dependency on the calling process is added by the observer.
  Status DiscloseRecords(os::Pid pid, const ObjectRef& target,
                         const std::vector<Record>& records);
  Status DiscloseObjectRecords(os::Pid pid, const PassObject& target,
                               const std::vector<Record>& records);
  // pass_write with data: write `data` to open file `fd` together with the
  // disclosed records describing it (replaces the plain write an application
  // would otherwise issue, §6.3).
  Result<size_t> DiscloseFileWrite(os::Pid pid, os::Fd fd,
                                   std::string_view data,
                                   const std::vector<Record>& records);
  // pass_read through the DPAPI: returns data plus exact source identity.
  Result<DpapiReadResult> DpapiRead(os::Pid pid, os::Fd fd, size_t len);
  // pass_freeze on an application object.
  Result<Version> FreezeObject(const PassObject& object);
  // pass_sync: force the object's cached provenance to persistent storage.
  Status SyncObject(const PassObject& object);

  // ---- Introspection ------------------------------------------------------
  // Current (pnode, version) of the object backing a path / pid; used by
  // applications that want to link against system objects, and by tests.
  Result<ObjectRef> RefOfPath(std::string_view path);
  ObjectRef RefOfPid(os::Pid pid);
  Result<ObjectRef> RefOfObject(const PassObject& object) const;

  const ObserverStats& observer_stats() const { return observer_stats_; }
  const AnalyzerStats& analyzer_stats() const { return analyzer_.stats(); }
  const DistributorStats& distributor_stats() const {
    return distributor_.stats();
  }
  Analyzer& analyzer() { return analyzer_; }
  os::Kernel* kernel() { return kernel_; }
  sim::Env* env() { return env_; }

 private:
  // State lookup/creation. Emits NAME/TYPE records on first sight.
  ObjState& ProcState(os::Process& proc);
  ObjState& FileState(os::OpenFile& file);
  ObjState& VnodeState(os::FileSystem* fs, const os::VnodeRef& vnode,
                       const std::string& path);
  ObjState& PipeState(const os::VnodeRef& vnode);
  ObjState* FindState(PnodeId pnode);

  // Routing: cache on the distributor for non-persistent subjects; append
  // to `bundle` for persistent ones (null bundle -> buffer for PassProv).
  Analyzer::Emit RouterInto(Bundle* bundle);
  // Storage-level freeze callback for a persistent object.
  Analyzer::FreezeFn FreezeFnFor(ObjState& state);
  // Flush a provenance-only bundle to the volume owning `state`.
  Status FlushBundle(ObjState& state, Bundle bundle);
  // Flush records about persistent objects that were emitted outside a data
  // write (NAME on rename, freeze chains, ...) as provenance-only appends.
  void FlushPending();

  void ChargeRecordCpu(size_t records);
  void DiscloseCommon(os::Pid pid, ObjState& target,
                      const std::vector<Record>& records, Bundle* bundle);

  sim::Env* env_;
  os::Kernel* kernel_;
  PnodeAllocator* allocator_;
  Analyzer analyzer_;
  Distributor distributor_;
  ObserverStats observer_stats_;

  std::vector<os::FileSystem*> volumes_;
  std::map<os::FileSystem*, Bundle> pending_;
  std::map<PnodeId, ObjState> by_pnode_;
  std::map<os::Pid, PnodeId> pid_map_;
  std::map<std::pair<os::FileSystem*, os::Ino>, PnodeId> file_map_;
  std::map<const os::Vnode*, PnodeId> pipe_map_;
};

}  // namespace pass::core

#endif  // SRC_CORE_SYSTEM_H_
