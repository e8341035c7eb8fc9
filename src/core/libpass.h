#ifndef SRC_CORE_LIBPASS_H_
#define SRC_CORE_LIBPASS_H_

// libpass: the user-level DPAPI (§5.2). Applications link against libpass
// to become provenance-aware; each instance is bound to the calling process
// so the observer can attribute disclosed provenance correctly.
//
// The six DPAPI calls map as:
//   pass_read       -> LibPass::Read
//   pass_write      -> LibPass::Write (provenance-only on an object) /
//                      LibPass::WriteFile (data + bundle to an open file)
//   pass_freeze     -> LibPass::Freeze
//   pass_mkobj      -> LibPass::Mkobj
//   pass_reviveobj  -> LibPass::Revive
//   pass_sync       -> LibPass::Sync

#include <string_view>
#include <vector>

#include "src/core/system.h"

namespace pass::core {

class LibPass {
 public:
  LibPass(PassSystem* system, os::Pid pid) : system_(system), pid_(pid) {}

  os::Pid pid() const { return pid_; }
  PassSystem* system() { return system_; }

  // pass_mkobj: create an application object (browser session, data set,
  // workflow operator, Python function...).
  Result<PassObject> Mkobj(os::FileSystem* volume = nullptr) {
    return system_->Mkobj(volume);
  }

  // pass_reviveobj: reattach to an object across application restarts.
  Result<PassObject> Revive(PnodeId pnode, Version version,
                            os::FileSystem* volume = nullptr) {
    return system_->Reviveobj(pnode, version, volume);
  }

  // pass_write (provenance only) on an application object.
  Status Write(const PassObject& object, std::vector<Record> records) {
    return system_->DiscloseObjectRecords(pid_, object, records);
  }

  // pass_write (provenance only) on an arbitrary object reference (e.g. a
  // file identity obtained from Read).
  Status WriteRef(const ObjectRef& target, std::vector<Record> records) {
    return system_->DiscloseRecords(pid_, target, records);
  }

  // pass_write with data: replaces the plain write an application would
  // issue so data and provenance move together.
  Result<size_t> WriteFile(os::Fd fd, std::string_view data,
                           std::vector<Record> records = {}) {
    return system_->DiscloseFileWrite(pid_, fd, data, records);
  }

  // pass_read: data plus the exact (pnode, version) identity of the source.
  Result<DpapiReadResult> Read(os::Fd fd, size_t len) {
    return system_->DpapiRead(pid_, fd, len);
  }

  // pass_freeze.
  Result<Version> Freeze(const PassObject& object) {
    return system_->FreezeObject(object);
  }

  // pass_sync: persist the object's provenance even if it never becomes an
  // ancestor of a persistent object.
  Status Sync(const PassObject& object) { return system_->SyncObject(object); }

  // Current reference of an object (for building INPUT records).
  Result<ObjectRef> Ref(const PassObject& object) const {
    return system_->RefOfObject(object);
  }

 private:
  PassSystem* system_;
  os::Pid pid_;
};

}  // namespace pass::core

#endif  // SRC_CORE_LIBPASS_H_
