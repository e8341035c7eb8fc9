#include "src/workloads/machine.h"

#include "src/util/logging.h"

namespace pass::workloads {
namespace {

// Disk layout: journal | provenance log zone | data.
constexpr uint64_t kJournalZoneBytes = 128ull << 20;
constexpr uint64_t kLogZoneBytes = 4ull << 30;

}  // namespace

Machine::Machine(MachineOptions options)
    : options_(options),
      owned_env_(options.shared_env == nullptr
                     ? std::make_unique<sim::Env>(options.seed)
                     : nullptr),
      env_(options.shared_env != nullptr ? options.shared_env
                                         : owned_env_.get()),
      disk_(&env_->clock()),
      allocator_(options.shard) {
  sim::DiskZone journal_zone(0, kJournalZoneBytes);
  sim::DiskZone log_zone(kJournalZoneBytes, kLogZoneBytes);
  sim::DiskZone data_zone(
      kJournalZoneBytes + kLogZoneBytes,
      sim::Disk::kCapacityBytes - kJournalZoneBytes - kLogZoneBytes);

  // Default MemFsOptions: named "ext3", and its special zone prefix is
  // Lasagna's default log directory, so log appends live in their own zone.
  basefs_ = std::make_unique<fs::MemFs>(env_, &disk_, data_zone, journal_zone,
                                        log_zone);

  kernel_ = std::make_unique<os::Kernel>(env_);

  if (options.root_fs != nullptr) {
    PASS_CHECK(kernel_->Mount("/", options.root_fs).ok());
    if (options.with_pass) {
      pass_ = std::make_unique<core::PassSystem>(env_, kernel_.get(),
                                                 &allocator_);
      if (options.root_fs->provenance_capable()) {
        pass_->AttachVolume(options.root_fs);
      }
    }
    return;
  }

  if (!options.with_pass) {
    PASS_CHECK(kernel_->Mount("/", basefs_.get()).ok());
    return;
  }

  volume_ = std::make_unique<lasagna::LasagnaFs>(env_, basefs_.get(),
                                                 &allocator_);
  PASS_CHECK(kernel_->Mount("/", volume_.get()).ok());

  pass_ = std::make_unique<core::PassSystem>(env_, kernel_.get(), &allocator_);
  pass_->AttachVolume(volume_.get());

  db_ = std::make_unique<waldo::ProvDb>();
  waldo_ = std::make_unique<waldo::Waldo>(db_.get(), volume_.get());
}

os::FileSystem* Machine::rootfs() {
  if (options_.root_fs != nullptr) {
    return options_.root_fs;
  }
  if (volume_ != nullptr) {
    return volume_.get();
  }
  return basefs_.get();
}

}  // namespace pass::workloads
