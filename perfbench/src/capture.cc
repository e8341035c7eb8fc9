// The capture phase: a seeded syscall script replayed through the public
// os::Kernel calls on four configurations -- ext3 (MemFs), PASSv2 (Lasagna),
// NFS and PA-NFS -- with Waldo::Drain after each PASS run. This is the
// paper's Table 2 (elapsed-time overhead) and Table 3 (space overhead) path.
//
// The script is generated in set-up: payloads are slices of one random
// pool, so the timed replay measures the kernel and the PASS stack, not a
// payload generator.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/nfs/client.h"
#include "src/nfs/server.h"
#include "src/sim/net.h"
#include "src/util/strings.h"
#include "src/workloads/machine.h"

namespace perfbench {
namespace {

using pass::workloads::Machine;
using pass::workloads::MachineOptions;

// Fixed script shapes; CaptureSize holds the counts the mixes vary.
constexpr int kPostmarkDirs = 10;
constexpr size_t kPostmarkMin = 16 << 10;
constexpr size_t kPostmarkMax = 192 << 10;
constexpr size_t kHgFileBytes = 128 << 10;
constexpr size_t kHgHunkBytes = 2 << 10;
constexpr int kCcHeaders = 24;
constexpr size_t kCcSourceBytes = 8 << 10;
constexpr size_t kCcObjectBytes = 12 << 10;
constexpr int64_t kCcCpuNs = 18'000'000;

enum class OpKind : uint8_t {
  kSpawn,
  kFork,
  kExec,
  kExit,
  kMkdir,
  kOpen,
  kRead,
  kWrite,
  kClose,
  kUnlink,
  kRename,
  kCpu,
};

constexpr const char* kOpSpan[] = {
    "os.spawn", "os.fork",  "os.exec",   "os.exit",   "os.mkdir", "os.open",
    "os.read",  "os.write", "os.close",  "os.unlink", "os.rename", "bench.cpu",
};

// One script step. `proc` is a script-local process slot; each slot holds
// at most one open file at a time.
struct Op {
  OpKind kind;
  uint32_t proc = 0;
  uint32_t path = 0;   // index into Script::paths
  uint32_t path2 = 0;  // rename target / fork parent slot
  uint32_t flags = 0;
  uint64_t offset = 0;  // pool offset (write) / cpu nanos
  uint64_t len = 0;
  bool sample = false;  // oracle: check this write's INPUT edge
};

struct Script {
  std::vector<std::string> paths;
  std::vector<Op> ops;
  std::string pool;
  uint32_t procs = 0;
  uint64_t syscalls = 0;
  uint64_t data_bytes = 0;
};

class ScriptBuilder {
 public:
  ScriptBuilder(Script* script, InputRng* rng) : s_(script), rng_(rng) {}

  uint32_t Path(std::string p) {
    s_->paths.push_back(std::move(p));
    return static_cast<uint32_t>(s_->paths.size() - 1);
  }
  uint32_t Spawn(const std::string& name) {
    uint32_t slot = s_->procs++;
    Add({OpKind::kSpawn, slot, Path(name)});
    return slot;
  }
  uint32_t Fork(uint32_t parent) {
    uint32_t slot = s_->procs++;
    Op op{OpKind::kFork, slot};
    op.path2 = parent;
    Add(op);
    return slot;
  }
  void Exec(uint32_t proc, const std::string& binary) {
    Add({OpKind::kExec, proc, Path(binary)});
  }
  void Exit(uint32_t proc) { Add({OpKind::kExit, proc}); }
  void Mkdir(uint32_t proc, const std::string& dir) {
    Add({OpKind::kMkdir, proc, Path(dir)});
  }
  void Cpu(uint32_t proc, int64_t ns) {
    Op op{OpKind::kCpu, proc};
    op.offset = static_cast<uint64_t>(ns);
    Add(op);
  }
  // open + one write + close.
  void WriteFile(uint32_t proc, uint32_t path, size_t bytes, uint32_t flags) {
    Op open{OpKind::kOpen, proc, path};
    open.flags = flags;
    Add(open);
    Op write{OpKind::kWrite, proc, path};
    write.len = bytes;
    write.offset = rng_->Below(s_->pool.size() - bytes);
    // Every 16th write is checked against the drained database.
    write.sample = (++writes_ % 16) == 0;
    Add(write);
    Add({OpKind::kClose, proc, path});
    s_->data_bytes += bytes;
  }
  void ReadFile(uint32_t proc, uint32_t path, size_t bytes) {
    Op open{OpKind::kOpen, proc, path};
    open.flags = pass::os::kOpenRead;
    Add(open);
    Op read{OpKind::kRead, proc, path};
    read.len = bytes;
    Add(read);
    Add({OpKind::kClose, proc, path});
  }
  void Unlink(uint32_t proc, uint32_t path) {
    Add({OpKind::kUnlink, proc, path});
  }
  void Rename(uint32_t proc, uint32_t from, uint32_t to) {
    Op op{OpKind::kRename, proc, from};
    op.path2 = to;
    Add(op);
  }

 private:
  void Add(Op op) {
    if (op.kind != OpKind::kCpu && op.kind != OpKind::kSpawn) {
      ++s_->syscalls;
    }
    s_->ops.push_back(op);
  }

  Script* s_;
  InputRng* rng_;
  uint64_t writes_ = 0;
};

constexpr uint32_t kCreate = pass::os::kOpenWrite | pass::os::kOpenCreate |
                             pass::os::kOpenTrunc;
constexpr uint32_t kAppend = pass::os::kOpenWrite | pass::os::kOpenAppend;

Script BuildScript(const CaptureSize& size, uint64_t seed) {
  InputRng rng(seed ^ 0xc0ffee);
  Script script;
  std::string& pool = script.pool;
  pool.resize(size_t{4} << 20);
  for (size_t i = 0; i < pool.size(); i += 8) {
    uint64_t word = rng.Next();
    for (size_t b = 0; b < 8; ++b) {
      // Printable bytes, like the workloads' names.
      pool[i + b] = static_cast<char>('a' + ((word >> (8 * b)) & 0xff) % 26);
    }
  }
  ScriptBuilder b(&script, &rng);

  // Part 1: Postmark-like create/append/read/delete over subdirectories.
  uint32_t pm = b.Spawn("postmark");
  for (int d = 0; d < kPostmarkDirs; ++d) {
    b.Mkdir(pm, pass::StrFormat("/s%d", d));
  }
  auto pm_size = [&]() {
    return kPostmarkMin + rng.Below(kPostmarkMax - kPostmarkMin + 1);
  };
  std::vector<uint32_t> files;
  int created = 0;
  auto create = [&]() {
    uint32_t path = b.Path(pass::StrFormat(
        "/s%d/pm%05d", static_cast<int>(rng.Below(kPostmarkDirs)),
        created++));
    b.WriteFile(pm, path, pm_size(), kCreate);
    files.push_back(path);
  };
  for (int i = 0; i < size.postmark_files; ++i) {
    create();
  }
  // The four transaction kinds in equal shares (the Postmark default), in
  // a seeded order.
  std::vector<int> deck(size.postmark_txns);
  for (size_t t = 0; t < deck.size(); ++t) {
    deck[t] = static_cast<int>(t % 4);
  }
  for (size_t t = deck.size(); t > 1; --t) {
    std::swap(deck[t - 1], deck[rng.Below(t)]);
  }
  for (int kind : deck) {
    switch (kind) {
      case 0:
        create();
        break;
      case 1:
        if (files.size() > 4) {
          size_t victim = rng.Below(files.size());
          b.Unlink(pm, files[victim]);
          files.erase(files.begin() + static_cast<long>(victim));
        }
        break;
      case 2:
        b.ReadFile(pm, files[rng.Below(files.size())], kPostmarkMax);
        break;
      default:
        b.WriteFile(pm, files[rng.Below(files.size())], 4096, kAppend);
        break;
    }
  }

  // Part 2: Mercurial-like patch queue: read original + hunk, write a
  // merged temporary, rename it over the original.
  uint32_t hg = b.Spawn("hg");
  b.Mkdir(hg, "/repo");
  b.Mkdir(hg, "/patches");
  std::vector<uint32_t> tracked;
  for (int i = 0; i < size.hg_tracked; ++i) {
    tracked.push_back(b.Path(pass::StrFormat("/repo/src%04d.c", i)));
    b.WriteFile(hg, tracked.back(), kHgFileBytes, kCreate);
  }
  std::vector<uint32_t> patches;
  for (int p = 0; p < size.hg_patches; ++p) {
    patches.push_back(b.Path(pass::StrFormat("/patches/%04d.diff", p)));
    b.WriteFile(hg, patches.back(), kHgHunkBytes, kCreate);
  }
  for (int p = 0; p < size.hg_patches; ++p) {
    uint32_t patcher = b.Fork(hg);
    b.Exec(patcher, "/usr/bin/patch");
    uint32_t target = tracked[rng.Below(tracked.size())];
    b.ReadFile(patcher, target, kHgFileBytes);
    b.ReadFile(patcher, patches[p], kHgHunkBytes);
    b.Cpu(patcher, 3'000'000);
    uint32_t tmp = b.Path(script.paths[target] + ".tmp");
    b.WriteFile(patcher, tmp, kHgFileBytes, kCreate);
    b.Rename(patcher, tmp, target);
    b.Exit(patcher);
  }

  // Part 3: compile-like fork/exec fan-out reading headers, writing objects.
  uint32_t make = b.Spawn("make");
  for (const char* dir : {"/usr", "/usr/src", "/usr/src/linux",
                          "/usr/src/linux/include", "/usr/src/linux/obj"}) {
    b.Mkdir(make, dir);
  }
  std::vector<uint32_t> headers;
  for (int h = 0; h < kCcHeaders; ++h) {
    headers.push_back(
        b.Path(pass::StrFormat("/usr/src/linux/include/h%d.h", h)));
    b.WriteFile(make, headers.back(), 2048, kCreate);
  }
  std::vector<uint32_t> sources;
  for (int i = 0; i < size.cc_units; ++i) {
    sources.push_back(b.Path(pass::StrFormat("/usr/src/linux/f%04d.c", i)));
    b.WriteFile(make, sources.back(), kCcSourceBytes, kCreate);
  }
  for (int i = 0; i < size.cc_units; ++i) {
    uint32_t cc = b.Fork(make);
    b.Exec(cc, "/usr/bin/cc");
    b.ReadFile(cc, sources[i], kCcSourceBytes);
    for (int h = 0; h < 4; ++h) {
      b.ReadFile(cc, headers[rng.Below(headers.size())], 2048);
    }
    b.Cpu(cc, kCcCpuNs);
    b.WriteFile(cc, b.Path(pass::StrFormat("/usr/src/linux/obj/f%04d.o", i)),
                kCcObjectBytes, kCreate);
    b.Exit(cc);
  }
  return script;
}

// A write the oracle checks: the file version it produced must list the
// writing process among its INPUT ancestors.
struct SampledWrite {
  pass::core::ObjectRef file;
  pass::core::PnodeId process = 0;
};

struct ReplayResult {
  int64_t sim_ns = 0;
  uint64_t syscalls = 0;
  uint64_t failed = 0;
  std::vector<SampledWrite> samples;
};

// Replays `script` through `machine`'s kernel. Sampled writes record the
// (file, process) identities through the PassSystem, off the host timer.
ReplayResult Replay(const Script& script, Machine* machine, bool sample,
                    Tracer* tracer, int64_t* host_ns) {
  pass::os::Kernel& kernel = machine->kernel();
  pass::sim::Env& env = machine->env();
  std::vector<pass::os::Pid> pids(script.procs, 0);
  std::vector<pass::os::Fd> fds(script.procs, -1);
  std::string buf;
  ReplayResult out;
  int64_t start_sim = env.clock().now();
  uint64_t start_calls = kernel.syscall_count();
  int64_t host_start = HostNowNs();
  int64_t host_paused = 0;
  int64_t sim_paused = 0;
  for (const Op& op : script.ops) {
    Scope span(tracer, kOpSpan[static_cast<int>(op.kind)]);
    pass::os::Pid pid = pids[op.proc];
    const std::string& path = script.paths[op.path];
    bool ok = true;
    switch (op.kind) {
      case OpKind::kSpawn:
        pids[op.proc] = kernel.Spawn(path);
        break;
      case OpKind::kFork: {
        auto child = kernel.Fork(pids[op.path2]);
        ok = child.ok();
        if (ok) {
          pids[op.proc] = *child;
        }
        break;
      }
      case OpKind::kExec:
        ok = kernel.Exec(pid, path, {path}).ok();
        break;
      case OpKind::kExit:
        ok = kernel.Exit(pid, 0).ok();
        break;
      case OpKind::kMkdir:
        ok = kernel.Mkdir(pid, path).ok();
        break;
      case OpKind::kOpen: {
        auto fd = kernel.Open(pid, path, op.flags);
        ok = fd.ok();
        fds[op.proc] = ok ? *fd : -1;
        break;
      }
      case OpKind::kRead:
        buf.clear();
        ok = kernel.Read(pid, fds[op.proc], op.len, &buf).ok();
        break;
      case OpKind::kWrite:
        ok = kernel
                 .Write(pid, fds[op.proc],
                        std::string_view(script.pool).substr(op.offset, op.len))
                 .ok();
        break;
      case OpKind::kClose:
        ok = kernel.Close(pid, fds[op.proc]).ok();
        fds[op.proc] = -1;
        break;
      case OpKind::kUnlink:
        ok = kernel.Unlink(pid, path).ok();
        break;
      case OpKind::kRename:
        ok = kernel.Rename(pid, path, script.paths[op.path2]).ok();
        break;
      case OpKind::kCpu:
        env.ChargeCpu(static_cast<int64_t>(op.offset));
        break;
    }
    if (!ok) {
      ++out.failed;
    }
    if (sample && op.sample && ok) {
      int64_t pause = HostNowNs();
      int64_t sim_pause = env.clock().now();
      auto file = machine->pass()->RefOfPath(path);
      if (file.ok()) {
        out.samples.push_back(
            SampledWrite{*file, machine->pass()->RefOfPid(pid).pnode});
      } else {
        ++out.failed;
      }
      sim_paused += env.clock().now() - sim_pause;
      host_paused += HostNowNs() - pause;
    }
  }
  *host_ns = HostNowNs() - host_start - host_paused;
  out.sim_ns = env.clock().now() - start_sim - sim_paused;
  out.syscalls = kernel.syscall_count() - start_calls;
  return out;
}

// Counts sampled writes whose INPUT edge to the writer is missing.
uint64_t CheckSamples(const std::vector<SampledWrite>& samples,
                      const pass::waldo::ProvDb& db) {
  uint64_t missing = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const SampledWrite& w = samples[i];
    bool found = false;
    if (!(corruption().capture_drop_edge && i == 0)) {
      for (const pass::core::ObjectRef& in : db.Inputs(w.file)) {
        found = found || in.pnode == w.process;
      }
    }
    missing += found ? 0 : 1;
  }
  return missing;
}

// One NFS pairing: a server machine exporting its storage and a client
// machine mounting it at "/".
struct RemoteRig {
  explicit RemoteRig(bool with_pass, uint64_t seed) {
    MachineOptions server_options;
    server_options.seed = seed;
    server_options.with_pass = with_pass;
    server_options.shard = 1;
    server = std::make_unique<Machine>(server_options);
    network = std::make_unique<pass::sim::Network>(&server->env().clock());
    pass::os::FileSystem* exported =
        with_pass ? static_cast<pass::os::FileSystem*>(server->volume())
                  : static_cast<pass::os::FileSystem*>(&server->basefs());
    nfs_server = std::make_unique<pass::nfs::NfsServer>(&server->env(),
                                                        exported, "nfs");
    client_fs = std::make_unique<pass::nfs::NfsClientFs>(
        &server->env(), network.get(), nfs_server.get());
    MachineOptions client_options;
    client_options.seed = seed;
    client_options.with_pass = with_pass;
    client_options.shard = 2;
    client_options.shared_env = &server->env();
    client_options.root_fs = client_fs.get();
    client = std::make_unique<Machine>(client_options);
  }

  std::unique_ptr<Machine> server;
  std::unique_ptr<pass::sim::Network> network;
  std::unique_ptr<pass::nfs::NfsServer> nfs_server;
  std::unique_ptr<pass::nfs::NfsClientFs> client_fs;
  std::unique_ptr<Machine> client;
};

double Pct(double with, double base) { return (with - base) / base * 100.0; }

}  // namespace

PhaseResult RunCapturePhase(const CaptureSize& size, uint64_t seed,
                            Tracer* tracer, RssWindow* rss) {
  PhaseResult r;
  int64_t setup_start = HostNowNs();
  Script script = BuildScript(size, seed);
  MachineOptions local;
  local.seed = seed;
  Machine ext3(local);
  local.with_pass = true;
  Machine passv2(local);
  RemoteRig nfs(/*with_pass=*/false, seed);
  RemoteRig panfs(/*with_pass=*/true, seed);
  std::vector<std::unique_ptr<TracingInterceptor>> decorators;
  if (tracer != nullptr) {
    for (Machine* m : {&passv2, panfs.client.get()}) {
      decorators.push_back(
          std::make_unique<TracingInterceptor>(m->pass(), tracer));
      m->kernel().set_interceptor(decorators.back().get());
    }
  }
  r.setup_host_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;
  if (rss != nullptr) {
    rss->Resume();
  }

  int64_t host_ns = 0;
  int64_t timed_ns = 0;
  auto run = [&](const char* label, Machine* machine, bool sample) {
    if (tracer != nullptr) {
      tracer->set_clock(&machine->env().clock());
    }
    Scope phase(tracer, label);
    ReplayResult out = Replay(script, machine, sample, tracer, &host_ns);
    timed_ns += host_ns;
    r.failed += out.failed;
    r.attempted += script.ops.size();
    return out;
  };

  ReplayResult base = run("bench.capture.ext3", &ext3, false);
  ReplayResult pass_run = run("bench.capture.passv2", &passv2, true);
  int64_t pass_host_ns = host_ns;
  int64_t drain_start = HostNowNs();
  {
    Scope span(tracer, "waldo.drain");
    if (!passv2.waldo()->Drain().ok()) {
      ++r.failed;
    }
  }
  int64_t drain_ns = HostNowNs() - drain_start;
  timed_ns += drain_ns;
  ReplayResult nfs_run = run("bench.capture.nfs", nfs.client.get(), false);
  ReplayResult panfs_run =
      run("bench.capture.panfs", panfs.client.get(), false);
  {
    Scope span(tracer, "waldo.drain");
    if (!panfs.server->waldo()->Drain().ok()) {
      ++r.failed;
    }
  }
  r.timed_host_s = static_cast<double>(timed_ns) / 1e9;
  if (rss != nullptr) {
    rss->Pause();
  }
  if (tracer != nullptr) {
    tracer->set_clock(nullptr);
  }

  // Oracle, outside the timed window.
  r.failed += CheckSamples(pass_run.samples, *passv2.db());
  r.attempted += pass_run.samples.size();

  pass::waldo::ProvDbStats db = passv2.db()->stats();
  uint64_t live_bytes = passv2.rootfs()->stats().bytes_data;
  r.sim["capture_overhead_pct"] = Pct(static_cast<double>(pass_run.sim_ns),
                                      static_cast<double>(base.sim_ns));
  r.sim["nfs_capture_overhead_pct"] =
      Pct(static_cast<double>(panfs_run.sim_ns),
          static_cast<double>(nfs_run.sim_ns));
  r.sim["space_overhead_pct"] =
      static_cast<double>(db.db_bytes + db.index_bytes) /
      static_cast<double>(live_bytes) * 100.0;
  r.host["capture_syscalls"] = static_cast<double>(pass_run.syscalls);
  r.host["capture_host_ns"] = static_cast<double>(pass_host_ns + drain_ns);

  auto& c = r.counts;
  c["os.syscalls"] = static_cast<double>(pass_run.syscalls);
  const auto& an = passv2.pass()->analyzer_stats();
  c["core.analyzer_records_in"] = static_cast<double>(an.records_in);
  c["core.analyzer_duplicates_dropped"] =
      static_cast<double>(an.duplicates_dropped);
  c["core.analyzer_freezes"] = static_cast<double>(an.freezes);
  const auto& di = passv2.pass()->distributor_stats();
  c["core.distributor_records_cached"] = static_cast<double>(di.records_cached);
  c["core.distributor_records_flushed"] =
      static_cast<double>(di.records_flushed);
  const auto& la = passv2.volume()->lasagna_stats();
  c["lasagna.txns"] = static_cast<double>(la.txns);
  c["lasagna.records_logged"] = static_cast<double>(la.records_logged);
  c["lasagna.prov_bytes_logged"] = static_cast<double>(la.prov_bytes_logged);
  c["lasagna.data_bytes_written"] = static_cast<double>(la.data_bytes_written);
  c["lasagna.prov_bytes_per_data_byte"] =
      la.data_bytes_written == 0
          ? 0.0
          : static_cast<double>(la.prov_bytes_logged) /
                static_cast<double>(la.data_bytes_written);
  c["lasagna.rotations"] = static_cast<double>(la.rotations);
  const auto& disk = passv2.disk().stats();
  c["disk.writes"] = static_cast<double>(disk.writes);
  c["disk.seeks"] = static_cast<double>(disk.seeks);
  c["disk.bytes_written"] = static_cast<double>(disk.bytes_written);
  c["disk.busy_sim_ms"] = static_cast<double>(disk.busy_ns) / 1e6;
  c["waldo.entries_ingested"] =
      static_cast<double>(passv2.waldo()->stats().entries_ingested);
  c["provdb.db_bytes"] = static_cast<double>(db.db_bytes);
  c["provdb.index_bytes"] = static_cast<double>(db.index_bytes);
  pass::waldo::KvStats rec = passv2.db()->record_store().stats();
  pass::waldo::KvStats idx = passv2.db()->index_store().stats();
  c["kvstore.compactions"] =
      static_cast<double>(rec.compactions + idx.compactions);
  c["kvstore.live_fraction"] =
      static_cast<double>(rec.live_bytes + idx.live_bytes) /
      static_cast<double>(rec.bytes + idx.bytes);
  const auto& nfs_stats = panfs.client_fs->client_stats();
  c["nfs.rpcs"] = static_cast<double>(nfs_stats.rpcs);
  c["nfs.chunked_txns"] = static_cast<double>(nfs_stats.chunked_txns);
  c["nfs.prov_chunks"] = static_cast<double>(nfs_stats.prov_chunks);
  c["net.round_trips"] =
      static_cast<double>(panfs.network->stats().round_trips);

  r.info.push_back(pass::StrFormat(
      "capture: %zu script ops, %llu syscalls, %.1f MiB data written, "
      "%zu oracle samples; live data %.1f MiB",
      script.ops.size(), static_cast<unsigned long long>(script.syscalls),
      static_cast<double>(script.data_bytes) / (1 << 20),
      pass_run.samples.size(), static_cast<double>(live_bytes) / (1 << 20)));
  r.info.push_back(pass::StrFormat(
      "capture: sim elapsed ext3 %.3f s, PASSv2 %.3f s, NFS %.3f s, "
      "PA-NFS %.3f s",
      static_cast<double>(base.sim_ns) / 1e9,
      static_cast<double>(pass_run.sim_ns) / 1e9,
      static_cast<double>(nfs_run.sim_ns) / 1e9,
      static_cast<double>(panfs_run.sim_ns) / 1e9));
  return r;
}

}  // namespace perfbench
