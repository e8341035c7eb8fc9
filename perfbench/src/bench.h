#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

// Shared pieces of the PASS benchmark: the host clock, the span recorder
// and its decorators over the stack's public seams, the percentile rule,
// and the per-phase result record every phase fills.
//
// Two clocks: "sim" numbers come from the simulation's sim::Clock and are
// deterministic for a seed; "host" numbers come from the calling thread's
// CPU clock (the program is single-threaded and does no real I/O, so CPU
// time equals wall time within about 1% and ignores time the thread spends
// descheduled on a shared machine).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/os/kernel.h"
#include "src/pql/graph.h"
#include "src/sim/clock.h"

namespace perfbench {

// Nanoseconds of CPU time consumed by the calling thread.
int64_t HostNowNs();

// Deterministic generator for benchmark inputs (splitmix64), independent of
// anything inside the simulation.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// ---- Spans ------------------------------------------------------------------

struct Span {
  const char* name = "";  // static string
  uint32_t parent = 0;    // index + 1 of the parent span; 0 for a root
  uint32_t request = 0;   // index + 1 of the request this span serves
  int64_t host_start = 0, host_end = 0;
  int64_t sim_start = 0, sim_end = 0;
};

// In-memory span recorder. A span's request is the child of the phase root
// it descends from (one replayed syscall, one ingest round, one query), or
// the span itself at top level.
class Tracer {
 public:
  void set_clock(const pass::sim::Clock* clock) { clock_ = clock; }
  uint32_t Open(const char* name);
  void Close(uint32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  const pass::sim::Clock* clock_ = nullptr;
  std::vector<Span> spans_;
  std::vector<uint32_t> stack_;
};

// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer == nullptr ? 0 : tracer->Open(name)) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->Close(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

// Self time of each span: its duration minus the union of the intervals its
// children cover (clipped to the span). Indexed like `spans`.
struct SelfTimes {
  std::vector<int64_t> host;
  std::vector<int64_t> sim;
};
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans);

// Chrome trace-event JSON (balanced B/E events, one track, host CPU
// microseconds as timestamps; sim times and request ids in args) of the
// leading whole root trees that total at most `max_spans` spans.
std::string ChromeTraceJson(const std::vector<Span>& spans,
                            size_t max_spans);

// Forwards every interceptor call to `inner` inside a "core.intercept" span.
class TracingInterceptor : public pass::os::SyscallInterceptor {
 public:
  TracingInterceptor(pass::os::SyscallInterceptor* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  pass::Result<size_t> InterceptRead(pass::os::Process& proc,
                                     pass::os::OpenFile& file,
                                     uint64_t offset, size_t len,
                                     std::string* out) override;
  pass::Result<size_t> InterceptWrite(pass::os::Process& proc,
                                      pass::os::OpenFile& file,
                                      uint64_t offset,
                                      std::string_view data) override;
  void OnProcessStart(pass::os::Process& proc,
                      const pass::os::Process* parent) override;
  void OnExec(pass::os::Process& proc, const std::string& path,
              const pass::os::VnodeRef& binary) override;
  void OnExit(pass::os::Process& proc) override;
  void OnOpen(pass::os::Process& proc, pass::os::OpenFile& file) override;
  void OnClose(pass::os::Process& proc, pass::os::OpenFile& file) override;
  void OnMmap(pass::os::Process& proc, pass::os::OpenFile& file,
              bool writable) override;
  void OnPipe(pass::os::Process& proc, pass::os::OpenFile& read_end,
              pass::os::OpenFile& write_end) override;
  void OnRename(const std::string& from, const std::string& to) override;
  void OnDropInode(pass::os::FileSystem* fs, const std::string& path,
                   const pass::os::VnodeRef& vnode) override;

 private:
  pass::os::SyscallInterceptor* inner_;
  Tracer* tracer_;
};

// GraphSource decorator: every call into the wrapped source (a session's
// FederatedSource) runs inside a "federated.<op>" span, and the rows it
// returns are counted (rows the evaluator examined).
class TracingSource : public pass::pql::GraphSource {
 public:
  TracingSource(const pass::pql::GraphSource* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<pass::pql::Node> RootSet(const std::string& name) const override;
  std::vector<std::vector<pass::pql::Node>> FollowMany(
      const std::vector<pass::pql::Node>& nodes, const std::string& link,
      bool inverse) const override;
  std::vector<pass::pql::ValueSet> AttributeMany(
      const std::vector<pass::pql::Node>& nodes,
      const std::string& attr) const override;
  bool IsLink(const std::string& name) const override;
  std::string NodeLabel(const pass::pql::Node& node) const override;

  uint64_t rows() const { return rows_; }

 private:
  const pass::pql::GraphSource* inner_;
  Tracer* tracer_;
  mutable uint64_t rows_ = 0;
};

// ---- Percentiles ------------------------------------------------------------

// The tail percentile reported for `n` samples: the highest whole percentile
// in [50, 99] that leaves at least 10 samples above it (nearest rank), or 50
// when fewer than 20 samples exist.
int TailPercentile(size_t n);
// Nearest-rank percentile `p` (0..100) of `values` (copied, then sorted).
double Percentile(std::vector<double> values, double p);
// The median of a few per-repetition figures: the middle value, or the mean
// of the two middle ones for an even count.
double Median(std::vector<double> values);

// A latency distribution summarized by the percentile rule.
struct Tail {
  double p50 = 0;
  double tail = 0;
  int tail_pct = 50;
  size_t n = 0;
};
Tail Summarize(const std::vector<double>& values);

// ---- Memory -----------------------------------------------------------------

// Peak resident set over chosen stretches of the run (Linux). Resume()
// returns freed heap to the kernel and restarts its high-water mark
// (writing "5" to /proc/self/clear_refs); Pause() folds the mark reached
// since then (VmHWM) into the peak. Pausing around oracles and other
// phases keeps their memory out of the figure.
class RssWindow {
 public:
  void Resume();
  void Pause();
  double peak_mb() const { return static_cast<double>(peak_kb_) / 1024.0; }
  // False when the kernel refused a reset or a read; the peak is then not
  // the window's own.
  bool ok() const { return ok_; }

 private:
  int64_t peak_kb_ = 0;
  bool ok_ = true;
};

// ---- Phase results ----------------------------------------------------------

// What one phase (capture, stream or query) of one repetition produced.
// `sim` and `counts` must be identical across repetitions of one seed, and
// between traced and untraced repetitions; `host` values vary.
struct PhaseResult {
  double setup_host_s = 0;
  double timed_host_s = 0;  // host CPU seconds of the timed window
  std::map<std::string, double> sim;     // sim-clock metrics
  std::map<std::string, double> counts;  // per-layer counters
  std::map<std::string, double> host;    // host-clock figures and tallies
  std::map<std::string, std::vector<double>> samples;  // sim latencies
  std::map<std::string, std::vector<double>> host_samples;
  std::vector<std::string> info;  // sizes and policies, printed once
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed operations plus oracle mismatches
};

// Phase sizes: each workload runs all three phases, its own at full size.
// Only what the smaller mixes vary is here; fixed shapes are constants in
// each phase's file.
struct CaptureSize {
  int postmark_files = 150;
  int postmark_txns = 600;
  int hg_tracked = 120;
  int hg_patches = 120;
  int cc_units = 400;
};

struct StreamSize {
  int rounds = 40;
  int workers_per_shard = 3;  // per round; at least 2 (taint + link roles)
  int migrate_every = 6;  // rounds between background MigrateRange calls
};

struct QuerySize {
  int dag_nodes = 264;    // family members, plus one anchor per family
  int queries = 640;
  size_t session_cache_bytes = 44 << 10;
  int oracle_every = 40;  // stride of sampled oracle checks (besides the
                          // first query of each session and shape)
};

// Each phase binds `tracer` (when given) to its own simulation's clock and
// unbinds it before returning. `rss` (when given) is resumed and paused
// around the phase's timed window, oracles excluded.
PhaseResult RunCapturePhase(const CaptureSize& size, uint64_t seed,
                            Tracer* tracer, RssWindow* rss);
PhaseResult RunStreamPhase(const StreamSize& size, uint64_t seed,
                           Tracer* tracer, RssWindow* rss);
// `describe` adds the query working-set sizes to `info` (it replays every
// distinct query on a scratch source, so only one repetition asks).
PhaseResult RunQueryPhase(const QuerySize& size, uint64_t seed,
                          Tracer* tracer, RssWindow* rss, bool describe);

// Deliberate-corruption hooks for the self-test: each oracle must count a
// mismatch when handed a damaged result.
struct Corruption {
  bool capture_drop_edge = false;
  bool stream_drop_row = false;
  // Drops a row from the answers of one query session and shape (the
  // shape's index in the rotation); -1 leaves the query oracle's input
  // intact.
  int query_drop_session = -1;
  int query_drop_shape = -1;
};
void SetCorruption(const Corruption& corruption);
const Corruption& corruption();

// Distinct rendered rows of a query result ("v1|v2|").
std::vector<std::string> RowKeys(
    const std::vector<std::vector<pass::pql::Value>>& rows);

// Self-test entry point; returns the process exit code.
int RunSelfTest(const std::string& trace_path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
