// The benchmark's own self-test: the percentile rule, self-time arithmetic,
// seed determinism, traced == untraced on the sim clock, and that every
// oracle counts a deliberately corrupted result. Writes a small Chrome
// trace to the given path for tools/check_trace.py.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("selftest: %s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) {
    ++g_failures;
  }
}

CaptureSize TinyCapture() {
  CaptureSize c;
  c.postmark_files = 12;
  c.postmark_txns = 40;
  c.hg_tracked = 8;
  c.hg_patches = 8;
  c.cc_units = 20;
  return c;
}

StreamSize TinyStream() {
  StreamSize s;
  s.rounds = 6;
  s.workers_per_shard = 2;
  s.migrate_every = 3;
  return s;
}

QuerySize TinyQuery() {
  QuerySize q;
  q.dag_nodes = 96;
  q.queries = 48;
  q.oracle_every = 4;
  q.session_cache_bytes = 16 << 10;
  return q;
}

bool SameSim(const PhaseResult& a, const PhaseResult& b) {
  return a.sim == b.sim && a.counts == b.counts && a.samples == b.samples;
}

Span MakeSpan(uint32_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = "t";
  s.parent = parent;
  s.host_start = s.sim_start = start;
  s.host_end = s.sim_end = end;
  return s;
}

}  // namespace

int RunSelfTest(const std::string& trace_path) {
  // Percentile rule: the median plus the highest percentile with at least
  // ten samples beyond it.
  Expect(TailPercentile(1000) == 99, "1000 samples report p99");
  Expect(TailPercentile(100) == 90, "100 samples report p90");
  Expect(TailPercentile(40) == 75, "40 samples report p75");
  Expect(TailPercentile(12) == 50, "12 samples fall back to p50");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  Tail t = Summarize(hundred);
  Expect(t.p50 == 50 && t.tail == 90 && t.n == 100,
         "1..100 summarizes to p50 50, p90 90");
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5,
         "per-repetition median: middle value, mean of two for even counts");

  // Self time on nested and overlapping spans: the parent [0,100) has
  // children [10,30), [20,50) (overlapping) and [90,120) (running past the
  // parent's end), and [10,30) has a grandchild [12,18).
  std::vector<Span> spans = {MakeSpan(0, 0, 100), MakeSpan(1, 10, 30),
                             MakeSpan(1, 20, 50), MakeSpan(1, 90, 120),
                             MakeSpan(2, 12, 18)};
  SelfTimes self = ComputeSelfTimes(spans);
  Expect(self.host[0] == 50 && self.sim[0] == 50,
         "parent self = 100 - |[10,50) u [90,100)| = 50");
  Expect(self.host[1] == 14, "child self = 20 - nested 6 = 14");
  Expect(self.host[4] == 6 && self.host[3] == 30, "leaf self = duration");

  // Seed determinism, and traced repetitions agree on the sim clock.
  CaptureSize capture = TinyCapture();
  StreamSize stream = TinyStream();
  QuerySize query = TinyQuery();
  auto rep = [&](uint64_t seed, Tracer* tracer) {
    std::vector<PhaseResult> out = {
        RunCapturePhase(capture, seed, tracer, nullptr),
        RunStreamPhase(stream, seed, tracer, nullptr),
        RunQueryPhase(query, seed, tracer, nullptr, false)};
    return out;
  };
  std::vector<PhaseResult> a = rep(7, nullptr);
  std::vector<PhaseResult> b = rep(7, nullptr);
  std::vector<PhaseResult> c = rep(8, nullptr);
  Tracer tracer;
  std::vector<PhaseResult> traced = rep(7, &tracer);
  const char* names[] = {"capture", "stream", "query"};
  for (int p = 0; p < 3; ++p) {
    std::string phase = names[p];
    Expect(a[p].failed == 0 && b[p].failed == 0 && c[p].failed == 0 &&
               traced[p].failed == 0,
           (phase + ": clean run has no failures").c_str());
    Expect(SameSim(a[p], b[p]),
           (phase + ": same seed, identical sim metrics and counts").c_str());
    Expect(!SameSim(a[p], c[p]),
           (phase + ": different seed changes them").c_str());
    Expect(SameSim(a[p], traced[p]),
           (phase + ": traced run equals untraced on the sim clock").c_str());
  }
  Expect(!tracer.spans().empty(), "traced run recorded spans");
  RssWindow rss;
  RunStreamPhase(stream, 7, nullptr, &rss);
  Expect(rss.ok() && rss.peak_mb() > 0,
         "resident-set window reads a peak (clear_refs + VmHWM)");
  if (!trace_path.empty()) {
    std::ofstream(trace_path)
        << ChromeTraceJson(tracer.spans(), tracer.spans().size());
  }

  // Each oracle counts a corrupted result.
  Corruption corrupt;
  corrupt.capture_drop_edge = true;
  SetCorruption(corrupt);
  Expect(RunCapturePhase(capture, 7, nullptr, nullptr).failed > 0,
         "capture oracle catches a dropped INPUT edge");
  corrupt = Corruption();
  corrupt.stream_drop_row = true;
  SetCorruption(corrupt);
  Expect(RunStreamPhase(stream, 7, nullptr, nullptr).failed > 0,
         "stream oracle catches a dropped standing row");
  // The query oracle samples every (session, shape) pair, even with no
  // stride sampling: a row dropped from any one pair's answers is caught.
  QuerySize unstrided = query;
  unstrided.oracle_every = 0;
  int pairs_caught = 0;
  for (int session = 0; session < 4; ++session) {
    for (int shape = 0; shape < 5; ++shape) {
      corrupt = Corruption();
      corrupt.query_drop_session = session;
      corrupt.query_drop_shape = shape;
      SetCorruption(corrupt);
      pairs_caught +=
          RunQueryPhase(unstrided, 7, nullptr, nullptr, false).failed > 0;
    }
  }
  SetCorruption(Corruption());
  Expect(pairs_caught == 20,
         "query oracle catches a dropped row in each of the 20 session and "
         "shape pairs");

  std::printf("selftest: %d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
