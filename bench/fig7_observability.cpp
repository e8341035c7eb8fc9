// Figure 7 (this repo's extension): the sim-time observability layer.
//
// Sweeps shard count x workload over a fixed scenario — per-shard workload
// ingest, a cross-shard lineage chain, Sync, a range migration, and a
// federated ancestry closure — once with tracing off and once with tracing
// on, and reports per-op-type latency percentiles (p50/p90/p99 in simulated
// nanoseconds) from the metric registry plus the span counts of the traced
// run.
//
// Three regression gates, all PASS_CHECKed (CI runs this binary):
//   1. Zero sim-time cost: the traced and untraced runs of the same
//      scenario finish at the *identical* simulated nanosecond. Tracing
//      observes the clock, it never charges it.
//   2. Connected span trees: the Sync, the migration, and the federated
//      query each render as a single tree — one root, every other span
//      parented inside the window (remote applies link via the propagated
//      TraceContext), with children on the expected shards.
//   3. Bounded host cost: over the whole sweep (best of N repeats),
//      tracing costs < 10% host CPU time plus a small absolute slack that
//      absorbs CI timer noise.
//
// The featured configuration's trace is written as Chrome trace-event JSON
// (chrome://tracing, Perfetto) to argv[1] (default "fig7_trace.json");
// tools/check_trace.py validates it in CI.
//
// Usage: fig7_observability [trace.json] [repeats]

#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/obs/obs.h"
#include "src/obs/stats_bridge.h"
#include "src/pql/eval.h"
#include "src/util/logging.h"
#include "src/workloads/lineage_chain.h"

namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::ClusterOptions;
using pass::cluster::FederatedSource;
using pass::obs::SpanRecord;
using pass::obs::TraceCollector;
using pass::workloads::WriteLineageChain;

// Host-cost gate: traced <= untraced * (1 + 10%) + slack, best-of-repeats.
constexpr double kCpuOverheadGate = 0.10;
constexpr double kCpuSlackSeconds = 0.05;

// CPU time of the calling thread. Unlike wall time it does not grow while
// other processes hold the core, so both arms of the gate measure only the
// work this binary did.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Spans recorded in [begin, end) of the collector's log must form a single
// tree: one root (named `root_name`), every other parent inside the window,
// one shared trace id, and children on >= `want_shards` distinct shards.
void CheckSingleTree(const TraceCollector& trace, size_t begin,
                     const char* root_name, int want_shards) {
  const std::vector<SpanRecord>& spans = trace.spans();
  PASS_CHECK(spans.size() > begin);
  std::set<uint64_t> ids;
  std::set<int> shards_seen;
  int roots = 0;
  uint64_t trace_id = spans[begin].trace_id;
  for (size_t i = begin; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    PASS_CHECK(!s.open);
    PASS_CHECK(s.trace_id == trace_id);
    ids.insert(s.id);
    if (s.parent_id == 0) {
      ++roots;
      PASS_CHECK(s.name == root_name);
    } else {
      PASS_CHECK(ids.count(s.parent_id) == 1);
    }
    if (s.shard >= 0) {
      shards_seen.insert(s.shard);
    }
  }
  PASS_CHECK(roots == 1);
  PASS_CHECK(static_cast<int>(shards_seen.size()) >= want_shards);
}

struct ScenarioResult {
  pass::sim::Nanos sim_ns = 0;    // simulated end time of the whole scenario
  double cpu_seconds = 0;         // host thread CPU time the run cost
  size_t spans = 0;               // spans recorded (0 when tracing is off)
  std::string metrics_csv;        // registry dump (traced runs only)
  std::string trace_json;         // Chrome trace (traced runs only)
};

// One full scenario: ingest a named workload on every shard, lay a lineage
// chain round-robin across the shards, Sync, migrate the chain's head range
// to the next shard, then run the ancestry closure of the chain tail
// through a federated portal. Identical inputs regardless of `tracing` —
// the sim clocks of the off/on runs must agree to the nanosecond.
ScenarioResult RunScenario(int shards, const std::string& workload,
                           bool tracing, bool want_exports) {
  ClusterOptions options;
  options.shards = shards;
  ClusterCoordinator cluster(options);
  TraceCollector& trace = cluster.env().obs().trace();
  trace.set_enabled(tracing);

  double cpu_begin = ThreadCpuSeconds();

  for (int shard = 0; shard < shards; ++shard) {
    cluster.RunWorkload(shard, workload);
  }

  const int chain = 8 * shards;
  auto refs = WriteLineageChain(&cluster, chain, shards, std::string(256, 'd'),
                                "/f7_");
  PASS_CHECK(refs.ok());

  size_t sync_begin = trace.spans().size();
  PASS_CHECK(cluster.Sync().ok());
  if (tracing) {
    // Gate 2a: the Sync — per-shard log recovery, replication batches, and
    // the remote applies across the simulated RPCs — is one tree.
    CheckSingleTree(trace, sync_begin, "cluster.sync", shards);
  }

  size_t migrate_begin = trace.spans().size();
  pass::core::PnodeId head = refs->front().pnode;
  int owner = cluster.OwnerOf(head);
  pass::core::PnodeRange range{head, head + 1};
  PASS_CHECK(cluster.MigrateRange(range, (owner + 1) % shards).ok());
  if (tracing) {
    // Gate 2b: the three-phase migration protocol is one tree.
    CheckSingleTree(trace, migrate_begin, "cluster.migrate", 1);
  }

  FederatedSource source = cluster.Source(/*portal_shard=*/0);
  std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"/f7_" +
      std::to_string(chain - 1) + "\"";
  size_t query_begin = trace.spans().size();
  {
    pass::obs::ScopedSpan query_span(tracing ? &trace : nullptr, "pql.query");
    pass::pql::Engine engine(&source);
    auto result = engine.Run(query);
    PASS_CHECK(result.ok());
    PASS_CHECK(result->rows.size() >= static_cast<size_t>(chain));
  }
  if (tracing) {
    // Gate 2c: the multi-hop federated closure — every hop, every per-shard
    // RPC, every remote serve — hangs off the one pql.query root.
    CheckSingleTree(trace, query_begin, "pql.query", shards - 1);
  }

  ScenarioResult out;
  out.cpu_seconds = ThreadCpuSeconds() - cpu_begin;
  out.sim_ns = cluster.env().clock().now();
  out.spans = trace.spans().size();
  if (tracing && want_exports) {
    // Fold the legacy stats structs into the registry so the CSV shows
    // every layer's counters next to the span histograms.
    pass::obs::MetricRegistry& reg = cluster.env().obs().metrics();
    pass::obs::Publish(&reg, cluster.ingest_stats());
    pass::obs::Publish(&reg, cluster.migration_stats());
    pass::obs::Publish(&reg, cluster.network().stats());
    pass::obs::Publish(&reg, source.stats());
    out.metrics_csv = reg.DumpCsv();
    out.trace_json = trace.ChromeTraceJson();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "fig7_trace.json";
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  PASS_CHECK(repeats >= 1);

  std::printf("Figure 7: sim-time observability — span trees and latency "
              "percentiles\n");
  std::printf("(identical scenario traced and untraced; sim clocks must "
              "agree exactly)\n\n");
  std::printf("%6s %10s | %14s %8s | %10s %10s %10s\n", "shards", "workload",
              "sim-elapsed-ms", "spans", "sync-p50us", "flush-p50us",
              "hop-p50us");

  const int kShardCounts[] = {2, 4};
  const std::string kWorkloads[] = {"compile", "postmark"};

  // csv,fig7,<shards>,<workload>,<kind>,<name>,<labels>,<count>,
  //   <sum|value>,<min>,<max>,<p50>,<p90>,<p99>   (nanos; gauges/counters
  //   put their value in the sum column, histogram-only columns empty)
  std::string csv;
  std::string featured_trace;
  double cpu_off = 0;
  double cpu_on = 0;

  for (int rep = 0; rep < repeats; ++rep) {
    double rep_off = 0;
    double rep_on = 0;
    for (int shards : kShardCounts) {
      for (const std::string& workload : kWorkloads) {
        bool featured = rep == 0 && shards == kShardCounts[1] &&
                        workload == kWorkloads[0];
        ScenarioResult off =
            RunScenario(shards, workload, /*tracing=*/false, false);
        ScenarioResult on =
            RunScenario(shards, workload, /*tracing=*/true, rep == 0);
        rep_off += off.cpu_seconds;
        rep_on += on.cpu_seconds;

        // Gate 1: tracing is free in simulated time — exactly 0 ns of skew.
        PASS_CHECK(off.sim_ns == on.sim_ns);
        PASS_CHECK(off.spans == 0);
        PASS_CHECK(on.spans > 0);

        if (rep == 0) {
          for (size_t pos = 0; pos < on.metrics_csv.size();) {
            size_t eol = on.metrics_csv.find('\n', pos);
            std::string line = on.metrics_csv.substr(pos, eol - pos);
            // "csv,metric," -> "csv,fig7,<shards>,<workload>,"
            csv += "csv,fig7," + std::to_string(shards) + "," + workload +
                   "," + line.substr(11) + "\n";
            pos = eol + 1;
          }
          if (featured) {
            featured_trace = on.trace_json;
          }
          // Headline percentiles for the human-readable table (re-derive
          // from a scratch scenario is wasteful; parse our own CSV instead).
          auto p50_of = [&](const std::string& name) {
            std::string needle = ",histogram," + name + ",";
            size_t at = on.metrics_csv.find(needle);
            if (at == std::string::npos) {
              return 0.0;
            }
            // columns after labels: count,sum,min,max,p50,...
            size_t field = on.metrics_csv.find(',', at + needle.size());
            for (int skip = 0; skip < 4; ++skip) {
              field = on.metrics_csv.find(',', field + 1);
            }
            return std::atof(on.metrics_csv.c_str() + field + 1);
          };
          std::printf("%6d %10s | %14.2f %8zu | %10.1f %10.1f %10.1f\n",
                      shards, workload.c_str(), on.sim_ns / 1e6, on.spans,
                      p50_of("cluster.sync_ns") / 1e3,
                      p50_of("ingest.flush_ns") / 1e3,
                      p50_of("query.hop_ns") / 1e3);
        }
      }
    }
    // Best-of-repeats: the gate compares the cleanest observation of each
    // mode, not the noisiest.
    if (rep == 0 || rep_off < cpu_off) {
      cpu_off = rep_off;
    }
    if (rep == 0 || rep_on < cpu_on) {
      cpu_on = rep_on;
    }
  }

  FILE* trace_file = std::fopen(trace_path.c_str(), "w");
  PASS_CHECK(trace_file != nullptr);
  std::fputs(featured_trace.c_str(), trace_file);
  std::fclose(trace_file);

  // stderr: host timings are the one nondeterministic measurement, and
  // stdout must stay byte-identical across runs (the repo-wide probe).
  std::fprintf(stderr,
               "thread CPU: untraced %.3fs, traced %.3fs (best of %d)\n",
               cpu_off, cpu_on, repeats);
  std::printf("\n");
  std::fputs(csv.c_str(), stdout);
  std::printf("\nTracing observed every Sync, migration, and federated query "
              "as one\nconnected span tree and moved the simulated clock by "
              "exactly 0 ns;\nthe Chrome trace is at %s.\n",
              trace_path.c_str());

  // Gate 3: bounded host cost.
  PASS_CHECK(cpu_on <= cpu_off * (1.0 + kCpuOverheadGate) + kCpuSlackSeconds);
  return 0;
}
