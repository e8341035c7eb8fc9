// perfbench: the PASS stack's benchmark program.
//
//   perfbench --workload <capture|audit_stream|portal_query> --seed N
//             --seconds S --trace <0|1> [--trace-out FILE]
//   perfbench --selftest --trace-out FILE
//
// One repetition runs the three phases in order -- capture (Table 2/3 path),
// stream (cluster ingest + standing queries), query (portal serving) -- with
// the workload's own phase at full size and the other two small. Every
// repetition regenerates its inputs from the seed in set-up, so sim-clock
// metrics and counts repeat exactly; the run repeats until --seconds of wall
// time have passed. With --trace 1, untraced and traced repetitions
// alternate: the traced ones give per-layer self times, the difference in
// host time is the tracing overhead, and sim-clock numbers must agree.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

// Spans written to the Chrome trace file (whole request trees, in order);
// the per-layer numbers use every span.
constexpr size_t kTraceFileSpans = 50000;

// The per-layer metrics a traced run prints, grouped by the repository's
// modules (the same list as BENCHMARK.json's per_layer).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    // os
    {"os.syscalls", "count"},
    {"os.host_self_ms", "ms"},
    // core: observer, analyzer, distributor
    {"core.intercept_host_ms", "ms"},
    {"core.intercept_sim_ms", "ms"},
    {"core.analyzer_records_in", "count"},
    {"core.analyzer_duplicates_dropped", "count"},
    {"core.analyzer_freezes", "count"},
    {"core.distributor_records_cached", "count"},
    {"core.distributor_records_flushed", "count"},
    // lasagna
    {"lasagna.txns", "count"},
    {"lasagna.records_logged", "count"},
    {"lasagna.prov_bytes_logged", "bytes"},
    {"lasagna.data_bytes_written", "bytes"},
    {"lasagna.prov_bytes_per_data_byte", "ratio"},
    {"lasagna.rotations", "count"},
    // sim: disk
    {"disk.writes", "count"},
    {"disk.seeks", "count"},
    {"disk.bytes_written", "bytes"},
    {"disk.busy_sim_ms", "ms"},
    // waldo
    {"waldo.drain_host_ms", "ms"},
    {"waldo.entries_ingested", "count"},
    {"provdb.db_bytes", "bytes"},
    {"provdb.index_bytes", "bytes"},
    {"kvstore.compactions", "count"},
    {"kvstore.live_fraction", "ratio"},
    // nfs
    {"nfs.rpcs", "count"},
    {"nfs.chunked_txns", "count"},
    {"nfs.prov_chunks", "count"},
    {"net.round_trips", "count"},
    // cluster: ingest and journal
    {"ingest.entries_examined", "count"},
    {"ingest.entries_replicated", "count"},
    {"ingest.batches_sent", "count"},
    {"ingest.group_commits", "count"},
    {"ingest.group_frames", "count"},
    {"ingest.wire_bytes", "bytes"},
    {"sync.host_ms", "ms"},
    {"quiesce.sim_ms", "ms"},
    {"async.busy_sim_ms", "ms"},
    {"async.exposed_sim_ms", "ms"},
    {"async.overlap", "ratio"},
    // cluster: migration
    {"migration.batches", "count"},
    {"migration.bytes", "bytes"},
    {"migration.rows_deleted", "count"},
    {"migrate.sim_ms", "ms"},
    {"migrate.host_ms", "ms"},
    // cluster: standing tier
    {"standing.refresh_host_ms", "ms"},
    {"standing.refresh_sim_ms", "ms"},
    {"standing.frontier_entries", "count"},
    {"standing.frontier_rpcs", "count"},
    {"standing.affected_roots", "count"},
    {"standing.incremental_evals", "count"},
    {"standing.full_evals", "count"},
    {"standing.rows_touched", "count"},
    {"standing.eval_rpcs", "count"},
    {"standing.notifications", "count"},
    // cluster: federated source and portal
    {"federated.remote_ops", "count"},
    {"federated.local_ops", "count"},
    {"federated.cache_hits", "count"},
    {"federated.cache_misses", "count"},
    {"federated.hit_rate", "ratio"},
    {"federated.cache_evictions", "count"},
    {"federated.cache_entries_invalidated", "count"},
    {"federated.req_bytes", "bytes"},
    {"federated.resp_bytes", "bytes"},
    {"federated.host_ms", "ms"},
    {"federated.sim_ms", "ms"},
    {"portal.admitted", "count"},
    {"portal.rejected", "count"},
    // pql
    {"pql.eval_host_self_ms", "ms"},
    {"pql.rows_returned", "count"},
    {"pql.rows_examined_per_row", "ratio"},
    {"query.host_p99_us", "us"},
    // host-clock throughput and latency of the end-to-end paths (per-layer
    // because they spread by more than a tenth across runs on a shared
    // machine)
    {"capture_host_syscalls_per_s", "1/s"},
    {"ingest_host_records_per_s", "1/s"},
    {"query_host_p50_us", "us"},
    // the benchmark itself
    {"trace.overhead_pct", "%"},
};

enum class Phase { kCapture, kStream, kQuery };

struct Mix {
  CaptureSize capture;
  StreamSize stream;
  QuerySize query;
  Phase own = Phase::kCapture;  // the phase run at full size
};

CaptureSize SmallCapture() {
  CaptureSize c;
  c.postmark_files = 75;
  c.postmark_txns = 300;
  c.hg_tracked = 60;
  c.hg_patches = 60;
  c.cc_units = 200;
  return c;
}

StreamSize SmallStream() {
  StreamSize s;
  s.rounds = 32;
  return s;
}

QuerySize SmallQuery() {
  QuerySize q;
  q.dag_nodes = 168;
  q.queries = 320;
  q.session_cache_bytes = 28 << 10;
  q.oracle_every = 20;
  return q;
}

bool MixFor(const std::string& workload, Mix* mix) {
  mix->capture = SmallCapture();
  mix->stream = SmallStream();
  mix->query = SmallQuery();
  if (workload == "capture") {
    mix->capture = CaptureSize();
    mix->own = Phase::kCapture;
  } else if (workload == "audit_stream") {
    mix->stream = StreamSize();
    mix->own = Phase::kStream;
  } else if (workload == "portal_query") {
    mix->query = QuerySize();
    mix->own = Phase::kQuery;
  } else {
    return false;
  }
  return true;
}

// One repetition; `rss` measures the workload's own phase.
PhaseResult RunRep(const Mix& mix, uint64_t seed, Tracer* tracer,
                   RssWindow* rss, bool describe) {
  auto own = [&](Phase p) { return mix.own == p ? rss : nullptr; };
  PhaseResult rep;
  for (PhaseResult phase :
       {RunCapturePhase(mix.capture, seed, tracer, own(Phase::kCapture)),
        RunStreamPhase(mix.stream, seed, tracer, own(Phase::kStream)),
        RunQueryPhase(mix.query, seed, tracer, own(Phase::kQuery),
                      describe)}) {
    rep.setup_host_s += phase.setup_host_s;
    rep.timed_host_s += phase.timed_host_s;
    rep.sim.insert(phase.sim.begin(), phase.sim.end());
    for (const auto& [k, v] : phase.counts) {
      rep.counts[k] += v;
    }
    for (const auto& [k, v] : phase.host) {
      rep.host[k] += v;
    }
    for (auto& [k, v] : phase.samples) {
      auto& dst = rep.samples[k];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    for (auto& [k, v] : phase.host_samples) {
      auto& dst = rep.host_samples[k];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    rep.info.insert(rep.info.end(), phase.info.begin(), phase.info.end());
    rep.attempted += phase.attempted;
    rep.failed += phase.failed;
  }
  return rep;
}

// Everything that must repeat exactly for one seed.
bool SameSim(const PhaseResult& a, const PhaseResult& b) {
  return a.sim == b.sim && a.counts == b.counts && a.samples == b.samples;
}

// Per-span-name self-time totals of one traced repetition.
struct LayerTimes {
  std::map<std::string, double> host_ms;
  std::map<std::string, double> sim_ms;
};

LayerTimes Aggregate(const std::vector<Span>& spans) {
  SelfTimes self = ComputeSelfTimes(spans);
  LayerTimes out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out.host_ms[spans[i].name] += static_cast<double>(self.host[i]) / 1e6;
    out.sim_ms[spans[i].name] += static_cast<double>(self.sim[i]) / 1e6;
  }
  return out;
}

// Sum of the entries of `m` whose key starts with `prefix`.
double SumPrefix(const std::map<std::string, double>& m,
                 const std::string& prefix) {
  double total = 0;
  for (const auto& [k, v] : m) {
    if (k.compare(0, prefix.size(), prefix) == 0) {
      total += v;
    }
  }
  return total;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <capture|audit_stream|"
               "portal_query> --seed N --seconds S --trace <0|1> "
               "[--trace-out FILE]\n       perfbench --selftest "
               "--trace-out FILE\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--selftest") {
      selftest = true;
    } else if ((v = next()) == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(v);
    } else if (arg == "--trace") {
      trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--trace-out") {
      trace_out = v;
    } else {
      return Usage();
    }
  }
  if (selftest) {
    return RunSelfTest(trace_out);
  }
  Mix mix;
  if (!MixFor(workload, &mix) || seconds <= 0) {
    return Usage();
  }

  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace ? 1 : 0);
  std::printf(
      "policy: LasagnaOptions{} (log buffer 256 KiB, rotate 4 MiB); "
      "ClusterOptions{} with 4 shards, pipelined replication, batch 64 "
      "records, max_in_flight_batches 16; one client, closed loop, one "
      "thread\n");

  // Repeat until the wall-clock budget is spent. The first repetition
  // warms the heap (its first-touch page faults cost host time later ones
  // do not pay): it counts for the sim-clock metrics, the counts and the
  // oracles, but not for host-clock numbers. After it come at least two
  // untraced repetitions (set-up is timed once per repetition) or, with
  // tracing, at least one untraced and two traced ones, alternating so
  // drift on the machine hits both kinds alike.
  auto wall_start = std::chrono::steady_clock::now();
  std::vector<PhaseResult> plain;
  std::vector<PhaseResult> traced;
  std::vector<LayerTimes> layers;
  bool deterministic = true;
  bool rss_ok = true;
  for (int rep = 0;; ++rep) {
    double elapsed = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
    size_t min_traced = trace ? 2 : 0;
    size_t min_plain = trace ? 2 : 3;
    if (elapsed >= seconds && plain.size() >= min_plain &&
        traced.size() >= min_traced) {
      break;
    }
    bool traced_rep = trace && rep % 2 == 1;
    Tracer tracer;
    RssWindow rss;
    PhaseResult r = RunRep(mix, seed, traced_rep ? &tracer : nullptr, &rss,
                           rep == 0);
    if (!rss.ok()) {
      rss_ok = false;
    }
    r.host["peak_rss_mb"] = rss.peak_mb();
    if (rep == 0) {
      for (const std::string& line : r.info) {
        std::printf("%s\n", line.c_str());
      }
    } else if (!SameSim(r, plain.front())) {
      deterministic = false;
    }
    if (traced_rep) {
      layers.push_back(Aggregate(tracer.spans()));
      if (traced.empty() && !trace_out.empty()) {
        std::ofstream(trace_out)
            << ChromeTraceJson(tracer.spans(), kTraceFileSpans);
      }
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = (deterministic ? 0 : 1) + (rss_ok ? 0 : 1);
  for (const auto* set : {&plain, &traced}) {
    for (const PhaseResult& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
    }
  }
  const PhaseResult& first = plain.front();
  std::vector<double> setup, syscall_rate, ingest_rate, query_p50, timed;
  std::vector<double> peak_rss;
  std::vector<double> query_host_all;
  for (size_t i = 1; i < plain.size(); ++i) {
    const PhaseResult& r = plain[i];
    setup.push_back(r.setup_host_s);
    timed.push_back(r.timed_host_s);
    peak_rss.push_back(r.host.at("peak_rss_mb"));
    syscall_rate.push_back(r.host.at("capture_syscalls") /
                           (r.host.at("capture_host_ns") / 1e9));
    ingest_rate.push_back(r.host.at("ingest_records") /
                          (r.host.at("ingest_host_ns") / 1e9));
    const std::vector<double>& q = r.host_samples.at("query_host_us");
    query_p50.push_back(Percentile(q, 50));
    query_host_all.insert(query_host_all.end(), q.begin(), q.end());
  }
  Tail sync = Summarize(first.samples.at("sync_sim_us"));
  Tail detect = Summarize(first.samples.at("detect_sim_us"));
  Tail query = Summarize(first.samples.at("query_sim_us"));
  Tail query_host = Summarize(query_host_all);
  std::printf(
      "samples: %zu syncs (tail p%d), %zu detections (tail p%d), %zu "
      "queries (tail p%d) per repetition; %zu untraced and %zu traced "
      "repetitions\n",
      sync.n, sync.tail_pct, detect.n, detect.tail_pct, query.n,
      query.tail_pct, plain.size(), traced.size());
  std::printf("error_rate: %.6g (%llu failed of %llu attempted, oracle "
              "checks included); sim metrics repeat across repetitions: "
              "%s\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              deterministic ? "yes" : "NO");
  if (!rss_ok) {
    std::printf("peak_rss_mb: /proc/self/clear_refs or VmHWM unavailable; "
                "the peak is not the workload's own\n");
  }

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", Median(setup), "s"},
        {"peak_rss_mb", Median(peak_rss), "MiB"},
        {"capture_overhead_pct", first.sim.at("capture_overhead_pct"), "%"},
        {"nfs_capture_overhead_pct", first.sim.at("nfs_capture_overhead_pct"),
         "%"},
        {"space_overhead_pct", first.sim.at("space_overhead_pct"), "%"},
        {"sync_sim_p50_us", sync.p50, "us"},
        {"sync_sim_p99_us", sync.tail, "us"},
        {"ingest_sim_records_per_s", first.sim.at("ingest_sim_records_per_s"),
         "1/s"},
        {"detect_sim_p50_us", detect.p50, "us"},
        {"detect_sim_p99_us", detect.tail, "us"},
        {"query_sim_p50_us", query.p50, "us"},
        {"query_sim_p99_us", query.tail, "us"},
    };
  } else {
    std::map<std::string, double> c = first.counts;
    auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
    c["federated.hit_rate"] =
        ratio(c["federated.cache_hits"],
              c["federated.cache_hits"] + c["federated.cache_misses"]);
    c["async.overlap"] =
        1.0 - ratio(c["async.exposed_sim_ms"], c["async.busy_sim_ms"]);
    c["pql.rows_examined_per_row"] =
        ratio(traced.front().host.at("pql_rows_examined"),
              c["pql.rows_returned"]);
    c["capture_host_syscalls_per_s"] = Median(syscall_rate);
    c["ingest_host_records_per_s"] = Median(ingest_rate);
    c["query_host_p50_us"] = Median(query_p50);
    c["query.host_p99_us"] = query_host.tail;
    // Span self times: host as the median over traced repetitions, sim
    // from any (they repeat exactly).
    auto host_ms = [&](auto fn) {
      std::vector<double> v;
      for (const LayerTimes& l : layers) {
        v.push_back(fn(l.host_ms));
      }
      return Median(v);
    };
    auto name = [](const char* n) {
      return [n](const std::map<std::string, double>& m) {
        auto it = m.find(n);
        return it == m.end() ? 0.0 : it->second;
      };
    };
    const LayerTimes& l0 = layers.front();
    c["os.host_self_ms"] = host_ms([](const auto& m) {
      return SumPrefix(m, "os.");
    });
    c["core.intercept_host_ms"] = host_ms(name("core.intercept"));
    c["core.intercept_sim_ms"] = name("core.intercept")(l0.sim_ms);
    c["waldo.drain_host_ms"] = host_ms(name("waldo.drain"));
    c["sync.host_ms"] = host_ms(name("cluster.sync"));
    c["quiesce.sim_ms"] = name("cluster.quiesce")(l0.sim_ms);
    c["migrate.host_ms"] = host_ms(name("cluster.migrate"));
    c["standing.refresh_host_ms"] = host_ms(name("standing.refresh"));
    c["standing.refresh_sim_ms"] = name("standing.refresh")(l0.sim_ms);
    c["federated.host_ms"] = host_ms([](const auto& m) {
      return SumPrefix(m, "federated.");
    });
    c["federated.sim_ms"] = SumPrefix(l0.sim_ms, "federated.");
    c["pql.eval_host_self_ms"] = host_ms(name("portal.run"));
    std::vector<double> traced_timed;
    for (const PhaseResult& r : traced) {
      traced_timed.push_back(r.timed_host_s);
    }
    c["trace.overhead_pct"] =
        (Median(traced_timed) - Median(timed)) / Median(timed) * 100.0;

    std::printf("layer self time per repetition (host ms | sim ms; "
                "'uncharged' = no simulated time):\n");
    for (const auto& [span, sim] : l0.sim_ms) {
      std::string sim_text = sim == 0 ? "uncharged" : std::to_string(sim);
      std::printf("  %-30s %12.3f | %s\n", span.c_str(),
                  host_ms(name(span.c_str())), sim_text.c_str());
    }
    std::printf("tracing overhead: %.2f%% of timed host time\n",
                c["trace.overhead_pct"]);
    for (const LayerMetric& m : kLayerMetrics) {
      auto it = c.find(m.name);
      if (it == c.end()) {
        std::printf("missing per-layer metric %s\n", m.name);
        ++failed;
        continue;
      }
      metrics.push_back({m.name, it->second, m.unit});
    }
  }
  std::printf("%s\n", Json(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
