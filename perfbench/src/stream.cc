// The stream phase: a BSM-style audit stream on a 4-shard cluster. Each
// round replays fork/exec chains, file reads and writes and taint-source
// touches through the shards' kernels, discloses a share of cross-shard
// lineage through ClusterCoordinator::WriteWithLineage, then calls Sync()
// once and Refresh()es two standing queries. A MigrateRange runs every few
// rounds as background work. The whole round script -- including which
// processes must end up flagged -- is generated in set-up from the seed.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/cluster/cluster.h"
#include "src/cluster/standing.h"
#include "src/pql/eval.h"
#include "src/pql/provdb_source.h"
#include "src/sim/net.h"
#include "src/util/strings.h"
#include "src/workloads/audit_stream.h"

namespace perfbench {
namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::ClusterOptions;
using pass::cluster::StandingQueryTier;

constexpr int kShards = 4;
constexpr int kReadsPerWorker = 2;
constexpr int kTaintSources = 2;  // per shard

// One worker chain: a session spawns, execs the audit tool, forks a worker
// that execs its own tool, reads, and writes one output. A linked worker
// then has the shard's resident process write a link file whose disclosed
// INPUT is another shard's earlier output.
struct Worker {
  int shard = 0;
  std::string session;
  std::string name;
  std::string tool;
  std::vector<std::string> reads;
  std::string out_path;
  int link_to = -1;  // index of a foreign output, or -1
  std::string link_path;
  bool tainted = false;
};

struct StreamScript {
  std::vector<std::vector<Worker>> rounds;  // outputs are numbered in order
};

StreamScript BuildStream(const StreamSize& size, uint64_t seed) {
  InputRng rng(seed ^ 0x5eed5);
  StreamScript script;
  struct Output {
    int shard;
    bool tainted;
  };
  std::vector<Output> outputs;
  std::vector<std::vector<std::pair<std::string, bool>>> readable(kShards);
  for (int s = 0; s < kShards; ++s) {
    for (int i = 0; i < 2; ++i) {
      readable[s].emplace_back(pass::StrFormat("/data/s%d-%d", s, i), false);
    }
  }
  for (int r = 0; r < size.rounds; ++r) {
    std::vector<Worker> round;
    for (int s = 0; s < kShards; ++s) {
      for (int p = 0; p < size.workers_per_shard; ++p) {
        Worker w;
        w.shard = s;
        w.session = pass::StrFormat("session-s%d-r%d-p%d", s, r, p);
        w.name = pass::StrFormat("w-s%d-r%d-p%d", s, r, p);
        w.tool = "/tools/" + w.name;
        // Fixed roles keep every round's shape alike: the first worker of
        // a shard reads a taint source, the second links to a foreign
        // output; what they read and link to is drawn from the seed.
        if (p == 0) {
          w.reads.push_back(pass::StrFormat(
              "/intel/s%d-src%d", s,
              static_cast<int>(rng.Below(kTaintSources))));
          w.tainted = true;
        }
        for (int i = 0; i < kReadsPerWorker; ++i) {
          const auto& [path, tainted] =
              readable[s][rng.Below(readable[s].size())];
          w.reads.push_back(path);
          w.tainted = w.tainted || tainted;
        }
        w.out_path = pass::StrFormat("/out/s%d-r%d-p%d", s, r, p);
        if (p == 1 && !outputs.empty()) {
          // Outputs are stored shard by shard within a round, so walking
          // forward from a random pick reaches a foreign one quickly.
          size_t pick = rng.Below(outputs.size());
          for (size_t step = 0; step < outputs.size(); ++step) {
            size_t at = (pick + step) % outputs.size();
            if (outputs[at].shard != s) {
              w.link_to = static_cast<int>(at);
              w.link_path = pass::StrFormat("/links/s%d-r%d-p%d", s, r, p);
              break;
            }
          }
        }
        round.push_back(std::move(w));
      }
    }
    // Outputs and link files join the read pools after the round, so a
    // round's workers read only what earlier rounds produced.
    for (const Worker& w : round) {
      readable[w.shard].emplace_back(w.out_path, w.tainted);
      if (w.link_to >= 0) {
        readable[w.shard].emplace_back(w.link_path,
                                       outputs[w.link_to].tainted);
      }
    }
    for (const Worker& w : round) {
      outputs.push_back(Output{w.shard, w.tainted});
    }
    script.rounds.push_back(std::move(round));
  }
  return script;
}

// Create the tool binary, the read pool and the annotated taint sources on
// every shard, then ingest them.
bool SeedCluster(ClusterCoordinator* cluster) {
  for (int s = 0; s < kShards; ++s) {
    pass::workloads::Machine& m = cluster->machine(s);
    pass::os::Kernel& k = m.kernel();
    pass::os::Pid seeder = k.Spawn(pass::StrFormat("seeder-s%d", s));
    for (const char* dir : {"/bin", "/data", "/intel", "/out", "/links"}) {
      if (!k.Mkdir(seeder, dir).ok()) {
        return false;
      }
    }
    if (!k.WriteFile(seeder, "/bin/auditd", "#!auditd").ok()) {
      return false;
    }
    for (int i = 0; i < 2; ++i) {
      if (!k.WriteFile(seeder, pass::StrFormat("/data/s%d-%d", s, i),
                       "telemetry")
               .ok()) {
        return false;
      }
    }
    for (int i = 0; i < kTaintSources; ++i) {
      std::string path = pass::StrFormat("/intel/s%d-src%d", s, i);
      if (!k.WriteFile(seeder, path, "dropped payload").ok()) {
        return false;
      }
      auto ref = m.pass()->RefOfPath(path);
      if (!ref.ok() ||
          !m.pass()
               ->DiscloseRecords(seeder, *ref,
                                 {pass::core::Record::Annotation(
                                     "taint", static_cast<int64_t>(1))})
               .ok()) {
        return false;
      }
    }
  }
  return cluster->Sync().ok();
}

// Replays one worker chain; returns the number of failed calls.
uint64_t RunWorker(ClusterCoordinator* cluster, const Worker& w,
                   std::vector<pass::core::ObjectRef>* outputs,
                   Tracer* tracer) {
  pass::workloads::Machine& m = cluster->machine(w.shard);
  pass::os::Kernel& k = m.kernel();
  uint64_t failed = 0;
  pass::os::Pid session;
  {
    Scope span(tracer, "os.spawn");
    session = k.Spawn(w.session);
  }
  {
    Scope span(tracer, "os.exec");
    failed += k.Exec(session, "/bin/auditd", {"auditd"}).ok() ? 0 : 1;
  }
  pass::os::Pid worker = 0;
  {
    Scope span(tracer, "os.fork");
    auto child = k.Fork(session);
    if (!child.ok()) {
      outputs->emplace_back();
      return failed + 1;
    }
    worker = *child;
  }
  {
    Scope span(tracer, "os.exec");
    failed += k.Exec(worker, w.tool, {w.name, "--scan"}).ok() ? 0 : 1;
  }
  std::string buf;
  for (const std::string& path : w.reads) {
    pass::Result<pass::os::Fd> fd = pass::os::Fd{-1};
    {
      Scope span(tracer, "os.open");
      fd = k.Open(worker, path, pass::os::kOpenRead);
    }
    if (!fd.ok()) {
      ++failed;
      continue;
    }
    {
      Scope span(tracer, "os.read");
      failed += k.Read(worker, *fd, 64, &buf).ok() ? 0 : 1;
    }
    Scope span(tracer, "os.close");
    failed += k.Close(worker, *fd).ok() ? 0 : 1;
  }
  {
    pass::Result<pass::os::Fd> fd = pass::os::Fd{-1};
    {
      Scope span(tracer, "os.open");
      fd = k.Open(worker, w.out_path,
                  pass::os::kOpenWrite | pass::os::kOpenCreate);
    }
    if (fd.ok()) {
      {
        Scope span(tracer, "os.write");
        failed += k.Write(worker, *fd, "scan findings").ok() ? 0 : 1;
      }
      Scope span(tracer, "os.close");
      failed += k.Close(worker, *fd).ok() ? 0 : 1;
    } else {
      ++failed;
    }
  }
  auto out_ref = m.pass()->RefOfPath(w.out_path);
  failed += out_ref.ok() ? 0 : 1;
  outputs->push_back(out_ref.ok() ? *out_ref : pass::core::ObjectRef{});
  if (out_ref.ok()) {
    // The tool discloses its verdict on the output through the DPAPI: a
    // provenance-only record, so every shard has log to flush at Sync.
    Scope span(tracer, "core.disclose");
    failed += m.pass()
                      ->DiscloseRecords(worker, *out_ref,
                                        {pass::core::Record::Annotation(
                                            "verdict",
                                            static_cast<int64_t>(w.tainted))})
                      .ok()
                  ? 0
                  : 1;
  }
  if (w.link_to >= 0) {
    Scope span(tracer, "cluster.write_with_lineage");
    failed += cluster
                      ->WriteWithLineage(w.shard, w.link_path, "link",
                                         {(*outputs)[w.link_to]})
                      .ok()
                  ? 0
                  : 1;
  }
  return failed;
}

// Standing result of `id` compared with a from-scratch evaluation over the
// merged database; also checks every expected name is flagged. Returns the
// number of mismatches (0 or 1).
uint64_t CheckStanding(const StandingQueryTier& tier, uint64_t id,
                       const std::string& text,
                       const pass::pql::Engine& engine,
                       const std::set<std::string>& expected) {
  auto standing = tier.ResultOf(id);
  auto fresh = engine.Run(text);
  if (!standing.ok() || !fresh.ok()) {
    return 1;
  }
  std::vector<std::string> have = RowKeys(standing->rows);
  if (corruption().stream_drop_row && !have.empty()) {
    have.pop_back();
  }
  if (have != RowKeys(fresh->rows)) {
    return 1;
  }
  std::set<std::string> flagged;
  for (const auto& row : standing->rows) {
    for (const pass::pql::Value& v : row) {
      flagged.insert(v.ToString());
    }
  }
  for (const std::string& name : expected) {
    if (flagged.count(name) == 0) {
      return 1;
    }
  }
  return 0;
}

}  // namespace

PhaseResult RunStreamPhase(const StreamSize& size, uint64_t seed,
                           Tracer* tracer, RssWindow* rss) {
  PhaseResult r;
  int64_t setup_start = HostNowNs();
  StreamScript script = BuildStream(size, seed);
  ClusterOptions options;
  options.shards = kShards;
  options.seed = seed;
  options.max_in_flight_batches = 16;
  ClusterCoordinator cluster(options);
  pass::sim::Env& env = cluster.env();
  if (tracer != nullptr) {
    tracer->set_clock(&env.clock());
  }
  bool seeded = SeedCluster(&cluster);
  StandingQueryTier tier(&cluster);
  const std::string queries[2] = {
      pass::workloads::AuditStreamGenerator::TaintDescendantQuery(),
      pass::workloads::AuditStreamGenerator::TaintAncestryQuery()};
  uint64_t ids[2] = {0, 0};
  for (int q = 0; q < 2; ++q) {
    auto id = tier.Register(queries[q]);
    seeded = seeded && id.ok();
    ids[q] = id.ok() ? *id : 0;
  }
  seeded = seeded && tier.Refresh().ok();  // seed evaluation
  if (!seeded) {
    ++r.failed;
  }
  tier.ResetStats();
  // Interceptor spans cover the timed rounds only, not the seeding.
  std::vector<std::unique_ptr<TracingInterceptor>> decorators;
  if (tracer != nullptr) {
    for (int s = 0; s < kShards; ++s) {
      pass::workloads::Machine& m = cluster.machine(s);
      decorators.push_back(
          std::make_unique<TracingInterceptor>(m.pass(), tracer));
      m.kernel().set_interceptor(decorators.back().get());
    }
  }
  uint64_t entries_before = cluster.entries_recovered();
  pass::cluster::IngestStats ingest_before = cluster.ingest_stats();
  pass::sim::AsyncStats async_before = cluster.replication_timeline().stats();
  r.setup_host_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;
  if (rss != nullptr) {
    rss->Resume();
  }

  std::vector<double> sync_us;
  std::vector<double> detect_us;
  std::vector<pass::core::ObjectRef> outputs;
  std::set<std::string> expected;
  std::vector<pass::core::PnodeId> migrated_to(kShards, 0);
  for (int s = 0; s < kShards; ++s) {
    migrated_to[s] = pass::core::ShardSpace(static_cast<uint16_t>(s)).begin;
  }
  int64_t migrate_ns = 0;
  int migrations = 0;
  int64_t host_paused = 0;
  int64_t sim_start = env.clock().now();
  int64_t host_start = HostNowNs();
  for (size_t round = 0; round < script.rounds.size(); ++round) {
    Scope round_span(tracer, "bench.stream.round");
    int64_t round_start = env.clock().now();
    for (const Worker& w : script.rounds[round]) {
      r.failed += RunWorker(&cluster, w, &outputs, tracer);
      ++r.attempted;
    }
    {
      Scope span(tracer, "cluster.sync");
      int64_t t0 = env.clock().now();
      if (!cluster.Sync().ok()) {
        ++r.failed;
      }
      sync_us.push_back(static_cast<double>(env.clock().now() - t0) / 1e3);
      ++r.attempted;
    }
    {
      Scope span(tracer, "standing.refresh");
      auto notes = tier.Refresh();
      ++r.attempted;
      if (!notes.ok()) {
        ++r.failed;
      } else {
        // One sample per round that raised notifications: they all share
        // the round's detection latency.
        if (!notes->empty()) {
          detect_us.push_back(
              static_cast<double>(env.clock().now() - round_start) / 1e3);
        }
      }
    }
    if (size.migrate_every > 0 && (round + 1) % size.migrate_every == 0) {
      // Background rebalancing: hand the pnodes one shard allocated since
      // its last migration to the next shard.
      int from = migrations % kShards;
      pass::core::PnodeRange range{
          migrated_to[from],
          cluster.machine(from).allocator().peek_next()};
      if (!range.empty()) {
        Scope span(tracer, "cluster.migrate");
        int64_t t0 = env.clock().now();
        if (!cluster.MigrateRange(range, (from + 1) % kShards).ok()) {
          ++r.failed;
        }
        migrate_ns += env.clock().now() - t0;
        migrated_to[from] = range.end;
        ++r.attempted;
      }
      ++migrations;
    }

    // Oracle, off the host timer: standing results equal a from-scratch run
    // over a fresh, uncached federated source and flag every worker the
    // script marked tainted. The source charges a scratch network on its
    // own clock, so the check costs the cluster no simulated time.
    int64_t pause = HostNowNs();
    if (rss != nullptr) {
      rss->Pause();
    }
    for (const Worker& w : script.rounds[round]) {
      if (w.tainted) {
        expected.insert(w.name);
      }
    }
    {
      pass::sim::Clock scratch_clock;
      pass::sim::Network scratch_net(&scratch_clock);
      pass::cluster::FederatedSource fresh(cluster.shard_dbs(), &scratch_net,
                                           &cluster.shard_map(), 0, 0);
      pass::pql::Engine engine(&fresh);
      for (int q = 0; q < 2; ++q) {
        r.failed +=
            CheckStanding(tier, ids[q], queries[q], engine, expected);
        ++r.attempted;
      }
    }
    if (rss != nullptr) {
      rss->Resume();
    }
    host_paused += HostNowNs() - pause;
  }
  {
    Scope span(tracer, "cluster.quiesce");
    cluster.Quiesce();
  }
  int64_t host_ns = HostNowNs() - host_start - host_paused;
  int64_t sim_ns = env.clock().now() - sim_start;
  if (rss != nullptr) {
    rss->Pause();
  }
  if (tracer != nullptr) {
    tracer->set_clock(nullptr);
  }
  r.timed_host_s = static_cast<double>(host_ns) / 1e9;
  double entries =
      static_cast<double>(cluster.entries_recovered() - entries_before);

  // Closing oracle: federated answers equal the merged database.
  {
    pass::waldo::ProvDb merged;
    cluster.MergeInto(&merged);
    pass::pql::ProvDbSource merged_source(&merged);
    pass::pql::Engine merged_engine(&merged_source);
    pass::cluster::FederatedSource federated = cluster.Source();
    pass::pql::Engine federated_engine(&federated);
    for (const std::string& text : queries) {
      auto a = federated_engine.Run(text);
      auto b = merged_engine.Run(text);
      ++r.attempted;
      if (!a.ok() || !b.ok() || RowKeys(a->rows) != RowKeys(b->rows)) {
        ++r.failed;
      }
    }
  }

  r.sim["ingest_sim_records_per_s"] =
      entries / (static_cast<double>(sim_ns) / 1e9);
  r.host["ingest_records"] = entries;
  r.host["ingest_host_ns"] = static_cast<double>(host_ns);
  r.samples["sync_sim_us"] = sync_us;
  r.samples["detect_sim_us"] = detect_us;

  auto& c = r.counts;
  const pass::cluster::IngestStats& in = cluster.ingest_stats();
  c["ingest.entries_examined"] =
      static_cast<double>(in.entries_examined - ingest_before.entries_examined);
  c["ingest.entries_replicated"] = static_cast<double>(
      in.entries_replicated - ingest_before.entries_replicated);
  c["ingest.batches_sent"] =
      static_cast<double>(in.batches_sent - ingest_before.batches_sent);
  c["ingest.group_commits"] =
      static_cast<double>(in.group_commits - ingest_before.group_commits);
  c["ingest.group_frames"] =
      static_cast<double>(in.group_frames - ingest_before.group_frames);
  c["ingest.wire_bytes"] =
      static_cast<double>(in.wire_bytes() - ingest_before.wire_bytes());
  const pass::sim::AsyncStats& as = cluster.replication_timeline().stats();
  c["async.busy_sim_ms"] =
      static_cast<double>(as.busy_ns - async_before.busy_ns) / 1e6;
  c["async.exposed_sim_ms"] =
      static_cast<double>(as.exposed_ns - async_before.exposed_ns) / 1e6;
  const auto& mig = cluster.migration_stats();
  c["migration.batches"] = static_cast<double>(mig.batches);
  c["migration.bytes"] = static_cast<double>(mig.bytes);
  c["migration.rows_deleted"] = static_cast<double>(mig.rows_deleted);
  c["migrate.sim_ms"] = static_cast<double>(migrate_ns) / 1e6;
  const pass::cluster::StandingStats& st = tier.stats();
  c["standing.frontier_entries"] = static_cast<double>(st.frontier_entries);
  c["standing.frontier_rpcs"] = static_cast<double>(st.frontier_rpcs);
  c["standing.affected_roots"] = static_cast<double>(st.affected_roots);
  c["standing.incremental_evals"] = static_cast<double>(st.incremental_evals);
  c["standing.full_evals"] = static_cast<double>(st.full_evals);
  c["standing.rows_touched"] = static_cast<double>(st.rows_touched);
  c["standing.eval_rpcs"] = static_cast<double>(st.eval_rpcs);
  c["standing.notifications"] = static_cast<double>(st.notifications);
  const pass::cluster::FederatedStats& fs = tier.source().stats();
  c["federated.remote_ops"] = static_cast<double>(fs.remote_ops);
  c["federated.local_ops"] = static_cast<double>(fs.local_ops);
  c["federated.cache_hits"] = static_cast<double>(fs.cache_hits);
  c["federated.cache_misses"] = static_cast<double>(fs.cache_misses);
  c["federated.cache_evictions"] = static_cast<double>(fs.cache_evictions);
  c["federated.cache_entries_invalidated"] =
      static_cast<double>(fs.cache_entries_invalidated);
  c["federated.req_bytes"] = static_cast<double>(fs.remote_request_bytes);
  c["federated.resp_bytes"] = static_cast<double>(fs.remote_response_bytes);

  size_t workers = 0;
  for (const auto& round : script.rounds) {
    workers += round.size();
  }
  r.info.push_back(pass::StrFormat(
      "stream: %zu rounds, %zu worker chains, %.0f log entries ingested, "
      "%zu flagged workers expected, %d migrations",
      script.rounds.size(), workers, entries, expected.size(), migrations));
  r.info.push_back(pass::StrFormat(
      "stream: standing source cache %zu of %zu bytes used (fits)",
      tier.source().cache_bytes_used(), tier.source().cache_capacity()));
  return r;
}

}  // namespace perfbench
