// The query phase: read-heavy portal serving over a lineage DAG preloaded in
// set-up with WriteWithLineage + Sync. Four epoch-pinned PortalSessions
// across two tenants run ancestry closures, descendant closures and an
// attribute filter on Zipf-skewed roots. Between queries a little ingest
// churn writes new children of hot roots into the ranges being read, and
// one live MigrateRange runs halfway through.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/cluster/cluster.h"
#include "src/cluster/portal.h"
#include "src/pql/eval.h"
#include "src/pql/provdb_source.h"
#include "src/sim/net.h"
#include "src/util/strings.h"

namespace perfbench {
namespace {

using pass::cluster::ClusterCoordinator;
using pass::cluster::ClusterOptions;
using pass::cluster::PortalHandle;
using pass::cluster::PortalSession;
using pass::cluster::PortalSessionOptions;
using pass::cluster::PortalTier;
using pass::cluster::PortalTierOptions;

constexpr int kShards = 4;
constexpr int kSessions = 4;
// Query shapes in the fixed rotation: one attribute filter, three ancestry
// closures and one descendant closure. Query i runs on session
// i % kSessions with shape i % kShapes, so any kSessions * kShapes queries
// in a row cover every (session, shape) pair.
constexpr int kShapes = 5;
constexpr int kFamilySize = 24;  // nodes per lineage family (closure bound)
constexpr double kZipfS = 1.1;
constexpr int kChurnEvery = 8;  // queries between churn writes (+ Sync)

struct DagNode {
  int shard = 0;
  std::string path;
  std::vector<int> parents;
  int tag = -1;  // family index; -1 for anchors (untagged)
};

struct Query {
  std::string text;
  int session = 0;
  int shape = 0;
  int root = 0;  // DAG node index (-1 for the attribute filter)
};

// One churn write: a new child of a hot root.
struct ChurnWrite {
  int shard = 0;
  std::string path;
  int parent = 0;
};

struct QueryScript {
  std::vector<DagNode> dag;
  std::vector<Query> queries;
  // Per churn point, in order: one to three writes, then one Sync.
  std::vector<std::vector<ChurnWrite>> churn;
};

// Zipf(s) over `n` ranks by inverse CDF on a precomputed table.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }
  size_t Sample(InputRng* rng) const {
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), rng->Unit()) -
        cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

QueryScript BuildQueries(const QuerySize& size, uint64_t seed) {
  InputRng rng(seed ^ 0x9e77);
  QueryScript script;
  // Lineage families with one fixed shape, so every family is alike:
  // member k (k >= 1) derives from members k-1 and k/2, and every fifth
  // member also from the anchor of the next family (anchors are written
  // first, are not family members, and live off the portal shard). Closure
  // sizes and shard placement depend only on a node's position in its
  // family; the seed picks the roots, the filtered tags and the churn.
  const int families = size.dag_nodes / kFamilySize;
  for (int f = 0; f < families; ++f) {
    DagNode anchor;
    anchor.shard = 1 + f % (kShards - 1);
    anchor.path = pass::StrFormat("/a%03d", f);
    anchor.tag = -1;
    script.dag.push_back(std::move(anchor));
  }
  auto member = [&](int f, int k) {
    return families + f * kFamilySize + k;
  };
  for (int f = 0; f < families; ++f) {
    for (int k = 0; k < kFamilySize; ++k) {
      DagNode node;
      int i = f * kFamilySize + k;
      node.shard = k % kShards;
      node.path = pass::StrFormat("/d%05d", i);
      node.tag = f;
      std::set<int> parents;
      if (k >= 1) {
        parents.insert(member(f, k - 1));
        parents.insert(member(f, k / 2));
      }
      if (k % 5 == 4) {
        parents.insert((f + 1) % families);
      }
      node.parents.assign(parents.begin(), parents.end());
      script.dag.push_back(std::move(node));
    }
  }
  // Roots: a Zipf-ranked family (hot families scattered by a random rank
  // permutation), then a uniform member of it.
  std::vector<int> rank(families);
  std::iota(rank.begin(), rank.end(), 0);
  for (size_t i = rank.size(); i > 1; --i) {
    std::swap(rank[i - 1], rank[rng.Below(i)]);
  }
  Zipf zipf(rank.size(), kZipfS);
  auto pick_root = [&]() {
    return member(rank[zipf.Sample(&rng)],
                  static_cast<int>(rng.Below(kFamilySize)));
  };
  int churn_files = 0;
  for (int q = 0; q < size.queries; ++q) {
    Query query;
    query.session = q % kSessions;
    // A fixed shape rotation keeps the mix, and so the median query, the
    // same under every seed.
    query.shape = q % kShapes;
    if (query.shape == 0) {
      query.root = -1;
      query.text = pass::StrFormat(
          "select F.name from Provenance.file as F where F.tag = %d",
          static_cast<int>(rng.Below(families)));
    } else {
      query.root = pick_root();
      const char* step = query.shape < 4 ? "input*" : "~input*";
      query.text = pass::StrFormat(
          "select A from Provenance.file as F F.%s as A where F.name = \"%s\"",
          step, script.dag[query.root].path.c_str());
    }
    script.queries.push_back(std::move(query));
    if ((q + 1) % kChurnEvery == 0) {
      std::vector<ChurnWrite> writes(1 + rng.Below(3));
      for (ChurnWrite& w : writes) {
        w.shard = static_cast<int>(rng.Below(kShards));
        w.path = pass::StrFormat("/c%05d", churn_files++);
        w.parent = pick_root();
      }
      script.churn.push_back(std::move(writes));
    }
  }
  return script;
}

// Writes the DAG through WriteWithLineage, tags every node through the
// DPAPI, and ingests it.
bool Preload(ClusterCoordinator* cluster, const QueryScript& script,
             std::vector<pass::core::ObjectRef>* refs) {
  std::vector<pass::os::Pid> loaders;
  for (int s = 0; s < kShards; ++s) {
    loaders.push_back(cluster->machine(s).Spawn("loader"));
  }
  for (size_t i = 0; i < script.dag.size(); ++i) {
    const DagNode& node = script.dag[i];
    std::vector<pass::core::ObjectRef> sources;
    for (int p : node.parents) {
      sources.push_back((*refs)[p]);
    }
    auto ref = cluster->WriteWithLineage(node.shard, node.path,
                                         std::string(64, 'd'), sources);
    if (!ref.ok()) {
      return false;
    }
    pass::core::PassSystem* pass = cluster->machine(node.shard).pass();
    if (node.tag >= 0 &&
        !pass->DiscloseRecords(loaders[node.shard], *ref,
                               {pass::core::Record::Annotation(
                                   "tag", static_cast<int64_t>(node.tag))})
             .ok()) {
      return false;
    }
    refs->push_back(*ref);
    if (i % 64 == 63 && !cluster->Sync().ok()) {
      return false;
    }
  }
  return cluster->Sync().ok();
}

// A session's answer compared with the same query over the merged
// database; returns the number of mismatches (0 or 1).
uint64_t CheckSession(ClusterCoordinator* cluster, const Query& q,
                      const pass::pql::QueryResult& result) {
  pass::waldo::ProvDb merged;
  cluster->MergeInto(&merged);
  pass::pql::ProvDbSource merged_source(&merged);
  auto want = pass::pql::Engine(&merged_source).Run(q.text);
  std::vector<std::string> have = RowKeys(result.rows);
  if (corruption().query_drop_session == q.session &&
      corruption().query_drop_shape == q.shape && !have.empty()) {
    have.pop_back();
  }
  return !want.ok() || RowKeys(want->rows) != have ? 1 : 0;
}

// Bytes a portal cache needs to answer `queries` without evicting: the
// fill of an unbounded cache on a scratch network and clock.
size_t WorkingSetBytes(ClusterCoordinator* cluster,
                       const std::vector<const Query*>& queries) {
  pass::sim::Clock clock;
  pass::sim::Network net(&clock);
  pass::cluster::FederatedSource source(cluster->shard_dbs(), &net,
                                        &cluster->shard_map(), 0,
                                        size_t{1} << 34);
  pass::pql::Engine engine(&source);
  std::set<std::string> distinct;
  for (const Query* q : queries) {
    if (distinct.insert(q->text).second) {
      (void)engine.Run(q->text);
    }
  }
  return source.cache_bytes_used();
}

}  // namespace

PhaseResult RunQueryPhase(const QuerySize& size, uint64_t seed,
                          Tracer* tracer, RssWindow* rss, bool describe) {
  PhaseResult r;
  int64_t setup_start = HostNowNs();
  QueryScript script = BuildQueries(size, seed);
  ClusterOptions options;
  options.shards = kShards;
  options.seed = seed;
  options.max_in_flight_batches = 16;
  ClusterCoordinator cluster(options);
  pass::sim::Env& env = cluster.env();
  if (tracer != nullptr) {
    tracer->set_clock(&env.clock());
  }
  std::vector<pass::core::ObjectRef> refs;
  if (!Preload(&cluster, script, &refs)) {
    ++r.failed;
  }
  PortalTierOptions tier_options;
  tier_options.total_cache_bytes = kSessions * size.session_cache_bytes;
  PortalTier tier(&cluster, tier_options);
  std::vector<PortalHandle> handles;
  std::vector<PortalSession*> sessions;
  std::vector<std::unique_ptr<TracingSource>> traced;
  for (int i = 0; i < kSessions; ++i) {
    PortalSessionOptions session_options;
    session_options.tenant = pass::StrFormat("tenant%d", i % 2);
    session_options.cache_bytes = size.session_cache_bytes;
    auto handle = tier.Open(session_options);
    if (!handle.ok()) {
      ++r.failed;
      if (tracer != nullptr) {
        tracer->set_clock(nullptr);
      }
      return r;
    }
    handles.push_back(std::move(*handle));
    sessions.push_back(handles.back().get());
    traced.push_back(
        std::make_unique<TracingSource>(&sessions.back()->source(), tracer));
  }
  r.setup_host_s = static_cast<double>(HostNowNs() - setup_start) / 1e9;
  if (rss != nullptr) {
    rss->Resume();
  }

  std::vector<double> query_sim_us;
  std::vector<double> query_host_us;
  std::vector<bool> exempt(kSessions, false);
  uint64_t rows_returned = 0;
  uint64_t oracle_checks = 0;
  size_t churn_next = 0;
  int64_t migrate_ns = 0;
  int64_t host_paused = 0;
  int64_t host_start = HostNowNs();
  const size_t half = script.queries.size() / 2;
  for (size_t i = 0; i < script.queries.size(); ++i) {
    if (i == half) {
      // Live migration of the upper half of shard 1's range to shard 3.
      // Sessions 0 and 1 re-pin to the new map; 2 and 3 stay pinned and
      // leave the oracle (portal.h scopes session == merged to ranges not
      // migrated while pinned).
      Scope span(tracer, "cluster.migrate");
      pass::core::PnodeId begin = pass::core::ShardSpace(1).begin;
      pass::core::PnodeId end = cluster.machine(1).allocator().peek_next();
      pass::core::PnodeRange range{begin + (end - begin) / 2, end};
      int64_t t0 = env.clock().now();
      ++r.attempted;
      if (!cluster.MigrateRange(range, 3).ok()) {
        ++r.failed;
      }
      migrate_ns += env.clock().now() - t0;
      sessions[0]->RePin();
      sessions[1]->RePin();
      exempt[2] = exempt[3] = true;
    }
    const Query& q = script.queries[i];
    PortalSession* session = sessions[q.session];
    pass::Result<pass::pql::QueryResult> result =
        pass::InvalidArgument("not run");
    int64_t sim0 = env.clock().now();
    int64_t host0 = HostNowNs();
    if (tracer == nullptr) {
      result = session->Run(q.text);
    } else {
      // PortalSession::Run with the engine reading through the tracing
      // decorator: the same Quiesce barrier, then the same evaluation.
      Scope span(tracer, "portal.run");
      {
        Scope quiesce(tracer, "cluster.quiesce");
        cluster.Quiesce();
      }
      pass::pql::Engine engine(traced[q.session].get());
      result = engine.Run(q.text);
    }
    query_host_us.push_back(static_cast<double>(HostNowNs() - host0) / 1e3);
    query_sim_us.push_back(static_cast<double>(env.clock().now() - sim0) /
                           1e3);
    ++r.attempted;
    if (!result.ok()) {
      ++r.failed;
      continue;
    }
    rows_returned += result->rows.size();

    // Sampled queries: the first of every (session, shape) pair after each
    // pin (the start and the migration), then every oracle_every-th.
    constexpr size_t kPairs = kSessions * kShapes;
    bool sampled = i < kPairs || (i >= half && i < half + kPairs) ||
                   (size.oracle_every > 0 && i % size.oracle_every == 0);
    if (sampled && !exempt[q.session]) {
      // Oracle, off the host timer and charging no simulated time.
      int64_t pause = HostNowNs();
      if (rss != nullptr) {
        rss->Pause();
      }
      r.failed += CheckSession(&cluster, q, *result);
      ++r.attempted;
      ++oracle_checks;
      if (rss != nullptr) {
        rss->Resume();
      }
      host_paused += HostNowNs() - pause;
    }

    if ((i + 1) % kChurnEvery == 0 && churn_next < script.churn.size()) {
      for (const ChurnWrite& w : script.churn[churn_next++]) {
        Scope span(tracer, "cluster.write_with_lineage");
        ++r.attempted;
        if (!cluster.WriteWithLineage(w.shard, w.path, "churn",
                                      {refs[w.parent]})
                 .ok()) {
          ++r.failed;
        }
      }
      ++r.attempted;
      Scope span(tracer, "cluster.sync");
      if (!cluster.Sync().ok()) {
        ++r.failed;
      }
    }
  }
  r.timed_host_s =
      static_cast<double>(HostNowNs() - host_start - host_paused) / 1e9;
  if (rss != nullptr) {
    rss->Pause();
  }
  if (tracer != nullptr) {
    tracer->set_clock(nullptr);
  }
  r.samples["query_sim_us"] = query_sim_us;
  r.host_samples["query_host_us"] = query_host_us;

  auto& c = r.counts;
  for (PortalSession* s : sessions) {
    const pass::cluster::FederatedStats& fs = s->source().stats();
    c["federated.remote_ops"] += static_cast<double>(fs.remote_ops);
    c["federated.local_ops"] += static_cast<double>(fs.local_ops);
    c["federated.cache_hits"] += static_cast<double>(fs.cache_hits);
    c["federated.cache_misses"] += static_cast<double>(fs.cache_misses);
    c["federated.cache_evictions"] += static_cast<double>(fs.cache_evictions);
    c["federated.cache_entries_invalidated"] +=
        static_cast<double>(fs.cache_entries_invalidated);
    c["federated.req_bytes"] += static_cast<double>(fs.remote_request_bytes);
    c["federated.resp_bytes"] += static_cast<double>(fs.remote_response_bytes);
  }
  const pass::cluster::PortalAdmissionStats& adm = tier.admission_stats();
  c["portal.admitted"] = static_cast<double>(adm.admitted);
  c["portal.rejected"] =
      static_cast<double>(adm.rejected_quota + adm.rejected_budget);
  c["pql.rows_returned"] = static_cast<double>(rows_returned);
  if (tracer != nullptr) {
    double examined = 0;
    for (const auto& t : traced) {
      examined += static_cast<double>(t->rows());
    }
    r.host["pql_rows_examined"] = examined;  // traced repetitions only
  }
  c["migrate.sim_ms"] = static_cast<double>(migrate_ns) / 1e6;
  const auto& mig = cluster.migration_stats();
  c["migration.batches"] = static_cast<double>(mig.batches);
  c["migration.bytes"] = static_cast<double>(mig.bytes);
  c["migration.rows_deleted"] = static_cast<double>(mig.rows_deleted);

  r.info.push_back(pass::StrFormat(
      "query: %zu DAG nodes (anchors + families of %d), %zu queries over %d "
      "sessions / 2 tenants, Zipf s=%.2f over families, %zu churn writes, "
      "%llu oracle checks",
      script.dag.size(), kFamilySize, script.queries.size(), kSessions,
      kZipfS, script.churn.size(),
      static_cast<unsigned long long>(oracle_checks)));
  if (!describe) {
    return r;
  }
  // Sizes: the whole query working set and that of the ten hottest roots,
  // each against the per-session cache budget.
  std::map<int, int> root_hits;
  for (const Query& q : script.queries) {
    if (q.root >= 0) {
      ++root_hits[q.root];
    }
  }
  std::vector<std::pair<int, int>> hot(root_hits.begin(), root_hits.end());
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::set<int> hot_roots;
  for (size_t k = 0; k < hot.size() && k < 10; ++k) {
    hot_roots.insert(hot[k].first);
  }
  std::vector<const Query*> all;
  std::vector<const Query*> hot_queries;
  for (const Query& q : script.queries) {
    all.push_back(&q);
    if (hot_roots.count(q.root) != 0) {
      hot_queries.push_back(&q);
    }
  }
  // Every query's `where F.name = ...` scans the names of all files; the
  // rest of a root's working set is its closure.
  Query scan;
  scan.text = "select F from Provenance.file as F where F.name = \"/none\"";
  size_t scan_bytes = WorkingSetBytes(&cluster, {&scan});
  r.info.push_back(pass::StrFormat(
      "query: working set %zu bytes, of which the name scan %zu; ten "
      "hottest roots' closures %zu bytes beyond it; per-session cache "
      "budget %zu bytes",
      WorkingSetBytes(&cluster, all), scan_bytes,
      WorkingSetBytes(&cluster, hot_queries) - scan_bytes,
      size.session_cache_bytes));
  return r;
}

}  // namespace perfbench
