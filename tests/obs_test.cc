// Tests for the sim-time observability layer: histogram bucketing and
// quantiles, label-keyed series isolation, span nesting and cross-RPC
// parent linkage, exporter determinism, and the acceptance criteria that
// one Sync() and one federated closure each render as a single connected
// span tree with per-shard children — all stamped in pure sim time.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/federated_source.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/stats_bridge.h"
#include "src/obs/trace.h"
#include "src/pql/eval.h"
#include "src/sim/clock.h"
#include "src/util/logging.h"
#include "src/workloads/lineage_chain.h"

namespace pass::obs {
namespace {

using workloads::WriteLineageChain;

// ---- Histogram ------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(Histogram::BucketLow(0), 0u);
  EXPECT_EQ(Histogram::BucketHigh(0), 1u);
  EXPECT_EQ(Histogram::BucketLow(1), 1u);
  EXPECT_EQ(Histogram::BucketHigh(1), 2u);
  EXPECT_EQ(Histogram::BucketLow(5), 16u);
  EXPECT_EQ(Histogram::BucketHigh(5), 32u);
  EXPECT_EQ(Histogram::BucketLow(64), 1ull << 63);

  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(16);
  h.Record(31);
  EXPECT_EQ(h.buckets()[0], 1u);  // {0}
  EXPECT_EQ(h.buckets()[1], 1u);  // [1, 2)
  EXPECT_EQ(h.buckets()[2], 2u);  // [2, 4)
  EXPECT_EQ(h.buckets()[5], 2u);  // [16, 32)
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 53u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
}

TEST(HistogramTest, ConstantDistributionReportsTheConstant) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(64);
  }
  // Quantiles clamp to the observed [min, max], so every quantile of a
  // constant distribution is that constant, exactly.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 64.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 64.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 64.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 64.0);
  EXPECT_DOUBLE_EQ(h.mean(), 64.0);
}

TEST(HistogramTest, QuantilesOnKnownDistribution) {
  // 99 samples of 100 ns and one of 100000 ns: p50 must sit near the bulk,
  // p99+ must reach into the outlier's bucket.
  Histogram h;
  for (int i = 0; i < 99; ++i) {
    h.Record(100);
  }
  h.Record(100000);
  double p50 = h.Quantile(0.5);
  double p99 = h.Quantile(0.99);
  EXPECT_GE(p50, Histogram::BucketLow(7));  // 100 lives in [64, 128)
  EXPECT_LT(p50, Histogram::BucketHigh(7));
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100000.0);
  // Monotone in q across the whole range.
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    double v = h.Quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(HistogramTest, EmptyHistogramIsZeroes) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// ---- Registry -------------------------------------------------------------

TEST(MetricRegistryTest, LabelsKeySeparateSeries) {
  MetricRegistry reg;
  reg.GetCounter("ingest.flushes", {{"shard", "1"}}).Add(5);
  reg.GetCounter("ingest.flushes", {{"shard", "2"}}).Add(7);
  EXPECT_EQ(reg.GetCounter("ingest.flushes", {{"shard", "1"}}).value(), 5u);
  EXPECT_EQ(reg.GetCounter("ingest.flushes", {{"shard", "2"}}).value(), 7u);
  // A different name with the same labels is yet another series.
  EXPECT_EQ(reg.GetCounter("ingest.batches", {{"shard", "1"}}).value(), 0u);
}

TEST(MetricRegistryTest, LabelOrderDoesNotSplitSeries) {
  MetricRegistry reg;
  Counter& a = reg.GetCounter("x", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.GetCounter("x", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(CanonicalLabels({{"b", "2"}, {"a", "1"}}), "a=1;b=2");
  EXPECT_EQ(CanonicalLabels({}), "");
}

TEST(MetricRegistryTest, ResetZeroesButKeepsSeriesRegistered) {
  MetricRegistry reg;
  reg.GetCounter("c", {{"shard", "0"}}).Add(9);
  reg.GetHistogram("h").Record(1234);
  reg.GetGauge("g").Set(-5);
  std::string before = reg.DumpText();
  EXPECT_NE(before.find("c{shard=0} 9"), std::string::npos);

  reg.Reset();
  EXPECT_EQ(reg.GetCounter("c", {{"shard", "0"}}).value(), 0u);
  EXPECT_EQ(reg.GetHistogram("h").count(), 0u);
  EXPECT_EQ(reg.GetGauge("g").value(), 0);
  // The dump still lists every series — phases can be diffed line-by-line.
  std::string after = reg.DumpText();
  EXPECT_NE(after.find("c{shard=0} 0"), std::string::npos);
  EXPECT_NE(after.find("histogram h{}"), std::string::npos);
}

TEST(MetricRegistryTest, CsvDumpFollowsBenchConvention) {
  MetricRegistry reg;
  reg.GetCounter("ops", {{"shard", "1"}}).Add(2);
  reg.GetHistogram("lat_ns").Record(50);
  std::string csv = reg.DumpCsv();
  for (const auto& line : {std::string("csv,metric,counter,ops,shard=1,"),
                           std::string("csv,metric,histogram,lat_ns,,")}) {
    EXPECT_NE(csv.find(line), std::string::npos) << csv;
  }
}

// ---- Tracing --------------------------------------------------------------

TEST(TraceTest, DisabledCollectorRecordsNothing) {
  sim::Clock clock;
  TraceCollector trace(&clock);
  EXPECT_EQ(trace.StartSpan("noop"), 0u);
  {
    ScopedSpan span(&trace, "noop2");
    EXPECT_EQ(span.id(), 0u);
  }
  ScopedSpan null_span(nullptr, "no-collector");  // must not crash
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_FALSE(trace.CurrentContext().valid());
}

TEST(TraceTest, SpansNestByStackDiscipline) {
  sim::Clock clock;
  TraceCollector trace(&clock);
  trace.set_enabled(true);

  uint64_t outer = trace.StartSpan("outer");
  clock.Advance(100);
  uint64_t inner = trace.StartSpan("inner", /*shard=*/2);
  clock.Advance(50);
  trace.EndSpan(inner);
  clock.Advance(25);
  trace.EndSpan(outer);

  ASSERT_EQ(trace.spans().size(), 2u);
  const SpanRecord& o = trace.spans()[0];
  const SpanRecord& i = trace.spans()[1];
  EXPECT_EQ(o.parent_id, 0u);
  EXPECT_EQ(i.parent_id, o.id);
  EXPECT_EQ(i.trace_id, o.trace_id);
  EXPECT_EQ(i.shard, 2);
  // Pure sim-clock stamps.
  EXPECT_EQ(o.start_ns, 0);
  EXPECT_EQ(i.start_ns, 100);
  EXPECT_EQ(i.end_ns, 150);
  EXPECT_EQ(o.end_ns, 175);
  EXPECT_EQ(trace.open_spans(), 0u);
}

TEST(TraceTest, ContextPropagationLinksAcrossRpcBoundary) {
  sim::Clock clock;
  TraceCollector trace(&clock);
  trace.set_enabled(true);

  // Sender: open the rpc span, capture the context "shipped" in the payload.
  uint64_t rpc = trace.StartSpan("rpc.send");
  TraceContext ctx = trace.CurrentContext();
  EXPECT_TRUE(ctx.valid());
  EXPECT_EQ(ctx.span_id, rpc);
  trace.EndSpan(rpc);

  // Receiver: no call stack connects it, but the context parents its span.
  uint64_t serve = trace.StartSpan(ctx, "shard.serve", /*shard=*/1);
  trace.EndSpan(serve);

  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[1].parent_id, rpc);
  EXPECT_EQ(trace.spans()[1].trace_id, trace.spans()[0].trace_id);
}

TEST(TraceTest, ChromeExportHasBalancedEventsPerTrack) {
  sim::Clock clock;
  TraceCollector trace(&clock);
  trace.set_enabled(true);
  uint64_t a = trace.StartSpan("a");
  clock.Advance(1000);
  uint64_t b = trace.StartSpan("b", 0);
  trace.EndSpan(b);  // zero-duration span: B and E share a timestamp
  trace.EndSpan(a);
  uint64_t open = trace.StartSpan("still-open");  // must be skipped
  (void)open;

  std::string json = trace.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  size_t begins = 0, ends = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\":\"B\"", pos)) != std::string::npos;
       ++pos) {
    ++begins;
  }
  for (size_t pos = 0; (pos = json.find("\"ph\":\"E\"", pos)) != std::string::npos;
       ++pos) {
    ++ends;
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_EQ(json.find("still-open"), std::string::npos);
}

// ---- Cluster integration --------------------------------------------------

cluster::ClusterOptions SmallCluster(int shards) {
  cluster::ClusterOptions options;
  options.shards = shards;
  options.ingest_batch_records = 16;
  return options;
}

// Every span reachable from exactly one root, and the root is `root_name`.
void ExpectSingleTree(const std::vector<SpanRecord>& spans,
                      const std::string& root_name, int want_shard_children) {
  ASSERT_FALSE(spans.empty());
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) {
    EXPECT_FALSE(s.open) << s.name;
    by_id[s.id] = &s;
  }
  int roots = 0;
  uint64_t trace_id = spans.front().trace_id;
  std::set<int> shards_seen;
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.trace_id, trace_id) << s.name << " left the tree";
    if (s.parent_id == 0) {
      ++roots;
      EXPECT_EQ(s.name, root_name);
    } else {
      ASSERT_TRUE(by_id.count(s.parent_id))
          << s.name << " has a dangling parent";
    }
    if (s.shard >= 0) {
      shards_seen.insert(s.shard);
    }
  }
  EXPECT_EQ(roots, 1);
  EXPECT_GE(static_cast<int>(shards_seen.size()), want_shard_children);
}

TEST(ObsClusterTest, OneSyncIsOneConnectedSpanTree) {
  cluster::ClusterCoordinator cluster(SmallCluster(3));
  ASSERT_TRUE(WriteLineageChain(&cluster, 9, cluster.shard_count()).ok());

  TraceCollector& trace = cluster.env().obs().trace();
  trace.set_enabled(true);
  ASSERT_TRUE(cluster.Sync().ok());
  trace.set_enabled(false);

  // The whole Sync — per-shard log recovery, replication batches, and the
  // remote applies on the far side of the simulated RPCs — hangs off the
  // one cluster.sync root, with children on every shard.
  ExpectSingleTree(trace.spans(), "cluster.sync",
                   /*want_shard_children=*/cluster.shard_count());
  bool saw_remote_apply = false;
  for (const SpanRecord& s : trace.spans()) {
    if (s.name == "shard.apply_batch") {
      saw_remote_apply = true;
      ASSERT_TRUE(s.parent_id != 0);
    }
  }
  EXPECT_TRUE(saw_remote_apply);

  // The registry saw the same activity.
  MetricRegistry& reg = cluster.env().obs().metrics();
  EXPECT_EQ(reg.GetCounter("cluster.syncs").value(), 1u);
  EXPECT_EQ(reg.GetHistogram("cluster.sync_ns").count(), 1u);
  EXPECT_GT(reg.GetHistogram("cluster.sync_ns").max(), 0u);
}

TEST(ObsClusterTest, FederatedQueryIsOneConnectedSpanTree) {
  cluster::ClusterCoordinator cluster(SmallCluster(3));
  ASSERT_TRUE(WriteLineageChain(&cluster, 9, cluster.shard_count()).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  cluster::FederatedSource source = cluster.Source(/*portal_shard=*/0);
  TraceCollector& trace = cluster.env().obs().trace();
  trace.set_enabled(true);
  {
    // The portal wraps each query in one root span; every hop, every
    // per-shard RPC, and every remote serve nests under it.
    ScopedSpan query_span(&trace, "pql.query");
    pql::Engine engine(&source);
    auto result = engine.Run(
        "select Ancestor from Provenance.file as F F.input* as Ancestor "
        "where F.name = \"/f8\"");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result->rows.size(), 1u);
  }
  trace.set_enabled(false);

  ExpectSingleTree(trace.spans(), "pql.query", /*want_shard_children=*/2);
  std::set<std::string> names;
  for (const SpanRecord& s : trace.spans()) {
    names.insert(s.name);
  }
  EXPECT_TRUE(names.count("query.root_set"));
  EXPECT_TRUE(names.count("query.follow_hop"));
  EXPECT_TRUE(names.count("rpc.follow"));
  EXPECT_TRUE(names.count("shard.serve_follow"));
}

TEST(ObsClusterTest, TracingNeverAdvancesSimTime) {
  // Identical seeds and workloads; the only difference is tracing. The
  // simulated clocks must agree to the nanosecond.
  cluster::ClusterCoordinator plain(SmallCluster(3));
  cluster::ClusterCoordinator traced(SmallCluster(3));
  traced.env().obs().trace().set_enabled(true);

  ASSERT_TRUE(WriteLineageChain(&plain, 12, plain.shard_count()).ok());
  ASSERT_TRUE(WriteLineageChain(&traced, 12, traced.shard_count()).ok());
  ASSERT_TRUE(plain.Sync().ok());
  ASSERT_TRUE(traced.Sync().ok());
  ASSERT_TRUE(plain.Rebalance().migrations >= 0);
  ASSERT_TRUE(traced.Rebalance().migrations >= 0);

  EXPECT_GT(traced.env().obs().trace().spans().size(), 0u);
  EXPECT_EQ(plain.env().clock().now(), traced.env().clock().now());
}

TEST(ObsClusterTest, ExportersAreDeterministic) {
  auto run = [](std::string* json, std::string* text) {
    cluster::ClusterCoordinator cluster(SmallCluster(3));
    cluster.env().obs().trace().set_enabled(true);
    ASSERT_TRUE(WriteLineageChain(&cluster, 9, cluster.shard_count()).ok());
    ASSERT_TRUE(cluster.Sync().ok());
    cluster::FederatedSource source = cluster.Source(0);
    pql::Engine engine(&source);
    auto result = engine.Run(
        "select Ancestor from Provenance.file as F F.input* as Ancestor "
        "where F.name = \"/f8\"");
    ASSERT_TRUE(result.ok());
    Publish(&cluster.env().obs().metrics(), source.stats());
    *json = cluster.env().obs().trace().ChromeTraceJson();
    *text = cluster.env().obs().metrics().DumpText();
  };
  std::string json_a, text_a, json_b, text_b;
  run(&json_a, &text_a);
  run(&json_b, &text_b);
  // Same seed, same workload: byte-identical trace and metric dumps.
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(text_a, text_b);
  EXPECT_FALSE(json_a.empty());
  EXPECT_NE(text_a.find("histogram"), std::string::npos);
}

// ---- ResetStats satellites ------------------------------------------------

TEST(ObsClusterTest, ResetStatsZeroesHolderCounters) {
  cluster::ClusterCoordinator cluster(SmallCluster(2));
  ASSERT_TRUE(WriteLineageChain(&cluster, 6, cluster.shard_count()).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  cluster::FederatedSource source = cluster.Source(0);
  pql::Engine engine(&source);
  ASSERT_TRUE(engine
                  .Run("select Ancestor from Provenance.file as F "
                       "F.input* as Ancestor where F.name = \"/f5\"")
                  .ok());
  EXPECT_GT(source.stats().remote_ops, 0u);
  size_t warm_bytes = source.cache_bytes_used();
  EXPECT_GT(warm_bytes, 0u);
  source.ResetStats();
  // Counters drop; the cache itself (and its contents) survive, so the next
  // query measures a pure warm-cache phase.
  EXPECT_EQ(source.stats().remote_ops, 0u);
  EXPECT_EQ(source.stats().cache_hits, 0u);
  EXPECT_EQ(source.cache_bytes_used(), warm_bytes);

  auto& machine = cluster.machine(0);
  EXPECT_GT(machine.volume()->lasagna_stats().txns, 0u);
  machine.volume()->ResetStats();
  EXPECT_EQ(machine.volume()->lasagna_stats().txns, 0u);
}

TEST(ObsClusterTest, StatsBridgePublishesIntoRegistry) {
  cluster::ClusterCoordinator cluster(SmallCluster(2));
  ASSERT_TRUE(WriteLineageChain(&cluster, 6, cluster.shard_count()).ok());
  ASSERT_TRUE(cluster.Sync().ok());

  MetricRegistry reg;  // a private registry: Publish works against any
  Publish(&reg, cluster.ingest_stats());
  Publish(&reg, cluster.machine(0).volume()->lasagna_stats(),
          {{"shard", "0"}});
  EXPECT_GT(reg.GetGauge("ingest.entries_examined").value(), 0);
  EXPECT_GT(reg.GetGauge("lasagna.txns", {{"shard", "0"}}).value(), 0);
}

// ---- PASS_LOG_LEVEL satellite ---------------------------------------------

TEST(LoggingTest, LogLevelFromNameParsesNamesAndDigits) {
  EXPECT_EQ(LogLevelFromName("debug", LogLevel::kNone), LogLevel::kDebug);
  EXPECT_EQ(LogLevelFromName("INFO", LogLevel::kNone), LogLevel::kInfo);
  EXPECT_EQ(LogLevelFromName("Warn", LogLevel::kNone), LogLevel::kWarning);
  EXPECT_EQ(LogLevelFromName("warning", LogLevel::kNone), LogLevel::kWarning);
  EXPECT_EQ(LogLevelFromName("error", LogLevel::kNone), LogLevel::kError);
  EXPECT_EQ(LogLevelFromName("none", LogLevel::kDebug), LogLevel::kNone);
  EXPECT_EQ(LogLevelFromName("0", LogLevel::kNone), LogLevel::kDebug);
  EXPECT_EQ(LogLevelFromName("3", LogLevel::kNone), LogLevel::kError);
  EXPECT_EQ(LogLevelFromName("bogus", LogLevel::kError), LogLevel::kError);
  EXPECT_EQ(LogLevelFromName("", LogLevel::kInfo), LogLevel::kInfo);
}

}  // namespace
}  // namespace pass::obs
