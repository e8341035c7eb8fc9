#include "src/cluster/standing.h"

#include <utility>

#include "src/obs/trace.h"
#include "src/pql/parser.h"
#include "src/pql/provdb_source.h"

namespace pass::cluster {

// Root-restricted view for one incremental evaluation: RootSet answers from
// the tier's frontier catalog, filtered to the affected roots — no
// scatter-gather over the shards — while every other operation flows
// through the tier's metered federated source. The catalog's (version,
// type) entries are maintained from frontier deltas, so the restricted root
// set is exactly what FederatedSource::RootSet would return for the same
// pnodes.
class RestrictedRootSource : public pql::GraphSource {
 public:
  RestrictedRootSource(
      const pql::GraphSource* inner,
      const std::map<core::PnodeId, StandingQueryTier::CatalogEntry>* catalog,
      const std::set<core::PnodeId>* allowed)
      : inner_(inner), catalog_(catalog), allowed_(allowed) {}

  std::vector<pql::Node> RootSet(const std::string& name) const override {
    std::vector<pql::Node> out;
    std::string type = name == "object" ? "" : pql::RootSetTypeName(name);
    for (core::PnodeId pnode : *allowed_) {
      auto it = catalog_->find(pnode);
      if (it == catalog_->end()) {
        continue;  // never ingested: cannot be a root
      }
      if (!type.empty() && it->second.type != type) {
        continue;
      }
      out.push_back(pql::Node{pnode, it->second.version});
    }
    emitted_ += out.size();
    return out;
  }
  std::vector<std::vector<pql::Node>> FollowMany(
      const std::vector<pql::Node>& nodes, const std::string& link,
      bool inverse) const override {
    return inner_->FollowMany(nodes, link, inverse);
  }
  std::vector<pql::ValueSet> AttributeMany(
      const std::vector<pql::Node>& nodes,
      const std::string& attr) const override {
    return inner_->AttributeMany(nodes, attr);
  }
  bool IsLink(const std::string& name) const override {
    return inner_->IsLink(name);
  }
  std::string NodeLabel(const pql::Node& node) const override {
    return inner_->NodeLabel(node);
  }

  // Root rows served from the catalog (part of the incremental cost).
  uint64_t emitted() const { return emitted_; }

 private:
  const pql::GraphSource* inner_;
  const std::map<core::PnodeId, StandingQueryTier::CatalogEntry>* catalog_;
  const std::set<core::PnodeId>* allowed_;
  mutable uint64_t emitted_ = 0;
};

StandingQueryTier::StandingQueryTier(ClusterCoordinator* cluster)
    : cluster_(cluster),
      source_(cluster->shard_dbs(), &cluster->network(), &cluster->shard_map(),
              FederatedSource::kPortalShard,
              FederatedSource::kDefaultCacheBytes, &cluster->env().obs()),
      meter_(&source_) {
  // cursor_ starts empty: the first Refresh sees every bucket as dirty and
  // seeds the catalog with the cluster's whole pre-existing population.
}

StandingQueryTier::~StandingQueryTier() = default;

// ---- Register-time AST analysis ---------------------------------------------

void StandingQueryTier::CollectPath(const pql::PathExpr& path,
                                    const pql::GraphSource* source,
                                    QueryShape* shape) {
  for (const pql::PathStep& step : path.steps) {
    if (source->IsLink(step.name)) {
      shape->directions.insert(step.inverse);
    }
  }
}

void StandingQueryTier::AnalyzeExpr(const pql::Expr& expr,
                                    const pql::GraphSource* source,
                                    QueryShape* shape) {
  switch (expr.kind) {
    case pql::Expr::Kind::kLiteral:
      return;
    case pql::Expr::Kind::kPath:
      // A Provenance-rooted path inside where/select sees the whole root
      // set, which root restriction would silently shrink.
      if (expr.path.from_provenance) {
        shape->incremental = false;
      }
      CollectPath(expr.path, source, shape);
      return;
    case pql::Expr::Kind::kNot:
      AnalyzeExpr(*expr.lhs, source, shape);
      return;
    case pql::Expr::Kind::kExists:
      if (expr.subquery != nullptr) {
        shape->incremental = false;
        return;
      }
      AnalyzeExpr(*expr.lhs, source, shape);
      return;
    case pql::Expr::Kind::kAggregate:
      if (expr.subquery != nullptr) {
        shape->incremental = false;
        return;
      }
      AnalyzeExpr(*expr.lhs, source, shape);
      return;
    case pql::Expr::Kind::kSubquery:
      // Subqueries re-root at Provenance internally and carry their own
      // count/dedup semantics; always safe, never incremental.
      shape->incremental = false;
      return;
    case pql::Expr::Kind::kBinary:
      AnalyzeExpr(*expr.lhs, source, shape);
      AnalyzeExpr(*expr.rhs, source, shape);
      return;
  }
}

void StandingQueryTier::AnalyzeQuery(const pql::Query& query, bool outermost,
                                     const pql::GraphSource* source,
                                     QueryShape* shape) {
  // Root restriction replaces exactly froms[0]'s Provenance root set (per
  // union branch); any other Provenance-rooted binding would be shrunk
  // unsoundly.
  if (query.froms.empty() || !query.froms.front().path.from_provenance) {
    shape->incremental = false;
  }
  for (size_t i = 0; i < query.froms.size(); ++i) {
    if (i > 0 && query.froms[i].path.from_provenance) {
      shape->incremental = false;
    }
    CollectPath(query.froms[i].path, source, shape);
  }
  for (const pql::SelectItem& item : query.selects) {
    AnalyzeExpr(item.expr, source, shape);
  }
  if (query.where != nullptr) {
    AnalyzeExpr(*query.where, source, shape);
  }
  if (query.union_with != nullptr) {
    AnalyzeQuery(*query.union_with, false, source, shape);
  }
  (void)outermost;
}

// ---- Registration -----------------------------------------------------------

Result<uint64_t> StandingQueryTier::Register(std::string_view text,
                                             pql::QueryOptions options) {
  if (options.consistency == pql::Consistency::kPinnedEpoch) {
    return InvalidArgument(
        "standing queries are always fresh: a pinned-epoch registration "
        "would never observe new ingest");
  }
  PASS_ASSIGN_OR_RETURN(std::unique_ptr<pql::Query> ast,
                        pql::ParseQuery(text));
  auto query = std::make_unique<StandingQuery>();
  query->id = next_id_++;
  query->text = std::string(text);
  query->ast = std::move(ast);
  query->options = std::move(options);
  AnalyzeQuery(*query->ast, /*outermost=*/true, &source_, &query->shape);
  uint64_t id = query->id;
  queries_.emplace(id, std::move(query));
  return id;
}

Status StandingQueryTier::Unregister(uint64_t id) {
  if (queries_.erase(id) == 0) {
    return NotFound("no such standing query");
  }
  return Status::Ok();
}

Result<bool> StandingQueryTier::IsIncremental(uint64_t id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return NotFound("no such standing query");
  }
  return it->second->shape.incremental;
}

// ---- Refresh ----------------------------------------------------------------

Result<std::set<core::PnodeId>> StandingQueryTier::AffectedRoots(
    const StandingQuery& query, const std::vector<FrontierEntry>& delta) {
  // Blown limit: every catalogued pnode counts as affected (a full
  // re-evaluation over the real root sets, still correct).
  auto everything = [this] {
    ++stats_.walk_overflows;
    std::set<core::PnodeId> all;
    for (const auto& [pnode, unused] : catalog_) {
      all.insert(pnode);
    }
    return all;
  };
  std::set<core::PnodeId> affected;
  std::set<pql::Node> visited;
  std::vector<pql::Node> frontier;
  for (const FrontierEntry& entry : delta) {
    affected.insert(entry.pnode);
    // Edges attach per version: walk out of every known version of the
    // changed pnode, not just the latest.
    const waldo::ProvDb& db = cluster_->shard_db(entry.shard);
    for (core::Version version : db.VersionsOf(entry.pnode)) {
      pql::Node node{entry.pnode, version};
      if (visited.insert(node).second) {
        frontier.push_back(node);
      }
    }
  }
  if (affected.size() > query.options.limits.max_closure_nodes) {
    return everything();
  }
  // Closure: a root R is affected if R reaches a delta node along the
  // query's traversal directions, i.e. the delta reaches R walking each
  // used direction backwards. Mixed-direction paths are covered by
  // expanding every reversed direction at every level.
  while (!frontier.empty()) {
    std::vector<pql::Node> next;
    for (bool inverse : query.shape.directions) {
      for (const auto& nodes : meter_.FollowMany(frontier, "input", !inverse)) {
        for (const pql::Node& node : nodes) {
          if (visited.insert(node).second) {
            next.push_back(node);
            affected.insert(node.pnode);
          }
        }
      }
    }
    if (affected.size() > query.options.limits.max_closure_nodes) {
      return everything();
    }
    frontier = std::move(next);
  }
  return affected;
}

Status StandingQueryTier::EvalAndMerge(StandingQuery* query,
                                       const std::set<core::PnodeId>* roots,
                                       bool seed) {
  obs::ScopedSpan span(&cluster_->env().obs().trace(), "standing.eval",
                       FederatedSource::kPortalShard);
  uint64_t rows_before = meter_.rows_touched();
  uint64_t rpcs_before = source_.stats().remote_ops;

  pql::QueryOptions options = query->options;
  options.attribute_roots = true;
  pql::QueryResult result;
  uint64_t restricted_rows = 0;
  if (roots == nullptr) {
    // Full evaluation: real (scatter-gather) root sets.
    pql::Engine engine(&meter_, options);
    PASS_ASSIGN_OR_RETURN(result, engine.Evaluate(*query->ast, options));
  } else {
    RestrictedRootSource restricted(&meter_, &catalog_, roots);
    pql::Engine engine(&restricted, options);
    PASS_ASSIGN_OR_RETURN(result, engine.Evaluate(*query->ast, options));
    restricted_rows = restricted.emitted();
  }

  // Merge: drop everything the re-evaluated roots previously contributed,
  // then re-insert what they contribute now. Idempotent — re-running the
  // same delta after a crash re-derives the same rows.
  if (roots == nullptr) {
    query->rows_by_root.clear();
  } else {
    for (core::PnodeId pnode : *roots) {
      query->rows_by_root.erase(pnode);
    }
  }
  query->columns = result.columns;
  for (size_t i = 0; i < result.rows.size(); ++i) {
    std::vector<std::string> key;
    key.reserve(result.rows[i].size());
    for (const pql::Value& value : result.rows[i]) {
      key.push_back(value.ToString());
    }
    query->rows_by_root[result.roots[i].pnode].emplace(
        std::move(key), std::move(result.rows[i]));
  }

  uint64_t rows_cost =
      meter_.rows_touched() - rows_before + restricted_rows;
  uint64_t rpc_cost = source_.stats().remote_ops - rpcs_before;
  if (seed) {
    stats_.seed_rows_touched += rows_cost;
    stats_.seed_rpcs += rpc_cost;
  } else {
    stats_.rows_touched += rows_cost;
    stats_.eval_rpcs += rpc_cost;
  }
  return Status::Ok();
}

Result<std::vector<StandingNotification>> StandingQueryTier::Refresh() {
  cluster_->Quiesce();
  obs::ScopedSpan span(&cluster_->env().obs().trace(), "standing.refresh",
                       FederatedSource::kPortalShard);
  FrontierDelta delta = cluster_->FrontierSince(cursor_);
  stats_.frontier_entries += delta.entries.size();
  stats_.frontier_rpcs += delta.rpcs;
  for (const FrontierEntry& entry : delta.entries) {
    catalog_[entry.pnode] = CatalogEntry{entry.version, entry.type};
  }

  for (auto& [id, query] : queries_) {
    if (query->seeded && delta.entries.empty()) {
      continue;  // nothing ingested since the last refresh
    }
    if (!query->seeded) {
      // Seed evaluation (metered separately): the query's first results.
      PASS_RETURN_IF_ERROR(EvalAndMerge(query.get(), nullptr, /*seed=*/true));
      query->seeded = true;
      continue;
    }
    if (!query->shape.incremental) {
      ++stats_.full_evals;
      PASS_RETURN_IF_ERROR(EvalAndMerge(query.get(), nullptr, /*seed=*/false));
      continue;
    }
    // The affected-root walk is part of the incremental cost: its RPCs
    // count with the evaluation's.
    uint64_t walk_rpcs_before = source_.stats().remote_ops;
    PASS_ASSIGN_OR_RETURN(std::set<core::PnodeId> roots,
                          AffectedRoots(*query, delta.entries));
    stats_.eval_rpcs += source_.stats().remote_ops - walk_rpcs_before;
    stats_.affected_roots += roots.size();
    ++stats_.incremental_evals;
    PASS_RETURN_IF_ERROR(EvalAndMerge(query.get(), &roots, /*seed=*/false));
  }

  // Commit point: everything merged. Advance the cursor (a crash above
  // leaves it behind, and the next refresh re-reads a superset of this
  // delta into the same idempotent merges), then report what is newly
  // present.
  cursor_ = cluster_->CaptureFrontier();
  ++stats_.refreshes;

  std::vector<StandingNotification> notes;
  for (auto& [id, query] : queries_) {
    std::set<std::vector<std::string>> present;
    for (const auto& [root, rows] : query->rows_by_root) {
      for (const auto& [key, row] : rows) {
        if (present.insert(key).second && query->notified.count(key) == 0) {
          notes.push_back(StandingNotification{id, row});
        }
      }
    }
    // Retracted rows leave `notified`, so a later re-appearance re-notifies.
    query->notified = std::move(present);
  }
  stats_.notifications += notes.size();
  PublishMetrics();
  return notes;
}

Result<pql::QueryResult> StandingQueryTier::ResultOf(uint64_t id) const {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return NotFound("no such standing query");
  }
  const StandingQuery& query = *it->second;
  // Distinct rows, ordered by dedup key: deterministic and directly
  // comparable with a sorted from-scratch answer.
  std::map<std::vector<std::string>, const std::vector<pql::Value>*> merged;
  for (const auto& [root, rows] : query.rows_by_root) {
    for (const auto& [key, row] : rows) {
      merged.emplace(key, &row);
    }
  }
  pql::QueryResult out;
  out.columns = query.columns;
  out.rows.reserve(merged.size());
  for (const auto& [key, row] : merged) {
    out.rows.push_back(*row);
  }
  return out;
}

void StandingQueryTier::PublishMetrics() {
  obs::MetricRegistry& m = cluster_->env().obs().metrics();
  m.GetGauge("standing.queries").Set(static_cast<int64_t>(queries_.size()));
  m.GetGauge("standing.refreshes").Set(static_cast<int64_t>(stats_.refreshes));
  m.GetGauge("standing.frontier_entries")
      .Set(static_cast<int64_t>(stats_.frontier_entries));
  m.GetGauge("standing.affected_roots")
      .Set(static_cast<int64_t>(stats_.affected_roots));
  m.GetGauge("standing.rows_touched")
      .Set(static_cast<int64_t>(stats_.rows_touched));
  m.GetGauge("standing.notifications")
      .Set(static_cast<int64_t>(stats_.notifications));
  m.GetGauge("standing.full_evals")
      .Set(static_cast<int64_t>(stats_.full_evals));
  m.GetGauge("standing.walk_overflows")
      .Set(static_cast<int64_t>(stats_.walk_overflows));
}

}  // namespace pass::cluster
