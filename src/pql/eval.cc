#include "src/pql/eval.h"

#include <algorithm>
#include <set>

#include "src/pql/parser.h"
#include "src/util/strings.h"

namespace pass::pql {
namespace {

using Env = std::map<std::string, Node>;

// Splits `expr` into its top-level `and` conjuncts, left to right.
void SplitConjuncts(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == Expr::Kind::kBinary && expr.op == BinOp::kAnd) {
    SplitConjuncts(*expr.lhs, out);
    SplitConjuncts(*expr.rhs, out);
  } else {
    out->push_back(&expr);
  }
}

// Adds the variable-rooted paths `expr` uses to `paths`, outside subqueries.
// Returns false if `expr` holds a subquery.
bool CollectPaths(const Expr& expr, std::vector<const PathExpr*>* paths) {
  if (expr.subquery != nullptr) {
    return false;
  }
  if (expr.kind == Expr::Kind::kPath && !expr.path.from_provenance) {
    paths->push_back(&expr.path);
  }
  bool plain = true;
  for (const Expr* child : {expr.lhs.get(), expr.rhs.get()}) {
    if (child != nullptr) {
      plain = CollectPaths(*child, paths) && plain;
    }
  }
  return plain;
}

class Evaluator {
 public:
  Evaluator(const GraphSource* source, const QueryOptions& options)
      : source_(source), options_(options), limits_(options.limits) {}

  // `top_level` marks the query whose rows land in the caller-visible
  // result (the outermost query and its UNION branches): root attribution
  // applies only there, never inside subqueries.
  Result<QueryResult> EvalQuery(const Query& query, const Env& outer,
                                bool top_level = false);

 private:
  // Expand one link step (with closure) from a node set.
  Result<std::vector<Node>> ExpandStep(const std::vector<Node>& from,
                                       const PathStep& step);
  // Nodes denoted by a path (all steps must be links).
  Result<std::vector<Node>> PathNodes(const PathExpr& path, const Env& env);
  // Values denoted by a path (may end in one attribute step).
  Result<ValueSet> PathValues(const PathExpr& path, const Env& env);
  Result<ValueSet> EvalExpr(const Expr& expr, const Env& env);
  Result<bool> Truthy(const Expr& expr, const Env& env);

  // Makes `attr` of every node memoised, fetching the nodes not yet looked
  // up in one batched call.
  void Resolve(const std::string& attr, std::vector<Node> nodes);
  // Resolves every `Var.attr` path `exprs` use over the nodes `envs` bind:
  // one AttributeMany per attribute.
  void Prefetch(const std::vector<Env>& envs,
                const std::vector<const Expr*>& exprs);
  // Keeps the bindings every conjunct holds for, in order.
  Result<std::vector<Env>> Filter(std::vector<Env> envs,
                                  const std::vector<const Expr*>& conjuncts);

  static bool Compare(const Value& a, const Value& b, BinOp op);

  const GraphSource* source_;
  const QueryOptions& options_;
  const EvalLimits& limits_;
  // Attribute values looked up during this evaluation, by attribute, then
  // node (normalized).
  std::map<std::string, std::map<Node, ValueSet>> attributes_;
};

bool SetTruthy(const ValueSet& values) {
  if (values.empty()) {
    return false;
  }
  if (values.size() == 1 && values[0].is_bool()) {
    return values[0].AsBool();
  }
  if (values.size() == 1 && values[0].is_nil()) {
    return false;
  }
  return true;
}

bool Evaluator::Compare(const Value& a, const Value& b, BinOp op) {
  switch (op) {
    case BinOp::kEq:
      return a.Equals(b);
    case BinOp::kNeq:
      return !a.Equals(b);
    case BinOp::kLt:
      return a.Less(b);
    case BinOp::kLe:
      return a.Less(b) || a.Equals(b);
    case BinOp::kGt:
      return b.Less(a);
    case BinOp::kGe:
      return b.Less(a) || a.Equals(b);
    case BinOp::kLike:
      return a.is_string() && b.is_string() &&
             GlobMatch(b.AsString(), a.AsString());
    default:
      return false;
  }
}

Result<std::vector<Node>> Evaluator::ExpandStep(const std::vector<Node>& from,
                                                const PathStep& step) {
  // Every expansion hands the source whole frontiers (FollowMany), never
  // single nodes: a federated source ships one RPC per shard per hop.
  std::vector<Node> out;
  switch (step.closure) {
    case Closure::kOne:
    case Closure::kOptional: {
      if (step.closure == Closure::kOptional) {
        out = from;
      }
      for (const auto& next : source_->FollowMany(from, step.name,
                                                  step.inverse)) {
        out.insert(out.end(), next.begin(), next.end());
      }
      break;
    }
    case Closure::kStar:
    case Closure::kPlus: {
      // Level-synchronous BFS: each iteration expands the whole frontier in
      // one batched call.
      std::set<Node> seen;
      std::set<Node> visited(from.begin(), from.end());
      if (step.closure == Closure::kStar) {
        for (const Node& node : from) {
          if (seen.insert(node).second) {
            out.push_back(node);
          }
        }
      }
      std::vector<Node> frontier(visited.begin(), visited.end());
      while (!frontier.empty()) {
        std::vector<Node> next_frontier;
        for (const auto& nexts : source_->FollowMany(frontier, step.name,
                                                     step.inverse)) {
          for (const Node& next : nexts) {
            if (seen.insert(next).second) {
              out.push_back(next);
              if (out.size() > limits_.max_closure_nodes) {
                return Unavailable("closure expansion exceeds limit");
              }
            }
            if (visited.insert(next).second) {
              next_frontier.push_back(next);
            }
          }
        }
        frontier = std::move(next_frontier);
      }
      break;
    }
  }
  // Set semantics on nodes.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<std::vector<Node>> Evaluator::PathNodes(const PathExpr& path,
                                               const Env& env) {
  std::vector<Node> nodes;
  if (path.from_provenance) {
    nodes = source_->RootSet(path.root_set);
  } else {
    auto it = env.find(path.variable);
    if (it == env.end()) {
      return NotFound("unbound variable '" + path.variable + "'");
    }
    nodes.push_back(it->second);
  }
  for (const PathStep& step : path.steps) {
    if (!source_->IsLink(step.name)) {
      return InvalidArgument("'" + step.name +
                             "' is not a link (attribute used in a path "
                             "binding)");
    }
    PASS_ASSIGN_OR_RETURN(nodes, ExpandStep(nodes, step));
  }
  return nodes;
}

Result<ValueSet> Evaluator::PathValues(const PathExpr& path, const Env& env) {
  // Split: leading link steps, optional trailing attribute step.
  PathExpr prefix = path;
  std::string attr;
  if (!path.steps.empty() && !source_->IsLink(path.steps.back().name)) {
    attr = path.steps.back().name;
    prefix.steps.pop_back();
  }
  PASS_ASSIGN_OR_RETURN(std::vector<Node> nodes, PathNodes(prefix, env));
  ValueSet out;
  if (attr.empty()) {
    out.reserve(nodes.size());
    for (const Node& node : nodes) {
      out.push_back(Value(node));
    }
    return out;
  }
  Resolve(attr, nodes);
  const std::map<Node, ValueSet>& known = attributes_[attr];
  for (const Node& node : nodes) {
    const ValueSet& values = known.at(node);
    out.insert(out.end(), values.begin(), values.end());
  }
  Normalize(&out);
  return out;
}

void Evaluator::Resolve(const std::string& attr, std::vector<Node> nodes) {
  std::map<Node, ValueSet>& known = attributes_[attr];
  std::erase_if(nodes, [&](const Node& node) { return known.contains(node); });
  if (nodes.empty()) {
    return;
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::vector<ValueSet> values = source_->AttributeMany(nodes, attr);
  for (size_t i = 0; i < nodes.size(); ++i) {
    Normalize(&values[i]);
    known.emplace(nodes[i], std::move(values[i]));
  }
}

void Evaluator::Prefetch(const std::vector<Env>& envs,
                         const std::vector<const Expr*>& exprs) {
  std::vector<const PathExpr*> paths;
  for (const Expr* expr : exprs) {
    CollectPaths(*expr, &paths);
  }
  std::map<std::string, std::vector<Node>> wanted;
  for (const PathExpr* path : paths) {
    if (path->steps.size() != 1 || source_->IsLink(path->steps[0].name)) {
      continue;
    }
    std::vector<Node>& nodes = wanted[path->steps[0].name];
    for (const Env& env : envs) {
      auto it = env.find(path->variable);
      if (it != env.end()) {
        nodes.push_back(it->second);
      }
    }
  }
  for (auto& [attr, nodes] : wanted) {
    Resolve(attr, std::move(nodes));
  }
}

Result<std::vector<Env>> Evaluator::Filter(
    std::vector<Env> envs, const std::vector<const Expr*>& conjuncts) {
  if (conjuncts.empty()) {
    return envs;
  }
  Prefetch(envs, conjuncts);
  std::vector<Env> kept;
  for (Env& env : envs) {
    bool keep = true;
    for (const Expr* conjunct : conjuncts) {
      PASS_ASSIGN_OR_RETURN(keep, Truthy(*conjunct, env));
      if (!keep) {
        break;
      }
    }
    if (keep) {
      kept.push_back(std::move(env));
    }
  }
  return kept;
}

Result<bool> Evaluator::Truthy(const Expr& expr, const Env& env) {
  PASS_ASSIGN_OR_RETURN(ValueSet values, EvalExpr(expr, env));
  return SetTruthy(values);
}

Result<ValueSet> Evaluator::EvalExpr(const Expr& expr, const Env& env) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return ValueSet{expr.literal};
    case Expr::Kind::kPath:
      return PathValues(expr.path, env);
    case Expr::Kind::kNot: {
      PASS_ASSIGN_OR_RETURN(bool inner, Truthy(*expr.lhs, env));
      return ValueSet{Value(!inner)};
    }
    case Expr::Kind::kExists: {
      if (expr.subquery != nullptr) {
        PASS_ASSIGN_OR_RETURN(QueryResult result,
                              EvalQuery(*expr.subquery, env));
        return ValueSet{Value(!result.rows.empty())};
      }
      PASS_ASSIGN_OR_RETURN(ValueSet values, EvalExpr(*expr.lhs, env));
      return ValueSet{Value(!values.empty())};
    }
    case Expr::Kind::kSubquery: {
      PASS_ASSIGN_OR_RETURN(QueryResult result, EvalQuery(*expr.subquery, env));
      return result.Flatten();
    }
    case Expr::Kind::kAggregate: {
      ValueSet operand;
      if (expr.subquery != nullptr) {
        PASS_ASSIGN_OR_RETURN(QueryResult result,
                              EvalQuery(*expr.subquery, env));
        operand = result.Flatten();
      } else {
        PASS_ASSIGN_OR_RETURN(operand, EvalExpr(*expr.lhs, env));
      }
      switch (expr.aggregate) {
        case Aggregate::kCount:
          return ValueSet{Value(static_cast<int64_t>(operand.size()))};
        case Aggregate::kSum:
        case Aggregate::kAvg: {
          double sum = 0;
          size_t n = 0;
          for (const Value& value : operand) {
            if (value.is_numeric()) {
              sum += value.AsReal();
              ++n;
            }
          }
          if (expr.aggregate == Aggregate::kSum) {
            return ValueSet{Value(sum)};
          }
          return ValueSet{Value(n == 0 ? 0.0 : sum / static_cast<double>(n))};
        }
        case Aggregate::kMin:
        case Aggregate::kMax: {
          if (operand.empty()) {
            return ValueSet{Value()};
          }
          const Value* best = &operand[0];
          for (const Value& value : operand) {
            bool better = expr.aggregate == Aggregate::kMin
                              ? value.Less(*best)
                              : best->Less(value);
            if (better) {
              best = &value;
            }
          }
          return ValueSet{*best};
        }
      }
      return ValueSet{};
    }
    case Expr::Kind::kBinary: {
      if (expr.op == BinOp::kAnd || expr.op == BinOp::kOr) {
        PASS_ASSIGN_OR_RETURN(bool lhs, Truthy(*expr.lhs, env));
        if (expr.op == BinOp::kAnd && !lhs) {
          return ValueSet{Value(false)};
        }
        if (expr.op == BinOp::kOr && lhs) {
          return ValueSet{Value(true)};
        }
        PASS_ASSIGN_OR_RETURN(bool rhs, Truthy(*expr.rhs, env));
        return ValueSet{Value(rhs)};
      }
      PASS_ASSIGN_OR_RETURN(ValueSet lhs, EvalExpr(*expr.lhs, env));
      PASS_ASSIGN_OR_RETURN(ValueSet rhs, EvalExpr(*expr.rhs, env));
      if (expr.op == BinOp::kIn) {
        for (const Value& a : lhs) {
          for (const Value& b : rhs) {
            if (a.Equals(b)) {
              return ValueSet{Value(true)};
            }
          }
        }
        return ValueSet{Value(false)};
      }
      // Existential comparison (Lorel semantics).
      for (const Value& a : lhs) {
        for (const Value& b : rhs) {
          if (Compare(a, b, expr.op)) {
            return ValueSet{Value(true)};
          }
        }
      }
      return ValueSet{Value(false)};
    }
  }
  return InvalidArgument("unknown expression kind");
}

Result<QueryResult> Evaluator::EvalQuery(const Query& query, const Env& outer,
                                         bool top_level) {
  // Place each top-level `where` conjunct at the binding level after which
  // it can run: level 0 holds the outer bindings, level i + 1 follows FROM
  // item i. A conjunct runs once the last variable it names is bound; one
  // that holds a subquery or names an unbound variable runs after the last
  // FROM item.
  const size_t last = query.froms.size();
  std::map<std::string, size_t> level_of;
  for (const auto& [variable, node] : outer) {
    level_of[variable] = 0;
  }
  for (size_t i = 0; i < last; ++i) {
    level_of[query.froms[i].variable] = i + 1;
  }
  std::vector<std::vector<const Expr*>> conjuncts(last + 1);
  if (query.where != nullptr) {
    std::vector<const Expr*> split;
    SplitConjuncts(*query.where, &split);
    for (const Expr* conjunct : split) {
      std::vector<const PathExpr*> paths;
      size_t level = CollectPaths(*conjunct, &paths) ? 0 : last;
      for (const PathExpr* path : paths) {
        auto it = level_of.find(path->variable);
        level = std::max(level, it == level_of.end() ? last : it->second);
      }
      conjuncts[level].push_back(conjunct);
    }
  }

  // Build binding tuples from the FROM list, filtering each level by its
  // conjuncts before the next level expands; survivors keep their order.
  PASS_ASSIGN_OR_RETURN(std::vector<Env> envs, Filter({outer}, conjuncts[0]));
  for (size_t level = 1; level <= last; ++level) {
    const FromItem& item = query.froms[level - 1];
    std::vector<Env> next;
    for (const Env& env : envs) {
      PASS_ASSIGN_OR_RETURN(std::vector<Node> nodes, PathNodes(item.path, env));
      for (const Node& node : nodes) {
        Env extended = env;
        extended[item.variable] = node;
        next.push_back(std::move(extended));
        if (next.size() > limits_.max_bindings) {
          return Unavailable("binding set exceeds limit");
        }
      }
    }
    PASS_ASSIGN_OR_RETURN(envs, Filter(std::move(next), conjuncts[level]));
  }

  QueryResult result;
  for (size_t i = 0; i < query.selects.size(); ++i) {
    const SelectItem& item = query.selects[i];
    result.columns.push_back(
        item.alias.empty() ? StrFormat("col%zu", i) : item.alias);
    if (item.alias.empty() && item.expr.kind == Expr::Kind::kPath) {
      std::string name = item.expr.path.variable;
      for (const PathStep& step : item.expr.path.steps) {
        name += "." + step.name;
      }
      if (!name.empty()) {
        result.columns.back() = name;
      }
    }
  }

  // Root attribution (QueryOptions::attribute_roots, top level only): each
  // emitted row remembers the first-FROM binding it came from, and the
  // dedup key is (root, row) instead of (row) — the same textual row
  // contributed by two roots survives once per root, so an incremental
  // evaluator can drop one root's rows without losing the other's. Callers
  // comparing against an unattributed run must compare rows as sets.
  bool attribute = top_level && options_.attribute_roots;
  std::string root_var =
      query.froms.empty() ? std::string() : query.froms.front().variable;

  std::vector<const Expr*> select_exprs;
  for (const SelectItem& item : query.selects) {
    select_exprs.push_back(&item.expr);
  }
  Prefetch(envs, select_exprs);

  std::set<std::vector<std::string>> seen_rows;
  for (const Env& env : envs) {
    Node root{};
    std::string root_token;
    if (attribute && !root_var.empty()) {
      root = env.at(root_var);
      root_token = root.ToString();
    }
    // Evaluate select items; emit the cross product of their value sets
    // (each set is usually a singleton).
    std::vector<ValueSet> cells;
    for (const SelectItem& item : query.selects) {
      PASS_ASSIGN_OR_RETURN(ValueSet values, EvalExpr(item.expr, env));
      if (values.empty()) {
        values.push_back(Value());
      }
      cells.push_back(std::move(values));
    }
    std::vector<size_t> index(cells.size(), 0);
    for (;;) {
      std::vector<Value> row;
      std::vector<std::string> row_key;
      row.reserve(cells.size());
      if (attribute) {
        row_key.push_back(root_token);
      }
      for (size_t i = 0; i < cells.size(); ++i) {
        row.push_back(cells[i][index[i]]);
        row_key.push_back(row.back().ToString());
      }
      if (seen_rows.insert(row_key).second) {
        result.rows.push_back(std::move(row));
        if (attribute) {
          result.roots.push_back(root);
        }
      }
      // Advance the odometer.
      size_t i = 0;
      for (; i < cells.size(); ++i) {
        if (++index[i] < cells[i].size()) {
          break;
        }
        index[i] = 0;
      }
      if (i == cells.size()) {
        break;
      }
    }
  }

  if (query.union_with != nullptr) {
    PASS_ASSIGN_OR_RETURN(QueryResult other,
                          EvalQuery(*query.union_with, outer, top_level));
    for (size_t r = 0; r < other.rows.size(); ++r) {
      auto& row = other.rows[r];
      std::vector<std::string> row_key;
      row_key.reserve(row.size() + 1);
      if (attribute) {
        row_key.push_back(other.roots[r].ToString());
      }
      for (const Value& value : row) {
        row_key.push_back(value.ToString());
      }
      if (seen_rows.insert(row_key).second) {
        result.rows.push_back(std::move(row));
        if (attribute) {
          result.roots.push_back(other.roots[r]);
        }
      }
    }
  }
  return result;
}

}  // namespace

std::string QueryResult::ToTable(const GraphSource* source) const {
  std::vector<std::vector<std::string>> cells;
  cells.push_back(columns);
  for (const auto& row : rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (const Value& value : row) {
      if (value.is_node() && source != nullptr) {
        line.push_back(source->NodeLabel(value.AsNode()));
      } else {
        line.push_back(value.ToString());
      }
    }
    cells.push_back(std::move(line));
  }
  std::vector<size_t> widths(columns.size(), 0);
  for (const auto& line : cells) {
    for (size_t i = 0; i < line.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], line[i].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t i = 0; i < cells[r].size(); ++i) {
      out += StrFormat("%-*s  ", static_cast<int>(widths[i]),
                       cells[r][i].c_str());
    }
    out += "\n";
    if (r == 0) {
      for (size_t i = 0; i < widths.size(); ++i) {
        out += std::string(widths[i], '-') + "  ";
      }
      out += "\n";
    }
  }
  return out;
}

ValueSet QueryResult::Flatten() const {
  ValueSet out;
  for (const auto& row : rows) {
    out.insert(out.end(), row.begin(), row.end());
  }
  Normalize(&out);
  return out;
}

std::vector<std::string> QueryResult::RowKeys() const {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const auto& row : rows) {
    keys.push_back(RowKey(row));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::string RowKey(const std::vector<Value>& row) {
  std::string key;
  for (const Value& value : row) {
    key += value.ToString();
    key += '|';
  }
  return key;
}

Result<QueryResult> Engine::Run(std::string_view text,
                                const QueryOptions& options) const {
  PASS_ASSIGN_OR_RETURN(std::unique_ptr<Query> query, ParseQuery(text));
  return Evaluate(*query, options);
}

Result<QueryResult> Engine::Evaluate(const Query& query,
                                     const QueryOptions& options) const {
  Evaluator evaluator(source_, options);
  return evaluator.EvalQuery(query, {}, /*top_level=*/true);
}

}  // namespace pass::pql
