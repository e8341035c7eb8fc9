// Tests for PQL (§5.7): lexer, parser, and evaluator — including the
// paper's sample anomaly query over a hand-built provenance graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/pql/eval.h"
#include "src/pql/lexer.h"
#include "src/pql/parser.h"
#include "src/pql/provdb_source.h"
#include "src/util/rng.h"
#include "src/waldo/provdb.h"

namespace pass::pql {
namespace {

TEST(PqlLexerTest, TokenizesSampleQuery) {
  auto tokens = Tokenize(
      "select Ancestor from Provenance.file as Atlas "
      "Atlas.input* as Ancestor where Atlas.name = \"atlas-x.gif\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens->front().kind, TokenKind::kSelect);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
  size_t stars = 0;
  for (const Token& token : *tokens) {
    if (token.kind == TokenKind::kStar) {
      ++stars;
    }
  }
  EXPECT_EQ(stars, 1u);
}

TEST(PqlLexerTest, KeywordsCaseInsensitive) {
  auto tokens = Tokenize("SELECT x FROM Provenance.file AS x");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kSelect);
}

TEST(PqlLexerTest, NumbersAndStrings) {
  auto tokens = Tokenize("42 3.5 'single' \"double\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_DOUBLE_EQ((*tokens)[1].real_value, 3.5);
  EXPECT_EQ((*tokens)[2].text, "single");
  EXPECT_EQ((*tokens)[3].text, "double");
}

TEST(PqlLexerTest, CommentsSkipped) {
  auto tokens = Tokenize("select -- a comment\n x from Provenance.file as x");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "x");
}

TEST(PqlLexerTest, ErrorsOnBadInput) {
  EXPECT_FALSE(Tokenize("select `x`").ok());
  EXPECT_FALSE(Tokenize("select \"unterminated").ok());
}

TEST(PqlParserTest, PaperSampleStructure) {
  auto query = ParseQuery(
      "select Ancestor\n"
      "from Provenance.file as Atlas\n"
      "     Atlas.input* as Ancestor\n"
      "where Atlas.name = \"atlas-x.gif\"");
  ASSERT_TRUE(query.ok());
  ASSERT_EQ((*query)->froms.size(), 2u);
  EXPECT_TRUE((*query)->froms[0].path.from_provenance);
  EXPECT_EQ((*query)->froms[0].path.root_set, "file");
  EXPECT_EQ((*query)->froms[0].variable, "Atlas");
  EXPECT_EQ((*query)->froms[1].path.variable, "Atlas");
  ASSERT_EQ((*query)->froms[1].path.steps.size(), 1u);
  EXPECT_EQ((*query)->froms[1].path.steps[0].closure, Closure::kStar);
  ASSERT_NE((*query)->where, nullptr);
}

TEST(PqlParserTest, InverseAndClosures) {
  auto query = ParseQuery(
      "select d from Provenance.file as f f.~input+ as d");
  ASSERT_TRUE(query.ok());
  const PathStep& step = (*query)->froms[1].path.steps[0];
  EXPECT_TRUE(step.inverse);
  EXPECT_EQ(step.closure, Closure::kPlus);
}

TEST(PqlParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("select").ok());
  EXPECT_FALSE(ParseQuery("select x").ok());
  EXPECT_FALSE(ParseQuery("select x from").ok());
  EXPECT_FALSE(ParseQuery("select x from Provenance.file").ok());  // no 'as'
  EXPECT_FALSE(ParseQuery("from Provenance.file as x").ok());
  EXPECT_FALSE(ParseQuery("select x from Provenance.file as x extra!").ok());
}

// Deep nesting is a parse error, never a stack overflow: every AST the parser
// accepts is bounded in depth, and so is every walk over one.
TEST(PqlParserTest, RejectsNestingDeeperThanTheBound) {
  auto parse_where = [](const std::string& where) {
    return ParseQuery("select f from Provenance.file as f where " + where);
  };
  const int kParens = 20000;
  auto parens = parse_where(std::string(kParens, '(') + "f.pnode = 1" +
                            std::string(kParens, ')'));
  ASSERT_FALSE(parens.ok());
  EXPECT_EQ(parens.status().code(), Code::kInvalidArgument);

  std::string nots;
  for (int i = 0; i < 100000; ++i) {
    nots += "not ";
  }
  auto not_chain = parse_where(nots + "f.pnode = 1");
  ASSERT_FALSE(not_chain.ok());
  EXPECT_EQ(not_chain.status().code(), Code::kInvalidArgument);

  std::string terms = "f.pnode = 0";
  for (int i = 1; i < 100000; ++i) {
    terms += " and f.pnode = " + std::to_string(i);
  }
  auto and_chain = parse_where(terms);
  ASSERT_FALSE(and_chain.ok());
  EXPECT_EQ(and_chain.status().code(), Code::kInvalidArgument);

  std::string unions = "select f from Provenance.file as f";
  for (int i = 0; i < 20000; ++i) {
    unions += " union select f from Provenance.file as f";
  }
  auto union_chain = ParseQuery(unions);
  ASSERT_FALSE(union_chain.ok());
  EXPECT_EQ(union_chain.status().code(), Code::kInvalidArgument);

  EXPECT_TRUE(
      parse_where("((f.pnode = 1 and not (f.pnode = 2)) or f.pnode = 3)").ok());
}

// The deepest `and` chain and `not` chain the parser accepts still
// evaluate: the bound keeps the evaluator's recursion within the stack.
TEST(PqlParserTest, DeepestAcceptedChainsEvaluate) {
  waldo::ProvDb db;
  db.Insert({{1, 0}, core::Record::Type("FILE")});
  ProvDbSource source(&db);
  Engine engine(&source);
  const std::string select = "select f from Provenance.file as f where ";
  std::string deepest_and;
  for (std::string chain = "f.pnode = 1"; ParseQuery(select + chain).ok();
       chain += " and f.pnode = 1") {
    deepest_and = chain;
  }
  std::string deepest_not;
  for (std::string chain = "f.pnode = 1"; ParseQuery(select + chain).ok();
       chain = "not not " + chain) {
    deepest_not = chain;
  }
  for (const std::string& where : {deepest_and, deepest_not}) {
    auto result = engine.Run(select + where);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->rows.size(), 1u);
  }
}

TEST(PqlParserTest, SubqueryAndAggregates) {
  auto query = ParseQuery(
      "select count(f.input*) as n from Provenance.file as f "
      "where f in (select g from Provenance.file as g)");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ((*query)->selects[0].expr.kind, Expr::Kind::kAggregate);
  EXPECT_EQ((*query)->selects[0].alias, "n");
}

// ---- Evaluation over a known graph -------------------------------------------
//
// Graph (paper Figure 1 in miniature):
//   atlas-x.gif(p1) <- softmean(p2, PROC) <- reslice1(p3, PROC)
//   softmean <- anatomy1.img(p4, FILE), reslice1 <- anatomy2.img(p5, FILE)
//   other.gif(p6) <- otherproc(p7)

class PqlEvalTest : public ::testing::Test {
 protected:
  PqlEvalTest() : source_(&db_), engine_(&source_) {
    Put({1, 0}, core::Record::Name("atlas-x.gif"));
    Put({1, 0}, core::Record::Type("FILE"));
    Put({2, 0}, core::Record::Name("softmean"));
    Put({2, 0}, core::Record::Type("PROC"));
    Put({3, 0}, core::Record::Name("reslice1"));
    Put({3, 0}, core::Record::Type("PROC"));
    Put({4, 0}, core::Record::Name("anatomy1.img"));
    Put({4, 0}, core::Record::Type("FILE"));
    Put({5, 0}, core::Record::Name("anatomy2.img"));
    Put({5, 0}, core::Record::Type("FILE"));
    Put({6, 0}, core::Record::Name("other.gif"));
    Put({6, 0}, core::Record::Type("FILE"));
    Put({7, 0}, core::Record::Name("otherproc"));
    Put({7, 0}, core::Record::Type("PROC"));

    Edge({1, 0}, {2, 0});  // atlas <- softmean
    Edge({2, 0}, {3, 0});  // softmean <- reslice1
    Edge({2, 0}, {4, 0});  // softmean <- anatomy1
    Edge({3, 0}, {5, 0});  // reslice1 <- anatomy2
    Edge({6, 0}, {7, 0});  // other <- otherproc
  }

  void Put(core::ObjectRef ref, core::Record record) {
    db_.Insert({ref, std::move(record)});
  }
  void Edge(core::ObjectRef child, core::ObjectRef parent) {
    db_.Insert({child, core::Record::Input(parent)});
  }

  std::set<std::string> NamesIn(const QueryResult& result) {
    std::set<std::string> names;
    for (const auto& row : result.rows) {
      for (const Value& value : row) {
        if (value.is_node()) {
          names.insert(db_.NameOf(value.AsNode().pnode));
        } else {
          names.insert(value.ToString());
        }
      }
    }
    return names;
  }

  waldo::ProvDb db_;
  ProvDbSource source_;
  Engine engine_;
};

TEST_F(PqlEvalTest, PaperSampleQueryFindsAllAncestors) {
  auto result = engine_.Run(
      "select Ancestor\n"
      "from Provenance.file as Atlas\n"
      "     Atlas.input* as Ancestor\n"
      "where Atlas.name = \"atlas-x.gif\"");
  ASSERT_TRUE(result.ok());
  auto names = NamesIn(*result);
  // Zero-or-more closure includes the file itself plus the full chain.
  EXPECT_EQ(names,
            (std::set<std::string>{"atlas-x.gif", "softmean", "reslice1",
                                   "anatomy1.img", "anatomy2.img"}));
}

TEST_F(PqlEvalTest, PlusClosureExcludesSelf) {
  auto result = engine_.Run(
      "select a from Provenance.file as f f.input+ as a "
      "where f.name = \"atlas-x.gif\"");
  ASSERT_TRUE(result.ok());
  auto names = NamesIn(*result);
  EXPECT_EQ(names.count("atlas-x.gif"), 0u);
  EXPECT_EQ(names.count("softmean"), 1u);
}

TEST_F(PqlEvalTest, SingleStepOnlyDirectAncestors) {
  auto result = engine_.Run(
      "select a from Provenance.file as f f.input as a "
      "where f.name = \"atlas-x.gif\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamesIn(*result), (std::set<std::string>{"softmean"}));
}

TEST_F(PqlEvalTest, InverseTraversalFindsDescendants) {
  auto result = engine_.Run(
      "select d from Provenance.file as f f.~input* as d "
      "where f.name = \"anatomy2.img\"");
  ASSERT_TRUE(result.ok());
  auto names = NamesIn(*result);
  EXPECT_EQ(names,
            (std::set<std::string>{"anatomy2.img", "reslice1", "softmean",
                                   "atlas-x.gif"}));
}

TEST_F(PqlEvalTest, RootSetsFilterByType) {
  auto files = engine_.Run("select f from Provenance.file as f");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->rows.size(), 4u);
  auto procs = engine_.Run("select p from Provenance.process as p");
  ASSERT_TRUE(procs.ok());
  EXPECT_EQ(procs->rows.size(), 3u);
  auto all = engine_.Run("select o from Provenance.object as o");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 7u);
}

TEST_F(PqlEvalTest, AttributeProjection) {
  auto result = engine_.Run(
      "select a.name from Provenance.file as f f.input+ as a "
      "where f.name = \"other.gif\"");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].ToString(), "otherproc");
}

TEST_F(PqlEvalTest, MultiColumnSelect) {
  auto result = engine_.Run(
      "select f.name, count(f.input+) as ancestors "
      "from Provenance.file as f where f.name like \"atlas*\"");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].ToString(), "atlas-x.gif");
  EXPECT_EQ(result->rows[0][1].AsInt(), 4);
  EXPECT_EQ(result->columns[1], "ancestors");
}

TEST_F(PqlEvalTest, LikeGlobMatching) {
  auto result = engine_.Run(
      "select f.name from Provenance.file as f "
      "where f.name like \"*.img\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamesIn(*result),
            (std::set<std::string>{"anatomy1.img", "anatomy2.img"}));
}

TEST_F(PqlEvalTest, SubqueryWithIn) {
  // Files whose ancestry includes any PROC named softmean.
  auto result = engine_.Run(
      "select f.name from Provenance.file as f "
      "where \"softmean\" in (select a.name from f.input+ as a)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamesIn(*result), (std::set<std::string>{"atlas-x.gif"}));
}

TEST_F(PqlEvalTest, ExistsOverPath) {
  auto result = engine_.Run(
      "select f.name from Provenance.file as f "
      "where not exists(f.input)");
  ASSERT_TRUE(result.ok());
  // Leaves: files with no ancestors.
  EXPECT_EQ(NamesIn(*result),
            (std::set<std::string>{"anatomy1.img", "anatomy2.img"}));
}

TEST_F(PqlEvalTest, UnionMergesAndDedups) {
  auto result = engine_.Run(
      "select f.name from Provenance.file as f where f.name like \"*.img\" "
      "union "
      "select g.name from Provenance.file as g where g.name like "
      "\"anatomy1*\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(PqlEvalTest, AggregatesOverSubquery) {
  auto result = engine_.Run(
      "select count(select f from Provenance.file as f) as files "
      "from Provenance.object as unused_root "
      "where unused_root.pnode = 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt(), 4);
}

TEST_F(PqlEvalTest, NumericComparisonOnVirtualAttrs) {
  auto result = engine_.Run(
      "select o.pnode from Provenance.object as o where o.pnode <= 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(PqlEvalTest, UnboundVariableErrors) {
  auto result = engine_.Run(
      "select x from Provenance.file as f where ghost.name = \"x\"");
  EXPECT_FALSE(result.ok());
}

TEST_F(PqlEvalTest, CyclicVersionGraphDoesNotHang) {
  // Defensive: even a (corrupt) cyclic edge set terminates under closure.
  Edge({8, 0}, {9, 0});
  Edge({9, 0}, {8, 0});
  Put({8, 0}, core::Record::Type("FILE"));
  Put({8, 0}, core::Record::Name("cyc-a"));
  auto result = engine_.Run(
      "select a from Provenance.file as f f.input* as a "
      "where f.name = \"cyc-a\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(PqlEvalTest, TableRenderingIncludesLabels) {
  auto result = engine_.Run(
      "select f from Provenance.file as f where f.name = \"atlas-x.gif\"");
  ASSERT_TRUE(result.ok());
  std::string table = result->ToTable(&source_);
  EXPECT_NE(table.find("atlas-x.gif"), std::string::npos);
  EXPECT_NE(table.find("p1.v0"), std::string::npos);
}

// ---- Batched frontier ops ---------------------------------------------------

// Wraps a source and counts single-node vs batched calls: the evaluator
// must drive every link traversal and attribute lookup through the batched
// ops (whole frontiers), never the single-node fallbacks — that contract is
// what lets the federated source ship one RPC per shard per hop.
class CountingSource : public GraphSource {
 public:
  explicit CountingSource(const GraphSource* inner) : inner_(inner) {}

  std::vector<Node> RootSet(const std::string& name) const override {
    return inner_->RootSet(name);
  }
  ValueSet Attribute(const Node& node, const std::string& attr) const override {
    ++single_attribute_calls;
    return inner_->Attribute(node, attr);
  }
  std::vector<Node> Follow(const Node& node, const std::string& link,
                           bool inverse) const override {
    ++single_follow_calls;
    return inner_->Follow(node, link, inverse);
  }
  std::vector<std::vector<Node>> FollowMany(const std::vector<Node>& nodes,
                                            const std::string& link,
                                            bool inverse) const override {
    ++follow_many_calls;
    max_follow_batch = std::max(max_follow_batch, nodes.size());
    followed.insert(nodes.begin(), nodes.end());
    return inner_->FollowMany(nodes, link, inverse);
  }
  std::vector<ValueSet> AttributeMany(const std::vector<Node>& nodes,
                                      const std::string& attr) const override {
    ++attribute_many_calls;
    ++attribute_calls_by_name[attr];
    return inner_->AttributeMany(nodes, attr);
  }
  bool IsLink(const std::string& name) const override {
    return inner_->IsLink(name);
  }
  std::string NodeLabel(const Node& node) const override {
    return inner_->NodeLabel(node);
  }

  mutable uint64_t single_follow_calls = 0;
  mutable uint64_t single_attribute_calls = 0;
  mutable uint64_t follow_many_calls = 0;
  mutable uint64_t attribute_many_calls = 0;
  mutable size_t max_follow_batch = 0;
  mutable std::map<std::string, uint64_t> attribute_calls_by_name;
  mutable std::set<Node> followed;  // every node handed to FollowMany

 private:
  const GraphSource* inner_;
};

TEST_F(PqlEvalTest, EvaluatorTraversesWholeFrontiersThroughBatchedOps) {
  CountingSource counting(&source_);
  Engine counting_engine(&counting);
  const std::string query =
      "select Ancestor from Provenance.file as F F.input* as Ancestor "
      "where F.name = \"atlas-x.gif\"";
  auto batched = counting_engine.Run(query);
  ASSERT_TRUE(batched.ok());

  // Never the single-node fallbacks, always the batched ops.
  EXPECT_EQ(counting.single_follow_calls, 0u);
  EXPECT_EQ(counting.single_attribute_calls, 0u);
  EXPECT_GT(counting.follow_many_calls, 0u);
  EXPECT_GT(counting.attribute_many_calls, 0u);
  // Level-synchronous BFS: softmean's two ancestors (reslice1, anatomy1)
  // expand as one two-node frontier, not two calls.
  EXPECT_EQ(counting.max_follow_batch, 2u);

  // Batching changes the call pattern, not the answer.
  auto plain = engine_.Run(query);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(NamesIn(*batched), NamesIn(*plain));
}

// ProvDbSource implements only the batched core; its single-node
// Follow/Attribute are GraphSource's defaulted frontier-of-one wrappers and
// must agree with the batched answers element-wise.
TEST_F(PqlEvalTest, DefaultSingleNodeOpsMatchBatchedCore) {
  std::vector<Node> nodes = source_.RootSet("file");
  ASSERT_FALSE(nodes.empty());
  auto follows = source_.FollowMany(nodes, "input", /*inverse=*/false);
  auto attrs = source_.AttributeMany(nodes, "name");
  ASSERT_EQ(follows.size(), nodes.size());
  ASSERT_EQ(attrs.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(follows[i], source_.Follow(nodes[i], "input", false));
    EXPECT_EQ(attrs[i].size(), source_.Attribute(nodes[i], "name").size());
  }
}

// A `where` conjunct runs as soon as the FROM item binding its last variable
// has: the name test picks one root before any closure is walked, and the
// name of every file is fetched in one batched lookup.
TEST(PqlPushdownTest, FilteredRootWalksOneClosureAfterOneBatchedLookup) {
  // Eight independent chains /out<i> <- proc<i> <- /in<i>.
  waldo::ProvDb db;
  const int kChains = 8;
  for (int i = 0; i < kChains; ++i) {
    core::ObjectRef out{static_cast<core::PnodeId>(3 * i + 1), 0};
    core::ObjectRef proc{out.pnode + 1, 0};
    core::ObjectRef in{out.pnode + 2, 0};
    db.Insert({out, core::Record::Name("/out" + std::to_string(i))});
    db.Insert({out, core::Record::Type("FILE")});
    db.Insert({proc, core::Record::Name("proc" + std::to_string(i))});
    db.Insert({proc, core::Record::Type("PROC")});
    db.Insert({in, core::Record::Name("/in" + std::to_string(i))});
    db.Insert({in, core::Record::Type("FILE")});
    db.Insert({out, core::Record::Input(proc)});
    db.Insert({proc, core::Record::Input(in)});
  }
  ProvDbSource source(&db);
  CountingSource counting(&source);
  auto result = Engine(&counting).Run(
      "select A from Provenance.file as F F.input* as A "
      "where F.name = \"/out3\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);  // /out3, proc3, /in3

  EXPECT_EQ(counting.attribute_calls_by_name,
            (std::map<std::string, uint64_t>{{"name", 1}}));
  // One closure walk: /out3's, one FollowMany per BFS level.
  EXPECT_EQ(counting.followed,
            (std::set<Node>{{10, 0}, {11, 0}, {12, 0}}));
  EXPECT_EQ(counting.follow_many_calls, 3u);
}

// Differential check of conjunct placement over generated graphs and
// queries: `where W` must give exactly the rows of `where (W) or
// <last variable>.pnode < 0`, whose one conjunct can only run after the
// last FROM item, i.e. where the whole clause ran before placement existed.
TEST(PqlPushdownTest, PlacedConjunctsMatchWhereAfterTheLastBinding) {
  const std::vector<std::string> kRootSets = {"file", "process", "object"};
  const std::vector<std::string> kSteps = {"input",   "input*", "input+",
                                           "input?",  "~input", "~input*",
                                           "~input+", "~input?"};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    waldo::ProvDb db;
    const int objects = static_cast<int>(rng.NextRange(4, 12));
    for (int i = 1; i <= objects; ++i) {
      core::ObjectRef ref{static_cast<core::PnodeId>(i), 0};
      db.Insert({ref, core::Record::Name(std::string("n").append(
                          std::to_string(i)))});
      db.Insert({ref, core::Record::Type(rng.NextBool() ? "FILE" : "PROC")});
      db.Insert({ref, core::Record::Annotation(
                          "tag", static_cast<int64_t>(rng.NextBelow(3)))});
    }
    for (int e = static_cast<int>(rng.NextBelow(2 * objects)); e > 0; --e) {
      core::ObjectRef child{rng.NextRange(1, objects), 0};
      core::ObjectRef parent{rng.NextRange(1, objects), 0};
      db.Insert({child, core::Record::Input(parent)});
    }
    ProvDbSource source(&db);
    Engine engine(&source);

    for (int q = 0; q < 25; ++q) {
      std::vector<std::string> vars;
      std::string from = "Provenance." +
                         kRootSets[rng.NextBelow(kRootSets.size())] + " as V0";
      vars.push_back("V0");
      for (int i = 1, n = static_cast<int>(rng.NextRange(1, 3)); i < n; ++i) {
        std::string var = "V";
        var += std::to_string(i);
        if (rng.NextBool(0.2)) {
          from += " Provenance." + kRootSets[rng.NextBelow(kRootSets.size())];
        } else {
          from += " " + vars[rng.NextBelow(vars.size())] + "." +
                  kSteps[rng.NextBelow(kSteps.size())];
        }
        from += " as " + var;
        vars.push_back(var);
      }
      auto var = [&] { return vars[rng.NextBelow(vars.size())]; };
      auto atom = [&]() -> std::string {
        switch (rng.NextBelow(8)) {
          case 0:
            return var() + ".name = \"n" +
                   std::to_string(rng.NextRange(1, objects)) + "\"";
          case 1:
            return var() + ".tag < " +
                   std::to_string(rng.NextBelow(3));
          case 2:
            return var() + ".pnode != " + var() + ".pnode";
          case 3:
            return var() + ".tag = " + var() + ".tag";
          case 4:
            return "exists(" + var() + ".input)";
          case 5:
            return "count(" + var() + ".~input*) > 1";
          case 6:
            return var() + " in (select X from " + var() + ".input+ as X)";
          default:
            return "not " + var() + ".name like \"n1*\"";
        }
      };
      std::string where = atom();
      for (int c = static_cast<int>(rng.NextBelow(4)); c > 0; --c) {
        where += rng.NextBool(0.8) ? " and " : " or ";
        if (rng.NextBool(0.2)) {
          where += "(";
          where += atom();
          where += " or ";
          where += atom();
          where += ")";
        } else {
          where += atom();
        }
      }
      std::string select = var();
      if (rng.NextBool()) {
        select += ", " + var() + ".name";
      }
      std::string text = "select " + select + " from " + from;
      auto placed = engine.Run(text + " where " + where);
      auto at_end = engine.Run(text + " where (" + where + ") or " +
                               vars.back() + ".pnode < 0");
      ASSERT_TRUE(placed.ok()) << text << " where " << where;
      ASSERT_TRUE(at_end.ok()) << text << " where " << where;
      // Same rows in the same order: survivors keep their relative order.
      std::vector<std::string> placed_rows;
      std::vector<std::string> at_end_rows;
      for (const auto& row : placed->rows) {
        placed_rows.push_back(RowKey(row));
      }
      for (const auto& row : at_end->rows) {
        at_end_rows.push_back(RowKey(row));
      }
      EXPECT_EQ(placed_rows, at_end_rows)
          << "seed " << seed << ": " << text << " where " << where;
    }
  }
}

TEST(PqlLimitsTest, BindingExplosionIsBounded) {
  waldo::ProvDb db;
  for (int i = 0; i < 64; ++i) {
    db.Insert({{static_cast<core::PnodeId>(i + 1), 0},
               core::Record::Type("FILE")});
  }
  ProvDbSource source(&db);
  QueryOptions options;
  options.limits.max_bindings = 100;
  Engine engine(&source, options);
  // 64 x 64 = 4096 bindings > 100.
  auto result = engine.Run(
      "select a from Provenance.file as a Provenance.file as b");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kUnavailable);
}

}  // namespace
}  // namespace pass::pql
