#include "src/pql/parser.h"

#include "src/pql/lexer.h"
#include "src/util/strings.h"

namespace pass::pql {
namespace {

// Deepest AST position the parser accepts. Every node is parsed with the
// depth it will sit at (an upper bound) and every recursion passes through
// ParseNot or ParseQueryBody, which check it, so both the parser's recursion
// and the walks over a parsed AST stay within this many levels.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::unique_ptr<Query>> Parse() {
    PASS_ASSIGN_OR_RETURN(std::unique_ptr<Query> query, ParseQueryBody(0));
    if (!At(TokenKind::kEnd)) {
      return Fail("trailing input after query");
    }
    return query;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool At(TokenKind kind) const { return Peek().kind == kind; }
  bool Accept(TokenKind kind) {
    if (At(kind)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(TokenKind kind) {
    if (!Accept(kind)) {
      return InvalidArgument(StrFormat(
          "expected %.*s but found %.*s at offset %zu",
          static_cast<int>(TokenKindName(kind).size()),
          TokenKindName(kind).data(),
          static_cast<int>(TokenKindName(Peek().kind).size()),
          TokenKindName(Peek().kind).data(), Peek().offset));
    }
    return Status::Ok();
  }
  Status Fail(std::string_view message) const {
    return InvalidArgument(StrFormat("%.*s at offset %zu",
                                     static_cast<int>(message.size()),
                                     message.data(), Peek().offset));
  }

  Status CheckDepth(int depth) const {
    if (depth > kMaxDepth) {
      return Fail(StrFormat("query nests deeper than %d levels", kMaxDepth));
    }
    return Status::Ok();
  }

  Result<std::unique_ptr<Query>> ParseQueryBody(int depth) {
    PASS_RETURN_IF_ERROR(CheckDepth(depth));
    auto query = std::make_unique<Query>();
    PASS_RETURN_IF_ERROR(Expect(TokenKind::kSelect));
    // Select list.
    for (;;) {
      SelectItem item;
      PASS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr, ParseExpr(depth + 1));
      item.expr = std::move(*expr);
      if (Accept(TokenKind::kAs)) {
        if (!At(TokenKind::kIdent)) {
          return Fail("expected alias after 'as'");
        }
        item.alias = Peek().text;
        ++pos_;
      }
      query->selects.push_back(std::move(item));
      if (!Accept(TokenKind::kComma)) {
        break;
      }
    }
    PASS_RETURN_IF_ERROR(Expect(TokenKind::kFrom));
    // From list: items separated by commas or simple juxtaposition (the
    // paper's sample uses whitespace only).
    for (;;) {
      FromItem item;
      PASS_ASSIGN_OR_RETURN(item.path, ParsePath());
      PASS_RETURN_IF_ERROR(Expect(TokenKind::kAs));
      if (!At(TokenKind::kIdent)) {
        return Fail("expected binding variable after 'as'");
      }
      item.variable = Peek().text;
      ++pos_;
      query->froms.push_back(std::move(item));
      if (Accept(TokenKind::kComma)) {
        continue;
      }
      // Juxtaposition: another from-item begins with an identifier.
      if (At(TokenKind::kIdent)) {
        continue;
      }
      break;
    }
    if (Accept(TokenKind::kWhere)) {
      PASS_ASSIGN_OR_RETURN(query->where, ParseExpr(depth + 1));
    }
    if (Accept(TokenKind::kUnion)) {
      PASS_ASSIGN_OR_RETURN(query->union_with, ParseQueryBody(depth + 1));
    }
    return query;
  }

  Result<PathExpr> ParsePath() {
    PathExpr path;
    if (!At(TokenKind::kIdent)) {
      return Result<PathExpr>(Fail("expected path root"));
    }
    std::string root = Peek().text;
    ++pos_;
    if (root == "Provenance" || root == "provenance") {
      path.from_provenance = true;
      PASS_RETURN_IF_ERROR(Expect(TokenKind::kDot));
      if (!At(TokenKind::kIdent)) {
        return Result<PathExpr>(Fail("expected root set after 'Provenance.'"));
      }
      path.root_set = Peek().text;
      ++pos_;
    } else {
      path.variable = std::move(root);
    }
    while (Accept(TokenKind::kDot)) {
      PathStep step;
      if (Accept(TokenKind::kTilde)) {
        step.inverse = true;
      }
      if (!At(TokenKind::kIdent)) {
        return Result<PathExpr>(Fail("expected link or attribute name"));
      }
      step.name = Peek().text;
      ++pos_;
      if (Accept(TokenKind::kStar)) {
        step.closure = Closure::kStar;
      } else if (Accept(TokenKind::kPlus)) {
        step.closure = Closure::kPlus;
      } else if (Accept(TokenKind::kQuestion)) {
        step.closure = Closure::kOptional;
      }
      path.steps.push_back(std::move(step));
    }
    return path;
  }

  // Expression grammar: or -> and -> not -> comparison -> primary.
  Result<std::unique_ptr<Expr>> ParseExpr(int depth) {
    return ParseChain(depth, BinOp::kOr);
  }

  // An `or` chain of `and` chains, or an `and` chain of `not` terms. Chains
  // nest to the right: `a and b and c` is a and (b and c), which evaluates
  // left to right like the flat chain, and puts the k-th term at depth
  // depth + k, known while it is parsed.
  Result<std::unique_ptr<Expr>> ParseChain(int depth, BinOp op) {
    TokenKind token = op == BinOp::kOr ? TokenKind::kOr : TokenKind::kAnd;
    std::vector<std::unique_ptr<Expr>> terms;
    do {
      int term_depth = depth + static_cast<int>(terms.size()) + 1;
      PASS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> term,
                            op == BinOp::kOr
                                ? ParseChain(term_depth, BinOp::kAnd)
                                : ParseNot(term_depth));
      terms.push_back(std::move(term));
    } while (Accept(token));
    std::unique_ptr<Expr> chain = std::move(terms.back());
    for (size_t i = terms.size() - 1; i-- > 0;) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kBinary;
      node->op = op;
      node->lhs = std::move(terms[i]);
      node->rhs = std::move(chain);
      chain = std::move(node);
    }
    return chain;
  }

  Result<std::unique_ptr<Expr>> ParseNot(int depth) {
    PASS_RETURN_IF_ERROR(CheckDepth(depth));
    if (Accept(TokenKind::kNot)) {
      PASS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseNot(depth + 1));
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kNot;
      node->lhs = std::move(inner);
      return node;
    }
    return ParseComparison(depth);
  }

  Result<std::unique_ptr<Expr>> ParseComparison(int depth) {
    PASS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParsePrimary(depth + 1));
    BinOp op;
    if (Accept(TokenKind::kEq)) {
      op = BinOp::kEq;
    } else if (Accept(TokenKind::kNeq)) {
      op = BinOp::kNeq;
    } else if (Accept(TokenKind::kLt)) {
      op = BinOp::kLt;
    } else if (Accept(TokenKind::kLe)) {
      op = BinOp::kLe;
    } else if (Accept(TokenKind::kGt)) {
      op = BinOp::kGt;
    } else if (Accept(TokenKind::kGe)) {
      op = BinOp::kGe;
    } else if (Accept(TokenKind::kLike)) {
      op = BinOp::kLike;
    } else if (Accept(TokenKind::kIn)) {
      op = BinOp::kIn;
    } else {
      return lhs;
    }
    PASS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParsePrimary(depth + 1));
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kBinary;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Result<std::unique_ptr<Expr>> ParsePrimary(int depth) {
    auto node = std::make_unique<Expr>();
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kString:
        node->kind = Expr::Kind::kLiteral;
        node->literal = Value(token.text);
        ++pos_;
        return node;
      case TokenKind::kInt:
        node->kind = Expr::Kind::kLiteral;
        node->literal = Value(token.int_value);
        ++pos_;
        return node;
      case TokenKind::kReal:
        node->kind = Expr::Kind::kLiteral;
        node->literal = Value(token.real_value);
        ++pos_;
        return node;
      case TokenKind::kTrue:
        node->kind = Expr::Kind::kLiteral;
        node->literal = Value(true);
        ++pos_;
        return node;
      case TokenKind::kFalse:
        node->kind = Expr::Kind::kLiteral;
        node->literal = Value(false);
        ++pos_;
        return node;
      case TokenKind::kCount:
      case TokenKind::kSum:
      case TokenKind::kMin:
      case TokenKind::kMax:
      case TokenKind::kAvg: {
        node->kind = Expr::Kind::kAggregate;
        switch (token.kind) {
          case TokenKind::kCount:
            node->aggregate = Aggregate::kCount;
            break;
          case TokenKind::kSum:
            node->aggregate = Aggregate::kSum;
            break;
          case TokenKind::kMin:
            node->aggregate = Aggregate::kMin;
            break;
          case TokenKind::kMax:
            node->aggregate = Aggregate::kMax;
            break;
          default:
            node->aggregate = Aggregate::kAvg;
            break;
        }
        ++pos_;
        PASS_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        if (At(TokenKind::kSelect)) {
          PASS_ASSIGN_OR_RETURN(node->subquery, ParseQueryBody(depth + 1));
        } else {
          PASS_ASSIGN_OR_RETURN(node->lhs, ParseExpr(depth + 1));
        }
        PASS_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return node;
      }
      case TokenKind::kExists: {
        ++pos_;
        PASS_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        node->kind = Expr::Kind::kExists;
        if (At(TokenKind::kSelect)) {
          PASS_ASSIGN_OR_RETURN(node->subquery, ParseQueryBody(depth + 1));
        } else {
          PASS_ASSIGN_OR_RETURN(node->lhs, ParseExpr(depth + 1));
        }
        PASS_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return node;
      }
      case TokenKind::kLParen: {
        ++pos_;
        if (At(TokenKind::kSelect)) {
          node->kind = Expr::Kind::kSubquery;
          PASS_ASSIGN_OR_RETURN(node->subquery, ParseQueryBody(depth + 1));
          PASS_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
          return node;
        }
        PASS_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseExpr(depth + 1));
        PASS_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return inner;
      }
      case TokenKind::kIdent: {
        node->kind = Expr::Kind::kPath;
        PASS_ASSIGN_OR_RETURN(node->path, ParsePath());
        return node;
      }
      default:
        return Result<std::unique_ptr<Expr>>(Fail("expected expression"));
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<Query>> ParseQuery(std::string_view text) {
  PASS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace pass::pql
