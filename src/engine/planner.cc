#include "engine/planner.h"

#include <optional>

namespace partix::xdb {

namespace {

using xquery::AxisStep;
using xquery::BinaryOp;
using xquery::ContextItem;
using xquery::ElementCtor;
using xquery::Expr;
using xquery::ExprPtr;
using xquery::FlworExpr;
using xquery::ForLetClause;
using xquery::FunctionCall;
using xquery::IfExpr;
using xquery::PathExpr;
using xquery::StringLit;
using xquery::UnaryMinus;
using xquery::VarRef;

/// Returns the collection name when `e` is collection("name")/doc("name").
std::optional<std::string> AsCollectionCall(const Expr& e) {
  if (!e.Is<FunctionCall>()) return std::nullopt;
  const auto& f = e.As<FunctionCall>();
  if (f.name != "collection" && f.name != "doc") return std::nullopt;
  if (f.args.size() != 1 || !f.args[0]->Is<StringLit>()) return std::nullopt;
  return f.args[0]->As<StringLit>().value;
}

class Analyzer {
 public:
  std::map<std::string, CollectionPlan> Run(const Expr& root) {
    Walk(root);
    return std::move(plans_);
  }

 private:
  /// Adds the names along the spine of `e` to the site's required
  /// elements when `e` is a path over the context item or over `var`, the
  /// FLWOR variable bound to the site (predicate/where usage); any other
  /// expression adds nothing.
  void RequireSpine(const Expr& e, SiteConstraints* site,
                    const std::string* var) {
    if (!e.Is<PathExpr>()) return;
    const auto& p = e.As<PathExpr>();
    if (p.source == nullptr) {
      // Absolute path inside a predicate: applies to the context document;
      // its names are still required elements of the same document.
    } else if (p.source->Is<ContextItem>()) {
      // Relative to the step context: fine.
    } else if (var != nullptr && p.source->Is<VarRef>() &&
               p.source->As<VarRef>().name == *var) {
      // Path over the tracked FLWOR variable.
    } else {
      return;
    }
    for (const AxisStep& s : p.steps) {
      if (!s.step.wildcard) site->required_elements.push_back(s.step.name);
      // Nested step predicates inside predicate paths are not mined.
    }
  }

  /// Mines one conjunct of a predicate/where expression for constraints on
  /// the site. `var`, when non-null, is the FLWOR variable bound to the
  /// site.
  void MineConjunct(const Expr& e, SiteConstraints* site,
                    const std::string* var) {
    if (e.Is<BinaryOp>()) {
      const auto& b = e.As<BinaryOp>();
      if (b.op == BinaryOp::Op::kAnd) {
        MineConjunct(*b.lhs, site, var);
        MineConjunct(*b.rhs, site, var);
        return;
      }
      // Comparison with a path on either side: the path must exist.
      const bool is_cmp =
          b.op == BinaryOp::Op::kEq || b.op == BinaryOp::Op::kNe ||
          b.op == BinaryOp::Op::kLt || b.op == BinaryOp::Op::kLe ||
          b.op == BinaryOp::Op::kGt || b.op == BinaryOp::Op::kGe;
      if (!is_cmp) return;
      if (b.lhs->Is<PathExpr>()) {
        RequireSpine(*b.lhs, site, var);
      } else if (b.rhs->Is<PathExpr>()) {
        RequireSpine(*b.rhs, site, var);
      }
      return;
    }
    if (e.Is<FunctionCall>()) {
      const auto& f = e.As<FunctionCall>();
      if (((f.name == "contains" || f.name == "starts-with") &&
           f.args.size() == 2) ||
          (f.name == "exists" && f.args.size() == 1)) {
        RequireSpine(*f.args[0], site, var);
      }
      // not(), empty(), boolean() and friends: no sound positive
      // constraint.
      return;
    }
    // Bare existential path.
    RequireSpine(e, site, var);
  }

  /// Registers a collection call site rooted at `collection(...)` with the
  /// trailing `steps`; returns the site index.
  size_t AddSite(const std::string& collection,
                 const std::vector<AxisStep>& steps) {
    SiteConstraints site;
    uint32_t depth = 0;
    bool exact = true;
    for (const AxisStep& s : steps) {
      ++depth;
      if (s.step.axis == xpath::Axis::kDescendant) exact = false;
      site.step_strategies.push_back(xpath::StaticStepStrategy(s.step));
      if (!s.step.wildcard) {
        site.required_elements.push_back(s.step.name);
        site.spine_levels.push_back(SpineLevel{s.step.name, depth, exact});
      }
      for (const ExprPtr& pred : s.predicates) {
        MineConjunct(*pred, &site, nullptr);
        // Also walk the predicate generically to find nested collection
        // calls.
        Walk(*pred);
      }
    }
    plans_[collection].sites.push_back(std::move(site));
    return plans_[collection].sites.size() - 1;
  }

  /// Generic walk; recognizes collection-rooted paths and FLWORs.
  void Walk(const Expr& e) {
    if (e.Is<PathExpr>()) {
      const auto& p = e.As<PathExpr>();
      if (p.source != nullptr) {
        std::optional<std::string> coll = AsCollectionCall(*p.source);
        if (coll) {
          AddSite(*coll, p.steps);
          return;
        }
        Walk(*p.source);
      }
      for (const AxisStep& s : p.steps) {
        for (const ExprPtr& pred : s.predicates) Walk(*pred);
      }
      return;
    }
    if (e.Is<FunctionCall>()) {
      std::optional<std::string> coll = AsCollectionCall(e);
      if (coll) {
        // Bare collection("c") with no steps: unconstrained.
        SiteConstraints site;
        site.unconstrained = true;
        plans_[*coll].sites.push_back(std::move(site));
        return;
      }
      for (const ExprPtr& arg : e.As<FunctionCall>().args) Walk(*arg);
      return;
    }
    if (e.Is<FlworExpr>()) {
      WalkFlwor(e.As<FlworExpr>());
      return;
    }
    if (e.Is<BinaryOp>()) {
      Walk(*e.As<BinaryOp>().lhs);
      Walk(*e.As<BinaryOp>().rhs);
      return;
    }
    if (e.Is<UnaryMinus>()) {
      Walk(*e.As<UnaryMinus>().operand);
      return;
    }
    if (e.Is<ElementCtor>()) {
      for (const ExprPtr& c : e.As<ElementCtor>().content) Walk(*c);
      return;
    }
    if (e.Is<IfExpr>()) {
      const auto& i = e.As<IfExpr>();
      Walk(*i.cond);
      Walk(*i.then_branch);
      Walk(*i.else_branch);
      return;
    }
    if (e.Is<xquery::QuantifiedExpr>()) {
      const auto& q = e.As<xquery::QuantifiedExpr>();
      for (const xquery::ForLetClause& b : q.bindings) Walk(*b.expr);
      Walk(*q.satisfies);
      return;
    }
    // Literals, VarRef, ContextItem: nothing to do.
  }

  void WalkFlwor(const FlworExpr& flwor) {
    // Variables bound (via for) to a collection call site in this FLWOR:
    // var name -> (collection, site index).
    std::map<std::string, std::pair<std::string, size_t>> bound;
    for (const ForLetClause& clause : flwor.clauses) {
      const Expr& src = *clause.expr;
      bool handled = false;
      if (!clause.is_let) {
        if (src.Is<PathExpr>() && src.As<PathExpr>().source != nullptr) {
          std::optional<std::string> coll =
              AsCollectionCall(*src.As<PathExpr>().source);
          if (coll) {
            size_t site = AddSite(*coll, src.As<PathExpr>().steps);
            bound[clause.var] = {*coll, site};
            handled = true;
          }
        } else {
          std::optional<std::string> coll = AsCollectionCall(src);
          if (coll) {
            size_t site = AddSite(*coll, {});
            bound[clause.var] = {*coll, site};
            handled = true;
          }
        }
      }
      if (!handled) Walk(src);
    }
    if (flwor.where != nullptr) {
      // Mine the where clause once per bound variable, then walk it for
      // nested collection calls.
      for (const auto& [var, target] : bound) {
        SiteConstraints& site = plans_[target.first].sites[target.second];
        MineConjunct(*flwor.where, &site, &var);
      }
      Walk(*flwor.where);
    }
    Walk(*flwor.ret);
  }

  std::map<std::string, CollectionPlan> plans_;
};

}  // namespace

std::map<std::string, CollectionPlan> AnalyzeQuery(const Expr& root) {
  Analyzer analyzer;
  return analyzer.Run(root);
}

}  // namespace partix::xdb
