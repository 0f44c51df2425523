#ifndef PARTIX_ENGINE_PLANNER_H_
#define PARTIX_ENGINE_PLANNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "xpath/path.h"
#include "xquery/ast.h"

namespace partix::xdb {

/// One spine step with its derivable depth bound. Levels count from 1 at
/// the root element. While every axis up to a step is the child axis the
/// step's depth is exact; after the first descendant axis only a lower
/// bound survives. The structural index prunes documents whose occurrences
/// of `name` all fall outside the bound.
struct SpineLevel {
  std::string name;
  uint32_t min_level = 1;
  bool exact_level = false;

  bool operator==(const SpineLevel& o) const {
    return name == o.name && min_level == o.min_level &&
           exact_level == o.exact_level;
  }
};

/// Constraints that every document contributing to one collection() call
/// site must satisfy. Derived conservatively from the query: a document
/// failing any constraint cannot produce bindings or path results at that
/// site, so the engine may skip (not even parse) it. The candidate set is
/// a superset of the true matches; evaluation still verifies.
struct SiteConstraints {
  /// Element/attribute names on the path spine and in conjunctive
  /// predicates (checked against the structural index).
  std::vector<std::string> required_elements;

  /// Spine names with level bounds (checked against the same index's level
  /// summaries when DatabaseOptions::enable_structural_index is on; a
  /// strictly stronger version of the spine subset of
  /// `required_elements`).
  std::vector<SpineLevel> spine_levels;

  /// The planner's static evaluation strategy for each trailing step of
  /// the site's path, in step order (see xpath::StaticStepStrategy);
  /// kDynamic entries are resolved per document at evaluation time.
  std::vector<xpath::StepStrategy> step_strategies;

  /// True when this call site gives no exploitable constraint; the whole
  /// collection must be considered.
  bool unconstrained = false;
};

/// Per-collection analysis result: one entry per collection() call site.
/// The candidate set for the collection is the union over sites.
struct CollectionPlan {
  std::vector<SiteConstraints> sites;
};

/// Walks the query AST and extracts index-usable constraints for every
/// collection() / doc() call site. Handles:
///   - path spines: collection("c")/Item/Name requires elements Item, Name
///   - step predicates: Item[Section = "CD"] and Item[contains(Desc, "x")]
///     require Section / Desc (the comparison and fn:contains themselves
///     are evaluated by scanning, as in the paper's substrate)
///   - FLWOR where clauses: conjuncts over variables bound by for-clauses
///     whose binding expression is rooted at a collection() call
/// Constraints under not()/empty()/or are ignored (kept sound by not
/// pruning on them).
std::map<std::string, CollectionPlan> AnalyzeQuery(const xquery::Expr& root);

}  // namespace partix::xdb

#endif  // PARTIX_ENGINE_PLANNER_H_
