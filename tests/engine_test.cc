#include <memory>

#include "engine/database.h"
#include "engine/planner.h"
#include "gtest/gtest.h"
#include "xquery/parser.h"

namespace partix::xdb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  explicit DatabaseTest(DatabaseOptions options = DatabaseOptions())
      : db_(options) {
    EXPECT_TRUE(db_.CreateCollection("items").ok());
    Store("<Item><Code>1</Code><Name>cd one</Name>"
          "<Description>a good disc</Description><Section>CD</Section>"
          "</Item>");
    Store("<Item><Code>2</Code><Name>dvd one</Name>"
          "<Description>a fine movie</Description><Section>DVD</Section>"
          "</Item>");
    Store("<Item><Code>3</Code><Name>cd two</Name>"
          "<Description>another good disc</Description>"
          "<Section>CD</Section></Item>");
  }

  void Store(const std::string& xml) {
    static int n = 0;
    ASSERT_TRUE(
        db_.StoreSerialized("items", "doc" + std::to_string(n++), xml)
            .ok());
  }

  std::string Run(const std::string& query) {
    auto result = db_.Execute(query);
    EXPECT_TRUE(result.ok()) << query << " -> " << result.status();
    if (!result.ok()) return "<error>";
    last_metrics_ = result->metrics;
    return result->serialized;
  }

  Database db_;
  QueryMetrics last_metrics_;
};

TEST_F(DatabaseTest, DdlBasics) {
  EXPECT_TRUE(db_.HasCollection("items"));
  EXPECT_FALSE(db_.HasCollection("nope"));
  EXPECT_EQ(db_.CreateCollection("items").code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db_.CreateCollection("tmp").ok());
  EXPECT_TRUE(db_.DropCollection("tmp").ok());
  EXPECT_EQ(db_.DropCollection("tmp").code(), StatusCode::kNotFound);
  EXPECT_EQ(db_.CollectionNames().size(), 1u);
  EXPECT_EQ(*db_.DocumentCount("items"), 3u);
  EXPECT_GT(*db_.SerializedBytes("items"), 0u);
}

TEST_F(DatabaseTest, ExecutesQueries) {
  EXPECT_EQ(Run("count(collection(\"items\")/Item)"), "3");
  EXPECT_EQ(Run("for $i in collection(\"items\")/Item "
                "where $i/Section = \"CD\" return $i/Code"),
            "<Code>1</Code>\n<Code>3</Code>");
}

TEST_F(DatabaseTest, MetricsArePopulated) {
  Run("count(collection(\"items\")/Item)");
  EXPECT_EQ(last_metrics_.docs_in_collections, 3u);
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
  EXPECT_EQ(last_metrics_.result_items, 1u);
  EXPECT_GT(last_metrics_.elapsed_ms, 0.0);
}

/// The fixture with DatabaseOptions::enable_structural_index set to the
/// parameter: name-presence pruning must not depend on it.
class NamePresencePruningTest : public DatabaseTest,
                                public ::testing::WithParamInterface<bool> {
 protected:
  static DatabaseOptions Options(bool structural) {
    DatabaseOptions options;
    options.enable_structural_index = structural;
    return options;
  }

  NamePresencePruningTest() : DatabaseTest(Options(GetParam())) {}
};

TEST_P(NamePresencePruningTest, PrunesStructuralQuery) {
  EXPECT_EQ(Run("count(collection(\"items\")/Item/Bogus)"), "0");
  EXPECT_EQ(last_metrics_.docs_considered, 0u);
  // A name mined from a predicate prunes too.
  EXPECT_EQ(Run("count(collection(\"items\")/Item[Bogus = \"x\"])"), "0");
  EXPECT_EQ(last_metrics_.docs_considered, 0u);
}

TEST_P(NamePresencePruningTest, SkipsDocumentsLackingAPredicateName) {
  Store("<Item><Code>4</Code><Name>bare</Name></Item>");
  // Only documents holding every mined name stay candidates; the scan
  // itself still decides which of them match.
  EXPECT_EQ(Run("count(collection(\"items\")/Item[Section = \"CD\"])"),
            "2");
  EXPECT_EQ(last_metrics_.docs_in_collections, 4u);
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
  EXPECT_EQ(Run("for $i in collection(\"items\")/Item "
                "where contains($i/Description, \"good\") "
                "return $i/Code"),
            "<Code>1</Code>\n<Code>3</Code>");
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
  EXPECT_EQ(Run("count(collection(\"items\")/Item[Name])"), "4");
  EXPECT_EQ(last_metrics_.docs_considered, 4u);
  // A nested relative path requires every one of its steps.
  Store("<Item><Code>5</Code><Name>dated</Name>"
        "<Release><Date>2006</Date></Release></Item>");
  EXPECT_EQ(
      Run("count(collection(\"items\")/Item[Release/Date = \"2006\"])"),
      "1");
  EXPECT_EQ(last_metrics_.docs_in_collections, 5u);
  EXPECT_EQ(last_metrics_.docs_considered, 1u);
}

INSTANTIATE_TEST_SUITE_P(StructuralLabels, NamePresencePruningTest,
                         ::testing::Bool());

TEST_F(DatabaseTest, ValuePredicatesAreScans) {
  // No value or text index: equality and fn:contains predicates consider
  // every document holding the names they mention, as in the paper.
  EXPECT_EQ(Run("count(collection(\"items\")/Item[Section = \"DVD\"])"),
            "1");
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
  EXPECT_EQ(Run("count(for $i in collection(\"items\")/Item "
                "where contains($i/Description, \"movie\") return $i)"),
            "1");
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
}

TEST_F(DatabaseTest, UnprunableQueriesConsiderAllDocs) {
  Run("count(collection(\"items\"))");
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
}

TEST_F(DatabaseTest, NegatedPredicatesAreNotPruned) {
  // not(contains(...)) yields no positive constraint to prune on.
  EXPECT_EQ(Run("count(for $i in collection(\"items\")/Item "
                "where not(contains($i/Description, \"good\")) "
                "return $i)"),
            "1");
  EXPECT_EQ(last_metrics_.docs_considered, 3u);
}

TEST_F(DatabaseTest, CacheControl) {
  Run("count(collection(\"items\")/Item)");
  EXPECT_EQ(last_metrics_.docs_parsed, 3u);
  Run("count(collection(\"items\")/Item)");
  EXPECT_EQ(last_metrics_.docs_parsed, 0u);  // cached
  EXPECT_EQ(last_metrics_.cache_hits, 3u);
  db_.DropCaches();
  Run("count(collection(\"items\")/Item)");
  EXPECT_EQ(last_metrics_.docs_parsed, 3u);
}

TEST_F(DatabaseTest, QueryAgainstMissingCollection) {
  auto result = db_.Execute("count(collection(\"nope\"))");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(DatabaseTest, MalformedQueryReportsParseError) {
  auto result = db_.Execute("for $i in");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(DatabaseSchemaTest, ValidateOnStore) {
  Database db;
  CollectionMeta meta;
  meta.schema = xml::VirtualStoreSchema();
  meta.root_path = "/Store/Items/Item";
  meta.validate_on_store = true;
  ASSERT_TRUE(db.CreateCollection("items", meta).ok());
  EXPECT_FALSE(db.StoreSerialized("items", "bad", "<Item><X/></Item>").ok());
  EXPECT_TRUE(db.StoreSerialized(
                    "items", "good",
                    "<Item><Code>1</Code><Name>n</Name>"
                    "<Description>d</Description><Section>CD</Section>"
                    "<Release>r</Release></Item>")
                  .ok());
}

// ---- Planner unit tests ----

std::map<std::string, CollectionPlan> Plan(const std::string& query) {
  auto ast = xquery::ParseQuery(query);
  EXPECT_TRUE(ast.ok()) << ast.status();
  return AnalyzeQuery(**ast);
}

TEST(PlannerTest, ExtractsSpineElements) {
  auto plans = Plan("collection(\"c\")/Item/Name");
  ASSERT_EQ(plans.count("c"), 1u);
  ASSERT_EQ(plans["c"].sites.size(), 1u);
  EXPECT_EQ(plans["c"].sites[0].required_elements,
            (std::vector<std::string>{"Item", "Name"}));
}

TEST(PlannerTest, ExtractsStepPredicateConstraints) {
  auto plans = Plan("collection(\"c\")/Item[Section = \"CD\"]");
  const SiteConstraints& site = plans["c"].sites[0];
  EXPECT_EQ(site.required_elements,
            (std::vector<std::string>{"Item", "Section"}));
}

TEST(PlannerTest, ExtractsWhereClauseConstraints) {
  auto plans = Plan(
      "for $i in collection(\"c\")/Item "
      "where contains($i/Description, \"good\") and $i/Code = 5 "
      "return $i");
  const SiteConstraints& site = plans["c"].sites[0];
  EXPECT_EQ(site.required_elements,
            (std::vector<std::string>{"Item", "Description", "Code"}));
}

TEST(PlannerTest, BareCollectionIsUnconstrained) {
  auto plans = Plan("count(collection(\"c\"))");
  ASSERT_EQ(plans["c"].sites.size(), 1u);
  EXPECT_TRUE(plans["c"].sites[0].unconstrained);
}

TEST(PlannerTest, OrPredicatesYieldNoConstraints) {
  auto plans = Plan(
      "for $i in collection(\"c\")/Item "
      "where $i/A = \"x\" or $i/B = \"y\" return $i");
  const SiteConstraints& site = plans["c"].sites[0];
  // Neither A nor B is required: either disjunct may hold alone.
  EXPECT_EQ(site.required_elements,
            (std::vector<std::string>{"Item"}));
}

TEST(PlannerTest, NegatedPredicatesYieldNoConstraints) {
  auto plans = Plan(
      "for $i in collection(\"c\")/Item[not(contains(Description, \"x\"))] "
      "where empty($i/Code) return $i");
  const SiteConstraints& site = plans["c"].sites[0];
  // A document lacking Description or Code may still match.
  EXPECT_EQ(site.required_elements,
            (std::vector<std::string>{"Item"}));
}

TEST(PlannerTest, StartsWithAndExistsRequireTheirPath) {
  auto plans = Plan(
      "collection(\"c\")/Item[starts-with(Name, \"cd\") and "
      "exists(Release)]");
  const SiteConstraints& site = plans["c"].sites[0];
  EXPECT_EQ(site.required_elements,
            (std::vector<std::string>{"Item", "Name", "Release"}));
}

TEST(PlannerTest, NestedRelativePathsRequireEveryStep) {
  // The parser nests `Release/Date` as a path over the path `Release`;
  // both steps are required, in order, after the site's own spine.
  auto plans = Plan(
      "collection(\"c\")/Item[Name = \"n\" and Release/Date = \"x\"]");
  const SiteConstraints& site = plans["c"].sites[0];
  EXPECT_EQ(site.required_elements,
            (std::vector<std::string>{"Item", "Name", "Release", "Date"}));
  // Nesting over another site's variable mines only that site.
  plans = Plan(
      "for $i in collection(\"c\")/Item, $j in collection(\"d\")/Y "
      "where exists(($j/A)/B) return $i");
  EXPECT_EQ(plans["c"].sites[0].required_elements,
            (std::vector<std::string>{"Item"}));
  EXPECT_EQ(plans["d"].sites[0].required_elements,
            (std::vector<std::string>{"Y", "A", "B"}));
}

TEST(PlannerTest, EachBoundVariableMinesOnlyItsOwnSite) {
  auto plans = Plan(
      "for $a in collection(\"a\")/X, $b in collection(\"b\")/Y "
      "where $a/P = 1 and $b/Q = 2 return $a");
  ASSERT_EQ(plans["a"].sites.size(), 1u);
  ASSERT_EQ(plans["b"].sites.size(), 1u);
  EXPECT_EQ(plans["a"].sites[0].required_elements,
            (std::vector<std::string>{"X", "P"}));
  EXPECT_EQ(plans["b"].sites[0].required_elements,
            (std::vector<std::string>{"Y", "Q"}));
}

TEST(PlannerTest, MultipleSitesUnion) {
  auto plans = Plan(
      "count(collection(\"c\")/Item[Section = \"CD\"]) + "
      "count(collection(\"c\")/Item[Section = \"DVD\"])");
  EXPECT_EQ(plans["c"].sites.size(), 2u);
}

}  // namespace
}  // namespace partix::xdb
