// Join composition builds the joined documents in memory and runs the
// original query over them directly. These tests pin what the serialize →
// re-parse round trip of a stored copy used to normalize (attribute
// placement, adjacent text), that composition parses no XML, and the
// whole-document fetch join end to end.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "gtest/gtest.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/publisher.h"
#include "partix/query_service.h"
#include "workload/queries.h"
#include "workload/schemas.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace partix::middleware {
namespace {

using xml::Document;
using xml::DocumentPtr;
using xml::kNullNode;
using xml::NodeId;

/// Walks `a` and `b` in document order and compares them node for node:
/// ids, kinds, names, values, child order and structural labels.
void ExpectSameTree(const Document& a, NodeId na, const Document& b,
                    NodeId nb) {
  ASSERT_EQ(na, nb);
  ASSERT_EQ(a.kind(na), b.kind(nb)) << "node " << na;
  if (a.kind(na) != xml::NodeKind::kText) {
    EXPECT_EQ(a.name(na), b.name(nb)) << "node " << na;
  }
  if (a.kind(na) != xml::NodeKind::kElement) {
    EXPECT_EQ(a.value(na), b.value(nb)) << "node " << na;
  }
  const xml::NodeLabel& la = a.label(na);
  const xml::NodeLabel& lb = b.label(nb);
  EXPECT_EQ(la.pre, lb.pre) << "node " << na;
  EXPECT_EQ(la.post, lb.post) << "node " << na;
  EXPECT_EQ(la.sub_max, lb.sub_max) << "node " << na;
  EXPECT_EQ(la.level, lb.level) << "node " << na;
  EXPECT_EQ(a.DeweyString(na), b.DeweyString(nb)) << "node " << na;
  NodeId ca = a.first_child(na);
  NodeId cb = b.first_child(nb);
  while (ca != kNullNode && cb != kNullNode) {
    ExpectSameTree(a, ca, b, cb);
    ca = a.next_sibling(ca);
    cb = b.next_sibling(cb);
  }
  EXPECT_EQ(ca, kNullNode) << "extra child under node " << na;
  EXPECT_EQ(cb, kNullNode) << "missing child under node " << na;
}

/// The joined document must be the tree ParseXml(Serialize(joined)) gives.
void ExpectParseFixpoint(const Document& joined) {
  ASSERT_TRUE(joined.has_labels()) << joined.doc_name() << " is not sealed";
  auto reparsed = xml::ParseXml(std::make_shared<xml::NamePool>(),
                                joined.doc_name(), xml::Serialize(joined));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  ASSERT_EQ(joined.node_count(), (*reparsed)->node_count())
      << joined.doc_name();
  ExpectSameTree(joined, joined.root(), **reparsed, (*reparsed)->root());
}

/// The fragment documents every node serves, grouped by source document
/// (px-src), exactly as a fetch sub-query returns them.
std::map<std::string, std::vector<DocumentPtr>> FetchGroups(
    ClusterSim* cluster, const frag::FragmentationSchema& schema) {
  std::map<std::string, std::vector<DocumentPtr>> groups;
  for (size_t i = 0; i < schema.fragments.size(); ++i) {
    const std::string& fragment = schema.fragments[i].name();
    // PublishFragmented places fragment i on node i mod node_count.
    auto result = cluster->database(i % cluster->node_count())
                      .Execute("collection(\"" + fragment + "\")");
    EXPECT_TRUE(result.ok()) << fragment << ": " << result.status();
    if (!result.ok()) continue;
    for (const xquery::Item& item : result->items) {
      const DocumentPtr& doc = item.AsNode().doc;
      groups[doc->GetMetadata("px-src")].push_back(doc);
    }
  }
  return groups;
}

/// Publishes `data` under `schema` and checks that every joined source
/// document is a parse fixpoint. Returns how many groups merged two
/// fragments into one container (equal px-root).
size_t ExpectJoinedFixpoints(const xml::Collection& data,
                             const frag::FragmentationSchema& schema) {
  DistributionCatalog catalog;
  ClusterSim cluster(2, xdb::DatabaseOptions(), NetworkModel());
  DataPublisher publisher(&cluster, &catalog);
  EXPECT_TRUE(publisher.PublishFragmented(data, schema).ok());
  auto groups = FetchGroups(&cluster, schema);
  EXPECT_FALSE(groups.empty());
  size_t merged_groups = 0;
  auto pool = std::make_shared<xml::NamePool>();
  for (auto& [source, docs] : groups) {
    EXPECT_FALSE(source.empty()) << "fragment document without px-src";
    std::map<std::string, size_t> roots;
    for (const DocumentPtr& d : docs) ++roots[d->GetMetadata("px-root")];
    for (const auto& [root, n] : roots) {
      if (n > 1) {
        ++merged_groups;
        break;
      }
    }
    auto joined = JoinFetchedFragments(source, docs, pool);
    EXPECT_TRUE(joined.ok()) << source << ": " << joined.status();
    if (!joined.ok()) continue;
    EXPECT_EQ((*joined)->doc_name(), source);
    ExpectParseFixpoint(**joined);
  }
  return merged_groups;
}

TEST(JoinFixpointTest, VerticalArticles) {
  gen::XBenchGenOptions options;
  options.doc_count = 6;
  options.target_doc_bytes = 3000;
  options.seed = 17;
  auto articles = gen::GenerateArticles(options, nullptr);
  ASSERT_TRUE(articles.ok()) << articles.status();
  auto schema = workload::ArticleVerticalSchema("papers");
  ASSERT_TRUE(schema.ok()) << schema.status();
  ExpectJoinedFixpoints(*articles, *schema);
}

TEST(JoinFixpointTest, HybridStoreBothModes) {
  gen::StoreGenOptions options;
  options.item_count = 24;
  options.seed = 18;
  options.large_items = false;
  options.sections = {"CD", "DVD", "BOOK", "TOY"};
  auto store = gen::GenerateStore(options, nullptr);
  ASSERT_TRUE(store.ok()) << store.status();
  for (frag::HybridMode mode : {frag::HybridMode::kSinglePrunedDoc,
                                frag::HybridMode::kOneDocPerSubtree}) {
    auto schema =
        workload::StoreHybridSchema("store", options.sections, 3, mode);
    ASSERT_TRUE(schema.ok()) << schema.status();
    const size_t merged = ExpectJoinedFixpoints(*store, *schema);
    if (mode == frag::HybridMode::kSinglePrunedDoc) {
      // FragMode2 instance fragments replicate the Items container: the
      // join merges their children into one.
      EXPECT_GT(merged, 0u);
    }
  }
}

/// A hand-built wire document: `<root_name>` carrying the given
/// reconstruction IDs.
std::shared_ptr<Document> WireDoc(const std::string& name,
                                  const std::string& root_name,
                                  const std::string& root_id,
                                  const std::string& ancestors,
                                  const std::shared_ptr<xml::NamePool>& pool) {
  auto doc = std::make_shared<Document>(pool, name);
  doc->CreateRoot(root_name);
  doc->SetMetadata("px-src", "d");
  doc->SetMetadata("px-root", root_id);
  doc->SetMetadata("px-anc", ancestors);
  return doc;
}

TEST(JoinFixpointTest, MergedContainerAttributesPrecedeContent) {
  // Two FragMode2-style siblings share the Items container (id 2); each
  // carries its own attribute. Appending the second one's children after
  // the first's <Item> would leave an attribute behind an element child,
  // which a parser never produces.
  auto pool = std::make_shared<xml::NamePool>();
  auto left = WireDoc("d#l", "Items", "2", "1:Store", pool);
  left->AppendAttribute(left->root(), "a", "1");
  left->AppendText(left->AppendElement(left->root(), "Item"), "x");
  auto right = WireDoc("d#r", "Items", "2", "1:Store", pool);
  right->AppendAttribute(right->root(), "b", "2");
  right->AppendText(right->AppendElement(right->root(), "Item"), "y");
  left->SealLabels();
  right->SealLabels();

  auto joined = JoinFetchedFragments("d", {left, right},
                                     std::make_shared<xml::NamePool>());
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(xml::Serialize(**joined),
            "<Store><Items a=\"1\" b=\"2\"><Item>x</Item><Item>y</Item>"
            "</Items></Store>");
  ExpectParseFixpoint(**joined);
}

TEST(JoinFixpointTest, AdjacentTextMergesAndBlankRunsDrop) {
  auto pool = std::make_shared<xml::NamePool>();
  // Text from two merged roots is one run: one text node, as parsed.
  auto a = WireDoc("d#a", "t", "2", "1:r", pool);
  a->AppendText(a->root(), "ab");
  auto b = WireDoc("d#b", "t", "2", "1:r", pool);
  b->AppendText(b->root(), " cd ");
  a->SealLabels();
  b->SealLabels();
  auto joined =
      JoinFetchedFragments("d", {a, b}, std::make_shared<xml::NamePool>());
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(xml::Serialize(**joined), "<r><t>ab cd </t></r>");
  ExpectParseFixpoint(**joined);

  // A whitespace-only run is ignorable whitespace to a parser: dropped.
  auto empty = WireDoc("d#e", "t", "2", "1:r", pool);
  auto blank = WireDoc("d#w", "t", "2", "1:r", pool);
  blank->AppendText(blank->root(), "  ");
  empty->SealLabels();
  blank->SealLabels();
  joined = JoinFetchedFragments("d", {empty, blank},
                                std::make_shared<xml::NamePool>());
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(xml::Serialize(**joined), "<r><t/></r>");
  ExpectParseFixpoint(**joined);
}

TEST(JoinFixpointTest, MergedMixedContentIsRejected) {
  // Text from one root and an element from another in one container is
  // mixed content, which the data model (and its parser) rejects.
  auto pool = std::make_shared<xml::NamePool>();
  auto a = WireDoc("d#a", "t", "2", "1:r", pool);
  a->AppendElement(a->root(), "x");
  auto b = WireDoc("d#b", "t", "2", "1:r", pool);
  b->AppendText(b->root(), "text");
  a->SealLabels();
  b->SealLabels();
  auto joined =
      JoinFetchedFragments("d", {a, b}, std::make_shared<xml::NamePool>());
  EXPECT_FALSE(joined.ok());
}

TEST(JoinComposeTest, WarmJoinParsesNoXmlOnTheCoordinator) {
  gen::XBenchGenOptions options;
  options.doc_count = 8;
  options.target_doc_bytes = 3000;
  options.seed = 19;
  auto articles = gen::GenerateArticles(options, nullptr);
  ASSERT_TRUE(articles.ok()) << articles.status();
  auto schema = workload::ArticleVerticalSchema("papers");
  ASSERT_TRUE(schema.ok()) << schema.status();
  DistributionCatalog catalog;
  ClusterSim cluster(schema->fragments.size(), xdb::DatabaseOptions(),
                     NetworkModel());
  DataPublisher publisher(&cluster, &catalog);
  ASSERT_TRUE(publisher.PublishFragmented(*articles, *schema).ok());
  QueryService service(&cluster, &catalog);

  const std::vector<workload::QuerySpec> queries =
      workload::VerticalQueries("papers");
  for (const char* id : {"Q4", "Q9"}) {
    const workload::QuerySpec* q = workload::FindQuery(queries, id);
    ASSERT_NE(q, nullptr) << id;
    auto plan = service.decomposer().Decompose(q->text);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_EQ(plan->composition, Composition::kJoinReconstruct) << id;
    for (bool streaming : {true, false}) {
      ExecutionOptions exec;
      exec.streaming = streaming;
      auto warm = service.Execute(q->text, exec);
      ASSERT_TRUE(warm.ok()) << id << ": " << warm.status();
      const uint64_t before = xml::ThreadParseCount();
      auto result = service.Execute(q->text, exec);
      ASSERT_TRUE(result.ok()) << id << ": " << result.status();
      EXPECT_EQ(xml::ThreadParseCount(), before)
          << id << " streaming=" << streaming;
      EXPECT_EQ(result->serialized, warm->serialized) << id;
      EXPECT_GT(result->result_items, 0u) << id;
    }
  }
}

TEST(JoinComposeTest, WholeDocumentFetchMatchesCentralized) {
  // avg/max do not decompose over horizontal fragments: the plan fetches
  // every fragment's documents whole and runs the original query over
  // the nodes' own documents (their name pools, as they are).
  gen::ItemsGenOptions options;
  options.doc_count = 40;
  options.seed = 20;
  options.sections = {"CD", "DVD", "BOOK", "TOY"};
  auto items = gen::GenerateItems(options, nullptr);
  ASSERT_TRUE(items.ok()) << items.status();
  auto schema = workload::SectionHorizontalSchema("items", options.sections,
                                                  4);
  ASSERT_TRUE(schema.ok()) << schema.status();

  DistributionCatalog catalog;
  ClusterSim cluster(4, xdb::DatabaseOptions(), NetworkModel());
  DataPublisher publisher(&cluster, &catalog);
  ASSERT_TRUE(publisher.PublishFragmented(*items, *schema).ok());
  xml::Collection central("items_c", items->schema(), items->root_path(),
                          items->kind());
  for (const DocumentPtr& doc : items->docs()) {
    ASSERT_TRUE(central.Add(doc).ok());
  }
  ASSERT_TRUE(publisher.PublishCentralized(central, 0).ok());
  QueryService service(&cluster, &catalog);

  for (const char* fn : {"avg", "max"}) {
    const std::string query =
        std::string(fn) + "(collection(\"items\")/Item/Code)";
    auto plan = service.decomposer().Decompose(query);
    ASSERT_TRUE(plan.ok()) << plan.status();
    ASSERT_EQ(plan->composition, Composition::kJoinReconstruct) << query;
    ASSERT_EQ(plan->subqueries.size(), 4u) << query;
    auto expected = cluster.database(0).Execute(
        std::string(fn) + "(collection(\"items_c\")/Item/Code)");
    ASSERT_TRUE(expected.ok()) << expected.status();
    ASSERT_FALSE(expected->serialized.empty());
    for (bool streaming : {true, false}) {
      for (size_t parallelism : {size_t{1}, size_t{4}}) {
        ExecutionOptions exec;
        exec.streaming = streaming;
        exec.parallelism = parallelism;
        auto result = service.Execute(query, exec);
        ASSERT_TRUE(result.ok()) << query << ": " << result.status();
        EXPECT_EQ(result->serialized, expected->serialized)
            << query << " streaming=" << streaming
            << " parallelism=" << parallelism;
        EXPECT_EQ(result->result_items, 1u) << query;
      }
    }
  }
}

}  // namespace
}  // namespace partix::middleware
