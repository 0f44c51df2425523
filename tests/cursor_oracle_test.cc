// The engine's block cursor against an eager oracle. Every prepared plan
// is evaluated by Database::ExecutePreparedStream, and a materialized
// answer is that cursor drained, so the eager evaluator is kept here as
// the reference: every workload query over its centralized corpus,
// drained at block sizes 1, 7 and 256 and morsel parallelism 1 and 4,
// must equal xquery::Evaluator::Eval + SerializeSequence over the same
// parsed documents through a plain resolver (no candidate pruning) —
// byte for byte and item for item.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/database.h"
#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "gtest/gtest.h"
#include "workload/queries.h"
#include "xquery/evaluator.h"
#include "xquery/item.h"

namespace partix::xdb {
namespace {

/// Every document of every collection, read once through the database's
/// own parse path: the oracle evaluates the same parsed documents the
/// cursor does, without the planner's pruning.
class AllDocsResolver : public xquery::CollectionResolver {
 public:
  explicit AllDocsResolver(std::map<std::string, std::vector<xml::DocumentPtr>>
                               docs)
      : docs_(std::move(docs)) {}

  Result<std::vector<xml::DocumentPtr>> Resolve(
      const std::string& name) override {
    auto it = docs_.find(name);
    if (it == docs_.end()) {
      return Status::NotFound("no collection " + name);
    }
    return it->second;
  }

 private:
  std::map<std::string, std::vector<xml::DocumentPtr>> docs_;
};

enum class Corpus { kItems, kArticles, kStore };

class CursorOracleP : public ::testing::TestWithParam<Corpus> {};

TEST_P(CursorOracleP, DrainedCursorEqualsEagerEvaluation) {
  const std::vector<std::string> sections = {"CD", "DVD", "BOOK", "TOY"};
  Result<xml::Collection> data;
  std::vector<workload::QuerySpec> queries;
  switch (GetParam()) {
    case Corpus::kItems: {
      gen::ItemsGenOptions options;
      options.doc_count = 36;
      options.seed = 91;
      options.sections = sections;
      data = gen::GenerateItems(options, nullptr);
      queries = workload::HorizontalQueries("items");
      break;
    }
    case Corpus::kArticles: {
      gen::XBenchGenOptions options;
      options.doc_count = 8;
      options.target_doc_bytes = 3000;
      options.seed = 92;
      data = gen::GenerateArticles(options, nullptr);
      queries = workload::VerticalQueries("papers");
      break;
    }
    case Corpus::kStore: {
      gen::StoreGenOptions options;
      options.item_count = 36;
      options.seed = 93;
      options.sections = sections;
      options.large_items = false;
      data = gen::GenerateStore(options, nullptr);
      queries = workload::HybridQueries("store");
      break;
    }
  }
  ASSERT_TRUE(data.ok()) << data.status();
  ASSERT_FALSE(queries.empty());

  Database db;
  ASSERT_TRUE(db.StoreCollection(*data).ok());
  auto docs = db.AllDocuments(data->name());
  ASSERT_TRUE(docs.ok()) << docs.status();
  AllDocsResolver resolver({{data->name(), std::move(*docs)}});
  ThreadPool pool(4);

  size_t nonempty = 0;
  for (const workload::QuerySpec& q : queries) {
    SCOPED_TRACE(q.id);
    auto prepared = db.Prepare(q.text);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    const PreparedQuery& plan = *prepared->plan;

    xquery::Evaluator oracle(&resolver, db.pool());
    auto expected_items = oracle.Eval(plan.compiled->ast());
    ASSERT_TRUE(expected_items.ok()) << expected_items.status();
    const std::string expected = xquery::SerializeSequence(*expected_items);
    if (!expected_items->empty()) ++nonempty;

    for (size_t block_items : {size_t{1}, size_t{7}, size_t{256}}) {
      for (size_t morsels : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE("block_items=" + std::to_string(block_items) +
                     " morsels=" + std::to_string(morsels));
        ExecParams exec;
        exec.stream_block_items = block_items;
        exec.morsel_parallelism = morsels;
        exec.morsel_pool = &pool;
        auto cursor = db.ExecutePreparedStream(plan, exec);
        ASSERT_TRUE(cursor.ok()) << cursor.status();
        auto drained = DrainCursor(**cursor);
        ASSERT_TRUE(drained.ok()) << drained.status();
        EXPECT_EQ(drained->serialized, expected);
        EXPECT_EQ(drained->items.size(), expected_items->size());
        EXPECT_EQ(drained->metrics.result_items, expected_items->size());
        EXPECT_EQ(drained->metrics.result_bytes, expected.size());
      }
    }
  }
  // The oracle must compare real answers, not a run of empty ones.
  EXPECT_GT(nonempty, queries.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, CursorOracleP,
    ::testing::Values(Corpus::kItems, Corpus::kArticles, Corpus::kStore),
    [](const ::testing::TestParamInfo<Corpus>& info) {
      switch (info.param) {
        case Corpus::kItems:
          return "Items";
        case Corpus::kArticles:
          return "Articles";
        case Corpus::kStore:
          return "Store";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace partix::xdb
