// Engine-level micro-benchmarks (google-benchmark): XML parsing and
// serialization, path evaluation, query compilation, the fragmentation
// operators, and the parse-cache ablation the design calls out
// (DESIGN.md "ablation candidates").

#include <benchmark/benchmark.h>

#include <memory>

#include "engine/database.h"
#include "fragmentation/algebra.h"
#include "fragmentation/correctness.h"
#include "fragmentation/fragmenter.h"
#include "partix/decomposer.h"
#include "gen/virtual_store.h"
#include "storage/document_store.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xpath/eval.h"
#include "xquery/parser.h"

namespace {

using namespace partix;  // bench binary: brevity over style here

/// One mid-sized Item document reused across benchmarks.
std::string SampleItemXml() {
  gen::ItemsGenOptions options;
  options.doc_count = 1;
  options.large_docs = true;
  options.seed = 11;
  auto coll = gen::GenerateItems(options, nullptr);
  return xml::Serialize(*coll->docs()[0]);
}

void BM_ParseXml(benchmark::State& state) {
  auto pool = std::make_shared<xml::NamePool>();
  std::string xml = SampleItemXml();
  for (auto _ : state) {
    auto doc = xml::ParseXml(pool, "bench", xml);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(xml.size()));
}
BENCHMARK(BM_ParseXml);

void BM_SerializeXml(benchmark::State& state) {
  auto pool = std::make_shared<xml::NamePool>();
  auto doc = xml::ParseXml(pool, "bench", SampleItemXml());
  for (auto _ : state) {
    std::string out = xml::Serialize(**doc);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SerializeXml);

void BM_PathEvalChild(benchmark::State& state) {
  auto pool = std::make_shared<xml::NamePool>();
  auto doc = xml::ParseXml(pool, "bench", SampleItemXml());
  auto path = xpath::Path::Parse("/Item/PictureList/Picture");
  for (auto _ : state) {
    auto nodes = xpath::EvalPath(**doc, *path);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_PathEvalChild);

void BM_PathEvalDescendant(benchmark::State& state) {
  auto pool = std::make_shared<xml::NamePool>();
  auto doc = xml::ParseXml(pool, "bench", SampleItemXml());
  auto path = xpath::Path::Parse("//Description");
  for (auto _ : state) {
    auto nodes = xpath::EvalPath(**doc, *path);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_PathEvalDescendant);

void BM_QueryParse(benchmark::State& state) {
  const std::string query =
      "for $i in collection(\"items\")/Item "
      "where $i/Section = \"CD\" and contains($i/Description, \"good\") "
      "return <r>{ $i/Name }{ count($i/Characteristics) }</r>";
  for (auto _ : state) {
    auto ast = xquery::ParseQuery(query);
    benchmark::DoNotOptimize(ast);
  }
}
BENCHMARK(BM_QueryParse);

void BM_ProjectDocument(benchmark::State& state) {
  auto pool = std::make_shared<xml::NamePool>();
  auto doc = xml::ParseXml(pool, "bench", SampleItemXml());
  auto path = xpath::Path::Parse("/Item");
  auto prune = xpath::Path::Parse("/Item/PictureList");
  for (auto _ : state) {
    auto projected = frag::ProjectDocument(**doc, *path, {*prune}, "f");
    benchmark::DoNotOptimize(projected);
  }
}
BENCHMARK(BM_ProjectDocument);

/// Ablation: the same scan query with the parse cache enabled vs disabled
/// — the cost model behind the FragMode1/FragMode2 result.
void BM_ScanQuery(benchmark::State& state) {
  const bool cache = state.range(0) != 0;
  xdb::DatabaseOptions options;
  options.cache_capacity_bytes = cache ? (size_t{64} << 20) : 0;
  xdb::Database db(options);
  (void)db.CreateCollection("items");
  gen::ItemsGenOptions gen_options;
  gen_options.doc_count = 128;
  gen_options.seed = 13;
  auto coll = gen::GenerateItems(gen_options, nullptr);
  for (const auto& doc : coll->docs()) {
    (void)db.StoreDocument("items", *doc);
  }
  const std::string query =
      "count(for $i in collection(\"items\")/Item "
      "where $i/Code >= 0 return $i)";
  for (auto _ : state) {
    auto result = db.Execute(query);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(cache ? "parse-cache=on" : "parse-cache=off");
}
BENCHMARK(BM_ScanQuery)->Arg(1)->Arg(0);

void BM_ApplyFragmentation(benchmark::State& state) {
  gen::ItemsGenOptions options;
  options.doc_count = 256;
  options.seed = 14;
  auto coll = gen::GenerateItems(options, nullptr);
  frag::FragmentationSchema schema;
  schema.collection = "items";
  auto mu_cd = xpath::Conjunction::Parse("/Item/Section = \"CD\"");
  auto mu_rest = xpath::Conjunction::Parse("/Item/Section != \"CD\"");
  schema.fragments.emplace_back(frag::HorizontalDef{"f1", *mu_cd});
  schema.fragments.emplace_back(frag::HorizontalDef{"f2", *mu_rest});
  for (auto _ : state) {
    auto fragments = frag::ApplyFragmentation(*coll, schema);
    benchmark::DoNotOptimize(fragments);
  }
}
BENCHMARK(BM_ApplyFragmentation);

void BM_DecomposeQuery(benchmark::State& state) {
  middleware::DistributionCatalog catalog;
  frag::FragmentationSchema schema;
  schema.collection = "items";
  std::vector<middleware::FragmentPlacement> placements;
  for (int f = 0; f < 8; ++f) {
    auto mu = xpath::Conjunction::Parse(
        "/Item/Code >= " + std::to_string(f * 100) + " and /Item/Code < " +
        std::to_string((f + 1) * 100));
    schema.fragments.emplace_back(
        frag::HorizontalDef{"f" + std::to_string(f), *mu});
    placements.push_back(
        middleware::FragmentPlacement{"f" + std::to_string(f),
                                      static_cast<size_t>(f)});
  }
  (void)catalog.Register(schema, placements);
  middleware::QueryDecomposer decomposer(&catalog);
  const std::string query =
      "for $i in collection(\"items\")/Item "
      "where $i/Code >= 250 and $i/Code < 320 return $i/Name";
  for (auto _ : state) {
    auto plan = decomposer.Decompose(query);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_DecomposeQuery);

void BM_CorrectnessCheck(benchmark::State& state) {
  gen::ItemsGenOptions options;
  options.doc_count = 128;
  options.seed = 15;
  options.large_docs = true;
  auto coll = gen::GenerateItems(options, nullptr);
  frag::FragmentationSchema schema;
  schema.collection = "items";
  auto item = xpath::Path::Parse("/Item");
  auto pics = xpath::Path::Parse("/Item/PictureList");
  schema.fragments.emplace_back(frag::VerticalDef{"f1", *item, {*pics}});
  schema.fragments.emplace_back(frag::VerticalDef{"f2", *pics, {}});
  for (auto _ : state) {
    auto report = frag::CheckCorrectness(*coll, schema);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_CorrectnessCheck);

}  // namespace

BENCHMARK_MAIN();
