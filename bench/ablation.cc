// Ablation bench for data localization on/off: executes a selective
// horizontal query once with normal decomposition and once with a plan
// that ships the sub-query to every fragment. Exits non-zero when any
// measurement fails.
//
// (The parse-cache ablation lives in micro_engine; the transmission-model
// ablation is the ±T series of fig7d; the structural-index ablation is
// bench/structural_join.)

#include <algorithm>
#include <cstdio>

#include "common/strings.h"
#include "gen/virtual_store.h"
#include "workload/harness.h"
#include "workload/queries.h"
#include "workload/schemas.h"
#include "xquery/compiled_query.h"

using namespace partix;  // bench binary: brevity over style here

namespace {

/// Measures one query text on a deployment with the standard protocol.
Result<double> MeasureMs(workload::Deployment* deployment,
                         const std::string& id, const std::string& text,
                         size_t runs) {
  workload::QuerySpec spec{id, "", text};
  workload::MeasureOptions options;
  options.runs = runs;
  PARTIX_ASSIGN_OR_RETURN(workload::Measurement m,
                          workload::Measure(deployment, spec, options));
  return m.response_ms;
}

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  const double scale = workload::ScaleFromEnv();
  const uint64_t target = static_cast<uint64_t>((uint64_t{8} << 20) * scale);
  const size_t runs = workload::RunsFromEnv(3);

  gen::ItemsGenOptions gen_options;
  gen_options.seed = 20060107;
  auto items = gen::GenerateItemsBySize(gen_options, target, nullptr);
  if (!items.ok()) return Fail("generation", items.status());
  std::printf("Ablations - ItemsSHor (%zu documents, %s)\n", items->size(),
              HumanBytes(items->ApproxBytes()).c_str());

  middleware::NetworkModel network;
  xdb::DatabaseOptions faithful;
  faithful.cache_capacity_bytes = std::max<uint64_t>(1 << 20, target / 6);

  auto schema = workload::SectionHorizontalSchema(
      items->name(), gen_options.sections, 8);
  if (!schema.ok()) return Fail("schema", schema.status());

  auto deployment =
      workload::Deployment::Fragmented(*items, *schema, faithful, network);
  if (!deployment.ok()) return Fail("deployment", deployment.status());
  const std::string query =
      "for $i in collection(\"items\")/Item "
      "where $i/Section = \"DVD\" return $i/Code";
  Result<double> with_localization =
      MeasureMs(deployment->get(), "localized", query, runs);
  if (!with_localization.ok()) {
    return Fail("localized", with_localization.status());
  }

  // Without localization: hand-build a plan shipping the sub-query to
  // every fragment (the paper's prototype mode with naive placement).
  middleware::DistributedPlan plan;
  plan.collection = items->name();
  plan.original_query = query;
  plan.composition = middleware::Composition::kUnion;
  for (size_t f = 0; f < schema->fragments.size(); ++f) {
    std::string text = query;
    const std::string needle = "\"" + items->name() + "\"";
    size_t pos = text.find(needle);
    text.replace(pos, needle.size(),
                 "\"" + schema->fragments[f].name() + "\"");
    auto compiled = xquery::CompiledQuery::Compile(text);
    if (!compiled.ok()) return Fail("compile", compiled.status());
    plan.subqueries.push_back(middleware::SubQuery{
        schema->fragments[f].name(), f, std::move(text), {}, *compiled});
  }
  double sum = 0.0;
  size_t counted = 0;
  for (size_t run = 0; run < runs; ++run) {
    auto result = deployment->get()->service().ExecutePlan(plan);
    if (!result.ok()) return Fail("unlocalized", result.status());
    if (run == 0 && runs > 1) continue;
    sum += result->response_ms;
    ++counted;
  }
  double without_localization = sum / std::max<size_t>(1, counted);
  std::printf(
      "\ndata localization (selective query, 8 fragments)\n"
      "    with localization    %9.2f ms (1 sub-query)\n"
      "    without localization %9.2f ms (8 sub-queries)  -> %.1fx\n",
      *with_localization, without_localization,
      without_localization / *with_localization);
  return 0;
}
