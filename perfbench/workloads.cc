#include "workloads.h"

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "gen/virtual_store.h"
#include "gen/xbench.h"
#include "workload/queries.h"
#include "workload/schemas.h"

namespace perfbench {

namespace pm = partix::middleware;
namespace pw = partix::workload;
using partix::Result;
using partix::Status;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    const std::vector<std::pair<std::string, size_t>> horizontal = {
        {"Q1", 1}, {"Q2", 1}, {"Q3", 1}, {"Q4", 1},
        {"Q5", 1}, {"Q6", 1}, {"Q7", 1}, {"Q8", 1}};

    WorkloadSpec scan;
    scan.name = "items-scan";
    scan.corpus = Corpus::kItems;
    scan.items = 1900;  // about 1 MiB serialized
    scan.fragments = 4;
    scan.node_cache_bytes = size_t{128} << 10;
    scan.clients = 2;
    scan.parallelism = 2;
    scan.mix = horizontal;

    // Not in BENCHMARK.json: its p99 (queries of about 3 ms) follows the
    // shared host's load too closely to be judged. It stays runnable as the
    // cache-resident counterpart of items-scan for the traced run.
    WorkloadSpec cached = scan;
    cached.name = "items-cached";
    cached.node_cache_bytes = partix::xdb::DatabaseOptions().cache_capacity_bytes;

    WorkloadSpec join;
    join.name = "articles-join";
    join.corpus = Corpus::kArticles;
    // Q4 and Q7 join every epilog, and the generator draws 5-40 references
    // per article: with 25 articles the epilog bytes, and with them p50,
    // moved by about 12% (quartile spread) from seed to seed. 50 smaller
    // articles keep the body bytes and halve that variance.
    join.article_bytes = 8 << 10;
    join.articles_per_genre = 10;
    join.node_cache_bytes = partix::xdb::DatabaseOptions().cache_capacity_bytes;
    join.clients = 1;
    join.parallelism = 3;
    // p50 falls in the cheap class (Q4, Q7) and p99 in the expensive one
    // (Q8, Q9: 1 in 13 queries, so p99 is about the upper quartile of Q9).
    // At 3:3:1:1, p99 was Q9's 92nd percentile, the edge of its tail, and
    // spread twice as much as p50 from run to run.
    join.mix = {{"Q4", 12}, {"Q7", 12}, {"Q8", 1}, {"Q9", 1}};
    return std::vector<WorkloadSpec>{scan, join, cached};
  }();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

pm::ExecutionOptions MeasuredExecution(const WorkloadSpec& spec) {
  pm::ExecutionOptions exec;
  exec.parallelism = spec.parallelism;
  return exec;
}

namespace {

/// Text of /article/prolog/genre, or "" when absent.
std::string GenreOf(const partix::xml::Document& doc) {
  if (doc.empty()) return "";
  for (partix::xml::NodeId prolog : doc.ElementChildren(doc.root())) {
    if (doc.name(prolog) != "prolog") continue;
    for (partix::xml::NodeId child : doc.ElementChildren(prolog)) {
      if (doc.name(child) == "genre") return doc.StringValue(child);
    }
  }
  return "";
}

/// Articles with exactly `per_genre` documents of each genre, so the
/// selectivity of the genre predicates (Q8, Q9) does not vary with the
/// seed. Generates 4x the needed documents (the generator draws genres
/// uniformly; at 2.5x one seed in about 30 left a genre short) and keeps
/// the first of each genre in generation order.
Result<partix::xml::Collection> GenerateArticles(const WorkloadSpec& spec,
                                                 uint64_t seed) {
  partix::gen::XBenchGenOptions options;
  options.seed = seed;
  options.target_doc_bytes = spec.article_bytes;
  options.doc_count = spec.articles_per_genre * 5 * 4;
  PARTIX_ASSIGN_OR_RETURN(partix::xml::Collection all,
                          partix::gen::GenerateArticles(options, nullptr));
  partix::xml::Collection kept(all.name(), all.schema(), all.root_path(),
                               all.kind());
  std::map<std::string, size_t> per_genre;
  for (const partix::xml::DocumentPtr& doc : all.docs()) {
    size_t& taken = per_genre[GenreOf(*doc)];
    if (taken == spec.articles_per_genre) continue;
    ++taken;
    PARTIX_RETURN_IF_ERROR(kept.Add(doc));
  }
  if (kept.size() != spec.articles_per_genre * 5) {
    return Status::Internal("a genre has fewer than " +
                            std::to_string(spec.articles_per_genre) +
                            " generated articles");
  }
  return kept;
}

/// Newline-separated items of a serialized answer, sorted: two answers
/// with equal results are equal as multisets of items.
std::vector<std::string_view> SortedItems(const std::string& answer) {
  std::vector<std::string_view> items;
  size_t start = 0;
  while (start <= answer.size()) {
    size_t end = answer.find('\n', start);
    if (end == std::string::npos) end = answer.size();
    items.emplace_back(answer.data() + start, end - start);
    start = end + 1;
  }
  std::sort(items.begin(), items.end());
  return items;
}

}  // namespace

Result<std::unique_ptr<Setup>> BuildSetup(const WorkloadSpec& spec,
                                          uint64_t seed, bool keep_corpus) {
  auto setup = std::make_unique<Setup>();
  std::vector<pw::QuerySpec> query_set;
  if (spec.corpus == Corpus::kItems) {
    partix::gen::ItemsGenOptions options;
    options.seed = seed;
    options.doc_count = spec.items;
    PARTIX_ASSIGN_OR_RETURN(setup->corpus,
                            partix::gen::GenerateItems(options, nullptr));
    PARTIX_ASSIGN_OR_RETURN(
        setup->schema,
        pw::SectionHorizontalSchema(setup->corpus.name(), options.sections,
                                    spec.fragments));
    query_set = pw::HorizontalQueries(setup->corpus.name());
  } else {
    PARTIX_ASSIGN_OR_RETURN(setup->corpus, GenerateArticles(spec, seed));
    PARTIX_ASSIGN_OR_RETURN(setup->schema,
                            pw::ArticleVerticalSchema(setup->corpus.name()));
    query_set = pw::VerticalQueries(setup->corpus.name());
  }

  setup->documents = setup->corpus.size();
  pm::NetworkModel network;
  network.emulated_rpc_sec = 0.0;
  std::vector<std::string> centralized;
  std::vector<size_t> weights;
  {
    PARTIX_ASSIGN_OR_RETURN(
        std::unique_ptr<pw::Deployment> central,
        pw::Deployment::Centralized(setup->corpus,
                                    partix::xdb::DatabaseOptions(), network));
    for (const auto& [id, weight] : spec.mix) {
      const pw::QuerySpec* query = pw::FindQuery(query_set, id);
      if (query == nullptr) {
        return Status::InvalidArgument("unknown query " + id);
      }
      PARTIX_ASSIGN_OR_RETURN(pm::DistributedResult answer,
                              central->service().Execute(query->text));
      centralized.push_back(std::move(answer.serialized));
      setup->queries.push_back(MixQuery{id, query->text, "", false});
      weights.push_back(weight);
    }
  }

  partix::xdb::DatabaseOptions node_options;
  node_options.cache_capacity_bytes = spec.node_cache_bytes;
  PARTIX_ASSIGN_OR_RETURN(setup->deployment,
                          pw::Deployment::Fragmented(setup->corpus,
                                                     setup->schema,
                                                     node_options, network));
  if (!keep_corpus) setup->corpus = partix::xml::Collection();
  for (size_t q = 0; q < setup->queries.size(); ++q) {
    MixQuery& mq = setup->queries[q];
    PARTIX_ASSIGN_OR_RETURN(pm::DistributedResult reference,
                            setup->deployment->service().Execute(mq.text));
    mq.reference = std::move(reference.serialized);
    if (mq.reference != centralized[q]) {
      if (SortedItems(mq.reference) != SortedItems(centralized[q])) {
        return Status::Internal(mq.id + ": distributed answer differs from "
                                        "the centralized answer");
      }
      mq.order_only_vs_centralized = true;
    }
  }

  partix::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  for (size_t q = 0; q < weights.size(); ++q) {
    setup->sequence.insert(setup->sequence.end(), weights[q], q);
  }
  for (size_t i = setup->sequence.size(); i > 1; --i) {
    std::swap(setup->sequence[i - 1], setup->sequence[rng.NextBelow(i)]);
  }
  for (size_t c = 0; c < spec.clients; ++c) {
    setup->client_offsets.push_back(rng.NextBelow(setup->sequence.size()));
  }

  pm::SchedulerOptions options;
  options.max_concurrent_queries = spec.clients;
  options.queue_capacity = spec.clients;
  options.pool_threads = spec.clients * spec.parallelism;
  setup->scheduler = std::make_unique<pm::Scheduler>(
      &setup->deployment->service(), options);
  return setup;
}

}  // namespace perfbench
