#ifndef PARTIX_PERFBENCH_WORKLOADS_H_
#define PARTIX_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "fragmentation/fragment_def.h"
#include "partix/scheduler.h"
#include "workload/harness.h"
#include "xml/collection.h"

namespace perfbench {

enum class Corpus {
  /// Citems small documents, horizontally fragmented on /Item/Section.
  kItems,
  /// XBench articles, vertically fragmented into prolog/body/epilog.
  kArticles,
};

/// One benchmark workload: corpus, fragmentation design, node cache size,
/// closed-loop shape and query mix. README.md says why each exists.
struct WorkloadSpec {
  std::string name;
  Corpus corpus = Corpus::kItems;
  /// Items only: Item documents generated. A fixed count, not a byte
  /// target, so every seed gives the queries the same number of documents.
  size_t items = 0;
  /// Articles only: serialized size of one article, and articles kept per
  /// genre (the corpus holds exactly this many of each of the 5 genres).
  uint64_t article_bytes = 0;
  size_t articles_per_genre = 0;
  /// Horizontal designs: section fragments (one node each).
  size_t fragments = 0;
  /// Parse-cache budget of every node (DatabaseOptions).
  size_t node_cache_bytes = 0;
  /// Closed-loop clients and the executor parallelism of each query;
  /// clients x parallelism stays within the host's cores.
  size_t clients = 1;
  size_t parallelism = 1;
  /// Query ids of the paper's query set with their weight in the mix.
  std::vector<std::pair<std::string, size_t>> mix;
};

/// Every workload: the ones BENCHMARK.json lists, in its order, then
/// items-cached, which runs but is not judged (README.md says why).
const std::vector<WorkloadSpec>& Workloads();
/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One distinct query of a workload's mix with its reference answer.
struct MixQuery {
  std::string id;
  std::string text;
  /// The deployment's own sequential answer (parallelism 1), taken at
  /// setup; every measured answer must equal it byte for byte.
  std::string reference;
  /// True when the reference equals the centralized single-engine answer
  /// only as a multiset of items (same items, other order).
  bool order_only_vs_centralized = false;
};

/// A deployed workload, ready for closed-loop clients.
struct Setup {
  /// The generated collection; empty unless BuildSetup was asked to keep
  /// it (the traced replay reconstructs its fragments).
  partix::xml::Collection corpus;
  /// Documents the generated collection held.
  size_t documents = 0;
  partix::frag::FragmentationSchema schema;
  std::unique_ptr<partix::workload::Deployment> deployment;
  /// Admission control over the deployment's service; destroyed before it.
  std::unique_ptr<partix::middleware::Scheduler> scheduler;
  std::vector<MixQuery> queries;
  /// The weighted mix as a cycle of indexes into `queries`, shuffled by
  /// the seed; client c starts at client_offsets[c].
  std::vector<size_t> sequence;
  std::vector<size_t> client_offsets;
};

/// Generates the corpus from `seed`, fragments and publishes it, takes the
/// reference answers and checks each against the centralized engine (as a
/// multiset of items), and creates the scheduler. The centralized engine
/// is gone before the fragmented deployment is built, and the corpus is
/// dropped unless `keep_corpus`, so only the deployment stays resident.
/// Fails when any setup step fails or a reference differs from the
/// centralized answer in more than item order.
partix::Result<std::unique_ptr<Setup>> BuildSetup(const WorkloadSpec& spec,
                                                  uint64_t seed,
                                                  bool keep_corpus);

/// Execution options every measured query uses.
partix::middleware::ExecutionOptions MeasuredExecution(
    const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PARTIX_PERFBENCH_WORKLOADS_H_
