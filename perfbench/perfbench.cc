// PartiX benchmark: closed-loop clients over one deployed workload.
//
//   partix_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// alternates untraced and traced closed-loop slices, then replays the mix
// layer by layer, and reports the per-layer metrics. A table goes to
// stderr; the last line of stdout is the JSON result. README.md describes
// the workloads and every metric.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "fragmentation/fragmenter.h"
#include "fragmentation/reconstruct.h"
#include "memory/arena.h"
#include "span_log.h"
#include "stats.h"
#include "telemetry/metrics.h"
#include "workloads.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {
namespace {

namespace pm = partix::middleware;
using partix::Result;

constexpr size_t kSetupRepeats = 5;
/// Share of a traced run spent in closed-loop slices (the rest replays).
constexpr double kTracedLoopShare = 0.75;
constexpr size_t kTracedSlices = 6;
constexpr size_t kLayerPasses = 3;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Process resident-set high-water mark (VmHWM of /proc/self/status) in
/// MiB, or 0 when it cannot be read.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

/// Hands idle memory back to the system: the arena pool's free chunks and
/// malloc's free pages. Call while no query runs.
void ReleaseIdleMemory() {
  partix::memory::ArenaPool::Global().Trim();
  malloc_trim(0);
}

/// Releases idle memory, then resets VmHWM to the current resident set,
/// so PeakRssMb() from here on covers only what follows.
void ResetPeakRss() {
  ReleaseIdleMemory();
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs) {
    std::fprintf(stderr,
                 "warning: cannot reset VmHWM; peak_rss_mb includes set-up\n");
  }
}

double Seconds(int64_t nanos) { return static_cast<double>(nanos) / 1e9; }
double Millis(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }

/// Per-request figures summed over successful requests of a closed loop.
/// All but admit_wait_ms and fanout_gap_ms are program-reported
/// DistributedResult fields.
struct LayerSums {
  uint64_t requests = 0;
  double admit_wait_ms = 0.0;
  double fanout_gap_ms = 0.0;
  double decompose_ms = 0.0;
  double compose_ms = 0.0;
  double ttfb_ms = 0.0;
  double compile_ms = 0.0;
  uint64_t subqueries = 0;
  uint64_t pruned = 0;
  uint64_t engine_requests = 0;
  uint64_t retries = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t stream_blocks = 0;

  void Add(const LayerSums& o) {
    requests += o.requests;
    admit_wait_ms += o.admit_wait_ms;
    fanout_gap_ms += o.fanout_gap_ms;
    decompose_ms += o.decompose_ms;
    compose_ms += o.compose_ms;
    ttfb_ms += o.ttfb_ms;
    compile_ms += o.compile_ms;
    subqueries += o.subqueries;
    pruned += o.pruned;
    engine_requests += o.engine_requests;
    retries += o.retries;
    plan_hits += o.plan_hits;
    plan_misses += o.plan_misses;
    stream_blocks += o.stream_blocks;
  }
};

/// One finished request of a closed loop.
struct Sample {
  size_t query = 0;         // index into Setup::queries
  double latency_ms = 0.0;  // +inf for a failed request
  int64_t done_ns = 0;      // when the answer arrived
};

struct LoopResult {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  LayerSums layers;

  uint64_t completed() const { return attempted - failed; }
  /// Latencies in completion order, across all clients.
  std::vector<double> Latencies() const {
    std::vector<Sample> sorted = samples;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Sample& a, const Sample& b) {
                       return a.done_ns < b.done_ns;
                     });
    std::vector<double> out;
    for (const Sample& s : sorted) out.push_back(s.latency_ms);
    return out;
  }
  /// Merges another loop's figures (the traced run's slices).
  void Add(LoopResult&& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    attempted += o.attempted;
    failed += o.failed;
    elapsed_s += o.elapsed_s;
    cpu_s += o.cpu_s;
    layers.Add(o.layers);
  }
};

/// Shared state of the closed-loop clients across slices.
struct Clients {
  std::vector<size_t> cursors;  // next position in the mix, per client
  std::vector<SpanLog> logs;    // traced slices only, per client
  std::atomic<uint64_t> next_request{1};
  std::atomic<int> errors_reported{0};
};

/// Runs every client until `seconds` elapse; each sends its next query
/// only after the previous answer arrived and was checked.
LoopResult RunClosedLoop(Setup& setup, const WorkloadSpec& spec,
                         double seconds, bool traced, Clients* clients) {
  const pm::ExecutionOptions exec = MeasuredExecution(spec);
  std::vector<LoopResult> per_client(spec.clients);
  const double cpu_start = CpuSeconds();
  const int64_t start = NowNanos();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& out = per_client[c];
      SpanLog& log = clients->logs[c];
      pm::ClientContext client;
      client.client_id = "client-" + std::to_string(c);
      size_t& cursor = clients->cursors[c];
      while (NowNanos() < deadline) {
        const size_t query_index =
            setup.sequence[cursor % setup.sequence.size()];
        const MixQuery& query = setup.queries[query_index];
        ++cursor;
        const uint64_t request = clients->next_request.fetch_add(1);
        const int32_t root =
            traced ? log.Begin("client.request", request) : -1;
        const int32_t span =
            traced ? log.Begin("scheduler.execute", request, root) : -1;
        const int64_t t0 = NowNanos();
        Result<pm::DistributedResult> result =
            setup.scheduler->Execute(query.text, exec, client);
        const int64_t done = NowNanos();
        const double latency_ms = Millis(done - t0);
        if (traced) log.End(span);
        ++out.attempted;
        const int32_t check =
            traced ? log.Begin("check.answer", request, root) : -1;
        const bool ok = result.ok() && result->serialized == query.reference;
        if (traced) log.End(check);
        if (!ok) {
          ++out.failed;
          out.samples.push_back(
              Sample{query_index, std::numeric_limits<double>::infinity(),
                     done});
          if (clients->errors_reported.fetch_add(1) < 5) {
            std::fprintf(stderr, "%s: %s\n", query.id.c_str(),
                         result.ok() ? "answer differs from the reference"
                                     : result.status().ToString().c_str());
          }
          if (traced) log.End(root);
          continue;
        }
        out.samples.push_back(Sample{query_index, latency_ms, done});
        const pm::DistributedResult& r = *result;
        LayerSums& l = out.layers;
        ++l.requests;
        l.admit_wait_ms += latency_ms - r.wall_ms;
        l.fanout_gap_ms +=
            r.wall_ms - r.slowest_node_ms - r.composition_ms - r.decompose_ms;
        l.decompose_ms += r.decompose_ms;
        l.compose_ms += r.composition_ms;
        l.ttfb_ms += r.ttfb_ms;
        l.compile_ms += r.compile_ms;
        l.subqueries += r.subqueries.size();
        l.pruned += r.pruned_fragments;
        l.engine_requests += r.engine_requests;
        l.retries += r.retries;
        l.plan_hits += r.plan_cache_hits;
        l.plan_misses += r.plan_cache_misses;
        l.stream_blocks += r.stream_blocks;
        if (traced) {
          log.AddCount("scheduler.admit_wait_ms", latency_ms - r.wall_ms,
                       request, false);
          log.AddCount("wall_ms", r.wall_ms, request, true);
          log.AddCount("decompose_ms", r.decompose_ms, request, true);
          log.AddCount("slowest_node_ms", r.slowest_node_ms, request, true);
          log.AddCount("composition_ms", r.composition_ms, request, true);
          log.AddCount("ttfb_ms", r.ttfb_ms, request, true);
          log.AddCount("compile_ms", r.compile_ms, request, true);
          log.End(root);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult total;
  for (LoopResult& r : per_client) total.Add(std::move(r));
  total.elapsed_s = Seconds(NowNanos() - start);
  total.cpu_s = CpuSeconds() - cpu_start;
  return total;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Parse-cache access counters summed over every collection of every
/// node. Call only while no query runs.
partix::storage::AccessStats StorageTotals(Setup& setup) {
  partix::storage::AccessStats sum;
  pm::ClusterSim& cluster = setup.deployment->cluster();
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    partix::xdb::Database& db = cluster.database(i);
    for (const std::string& name : db.CollectionNames()) {
      auto stats = db.Stats(name);
      if (!stats.ok()) continue;
      const partix::storage::AccessStats& a = (*stats)->access();
      sum.parses += a.parses;
      sum.bytes_parsed += a.bytes_parsed;
      sum.cache_hits += a.cache_hits;
      sum.cache_misses += a.cache_misses;
      sum.cache_evictions += a.cache_evictions;
    }
  }
  return sum;
}

/// Adds the counters accrued between `before` and `after` to `*sum`.
void AddDelta(const partix::storage::AccessStats& after,
              const partix::storage::AccessStats& before,
              partix::storage::AccessStats* sum) {
  sum->parses += after.parses - before.parses;
  sum->bytes_parsed += after.bytes_parsed - before.bytes_parsed;
  sum->cache_hits += after.cache_hits - before.cache_hits;
  sum->cache_misses += after.cache_misses - before.cache_misses;
  sum->cache_evictions += after.cache_evictions - before.cache_evictions;
}

/// Timed setup: generate, fragment, publish, reference answers, warm-up
/// (every client runs the whole mix once).
Result<std::unique_ptr<Setup>> TimedSetup(const WorkloadSpec& spec,
                                          uint64_t seed, bool keep_corpus,
                                          double* setup_s) {
  const int64_t start = NowNanos();
  PARTIX_ASSIGN_OR_RETURN(std::unique_ptr<Setup> setup,
                          BuildSetup(spec, seed, keep_corpus));
  std::vector<std::thread> threads;
  const pm::ExecutionOptions exec = MeasuredExecution(spec);
  std::atomic<bool> ok{true};
  for (size_t c = 0; c < spec.clients; ++c) {
    threads.emplace_back([&] {
      for (const MixQuery& query : setup->queries) {
        auto result = setup->scheduler->Execute(query.text, exec);
        if (!result.ok() || result->serialized != query.reference) {
          ok = false;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (!ok) return partix::Status::Internal("warm-up answer mismatch");
  *setup_s = Seconds(NowNanos() - start);
  return setup;
}

/// Layer figures of the sequential replay (traced run only).
struct ReplayResult {
  uint64_t queries = 0;
  uint64_t failed = 0;
  double decompose_ms = 0.0;
  double engine_ms = 0.0;
  uint64_t docs_considered = 0;
  uint64_t docs_in_collections = 0;
  uint64_t nodes_visited = 0;
  uint64_t range_scans = 0;
  double parse_mb_per_s = 0.0;
  double allocs_per_doc = 0.0;
  double serialize_mb_per_s = 0.0;
  double reconstruct_ms = 0.0;
};

/// Median of `values` (non-empty) through the shared summary helper.
double MedianOf(const std::vector<double>& values) {
  return Summarize(values).median;
}

/// xml layer: parse and serialize throughput over the largest stored
/// fragment, and operator-new calls per parsed document.
bool ReplayXml(Setup& setup, SpanLog* log, uint64_t request,
               ReplayResult* out) {
  pm::ClusterSim& cluster = setup.deployment->cluster();
  size_t best_node = 0;
  std::string best_name;
  uint64_t best_bytes = 0;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    for (const std::string& name : cluster.database(i).CollectionNames()) {
      auto bytes = cluster.database(i).SerializedBytes(name);
      if (bytes.ok() && *bytes > best_bytes) {
        best_node = i;
        best_name = name;
        best_bytes = *bytes;
      }
    }
  }
  auto docs = cluster.database(best_node).ExportStoredDocs(best_name);
  if (!docs.ok() || docs->empty()) return false;

  std::vector<double> parse_s, serialize_s;
  std::vector<partix::xml::DocumentPtr> parsed;
  uint64_t allocations = 0;
  for (size_t pass = 0; pass < kLayerPasses; ++pass) {
    parsed.clear();
    auto pool = std::make_shared<partix::xml::NamePool>();
    ScopedSpan span(log, "xml.parse", request);
    const int64_t t0 = NowNanos();
    AllocationCounter counter;
    for (const partix::xdb::StoredDoc& doc : *docs) {
      auto result = partix::xml::ParseXml(pool, doc.name, doc.xml);
      if (!result.ok()) return false;
      parsed.push_back(std::move(*result));
    }
    if (pass == 0) allocations = counter.count();
    parse_s.push_back(Seconds(NowNanos() - t0));
  }
  uint64_t serialized_bytes = 0;
  for (size_t pass = 0; pass < kLayerPasses; ++pass) {
    ScopedSpan span(log, "xml.serialize", request);
    const int64_t t0 = NowNanos();
    serialized_bytes = 0;
    for (const partix::xml::DocumentPtr& doc : parsed) {
      serialized_bytes += partix::xml::Serialize(*doc).size();
    }
    serialize_s.push_back(Seconds(NowNanos() - t0));
  }
  out->parse_mb_per_s =
      static_cast<double>(best_bytes) / kMiB / MedianOf(parse_s);
  out->allocs_per_doc =
      static_cast<double>(allocations) / static_cast<double>(docs->size());
  out->serialize_mb_per_s =
      static_cast<double>(serialized_bytes) / kMiB / MedianOf(serialize_s);
  return true;
}

/// fragmentation layer: reconstruction (∇) of the design's fragments —
/// for the vertical design exactly the fragment documents a whole-article
/// join fetches; for the horizontal one the union of the fragments.
bool ReplayReconstruct(const WorkloadSpec& spec, Setup& setup, SpanLog* log,
                       uint64_t request, ReplayResult* out) {
  auto fragments = partix::frag::ApplyFragmentation(setup.corpus, setup.schema);
  if (!fragments.ok()) return false;
  const bool vertical = spec.corpus == Corpus::kArticles;
  std::vector<double> times_ms;
  for (size_t pass = 0; pass < kLayerPasses; ++pass) {
    ScopedSpan span(log, "fragmentation.reconstruct", request);
    const int64_t t0 = NowNanos();
    const bool ok =
        vertical ? partix::frag::ReconstructVertical(
                       *fragments, setup.corpus.name(),
                       std::make_shared<partix::xml::NamePool>())
                       .ok()
                 : partix::frag::ReconstructHorizontal(*fragments,
                                                       setup.corpus.name())
                       .ok();
    if (!ok) return false;
    times_ms.push_back(Millis(NowNanos() - t0));
  }
  out->reconstruct_ms = MedianOf(times_ms);
  return true;
}

/// Replays the mix sequentially for `seconds` (at least one pass), calling
/// each layer's public entry points directly: the decomposer, then every
/// sub-query's prepare + execute on its node.
ReplayResult Replay(const WorkloadSpec& spec, Setup& setup, double seconds,
                    SpanLog* log, uint64_t first_request) {
  ReplayResult out;
  uint64_t request = first_request;
  if (!ReplayXml(setup, log, request++, &out)) ++out.failed;
  if (!ReplayReconstruct(spec, setup, log, request++, &out)) ++out.failed;

  const pm::QueryDecomposer& decomposer =
      setup.deployment->service().decomposer();
  pm::ClusterSim& cluster = setup.deployment->cluster();
  const int64_t deadline = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0;
       i < setup.sequence.size() || NowNanos() < deadline; ++i) {
    const MixQuery& query =
        setup.queries[setup.sequence[i % setup.sequence.size()]];
    ScopedSpan root(log, "replay.request", request);
    ++out.queries;
    int64_t t0 = NowNanos();
    auto plan = [&] {
      ScopedSpan span(log, "decomposer.decompose", request, root.index());
      return decomposer.Decompose(query.text);
    }();
    out.decompose_ms += Millis(NowNanos() - t0);
    if (!plan.ok()) {
      ++out.failed;
      ++request;
      continue;
    }
    t0 = NowNanos();
    for (const pm::SubQuery& sub : plan->subqueries) {
      auto prepared = [&] {
        ScopedSpan span(log, "engine.prepare", request, root.index());
        return cluster.PrepareOnNode(sub.node, sub.compiled);
      }();
      if (!prepared.ok()) {
        ++out.failed;
        continue;
      }
      auto result = [&] {
        ScopedSpan span(log, "engine.execute", request, root.index());
        return cluster.ExecutePreparedOnNode(sub.node, **prepared);
      }();
      if (!result.ok()) {
        ++out.failed;
        continue;
      }
      const partix::xdb::QueryMetrics& m = result->metrics;
      out.docs_considered += m.docs_considered;
      out.docs_in_collections += m.docs_in_collections;
      out.nodes_visited += m.nodes_visited;
      out.range_scans += m.index_range_scans;
    }
    out.engine_ms += Millis(NowNanos() - t0);
    ++request;
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buffer[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + buffer + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Latency of the whole loop, overall and per query of the mix.
void PrintLatency(const Setup& setup, const LoopResult& loop) {
  const Summary s = Summarize(loop.Latencies());
  std::fprintf(stderr,
               "  all samples: p50 %.3f ms, p%.2f %.3f ms over %zu samples "
               "(q1 %.3f, q3 %.3f)\n",
               s.median, s.tail_pct, s.tail, s.count, s.q1, s.q3);
  std::map<size_t, std::vector<double>> by_query;
  for (const Sample& sample : loop.samples) {
    by_query[sample.query].push_back(sample.latency_ms);
  }
  for (auto& [query, samples] : by_query) {
    const Summary q = Summarize(std::move(samples));
    std::fprintf(stderr, "    %-4s p50 %9.3f ms  q3 %9.3f ms  %6zu samples\n",
                 setup.queries[query].id.c_str(), q.median, q.q3, q.count);
  }
}

void PrintSetupLine(const WorkloadSpec& spec, Setup& setup) {
  std::string order_only;
  for (const MixQuery& q : setup.queries) {
    if (q.order_only_vs_centralized) order_only += " " + q.id;
  }
  std::string fragments;
  uint64_t total_bytes = 0;
  pm::ClusterSim& cluster = setup.deployment->cluster();
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    for (const std::string& name : cluster.database(i).CollectionNames()) {
      auto bytes = cluster.database(i).SerializedBytes(name);
      const uint64_t n = bytes.ok() ? *bytes : 0;
      fragments += " " + name + "=" + std::to_string(n);
      total_bytes += n;
    }
  }
  std::fprintf(stderr,
               "%s: %zu documents; fragment bytes:%s (total %llu); node "
               "parse cache %zu bytes; %zu clients x parallelism %zu on %u "
               "cores\n"
               "  equal to the centralized answer only up to item order:%s\n",
               spec.name.c_str(), setup.documents, fragments.c_str(),
               static_cast<unsigned long long>(total_bytes), spec.node_cache_bytes, spec.clients,
               spec.parallelism, std::thread::hardware_concurrency(),
               order_only.empty() ? " none" : order_only.c_str());
}

int RunMeasured(const WorkloadSpec& spec, const Args& args) {
  // Each set-up replaces the previous one and starts with no idle memory
  // left over from it; the last one serves the load.
  std::vector<double> setup_times;
  std::unique_ptr<Setup> built;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    built.reset();  // joins the scheduler's workers
    ReleaseIdleMemory();
    double setup_s = 0.0;
    auto next = TimedSetup(spec, args.seed, /*keep_corpus=*/false, &setup_s);
    if (!next.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   next.status().ToString().c_str());
      return 1;
    }
    built = std::move(*next);
    setup_times.push_back(setup_s);
  }
  Setup& setup = *built;
  PrintSetupLine(spec, setup);
  ResetPeakRss();

  Clients clients;
  clients.cursors = setup.client_offsets;
  clients.logs.resize(spec.clients);
  const LoopResult loop =
      RunClosedLoop(setup, spec, args.seconds, /*traced=*/false, &clients);
  const std::vector<double> latencies = loop.Latencies();
  const Summary latency = Summarize(latencies);
  const WindowedTail tail = MedianWindowTail(latencies);
  const double completed = static_cast<double>(loop.completed());

  const std::vector<Metric> metrics = {
      {"qps", completed / loop.elapsed_s, "1/s"},
      {"latency_p50_ms", latency.median, "ms"},
      {"latency_p99_ms", tail.tail, "ms"},
      {"cpu_ms_per_query", Ratio(loop.cpu_s * 1e3, completed), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", MedianOf(setup_times), "s"},
  };
  std::fprintf(stderr, "%s seed %llu, %.1f s closed loop:\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               loop.elapsed_s);
  PrintMetrics(metrics);
  std::fprintf(stderr, "  set-up times:");
  for (double t : setup_times) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, " s\n");
  std::fprintf(stderr,
               "  latency_p99_ms: median of the p%.2f of %zu windows of at "
               "least %zu samples (whole loop: p%.2f %.3f ms)\n",
               tail.tail_pct, tail.windows, MinSamplesForPercentile(99.0),
               latency.tail_pct, latency.tail);
  if (tail.tail_pct < 99.0) {
    std::fprintf(stderr,
                 "  warning: %zu samples support only p%.2f, which "
                 "latency_p99_ms reports\n",
                 latency.count, tail.tail_pct);
  }
  PrintLatency(setup, loop);
  std::fprintf(stderr, "  failed_ratio %.6f (%llu of %llu attempted)\n",
               Ratio(static_cast<double>(loop.failed),
                     static_cast<double>(loop.attempted)),
               static_cast<unsigned long long>(loop.failed),
               static_cast<unsigned long long>(loop.attempted));
  PrintResult(loop.failed == 0, loop.attempted, loop.failed, metrics);
  return 0;
}

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  double setup_s = 0.0;
  auto built = TimedSetup(spec, args.seed, /*keep_corpus=*/true, &setup_s);
  if (!built.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  Setup& setup = **built;
  PrintSetupLine(spec, setup);
  // The arena figures cover the closed-loop slices only: no idle chunk
  // from set-up stays pooled, and fragmentation counts what the load
  // released.
  ReleaseIdleMemory();
  const partix::memory::ArenaPoolStats arena_before =
      partix::memory::ArenaPool::Global().stats();
  partix::telemetry::MetricsRegistry& registry =
      partix::telemetry::MetricsRegistry::Global();

  Clients clients;
  clients.cursors = setup.client_offsets;
  clients.logs.resize(spec.clients);
  const pm::SchedulerStats sched_before = setup.scheduler->stats();
  const double slice_s = args.seconds * kTracedLoopShare / kTracedSlices;
  LoopResult untraced, traced;
  partix::storage::AccessStats storage;
  for (size_t slice = 0; slice < kTracedSlices; ++slice) {
    const bool trace_slice = slice % 2 == 1;
    if (!trace_slice) {
      untraced.Add(RunClosedLoop(setup, spec, slice_s, false, &clients));
      continue;
    }
    const partix::storage::AccessStats before = StorageTotals(setup);
    registry.set_enabled(true);
    traced.Add(RunClosedLoop(setup, spec, slice_s, true, &clients));
    registry.set_enabled(false);
    AddDelta(StorageTotals(setup), before, &storage);
  }
  const pm::SchedulerStats sched = setup.scheduler->stats();
  const partix::memory::ArenaPoolStats arena =
      partix::memory::ArenaPool::Global().stats();
  // Internal fragmentation of the chunks released during the slices, as
  // ArenaPoolStats::fragmentation_pct() computes it over a whole life.
  partix::memory::ArenaPoolStats arena_load;
  arena_load.released_capacity_bytes =
      arena.released_capacity_bytes - arena_before.released_capacity_bytes;
  arena_load.released_used_bytes =
      arena.released_used_bytes - arena_before.released_used_bytes;

  SpanLog log;
  for (SpanLog& client_log : clients.logs) log.Absorb(std::move(client_log));
  const ReplayResult replay =
      Replay(spec, setup, args.seconds * (1.0 - kTracedLoopShare), &log,
             clients.next_request.load());

  const LayerSums& l = traced.layers;
  const double n = static_cast<double>(l.requests);
  const double replayed = static_cast<double>(replay.queries);
  const double qps_untraced =
      static_cast<double>(untraced.completed()) / untraced.elapsed_s;
  const double qps_traced =
      static_cast<double>(traced.completed()) / traced.elapsed_s;
  const uint64_t attempted = untraced.attempted + traced.attempted;
  const uint64_t failed = untraced.failed + traced.failed;
  const double submitted =
      static_cast<double>(sched.submitted - sched_before.submitted);
  const double parse_accesses =
      static_cast<double>(storage.cache_hits + storage.cache_misses);

  const std::vector<Metric> metrics = {
      {"failed_ratio",
       Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
      {"scheduler.admit_wait_ms", Ratio(l.admit_wait_ms, n), "ms"},
      {"scheduler.rejected_ratio",
       Ratio(static_cast<double>(sched.rejected - sched_before.rejected),
             submitted),
       "ratio"},
      {"decomposer.decompose_ms", Ratio(replay.decompose_ms, replayed), "ms"},
      {"decomposer.subqueries_per_query",
       Ratio(static_cast<double>(l.subqueries), n), "count"},
      {"decomposer.pruned_per_query", Ratio(static_cast<double>(l.pruned), n),
       "count"},
      {"executor.fanout_gap_ms", Ratio(l.fanout_gap_ms, n), "ms"},
      {"executor.engine_requests_per_query",
       Ratio(static_cast<double>(l.engine_requests), n), "count"},
      {"executor.retries_per_query", Ratio(static_cast<double>(l.retries), n),
       "count"},
      {"engine.execute_ms", Ratio(replay.engine_ms, replayed), "ms"},
      {"engine.compile_ms", Ratio(l.compile_ms, n), "ms"},
      {"engine.plan_cache_hit_ratio",
       Ratio(static_cast<double>(l.plan_hits),
             static_cast<double>(l.plan_hits + l.plan_misses)),
       "ratio"},
      {"engine.docs_considered_ratio",
       Ratio(static_cast<double>(replay.docs_considered),
             static_cast<double>(replay.docs_in_collections)),
       "ratio"},
      {"storage.parse_cache_hit_ratio",
       Ratio(static_cast<double>(storage.cache_hits), parse_accesses),
       "ratio"},
      {"storage.docs_parsed_per_query",
       Ratio(static_cast<double>(storage.parses), n), "count"},
      {"storage.mb_parsed_per_query",
       Ratio(static_cast<double>(storage.bytes_parsed) / kMiB, n), "MB"},
      {"storage.evictions_per_query",
       Ratio(static_cast<double>(storage.cache_evictions), n), "count"},
      {"xml.parse_mb_per_s", replay.parse_mb_per_s, "MB/s"},
      {"xml.allocs_per_doc", replay.allocs_per_doc, "count"},
      {"xml.serialize_mb_per_s", replay.serialize_mb_per_s, "MB/s"},
      {"xquery.nodes_visited_per_query",
       Ratio(static_cast<double>(replay.nodes_visited), replayed), "count"},
      {"xquery.label_range_scans_per_query",
       Ratio(static_cast<double>(replay.range_scans), replayed), "count"},
      {"stream.ttfb_ms", Ratio(l.ttfb_ms, n), "ms"},
      {"stream.blocks_per_query",
       Ratio(static_cast<double>(l.stream_blocks), n), "count"},
      {"stream.compose_ms", Ratio(l.compose_ms, n), "ms"},
      {"fragmentation.reconstruct_ms", replay.reconstruct_ms, "ms"},
      {"memory.arena_retained_mb",
       static_cast<double>(arena.retained_bytes) / kMiB, "MB"},
      {"memory.arena_fragmentation_pct", arena_load.fragmentation_pct(), "%"},
      {"trace.overhead_pct",
       Ratio(qps_untraced - qps_traced, qps_untraced) * 100.0, "%"},
  };

  std::fprintf(stderr,
               "%s seed %llu traced run: untraced %.1f qps, traced %.1f qps, "
               "%llu replayed queries\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               qps_untraced, qps_traced,
               static_cast<unsigned long long>(replay.queries));
  PrintMetrics(metrics);
  PrintLatency(setup, traced);
  double latency_sum_ms = 0.0;
  for (double v : traced.Latencies()) {
    if (std::isfinite(v)) latency_sum_ms += v;
  }
  std::fprintf(stderr,
               "  stream.compose_ms is %.1f%% of the traced latency (sum of "
               "compositions over sum of Execute durations)\n",
               100.0 * Ratio(l.compose_ms, latency_sum_ms));
  std::fprintf(stderr, "  span self time (benchmark spans):\n");
  for (const auto& [name, t] : log.Totals()) {
    std::fprintf(stderr, "    %-28s %8llu spans %12.3f ms total %12.3f ms self\n",
                 name.c_str(), static_cast<unsigned long long>(t.spans),
                 t.total_ms, t.self_ms);
  }
  if (!args.trace_out.empty() && !log.WriteJsonLines(args.trace_out)) {
    std::fprintf(stderr, "warning: cannot write %s\n", args.trace_out.c_str());
  }
  PrintResult(failed == 0 && replay.failed == 0, attempted,
              failed + replay.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  const perfbench::WorkloadSpec* spec =
      perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? perfbench::RunTraced(*spec, args)
                    : perfbench::RunMeasured(*spec, args);
}
