#include "partix/query_service.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <thread>

#include "common/clock.h"
#include "common/strings.h"
#include "engine/database.h"
#include "partix/executor.h"
#include "partix/stream.h"
#include "telemetry/metrics.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xquery/evaluator.h"
#include "xquery/parser.h"

namespace partix::middleware {

namespace {

using xml::Document;
using xml::DocumentPtr;
using xml::kNullNode;
using xml::NodeId;
using xml::NodeKind;

/// One fetched fragment document plus its parsed wire metadata.
struct FetchedDoc {
  DocumentPtr doc;
  std::string src;                       // px-src (or own name)
  uint64_t root_id = 0;                  // px-root
  std::vector<std::pair<uint64_t, std::string>> ancestors;  // px-anc
  bool has_wire_ids = false;
};

Result<FetchedDoc> ParseWireDoc(DocumentPtr doc) {
  FetchedDoc out;
  out.doc = std::move(doc);
  const Document& d = *out.doc;
  if (d.empty()) {
    return Status::InvalidArgument("empty fragment document");
  }
  out.src = d.doc_name();
  // Reconstruction IDs travel as out-of-band document metadata so they
  // never appear in query results.
  std::string src = d.GetMetadata("px-src");
  if (!src.empty()) {
    out.src = src;
    out.has_wire_ids = true;
    int64_t v = 0;
    if (!ParseInt64(d.GetMetadata("px-root"), &v)) {
      return Status::Corruption("bad px-root metadata on '" +
                                d.doc_name() + "'");
    }
    out.root_id = static_cast<uint64_t>(v);
    // Materialize the metadata string: SplitSkipEmpty returns views into
    // it, and a temporary would die at the end of the range-init
    // expression, leaving them dangling.
    const std::string ancestors = d.GetMetadata("px-anc");
    for (std::string_view entry : SplitSkipEmpty(ancestors, ',')) {
      size_t colon = entry.find(':');
      if (colon == std::string_view::npos) {
        return Status::Corruption("bad px-anc metadata");
      }
      int64_t id = 0;
      if (!ParseInt64(entry.substr(0, colon), &id)) {
        return Status::Corruption("bad px-anc id");
      }
      out.ancestors.emplace_back(static_cast<uint64_t>(id),
                                 std::string(entry.substr(colon + 1)));
    }
  }
  return out;
}

/// The joined document's layout before it is built: one element per
/// reconstruction id, whose content is an ordered mix of child containers
/// and children copied from fragment roots merged into it.
class JoinLayout {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  /// Creates a container named `name` as the last child of `parent`
  /// (kNone: the root).
  size_t AddContainer(std::string name, size_t parent) {
    const size_t id = containers_.size();
    containers_.push_back(Container{std::move(name), {}});
    if (parent != kNone) containers_[parent].parts.push_back({nullptr, 0, id});
    return id;
  }

  /// Appends the children of `src_root` (attributes included) to
  /// `container`'s content.
  void MergeChildren(size_t container, const Document& src,
                     NodeId src_root) {
    for (NodeId c = src.first_child(src_root); c != kNullNode;
         c = src.next_sibling(c)) {
      containers_[container].parts.push_back({&src, c, kNone});
    }
  }

  /// Builds container `id` under `parent` (kNullNode: as the root) in the
  /// shape ParseXml(Serialize(...)) gives: the attributes of every merged
  /// fragment root first, then the content with each run of adjacent
  /// text merged into one node and whitespace-only runs dropped. Nodes
  /// are created in document order, as the parser creates them.
  Status Build(size_t id, Document* out, NodeId parent) const {
    const Container& c = containers_[id];
    const NodeId element = parent == kNullNode
                               ? out->CreateRoot(c.name)
                               : out->AppendElement(parent, c.name);
    for (const Part& part : c.parts) {
      if (part.src != nullptr &&
          part.src->kind(part.node) == NodeKind::kAttribute) {
        out->CopySubtree(*part.src, part.node, element);
      }
    }
    std::string text;  // the pending run of adjacent text
    bool has_text = false;
    bool has_element = false;
    auto flush_text = [&] {
      if (!StripWhitespace(text).empty()) {
        out->AppendText(element, text);
        has_text = true;
      }
      text.clear();
    };
    for (const Part& part : c.parts) {
      if (part.src == nullptr) {
        flush_text();
        has_element = true;
        PARTIX_RETURN_IF_ERROR(Build(part.container, out, element));
        continue;
      }
      switch (part.src->kind(part.node)) {
        case NodeKind::kAttribute:
          break;
        case NodeKind::kText:
          text += part.src->value(part.node);
          break;
        case NodeKind::kElement:
          flush_text();
          has_element = true;
          out->CopySubtree(*part.src, part.node, element);
          break;
      }
    }
    flush_text();
    if (has_text && has_element) {
      // The data model has no mixed content: a parser rejects it too.
      return Status::Corruption("joined <" + c.name +
                                "> mixes text and element content");
    }
    return Status::Ok();
  }

 private:
  /// A child of a container: a source node (src != nullptr) or another
  /// container.
  struct Part {
    const Document* src;
    NodeId node;
    size_t container;
  };
  struct Container {
    std::string name;
    std::vector<Part> parts;
  };
  std::vector<Container> containers_;
};

/// Joins the fragment documents of one source document (sorted by root
/// id) into a single document approximating the original structure:
/// scaffolding ancestors are re-created, containers with equal
/// reconstruction ids are merged, fragment subtrees are attached in
/// reconstruction-id order. The result is sealed and equals
/// ParseXml(Serialize(result)) node for node.
Result<DocumentPtr> JoinGroup(const std::string& source,
                              std::vector<FetchedDoc> docs,
                              const std::shared_ptr<xml::NamePool>& pool) {
  // Stable: fragments sharing a reconstruction id (FragMode2 siblings
  // merged into one container) must keep their arrival order, or the
  // merged children permute across runs.
  std::stable_sort(docs.begin(), docs.end(),
                   [](const FetchedDoc& a, const FetchedDoc& b) {
                     return a.root_id < b.root_id;
                   });
  JoinLayout layout;
  size_t root = JoinLayout::kNone;
  std::map<uint64_t, size_t> containers;  // reconstruction id -> container

  for (const FetchedDoc& fd : docs) {
    const Document& d = *fd.doc;
    NodeId frag_root = d.root();
    // Ensure the ancestor chain exists.
    size_t parent = JoinLayout::kNone;
    for (const auto& [id, name] : fd.ancestors) {
      auto it = containers.find(id);
      if (it == containers.end()) {
        const size_t built = layout.AddContainer(
            name, parent == JoinLayout::kNone ? root : parent);
        if (root == JoinLayout::kNone) root = built;
        containers.emplace(id, built);
        parent = built;
      } else {
        parent = it->second;
      }
    }
    auto it = containers.find(fd.root_id);
    if (it != containers.end()) {
      // Merge into an existing container (FragMode2 siblings, or a base
      // fragment arriving after a scaffold was created).
      layout.MergeChildren(it->second, d, frag_root);
      continue;
    }
    if (parent == JoinLayout::kNone && root != JoinLayout::kNone) {
      return Status::Corruption(
          "fragment of '" + source +
          "' has no ancestor chain but a root already exists");
    }
    const size_t attached =
        layout.AddContainer(std::string(d.name(frag_root)), parent);
    if (root == JoinLayout::kNone) root = attached;
    containers.emplace(fd.root_id, attached);
    layout.MergeChildren(attached, d, frag_root);
  }
  if (root == JoinLayout::kNone) {
    return Status::Corruption("join of '" + source + "' produced nothing");
  }
  auto out = std::make_shared<Document>(pool, source);
  PARTIX_RETURN_IF_ERROR(layout.Build(root, out.get(), kNullNode));
  // Sealed before it is frozen behind the DocumentPtr, like a parsed
  // document: the query runs label-range scans over it.
  out->SealLabels();
  return DocumentPtr(out);
}

/// Serves the composed documents as the one collection the original
/// query reads. Read-only after construction.
class ComposedCollection : public xquery::CollectionResolver {
 public:
  ComposedCollection(std::string name, std::vector<DocumentPtr> docs)
      : name_(std::move(name)), docs_(std::move(docs)) {}

  Result<std::vector<DocumentPtr>> Resolve(const std::string& name) override {
    if (name != name_) {
      return Status::NotFound("collection '" + name + "' does not exist");
    }
    return docs_;
  }

 private:
  std::string name_;
  std::vector<DocumentPtr> docs_;
};

/// Join composition: groups the fetched fragment documents by source
/// document, joins each group in memory, and runs the plan's compiled
/// original query over the joined documents — no store, no serialize →
/// parse round trip.
Result<std::string> ComposeJoin(const DistributedPlan& plan,
                                std::vector<xdb::QueryResult> partials,
                                uint64_t* result_items) {
  // Group fetched documents by source document.
  std::map<std::string, std::vector<FetchedDoc>> groups;
  for (xdb::QueryResult& partial : partials) {
    for (const xquery::Item& item : partial.items) {
      if (!item.IsNode()) {
        return Status::Internal(
            "fetch sub-query returned a non-node item");
      }
      const xquery::NodeRef& ref = item.AsNode();
      if (ref.node != xml::kDocumentNode &&
          (ref.doc->empty() || ref.node != ref.doc->root())) {
        return Status::Internal(
            "fetch sub-query returned a non-document node");
      }
      PARTIX_ASSIGN_OR_RETURN(FetchedDoc fd, ParseWireDoc(ref.doc));
      groups[fd.src].push_back(std::move(fd));
    }
  }

  // One pool interns the joined documents' names and the names of
  // elements the query constructs. Documents are served in group (source
  // name) order.
  auto pool = std::make_shared<xml::NamePool>();
  std::vector<DocumentPtr> composed;
  composed.reserve(groups.size());
  for (auto& [source, docs] : groups) {
    bool wire = false;
    for (const FetchedDoc& fd : docs) wire = wire || fd.has_wire_ids;
    if (!wire && docs.size() == 1) {
      // Whole-document fragment (horizontal fetch): the node's document,
      // as it is.
      composed.push_back(std::move(docs[0].doc));
      continue;
    }
    PARTIX_ASSIGN_OR_RETURN(DocumentPtr joined,
                            JoinGroup(source, std::move(docs), pool));
    composed.push_back(std::move(joined));
  }

  // Reuse the plan's compiled original query: the shared AST runs without
  // re-parsing, streamed and serialized batch by batch.
  ComposedCollection resolver(plan.collection, std::move(composed));
  xquery::Evaluator evaluator(&resolver, pool);
  PARTIX_ASSIGN_OR_RETURN(xquery::EvalStreamPtr stream,
                          evaluator.OpenStream(plan.compiled->ast()));
  std::string out;
  xquery::SequenceSerializer serializer;
  xquery::Sequence batch;
  *result_items = 0;
  for (;;) {
    PARTIX_ASSIGN_OR_RETURN(bool more, stream->Next(&batch));
    if (!more) break;
    for (const xquery::Item& item : batch) serializer.Append(item, &out);
    *result_items += batch.size();
  }
  return out;
}

/// Canonical "fragment at node" token used by every error message and
/// missing-fragment report: `fragment@node<i>`.
std::string FragAtNode(const std::string& fragment, size_t node) {
  return fragment + "@node" + std::to_string(node);
}

/// The replica list of a sub-query (primary-only when unset).
std::vector<size_t> ReplicasOrPrimary(const SubQuery& sub) {
  if (!sub.replicas.empty()) return sub.replicas;
  return {sub.node};
}

/// Coordinator-side counters and phase latency histograms.
struct ServiceTelemetry {
  telemetry::Counter* queries;
  telemetry::Counter* query_failures;
  telemetry::Counter* partial_results;
  telemetry::Histogram* decompose_ms;
  telemetry::Histogram* compose_ms;
  telemetry::Histogram* query_wall_ms;
  telemetry::Histogram* ttfb_ms;

  static const ServiceTelemetry& Get() {
    static const ServiceTelemetry t = [] {
      auto& registry = telemetry::MetricsRegistry::Global();
      ServiceTelemetry out;
      out.queries = registry.GetCounter("partix_queries_total");
      out.query_failures = registry.GetCounter("partix_query_failures_total");
      out.partial_results =
          registry.GetCounter("partix_partial_results_total");
      out.decompose_ms = registry.GetHistogram("partix_decompose_ms");
      out.compose_ms = registry.GetHistogram("partix_compose_ms");
      out.query_wall_ms = registry.GetHistogram("partix_query_wall_ms");
      out.ttfb_ms = registry.GetHistogram("partix_ttfb_ms");
      return out;
    }();
    return t;
  }
};

/// Shifts every span start in a subtree by `delta_ms` (used to splice the
/// decompose phase in front of a span tree recorded by ExecutePlan).
void ShiftSpans(telemetry::TraceSpan* span, double delta_ms) {
  span->start_ms += delta_ms;
  for (telemetry::TraceSpan& child : span->children) {
    ShiftSpans(&child, delta_ms);
  }
}

/// Coordinator-wide gauge of result bytes held by in-flight executions
/// (partial results awaiting composition + composed answers not yet
/// returned). Add()-deltas aggregate across concurrent executions.
telemetry::Gauge* InflightResultBytesGauge() {
  static telemetry::Gauge* g = telemetry::MetricsRegistry::Global().GetGauge(
      "partix_inflight_result_bytes");
  return g;
}

/// RAII accounting of one execution's in-flight result bytes: every
/// Add() moves the gauge and charges the governor's pinned consumer (when
/// attached); the destructor releases everything on every return path.
class InflightResultCharge {
 public:
  InflightResultCharge(memory::MemoryGovernor* governor, int id)
      : governor_(governor), id_(id) {}
  ~InflightResultCharge() {
    InflightResultBytesGauge()->Add(-static_cast<double>(bytes_));
    if (governor_ != nullptr && bytes_ > 0) governor_->Release(id_, bytes_);
  }
  InflightResultCharge(const InflightResultCharge&) = delete;
  InflightResultCharge& operator=(const InflightResultCharge&) = delete;

  void Add(size_t bytes) {
    if (bytes == 0) return;
    bytes_ += bytes;
    InflightResultBytesGauge()->Add(static_cast<double>(bytes));
    if (governor_ != nullptr) governor_->Charge(id_, bytes);
  }

  /// Early release of bytes no longer held (a partial drained into the
  /// composed answer, a staged lane discarded on failure). Without this
  /// the coordinator's peak charge double-counts every result byte:
  /// once as a partial and again inside the composed answer.
  void Release(size_t bytes) {
    if (bytes == 0) return;
    bytes = std::min(bytes, bytes_);
    bytes_ -= bytes;
    InflightResultBytesGauge()->Add(-static_cast<double>(bytes));
    if (governor_ != nullptr) governor_->Release(id_, bytes);
  }

 private:
  memory::MemoryGovernor* governor_;
  int id_;
  size_t bytes_ = 0;
};

}  // namespace

Result<DocumentPtr> JoinFetchedFragments(
    const std::string& source, std::vector<DocumentPtr> fragments,
    const std::shared_ptr<xml::NamePool>& pool) {
  std::vector<FetchedDoc> docs;
  docs.reserve(fragments.size());
  for (DocumentPtr& doc : fragments) {
    PARTIX_ASSIGN_OR_RETURN(FetchedDoc fd, ParseWireDoc(std::move(doc)));
    docs.push_back(std::move(fd));
  }
  return JoinGroup(source, std::move(docs), pool);
}

QueryService::~QueryService() { set_memory_governor(nullptr); }

void QueryService::set_memory_governor(memory::MemoryGovernor* governor) {
  if (governor_ != nullptr) {
    governor_->UnregisterConsumer(governor_id_);
    governor_id_ = -1;
  }
  governor_ = governor;
  if (governor_ != nullptr) {
    governor_id_ = governor_->RegisterConsumer(
        "inflight_results", memory::MemoryGovernor::kPriorityPinned,
        nullptr);
  }
}

Result<DistributedPlan> QueryService::Decompose(
    const std::string& query,
    std::shared_ptr<const DistributionCatalog>* held) const {
  if (versioned_ == nullptr) return decomposer_.Decompose(query);
  // Versioned mode: plan against one immutable snapshot. The caller
  // parks it in `*held` for the duration of planning; the plan itself
  // carries values (fragment names, node indexes, rewritten queries),
  // so execution needs no catalog at all.
  *held = versioned_->Snapshot();
  return QueryDecomposer(held->get()).Decompose(query);
}

Result<DistributedResult> QueryService::Execute(
    const std::string& query, const ExecutionOptions& options) {
  // Compile-once contract: this coordinator thread parses `query` exactly
  // once, in Decompose. Sub-queries are structural rewrites of that AST
  // and ComposeJoin reuses the compiled original, so no execution path
  // below re-parses on this thread. (Thread-local counter: worker-thread
  // parses — none are expected either — would not mask a coordinator
  // regression here.)
  const uint64_t parses_before = xquery::ThreadParseCount();
  Stopwatch watch(clock_);
  std::shared_ptr<const DistributionCatalog> snapshot;
  PARTIX_ASSIGN_OR_RETURN(DistributedPlan plan, Decompose(query, &snapshot));
  const double decompose_ms = watch.ElapsedMillis();
  ServiceTelemetry::Get().decompose_ms->Observe(decompose_ms);
  PARTIX_ASSIGN_OR_RETURN(DistributedResult result,
                          ExecutePlan(plan, options));
  assert(xquery::ThreadParseCount() - parses_before <= 1 &&
         "middleware execution parsed the query more than once");
  (void)parses_before;
  // The paper measures "the time between the moment PartiX receives the
  // query until final result composition": planning is part of it.
  result.decompose_ms = decompose_ms;
  result.response_ms += decompose_ms;
  result.wall_ms += decompose_ms;
  result.ttfb_ms += decompose_ms;
  if (result.traced) {
    // Splice the decompose phase in front of the span tree ExecutePlan
    // recorded: shift its phases right, prepend a decompose span.
    for (telemetry::TraceSpan& child : result.trace.children) {
      ShiftSpans(&child, decompose_ms);
    }
    telemetry::TraceSpan decompose_span;
    decompose_span.name = "decompose";
    decompose_span.start_ms = 0.0;
    decompose_span.duration_ms = decompose_ms;
    decompose_span.AddTag("subqueries",
                          std::to_string(plan.subqueries.size()));
    result.trace.children.insert(result.trace.children.begin(),
                                 std::move(decompose_span));
    result.trace.duration_ms = result.wall_ms;
  }
  return result;
}

Result<std::string> QueryService::Explain(const std::string& query) const {
  std::shared_ptr<const DistributionCatalog> snapshot;
  PARTIX_ASSIGN_OR_RETURN(DistributedPlan plan, Decompose(query, &snapshot));
  std::string out = "collection:   " + plan.collection + "\n";
  out += "composition:  " + std::string(CompositionName(plan.composition)) +
         "\n";
  out += "sub-queries:  " + std::to_string(plan.subqueries.size());
  if (plan.pruned_fragments > 0) {
    out += "  (" + std::to_string(plan.pruned_fragments) +
           " fragment(s) pruned by data localization)";
  }
  out += "\n";
  for (const SubQuery& sub : plan.subqueries) {
    const std::vector<size_t> replicas = ReplicasOrPrimary(sub);
    size_t route = sub.node;
    std::string annotation;
    if (replicas.size() > 1) {
      bool found = false;
      for (size_t r : replicas) {
        if (r < cluster_->node_count() && !cluster_->IsNodeDown(r)) {
          route = r;
          found = true;
          break;
        }
      }
      if (!found) {
        annotation = "  [all replicas down]";
      } else if (route != sub.node) {
        annotation = "  [primary node" + std::to_string(sub.node) +
                     " down -> failover]";
      }
    }
    out += "  node " + std::to_string(route) + "  " + sub.fragment;
    if (replicas.size() > 1) {
      out += "  [replicas:";
      for (size_t i = 0; i < replicas.size(); ++i) {
        out += (i == 0 ? " " : ",") + std::string("node") +
               std::to_string(replicas[i]);
      }
      out += "]";
    }
    out += annotation + "\n    " + sub.query + "\n";
  }
  for (const std::string& note : plan.notes) {
    out += "note: " + note + "\n";
  }
  return out;
}

Result<std::string> QueryService::ExplainAnalyze(
    const std::string& query, const ExecutionOptions& options) {
  PARTIX_ASSIGN_OR_RETURN(std::string plan_text, Explain(query));
  ExecutionOptions traced = options;
  traced.trace = true;
  PARTIX_ASSIGN_OR_RETURN(DistributedResult result, Execute(query, traced));
  std::string out = std::move(plan_text);
  out += "\nexecution (wall " + FormatNumber(result.wall_ms) + " ms, " +
         std::to_string(result.result_items) + " item(s), retries " +
         std::to_string(result.retries) + ", failovers " +
         std::to_string(result.failovers) + ", compile " +
         FormatNumber(result.compile_ms) + " ms, plan cache " +
         std::to_string(result.plan_cache_hits) + " hit(s) / " +
         std::to_string(result.plan_cache_misses) + " miss(es)):\n";
  for (const SubQueryStats& stats : result.subqueries) {
    out += "  " + FragAtNode(stats.fragment, stats.node) + ": plan cache " +
           (stats.plan_cache_hits > 0 ? "hit" : "miss") + " (" +
           std::to_string(stats.plan_cache_bytes) +
           " bytes cached), compile " + FormatNumber(stats.compile_ms) +
           " ms\n";
  }
  out += telemetry::RenderSpanTree(result.trace);
  return out;
}

Result<DistributedResult> QueryService::ExecutePlan(
    const DistributedPlan& plan, const ExecutionOptions& options) {
  if (plan.subqueries.empty()) {
    return Status::InvalidArgument("plan has no sub-queries");
  }
  for (const SubQuery& sub : plan.subqueries) {
    if (!sub.compiled) {
      return Status::InvalidArgument("sub-query for fragment " +
                                     sub.fragment + " has no compiled form");
    }
  }
  if (plan.composition == Composition::kJoinReconstruct && !plan.compiled) {
    return Status::InvalidArgument(
        "join plan has no compiled original query");
  }
  const ServiceTelemetry& counters = ServiceTelemetry::Get();
  counters.queries->Add();
  DistributedResult out;
  out.pruned_fragments = plan.pruned_fragments;
  Stopwatch wall_watch(clock_);

  // The tracer (when tracing) anchors every span of this execution to one
  // epoch on the service's clock; the executor's workers time their spans
  // against the same tracer.
  telemetry::Tracer tracer(clock_);
  if (options.trace) {
    out.traced = true;
    out.trace.name = "query";
    out.trace.start_ms = 0.0;
    out.trace.AddTag("composition",
                     std::string(CompositionName(plan.composition)));
  }
  // Finalizes the root span and coordinator metrics on every return path
  // that produced a DistributedResult.
  auto finish = [&] {
    counters.query_wall_ms->Observe(out.wall_ms);
    if (out.traced) {
      out.trace.duration_ms = tracer.NowMs();
      out.trace.AddTag("complete", out.complete ? "true" : "false");
    }
  };

  if (options.cold_caches) cluster_->DropAllCaches();

  // Validate routing before dispatching anything, and report *every*
  // problem at once: an operator restoring a cluster needs the full
  // picture, not whichever unreachable fragment happened to come first.
  // Tokens are `fragment@node<i>` in every error path.
  std::string out_of_range;
  for (const SubQuery& sub : plan.subqueries) {
    for (size_t node : ReplicasOrPrimary(sub)) {
      if (node >= cluster_->node_count()) {
        if (!out_of_range.empty()) out_of_range += ", ";
        out_of_range += FragAtNode(sub.fragment, node);
      }
    }
  }
  if (!out_of_range.empty()) {
    counters.query_failures->Add();
    return Status::OutOfRange("sub-query node(s) out of range: " +
                              out_of_range);
  }

  // Liveness: a fragment is unreachable only when *every* replica is
  // down — the executor routes around individual down nodes.
  std::vector<const SubQuery*> dispatched;
  std::string unreachable;
  size_t unreachable_count = 0;
  for (const SubQuery& sub : plan.subqueries) {
    bool any_live = false;
    for (size_t node : ReplicasOrPrimary(sub)) {
      if (!cluster_->IsNodeDown(node)) {
        any_live = true;
        break;
      }
    }
    if (any_live) {
      dispatched.push_back(&sub);
      continue;
    }
    ++unreachable_count;
    for (size_t node : ReplicasOrPrimary(sub)) {
      if (!unreachable.empty()) unreachable += ", ";
      unreachable += FragAtNode(sub.fragment, node);
    }
    out.missing_fragments.push_back(sub.fragment);
  }
  if (unreachable_count > 0 &&
      options.partial_results == PartialResultPolicy::kFail) {
    counters.query_failures->Add();
    return Status::Unavailable(std::to_string(unreachable_count) +
                               " needed fragment(s) unreachable: " +
                               unreachable);
  }

  // Fan the live sub-queries out across the executor's worker threads
  // (the response-time *model* stays what it always was; `wall_ms` is
  // what really elapsed).
  std::vector<SubQuery> live;
  live.reserve(dispatched.size());
  for (const SubQuery* sub : dispatched) live.push_back(*sub);
  DispatchOptions dispatch_options;
  dispatch_options.parallelism = options.parallelism;
  dispatch_options.intra_node_parallelism = options.intra_node_parallelism;
  dispatch_options.retry = options.retry;
  dispatch_options.verify_block_digests = options.verify_integrity;
  if (options.trace) dispatch_options.tracer = &tracer;
  const double dispatch_start_ms = options.trace ? tracer.NowMs() : 0.0;
  std::vector<SubQueryOutcome> outcomes;

  // In-flight result accounting: result bytes held on this coordinator
  // (streamed staging, materialized partials, the composed answer) are
  // charged against the governor's pinned consumer until this execution
  // returns.
  InflightResultCharge inflight(governor_, governor_id_);

  // Streaming compose state, filled by the consumer loop below; untouched
  // on the materialized path.
  double ttfb_ms = -1.0;
  std::string streamed;                 // union: the answer, built in-stream
  uint64_t streamed_items = 0;
  std::vector<xdb::QueryResult> staged_lanes;  // sum: digits; join: items

  if (options.streaming) {
    // Streaming pipeline: workers push fixed-size result blocks into a
    // bounded channel while this thread drains lanes in plan order and
    // composes incrementally. Dispatch runs on a dedicated thread so the
    // coordinator thread is free to consume. Deadlock-freedom: the
    // consumer drains lanes in plan order, workers claim sub-queries in
    // ascending index order, and the lane under the consumer's cursor is
    // exempt from the buffer cap (see stream.h).
    staged_lanes.resize(live.size());
    BlockChannel channel(live.size(), options.stream_buffer_bytes,
                         governor_, governor_id_);
    dispatch_options.stream = &channel;
    dispatch_options.stream_block_items = options.stream_block_items;
    std::thread dispatcher([&] {
      cluster_->executor().Dispatch(live, dispatch_options, &outcomes);
    });
    // Union under kFail appends straight into the answer: any sub-query
    // failure fails the whole query, so no committed byte can outlive a
    // lane that later fails. Every other mode stages per lane and commits
    // only on clean lane end — the commit barrier that keeps a sub-query
    // which failed over (or failed outright) mid-stream from leaving a
    // mixed prefix in the answer.
    const bool direct_union =
        plan.composition == Composition::kUnion &&
        options.partial_results == PartialResultPolicy::kFail;
    bool abort_compose = false;
    for (size_t i = 0; i < live.size() && !abort_compose; ++i) {
      std::string staged;
      uint64_t staged_items = 0;
      size_t staged_bytes = 0;
      uint64_t lane_items = 0;
      bool lane_emitted = false;
      bool lane_failed = false;
      for (;;) {
        xdb::ResultBlock block;
        Result<bool> more = channel.Pull(i, &block);
        if (!more.ok()) {
          lane_failed = true;
          break;
        }
        if (!*more) break;
        const size_t bytes = block.serialized.size();
        switch (plan.composition) {
          case Composition::kUnion:
            if (direct_union) {
              lane_items += block.items.size();
              if (bytes > 0) {
                if (!lane_emitted && !streamed.empty()) {
                  streamed.push_back('\n');
                }
                lane_emitted = true;
                if (ttfb_ms < 0.0) ttfb_ms = wall_watch.ElapsedMillis();
                inflight.Add(bytes);
                streamed += block.serialized;
              }
            } else {
              inflight.Add(bytes);
              staged_bytes += bytes;
              staged += block.serialized;
              staged_items += block.items.size();
            }
            break;
          case Composition::kSumCounts:
            inflight.Add(bytes);
            staged_bytes += bytes;
            staged_lanes[i].serialized += block.serialized;
            break;
          case Composition::kJoinReconstruct:
            // The join consumes items, not bytes; like the materialized
            // join, the staged item trees are not byte-charged.
            for (xquery::Item& item : block.items) {
              staged_lanes[i].items.push_back(std::move(item));
            }
            break;
        }
      }
      if (lane_failed) {
        // Commit barrier: drop everything this lane staged. Under direct
        // union the whole query fails below, so stop composing.
        inflight.Release(staged_bytes);
        staged_lanes[i] = xdb::QueryResult();
        if (direct_union) abort_compose = true;
        continue;
      }
      if (plan.composition == Composition::kUnion) {
        if (direct_union) {
          if (lane_emitted) streamed_items += lane_items;
        } else if (!staged.empty()) {
          if (!streamed.empty()) streamed.push_back('\n');
          if (ttfb_ms < 0.0) ttfb_ms = wall_watch.ElapsedMillis();
          streamed += staged;
          streamed_items += staged_items;
        }
        // An all-empty lane contributes neither bytes nor items, matching
        // the materialized union.
      }
    }
    // Unblock any producers still running (remaining lanes after an
    // abort, replay tails), then wait for the executor to finish filling
    // the outcome slots.
    for (size_t i = 0; i < live.size(); ++i) channel.DrainDiscard(i);
    dispatcher.join();
    out.stream_blocks = channel.consumed();
    dispatch_options.stream = nullptr;  // channel dies with this scope
  } else {
    cluster_->executor().Dispatch(live, dispatch_options, &outcomes);
  }
  if (options.trace) {
    // Workers filled disjoint outcome slots; assemble them under one
    // dispatch phase span in plan order.
    telemetry::TraceSpan dispatch_span;
    dispatch_span.name = "dispatch";
    dispatch_span.start_ms = dispatch_start_ms;
    dispatch_span.duration_ms = tracer.NowMs() - dispatch_start_ms;
    dispatch_span.AddTag("parallelism", std::to_string(options.parallelism));
    dispatch_span.children.reserve(outcomes.size());
    for (SubQueryOutcome& o : outcomes) {
      dispatch_span.children.push_back(std::move(o.span));
    }
    out.trace.children.push_back(std::move(dispatch_span));
  }
  out.parallelism = options.parallelism == 0
                        ? std::max<size_t>(1, live.size())
                        : std::max<size_t>(
                              1, std::min(options.parallelism, live.size()));

  // Fault-tolerance accounting, over every dispatched sub-query (failed
  // ones included: their retries happened).
  for (const SubQueryOutcome& o : outcomes) {
    if (o.attempts > 1) out.retries += o.attempts - 1;
    out.failovers += o.failovers;
    if (o.timed_out) ++out.timed_out_subqueries;
    out.corrupt_responses += o.corrupt_responses;
    out.engine_requests += o.engine_requests;
    out.discarded_successes += o.discarded_successes;
    out.compile_ms += o.compile_ms;
    out.plan_cache_hits += o.plan_cache_hits;
    out.plan_cache_misses += o.plan_cache_misses;
  }

  // Per-sub-query error aggregation: one failed node must not hide the
  // others' failures. Each entry names the fragment at the node that
  // produced (or last refused) the result.
  std::string failures;
  StatusCode failure_code = StatusCode::kOk;
  size_t failed = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Result<xdb::QueryResult>& r = outcomes[i].result;
    if (r.ok()) continue;
    ++failed;
    if (failure_code == StatusCode::kOk) failure_code = r.status().code();
    if (!failures.empty()) failures += "; ";
    failures += FragAtNode(live[i].fragment, outcomes[i].node) + ": " +
                r.status().ToString();
  }
  if (failed > 0) {
    if (options.partial_results == PartialResultPolicy::kFail) {
      counters.query_failures->Add();
      return Status(failure_code,
                    std::to_string(failed) + " of " +
                        std::to_string(live.size()) +
                        " sub-queries failed: " + failures);
    }
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].result.ok()) {
        out.missing_fragments.push_back(live[i].fragment);
      }
    }
  }

  // The successful lanes' results, in plan order: streaming staged their
  // payload from the channel (a lane ends clean exactly when its outcome
  // is ok), the materialized dispatch returned it in the outcome.
  std::vector<xdb::QueryResult> partials;
  partials.reserve(live.size());
  uint64_t total_result_bytes = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    Result<xdb::QueryResult>& result = outcomes[i].result;
    if (!result.ok()) continue;
    SubQueryStats stats;
    stats.fragment = live[i].fragment;
    stats.node = outcomes[i].node;
    stats.elapsed_ms = result->metrics.elapsed_ms;
    stats.wall_ms = outcomes[i].wall_ms;
    stats.result_bytes = result->metrics.result_bytes;
    stats.docs_parsed = result->metrics.docs_parsed;
    stats.attempts = outcomes[i].attempts;
    stats.failovers = outcomes[i].failovers;
    stats.corrupt_responses = outcomes[i].corrupt_responses;
    stats.engine_requests = outcomes[i].engine_requests;
    stats.timed_out_attempts = outcomes[i].timed_out_attempts;
    stats.discarded_successes = outcomes[i].discarded_successes;
    stats.compile_ms = outcomes[i].compile_ms;
    stats.plan_cache_hits = outcomes[i].plan_cache_hits;
    stats.plan_cache_misses = outcomes[i].plan_cache_misses;
    stats.plan_cache_bytes = result->metrics.plan_cache_bytes;
    out.slowest_node_ms = std::max(out.slowest_node_ms, stats.elapsed_ms);
    out.sum_node_ms += stats.elapsed_ms;
    total_result_bytes += stats.result_bytes;
    out.subqueries.push_back(std::move(stats));
    partials.push_back(
        std::move(options.streaming ? staged_lanes[i] : *result));
  }
  // Materialized path: every partial is now held at once, so charge the
  // lot; the streaming path charged its (bounded) staging block-by-block
  // as it consumed the channel.
  if (!options.streaming) inflight.Add(total_result_bytes);
  if (!out.missing_fragments.empty()) {
    // Report missing fragments in plan order regardless of whether they
    // were skipped (unreachable) or failed after dispatch.
    std::set<std::string> missing(out.missing_fragments.begin(),
                                  out.missing_fragments.end());
    out.missing_fragments.clear();
    for (const SubQuery& sub : plan.subqueries) {
      if (missing.count(sub.fragment) != 0) {
        out.missing_fragments.push_back(sub.fragment);
      }
    }
  }
  out.complete = out.missing_fragments.empty();
  if (!out.complete) counters.partial_results->Add();

  // Transmission: dispatching the sub-queries + shipping partial results
  // to the coordinator.
  const NetworkModel& net = cluster_->network();
  out.transmission_ms =
      1e3 * (static_cast<double>(live.size()) * net.latency_sec +
             static_cast<double>(total_result_bytes) /
                 net.bandwidth_bytes_per_sec);

  // Composition. It parses no XML: ComposeJoin joins the fetched
  // documents in memory. (Dispatch may: a materialized dispatch at
  // parallelism 1 runs the node engines, cold caches and all, on this
  // thread.)
  const uint64_t xml_parses_before = xml::ThreadParseCount();
  Stopwatch compose_watch(clock_);
  const double compose_start_ms = options.trace ? tracer.NowMs() : 0.0;
  switch (plan.composition) {
    case Composition::kUnion: {
      if (options.streaming) {
        // Already composed in-stream; this is the commit of the answer.
        out.serialized = std::move(streamed);
        out.result_items = streamed_items;
        break;
      }
      for (xdb::QueryResult& partial : partials) {
        if (partial.serialized.empty()) continue;
        if (!out.serialized.empty()) out.serialized.push_back('\n');
        out.serialized += partial.serialized;
        out.result_items += partial.metrics.result_items;
        // A partial drained into the answer no longer needs its own
        // charge (or its buffer): without this release the peak charge
        // double-counts every result byte.
        inflight.Release(partial.serialized.size());
        std::string().swap(partial.serialized);
      }
      break;
    }
    case Composition::kSumCounts: {
      double sum = 0.0;
      for (xdb::QueryResult& partial : partials) {
        double v = 0.0;
        if (!ParseDouble(partial.serialized, &v)) {
          return Status::Internal(
              "sum composition over a non-numeric partial result: '" +
              partial.serialized + "'");
        }
        sum += v;
        inflight.Release(partial.serialized.size());
      }
      out.serialized = FormatNumber(sum);
      out.result_items = 1;
      break;
    }
    case Composition::kJoinReconstruct: {
      // The join reads the fetched items, not their serialized bytes:
      // release those before reconstruction starts allocating (streaming
      // staged items only, so it holds none).
      for (xdb::QueryResult& partial : partials) {
        inflight.Release(partial.serialized.size());
        std::string().swap(partial.serialized);
      }
      PARTIX_ASSIGN_OR_RETURN(
          out.serialized,
          ComposeJoin(plan, std::move(partials), &out.result_items));
      break;
    }
  }
  assert(xml::ThreadParseCount() == xml_parses_before &&
         "composition parsed XML");
  (void)xml_parses_before;
  out.result_bytes = out.serialized.size();
  // The composed answer is held until this frame returns. Streaming
  // union already charged its bytes as they were appended.
  if (!(options.streaming && plan.composition == Composition::kUnion)) {
    inflight.Add(out.result_bytes);
  }
  out.composition_ms = compose_watch.ElapsedMillis();
  counters.compose_ms->Observe(out.composition_ms);
  // TTFB: streaming union stamps the first committed byte up in the
  // consumer loop; everywhere else the answer exists only now.
  if (ttfb_ms < 0.0) ttfb_ms = wall_watch.ElapsedMillis();
  out.ttfb_ms = ttfb_ms;
  counters.ttfb_ms->Observe(out.ttfb_ms);
  if (options.trace) {
    telemetry::TraceSpan compose_span;
    compose_span.name = "compose";
    compose_span.start_ms = compose_start_ms;
    compose_span.duration_ms = tracer.NowMs() - compose_start_ms;
    compose_span.AddTag("kind",
                        std::string(CompositionName(plan.composition)));
    out.trace.children.push_back(std::move(compose_span));
  }

  out.response_ms = out.slowest_node_ms + out.composition_ms +
                    (options.include_transmission ? out.transmission_ms
                                                  : 0.0);
  out.wall_ms = wall_watch.ElapsedMillis();
  finish();
  return out;
}

}  // namespace partix::middleware
