// Self-healing cluster: health monitoring (suspicion accumulator, death
// declaration, probes), end-to-end response integrity, replica repair
// with versioned-catalog cutover, and the anti-entropy scrubber.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "gen/virtual_store.h"
#include "gtest/gtest.h"
#include "partix/catalog.h"
#include "partix/cluster.h"
#include "partix/health.h"
#include "partix/publisher.h"
#include "partix/query_service.h"
#include "partix/repair.h"

namespace partix::middleware {
namespace {

RetryPolicy FastRetry(size_t max_attempts) {
  RetryPolicy retry;
  retry.max_attempts = max_attempts;
  retry.base_backoff_ms = 0.01;
  retry.max_backoff_ms = 0.1;
  retry.seed = 42;
  return retry;
}

const char* const kWorkload[] = {
    "count(collection(\"items\")/Item)",
    "for $i in collection(\"items\")/Item where $i/Section = \"DVD\" "
    "return $i/Name",
    "for $i in collection(\"items\")/Item "
    "where contains($i/Description, \"good\") return $i/Name",
};

/// Items fragmented by Section over 4 nodes at a configurable
/// replication factor, served through a VersionedCatalog so repair can
/// cut over atomically. Replica r of fragment i lives at node
/// (i + r) mod 4.
class SelfHealingTestBase : public ::testing::Test {
 protected:
  explicit SelfHealingTestBase(size_t replication_factor)
      : cluster_(4, xdb::DatabaseOptions(), NetworkModel()),
        publisher_(&cluster_, &catalog_) {
    gen::ItemsGenOptions options;
    options.doc_count = 40;
    options.seed = 11;
    options.sections = {"CD", "DVD", "BOOK", "TOY"};
    auto items = gen::GenerateItems(options, nullptr);
    EXPECT_TRUE(items.ok());
    frag::FragmentationSchema schema;
    schema.collection = "items";
    for (const std::string& s : options.sections) {
      auto mu = xpath::Conjunction::Parse("/Item/Section = \"" + s + "\"");
      EXPECT_TRUE(mu.ok());
      schema.fragments.emplace_back(frag::HorizontalDef{"f_" + s, *mu});
    }
    EXPECT_TRUE(publisher_
                    .PublishFragmented(*items, schema, {},
                                       replication_factor)
                    .ok());
    versioned_ = std::make_unique<VersionedCatalog>(catalog_);
    service_ = std::make_unique<QueryService>(&cluster_, versioned_.get());
    health_ = std::make_unique<HealthMonitor>(&cluster_);
    cluster_.executor().set_health_monitor(health_.get());
  }

  /// Feeds liveness probes until a permanently down node crosses the
  /// death threshold.
  void ProbeToDeath() {
    const size_t rounds = static_cast<size_t>(
        health_->policy().death_threshold / health_->policy().failure_weight);
    for (size_t i = 0; i < rounds; ++i) health_->ProbeAll();
  }

  DistributionCatalog catalog_;
  ClusterSim cluster_;
  DataPublisher publisher_;
  std::unique_ptr<VersionedCatalog> versioned_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<HealthMonitor> health_;
};

class SelfHealingTest : public SelfHealingTestBase {
 protected:
  SelfHealingTest() : SelfHealingTestBase(2) {}
};

class UnreplicatedSelfHealingTest : public SelfHealingTestBase {
 protected:
  UnreplicatedSelfHealingTest() : SelfHealingTestBase(1) {}
};

TEST_F(SelfHealingTest, SuspicionAccumulatorStateMachine) {
  // Fresh nodes are healthy with zero suspicion.
  EXPECT_EQ(health_->StateOf(1), NodeHealth::kHealthy);
  EXPECT_EQ(health_->SuspicionOf(1), 0.0);
  EXPECT_FALSE(health_->ShouldAvoid(1));

  // Failures accumulate to suspect, then to sticky death.
  health_->ReportFailure(1);
  EXPECT_EQ(health_->StateOf(1), NodeHealth::kHealthy);
  health_->ReportFailure(1);
  EXPECT_EQ(health_->StateOf(1), NodeHealth::kSuspect);
  EXPECT_FALSE(health_->ShouldAvoid(1)) << "suspect nodes stay routable";
  health_->ReportFailure(1);
  health_->ReportFailure(1);
  EXPECT_EQ(health_->StateOf(1), NodeHealth::kDead);
  EXPECT_TRUE(health_->ShouldAvoid(1));

  // Death is sticky: evidence alone cannot resurrect a declared node.
  health_->ReportSuccess(1);
  health_->ReportSuccess(1);
  EXPECT_EQ(health_->StateOf(1), NodeHealth::kDead);

  // Revive is the administrative way back.
  health_->Revive(1);
  EXPECT_EQ(health_->StateOf(1), NodeHealth::kHealthy);
  EXPECT_EQ(health_->SuspicionOf(1), 0.0);

  // Interleaved successes decay suspicion: a blip never reaches death.
  health_->ReportFailure(2);
  health_->ReportSuccess(2);
  health_->ReportFailure(2);
  health_->ReportSuccess(2);
  EXPECT_EQ(health_->StateOf(2), NodeHealth::kHealthy);
  EXPECT_EQ(health_->SuspicionOf(2), 0.0);

  // MarkDead is immediate; other nodes are unaffected throughout.
  health_->MarkDead(3);
  EXPECT_EQ(health_->StateOf(3), NodeHealth::kDead);
  EXPECT_EQ(health_->StateOf(0), NodeHealth::kHealthy);
  EXPECT_EQ(health_->DeadNodes(), std::vector<size_t>{3});
}

TEST_F(SelfHealingTest, ProbesDeclareDownNodeDead) {
  cluster_.SetNodeDown(1, true);
  ProbeToDeath();
  EXPECT_EQ(health_->StateOf(1), NodeHealth::kDead);
  EXPECT_EQ(health_->DeadNodes(), std::vector<size_t>{1});
  // Probes are evidence for healthy nodes too: they stay at zero.
  EXPECT_EQ(health_->StateOf(0), NodeHealth::kHealthy);
  EXPECT_EQ(health_->SuspicionOf(0), 0.0);
}

TEST_F(SelfHealingTest, QuarantineAvoidsNodeUntilLifted) {
  EXPECT_FALSE(health_->IsQuarantined(2));
  health_->SetQuarantined(2, true);
  EXPECT_TRUE(health_->IsQuarantined(2));
  EXPECT_TRUE(health_->ShouldAvoid(2));
  EXPECT_EQ(health_->StateOf(2), NodeHealth::kHealthy)
      << "quarantine is orthogonal to suspicion";
  health_->SetQuarantined(2, false);
  EXPECT_FALSE(health_->ShouldAvoid(2));
}

TEST_F(SelfHealingTest, CorruptResponseDetectedAndFailedOver) {
  // Both coordinator modes: a materialized sub-query drains the node's
  // block stream, so corruption is caught per block either way.
  for (bool streaming : {true, false}) {
    SCOPED_TRACE(streaming ? "streaming" : "materialized");
    cluster_.SetFaultProfile(1, FaultProfile{});
    ExecutionOptions options;
    options.retry = FastRetry(3);
    options.streaming = streaming;
    auto baseline = service_->Execute(kWorkload[1], options);
    ASSERT_TRUE(baseline.ok()) << baseline.status();

    // Node 1 (f_DVD primary) corrupts every response in flight. The
    // executor must detect the digest mismatch, discard the response, and
    // serve the byte-identical answer from the replica.
    FaultProfile profile;
    profile.response_corruption_rate = 1.0;
    cluster_.SetFaultProfile(1, profile);

    auto result = service_->Execute(kWorkload[1], options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->serialized, baseline->serialized);
    EXPECT_GE(result->corrupt_responses, 1u);
    EXPECT_GE(result->failovers, 1u);
    ASSERT_EQ(result->subqueries.size(), 1u);
    EXPECT_EQ(result->subqueries[0].node, 2u);
    EXPECT_GE(result->subqueries[0].corrupt_responses, 1u);
  }
}

TEST_F(UnreplicatedSelfHealingTest, AllCopiesCorruptFailsNeverServes) {
  // rf=1 and the only copy's node corrupts every response: the query
  // must FAIL — a corrupt answer is never returned to the client.
  FaultProfile profile;
  profile.response_corruption_rate = 1.0;
  cluster_.SetFaultProfile(1, profile);

  ExecutionOptions options;
  options.retry = FastRetry(3);
  auto result = service_->Execute(kWorkload[1], options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Contains(result.status().message(), "corrupt response"))
      << result.status().message();
}

TEST_F(UnreplicatedSelfHealingTest, IntegrityOffServesCorruptBytes) {
  // Documents the contract: verify_integrity=false skips the digest
  // check, so wire corruption flows straight through to the client.
  ExecutionOptions options;
  options.retry = FastRetry(3);
  auto baseline = service_->Execute(kWorkload[1], options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  FaultProfile profile;
  profile.response_corruption_rate = 1.0;
  cluster_.SetFaultProfile(1, profile);
  options.verify_integrity = false;
  auto result = service_->Execute(kWorkload[1], options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->serialized, baseline->serialized);
  EXPECT_EQ(result->corrupt_responses, 0u) << "nothing was verified";
}

TEST_F(SelfHealingTest, KillAndRepairEndToEnd) {
  // The acceptance scenario: kill a node mid-workload — zero failed
  // queries; the monitor declares it dead; one repair round restores
  // the replication factor onto healthy nodes and cuts the catalog over
  // atomically; results stay byte-identical throughout.
  ExecutionOptions options;
  options.retry = FastRetry(3);
  std::vector<std::string> baseline;
  for (const char* q : kWorkload) {
    auto result = service_->Execute(q, options);
    ASSERT_TRUE(result.ok()) << q << ": " << result.status();
    baseline.push_back(result->serialized);
  }

  // Node 1 (f_DVD primary, f_CD backup) dies. Every query keeps
  // succeeding byte-identically via replicas.
  cluster_.SetNodeDown(1, true);
  for (size_t i = 0; i < std::size(kWorkload); ++i) {
    auto result = service_->Execute(kWorkload[i], options);
    ASSERT_TRUE(result.ok()) << kWorkload[i] << ": " << result.status();
    EXPECT_EQ(result->serialized, baseline[i]) << kWorkload[i];
    EXPECT_TRUE(result->complete);
  }
  // The routing failures fed the monitor as evidence; probes finish the
  // declaration deterministically.
  ProbeToDeath();
  ASSERT_EQ(health_->DeadNodes(), std::vector<size_t>{1});

  // One repair round. Node 1 held two placements (f_DVD primary, f_CD
  // backup); both must be re-replicated onto healthy nodes.
  RepairPlanner planner(&cluster_, &publisher_, health_.get(),
                        versioned_.get());
  RepairReport report = planner.RepairOnce();
  EXPECT_EQ(report.under_replicated, 2u);
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.catalog_version, 2u) << "atomic cutover installed v2";
  EXPECT_EQ(versioned_->version(), 2u);

  // The repaired catalog references no dead replicas and every fragment
  // is back at full replication on live, digest-verified copies.
  auto snapshot = versioned_->Snapshot();
  for (const std::string& name : snapshot->FragmentedCollections()) {
    auto entry = snapshot->Get(name);
    ASSERT_TRUE(entry.ok());
    for (const FragmentPlacement& p : (*entry)->placements) {
      EXPECT_EQ(p.AllNodes().size(), 2u) << p.fragment;
      for (size_t node : p.AllNodes()) {
        EXPECT_NE(node, 1u) << p.fragment << " still routed at the dead node";
        auto digest = cluster_.node(node).CollectionDigest(p.fragment);
        ASSERT_TRUE(digest.ok()) << p.fragment;
        EXPECT_EQ(*digest, p.content_digest) << p.fragment;
      }
    }
  }

  // Queries admitted after the cutover route on the repaired topology
  // and stay byte-identical.
  for (size_t i = 0; i < std::size(kWorkload); ++i) {
    auto result = service_->Execute(kWorkload[i], options);
    ASSERT_TRUE(result.ok()) << kWorkload[i] << ": " << result.status();
    EXPECT_EQ(result->serialized, baseline[i]) << kWorkload[i];
    for (const SubQueryStats& stats : result->subqueries) {
      EXPECT_NE(stats.node, 1u) << stats.fragment;
    }
  }

  // A second round finds a fully replicated cluster: no cutover.
  RepairReport again = planner.RepairOnce();
  EXPECT_EQ(again.under_replicated, 0u);
  EXPECT_EQ(again.catalog_version, 0u);
  EXPECT_EQ(versioned_->version(), 2u);
}

TEST_F(SelfHealingTest, RepairOnHealthyClusterIsANoop) {
  RepairPlanner planner(&cluster_, &publisher_, health_.get(),
                        versioned_.get());
  RepairReport report = planner.RepairOnce();
  EXPECT_EQ(report.under_replicated, 0u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.catalog_version, 0u);
  EXPECT_EQ(versioned_->version(), 1u);
  EXPECT_TRUE(report.actions.empty());
}

TEST_F(SelfHealingTest, ScrubberDetectsQuarantinesAndRepairsBitRot) {
  // Silent at-rest corruption on node 1's f_DVD copy. Response digests
  // cannot catch it (the node honestly serves what it stores), so this
  // is exactly the scrubber's job: detect the divergent copy,
  // quarantine the node, rebuild from the clean replica, verify, lift.
  ASSERT_TRUE(
      cluster_.database(1).CorruptStoredDocumentText("f_DVD", 0).ok());
  auto snapshot = versioned_->Snapshot();
  auto entry = snapshot->Get("items");
  ASSERT_TRUE(entry.ok());
  uint64_t published = 0;
  for (const FragmentPlacement& p : (*entry)->placements) {
    if (p.fragment == "f_DVD") published = p.content_digest;
  }
  ASSERT_NE(published, 0u);
  auto before = cluster_.node(1).CollectionDigest("f_DVD");
  ASSERT_TRUE(before.ok());
  ASSERT_NE(*before, published) << "corruption must change the digest";

  Scrubber scrubber(&cluster_, &publisher_, health_.get(),
                    versioned_.get());
  ScrubReport report = scrubber.ScrubOnce();
  EXPECT_EQ(report.divergent, 1u);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GE(report.checked, 8u) << "4 fragments x 2 replicas";
  EXPECT_EQ(report.skipped_no_digest, 0u);

  // The copy is byte-identical to the published bytes again and the
  // quarantine was lifted.
  auto after = cluster_.node(1).CollectionDigest("f_DVD");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, published);
  EXPECT_FALSE(health_->IsQuarantined(1));

  // A clean round finds nothing.
  ScrubReport clean = scrubber.ScrubOnce();
  EXPECT_EQ(clean.divergent, 0u);
  EXPECT_EQ(clean.repaired, 0u);
}

TEST_F(UnreplicatedSelfHealingTest, ScrubberWithoutCleanSourceQuarantines) {
  // rf=1: the only copy rots and there is nothing to rebuild from. The
  // scrubber must report the failure and leave the node quarantined —
  // surfacing the data loss instead of papering over it.
  ASSERT_TRUE(
      cluster_.database(1).CorruptStoredDocumentText("f_DVD", 0).ok());
  Scrubber scrubber(&cluster_, &publisher_, health_.get(),
                    versioned_.get());
  ScrubReport report = scrubber.ScrubOnce();
  EXPECT_EQ(report.divergent, 1u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_TRUE(health_->IsQuarantined(1));
}

TEST_F(SelfHealingTest, CrashRestartIsRetryableAndDropsCaches) {
  // Warm node 1's parse cache with a direct engine query, then let the
  // injected crash-restart reject a distributed attempt: the query fails
  // over (crash = retryable), and the restarted node comes back cold.
  const std::string probe = "count(collection(\"f_DVD\")/Item)";
  ASSERT_TRUE(cluster_.database(1).Execute(probe).ok());
  auto warm = cluster_.database(1).Execute(probe);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->metrics.cache_hits, 0u)
      << "cache should be warm before the crash";

  FaultProfile profile;
  profile.crash_restart_rate = 1.0;
  cluster_.SetFaultProfile(1, profile);
  ExecutionOptions options;
  options.retry = FastRetry(3);
  auto result = service_->Execute(kWorkload[1], options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->failovers, 1u);
  ASSERT_EQ(result->subqueries.size(), 1u);
  EXPECT_EQ(result->subqueries[0].node, 2u);

  cluster_.SetFaultProfile(1, FaultProfile{});
  auto cold = cluster_.database(1).Execute(probe);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->metrics.cache_hits, 0u)
      << "restart must have dropped the caches";
}

TEST_F(SelfHealingTest, ExecutorRoutesAroundDeadNodeWithoutProbing) {
  // A declared-dead node is avoided while alternatives exist: the
  // sub-query goes straight to the replica with no attempt (and no
  // engine request) at the dead-but-actually-up node.
  health_->MarkDead(1);
  const uint64_t node1_before = cluster_.NodeRequestCount(1);
  ExecutionOptions options;
  options.retry = FastRetry(3);
  auto result = service_->Execute(kWorkload[1], options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->subqueries.size(), 1u);
  EXPECT_EQ(result->subqueries[0].node, 2u);
  EXPECT_EQ(cluster_.NodeRequestCount(1), node1_before);

  // Health is advisory: when EVERY replica is flagged, the executor
  // falls back to ignoring it rather than failing a servable query.
  health_->MarkDead(2);
  auto fallback = service_->Execute(kWorkload[1], options);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
}

TEST_F(SelfHealingTest, VersionedCatalogSnapshotsAreAtomic) {
  // Readers snapshot while a writer keeps installing successors built
  // from the current catalog. Every snapshot must be a complete,
  // internally consistent catalog (all four fragments present, every
  // placement valid) — never a torn mix of versions.
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) {
      DistributionCatalog next = *versioned_->Snapshot();
      versioned_->Install(std::move(next));
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto snapshot = versioned_->Snapshot();
        auto entry = snapshot->Get("items");
        if (!entry.ok() || (*entry)->placements.size() != 4) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(versioned_->version(), 201u);
}

TEST_F(SelfHealingTest, BackgroundLoopsStartAndStopCleanly) {
  // The background prober and scrubber must start, make progress, and
  // stop without deadlock or leak (TSan covers the data-race half).
  health_->Start();
  Scrubber scrubber(&cluster_, &publisher_, health_.get(),
                    versioned_.get());
  scrubber.Start(1.0);
  cluster_.SetNodeDown(3, true);
  // The prober (20 ms cadence) needs death_threshold rounds; poll
  // rather than sleep a fixed worst case.
  for (int i = 0; i < 2000 && health_->StateOf(3) != NodeHealth::kDead;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(health_->StateOf(3), NodeHealth::kDead);
  scrubber.Stop();
  health_->Stop();
  // Idempotent: double stop and restart both work.
  health_->Stop();
  health_->Start();
  health_->Stop();
}

}  // namespace
}  // namespace partix::middleware
