#ifndef PARTIX_PARTIX_CATALOG_H_
#define PARTIX_PARTIX_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "fragmentation/fragment_def.h"
#include "xml/schema.h"

namespace partix::middleware {

/// XML Schema Catalog Service (paper §4): registers the data types used by
/// the distributed collections.
class SchemaCatalog {
 public:
  Status Register(const std::string& name, xml::SchemaPtr schema);
  Result<xml::SchemaPtr> Get(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, xml::SchemaPtr> schemas_;
};

/// Where one fragment lives: a primary cluster node plus zero or more
/// backup replicas (failover order). Every listed node holds a full copy
/// of the fragment; the query service prefers the primary and the
/// executor fails over along `backups` when nodes are unreachable.
struct FragmentPlacement {
  std::string fragment;
  size_t node = 0;              // primary replica
  std::vector<size_t> backups = {};  // additional replicas, in failover order
  /// Expected content digest of the fragment's stored bytes (name-ordered
  /// FNV-1a over (doc name, xml) pairs; see
  /// xdb::Database::CollectionContentDigest), recorded by the publisher
  /// at publish time. The anti-entropy scrubber compares every replica's
  /// live digest against this to detect silent divergence, and replica
  /// repair verifies a copy against it before cutover. 0 = unknown
  /// (pre-digest deployments): replicas can still be cross-checked
  /// against each other, but not against a ground truth.
  uint64_t content_digest = 0;
  /// Total serialized bytes of the fragment's documents, recorded by the
  /// publisher at publish time. The scheduler's admission control
  /// estimates a query's memory footprint from these (serialized size ×
  /// a parse-expansion factor). 0 = unknown (pre-sizing deployments):
  /// admission falls back to a flat default footprint.
  uint64_t serialized_bytes = 0;

  /// All replica nodes, primary first.
  std::vector<size_t> AllNodes() const;
};

/// Everything the middleware knows about one distributed collection: its
/// fragmentation design and the placement of each fragment.
struct DistributionEntry {
  frag::FragmentationSchema schema;
  std::vector<FragmentPlacement> placements;

  /// Primary node of `fragment`.
  Result<size_t> NodeOf(const std::string& fragment) const;

  /// Every replica of `fragment`, primary first.
  Result<std::vector<size_t>> ReplicasOf(const std::string& fragment) const;
};

/// XML Distribution Catalog Service (paper §4): stores fragment
/// definitions and their allocation, consulted by the query decomposer for
/// data localization.
class DistributionCatalog {
 public:
  /// Registers a fragmentation design. Each fragment must have a
  /// placement.
  Status Register(frag::FragmentationSchema schema,
                  std::vector<FragmentPlacement> placements);

  /// Registers an unfragmented (centralized) collection at a node.
  /// `serialized_bytes` (optional) records the collection's total
  /// serialized size for admission-control footprint estimates.
  Status RegisterCentralized(const std::string& collection, size_t node,
                             uint64_t serialized_bytes = 0);

  /// Total serialized bytes recorded for `collection` — the sum over a
  /// fragmented collection's placements, or the centralized figure.
  /// 0 when the collection is unknown or was published without sizes.
  uint64_t SerializedBytesOf(const std::string& collection) const;

  bool IsFragmented(const std::string& collection) const;

  Result<const DistributionEntry*> Get(const std::string& collection) const;

  /// Node holding an unfragmented collection.
  Result<size_t> CentralizedNode(const std::string& collection) const;

  std::vector<std::string> FragmentedCollections() const;

  /// (collection, node) pairs registered as centralized.
  std::vector<std::pair<std::string, size_t>> CentralizedCollections()
      const;

  /// Replaces a fragmented collection's placements wholesale (replica
  /// repair publishes its post-repair placement map through this).
  /// Validates like Register: every fragment of the collection's schema
  /// must be placed, with distinct replica nodes. The fragmentation
  /// schema itself is untouched.
  Status UpdatePlacements(const std::string& collection,
                          std::vector<FragmentPlacement> placements);

 private:
  /// Register-style placement validation shared with UpdatePlacements.
  static Status ValidatePlacements(
      const frag::FragmentationSchema& schema,
      const std::vector<FragmentPlacement>& placements);

  std::map<std::string, DistributionEntry> entries_;
  std::map<std::string, size_t> centralized_;
  std::map<std::string, uint64_t> centralized_bytes_;
};

/// A versioned, atomically swappable distribution catalog: readers take
/// an immutable snapshot and route a whole query against it; writers
/// (replica repair) build a successor catalog off-line and Install() it
/// in one pointer swap. In-flight queries keep the snapshot they started
/// with — they never observe a half-updated placement map — and queries
/// admitted after the swap see the repaired topology. This is the atomic
/// cutover that lets repair run concurrently with query traffic.
///
/// Thread-safety: Snapshot/Install/version are thread-safe (one mutex
/// around a shared_ptr swap; snapshots are immutable afterwards).
class VersionedCatalog {
 public:
  explicit VersionedCatalog(DistributionCatalog initial);

  /// The current catalog, immutable. Cheap (shared_ptr copy); hold it for
  /// the duration of one query's planning.
  std::shared_ptr<const DistributionCatalog> Snapshot() const;

  /// Atomically replaces the catalog with `next` and bumps the version.
  /// Returns the new version number.
  uint64_t Install(DistributionCatalog next);

  /// Monotonic version, starting at 1 for the initial catalog.
  uint64_t version() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const DistributionCatalog> current_;
  uint64_t version_ = 1;
};

}  // namespace partix::middleware

#endif  // PARTIX_PARTIX_CATALOG_H_
