#ifndef PARTIX_STORAGE_INDEXES_H_
#define PARTIX_STORAGE_INDEXES_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/document_store.h"
#include "xml/document.h"

namespace partix::storage {

/// A sorted list of document slots.
using PostingList = std::vector<DocSlot>;

/// Intersects two sorted posting lists.
PostingList IntersectPostings(const PostingList& a, const PostingList& b);

/// Unions two sorted posting lists.
PostingList UnionPostings(const PostingList& a, const PostingList& b);

/// Structural label index, the one document index of a collection:
/// element/attribute name -> per-document level summaries of the name's
/// occurrences. Built from the same (pre, post, level) labels the
/// documents carry (see xml::NodeLabel). It answers both "does the name
/// occur" (level >= 1, mirroring eXist's automatic structural index) and
/// "does it occur at a depth the path could reach", which prunes documents
/// whose matching names sit at the wrong level — e.g. a child-only spine
/// /Store/Items/Item can skip documents whose only `Item` elements are
/// nested deeper. Single-writer during loading, immutable and freely
/// shared afterwards.
class StructuralIndex {
 public:
  /// Level summary of one name's occurrences within one document.
  struct LevelPosting {
    DocSlot slot = 0;
    uint32_t min_level = 0;
    uint32_t max_level = 0;
    uint32_t count = 0;
  };

  /// Indexes every element and attribute of `doc` with its level. Uses the
  /// document's labels when sealed and a transient DFS otherwise, so
  /// callers need not seal first.
  void AddDocument(DocSlot slot, const xml::Document& doc);

  /// Level postings for `name`, or nullptr if the name was never seen.
  const std::vector<LevelPosting>* Lookup(std::string_view name) const;

  /// Documents that may contain `name` at an admissible level: exactly
  /// `level` when `exact_level`, at depth >= `level` otherwise. Only the
  /// per-document [min, max] level envelope is consulted, so the result is
  /// a superset of the true matches; evaluation still verifies.
  PostingList LookupWithLevel(std::string_view name, uint32_t level,
                              bool exact_level) const;

  size_t distinct_names() const { return postings_.size(); }

 private:
  std::unordered_map<std::string, std::vector<LevelPosting>> postings_;
};

}  // namespace partix::storage

#endif  // PARTIX_STORAGE_INDEXES_H_
