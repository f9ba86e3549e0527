// In-transit stage of the hybrid topology pipeline: streaming merge-tree
// aggregation.
//
// Adapts the streaming algorithm for unstructured data of Bremer et al.
// [43]: subtree elements (vertices, edges, finalizations) arrive in any
// order compatible with "a vertex is processed before any edge containing
// it"; the combiner maintains the merge tree of everything seen so far and
// evicts finalized regular vertices from memory, writing them to the
// output sink — keeping the memory footprint proportional to the evolving
// tree's critical set plus unfinalized boundary, not the total input.
//
// Unlike the in-situ algorithm, no global sort is required.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "analysis/topology/local_tree.hpp"
#include "analysis/topology/merge_tree.hpp"
#include "sim/grid.hpp"

namespace hia {

/// An arc segment evicted from memory (what the paper "writes to disk").
struct EvictedArc {
  uint64_t id = 0;
  double value = 0.0;
  uint64_t child_id = 0;   // the single child it had when contracted
  uint64_t parent_id = 0;  // the parent it was contracted onto
};

class StreamingCombiner {
 public:
  StreamingCombiner() = default;

  /// Optional sink invoked for every evicted regular vertex; when not set,
  /// evictions are only counted.
  void set_eviction_sink(std::function<void(const EvictedArc&)> sink) {
    sink_ = std::move(sink);
  }

  /// Declares a vertex. Idempotent: re-declaring with the same value is a
  /// no-op (shared boundary vertices arrive from several subtrees);
  /// a different value is an error.
  void insert_vertex(uint64_t id, double value);

  /// Inserts an edge between two declared vertices, merging their
  /// descending chains in (value, id) order.
  void insert_edge(uint64_t u, uint64_t v);

  /// Declares that no further edge will reference `id`. Finalized regular
  /// vertices become eligible for eviction.
  void finalize_vertex(uint64_t id);

  /// Ingests a whole subtree: vertices, then edges. Does not finalize.
  void insert_subtree(const SubtreeData& subtree);

  /// Streaming ingestion (paper §VI: "process in-transit data in a
  /// streaming fashion, starting as soon as the first data arrives"):
  /// inserts the subtree and immediately finalizes its interior vertices —
  /// no other rank's subtree can reference them, so regular ones are
  /// evicted on the spot, keeping peak memory near the boundary set.
  void insert_subtree_streaming(const SubtreeData& subtree);

  /// True if the vertex is currently held in memory.
  [[nodiscard]] bool contains(uint64_t id) const {
    return nodes_.count(id) > 0;
  }

  [[nodiscard]] size_t live_nodes() const { return nodes_.size(); }
  [[nodiscard]] size_t peak_live_nodes() const { return peak_live_; }
  [[nodiscard]] size_t evicted_count() const { return evicted_; }

  /// Finalizes everything still open, runs a last eviction sweep, and
  /// returns the merge tree of the live (critical + root) vertices.
  /// The combiner is left empty.
  MergeTree finish();

 private:
  static constexpr uint64_t kNone = ~uint64_t{0};

  struct NodeRec {
    double value = 0.0;
    uint64_t parent = kNone;
    std::vector<uint64_t> children;
    bool finalized = false;
  };

  [[nodiscard]] bool is_above(uint64_t a, const NodeRec& ra, uint64_t b,
                              const NodeRec& rb) const {
    return above(ra.value, a, rb.value, b);
  }

  void set_parent(uint64_t child, NodeRec& child_rec, uint64_t parent);
  /// Contracts `id` if finalized + regular; returns true when evicted.
  bool try_evict(uint64_t id);
  MergeTree build_tree() const;

  std::unordered_map<uint64_t, NodeRec> nodes_;
  std::function<void(const EvictedArc&)> sink_;
  size_t peak_live_ = 0;
  size_t evicted_ = 0;
};

/// Convenience for tests and the pure in-transit path: combine a batch of
/// subtrees into the global reduced merge tree.
MergeTree combine_subtrees(const std::vector<SubtreeData>& subtrees);

/// Geometry-aware streaming driver: given the extended blocks every rank
/// publishes (known from the task's data descriptors before any payload is
/// pulled), each vertex's multiplicity — how many subtrees will declare it
/// — follows from which blocks contain its grid coordinates. The driver
/// finalizes a vertex the moment the *last* subtree containing it has been
/// ingested, so shared-face vertices are evicted as soon as both sides
/// have arrived rather than at the end of the stream (paper §VI,
/// streaming in-transit processing).
class SubtreeStreamDriver {
 public:
  SubtreeStreamDriver(const GlobalGrid& grid, std::vector<Box3> blocks);

  /// Inserts the subtree and finalizes every vertex whose full multiplicity
  /// has now been seen.
  void ingest(StreamingCombiner& combiner, const SubtreeData& subtree);

  /// Vertices still awaiting further subtrees (diagnostics).
  [[nodiscard]] size_t open_vertices() const { return remaining_.size(); }

 private:
  [[nodiscard]] int multiplicity(uint64_t gid) const;

  GlobalGrid grid_;
  std::vector<Box3> blocks_;
  std::unordered_map<uint64_t, int> remaining_;
};

}  // namespace hia
