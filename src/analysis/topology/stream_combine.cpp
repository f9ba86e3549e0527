#include "analysis/topology/stream_combine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hia {

void StreamingCombiner::insert_vertex(uint64_t id, double value) {
  auto [it, inserted] = nodes_.try_emplace(id);
  if (!inserted) {
    HIA_REQUIRE(it->second.value == value,
                "vertex re-declared with a different value");
    return;
  }
  it->second.value = value;
  it->second.parent = kNone;
  peak_live_ = std::max(peak_live_, nodes_.size());
}

void StreamingCombiner::set_parent(uint64_t child, NodeRec& child_rec,
                                   uint64_t parent) {
  if (child_rec.parent != kNone) {
    auto old_it = nodes_.find(child_rec.parent);
    HIA_ASSERT(old_it != nodes_.end());
    auto& siblings = old_it->second.children;
    auto pos = std::find(siblings.begin(), siblings.end(), child);
    HIA_ASSERT(pos != siblings.end());
    siblings.erase(pos);
  }
  child_rec.parent = parent;
  if (parent != kNone) {
    auto new_it = nodes_.find(parent);
    HIA_ASSERT(new_it != nodes_.end());
    new_it->second.children.push_back(child);
  }
}

void StreamingCombiner::insert_edge(uint64_t u, uint64_t v) {
  HIA_REQUIRE(u != v, "self-loop edge");
  std::vector<uint64_t> dirty;  // nodes that lost a child during the walk

  for (;;) {
    if (u == v) break;
    auto u_it = nodes_.find(u);
    auto v_it = nodes_.find(v);
    HIA_REQUIRE(u_it != nodes_.end() && v_it != nodes_.end(),
                "edge references undeclared vertex");
    if (!is_above(u, u_it->second, v, v_it->second)) {
      std::swap(u, v);
      std::swap(u_it, v_it);
    }
    // Invariant: u strictly above v. Merge v into u's descending chain.
    NodeRec& u_rec = u_it->second;
    const uint64_t p = u_rec.parent;
    if (p == kNone) {
      set_parent(u, u_rec, v);
      break;
    }
    if (p == v) break;  // already linked
    const NodeRec& p_rec = nodes_.at(p);
    if (is_above(p, p_rec, v, v_it->second)) {
      // p lies between u and v: descend u's chain.
      u = p;
    } else {
      // v lies between u and p: splice v in, then merge (v, p) below.
      dirty.push_back(p);  // p lost u as a child
      set_parent(u, u_rec, v);
      u = v;
      v = p;
    }
  }

  for (const uint64_t d : dirty) try_evict(d);
}

void StreamingCombiner::finalize_vertex(uint64_t id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;  // already evicted (idempotent)
  it->second.finalized = true;
  try_evict(id);
}

bool StreamingCombiner::try_evict(uint64_t id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return false;
  NodeRec& rec = it->second;
  // Evictable = finalized regular vertex: exactly one child and a parent.
  // (A finalized regular vertex can never become a saddle later: superlevel
  // components only merge as edges arrive, so its up-degree in the reduced
  // tree cannot grow once all its incident edges are in.)
  if (!rec.finalized || rec.children.size() != 1 || rec.parent == kNone) {
    return false;
  }
  const uint64_t child = rec.children[0];
  const uint64_t parent = rec.parent;

  auto child_it = nodes_.find(child);
  auto parent_it = nodes_.find(parent);
  HIA_ASSERT(child_it != nodes_.end() && parent_it != nodes_.end());

  // Splice the arc: child adopts our parent.
  child_it->second.parent = parent;
  auto& siblings = parent_it->second.children;
  auto pos = std::find(siblings.begin(), siblings.end(), id);
  HIA_ASSERT(pos != siblings.end());
  *pos = child;

  const EvictedArc arc{id, rec.value, child, parent};
  nodes_.erase(it);
  ++evicted_;
  if (sink_) sink_(arc);
  return true;
}

void StreamingCombiner::insert_subtree(const SubtreeData& subtree) {
  for (size_t i = 0; i < subtree.vertex_ids.size(); ++i) {
    insert_vertex(subtree.vertex_ids[i], subtree.vertex_values[i]);
  }
  for (size_t e = 0; e < subtree.edge_child.size(); ++e) {
    insert_edge(subtree.vertex_ids[subtree.edge_child[e]],
                subtree.vertex_ids[subtree.edge_parent[e]]);
  }
}

void StreamingCombiner::insert_subtree_streaming(const SubtreeData& subtree) {
  insert_subtree(subtree);
  HIA_REQUIRE(subtree.interior.size() == subtree.vertex_ids.size(),
              "subtree lacks interior flags");
  for (size_t i = 0; i < subtree.vertex_ids.size(); ++i) {
    if (subtree.interior[i]) finalize_vertex(subtree.vertex_ids[i]);
  }
}

MergeTree StreamingCombiner::build_tree() const {
  std::vector<MergeTree::Node> out;
  out.reserve(nodes_.size());
  std::unordered_map<uint64_t, int64_t> index;
  index.reserve(nodes_.size());

  // Emit in descending order for a stable layout.
  std::vector<const std::pair<const uint64_t, NodeRec>*> sorted;
  sorted.reserve(nodes_.size());
  for (const auto& kv : nodes_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return above(a->second.value, a->first, b->second.value, b->first);
  });

  for (const auto* kv : sorted) {
    index[kv->first] = static_cast<int64_t>(out.size());
    out.push_back(
        MergeTree::Node{kv->first, kv->second.value, MergeTree::kNoParent});
  }
  for (size_t i = 0; i < sorted.size(); ++i) {
    const uint64_t p = sorted[i]->second.parent;
    if (p != kNone) {
      auto it = index.find(p);
      HIA_ASSERT(it != index.end());
      out[i].parent = it->second;
    }
  }
  return MergeTree(std::move(out));
}

MergeTree StreamingCombiner::finish() {
  std::vector<uint64_t> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, rec] : nodes_) ids.push_back(id);
  for (const uint64_t id : ids) {
    auto it = nodes_.find(id);
    if (it != nodes_.end()) it->second.finalized = true;
  }
  for (const uint64_t id : ids) try_evict(id);

  MergeTree tree = build_tree();
  nodes_.clear();
  return tree;
}

MergeTree combine_subtrees(const std::vector<SubtreeData>& subtrees) {
  StreamingCombiner combiner;
  for (const SubtreeData& s : subtrees) combiner.insert_subtree(s);
  return combiner.finish();
}

// ---------------------------------------------------- SubtreeStreamDriver --

SubtreeStreamDriver::SubtreeStreamDriver(const GlobalGrid& grid,
                                         std::vector<Box3> blocks)
    : grid_(grid), blocks_(std::move(blocks)) {
  HIA_REQUIRE(!blocks_.empty(), "stream driver needs the block list");
}

int SubtreeStreamDriver::multiplicity(uint64_t gid) const {
  const int64_t i = static_cast<int64_t>(gid) % grid_.dims[0];
  const int64_t j =
      (static_cast<int64_t>(gid) / grid_.dims[0]) % grid_.dims[1];
  const int64_t k =
      static_cast<int64_t>(gid) / (grid_.dims[0] * grid_.dims[1]);
  int count = 0;
  for (const Box3& b : blocks_) {
    if (b.contains(i, j, k)) ++count;
  }
  return count;
}

void SubtreeStreamDriver::ingest(StreamingCombiner& combiner,
                                 const SubtreeData& subtree) {
  combiner.insert_subtree(subtree);
  for (const uint64_t gid : subtree.vertex_ids) {
    auto it = remaining_.find(gid);
    if (it == remaining_.end()) {
      const int m = multiplicity(gid);
      HIA_REQUIRE(m >= 1, "subtree vertex outside every published block");
      if (m == 1) {
        combiner.finalize_vertex(gid);
      } else {
        remaining_.emplace(gid, m - 1);
      }
    } else if (--it->second == 0) {
      remaining_.erase(it);
      combiner.finalize_vertex(gid);
    }
  }
}

}  // namespace hia
