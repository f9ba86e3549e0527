#include "analysis/topology/merge_tree.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace hia {

MergeTree::MergeTree(std::vector<Node> nodes) : nodes_(std::move(nodes)) {
  rebuild_index();
}

void MergeTree::rebuild_index() {
  index_.clear();
  index_.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const auto [it, inserted] =
        index_.emplace(nodes_[i].id, static_cast<int64_t>(i));
    HIA_REQUIRE(inserted, "duplicate vertex id in merge tree");
  }
}

int64_t MergeTree::index_of(uint64_t id) const {
  auto it = index_.find(id);
  return it == index_.end() ? -1 : it->second;
}

std::vector<int> MergeTree::child_counts() const {
  std::vector<int> counts(nodes_.size(), 0);
  for (const Node& n : nodes_) {
    if (n.parent != kNoParent) ++counts[static_cast<size_t>(n.parent)];
  }
  return counts;
}

std::vector<int64_t> MergeTree::leaves() const {
  const auto counts = child_counts();
  std::vector<int64_t> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (counts[i] == 0) out.push_back(static_cast<int64_t>(i));
  }
  return out;
}

std::vector<int64_t> MergeTree::roots() const {
  std::vector<int64_t> out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].parent == kNoParent) out.push_back(static_cast<int64_t>(i));
  }
  return out;
}

MergeTree MergeTree::reduced() const {
  const auto counts = child_counts();
  // Keep leaves, saddles, and roots; drop regular nodes (1 child + parent).
  std::vector<bool> keep(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    keep[i] = counts[i] != 1 || nodes_[i].parent == kNoParent;
  }

  // Nearest retained ancestor, memoized via path iteration.
  auto retained_ancestor = [&](int64_t start) {
    int64_t p = nodes_[static_cast<size_t>(start)].parent;
    while (p != kNoParent && !keep[static_cast<size_t>(p)]) {
      p = nodes_[static_cast<size_t>(p)].parent;
    }
    return p;
  };

  std::vector<int64_t> remap(nodes_.size(), -1);
  std::vector<Node> out;
  std::vector<int64_t> original;  // index in nodes_ of each out node
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!keep[i]) continue;
    remap[i] = static_cast<int64_t>(out.size());
    out.push_back(nodes_[i]);
    original.push_back(static_cast<int64_t>(i));
  }
  for (size_t o = 0; o < out.size(); ++o) {
    // Recompute parent as nearest retained ancestor in the original tree.
    const int64_t anc = retained_ancestor(original[o]);
    out[o].parent =
        anc == kNoParent ? kNoParent : remap[static_cast<size_t>(anc)];
  }
  return MergeTree(std::move(out));
}

std::string MergeTree::validate() const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.parent == kNoParent) continue;
    if (n.parent < 0 || n.parent >= static_cast<int64_t>(nodes_.size())) {
      return "node " + std::to_string(i) + " has out-of-range parent";
    }
    if (n.parent == static_cast<int64_t>(i)) {
      return "node " + std::to_string(i) + " is its own parent";
    }
    const Node& p = nodes_[static_cast<size_t>(n.parent)];
    if (!above(n.value, n.id, p.value, p.id)) {
      return "node " + std::to_string(i) +
             " is not strictly above its parent (order violation)";
    }
  }
  // Strict order along parent edges implies acyclicity.
  return {};
}

MergeTree MergeTree::canonical() const {
  std::vector<size_t> order(nodes_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return above(nodes_[a].value, nodes_[a].id, nodes_[b].value, nodes_[b].id);
  });
  std::vector<int64_t> remap(nodes_.size());
  for (size_t pos = 0; pos < order.size(); ++pos) {
    remap[order[pos]] = static_cast<int64_t>(pos);
  }
  std::vector<Node> out;
  out.reserve(nodes_.size());
  for (const size_t idx : order) {
    Node n = nodes_[idx];
    if (n.parent != kNoParent) n.parent = remap[static_cast<size_t>(n.parent)];
    out.push_back(n);
  }
  return MergeTree(std::move(out));
}

bool MergeTree::same_structure(const MergeTree& other) const {
  if (nodes_.size() != other.nodes_.size()) return false;
  const MergeTree a = canonical();
  const MergeTree b = other.canonical();
  for (size_t i = 0; i < a.nodes_.size(); ++i) {
    const Node& na = a.nodes_[i];
    const Node& nb = b.nodes_[i];
    if (na.id != nb.id || na.value != nb.value) return false;
    const bool root_a = na.parent == kNoParent;
    const bool root_b = nb.parent == kNoParent;
    if (root_a != root_b) return false;
    if (!root_a &&
        a.nodes_[static_cast<size_t>(na.parent)].id !=
            b.nodes_[static_cast<size_t>(nb.parent)].id) {
      return false;
    }
  }
  return true;
}

std::vector<PersistencePair> persistence_pairs(const MergeTree& tree) {
  const auto& nodes = tree.nodes();
  if (nodes.empty()) return {};

  std::vector<size_t> order(nodes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return above(nodes[a].value, nodes[a].id, nodes[b].value, nodes[b].id);
  });

  const auto counts = tree.child_counts();
  // Branch maxima arriving at each node from its children.
  std::vector<std::vector<int64_t>> arrivals(nodes.size());
  std::vector<PersistencePair> pairs;
  pairs.reserve(tree.leaves().size());

  auto is_above = [&](int64_t a, int64_t b) {
    return above(nodes[static_cast<size_t>(a)].value,
                 nodes[static_cast<size_t>(a)].id,
                 nodes[static_cast<size_t>(b)].value,
                 nodes[static_cast<size_t>(b)].id);
  };

  for (const size_t u : order) {
    int64_t best;
    if (counts[u] == 0) {
      best = static_cast<int64_t>(u);  // leaf: its own maximum
    } else {
      HIA_ASSERT(!arrivals[u].empty());
      best = arrivals[u][0];
      for (const int64_t a : arrivals[u]) {
        if (is_above(a, best)) best = a;
      }
      // Elder rule: every non-surviving branch dies at this saddle.
      for (const int64_t a : arrivals[u]) {
        if (a == best) continue;
        pairs.push_back(PersistencePair{
            nodes[static_cast<size_t>(a)].id,
            nodes[static_cast<size_t>(a)].value, nodes[u].id,
            nodes[u].value});
      }
    }
    const int64_t parent = nodes[u].parent;
    if (parent != MergeTree::kNoParent) {
      arrivals[static_cast<size_t>(parent)].push_back(best);
    } else {
      // Root: the surviving branch pairs with the root itself.
      pairs.push_back(PersistencePair{
          nodes[static_cast<size_t>(best)].id,
          nodes[static_cast<size_t>(best)].value, nodes[u].id,
          nodes[u].value});
    }
  }

  std::sort(pairs.begin(), pairs.end(),
            [](const PersistencePair& a, const PersistencePair& b) {
              return a.persistence() > b.persistence();
            });
  return pairs;
}

MergeTree simplify(const MergeTree& tree, double threshold) {
  const auto& nodes = tree.nodes();
  if (nodes.empty()) return tree;

  // Branch decomposition: branch_max[u] = the maximum whose branch passes
  // through u under the elder rule (recomputed as in persistence_pairs).
  std::vector<size_t> order(nodes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return above(nodes[a].value, nodes[a].id, nodes[b].value, nodes[b].id);
  });
  const auto counts = tree.child_counts();
  std::vector<std::vector<int64_t>> arrivals(nodes.size());
  std::vector<int64_t> branch_max(nodes.size(), -1);
  std::vector<double> branch_death(nodes.size(), 0.0);  // by max index

  auto is_above = [&](int64_t a, int64_t b) {
    return above(nodes[static_cast<size_t>(a)].value,
                 nodes[static_cast<size_t>(a)].id,
                 nodes[static_cast<size_t>(b)].value,
                 nodes[static_cast<size_t>(b)].id);
  };

  for (const size_t u : order) {
    int64_t best;
    if (counts[u] == 0) {
      best = static_cast<int64_t>(u);
    } else {
      best = arrivals[u][0];
      for (const int64_t a : arrivals[u]) {
        if (is_above(a, best)) best = a;
      }
      for (const int64_t a : arrivals[u]) {
        if (a != best) branch_death[static_cast<size_t>(a)] = nodes[u].value;
      }
    }
    branch_max[u] = best;
    const int64_t parent = nodes[u].parent;
    if (parent != MergeTree::kNoParent) {
      arrivals[static_cast<size_t>(parent)].push_back(best);
    } else {
      branch_death[static_cast<size_t>(best)] = nodes[u].value;
    }
  }

  // The root branch (highest maximum overall) is always kept.
  int64_t global_best = -1;
  for (size_t u = 0; u < nodes.size(); ++u) {
    if (counts[u] == 0 &&
        (global_best == -1 || is_above(static_cast<int64_t>(u), global_best)))
      global_best = static_cast<int64_t>(u);
  }

  std::vector<bool> keep_branch(nodes.size(), false);
  for (size_t u = 0; u < nodes.size(); ++u) {
    if (counts[u] != 0) continue;  // only maxima own branches
    const double pers = nodes[u].value - branch_death[u];
    keep_branch[u] =
        pers >= threshold || static_cast<int64_t>(u) == global_best;
  }

  std::vector<MergeTree::Node> out;
  std::vector<int64_t> remap(nodes.size(), -1);
  for (const size_t u : order) {  // descending order keeps parents later
    if (!keep_branch[static_cast<size_t>(branch_max[u])]) continue;
    remap[u] = static_cast<int64_t>(out.size());
    out.push_back(nodes[u]);
  }
  for (MergeTree::Node& n : out) {
    if (n.parent != MergeTree::kNoParent) {
      const int64_t mapped = remap[static_cast<size_t>(n.parent)];
      HIA_ASSERT(mapped != -1);  // parents of kept nodes are kept
      n.parent = mapped;
    }
  }
  return MergeTree(std::move(out)).reduced();
}

}  // namespace hia
