#include "src/graph/csr.h"

namespace unilocal {

CsrGraph::CsrGraph(const Graph& g) : n_(g.num_nodes()) {
  offsets_.resize(static_cast<std::size_t>(n_) + 1, 0);
  for (NodeId v = 0; v < n_; ++v)
    offsets_[static_cast<std::size_t>(v) + 1] =
        offsets_[static_cast<std::size_t>(v)] + g.degree(v);
  const std::size_t total = static_cast<std::size_t>(offsets_.back());
  neighbors_.resize(total);
  in_edges_.resize(total);
  for (NodeId v = 0; v < n_; ++v) {
    const auto& nbrs = g.neighbors(v);
    std::int64_t base = offsets_[static_cast<std::size_t>(v)];
    for (std::size_t j = 0; j < nbrs.size(); ++j)
      neighbors_[static_cast<std::size_t>(base) + j] = nbrs[j];
  }
  // Adjacency lists are sorted, so sweeping u ascending means that when edge
  // (u -> v) is visited, exactly the neighbours of v smaller than u have
  // already been swept — a per-node cursor into v's run of edges yields the
  // edge (v -> u) without any binary search.
  std::vector<std::int64_t> next_in(offsets_.begin(), offsets_.end() - 1);
  for (NodeId u = 0; u < n_; ++u) {
    const std::int64_t base = offsets_[static_cast<std::size_t>(u)];
    const NodeId deg = degree(u);
    for (NodeId j = 0; j < deg; ++j) {
      const NodeId v = neighbors_[static_cast<std::size_t>(base + j)];
      in_edges_[static_cast<std::size_t>(base + j)] =
          next_in[static_cast<std::size_t>(v)]++;
    }
  }
}

}  // namespace unilocal
