// Immutable compressed-sparse-row (CSR) view of a Graph.
//
// The simulator's hot loops walk adjacency constantly; the Graph's
// vector-of-vectors layout costs one pointer chase per node. CsrGraph packs
// the same topology into three flat arrays — offsets, neighbors, and the
// precomputed transpose of the directed edges — so a round engine can index
// any directed edge (v, port) as a dense integer and find the edge a port
// receives on with one sequential load. Built once per topology (Instance
// caches it) and shared by every run over that graph.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/graph.h"

namespace unilocal {

class CsrGraph {
 public:
  CsrGraph() = default;
  explicit CsrGraph(const Graph& g);

  NodeId num_nodes() const noexcept { return n_; }
  /// Number of directed edges (2m); also the size of the dense edge-index
  /// space [0, num_directed_edges()).
  std::int64_t num_directed_edges() const noexcept {
    return static_cast<std::int64_t>(neighbors_.size());
  }

  std::int64_t offset(NodeId v) const {
    return offsets_[static_cast<std::size_t>(v)];
  }
  /// Raw offsets array (n + 1 entries) — the batched kernel path hands this
  /// to KernelBatchCtx so batch fns index degrees and per-port lanes without
  /// a per-node accessor call.
  const std::int64_t* offsets_data() const noexcept { return offsets_.data(); }
  NodeId degree(NodeId v) const {
    return static_cast<NodeId>(offsets_[static_cast<std::size_t>(v) + 1] -
                               offsets_[static_cast<std::size_t>(v)]);
  }
  std::span<const NodeId> neighbors(NodeId v) const {
    return {neighbors_.data() + offset(v),
            static_cast<std::size_t>(degree(v))};
  }
  NodeId neighbor(NodeId v, NodeId port) const {
    return neighbors_[static_cast<std::size_t>(offset(v) + port)];
  }

  /// The port of v in the adjacency list of its j-th neighbour — i.e. the
  /// direction a reply must take. reverse_port(v, j) == p means
  /// neighbor(neighbor(v, j), p) == v.
  NodeId reverse_port(NodeId v, NodeId j) const {
    return static_cast<NodeId>(in_edge_index(v, j) - offset(neighbor(v, j)));
  }

  /// Dense index of the directed edge (v, port j); message arenas use it as
  /// a slot number.
  std::int64_t edge_index(NodeId v, NodeId j) const { return offset(v) + j; }

  /// Dense index of the directed edge carrying what v RECEIVES on port j:
  /// the slot its j-th neighbour sends through towards v. The map is a
  /// permutation of the directed edges and its own inverse.
  std::int64_t in_edge_index(NodeId v, NodeId j) const {
    return in_edges_[static_cast<std::size_t>(offset(v) + j)];
  }

 private:
  NodeId n_ = 0;
  std::vector<std::int64_t> offsets_;    // n + 1
  std::vector<NodeId> neighbors_;        // 2m, each list sorted ascending
  std::vector<std::int64_t> in_edges_;   // 2m, parallel to neighbors_
};

}  // namespace unilocal
