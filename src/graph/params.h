// Centralized (oracle) computation of the non-decreasing graph parameters
// the paper's framework reasons about: n, the maximum degree Delta, and an
// arboricity proxy. These are used ONLY by the test/benchmark harness and by
// *non-uniform* algorithm instantiation — never by the uniform algorithms
// produced by the transformers (a property the tests enforce).
#pragma once

#include <vector>

#include "src/graph/graph.h"

namespace unilocal {

/// Maximum degree Delta(G); 0 for the empty graph.
NodeId max_degree(const Graph& g);

/// Degeneracy: the smallest d such that every subgraph has a node of degree
/// <= d, computed by the standard peeling order. For arboricity a(G):
/// a <= degeneracy <= 2a - 1, so degeneracy is the library's standing,
/// non-decreasing arboricity proxy (README, Substitutions).
NodeId degeneracy(const Graph& g);

/// Lower bound on arboricity from Nash-Williams density of the whole graph:
/// ceil(|E| / (|V| - 1)). Useful for generator sanity tests.
NodeId nash_williams_lower_bound(const Graph& g);

/// Connected component ids (0-based, in discovery order) per node.
std::vector<NodeId> connected_components(const Graph& g);

/// Number of connected components.
NodeId num_components(const Graph& g);

/// Single-source BFS distances (-1 when unreachable).
std::vector<NodeId> bfs_distances(const Graph& g, NodeId source);

/// Exact diameter (max eccentricity over all nodes, per component the max
/// finite distance). Intended for small test graphs only: O(n * m).
NodeId diameter(const Graph& g);

/// True when the graph has no cycle.
bool is_forest(const Graph& g);

}  // namespace unilocal
