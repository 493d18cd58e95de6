// E6 — Table 1 row 8: deterministic maximal matching (Hanckowiak et al.,
// O(log^4 n), parameter n or Delta) and Corollary 1(vi). Substitute
// (README, Substitutions): colored-proposal matching with
// f = O(Delta^2 + log* m), transformed by Theorem 1 with the paper's P_MM
// pruning algorithm.
#include "bench/bench_support.h"
#include "src/algo/edge_color_mm.h"
#include "src/core/transformer.h"
#include "src/graph/generators.h"
#include "src/graph/params.h"
#include "src/problems/matching.h"
#include "src/prune/matching_prune.h"

namespace unilocal {
namespace {

void run() {
  bench::header("E6: uniform deterministic maximal matching",
                "Table 1 row 8 (Hanckowiak et al.) + Corollary 1(vi)");
  const auto algorithm = make_colored_matching();
  const MatchingPruning pruning;
  const MatchingProblem problem;
  TextTable table({"family", "n", "Delta", "nonuniform", "uniform", "ratio",
                   "valid"});
  for (NodeId n : {256, 1024, 4096}) {
    Rng rng(n);
    const std::vector<std::pair<std::string, Graph>> families = {
        {"bounded-deg-6", random_bounded_degree(n, 6, 0.9, rng)},
        {"bipartite-ish", gnp(n, 5.0 / n, rng)},
    };
    for (const auto& [family, graph] : families) {
      Instance instance =
          make_instance(graph, IdentityScheme::kRandomSparse, n + 3);
      const std::int64_t base = bench::baseline_rounds(instance, *algorithm);
      const UniformRunResult uniform =
          run_uniform_transformer(instance, *algorithm, pruning);
      table.add_row(
          {family, TextTable::fmt(std::int64_t{n}),
           TextTable::fmt(std::int64_t{max_degree(instance.graph)}),
           TextTable::fmt(base), TextTable::fmt(uniform.total_rounds),
           bench::ratio(uniform.total_rounds, base),
           uniform.solved && problem.check(instance, uniform.outputs)
               ? "yes"
               : "NO"});
    }
  }
  table.print();
  std::printf(
      "\nexpected shape: ratio constant across the n sweep; rounds driven\n"
      "by Delta, not n, in both columns (substitute bound)\n");
}

}  // namespace
}  // namespace unilocal

int main() {
  unilocal::run();
  return 0;
}
