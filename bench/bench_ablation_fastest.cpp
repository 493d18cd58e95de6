// A2 — Ablation: the Theorem 4 fastest-of-k combinator (Corollary 1(i)).
// Families engineered so that different component algorithms win: greedy
// (bound in n) wins on cliques, the coloring pipeline (bound in Delta, m)
// wins on adversarial paths, the arboricity pipeline wins on large-Delta
// trees. The combinator must track the winner within a constant factor
// without being told the family.
#include <cmath>

#include "bench/bench_support.h"
#include "src/algo/arb_mis.h"
#include "src/algo/greedy_mis.h"
#include "src/algo/mis_from_coloring.h"
#include "src/core/fastest.h"
#include "src/core/weak_domination.h"
#include "src/graph/generators.h"
#include "src/problems/mis.h"
#include "src/prune/ruling_set_prune.h"

namespace unilocal {
namespace {

void run() {
  bench::header("A2: ablation — Theorem 4 min-combinator",
                "Corollary 1(i): min{g(n), h(Delta,n), f(a,n)}");
  auto pruning = std::make_shared<RulingSetPruning>(1);
  const auto global = make_transformed_executable(
      std::shared_ptr<const NonUniformAlgorithm>(make_global_mis()), pruning);
  const auto degree = make_transformed_executable(
      std::shared_ptr<const NonUniformAlgorithm>(make_coloring_mis()),
      pruning);
  auto arb_inner = std::shared_ptr<const NonUniformAlgorithm>(make_arb_mis());
  const auto arb = make_transformed_executable(
      std::shared_ptr<const NonUniformAlgorithm>(apply_weak_domination(
          arb_inner,
          {Domination{Param::kArboricity, Param::kNumNodes,
                      [](std::int64_t a) { return std::ldexp(1.0, int(a)); },
                      "2^a<=n"},
           Domination{Param::kMaxIdentity, Param::kNumNodes,
                      [](std::int64_t m) { return double(m); }, "m<=n"}})),
      pruning);
  const std::vector<const UniformExecutable*> executables{
      global.get(), degree.get(), arb.get()};

  Rng rng(3);
  const std::vector<std::pair<std::string, Graph>> families = {
      {"clique-64", complete_graph(64)},
      {"path-sorted-1024", path_graph(1024)},
      {"star-512", complete_bipartite(1, 512)},
      {"tree-1024", random_tree(1024, rng)},
      {"gnp-1024", gnp(1024, 8.0 / 1024, rng)},
  };
  TextTable table({"family", "global", "degree", "arboricity", "combined",
                   "combined/min", "valid"});
  const std::int64_t huge = std::int64_t{1} << 30;
  for (const auto& [family, graph] : families) {
    const auto scheme = family == "path-sorted-1024"
                            ? IdentityScheme::kSequential
                            : IdentityScheme::kRandomPermuted;
    Instance instance = make_instance(graph, scheme, 13);
    const std::int64_t rg = global->run(instance, huge, 1, {}).rounds;
    const std::int64_t rd = degree->run(instance, huge, 1, {}).rounds;
    const std::int64_t ra = arb->run(instance, huge, 1, {}).rounds;
    const UniformRunResult combined =
        run_fastest(instance, executables, *pruning);
    const std::int64_t best = std::min({rg, rd, ra});
    table.add_row(
        {family, TextTable::fmt(rg), TextTable::fmt(rd), TextTable::fmt(ra),
         TextTable::fmt(combined.total_rounds),
         bench::ratio(combined.total_rounds, best),
         combined.solved && is_maximal_independent_set(instance.graph,
                                                       combined.outputs)
             ? "yes"
             : "NO"});
  }
  table.print();
  std::printf(
      "\nexpected shape: the winner differs per family; combined stays\n"
      "within a constant factor of the per-family minimum\n");
}

}  // namespace
}  // namespace unilocal

int main() {
  unilocal::run();
  return 0;
}
