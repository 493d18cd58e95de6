// E1 — Table 1 row 1: "Det. MIS and (Delta+1)-coloring, parameters n, Delta,
// time O(Delta + log* n)" and its uniform counterpart from Corollary 1(i).
//
// Substrate (README, Substitutions): the O(Delta~^2 + log* m~) Linial
// pipeline stands in for the linear-in-Delta originals. The experiment
// sweeps n at fixed Delta (the log*-dominated regime) and Delta at fixed n
// (the Delta-dominated regime), comparing the non-uniform baseline (correct
// guesses) with the Theorem 1 uniform transform. The paper's claim: the
// ratio is a constant, independent of n and Delta.
#include "bench/bench_support.h"
#include "src/algo/mis_from_coloring.h"
#include "src/core/transformer.h"
#include "src/graph/generators.h"
#include "src/graph/params.h"
#include "src/problems/mis.h"
#include "src/prune/ruling_set_prune.h"

namespace unilocal {
namespace {

void run() {
  bench::header(
      "E1: deterministic MIS / (deg+1)-coloring, parameters {Delta, m}",
      "Table 1 row 1 (Barenboim-Elkin'09 / Kuhn'09) + Corollary 1(i)");
  const auto algorithm = make_coloring_mis();
  const RulingSetPruning pruning(1);
  const MisProblem problem;

  std::printf("\n-- sweep n at fixed Delta (log*-dominated regime) --\n");
  TextTable by_n({"family", "n", "Delta", "nonuniform", "uniform", "ratio",
                  "iters", "valid"});
  for (NodeId delta : {4, 8}) {
    for (NodeId n : {256, 1024, 4096}) {
      Rng rng(static_cast<std::uint64_t>(n) * 31 + delta);
      Instance instance =
          make_instance(random_bounded_degree(n, delta, 0.9, rng),
                        IdentityScheme::kRandomSparse, n + delta);
      const std::int64_t base = bench::baseline_rounds(instance, *algorithm);
      const UniformRunResult uniform =
          run_uniform_transformer(instance, *algorithm, pruning);
      by_n.add_row({"bounded-deg", TextTable::fmt(std::int64_t{n}),
                    TextTable::fmt(std::int64_t{max_degree(instance.graph)}),
                    TextTable::fmt(base), TextTable::fmt(uniform.total_rounds),
                    bench::ratio(uniform.total_rounds, base),
                    TextTable::fmt(std::int64_t{uniform.iterations_used}),
                    uniform.solved && problem.check(instance, uniform.outputs)
                        ? "yes"
                        : "NO"});
    }
  }
  by_n.print();

  std::printf("\n-- sweep Delta at fixed n = 1024 (Delta-dominated) --\n");
  TextTable by_delta({"Delta", "nonuniform", "uniform", "ratio", "valid"});
  for (NodeId delta : {2, 4, 8, 16}) {
    Rng rng(777 + delta);
    Instance instance =
        make_instance(random_bounded_degree(1024, delta, 0.9, rng),
                      IdentityScheme::kRandomSparse, delta);
    const std::int64_t base = bench::baseline_rounds(instance, *algorithm);
    const UniformRunResult uniform =
        run_uniform_transformer(instance, *algorithm, pruning);
    by_delta.add_row(
        {TextTable::fmt(std::int64_t{max_degree(instance.graph)}),
         TextTable::fmt(base), TextTable::fmt(uniform.total_rounds),
         bench::ratio(uniform.total_rounds, base),
         uniform.solved && problem.check(instance, uniform.outputs) ? "yes"
                                                                    : "NO"});
  }
  by_delta.print();
  std::printf(
      "\nexpected shape: ratio bounded by a constant across both sweeps\n");
}

}  // namespace
}  // namespace unilocal

int main() {
  unilocal::run();
  return 0;
}
