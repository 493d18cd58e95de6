// E2 — Table 1 row 2: "Det. MIS, parameter n, time 2^O(sqrt(log n))"
// (Panconesi-Srinivasan). Substitute (README, Substitutions):
// greedy-by-identity MIS wrapped as A_{n} with declared bound f(n~) = 2n~+4.
// The transformer's behaviour — double the guess until it covers the true
// n — is identical to what it would be with the PS black box; only f's
// shape differs.
#include "bench/bench_support.h"
#include "src/algo/greedy_mis.h"
#include "src/core/transformer.h"
#include "src/graph/generators.h"
#include "src/problems/mis.h"
#include "src/prune/ruling_set_prune.h"

namespace unilocal {
namespace {

void run() {
  bench::header("E2: deterministic MIS with a bound in n only",
                "Table 1 row 2 (Panconesi-Srinivasan substitute)");
  const auto algorithm = make_global_mis();
  const RulingSetPruning pruning(1);
  const MisProblem problem;
  TextTable table({"family", "n", "nonuniform", "uniform", "ratio", "valid"});
  for (NodeId n : {128, 512, 2048}) {
    // Adversarial path (worst case for greedy) and G(n,p).
    Instance path = make_instance(path_graph(n), IdentityScheme::kSequential);
    Rng rng(n);
    Instance random =
        make_instance(gnp(n, 8.0 / n, rng), IdentityScheme::kRandomSparse, n);
    for (auto* entry : {&path, &random}) {
      const std::string family = entry == &path ? "path-sorted" : "gnp";
      const std::int64_t base = bench::baseline_rounds(*entry, *algorithm);
      const UniformRunResult uniform =
          run_uniform_transformer(*entry, *algorithm, pruning);
      table.add_row(
          {family, TextTable::fmt(std::int64_t{n}), TextTable::fmt(base),
           TextTable::fmt(uniform.total_rounds),
           bench::ratio(uniform.total_rounds, base),
           uniform.solved && problem.check(*entry, uniform.outputs) ? "yes"
                                                                    : "NO"});
    }
  }
  table.print();
  std::printf(
      "\nexpected shape: uniform/nonuniform ratio constant; on the sorted\n"
      "path both are Theta(n) (the substitute's f), on gnp both are small\n");
}

}  // namespace
}  // namespace unilocal

int main() {
  unilocal::run();
  return 0;
}
