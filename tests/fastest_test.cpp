// Theorem 4: the fastest-of-k combinator matches the best algorithm for
// each instance family without being told which one that is.
#include <gtest/gtest.h>

#include "src/algo/greedy_mis.h"
#include "src/algo/luby.h"
#include "src/algo/mis_from_coloring.h"
#include "src/core/fastest.h"
#include "src/problems/mis.h"
#include "src/prune/ruling_set_prune.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

using testing_support::standard_instances;

struct Combinator {
  std::shared_ptr<const PruningAlgorithm> pruning =
      std::make_shared<RulingSetPruning>(1);
  std::unique_ptr<UniformExecutable> greedy =
      make_local_executable(std::make_shared<GreedyMis>());
  std::unique_ptr<UniformExecutable> colored = make_transformed_executable(
      std::shared_ptr<const NonUniformAlgorithm>(make_coloring_mis()),
      pruning);
  std::vector<const UniformExecutable*> all() const {
    return {greedy.get(), colored.get()};
  }
};

TEST(Theorem4, CorrectOnSweep) {
  Combinator combinator;
  const RulingSetPruning pruning(1);
  for (const auto& [name, instance] : standard_instances(320)) {
    const UniformRunResult result =
        run_fastest(instance, combinator.all(), pruning);
    EXPECT_TRUE(result.solved) << name;
    EXPECT_TRUE(is_maximal_independent_set(instance.graph, result.outputs))
        << name;
  }
}

TEST(Theorem4, BeatsSlowGreedyOnAdversarialPath) {
  // Sorted identities make greedy Theta(n); the coloring pipeline is
  // log*-ish there, so the combinator must stay well below n.
  Combinator combinator;
  const RulingSetPruning pruning(1);
  Instance instance =
      make_instance(path_graph(400), IdentityScheme::kSequential);
  // Greedy alone:
  const auto greedy_outcome = combinator.greedy->run(instance, 1 << 20, 1, {});
  EXPECT_GE(greedy_outcome.rounds, 400);
  const UniformRunResult combined =
      run_fastest(instance, combinator.all(), pruning);
  ASSERT_TRUE(combined.solved);
  EXPECT_LE(combined.total_rounds, greedy_outcome.rounds);
}

TEST(Theorem4, NearMinOfBothOnBothExtremes) {
  Combinator combinator;
  const RulingSetPruning pruning(1);
  // Clique: greedy finishes in O(1) phases, coloring pipeline needs
  // Theta(Delta^2) — the combinator should land near greedy.
  Instance clique =
      make_instance(complete_graph(40), IdentityScheme::kRandomPermuted, 2);
  const auto greedy_clique = combinator.greedy->run(clique, 1 << 20, 1, {});
  const auto colored_clique = combinator.colored->run(clique, 1 << 20, 1, {});
  const UniformRunResult combined = run_fastest(clique, combinator.all(), pruning);
  ASSERT_TRUE(combined.solved);
  const std::int64_t best =
      std::min(greedy_clique.rounds, colored_clique.rounds);
  // Doubling + two algorithms per iteration: <= ~8x the winner.
  EXPECT_LE(combined.total_rounds, 8 * best + 64);
}

TEST(Theorem4, SingleAlgorithmDegeneratesToDoublingRestart) {
  Combinator combinator;
  const RulingSetPruning pruning(1);
  Rng rng(3);
  Instance instance = make_instance(gnp(80, 0.07, rng),
                                    IdentityScheme::kRandomPermuted, 4);
  const UniformRunResult result =
      run_fastest(instance, {combinator.greedy.get()}, pruning);
  EXPECT_TRUE(result.solved);
  EXPECT_TRUE(is_maximal_independent_set(instance.graph, result.outputs));
}

TEST(Theorem4, TransformedExecutableRunsInLentArena) {
  // Grow a workspace with a large standalone run, then lend it to a
  // transformer-backed executable on a tiny instance. The nested
  // Theorem-1 driver must join the lent arena (arena_bytes then reports
  // the shared grown capacity) instead of allocating a fresh small one —
  // the shared-arena property run_fastest relies on.
  EngineWorkspace workspace;
  Rng rng(5);
  Instance big = make_instance(gnp(3000, 0.003, rng),
                               IdentityScheme::kRandomPermuted, 3);
  RunOptions grow_options;
  grow_options.workspace = &workspace;
  const GreedyMis greedy;
  const RunResult grown = run_local(big, greedy, grow_options);
  ASSERT_GT(grown.stats.arena_bytes, 0);

  Combinator combinator;
  Instance small = make_instance(path_graph(24), IdentityScheme::kSequential);
  ExecPolicy lent_policy;
  lent_policy.workspace = &workspace;
  const auto lent = combinator.colored->run(small, 1 << 12, 1, lent_policy);
  EXPECT_GE(lent.stats.arena_bytes, grown.stats.arena_bytes);

  // Without a lent workspace the nested driver's own arena is sized to the
  // small instance — the discriminating baseline.
  const auto fresh = combinator.colored->run(small, 1 << 12, 1, {});
  EXPECT_LT(fresh.stats.arena_bytes, grown.stats.arena_bytes);
}

TEST(Theorem1, TransformerRunsInLentWorkspace) {
  EngineWorkspace workspace;
  Rng rng(6);
  Instance big = make_instance(gnp(3000, 0.003, rng),
                               IdentityScheme::kRandomPermuted, 4);
  const GreedyMis greedy;
  RunOptions grow_options;
  grow_options.workspace = &workspace;
  const RunResult grown = run_local(big, greedy, grow_options);
  ASSERT_GT(grown.stats.arena_bytes, 0);

  Instance small = make_instance(path_graph(24), IdentityScheme::kSequential);
  const auto algorithm = make_coloring_mis();
  const RulingSetPruning pruning(1);
  UniformRunOptions options;
  options.workspace = &workspace;
  const auto result =
      run_uniform_transformer(small, *algorithm, pruning, options);
  ASSERT_TRUE(result.solved);
  EXPECT_TRUE(is_maximal_independent_set(small.graph, result.outputs));
  EXPECT_GE(result.engine_stats.arena_bytes, grown.stats.arena_bytes);
}

namespace {

/// Records every budget run_fastest hands out; never solves anything.
class BudgetRecorder final : public UniformExecutable {
 public:
  explicit BudgetRecorder(std::vector<std::int64_t>* budgets)
      : budgets_(budgets) {}
  std::string name() const override { return "budget-recorder"; }
  AlternatingDriver::CustomOutcome run(
      const Instance& instance, std::int64_t budget, std::uint64_t /*seed*/,
      const ExecPolicy& /*policy*/) const override {
    budgets_->push_back(budget);
    return {std::vector<std::int64_t>(
                static_cast<std::size_t>(instance.num_nodes()), 0),
            1,
            {}};
  }

 private:
  std::vector<std::int64_t>* budgets_;
};

}  // namespace

TEST(Theorem4, BudgetSaturatesPastSixtyTwoIterations) {
  // budget = 1 << i was UB once max_iterations exceeded 62; it must now
  // saturate at the engine's default round cap while staying positive and
  // non-decreasing.
  std::vector<std::int64_t> budgets;
  BudgetRecorder recorder(&budgets);
  const RulingSetPruning pruning(1);
  Instance instance = make_instance(path_graph(2), IdentityScheme::kSequential);
  UniformRunOptions options;
  options.max_iterations = 80;
  const UniformRunResult result =
      run_fastest(instance, {&recorder}, pruning, options);
  EXPECT_FALSE(result.solved);
  ASSERT_EQ(budgets.size(), 80u);
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    EXPECT_GT(budgets[i], 0) << i;
    if (i > 0) EXPECT_GE(budgets[i], budgets[i - 1]) << i;
  }
  EXPECT_EQ(budgets.back(), RunOptions{}.max_rounds);
}

TEST(Theorem4, TraceRecordsAlternation) {
  Combinator combinator;
  const RulingSetPruning pruning(1);
  Instance instance =
      make_instance(path_graph(100), IdentityScheme::kSequential);
  const UniformRunResult result =
      run_fastest(instance, combinator.all(), pruning);
  ASSERT_TRUE(result.solved);
  bool saw_greedy = false;
  bool saw_colored = false;
  for (const auto& step : result.trace) {
    if (step.algorithm.find("greedy") != std::string::npos) saw_greedy = true;
    if (step.algorithm.find("uniform(") != std::string::npos)
      saw_colored = true;
  }
  EXPECT_TRUE(saw_greedy);
  EXPECT_TRUE(saw_colored);
}

}  // namespace
}  // namespace unilocal
