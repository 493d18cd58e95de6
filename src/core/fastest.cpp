#include "src/core/fastest.h"

#include <algorithm>
#include <cassert>

#include "src/util/math.h"

namespace unilocal {

namespace {

class LocalExecutable final : public UniformExecutable {
 public:
  explicit LocalExecutable(std::shared_ptr<const Algorithm> algorithm)
      : algorithm_(std::move(algorithm)) {}
  std::string name() const override { return algorithm_->name(); }
  AlternatingDriver::CustomOutcome run(
      const Instance& instance, std::int64_t budget, std::uint64_t seed,
      const ExecPolicy& policy) const override {
    RunOptions options{policy};
    options.max_rounds = budget;
    options.seed = seed;
    RunResult result = run_local(instance, *algorithm_, options);
    return {std::move(result.outputs), result.rounds_used, result.stats};
  }

 private:
  std::shared_ptr<const Algorithm> algorithm_;
};

class TransformedExecutable final : public UniformExecutable {
 public:
  TransformedExecutable(std::shared_ptr<const NonUniformAlgorithm> algorithm,
                        std::shared_ptr<const PruningAlgorithm> pruning)
      : algorithm_(std::move(algorithm)), pruning_(std::move(pruning)) {}
  std::string name() const override {
    return "uniform(" + algorithm_->name() + ")";
  }
  AlternatingDriver::CustomOutcome run(
      const Instance& instance, std::int64_t budget, std::uint64_t seed,
      const ExecPolicy& policy) const override {
    // The nested transformer's driver joins the lent arena (when the caller
    // lends one), so every Theorem-1/2/3 sub-run shares the outer driver's
    // workspace instead of re-allocating its own.
    UniformRunOptions options{policy};
    options.seed = seed;
    options.round_cap = budget;
    UniformRunResult result =
        run_uniform_transformer(instance, *algorithm_, *pruning_, options);
    return {std::move(result.outputs), result.total_rounds,
            result.engine_stats};
  }

 private:
  std::shared_ptr<const NonUniformAlgorithm> algorithm_;
  std::shared_ptr<const PruningAlgorithm> pruning_;
};

}  // namespace

std::unique_ptr<UniformExecutable> make_local_executable(
    std::shared_ptr<const Algorithm> algorithm) {
  return std::make_unique<LocalExecutable>(std::move(algorithm));
}

std::unique_ptr<UniformExecutable> make_transformed_executable(
    std::shared_ptr<const NonUniformAlgorithm> algorithm,
    std::shared_ptr<const PruningAlgorithm> pruning) {
  return std::make_unique<TransformedExecutable>(std::move(algorithm),
                                                 std::move(pruning));
}

UniformRunResult run_fastest(
    const Instance& instance,
    const std::vector<const UniformExecutable*>& algorithms,
    const PruningAlgorithm& pruning, const UniformRunOptions& options) {
  AlternatingDriver driver(instance, pruning, options);
  UniformRunResult result;
  std::uint64_t seed = options.seed;
  for (int i = 1; i <= options.max_iterations && !driver.done(); ++i) {
    result.iterations_used = i;
    // Saturate the doubling budget: raising max_iterations past 62 must not
    // shift into UB territory, so cap at the engine's default round cap.
    const std::int64_t budget =
        std::min(sat_pow(2, i), RunOptions{}.max_rounds);
    int sub = 0;
    for (const UniformExecutable* algorithm : algorithms) {
      if (driver.done()) break;
      SubIterationTrace trace;
      trace.iteration = i;
      trace.sub_iteration = ++sub;
      trace.algorithm = algorithm->name();
      trace.budget = budget;
      const std::uint64_t step_seed = seed++;
      driver.run_custom_step(
          [&](const Instance& current) {
            return algorithm->run(current, budget, step_seed,
                                  driver.policy());
          },
          &trace);
      result.trace.push_back(std::move(trace));
    }
  }
  result.outputs = driver.outputs();
  result.total_rounds = driver.total_rounds();
  result.solved = driver.done();
  result.engine_stats = driver.stats();
  if (result.solved && options.check_problem != nullptr) {
    assert(options.check_problem->check(instance, result.outputs));
  }
  return result;
}

}  // namespace unilocal
