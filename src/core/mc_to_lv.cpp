#include "src/core/mc_to_lv.h"

#include <cassert>

#include "src/util/math.h"

namespace unilocal {

UniformRunResult run_las_vegas_transformer(const Instance& instance,
                                           const NonUniformAlgorithm& algorithm,
                                           const PruningAlgorithm& pruning,
                                           const UniformRunOptions& options) {
  assert(algorithm.gamma() == algorithm.lambda());

  AlternatingDriver driver(instance, pruning, options);
  UniformRunResult result;
  std::uint64_t seed = options.seed;
  const std::int64_t c = algorithm.bound().bounding_constant();
  for (int i = 1; i <= options.max_iterations && !driver.done(); ++i) {
    result.iterations_used = i;
    // Iteration i replays pi's iterations j = 1..i with fresh randomness.
    for (int j = 1; j <= i && !driver.done(); ++j) {
      const std::int64_t scale = sat_pow(2, j);
      const auto guess_vectors = algorithm.bound().set_sequence(scale);
      int sub = 0;
      for (const auto& guesses : guess_vectors) {
        if (driver.done()) break;
        SubIterationTrace trace;
        trace.iteration = i;
        trace.sub_iteration = ++sub + (j - 1) * 1000;  // encode (j, k)
        trace.guesses = guesses;
        const auto runnable = algorithm.instantiate(guesses);
        driver.run_step(*runnable, sat_mul(c, scale), seed++, &trace);
        result.trace.push_back(std::move(trace));
      }
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
