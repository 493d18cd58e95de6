// Theorem 4 — running as fast as the fastest of k uniform algorithms whose
// running times depend on unknown parameters. Iteration i executes each
// U_j restricted to 2^i rounds followed by the pruning algorithm; the first
// iteration whose budget covers some U_j's true running time terminates, so
// the ledger is O(min_j f_j(Lambda_j*)).
//
// Corollary 1(i) is the flagship use: MIS as
// min{ 2^O(sqrt(log n))-substitute, O(Delta+log* n)-substitute, arboricity }.
#pragma once

#include <memory>

#include "src/core/transformer.h"

namespace unilocal {

/// A uniform algorithm that can be run restricted to a round budget.
class UniformExecutable {
 public:
  virtual ~UniformExecutable() = default;
  virtual std::string name() const = 0;
  /// Returns tentative outputs (arbitrary 0 where unfinished) and the
  /// rounds consumed (<= budget for plain algorithms; transformer-backed
  /// executables may overshoot by their last sub-iteration, a constant
  /// factor absorbed by the doubling). Every engine run the executable
  /// issues follows `policy` (run_fastest passes its driver's, so the
  /// executable joins the driver's arena).
  virtual AlternatingDriver::CustomOutcome run(
      const Instance& instance, std::int64_t budget, std::uint64_t seed,
      const ExecPolicy& policy) const = 0;
};

/// Wraps a plain LOCAL algorithm (e.g. Luby, greedy MIS).
std::unique_ptr<UniformExecutable> make_local_executable(
    std::shared_ptr<const Algorithm> algorithm);

/// Wraps a (Theorem 1/2/3) transformer-produced uniform algorithm.
std::unique_ptr<UniformExecutable> make_transformed_executable(
    std::shared_ptr<const NonUniformAlgorithm> algorithm,
    std::shared_ptr<const PruningAlgorithm> pruning);

/// The Theorem 4 combinator.
UniformRunResult run_fastest(
    const Instance& instance,
    const std::vector<const UniformExecutable*>& algorithms,
    const PruningAlgorithm& pruning, const UniformRunOptions& options = {});

}  // namespace unilocal
