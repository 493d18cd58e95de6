// The alternating-algorithm driver (paper Section 3.3, Figure 1).
//
// Owns the shrinking instance chain (G_1, x_1) -> (G_2, x_2) -> ... : each
// step runs one algorithm restricted to a round budget on the current
// instance, hands the tentative output to the pruning algorithm, glues the
// pruned nodes' outputs into the global output vector, and restricts the
// instance to the survivors. The round ledger adds each step's measured
// rounds plus the pruning constant — by Observation 2.1 sequential
// composition is bounded by the sum, so the ledger upper-bounds the LOCAL
// running time of the composed uniform algorithm.
#pragma once

#include <functional>
#include <string>

#include "src/prune/pruning.h"
#include "src/runtime/instance.h"
#include "src/runtime/runner.h"

namespace unilocal {

struct SubIterationTrace {
  int iteration = 0;
  int sub_iteration = 0;
  std::string algorithm;
  std::vector<std::int64_t> guesses;
  std::int64_t budget = 0;
  std::int64_t rounds_used = 0;
  NodeId nodes_before = 0;
  NodeId nodes_pruned = 0;
};

class AlternatingDriver {
 public:
  /// Every engine run the driver issues, including those of the
  /// executables run_custom_step drives, follows `policy`. When it lends no
  /// workspace the driver lends its own, so the whole composed algorithm
  /// shares one arena instead of re-allocating per step; a lent one is how
  /// a nested driver (Theorem 4 running a transformer-produced executable,
  /// or a campaign cell on a checked-out workspace) joins its caller's.
  AlternatingDriver(Instance initial, const PruningAlgorithm& pruning,
                    const ExecPolicy& policy = {});
  // policy_ may point at workspace_.
  AlternatingDriver(const AlternatingDriver&) = delete;
  AlternatingDriver& operator=(const AlternatingDriver&) = delete;

  /// The policy every step runs under; its workspace is never null.
  const ExecPolicy& policy() const noexcept { return policy_; }

  bool done() const noexcept { return current_.num_nodes() == 0; }
  NodeId remaining() const noexcept { return current_.num_nodes(); }
  const Instance& current() const noexcept { return current_; }
  std::int64_t total_rounds() const noexcept { return total_rounds_; }
  /// Aggregated engine stats over every step executed so far.
  const EngineStats& stats() const noexcept { return stats_; }
  /// Outputs per node of the ORIGINAL instance (pruned nodes keep the
  /// tentative value they were pruned with).
  const std::vector<std::int64_t>& outputs() const noexcept {
    return outputs_;
  }

  /// One B_i = (A_i ; P) step: run `algorithm` restricted to `budget`
  /// rounds, prune, glue, shrink. Returns the number of nodes pruned.
  NodeId run_step(const Algorithm& algorithm, std::int64_t budget,
                  std::uint64_t seed, SubIterationTrace* trace = nullptr);

  /// Generalized step for executables that are not plain Algorithms
  /// (Theorem 4 runs transformer-produced uniform algorithms): `execute`
  /// returns the tentative outputs and the rounds consumed on the instance
  /// it is given.
  struct CustomOutcome {
    std::vector<std::int64_t> outputs;
    std::int64_t rounds = 0;
    /// Engine stats of the executable's run (merged into stats()).
    EngineStats stats;
  };
  using CustomStep = std::function<CustomOutcome(const Instance&)>;
  NodeId run_custom_step(const CustomStep& execute,
                         SubIterationTrace* trace = nullptr);

 private:
  NodeId prune_and_glue(const std::vector<std::int64_t>& tentative,
                        std::int64_t rounds_used,
                        SubIterationTrace* trace);

  const PruningAlgorithm& pruning_;
  Instance current_;
  EngineWorkspace workspace_;
  ExecPolicy policy_;
  std::vector<NodeId> to_original_;
  std::vector<std::int64_t> outputs_;
  std::int64_t total_rounds_ = 0;
  EngineStats stats_;
};

}  // namespace unilocal
