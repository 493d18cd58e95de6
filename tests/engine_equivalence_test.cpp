// Engine equivalence: the arena engine (src/runtime/runner.cpp) must produce
// RunResult fields bit-identical to the preserved seed engine
// (src/runtime/reference.cpp) on every instance family, for randomized and
// deterministic algorithms, across seeds, wake-round schedules, and thread
// counts — the determinism contract that lets the thread pool and the
// per-round arena replace the vector-per-message baseline.
#include <gtest/gtest.h>

#include "src/algo/greedy_mis.h"
#include "src/algo/luby.h"
#include "src/algo/ruling_set_mc.h"
#include "src/runtime/reference.h"
#include "src/runtime/runner.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

using testing_support::standard_instances;

void expect_same(const RunResult& want, const RunResult& got,
                 const std::string& label) {
  EXPECT_EQ(want.outputs, got.outputs) << label;
  EXPECT_EQ(want.finish_rounds, got.finish_rounds) << label;
  EXPECT_EQ(want.global_finish_rounds, got.global_finish_rounds) << label;
  EXPECT_EQ(want.all_finished, got.all_finished) << label;
  EXPECT_EQ(want.rounds_used, got.rounds_used) << label;
  EXPECT_EQ(want.global_rounds, got.global_rounds) << label;
  EXPECT_EQ(want.messages_sent, got.messages_sent) << label;
  EXPECT_EQ(want.max_message_words, got.max_message_words) << label;
}

void check_all_thread_counts(const Instance& instance,
                             const Algorithm& algorithm, RunOptions options,
                             const std::string& label) {
  const RunResult want = run_local_reference(instance, algorithm, options);
  for (const int threads : {1, 2, 8}) {
    options.num_threads = threads;
    const RunResult got = run_local(instance, algorithm, options);
    expect_same(want, got,
                label + " threads=" + std::to_string(threads));
  }
}

TEST(EngineEquivalence, SimultaneousAcrossInstancesAndSeeds) {
  const LubyMis luby;
  const GreedyMis greedy;
  for (const auto& named : standard_instances(/*seed=*/7)) {
    for (const std::uint64_t seed : {1u, 99u}) {
      RunOptions options;
      options.seed = seed;
      check_all_thread_counts(named.instance, luby, options,
                              "luby/" + named.name + "/s" +
                                  std::to_string(seed));
      check_all_thread_counts(named.instance, greedy, options,
                              "greedy/" + named.name + "/s" +
                                  std::to_string(seed));
    }
  }
}

TEST(EngineEquivalence, CutoffSchedules) {
  const LubyMis luby;
  for (const auto& named : standard_instances(/*seed=*/11)) {
    for (const std::int64_t cap : {1, 3, 7}) {
      RunOptions options;
      options.seed = 5;
      options.max_rounds = cap;
      check_all_thread_counts(named.instance, luby, options,
                              "cutoff/" + named.name + "/cap" +
                                  std::to_string(cap));
    }
  }
}

TEST(EngineEquivalence, StaggeredWakeRounds) {
  const LubyMis luby;
  const BetaLubyRulingSet ruling(2);
  Rng wake_rng(3);
  for (const auto& named : standard_instances(/*seed=*/13)) {
    const std::size_t n = static_cast<std::size_t>(named.instance.num_nodes());
    RunOptions options;
    options.seed = 17;
    options.wake_rounds.resize(n);
    for (auto& w : options.wake_rounds)
      w = static_cast<std::int64_t>(wake_rng.next_below(6));
    check_all_thread_counts(named.instance, luby, options,
                            "wake/luby/" + named.name);
    check_all_thread_counts(named.instance, ruling, options,
                            "wake/ruling/" + named.name);
  }
}

TEST(EngineEquivalence, SynchronizerRandomWakeGrids) {
  // Random wake-round grids across seeds: the frontier scheduler (lag
  // counters + wake admission) must reproduce the reference engine's
  // per-global-round eligible snapshots exactly — outputs, per-node local
  // and global finish rounds, and message counts all bit-identical.
  const LubyMis luby;
  const GreedyMis greedy;
  Rng wake_rng(101);
  for (const auto& named : standard_instances(/*seed=*/43)) {
    const std::size_t n = static_cast<std::size_t>(named.instance.num_nodes());
    for (const std::uint64_t seed : {3u, 77u}) {
      RunOptions options;
      options.seed = seed;
      options.wake_rounds.resize(n);
      for (auto& w : options.wake_rounds)
        w = static_cast<std::int64_t>(wake_rng.next_below(10));
      check_all_thread_counts(named.instance, luby, options,
                              "syncgrid/luby/" + named.name + "/s" +
                                  std::to_string(seed));
      check_all_thread_counts(named.instance, greedy, options,
                              "syncgrid/greedy/" + named.name + "/s" +
                                  std::to_string(seed));
    }
  }
}

TEST(EngineEquivalence, SynchronizerSparseLateWakersAndCutoffs) {
  // A few nodes wake far in the future while the rest sleep through long
  // empty stretches: exercises the frontier engine's clock jumps over
  // rounds the reference engine spins through one at a time, plus the
  // cutoff path under the synchronizer.
  const LubyMis luby;
  const BetaLubyRulingSet ruling(2);
  for (const auto& named : standard_instances(/*seed=*/47)) {
    const std::size_t n = static_cast<std::size_t>(named.instance.num_nodes());
    RunOptions options;
    options.seed = 23;
    options.wake_rounds.assign(n, 0);
    for (std::size_t v = 0; v < n; v += 7)
      options.wake_rounds[v] = 40 + static_cast<std::int64_t>(v);
    check_all_thread_counts(named.instance, luby, options,
                            "latewake/luby/" + named.name);
    options.max_rounds = 4;
    check_all_thread_counts(named.instance, ruling, options,
                            "latewake-cutoff/ruling/" + named.name);
  }
}

TEST(EngineEquivalence, ActiveSetLongTailThreadInvariance) {
  // A straggler-heavy instance where the live list collapses to a handful
  // of nodes for most rounds: the per-round rebalanced chunks must keep
  // results bit-identical to the reference for every thread count.
  Rng rng(53);
  const Instance instance = make_instance(caterpillar(300, 700, rng),
                                          IdentityScheme::kSequential, 3);
  const GreedyMis greedy;
  const LubyMis luby;
  RunOptions options;
  options.seed = 9;
  check_all_thread_counts(instance, greedy, options, "longtail/greedy");
  check_all_thread_counts(instance, luby, options, "longtail/luby");
  options.max_rounds = 100;
  check_all_thread_counts(instance, greedy, options, "longtail/greedy-cap");
}

TEST(EngineEquivalence, WorkspaceReuseDoesNotLeakState) {
  // One workspace across runs of different algorithms, graphs, and modes
  // must give exactly the per-run results of fresh workspaces.
  const LubyMis luby;
  const GreedyMis greedy;
  EngineWorkspace workspace;
  Rng wake_rng(23);
  for (const auto& named : standard_instances(/*seed=*/29)) {
    RunOptions options;
    options.seed = 41;
    RunOptions lent = options;
    lent.workspace = &workspace;
    const RunResult fresh = run_local(named.instance, luby, options);
    const RunResult reused = run_local(named.instance, luby, lent);
    expect_same(fresh, reused, "reuse/luby/" + named.name);

    options.wake_rounds.assign(
        static_cast<std::size_t>(named.instance.num_nodes()), 0);
    for (auto& w : options.wake_rounds)
      w = static_cast<std::int64_t>(wake_rng.next_below(4));
    lent.wake_rounds = options.wake_rounds;
    const RunResult fresh_sync = run_local(named.instance, greedy, options);
    const RunResult reused_sync = run_local(named.instance, greedy, lent);
    expect_same(fresh_sync, reused_sync, "reuse/greedy-sync/" + named.name);
  }
}

TEST(EngineEquivalence, StatsAreFilled) {
  Rng rng(31);
  const Instance instance = make_instance(gnp(200, 8.0 / 200, rng),
                                          IdentityScheme::kRandomSparse, 2);
  const RunResult result = run_local(instance, LubyMis{});
  EXPECT_GT(result.stats.total_steps, 0);
  EXPECT_GT(result.stats.arena_bytes, 0);
  EXPECT_GT(result.stats.peak_round_messages, 0);
  EXPECT_EQ(result.stats.threads, 1);
  EXPECT_GE(result.stats.elapsed_seconds, 0.0);
}

}  // namespace
}  // namespace unilocal
