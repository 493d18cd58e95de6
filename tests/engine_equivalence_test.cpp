// Engine equivalence: the arena engine (src/runtime/runner.cpp) must produce
// RunResult fields bit-identical to the preserved seed engine
// (src/runtime/reference.cpp) on every instance family, for randomized and
// deterministic algorithms, across seeds, wake-round schedules, and thread
// counts — the determinism contract that lets the thread pool and the
// per-round arena replace the vector-per-message baseline.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>
#include <string>

#include "src/algo/greedy_mis.h"
#include "src/algo/luby.h"
#include "src/algo/ruling_set_mc.h"
#include "src/runtime/kernel.h"
#include "src/runtime/network.h"
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

  // Graph sizes that shrink and grow again: the synchronous arena's slot
  // tables only grow, and every run must see its active prefix clean.
  Rng graph_rng(37);
  for (const NodeId n : {300, 40, 150, 600, 12, 220}) {
    const Instance instance = make_instance(
        gnp(n, 6.0 / n, graph_rng), IdentityScheme::kRandomPermuted, 5);
    RunOptions options;
    options.seed = 43;
    RunOptions lent = options;
    lent.workspace = &workspace;
    const std::string label = "reuse-resize/n=" + std::to_string(n);
    const RunResult want = run_local_reference(instance, luby, options);
    expect_same(want, run_local(instance, luby, options), label + "/fresh");
    expect_same(want, run_local(instance, luby, lent), label + "/reused");
  }
}

// Longest payload the overwrite probe sends: past the synchronous arena's
// inline slot and its overflow path.
constexpr std::int64_t kProbeMaxWords = 2 * kInlineWords + 1;
constexpr std::uint64_t kProbeFoldSeed = 14695981039346656037ULL;

std::uint64_t probe_fold(std::uint64_t acc, std::int64_t word) {
  return (acc ^ static_cast<std::uint64_t>(word)) * 1099511628211ULL;
}

/// Folds one received port (presence, length, words) into acc.
std::uint64_t probe_fold_port(std::uint64_t acc, bool present,
                              std::span<const std::int64_t> words) {
  acc = probe_fold(acc, present ? static_cast<std::int64_t>(words.size()) : -1);
  for (const std::int64_t w : words) acc = probe_fold(acc, w);
  return acc;
}

/// The probe's writes to port j in round r, in order, through
/// send(data, words). Payload lengths vary with port and round over
/// 0..kProbeMaxWords-1. On every third port a kProbeMaxWords-word message
/// comes first and the shorter one overwrites it; on another third a
/// one-word message comes first. Some ports stay silent.
template <typename Send>
void probe_send_port(std::int64_t id, std::int64_t r, NodeId j, Send&& send) {
  const std::int64_t mix = j + 3 * r + id;
  if (mix % 5 == 4) return;  // silent port
  std::array<std::int64_t, kProbeMaxWords> words{};
  if (mix % 3 == 0) {
    for (std::size_t i = 0; i < words.size(); ++i)
      words[i] = -1 - static_cast<std::int64_t>(i);
    send(words.data(), words.size());
  } else if (mix % 3 == 1) {
    words[0] = -id;  // a one-word message the final one replaces
    send(words.data(), std::size_t{1});
  }
  const std::size_t len =
      static_cast<std::size_t>((j * 3 + r * 5 + id) % kProbeMaxWords);
  for (std::size_t i = 0; i < len; ++i)
    words[i] = id * 1000 + r * 10 + static_cast<std::int64_t>(i);
  send(words.data(), len);
}

bool probe_done(std::int64_t id, std::int64_t r) { return r >= 4 + id % 3; }

/// Exercises the last-write-wins contract of Context::send: an engine that
/// counts overwritten sends, or takes max_message_words over every write
/// instead of the final ones, disagrees with the reference. Everything
/// received is folded into the output.
class OverwriteProbe final : public Process {
 public:
  explicit OverwriteProbe(const NodeInit& init) : id_(init.identity) {}

  void step(Context& ctx) override {
    const std::int64_t r = ctx.round();
    for (NodeId j = 0; j < ctx.degree(); ++j) {
      bool present = false;
      const auto words = ctx.received_span(j, &present);
      acc_ = probe_fold_port(acc_, present, words);
    }
    for (NodeId j = 0; j < ctx.degree(); ++j)
      probe_send_port(id_, r, j,
                      [&](const std::int64_t* data, std::size_t words) {
                        ctx.send(j, Message(data, data + words));
                      });
    if (probe_done(id_, r)) ctx.finish(static_cast<std::int64_t>(acc_ >> 1));
  }

 private:
  std::int64_t id_;
  std::uint64_t acc_ = kProbeFoldSeed;
};

// --- the probe's kernel lowering (OverwriteProbe::step bit-for-bit) --------
// Its receives read overflow payloads (longer than kInlineWords) through the
// kernels' in-place inbox in the simultaneous mode.

struct OverwriteProbeState {
  std::int64_t id;
  std::uint64_t acc;
};

void overwrite_probe_init(std::byte* state, const NodeInit& init,
                          const void*) {
  auto& st = *reinterpret_cast<OverwriteProbeState*>(state);
  st.id = init.identity;
  st.acc = kProbeFoldSeed;
}

void overwrite_probe_step(KernelCtx& ctx) {
  auto& st = ctx.state_as<OverwriteProbeState>();
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    const auto words = ctx.recv(j, &present);
    st.acc = probe_fold_port(st.acc, present, words);
  }
  for (NodeId j = 0; j < ctx.degree; ++j)
    probe_send_port(st.id, ctx.round, j,
                    [&](const std::int64_t* data, std::size_t words) {
                      ctx.send(j, data, words);
                    });
  if (probe_done(st.id, ctx.round))
    ctx.finish(static_cast<std::int64_t>(st.acc >> 1));
}

class OverwriteProbeAlgorithm final : public Algorithm {
 public:
  OverwriteProbeAlgorithm() {
    auto kernel = std::make_shared<StepKernel>();
    kernel->name = "overwrite-probe";
    kernel->state_size = sizeof(OverwriteProbeState);
    kernel->state_align = alignof(OverwriteProbeState);
    kernel->init_fn = overwrite_probe_init;
    kernel->phases = {{"probe", overwrite_probe_step}};
    kernel_ = std::move(kernel);
  }
  std::unique_ptr<Process> spawn(const NodeInit& init) const override {
    return std::make_unique<OverwriteProbe>(init);
  }
  std::string name() const override { return "overwrite-probe"; }
  std::shared_ptr<const StepKernel> kernel() const override { return kernel_; }

 private:
  std::shared_ptr<const StepKernel> kernel_;
};

TEST(EngineEquivalence, LastWriteWinsOnEveryNetwork) {
  const OverwriteProbeAlgorithm probe;
  for (const KernelMode mode : {KernelMode::kOff, KernelMode::kOn}) {
    Rng wake_rng(61);
    for (const auto& named : standard_instances(/*seed=*/59)) {
      RunOptions options;
      options.seed = 3;
      options.kernel_mode = mode;
      const std::string tag =
          std::string("/kernel=") + kernel_mode_name(mode);
      check_all_thread_counts(named.instance, probe, options,
                              "overwrite/" + named.name + tag);

      RunOptions delayed = options;
      delayed.network.kind = NetworkKind::kDelayed;
      delayed.network.preset = DelayPreset::kUniform;
      const RunResult want =
          run_local_reference(named.instance, probe, options);
      const RunResult got = run_local(named.instance, probe, delayed);
      const std::string label = "overwrite-delayed/" + named.name + tag;
      EXPECT_EQ(want.outputs, got.outputs) << label;
      EXPECT_EQ(want.finish_rounds, got.finish_rounds) << label;
      EXPECT_EQ(want.messages_sent, got.messages_sent) << label;
      EXPECT_EQ(want.max_message_words, got.max_message_words) << label;

      options.wake_rounds.resize(
          static_cast<std::size_t>(named.instance.num_nodes()));
      for (auto& w : options.wake_rounds)
        w = static_cast<std::int64_t>(wake_rng.next_below(5));
      check_all_thread_counts(named.instance, probe, options,
                              "overwrite-wake/" + named.name + tag);
    }
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
