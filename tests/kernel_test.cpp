// Step-kernel equivalence: for every lowered registry building block the
// flat-kernel engine path (RunOptions::kernel_mode = auto/on) must produce
// RunResult fields bit-identical to the Process vtable path (off) and to
// the preserved seed engine (src/runtime/reference.cpp) — on every
// instance family, thread count, and both engine modes (simultaneous and
// synchronizer). Plus the KernelRegistry surface: names, error paths, the
// auto fallback for algorithms with no lowering, and `on` refusing them.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/algo/arb_coloring.h"
#include "src/algo/cole_vishkin.h"
#include "src/algo/color_reduce.h"
#include "src/algo/dplus1.h"
#include "src/algo/edge_color_mm.h"
#include "src/algo/greedy_mis.h"
#include "src/algo/hpartition.h"
#include "src/algo/linial.h"
#include "src/algo/luby.h"
#include "src/algo/mis_from_coloring.h"
#include "src/algo/ruling_set_mc.h"
#include "src/core/coloring_transform.h"
#include "src/graph/params.h"
#include "src/runtime/campaign.h"
#include "src/runtime/chain.h"
#include "src/runtime/kernel.h"
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

/// Reference engine vs every (kernel mode x thread count) combination.
/// `options.wake_rounds` decides the engine mode: empty = simultaneous,
/// non-empty = synchronizer — callers exercise both.
void check_kernel_equivalence(const Instance& instance,
                              const Algorithm& algorithm, RunOptions options,
                              const std::string& label) {
  options.kernel_mode = KernelMode::kOff;
  const RunResult want = run_local_reference(instance, algorithm, options);
  for (const int threads : {1, 2, 8}) {
    options.num_threads = threads;
    for (const KernelMode mode :
         {KernelMode::kOff, KernelMode::kAuto, KernelMode::kOn}) {
      options.kernel_mode = mode;
      const RunResult got = run_local(instance, algorithm, options);
      const std::string tag = label + "/" + kernel_mode_name(mode) +
                              "/threads=" + std::to_string(threads);
      expect_same(want, got, tag);
      // The path split must report where the steps actually ran.
      if (mode == KernelMode::kOff) {
        EXPECT_EQ(got.stats.kernel_steps, 0) << tag;
        EXPECT_EQ(got.stats.vtable_steps, got.stats.total_steps) << tag;
      } else {
        EXPECT_EQ(got.stats.kernel_steps, got.stats.total_steps) << tag;
        EXPECT_EQ(got.stats.vtable_steps, 0) << tag;
      }
      // Batched-step accounting: only kernel steps batch, each batch call
      // covers at least one step, and the vtable path never batches.
      EXPECT_LE(got.stats.kernel_batched_steps, got.stats.kernel_steps)
          << tag;
      if (mode == KernelMode::kOff) {
        EXPECT_EQ(got.stats.kernel_batched_steps, 0) << tag;
        EXPECT_EQ(got.stats.kernel_batch_calls, 0) << tag;
      }
      EXPECT_EQ(got.stats.kernel_batch_calls > 0,
                got.stats.kernel_batched_steps > 0)
          << tag;
      if (got.stats.kernel_batch_calls > 0)
        EXPECT_GE(got.stats.kernel_batched_steps,
                  got.stats.kernel_batch_calls)
            << tag;
    }
  }
}

/// Both engine modes: the simultaneous loop and, via a staggered wake-round
/// grid, the synchronizer loop.
void check_both_engine_modes(const Instance& instance,
                             const Algorithm& algorithm, std::uint64_t seed,
                             const std::string& label) {
  RunOptions options;
  options.seed = seed;
  check_kernel_equivalence(instance, algorithm, options, label + "/simul");

  Rng wake_rng(seed + 1000);
  options.wake_rounds.resize(static_cast<std::size_t>(instance.num_nodes()));
  for (auto& w : options.wake_rounds)
    w = static_cast<std::int64_t>(wake_rng.next_below(5));
  check_kernel_equivalence(instance, algorithm, options, label + "/sync");
}

TEST(KernelEquivalence, LubyAndGreedyAcrossInstances) {
  const LubyMis luby;
  const GreedyMis greedy;
  for (const auto& named : standard_instances(/*seed=*/61)) {
    check_both_engine_modes(named.instance, luby, 7, "luby/" + named.name);
    check_both_engine_modes(named.instance, greedy, 7, "greedy/" + named.name);
  }
}

TEST(KernelEquivalence, TruncatedLubyKeepsKernelPath) {
  // The truncation wrapper lowers by wrapping the inner kernel; a budget
  // that bites mid-run must stay bit-identical on the kernel path too.
  const TruncatedAlgorithm truncated(std::make_shared<LubyMis>(), 3, 0);
  ASSERT_NE(truncated.kernel(), nullptr);
  for (const auto& named : standard_instances(/*seed=*/67))
    check_both_engine_modes(named.instance, truncated, 11,
                            "truncated-luby/" + named.name);
}

TEST(KernelEquivalence, LinialAcrossInstances) {
  for (const auto& named : standard_instances(/*seed=*/71)) {
    const std::int64_t delta =
        std::max<std::int64_t>(max_degree(named.instance.graph), 1);
    const std::int64_t m =
        std::max<std::int64_t>(named.instance.max_identity(), 2);
    const LinialColoring linial(delta, m);
    check_both_engine_modes(named.instance, linial, 13,
                            "linial/" + named.name);
  }
}

TEST(KernelEquivalence, ColorReduceAcrossInstances) {
  // Identity inputs act as the starting coloring; both the deg+1 target
  // (0) and a fixed palette exercise the per-port state cache. The
  // reduction runs one round per eliminated color, so skip the
  // sparse-identity instances whose color space is astronomically large
  // (as tests/algo_coloring_test.cpp does).
  for (const auto& named : standard_instances(/*seed=*/73)) {
    if (named.instance.num_nodes() == 0) continue;
    const std::int64_t m = named.instance.max_identity();
    if (m > 4096) continue;
    Instance seeded = named.instance;
    for (NodeId v = 0; v < seeded.num_nodes(); ++v)
      seeded.inputs[static_cast<std::size_t>(v)] = {
          seeded.identities[static_cast<std::size_t>(v)]};
    const ColorReduce to_deg_plus_one(m, 0);
    const ColorReduce to_fixed(m, 5);
    check_both_engine_modes(seeded, to_deg_plus_one, 17,
                            "color-reduce-d1/" + named.name);
    check_both_engine_modes(seeded, to_fixed, 17,
                            "color-reduce-5/" + named.name);
  }
}

TEST(KernelEquivalence, ColeVishkinOnRootedForests) {
  Rng rng(79);
  std::vector<testing_support::NamedInstance> forests;
  forests.push_back(
      {"tree", make_rooted_forest_instance(random_tree(120, rng), 81)});
  forests.push_back(
      {"forest", make_rooted_forest_instance(random_forest(90, 6, rng), 82)});
  forests.push_back({"path", make_rooted_forest_instance(path_graph(33), 83)});
  forests.push_back({"singleton", make_rooted_forest_instance(Graph(1), 84)});
  for (const auto& named : forests) {
    const ColeVishkin cv(named.instance.max_identity());
    check_both_engine_modes(named.instance, cv, 19, "cv/" + named.name);
  }
}

TEST(KernelEquivalence, BetaLubyRulingSetAcrossInstances) {
  for (const int beta : {1, 2, 3}) {
    const BetaLubyRulingSet ruling(beta);
    ASSERT_NE(ruling.kernel(), nullptr);
    for (const auto& named : standard_instances(/*seed=*/91))
      check_both_engine_modes(named.instance, ruling, 23,
                              "beta-luby-" + std::to_string(beta) + "/" +
                                  named.name);
  }
}

TEST(KernelEquivalence, HPartitionAcrossInstances) {
  for (const auto& named : standard_instances(/*seed=*/97)) {
    const HPartition peel(2, std::max<NodeId>(named.instance.num_nodes(), 2));
    ASSERT_NE(peel.kernel(), nullptr);
    check_both_engine_modes(named.instance, peel, 29,
                            "hpartition/" + named.name);
  }
}

TEST(KernelEquivalence, OutLinialAcrossInstances) {
  // Standalone (all layers 0): every neighbour comparison falls back to
  // the identity tiebreak, which still exercises the orientation port
  // state and the out-restricted reduction.
  for (const auto& named : standard_instances(/*seed=*/101)) {
    const std::int64_t m =
        std::max<std::int64_t>(named.instance.max_identity(), 2);
    const OutLinialColoring coloring(3, m);
    ASSERT_NE(coloring.kernel(), nullptr);
    check_both_engine_modes(named.instance, coloring, 31,
                            "out-linial/" + named.name);
  }
}

TEST(KernelEquivalence, MisColorSweepAcrossInstances) {
  // Inputs seed the sweep color; identity-derived values exercise early
  // finishes, neighbour suppression, and the past-palette cutoff alike
  // (bit-identity does not need the input coloring to be proper).
  for (const auto& named : standard_instances(/*seed=*/103)) {
    const std::int64_t k = 6;
    Instance seeded = named.instance;
    for (NodeId v = 0; v < seeded.num_nodes(); ++v)
      seeded.inputs[static_cast<std::size_t>(v)] = {
          seeded.identities[static_cast<std::size_t>(v)] % k + 1};
    const MisColorSweep sweep(k);
    ASSERT_NE(sweep.kernel(), nullptr);
    check_both_engine_modes(seeded, sweep, 37, "mis-sweep/" + named.name);
  }
}

TEST(KernelEquivalence, ProposalMatchingAcrossInstances) {
  for (const auto& named : standard_instances(/*seed=*/107)) {
    const std::int64_t delta =
        std::max<std::int64_t>(max_degree(named.instance.graph), 1);
    Instance seeded = named.instance;
    for (NodeId v = 0; v < seeded.num_nodes(); ++v)
      seeded.inputs[static_cast<std::size_t>(v)] = {
          seeded.identities[static_cast<std::size_t>(v)] % (delta + 1) + 1};
    const ProposalMatching matching(delta);
    ASSERT_NE(matching.kernel(), nullptr);
    check_both_engine_modes(seeded, matching, 41,
                            "proposal-matching/" + named.name);
  }
}

TEST(KernelEquivalence, ChainPipelinesAcrossInstances) {
  // The composite chain kernel against full registry pipelines: coloring
  // MIS (Linial -> reduce -> sweep), matching (Linial -> reduce ->
  // proposals), and the arboricity coloring (H-partition -> out-Linial).
  for (const auto& named : standard_instances(/*seed=*/109)) {
    if (named.instance.num_nodes() == 0) continue;
    const std::int64_t delta =
        std::max<std::int64_t>(max_degree(named.instance.graph), 1);
    const std::int64_t m =
        std::max<std::int64_t>(named.instance.max_identity(), 2);
    const auto mis = make_coloring_mis_algorithm(delta, m);
    const auto matching = make_matching_algorithm(delta, m);
    const auto arb = make_arb_coloring_algorithm(
        2, std::max<NodeId>(named.instance.num_nodes(), 2), m);
    ASSERT_NE(mis->kernel(), nullptr) << named.name;
    ASSERT_NE(matching->kernel(), nullptr) << named.name;
    ASSERT_NE(arb->kernel(), nullptr) << named.name;
    check_both_engine_modes(named.instance, *mis, 43,
                            "chain-mis/" + named.name);
    check_both_engine_modes(named.instance, *matching, 43,
                            "chain-matching/" + named.name);
    check_both_engine_modes(named.instance, *arb, 43,
                            "chain-arb/" + named.name);
  }
}

TEST(KernelEquivalence, DelayedNetworkBitIdentity) {
  // The event-queue delivery layer runs kernels on the scalar path; the
  // kernel/vtable split must still be output-invariant under every preset.
  Rng rng(113);
  const Instance instance = make_instance(gnp(90, 0.06, rng),
                                          IdentityScheme::kRandomPermuted, 5);
  const LubyMis luby;
  const auto mis = make_coloring_mis_algorithm(
      std::max<std::int64_t>(max_degree(instance.graph), 1),
      std::max<std::int64_t>(instance.max_identity(), 2));
  for (const DelayPreset preset :
       {DelayPreset::kUniform, DelayPreset::kWeighted,
        DelayPreset::kHeavyTail}) {
    RunOptions options;
    options.seed = 47;
    options.network.kind = NetworkKind::kDelayed;
    options.network.preset = preset;
    for (const Algorithm* algorithm :
         std::initializer_list<const Algorithm*>{&luby, mis.get()}) {
      options.kernel_mode = KernelMode::kOff;
      const RunResult off = run_local(instance, *algorithm, options);
      options.kernel_mode = KernelMode::kOn;
      const RunResult on = run_local(instance, *algorithm, options);
      const std::string tag = std::string("delayed/") + algorithm->name();
      expect_same(off, on, tag);
      EXPECT_EQ(on.stats.kernel_steps, on.stats.total_steps) << tag;
      EXPECT_EQ(on.stats.vtable_steps, 0) << tag;
    }
  }
}

// --- mail stamps: KernelCtx::has_mail against the ports themselves ---------

/// What the mail probe saw at one node over its steps.
struct MailTally {
  std::int64_t steps = 0;
  std::int64_t mismatches = 0;    // has_mail != "some port is present"
  std::int64_t without_mail = 0;  // has_mail false
  std::int64_t with_message = 0;  // some port present
};

struct MailProbeConfig {
  // One tally per node; a step writes only its own node's entry.
  std::vector<MailTally>* tallies = nullptr;
};

struct MailProbeState {
  std::int64_t id;
};

void mail_probe_init(std::byte* state, const NodeInit& init, const void*) {
  reinterpret_cast<MailProbeState*>(state)->id = init.identity;
}

// Reads every port, tallies, then sends on about a fifth of its ports: most
// steps find no mail, and a node often gets mail in consecutive rounds, so
// a neighbour stepped earlier in a round has just sent to it again.
void mail_probe_step(KernelCtx& ctx) {
  const auto* cfg = static_cast<const MailProbeConfig*>(ctx.config);
  const auto& st = ctx.state_as<MailProbeState>();
  bool any = false;
  for (NodeId j = 0; j < ctx.degree; ++j) {
    bool present = false;
    ctx.recv(j, &present);
    any = any || present;
  }
  MailTally& tally = (*cfg->tallies)[static_cast<std::size_t>(ctx.node)];
  ++tally.steps;
  if (ctx.has_mail != any) ++tally.mismatches;
  if (!ctx.has_mail) ++tally.without_mail;
  if (any) ++tally.with_message;
  for (NodeId j = 0; j < ctx.degree; ++j)
    if ((st.id + 2 * j + ctx.round) % 5 == 0) ctx.send(j, {ctx.round});
  if (ctx.round >= 8 + st.id % 4) ctx.finish(0);
}

void mail_probe_batch(const KernelBatchCtx& b) {
  for (std::size_t i = 0; i < b.count; ++i) {
    KernelCtx ctx = b.node_ctx(i);
    mail_probe_step(ctx);
    b.latch(i, ctx);
  }
}

/// Kernel-only probe. Even rounds run batched (KernelBatchCtx::node_ctx
/// builds the view), odd rounds scalar (the engine builds it).
class MailProbe final : public Algorithm {
 public:
  explicit MailProbe(std::vector<MailTally>* tallies) {
    auto kernel = std::make_shared<StepKernel>();
    kernel->name = "mail-probe";
    kernel->state_size = sizeof(MailProbeState);
    kernel->state_align = alignof(MailProbeState);
    kernel->init_fn = mail_probe_init;
    kernel->phases = {{"even", mail_probe_step, mail_probe_batch},
                      {"odd", mail_probe_step}};
    kernel->config = std::make_shared<const MailProbeConfig>(
        MailProbeConfig{tallies});
    kernel_ = std::move(kernel);
  }
  std::unique_ptr<Process> spawn(const NodeInit&) const override {
    throw std::logic_error("mail-probe runs only as a kernel");
  }
  std::string name() const override { return "mail-probe"; }
  std::shared_ptr<const StepKernel> kernel() const override { return kernel_; }

 private:
  std::shared_ptr<const StepKernel> kernel_;
};

/// Runs the probe under `options` (kernel mode on) and returns the summed
/// tally, checking that every step was tallied once.
MailTally run_mail_probe(const Instance& instance, RunOptions options,
                         const std::string& label,
                         std::vector<MailTally>* per_node) {
  per_node->assign(static_cast<std::size_t>(instance.num_nodes()),
                   MailTally{});
  const MailProbe probe(per_node);
  options.kernel_mode = KernelMode::kOn;
  const RunResult result = run_local(instance, probe, options);
  MailTally sum;
  for (const MailTally& t : *per_node) {
    sum.steps += t.steps;
    sum.mismatches += t.mismatches;
    sum.without_mail += t.without_mail;
    sum.with_message += t.with_message;
  }
  EXPECT_EQ(sum.steps, result.stats.total_steps) << label;
  return sum;
}

TEST(KernelMailStamps, HasMailIsExactInTheSimultaneousMode) {
  MailTally total;
  std::vector<MailTally> per_node;
  for (const auto& named : standard_instances(/*seed=*/73)) {
    for (const int threads : {1, 2, 8}) {
      RunOptions options;
      options.seed = 5;
      options.num_threads = threads;
      const std::string label =
          "mail/" + named.name + "/threads=" + std::to_string(threads);
      const MailTally sum =
          run_mail_probe(named.instance, options, label, &per_node);
      for (std::size_t v = 0; v < per_node.size(); ++v)
        EXPECT_EQ(per_node[v].mismatches, 0) << label << " node " << v;
      total.without_mail += sum.without_mail;
      total.with_message += sum.with_message;
    }
  }
  // Both answers occur, so the equality above is not vacuous.
  EXPECT_GT(total.without_mail, 0);
  EXPECT_GT(total.with_message, 0);
}

TEST(KernelMailStamps, HasMailIsAlwaysTrueOutsideTheSimultaneousMode) {
  std::vector<MailTally> per_node;
  for (const auto& named : standard_instances(/*seed=*/79)) {
    if (named.instance.num_nodes() == 0) continue;
    RunOptions sync;
    sync.seed = 7;
    Rng wake_rng(83);
    sync.wake_rounds.resize(
        static_cast<std::size_t>(named.instance.num_nodes()));
    for (auto& w : sync.wake_rounds)
      w = static_cast<std::int64_t>(wake_rng.next_below(5));
    const MailTally synchronized = run_mail_probe(
        named.instance, sync, "mail-sync/" + named.name, &per_node);
    EXPECT_GT(synchronized.steps, 0) << named.name;
    EXPECT_EQ(synchronized.without_mail, 0) << "mail-sync/" << named.name;

    RunOptions delayed;
    delayed.seed = 7;
    delayed.network.kind = NetworkKind::kDelayed;
    delayed.network.preset = DelayPreset::kUniform;
    const MailTally late = run_mail_probe(
        named.instance, delayed, "mail-delayed/" + named.name, &per_node);
    EXPECT_GT(late.steps, 0) << named.name;
    EXPECT_EQ(late.without_mail, 0) << "mail-delayed/" << named.name;
  }
}

// --- wake contract: the rounds a kernel declares quiet are no-ops ---------

/// Sends seen by the wake harness (the KernelCtx engine pointer).
struct SendCount {
  std::int64_t sends = 0;
};

void count_send(void* engine, int, NodeId, NodeId, const std::int64_t*,
                std::size_t) {
  ++static_cast<SendCount*>(engine)->sends;
}

std::span<const std::int64_t> recv_nothing(void*, int, NodeId, NodeId,
                                           bool* present) {
  *present = false;
  return {};
}

/// Steps one synthetic node of `kernel` through its scalar phase fns with
/// an empty inbox every round, up to `max_round`. After each step it also
/// steps every round before the declared wake, and those must leave the
/// state bytes, the port words and the RNG unchanged, send nothing and not
/// finish. Returns how many quiet rounds it checked.
std::int64_t check_wake_contract(const StepKernel& kernel, NodeId degree,
                                 const std::vector<std::int64_t>& input,
                                 std::int64_t max_round,
                                 const std::string& label) {
  EXPECT_LE(kernel.state_align, alignof(std::int64_t)) << label;
  std::vector<std::int64_t> state_words((kernel.state_size + 7) / 8 + 1, 0);
  auto* state = reinterpret_cast<std::byte*>(state_words.data());
  std::vector<std::int64_t> ports(
      static_cast<std::size_t>(degree) * kernel.port_state_words, 0);
  const std::int64_t identity = 11;
  if (kernel.init_fn != nullptr) {
    NodeInit init;
    init.degree = degree;
    init.identity = identity;
    init.input = input;
    kernel.init_fn(state, init, kernel.config.get());
  }
  Rng rng(identity);
  std::vector<std::int64_t> scratch;
  SendCount sent;
  const auto step = [&](std::int64_t round) {
    KernelCtx ctx;
    ctx.degree = degree;
    ctx.identity = identity;
    ctx.round = round;
    ctx.input = input;
    ctx.rng = &rng;
    ctx.state = state;
    ctx.port_state = ports.empty() ? nullptr : ports.data();
    ctx.config = kernel.config.get();
    ctx.scratch = &scratch;
    ctx.has_mail = false;
    ctx.engine = &sent;
    ctx.recv_fn = recv_nothing;
    ctx.send_fn = count_send;
    kernel.phases[kernel_phase_index(kernel, round, state)].fn(ctx);
    return ctx.finished;
  };

  std::int64_t quiet = 0;
  for (std::int64_t round = 0; round < max_round;) {
    if (step(round)) break;
    const std::int64_t wake = kernel_wake(kernel, round, state);
    EXPECT_GT(wake, round) << label << " round " << round;
    for (std::int64_t r = round + 1; r < std::min(wake, max_round); ++r) {
      const std::vector<std::int64_t> state_before = state_words;
      const std::vector<std::int64_t> ports_before = ports;
      Rng rng_before = rng;
      const std::int64_t sends_before = sent.sends;
      const bool finished = step(r);
      const std::string where = label + " quiet round " + std::to_string(r) +
                                " (woke at " + std::to_string(round) +
                                ", wake " + std::to_string(wake) + ")";
      EXPECT_FALSE(finished) << where;
      EXPECT_EQ(state_before, state_words) << where;
      EXPECT_EQ(ports_before, ports) << where;
      EXPECT_EQ(sends_before, sent.sends) << where;
      Rng rng_after = rng;
      EXPECT_EQ(rng_before.next(), rng_after.next()) << where;
      ++quiet;
    }
    round = std::max(wake, round + 1);
  }
  return quiet;
}

TEST(KernelWake, ColorReduceQuietRoundsAreNoOps) {
  std::int64_t quiet = 0;
  for (const std::int64_t target : {std::int64_t{0}, std::int64_t{5}}) {
    const ColorReduce reduce(/*k_start=*/24, target);
    for (const NodeId degree : {0, 1, 3, 7}) {
      // Colors below, inside and above the palette, the top color and one
      // past k_start (never eliminated).
      for (const std::int64_t color : {1, 2, 5, 9, 16, 24, 30}) {
        const std::string label = "color-reduce target=" +
                                  std::to_string(target) +
                                  " degree=" + std::to_string(degree) +
                                  " color=" + std::to_string(color);
        quiet += check_wake_contract(*reduce.kernel(), degree, {color},
                                     reduce.schedule_rounds() + 2, label);
      }
    }
  }
  EXPECT_GT(quiet, 0);  // the rule does declare quiet stretches
}

TEST(KernelWake, DegPlusOneChainQuietRoundsAreNoOps) {
  std::int64_t quiet = 0;
  for (const std::int64_t delta : {2, 5}) {
    const auto dplus1 = make_deg_plus_one_algorithm(delta, /*m_guess=*/200);
    const std::shared_ptr<const StepKernel> kernel = dplus1->kernel();
    ASSERT_NE(kernel, nullptr);
    ASSERT_NE(kernel->wake_fn, nullptr);
    const auto* chain = dynamic_cast<const ChainAlgorithm*>(dplus1.get());
    ASSERT_NE(chain, nullptr);
    for (const NodeId degree : {NodeId{0}, NodeId{1}, static_cast<NodeId>(delta)}) {
      for (const std::int64_t id_input : {1, 7, 64, 199}) {
        const std::string label = "dplus1 delta=" + std::to_string(delta) +
                                  " degree=" + std::to_string(degree) +
                                  " input=" + std::to_string(id_input);
        quiet += check_wake_contract(*kernel, degree, {id_input},
                                     chain->total_rounds() + 2, label);
      }
    }
  }
  EXPECT_GT(quiet, 0);
}

TEST(KernelWake, QuietStepsAreCountedButSkipTheKernel) {
  // Identity colors on a path: most nodes wait for their elimination round,
  // so most steps are quiet. The counters match the vtable run; only the
  // batched steps, which count kernel calls, fall.
  const Instance instance = make_instance(
      path_graph(64), IdentityScheme::kSequential, 3);
  Instance seeded = instance;
  for (NodeId v = 0; v < seeded.num_nodes(); ++v)
    seeded.inputs[static_cast<std::size_t>(v)] = {
        seeded.identities[static_cast<std::size_t>(v)]};
  const ColorReduce reduce(seeded.max_identity(), 0);
  ASSERT_NE(reduce.kernel()->wake_fn, nullptr);
  RunOptions options;
  options.kernel_mode = KernelMode::kOff;
  const RunResult vtable = run_local(seeded, reduce, options);
  options.kernel_mode = KernelMode::kOn;
  for (const int threads : {1, 2}) {
    options.num_threads = threads;
    const RunResult kernel = run_local(seeded, reduce, options);
    expect_same(vtable, kernel, "threads=" + std::to_string(threads));
    EXPECT_EQ(kernel.stats.total_steps, vtable.stats.total_steps);
    EXPECT_EQ(kernel.stats.kernel_steps, kernel.stats.total_steps);
    EXPECT_LT(2 * kernel.stats.kernel_batched_steps,
              kernel.stats.kernel_steps);
  }
}

TEST(KernelEquivalence, SlcAdapterThroughColoringTransform) {
  // The Theorem 5 transform wraps its coloring black box in the SLC output
  // adapter; under kernel mode `on` the whole pipeline must run lowered
  // and reproduce the vtable-path result exactly.
  Rng rng(127);
  const Instance instance = make_instance(gnp(70, 0.08, rng),
                                          IdentityScheme::kRandomPermuted, 7);
  const auto algorithm = make_lambda_gdelta_coloring(1);
  UniformRunOptions options;
  options.seed = 53;
  options.kernel_mode = KernelMode::kOff;
  const ColoringTransformResult off =
      run_uniform_coloring_transform(instance, *algorithm, options);
  options.kernel_mode = KernelMode::kOn;
  const ColoringTransformResult on =
      run_uniform_coloring_transform(instance, *algorithm, options);
  EXPECT_EQ(off.colors, on.colors);
  EXPECT_EQ(off.solved, on.solved);
  EXPECT_EQ(off.total_rounds, on.total_rounds);
  EXPECT_EQ(on.engine_stats.vtable_steps, 0);
  EXPECT_GT(on.engine_stats.kernel_steps, 0);
}

TEST(KernelRegistry, ColorReduceAndChainDeclareAWakeRule) {
  // Blocks without a wake rule, and the truncation wrapper even around a
  // waking kernel, step every round.
  const KernelRegistry& registry = default_kernel_registry();
  EXPECT_NE(registry.lower("color-reduce", ColorReduce(9, 0))->wake_fn,
            nullptr);
  const auto dplus1 = make_deg_plus_one_algorithm(3, 50);
  EXPECT_NE(registry.lower("chain", *dplus1)->wake_fn, nullptr);
  EXPECT_EQ(registry.lower("luby", LubyMis())->wake_fn, nullptr);
  const TruncatedAlgorithm truncated(std::make_shared<ColorReduce>(9, 0), 3,
                                     0);
  EXPECT_EQ(registry.lower("truncated", truncated)->wake_fn, nullptr);
}

TEST(KernelRegistry, DefaultTableListsTheLoweredBlocks) {
  const KernelRegistry& registry = default_kernel_registry();
  const std::vector<std::string> expected = {
      "beta-luby",    "chain",           "cole-vishkin",
      "color-reduce", "greedy-mis",      "hpartition",
      "linial",       "luby",            "mis-color-sweep",
      "out-linial",   "proposal-matching", "slc-adapter",
      "truncated"};
  EXPECT_EQ(registry.names(), expected);
  for (const std::string& name : expected) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_FALSE(registry.spec(name).describe.empty()) << name;
  }
  EXPECT_FALSE(registry.contains("no-such-kernel"));
}

TEST(KernelRegistry, LowersMatchingAlgorithmsOnly) {
  const KernelRegistry& registry = default_kernel_registry();
  const LubyMis luby;
  const GreedyMis greedy;
  // The right row lowers; the wrong row returns null (not an error).
  EXPECT_NE(registry.lower("luby", luby), nullptr);
  EXPECT_NE(registry.lower("greedy-mis", greedy), nullptr);
  EXPECT_EQ(registry.lower("luby", greedy), nullptr);
  EXPECT_EQ(registry.lower("cole-vishkin", luby), nullptr);
  // Unknown keys throw.
  EXPECT_THROW(registry.lower("no-such-kernel", luby), std::runtime_error);
  EXPECT_THROW(registry.spec("no-such-kernel"), std::runtime_error);
}

TEST(KernelRegistry, LoweredKernelMatchesAlgorithmKernel) {
  // The registry adapter and Algorithm::kernel() expose the same lowering.
  const LubyMis luby;
  const auto via_registry = default_kernel_registry().lower("luby", luby);
  const auto via_algorithm = luby.kernel();
  ASSERT_NE(via_registry, nullptr);
  ASSERT_NE(via_algorithm, nullptr);
  EXPECT_EQ(via_registry->name, via_algorithm->name);
}

/// Every registry building block is lowered now, so the fallback paths
/// need a deliberately unlowered stand-in: finish with the identity after
/// one broadcast round, vtable only.
class UnloweredEcho final : public Algorithm {
 public:
  std::unique_ptr<Process> spawn(const NodeInit&) const override {
    class EchoProcess final : public Process {
     public:
      void step(Context& ctx) override {
        if (ctx.round() == 0) {
          ctx.broadcast({ctx.id()});
          return;
        }
        ctx.finish(ctx.id());
      }
    };
    return std::make_unique<EchoProcess>();
  }
  std::string name() const override { return "unlowered-echo"; }
};

TEST(KernelMode, AutoFallsBackToVtableForUnloweredAlgorithms) {
  // An algorithm with no lowering: auto must silently run the vtable path
  // bit-identically to off, and report the split accordingly.
  Rng rng(83);
  const Instance instance = make_instance(gnp(80, 0.06, rng),
                                          IdentityScheme::kRandomPermuted, 3);
  const UnloweredEcho echo;
  ASSERT_EQ(echo.kernel(), nullptr);
  RunOptions options;
  options.seed = 29;
  options.kernel_mode = KernelMode::kOff;
  const RunResult off = run_local(instance, echo, options);
  options.kernel_mode = KernelMode::kAuto;
  const RunResult fallback = run_local(instance, echo, options);
  expect_same(off, fallback, "echo-fallback");
  EXPECT_EQ(fallback.stats.kernel_steps, 0);
  EXPECT_GT(fallback.stats.vtable_steps, 0);
}

TEST(KernelMode, OnThrowsForUnloweredAlgorithms) {
  Rng rng(89);
  const Instance instance = make_instance(path_graph(10),
                                          IdentityScheme::kSequential, 1);
  const UnloweredEcho echo;
  RunOptions options;
  options.kernel_mode = KernelMode::kOn;
  EXPECT_THROW(run_local(instance, echo, options), std::runtime_error);
}

TEST(KernelMode, BetaLubyRulingSetIsLowered) {
  // Regression guard for the full-zoo lowering: the ruling set used to be
  // the canonical unlowered fallback; now `on` must run it.
  Rng rng(131);
  const Instance instance = make_instance(gnp(40, 0.1, rng),
                                          IdentityScheme::kRandomPermuted, 3);
  const BetaLubyRulingSet ruling(2);
  ASSERT_NE(ruling.kernel(), nullptr);
  RunOptions options;
  options.seed = 59;
  options.kernel_mode = KernelMode::kOn;
  const RunResult on = run_local(instance, ruling, options);
  EXPECT_EQ(on.stats.vtable_steps, 0);
  EXPECT_EQ(on.stats.kernel_steps, on.stats.total_steps);
}

TEST(KernelMode, CampaignCollectsAllUnloweredKeys) {
  // KernelMode::kOn campaigns fail fast with ONE error naming every
  // unlowered algorithm key (the make_grid unknown-key style), instead of
  // N per-cell failures.
  AlgorithmRegistry registry;
  const auto noop = [](const Instance& instance, const AlgorithmRunContext&) {
    return CellOutcome{std::vector<std::int64_t>(
                           static_cast<std::size_t>(instance.num_nodes()), 1),
                       0, true, EngineStats{}};
  };
  AlgorithmSpec lowered{"lowered-a", "mis", "", {}, {"gnp"}, noop};
  registry.add(lowered);
  AlgorithmSpec raw_b{"vtable-b", "mis", "", {}, {"gnp"}, noop};
  raw_b.kernel_lowered = false;
  registry.add(raw_b);
  AlgorithmSpec raw_c{"vtable-c", "mis", "", {}, {"gnp"}, noop};
  raw_c.kernel_lowered = false;
  registry.add(raw_c);

  ScenarioParams params;
  params.n = 16;
  GridOptions grid_options;
  grid_options.algorithms = &registry;
  const std::vector<CampaignCell> cells =
      make_grid({"gnp"}, params, {"lowered-a", "vtable-b", "vtable-c"}, 1,
                grid_options);

  CampaignOptions options;
  options.algorithms = &registry;
  options.kernel_mode = KernelMode::kOn;
  try {
    run_campaign(cells, options);
    FAIL() << "expected validate_kernel_lowering to throw";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("vtable-b"), std::string::npos) << message;
    EXPECT_NE(message.find("vtable-c"), std::string::npos) << message;
    EXPECT_EQ(message.find("lowered-a"), std::string::npos) << message;
    EXPECT_NE(message.find("kernel mode 'on'"), std::string::npos) << message;
  }
  // Off/auto campaigns run the same grid without complaint.
  options.kernel_mode = KernelMode::kAuto;
  const CampaignResult result = run_campaign(cells, options);
  EXPECT_EQ(result.failed, 0);
}

TEST(KernelMode, NamesRoundTrip) {
  for (const KernelMode mode :
       {KernelMode::kOff, KernelMode::kAuto, KernelMode::kOn})
    EXPECT_EQ(parse_kernel_mode(kernel_mode_name(mode)), mode);
  EXPECT_THROW(parse_kernel_mode("bogus"), std::runtime_error);
  EXPECT_THROW(parse_kernel_mode(""), std::runtime_error);
}

}  // namespace
}  // namespace unilocal
