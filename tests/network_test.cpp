// The pluggable delivery layer (src/runtime/network.h): spec/knob parsing,
// and the DelayedNetwork execution mode's core contracts —
//
//   * asynchrony transparency: when every pulse is eventually delivered
//     (no crashes, drops below the retransmission cap), outputs and local
//     finish rounds are bit-identical to the synchronous run for the same
//     seed — the paper's Observation 2.1, used here as the oracle;
//   * determinism: the full RunResult (timestamps and fault counters
//     included) is invariant under engine thread count and run repetition;
//   * degenerate faults: drop=1.0 and crashes stall the synchronizer
//     cleanly (queues drain, survivors finalized as cut off) instead of
//     spinning;
//   * the kernel tier works unchanged through the delayed layer;
//   * the event queue pops in (time, edge, round, seq) order under any
//     monotone schedule, and the per-edge window rejects a pulse the
//     engine could not have sent.
//
// Campaign/shard-level determinism of delayed grids is covered in
// tests/shard_test.cpp-style form at the bottom of this file.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/algo/greedy_mis.h"
#include "src/algo/luby.h"
#include "src/algo/ruling_set_mc.h"
#include "src/graph/generators.h"
#include "src/runtime/campaign.h"
#include "src/runtime/network.h"
#include "src/runtime/run_log.h"
#include "src/runtime/runner.h"
#include "src/runtime/shard.h"
#include "src/util/flags.h"
#include "tests/test_support.h"

namespace unilocal {
namespace {

using testing_support::standard_instances;

NetworkOptions delayed(DelayPreset preset) {
  NetworkOptions network;
  network.kind = NetworkKind::kDelayed;
  network.preset = preset;
  return network;
}

void expect_same_result(const RunResult& want, const RunResult& got,
                        const std::string& label) {
  EXPECT_EQ(want.outputs, got.outputs) << label;
  EXPECT_EQ(want.finish_rounds, got.finish_rounds) << label;
  EXPECT_EQ(want.global_finish_rounds, got.global_finish_rounds) << label;
  EXPECT_EQ(want.all_finished, got.all_finished) << label;
  EXPECT_EQ(want.rounds_used, got.rounds_used) << label;
  EXPECT_EQ(want.global_rounds, got.global_rounds) << label;
  EXPECT_EQ(want.messages_sent, got.messages_sent) << label;
  EXPECT_EQ(want.max_message_words, got.max_message_words) << label;
  EXPECT_EQ(want.stats.total_steps, got.stats.total_steps) << label;
  EXPECT_EQ(want.stats.messages_dropped, got.stats.messages_dropped) << label;
  EXPECT_EQ(want.stats.messages_duplicated, got.stats.messages_duplicated)
      << label;
  EXPECT_EQ(want.stats.max_delivery_skew, got.stats.max_delivery_skew)
      << label;
}

TEST(NetworkSpec, ParseAndName) {
  EXPECT_EQ(parse_network_spec("sync").kind, NetworkKind::kSynchronous);
  const NetworkOptions uniform = parse_network_spec("delay:uniform");
  EXPECT_EQ(uniform.kind, NetworkKind::kDelayed);
  EXPECT_EQ(uniform.preset, DelayPreset::kUniform);
  EXPECT_EQ(parse_network_spec("delay:weighted").preset,
            DelayPreset::kWeighted);
  EXPECT_EQ(parse_network_spec("delay:heavytail").preset,
            DelayPreset::kHeavyTail);
  for (const NetworkOptions& options :
       {parse_network_spec("sync"), parse_network_spec("delay:heavytail")})
    EXPECT_EQ(parse_network_spec(network_spec_name(options)), options);
  EXPECT_THROW(parse_network_spec("delay:pareto"), std::runtime_error);
  EXPECT_THROW(parse_network_spec(""), std::runtime_error);
  try {
    parse_network_spec("async");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("async"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("delay:uniform"), std::string::npos);
  }
}

TEST(NetworkSpec, StrictKnobParsing) {
  EXPECT_DOUBLE_EQ(parse_unit_interval("--drop", "0.25"), 0.25);
  EXPECT_EQ(parse_positive_ticks("--max-delay", "12"), 12);
  for (const char* bad : {"", "0.5x", "-0.1", "1.5", "nan"})
    EXPECT_THROW(parse_unit_interval("--drop", bad), std::runtime_error);
  for (const char* bad : {"", "7.5", "0", "-3", "12x"})
    EXPECT_THROW(parse_positive_ticks("--late-by", bad), std::runtime_error);
  try {
    parse_unit_interval("--crash", "oops");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    // The error must name the flag (the CLI surfaces e.what() directly).
    EXPECT_NE(std::string(e.what()).find("--crash"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("oops"), std::string::npos);
  }
  NetworkOptions bad;
  bad.drop = 1.5;
  EXPECT_THROW(validate_network_options(bad), std::runtime_error);
  bad = NetworkOptions{};
  bad.max_delay = 0;
  EXPECT_THROW(validate_network_options(bad), std::runtime_error);
  bad = NetworkOptions{};
  bad.late = -0.5;
  Instance instance = make_instance(path_graph(4));
  RunOptions options;
  options.network = bad;
  EXPECT_THROW(run_local(instance, LubyMis(), options), std::runtime_error);
}

// When every pulse is eventually delivered, each node sees the same message
// contents in the same local rounds as under the synchronous network, so
// outputs and local finish rounds are bit-identical (Observation 2.1). This
// holds across presets and across delivery-reordering faults (drops below
// the retransmission cap, duplicates, late joiners).
TEST(DelayedNetwork, AsynchronyTransparentAcrossPresetsAndFaults) {
  const LubyMis luby;
  const GreedyMis greedy;
  const BetaLubyRulingSet ruling(2);
  const std::vector<std::pair<std::string, const Algorithm*>> algorithms = {
      {"luby", &luby}, {"greedy", &greedy}, {"ruling2", &ruling}};
  std::vector<std::pair<std::string, NetworkOptions>> networks;
  for (const DelayPreset preset :
       {DelayPreset::kUniform, DelayPreset::kWeighted,
        DelayPreset::kHeavyTail})
    networks.push_back({std::string("plain-") + delay_preset_name(preset),
                        delayed(preset)});
  NetworkOptions faulty = delayed(DelayPreset::kUniform);
  faulty.drop = 0.3;
  faulty.duplicate = 0.5;
  faulty.late = 0.5;
  networks.push_back({"drop-dup-late", faulty});

  for (const auto& named : standard_instances(/*seed=*/21)) {
    for (const auto& [algo_name, algorithm] : algorithms) {
      RunOptions sync_options;
      sync_options.seed = 17;
      const RunResult want =
          run_local(named.instance, *algorithm, sync_options);
      for (const auto& [net_name, network] : networks) {
        RunOptions options = sync_options;
        options.network = network;
        const RunResult got = run_local(named.instance, *algorithm, options);
        const std::string label =
            named.name + "/" + algo_name + "/" + net_name;
        EXPECT_EQ(want.outputs, got.outputs) << label;
        EXPECT_EQ(want.finish_rounds, got.finish_rounds) << label;
        EXPECT_EQ(want.all_finished, got.all_finished) << label;
        EXPECT_EQ(want.rounds_used, got.rounds_used) << label;
        EXPECT_EQ(want.messages_sent, got.messages_sent) << label;
        EXPECT_EQ(want.max_message_words, got.max_message_words) << label;
      }
    }
  }
}

// Same seed, same options => bit-identical full result (timestamps and
// fault counters included) for any engine thread count and on repetition
// through a reused workspace.
TEST(DelayedNetwork, DeterministicAcrossThreadCountsAndRepetition) {
  const LubyMis luby;
  NetworkOptions network = delayed(DelayPreset::kHeavyTail);
  network.drop = 0.2;
  network.duplicate = 0.3;
  network.late = 0.4;
  for (const auto& named : standard_instances(/*seed=*/23)) {
    RunOptions options;
    options.seed = 5;
    options.network = network;
    options.num_threads = 1;
    const RunResult want = run_local(named.instance, luby, options);
    EngineWorkspace workspace;
    options.workspace = &workspace;
    for (const int threads : {1, 2, 8}) {
      options.num_threads = threads;
      const RunResult got = run_local(named.instance, luby, options);
      expect_same_result(want, got,
                         named.name + "/threads=" + std::to_string(threads));
    }
  }
}

// drop=1.0: nothing is ever delivered. Round 0 needs no messages, so every
// node steps once; from then on every non-isolated node starves. The event
// queue drains and the run exits cleanly with the survivors cut off — it
// must not spin to the round cap (guarded here by the default cap being
// ~2^60: a spinning loop would never return).
TEST(DelayedNetwork, DropEverythingStallsCleanly) {
  const Instance instance =
      make_instance(path_graph(40), IdentityScheme::kRandomPermuted, 3);
  RunOptions options;
  options.seed = 9;
  options.network = delayed(DelayPreset::kUniform);
  options.network.drop = 1.0;
  const RunResult result = run_local(instance, LubyMis(), options);
  EXPECT_FALSE(result.all_finished);
  EXPECT_EQ(result.stats.final_live_nodes, 40);
  EXPECT_EQ(result.stats.total_steps, 40);  // exactly one round each
  EXPECT_GT(result.stats.messages_dropped, 0);
  for (const std::int64_t output : result.outputs) EXPECT_EQ(output, 0);
  for (const std::int64_t finish : result.finish_rounds)
    EXPECT_EQ(finish, options.max_rounds);
}

// Fail-stop crashes starve the crashed nodes' neighbourhoods; the run still
// terminates, deterministically. crash=1.0 is the extreme: nobody ever
// steps.
TEST(DelayedNetwork, CrashedNodesStarveNeighboursAndTerminate) {
  Rng rng(31);
  const Instance instance = make_instance(
      gnp(60, 0.08, rng), IdentityScheme::kRandomPermuted, 4);
  RunOptions options;
  options.seed = 11;
  options.network = delayed(DelayPreset::kUniform);
  options.network.crash = 0.3;
  const RunResult first = run_local(instance, LubyMis(), options);
  EXPECT_FALSE(first.all_finished);
  EXPECT_GT(first.stats.final_live_nodes, 0);
  options.num_threads = 8;
  const RunResult second = run_local(instance, LubyMis(), options);
  expect_same_result(first, second, "crash determinism");

  options.network.crash = 1.0;
  const RunResult nobody = run_local(instance, LubyMis(), options);
  EXPECT_EQ(nobody.stats.total_steps, 0);
  EXPECT_EQ(nobody.stats.final_live_nodes, 60);
  EXPECT_EQ(nobody.global_rounds, 0);
}

// The round cap applies per node in the delayed mode exactly as in the
// synchronous modes: same outputs, same local finish rounds.
TEST(DelayedNetwork, CutoffParityWithSynchronousRun) {
  for (const auto& named : standard_instances(/*seed=*/37)) {
    RunOptions options;
    options.seed = 13;
    options.max_rounds = 3;
    const RunResult want = run_local(named.instance, LubyMis(), options);
    options.network = delayed(DelayPreset::kUniform);
    const RunResult got = run_local(named.instance, LubyMis(), options);
    EXPECT_EQ(want.outputs, got.outputs) << named.name;
    EXPECT_EQ(want.finish_rounds, got.finish_rounds) << named.name;
    EXPECT_EQ(want.all_finished, got.all_finished) << named.name;
  }
}

// Composition (run_sequential) through the delayed layer: stage k+1 wakes
// each node after its stage-k finish time; since outputs are wake-invariant,
// the composition's outputs still match the synchronous composition.
TEST(DelayedNetwork, SequentialCompositionMatchesSynchronous) {
  const LubyMis luby;
  const GreedyMis greedy;
  const std::vector<const Algorithm*> stages = {&luby, &greedy};
  Rng rng(41);
  const Instance instance = make_instance(
      gnp(50, 0.1, rng), IdentityScheme::kRandomPermuted, 6);
  RunOptions options;
  options.seed = 19;
  const auto want = run_sequential(instance, stages, options);
  options.network = delayed(DelayPreset::kHeavyTail);
  options.network.duplicate = 0.4;
  const auto got = run_sequential(instance, stages, options);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t stage = 0; stage < want.size(); ++stage) {
    EXPECT_EQ(want[stage].outputs, got[stage].outputs) << stage;
    EXPECT_EQ(want[stage].finish_rounds, got[stage].finish_rounds) << stage;
  }
}

// Fault counters must surface: drops, duplicates, and a positive delivery
// skew whenever latencies exceed one tick.
TEST(DelayedNetwork, FaultCountersSurfaceInStats) {
  const Instance instance =
      make_instance(cycle_graph(50), IdentityScheme::kRandomPermuted, 8);
  RunOptions options;
  options.seed = 23;
  options.network = delayed(DelayPreset::kUniform);
  options.network.drop = 0.3;
  options.network.duplicate = 0.4;
  const RunResult result = run_local(instance, LubyMis(), options);
  EXPECT_GT(result.stats.messages_dropped, 0);
  EXPECT_GT(result.stats.messages_duplicated, 0);
  EXPECT_GT(result.stats.max_delivery_skew, 0);
  EXPECT_GT(result.global_rounds, result.rounds_used);

  RunOptions sync_options;
  sync_options.seed = 23;
  const RunResult sync_result = run_local(instance, LubyMis(), sync_options);
  EXPECT_EQ(sync_result.stats.messages_dropped, 0);
  EXPECT_EQ(sync_result.stats.messages_duplicated, 0);
  EXPECT_EQ(sync_result.stats.max_delivery_skew, 0);
}

// The step-kernel tier must work unchanged through the delayed layer:
// kernel and vtable paths produce bit-identical full results, and the
// path-split stats prove both actually ran their own tier.
TEST(DelayedNetwork, KernelTierBitIdenticalThroughDelayedLayer) {
  const LubyMis luby;  // has a kernel lowering
  NetworkOptions network = delayed(DelayPreset::kWeighted);
  network.drop = 0.2;
  for (const auto& named : standard_instances(/*seed=*/43)) {
    RunOptions options;
    options.seed = 29;
    options.network = network;
    options.kernel_mode = KernelMode::kAuto;
    const RunResult with_kernel = run_local(named.instance, luby, options);
    options.kernel_mode = KernelMode::kOff;
    const RunResult without = run_local(named.instance, luby, options);
    expect_same_result(with_kernel, without, named.name);
    EXPECT_EQ(with_kernel.stats.vtable_steps, 0) << named.name;
    EXPECT_EQ(without.stats.kernel_steps, 0) << named.name;
  }
}

// --- the delivery queue and the edge window ---------------------------------

using EventKey =
    std::tuple<std::int64_t, std::int64_t, std::int64_t, std::uint64_t>;

EventKey key_of(const DeliveryEvent& event) {
  return {event.time, event.edge, event.round, event.seq};
}

// Random monotone schedules, shaped like the delayed network's: pushes land
// 1 to 2^17 ticks after an engine clock that sits anywhere between the last
// pop and the next pending time, some with retransmit offsets, some
// duplicated later or at the very same (time, edge, round), with few edges
// and rounds so that times tie across both. Every pop must be the least
// pending event under (time, edge, round, seq): the first of the pending
// set, which std::set keeps sorted in that order.
TEST(DeliveryQueue, RandomMonotoneSchedulesPopInTimeEdgeRoundSeqOrder) {
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    DeliveryQueue queue;
    std::set<EventKey> pending;
    std::uint64_t seq = 0;
    std::int64_t last_pop = 0;
    const auto push = [&](const DeliveryEvent& event) {
      queue.push(event);
      pending.emplace(event.time, event.edge, event.round, seq++);
    };
    const auto pop_and_check = [&] {
      ASSERT_EQ(queue.size(), pending.size());
      ASSERT_EQ(queue.next_time(), std::get<0>(*pending.begin()));
      const DeliveryEvent event = queue.pop();
      ASSERT_EQ(key_of(event), *pending.begin());
      pending.erase(pending.begin());
      last_pop = event.time;
    };
    for (int op = 0; op < 5000; ++op) {
      if (!pending.empty() && rng.next_bool(0.45)) {
        pop_and_check();
        continue;
      }
      const std::int64_t now =
          queue.empty() ? last_pop : rng.next_in(last_pop, queue.next_time());
      const int level = rng.next_bool(0.5)
                            ? static_cast<int>(rng.next_below(3))
                            : static_cast<int>(rng.next_below(18));
      std::int64_t delay =
          1 + static_cast<std::int64_t>(rng.next_below(std::uint64_t{1}
                                                       << level));
      if (rng.next_bool(0.2)) delay += 16 * rng.next_in(1, 4);  // retransmit
      DeliveryEvent event;
      event.time = now + delay;
      event.edge = rng.next_in(0, 5);
      event.round = rng.next_in(0, 3);
      push(event);
      if (rng.next_bool(0.1)) push(event);  // the same (time, edge, round)
      if (rng.next_bool(0.2)) {
        event.time += rng.next_in(1, 8);  // a duplicate lands later
        push(event);
      }
    }
    while (!pending.empty()) pop_and_check();
    EXPECT_TRUE(queue.empty());
  }
}

// next_time() only peeks. The engine peeks at the next delivery, may then
// step a node before it, and that step's pulses can land earlier than the
// peeked time; they must pop first.
TEST(DeliveryQueue, PushEarlierThanAPeekedTimePopsFirst) {
  DeliveryQueue queue;
  DeliveryEvent event;
  event.time = 100;
  queue.push(event);
  EXPECT_EQ(queue.next_time(), 100);
  event.time = 40;
  queue.push(event);
  EXPECT_EQ(queue.next_time(), 40);
  EXPECT_EQ(queue.pop().time, 40);
  EXPECT_EQ(queue.next_time(), 100);
  event.time = 41;  // later than the last pop, earlier than the peek
  queue.push(event);
  EXPECT_EQ(queue.pop().time, 41);
  EXPECT_EQ(queue.pop().time, 100);
  EXPECT_TRUE(queue.empty());
  // Not later than the last pop: the queue's monotonicity is broken.
  event.time = 100;
  EXPECT_THROW(queue.push(event), std::logic_error);
  event.time = 99;
  EXPECT_THROW(queue.push(event), std::logic_error);
}

void drain(DelayedNetwork& net, std::int64_t* now) {
  DelayedNetwork::Delivery delivery;
  while (net.pop_delivery(&delivery)) *now = delivery.time;
}

// Node 0 of a two-node path runs round 1 although node 1 never stepped —
// the engine would hold it until node 1's round-0 pulse arrived. Round 1 is
// outside node 1's window, and landing it must throw.
TEST(DelayedNetwork, LiveReceiverWindowViolationThrows) {
  const CsrGraph csr(path_graph(2));
  DelayedNetwork net;
  net.begin_run(csr, 5, delayed(DelayPreset::kUniform));
  net.flush_node(0, 0, 0, false);
  net.flush_node(0, 1, 1, false);
  std::int64_t now = 0;
  EXPECT_THROW(drain(net, &now), std::logic_error);
}

// A pulse that would overwrite an arrived round at or above the prefix
// throws too. Node 1 gets round 1 before round 0, then runs ahead to round
// 3, so round 3 maps onto round 1's slot while the prefix is still 0.
TEST(DelayedNetwork, OverwritingAnArrivedRoundAboveThePrefixThrows) {
  const CsrGraph csr(path_graph(2));
  DelayedNetwork net;
  net.begin_run(csr, 5, delayed(DelayPreset::kUniform));
  std::int64_t now = 0;
  net.flush_node(1, 0, now, false);
  net.flush_node(0, 1, now, true);  // node 0 stops reading
  drain(net, &now);
  EXPECT_EQ(net.prefix(csr.in_edge_index(1, 0)), 0);
  net.flush_node(1, 1, now, false);
  net.flush_node(1, 2, now, false);
  net.flush_node(0, 3, now, true);
  EXPECT_THROW(drain(net, &now), std::logic_error);
}

// Deliveries to a finished receiver skip its window — whatever their round
// — but still count toward the skew; the finished sender's final pulse
// saturates the edge it sent on.
TEST(DelayedNetwork, FinishedReceiversSkipTheWindow) {
  const CsrGraph csr(path_graph(2));
  DelayedNetwork net;
  net.begin_run(csr, 5, delayed(DelayPreset::kHeavyTail));
  std::int64_t now = 0;
  net.flush_node(1, 0, now, true);
  drain(net, &now);
  for (std::int64_t round = 0; round < 6; ++round)
    net.flush_node(0, round, now, false);
  EXPECT_NO_THROW(drain(net, &now));
  EXPECT_GT(net.max_skew(), 0);
  EXPECT_EQ(net.prefix(csr.in_edge_index(1, 0)), 0);
  EXPECT_TRUE(net.saturated(csr.in_edge_index(0, 0)));
}

// --- campaign / shard layer --------------------------------------------------

std::vector<CampaignCell> delayed_grid() {
  GridOptions grid_options;
  NetworkOptions faulty = delayed(DelayPreset::kHeavyTail);
  faulty.drop = 0.05;
  faulty.duplicate = 0.1;
  grid_options.networks = {NetworkOptions{}, delayed(DelayPreset::kUniform),
                           faulty};
  return make_grid({"gnp", "tree"}, ScenarioParams{}, {"luby-mis"},
                   /*seeds_per_combination=*/2, grid_options);
}

std::string canonical_json(const CampaignResult& result) {
  CampaignJsonOptions json_options;
  json_options.canonical = true;
  std::ostringstream out;
  write_campaign_json(out, result, json_options);
  return out.str();
}

// The acceptance bar for the delivery layer at campaign scale: a fixed-seed
// grid crossed with delayed networks reproduces byte-equal canonical JSON
// no matter how it is split across shard processes or which placement
// policy assigned the cells — including a full JSON round trip of every
// manifest and shard result (the network identity must survive
// serialization, or the worker would run a different experiment).
TEST(DelayedCampaign, CanonicalJsonByteEqualAcrossShardingsAndPolicies) {
  const std::vector<CampaignCell> cells = delayed_grid();
  const std::string want = canonical_json(run_campaign(cells, {}));
  EXPECT_NE(want.find("\"network\":\"delay:heavytail\""), std::string::npos);
  for (const ShardPolicy policy :
       {ShardPolicy::kRoundRobin, ShardPolicy::kCostBalanced}) {
    for (const int num_shards : {1, 2, 3, 7}) {
      const ShardPlan plan = plan_shards(cells, num_shards, policy);
      const ShardPlan plan_back =
          ShardPlan::from_json(json::Value::parse(plan.to_json().dump()));
      std::vector<ShardResult> results;
      for (const ShardManifest& manifest : plan_back.shards) {
        const ShardManifest manifest_back = ShardManifest::from_json(
            json::Value::parse(manifest.to_json().dump()));
        const ShardResult result = run_shard(manifest_back, {});
        results.push_back(ShardResult::from_json(
            json::Value::parse(result.to_json().dump())));
      }
      const CampaignResult merged = merge_shard_results(plan_back, results);
      EXPECT_EQ(want, canonical_json(merged))
          << shard_policy_name(policy) << "/" << num_shards;
    }
  }
}

// A campaign over fully-delivered delayed networks stays as solved/valid as
// the synchronous one (Observation 2.1 applies cell-wise), the fault
// percentiles surface, and the delivery layer separates grid identities:
// the same cells under different networks must never share a run-log
// perf baseline.
TEST(DelayedCampaign, VerdictsHoldAndNetworkSeparatesGridIdentity) {
  const std::vector<CampaignCell> cells = delayed_grid();
  const CampaignResult result = run_campaign(cells, {});
  EXPECT_EQ(result.failed, 0);
  EXPECT_EQ(result.valid, static_cast<int>(cells.size()));
  EXPECT_GT(result.stats[&EngineStats::messages_dropped].max, 0.0);
  EXPECT_GT(result.stats[&EngineStats::messages_duplicated].max, 0.0);
  EXPECT_GT(result.stats[&EngineStats::max_delivery_skew].max, 0.0);

  std::vector<CampaignCell> sync_cells = cells;
  for (CampaignCell& cell : sync_cells) cell.network = NetworkOptions{};
  EXPECT_NE(campaign_grid_hash(cells), campaign_grid_hash(sync_cells));
  std::vector<CampaignCell> other_knob = cells;
  other_knob.back().network.drop = 0.051;
  EXPECT_NE(campaign_grid_hash(cells), campaign_grid_hash(other_knob));

  // The cell's network is what runs, and it lands in the artifacts.
  std::vector<CampaignCell> weighted_cells = sync_cells;
  for (CampaignCell& cell : weighted_cells)
    cell.network = delayed(DelayPreset::kWeighted);
  const CampaignResult overridden = run_campaign(weighted_cells, {});
  EXPECT_EQ(overridden.valid, static_cast<int>(weighted_cells.size()));
  std::ostringstream csv;
  write_campaign_csv(csv, overridden);
  EXPECT_NE(csv.str().find("delay:weighted"), std::string::npos);
  EXPECT_NE(csv.str().find("messages_dropped"), std::string::npos);
}

}  // namespace
}  // namespace unilocal
