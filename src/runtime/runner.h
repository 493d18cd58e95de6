// Round-exact execution of LOCAL algorithms on the arena engine.
//
// The default mode wakes every node at round 0 (the paper's standing
// assumption, justified by its Observation 2.1). The staggered mode supports
// arbitrary per-node wake-up rounds and emulates the alpha synchronizer: a
// node performs local round i only once every neighbour has performed local
// round i-1, with early messages buffered — exactly the construction in the
// paper's "Synchronicity and time complexity" discussion.
//
// "Restricted to T rounds" (paper Section 2): set RunOptions::max_rounds=T;
// nodes that have not finished within their first T local rounds are forced
// to terminate with the arbitrary output RunOptions::default_output (0).
//
// Engine layout: node state is struct-of-arrays; all message traffic of a
// round lives in one flat int64 arena addressed by CsrGraph edge indices,
// with the send and receive halves swapped between rounds. Both loops are
// frontier-driven: the simultaneous mode walks a compacted live-node list
// (rebalanced across threads each round) and resets only the span slots
// written last round via per-thread dirty lists, so per-round cost tracks
// the surviving frontier and its traffic rather than n + edges; the
// synchronizer mode schedules with per-node dependency-lag counters and a
// wake-admission queue, so scheduling costs O(total steps + messages)
// instead of an O(n + edges) eligibility rescan per global round. The
// simultaneous mode can step disjoint chunks of the live list on a thread
// pool; messages only cross the round barrier and every node owns a private
// Rng stream, so results are bit-identical for any thread count (the
// engine-equivalence test enforces this against the preserved seed engine in
// src/runtime/reference.h).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <stdexcept>
#include <variant>
#include <vector>

#include "src/runtime/instance.h"
#include "src/runtime/kernel.h"
#include "src/runtime/local.h"
#include "src/runtime/network.h"
#include "src/util/json.h"

namespace unilocal {

class EngineWorkspace;

/// How every engine run executes: one value handed unchanged from the CLI or
/// campaign cell down through registry entries, transformers, the `fastest`
/// combinator and alternation drivers to run_local, so the runs nested at
/// every depth share one setting. Threads, kernel mode and workspace never
/// change an output; a network does only when it loses messages for good.
struct ExecPolicy {
  /// Worker threads stepping disjoint node ranges in the simultaneous mode
  /// (values below 1 mean 1). The synchronizer and delayed modes always run
  /// single-threaded.
  int num_threads = 1;
  /// Engine path: the flat step-kernel tier (src/runtime/kernel.h) when the
  /// algorithm is lowered (kAuto, the default), the Process vtable path
  /// always (kOff), or the kernel required (kOn — run_local throws when the
  /// algorithm has no lowering).
  KernelMode kernel_mode = KernelMode::kAuto;
  /// Delivery layer (src/runtime/network.h): the round-exact synchronous
  /// arena (default), or the seeded event-queue transport with per-edge
  /// latency and fault injection. Outputs are a pure function of (instance,
  /// seed, network), so they stay invariant under num_threads and sharding.
  NetworkOptions network;
  /// Lent engine storage: every run joins this arena instead of allocating
  /// its own (nullptr = a run-local one). Not safe to share between
  /// concurrent runs.
  EngineWorkspace* workspace = nullptr;
};

struct RunOptions : ExecPolicy {
  /// Maximum local rounds per node; reaching it forces termination with
  /// default_output.
  std::int64_t max_rounds = std::numeric_limits<std::int64_t>::max() / 4;
  std::int64_t default_output = 0;
  /// Seed for the per-node randomness streams (split by identity).
  std::uint64_t seed = 1;
  /// Optional wake-up round per node (empty = all wake at 0). Non-empty
  /// wake rounds enable the alpha-synchronizer emulation.
  std::vector<std::int64_t> wake_rounds{};
};

/// Engine-side counters of one run (RunResult::stats).
struct EngineStats {
  /// Bytes held by the message arenas (word buffers + span tables) at the
  /// end of the run; capacity, not live size.
  std::int64_t arena_bytes = 0;
  /// Maximum number of messages in flight across any single round.
  std::int64_t peak_round_messages = 0;
  /// Total messages sent over the whole run (RunResult::messages_sent,
  /// summed across stages for composed algorithms).
  std::int64_t total_messages = 0;
  /// Total Process::step invocations.
  std::int64_t total_steps = 0;
  /// Node steps executed through the flat kernel path / the Process vtable
  /// path (kernel_steps + vtable_steps == total_steps; composed algorithms
  /// mix both when only some stages are lowered).
  std::int64_t kernel_steps = 0;
  std::int64_t vtable_steps = 0;
  /// Of kernel_steps, how many reached a phase-grouped KernelBatchFn
  /// bucket, and how many batch calls carried them —
  /// kernel_batched_steps / kernel_batch_calls is the mean batch occupancy
  /// (nodes stepped per batch dispatch). The rest went through the scalar
  /// per-node loop or were quiet: in the simultaneous mode a node whose
  /// kernel declared a later wake round (StepKernel::wake_fn) and whose
  /// inbox is empty is counted in total_steps and kernel_steps without a
  /// kernel call, so it reaches no bucket and no batch call.
  std::int64_t kernel_batched_steps = 0;
  std::int64_t kernel_batch_calls = 0;
  /// Most unfinished nodes at the start of any round (= n for a non-empty
  /// run; informative per stage in composed algorithms).
  std::int64_t peak_live_nodes = 0;
  /// Unfinished nodes when the run ended (non-zero only when the round cap
  /// or the synchronizer's global cap cut the run off).
  std::int64_t final_live_nodes = 0;
  /// Most nodes stepped within one (global) round: the live-list width in
  /// the simultaneous mode, the eligible-frontier width under the
  /// synchronizer.
  std::int64_t peak_frontier_nodes = 0;
  /// Send-span slots lazily reset through the dirty lists instead of an
  /// O(edges) per-round fill (simultaneous mode only; the engine's clearing
  /// work is proportional to this, not to rounds x edges).
  std::int64_t dirty_spans_cleared = 0;
  /// Fault-injection counters (DelayedNetwork runs; all zero under the
  /// synchronous network): transmissions lost to the drop knob (each
  /// retransmission attempt counts), duplicated deliveries, and the worst
  /// delivery latency in excess of the synchronous one-tick ideal.
  std::int64_t messages_dropped = 0;
  std::int64_t messages_duplicated = 0;
  std::int64_t max_delivery_skew = 0;
  double elapsed_seconds = 0.0;
  /// total_steps / elapsed_seconds (0 when the run was too fast to time).
  double steps_per_second = 0.0;
  int threads = 1;

  /// Folds another run's stats in (composed algorithms aggregate the stats
  /// of their stages), each field by its kEngineStatFields merge rule.
  void merge(const EngineStats& other);

  /// Kernel steps per batch call (the mean batch occupancy); 0 when no
  /// batch call ran.
  double batch_occupancy() const {
    return kernel_batch_calls > 0
               ? static_cast<double>(kernel_batched_steps) /
                     static_cast<double>(kernel_batch_calls)
               : 0.0;
  }
};

/// How EngineStats::merge folds a field of a later stage into the total.
enum class StatMerge {
  kSum,      // counters add
  kMax,      // high-water marks take the max
  kLast,     // the most recently merged stage wins
  kDerived,  // recomputed from the merged totals (steps_per_second)
};

/// One EngineStats field: its key in every artifact (campaign CSV/JSON, run
/// log, shard results, metrics as "engine.<key>", --stats-json), its member,
/// and how it folds and reports.
struct StatField {
  const char* key;
  std::variant<std::int64_t EngineStats::*, double EngineStats::*,
               int EngineStats::*>
      member;
  StatMerge merge;
  /// A pure function of the cell, so part of canonical campaign JSON. Not
  /// canonical: wall-clock values, workspace capacities (they depend on
  /// what the reused workspace ran before), the kernel/vtable split (it
  /// depends on the kernel mode, not the grid), and the delivery-layer
  /// fault counters (Observation 2.1 keeps outputs, rounds and verdicts
  /// invariant under the delivery layer, not these).
  bool canonical;
  /// Campaign summaries and the run log carry its percentiles over the
  /// solved cells. Double fields are wall-clock rates: a 0 there means the
  /// run was too fast to time, and such cells are left out.
  bool aggregate;
};

/// The only list of EngineStats fields: merge, the engine metrics, the
/// campaign aggregates and every writer and reader loop over it, in this
/// order. Adding a field takes one member above plus one row here (and its
/// assignment in the engine's fill_stats).
inline constexpr auto kEngineStatFields = std::to_array<StatField>({
    // key, member, merge, canonical, aggregate
    {"messages", &EngineStats::total_messages, StatMerge::kSum, true, true},
    {"steps", &EngineStats::total_steps, StatMerge::kSum, true, false},
    {"kernel_steps", &EngineStats::kernel_steps, StatMerge::kSum, false,
     true},
    {"vtable_steps", &EngineStats::vtable_steps, StatMerge::kSum, false,
     true},
    {"kernel_batched_steps", &EngineStats::kernel_batched_steps,
     StatMerge::kSum, false, true},
    {"kernel_batch_calls", &EngineStats::kernel_batch_calls, StatMerge::kSum,
     false, false},
    {"messages_dropped", &EngineStats::messages_dropped, StatMerge::kSum,
     false, true},
    {"messages_duplicated", &EngineStats::messages_duplicated,
     StatMerge::kSum, false, true},
    {"max_delivery_skew", &EngineStats::max_delivery_skew, StatMerge::kMax,
     false, true},
    {"steps_per_second", &EngineStats::steps_per_second, StatMerge::kDerived,
     false, true},
    {"arena_bytes", &EngineStats::arena_bytes, StatMerge::kMax, false, false},
    {"peak_live_nodes", &EngineStats::peak_live_nodes, StatMerge::kMax, true,
     true},
    {"peak_frontier_nodes", &EngineStats::peak_frontier_nodes,
     StatMerge::kMax, true, true},
    {"dirty_spans_cleared", &EngineStats::dirty_spans_cleared,
     StatMerge::kSum, true, true},
    {"peak_round_messages", &EngineStats::peak_round_messages,
     StatMerge::kMax, false, false},
    {"final_live_nodes", &EngineStats::final_live_nodes, StatMerge::kLast,
     false, false},
    {"elapsed_seconds", &EngineStats::elapsed_seconds, StatMerge::kSum,
     false, false},
    {"threads", &EngineStats::threads, StatMerge::kMax, false, false},
});

/// The row of `member` in kEngineStatFields.
template <class T>
constexpr std::size_t stat_field_index(T EngineStats::*member) {
  for (std::size_t i = 0; i < kEngineStatFields.size(); ++i) {
    const auto* row =
        std::get_if<T EngineStats::*>(&kEngineStatFields[i].member);
    if (row != nullptr && *row == member) return i;
  }
  throw std::logic_error("EngineStats member without a kEngineStatFields row");
}

/// A field's value as a double (the campaign percentiles).
double stat_value(const EngineStats& stats, const StatField& field);

/// Streams a field's value: integers as integers, doubles at the stream's
/// precision.
void write_stat(std::ostream& out, const EngineStats& stats,
                const StatField& field);

/// Every field as one JSON object keyed by StatField::key (shard results,
/// --stats-json).
json::Value engine_stats_to_json(const EngineStats& stats);

/// The inverse; throws std::runtime_error when a field is missing, negative,
/// or out of its member's range.
EngineStats engine_stats_from_json(const json::Value& value);

struct RunResult {
  std::vector<std::int64_t> outputs;
  /// Local round in which each node finished (0-based), or max_rounds if it
  /// was cut off.
  std::vector<std::int64_t> finish_rounds;
  /// Global round in which each node finished (equals finish_rounds in the
  /// simultaneous mode; later under staggered wake-ups).
  std::vector<std::int64_t> global_finish_rounds;
  /// True when every node finished of its own accord before the cutoff.
  bool all_finished = false;
  /// The LOCAL running time: max over nodes of (local finish round + 1);
  /// 0 for the empty graph.
  std::int64_t rounds_used = 0;
  /// Global (wall) rounds the synchronizer mode consumed; equals rounds_used
  /// in the simultaneous mode.
  std::int64_t global_rounds = 0;
  std::int64_t messages_sent = 0;
  std::int64_t max_message_words = 0;
  EngineStats stats;
};

/// Reusable engine storage: arenas, span tables, struct-of-arrays node
/// state, receive scratch, and the thread pool. One workspace serves any
/// number of runs in sequence (buffers are cleared, capacity is kept), which
/// is how composed algorithms — the alternation driver, the `fastest`
/// operator, run_sequential stages — share one arena instead of
/// re-allocating per stage. Not safe to share between concurrent runs.
struct EngineWorkspaceState;
class EngineWorkspace {
 public:
  EngineWorkspace();
  ~EngineWorkspace();
  EngineWorkspace(EngineWorkspace&&) noexcept;
  EngineWorkspace& operator=(EngineWorkspace&&) noexcept;

  /// Engine-internal storage (opaque outside src/runtime/runner.cpp).
  EngineWorkspaceState& state() { return *state_; }

 private:
  std::unique_ptr<EngineWorkspaceState> state_;
};

/// Runs one algorithm on an instance, in options.workspace when one is lent.
RunResult run_local(const Instance& instance, const Algorithm& algorithm,
                    const RunOptions& options = {});

/// Runs algorithms in sequence (paper's A1;A2): each node starts algorithm
/// k+1 in the global round after it finished algorithm k (alpha-synchronizer
/// semantics), with each algorithm's input being the previous algorithm's
/// per-node output appended to the instance input. Returns one RunResult per
/// stage; the last stage's outputs are the composition's outputs. All stages
/// share one workspace (the lent one, or one for the whole sequence).
std::vector<RunResult> run_sequential(const Instance& instance,
                                      const std::vector<const Algorithm*>& algorithms,
                                      const RunOptions& options = {});

/// Post-hoc per-node termination time in the paper's non-simultaneous sense:
/// the least t such that the node finished (in global rounds) no later than
/// t rounds after every node within distance t of it had woken up.
std::vector<std::int64_t> termination_times(
    const Graph& graph, const std::vector<std::int64_t>& wake_rounds,
    const std::vector<std::int64_t>& global_finish_rounds);

}  // namespace unilocal
