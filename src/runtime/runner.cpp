#include "src/runtime/runner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "src/graph/csr.h"
#include "src/graph/params.h"
#include "src/runtime/frontier.h"
#include "src/runtime/telemetry.h"
#include "src/util/math.h"
#include "src/util/thread_pool.h"

namespace unilocal {

namespace {

/// Per-thread accumulators reduced after each round (keeps results
/// independent of the node-stepping interleave).
struct StepDelta {
  std::int64_t messages = 0;
  std::int64_t max_words = 0;
  /// A send replaced an earlier one on the same port this round, so
  /// max_words (folded over every write) must be retaken over final slots.
  bool overwrote = false;
  std::int64_t steps = 0;
  /// Of steps, how many the wake check counted without a kernel call.
  std::int64_t quiet = 0;
  std::int64_t batched_steps = 0;
  std::int64_t batch_calls = 0;
  NodeId newly_finished = 0;
  NodeId cut_off = 0;
  /// Per-phase bucket sizes of this thread's step_bucketed calls; filled
  /// only while a traced round is in flight (empty otherwise).
  std::vector<std::int64_t> phase_sizes;
};

/// Publishes one finished run's counters into the installed metrics
/// registry; a single null check when none is installed. Sum rows are
/// counters and max rows gauges ("engine.<key>"); the registry sums and
/// maxes them again across its per-thread cells, so the merged snapshot is
/// identical for any worker-thread placement of runs. Timings, the thread
/// count and the last-wins final_live_nodes are not metrics.
void publish_engine_metrics(const EngineStats& stats, std::int64_t rounds) {
  telemetry::MetricsRegistry* reg = telemetry::metrics();
  if (reg == nullptr) return;
  reg->add("engine.runs", 1);
  reg->observe("engine.rounds", rounds);
  for (const StatField& field : kEngineStatFields) {
    const auto* member =
        std::get_if<std::int64_t EngineStats::*>(&field.member);
    if (member == nullptr) continue;
    const std::string name = std::string("engine.") + field.key;
    if (field.merge == StatMerge::kSum) reg->add(name, stats.**member);
    if (field.merge == StatMerge::kMax) reg->record_max(name, stats.**member);
  }
}

}  // namespace

void EngineStats::merge(const EngineStats& other) {
  for (const StatField& field : kEngineStatFields) {
    std::visit(
        [&](auto member) {
          auto& mine = this->*member;
          const auto theirs = other.*member;
          switch (field.merge) {
            case StatMerge::kSum: mine += theirs; break;
            case StatMerge::kMax: mine = std::max(mine, theirs); break;
            case StatMerge::kLast: mine = theirs; break;
            case StatMerge::kDerived: break;
          }
        },
        field.member);
  }
  steps_per_second = elapsed_seconds > 0.0
                         ? static_cast<double>(total_steps) / elapsed_seconds
                         : 0.0;
}

double stat_value(const EngineStats& stats, const StatField& field) {
  return std::visit(
      [&](auto member) { return static_cast<double>(stats.*member); },
      field.member);
}

void write_stat(std::ostream& out, const EngineStats& stats,
                const StatField& field) {
  std::visit([&](auto member) { out << stats.*member; }, field.member);
}

json::Value engine_stats_to_json(const EngineStats& stats) {
  json::Value out = json::Value::object();
  for (const StatField& field : kEngineStatFields) {
    std::visit(
        [&](auto member) {
          const auto value = stats.*member;
          if constexpr (std::is_floating_point_v<decltype(value)>)
            out.set(field.key, json::Value::number(value));
          else
            out.set(field.key,
                    json::Value::number(static_cast<std::int64_t>(value)));
        },
        field.member);
  }
  return out;
}

EngineStats engine_stats_from_json(const json::Value& value) {
  EngineStats stats;
  for (const StatField& field : kEngineStatFields) {
    std::visit(
        [&](auto member) {
          auto& target = stats.*member;
          using T = std::remove_reference_t<decltype(target)>;
          if constexpr (std::is_floating_point_v<T>)
            target = value.at(field.key).as_double();
          else
            target = json::int_field<T>(value, field.key);
          if (target < 0)
            throw std::runtime_error(std::string("engine stats: \"") +
                                     field.key + "\" is negative");
        },
        field.member);
  }
  return stats;
}

/// All storage the engine needs, owned by EngineWorkspace so consecutive
/// runs (alternation steps, run_sequential stages) reuse capacity.
struct EngineWorkspaceState {
  // Struct-of-arrays node state. proc_arena backs the procs' storage and is
  // declared first so the (no-op-delete) Process destructors in ~procs run
  // while its chunks are still alive.
  ProcessArena proc_arena;
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<Rng> rngs;
  std::vector<char> finished;
  std::vector<std::int64_t> outputs;
  std::vector<std::int64_t> local_round;
  std::vector<std::int64_t> finish_local;
  std::vector<std::int64_t> finish_global;

  // Delivery layers (src/runtime/network.h), owned here so consecutive
  // runs reuse their capacity: the double-buffered round arena of the
  // simultaneous mode and the event-queue transport of the delayed mode.
  SynchronousNetwork sim_net;
  DelayedNetwork delayed_net;

  // Delayed-mode scheduling state: pending[v] counts in-edges still owing
  // rounds below v's next local round (v is eligible exactly when awake,
  // unfinished, and pending == 0); step_heap is the (time, node) min-heap
  // of eligible steps, merged against the network's delivery queue.
  std::vector<std::int32_t> pending;
  std::vector<std::pair<std::int64_t, NodeId>> step_heap;

  // Compacted list of unfinished nodes (simultaneous mode), ascending; the
  // per-round thread chunks partition this list, not the node-id space.
  std::vector<NodeId> live;
  // Simultaneous mode under a kernel with a wake_fn: wake[v] is the first
  // round in which v acts without mail, declared after its last real step
  // (0 = every round until then). Written by the thread that stepped v and
  // read next round by whichever thread holds v's chunk, across the round
  // barrier.
  std::vector<std::int64_t> wake;

  // Grow-only history arena (synchronizer mode): hist[e][i] = what the
  // owner of directed edge e emitted in its local round i.
  std::vector<std::vector<Span>> hist;
  std::vector<std::int64_t> hist_words;

  // Synchronizer scheduling state: lag[v] counts unfinished neighbours
  // whose local round trails v's (v is eligible exactly when awake and
  // lag == 0); stepped_round stamps the global round of v's last step so
  // counter maintenance can reconstruct pre-round values.
  std::vector<std::int32_t> lag;
  std::vector<std::int64_t> stepped_round;
  std::vector<NodeId> frontier, next_frontier, candidates;
  StampSet queued, candidate_set;
  WakeSchedule wake_schedule;

  // Packed per-node kernel state (stride-aligned records; see
  // src/runtime/kernel.h) and the per-port word arena, used instead of
  // procs when the run goes through a StepKernel.
  std::vector<std::byte> kernel_state;
  std::vector<std::int64_t> kernel_port_state;

  // Per-thread receive scratch: Message materializations per port with
  // epoch tags so capacity survives across nodes and rounds; sent_stamp
  // holds, per port, the simultaneous-mode step (round * n + node) that
  // last sent on it; kwords is the reusable int64 scratch handed to kernels
  // as KernelCtx::scratch; awake lists the nodes of the thread's live slice
  // that pass the wake check; bucket_nodes/bucket_rounds are the
  // phase-bucketing arrays of the batched kernel path (one slot per kernel
  // phase, capacity persists).
  struct Scratch {
    std::vector<Message> cache;
    std::vector<char> present;
    std::vector<std::uint64_t> epoch;
    std::uint64_t cur_epoch = 0;
    std::vector<std::int64_t> sent_stamp;
    std::vector<std::int64_t> kwords;
    std::vector<NodeId> awake;
    std::vector<std::vector<NodeId>> bucket_nodes;
    std::vector<std::vector<std::int64_t>> bucket_rounds;
  };
  std::vector<Scratch> scratch;

  std::unique_ptr<ThreadPool> pool;
};

EngineWorkspace::EngineWorkspace()
    : state_(std::make_unique<EngineWorkspaceState>()) {}
EngineWorkspace::~EngineWorkspace() = default;
EngineWorkspace::EngineWorkspace(EngineWorkspace&&) noexcept = default;
EngineWorkspace& EngineWorkspace::operator=(EngineWorkspace&&) noexcept =
    default;

namespace {

class ArenaEngine {
 public:
  ArenaEngine(const Instance& instance, const Algorithm& algorithm,
              const RunOptions& options, EngineWorkspaceState& ws)
      : instance_(instance),
        csr_(instance.csr()),
        options_(options),
        ws_(ws),
        n_(instance.graph.num_nodes()) {
    validate_network_options(options.network);
    delayed_mode_ = options.network.kind == NetworkKind::kDelayed;
    // The synchronizer and delayed event loops are sequential; only the
    // simultaneous mode fans the live list out over threads.
    threads_ = options.wake_rounds.empty() && !delayed_mode_
                   ? std::max(1, options.num_threads)
                   : 1;
    threads_ = std::min(threads_, 1 << 14);  // owner tag fits pack_offset
    if (threads_ > 1) {
      if (!ws_.pool || ws_.pool->threads() != threads_)
        ws_.pool = std::make_unique<ThreadPool>(threads_);
    }

    // Ambient per-thread trace binding: read once per run; when none is
    // bound the only per-round cost is the trace_ null test.
    trace_ = telemetry::trace_binding();
    if (trace_ != nullptr && trace_->recorder == nullptr) trace_ = nullptr;

    if (options.kernel_mode != KernelMode::kOff) {
      kernel_ = algorithm.kernel();
      if (kernel_ == nullptr && options.kernel_mode == KernelMode::kOn)
        throw std::runtime_error("kernel mode 'on' but algorithm '" +
                                 algorithm.name() + "' has no kernel lowering");
      if (kernel_ != nullptr) {
        if (kernel_->phases.empty())
          throw std::runtime_error("kernel '" + kernel_->name +
                                   "' has no phases");
        for (const KernelPhase& phase : kernel_->phases) {
          if (phase.fn == nullptr)
            throw std::runtime_error("kernel '" + kernel_->name +
                                     "' phase '" + phase.name +
                                     "' has a null step function");
          if (phase.batch != nullptr) kernel_has_batch_ = true;
        }
      }
    }

    const std::size_t nn = static_cast<std::size_t>(n_);
    // Destroy any previous run's processes before reclaiming their arena.
    ws_.procs.clear();
    ws_.proc_arena.reset();
    ws_.rngs.assign(nn, Rng(0));
    ws_.finished.assign(nn, 0);
    ws_.outputs.assign(nn, 0);
    ws_.local_round.assign(nn, 0);
    ws_.finish_local.assign(nn, -1);
    ws_.finish_global.assign(nn, -1);

    NodeId max_degree = 0;
    Rng base(options.seed);
    for (NodeId v = 0; v < n_; ++v) {
      ws_.rngs[static_cast<std::size_t>(v)] = base.split(
          static_cast<std::uint64_t>(
              instance.identities[static_cast<std::size_t>(v)]));
      max_degree = std::max(max_degree, csr_.degree(v));
    }

    if (kernel_ != nullptr) {
      // Pack every node's POD state record into one zero-filled arena
      // (stride = state_size rounded up to state_align, base aligned by
      // hand so vector reuse never mis-aligns records).
      const std::size_t align = std::max<std::size_t>(kernel_->state_align, 1);
      kstride_ = (static_cast<std::size_t>(kernel_->state_size) + align - 1) /
                 align * align;
      ws_.kernel_state.assign(nn * kstride_ + align, std::byte{0});
      const auto addr =
          reinterpret_cast<std::uintptr_t>(ws_.kernel_state.data());
      kstate_base_ =
          ws_.kernel_state.data() +
          static_cast<std::size_t>((align - addr % align) % align);
      kport_words_ = kernel_->port_state_words;
      ws_.kernel_port_state.assign(
          kport_words_ * static_cast<std::size_t>(csr_.num_directed_edges()),
          0);
      if (kernel_->init_fn != nullptr) {
        for (NodeId v = 0; v < n_; ++v) {
          NodeInit init;
          init.degree = csr_.degree(v);
          init.identity = instance.identities[static_cast<std::size_t>(v)];
          init.input = instance.inputs[static_cast<std::size_t>(v)];
          kernel_->init_fn(kstate_base_ + static_cast<std::size_t>(v) * kstride_,
                           init, kernel_->config.get());
        }
      }
    } else {
      // Vtable path: spawn all processes through the workspace bump arena
      // (one pair of chunks instead of n individual heap allocations).
      ws_.procs.reserve(nn);
      ProcessArena::Scope arena_scope(ws_.proc_arena);
      for (NodeId v = 0; v < n_; ++v) {
        NodeInit init;
        init.degree = csr_.degree(v);
        init.identity = instance.identities[static_cast<std::size_t>(v)];
        init.input = instance.inputs[static_cast<std::size_t>(v)];
        ws_.procs.push_back(algorithm.spawn(init));
      }
    }

    ws_.scratch.resize(static_cast<std::size_t>(threads_));
    for (auto& scratch : ws_.scratch) {
      if (scratch.cache.size() < static_cast<std::size_t>(max_degree)) {
        scratch.cache.resize(static_cast<std::size_t>(max_degree));
        scratch.present.resize(static_cast<std::size_t>(max_degree), 0);
        scratch.epoch.resize(static_cast<std::size_t>(max_degree), 0);
      }
      scratch.sent_stamp.assign(static_cast<std::size_t>(max_degree), -1);
    }

    backends_.reserve(static_cast<std::size_t>(threads_));
    for (int t = 0; t < threads_; ++t) backends_.push_back(Backend{this, t});
  }

  RunResult run_simultaneous() {
    const auto start = std::chrono::steady_clock::now();
    begin_trace_run();
    const std::size_t slots = static_cast<std::size_t>(
        csr_.num_directed_edges());
    SynchronousNetwork& net = ws_.sim_net;
    net.begin_run(slots, n_, threads_);

    ws_.live.resize(static_cast<std::size_t>(n_));
    std::iota(ws_.live.begin(), ws_.live.end(), NodeId{0});
    // has_mail is exact only here, so only this loop skips quiet nodes.
    waking_ = kernel_ != nullptr && kernel_->wake_fn != nullptr;
    if (waking_) ws_.wake.assign(static_cast<std::size_t>(n_), 0);

    deltas_.assign(static_cast<std::size_t>(threads_), StepDelta{});
    NodeId live = n_;
    peak_live_ = n_;
    std::int64_t prev_round_messages =
        static_cast<std::int64_t>(slots);  // round 0 assumes a dense start
    std::int64_t round = 0;
    for (; live > 0 && round < options_.max_rounds; ++round) {
      const bool traced = begin_trace_round();
      const std::int64_t trace_t0 =
          traced ? trace_->recorder->now() : 0;
      net.begin_round(round, prev_round_messages);
      sim_round_ = round;
      sim_inbox_ = net.inbox();
      peak_frontier_ = std::max<std::int64_t>(peak_frontier_, live);
      std::int64_t round_messages = 0;
      std::int64_t round_steps = 0, round_quiet = 0;
      std::int64_t round_batched = 0, round_batch_calls = 0;
      const std::size_t live_n = ws_.live.size();
      if (threads_ == 1) {
        step_range(0, 0, live_n, round);
      } else {
        // Rebalance every round: chunk the compacted live list, not the
        // node-id space, so workers stay busy as the frontier shrinks.
        const std::size_t chunk =
            (live_n + static_cast<std::size_t>(threads_) - 1) /
            static_cast<std::size_t>(threads_);
        ws_.pool->run(threads_, [&](int t) {
          const std::size_t lo =
              std::min(live_n, static_cast<std::size_t>(t) * chunk);
          const std::size_t hi = std::min(live_n, lo + chunk);
          step_range(t, lo, hi, round);
        });
      }
      for (auto& delta : deltas_) {
        live -= delta.newly_finished;
        messages_sent_ += delta.messages;
        round_messages += delta.messages;
        max_message_words_ = std::max(max_message_words_, delta.max_words);
        total_steps_ += delta.steps;
        round_steps += delta.steps;
        round_quiet += delta.quiet;
        batched_steps_ += delta.batched_steps;
        batch_calls_ += delta.batch_calls;
        cut_off_ += delta.cut_off;
        round_batched += delta.batched_steps;
        round_batch_calls += delta.batch_calls;
        if (traced && !delta.phase_sizes.empty()) {
          if (trace_phases_.size() < delta.phase_sizes.size())
            trace_phases_.resize(delta.phase_sizes.size(), 0);
          for (std::size_t p = 0; p < delta.phase_sizes.size(); ++p)
            trace_phases_[p] += delta.phase_sizes[p];
        }
        delta = StepDelta{};
      }
      peak_round_messages_ =
          std::max(peak_round_messages_, round_messages);
      prev_round_messages = round_messages;
      net.end_round();
      erase_finished(ws_.live, ws_.finished);
      if (traced) {
        telemetry::TraceEvent event = make_round_event(trace_t0);
        event.arg("round", round);
        event.arg("frontier", static_cast<std::int64_t>(live_n));
        event.arg("messages", round_messages);
        event.arg("steps", round_steps);
        event.arg("quiet", round_quiet);
        if (kernel_has_batch_) {
          event.arg("batched_steps", round_batched);
          event.arg("batch_calls", round_batch_calls);
        }
        attach_phase_sizes(event);
        trace_->recorder->record(std::move(event));
      }
      if (live == 0) {
        ++round;
        break;
      }
    }
    net.end_run();
    dirty_cleared_ = net.dirty_cleared();
    final_live_ = live;
    RunResult result = finalize(live, round, round);
    fill_stats(result, start);
    return result;
  }

  RunResult run_synchronized(const std::vector<std::int64_t>& wake_rounds) {
    const auto start = std::chrono::steady_clock::now();
    begin_trace_run();
    assert(wake_rounds.size() == static_cast<std::size_t>(n_));
    const std::size_t slots = static_cast<std::size_t>(
        csr_.num_directed_edges());
    ws_.hist.resize(slots);
    for (auto& h : ws_.hist) h.clear();
    ws_.hist_words.clear();
    sync_mode_ = true;

    const std::size_t nn = static_cast<std::size_t>(n_);
    ws_.lag.assign(nn, 0);
    ws_.stepped_round.assign(nn, -1);
    ws_.queued.reset(nn);
    ws_.candidate_set.reset(nn);
    ws_.wake_schedule.init(wake_rounds);
    ws_.frontier.clear();
    ws_.next_frontier.clear();
    ws_.candidates.clear();

    NodeId live = n_;
    peak_live_ = n_;
    std::int64_t global = 0;
    std::int64_t max_wake = 0;
    for (std::int64_t w : wake_rounds) max_wake = std::max(max_wake, w);
    const std::int64_t global_cap = sat_add(
        max_wake,
        sat_add(sat_mul(4, sat_add(options_.max_rounds, 1)),
                4 * static_cast<std::int64_t>(n_) + 16));
    auto& frontier = ws_.frontier;
    while (live > 0 && global < global_cap) {
      // Admit nodes whose wake round has arrived. A node that has never
      // stepped holds the minimum local round, so its lag counter is
      // necessarily 0 and it goes straight onto the frontier; a node whose
      // counter rose after waking re-enters through the candidate pass when
      // the counter returns to 0.
      ws_.wake_schedule.admit(global, [&](NodeId v) {
        const std::size_t vi = static_cast<std::size_t>(v);
        if (!ws_.finished[vi] && ws_.lag[vi] == 0 &&
            ws_.queued.insert(vi, global))
          frontier.push_back(v);
      });
      if (frontier.empty()) {
        // Every unfinished node is asleep or transitively waiting on a
        // sleeper; the reference engine spins no-op global rounds here, so
        // jumping the clock to the next unfinished wake-up is observation-
        // equivalent and O(1) per skipped stretch.
        const auto next = ws_.wake_schedule.next_pending(ws_.finished);
        global = next.has_value() ? std::min(*next, global_cap) : global_cap;
        continue;
      }
      const bool traced = begin_trace_round();
      const std::int64_t trace_t0 =
          traced ? trace_->recorder->now() : 0;
      peak_frontier_ = std::max<std::int64_t>(
          peak_frontier_, static_cast<std::int64_t>(frontier.size()));
      std::int64_t round_messages = 0;
      const std::int64_t steps_before = total_steps_;
      const std::int64_t batched_before = batched_steps_;
      const std::int64_t batch_calls_before = batch_calls_;
      // Phase 1: step the frontier — exactly the eligible snapshot the
      // per-round rescan used to recompute. A batch-capable kernel steps it
      // phase-bucketed first (frontier nodes are mutually independent this
      // global round: the lag counters guarantee no node reads a message a
      // frontier peer sends in the same global round), then the per-node
      // padding/accounting pass runs unchanged.
      for (const NodeId v : frontier)
        ws_.stepped_round[static_cast<std::size_t>(v)] = global;
      if (kernel_has_batch_)
        step_bucketed(0, frontier.data(), frontier.size(), -1,
                      &batched_steps_, &batch_calls_,
                      traced ? &trace_phases_ : nullptr);
      for (const NodeId v : frontier) {
        const std::size_t vi = static_cast<std::size_t>(v);
        const std::int64_t r = ws_.local_round[vi];
        if (!kernel_has_batch_) step_one(0, v, r);
        // Pad ports that stayed silent so hist[e] stays indexed by the
        // sender's local round, then account the round's traffic.
        const std::int64_t base = csr_.offset(v);
        const NodeId deg = csr_.degree(v);
        for (NodeId j = 0; j < deg; ++j) {
          auto& h = ws_.hist[static_cast<std::size_t>(base + j)];
          if (static_cast<std::int64_t>(h.size()) <= r) h.push_back(Span{});
          const Span& s = h.back();
          if (s.words >= 0) {
            ++messages_sent_;
            ++round_messages;
            max_message_words_ = std::max(max_message_words_, s.words);
          }
        }
        ++ws_.local_round[vi];
        ++total_steps_;
        if (ws_.finished[vi]) {
          ws_.finish_local[vi] = r;
          ws_.finish_global[vi] = global;
          --live;
        } else if (ws_.local_round[vi] >= options_.max_rounds) {
          ws_.finished[vi] = 1;
          ws_.outputs[vi] = options_.default_output;
          ++cut_off_;
          ws_.finish_local[vi] = options_.max_rounds;
          ws_.finish_global[vi] = global;
          --live;
        }
      }
      // Phase 2: dependency-counter maintenance. For each edge touched by a
      // step, re-derive both directions' "lags me" contributions from the
      // before/after local rounds (the stepped_round stamp reconstructs a
      // stepped neighbour's pre-round value). Everything whose counter
      // moved — plus every surviving stepped node — becomes a candidate.
      for (const NodeId v : frontier) {
        const std::size_t vi = static_cast<std::size_t>(v);
        const std::int64_t r_v = ws_.local_round[vi] - 1;  // pre-step round
        const bool fin_v = ws_.finished[vi] != 0;
        const NodeId deg = csr_.degree(v);
        for (NodeId j = 0; j < deg; ++j) {
          const NodeId u = csr_.neighbor(v, j);
          const std::size_t ui = static_cast<std::size_t>(u);
          const bool u_stepped = ws_.stepped_round[ui] == global;
          if (!ws_.finished[ui]) {
            // v's contribution to lag[u], before vs after v's step.
            const std::int64_t lr_u_before =
                ws_.local_round[ui] - (u_stepped ? 1 : 0);
            const int before = r_v < lr_u_before ? 1 : 0;
            const int after =
                (!fin_v && r_v + 1 < ws_.local_round[ui]) ? 1 : 0;
            if (after != before) {
              ws_.lag[ui] += after - before;
              if (ws_.candidate_set.insert(ui, global))
                ws_.candidates.push_back(u);
            }
          }
          if (!u_stepped && !fin_v) {
            // The unchanged neighbour u newly lags v exactly when it sits
            // at v's pre-step round.
            if (!ws_.finished[ui] && ws_.local_round[ui] == r_v)
              ++ws_.lag[vi];
          }
        }
        if (!fin_v && ws_.candidate_set.insert(vi, global))
          ws_.candidates.push_back(v);
      }
      // Phase 3: the next frontier is exactly the candidates that ended the
      // round awake, unfinished, and unlagged.
      for (const NodeId c : ws_.candidates) {
        const std::size_t ci = static_cast<std::size_t>(c);
        if (!ws_.finished[ci] && ws_.lag[ci] == 0 &&
            wake_rounds[ci] <= global + 1 && ws_.queued.insert(ci, global + 1))
          ws_.next_frontier.push_back(c);
      }
      ws_.candidates.clear();
      peak_round_messages_ = std::max(peak_round_messages_, round_messages);
      if (traced) {
        telemetry::TraceEvent event = make_round_event(trace_t0);
        event.arg("global", global);
        event.arg("frontier", static_cast<std::int64_t>(frontier.size()));
        event.arg("messages", round_messages);
        event.arg("steps", total_steps_ - steps_before);
        if (kernel_has_batch_) {
          event.arg("batched_steps", batched_steps_ - batched_before);
          event.arg("batch_calls", batch_calls_ - batch_calls_before);
        }
        attach_phase_sizes(event);
        trace_->recorder->record(std::move(event));
      }
      std::swap(frontier, ws_.next_frontier);
      ws_.next_frontier.clear();
      ++global;
    }
    final_live_ = live;
    std::int64_t max_local = 0;
    for (NodeId v = 0; v < n_; ++v)
      max_local =
          std::max(max_local, ws_.local_round[static_cast<std::size_t>(v)]);
    RunResult result = finalize(live, max_local, global);
    fill_stats(result, start);
    return result;
  }

  /// The asynchronous mode: one merged event loop over message deliveries
  /// (the DelayedNetwork's queue) and node steps (ws_.step_heap), both in
  /// deterministic timestamp order with deliveries first at ties. This
  /// generalizes the synchronizer from round stamps to delivery timestamps:
  /// a node performs local round r once every in-edge's contiguous
  /// delivered prefix covers round r-1 (or is saturated — the sender
  /// finished and everything it pulsed has landed), which is exactly the
  /// alpha-synchronizer eligibility rule applied to what has physically
  /// arrived instead of what has been computed. When every pulse is
  /// eventually delivered, each node sees the same message contents in the
  /// same local rounds as the synchronous run, so outputs are bit-identical
  /// to it (the paper's Observation 2.1); drops past the retransmission cap
  /// and crashed nodes starve their neighbourhoods, the queues drain, and
  /// the loop exits cleanly with the survivors finalized as cut off.
  RunResult run_delayed(const std::vector<std::int64_t>& wake_rounds) {
    const auto start = std::chrono::steady_clock::now();
    begin_trace_run();
    DelayedNetwork& net = ws_.delayed_net;
    net.begin_run(csr_, options_.seed, options_.network);
    const std::size_t nn = static_cast<std::size_t>(n_);
    ws_.pending.assign(nn, 0);
    auto& steps = ws_.step_heap;
    steps.clear();
    const auto step_after = [](const std::pair<std::int64_t, NodeId>& a,
                               const std::pair<std::int64_t, NodeId>& b) {
      return a > b;  // (time, node) min-heap; nodes are queued at most once
    };
    const auto push_step = [&](std::int64_t time, NodeId v) {
      steps.emplace_back(time, v);
      std::push_heap(steps.begin(), steps.end(), step_after);
    };

    NodeId live = n_;
    peak_live_ = n_;
    // Round 0 needs no messages: every non-crashed node's first step is
    // scheduled at its wake time (plus a late joiner's extra delay).
    // Crashed nodes never step; they stay live and are finalized as cut
    // off, like any node starved past the cutoff.
    for (NodeId v = 0; v < n_; ++v) {
      if (net.crashed(v)) continue;
      const std::int64_t wake =
          (wake_rounds.empty()
               ? 0
               : wake_rounds[static_cast<std::size_t>(v)]) +
          net.wake_delay(v);
      push_step(wake, v);
    }

    std::int64_t global = 0;
    // Per-tick accounting: deliveries/steps sharing one timestamp form the
    // delayed mode's analogue of a round for the peak stats.
    std::int64_t cur_tick = -1;
    std::int64_t tick_messages = 0, tick_steps = 0;
    const auto enter_tick = [&](std::int64_t time) {
      if (time == cur_tick) return;
      peak_round_messages_ = std::max(peak_round_messages_, tick_messages);
      peak_frontier_ = std::max(peak_frontier_, tick_steps);
      cur_tick = time;
      tick_messages = tick_steps = 0;
    };
    while (live > 0) {
      std::int64_t delivery_time = 0;
      const bool has_delivery = net.next_delivery_time(&delivery_time);
      const bool has_step = !steps.empty();
      if (!has_delivery && !has_step) break;  // stall: starved dependencies
      if (has_delivery && (!has_step || delivery_time <= steps[0].first)) {
        DelayedNetwork::Delivery d;
        net.pop_delivery(&d);
        global = std::max(global, d.time);
        enter_tick(d.time);
        if (d.payload) ++tick_messages;
        const std::size_t ui = static_cast<std::size_t>(d.receiver);
        // A receiver waiting on this edge (stepped at least once, so its
        // pending count is current) may become eligible. Nodes that never
        // stepped need nothing (round 0), so prefix_before < need is
        // impossible for them and the update is skipped naturally — but
        // finished/crashed receivers must be skipped explicitly.
        if (!ws_.finished[ui] && !net.crashed(d.receiver) &&
            ws_.local_round[ui] > 0) {
          const std::int64_t need = ws_.local_round[ui];
          const bool was_blocking =
              !d.saturated_before && d.prefix_before < need;
          const bool now_ready = d.saturated_after || d.prefix_after >= need;
          if (was_blocking && now_ready && --ws_.pending[ui] == 0)
            push_step(d.time, d.receiver);
        }
        continue;
      }
      const auto [now, v] = steps[0];
      std::pop_heap(steps.begin(), steps.end(), step_after);
      steps.pop_back();
      global = std::max(global, now);
      enter_tick(now);
      ++tick_steps;
      const std::size_t vi = static_cast<std::size_t>(v);
      const std::int64_t r = ws_.local_round[vi];
      step_one(0, v, r);
      ++total_steps_;
      ++ws_.local_round[vi];
      if (ws_.finished[vi]) {
        ws_.finish_local[vi] = r;
        ws_.finish_global[vi] = now;
        --live;
      } else if (ws_.local_round[vi] >= options_.max_rounds) {
        ws_.finished[vi] = 1;
        ws_.outputs[vi] = options_.default_output;
        ++cut_off_;
        ws_.finish_local[vi] = options_.max_rounds;
        ws_.finish_global[vi] = now;
        --live;
      }
      // Flush the step's pulses AFTER the finish bookkeeping so a finishing
      // (or cut-off) node's last-round traffic goes out flagged final —
      // receivers saturate those edges instead of waiting forever. The
      // messages of the finishing step are still delivered, matching the
      // synchronous modes.
      const auto delta =
          net.flush_node(v, r, now, ws_.finished[vi] != 0);
      messages_sent_ += delta.messages;
      max_message_words_ = std::max(max_message_words_, delta.max_words);
      if (!ws_.finished[vi]) {
        // Recount the in-edges still owing rounds below the new local
        // round; an immediately-satisfied node re-queues at the same tick.
        const std::int64_t need = ws_.local_round[vi];
        std::int32_t owing = 0;
        const NodeId deg = csr_.degree(v);
        for (NodeId j = 0; j < deg; ++j) {
          const std::int64_t e = csr_.in_edge_index(v, j);
          if (!net.saturated(e) && net.prefix(e) < need) ++owing;
        }
        ws_.pending[vi] = owing;
        if (owing == 0) push_step(now, v);
      }
    }
    enter_tick(cur_tick + 1);  // flush the last tick's peaks
    final_live_ = live;
    std::int64_t max_local = 0;
    for (NodeId v = 0; v < n_; ++v)
      max_local =
          std::max(max_local, ws_.local_round[static_cast<std::size_t>(v)]);
    RunResult result = finalize(live, max_local, global);
    fill_stats(result, start);
    return result;
  }

 private:
  struct Backend final : ContextBackend {
    Backend(ArenaEngine* e, int t) : engine(e), tid(t) {}
    ArenaEngine* engine;
    int tid;
    void send_words(NodeId node, NodeId port, const std::int64_t* data,
                    std::size_t words) override {
      engine->do_send(tid, node, port, data, words);
    }
    std::span<const std::int64_t> recv_words(NodeId node, NodeId port,
                                             bool* present) override {
      return engine->do_recv(tid, node, port, present);
    }
    const Message* recv_message(NodeId node, NodeId port) override {
      return engine->do_recv_message(tid, node, port);
    }
  };

  void do_send(int tid, NodeId node, NodeId port, const std::int64_t* data,
               std::size_t words) {
    if (delayed_mode_) {
      // Staged per port; the event loop flushes the whole step's pulses
      // (with their latency/fault draws) after the step returns.
      ws_.delayed_net.stage(port, data, words);
      return;
    }
    if (!sync_mode_) {
      // Count the message at the port's first send of the step; a resend
      // replaces it, and then the round max over writes may exceed the
      // final messages, so step_range recomputes it.
      StepDelta& delta = deltas_[static_cast<std::size_t>(tid)];
      std::int64_t& stamp = ws_.scratch[static_cast<std::size_t>(tid)]
                                .sent_stamp[static_cast<std::size_t>(port)];
      const std::int64_t step = sim_round_ * n_ + node;
      const bool first = stamp != step;
      stamp = step;
      ws_.sim_net.send(tid, csr_.neighbor(node, port),
                       csr_.in_edge_index(node, port), data, words, first);
      if (first)
        ++delta.messages;
      else
        delta.overwrote = true;
      delta.max_words =
          std::max(delta.max_words, static_cast<std::int64_t>(words));
      return;
    }
    const std::int64_t r = ws_.local_round[static_cast<std::size_t>(node)];
    auto& h =
        ws_.hist[static_cast<std::size_t>(csr_.edge_index(node, port))];
    Span s;
    s.offset = static_cast<std::int64_t>(ws_.hist_words.size());
    s.words = static_cast<std::int64_t>(words);
    ws_.hist_words.insert(ws_.hist_words.end(), data, data + words);
    if (static_cast<std::int64_t>(h.size()) <= r)
      h.push_back(s);     // first send on this port this round
    else
      h.back() = s;       // resend: last write wins
  }

  /// Zero-copy arena lookup. In the synchronizer mode the returned span
  /// points into hist_words_, which a same-step send may reallocate — only
  /// do_recv/do_recv_message (which copy through the scratch) may hold it.
  std::span<const std::int64_t> raw_recv(NodeId node, NodeId port,
                                         bool* present) {
    if (delayed_mode_) {
      // Eligibility guarantees the previous round's pulse has been
      // delivered on every non-saturated in-edge, so this lookup sees
      // exactly what the synchronous run would.
      return ws_.delayed_net.recv(
          csr_.in_edge_index(node, port),
          ws_.local_round[static_cast<std::size_t>(node)] - 1, present);
    }
    if (!sync_mode_)
      return ws_.sim_net.recv(csr_.edge_index(node, port), present);
    const std::int64_t want =
        ws_.local_round[static_cast<std::size_t>(node)] - 1;
    const auto& h = ws_.hist[static_cast<std::size_t>(
        csr_.in_edge_index(node, port))];
    if (want < 0 || want >= static_cast<std::int64_t>(h.size())) {
      *present = false;
      return {};
    }
    const Span s = h[static_cast<std::size_t>(want)];
    if (s.words < 0) {
      *present = false;
      return {};
    }
    *present = true;
    return {ws_.hist_words.data() + s.offset,
            static_cast<std::size_t>(s.words)};
  }

  std::span<const std::int64_t> do_recv(int tid, NodeId node, NodeId port,
                                        bool* present) {
    // The simultaneous mode reads the receive half, which no send of this
    // round can touch, and the delayed mode's payload arena only grows
    // between steps — both raw spans honour Context::received_span's
    // valid-for-the-step contract directly. The synchronizer mode's history
    // arena grows on send, so hand out the step-stable scratch copy instead.
    if (!sync_mode_) return raw_recv(node, port, present);
    const Message* m = do_recv_message(tid, node, port);
    if (m == nullptr) {
      *present = false;
      return {};
    }
    *present = true;
    return *m;
  }

  const Message* do_recv_message(int tid, NodeId node, NodeId port) {
    auto& scratch = ws_.scratch[static_cast<std::size_t>(tid)];
    const std::size_t p = static_cast<std::size_t>(port);
    if (scratch.epoch[p] != scratch.cur_epoch) {
      bool present = false;
      const auto words = raw_recv(node, port, &present);
      scratch.epoch[p] = scratch.cur_epoch;
      scratch.present[p] = present ? 1 : 0;
      if (present) scratch.cache[p].assign(words.begin(), words.end());
    }
    return scratch.present[p] ? &scratch.cache[p] : nullptr;
  }

  // Non-virtual transport installed into every KernelCtx. Receives are the
  // zero-copy arena lookup (kernels honour the read-before-send contract, so
  // the vtable path's defensive scratch copy is unnecessary); the
  // simultaneous mode never calls kernel_recv, because its kernels read
  // their inbox in place. Sends share do_send with the vtable path.
  static std::span<const std::int64_t> kernel_recv(void* engine, int tid,
                                                   NodeId node, NodeId port,
                                                   bool* present) {
    (void)tid;
    return static_cast<ArenaEngine*>(engine)->raw_recv(node, port, present);
  }
  static void kernel_send(void* engine, int tid, NodeId node, NodeId port,
                          const std::int64_t* data, std::size_t words) {
    static_cast<ArenaEngine*>(engine)->do_send(tid, node, port, data, words);
  }

  /// One local round of node v through the flat kernel: no Process::step
  /// virtual call, no ContextBackend hops, no per-port Message copies.
  void step_kernel_phase(int tid, NodeId v, std::int64_t round,
                         std::size_t phase) {
    const std::size_t vi = static_cast<std::size_t>(v);
    KernelCtx ctx;
    ctx.node = v;
    ctx.degree = csr_.degree(v);
    ctx.identity = instance_.identities[vi];
    ctx.round = round;
    ctx.input = instance_.inputs[vi];
    ctx.rng = &ws_.rngs[vi];
    ctx.state = kstate_base_ + vi * kstride_;
    ctx.port_state =
        kport_words_ == 0
            ? nullptr
            : ws_.kernel_port_state.data() +
                  static_cast<std::size_t>(csr_.offset(v)) * kport_words_;
    ctx.config = kernel_->config.get();
    ctx.scratch = &ws_.scratch[static_cast<std::size_t>(tid)].kwords;
    if (sim_inbox_.mail != nullptr) {
      ctx.inbox = sim_inbox_.slots + csr_.offset(v);
      ctx.overflow = sim_inbox_.overflow;
      ctx.has_mail = sim_inbox_.has_mail(v);
    }
    ctx.engine = this;
    ctx.tid = tid;
    ctx.recv_fn = &ArenaEngine::kernel_recv;
    ctx.send_fn = &ArenaEngine::kernel_send;
    kernel_->phases[phase].fn(ctx);
    if (ctx.finished) {
      ws_.finished[vi] = 1;
      ws_.outputs[vi] = ctx.output;
    }
  }

  void step_kernel(int tid, NodeId v, std::int64_t round) {
    const std::byte* state =
        kstate_base_ + static_cast<std::size_t>(v) * kstride_;
    step_kernel_phase(tid, v, round,
                      kernel_phase_index(*kernel_, round, state));
  }

  /// The batched bucket view over the engine arrays (KernelBatchCtx must
  /// mirror exactly what step_kernel_phase puts into a scalar KernelCtx).
  KernelBatchCtx make_batch_ctx(int tid, const NodeId* nodes,
                                const std::int64_t* rounds,
                                std::size_t count) {
    KernelBatchCtx b;
    b.nodes = nodes;
    b.rounds = rounds;
    b.count = count;
    b.state_base = kstate_base_;
    b.stride = kstride_;
    b.port_state_base =
        kport_words_ == 0 ? nullptr : ws_.kernel_port_state.data();
    b.port_words = static_cast<std::int64_t>(kport_words_);
    b.csr_offsets = csr_.offsets_data();
    b.identities = instance_.identities.data();
    b.inputs = instance_.inputs.data();
    b.rngs = ws_.rngs.data();
    b.finished = ws_.finished.data();
    b.outputs = ws_.outputs.data();
    b.scratch = &ws_.scratch[static_cast<std::size_t>(tid)].kwords;
    b.config = kernel_->config.get();
    b.inbox = sim_inbox_;
    b.engine = this;
    b.tid = tid;
    b.recv_fn = &ArenaEngine::kernel_recv;
    b.send_fn = &ArenaEngine::kernel_send;
    return b;
  }

  /// Phase-grouped kernel stepping: bucket `count` nodes by resolved
  /// kernel_phase_index (one pass over the strided state arena), then run
  /// each bucket through its phase's KernelBatchFn — or the scalar per-node
  /// loop when the phase has none. `uniform_round` >= 0 is the common local
  /// round (simultaneous mode); -1 reads each node's own ws_.local_round
  /// (synchronizer frontiers mix rounds). Bucketing reorders node steps,
  /// which is observation-equivalent: every node owns its RNG stream, its
  /// state record, and its per-edge send slots, and no node of one round's
  /// step set reads what another sent in the same set (simultaneous rounds
  /// deliver next round; synchronizer eligibility forbids same-global-round
  /// dependencies).
  void step_bucketed(int tid, const NodeId* nodes, std::size_t count,
                     std::int64_t uniform_round, std::int64_t* batched_steps,
                     std::int64_t* batch_calls,
                     std::vector<std::int64_t>* phase_sizes = nullptr) {
    auto& scratch = ws_.scratch[static_cast<std::size_t>(tid)];
    const std::size_t nphases = kernel_->phases.size();
    scratch.bucket_nodes.resize(nphases);
    scratch.bucket_rounds.resize(nphases);
    for (std::size_t p = 0; p < nphases; ++p) {
      scratch.bucket_nodes[p].clear();
      scratch.bucket_rounds[p].clear();
    }
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId v = nodes[i];
      const std::int64_t r =
          uniform_round >= 0 ? uniform_round
                             : ws_.local_round[static_cast<std::size_t>(v)];
      const std::size_t p = kernel_phase_index(
          *kernel_, r, kstate_base_ + static_cast<std::size_t>(v) * kstride_);
      scratch.bucket_nodes[p].push_back(v);
      scratch.bucket_rounds[p].push_back(r);
    }
    if (phase_sizes != nullptr) {
      phase_sizes->assign(nphases, 0);
      for (std::size_t p = 0; p < nphases; ++p)
        (*phase_sizes)[p] =
            static_cast<std::int64_t>(scratch.bucket_nodes[p].size());
    }
    for (std::size_t p = 0; p < nphases; ++p) {
      const auto& bucket = scratch.bucket_nodes[p];
      if (bucket.empty()) continue;
      const KernelPhase& phase = kernel_->phases[p];
      if (phase.batch != nullptr) {
        const KernelBatchCtx b = make_batch_ctx(
            tid, bucket.data(), scratch.bucket_rounds[p].data(),
            bucket.size());
        phase.batch(b);
        *batched_steps += static_cast<std::int64_t>(bucket.size());
        ++*batch_calls;
      } else {
        for (std::size_t i = 0; i < bucket.size(); ++i)
          step_kernel_phase(tid, bucket[i], scratch.bucket_rounds[p][i], p);
      }
    }
  }

  void step_one(int tid, NodeId v, std::int64_t round) {
    if (kernel_ != nullptr) {
      step_kernel(tid, v, round);
      return;
    }
    auto& scratch = ws_.scratch[static_cast<std::size_t>(tid)];
    ++scratch.cur_epoch;
    Context ctx = ContextAccess::make(
        &backends_[static_cast<std::size_t>(tid)], v, csr_.degree(v),
        instance_.identities[static_cast<std::size_t>(v)],
        instance_.inputs[static_cast<std::size_t>(v)], round,
        &ws_.rngs[static_cast<std::size_t>(v)]);
    ws_.procs[static_cast<std::size_t>(v)]->step(ctx);
    if (ContextAccess::finished(ctx)) {
      ws_.finished[static_cast<std::size_t>(v)] = 1;
      ws_.outputs[static_cast<std::size_t>(v)] = ContextAccess::output(ctx);
    }
  }

  /// Steps the live-list slice [lo, hi); every listed node is unfinished at
  /// round start (the list is compacted after each round).
  void step_range(int tid, std::size_t lo, std::size_t hi,
                  std::int64_t round) {
    StepDelta& delta = deltas_[static_cast<std::size_t>(tid)];
    // The wake check: a node whose declared wake round lies ahead and whose
    // inbox is empty is quiet. Its step is a no-op by the kernel's wake
    // contract, so only the bookkeeping loop below sees it.
    const NodeId* nodes = ws_.live.data() + lo;
    std::size_t count = hi - lo;
    if (waking_) {
      auto& awake = ws_.scratch[static_cast<std::size_t>(tid)].awake;
      awake.clear();
      for (std::size_t i = 0; i < count; ++i) {
        const NodeId v = nodes[i];
        if (ws_.wake[static_cast<std::size_t>(v)] <= round ||
            sim_inbox_.has_mail(v))
          awake.push_back(v);
      }
      delta.quiet += static_cast<std::int64_t>(count - awake.size());
      nodes = awake.data();
      count = awake.size();
    }
    if (kernel_has_batch_) {
      step_bucketed(tid, nodes, count, round, &delta.batched_steps,
                    &delta.batch_calls,
                    trace_round_active_ ? &delta.phase_sizes : nullptr);
    } else {
      for (std::size_t i = 0; i < count; ++i) step_one(tid, nodes[i], round);
    }
    if (waking_) {
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t vi = static_cast<std::size_t>(nodes[i]);
        if (!ws_.finished[vi])
          ws_.wake[vi] =
              kernel_wake(*kernel_, round, kstate_base_ + vi * kstride_);
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId v = ws_.live[i];
      ++delta.steps;
      ++ws_.local_round[static_cast<std::size_t>(v)];
      if (ws_.finished[static_cast<std::size_t>(v)]) {
        ws_.finish_local[static_cast<std::size_t>(v)] = round;
        ws_.finish_global[static_cast<std::size_t>(v)] = round;
        ++delta.newly_finished;
      } else if (ws_.local_round[static_cast<std::size_t>(v)] >=
                 options_.max_rounds) {
        ws_.finished[static_cast<std::size_t>(v)] = 1;
        ws_.outputs[static_cast<std::size_t>(v)] = options_.default_output;
        ++delta.cut_off;
        ws_.finish_local[static_cast<std::size_t>(v)] = options_.max_rounds;
        ws_.finish_global[static_cast<std::size_t>(v)] = round;
        ++delta.newly_finished;
      }
    }
    if (delta.overwrote) {
      delta.max_words = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        const NodeId v = ws_.live[i];
        for (NodeId j = 0; j < csr_.degree(v); ++j)
          delta.max_words = std::max(
              delta.max_words,
              ws_.sim_net.sent_words(csr_.in_edge_index(v, j)));
      }
    }
  }

  RunResult finalize(NodeId live, std::int64_t max_local,
                     std::int64_t global) {
    RunResult result;
    result.outputs.resize(static_cast<std::size_t>(n_));
    result.finish_rounds.resize(static_cast<std::size_t>(n_));
    result.global_finish_rounds.resize(static_cast<std::size_t>(n_));
    std::int64_t max_finish = -1;
    for (NodeId v = 0; v < n_; ++v) {
      const std::size_t i = static_cast<std::size_t>(v);
      result.outputs[i] =
          ws_.finished[i] ? ws_.outputs[i] : options_.default_output;
      result.finish_rounds[i] =
          ws_.finish_local[i] >= 0 ? ws_.finish_local[i] : options_.max_rounds;
      result.global_finish_rounds[i] =
          ws_.finish_global[i] >= 0 ? ws_.finish_global[i] : global;
      max_finish = std::max(max_finish, result.finish_rounds[i]);
    }
    result.all_finished = (live == 0 && cut_off_ == 0);
    result.rounds_used = n_ == 0 ? 0 : std::min(max_finish + 1, max_local);
    result.global_rounds = global;
    result.messages_sent = messages_sent_;
    result.max_message_words = max_message_words_;
    return result;
  }

  /// Trace helpers. begin_trace_run stamps the run's start on the recorder
  /// clock; begin_trace_round applies the per-run head-sampling cap and
  /// arms per-phase bucket-size collection for the round.
  void begin_trace_run() {
    if (trace_ == nullptr) return;
    trace_run_t0_ = trace_->recorder->now();
  }

  bool begin_trace_round() {
    const bool traced =
        trace_ != nullptr && trace_rounds_recorded_ < trace_->trace_rounds;
    trace_round_active_ = traced && kernel_has_batch_;
    if (traced) {
      ++trace_rounds_recorded_;
      trace_phases_.clear();
    }
    return traced;
  }

  telemetry::TraceEvent make_round_event(std::int64_t t0) {
    telemetry::TraceEvent event;
    event.name = "round";
    event.ts = t0;
    event.dur = trace_->recorder->now() - t0;
    event.pid = trace_->pid;
    event.tid = trace_->tid;
    event.arg("path", kernel_ != nullptr ? "kernel" : "vtable");
    return event;
  }

  void attach_phase_sizes(telemetry::TraceEvent& event) {
    if (trace_phases_.empty()) return;
    json::Value sizes = json::Value::array();
    for (const std::int64_t s : trace_phases_)
      sizes.push_back(json::Value::number(s));
    event.args.set("phases", std::move(sizes));
  }

  void fill_stats(RunResult& result,
                  std::chrono::steady_clock::time_point start) {
    auto& stats = result.stats;
    stats.total_steps = total_steps_;
    stats.kernel_steps = kernel_ != nullptr ? total_steps_ : 0;
    stats.vtable_steps = kernel_ != nullptr ? 0 : total_steps_;
    stats.kernel_batched_steps = batched_steps_;
    stats.kernel_batch_calls = batch_calls_;
    stats.peak_round_messages = peak_round_messages_;
    stats.total_messages = messages_sent_;
    stats.peak_live_nodes = peak_live_;
    stats.final_live_nodes = final_live_;
    stats.peak_frontier_nodes = peak_frontier_;
    stats.dirty_spans_cleared = dirty_cleared_;
    stats.threads = threads_;
    std::int64_t bytes = 0;
    if (delayed_mode_) {
      const DelayedNetwork& net = ws_.delayed_net;
      stats.messages_dropped = net.dropped();
      stats.messages_duplicated = net.duplicated();
      stats.max_delivery_skew = net.max_skew();
      bytes += net.arena_bytes();
      bytes += static_cast<std::int64_t>(ws_.step_heap.capacity() *
                                         sizeof(ws_.step_heap[0]));
    } else if (sync_mode_) {
      bytes += static_cast<std::int64_t>(ws_.hist_words.capacity()) * 8;
      for (const auto& h : ws_.hist)
        bytes += static_cast<std::int64_t>(h.capacity() * sizeof(Span));
    } else {
      bytes += ws_.sim_net.arena_bytes();
      if (waking_)
        bytes += static_cast<std::int64_t>(ws_.wake.capacity()) * 8;
    }
    bytes += static_cast<std::int64_t>(ws_.kernel_state.capacity());
    bytes += static_cast<std::int64_t>(ws_.kernel_port_state.capacity()) * 8;
    bytes += static_cast<std::int64_t>(ws_.proc_arena.bytes_used());
    stats.arena_bytes = bytes;
    stats.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    stats.steps_per_second =
        stats.elapsed_seconds > 0.0
            ? static_cast<double>(total_steps_) / stats.elapsed_seconds
            : 0.0;
    if (trace_ != nullptr) {
      telemetry::TraceEvent event;
      event.name = "engine.run";
      event.ts = trace_run_t0_;
      event.dur = trace_->recorder->now() - trace_run_t0_;
      event.pid = trace_->pid;
      event.tid = trace_->tid;
      event.arg("mode", delayed_mode_  ? "delayed"
                        : sync_mode_   ? "synchronized"
                                       : "simultaneous");
      event.arg("path", kernel_ != nullptr ? "kernel" : "vtable");
      event.arg("n", static_cast<std::int64_t>(n_));
      event.arg("rounds", result.rounds_used);
      event.arg("global_rounds", result.global_rounds);
      event.arg("messages", result.messages_sent);
      event.arg("steps", stats.total_steps);
      trace_->recorder->record(std::move(event));
    }
    publish_engine_metrics(stats, result.rounds_used);
  }

  const Instance& instance_;
  const CsrGraph& csr_;
  const RunOptions& options_;
  EngineWorkspaceState& ws_;
  const NodeId n_;
  int threads_ = 1;
  // Resolved kernel path (null = vtable) and its packed-state geometry.
  std::shared_ptr<const StepKernel> kernel_;
  std::byte* kstate_base_ = nullptr;
  std::size_t kstride_ = 0;
  std::size_t kport_words_ = 0;
  // True when any kernel phase has a KernelBatchFn: the simultaneous and
  // synchronizer loops then step phase-bucketed (the delayed event loop is
  // inherently one-node-at-a-time and always steps scalar).
  bool kernel_has_batch_ = false;
  // True in the simultaneous mode when the kernel has a wake_fn: step_range
  // then skips quiet nodes (see EngineWorkspaceState::wake).
  bool waking_ = false;
  std::int64_t batched_steps_ = 0;
  std::int64_t batch_calls_ = 0;
  bool sync_mode_ = false;
  std::int64_t sim_round_ = 0;  // the simultaneous mode's current round
  // The simultaneous mode's receive half for this round (the default view
  // in the other modes, whose kernels receive through kernel_recv).
  InboxView sim_inbox_;
  bool delayed_mode_ = false;
  // Ambient trace binding (null = untraced run) and per-run trace state.
  const telemetry::TraceBinding* trace_ = nullptr;
  std::int64_t trace_run_t0_ = 0;
  std::int64_t trace_rounds_recorded_ = 0;
  bool trace_round_active_ = false;
  std::vector<std::int64_t> trace_phases_;
  std::vector<Backend> backends_;
  std::vector<StepDelta> deltas_;
  std::int64_t messages_sent_ = 0;
  std::int64_t max_message_words_ = 0;
  std::int64_t peak_round_messages_ = 0;
  std::int64_t total_steps_ = 0;
  std::int64_t peak_live_ = 0;
  std::int64_t final_live_ = 0;
  std::int64_t peak_frontier_ = 0;
  std::int64_t dirty_cleared_ = 0;
  NodeId cut_off_ = 0;
};

}  // namespace

RunResult run_local(const Instance& instance, const Algorithm& algorithm,
                    const RunOptions& options) {
  std::optional<EngineWorkspace> local;
  EngineWorkspace* workspace =
      options.workspace != nullptr ? options.workspace : &local.emplace();
  ArenaEngine engine(instance, algorithm, options, workspace->state());
  if (options.network.kind == NetworkKind::kDelayed)
    return engine.run_delayed(options.wake_rounds);
  if (options.wake_rounds.empty()) return engine.run_simultaneous();
  return engine.run_synchronized(options.wake_rounds);
}

std::vector<RunResult> run_sequential(
    const Instance& instance, const std::vector<const Algorithm*>& algorithms,
    const RunOptions& options) {
  std::vector<RunResult> results;
  Instance current = instance;
  std::vector<std::int64_t> wake =
      options.wake_rounds.empty()
          ? std::vector<std::int64_t>(
                static_cast<std::size_t>(instance.num_nodes()), 0)
          : options.wake_rounds;
  std::uint64_t seed = options.seed;
  EngineWorkspace workspace;  // one arena across all stages
  for (const Algorithm* algorithm : algorithms) {
    RunOptions stage_options = options;
    stage_options.wake_rounds = wake;
    stage_options.seed = seed++;
    if (options.workspace == nullptr) stage_options.workspace = &workspace;
    RunResult result = run_local(current, *algorithm, stage_options);
    // The next stage starts at each node in the global round right after
    // this one finished there, taking this stage's output as an extra input
    // word (Observation 2.1 composition).
    for (NodeId v = 0; v < current.num_nodes(); ++v) {
      current.inputs[static_cast<std::size_t>(v)].push_back(
          result.outputs[static_cast<std::size_t>(v)]);
      wake[static_cast<std::size_t>(v)] =
          result.global_finish_rounds[static_cast<std::size_t>(v)] + 1;
    }
    results.push_back(std::move(result));
  }
  return results;
}

std::vector<std::int64_t> termination_times(
    const Graph& graph, const std::vector<std::int64_t>& wake_rounds,
    const std::vector<std::int64_t>& global_finish_rounds) {
  const NodeId n = graph.num_nodes();
  std::vector<std::int64_t> result(static_cast<std::size_t>(n), 0);
  for (NodeId u = 0; u < n; ++u) {
    // Incremental BFS from u; for each radius t, the max wake round within
    // distance t.
    std::vector<NodeId> dist(static_cast<std::size_t>(n), -1);
    std::vector<NodeId> frontier{u};
    dist[static_cast<std::size_t>(u)] = 0;
    std::int64_t max_wake = wake_rounds[static_cast<std::size_t>(u)];
    std::int64_t t = 0;
    const std::int64_t finish = global_finish_rounds[static_cast<std::size_t>(u)];
    while (finish > max_wake + t) {
      // Expand to radius t+1.
      std::vector<NodeId> next;
      for (NodeId v : frontier) {
        for (NodeId w : graph.neighbors(v)) {
          if (dist[static_cast<std::size_t>(w)] < 0) {
            dist[static_cast<std::size_t>(w)] =
                dist[static_cast<std::size_t>(v)] + 1;
            max_wake = std::max(max_wake,
                                wake_rounds[static_cast<std::size_t>(w)]);
            next.push_back(w);
          }
        }
      }
      ++t;
      if (next.empty()) {
        // Whole component seen; t larger than any distance, keep growing t
        // until the inequality holds.
        while (finish > max_wake + t) ++t;
        break;
      }
      frontier = std::move(next);
    }
    result[static_cast<std::size_t>(u)] = t;
  }
  return result;
}

}  // namespace unilocal
