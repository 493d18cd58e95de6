// The campaign subsystem: throughput over a (scenario x algorithm x seed)
// grid.
//
// PR 1 made a single run fast; this layer makes *many* runs fast. A
// campaign is a vector of cells — each cell names a scenario family from
// the scenario registry (src/graph/scenario_registry.h), an algorithm from
// the algorithm registry (src/runtime/algorithm_registry.h), and a seed —
// executed concurrently at cell granularity on one ThreadPool, with a pool
// of reusable EngineWorkspaces (one per pool thread, round-robin checkout)
// so no cell allocates a fresh arena. Cell engines run on one thread, and
// because the engine is thread-count invariant, per-cell outputs stay
// bit-identical for any worker count, engine thread count, and
// cell-scheduling order (tests/campaign_test.cpp,
// tests/algorithm_registry_test.cpp).
//
// Results carry per-cell summaries, centralized-checker verdicts
// (src/problems/registry.h), and aggregate percentiles over rounds and
// the engine counters (kEngineStatFields, src/runtime/runner.h).
//
// Note on layering: this file lives in src/runtime/ but is the
// orchestration layer of the library — it sits ABOVE core/algo/prune
// (the default algorithm registry wires up the paper's transformers), so
// nothing below src/runtime/campaign.* may include it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/scenario_registry.h"
#include "src/runtime/algorithm_registry.h"
#include "src/runtime/instance.h"
#include "src/runtime/runner.h"
#include "src/runtime/telemetry.h"
#include "src/util/json.h"
#include "src/util/thread_pool.h"

namespace unilocal {

/// Fixed-size pool of reusable engine workspaces. checkout() hands out
/// workspaces in round-robin order and blocks when all are lent (which
/// cannot happen when the pool is sized to the thread pool's parallelism);
/// checkin() returns one. Thread-safe.
class WorkspacePool {
 public:
  explicit WorkspacePool(int size);
  ~WorkspacePool();
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  int size() const noexcept;
  EngineWorkspace* checkout();
  void checkin(EngineWorkspace* workspace);

  /// RAII checkout.
  class Lease {
   public:
    explicit Lease(WorkspacePool& pool)
        : pool_(pool), workspace_(pool.checkout()) {}
    ~Lease() { pool_.checkin(workspace_); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    EngineWorkspace* get() const noexcept { return workspace_; }

   private:
    WorkspacePool& pool_;
    EngineWorkspace* workspace_;
  };

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// One cell of the sweep grid.
struct CampaignCell {
  std::string scenario;
  ScenarioParams params;
  std::string algorithm;
  std::uint64_t seed = 1;
  IdentityScheme identities = IdentityScheme::kRandomPermuted;
  /// Delivery layer the cell's engine runs use (part of the cell's
  /// identity: the same cell under a different network is a different
  /// deterministic experiment, hashed into the grid hash and round-tripped
  /// through shard manifests).
  NetworkOptions network;
};

struct CellResult {
  CampaignCell cell;
  NodeId nodes = 0;
  std::int64_t edges = 0;
  std::int64_t rounds = 0;
  bool solved = false;
  /// Centralized-checker verdict (false whenever !solved).
  bool valid = false;
  double seconds = 0.0;
  /// FNV-1a over the output vector — the cheap handle for bit-identical
  /// comparisons across worker counts.
  std::uint64_t output_hash = 0;
  EngineStats stats;
  /// Full outputs, kept only under CampaignOptions::keep_outputs.
  std::vector<std::int64_t> outputs;
  /// Non-empty when the cell threw; such cells never abort the campaign.
  std::string error;
};

/// Nearest-rank percentiles over the solved cells.
struct CampaignPercentiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// The nearest-rank percentile computation the campaign aggregates use,
/// exported for other telemetry surfaces (supervision attempt times, run
/// log). Returns all zeros for an empty input.
CampaignPercentiles campaign_percentiles(std::vector<double> values);

/// Percentiles of the EngineStats fields over a campaign's solved cells:
/// one block per kEngineStatFields row with `aggregate` set (zero for the
/// other rows), plus the derived mean kernel batch occupancy over the cells
/// with a batch call. CampaignResult and the run log carry it; its JSON
/// writer and reader below are the only ones.
struct StatPercentiles {
  std::array<CampaignPercentiles, kEngineStatFields.size()> fields{};
  CampaignPercentiles kernel_batch_occupancy;

  /// One field's block: stats[&EngineStats::peak_live_nodes].
  template <class T>
  const CampaignPercentiles& operator[](T EngineStats::*member) const {
    return fields[stat_field_index(member)];
  }
};

/// Calls f(key, block) for each block of `stats` (const or not) in output
/// order; canonical_only keeps the rows that canonical JSON carries.
template <class Stats, class F>
void for_each_stat_block(Stats& stats, bool canonical_only, F&& f) {
  for (std::size_t i = 0; i < stats.fields.size(); ++i) {
    const StatField& field = kEngineStatFields[i];
    if (field.aggregate && (field.canonical || !canonical_only))
      f(field.key, stats.fields[i]);
  }
  if (!canonical_only)
    f("kernel_batch_occupancy", stats.kernel_batch_occupancy);
}

/// Writes "key":{"p50":..,"p90":..,"p99":..,"max":..}.
void write_percentiles_json(std::ostream& out, const char* key,
                            const CampaignPercentiles& p);

/// Writes ',' plus one percentile block per for_each_stat_block entry.
void write_stat_percentiles_json(std::ostream& out,
                                 const StatPercentiles& stats,
                                 bool canonical_only);

/// Reads a percentile block; throws std::runtime_error when malformed.
CampaignPercentiles parse_percentiles_json(const json::Value& value);

/// Reads the blocks of `object`; absent blocks stay zero (run-log lines
/// older than a field).
StatPercentiles parse_stat_percentiles_json(const json::Value& object);

/// One launch of one shard, as the shard supervisor
/// (src/runtime/supervisor.h) saw it end.
struct ShardAttemptRecord {
  int attempt = 0;
  bool speculative = false;
  double seconds = 0.0;
  /// "accepted", "exited N", "killed by signal N", "timeout after Ns",
  /// "invalid result: ...", "superseded", or "spawn failed: ...".
  std::string outcome;
  std::string stderr_path;
  /// Launch/reap times in seconds since supervision began — the wall
  /// placement of this attempt, not just its duration (end - start ==
  /// seconds up to reap latency).
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  /// True when the supervisor SIGKILLed this attempt (deadline overrun or
  /// superseded by an accepted sibling).
  bool killed = false;
};

/// Per-shard supervision history.
struct ShardSupervision {
  int shard_index = 0;
  bool completed = false;
  /// True when the accepted result came from the checkpoint journal (no
  /// process was launched at all).
  bool from_journal = false;
  int attempts = 0;
  /// Requeues caused by a failed attempt (crash/exit/timeout/invalid).
  int retries = 0;
  /// Speculative duplicates launched while an attempt was still running.
  int stragglers_respawned = 0;
  /// Wall-clock summed over every attempt of this shard (including killed
  /// and superseded ones).
  double total_attempt_seconds = 0.0;
  /// Every attempt, in launch order.
  std::vector<ShardAttemptRecord> log;
};

/// Campaign-level supervision telemetry. Pure scheduling history — which
/// processes ran, how often they were retried — so, like the kernel-step
/// split, it is excluded from canonical JSON: supervision affects when
/// work runs, never what it computes.
struct SupervisionSummary {
  /// False on unsupervised campaigns; the writers then omit it entirely.
  bool enabled = false;
  int shards = 0;
  int attempts = 0;
  int retries = 0;
  /// Total re-enqueues: failure retries plus speculative launches.
  int requeues = 0;
  int stragglers_respawned = 0;
  int shards_from_journal = 0;
  /// Attempts the supervisor SIGKILLed (deadline timeouts plus superseded
  /// speculative siblings), summed over the rows' attempt logs.
  int attempts_killed = 0;
  /// Shards that exhausted retries (> 0 only under --allow-partial; a
  /// strict merge would have thrown).
  int shards_failed = 0;
  /// Percentiles of per-shard total attempt wall-clock.
  CampaignPercentiles attempt_seconds;
  /// One entry per plan shard, in shard-index order; the run log keeps
  /// only the counters above.
  std::vector<ShardSupervision> rows;
};

/// Writes the summary's counters and attempt_seconds block as JSON object
/// members (no braces) — the one writer the campaign JSON and the run log
/// share.
void write_supervisor_counters_json(std::ostream& out,
                                    const SupervisionSummary& summary);

/// Reads what write_supervisor_counters_json wrote (enabled = true, no
/// rows); attempts_killed may be absent. Throws std::runtime_error when
/// malformed.
SupervisionSummary parse_supervisor_counters_json(const json::Value& object);

struct CampaignResult {
  /// One entry per input cell, in input order (independent of the
  /// scheduling order the pool actually used).
  std::vector<CellResult> cells;
  int workers = 1;
  double elapsed_seconds = 0.0;
  double cells_per_second = 0.0;
  int solved = 0;
  int valid = 0;
  int failed = 0;
  CampaignPercentiles rounds;
  /// The engine counters' percentiles over the solved cells.
  StatPercentiles stats;
  /// Supervision telemetry (PR 9): filled by the sharded drivers after
  /// merge_shard_results; enabled = false on plain run_campaign results.
  /// finalize_campaign_aggregates leaves it untouched — it describes the
  /// processes, not the cells.
  SupervisionSummary supervision;
};

/// Recomputes every aggregate field of `result` (solved/valid/failed
/// counts, all percentile blocks, cells_per_second) from result.cells and
/// result.elapsed_seconds. run_campaign ends with this; merge_shard_results
/// (src/runtime/shard.h) reuses it so a merged campaign aggregates cells
/// exactly like a single-process run.
void finalize_campaign_aggregates(CampaignResult& result);

/// Stable names for IdentityScheme ("sequential", "random-permuted",
/// "random-sparse") — used by the CSV/JSON writers and the shard manifest
/// round trip. parse throws std::runtime_error on unknown names.
const char* identity_scheme_name(IdentityScheme scheme);
IdentityScheme parse_identity_scheme(const std::string& name);

struct CampaignOptions {
  /// Pool parallelism when no shared pool is lent (>= 1; cells never split
  /// across threads — parallelism is at cell granularity).
  int workers = 1;
  /// Shared pool to run on (overrides `workers`). ThreadPool::run serves
  /// one batch at a time, so a lent pool must not be driven concurrently
  /// by anything else for the duration of run_campaign.
  ThreadPool* pool = nullptr;
  /// Retain per-node outputs in each CellResult.
  bool keep_outputs = false;
  /// Scenario registry (default_scenarios() when null).
  const ScenarioRegistry* scenarios = nullptr;
  /// Algorithm registry (default_algorithm_registry() when null).
  const AlgorithmRegistry* algorithms = nullptr;
  /// Engine path for every cell (ExecPolicy::kernel_mode): flat step
  /// kernels where available (auto, the default), vtable always (off), or
  /// kernels required (on). Outputs are bit-identical across modes, so
  /// campaign artifacts stay canonical regardless.
  KernelMode kernel_mode = KernelMode::kAuto;
  /// Telemetry (PR 10): when non-null, every cell runs under a span on this
  /// recorder (with the ambient engine binding installed, so engine runs
  /// emit their per-round events into the same lanes). Never feeds the
  /// campaign's own results — canonical JSON is byte-identical either way.
  telemetry::TraceRecorder* trace = nullptr;
  /// Per-run head-sampling cap for the engine's round events.
  std::int64_t trace_rounds = telemetry::kDefaultTraceRounds;
  /// pid lane cell spans are recorded under (worker processes get their
  /// own after the supervisor's merge remaps them).
  int trace_pid = 1;
  /// Grid positions of the cells (shard manifests carry a subset of the
  /// full grid); cell spans then report the grid index, not the local one.
  const std::vector<std::size_t>* trace_cell_indices = nullptr;
};

/// Runs every cell; never throws on per-cell failures (they land in
/// CellResult::error).
CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            const CampaignOptions& options = {});

/// Up-front key validation: collects EVERY unknown scenario and algorithm
/// key across the cells and throws one std::runtime_error naming all of
/// them (instead of N copies of the same per-cell failure at run time).
void validate_cells(const std::vector<CampaignCell>& cells,
                    const ScenarioRegistry& scenarios,
                    const AlgorithmRegistry& algorithms);

/// KernelMode::kOn validation: collects EVERY registered algorithm key in
/// the cells whose spec is not kernel_lowered and throws one
/// std::runtime_error naming all of them (the make_grid unknown-key error
/// style). Unknown keys are left to validate_cells / per-cell errors.
/// run_campaign calls this when options.kernel_mode is kOn.
void validate_kernel_lowering(const std::vector<CampaignCell>& cells,
                              const AlgorithmRegistry& algorithms);

struct GridOptions {
  std::uint64_t base_seed = 1;
  /// Registries the keys are validated against (defaults when null).
  const ScenarioRegistry* scenarios = nullptr;
  const AlgorithmRegistry* algorithms = nullptr;
  /// Skip validation entirely (grids aimed at a registry built later).
  bool validate = true;
  /// Delivery layers to cross the grid with (a scenario dimension like the
  /// families themselves): every (scenario x algorithm x seed) combination
  /// is emitted once per entry. Empty = one synchronous cell each.
  std::vector<NetworkOptions> networks;
};

/// The full (scenario x algorithm x seed) product grid with shared params;
/// seeds are base_seed, base_seed + 1, .... Validates every key up front
/// (one error listing all unknown keys) unless options.validate is false.
std::vector<CampaignCell> make_grid(
    const std::vector<std::string>& scenarios, const ScenarioParams& params,
    const std::vector<std::string>& algorithms, int seeds_per_combination,
    const GridOptions& options);
std::vector<CampaignCell> make_grid(
    const std::vector<std::string>& scenarios, const ScenarioParams& params,
    const std::vector<std::string>& algorithms, int seeds_per_combination,
    std::uint64_t base_seed = 1);

/// The paper's Table 1 as one campaign grid: every algorithm in the
/// registry crossed with its own spec.table1_scenarios (the families its
/// row is stated over), seeds_per_combination seeds each.
std::vector<CampaignCell> make_table1_grid(
    const ScenarioParams& params, int seeds_per_combination,
    const GridOptions& options = {});

/// One CSV row per cell plus a header row.
void write_campaign_csv(std::ostream& out, const CampaignResult& result);

/// One CSV row per supervised shard plus a header row (the per-cell table
/// above stays stable whether or not a campaign was supervised). Callers
/// should skip it when !summary.enabled.
void write_supervised_shards_csv(std::ostream& out,
                                const SupervisionSummary& summary);

struct CampaignJsonOptions {
  /// Canonical mode emits only the deterministic fields — everything that
  /// is a pure function of the grid (no wall-clock timings, no worker
  /// counts, no arena capacities, which depend on workspace reuse order) —
  /// so two runs of the same grid produce byte-identical documents no
  /// matter how the cells were scheduled or sharded. CI diffs a merged
  /// sharded run against a single-process run this way.
  bool canonical = false;
};

/// One JSON object: summary fields plus a "cell_results" array.
void write_campaign_json(std::ostream& out, const CampaignResult& result,
                         const CampaignJsonOptions& options);
void write_campaign_json(std::ostream& out, const CampaignResult& result);

}  // namespace unilocal
