#include "src/runtime/campaign.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>

#include "src/util/json.h"

namespace unilocal {

// --- workspace pool ---------------------------------------------------------

struct WorkspacePool::State {
  std::mutex mutex;
  std::condition_variable available_cv;
  std::vector<EngineWorkspace> workspaces;
  std::deque<EngineWorkspace*> free;  // FIFO = round-robin checkout
};

WorkspacePool::WorkspacePool(int size) : state_(std::make_unique<State>()) {
  if (size < 1) size = 1;
  state_->workspaces.resize(static_cast<std::size_t>(size));
  for (auto& workspace : state_->workspaces)
    state_->free.push_back(&workspace);
}

WorkspacePool::~WorkspacePool() = default;

int WorkspacePool::size() const noexcept {
  return static_cast<int>(state_->workspaces.size());
}

EngineWorkspace* WorkspacePool::checkout() {
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->available_cv.wait(lock, [&] { return !state_->free.empty(); });
  EngineWorkspace* workspace = state_->free.front();
  state_->free.pop_front();
  return workspace;
}

void WorkspacePool::checkin(EngineWorkspace* workspace) {
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->free.push_back(workspace);
  }
  state_->available_cv.notify_one();
}

namespace {

std::uint64_t fnv1a(const std::vector<std::int64_t>& values) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const std::int64_t value : values) {
    std::uint64_t word = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

CellResult run_cell(const CampaignCell& cell,
                    const ScenarioRegistry& scenarios,
                    const AlgorithmRegistry& algorithms,
                    EngineWorkspace* workspace,
                    const CampaignOptions& options) {
  CellResult result;
  result.cell = cell;
  const auto start = std::chrono::steady_clock::now();
  try {
    Graph graph = scenarios.build(cell.scenario, cell.params, cell.seed);
    const Instance instance =
        make_instance(std::move(graph), cell.identities, cell.seed);
    result.nodes = instance.num_nodes();
    result.edges = instance.graph.num_edges();
    AlgorithmRunContext context;
    context.seed = cell.seed;
    context.workspace = workspace;
    context.kernel_mode = options.kernel_mode;
    context.network = cell.network;
    CellOutcome outcome =
        algorithms.run(cell.algorithm, instance, context);
    result.rounds = outcome.rounds;
    result.solved = outcome.solved;
    result.stats = outcome.stats;
    result.valid = outcome.solved &&
                   algorithms.problem(cell.algorithm)
                       .check(instance, outcome.outputs);
    result.output_hash = fnv1a(outcome.outputs);
    if (options.keep_outputs) result.outputs = std::move(outcome.outputs);
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown error";
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

/// Publishes one finished cell into the installed metrics registry (a
/// single null check when none is installed); all counters sum and the
/// histograms merge bucket-wise, so the snapshot is worker-placement
/// invariant.
void publish_cell_metrics(const CellResult& cell) {
  telemetry::MetricsRegistry* reg = telemetry::metrics();
  if (reg == nullptr) return;
  reg->add("campaign.cells", 1);
  if (!cell.error.empty()) {
    reg->add("campaign.cells_failed", 1);
    return;
  }
  if (cell.solved) reg->add("campaign.cells_solved", 1);
  if (cell.valid) reg->add("campaign.cells_valid", 1);
  reg->observe("campaign.cell_rounds", cell.rounds);
  reg->observe("campaign.cell_messages", cell.stats.total_messages);
}

/// The per-cell span run_campaign records when a trace is attached:
/// registry keys, seed, and grid index ride along as args so Perfetto
/// queries can slice by any grid dimension.
telemetry::TraceEvent make_cell_span(const CellResult& cell,
                                     std::size_t grid_index,
                                     const CampaignOptions& options,
                                     int tid, std::int64_t t0,
                                     std::int64_t t1) {
  telemetry::TraceEvent span;
  span.name = "cell";
  span.ts = t0;
  span.dur = t1 - t0;
  span.pid = options.trace_pid;
  span.tid = tid;
  span.arg("index", static_cast<std::int64_t>(grid_index));
  span.arg("scenario", cell.cell.scenario);
  span.arg("algorithm", cell.cell.algorithm);
  span.arg("seed", cell.cell.seed);
  span.arg("n", static_cast<std::int64_t>(cell.cell.params.n));
  span.arg("network", std::string(network_spec_name(cell.cell.network)));
  span.arg("rounds", cell.rounds);
  span.arg("solved", cell.solved);
  span.arg("valid", cell.valid);
  if (!cell.error.empty()) span.arg("error", cell.error);
  return span;
}

}  // namespace

CampaignPercentiles campaign_percentiles(std::vector<double> values) {
  CampaignPercentiles result;
  if (values.empty()) return result;
  std::sort(values.begin(), values.end());
  const auto nearest_rank = [&values](double q) {
    const auto n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
  };
  result.p50 = nearest_rank(0.50);
  result.p90 = nearest_rank(0.90);
  result.p99 = nearest_rank(0.99);
  result.max = values.back();
  return result;
}

const char* identity_scheme_name(IdentityScheme scheme) {
  switch (scheme) {
    case IdentityScheme::kSequential:
      return "sequential";
    case IdentityScheme::kRandomPermuted:
      return "random-permuted";
    case IdentityScheme::kRandomSparse:
      return "random-sparse";
  }
  return "?";
}

IdentityScheme parse_identity_scheme(const std::string& name) {
  for (const IdentityScheme scheme :
       {IdentityScheme::kSequential, IdentityScheme::kRandomPermuted,
        IdentityScheme::kRandomSparse}) {
    if (name == identity_scheme_name(scheme)) return scheme;
  }
  throw std::runtime_error("unknown identity scheme: " + name);
}

// --- campaign driver --------------------------------------------------------

void finalize_campaign_aggregates(CampaignResult& result) {
  result.solved = 0;
  result.valid = 0;
  result.failed = 0;
  result.cells_per_second =
      result.elapsed_seconds > 0.0
          ? static_cast<double>(result.cells.size()) / result.elapsed_seconds
          : 0.0;
  std::vector<double> rounds;
  std::array<std::vector<double>, kEngineStatFields.size()> samples;
  std::vector<double> occupancy;
  for (const CellResult& cell : result.cells) {
    if (!cell.error.empty()) {
      ++result.failed;
      continue;
    }
    if (!cell.solved) continue;
    ++result.solved;
    if (cell.valid) ++result.valid;
    rounds.push_back(static_cast<double>(cell.rounds));
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const StatField& field = kEngineStatFields[i];
      if (!field.aggregate) continue;
      const double value = stat_value(cell.stats, field);
      const bool timing =
          std::holds_alternative<double EngineStats::*>(field.member);
      if (!timing || value > 0.0) samples[i].push_back(value);
    }
    if (cell.stats.batch_occupancy() > 0.0)
      occupancy.push_back(cell.stats.batch_occupancy());
  }
  result.rounds = campaign_percentiles(std::move(rounds));
  for (std::size_t i = 0; i < samples.size(); ++i)
    result.stats.fields[i] = campaign_percentiles(std::move(samples[i]));
  result.stats.kernel_batch_occupancy =
      campaign_percentiles(std::move(occupancy));
}

CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            const CampaignOptions& options) {
  const ScenarioRegistry& scenarios =
      options.scenarios != nullptr ? *options.scenarios
                                   : default_scenarios();
  const AlgorithmRegistry& algorithms =
      options.algorithms != nullptr ? *options.algorithms
                                    : default_algorithm_registry();

  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = options.pool;
  if (pool == nullptr)
    pool = &owned_pool.emplace(std::max(1, options.workers));

  if (options.kernel_mode == KernelMode::kOn)
    validate_kernel_lowering(cells, algorithms);

  CampaignResult result;
  result.workers = pool->threads();
  result.cells.resize(cells.size());
  WorkspacePool workspaces(pool->threads());

  const auto start = std::chrono::steady_clock::now();
  pool->run(static_cast<int>(cells.size()), [&](int i) {
    const WorkspacePool::Lease lease(workspaces);
    const std::size_t ci = static_cast<std::size_t>(i);
    if (options.trace == nullptr) {
      result.cells[ci] =
          run_cell(cells[ci], scenarios, algorithms, lease.get(), options);
      publish_cell_metrics(result.cells[ci]);
      return;
    }
    // Bind the recorder around the cell so the engine's ambient per-round
    // events land on this worker's lane, then wrap the cell in a span.
    telemetry::TraceBinding binding;
    binding.recorder = options.trace;
    binding.pid = options.trace_pid;
    binding.tid = options.trace->lane();
    binding.trace_rounds = options.trace_rounds;
    const telemetry::ScopedTraceBinding bound(binding);
    const std::int64_t t0 = options.trace->now();
    result.cells[ci] =
        run_cell(cells[ci], scenarios, algorithms, lease.get(), options);
    const std::int64_t t1 = options.trace->now();
    const std::size_t grid_index =
        options.trace_cell_indices != nullptr &&
                ci < options.trace_cell_indices->size()
            ? (*options.trace_cell_indices)[ci]
            : ci;
    options.trace->record(make_cell_span(result.cells[ci], grid_index,
                                         options, binding.tid, t0, t1));
    publish_cell_metrics(result.cells[ci]);
  });
  result.elapsed_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  finalize_campaign_aggregates(result);
  return result;
}

namespace {

/// Formats "kind [a, b]" when `keys` is non-empty.
void describe_unknown(std::string& message, const char* kind,
                      const std::set<std::string>& keys) {
  if (keys.empty()) return;
  if (!message.empty()) message += "; ";
  message += kind;
  message += " [";
  bool first = true;
  for (const std::string& key : keys) {
    if (!first) message += ", ";
    first = false;
    message += key;
  }
  message += "]";
}

void throw_on_unknown_keys(const std::set<std::string>& scenario_keys,
                           const std::set<std::string>& algorithm_keys) {
  if (scenario_keys.empty() && algorithm_keys.empty()) return;
  std::string message;
  describe_unknown(message, "scenarios", scenario_keys);
  describe_unknown(message, "algorithms", algorithm_keys);
  throw std::runtime_error("unknown campaign keys: " + message);
}

}  // namespace

void validate_cells(const std::vector<CampaignCell>& cells,
                    const ScenarioRegistry& scenarios,
                    const AlgorithmRegistry& algorithms) {
  std::set<std::string> unknown_scenarios;
  std::set<std::string> unknown_algorithms;
  for (const CampaignCell& cell : cells) {
    if (!scenarios.contains(cell.scenario))
      unknown_scenarios.insert(cell.scenario);
    if (!algorithms.contains(cell.algorithm))
      unknown_algorithms.insert(cell.algorithm);
  }
  throw_on_unknown_keys(unknown_scenarios, unknown_algorithms);
}

void validate_kernel_lowering(const std::vector<CampaignCell>& cells,
                              const AlgorithmRegistry& algorithms) {
  std::set<std::string> unlowered;
  for (const CampaignCell& cell : cells) {
    if (algorithms.contains(cell.algorithm) &&
        !algorithms.spec(cell.algorithm).kernel_lowered)
      unlowered.insert(cell.algorithm);
  }
  if (unlowered.empty()) return;
  std::string message;
  describe_unknown(message, "algorithms", unlowered);
  throw std::runtime_error("kernel mode 'on' requires lowered pipelines: " +
                           message);
}

std::vector<CampaignCell> make_grid(
    const std::vector<std::string>& scenarios, const ScenarioParams& params,
    const std::vector<std::string>& algorithms, int seeds_per_combination,
    const GridOptions& options) {
  std::vector<CampaignCell> cells;
  cells.reserve(scenarios.size() * algorithms.size() *
                static_cast<std::size_t>(std::max(0, seeds_per_combination)));
  // The delivery layer is a grid dimension like the scenario families:
  // every combination is emitted once per requested network (sync when
  // none were requested).
  const std::vector<NetworkOptions> networks =
      options.networks.empty() ? std::vector<NetworkOptions>{NetworkOptions{}}
                               : options.networks;
  for (const std::string& scenario : scenarios) {
    for (const std::string& algorithm : algorithms) {
      for (const NetworkOptions& network : networks) {
        for (int s = 0; s < seeds_per_combination; ++s) {
          CampaignCell cell;
          cell.scenario = scenario;
          cell.params = params;
          cell.algorithm = algorithm;
          cell.seed = options.base_seed + static_cast<std::uint64_t>(s);
          cell.network = network;
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  if (options.validate) {
    // All unknown keys in one error instead of N identical per-cell
    // failures at run time.
    validate_cells(cells,
                   options.scenarios != nullptr ? *options.scenarios
                                                : default_scenarios(),
                   options.algorithms != nullptr
                       ? *options.algorithms
                       : default_algorithm_registry());
  }
  return cells;
}

std::vector<CampaignCell> make_grid(
    const std::vector<std::string>& scenarios, const ScenarioParams& params,
    const std::vector<std::string>& algorithms, int seeds_per_combination,
    std::uint64_t base_seed) {
  GridOptions options;
  options.base_seed = base_seed;
  return make_grid(scenarios, params, algorithms, seeds_per_combination,
                   options);
}

std::vector<CampaignCell> make_table1_grid(const ScenarioParams& params,
                                           int seeds_per_combination,
                                           const GridOptions& options) {
  const AlgorithmRegistry& algorithms =
      options.algorithms != nullptr ? *options.algorithms
                                    : default_algorithm_registry();
  GridOptions row_options = options;
  row_options.algorithms = &algorithms;
  std::vector<CampaignCell> cells;
  for (const std::string& name : algorithms.names()) {
    const std::vector<CampaignCell> row =
        make_grid(algorithms.spec(name).table1_scenarios, params, {name},
                  seeds_per_combination, row_options);
    cells.insert(cells.end(), row.begin(), row.end());
  }
  return cells;
}

// --- output -----------------------------------------------------------------

namespace {

/// RFC-4180 style: fields containing a comma, quote, or newline are quoted
/// with inner quotes doubled (registered names are free text).
std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string result = "\"";
  for (const char c : field) {
    if (c == '"') result += '"';
    result += c;
  }
  result += '"';
  return result;
}

}  // namespace

void write_campaign_csv(std::ostream& out, const CampaignResult& result) {
  out << "scenario,n,a,b,algorithm,seed,identities,network,drop,duplicate,"
         "crash,late,nodes,edges,rounds,solved,valid,seconds";
  for (const StatField& field : kEngineStatFields) out << ',' << field.key;
  out << ",output_hash,error\n";
  for (const CellResult& cell : result.cells) {
    out << csv_escape(cell.cell.scenario) << ',' << cell.cell.params.n << ','
        << cell.cell.params.a << ',' << cell.cell.params.b << ','
        << csv_escape(cell.cell.algorithm) << ',' << cell.cell.seed << ','
        << identity_scheme_name(cell.cell.identities) << ','
        << network_spec_name(cell.cell.network) << ','
        << cell.cell.network.drop << ',' << cell.cell.network.duplicate << ','
        << cell.cell.network.crash << ',' << cell.cell.network.late << ','
        << cell.nodes
        << ',' << cell.edges << ',' << cell.rounds << ','
        << (cell.solved ? 1 : 0) << ',' << (cell.valid ? 1 : 0) << ','
        << cell.seconds;
    for (const StatField& field : kEngineStatFields) {
      out << ',';
      write_stat(out, cell.stats, field);
    }
    out << ',' << cell.output_hash << ',' << csv_escape(cell.error) << '\n';
  }
}

void write_supervised_shards_csv(std::ostream& out,
                                const SupervisionSummary& summary) {
  out << "shard,completed,from_journal,attempts,retries,"
         "stragglers_respawned,total_attempt_seconds,attempts_killed\n";
  for (const ShardSupervision& row : summary.rows) {
    int killed = 0;
    for (const ShardAttemptRecord& at : row.log)
      if (at.killed) ++killed;
    out << row.shard_index << ',' << (row.completed ? 1 : 0) << ','
        << (row.from_journal ? 1 : 0) << ',' << row.attempts << ','
        << row.retries << ',' << row.stragglers_respawned << ','
        << row.total_attempt_seconds << ',' << killed << '\n';
  }
}

void write_percentiles_json(std::ostream& out, const char* key,
                            const CampaignPercentiles& p) {
  out << '"' << key << "\":{\"p50\":" << p.p50 << ",\"p90\":" << p.p90
      << ",\"p99\":" << p.p99 << ",\"max\":" << p.max << '}';
}

void write_stat_percentiles_json(std::ostream& out,
                                 const StatPercentiles& stats,
                                 bool canonical_only) {
  for_each_stat_block(stats, canonical_only,
                      [&out](const char* key, const CampaignPercentiles& p) {
                        out << ',';
                        write_percentiles_json(out, key, p);
                      });
}

CampaignPercentiles parse_percentiles_json(const json::Value& value) {
  CampaignPercentiles p;
  p.p50 = value.at("p50").as_double();
  p.p90 = value.at("p90").as_double();
  p.p99 = value.at("p99").as_double();
  p.max = value.at("max").as_double();
  return p;
}

StatPercentiles parse_stat_percentiles_json(const json::Value& object) {
  StatPercentiles stats;
  for_each_stat_block(
      stats, false, [&object](const char* key, CampaignPercentiles& p) {
        if (const json::Value* value = object.find(key))
          p = parse_percentiles_json(*value);
      });
  return stats;
}

void write_supervisor_counters_json(std::ostream& out,
                                    const SupervisionSummary& summary) {
  out << "\"shards\":" << summary.shards
      << ",\"attempts\":" << summary.attempts
      << ",\"retries\":" << summary.retries
      << ",\"requeues\":" << summary.requeues
      << ",\"stragglers_respawned\":" << summary.stragglers_respawned
      << ",\"shards_from_journal\":" << summary.shards_from_journal
      << ",\"attempts_killed\":" << summary.attempts_killed
      << ",\"shards_failed\":" << summary.shards_failed << ',';
  write_percentiles_json(out, "attempt_seconds", summary.attempt_seconds);
}

SupervisionSummary parse_supervisor_counters_json(const json::Value& object) {
  SupervisionSummary summary;
  summary.enabled = true;
  summary.shards = json::int_field<int>(object, "shards");
  summary.attempts = json::int_field<int>(object, "attempts");
  summary.retries = json::int_field<int>(object, "retries");
  summary.requeues = json::int_field<int>(object, "requeues");
  summary.stragglers_respawned =
      json::int_field<int>(object, "stragglers_respawned");
  summary.shards_from_journal =
      json::int_field<int>(object, "shards_from_journal");
  summary.shards_failed = json::int_field<int>(object, "shards_failed");
  if (object.find("attempts_killed") != nullptr)
    summary.attempts_killed = json::int_field<int>(object, "attempts_killed");
  summary.attempt_seconds =
      parse_percentiles_json(object.at("attempt_seconds"));
  return summary;
}

void write_campaign_json(std::ostream& out, const CampaignResult& result,
                         const CampaignJsonOptions& options) {
  out << '{';
  if (!options.canonical) {
    // Timing- and scheduling-dependent summary fields: meaningful for a
    // report, poison for a byte-level diff across shardings.
    out << "\"workers\":" << result.workers << ',';
  }
  out << "\"cells\":" << result.cells.size() << ",\"solved\":" << result.solved
      << ",\"valid\":" << result.valid << ",\"failed\":" << result.failed
      << ',';
  if (!options.canonical) {
    out << "\"elapsed_seconds\":" << result.elapsed_seconds
        << ",\"cells_per_second\":" << result.cells_per_second << ',';
  }
  write_percentiles_json(out, "rounds", result.rounds);
  write_stat_percentiles_json(out, result.stats, options.canonical);
  if (!options.canonical && result.supervision.enabled) {
    // Supervision history describes the worker processes, not the grid:
    // a retried shard computed the same bytes as a first-try one, so —
    // like the kernel/vtable split — it stays out of canonical mode.
    const SupervisionSummary& sup = result.supervision;
    out << ",\"supervision\":{";
    write_supervisor_counters_json(out, sup);
    out << ",\"per_shard\":[";
    for (std::size_t i = 0; i < sup.rows.size(); ++i) {
      const ShardSupervision& row = sup.rows[i];
      if (i != 0) out << ',';
      out << "{\"shard\":" << row.shard_index
          << ",\"completed\":" << (row.completed ? "true" : "false")
          << ",\"from_journal\":" << (row.from_journal ? "true" : "false")
          << ",\"attempts\":" << row.attempts
          << ",\"retries\":" << row.retries
          << ",\"stragglers_respawned\":" << row.stragglers_respawned
          << ",\"total_attempt_seconds\":" << row.total_attempt_seconds;
      // Per-attempt timing (PR 10): start/end relative to supervision
      // start plus the kill flag, so a killed straggler's timeline is
      // reconstructable without the live trace.
      out << ",\"attempt_log\":[";
      for (std::size_t a = 0; a < row.log.size(); ++a) {
        const ShardAttemptRecord& at = row.log[a];
        if (a != 0) out << ',';
        out << "{\"attempt\":" << at.attempt
            << ",\"speculative\":" << (at.speculative ? "true" : "false")
            << ",\"start_seconds\":" << at.start_seconds
            << ",\"end_seconds\":" << at.end_seconds
            << ",\"killed\":" << (at.killed ? "true" : "false")
            << ",\"outcome\":\"" << json::escape(at.outcome) << "\"}";
      }
      out << "]}";
    }
    out << "]}";
  }
  out << ",\"cell_results\":[";
  bool first = true;
  for (const CellResult& cell : result.cells) {
    if (!first) out << ',';
    first = false;
    out << "{\"scenario\":\"" << json::escape(cell.cell.scenario)
        << "\",\"n\":" << cell.cell.params.n << ",\"a\":" << cell.cell.params.a
        << ",\"b\":" << cell.cell.params.b << ",\"algorithm\":\""
        << json::escape(cell.cell.algorithm)
        << "\",\"seed\":" << cell.cell.seed << ",\"identities\":\""
        << identity_scheme_name(cell.cell.identities)
        // The delivery layer is part of the cell's identity (canonical
        // included): the same cell under a different network is a different
        // deterministic experiment.
        << "\",\"network\":\"" << network_spec_name(cell.cell.network)
        << "\",\"drop\":" << cell.cell.network.drop
        << ",\"duplicate\":" << cell.cell.network.duplicate
        << ",\"crash\":" << cell.cell.network.crash
        << ",\"late\":" << cell.cell.network.late
        << ",\"nodes\":" << cell.nodes << ",\"edges\":" << cell.edges
        << ",\"rounds\":" << cell.rounds
        << ",\"solved\":" << (cell.solved ? "true" : "false")
        << ",\"valid\":" << (cell.valid ? "true" : "false");
    if (!options.canonical) out << ",\"seconds\":" << cell.seconds;
    for (const StatField& field : kEngineStatFields) {
      if (options.canonical && !field.canonical) continue;
      out << ",\"" << field.key << "\":";
      write_stat(out, cell.stats, field);
    }
    out << ",\"output_hash\":\"" << cell.output_hash << "\",\"error\":\""
        << json::escape(cell.error) << "\"}";
  }
  out << "]}";
}

void write_campaign_json(std::ostream& out, const CampaignResult& result) {
  write_campaign_json(out, result, CampaignJsonOptions{});
}

}  // namespace unilocal
