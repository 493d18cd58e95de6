// perfbench: one repetition of one benchmark workload.
//
// Each repetition runs in its own process so that its peak resident set and
// its CPU time (worker processes included) belong to it alone.
// perfbench/run.py starts one process per repetition and folds the
// results; see perfbench/README.md.
//
//   perfbench --mode=MODE --workload=NAME --seed=S --workers=W
//             --cli=PATH --scratch=DIR [--trace-out=FILE]
//
// Modes:
//   setup      registry init, grid, validation, pools (and for `sharded`
//              the shard plan), nothing else.
//   timed      setup, then the grid through the library's public entry
//              points (run_campaign; or plan_shards -> supervise_shards ->
//              merge_shard_results), untraced.
//   traced     the same grid with a span around every public call the cell
//              path makes, plus the layer check: the in-process workloads
//              also go through the shard transport, and `sharded` also runs
//              in process. Writes a Chrome trace (Perfetto loads it).
//   reference  the workload's reference run, outside any timed region:
//              `delayed` on the synchronous network (Observation 2.1 says
//              the outputs match), `sharded` in one process.
//
// Prints one JSON object on stdout. Exit status 0 when the repetition ran;
// whether its outputs are right is judged by run.py from that object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/runtime/campaign.h"
#include "src/runtime/run_log.h"
#include "src/runtime/shard.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/telemetry.h"
#include "src/util/json.h"
#include "src/util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER ""
#endif

namespace {

using namespace unilocal;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  /// Runs as supervised shard processes instead of one run_campaign.
  bool sharded;
  std::vector<CampaignCell> (*grid)(std::uint64_t seed);
};

GridOptions seeded(std::uint64_t seed) {
  GridOptions options;
  options.base_seed = seed;
  return options;
}

// Sizes give 1-2 s per repetition on a 4-core host; README.md says why
// each workload exists.
const Workload kWorkloads[] = {
    {"table1", false,
     [](std::uint64_t seed) {
       return make_table1_grid(ScenarioParams{2000}, 3, seeded(seed));
     }},
    {"dense", false,
     [](std::uint64_t seed) {
       return make_grid({"gnp", "power-law", "layered-forest"},
                        ScenarioParams{30000},
                        {"luby-mis", "mis-uniform", "mis-fastest",
                         "matching-uniform", "rulingset2-lv",
                         "linial-coloring"},
                        1, seeded(seed));
     }},
    {"delayed", false,
     [](std::uint64_t seed) {
       NetworkOptions network = parse_network_spec("delay:heavytail");
       network.drop = 0.05;
       network.duplicate = 0.05;
       GridOptions options = seeded(seed);
       options.networks = {network};
       return make_grid({"gnp", "power-law"}, ScenarioParams{2500},
                        {"luby-mis", "mis-uniform", "matching-uniform",
                         "rulingset2-lv"},
                        2, options);
     }},
    {"sharded", true,
     [](std::uint64_t seed) {
       return make_table1_grid(ScenarioParams{64}, 100, seeded(seed));
     }},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& workload : kWorkloads)
    if (name == workload.name) return workload;
  throw std::runtime_error("unknown workload '" + name + "'");
}

// --- spans -------------------------------------------------------------------

/// Spans recorded from outside the library, around its public calls. A null
/// recorder makes every span a plain call, so the timed and traced modes
/// share one code path.
struct Tracer {
  telemetry::TraceRecorder* recorder = nullptr;
  int pid = 1;

  template <class F>
  std::invoke_result_t<F> span(const char* name, F&& f) const {
    if (recorder == nullptr) return f();
    const std::int64_t t0 = recorder->now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      close(name, t0);
    } else {
      std::invoke_result_t<F> result = f();
      close(name, t0);
      return result;
    }
  }

  /// Records the span [t0, now) on this thread's lane.
  void close(const char* name, std::int64_t t0,
             json::Value* args = nullptr) const {
    telemetry::TraceEvent event;
    event.name = name;
    event.ts = t0;
    event.dur = recorder->now() - t0;
    event.pid = pid;
    event.tid = recorder->lane();
    if (args != nullptr) event.args = std::move(*args);
    recorder->record(std::move(event));
  }
};

// --- the cell path, spanned ----------------------------------------------------

/// The FNV-1a run_cell applies to a cell's outputs.
std::uint64_t fnv1a(const std::vector<std::int64_t>& values) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const std::int64_t value : values) {
    const std::uint64_t word = static_cast<std::uint64_t>(value);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

/// run_cell's public calls in run_cell's order, each under a span named
/// after its layer: ScenarioRegistry::build -> make_instance ->
/// Instance::csr -> AlgorithmRegistry::run -> Problem::check, then the
/// instance's release. Outputs are those of run_campaign (run.py checks).
CellResult traced_cell(const CampaignCell& cell, std::size_t index,
                       EngineWorkspace* workspace, const Tracer& tracer) {
  const ScenarioRegistry& scenarios = default_scenarios();
  const AlgorithmRegistry& algorithms = default_algorithm_registry();
  CellResult result;
  result.cell = cell;
  const std::int64_t t0 = tracer.recorder->now();
  const auto start = Clock::now();
  try {
    Graph graph = tracer.span("graph.generate", [&] {
      return scenarios.build(cell.scenario, cell.params, cell.seed);
    });
    std::optional<Instance> instance;
    tracer.span("instance.make", [&] {
      instance.emplace(
          make_instance(std::move(graph), cell.identities, cell.seed));
    });
    tracer.span("graph.csr", [&] { instance->csr(); });
    result.nodes = instance->num_nodes();
    result.edges = instance->graph.num_edges();
    AlgorithmRunContext context;
    context.seed = cell.seed;
    context.workspace = workspace;
    context.network = cell.network;
    // A span by hand: its args need the outcome.
    const std::int64_t run_t0 = tracer.recorder->now();
    CellOutcome outcome = algorithms.run(cell.algorithm, *instance, context);
    json::Value run_args = json::Value::object();
    run_args.set("engine_s", json::Value::number(outcome.stats.elapsed_seconds));
    tracer.close("pipeline.run", run_t0, &run_args);
    result.rounds = outcome.rounds;
    result.solved = outcome.solved;
    result.stats = outcome.stats;
    result.valid = outcome.solved && tracer.span("problems.check", [&] {
      return algorithms.problem(cell.algorithm)
          .check(*instance, outcome.outputs);
    });
    result.output_hash = fnv1a(outcome.outputs);
    tracer.span("instance.free", [&] { instance.reset(); });
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  result.seconds = seconds_since(start);
  json::Value args = json::Value::object();
  args.set("index", json::Value::number(static_cast<std::int64_t>(index)));
  args.set("scenario", json::Value::string(cell.scenario));
  args.set("algorithm", json::Value::string(cell.algorithm));
  tracer.close("cell", t0, &args);
  return result;
}

/// run_campaign's scheduling (one cell per pool job, a pool workspace per
/// cell) over traced_cell.
CampaignResult traced_campaign(const std::vector<CampaignCell>& cells,
                               ThreadPool& pool, WorkspacePool& workspaces,
                               const Tracer& tracer) {
  CampaignResult result;
  result.workers = pool.threads();
  result.cells.resize(cells.size());
  const auto start = Clock::now();
  pool.run(static_cast<int>(cells.size()), [&](int i) {
    const WorkspacePool::Lease lease(workspaces);
    const std::size_t ci = static_cast<std::size_t>(i);
    result.cells[ci] = traced_cell(cells[ci], ci, lease.get(), tracer);
  });
  result.elapsed_seconds = seconds_since(start);
  finalize_campaign_aggregates(result);
  return result;
}

// --- the shard path --------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The bytes supervise_shards writes as manifests for this plan.
std::int64_t manifest_bytes(const ShardPlan& plan) {
  std::int64_t bytes = 0;
  for (const ShardManifest& manifest : plan.shards)
    bytes += static_cast<std::int64_t>(manifest.to_json().dump().size() + 1);
  return bytes;
}

ShardPlan plan_sharded(const std::vector<CampaignCell>& cells, int shards,
                       const Tracer& tracer) {
  return tracer.span("shard.plan", [&] {
    return plan_shards(cells, shards, ShardPolicy::kCostBalanced);
  });
}

struct ShardedRun {
  CampaignResult merged;
  SupervisorReport report;
};

/// One `unilocal_cli shard run` worker process per shard, one cell worker
/// each, then the strict merge. supervise_shards writes the manifests.
ShardedRun run_sharded(const ShardPlan& plan, const std::string& cli,
                       const std::string& dir, const Tracer& tracer) {
  std::filesystem::create_directories(dir);
  SupervisorOptions options;
  options.scratch_dir = dir;
  options.trace = tracer.recorder;
  options.trace_pid = tracer.pid + 1;
  const WorkerCommand command = [&cli](const ShardAttemptContext& context) {
    return std::vector<std::string>{cli,
                                     "shard",
                                     "run",
                                     context.manifest_path,
                                     "--out=" + context.result_path,
                                     "--workers=1",
                                     "--kernel=auto"};
  };
  ShardedRun run;
  run.report = tracer.span("supervisor.run", [&] {
    return supervise_shards(plan, options, command);
  });
  if (!run.report.all_completed())
    throw std::runtime_error(run.report.failure_summary());
  run.merged = tracer.span("shard.merge", [&] {
    return merge_shard_results(plan, run.report.results);
  });
  return run;
}

/// Re-reads every accepted worker result file and parses it again, timing
/// ShardResult::from_json apart from the supervisor's loop; returns the
/// bytes read. The parsed hashes must equal the accepted ones.
std::int64_t parse_accepted_results(const ShardedRun& run,
                                    const std::string& dir,
                                    const Tracer& tracer) {
  std::int64_t bytes = 0;
  for (const ShardSupervision& shard : run.report.shards) {
    for (const ShardAttemptRecord& record : shard.log) {
      if (record.outcome != "accepted") continue;
      const std::string text =
          read_file(dir + "/result-" + std::to_string(shard.shard_index) +
                    "-attempt-" + std::to_string(record.attempt) + ".json");
      bytes += static_cast<std::int64_t>(text.size());
      const ShardResult parsed = tracer.span("shard.parse", [&] {
        return ShardResult::from_json(json::Value::parse(text));
      });
      const ShardResult& accepted =
          run.report.results[static_cast<std::size_t>(shard.shard_index)];
      bool same = parsed.cells.size() == accepted.cells.size();
      for (std::size_t i = 0; same && i < parsed.cells.size(); ++i)
        same = parsed.cells[i].output_hash == accepted.cells[i].output_hash;
      if (!same) throw std::runtime_error("re-parsed shard result disagrees");
    }
  }
  return bytes;
}

// --- summaries -----------------------------------------------------------------

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

json::Value num(std::int64_t value) { return json::Value::number(value); }
json::Value num(double value) { return json::Value::number(value); }

std::string canonical_json(const CampaignResult& result) {
  std::ostringstream out;
  CampaignJsonOptions options;
  options.canonical = true;
  write_campaign_json(out, result, options);
  return out.str();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// What run.py compares across repetitions and against references: the
/// per-cell output hashes, the grid fingerprint, the canonical JSON, and
/// the deterministic work counters.
json::Value outcome_summary(const CampaignResult& result,
                            const std::string& canonical) {
  std::int64_t failed = 0, steps = 0, messages = 0, rounds = 0, edges = 0,
               kernel_steps = 0, batched = 0, batch_calls = 0, dropped = 0,
               duplicated = 0, skew = 0, frontier = 0;
  json::Value hashes = json::Value::array();
  json::Value failed_cells = json::Value::array();
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& cell = result.cells[i];
    if (!cell.error.empty() || !cell.solved || !cell.valid) {
      ++failed;
      failed_cells.push_back(num(static_cast<std::int64_t>(i)));
    }
    hashes.push_back(json::Value::string(hex64(cell.output_hash)));
    steps += cell.stats.total_steps;
    messages += cell.stats.total_messages;
    rounds += cell.rounds;
    edges += cell.edges;
    kernel_steps += cell.stats.kernel_steps;
    batched += cell.stats.kernel_batched_steps;
    batch_calls += cell.stats.kernel_batch_calls;
    dropped += cell.stats.messages_dropped;
    duplicated += cell.stats.messages_duplicated;
    skew = std::max(skew, cell.stats.max_delivery_skew);
    frontier = std::max(frontier, cell.stats.peak_frontier_nodes);
  }
  json::Value counters = json::Value::object();
  counters.set("engine.steps", num(steps));
  counters.set("engine.messages", num(messages));
  counters.set("engine.rounds", num(rounds));
  counters.set("engine.kernel_steps", num(kernel_steps));
  counters.set("engine.batched_steps", num(batched));
  counters.set("engine.batch_calls", num(batch_calls));
  counters.set("engine.peak_frontier", num(frontier));
  counters.set("graph.edges", num(edges));
  counters.set("network.dropped", num(dropped));
  counters.set("network.duplicated", num(duplicated));
  counters.set("network.max_skew", num(skew));
  counters.set("json.bytes", num(static_cast<std::int64_t>(canonical.size())));

  json::Value out = json::Value::object();
  out.set("cells", num(static_cast<std::int64_t>(result.cells.size())));
  out.set("failed", num(failed));
  out.set("failed_cells", std::move(failed_cells));
  out.set("grid_hash", json::Value::string(hex64(campaign_grid_hash(result))));
  out.set("canonical_digest", json::Value::string(hex64(fnv1a(canonical))));
  out.set("cell_hashes", std::move(hashes));
  out.set("counters", std::move(counters));
  return out;
}

/// Timing-dependent engine and campaign figures (no cross-run equality).
json::Value timing_summary(const CampaignResult& result, double grid_s) {
  double engine_s = 0.0, busy_s = 0.0;
  std::int64_t arena = 0;
  std::vector<double> cell_seconds;
  for (const CellResult& cell : result.cells) {
    engine_s += cell.stats.elapsed_seconds;
    busy_s += cell.seconds;
    arena = std::max(arena, cell.stats.arena_bytes);
    cell_seconds.push_back(cell.seconds);
  }
  const CampaignPercentiles cells = campaign_percentiles(cell_seconds);
  json::Value out = json::Value::object();
  out.set("engine.run_s", num(engine_s));
  out.set("engine.arena_mb", num(static_cast<double>(arena) / kMiB));
  out.set("campaign.busy_frac",
          num(busy_s / (result.workers * std::max(grid_s, 1e-9))));
  out.set("campaign.cell_p50_s", num(cells.p50));
  out.set("campaign.cell_p90_s", num(cells.p90));
  return out;
}

json::Value supervisor_summary(const SupervisorReport& report,
                               double run_s) {
  std::vector<double> attempt_seconds;
  double longest_accepted = 0.0;
  for (const ShardSupervision& shard : report.shards)
    for (const ShardAttemptRecord& record : shard.log) {
      attempt_seconds.push_back(record.seconds);
      if (record.outcome == "accepted")
        longest_accepted = std::max(longest_accepted, record.seconds);
    }
  const CampaignPercentiles attempts = campaign_percentiles(attempt_seconds);
  json::Value out = json::Value::object();
  out.set("supervisor.attempts",
          num(static_cast<std::int64_t>(report.attempts)));
  out.set("supervisor.attempt_p50_s", num(attempts.p50));
  out.set("supervisor.attempt_max_s", num(attempts.max));
  out.set("supervisor.overhead_s", num(run_s - longest_accepted));
  return out;
}

// --- provenance and resource use -------------------------------------------------

/// Refuses Debug and sanitizer builds: their timings say nothing about the
/// program users run.
void require_optimized_build() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (type != "Release" && type != "RelWithDebInfo")
    throw std::runtime_error("refusing to report from CMAKE_BUILD_TYPE='" +
                             type + "' (need Release or RelWithDebInfo)");
  if (flags.find("-fsanitize") != std::string::npos)
    throw std::runtime_error("refusing to report from a sanitizer build (" +
                             flags + ")");
}

json::Value build_info() {
  json::Value out = json::Value::object();
  out.set("build_type", json::Value::string(PERFBENCH_BUILD_TYPE));
  out.set("compiler", json::Value::string(PERFBENCH_COMPILER));
  out.set("cxx_flags", json::Value::string(PERFBENCH_CXX_FLAGS));
  return out;
}

/// User + system CPU seconds of this process plus its reaped children.
double cpu_seconds() {
  const auto total = [](int who) {
    rusage usage{};
    getrusage(who, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                      usage.ru_stime.tv_usec);
  };
  return total(RUSAGE_SELF) + total(RUSAGE_CHILDREN);
}

/// Peak resident set of this process or its largest reaped child, in MiB.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// --- modes ---------------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  int workers = 4;
  std::string cli;
  std::string scratch;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* flag) -> std::optional<std::string> {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      return arg.substr(prefix.size());
    };
    if (auto v = value("--mode")) args.mode = *v;
    else if (auto v = value("--workload")) args.workload = *v;
    else if (auto v = value("--seed")) args.seed = std::stoull(*v);
    else if (auto v = value("--workers")) args.workers = std::stoi(*v);
    else if (auto v = value("--cli")) args.cli = *v;
    else if (auto v = value("--scratch")) args.scratch = *v;
    else if (auto v = value("--trace-out")) args.trace_out = *v;
    else throw std::runtime_error("unknown argument '" + arg + "'");
  }
  if (args.mode.empty() || args.workload.empty() || args.scratch.empty())
    throw std::runtime_error("--mode, --workload and --scratch are required");
  if (args.workers < 1) throw std::runtime_error("--workers must be >= 1");
  return args;
}

/// Everything before the grid is submitted. Pools exist only for the
/// in-process workloads, the shard plan only for `sharded`.
struct Setup {
  std::vector<CampaignCell> cells;
  std::optional<ThreadPool> pool;
  std::optional<WorkspacePool> workspaces;
  std::optional<ShardPlan> plan;
  double seconds = 0.0;
};

void set_up(Setup& setup, const Workload& workload, const Args& args,
            const Tracer& tracer) {
  const auto start = Clock::now();
  tracer.span("setup.registry", [] {
    default_scenarios();
    default_algorithm_registry();
  });
  setup.cells = tracer.span("setup.grid", [&] {
    std::vector<CampaignCell> cells = workload.grid(args.seed);
    validate_cells(cells, default_scenarios(), default_algorithm_registry());
    return cells;
  });
  if (workload.sharded) {
    setup.plan = plan_sharded(setup.cells, args.workers, tracer);
  } else {
    tracer.span("setup.pools", [&] {
      setup.pool.emplace(args.workers);
      // run_campaign builds its own workspace pool; the traced runner
      // lends this one.
      if (tracer.recorder != nullptr) setup.workspaces.emplace(args.workers);
    });
  }
  setup.seconds = seconds_since(start);
}

json::Value run_setup_mode(const Workload& workload, const Args& args) {
  Setup setup;
  set_up(setup, workload, args, Tracer{});
  json::Value out = json::Value::object();
  out.set("cells", num(static_cast<std::int64_t>(setup.cells.size())));
  out.set("setup_s", num(setup.seconds));
  return out;
}

json::Value run_timed_mode(const Workload& workload, const Args& args) {
  Setup setup;
  set_up(setup, workload, args, Tracer{});
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  CampaignResult result;
  if (workload.sharded) {
    result =
        run_sharded(*setup.plan, args.cli, args.scratch + "/main", Tracer{})
            .merged;
  } else {
    CampaignOptions options;
    options.pool = &*setup.pool;
    result = run_campaign(setup.cells, options);
  }
  const double grid_s = seconds_since(start);
  const double cpu_s = cpu_seconds() - cpu0;
  const double rss = peak_rss_mb();

  json::Value out = outcome_summary(result, canonical_json(result));
  out.set("setup_s", num(setup.seconds));
  out.set("grid_s", num(grid_s));
  out.set("cpu_s", num(cpu_s));
  out.set("peak_rss_mb", num(rss));
  return out;
}

json::Value run_reference_mode(const Workload& workload, const Args& args) {
  std::vector<CampaignCell> cells = workload.grid(args.seed);
  if (std::string(workload.name) == "delayed")
    for (CampaignCell& cell : cells) cell.network = NetworkOptions{};
  CampaignOptions options;
  options.workers = args.workers;
  const CampaignResult result = run_campaign(cells, options);
  return outcome_summary(result, canonical_json(result));
}

json::Value run_traced_mode(const Workload& workload, const Args& args) {
  if (args.trace_out.empty())
    throw std::runtime_error("--mode=traced needs --trace-out");
  telemetry::TraceRecorder recorder;
  recorder.set_process_name(1, "perfbench " + std::string(workload.name));
  recorder.set_process_name(2, "supervisor attempts");
  recorder.set_process_name(3, "layer check");
  recorder.set_process_name(4, "layer check: supervisor attempts");
  const Tracer main{&recorder, 1};
  const Tracer check{&recorder, 3};

  Setup setup;
  set_up(setup, workload, args, main);
  const auto start = Clock::now();
  CampaignResult result;
  std::optional<ShardedRun> sharded;
  if (workload.sharded) {
    sharded =
        run_sharded(*setup.plan, args.cli, args.scratch + "/main", main);
    result = sharded->merged;
  } else {
    result = traced_campaign(setup.cells, *setup.pool, *setup.workspaces, main);
  }
  const double grid_s = seconds_since(start);
  const std::string canonical =
      main.span("json.write", [&] { return canonical_json(result); });

  // The layer check, outside the grid: the layers this workload's own path
  // skips run on the same cells, and must give the same outputs.
  json::Value layers = timing_summary(result, grid_s);
  json::Value check_summary;
  if (workload.sharded) {
    layers.set("shard.manifest_bytes", num(manifest_bytes(*setup.plan)));
    layers.set("shard.result_bytes",
               num(parse_accepted_results(*sharded, args.scratch + "/main",
                                          main)));
    json::Value supervision = supervisor_summary(
        sharded->report, sharded->report.elapsed_seconds);
    for (const auto& [key, value] : supervision.as_object())
      layers.set(key, value);
    ThreadPool pool(args.workers);
    WorkspacePool workspaces(args.workers);
    const CampaignResult in_process =
        traced_campaign(setup.cells, pool, workspaces, check);
    check_summary = outcome_summary(in_process, canonical_json(in_process));
  } else {
    const std::string dir = args.scratch + "/check";
    const ShardPlan plan = plan_sharded(setup.cells, args.workers, check);
    const ShardedRun transport = run_sharded(plan, args.cli, dir, check);
    layers.set("shard.manifest_bytes", num(manifest_bytes(plan)));
    layers.set("shard.result_bytes",
               num(parse_accepted_results(transport, dir, check)));
    json::Value supervision = supervisor_summary(
        transport.report, transport.report.elapsed_seconds);
    for (const auto& [key, value] : supervision.as_object())
      layers.set(key, value);
    check_summary =
        outcome_summary(transport.merged, canonical_json(transport.merged));
  }
  recorder.write_file(args.trace_out);

  json::Value out = outcome_summary(result, canonical);
  out.set("setup_s", num(setup.seconds));
  out.set("grid_s", num(grid_s));
  out.set("layers", std::move(layers));
  out.set("check", std::move(check_summary));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    require_optimized_build();
    const Args args = parse_args(argc, argv);
    const Workload& workload = find_workload(args.workload);
    std::filesystem::create_directories(args.scratch);
    json::Value out;
    if (args.mode == "setup") out = run_setup_mode(workload, args);
    else if (args.mode == "timed") out = run_timed_mode(workload, args);
    else if (args.mode == "traced") out = run_traced_mode(workload, args);
    else if (args.mode == "reference") out = run_reference_mode(workload, args);
    else throw std::runtime_error("unknown mode '" + args.mode + "'");
    out.set("mode", json::Value::string(args.mode));
    out.set("build", build_info());
    std::cout << out.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
