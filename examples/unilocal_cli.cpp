// unilocal_cli — run a uniform LOCAL algorithm on your own graph, or sweep
// a campaign grid over the scenario registry.
//
//   unilocal_cli <problem> [file] [--stats] [--kernel=off|auto|on]
//
//   <problem>: mis | matching | coloring | rulingset2 — the registry
//              entries mis-uniform | matching-uniform | coloring-theorem5 |
//              rulingset2-lv, run with seed 1 and scored by their checker.
//   [file]:    edge list ("n m" header then "u v" per line);
//              reads stdin when omitted.
//   --stats:   also print per-run engine statistics (arena bytes, peak
//              messages/round, steps/sec, peak/final live nodes, frontier
//              width, lazily cleared dirty spans, kernel/vtable step split)
//              on stderr.
//   --kernel:  engine execution path (src/runtime/kernel.h): flat step
//              kernels where an algorithm has a lowering (auto, the
//              default), the Process vtable path always (off), or kernels
//              required — error when a stage has no lowering (on). Outputs
//              are bit-identical across modes.
//   --network: delivery layer (src/runtime/network.h): the round-exact
//              synchronous arena (sync, the default) or the seeded
//              event-queue transport (delay:uniform | delay:weighted |
//              delay:heavytail). Fault knobs — --drop/--dup/--crash/--late
//              (probabilities) and --max-delay/--late-by (ticks) — apply
//              to the delayed presets only. When every message is
//              eventually delivered, outputs are bit-identical to the
//              synchronous run (the paper's Observation 2.1); sweep and
//              table1 accept a comma-separated spec list and cross the
//              grid with it like a scenario dimension.
//
//   unilocal_cli sweep [--scenarios=a,b,..] [--algorithms=x,y,..] [--n=N]
//                      [--a=V] [--b=V] [--seeds=K] [--workers=W]
//                      [--kernel=M] [--format=csv|json] [--log=FILE] [--list]
//
//   Runs the (scenario x algorithm x seed) grid concurrently on W workers
//   (campaign layer, src/runtime/campaign.h), prints one CSV row (or JSON
//   record) per cell on stdout and the aggregate summary on stderr.
//   --algorithms (alias --algos) accepts registry keys, '*'/'?' globs
//   (e.g. 'mis-*'), and the word 'all'. --list shows the registered
//   scenario families and algorithms. --log appends one JSON line to the
//   append-only run log and diffs against the last recorded sweep of the
//   same grid.
//
//   unilocal_cli table1 [--n=N] [--seeds=K] [--workers=W] [--kernel=M]
//                       [--format=csv|json] [--log=FILE] [--smoke]
//
//   Regenerates the paper's Table 1 grid as ONE campaign: every registry
//   entry crossed with the scenario families its row is stated over.
//   --smoke shrinks the grid (n=64, 1 seed) for CI. Exit status 0 iff
//   every cell ran, solved, and passed its centralized checker.
//
//   Both sweep and table1 accept --shards=K [--policy=P]: the grid is
//   planned into K shards, run as K concurrently *supervised* worker
//   processes (each `unilocal_cli shard run` on its own manifest,
//   src/runtime/supervisor.h), and merged — the merged output is
//   bit-identical (per-cell output hashes, grid hash) to the
//   single-process run. --canonical emits only the deterministic JSON
//   fields so sharded and single-process outputs diff byte-equal.
//   Supervision knobs: --max-attempts=N (launches per shard, default 3),
//   --shard-timeout=S (base per-attempt deadline; the cost model adds a
//   per-cost term), --journal=FILE (checkpoint journal — rerunning after
//   a kill resumes, skipping completed shards, to byte-identical output),
//   --allow-partial (exhausted shards degrade to an explicit missing-cell
//   report instead of a fatal error), --no-speculate (disable straggler
//   re-launch). The hidden chaos harness --inject=crash:p,hang:p,
//   corrupt:p,flaky-exit:p [--inject-seed=U] makes workers abort mid-run,
//   sleep past their deadline, scribble their output file, or exit
//   nonzero after valid output — deterministically per (shard, attempt,
//   seed) — to exercise every recovery path in tests and CI.
//
//   unilocal_cli shard plan --dir=DIR --shards=K [--policy=P] <grid flags>
//   unilocal_cli shard run MANIFEST [--out=FILE] [--workers=W] [--kernel=M]
//   unilocal_cli shard merge PLAN RESULT... [--format=csv|json]
//                            [--canonical] [--log=FILE]
//
//   The three layers of src/runtime/shard.h, one file per hop: plan
//   writes DIR/plan.json + DIR/shard-<i>.json manifests (--table1
//   [--smoke] or --scenarios/--algorithms pick the grid); run executes
//   one manifest and writes a shard-result JSON; merge verifies every
//   result against the plan (missing/duplicate/foreign/hash-mismatched
//   shards are rejected naming all offenders) and prints the merged
//   campaign exactly like sweep does.
//
// Every verb declares its flags as rows of a FlagTable (src/util/flags.h);
// a malformed value fails naming the flag, an unknown flag prints usage.
//
// Prints one line per node: "<identity> <output>" (plus a summary on
// stderr). Every algorithm here is the uniform product of the paper's
// transformers — the tool needs no -n/-delta flags because no node needs
// them; that is the point of the paper.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/graph/io.h"
#include "src/runtime/campaign.h"
#include "src/runtime/kernel.h"
#include "src/runtime/run_log.h"
#include "src/runtime/shard.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/telemetry.h"
#include "src/util/flags.h"

using namespace unilocal;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: unilocal_cli <mis|matching|coloring|rulingset2> "
               "[edge-list-file] [--stats] [--stats-json=FILE] "
               "[--kernel=off|auto|on] "
               "[--network=sync|delay:uniform|delay:weighted|delay:heavytail] "
               "[--drop=P] [--dup=P] [--crash=P] [--late=P] [--max-delay=T] "
               "[--late-by=T] [--trace=FILE] [--metrics=FILE] "
               "[--trace-rounds=N]\n"
               "       unilocal_cli sweep [--scenarios=a,b,..] "
               "[--algorithms=x,y,..|all|glob*] [--n=N] [--a=V] [--b=V] "
               "[--seeds=K] [--workers=W] [--kernel=M] "
               "[--network=SPEC,..] [fault knobs] [--shards=K] "
               "[--policy=round-robin|cost-balanced] [--max-attempts=N] "
               "[--shard-timeout=S] [--journal=FILE] [--allow-partial] "
               "[--no-speculate] [--format=csv|json] "
               "[--canonical] [--log=FILE] [--trace=FILE] [--metrics=FILE] "
               "[--trace-rounds=N] [--list]\n"
               "       unilocal_cli table1 [--n=N] [--seeds=K] [--workers=W] "
               "[--kernel=M] [--network=SPEC,..] [fault knobs] [--shards=K] "
               "[--policy=P] [--max-attempts=N] [--shard-timeout=S] "
               "[--journal=FILE] [--allow-partial] [--no-speculate] "
               "[--format=csv|json] "
               "[--canonical] [--log=FILE] [--trace=FILE] [--metrics=FILE] "
               "[--trace-rounds=N] [--smoke]\n"
               "       unilocal_cli shard plan --dir=DIR --shards=K "
               "[--policy=P] (--table1 [--smoke] | --scenarios=.. "
               "--algorithms=..) [--n=N] [--a=V] [--b=V] [--seeds=K] "
               "[--network=SPEC,..] [fault knobs]\n"
               "       unilocal_cli shard run MANIFEST [--out=FILE] "
               "[--workers=W] [--kernel=M] [--trace=FILE] [--metrics=FILE] "
               "[--trace-rounds=N]\n"
               "       unilocal_cli shard merge PLAN RESULT... "
               "[--format=csv|json] [--canonical] [--log=FILE]\n");
  return 2;
}

/// argv[0], for the sharded driver to re-invoke itself; /proc/self/exe
/// wins when available (argv[0] may be a bare name found via PATH).
std::string g_self_path;  // NOLINT

std::string self_executable() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return exe.string();
  return g_self_path;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
  if (!out) throw std::runtime_error("short write to " + path);
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> result;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ','))
    if (!item.empty()) result.push_back(item);
  return result;
}

// --- flag groups ---------------------------------------------------------------
//
// Each group owns the values of its flags and lists them as FlagTable rows
// (src/util/flags.h); a verb adds the groups, or the rows of a group, that
// it accepts.

/// The delivery layer: --network=SPEC[,..] plus the fault knobs, which apply
/// to the delayed specs only.
struct NetworkFlags {
  std::string specs;  // the raw --network= value
  NetworkOptions knobs;

  std::vector<Flag> rows() {
    return {{"--network", FlagKind::kString, &specs},
            {"--drop", FlagKind::kProbability, &knobs.drop},
            {"--dup", FlagKind::kProbability, &knobs.duplicate},
            {"--crash", FlagKind::kProbability, &knobs.crash},
            {"--late", FlagKind::kProbability, &knobs.late},
            {"--max-delay", FlagKind::kTicks, &knobs.max_delay},
            {"--late-by", FlagKind::kTicks, &knobs.late_by}};
  }

  /// One NetworkOptions per --network= spec (empty = all-sync default),
  /// fault knobs folded into the delayed entries. Throws
  /// std::runtime_error naming the flag on malformed or inconsistent
  /// values.
  std::vector<NetworkOptions> resolve(const FlagTable& table) {
    const std::vector<std::string> list = split_csv(specs);
    if (table.given("--network") && list.empty())
      throw std::runtime_error(
          "--network: expected sync or delay:<preset>, got ''");
    std::vector<NetworkOptions> result;
    bool any_delayed = false;
    for (const std::string& spec : list) {
      NetworkOptions network = parse_network_spec(spec);
      if (network.kind == NetworkKind::kDelayed) {
        // parse_network_spec leaves every knob at its default, so the
        // knob values (default where not given) carry over whole.
        any_delayed = true;
        network.drop = knobs.drop;
        network.duplicate = knobs.duplicate;
        network.crash = knobs.crash;
        network.late = knobs.late;
        network.max_delay = knobs.max_delay;
        network.late_by = knobs.late_by;
        validate_network_options(network);
      }
      result.push_back(network);
    }
    const std::vector<Flag> flags = rows();  // --network, then the knobs
    const bool any_knob =
        std::any_of(flags.begin() + 1, flags.end(),
                    [&table](const Flag& row) { return table.given(row.name); });
    if (any_knob && !any_delayed)
      throw std::runtime_error(
          "--drop/--dup/--crash/--late/--max-delay/--late-by require "
          "--network=delay:<preset> (the synchronous network has no fault "
          "knobs)");
    return result;
  }

  /// The single-run form: at most one spec.
  NetworkOptions resolve_single(const FlagTable& table) {
    const std::vector<NetworkOptions> resolved = resolve(table);
    if (resolved.size() > 1)
      throw std::runtime_error(
          "--network: expected one value in single-problem mode, got " +
          std::to_string(resolved.size()));
    return resolved.empty() ? NetworkOptions{} : resolved.front();
  }
};

/// The campaign grid: --table1 or --scenarios/--algorithms (alias --algos,
/// registry keys, '*'/'?' globs and 'all'), the scenario knobs, the seeds
/// per combination, --smoke, and the delivery layer.
struct GridFlags {
  bool table1 = false;
  bool smoke = false;
  std::string scenarios;
  std::string algorithms;
  ScenarioParams params;
  int seeds = 2;
  NetworkFlags network;

  std::vector<Flag> rows() {
    return {{"--table1", FlagKind::kSwitch, &table1},
            {"--smoke", FlagKind::kSwitch, &smoke},
            {"--scenarios", FlagKind::kString, &scenarios},
            {"--algorithms", FlagKind::kString, &algorithms, "--algos"},
            {"--n", FlagKind::kCount, &params.n},
            {"--a", FlagKind::kDouble, &params.a},
            {"--b", FlagKind::kDouble, &params.b},
            {"--seeds", FlagKind::kCount, &seeds}};
  }

  /// The grid's cells. Applies --smoke to params and seeds first, so they
  /// read as the values the grid used afterwards.
  std::vector<CampaignCell> cells(const FlagTable& table) {
    // --smoke shrinks only the knobs the user did not set explicitly, so
    // flag order never changes the grid (and hence the --log grid hash).
    if (smoke) {
      if (!table.given("--n")) params.n = 64;
      if (!table.given("--seeds")) seeds = 1;
    }
    GridOptions options;
    options.networks = network.resolve(table);
    if (table1) return make_table1_grid(params, seeds, options);
    // Globs and 'all' expand against the registry; make_grid then
    // validates every key up front (one error listing all unknown keys).
    return make_grid(split_csv(scenarios), params,
                     default_algorithm_registry().resolve(
                         split_csv(algorithms)),
                     seeds, options);
  }
};

/// How the work runs: cell workers, shard processes and their planning
/// policy, and the engine path (src/runtime/kernel.h).
struct RunFlags {
  int workers = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  int shards = 0;
  std::string policy = shard_policy_name(ShardPolicy::kCostBalanced);
  std::string kernel = kernel_mode_name(KernelMode::kAuto);

  std::vector<Flag> rows() {
    return {{"--workers", FlagKind::kCount, &workers},
            {"--shards", FlagKind::kCount, &shards},
            {"--policy", FlagKind::kString, &policy},
            {"--kernel", FlagKind::kString, &kernel}};
  }

  ShardPolicy shard_policy() const { return parse_shard_policy(policy); }
  KernelMode kernel_mode() const { return parse_kernel_mode(kernel); }
};

/// How a campaign is printed: CSV or JSON, canonical JSON, and the run log.
struct ReportFlags {
  std::string format = "csv";
  bool canonical = false;
  std::string log_path;

  std::vector<Flag> rows() {
    return {{"--format", FlagKind::kString, &format},
            {"--canonical", FlagKind::kSwitch, &canonical},
            {"--log", FlagKind::kString, &log_path}};
  }

  bool valid() const { return format == "csv" || format == "json"; }
  bool json() const { return canonical || format == "json"; }
};

/// The shard supervisor's knobs (all require --shards=K): retry budget,
/// timeout, checkpoint journal, partial-merge opt-in, straggler
/// speculation, and the hidden chaos harness.
struct SupervisorFlags {
  int max_attempts = 3;
  double base_timeout_seconds = 300.0;
  bool allow_partial = false;
  bool no_speculate = false;
  std::string journal_path;
  std::string inject;
  std::uint64_t inject_seed = ChaosOptions{}.seed;

  std::vector<Flag> rows() {
    return {{"--max-attempts", FlagKind::kCount, &max_attempts},
            {"--shard-timeout", FlagKind::kDouble, &base_timeout_seconds},
            {"--allow-partial", FlagKind::kSwitch, &allow_partial},
            {"--no-speculate", FlagKind::kSwitch, &no_speculate},
            {"--journal", FlagKind::kString, &journal_path},
            {"--inject", FlagKind::kString, &inject},
            {"--inject-seed", FlagKind::kU64, &inject_seed}};
  }

  ChaosOptions chaos() const {
    ChaosOptions options = parse_chaos_spec(inject);
    options.seed = inject_seed;
    return options;
  }

  /// Throws std::runtime_error naming the flag when a supervisor flag is
  /// out of range or given without --shards.
  void check(const FlagTable& table, int shards) {
    if (!(base_timeout_seconds > 0.0))
      throw std::runtime_error("--shard-timeout: must be > 0");
    for (const Flag& row : rows())
      if (table.given(row.name) && shards <= 0)
        throw std::runtime_error(
            "--max-attempts/--shard-timeout/--journal/--allow-partial/"
            "--no-speculate/--inject require --shards=K (they configure the "
            "shard supervisor)");
  }
};

/// Observability (src/runtime/telemetry.h): --trace=FILE writes a Chrome
/// trace-event JSON (Perfetto-loadable), --metrics=FILE a merged metrics
/// snapshot, --trace-rounds=N caps per-round engine events per run (head
/// sampling). None of these touch stdout: canonical output is
/// byte-identical with and without them.
struct TelemetryFlags {
  std::string trace_path;
  std::string metrics_path;
  std::int64_t trace_rounds = telemetry::kDefaultTraceRounds;

  std::vector<Flag> rows() {
    return {{"--trace", FlagKind::kString, &trace_path},
            {"--metrics", FlagKind::kString, &metrics_path},
            {"--trace-rounds", FlagKind::kNonNegative, &trace_rounds}};
  }

  void check(const FlagTable& table) const {
    if (table.given("--trace") && trace_path.empty())
      throw std::runtime_error("--trace: expected a file path");
    if (table.given("--metrics") && metrics_path.empty())
      throw std::runtime_error("--metrics: expected a file path");
  }
};

/// Owns the recorder/registry the telemetry flags asked for (null when a
/// flag is absent) and writes their files at the end of the run.
/// `want_registry` forces a registry even without --metrics (--stats-json
/// folds a metrics snapshot into its document).
struct TelemetrySinks {
  std::unique_ptr<telemetry::TraceRecorder> recorder;
  std::unique_ptr<telemetry::MetricsRegistry> registry;

  explicit TelemetrySinks(const TelemetryFlags& flags,
                          bool want_registry = false) {
    if (!flags.trace_path.empty())
      recorder = std::make_unique<telemetry::TraceRecorder>();
    if (!flags.metrics_path.empty() || want_registry)
      registry = std::make_unique<telemetry::MetricsRegistry>();
  }

  void write(const TelemetryFlags& flags) const {
    if (recorder != nullptr) recorder->write_file(flags.trace_path);
    if (registry != nullptr && !flags.metrics_path.empty())
      write_text_file(flags.metrics_path, registry->to_json().dump() + "\n");
  }
};

void print_percentiles(const char* what, const CampaignPercentiles& p) {
  std::fprintf(stderr, "  %-22s p50=%.0f p90=%.0f p99=%.0f max=%.0f\n", what,
               p.p50, p.p90, p.p99, p.max);
}

/// Writes the per-cell output, prints the aggregate summary and every
/// non-valid cell, optionally appends to / diffs against the run log.
/// Returns 0 iff every cell ran, solved, and passed its checker.
int report_campaign(const char* what, const CampaignResult& result,
                    const ReportFlags& report) {
  if (report.json()) {
    CampaignJsonOptions json_options;
    json_options.canonical = report.canonical;
    write_campaign_json(std::cout, result, json_options);
    std::cout << '\n';
  } else {
    write_campaign_csv(std::cout, result);
  }
  std::fprintf(stderr,
               "%s: cells=%zu workers=%d solved=%d valid=%d failed=%d "
               "elapsed=%.3fs throughput=%.1f cells/s\n",
               what, result.cells.size(), result.workers, result.solved,
               result.valid, result.failed, result.elapsed_seconds,
               result.cells_per_second);
  print_percentiles("rounds", result.rounds);
  for_each_stat_block(result.stats, false, print_percentiles);
  if (result.supervision.enabled) {
    const SupervisionSummary& sup = result.supervision;
    std::fprintf(stderr,
                 "%s: supervision: shards=%d attempts=%d retries=%d "
                 "requeues=%d stragglers_respawned=%d from_journal=%d "
                 "failed=%d\n",
                 what, sup.shards, sup.attempts, sup.retries, sup.requeues,
                 sup.stragglers_respawned, sup.shards_from_journal,
                 sup.shards_failed);
    std::fprintf(stderr,
                 "  %-22s p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
                 "attempt_secs", sup.attempt_seconds.p50,
                 sup.attempt_seconds.p90, sup.attempt_seconds.p99,
                 sup.attempt_seconds.max);
    // The per-shard table goes to stderr only when something actually
    // happened (a retry, a straggler respawn, a journal skip, a failure)
    // — a clean first-try run stays quiet.
    if (sup.retries > 0 || sup.stragglers_respawned > 0 ||
        sup.shards_from_journal > 0 || sup.shards_failed > 0) {
      std::ostringstream table;
      write_supervised_shards_csv(table, sup);
      std::fprintf(stderr, "%s", table.str().c_str());
    }
  }
  for (const auto& cell : result.cells) {
    if (!cell.error.empty())
      std::fprintf(stderr, "%s: FAILED %s/%s seed=%llu: %s\n", what,
                   cell.cell.scenario.c_str(), cell.cell.algorithm.c_str(),
                   static_cast<unsigned long long>(cell.cell.seed),
                   cell.error.c_str());
    else if (!cell.valid)
      std::fprintf(stderr, "%s: %s %s/%s seed=%llu\n", what,
                   cell.solved ? "INVALID" : "UNSOLVED",
                   cell.cell.scenario.c_str(), cell.cell.algorithm.c_str(),
                   static_cast<unsigned long long>(cell.cell.seed));
  }
  if (!report.log_path.empty()) {
    const RunLogComparison comparison =
        compare_run_log(report.log_path, result);
    if (comparison.found) {
      std::fprintf(stderr,
                   "%s: vs %s (same grid): rounds.p50 x%.2f "
                   "messages.p50 x%.2f cells/s x%.2f elapsed x%.2f\n",
                   what, comparison.baseline.date.c_str(),
                   comparison.rounds_p50_ratio,
                   comparison.messages_p50_ratio,
                   comparison.cells_per_second_ratio,
                   comparison.elapsed_ratio);
    } else {
      std::fprintf(stderr, "%s: no recorded sweep of this grid in %s\n",
                   what, report.log_path.c_str());
    }
    append_run_log(report.log_path, result);
  }
  // Success means every cell ran, solved, and passed its checker.
  const bool all_good =
      result.failed == 0 &&
      result.valid == static_cast<int>(result.cells.size());
  return all_good ? 0 : 1;
}

// --- sharded execution -------------------------------------------------------

/// Deletes the shard scratch directory on EVERY exit path — success,
/// merge failure, supervision failure. Diagnostics survive deletion
/// because the failure messages fold in the worker stderr tails before
/// this runs; the checkpoint journal lives at the user-given --journal
/// path, outside scratch, so resume still works.
struct ScratchDir {
  std::filesystem::path dir;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// The local multi-process driver behind `sweep --shards=K` / `table1
/// --shards=K`: plans the grid and hands it to supervise_shards
/// (src/runtime/supervisor.h), which re-invokes this binary as
/// concurrently supervised `shard run` worker processes — per-attempt
/// timeouts, bounded retries with deterministic backoff, straggler
/// speculation, fingerprint-validated acceptance, and (with --journal)
/// checkpoint/resume. The merged campaign is bit-identical to the
/// single-process run whenever every shard is eventually accepted;
/// --allow-partial degrades exhausted shards to an explicit report.
int run_sharded(const char* what, const std::vector<CampaignCell>& cells,
                int shards, ShardPolicy policy, int workers_per_shard,
                KernelMode kernel_mode, const ReportFlags& report_flags,
                const SupervisorFlags& supervisor_flags,
                const TelemetryFlags& telemetry_flags) {
  namespace fs = std::filesystem;
  const ShardPlan plan = plan_shards(cells, shards, policy);

  std::string dir_template =
      (fs::temp_directory_path() / "unilocal-shards-XXXXXX").string();
  std::vector<char> dir_buffer(dir_template.begin(), dir_template.end());
  dir_buffer.push_back('\0');
  if (mkdtemp(dir_buffer.data()) == nullptr)
    throw std::runtime_error("cannot create shard scratch directory");
  const ScratchDir scratch{dir_buffer.data()};

  // Sharded telemetry: the supervisor records its own spans on pid 1;
  // workers write per-attempt trace files into scratch, and the accepted
  // attempt of each shard is stitched under pid shard+2 before scratch is
  // deleted. --metrics here snapshots the supervisor process only (the
  // cells ran in the workers).
  const TelemetrySinks sinks(telemetry_flags);
  const telemetry::ScopedMetrics scoped_metrics(sinks.registry.get());
  if (sinks.recorder != nullptr)
    sinks.recorder->set_process_name(1, "supervisor");
  const auto worker_trace_path = [&scratch](int shard, int attempt) {
    return (scratch.dir /
            ("trace-" + std::to_string(shard) + "-attempt-" +
             std::to_string(attempt) + ".json"))
        .string();
  };

  SupervisorOptions options;
  options.max_attempts = supervisor_flags.max_attempts;
  options.base_timeout_seconds = supervisor_flags.base_timeout_seconds;
  options.speculate = !supervisor_flags.no_speculate;
  options.scratch_dir = scratch.dir.string();
  options.journal_path = supervisor_flags.journal_path;
  options.trace = sinks.recorder.get();

  const std::string exe = self_executable();
  const ChaosOptions chaos = supervisor_flags.chaos();
  const std::string inject_spec = chaos_spec_name(chaos);
  const std::string kernel = kernel_mode_name(kernel_mode);
  const bool tracing = sinks.recorder != nullptr;
  const std::int64_t trace_rounds = telemetry_flags.trace_rounds;
  const WorkerCommand command =
      [&exe, workers_per_shard, &kernel, &inject_spec, &chaos, tracing,
       trace_rounds, &worker_trace_path](const ShardAttemptContext& context) {
        std::vector<std::string> argv = {
            exe,
            "shard",
            "run",
            context.manifest_path,
            "--out=" + context.result_path,
            "--workers=" + std::to_string(workers_per_shard),
            "--kernel=" + kernel};
        if (tracing) {
          argv.push_back("--trace=" + worker_trace_path(context.shard_index,
                                                        context.attempt));
          argv.push_back("--trace-rounds=" + std::to_string(trace_rounds));
        }
        if (!inject_spec.empty()) {
          // The worker draws its own fault from (spec, seed, shard,
          // attempt) — the supervisor only forwards the attempt number.
          argv.push_back("--inject=" + inject_spec);
          argv.push_back("--inject-seed=" + std::to_string(chaos.seed));
          argv.push_back("--attempt=" + std::to_string(context.attempt));
        }
        return argv;
      };

  const SupervisorReport report = supervise_shards(plan, options, command);
  const SupervisionSummary summary = report.summary();

  // Stitch the accepted attempt of every completed shard into the merged
  // trace while scratch still exists. A worker that died before writing
  // its trace (or a journal-resumed shard, which launched no process)
  // simply contributes no lane.
  if (sinks.recorder != nullptr) {
    for (const ShardSupervision& sup : report.shards) {
      if (!sup.completed || sup.from_journal) continue;
      for (const ShardAttemptRecord& record : sup.log) {
        if (record.outcome != "accepted") continue;
        const std::string path =
            worker_trace_path(sup.shard_index, record.attempt);
        try {
          sinks.recorder->merge_process(
              json::Value::parse(read_text_file(path)), sup.shard_index + 2,
              "shard " + std::to_string(sup.shard_index));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "%s: trace stitch: skipping %s: %s\n", what,
                       path.c_str(), e.what());
        }
        break;
      }
    }
  }
  if (sinks.registry != nullptr) {
    // Sharded --metrics snapshots the supervisor process: the supervision
    // counters (cell-level metrics live in the workers).
    sinks.registry->add("supervisor.attempts", summary.attempts);
    sinks.registry->add("supervisor.retries", summary.retries);
    sinks.registry->add("supervisor.requeues", summary.requeues);
    sinks.registry->add("supervisor.stragglers_respawned",
                        summary.stragglers_respawned);
    sinks.registry->add("supervisor.shards_from_journal",
                        summary.shards_from_journal);
    sinks.registry->add("supervisor.shards_failed", summary.shards_failed);
  }
  sinks.write(telemetry_flags);
  std::fprintf(stderr,
               "%s: supervised %zu shards (%s policy, %d workers each): "
               "%d attempts, %d retries, %d stragglers respawned, "
               "%d from journal, %.3fs\n",
               what, plan.shards.size(), shard_policy_name(policy),
               workers_per_shard, report.attempts, report.retries,
               report.stragglers_respawned, report.shards_from_journal,
               report.elapsed_seconds);

  if (!report.all_completed() && !supervisor_flags.allow_partial) {
    // failure_summary reads the worker stderr captures NOW, while scratch
    // still exists; the ScratchDir guard then deletes them.
    throw std::runtime_error(std::string(what) + ": " +
                             report.failure_summary() +
                             " (rerun with --allow-partial to merge the "
                             "completed shards anyway)");
  }
  CampaignResult merged;
  if (report.all_completed()) {
    merged = merge_shard_results(plan, report.results);
  } else {
    PartialMergeReport partial;
    merged = merge_shard_results_partial(plan, report.results, partial);
    std::fprintf(stderr, "%s: %s\n", what, report.failure_summary().c_str());
    std::fprintf(stderr, "%s: %s\n", what, partial.describe().c_str());
  }
  merged.supervision = summary;
  return report_campaign(what, merged, report_flags);
}

// --- verbs -------------------------------------------------------------------

void print_registry_listing() {
  const auto& registry = default_algorithm_registry();
  std::printf("scenario families:\n");
  for (const auto& name : default_scenarios().names())
    std::printf("  %-16s %s\n", name.c_str(),
                default_scenarios().describe(name).c_str());
  std::printf("algorithms (selection accepts globs and 'all'):\n");
  for (const auto& name : registry.names()) {
    const AlgorithmSpec& spec = registry.spec(name);
    std::string knobs;
    for (const auto& [knob, knob_value] : spec.knobs) {
      char buffer[48];
      std::snprintf(buffer, sizeof(buffer), "%s%s=%g",
                    knobs.empty() ? "" : " ", knob.c_str(), knob_value);
      knobs += buffer;
    }
    std::printf("  %-26s problem=%-14s %s%s%s\n      %s\n", name.c_str(),
                spec.problem.c_str(), knobs.empty() ? "" : "knobs:",
                knobs.c_str(), knobs.empty() ? "" : ";",
                spec.describe.c_str());
  }
}

/// `sweep` and `table1`: build the grid, then run it in process or as
/// supervised shard processes (--shards=K) and report it. The two verbs
/// differ only in the grid rows they accept and their defaults.
int run_grid(const std::string& verb, int argc, char** argv) {
  const bool table1 = verb == "table1";
  GridFlags grid;
  RunFlags run;
  ReportFlags report;
  SupervisorFlags supervisor;
  TelemetryFlags telemetry_flags;
  bool list = false;
  FlagTable table;
  if (table1) {
    grid.table1 = true;
    grid.params.n = 256;
    table.add(grid.rows(), {"--n", "--seeds", "--smoke"});
  } else {
    grid.scenarios = "gnp,power-law,geometric,layered-forest,caterpillar";
    grid.algorithms = "mis-uniform,mis-fastest";
    grid.params.n = 200;
    table.add(grid.rows(),
              {"--scenarios", "--algorithms", "--n", "--a", "--b", "--seeds"});
    table.add({"--list", FlagKind::kSwitch, &list});
  }
  table.add(grid.network.rows());
  table.add(run.rows());
  table.add(report.rows());
  table.add(supervisor.rows());
  table.add(telemetry_flags.rows());
  if (!table.parse({argv + 2, argv + argc}).empty() || !report.valid())
    return usage();
  const ShardPolicy policy = run.shard_policy();
  const KernelMode kernel_mode = run.kernel_mode();
  telemetry_flags.check(table);
  if (list) {
    print_registry_listing();
    return 0;
  }

  const auto cells = grid.cells(table);
  if (table1)
    std::fprintf(stderr,
                 "table1: %zu cells (%zu algorithms x their Table 1 "
                 "families x %d seed%s, n=%d)\n",
                 cells.size(), default_algorithm_registry().names().size(),
                 grid.seeds, grid.seeds == 1 ? "" : "s", grid.params.n);
  if (cells.empty()) {
    std::fprintf(stderr, "%s: empty grid\n", verb.c_str());
    return 1;
  }
  supervisor.check(table, run.shards);
  if (run.shards > 0) {
    // --workers now means workers per shard process; default to an even
    // split of the machine instead of oversubscribing it K times.
    const int per_shard = table.given("--workers")
                              ? run.workers
                              : std::max(1, run.workers / run.shards);
    return run_sharded(verb.c_str(), cells, run.shards, policy, per_shard,
                       kernel_mode, report, supervisor, telemetry_flags);
  }
  const TelemetrySinks sinks(telemetry_flags);
  const telemetry::ScopedMetrics scoped_metrics(sinks.registry.get());
  if (sinks.recorder != nullptr)
    sinks.recorder->set_process_name(1, "campaign");
  CampaignOptions options;
  options.workers = run.workers;
  options.kernel_mode = kernel_mode;
  options.trace = sinks.recorder.get();
  options.trace_rounds = telemetry_flags.trace_rounds;
  const CampaignResult result = run_campaign(cells, options);
  sinks.write(telemetry_flags);
  return report_campaign(verb.c_str(), result, report);
}

int run_shard_plan(int argc, char** argv) {
  std::string dir;
  RunFlags run;
  GridFlags grid;
  grid.params.n = 256;
  FlagTable table;
  table.add({"--dir", FlagKind::kString, &dir});
  table.add(run.rows(), {"--shards", "--policy"});
  table.add(grid.rows());
  table.add(grid.network.rows());
  if (!table.parse({argv + 3, argv + argc}).empty()) return usage();
  if (dir.empty() || run.shards < 1) return usage();
  if (!grid.table1 &&
      (split_csv(grid.scenarios).empty() || split_csv(grid.algorithms).empty()))
    return usage();
  const ShardPolicy policy = run.shard_policy();
  const auto cells = grid.cells(table);
  if (cells.empty()) {
    std::fprintf(stderr, "shard plan: empty grid\n");
    return 1;
  }
  const ShardPlan plan = plan_shards(cells, run.shards, policy);

  namespace fs = std::filesystem;
  fs::create_directories(dir);
  write_text_file((fs::path(dir) / "plan.json").string(),
                  plan.to_json().dump() + "\n");
  const ShardCostModel& model = default_shard_cost_model();
  for (const ShardManifest& manifest : plan.shards) {
    const std::string path =
        (fs::path(dir) / ("shard-" + std::to_string(manifest.shard_index) +
                          ".json"))
            .string();
    write_text_file(path, manifest.to_json().dump() + "\n");
    double cost = 0.0;
    for (const CampaignCell& cell : manifest.cells)
      cost += model.cell_cost(cell);
    std::fprintf(stderr, "shard plan: %s — %zu cells, est. cost %.0f\n",
                 path.c_str(), manifest.cells.size(), cost);
  }
  std::fprintf(stderr,
               "shard plan: %zu cells into %d shards (%s), grid hash %llu, "
               "plan at %s/plan.json\n",
               cells.size(), run.shards, shard_policy_name(policy),
               static_cast<unsigned long long>(plan.grid_hash), dir.c_str());
  return 0;
}

int run_shard_run(int argc, char** argv) {
  std::string out_path;
  RunFlags run;
  SupervisorFlags supervisor;
  TelemetryFlags telemetry_flags;
  int attempt = 1;
  FlagTable table;
  table.add({"--out", FlagKind::kString, &out_path});
  table.add(run.rows(), {"--workers", "--kernel"});
  table.add(supervisor.rows(), {"--inject", "--inject-seed"});
  table.add({"--attempt", FlagKind::kCount, &attempt});
  table.add(telemetry_flags.rows());
  const std::vector<std::string> positional =
      table.parse({argv + 3, argv + argc});
  if (positional.size() != 1) return usage();
  telemetry_flags.check(table);
  const KernelMode kernel_mode = run.kernel_mode();
  const ChaosOptions chaos = supervisor.chaos();
  const ShardManifest manifest =
      ShardManifest::from_json(json::Value::parse(read_text_file(positional[0])));

  // Chaos harness (the supervisor's --inject, forwarded here with the
  // attempt number): the fault is a pure function of (spec, seed, shard,
  // attempt), so a rerun replays the same schedule.
  const ChaosFault fault =
      draw_chaos_fault(chaos, manifest.shard_index, attempt);
  if (fault != ChaosFault::kNone)
    std::fprintf(stderr, "shard run: chaos: injecting %s (shard %d attempt %d)\n",
                 chaos_fault_name(fault), manifest.shard_index, attempt);
  if (fault == ChaosFault::kCrash) std::abort();  // mid-run, no output
  if (fault == ChaosFault::kHang) {
    ::sleep(3600);  // the supervisor's deadline kills us long before this
    return 1;
  }

  // Worker-side telemetry: the shard's cells trace on local pid 1; the
  // supervisor remaps the whole file onto its own pid lane when stitching.
  const TelemetrySinks sinks(telemetry_flags);
  const telemetry::ScopedMetrics scoped_metrics(sinks.registry.get());
  if (sinks.recorder != nullptr)
    sinks.recorder->set_process_name(
        1, "shard " + std::to_string(manifest.shard_index));
  CampaignOptions options;
  options.workers = run.workers;
  options.kernel_mode = kernel_mode;
  options.trace = sinks.recorder.get();
  options.trace_rounds = telemetry_flags.trace_rounds;
  const ShardResult result = run_shard(manifest, options);
  sinks.write(telemetry_flags);
  std::string text = result.to_json().dump() + "\n";
  if (fault == ChaosFault::kCorrupt) {
    // A torn write: the file exists but holds only half the document. The
    // supervisor must reject it on parse/fingerprint and retry.
    text = text.substr(0, text.size() / 2);
  }
  if (out_path.empty())
    std::cout << text;
  else
    write_text_file(out_path, text);
  if (fault == ChaosFault::kFlakyExit) return 43;  // valid output, bad exit

  int valid = 0;
  int failed = 0;
  for (const CellResult& cell : result.cells) {
    if (!cell.error.empty())
      ++failed;
    else if (cell.valid)
      ++valid;
  }
  std::fprintf(stderr,
               "shard run: shard %d/%d — %zu cells, valid=%d failed=%d, "
               "%.3fs on %d workers\n",
               result.shard_index, result.num_shards, result.cells.size(),
               valid, failed, result.elapsed_seconds, result.workers);
  const bool all_good =
      failed == 0 && valid == static_cast<int>(result.cells.size());
  return all_good ? 0 : 1;
}

int run_shard_merge(int argc, char** argv) {
  ReportFlags report;
  FlagTable table;
  table.add(report.rows());
  const std::vector<std::string> paths = table.parse({argv + 3, argv + argc});
  if (paths.size() < 2 || !report.valid()) return usage();
  const ShardPlan plan =
      ShardPlan::from_json(json::Value::parse(read_text_file(paths[0])));
  std::vector<ShardResult> results;
  results.reserve(paths.size() - 1);
  for (std::size_t i = 1; i < paths.size(); ++i)
    results.push_back(
        ShardResult::from_json(json::Value::parse(read_text_file(paths[i]))));
  const CampaignResult merged = merge_shard_results(plan, results);
  return report_campaign("shard merge", merged, report);
}

int run_shard_command(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string verb = argv[2];
  if (verb == "plan") return run_shard_plan(argc, argv);
  if (verb == "run") return run_shard_run(argc, argv);
  if (verb == "merge") return run_shard_merge(argc, argv);
  return usage();
}

// --- single problem ------------------------------------------------------------

/// The single-problem names and the registry pipeline each one runs.
constexpr std::pair<std::string_view, const char*> kProblemPipelines[] = {
    {"mis", "mis-uniform"},
    {"matching", "matching-uniform"},
    {"coloring", "coloring-theorem5"},
    {"rulingset2", "rulingset2-lv"}};

void emit_stats(const EngineStats& stats, const char* what) {
  std::ostringstream line;
  for (const StatField& field : kEngineStatFields) {
    line << ' ' << field.key << '=';
    write_stat(line, stats, field);
  }
  std::fprintf(stderr, "%s engine:%s batch_occupancy=%.1f\n", what,
               line.str().c_str(), stats.batch_occupancy());
}

/// `unilocal_cli <problem> [file]`: one registry pipeline on one graph,
/// run with seed 1 and scored by the entry's own checker.
int run_problem(int argc, char** argv) {
  bool want_stats = false;
  std::string stats_json_path;
  RunFlags run;
  NetworkFlags network_flags;
  TelemetryFlags telemetry_flags;
  FlagTable table;
  table.add({"--stats", FlagKind::kSwitch, &want_stats});
  table.add({"--stats-json", FlagKind::kString, &stats_json_path});
  table.add(run.rows(), {"--kernel"});
  table.add(network_flags.rows());
  table.add(telemetry_flags.rows());
  std::vector<std::string> positional;
  AlgorithmRunContext context;
  try {
    // Malformed values, unknown presets ("--network=delay:pareto") and
    // knobs without a delayed network surface here, before any graph is
    // read.
    positional = table.parse({argv + 1, argv + argc});
    telemetry_flags.check(table);
    context.kernel_mode = run.kernel_mode();
    context.network = network_flags.resolve_single(table);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }
  if (positional.empty() || positional.size() > 2) return usage();
  const std::string& problem = positional[0];
  const auto* pipeline = std::find_if(
      std::begin(kProblemPipelines), std::end(kProblemPipelines),
      [&problem](const auto& entry) { return entry.first == problem; });
  if (pipeline == std::end(kProblemPipelines)) return usage();
  const std::string key = pipeline->second;

  Graph g;
  if (positional.size() == 2) {
    std::ifstream in(positional[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", positional[1].c_str());
      return 1;
    }
    g = read_edge_list(in);
  } else {
    g = read_edge_list(std::cin);
  }
  const Instance instance =
      make_instance(std::move(g), IdentityScheme::kRandomPermuted, 1);

  // --stats-json folds a metrics snapshot into its document, so it wants a
  // registry even without --metrics.
  const TelemetrySinks sinks(telemetry_flags, !stats_json_path.empty());
  const telemetry::ScopedMetrics scoped_metrics(sinks.registry.get());
  std::unique_ptr<telemetry::ScopedTraceBinding> trace_scope;
  if (sinks.recorder != nullptr) {
    sinks.recorder->set_process_name(1, problem);
    telemetry::TraceBinding binding;
    binding.recorder = sinks.recorder.get();
    binding.trace_rounds = telemetry_flags.trace_rounds;
    trace_scope = std::make_unique<telemetry::ScopedTraceBinding>(binding);
  }
  const AlgorithmRegistry& registry = default_algorithm_registry();
  const CellOutcome outcome = registry.run(key, instance, context);
  const bool valid =
      outcome.solved && registry.problem(key).check(instance, outcome.outputs);
  for (NodeId v = 0; v < instance.num_nodes(); ++v) {
    std::printf("%lld %lld\n",
                static_cast<long long>(
                    instance.identities[static_cast<std::size_t>(v)]),
                static_cast<long long>(
                    outcome.outputs[static_cast<std::size_t>(v)]));
  }
  std::fprintf(stderr, "%s: n=%d rounds=%lld valid=%s\n", problem.c_str(),
               instance.num_nodes(), static_cast<long long>(outcome.rounds),
               valid ? "yes" : "NO");
  if (want_stats) emit_stats(outcome.stats, problem.c_str());

  sinks.write(telemetry_flags);
  if (!stats_json_path.empty()) {
    // One document: the run's EngineStats merged with the metrics
    // snapshot (the same registry the engine reported into).
    json::Value doc = json::Value::object();
    doc.set("problem", json::Value::string(problem));
    doc.set("rounds", json::Value::number(outcome.rounds));
    doc.set("engine", engine_stats_to_json(outcome.stats));
    const json::Value metrics_doc = sinks.registry->to_json();
    doc.set("metrics", *metrics_doc.find("metrics"));
    write_text_file(stats_json_path, doc.dump() + "\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 1 && argv[0] != nullptr) g_self_path = argv[0];
  const std::string verb = argc >= 2 ? argv[1] : "";
  try {
    if (verb == "shard") return run_shard_command(argc, argv);
    if (verb == "sweep" || verb == "table1") return run_grid(verb, argc, argv);
    return run_problem(argc, argv);
  } catch (const UnknownFlagError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    // e.g. a malformed flag value, or --kernel=on on a pipeline with
    // unlowered stages.
    std::fprintf(stderr, "%s: %s\n", verb.c_str(), e.what());
    return 1;
  }
}
