// unilocal_cli — run a uniform LOCAL algorithm on your own graph, or sweep
// a campaign grid over the scenario registry.
//
//   unilocal_cli <problem> [file] [--stats] [--kernel=off|auto|on]
//
//   <problem>: mis | matching | coloring | rulingset2
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
// Prints one line per node: "<identity> <output>" (plus a summary on
// stderr). Every algorithm here is the uniform product of the paper's
// transformers — the tool needs no -n/-delta flags because no node needs
// them; that is the point of the paper.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/algo/edge_color_mm.h"
#include "src/algo/mis_from_coloring.h"
#include "src/algo/ruling_set_mc.h"
#include "src/core/coloring_transform.h"
#include "src/core/mc_to_lv.h"
#include "src/core/transformer.h"
#include "src/graph/io.h"
#include "src/problems/coloring.h"
#include "src/problems/matching.h"
#include "src/problems/mis.h"
#include "src/problems/ruling_set.h"
#include "src/prune/matching_prune.h"
#include "src/prune/ruling_set_prune.h"
#include "src/runtime/campaign.h"
#include "src/runtime/kernel.h"
#include "src/runtime/run_log.h"
#include "src/runtime/shard.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/telemetry.h"

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

/// A count flag (--workers, --seeds, --n, --shards): the whole value must
/// be an integer in [1, INT_MAX]. Throws std::runtime_error naming the flag
/// otherwise.
int parse_count(const char* flag, const std::string& text) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [rest, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || rest != end || value < 1)
    throw std::runtime_error(std::string(flag) +
                             ": expected a positive integer, got '" + text +
                             "'");
  return value;
}

/// --kernel=off|auto|on, the engine path flag every subcommand shares.
/// Returns false for any other argument; throws std::runtime_error on an
/// unknown mode.
bool consume_kernel_flag(const std::string& arg, KernelMode& mode) {
  if (arg.rfind("--kernel=", 0) != 0) return false;
  mode = parse_kernel_mode(arg.substr(arg.find('=') + 1));
  return true;
}

/// The delivery-layer flag group every subcommand shares: --network=SPEC[,..]
/// plus the fault knobs. Flags may arrive in any order, so the knobs are
/// buffered and applied to the delayed specs in resolve(). consume() and
/// resolve() throw std::runtime_error naming the offending flag on
/// malformed or inconsistent values.
struct NetworkFlags {
  std::vector<std::string> specs;  // raw --network= values, in order
  NetworkOptions knobs;
  bool drop_set = false, dup_set = false, crash_set = false;
  bool late_set = false, max_delay_set = false, late_by_set = false;

  bool consume(const std::string& arg) {
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--network=", 0) == 0) {
      for (const std::string& spec : split_csv(value()))
        specs.push_back(spec);
      if (specs.empty())
        throw std::runtime_error(
            "--network: expected sync or delay:<preset>, got ''");
    } else if (arg.rfind("--drop=", 0) == 0) {
      knobs.drop = parse_unit_interval("--drop", value());
      drop_set = true;
    } else if (arg.rfind("--dup=", 0) == 0) {
      knobs.duplicate = parse_unit_interval("--dup", value());
      dup_set = true;
    } else if (arg.rfind("--crash=", 0) == 0) {
      knobs.crash = parse_unit_interval("--crash", value());
      crash_set = true;
    } else if (arg.rfind("--late=", 0) == 0) {
      knobs.late = parse_unit_interval("--late", value());
      late_set = true;
    } else if (arg.rfind("--max-delay=", 0) == 0) {
      knobs.max_delay = parse_positive_ticks("--max-delay", value());
      max_delay_set = true;
    } else if (arg.rfind("--late-by=", 0) == 0) {
      knobs.late_by = parse_positive_ticks("--late-by", value());
      late_by_set = true;
    } else {
      return false;
    }
    return true;
  }

  bool any_knob() const {
    return drop_set || dup_set || crash_set || late_set || max_delay_set ||
           late_by_set;
  }

  /// One NetworkOptions per --network= spec (empty = all-sync default),
  /// fault knobs folded into the delayed entries.
  std::vector<NetworkOptions> resolve() const {
    std::vector<NetworkOptions> result;
    bool any_delayed = false;
    for (const std::string& spec : specs) {
      NetworkOptions network = parse_network_spec(spec);
      if (network.kind == NetworkKind::kDelayed) {
        any_delayed = true;
        if (drop_set) network.drop = knobs.drop;
        if (dup_set) network.duplicate = knobs.duplicate;
        if (crash_set) network.crash = knobs.crash;
        if (late_set) network.late = knobs.late;
        if (max_delay_set) network.max_delay = knobs.max_delay;
        if (late_by_set) network.late_by = knobs.late_by;
        validate_network_options(network);
      }
      result.push_back(network);
    }
    if (any_knob() && !any_delayed)
      throw std::runtime_error(
          "--drop/--dup/--crash/--late/--max-delay/--late-by require "
          "--network=delay:<preset> (the synchronous network has no fault "
          "knobs)");
    return result;
  }

  /// The single-run form: at most one spec.
  NetworkOptions resolve_single() const {
    if (specs.size() > 1)
      throw std::runtime_error(
          "--network: expected one value in single-problem mode, got " +
          std::to_string(specs.size()));
    const std::vector<NetworkOptions> resolved = resolve();
    return resolved.empty() ? NetworkOptions{} : resolved.front();
  }
};

/// The supervision flag group sweep/table1 share (all require --shards=K):
/// retry budget, timeout, checkpoint journal, partial-merge opt-in, and
/// the hidden chaos knobs. consume() throws std::runtime_error naming the
/// offending flag on malformed values.
struct SupervisorFlags {
  int max_attempts = 3;
  double base_timeout_seconds = 300.0;
  bool allow_partial = false;
  bool speculate = true;
  std::string journal_path;
  ChaosOptions chaos;
  bool any_set = false;

  bool consume(const std::string& arg) {
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--max-attempts=", 0) == 0) {
      max_attempts = std::stoi(value());
      if (max_attempts < 1)
        throw std::runtime_error("--max-attempts: must be >= 1, got " +
                                 value());
    } else if (arg.rfind("--shard-timeout=", 0) == 0) {
      base_timeout_seconds = std::stod(value());
      if (!(base_timeout_seconds > 0.0))
        throw std::runtime_error("--shard-timeout: must be > 0, got " +
                                 value());
    } else if (arg == "--allow-partial") {
      allow_partial = true;
    } else if (arg == "--no-speculate") {
      speculate = false;
    } else if (arg.rfind("--journal=", 0) == 0) {
      journal_path = value();
    } else if (arg.rfind("--inject=", 0) == 0) {
      const std::uint64_t seed = chaos.seed;  // flags arrive in any order
      chaos = parse_chaos_spec(value());
      chaos.seed = seed;
    } else if (arg.rfind("--inject-seed=", 0) == 0) {
      chaos.seed = std::stoull(value());
    } else {
      return false;
    }
    any_set = true;
    return true;
  }

  void require_shards(int shards) const {
    if (any_set && shards <= 0)
      throw std::runtime_error(
          "--max-attempts/--shard-timeout/--journal/--allow-partial/"
          "--no-speculate/--inject require --shards=K (they configure the "
          "shard supervisor)");
  }
};

/// The observability flag group every subcommand shares
/// (src/runtime/telemetry.h): --trace=FILE writes a Chrome trace-event
/// JSON (Perfetto-loadable), --metrics=FILE a merged metrics snapshot,
/// --trace-rounds=N caps per-round engine events per run (head sampling).
/// None of these touch stdout: canonical output is byte-identical with
/// and without them.
struct TelemetryFlags {
  std::string trace_path;
  std::string metrics_path;
  std::int64_t trace_rounds = telemetry::kDefaultTraceRounds;

  bool consume(const std::string& arg) {
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--trace=", 0) == 0) {
      trace_path = value();
      if (trace_path.empty())
        throw std::runtime_error("--trace: expected a file path");
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = value();
      if (metrics_path.empty())
        throw std::runtime_error("--metrics: expected a file path");
    } else if (arg.rfind("--trace-rounds=", 0) == 0) {
      trace_rounds = std::stoll(value());
      if (trace_rounds < 0)
        throw std::runtime_error("--trace-rounds: must be >= 0, got " +
                                 value());
    } else {
      return false;
    }
    return true;
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
                    bool json, bool canonical, const std::string& log_path) {
  if (json || canonical) {
    CampaignJsonOptions json_options;
    json_options.canonical = canonical;
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
      write_supervision_csv(table, sup);
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
  if (!log_path.empty()) {
    const RunLogComparison comparison = compare_run_log(log_path, result);
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
                   what, log_path.c_str());
    }
    append_run_log(log_path, result);
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
                KernelMode kernel_mode, bool json_output, bool canonical,
                const std::string& log_path,
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
  options.speculate = supervisor_flags.speculate;
  options.scratch_dir = scratch.dir.string();
  options.journal_path = supervisor_flags.journal_path;
  options.trace = sinks.recorder.get();

  const std::string exe = self_executable();
  const std::string inject_spec = chaos_spec_name(supervisor_flags.chaos);
  const std::uint64_t inject_seed = supervisor_flags.chaos.seed;
  const bool tracing = sinks.recorder != nullptr;
  const std::int64_t trace_rounds = telemetry_flags.trace_rounds;
  const WorkerCommand command =
      [&exe, workers_per_shard, kernel_mode, &inject_spec, inject_seed,
       tracing, trace_rounds,
       &worker_trace_path](const ShardAttemptContext& context) {
        std::vector<std::string> argv = {
            exe,
            "shard",
            "run",
            context.manifest_path,
            "--out=" + context.result_path,
            "--workers=" + std::to_string(workers_per_shard),
            "--kernel=" + std::string(kernel_mode_name(kernel_mode))};
        if (tracing) {
          argv.push_back("--trace=" + worker_trace_path(context.shard_index,
                                                        context.attempt));
          argv.push_back("--trace-rounds=" + std::to_string(trace_rounds));
        }
        if (!inject_spec.empty()) {
          // The worker draws its own fault from (spec, seed, shard,
          // attempt) — the supervisor only forwards the attempt number.
          argv.push_back("--inject=" + inject_spec);
          argv.push_back("--inject-seed=" + std::to_string(inject_seed));
          argv.push_back("--attempt=" + std::to_string(context.attempt));
        }
        return argv;
      };

  const SupervisorReport report = supervise_shards(plan, options, command);

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
    sinks.registry->add("supervisor.attempts", report.attempts);
    sinks.registry->add("supervisor.retries", report.retries);
    sinks.registry->add("supervisor.requeues", report.requeues);
    sinks.registry->add("supervisor.stragglers_respawned",
                        report.stragglers_respawned);
    sinks.registry->add("supervisor.shards_from_journal",
                        report.shards_from_journal);
    sinks.registry->add("supervisor.shards_failed",
                        static_cast<std::int64_t>(report.failed_shards.size()));
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

  merged.supervision.enabled = true;
  merged.supervision.shards = static_cast<int>(plan.shards.size());
  merged.supervision.attempts = report.attempts;
  merged.supervision.retries = report.retries;
  merged.supervision.requeues = report.requeues;
  merged.supervision.stragglers_respawned = report.stragglers_respawned;
  merged.supervision.shards_from_journal = report.shards_from_journal;
  merged.supervision.shards_failed =
      static_cast<int>(report.failed_shards.size());
  std::vector<double> attempt_seconds;
  for (const ShardSupervision& sup : report.shards) {
    ShardSupervisionRow row;
    row.shard_index = sup.shard_index;
    row.completed = sup.completed;
    row.from_journal = sup.from_journal;
    row.attempts = sup.attempts;
    row.retries = sup.retries;
    row.stragglers_respawned = sup.stragglers_respawned;
    row.total_attempt_seconds = sup.total_attempt_seconds;
    for (const ShardAttemptRecord& record : sup.log) {
      ShardAttemptTiming timing;
      timing.attempt = record.attempt;
      timing.speculative = record.speculative;
      timing.start_seconds = record.start_seconds;
      timing.end_seconds = record.end_seconds;
      timing.killed = record.killed;
      timing.outcome = record.outcome;
      if (record.killed) ++merged.supervision.attempts_killed;
      row.attempt_log.push_back(std::move(timing));
    }
    merged.supervision.rows.push_back(row);
    if (!sup.from_journal)
      attempt_seconds.push_back(sup.total_attempt_seconds);
  }
  merged.supervision.attempt_seconds =
      campaign_percentiles(std::move(attempt_seconds));
  return report_campaign(what, merged, json_output, canonical, log_path);
}

int run_shard_plan(int argc, char** argv) {
  std::string dir;
  int shards = 0;
  ShardPolicy policy = ShardPolicy::kCostBalanced;
  bool table1 = false;
  bool smoke = false;
  bool n_given = false;
  bool seeds_given = false;
  std::vector<std::string> scenarios;
  std::vector<std::string> algorithm_patterns;
  NetworkFlags network_flags;
  ScenarioParams params;
  params.n = 256;
  int seeds = 2;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (network_flags.consume(arg)) {
    } else if (arg == "--table1") {
      table1 = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--dir=", 0) == 0) {
      dir = value();
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = parse_count("--shards", value());
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy = parse_shard_policy(value());
    } else if (arg.rfind("--scenarios=", 0) == 0) {
      scenarios = split_csv(value());
    } else if (arg.rfind("--algorithms=", 0) == 0 ||
               arg.rfind("--algos=", 0) == 0) {
      algorithm_patterns = split_csv(value());
    } else if (arg.rfind("--n=", 0) == 0) {
      params.n = parse_count("--n", value());
      n_given = true;
    } else if (arg.rfind("--a=", 0) == 0) {
      params.a = std::stod(value());
    } else if (arg.rfind("--b=", 0) == 0) {
      params.b = std::stod(value());
    } else if (arg.rfind("--seeds=", 0) == 0) {
      seeds = parse_count("--seeds", value());
      seeds_given = true;
    } else {
      return usage();
    }
  }
  if (dir.empty() || shards < 1) return usage();
  if (!table1 && (scenarios.empty() || algorithm_patterns.empty()))
    return usage();
  if (smoke) {
    if (!n_given) params.n = 64;
    if (!seeds_given) seeds = 1;
  }
  GridOptions grid_options;
  grid_options.networks = network_flags.resolve();
  std::vector<CampaignCell> cells;
  if (table1) {
    cells = make_table1_grid(params, seeds, grid_options);
  } else {
    const auto algorithms =
        default_algorithm_registry().resolve(algorithm_patterns);
    cells = make_grid(scenarios, params, algorithms, seeds, grid_options);
  }
  if (cells.empty()) {
    std::fprintf(stderr, "shard plan: empty grid\n");
    return 1;
  }
  const ShardPlan plan = plan_shards(cells, shards, policy);

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
               cells.size(), shards, shard_policy_name(policy),
               static_cast<unsigned long long>(plan.grid_hash), dir.c_str());
  return 0;
}

int run_shard_run(int argc, char** argv) {
  std::string manifest_path;
  std::string out_path;
  unsigned workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  KernelMode kernel_mode = KernelMode::kAuto;
  ChaosOptions chaos;
  TelemetryFlags telemetry_flags;
  int attempt = 1;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (telemetry_flags.consume(arg) || consume_kernel_flag(arg, kernel_mode)) {
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = value();
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = static_cast<unsigned>(parse_count("--workers", value()));
    } else if (arg.rfind("--inject=", 0) == 0) {
      const std::uint64_t seed = chaos.seed;
      chaos = parse_chaos_spec(value());
      chaos.seed = seed;
    } else if (arg.rfind("--inject-seed=", 0) == 0) {
      chaos.seed = std::stoull(value());
    } else if (arg.rfind("--attempt=", 0) == 0) {
      attempt = std::stoi(value());
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else if (manifest_path.empty()) {
      manifest_path = arg;
    } else {
      return usage();
    }
  }
  if (manifest_path.empty()) return usage();
  const ShardManifest manifest =
      ShardManifest::from_json(json::Value::parse(read_text_file(manifest_path)));

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
  options.workers = static_cast<int>(workers);
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
  std::string plan_path;
  std::vector<std::string> result_paths;
  bool json_output = false;
  bool canonical = false;
  std::string log_path;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (arg == "--canonical") {
      canonical = true;
      json_output = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      const std::string format = value();
      if (format != "csv" && format != "json") return usage();
      json_output = format == "json";
    } else if (arg.rfind("--log=", 0) == 0) {
      log_path = value();
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else if (plan_path.empty()) {
      plan_path = arg;
    } else {
      result_paths.push_back(arg);
    }
  }
  if (plan_path.empty() || result_paths.empty()) return usage();
  const ShardPlan plan =
      ShardPlan::from_json(json::Value::parse(read_text_file(plan_path)));
  std::vector<ShardResult> results;
  results.reserve(result_paths.size());
  for (const std::string& path : result_paths)
    results.push_back(
        ShardResult::from_json(json::Value::parse(read_text_file(path))));
  const CampaignResult merged = merge_shard_results(plan, results);
  return report_campaign("shard merge", merged, json_output, canonical,
                         log_path);
}

int run_shard_command(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string verb = argv[2];
  if (verb == "plan") return run_shard_plan(argc, argv);
  if (verb == "run") return run_shard_run(argc, argv);
  if (verb == "merge") return run_shard_merge(argc, argv);
  return usage();
}

int run_sweep(int argc, char** argv) {
  std::vector<std::string> scenarios = {"gnp", "power-law", "geometric",
                                        "layered-forest", "caterpillar"};
  std::vector<std::string> algorithm_patterns = {"mis-uniform",
                                                 "mis-fastest"};
  ScenarioParams params;
  params.n = 200;
  int seeds = 2;
  unsigned workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  bool workers_given = false;
  int shards = 0;
  ShardPolicy policy = ShardPolicy::kCostBalanced;
  KernelMode kernel_mode = KernelMode::kAuto;
  NetworkFlags network_flags;
  SupervisorFlags supervisor_flags;
  TelemetryFlags telemetry_flags;
  bool json_output = false;
  bool canonical = false;
  std::string log_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (network_flags.consume(arg) || supervisor_flags.consume(arg) ||
        telemetry_flags.consume(arg) || consume_kernel_flag(arg, kernel_mode)) {
    } else if (arg == "--list") {
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
      return 0;
    } else if (arg.rfind("--scenarios=", 0) == 0) {
      scenarios = split_csv(value());
    } else if (arg.rfind("--algorithms=", 0) == 0 ||
               arg.rfind("--algos=", 0) == 0) {
      algorithm_patterns = split_csv(value());
    } else if (arg.rfind("--n=", 0) == 0) {
      params.n = parse_count("--n", value());
    } else if (arg.rfind("--a=", 0) == 0) {
      params.a = std::stod(value());
    } else if (arg.rfind("--b=", 0) == 0) {
      params.b = std::stod(value());
    } else if (arg.rfind("--seeds=", 0) == 0) {
      seeds = parse_count("--seeds", value());
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = static_cast<unsigned>(parse_count("--workers", value()));
      workers_given = true;
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = parse_count("--shards", value());
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy = parse_shard_policy(value());
    } else if (arg == "--canonical") {
      canonical = true;
      json_output = true;
    } else if (arg.rfind("--log=", 0) == 0) {
      log_path = value();
    } else if (arg.rfind("--format=", 0) == 0) {
      const std::string format = value();
      if (format != "csv" && format != "json") return usage();
      json_output = format == "json";
    } else {
      return usage();
    }
  }
  // Globs and 'all' expand against the registry; make_grid then validates
  // every key up front (one error listing all unknown keys).
  const auto algorithms =
      default_algorithm_registry().resolve(algorithm_patterns);
  GridOptions grid_options;
  grid_options.networks = network_flags.resolve();
  const auto cells =
      make_grid(scenarios, params, algorithms, seeds, grid_options);
  if (cells.empty()) {
    std::fprintf(stderr, "sweep: empty grid\n");
    return 1;
  }
  supervisor_flags.require_shards(shards);
  if (shards > 0) {
    // --workers now means workers per shard process; default to an even
    // split of the machine instead of oversubscribing it K times.
    const int per_shard = workers_given
                              ? static_cast<int>(workers)
                              : std::max(1, static_cast<int>(workers) / shards);
    return run_sharded("sweep", cells, shards, policy, per_shard, kernel_mode,
                       json_output, canonical, log_path, supervisor_flags,
                       telemetry_flags);
  }
  const TelemetrySinks sinks(telemetry_flags);
  const telemetry::ScopedMetrics scoped_metrics(sinks.registry.get());
  if (sinks.recorder != nullptr)
    sinks.recorder->set_process_name(1, "campaign");
  CampaignOptions options;
  options.workers = static_cast<int>(workers);
  options.kernel_mode = kernel_mode;
  options.trace = sinks.recorder.get();
  options.trace_rounds = telemetry_flags.trace_rounds;
  const CampaignResult result = run_campaign(cells, options);
  sinks.write(telemetry_flags);
  return report_campaign("sweep", result, json_output, canonical, log_path);
}

int run_table1(int argc, char** argv) {
  ScenarioParams params;
  params.n = 256;
  int seeds = 2;
  unsigned workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  bool workers_given = false;
  int shards = 0;
  ShardPolicy policy = ShardPolicy::kCostBalanced;
  KernelMode kernel_mode = KernelMode::kAuto;
  NetworkFlags network_flags;
  SupervisorFlags supervisor_flags;
  TelemetryFlags telemetry_flags;
  bool json_output = false;
  bool canonical = false;
  bool smoke = false;
  bool n_given = false;
  bool seeds_given = false;
  std::string log_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg] { return arg.substr(arg.find('=') + 1); };
    if (network_flags.consume(arg) || supervisor_flags.consume(arg) ||
        telemetry_flags.consume(arg) || consume_kernel_flag(arg, kernel_mode)) {
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--n=", 0) == 0) {
      params.n = parse_count("--n", value());
      n_given = true;
    } else if (arg.rfind("--seeds=", 0) == 0) {
      seeds = parse_count("--seeds", value());
      seeds_given = true;
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = static_cast<unsigned>(parse_count("--workers", value()));
      workers_given = true;
    } else if (arg.rfind("--shards=", 0) == 0) {
      shards = parse_count("--shards", value());
    } else if (arg.rfind("--policy=", 0) == 0) {
      policy = parse_shard_policy(value());
    } else if (arg == "--canonical") {
      canonical = true;
      json_output = true;
    } else if (arg.rfind("--log=", 0) == 0) {
      log_path = value();
    } else if (arg.rfind("--format=", 0) == 0) {
      const std::string format = value();
      if (format != "csv" && format != "json") return usage();
      json_output = format == "json";
    } else {
      return usage();
    }
  }
  // --smoke shrinks only the knobs the user did not set explicitly, so
  // flag order never changes the grid (and hence the --log grid hash).
  if (smoke) {
    if (!n_given) params.n = 64;
    if (!seeds_given) seeds = 1;
  }
  GridOptions grid_options;
  grid_options.networks = network_flags.resolve();
  const auto cells = make_table1_grid(params, seeds, grid_options);
  std::fprintf(stderr,
               "table1: %zu cells (%zu algorithms x their Table 1 "
               "families x %d seed%s, n=%d)\n",
               cells.size(), default_algorithm_registry().names().size(),
               seeds, seeds == 1 ? "" : "s", params.n);
  supervisor_flags.require_shards(shards);
  if (shards > 0) {
    const int per_shard = workers_given
                              ? static_cast<int>(workers)
                              : std::max(1, static_cast<int>(workers) / shards);
    return run_sharded("table1", cells, shards, policy, per_shard,
                       kernel_mode, json_output, canonical, log_path,
                       supervisor_flags, telemetry_flags);
  }
  const TelemetrySinks sinks(telemetry_flags);
  const telemetry::ScopedMetrics scoped_metrics(sinks.registry.get());
  if (sinks.recorder != nullptr)
    sinks.recorder->set_process_name(1, "campaign");
  CampaignOptions options;
  options.workers = static_cast<int>(workers);
  options.kernel_mode = kernel_mode;
  options.trace = sinks.recorder.get();
  options.trace_rounds = telemetry_flags.trace_rounds;
  const CampaignResult result = run_campaign(cells, options);
  sinks.write(telemetry_flags);
  return report_campaign("table1", result, json_output, canonical, log_path);
}

void emit_stats(const EngineStats& stats, const char* what) {
  std::ostringstream line;
  for (const StatField& field : kEngineStatFields) {
    line << ' ' << field.key << '=';
    write_stat(line, stats, field);
  }
  std::fprintf(stderr, "%s engine:%s batch_occupancy=%.1f\n", what,
               line.str().c_str(), stats.batch_occupancy());
}

void emit(const Instance& instance, const std::vector<std::int64_t>& outputs,
          std::int64_t rounds, bool valid, const char* what) {
  for (NodeId v = 0; v < instance.num_nodes(); ++v) {
    std::printf("%lld %lld\n",
                static_cast<long long>(
                    instance.identities[static_cast<std::size_t>(v)]),
                static_cast<long long>(outputs[static_cast<std::size_t>(v)]));
  }
  std::fprintf(stderr, "%s: n=%d rounds=%lld valid=%s\n", what,
               instance.num_nodes(), static_cast<long long>(rounds),
               valid ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 1 && argv[0] != nullptr) g_self_path = argv[0];
  if (argc >= 2 && std::strcmp(argv[1], "shard") == 0) {
    try {
      return run_shard_command(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "shard: %s\n", e.what());
      return 1;
    }
  }
  if (argc >= 2 && std::strcmp(argv[1], "sweep") == 0) {
    try {
      return run_sweep(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep: %s\n", e.what());
      return 1;
    }
  }
  if (argc >= 2 && std::strcmp(argv[1], "table1") == 0) {
    try {
      return run_table1(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "table1: %s\n", e.what());
      return 1;
    }
  }
  bool want_stats = false;
  UniformRunOptions run_options;
  NetworkFlags network_flags;
  TelemetryFlags telemetry_flags;
  std::string stats_json_path;
  const char* file = nullptr;
  const char* problem_arg = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool consumed = false;
    try {
      // Malformed --network=/--drop=/--kernel=/... values are rejected
      // here with an error naming the flag.
      consumed = network_flags.consume(arg) || telemetry_flags.consume(arg) ||
                 consume_kernel_flag(arg, run_options.kernel_mode);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return usage();
    }
    if (consumed) {
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      stats_json_path = arg.substr(arg.find('=') + 1);
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (problem_arg == nullptr) {
      problem_arg = argv[i];
    } else if (file == nullptr) {
      file = argv[i];
    } else {
      return usage();
    }
  }
  if (problem_arg == nullptr) return usage();
  try {
    // Unknown presets ("--network=delay:pareto") and knobs without a
    // delayed network surface here, before any graph is read.
    run_options.network = network_flags.resolve_single();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }
  Graph g;
  try {
    if (file != nullptr) {
      std::ifstream in(file);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", file);
        return 1;
      }
      g = read_edge_list(in);
    } else {
      g = read_edge_list(std::cin);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return 1;
  }
  Instance instance = make_instance(std::move(g),
                                    IdentityScheme::kRandomPermuted, 1);

  const std::string problem = problem_arg;
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
  EngineStats engine_stats;
  std::int64_t total_rounds = 0;
  try {
  if (problem == "mis") {
    const auto algorithm = make_coloring_mis();
    const RulingSetPruning pruning(1);
    const auto result =
        run_uniform_transformer(instance, *algorithm, pruning, run_options);
    emit(instance, result.outputs, result.total_rounds,
         result.solved &&
             is_maximal_independent_set(instance.graph, result.outputs),
         "mis");
    if (want_stats) emit_stats(result.engine_stats, "mis");
    engine_stats = result.engine_stats;
    total_rounds = result.total_rounds;
  } else if (problem == "matching") {
    const auto algorithm = make_colored_matching();
    const MatchingPruning pruning;
    const auto result =
        run_uniform_transformer(instance, *algorithm, pruning, run_options);
    emit(instance, result.outputs, result.total_rounds,
         result.solved && is_maximal_matching(instance.graph, result.outputs),
         "matching");
    if (want_stats) emit_stats(result.engine_stats, "matching");
    engine_stats = result.engine_stats;
    total_rounds = result.total_rounds;
  } else if (problem == "coloring") {
    const auto algorithm = make_lambda_gdelta_coloring(1);
    const auto result =
        run_uniform_coloring_transform(instance, *algorithm, run_options);
    emit(instance, result.colors, result.total_rounds,
         result.solved && is_proper_coloring(instance.graph, result.colors),
         "coloring");
    if (want_stats) emit_stats(result.engine_stats, "coloring");
    engine_stats = result.engine_stats;
    total_rounds = result.total_rounds;
  } else if (problem == "rulingset2") {
    const auto algorithm = make_mc_ruling_set(2);
    const RulingSetPruning pruning(2);
    const auto result =
        run_las_vegas_transformer(instance, *algorithm, pruning, run_options);
    emit(instance, result.outputs, result.total_rounds,
         result.solved &&
             is_two_beta_ruling_set(instance.graph, result.outputs, 2),
         "rulingset2");
    if (want_stats) emit_stats(result.engine_stats, "rulingset2");
    engine_stats = result.engine_stats;
    total_rounds = result.total_rounds;
  } else {
    return usage();
  }
  } catch (const std::exception& e) {
    // e.g. --kernel=on on a pipeline with unlowered stages.
    std::fprintf(stderr, "%s: %s\n", problem.c_str(), e.what());
    return 1;
  }
  try {
    sinks.write(telemetry_flags);
    if (!stats_json_path.empty()) {
      // One document: the run's EngineStats merged with the metrics
      // snapshot (the same registry the engine reported into).
      json::Value doc = json::Value::object();
      doc.set("problem", json::Value::string(problem));
      doc.set("rounds", json::Value::number(total_rounds));
      doc.set("engine", engine_stats_to_json(engine_stats));
      const json::Value metrics_doc = sinks.registry->to_json();
      doc.set("metrics", *metrics_doc.find("metrics"));
      write_text_file(stats_json_path, doc.dump() + "\n");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry: %s\n", e.what());
    return 1;
  }
  return 0;
}
