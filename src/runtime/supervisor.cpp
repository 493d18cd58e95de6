#include "src/runtime/supervisor.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/util/rng.h"

namespace unilocal {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

constexpr const char* kJournalFormat = "unilocal-supervisor-journal-v1";

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The last `limit` characters of a worker's stderr capture ("" when the
/// file is missing or empty) — enough to say WHY a worker died without
/// dumping megabytes into one error message.
std::string stderr_tail(const std::string& path, std::size_t limit = 400) {
  std::string text;
  try {
    text = read_text_file(path);
  } catch (...) {
    return "";
  }
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
    text.pop_back();
  if (text.size() > limit)
    text = "..." + text.substr(text.size() - limit);
  return text;
}

}  // namespace

// --- small process/shell helpers --------------------------------------------

std::string shell_quote(const std::string& text) {
  if (text.find('\0') != std::string::npos)
    throw std::runtime_error(
        "shell_quote: argument contains a NUL byte (no argv can)");
  // Always quote — the empty string must become '' (an unquoted empty
  // argument vanishes), and scanning for "safe" characters buys nothing.
  std::string out = "'";
  for (const char c : text) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

std::string describe_wait_status(int status) {
  if (WIFEXITED(status))
    return "exited " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "killed by signal " + std::to_string(WTERMSIG(status));
  if (WIFSTOPPED(status))
    return "stopped by signal " + std::to_string(WSTOPSIG(status));
  return "wait status " + std::to_string(status);
}

// --- chaos injection ---------------------------------------------------------

const char* chaos_fault_name(ChaosFault fault) {
  switch (fault) {
    case ChaosFault::kNone:
      return "none";
    case ChaosFault::kCrash:
      return "crash";
    case ChaosFault::kHang:
      return "hang";
    case ChaosFault::kCorrupt:
      return "corrupt";
    case ChaosFault::kFlakyExit:
      return "flaky-exit";
  }
  return "?";
}

std::string chaos_spec_name(const ChaosOptions& options) {
  std::string spec;
  const auto add = [&spec](const char* kind, double p) {
    if (p <= 0.0) return;
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "%s%s:%.17g", spec.empty() ? "" : ",",
                  kind, p);
    spec += buffer;
  };
  add("crash", options.crash);
  add("hang", options.hang);
  add("corrupt", options.corrupt);
  add("flaky-exit", options.flaky_exit);
  return spec;
}

ChaosOptions parse_chaos_spec(const std::string& spec) {
  ChaosOptions options;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos)
      throw std::runtime_error("--inject: expected kind:probability, got '" +
                               item + "'");
    const std::string kind = item.substr(0, colon);
    const std::string text = item.substr(colon + 1);
    double p = 0.0;
    try {
      std::size_t used = 0;
      p = std::stod(text, &used);
      if (used != text.size()) throw std::invalid_argument(text);
    } catch (...) {
      throw std::runtime_error("--inject: malformed probability '" + text +
                               "' for " + kind);
    }
    if (p < 0.0 || p > 1.0)
      throw std::runtime_error("--inject: probability for " + kind +
                               " must be in [0, 1], got " + text);
    if (kind == "crash")
      options.crash = p;
    else if (kind == "hang")
      options.hang = p;
    else if (kind == "corrupt")
      options.corrupt = p;
    else if (kind == "flaky-exit")
      options.flaky_exit = p;
    else
      throw std::runtime_error(
          "--inject: unknown fault kind '" + kind +
          "' (expected crash, hang, corrupt, or flaky-exit)");
  }
  const double total =
      options.crash + options.hang + options.corrupt + options.flaky_exit;
  if (total > 1.0)
    throw std::runtime_error(
        "--inject: probabilities sum to more than 1 (one draw decides "
        "which fault fires)");
  return options;
}

ChaosFault draw_chaos_fault(const ChaosOptions& options, int shard_index,
                            int attempt) {
  if (!options.any()) return ChaosFault::kNone;
  // One uniform draw per (shard, attempt), a pure function of the seed —
  // the fault schedule replays bit-identically across reruns and across
  // the supervisor/worker process boundary.
  const std::uint64_t stream = splitmix64(
      options.seed ^
      splitmix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                      shard_index))
                  << 32) |
                 static_cast<std::uint32_t>(attempt)));
  const double u =
      static_cast<double>(stream >> 11) * 0x1.0p-53;  // uniform in [0, 1)
  double threshold = options.crash;
  if (u < threshold) return ChaosFault::kCrash;
  threshold += options.hang;
  if (u < threshold) return ChaosFault::kHang;
  threshold += options.corrupt;
  if (u < threshold) return ChaosFault::kCorrupt;
  threshold += options.flaky_exit;
  if (u < threshold) return ChaosFault::kFlakyExit;
  return ChaosFault::kNone;
}

// --- checkpoint journal ------------------------------------------------------

SupervisorJournal read_supervisor_journal(const std::string& path,
                                          const ShardPlan& plan) {
  SupervisorJournal journal;
  std::ifstream in(path);
  if (!in) return journal;
  std::string line;
  if (!std::getline(in, line) || line.empty()) return journal;
  // Header: a journal that cannot prove which plan it belongs to is
  // treated as absent (the supervisor rewrites it); a journal that proves
  // it belongs to a DIFFERENT plan is an error, never silently merged.
  std::uint64_t hash = 0;
  try {
    const json::Value header = json::Value::parse(line);
    const json::Value* format = header.find("format");
    if (format == nullptr || !format->is_string() ||
        format->as_string() != kJournalFormat)
      return journal;
    hash = json::u64_field(header.at("plan_grid_hash"));
  } catch (...) {
    return journal;  // unprovable provenance = no journal
  }
  if (hash != plan.grid_hash)
    throw std::runtime_error(
        "supervisor journal " + path + " belongs to plan " +
        std::to_string(hash) + ", not this plan (" +
        std::to_string(plan.grid_hash) + ") — refusing to resume");
  journal.plan_grid_hash = hash;
  journal.found = true;

  std::vector<char> seen(plan.shards.size(), 0);
  while (std::getline(in, line)) {
    // A truncated or garbled line (the writer was killed mid-append, the
    // file was hand-edited) just means its shard re-runs — the journal is
    // a cache of deterministic work, so skipping is always safe.
    try {
      const json::Value entry = json::Value::parse(line);
      const int shard = json::int_field<int>(entry, "shard");
      ShardResult result = ShardResult::from_json(entry.at("result"));
      if (result.shard_index != shard) continue;
      if (!shard_result_problem(plan, result).empty()) continue;
      const std::size_t slot = static_cast<std::size_t>(shard);
      if (seen[slot] != 0) continue;  // first acceptance wins
      seen[slot] = 1;
      journal.completed.push_back(std::move(result));
    } catch (...) {
      continue;
    }
  }
  return journal;
}

// --- supervision -------------------------------------------------------------

namespace {

/// Spawns argv with stdout discarded and stderr captured to a file.
/// Returns -1 when fork itself fails (an environmental error, not a
/// worker failure).
pid_t spawn_worker(const std::vector<std::string>& argv,
                   const std::string& stderr_path) {
  if (argv.empty()) return -1;
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const std::string& arg : argv)
    raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);

  const pid_t pid = fork();
  if (pid != 0) return pid;
  // Child: no shell, no inherited stdio noise. Anything that fails here
  // lands in the stderr capture and a 127 exit.
  const int devnull = open("/dev/null", O_WRONLY);
  if (devnull >= 0) {
    dup2(devnull, STDOUT_FILENO);
    close(devnull);
  }
  const int errfd =
      open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (errfd >= 0) {
    dup2(errfd, STDERR_FILENO);
    close(errfd);
  }
  execvp(raw[0], raw.data());
  std::fprintf(stderr, "exec %s failed\n", raw[0]);
  _exit(127);
}

struct RunningAttempt {
  pid_t pid = -1;
  int shard = 0;
  int attempt = 0;
  bool speculative = false;
  Clock::time_point start;
  double timeout_seconds = 0.0;
  std::string result_path;
  std::string stderr_path;
  bool timed_out = false;
  bool superseded = false;
  /// Set at either SIGKILL site (deadline overrun, supersede) so the
  /// attempt record can say the supervisor ended this attempt, not the
  /// worker.
  bool killed = false;
  /// Trace-clock launch timestamp (0 when tracing is off) — the span's ts.
  std::int64_t trace_t0 = 0;
  /// Trace tid of the attempt's span and instants (see attempt_lane).
  int lane = 0;
};

struct PendingAttempt {
  int shard = 0;
  bool speculative = false;
  Clock::time_point not_before;
};

/// Deterministic jitter multiplier in [1, 2): splitmix64 over
/// (seed, shard, retry) — the same rerun backs off identically.
double backoff_jitter(std::uint64_t seed, int shard, int retry) {
  const std::uint64_t stream = splitmix64(
      seed ^ splitmix64(0x9e3779b97f4a7c15ULL +
                        (static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(shard))
                         << 32) +
                        static_cast<std::uint32_t>(retry)));
  return 1.0 + static_cast<double>(stream >> 11) * 0x1.0p-53;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

}  // namespace

SupervisionSummary SupervisorReport::summary() const {
  SupervisionSummary summary;
  summary.enabled = true;
  summary.shards = static_cast<int>(shards.size());
  summary.attempts = attempts;
  summary.retries = retries;
  summary.requeues = requeues;
  summary.stragglers_respawned = stragglers_respawned;
  summary.shards_from_journal = shards_from_journal;
  summary.shards_failed = static_cast<int>(failed_shards.size());
  std::vector<double> attempt_seconds;
  for (const ShardSupervision& shard : shards) {
    for (const ShardAttemptRecord& record : shard.log)
      if (record.killed) ++summary.attempts_killed;
    if (!shard.from_journal)
      attempt_seconds.push_back(shard.total_attempt_seconds);
  }
  summary.attempt_seconds = campaign_percentiles(std::move(attempt_seconds));
  summary.rows = shards;
  return summary;
}

std::string SupervisorReport::failure_summary() const {
  if (failed_shards.empty()) return "";
  std::string message = "supervision failed for " +
                        std::to_string(failed_shards.size()) + " shard" +
                        (failed_shards.size() == 1 ? "" : "s") + ": ";
  bool first_shard = true;
  for (const int s : failed_shards) {
    if (!first_shard) message += "; ";
    first_shard = false;
    const ShardSupervision& sup = shards[static_cast<std::size_t>(s)];
    message += "shard " + std::to_string(s) + " failed after " +
               std::to_string(sup.attempts) + " attempt" +
               (sup.attempts == 1 ? "" : "s") + " [";
    for (std::size_t a = 0; a < sup.log.size(); ++a) {
      if (a != 0) message += ", ";
      char timing[32];
      std::snprintf(timing, sizeof(timing), " (%.2fs)", sup.log[a].seconds);
      message += "attempt " + std::to_string(sup.log[a].attempt) + ": " +
                 sup.log[a].outcome + timing;
    }
    message += "]";
    // The last attempt's stderr usually says why; quote its tail while
    // the scratch directory still exists.
    for (auto it = sup.log.rbegin(); it != sup.log.rend(); ++it) {
      const std::string tail = stderr_tail(it->stderr_path);
      if (tail.empty()) continue;
      message += ", worker said: \"" + tail + "\"";
      break;
    }
  }
  return message;
}

SupervisorReport supervise_shards(const ShardPlan& plan,
                                  const SupervisorOptions& options,
                                  const WorkerCommand& command) {
  if (options.max_attempts < 1)
    throw std::runtime_error("supervise_shards: max_attempts must be >= 1");
  if (options.scratch_dir.empty())
    throw std::runtime_error("supervise_shards: scratch_dir is required");
  const ShardCostModel& cost_model = options.cost_model != nullptr
                                         ? *options.cost_model
                                         : default_shard_cost_model();
  const std::size_t num_shards = plan.shards.size();

  SupervisorReport report;
  report.shards.resize(num_shards);
  std::vector<std::string> manifest_paths(num_shards);
  std::vector<double> shard_costs(num_shards, 0.0);
  std::vector<ShardResult> accepted(num_shards);
  std::vector<char> completed(num_shards, 0);
  std::vector<char> failed(num_shards, 0);
  std::vector<int> launches(num_shards, 0);

  for (std::size_t s = 0; s < num_shards; ++s) {
    report.shards[s].shard_index = static_cast<int>(s);
    for (const CampaignCell& cell : plan.shards[s].cells)
      shard_costs[s] += cost_model.cell_cost(cell);
    manifest_paths[s] =
        options.scratch_dir + "/shard-" + std::to_string(s) + ".json";
    std::ofstream out(manifest_paths[s], std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("supervise_shards: cannot write " +
                               manifest_paths[s]);
    out << plan.shards[s].to_json().dump() << "\n";
    if (!out)
      throw std::runtime_error("supervise_shards: short write to " +
                               manifest_paths[s]);
  }

  // Resume: journaled shards are done before anything launches.
  std::ofstream journal_out;
  if (!options.journal_path.empty()) {
    const SupervisorJournal journal =
        read_supervisor_journal(options.journal_path, plan);
    for (const ShardResult& result : journal.completed) {
      const std::size_t slot = static_cast<std::size_t>(result.shard_index);
      completed[slot] = 1;
      accepted[slot] = result;
      report.shards[slot].completed = true;
      report.shards[slot].from_journal = true;
      ++report.shards_from_journal;
      if (options.trace != nullptr) {
        telemetry::TraceEvent event;
        event.name = "journal-skip";
        event.phase = 'i';
        event.ts = options.trace->now();
        event.pid = options.trace_pid;
        event.tid = result.shard_index + 1;
        event.arg("shard", static_cast<std::int64_t>(result.shard_index));
        options.trace->record(std::move(event));
      }
    }
    journal_out.open(options.journal_path,
                     journal.found ? std::ios::app : std::ios::trunc);
    if (!journal_out)
      throw std::runtime_error("supervise_shards: cannot open journal " +
                               options.journal_path);
    if (!journal.found) {
      json::Value header = json::Value::object();
      header.set("format", json::Value::string(kJournalFormat));
      header.set("plan_grid_hash",
                 json::Value::string(std::to_string(plan.grid_hash)));
      header.set("num_shards", json::Value::number(
                                   static_cast<std::int64_t>(num_shards)));
      journal_out << header.dump() << "\n";
      journal_out.flush();
    }
  }

  const int slots = options.max_concurrent > 0
                        ? options.max_concurrent
                        : std::max(1, static_cast<int>(num_shards));

  std::deque<PendingAttempt> pending;
  std::vector<RunningAttempt> running;
  const Clock::time_point begin = Clock::now();
  for (std::size_t s = 0; s < num_shards; ++s)
    if (completed[s] == 0) pending.push_back({static_cast<int>(s), false, begin});

  /// Seconds-per-cost-unit samples from accepted attempts, for the
  /// straggler threshold.
  std::vector<double> rate_samples;

  const auto count_inflight = [&pending, &running](int shard) {
    int n = 0;
    for (const PendingAttempt& p : pending)
      if (p.shard == shard) ++n;
    for (const RunningAttempt& r : running)
      if (r.shard == shard && !r.superseded) ++n;
    return n;
  };

  // Each shard has two trace lanes: tid shard+1, and tid
  // num_shards+shard+1 for an attempt launched while a sibling still runs
  // (a speculative duplicate), so sibling spans never overlap on one lane.
  // At most two attempts of a shard run at once: speculation adds one
  // duplicate only, and nothing relaunches while an attempt is in flight.
  const auto attempt_lane = [&running, num_shards](int shard) {
    const int primary = shard + 1;
    for (const RunningAttempt& r : running)
      if (r.shard == shard && r.lane == primary)
        return static_cast<int>(num_shards) + primary;
    return primary;
  };

  // Lifecycle instants ("i" events) on the attempt's lane; a null recorder
  // turns every call into one pointer test.
  const auto trace_instant = [&options](const char* name, int lane,
                                        int shard, int attempt) {
    if (options.trace == nullptr) return;
    telemetry::TraceEvent event;
    event.name = name;
    event.phase = 'i';
    event.ts = options.trace->now();
    event.pid = options.trace_pid;
    event.tid = lane;
    event.arg("shard", static_cast<std::int64_t>(shard));
    if (attempt > 0) event.arg("attempt", static_cast<std::int64_t>(attempt));
    options.trace->record(std::move(event));
  };

  const auto record_attempt = [&report, &options, begin](
                                  const RunningAttempt& r, double seconds,
                                  std::string outcome) {
    ShardSupervision& sup = report.shards[static_cast<std::size_t>(r.shard)];
    sup.total_attempt_seconds += seconds;
    ShardAttemptRecord record;
    record.attempt = r.attempt;
    record.speculative = r.speculative;
    record.seconds = seconds;
    record.outcome = outcome;
    record.stderr_path = r.stderr_path;
    record.start_seconds = seconds_between(begin, r.start);
    record.end_seconds = record.start_seconds + seconds;
    record.killed = r.killed;
    if (options.trace != nullptr) {
      telemetry::TraceEvent event;
      event.name = "attempt";
      event.phase = 'X';
      event.ts = r.trace_t0;
      event.dur = options.trace->now() - r.trace_t0;
      event.pid = options.trace_pid;
      event.tid = r.lane;
      event.arg("shard", static_cast<std::int64_t>(r.shard));
      event.arg("attempt", static_cast<std::int64_t>(r.attempt));
      event.arg("speculative", r.speculative);
      event.arg("outcome", outcome);
      event.arg("killed", r.killed);
      options.trace->record(std::move(event));
    }
    sup.log.push_back(std::move(record));
  };

  const auto launch = [&](int shard, bool speculative) {
    const std::size_t slot = static_cast<std::size_t>(shard);
    const int attempt = ++launches[slot];
    ++report.shards[slot].attempts;
    ++report.attempts;
    ShardAttemptContext context;
    context.shard_index = shard;
    context.attempt = attempt;
    context.speculative = speculative;
    context.manifest_path = manifest_paths[slot];
    context.result_path = options.scratch_dir + "/result-" +
                          std::to_string(shard) + "-attempt-" +
                          std::to_string(attempt) + ".json";
    context.stderr_path = options.scratch_dir + "/stderr-" +
                          std::to_string(shard) + "-attempt-" +
                          std::to_string(attempt) + ".log";
    RunningAttempt r;
    r.shard = shard;
    r.attempt = attempt;
    r.speculative = speculative;
    r.start = Clock::now();
    r.timeout_seconds = options.base_timeout_seconds +
                        options.timeout_seconds_per_cost * shard_costs[slot];
    r.result_path = context.result_path;
    r.stderr_path = context.stderr_path;
    r.lane = attempt_lane(shard);
    if (options.trace != nullptr) r.trace_t0 = options.trace->now();
    trace_instant("launch", r.lane, shard, attempt);
    r.pid = spawn_worker(command(context), context.stderr_path);
    if (r.pid < 0) {
      record_attempt(r, 0.0, "spawn failed: fork returned -1");
      return false;
    }
    running.push_back(std::move(r));
    return true;
  };

  // If anything throws past here, no worker may outlive the supervisor.
  const auto kill_everything = [&running] {
    for (RunningAttempt& r : running)
      if (r.pid > 0) kill(r.pid, SIGKILL);
    for (RunningAttempt& r : running)
      if (r.pid > 0) waitpid(r.pid, nullptr, 0);
    running.clear();
  };

  try {
    while (true) {
      const Clock::time_point now = Clock::now();

      // Launch what's ready while slots are free.
      for (std::size_t i = 0;
           i < pending.size() && static_cast<int>(running.size()) < slots;) {
        const PendingAttempt p = pending[i];
        if (completed[static_cast<std::size_t>(p.shard)] != 0 ||
            p.not_before > now) {
          if (completed[static_cast<std::size_t>(p.shard)] != 0)
            pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
          else
            ++i;
          continue;
        }
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        launch(p.shard, p.speculative);
      }

      // Reap whatever finished.
      for (std::size_t i = 0; i < running.size();) {
        RunningAttempt& r = running[i];
        int status = 0;
        const pid_t reaped = waitpid(r.pid, &status, WNOHANG);
        if (reaped == 0) {
          // Still running: enforce the deadline.
          if (!r.timed_out &&
              seconds_between(r.start, now) > r.timeout_seconds) {
            r.timed_out = true;
            r.killed = true;
            trace_instant("sigkill", r.lane, r.shard, r.attempt);
            kill(r.pid, SIGKILL);
          }
          ++i;
          continue;
        }
        const RunningAttempt done = std::move(r);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        const double seconds = seconds_between(done.start, Clock::now());
        const std::size_t slot = static_cast<std::size_t>(done.shard);

        if (done.superseded || completed[slot] != 0) {
          record_attempt(done, seconds, "superseded");
          continue;
        }

        std::string outcome;
        bool ok = false;
        if (done.timed_out) {
          char buffer[48];
          std::snprintf(buffer, sizeof(buffer), "timeout after %.1fs",
                        done.timeout_seconds);
          outcome = buffer;
        } else if (reaped < 0) {
          outcome = "lost (waitpid failed)";
        } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          // Exit 0 is necessary, not sufficient: the output must parse and
          // pass the merge-layer fingerprint validation. A corrupted file
          // is treated exactly like a crash.
          try {
            ShardResult result = ShardResult::from_json(
                json::Value::parse(read_text_file(done.result_path)));
            std::string problem;
            if (result.shard_index != done.shard)
              problem = "claims shard " + std::to_string(result.shard_index) +
                        ", expected " + std::to_string(done.shard);
            else
              problem = shard_result_problem(plan, result);
            if (problem.empty()) {
              ok = true;
              outcome = "accepted";
              trace_instant("accept", done.lane, done.shard, done.attempt);
              completed[slot] = 1;
              accepted[slot] = std::move(result);
              report.shards[slot].completed = true;
              rate_samples.push_back(seconds /
                                     std::max(1.0, shard_costs[slot]));
              if (journal_out.is_open()) {
                json::Value entry = json::Value::object();
                entry.set("shard", json::Value::number(
                                       static_cast<std::int64_t>(done.shard)));
                entry.set("attempt",
                          json::Value::number(
                              static_cast<std::int64_t>(done.attempt)));
                entry.set("result", accepted[slot].to_json());
                journal_out << entry.dump() << "\n";
                journal_out.flush();
              }
              // Any sibling attempt is now pointless — kill it; it will be
              // reaped as "superseded".
              for (RunningAttempt& sibling : running) {
                if (sibling.shard != done.shard || sibling.superseded)
                  continue;
                sibling.superseded = true;
                sibling.killed = true;
                trace_instant("sigkill", sibling.lane, sibling.shard,
                              sibling.attempt);
                kill(sibling.pid, SIGKILL);
              }
            } else {
              outcome = "invalid result: " + problem;
            }
          } catch (const std::exception& e) {
            outcome = std::string("invalid result: ") + e.what();
          }
        } else {
          outcome = describe_wait_status(status);
        }
        record_attempt(done, seconds, outcome);
        if (ok) continue;

        // Failed attempt: requeue with backoff, unless a sibling is still
        // in flight (it may yet win) or the budget is spent.
        if (count_inflight(done.shard) > 0) continue;
        if (launches[slot] >= options.max_attempts) {
          failed[slot] = 1;
          continue;
        }
        ++report.shards[slot].retries;
        ++report.retries;
        ++report.requeues;
        trace_instant("retry", done.lane, done.shard, done.attempt);
        const int retry = report.shards[slot].retries;
        const double delay =
            std::min(options.backoff_max_seconds,
                     options.backoff_base_seconds *
                         std::ldexp(1.0, retry - 1)) *
            backoff_jitter(options.backoff_seed, done.shard, retry);
        pending.push_back(
            {done.shard, false,
             Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(delay))});
      }

      // Straggler speculation: duplicate attempts whose elapsed time is
      // far beyond what the fleet's observed rate predicts for their cost.
      if (options.speculate &&
          static_cast<int>(rate_samples.size()) >=
              options.straggler_min_samples) {
        const double rate = median(rate_samples);
        for (const RunningAttempt& r : running) {
          const std::size_t slot = static_cast<std::size_t>(r.shard);
          if (r.superseded || r.timed_out || completed[slot] != 0) continue;
          if (launches[slot] >= options.max_attempts) continue;
          if (count_inflight(r.shard) > 1) continue;  // one duplicate max
          const double expected =
              std::max(0.01, shard_costs[slot] * rate);
          if (seconds_between(r.start, now) <=
              options.straggler_factor * expected)
            continue;
          ++report.shards[slot].stragglers_respawned;
          ++report.stragglers_respawned;
          ++report.requeues;
          trace_instant("speculate", r.lane, r.shard, r.attempt);
          pending.push_front({r.shard, true, now});
        }
      }

      // Done when every shard is resolved and nothing is in flight.
      bool resolved = running.empty();
      if (resolved) {
        for (std::size_t s = 0; s < num_shards && resolved; ++s) {
          if (completed[s] != 0 || failed[s] != 0) continue;
          // Not yet failed and not running: either awaiting backoff, or —
          // if its pending entry vanished (spawn failure) — out of road.
          if (count_inflight(static_cast<int>(s)) > 0)
            resolved = false;
          else if (launches[s] >= options.max_attempts)
            failed[s] = 1;
          else
            pending.push_back({static_cast<int>(s), false, now});
          if (failed[s] == 0 && completed[s] == 0) resolved = false;
        }
      }
      if (resolved && pending.empty()) break;

      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(1e-4, options.poll_interval_seconds)));
    }
  } catch (...) {
    kill_everything();
    throw;
  }

  for (std::size_t s = 0; s < num_shards; ++s) {
    if (completed[s] != 0)
      report.results.push_back(std::move(accepted[s]));
    else
      report.failed_shards.push_back(static_cast<int>(s));
  }
  report.elapsed_seconds = seconds_between(begin, Clock::now());
  return report;
}

}  // namespace unilocal
