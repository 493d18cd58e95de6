// Append-only campaign run-log: one JSON line per recorded sweep (UTC
// date, grid hash, worker count, outcome counts, the rounds and engine
// counter percentiles), so future perf changes can diff a fresh run
// against recorded sweeps of the *same* grid without re-running history.
// The grid hash covers every cell's (scenario, params, algorithm, seed,
// identities) — two results compare only when they swept identical work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/campaign.h"

namespace unilocal {

struct RunLogEntry {
  /// UTC timestamp, "YYYY-MM-DDTHH:MM:SSZ".
  std::string date;
  std::uint64_t grid_hash = 0;
  int workers = 0;
  int cells = 0;
  int solved = 0;
  int valid = 0;
  int failed = 0;
  double elapsed_seconds = 0.0;
  double cells_per_second = 0.0;
  CampaignPercentiles rounds;
  /// The engine counters' percentile blocks (CampaignResult::stats); a
  /// block the line predates reads as zero.
  StatPercentiles stats;
  /// The supervision counters (CampaignResult::supervision without its
  /// per-shard rows). enabled = false and all zero when the campaign ran
  /// unsupervised or the entry predates supervision.
  SupervisionSummary supervision;
};

/// FNV-1a over every cell's identifying fields, independent of outcomes.
/// The same fingerprint keys the run log, shard manifests, and shard-merge
/// consistency checks (src/runtime/shard.h).
std::uint64_t campaign_grid_hash(const std::vector<CampaignCell>& cells);
std::uint64_t campaign_grid_hash(const CampaignResult& result);

/// The entry append_run_log would write (date stamped from the system
/// clock).
RunLogEntry make_run_log_entry(const CampaignResult& result);

/// Appends one JSON line; creates the file when missing. Throws
/// std::runtime_error when the file cannot be opened.
void append_run_log(const std::string& path, const CampaignResult& result);

/// Parses every well-formed line; unreadable files and malformed lines are
/// skipped (an empty result, not an error — the log is advisory).
std::vector<RunLogEntry> read_run_log(const std::string& path);

struct RunLogComparison {
  /// True when the log holds an earlier entry with the same grid hash.
  bool found = false;
  RunLogEntry baseline;
  /// current / baseline ratios (> 1 means the current run is higher);
  /// 0 when the baseline value is 0.
  double rounds_p50_ratio = 0.0;
  double messages_p50_ratio = 0.0;
  double steps_per_second_p50_ratio = 0.0;
  double cells_per_second_ratio = 0.0;
  double elapsed_ratio = 0.0;
};

/// Diffs `result` against the most recent recorded entry with the same
/// grid hash and no failed cells (a run with failures is recorded but
/// never serves as a perf baseline — its percentiles cover only the
/// surviving cells).
RunLogComparison compare_run_log(const std::string& path,
                                 const CampaignResult& result);

}  // namespace unilocal
