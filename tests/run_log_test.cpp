// The append-only campaign run-log: grid hashing, JSON-line round trip,
// and baseline comparison for perf-regression diffing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "src/runtime/campaign.h"
#include "src/runtime/run_log.h"

namespace unilocal {
namespace {

class RunLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "unilocal_run_log_test.jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

CampaignResult tiny_campaign(std::uint64_t base_seed = 1) {
  ScenarioParams params;
  params.n = 24;
  GridOptions grid;
  grid.base_seed = base_seed;
  const auto cells =
      make_grid({"path", "cycle"}, params, {"mis-uniform"}, 1, grid);
  return run_campaign(cells, {});
}

TEST_F(RunLogTest, GridHashIdentifiesTheGridNotTheOutcome) {
  const CampaignResult a = tiny_campaign();
  const CampaignResult b = tiny_campaign();
  EXPECT_EQ(campaign_grid_hash(a), campaign_grid_hash(b));
  // A different seed is a different grid.
  const CampaignResult c = tiny_campaign(9);
  EXPECT_NE(campaign_grid_hash(a), campaign_grid_hash(c));
}

TEST_F(RunLogTest, AppendsOneParseableLinePerRun) {
  const CampaignResult result = tiny_campaign();
  append_run_log(path_, result);
  append_run_log(path_, result);
  const auto entries = read_run_log(path_);
  ASSERT_EQ(entries.size(), 2u);
  for (const RunLogEntry& entry : entries) {
    EXPECT_EQ(entry.grid_hash, campaign_grid_hash(result));
    EXPECT_EQ(entry.cells, static_cast<int>(result.cells.size()));
    EXPECT_EQ(entry.solved, result.solved);
    EXPECT_EQ(entry.valid, result.valid);
    EXPECT_EQ(entry.failed, result.failed);
    EXPECT_EQ(entry.workers, result.workers);
    EXPECT_DOUBLE_EQ(entry.rounds.p50, result.rounds.p50);
    EXPECT_DOUBLE_EQ(entry.rounds.max, result.rounds.max);
    EXPECT_DOUBLE_EQ(entry.stats[&EngineStats::total_messages].p90,
                     result.stats[&EngineStats::total_messages].p90);
    // Frontier telemetry blocks ride along.
    EXPECT_DOUBLE_EQ(entry.stats[&EngineStats::peak_live_nodes].max,
                     result.stats[&EngineStats::peak_live_nodes].max);
    EXPECT_DOUBLE_EQ(entry.stats[&EngineStats::peak_frontier_nodes].p50,
                     result.stats[&EngineStats::peak_frontier_nodes].p50);
    EXPECT_DOUBLE_EQ(entry.stats[&EngineStats::dirty_spans_cleared].p99,
                     result.stats[&EngineStats::dirty_spans_cleared].p99);
    // ISO-8601 UTC stamp.
    ASSERT_EQ(entry.date.size(), 20u) << entry.date;
    EXPECT_EQ(entry.date[10], 'T');
    EXPECT_EQ(entry.date.back(), 'Z');
  }
}

TEST_F(RunLogTest, ToleratesEntriesWithoutTelemetryBlocks) {
  // A line from before the telemetry percentiles existed still parses —
  // the missing blocks read as zero.
  {
    std::ofstream out(path_);
    out << "{\"date\":\"2026-01-01T00:00:00Z\",\"grid_hash\":\"42\","
           "\"workers\":1,\"cells\":2,\"solved\":2,\"valid\":2,\"failed\":0,"
           "\"elapsed_seconds\":0.5,\"cells_per_second\":4,"
           "\"rounds\":{\"p50\":3,\"p90\":3,\"p99\":4,\"max\":4},"
           "\"messages\":{\"p50\":10,\"p90\":11,\"p99\":12,\"max\":12},"
           "\"steps_per_second\":{\"p50\":1,\"p90\":1,\"p99\":1,\"max\":1}}"
        << "\n";
  }
  const auto entries = read_run_log(path_);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].grid_hash, 42u);
  EXPECT_DOUBLE_EQ(entries[0].rounds.max, 4.0);
  EXPECT_DOUBLE_EQ(entries[0].stats[&EngineStats::peak_live_nodes].max, 0.0);
  EXPECT_DOUBLE_EQ(entries[0].stats[&EngineStats::dirty_spans_cleared].p50,
                   0.0);
}

TEST_F(RunLogTest, SupervisionBlockRoundTripsAndIsOmittedWhenUnsupervised) {
  // Unsupervised campaign: no supervision block on the line, zeros back.
  const CampaignResult plain = tiny_campaign();
  append_run_log(path_, plain);
  // Supervised campaign: the block round-trips.
  CampaignResult supervised = tiny_campaign();
  supervised.supervision.enabled = true;
  supervised.supervision.shards = 4;
  supervised.supervision.attempts = 7;
  supervised.supervision.retries = 2;
  supervised.supervision.requeues = 3;
  supervised.supervision.stragglers_respawned = 1;
  supervised.supervision.shards_from_journal = 2;
  supervised.supervision.shards_failed = 0;
  supervised.supervision.attempt_seconds =
      campaign_percentiles({0.5, 1.5, 2.5, 4.0});
  append_run_log(path_, supervised);
  const auto entries = read_run_log(path_);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].supervision.shards, 0);
  EXPECT_EQ(entries[0].supervision.attempts, 0);
  EXPECT_EQ(entries[1].supervision.shards, 4);
  EXPECT_EQ(entries[1].supervision.attempts, 7);
  EXPECT_EQ(entries[1].supervision.retries, 2);
  EXPECT_EQ(entries[1].supervision.requeues, 3);
  EXPECT_EQ(entries[1].supervision.stragglers_respawned, 1);
  EXPECT_EQ(entries[1].supervision.shards_from_journal, 2);
  EXPECT_DOUBLE_EQ(entries[1].supervision.attempt_seconds.max, 4.0);
  EXPECT_DOUBLE_EQ(entries[1].supervision.attempt_seconds.p50, 1.5);
}

TEST_F(RunLogTest, CompareFindsTheLatestMatchingBaseline) {
  const CampaignResult result = tiny_campaign();
  // Empty/missing log: nothing to compare against.
  EXPECT_FALSE(compare_run_log(path_, result).found);
  append_run_log(path_, result);
  const RunLogComparison comparison = compare_run_log(path_, result);
  ASSERT_TRUE(comparison.found);
  EXPECT_DOUBLE_EQ(comparison.rounds_p50_ratio, 1.0);
  EXPECT_DOUBLE_EQ(comparison.messages_p50_ratio, 1.0);
  // A different grid never matches, even with entries present.
  EXPECT_FALSE(compare_run_log(path_, tiny_campaign(9)).found);
}

TEST_F(RunLogTest, SkipsMalformedLines) {
  const CampaignResult result = tiny_campaign();
  {
    std::ofstream out(path_);
    out << "not json at all\n{\"date\":\"truncated\n";
  }
  append_run_log(path_, result);
  const auto entries = read_run_log(path_);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].grid_hash, campaign_grid_hash(result));
  // Reading a missing file is empty, not an error.
  EXPECT_TRUE(read_run_log(path_ + ".missing").empty());
}

}  // namespace
}  // namespace unilocal
