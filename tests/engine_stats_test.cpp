// The EngineStats field table (kEngineStatFields, src/runtime/runner.h) is
// the only list of the stats fields. These tests walk it row by row, so a
// new row is covered by the merge rule check, the shard-result round trip
// and the run-log round trip as soon as it is added.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <type_traits>
#include <variant>

#include "src/runtime/campaign.h"
#include "src/runtime/run_log.h"
#include "src/runtime/runner.h"
#include "src/runtime/shard.h"

namespace unilocal {
namespace {

/// Sets `field` of `stats` to `value`, converted to the member's type.
void set_stat(EngineStats& stats, const StatField& field, double value) {
  std::visit(
      [&](auto member) {
        using T = std::remove_reference_t<decltype(stats.*member)>;
        stats.*member = static_cast<T>(value);
      },
      field.member);
}

bool is_double_row(const StatField& field) {
  return std::holds_alternative<double EngineStats::*>(field.member);
}

/// Row i gets base + step * i, plus a fraction on double rows: every value
/// is distinct and non-zero, and small enough to print exactly at the
/// stream's default precision.
EngineStats distinct_stats(double base, double step) {
  EngineStats stats;
  for (std::size_t i = 0; i < kEngineStatFields.size(); ++i) {
    const StatField& field = kEngineStatFields[i];
    set_stat(stats, field,
             base + step * static_cast<double>(i) +
                 (is_double_row(field) ? 0.25 : 0.0));
  }
  return stats;
}

TEST(EngineStatFields, KeysAndMembersAreUnique) {
  std::set<std::string> keys;
  for (std::size_t i = 0; i < kEngineStatFields.size(); ++i) {
    const StatField& field = kEngineStatFields[i];
    EXPECT_TRUE(keys.insert(field.key).second) << field.key;
    std::visit(
        [&](auto member) { EXPECT_EQ(stat_field_index(member), i); },
        field.member);
  }
}

TEST(EngineStatFields, MergeAppliesEachRowsRule) {
  // Every value of `big` exceeds every value of `small`, so sum, max and
  // last-wins give three different answers in both merge orders.
  const EngineStats big = distinct_stats(1000.0, 7.0);
  const EngineStats small = distinct_stats(3.0, 1.0);
  for (const bool big_first : {true, false}) {
    const EngineStats& first = big_first ? big : small;
    const EngineStats& second = big_first ? small : big;
    EngineStats merged = first;
    merged.merge(second);
    for (const StatField& field : kEngineStatFields) {
      const double a = stat_value(first, field);
      const double b = stat_value(second, field);
      const double got = stat_value(merged, field);
      switch (field.merge) {
        case StatMerge::kSum:
          EXPECT_DOUBLE_EQ(got, a + b) << field.key;
          break;
        case StatMerge::kMax:
          EXPECT_DOUBLE_EQ(got, std::max(a, b)) << field.key;
          break;
        case StatMerge::kLast:
          EXPECT_DOUBLE_EQ(got, b) << field.key;
          break;
        case StatMerge::kDerived:
          EXPECT_DOUBLE_EQ(got, static_cast<double>(merged.total_steps) /
                                    merged.elapsed_seconds)
              << field.key;
          break;
      }
    }
  }
}

TEST(EngineStatFields, EveryRowSurvivesTheShardResultRoundTrip) {
  CellResult cell;
  cell.solved = true;
  cell.valid = true;
  cell.stats = distinct_stats(11.0, 13.0);
  ShardResult result;
  result.num_shards = 1;
  result.cells = {cell};
  result.cell_indices = {0};
  const ShardResult back =
      ShardResult::from_json(json::Value::parse(result.to_json().dump()));
  ASSERT_EQ(back.cells.size(), 1u);
  for (const StatField& field : kEngineStatFields)
    EXPECT_EQ(stat_value(back.cells[0].stats, field),
              stat_value(cell.stats, field))
        << field.key;
}

TEST(EngineStatFields, EveryAggregateSurvivesTheRunLogRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "unilocal_engine_stats_run_log.jsonl";
  std::remove(path.c_str());
  CampaignResult result;
  for (const double base : {5.0, 50.0, 500.0}) {
    CellResult cell;
    cell.solved = true;
    cell.valid = true;
    cell.stats = distinct_stats(base, 3.0);
    // A power-of-two divisor keeps the derived occupancy exact in the run
    // log's default-precision print.
    cell.stats.kernel_batch_calls = 4;
    result.cells.push_back(cell);
  }
  finalize_campaign_aggregates(result);
  append_run_log(path, result);
  const auto entries = read_run_log(path);
  std::remove(path.c_str());
  ASSERT_EQ(entries.size(), 1u);
  const auto expect_same = [](const CampaignPercentiles& got,
                              const CampaignPercentiles& want,
                              const char* key) {
    EXPECT_GT(want.max, 0.0) << key;
    EXPECT_DOUBLE_EQ(got.p50, want.p50) << key;
    EXPECT_DOUBLE_EQ(got.p90, want.p90) << key;
    EXPECT_DOUBLE_EQ(got.p99, want.p99) << key;
    EXPECT_DOUBLE_EQ(got.max, want.max) << key;
  };
  for (std::size_t i = 0; i < kEngineStatFields.size(); ++i) {
    if (!kEngineStatFields[i].aggregate) continue;
    expect_same(entries[0].stats.fields[i], result.stats.fields[i],
                kEngineStatFields[i].key);
  }
  expect_same(entries[0].stats.kernel_batch_occupancy,
              result.stats.kernel_batch_occupancy, "kernel_batch_occupancy");
}

}  // namespace
}  // namespace unilocal
