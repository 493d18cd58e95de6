// Golden campaign results, compared field by field in two exact groups:
//
//   outputs — output_hash, rounds, messages, solved, valid: what a change
//     to scheduling or delivery must never move (Observation 2.1);
//   work    — the deterministic work counters (steps, peaks, the delivery
//     layer's fault counters): noise-free, so a change that moves one on
//     purpose re-records them and says so.
//
// A mismatch names the cell, the group, the field, the checked-in value and
// the new one.
//
// tests/data/table1_smoke_canonical.json is the table1 smoke grid (n=64, 1
// seed, 47 cells) as canonical JSON, rebuilt in process and through a
// 3-shard plan -> run -> merge. Past the two groups, the rest of the
// document (identity, graph sizes, aggregates) must still match byte for
// byte. After an intended change, regenerate it with
// `unilocal_cli table1 --smoke --canonical` redirected into that file.
//
// tests/data/delayed_smoke.csv is the same grid on the three delay presets
// with drops and duplicates, plus a heavytail grid with crashes and late
// joiners; its header comment holds the regeneration command.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/runtime/campaign.h"
#include "src/runtime/shard.h"

#ifndef UNILOCAL_TEST_DATA_DIR
#error "UNILOCAL_TEST_DATA_DIR must name tests/data"
#endif

namespace unilocal {
namespace {

/// Cell label -> field -> value text.
using CellTable = std::map<std::string, std::map<std::string, std::string>>;

/// The fields that name a cell of the one-seed smoke grids, in label order.
const std::vector<std::string> kIdentityFields = {
    "scenario", "algorithm", "network", "drop", "duplicate", "crash", "late"};

const std::vector<std::string> kOutputFields = {"output_hash", "rounds",
                                                "messages", "solved", "valid"};

std::string read_data_file(const std::string& name) {
  const std::string path = std::string(UNILOCAL_TEST_DATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string label_of(const std::map<std::string, std::string>& fields) {
  std::string label;
  for (const std::string& key : kIdentityFields) {
    const auto it = fields.find(key);
    if (it == fields.end()) continue;
    if (!label.empty()) label += ' ';
    label += key + "=" + it->second;
  }
  return label;
}

void add_cell(CellTable& table, std::map<std::string, std::string> fields) {
  const std::string label = label_of(fields);
  EXPECT_TRUE(table.emplace(label, std::move(fields)).second)
      << "two cells share the label " << label;
}

/// Every cell of a campaign JSON document's cell_results.
CellTable cells_of_json(const std::string& document) {
  CellTable table;
  const json::Value doc = json::Value::parse(document);
  for (const json::Value& cell : doc.at("cell_results").as_array()) {
    std::map<std::string, std::string> fields;
    for (const auto& [key, value] : cell.as_object())
      fields[key] = value.is_string() ? value.as_string() : value.dump();
    add_cell(table, std::move(fields));
  }
  return table;
}

/// Every row of a campaign CSV (write_campaign_csv's layout, or a column
/// subset of it); lines starting with '#' are comments.
CellTable cells_of_csv(const std::string& text) {
  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::stringstream in(line);
    std::string cell;
    while (std::getline(in, cell, ',')) cells.push_back(cell);
    if (!line.empty() && line.back() == ',') cells.emplace_back();
    return cells;
  };
  CellTable table;
  std::istringstream in(text);
  std::vector<std::string> header;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (header.empty()) {
      header = split(line);
      continue;
    }
    const std::vector<std::string> row = split(line);
    EXPECT_EQ(row.size(), header.size()) << "ragged CSV row: " << line;
    std::map<std::string, std::string> fields;
    for (std::size_t i = 0; i < row.size() && i < header.size(); ++i)
      fields[header[i]] = row[i];
    add_cell(table, std::move(fields));
  }
  return table;
}

/// Compares `group` field by field over every golden cell; returns the
/// number of mismatches (each one reported).
int compare_group(const CellTable& golden, const CellTable& actual,
                  const char* group, const std::vector<std::string>& fields) {
  int mismatches = 0;
  for (const auto& [label, want] : golden) {
    const auto found = actual.find(label);
    if (found == actual.end()) continue;  // reported by compare_cell_sets
    for (const std::string& field : fields) {
      const auto old_value = want.find(field);
      const auto new_value = found->second.find(field);
      if (old_value == want.end() || new_value == found->second.end()) {
        ADD_FAILURE() << label << ": " << group << " field " << field
                      << " is missing from the "
                      << (old_value == want.end() ? "golden" : "new run");
        ++mismatches;
        continue;
      }
      if (old_value->second == new_value->second) continue;
      ADD_FAILURE() << label << ": " << group << " field " << field
                    << " was " << old_value->second << ", now "
                    << new_value->second;
      ++mismatches;
    }
  }
  return mismatches;
}

/// Both tables must hold the same cells.
int compare_cell_sets(const CellTable& golden, const CellTable& actual) {
  int mismatches = 0;
  for (const auto& [label, fields] : golden)
    if (actual.find(label) == actual.end()) {
      ADD_FAILURE() << "golden cell missing from the new run: " << label;
      ++mismatches;
    }
  for (const auto& [label, fields] : actual)
    if (golden.find(label) == golden.end()) {
      ADD_FAILURE() << "new run has a cell the golden lacks: " << label;
      ++mismatches;
    }
  return mismatches;
}

// --- the canonical table1 smoke document ------------------------------------

/// The canonical document's work group: its canonical EngineStats fields
/// other than messages (an output).
std::vector<std::string> canonical_work_fields() {
  std::vector<std::string> fields;
  for (const StatField& row : kEngineStatFields)
    if (row.canonical && std::string(row.key) != "messages")
      fields.emplace_back(row.key);
  return fields;
}

/// The CLI's `table1 --smoke --canonical` stdout: the document plus '\n'.
std::string canonical(const CampaignResult& result) {
  std::ostringstream out;
  CampaignJsonOptions options;
  options.canonical = true;
  write_campaign_json(out, result, options);
  out << '\n';
  return out.str();
}

void expect_canonical_golden(const CampaignResult& result) {
  const std::string want = read_data_file("table1_smoke_canonical.json");
  const std::string got = canonical(result);
  const CellTable golden = cells_of_json(want);
  const CellTable actual = cells_of_json(got);
  int mismatches = compare_cell_sets(golden, actual);
  mismatches += compare_group(golden, actual, "output", kOutputFields);
  mismatches +=
      compare_group(golden, actual, "work", canonical_work_fields());
  if (mismatches == 0)
    EXPECT_EQ(got, want)
        << "the document differs outside the output and work groups";
}

std::vector<CampaignCell> smoke_grid(const GridOptions& options = {}) {
  ScenarioParams params;
  params.n = 64;
  return make_table1_grid(params, 1, options);
}

TEST(GoldenCanonical, InProcessSmokeGridMatchesTheCheckedInDocument) {
  const auto cells = smoke_grid();
  ASSERT_EQ(cells.size(), 47u);
  CampaignOptions options;
  options.workers = 2;
  expect_canonical_golden(run_campaign(cells, options));
}

TEST(GoldenCanonical, ThreeShardSmokeGridMatchesTheCheckedInDocument) {
  const auto cells = smoke_grid();
  const ShardPlan plan = plan_shards(cells, 3, ShardPolicy::kCostBalanced);
  std::vector<ShardResult> results;
  for (const ShardManifest& manifest : plan.shards) {
    // Through the result file's JSON, as a worker process would hand it
    // back.
    const ShardResult result = run_shard(manifest, {});
    results.push_back(
        ShardResult::from_json(json::Value::parse(result.to_json().dump())));
  }
  expect_canonical_golden(merge_shard_results(plan, results));
}

// --- the delayed-network smoke grids ------------------------------------------

const std::vector<std::string> kDelayedWorkFields = {
    "steps",
    "peak_frontier_nodes",
    "peak_round_messages",
    "final_live_nodes",
    "messages_dropped",
    "messages_duplicated",
    "max_delivery_skew"};

NetworkOptions delayed(const std::string& spec) {
  NetworkOptions network = parse_network_spec(spec);
  network.drop = 0.1;
  network.duplicate = 0.1;
  return network;
}

TEST(GoldenDelayed, SmokeGridsMatchTheCheckedInOutputsAndWork) {
  GridOptions presets;
  presets.networks = {delayed("delay:uniform"), delayed("delay:weighted"),
                      delayed("delay:heavytail")};
  GridOptions faults;
  NetworkOptions heavytail = delayed("delay:heavytail");
  heavytail.crash = 0.05;
  heavytail.late = 0.1;
  faults.networks = {heavytail};
  std::vector<CampaignCell> cells = smoke_grid(presets);
  for (CampaignCell& cell : smoke_grid(faults)) cells.push_back(cell);
  ASSERT_EQ(cells.size(), 4 * 47u);

  CampaignOptions options;
  options.workers = 2;
  std::ostringstream csv;
  write_campaign_csv(csv, run_campaign(cells, options));

  const CellTable golden = cells_of_csv(read_data_file("delayed_smoke.csv"));
  const CellTable actual = cells_of_csv(csv.str());
  ASSERT_EQ(golden.size(), cells.size());
  // Every golden column is an identity, output or work field: nothing in
  // the file goes unchecked.
  for (const auto& [key, value] : golden.begin()->second) {
    const auto listed = [&key](const std::vector<std::string>& fields) {
      return std::find(fields.begin(), fields.end(), key) != fields.end();
    };
    EXPECT_TRUE(listed(kIdentityFields) || listed(kOutputFields) ||
                listed(kDelayedWorkFields))
        << "golden column " << key << " belongs to no group";
  }
  compare_cell_sets(golden, actual);
  compare_group(golden, actual, "output", kOutputFields);
  compare_group(golden, actual, "work", kDelayedWorkFields);
}

}  // namespace
}  // namespace unilocal
