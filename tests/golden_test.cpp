// Golden canonical output: the table1 smoke grid (n=64, 1 seed, 47 cells)
// rebuilt in process and through a 3-shard plan -> run -> merge must equal,
// byte for byte, the canonical JSON checked in under tests/data/. The
// document carries every cell's rounds, messages and steps, so this is also
// the noise-free work-counter gate: a change that moves any deterministic
// counter fails here, whatever the machine's speed.
//
// After an intended change to the canonical document, regenerate the file
// with `unilocal_cli table1 --smoke --canonical` redirected into
// tests/data/table1_smoke_canonical.json.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
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

std::string golden() {
  const std::string path =
      std::string(UNILOCAL_TEST_DATA_DIR) + "/table1_smoke_canonical.json";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
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

std::vector<CampaignCell> smoke_grid() {
  ScenarioParams params;
  params.n = 64;
  return make_table1_grid(params, 1);
}

TEST(GoldenCanonical, InProcessSmokeGridMatchesTheCheckedInDocument) {
  const auto cells = smoke_grid();
  ASSERT_EQ(cells.size(), 47u);
  CampaignOptions options;
  options.workers = 2;
  EXPECT_EQ(canonical(run_campaign(cells, options)), golden());
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
  EXPECT_EQ(canonical(merge_shard_results(plan, results)), golden());
}

}  // namespace
}  // namespace unilocal
