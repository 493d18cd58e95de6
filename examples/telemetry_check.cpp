// telemetry_check — structural validator for the telemetry files the CLI
// writes (src/runtime/telemetry.h), used by CI to prove a trace is more
// than well-formed JSON.
//
//   telemetry_check --trace=FILE [--expect-cells=N] [--expect-attempts=N]
//                   [--metrics=FILE]
//
// Trace checks:
//  - the document is {"traceEvents": [...]} and every event round-trips
//    through TraceRecorder::parse_event (name, ph in {X,i,M}, ts/dur/pid/
//    tid well-typed);
//  - every pid with events has a process_name metadata event;
//  - "X" spans have dur >= 0 and, within each (pid, tid) lane, nest
//    properly: sorted by start, a span that begins inside another must end
//    inside it (no partial overlap — what Perfetto renders as a broken
//    track);
//  - every "round" span carries round/frontier/messages/steps args and
//    sits inside an "engine.run" span on its lane; every "cell" span
//    carries index/scenario/algorithm/seed args; the engine's "mode" and
//    "path" args are strings;
//  - --expect-cells=N / --expect-attempts=N pin the number of "cell" /
//    "attempt" spans (a stitched supervised trace must cover every
//    campaign cell and every shard attempt).
//
// Metrics checks: {"metrics": [...]} sorted by unique name, kind in
// {counter, gauge, histogram}, histogram count == sum of bucket counts and
// min <= max when count > 0.
//
// Exit 0 when everything holds; every violation is printed and exits 1.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/runtime/telemetry.h"
#include "src/util/flags.h"
#include "src/util/json.h"

using namespace unilocal;

namespace {

int g_failures = 0;  // NOLINT

void fail(const std::string& message) {
  std::fprintf(stderr, "telemetry_check: FAIL: %s\n", message.c_str());
  ++g_failures;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

const json::Value* find_arg(const telemetry::TraceEvent& event,
                            const char* key) {
  if (!event.args.is_object()) return nullptr;
  return event.args.find(key);
}

void require_args(const telemetry::TraceEvent& event,
                  const std::vector<const char*>& keys) {
  for (const char* key : keys)
    if (find_arg(event, key) == nullptr)
      fail("'" + event.name + "' span at ts=" + std::to_string(event.ts) +
           " missing arg '" + key + "'");
}

// The engine's mode/path args name a loop and a step path; anything but a
// string there (a literal bound to the bool appender, say) is a bug.
void require_string_args(const telemetry::TraceEvent& event,
                         const std::vector<const char*>& keys) {
  for (const char* key : keys) {
    const json::Value* value = find_arg(event, key);
    if (value != nullptr && !value->is_string())
      fail("'" + event.name + "' span at ts=" + std::to_string(event.ts) +
           " has non-string arg '" + key + "'");
  }
}

int check_trace(const std::string& path, std::int64_t expect_cells,
                std::int64_t expect_attempts) {
  std::vector<telemetry::TraceEvent> events;
  try {
    const json::Value document = json::Value::parse(read_text_file(path));
    const json::Value& list = document.at("traceEvents");
    if (!list.is_array()) throw std::runtime_error("traceEvents not an array");
    for (const json::Value& item : list.as_array())
      events.push_back(telemetry::TraceRecorder::parse_event(item));
  } catch (const std::exception& e) {
    fail(path + ": " + e.what());
    return 1;
  }

  // Process names: every pid that records events must be named.
  std::map<int, std::string> process_names;
  std::map<int, int> events_per_pid;
  for (const telemetry::TraceEvent& event : events) {
    if (event.phase == 'M' && event.name == "process_name") {
      const json::Value* name = find_arg(event, "name");
      if (name == nullptr || !name->is_string())
        fail("process_name metadata for pid " + std::to_string(event.pid) +
             " lacks a string 'name' arg");
      else
        process_names[event.pid] = name->as_string();
      continue;
    }
    ++events_per_pid[event.pid];
  }
  for (const auto& [pid, count] : events_per_pid)
    if (process_names.find(pid) == process_names.end())
      fail("pid " + std::to_string(pid) + " has " + std::to_string(count) +
           " events but no process_name metadata");

  // Span nesting per (pid, tid) lane.
  std::map<std::pair<int, int>, std::vector<const telemetry::TraceEvent*>>
      lanes;
  int cells = 0;
  int attempts = 0;
  int rounds = 0;
  for (const telemetry::TraceEvent& event : events) {
    if (event.phase != 'X') continue;
    if (event.dur < 0)
      fail("'" + event.name + "' span at ts=" + std::to_string(event.ts) +
           " has negative dur " + std::to_string(event.dur));
    lanes[{event.pid, event.tid}].push_back(&event);
    if (event.name == "cell") {
      ++cells;
      require_args(event, {"index", "scenario", "algorithm", "seed"});
    } else if (event.name == "attempt") {
      ++attempts;
      require_args(event, {"shard", "attempt", "speculative", "outcome"});
    } else if (event.name == "round") {
      ++rounds;
      require_args(event, {"round", "frontier", "messages", "steps"});
      require_string_args(event, {"path"});
    } else if (event.name == "engine.run") {
      require_args(event, {"mode", "path", "n", "rounds"});
      require_string_args(event, {"mode", "path"});
    }
  }
  for (auto& [lane, spans] : lanes) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const telemetry::TraceEvent* a,
                        const telemetry::TraceEvent* b) {
                       if (a->ts != b->ts) return a->ts < b->ts;
                       // Equal starts: the longer span is the outer one.
                       return a->dur > b->dur;
                     });
    // A stack of open spans: each new span must start after the top ends
    // (sibling) or end no later than it (child). Partial overlap breaks
    // the lane.
    std::vector<const telemetry::TraceEvent*> open;
    for (const telemetry::TraceEvent* span : spans) {
      while (!open.empty() && open.back()->ts + open.back()->dur <= span->ts)
        open.pop_back();
      if (!open.empty() &&
          span->ts + span->dur > open.back()->ts + open.back()->dur)
        fail("lane pid=" + std::to_string(lane.first) +
             " tid=" + std::to_string(lane.second) + ": '" + span->name +
             "' [" + std::to_string(span->ts) + ", " +
             std::to_string(span->ts + span->dur) + ") partially overlaps '" +
             open.back()->name + "' [" + std::to_string(open.back()->ts) +
             ", " +
             std::to_string(open.back()->ts + open.back()->dur) + ")");
      open.push_back(span);
    }
  }
  // Every "round" span must sit inside an "engine.run" span on its lane.
  for (const auto& [lane, spans] : lanes) {
    for (const telemetry::TraceEvent* span : spans) {
      if (span->name != "round") continue;
      bool covered = false;
      for (const telemetry::TraceEvent* other : spans) {
        if (other->name != "engine.run") continue;
        if (other->ts <= span->ts &&
            span->ts + span->dur <= other->ts + other->dur) {
          covered = true;
          break;
        }
      }
      if (!covered)
        fail("lane pid=" + std::to_string(lane.first) +
             " tid=" + std::to_string(lane.second) + ": 'round' span at ts=" +
             std::to_string(span->ts) + " outside any 'engine.run' span");
    }
  }

  if (expect_cells >= 0 && cells != expect_cells)
    fail("expected " + std::to_string(expect_cells) + " 'cell' spans, found " +
         std::to_string(cells));
  if (expect_attempts >= 0 && attempts != expect_attempts)
    fail("expected " + std::to_string(expect_attempts) +
         " 'attempt' spans, found " + std::to_string(attempts));

  std::fprintf(stderr,
               "telemetry_check: %s: %zu events, %zu lanes, %d cell / %d "
               "attempt / %d round spans, %zu named processes\n",
               path.c_str(), events.size(), lanes.size(), cells, attempts,
               rounds, process_names.size());
  return 0;
}

int check_metrics(const std::string& path) {
  json::Value document;
  try {
    document = json::Value::parse(read_text_file(path));
  } catch (const std::exception& e) {
    fail(path + ": " + e.what());
    return 1;
  }
  const json::Value* list = document.find("metrics");
  if (list == nullptr || !list->is_array()) {
    fail(path + ": no 'metrics' array");
    return 1;
  }
  std::string previous;
  std::size_t index = 0;
  for (const json::Value& metric : list->as_array()) {
    ++index;
    std::string name;
    try {
      name = metric.at("name").as_string();
      const std::string kind = metric.at("kind").as_string();
      if (kind != "counter" && kind != "gauge" && kind != "histogram") {
        fail(name + ": unknown kind '" + kind + "'");
        continue;
      }
      if (kind == "histogram") {
        const std::int64_t count = metric.at("count").as_i64();
        const json::Value& buckets = metric.at("buckets");
        std::int64_t bucket_total = 0;
        for (const auto& [bucket, bucket_count] : buckets.as_object())
          bucket_total += bucket_count.as_i64();
        if (bucket_total != count)
          fail(name + ": count " + std::to_string(count) +
               " != bucket sum " + std::to_string(bucket_total));
        if (count > 0 && metric.at("min").as_i64() > metric.at("max").as_i64())
          fail(name + ": min > max");
      } else if (metric.find("value") == nullptr) {
        fail(name + ": " + kind + " without 'value'");
      }
    } catch (const std::exception& e) {
      fail(path + ": metric " + std::to_string(index - 1) + ": " + e.what());
      continue;
    }
    if (!previous.empty() && !(previous < name))
      fail("metrics not sorted by unique name: '" + previous +
           "' then '" + name + "'");
    previous = name;
  }
  std::fprintf(stderr, "telemetry_check: %s: %zu metrics\n", path.c_str(),
               list->as_array().size());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: telemetry_check --trace=FILE [--expect-cells=N] "
               "[--expect-attempts=N] [--metrics=FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::int64_t expect_cells = -1;
  std::int64_t expect_attempts = -1;
  FlagTable table;
  table.add({"--trace", FlagKind::kString, &trace_path});
  table.add({"--metrics", FlagKind::kString, &metrics_path});
  table.add({"--expect-cells", FlagKind::kNonNegative, &expect_cells});
  table.add({"--expect-attempts", FlagKind::kNonNegative, &expect_attempts});
  try {
    if (!table.parse({argv + 1, argv + argc}).empty()) return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry_check: %s\n", e.what());
    return usage();
  }
  if (trace_path.empty() && metrics_path.empty()) return usage();
  if (!trace_path.empty())
    check_trace(trace_path, expect_cells, expect_attempts);
  if (!metrics_path.empty()) check_metrics(metrics_path);
  if (g_failures > 0) {
    std::fprintf(stderr, "telemetry_check: %d failure%s\n", g_failures,
                 g_failures == 1 ? "" : "s");
    return 1;
  }
  return 0;
}
