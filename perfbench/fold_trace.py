#!/usr/bin/env python3
"""Fold a Chrome trace (as telemetry::TraceRecorder writes it) into a
per-span self-time table.

A span's self time is its duration minus the time its direct children
cover. Spans nest within one (pid, tid) lane, as the recorder lays them out.

    python3 perfbench/fold_trace.py TRACE.json

prints one row per span name: calls, total seconds, self seconds.
"""

import json
import sys
from collections import defaultdict


class Fold:
    """Self and total time per span name, plus the two derived figures the
    benchmark reports: how much of every cell span its layer spans cover,
    and the core self time (pipeline spans minus the engine seconds each
    carries as its `engine_s` arg)."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.cell_s = 0.0
        self.cell_covered_s = 0.0
        self.core_self_s = 0.0

    def self_time(self, name):
        return self.self_s.get(name, 0.0)

    def cell_coverage(self):
        return self.cell_covered_s / self.cell_s if self.cell_s > 0 else 0.0

    def _close(self, event, children_us):
        name = event["name"]
        dur_s = event["dur"] / 1e6
        self.calls[name] += 1
        self.total_s[name] += dur_s
        self.self_s[name] += dur_s - children_us / 1e6
        if name == "cell":
            self.cell_s += dur_s
            self.cell_covered_s += children_us / 1e6
        elif name == "pipeline.run":
            args = event.get("args") or {}
            self.core_self_s += dur_s - float(args.get("engine_s", 0.0))

    def table(self):
        rows = sorted(self.self_s, key=lambda n: -self.self_s[n])
        lines = ["%-24s %8s %12s %12s" % ("span", "calls", "total_s", "self_s")]
        for name in rows:
            lines.append("%-24s %8d %12.6f %12.6f" % (
                name, self.calls[name], self.total_s[name], self.self_s[name]))
        return "\n".join(lines)


def fold(document):
    lanes = defaultdict(list)
    for event in document.get("traceEvents", []):
        if event.get("ph") == "X":
            lanes[(event.get("pid", 1), event.get("tid", 1))].append(event)
    result = Fold()
    for events in lanes.values():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, end_us, children_us]
        for event in events:
            while stack and event["ts"] >= stack[-1][1]:
                done = stack.pop()
                result._close(done[0], done[2])
            if stack:
                stack[-1][2] += event["dur"]
            stack.append([event, event["ts"] + event["dur"], 0])
        while stack:
            done = stack.pop()
            result._close(done[0], done[2])
    return result


def fold_file(path):
    with open(path, encoding="utf-8") as handle:
        return fold(json.load(handle))


def main(argv):
    if len(argv) != 2:
        print("usage: fold_trace.py TRACE.json", file=sys.stderr)
        return 2
    result = fold_file(argv[1])
    print(result.table())
    if result.cell_s > 0:
        print("cell coverage %.4f, core self %.6f s" % (
            result.cell_coverage(), result.core_self_s))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
