#!/usr/bin/env python3
"""The unilocal benchmark: one command, four campaign workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library, the CLI and the perfbench program from this checkout
(optimized; under $CARGO_TARGET_DIR, default .bench_build), then runs
repetitions of the workload's grid, each in its own process, for S seconds
and reports medians. --workload all runs every workload in turn.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics folded from the traced
runs' spans. Every repetition's outputs are checked (see README.md); a
failed check prints correct=false and exits 1. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the checkout stays as git would commit it
import fold_trace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGER = HERE / "ledger.json"

WORKLOADS = ("table1", "dense", "delayed", "sharded")
# Reference runs, outside every timed region: what each workload's outputs
# must equal, and what is compared.
REFERENCE = {
    "delayed": "the same cells on the synchronous network (Observation 2.1)",
    "sharded": "an in-process run_campaign of the same grid",
}
# The host the bounds in BENCHMARK.json were set on.
REFERENCE_CORES = 4
MAX_WORKERS = 4
MIN_REPS = 3
SETUP_SAMPLES_PER_REP = 3
# Every process this script starts must end within this many seconds of
# its start, so the whole run stays inside 180 s.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not run at all: no result is printed."""


class Runner:
    def __init__(self, workload, seed, workers, build_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.exe = build_dir / "perfbench"
        self.cli = build_dir / "unilocal_cli"
        self.scratch = build_dir / "runs" / ("%s-%d-%d" % (workload, seed, os.getpid()))
        self.deadline = deadline
        self.count = 0

    def run(self, mode, trace_out=None):
        self.count += 1
        scratch = self.scratch / ("%s-%d" % (mode, self.count))
        cmd = [str(self.exe), "--mode=" + mode, "--workload=" + self.workload,
               "--seed=%d" % self.seed, "--workers=%d" % self.workers,
               "--cli=" + str(self.cli), "--scratch=" + str(scratch)]
        if trace_out is not None:
            cmd.append("--trace-out=" + str(trace_out))
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("out of time before the %s run" % mode)
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            return None, "%s run timed out" % mode
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if proc.returncode != 0:
            return None, "%s run exited %d: %s" % (mode, proc.returncode,
                                                  proc.stderr.strip()[-400:])
        return json.loads(proc.stdout.strip().splitlines()[-1]), None

    def cleanup(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


# --- build ---------------------------------------------------------------------

def build(jobs):
    if not (ROOT / "src").is_dir() or not (ROOT / "examples" / "unilocal_cli.cpp").is_file():
        raise BenchError("repository sources (src/, examples/unilocal_cli.cpp) "
                         "not found next to perfbench/")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in cache.read_text():
        shutil.rmtree(build_dir)
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not cache.exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(build_dir), "-j", str(jobs)])
    with open(log, "w", encoding="utf-8") as out:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                raise BenchError("build step %s failed: %s" % (step[:2], error))
            if code != 0:
                out.flush()
                tail = log.read_text(errors="replace")[-2000:]
                raise BenchError("build failed (%s):\n%s" % (log, tail))
    return build_dir


# --- statistics ------------------------------------------------------------------

def spread(values):
    """Median and quartiles, as statistics.quantiles(n=4) gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# --- checks --------------------------------------------------------------------

class Checks:
    """Collects every output check; a failed check marks the cells it
    covers as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def rep(self, label, rep, first, reference):
        cells = rep["cells"]
        self.attempted += cells
        bad = set(rep["failed_cells"])
        if rep["failed"]:
            self.problems.append("%s: %d cells errored, unsolved or checker-invalid"
                                 % (label, rep["failed"]))
        if first is not None:
            bad |= self._compare(label + " vs first repetition", rep, first,
                                 whole=True)
        if reference is not None:
            bad |= self._compare(label + " vs reference", rep, reference,
                                 whole=reference.get("whole", True))
        self.failed += len(bad)

    def _compare(self, label, rep, other, whole):
        bad = set(i for i, (a, b) in enumerate(zip(rep["cell_hashes"], other["cell_hashes"]))
                  if a != b)
        if len(rep["cell_hashes"]) != len(other["cell_hashes"]):
            bad = set(range(rep["cells"]))
        if bad:
            self.problems.append("%s: %d cell output hashes differ" % (label, len(bad)))
        if whole:
            for key in ("grid_hash", "canonical_digest", "counters"):
                if rep[key] != other[key]:
                    self.problems.append("%s: %s differs" % (label, key))
                    bad = set(range(rep["cells"]))
        return bad

    def crashed(self, error, cells):
        self.problems.append(error)
        self.attempted += cells
        self.failed += cells

    @property
    def correct(self):
        return not self.problems


# --- per-layer metrics -------------------------------------------------------------

PER_LAYER = [
    # (name, unit); README.md maps each to the layer and what it should move.
    ("graph.generate_s", "s"), ("graph.csr_s", "s"), ("graph.edges", "count"),
    ("instance.make_s", "s"), ("instance.free_s", "s"),
    ("pipeline.run_s", "s"),
    ("engine.run_s", "s"), ("engine.steps", "count"), ("engine.messages", "count"),
    ("engine.rounds", "count"), ("engine.msgs_per_step", "ratio"),
    ("engine.kernel_step_frac", "ratio"), ("engine.batch_occupancy", "steps/call"),
    ("engine.peak_frontier", "count"), ("engine.arena_mb", "MiB"),
    ("core.self_s", "s"),
    ("network.dropped", "count"), ("network.duplicated", "count"),
    ("network.max_skew", "ticks"),
    ("problems.check_s", "s"),
    ("campaign.busy_frac", "ratio"), ("campaign.cell_p50_s", "s"),
    ("campaign.cell_p90_s", "s"),
    ("json.write_s", "s"), ("json.bytes", "bytes"),
    ("shard.plan_s", "s"), ("shard.manifest_bytes", "bytes"), ("shard.result_bytes", "bytes"),
    ("shard.parse_s", "s"), ("shard.merge_s", "s"),
    ("supervisor.run_s", "s"), ("supervisor.attempts", "count"),
    ("supervisor.attempt_p50_s", "s"), ("supervisor.attempt_max_s", "s"),
    ("supervisor.overhead_s", "s"),
    ("trace.cell_coverage", "ratio"), ("trace.overhead_s", "s"),
]

# Span name -> metric whose value is the span's summed self time.
SPAN_METRICS = {
    "graph.generate": "graph.generate_s", "graph.csr": "graph.csr_s",
    "instance.make": "instance.make_s", "instance.free": "instance.free_s",
    "pipeline.run": "pipeline.run_s", "problems.check": "problems.check_s",
    "json.write": "json.write_s", "shard.plan": "shard.plan_s",
    "shard.parse": "shard.parse_s", "shard.merge": "shard.merge_s",
    "supervisor.run": "supervisor.run_s",
}


def layer_metrics(rep, folded):
    """Every per-layer metric but the tracing overhead, from one traced
    repetition and its folded trace."""
    counters = rep["counters"]
    out = {metric: folded.self_time(span) for span, metric in SPAN_METRICS.items()}
    for key in ("graph.edges", "engine.steps", "engine.messages", "engine.rounds",
                "engine.peak_frontier", "network.dropped", "network.duplicated",
                "network.max_skew", "json.bytes"):
        out[key] = counters[key]
    steps = counters["engine.steps"]
    out["engine.msgs_per_step"] = counters["engine.messages"] / steps if steps else 0.0
    out["engine.kernel_step_frac"] = counters["engine.kernel_steps"] / steps if steps else 0.0
    calls = counters["engine.batch_calls"]
    out["engine.batch_occupancy"] = counters["engine.batched_steps"] / calls if calls else 0.0
    out["core.self_s"] = folded.core_self_s
    out["trace.cell_coverage"] = folded.cell_coverage()
    out.update(rep["layers"])
    return out


# --- one workload ----------------------------------------------------------------

def host_info(workers):
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    info = {"nproc": nproc, "cpu_model": model, "workers": workers}
    if nproc != REFERENCE_CORES:
        info["host_flag"] = ("nproc=%d differs from the %d-core host the bounds "
                             "were set on" % (nproc, REFERENCE_CORES))
    return info


def load_ledger():
    with open(LEDGER, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(args, build_dir, workers, deadline):
    runner = Runner(args.workload, args.seed, workers, build_dir, deadline)
    checks = Checks()
    try:
        return measure(args, runner, checks, build_dir, workers)
    finally:
        runner.cleanup()


def measure(args, runner, checks, build_dir, workers):
    # A set-up-only process first, for the number of cells the grid has.
    probe, error = runner.run("setup")
    if error:
        checks.crashed("set-up: " + error, 1)
        return failed_result(args, checks)
    cells = probe["cells"]
    reference = None
    if args.workload in REFERENCE:
        reference, error = runner.run("reference")
        if error:
            checks.crashed("reference run: " + error, cells)
            return failed_result(args, checks)
        # The delayed reference ran on another network: only the outputs
        # must agree, not the grid fingerprint, JSON or fault counters.
        reference["whole"] = args.workload != "delayed"

    setup_samples = []

    timed, traced, folds = [], [], []
    first = None
    trace_keep = build_dir / "traces" / ("%s-seed%d.json" % (args.workload, args.seed))
    start = time.monotonic()
    while True:
        enough = len(timed) >= MIN_REPS if not args.trace else \
            min(len(timed), len(traced)) >= MIN_REPS - 1
        if enough and time.monotonic() - start >= args.seconds:
            break
        mode = "traced" if args.trace and len(traced) < len(timed) else "timed"
        trace_out = runner.scratch / "trace.json" if mode == "traced" else None
        rep, error = runner.run(mode, trace_out)
        label = "%s repetition %d" % (mode, len(timed) + len(traced) + 1)
        if error:
            checks.crashed(label + ": " + error, cells)
            break
        checks.rep(label, rep, first, reference)
        if first is None:
            first = rep
        if mode == "traced":
            checks.rep(label + " layer check", rep["check"], first, None)
            folds.append(fold_trace.fold_file(trace_out))
            trace_keep.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(trace_out), str(trace_keep))
            traced.append(rep)
        else:
            timed.append(rep)
            setup_samples.append(rep["setup_s"])
            # Set-up alone, between repetitions, so that its samples span
            # the whole run like the grid's do.
            for _ in range(0 if args.trace else SETUP_SAMPLES_PER_REP):
                sample, error = runner.run("setup")
                if error:
                    checks.crashed("set-up sample: " + error, cells)
                    break
                setup_samples.append(sample["setup_s"])
            if error:
                break

    if not timed or (args.trace and not traced):
        return failed_result(args, checks)

    stats = {}
    if args.trace:
        per_rep = [layer_metrics(rep, folded) for rep, folded in zip(traced, folds)]
        for name, _ in PER_LAYER:
            if name != "trace.overhead_s":
                stats[name] = spread([m[name] for m in per_rep])
        overhead = (statistics.median(r["grid_s"] for r in traced) -
                    statistics.median(r["grid_s"] for r in timed))
        stats["trace.overhead_s"] = {"median": overhead, "q1": overhead,
                                     "q3": overhead, "n": 1}
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        for key in ("grid_s", "cpu_s", "peak_rss_mb"):
            stats[key] = spread([r[key] for r in timed])
        stats["setup_s"] = spread(setup_samples)
        valid = 1.0 - checks.failed / checks.attempted
        stats["valid_frac"] = {"median": valid, "q1": valid, "q3": valid, "n": 1}
        units = {"grid_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
                 "valid_frac": "ratio"}
        metrics = {name: {"value": stats[name]["median"], "unit": units[name]}
                   for name in ("grid_s", "cpu_s", "peak_rss_mb", "setup_s", "valid_frac")}

    report(args, checks, stats, metrics, first, timed, traced, folds, trace_keep,
           workers)
    return {"correct": checks.correct, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def failed_result(args, checks):
    """The result when the program failed before a full set of repetitions
    ran: only the share of valid cells is known."""
    print("perfbench %s: seed %d" % (args.workload, args.seed))
    for problem in checks.problems:
        print("  CHECK FAILED: " + problem)
    metrics = {}
    if not args.trace:
        metrics["valid_frac"] = {"value": 1.0 - checks.failed / checks.attempted,
                                 "unit": "ratio"}
    return {"correct": False, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def report(args, checks, stats, metrics, first, timed, traced, folds, trace_keep,
           workers):
    print("perfbench %s: seed %d, %d workers, %d timed + %d traced repetitions of %d cells"
          % (args.workload, args.seed, workers, len(timed), len(traced), first["cells"]))
    if args.workload in REFERENCE:
        print("  reference: %s" % REFERENCE[args.workload])
    print("  %-26s %-6s %14s %14s %14s %4s" % ("metric", "unit", "median", "q1", "q3", "n"))
    for name, stat in stats.items():
        print("  %-26s %-6s %14.6g %14.6g %14.6g %4d" % (
            name, metrics[name]["unit"], stat["median"], stat["q1"], stat["q3"], stat["n"]))
    if not args.trace:
        print("  %-26s %-6s %14.6g   (%d of %d cells)" % (
            "failed_frac", "ratio", checks.failed / checks.attempted, checks.failed,
            checks.attempted))
    if folds:
        print("  self time per span, last traced repetition (%s):" % trace_keep)
        for line in folds[-1].table().splitlines():
            print("    " + line)
    for problem in checks.problems:
        print("  CHECK FAILED: " + problem)

    ledger = load_ledger()
    build = first["build"]
    provenance = dict(host_info(workers))
    provenance.update({
        "compiler": build["compiler"], "build_type": build["build_type"],
        "cxx_flags": build["cxx_flags"], "seed": args.seed,
        "default_seed": ledger["default_seed"], "held_out_seed": ledger["held_out_seed"],
        "seconds": args.seconds, "trace": args.trace,
        "repetitions": {"timed": len(timed), "traced": len(traced)},
        "stats": stats,
    })
    print("provenance " + json.dumps(provenance, sort_keys=True))
    entry = ledger["workloads"].get(args.workload, {})
    if args.seed == ledger["default_seed"] and entry:
        counts = dict(first["counters"])
        if traced:
            counts["shard.result_bytes"] = statistics.median(
                r["layers"]["shard.result_bytes"] for r in traced)
        deltas = {k: counts[k] - v for k, v in entry.items() if k in counts}
        print("ledger deltas vs perfbench/ledger.json: " + json.dumps(deltas, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="grid base seed (default: the ledger's default seed)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.seed is None:
            args.seed = load_ledger()["default_seed"]
        workers = min(MAX_WORKERS, len(os.sched_getaffinity(0)))
        build_dir = build(workers)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            args.workload = name
            if len(names) > 1:
                deadline = time.monotonic() + DEADLINE_S
            results.append(run_workload(args, build_dir, workers, deadline))
    except (BenchError, OSError, ValueError, KeyError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
