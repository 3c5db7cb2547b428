#!/usr/bin/env python3
"""Benchmark for fscoloring: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root (the library is imported from ./src):

    python3 perfbench/run.py --workload kill-verify --seed 1 --seconds 40 --trace 0

Workloads: kill-verify, exhaustive-small (see perfbench/README.md).
The seed makes the workload's inputs; the same seed gives the same inputs.

--trace 0 runs whole rounds of the workload, every op once per round, until
the ops have taken --seconds and at least MIN_ROUNDS rounds ran.  It prints
the end-to-end metrics; every timing is scaled to a reference pace of the
machine (see pace.py).
--trace 1 runs one round untraced, then the same round twice with every
layer's public functions wrapped in spans; it prints the per-layer metrics
of the first traced pass, checks that both traced passes counted the same
work, and writes the spans to .perfbench/traces/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --record rewrites
perfbench/expected.json from the current library and prints nothing else.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3         # runs of every op, for the median over them
SETUP_SAMPLES = 15     # fresh set-up processes timed per run, spread over it
SETUP_TIMEOUT_S = 120


def import_library():
    """Import fscoloring from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import fscoloring
    except ImportError as missing:
        raise SystemExit("error: cannot import fscoloring from %s: %s" % (src, missing))
    if Path(fscoloring.__file__).resolve().parent != (src / "fscoloring").resolve():
        raise SystemExit("error: fscoloring was imported from %s, not %s" % (fscoloring.__file__, src))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("kill-verify", "exhaustive-small"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="busy time of the timed ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="rewrite perfbench/expected.json from the current library")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if not (args.record or args.setup_only) and args.seconds is None:
        parser.error("--seconds is required")
    return args


def time_setup(args) -> float:
    """Wall time of one fresh process that imports and sets up the workload."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
    seconds = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit("error: set-up process failed:\n%s" % done.stderr.decode(errors="replace"))
    return seconds


def run_pass(workload, rounds=None, seconds=0.0, after_op=None):
    """Run whole rounds: a fixed number, or until the ops took `seconds`
    and at least MIN_ROUNDS rounds ran.

    Peak RSS is read after the first round: every op starts cold, so one
    round shows the peak, and it measures the same work however many
    rounds a run manages.
    """
    from pace import time_reference_loop
    from workloads import Tally

    tally = Tally()
    while (tally.rounds < rounds) if rounds is not None else (
            tally.busy < seconds or tally.rounds < MIN_ROUNDS):
        for op in workload.round(tally.rounds):
            loop_seconds = time_reference_loop()
            outcomes = []
            for step in op:
                outcomes.append(workload.run_step(step))
                if not outcomes[-1].ok or outcomes[-1].code != 0:
                    break           # no report to verify
            tally.add(op, outcomes, loop_seconds)
            if after_op is not None:
                after_op(tally)
        tally.rounds += 1
        if tally.rounds == 1:
            tally.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return tally


def fresh(args, expected):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, expected)
    workload.prepare()
    return workload


def end_to_end(args, expected):
    # Set-up is timed between ops, once every 1/SETUP_SAMPLES of the busy
    # time, so the samples spread over the run; each is scaled by the pace
    # around the op it followed.
    from pace import REFERENCE_S, scale_factors

    setups = []                     # (seconds, index of the op before it)

    def sample_setup(tally):
        if len(setups) < SETUP_SAMPLES and tally.busy >= len(setups) * args.seconds / SETUP_SAMPLES:
            setups.append((time_setup(args), tally.ops - 1))

    workload = fresh(args, expected)
    tally = run_pass(workload, seconds=args.seconds, after_op=sample_setup)
    while len(setups) < SETUP_SAMPLES:
        setups.append((time_setup(args), tally.ops - 1))
    problems = workload.check()
    factors = scale_factors(tally.loops)
    latencies, verify_s = tally.at_reference_pace()
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    attempted = tally.ops
    failed = tally.failed + len(problems)
    metrics = {
        "setup_s": (statistics.median(seconds * factors[index] for seconds, index in setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "verify_s": (verify_s, "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (tally.peak_rss_mb, "MB"),
    }
    print("ops: %d distinct, %d runs in %d rounds, %.3f s busy; pace: reference loop median %.3f ms "
          "(reference %.3f ms); unscaled %.4f ops/s over all runs"
          % (len(latencies), attempted, tally.rounds, tally.busy,
             statistics.median(tally.loops) * 1e3, REFERENCE_S * 1e3, attempted / tally.busy))
    return tally, problems, attempted, failed, metrics


COUNT_UNITS = ("count", "bytes", "ratio")


def traced_pass(args, expected):
    """One round with every layer wrapped; set-up spans are dropped."""
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload = fresh(args, expected)
        workload.untraced = tracer.paused
        tracer.reset()
        tally = run_pass(workload, rounds=1)
    finally:
        tracer.uninstall()
    return tracer, workload, tally


def traced(args, expected):
    untraced = run_pass(fresh(args, expected), rounds=1)
    tracer, workload, tally = traced_pass(args, expected)
    metrics = tracer.layer_metrics()
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.write(traces / ("%s.spans" % args.workload), workload=args.workload, seed=args.seed)
    del tracer                      # free the spans before the repeat pass
    repeat_tracer, _repeat_workload, repeat = traced_pass(args, expected)
    counted_again = repeat_tracer.layer_metrics()
    del repeat_tracer
    differing = [name for name, (value, unit) in metrics.items()
                 if unit in COUNT_UNITS and counted_again[name][0] != value]

    untraced_rate = untraced.ops / untraced.busy
    traced_rate = tally.ops / tally.busy
    metrics["trace.ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "ops/s")
    metrics["trace.counts_identical"] = (0 if differing else 1, "bool")
    problems = ["per-layer count %s differs between two traced passes" % name for name in differing]
    checked = workload.check()
    problems += checked
    combined = (untraced, tally, repeat)
    attempted = sum(t.ops for t in combined)
    failed = sum(t.failed for t in combined) + len(checked)
    for other in (untraced, repeat):
        tally.unexpected += other.unexpected
        tally.known |= other.known
    print("traced pass: %d ops, %d spans; untraced %.2f ops/s, traced %.2f ops/s"
          % (tally.ops, metrics["trace.spans"][0], untraced_rate, traced_rate))
    return tally, problems, attempted, failed, metrics


def record():
    from workloads import EXPECTED_PATH, WORKLOADS

    expected = {}
    for name, cls in sorted(WORKLOADS.items()):
        workload = cls(0, {})
        workload.prepare()
        expected[name] = workload.record()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import KNOWN_DEFECTS, WORK_DIR, load_expected

    try:
        if args.record:
            record()
            return 0
        expected = load_expected()
        if args.setup_only:
            fresh(args, expected)
            return 0
        run = traced if args.trace else end_to_end
        tally, problems, attempted, failed, metrics = run(args, expected)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    for line in tally.unexpected + problems:
        print("FAILED %s" % line, file=sys.stderr)
    if tally.known:
        print("known failures: %s" % "; ".join(
            "%s (%s)" % (key, KNOWN_DEFECTS[key]) for key in sorted(tally.known)))
    result = {
        "correct": not tally.unexpected and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
