#!/usr/bin/env python3
"""Re-measure the ROADMAP item 1 baselines with the benchmark's timing.

Run from the repository root:

    python3 perfbench/baselines.py

Each row is the median wall time of REPEATS runs (perf_counter), with
the library imported from ./src; per-vertex rows take the median over
their vertices.  The colorings are rebuilt for every repeat, so each
repeat starts from cold engines.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3


def timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def per_vertex(color, bits, count, rng):
    return statistics.median(
        timed(lambda w=(1 << bits) | rng.getrandbits(bits): color(w)) for _ in range(count))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fscoloring import cli, delta3, harness, pi3, treecolor

    def config(name):
        return harness.load_config(str(ROOT / "configs" / (name + ".json")))

    def quiet_cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit("error: %s exited %d" % (" ".join(argv), code))

    def full_block(request):
        for w in range(1 << 12, 1 << 13):
            treecolor.signed_count(request, w)

    rng = random.Random(1)
    rows = [
        ("factored signed_count at 2^60 (lifted random tri request)", "ms/vertex",
         lambda: 1e3 * per_vertex(
             lambda w: treecolor.signed_count(
                 treecolor.lift_tri(treecolor.random_tri_request(7)), w), 60, 20, rng)),
        ("generic signed_count, full block at 2^12 (no memo)", "s",
         lambda: timed(lambda: full_block(treecolor.random_request(3)))),
        ("generic signed_count, full block at 2^12 (MemoRequest)", "s",
         lambda: timed(lambda: full_block(treecolor.MemoRequest(treecolor.random_request(3))))),
        ("pi3 coloring at 2^60 (pi3-instant, 20 vertices after one warm-up)", "ms/vertex",
         lambda: 1e3 * _warm_per_vertex(pi3.coloring(harness.build_family(config("pi3-instant"))),
                                        60, 20, rng)),
        ("delta3 coloring, one random vertex at 2^20 (delta3-instant, cold)", "s",
         lambda: timed(lambda: delta3.coloring(harness.build_family(config("delta3-instant")))(
             (1 << 20) | rng.getrandbits(20)))),
        ("tree check --max-exponent 10 --functions 20 --moduli 2,3,5,8", "s",
         lambda: timed(lambda: quiet_cli(["tree", "check", "--max-exponent", "10", "--functions",
                                          "20", "--moduli", "2,3,5,8"]))),
        ("apartness extract --stream arith:1:3 --count 12", "s",
         lambda: timed(lambda: quiet_cli(["apartness", "extract", "--stream", "arith:1:3",
                                          "--count", "12"]))),
    ]
    print("| workload | median of %d | unit |" % REPEATS)
    print("| --- | --- | --- |")
    for label, unit, measure in rows:
        values = [measure() for _ in range(REPEATS)]
        print("| %s | %.3f | %s |" % (label, statistics.median(values), unit), flush=True)
    return 0


def _warm_per_vertex(color, bits, count, rng):
    color((1 << (bits + 1)) - 1)
    return per_vertex(color, bits, count, rng)


if __name__ == "__main__":
    sys.exit(main())
