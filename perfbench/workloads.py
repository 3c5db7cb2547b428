"""The two benchmark workloads: their inputs, their ops and their output checks.

A workload is built from a seed and hands out *rounds*: lists of ops with
the same ops in every round, so that every op runs once per round and its
latency can be the median over its runs.  An op is a list of steps: one
CLI command and, for a command that wrote a report, the ``verify`` command
on that report.  An op's latency is the time of its steps.

kill-verify       one op is a CLI command and its ``verify``: ``delta3|pi3
                  witness`` (oracle and ``--blind``, plain and ``--product``)
                  for every shipped config x index 0-3 and for deep delta3
                  catalogs.  After the timed phase, the colorings behind the
                  witnesses are checked at top bits 4-60.
exhaustive-small  one op is a CLI command at small exponents and its
                  ``verify``: ``tree check``, ``apartness extract``,
                  ``search-mono`` and ``eval`` tables.

The library is reached only through its public functions and
``fscoloring.cli.main(argv)``, run in-process.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench" / ("work-%d" % os.getpid())    # reports and configs of this process
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Family 0 of the deep delta3 catalogs is powers(modulus=2, residue=1,
# min_exponent=DEEP_MIN_EXPONENT); its candidate scans evaluate whole blocks
# near 2**12, element by element.
# One plain witness and one product kill keep the deep ops near 2% of a
# round, so the 90th percentile falls among the shipped witness ops
# rather than on the edge between two small groups of very different latency.
DEEP_OPS = {"instant": "witness", "delayed": "product"}
DEEP_MIN_EXPONENT = 11

# Coloring checks of kill-verify: (coloring, top bit) pairs, built from the
# shipped configs the witness commands kill.
COLOR_KINDS = (
    ("pi3-instant", 40), ("pi3-instant", 60),
    ("pi3-delayed", 40), ("pi3-delayed", 60),
    ("pi3-product", 40), ("pi3-product", 60),
    ("delta3-growing", 16),
    ("tri", 60),
)
TRI_SEED = 7
CHECK_VERTICES = 6          # fixed vertices per kind, digests in expected.json
CONTRACT_SAMPLES = 4        # increment-contract checks per kind
BFS_TOP_BITS = (4, 8, 12)   # reference-tree cross-checks, two vertices each

# exhaustive-small.  tree check stops at exponent 9: at 10 it took three
# times as long and half of a round, too long to run in every round.
TREE_CHECK = ["tree", "check", "--max-exponent", "9", "--functions", "20", "--moduli", "2,3,5,8"]
EXTRACT = ["apartness", "extract", "--stream", "arith:1:3", "--count", "12"]
SEARCH_COLORINGS = ("killer", "popcount", "delta3", "pi3", "tree-default", "tree-random")
SEARCH_ARGS = ["--max-terms", "3", "--bound", "48", "--size", "5"]
EVAL_TOP_BITS = range(4, 13)
EVAL_WINDOWS = 10           # per top bit
EVAL_WIDTH = 64

# Ops known to fail at the seed commit.  They stay in the workload, count as
# failed while they still exit 2, and are listed by name in the output.
KNOWN_DEFECTS = {
    "search-mono/tree-default": "search-mono evaluates color(1); tree colorings reject it (exit 2)",
    "search-mono/tree-random": "search-mono evaluates color(1); tree colorings reject it (exit 2)",
}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Step:
    key: str                        # stable step name, used in expected.json
    argv: list                      # the CLI command
    report: Optional[str] = None    # report a command step writes
    is_verify: bool = False
    check: Optional[object] = None  # extra check of a seeded step's report


@dataclass
class Outcome:
    seconds: float
    ok: bool
    code: object = 0                # exit code of a CLI step
    known: bool = False             # failed, but as a named known defect
    detail: str = ""


class Tally:
    """Latencies and verdicts of every op a pass ran, in the order they ran."""

    def __init__(self):
        self.runs = []              # (op key, seconds, {verify step key: seconds}) per op run
        self.loops = []             # reference loop seconds, timed before each op run
        self.rounds = 0
        self.busy = 0.0             # time inside ops
        self.peak_rss_mb = 0.0
        self.failed = 0
        self.unexpected = []
        self.known = set()

    @property
    def ops(self) -> int:
        return len(self.runs)

    def add(self, steps, outcomes, loop_seconds):
        """One op: the steps that ran, their outcomes, and the reference
        loop timed just before it."""
        seconds = sum(outcome.seconds for outcome in outcomes)
        verify = {step.key: outcome.seconds
                  for step, outcome in zip(steps, outcomes) if step.is_verify}
        self.runs.append((steps[0].key, seconds, verify))
        self.loops.append(loop_seconds)
        self.busy += seconds
        failed = [(step, outcome) for step, outcome in zip(steps, outcomes) if not outcome.ok]
        if failed:
            self.failed += 1
        for step, outcome in failed:
            if outcome.known:
                self.known.add(step.key)
            else:
                self.unexpected.append("%s: %s" % (step.key, outcome.detail))

    def at_reference_pace(self):
        """(sorted op latencies, verify seconds of a round), at the reference pace.

        An op's latency is the median over its runs of each run's time,
        scaled to the reference pace; the verify time is the sum of the
        verify commands' medians, scaled the same way.
        """
        from pace import scale_factors

        ops, verify = {}, {}
        for (key, seconds, verify_steps), factor in zip(self.runs, scale_factors(self.loops)):
            ops.setdefault(key, []).append(seconds * factor)
            for step_key, step_seconds in verify_steps.items():
                verify.setdefault(step_key, []).append(step_seconds * factor)
        return (sorted(statistics.median(runs) for runs in ops.values()),
                sum(statistics.median(runs) for runs in verify.values()))


def _rng(seed, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


# ---------------------------------------------------------------------------
# CLI workloads


class CliWorkload:
    """Ops that are CLI commands, each report followed by a verify command."""

    name = ""
    untraced = contextlib.nullcontext     # a traced pass runs the output checks through this

    def __init__(self, seed: int, expected: dict):
        from fscoloring import cli

        self.cli = cli
        self.seed = seed
        self.expected = expected.get(self.name, {})
        self.work = WORK_DIR
        self.work.mkdir(parents=True, exist_ok=True)
        self._seen = {}

    def prepare(self):
        """Load configs and build what the commands will use (set-up)."""

    def ops(self) -> list:
        raise NotImplementedError

    def round(self, index: int) -> list:
        ops = self.ops()
        _rng(self.seed, self.name, "order", index).shuffle(ops)
        return ops

    def check(self) -> list:
        """Checks after the timed phase; every op's output was judged as it ran."""
        return []

    def run_step(self, step: Step) -> Outcome:
        seconds, code, out, err, report = self._execute(step)
        return self._judge(step, seconds, code, out, err, report)

    def _execute(self, step: Step):
        stdout, stderr = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(step.argv)
        except SystemExit as stop:          # argparse usage errors
            code = stop.code
        except Exception:                   # a traceback is a failed step, not a crashed run
            code = "exception"
            stderr.write(traceback.format_exc(limit=3))
        seconds = time.perf_counter() - started
        report = ""
        if step.report and code == 0:
            report = Path(step.report).read_text(encoding="utf-8")
        return seconds, code, stdout.getvalue(), stderr.getvalue(), report

    def _judge(self, step, seconds, code, out, err, report) -> Outcome:
        found = digest(code, out, err, report)
        if step.key in KNOWN_DEFECTS:
            if code == 2:
                return Outcome(seconds, False, code, known=True, detail=err.strip())
            return Outcome(seconds, code in (0, 1), code)
        if step.key in self._seen:          # a later round: same inputs, same output
            same = self._seen[step.key] == found
            return Outcome(seconds, same, code, detail="" if same else "output differs from an earlier round")
        want = self.expected.get(step.key)
        if want is not None:
            problem = None
            if want["exit"] != code:
                problem = "exit %r, expected %r: %s" % (code, want["exit"], err.strip()[:200])
            elif want["digest"] != found:
                problem = "output digest differs from expected.json"
        elif step.check is None:
            problem = "no expected result recorded"
        elif code != 0:
            problem = "exit %r: %s" % (code, err.strip()[:200])
        else:
            with self.untraced():
                problem = step.check(json.loads(report)) if report else None
        if problem is None:
            self._seen[step.key] = found
        return Outcome(seconds, problem is None, code, detail=problem or "")

    def _op(self, key, argv, check=None) -> list:
        """A command writing a report, then verify on that report.

        Ops with a check have seed-dependent output: the check judges the
        command's report, and its verify only has to exit 0.
        """
        path = str(self.work / (key.replace("/", "_") + ".json"))
        return [
            Step(key, argv + ["--out", path], report=path, check=check),
            Step(key + "/verify", ["verify", path], is_verify=True,
               check=None if check is None else _accept),
        ]

    def record(self) -> dict:
        """Exit code and digest of every step whose output does not depend on the seed."""
        recorded = {}
        for op in self.ops():
            for step in op:
                if step.check is not None:
                    break
                seconds, code, out, err, report = self._execute(step)
                recorded[step.key] = {"exit": code, "digest": digest(code, out, err, report)}
                if code != 0:
                    break
        return recorded


class KillVerify(CliWorkload):
    name = "kill-verify"

    def prepare(self):
        from fscoloring import harness

        self.configs = {}
        for path in sorted((ROOT / "configs").glob("*.json")):
            self.configs[path.stem] = (str(path), harness.load_config(str(path)))
        for variant in DEEP_OPS:
            _path, payload = self.configs["delta3-" + variant]
            deep = json.loads(json.dumps(payload))
            deep["families"][0]["set"]["min_exponent"] = str(DEEP_MIN_EXPONENT)
            name = "deep-%s-m%d" % (variant, DEEP_MIN_EXPONENT)
            target = self.work / (name + ".json")
            harness.save_config(str(target), deep)
            self.configs[name] = (str(target), deep)
        for _path, payload in self.configs.values():
            harness.build_family(payload)

    def coloring_configs(self) -> dict:
        return {name: self.configs[name][1] for name in ("pi3-instant", "pi3-delayed", "delta3-growing")}

    def check(self) -> list:
        return coloring_checks(self.coloring_configs(), self.expected, self.seed)

    def record(self) -> dict:
        recorded = super().record()
        recorded.update(coloring_digests(self.coloring_configs()))
        return recorded

    def ops(self) -> list:
        ops = []
        for name, (path, payload) in sorted(self.configs.items()):
            catalog = payload["catalog"]
            deep = name.startswith("deep-")
            for index in (0,) if deep else range(4):
                for kind in (DEEP_OPS[name.split("-")[1]],) if deep else ("witness", "product"):
                    for mode in ("oracle",) if deep else ("oracle", "blind"):
                        key = "%s/%d/%s/%s" % (name, index, kind, mode)
                        argv = [catalog, "witness", "--index", str(index), "--config", path]
                        if kind == "product":
                            argv.append("--product")
                        if mode == "blind":
                            argv.append("--blind")
                        ops.append(self._op(key, argv))
        return ops


class ExhaustiveSmall(CliWorkload):
    name = "exhaustive-small"

    def prepare(self):
        from fscoloring import harness

        for coloring in SEARCH_COLORINGS:
            spec = {"id": coloring, "modulus": "2", "seed": "0"}
            if coloring in ("delta3", "pi3"):
                spec["config"] = harness.default_config(coloring, "instant")
            harness.build_coloring(spec)
        # The windows and request seeds are fixed: their cost varies by a
        # third from one draw to the next, which would put the seed's luck
        # into op_p50_ms.  The workload seed draws the moduli.
        windows = _rng("windows", self.name)
        moduli = _rng(self.seed, self.name, "eval")
        self.evals = []
        for s in EVAL_TOP_BITS:
            for _ in range(EVAL_WINDOWS):
                start = (1 << s) + windows.randrange(max((1 << s) - EVAL_WIDTH, 1))
                end = min(start + EVAL_WIDTH - 1, (1 << (s + 1)) - 1)
                self.evals.append((start, end, windows.randrange(1 << 20), moduli.choice((2, 3, 5, 8))))

    def ops(self) -> list:
        ops = [self._op("tree-check", list(TREE_CHECK)), self._op("extract", list(EXTRACT))]
        for coloring in SEARCH_COLORINGS:
            key = "search-mono/" + coloring
            argv = ["search-mono", "--coloring", coloring] + SEARCH_ARGS
            ops.append(self._op(key, argv, check=_accept if key in KNOWN_DEFECTS else None))
        for start, end, request_seed, modulus in self.evals:
            key = "eval/tree-random/%d-%d/seed%d/mod%d" % (start, end, request_seed, modulus)
            argv = ["eval", "--coloring", "tree-random", "--seed", str(request_seed),
                    "--modulus", str(modulus), "--start", str(start), "--end", str(end)]
            ops.append(self._op(key, argv, check=_bfs_table_check))
        return ops


def _accept(_payload):
    """Check for ops judged by their exit code alone."""
    return None


def _bfs_table_check(payload):
    """Compare an eval table of tree-random against the materialized tree.

    The first entry goes through color_mod_bfs; the rest read the same
    walk of the block tree, built once.
    """
    from fscoloring import treecolor

    spec = payload["coloring"]
    request = treecolor.random_request(int(spec["seed"]))
    modulus = int(spec["modulus"])
    values = payload["values"]
    first = int(values[0]["w"])
    counts = treecolor.signed_counts_table(treecolor.tree_edges(first.bit_length() - 1, request))
    if treecolor.color_mod_bfs(request, first, modulus) != counts[first] % modulus:
        return "color_mod_bfs and the tree walk disagree at %d" % first
    for entry in values:
        w = int(entry["w"])
        if entry["color"] != [str(counts[w] % modulus)]:
            return "eval entry %d is %s, reference tree gives %d" % (w, entry["color"], counts[w] % modulus)
    return None


# ---------------------------------------------------------------------------
# coloring checks of kill-verify


def check_vertices():
    rng = _rng("check", "colorings")
    return {
        "%s@%d" % (kind, bits): [(1 << bits) | rng.getrandbits(bits) for _ in range(CHECK_VERTICES)]
        for kind, bits in COLOR_KINDS
    }


def coloring_digests(configs) -> dict:
    """{"coloring/<kind>@<bits>": digest of the colors of its fixed check vertices}."""
    _requests, colorings = build_colorings(configs)
    return {
        "coloring/" + key: digest(*[colorings[key.split("@")[0]](w) for w in vertices])
        for key, vertices in check_vertices().items()
    }


def coloring_checks(configs, expected, seed) -> list:
    """Check the colorings of the shipped pi3 and delta3 configs; returns problem lines."""
    from fscoloring import apartness, treecolor

    problems = ["%s: check-vertex digest differs from expected.json" % key
                for key, value in sorted(coloring_digests(configs).items())
                if expected.get(key) != value]
    rng = _rng(seed, "colorings")
    requests, colorings = build_colorings(configs)
    # Increment contract c(w + R(n, w)) = c(w) + 1 (mod 2) on sampled requests.
    for kind, bits in COLOR_KINDS:
        color, request = colorings[kind], requests[kind]
        for _ in range(CONTRACT_SAMPLES):
            low = rng.randrange(1, min(bits, 10))
            w = (1 << bits) | (rng.getrandbits(bits - low - 1) << (low + 1)) | (1 << low)
            n = rng.randrange(low)
            if _first(color(w + request(n, w))) != (_first(color(w)) + 1) % 2:
                problems.append("%s@%d: contract fails at w=%d, n=%d" % (kind, bits, w, n))
    # Reference-tree cross-checks at small top bits.
    for kind in sorted(colorings):
        color, request = colorings[kind], requests[kind]
        for s in BFS_TOP_BITS:
            for _ in range(2):
                w = (1 << s) | rng.getrandbits(s)
                want = treecolor.color_mod_bfs(request, w, 2)
                got = color(w)
                if _first(got) != want or (
                        kind == "pi3-product" and got[1:] != apartness.weak_apartness_killer(w)):
                    problems.append("%s: vertex %d colored %r, reference tree gives %d"
                                    % (kind, w, got, want))
    return problems


def _first(value):
    return value[0] if isinstance(value, tuple) else value


def build_colorings(configs):
    """The checked colorings, built from public constructors.

    Returns (requests, colorings): for each coloring, the request function
    (n, w) -> R(n, w) it colors by, through the public pi3.request,
    delta3.request or the lifted tri request, sharing the coloring's engine.
    """
    from fscoloring import apartness, delta3, harness, pi3, treecolor

    families = {
        "pi3-instant": harness.build_family(configs["pi3-instant"]),
        "pi3-delayed": harness.build_family(configs["pi3-delayed"]),
        "pi3-product": harness.build_family(configs["pi3-instant"]),
        "delta3-growing": harness.build_family(configs["delta3-growing"]),
    }
    tri = treecolor.lift_tri(treecolor.random_tri_request(TRI_SEED))
    requests = {kind: functools.partial(pi3.request, families[kind])
                for kind in ("pi3-instant", "pi3-delayed", "pi3-product")}
    requests["delta3-growing"] = functools.partial(delta3.request, families["delta3-growing"])
    requests["tri"] = tri
    colorings = {
        "pi3-instant": pi3.coloring(families["pi3-instant"]),
        "pi3-delayed": pi3.coloring(families["pi3-delayed"]),
        "pi3-product": apartness.product(
            [pi3.coloring(families["pi3-product"]), apartness.weak_apartness_killer]),
        "delta3-growing": delta3.coloring(families["delta3-growing"]),
        "tri": lambda w: treecolor.color_parity(tri, w),
    }
    return requests, colorings


WORKLOADS = {cls.name: cls for cls in (KillVerify, ExhaustiveSmall)}
