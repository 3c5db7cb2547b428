"""Reproducibility surface: configs, searches, reports and re-verification.

Fixture catalogs load from JSON configuration files; every run that
claims something writes a JSON report embedding its own configuration,
and verify_report recomputes each claimed equality or inequality from
scratch.  All integers in files are encoded as decimal strings (bit
positions routinely exceed native widths) and payloads are serialized
with sorted keys, so identical configuration and seed produce
byte-identical reports.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Callable, Optional

from . import apartness, delta3, pi3
from .dyadic import finite_sums, has_apartness, low_bit
from .errors import FixtureError, GuardError, Guards, VerificationError, WitnessSearchError
from .families import (  # default_config is re-exported for callers of harness
    Delta3Family, MonotoneFamily, build_family, default_config, validate_family,
)
from .treecolor import (
    color_mod, default_request, popcount_coloring, random_request, tree_coloring, tree_edges,
)


# ---------------------------------------------------------------------------
# Fixture configuration


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_config(path, payload) -> None:
    write_report(path, payload)


# ---------------------------------------------------------------------------
# Colorings


def build_coloring(spec: dict, guards: Guards = Guards()):
    """Realize a serializable coloring description as a callable.

    Returns (color, arity); color maps a positive integer to an int or a
    tuple of ints.
    """
    kind = spec["id"]
    if kind == "popcount":
        return popcount_coloring, 1
    if kind in ("tree-default", "tree-random"):
        if kind == "tree-default":
            request = default_request()
        else:
            request = random_request(int(spec.get("seed", "0")))
        return tree_coloring(request, int(spec.get("modulus", "2"))), 1
    if kind == "killer":
        return apartness.weak_apartness_killer, 2
    if kind in ("delta3", "delta3-product", "pi3", "pi3-product"):
        catalog, _, product = kind.partition("-")
        family = _catalog_family(spec["config"], catalog)
        return _construction_coloring(family, guards, product=bool(product)), 3 if product else 1
    raise FixtureError("unknown coloring id %r" % (kind,))


def _construction_coloring(family, guards: Guards, *, product: bool = False):
    """The family's construction coloring, alone or in product with the
    pair coloring."""
    if isinstance(family, Delta3Family):
        base = delta3.coloring(family, max_exponent=guards.block_exponent)
    else:
        base = pi3.coloring(family)
    if product:
        return apartness.product([base, apartness.weak_apartness_killer])
    return base


def color_tuple(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


# ---------------------------------------------------------------------------
# Exhaustive monochromatic search


@dataclass
class SearchResult:
    coloring_spec: dict
    max_terms: Optional[int]
    bound: int
    size: int
    found: Optional[tuple]
    colors: dict = field(default_factory=dict)

    @property
    def exhausted(self) -> bool:
        return self.found is None


def search_mono(color: Callable, max_terms: Optional[int], bound: int, size: int,
                *, subset_filter=None, coloring_spec=None,
                max_combinations: int = Guards.search_combinations) -> SearchResult:
    """First size-element subset of [1, bound] with monochromatic sums.

    Enumerates subsets in lexicographic order, pruning any partial set
    whose bounded-term subset sums already carry two colors.  max_terms
    of None means sums of any number of terms.  Exhaustion is reported
    as a result, never silently.  color is memoized for the duration of
    the call.
    """
    if size < 2:
        raise ValueError("size must be at least 2")
    total = comb(bound, size)
    if total > max_combinations:
        raise GuardError("search_combinations", max_combinations, total)
    color = lru_cache(maxsize=None)(color)
    limit = size if max_terms is None else min(max_terms, size)
    found = None

    def dfs(chosen, sums_by_terms, anchor, start):
        nonlocal found
        if found is not None:
            return
        if len(chosen) == size:
            if subset_filter is None or subset_filter(tuple(chosen)):
                found = tuple(chosen)
            return
        for x in range(start, bound + 1):
            if found is not None:
                return
            a = color(x) if anchor is None else anchor
            if color(x) != a:
                continue
            new_sums = {1: [x]}
            ok = True
            for terms in range(2, limit + 1):
                fresh = []
                for value in sums_by_terms.get(terms - 1, ()):
                    candidate = value + x
                    if color(candidate) != a:
                        ok = False
                        break
                    fresh.append(candidate)
                if not ok:
                    break
                if fresh:
                    new_sums[terms] = fresh
            if not ok:
                continue
            merged = {
                terms: list(sums_by_terms.get(terms, ())) + new_sums.get(terms, [])
                for terms in range(1, limit + 1)
            }
            dfs(chosen + [x], merged, a, x + 1)

    dfs([], {}, None, 1)
    colors = {}
    if found is not None:
        colors = {s: color_tuple(color(s)) for s in finite_sums(found, limit)}
        if len(set(colors.values())) != 1:
            raise VerificationError("search returned a non-monochromatic set %r" % (found,))
    return SearchResult(
        coloring_spec=coloring_spec or {}, max_terms=max_terms,
        bound=bound, size=size, found=found, colors=colors,
    )


# ---------------------------------------------------------------------------
# Reports


def write_report(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_report(payload))


def render_report(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _enc(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_enc(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _enc(v) for k, v in value.items()}
    if value is None:
        return None
    return str(value)


def delta3_report(config: dict, witness: delta3.Delta3Witness) -> dict:
    terms = sorted((witness.x, witness.w1, witness.w2))
    return {
        "report": "delta3-witness",
        "claim": (
            "three pairwise-apart members x << w1 << w2 of the fixture whose sums "
            "w1+w2 and x+w1+w2 receive different colors"
        ),
        "config": config,
        "index": str(witness.index),
        "mode": witness.mode,
        "x": str(witness.x),
        "w1": str(witness.w1),
        "w2": str(witness.w2),
        "sum": str(witness.sum),
        "sum_with_x": str(witness.sum_with_x),
        "color_sum": str(witness.color_sum),
        "color_sum_with_x": str(witness.color_sum_with_x),
        "certificates": {
            "sum": [str(witness.w1), str(witness.w2)],
            "sum_with_x": [str(t) for t in terms],
        },
        "bookkeeping": _enc(witness.bookkeeping),
    }


def pi3_report(config: dict, witness: pi3.Pi3Witness) -> dict:
    start = witness.sums.index(witness.w)
    w_terms = witness.chain[start:]
    return {
        "report": "pi3-witness",
        "claim": (
            "a sum w of fixture members whose request value is the fixture's own "
            "block member x, so w and w+x receive different colors"
        ),
        "config": config,
        "index": str(witness.index),
        "mode": witness.mode,
        "block_exponent": str(witness.block_exponent),
        "x": str(witness.x),
        "w": str(witness.w),
        "color_w": str(witness.color_w),
        "color_w_plus_x": str(witness.color_w_plus_x),
        "chain": [str(x) for x in witness.chain],
        "sums": [str(w) for w in witness.sums],
        "requests": [str(r) for r in witness.requests],
        "certificates": {
            "w": [str(t) for t in w_terms],
            "w_plus_x": [str(t) for t in sorted((witness.x,) + w_terms)],
        },
        "bookkeeping": _enc(witness.bookkeeping),
    }


# catalog: (family type, certificate keys of the two sums a product kill
# compares, taken from the construction's witness report)
_CONSTRUCTIONS = {
    "delta3": (Delta3Family, ("sum", "sum_with_x")),
    "pi3": (MonotoneFamily, ("w", "w_plus_x")),
}


def _catalog_family(config: dict, catalog: str):
    family = build_family(config)
    if not isinstance(family, _CONSTRUCTIONS[catalog][0]):
        raise FixtureError("%s runs need a %s catalog" % (catalog, catalog))
    return family


def _check_family(family) -> None:
    report = validate_family(family)
    if not report.ok:
        raise FixtureError("fixture validation failed:\n%s" % report)


def _witness_report(config: dict, family, index: int, mode: str, guards: Guards) -> dict:
    """Find, verify and report the construction's witness against a fixture."""
    if isinstance(family, Delta3Family):
        witness = delta3.find_witness(
            family, index, mode=mode, bound=guards.blind_bound,
            horizon=guards.horizon, max_exponent=guards.block_exponent,
        )
        return delta3_report(config, witness)
    witness = pi3.find_witness(
        family, index, mode=mode,
        max_request_exponent=guards.request_exponent,
        chain_bits=guards.chain_bits, horizon=guards.horizon,
    )
    return pi3_report(config, witness)


def _written(payload: dict, out: Optional[str]) -> dict:
    if out:
        write_report(out, payload)
    return payload


def run_delta3(config: dict, index: int, *, mode: str = "oracle",
               guards: Guards = Guards(), out: Optional[str] = None) -> dict:
    return _run_witness("delta3", config, index, mode, guards, out)


def run_pi3(config: dict, index: int, *, mode: str = "oracle",
            guards: Guards = Guards(), out: Optional[str] = None) -> dict:
    return _run_witness("pi3", config, index, mode, guards, out)


def _run_witness(catalog, config, index, mode, guards, out) -> dict:
    family = _catalog_family(config, catalog)
    _check_family(family)
    return _written(_witness_report(config, family, index, mode, guards), out)


def run_product_kill(config: dict, index: int, *, mode: str = "oracle",
                     guards: Guards = Guards(), out: Optional[str] = None) -> dict:
    """Kill a fixture under the product of construction and pair colorings.

    Weakly apart fixtures are killed through the construction component;
    fixtures failing weak apartness through the bit-parity components.
    """
    family = build_family(config)
    _check_family(family)
    ok, certificate = family.weak_apart_on(index, guards.horizon)
    if ok:
        branch = "construction"
        embedded = _witness_report(config, family, index, mode, guards)
        u_key, v_key = _CONSTRUCTIONS[config["catalog"]][1]
        u_terms = [int(t) for t in embedded["certificates"][u_key]]
        v_terms = [int(t) for t in embedded["certificates"][v_key]]
        u, v = sum(u_terms), sum(v_terms)
    else:
        branch = "killer"
        embedded = None
        u, v, u_terms, v_terms = _killer_kill(certificate)
    prod = _construction_coloring(family, guards, product=True)
    cu, cv = prod(u), prod(v)
    if cu == cv:
        raise VerificationError("product colors of %d and %d agree" % (u, v))
    payload = {
        "report": "product-kill",
        "claim": "two finite sums of the fixture with different product colors",
        "config": config,
        "index": str(index),
        "branch": branch,
        "u": str(u),
        "v": str(v),
        "color_u": [str(c) for c in cu],
        "color_v": [str(c) for c in cv],
        "certificates": {"u": [str(t) for t in u_terms], "v": [str(t) for t in v_terms]},
    }
    if embedded is not None:
        payload["witness"] = embedded
    return _written(payload, out)


def _killer_kill(certificate):
    if len(certificate) == 2:
        x1, x2 = certificate
        return x1, x1 + x2, [x1], [x1, x2]
    x1, x2, x3 = certificate
    l = low_bit(x1)
    for a, b in ((x1, x2), (x1, x3), (x2, x3)):
        if (a - b) % (1 << (l + 2)) == 0:
            return x1, a + b, [x1], sorted((a, b))
    raise VerificationError(
        "no pair of %r shares a residue two bits above the common low bit" % (certificate,)
    )


def run_extraction(stream_spec: dict, count: int, *, out: Optional[str] = None) -> dict:
    outputs = []
    stream = build_stream(stream_spec)
    for certificate in apartness.extract_apart(stream):
        outputs.append(certificate)
        if len(outputs) == count:
            break
    payload = {
        "report": "extraction",
        "claim": (
            "an apart subsequence whose elements are sums of disjoint blocks of "
            "the input stream"
        ),
        "stream": stream_spec,
        "count": str(count),
        "outputs": [
            {
                "value": str(c.value),
                "block": [str(b) for b in c.block],
                "first_index": str(c.first_index),
            }
            for c in outputs
        ],
    }
    return _written(payload, out)


def build_stream(spec: dict):
    kind = spec.get("kind", "naturals")
    if kind == "naturals":
        return itertools.count(1)
    if kind == "arithmetic":
        start, step = int(spec.get("start", "1")), int(spec.get("step", "1"))
        if start < 1 or step < 1:
            raise FixtureError("arithmetic streams need positive start and step")
        return itertools.count(start, step)
    if kind == "explicit":
        return iter([int(x) for x in spec["elements"]])
    raise FixtureError("unknown stream kind %r" % (kind,))


def eval_table(coloring_spec: dict, start: int, end: int, *,
               guards: Guards = Guards(), out: Optional[str] = None) -> dict:
    color, arity = build_coloring(coloring_spec, guards)
    payload = {
        "report": "eval-table",
        "coloring": coloring_spec,
        "arity": str(arity),
        "start": str(start),
        "end": str(end),
        "values": [
            {"w": str(w), "color": [str(c) for c in color_tuple(color(w))]}
            for w in range(start, end + 1)
        ],
    }
    return _written(payload, out)


def search_report(coloring_spec: dict, max_terms, bound, size, *,
                  guards: Guards = Guards(), out: Optional[str] = None) -> dict:
    color, _arity = build_coloring(coloring_spec, guards)
    result = search_mono(
        color, max_terms, bound, size, coloring_spec=coloring_spec,
        max_combinations=guards.search_combinations,
    )
    payload = {
        "report": "search-mono",
        "claim": "outcome of an exhaustive bounded monochromatic-set search",
        "coloring": coloring_spec,
        "max_terms": "unbounded" if max_terms is None else str(max_terms),
        "bound": str(bound),
        "size": str(size),
        "outcome": "exhausted" if result.exhausted else "found",
    }
    if result.found is not None:
        payload["found"] = [str(x) for x in result.found]
        payload["colors"] = {
            str(s): [str(c) for c in value] for s, value in sorted(result.colors.items())
        }
    return _written(payload, out)


def tree_check_report(max_exponent: int, functions: int, seed: int, moduli,
                      *, contract: bool = True, guards: Guards = Guards(),
                      out: Optional[str] = None) -> dict:
    """Validate tree structure (and optionally the increment contract) for
    seeded random request functions on every block up to max_exponent."""
    results = []
    for s in range(1, max_exponent + 1):
        edge_failures = 0
        contract_failures = 0
        for j in range(functions):
            request = random_request(seed + j)
            tree = tree_edges(s, request, max_exponent=guards.tree_exponent)
            if tree.problems():
                edge_failures += 1
        if contract:
            request = random_request(seed)
            for w in range(1 << s, 1 << (s + 1)):
                for n in range(low_bit(w)):
                    target = w + request(n, w)
                    for modulus in moduli:
                        expected = (color_mod(request, w, modulus) + 1) % modulus
                        if color_mod(request, target, modulus) != expected:
                            contract_failures += 1
        results.append(
            {
                "exponent": str(s),
                "edge_failures": str(edge_failures),
                "contract_failures": str(contract_failures),
            }
        )
    payload = {
        "report": "tree-check",
        "claim": "request trees are spanning trees and colorings step by one per request",
        "max_exponent": str(max_exponent),
        "functions": str(functions),
        "seed": str(seed),
        "moduli": [str(m) for m in moduli],
        "contract": contract,
        "results": results,
        "ok": all(
            r["edge_failures"] == "0" and r["contract_failures"] == "0" for r in results
        ),
    }
    return _written(payload, out)


# ---------------------------------------------------------------------------
# Verification of report files


def verify_report(payload: dict, guards: Guards = Guards()):
    """Recompute every claim in a report; returns (ok, detail lines)."""
    kind = payload.get("report")
    verifier = {
        "delta3-witness": _verify_delta3,
        "pi3-witness": _verify_pi3,
        "product-kill": _verify_product_kill,
        **dict.fromkeys(_RERUNS, _verify_rerun),
    }.get(kind)
    if verifier is None:
        return False, ["unknown report kind %r" % (kind,)]
    try:
        details = verifier(payload, guards)
    except (VerificationError, FixtureError, WitnessSearchError, GuardError,
            KeyError, ValueError) as failure:
        return False, ["verification failed: %s" % failure]
    return True, details


def _report_family(payload, family_type):
    family = build_family(payload["config"])
    if not isinstance(family, family_type):
        raise VerificationError("report kind does not match the embedded catalog")
    return family


def _verify_delta3(payload, guards):
    family = _report_family(payload, Delta3Family)
    witness = delta3.Delta3Witness(
        index=int(payload["index"]),
        x=int(payload["x"]), w1=int(payload["w1"]), w2=int(payload["w2"]),
        color_sum=int(payload["color_sum"]),
        color_sum_with_x=int(payload["color_sum_with_x"]),
        mode=payload["mode"],
    )
    if witness.sum != int(payload["sum"]) or witness.sum_with_x != int(payload["sum_with_x"]):
        raise VerificationError("claimed sums are inconsistent with x, w1, w2")
    _check_certificate(family, witness.index, payload["certificates"]["sum"], witness.sum)
    _check_certificate(
        family, witness.index, payload["certificates"]["sum_with_x"], witness.sum_with_x
    )
    delta3.verify_witness(family, witness, max_exponent=guards.block_exponent)
    return ["witness (%d, %d, %d) re-verified" % (witness.x, witness.w1, witness.w2)]


def _verify_pi3(payload, guards):
    family = _report_family(payload, MonotoneFamily)
    witness = pi3.Pi3Witness(
        index=int(payload["index"]),
        block_exponent=int(payload["block_exponent"]),
        x=int(payload["x"]), w=int(payload["w"]),
        color_w=int(payload["color_w"]),
        color_w_plus_x=int(payload["color_w_plus_x"]),
        chain=tuple(int(x) for x in payload["chain"]),
        sums=tuple(int(x) for x in payload["sums"]),
        requests=tuple(int(x) for x in payload["requests"]),
        mode=payload["mode"],
    )
    _check_certificate(family, witness.index, payload["certificates"]["w"], witness.w)
    _check_certificate(
        family, witness.index, payload["certificates"]["w_plus_x"], witness.w + witness.x
    )
    pi3.verify_witness(family, witness)
    return ["witness (n=%d, x=%d, w=%d) re-verified" % (witness.block_exponent, witness.x, witness.w)]


def _check_certificate(family, index, terms, total) -> None:
    values = [int(t) for t in terms]
    if sum(values) != total:
        raise VerificationError("certificate terms sum to %d, not %d" % (sum(values), total))
    if len(set(values)) != len(values):
        raise VerificationError("certificate terms repeat")
    for value in values:
        if family.has_truth and not family.truth(index, value):
            raise VerificationError("certificate term %d outside fixture %d" % (value, index))


def _verify_product_kill(payload, guards):
    family = build_family(payload["config"])
    index = int(payload["index"])
    u, v = int(payload["u"]), int(payload["v"])
    prod = _construction_coloring(family, guards, product=True)
    cu, cv = prod(u), prod(v)
    if [str(c) for c in cu] != payload["color_u"] or [str(c) for c in cv] != payload["color_v"]:
        raise VerificationError("recomputed product colors differ from report")
    if cu == cv:
        raise VerificationError("product colors agree")
    _check_certificate(family, index, payload["certificates"]["u"], u)
    _check_certificate(family, index, payload["certificates"]["v"], v)
    details = ["product kill of fixture %d via %s branch re-verified" % (index, payload["branch"])]
    if "witness" in payload:
        ok, inner = verify_report(payload["witness"], guards)
        if not ok:
            raise VerificationError("embedded witness failed: %s" % "; ".join(inner))
        details += inner
    return details


def _verify_rerun(payload, guards):
    """Re-run a report from its own inputs and compare the results."""
    rerun, keys, mismatch, detail = _RERUNS[payload["report"]]
    recomputed = rerun(payload, guards)
    for key in keys:
        if recomputed.get(key) != payload.get(key):
            raise VerificationError(mismatch % {"key": key})
    return [detail(payload)]


def _rerun_search(payload, guards):
    spec = payload["coloring"]
    max_terms = None if payload["max_terms"] == "unbounded" else int(payload["max_terms"])
    return search_report(spec, max_terms, int(payload["bound"]), int(payload["size"]),
                         guards=guards)


def _extraction_detail(payload):
    """Extraction's own checks after its re-run: apart outputs, each the sum
    of its block, blocks disjoint."""
    values = [int(entry["value"]) for entry in payload["outputs"]]
    if not has_apartness(values):
        raise VerificationError("outputs are not pairwise apart")
    previous_end = -1
    for entry in payload["outputs"]:
        block = [int(b) for b in entry["block"]]
        first = int(entry["first_index"])
        if sum(block) != int(entry["value"]):
            raise VerificationError("block does not sum to its output value")
        if first <= previous_end:
            raise VerificationError("blocks overlap")
        previous_end = first + len(block) - 1
    return "%d extraction outputs re-verified" % len(values)


# Reports verified by re-running them.  kind: (re-run from the report's
# inputs, keys the re-run must reproduce, mismatch message, detail line).
_RERUNS = {
    "extraction": (
        lambda p, guards: run_extraction(p["stream"], int(p["count"])),
        ("outputs",), "re-running the extraction produced different outputs",
        _extraction_detail,
    ),
    "search-mono": (
        _rerun_search, ("outcome", "found", "colors"), "recomputed search %(key)s differs",
        lambda p: "search outcome %r re-verified" % p["outcome"],
    ),
    "eval-table": (
        lambda p, guards: eval_table(p["coloring"], int(p["start"]), int(p["end"]), guards=guards),
        ("values",), "recomputed table differs",
        lambda p: "%d table entries re-verified" % len(p["values"]),
    ),
    "tree-check": (
        lambda p, guards: tree_check_report(
            int(p["max_exponent"]), int(p["functions"]), int(p["seed"]),
            [int(m) for m in p["moduli"]], contract=p["contract"], guards=guards,
        ),
        ("results", "ok"), "recomputed tree check differs",
        lambda p: "tree check re-verified (ok=%s)" % p["ok"],
    ),
}
