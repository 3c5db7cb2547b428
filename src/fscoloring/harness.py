"""Reproducibility surface: configs, searches, reports and re-verification.

Every run that claims something writes a JSON report embedding its own
inputs, and verify_report recomputes each claim from that file alone.
The witness dataclass is the one schema of a witness report:
_witness_payload writes its fields, derived sums and certificates, and
_verify_witness reads each field back by its annotation.  _CONSTRUCTIONS
names each construction's family type, witness type, claim and derived
sums.  Integers in files are decimal strings (bit positions routinely
exceed native widths) and payloads are serialized with sorted keys, so
identical inputs produce byte-identical reports.  render_report gives
exactly json.dumps(payload, indent=2, sort_keys=True) plus a line break,
in one pass, and write_report overwrites a report file in place;
load_report reads reports and configs alike.
"""

from __future__ import annotations

import itertools
import json
import os
import stat
from dataclasses import dataclass, field, fields
from functools import lru_cache, reduce
from json.encoder import encode_basestring_ascii as _quote
from math import comb
from operator import or_
from typing import Callable, Optional

from . import apartness, delta3, pi3
from .dyadic import finite_sums, has_apartness, low_bit
from .errors import FixtureError, GuardError, Guards, VerificationError, WitnessSearchError
from .families import (  # default_config is re-exported for callers of harness
    Delta3Family, MonotoneFamily, _decimal, _decimals, build_family, default_config,
)
from .treecolor import (
    TreeColoring, default_request, popcount_coloring, random_request, signed_counts, tree_edges,
)


# ---------------------------------------------------------------------------
# Fixture configuration


def load_config(path) -> dict:
    return load_report(path)


def save_config(path, payload) -> None:
    write_report(path, payload)


# ---------------------------------------------------------------------------
# Colorings


def build_coloring(spec: dict):
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
            request = random_request(_decimal(spec.get("seed", "0"), "coloring.seed"))
        return TreeColoring(request, _decimal(spec.get("modulus", "2"), "coloring.modulus")), 1
    if kind == "killer":
        return apartness.weak_apartness_killer, 2
    if kind in ("delta3", "delta3-product", "pi3", "pi3-product"):
        catalog, _, product = kind.partition("-")
        coloring = _construction_coloring(_catalog_family(spec["config"], catalog),
                                          Guards.chain_bits)
        return (_with_pair_coloring(coloring), 3) if product else (coloring, 1)
    raise FixtureError("unknown coloring id %r" % (kind,))


def _construction_coloring(family, chain_bits: int):
    """The family's construction coloring; pi3 colorings serve requests up
    to chain_bits."""
    if isinstance(family, Delta3Family):
        return delta3.coloring(family)
    return pi3.coloring(family, chain_bits)


def _with_pair_coloring(base):
    """The product of a construction coloring and the pair coloring."""
    return apartness.product([base, apartness.weak_apartness_killer])


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
    whose bounded-term subset sums already carry two colors or that too
    few values remain to complete.  So every node visited is a prefix of
    a size-subset, and the guard on comb(bound, size) bounds the work.
    A node reads all of its admissible next values at once from bitsets:
    the values of the anchor's color, shifted down by each sum of fewer
    than max_terms chosen values.  Before that it colors every value up
    to the largest sum the node can reach, so values the pruning never
    looks at may be colored too.  max_terms of None means sums of any
    number of terms.  Exhaustion is reported as a result, never silently.
    color is memoized for the duration of the call.
    """
    if size < 2:
        raise ValueError("size must be at least 2")
    if max_terms is not None and max_terms < 1:
        raise ValueError("max_terms must be at least 1, got %r" % (max_terms,))
    total = comb(bound, size)
    if total > max_combinations:
        raise GuardError("search_combinations", max_combinations, total)
    color = lru_cache(maxsize=None)(color)
    limit = size if max_terms is None else min(max_terms, size)
    same = {}  # color -> bitset of the values 1..colored of that color
    colored = 0
    found = None

    def grow(sums, x):
        # sums[t] is the bitset of the sums of t chosen values, t < limit
        return [1] + [sums[t] | sums[t - 1] << x for t in range(1, limit)]

    def dfs(chosen, sums, anchor):
        nonlocal colored, found
        start, stop = chosen[-1] + 1, bound + len(chosen) - size + 2
        shifts = reduce(or_, sums)
        top = shifts.bit_length() + stop - 2  # the largest sum this node reaches
        for v in range(colored + 1, top + 1):
            c = color(v)
            same[c] = same.get(c, 0) | 1 << v
        colored = max(colored, top)
        allowed, bits = (1 << stop) - (1 << start), same[anchor]
        while shifts:  # bit 0 of shifts keeps the values of the anchor's color
            low = shifts & -shifts
            allowed &= bits >> low.bit_length() - 1
            shifts ^= low
        while allowed and found is None:
            low = allowed & -allowed
            allowed ^= low
            x = low.bit_length() - 1
            if len(chosen) + 1 < size:
                dfs(chosen + [x], grow(sums, x), anchor)
            elif subset_filter is None or subset_filter((*chosen, x)):
                found = (*chosen, x)

    for x in range(1, bound - size + 2):
        if found is not None:
            break
        dfs([x], grow([1] + [0] * (limit - 1), x), color(x))
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
    """Write a report over path in place, then cut any old tail.

    The file is opened without O_TRUNC: on ext4 mounted with discard,
    truncating a just-written file to zero before writing it again cost
    a median of 140 us per 3 KB report, and rewriting it in place 25 us.
    Only regular files are cut, so /dev/null and pipes take a report as
    before.
    """
    with open(path, "w", encoding="utf-8", opener=_open_in_place) as handle:
        handle.write(render_report(payload))
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()


def _open_in_place(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def render_report(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", byte for byte,
    built in one pass (json.dumps runs in pure Python whenever indent is
    set)."""
    out = []
    _render(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(value, newline: str, out: list) -> None:
    """Append value to out as json.dumps(value, indent=2, sort_keys=True)
    renders it, each line break followed by newline's indent.  Lists and
    dicts with str keys are walked here, a str item written in place; any
    other dict goes through json.dumps and is re-indented (its strings hold
    no raw line break), and a scalar through json.dumps without indent."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        opener = "["
        for item in value:
            out.append(opener + inner)
            if type(item) is str:
                out.append(_quote(item))
            else:
                _render(item, inner, out)
            opener = ","
        out.append(newline + "]")
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        opener = "{"
        for key in sorted(value):
            out.append(opener + inner + _quote(key) + ": ")
            if type(value[key]) is str:
                out.append(_quote(value[key]))
            else:
                _render(value[key], inner, out)
            opener = ","
        out.append(newline + "}")
    elif isinstance(value, dict):
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))
    else:
        out.append(json.dumps(value))


def load_report(path) -> dict:
    """The JSON value in a report or config file; a file nested deeper
    than the JSON reader can follow is a FixtureError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except RecursionError:
            raise FixtureError("%s nests JSON values too deeply to read" % path) from None


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


# catalog: (family type, witness type, claim, properties of the witness a
# report carries beside its fields).  A witness report holds every field of
# the witness dataclass, those properties and the witness's certificates.
_CONSTRUCTIONS = {
    "delta3": (Delta3Family, delta3.Delta3Witness, (
        "three pairwise-apart members x << w1 << w2 of the fixture whose sums "
        "w1+w2 and x+w1+w2 receive different colors"), ("sum", "sum_with_x")),
    "pi3": (MonotoneFamily, pi3.Pi3Witness, (
        "a sum w of fixture members whose request value is the fixture's own "
        "block member x, so w and w+x receive different colors"), ()),
}


def _catalog_family(config: dict, catalog: str):
    family = build_family(config)
    if not isinstance(family, _CONSTRUCTIONS[catalog][0]):
        raise FixtureError("the config's catalog does not match the %s construction" % catalog)
    return family


def _check_family(family, index: int) -> None:
    """Reject an index outside the catalog; build_family has already
    checked the rest of the config exactly."""
    if not (0 <= index < family.count):
        raise FixtureError(
            "fixture index %d is outside the catalog [0, %d)" % (index, family.count)
        )


def _find_witness(family, index: int, mode: str, guards: Guards):
    """Find and verify the construction's witness against a fixture; returns
    the witness and the coloring its verify built, which no search shared."""
    if isinstance(family, Delta3Family):
        return delta3._find_verified(family, index, mode, guards.blind_bound, guards.horizon)
    return pi3._find_verified(family, index, mode, guards.request_exponent, guards.chain_bits,
                              guards.horizon)


def _witness_payload(catalog: str, config: dict, witness) -> dict:
    """The report of a witness: its fields, its derived sums and its
    certificates, beside the config it kills a fixture of."""
    _family_type, _witness_type, claim, derived = _CONSTRUCTIONS[catalog]
    payload = {f.name: _enc(getattr(witness, f.name)) for f in fields(witness)}
    payload.update({key: _enc(getattr(witness, key)) for key in derived})
    payload.update(report=catalog + "-witness", claim=claim, config=config,
                   certificates=_enc(witness.certificates()))
    return payload


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
    _check_family(family, index)
    witness, _coloring = _find_witness(family, index, mode, guards)
    return _written(_witness_payload(catalog, config, witness), out)


def run_product_kill(config: dict, index: int, *, mode: str = "oracle",
                     guards: Guards = Guards(), out: Optional[str] = None) -> dict:
    """Kill a fixture under the product of construction and pair colorings.

    Weakly apart fixtures are killed through the construction component,
    which is the coloring the witness's verify built; fixtures failing
    weak apartness through the bit-parity components, beside a
    construction coloring of their own.
    """
    family = build_family(config)
    _check_family(family, index)
    ok, certificate = family.weak_apart_on(index, guards.horizon)
    if ok:
        witness, base = _find_witness(family, index, mode, guards)
        u_terms, v_terms = witness.certificates().values()
    else:
        u_terms, v_terms = _killer_terms(certificate)
        base = _construction_coloring(family, guards.chain_bits)
    u, v = sum(u_terms), sum(v_terms)
    prod = _with_pair_coloring(base)
    cu, cv = prod(u), prod(v)
    if cu == cv:
        raise VerificationError("product colors of %d and %d agree" % (u, v))
    payload = {
        "report": "product-kill",
        "claim": "two finite sums of the fixture with different product colors",
        "config": config,
        "index": str(index),
        "branch": "construction" if ok else "killer",
        "u": str(u),
        "v": str(v),
        "color_u": [str(c) for c in cu],
        "color_v": [str(c) for c in cv],
        "certificates": {"u": [str(t) for t in u_terms], "v": [str(t) for t in v_terms]},
    }
    if ok:
        payload["witness"] = _witness_payload(config["catalog"], config, witness)
    return _written(payload, out)


def _killer_terms(certificate):
    """The terms of two finite sums that the pair coloring separates, from a
    certificate that the fixture is not weakly apart."""
    if len(certificate) == 2:
        x1, x2 = certificate
        return [x1], [x1, x2]
    x1, x2, x3 = certificate
    l = low_bit(x1)
    for a, b in ((x1, x2), (x1, x3), (x2, x3)):
        if (a - b) % (1 << (l + 2)) == 0:
            return [x1], sorted((a, b))
    raise VerificationError(
        "no pair of %r shares a residue two bits above the common low bit" % (certificate,)
    )


def run_extraction(stream_spec: dict, count: int, *, guards: Guards = Guards(),
                   out: Optional[str] = None) -> dict:
    if count < 0:
        raise FixtureError("the extraction count must be nonnegative, got %d" % count)
    progression = _progression(stream_spec)
    if progression is None:
        elements = iter([_stream_int(x, "stream.elements[%d]" % j)
                         for j, x in enumerate(stream_spec["elements"])])
        certificates = apartness.extract_apart(elements, guards.extract_bits)
    else:
        certificates = apartness.extract_progression(*progression, guards.extract_bits)
    outputs = list(itertools.islice(certificates, count))
    if len(outputs) < count:
        raise FixtureError(
            "the stream ended after %d of %d extraction outputs" % (len(outputs), count)
        )
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


def _extraction_inputs(payload) -> tuple:
    """(stream spec, count) of an extraction report, checked for the shapes
    run_extraction reads."""
    stream, count = payload["stream"], payload["count"]
    if not isinstance(stream, dict):
        raise VerificationError("the extraction stream must be an object")
    scalars = [value for key, value in stream.items() if key != "elements"]
    if stream.get("kind") == "explicit":
        if not isinstance(stream.get("elements"), list):
            raise VerificationError("explicit stream elements must be a list")
        scalars += stream["elements"]
    if not all(type(value) in (str, int) for value in scalars):  # a bool is no integer
        raise VerificationError("stream fields must be strings or integers")
    return stream, _decimal(count, "count")  # run_extraction refuses a negative count


def _progression(spec: dict) -> Optional[tuple]:
    """(start, step) of a naturals or arithmetic stream spec; None for an
    explicit one."""
    kind = spec.get("kind", "naturals")
    if kind == "naturals":
        return 1, 1
    if kind == "arithmetic":
        start, step = (_stream_int(spec.get(k, "1"), "stream." + k) for k in ("start", "step"))
        if start < 1 or step < 1:
            raise FixtureError("arithmetic streams need positive start and step")
        return start, step
    if kind == "explicit":
        return None
    raise FixtureError("unknown stream kind %r" % (kind,))


def _stream_int(value, name: str) -> int:
    """A stream field: a JSON integer (not a boolean) or a decimal string."""
    return value if type(value) is int else _decimal(value, name)


def eval_table(coloring_spec: dict, start: int, end: int, *,
               out: Optional[str] = None) -> dict:
    color, arity = build_coloring(coloring_spec)
    ws = range(start, end + 1)
    colors = color.table(ws) if isinstance(color, TreeColoring) else map(color, ws)
    payload = {
        "report": "eval-table",
        "coloring": coloring_spec,
        "arity": str(arity),
        "start": str(start),
        "end": str(end),
        "values": [
            {"w": str(w), "color": [str(c) for c in color_tuple(value)]}
            for w, value in zip(ws, colors)
        ],
    }
    return _written(payload, out)


def search_report(coloring_spec: dict, max_terms, bound, size, *,
                  guards: Guards = Guards(), out: Optional[str] = None) -> dict:
    color, _arity = build_coloring(coloring_spec)
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
    seeded random request functions on every block up to max_exponent.
    The contract is checked on the edges of function 0's tree, so each
    edge is requested once, plus one evaluation per bridge for the counts.
    Inputs that would check nothing are refused before any tree is built."""
    if max_exponent < 1:
        raise ValueError("max_exponent must be at least 1, got %r" % (max_exponent,))
    if functions < 1:
        raise ValueError("functions must be at least 1, got %r" % (functions,))
    if contract and not moduli:
        raise ValueError("moduli must name at least one modulus when the contract is checked")
    if max_exponent > guards.tree_exponent:
        raise GuardError("tree_exponent", guards.tree_exponent, max_exponent)
    results = []
    for s in range(1, max_exponent + 1):
        contract_failures = 0
        request = random_request(seed)
        tree = tree_edges(s, request, max_exponent=guards.tree_exponent)
        edge_failures = bool(tree.problems()) + sum(
            1 for j in range(1, functions)
            if tree_edges(s, random_request(seed + j), max_exponent=guards.tree_exponent).problems()
        )
        if contract:
            # every request edge steps the signed count by one; function 0
            # is the contract's request, so its tree holds those edges
            counts = signed_counts(request, tree.vertices())
            steps = [counts[b] - counts[a] for a, b, _n in tree.edges]
            for modulus in moduli:
                if modulus < 2:
                    raise ValueError("modulus must be at least 2, got %r" % (modulus,))
                contract_failures += sum(1 for step in steps if (step - 1) % modulus)
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


# What a verifier raises for a claim that fails or a field it cannot read.
_FAILURES = (VerificationError, FixtureError, WitnessSearchError, GuardError, KeyError, ValueError)


def verify_report(payload: dict, guards: Guards = Guards()):
    """Recompute every claim in a report; returns (ok, detail lines)."""
    kind = payload.get("report") if isinstance(payload, dict) else None
    if not isinstance(kind, str):
        return False, ["verification failed: a report is an object with a string kind"]
    verifier = {
        **{catalog + "-witness": lambda p, g: _verify_witness(p, g)[0]
           for catalog in _CONSTRUCTIONS},
        "product-kill": _verify_product_kill,
        **dict.fromkeys(_RERUNS, _verify_rerun),
    }.get(kind)
    if verifier is None:
        return False, ["unknown report kind %r" % (kind,)]
    try:
        details = verifier(payload, guards)
    except _FAILURES as failure:
        return False, ["verification failed: %s" % failure]
    return True, details


def _object(value, name: str) -> dict:
    """A JSON object field of a report."""
    if not isinstance(value, dict):
        raise VerificationError("field %s is not a JSON object: %.40r" % (name, value))
    return value


def _boolean(value, name: str) -> bool:
    """A JSON boolean field of a report (1 and 0 are not booleans)."""
    if type(value) is not bool:
        raise VerificationError("field %s is not a JSON boolean: %.40r" % (name, value))
    return value


def _mode(value, name: str) -> str:
    if value not in ("oracle", "blind"):
        raise VerificationError("field %s is not 'oracle' or 'blind': %.40r" % (name, value))
    return value


# Readers of witness fields by annotation; mode is a witness's one str
# field, and bookkeeping, its one dict, is never read.
_FIELD_READERS = {"int": _decimal, "tuple": _decimals, "str": _mode}


def _verify_witness(payload, guards, family=None):
    """Rebuild a witness from its report, each field read by the annotation
    the witness dataclass gives it, and recompute every claim in it.
    family is the report config's, when the caller has built it.  Returns
    the detail lines and the coloring the construction's verify built."""
    catalog = payload["report"].removesuffix("-witness")
    _family_type, witness_type, _claim, derived = _CONSTRUCTIONS[catalog]
    if family is None:
        family = _catalog_family(payload["config"], catalog)
    witness = witness_type(**{
        f.name: reader(payload[f.name], f.name) for f in fields(witness_type)
        if (reader := _FIELD_READERS.get(getattr(f.type, "__name__", f.type)))
    })
    for key in derived:
        if _decimal(payload[key], key) != getattr(witness, key):
            raise VerificationError("claimed %s is inconsistent with the witness fields" % key)
    _check_certificates(payload, family, witness.index,
                        {key: getattr(witness, key) for key in witness.certificates()})
    if catalog == "delta3":
        color = delta3.verify_witness(family, witness)
        return ["witness (%d, %d, %d) re-verified" % (witness.x, witness.w1, witness.w2)], color
    color = pi3.verify_witness(family, witness, chain_bits=guards.chain_bits)
    return ["witness (n=%d, x=%d, w=%d) re-verified"
            % (witness.block_exponent, witness.x, witness.w)], color


def _check_certificates(payload, family, index, totals) -> None:
    """Each certificate named in totals lists distinct fixture members that
    sum to its total."""
    certificates = _object(payload["certificates"], "certificates")
    for key, total in totals.items():
        values = _decimals(certificates[key], "certificates.%s" % key)
        if sum(values) != total:
            raise VerificationError("certificate terms sum to %d, not %d" % (sum(values), total))
        if len(set(values)) != len(values):
            raise VerificationError("certificate terms repeat")
        for value in values:
            if not family.truth(index, value):
                raise VerificationError("certificate term %d outside fixture %d" % (value, index))


def _verify_product_kill(payload, guards):
    """Check the certificates, then the embedded witness with the family
    built once from the config, then the product colors of u and v: a
    construction kill's come from the coloring its witness's verify built,
    a killer kill builds its own.  The branch is checked last."""
    family = build_family(payload["config"])
    index, u, v = (_decimal(payload[key], key) for key in ("index", "u", "v"))
    _check_certificates(payload, family, index, {"u": u, "v": v})
    embedded = "witness" in payload
    inner = []
    if embedded:
        _check_embedded_witness(payload, index)
        try:
            inner, base = _verify_witness(payload["witness"], guards, family)
        except _FAILURES as failure:
            raise VerificationError(
                "embedded witness failed: verification failed: %s" % failure) from None
    else:
        base = _construction_coloring(family, guards.chain_bits)
    prod = _with_pair_coloring(base)
    cu, cv = prod(u), prod(v)
    if [str(c) for c in cu] != payload["color_u"] or [str(c) for c in cv] != payload["color_v"]:
        raise VerificationError("recomputed product colors differ from report")
    if cu == cv:
        raise VerificationError("product colors agree")
    branch = "construction" if embedded else "killer"
    if payload["branch"] != branch:
        raise VerificationError("field branch is %.40r, but a kill %s an embedded witness is a %s kill"
                                % (payload["branch"], "with" if embedded else "without", branch))
    return ["product kill of fixture %d via %s branch re-verified" % (index, branch)] + inner


def _check_embedded_witness(payload, index) -> None:
    """A product kill's embedded witness is a construction witness of the
    kill's own config and fixture, whose two certificates are u and v."""
    witness = _object(payload["witness"], "witness")
    kind = payload["config"]["catalog"] + "-witness"
    if witness.get("report") != kind or witness.get("config") != payload["config"]:
        raise VerificationError("the embedded witness is not a %s of the kill's config" % kind)
    if _decimal(witness.get("index"), "witness.index") != index:
        raise VerificationError("the embedded witness is not of fixture %d" % index)
    certificates = _object(witness.get("certificates"), "witness.certificates")
    terms = [_decimals(values, "witness.certificates") for values in certificates.values()]
    kill = _object(payload["certificates"], "certificates")
    if terms != [_decimals(kill[key], "certificates.%s" % key) for key in "uv"]:
        raise VerificationError("the embedded witness's certificates are not the kill's u and v")


def _verify_rerun(payload, guards):
    """Re-run a report from its own inputs and compare the results."""
    rerun, keys, mismatch, detail = _RERUNS[payload["report"]]
    recomputed = rerun(payload, guards)
    for key in keys:
        if recomputed.get(key) != payload.get(key):
            raise VerificationError(mismatch % {"key": key})
    return [detail(payload)]


def _rerun_search(payload, guards):
    bound, size = (_decimal(payload[key], key) for key in ("bound", "size"))
    max_terms = payload["max_terms"]
    max_terms = None if max_terms == "unbounded" else _decimal(max_terms, "max_terms")
    coloring = _object(payload["coloring"], "coloring")
    return search_report(coloring, max_terms, bound, size, guards=guards)


def _rerun_eval(payload, guards):
    """Re-run an eval table after checking that it lists one value per
    vertex of its range, so verify never evaluates more vertices than the
    report holds."""
    start, end = (_decimal(payload[key], key) for key in ("start", "end"))
    values, size = payload["values"], max(0, end - start + 1)
    if not (isinstance(values, list) and len(values) == size):
        raise VerificationError("field values must list one entry per vertex, %d in all" % size)
    return eval_table(_object(payload["coloring"], "coloring"), start, end)


def _rerun_tree_check(payload, guards):
    contract = _boolean(payload["contract"], "contract")
    _boolean(payload.get("ok"), "ok")  # compared with the re-run's by !=, where 1 == True
    return tree_check_report(
        *(_decimal(payload[key], key) for key in ("max_exponent", "functions", "seed")),
        _decimals(payload["moduli"], "moduli"), contract=contract, guards=guards,
    )


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
        lambda p, guards: run_extraction(*_extraction_inputs(p), guards=guards),
        ("outputs",), "re-running the extraction produced different outputs",
        _extraction_detail,
    ),
    "search-mono": (
        _rerun_search, ("outcome", "found", "colors"), "recomputed search %(key)s differs",
        lambda p: "search outcome %r re-verified" % p["outcome"],
    ),
    "eval-table": (
        _rerun_eval, ("arity", "values"), "recomputed table differs",
        lambda p: "%d table entries re-verified" % len(p["values"]),
    ),
    "tree-check": (
        _rerun_tree_check,
        ("results", "ok"), "recomputed tree check differs",
        lambda p: "tree check re-verified (ok=%s)" % p["ok"],
    ),
}
