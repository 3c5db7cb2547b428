"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every criterion carries its runtime budget; exceeding
the budget fails the test just like a wrong value would.
"""

import time
from itertools import count, islice

import pytest

from fscoloring import apartness, delta3, harness, pi3
from fscoloring.dyadic import (
    block,
    finite_sums,
    has_apartness,
    has_weak_apartness,
    low_bit,
    top_bit,
)
from fscoloring.errors import WitnessSearchError
from fscoloring.families import MonotoneFamily, SetSpec, delta3_catalog, monotone_catalog
from fscoloring.treecolor import (
    MemoRequest,
    TriRequestFunction,
    default_request,
    lift_tri,
    popcount_coloring,
    random_request,
    random_tri_request,
    signed_count,
    signed_counts_table,
    tree_edges,
    _mix,
)

MAX_EXPONENT = 12


def _report(number, budget, started, message):
    elapsed = time.monotonic() - started
    assert elapsed < budget, "criterion %d exceeded its %ds budget (%.1fs)" % (
        number, budget, elapsed,
    )
    print("PASS criterion %d (%.1fs): %s" % (number, elapsed, message), flush=True)


def test_criterion_1_tree_structure():
    started = time.monotonic()
    functions = 100
    checked = 0
    for seed in range(functions):
        request = random_request(seed)
        for s in range(1, MAX_EXPONENT + 1):
            tree = tree_edges(s, request)
            assert len(tree.edges) == (1 << s) - 1
            problems = tree.problems()
            assert problems == [], (seed, s, problems)
            checked += 1
    _report(1, 60, started,
            "%d request trees are spanning trees (%d functions, exponents 1..%d)"
            % (checked, functions, MAX_EXPONENT))


def test_criterion_2_coloring_contract():
    started = time.monotonic()
    moduli = (2, 3, 5, 8)
    requests = [default_request()] + [random_request(seed) for seed in (101, 202)]
    pairs = 0
    for raw in requests:
        request = MemoRequest(raw)
        for s in range(1, MAX_EXPONENT + 1):
            counts = {}
            for w in range(1 << s, 1 << (s + 1)):
                counts[w] = signed_count(request, w)
            for w in range(1 << s, 1 << (s + 1)):
                for n in range(low_bit(w)):
                    target = w + request(n, w)
                    for r in moduli:
                        assert counts[target] % r == (counts[w] + 1) % r, (w, n, r)
                    pairs += 1
    _report(2, 120, started,
            "increment contract holds at every vertex, moduli %s, %d request pairs x %d functions"
            % (moduli, pairs, len(requests)))


def test_criterion_3_evaluator_equivalence():
    started = time.monotonic()
    # full-domain agreement with the materialized oracle, generic path
    for seed in (7, 8):
        request = random_request(seed)
        for s in range(1, MAX_EXPONENT + 1):
            table = signed_counts_table(tree_edges(s, request))
            for w in range(1 << s, 1 << (s + 1)):
                assert signed_count(request, w) == table[w], (seed, s, w)
    # and the factored fast path against both
    for seed in (9, 10):
        tri = random_tri_request(seed)
        lifted = lift_tri(tri)
        plain = lambda n, w: tri(n, low_bit(w), top_bit(w))
        for s in range(1, MAX_EXPONENT + 1):
            table = signed_counts_table(tree_edges(s, plain))
            for w in range(1 << s, 1 << (s + 1)):
                assert signed_count(lifted, w) == table[w], (seed, s, w)
    # block exponent 60 with an instrumented evaluation budget
    s = 60
    worst = 0
    for trial in range(20):
        w = (1 << s) + _mix(33, trial) % (1 << s)
        tri, calls = random_tri_request(trial), []

        def counting(n, k, s):
            calls.append((n, k, s))
            return tri(n, k, s)
        signed_count(lift_tri(TriRequestFunction(counting, "counted")), w)
        worst = max(worst, len(calls))
    assert worst <= 4 * s * s, worst
    _report(3, 60, started,
            "fast evaluator == tree oracle on exponents 1..12; at exponent 60 "
            "worst instrumented count %d <= %d" % (worst, 4 * s * s))


def test_criterion_4_popcount_example():
    started = time.monotonic()
    assert [popcount_coloring(w) for w in (2, 3, 4, 5)] == [1, 0, 1, 0]
    checked = 0
    for w in range(1, 1 << 16):
        for n in range(low_bit(w)):
            assert popcount_coloring(w) != popcount_coloring(w + (1 << n))
            checked += 1
    _report(4, 10, started,
            "digit-parity coloring matches its four documented values and "
            "separates all %d request pairs below 2^16" % checked)


def test_criterion_5_pair_coloring_kills_non_weak_apartness():
    started = time.monotonic()
    # case 1: two numbers sharing a top bit, exhaustively below 2^12
    case1 = 0
    for n in range(12):
        members = range(1 << n, 1 << (n + 1))
        for x1 in members:
            for x2 in range(x1 + 1, 1 << (n + 1)):
                assert top_bit(x1 + x2) == n + 1
                case1 += 1
    # case 2 below 2^12, factored through the residue classes: three numbers
    # sharing a low bit contain two agreeing two bits higher (pigeonhole on
    # two classes), and any such pair sums to low bit exactly one higher.
    case2 = 0
    for l in range(11):
        classes = {}
        for x in range(1 << l, 1 << 12, 1 << (l + 1)):
            classes.setdefault(x % (1 << (l + 2)), []).append(x)
        for _residue, members in classes.items():
            for a_index, x1 in enumerate(members):
                for x2 in members[a_index + 1:]:
                    assert low_bit(x1 + x2) == l + 1
                    case2 += 1
    # the triple-level statement, exhaustively at a smaller bound
    triples = 0
    for x1 in range(1, 1 << 7):
        for x2 in range(x1 + 1, 1 << 7):
            for x3 in range(x2 + 1, 1 << 7):
                ok, _cert = has_weak_apartness([x1, x2, x3])
                if ok:
                    continue
                colors = {
                    apartness.weak_apartness_killer(v)
                    for v in finite_sums([x1, x2, x3], 2)
                }
                assert len(colors) > 1, (x1, x2, x3)
                triples += 1
    _report(5, 60, started,
            "top-bit case on %d pairs, low-bit case on %d residue pairs "
            "(covers every triple below 2^12 by pigeonhole), plus %d "
            "non-weakly-apart triples below 2^7 checked directly"
            % (case1, case2, triples))


def test_criterion_6_membership_construction_end_to_end():
    started = time.monotonic()
    witnesses = {}
    for variant in ("instant", "delayed", "growing"):
        family = delta3_catalog(variant)
        witness = delta3.find_witness(family, 0)
        delta3.verify_witness(family, witness)  # explicit re-verification
        assert witness.color_sum != witness.color_sum_with_x
        for value in (witness.x, witness.w1, witness.w2):
            assert family.truth(0, value) == 1
        witnesses[variant] = (witness.x, witness.w1, witness.w2)
    assert witnesses["instant"] == (2, 8, 32)
    _report(6, 60, started,
            "witnesses %r all re-verified; instant schedule yields exactly (2, 8, 32)"
            % witnesses)


def test_criterion_7_counting_construction_end_to_end():
    started = time.monotonic()
    catalog = monotone_catalog("instant")
    deep = MonotoneFamily(
        [SetSpec.powers(modulus=2, residue=1, min_exponent=3)], description="deep"
    )
    plans = [(catalog, 0, 1), (catalog, 1, 2), (deep, 0, 3)]
    for family, index, exponent in plans:
        spread = pi3.distinct_requests(pi3.Pi3Engine(family), index, exponent)
        assert len(set(spread.requests)) == 1 << exponent
        assert sorted(spread.requests) == block(exponent)
        witness = pi3.find_witness(family, index)
        pi3.verify_witness(family, witness)
        assert witness.block_exponent == exponent
        assert top_bit(witness.x) == exponent
        assert family.truth(index, witness.x) == 1
        assert witness.color_w != witness.color_w_plus_x
    # the delayed schedule runs the same pipeline with real settling work
    delayed = monotone_catalog("delayed")
    witness = pi3.find_witness(delayed, 0)
    pi3.verify_witness(delayed, witness)
    _report(7, 300, started,
            "request spreads exhaust their blocks at exponents 1..3 and every "
            "witness re-verified, including the delayed schedule")


def test_criterion_8_priority_limits():
    started = time.monotonic()
    checked = []
    for variant in ("instant", "delayed", "growing"):
        family = delta3_catalog(variant)
        for index in (0, 1, 2):
            limit = delta3.check_candidate_settling(family, index)
            checked.append(("delta3", variant, index, limit))
    horizon = 8
    for variant in ("instant", "delayed"):
        engine = pi3.Pi3Engine(monotone_catalog(variant))
        for exponent in range(1, horizon + 1):
            pi3.check_stage_settling(engine, exponent)
        stable = {engine.stable_index(n) for n in range(1, horizon + 1)}
        for index in (0, 1, 2):  # every infinite fixture claims an exponent
            assert index in stable, (variant, index)
    _report(8, 120, started,
            "staged candidate sets and priority indices agree with their truth "
            "limits beyond the settling bounds (%d catalog fixtures); every "
            "infinite fixture stabilizes at some exponent <= %d"
            % (len(checked), horizon))


def test_criterion_9_extraction():
    started = time.monotonic()
    streams = {
        "naturals": count(*harness._progression({"kind": "naturals"})),
        "arithmetic 3j+1": count(*harness._progression(
            {"kind": "arithmetic", "start": "1", "step": "3"}
        )),
    }
    for name, stream in streams.items():
        certificates = list(islice(apartness.extract_apart(stream), 10))
        values = [c.value for c in certificates]
        assert has_apartness(values), name
        previous_end = -1
        for certificate in certificates:
            certificate.check()
            assert certificate.first_index > previous_end
            previous_end = certificate.first_index + len(certificate.block) - 1
        outputs = values[:4]
        consumed = max(
            c.first_index + len(c.block) for c in certificates[:4]
        )
        step = 1 if name == "naturals" else 3
        prefix = [1 + step * j for j in range(consumed)]
        prefix_sums = set(finite_sums(prefix, max_elements=30))
        for value in finite_sums(outputs):
            assert value in prefix_sums, (name, value)
    _report(9, 10, started,
            "10 outputs per stream are pairwise apart with disjoint-block "
            "certificates; finite sums of the first 4 stay inside the "
            "consumed prefix's finite sums")


def test_criterion_10_composition(tmp_path):
    started = time.monotonic()
    kills = []
    for catalog_name in ("delta3", "pi3"):
        config = harness.default_config(catalog_name, "instant")
        for index in (0, 1, 2):
            path = tmp_path / ("%s-%d.json" % (catalog_name, index))
            payload = harness.run_product_kill(config, index, out=str(path))
            ok, details = harness.verify_report(harness.load_report(path))
            assert ok, details
            assert payload["color_u"] != payload["color_v"]
            kills.append((catalog_name, index, payload["branch"]))
    assert {branch for _c, index, branch in kills if index in (0, 1)} == {"construction"}
    assert {branch for _c, index, branch in kills if index == 2} == {"killer"}
    # the finite fixture supports no kill claim; its bounded search says so
    with pytest.raises(WitnessSearchError):
        delta3.find_witness(delta3_catalog("instant"), 3, mode="blind", bound=4096)
    _report(10, 60, started,
            "product colorings kill all six infinite catalog fixtures, each "
            "report re-verified from file: %r" % (kills,))
