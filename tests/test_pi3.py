import random
from pathlib import Path
from unittest import mock

import pytest

from fscoloring import harness, pi3
from fscoloring.dyadic import apart, block, low_bit, top_bit
from fscoloring.errors import GuardError, VerificationError, WitnessSearchError
from fscoloring.families import MonotoneFamily, SetSpec, monotone_catalog
from fscoloring.treecolor import TriRequestFunction

ODD = SetSpec.powers(modulus=2, residue=1, min_exponent=1)


@pytest.fixture(scope="module")
def catalog():
    return monotone_catalog("instant")


@pytest.fixture(scope="module")
def single():
    return MonotoneFamily([ODD])


class TestGuesses:
    def test_guess_element_examples(self, single):
        assert pi3.guess_element(single, 0, 1, 4, 5) == 2
        assert pi3.guess_element(single, 0, 2, 4, 5) == 4  # empty block, tie on least
        assert pi3.guess_element(single, 0, 3, 4, 0) == 8  # stage 0 ties everywhere

    def test_guess_bound_examples(self, single):
        assert pi3.guess_bound(single, 0, 1, 4, 5) == 0
        assert pi3.guess_bound(single, 0, 2, 4, 5) == 5
        assert pi3.guess_bound(single, 0, 2, 4, 0) == 0

    def test_fast_path_matches_scan(self, catalog):
        for i in range(catalog.count):
            for n in range(6):
                for s in (0, 2, 9):
                    fast = pi3.guess_element(catalog, i, n, 3, s)
                    slow = min(
                        range(1 << n, 1 << (n + 1)),
                        key=lambda x: (catalog.evaluate(i, x, 3, s), x),
                    )
                    assert fast == slow


class TestStageIndex:
    def test_single_family(self, single):
        engine = pi3.Pi3Engine(single)
        for (y, k, s) in [(2, 2, 2), (3, 5, 7), (4, 4, 9)]:
            assert engine.stage_index(1, y, k, s) == 0
        assert engine.stage_index(2, 3, 3, 3) is None

    def test_catalog_priority(self, catalog):
        engine = pi3.Pi3Engine(catalog)
        assert engine.stage_index(1, 3, 4, 5) == 0
        assert engine.stage_index(2, 3, 4, 5) == 1
        assert engine.stage_index(4, 5, 6, 7) == 2

    def test_domain_errors(self, single):
        engine = pi3.Pi3Engine(single)
        for bad in [(0, 2, 3, 4), (2, 2, 3, 4), (1, 2, 1, 4), (1, 2, 5, 4)]:
            with pytest.raises(ValueError):
                engine.stage_index(*bad)

    def test_injective_per_column(self, catalog):
        engine = pi3.Pi3Engine(catalog)
        for (y, k, s) in [(5, 6, 8), (6, 9, 12), (7, 7, 20)]:
            seen = {}
            for n in range(1, y):
                value = engine.stage_index(n, y, k, s)
                if value is not None:
                    assert value not in seen, "index %r reused" % value
                    seen[value] = n


class TestGuessRequest:
    def test_examples(self, single):
        engine = pi3.Pi3Engine(single)
        assert engine.q(1, 3, 5, 7) == 8
        assert engine.q(1, 2, 5, 7) == 4
        # off the staged domain the default is the block root
        assert engine.q(1, 1, 5, 7) == 2
        assert engine.q(3, 4, 2, 7) == 16

    def test_in_block(self, catalog):
        engine = pi3.Pi3Engine(catalog)
        for n in (1, 2):
            for y in range(n + 1, 8):
                for k in range(y, 10):
                    value = engine.q(n, y, k, 12)
                    assert top_bit(value) == y


class TestRequest:
    def test_examples(self, single):
        assert pi3.request(single, 1, 32) == 2  # block roots count zero
        assert pi3.request(single, 1, 40) == 3
        assert pi3.request(single, 0, 40) == 1

    def test_chain_bits_bounds_request_level(self, catalog):
        w = (1 << 100) + (1 << 81)
        with pytest.raises(GuardError) as failure:
            pi3.Pi3Engine(catalog).request(80, w)
        assert (failure.value.guard, failure.value.bound) == ("chain_bits", 64)
        assert top_bit(pi3.Pi3Engine(catalog, chain_bits=100).request(80, w)) == 80

    def test_type_soundness(self, catalog):
        for w in list(range(32, 64)) + [168, 5456]:
            for n in range(min(4, low_bit(w))):
                assert top_bit(pi3.request(catalog, n, w)) == n

    def test_contract_sweep_exhaustive(self, catalog):
        color = pi3.coloring(catalog)
        for s in range(1, 9):
            for w in range(1 << s, 1 << (s + 1)):
                for n in range(min(4, low_bit(w))):
                    assert color(w) != color(w + pi3.request(catalog, n, w))

    def test_contract_sweep_delayed(self):
        family = monotone_catalog("delayed")
        color = pi3.coloring(family)
        for s in range(1, 7):
            for w in range(1 << s, 1 << (s + 1)):
                for n in range(min(3, low_bit(w))):
                    assert color(w) != color(w + pi3.request(family, n, w))

    def test_contract_spot_checks_large_exponent(self, catalog):
        # vertices near exponent 20, reachable only through the fast
        # divide-and-conquer evaluators
        color = pi3.coloring(catalog)
        for w in ((1 << 20), (1 << 20) + (1 << 13) + (1 << 7) + (1 << 4),
                  (1 << 20) + 0b10101010101010101000):
            for n in range(min(3, low_bit(w))):
                assert color(w) != color(w + pi3.request(catalog, n, w))

    def test_root_colors(self, catalog):
        color = pi3.coloring(catalog)
        for s in range(0, 10):
            assert color(1 << s) == 0  # total on positives: color(1) is 0 too

    def test_example_pair(self, single):
        color = pi3.coloring(single)
        assert pi3.request(single, 1, 32) == 2
        assert color(32) != color(34)

    def test_guess_tables_built_once_per_coloring(self):
        # one coloring keeps one lifted guess request per exponent, and each
        # keeps its base-increment tables: colored again, the same vertices
        # make no tri request call, and every color matches a fresh engine's
        config = Path(__file__).resolve().parent.parent / "configs" / "pi3-instant.json"
        family = harness.build_family(harness.load_config(str(config)))
        rng = random.Random(60)
        ws = [(1 << 60) | rng.getrandbits(60) for _ in range(8)]
        engine = pi3.Pi3Engine(family)
        color = engine.coloring()
        calls = []
        tri_call = TriRequestFunction.__call__

        def counted(tri, *args):
            calls.append(args)
            return tri_call(tri, *args)
        with mock.patch.object(TriRequestFunction, "__call__", counted):
            colors = [color(w) for w in ws]
            first = len(calls)
            assert [color(w) for w in ws] == colors
        assert first > 0 and len(calls) == first
        assert colors == [pi3.coloring(family)(w) for w in ws]
        assert engine.guesses
        for guess in engine.guesses.values():
            for s, table in guess.tri.tables.items():
                assert len(table) <= s * (s + 1) // 2


class TestStableIndex:
    def test_single(self, single):
        engine = pi3.Pi3Engine(single)
        assert engine.stable_index(1) == 0
        assert engine.stable_index(2) is None

    def test_catalog_walk(self, catalog):
        engine = pi3.Pi3Engine(catalog)
        assert [engine.stable_index(n) for n in range(1, 7)] == [0, 1, None, 2, 3, None]

    def test_staged_settling(self, catalog):
        engine = pi3.Pi3Engine(catalog)
        for n in range(1, 6):
            assert pi3.check_stage_settling(engine, n) == engine.stable_index(n)

    def test_staged_settling_delayed(self):
        engine = pi3.Pi3Engine(monotone_catalog("delayed"))
        for n in (1, 2):
            assert pi3.check_stage_settling(engine, n) == engine.stable_index(n)


class TestChains:
    def test_example_chain(self, single):
        chain = pi3.build_chain(pi3.Pi3Engine(single), 0, 1, 3, 1)
        assert chain.elements == (8, 32, 128)

    def test_single_element(self, single):
        chain = pi3.build_chain(pi3.Pi3Engine(single), 0, 1, 1, 4)
        assert len(chain.elements) == 1
        assert low_bit(chain.elements[0]) > 4

    def test_delayed_stretches_stage(self):
        family = monotone_catalog("delayed")
        chain = pi3.build_chain(pi3.Pi3Engine(family), 0, 1, 3, 1)
        # guesses need the ramp to pass the member ceiling: stage >= 2+1+6
        assert chain.final_stage >= 9

    def test_blind_chain(self, single):
        chain = pi3.build_chain(pi3.Pi3Engine(single), 0, 1, 3, 1, mode="blind")
        assert len(chain.elements) == 3
        for a, b in zip(chain.elements, chain.elements[1:]):
            assert apart(a, b)


class TestDistinctRequests:
    def test_exponent_one(self, single):
        spread = pi3.distinct_requests(pi3.Pi3Engine(single), 0, 1)
        assert sorted(spread.requests) == [2, 3]
        assert spread.sums == (sum(spread.chain.elements), sum(spread.chain.elements[1:]))

    def test_exponent_two_exhausts_block(self):
        evens = MonotoneFamily([SetSpec.powers(modulus=2, residue=0, min_exponent=2)])
        engine = pi3.Pi3Engine(evens)
        assert engine.stable_index(2) == 0
        spread = pi3.distinct_requests(engine, 0, 2)
        assert sorted(spread.requests) == block(2)

    def test_consecutive_residue_steps(self, single):
        engine = pi3.Pi3Engine(single)
        spread = pi3.distinct_requests(engine, 0, 1)
        counts = [engine.base_count(1, w) for w in spread.sums]
        for a, b in zip(counts, counts[1:]):
            assert (a - b) % 2 == 1

    def test_low_bits_above_exponent(self, single):
        spread = pi3.distinct_requests(pi3.Pi3Engine(single), 0, 1)
        assert all(low_bit(w) > 1 for w in spread.sums)


class TestFindWitness:
    def test_instant(self, catalog):
        witness = pi3.find_witness(catalog, 0)
        assert witness.block_exponent == 1 and witness.x == 2
        assert pi3.request(catalog, 1, witness.w) == 2
        assert witness.color_w != witness.color_w_plus_x

    def test_second_family(self, catalog):
        witness = pi3.find_witness(catalog, 1)
        assert witness.block_exponent == 2 and witness.x == 4

    def test_delayed(self):
        family = monotone_catalog("delayed")
        witness = pi3.find_witness(family, 0)
        assert witness.x == 2
        assert witness.bookkeeping["final_stage"] >= 9

    def test_blind(self, catalog):
        witness = pi3.find_witness(catalog, 0, mode="blind")
        assert witness.mode == "blind"
        assert witness.color_w != witness.color_w_plus_x

    def test_rejects_non_weak_apart(self, catalog):
        with pytest.raises(WitnessSearchError):
            pi3.find_witness(catalog, 2)

    @pytest.mark.parametrize("index", [-1, 7])
    def test_index_outside_catalog_claims_no_exponent(self, catalog, index):
        # read as the empty set, which no exponent is ever assigned to
        with pytest.raises(WitnessSearchError) as failure:
            pi3.find_witness(catalog, index)
        assert failure.value.quantifier == "stable block exponent"

    def test_guard_exhaustion(self, catalog):
        with pytest.raises(WitnessSearchError) as failure:
            pi3.find_witness(catalog, 1, max_request_exponent=1)
        assert failure.value.quantifier == "stable block exponent"

    def test_verification_rejects_tampering(self, catalog):
        witness = pi3.find_witness(catalog, 0)
        tampered = pi3.Pi3Witness(
            index=witness.index, block_exponent=witness.block_exponent,
            x=witness.x, w=witness.w,
            color_w=witness.color_w_plus_x, color_w_plus_x=witness.color_w,
            chain=witness.chain, sums=witness.sums, requests=witness.requests,
            mode=witness.mode,
        )
        with pytest.raises(VerificationError):
            pi3.verify_witness(catalog, tampered)


def test_deep_block_exponent_three():
    deep = MonotoneFamily([SetSpec.powers(modulus=2, residue=1, min_exponent=3)])
    engine = pi3.Pi3Engine(deep)
    assert engine.stable_index(3) == 0
    spread = pi3.distinct_requests(engine, 0, 3)
    assert sorted(spread.requests) == block(3)
    witness = pi3.find_witness(deep, 0)
    assert witness.block_exponent == 3 and witness.x == 8


# The two priority loops as first written, one per reading, kept as the
# references Pi3Engine's shared recurrence must reproduce.
def reference_stage_index(family, n, y, k, s):
    table, taken = {}, set()
    for m in range(1, n + 1):
        table[m] = next(
            (i for i in range(m)
             if i not in taken and pi3.guess_bound(family, i, m, y, s) < k),
            None,
        )
        if table[m] is not None:
            taken.add(table[m])
    return table[n]


def reference_stable_index(family, n):
    table, taken = {}, set()
    for m in range(1, n + 1):
        table[m] = next(
            (i for i in range(min(m, family.count))
             if i not in taken and family.block_members(i, m)),
            None,
        )
        if table[m] is not None:
            taken.add(table[m])
    return table[n]


PRIORITY_FAMILIES = {
    "instant": lambda: monotone_catalog("instant"),
    "delayed": lambda: monotone_catalog("delayed"),
    # one family whose first member sits at exponent 13: every exponent
    # below it, and every one past it up to 40, reads indices outside the
    # catalog
    "deep": lambda: MonotoneFamily(
        [SetSpec.powers(modulus=2, residue=1, min_exponent=13)], [1], ramp_lag=2),
}


@pytest.mark.parametrize("name", sorted(PRIORITY_FAMILIES))
def test_priority_readings_match_reference_loops(name):
    family = PRIORITY_FAMILIES[name]()
    staged = [(n, y, k, s)
              for y in (2, 3, 5, 8, 14, 16, 40) for n in range(1, y)
              for k in (y, y + 1, y + 4) for s in (k, k + 3, k + 11)]
    exponents = list(range(1, 41))
    # one engine for every query, in a shuffled order, so later answers
    # come from entries earlier queries filled
    random.Random(name).shuffle(staged)
    random.Random(name).shuffle(exponents)
    engine = pi3.Pi3Engine(family)
    for query in staged:
        assert engine.stage_index(*query) == reference_stage_index(family, *query), query
    for n in exponents:
        assert engine.stable_index(n) == reference_stable_index(family, n), n
    if name == "deep":
        assert engine.stable_index(13) == 0
        assert [engine.stable_index(n) for n in range(1, 13)] == [None] * 12
        assert [engine.stable_index(n) for n in range(14, 41)] == [None] * 27


def test_deep_coloring_block_min_reads():
    # past the catalog the stage table reads one index per entry: coloring
    # this vertex read block_min 3,181 times when every index below the
    # exponent was scanned, and reads it 396 times now
    family = PRIORITY_FAMILIES["deep"]()
    reads = []
    block_min = MonotoneFamily.block_min

    def counted(self, *args):
        reads.append(args)
        return block_min(self, *args)
    with mock.patch.object(MonotoneFamily, "block_min", counted):
        color = pi3.coloring(family)((1 << 40) | (339563 << 20))
    assert (color, len(reads)) == (0, 396)
