import random

import pytest

from fscoloring import delta3
from fscoloring.dyadic import apart, block, finite_sums, low_bit, top_bit
from fscoloring.errors import VerificationError, WitnessSearchError
from fscoloring.families import DelaySchedule, Delta3Family, SetSpec, delta3_catalog
from fscoloring.treecolor import block_max


@pytest.fixture(scope="module")
def catalog():
    return delta3_catalog("instant")


class TestBlockIndicator:
    def test_examples(self, catalog):
        assert delta3.block_indicator(catalog, 0, 1, 4, 9) == 1  # 2 sits in that block
        assert delta3.block_indicator(catalog, 0, 2, 4, 9) == 0
        assert delta3.block_indicator(catalog, 9, 3, 4, 9) == 0  # index out of range


class TestCandidateSet:
    def test_examples(self, catalog):
        assert delta3.candidate_set(catalog, 0, 3, 5) == (1,)
        assert delta3.candidate_set(catalog, 1, 3, 6) == (2, 4)
        assert delta3.candidate_set(catalog, 0, 2, 1) == ()

    def test_size_bound(self, catalog):
        for i in range(4):
            for k in (1, 3):
                for s in (2, 7, 12):
                    members = delta3.candidate_set(catalog, i, k, s)
                    assert len(members) <= 1 << i
                    assert all(i < n < s for n in members)

    def test_priority_cardinality(self, catalog):
        # the union of lower-priority candidate sets can never swallow a
        # full candidate set of the next index
        for k in (2, 3, 5):
            for s in (6, 9, 12):
                for i in range(5):
                    union = set()
                    for j in range(i):
                        union |= set(delta3.candidate_set(catalog, j, k, s))
                    assert len(union) < 1 << i


class TestChooser:
    def test_examples(self, catalog):
        assert delta3.chooser(catalog, 1, 40) == 0
        assert delta3.chooser(catalog, 2, 40) == 1
        # exponent claimed by no candidate set: falls back to itself
        sparse = Delta3Family([SetSpec.explicit([9])])
        assert delta3.chooser(sparse, 2, 16) == 2

    def test_requires_low_bit(self, catalog):
        with pytest.raises(ValueError):
            delta3.chooser(catalog, 3, 40)


class TestRequest:
    def test_examples(self, catalog):
        assert delta3.request(catalog, 1, 40) == 2
        assert delta3.request(catalog, 0, 40) == 1
        # fallback index out of the catalog: staged values vanish, so the
        # request is the block maximum
        sparse = Delta3Family([SetSpec.explicit([9])])
        assert delta3.request(sparse, 2, 16) == block_max(2)

    def test_type_soundness(self, catalog):
        for s in (5, 8):
            for w in range(1 << s, (1 << s) + 40):
                for n in range(low_bit(w)):
                    value = delta3.request(catalog, n, w)
                    assert top_bit(value) == n


class TestColoring:
    def test_root_colors(self, catalog):
        color = delta3.coloring(catalog)
        for s in range(0, 12):
            assert color(1 << s) == 0  # total on positives: color(1) is 0 too

    def test_example_pair(self, catalog):
        color = delta3.coloring(catalog)
        assert delta3.request(catalog, 1, 40) == 2
        assert color(40) != color(42)

    def test_contract_sweep_exhaustive(self, catalog):
        color = delta3.coloring(catalog)
        for s in range(1, 11):
            for w in range(1 << s, 1 << (s + 1)):
                for n in range(low_bit(w)):
                    assert color(w) != color(w + delta3.request(catalog, n, w))

    @pytest.mark.parametrize("variant", ["delayed", "growing"])
    def test_contract_sweep_delayed(self, variant):
        family = delta3_catalog(variant)
        color = delta3.coloring(family)
        for s in range(1, 9):
            for w in range(1 << s, 1 << (s + 1)):
                for n in range(low_bit(w)):
                    assert color(w) != color(w + delta3.request(family, n, w))

    @pytest.mark.parametrize("variant", ["instant", "delayed", "growing"])
    @pytest.mark.parametrize("bits", [40, 60])
    def test_contract_at_high_top_bits(self, variant, bits):
        # c(w + R(n, w)) = c(w) + 1 (mod 2) at sampled vertices far beyond
        # any block an element scan could reach
        family = delta3_catalog(variant)
        color = delta3.coloring(family)
        rng = random.Random(bits)
        for _ in range(4):
            low = rng.randrange(4, 24)
            w = (1 << bits) | (rng.getrandbits(bits - low) << low) | (1 << low)
            for n in rng.sample(range(low), 3):
                assert color(w + delta3.request(family, n, w)) == (color(w) + 1) % 2


class TestCandidateLimit:
    def test_examples(self, catalog):
        assert delta3.candidate_limit(catalog, 0) == (1,)
        assert delta3.candidate_limit(catalog, 1) == (2, 4)
        assert delta3.candidate_limit(catalog, 2) == (4, 6, 8, 10)

    def test_delayed_same_limits(self):
        for variant in ("delayed", "growing"):
            family = delta3_catalog(variant)
            assert delta3.candidate_limit(family, 0) == (1,)
            assert delta3.candidate_limit(family, 1) == (2, 4)

    def test_finite_exhausts(self, catalog):
        with pytest.raises(WitnessSearchError):
            delta3.candidate_limit(catalog, 3)

    @pytest.mark.parametrize("variant", ["instant", "delayed", "growing"])
    def test_staged_settling(self, variant):
        family = delta3_catalog(variant)
        for i in (0, 1, 2):
            assert delta3.check_candidate_settling(family, i) == delta3.candidate_limit(family, i)


class TestFindWitness:
    def test_instant_exact(self, catalog):
        witness = delta3.find_witness(catalog, 0)
        assert (witness.x, witness.w1, witness.w2) == (2, 8, 32)
        assert witness.color_sum != witness.color_sum_with_x

    def test_delayed_pushes_w2(self):
        witness = delta3.find_witness(delta3_catalog("delayed"), 0)
        assert (witness.x, witness.w1) == (2, 8)
        assert top_bit(witness.w2) > 5
        assert witness.bookkeeping["settle_s"] == 5

    def test_growing_delay(self):
        witness = delta3.find_witness(delta3_catalog("growing"), 0)
        assert witness.x == 2
        assert top_bit(witness.w2) > witness.bookkeeping["settle_s"]

    def test_witness_is_apart_and_member(self, catalog):
        for i in (0, 1):
            witness = delta3.find_witness(catalog, i)
            assert apart(witness.x, witness.w1) and apart(witness.w1, witness.w2)
            for value in (witness.x, witness.w1, witness.w2):
                assert catalog.truth(i, value) == 1

    def test_sums_live_in_bounded_finite_sums(self, catalog):
        witness = delta3.find_witness(catalog, 0)
        sums = finite_sums(sorted((witness.x, witness.w1, witness.w2)), 3)
        assert witness.sum in sums and witness.sum_with_x in sums

    def test_blind_mode(self, catalog):
        witness = delta3.find_witness(catalog, 1, mode="blind", bound=4096)
        assert witness.mode == "blind"
        assert witness.color_sum != witness.color_sum_with_x

    def test_blind_finite_not_found(self, catalog):
        with pytest.raises(WitnessSearchError) as failure:
            delta3.find_witness(catalog, 3, mode="blind", bound=4096)
        assert failure.value.bound == 4096

    def test_oracle_rejects_non_weak_apart(self, catalog):
        with pytest.raises(WitnessSearchError):
            delta3.find_witness(catalog, 2)

    def test_verification_rejects_tampering(self, catalog):
        witness = delta3.find_witness(catalog, 0)
        tampered = delta3.Delta3Witness(
            index=witness.index, x=witness.x, w1=witness.w1, w2=witness.w2,
            color_sum=witness.color_sum_with_x, color_sum_with_x=witness.color_sum,
            mode=witness.mode,
        )
        with pytest.raises(VerificationError):
            delta3.verify_witness(catalog, tampered)


def test_quantifier_order_with_growing_delay():
    # settling in s depends on k, so the stage bound must be recomputed
    # after w1 fixes k; a witness still exists
    family = Delta3Family(
        [SetSpec.powers(modulus=2, residue=1, min_exponent=1)],
        [DelaySchedule(base=1, per_k=2)],
    )
    witness = delta3.find_witness(family, 0)
    k = low_bit(witness.w1)
    assert top_bit(witness.w2) > 1 + 2 * k


# The candidate loop as first written, kept as the reference both readings
# of the shared scan must reproduce: staged block indicators below s, truth
# block members up to the horizon.
def reference_candidates(i, stop, inhabited):
    quota = 1 << i
    members = []
    for n in range(i + 1, stop):
        if inhabited(n):
            members.append(n)
            if len(members) == quota:
                break
    return tuple(members)


CANDIDATE_FAMILIES = {
    "instant": lambda: delta3_catalog("instant"),
    "delayed": lambda: delta3_catalog("delayed"),
    "growing": lambda: delta3_catalog("growing"),
    # one family whose first member sits at exponent 13
    "deep": lambda: Delta3Family([SetSpec.powers(modulus=2, residue=1, min_exponent=13)],
                                 [DelaySchedule(base=3, per_k=1)]),
}


@pytest.mark.parametrize("name", sorted(CANDIDATE_FAMILIES))
def test_candidate_readings_match_reference_loop(name):
    family = CANDIDATE_FAMILIES[name]()
    for i in range(family.count + 1):
        for k in (0, 1, 3, 7):
            for s in range(0, 26):
                expected = reference_candidates(
                    i, s, lambda n: delta3.block_indicator(family, i, n, k, s))
                assert delta3.candidate_set(family, i, k, s) == expected, (i, k, s)
        for horizon in (5, 14, 24):
            expected = reference_candidates(i, horizon + 1, lambda n: family.block_members(i, n))
            if len(expected) == 1 << i:
                assert delta3.candidate_limit(family, i, horizon) == expected
            else:
                with pytest.raises(WitnessSearchError, match="only %d of %d inhabited blocks"
                                   % (len(expected), 1 << i)):
                    delta3.candidate_limit(family, i, horizon)
