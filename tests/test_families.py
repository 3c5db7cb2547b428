import pytest

from fscoloring.errors import FixtureError, MissingOracleError
from fscoloring.families import (
    CATALOG_SETS,
    Delta3Family,
    DelaySchedule,
    MonotoneFamily,
    MonotoneSchedule,
    SetSpec,
    delayed_delta3,
    delta3_catalog,
    instant_delta3,
    monotone_catalog,
    monotone_from_sets,
    validate_family,
)

ODD = SetSpec.powers(modulus=2, residue=1, min_exponent=1)


class TestSetSpec:
    def test_powers_membership(self):
        assert ODD.contains(2) and ODD.contains(8) and ODD.contains(32)
        assert not ODD.contains(4) and not ODD.contains(6) and not ODD.contains(1)
        assert ODD.members_upto_bit(6) == [2, 8, 32]
        assert ODD.block_members(3) == [8]
        assert ODD.block_members(2) == []

    def test_explicit(self):
        spec = SetSpec.explicit([12, 3, 48])
        assert spec.elements == (3, 12, 48)
        assert spec.contains(12) and not spec.contains(4)
        assert spec.is_finite()

    def test_coeff_powers(self):
        spec = SetSpec.coeff_powers((4, 6), step=2)
        assert spec.members_upto_bit(7) == [4, 6, 16, 24, 64, 96]
        assert spec.contains(24) and not spec.contains(12)
        assert spec.block_members(4) == [16, 24]

    def test_payload_roundtrip(self):
        for spec in CATALOG_SETS:
            again = SetSpec.from_payload(spec.to_payload())
            assert again.members_upto_bit(10) == spec.members_upto_bit(10)

    def test_rejects_bad_descriptors(self):
        with pytest.raises(FixtureError):
            SetSpec.explicit([0, 3])
        with pytest.raises(FixtureError):
            SetSpec.powers(modulus=0)
        with pytest.raises(FixtureError):
            SetSpec("mystery")


class TestInstant:
    def test_examples(self):
        family = instant_delta3([ODD])
        assert family.evaluate(0, 8, 3, 7) == 1
        assert family.evaluate(0, 4, 0, 0) == 0
        # constant in both stage parameters
        for x in range(1, 1 << 10):
            truth = family.truth(0, x)
            assert family.evaluate(0, x, 0, 0) == truth
            assert family.evaluate(0, x, 9, 2) == truth

    def test_out_of_range_index(self):
        family = instant_delta3([ODD])
        assert family.evaluate(5, 8, 0, 0) == 0
        assert family.truth(5, 8) == 0
        assert list(family.members(5)) == []

    def test_settling_oracle(self):
        family = instant_delta3([ODD])
        assert family.settle_k(0, [8, 9]) == 0
        assert family.settle_s(0, 4, [8, 9]) == 0


class TestDelayed:
    def test_constant_delay(self):
        family = delayed_delta3([ODD], DelaySchedule(base=5))
        assert family.evaluate(0, 8, 2, 4) == 0  # flipped before stage 5
        assert family.evaluate(0, 8, 2, 5) == 1
        assert family.evaluate(0, 9, 2, 4) == 1  # non-member flips to 1
        assert family.settle_s(0, 2, [8]) == 5
        for s in range(5, 12):
            assert family.evaluate(0, 8, 2, s) == 1

    def test_growing_delay(self):
        family = delayed_delta3([ODD], DelaySchedule(base=3, per_k=1))
        assert family.settle_s(0, 4, [8]) == 7
        assert family.evaluate(0, 8, 4, 6) == 0
        assert family.evaluate(0, 8, 4, 7) == 1


class TestMonotone:
    def test_member_and_ramp(self):
        family = monotone_from_sets([ODD])
        assert all(family.evaluate(0, 2, y, s) == 0 for y in range(5) for s in range(5))
        for y in range(4):
            assert [family.evaluate(0, 3, y, s) for s in range(5)] == [0, 1, 2, 3, 4]

    def test_monotone_grid(self):
        family = monotone_catalog("delayed")
        for i in range(family.count):
            for x in (2, 3, 4, 6, 9):
                for y in range(0, 64, 7):
                    for s in range(0, 64, 7):
                        v = family.evaluate(i, x, y, s)
                        assert family.evaluate(i, x, y + 1, s) >= v
                        assert family.evaluate(i, x, y, s + 1) >= v

    def test_block_min_matches_scan(self):
        family = monotone_catalog("delayed")
        for i in range(family.count):
            for n in range(0, 8):
                for y in (1, 4):
                    for s in (0, 3, 9, 30):
                        block = range(1 << n, 1 << (n + 1))
                        best = min((family.evaluate(i, x, y, s), x) for x in block)
                        assert family.block_min(i, n, y, s) == best

    def test_out_of_range_index_diverges(self):
        family = monotone_from_sets([ODD])
        assert family.evaluate(3, 8, 2, 7) == 7

    def test_rejects_decreasing_ceiling(self):
        bad = MonotoneSchedule(ceiling=lambda i, x, y: max(0, 10 - y))
        with pytest.raises(FixtureError):
            monotone_from_sets([ODD], bad)

    def test_settling_oracle(self):
        schedule = MonotoneSchedule(ceiling=lambda i, x, y: 2, ramp_lag=6)
        family = monotone_from_sets([ODD], schedule)
        stage = family.member_constant_stage(0, 8, 3)
        limit = family.member_limit(0, 8, 3)
        assert all(family.evaluate(0, 8, 3, stage + d) == limit for d in range(6))
        stage = family.divergence_stage(0, 9, 3, 17)
        assert family.evaluate(0, 9, 3, stage) >= 17
        assert family.block_limit(0, 3, 5) == 2
        assert family.block_limit(0, 2, 5) is None


class TestValidate:
    def test_clean_fixtures(self):
        for family in (delta3_catalog("instant"), delta3_catalog("delayed"),
                       delta3_catalog("growing"), monotone_catalog("instant"),
                       monotone_catalog("delayed")):
            report = validate_family(family)
            assert report.ok, str(report)

    def test_detects_non_monotone(self):
        base = monotone_catalog("instant")

        class Broken(MonotoneFamily):
            def evaluate(self, i, x, y, s):
                return s % 2

        report = validate_family(Broken(base.sets, base.schedule))
        assert not report.ok
        assert any("decreasing in s" in v for v in report.violations)

    def test_detects_wrong_settling_bound(self):
        base = delta3_catalog("delayed")

        class Lying(Delta3Family):
            def settle_s(self, i, k, query):
                return 0  # real settling is at stage 5

        report = validate_family(Lying(sets=base.sets, delay=base.delay))
        assert not report.ok
        assert any("disagrees with truth" in v for v in report.violations)


def test_truthless_family_refuses_oracle_queries():
    family = Delta3Family(evaluator=lambda i, x, k, s: 0, count=1)
    assert not family.has_truth
    with pytest.raises(MissingOracleError):
        family.truth(0, 4)
    with pytest.raises(MissingOracleError):
        family.settle_k(0, [1])


def test_delta3_family_needs_one_delay_per_set():
    with pytest.raises(FixtureError):
        Delta3Family(sets=[ODD, ODD], delay=[DelaySchedule(base=5)])
    family = delayed_delta3([ODD, ODD], DelaySchedule(base=5))
    assert family.delay == (DelaySchedule(base=5),) * 2


def test_monotone_from_sets_isinstance():
    family = monotone_from_sets([ODD])
    assert isinstance(family, MonotoneFamily)
