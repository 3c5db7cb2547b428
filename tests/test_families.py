import copy
import hashlib
import itertools
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscoloring import families
from fscoloring.errors import FixtureError
from fscoloring.families import (
    CATALOG_SETS,
    Delta3Family,
    DelaySchedule,
    MonotoneFamily,
    SetSpec,
    build_family,
    delta3_catalog,
    monotone_catalog,
)

from family_oracle import members, validate

ODD = SetSpec.powers(modulus=2, residue=1, min_exponent=1)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def scan_first(family, i, n, k, s):
    """Reference oracle for block_first: scan the block element by element."""
    return next((x for x in range(1 << n, 1 << (n + 1)) if family.evaluate(i, x, k, s)), None)


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

    def test_coeff_powers(self):
        spec = SetSpec.coeff_powers((4, 6), step=2)
        assert spec.members_upto_bit(7) == [4, 6, 16, 24, 64, 96]
        assert spec.contains(24) and not spec.contains(12)
        assert spec.block_members(4) == [16, 24]

    def test_block_members_match_enumeration(self):
        # block_members reads the descriptor; the oracle's reference
        # enumerates members from the definition
        specs = list(CATALOG_SETS) + [
            SetSpec.explicit([1, 2, 3, 12, 13, 48, 200, 1 << 40]),
            SetSpec.coeff_powers((1, 3, 5, 6, 7, 12), step=3),
            SetSpec.powers(modulus=3, residue=2, min_exponent=7),
        ]
        for spec in specs:
            for n in range(45):
                below = itertools.takewhile(lambda x: x < 1 << (n + 1), members(spec))
                expected = [x for x in below if x >= 1 << n]
                assert spec.block_members(n) == expected
        assert ODD.block_members(-1) == []

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
        family = Delta3Family([ODD])
        assert family.evaluate(0, 8, 3, 7) == 1
        assert family.evaluate(0, 4, 0, 0) == 0
        # constant in both stage parameters
        for x in range(1, 1 << 10):
            truth = family.truth(0, x)
            assert family.evaluate(0, x, 0, 0) == truth
            assert family.evaluate(0, x, 9, 2) == truth

    def test_out_of_range_index(self):
        family = Delta3Family([ODD])
        assert family.evaluate(5, 8, 0, 0) == 0
        assert family.truth(5, 8) == 0
        assert family.members_upto_bit(5, 8) == []

    def test_settling_oracle(self):
        family = Delta3Family([ODD])
        assert family.settle_k(0, [8, 9]) == 0
        assert family.settle_s(0, 4, [8, 9]) == 0


class TestDelayed:
    def test_constant_delay(self):
        family = Delta3Family([ODD], [DelaySchedule(base=5)])
        assert family.evaluate(0, 8, 2, 4) == 0  # flipped before stage 5
        assert family.evaluate(0, 8, 2, 5) == 1
        assert family.evaluate(0, 9, 2, 4) == 1  # non-member flips to 1
        assert family.settle_s(0, 2, [8]) == 5
        for s in range(5, 12):
            assert family.evaluate(0, 8, 2, s) == 1

    def test_growing_delay(self):
        family = Delta3Family([ODD], [DelaySchedule(base=3, per_k=1)])
        assert family.settle_s(0, 4, [8]) == 7
        assert family.evaluate(0, 8, 4, 6) == 0
        assert family.evaluate(0, 8, 4, 7) == 1


class TestBlockFirst:
    @pytest.mark.parametrize(
        "path", sorted(CONFIGS.glob("delta3-*.json")) + [None],
        ids=lambda path: path.stem if path else "delayed-explicit",
    )
    def test_matches_scan(self, path):
        if path is None:
            family = Delta3Family(
                [SetSpec.explicit([3, 12, 13, 48, 200]), SetSpec.coeff_powers((3, 5), step=1)],
                [DelaySchedule(base=2, per_k=1)] * 2,
            )
        else:
            family = build_family(json.loads(path.read_text(encoding="utf-8")))
        for i in range(-1, family.count + 2):  # out-of-range indices included
            for n in range(11):
                for k in (0, 1, 3):
                    for s in (0, 2, 4, 6, 9):
                        assert family.block_first(i, n, k, s) == scan_first(family, i, n, k, s)

    def test_examples(self):
        family = Delta3Family([ODD], [DelaySchedule(base=5)])
        assert family.block_first(0, 3, 0, 5) == 8  # settled: the least member
        assert family.block_first(0, 2, 0, 5) is None  # settled on an empty block
        assert family.block_first(0, 3, 0, 4) == 9  # before the delay: least non-member
        assert family.block_first(0, 0, 0, 4) == 1  # the non-member 1, staged in
        assert family.block_first(0, 0, 0, 5) is None
        assert family.block_first(3, 3, 0, 5) is None  # index out of range
        # no scan: blocks near 2**60 answer directly
        assert family.block_first(0, 61, 0, 5) == 1 << 61
        assert family.block_first(0, 61, 0, 4) == (1 << 61) + 1

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Delta3Family([ODD]).block_first(0, -1, 0, 0)


class TestMonotone:
    def test_member_and_ramp(self):
        family = MonotoneFamily([ODD])
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

    def test_block_min_follows_evaluate(self):
        # a subclass that overrides only evaluate: block_min reads it, and
        # its non-members still all count the ramp, so the least one stands
        # for them
        class Raised(MonotoneFamily):
            def evaluate(self, i, x, y, s):
                return super().evaluate(i, x, y, s) + 3 * self.truth(i, x)

        family = Raised(CATALOG_SETS, [2] * len(CATALOG_SETS), ramp_lag=6)
        for i in range(family.count + 1):
            for n in range(0, 8):
                for y in (1, 4):
                    for s in (0, 3, 9, 30):
                        block = range(1 << n, 1 << (n + 1))
                        best = min((family.evaluate(i, x, y, s), x) for x in block)
                        assert family.block_min(i, n, y, s) == best
        assert family.block_min(0, 1, 4, 30) == (5, 2)  # 2 counts min(2, 24) + 3
        assert family.block_min(0, 1, 4, 9) == (3, 3)  # the non-member 3 counts 3

    def test_block_limit_outside_catalog(self):
        family = monotone_catalog("delayed")
        assert family.block_limit(7, 3, 5) is None
        assert family.block_limit(2, 2, 5) == 2  # 4 and 6 both settle to 2

    def test_out_of_range_index_diverges(self):
        family = MonotoneFamily([ODD])
        assert family.evaluate(3, 8, 2, 7) == 7

    def test_rejects_negative_ceiling_past_probes(self):
        # every member lies past 2**8, beyond any sampled probe: the
        # constructor checks the ceiling itself
        with pytest.raises(FixtureError, match="^family entry 0 has a negative ceiling -3$"):
            MonotoneFamily([SetSpec.powers(min_exponent=13)], [-3])

    def test_needs_one_ceiling_per_set(self):
        with pytest.raises(FixtureError):
            MonotoneFamily([ODD, ODD], [2])
        with pytest.raises(FixtureError):
            MonotoneFamily([ODD], [2, 2])

    def test_settling_oracle(self):
        family = MonotoneFamily([ODD], [2], ramp_lag=6)
        limit = family.member_limit(0, 8, 3)
        stage = family.divergence_stage(0, 8, 3, limit)
        assert all(family.evaluate(0, 8, 3, stage + d) == limit for d in range(6))
        stage = family.divergence_stage(0, 9, 3, 17)
        assert family.evaluate(0, 9, 3, stage) >= 17
        assert family.block_limit(0, 3, 5) == 2
        assert family.block_limit(0, 2, 5) is None


def plain_contains(spec, x):
    """SetSpec membership read off the binary numeral of x."""
    def power_exponent(q):  # e when q == 2**e, else None
        digits = bin(q)[2:] if q >= 1 else ""
        return len(digits) - 1 if digits == "1" + "0" * (len(digits) - 1) else None

    if spec.kind == "explicit":
        return x in spec.elements
    if spec.kind == "powers":
        e = power_exponent(x)
        return e is not None and e >= spec.min_exponent and e % spec.modulus == spec.residue
    return any(
        x >= 1 and x % c == 0 and power_exponent(x // c) is not None
        and power_exponent(x // c) % spec.step == 0
        for c in spec.coefficients
    )


set_specs = st.one_of(
    st.lists(st.integers(min_value=1, max_value=1 << 13), max_size=6).map(SetSpec.explicit),
    st.integers(min_value=1, max_value=5).flatmap(lambda m: st.builds(
        SetSpec.powers, st.just(m), st.integers(min_value=0, max_value=m - 1),
        st.integers(min_value=0, max_value=12))),
    st.builds(SetSpec.coeff_powers,
              st.lists(st.integers(min_value=1, max_value=48), min_size=1, max_size=4),
              st.integers(min_value=1, max_value=4)),
)
points = st.one_of(
    st.just(0),
    st.integers(max_value=-1),
    st.integers(min_value=1, max_value=1 << 13),
    st.integers(min_value=-(1 << 13), max_value=1 << 13).map(lambda d: (1 << 200) + d),
    st.builds(lambda c, e: c << e, st.integers(min_value=1, max_value=48),
              st.integers(min_value=190, max_value=210)),
)


@given(set_specs, points)
@settings(max_examples=300, deadline=None)
def test_contains_matches_definition(spec, x):
    assert spec.contains(x) == plain_contains(spec, x)


@given(st.lists(set_specs, max_size=3), st.integers(min_value=-2, max_value=4), points,
       st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=3),
       st.lists(st.integers(min_value=0, max_value=12), min_size=3, max_size=3),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_schedules(specs, i, x, k, s, base, per_k, ceilings, ramp_lag):
    # evaluate inlines delay(k), which the reference calls; the count's
    # reference is min(ceiling, ramp) on members, the ramp elsewhere
    inside = 0 <= i < len(specs)
    member = inside and plain_contains(specs[i], x)
    delta3 = Delta3Family(specs, [DelaySchedule(base + j, per_k) for j in range(len(specs))])
    staged = 0
    if inside:
        staged = int(member) if s >= delta3.delay[i](k) else 1 - int(member)
    assert delta3.evaluate(i, x, k, s) == staged
    monotone = MonotoneFamily(specs, ceilings[:len(specs)], ramp_lag)
    y = k  # the counting argument reuses the draw of k
    ramp = max(0, s - ramp_lag)
    count = min(ceilings[i], ramp) if member else ramp
    assert monotone.evaluate(i, x, y, s) == count


MALFORMED = ([], None, 5, "x", "1.5", {"a": "1"})


@st.composite
def configs(draw):
    """Configs of both catalogs over every SetSpec kind, with signed integer
    fields; in half the draws one field, at any depth, holds a malformed
    value instead."""
    def signed(low, high):
        return st.integers(min_value=low, max_value=high).map(str)

    catalog = draw(st.sampled_from(["delta3", "pi3"]))
    entries = []
    for position in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["explicit", "powers", "coeff_powers"]))
        if kind == "explicit":
            spec = {"kind": kind, "elements": draw(st.lists(signed(-2, 1 << 13), max_size=5))}
        elif kind == "powers":
            modulus = draw(st.integers(min_value=0, max_value=5))
            spec = {"kind": kind, "modulus": str(modulus),
                    "residue": draw(signed(0, max(modulus - 1, 0))),
                    "min_exponent": draw(signed(-1, 12))}
        else:
            spec = {"kind": kind, "coefficients": draw(st.lists(signed(0, 48), max_size=4)),
                    "step": draw(signed(0, 6))}
        entry = {"index": str(position), "set": spec}
        if catalog == "delta3":
            entry.update(kind=draw(st.sampled_from(["instant", "delayed"])),
                         delay_base=draw(signed(-200, 200)), delay_per_k=draw(signed(-6, 6)))
        else:
            entry.update(kind="monotone", ceiling=draw(signed(-2, 12)))
        entries.append(entry)
    config = {"catalog": catalog, "families": entries}
    if catalog == "pi3":
        config["ramp_lag"] = draw(signed(-200, 200))
    if draw(st.booleans()):
        target = draw(st.sampled_from([config, *entries, *(entry["set"] for entry in entries)]))
        target[draw(st.sampled_from(sorted(target)))] = draw(st.sampled_from(MALFORMED))
    return config


@given(configs())
@settings(max_examples=150, deadline=None)
def test_built_configs_validate(config):
    # build_family is the only check a config gets, so every family it
    # accepts must pass the sampled oracle, and every config it refuses
    # must be refused with a FixtureError
    try:
        family = build_family(config)
    except FixtureError:
        return
    _checks, violations = validate(family)
    assert not violations, violations[:10]


def broken_monotone():
    base = monotone_catalog("instant")

    class Broken(MonotoneFamily):
        def evaluate(self, i, x, y, s):
            return s % 2

    return Broken(base.sets, base.ceilings, base.ramp_lag)


def lying_delta3():
    base = delta3_catalog("delayed")

    class Lying(Delta3Family):
        def settle_s(self, i, k, query):
            return 0  # real settling is at stage 5

    return Lying(sets=base.sets, delay=base.delay)


VALIDATED = {
    **{"delta3-" + v: lambda v=v: delta3_catalog(v) for v in ("instant", "delayed", "growing")},
    **{"pi3-" + v: lambda v=v: monotone_catalog(v) for v in ("instant", "delayed")},
    "broken-monotone": broken_monotone,
    "lying-delta3": lying_delta3,
}


# (count, sha256 prefix of the newline-joined messages) of the violations
# the broken fixtures report; pins every message and its order.
VIOLATION_DIGESTS = {
    "broken-monotone": (2625, "0d31f3faba43f2e8"),
    "lying-delta3": (240, "3742743b1bf097ec"),
}


class TestValidate:
    def test_clean_fixtures(self):
        for family in (delta3_catalog("instant"), delta3_catalog("delayed"),
                       delta3_catalog("growing"), monotone_catalog("instant"),
                       monotone_catalog("delayed")):
            _checks, violations = validate(family)
            assert not violations, violations[:10]

    @pytest.mark.parametrize("catalog, variant", [
        ("delta3", "instant"), ("delta3", "delayed"), ("delta3", "growing"),
        ("pi3", "instant"), ("pi3", "delayed"),
    ])
    def test_probe_counts(self, catalog, variant):
        # the work validation does per family, as a count: a lost or extra
        # probe shows here with no timing involved
        family = build_family(families.default_config(catalog, variant))

        class Counting(type(family)):
            calls = 0

            def evaluate(self, *args):
                Counting.calls += 1
                return super().evaluate(*args)

        counted = copy.copy(family)
        counted.__class__ = Counting
        checks, violations = validate(counted)
        assert not violations
        assert (Counting.calls, checks) == (
            (5376, 5376) if catalog == "delta3" else (15176, 5076))

    def test_detects_non_monotone(self):
        _checks, violations = validate(broken_monotone())
        assert any("decreasing in s" in v for v in violations)

    def test_detects_wrong_settling_bound(self):
        _checks, violations = validate(lying_delta3())
        assert any("disagrees with truth" in v for v in violations)


class TestSampleGrid:
    @pytest.mark.parametrize("name", sorted(VALIDATED))
    def test_validation_matches_naive_grid(self, name):
        # the oracle samples the plain grid, one full hash per value; its
        # check count and every violation message, in order, are pinned
        family = VALIDATED[name]()
        checks, violations = validate(family)
        assert checks == (5076 if isinstance(family, MonotoneFamily) else 5376)
        if name in VIOLATION_DIGESTS:
            digest = hashlib.sha256("\n".join(violations).encode()).hexdigest()
            assert (len(violations), digest[:16]) == VIOLATION_DIGESTS[name]


def test_delta3_family_needs_one_delay_per_set():
    with pytest.raises(FixtureError):
        Delta3Family(sets=[ODD, ODD], delay=[DelaySchedule(base=5)])


@pytest.mark.parametrize("index", [-1, 7])
def test_weak_apart_on_outside_catalog(index):
    # an index outside the catalog reads as the empty set, vacuously weakly
    # apart, as in truth and members_upto_bit; the last set (4 and 5 share
    # a top bit) is not, so -1 reading it would show
    sets = [ODD, SetSpec.explicit([4, 5])]
    for family in (Delta3Family(sets), MonotoneFamily(sets)):
        assert family.weak_apart_on(1, 24) == (False, (4, 5))
        assert family.weak_apart_on(index, 24) == (True, None)


DECIMAL_EDGES = ["0", "-0", "007", "-12", "", "-", "--1", "+1", " 1", "1 ", "1\n", "1_0",
                 "²", "٣", "５", "-٣", "1.0", "0x1", "١٢"]


def check_decimal(text):
    # the one decimal reader takes exactly what -?[0-9]+ fullmatches
    if re.fullmatch(r"-?[0-9]+", text):
        assert families._decimal(text, "f") == int(text)
    else:
        with pytest.raises(FixtureError) as refusal:
            families._decimal(text, "f")
        assert str(refusal.value) == "field f is not a decimal string: %.40r" % (text,)


@pytest.mark.parametrize("text", DECIMAL_EDGES)
def test_decimal_edges(text):
    check_decimal(text)


@settings(max_examples=300)
@given(st.text(alphabet="-+ _0123456789\n²٣５", max_size=6) | st.text(max_size=6))
def test_decimal_matches_regex_oracle(text):
    check_decimal(text)


@pytest.mark.parametrize("value", [5, -1, None, True, 1.0, b"1", ["1"], {"1": 1}])
def test_decimal_refuses_non_strings(value):
    with pytest.raises(FixtureError, match=r"^field f is not a decimal string: "):
        families._decimal(value, "f")
