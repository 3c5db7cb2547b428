import pytest
from hypothesis import given
from hypothesis import strategies as st

from fscoloring import dyadic
from fscoloring.errors import GuardError


@pytest.mark.parametrize(
    "x, top, low",
    [(12, 3, 2), (1, 0, 0), (40, 5, 3), (2, 1, 1), (7, 2, 0)],
)
def test_measures(x, top, low):
    assert dyadic.measures(x) == (top, low)
    assert dyadic.top_bit(x) == top
    assert dyadic.low_bit(x) == low


@pytest.mark.parametrize("bad", [0, -1, -7])
def test_measures_reject_nonpositive(bad):
    with pytest.raises(ValueError):
        dyadic.top_bit(bad)
    with pytest.raises(ValueError):
        dyadic.low_bit(bad)


@pytest.mark.parametrize(
    "x, y, expected",
    [(4, 8, True), (8, 12, False), (2, 3, False), (1, 2, True), (3, 4, True)],
)
def test_apart(x, y, expected):
    assert dyadic.apart(x, y) is expected


def test_block_small():
    assert dyadic.block(2) == [4, 5, 6, 7]
    assert dyadic.block(0) == [1]
    b3 = dyadic.block(3)
    assert len(b3) == 8 and min(b3) == 8 and max(b3) == 15


def test_block_membership_exhaustive():
    for n in range(13):
        members = dyadic.block(n)
        assert len(members) == 1 << n
        assert all(dyadic.top_bit(x) == n for x in members)


def test_block_guard():
    with pytest.raises(GuardError) as failure:
        dyadic.block(25)
    assert failure.value.guard == "block_exponent"


@pytest.mark.parametrize(
    "values, max_terms, expected",
    [
        ([1, 2, 4], None, [1, 2, 3, 4, 5, 6, 7]),
        ([1, 2, 4], 2, [1, 2, 3, 4, 5, 6]),
        ([8, 32], None, [8, 32, 40]),
    ],
)
def test_finite_sums(values, max_terms, expected):
    assert dyadic.finite_sums(values, max_terms) == expected


def test_finite_sums_guard():
    with pytest.raises(GuardError):
        dyadic.finite_sums(list(range(1, 30)))
    with pytest.raises(ValueError):
        dyadic.finite_sums([3, 2])
    with pytest.raises(ValueError):
        dyadic.finite_sums([2, 2])


@given(st.sets(st.integers(min_value=1, max_value=200), min_size=1, max_size=7))
def test_finite_sums_monotone_in_set(values):
    values = sorted(values)
    smaller = dyadic.finite_sums(values[:-1]) if len(values) > 1 else []
    assert set(smaller) <= set(dyadic.finite_sums(values))


@given(
    st.sets(st.integers(min_value=1, max_value=200), min_size=1, max_size=7),
    st.integers(min_value=1, max_value=5),
)
def test_finite_sums_monotone_in_terms(values, k):
    values = sorted(values)
    assert set(dyadic.finite_sums(values, k)) <= set(dyadic.finite_sums(values, k + 1))
    assert set(dyadic.finite_sums(values, k)) <= set(dyadic.finite_sums(values))


@pytest.mark.parametrize(
    "values, ok, certificate",
    [
        ([2, 3], False, (2, 3)),
        ([1, 3, 5], False, (1, 3, 5)),
        ([2, 8, 32], True, None),
    ],
)
def test_has_weak_apartness(values, ok, certificate):
    result, found = dyadic.has_weak_apartness(values)
    assert result is ok
    assert found == certificate


def test_has_apartness():
    assert dyadic.has_apartness([2, 8, 32])
    assert not dyadic.has_apartness([2, 3])
    assert not dyadic.has_apartness([8, 12])


def _apart_sets(max_size=6):
    # increasing sets with pairwise-disjoint digit ranges
    return st.lists(
        st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=max_size,
    ).map(_assemble_apart)


def _assemble_apart(gaps):
    out, position = [], 0
    for gap, width in gaps:
        position += gap
        low = position
        position += width
        value = ((1 << width) - 1) << low
        out.append(value)
        position += 1
    return out


@given(_apart_sets())
def test_apart_sums_are_carry_free(values):
    assert dyadic.has_apartness(values)
    for a, b in zip(values, values[1:]):
        assert dyadic.top_bit(a + b) == dyadic.top_bit(b)
        assert dyadic.low_bit(a + b) == dyadic.low_bit(a)


def test_apart_sum_measures_exhaustive_small():
    # all pairs below 2**8 with x << y
    for x in range(1, 256):
        for y in range(x + 1, 256):
            if dyadic.apart(x, y):
                assert dyadic.top_bit(x + y) == dyadic.top_bit(y)
                assert dyadic.low_bit(x + y) == dyadic.low_bit(x)


@given(_apart_sets())
def test_apart_subset_sums_distinct(values):
    sums = dyadic.finite_sums(values)
    assert len(sums) == (1 << len(values)) - 1
