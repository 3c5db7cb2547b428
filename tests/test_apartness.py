from itertools import count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscoloring import apartness, cli
from fscoloring.apartness import (
    extract_apart,
    extract_progression,
    low_bit_parity,
    product,
    top_bit_parity,
    weak_apartness_killer,
)
from fscoloring.dyadic import (
    finite_sums,
    has_apartness,
    has_weak_apartness,
    low_bit,
    top_bit,
)
from fscoloring.errors import GuardError


@pytest.mark.parametrize(
    "x, top_p, low_p",
    [(5, 0, 0), (12, 1, 0), (4, 0, 0), (8, 1, 1), (1 << 9, 1, 1), (1 << 10, 0, 0)],
)
def test_parities(x, top_p, low_p):
    assert top_bit_parity(x) == top_p
    assert low_bit_parity(x) == low_p
    assert weak_apartness_killer(x) == (top_p, low_p)


def test_killer_equal_top_pair():
    # 5 and 6 share their top bit; the sum's top bit moves one higher
    assert top_bit_parity(5) != top_bit_parity(5 + 6)


def test_killer_equal_low_triple():
    # among 2, 6, 10 the pair 2, 10 agrees two bits above the shared low
    # bit, so the sum's low bit lands one higher
    assert (2 - 10) % 8 == 0
    assert low_bit_parity(2 + 10) != low_bit_parity(2)


def test_killer_spares_apart_sets():
    values = finite_sums([4, 16, 64], 2)
    assert {weak_apartness_killer(v) for v in values} == {(0, 0)}


def test_equal_top_pairs_exhaustive():
    for n in range(1, 10):
        members = list(range(1 << n, 1 << (n + 1)))
        for a_index, x1 in enumerate(members):
            for x2 in members[a_index + 1:]:
                assert top_bit_parity(x1) != top_bit_parity(x1 + x2)


def test_equal_low_residue_pairs_exhaustive():
    # any two numbers sharing both the low bit and the next bit sum to a
    # number whose low bit is exactly one higher
    for x1 in range(1, 1 << 9):
        for x2 in range(x1 + 1, 1 << 9):
            l = low_bit(x1)
            if low_bit(x2) == l and (x1 - x2) % (1 << (l + 2)) == 0:
                assert low_bit(x1 + x2) == l + 1
                assert low_bit_parity(x1 + x2) != low_bit_parity(x1)


def test_non_weak_apart_triples_not_monochromatic_small():
    for x1 in range(1, 64):
        for x2 in range(x1 + 1, 64):
            for x3 in range(x2 + 1, 64):
                ok, _cert = has_weak_apartness([x1, x2, x3])
                if ok:
                    continue
                colors = {weak_apartness_killer(v) for v in finite_sums([x1, x2, x3], 2)}
                assert len(colors) > 1, (x1, x2, x3)


def test_product_examples():
    single = product([top_bit_parity])
    assert single(12) == (1,)
    pair = product([weak_apartness_killer, low_bit_parity])
    assert pair.arity == 3
    assert pair(12) == (1, 0, 0)
    with pytest.raises(ValueError):
        product([])


def test_product_monochromatic_iff_components():
    values = [4, 16, 20]
    combined = product([top_bit_parity, low_bit_parity])
    assert len({combined(v) for v in values}) == 1
    assert len({top_bit_parity(v) for v in values}) == 1
    assert len({low_bit_parity(v) for v in values}) == 1


# -- extraction ------------------------------------------------------------


def oracle_extraction(stream, count_outputs):
    """Independent re-derivation: first output is the first element; each
    later output is the earliest-ending (then earliest-starting) run of
    subsequent elements whose sum the previous output's block size divides."""
    stream = list(stream)
    outputs = [(stream[0], (stream[0],), 0)]
    position = 1
    while len(outputs) < count_outputs:
        modulus = 1 << (top_bit(outputs[-1][0]) + 1)
        found = None
        for end in range(position + 1, len(stream) + 1):
            for start in range(position, end):
                block = tuple(stream[start:end])
                if sum(block) % modulus == 0:
                    found = (sum(block), block, start)
                    break
            if found:
                break
        assert found is not None, "oracle ran off its prefix"
        outputs.append(found)
        position = found[2] + len(found[1])
    return outputs


@pytest.mark.parametrize(
    "stream, expected_values",
    [
        (range(1, 200), [1, 2, 4, 8, 16, 32]),
        (range(1, 1000, 3), [1, 4, 16, 64, 256]),
    ],
)
def test_extraction_matches_oracle(stream, expected_values):
    stream = list(stream)
    certificates = list(islice(extract_apart(iter(stream)), len(expected_values)))
    oracle = oracle_extraction(stream, len(expected_values))
    assert [c.value for c in certificates] == [v for v, _b, _s in oracle]
    assert [c.value for c in certificates] == expected_values
    assert [c.block for c in certificates] == [b for _v, b, _s in oracle]
    assert [c.first_index for c in certificates] == [s for _v, _b, s in oracle]


def test_extraction_outputs_apart():
    values = [c.value for c in islice(extract_apart(count(1)), 10)]
    assert has_apartness(values)


def test_extraction_certificates():
    certificates = list(islice(extract_apart(count(1)), 10))
    previous_end = -1
    for certificate in certificates:
        certificate.check()
        assert certificate.first_index > previous_end
        previous_end = certificate.first_index + len(certificate.block) - 1


def test_extraction_finite_sums_inclusion():
    certificates = list(islice(extract_apart(count(1)), 4))
    outputs = [c.value for c in certificates]
    consumed = max(c.first_index + len(c.block) for c in certificates)
    prefix = list(range(1, consumed + 1))
    prefix_sums = set(finite_sums(prefix, max_elements=25))
    for value in finite_sums(outputs):
        assert value in prefix_sums


@given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_extraction_random_streams(increments):
    prefix, total = [], 0
    for step in increments:
        total += step
        prefix.append(total)

    def stream():
        yield from prefix
        x = prefix[-1]
        while True:
            x += 1
            yield x

    def element(index):
        if index < len(prefix):
            return prefix[index]
        return prefix[-1] + (index - len(prefix) + 1)

    certificates = list(islice(extract_apart(stream()), 3))
    values = [c.value for c in certificates]
    assert has_apartness(values)
    for certificate in certificates:
        certificate.check()
        chunk = tuple(
            element(j)
            for j in range(certificate.first_index, certificate.first_index + len(certificate.block))
        )
        assert chunk == certificate.block


class CountedInt(int):
    """An int that counts the additions it is the right operand of."""

    additions = 0

    def __radd__(self, other):
        CountedInt.additions += 1
        return int(other) + int(self)


@pytest.mark.parametrize("start, step, outputs, longest_block",
                         [(1, 3, 6, 1), (1, 2, 5, 2), (5, 2, 5, 8)])
def test_extraction_work_scales_with_blocks(start, step, outputs, longest_block):
    # one addition per element scanned, then two per block element: one on
    # the walk back to the block's start, one in its sum.  The window before
    # the block (255 elements before the sixth output of 1, 4, 7, ...) costs
    # nothing more after its scan.
    source = (CountedInt(x) for x in count(start, step))
    CountedInt.additions = 0
    certificates = list(islice(extract_apart(source), outputs))
    last = certificates[-1]
    scanned = last.first_index + len(last.block) - 1  # every element after the first
    assert max(len(c.block) for c in certificates) == longest_block
    assert CountedInt.additions == scanned + 2 * sum(len(c.block) for c in certificates[1:])
    assert next(source) == start + step * (scanned + 1)  # nothing read past the last block


def dict_scan_extraction(stream, max_bits):
    """The residue-dict scan extract_apart used before its byte table: the
    reference the byte-table scan must reproduce, element for element."""
    source = iter(stream)
    first = next(source, None)
    if first is None:
        return
    yield apartness.ExtractionCertificate(value=first, block=(first,), first_index=0)
    previous, position = first, 1
    while True:
        bits = top_bit(previous) + 1
        if bits > max_bits:
            raise GuardError("extract_bits", max_bits, bits)
        modulus = 1 << bits
        start = position
        window = []
        prefix = 0
        seen = {0: 0}  # residue -> number of elements summed
        for element in source:
            position += 1
            window.append(element)
            prefix += element
            residue = prefix % modulus
            if residue in seen:
                offset = seen[residue]
                block = tuple(window[offset:])
                previous = sum(block)
                yield apartness.ExtractionCertificate(
                    value=previous, block=block, first_index=start + offset
                )
                break
            seen[residue] = len(window)
        else:
            return


def run_scan(certificates):
    """Every certificate up to the end of the stream, then how it ended."""
    out = []
    try:
        for certificate in certificates:
            out.append(certificate)
    except (ValueError, GuardError) as failure:  # outputs below 1 have no top bit
        return out, type(failure), str(failure)
    return out, None, None


@given(st.integers(min_value=1, max_value=8),
       st.lists(st.integers(min_value=-30, max_value=300), max_size=300),
       st.integers(min_value=6, max_value=14))
@settings(max_examples=200, deadline=None)
def test_byte_table_scan_matches_dict_scan(first, rest, max_bits):
    # explicit streams need not increase: zero and negative elements included;
    # a small first element lets most draws finish a scan or two
    elements = [first, *rest]
    assert run_scan(extract_apart(iter(elements), max_bits)) == run_scan(
        dict_scan_extraction(iter(elements), max_bits))


def first_outputs(certificates, outputs=30):
    """run_scan over at most the first outputs certificates."""
    return run_scan(islice(certificates, outputs))


small_or_large = st.one_of(st.integers(min_value=1, max_value=64),
                           st.integers(min_value=1, max_value=10 ** 6))


@given(small_or_large, small_or_large, st.integers(min_value=4, max_value=16))
@settings(max_examples=200, deadline=None)
def test_progression_matches_scan(start, step, max_bits):
    # same certificates, then the same GuardError text at the same output
    assert first_outputs(extract_progression(start, step, max_bits)) == first_outputs(
        extract_apart(count(start, step), max_bits))


def test_progression_matches_scan_on_grid():
    # odd steps give one-element blocks; even ones longer blocks, up to 2**11
    # elements at a step of 32 and 2**12 at a step of 4
    longest = {}
    for start in range(1, 41):
        for step in range(1, 41):
            solved = first_outputs(extract_progression(start, step, 12))
            assert solved == first_outputs(extract_apart(count(start, step), 12)), (start, step)
            certificates, failure, _message = solved
            assert failure is GuardError
            longest[step] = max(longest.get(step, 0), *(len(c.block) for c in certificates))
    assert all(longest[step] == 1 for step in range(1, 41, 2))
    assert (longest[2], longest[4], longest[32]) == (64, 4096, 2048)


def test_progression_needs_positive_terms():
    for start, step in ((0, 1), (1, 0), (-3, 2)):
        with pytest.raises(ValueError, match="positive start and step"):
            next(extract_progression(start, step))


def test_extract_and_verify_solve_progressions(tmp_path, monkeypatch, capsys):
    # the twelfth output of 1, 4, 7, ... sits 1,398,101 elements in; neither
    # the command nor its verify scans for it
    def scan(*_args, **_kwargs):
        raise AssertionError("extract_apart scanned a progression")

    monkeypatch.setattr(apartness, "extract_apart", scan)
    report = tmp_path / "extraction.json"
    assert cli.main(["apartness", "extract", "--stream", "arith:1:3", "--count", "12",
                     "--out", str(report)]) == 0
    assert cli.main(["verify", str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "VERIFIED"
