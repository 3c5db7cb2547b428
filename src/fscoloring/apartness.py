"""Colorings that defeat sets without weak apartness, and apartness extraction.

Two numbers sharing a top bit push the top bit of their sum one higher;
three numbers sharing a low bit contain two whose residues agree two bits
up, so their sum's low bit lands one higher.  Coloring by the parities of
the two bit measures therefore separates some two-term sum of any set
that fails weak apartness.  Product colorings combine such components
with the construction colorings.

extract_apart thins an arbitrary increasing stream into one with full
apartness while keeping every output a sum of a private block of stream
elements, so finite sums of the output stay finite sums of the input.
extract_progression gives the same outputs for an arithmetic progression,
solving each block from the progression's start and step instead of
scanning the stream for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .dyadic import low_bit, top_bit
from .errors import GuardError, Guards


def top_bit_parity(x: int) -> int:
    return top_bit(x) & 1


def low_bit_parity(x: int) -> int:
    return low_bit(x) & 1


def weak_apartness_killer(x: int) -> tuple:
    """The pair coloring (top-bit parity, low-bit parity)."""
    return (top_bit_parity(x), low_bit_parity(x))


def product(colorings):
    """Pointwise tuple of colorings, flattening tuple-valued components.

    A set is monochromatic under the product iff it is monochromatic under
    every component.
    """
    colorings = tuple(colorings)
    if not colorings:
        raise ValueError("product of no colorings")

    def color(w):
        out = []
        for component in colorings:
            value = component(w)
            if isinstance(value, tuple):
                out.extend(value)
            else:
                out.append(value)
        return tuple(out)

    color.description = "product of %d colorings" % len(colorings)
    color.arity = len(color(2))  # tree components reject vertices below 2
    return color


@dataclass(frozen=True)
class ExtractionCertificate:
    """One output element together with the stream block realizing it.

    value equals the sum of the block; blocks of successive outputs are
    disjoint runs of the input stream, so any finite sum of outputs is a
    finite sum of pairwise distinct input elements.
    """

    value: int
    block: tuple           # consecutive input elements, in stream order
    first_index: int       # 0-based position of block[0] in the input stream

    def check(self) -> None:
        if sum(self.block) != self.value:
            raise ValueError(
                "certificate block sums to %d, not %d" % (sum(self.block), self.value)
            )


def extract_apart(stream: Iterable[int], max_bits: int = Guards.extract_bits
                  ) -> Iterator[ExtractionCertificate]:
    """Thin an increasing stream into a fully apart sequence, with receipts.

    The first stream element is emitted as-is.  After emitting b, the next
    output is found by scanning prefix sums of the remaining stream until
    two share a residue mod 2**(top_bit(b)+1); the enclosed run sums to a
    multiple of that power, which forces its low bit above top_bit(b).
    The pigeonhole bounds the scan by 2**(top_bit(b)+1) + 1 prefix sums,
    so each output consumes a finite prefix.  A finite stream ends the
    sequence when it runs out.

    The scan marks each residue it has met in a table of 2**(top_bit(b)+1)
    bytes; after the repeat, the block's start is found by walking back from
    the repeat, summing the window's tail until it vanishes mod
    2**(top_bit(b)+1), so finding it costs one step per block element, not
    one per window element before the block.  The window may still hold 2**(top_bit(b)+1)
    stream elements, so an output whose modulus exponent top_bit(b)+1
    exceeds max_bits is refused with a GuardError before its scan starts.

    This scan serves any iterable; an arithmetic progression has the same
    outputs, solved in closed form, from extract_progression.
    """
    source = iter(stream)
    first = next(source, None)
    if first is None:
        return
    yield ExtractionCertificate(value=first, block=(first,), first_index=0)
    previous, position = first, 1
    while True:
        bits = top_bit(previous) + 1
        if bits > max_bits:
            raise GuardError("extract_bits", max_bits, bits)
        mask = (1 << bits) - 1
        start = position
        window = []
        prefix = 0
        seen = bytearray(mask + 1)  # residues of the prefix sums met so far
        seen[0] = 1
        for element in source:
            position += 1
            window.append(element)
            prefix = (prefix + element) & mask
            if seen[prefix]:
                # the earlier prefix sums are pairwise distinct, so the
                # first nonempty tail summing to 0 mod 2**bits, walking
                # back from the repeat, starts at the one that repeated
                offset, total = len(window), 0
                while True:
                    offset -= 1
                    total = (total + window[offset]) & mask
                    if not total:
                        break
                block = tuple(window[offset:])
                previous = sum(block)
                yield ExtractionCertificate(
                    value=previous, block=block, first_index=start + offset
                )
                break
            seen[prefix] = 1
        else:
            return


def extract_progression(start: int, step: int, max_bits: int = Guards.extract_bits
                        ) -> Iterator[ExtractionCertificate]:
    """extract_apart(itertools.count(start, step), max_bits), solved per output.

    The scan's outputs depend only on where its first repeat falls, and in a
    progression that is the least solution of a congruence (_first_repeat),
    so each output costs O(bits) integer steps plus its block, which holds
    at most 2**bits elements, instead of a scan over up to 2**bits elements.
    The guard on bits is checked before every output, as in the scan.
    """
    if start < 1 or step < 1:
        raise ValueError("a progression needs positive start and step, got %d, %d"
                         % (start, step))
    yield ExtractionCertificate(value=start, block=(start,), first_index=0)
    position, x, previous = 1, start + step, start
    while True:
        bits = top_bit(previous) + 1
        if bits > max_bits:
            raise GuardError("extract_bits", max_bits, bits)
        j, m = _first_repeat(x, step, bits)
        block = tuple(range(x + (j - m) * step, x + j * step, step))
        previous = (block[0] + block[-1]) * m >> 1
        yield ExtractionCertificate(value=previous, block=block, first_index=position + j - m)
        position += j
        x += j * step


def _first_repeat(x: int, step: int, bits: int) -> tuple:
    """(j, m) for the scan of x, x + step, x + 2 step, ...: its prefix sum
    S_j is the first to agree mod 2**bits with an earlier one, S_(j-m).

    For prefixes i < j, with m = j - i and s = i + j,
    2 (S_j - S_i) = m (step s - target), where target = step - 2x.  So the
    first repeat is the least j = (s + m) / 2 over pairs with s >= m,
    s = m mod 2 and v2(m) + v2(step s - target) >= bits + 1.  For each
    t = v2(m), m = 2**t is best, and s is the least value >= m in one
    residue class modulo a power of two, solved with the inverse of step's
    odd part.  The prefixes before S_j are pairwise distinct mod 2**bits,
    so no two t give the same j, and the pair is the block the scan's walk
    back finds.
    """
    shift = low_bit(step)
    target = step - 2 * x
    inverse = pow(step >> shift, -1, 1 << (bits + 1))
    repeats = []
    for t in range(bits + 2):
        m, e = 1 << t, bits + 1 - t  # need step s = target mod 2**e
        if target % (1 << min(e, shift)):
            continue
        if e <= shift:  # step s vanishes mod 2**e: only s = m mod 2 binds
            residue, modulus = m & 1, 2
        else:
            modulus = 1 << (e - shift)
            residue = (target >> shift) * inverse % modulus
            if residue & 1 != m & 1:
                continue
        s = m + (residue - m) % modulus
        repeats.append(((s + m) >> 1, m))
    return min(repeats)
