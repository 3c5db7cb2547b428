"""Request-driven colorings of dyadic blocks.

A request function assigns to every pair (n, w) with n < low_bit(w) an
element of the block at exponent n.  On each block B^s this induces a
graph: every vertex w contributes one edge from w to w + R(n, w) for each
n below its lowest bit.  That graph is always a tree, so counting signed
edge crossings along the unique path from the block root 2**s yields a
coloring c with c(w + R(n, w)) == c(w) + 1 (mod r) for every request.

signed_counts evaluates colorings without materializing trees by
telescoping: the count of w is a sum of potential increments, one per set
bit of w, each derived from one bridge.  Every request keeps the
increments it has derived for as long as it lives, so however many calls,
vertices or batches read a block, each bridge is requested at most once:
2**s - 1 evaluations for a whole block at exponent s.  For requests
factored through (level, low bit, top bit) -- the class the limit
constructions produce -- the increments depend on a base only through its
low bit, so a block needs at most s*(s+1)/2 evaluations, which keeps
exponents near 60 feasible; the factored core (TriRequestFunction) keeps
one table per block exponent.  Arbitrary requests (RequestFunction) key
their table by vertex prefix, one entry per bridge reached; that is exact
at any size, but its cost grows with the bridges a vertex's path meets, so
it is intended for small exponents.  The table holds at most
GENERIC_MAX_ENTRIES entries; a block that needs more is finished by a span
recursion that reads the table and keeps nothing, in memory linear in s.
Both kinds of fn must be deterministic.  color_mod_bfs materializes the whole tree and is the
reference oracle both evaluators are validated against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from .dyadic import low_bit, top_bit
from .errors import GuardError, Guards

#: Largest top bits the factored and the generic evaluator accept.  Both
#: recursions nest one call per bit level, so deeper blocks would exhaust
#: the interpreter's stack.
FACTORED_MAX_EXPONENT = GENERIC_MAX_EXPONENT = 512

#: Most entries one request's generic table holds, about 60 MB.  It bounds
#: the memory of any single coloring of an arbitrary request, however far
#: out its vertices lie; the work past it is not bounded.
GENERIC_MAX_ENTRIES = 1 << 19

_MASK64 = (1 << 64) - 1
_MIX_A, _MIX_B = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # splitmix64's multipliers


def block_max(n: int) -> int:
    """The largest member of the block at exponent n."""
    return (1 << (n + 1)) - 1


@dataclass(frozen=True)
class RequestFunction:
    """Total deterministic map (n, w) -> member of the block at exponent n.

    Wraps a raw callable and checks the block-membership contract on every
    evaluation; a request value outside its block would silently break the
    tree structure, so it is rejected immediately.  tri, when set, is the
    factored core the request lifts (see lift_tri).

    fn must be deterministic: the generic evaluator keeps the potential
    increments it derives from fn in tables, a dict from head (a vertex
    prefix, one per bridge) to delta, for as long as this object lives.
    Each entry costs about 120 bytes, and the table stops growing at
    GENERIC_MAX_ENTRIES.  tables is not a constructor argument: every
    request, dataclasses.replace copies included, starts with its own
    empty table.
    """

    fn: Callable[[int, int], int]
    description: str = "request"
    tri: Optional[TriRequestFunction] = None
    tables: Dict[int, int] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, n: int, w: int) -> int:
        value = self.fn(n, w)
        if value < 1 or value.bit_length() != n + 1:
            raise ValueError(
                "request %s returned %r at (n=%d, w=%d), not in block %d"
                % (self.description, value, n, w, n)
            )
        return value


class TriRequestFunction:
    """Request map factored through three coordinates: (n, k, s) -> B^n.

    fn must be deterministic: the factored evaluator keeps the
    base-increment tables it derives from fn in tables, a dict from block
    exponent s to {(low, level): delta}, for as long as this object lives.
    Each table holds at most s*(s+1)/2 entries, one fn evaluation each.
    """

    def __init__(self, fn: Callable[[int, int, int], int], description: str = "tri request"):
        self._fn = fn
        self.description = description
        self.tables: Dict[int, Dict[Tuple[int, int], int]] = {}

    def __call__(self, n: int, k: int, s: int) -> int:
        value = self._fn(n, k, s)
        if value < 1 or value.bit_length() != n + 1:
            raise ValueError(
                "tri request %s returned %r at (n=%d, k=%d, s=%d), not in block %d"
                % (self.description, value, n, k, s, n)
            )
        return value


def lift_tri(tri: TriRequestFunction) -> RequestFunction:
    """Turn a three-coordinate request into a full one via (n, w) ->
    tri(n, low_bit(w), top_bit(w)).

    The lifted function carries its factored core, which lets the
    coloring evaluators use the quadratic base-potential table instead of
    the generic one, which holds an entry per bridge.
    """
    return RequestFunction(lambda n, w: tri(n, low_bit(w), top_bit(w)),
                           "lifted %s" % tri.description, tri)


def extend_request(partial=None, description: str = "extended request") -> RequestFunction:
    """Extend a partial request map totally, defaulting to the block maximum.

    partial may be a dict keyed by (n, w) or a deterministic callable
    returning None where undefined.  A dict is copied and its values are
    validated eagerly; a value outside its block is rejected, and later
    changes to the caller's dict do not reach the request, whose table
    keeps what it derived.
    """
    if partial is None:
        partial = {}
    if isinstance(partial, dict):
        for (n, _w), value in partial.items():
            if value < 1 or top_bit(value) != n:
                raise ValueError(
                    "partial request value %r not in block %d" % (value, n)
                )
        lookup = dict(partial).get
    else:
        lookup = lambda key: partial(*key)  # noqa: E731 - tiny adapter

    def fn(n, w):
        value = lookup((n, w))
        return block_max(n) if value is None else value

    return RequestFunction(fn, description)


def default_request() -> RequestFunction:
    """The all-defaults request: R(n, w) = 2**(n+1) - 1."""
    return extend_request(description="default")


def _absorb(h: int, part: int) -> int:
    # One splitmix64-style round per 64-bit limb of part, folded into the
    # state h; deterministic across processes and platforms.  A negative
    # part stops after its lowest limb, since shifting never clears it.
    p = int(part)
    while True:
        h = (h ^ (p & _MASK64)) & _MASK64
        h = (h * _MIX_A) & _MASK64
        h ^= h >> 27
        h = (h * _MIX_B) & _MASK64
        h ^= h >> 31
        p >>= 64
        if p <= 0:
            return h


def _mix(*parts: int) -> int:
    # Hash of arbitrarily wide ints.  Absorbing a shared prefix of parts
    # once and reusing the state gives the same values.
    h = 0x9E3779B97F4A7C15
    for part in parts:
        h = _absorb(h, part)
    return h


def random_request(seed: int) -> RequestFunction:
    """A seeded pseudorandom request function, uniform on each block.

    The value at (n, w) depends only on (seed, n, w), so the function is
    deterministic and reproducible from the seed alone.
    """
    seeded = _mix(seed)
    levels: Dict[int, int] = {}

    def fn(n, w):
        # (seed, n) is absorbed once per level; get/set keeps a concurrent
        # fill correct, since every writer stores the same value.  A w of
        # one limb takes _absorb's single round inline.
        state = levels.get(n)
        if state is None:
            state = levels[n] = _absorb(seeded, n)
        if 0 <= w <= _MASK64:
            h = ((state ^ w) * _MIX_A) & _MASK64
            h ^= h >> 27
            h = (h * _MIX_B) & _MASK64
            h ^= h >> 31
        else:
            h = _absorb(state, w)
        return (1 << n) + (h % (1 << n))

    return RequestFunction(fn, description="random(seed=%d)" % seed)


def random_tri_request(seed: int) -> TriRequestFunction:
    """A seeded pseudorandom request factored through three coordinates."""
    seeded = _mix(seed)

    def fn(n, k, s):
        return (1 << n) + (_absorb(_absorb(_absorb(seeded, n), k), s) % (1 << n))

    return TriRequestFunction(fn, description="random tri(seed=%d)" % seed)


def MemoRequest(inner: RequestFunction) -> RequestFunction:
    """inner behind an unbounded memo; observationally pure, as inner is.

    It saves nothing inside signed_counts, which reads every increment it
    derived from the request's own table; only direct request(n, w) calls
    hit the memo.
    """
    return RequestFunction(functools.lru_cache(maxsize=None)(inner), inner.description)


@dataclass(frozen=True)
class BlockTree:
    """Materialized request tree on one block: vertices [2**s, 2**(s+1))."""

    exponent: int
    edges: tuple  # (low endpoint, high endpoint, request exponent)

    def vertices(self) -> range:
        return range(1 << self.exponent, 1 << (self.exponent + 1))

    def problems(self) -> list:
        """Structural defects, empty when the edge set forms a tree."""
        s = self.exponent
        size = 1 << s
        lo, hi = size, 2 * size
        issues = []
        if len(self.edges) != size - 1:
            issues.append("edge count %d, expected %d" % (len(self.edges), size - 1))
        parent = list(range(size))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b, _n in self.edges:
            if not (lo <= a < hi and lo <= b < hi):
                issues.append("edge (%d, %d) leaves the block" % (a, b))
                continue
            ra, rb = find(a - lo), find(b - lo)
            if ra == rb:
                issues.append("cycle through edge (%d, %d)" % (a, b))
            else:
                parent[ra] = rb
        # With nothing found, each of the size - 1 edges joined two components,
        # and size - 1 such unions leave one: the edges span the block, so
        # no input needs a component scan.
        return issues

    def validate(self) -> None:
        issues = self.problems()
        if issues:
            raise ValueError("block tree invalid: " + "; ".join(issues))


def tree_edges(
    s: int, request: Callable[[int, int], int], max_exponent: int = Guards.tree_exponent
) -> BlockTree:
    """Materialize the request tree on the block at exponent s."""
    if s < 1:
        raise ValueError("tree exponent must be at least 1, got %r" % (s,))
    if s > max_exponent:
        raise GuardError("tree_exponent", max_exponent, s)
    edges = []
    for w in range(1 << s, 1 << (s + 1)):
        for n in range(low_bit(w)):
            edges.append((w, w + request(n, w), n))
    return BlockTree(exponent=s, edges=tuple(edges))


def signed_counts(request: RequestFunction, ws) -> dict:
    """{w: signed edge count from the block root 2**top_bit(w) to w} for ws.

    Every edge is oriented from w' to w' + R(n', w'); traversals along the
    orientation count +1 and against it -1.  Each block is evaluated once
    for all of its vertices in ws, through a table of potential increments
    that earlier calls may have filled and this call extends: for requests
    carrying a factored core (see lift_tri), the core's base-potential
    table at the block's exponent; for anything else, the request's own
    table of vertex prefixes.
    """
    blocks: Dict[int, set] = {}
    for w in ws:
        if w < 2:
            raise ValueError("colorable vertices start at 2, got %r" % (w,))
        blocks.setdefault(top_bit(w), set()).add(w)
    counts = {}
    for s, targets in blocks.items():
        counts.update(_factored_counts(request.tri, s, targets) if request.tri is not None
                      else _generic_counts(request, s, targets))
    return counts


def signed_count(request: RequestFunction, w: int) -> int:
    """Signed edge count from the block root 2**top_bit(w) to w."""
    return signed_counts(request, (w,))[w]


def _factored_counts(tri, s: int, targets) -> dict:
    # Signed counts are potential differences Phi on the block tree, and
    # every bridge satisfies Phi(base + R(level, base)) = Phi(base) + 1.
    # Walking the bridge endpoint's offset bits expresses the potential
    # increment of setting one bit of a base,
    #   delta(l, i) = Phi(base + 2**i) - Phi(base)       (low_bit(base) = l)
    #               = 1 - sum(delta(l', b) over offset bits b),
    # which depends on the base only through its low bit when the request
    # is factored.  The table has at most s*(s+1)/2 entries, one request
    # evaluation each, and Phi(w) telescopes over w's own set bits.  It
    # lives on tri, so later calls at the same s reuse it.
    if s > FACTORED_MAX_EXPONENT:
        raise GuardError("factored_exponent", FACTORED_MAX_EXPONENT, s)
    table = tri.tables.setdefault(s, {})

    def delta(low, level):
        key = (low, level)
        cached = table.get(key)
        if cached is not None:
            return cached
        offset = tri(level, low, s) - (1 << level)
        value = 1
        inner_low = level
        for b in range(level - 1, -1, -1):
            if (offset >> b) & 1:
                value -= delta(inner_low, b)
                inner_low = b
        table[key] = value
        return value

    counts = {}
    for w in targets:
        total, low = 0, s
        for j in range(s - 1, -1, -1):
            if (w >> j) & 1:
                total += delta(low, j)
                low = j
        counts[w] = total
    return counts


class _TableFull(Exception):
    """A request's generic table holds GENERIC_MAX_ENTRIES entries."""


def _generic_counts(request, s: int, targets) -> dict:
    # The telescoping of _factored_counts without the factoring.  A vertex
    # v with bit j set has the head v >> j << j, which names the bridge at
    # base head - 2**j and level j, and
    #   delta(head) = Phi(head) - Phi(head - 2**j)
    #               = 1 - sum(delta over the bridge endpoint's heads below j).
    # A head is a whole prefix (its low bit is its level), so the table has
    # one entry per bridge, at most 2**s - 1 per block, one request
    # evaluation each.  It lives on the request, so later calls reuse it.
    # A delta the full table cannot take hands the block to _span_counts.
    if s > GENERIC_MAX_EXPONENT:
        raise GuardError("generic_exponent", GENERIC_MAX_EXPONENT, s)
    table = request.tables
    limit = GENERIC_MAX_ENTRIES

    def delta(head, level):
        cached = table.get(head)
        if cached is not None:
            return cached
        half = 1 << level
        offset = request(level, head - half) - half
        key, value = head, 1
        while offset:
            b = offset.bit_length() - 1
            offset -= 1 << b
            key += 1 << b
            value -= delta(key, b)
        if len(table) >= limit:
            raise _TableFull
        table[head] = value
        return value

    counts = {}
    try:
        for w in targets:
            total, key, rest = 0, 1 << s, w - (1 << s)
            while rest:
                j = rest.bit_length() - 1
                rest -= 1 << j
                key += 1 << j
                total += delta(key, j)
            counts[w] = total
    except _TableFull:
        return _span_counts(request, s, targets)
    return counts


def _span_counts(request, s: int, targets) -> dict:
    # The generic counts in memory linear in s, for blocks whose bridges
    # overflow the request's table: a target-splitting recursion over
    # aligned spans.  Each span is visited once, so each bridge is
    # requested at most once per call, and none whose delta the table holds.
    table = request.tables

    def potentials(base, level, targets):
        # Signed counts from base to each target inside the aligned span
        # [base, base + 2**(level+1)); base has all bits below level+1
        # clear, so it is the span's own tree anchor.
        out = {t: 0 for t in targets if t == base}
        pending = [t for t in targets if t != base]
        if not pending:
            return out
        half = 1 << level
        lows = [t for t in pending if t < base + half]
        highs = [t for t in pending if t >= base + half]
        if lows:
            out.update(potentials(base, level - 1, lows))
        if highs:
            shift = table.get(base + half)
            if shift is None:
                high_entry = base + request(level, base)
                sub = potentials(base + half, level - 1, set(highs) | {high_entry})
                shift = 1 - sub[high_entry]
            else:
                sub = potentials(base + half, level - 1, highs)
            for t in highs:
                out[t] = sub[t] + shift
        return out

    return potentials(1 << s, s - 1, targets)


def color_mod(request: RequestFunction, w: int, modulus: int) -> int:
    """The request-tree coloring of w in Z_modulus; block roots get 0.

    Satisfies color_mod(R, w + R(n, w), r) == color_mod(R, w, r) + 1 (mod r)
    for every n < low_bit(w).
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2, got %r" % (modulus,))
    return signed_count(request, w) % modulus


def color_parity(request: RequestFunction, w: int) -> int:
    """Two-coloring specialization; signed and plain path length agree mod 2."""
    return color_mod(request, w, 2)


@dataclass(frozen=True)
class TreeColoring:
    """color_mod as a one-argument coloring, total on the positive integers.

    1 is the root of its own one-vertex block, so it gets color 0 like
    every block root; color_mod itself starts at 2.
    """

    request: RequestFunction
    modulus: int = 2
    description: str = "tree coloring"

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2, got %r" % (self.modulus,))

    def __call__(self, w: int) -> int:
        return 0 if w == 1 else color_mod(self.request, w, self.modulus)

    def table(self, ws) -> list:
        """The colors of the sequence ws, in order, block by block."""
        counts = signed_counts(self.request, [w for w in ws if w != 1])
        return [0 if w == 1 else counts[w] % self.modulus for w in ws]


def signed_counts_table(tree: BlockTree) -> dict:
    """Signed counts from the block root to every vertex, by tree walk."""
    adjacency: Dict[int, list] = {}
    for a, b, _n in tree.edges:
        adjacency.setdefault(a, []).append((b, 1))
        adjacency.setdefault(b, []).append((a, -1))
    root = 1 << tree.exponent
    counts = {root: 0}
    stack = [root]
    while stack:
        v = stack.pop()
        base = counts[v]
        for other, delta in adjacency.get(v, ()):
            if other not in counts:
                counts[other] = base + delta
                stack.append(other)
    return counts


def color_mod_bfs(
    request: Callable[[int, int], int],
    w: int,
    modulus: int,
    max_exponent: int = Guards.tree_exponent,
) -> int:
    """Reference evaluator: materialize the whole block tree and walk it.

    Exists solely to cross-validate color_mod; exponential in top_bit(w),
    hence guarded.
    """
    if w < 2:
        raise ValueError("colorable vertices start at 2, got %r" % (w,))
    if modulus < 2:
        raise ValueError("modulus must be at least 2, got %r" % (modulus,))
    tree = tree_edges(top_bit(w), request, max_exponent=max_exponent)
    return signed_counts_table(tree)[w] % modulus


def popcount_coloring(w: int) -> int:
    """Number of binary 1-digits of w, mod 2.

    Flipping a zero bit below low_bit(w) adds a digit, so this coloring
    separates w from w + 2**n for every n < low_bit(w).
    """
    if w < 1:
        raise ValueError("defined for positive integers, got %r" % (w,))
    return w.bit_count() & 1
