"""Request-driven colorings of dyadic blocks.

A request function assigns to every pair (n, w) with n < low_bit(w) an
element of the block at exponent n.  On each block B^s this induces a
graph: every vertex w contributes one edge from w to w + R(n, w) for each
n below its lowest bit.  That graph is always a tree, so counting signed
edge crossings along the unique path from the block root 2**s yields a
coloring c with c(w + R(n, w)) == c(w) + 1 (mod r) for every request.

signed_count / color_mod evaluate colorings without materializing trees.
For requests factored through (level, low bit, top bit) -- the class the
limit constructions produce -- a table of base-increment potentials gives
the value with at most s*(s+1)/2 + s request evaluations in the block at
exponent s, which keeps exponents near 60 feasible.  Arbitrary requests
fall back to a target-splitting recursion whose cost grows with the digit
weight of the bridge endpoints it meets; it is exact at any size but
intended for small exponents.  color_mod_bfs materializes the whole tree
and is the reference oracle both evaluators are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .dyadic import low_bit, top_bit
from .errors import GuardError, Guards

_MASK64 = (1 << 64) - 1


def block_max(n: int) -> int:
    """The largest member of the block at exponent n."""
    return (1 << (n + 1)) - 1


class RequestFunction:
    """Total deterministic map (n, w) -> member of the block at exponent n.

    Wraps a raw callable and checks the block-membership contract on every
    evaluation; a request value outside its block would silently break the
    tree structure, so it is rejected immediately.
    """

    def __init__(self, fn: Callable[[int, int], int], description: str = "request"):
        self._fn = fn
        self.description = description

    def __call__(self, n: int, w: int) -> int:
        value = self._fn(n, w)
        if value < 1 or top_bit(value) != n:
            raise ValueError(
                "request %s returned %r at (n=%d, w=%d), not in block %d"
                % (self.description, value, n, w, n)
            )
        return value

    def __repr__(self):
        return "RequestFunction(%s)" % self.description


class TriRequestFunction:
    """Request map factored through three coordinates: (n, k, s) -> B^n."""

    def __init__(self, fn: Callable[[int, int, int], int], description: str = "tri request"):
        self._fn = fn
        self.description = description

    def __call__(self, n: int, k: int, s: int) -> int:
        value = self._fn(n, k, s)
        if value < 1 or top_bit(value) != n:
            raise ValueError(
                "tri request %s returned %r at (n=%d, k=%d, s=%d), not in block %d"
                % (self.description, value, n, k, s, n)
            )
        return value


def lift_tri(tri: TriRequestFunction) -> RequestFunction:
    """Turn a three-coordinate request into a full one via (n, w) ->
    tri(n, low_bit(w), top_bit(w)).

    The lifted function remembers its factored core, which lets the
    coloring evaluators use the quadratic base-potential scheme instead of
    the generic recursion.
    """
    lifted = RequestFunction(
        lambda n, w: tri(n, low_bit(w), top_bit(w)),
        description="lifted %s" % tri.description,
    )
    lifted.tri = tri
    return lifted


def extend_request(partial=None, description: str = "extended request") -> RequestFunction:
    """Extend a partial request map totally, defaulting to the block maximum.

    partial may be a dict keyed by (n, w) or a callable returning None
    where undefined.  Dict values are validated eagerly; a value outside
    its block is rejected.
    """
    if partial is None:
        partial = {}
    if isinstance(partial, dict):
        for (n, _w), value in partial.items():
            if value < 1 or top_bit(value) != n:
                raise ValueError(
                    "partial request value %r not in block %d" % (value, n)
                )
        lookup = partial.get
    else:
        lookup = lambda key: partial(*key)  # noqa: E731 - tiny adapter

    def fn(n, w):
        value = lookup((n, w))
        return block_max(n) if value is None else value

    return RequestFunction(fn, description)


def default_request() -> RequestFunction:
    """The all-defaults request: R(n, w) = 2**(n+1) - 1."""
    return extend_request(description="default")


def _mix(*parts: int) -> int:
    # splitmix64-style mixing, folding arbitrarily wide ints 64 bits at a
    # time; deterministic across processes and platforms.
    h = 0x9E3779B97F4A7C15
    for part in parts:
        p = int(part)
        while True:
            h = (h ^ (p & _MASK64)) & _MASK64
            h = (h * 0xBF58476D1CE4E5B9) & _MASK64
            h ^= h >> 27
            h = (h * 0x94D049BB133111EB) & _MASK64
            h ^= h >> 31
            p >>= 64
            if p == 0:
                break
    return h


def random_request(seed: int) -> RequestFunction:
    """A seeded pseudorandom request function, uniform on each block.

    The value at (n, w) depends only on (seed, n, w), so the function is
    deterministic and reproducible from the seed alone.
    """

    def fn(n, w):
        return (1 << n) + (_mix(seed, n, w) % (1 << n))

    return RequestFunction(fn, description="random(seed=%d)" % seed)


def random_tri_request(seed: int) -> TriRequestFunction:
    """A seeded pseudorandom request factored through three coordinates."""

    def fn(n, k, s):
        return (1 << n) + (_mix(seed, n, k, s) % (1 << n))

    return TriRequestFunction(fn, description="random tri(seed=%d)" % seed)


class CountingTriRequest:
    """Instrumentation wrapper for factored requests."""

    def __init__(self, inner: TriRequestFunction):
        self.inner = inner
        self.description = inner.description
        self.count = 0

    def __call__(self, n, k, s):
        self.count += 1
        return self.inner(n, k, s)


class MemoRequest:
    """Observationally pure memo wrapper shared across evaluations.

    Safe under the usual dict discipline: concurrent reads, idempotent
    single-key writes; results never depend on interleaving.
    """

    def __init__(self, inner: RequestFunction):
        self.inner = inner
        self.description = inner.description
        self._memo: Dict[Tuple[int, int], int] = {}

    def __call__(self, n, w):
        key = (n, w)
        value = self._memo.get(key)
        if value is None:
            value = self.inner(n, w)
            self._memo[key] = value
        return value


class CountingRequest:
    """Instrumentation wrapper counting evaluations reaching the inner map."""

    def __init__(self, inner):
        self.inner = inner
        self.description = getattr(inner, "description", "counted")
        self.count = 0

    def __call__(self, n, w):
        self.count += 1
        return self.inner(n, w)


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
        if not issues:
            roots = {find(v) for v in range(size)}
            if len(roots) != 1:
                issues.append("%d components, expected 1" % len(roots))
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


def bridge(w: int, n: int, request: Callable[[int, int], int]) -> tuple:
    """The unique edge joining the low and high halves of the span
    [w, w + 2**(n+1)); its low endpoint is w itself."""
    if n >= low_bit(w):
        raise ValueError(
            "bridge needs n < low_bit(w); got n=%d, low_bit(%d)=%d" % (n, w, low_bit(w))
        )
    return (w, w + request(n, w))


def signed_count(request: Callable[[int, int], int], w: int) -> int:
    """Signed edge count from the block root 2**top_bit(w) to w.

    Every edge is oriented from w' to w' + R(n', w'); traversals along the
    orientation count +1 and against it -1.  Requests carrying a factored
    core (see lift_tri) are evaluated through the quadratic base-potential
    table; anything else goes through the generic span recursion.  Request
    evaluations are memoized for the duration of one call either way.
    """
    if w < 2:
        raise ValueError("colorable vertices start at 2, got %r" % (w,))
    tri = getattr(request, "tri", None)
    if tri is not None:
        return _signed_count_factored(tri, w)
    return _signed_count_generic(request, w)


def _signed_count_factored(tri, w: int) -> int:
    # Signed counts are potential differences Phi on the block tree, and
    # every bridge satisfies Phi(base + R(level, base)) = Phi(base) + 1.
    # Walking the bridge endpoint's offset bits expresses the potential
    # increment of setting one bit of a base,
    #   delta(l, i) = Phi(base + 2**i) - Phi(base)       (low_bit(base) = l)
    #               = 1 - sum(delta(l', b) over offset bits b),
    # which depends on the base only through its low bit when the request
    # is factored.  The table has at most s*(s+1)/2 entries, one request
    # evaluation each, and Phi(w) telescopes over w's own set bits.
    s = top_bit(w)
    table: Dict[Tuple[int, int], int] = {}

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

    total = 0
    low = s
    for j in range(s - 1, -1, -1):
        if (w >> j) & 1:
            total += delta(low, j)
            low = j
    return total


def _signed_count_generic(request, w: int) -> int:
    s = top_bit(w)
    memo: Dict[Tuple[int, int], int] = {}

    def req(n, base):
        key = (n, base)
        value = memo.get(key)
        if value is None:
            value = request(n, base)
            memo[key] = value
        return value

    def potentials(base, level, targets):
        # Signed counts from `base` to each target inside the aligned
        # span [base, base + 2**(level+1)); base has all bits below
        # level+1 clear, so it is the span's own tree anchor.
        out = {}
        pending = []
        for t in targets:
            if t == base:
                out[t] = 0
            else:
                pending.append(t)
        if not pending:
            return out
        assert level >= 0, "targets escaped their span"
        half = 1 << level
        lows = [t for t in pending if t < base + half]
        highs = [t for t in pending if t >= base + half]
        if lows:
            out.update(potentials(base, level - 1, lows))
        if highs:
            high_entry = base + req(level, base)
            sub = potentials(base + half, level - 1, set(highs) | {high_entry})
            shift = 1 - sub[high_entry]
            for t in highs:
                out[t] = sub[t] + shift
        return out

    return potentials(1 << s, s - 1, {w})[w]


def color_mod(request: Callable[[int, int], int], w: int, modulus: int) -> int:
    """The request-tree coloring of w in Z_modulus; block roots get 0.

    Satisfies color_mod(R, w + R(n, w), r) == color_mod(R, w, r) + 1 (mod r)
    for every n < low_bit(w).
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2, got %r" % (modulus,))
    return signed_count(request, w) % modulus


def color_parity(request: Callable[[int, int], int], w: int) -> int:
    """Two-coloring specialization; signed and plain path length agree mod 2."""
    return color_mod(request, w, 2)


def tree_coloring(request: Callable[[int, int], int], modulus: int = 2):
    """color_mod as a one-argument coloring, total on the positive integers.

    1 is the root of its own one-vertex block, so it gets color 0 like
    every block root; color_mod itself starts at 2.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2, got %r" % (modulus,))

    def color(w):
        return 0 if w == 1 else color_mod(request, w, modulus)

    return color


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
