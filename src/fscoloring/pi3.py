"""Staged priority construction against monotone counting families.

For a block exponent n, the construction guesses which family owns the
block: a family qualifies at stage parameters (y, k, s) when its minimum
count over the block stays below k, and a priority rule hands each family
to at most one exponent per column.  The chosen family's guess element (a
block member of minimal count) defines a three-coordinate request; its
mod-2**n tree coloring turns every vertex w into a base count, and the
full request R(n, w) is the base-count-th member of the block.  Walking a
chain of fixture members whose consecutive guess equations have settled
makes the suffix sums realize every base count, so some finite sum of the
fixture is requested exactly at its own block member; the induced
two-coloring then separates two finite sums of the fixture.

Each run builds one Pi3Engine, which holds the construction's memos:
the staged index table, the stable indices, and one lifted guess request
per exponent n, whose factored core keeps its base-increment tables
(treecolor.TriRequestFunction).  Recomputation yields identical values,
so the memos are observationally pure; they live as long as the engine.
Every verify builds a fresh one and never reads a search's engine; it
hands back its engine's coloring, with which a product kill colors its
two sums.  One priority recurrence
(_priority) fills the first two, read at finite stages through block
minima (mins of the family's evaluate) and in the limit through block
members; check_stage_settling compares the two readings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from . import dyadic
from .dyadic import low_bit, top_bit
from .errors import GuardError, Guards, VerificationError, WitnessSearchError
from .treecolor import RequestFunction, TreeColoring, TriRequestFunction, color_mod, lift_tri

SETTLING_OFFSETS = (1, 3)  # where check_stage_settling samples y, k, s past their bounds
BLIND_RETRIES = 64  # failed guess equations a blind chain search retries


def guess_bound(family, i, n, y, s) -> int:
    """Minimum family count over the block at exponent n."""
    return family.block_min(i, n, y, s)[0]


def guess_element(family, i, n, y, s) -> int:
    """Least block member realizing the minimum count (ties to the least x)."""
    return family.block_min(i, n, y, s)[1]


def _priority(memo, key, n, claims, count) -> Optional[int]:
    """Fill memo[key(m)] for m = 1..n, in increasing m, and return the
    entry at n: the least i < m with claims(i, m) that no smaller
    exponent took, else None.

    Every index at or past count (the catalog's size) reads as the empty
    set, so they all claim alike: past the catalog one claim, at count,
    decides them, and if it holds the entry is the least index in
    [count, m) not yet taken.
    """
    taken = set()
    for m in range(1, n + 1):
        entry = key(m)
        if entry not in memo:
            memo[entry] = next(
                (i for i in range(min(m, count)) if i not in taken and claims(i, m)), None)
            if memo[entry] is None and count < m and claims(count, m):
                memo[entry] = next((i for i in range(count, m) if i not in taken), None)
        if memo[entry] is not None:
            taken.add(memo[entry])
    return memo[entry]


class Pi3Engine:
    """One run's request synthesizer over a monotone family.

    Holds the staged priority table, keyed (n, y, k, s), the stable
    (limit) index of each exponent, and the lifted guess request of each
    exponent n (guesses), built on the first base_count(n, .) and kept
    with its base-increment tables (at most s*(s+1)/2 entries per block
    exponent s).  Requests are served at every exponent
    up to chain_bits, not only at the witness's block exponent: full
    colorings query requests at every level below the vertex's top bit,
    and the modulus 2**n stays cheap because guesses read block minima
    from the family's set descriptors (MonotoneFamily.block_min), never
    scanning a block.
    """

    def __init__(self, family, chain_bits=Guards.chain_bits):
        self.family = family
        self.chain_bits = chain_bits
        self.table = {}
        self.stable = {}
        self.guesses = {}

    def stage_index(self, n, y, k, s) -> Optional[int]:
        """Priority index over the domain 0 < n < y <= k <= s: the
        priority recurrence over the indices whose block bound sits below
        k at (y, s); None encodes "no index"."""
        key = (n, y, k, s)
        if key in self.table:
            return self.table[key]
        if not (0 < n < y <= k <= s):
            raise ValueError(
                "stage index needs 0 < n < y <= k <= s, got (n=%r, y=%r, k=%r, s=%r)"
                % (n, y, k, s)
            )
        family = self.family
        return _priority(self.table, lambda m: (m, y, k, s), n,
                         lambda i, m: guess_bound(family, i, m, y, s) < k, family.count)

    def stable_index(self, n) -> Optional[int]:
        """Limit priority index at exponent n: the priority recurrence over
        the indices whose truth set meets the block."""
        if n in self.stable:
            return self.stable[n]
        if n < 1:
            raise ValueError("exponents start at 1, got %r" % (n,))
        return _priority(self.stable, lambda m: m, n, self.family.block_members,
                         self.family.count)

    def q(self, n, y, k, s) -> int:
        """The guess request: chosen family's guess element of the block at
        exponent y with parameters (k, s); 2**y off the staged domain or
        when no family is chosen."""
        if 0 < n < y <= k <= s:
            j = self.stage_index(n, y, k, s)
            if j is not None:
                return guess_element(self.family, j, y, k, s)
        return 1 << y

    def base_count(self, n, w) -> int:
        """Coloring of w in Z_{2**n} under the n-th guess request."""
        guess = self.guesses.get(n)
        if guess is None:
            guess = self.guesses[n] = lift_tri(TriRequestFunction(
                lambda y, k, s: self.q(n, y, k, s), description="guess request at exponent %d" % n))
        return color_mod(guess, w, 1 << n)

    def request(self, n, w) -> int:
        if n >= low_bit(w):
            raise ValueError("request needs n < low_bit(w)")
        if n == 0:
            return 1
        if n > self.chain_bits:
            raise GuardError("chain_bits", self.chain_bits, n)
        return (1 << n) + self.base_count(n, w)

    def coloring(self):
        """The two-coloring induced by the synthesized request function,
        total on positives (see treecolor.TreeColoring)."""
        name = self.family.description or "family"
        request = RequestFunction(self.request, description="staged-count request (%s)" % name)
        return TreeColoring(request, description="count-killer coloring (%s)" % name)


def request(family, n, w) -> int:
    """R(n, w) from a fresh engine."""
    return Pi3Engine(family).request(n, w)


def coloring(family, chain_bits=Guards.chain_bits):
    """The family's count-killer coloring; it keeps one engine for its life."""
    return Pi3Engine(family, chain_bits).coloring()


def check_stage_settling(engine, n) -> Optional[int]:
    """Cross-check staged indices against the truth limit at exponent n.

    Samples columns beyond the settling bounds computed from the family's
    oracle; disagreement raises VerificationError.  Returns the limit.
    """
    family = engine.family
    limit = engine.stable_index(n)
    for dy in SETTLING_OFFSETS:
        y = n + dy
        k_thr, need_ramp = _column_requirements(engine, n, y)
        for dk in SETTLING_OFFSETS:
            k = max(k_thr + dk, y)
            s_floor = k
            if need_ramp:
                s_floor = max(s_floor, family.divergence_stage(0, 1, y, k))
            for ds in SETTLING_OFFSETS:
                s = s_floor + ds
                staged = engine.stage_index(n, y, k, s)
                if staged != limit:
                    raise VerificationError(
                        "stage index at (n=%d, y=%d, k=%d, s=%d) is %r, limit is %r"
                        % (n, y, k, s, staged, limit)
                    )
    return limit


def _column_requirements(engine, n, y) -> Tuple[int, bool]:
    """Settling requirements for one column of the staged table.

    Returns (k_threshold, need_ramp): once k exceeds the threshold, and
    the ramp has reached k whenever need_ramp holds, every staged index at
    exponents up to n equals its truth limit.  Inhabited blocks keep their
    bound below the threshold at every stage; empty blocks need the ramp
    to pass k unless the priority rule already excludes their index.
    """
    family = engine.family
    k_thr = 1
    need_ramp = False
    assigned = set()
    for m in range(1, n + 1):
        for i in range(m):
            if i in assigned:
                continue
            limit = family.block_limit(i, m, y)
            if limit is None:
                need_ramp = True
            else:
                k_thr = max(k_thr, limit + 1)
        value = engine.stable_index(m)
        if value is not None:
            assigned.add(value)
    return k_thr, need_ramp


@dataclass(frozen=True)
class Chain:
    """Members x_1 << ... << x_m of one fixture whose consecutive guess
    equations hold at the final stage top_bit(x_m)."""

    index: int
    block_exponent: int
    elements: tuple

    @property
    def final_stage(self) -> int:
        return top_bit(self.elements[-1])


def build_chain(engine, i, n, count, floor, *, mode="oracle") -> Chain:
    """A chain of `count` fixture members below 2**engine.chain_bits,
    lowest bit above `floor`.

    Oracle mode derives the needed bit gaps from the settling oracle and
    then confirms every link by direct evaluation; blind mode searches
    greedily with bounded retries.  Either way a returned chain has had
    all its guess equations checked at the concrete final stage.
    """
    if count < 1:
        raise ValueError("chain length must be positive")
    if mode == "oracle":
        elements = _oracle_chain(engine, i, n, count, floor)
    elif mode == "blind":
        elements = _blind_chain(engine, i, n, count, floor)
    else:
        raise ValueError("mode must be 'oracle' or 'blind', got %r" % (mode,))
    chain = Chain(index=i, block_exponent=n, elements=tuple(elements))
    failed = _failing_link(engine, n, chain.elements)
    if failed is not None:
        raise VerificationError(
            "guess equation fails at link %d of chain %r" % (failed, chain.elements)
        )
    return chain


def _failing_link(engine, n, elements) -> Optional[int]:
    if len(elements) < 2:
        return None
    stage = top_bit(elements[-1])
    for g in range(len(elements) - 1):
        if engine.q(n, top_bit(elements[g]), low_bit(elements[g + 1]), stage) != elements[g]:
            return g
    return None


def _oracle_chain(engine, i, n, count, floor):
    chain_bits = engine.chain_bits
    members = engine.family.members_upto_bit(i, engine.chain_bits)
    chain = []
    cursor = 0

    def advance(predicate, what):
        nonlocal cursor
        while cursor < len(members):
            x = members[cursor]
            cursor += 1
            if predicate(x):
                return x
        raise WitnessSearchError(
            "members below 2**%d exhausted looking for %s" % (chain_bits, what),
            bound=chain_bits, quantifier=what,
        )

    def link_after(prev):
        k_thr, _ = _column_requirements(engine, n, top_bit(prev))
        return lambda x: dyadic.apart(prev, x) and low_bit(x) > k_thr

    chain.append(advance(lambda x: low_bit(x) > floor, "chain start"))
    while len(chain) < count:
        chain.append(advance(link_after(chain[-1]), "link %d" % len(chain)))

    # Stretch the last element until the final stage satisfies every link.
    while True:
        stage_needed = _required_final_stage(engine, i, n, chain)
        if top_bit(chain[-1]) >= stage_needed:
            break
        if len(chain) == 1:
            chain[-1] = advance(
                lambda x: low_bit(x) > floor and top_bit(x) >= stage_needed,
                "final element with stage %d" % stage_needed,
            )
            continue
        chain[-1] = advance(link_after(chain[-2]), "final element with stage %d" % stage_needed)
    return chain


def _required_final_stage(engine, i, n, chain) -> int:
    family = engine.family
    needed = 0
    for g in range(len(chain) - 1):
        y = top_bit(chain[g])
        k = low_bit(chain[g + 1])
        k_thr, need_ramp = _column_requirements(engine, n, y)
        needed = max(needed, k)
        if need_ramp:
            needed = max(needed, family.divergence_stage(i, chain[g], y, k))
        ceiling = family.member_limit(i, chain[g], k)
        needed = max(needed, family.divergence_stage(i, chain[g], k, ceiling + 1))
    return needed


def _blind_chain(engine, i, n, count, floor):
    chain_bits = engine.chain_bits
    members = engine.family.members_upto_bit(i, engine.chain_bits)
    chain = []
    cursor = 0
    budget = BLIND_RETRIES
    while True:
        while len(chain) < count and cursor < len(members):
            x = members[cursor]
            cursor += 1
            if not chain:
                if low_bit(x) > floor:
                    chain.append(x)
            elif dyadic.apart(chain[-1], x):
                chain.append(x)
        if len(chain) < count:
            raise WitnessSearchError(
                "members below 2**%d exhausted at chain length %d of %d"
                % (chain_bits, len(chain), count),
                bound=chain_bits, quantifier="chain element",
            )
        failed = _failing_link(engine, n, chain)
        if failed is None:
            return chain
        budget -= 1
        if budget <= 0:
            raise WitnessSearchError(
                "gave up after %d retries; guess equation keeps failing at link %d"
                % (BLIND_RETRIES, failed),
                bound=BLIND_RETRIES, quantifier="settled guess equation",
            )
        del chain[failed + 1:]


@dataclass(frozen=True)
class RequestSpread:
    """Suffix sums of a chain together with their pairwise-distinct
    request values, jointly exhausting the block at the chain's exponent."""

    chain: Chain
    sums: tuple      # suffix sums, longest first
    requests: tuple  # request value of each sum

    def pairs(self):
        return tuple(zip(self.sums, self.requests))


def distinct_requests(engine, i, n, *, mode="oracle") -> RequestSpread:
    """Realize every block member as a request value over fixture sums.

    Builds a chain of 2**n + 1 members and forms the suffix sums with at
    least two terms; consecutive sums differ by one settled guess request,
    so their base counts step by one mod 2**n and the 2**n request values
    are pairwise distinct, exhausting the block.
    """
    if n < 1:
        raise ValueError("request spread needs a positive exponent")
    size = 1 << n
    chain = build_chain(engine, i, n, size + 1, n, mode=mode)
    sums = tuple(sum(chain.elements[j:]) for j in range(size))
    for w in sums:
        if low_bit(w) <= n:
            raise VerificationError("suffix sum %d has low bit at or below %d" % (w, n))
    requests = tuple(engine.request(n, w) for w in sums)
    counts = [r - size for r in requests]
    for j in range(size - 1):
        if (counts[j] - counts[j + 1]) % size != 1:
            raise VerificationError(
                "base counts of consecutive sums do not step by one: %r" % (counts,)
            )
    if sorted(requests) != dyadic.block(n):
        raise VerificationError(
            "request values %r do not exhaust the block at exponent %d" % (requests, n)
        )
    return RequestSpread(chain=chain, sums=sums, requests=requests)


@dataclass(frozen=True)
class Pi3Witness:
    """Certified kill of one fixture set by the counting construction."""

    index: int
    block_exponent: int
    x: int
    w: int
    color_w: int
    color_w_plus_x: int
    chain: tuple
    sums: tuple
    requests: tuple
    mode: str
    bookkeeping: dict = field(default_factory=dict)

    @property
    def w_plus_x(self) -> int:
        return self.w + self.x

    def certificates(self) -> dict:
        """The fixture members summing to w (the chain suffix whose sum it
        is) and to w + x, keyed by the field or property that gives each sum."""
        if self.w not in self.sums:
            raise VerificationError("w is not a suffix sum of the chain")
        w_terms = self.chain[self.sums.index(self.w):]
        return {"w": w_terms, "w_plus_x": tuple(sorted((self.x,) + w_terms))}


def find_witness(family, i, *, mode="oracle",
                 max_request_exponent=Guards.request_exponent,
                 chain_bits=Guards.chain_bits,
                 horizon=Guards.horizon) -> Pi3Witness:
    """Find a fixture sum w with request exactly the fixture's block member.

    Locates the exponent the fixture stabilizes at, spreads the request
    values over suffix sums, picks the sum requested at the unique block
    member, and separates its color from the sum plus that member.  The
    chain, the spread and the coloring share one engine; the result is
    re-verified from a fresh engine, never the search's, before being
    returned.
    """
    return _find_verified(family, i, mode, max_request_exponent, chain_bits, horizon)[0]


def _find_verified(family, i, mode, max_request_exponent, chain_bits, horizon):
    """find_witness's witness and the coloring its verify built and returned."""
    engine = Pi3Engine(family, chain_bits)
    ok, certificate = family.weak_apart_on(i, min(horizon, chain_bits))
    if not ok:
        raise WitnessSearchError(
            "fixture %d is not weakly apart on the horizon: %r" % (i, certificate),
            bound=horizon, quantifier="weak apartness",
        )
    n = next((m for m in range(1, max_request_exponent + 1) if engine.stable_index(m) == i), None)
    if n is None:
        raise WitnessSearchError(
            "fixture %d claims no exponent up to %d" % (i, max_request_exponent),
            bound=max_request_exponent, quantifier="stable block exponent",
        )
    spread = distinct_requests(engine, i, n, mode=mode)
    block_members = family.block_members(i, n)
    if len(block_members) != 1:
        raise VerificationError(
            "stable exponent %d should hold exactly one member, found %r"
            % (n, block_members)
        )
    x = block_members[0]
    w = next((w for w, value in spread.pairs() if value == x), None)
    if w is None:
        raise VerificationError("no suffix sum is requested at %d" % x)
    color = engine.coloring()
    witness = Pi3Witness(
        index=i, block_exponent=n, x=x, w=w,
        color_w=color(w), color_w_plus_x=color(w + x),
        chain=spread.chain.elements, sums=spread.sums, requests=spread.requests,
        mode=mode,
        bookkeeping={"final_stage": spread.chain.final_stage},
    )
    return witness, verify_witness(family, witness, chain_bits=chain_bits)


def verify_witness(family, witness: Pi3Witness, *, chain_bits=Guards.chain_bits) -> TreeColoring:
    """Recompute every claim in a witness from a fresh engine, never a
    search's, and return that engine's coloring, which has just colored w
    and w + x and which a product kill colors them with again."""
    engine = Pi3Engine(family, chain_bits)
    i, n = witness.index, witness.block_exponent
    # Check the spread's shape before any work that grows with 2**n.
    size = len(witness.sums)
    if not (0 < n < size.bit_length() and size == 1 << n):
        raise VerificationError("a spread at exponent %d needs 2**%d sums, found %d" % (n, n, size))
    if len(witness.chain) != size + 1 or len(witness.requests) != size:
        raise VerificationError(
            "a spread of %d sums needs %d chain elements and %d requests, found %d and %d"
            % (size, size + 1, size, len(witness.chain), len(witness.requests))
        )
    if engine.stable_index(n) != i:
        raise VerificationError("exponent %d is not stable for fixture %d" % (n, i))
    for x in witness.chain:
        if not family.truth(i, x):
            raise VerificationError("chain element %d outside fixture %d" % (x, i))
    for a, b in zip(witness.chain, witness.chain[1:]):
        if not dyadic.apart(a, b):
            raise VerificationError("chain elements %d, %d are not apart" % (a, b))
    failed = _failing_link(engine, n, witness.chain)
    if failed is not None:
        raise VerificationError("guess equation fails at link %d" % failed)
    expected_sums = tuple(sum(witness.chain[j:]) for j in range(size))
    if witness.sums != expected_sums:
        raise VerificationError("claimed sums are not the chain's suffix sums")
    requests = tuple(engine.request(n, w) for w in witness.sums)
    if requests != witness.requests or sorted(requests) != dyadic.block(n):
        raise VerificationError("recomputed request values disagree or miss the block")
    if not family.truth(i, witness.x) or top_bit(witness.x) != n:
        raise VerificationError("x is not the fixture's member of the block")
    if engine.request(n, witness.w) != witness.x:
        raise VerificationError("w is not requested at x")
    if low_bit(witness.w) <= n:
        raise VerificationError("w has low bit at or below the block exponent")
    color = engine.coloring()
    c1, c2 = color(witness.w), color(witness.w + witness.x)
    if (c1, c2) != (witness.color_w, witness.color_w_plus_x):
        raise VerificationError("recomputed colors (%d, %d) differ from report" % (c1, c2))
    if c1 == c2:
        raise VerificationError("colors of %d and %d agree" % (witness.w, witness.w + witness.x))
    return color
