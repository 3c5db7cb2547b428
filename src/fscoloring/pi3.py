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

The staged index table is memoized per family; recomputation yields
identical values, so caches are observationally pure and parameter sweeps
parallelize freely.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional, Tuple

from . import dyadic
from .dyadic import low_bit, top_bit
from .errors import GuardError, Guards, VerificationError, WitnessSearchError
from .treecolor import (
    RequestFunction, TriRequestFunction, color_mod, color_parity, lift_tri, tree_coloring,
)

_MISSING = object()
_engines = weakref.WeakKeyDictionary()


def guess_bound(family, i, n, y, s, max_exponent=Guards.block_exponent) -> int:
    """Minimum family count over the block at exponent n."""
    return _block_min(family, i, n, y, s, max_exponent)[0]


def guess_element(family, i, n, y, s, max_exponent=Guards.block_exponent) -> int:
    """Least block member realizing the minimum count (ties to the least x)."""
    return _block_min(family, i, n, y, s, max_exponent)[1]


def _block_min(family, i, n, y, s, max_exponent):
    if n < 0:
        raise ValueError("block exponent must be nonnegative")
    fast = getattr(family, "block_min", None)
    if fast is not None:
        return fast(i, n, y, s)
    if n > max_exponent:
        raise GuardError("block_exponent", max_exponent, n)
    best_value, best_x = None, None
    for x in dyadic.iter_block(n):
        value = family.evaluate(i, x, y, s)
        if best_value is None or value < best_value:
            best_value, best_x = value, x
    return best_value, best_x


class StageTable:
    """Memoized priority indices over the domain 0 < n < y <= k <= s.

    index(n, y, k, s) is the least family index below n whose block bound
    sits below k and which no smaller exponent of the same column has
    claimed; None encodes "no index".  Columns are filled in increasing n,
    so the exclusion clause always refers to already-fixed entries.
    """

    def __init__(self, family):
        self.family = family
        self._table = {}
        self._bounds = {}

    def bound(self, i, n, y, s) -> int:
        key = (i, n, y, s)
        value = self._bounds.get(key)
        if value is None:
            value = guess_bound(self.family, i, n, y, s)
            self._bounds[key] = value
        return value

    def index(self, n, y, k, s) -> Optional[int]:
        if not (0 < n < y <= k <= s):
            raise ValueError(
                "stage index needs 0 < n < y <= k <= s, got (n=%r, y=%r, k=%r, s=%r)"
                % (n, y, k, s)
            )
        cached = self._table.get((n, y, k, s), _MISSING)
        if cached is not _MISSING:
            return cached
        taken = set()
        result = None
        for m in range(1, n + 1):
            mkey = (m, y, k, s)
            value = self._table.get(mkey, _MISSING)
            if value is _MISSING:
                value = None
                for i in range(m):
                    if i not in taken and self.bound(i, m, y, s) < k:
                        value = i
                        break
                self._table[mkey] = value
            if value is not None:
                taken.add(value)
            if m == n:
                result = value
        return result


class Pi3Engine:
    """Per-family request synthesizer with shared memo tables."""

    # The request evaluator serves every exponent up to the chain bit guard,
    # not only the witness search's request_exponent: full colorings query
    # requests at every level below the vertex's top bit, and the modulus
    # 2**n stays cheap because guesses never scan blocks elementwise when
    # the family provides block minima.
    def __init__(self, family, max_request_exponent=Guards.chain_bits):
        self.family = family
        self.max_request_exponent = max_request_exponent
        self.table = StageTable(family)
        self._tris = {}
        self._base_counts = {}

    def q(self, n, y, k, s) -> int:
        """The guess request: chosen family's guess element of the block at
        exponent y with parameters (k, s); 2**y off the staged domain or
        when no family is chosen."""
        if 0 < n < y <= k <= s:
            j = self.table.index(n, y, k, s)
            if j is not None:
                return guess_element(self.family, j, y, k, s)
        return 1 << y

    def tri(self, n) -> TriRequestFunction:
        cached = self._tris.get(n)
        if cached is None:
            cached = TriRequestFunction(
                lambda y, k, s: self.q(n, y, k, s),
                description="guess request at exponent %d" % n,
            )
            self._tris[n] = cached
        return cached

    def base_count(self, n, w) -> int:
        """Coloring of w in Z_{2**n} under the n-th guess request."""
        key = (n, w)
        value = self._base_counts.get(key)
        if value is None:
            value = color_mod(lift_tri(self.tri(n)), w, 1 << n)
            self._base_counts[key] = value
        return value

    def request(self, n, w) -> int:
        if n >= low_bit(w):
            raise ValueError("request needs n < low_bit(w)")
        if n == 0:
            return 1
        if n > self.max_request_exponent:
            raise GuardError("request_exponent", self.max_request_exponent, n)
        return (1 << n) + self.base_count(n, w)


def _engine(family) -> Pi3Engine:
    engine = _engines.get(family)
    if engine is None:
        engine = Pi3Engine(family)
        _engines[family] = engine
    return engine


def stage_index(family, n, y, k, s) -> Optional[int]:
    return _engine(family).table.index(n, y, k, s)


def q_fn(family, n, y, k, s) -> int:
    return _engine(family).q(n, y, k, s)


def request(family, n, w) -> int:
    return _engine(family).request(n, w)


def request_function(family) -> RequestFunction:
    engine = _engine(family)
    return RequestFunction(
        engine.request,
        description="staged-count request (%s)" % (getattr(family, "description", "") or "family"),
    )


def coloring(family):
    """The two-coloring induced by the synthesized request function, total on
    positives (see treecolor.tree_coloring)."""
    color = tree_coloring(request_function(family))
    color.description = "count-killer coloring (%s)" % (getattr(family, "description", "") or "family")
    return color


def stable_index(family, n) -> Optional[int]:
    """Limit priority index at exponent n, computed from truth.

    The recurrence assigns to each exponent the least family index whose
    truth set meets the block and which no smaller exponent has already
    taken.
    """
    if n < 1:
        raise ValueError("exponents start at 1, got %r" % (n,))
    engine = _engine(family)
    stable = getattr(engine, "_stable", None)
    if stable is None:
        stable = engine._stable = {}
    if n in stable:
        return stable[n]
    taken = set()
    for m in range(1, n + 1):
        if m in stable:
            value = stable[m]
        else:
            value = None
            for i in range(min(m, family.count)):
                if i not in taken and family.block_members(i, m):
                    value = i
                    break
            stable[m] = value
        if value is not None:
            taken.add(value)
    return stable[n]


def check_stage_settling(family, n, *, sample_offsets=(1, 3)) -> Optional[int]:
    """Cross-check staged indices against the truth limit at exponent n.

    Samples columns beyond the settling bounds computed from the family's
    oracle; disagreement raises VerificationError.  Returns the limit.
    """
    engine = _engine(family)
    limit = stable_index(family, n)
    for dy in sample_offsets:
        y = n + dy
        k_thr, need_ramp = _column_requirements(engine, n, y)
        for dk in sample_offsets:
            k = max(k_thr + dk, y)
            s_floor = k
            if need_ramp:
                s_floor = max(s_floor, family.divergence_stage(0, 1, y, k))
            for ds in sample_offsets:
                s = s_floor + ds
                staged = engine.table.index(n, y, k, s)
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
            limit = family.block_limit(i, m, y) if i < family.count else None
            if limit is None:
                need_ramp = True
            else:
                k_thr = max(k_thr, limit + 1)
        value = stable_index(family, m)
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


def build_chain(family, i, n, count, floor, *, mode="oracle",
                chain_bits=Guards.chain_bits) -> Chain:
    """A chain of `count` fixture members, lowest bit above `floor`.

    Oracle mode derives the needed bit gaps from the settling oracle and
    then confirms every link by direct evaluation; blind mode searches
    greedily with bounded retries.  Either way a returned chain has had
    all its guess equations checked at the concrete final stage.
    """
    if count < 1:
        raise ValueError("chain length must be positive")
    engine = _engine(family)
    if mode == "oracle":
        elements = _oracle_chain(engine, i, n, count, floor, chain_bits)
    elif mode == "blind":
        elements = _blind_chain(engine, i, n, count, floor, chain_bits)
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


def _members_upto(family, i, chain_bits) -> list:
    out = []
    for x in family.members(i):
        if top_bit(x) > chain_bits:
            break
        out.append(x)
    return out


def _oracle_chain(engine, i, n, count, floor, chain_bits):
    family = engine.family
    members = _members_upto(family, i, chain_bits)
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

    chain.append(advance(lambda x: low_bit(x) > floor, "chain start"))
    while len(chain) < count:
        prev = chain[-1]
        k_thr, _ = _column_requirements(engine, n, top_bit(prev))
        chain.append(advance(
            lambda x: dyadic.apart(prev, x) and low_bit(x) > k_thr,
            "link %d" % len(chain),
        ))

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
        prev = chain[-2]
        k_thr, _ = _column_requirements(engine, n, top_bit(prev))
        chain[-1] = advance(
            lambda x: dyadic.apart(prev, x) and low_bit(x) > k_thr,
            "final element with stage %d" % stage_needed,
        )
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


def _blind_chain(engine, i, n, count, floor, chain_bits, retries=64):
    family = engine.family
    members = _members_upto(family, i, chain_bits)
    chain = []
    cursor = 0
    budget = retries
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
                % (retries, failed),
                bound=retries, quantifier="settled guess equation",
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


def distinct_requests(family, i, n, *, mode="oracle",
                      chain_bits=Guards.chain_bits) -> RequestSpread:
    """Realize every block member as a request value over fixture sums.

    Builds a chain of 2**n + 1 members and forms the suffix sums with at
    least two terms; consecutive sums differ by one settled guess request,
    so their base counts step by one mod 2**n and the 2**n request values
    are pairwise distinct, exhausting the block.
    """
    if n < 1:
        raise ValueError("request spread needs a positive exponent")
    engine = _engine(family)
    size = 1 << n
    chain = build_chain(family, i, n, size + 1, n, mode=mode, chain_bits=chain_bits)
    sums = tuple(sum(chain.elements[j:]) for j in range(size))
    for w in sums:
        if low_bit(w) <= n:
            raise VerificationError("suffix sum %d has low bit at or below %d" % (w, n))
    requests = tuple(engine.request(n, w) for w in sums)
    counts = [engine.base_count(n, w) for w in sums]
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


def find_witness(family, i, *, mode="oracle",
                 max_request_exponent=Guards.request_exponent,
                 chain_bits=Guards.chain_bits,
                 horizon=Guards.horizon) -> Pi3Witness:
    """Find a fixture sum w with request exactly the fixture's block member.

    Locates the exponent the fixture stabilizes at, spreads the request
    values over suffix sums, picks the sum requested at the unique block
    member, and separates its color from the sum plus that member.  The
    result is re-verified from a fresh engine before being returned.
    """
    ok, certificate = family.weak_apart_on(i, min(horizon, chain_bits))
    if not ok:
        raise WitnessSearchError(
            "fixture %d is not weakly apart on the horizon: %r" % (i, certificate),
            bound=horizon, quantifier="weak apartness",
        )
    n = None
    for candidate in range(1, max_request_exponent + 1):
        if stable_index(family, candidate) == i:
            n = candidate
            break
    if n is None:
        raise WitnessSearchError(
            "fixture %d claims no exponent up to %d" % (i, max_request_exponent),
            bound=max_request_exponent, quantifier="stable block exponent",
        )
    spread = distinct_requests(family, i, n, mode=mode, chain_bits=chain_bits)
    block_members = family.block_members(i, n)
    if len(block_members) != 1:
        raise VerificationError(
            "stable exponent %d should hold exactly one member, found %r"
            % (n, block_members)
        )
    x = block_members[0]
    w = None
    for candidate_w, value in spread.pairs():
        if value == x:
            w = candidate_w
            break
    if w is None:
        raise VerificationError("no suffix sum is requested at %d" % x)
    color = coloring(family)
    witness = Pi3Witness(
        index=i, block_exponent=n, x=x, w=w,
        color_w=color(w), color_w_plus_x=color(w + x),
        chain=spread.chain.elements, sums=spread.sums, requests=spread.requests,
        mode=mode,
        bookkeeping={"final_stage": spread.chain.final_stage},
    )
    verify_witness(family, witness)
    return witness


def verify_witness(family, witness: Pi3Witness) -> None:
    """Recompute every claim in a witness from a fresh engine."""
    engine = Pi3Engine(family)
    i, n = witness.index, witness.block_exponent
    if stable_index(family, n) != i:
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
    size = 1 << n
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
    fn = RequestFunction(engine.request, description="verify")
    c1, c2 = color_parity(fn, witness.w), color_parity(fn, witness.w + witness.x)
    if (c1, c2) != (witness.color_w, witness.color_w_plus_x):
        raise VerificationError("recomputed colors (%d, %d) differ from report" % (c1, c2))
    if c1 == c2:
        raise VerificationError("colors of %d and %d agree" % (witness.w, witness.w + witness.x))
