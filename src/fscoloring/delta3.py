"""Priority coloring construction against staged membership families.

For each family index i and stage pair (k, s), a candidate set collects
the first 2**i block exponents where the staged approximation currently
sees a member.  A chooser picks the least index claiming a given exponent
and the request function returns the least staged member of that block,
falling back to the block maximum.  Feeding the request function to the
tree coloring yields a two-coloring that, for every fixture set that is
infinite and weakly apart, colors two of its finite sums differently; the
witness finders below reproduce that on concrete fixtures and return
fully re-verified reports.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from . import dyadic
from .dyadic import block_upto, finite_sums, low_bit, top_bit
from .errors import GuardError, Guards, MissingOracleError, VerificationError, WitnessSearchError
from .families import Delta3Family
from .treecolor import RequestFunction, TriRequestFunction, block_max, lift_tri, tree_coloring

_engines = weakref.WeakKeyDictionary()


class _Engine:
    """Per-family memo store; observationally pure."""

    def __init__(self, family):
        self.family = family
        self.candidates = {}
        self.requests = {}


def _engine(family) -> _Engine:
    engine = _engines.get(family)
    if engine is None:
        engine = _Engine(family)
        _engines[family] = engine
    return engine


def block_indicator(family: Delta3Family, i: int, n: int, k: int, s: int,
                    max_exponent: int = Guards.block_exponent) -> int:
    """1 iff some member of the block at exponent n is staged-in at (k, s)."""
    if n < 0:
        raise ValueError("block exponent must be nonnegative")
    if n > max_exponent:
        raise GuardError("block_exponent", max_exponent, n)
    return int(any(family.evaluate(i, x, k, s) for x in dyadic.iter_block(n)))


@dataclass(frozen=True)
class CandidateSet:
    """The first (at most) 2**i staged-nonempty block exponents in (i, s)."""

    index: int
    k: int
    s: int
    members: tuple

    def __contains__(self, n):
        return n in self.members


def candidate_set(family: Delta3Family, i: int, k: int, s: int,
                  max_exponent: int = Guards.block_exponent) -> CandidateSet:
    """Collect up to 2**i exponents n in the open interval (i, s) whose
    block currently looks inhabited by family i."""
    engine = _engine(family)
    key = (i, k, s)
    cached = engine.candidates.get(key)
    if cached is not None:
        return cached
    quota = 1 << i
    members = []
    for n in range(i + 1, s):
        if block_indicator(family, i, n, k, s, max_exponent=max_exponent):
            members.append(n)
            if len(members) == quota:
                break
    result = CandidateSet(index=i, k=k, s=s, members=tuple(members))
    engine.candidates[key] = result
    return result


def chooser_at_stages(family: Delta3Family, n: int, k: int, s: int,
                      max_exponent: int = Guards.block_exponent) -> int:
    for i in range(min(n, family.count)):
        if n in candidate_set(family, i, k, s, max_exponent=max_exponent):
            return i
    return n


def chooser(family: Delta3Family, n: int, w: int,
            max_exponent: int = Guards.block_exponent) -> int:
    """Least family index below n whose candidate set claims n, else n."""
    if n >= low_bit(w):
        raise ValueError("chooser needs n < low_bit(w)")
    return chooser_at_stages(family, n, low_bit(w), top_bit(w), max_exponent=max_exponent)


def request_at_stages(family: Delta3Family, n: int, k: int, s: int,
                      max_exponent: int = Guards.block_exponent) -> int:
    """The request value at explicit stage parameters (k, s)."""
    if n > max_exponent:
        raise GuardError("block_exponent", max_exponent, n)
    engine = _engine(family)
    key = (n, k, s)
    cached = engine.requests.get(key)
    if cached is not None:
        return cached
    j = chooser_at_stages(family, n, k, s, max_exponent=max_exponent)
    value = block_max(n)
    for x in dyadic.iter_block(n):
        if family.evaluate(j, x, k, s):
            value = x
            break
    engine.requests[key] = value
    return value


def request(family: Delta3Family, n: int, w: int,
            max_exponent: int = Guards.block_exponent) -> int:
    """Least block member the chosen family stages in, else the block max.

    Factors through (n, low_bit(w), top_bit(w)): the staged approximations
    only ever see those two measures of w.
    """
    if n >= low_bit(w):
        raise ValueError("request needs n < low_bit(w)")
    return request_at_stages(family, n, low_bit(w), top_bit(w), max_exponent=max_exponent)


def request_function(family: Delta3Family,
                     max_exponent: int = Guards.block_exponent) -> RequestFunction:
    tri = TriRequestFunction(
        lambda n, k, s: request_at_stages(family, n, k, s, max_exponent=max_exponent),
        description="staged-membership request (%s)" % (family.description or "family"),
    )
    return lift_tri(tri)


def coloring(family: Delta3Family, max_exponent: int = Guards.block_exponent):
    """The two-coloring induced by the family's request function, total on
    positives (see treecolor.tree_coloring)."""
    color = tree_coloring(request_function(family, max_exponent=max_exponent))
    color.description = "membership-killer coloring (%s)" % (family.description or "family")
    return color


def candidate_limit(family: Delta3Family, i: int,
                    horizon: int = Guards.horizon) -> tuple:
    """The limit candidate set, computed from truth.

    The first 2**i exponents n > i whose block meets the i-th truth set;
    raises if the horizon is exhausted first (finite or too-sparse truth).
    """
    quota = 1 << i
    members = []
    for n in range(i + 1, horizon + 1):
        if family.block_members(i, n):
            members.append(n)
            if len(members) == quota:
                return tuple(members)
    raise WitnessSearchError(
        "only %d of %d inhabited blocks above %d found up to horizon %d"
        % (len(members), quota, i, horizon),
        bound=horizon,
        quantifier="infinitely many inhabited blocks",
    )


def check_candidate_settling(family: Delta3Family, i: int, *, horizon: int = Guards.horizon,
                             sample_offsets=(1, 2, 5)) -> tuple:
    """Cross-check staged candidate sets against the truth limit.

    Samples stage pairs beyond the settling bounds; any disagreement is a
    fixture or construction bug and raises VerificationError.
    Returns the limit set.
    """
    limit = candidate_limit(family, i, horizon=horizon)
    big_n = max(limit)
    query = block_upto(big_n)
    k_floor = family.settle_k(i, query)
    for dk in sample_offsets:
        k = k_floor + dk
        s_floor = max(family.settle_s(i, k, query), big_n)
        for ds in sample_offsets:
            s = s_floor + ds
            staged = candidate_set(family, i, k, s).members
            if staged != limit:
                raise VerificationError(
                    "candidate set at (k=%d, s=%d) is %r, truth limit is %r"
                    % (k, s, staged, limit)
                )
    return limit


@dataclass(frozen=True)
class Delta3Witness:
    """Certified kill of one fixture set by the membership construction.

    The element x and the two sums w1 < w2 all belong to the fixture's
    truth set, are pairwise apart, and the coloring separates w1 + w2 from
    x + w1 + w2; both of those are sums of at most three fixture members.
    """

    index: int
    x: int
    w1: int
    w2: int
    color_sum: int
    color_sum_with_x: int
    mode: str
    bookkeeping: dict = field(default_factory=dict)

    @property
    def sum(self) -> int:
        return self.w1 + self.w2

    @property
    def sum_with_x(self) -> int:
        return self.x + self.w1 + self.w2


def verify_witness(family: Delta3Family, witness: Delta3Witness,
                   max_exponent: int = Guards.block_exponent) -> None:
    """Recompute every claim in a witness from scratch.

    Uses a fresh request engine so no memoized state from the search is
    trusted; raises VerificationError on the first disagreement.
    """
    fresh = Delta3Family(
        sets=family.sets, delay=family.delay,
        evaluator=family._evaluator, count=family.count,
        description=family.description,
    )
    x, w1, w2 = witness.x, witness.w1, witness.w2
    for value in (x, w1, w2):
        if family.has_truth and not fresh.truth(witness.index, value):
            raise VerificationError("%d is not a member of fixture %d" % (value, witness.index))
    if not (dyadic.apart(x, w1) and dyadic.apart(w1, w2)):
        raise VerificationError("witness elements are not pairwise apart")
    w = w1 + w2
    if request(fresh, top_bit(x), w, max_exponent=max_exponent) != x:
        raise VerificationError("request at (%d, %d) does not return x=%d" % (top_bit(x), w, x))
    color = coloring(fresh, max_exponent=max_exponent)
    c1, c2 = color(w), color(w + x)
    if (c1, c2) != (witness.color_sum, witness.color_sum_with_x):
        raise VerificationError("recomputed colors (%d, %d) differ from report" % (c1, c2))
    if c1 == c2:
        raise VerificationError("colors of %d and %d agree" % (w, w + x))
    sums = finite_sums(sorted((x, w1, w2)), 3)
    if w not in sums or w + x not in sums:
        raise VerificationError("claimed sums are not 3-term finite sums of the witness")


def find_witness(family: Delta3Family, i: int, *, mode: str = "oracle",
                 bound: int = Guards.blind_bound,
                 horizon: int = Guards.horizon,
                 max_exponent: int = Guards.block_exponent) -> Delta3Witness:
    """Find x << w1 << w2 in fixture i with differing sum colors.

    Oracle mode walks the limit argument: settle the candidate set, pick
    w1 beyond the candidate pool with low_bit above the k-settling bound,
    then w2 beyond the induced stage bound, and read x off the request
    function.  Blind mode enumerates member pairs up to the value bound
    and tests directly; exhaustion raises, it never silently succeeds.
    """
    if mode == "oracle":
        witness = _oracle_witness(family, i, horizon, max_exponent)
    elif mode == "blind":
        witness = _blind_witness(family, i, bound, horizon, max_exponent)
    else:
        raise ValueError("mode must be 'oracle' or 'blind', got %r" % (mode,))
    verify_witness(family, witness, max_exponent=max_exponent)
    return witness


def _oracle_witness(family, i, horizon, max_exponent):
    if not family.has_truth:
        raise MissingOracleError(
            "fixture %d has no truth/settling oracle; use blind mode with a bound" % i
        )
    ok, certificate = family.weak_apart_on(i, horizon)
    if not ok:
        raise WitnessSearchError(
            "fixture %d is not weakly apart on the horizon: %r" % (i, certificate),
            bound=horizon,
            quantifier="weak apartness",
        )
    limit = check_candidate_settling(family, i, horizon=horizon)
    pool = [x for n in limit for x in family.block_members(i, n)]
    big_n = max(limit)
    query = block_upto(big_n)
    settle_k = family.settle_k(i, query)
    pool_top = max(top_bit(x) for x in pool)

    w1 = _first_member(
        family, i,
        lambda v: low_bit(v) > max(pool_top, settle_k),
        horizon, "w1 with low bit above the pool and the k-settling bound",
    )
    k = low_bit(w1)
    settle_s = family.settle_s(i, k, query)
    w2 = _first_member(
        family, i,
        lambda v: dyadic.apart(w1, v) and top_bit(v) > settle_s,
        horizon, "w2 apart from w1 with top bit above the stage bound",
    )
    w = w1 + w2
    for x in pool:
        if request(family, top_bit(x), w, max_exponent=max_exponent) == x:
            break
    else:
        raise VerificationError(
            "no pool element is requested at the settled stages; fixture oracle is unsound"
        )
    color = coloring(family, max_exponent=max_exponent)
    return Delta3Witness(
        index=i, x=x, w1=w1, w2=w2,
        color_sum=color(w), color_sum_with_x=color(w + x),
        mode="oracle",
        bookkeeping={
            "candidate_limit": limit,
            "pool": tuple(pool),
            "settle_k": settle_k,
            "k": k,
            "settle_s": settle_s,
            "s": top_bit(w2),
        },
    )


def _blind_witness(family, i, bound, horizon, max_exponent):
    if not family.has_truth:
        raise MissingOracleError("blind search still needs member enumeration")
    members = []
    for x in family.members(i):
        if x > bound:
            break
        members.append(x)
    color = coloring(family, max_exponent=max_exponent)
    for a, w1 in enumerate(members):
        for w2 in members[a + 1:]:
            if not dyadic.apart(w1, w2) or w1 + w2 > bound:
                continue
            w = w1 + w2
            for x in members:
                if x >= w1 or not dyadic.apart(x, w1):
                    continue
                if request(family, top_bit(x), w, max_exponent=max_exponent) != x:
                    continue
                c1, c2 = color(w), color(w + x)
                if c1 != c2:
                    return Delta3Witness(
                        index=i, x=x, w1=w1, w2=w2,
                        color_sum=c1, color_sum_with_x=c2,
                        mode="blind", bookkeeping={"bound": bound},
                    )
    raise WitnessSearchError(
        "no witness for fixture %d below %d (not a claim that none exists)" % (i, bound),
        bound=bound,
        quantifier="witness triple",
    )


def _first_member(family, i, predicate, horizon, what):
    for x in family.members(i):
        if top_bit(x) > horizon:
            break
        if predicate(x):
            return x
    raise WitnessSearchError(
        "horizon %d exhausted looking for %s in fixture %d" % (horizon, what, i),
        bound=horizon,
        quantifier=what,
    )
