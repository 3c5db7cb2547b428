"""Priority coloring construction against staged membership families.

For each family index i and stage pair (k, s), a candidate set collects
the first 2**i block exponents where the staged approximation currently
sees a member.  A chooser picks the least index claiming a given exponent
and the request function returns the least staged member of that block,
falling back to the block maximum.  Both block queries come from the
family's set descriptors (Delta3Family.block_first), never from a scan
of the block, so colorings stay cheap at top bits near 60.  Feeding the
request function to the tree coloring yields a two-coloring that, for
every fixture set that is infinite and weakly apart, colors two of its
finite sums differently; the witness finders below reproduce that on
concrete fixtures and return fully re-verified reports.  A candidate set
and its truth limit are one scan (_first_inhabited), read through the
staged block indicator and through the truth set's block members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import dyadic
from .dyadic import finite_sums, low_bit, top_bit
from .errors import Guards, VerificationError, WitnessSearchError
from .families import Delta3Family
from .treecolor import TreeColoring, TriRequestFunction, block_max, lift_tri

SETTLING_OFFSETS = (1, 2, 5)  # where check_candidate_settling samples k, s past their bounds


def block_indicator(family: Delta3Family, i: int, n: int, k: int, s: int) -> int:
    """1 iff some member of the block at exponent n is staged-in at (k, s)."""
    return int(family.block_first(i, n, k, s) is not None)


def _first_inhabited(i: int, stop: int, inhabited) -> tuple:
    """The first (at most) 2**i exponents n in (i, stop) with inhabited(n)."""
    found = []
    for n in range(i + 1, stop):
        if inhabited(n):
            found.append(n)
            if len(found) == 1 << i:
                break
    return tuple(found)


def candidate_set(family: Delta3Family, i: int, k: int, s: int) -> tuple:
    """Up to 2**i exponents n in the open interval (i, s) whose block
    currently looks inhabited by family i."""
    return _first_inhabited(i, s, lambda n: block_indicator(family, i, n, k, s))


def chooser_at_stages(family: Delta3Family, n: int, k: int, s: int) -> int:
    for i in range(min(n, family.count)):
        if n in candidate_set(family, i, k, s):
            return i
    return n


def chooser(family: Delta3Family, n: int, w: int) -> int:
    """Least family index below n whose candidate set claims n, else n."""
    if n >= low_bit(w):
        raise ValueError("chooser needs n < low_bit(w)")
    return chooser_at_stages(family, n, low_bit(w), top_bit(w))


def request_at_stages(family: Delta3Family, n: int, k: int, s: int) -> int:
    """The request value at explicit stage parameters (k, s)."""
    value = family.block_first(chooser_at_stages(family, n, k, s), n, k, s)
    return block_max(n) if value is None else value


def request(family: Delta3Family, n: int, w: int) -> int:
    """Least block member the chosen family stages in, else the block max.

    Factors through (n, low_bit(w), top_bit(w)): the staged approximations
    only ever see those two measures of w.
    """
    if n >= low_bit(w):
        raise ValueError("request needs n < low_bit(w)")
    return request_at_stages(family, n, low_bit(w), top_bit(w))


def coloring(family: Delta3Family):
    """The two-coloring induced by the family's request function, total on
    positives (see treecolor.TreeColoring); it keeps one factored request,
    and so its base-increment tables, for its life."""
    name = family.description or "family"
    tri = TriRequestFunction(lambda n, k, s: request_at_stages(family, n, k, s),
                             description="staged-membership request (%s)" % name)
    return TreeColoring(lift_tri(tri), description="membership-killer coloring (%s)" % name)


def candidate_limit(family: Delta3Family, i: int,
                    horizon: int = Guards.horizon) -> tuple:
    """The limit candidate set, computed from truth.

    The first 2**i exponents n > i whose block meets the i-th truth set;
    raises if the horizon is exhausted first (finite or too-sparse truth).
    """
    quota = 1 << i
    members = _first_inhabited(i, horizon + 1, lambda n: family.block_members(i, n))
    if len(members) == quota:
        return members
    raise WitnessSearchError(
        "only %d of %d inhabited blocks above %d found up to horizon %d"
        % (len(members), quota, i, horizon),
        bound=horizon,
        quantifier="infinitely many inhabited blocks",
    )


def check_candidate_settling(family: Delta3Family, i: int, *,
                             horizon: int = Guards.horizon) -> tuple:
    """Cross-check staged candidate sets against the truth limit.

    Samples stage pairs beyond the settling bounds; any disagreement is a
    fixture or construction bug and raises VerificationError.
    Returns the limit set.
    """
    limit = candidate_limit(family, i, horizon=horizon)
    big_n = max(limit)
    query = range(1, 1 << (big_n + 1))
    k_floor = family.settle_k(i, query)
    for dk in SETTLING_OFFSETS:
        k = k_floor + dk
        s_floor = max(family.settle_s(i, k, query), big_n)
        for ds in SETTLING_OFFSETS:
            s = s_floor + ds
            staged = candidate_set(family, i, k, s)
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

    def certificates(self) -> dict:
        """The fixture members summing to each separated sum, keyed by the
        property that gives that sum."""
        return {"sum": (self.w1, self.w2), "sum_with_x": tuple(sorted((self.x, self.w1, self.w2)))}


def verify_witness(family: Delta3Family, witness: Delta3Witness) -> TreeColoring:
    """Recompute every claim in a witness from scratch.

    Every function here is pure in the family, so nothing computed by the
    search is reused; raises VerificationError on the first disagreement.
    Returns the coloring it built, which has just colored both sums and
    which a product kill colors them with again.
    """
    x, w1, w2 = witness.x, witness.w1, witness.w2
    for value in (x, w1, w2):
        if not family.truth(witness.index, value):
            raise VerificationError("%d is not a member of fixture %d" % (value, witness.index))
    if not (dyadic.apart(x, w1) and dyadic.apart(w1, w2)):
        raise VerificationError("witness elements are not pairwise apart")
    w = w1 + w2
    if request(family, top_bit(x), w) != x:
        raise VerificationError("request at (%d, %d) does not return x=%d" % (top_bit(x), w, x))
    color = coloring(family)
    c1, c2 = color(w), color(w + x)
    if (c1, c2) != (witness.color_sum, witness.color_sum_with_x):
        raise VerificationError("recomputed colors (%d, %d) differ from report" % (c1, c2))
    if c1 == c2:
        raise VerificationError("colors of %d and %d agree" % (w, w + x))
    sums = finite_sums(sorted((x, w1, w2)), 3)
    if w not in sums or w + x not in sums:
        raise VerificationError("claimed sums are not 3-term finite sums of the witness")
    return color


def find_witness(family: Delta3Family, i: int, *, mode: str = "oracle",
                 bound: int = Guards.blind_bound,
                 horizon: int = Guards.horizon) -> Delta3Witness:
    """Find x << w1 << w2 in fixture i with differing sum colors.

    Oracle mode walks the limit argument: settle the candidate set, pick
    w1 beyond the candidate pool with low_bit above the k-settling bound,
    then w2 beyond the induced stage bound, and read x off the request
    function.  Blind mode enumerates member pairs up to the value bound
    and tests directly; exhaustion raises, it never silently succeeds.
    The witness is re-verified with a coloring of its own, never the
    search's, before being returned.
    """
    return _find_verified(family, i, mode, bound, horizon)[0]


def _find_verified(family, i, mode, bound, horizon):
    """find_witness's witness and the coloring its verify built and returned."""
    if mode == "oracle":
        witness = _oracle_witness(family, i, horizon)
    elif mode == "blind":
        witness = _blind_witness(family, i, bound)
    else:
        raise ValueError("mode must be 'oracle' or 'blind', got %r" % (mode,))
    return witness, verify_witness(family, witness)


def _oracle_witness(family, i, horizon):
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
    query = range(1, 1 << (big_n + 1))
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
        if request(family, top_bit(x), w) == x:
            break
    else:
        raise VerificationError(
            "no pool element is requested at the settled stages; fixture oracle is unsound"
        )
    color = coloring(family)
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


def _blind_witness(family, i, bound):
    members = [x for x in family.members_upto_bit(i, bound.bit_length() - 1) if x <= bound]
    color = coloring(family)
    for a, w1 in enumerate(members):
        for w2 in members[a + 1:]:
            if not dyadic.apart(w1, w2) or w1 + w2 > bound:
                continue
            w = w1 + w2
            for x in members:
                if x >= w1 or not dyadic.apart(x, w1):
                    continue
                if request(family, top_bit(x), w) != x:
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
    for x in family.members_upto_bit(i, horizon):
        if predicate(x):
            return x
    raise WitnessSearchError(
        "horizon %d exhausted looking for %s in fixture %d" % (horizon, what, i),
        bound=horizon,
        quantifier=what,
    )
