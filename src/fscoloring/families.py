"""Staged approximation families, their fixture catalog and its configs.

The limit constructions consume two kinds of indexed families:

* membership approximations A(i, x, k, s) in {0, 1} whose iterated limit
  over k then s recovers the i-th set, and
* counting approximations F(i, x, y, s), non-decreasing in y and in s,
  where x belongs to the i-th set iff the stage limit stays finite for
  every y.

Families are data: a DelaySchedule per set, or an integer ceiling per
set and a ramp lag, which the constructor checks exactly.  That is the
only check; the properties above follow from the schedule.  Subclasses
that override evaluate or a settling oracle exist only in the tests.

True universal enumerations of such families are not implementable, so
every family here is backed by set descriptors: one SetSpec per index,
a decidable set.  The descriptors give exact truth, the members of
each block, and settling oracles that bound how long the staged values
may disagree with truth; the construction modules never read the oracles
except inside witness finders.  Block queries (the least staged-in
member of a block, the minimum count over a block) are answered from the
descriptors, never by scanning the block, so they stay cheap at block
exponents near 60.  The minimum count is a min of evaluate over the
block's members and its least non-member.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from .dyadic import has_weak_apartness, top_bit
from .errors import FixtureError


# ---------------------------------------------------------------------------
# Decimal fields

def _decimal(value, name: str) -> int:
    """An integer field of a config or report, which must be a decimal
    string, as -?[0-9]+ matches: "+", spaces, "_" and non-ASCII digits,
    which int() takes, are refused with FixtureError."""
    if not (isinstance(value, str) and value.removeprefix("-").isdecimal() and value.isascii()):
        raise FixtureError("field %s is not a decimal string: %.40r" % (name, value))
    return int(value)


def _decimals(values, name: str) -> tuple:
    """A list field of decimal strings, read as integers."""
    if not isinstance(values, list):
        raise FixtureError("field %s is not a list: %.40r" % (name, values))
    return tuple(_decimal(value, "%s[%d]" % (name, j)) for j, value in enumerate(values))


# ---------------------------------------------------------------------------
# Set descriptors


class SetSpec:
    """Decidable, increasingly enumerable set of positive integers.

    kinds:
      explicit      -- a finite list of elements
      powers        -- {2**e : e >= min_exponent, e % modulus == residue}
      coeff_powers  -- {c * 2**(step*j) : c in coefficients, j >= 0}

    Used both as fixture truth and as the serializable set descriptor in
    configuration files.
    """

    def __init__(self, kind, *, elements=None, modulus=1, residue=0,
                 min_exponent=0, coefficients=None, step=2):
        self.kind = kind
        if kind == "explicit":
            self.elements = tuple(sorted(set(elements or ())))
            if any(x < 1 for x in self.elements):
                raise FixtureError("explicit elements must be positive")
        elif kind == "powers":
            if modulus < 1 or not (0 <= residue < modulus) or min_exponent < 0:
                raise FixtureError("bad powers descriptor")
            self.modulus, self.residue, self.min_exponent = modulus, residue, min_exponent
        elif kind == "coeff_powers":
            self.coefficients = tuple(sorted(set(coefficients or ())))
            self.step = step
            if not self.coefficients or any(c < 1 for c in self.coefficients):
                raise FixtureError("coeff_powers needs positive coefficients")
            if step < 1:
                raise FixtureError("coeff_powers needs step >= 1")
        else:
            raise FixtureError("unknown set kind %r" % (kind,))

    @classmethod
    def explicit(cls, elements):
        return cls("explicit", elements=elements)

    @classmethod
    def powers(cls, modulus=1, residue=0, min_exponent=0):
        return cls("powers", modulus=modulus, residue=residue, min_exponent=min_exponent)

    @classmethod
    def coeff_powers(cls, coefficients, step=2):
        return cls("coeff_powers", coefficients=coefficients, step=step)

    def contains(self, x: int) -> bool:
        if x < 1:
            return False
        if self.kind == "explicit":
            return x in self.elements
        if self.kind == "powers":
            if x & (x - 1):
                return False
            e = x.bit_length() - 1
            return e >= self.min_exponent and e % self.modulus == self.residue
        for c in self.coefficients:
            if x % c:
                continue
            q = x // c
            if q & (q - 1):
                continue
            if (q.bit_length() - 1) % self.step == 0:
                return True
        return False

    def members_upto_bit(self, horizon: int) -> list:
        """All members whose top bit is at most horizon, read block by block
        so that no member past the horizon is ever built."""
        return [x for n in range(horizon + 1) for x in self.block_members(n)]

    def block_members(self, n: int) -> list:
        """Members inside the block at exponent n, in increasing order.

        Read off the descriptor, without enumerating smaller members, so
        the cost does not grow with n.
        """
        if n < 0:
            return []
        if self.kind == "explicit":
            lo = bisect_left(self.elements, 1 << n)
            return list(self.elements[lo:bisect_left(self.elements, 1 << (n + 1))])
        if self.kind == "powers":
            if n >= self.min_exponent and n % self.modulus == self.residue:
                return [1 << n]
            return []
        return sorted({
            c << (n - top_bit(c)) for c in self.coefficients
            if top_bit(c) <= n and (n - top_bit(c)) % self.step == 0
        })

    def to_payload(self) -> dict:
        if self.kind == "explicit":
            return {"kind": "explicit", "elements": [str(x) for x in self.elements]}
        if self.kind == "powers":
            return {
                "kind": "powers",
                "modulus": str(self.modulus),
                "residue": str(self.residue),
                "min_exponent": str(self.min_exponent),
            }
        return {
            "kind": "coeff_powers",
            "coefficients": [str(c) for c in self.coefficients],
            "step": str(self.step),
        }

    @classmethod
    def from_payload(cls, payload: dict, name: str = "set") -> "SetSpec":
        """Read a descriptor written by to_payload; errors name its fields
        under name."""
        kind = payload.get("kind")
        if kind == "explicit":
            return cls.explicit(_decimals(payload.get("elements"), name + ".elements"))
        if kind == "powers":
            return cls.powers(modulus=_decimal(payload.get("modulus", "1"), name + ".modulus"),
                              residue=_decimal(payload.get("residue", "0"), name + ".residue"),
                              min_exponent=_decimal(payload.get("min_exponent", "0"),
                                                    name + ".min_exponent"))
        if kind == "coeff_powers":
            return cls.coeff_powers(_decimals(payload.get("coefficients"), name + ".coefficients"),
                                    step=_decimal(payload.get("step", "2"), name + ".step"))
        raise FixtureError("unknown set kind %r" % (kind,))

    def __repr__(self):
        return "SetSpec(%s)" % self.to_payload()


# ---------------------------------------------------------------------------
# Families over truth sets


class SetFamily:
    """Truth, member enumeration and weak apartness over a tuple of SetSpec.

    Every query reads an index at or past count, outside the catalog, as
    the empty set.  pi3's priority recurrence relies on this: past the
    catalog it asks for one such index and takes its answer for all of
    them, so a subclass must not answer differently for two of them.
    """

    def __init__(self, sets: Iterable[SetSpec], description=""):
        self.sets: Tuple[SetSpec, ...] = tuple(sets)
        self.count = len(self.sets)
        self.description = description

    def truth(self, i, x) -> int:
        if not (0 <= i < self.count):
            return 0
        return 1 if self.sets[i].contains(x) else 0

    def block_members(self, i, n) -> list:
        if not (0 <= i < self.count):
            return []
        return self.sets[i].block_members(n)

    def members_upto_bit(self, i, horizon) -> list:
        if not (0 <= i < self.count):
            return []
        return self.sets[i].members_upto_bit(horizon)

    def weak_apart_on(self, i, horizon):
        return has_weak_apartness(self.members_upto_bit(i, horizon))

    @staticmethod
    def _least_non_member(n, members) -> Optional[int]:
        """Least element of the block at exponent n outside members, which
        are in increasing order inside the block (as block_members gives)."""
        x = 1 << n
        for member in members:
            if member != x:
                break
            x += 1
        return x if x < 2 << n else None


# ---------------------------------------------------------------------------
# Membership-approximation families (iterated limit over k then s)


@dataclass(frozen=True)
class DelaySchedule:
    """Settling delay base + per_k * k of one set, uniform over its points."""

    base: int = 0
    per_k: int = 0

    def __call__(self, k):
        return self.base + self.per_k * k


class Delta3Family(SetFamily):
    """Indexed staged membership approximations.

    evaluate(i, x, k, s) is total, deterministic and {0,1}-valued for all
    nonnegative arguments; indices outside the catalog evaluate to 0
    everywhere.  Each set has one DelaySchedule (delay): before stage
    delay(k) the staged values are the complement of truth, from it on
    they equal truth.

    block_first answers the construction's block query from the set
    descriptor: a delay never depends on x, so the staged block is the
    truth block or its complement, and its least staged-in member is the
    least member or the least non-member of the block.
    """

    def __init__(self, sets, delay=None, *, description=""):
        super().__init__(sets, description)
        self.delay = tuple(delay) if delay is not None else (DelaySchedule(),) * self.count
        if len(self.delay) != self.count:
            raise FixtureError("a delta3 family needs one delay schedule per set")

    def evaluate(self, i, x, k, s) -> int:
        """Staged membership; the delay base + per_k * k of the set's
        DelaySchedule is inlined, and a test pins it to delay(k)."""
        if not (0 <= i < self.count):
            return 0
        t = 1 if self.sets[i].contains(x) else 0
        delay = self.delay[i]
        return t if s >= delay.base + delay.per_k * k else 1 - t

    def block_first(self, i, n, k, s) -> Optional[int]:
        """Least x in the block at exponent n with evaluate(i, x, k, s) == 1,
        or None.  Written from the delay schedule: a version reading
        evaluate at the block's members and least non-member, as block_min
        does, took about twice as long per call on the catalog variants."""
        if n < 0:
            raise ValueError("block exponent must be nonnegative, got %r" % (n,))
        if not (0 <= i < self.count):
            return None
        members = self.block_members(i, n)
        if s >= self.delay[i](k):
            return members[0] if members else None
        return self._least_non_member(n, members)

    # Settling oracle: for any finite query set X, staged values agree
    # with truth on X whenever k > settle_k(i, X) and s > settle_s(i, k, X).
    def settle_k(self, i, query_set) -> int:
        return 0

    def settle_s(self, i, k, query_set) -> int:
        if not (0 <= i < self.count and query_set):
            return 0
        return self.delay[i](k)


# ---------------------------------------------------------------------------
# Counting-approximation families (monotone in y and s)


class MonotoneFamily(SetFamily):
    """Indexed counting approximations with monotone stage behavior.

    evaluate(i, x, y, s) is total and non-decreasing in y and in s;
    membership in the i-th set means the stage limit is finite for every
    y.  Members of the i-th set settle to its ceiling, ceilings[i];
    everything else follows the ramp max(0, s - ramp_lag), the simplest
    monotone unbounded profile.  Every query, evaluate and block_min
    included, reads an index at or past count as the empty set (pure
    ramp), as SetFamily requires: the stage table claims every such index
    from one block_min read.  The constructor checks the ceilings exactly:
    one per set, none negative.

    block_min provides the minimum evaluate-value over a whole block
    together with its least witness.  It reads evaluate itself, so the
    value formula lives in one place, but only at the block's members
    (from the set descriptor) and its least non-member, rather than
    scanning the block, so guesses stay cheap even at block exponents
    near 60.  Subclasses that override evaluate exist only in the tests.
    """

    def __init__(self, sets: Iterable[SetSpec], ceilings=None, ramp_lag=0, description=""):
        super().__init__(sets, description)
        self.ceilings = tuple(ceilings) if ceilings is not None else (0,) * self.count
        self.ramp_lag = ramp_lag
        if len(self.ceilings) != self.count:
            raise FixtureError("a counting family needs one ceiling per set")
        for position, ceiling in enumerate(self.ceilings):
            if ceiling < 0:
                raise FixtureError("family entry %d has a negative ceiling %d" % (position, ceiling))

    def evaluate(self, i, x, y, s) -> int:
        """min(ceiling, ramp) on members, ramp elsewhere."""
        ramp = max(0, s - self.ramp_lag)
        if 0 <= i < self.count and self.sets[i].contains(x):
            return min(self.ceilings[i], ramp)
        return ramp

    def block_min(self, i, n, y, s):
        """(min evaluate over the block at exponent n, least witness); every
        non-member counts ramp(s), so the least one stands for them all."""
        members = self.block_members(i, n)
        outside = self._least_non_member(n, members)
        reads = members if outside is None else members + [outside]
        return min([(self.evaluate(i, x, y, s), x) for x in reads])

    # Settling oracle.
    def member_limit(self, i, x, y) -> int:
        return self.ceilings[i] if 0 <= i < self.count else 0

    def divergence_stage(self, i, x, y, target) -> int:
        """Least stage from which non-member values, the ramp, reach target."""
        return target + self.ramp_lag if target > 0 else 0

    def block_limit(self, i, n, y) -> Optional[int]:
        """Stage limit of the block minimum; None when the block is empty."""
        return min((self.member_limit(i, x, y) for x in self.block_members(i, n)), default=None)


# ---------------------------------------------------------------------------
# The standard fixture catalog

ODD_POWERS = SetSpec.powers(modulus=2, residue=1, min_exponent=1)
EVEN_POWERS = SetSpec.powers(modulus=2, residue=0, min_exponent=0)
CLUSTERED = SetSpec.coeff_powers((4, 6), step=2)  # two members per even block
SMALL_FINITE = SetSpec.explicit((3, 12, 48))  # weakly apart, never requested

CATALOG_SETS = (ODD_POWERS, EVEN_POWERS, CLUSTERED, SMALL_FINITE)


# Catalog -> variant -> (fields of every family entry, top-level fields).
_VARIANTS = {
    "delta3": {
        "instant": ({"kind": "instant"}, {}),
        "delayed": ({"kind": "delayed", "delay_base": "5"}, {}),
        "growing": ({"kind": "delayed", "delay_base": "3", "delay_per_k": "1"}, {}),
    },
    "pi3": {
        "instant": ({"kind": "monotone"}, {}),
        "delayed": ({"kind": "monotone", "ceiling": "2"}, {"ramp_lag": "6"}),
    },
}


def default_config(catalog: str, variant: str = "instant") -> dict:
    """The standard four-fixture catalog as a serializable configuration.

    delta3 variants: instant (settles immediately), delayed (constant
    delay 5), growing (delay k + 3, exercising the nested quantifier
    order).  pi3 variants: instant (zero ceilings, identity ramp),
    delayed (ceiling 2, ramp lagging by 6 stages).
    """
    if catalog not in _VARIANTS:
        raise FixtureError("config catalog must be 'delta3' or 'pi3', got %r" % (catalog,))
    if variant not in _VARIANTS[catalog]:
        raise FixtureError("unknown %s variant %r" % (catalog, variant))
    entry_fields, top_fields = _VARIANTS[catalog][variant]
    entries = [
        {"index": str(position), "set": spec.to_payload(), **entry_fields}
        for position, spec in enumerate(CATALOG_SETS)
    ]
    return {"catalog": catalog, "families": entries, **top_fields}


def build_family(config: dict):
    """Realize a configuration as a membership or counting family.

    Family entries must be densely indexed from zero and of one
    category: membership kinds (instant/delayed) or the counting kind
    (monotone); mixing categories has no semantics and is rejected.

    This is the one check of a config, and it is exact: every integer
    field must be a decimal string, every set descriptor valid and every
    ceiling nonnegative (MonotoneFamily checks that).  Such a family
    has the range, monotonicity and settling its catalog promises by
    construction: its staged values are truth or its complement against
    an integer delay, or min(ceiling, ramp) with a constant ceiling, so
    no sampling is needed.
    """
    if not isinstance(config, dict):
        raise FixtureError("a config must be an object, got %s" % type(config).__name__)
    catalog = config.get("catalog")
    entries = config.get("families")
    if catalog not in ("delta3", "pi3"):
        raise FixtureError("config catalog must be 'delta3' or 'pi3', got %r" % (catalog,))
    if not entries:
        raise FixtureError("config declares no families")
    if not isinstance(entries, list):
        raise FixtureError("config families must be a list, got %s" % type(entries).__name__)
    for position, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("set"), dict)):
            raise FixtureError("family entry %d and its set must be objects" % position)
        if _decimal(entry.get("index", str(position)), "families[%d].index" % position) != position:
            raise FixtureError("family indices must be dense from 0")
    sets = [SetSpec.from_payload(entry["set"], "families[%d].set" % position)
            for position, entry in enumerate(entries)]
    kinds = [entry.get("kind", "instant") for entry in entries]

    def integers(key):
        """The integer field key of every entry, "0" when absent."""
        return [_decimal(entry.get(key, "0"), "families[%d].%s" % (position, key))
                for position, entry in enumerate(entries)]

    if catalog == "delta3":
        if any(kind not in ("instant", "delayed") for kind in kinds):
            raise FixtureError("delta3 catalogs allow kinds 'instant' and 'delayed' only")
        delay = map(DelaySchedule, integers("delay_base"), integers("delay_per_k"))
        return Delta3Family(sets=sets, delay=delay, description="config:delta3")
    if any(kind != "monotone" for kind in kinds):
        raise FixtureError("pi3 catalogs allow the kind 'monotone' only")
    return MonotoneFamily(sets, integers("ceiling"),
                          _decimal(config.get("ramp_lag", "0"), "ramp_lag"),
                          description="config:pi3")


def delta3_catalog(variant="instant") -> Delta3Family:
    """Standard membership-fixture catalog; variants as in default_config."""
    return build_family(default_config("delta3", variant))


def monotone_catalog(variant="instant") -> MonotoneFamily:
    """Standard counting-fixture catalog; variants as in default_config."""
    return build_family(default_config("pi3", variant))
