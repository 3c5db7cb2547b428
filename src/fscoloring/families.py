"""Staged approximation families, their fixture catalog and its configs.

The limit constructions consume two kinds of indexed families:

* membership approximations A(i, x, k, s) in {0, 1} whose iterated limit
  over k then s recovers the i-th set, and
* counting approximations F(i, x, y, s), non-decreasing in y and in s,
  where x belongs to the i-th set iff the stage limit stays finite for
  every y.

True universal enumerations of such families are not implementable, so
both kinds are plain interfaces here, with fixture constructors that
realize them over decidable, enumerable sets.  Fixtures carry exact
truth, member enumeration, and settling oracles that bound how long the
staged values may disagree with truth; the construction modules never
read the oracles except inside witness finders.

Evaluators are pure and fixtures immutable after construction, so all of
this is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Tuple

from .dyadic import has_weak_apartness, top_bit
from .errors import FixtureError, MissingOracleError


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
            e = top_bit(x)
            return e >= self.min_exponent and e % self.modulus == self.residue
        for c in self.coefficients:
            if x % c:
                continue
            q = x // c
            if q & (q - 1):
                continue
            if top_bit(q) % self.step == 0:
                return True
        return False

    def members(self) -> Iterator[int]:
        """Lazy strictly increasing enumeration."""
        if self.kind == "explicit":
            return iter(self.elements)
        if self.kind == "powers":
            def powers_gen():
                e = self.min_exponent
                while e % self.modulus != self.residue:
                    e += 1
                while True:
                    yield 1 << e
                    e += self.modulus
            return powers_gen()

        def scaled(c):
            j = 0
            while True:
                yield c << (self.step * j)
                j += 1

        def merged():
            last = 0
            for x in heapq.merge(*(scaled(c) for c in self.coefficients)):
                if x != last:
                    yield x
                last = x

        return merged()

    def members_upto_bit(self, horizon: int) -> list:
        """All members whose top bit is at most horizon."""
        limit = 1 << (horizon + 1)
        out = []
        for x in self.members():
            if x >= limit:
                break
            out.append(x)
        return out

    def block_members(self, n: int) -> list:
        """Members inside the block at exponent n, in increasing order."""
        return [x for x in self.members_upto_bit(n) if top_bit(x) == n]

    def is_finite(self) -> bool:
        return self.kind == "explicit"

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
    def from_payload(cls, payload: dict) -> "SetSpec":
        kind = payload["kind"]
        if kind == "explicit":
            return cls.explicit([int(x) for x in payload["elements"]])
        if kind == "powers":
            return cls.powers(
                modulus=int(payload.get("modulus", "1")),
                residue=int(payload.get("residue", "0")),
                min_exponent=int(payload.get("min_exponent", "0")),
            )
        if kind == "coeff_powers":
            return cls.coeff_powers(
                [int(c) for c in payload["coefficients"]],
                step=int(payload.get("step", "2")),
            )
        raise FixtureError("unknown set kind %r" % (kind,))

    def __repr__(self):
        return "SetSpec(%s)" % self.to_payload()


# ---------------------------------------------------------------------------
# Families over truth sets


class SetFamily:
    """Truth, member enumeration and weak apartness over a tuple of SetSpec.

    truth, members and block_members read indices outside the catalog as
    the empty set.  sets is None for families built from a bare
    evaluator, which carry no truth oracle and declare their count.
    """

    def __init__(self, sets: Optional[Iterable[SetSpec]], description="", count=None):
        self.sets: Optional[Tuple[SetSpec, ...]] = tuple(sets) if sets is not None else None
        self.count = len(self.sets) if self.sets is not None else int(count or 0)
        self.description = description

    @property
    def has_truth(self) -> bool:
        return self.sets is not None

    def truth(self, i, x) -> int:
        self._need_truth()
        if not (0 <= i < self.count):
            return 0
        return 1 if self.sets[i].contains(x) else 0

    def members(self, i) -> Iterator[int]:
        self._need_truth()
        if not (0 <= i < self.count):
            return iter(())
        return self.sets[i].members()

    def block_members(self, i, n) -> list:
        self._need_truth()
        if not (0 <= i < self.count):
            return []
        return self.sets[i].block_members(n)

    def weak_apart_on(self, i, horizon):
        self._need_truth()
        return has_weak_apartness(self.sets[i].members_upto_bit(horizon))

    def _need_truth(self):
        if self.sets is None:
            raise MissingOracleError(
                "family %r carries no truth oracle; use blind mode with a bound"
                % (self.description,)
            )


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
    everywhere.  Fixture instances hold one DelaySchedule per set (delay)
    and also expose truth, member enumeration and settling bounds;
    instances built from a bare evaluator support blind searches only.
    """

    def __init__(self, sets=None, delay=None, *, evaluator=None, count=None,
                 description=""):
        if sets is None and evaluator is None:
            raise FixtureError("either truth sets or a raw evaluator is required")
        super().__init__(sets, description, count)
        self._evaluator = evaluator
        self.delay = tuple(delay) if delay is not None else (DelaySchedule(),) * self.count
        if self.sets is not None and len(self.delay) != self.count:
            raise FixtureError("a delta3 family needs one delay schedule per set")

    def evaluate(self, i, x, k, s) -> int:
        if self._evaluator is not None:
            return self._evaluator(i, x, k, s)
        if not (0 <= i < self.count):
            return 0
        t = 1 if self.sets[i].contains(x) else 0
        return t if s >= self.delay[i](k) else 1 - t

    # Settling oracle: for any finite query set X, staged values agree
    # with truth on X whenever k > settle_k(i, X) and s > settle_s(i, k, X).
    def settle_k(self, i, query_set) -> int:
        self._need_truth()
        return 0

    def settle_s(self, i, k, query_set) -> int:
        self._need_truth()
        if not (0 <= i < self.count and query_set):
            return 0
        return self.delay[i](k)


def instant_delta3(sets: Iterable[SetSpec], description="instant") -> Delta3Family:
    """Fixture whose staged values equal truth at every (k, s)."""
    return Delta3Family(sets=sets, description=description)


def delayed_delta3(sets: Iterable[SetSpec], delay: DelaySchedule,
                   description="delayed") -> Delta3Family:
    """Fixture that reports the complement of truth before its delay stage.

    The one DelaySchedule applies to every set: staged values match truth
    from stage delay(k) on.
    """
    sets = tuple(sets)
    return Delta3Family(sets=sets, delay=(delay,) * len(sets), description=description)


# ---------------------------------------------------------------------------
# Counting-approximation families (monotone in y and s)


@dataclass(frozen=True)
class MonotoneSchedule:
    """Member ceiling profile plus the shared divergence ramp.

    Members settle to ceiling(i, x, y); everything else follows
    ramp(s) = max(0, s - ramp_lag), the simplest monotone unbounded
    profile.  ceiling must be non-decreasing in y.
    """

    ceiling: Callable[[int, int, int], int] = None
    ramp_lag: int = 0

    def ceiling_value(self, i, x, y) -> int:
        if self.ceiling is None:
            return 0
        return self.ceiling(i, x, y)

    def ramp(self, s) -> int:
        return max(0, s - self.ramp_lag)

    def ramp_inverse(self, target) -> int:
        """Least stage s with ramp(s) >= target."""
        if target <= 0:
            return 0
        return target + self.ramp_lag


class MonotoneFamily(SetFamily):
    """Indexed counting approximations with monotone stage behavior.

    evaluate(i, x, y, s) is total and non-decreasing in y and in s;
    membership in the i-th set means the stage limit is finite for every
    y.  Indices outside the catalog behave as the empty set (pure ramp).

    block_min provides the minimum evaluate-value over a whole block
    together with its least witness, computed from the set descriptor
    rather than by scanning the block, so guesses stay cheap even at
    block exponents near 60.
    """

    def __init__(self, sets: Iterable[SetSpec], schedule: Optional[MonotoneSchedule] = None,
                 description=""):
        super().__init__(sets, description)
        self.schedule = schedule or MonotoneSchedule()

    def evaluate(self, i, x, y, s) -> int:
        ramp = self.schedule.ramp(s)
        if not (0 <= i < self.count):
            return ramp
        if self.sets[i].contains(x):
            return min(self.schedule.ceiling_value(i, x, y), ramp)
        return ramp

    def block_min(self, i, n, y, s):
        """(min evaluate over the block at exponent n, least witness)."""
        ramp = self.schedule.ramp(s)
        best_value, best_x = None, None
        members = self.block_members(i, n)
        for x in members:
            value = min(self.schedule.ceiling_value(i, x, y), ramp)
            if best_value is None or value < best_value:
                best_value, best_x = value, x
        non_member = self._least_non_member(n, members)
        if non_member is not None and (best_value is None or ramp < best_value):
            best_value, best_x = ramp, non_member
        elif non_member is not None and ramp == best_value and non_member < best_x:
            best_x = non_member
        assert best_x is not None  # members and non-members cover the block
        return best_value, best_x

    @staticmethod
    def _least_non_member(n, members) -> Optional[int]:
        x = 1 << n
        taken = set(members)
        while x < (1 << (n + 1)):
            if x not in taken:
                return x
            x += 1
        return None

    # Settling oracle.
    def member_limit(self, i, x, y) -> int:
        return self.schedule.ceiling_value(i, x, y)

    def member_constant_stage(self, i, x, y) -> int:
        """Stage from which evaluate(i, x, y, .) is constant."""
        return self.schedule.ramp_inverse(self.schedule.ceiling_value(i, x, y))

    def divergence_stage(self, i, x, y, target) -> int:
        """Stage from which non-member values are at least target."""
        return self.schedule.ramp_inverse(target)

    def divergence_start(self, i, x) -> int:
        """Least y from which non-member stage limits are infinite."""
        return 0

    def block_limit(self, i, n, y) -> Optional[int]:
        """Stage limit of the block minimum; None when the block is empty."""
        members = self.block_members(i, n)
        if not members and self._least_non_member(n, members) is not None:
            return None
        values = [self.schedule.ceiling_value(i, x, y) for x in members]
        return min(values) if values else None


def monotone_from_sets(sets: Iterable[SetSpec], schedule: Optional[MonotoneSchedule] = None,
                       description="monotone") -> MonotoneFamily:
    """Build a counting fixture, rejecting schedules that break monotonicity.

    The ceiling profile is probed on a small grid; a ceiling decreasing in
    y would silently break the limit semantics downstream, so it is
    rejected here.
    """
    family = MonotoneFamily(sets, schedule, description=description)
    sched = family.schedule
    for i in range(family.count):
        probe = family.sets[i].members_upto_bit(8)[:4]
        for x in probe:
            values = [sched.ceiling_value(i, x, y) for y in range(0, 24, 3)]
            if any(a > b for a, b in zip(values, values[1:])):
                raise FixtureError(
                    "ceiling profile decreases in y for index %d at x=%d" % (i, x)
                )
            if any(v < 0 for v in values):
                raise FixtureError("ceiling must be nonnegative")
    return family


# ---------------------------------------------------------------------------
# Validation


@dataclass
class FamilyValidation:
    checks: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "family valid (%d checks)" % self.checks
        lines = ["family INVALID (%d checks, %d violations):" % (self.checks, len(self.violations))]
        lines += ["  - %s" % v for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append("  ... %d more" % (len(self.violations) - 10))
        return "\n".join(lines)


def validate_family(family, *, max_index=4, max_point=4096, max_param=128,
                    samples=200, seed=7) -> FamilyValidation:
    """Probe totality, value range, monotonicity and settling soundness.

    Exhausts a small corner of the grid and adds seeded samples inside the
    stated bounds; violations are collected, not raised.
    """
    from .treecolor import _mix  # deterministic sampling without global RNG state

    violations = []
    checks = 0
    is_monotone = isinstance(family, MonotoneFamily)

    def sample_points():
        corner_pts = [1, 2, 3, 4, 5, 8, 12, 31, 32]
        for j in range(samples):
            corner_pts.append(1 + _mix(seed, 1, j) % max_point)
        return corner_pts

    for i in range(max_index):
        for x in sample_points():
            for j in range(6):
                a = _mix(seed, 2, i, x, j) % max_param
                b = _mix(seed, 3, i, x, j) % max_param
                checks += 1
                value = family.evaluate(i, x, a, b)
                if is_monotone:
                    if not isinstance(value, int) or value < 0:
                        violations.append(
                            "evaluate(%d,%d,%d,%d) = %r not a count" % (i, x, a, b, value)
                        )
                    # separate monotonicity in y and in s
                    if family.evaluate(i, x, a + 1, b) < value:
                        violations.append(
                            "decreasing in y at (%d,%d,%d,%d)" % (i, x, a, b)
                        )
                    if family.evaluate(i, x, a, b + 1) < value:
                        violations.append(
                            "decreasing in s at (%d,%d,%d,%d)" % (i, x, a, b)
                        )
                else:
                    if value not in (0, 1):
                        violations.append(
                            "evaluate(%d,%d,%d,%d) = %r not in {0,1}" % (i, x, a, b, value)
                        )

        if not getattr(family, "has_truth", False):
            continue

        # settling soundness on a small query set
        query = [x for x in range(1, 16)]
        if is_monotone:
            for x in query:
                checks += 1
                y = 4
                if family.truth(i, x):
                    stage = family.member_constant_stage(i, x, y)
                    limit = family.member_limit(i, x, y)
                    for extra in (0, 1, 5):
                        if family.evaluate(i, x, y, stage + extra) != limit:
                            violations.append(
                                "member (%d,%d) not constant from stage %d" % (i, x, stage)
                            )
                            break
                else:
                    for target in (3, 17):
                        stage = family.divergence_stage(i, x, y, target)
                        if family.evaluate(i, x, y, stage) < target:
                            violations.append(
                                "non-member (%d,%d) below target %d at claimed stage %d"
                                % (i, x, target, stage)
                            )
        else:
            big_k = family.settle_k(i, query) + 1
            for extra_k in (0, 3):
                k = big_k + extra_k
                big_s = family.settle_s(i, k, query) + 1
                for extra_s in (0, 2, 7):
                    for x in query:
                        checks += 1
                        if family.evaluate(i, x, k, big_s + extra_s) != family.truth(i, x):
                            violations.append(
                                "staged value disagrees with truth beyond settling "
                                "bounds at (i=%d, x=%d, k=%d, s=%d)" % (i, x, k, big_s + extra_s)
                            )
    return FamilyValidation(checks=checks, violations=violations)


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
    """
    catalog = config.get("catalog")
    entries = config.get("families")
    if catalog not in ("delta3", "pi3"):
        raise FixtureError("config catalog must be 'delta3' or 'pi3', got %r" % (catalog,))
    if not entries:
        raise FixtureError("config declares no families")
    for position, entry in enumerate(entries):
        if int(entry.get("index", position)) != position:
            raise FixtureError("family indices must be dense from 0")
    sets = [SetSpec.from_payload(entry["set"]) for entry in entries]
    kinds = [entry.get("kind", "instant") for entry in entries]
    if catalog == "delta3":
        if any(kind not in ("instant", "delayed") for kind in kinds):
            raise FixtureError("delta3 catalogs allow kinds 'instant' and 'delayed' only")
        delay = [
            DelaySchedule(int(entry.get("delay_base", "0")), int(entry.get("delay_per_k", "0")))
            for entry in entries
        ]
        return Delta3Family(sets=sets, delay=delay, description="config:delta3")
    if any(kind != "monotone" for kind in kinds):
        raise FixtureError("pi3 catalogs allow the kind 'monotone' only")
    ceilings = tuple(int(entry.get("ceiling", "0")) for entry in entries)
    schedule = MonotoneSchedule(
        ceiling=lambda i, x, y: ceilings[i] if 0 <= i < len(ceilings) else 0,
        ramp_lag=int(config.get("ramp_lag", "0")),
    )
    return monotone_from_sets(sets, schedule, description="config:pi3")


def delta3_catalog(variant="instant") -> Delta3Family:
    """Standard membership-fixture catalog; variants as in default_config."""
    return build_family(default_config("delta3", variant))


def monotone_catalog(variant="instant") -> MonotoneFamily:
    """Standard counting-fixture catalog; variants as in default_config."""
    return build_family(default_config("pi3", variant))
