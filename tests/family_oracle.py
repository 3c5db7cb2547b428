"""Sampled checks of staged approximation families, kept as a test oracle.

The library builds every family as data its constructor checks exactly,
so it samples nothing.  The tests sample the properties that data
guarantees, on one fixed grid: totality, value range, monotonicity in y
and in s, and the soundness of the settling oracles.  They run it on
every family build_family accepts and on hand-built subclasses that
override evaluate or an oracle, and they enumerate set members from
their definition as the reference for block reads.
"""

import heapq
import itertools

from fscoloring.families import MonotoneFamily
from fscoloring.treecolor import _mix

MAX_INDEX, MAX_POINT, MAX_PARAM, SAMPLES, SEED = 4, 4096, 128, 200, 7
CORNER_POINTS = (1, 2, 3, 4, 5, 8, 12, 31, 32)


def sample_grid():
    """For each index i below MAX_INDEX, a tuple of probes (x, a, b): the
    corner points and SAMPLES seeded points x, one full hash each, and six
    seeded parameter pairs (a, b) below MAX_PARAM for each x."""
    points = CORNER_POINTS + tuple(1 + _mix(SEED, 1, j) % MAX_POINT for j in range(SAMPLES))
    return tuple(
        tuple((x, _mix(SEED, 2, i, x, j) % MAX_PARAM, _mix(SEED, 3, i, x, j) % MAX_PARAM)
              for x in points for j in range(6))
        for i in range(MAX_INDEX)
    )


GRID = sample_grid()  # built once per test session; it does not depend on the family


def validate(family):
    """(checks, violations) of family on GRID and on the query set 1..15.

    Violations are messages, collected in probe order, not raised.
    """
    violations = []
    checks = 0
    is_monotone = isinstance(family, MonotoneFamily)
    for i, probes in enumerate(GRID):
        for x, a, b in probes:
            checks += 1
            value = family.evaluate(i, x, a, b)
            if is_monotone:
                if not isinstance(value, int) or value < 0:
                    violations.append("evaluate(%d,%d,%d,%d) = %r not a count" % (i, x, a, b, value))
                # separate monotonicity in y and in s
                if family.evaluate(i, x, a + 1, b) < value:
                    violations.append("decreasing in y at (%d,%d,%d,%d)" % (i, x, a, b))
                if family.evaluate(i, x, a, b + 1) < value:
                    violations.append("decreasing in s at (%d,%d,%d,%d)" % (i, x, a, b))
            elif value not in (0, 1):
                violations.append("evaluate(%d,%d,%d,%d) = %r not in {0,1}" % (i, x, a, b, value))

        # settling soundness on a small query set
        query = list(range(1, 16))
        if is_monotone:
            y = 4
            for x in query:
                checks += 1
                if family.truth(i, x):
                    limit = family.member_limit(i, x, y)
                    stage = family.divergence_stage(i, x, y, limit)
                    for extra in (0, 1, 5):
                        if family.evaluate(i, x, y, stage + extra) != limit:
                            violations.append(
                                "member (%d,%d) not constant from stage %d" % (i, x, stage))
                            break
                else:
                    for target in (3, 17):
                        stage = family.divergence_stage(i, x, y, target)
                        if family.evaluate(i, x, y, stage) < target:
                            violations.append(
                                "non-member (%d,%d) below target %d at claimed stage %d"
                                % (i, x, target, stage))
        else:
            big_k = family.settle_k(i, query) + 1
            for k in (big_k, big_k + 3):
                big_s = family.settle_s(i, k, query) + 1
                for s in (big_s, big_s + 2, big_s + 7):
                    for x in query:
                        checks += 1
                        if family.evaluate(i, x, k, s) != family.truth(i, x):
                            violations.append(
                                "staged value disagrees with truth beyond settling "
                                "bounds at (i=%d, x=%d, k=%d, s=%d)" % (i, x, k, s))
    return checks, violations


def members(spec):
    """The members of a SetSpec in increasing order, enumerated from its
    definition rather than read off its blocks."""
    if spec.kind == "explicit":
        return iter(spec.elements)
    if spec.kind == "powers":
        first = spec.min_exponent + (spec.residue - spec.min_exponent) % spec.modulus
        return (1 << e for e in itertools.count(first, spec.modulus))
    scaled = [map(c.__lshift__, itertools.count(0, spec.step)) for c in spec.coefficients]
    return (x for x, _ in itertools.groupby(heapq.merge(*scaled)))
