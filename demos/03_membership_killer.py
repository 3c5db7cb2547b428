"""The staged-membership construction, walked on the fixture catalog.

Staged approximations A(i, x, k, s) only converge to the i-th set in the
iterated limit over k then s.  Candidate sets give each family a budget
of block exponents, a priority chooser resolves contention, and the
resulting request function feeds the tree coloring.  For any infinite,
weakly apart fixture the witness finder produces x << w1 << w2 inside the
fixture whose sums w1+w2 and x+w1+w2 receive different colors.

Run with:  python demos/03_membership_killer.py
"""

from fscoloring import delta3_catalog
from fscoloring.delta3 import (
    candidate_limit,
    candidate_set,
    chooser,
    coloring,
    find_witness,
    request,
)

family = delta3_catalog("instant")
print("Catalog fixtures (index: members up to 2^7):")
for i in range(family.count):
    print("  %d: %r" % (i, family.sets[i].members_upto_bit(7)))

print()
print("Candidate sets at stage parameters (k=3, s=6): the first 2^i block")
print("exponents where family i currently looks inhabited:")
for i in range(3):
    print("  family %d -> %r" % (i, candidate_set(family, i, 3, 6)))

print()
print("For w = 40 (low bit 3, top bit 5) the chooser and request give:")
for n in (1, 2):
    j = chooser(family, n, 40)
    print("  exponent %d: family %d supplies request %d" % (n, j, request(family, n, 40)))

print()
print("The induced two-coloring separates w from w + R(n, w):")
color = coloring(family)
print("  c(40) = %d, c(42) = %d" % (color(40), color(42)))

print()
print("Candidate sets settle to their truth limits:")
for i in range(3):
    print("  family %d limit: %r" % (i, candidate_limit(family, i)))

print()
print("Witnesses on three settling schedules (all re-verified internally):")
for variant in ("instant", "delayed", "growing"):
    catalog = delta3_catalog(variant)
    witness = find_witness(catalog, 0)
    print(
        "  %-8s x=%d  w1=%d  w2=%d   colors %d vs %d   (k=%d, stage bound %d)"
        % (
            variant, witness.x, witness.w1, witness.w2,
            witness.color_sum, witness.color_sum_with_x,
            witness.bookkeeping["k"], witness.bookkeeping["settle_s"],
        )
    )

print()
print("Both killed sums are finite sums of at most three fixture members:")
witness = find_witness(family, 0)
print("  %d = %d + %d and %d = %d + %d + %d"
      % (witness.sum, witness.w1, witness.w2,
         witness.sum_with_x, witness.x, witness.w1, witness.w2))
