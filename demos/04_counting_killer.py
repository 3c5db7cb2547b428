"""The staged-counting construction: priority indices, chains, spreads.

Counting approximations F(i, x, y, s) grow without bound in s exactly on
non-members.  Each block exponent claims the least family whose block
minimum stays bounded, the chosen family's guess element defines a
factored request, and its mod-2^n tree coloring turns vertices into base
counts.  Suffix sums over a settled chain of fixture members step the
base count by one each, so the 2^n sums realize every block member as a
request value; the one requested at the fixture's own block member yields
two finite sums of the fixture with different colors.

Run with:  python demos/04_counting_killer.py
"""

from fscoloring import MonotoneFamily, monotone_catalog
from fscoloring.families import SetSpec
from fscoloring.pi3 import (
    Pi3Engine,
    build_chain,
    distinct_requests,
    find_witness,
    guess_bound,
    guess_element,
)

family = monotone_catalog("instant")
engine = Pi3Engine(family)  # one run's stage table and stable indices
print("Counting fixtures, same catalog sets as the membership side.")
print("Guess machinery on family 0 (odd power exponents):")
print("  guess over block 1 at stages (4, 5): element %d, bound %d"
      % (guess_element(family, 0, 1, 4, 5), guess_bound(family, 0, 1, 4, 5)))
print("  guess over the empty block 2: element %d, bound %d"
      % (guess_element(family, 0, 2, 4, 5), guess_bound(family, 0, 2, 4, 5)))

print()
print("Priority indices per exponent (staged at (y=8, k=9, s=12) vs limit):")
for n in range(1, 7):
    staged = engine.stage_index(n, 8, 9, 12)
    limit = engine.stable_index(n)
    print("  exponent %d: staged %r, limit %r" % (n, staged, limit))

print()
print("Guess requests live in the block named by their first argument:")
print("  Q_1(3, 5, 7) = %d, off-domain Q_1(1, 5, 7) = %d"
      % (engine.q(1, 3, 5, 7), engine.q(1, 1, 5, 7)))

print()
print("Synthesized requests via the mod-2^n base count:")
print("  R(1, 32) = %d (block roots count zero), R(1, 40) = %d"
      % (engine.request(1, 32), engine.request(1, 40)))

print()
print("A settled chain and its request spread at exponent 1:")
chain = build_chain(engine, 0, 1, 3, 1)
print("  chain: %r (final stage %d)" % (chain.elements, chain.final_stage))
spread = distinct_requests(engine, 0, 1)
for w, value in spread.pairs():
    print("  suffix sum %5d requested at %d" % (w, value))

print()
print("A deeper fixture stabilizes at exponent 3 and exhausts its block:")
deep = MonotoneFamily([SetSpec.powers(modulus=2, residue=1, min_exponent=3)])
spread = distinct_requests(Pi3Engine(deep), 0, 3)
print("  chain of %d members up to 2^%d; request values %r"
      % (len(spread.chain.elements), spread.chain.final_stage, sorted(spread.requests)))

print()
print("Witnesses (re-verified from a fresh engine before being returned):")
for name, fam, index in (
    ("instant/0", family, 0),
    ("instant/1", family, 1),
    ("delayed/0", monotone_catalog("delayed"), 0),
    ("deep/0", deep, 0),
):
    witness = find_witness(fam, index)
    print("  %-10s exponent %d, x=%d, w=%d, colors %d vs %d"
          % (name, witness.block_exponent, witness.x, witness.w,
             witness.color_w, witness.color_w_plus_x))
