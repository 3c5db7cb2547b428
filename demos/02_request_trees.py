"""Request functions, block trees, and the increment contract.

A request function hands every pair (n, w) with n below w's low bit an
element of the block at exponent n.  On each block this induces a
spanning tree, and counting signed edge crossings from the block root
yields a coloring that steps by one along every request edge.

Run with:  python demos/02_request_trees.py
"""

from fscoloring import (
    RequestFunction,
    color_mod,
    color_mod_bfs,
    color_parity,
    default_request,
    extend_request,
    lift_tri,
    random_request,
    tree_edges,
)
from fscoloring.treecolor import TriRequestFunction, random_tri_request

print("The default request answers every query with its block maximum:")
R = default_request()
print("  R(1, 4) = %d, R(3, 16) = %d" % (R(1, 4), R(3, 16)))

print()
print("On the block [4, 8) the default request wires this tree:")
tree = tree_edges(2, R)
for a, b, n in tree.edges:
    print("  %d -- %d   (request at exponent %d)" % (a, b, n))
tree.validate()
print("  %d edges for %d vertices: a spanning tree" % (len(tree.edges), 1 << 2))

print()
print("Root gets color 0; each request edge advances the color by one:")
power = RequestFunction(lambda n, w: 1 << n, "powers")
print("  colors mod 2 on [4, 8):", [color_parity(power, w) for w in range(4, 8)])
print("  color of 7 mod 3:", color_mod(power, 7, 3))

print()
print("The increment contract, spot-checked on a random request:")
R = random_request(42)
for w in (48, 52, 56):
    for n in range(2):
        lhs = color_mod(R, w + R(n, w), 5)
        rhs = (color_mod(R, w, 5) + 1) % 5
        print("  c(%d + R(%d, %d)) = %d, c(%d) + 1 = %d" % (w, n, w, lhs, w, rhs))

print()
print("Two independent evaluators agree (the tree walk is the oracle):")
agree = all(
    color_mod(R, w, 7) == color_mod_bfs(R, w, 7) for w in range(256, 512)
)
print("  fast evaluator == materialized tree on the whole block: %s" % agree)

print()
print("Requests factored through (exponent, low bit, top bit) evaluate")
print("through a quadratic potential table, workable at exponent 60:")
tri, evaluations = random_tri_request(7), []


def counting(n, k, s):
    evaluations.append((n, k, s))
    return tri(n, k, s)


lifted = lift_tri(TriRequestFunction(counting, "counted"))
w = (1 << 60) + 0x1234_5678_9ABC
value = color_mod(lifted, w, 2)
print("  color of a 61-bit vertex: %d, using %d request evaluations (4*s^2 = %d)"
      % (value, len(evaluations), 4 * 60 * 60))
