import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscoloring import treecolor
from fscoloring.dyadic import low_bit, top_bit
from fscoloring.errors import GuardError
from fscoloring.treecolor import (
    BlockTree,
    MemoRequest,
    RequestFunction,
    TreeColoring,
    TriRequestFunction,
    color_mod,
    color_mod_bfs,
    color_parity,
    default_request,
    extend_request,
    lift_tri,
    popcount_coloring,
    random_request,
    random_tri_request,
    signed_count,
    signed_counts,
    signed_counts_table,
    tree_edges,
)

POW2 = RequestFunction(lambda n, w: 1 << n, "pow2")


def counted(fn, description="counted"):
    """fn as a TriRequestFunction, with the list of its evaluations."""
    calls = []

    def counting(n, k, s):
        calls.append((n, k, s))
        return fn(n, k, s)
    return TriRequestFunction(counting, description), calls


def test_extend_request_examples():
    empty = extend_request()
    assert empty(1, 4) == 3
    patched = extend_request({(1, 4): 2})
    assert patched(1, 4) == 2
    assert patched(1, 8) == 3
    with pytest.raises(ValueError):
        extend_request({(1, 4): 5})


def test_extend_request_copies_its_dict():
    # the request's table keeps what it derived, so the dict is read once
    partial = {(1, 4): 2}
    request = extend_request(partial)
    before = [signed_count(request, w) for w in range(4, 8)]
    partial[(1, 4)] = 3
    partial[(0, 6)] = 1
    assert request(1, 4) == 2 and request(0, 6) == 1
    assert [signed_count(request, w) for w in range(4, 8)] == before
    assert before == [signed_count(extend_request({(1, 4): 2}), w) for w in range(4, 8)]


def test_request_function_checks_block():
    bad = RequestFunction(lambda n, w: 5, "bad")
    with pytest.raises(ValueError):
        bad(1, 8)


@pytest.mark.parametrize("n", [0, 1, 5, 63])
def test_requests_reject_values_outside_their_block(n):
    for value in (0, -1, (1 << n) - 1, 1 << (n + 1)):
        request = RequestFunction(lambda _n, _w: value, "fixed")
        with pytest.raises(ValueError) as failure:
            request(n, 1 << 70)
        assert str(failure.value) == ("request fixed returned %r at (n=%d, w=%d), not in block %d"
                                      % (value, n, 1 << 70, n))
        tri = TriRequestFunction(lambda _n, _k, _s: value, "fixed")
        with pytest.raises(ValueError) as failure:
            tri(n, 70, 71)
        assert str(failure.value) == ("tri request fixed returned %r at (n=%d, k=70, s=71), "
                                      "not in block %d" % (value, n, n))
    for value in (1 << n, (2 << n) - 1):
        assert RequestFunction(lambda _n, _w: value)(n, 1 << 70) == value
        assert TriRequestFunction(lambda _n, _k, _s: value)(n, 70, 71) == value


def test_request_tables_are_never_shared():
    # tables is no constructor argument, and a copy with another fn
    # starts empty instead of reading increments derived from the first
    request = random_request(5)
    signed_count(request, 1000)
    assert request.tables
    with pytest.raises(TypeError):
        RequestFunction(request.fn, tables=request.tables)
    other = dataclasses.replace(request, fn=default_request().fn)
    assert other.tables == {}
    assert signed_count(other, 1000) == signed_count(default_request(), 1000)


def test_tree_edges_examples():
    default = default_request()
    tree = tree_edges(2, default)
    assert sorted((a, b) for a, b, _n in tree.edges) == [(4, 5), (4, 7), (6, 7)]
    tree.validate()

    tree2 = tree_edges(2, POW2)
    assert sorted((a, b) for a, b, _n in tree2.edges) == [(4, 5), (4, 6), (6, 7)]


@given(st.integers(min_value=0, max_value=1000))
def test_tree_single_edge_any_request(seed):
    tree = tree_edges(1, random_request(seed))
    assert [(a, b) for a, b, _n in tree.edges] == [(2, 3)]


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_tree_structure_random(seed, s):
    tree = tree_edges(s, random_request(seed))
    assert len(tree.edges) == (1 << s) - 1
    assert tree.problems() == []


def test_block_tree_names_each_defect():
    # the block at exponent 2 is [4, 8), spanned by 3 edges
    cases = {
        ((4, 5, 0), (4, 7, 1), (6, 7, 0)): [],
        ((4, 5, 0), (6, 7, 0)): ["edge count 2, expected 3"],
        ((4, 5, 0), (4, 8, 1), (6, 7, 0)): ["edge (4, 8) leaves the block"],
        ((3, 5, 0), (4, 5, 1), (6, 7, 0)): ["edge (3, 5) leaves the block"],
        ((4, 5, 0), (5, 6, 0), (4, 6, 1)): ["cycle through edge (4, 6)"],
        ((4, 4, 0), (4, 5, 0), (6, 7, 0)): ["cycle through edge (4, 4)"],
        ((4, 5, 0), (6, 7, 0), (5, 4, 1)): ["cycle through edge (5, 4)"],
        ((4, 5, 0), (4, 5, 0)): ["edge count 2, expected 3", "cycle through edge (4, 5)"],
    }
    for edges, issues in cases.items():
        tree = BlockTree(2, edges)
        assert tree.problems() == issues
        if issues:
            with pytest.raises(ValueError) as failure:
                tree.validate()
            assert str(failure.value) == "block tree invalid: " + "; ".join(issues)


@st.composite
def edge_sets(draw):
    """(s, pairs): a spanning tree of the block at exponent s, shuffled and
    perhaps with one edge dropped, added or moved, or random pairs."""
    s = draw(st.integers(1, 3))
    lo, hi = 1 << s, 2 << s
    vertex = st.integers(lo - 1, hi)
    if draw(st.booleans()):
        return s, draw(st.lists(st.tuples(vertex, vertex), max_size=hi - lo + 1))
    order = draw(st.permutations(range(lo, hi)))
    pairs = [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, hi - lo)]
    pairs = draw(st.permutations(pairs))
    change = draw(st.sampled_from(["none", "drop", "add", "move"]))
    if change == "drop":
        pairs.pop()
    elif change != "none":
        pairs.insert(0, draw(st.tuples(vertex, vertex)))
        if change == "move":
            pairs.pop()
    return s, pairs


@given(edge_sets())
@settings(max_examples=300, deadline=None)
def test_problems_agree_with_breadth_first_search(case):
    # problems() never scans components; a breadth-first search from the
    # block root stands in for the scan from outside
    s, pairs = case
    lo, hi = 1 << s, 2 << s
    adjacency = {v: [] for v in range(lo, hi)}
    inside = all(lo <= a < hi and lo <= b < hi for a, b in pairs)
    if inside:
        for a, b in pairs:
            adjacency[a].append(b)
            adjacency[b].append(a)
    reached, frontier = {lo}, [lo]
    while frontier:
        frontier = [w for v in frontier for w in adjacency[v] if w not in reached]
        reached.update(frontier)
    spanning = inside and len(pairs) == hi - lo - 1 and len(reached) == hi - lo
    assert (BlockTree(s, tuple((a, b, 0) for a, b in pairs)).problems() == []) == spanning


def test_tree_guard():
    with pytest.raises(GuardError):
        tree_edges(18, default_request())


def test_bridge_examples():
    # the bridge of (w, n) is the tree edge (w, w + R(n, w)) at level n
    assert (4, 6, 1) in tree_edges(2, extend_request({(1, 4): 2})).edges
    assert (4, 7, 1) in tree_edges(2, default_request()).edges
    assert (8, 13, 2) in tree_edges(3, extend_request({(2, 8): 5})).edges
    # and w has none at or above its low bit
    assert [n for a, _b, n in tree_edges(2, default_request()).edges if a == 4] == [0, 1]


def test_bridge_uniqueness_exhaustive():
    # the only tree edge joining the two halves of any aligned span is the
    # one leaving the span's base; exhaustive over every legal (w, n) by
    # bucketing each edge under the spans whose halves it straddles
    for seed in (0, 1, 2):
        request = random_request(seed)
        for s in range(2, 11):
            crossings = {}
            for a, b, _m in tree_edges(s, request).edges:
                for n in range(1, s + 1):
                    base = a & ~((1 << (n + 1)) - 1)
                    if base <= a < base + (1 << n) <= b < base + (1 << (n + 1)):
                        crossings.setdefault((base, n), []).append((a, b))
            for w in range(1 << s, 1 << (s + 1)):
                for n in range(1, low_bit(w)):
                    assert crossings.get((w, n)) == [(w, w + request(n, w))]


def test_color_examples():
    assert [color_parity(POW2, w) for w in (4, 5, 6, 7)] == [0, 1, 1, 0]
    assert color_mod(POW2, 7, 3) == 2
    for s in range(1, 14):
        assert color_parity(random_request(3), 1 << s) == 0


def test_color_mod_bfs_examples():
    default = default_request()
    assert [color_mod_bfs(default, w, 2) for w in (4, 5, 6, 7)] == [0, 1, 0, 1]
    assert color_mod_bfs(default, 2, 2) == 0
    assert color_mod_bfs(default, 3, 2) == 1


def test_color_rejects_degenerate():
    with pytest.raises(ValueError):
        color_mod(POW2, 1, 2)
    with pytest.raises(ValueError):
        color_mod(POW2, 4, 1)


@given(st.integers(min_value=0, max_value=100), st.integers(min_value=1, max_value=9))
@settings(max_examples=40, deadline=None)
def test_generic_evaluator_matches_bfs(seed, s):
    request = random_request(seed)
    table = signed_counts_table(tree_edges(s, request))
    for w in range(1 << s, 1 << (s + 1)):
        assert signed_count(request, w) == table[w]


@given(st.integers(min_value=0, max_value=100), st.integers(min_value=1, max_value=9))
@settings(max_examples=40, deadline=None)
def test_factored_evaluator_matches_bfs(seed, s):
    tri = random_tri_request(seed)
    lifted = lift_tri(tri)
    plain = RequestFunction(lambda n, w: tri(n, low_bit(w), top_bit(w)), "unfactored")
    table = signed_counts_table(tree_edges(s, plain))
    for w in range(1 << s, 1 << (s + 1)):
        assert signed_count(lifted, w) == table[w]


@given(st.integers(min_value=0, max_value=100), st.integers(min_value=2, max_value=9))
@settings(max_examples=30, deadline=None)
def test_increment_contract_random(seed, s):
    request = MemoRequest(random_request(seed))
    for w in range(1 << s, 1 << (s + 1)):
        for n in range(low_bit(w)):
            # exact step along the request edge, hence mod r for every r
            assert signed_count(request, w + request(n, w)) == signed_count(request, w) + 1


def test_consistency_parity_is_mod_two():
    request = random_request(9)
    for w in range(16, 64):
        assert color_parity(request, w) == color_mod(request, w, 2)


def test_large_exponent_quadratic_budget():
    # block exponent 20 through the factored path, instrumented
    tri, calls = counted(random_tri_request(5))
    w = (1 << 20) + 0b1010110011010101  # arbitrary member of the block
    color_mod(lift_tri(tri), w, 2)
    assert len(calls) <= 4 * 20 * 20


def test_factored_exponent_limit():
    # block-max requests nest the potential recursion one level per bit:
    # the deepest accepted block still fits the stack, the next is refused
    deepest = lift_tri(TriRequestFunction(lambda n, k, s: (1 << (n + 1)) - 1, "block max"))
    s = treecolor.FACTORED_MAX_EXPONENT
    assert isinstance(signed_count(deepest, (1 << (s + 1)) - 1), int)
    with pytest.raises(GuardError) as failure:
        signed_count(deepest, (1 << (s + 1)) + 1)
    assert failure.value.guard == "factored_exponent"


# factories: requests keep tables, so each test and each side of a
# comparison gets a fresh one
BATCH_REQUESTS = {
    "random": lambda: random_request(21),
    "default": default_request,
    "lifted tri": lambda: lift_tri(random_tri_request(22)),
}


@pytest.mark.parametrize("name", sorted(BATCH_REQUESTS))
def test_signed_counts_match_bfs_on_full_blocks(name):
    make = BATCH_REQUESTS[name]
    for s in range(1, 11):
        block = range(1 << s, 1 << (s + 1))
        assert signed_counts(make(), block) == signed_counts_table(tree_edges(s, make()))


@pytest.mark.parametrize("name", sorted(BATCH_REQUESTS))
def test_signed_counts_mixed_blocks_and_duplicates(name):
    make = BATCH_REQUESTS[name]
    ws = [700, 5, 40, 5, 1023, 2, 700, 3, 1 << 40, 41, (1 << 40) + 12345]
    counts = signed_counts(make(), ws)
    assert set(counts) == set(ws)
    for w in ws:
        assert counts[w] == signed_count(make(), w)
    for w in (2, 3, 5, 40, 41, 700, 1023):
        assert counts[w] == signed_counts_table(tree_edges(top_bit(w), make()))[w]
    assert signed_counts(make(), []) == {}


def test_signed_counts_rejects_small_vertices():
    for ws in ([4, 1], [0], [8, -3, 9]):
        with pytest.raises(ValueError):
            signed_counts(random_request(1), ws)


def counted_request(request):
    """request behind a fresh RequestFunction, with the list of its evaluations."""
    calls = []

    def counting(n, w):
        calls.append((n, w))
        return request(n, w)
    return RequestFunction(counting), calls


def test_full_block_requests_each_bridge_once():
    # a block at exponent s has 2**s - 1 bridges, each requested at most
    # once, batched or vertex by vertex on one request (a span recursion
    # that kept nothing between calls requested them 22,992 times at s = 10)
    s = 10
    block = range(1 << s, 1 << (s + 1))
    batched, calls = counted_request(random_request(3))
    counts = signed_counts(batched, block)
    assert len(calls) <= (1 << s) - 1
    single, calls = counted_request(random_request(3))
    first = [signed_count(single, w) for w in block]
    assert len(calls) <= (1 << s) - 1
    assert len(single.tables) == len(calls)
    assert [signed_count(single, w) for w in block] == first
    assert len(single.tables) == len(calls)
    assert first == [counts[w] for w in block]
    tri, tri_calls = counted(random_tri_request(3))
    signed_counts(lift_tri(tri), block)
    assert len(tri_calls) <= s * (s + 1) // 2


def test_generic_work_at_top_bit_48():
    # one vertex far out: the table reaches only the bridges on its path
    request, calls = counted_request(random_request(0))
    assert signed_count(request, (1 << 48) + 12345678901) == 21
    assert len(calls) == len(request.tables) == 37727


def test_full_generic_table_falls_back_to_span_recursion(monkeypatch):
    # past GENERIC_MAX_ENTRIES the table stops growing and a block is
    # finished by the span recursion, with the same counts; a vertex whose
    # bridges all sit in the table still costs no evaluation
    monkeypatch.setattr(treecolor, "GENERIC_MAX_ENTRIES", 40)
    s = 9
    block = range(1 << s, 1 << (s + 1))
    expected = signed_counts_table(tree_edges(s, random_request(8)))
    batched, calls = counted_request(random_request(8))
    assert signed_counts(batched, block) == expected
    # the span recursion skips the table's bridges and repeats at most the
    # s evaluations the refused telescoping had in flight
    assert len(batched.tables) == 40 and len(calls) <= (1 << s) - 1 + s
    single, calls = counted_request(random_request(8))
    assert [signed_count(single, w) for w in block] == [expected[w] for w in block]
    assert len(single.tables) == 40
    before = len(calls)
    signed_count(single, 1 << s)
    for w in block:
        if all((w >> j << j) in single.tables for j in range(s) if (w >> j) & 1):
            assert signed_count(single, w) == expected[w]
    assert len(calls) == before
    far, _ = counted_request(random_request(0))
    assert signed_count(far, (1 << 48) + 12345678901) == 21
    assert len(far.tables) == 40


@given(st.integers(min_value=0, max_value=1000),
       st.lists(st.tuples(st.integers(min_value=2, max_value=12), st.integers(min_value=0)),
                min_size=1, max_size=6),
       st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_shared_tables_match_fresh_requests_and_bfs(seed, picks, modulus, rng):
    # a lifted tri request keeps its tables across calls; in any order, one
    # vertex at a time or batched, it colors as a fresh request per vertex
    # and as the materialized tree does
    ws = [(1 << s) | (offset % (1 << s)) for s, offset in picks]
    expected = {w: color_mod_bfs(lift_tri(random_tri_request(seed)), w, modulus) for w in ws}
    assert {w: color_mod(lift_tri(random_tri_request(seed)), w, modulus) for w in ws} == expected
    for passes in (("single", "batched"), ("batched", "single")):
        shared = lift_tri(random_tri_request(seed))
        coloring = TreeColoring(shared, modulus)
        for how in passes:
            order = list(ws)
            rng.shuffle(order)
            colors = coloring.table(order) if how == "batched" else [coloring(w) for w in order]
            assert colors == [expected[w] for w in order]
        for s, table in shared.tri.tables.items():
            assert len(table) <= s * (s + 1) // 2


@given(st.sampled_from(["random", "default"]), st.integers(min_value=0, max_value=1000),
       st.lists(st.tuples(st.integers(min_value=2, max_value=12), st.integers(min_value=0)),
                min_size=1, max_size=6),
       st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_shared_generic_tables_match_fresh_requests_and_bfs(kind, seed, picks, modulus, rng):
    # an arbitrary request keeps its table across calls; in any order, one
    # vertex at a time or batched, it colors as a fresh request per vertex
    # and as the materialized tree does
    make = (lambda: random_request(seed)) if kind == "random" else default_request
    ws = [(1 << s) | (offset % (1 << s)) for s, offset in picks]
    expected = {w: color_mod_bfs(make(), w, modulus) for w in ws}
    assert {w: color_mod(make(), w, modulus) for w in ws} == expected
    for passes in (("single", "batched"), ("batched", "single")):
        shared = make()
        coloring = TreeColoring(shared, modulus)
        for how in passes:
            order = list(ws)
            rng.shuffle(order)
            colors = coloring.table(order) if how == "batched" else [coloring(w) for w in order]
            assert colors == [expected[w] for w in order]
        assert len(shared.tables) <= sum((1 << top_bit(w)) - 1 for w in set(ws))


def test_tables_live_on_the_tri_request():
    # a second pass over a block reads the tables the first pass filled
    tri, calls = counted(random_tri_request(4))
    lifted = lift_tri(tri)
    block = range(1 << 9, 1 << 10)
    first = signed_counts(lifted, block)
    assert len(calls) == len(tri.tables[9]) <= 9 * 10 // 2
    assert signed_counts(lifted, reversed(block)) == first
    assert [signed_count(lifted, w) for w in block] == [first[w] for w in block]
    assert len(calls) == len(tri.tables[9]) and set(tri.tables) == {9}


def test_generic_exponent_limit():
    deepest = default_request()
    s = treecolor.GENERIC_MAX_EXPONENT
    assert isinstance(signed_count(deepest, (1 << (s + 1)) - 1), int)
    with pytest.raises(GuardError) as failure:
        signed_count(deepest, (1 << (s + 1)) + 1)
    assert failure.value.guard == "generic_exponent"
    with pytest.raises(GuardError):
        signed_count(deepest, (1 << 1200) + (1 << 1199) + 1)


def test_tree_coloring_table():
    for make in BATCH_REQUESTS.values():
        color = TreeColoring(make(), 5, description="checked")
        ws = [1, 2, 9, 9, 300, 1 << 30]
        assert color.table(ws) == [TreeColoring(make(), 5)(w) for w in ws]
        assert color.table(ws)[0] == 0
        assert color.description == "checked"
    with pytest.raises(ValueError):
        TreeColoring(default_request(), 1)
    with pytest.raises(ValueError):
        TreeColoring(default_request()).table([3, 0])


@pytest.mark.parametrize("seed", [0, 9, 2 ** 64 + 3])
def test_seeded_requests_follow_mix(seed):
    # the seed is absorbed once per request function and (seed, n) once per
    # level; on one request, levels visited in any order and revisited,
    # values equal the one-shot hash of (seed, coordinates)
    request, tri = random_request(seed), random_tri_request(seed)
    points = [(0, 2), (3, 16), (5, 1 << 70), (64, 1 << 130), (70, 1 << 200),
              (3, (1 << 128) + 8), (64, 3 << 128), (5, 1 << 6)]
    # around the largest w that one splitmix round absorbs
    points += [(n, (1 << 64) + d) for n in (0, 5, 63) for d in (-1, 0, 1)]
    points += points[::2]
    random.Random(seed).shuffle(points)
    for n, w in points:
        assert request(n, w) == (1 << n) + treecolor._mix(seed, n, w) % (1 << n)
        assert tri(n, w, w + 1) == (1 << n) + treecolor._mix(seed, n, w, w + 1) % (1 << n)


def test_negative_seeds_terminate():
    # negative parts used to loop forever in the hash
    assert random_request(-1)(3, 16) == (1 << 3) + treecolor._mix(2 ** 64 - 1, 3, 16) % 8
    assert 8 <= random_tri_request(-5)(3, 2, 4) < 16


def test_memo_request_is_pure():
    memo = MemoRequest(random_request(4))
    first = [signed_count(memo, w) for w in range(32, 64)]
    second = [signed_count(memo, w) for w in range(32, 64)]
    assert first == second
    assert isinstance(memo, RequestFunction) and memo.tri is None


@pytest.mark.parametrize("w, expected", [(2, 1), (3, 0), (4, 1), (5, 0)])
def test_popcount_documented_values(w, expected):
    assert popcount_coloring(w) == expected


def test_popcount_request_contract_small():
    for w in range(1, 1 << 12):
        for n in range(low_bit(w)):
            assert popcount_coloring(w) != popcount_coloring(w + (1 << n))


def test_lift_tri_examples():
    constant = TriRequestFunction(lambda n, k, s: 1 << n, "pow2 tri")
    lifted = lift_tri(constant)
    assert lifted(3, 16) == 8
    assert lifted.tri is constant and lifted.description == "lifted pow2 tri"
    assert POW2.tri is None and random_request(1).tri is None

    table = {(1, 3, 5): 2}
    tri = TriRequestFunction(lambda n, k, s: table.get((n, k, s), (1 << (n + 1)) - 1), "patched")
    lifted = lift_tri(tri)
    assert lifted(1, 40) == 2  # low_bit(40)=3, top_bit(40)=5

    # factoring property: equal measures, equal requests
    seed_tri = random_tri_request(7)
    lifted = lift_tri(seed_tri)
    w1, w2 = 40, 56  # both have low bit 3 and top bit 5
    for n in range(3):
        assert lifted(n, w1) == lifted(n, w2)
