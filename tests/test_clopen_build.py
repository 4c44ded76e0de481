"""Clopen sets built in one sorted pass, their images, and their listing.

``ClopenSet.from_balls``, ``ClopenSet.ball`` and ``epsilon_neighborhood``
build their tries with ``treespace._node_build``, which takes ball addresses
only and checks each address as its walk reaches it; ``Element.apply_clopen``
fills the range shape of the pair with ``treespace._node_fill``.  Each is
compared with a reference kept here, which grafts one piece (a ball, or the
part of a set below one leaf) at a time and folds the grafts with ``union``.
Invalid addresses must give the error of an input-order scan.  Listing is
compared with a listing that copies the address at every level, and
membership and ``full_depth`` with the input balls, a plain prefix walk and
``oracles.contains_point_bruteforce``.  The Boolean algebra, one walk down
two tries (``treespace._node_combine``), is checked against membership in
the ball lists its operands were built from, and its inclusion and equality
tests against the listings.  Deep sets are checked in a child process at
the interpreter's default recursion limit.
"""

import subprocess
import sys
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from vtrees import (
    ClopenSet,
    TypeGraph,
    boundary_point,
    epsilon_neighborhood,
    eventually_periodic_witness,
    random_element,
)
from vtrees.treespace import MAX_ARITY, address_str

from conftest import child_env
from oracles import contains_point_bruteforce

TREES = {
    "binary": ({"b": ["b", "b"]}, "b"),
    "wide": ({"r": ["b", "b", "b"], "b": ["b", "b"]}, "r"),
    "ray": ({"a": ["a", "b"], "b": ["b"]}, "a"),
    # a one-child root over a binary tree
    "stem": ({"c": ["d"], "d": ["d", "d"]}, "c"),
}
GRAPHS = {name: TypeGraph(*spec) for name, spec in TREES.items()}
EXAMPLES = settings(database=None, derandomize=True, max_examples=200,
                    deadline=None)

digit_lists = st.lists(st.integers(0, 2), max_size=6)
# long walks: chains of vertices with one nonempty child
chain_lists = st.lists(st.integers(0, 2), min_size=20, max_size=60)
# an index no vertex has: negative, the arity, past it, past every digit
BAD_INDICES = ("negative", "arity", "past", "no digit")


def walk(tg, start, raw):
    """``start`` extended by the indices ``raw``, each read modulo the arity
    of the vertex it leaves."""
    out = list(start)
    t = tg.type_at(start)
    for d in raw:
        out.append(d % tg.arity(t))
        t = tg.children[t][out[-1]]
    return tuple(out)


def point(tg, prefix_raw, cycle_raw):
    """An eventually periodic end: the prefix walk, then the least-child
    descent when the drawn cycle leaves the tree on a later pass."""
    prefix = walk(tg, (), prefix_raw)
    cycle = walk(tg, prefix, cycle_raw or [0])[len(prefix):]
    try:
        return boundary_point(tg, prefix, cycle)
    except ValueError:
        return eventually_periodic_witness(tg, prefix)


# ---------------------------------------------------------------------------
# The reference: one ball at a time


def graft(tg, address, sub):
    """The trie that is ``sub`` below ``address`` and empty elsewhere."""
    arities = []
    t = tg.root_type
    for i in address:
        arities.append(tg.arity(t))
        t = tg.children[t][i]
    node = sub
    for i, a in zip(reversed(address), reversed(arities)):
        if a == 1 and node is True:
            continue  # a one-child vertex above a full ball is full itself
        kids = [False] * a
        kids[i] = node
        node = tuple(kids)
    return node


def reference_union(tg, pieces):
    return reduce(ClopenSet.union, (ClopenSet(tg, graft(tg, a, sub))
                                    for a, sub in pieces if sub is not False),
                  ClopenSet.empty(tg))


def reference_balls(node):
    """The listing that copies the address at every level."""
    out = []
    stack = [((), node)] if node is not False else []
    while stack:
        here, node = stack.pop()
        if node is True:
            out.append(here)
            continue
        for i in range(len(node) - 1, -1, -1):
            if node[i] is not False:
                stack.append((here + (i,), node[i]))
    return tuple(out)


def reference_error(tg, addresses):
    """The error of an input-order scan: the first invalid address, as
    digits, or as the tuple when an index has no digit; None if all are
    valid."""
    bad = next((a for a in addresses if not tg.is_valid_address(a)), None)
    if bad is None:
        return None
    name = address_str(bad) if all(0 <= i < MAX_ARITY for i in bad) else bad
    return f"invalid address {name!r}"


def reference_full_depth(node, x):
    """The depth of the first full node on x's path, walked one index at
    a time; None when an empty node comes first."""
    n = 0
    while node is not True and node is not False:
        node = node[x.index_at(n)]
        n += 1
    return n if node is True else None


def reference_str(node):
    if node is False:
        return "{}"
    if node is True:
        return "{<all>}"
    return "{" + ", ".join(address_str(a) for a in reference_balls(node)) + "}"


def trie_at(node, address):
    for i in address:
        if node is True or node is False:
            return node
        node = node[i]
    return node


def assert_same_set(built, reference, balls, points):
    """``built`` equals ``reference``, lists the same balls, and contains
    exactly the points below one of ``balls``."""
    assert built == reference
    assert built.balls() == reference_balls(reference.node)
    assert str(built) == reference_str(reference.node)
    depth = max((len(b) for b in balls), default=0)
    for x in points:
        inside = any(x.address_prefix(len(b)) == tuple(b) for b in balls)
        assert built.contains_point(x) == inside
        assert contains_point_bruteforce(built, x, depth) == inside
        assert built.full_depth(x) == reference_full_depth(built.node, x)


# ---------------------------------------------------------------------------
# Differential tests


@EXAMPLES
@given(data=st.data(), tree=st.sampled_from(sorted(TREES)),
       raw=st.lists(st.one_of(digit_lists, chain_lists), max_size=8),
       container=st.sampled_from(["list", "tuple", "generator"]),
       address_type=st.sampled_from([tuple, list]),
       bad=st.lists(st.tuples(st.integers(0, 7), digit_lists,
                              st.sampled_from(BAD_INDICES), digit_lists),
                    max_size=2))
def test_from_balls_matches_one_ball_at_a_time(data, tree, raw, container,
                                                address_type, bad):
    tg = GRAPHS[tree]
    balls = [walk(tg, (), r) for r in raw]
    if balls:
        # duplicates of drawn balls, and balls nested below them
        for k in data.draw(st.lists(st.integers(0, len(balls) - 1), max_size=3)):
            balls.append(balls[k])
        for k in data.draw(st.lists(st.integers(0, len(balls) - 1), max_size=3)):
            balls.append(walk(tg, balls[k], data.draw(digit_lists)))
    if data.draw(st.integers(0, 4)) == 0:
        balls.insert(data.draw(st.integers(0, len(balls))), ())
    # invalid addresses, most of them below a drawn ball: a valid walk,
    # one index its last vertex lacks, then any indices
    valid = list(balls)
    for k, head, kind, tail in bad:
        v = walk(tg, valid[k % len(valid)] if valid else (), head)
        arity = tg.arity(tg.type_at(v))
        i = {"negative": -1, "arity": arity, "past": arity + 1,
             "no digit": MAX_ARITY + 4}[kind]
        balls.insert(k % (len(balls) + 1), v + (i,) + tuple(tail))
    given_balls = [address_type(b) for b in balls]
    if container == "tuple":
        given_balls = tuple(given_balls)
    elif container == "generator":
        given_balls = (b for b in given_balls)
    error = reference_error(tg, balls)
    if error is not None:
        with pytest.raises(ValueError) as raised:
            ClopenSet.from_balls(tg, given_balls)
        assert str(raised.value) == error
        return
    points = [point(tg, p, c) for p, c in data.draw(
        st.lists(st.tuples(digit_lists, digit_lists), max_size=6))]
    points += [eventually_periodic_witness(tg, b) for b in balls]
    built = ClopenSet.from_balls(tg, given_balls)
    assert_same_set(built, reference_union(tg, [(b, True) for b in balls]),
                    balls, points)
    for b in balls:
        assert ClopenSet.ball(tg, b).node == graft(tg, b, True)


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)),
       ends=st.lists(st.tuples(digit_lists, digit_lists), max_size=4),
       m=st.integers(0, 8),
       probes=st.lists(st.tuples(digit_lists, digit_lists), max_size=6))
def test_epsilon_neighborhood_matches_one_ball_at_a_time(tree, ends, m, probes):
    tg = GRAPHS[tree]
    centres = [point(tg, p, c) for p, c in ends]
    balls = [x.address_prefix(m) for x in centres]
    points = centres + [point(tg, p, c) for p, c in probes]
    built = epsilon_neighborhood(tg, centres, Fraction(1, 2 ** m))
    assert_same_set(built, reference_union(tg, [(b, True) for b in balls]),
                    balls, points)


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)),
       raw=st.lists(digit_lists, max_size=5),
       carets=st.integers(0, 5), seed=st.integers(0, 2 ** 32),
       probes=st.lists(st.tuples(digit_lists, digit_lists), max_size=6))
@example(tree="binary", raw=[[0, 1], [1, 1, 0]], carets=0, seed=0,
         probes=[([0, 1], [0]), ([], [1])])
@example(tree="stem", raw=[[0, 1]], carets=0, seed=0, probes=[([0, 1], [1])])
@example(tree="ray", raw=[[0, 0, 1], [1]], carets=5, seed=0,
         probes=[([0, 0], [1]), ([], [0])])
@example(tree="stem", raw=[[0, 1, 0], [0, 0]], carets=5, seed=5,
         probes=[([0, 1], [0]), ([0], [1])])
def test_apply_clopen_matches_one_leaf_at_a_time(tree, raw, carets, seed, probes):
    tg = GRAPHS[tree]
    c = ClopenSet.from_balls(tg, [walk(tg, (), r) for r in raw])
    g = random_element(tg, carets, seed)
    assert carets or g.is_identity()
    image = g.apply_clopen(c)
    reference = reference_union(tg, [(w, trie_at(c.node, u))
                                     for u, w in g.leaf_map().items()])
    assert image == reference
    assert image.balls() == reference_balls(reference.node)
    assert str(image) == reference_str(reference.node)
    for p, cyc in probes:
        x = point(tg, p, cyc)
        assert image.contains_point(g.apply_point(x)) == c.contains_point(x)


def listed_inside(a, b):
    """a lies in b by the listings: each ball of a is below a ball of b.  A
    ball inside b is below one of b's balls, since full sibling sets are
    merged."""
    return all(any(u[:len(w)] == w for w in b.balls()) for u in a.balls())


@EXAMPLES
@given(tree=st.sampled_from(["binary", "wide", "ray"]),
       raw_a=st.lists(st.one_of(digit_lists, chain_lists), max_size=5),
       raw_b=st.lists(st.one_of(digit_lists, chain_lists), max_size=5),
       shared=st.lists(st.tuples(st.integers(0, 9), digit_lists), max_size=3),
       probes=st.lists(st.tuples(digit_lists, digit_lists), max_size=6))
@example(tree="ray", raw_a=[[0, 1]], raw_b=[[0, 0], [1]], shared=[],
         probes=[([0, 0], [1])])
def test_set_algebra_matches_the_ball_lists(tree, raw_a, raw_b, shared,
                                            probes):
    tg = GRAPHS[tree]
    la = [walk(tg, (), r) for r in raw_a]
    lb = [walk(tg, (), r) for r in raw_b]
    # balls of b at, above or below balls of a
    for k, r in shared:
        if la:
            u = la[k % len(la)]
            lb.append(walk(tg, u[:k % (len(u) + 1)], r))
    a, b = ClopenSet.from_balls(tg, la), ClopenSet.from_balls(tg, lb)
    results = {"a": a, "b": b, "a|b": a | b, "a&b": a & b, "a-b": a - b,
               "b-a": b - a, "~a": ~a, "~b": ~b}
    member = {"a": lambda ia, ib: ia, "b": lambda ia, ib: ib,
              "a|b": lambda ia, ib: ia or ib, "a&b": lambda ia, ib: ia and ib,
              "a-b": lambda ia, ib: ia and not ib,
              "b-a": lambda ia, ib: ib and not ia,
              "~a": lambda ia, ib: not ia, "~b": lambda ia, ib: not ib}
    for c in results.values():
        canonical = ClopenSet.from_balls(tg, c.balls())
        assert c.node == canonical.node and c == canonical
    points = [point(tg, p, cyc) for p, cyc in probes]
    points += [eventually_periodic_witness(tg, u) for u in la + lb]
    depth = max((len(u) for u in la + lb), default=0)
    for x in points:
        ia = any(x.address_prefix(len(u)) == u for u in la)
        ib = any(x.address_prefix(len(u)) == u for u in lb)
        for name, c in results.items():
            inside = member[name](ia, ib)
            assert c.contains_point(x) == inside, name
            assert contains_point_bruteforce(c, x, depth) == inside, name
    for s in results.values():
        for t in results.values():
            assert (s <= t) == listed_inside(s, t)
            assert (s == t) == (s.balls() == t.balls()) == (s.node == t.node)
            assert s != t or hash(s) == hash(t)


# ---------------------------------------------------------------------------
# Errors and depth


def test_from_balls_reports_the_first_invalid_address_in_input_order(binary, wide):
    with pytest.raises(ValueError, match="^invalid address '3'$"):
        ClopenSet.from_balls(binary, [(3,), (0, 2)])
    with pytest.raises(ValueError, match="^invalid address '02'$"):
        ClopenSet.from_balls(binary, [(0, 2), (3,)])
    with pytest.raises(ValueError, match="^invalid address '12'$"):
        ClopenSet.from_balls(wide, [(2, 1), (1, 2), (3,)])


@pytest.mark.parametrize("address, name", [((40,), r"\(40,\)"),
                                           ((-1,), r"\(-1,\)")])
def test_an_index_without_a_digit_is_named_as_a_tuple(binary, address, name):
    with pytest.raises(ValueError, match=f"^invalid address {name}$"):
        ClopenSet.from_balls(binary, [address])


def test_invalid_address_under_a_full_ball_still_raises(binary):
    with pytest.raises(ValueError, match="^invalid address '2'$"):
        ClopenSet.from_balls(binary, [(), (2,)])
    with pytest.raises(ValueError, match="^invalid address '012'$"):
        ClopenSet.from_balls(binary, [(0,), (0, 1, 2)])
    with pytest.raises(ValueError, match="^invalid address '5'$"):
        ClopenSet.ball(binary, (5,))


def test_epsilon_neighborhood_rejects_a_point_of_another_tree(binary, wide):
    x = boundary_point(binary, (), (0,))
    with pytest.raises(ValueError, match="different type graph"):
        epsilon_neighborhood(wide, [x], Fraction(1, 2))


DEEP_PAIR = """
import sys
limit = sys.getrecursionlimit()
from vtrees import (ClopenSet, TypeGraph, boundary_point, builtin_generators,
                    parse_element)
from vtrees.treespace import address_str
assert sys.getrecursionlimit() == limit  # importing leaves the limit alone
d = 60_000
tg = TypeGraph({"b": ["b", "b"]}, "b")
c = ClopenSet.from_balls(tg, [(0,) * d, (0,) * (d - 1) + (1,)])
assert c.ball_strs() == ["0" * (d - 1)]
assert c.contains_point(boundary_point(tg, (), (0,)))
a = ClopenSet.ball(tg, (0,) * d)
b = ClopenSet.ball(tg, (0,) * (d - 1) + (1,))
assert a | b == c and a | b != a and ClopenSet.ball(tg, (0,) * d) == a
assert (a & b).is_empty() and (a & c) == a
assert c - a == b and (c - b).ball_strs() == a.ball_strs()
assert ~c != c and (~c | c).is_all() and (~c & c).is_empty()
assert a <= c and b <= c and not c <= a and not a <= b
assert {c: 1}[ClopenSet.ball(tg, (0,) * (d - 1))] == 1  # hashes a deep trie
g = parse_element(tg, "pair{domain=[00,01,10,110,111], "
                      "range=[000,001,01,10,11], perm=[1,0,2,4,3]}")
(u, w), = [(u, w) for u, w in g.leaf_map().items() if not any(u)]
image = g.apply_clopen(c)
assert image.ball_strs() == [address_str(w) + "0" * (d - 1 - len(u))]
assert g.inverse().apply_clopen(image).ball_strs() == c.ball_strs()
assert g.inverse().apply_clopen(image) == c
x0 = builtin_generators(tg)["x0"]
p, q = x0.power(2000), x0.power(2000)
assert p is not q and p == q and {p: 1}[q] == 1
"""


DEEP_HASH = """
from vtrees import ClopenSet, TypeGraph
d = 200_000
tg = TypeGraph({"b": ["b", "b"]}, "b")
a = ClopenSet.ball(tg, (0,) * d)
b = ClopenSet.from_balls(tg, [(0,) * (d + 1), (0,) * d + (1,)])
assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
"""


def test_a_deep_trie_hashes_in_a_fresh_process():
    # a hash that recursed in C would crash the interpreter at this depth,
    # so the check runs in a child process
    proc = subprocess.run([sys.executable, "-c", DEEP_HASH], capture_output=True,
                          timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]


def test_deep_ball_pair_builds_and_lists_in_a_fresh_process():
    # A crash of the interpreter (a recursion deeper than its C stack) has to
    # fail this test, not the test run, so it runs in a child process.
    proc = subprocess.run([sys.executable, "-c", DEEP_PAIR], capture_output=True,
                          timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
