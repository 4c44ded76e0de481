"""The normal form and the hash of tree pairs on trees with arity-1 types.

``cancel_carets`` types the path of a pair it may change in one walk from
the root.  Its normal form is compared with ``oracles.reduce_strmap`` on
three trees with arity-1 types: the ray tree, whose isolated ends lie at the
bottom of unary paths; a tree whose root has one child; and a mixed tree
with both.  The leaf maps hang leaf pairs a few hundred levels down unary
paths, so the reduction lifts them, and combs of carets below leaf pairs,
so it contracts them.  Maps with an index out of range keep their pinned
errors: the first bad index the reduction's walks reach, or the ordered
walk's error when they reach none.

A pair hashes the leaf lists its equality compares: equal pairs and their
elements hash equally whichever builder made them, and a pair whose shape
is 200 000 levels deep hashes (in a child process, since a hash that
recursed into the shape in C would crash the interpreter).
"""

import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from vtrees import Element, TypeGraph, element_from_map, random_element, reduce
from vtrees.element import (TreePair, format_pair, graft, parse_pair,
                            shape_from_leaves)

from conftest import child_env
from oracles import reduce_strmap, to_strmap

SPECS = {
    "ray": ({"a": ["a", "b"], "b": ["b"]}, "a"),
    "one-child root": ({"c": ["d"], "d": ["d", "d"]}, "c"),
    "mixed": ({"r": ["r", "s", "m"], "s": ["s"], "m": ["n"], "n": ["r", "s"]},
              "r"),
}
TREES = {name: TypeGraph(*spec) for name, spec in SPECS.items()}
ALL_TREES = {**TREES, "binary": TypeGraph({"b": ["b", "b"]}, "b"),
             "wide": TypeGraph({"r": ["b", "b", "b"], "b": ["b", "b"]}, "r")}
UNARY_DEPTH = 400  # the deepest push of a leaf down a unary path
COMB_DEPTH = 12  # the deepest comb of carets below a leaf pair


def oracle_types(children: dict, root: str):
    """(arity_of, is_singleton) of ``reduce_strmap`` over digit strings,
    read off the type dict alone: a type's ball is one point when every
    type below it has arity 1 (a greatest fixed point)."""
    points = {t for t, cs in children.items() if len(cs) == 1}
    while any(children[t][0] not in points for t in points):
        points = {t for t in points if children[t][0] in points}
    types = {"": root}

    def type_of(p: str) -> str:
        k = len(p)
        while p[:k] not in types:
            k -= 1
        for j in range(k, len(p)):
            types[p[:j + 1]] = children[types[p[:j]]][int(p[j])]
        return types[p]

    def arity_of(p: str) -> int:
        return len(children[type_of(p)])

    def is_singleton(p: str) -> bool:
        return type_of(p) in points

    return arity_of, is_singleton if points else None


def below(tg, t: str, rng, depth: int) -> list:
    """Relative leaves below a vertex of type t: a comb down a random path
    of at most ``depth`` carets, whose leaves are (leaf, type) pairs."""
    leaves, here = [], ()
    for _ in range(rng.randint(0, depth)):
        kids = tg.children[t]
        step = rng.randrange(len(kids))
        leaves += [(here + (i,), c) for i, c in enumerate(kids) if i != step]
        here, t = here + (step,), kids[step]
    return sorted(leaves + [(here, t)])


def refined_map(tg, g, rng) -> dict:
    """A leaf map of g on finer trees: combs of carets below leaf pairs on
    both sides, and every leaf pair whose ball is one point pushed down its
    unary path, by its own depth on each side."""
    kappa = {}
    for u, w in g.leaf_map().items():
        for s, t in below(tg, tg.type_at(u), rng, COMB_DEPTH):
            if tg.is_singleton_type(t):
                kappa[u + s + (0,) * rng.randint(0, UNARY_DEPTH)] = \
                    w + s + (0,) * rng.randint(0, UNARY_DEPTH)
            else:
                kappa[u + s] = w + s
    return kappa


def digits(kappa: dict) -> dict:
    return {"".join(map(str, u)): "".join(map(str, w))
            for u, w in kappa.items()}


@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32))
def test_normal_form_matches_the_string_map_oracle(tree, seed):
    tg = TREES[tree]
    rng = random.Random(seed)
    g = random_element(tg, rng.randint(0, 10), rng)
    kappa = refined_map(tg, g, rng)
    e = element_from_map(tg, kappa)
    assert to_strmap(e) == reduce_strmap(digits(kappa), *oracle_types(*SPECS[tree]))
    assert e == g
    assert reduce(TreePair.from_map(tg, kappa)) == e.pair


def test_the_sample_lifts_deep_pairs():
    # some drawn maps put leaf pairs hundreds of levels down unary paths
    deepest = {}
    for tree, tg in TREES.items():
        rng = random.Random(7)
        kappa = refined_map(tg, random_element(tg, 6, rng), rng)
        deepest[tree] = max(map(len, kappa))
    assert deepest["ray"] > 100 and deepest["mixed"] > 100
    assert deepest["one-child root"] >= 2


# Maps with an index out of range, and the error each gives from
# ``element_from_map`` (the reduction types the paths it reaches first) and
# from ``TreePair.from_map`` (the ordered walk of each side).
NOT_A_TREE = "the leaves are not the depth-first leaf list of a complete tree"
BAD_MAPS = [
    ("ray", {(0,): (0,), (1, 0, 5): (1,)}, "index 5 out of range at '10'"),
    ("ray", {(0,): (0,), (1, 0): (1, 3, 0)}, "index 3 out of range at '1'"),
    ("ray", {(0, 1): (0, 1), (0, 2, 0): (0, 0), (1,): (1,)},
     "index 2 out of range at '0'"),
    ("ray", {(0, 0): (0, 0), (0, 3, 1): (0, 3, 1), (1,): (1,)},
     "index 3 out of range at '0'"),
    ("ray", {(0, 0): (0, 0), (0, 1): (0, 1), (1,): (2,)}, NOT_A_TREE),
    ("one-child root", {(0, 0): (0, 0), (0, 1): (1, 1)},
     "index 1 out of range at ''"),
    ("one-child root", {(0, 0): (0, 0), (1, 1): (0, 1)},
     "index 1 out of range at ''"),
    ("one-child root", {(0, 0): (0, 0), (0, 1): (0, 2)}, NOT_A_TREE),
    ("one-child root", {(0, 0): (0, 0), (0, 2): (0, 2)}, NOT_A_TREE),
    ("mixed", {(0,): (0,), (1, 0, 0, 4): (1,), (2,): (2,)},
     "index 4 out of range at '100'"),
    ("mixed", {(0,): (0,), (1,): (1,), (2, 0, 3): (2, 0, 3)},
     "index 3 out of range at '20'"),
    ("mixed", {(0,): (0,), (1,): (1,), (2, 0, 0): (2, 1, 0),
               (2, 0, 1): (2, 0, 1)}, NOT_A_TREE),
]


@pytest.mark.parametrize("tree, kappa, message", BAD_MAPS)
def test_an_index_out_of_range_keeps_its_error(tree, kappa, message):
    tg = TREES[tree]
    with pytest.raises(ValueError) as caught:
        element_from_map(tg, kappa)
    assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        TreePair.from_map(tg, kappa)
    assert str(caught.value) == NOT_A_TREE


# ---------------------------------------------------------------------------
# The hash contract


def random_shape(tg, t: str, rng):
    """A random complete shape below a vertex of type t, or None."""
    leaves = [((), t)]
    for _ in range(rng.randint(0, 3)):
        k = rng.randrange(len(leaves))
        u, s = leaves[k]
        leaves[k:k + 1] = [(u + (i,), c) for i, c in enumerate(tg.children[s])]
    if leaves == [((), t)]:
        return None
    return shape_from_leaves(tg, [u for u, _ in leaves], t)


@pytest.mark.parametrize("tree", sorted(ALL_TREES))
def test_equal_pairs_hash_equally_from_every_builder(tree):
    tg = ALL_TREES[tree]
    for seed in range(25):
        rng = random.Random(seed)
        e = random_element(tg, rng.randint(0, 8), rng)
        p = e.pair
        built = [parse_pair(tg, format_pair(p)),
                 TreePair.from_map(tg, p.leaf_map()),
                 e.inverse().inverse().pair,
                 reduce(graft(p, lambda u, w: random_shape(tg, tg.type_at(u), rng)))]
        for q in built:
            assert q == p and hash(q) == hash(p) and {p: 0}[q] == 0
            assert Element(q) == e and hash(Element(q)) == hash(e)
            assert {e: 0}[Element(q)] == 0


DEEP_PAIR_HASH = """
from vtrees import TypeGraph
from vtrees.element import Element, TreePair
tg = TypeGraph({"a": ["a", "b"], "b": ["b"]}, "a")
deep = (1,) + (0,) * 199_999
p, q = (TreePair.from_map(tg, {(0,): (0,), deep: deep}) for _ in range(2))
assert p is not q and p == q and hash(p) == hash(q) and {p: 1}[q] == 1
assert hash(Element(p)) == hash(Element(q)) and {Element(p): 1}[Element(q)] == 1
"""


def test_a_deep_pair_hashes_in_a_fresh_process():
    proc = subprocess.run([sys.executable, "-c", DEEP_PAIR_HASH],
                          capture_output=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")[-2000:]
