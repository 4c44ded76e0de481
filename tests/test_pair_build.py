"""Tree pairs built in linear time: the one-pass shape builder against the
level-by-level reference in ``oracles.py``, the one walk of an ordered leaf
list against the validating builder, the leaf types carried down one walk
of each shape, the inverse read off the swapped pair, the work a product,
a power and an inverse do, and the parse of pair texts against the route
through the validating builder kept in ``oracles.py``."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import vtrees.element as element_module
from vtrees import (FormatError, TypeGraph, builtin_generators, compose,
                    format_element, parse_element, random_element, reduce)
from vtrees.element import (TreePair, expand_pair, format_pair, graft,
                            graft_map, shape_from_leaves, shape_leaves,
                            typed_leaves)
from vtrees.treespace import address_str

from oracles import parse_element_by_shapes, shape_by_levels

TREES = {
    "binary": TypeGraph({"b": ["b", "b"]}, "b"),
    "wide": TypeGraph({"r": ["b", "b", "b"], "b": ["b", "b"]}, "r"),
    "ray": TypeGraph({"a": ["a", "b"], "b": ["b"]}, "a"),
}
EXAMPLES = settings(database=None, derandomize=True, max_examples=200,
                    deadline=None)
KINDS = ("at least one leaf", "ancestor", "out of range", "missing branch")


def type_below(tg, t, address):
    for i in address:
        t = tg.children[t][i]
    return t


def random_leaves(tg, root_type, carets, rng):
    """The leaves of a complete tree below a vertex of ``root_type``, grown
    by ``carets`` expansions of uniformly chosen leaves."""
    leaves = {(): root_type}
    for _ in range(carets):
        u = rng.choice(sorted(leaves))
        for i, c in enumerate(tg.children[leaves.pop(u)]):
            leaves[u + (i,)] = c
    return sorted(leaves)


def corrupt(tg, root_type, leaves, how, rng):
    """``leaves`` with one defect: a leaf dropped, a descendant of a leaf
    added, or an index past its vertex's arity (``leaves`` must be valid
    addresses for this one)."""
    leaves = list(leaves)
    if how == "drop":
        leaves.pop(rng.randrange(len(leaves)))
    elif how == "descendant":
        u = rng.choice(leaves)
        leaves.append(u + tuple(rng.randrange(2)
                                for _ in range(rng.randint(1, 3))))
    else:
        u = rng.choice(leaves)
        k = rng.randrange(len(u) + 1)
        arity = tg.arity(type_below(tg, root_type, u[:k]))
        bad = u[:k] + (arity + rng.randrange(3),)
        leaves[leaves.index(u)] = bad + u[k + 1:] if k < len(u) else bad
    return leaves


def outcome(build):
    """The shape, or the kind of ValueError."""
    try:
        return build()
    except ValueError as e:
        kinds = [k for k in KINDS if k in str(e)]
        assert len(kinds) == 1, str(e)
        return kinds[0]


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       carets=st.integers(0, 14),
       defects=st.sets(st.sampled_from(("range", "drop", "descendant"))))
def test_shape_builder_matches_level_reference(tree, seed, carets, defects):
    tg = TREES[tree]
    rng = random.Random(seed)
    root = rng.choice(tg.types)
    leaves = random_leaves(tg, root, carets, rng)
    for how in ("range", "drop", "descendant"):
        if how in defects and (how != "drop" or len(leaves) > 1):
            leaves = corrupt(tg, root, leaves, how, rng)
    given_order = leaves + rng.sample(leaves, rng.randint(0, len(leaves)))
    rng.shuffle(given_order)
    got = outcome(lambda: shape_from_leaves(tg, given_order, root))
    assert got == outcome(lambda: shape_by_levels(tg.children, leaves, root))
    if not isinstance(got, str):
        assert shape_leaves(got) == sorted(set(leaves))


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       carets=st.integers(0, 14),
       defects=st.sets(st.sampled_from(("range", "drop", "descendant"))),
       order=st.sampled_from(("sorted", "swap", "repeat", "shuffle")))
def test_ordered_walk_accepts_exactly_ordered_leaf_lists(tree, seed, carets,
                                                         defects, order):
    # the walk accepts a list iff shape_from_leaves accepts its set and the
    # list is in depth-first order, and then it returns the shape with the
    # types that typed_leaves walks out of it
    tg = TREES[tree]
    rng = random.Random(seed)
    root = rng.choice(tg.types)
    leaves = random_leaves(tg, root, carets, rng)
    for how in ("range", "drop", "descendant"):
        if how in defects and (how != "drop" or len(leaves) > 1):
            leaves = corrupt(tg, root, leaves, how, rng)
    given_order = sorted(leaves)
    if order == "swap" and len(given_order) > 1:
        i = rng.randrange(len(given_order) - 1)
        given_order[i:i + 2] = given_order[i + 1], given_order[i]
    elif order == "repeat":
        i = rng.randrange(len(given_order))
        given_order.insert(i, given_order[i])
    elif order == "shuffle":
        rng.shuffle(given_order)
    in_order = all(a < b for a, b in zip(given_order, given_order[1:]))
    expected = outcome(lambda: shape_from_leaves(tg, given_order, root))
    try:
        got = element_module.ordered_tree(tg, given_order, root)
    except ValueError as e:
        assert "depth-first leaf list" in str(e)
        assert isinstance(expected, str) or not in_order
        return
    assert in_order
    walked, types = typed_leaves(TypeGraph(tg.children, root), expected)
    assert got == (expected, types) and walked == tuple(given_order)


@pytest.mark.parametrize("how", ["drop", "descendant", "range"])
def test_ordered_walk_rejects_each_defect(how):
    for tree, tg in sorted(TREES.items()):
        for seed in range(30):
            rng = random.Random(seed)
            root = rng.choice(tg.types)
            leaves = random_leaves(tg, root, rng.randint(2, 10), rng)
            if how == "drop" and len(leaves) == 1:
                continue  # below a ray
            bad = sorted(set(corrupt(tg, root, leaves, how, rng)))
            with pytest.raises(ValueError, match="depth-first leaf list"):
                element_module.ordered_tree(tg, bad, root)


def test_ordered_walk_rejects_lists_from_the_wrong_tree():
    walk = element_module.ordered_tree
    binary, wide = TREES["binary"], TREES["wide"]
    assert walk(binary, [()], "b") == (None, ("b",))
    assert walk(wide, [(0,), (1,), (2,)], "r") == ((None,) * 3, ("b",) * 3)
    for tg, root, leaves in ((binary, "b", []), (binary, "b", [(), ()]),
                             (binary, "b", [(), (0,), (1,)]),
                             (wide, "r", [(0,), (1,)]),
                             (binary, "b", [(0,), (1,), (2,)]),
                             (binary, "b", [(0,), (1, 1)]),
                             (binary, "b", [(0, 0), (1,)]),
                             (binary, "b", [(0,), (1, 0)]),
                             (binary, "b", [(0, 0), (1, 1), (1,)]),
                             (binary, "b", [(0, 0), (0, -1), (1,)])):
        with pytest.raises(ValueError, match="depth-first leaf list"):
            walk(tg, leaves, root)


@pytest.mark.parametrize("how, kind", [("drop", "missing branch"),
                                       ("descendant", "ancestor"),
                                       ("range", "out of range")])
def test_each_defect_gives_its_error(how, kind):
    for tree, tg in sorted(TREES.items()):
        for seed in range(30):
            rng = random.Random(seed)
            root = rng.choice(tg.types)
            leaves = random_leaves(tg, root, rng.randint(2, 10), rng)
            if how == "drop" and len(leaves) == 1:
                continue  # below a ray
            bad = corrupt(tg, root, leaves, how, rng)
            assert outcome(lambda: shape_from_leaves(tg, bad, root)) == kind, \
                (tree, seed, bad)


def test_shape_builder_rejects_negative_indices():
    with pytest.raises(ValueError, match="out of range"):
        shape_from_leaves(TREES["binary"], [(-1,), (0,), (1,)], "b")


def test_pair_rejects_a_shape_that_does_not_fit():
    with pytest.raises(ValueError, match="arity"):
        TreePair(TREES["binary"], (None, None, None), (None, None, None),
                 (0, 1, 2))


def random_sub(tg, rng):
    """A ``graft`` argument: a random complete shape below about half of
    the leaf pairs (order-isomorphic leaves take the same shapes)."""
    def sub_at(u, w):
        if rng.random() < 0.5:
            return None
        t = tg.type_at(u)
        return shape_by_levels(tg.children,
                               random_leaves(tg, t, rng.randint(1, 3), rng), t)
    return sub_at


# a binary tree whose two types differ only in name, so that the leaf
# types of two trees with the same leaf count differ in general
TWO_NAMES = TypeGraph({"a": ["a", "b"], "b": ["b", "a"]}, "a")


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES) + ["two names"]),
       seed=st.integers(0, 2 ** 32))
def test_leaf_types_are_the_root_walk_types(tree, seed):
    tg = TREES.get(tree, TWO_NAMES)
    rng = random.Random(seed)
    g = random_element(tg, rng.randint(0, 8), rng)
    for pair in (g.pair, graft(g.pair, random_sub(tg, rng)), g.inverse().pair):
        assert pair.domain_types == tuple(map(tg.type_at, pair.domain_leaves))
        assert pair.range_types == tuple(map(tg.type_at, pair.range_leaves))


def inverse_reference(g, rng):
    """``reduce`` of the inverted leaf map of a random refinement of g."""
    kappa = graft_map(g.pair, random_sub(g.tg, rng))
    return reduce(TreePair.from_map(g.tg, {w: u for u, w in kappa.items()}))


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32))
def test_inverse_is_the_reduced_inverted_map(tree, seed):
    tg = TREES[tree]
    rng = random.Random(seed)
    g = random_element(tg, rng.randint(0, 8), rng)
    inv = g.inverse()
    assert inv.pair == inverse_reference(g, rng)
    assert compose(g, inv).is_identity()
    assert compose(inv, g).is_identity()


def test_inverse_reference_lifts_singleton_leaves():
    # on the ray tree some reference maps have a singleton leaf pair below
    # an arity-1 vertex, so reduce applies the lift rule on the way
    tg = TREES["ray"]
    lifted = 0
    for seed in range(40):
        rng = random.Random(seed)
        g = random_element(tg, rng.randint(0, 8), rng)
        kappa = graft_map(g.pair, random_sub(tg, rng))
        lifted += any(tg.is_singleton_type(tg.type_at(u))
                      and tg.arity(tg.type_at(u[:-1])) == 1 for u in kappa)
        assert g.inverse().pair == reduce(
            TreePair.from_map(tg, {w: u for u, w in kappa.items()}))
    assert lifted >= 5


def test_products_powers_and_inverses_walk_no_root_paths(monkeypatch):
    # types come down one walk of each shape: no TypeGraph.type_at call;
    # an inverse is one TreePair and no shape rebuild; none of them walks
    # a shape with typed_leaves, which is for shapes from outside
    x0 = builtin_generators(TREES["binary"])["x0"]
    samples = {name: [random_element(tg, 6, random.Random(900 + i))
                      for i in range(6)] for name, tg in TREES.items()}
    counts = {"type_at": 0, "pair": 0, "shape": 0, "walk": 0}
    type_at = TypeGraph.type_at
    fill = TreePair._set
    build = element_module.ordered_tree
    walk = element_module.typed_leaves

    def counting(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(TypeGraph, "type_at", counting("type_at", type_at))
    monkeypatch.setattr(TreePair, "_set", counting("pair", fill))
    monkeypatch.setattr(element_module, "ordered_tree",
                        counting("shape", build))
    monkeypatch.setattr(element_module, "typed_leaves",
                        counting("walk", walk))
    for n in (7, 40, -40):
        x0.power(n)
    for elements in samples.values():
        for g, h in zip(elements, elements[1:]):
            compose(g, h)
    assert counts["type_at"] == 0 and counts["walk"] == 0
    assert counts["pair"] > 0
    for elements in samples.values():
        for g in elements:
            counts.update(type_at=0, pair=0, shape=0)
            g.inverse()
            assert counts == {"type_at": 0, "pair": 1, "shape": 0, "walk": 0}


# ---------------------------------------------------------------------------
# Parsing pair texts

MUTATIONS = ("drop", "repeat", "swap", "bad digit", "digit past arity",
             "short perm", "long perm", "perm swap", "unreduced")


def parse_outcome(parse, tg, text):
    """The element, or the text of the FormatError."""
    try:
        return parse(tg, text)
    except FormatError as e:
        return f"FormatError: {e}"


def mutate(g, how, rng):
    """The text of g's pair with one change: a leaf dropped, repeated or
    swapped with its neighbour, a digit replaced by a non-digit or by an
    index past every arity here, the perm cut short, lengthened or with two
    entries swapped; or the text of an unreduced pair of g."""
    p = g.pair
    if how == "unreduced":
        return format_pair(expand_pair(p, rng.choice(p.domain_leaves)))
    lists = {"domain": [address_str(u) for u in p.domain_leaves],
             "range": [address_str(w) for w in p.range_leaves],
             "perm": [str(i) for i in p.perm]}
    leaves = lists[rng.choice(("domain", "range"))]
    k = rng.randrange(len(leaves))
    perm = lists["perm"]
    if how == "drop":
        del leaves[k]
    elif how == "repeat":
        leaves.insert(k, leaves[k])
    elif how == "swap" and len(leaves) > 1:
        k = min(k, len(leaves) - 2)
        leaves[k], leaves[k + 1] = leaves[k + 1], leaves[k]
    elif how in ("bad digit", "digit past arity"):
        digit = "Z" if how == "bad digit" else "7"
        j = rng.randrange(len(leaves[k]) + 1)
        leaves[k] = leaves[k][:j] + digit + leaves[k][j + 1:]
    elif how == "short perm":
        perm.pop()
    elif how == "long perm":
        perm.append(str(len(perm)))
    elif how == "perm swap" and len(perm) > 1:
        i, j = rng.sample(range(len(perm)), 2)
        perm[i], perm[j] = perm[j], perm[i]
    return "pair{" + ", ".join(f"{field}=[{','.join(items)}]"
                               for field, items in lists.items()) + "}"


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       carets=st.integers(0, 16))
def test_format_parse_round_trip_matches_the_shape_route(tree, seed, carets):
    tg = TREES[tree]
    g = random_element(tg, carets, random.Random(seed))
    text = format_element(g)
    got = parse_element(tg, text)
    assert got == g and got.pair.domain == g.pair.domain
    assert parse_element_by_shapes(tg, text) == g


@EXAMPLES
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       carets=st.integers(0, 16), how=st.sampled_from(MUTATIONS))
def test_mutated_texts_parse_as_on_the_shape_route(tree, seed, carets, how):
    tg = TREES[tree]
    rng = random.Random(seed)
    g = random_element(tg, carets, rng)
    text = mutate(g, how, rng)
    got = parse_outcome(parse_element, tg, text)
    assert got == parse_outcome(parse_element_by_shapes, tg, text)
    if how == "unreduced":
        assert got == g


@pytest.mark.parametrize("text, reason", [
    ("pair{domain=[1,0], range=[0,1], perm=[0,1]}", "depth-first order"),
    ("pair{domain=[0,0,1], range=[0,1,1], perm=[0,1,2]}", "distinct"),
    ("pair{domain=[0,1], range=[0,10], perm=[0,1]}", "missing branch '11'"),
    ("pair{domain=[0,1,10], range=[0,1,2], perm=[0,1,2]}", "ancestor"),
    ("pair{domain=[0,1], range=[0,2], perm=[0,1]}", "index 2 out of range"),
    ("pair{domain=[0,1], range=[0,10,11], perm=[0,1]}", "different leaf counts"),
    ("pair{domain=[0,1], range=[0,1], perm=[0,0]}", "not a bijection"),
    ("pair{domain=[0,1X], range=[0,1], perm=[0,1]}", "bad address digit 'X'"),
    ("pair{domain=[0,1], range=[0,1], perm=[0,a]}", "bad perm"),
    ("pair{domain=[0,1], range=[0,1], perm=[]}", "empty perm"),
    ("pair{domain=[0,1], range=[0,1]}", "not a tree pair"),
])
def test_each_parse_error_is_the_shape_route_error(text, reason):
    tg = TREES["binary"]
    got = parse_outcome(parse_element, tg, text)
    assert got == parse_outcome(parse_element_by_shapes, tg, text)
    assert got.startswith("FormatError: ") and reason in got
