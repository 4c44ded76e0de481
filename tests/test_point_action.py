"""The point action: canonical ends and their images under elements.

``boundary_point`` canonicalises a whole end; ``Element.apply_point``
re-canonicalises only the junction of the image leaf and the old tail
(docs/dynamics_notes.md, section 4).  Both are checked against the oracle's
canonical form and against the string-map image.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import vtrees.element as element_module
import vtrees.treespace as treespace
from vtrees import (
    BoundaryPoint,
    TypeGraph,
    boundary_point,
    dichotomy,
    element_from_map,
    random_element,
)

from oracles import canonical_point_oracle, same_point, strmap_apply_point, to_strmap

POINT_TREES = {
    "binary": ({"b": ["b", "b"]}, "b"),
    "wide": ({"r": ["b", "b", "b"], "b": ["b", "b"]}, "r"),
    "ray": ({"a": ["a", "b"], "b": ["b"]}, "a"),
    # a one-child root over a binary tree
    "stem": ({"c": ["d"], "d": ["d", "d"]}, "c"),
    # two distinct but order-isomorphic types: leaf pairs may change the
    # type name, which takes apply_point to the general canonicaliser
    "twins": ({"p": ["q", "p"], "q": ["p", "q"]}, "p"),
    # the same, but no automorphism of the type graph swaps p and q, so the
    # general canonicaliser can shorten a tail that was canonical below u
    "sink": ({"p": ["q", "p"], "q": ["q", "q"]}, "p"),
}
GRAPHS = {name: TypeGraph(*spec) for name, spec in POINT_TREES.items()}


def walk(children, t, raw):
    """The indices ``raw`` read modulo the arity at each vertex, and the end
    type."""
    path = []
    for d in raw:
        cs = children[t]
        path.append(d % len(cs))
        t = cs[path[-1]]
    return path, t


def valid_end(children, root, prefix_digits, cycle_digits):
    """A valid (prefix, cycle): the cycle read from the prefix's end type,
    or all zeros when a later copy of it leaves the tree."""
    prefix, t = walk(children, root, prefix_digits)
    cycle, _ = walk(children, t, cycle_digits)
    for _copy in range(len(children) + 1):
        for i in cycle:
            if i >= len(children[t]):
                return prefix, [0] * len(cycle)
            t = children[t][i]
    return prefix, cycle


def digits(address) -> str:
    return "".join(map(str, address))


def undigits(text: str) -> tuple:
    return tuple(int(c) for c in text)


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(tree=st.sampled_from(sorted(POINT_TREES)),
       prefix=st.lists(st.integers(0, 2), max_size=6),
       cycle=st.lists(st.integers(0, 2), min_size=1, max_size=4),
       carets=st.integers(0, 4), seed=st.integers(0, 2 ** 32))
def test_point_action_matches_oracle(tree, prefix, cycle, carets, seed):
    children, root = POINT_TREES[tree]
    tg = GRAPHS[tree]
    prefix, cycle = valid_end(children, root, prefix, cycle)
    x = boundary_point(tg, prefix, cycle)
    assert (x.prefix, x.cycle) == canonical_point_oracle(children, root, prefix, cycle)
    e = random_element(tg, carets, seed)
    y = e.apply_point(x)
    image = strmap_apply_point(to_strmap(e), (digits(x.prefix), digits(x.cycle)))
    assert same_point((digits(y.prefix), digits(y.cycle)), image)
    assert (y.prefix, y.cycle) == canonical_point_oracle(
        children, root, undigits(image[0]), undigits(image[1]))


def test_point_equality_and_hash():
    a = TypeGraph({"b": ["b", "b"]}, "b")
    b = TypeGraph({"b": ["b", "b"]}, "b")
    assert a is not b
    x = boundary_point(a, (0, 1), (0,))
    y = boundary_point(b, (0, 1, 0, 0), (0, 0))
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert hash(x) == hash((a, (0, 1), (0,)))
    assert x != boundary_point(a, (0, 1), (1,))
    assert x != boundary_point(TypeGraph({"c": ["c", "c"]}, "c"), (0, 1), (0,))
    # never equal to the tuples of its fields
    for t in ((a, (0, 1), (0,)), ((0, 1), (0,)), x.sort_key()):
        assert x != t and not x == t
        assert x.__eq__(t) is NotImplemented


def test_point_public_form_is_unchanged():
    tg = TypeGraph({"b": ["b", "b"]}, "b")
    x = boundary_point(tg, (0, 1, 0), (0, 0))
    assert BoundaryPoint._fields == ("tg", "prefix", "cycle")
    assert str(x) == "01(0)^inf"
    assert repr(x) == f"BoundaryPoint(tg={tg!r}, prefix=(0, 1), cycle=(0,))"
    assert x.sort_key() == ((0, 1), (0,))
    with pytest.raises(AttributeError):
        x.prefix = ()


def test_point_is_slotted_and_hashed_once(monkeypatch):
    tg = GRAPHS["binary"]
    x = boundary_point(tg, (0, 1), (0,))
    assert not hasattr(x, "__dict__")
    calls = []
    tg_hash = TypeGraph.__hash__

    def counted_hash(self):
        calls.append(self)
        return tg_hash(self)

    monkeypatch.setattr(TypeGraph, "__hash__", counted_hash)
    # building a point hashes its type graph once; hashing it again,
    # directly or in a set, does not
    y = boundary_point(tg, (0, 1, 0), (0, 0))
    assert calls == [tg]
    for _ in range(3):
        assert hash(x) == hash(y) and len({x, y}) == 1
    assert calls == [tg]
    # copies are built through the constructor, so they keep working
    assert copy.deepcopy(x) == pickle.loads(pickle.dumps(x)) == x


def test_v_orbit_probes_stay_at_the_junction(v_gens, monkeypatch):
    calls = {"apply_point": 0, "general": 0}
    inside = []
    apply_point = element_module.Element.apply_point
    canonical = treespace._canonical

    def counted_apply_point(self, x):
        calls["apply_point"] += 1
        inside.append(x)
        try:
            return apply_point(self, x)
        finally:
            inside.pop()

    def counted_canonical(*args):
        calls["general"] += inside != []
        return canonical(*args)

    monkeypatch.setattr(element_module.Element, "apply_point", counted_apply_point)
    monkeypatch.setattr(treespace, "_canonical", counted_canonical)
    assert dichotomy(v_gens).verdict == "ping-pong"
    assert calls == {"apply_point": 64, "general": 0}
    # a leaf pair between the two twin types does take the general path
    tg = GRAPHS["twins"]
    swap = element_from_map(tg, {(0,): (1,), (1,): (0,)})
    assert str(swap.apply_point(boundary_point(tg, (), (0,)))) == "1(00)^inf"
    assert calls == {"apply_point": 65, "general": 1}
