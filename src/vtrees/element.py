"""Group elements as reduced tree pairs with canonical leaf identifications.

An element is stored as a pair of finite complete subtrees of the ambient
tree together with a bijection between their leaf sets; below each matched
leaf pair the element acts by *the* order-preserving subtree isomorphism,
which transports child indices verbatim.  Only leaf pairs whose subtree types
are order-isomorphic are allowed, so every element acts in a locally
order-preserving way and is a homothety of ratio 2^(depth(u) - depth(image))
on each domain leaf ball.

Normal form: no caret of the domain tree is mapped onto a caret of the range
tree child-by-child (such carets are contracted), and leaf pairs whose balls
are single points are pushed to the shallowest vertices of their rays.  The
second rule matters only for type graphs with isolated boundary points; it
makes the normal form unique per element there as well (two pairs that differ
below an isolated point denote the same homeomorphism).

Complete subtrees are stored as nested tuples ("shapes"): ``None`` is a leaf,
a tuple holds the shapes of the children.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .treespace import (
    Address,
    BoundaryPoint,
    ClopenSet,
    FormatError,
    TypeGraph,
    _node_fill,
    address_str,
    junction_point,
    parse_address,
)

# ---------------------------------------------------------------------------
# Complete-subtree shapes
#
# These helpers run on every composition and reduction, over trees whose
# depth grows with word length (powers of a Thompson-like move have depth
# proportional to the exponent), so they use explicit stacks, not recursion.


def shape_leaves(shape) -> list:
    """Relative addresses of the leaves, in depth-first order."""
    out: list = []
    stack = [((), shape)]
    while stack:
        here, node = stack.pop()
        if node is None:
            out.append(here)
            continue
        for i in range(len(node) - 1, -1, -1):
            stack.append((here + (i,), node[i]))
    return out


def typed_leaves(tg: TypeGraph, shape) -> tuple:
    """The leaves of a shape at the root, in depth-first order, and their
    types, carried down one walk from the root type: the walk for shapes
    from outside the library.  Raises ValueError on a vertex whose child
    count is not its type's arity."""
    leaves: list = []
    types: list = []
    children = tg.children
    stack = [((), shape, tg.root_type)]
    while stack:
        here, node, t = stack.pop()
        if node is None:
            leaves.append(here)
            types.append(t)
            continue
        cs = children[t]
        if len(node) != len(cs):
            raise ValueError(f"vertex {address_str(here)!r} has {len(node)} "
                             f"children but type {t!r} has arity {len(cs)}")
        for i in range(len(node) - 1, -1, -1):
            stack.append((here + (i,), node[i], cs[i]))
    return tuple(leaves), tuple(types)


def shape_at(shape, address: Address):
    """Subshape at a relative address, or the leaf reached on the way to it:
    None in a shape, True or False in a clopen trie."""
    node = shape
    for i in address:
        if node.__class__ is not tuple:
            return node
        node = node[i]
    return node


def interior_vertices(leaves: Iterable[Address]) -> set:
    """The vertices strictly above some leaf: the interior of the tree whose
    leaf set is ``leaves``."""
    return {u[:k] for u in leaves for k in range(len(u))}


def shape_from_leaves(tg: TypeGraph, leaves: Iterable[Address], root_type: str):
    """Build and validate the complete-subtree shape with the given leaf
    set, in any order: the builder for leaf sets from outside the library.

    Raises ValueError when the addresses are not the exact leaf set of a
    complete subtree.  An ancestor clash is reported first, then an index
    out of range, then the first missing branch in depth-first order.
    """
    leaves = sorted(set(tuple(a) for a in leaves))
    if not leaves:
        raise ValueError("a complete tree has at least one leaf")
    # in sorted order a leaf's descendants follow it directly
    for u, v in zip(leaves, leaves[1:]):
        if v[:len(u)] == u:
            raise ValueError(f"leaf {address_str(u)!r} is an ancestor of another leaf")
    children = tg.children
    missing = None  # the first missing branch, reported once no index is bad
    nxt = ()  # the next leaf is nxt + (0, ..., 0)
    for a in leaves:
        t = root_type
        arities = []
        for k, i in enumerate(a):
            arities.append(len(children[t]))
            if not 0 <= i < arities[k]:
                raise ValueError(f"index {i} out of range at "
                                 f"{address_str(a[:k])!r} (arity {arities[k]})")
            t = children[t][i]
        if missing is None:
            nonzero = next((j for j in range(len(nxt), len(a)) if a[j]), None)
            if a[:len(nxt)] != nxt:
                missing = nxt
            elif nonzero is not None:
                missing = a[:nonzero] + (0,)
        # the deepest vertex above a with a child after a's path
        k = len(a) - 1
        while k >= 0 and a[k] == arities[k] - 1:
            k -= 1
        nxt = a[:k] + (a[k] + 1,) if k >= 0 else None
    if missing is None:
        missing = nxt
    if missing is not None:
        raise ValueError(f"missing branch {address_str(missing)!r}: "
                         "leaves do not cover the boundary")
    return ordered_tree(tg, leaves, root_type)[0]


def ordered_tree(tg: TypeGraph, leaves: Sequence[Address], root_type: str) -> tuple:
    """The shape below a vertex of ``root_type`` whose depth-first leaf list
    is ``leaves``, and the types of those leaves, from one walk.

    Raises ValueError unless there is such a complete tree: the first leaf
    is ``(0, ..., 0)``, each next leaf is ``prev[:n] + (prev[n] + 1, 0, ...,
    0)`` where every vertex below ``prev[:n]`` on prev's path is closed by
    its last child, and the last leaf closes the root (docs/dynamics_notes.md,
    section 6).  The last nonzero index of a leaf gives its n.
    """
    if len(leaves) == 1 and not leaves[0]:
        return None, (root_type,)
    children = tg.children
    stack = [(root_type, [])]  # the open vertices on prev's path: type, closed children
    types: list = []
    prev = ()
    for a in leaves:
        n = len(a) - 1
        if n < 0:
            raise ValueError(_NOT_A_TREE)
        while n and not a[n]:
            n -= 1
        while len(stack) > n + 1:  # close the vertices below prev[:n]
            t, kids = stack.pop()
            if len(kids) != len(children[t]):
                raise ValueError(_NOT_A_TREE)
            stack[-1][1].append(tuple(kids))
        t, kids = stack[-1]
        cs = children[t]
        if (len(stack) != n + 1 or a[n] != len(kids) or a[n] >= len(cs)
                or a[:n] != prev[:n]):
            raise ValueError(_NOT_A_TREE)
        t = cs[a[n]]
        for _ in range(n + 1, len(a)):  # open a's vertices down its zeros
            kids = []
            stack.append((t, kids))
            t = children[t][0]
        kids.append(None)
        types.append(t)
        prev = a
    while len(stack) > 1:
        t, kids = stack.pop()
        if len(kids) != len(children[t]):
            raise ValueError(_NOT_A_TREE)
        stack[-1][1].append(tuple(kids))
    t, kids = stack[0]
    if len(kids) != len(children[t]):  # also when there are no leaves
        raise ValueError(_NOT_A_TREE)
    return tuple(kids), tuple(types)


_NOT_A_TREE = "the leaves are not the depth-first leaf list of a complete tree"


_CLOSE = object()  # a stack marker: close the last n subshapes into one


def shape_union(a, b):
    """Common refinement (caret union) of two shapes at one vertex."""
    out: list = []  # the closed subshapes, in depth-first order
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if y is _CLOSE:
            out[-x:] = [tuple(out[-x:])]
        elif x is None or y is None or x is y:
            out.append(y if x is None else x)
        else:
            stack.append((len(x), _CLOSE))
            stack.extend(zip(reversed(x), reversed(y)))
    return out[0]


def shape_caret_count(shape) -> int:
    n = 0
    stack = [shape]
    while stack:
        node = stack.pop()
        if node is not None:
            n += 1
            stack.extend(node)
    return n


# ---------------------------------------------------------------------------
# Tree pairs


class TreePair:
    """A pair of complete subtrees with a type-compatible leaf bijection.

    ``perm[i]`` is the index (in depth-first order) of the range leaf paired
    with the i-th domain leaf (also in depth-first order).
    """

    __slots__ = ("tg", "domain", "range", "perm", "domain_leaves",
                 "range_leaves", "domain_types", "range_types")

    def __init__(self, tg: TypeGraph, domain, range_, perm: Sequence[int]):
        """The pair of two shapes from outside the library: their leaves
        and types come from one walk of each shape, which checks arities."""
        self._set(tg, domain, range_, tuple(perm),
                  *typed_leaves(tg, domain), *typed_leaves(tg, range_))

    def _set(self, tg, domain, range_, perm: tuple, domain_leaves: tuple,
             domain_types: tuple, range_leaves: tuple, range_types: tuple):
        """Keep the given fields and check them: equal leaf counts, a
        bijective perm and order-isomorphic paired types.  Each caller has
        walked the leaves and their types out of the shapes itself."""
        self.tg = tg
        self.domain = domain
        self.range = range_
        self.perm = perm
        self.domain_leaves, self.domain_types = domain_leaves, domain_types
        self.range_leaves, self.range_types = range_leaves, range_types
        if len(domain_leaves) != len(range_leaves):
            raise ValueError("domain and range trees have different leaf counts")
        if sorted(perm) != list(range(len(domain_leaves))):
            raise ValueError("perm is not a bijection of leaf indices")
        for u, t, pi in zip(domain_leaves, domain_types, perm):
            if not tg.subtree_order_isomorphic(t, range_types[pi]):
                raise ValueError(
                    f"leaf {address_str(u)!r} (type {t!r}) cannot be paired with "
                    f"{address_str(range_leaves[pi])!r} (type "
                    f"{range_types[pi]!r}): subtrees are not order-isomorphic")

    @staticmethod
    def from_map(tg: TypeGraph, mapping: Mapping[Address, Address]) -> "TreePair":
        return pair_from_ordered(tg, sorted(mapping.items()))

    def leaf_map(self) -> dict:
        return {u: self.range_leaves[pi]
                for u, pi in zip(self.domain_leaves, self.perm)}

    def __eq__(self, other: object) -> bool:  # flat: tuple == recurses
        return (isinstance(other, TreePair) and self.tg == other.tg
                and self.domain_leaves == other.domain_leaves
                and self.range_leaves == other.range_leaves
                and self.perm == other.perm)

    def __hash__(self) -> int:  # the fields __eq__ compares: flat tuples
        return hash((self.tg, self.domain_leaves, self.range_leaves, self.perm))

    def __repr__(self) -> str:
        return format_pair(self)


def format_pair(pair: TreePair) -> str:
    dom = ",".join(address_str(u) for u in pair.domain_leaves)
    ran = ",".join(address_str(w) for w in pair.range_leaves)
    perm = ",".join(str(i) for i in pair.perm)
    return f"pair{{domain=[{dom}], range=[{ran}], perm=[{perm}]}}"


_PAIR_RE = re.compile(
    r"^\s*pair\s*\{\s*domain\s*=\s*\[(?P<dom>[^]]*)\]\s*,\s*"
    r"range\s*=\s*\[(?P<ran>[^]]*)\]\s*,\s*"
    r"perm\s*=\s*\[(?P<perm>[^]]*)\]\s*\}\s*$")


def parse_pair(tg: TypeGraph, text: str) -> TreePair:
    """Parse the ``pair{domain=[...], range=[...], perm=[...]}`` format.

    An empty bracket pair denotes the single root leaf (a complete tree always
    has at least one leaf, so this is unambiguous).  The leaves are listed in
    depth-first order, so one ``ordered_tree`` walk builds and checks each
    side; only when a walk fails does ``shape_from_leaves`` name the defect.
    """
    m = _PAIR_RE.match(text)
    if not m:
        raise FormatError(f"not a tree pair: {text!r}")

    def addr_list(src: str) -> list:
        src = src.strip()
        if not src:
            return [()]
        return [parse_address(tok) for tok in src.split(",")]

    dom = addr_list(m.group("dom"))
    ran = addr_list(m.group("ran"))
    try:
        perm = [int(tok) for tok in m.group("perm").split(",")] if m.group("perm").strip() else []
    except ValueError:
        raise FormatError(f"bad perm in {text!r}") from None
    if not perm:
        raise FormatError(f"empty perm in {text!r}")
    try:
        try:
            domain, domain_types = ordered_tree(tg, dom, tg.root_type)
            range_, range_types = ordered_tree(tg, ran, tg.root_type)
        except ValueError:
            # a leaf set that is no complete tree names its own defect;
            # otherwise the leaves are out of order or repeated
            shape_from_leaves(tg, dom, tg.root_type)
            shape_from_leaves(tg, ran, tg.root_type)
            raise ValueError("leaves must be distinct and in depth-first "
                             "order") from None
        pair = TreePair.__new__(TreePair)
        pair._set(tg, domain, range_, tuple(perm), tuple(dom), domain_types,
                  tuple(ran), range_types)
        return pair
    except ValueError as e:
        raise FormatError(f"invalid tree pair {text!r}: {e}") from None


def pair_from_ordered(tg: TypeGraph, pairs: Sequence[tuple]) -> TreePair:
    """The tree pair of the leaf pairs ``(u, w)``, listed in depth-first
    order of u: one ``ordered_tree`` walk of each side, which raises
    ValueError unless the leaves are those of two complete trees (none
    missing, repeated or above another)."""
    dom = tuple([u for u, _ in pairs])
    ran = tuple(sorted([w for _, w in pairs]))
    index = {w: i for i, w in enumerate(ran)}
    domain, domain_types = ordered_tree(tg, dom, tg.root_type)
    range_, range_types = ordered_tree(tg, ran, tg.root_type)
    pair = TreePair.__new__(TreePair)
    pair._set(tg, domain, range_, tuple([index[w] for _, w in pairs]),
              dom, domain_types, ran, range_types)
    return pair


# ---------------------------------------------------------------------------
# Reduction to normal form


def reduce(pair: TreePair) -> TreePair:
    """The pair in normal form: ``cancel_carets`` of its leaf pairs, or the
    pair itself when they are already in normal form."""
    ran = pair.range_leaves
    pairs = list(zip(pair.domain_leaves, [ran[j] for j in pair.perm]))
    out = cancel_carets(pair.tg, pairs)
    return pair if out == pairs else pair_from_ordered(pair.tg, out)


def reduce_map(tg: TypeGraph, kappa: Mapping[Address, Address]) -> TreePair:
    """The reduced pair of a leaf map in any order: its items are sorted
    once and go through ``cancel_carets``."""
    return pair_from_ordered(tg, cancel_carets(tg, sorted(kappa.items())))


def cancel_carets(tg: TypeGraph, pairs: Iterable[tuple]) -> list:
    """The normal form of a leaf map, given and returned as its pairs
    ``(u, w)`` in depth-first order of u.

    One pass pushes the pairs on a stack.  Move (b): a pair whose ball is a
    single point is first lifted on both sides past arity-1 parents.  Move
    (a): a pair ``p + (a-1,) -> q + (a-1,)``, with p and q of arity a and
    ``p + (i,) -> q + (i,)`` on top of the stack, replaces them by ``p -> q``,
    while this applies.  Why that is the normal form: docs/dynamics_notes.md,
    section 6.  A pair that a move may change has its path typed once, into
    a list indexed by depth, by one walk from the root along its address.
    """
    children = tg.children
    singletons = tg._singleton_types  # mostly empty: then u is not typed

    def path_types(v: Address, n: int) -> list:
        """The types of v[:0], ..., v[:n], from one walk down v."""
        types = [tg.root_type]
        for j in range(n):
            cs = children[types[j]]
            if not 0 <= v[j] < len(cs):
                raise ValueError(f"index {v[j]} out of range at "
                                 f"{address_str(v[:j])!r}")
            types.append(cs[v[j]])
        return types

    def lifted(v: Address, types: list) -> Address:  # above arity-1 parents
        k = len(v)
        while k and len(children[types[k - 1]]) == 1:
            k -= 1
        return v[:k]

    out: list = []
    for u, w in pairs:
        tu = path_types(u, len(u)) if singletons else None
        tw = None
        if tu and tu[-1] in singletons:
            tw = path_types(w, len(w) - 1)
            u, w = lifted(u, tu), lifted(w, tw)
        while u and w and u[-1] == w[-1]:
            p, q = u[:-1], w[:-1]
            tu = tu or path_types(u, len(p))
            a = len(children[tu[len(p)]])
            n = len(out) - a + 1  # where the siblings' entries start
            if u[-1] != a - 1 or n < 0:
                break
            tw = tw or path_types(w, len(q))
            if (len(children[tw[len(q)]]) != a
                    or out[n:] != [(p + (i,), q + (i,)) for i in range(a - 1)]):
                break
            del out[n:]
            u, w = p, q
        out.append((u, w))
    return out


# ---------------------------------------------------------------------------
# Elements


class Element:
    """A tree-boundary transformation in reduced tree-pair normal form.

    Construct with :func:`make_element`, :func:`identity`, the parsers, or the
    group operations; the constructor itself trusts that ``pair`` is reduced.
    """

    __slots__ = ("pair",)

    def __init__(self, pair: TreePair):
        self.pair = pair

    @property
    def tg(self) -> TypeGraph:
        return self.pair.tg

    def key(self) -> tuple:
        p = self.pair
        return (p.domain_leaves, p.range_leaves, p.perm)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and self.pair == other.pair

    def __hash__(self) -> int:
        return hash(self.pair)

    def __repr__(self) -> str:
        return format_pair(self.pair)

    def is_identity(self) -> bool:
        return self.pair.domain is None and self.pair.range is None

    def leaf_map(self) -> dict:
        return self.pair.leaf_map()

    def ratio(self, u: Address) -> Fraction:
        """Homothety ratio on the domain leaf ball at u."""
        p = self.pair
        i = bisect_left(p.domain_leaves, u)
        if p.domain_leaves[i:i + 1] != (u,):
            raise KeyError(u)
        d = len(u) - len(p.range_leaves[p.perm[i]])
        return Fraction(2 ** d) if d >= 0 else Fraction(1, 2 ** (-d))

    # group structure -------------------------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        return compose(self, other)

    def inverse(self) -> "Element":
        # both normal-form moves are symmetric in domain and range, so the
        # swapped pair is reduced (docs/dynamics_notes.md, section 6)
        p = self.pair
        perm = [0] * len(p.perm)
        for i, j in enumerate(p.perm):
            perm[j] = i
        inv = TreePair.__new__(TreePair)
        inv._set(p.tg, p.range, p.domain, tuple(perm), p.range_leaves,
                 p.range_types, p.domain_leaves, p.domain_types)
        return Element(inv)

    __invert__ = inverse

    def power(self, n: int) -> "Element":
        if n < 0:
            return self.inverse().power(-n)
        out = identity(self.tg)
        base = self
        while n:
            if n & 1:
                out = compose(base, out)
            base = compose(base, base) if n > 1 else base
            n >>= 1
        return out

    __pow__ = power

    # the action ------------------------------------------------------------

    def apply_point(self, x: BoundaryPoint) -> BoundaryPoint:
        p = self.pair
        tg = p.tg
        if x.tg is not tg and x.tg != tg:
            raise ValueError("point over a different type graph")
        # the domain leaf above x: walk the domain shape along x's indices
        path = x.prefix
        node = p.domain
        n = 0
        while node is not None:
            if n == len(path):
                path += x.cycle
            node = node[path[n]]
            n += 1
        i = bisect_left(p.domain_leaves, path[:n])
        j = p.perm[i]
        tail_prefix, tail_cycle = x.drop(n)
        return junction_point(tg, p.range_leaves[j], p.range_types[j],
                              p.domain_types[i], tail_prefix, tail_cycle)

    def apply_clopen(self, c: ClopenSet) -> ClopenSet:
        if c.tg != self.tg:
            raise ValueError("clopen set over a different type graph")
        p = self.pair
        # the part of c below each domain leaf, at its range leaf's index
        subs = [None] * len(p.perm)
        for u, j in zip(p.domain_leaves, p.perm):
            subs[j] = shape_at(c.node, u)
        return ClopenSet(self.tg, _node_fill(p.range, subs))

    def __call__(self, x):
        if isinstance(x, BoundaryPoint):
            return self.apply_point(x)
        if isinstance(x, ClopenSet):
            return self.apply_clopen(x)
        raise TypeError(f"cannot apply an element to {type(x).__name__}")


def identity(tg: TypeGraph) -> Element:
    return Element(pair_from_ordered(tg, [((), ())]))


def make_element(pair: TreePair) -> Element:
    """Reduce a valid tree pair to normal form and wrap it as an element."""
    return Element(reduce(pair))


def element_from_map(tg: TypeGraph, mapping: Mapping[Address, Address]) -> Element:
    return Element(reduce_map(tg, mapping))


def parse_element(tg: TypeGraph, text: str) -> Element:
    return make_element(parse_pair(tg, text))


def format_element(e: Element) -> str:
    return format_pair(e.pair)


def graft(pair: TreePair, sub_at: Callable) -> TreePair:
    """The same map on finer trees: below each leaf pair u -> w the shape
    ``sub_at(u, w)`` is grafted on both sides (None grafts nothing)."""
    return pair_from_ordered(pair.tg, list(graft_map(pair, sub_at).items()))


def graft_map(pair: TreePair, sub_at: Callable) -> dict:
    """The leaf map of ``graft(pair, sub_at)``, without building its pair;
    its keys come in depth-first order."""
    kappa = {}
    for u, pi in zip(pair.domain_leaves, pair.perm):
        w = pair.range_leaves[pi]
        sub = sub_at(u, w)
        if sub is None:
            kappa[u] = w
        else:
            for s in shape_leaves(sub):
                kappa[u + s] = w + s
    return kappa


def expand_pair(pair: TreePair, u: Address) -> TreePair:
    caret = (None,) * pair.tg.arity(pair.tg.type_at(u))
    return graft(pair, lambda v, w: caret if v == u else None)


def compose(g: Element, h: Element) -> Element:
    """The element g o h (h applied first).

    An identity factor gives the other factor, with no pair built.
    Otherwise each leaf pair u -> w of h is followed through g's domain
    tree, which gives the leaf pairs of g o h on the common refinement in
    depth-first order; they are reduced in one pass.
    """
    if g.tg != h.tg:
        raise ValueError("elements over different type graphs")
    if g.is_identity():
        return h
    if h.is_identity():
        return g
    gp, hp = g.pair, h.pair
    kappa = []  # the leaf pairs, in depth-first order of the domain leaves
    for u, pi in zip(hp.domain_leaves, hp.perm):
        w = hp.range_leaves[pi]
        node = gp.domain
        n = 0
        while node is not None and n < len(w):
            node = node[w[n]]
            n += 1
        if node is None:
            # w lies in the ball of the g-domain leaf w[:n]
            i = bisect_left(gp.domain_leaves, w[:n])
            kappa.append((u, gp.range_leaves[gp.perm[i]] + w[n:]))
        else:
            # w is interior to g's domain tree: split u as g's leaves below w
            i = bisect_left(gp.domain_leaves, w)
            kappa += ((u + t, gp.range_leaves[gp.perm[k]])
                      for k, t in enumerate(shape_leaves(node), i))
    return Element(pair_from_ordered(g.tg, cancel_carets(g.tg, kappa)))


# ---------------------------------------------------------------------------
# Built-in generating families


class GeneratorFamily(Mapping):
    """Named elements, with a diagnostic when no family is constructed."""

    def __init__(self, elements: Mapping[str, Element], diagnostic: str | None = None):
        self._elements = dict(elements)
        self.diagnostic = diagnostic

    def __getitem__(self, name: str) -> Element:
        return self._elements[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __repr__(self) -> str:
        if self.diagnostic:
            return f"GeneratorFamily({{}}, diagnostic={self.diagnostic!r})"
        return f"GeneratorFamily({list(self._elements)})"


def _uniform_profile(tg: TypeGraph):
    """(k, d, base) if the tree is k-ary at ``base`` and uniformly d-ary below."""
    r = tg.root_type
    kids = tg.children[r]
    c0 = kids[0]
    if any(not tg.subtree_order_isomorphic(c, c0) for c in kids):
        return None
    if any(not tg.subtree_order_isomorphic(c, c0) for c in tg.children[c0]):
        return None
    return len(kids), tg.arity(c0)


def builtin_generators(tg: TypeGraph) -> GeneratorFamily:
    """A standard generating family for uniform-arity trees.

    For the binary tree this is {x0, x1, sigma, tau}: the two Thompson moves,
    the swap of the depth-1 balls and the swap of the two halves of the last
    depth-1 ball.  For a k-ary root over a uniformly d-ary tree the analogous
    moves are produced, plus the root k-cycle ``rho`` (k >= 3) and the d-cycle
    ``delta`` below the last root ball (d >= 3).  For other type graphs no
    family is claimed and a diagnostic is returned instead.
    """
    profile = _uniform_profile(tg)
    if profile is None:
        return GeneratorFamily({}, diagnostic=(
            "no built-in generating family: the tree is not uniformly "
            "branching below the root"))
    k, d = profile
    if k < 2 and d < 2:
        return GeneratorFamily({}, diagnostic=(
            "no built-in generating family: the boundary is a single point"))
    out: dict = {}

    def elem(mapping):
        return element_from_map(tg, mapping)

    if k >= 2 and d >= 1:
        # x0: split the first root ball, merge into the last one
        dom = [(0, i) for i in range(d)] + [(j,) for j in range(1, k)]
        ran = [(j,) for j in range(k - 1)] + [(k - 1, i) for i in range(d)]
        out["x0"] = elem(dict(zip(sorted(dom), sorted(ran))))
        if d >= 2:
            # x1: the same move one level down inside the last root ball
            last = (k - 1,)
            dom = ([(j,) for j in range(k - 1)]
                   + [last + (0, i) for i in range(d)]
                   + [last + (j,) for j in range(1, d)])
            ran = ([(j,) for j in range(k - 1)]
                   + [last + (j,) for j in range(d - 1)]
                   + [last + (d - 1, i) for i in range(d)])
            out["x1"] = elem(dict(zip(sorted(dom), sorted(ran))))
    if k >= 2:
        swap = {(j,): (j,) for j in range(k)}
        swap[(0,)], swap[(1,)] = (1,), (0,)
        out["sigma"] = elem(swap)
    if d >= 2:
        last = (k - 1,)
        m = {(j,): (j,) for j in range(k - 1)}
        for i in range(d):
            m[last + (i,)] = last + (i,)
        m[last + (0,)], m[last + (1,)] = last + (1,), last + (0,)
        out["tau"] = elem(m)
    if k >= 3:
        out["rho"] = elem({(j,): ((j + 1) % k,) for j in range(k)})
    if d >= 3:
        last = (k - 1,)
        m = {(j,): (j,) for j in range(k - 1)}
        for i in range(d):
            m[last + (i,)] = last + ((i + 1) % d,)
        out["delta"] = elem(m)
    out = {name: e for name, e in out.items() if not e.is_identity()}
    if not out:
        return GeneratorFamily({}, diagnostic=(
            "no built-in generating family: all candidate moves are trivial"))
    return GeneratorFamily(out)


# ---------------------------------------------------------------------------
# Random elements (test corpus generation)


# The largest ``size`` random_element takes, so that no call runs unbounded.
# At this bound one call takes 0.2-0.5 s on the binary, wide and ray trees
# (median of 8 seeds, 2-core x86 host, CPython 3.11), and up to ~1.8 s for a
# few ray-tree seeds: the ray tree's long paths make the cost superlinear.
MAX_RANDOM_SIZE = 16_000


def _random_leaves(tg: TypeGraph, carets: int, rng: random.Random) -> list:
    """The (leaf, type) pairs, in depth-first order, of a random complete
    subtree grown by ``carets`` uniform leaf expansions."""
    # A leaf's children take its place in depth-first order, so the list
    # stays sorted without a sort per caret.
    cur = [((), tg.root_type)]
    for _ in range(carets):
        k = rng.randrange(len(cur))
        u, t = cur[k]
        cur[k:k + 1] = [(u + (i,), c) for i, c in enumerate(tg.children[t])]
    return cur


def random_complete_shape(tg: TypeGraph, carets: int, rng: random.Random):
    """A random complete subtree grown by ``carets`` uniform leaf expansions."""
    leaves = [u for u, _ in _random_leaves(tg, carets, rng)]
    return ordered_tree(tg, leaves, tg.root_type)[0]


def random_element(tg: TypeGraph, size: int, rng_or_seed) -> Element:
    """A random reduced element whose trees have at most ``size`` carets each.

    Deterministic in the seed.  Raises ValueError when ``size`` is outside
    0..``MAX_RANDOM_SIZE``, or when no type-compatible leaf bijection could
    be sampled at any shape up to the requested size.
    """
    rng = (rng_or_seed if isinstance(rng_or_seed, random.Random)
           else random.Random(rng_or_seed))
    if size < 0:
        raise ValueError("size must be >= 0")
    if size > MAX_RANDOM_SIZE:
        raise ValueError(f"size must be <= MAX_RANDOM_SIZE = {MAX_RANDOM_SIZE}")
    for _attempt in range(200):
        c = rng.randint(0, size)
        dom = _random_leaves(tg, c, rng)
        ran = _random_leaves(tg, c, rng)
        by_color_d: dict = {}
        by_color_r: dict = {}
        for u, t in dom:
            by_color_d.setdefault(tg._ordered_color[t], []).append(u)
        for w, t in ran:
            by_color_r.setdefault(tg._ordered_color[t], []).append(w)
        if {c_: len(v) for c_, v in by_color_d.items()} != \
           {c_: len(v) for c_, v in by_color_r.items()}:
            continue
        mapping = {}
        for color, us in sorted(by_color_d.items()):
            ws = list(by_color_r[color])
            rng.shuffle(ws)
            for u, w in zip(us, ws):
                mapping[u] = w
        return element_from_map(tg, mapping)
    raise ValueError("could not sample a type-compatible leaf bijection "
                     f"at any shape with <= {size} carets")
