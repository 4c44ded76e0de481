"""Independent oracles used by the tests.

Everything here recomputes answers from first principles without going
through the library's own machinery, so the tests compare two genuinely
different routes to the same value:

- a string-map engine for tree-pair transformations (compose / contract /
  identity test / bounded order search), fast enough to take a thousand
  powers of an element;
- finite unrollings of type graphs for isomorphism checks;
- depth-n enumeration of ball addresses for clopen membership;
- the revealing condition, from the raw leaf map of a tree pair;
- canonical forms of eventually periodic ends, from their (type, index)
  sequences;
- finite orbits, closed under string maps on point strings, and orbits
  found by a breadth-first search over string maps;
- the common prefix length of two points, from their digit strings;
- ping-pong witnesses, from their pair strings and ball lists;
- the translation search that composes every enumerated element;
- the ping-pong radius searches that build neighborhoods one radius at a
  time, and the caret union of two trees from their leaf sets;
- the nested shape of a complete tree from its leaf set, level by level
  through prefix sets;
- the finite closure of a subgroup by a breadth-first search of its Cayley
  graph;
- the element of a pair text by a second route through the library's
  builders: the validating shape builder for any leaf order, a separate
  order check and the constructor that walks both shapes again;
- the power-bound trap of each attracting cycle, by trying refinements
  t = 0, 1, ... m until the ball and its images fit the target, and the
  power bound N by iterating images until they enter that trap;
- the periodic points of a revealing pair, by iterating the element (its
  inverse on repelling chains) from one point per chain, and the collapse
  of fake chains, one chain per rebuilt pair;
- the leaves of a random complete tree, sorting the leaf list before each
  caret is drawn.
"""

from __future__ import annotations

import itertools
import math
import re
import string
from fractions import Fraction

DIGITS = string.digits + string.ascii_lowercase  # child index -> address digit


# ---------------------------------------------------------------------------
# String-map engine.  An element is a dict {source leaf -> image leaf} over
# digit-string addresses; keys form the leaf set of a finite complete tree
# and the element maps each source ball onto its image ball preserving the
# tail.  This mirrors the library's semantics but shares none of its code.


def to_strmap(element) -> dict:
    return {"".join(map(str, u)): "".join(map(str, w))
            for u, w in element.pair.leaf_map().items()}


def compose_strmaps(gmap: dict, hmap: dict) -> dict:
    """g after h, by refining h until its images land in g's source leaves."""
    out = {}
    gmaxlen = max(map(len, gmap))
    for u, w in hmap.items():
        v = None
        for k in range(min(len(w), gmaxlen) + 1):
            v = gmap.get(w[:k])
            if v is not None:
                out[u] = v + w[k:]
                break
        if v is None:
            for key, val in gmap.items():
                if key.startswith(w):
                    out[u + key[len(w):]] = val
    return out


def reduce_strmap(m: dict, arity_of, is_singleton=None) -> dict:
    """Contract carets mapped child-by-child onto carets of the same arity
    and, where ``is_singleton`` says that a leaf's ball is one point, lift
    the leaf pair past arity-1 parents on both sides; both moves are
    repeated until neither applies."""
    m = dict(m)
    while True:
        stack = sorted({u[:-1] for u in m if u})
        while stack:
            p = stack.pop()
            a = arity_of(p)
            vals = [m.get(p + str(i)) for i in range(a)]
            if any(v is None for v in vals):
                continue
            w0 = vals[0]
            if not w0 or w0[-1] != "0":
                continue
            wp = w0[:-1]
            if arity_of(wp) != a:
                continue
            if all(vals[i] == wp + str(i) for i in range(1, a)):
                for i in range(a):
                    del m[p + str(i)]
                m[p] = wp
                if p:
                    stack.append(p[:-1])
        lifted = False
        for u in sorted(m) if is_singleton else ():
            if not is_singleton(u):
                continue
            up, wp = u, m[u]
            while up and arity_of(up[:-1]) == 1:
                up = up[:-1]
            while wp and arity_of(wp[:-1]) == 1:
                wp = wp[:-1]
            if (up, wp) != (u, m[u]):
                del m[u]
                m[up] = wp
                lifted = True
        if not lifted:
            return m


def strmap_is_identity(m: dict) -> bool:
    return all(u == w for u, w in m.items())


def strmap_apply(m: dict, point: str, periodic_from: int) -> str:
    """Apply to an eventually periodic point given as a long finite string
    whose tail from ``periodic_from`` repeats; returns a finite-string image
    long enough for prefix comparisons (test helper, not exact arithmetic)."""
    for u, w in m.items():
        if point.startswith(u):
            return w + point[len(u):]
    raise AssertionError("point escaped the leaf partition")


def brute_force_order_search(element, arity_of, leaf_to_carets,
                             nmax: int = 1000):
    """Least n <= nmax with element^n == id, else None; by normal forms.

    Powers are taken in the string-map engine and contracted to normal form
    after every step.  Early exit is sound: caret counts are subadditive
    under composition (c(gh) <= c(g) + c(h), hence c(gh) >= c(h) - c(g)), so
    once c(g^n) > (nmax - n) * c(g) no later power up to nmax can be trivial.
    """
    if element.is_identity():
        return 1
    gred = reduce_strmap(to_strmap(element), arity_of)
    s1 = max(leaf_to_carets(len(gred)), 1)
    cur = dict(gred)
    for n in range(1, nmax + 1):
        if strmap_is_identity(cur):
            return n
        if leaf_to_carets(len(cur)) > (nmax - n) * s1:
            return None
        cur = reduce_strmap(compose_strmaps(gred, cur), arity_of)
    return None


def binary_helpers():
    """(arity_of, leaf_to_carets) for the uniform binary tree."""
    return (lambda p: 2), (lambda leaves: leaves - 1)


def wide_helpers():
    """(arity_of, leaf_to_carets) for the 3-children-at-the-root binary tree."""
    return (lambda p: 3 if p == "" else 2), \
           (lambda leaves: 0 if leaves == 1 else leaves - 2)


def ray_helpers():
    """(arity_of, is_singleton) for the ray tree ``a -> [a, b], b -> [b]``:
    a vertex has type b, an arity-1 vertex whose ball is one point, exactly
    when its address has a 1."""
    return (lambda p: 1 if "1" in p else 2), (lambda p: "1" in p)


# ---------------------------------------------------------------------------
# Finite unrollings for isomorphism oracles


def unroll(tg, t: str, depth: int):
    """The ordered tree below a type, truncated at the given depth."""
    if depth == 0:
        return "*"
    return tuple(unroll(tg, c, depth - 1) for c in tg.children[t])


def order_iso_to_depth(tg, s: str, t: str, depth: int) -> bool:
    """Ordered rooted-tree isomorphism of the depth-d unrollings, the i-th
    child matched with the i-th child."""
    return unroll(tg, s, depth) == unroll(tg, t, depth)


# ---------------------------------------------------------------------------
# Depth-n enumeration for clopen membership


def addresses_at_depth(tg, n: int):
    out = [()]
    for _ in range(n):
        nxt = []
        for a in out:
            for i in range(tg.arity(tg.type_at(a))):
                nxt.append(a + (i,))
        out = nxt
    return out


def contains_point_bruteforce(c, x, depth: int) -> bool:
    """Membership via the depth-n prefix: valid whenever depth is at least
    the deepest ball of c."""
    prefix = x.address_prefix(depth)
    for b in c.balls():
        if len(b) <= depth and prefix[:len(b)] == b:
            return True
    return False


def max_ball_depth(c) -> int:
    return max((len(b) for b in c.balls()), default=0)


# ---------------------------------------------------------------------------
# Revealing condition from raw leaf sets


def revealing_oracle(leaf_map) -> bool:
    """The revealing condition for the tree pair with this leaf bijection
    (domain leaf -> range leaf, addresses as index tuples).

    A chain starts at a domain leaf that is no range leaf and follows the
    map while it stays on domain leaves; it is attracting when it ends
    strictly below its start and repelling when it starts strictly below its
    end.  Range-minus-domain has one component per domain leaf interior to
    the range tree, and it must hold an attractor (a chain end); domain-
    minus-range has one per range leaf interior to the domain tree, and it
    must hold a repeller (a chain start).
    """
    m = {"".join(map(str, u)): "".join(map(str, w))
         for u, w in leaf_map.items()}
    dom, ran = set(m), set(m.values())
    attractors, repellers = [], []
    for start in dom - ran:
        end = m[start]
        while end in m:
            end = m[end]
        if end.startswith(start):
            attractors.append(end)
        elif start.startswith(end):
            repellers.append(start)

    def interior(v, leaves):
        return any(len(u) > len(v) and u.startswith(v) for u in leaves)

    return (all(any(a.startswith(w) for a in attractors)
                for w in dom if interior(w, ran))
            and all(any(r.startswith(w) for r in repellers)
                    for w in ran if interior(w, dom)))


# ---------------------------------------------------------------------------
# Finite orbits from string maps and point strings
#
# A point is the string "prefix(cycle)^inf" and is handled as the pair
# (prefix, cycle) of the infinite sequence prefix + cycle + cycle + ...


def parse_point_str(text: str) -> tuple:
    m = re.fullmatch(r"([0-9a-z]*)\(([0-9a-z]+)\)\^inf", text)
    if m is None:
        raise ValueError(f"not an eventually periodic point: {text!r}")
    return m.group(1), m.group(2)


def same_point(x: tuple, y: tuple) -> bool:
    """Equality of eventually periodic sequences.  From position
    max(|p|, |q|) on both repeat with period lcm(|c|, |d|), so agreeing on
    one more period decides equality exactly."""
    (p, c), (q, d) = x, y
    n = max(len(p), len(q)) + math.lcm(len(c), len(d))
    return (p + c * n)[:n] == (q + d * n)[:n]


def strmap_apply_point(m: dict, x: tuple) -> tuple:
    """Exact image of (prefix, cycle) under a string leaf map."""
    p, c = x
    # long enough to pass every leaf, and the rest of the point is c^inf
    s = p + c * max(map(len, m))
    for u, w in m.items():
        if s.startswith(u):
            return w + s[len(u):], c
    raise AssertionError("point escaped the leaf partition")


def common_prefix_oracle(x: tuple, y: tuple) -> int:
    """Length of the longest common prefix of two distinct eventually
    periodic sequences (prefix, cycle): they differ within one period past
    the longer prefix (see ``same_point``)."""
    (p, c), (q, d) = x, y
    n = max(len(p), len(q)) + math.lcm(len(c), len(d))
    a, b = (p + c * n)[:n], (q + d * n)[:n]
    return next(k for k in range(n) if a[k] != b[k])


def letter_strmaps(s) -> list:
    """(letter, string map) for every generator and inverse of a generating
    set, in its letter order: generator order, plain before inverse."""
    out = []
    for name, e in zip(s.names, s.elements):
        m = to_strmap(e)
        out += [((name, 1), m), ((name, -1), {w: u for u, w in m.items()})]
    return out


def strmap_apply_word(letter_maps, word, x: tuple) -> tuple:
    """Image of the point (prefix, cycle) under a word, its rightmost
    letter acting first."""
    maps = dict(letter_maps)
    for letter in reversed(word):
        x = strmap_apply_point(maps[letter], x)
    return x


def orbit_oracle(letter_maps, seed: tuple, cap: int) -> list:
    """Breadth-first orbit of the point (prefix, cycle) under the letter
    maps, taken in their order, as a list in order of discovery.  The
    search stops once it has cap + 1 points, so the orbit has at most cap
    points iff it returns at most cap.  Points are compared as sequences
    (``same_point``)."""
    points = [seed]
    i = 0
    while i < len(points) and len(points) <= cap:
        for _, m in letter_maps:
            z = strmap_apply_point(m, points[i])
            if not any(same_point(z, y) for y in points):
                points.append(z)
                if len(points) > cap:
                    break
        i += 1
    return points


def canonical_point_oracle(children: dict, root: str, prefix, cycle) -> tuple:
    """Canonical (prefix, cycle) of the end prefix cycle^inf of the tree
    unrolled from ``root``: the least L from which its (type, index)
    sequence is purely periodic, then its least period.

    From step len(prefix) on, the pair (type, position in the cycle)
    determines the rest of the sequence; there are at most
    M = len(children) * len(cycle) such states, so the sequence is periodic
    from P = len(prefix) + M with some period q <= M.  A candidate period
    that holds over the M steps from P holds for good.
    """
    prefix, cycle = list(prefix), list(cycle)
    m = len(children) * len(cycle)
    start = len(prefix) + m
    indices = prefix + cycle * (3 * m + 1)
    seq = []
    t = root
    for i in indices:
        seq.append((t, i))
        t = children[t][i]
    p = next(p for p in range(1, m + 1)
             if all(seq[i] == seq[i + p] for i in range(start, start + m)))
    n = start
    while n and seq[n - 1] == seq[n - 1 + p]:
        n -= 1
    return tuple(indices[:n]), tuple(indices[n:n + p])


def finite_orbit_oracle(gen_maps, seed: str, points) -> bool:
    """True iff the points are distinct, contain the seed, and are mapped
    into themselves by every generator and every inverse (the reversed
    map); so they hold the seed's finite orbit."""
    pts = [parse_point_str(t) for t in points]
    if not any(same_point(parse_point_str(seed), x) for x in pts):
        return False
    if any(same_point(pts[i], pts[j])
           for i in range(len(pts)) for j in range(i + 1, len(pts))):
        return False
    maps = []
    for m in gen_maps:
        maps += [m, {w: u for u, w in m.items()}]
    return all(any(same_point(strmap_apply_point(m, x), y) for y in pts)
               for m in maps for x in pts)


# ---------------------------------------------------------------------------
# Ping-pong witnesses from pair strings and ball lists


def parse_pair_strmap(text: str) -> dict:
    """The string leaf map of a ``pair{domain=[...], range=[...],
    perm=[...]}`` string; an empty list is the root leaf."""
    m = re.fullmatch(r"pair\{domain=\[([^]]*)\], range=\[([^]]*)\], "
                     r"perm=\[([^]]*)\]\}", text)
    if m is None:
        raise ValueError(f"not a tree pair: {text!r}")
    dom, ran = ([a.strip() for a in g.split(",")] for g in m.groups()[:2])
    perm = [int(i) for i in m.group(3).split(",")]
    return {u: ran[pi] for u, pi in zip(dom, perm)}


def balls_meet(xs, ys) -> bool:
    """True iff some ball of xs and some ball of ys are nested."""
    return any(x.startswith(y) or y.startswith(x) for x in xs for y in ys)


def complement_balls(balls, arity_of, node: str = "") -> list:
    """The maximal balls below ``node`` that miss every given ball."""
    if any(node.startswith(b) for b in balls):
        return []
    if not any(b.startswith(node) for b in balls):
        return [node]
    return [c for i in range(arity_of(node))
            for c in complement_balls(balls, arity_of, node + DIGITS[i])]


def strmap_image_balls(m: dict, ball: str) -> list:
    """Image balls of a ball: translated when it lies below a domain leaf,
    split along the domain leaves below it otherwise."""
    for u, w in m.items():
        if ball.startswith(u):
            return [w + ball[len(u):]]
    return [w for u, w in m.items() if u.startswith(ball)]


def pingpong_oracle(g: str, h: str, u1, v1, u2, v2, arity_of) -> bool:
    """True iff U1, V1, U2, V2 (ball strings) are pairwise disjoint and the
    pairs g, h (pair strings) map X - U1 into V1 and X - U2 into V2."""
    sets = [list(u1), list(v1), list(u2), list(v2)]
    if any(balls_meet(sets[i], sets[j])
           for i in range(4) for j in range(i + 1, 4)):
        return False
    for pair, u, v in ((g, u1, v1), (h, u2, v2)):
        m = parse_pair_strmap(pair)
        for ball in complement_balls(u, arity_of):
            for image in strmap_image_balls(m, ball):
                if not any(image.startswith(b) for b in v):
                    return False
    return True


# ---------------------------------------------------------------------------
# Translation search by element enumeration


def first_moving_off_by_elements(elements, a_points, b_points):
    """The first (word, element) of an enumeration that maps every point of
    A off B, or None: the translation search that composes every element
    it enumerates."""
    a_points = list(a_points)
    b_set = set(b_points)
    for word, e in elements:
        if all(e.apply_point(p) not in b_set for p in a_points):
            return word, e
    return None


# ---------------------------------------------------------------------------
# Ping-pong radii by search, one radius at a time


def separation_by_search(tg, sets, cap: int):
    """Least m <= cap at which the 2^-m-neighborhoods of the point sets are
    pairwise disjoint, or None: the loop that built all of them at each
    radius in turn."""
    from vtrees import epsilon_neighborhood
    for m in range(cap + 1):
        nb = [epsilon_neighborhood(tg, pts, Fraction(1, 2 ** m)) for pts in sets]
        if all(nb[i].intersect(nb[j]).is_empty()
               for i in range(len(nb)) for j in range(i + 1, len(nb))):
            return m
    return None


def shrink_radius(tg, points, predicate, depth_budget: int):
    """Largest radius 2^-m (0 <= m <= depth_budget) whose neighborhood of
    the points satisfies the predicate; None if none does."""
    from vtrees import epsilon_neighborhood
    for m in range(depth_budget + 1):
        eps = Fraction(1, 2 ** m)
        nbhd = epsilon_neighborhood(tg, points, eps)
        if predicate(nbhd, eps):
            return eps
    return None


def leaf_union(xs, ys) -> list:
    """Leaves of the common refinement of two complete trees, from their
    leaf addresses: the leaves of either tree with no proper descendant
    among the leaves of both, in depth-first order."""
    both = set(xs) | set(ys)
    return sorted(u for u in both
                  if not any(len(v) > len(u) and v[:len(u)] == u for v in both))


def shape_by_levels(children: dict, leaves, root_type: str):
    """The nested shape (None for a leaf, a tuple of child shapes otherwise)
    of the complete tree with this leaf set below a vertex of ``root_type``,
    through the prefix set of its interior: types shallow to deep, shapes
    deep to shallow.  Raises ValueError naming an ancestor clash, then an
    index out of range, then a missing branch."""
    leaves = sorted(set(tuple(a) for a in leaves))
    if not leaves:
        raise ValueError("a complete tree has at least one leaf")
    if leaves == [()]:
        return None
    leaf_set = set(leaves)
    internal = {u[:k] for u in leaves for k in range(len(u))}
    clash = leaf_set & internal
    if clash:
        raise ValueError(f"leaf {min(clash)} is an ancestor of another leaf")
    types = {(): root_type}
    for v in sorted((internal | leaf_set) - {()}, key=lambda v: (len(v), v)):
        kids = children[types[v[:-1]]]
        if v[-1] >= len(kids):
            raise ValueError(f"index {v[-1]} out of range at {v[:-1]}")
        types[v] = kids[v[-1]]
    shapes: dict = {u: None for u in leaves}
    for v in sorted(internal, key=len, reverse=True):
        kids = [v + (i,) for i in range(len(children[types[v]]))]
        for c in kids:
            if c not in shapes:
                raise ValueError(f"missing branch {c}: leaves do not cover "
                                 "the boundary")
        shapes[v] = tuple(shapes[c] for c in kids)
    return shapes[()]


# ---------------------------------------------------------------------------
# Finite closure by a Cayley-graph search


def closure_by_bfs(s, bound: int):
    """(elements, words) of the subgroup in breadth-first order if it has at
    most ``bound`` elements, else None: the search that multiplies every
    element found by every letter, inverse of its last letter included."""
    from vtrees import compose, identity
    e0 = identity(s.tg)
    elements, words = [e0], [()]
    seen = {e0.key()}
    i = 0
    while i < len(elements):
        for letter, le in s.letters():
            e2 = compose(elements[i], le)
            if e2.key() not in seen:
                if len(elements) >= bound:
                    return None
                seen.add(e2.key())
                elements.append(e2)
                words.append(words[i] + (letter,))
        i += 1
    return elements, words


# ---------------------------------------------------------------------------
# Pair texts through the validating shape builder

PAIR_TEXT = re.compile(
    r"^\s*pair\s*\{\s*domain\s*=\s*\[(?P<dom>[^]]*)\]\s*,\s*"
    r"range\s*=\s*\[(?P<ran>[^]]*)\]\s*,\s*"
    r"perm\s*=\s*\[(?P<perm>[^]]*)\]\s*\}\s*$")


def parse_element_by_shapes(tg, text: str):
    """The element of a ``pair{domain=[...], range=[...], perm=[...]}``
    text: addresses decoded one digit at a time, each side built by
    ``shape_from_leaves`` (which takes its leaves in any order), the
    depth-first order checked apart, the pair built by ``TreePair(...)``,
    which walks both shapes again, and then ``make_element``.  Raises
    FormatError with the parser's texts."""
    from vtrees import FormatError, TreePair, make_element
    from vtrees.element import shape_from_leaves

    m = PAIR_TEXT.match(text)
    if not m:
        raise FormatError(f"not a tree pair: {text!r}")

    def address(tok: str) -> tuple:
        tok = tok.strip()
        out = []
        for ch in tok:
            if ch not in DIGITS:
                raise FormatError(f"bad address digit {ch!r} in {tok!r}")
            out.append(DIGITS.index(ch))
        return tuple(out)

    def addr_list(src: str) -> list:
        src = src.strip()
        return [address(tok) for tok in src.split(",")] if src else [()]

    dom = addr_list(m.group("dom"))
    ran = addr_list(m.group("ran"))
    try:
        perm = ([int(tok) for tok in m.group("perm").split(",")]
                if m.group("perm").strip() else [])
    except ValueError:
        raise FormatError(f"bad perm in {text!r}") from None
    if not perm:
        raise FormatError(f"empty perm in {text!r}")
    try:
        domain = shape_from_leaves(tg, dom, tg.root_type)
        range_ = shape_from_leaves(tg, ran, tg.root_type)
        if any(a >= b for ls in (dom, ran) for a, b in zip(ls, ls[1:])):
            raise ValueError("leaves must be distinct and in depth-first order")
        pair = TreePair(tg, domain, range_, perm)
    except ValueError as e:
        raise FormatError(f"invalid tree pair {text!r}: {e}") from None
    return make_element(pair)


# ---------------------------------------------------------------------------
# Power-bound traps by a scan over refinements


def scanned_trap(g, chains, target, m: int):
    """The trap made of one refinement per attracting chain v_0 -> ... ->
    v_0 s: at the least t <= m for which the ball at v_0 s^t and its images
    under g, g^2, ... up to the period lie in ``target``, their union."""
    from vtrees import ClopenSet

    tg = g.tg
    trap = ClopenSet.empty(tg)
    for c in chains:
        if c.kind != "attracting":
            continue
        s = c.end[len(c.start):]
        for t in range(m + 1):
            cur = ClopenSet.ball(tg, c.start + s * t)
            union = cur
            for _ in range(c.period - 1):
                cur = g.apply_clopen(cur)
                union = union.union(cur)
            if union.subset_of(target):
                trap = trap.union(union)
                break
        else:
            raise AssertionError("no refinement up to m fits the target")
    return trap


def scanned_power_bound(g, report, eps):
    """(N, ((trap, steps) forward, (trap, steps) backward)) for g at radius
    eps, with each trap from ``scanned_trap`` and each step count the least
    k with g^k(start) in the trap, start being the hyperbolic part minus the
    eps-neighbourhood of the repelling points (of g^-1 backward)."""
    from vtrees import ClopenSet, epsilon_neighborhood, reveal
    from vtrees.treespace import eps_exponent

    tg = g.tg
    if report.hyperbolic.is_empty():
        return 1, ((ClopenSet.empty(tg), 0), (ClopenSet.empty(tg), 0))
    ginv = g.inverse()
    out = []
    for elem, chains, att, rep in (
            (g, report.chains, report.attracting_periodic,
             report.repelling_periodic),
            (ginv, reveal(ginv).chains, report.repelling_periodic,
             report.attracting_periodic)):
        start = report.hyperbolic.difference(
            epsilon_neighborhood(tg, rep, eps))
        if start.is_empty():
            out.append((ClopenSet.empty(tg), 0))
            continue
        trap = scanned_trap(elem, chains,
                            epsilon_neighborhood(tg, att, eps),
                            eps_exponent(eps))
        steps = 0
        while not start.subset_of(trap):
            start = elem.apply_clopen(start)
            steps += 1
        out.append((trap, steps))
    return max(out[0][1], out[1][1], 1), tuple(out)


# ---------------------------------------------------------------------------
# Periodic points by iteration, and fake chains collapsed one at a time


def iterated_periodic_points(g, chains) -> tuple:
    """(attracting, repelling, isolated, isometric power) of the report for
    g on a revealing pair with these chains, each cycle's points found by
    iterating points: an attracting chain's point u_0 s^inf and its images
    under g, a repelling chain's point u_n s^inf and its images under g^-1,
    period - 1 of them.  Points isolated in the boundary leave both lists,
    and their chains' periods join those of the periodic chains."""
    from vtrees import boundary_point, point_is_isolated

    ginv = g.inverse()
    periods = [c.period for c in chains if c.kind == "periodic"]
    att, rep = [], []
    for c in chains:
        if c.kind not in ("attracting", "repelling"):
            continue
        elem, top, low, out = ((g, c.start, c.end, att) if c.kind == "attracting"
                               else (ginv, c.end, c.start, rep))
        orbit = [boundary_point(g.tg, top, low[len(top):])]
        for _ in range(c.period - 1):
            orbit.append(elem.apply_point(orbit[-1]))
        out.extend((c, p) for p in orbit)
    isolated = []
    for c, p in att + rep:
        if point_is_isolated(p) and p not in isolated:
            isolated.append(p)
            periods.append(c.period)

    def listed(points):
        return tuple(sorted({p for _, p in points if p not in isolated},
                            key=lambda p: p.sort_key()))

    return (listed(att), listed(rep),
            tuple(sorted(isolated, key=lambda p: p.sort_key())),
            math.lcm(*periods) if periods else 1)


def collapse_one_at_a_time(pair):
    """The pair with every attracting or repelling chain over single-point
    balls made periodic, one chain per rebuild: slide the first such
    chain's far end back to its base vertex, rebuild the pair and its
    chains, and repeat until none is left."""
    from vtrees import chains
    from vtrees.element import TreePair

    tg = pair.tg
    while True:
        kappa = pair.leaf_map()
        for c in chains(pair):
            if (c.kind in ("attracting", "repelling")
                    and tg.is_singleton_type(tg.type_at(c.start))):
                if c.kind == "attracting":
                    kappa[c.vertices[-2]] = c.start
                else:
                    kappa[c.end] = kappa.pop(c.start)
                pair = TreePair.from_map(tg, kappa)
                break
        else:
            return pair


def sorted_random_leaves(tg, carets: int, rng) -> list:
    """The (leaf, type) pairs of a random complete subtree grown by
    ``carets`` uniform leaf expansions: the leaf list is sorted before each
    draw, and the drawn leaf's children are appended at its end."""
    cur = [((), tg.root_type)]
    for _ in range(carets):
        cur.sort()
        u, t = cur.pop(rng.randrange(len(cur)))
        cur += ((u + (i,), c) for i, c in enumerate(tg.children[t]))
    cur.sort()
    return cur
