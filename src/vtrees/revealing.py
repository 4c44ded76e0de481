"""Chain classification, revealing pairs, and the dynamics of one element.

Given a tree pair, the leaf bijection acts partially on the union of the two
leaf sets; its maximal orbits are *chains*.  A chain is attracting when it
ends strictly below its start, repelling when it starts strictly below its
end, periodic when it closes up, and wandering when both endpoints lie
strictly below leaves of the other tree.  A pair is *revealing* when every
component of the tree difference domain-minus-range holds a repeller and
every component of range-minus-domain holds an attractor; on a revealing pair
the dynamics of the element can be read off combinatorially:

- the union of the balls of periodic-chain vertices is a clopen set on which
  a power of the element acts as the identity (the *stable part*),
- each attracting/repelling chain contributes a finite cycle of hyperbolic
  periodic points in the complement, toward/away from which every other point
  of the complement converges, with an explicit power bound that this module
  certifies by exact clopen inclusions.

``reveal`` upgrades an element's reduced pair to a revealing pair, by a
guided rolling strategy with a breadth-first search over caret expansions as
a certified fallback; both are exact and the result is always re-checked.

On trees with isolated boundary points, a chain can look attracting or
repelling although its balls are single points and the element moves them
isometrically.  Such chains are collapsed into periodic ones (this is always
possible, the collapse happens along an arity-1 ray), and any hyperbolic
periodic point that is isolated in the boundary is reassigned to the stable
part, where it belongs dynamically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .treespace import (
    Address,
    ClopenSet,
    address_str,
    boundary_point,
    epsilon_neighborhood,
    eps_exponent,
    is_prefix,
    isolated_point_ball,
    point_is_isolated,
)
from .element import (
    Element,
    TreePair,
    expand_pair,
    graft,
    interior_vertices,
    shape_at,
)

CHAIN_KINDS = ("attracting", "repelling", "periodic", "wandering", "mixed")


class BudgetExceeded(RuntimeError):
    """A search ran into one of its fixed caps; the message names the cap.

    Running out of a cap is an answer (the dichotomy driver reports
    ``undecided``, the CLI exits 2), never a wrong result."""


class Chain(NamedTuple):
    """A maximal orbit of the leaf bijection, with its classification.

    ``kind == "mixed"`` marks an orbit that fits none of the four standard
    patterns; such orbits occur only in non-revealing pairs.
    """

    vertices: tuple
    kind: str

    @property
    def start(self) -> Address:
        return self.vertices[0]

    @property
    def end(self) -> Address:
        return self.vertices[-1]

    @property
    def period(self) -> int:
        """Steps after which the relevant ball returns: the vertex count for
        a periodic chain, one less for the others."""
        if self.kind == "periodic":
            return len(self.vertices)
        return len(self.vertices) - 1

    def __repr__(self) -> str:
        path = "->".join(address_str(v) or "<root>" for v in self.vertices)
        return f"Chain({path}: {self.kind})"


def chains(pair: TreePair) -> tuple:
    """All chains of the pair, each leaf appearing in exactly one, in the
    order of their starts: a domain leaf that is no range leaf, or a
    cycle's least vertex."""
    kappa = pair.leaf_map()
    l2 = set(pair.range_leaves)
    int_t1 = interior_vertices(pair.domain_leaves)
    int_t2 = interior_vertices(l2)

    # non-periodic chains start in L1 \ L2
    open_chains = {}
    for start in pair.domain_leaves:
        if start in l2:
            continue
        seq = [start]
        while seq[-1] in kappa:
            seq.append(kappa[seq[-1]])
        u0, un = seq[0], seq[-1]
        if is_prefix(u0, un) and u0 != un:
            kind = "attracting"
        elif is_prefix(un, u0) and u0 != un:
            kind = "repelling"
        elif u0 not in int_t2 and un not in int_t1:
            # u0 is no range leaf and un no domain leaf, so off the other
            # tree's interior each lies strictly below one of its leaves
            kind = "wandering"
        else:
            kind = "mixed"
        open_chains[start] = Chain(tuple(seq), kind)
    # the rest of L1 sits in cycles; the domain leaves are sorted, so each
    # cycle is met first at its least vertex
    visited = {v for c in open_chains.values() for v in c.vertices}
    out = []
    for start in pair.domain_leaves:
        if start in open_chains:
            out.append(open_chains[start])
        elif start not in visited:
            seq = [start]
            while kappa[seq[-1]] != start:
                seq.append(kappa[seq[-1]])
            visited.update(seq)
            out.append(Chain(tuple(seq), "periodic"))
    return tuple(out)


def _check_components(pair: TreePair, ch) -> tuple:
    """(violation, certificate) of the revealing condition for the pair with
    chains ``ch``; exactly one of the two is None.

    Components of range-minus-domain are rooted at domain leaves interior to
    the range tree, components of domain-minus-range at range leaves
    interior to the domain tree.  The violation is (side, component root) of
    the first component without an attractor (those are checked first) or
    repeller; the certificate is (attractors, repellers) as
    ``RevealingPair`` stores them, the first one found per component.
    """
    attractors = [c.end for c in ch if c.kind == "attracting"]
    repellers = [c.start for c in ch if c.kind == "repelling"]
    int_t1 = interior_vertices(pair.domain_leaves)
    int_t2 = interior_vertices(pair.range_leaves)
    sides = (
        ("attractor", [w for w in pair.domain_leaves if w in int_t2], attractors),
        ("repeller", [w for w in pair.range_leaves if w in int_t1], repellers),
    )
    certificate = []
    for side, roots, marks in sides:
        found = []
        for w in roots:
            v = next((v for v in marks if is_prefix(w, v)), None)
            if v is None:
                return (side, w), None
            found.append((w, v))
        certificate.append(tuple(found))
    return None, tuple(certificate)


def is_revealing(pair: TreePair) -> bool:
    """True iff every component of the domain-minus-range difference holds a
    repeller and every component of range-minus-domain holds an attractor."""
    return _check_components(pair, chains(pair))[0] is None


class RevealingPair(NamedTuple):
    """A revealing pair for an element, with its per-component certificate."""

    pair: TreePair
    chains: tuple
    attractors: tuple  # (component root, attractor vertex) per range-minus-domain component
    repellers: tuple   # (component root, repeller vertex) per domain-minus-range component


def _roll_once(pair: TreePair, side: str, w: Address, ch) -> TreePair:
    """One rolling step for the failing component rooted at w, given the
    pair's chains ``ch``.

    The component's shape is copied to the far end of the chain through its
    root, which moves the obstruction along the orbit; iterating this reaches
    a revealing pair.
    """
    if side == "attractor":
        # w is a domain leaf, interior to the range tree, so it starts a
        # chain; copy the component shape to that chain's last domain leaf
        shape = shape_at(pair.range, w)
        at = next(c for c in ch if c.start == w).vertices[-2]
    else:
        # w is a range leaf, interior to the domain tree, so it ends a
        # chain; copy the component shape to that chain's start
        shape = shape_at(pair.domain, w)
        at = next(c for c in ch if c.end == w).start
    return graft(pair, lambda u, _: shape if u == at else None)


def _collapse_fake_chains(pair: TreePair) -> TreePair:
    """Turn attracting/repelling chains over single-point balls into
    periodic chains.

    Such a chain runs along an arity-1 ray, so the far endpoint can be slid
    back to the chain's base vertex without changing the element; the whole
    component it certified disappears with it.  The chains are disjoint and
    each slide edits only its own chain's leaf pairs, so all of them are
    made in one leaf map (docs/dynamics_notes.md §1(b)).  Without a
    singleton type there is no such chain, and the pair is returned as it
    is.
    """
    tg = pair.tg
    if not tg._singleton_types:
        return pair
    kappa = pair.leaf_map()
    fake = [c for c in chains(pair) if c.kind in ("attracting", "repelling")
            and tg.is_singleton_type(tg.type_at(c.start))]
    for c in fake:
        if c.kind == "attracting":
            kappa[c.vertices[-2]] = c.start
        else:
            kappa[c.end] = kappa.pop(c.start)
    return TreePair.from_map(tg, kappa) if fake else pair


_ROLL_CAP = 512
_BFS_NODE_CAP = 500_000


def _bfs_reveal(pair: TreePair) -> TreePair:
    """Breadth-first search over simultaneous caret expansions; complete but
    exponential, used as the certified fallback and as a test oracle."""
    from collections import deque

    seen = {pair}
    queue = deque([pair])
    while queue:
        p = queue.popleft()
        if is_revealing(p):
            return p
        for u in p.domain_leaves:
            p2 = expand_pair(p, u)
            if p2 not in seen:
                seen.add(p2)
                queue.append(p2)
                if len(seen) > _BFS_NODE_CAP:
                    raise BudgetExceeded("revealing-pair search exceeded the node "
                                         f"cap _BFS_NODE_CAP = {_BFS_NODE_CAP}")
    raise AssertionError("expansion search exhausted, which cannot happen")


def reveal(g: Element, strategy: str = "rolling") -> RevealingPair:
    """A revealing pair representing g, with normalised chain data.

    ``strategy`` is "rolling" (guided; falls back to the search when it does
    not settle) or "bfs" (breadth-first over expansions, always correct).
    """
    if strategy not in ("rolling", "bfs"):
        raise ValueError(f"unknown strategy {strategy!r}")
    pair = g.pair
    if strategy == "rolling":
        for _ in range(_ROLL_CAP):
            ch = chains(pair)
            viol, _ = _check_components(pair, ch)
            if viol is None:
                break
            pair = _roll_once(pair, *viol, ch)
        else:
            pair = _bfs_reveal(g.pair)
    else:
        pair = _bfs_reveal(g.pair)
    pair = _collapse_fake_chains(pair)
    ch = chains(pair)
    viol, cert = _check_components(pair, ch)
    if viol is not None:
        raise AssertionError("normalisation broke the revealing property")
    return RevealingPair(pair, ch, *cert)


# ---------------------------------------------------------------------------
# Dynamics of one element


class CycleData(NamedTuple):
    """One attracting chain: root vertex, its image end, the return period,
    and the contraction ratio of the return map on the root ball."""

    root: Address
    target: Address
    period: int
    ratio: Fraction


class DynamicsReport(NamedTuple):
    """The invariant clopen splitting and periodic data of one element.

    ``stable`` is the part where some positive power acts as the identity
    (``isometric_power`` is the least such exponent); ``hyperbolic`` is its
    complement and carries the finitely many attracting and repelling
    periodic points.  ``isolated`` lists hyperbolic-looking periodic points
    that are isolated in the boundary and were therefore reassigned to the
    stable part.
    """

    element: Element
    pair: TreePair
    chains: tuple
    stable: ClopenSet
    hyperbolic: ClopenSet
    attracting_periodic: tuple
    repelling_periodic: tuple
    isolated: tuple
    isometric_power: int
    attracting_cycles: tuple


def report_from_revealing(g: Element, pair: TreePair) -> DynamicsReport:
    """Dynamics data read off a revealing pair for g (not necessarily the
    one ``reveal`` would produce)."""
    ch = chains(pair)
    if _check_components(pair, ch)[0] is not None:
        raise ValueError("the pair is not revealing")
    return _report(g, pair, ch)


def _report(g: Element, pair: TreePair, ch) -> DynamicsReport:
    """The report for g from a revealing pair and its chains."""
    tg = g.tg
    periodic = [c for c in ch if c.kind == "periodic"]
    periods = [c.period for c in periodic]
    stable = ClopenSet.from_balls(tg, (v for c in periodic for v in c.vertices))

    # a leaf pair v_j -> v_j+1 carries v_j w to v_j+1 w, so g walks the
    # points v s^inf forward along an attracting chain and backward along a
    # repelling one (docs/dynamics_notes.md §7)
    att_pts = [(c, boundary_point(tg, v, c.end[len(c.start):]))
               for c in ch if c.kind == "attracting" for v in c.vertices[:-1]]
    rep_pts = [(c, boundary_point(tg, v, c.start[len(c.end):]))
               for c in ch if c.kind == "repelling" for v in c.vertices[:0:-1]]

    isolated = []
    for c, p in att_pts + rep_pts:
        if point_is_isolated(p) and p not in isolated:
            isolated.append(p)
            periods.append(c.period)
            stable = stable.union(isolated_point_ball(p))
    isolated.sort(key=lambda p: p.sort_key())

    att = sorted({p for _, p in att_pts if p not in isolated},
                 key=lambda p: p.sort_key())
    rep = sorted({p for _, p in rep_pts if p not in isolated},
                 key=lambda p: p.sort_key())
    power = math.lcm(*periods) if periods else 1
    return DynamicsReport(
        element=g,
        pair=pair,
        chains=ch,
        stable=stable,
        hyperbolic=stable.complement(),
        attracting_periodic=tuple(att),
        repelling_periodic=tuple(rep),
        isolated=tuple(isolated),
        isometric_power=power,
        attracting_cycles=tuple(
            CycleData(c.start, c.end, c.period,
                      Fraction(1, 2 ** (len(c.end) - len(c.start))))
            for c in ch if c.kind == "attracting"),
    )


def dynamics(g: Element) -> DynamicsReport:
    """The invariant splitting and periodic data of g, via a revealing pair."""
    rp = reveal(g)
    return _report(g, rp.pair, rp.chains)


def is_elliptic(g: Element) -> bool:
    """True iff some admissible ball partition is permuted by g; in this
    group that is exactly having finite order, and it is equivalent to the
    revealing pair having only periodic chains."""
    return order(g) is not None


def order(g: Element):
    """The order of g: a positive integer, or None for infinite order."""
    rp = reveal(g)
    if any(c.kind != "periodic" for c in rp.chains):
        return None
    return math.lcm(*(c.period for c in rp.chains)) if rp.chains else 1


# ---------------------------------------------------------------------------
# Exact power bounds for the hyperbolic part


class HypDirection(NamedTuple):
    """One direction of the power-bound certificate.

    ``trap`` is a forward-invariant clopen inside ``target``, and ``steps``
    the least k with g^k(``start``) inside the trap.
    """

    trap: ClopenSet
    target: ClopenSet
    start: ClopenSet
    steps: int


class HypCertificate(NamedTuple):
    eps: Fraction
    n: int
    forward: HypDirection
    backward: HypDirection


_ITERATE_CAP = 10_000


def _build_trap(g: Element, chains, target: ClopenSet) -> ClopenSet:
    """The least trap with one refinement t per attracting chain v_0 -> ...
    -> v_n = v_0 s: g^j maps the ball at v_0 s^t onto the ball at v_j s^t,
    which lies in ``target`` iff |v_j| + t|s| >= ``target.full_depth`` at
    v_j s^inf (docs/dynamics_notes.md §7)."""
    balls = []
    for c in chains:
        if c.kind == "attracting":
            cycle, s = c.vertices[:-1], c.end[len(c.start):]
            t = max(-((len(v) - target.full_depth(boundary_point(g.tg, v, s)))
                      // len(s)) for v in cycle)  # ceil((depth - |v|) / |s|)
            balls.extend(v + s * max(t, 0) for v in cycle)
    if not balls:
        raise AssertionError("nonempty hyperbolic part without attracting chains")
    trap = ClopenSet.from_balls(g.tg, balls)
    if not trap.subset_of(target):
        raise AssertionError("trap is not inside the target")
    if not g.apply_clopen(trap).subset_of(trap):
        raise AssertionError("trap is not forward invariant")
    return trap


def _targets_and_starts(report: DynamicsReport, eps: Fraction) -> tuple:
    """(target, start) forward and backward at radius eps: the target is the
    eps-neighbourhood of the attracting points (of the repelling ones
    backward), the start the hyperbolic part minus that of the others."""
    tg = report.hyperbolic.tg
    att = epsilon_neighborhood(tg, report.attracting_periodic, eps)
    rep = epsilon_neighborhood(tg, report.repelling_periodic, eps)
    return ((att, report.hyperbolic.difference(rep)),
            (rep, report.hyperbolic.difference(att)))


def _direction(g: Element, chains, target: ClopenSet,
               start: ClopenSet) -> HypDirection:
    if start.is_empty():
        return HypDirection(ClopenSet.empty(g.tg), target, start, 0)
    trap = _build_trap(g, chains, target)
    cur = start
    steps = 0
    while not cur.subset_of(trap):
        cur = g.apply_clopen(cur)
        steps += 1
        if steps > _ITERATE_CAP:
            raise BudgetExceeded("image iteration did not enter the trap within "
                                 f"the cap _ITERATE_CAP = {_ITERATE_CAP}")
    return HypDirection(trap, target, start, steps)


def hyp_power_bound(g: Element, report: DynamicsReport, eps: Fraction):
    """(N, certificate): for all k >= N the k-th power maps the hyperbolic
    part minus the eps-ball around the repelling points into the eps-ball
    around the attracting points, and symmetrically for inverse powers.

    The certificate is machine-checkable: a forward-invariant trap inside
    each target neighbourhood, and the step count after which the start
    set's image lies in the trap, so that every later power keeps it there.
    """
    eps = Fraction(eps)
    eps_exponent(eps)  # validate
    tg = g.tg
    if report.hyperbolic.is_empty():
        empty = HypDirection(ClopenSet.empty(tg), ClopenSet.empty(tg),
                             ClopenSet.empty(tg), 0)
        return 1, HypCertificate(eps, 1, empty, empty)
    fwd, bwd = _targets_and_starts(report, eps)
    ginv = g.inverse()
    forward = _direction(g, report.chains, *fwd)
    backward = _direction(ginv, reveal(ginv).chains, *bwd)
    n = max(forward.steps, backward.steps, 1)
    return n, HypCertificate(eps, n, forward, backward)


def recheck_hyp_certificate(g: Element, cert: HypCertificate,
                            extra_powers: int = 3) -> bool:
    """Re-verify a power-bound certificate from scratch by exact images.

    In each direction the target and start are those that ``dynamics(g)``
    gives at the certificate's radius, the trap lies in the target, g maps
    it into itself and g^N maps the start set into it, which proves
    g^k(start) inside the target for every k >= N; powers N..N+extra_powers
    (of the inverse, backward) are checked against the target as well.
    """
    if cert.n < 1:
        return False
    ginv = g.inverse()
    for elem, d, ends in zip((g, ginv), (cert.forward, cert.backward),
                             _targets_and_starts(dynamics(g), cert.eps)):
        if (d.target, d.start) != ends or not d.trap.subset_of(d.target):
            return False
        if not d.trap.is_empty() and not elem.apply_clopen(d.trap).subset_of(d.trap):
            return False
        cur = d.start
        for k in range(1, cert.n + extra_powers + 1):
            cur = elem.apply_clopen(cur)
            if k == cert.n and not cur.subset_of(d.trap):
                return False
            if k >= cert.n and not cur.subset_of(d.target):
                return False
    return True
