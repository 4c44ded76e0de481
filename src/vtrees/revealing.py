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
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class Chain:
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
    """All chains of the pair, each leaf appearing in exactly one."""
    kappa = pair.leaf_map()
    l1 = set(pair.domain_leaves)
    l2 = set(pair.range_leaves)
    int_t1 = interior_vertices(l1)
    int_t2 = interior_vertices(l2)

    out = []
    visited = set()
    # non-periodic chains start in L1 \ L2
    for start in sorted(l1 - l2):
        seq = [start]
        cur = start
        while cur in kappa:
            cur = kappa[cur]
            seq.append(cur)
        visited.update(seq)
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
        out.append(Chain(tuple(seq), kind))
    # the rest of L1 sits in cycles
    for start in sorted(l1):
        if start in visited:
            continue
        seq = [start]
        cur = kappa[start]
        while cur != start:
            seq.append(cur)
            cur = kappa[cur]
        visited.update(seq)
        # canonical rotation: begin at the least vertex
        i = seq.index(min(seq))
        seq = seq[i:] + seq[:i]
        out.append(Chain(tuple(seq), "periodic"))
    out.sort(key=lambda c: c.vertices[0])
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


@dataclass(frozen=True)
class RevealingPair:
    """A revealing pair for an element, with its per-component certificate."""

    pair: TreePair
    chains: tuple
    attractors: tuple  # (component root, attractor vertex) per range-minus-domain component
    repellers: tuple   # (component root, repeller vertex) per domain-minus-range component


def _roll_once(pair: TreePair, side: str, w: Address) -> TreePair:
    """One rolling step for the failing component rooted at w.

    The component's shape is copied to the far end of the chain through its
    root, which moves the obstruction along the orbit; iterating this reaches
    a revealing pair.
    """
    kappa = pair.leaf_map()
    if side == "attractor":
        # w is a domain leaf, interior to the range tree; follow the chain
        # from w forward and copy the component shape to its terminal vertex.
        shape = shape_at(pair.range, w)
        cur = w
        while kappa[cur] in kappa:
            cur = kappa[cur]
    else:
        # w is a range leaf, interior to the domain tree; walk the chain
        # ending at w back to its start and copy the component shape there.
        shape = shape_at(pair.domain, w)
        inv = {v: u for u, v in kappa.items()}
        cur = w
        while cur in inv:
            cur = inv[cur]
    return graft(pair, lambda u, _: shape if u == cur else None)


def _collapse_fake_chains(pair: TreePair) -> TreePair:
    """Turn attracting/repelling chains over single-point balls into
    periodic chains.

    Such a chain runs along an arity-1 ray, so the far endpoint can be slid
    back to the chain's base vertex without changing the element; the whole
    component it certified disappears with it.  Without a singleton type
    there is no such chain, and the pair is returned as it is.
    """
    tg = pair.tg
    if not tg._singleton_types:
        return pair
    while True:
        kappa = pair.leaf_map()
        for c in chains(pair):
            if c.kind == "attracting" and tg.is_singleton_type(tg.type_at(c.start)):
                kappa[c.vertices[-2]] = c.start
                pair = TreePair.from_map(tg, kappa)
                break
            if c.kind == "repelling" and tg.is_singleton_type(tg.type_at(c.start)):
                nxt = kappa.pop(c.start)
                kappa[c.end] = nxt
                pair = TreePair.from_map(tg, kappa)
                break
        else:
            return pair


_ROLL_CAP = 512
_BFS_NODE_CAP = 500_000


def _bfs_reveal(pair: TreePair) -> TreePair:
    """Breadth-first search over simultaneous caret expansions; complete but
    exponential, used as the certified fallback and as a test oracle."""
    from collections import deque

    def key(p: TreePair):
        return (p.domain_leaves, p.range_leaves, p.perm)

    seen = {key(pair)}
    queue = deque([pair])
    while queue:
        p = queue.popleft()
        if is_revealing(p):
            return p
        for u in p.domain_leaves:
            p2 = expand_pair(p, u)
            k = key(p2)
            if k not in seen:
                seen.add(k)
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
        done = False
        for _ in range(_ROLL_CAP):
            viol, _ = _check_components(pair, chains(pair))
            if viol is None:
                done = True
                break
            pair = _roll_once(pair, *viol)
        if not done:
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


@dataclass(frozen=True)
class CycleData:
    """One attracting chain: root vertex, its image end, the return period,
    and the contraction ratio of the return map on the root ball."""

    root: Address
    target: Address
    period: int
    ratio: Fraction


@dataclass(frozen=True)
class DynamicsReport:
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

    att_pts = []
    rep_pts = []
    ginv = g.inverse()
    for c in ch:
        if c.kind == "attracting":
            u0, un = c.start, c.end
            s = un[len(u0):]
            xi = boundary_point(tg, u0, s)
            orbit = [xi]
            for _ in range(c.period - 1):
                orbit.append(g.apply_point(orbit[-1]))
            att_pts.extend((c, p) for p in orbit)
        elif c.kind == "repelling":
            u0, un = c.start, c.end
            s = u0[len(un):]
            xi = boundary_point(tg, un, s)
            orbit = [xi]
            for _ in range(c.period - 1):
                orbit.append(ginv.apply_point(orbit[-1]))
            rep_pts.extend((c, p) for p in orbit)

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


@dataclass(frozen=True)
class HypDirection:
    """One direction of the power-bound certificate.

    ``trap`` is a forward-invariant clopen inside ``target``, and ``steps``
    the least k with g^k(``start``) inside the trap.
    """

    trap: ClopenSet
    target: ClopenSet
    start: ClopenSet
    steps: int


@dataclass(frozen=True)
class HypCertificate:
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


def _direction(g: Element, hyperbolic: ClopenSet, chains,
               att_points, rep_points, eps: Fraction) -> HypDirection:
    tg = g.tg
    target = epsilon_neighborhood(tg, att_points, eps)
    avoid = epsilon_neighborhood(tg, rep_points, eps)
    start = hyperbolic.difference(avoid)
    if start.is_empty():
        return HypDirection(ClopenSet.empty(tg), target, start, 0)
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
    ginv = g.inverse()
    forward = _direction(g, report.hyperbolic, report.chains,
                         report.attracting_periodic, report.repelling_periodic, eps)
    backward = _direction(ginv, report.hyperbolic, reveal(ginv).chains,
                          report.repelling_periodic, report.attracting_periodic, eps)
    n = max(forward.steps, backward.steps, 1)
    return n, HypCertificate(eps, n, forward, backward)


def recheck_hyp_certificate(g: Element, cert: HypCertificate,
                            extra_powers: int = 3) -> bool:
    """Re-verify a power-bound certificate from scratch by exact images.

    In each direction the trap lies in the target, g maps it into itself and
    g^N maps the start set into it, which proves g^k(start) inside the
    target for every k >= N; powers N..N+extra_powers (of the inverse,
    backward) are checked against the target as well.
    """
    if cert.n < 1:
        return False
    ginv = g.inverse()
    for elem, d in ((g, cert.forward), (ginv, cert.backward)):
        if not d.trap.subset_of(d.target):
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
