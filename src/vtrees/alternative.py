"""The dichotomy engine: contraction elements, ping-pong pairs, the driver.

For a finitely generated subgroup the driver produces one of two exactly
verified certificates:

- a finite orbit (re-checkable by closing the point set under the
  generators), or
- a ping-pong pair: elements g, h and pairwise disjoint clopen sets
  U1, V1, U2, V2 with g(X - U1) inside V1 and h(X - U2) inside V2, which
  forces g and h to generate a nonabelian free group.

The route to a ping-pong pair follows the structure of the underlying
theory, but every analytic step is replaced by exact clopen arithmetic:

1. accumulate elements until the intersection of their stable parts is
   verifiably empty;
2. build a contraction element mapping everything outside a neighborhood of
   the finitely many hyperbolic periodic points back into it, using exact
   identity powers on the stable parts instead of recurrence arguments;
3. translate the base point set off itself twice (Neumann-style search) and
   conjugate the contraction to two pairs with disjoint supports.

When the intersection of stable parts empties, a finite orbit (if one exists
at all) must meet every neighborhood of the hyperbolic point set: any
invariant probability measure gives at least half its mass to each such
neighborhood, so it has an atom among those finitely many points.  Scanning
their orbits is therefore a complete finite-orbit search in that branch; see
docs/dynamics_notes.md for the full argument.

Budgets bound every search; exhausting them, or one of the fixed search
caps (``BudgetExceeded``), yields an Undecided verdict carrying the frontier
state, never a wrong certificate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .treespace import (
    BoundaryPoint,
    ClopenSet,
    TypeGraph,
    common_prefix_length,
    epsilon_neighborhood,
    eps_exponent,
    eventually_periodic_witness,
)
from .element import Element, compose, identity
from .revealing import BudgetExceeded, DynamicsReport, dynamics
from .subgroup import (
    Budgets,
    GeneratingSet,
    Orbit,
    Word,
    _LetterImages,
    _orbit_search,
    enumerate_elements,
    word_inverse,
    word_str,
)
from . import revealing


def stable_set(g: Element) -> ClopenSet:
    """The clopen part of the boundary on which some positive power of g
    acts as the identity."""
    return dynamics(g).stable


def stable_intersection(hs: Sequence[Element],
                        tg: TypeGraph | None = None) -> ClopenSet:
    """Exact intersection of the stable parts.

    The empty intersection is the full boundary; pass ``tg`` to make that
    case well-typed (it is required only when ``hs`` is empty).
    """
    hs = list(hs)
    if tg is None:
        if not hs:
            raise ValueError("an empty intersection needs an explicit type graph")
        tg = hs[0].tg
    out = ClopenSet.full(tg)
    for h in hs:
        out = out.intersect(stable_set(h))
    return out


def _hyperbolic_points(reports: Iterable[DynamicsReport]) -> list:
    """The hyperbolic periodic points of all the reports, sorted."""
    return sorted({p for rep in reports
                   for p in rep.attracting_periodic + rep.repelling_periodic},
                  key=lambda p: p.sort_key())


# ---------------------------------------------------------------------------
# Contraction elements


class ProximalStage(NamedTuple):
    """One factor of a contraction element, with its exact set inclusion."""

    word: Word | None
    isometric_power: int
    multiplier: int           # the factor used is element ** (isometric_power * multiplier)
    before: ClopenSet
    after: ClopenSet
    allowed: ClopenSet        # after <= allowed was checked exactly


class ProximalContraction(NamedTuple):
    """An element h with h(X - B^eps) inside B^eps, B the hyperbolic points."""

    element: Element
    word: Word | None
    points: tuple
    eps: Fraction
    stages: tuple
    start: ClopenSet   # X - B^eps
    target: ClopenSet  # B^eps


_STAGE_POWER_CAP = 512
_ROUND_CAP = 16


def proximal_contraction(hs: Sequence[Element], eps: Fraction,
                         words: Sequence[Word] | None = None,
                         reports: Sequence[DynamicsReport] | None = None) -> ProximalContraction:
    """A product of powers of the given elements contracting the complement
    of B^eps into B^eps, where B collects all their hyperbolic periodic
    points.  Requires the intersection of their stable parts to be empty.

    Each factor is a power of one element, a multiple of its isometric power
    so that it fixes that element's stable part pointwise; the per-stage
    inclusion image <= (previous & stable part) | hyperbolic-points^eps is
    checked exactly and recorded, and the telescoped product then lands in
    B^eps because the stable parts have empty intersection.
    """
    return _contraction(hs, eps, words, reports, {})


def _contraction(hs: Sequence[Element], eps: Fraction,
                 words: Sequence[Word] | None,
                 reports: Sequence[DynamicsReport] | None,
                 powers: dict) -> ProximalContraction:
    """``proximal_contraction`` with a memo of the contributors' powers:
    ``powers[h, p]`` is h^p for h's isometric power m and a multiple p of
    m.  It holds the squarings (h^m)^(2^k) and every factor (h^m)^t built
    from them, low bits first as ``Element.power`` builds it.  One
    ping-pong construction hands the same memo to both of its contractions,
    so the second, at a different radius, reuses the first one's squarings
    (docs/dynamics_notes.md, section 5: the memo changes no element, word
    or stage)."""
    hs = list(hs)
    if not hs:
        raise ValueError("need at least one element")
    eps = Fraction(eps)
    eps_exponent(eps)
    tg = hs[0].tg
    if reports is None:
        reports = [dynamics(h) for h in hs]
    reports = list(reports)
    if words is not None:
        words = list(words)
    inter = ClopenSet.full(tg)
    for rep in reports:
        inter = inter.intersect(rep.stable)
    if not inter.is_empty():
        raise ValueError("the stable parts have nonempty intersection: "
                         f"{inter.ball_strs()}")
    b_points = _hyperbolic_points(reports)
    if not b_points:
        raise ValueError("degenerate input: no hyperbolic periodic points "
                         "although the stable parts have empty intersection")
    target = epsilon_neighborhood(tg, b_points, eps)
    start = target.complement()

    def factor(h, m: int, t: int) -> Element:
        """h^(m*t), from the memo or as the product of the squarings
        h^(m*2^k) over the bits k of t, low bits first."""
        if (h, m * t) not in powers:
            out = identity(tg)
            for k in range(t.bit_length()):
                if (h, m << k) not in powers:
                    half = powers[h, m << (k - 1)] if k else None
                    powers[h, m << k] = compose(half, half) if k else h.power(m)
                if t >> k & 1:
                    out = compose(powers[h, m << k], out)
            powers[h, m * t] = out
        return powers[h, m * t]

    minimums = [1] * len(hs)
    for _round in range(_ROUND_CAP):
        cur = start
        stages = []
        factors = []
        failed_at = None
        for i, (h, rep) in enumerate(zip(hs, reports)):
            m = rep.isometric_power
            hm = factor(h, m, 1)
            pts = rep.attracting_periodic + rep.repelling_periodic
            allowed = cur.intersect(rep.stable).union(
                epsilon_neighborhood(tg, pts, eps))
            t = minimums[i]
            image = cur
            for _ in range(t):
                image = hm.apply_clopen(image)
            while not image.subset_of(allowed) and t < _STAGE_POWER_CAP:
                image = hm.apply_clopen(image)
                t += 1
            if not image.subset_of(allowed):
                failed_at = i
                break
            stages.append(ProximalStage(
                word=(words[i] if words is not None else None),
                isometric_power=m, multiplier=t,
                before=cur, after=image, allowed=allowed))
            factors.append((h, m, t, i))
            cur = image
        if failed_at is None:
            element = identity(tg)
            word: Word | None = () if words is not None else None
            for h, m, t, i in factors:
                element = compose(factor(h, m, t), element)
                if words is not None:
                    word = tuple(words[i]) * (m * t) + word
            if not element.apply_clopen(start).subset_of(target):
                raise AssertionError("contraction element failed its final check")
            return ProximalContraction(element, word, tuple(b_points), eps,
                                       tuple(stages), start, target)
        # points escaping slowly near stage i's repellers: shrink the dust
        # left by the earlier stages and retry
        for j in range(failed_at):
            minimums[j] *= 2
    raise BudgetExceeded("contraction search did not converge within the "
                         f"round cap _ROUND_CAP = {_ROUND_CAP}")


# ---------------------------------------------------------------------------
# Neumann-style disjointification


def neumann_disjoint(s: GeneratingSet, a_points: Iterable[BoundaryPoint],
                     b_points: Iterable[BoundaryPoint], budget: int):
    """First element (in enumeration order) mapping the finite set A off the
    finite set B; None when the budget is exhausted."""
    return _first_moving_off(s, budget, a_points, b_points, _LetterImages(s))


def _first_moving_off(s: GeneratingSet, budget: int, a_points, b_points,
                      images: _LetterImages):
    """``neumann_disjoint``, reading and filling the letter-image table.

    Whether a word u works depends only on the tuple u(A), so the search runs
    over tuples, level by level.  Level k + 1 prepends each letter, in letter
    order, to the words of level k (the leftmost letter acts last), which
    lists it in shortlex order, and keeps a word only if its tuple is new.
    The least word of a tuple has the least word of its suffix's tuple as
    suffix, so the first word found is the first element of the shortlex
    enumeration that works (docs/dynamics_notes.md, section 3).  Only that
    word is composed.  Tuples hold point ids of ``images``; a level reads
    each tuple's rows once, at the tuple's first use, so rows are first
    read in the same order as one read per letter would read them.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    b_set = {images.id(p) for p in b_points}
    start = tuple(images.id(p) for p in a_points)
    if b_set.isdisjoint(start):
        return (), s.evaluate(())
    row = images.row
    seen = {start}
    level = [((), start)]
    for _ in range(budget):
        new = []
        rows = [None] * len(level)  # each tuple's rows, read at first use
        for i, (letter, _) in enumerate(images.letters):
            inverse = (letter[0], -letter[1])
            for n, (word, t) in enumerate(level):
                if word and word[0] == inverse:
                    continue  # a free reduction has an earlier tuple
                r = rows[n]
                if r is None:
                    r = rows[n] = [row(p) for p in t]
                u = tuple([x[i] for x in r])
                if u in seen:
                    continue
                seen.add(u)
                w = (letter,) + word
                if b_set.isdisjoint(u):
                    return w, s.evaluate(w)
                new.append((w, u))
        if not new:
            return None
        level = new
    return None


# ---------------------------------------------------------------------------
# Ping-pong pairs


class PingPongWitness(NamedTuple):
    """Elements g, h and disjoint clopens with g(X-U1) <= V1, h(X-U2) <= V2."""

    g: Element
    h: Element
    u1: ClopenSet
    v1: ClopenSet
    u2: ClopenSet
    v2: ClopenSet
    g_word: Word | None = None
    h_word: Word | None = None


def verify_pingpong(w: PingPongWitness):
    """(ok, reason): exact check of pairwise disjointness and both inclusions."""
    sets = [("U1", w.u1), ("U2", w.u2), ("V1", w.v1), ("V2", w.v2)]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not sets[i][1].intersect(sets[j][1]).is_empty():
                return False, f"disjointness ({sets[i][0]} meets {sets[j][0]})"
    if not w.g.apply_clopen(w.u1.complement()).subset_of(w.v1):
        return False, "inclusion 1"
    if not w.h.apply_clopen(w.u2.complement()).subset_of(w.v2):
        return False, "inclusion 2"
    return True, None


def free_group_smoke(g: Element, h: Element, length: int) -> bool:
    """True iff every nonempty reduced word in g, h of length <= length is
    not the identity (a sanity companion to a verified ping-pong pair)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    letters = [g, g.inverse(), h, h.inverse()]
    inverse_of = {0: 1, 1: 0, 2: 3, 3: 2}
    frontier = []
    for i, le in enumerate(letters):
        if le.is_identity():
            return False
        frontier.append((i, le))
    for _ in range(length - 1):
        new = []
        for last, e in frontier:
            for i, le in enumerate(letters):
                if i == inverse_of[last]:
                    continue
                e2 = compose(e, le)
                if e2.is_identity():
                    return False
                new.append((i, e2))
        frontier = new
    return True


def _separation_exponent(sets) -> int:
    """Least m at which the 2^-m-neighborhoods of pairwise disjoint point
    sets are disjoint: balls at one depth meet only if equal, so m is 1 +
    the longest common prefix of points from different sets."""
    return 1 + max(common_prefix_length(x, y)
                   for i, xs in enumerate(sets) for ys in sets[i + 1:]
                   for x in xs for y in ys)


def _radius_exponent(points, target: ClopenSet, floor: int):
    """Least m >= floor at which the 2^-m-neighborhood of the points lies in
    target, or None when some point is outside target."""
    depths = [target.full_depth(x) for x in points]
    if None in depths:
        return None
    return max([floor, *depths])


def build_pingpong(s: GeneratingSet, budgets: Budgets = Budgets(),
                   context: _Run | None = None):
    """A verified ping-pong witness for the subgroup, or None over budget.

    ``context`` is the driver's run, whose contributors' stable parts
    intersect emptily: the construction reads the contributors, their
    hyperbolic points, the budgets and the letter-image table from it, and
    writes the step where it stopped into ``context.stop``.  Without a
    context, a new run absorbs the enumeration's elements until the core is
    empty (or the word budget runs out).  Both translation searches run over
    point tuples and share the run's letter-image table.
    """
    run = context
    if run is None:
        run = _Run(s, budgets)
        if not any(run.absorb(word, e)
                   for word, e in enumerate_elements(s, budgets.word_length)):
            return None
    witness, run.stop = _pingpong(run)
    return witness


def _pingpong(run: _Run):
    """``build_pingpong``'s witness, or None and the step where it stopped:
    ``{"step": name}``, and for a radius over the ``expansion_depth`` cap
    also the ``exponent`` it needed and the ``cap``."""
    s, budgets, images = run.s, run.budgets, run.images
    hw, hs, hr = zip(*run.contributors)
    b_points = run.candidates
    if not b_points:
        return None, {"step": "hyperbolic points"}

    found = _first_moving_off(s, budgets.word_length, b_points, b_points,
                              images)
    if found is None:
        return None, {"step": "first translation"}
    u_word, u = found
    a1 = [u.apply_point(p) for p in b_points]
    b1 = list(b_points)
    spread = sorted(set(a1) | set(b1), key=lambda p: p.sort_key())
    found = _first_moving_off(s, budgets.word_length, spread, spread, images)
    if found is None:
        return None, {"step": "second translation"}
    w_word, w = found
    a2 = [w.apply_point(p) for p in a1]
    b2 = [w.apply_point(p) for p in b1]

    # a1, b1, a2, b2 are pairwise disjoint: u moves b1 off itself, w moves
    # a1 | b1 off itself, and w is a bijection
    depth = max(budgets.expansion_depth, 2)
    m = _separation_exponent((a1, b1, a2, b2))
    if m > depth:
        return None, {"step": "separation", "exponent": m, "cap": depth}
    star = Fraction(1, 2 ** m)
    u1, v1, u2, v2 = (epsilon_neighborhood(s.tg, p, star) for p in (a1, b1, a2, b2))

    # g1 = contraction o u^-1 maps X - U1 into V1 once B^delta sits inside
    # u^-1(U1); the contraction then keeps it inside B^delta <= V1.
    uinv = u.inverse()
    m1 = _radius_exponent(b_points, uinv.apply_clopen(u1), m)
    if m1 is None or m1 > depth:
        return None, {"step": "delta1", "exponent": m1, "cap": depth}
    powers: dict = {}  # the contributors' powers, shared by c1 and c2
    c1 = _contraction(hs, Fraction(1, 2 ** m1), hw, hr, powers)
    g1 = compose(c1.element, uinv)
    g1_word = c1.word + word_inverse(u_word)

    # g2 needs B^delta inside (wu)^-1(U2), and w(B^delta) inside V2, that
    # is B^delta inside w^-1(V2) as w is a bijection
    wuinv = compose(w, u).inverse()
    pull2 = wuinv.apply_clopen(u2).intersect(w.inverse().apply_clopen(v2))
    m2 = _radius_exponent(b_points, pull2, m)
    if m2 is None or m2 > depth:
        return None, {"step": "delta2", "exponent": m2, "cap": depth}
    # _contraction is deterministic, so an equal radius gives c1 again
    c2 = c1 if m2 == m1 else _contraction(hs, Fraction(1, 2 ** m2), hw, hr,
                                          powers)
    g2 = compose(w, compose(c2.element, wuinv))
    g2_word = w_word + c2.word + word_inverse(w_word + u_word)

    witness = PingPongWitness(g1, g2, u1, v1, u2, v2, g1_word, g2_word)
    ok, reason = verify_pingpong(witness)
    if not ok:
        raise AssertionError(f"constructed witness failed verification: {reason}")
    return witness, None


# ---------------------------------------------------------------------------
# The dichotomy driver


class DichotomyResult(NamedTuple):
    """Verdict of the driver: exactly one of the payloads is set unless the
    verdict is 'undecided', in which case diagnostics carry the frontier."""

    verdict: str  # "finite-orbit" | "ping-pong" | "undecided"
    orbit: Orbit | None = None
    witness: PingPongWitness | None = None
    diagnostics: dict | None = None


def dichotomy(s: GeneratingSet, budgets: Budgets = Budgets()) -> DichotomyResult:
    """Decide, with an exact certificate, whether the subgroup has a finite
    orbit or admits a ping-pong pair; Undecided only on budget exhaustion.

    The driver enumerates subgroup elements, intersecting their stable parts.
    While the intersection is nonempty it looks for finite orbits inside it;
    as soon as it is verifiably empty, the orbits of the accumulated
    hyperbolic periodic points form a complete finite-orbit search.  The
    driver scans those orbits first and then runs the ping-pong
    construction; ``budgets.dovetail_steps`` bounds the number of elements
    the enumeration scans.  A search that reaches one of its fixed caps
    (``BudgetExceeded``) also ends in Undecided, naming the cap.
    """
    run = _Run(s, budgets)
    try:
        return run.decide()
    except BudgetExceeded as e:
        return run.undecided(str(e))


class _Run:
    """One ``dichotomy`` call, or one context-less ``build_pingpong``: the
    letter-image table its point searches share, the points whose orbits
    overflowed, the dynamics reports revealed so far, the stable core and
    its contributors, and the frontier that an undecided verdict reports."""

    def __init__(self, s: GeneratingSet, budgets: Budgets):
        self.s = s
        self.budgets = budgets
        self.images = _LetterImages(s)
        self.overflowed: dict = {}  # bound -> ids of points with a larger orbit
        self.reports: dict = {}  # element -> its dynamics report
        self.escapes: tuple | None = None  # set at the first orbit probe
        self.scanned = 0
        self.inter = ClopenSet.full(s.tg)
        self.contributors: list = []  # (word, element, report)
        self.candidates: list = []  # hyperbolic points, once the core is empty
        self.stop: dict | None = None  # where the ping-pong construction stopped

    def absorb(self, word: Word, e: Element) -> bool:
        """Intersect e's stable part into the core, recording e as a
        contributor unless its stable part is everything.  When the core is
        now empty, the contributors' hyperbolic points become the
        candidates, and the answer is True."""
        rep = self.report(e)
        if not rep.stable.is_all():
            self.contributors.append((word, e, rep))
            self.inter = self.inter.intersect(rep.stable)
        if not self.inter.is_empty():
            return False
        self.candidates = _hyperbolic_points(r for _, _, r in self.contributors)
        return True

    def report(self, e: Element) -> DynamicsReport:
        """``dynamics(e)``, revealed once per run.  A reveal that hits a
        fixed cap raises ``BudgetExceeded`` and keeps nothing, so a later
        call meets the cap again."""
        rep = self.reports.get(e)
        if rep is None:
            rep = self.reports[e] = dynamics(e)
        return rep

    def escape_data(self) -> tuple:
        """The (hyperbolic part, periodic points) of each generator whose
        hyperbolic part is nonempty, revealed at the run's first orbit
        probe.  A generator whose reveal hits a fixed cap gives none: the
        enumeration meets that cap when it reaches the generator."""
        if self.escapes is None:
            out = []
            for e in self.s.elements:
                try:
                    rep = self.report(e)
                except BudgetExceeded:
                    continue
                if not rep.hyperbolic.is_empty():
                    out.append((rep.hyperbolic, frozenset(
                        rep.attracting_periodic + rep.repelling_periodic)))
            self.escapes = tuple(out)
        return self.escapes

    def probe(self, xi: BoundaryPoint, bound: int) -> Orbit | None:
        """``orbit(xi, s, bound)``.  A point reached by an earlier search to
        the same bound that overflowed has that same orbit, so it is not
        searched again (docs/dynamics_notes.md, section 3).  The memo holds
        point ids of the run's table.  The search stops at the first point
        a generator moves along an infinite forward orbit, that is a point
        of the generator's hyperbolic part other than its periodic points;
        the orbit is then infinite, and the points reached go into the memo
        as well (section 3)."""
        memo = self.overflowed.setdefault(bound, set())
        if self.images.id(xi) in memo:
            return None
        res, reached = _orbit_search(xi, self.s, bound, self.images,
                                     self.escape_data())
        if res is None:
            memo.update(reached)
        return res

    def decide(self) -> DichotomyResult:
        last_checked = None
        for word, e in enumerate_elements(self.s, self.budgets.word_length):
            self.scanned += 1
            if self.scanned > self.budgets.dovetail_steps:
                return self.undecided("dovetail step budget exhausted")
            if self.absorb(word, e):
                return self.empty_core_branch()
            # the invariant branch depends only on the core, and it has
            # already failed on the last core it was given
            if self.inter != last_checked:
                last_checked = self.inter
                res = self.invariant_branch(self.inter)
                if res is not None:
                    return DichotomyResult("finite-orbit", orbit=res)
        return self.undecided("word budget exhausted without a verified certificate")

    def invariant_branch(self, w: ClopenSet) -> Orbit | None:
        """Finite-orbit search on a nonempty candidate stable core w."""
        s, budgets = self.s, self.budgets
        balls = w.balls()
        # direct orbit probes from a witness point in each ball
        for ball in balls[:16]:
            res = self.probe(eventually_periodic_witness(s.tg, ball),
                             budgets.orbit_size)
            if res is not None:
                return res
        # a larger probe at the first witness, bounded by closure_size.  The
        # probe above overflowed there, so this one can close only when
        # closure_size > orbit_size; it keeps its own memo of points whose
        # orbits exceed closure_size (docs/dynamics_notes.md, section 3).
        if budgets.closure_size <= budgets.orbit_size:
            return None
        return self.probe(eventually_periodic_witness(s.tg, balls[0]),
                          budgets.closure_size)

    def empty_core_branch(self) -> DichotomyResult:
        # complete finite-orbit scan: an invariant measure would have an atom
        # in the hyperbolic point set (see module docstring)
        for xi in self.candidates:
            res = self.probe(xi, self.budgets.orbit_size)
            if res is not None:
                return DichotomyResult("finite-orbit", orbit=res)
        witness = build_pingpong(self.s, self.budgets, context=self)
        if witness is not None:
            return DichotomyResult("ping-pong", witness=witness)
        return self.undecided(
            "stable parts empty but neither branch verified in budget")

    def undecided(self, reason: str) -> DichotomyResult:
        """The frontier, the fixed search caps as ``caps`` (read now, so a
        patched cap shows its value), and as ``pingpong_stop`` the step
        where a ping-pong construction stopped."""
        stop = {"pingpong_stop": self.stop} if self.stop else {}
        return DichotomyResult("undecided", diagnostics={
            "reason": reason,
            "elements_scanned": self.scanned,
            "stable_intersection": self.inter.ball_strs(),
            "contributor_words": [word_str(w) for w, _, _ in self.contributors],
            "candidate_points": [str(p) for p in self.candidates],
            "budgets": self.budgets._asdict(),
            "caps": {"_BFS_NODE_CAP": revealing._BFS_NODE_CAP,
                     "_ROLL_CAP": revealing._ROLL_CAP,
                     "_ROUND_CAP": _ROUND_CAP,
                     "_STAGE_POWER_CAP": _STAGE_POWER_CAP},
            **stop,
        })
