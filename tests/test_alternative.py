import random
from fractions import Fraction

import pytest

from vtrees import (
    Budgets,
    ClopenSet,
    Element,
    GeneratingSet,
    PingPongWitness,
    TypeGraph,
    boundary_point,
    build_pingpong,
    compose,
    dichotomy,
    dynamics,
    element_from_map,
    epsilon_neighborhood,
    format_element,
    free_group_smoke,
    identity,
    neumann_disjoint,
    orbit,
    parse_element,
    proximal_contraction,
    stable_intersection,
    stable_set,
    verify_pingpong,
    word_str,
)

import vtrees.alternative as alternative

from conftest import sample_elements
from oracles import pingpong_oracle


def pt(tg, prefix, cycle):
    return boundary_point(tg, prefix, cycle)


def ball(tg, *addrs):
    return ClopenSet.from_balls(tg, addrs)


# ---------------------------------------------------------------------------
# Stable sets


def test_stable_set_pinned(x0, sigma, binary):
    assert stable_set(x0).is_empty()
    assert stable_set(sigma).is_all()
    assert stable_set(identity(binary)).is_all()


def test_stable_intersection(x0, sigma, binary):
    assert stable_intersection([sigma]).is_all()
    assert stable_intersection([sigma, x0]).is_empty()
    assert stable_intersection([sigma, sigma]).is_all()
    # empty intersection convention: the full boundary
    assert stable_intersection([], tg=binary).is_all()


def test_stable_intersection_empty_input_needs_tree():
    with pytest.raises(ValueError):
        stable_intersection([])


# ---------------------------------------------------------------------------
# Contraction elements


def test_proximal_x0_pinned(binary, x0):
    pc = proximal_contraction([x0], Fraction(1, 4), words=[(("x0", 1),)])
    # the witness is a power of x0 with exponent at least 2, and the exact
    # inclusion into ball 00 | ball 11 was verified during construction
    assert pc.element == x0.power(pc.stages[0].multiplier)
    assert pc.stages[0].multiplier >= 2
    assert set(str(p) for p in pc.points) == {"(0)^inf", "(1)^inf"}
    assert pc.target == ball(binary, (0, 0), (1, 1))
    assert pc.start == ball(binary, (0, 1), (1, 0))
    image = pc.element.apply_clopen(pc.start)
    assert image.subset_of(pc.target)
    assert word_str(pc.word) == "x0^2"


def test_proximal_x0_full_radius(x0):
    pc = proximal_contraction([x0], Fraction(1))
    assert pc.start.is_empty()
    assert pc.stages[0].multiplier == 1  # everything lands in the full ball


def test_proximal_rejects_nonempty_intersection(sigma):
    with pytest.raises(ValueError, match="nonempty intersection"):
        proximal_contraction([sigma], Fraction(1, 4))


def assert_transcript(pc, hs, words=None):
    """The contraction against a reference that builds every factor as
    h.power(m * t) directly: the chain of stage images, the element and the
    word."""
    assert len(pc.stages) == len(hs)
    cur = pc.start
    element = identity(hs[0].tg)
    word = ()
    for i, (st, h) in enumerate(zip(pc.stages, hs)):
        assert st.before == cur
        assert st.word == (words[i] if words is not None else None)
        factor = h.power(st.isometric_power * st.multiplier)
        cur = factor.apply_clopen(cur)
        assert cur == st.after
        assert st.after.subset_of(st.allowed)
        element = compose(factor, element)
        if words is not None:
            word = tuple(words[i]) * (st.isometric_power * st.multiplier) + word
    assert pc.element == element
    assert pc.word == (word if words is not None else None)
    assert cur == pc.element.apply_clopen(pc.start)
    assert pc.element.apply_clopen(pc.start).subset_of(pc.target)


def test_proximal_stage_invariant(binary, x0, sigma):
    # with two elements: conjugate of x0 plus x0 — stable parts intersect
    # emptily and the per-stage inclusions telescope into the target
    y = compose(sigma, compose(x0, sigma))  # x0 transported by the ball swap
    pc = proximal_contraction([x0, y], Fraction(1, 8))
    assert_transcript(pc, [x0, y])
    words = [(("x0", 1),), (("sigma", 1), ("x0", 1), ("sigma", 1))]
    assert_transcript(proximal_contraction([x0, y], Fraction(1, 8), words),
                      [x0, y], words)


def wide_pingpong_case():
    """A wide-tree case whose construction has three contributors, two of
    isometric power 2, and contractions at two different radii."""
    from test_dichotomy_golden import WIDE
    from test_pingpong_sweep import SWEEP_BUDGETS
    return GeneratingSet([parse_element(WIDE, text) for text in (
        "pair{domain=[0,10,110,111,2], range=[00,01,10,11,2], perm=[0,4,1,3,2]}",
        "pair{domain=[0,10,11,20,21], range=[00,010,011,1,2], perm=[1,0,4,3,2]}",
    )], ["a", "b"]), SWEEP_BUDGETS


def contractions_of_one_construction(monkeypatch, s, budgets):
    """The arguments and results of the contractions of one
    ``build_pingpong``, the (element, exponent) of every ``Element.power``
    call made during it, and the memo the contractions share."""
    calls, powers, memos = [], [], []
    contraction = alternative._contraction
    power = Element.power

    def recording_contraction(hs, eps, words, reports, memo):
        pc = contraction(hs, eps, words, reports, memo)
        calls.append((list(hs), eps, words, reports, pc))
        memos.append(memo)
        return pc

    def recording_power(self, n):
        powers.append((self, n))
        return power(self, n)

    monkeypatch.setattr(alternative, "_contraction", recording_contraction)
    monkeypatch.setattr(Element, "power", recording_power)
    w = build_pingpong(s, budgets)
    monkeypatch.undo()
    assert w is not None
    assert len(memos) == 2 and memos[0] is memos[1]
    return calls, powers, memos[0]


@pytest.mark.parametrize("case", ["V", "wide"])
def test_pingpong_contractions_share_powers(monkeypatch, v_gens, case):
    s, budgets = ((v_gens, Budgets()) if case == "V"
                  else wide_pingpong_case())
    calls, powers, memo = contractions_of_one_construction(monkeypatch, s,
                                                           budgets)
    assert len(calls) == 2  # c1 and c2
    hs, _, _, reports, _ = calls[0]
    assert all(c[0] == hs and c[3] == reports for c in calls)
    for h, rep in zip(hs, reports):
        # h^m is built once for both contractions, and the rest from it
        assert powers.count((h, rep.isometric_power)) == 1
    assert len(powers) == len(hs)
    if case == "wide":
        assert len(hs) == 3
        assert sorted(rep.isometric_power for rep in reports) == [1, 2, 2]
    for hs, eps, words, reports, pc in calls:
        # each equals the reference, a contraction with its own memo, and
        # one handed the construction's memo with all its squarings
        assert_transcript(pc, hs, words)
        assert pc == proximal_contraction(hs, eps, words, reports)
        assert pc == alternative._contraction(hs, eps, words, reports,
                                              dict(memo))


@pytest.mark.parametrize("case", ["V", "wide"])
def test_contraction_memo_entries_are_powers(monkeypatch, v_gens, case):
    s, budgets = ((v_gens, Budgets()) if case == "V"
                  else wide_pingpong_case())
    calls, _, memo = contractions_of_one_construction(monkeypatch, s, budgets)
    hs, _, _, reports, _ = calls[0]
    for (h, p), e in memo.items():
        assert e == h.power(p)
    # the memo holds the squarings (h^m)^(2^k) below each factor's top bit
    for h, rep in zip(hs, reports):
        m = rep.isometric_power
        top = max(p for g, p in memo if g == h) // m
        assert all((h, m << k) in memo for k in range(top.bit_length()))


def test_proximal_deeper_radius_needs_higher_power(x0):
    pc3 = proximal_contraction([x0], Fraction(1, 8))
    pc2 = proximal_contraction([x0], Fraction(1, 4))
    assert pc3.stages[0].multiplier >= pc2.stages[0].multiplier


# ---------------------------------------------------------------------------
# Neumann disjointification


def test_neumann_sigma(binary, sigma):
    s = GeneratingSet([sigma], ["sigma"])
    zero = pt(binary, (), (0,))
    word, e = neumann_disjoint(s, [zero], [zero], 4)
    assert word_str(word) == "sigma"
    assert e.apply_point(zero) == pt(binary, (1,), (0,))


def test_neumann_empty_a(binary, sigma):
    s = GeneratingSet([sigma], ["sigma"])
    word, e = neumann_disjoint(s, [], [pt(binary, (), (0,))], 4)
    assert word == () and e.is_identity()


def test_neumann_exhausts_on_fixed_point(binary):
    s = GeneratingSet([identity(binary)], ["e"])
    zero = pt(binary, (), (0,))
    assert neumann_disjoint(s, [zero], [zero], 5) is None


# ---------------------------------------------------------------------------
# Ping-pong witnesses


def test_verify_pingpong_rejects_overlap(binary, x0):
    w = PingPongWitness(x0, x0, ball(binary, (0,)), ball(binary, (0,)),
                        ball(binary, (1, 0)), ball(binary, (1, 1)))
    ok, reason = verify_pingpong(w)
    assert not ok and "disjointness" in reason


def test_verify_pingpong_rejects_identity(binary):
    e = identity(binary)
    w = PingPongWitness(e, e, ball(binary, (0, 0)), ball(binary, (1, 0)),
                        ball(binary, (0, 1)), ball(binary, (1, 1)))
    ok, reason = verify_pingpong(w)
    assert not ok and reason == "inclusion 1"


def test_build_pingpong_v_generators(v_gens):
    w = build_pingpong(v_gens, Budgets())
    assert w is not None
    ok, reason = verify_pingpong(w)
    assert ok, reason
    # the four clopen supports are pairwise disjoint and the words evaluate
    # to the elements
    assert v_gens.evaluate(w.g_word) == w.g
    assert v_gens.evaluate(w.h_word) == w.h
    assert free_group_smoke(w.g, w.h, 4)


def test_build_pingpong_without_context_matches_driver(v_gens):
    # the context-less construction absorbs the same elements as the driver,
    # so it builds the driver's witness
    w = build_pingpong(v_gens, Budgets())
    d = dichotomy(v_gens).witness
    assert (w.g_word, w.h_word) == (d.g_word, d.h_word)
    assert ([c.ball_strs() for c in (w.u1, w.v1, w.u2, w.v2)]
            == [c.ball_strs() for c in (d.u1, d.v1, d.u2, d.v2)])


def test_build_pingpong_fails_for_torsion(sigma):
    s = GeneratingSet([sigma], ["sigma"])
    assert build_pingpong(s, Budgets(word_length=4)) is None


def test_build_pingpong_fails_for_cyclic_x0(x0):
    s = GeneratingSet([x0], ["x0"])
    assert build_pingpong(s, Budgets(word_length=4)) is None


def test_free_group_smoke_negative(x0, sigma):
    assert not free_group_smoke(sigma, sigma, 2)
    assert not free_group_smoke(x0, x0, 2)
    assert not free_group_smoke(x0, compose(x0, x0), 3)  # they commute


# ---------------------------------------------------------------------------
# The dichotomy driver


def test_dichotomy_x0(binary, x0):
    res = dichotomy(GeneratingSet([x0], ["x0"]))
    assert res.verdict == "finite-orbit"
    pts = {str(p) for p in res.orbit.points}
    assert pts & {"(0)^inf", "(1)^inf"}
    # re-verify invariance
    for le in [x0, x0.inverse()]:
        for p in res.orbit.points:
            assert le.apply_point(p) in set(res.orbit.points)


def test_dichotomy_sigma(binary, sigma):
    res = dichotomy(GeneratingSet([sigma], ["sigma"]))
    assert res.verdict == "finite-orbit"
    # the two-point orbit of the least end under the ball swap
    assert [str(p) for p in res.orbit.points] == ["(0)^inf", "1(0)^inf"]


def test_dichotomy_thompson_f(binary, x0, x1):
    res = dichotomy(GeneratingSet([x0, x1], ["x0", "x1"]))
    assert res.verdict == "finite-orbit"
    assert str(res.orbit.points[0]) == "(0)^inf"
    assert len(res.orbit.points) == 1


def test_dichotomy_v_generators(v_gens):
    res = dichotomy(v_gens)
    assert res.verdict == "ping-pong"
    ok, reason = verify_pingpong(res.witness)
    assert ok, reason


def test_dichotomy_elliptic_subgroup(sigma, tau):
    res = dichotomy(GeneratingSet([sigma, tau], ["sigma", "tau"]))
    assert res.verdict == "finite-orbit"
    pts = set(res.orbit.points)
    for le in [sigma, tau]:
        for p in pts:
            assert le.apply_point(p) in pts


def test_dichotomy_identity_only(binary):
    res = dichotomy(GeneratingSet([identity(binary)], ["e"]))
    assert res.verdict == "finite-orbit"
    assert len(res.orbit.points) == 1


def test_dichotomy_transported_thompson_move(binary, x0, sigma):
    # x0 acting inside ball 0 only: its repelling end (0)^inf is fixed, so
    # the very first orbit probe already closes
    from vtrees import element_from_map
    g = element_from_map(binary, {(0, 0, 0): (0, 0), (0, 0, 1): (0, 1, 0),
                                  (0, 1): (0, 1, 1), (1,): (1,)})
    res = dichotomy(GeneratingSet([g], ["g"]))
    assert res.verdict == "finite-orbit"
    assert [str(p) for p in res.orbit.points] == ["(0)^inf"]
    assert g.apply_point(res.orbit.points[0]) == res.orbit.points[0]


def test_dichotomy_undecided_on_tiny_budget(v_gens):
    res = dichotomy(v_gens, Budgets(word_length=0, dovetail_steps=10_000))
    assert res.verdict == "undecided"
    assert "reason" in res.diagnostics
    assert res.diagnostics["caps"] == {
        "_BFS_NODE_CAP": 500_000, "_ROLL_CAP": 512, "_ROUND_CAP": 16,
        "_STAGE_POWER_CAP": 512}


STOPPED = "stable parts empty but neither branch verified in budget"


@pytest.mark.parametrize("depth, stop", [
    (0, {"step": "separation", "exponent": 4, "cap": 2}),
    (2, {"step": "separation", "exponent": 4, "cap": 2}),
    (3, {"step": "separation", "exponent": 4, "cap": 3}),
    (4, {"step": "delta2", "exponent": 5, "cap": 4}),
])
def test_undecided_names_the_capped_exponent(v_gens, depth, stop):
    res = dichotomy(v_gens, Budgets(expansion_depth=depth))
    assert res.verdict == "undecided"
    assert res.diagnostics["reason"] == STOPPED
    assert res.diagnostics["pingpong_stop"] == stop
    # at the named exponent the construction gets past that step
    more = dichotomy(v_gens, Budgets(expansion_depth=stop["exponent"]))
    later = (more.diagnostics or {}).get("pingpong_stop")
    assert later is None or later["step"] != stop["step"]


def test_pingpong_stop_names_the_step(v_gens):
    assert dichotomy(v_gens, Budgets(expansion_depth=12)).verdict == "ping-pong"
    res = dichotomy(v_gens, Budgets(word_length=1))
    assert res.diagnostics["reason"] == STOPPED
    assert res.diagnostics["pingpong_stop"] == {"step": "second translation"}
    # no ping-pong construction ran
    res = dichotomy(v_gens, Budgets(word_length=0))
    assert res.verdict == "undecided" and "pingpong_stop" not in res.diagnostics


def test_dichotomy_never_produces_unverified_witness(v_gens, sigma, tau, x0, x1):
    # soundness sweep over the suite cases: whichever branch is returned
    # passes its own re-verification
    cases = [
        GeneratingSet([x0], ["x0"]),
        GeneratingSet([sigma], ["sigma"]),
        GeneratingSet([sigma, tau], ["sigma", "tau"]),
        GeneratingSet([x0, x1], ["x0", "x1"]),
        v_gens,
    ]
    for s in cases:
        res = dichotomy(s)
        assert res.verdict in ("finite-orbit", "ping-pong")
        if res.verdict == "finite-orbit":
            pts = set(res.orbit.points)
            for letter, le in s.letters():
                assert all(le.apply_point(p) in pts for p in pts)
        else:
            ok, _ = verify_pingpong(res.witness)
            assert ok


def test_atom_localization(binary, x0, sigma, tau, x1):
    # on cases with a known finite orbit and an element with empty stable
    # part, every finite orbit must meet each neighborhood of that element's
    # hyperbolic point set (the exact reflection of the measure argument)
    rep = dynamics(x0)
    b_points = rep.attracting_periodic + rep.repelling_periodic
    for s in (GeneratingSet([x0], ["x0"]),
              GeneratingSet([x0, x1], ["x0", "x1"])):
        res = dichotomy(s)
        assert res.verdict == "finite-orbit"
        orbit_pts = set(res.orbit.points)
        for m in range(0, 6):
            nbhd = epsilon_neighborhood(binary, b_points, Fraction(1, 2 ** m))
            assert any(nbhd.contains_point(p) for p in orbit_pts)


def test_dichotomy_on_wide_tree(wide):
    from vtrees import builtin_generators
    fam = builtin_generators(wide)
    s = GeneratingSet([fam[n] for n in fam], list(fam))
    res = dichotomy(s)
    assert res.verdict == "ping-pong"
    ok, reason = verify_pingpong(res.witness)
    assert ok, reason
    assert s.evaluate(res.witness.g_word) == res.witness.g
    res2 = dichotomy(GeneratingSet([fam["rho"]], ["rho"]))
    assert res2.verdict == "finite-orbit"
    assert [str(p) for p in res2.orbit.points] == \
        ["0(0)^inf", "1(0)^inf", "2(0)^inf"]


def test_dichotomy_deterministic(v_gens):
    a = dichotomy(v_gens)
    b = dichotomy(v_gens)
    assert a.verdict == b.verdict == "ping-pong"
    assert a.witness.g == b.witness.g and a.witness.h == b.witness.h
    assert a.witness.u1 == b.witness.u1 and a.witness.v2 == b.witness.v2
    assert a.witness.g_word == b.witness.g_word


# ---------------------------------------------------------------------------
# The closure certificate and the hidden caps


def test_closure_certificate_finds_orbit_above_orbit_budget(sigma):
    # every probe overflows an orbit budget of 1, but the closure of <sigma>
    # has 2 elements, so the certificate closes the witness orbit
    s = GeneratingSet([sigma], ["sigma"])
    res = dichotomy(s, Budgets(orbit_size=1, closure_size=4))
    assert res.verdict == "finite-orbit"
    assert [str(p) for p in res.orbit.points] == ["(0)^inf", "1(0)^inf"]
    res = dichotomy(s, Budgets(orbit_size=1, closure_size=1))
    assert res.verdict == "undecided"


def _closure_certificate(s, w, budgets):
    """The restricted-closure certificate that the driver's larger orbit
    probe replaced, kept as the reference for the claims of
    docs/dynamics_notes.md, section 3."""
    from vtrees import eventually_periodic_witness, restrict, restricted_closure
    if any(e.apply_clopen(w) != w for e in s.elements):
        return None
    closure = restricted_closure([restrict(e, w) for e in s.elements],
                                 budgets.closure_size)
    if closure is None:
        return None
    xi = eventually_periodic_witness(s.tg, w.balls()[0])
    return orbit(xi, s, max(budgets.orbit_size, len(closure) + 1))


def test_closure_certificate_cannot_succeed_within_orbit_budget(binary, wide):
    # docs/dynamics_notes.md section 3: once the probe at the witness of
    # w's first ball overflows orbit_size, the certificate fails for every
    # closure_size <= orbit_size; the driver therefore skips it
    from vtrees import eventually_periodic_witness, is_elliptic, random_element
    rng = random.Random(11)
    reached = certified = 0
    for trial in range(16):
        tg = (binary, wide)[trial % 2]
        gens = []
        while len(gens) < 2:
            e = random_element(tg, rng.randint(2, 4), rng)
            if is_elliptic(e) and not e.is_identity():
                gens.append(e)
        s = GeneratingSet(gens, ["a", "b"])
        cores = [ClopenSet.full(tg), stable_intersection(gens)]
        for w in cores:
            if w.is_empty():
                continue
            xi = eventually_periodic_witness(tg, w.balls()[0])
            for orbit_size in (1, 2, 3, 5, 8):
                if orbit(xi, s, orbit_size) is not None:
                    continue  # the probe closes; the certificate is not reached
                reached += 1
                for closure_size in (1, orbit_size):
                    assert _closure_certificate(
                        s, w, Budgets(orbit_size=orbit_size,
                                      closure_size=closure_size)) is None
                cert = _closure_certificate(
                    s, w, Budgets(orbit_size=orbit_size, closure_size=32))
                if cert is not None:
                    # the driver's larger probe returns the same orbit
                    assert orbit(xi, s, 32) == cert
                    certified += 1
    # the sweep reaches the step, and a larger closure budget does certify
    assert reached >= 60 and certified >= 10


def test_driver_uses_no_closure(sigma, monkeypatch):
    import vtrees.subgroup as subgroup
    from vtrees import parse_element

    def boom(*args, **kwargs):
        raise AssertionError("the driver closed a group")

    for mod in (subgroup, alternative):
        for name in ("finite_closure", "restricted_closure", "restrict"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, boom)
    res = dichotomy(GeneratingSet([sigma], ["sigma"]),
                    Budgets(orbit_size=1, closure_size=4))
    assert res.verdict == "finite-orbit"
    hang = parse_element(sigma.tg, "pair{domain=[00,010,0110,0111,1], "
                         "range=[00,01,10,110,111], perm=[2,0,1,3,4]}")
    res = dichotomy(GeneratingSet([hang], ["g"]),
                    Budgets(word_length=4, orbit_size=64, closure_size=128))
    assert res.verdict == "finite-orbit"


def test_larger_probe_skips_known_overflows(monkeypatch):
    # the closure_size probe has its own memo: it never starts at a point
    # that an earlier closure_size search of the same call overflowed
    # through, and skipping those probes changes no output.  The memo is
    # measured alone, with the generators' escape data emptied.
    from test_dichotomy_golden import BINARY, WIDE, verdict_text, with_carets
    budgets = Budgets(word_length=4, orbit_size=16, closure_size=64)
    rng = random.Random(2)
    cases = [GeneratingSet([with_carets((BINARY, WIDE)[i % 2], 2 + i % 3, rng)
                            for _ in range(2)], ["a", "b"])
             for i in range(48)]
    search = alternative._orbit_search
    log = []  # (start, points reached when it overflowed) per larger search

    def logged(x, s, bound, images=None, escapes=()):
        res, reached = search(x, s, bound, images, escapes)
        if bound == budgets.closure_size:
            # the search reports the reached points by their ids in images
            log.append((x, {images.points[i] for i in reached or ()}))
        return res, reached

    def run_all(memo):
        texts, searches = [], 0
        for s in cases:
            log.clear()
            texts.append(verdict_text(dichotomy(s, budgets)))
            for k, (x, _) in enumerate(log):
                assert not memo or all(x not in r for _, r in log[:k])
            searches += len(log)
        return texts, searches

    monkeypatch.setattr(alternative, "_orbit_search", logged)
    texts_escaping, _ = run_all(memo=True)
    # 45 against 48 larger searches with the escape data when this test
    # was written
    monkeypatch.setattr(alternative._Run, "escape_data", lambda self: ())
    texts, searches = run_all(memo=True)
    assert texts == texts_escaping
    # the same run with the closure_size memo emptied before each probe
    probe = alternative._Run.probe

    def probe_without_memo(self, xi, bound):
        if bound == budgets.closure_size:
            self.overflowed.pop(bound, None)
        return probe(self, xi, bound)

    monkeypatch.setattr(alternative._Run, "probe", probe_without_memo)
    texts_off, searches_off = run_all(memo=False)
    assert texts == texts_off
    # 40 against 48 larger searches when this test was written
    assert searches_off >= searches + 5


def test_round_cap_ends_in_undecided(v_gens, monkeypatch):
    from vtrees import BudgetExceeded
    monkeypatch.setattr(alternative, "_ROUND_CAP", 0)
    with pytest.raises(BudgetExceeded):
        proximal_contraction(list(v_gens.elements)[:1], Fraction(1, 4))
    res = dichotomy(v_gens)
    assert res.verdict == "undecided"
    assert "_ROUND_CAP" in res.diagnostics["reason"]
    assert res.diagnostics["candidate_points"] == ["(0)^inf", "(1)^inf"]
    assert res.diagnostics["caps"]["_ROUND_CAP"] == 0


def test_bfs_node_cap_ends_in_undecided(x0, x1, sigma, monkeypatch):
    import vtrees.revealing as revealing
    from vtrees import BudgetExceeded
    # x1*sigma is not revealing as reduced; with no rolling steps allowed its
    # reveal falls back to the breadth-first search, which exceeds one node
    monkeypatch.setattr(revealing, "_ROLL_CAP", 0)
    monkeypatch.setattr(revealing, "_BFS_NODE_CAP", 1)
    g = compose(x1, sigma)
    with pytest.raises(BudgetExceeded):
        dynamics(g)
    res = dichotomy(GeneratingSet([g, x0], ["g", "x0"]))
    assert res.verdict == "undecided"
    assert "_BFS_NODE_CAP" in res.diagnostics["reason"]
    # the identity's probe reveals the generators but gives g no escape
    # data; the enumeration meets the cap when it reaches g
    assert res.diagnostics["elements_scanned"] == 2


def test_a_run_reveals_each_element_once(v_gens, monkeypatch):
    revealed = []

    def logged(g):
        revealed.append(g)
        return dynamics(g)

    monkeypatch.setattr(alternative, "dynamics", logged)
    from test_dichotomy_golden import CASE_BUDGETS, seeded_cases
    for s in [v_gens] + seeded_cases()[:12]:
        revealed.clear()
        dichotomy(s, CASE_BUDGETS)
        assert revealed and len(set(revealed)) == len(revealed)


# A binary tree hung below a root with one child: the boundary is the binary
# tree's, but the clopen tries carry a one-child level at the top.
ONE_CHILD_ROOT = TypeGraph({"c": ["d"], "d": ["d", "d"]}, "c")


def lift_below_root(g):
    """g acting below the only child of the root of ONE_CHILD_ROOT."""
    lifted = {(0,) + u: (0,) + w for u, w in g.pair.leaf_map().items()}
    return element_from_map(ONE_CHILD_ROOT, lifted)


@pytest.mark.parametrize("names", [("x0", "sigma"),
                                   ("x0", "x1", "sigma", "tau")])
def test_pingpong_below_a_one_child_root(gens, names):
    budgets = Budgets(word_length=4, orbit_size=64, closure_size=64)
    s = GeneratingSet([lift_below_root(gens[n]) for n in names], list(names))
    res = dichotomy(s, budgets)
    assert res.verdict == "ping-pong"
    w = res.witness
    balls = [c.ball_strs() for c in (w.u1, w.v1, w.u2, w.v2)]
    assert pingpong_oracle(format_element(w.g), format_element(w.h), *balls,
                           lambda p: 1 if p == "" else 2)
    # the same first witness as on the binary tree, its balls moved down
    base = dichotomy(GeneratingSet([gens[n] for n in names], list(names)),
                     budgets).witness
    assert (w.g_word, w.h_word) == (base.g_word, base.h_word)
    assert balls == [["0" + b for b in c.ball_strs()]
                     for c in (base.u1, base.v1, base.u2, base.v2)]
