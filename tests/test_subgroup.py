import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from vtrees import (
    Budgets,
    ClopenSet,
    GeneratingSet,
    boundary_point,
    builtin_generators,
    common_admissible_partition,
    compose,
    element_from_map,
    enumerate_elements,
    eventually_periodic_witness,
    finite_closure,
    format_generating_set,
    identity,
    is_elliptic,
    load_type_graph,
    orbit,
    parse_generating_set,
    parse_word,
    random_element,
    restrict,
    restricted_closure,
    word_inverse,
    word_str,
)
from vtrees.element import random_complete_shape, typed_leaves
from vtrees.treespace import FormatError

from conftest import BINARY_SPEC, RAY_SPEC, WIDE_SPEC, sample_elements
from oracles import closure_by_bfs


def pt(tg, prefix, cycle):
    return boundary_point(tg, prefix, cycle)


# ---------------------------------------------------------------------------
# Words


def test_word_str_roundtrip():
    w = (("x0", 1), ("x0", 1), ("sigma", -1), ("x0", 1))
    assert word_str(w) == "x0^2*sigma^-1*x0"
    assert parse_word(word_str(w)) == w
    assert word_str(()) == "id"
    assert parse_word("id") == ()
    assert word_inverse(w) == (("x0", -1), ("sigma", 1), ("x0", -1), ("x0", -1))
    with pytest.raises(FormatError):
        parse_word("x0^one")


# ---------------------------------------------------------------------------
# Generating sets


def test_generating_set_validation(binary, wide, sigma):
    with pytest.raises(ValueError):
        GeneratingSet([])
    with pytest.raises(ValueError):
        GeneratingSet([identity(binary), identity(wide)])
    with pytest.raises(ValueError):
        GeneratingSet([sigma, sigma], ["a", "a"])
    s = GeneratingSet([sigma], ["s"])
    assert s.evaluate(parse_word("s*s")).is_identity()


def test_evaluate_reads_one_letter_table(x0, sigma):
    s = GeneratingSet([x0, sigma], ["x0", "s"])
    # an unknown letter is refused before and after the table is built
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown generator 'y'"):
            s.evaluate(parse_word("x0*y"))
    assert s.evaluate(()).is_identity()
    assert s.evaluate(parse_word("x0")) == x0
    assert s.evaluate(parse_word("x0^-1*s")) == compose(x0.inverse(), sigma)
    # the inverses are computed once, with the table
    letters = s.letters()
    s.evaluate(parse_word("s^-1*x0^-1"))
    assert s.letters() is letters
    assert s.evaluate(parse_word("x0^-1")) is letters[1][1]


SIGMA = "pair{domain=[0,1], range=[0,1], perm=[1,0]}"


@pytest.mark.parametrize("name, in_a_file", [
    ("id", True), ("1", True), ("", True), ("a*b", True), ("a^2", True),
    (" a", False), ("a\t", False)])
def test_bad_generator_names_are_rejected_both_ways(binary, sigma, name,
                                                    in_a_file):
    # a name that spells the empty word, or that parse_word would split or
    # strip, could not be read back from a word that holds it
    with pytest.raises(ValueError, match="bad generator name"):
        GeneratingSet([sigma], [name])
    if in_a_file:  # a file's names are stripped, so they hold no whitespace
        with pytest.raises(FormatError, match=re.escape(
                f"line 2: bad generator name {name!r}")):
            parse_generating_set(binary, f"s = {SIGMA}\n{name} = {SIGMA}\n")


NAMES = st.text(alphabet="id1x *^\t", max_size=3)
ONE = identity(load_type_graph(BINARY_SPEC))


def accepted(name) -> bool:
    try:
        GeneratingSet([ONE], [name])
    except ValueError:
        return False
    return True


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(letters=st.lists(st.tuples(NAMES.filter(accepted),
                                  st.sampled_from([1, -1])), max_size=6))
def test_words_over_accepted_names_read_back(letters):
    w = tuple(letters)
    assert parse_word(word_str(w)) == w


@pytest.mark.parametrize("name", ["a=b", "#a", "a\nb", "a\x0bb"])
def test_names_a_file_cannot_hold_are_rejected_both_ways(binary, sigma,
                                                         name):
    # a file line for the name would split at its "=", read as a comment,
    # or break into two lines, so the name could not be read back
    with pytest.raises(ValueError, match="bad generator name"):
        GeneratingSet([sigma], [name])
    try:
        back = parse_generating_set(binary, f"{name} = {SIGMA}\n")
    except FormatError:
        return
    assert name not in back.names


FILE_NAMES = st.text(alphabet="ab=# \t\n\x0b\x1c\x85 ", min_size=1,
                     max_size=4)


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(names=st.lists(FILE_NAMES.filter(accepted), min_size=1, max_size=3,
                      unique=True))
def test_accepted_names_read_back_from_a_file(names):
    s = GeneratingSet([ONE] * len(names), names)
    back = parse_generating_set(s.tg, format_generating_set(s))
    assert back.names == s.names


def test_generating_set_file_roundtrip(binary, v_gens):
    text = format_generating_set(v_gens)
    back = parse_generating_set(binary, text)
    assert back.names == v_gens.names
    assert back.elements == v_gens.elements
    with pytest.raises(FormatError):
        parse_generating_set(binary, "x0 pair{domain=[], range=[], perm=[0]}")
    with pytest.raises(FormatError):
        parse_generating_set(binary, "# only a comment\n")


# ---------------------------------------------------------------------------
# Enumeration


def test_enumerate_sigma_budget3(sigma):
    s = GeneratingSet([sigma], ["sigma"])
    items = list(enumerate_elements(s, 3))
    assert [word_str(w) for w, _ in items] == ["id", "sigma"]


def test_enumerate_x0_budget2(x0):
    s = GeneratingSet([x0], ["x0"])
    items = list(enumerate_elements(s, 2))
    assert [word_str(w) for w, _ in items] == \
        ["id", "x0", "x0^-1", "x0^2", "x0^-2"]
    assert len({e.key() for _, e in items}) == 5


def test_enumerate_budget_zero(x0):
    s = GeneratingSet([x0], ["x0"])
    assert [word_str(w) for w, _ in enumerate_elements(s, 0)] == ["id"]


def test_enumerate_deduplicates_and_is_deterministic(v_gens):
    a = [(word_str(w), e.key()) for w, e in enumerate_elements(v_gens, 3)]
    b = [(word_str(w), e.key()) for w, e in enumerate_elements(v_gens, 3)]
    assert a == b
    keys = [k for _, k in a]
    assert len(keys) == len(set(keys))
    # words evaluate to their elements
    table = dict(zip(v_gens.names, v_gens.elements))
    for w, e in enumerate_elements(v_gens, 3):
        assert v_gens.evaluate(w) == e


# ---------------------------------------------------------------------------
# Finite closure


def test_closure_sigma(sigma):
    c = finite_closure(GeneratingSet([sigma], ["sigma"]), 10)
    assert len(c) == 2
    assert c.elements[0].is_identity()


def test_closure_sigma_tau_is_2group(sigma, tau):
    c = finite_closure(GeneratingSet([sigma, tau], ["s", "t"]), 100)
    assert len(c) == 8
    # closed under products: every pairwise product is a member
    keys = {e.key() for e in c.elements}
    for a in c.elements:
        for b in c.elements:
            assert compose(a, b).key() in keys
    # 2-group: every element has order a power of two
    from vtrees import order
    assert all(order(e) in (1, 2, 4, 8) for e in c.elements)


def test_closure_exceeds_bound(x0):
    assert finite_closure(GeneratingSet([x0], ["x0"]), 10) is None


TREES = {name: load_type_graph(spec) for name, spec in
         (("binary", BINARY_SPEC), ("wide", WIDE_SPEC), ("ray", RAY_SPEC))}


def leaf_permutation(tg, carets, rng):
    """An element that permutes the leaves of one random complete tree among
    leaves of the same type, so it has finite order."""
    leaves, types = typed_leaves(tg, random_complete_shape(tg, carets, rng))
    mapping = {}
    for t in sorted(set(types)):
        us = [u for u, ut in zip(leaves, types) if ut == t]
        mapping.update(zip(us, rng.sample(us, len(us))))
    return element_from_map(tg, mapping)


def random_generating_set(tree, seed):
    """One to three generators, each a leaf permutation (finite order) or a
    random element of up to three carets."""
    rng = random.Random(seed)
    tg = TREES[tree]
    return GeneratingSet([
        leaf_permutation(tg, rng.randint(1, 4), rng) if rng.random() < 0.8
        else random_element(tg, rng.randint(0, 3), rng)
        for _ in range(rng.randint(1, 3))])


def assert_closure_matches_bfs(s, bound):
    c = finite_closure(s, bound)
    ref = closure_by_bfs(s, bound)
    assert (c is None) == (ref is None)
    if c is not None:
        assert (list(c.elements), list(c.words)) == ref
    return c


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(tree=st.sampled_from(sorted(TREES)), seed=st.integers(0, 2 ** 32),
       bound=st.integers(1, 64))
def test_closure_matches_cayley_bfs(tree, seed, bound):
    assert_closure_matches_bfs(random_generating_set(tree, seed), bound)


def test_closure_sweep_sees_both_outcomes():
    # the sweep's generating sets give closed and overflowing subgroups
    closed = [assert_closure_matches_bfs(random_generating_set(tree, seed), 64)
              is not None for tree in sorted(TREES) for seed in range(20)]
    assert any(closed) and not all(closed)


def test_closure_at_the_group_order(sigma, tau):
    s = GeneratingSet([sigma, tau], ["s", "t"])
    assert len(assert_closure_matches_bfs(s, 8)) == 8
    assert assert_closure_matches_bfs(s, 7) is None
    # a larger bound finds the same finite group, all of it elliptic
    closure = finite_closure(s, 512)
    assert len(closure) == 8
    assert all(is_elliptic(e) for e in closure.elements)


# ---------------------------------------------------------------------------
# Common admissible partitions


def test_partition_sigma(sigma):
    c = finite_closure(GeneratingSet([sigma], ["s"]), 10)
    p = common_admissible_partition(c)
    assert p.ball_strs() == ["0", "1"]


def test_partition_identity(binary):
    c = finite_closure(GeneratingSet([identity(binary)], ["e"]), 10)
    p = common_admissible_partition(c)
    assert p.ball_strs() == [""]


def test_partition_sigma_tau(sigma, tau):
    c = finite_closure(GeneratingSet([sigma, tau], ["s", "t"]), 100)
    p = common_admissible_partition(c)
    assert p.ball_strs() == ["00", "01", "10", "11"]


def test_partition_is_admissible_and_invariant(binary, wide):
    rng = random.Random(5)
    for tg in (binary, wide):
        #小 random elliptic subgroups: conjugated swaps have finite closure
        for trial in range(6):
            elems = []
            while len(elems) < 2:
                e = sample_elements(tg, 1, 3, seed_base=rng.randrange(10_000))[0]
                from vtrees import is_elliptic
                if is_elliptic(e) and not e.is_identity():
                    elems.append(e)
            c = finite_closure(GeneratingSet(elems), 256)
            if c is None:
                continue
            p = common_admissible_partition(c)
            balls = [ClopenSet.ball(tg, b) for b in p.balls]
            for h in c.elements:
                dom = {u: w for u, w in h.pair.leaf_map().items()}
                image_balls = set()
                for b, cb in zip(p.balls, balls):
                    # admissible: inside one domain leaf ball (as sets)
                    assert any(cb.subset_of(ClopenSet.ball(tg, u)) for u in dom)
                    image_balls.add(h.apply_clopen(cb))
                # invariant as a partition
                assert image_balls == set(balls)


# ---------------------------------------------------------------------------
# Orbits


def test_orbit_x0_fixes_zero(binary, x0):
    res = orbit(pt(binary, (), (0,)), GeneratingSet([x0], ["x0"]), 10)
    assert [str(p) for p in res.points] == ["(0)^inf"]
    assert res.words[res.points[0]] == ()


def test_orbit_sigma_two_points(binary, sigma):
    # the ball swap moves (0)^inf to 1(0)^inf and back
    res = orbit(pt(binary, (), (0,)), GeneratingSet([sigma], ["s"]), 10)
    assert [str(p) for p in res.points] == ["(0)^inf", "1(0)^inf"]


def test_orbit_exceeds_bound(binary, x0):
    res = orbit(pt(binary, (0, 1), (0,)), GeneratingSet([x0], ["x0"]), 5)
    assert res is None


def test_orbit_invariance_and_words(binary, v_gens):
    res = orbit(pt(binary, (1, 0, 1), (0,)),
                GeneratingSet([v_gens.elements[2], v_gens.elements[3]],
                              ["sigma", "tau"]), 64)
    assert res is not None
    pts = set(res.points)
    for letter, le in GeneratingSet([v_gens.elements[2], v_gens.elements[3]],
                                    ["sigma", "tau"]).letters():
        for p in pts:
            assert le.apply_point(p) in pts
    for p in res.points:
        assert GeneratingSet([v_gens.elements[2], v_gens.elements[3]],
                             ["sigma", "tau"]).evaluate(res.words[p]) \
            .apply_point(res.seed) == p


# ---------------------------------------------------------------------------
# Restriction


def test_restrict_full_is_element(binary, sigma):
    r = restrict(sigma, ClopenSet.full(binary))
    assert r.extension == sigma
    assert r.is_elliptic()


def test_restrict_rejects_noninvariant(binary, x0):
    w = ClopenSet.from_balls(binary, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="not invariant"):
        restrict(compose(x0, x0), w)


def test_restrict_identity(binary):
    w = ClopenSet.from_balls(binary, [(0, 1)])
    r = restrict(identity(binary), w)
    assert r.is_identity()


def test_restrict_thompson_move_inside_ball(binary):
    # x0 transported below ball 1, restricted to ball 1
    g = element_from_map(binary, {(0,): (0,), (1, 0, 0): (1, 0),
                                  (1, 0, 1): (1, 1, 0), (1, 1): (1, 1, 1)})
    w = ClopenSet.ball(binary, (1,))
    r = restrict(g, w)
    assert r.extension == g  # g is already the identity outside
    assert not r.is_elliptic()
    pieces = dict(r.pieces())
    assert pieces == {(1, 0, 0): (1, 0), (1, 0, 1): (1, 1, 0), (1, 1): (1, 1, 1)}
    x = pt(binary, (1, 0, 0), (0,))
    assert r.apply_point(x) == pt(binary, (1, 0), (0,))
    with pytest.raises(ValueError, match="outside the support"):
        r.apply_point(pt(binary, (), (0,)))


def test_restrict_forgets_behaviour_outside(binary, sigma, tau):
    # two different elements with the same action on ball 0 restrict equally
    w = ClopenSet.ball(binary, (0,))
    a = restrict(identity(binary), w)
    b = restrict(tau, w)  # tau only moves things inside ball 1
    assert a.extension == b.extension
    assert a.compose(b).is_identity()


def test_restricted_closure(binary, sigma, tau):
    w = ClopenSet.full(binary)
    rs = [restrict(sigma, w), restrict(tau, w)]
    closed = restricted_closure(rs, 64)
    assert closed is not None and len(closed) == 8
    # restriction to an invariant half: sigma is not usable, tau fixes ball 0
    w0 = ClopenSet.ball(binary, (0,))
    rt = restrict(tau, w0)
    assert rt.is_identity()
    closed0 = restricted_closure([rt], 8)
    assert closed0 is not None and len(closed0) == 1
