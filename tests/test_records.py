"""The record contract of every exported record class.

Records are ``typing.NamedTuple`` classes, or slotted classes where a tuple
would misbehave (``ClopenSet``, ``Orbit``, ``GroupClosure``,
``RestrictedElement``, ``BoundaryPoint``).  Either way a record is built by
keyword, names its fields in ``_fields``, hashes equal records equally,
refuses assignment with AttributeError, and prints as it printed when the
records were dataclasses: ``REPRS`` holds those reprs, with ``{TG}``
standing for the binary tree's ``repr``.
"""

from fractions import Fraction

import pytest

import vtrees as V

FIELDS = {
    "BoundaryPoint": ("tg", "prefix", "cycle"),
    "ClopenSet": ("tg", "node"),
    "Chain": ("vertices", "kind"),
    "RevealingPair": ("pair", "chains", "attractors", "repellers"),
    "CycleData": ("root", "target", "period", "ratio"),
    "DynamicsReport": ("element", "pair", "chains", "stable", "hyperbolic",
                       "attracting_periodic", "repelling_periodic",
                       "isolated", "isometric_power", "attracting_cycles"),
    "HypDirection": ("trap", "target", "start", "steps"),
    "HypCertificate": ("eps", "n", "forward", "backward"),
    "AdmissiblePartition": ("tg", "balls"),
    "Budgets": ("word_length", "orbit_size", "expansion_depth",
                "dovetail_steps", "closure_size"),
    "GroupClosure": ("generating_set", "elements", "words"),
    "Orbit": ("seed", "points", "words"),
    "RestrictedElement": ("support", "extension"),
    "DichotomyResult": ("verdict", "orbit", "witness", "diagnostics"),
    "PingPongWitness": ("g", "h", "u1", "v1", "u2", "v2", "g_word", "h_word"),
    "ProximalContraction": ("element", "word", "points", "eps", "stages",
                            "start", "target"),
    "ProximalStage": ("word", "isometric_power", "multiplier", "before",
                      "after", "allowed"),
}

P = "pair{domain=[00,01,1], range=[0,10,11], perm=[0,1,2]}"  # x0
SWAP = "pair{domain=[0,1], range=[0,1], perm=[1,0]}"  # sigma
CHAINS = ("(Chain(00->0: repelling), Chain(01->10: wandering), "
          "Chain(1->11: attracting))")
ORBIT = ("Orbit(seed=BoundaryPoint(tg={TG}, prefix=(), cycle=(0,)), "
         "points=(BoundaryPoint(tg={TG}, prefix=(), cycle=(0,)), "
         "BoundaryPoint(tg={TG}, prefix=(1,), cycle=(0,))), "
         "words={BoundaryPoint(tg={TG}, prefix=(), cycle=(0,)): (), "
         "BoundaryPoint(tg={TG}, prefix=(1,), cycle=(0,)): (('s', 1),)})")
FORWARD = ("HypDirection(trap=ClopenSet({TG}, balls=['111']), "
           "target=ClopenSet({TG}, balls=['111']), "
           "start=ClopenSet({TG}, balls=['001', '01', '1']), steps=4)")
STAGE = ("ProximalStage(word=None, isometric_power=1, multiplier=1, "
         "before=ClopenSet({TG}, balls=[]), after=ClopenSet({TG}, balls=[]), "
         "allowed=ClopenSet({TG}, balls=['']))")

REPRS = {
    "BoundaryPoint": "BoundaryPoint(tg={TG}, prefix=(0, 1), cycle=(0,))",
    "ClopenSet": "ClopenSet({TG}, balls=['01', '1'])",
    "Chain": "Chain(00->0: repelling)",
    "RevealingPair": f"RevealingPair(pair={P}, chains={CHAINS}, "
                     "attractors=(((1,), (1, 1)),), "
                     "repellers=(((0,), (0, 0)),))",
    "CycleData": "CycleData(root=(1,), target=(1, 1), period=1, "
                 "ratio=Fraction(1, 2))",
    "DynamicsReport": f"DynamicsReport(element={P}, pair={P}, chains={CHAINS}, "
                      "stable=ClopenSet({TG}, balls=[]), "
                      "hyperbolic=ClopenSet({TG}, balls=['']), "
                      "attracting_periodic=(BoundaryPoint(tg={TG}, prefix=(), "
                      "cycle=(1,)),), "
                      "repelling_periodic=(BoundaryPoint(tg={TG}, prefix=(), "
                      "cycle=(0,)),), isolated=(), isometric_power=1, "
                      "attracting_cycles=(CycleData(root=(1,), target=(1, 1), "
                      "period=1, ratio=Fraction(1, 2)),))",
    "HypDirection": FORWARD,
    "HypCertificate": f"HypCertificate(eps=Fraction(1, 8), n=4, forward={FORWARD}, "
                      "backward=HypDirection("
                      "trap=ClopenSet({TG}, balls=['000']), "
                      "target=ClopenSet({TG}, balls=['000']), "
                      "start=ClopenSet({TG}, balls=['0', '10', '110']), "
                      "steps=4))",
    "AdmissiblePartition": "AdmissiblePartition(tg={TG}, balls=((0,), (1,)))",
    "Budgets": "Budgets(word_length=3, orbit_size=7, expansion_depth=12, "
               "dovetail_steps=10000, closure_size=512)",
    "GroupClosure": "GroupClosure(generating_set=GeneratingSet(['s']), "
                    "elements=(pair{domain=[], range=[], perm=[0]}, "
                    f"{SWAP}), words=((), (('s', 1),)))",
    "Orbit": ORBIT,
    "RestrictedElement": "RestrictedElement(support=ClopenSet({TG}, "
                         f"balls=['']), extension={SWAP})",
    "DichotomyResult": f"DichotomyResult(verdict='finite-orbit', orbit={ORBIT}, "
                       "witness=None, diagnostics=None)",
    "PingPongWitness": f"PingPongWitness(g={P}, h={SWAP}, "
                       "u1=ClopenSet({TG}, balls=['0']), "
                       "v1=ClopenSet({TG}, balls=['1']), "
                       "u2=ClopenSet({TG}, balls=['1']), "
                       "v2=ClopenSet({TG}, balls=['0']), "
                       "g_word=(('x0', 1),), h_word=None)",
    "ProximalContraction": f"ProximalContraction(element={P}, word=None, "
                           "points=(BoundaryPoint(tg={TG}, prefix=(), "
                           "cycle=(0,)), BoundaryPoint(tg={TG}, prefix=(), "
                           "cycle=(1,))), eps=Fraction(1, 2), "
                           f"stages=({STAGE},), "
                           "start=ClopenSet({TG}, balls=[]), "
                           "target=ClopenSet({TG}, balls=['']))",
    "ProximalStage": STAGE,
}


def samples() -> dict:
    """One record of each class, from the binary tree's x0 and sigma."""
    tg = V.TypeGraph({"b": ["b", "b"]}, "b")
    gens = V.builtin_generators(tg)
    x0, sigma = gens["x0"], gens["sigma"]
    rep = V.dynamics(x0)
    _n, cert = V.hyp_power_bound(x0, rep, Fraction(1, 8))
    swap = V.GeneratingSet([sigma], ["s"])
    closure = V.finite_closure(swap, 4)
    contraction = V.proximal_contraction([x0], Fraction(1, 2))
    left, right = V.ClopenSet.ball(tg, (0,)), V.ClopenSet.ball(tg, (1,))
    return {
        "BoundaryPoint": V.boundary_point(tg, (0, 1, 0), (0, 0)),
        "ClopenSet": V.ClopenSet.from_balls(tg, [(0, 1), (1,)]),
        "Chain": rep.chains[0],
        "RevealingPair": V.reveal(x0),
        "CycleData": rep.attracting_cycles[0],
        "DynamicsReport": rep,
        "HypDirection": cert.forward,
        "HypCertificate": cert,
        "AdmissiblePartition": V.common_admissible_partition(closure),
        "Budgets": V.Budgets(word_length=3, orbit_size=7),
        "GroupClosure": closure,
        "Orbit": V.orbit(V.boundary_point(tg, (), (0,)), swap, 8),
        "RestrictedElement": V.restrict(sigma, V.ClopenSet.full(tg)),
        "DichotomyResult": V.dichotomy(swap),
        "PingPongWitness": V.PingPongWitness(
            g=x0, h=sigma, u1=left, v1=right, u2=right, v2=left,
            g_word=(("x0", 1),)),
        "ProximalContraction": contraction,
        "ProximalStage": contraction.stages[0],
    }


SAMPLES = samples()
TG = repr(SAMPLES["BoundaryPoint"].tg)


def hash_or_unhashable(x):
    try:
        return hash(x)
    except TypeError:  # a record holding a dict, as an Orbit does
        return "unhashable"


def test_every_exported_record_class_is_covered():
    exported = {name for name, value in vars(V).items()
                if isinstance(value, type) and hasattr(value, "_fields")}
    assert set(SAMPLES) == set(FIELDS) == set(REPRS)
    # and the two records that only exported records hold
    assert set(FIELDS) - exported == {"HypDirection", "ProximalStage"}
    assert exported <= set(FIELDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_contract(name):
    sample = SAMPLES[name]
    cls = type(sample)
    assert cls.__name__ == name
    assert cls._fields == FIELDS[name]
    values = {f: getattr(sample, f) for f in FIELDS[name]}
    rebuilt = cls(**values)
    assert type(rebuilt) is cls and rebuilt == sample and rebuilt is not sample
    assert hash_or_unhashable(rebuilt) == hash_or_unhashable(sample)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(sample, field, values[field])
    with pytest.raises(AttributeError):
        sample.unknown_field = 1
    assert repr(sample) == REPRS[name].replace("{TG}", TG)


def test_records_have_no_instance_dict():
    assert not any(hasattr(x, "__dict__") for x in SAMPLES.values())


def test_budgets_are_checked_on_every_build():
    b = V.Budgets()
    assert b == V.Budgets(8, 512, 12, 10_000, 512)
    assert V.Budgets._field_defaults == b._asdict()
    for bad in ({"orbit_size": 0}, {"closure_size": 0}, {"word_length": -1}):
        with pytest.raises(ValueError, match="must be >="):
            V.Budgets(**bad)
        with pytest.raises(ValueError, match="must be >="):
            b._replace(**bad)
        with pytest.raises(ValueError, match="must be >="):
            V.Budgets._make({**b._asdict(), **bad}.values())
