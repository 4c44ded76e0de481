"""Command-line front end and machine-readable reports.

Every subcommand reads its inputs from files named by flags, prints one JSON
report (or a plain-text rendering with ``--format text``) to stdout and a
short human summary to stderr.  Exit codes: 0 a result was produced, 2 a
budget was exhausted, 3 malformed input.  Identical invocations produce
byte-identical reports; ``--threads`` is accepted for interface stability and
never changes results (at this scale all searches run sequentially).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import NamedTuple

from .treespace import (
    ClopenSet,
    FormatError,
    TypeGraph,
    address_str,
    eps_exponent,
    eventually_periodic_witness,
    load_type_graph,
    parse_address,
    parse_eps,
    parse_point,
)
from .element import (
    Element,
    builtin_generators,
    compose,
    format_element,
    format_pair,
    parse_element,
    random_element,
)
from .revealing import (
    BudgetExceeded,
    HypCertificate,
    RevealingPair,
    dynamics,
    hyp_power_bound,
    is_elliptic,
    is_revealing,
    order,
    reveal,
)
from .subgroup import (
    Budgets,
    GeneratingSet,
    Orbit,
    common_admissible_partition,
    finite_closure,
    orbit,
    parse_generating_set,
    parse_word,
    word_str,
)
from .alternative import (
    DichotomyResult,
    PingPongWitness,
    dichotomy,
    proximal_contraction,
    stable_intersection,
    stable_set,
    verify_pingpong,
)

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_INPUT = 3


class Session(NamedTuple):
    """Everything one invocation runs with; same session, same outputs."""

    rng_seed: int
    budgets: Budgets
    fmt: str


# ---------------------------------------------------------------------------
# Report serialisation


def clopen_json(c: ClopenSet) -> list:
    return c.ball_strs()


def chain_json(c) -> dict:
    return {"vertices": [address_str(v) for v in c.vertices], "kind": c.kind}


def revealing_json(rp: RevealingPair) -> dict:
    return {
        "pair": format_pair(rp.pair),
        "chains": [chain_json(c) for c in rp.chains],
        "attractors": [{"component": address_str(r), "attractor": address_str(a)}
                       for r, a in rp.attractors],
        "repellers": [{"component": address_str(r), "repeller": address_str(a)}
                      for r, a in rp.repellers],
    }


def _eps_str(eps: Fraction) -> str:
    m = eps_exponent(eps)
    return "1" if m == 0 else f"2^-{m}"


def dynamics_json(rep) -> dict:
    return {
        "pair": format_pair(rep.pair),
        "chains": [chain_json(c) for c in rep.chains],
        "stable_part": clopen_json(rep.stable),
        "hyperbolic_part": clopen_json(rep.hyperbolic),
        "attracting_periodic": [str(p) for p in rep.attracting_periodic],
        "repelling_periodic": [str(p) for p in rep.repelling_periodic],
        "isolated_reassigned": [str(p) for p in rep.isolated],
        "isometric_power": rep.isometric_power,
        "attracting_cycles": [
            {"root": address_str(c.root), "target": address_str(c.target),
             "period": c.period, "ratio": _eps_str(c.ratio)}
            for c in rep.attracting_cycles],
    }


def hyp_certificate_json(n: int, cert: HypCertificate) -> dict:
    def direction(d):
        return {
            "trap": clopen_json(d.trap),
            "target": clopen_json(d.target),
            "start": clopen_json(d.start),
            "steps": d.steps,
        }
    return {"eps": _eps_str(cert.eps), "N": n,
            "forward": direction(cert.forward),
            "backward": direction(cert.backward)}


def orbit_json(o: Orbit) -> dict:
    return {
        "seed": str(o.seed),
        "size": len(o.points),
        "points": [str(p) for p in o.points],
        "words": {str(p): word_str(o.words[p]) for p in o.points},
    }


def witness_json(w: PingPongWitness) -> dict:
    return {
        "g": format_element(w.g),
        "h": format_element(w.h),
        "g_word": word_str(w.g_word) if w.g_word is not None else None,
        "h_word": word_str(w.h_word) if w.h_word is not None else None,
        "U1": clopen_json(w.u1), "V1": clopen_json(w.v1),
        "U2": clopen_json(w.u2), "V2": clopen_json(w.v2),
    }


def witness_from_json(tg: TypeGraph, doc: dict) -> PingPongWitness:
    try:
        g = parse_element(tg, doc["g"])
        h = parse_element(tg, doc["h"])
        sets = {}
        for key in ("U1", "V1", "U2", "V2"):
            balls = doc[key]
            if not (isinstance(balls, list) and all(isinstance(a, str) for a in balls)):
                raise TypeError(f"{key} must be an array of ball addresses")
            sets[key] = ClopenSet.from_balls(tg, [parse_address(a) for a in balls])
        words = [doc.get(key) for key in ("g_word", "h_word")]
        if not all(w is None or isinstance(w, str) for w in words):
            raise TypeError("g_word and h_word must be words")
        gw, hw = (parse_word(w) if w else None for w in words)
    except (KeyError, TypeError) as e:
        raise FormatError(f"malformed witness document: {e}") from None
    return PingPongWitness(g, h, sets["U1"], sets["V1"], sets["U2"], sets["V2"],
                           gw, hw)


def dichotomy_json(res: DichotomyResult) -> dict:
    out: dict = {"verdict": res.verdict}
    if res.orbit is not None:
        out["orbit"] = orbit_json(res.orbit)
    if res.witness is not None:
        out["witness"] = witness_json(res.witness)
    if res.diagnostics is not None:
        out["diagnostics"] = res.diagnostics
    return out


def _render_text(doc, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(doc, dict):
        lines = []
        for k in doc:
            v = doc[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_render_text_scalar(v)}")
        return "\n".join(lines)
    if isinstance(doc, list):
        return "\n".join(
            _render_text(v, indent) if isinstance(v, (dict, list))
            else f"{pad}- {_render_text_scalar(v)}" for v in doc)
    return f"{pad}{_render_text_scalar(doc)}"


def _render_text_scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def emit(session: Session, doc: dict, summary: str) -> None:
    if session.fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_render_text(doc) + "\n")
    sys.stderr.write(summary + "\n")


# ---------------------------------------------------------------------------
# Input loading


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None


def _need_tree(args) -> TypeGraph:
    if not args.tree:
        raise FormatError("this command needs --tree FILE")
    return load_type_graph(_read(args.tree))


def _load_elements(tg: TypeGraph, args, count: int) -> list:
    files = args.element or []
    if len(files) != count:
        raise FormatError(f"this command needs exactly {count} --element file(s), "
                          f"got {len(files)}")
    return [parse_element(tg, _read(f)) for f in files]


def _need_gens(tg: TypeGraph, args) -> GeneratingSet:
    if not args.gens:
        raise FormatError("this command needs --gens FILE")
    return parse_generating_set(tg, _read(args.gens))


def _budgets(args) -> Budgets:
    return Budgets._make(getattr(args, name) for name in Budgets._fields)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_compose(session, args):
    tg = _need_tree(args)
    g, h = _load_elements(tg, args, 2)
    e = compose(g, h)
    emit(session, {"command": "compose", "element": format_element(e)},
         f"composed: {format_element(e)}")
    return EXIT_OK


def _cmd_inverse(session, args):
    tg = _need_tree(args)
    (g,) = _load_elements(tg, args, 1)
    e = g.inverse()
    emit(session, {"command": "inverse", "element": format_element(e)},
         f"inverse: {format_element(e)}")
    return EXIT_OK


def _cmd_apply(session, args):
    tg = _need_tree(args)
    (g,) = _load_elements(tg, args, 1)
    x = parse_point(tg, args.point)
    y = g.apply_point(x)
    emit(session, {"command": "apply", "point": str(y)}, f"{x} -> {y}")
    return EXIT_OK


def _cmd_reveal(session, args):
    tg = _need_tree(args)
    (g,) = _load_elements(tg, args, 1)
    rp = reveal(g)
    doc = {"command": "reveal", **revealing_json(rp)}
    emit(session, doc, f"revealing pair with {len(rp.chains)} chains")
    return EXIT_OK


def _cmd_dynamics(session, args):
    tg = _need_tree(args)
    (g,) = _load_elements(tg, args, 1)
    rep = dynamics(g)
    doc = {"command": "dynamics", **dynamics_json(rep)}
    if args.eps:
        eps = parse_eps(args.eps)
        n, cert = hyp_power_bound(g, rep, eps)
        doc["power_bound"] = hyp_certificate_json(n, cert)
    emit(session, doc,
         f"stable part {rep.stable.ball_strs()}, "
         f"{len(rep.attracting_periodic)} attracting / "
         f"{len(rep.repelling_periodic)} repelling periodic points")
    return EXIT_OK


def _cmd_elliptic(session, args):
    tg = _need_tree(args)
    (g,) = _load_elements(tg, args, 1)
    e = is_elliptic(g)
    emit(session, {"command": "elliptic", "elliptic": e},
         "elliptic" if e else "not elliptic")
    return EXIT_OK


def _cmd_order(session, args):
    tg = _need_tree(args)
    (g,) = _load_elements(tg, args, 1)
    n = order(g)
    emit(session, {"command": "order", "order": n if n is not None else "infinite"},
         f"order: {n if n is not None else 'infinite'}")
    return EXIT_OK


def _cmd_orbit(session, args):
    tg = _need_tree(args)
    s = _need_gens(tg, args)
    x = parse_point(tg, args.point)
    res = orbit(x, s, session.budgets.orbit_size)
    if res is None:
        emit(session, {"command": "orbit", "exceeded": True,
                       "bound": session.budgets.orbit_size},
             f"orbit exceeds {session.budgets.orbit_size} points")
        return EXIT_BUDGET
    emit(session, {"command": "orbit", **orbit_json(res)},
         f"orbit of {x}: {len(res.points)} points")
    return EXIT_OK


def _cmd_closure(session, args):
    tg = _need_tree(args)
    s = _need_gens(tg, args)
    c = finite_closure(s, session.budgets.closure_size)
    if c is None:
        emit(session, {"command": "closure", "exceeded": True,
                       "bound": session.budgets.closure_size},
             f"closure exceeds {session.budgets.closure_size} elements")
        return EXIT_BUDGET
    emit(session, {"command": "closure", "size": len(c),
                   "elements": [{"word": word_str(w), "element": format_element(e)}
                                for w, e in zip(c.words, c.elements)]},
         f"finite closure with {len(c)} elements")
    return EXIT_OK


def _cmd_partition(session, args):
    tg = _need_tree(args)
    s = _need_gens(tg, args)
    c = finite_closure(s, session.budgets.closure_size)
    if c is None:
        emit(session, {"command": "partition", "exceeded": True,
                       "bound": session.budgets.closure_size},
             "closure budget exhausted before a partition could be computed")
        return EXIT_BUDGET
    p = common_admissible_partition(c)
    emit(session, {"command": "partition", "balls": p.ball_strs()},
         f"common admissible partition with {len(p.balls)} balls")
    return EXIT_OK


def _cmd_stable(session, args):
    tg = _need_tree(args)
    if args.element:
        (g,) = _load_elements(tg, args, 1)
        c = stable_set(g)
        emit(session, {"command": "stable", "stable_part": clopen_json(c)},
             f"stable part: {c.ball_strs()}")
        return EXIT_OK
    s = _need_gens(tg, args)
    c = stable_intersection(s.elements, tg)
    emit(session, {"command": "stable", "stable_intersection": clopen_json(c)},
         f"stable intersection: {c.ball_strs()}")
    return EXIT_OK


def _cmd_contract(session, args):
    tg = _need_tree(args)
    s = _need_gens(tg, args)
    eps = parse_eps(args.eps) if args.eps else Fraction(1, 4)
    words = [((n, 1),) for n in s.names]
    pc = proximal_contraction(list(s.elements), eps, words=words)
    doc = {
        "command": "contract",
        "eps": _eps_str(eps),
        "element": format_element(pc.element),
        "word": word_str(pc.word),
        "points": [str(p) for p in pc.points],
        "start": clopen_json(pc.start),
        "target": clopen_json(pc.target),
        "stages": [{
            "word": word_str(st.word) if st.word is not None else None,
            "isometric_power": st.isometric_power,
            "multiplier": st.multiplier,
            "before": clopen_json(st.before),
            "after": clopen_json(st.after),
            "allowed": clopen_json(st.allowed),
        } for st in pc.stages],
    }
    emit(session, doc, f"contraction element {word_str(pc.word)} at eps={_eps_str(eps)}")
    return EXIT_OK


def _cmd_pingpong_verify(session, args):
    tg = _need_tree(args)
    if not args.witness:
        raise FormatError("this command needs --witness FILE")
    try:
        doc = json.loads(_read(args.witness))
    except json.JSONDecodeError as e:
        raise FormatError(f"witness file is not valid JSON: {e}") from None
    if isinstance(doc, dict) and "witness" in doc:
        doc = doc["witness"]
    w = witness_from_json(tg, doc)
    # with --gens, the witness's words must evaluate exactly to g and h;
    # both are evaluated, so an unknown letter in either is an input error
    wrong = []
    if args.gens:
        s = parse_generating_set(tg, _read(args.gens))
        wrong = [f"{name} {word_str(word)} does not evaluate to {name[0]}"
                 for name, word, e in (("g_word", w.g_word, w.g),
                                       ("h_word", w.h_word, w.h))
                 if word is not None and s.evaluate(word) != e]
    ok, reason = (False, wrong[0]) if wrong else verify_pingpong(w)
    out = {"command": "pingpong-verify", "ok": ok}
    if reason:
        out["reason"] = reason
    emit(session, out, "witness verified" if ok else f"witness rejected: {reason}")
    return EXIT_OK


def _cmd_dichotomy(session, args):
    tg = _need_tree(args)
    s = _need_gens(tg, args)
    res = dichotomy(s, session.budgets)
    doc = {"command": "dichotomy", **dichotomy_json(res)}
    emit(session, doc, f"verdict: {res.verdict}")
    return EXIT_OK if res.verdict != "undecided" else EXIT_BUDGET


def _cmd_random_element(session, args):
    tg = _need_tree(args)
    e = random_element(tg, args.size, random.Random(session.rng_seed))
    emit(session, {"command": "random-element", "seed": session.rng_seed,
                   "size": args.size, "element": format_element(e)},
         f"sampled: {format_element(e)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Self-check corpus


def _builtin_corpus():
    binary = TypeGraph({"b": ["b", "b"]}, "b")
    wide = TypeGraph({"r": ["b", "b", "b"], "b": ["b", "b"]}, "r")
    return binary, wide


def _cmd_check(session, args):
    import itertools
    results = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as e:  # a crash is a failed check, not a crash of the tool
            results.append({"name": name, "ok": False, "error": repr(e)})
            return
        results.append({"name": name, "ok": ok})

    binary, wide = _builtin_corpus()
    for tg, label in ((binary, "binary"), (wide, "wide")):
        elems = [random_element(tg, 4, random.Random(1000 + i)) for i in range(12)]
        pts = [eventually_periodic_witness(tg, b)
               for e in elems for b in e.pair.domain_leaves[:2]]

        def law_homomorphism(elems=elems, pts=pts):
            for g, h in itertools.islice(itertools.combinations(elems, 2), 20):
                gh = compose(g, h)
                for x in pts[:6]:
                    if gh.apply_point(x) != g.apply_point(h.apply_point(x)):
                        return False
            return True

        def law_inverse(elems=elems):
            return all(compose(e, e.inverse()).is_identity()
                       and compose(e.inverse(), e).is_identity() for e in elems)

        def law_reduce(elems=elems, tg=tg):
            from .element import expand_pair, reduce as reduce_pair
            rng = random.Random(7)
            for e in elems:
                p = e.pair
                for _ in range(3):
                    p = expand_pair(p, p.domain_leaves[rng.randrange(len(p.domain_leaves))])
                if Element(reduce_pair(p)) != e:
                    return False
            return True

        def law_reveal(elems=elems):
            for e in elems[:6]:
                a = reveal(e, strategy="rolling")
                b = reveal(e, strategy="bfs")
                if not (is_revealing(a.pair) and is_revealing(b.pair)):
                    return False
                from .element import make_element
                if make_element(a.pair) != e or make_element(b.pair) != e:
                    return False
            return True

        def law_roundtrip(elems=elems, tg=tg):
            return all(parse_element(tg, format_element(e)) == e for e in elems)

        check(f"{label}:homomorphism", law_homomorphism)
        check(f"{label}:inverse", law_inverse)
        check(f"{label}:reduction", law_reduce)
        check(f"{label}:revealing", law_reveal)
        check(f"{label}:roundtrip", law_roundtrip)

    def pinned_x0():
        gens = builtin_generators(binary)
        rep = dynamics(gens["x0"])
        return (rep.stable.is_empty()
                and [str(p) for p in rep.attracting_periodic] == ["(1)^inf"]
                and [str(p) for p in rep.repelling_periodic] == ["(0)^inf"]
                and not rep.isolated)

    check("binary:x0-dynamics", pinned_x0)

    ok = all(r["ok"] for r in results)
    emit(session, {"command": "check", "ok": ok, "checks": results},
         f"{sum(r['ok'] for r in results)}/{len(results)} checks passed")
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


_COMMANDS = {
    "compose": _cmd_compose,
    "inverse": _cmd_inverse,
    "apply": _cmd_apply,
    "reveal": _cmd_reveal,
    "dynamics": _cmd_dynamics,
    "elliptic": _cmd_elliptic,
    "order": _cmd_order,
    "orbit": _cmd_orbit,
    "closure": _cmd_closure,
    "partition": _cmd_partition,
    "stable": _cmd_stable,
    "contract": _cmd_contract,
    "pingpong-verify": _cmd_pingpong_verify,
    "dichotomy": _cmd_dichotomy,
    "random-element": _cmd_random_element,
    "check": _cmd_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtrees",
        description="Exact dynamics of locally order-preserving tree "
                    "almost-automorphism groups on tree boundaries.")
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help=", ".join(_COMMANDS))
    parser.add_argument("point", nargs="?",
                        help="boundary point, e.g. 01(0)^inf (apply and orbit)")
    parser.add_argument("--tree", help="type graph JSON file")
    parser.add_argument("--gens", help="generating set file (name = pair{...})")
    parser.add_argument("--element", action="append",
                        help="element file (repeat for commands taking two)")
    parser.add_argument("--witness", help="ping-pong witness JSON file")
    parser.add_argument("--eps", help="radius, e.g. 2^-3 or 1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", type=int, default=4,
                        help="caret bound for random-element")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--format", dest="fmt", choices=("json", "text"),
                        default="json")
    flags = ("words", "orbit", "depth", "steps", "closure")
    for flag, (name, default) in zip(flags, Budgets._field_defaults.items()):
        parser.add_argument(f"--budget-{flag}", dest=name, type=int,
                            default=default)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  Its usage line is fixed here once: it is
    the string ``parse_intermixed_args`` would otherwise format and set on
    every call, so every message stays the same."""
    parser = _build_parser()
    parser.usage = parser.format_usage()[7:]
    return parser


def main(argv=None) -> int:
    """Run one ``vtrees`` invocation and return its exit code.

    Every call in a process parses with the same parser, built once.  Its
    usage line is fixed when it is built, so every report, help text and
    usage error is the same as from a parser built for the call.  ``main``
    is a process entry point: concurrent calls from several threads are not
    supported (``--threads`` runs nothing in parallel)."""
    parser = _parser()
    try:
        args = parser.parse_intermixed_args(argv)
        if (args.point is None) == (args.command in ("apply", "orbit")):
            parser.error(f"{args.command} takes a point argument"
                         if args.point is None else
                         f"{args.command} takes no point argument")
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    if args.threads < 1:
        sys.stderr.write("error: --threads must be >= 1\n")
        return EXIT_INPUT
    try:
        session = Session(rng_seed=args.seed, budgets=_budgets(args),
                          fmt=args.fmt)
        return _COMMANDS[args.command](session, args)
    except ValueError as e:  # FormatError included
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_INPUT
    except BudgetExceeded as e:
        sys.stderr.write(f"budget exhausted: {e}\n")
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
