import json
import subprocess
import sys
from fractions import Fraction

import pytest

import vtrees.cli as cli
from vtrees.cli import (
    _budgets,
    _build_parser,
    _parser,
    main,
    witness_from_json,
    witness_json,
)
from vtrees import (
    GeneratingSet,
    build_pingpong,
    Budgets,
    dynamics,
    hyp_power_bound,
    load_type_graph,
    parse_element,
    recheck_hyp_certificate,
    verify_pingpong,
)

from conftest import BINARY_SPEC, WIDE_SPEC, child_env

X0 = "pair{domain=[00,01,1], range=[0,10,11], perm=[0,1,2]}"
X1 = "pair{domain=[0,100,101,11], range=[0,10,110,111], perm=[0,1,2,3]}"
SIGMA = "pair{domain=[0,1], range=[0,1], perm=[1,0]}"
TAU = "pair{domain=[0,10,11], range=[0,10,11], perm=[0,2,1]}"

V_GENS = "\n".join(f"{n} = {p}" for n, p in
                   [("x0", X0), ("x1", X1), ("sigma", SIGMA), ("tau", TAU)])


@pytest.fixture()
def files(tmp_path):
    tree = tmp_path / "binary.json"
    tree.write_text(BINARY_SPEC)
    x0 = tmp_path / "x0.txt"
    x0.write_text(X0 + "\n")
    sigma = tmp_path / "sigma.txt"
    sigma.write_text(SIGMA + "\n")
    gens = tmp_path / "vgens.txt"
    gens.write_text(V_GENS + "\n")
    sgens = tmp_path / "sgens.txt"
    sgens.write_text(f"sigma = {SIGMA}\n")
    return tmp_path


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys, expect=0):
    code, out, _ = run_cli(args, capsys)
    assert code == expect, out
    return json.loads(out)


def test_compose_and_inverse(files, capsys):
    doc = run_json(["compose", "--tree", str(files / "binary.json"),
                    "--element", str(files / "x0.txt"),
                    "--element", str(files / "sigma.txt")], capsys)
    assert doc["element"] == "pair{domain=[0,10,11], range=[0,10,11], perm=[2,0,1]}"
    doc = run_json(["inverse", "--tree", str(files / "binary.json"),
                    "--element", str(files / "x0.txt")], capsys)
    assert doc["element"] == "pair{domain=[0,10,11], range=[00,01,1], perm=[0,1,2]}"


def test_apply(files, capsys):
    doc = run_json(["apply", "--tree", str(files / "binary.json"),
                    "--element", str(files / "x0.txt"), "010(0)^inf"], capsys)
    assert doc["point"] == "1(0)^inf"


def test_dynamics_report(files, capsys):
    doc = run_json(["dynamics", "--tree", str(files / "binary.json"),
                    "--element", str(files / "x0.txt"), "--eps", "2^-2"], capsys)
    assert doc["attracting_periodic"] == ["(1)^inf"]
    assert doc["repelling_periodic"] == ["(0)^inf"]
    assert doc["stable_part"] == []
    assert doc["isometric_power"] == 1
    assert doc["power_bound"]["N"] == 2
    assert doc["power_bound"]["forward"]["trap"] == ["11"]
    kinds = sorted(c["kind"] for c in doc["chains"])
    assert kinds == ["attracting", "repelling", "wandering"]


@pytest.mark.parametrize("name, text, n", [("x0", X0, 138), ("x1", X1, 136)],
                         ids=["x0", "x1"])
def test_dynamics_small_radius(files, capsys, name, text, n):
    # the trap around the attracting points refines once per halving of eps
    path = files / f"{name}.txt"
    path.write_text(text + "\n")
    doc = run_json(["dynamics", "--tree", str(files / "binary.json"),
                    "--element", str(path), "--eps", "2^-70"], capsys)
    assert doc["power_bound"]["N"] == n
    for side in ("forward", "backward"):
        assert set(doc["power_bound"][side]) == {"trap", "target", "start",
                                                 "steps"}
    g = parse_element(load_type_graph(BINARY_SPEC), text)
    got, cert = hyp_power_bound(g, dynamics(g), Fraction(1, 2 ** 70))
    assert got == n
    assert recheck_hyp_certificate(g, cert)


def test_reveal_and_elliptic_and_order(files, capsys):
    doc = run_json(["reveal", "--tree", str(files / "binary.json"),
                    "--element", str(files / "x0.txt")], capsys)
    assert doc["pair"] == X0
    doc = run_json(["elliptic", "--tree", str(files / "binary.json"),
                    "--element", str(files / "sigma.txt")], capsys)
    assert doc["elliptic"] is True
    doc = run_json(["order", "--tree", str(files / "binary.json"),
                    "--element", str(files / "sigma.txt")], capsys)
    assert doc["order"] == 2
    doc = run_json(["order", "--tree", str(files / "binary.json"),
                    "--element", str(files / "x0.txt")], capsys)
    assert doc["order"] == "infinite"


def test_orbit_and_budget_exit(files, capsys):
    doc = run_json(["orbit", "--tree", str(files / "binary.json"),
                    "--gens", str(files / "sgens.txt"), "(0)^inf"], capsys)
    assert doc["points"] == ["(0)^inf", "1(0)^inf"]
    doc = run_json(["orbit", "--tree", str(files / "binary.json"),
                    "--gens", str(files / "vgens.txt"), "(0)^inf"],
                   capsys, expect=2)
    assert doc["exceeded"] is True


def test_closure_and_partition(files, capsys):
    doc = run_json(["closure", "--tree", str(files / "binary.json"),
                    "--gens", str(files / "sgens.txt")], capsys)
    assert doc["size"] == 2
    doc = run_json(["partition", "--tree", str(files / "binary.json"),
                    "--gens", str(files / "sgens.txt")], capsys)
    assert doc["balls"] == ["0", "1"]
    doc = run_json(["closure", "--tree", str(files / "binary.json"),
                    "--gens", str(files / "vgens.txt")], capsys, expect=2)
    assert doc["exceeded"] is True


def test_stable(files, capsys):
    doc = run_json(["stable", "--tree", str(files / "binary.json"),
                    "--element", str(files / "x0.txt")], capsys)
    assert doc["stable_part"] == []
    doc = run_json(["stable", "--tree", str(files / "binary.json"),
                    "--gens", str(files / "sgens.txt")], capsys)
    assert doc["stable_intersection"] == [""]


def test_contract(files, capsys, tmp_path):
    xgens = tmp_path / "xgens.txt"
    xgens.write_text(f"x0 = {X0}\n")
    doc = run_json(["contract", "--tree", str(files / "binary.json"),
                    "--gens", str(xgens), "--eps", "2^-2"], capsys)
    assert doc["word"] == "x0^2"
    assert doc["points"] == ["(0)^inf", "(1)^inf"]
    assert doc["target"] == ["00", "11"]


def test_dichotomy_and_witness_roundtrip(files, capsys, tmp_path):
    doc = run_json(["dichotomy", "--tree", str(files / "binary.json"),
                    "--gens", str(files / "vgens.txt")], capsys)
    assert doc["verdict"] == "ping-pong"
    wfile = tmp_path / "witness.json"
    wfile.write_text(json.dumps(doc["witness"]))
    doc2 = run_json(["pingpong-verify", "--tree", str(files / "binary.json"),
                     "--witness", str(wfile)], capsys)
    assert doc2["ok"] is True
    # a corrupted witness is rejected with a reason
    bad = dict(doc["witness"])
    bad["V1"] = bad["U1"]
    wfile.write_text(json.dumps(bad))
    doc3 = run_json(["pingpong-verify", "--tree", str(files / "binary.json"),
                     "--witness", str(wfile)], capsys)
    assert doc3["ok"] is False and "disjointness" in doc3["reason"]


def test_pingpong_verify_checks_words_against_gens(files, capsys, tmp_path):
    doc = run_json(["dichotomy", "--tree", str(files / "binary.json"),
                    "--gens", str(files / "vgens.txt")], capsys)
    wfile = tmp_path / "witness.json"
    args = ["pingpong-verify", "--tree", str(files / "binary.json"),
            "--witness", str(wfile), "--gens", str(files / "vgens.txt")]
    wfile.write_text(json.dumps(doc["witness"]))
    assert run_json(args, capsys) == {"command": "pingpong-verify", "ok": True}
    # the V witness with its words swapped for x0 and sigma: the sets and
    # inclusions still verify, the words do not give g and h
    swapped = {**doc["witness"], "g_word": "x0", "h_word": "sigma"}
    wfile.write_text(json.dumps(swapped))
    assert run_json(args, capsys) == {
        "command": "pingpong-verify", "ok": False,
        "reason": "g_word x0 does not evaluate to g"}
    wfile.write_text(json.dumps({**doc["witness"], "h_word": "sigma"}))
    assert run_json(args, capsys)["reason"] == \
        "h_word sigma does not evaluate to h"
    # without --gens the words are not evaluated
    wfile.write_text(json.dumps(swapped))
    assert run_json(args[:-2], capsys)["ok"] is True
    # a letter that is not a generator is bad input
    wfile.write_text(json.dumps({**doc["witness"], "h_word": "x0*y"}))
    code, out, err = run_cli(args, capsys)
    assert code == 3 and out == "" and "'y'" in err


def test_dichotomy_finite_orbit_and_undecided(files, capsys):
    doc = run_json(["dichotomy", "--tree", str(files / "binary.json"),
                    "--gens", str(files / "sgens.txt")], capsys)
    assert doc["verdict"] == "finite-orbit"
    assert doc["orbit"]["points"] == ["(0)^inf", "1(0)^inf"]
    doc = run_json(["dichotomy", "--tree", str(files / "binary.json"),
                    "--gens", str(files / "vgens.txt"),
                    "--budget-words", "0"], capsys, expect=2)
    assert doc["verdict"] == "undecided"
    assert doc["diagnostics"]["caps"]["_ROUND_CAP"] == 16


def test_search_caps_exit_2(files, capsys, monkeypatch):
    import vtrees.alternative as alternative
    monkeypatch.setattr(alternative, "_ROUND_CAP", 0)
    doc = run_json(["dichotomy", "--tree", str(files / "binary.json"),
                    "--gens", str(files / "vgens.txt")], capsys, expect=2)
    assert doc["verdict"] == "undecided"
    assert "_ROUND_CAP" in doc["diagnostics"]["reason"]
    xgens = files / "xgens.txt"
    xgens.write_text(f"x0 = {X0}\n")
    code, out, err = run_cli(["contract", "--tree", str(files / "binary.json"),
                              "--gens", str(xgens)], capsys)
    assert code == 2 and out == "" and "_ROUND_CAP" in err


def test_iterate_cap_exits_2(files, capsys, monkeypatch):
    import vtrees.revealing as revealing
    monkeypatch.setattr(revealing, "_ITERATE_CAP", 1)
    code, out, err = run_cli(["dynamics", "--tree", str(files / "binary.json"),
                              "--element", str(files / "x0.txt"),
                              "--eps", "2^-3"], capsys)
    assert code == 2 and out == "" and "_ITERATE_CAP" in err


def test_apply_and_orbit_need_a_point(files, capsys):
    for args in (["apply", "--element", str(files / "x0.txt")],
                 ["orbit", "--gens", str(files / "sgens.txt")]):
        code, out, err = run_cli([*args, "--tree", str(files / "binary.json")],
                                 capsys)
        assert code == 3 and out == "" and "point" in err


def test_other_commands_take_no_point(files, capsys):
    for args in (["order", "--element", str(files / "x0.txt")],
                 ["closure", "--gens", str(files / "sgens.txt")]):
        code, out, err = run_cli([*args, "--tree", str(files / "binary.json"),
                                  "(0)^inf"], capsys)
        assert code == 3 and out == "" and "point" in err


def test_random_element_determinism(files, capsys):
    a = run_json(["random-element", "--tree", str(files / "binary.json"),
                  "--seed", "9", "--size", "4"], capsys)
    b = run_json(["random-element", "--tree", str(files / "binary.json"),
                  "--seed", "9", "--size", "4"], capsys)
    assert a == b
    c = run_json(["random-element", "--tree", str(files / "binary.json"),
                  "--seed", "10", "--size", "4"], capsys)
    assert c["element"]  # parses
    doc = run_json(["random-element", "--tree", str(files / "binary.json"),
                    "--seed", "0", "--size", "0"], capsys)
    assert doc["element"] == "pair{domain=[], range=[], perm=[0]}"


def test_check_passes(files, capsys):
    doc = run_json(["check", "--tree", str(files / "binary.json")], capsys)
    assert doc["ok"] is True
    assert all(c["ok"] for c in doc["checks"])


def test_input_errors_exit_3(files, capsys, tmp_path):
    code, _, err = run_cli(["dynamics", "--tree", str(files / "binary.json")],
                           capsys)
    assert code == 3 and "element" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(["dynamics", "--tree", str(bad),
                            "--element", str(files / "x0.txt")], capsys)
    assert code == 3
    badel = tmp_path / "bad.txt"
    badel.write_text("pair{domain=[0], range=[0,1], perm=[0,1]}")
    code, _, err = run_cli(["dynamics", "--tree", str(files / "binary.json"),
                            "--element", str(badel)], capsys)
    assert code == 3
    code, _, err = run_cli(["apply", "--tree", str(files / "binary.json"),
                            "--element", str(files / "x0.txt"), "01"], capsys)
    assert code == 3
    code, _, err = run_cli(["order", "--tree", str(files / "binary.json"),
                            "--element", str(files / "x0.txt"),
                            "--threads", "0"], capsys)
    assert code == 3 and "--threads" in err


@pytest.mark.parametrize("pair, reason", [
    # a perm longer than the leaf lists
    ("pair{domain=[0,1], range=[0,1], perm=[0,1,2]}", "not a bijection"),
    # a repeated leaf
    ("pair{domain=[0,0,1], range=[0,1,1], perm=[0,1,2]}", "distinct"),
])
def test_malformed_pairs_exit_3(files, capsys, tmp_path, pair, reason):
    el = tmp_path / "el.txt"
    el.write_text(pair + "\n")
    code, out, err = run_cli(["order", "--tree", str(files / "binary.json"),
                              "--element", str(el)], capsys)
    assert code == 3 and out == "" and reason in err


@pytest.mark.parametrize("command", ["dynamics", "contract"])
@pytest.mark.parametrize("eps", ["1/0", "0/0"])
def test_a_zero_denominator_radius_exits_3(files, capsys, command, eps):
    source = (["--element", str(files / "x0.txt")] if command == "dynamics"
              else ["--gens", str(files / "vgens.txt")])
    code, out, err = run_cli([command, "--tree", str(files / "binary.json"),
                              *source, "--eps", eps], capsys)
    assert code == 3 and out == "" and f"bad radius {eps!r}" in err


@pytest.mark.parametrize("command", ["dynamics", "contract"])
@pytest.mark.parametrize("eps", ["2^-1000000000000", "2^-60001"])
def test_a_radius_past_the_exponent_bound_exits_3(files, capsys, command, eps):
    # refused before 2^m is computed, which at m = 10^12 would not fit
    source = (["--element", str(files / "x0.txt")] if command == "dynamics"
              else ["--gens", str(files / "vgens.txt")])
    code, out, err = run_cli([command, "--tree", str(files / "binary.json"),
                              *source, "--eps", eps], capsys)
    assert code == 3 and out == "" and "MAX_EPS_EXPONENT = 60000" in err


@pytest.mark.parametrize("size", ["16001", "100000000"])
def test_a_random_size_past_its_bound_exits_3(files, capsys, size):
    code, out, err = run_cli(["random-element", "--tree",
                              str(files / "binary.json"), "--size", size], capsys)
    assert code == 3 and out == "" and "MAX_RANDOM_SIZE = 16000" in err


@pytest.mark.parametrize("root", ['["b"]', '{"b": 1}', "5", "null"])
def test_malformed_type_graph_root_exits_3(files, capsys, tmp_path, root):
    tree = tmp_path / "tree.json"
    tree.write_text('{"types": {"b": ["b", "b"]}, "root": %s}' % root)
    code, out, err = run_cli(["order", "--tree", str(tree),
                              "--element", str(files / "sigma.txt")], capsys)
    assert code == 3 and out == "" and "input error" in err


@pytest.mark.parametrize("name", ["id", "1"])
def test_a_generator_named_as_the_empty_word_exits_3(files, capsys, tmp_path,
                                                    name):
    # orbit words would print the same word for the seed and its image
    gens = tmp_path / "gens.txt"
    gens.write_text(f"{name} = {SIGMA}\n")
    code, out, err = run_cli(["orbit", "--tree", str(files / "binary.json"),
                              "--gens", str(gens), "(0)^inf"], capsys)
    assert code == 3 and out == ""
    assert f"line 1: bad generator name {name!r}" in err


@pytest.mark.parametrize("name", ["a=b", "#a", "a\nb", "a\x0bb"])
def test_a_line_for_a_name_no_file_can_hold_exits_3(files, capsys, tmp_path,
                                                   name):
    # the line splits at the "=", reads as a comment or breaks in two, so
    # no generator of that name is read
    gens = tmp_path / "gens.txt"
    gens.write_text(f"{name} = {SIGMA}\n", newline="")
    code, out, err = run_cli(["orbit", "--tree", str(files / "binary.json"),
                              "--gens", str(gens), "(0)^inf"], capsys)
    assert code == 3 and out == "" and "input error" in err


WITNESS = {"g": SIGMA, "h": SIGMA, "g_word": "a", "h_word": "b",
           "U1": ["00"], "V1": ["01"], "U2": ["10"], "V2": ["11"]}


@pytest.mark.parametrize("change", [
    {"U1": [5]}, {"V2": ["0", None]}, {"U2": "10"},
    {"g_word": 3}, {"h_word": ["b"]}, {"g": 5},
], ids=["ball-int", "ball-null", "balls-string", "word-int", "word-list",
        "pair-int"])
def test_malformed_witness_exits_3(files, capsys, tmp_path, change):
    wfile = tmp_path / "witness.json"
    args = ["pingpong-verify", "--tree", str(files / "binary.json"),
            "--witness", str(wfile)]
    wfile.write_text(json.dumps(WITNESS))
    assert run_json(args, capsys)["ok"] is False
    wfile.write_text(json.dumps({**WITNESS, **change}))
    code, out, err = run_cli(args, capsys)
    assert code == 3 and out == "" and "malformed witness" in err


def test_text_format(files, capsys):
    code, out, _ = run_cli(["order", "--tree", str(files / "binary.json"),
                            "--element", str(files / "sigma.txt"),
                            "--format", "text"], capsys)
    assert code == 0
    assert "order: 2" in out


def test_budget_flags_are_budgets():
    parser = _build_parser()
    assert _budgets(parser.parse_args(["check"])) == Budgets()
    args = parser.parse_args(["check", "--budget-words", "1",
                              "--budget-orbit", "2", "--budget-depth", "3",
                              "--budget-steps", "4", "--budget-closure", "5"])
    assert _budgets(args) == Budgets(word_length=1, orbit_size=2,
                                     expansion_depth=3, dovetail_steps=4,
                                     closure_size=5)


@pytest.mark.parametrize("flag, value, field", [
    ("words", "-1", "word_length"),
    ("orbit", "0", "orbit_size"),
    ("depth", "-5", "expansion_depth"),
    ("steps", "-1", "dovetail_steps"),
    ("closure", "-1", "closure_size"),
])
def test_bad_budget_exits_3(files, capsys, flag, value, field):
    code, out, err = run_cli(["dichotomy", "--tree", str(files / "binary.json"),
                              "--gens", str(files / "sgens.txt"),
                              f"--budget-{flag}", value], capsys)
    assert code == 3 and out == "" and f"budget {field} must be" in err


def test_budgets_are_checked_when_built():
    for field, least in (("word_length", 0), ("orbit_size", 1),
                         ("expansion_depth", 0), ("dovetail_steps", 0),
                         ("closure_size", 1)):
        Budgets(**{field: least})
        with pytest.raises(ValueError, match=field):
            Budgets(**{field: least - 1})


def test_byte_identical_reports_across_threads(files, capsys):
    base = ["dichotomy", "--tree", str(files / "binary.json"),
            "--gens", str(files / "vgens.txt")]
    _, out1, _ = run_cli(base + ["--threads", "1"], capsys)
    _, out4, _ = run_cli(base + ["--threads", "4"], capsys)
    _, out1b, _ = run_cli(base + ["--threads", "1"], capsys)
    assert out1 == out4 == out1b


def test_one_parser_per_process(files, capsys, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return _build_parser()

    monkeypatch.setattr(cli, "_build_parser", counted)
    _parser.cache_clear()
    for args in (["order", "--tree", str(files / "binary.json"),
                  "--element", str(files / "sigma.txt")], ["nope"], ["-h"]):
        run_cli(args, capsys)
    assert len(built) == 1


def test_cached_usage_is_the_formatted_usage():
    assert _parser().usage == _build_parser().format_usage()[7:]


@pytest.mark.parametrize("args", [
    ["--help"], ["-h"], [], ["nope"], ["order", "--budget-words", "x"],
    ["orbit", "--tree", "{tree}", "--gens", "{sgens}"],
    ["order", "--tree", "{tree}", "--element", "{x0}", "(0)^inf"],
])
def test_repeated_calls_give_the_same_output(files, capsys, args):
    args = [a.format(tree=files / "binary.json", sgens=files / "sgens.txt",
                     x0=files / "x0.txt") for a in args]
    _parser.cache_clear()
    first = run_cli(args, capsys)
    assert first == run_cli(args, capsys)
    # a usage error exits through SystemExit inside the shared parser
    assert run_cli([], capsys)[0] == 3
    assert first == run_cli(args, capsys)


def test_fresh_process_invocation(files):
    # the console entry point works in a fresh interpreter
    proc = subprocess.run(
        [sys.executable, "-m", "vtrees", "order",
         "--tree", str(files / "binary.json"),
         "--element", str(files / "sigma.txt")],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 2
