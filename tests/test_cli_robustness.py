"""Every invocation of the command line ends in one of three ways.

The harness draws an argv for each of the 16 commands from valid objects
(random and built-in elements, their generating sets, boundary points,
ping-pong witness documents) and then mutates the argv or the files it names: truncation,
digit swaps, bad radii, negative budgets and duplicate generator names.
``cli.main`` runs in this process, and the test asserts that no exception
escapes, that the exit code is 0, 2 or 3, and that stdout holds exactly one
JSON document when the code is 0 or 2 (and nothing when it is 3).

Only inputs whose work stays small run in this process: elements of at
most four carets, radii down to 2^-6, and small explicit budgets for the
searches.  Inputs that scale the work need limits that bind a child
process, so they are not drawn.  The child tier runs ``python -m vtrees``
through ``conftest.run_vtrees_child``, under 2 GB of address space
(``RLIMIT_AS``) and 60 s of CPU time (``RLIMIT_CPU``).  Its one input so far
is a deep address on the ray tree: ``inverse``, ``compose``, ``reveal`` and
``dynamics`` on a leaf 20 000 and 400 000 levels down end in exit 0 or 3,
with CPU time and peak RSS growing at most linearly in the depth.
"""

import json
import random
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vtrees import (
    builtin_generators,
    format_element,
    load_type_graph,
    random_element,
)
from vtrees.cli import _COMMANDS, main

from conftest import (BINARY_SPEC, RAY_SPEC, WIDE_SPEC, random_end,
                      run_vtrees_child)

TREES = {"binary": BINARY_SPEC, "wide": WIDE_SPEC, "ray": RAY_SPEC}
GRAPHS = {name: load_type_graph(spec) for name, spec in TREES.items()}
BAD_RADII = ["0", "-1", "2", "1/3", "3/8", "2^3", "2^-", "2^-x", "1/2^-2",
             "1/0", "0/0", "", " ", "1/2^", "2^--1", "½"]
BALLS = ["", "0", "1", "00", "10", "011", "2", "20"]
WORDS = [None, "", "id", "a", "b^-1*a", "x0^2*c", "a^", "*"]
# small budgets, so that every search drawn here ends within milliseconds
SMALL_BUDGETS = {"words": (0, 3), "orbit": (1, 32), "depth": (0, 6),
                 "steps": (0, 200), "closure": (1, 32)}
NEEDS = {
    "compose": ("element", "element"),
    "inverse": ("element",),
    "apply": ("point", "element"),
    "reveal": ("element",),
    "dynamics": ("element", "eps?"),
    "elliptic": ("element",),
    "order": ("element",),
    "orbit": ("point", "gens", "budgets"),
    "closure": ("gens", "budgets"),
    "partition": ("gens", "budgets"),
    "stable": ("element|gens",),
    "contract": ("gens", "eps?"),
    "pingpong-verify": ("witness", "gens?"),
    "dichotomy": ("gens", "budgets"),
    "random-element": ("size",),
    "check": (),
}


@pytest.fixture(scope="module")
def workdir():
    path = tempfile.mkdtemp(prefix="vtrees-cli-")
    yield path
    shutil.rmtree(path)


MUTATIONS = ("none", "truncate", "digit", "radius", "budget", "duplicate")


def truncate(draw, text: str) -> str:
    return text[:draw(st.integers(0, max(len(text) - 1, 0)))]


def swap_digit(draw, text: str) -> str:
    spots = [i for i, ch in enumerate(text) if ch.isdigit()]
    if not spots:
        return text
    i = draw(st.sampled_from(spots))
    return text[:i] + draw(st.sampled_from("0123456789")) + text[i + 1:]


@st.composite
def invocations(draw):
    """(command, argv with ``{dir}`` for the files' directory, {file name:
    text}): a valid invocation, then at most one mutation of it."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    tree = draw(st.sampled_from(sorted(TREES)))
    tg = GRAPHS[tree]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    elements = [format_element(random_element(tg, rng.randint(0, 4), rng))
                for _ in range(3)]
    builtins = list(builtin_generators(tg).values())
    if builtins:  # random elements of few carets are mostly elliptic
        for i in draw(st.sets(st.integers(0, 2))):
            elements[i] = format_element(rng.choice(builtins))
    names = draw(st.permutations(["a", "b", "c"]))[:draw(st.integers(1, 3))]
    files = {"tree.json": TREES[tree]}
    argv = [command, "--tree", "{dir}/tree.json"]
    for need in NEEDS[command]:
        optional = need.endswith("?")
        need = need.rstrip("?")
        if optional and not draw(st.booleans()):
            continue
        if need == "element|gens":
            need = draw(st.sampled_from(["element", "gens"]))
        if need == "element":
            name = f"e{len(files)}.txt"
            files[name] = draw(st.sampled_from(elements)) + "\n"
            argv += ["--element", "{dir}/" + name]
        elif need == "gens":
            files["gens.txt"] = "".join(f"{n} = {e}\n"
                                        for n, e in zip(names, elements))
            argv += ["--gens", "{dir}/gens.txt"]
        elif need == "point":
            argv.insert(1, str(random_end(tg, rng)))
        elif need == "eps":
            m = draw(st.integers(0, 6))
            argv += ["--eps", draw(st.sampled_from([f"2^-{m}", f"1/{2 ** m}"]))]
        elif need == "budgets":
            for flag, (lo, hi) in SMALL_BUDGETS.items():
                argv += [f"--budget-{flag}", str(draw(st.integers(lo, hi)))]
        elif need == "witness":
            doc = {"g": elements[0], "h": elements[1],
                   **{key: draw(st.lists(st.sampled_from(BALLS), max_size=3))
                      for key in ("U1", "V1", "U2", "V2")},
                   "g_word": draw(st.sampled_from(WORDS)),
                   "h_word": draw(st.sampled_from(WORDS))}
            files["witness.json"] = json.dumps(doc)
            argv += ["--witness", "{dir}/witness.json"]
        elif need == "size":
            argv += ["--size", str(draw(st.integers(0, 12))),
                     "--seed", str(draw(st.integers(0, 10 ** 6)))]

    mutation = draw(st.sampled_from(MUTATIONS))
    texts = [("argv", i) for i in range(1, len(argv))] + \
        [("file", name) for name in files]
    if mutation in ("truncate", "digit"):
        kind, key = draw(st.sampled_from(texts))
        edit = truncate if mutation == "truncate" else swap_digit
        if kind == "argv":
            argv[key] = edit(draw, argv[key])
        else:
            files[key] = edit(draw, files[key])
    elif mutation == "radius" and "eps?" in NEEDS[command]:
        argv += ["--eps", draw(st.sampled_from(BAD_RADII))]
    elif mutation == "budget" and "budgets" in NEEDS[command]:
        flag = draw(st.sampled_from(sorted(SMALL_BUDGETS)))
        argv += [f"--budget-{flag}", str(draw(st.integers(-3, -1)))]
    elif mutation == "duplicate" and "gens.txt" in files:
        files["gens.txt"] += f"{names[0]} = {elements[-1]}\n"
    return command, argv, files


@settings(database=None, derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocations())
def test_every_invocation_ends_in_one_of_three_ways(workdir, capsys, drawn):
    command, argv, files = drawn
    for name, text in files.items():
        with open(f"{workdir}/{name}", "w", encoding="utf-8") as f:
            f.write(text)
    code = main([a.replace("{dir}", workdir) for a in argv])
    out = capsys.readouterr().out
    assert code in (0, 2, 3), (command, argv, files)
    if code == 3:
        assert out == ""
    else:
        assert json.loads(out)["command"] == command


def test_every_command_is_drawn():
    assert set(NEEDS) == set(_COMMANDS) and len(NEEDS) == 16


DEEP_DEPTHS = (20_000, 400_000)
DEEP_COMMANDS = ("inverse", "compose", "reveal", "dynamics")


def test_deep_ray_addresses_end_at_linear_cost(tmp_path):
    # the leaf 1 0^d lies d levels down the ray below vertex 1, so each
    # parse walks d levels and the reduction lifts the leaf pair back up
    tree = tmp_path / "ray.json"
    tree.write_text(RAY_SPEC)
    cpu, rss = {}, {}
    for d in DEEP_DEPTHS:
        leaf = "1" + "0" * d
        element = tmp_path / f"deep{d}.txt"
        element.write_text(
            f"pair{{domain=[0,{leaf}], range=[0,{leaf}], perm=[0,1]}}\n")
        cpu[d] = rss[d] = 0
        for command in DEEP_COMMANDS:
            argv = [command, "--tree", str(tree), "--element", str(element)]
            if command == "compose":
                argv += ["--element", str(element)]
            code, out, err, cpu_s, rss_kb = run_vtrees_child(argv)
            assert code in (0, 3), (d, command, code, err[-2000:])
            if code == 0:
                assert json.loads(out)["command"] == command
            else:
                assert out == ""
            cpu[d] += cpu_s
            rss[d] = max(rss[d], rss_kb)
    small, large = DEEP_DEPTHS
    assert cpu[large] <= cpu[small] * large / small, cpu
    assert rss[large] <= rss[small] * large / small, rss
