"""Source hygiene of the library.

- Every module-level import is used.  ``__init__.py`` is exempt, because its
  imports are the public re-exports, and so are ``from __future__`` imports.
- Only ``treespace.py`` constructs ``BoundaryPoint`` directly, so every point
  the library makes has been canonicalised there.
- Only ``treespace.py`` reaches ``_node_combine``, the walk behind the
  clopen Boolean algebra, so every clopen set made of many pieces is built
  in one pass, by ``_node_build`` or ``_node_fill``.
- Every private top-level function and class of the library is named
  somewhere in the library outside its own definition, so no helper is left
  behind by the code that used it.
- The tree-pair builders of ``element.py`` (``shape_from_leaves``,
  ``ordered_tree``, ``pair_from_ordered``, ``cancel_carets``,
  ``TreePair.__init__``, ``TreePair._set``, ``reduce_map``,
  ``Element.inverse``) call neither ``type_at`` nor ``interior_vertices``:
  they carry types down from parents, and a walk from the root per vertex
  would make a build superlinear.
- ``revealing.py`` reads a pair's chains instead of walking them again:
  ``_roll_once`` calls no ``leaf_map``, ``_report`` neither ``apply_point``
  nor ``inverse``, and ``chains`` sorts nothing, since the pair holds its
  leaves in order.
- No function in ``element.py`` or ``treespace.py`` calls itself: trees
  and clopen tries grow as deep as the exponents of the powers taken, so
  they use explicit stacks.
- No module of the library calls ``sys.setrecursionlimit``: importing
  vtrees leaves the interpreter's state alone.
- ``alternative.py`` reveals only through ``stable_set``, through
  ``_contraction`` when it is given no reports, and through the run's one
  report memo, ``_Run.report``.  Then no run reveals an element twice.
- ``cli.py`` calls ``_build_parser()`` in one place only, the cached
  accessor ``_parser``, so a process builds one parser.
- The names ``vtrees/__init__.py`` exports are pinned: they are the public
  API, and README names every public name that is removed.
- Every exported name is reached: another module of the library reads it,
  or perfbench, README or the acceptance tests name it.
- A fresh ``import vtrees.cli`` loads neither ``dataclasses`` nor
  ``inspect``: the records are NamedTuples and slotted classes, so a
  ``vtrees`` process starts without building dataclasses.
"""

import ast
import json
import pathlib
import re
import subprocess
import sys

from conftest import child_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vtrees"


def unused_imports(source: str) -> list:
    """Names bound by a module-level import and never read in the module."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_detected():
    assert unused_imports("import math\nimport os.path\n"
                          "from typing import Iterable as It, Sequence\n"
                          "x: Sequence = os.sep\n") == ["math", "It"]


def test_library_has_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in modules}
    assert {k: v for k, v in found.items() if v} == {}


def point_constructions(source: str) -> int:
    """The number of ``BoundaryPoint(...)`` calls in a module."""
    return sum(isinstance(n, ast.Call)
               and "BoundaryPoint" in (getattr(n.func, "id", None),
                                       getattr(n.func, "attr", None))
               for n in ast.walk(ast.parse(source)))


def test_point_constructions_are_detected():
    assert point_constructions("BoundaryPoint(tg, (), (0,))\n"
                               "treespace.BoundaryPoint(tg, p, c)\n"
                               "isinstance(x, BoundaryPoint)\n") == 2


def test_points_are_built_only_by_treespace():
    found = {p.name: point_constructions(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "treespace.py"}
    assert found
    assert {k: v for k, v in found.items() if v} == {}


def merge_uses(source: str) -> int:
    """The number of ``_node_combine`` names a module imports or reads as
    an attribute."""
    return sum((isinstance(n, ast.ImportFrom)
                and any(a.name == "_node_combine" for a in n.names))
               or (isinstance(n, ast.Attribute) and n.attr == "_node_combine")
               for n in ast.walk(ast.parse(source)))


def test_merge_uses_are_detected():
    assert merge_uses("from .treespace import ClopenSet, _node_combine as m\n"
                      "from . import treespace\n"
                      "treespace._node_combine(a, b, f)\n"
                      "_node_build(tg, pieces)\n") == 2


def test_only_treespace_merges_tries():
    found = {p.name: merge_uses(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "treespace.py"}
    assert found
    assert {k: v for k, v in found.items() if v} == {}


def unnamed_privates(sources: dict) -> list:
    """``module:name`` of each private top-level function or class whose
    name no top-level statement of ``sources`` reads or imports, other than
    its own definition."""
    uses = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            names = {getattr(n, "id", None) or getattr(n, "attr", None)
                     or getattr(n, "name", None) for n in ast.walk(top)
                     if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
            uses.append((module, top, names))
    return sorted(f"{module}:{top.name}" for module, top, _ in uses
                  if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                  and top.name.startswith("_") and not top.name.startswith("__")
                  and not any(top.name in names
                              for _, other, names in uses if other is not top))


def test_unnamed_privates_are_detected():
    assert unnamed_privates({
        "a.py": "def _used():\n"
                "    return 1\n"
                "def _recursive(n):\n"
                "    return _recursive(n - 1)\n"
                "class _Orphan:\n"
                "    pass\n"
                "def _imported():\n"
                "    pass\n"
                "def _reached():\n"
                "    pass\n"
                "def public():\n"
                "    return _used()\n",
        "b.py": "from .a import _imported\n"
                "from . import a\n"
                "x = a._reached\n"}) == ["a.py:_Orphan", "a.py:_recursive"]


def test_every_private_helper_is_used():
    found = unnamed_privates({p.name: p.read_text(encoding="utf-8")
                              for p in sorted(SRC.glob("*.py"))})
    assert found == []


ROOT_WALKS = ("type_at", "interior_vertices")
PAIR_BUILDERS = ("shape_from_leaves", "ordered_tree", "pair_from_ordered",
                 "cancel_carets", "TreePair.__init__", "TreePair._set",
                 "parse_pair", "reduce", "reduce_map", "Element.inverse")


def named_calls(source: str, names, callees) -> dict:
    """The calls of each named function (``f`` or ``Class.method``),
    nested functions included, to the functions or methods ``callees``
    names."""
    found = {}
    for top in ast.parse(source).body:
        defs = [(top.name, top)] if isinstance(top, ast.FunctionDef) else []
        if isinstance(top, ast.ClassDef):
            defs = [(f"{top.name}.{f.name}", f) for f in top.body
                    if isinstance(f, ast.FunctionDef)]
        for name, node in defs:
            if name in names:
                found[name] = sorted(
                    getattr(n.func, "id", None) or n.func.attr
                    for n in ast.walk(node) if isinstance(n, ast.Call)
                    and {getattr(n.func, "id", None),
                         getattr(n.func, "attr", None)} & set(callees))
    return found


def test_root_walk_calls_are_detected():
    assert named_calls(
        "def f(tg, v):\n"
        "    def g(u):\n"
        "        return tg.type_at(u)\n"
        "    return interior_vertices([v]), g(v)\n"
        "class C:\n"
        "    def m(self):\n"
        "        return self.tg.type_at(())\n"
        "def h(tg):\n"
        "    return tg.type_at(())\n", ("f", "C.m"), ROOT_WALKS) == {
            "f": ["interior_vertices", "type_at"], "C.m": ["type_at"]}


def test_pair_builders_walk_no_root_paths():
    source = (SRC / "element.py").read_text(encoding="utf-8")
    assert named_calls(source, PAIR_BUILDERS, ROOT_WALKS) == {
        name: [] for name in PAIR_BUILDERS}


def test_other_named_calls_are_detected():
    assert named_calls(
        "def chains(pair):\n"
        "    out = sorted(pair.domain_leaves)\n"
        "    out.sort()\n"
        "    return out, pair.leaf_map()\n"
        "def _report(g, x):\n"
        "    return g.inverse().apply_point(x), inverse\n",
        ("chains", "_report"), ("sorted", "sort", "apply_point", "inverse")) == {
            "chains": ["sort", "sorted"], "_report": ["apply_point", "inverse"]}


READS = {"_roll_once": ("leaf_map",), "_report": ("apply_point", "inverse"),
         "chains": ("sorted", "sort")}


def test_revealing_reads_its_own_chains():
    source = (SRC / "revealing.py").read_text(encoding="utf-8")
    assert {name: named_calls(source, (name,), callees)[name]
            for name, callees in READS.items()} == dict.fromkeys(READS, [])


def self_calls(source: str) -> list:
    """The functions, nested ones and methods included, that call themselves
    by name (``f(...)``, or ``self.f(...)``/``cls.f(...)`` in a method)."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for n in ast.walk(fn):
            f = getattr(n, "func", None)
            if isinstance(n, ast.Call) and (
                    getattr(f, "id", None) == fn.name
                    or (isinstance(f, ast.Attribute) and f.attr == fn.name
                        and getattr(f.value, "id", None) in ("self", "cls"))):
                found.append(fn.name)
                break
    return sorted(found)


def test_self_calls_are_detected():
    assert self_calls(
        "def f(n):\n"
        "    return f(n - 1) if n else 0\n"
        "def g(x):\n"
        "    def h(y):\n"
        "        return h(y)\n"
        "    return x.g()\n"
        "class C:\n"
        "    def m(self):\n"
        "        return self.m()\n"
        "    def k(self):\n"
        "        return self.pair.k()\n") == ["f", "h", "m"]


def test_element_functions_do_not_recurse():
    source = (SRC / "element.py").read_text(encoding="utf-8")
    assert self_calls(source) == []


def test_treespace_functions_do_not_recurse():
    source = (SRC / "treespace.py").read_text(encoding="utf-8")
    assert self_calls(source) == []


def limit_calls(source: str) -> int:
    """The number of ``setrecursionlimit(...)`` calls in a module, by name
    or as an attribute."""
    return sum(isinstance(n, ast.Call) and "setrecursionlimit" in (
                   getattr(n.func, "id", None), getattr(n.func, "attr", None))
               for n in ast.walk(ast.parse(source)))


def test_limit_calls_are_detected():
    assert limit_calls("import sys\n"
                       "sys.setrecursionlimit(50_000)\n"
                       "from sys import setrecursionlimit as s\n"
                       "setrecursionlimit(10)\n"
                       "sys.getrecursionlimit()\n") == 2


def test_no_module_sets_the_recursion_limit():
    found = {p.name: limit_calls(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert found
    assert {k: v for k, v in found.items() if v} == {}


REVEALS = ("dynamics", "reveal", "is_elliptic", "order",
           "report_from_revealing")


def reveal_sites(source: str) -> list:
    """(function or ``Class.method``, the test of the innermost ``if``
    around the call or None) for each call of a revealing function."""
    found = []

    def visit(node, name, guard):
        for child in ast.iter_child_nodes(node):
            inner_name, inner_guard = name, guard
            if isinstance(child, ast.FunctionDef):
                inner_name = f"{name}.{child.name}" if name else child.name
                inner_guard = None
            elif isinstance(child, ast.ClassDef):
                inner_name = child.name
            elif isinstance(child, ast.If):
                inner_guard = ast.unparse(child.test)
            if isinstance(child, ast.Call) and {
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)} & set(REVEALS):
                found.append((name, guard))
            visit(child, inner_name, inner_guard)

    visit(ast.parse(source), None, None)
    return sorted(found, key=str)


def test_reveal_sites_are_detected():
    assert reveal_sites(
        "def f(g):\n"
        "    return dynamics(g)\n"
        "class C:\n"
        "    def m(self, e, reps):\n"
        "        if reps is None:\n"
        "            reps = [revealing.reveal(e)]\n"
        "        return order(e), e.order\n") == [
            ("C.m", "reps is None"), ("C.m", None), ("f", None)]


def test_the_driver_reveals_through_one_memo():
    source = (SRC / "alternative.py").read_text(encoding="utf-8")
    assert reveal_sites(source) == [("_Run.report", "rep is None"),
                                    ("_contraction", "reports is None"),
                                    ("stable_set", None)]


def parser_builds(source: str) -> list:
    """The top-level function, or ``<module>``, of each ``_build_parser()``
    call; nested functions count for their top-level one."""
    return sorted(top.name if isinstance(top, ast.FunctionDef) else "<module>"
                  for top in ast.parse(source).body
                  for n in ast.walk(top) if isinstance(n, ast.Call)
                  and getattr(n.func, "id", None) == "_build_parser")


def test_parser_builds_are_detected():
    assert parser_builds(
        "def _build_parser():\n"
        "    return argparse.ArgumentParser()\n"
        "@functools.cache\n"
        "def _parser():\n"
        "    return _build_parser()\n"
        "def main(argv=None):\n"
        "    def again():\n"
        "        return _build_parser()\n"
        "    return _build_parser(), again()\n"
        "PARSER = _build_parser()\n") == ["<module>", "_parser", "main",
                                          "main"]


def test_the_cli_builds_its_parser_in_one_place():
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert parser_builds(source) == ["_parser"]


EXPORTS = {
    "treespace": (
        "Address", "BoundaryPoint", "ClopenSet", "FormatError", "TypeGraph",
        "address_str", "boundary_point", "epsilon_neighborhood",
        "eventually_periodic_witness", "is_isolated", "load_type_graph",
        "parse_address", "parse_eps", "parse_point", "point_is_isolated",
        "visual_distance"),
    "element": (
        "Element", "GeneratorFamily", "TreePair", "builtin_generators",
        "compose", "element_from_map", "format_element", "identity",
        "make_element", "parse_element", "random_element", "reduce"),
    "revealing": (
        "BudgetExceeded", "Chain", "CycleData", "DynamicsReport",
        "HypCertificate", "RevealingPair", "chains", "dynamics",
        "hyp_power_bound", "is_elliptic", "is_revealing", "order",
        "recheck_hyp_certificate", "reveal"),
    "subgroup": (
        "AdmissiblePartition", "Budgets", "GeneratingSet", "GroupClosure",
        "Orbit", "RestrictedElement", "common_admissible_partition",
        "enumerate_elements", "finite_closure", "format_generating_set",
        "orbit", "parse_generating_set", "parse_word", "restrict",
        "restricted_closure", "word_inverse", "word_str"),
    "alternative": (
        "DichotomyResult", "PingPongWitness", "ProximalContraction",
        "build_pingpong", "dichotomy", "free_group_smoke", "neumann_disjoint",
        "proximal_contraction", "stable_intersection", "stable_set",
        "verify_pingpong"),
}


def exported_names(source: str) -> dict:
    """The names each ``from .module import ...`` of a package re-exports."""
    return {n.module: tuple(a.asname or a.name for a in n.names)
            for n in ast.parse(source).body if isinstance(n, ast.ImportFrom)}


def test_exported_names_are_detected():
    assert exported_names("from .a import X, y as z\nimport os\n"
                          "from .b import (\n    W,\n)\n") == {
        "a": ("X", "z"), "b": ("W",)}


def test_exports_are_pinned():
    # removing a name is an API change: edit this pin and README together
    source = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert exported_names(source) == EXPORTS


def unreached_names(names, sources: dict, texts) -> list:
    """The ``names`` that no module of ``sources`` reads (as a ``Name``,
    ``Attribute`` or import ``alias`` node) outside the top-level definition
    of that name, and that no string of ``texts`` names as a word.

    The scan matches names, not bindings: a method, attribute, parameter or
    local variable of the same name counts as a read.  So it cannot see a
    module function that shares its name with a method, such as a wrapper
    ``inverse(g)`` that only calls ``g.inverse()``."""
    reads = set()
    for source in sources.values():
        for top in ast.parse(source).body:
            reads |= {getattr(n, "id", None) or getattr(n, "attr", None)
                      or n.name for n in ast.walk(top)
                      if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
                      and not isinstance(getattr(n, "ctx", None), ast.Store)
                      } - {getattr(top, "name", None)}
    return sorted(name for name in names if name not in reads
                  and not any(re.search(rf"\b{name}\b", t) for t in texts))


def test_unreached_names_are_detected():
    assert unreached_names(
        ["used", "imported", "attr", "recursive", "assigned", "documented",
         "wrapped"],
        {"a.py": "def used():\n"
                 "    return 1\n"
                 "def recursive(n):\n"
                 "    return recursive(n - 1)\n"
                 "assigned = 2\n"
                 "def wrapped(g):\n"
                 "    return g.wrapped()\n"
                 "def imported():\n"
                 "    pass\n"
                 "def documented():\n"
                 "    pass\n",
         "b.py": "from .a import imported\n"
                 "from . import a\n"
                 "x = a.attr\n"
                 "y = used()\n"
                 "z = x.wrapped()  # a method read: wrapped looks reached\n"},
        ["see documented(), not undocumented"]) == ["assigned", "recursive"]


def test_every_export_is_reached():
    source = (SRC / "__init__.py").read_text(encoding="utf-8")
    names = [n for module in exported_names(source).values() for n in module]
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    texts = [p.read_text(encoding="utf-8") for p in
             [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "README.md",
              ROOT / "tests" / "test_acceptance.py"]]
    assert names and sources and len(texts) > 2
    # README's list of removed names counts as naming them, so a removed
    # name exported again unused would pass
    assert unreached_names(names, sources, texts) == []


def test_a_fresh_cli_import_loads_no_dataclasses_or_inspect():
    # compared with the same interpreter before the import, because site
    # preloads different modules on different hosts
    code = ("import sys; before = set(sys.modules); import vtrees.cli; "
            "import json; print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=child_env())
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "vtrees.cli" in added
    assert {"dataclasses", "inspect"} & set(added) == set()
