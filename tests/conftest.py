import os
import random
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

from vtrees import (
    GeneratingSet,
    TypeGraph,
    builtin_generators,
    random_element,
)

BINARY_SPEC = '{"types": {"b": ["b", "b"]}, "root": "b"}'
WIDE_SPEC = '{"types": {"r": ["b", "b", "b"], "b": ["b", "b"]}, "root": "r"}'
RAY_SPEC = '{"types": {"a": ["a", "b"], "b": ["b"]}, "root": "a"}'
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """The environment for a child Python process, with this checkout's
    ``src`` first on its ``PYTHONPATH``, so the child imports the package
    under test whether or not it is installed."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# The limits of a child that ``run_vtrees_child`` starts: 2 GB of address
# space and 60 s of CPU time.  They are set in the child before it starts
# Python, so they bind the child alone: a run past them ends the child
# (MemoryError, or SIGXCPU), never the test process.
CHILD_AS_BYTES = 2 << 30
CHILD_CPU_S = 60


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_S, CHILD_CPU_S))


def run_vtrees_child(argv):
    """Run ``python -m vtrees ARGV`` in a child under the limits above.

    Returns (exit code, stdout, stderr, CPU seconds, peak RSS in kB).  The
    code is negative when a signal ended the child; the CPU time (user and
    system) and ``ru_maxrss`` are the child's own, read by ``os.wait4``."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "vtrees", *argv],
                                stdout=out, stderr=err, env=child_env(),
                                preexec_fn=_limit_child)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def pytest_configure(config):
    # Hypothesis caches the constants it reads from the project's source
    # files, also without an example database, and it does so while tests
    # are collected; keep that cache out of the working tree.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    config.add_cleanup(lambda: set_hypothesis_home_dir(None))
    set_hypothesis_home_dir(home.name)


@pytest.fixture(scope="session")
def binary():
    """The uniform binary tree: the boundary is the Cantor set of bit ends."""
    return TypeGraph({"b": ["b", "b"]}, "b")


@pytest.fixture(scope="session")
def wide():
    """Three children at the root, two everywhere else."""
    return TypeGraph({"r": ["b", "b", "b"], "b": ["b", "b"]}, "r")


@pytest.fixture(scope="session")
def ray():
    """A tree with isolated boundary points (type b unrolls to a ray)."""
    return TypeGraph({"a": ["a", "b"], "b": ["b"]}, "a")


@pytest.fixture(scope="session")
def gens(binary):
    return builtin_generators(binary)


@pytest.fixture(scope="session")
def x0(gens):
    return gens["x0"]


@pytest.fixture(scope="session")
def x1(gens):
    return gens["x1"]


@pytest.fixture(scope="session")
def sigma(gens):
    return gens["sigma"]


@pytest.fixture(scope="session")
def tau(gens):
    return gens["tau"]


@pytest.fixture(scope="session")
def v_gens(gens):
    return GeneratingSet([gens[n] for n in ("x0", "x1", "sigma", "tau")],
                         ["x0", "x1", "sigma", "tau"])


def sample_elements(tg, count, size, seed_base=0):
    return [random_element(tg, size, random.Random(seed_base + i))
            for i in range(count)]


def random_point(tg, rng, max_prefix=6, max_cycle=3):
    """A random eventually periodic end (wide tree: cycles stay below the
    root so any bit string is a valid cycle)."""
    from vtrees import boundary_point
    depth = rng.randint(1 if tg.arity(tg.root_type) != 2 else 0, max_prefix)
    prefix = []
    t = tg.root_type
    for _ in range(depth):
        i = rng.randrange(tg.arity(t))
        prefix.append(i)
        t = tg.children[t][i]
    cycle_len = rng.randint(1, max_cycle)
    cycle = [rng.randrange(2) for _ in range(cycle_len)]
    return boundary_point(tg, prefix, cycle)


def random_end(tg, rng, head=(), max_prefix=6, max_cycle=3):
    """A random eventually periodic end of any tree whose prefix starts
    with the address ``head``: each index is drawn within the arity of its
    vertex, and the cycle is all zeros when a repeat of the drawn cycle
    would leave the tree (on the ray tree, say)."""
    from vtrees import boundary_point
    prefix = list(head)
    t = tg.type_at(head)
    for _ in range(rng.randint(0, max_prefix)):
        prefix.append(rng.randrange(tg.arity(t)))
        t = tg.children[t][prefix[-1]]
    cycle = []
    for _ in range(rng.randint(1, max_cycle)):
        cycle.append(rng.randrange(tg.arity(t)))
        t = tg.children[t][cycle[-1]]
    try:
        return boundary_point(tg, prefix, cycle)
    except ValueError:
        return boundary_point(tg, prefix, [0] * len(cycle))


def nonidentity_element(tg, size, rng):
    """A random element at caret bound ``size`` that is not the identity
    (on the ray tree most draws reduce to the identity)."""
    while True:
        e = random_element(tg, size, rng)
        if not e.is_identity():
            return e
