"""Golden revealing-pair certificates.

``reveal`` reports, per difference component, the first attractor or
repeller found in it; the values and their order are part of every
``reveal`` and ``dynamics`` report.  The expected strings were recorded
before the revealing condition was merged into one check.
"""

import random

import pytest

from vtrees import TypeGraph, address_str, random_element, reveal

TREES = {
    "binary": TypeGraph({"b": ["b", "b"]}, "b"),
    "wide": TypeGraph({"r": ["b", "b", "b"], "b": ["b", "b"]}, "r"),
    "ray": TypeGraph({"a": ["a", "b"], "b": ["b"]}, "a"),
}

# (tree, caret bound, seed) -> (attractors, repellers), each a list of
# "component root:vertex"; on the ray tree every element is elliptic once
# its fake chains are collapsed, so the certificates are empty
EXPECTED = {
    ("binary", 6, 2): ("11:110", "00:000 01:011"),
    ("binary", 6, 6): ("100:10010", "00:0010"),
    ("binary", 6, 7): ("0:01", "1:11"),
    ("binary", 6, 9): ("01:010", "1:11"),
    ("binary", 6, 17): ("0:000", "10:1011"),
    ("binary", 6, 20): ("01:011", "10:100"),
    ("binary", 6, 24): ("1:11", "0010:00101"),
    ("binary", 8, 35): ("00:001 11:1111", "01:01110"),
    ("binary", 8, 36): ("011:0110 1:10", "00:0001"),
    ("binary", 8, 38): ("1:101", "00:000 01:0100"),
    ("wide", 6, 0): ("1010:10101", "0:01"),
    ("wide", 6, 2): ("11:1111", "00:000"),
    ("wide", 6, 5): ("1:11", "2:200"),
    ("wide", 6, 6): ("2:21", "11:1100"),
    ("wide", 6, 10): ("20:2000", "21:2111"),
    ("wide", 6, 11): ("2:211", "1:11"),
    ("wide", 6, 17): ("2:210", "1:1100"),
    ("wide", 8, 11): ("1000:10000 110:1100", "1001:10010 101:1010"),
    ("wide", 8, 23): ("2:21", "0:01 11:110"),
    ("wide", 8, 24): ("011:0111 11:111", "010:01000"),
    ("ray", 6, 0): ("", ""),
    ("ray", 6, 5): ("", ""),
    ("ray", 6, 7): ("", ""),
    ("ray", 6, 11): ("", ""),
}


def _certificate_str(pairs) -> str:
    return " ".join(f"{address_str(r)}:{address_str(v)}" for r, v in pairs)


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_reveal_certificate_golden(key):
    tree, size, seed = key
    e = random_element(TREES[tree], size, random.Random(seed))
    rp = reveal(e)
    assert (_certificate_str(rp.attractors),
            _certificate_str(rp.repellers)) == EXPECTED[key]
