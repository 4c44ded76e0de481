"""Ambient rooted trees, their boundary, and exact clopen-set arithmetic.

The ambient tree is the unrolling of a finite *type graph*: a finite set of
vertex types, each with a nonempty ordered list of child types.  Every vertex
of the unrolled tree is addressed by its sequence of child indices from the
root, so the tree itself is never materialised.  Because every type has at
least one child the tree has no leaves and its boundary (the space of infinite
directed paths from the root) is a compact ultrametric space under
d(x, y) = 2^(-common prefix length).

Three exact value types live here:

- ``BoundaryPoint``: an eventually periodic end, stored as (prefix, cycle) and
  normalised so that equal ends have identical representations.
- ``ClopenSet``: a finite union of balls, stored as a trie in a canonical
  normal form (no ball is redundant, full sibling sets are merged), so that
  two clopen sets denote the same subset of the boundary iff their
  representations are equal.
- addresses, which are plain tuples of child indices.

All values are immutable and hashable; operations never mutate shared state.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Address = tuple  # tuple[int, ...]; () is the root

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_VALUES = {ch: i for i, ch in enumerate(_DIGITS)}
MAX_ARITY = len(_DIGITS)  # limit imposed by the digit-string address format


class FormatError(ValueError):
    """Malformed textual input (type graph, address, point, element...)."""


# ---------------------------------------------------------------------------
# Type graphs


class TypeGraph:
    """Finite description of a locally finite rooted tree with no leaves.

    ``children`` maps each type name to the ordered, nonempty tuple of its
    child types; ``root_type`` is the type of the root vertex.  The linear
    order on the children of every vertex is the listed order.
    """

    __slots__ = ("children", "root_type", "types", "_key", "_ordered_color",
                 "_singleton_types", "_hash")

    def __init__(self, children: Mapping[str, Sequence[str]], root_type: str):
        kids = {str(t): tuple(str(c) for c in cs) for t, cs in children.items()}
        if root_type not in kids:
            raise FormatError(f"root type {root_type!r} is not declared")
        for t, cs in kids.items():
            if not cs:
                raise FormatError(f"type {t!r} has an empty children sequence "
                                  "(the tree must have no leaves)")
            if len(cs) > MAX_ARITY:
                raise FormatError(f"type {t!r} has arity {len(cs)} > {MAX_ARITY}, "
                                  "unsupported by the address format")
            for c in cs:
                if c not in kids:
                    raise FormatError(f"type {t!r} names unknown child type {c!r}")
        self.children = kids
        self.root_type = root_type
        self.types = tuple(sorted(kids))
        self._key = (tuple((t, kids[t]) for t in self.types), root_type)
        self._hash = hash(self._key)
        self._ordered_color = self._refine()
        self._singleton_types = self._find_singletons()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TypeGraph) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TypeGraph({self.children!r}, root={self.root_type!r})"

    def arity(self, t: str) -> int:
        return len(self.children[t])

    def type_at(self, address: Address) -> str:
        """Type of the vertex reached from the root along ``address``."""
        t = self.root_type
        for i in address:
            cs = self.children[t]
            if not 0 <= i < len(cs):
                raise ValueError(f"index {i} out of range at type {t!r}")
            t = cs[i]
        return t

    def is_valid_address(self, address: Address) -> bool:
        t = self.root_type
        for i in address:
            cs = self.children[t]
            if not 0 <= i < len(cs):
                return False
            t = cs[i]
        return True

    def _refine(self) -> dict:
        # Partition refinement: two types get the same color iff their
        # unrollings are isomorphic as ordered rooted trees, the i-th child
        # matched with the i-th child.
        color = {t: 0 for t in self.types}
        while True:
            sigs = {}
            for t in self.types:
                sigs[t] = (color[t], tuple(color[c] for c in self.children[t]))
            remap: dict = {}
            new = {}
            for t in self.types:
                new[t] = remap.setdefault(sigs[t], len(remap))
            if new == color:
                return color
            color = new

    def _find_singletons(self) -> frozenset:
        # A type is a "singleton" type when every type reachable from it has
        # arity 1, i.e. the subtree below it is a single ray and the ball at
        # such a vertex is one boundary point.
        cand = {t for t in self.types if self.arity(t) == 1}
        changed = True
        while changed:
            changed = False
            for t in list(cand):
                if any(c not in cand for c in self.children[t]):
                    cand.discard(t)
                    changed = True
        return frozenset(cand)

    def subtree_order_isomorphic(self, s: str, t: str) -> bool:
        """True iff the unrollings below types s and t are isomorphic by an
        isomorphism matching the i-th child with the i-th child."""
        return self._ordered_color[s] == self._ordered_color[t]

    def is_singleton_type(self, t: str) -> bool:
        return t in self._singleton_types


def load_type_graph(text: str) -> TypeGraph:
    """Parse a type graph from its JSON description.

    The format is ``{"types": {name: [child, ...], ...}, "root": name}``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"type graph is not valid JSON: {e}") from None
    if not isinstance(doc, dict) or "types" not in doc or "root" not in doc:
        raise FormatError('type graph must be {"types": {...}, "root": ...}')
    if not isinstance(doc["root"], str):
        raise FormatError('"root" must be a type name')
    types = doc["types"]
    if not isinstance(types, dict) or not types:
        raise FormatError('"types" must be a nonempty mapping')
    for t, cs in types.items():
        if not isinstance(cs, list):
            raise FormatError(f'children of type {t!r} must be an array')
    return TypeGraph(types, doc["root"])


# ---------------------------------------------------------------------------
# Addresses


def address_str(address: Address) -> str:
    return "".join(map(_DIGITS.__getitem__, address))


def parse_address(text: str) -> Address:
    text = text.strip()
    try:
        return tuple(map(_DIGIT_VALUES.__getitem__, text))
    except KeyError as e:  # the first bad digit: map reads text in order
        raise FormatError(
            f"bad address digit {e.args[0]!r} in {text!r}") from None


def is_prefix(a: Address, b: Address) -> bool:
    """True iff vertex ``a`` lies on the path from the root to ``b``."""
    return len(a) <= len(b) and b[:len(a)] == a


# ---------------------------------------------------------------------------
# Immutable slotted values


class _Frozen:
    """Base of the immutable slotted classes, the records that would
    misbehave as tuples.

    ``_fields`` names the constructor's arguments in order.  Equality,
    hash, ``repr`` and copies go by them, as for the NamedTuple records.
    Assigning or deleting an attribute raises AttributeError, so
    ``__init__`` sets the fields through ``object.__setattr__`` or the
    slots' own setters.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._values())) + ")"

    def __reduce__(self):
        return self.__class__, self._values()


# ---------------------------------------------------------------------------
# Boundary points


class BoundaryPoint(_Frozen):
    """An eventually periodic end, in canonical (prefix, cycle) form.

    Use :func:`boundary_point` to construct one; the constructor assumes its
    arguments are already canonical.  Canonical means: following the cycle
    from the vertex at the end of the prefix returns to a vertex of the same
    type, the cycle is not a proper power (types included), and the prefix is
    as short as possible.  Two points are equal as ends iff their canonical
    forms are identical.
    """

    # Slotted, with the hash made once: the orbit and translation searches
    # build and hash points in their innermost loops.
    __slots__ = ("tg", "prefix", "cycle", "_hash")
    _fields = ("tg", "prefix", "cycle")

    tg: TypeGraph
    prefix: Address
    cycle: Address

    def __init__(self, tg: TypeGraph, prefix: Address, cycle: Address):
        _set_tg(self, tg)
        _set_prefix(self, prefix)
        _set_cycle(self, cycle)
        _set_hash(self, hash((tg, prefix, cycle)))

    def index_at(self, n: int) -> int:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.cycle[(n - len(self.prefix)) % len(self.cycle)]

    def indices(self) -> Iterator[int]:
        return itertools.chain(self.prefix, itertools.cycle(self.cycle))

    def address_prefix(self, n: int) -> Address:
        """The address of the depth-n vertex this end passes through."""
        return tuple(self.index_at(k) for k in range(n))

    def drop(self, n: int) -> tuple[Address, Address]:
        """Raw (prefix, cycle) data of the end seen from depth n."""
        if n <= len(self.prefix):
            return self.prefix[n:], self.cycle
        k = (n - len(self.prefix)) % len(self.cycle)
        return (), self.cycle[k:] + self.cycle[:k]

    def __str__(self) -> str:
        return f"{address_str(self.prefix)}({address_str(self.cycle)})^inf"

    def sort_key(self) -> tuple:
        return (self.prefix, self.cycle)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not BoundaryPoint:
            return NotImplemented
        return (self.prefix == other.prefix and self.cycle == other.cycle
                and (self.tg is other.tg or self.tg == other.tg))

    def __hash__(self) -> int:
        return self._hash


# The slots' own setters: the frozen class's __setattr__ refuses every write.
_set_tg, _set_prefix, _set_cycle, _set_hash = (
    BoundaryPoint.__dict__[name].__set__ for name in BoundaryPoint.__slots__)


def boundary_point(tg: TypeGraph, prefix: Sequence[int], cycle: Sequence[int]) -> BoundaryPoint:
    """Build the end prefix(cycle)^inf in canonical form.

    Raises ValueError if the infinite path is not valid in ``tg``.
    """
    prefix = tuple(prefix)
    cycle = tuple(cycle)
    if not cycle:
        raise ValueError("cycle must be nonempty")
    return BoundaryPoint(tg, *_canonical(tg, tg.root_type, prefix, cycle))


def junction_point(tg: TypeGraph, w: Address, w_type: str, tail_type: str,
                   tail_prefix: Address, tail_cycle: Address) -> BoundaryPoint:
    """The canonical end w tail_prefix (tail_cycle)^inf.

    ``w`` is a vertex of type ``w_type``, and (tail_prefix, tail_cycle) is
    canonical below a vertex of type ``tail_type``, as the tail of a
    canonical point below any vertex it passes is.  When the two types are
    equal the tail takes the same (type, index) steps below ``w``, so only the
    junction can change: the prefix shrinks into ``w`` when the tail prefix
    is empty (docs/dynamics_notes.md, section 4).
    """
    if w_type != tail_type:
        tail_prefix, tail_cycle = _canonical(tg, w_type, tail_prefix, tail_cycle)
    if tail_prefix or not w or w[-1] != tail_cycle[-1]:
        return BoundaryPoint(tg, w + tail_prefix, tail_cycle)
    n, k = _shrink(_steps(tg, tg.root_type, w)[0], len(w),
                   _steps(tg, w_type, tail_cycle)[0])
    return BoundaryPoint(tg, w[:n], tail_cycle[k:] + tail_cycle[:k])


def _steps(tg: TypeGraph, t: str, path: Address) -> tuple[list, str]:
    """The (type, index) steps of ``path`` from a vertex of type t, and the
    type it ends at.  Raises ValueError at an index the tree does not have."""
    children = tg.children
    steps = []
    for i in path:
        cs = children[t]
        if not 0 <= i < len(cs):
            raise ValueError(f"invalid index {i} at type {t!r}")
        steps.append((t, i))
        t = cs[i]
    return steps, t


def _shrink(steps: list, n: int, loop: list) -> tuple[int, int]:
    """Absorb the last of ``steps[:n]`` into the periodic part ``loop^inf``
    while it equals the last step of the (rotated) loop.  Returns the new n
    and k such that the loop now starts at its step k."""
    d = len(loop)
    j = d - 1
    while n and steps[n - 1] == loop[j]:
        n -= 1
        j = j - 1 if j else d - 1
    return n, (j + 1) % d


def _canonical(tg: TypeGraph, t: str, prefix: Address, cycle: Address) -> tuple[Address, Address]:
    """Canonical (prefix, cycle) of the path prefix cycle^inf from a vertex of
    type t: its (type, index) steps are periodic from step len(prefix) on,
    with least period len(cycle), and from no earlier step."""
    # One walk: the prefix, then whole copies of the cycle until a copy
    # starts at an entry type seen before; from there the steps repeat.
    steps, t = _steps(tg, t, prefix)
    path = prefix
    entries = {}
    while t not in entries:
        entries[t] = len(steps)
        more, t = _steps(tg, t, cycle)
        steps += more
        path += cycle
    start = entries[t]
    loop = steps[start:]
    m = len(loop)
    d = next(d for d in range(1, m + 1)
             if not m % d and loop[:d] * (m // d) == loop)
    n, k = _shrink(steps, start, loop[:d])
    return path[:n], path[start + k:start + d] + path[start:start + k]


def parse_point(tg: TypeGraph, text: str) -> BoundaryPoint:
    """Parse ``prefix(cycle)^inf``, e.g. ``01(0)^inf`` or ``(10)^inf``."""
    text = text.strip()
    if not text.endswith("^inf"):
        raise FormatError(f"point {text!r} must end with '^inf'")
    body = text[:-4]
    if not body.endswith(")") or "(" not in body:
        raise FormatError(f"point {text!r} must contain '(cycle)'")
    open_idx = body.index("(")
    prefix = parse_address(body[:open_idx])
    cycle = parse_address(body[open_idx + 1:-1])
    if not cycle:
        raise FormatError(f"point {text!r} has an empty cycle")
    try:
        return boundary_point(tg, prefix, cycle)
    except ValueError as e:
        raise FormatError(f"point {text!r}: {e}") from None


def common_prefix_length(x: BoundaryPoint, y: BoundaryPoint) -> int:
    """Length of the longest common address prefix of two distinct points
    over one type graph.  Canonical forms are equal iff the ends are, and
    from the longer prefix on both ends repeat with period lcm(cycle
    lengths), so distinct points disagree within that many indices."""
    if x.tg != y.tg:
        raise ValueError("points over different type graphs")
    if x == y:
        raise ValueError("equal points share every prefix")
    bound = (max(len(x.prefix), len(y.prefix))
             + math.lcm(len(x.cycle), len(y.cycle)))
    for n, i, j in zip(range(bound), x.indices(), y.indices()):
        if i != j:
            return n
    raise AssertionError("distinct canonical points must disagree within the bound")


def visual_distance(x: BoundaryPoint, y: BoundaryPoint) -> Fraction:
    """d(x, y) = 2^(-length of the longest common address prefix); 0 iff x == y."""
    if x == y:
        return Fraction(0)
    return Fraction(1, 2 ** common_prefix_length(x, y))


def eps_exponent(eps: Fraction) -> int:
    """For eps = 2^-m (m >= 0) return m; reject anything else."""
    eps = Fraction(eps)
    if eps.numerator != 1 or eps.denominator < 1:
        raise ValueError(f"epsilon must be a power of 1/2, got {eps}")
    m = eps.denominator.bit_length() - 1
    if 2 ** m != eps.denominator:
        raise ValueError(f"epsilon must be a power of 1/2, got {eps}")
    return m


MAX_EPS_EXPONENT = 60_000  # the depth at which the trie algebra is tested


def parse_eps(text: str) -> Fraction:
    """Parse ``1``, ``2^-m`` or ``1/2^m`` style radii, such as ``1/8``.  m is
    at most ``MAX_EPS_EXPONENT``, checked before 2^m is computed, so that a
    text such as ``2^-1000000000000`` cannot ask for a 10^12-bit power."""
    text = text.strip()
    if text in ("1", "2^0", "2^-0"):
        return Fraction(1)
    try:
        m = (int(text[3:]) if text.startswith("2^-")
             else eps_exponent(Fraction(text)))
    except (ValueError, ZeroDivisionError):  # "1/0" is a zero denominator
        raise FormatError(f"bad radius {text!r}") from None
    if not 0 <= m <= MAX_EPS_EXPONENT:
        raise FormatError(f"bad radius {text!r}: 2^-m needs 0 <= m <= "
                          f"MAX_EPS_EXPONENT = {MAX_EPS_EXPONENT}")
    return Fraction(1, 2 ** m)


# ---------------------------------------------------------------------------
# Clopen sets
#
# A clopen set is stored as a trie with one level per tree level: a node is
# True (the full ball below this vertex), False (empty), or a tuple of child
# nodes, one per child of the vertex.  Tuples are kept "proper": never
# all-True and never all-False, so a one-child vertex whose child is full is
# True itself, and one whose child is a proper tuple stays a 1-tuple.  This
# makes the representation canonical: two clopen sets denote the same subset
# of the boundary iff their tries are equal.  Only the builder,
# ``_node_build``, reads the type graph: it makes a trie from ball addresses.
# Every other operation reads the tries alone, each in one explicit-stack
# walk, as tries grow as deep as the pairs acting on them: ``_node_fill``
# for ``apply_clopen``, and ``_node_combine`` for the Boolean algebra.

# Truth tables f[x in a][x in b] of the set operations on a and b.
_OR = ((False, True), (True, True))
_AND = ((False, False), (False, True))
_MINUS = ((False, False), (True, False))
_XOR = ((False, True), (True, False))


def _node_combine(a, b, f, test: bool = False):
    """The trie of {x : f[x in a][x in b]}, or with ``test`` whether it is
    nonempty, stopping at the first nonempty part.  Below a full or empty
    node on one side, f is a constant, the other side or its negation: the
    walk stops at the first two, and under the third copies the full or
    empty node down to each child."""
    walks = [iter(((a, b),))]  # the node pairs still to visit of each vertex
    rows: list = [[]]  # the combined children of each open vertex
    while True:
        for x, y in walks[-1]:
            x_leaf, y_leaf = x is True or x is False, y is True or y is False
            if x_leaf and y_leaf:
                node = f[x][y]
            elif x_leaf or y_leaf:  # f of the other side: lo if out, hi if in
                lo, hi = f[x] if x_leaf else (f[0][y], f[1][y])
                node = lo if lo is hi else (y if x_leaf else x) if hi else None
            else:
                node = None
            if node is None:  # two tries, or a negation: copy the leaf down
                walks.append(zip(itertools.repeat(x) if x_leaf else x,
                                 itertools.repeat(y) if y_leaf else y))
                rows.append([])
                break
            if test and node is not False:
                return True
            rows[-1].append(node)
        else:
            walks.pop()
            row = rows.pop()
            if not rows:  # the root pair's one node
                return row[0]
            rows[-1].append(False if row.count(False) == len(row) else True
                            if row.count(True) == len(row) else tuple(row))


def _node_build(tg: TypeGraph, addresses: Iterable[Sequence[int]]):
    """The trie of the union of the balls at ``addresses``.

    One pass over the addresses in sorted order keeps the open vertices on a
    path: each trie vertex is opened, as a row of empty children, and closed
    once, and a ball below a full ball is skipped.  Each index is checked as
    the walk reaches it, and below a full ball the rest of the address is
    walked; when a check fails, the ValueError names the first invalid
    address in input order.
    """
    addresses = [tuple(a) for a in addresses]
    ordered = sorted(addresses)
    if not ordered:
        return False
    if not ordered[0]:  # the root ball sorts first and is the whole boundary
        if all(tg.is_valid_address(a) for a in addresses):
            return True
        raise _invalid_address(tg, addresses)
    children = tg.children
    # rows[m] is the children list of the open vertex path[:m], and
    # kinds[m] the child types of that vertex.  A row's count compares with
    # ==, which is exact here: a row holds only True, False and tuples.
    kinds = [children[tg.root_type]]
    rows = [[False] * len(kinds[0])]
    path = ()
    # An index past its vertex's arity raises IndexError; a negative one,
    # which Python would read from the end, raises it explicitly.
    try:
        for a in ordered:
            last = len(a) - 1
            n = len(path)
            if n > last or a[:n] != path:  # close the vertices below path[:n]
                n = 0
                while n < last and a[n] == path[n]:
                    n += 1
                for m in range(len(path) - 1, n - 1, -1):
                    row = rows.pop()
                    rows[m][path[m]] = (True if row.count(True) == len(row)
                                        else tuple(row))
                del kinds[n + 1:]
            row = rows[n]
            cs = kinds[n]
            while n < last:
                i = a[n]
                if i < 0:
                    raise IndexError
                if row[i] is True:  # below a full ball: check the rest of a
                    t = cs[i]
                    for j in a[n + 1:]:
                        if j < 0:
                            raise IndexError
                        t = children[t][j]
                    break
                cs = children[cs[i]]
                row = [False] * len(cs)
                rows.append(row)
                kinds.append(cs)
                n += 1
            else:
                i = a[last]
                if i < 0:
                    raise IndexError
                row[i] = True
            path = a[:n]
    except IndexError:
        raise _invalid_address(tg, addresses) from None
    for m in range(len(path) - 1, -1, -1):
        row = rows.pop()
        rows[m][path[m]] = True if row.count(True) == len(row) else tuple(row)
    row = rows[0]
    return True if row.count(True) == len(row) else tuple(row)


def _invalid_address(tg: TypeGraph, addresses: list) -> ValueError:
    """The error naming the first invalid address of ``addresses``, in input
    order: as digits, or as the tuple when an index has no digit."""
    a = next(a for a in addresses if not tg.is_valid_address(a))
    name = address_str(a) if all(0 <= i < MAX_ARITY for i in a) else a
    return ValueError(f"invalid address {name!r}")


def _node_fill(shape, subs: Sequence):
    """The trie that is ``subs[k]`` below the k-th leaf, in depth-first
    order, of the complete-subtree shape ``shape`` (nested tuples, None at
    a leaf), each of whose vertices is then closed bottom-up."""
    if shape is None:
        return subs[0]
    leaves = iter(subs)
    walks = [iter(shape)]  # the children still to visit of each open vertex
    rows: list = [[]]  # the closed children of each open vertex
    while True:
        for kid in walks[-1]:
            if kid is not None:
                walks.append(iter(kid))
                rows.append([])
                break
            rows[-1].append(next(leaves))
        else:
            walks.pop()
            row = rows.pop()
            if row.count(False) == len(row):
                node = False
            elif row.count(True) == len(row):
                node = True
            else:
                node = tuple(row)
            if not rows:
                return node
            rows[-1].append(node)


class ClopenSet(_Frozen):
    """A finite union of balls of the boundary, in canonical trie form."""

    # Slotted, so the many sets the Boolean algebra builds stay small; not a
    # tuple, whose own comparisons would walk the trie recursively.
    __slots__ = _fields = ("tg", "node")

    tg: TypeGraph
    node: object  # True | False | nested tuples

    def __init__(self, tg: TypeGraph, node: object):
        _set_clopen_tg(self, tg)
        _set_node(self, node)

    @staticmethod
    def empty(tg: TypeGraph) -> "ClopenSet":
        return ClopenSet(tg, False)

    @staticmethod
    def full(tg: TypeGraph) -> "ClopenSet":
        return ClopenSet(tg, True)

    @staticmethod
    def ball(tg: TypeGraph, address: Sequence[int]) -> "ClopenSet":
        return ClopenSet.from_balls(tg, (address,))

    @staticmethod
    def from_balls(tg: TypeGraph, addresses: Iterable[Sequence[int]]) -> "ClopenSet":
        return ClopenSet(tg, _node_build(tg, addresses))

    def _check(self, other: "ClopenSet") -> None:
        if self.tg != other.tg:
            raise ValueError("clopen sets over different type graphs")

    def union(self, other: "ClopenSet") -> "ClopenSet":
        self._check(other)
        return ClopenSet(self.tg, _node_combine(self.node, other.node, _OR))

    def intersect(self, other: "ClopenSet") -> "ClopenSet":
        self._check(other)
        return ClopenSet(self.tg, _node_combine(self.node, other.node, _AND))

    def complement(self) -> "ClopenSet":
        return ClopenSet(self.tg, _node_combine(True, self.node, _MINUS))

    def difference(self, other: "ClopenSet") -> "ClopenSet":
        self._check(other)
        return ClopenSet(self.tg, _node_combine(self.node, other.node, _MINUS))

    def is_empty(self) -> bool:
        return self.node is False

    def is_all(self) -> bool:
        return self.node is True

    def subset_of(self, other: "ClopenSet") -> bool:
        self._check(other)
        return not _node_combine(self.node, other.node, _MINUS, True)

    def __eq__(self, other: object) -> bool:  # tuple == would recurse
        return (isinstance(other, ClopenSet) and self.tg == other.tg
                and not _node_combine(self.node, other.node, _XOR, True))

    def __hash__(self) -> int:  # hashing the field tuple would recurse the trie
        h, stack = hash(self.tg), [self.node]
        while stack:
            node = stack.pop()
            if node is not True and node is not False:
                stack.extend(node)
                node = len(node) + 2  # apart from False == 0 and True == 1
            h = hash((h, node))
        return h

    # operator sugar
    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __invert__ = complement
    __le__ = subset_of

    def contains_point(self, x: BoundaryPoint) -> bool:
        return self.full_depth(x) is not None

    def full_depth(self, x: BoundaryPoint) -> int | None:
        """The least n such that the ball at ``x.address_prefix(n)`` lies in
        the set, or None when x is outside it.  Tries are canonical, so a
        ball lies in the set exactly when a node on its path is full."""
        if x.tg != self.tg:
            raise ValueError("point over a different type graph")
        node = self.node
        for n, i in enumerate(x.indices()):
            if node is True:
                return n
            if node is False:
                return None
            node = node[i]
        raise AssertionError("unreachable")

    def balls(self) -> tuple:
        """The canonical antichain of ball addresses, in depth-first order."""
        # One path list, cut back to each popped node's depth: only the
        # balls themselves are copied.  A vertex with one nonempty child is
        # stepped through without a stack entry.
        if self.node is False:
            return ()
        out: list = []
        path: list = []
        stack = [(0, 0, self.node)]
        while stack:
            depth, i, node = stack.pop()
            if depth:
                del path[depth - 1:]
                path.append(i)
            while node is not True:
                if node.count(False) + 1 < len(node):
                    depth = len(path) + 1
                    for j in range(len(node) - 1, -1, -1):
                        if node[j] is not False:
                            stack.append((depth, j, node[j]))
                    break
                j = 0
                while node[j] is False:
                    j += 1
                path.append(j)
                node = node[j]
            else:
                out.append(tuple(path))
        return tuple(out)

    def ball_strs(self) -> list:
        return [address_str(a) for a in self.balls()]

    def __repr__(self) -> str:  # the fields' repr would recurse the trie
        return f"ClopenSet({self.tg!r}, balls={self.ball_strs()!r})"

    def __str__(self) -> str:
        if self.is_empty():
            return "{}"
        if self.is_all():
            return "{<all>}"
        return "{" + ", ".join(self.ball_strs()) + "}"


_set_clopen_tg, _set_node = (
    ClopenSet.__dict__[name].__set__ for name in ClopenSet.__slots__)


def epsilon_neighborhood(tg: TypeGraph, points: Iterable[BoundaryPoint],
                         eps: Fraction) -> ClopenSet:
    """The exact clopen set of ends within distance eps of the given finite set.

    eps must be a power of 1/2 (eps = 1 gives the full boundary whenever the
    set is nonempty).
    """
    m = eps_exponent(Fraction(eps))
    balls = []
    for x in points:
        if x.tg != tg:
            raise ValueError("point over a different type graph")
        balls.append(x.address_prefix(m))
    return ClopenSet.from_balls(tg, balls)


def is_isolated(tg: TypeGraph, v: Sequence[int]) -> bool:
    """True iff the ball at vertex v is a single boundary point."""
    v = tuple(v)
    return tg.is_singleton_type(tg.type_at(v))


def _isolating_vertex(x: BoundaryPoint):
    """The shallowest vertex on x whose ball is the single point x, or None."""
    # Only the types along one prefix-plus-cycle pass need checking: beyond
    # that the types repeat.
    for n in range(len(x.prefix) + len(x.cycle) + 1):
        a = x.address_prefix(n)
        if is_isolated(x.tg, a):
            return a
    return None


def point_is_isolated(x: BoundaryPoint) -> bool:
    """True iff x is an isolated point of the boundary."""
    return _isolating_vertex(x) is not None


def isolated_point_ball(x: BoundaryPoint) -> ClopenSet:
    """The singleton clopen {x}; raises if x is not isolated."""
    a = _isolating_vertex(x)
    if a is None:
        raise ValueError(f"point {x} is not isolated")
    return ClopenSet.ball(x.tg, a)


def eventually_periodic_witness(tg: TypeGraph, ball: Sequence[int]) -> BoundaryPoint:
    """The end below ``ball`` obtained by always descending to the least child.

    Deterministic, and always representable: the walk visits finitely many
    types so the least-child descent must cycle.
    """
    ball = tuple(ball)
    t = tg.type_at(ball)
    seen = {t: 0}
    seq = [t]
    cur = t
    while True:
        cur = tg.children[cur][0]
        if cur in seen:
            j = seen[cur]
            break
        seen[cur] = len(seq)
        seq.append(cur)
    prefix = ball + (0,) * j
    cycle = (0,) * (len(seq) - j)
    return boundary_point(tg, prefix, cycle)
