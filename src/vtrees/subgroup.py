"""Finitely generated subgroup machinery: words, closures, orbits, restriction.

Elements of a subgroup are enumerated in shortlex order over the alphabet
g1, g1^-1, g2, g2^-1, ..., deduplicated by normal form, so every search in
this package is reproducible: the first witness found is a deterministic
function of the generating set and the budgets.  Words are stored as tuples
of (generator name, +1/-1) letters and denote composition with the rightmost
letter applied first.

Budget-bounded searches return None when the budget is exhausted; exceeding
a budget is an answer, not an error.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple, Sequence

from .treespace import (
    BoundaryPoint,
    ClopenSet,
    FormatError,
    TypeGraph,
    _Frozen,
    address_str,
)
from .element import (
    Element,
    compose,
    element_from_map,
    format_element,
    graft_map,
    identity,
    parse_element,
    shape_at,
    shape_from_leaves,
    shape_leaves,
    shape_union,
)
from . import revealing

Word = tuple  # tuple[(name, +1 | -1), ...], rightmost letter acts first


class _BudgetFields(NamedTuple):
    word_length: int = 8
    orbit_size: int = 512
    expansion_depth: int = 12
    dovetail_steps: int = 10_000
    closure_size: int = 512


class Budgets(_BudgetFields):
    """Explicit bounds for every semi-decidable search.  Every bound is
    >= 0, and the orbit and closure sizes are >= 1: a smaller value raises
    ValueError when the budgets are built, by the constructor or by
    ``_make`` and ``_replace``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            least = 1 if name in ("orbit_size", "closure_size") else 0
            if value < least:
                raise ValueError(f"budget {name} must be >= {least}")
        return self

    @classmethod
    def _make(cls, iterable) -> "Budgets":
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Words


def word_inverse(word: Word) -> Word:
    return tuple((name, -sign) for name, sign in reversed(word))


def word_str(word: Word) -> str:
    if not word:
        return "id"
    out = []
    i = 0
    while i < len(word):
        name, sign = word[i]
        j = i
        while j < len(word) and word[j] == (name, sign):
            j += 1
        exp = (j - i) * sign
        out.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return "*".join(out)


# The spellings of the empty word, which no generator may take as its name.
_IDENTITY_WORDS = ("", "id", "1")


def _bad_name(name: str) -> bool:
    """True for a generator name that ``parse_word`` would not read back from
    ``word_str``, or ``parse_generating_set`` from ``format_generating_set``:
    a spelling of the empty word, a name with surrounding whitespace, one
    holding ``*``, ``^`` or ``=``, one starting a comment with ``#``, or one
    that ``str.splitlines`` splits."""
    return (name in _IDENTITY_WORDS or name != name.strip()
            or "*" in name or "^" in name or "=" in name
            or name.startswith("#") or name.splitlines() != [name])


def parse_word(text: str) -> Word:
    text = text.strip()
    if text in _IDENTITY_WORDS:
        return ()
    out = []
    for token in text.split("*"):
        token = token.strip()
        if "^" in token:
            name, _, exp_s = token.partition("^")
            try:
                exp = int(exp_s)
            except ValueError:
                raise FormatError(f"bad exponent in word token {token!r}") from None
        else:
            name, exp = token, 1
        name = name.strip()
        if not name:
            raise FormatError(f"empty generator name in word {text!r}")
        sign = 1 if exp > 0 else -1
        out.extend([(name, sign)] * abs(exp))
    return tuple(out)


# ---------------------------------------------------------------------------
# Generating sets


class GeneratingSet:
    """Named generators over one type graph (inverses are derived)."""

    def __init__(self, elements: Sequence[Element], names: Sequence[str] | None = None):
        elements = list(elements)
        if not elements:
            raise ValueError("a generating set must be nonempty")
        if names is None:
            names = [f"g{i + 1}" for i in range(len(elements))]
        names = [str(n) for n in names]
        if len(names) != len(elements):
            raise ValueError("names and elements differ in length")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        for name in names:
            if _bad_name(name):
                raise ValueError(f"bad generator name {name!r}")
        tg = elements[0].tg
        for e in elements:
            if e.tg != tg:
                raise ValueError("generators over different type graphs")
        self.tg = tg
        self.elements = tuple(elements)
        self.names = tuple(names)
        self._letters = None
        self._table = None  # letter -> element, built with the letters

    def letters(self) -> tuple:
        """(word letter, element) for every generator and inverse, in
        enumeration order: generator order, plain before inverse.  The
        inverses are computed on the first call only."""
        if self._letters is None:
            self._letters = tuple(
                item for name, e in zip(self.names, self.elements)
                for item in (((name, 1), e), ((name, -1), e.inverse())))
            self._table = dict(self._letters)
        return self._letters

    def evaluate(self, word: Word) -> Element:
        self.letters()
        table = self._table
        out = identity(self.tg)
        for name, sign in reversed(word):
            g = table.get((name, 1 if sign > 0 else -1))
            if g is None:
                raise ValueError(f"unknown generator {name!r} in word")
            out = compose(g, out)
        return out

    def __repr__(self) -> str:
        return f"GeneratingSet({list(self.names)})"


def parse_generating_set(tg: TypeGraph, text: str) -> GeneratingSet:
    """Parse a generators file: one ``name = pair{...}`` per line.

    Blank lines and ``#`` comments are ignored.
    """
    names, elements = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"line {lineno}: expected 'name = pair{{...}}'")
        name, _, rest = line.partition("=")
        name = name.strip()
        if _bad_name(name):
            raise FormatError(f"line {lineno}: bad generator name {name!r}")
        try:
            elements.append(parse_element(tg, rest.strip()))
        except FormatError as e:
            raise FormatError(f"line {lineno}: {e}") from None
        names.append(name)
    if not names:
        raise FormatError("no generators found")
    return GeneratingSet(elements, names)


def format_generating_set(s: GeneratingSet) -> str:
    return "\n".join(f"{n} = {format_element(e)}"
                     for n, e in zip(s.names, s.elements)) + "\n"


# ---------------------------------------------------------------------------
# Enumeration and closure


def enumerate_elements(s: GeneratingSet, budget: int) -> Iterator[tuple]:
    """All subgroup elements of word length <= budget, shortlex order,
    deduplicated by normal form; yields (word, element) pairs."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    e0 = identity(s.tg)
    seen = {e0}
    yield ((), e0)
    frontier = [((), e0)]
    letters = s.letters()
    for _ in range(budget):
        new = []
        for word, e in frontier:
            for letter, le in letters:
                if word and word[-1] == (letter[0], -letter[1]):
                    continue  # the free reduction was seen at a shorter length
                e2 = compose(e, le)
                if e2 in seen:
                    continue
                seen.add(e2)
                item = (word + (letter,), e2)
                new.append(item)
                yield item
        if not new:
            return
        frontier = new


class GroupClosure(_Frozen):
    """A finite subgroup: its elements and their words, in shortlex order."""

    # Not a NamedTuple: its _make and _replace check len(), which
    # __len__ redefines here.
    __slots__ = _fields = ("generating_set", "elements", "words")

    generating_set: GeneratingSet
    elements: tuple
    words: tuple

    def __init__(self, generating_set: GeneratingSet, elements: tuple,
                 words: tuple):
        self._init(generating_set, elements, words)

    def __len__(self) -> int:
        return len(self.elements)


def finite_closure(s: GeneratingSet, bound: int) -> GroupClosure | None:
    """The full closure of the subgroup if it has at most ``bound`` elements,
    else None.  Until the enumeration ends every level adds an element, so
    a subgroup with more than ``bound`` elements has shown more than
    ``bound`` of them by word length ``bound``."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    found = list(islice(enumerate_elements(s, bound), bound + 1))
    if len(found) > bound:
        return None
    words, elements = zip(*found)
    return GroupClosure(s, elements, words)


# ---------------------------------------------------------------------------
# Common admissible partitions


class AdmissiblePartition(NamedTuple):
    """A partition of the boundary into balls, each contained in a domain
    leaf ball of every member of the group it was computed for."""

    tg: TypeGraph
    balls: tuple  # addresses, depth-first order

    def ball_strs(self) -> list:
        return [address_str(a) for a in self.balls]


def _image_partition(e: Element, shape):
    """Image of a ball partition (finer than e's domain tree) under e."""
    kappa = graft_map(e.pair, lambda u, _: shape_at(shape, u))
    return shape_from_leaves(e.tg, kappa.values(), e.tg.root_type)


def common_admissible_partition(closure: GroupClosure) -> AdmissiblePartition:
    """The coarsest ball partition refining every member's domain partition
    and stable under taking images; for a finite closure the iteration
    reaches a fixed point, which is then invariant as a partition."""
    tg = closure.generating_set.tg
    shape = None
    for e in closure.elements:
        shape = shape_union(shape, e.pair.domain)
    for _round in range(1000):
        new = shape
        for e in closure.elements:
            new = shape_union(new, _image_partition(e, new))
        if new == shape:
            return AdmissiblePartition(tg, tuple(shape_leaves(shape)))
        shape = new
    raise AssertionError("partition refinement did not stabilise")


# ---------------------------------------------------------------------------
# Orbits


class Orbit(_Frozen):
    """A finite orbit, with a word mapping the seed to each point."""

    # Not a NamedTuple: its _make and _replace check len(), which
    # __len__ redefines here.
    __slots__ = _fields = ("seed", "points", "words")

    seed: BoundaryPoint
    points: tuple  # sorted
    words: dict    # point -> Word

    def __init__(self, seed: BoundaryPoint, points: tuple, words: dict):
        self._init(seed, points, words)

    def __len__(self) -> int:
        return len(self.points)


class _LetterImages:
    """Interned points and their memoised letter images for one generating
    set.  ``id(p)`` gives each point a dense int on first sight and
    ``points[i]`` is the point of id i; ``row(i)[k]`` is the id of the
    image of that point under the element of ``s.letters()[k]``.  Letter
    ``k ^ 1`` is the inverse of letter k, so each image computed as
    ``a_k(i) = j`` also fills entry ``k ^ 1`` of row j with i; ``row(i)``
    computes only the entries still missing, and each edge of the orbit
    graph costs one ``apply_point`` (docs/dynamics_notes.md, section 3).
    Equal ids are equal points, so searches compare and hash ints, and
    searches that share a table share its ids and images."""

    __slots__ = ("letters", "ids", "points", "rows")

    def __init__(self, s: GeneratingSet):
        self.letters = s.letters()
        self.ids = {}
        self.points = []
        self.rows = []  # rows[i][k] is None until that image is known

    def id(self, p: BoundaryPoint) -> int:
        i = self.ids.get(p)
        if i is None:
            i = self.ids[p] = len(self.points)
            self.points.append(p)
            self.rows.append([None] * len(self.letters))
        return i

    def row(self, i: int) -> list:
        row = self.rows[i]
        if None in row:
            p = self.points[i]
            for k, (_, le) in enumerate(self.letters):
                if row[k] is None:
                    j = row[k] = self.id(le.apply_point(p))
                    self.rows[j][k ^ 1] = i
        return row


def orbit(x: BoundaryPoint, s: GeneratingSet, bound: int) -> Orbit | None:
    """The orbit of x under the subgroup if it has at most ``bound`` points,
    else None.  Exact point arithmetic throughout."""
    return _orbit_search(x, s, bound)[0]


def _orbit_search(x: BoundaryPoint, s: GeneratingSet, bound: int,
                  images: _LetterImages | None = None,
                  escapes: Sequence[tuple] = ()) -> tuple:
    """(orbit, None) as ``orbit`` finds it, or (None, the ids in ``images``
    of the points reached) when the orbit has more than ``bound`` points.
    Every point reached lies in x's orbit, so each of them has the same
    too-large orbit.  Letter images are read from and added to ``images``
    when it is given.  The search runs on point ids; only the orbit it
    returns holds points.

    ``escapes`` holds a (hyperbolic part, periodic points) pair for each of
    some elements of the group.  The search also stops, with None and the
    ids reached so far, at the first point (the seed or a newly reached
    one) that lies in some element's hyperbolic part and is not one of its
    periodic points: that element's forward iterates of the point are
    pairwise distinct, so the orbit is infinite (docs/dynamics_notes.md,
    section 3)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if x.tg != s.tg:
        raise ValueError("point over a different type graph")
    if images is None:
        images = _LetterImages(s)
    letters = [letter for letter, _ in images.letters]
    row = images.row
    points = images.points

    def escaping(p: BoundaryPoint) -> bool:
        return any(p not in periodic and hyperbolic.contains_point(p)
                   for hyperbolic, periodic in escapes)

    start = images.id(x)
    words = {start: ()}
    if escaping(x):
        return None, words.keys()
    queue = [start]
    for y in queue:
        for letter, z in zip(letters, row(y)):
            if z not in words:
                if len(words) >= bound:
                    return None, words.keys()
                words[z] = (letter,) + words[y]
                if escaping(points[z]):
                    return None, words.keys()
                queue.append(z)
    words = {points[i]: w for i, w in words.items()}
    pts = tuple(sorted(words, key=lambda p: p.sort_key()))
    return Orbit(x, pts, words), None


# ---------------------------------------------------------------------------
# Restriction to an invariant clopen


class RestrictedElement(_Frozen):
    """The transformation induced on an invariant clopen set.

    Stored as the element that agrees with g on the support and is the
    identity elsewhere; this extension determines the restriction uniquely,
    composes like it, and is elliptic exactly when the restriction admits an
    invariant admissible partition of the support.  ``pieces`` recovers the
    partial antichain pair over the support.
    """

    # Not a tuple: ``2 * r`` would fall through to tuple repetition.
    __slots__ = _fields = ("support", "extension")

    support: ClopenSet
    extension: Element

    def __init__(self, support: ClopenSet, extension: Element):
        self._init(support, extension)

    def _check(self, other: "RestrictedElement") -> None:
        if self.support != other.support:
            raise ValueError("restrictions to different clopen sets")

    def compose(self, other: "RestrictedElement") -> "RestrictedElement":
        self._check(other)
        return RestrictedElement(self.support,
                                 compose(self.extension, other.extension))

    __mul__ = compose

    def inverse(self) -> "RestrictedElement":
        return RestrictedElement(self.support, self.extension.inverse())

    def is_identity(self) -> bool:
        return self.extension.is_identity()

    def is_elliptic(self) -> bool:
        return revealing.is_elliptic(self.extension)

    def apply_point(self, x: BoundaryPoint) -> BoundaryPoint:
        if not self.support.contains_point(x):
            raise ValueError(f"{x} is outside the support")
        return self.extension.apply_point(x)

    def key(self) -> tuple:
        return self.extension.key()

    def pieces(self) -> tuple:
        """(source ball, image ball) pairs covering the support."""
        return tuple((u, w) for u, w in self.extension.pair.leaf_map().items()
                     if ClopenSet.ball(self.support.tg, u).subset_of(self.support))


def restrict(g: Element, w: ClopenSet) -> RestrictedElement:
    """The transformation g induces on the g-invariant clopen set w.

    Raises ValueError when w is not invariant (checked exactly).
    """
    if g.tg != w.tg:
        raise ValueError("clopen set over a different type graph")
    if g.apply_clopen(w) != w:
        raise ValueError("the clopen set is not invariant under the element")
    tg = g.tg
    # the shape whose leaves are the maximal balls on which w is constant
    refined = shape_union(g.pair.domain, shape_from_leaves(
        tg, w.balls() + w.complement().balls(), tg.root_type))
    kappa = graft_map(g.pair, lambda u, _: shape_at(refined, u))
    mapping = {u: v if ClopenSet.ball(tg, u).subset_of(w) else u
               for u, v in kappa.items()}
    return RestrictedElement(w, element_from_map(tg, mapping))


def restricted_closure(gens: Sequence[RestrictedElement], bound: int):
    """Closure of a family of restrictions to one support; None over bound."""
    if not gens:
        raise ValueError("need at least one restriction")
    support = gens[0].support
    for r in gens:
        if r.support != support:
            raise ValueError("restrictions to different clopen sets")
    ext = GeneratingSet([r.extension for r in gens])
    closure = finite_closure(ext, bound)
    if closure is None:
        return None
    return tuple(RestrictedElement(support, e) for e in closure.elements)
