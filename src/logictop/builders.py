"""Constructors for the instance corpus.

Frames give upset algebras and lattices give filter logics; alongside
these sit an exact enumerator for small posets and the double-negation
witness showing why the Godel translation cannot preserve primes.

Lattice elements produced here are ordered by size first and contents
second, so the bottom sits at index 0 and the top at the last index.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress, permutations
from typing import Iterable, Iterator, Sequence

from .core import AbstractLogic, ConnectiveTables, TheoryFamily, _check_indices, _close, _mask, set_key
from .errors import BoundExceeded, EmptyGeneratorSet, NotHeyting
from .topology import PointSet, _arrow, _arrow_table, _arrows

LeqMatrix = tuple[tuple[bool, ...], ...]


def _bitrows(rows: Iterable[Sequence[bool]]) -> list[int]:
    """Each row of a boolean matrix as a bitmask: bit j is set when row[j]."""
    rows = list(rows)
    bits = [1 << j for j in range(max(map(len, rows), default=0))]
    return [sum(compress(bits, row)) for row in rows]


def _lowest(mask: int) -> int:
    """The index of the lowest set bit of a non-zero mask."""
    return (mask & -mask).bit_length() - 1


def _check_order(leq: LeqMatrix) -> tuple[list[int], list[int]]:
    """Raise ValueError on the first failure of a partial order, scanning
    i, then j above i (antisymmetry before transitivity), then k; return
    the up and down masks of a valid order."""
    n = len(leq)
    if any(len(row) != n for row in leq):
        raise ValueError("order matrix must be square")
    up, down = _bitrows(leq), _bitrows(zip(*leq))
    for i, above in enumerate(up):
        bit = 1 << i
        if not above & bit:
            raise ValueError(f"order not reflexive at {i}")
        both = above & down[i] & ~bit
        rest = above
        while rest:
            j = _lowest(rest)
            rest &= rest - 1
            if both >> j & 1:
                raise ValueError(f"order not antisymmetric at {i},{j}")
            beyond = up[j] & ~above
            if beyond:
                raise ValueError(f"order not transitive at {i},{j},{_lowest(beyond)}")
    return up, down


def cover_edges(up: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Pairs (i, j), i below j, with nothing strictly between them; bit
    j of up[i] is set when i lies below j.

    Works on any preorder: strictly between means distinct from both
    ends, so points equivalent under a non-antisymmetric order are
    joined both ways.
    """
    n = len(up)
    down = [sum(1 << i for i, row in enumerate(up) if row >> j & 1) for j in range(n)]
    return tuple(
        (i, j)
        for i, row in enumerate(up)
        for j in range(n)
        if i != j and row >> j & 1 and not row & down[j] & ~(1 << i | 1 << j)
    )


@dataclass(frozen=True)
class FinitePoset:
    """A partial order on named elements, as a full boolean matrix."""

    element_names: tuple[str, ...]
    leq: LeqMatrix

    def __post_init__(self):
        object.__setattr__(self, "element_names", tuple(str(s) for s in self.element_names))
        object.__setattr__(self, "leq", tuple(tuple(bool(v) for v in row) for row in self.leq))
        if len(set(self.element_names)) != len(self.element_names):
            raise ValueError("element names must be distinct")
        if len(self.leq) != len(self.element_names):
            raise ValueError("one matrix row per element")
        _check_order(self.leq)

    @classmethod
    def from_pairs(cls, element_names: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "FinitePoset":
        """Build from covering pairs of names, closed reflexively and
        transitively by Warshall's algorithm on bitmask rows."""
        names = tuple(str(s) for s in element_names)
        index = {s: i for i, s in enumerate(names)}
        n = len(names)
        bits = [1 << i for i in range(n)]
        rows = list(bits)
        for lo, hi in pairs:
            if lo not in index:
                raise ValueError(f"unknown element {lo!r}")
            if hi not in index:
                raise ValueError(f"unknown element {hi!r}")
            rows[index[lo]] |= bits[index[hi]]
        for k, bit in enumerate(bits):
            above = rows[k]
            rows = [row | above if row & bit else row for row in rows]
        return cls(names, [[row & bit for bit in bits] for row in rows])

    @property
    def n(self) -> int:
        return len(self.element_names)

    def upset(self, i: int) -> frozenset[int]:
        return frozenset(j for j in range(self.n) if self.leq[i][j])


def _bound_table(masks: list[int], what: str) -> tuple[tuple[int, ...], ...]:
    """The binary join (masks the up-set rows) or meet (the down-set rows)
    of an order: the entry for (a, b) is the element whose row equals
    masks[a] & masks[b].  The first pair with no such element raises
    ValueError naming the missing bound."""
    index = {mask: i for i, mask in enumerate(masks)}
    rows = []
    for a, mask in enumerate(masks):
        row = tuple([index.get(mask & b) for b in masks])
        if None in row:
            raise ValueError(f"no {what} bound for {a},{row.index(None)}")
        rows.append(row)
    return tuple(rows)


@dataclass(frozen=True)
class FiniteLattice:
    """A finite lattice, given by its order.

    join and meet are read off the order once, when the lattice is built:
    the join of a and b is the element whose up-set is the common part of
    theirs, the meet likewise with down-sets, and an order missing one
    raises ValueError.  impl and the bounds are optional extras that
    builders fill in when the lattice genuinely has them and the caller
    wants them visible (a lattice may leave its order-theoretic bounds
    undeclared to model the unbounded setting).  Their entries must lie
    in range(n), and a declared bound must be greatest or least.
    """

    element_names: tuple[str, ...]
    leq: LeqMatrix
    impl: tuple[tuple[int, ...], ...] | None = None
    top: int | None = None
    bottom: int | None = None
    join: tuple[tuple[int, ...], ...] = field(init=False)
    meet: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "element_names", tuple(str(s) for s in self.element_names))
        object.__setattr__(self, "leq", tuple(tuple(map(bool, row)) for row in self.leq))
        if self.impl is not None:
            object.__setattr__(self, "impl", tuple(map(tuple, self.impl)))
        if len(set(self.element_names)) != len(self.element_names):
            raise ValueError("element names must be distinct")
        n = self.n
        if len(self.leq) != n:
            raise ValueError("one matrix row per element")
        up, down = _check_order(self.leq)
        object.__setattr__(self, "join", _bound_table(up, "least upper"))
        object.__setattr__(self, "meet", _bound_table(down, "greatest lower"))
        universe = frozenset(range(n))
        if self.impl is not None:
            if len(self.impl) != n or any(len(row) != n for row in self.impl):
                raise ValueError(f"impl table must be {n}x{n}")
            _check_indices(self.impl, universe, "impl value", "out of range")
        for name in ("top", "bottom"):
            v = getattr(self, name)
            if v is not None:
                _check_indices(((v,),), universe, f"{name} index", "out of range")
        full = (1 << n) - 1
        if self.top is not None and down[self.top] != full:
            raise ValueError("declared top is not greatest")
        if self.bottom is not None and up[self.bottom] != full:
            raise ValueError("declared bottom is not least")

    @property
    def n(self) -> int:
        return len(self.element_names)

    def _below_irreducibles(self) -> list[int]:
        """For each element x, the mask of the join-irreducibles under x.
        x is join-irreducible when the elements strictly below it have a
        join other than x: the up-sets of those elements meet in more than
        x's up-set (in all of the carrier when there is none, as for the
        bottom, which is never join-irreducible).

        The map is one to one and carries meets to intersections; it
        carries joins to unions exactly when the lattice is distributive,
        as the Heyting algebras godel_witness reads it on are."""
        up = _bitrows(self.leq)
        full = (1 << self.n) - 1
        irreducible = 0
        for x, column in enumerate(zip(*self.leq)):
            under = filter(up[x].__ne__, compress(up, column))
            if reduce(operator.and_, under, full) != up[x]:
                irreducible |= 1 << x
        return [mask & irreducible for mask in _bitrows(zip(*self.leq))]

    @property
    def is_heyting(self) -> bool:
        """Implication and bottom present, and the adjunction actually holds.

        z <= x -> y exactly when z & x <= y, and since z & x <= x that is
        z & x <= x & y.  So for each x the z allowed on the right depend
        only on w = x & y: those whose meet with x lies below w, which
        must be the down set of x -> y.
        """
        if self.impl is None or self.bottom is None:
            return False
        down = _bitrows(zip(*self.leq))
        for x in range(self.n):
            by_meet: dict[int, int] = {}
            for z, c in enumerate(row[x] for row in self.meet):
                by_meet[c] = by_meet.get(c, 0) | 1 << z
            below: dict[int, int] = {}
            for y, w in enumerate(self.meet[x]):
                if w not in below:
                    allowed, rest = 0, down[w]
                    while rest:
                        allowed |= by_meet.get(_lowest(rest), 0)
                        rest &= rest - 1
                    below[w] = allowed
                if below[w] != down[self.impl[x][y]]:
                    return False
        return True

def _graded_sets(sets: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    return sorted(sets, key=lambda s: (len(s), set_key(s)))


def _set_name(names: tuple[str, ...], s: frozenset[int]) -> str:
    return "{" + ",".join(names[i] for i in sorted(s)) + "}"


def _implication_table(masks: Sequence[int], arrows: dict[int, int], index: dict[int, int]):
    """The implication table of a family of point sets, as positions in it.

    ``masks`` holds the family as bitmasks, ``arrows`` is their _arrows
    and ``index`` maps each mask to its position.  The table is None
    when some A -> B lies outside the family.
    """
    table, _ = _arrow_table(masks, arrows, index)
    return None if table is None else tuple(tuple([index[arrow] for arrow in row]) for row in table)


def _graded_upsets(
    frame: FinitePoset, limit: int | None = None
) -> tuple[list[PointSet], list[int], list[tuple[int, int]]]:
    """A frame's upsets in graded order (size, then contents: the empty
    set first, the carrier last), as point sets and as bitmasks, and each
    point's bit paired with its principal upset's mask.

    The upsets are the unions of principal upsets, the empty union
    included.  More than ``limit`` of them raise BoundExceeded while they
    are grown, before the family gets much larger.
    """
    principal = [frame.upset(x) for x in range(frame.n)]
    elements = _graded_sets(_close((frozenset(), *principal), operator.or_, limit))
    upsets = [(1 << x, _mask(up)) for x, up in enumerate(principal)]
    return elements, [_mask(s) for s in elements], upsets


def heyting_from_upsets(frame: FinitePoset) -> FiniteLattice:
    """The Heyting algebra of upsets of a frame.

    Join is union, meet is intersection, and A -> B collects the points
    whose upset meets A inside B: the table of _implication_table.  Join
    and meet are read off the inclusion order.
    """
    elements, masks, upsets = _graded_upsets(frame)
    names = tuple(_set_name(frame.element_names, s) for s in elements)
    leq = tuple(tuple([a <= b for b in elements]) for a in elements)
    impl = _implication_table(masks, _arrows(masks, upsets), {u: i for i, u in enumerate(masks)})
    return FiniteLattice(names, leq, impl=impl, top=len(elements) - 1, bottom=0)


def logic_from_lattice_filters(lattice: FiniteLattice, *, proper: bool = True) -> AbstractLogic:
    """The logic whose expressions are lattice elements and theories its filters.

    Filters on any finite lattice are the upsets of single elements,
    closed under intersection since up(a) & up(b) = up(a | b); the
    one generated by the least element is the whole carrier and is
    dropped by default, which keeps the logic regular.  Passing
    proper=False keeps it and yields the singular variant.  Connective
    tables are copied from the lattice; negation is implication into the
    declared bottom when both exist.

    Distributivity is verify_connectives' verdict on the result.  Its
    primes are up(j) for the join-irreducible j (and the carrier when
    kept), so its meet condition always holds, and its join condition
    exactly when each such j is join-prime: when the lattice is distributive.
    """
    n = lattice.n
    theories = frozenset(frozenset(h for h in range(n) if lattice.leq[g][h]) for g in range(n))
    if proper:
        theories -= {frozenset(range(n))}
    if not theories:
        raise EmptyGeneratorSet("the lattice has no filter to serve as a theory")
    neg = None
    if lattice.impl is not None and lattice.bottom is not None:
        neg = tuple(lattice.impl[a][lattice.bottom] for a in range(n))
    tables = ConnectiveTables(
        join=lattice.join,
        meet=lattice.meet,
        impl=lattice.impl,
        neg=neg,
        top=lattice.top,
        bottom=lattice.bottom,
    )
    return AbstractLogic(lattice.element_names, TheoryFamily(n, theories), tables)


def is_strongly_connected(frame: FinitePoset) -> bool:
    """Whether elements above a common point are always comparable."""
    n = frame.n
    return all(
        frame.leq[b][c] or frame.leq[c][b]
        for a in range(n)
        for b in range(n) if frame.leq[a][b]
        for c in range(n) if frame.leq[a][c]
    )


def _relabelings(n: int) -> list[operator.itemgetter]:
    """One getter per permutation p of range(n), in permutations order: it
    reads the row-major flattening of an n x n matrix relabeled by p."""
    return [
        operator.itemgetter(*(p[i] * n + p[j] for i in range(n) for j in range(n)))
        for p in permutations(range(n))
    ]


def _canonical_matrix(matrix: LeqMatrix, relabelings: list[operator.itemgetter]) -> LeqMatrix:
    """The lexicographically least relabeling of an n x n matrix, n >= 2,
    given _relabelings(n)."""
    n = len(matrix)
    flat = sum(matrix, ())
    least = min(get(flat) for get in relabelings)
    return tuple(least[i:i + n] for i in range(0, n * n, n))


POSET_ENUMERATION_BOUND = 5


def enumerate_posets(n: int) -> Iterator[FinitePoset]:
    """All posets on n unlabeled elements, each isomorphism class once.

    Built by repeatedly attaching a new maximal element above a downset,
    with duplicates removed through a minimal-relabeling canonical form;
    exact because every poset loses some maximal element gracefully.
    The factorial canonicalization is why the size bound is small.
    """
    if not 1 <= n <= POSET_ENUMERATION_BOUND:
        raise BoundExceeded(f"poset enumeration supports 1..{POSET_ENUMERATION_BOUND}, got {n}")
    mats: set[LeqMatrix] = {((True,),)}
    for size in range(2, n + 1):
        relabelings = _relabelings(size)
        grown: set[LeqMatrix] = set()
        for leq in mats:
            k = size - 1
            downsets = []
            for mask in range(1 << k):
                s = frozenset(i for i in range(k) if mask >> i & 1)
                if all(frozenset(j for j in range(k) if leq[j][i]) <= s for i in s):
                    downsets.append(s)
            for d in downsets:
                new = tuple(
                    tuple(leq[i][j] for j in range(k)) + (i in d,)
                    for i in range(k)
                ) + ((False,) * k + (True,),)
                grown.add(_canonical_matrix(new, relabelings))
        mats = grown
    names = tuple(f"x{i}" for i in range(n))
    for leq in sorted(mats):
        yield FinitePoset(names, leq)


def godel_witness(algebra: FiniteLattice) -> tuple[int, int, int, int] | None:
    """First pair where negation fails to carry meets to joins classically.

    Scans (p, q) in index order for ~(~p & ~q) differing from ~~p v ~~q,
    with ~x read as x -> bottom, and returns (p, q) and those two
    elements.  Boolean algebras return nothing; the first hit is the
    obstruction to translating classical disjunction into a
    prime-preserving map.

    A Heyting algebra is distributive, so its _below_irreducibles masks
    carry meet to & and join to |, and the scan runs on them.
    """
    if not algebra.is_heyting:
        raise NotHeyting("the double-negation scan needs implication and bottom")
    neg = [row[algebra.bottom] for row in algebra.impl]
    return _double_negation_scan(algebra._below_irreducibles(), neg)


# Every poset on at most 10 points has at most 2**10 upsets.
UPSET_BOUND = 1024


def frame_godel_witness(frame: FinitePoset) -> tuple[tuple[int, int, int, int], tuple[str, ...]] | None:
    """godel_witness(heyting_from_upsets(frame)) and the names of its four
    elements, read off the upset masks without building the algebra.

    A frame with more than UPSET_BOUND upsets raises BoundExceeded while
    they are grown, before anything is scanned.
    """
    elements, masks, upsets = _graded_upsets(frame, UPSET_BOUND)
    index = {m: i for i, m in enumerate(masks)}
    found = _double_negation_scan(masks, [index[_arrow(upsets, m, 0)] for m in masks])
    if found is None:
        return None
    return found, tuple(_set_name(frame.element_names, elements[i]) for i in found)


def _double_negation_scan(masks: Sequence[int], neg: Sequence[int]) -> tuple[int, int, int, int] | None:
    """godel_witness's scan, on distinct element masks on which meet is &
    and join is |, with ~x the element neg[x].

    ~(~p & ~q) and ~~p | ~~q depend on p only through u = ~p, so each
    row p is compared whole, once per distinct u; only a failing row is
    scanned for its q.
    """
    negated = [masks[x] for x in neg]
    neg_of = dict(zip(masks, negated))
    doubled = [neg_of[u] for u in negated]
    clean = set()
    for p, (u, uu) in enumerate(zip(negated, doubled)):
        if u in clean:
            continue
        lhs = [neg_of[u & v] for v in negated]
        rhs = [uu | vv for vv in doubled]
        if lhs != rhs:
            q = next(q for q, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            index = {m: i for i, m in enumerate(masks)}
            return p, q, index[lhs[q]], index[rhs[q]]
        clean.add(u)
    return None
