"""Finite topological spaces carrying a distinguished basis.

Points are indices, point sets are frozensets, and the topology is always
the one generated by the listed basis: opens are exactly the unions of
basis elements (plus the empty union).  The empty set is always open but
counts as a *basic* open only when the basis lists it; several verdicts
below (boundedness, spectrality, implication) hinge on that distinction.

Finite spaces are Alexandrov: the opens are precisely the upsets of the
specialization order.  The analyses still compute everything from the
definitions rather than from that shortcut, because several acceptance
checks compare the two routes.

Each space compiles what the analyses scan once, lazily, into a
SpaceIndex of int bitmasks (bit x for point x); the readers scan the
masks and hand point sets back as frozensets; the specialization order
is kept only there, one upset mask per point.  Its SpaceReport is built
once too, on first reading, and kept next to the index.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Container, Iterable, Sequence

from .core import _check_indices, _close, _mask, set_key, sorted_sets
from .errors import (
    BasisNotLattice,
    NotClosed,
    NotSpectral,
)

PointSet = frozenset[int]


@dataclass(frozen=True)
class FiniteSpace:
    """Named points plus an ordered, duplicate-free basis of point sets."""

    point_names: tuple[str, ...]
    basis: tuple[PointSet, ...]
    basis_names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "point_names", tuple(str(s) for s in self.point_names))
        object.__setattr__(self, "basis", tuple(frozenset(b) for b in self.basis))
        if not self.basis_names:
            object.__setattr__(self, "basis_names", tuple(f"U{i}" for i in range(len(self.basis))))
        else:
            object.__setattr__(self, "basis_names", tuple(str(s) for s in self.basis_names))
        n = len(self.point_names)
        if len(set(self.point_names)) != n:
            raise ValueError("point names must be distinct")
        if len(self.basis_names) != len(self.basis):
            raise ValueError("one display name per basis element")
        _check_indices(self.basis, self.carrier, "basis point", "out of range")
        if len(set(self.basis)) != len(self.basis):
            b = next(b for i, b in enumerate(self.basis) if b in self.basis[:i])
            raise ValueError(f"duplicate basis element {set_key(b)}")

    @property
    def n_points(self) -> int:
        return len(self.point_names)

    @property
    def carrier(self) -> PointSet:
        return frozenset(range(self.n_points))

    @property
    def uncovered(self) -> PointSet:
        """Points lying in no basic open."""
        return self.carrier.difference(*self.basis)

    @cached_property
    def _index(self) -> SpaceIndex:
        return SpaceIndex.of(self)

    @cached_property
    def _report(self) -> SpaceReport:
        return _analyze(self)


def _members(mask: int) -> PointSet:
    """A bitmask as a point set: x is a member when bit x is set."""
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


def _arrow(upsets: Iterable[tuple[int, int]], a: int, b: int) -> int:
    """A -> B on bitmasks: the bits of the (point bit, upset mask) pairs
    whose upset meets a only inside b."""
    outside = a & ~b
    arrow = 0
    for bit, up in upsets:
        if not up & outside:
            arrow |= bit
    return arrow


def _differences(masks: Sequence[int]) -> set[int]:
    """Every A minus B over the masks, each once."""
    return {a & ~b for a in masks for b in masks}


def _arrows(masks: Sequence[int], upsets: Sequence[tuple[int, int]]) -> dict[int, int]:
    """A -> B for every pair of the masks, keyed by A minus B, on which
    alone it depends: the arrow of each distinct difference, once."""
    return {d: _arrow(upsets, d, 0) for d in _differences(masks)}


def _arrow_table(
    masks: Sequence[int], arrows: dict[int, int], members: Container[int]
) -> tuple[tuple[tuple[int, ...], ...] | None, tuple[int, int] | None]:
    """Every arrow of the masks, row by row, while it stays in members.

    ``arrows`` is _arrows of the same masks, in any order.  Returns the
    table of arrow masks and None, or None and the positions (i, j) of
    the first pair whose arrow leaves members.  All arrows are tested at
    once; the rows are read off by lookup, and the pairs are scanned in
    order only on a failure.
    """
    if all(map(members.__contains__, arrows.values())):
        missing = [~b for b in masks]
        return tuple(tuple([arrows[a & m] for m in missing]) for a in masks), None
    return None, next((i, j) for i, a in enumerate(masks) for j, b in enumerate(masks)
                      if arrows[a & ~b] not in members)


@dataclass(frozen=True)
class SpaceIndex:
    """A space's basis, specialization upsets, opens and implication, compiled once.

    Built lazily, once per FiniteSpace object (its ``_index``).  Point
    sets are int bitmasks, bit x for point x; ``carrier`` has every
    point's bit.  ``listed`` holds the space's basis as bitmasks, in the
    space's own order.  ``basis`` follows sorted_sets order, so scanning it
    finds the same first witness as scanning the sorted frozensets;
    ``masks`` holds it as bitmasks and ``mask_set`` answers membership.
    ``upsets`` pairs each point's bit with its specialization upset, the
    meet of the basic opens holding it (the carrier if none does); T0
    twins are the points with equal upsets.  ``opens`` and ``closed``
    are the opens and their complements.  ``lattice_violation`` is the
    first basic pair whose union or intersection is not basic.
    ``arrows`` holds the arrow of each distinct difference of basic
    opens, which space_logic reads too; ``implication_witness`` is the
    first basic pair whose arrow is not basic.  Both are built with the
    index.  Each verdict tests all pairs at once and scans the pairs in
    order for the first witness only when the test fails.  No arrow
    table is kept here: on a failure _arrow_table only scans for the
    pair, and space_logic builds the table it needs.
    """

    carrier: int
    listed: tuple[int, ...]
    basis: tuple[PointSet, ...]
    masks: tuple[int, ...]
    mask_set: frozenset[int]
    upsets: tuple[tuple[int, int], ...]
    opens: frozenset[int]
    closed: frozenset[int]
    lattice_violation: tuple[PointSet, PointSet] | None
    arrows: dict[int, int]
    implication_witness: tuple[PointSet, PointSet] | None

    @classmethod
    def of(cls, space: FiniteSpace) -> SpaceIndex:
        carrier = (1 << space.n_points) - 1
        listed = tuple(map(_mask, space.basis))
        basis = tuple(sorted_sets(space.basis))
        masks = tuple(map(dict(zip(space.basis, listed)).__getitem__, basis))
        mask_set = frozenset(masks)
        upsets = tuple((1 << x, reduce(operator.and_, [u for u in listed if u >> x & 1], carrier))
                       for x in range(space.n_points))
        open_masks = frozenset(_mask(o) for o in opens(space))
        arrows = _arrows(masks, upsets)
        witness = None
        if not mask_set.issuperset(arrows.values()):
            _, (i, j) = _arrow_table(masks, arrows, mask_set)
            witness = basis[i], basis[j]
        return cls(
            carrier=carrier,
            listed=listed,
            basis=basis,
            masks=masks,
            mask_set=mask_set,
            upsets=upsets,
            opens=open_masks,
            closed=frozenset(carrier & ~o for o in open_masks),
            lattice_violation=_lattice_violation(basis, masks),
            arrows=arrows,
            implication_witness=witness,
        )

    def closure(self, a: int) -> int:
        """The smallest closed superset of a: the carrier minus every
        basic open that misses a."""
        missing = 0
        for u in self.masks:
            if not u & a:
                missing |= u
        return self.carrier & ~missing


@dataclass(frozen=True)
class SpaceReport:
    is_T0: bool
    covers_carrier: bool
    # equals covers_carrier: the carrier is open exactly when it is a
    # union of basic opens, that is when no point is uncovered
    is_compact: bool
    is_sober: bool
    is_spectral: bool
    is_boolean: bool
    has_implication: bool
    basis_is_all_opens: bool
    basis_intersection_closed: bool
    witnesses: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class DistributiveSpaceVerdict:
    distributive: bool
    bounded: bool
    witness: tuple | None = None


# Every space on at most 10 points has at most 2**10 opens.
OPEN_BOUND = 1024


@lru_cache(maxsize=None)
def opens(space: FiniteSpace) -> frozenset[PointSet]:
    """All unions of basis elements, including the empty union.

    More than OPEN_BOUND of them raise BoundExceeded while they are
    grown, before the family gets much larger.
    """
    return _close((frozenset(), *space.basis), operator.or_, OPEN_BOUND)


def closure(space: FiniteSpace, A: Iterable[int]) -> PointSet:
    """Smallest closed superset of A."""
    a = frozenset(A)
    if not a <= space.carrier:
        raise ValueError(f"points {set_key(a - space.carrier)} outside the carrier")
    return _members(space._index.closure(_mask(a)))


def _t0_witness(space: FiniteSpace) -> tuple[int, int] | None:
    """The first two points lying in the same basic opens, if any: the
    first two with the same specialization upset."""
    first: dict[int, int] = {}
    for x, (_, up) in enumerate(space._index.upsets):
        y = first.setdefault(up, x)
        if y != x:
            return y, x
    return None


def point_filter(space: FiniteSpace, x: int) -> frozenset[int]:
    """Indices of the basic opens containing x."""
    return frozenset(i for i, b in enumerate(space.basis) if x in b)


def irreducible_closed_sets(space: FiniteSpace) -> tuple[PointSet, ...]:
    """Non-empty closed sets that are not unions of two smaller closed sets."""
    cls = space._index.closed
    out = []
    for f in cls:
        if not f:
            continue
        parts = [c for c in cls if not c & ~f and c != f]
        if any(c1 | c2 == f for c1 in parts for c2 in parts):
            continue
        out.append(_members(f))
    return tuple(sorted_sets(out))


def generic_point(space: FiniteSpace, F: Iterable[int]) -> tuple[int | None, bool]:
    """A point whose closure is F, if any, with a uniqueness flag."""
    f = frozenset(F)
    index = space._index
    target = _mask(f) if f <= space.carrier else None
    if not f or target not in index.closed:
        raise NotClosed(f"{set_key(f)} is not a non-empty closed set", witness=f)
    candidates = [y for y in sorted(f) if index.closure(1 << y) == target]
    if not candidates:
        return None, False
    return candidates[0], len(candidates) == 1


def has_implication(space: FiniteSpace) -> tuple[bool, tuple[PointSet, PointSet] | None]:
    """Whether every implication of basic opens is again a basic open.

    The empty set only counts when the basis lists it; a basis without
    the empty open loses implications that come out empty.
    """
    witness = space._index.implication_witness
    return witness is None, witness


def _lattice_violation(
    sets: Sequence[PointSet], masks: Sequence[int]
) -> tuple[PointSet, PointSet] | None:
    """The first pair, in list order, whose union or intersection leaves
    the list; ``masks`` holds the sets as bitmasks, in the same order.
    All pairs are tested at once first; only a failure is scanned for."""
    members = frozenset(masks)
    if members.issuperset({u | v for u in masks for v in masks}) and members.issuperset(
        {u & v for u in masks for v in masks}
    ):
        return None
    for u, mu in zip(sets, masks):
        for v, mv in zip(sets, masks):
            if mu | mv not in members or mu & mv not in members:
                return (u, v)
    return None


def _require_lattice(bad: tuple[PointSet, PointSet] | None) -> None:
    """Raise BasisNotLattice for a lattice violation, if there is one."""
    if bad is not None:
        raise BasisNotLattice(
            f"basis not closed under union/intersection at {set_key(bad[0])}, {set_key(bad[1])}",
            witness=bad,
        )


def prime_filters_on_basis(space: FiniteSpace) -> tuple[frozenset[int], ...]:
    """All prime filters on the basis lattice, as sets of basis indices.

    Filters on a finite lattice are principal, so the enumeration runs
    over the upsets of single basis elements and keeps the join-prime
    ones.  In a lattice of sets, g lies below the join of two elements
    it does not lie below exactly when it lies below the union of all of
    them: in a shortest join above g of such elements, the union of all
    but the last is basic and not above g, so it pairs with the last.
    Properness is read as avoiding the empty basic open: when the
    basis has no empty member, the filter generated by the least basic
    open (the whole lattice) is admitted, matching the point filter of a
    point lying in every basic open.
    """
    index = space._index
    _require_lattice(index.lattice_violation)
    masks = index.listed
    out = set()
    for g in masks:
        if not g:
            continue  # its upset contains the empty open, never proper
        beside = 0
        for u in masks:
            if g & ~u:
                beside |= u
        if not g & ~beside:
            continue  # g lies below a join of two opens it does not lie below
        out.add(frozenset(i for i, u in enumerate(masks) if not g & ~u))
    return tuple(sorted(out, key=set_key))


def is_distributive_space(space: FiniteSpace) -> DistributiveSpaceVerdict:
    """Distributive-space recognition with finite readings.

    Conditions: T0; the basis covers the carrier and, up to the empty
    set, captures every open (all opens are compact here); the basis is
    a lattice under union and intersection; and the prime filters on the
    basis are exactly the point filters.  Bounded means the basis lists
    both the empty set and the carrier.
    """
    index = space._index
    bounded = 0 in index.mask_set and index.carrier in index.mask_set
    if space.uncovered:
        return DistributiveSpaceVerdict(False, bounded, ("carrier-not-covered", None))
    if _t0_witness(space) is not None:
        return DistributiveSpaceVerdict(False, bounded, ("not-T0", None))
    extra = index.opens - index.mask_set - {0}
    if extra:
        first = sorted_sets(map(_members, extra))[0]
        return DistributiveSpaceVerdict(False, bounded, ("open-not-basic", first))
    bad = index.lattice_violation
    if bad is not None:
        return DistributiveSpaceVerdict(False, bounded, ("basis-not-lattice", bad))
    filters = set(prime_filters_on_basis(space))
    points = {point_filter(space, x) for x in range(space.n_points)}
    if filters != points:
        diff = sorted(filters ^ points, key=set_key)[0]
        return DistributiveSpaceVerdict(False, bounded, ("filter-point-mismatch", diff))
    return DistributiveSpaceVerdict(True, bounded, None)


def analyze_space(space: FiniteSpace) -> SpaceReport:
    """Every flag of the space report, each from its definition.

    The report is built once per space object, on first reading, and
    every later call returns that same object.
    """
    return space._report


def _analyze(space: FiniteSpace) -> SpaceReport:
    witnesses: list[tuple[str, object]] = []
    n = space.n_points
    index = space._index
    ops = index.opens

    twins = _t0_witness(space)
    t0 = twins is None
    if not t0:
        witnesses.append(("is_T0", twins))

    uncovered = space.uncovered
    covers = not uncovered
    if not covers:
        witnesses.append(("covers_carrier", min(uncovered)))

    sober = True
    for f in irreducible_closed_sets(space):
        point, unique = generic_point(space, f)
        if point is None or not unique:
            sober = False
            witnesses.append(("is_sober", f))
            break

    basis_is_all_opens = index.mask_set == ops
    inter_closed = ops.issuperset({u & v for u in index.masks for v in index.masks})
    spectral = covers and t0 and sober and basis_is_all_opens

    hausdorff = True
    around = [[u for u in ops if u >> x & 1] for x in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if not any(not u & v for u in around[x] for v in around[y]):
                hausdorff = False
                if spectral:
                    witnesses.append(("is_boolean", (x, y)))
                break
        if not hausdorff:
            break
    boolean = spectral and hausdorff

    impl_ok, impl_witness = has_implication(space)
    if not impl_ok:
        witnesses.append(("has_implication", impl_witness))

    return SpaceReport(
        is_T0=t0,
        covers_carrier=covers,
        is_compact=covers,
        is_sober=sober,
        is_spectral=spectral,
        is_boolean=boolean,
        has_implication=impl_ok,
        basis_is_all_opens=basis_is_all_opens,
        basis_intersection_closed=inter_closed,
        witnesses=tuple(witnesses),
    )


def constructible_topology(space: FiniteSpace) -> FiniteSpace:
    """Refine a spectral space by the differences of basic opens.

    The new basis collects every U minus V for basic U, V (the carrier
    counted as basic) and closes under unions, on the index bitmasks;
    single differences alone are not union-closed (on the diamond-order
    space {a,d} is a union of differences but no single one).  Every
    singleton is the difference of a point's minimal open and that open
    minus the point, so on a finite spectral space whose basic opens
    meet in opens the result is the discrete, hence Boolean, space.
    """
    if not analyze_space(space).is_spectral:
        raise NotSpectral("constructible topology is defined for spectral spaces")
    index = space._index
    pool = (*index.listed, index.carrier)
    family = _close(_differences(pool), operator.or_)
    basis = tuple(sorted_sets(map(_members, family)))
    return FiniteSpace(space.point_names, basis, tuple(f"C{i}" for i in range(len(basis))))


def is_heyting_basis(space: FiniteSpace) -> bool:
    """Whether the basis lattice has relative pseudo-complements throughout.

    Purely order-algebraic: for each pair U, V the candidates are the
    basic W with W and U intersecting inside V, and the question is
    whether a greatest candidate exists in the lattice.  No appeal to
    the specialization order is made, so agreement with has_implication
    is a genuine cross-check rather than a tautology.  A greatest
    candidate exists exactly when the union of the candidates (their
    join in the lattice) is basic; with no candidate that union is the
    empty set, which is then not basic.  Both depend on U and V only
    through U minus V, so each distinct difference is tried once.
    """
    index = space._index
    _require_lattice(index.lattice_violation)
    masks = index.masks
    for outside in _differences(masks):
        join = 0
        for w in masks:
            if not w & outside:
                join |= w
        if join not in index.mask_set:
            return False
    return True
