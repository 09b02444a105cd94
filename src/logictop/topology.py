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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .core import _close, set_key, sorted_sets
from .errors import (
    BasisNotLattice,
    NoImplication,
    NotBasic,
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
        seen = set()
        for b in self.basis:
            for p in b:
                if not 0 <= p < n:
                    raise ValueError(f"basis point {p} out of range")
            if b in seen:
                raise ValueError(f"duplicate basis element {set_key(b)}")
            seen.add(b)

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

    def basis_index(self, U: Iterable[int]) -> int:
        u = frozenset(U)
        try:
            return self.basis.index(u)
        except ValueError:
            raise NotBasic(f"{set_key(u)} is not a basis element", witness=u) from None

    def point_index(self, name: str) -> int:
        return self.point_names.index(name)


@dataclass(frozen=True)
class SpecializationOrder:
    """x below y when y lies in every basic open containing x.

    A preorder in general; antisymmetric exactly when the space is T0.
    """

    point_names: tuple[str, ...]
    matrix: tuple[tuple[bool, ...], ...]

    def leq(self, x: int, y: int) -> bool:
        return self.matrix[x][y]

    def upset(self, x: int) -> PointSet:
        return frozenset(y for y in range(len(self.point_names)) if self.matrix[x][y])

    @property
    def is_antisymmetric(self) -> bool:
        n = len(self.point_names)
        return all(not (self.matrix[x][y] and self.matrix[y][x]) for x in range(n) for y in range(n) if x != y)


@dataclass(frozen=True)
class SpaceReport:
    is_T0: bool
    covers_carrier: bool
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


@lru_cache(maxsize=None)
def opens(space: FiniteSpace) -> frozenset[PointSet]:
    """All unions of basis elements, including the empty union."""
    return _close((frozenset(), *space.basis), operator.or_)


def closed_sets(space: FiniteSpace) -> frozenset[PointSet]:
    return frozenset(space.carrier - o for o in opens(space))


def closure(space: FiniteSpace, A: Iterable[int]) -> PointSet:
    """Smallest closed superset of A."""
    a = frozenset(A)
    if not a <= space.carrier:
        raise ValueError(f"points {set_key(a - space.carrier)} outside the carrier")
    out = space.carrier
    for c in closed_sets(space):
        if a <= c and c < out:
            out = c
    return out


def _t0_witness(space: FiniteSpace) -> tuple[int, int] | None:
    """The first two points lying in the same basic opens, if any."""
    seen: dict[frozenset[int], int] = {}
    for x in range(space.n_points):
        profile = point_filter(space, x)
        if profile in seen:
            return seen[profile], x
        seen[profile] = x
    return None


def is_t0(space: FiniteSpace) -> bool:
    return _t0_witness(space) is None


def point_filter(space: FiniteSpace, x: int) -> frozenset[int]:
    """Indices of the basic opens containing x."""
    return frozenset(i for i, b in enumerate(space.basis) if x in b)


def irreducible_closed_sets(space: FiniteSpace) -> tuple[PointSet, ...]:
    """Non-empty closed sets that are not unions of two smaller closed sets."""
    cls = closed_sets(space)
    out = []
    for f in cls:
        if not f:
            continue
        parts = [c for c in cls if c <= f and c != f]
        if any(c1 | c2 == f for c1 in parts for c2 in parts):
            continue
        out.append(f)
    return tuple(sorted_sets(out))


def generic_point(space: FiniteSpace, F: Iterable[int]) -> tuple[int | None, bool]:
    """A point whose closure is F, if any, with a uniqueness flag."""
    f = frozenset(F)
    if f not in closed_sets(space) or not f:
        raise NotClosed(f"{set_key(f)} is not a non-empty closed set", witness=f)
    candidates = [y for y in sorted(f) if closure(space, {y}) == f]
    if not candidates:
        return None, False
    return candidates[0], len(candidates) == 1


@lru_cache(maxsize=None)
def specialization_order(space: FiniteSpace) -> SpecializationOrder:
    n = space.n_points
    matrix = tuple(
        tuple(all(y in b for b in space.basis if x in b) for y in range(n))
        for x in range(n)
    )
    return SpecializationOrder(space.point_names, matrix)


def _arrow(upsets: Iterable[tuple[int, PointSet]], u: PointSet, v: PointSet) -> PointSet:
    """The points x, among (x, upset of x) pairs, whose upset meets u only inside v."""
    return frozenset(x for x, up in upsets if up & u <= v)


def implication_open(space: FiniteSpace, U: Iterable[int], V: Iterable[int]) -> PointSet:
    """The set of points x whose upset meets U only inside V.

    This is the candidate Heyting implication of two basic opens; whether
    it lands back in the basis is has_implication's question.
    """
    u = frozenset(U)
    v = frozenset(V)
    if u not in space.basis:
        raise NotBasic(f"U={set_key(u)} is not basic", witness=u)
    if v not in space.basis:
        raise NotBasic(f"V={set_key(v)} is not basic", witness=v)
    order = specialization_order(space)
    return _arrow(((x, order.upset(x)) for x in range(space.n_points)), u, v)


def has_implication(space: FiniteSpace) -> tuple[bool, tuple[PointSet, PointSet] | None]:
    """Whether every implication of basic opens is again a basic open.

    The empty set only counts when the basis lists it; a basis without
    the empty open loses implications that come out empty.
    """
    basic = set(space.basis)
    ordered = sorted_sets(space.basis)
    for u in ordered:
        for v in ordered:
            if implication_open(space, u, v) not in basic:
                return False, (u, v)
    return True, None


def _lattice_violation(sets: Sequence[PointSet]) -> tuple[PointSet, PointSet] | None:
    """The first pair, in list order, whose union or intersection leaves the list."""
    members = set(sets)
    for u in sets:
        for v in sets:
            if u | v not in members or u & v not in members:
                return (u, v)
    return None


def _require_lattice(sets: Sequence[PointSet]) -> None:
    bad = _lattice_violation(sets)
    if bad is not None:
        raise BasisNotLattice(
            f"basis not closed under union/intersection at {set_key(bad[0])}, {set_key(bad[1])}",
            witness=bad,
        )


def prime_filters_on_basis(space: FiniteSpace) -> tuple[frozenset[int], ...]:
    """All prime filters on the basis lattice, as sets of basis indices.

    Filters on a finite lattice are principal, so the enumeration runs
    over the upsets of single basis elements and keeps the join-prime
    ones.  Properness is read as avoiding the empty basic open: when the
    basis has no empty member, the filter generated by the least basic
    open (the whole lattice) is admitted, matching the point filter of a
    point lying in every basic open.
    """
    _require_lattice(sorted_sets(space.basis))
    empty = frozenset()
    out = set()
    basis = space.basis
    for g in basis:
        if g == empty:
            continue  # its upset contains the empty open, never proper
        members = frozenset(i for i, u in enumerate(basis) if g <= u)
        prime = all(
            not (g <= u | v) or (g <= u) or (g <= v)
            for u in basis for v in basis
        )
        if prime:
            out.add(members)
    return tuple(sorted(out, key=set_key))


def is_distributive_space(space: FiniteSpace) -> DistributiveSpaceVerdict:
    """Distributive-space recognition with finite readings.

    Conditions: T0; the basis covers the carrier and, up to the empty
    set, captures every open (all opens are compact here); the basis is
    a lattice under union and intersection; and the prime filters on the
    basis are exactly the point filters.  Bounded means the basis lists
    both the empty set and the carrier.
    """
    bounded = frozenset() in space.basis and space.carrier in space.basis
    if space.uncovered:
        return DistributiveSpaceVerdict(False, bounded, ("carrier-not-covered", None))
    if not is_t0(space):
        return DistributiveSpaceVerdict(False, bounded, ("not-T0", None))
    extra = opens(space) - set(space.basis) - {frozenset()}
    if extra:
        return DistributiveSpaceVerdict(False, bounded, ("open-not-basic", sorted_sets(extra)[0]))
    bad = _lattice_violation(sorted_sets(space.basis))
    if bad is not None:
        return DistributiveSpaceVerdict(False, bounded, ("basis-not-lattice", bad))
    filters = set(prime_filters_on_basis(space))
    points = {point_filter(space, x) for x in range(space.n_points)}
    if filters != points:
        diff = sorted(filters ^ points, key=set_key)[0]
        return DistributiveSpaceVerdict(False, bounded, ("filter-point-mismatch", diff))
    return DistributiveSpaceVerdict(True, bounded, None)


def check_adjunction(space: FiniteSpace) -> tuple[bool, tuple | None]:
    """W below U->V exactly when W meets U inside V, over all basic triples."""
    ok, witness = has_implication(space)
    if not ok:
        raise NoImplication(f"implication leaves the basis at {witness}", witness=witness)
    ordered = sorted_sets(space.basis)
    for u in ordered:
        for v in ordered:
            arrow = implication_open(space, u, v)
            for w in ordered:
                if (w <= arrow) != (w & u <= v):
                    return False, (u, v, w)
    return True, None


def analyze_space(space: FiniteSpace) -> SpaceReport:
    """Every flag of the space report, each from its definition."""
    witnesses: list[tuple[str, object]] = []
    n = space.n_points
    ops = opens(space)

    twins = _t0_witness(space)
    t0 = twins is None
    if not t0:
        witnesses.append(("is_T0", twins))

    uncovered = space.uncovered
    covers = not uncovered
    if not covers:
        witnesses.append(("covers_carrier", min(uncovered)))

    compact = space.carrier in ops

    sober = True
    for f in irreducible_closed_sets(space):
        point, unique = generic_point(space, f)
        if point is None or not unique:
            sober = False
            witnesses.append(("is_sober", f))
            break

    basis_is_all_opens = set(space.basis) == ops
    inter_closed = all(u & v in ops for u in space.basis for v in space.basis)
    spectral = covers and t0 and sober and basis_is_all_opens

    hausdorff = True
    for x in range(n):
        for y in range(x + 1, n):
            if not any(x in u and y in v and not (u & v) for u in ops for v in ops):
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
        is_compact=compact,
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

    The new basis collects every U minus V for basic U, V and closes
    under unions; single differences alone are not union-closed (on the
    diamond-order space {a,d} is a union of differences but no single
    one).  Every singleton is the difference of a point's minimal open
    and that open minus the point, so on a finite spectral space the
    result is the discrete, hence Boolean, space.
    """
    report = analyze_space(space)
    if not report.is_spectral:
        raise NotSpectral("constructible topology is defined for spectral spaces")
    carrier = space.carrier
    pool = set(space.basis) | {carrier}
    fresh = {u & (carrier - v) for u in pool for v in pool}
    staged = FiniteSpace(space.point_names, tuple(sorted_sets(fresh)))
    basis = tuple(sorted_sets(opens(staged)))
    return FiniteSpace(space.point_names, basis, tuple(f"C{i}" for i in range(len(basis))))


def is_heyting_basis(space: FiniteSpace) -> bool:
    """Whether the basis lattice has relative pseudo-complements throughout.

    Purely order-algebraic: for each pair U, V the candidates are the
    basic W with W and U intersecting inside V, and the question is
    whether a greatest candidate exists in the lattice.  No appeal to
    the specialization order is made, so agreement with has_implication
    is a genuine cross-check rather than a tautology.
    """
    _require_lattice(sorted_sets(space.basis))
    for u in space.basis:
        for v in space.basis:
            candidates = [w for w in space.basis if w & u <= v]
            if not candidates:
                return False
            if not any(all(c <= w for c in candidates) for w in candidates):
                return False
    return True
