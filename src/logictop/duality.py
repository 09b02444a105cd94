"""The finite duality between distributive logics and their prime spectra.

One direction turns a logic into a space: points are the totally prime
theories in canonical order, basic opens are the extents of expressions.
The other direction reads a logic off a space: expressions are the basic
opens, theories are intersections of point filters.  Both directions act
on maps contravariantly, by preimage.  The two comparison maps
(expression to extent, point to point filter) are ordinary logic and
point maps, so the round trips are checked by the same analyzers that
handle arbitrary maps, with every square demanded as an exact equality
rather than up to isomorphism.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from .builders import _implication_table
from .connectives import _table, verify_connectives
from .core import (
    AbstractLogic,
    ConnectiveTables,
    ExprSet,
    LogicIndex,
    _shared,
    close_under_intersection,
    set_key,
    sorted_sets,
)
from .errors import (
    EmptyGeneratorSet,
    MissingJoin,
    NotDistributive,
    NotDistributiveSpace,
    NotSpectralMap,
    NotStable,
)
from .topology import (
    FiniteSpace,
    PointSet,
    _members,
    is_distributive_space,
    opens,
    point_filter,
)


def _images(mapping, n_source: int, n_target: int, what: str) -> tuple[int, ...]:
    """The mapping as a tuple of integer images, one per source element,
    each in range(n_target); a bad image raises ValueError naming its position."""
    images = []
    for a, b in enumerate(mapping):
        try:
            images.append(operator.index(b))
        except TypeError:
            raise ValueError(f"image {b!r} of {what} {a} is not an integer") from None
    if len(images) != n_source:
        raise ValueError(f"one image per source {what}")
    for a, b in enumerate(images):
        if not 0 <= b < n_target:
            raise ValueError(f"image {b} of {what} {a} out of range")
    return tuple(images)


@dataclass(frozen=True)
class LogicMap:
    """An expression translation between two logics."""

    source: AbstractLogic
    target: AbstractLogic
    mapping: tuple[int, ...]

    def __post_init__(self):
        images = _images(self.mapping, self.source.universe_size, self.target.universe_size, "expression")
        object.__setattr__(self, "mapping", images)

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def preimage(self, S: frozenset[int]) -> ExprSet:
        return frozenset(a for a in self.source.exprs if self.mapping[a] in S)


@dataclass(frozen=True)
class PointMap:
    """A point translation between two spaces."""

    source: FiniteSpace
    target: FiniteSpace
    mapping: tuple[int, ...]

    def __post_init__(self):
        images = _images(self.mapping, self.source.n_points, self.target.n_points, "point")
        object.__setattr__(self, "mapping", images)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def preimage(self, S: frozenset[int]) -> PointSet:
        return frozenset(x for x in range(self.source.n_points) if self.mapping[x] in S)


@dataclass(frozen=True)
class MapAnalysis:
    is_logic_map: bool
    is_stable: bool
    is_normal: bool
    is_L_surjective: bool
    is_isomorphism: bool
    witnesses: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class DisjunctionCheck:
    """Both sides of the stability-disjunction equivalence, independently."""

    is_logic_map: bool
    stable: bool
    preserves_join: bool
    agree: bool
    witness: object | None = None


@dataclass(frozen=True)
class SpectrumPresentation:
    """A logic's spectrum plus the bookkeeping the comparison maps need.

    points[i] is the totally prime theory behind point i; expr_to_basis
    sends each expression to the basis slot holding its extent (distinct
    expressions with one extent share a slot).
    """

    space: FiniteSpace
    points: tuple[ExprSet, ...]
    expr_to_basis: tuple[int, ...]


@dataclass(frozen=True)
class DualityReport:
    """Outcome of one trip around the duality.

    iso_ok records whether the comparison map is an isomorphism of the
    right kind for its direction; square_ok whether every checked square
    commutes on the nose, including the naturality square when a map
    rode along.  detail pairs each source expression or point name with
    its name on the far side.
    """

    direction: str
    iso_ok: bool
    square_ok: bool
    detail: tuple[tuple[str, str], ...]
    squares: tuple[tuple[str, bool, object], ...] = ()
    witnesses: tuple[tuple[str, object], ...] = ()


@lru_cache(maxsize=None)
def logic_space(logic: AbstractLogic) -> SpectrumPresentation:
    """The prime spectrum of a distributive logic: the index's primes as
    points, each distinct signature (extent) as a basic open named by its
    expressions joined with "=", so an expression's slot is its class id.
    The space is shared (core._shared): it is the object of an equal
    space document parsed earlier."""
    if not verify_connectives(logic).is_distributive:
        raise NotDistributive("the spectrum construction needs join and meet to hold")
    index = logic._index
    names: dict[int, list[str]] = {}
    for name, s in zip(logic.expr_names, index.signatures):
        names.setdefault(s, []).append(name)
    point_names = tuple(f"p{i}" for i in range(len(index.primes)))
    space = _shared(FiniteSpace(point_names, tuple(map(_members, names)), tuple(map("=".join, names.values()))))
    return SpectrumPresentation(space, index.primes, index.class_of)


@lru_cache(maxsize=None)
def space_logic(space: FiniteSpace) -> AbstractLogic:
    """The logic carried by a distributive space's basis.

    Expressions are the basic opens, theories are the intersection
    closure of the point filters, join and union coincide, and the
    optional connectives appear exactly when the basis supports them:
    implication when it stays basic, bounds when listed, negation as
    implication into the empty basic open.

    The duality stops at spaces with no points.  Such a space passes
    is_distributive_space, but it has no point filter, and a logic needs
    at least one theory, so it is refused with EmptyGeneratorSet.

    The logic is shared (core._shared): the dual of a parsed logic's
    spectrum, when it equals the logic, is that logic's object.
    """
    verdict = is_distributive_space(space)
    if not verdict.distributive:
        raise NotDistributiveSpace(f"not a distributive space: {verdict.witness}")
    if not space.n_points:
        raise EmptyGeneratorSet("a space with no points has no point filter, and a logic needs at least one theory")
    n = len(space.basis)
    generators = [point_filter(space, x) for x in range(space.n_points)]
    theories = close_under_intersection(n, generators)
    masks = space._index.listed
    index = {u: i for i, u in enumerate(masks)}
    join = tuple(tuple([index[u | v] for v in masks]) for u in masks)
    meet = tuple(tuple([index[u & v] for v in masks]) for u in masks)
    impl = _implication_table(masks, space._index.arrows, index)
    top = index.get(space._index.carrier)
    bottom = index.get(0)
    neg = None
    if impl is not None and bottom is not None:
        neg = tuple(impl[i][bottom] for i in range(n))
    tables = ConnectiveTables(join=join, meet=meet, impl=impl, neg=neg, top=top, bottom=bottom)
    return _shared(AbstractLogic(space.basis_names, theories, tables))


def _fibers(mapping: tuple[int, ...], n_target: int) -> list[int]:
    """The source preimage of each target expression, as a bitmask."""
    fibers = [0] * n_target
    for a, b in enumerate(mapping):
        fibers[b] |= 1 << a
    return fibers


def _pull(fibers: list[int], s: ExprSet) -> int:
    """The preimage of a target expression set, as a bitmask."""
    pre = 0
    for b in s:
        pre |= fibers[b]
    return pre


def _theory_preimages(src: LogicIndex, tgt: LogicIndex, fibers: list[int]) -> tuple[list[int], ExprSet | None]:
    """The preimage mask of each target theory, in canonical order, up to
    the first one that is no source theory; and that target theory, or
    None when the mapping is a logic map.

    ``fibers`` are the mapping's fibers over the target (see _fibers).
    """
    preimages = []
    for t in tgt.theories:
        pre = _pull(fibers, t)
        if pre not in src.mask_set:
            return preimages, t
        preimages.append(pre)
    return preimages, None


def analyze_logic_map(m: LogicMap) -> MapAnalysis:
    """Classify a map: logic map, stable, normal, surjective up to equivalence.

    Preimages are bitmasks looked up in the source's index; a failing
    check reports the first witness in canonical order, as expression
    sets.
    """
    src, tgt = m.source._index, m.target._index
    fibers = _fibers(m.mapping, m.target.universe_size)
    witnesses: list[tuple[str, object]] = []
    preimages, bad = _theory_preimages(src, tgt, fibers)
    is_logic = bad is None
    if not is_logic:
        witnesses.append(("is_logic_map", (bad, m.preimage(bad))))

    stable = is_logic
    if is_logic:
        for p in tgt.primes:
            if _pull(fibers, p) not in src.prime_mask_set:
                stable = False
                witnesses.append(("is_stable", p))
                break

    reached = set(preimages)
    normal = is_logic and reached == src.mask_set
    if is_logic and not normal:
        missed = next(t for t, mask in zip(src.theories, src.masks) if mask not in reached)
        witnesses.append(("is_normal", missed))

    classes = tgt.class_of
    image = {classes[b] for b in m.mapping}
    unreached = next((b for b in m.target.exprs if classes[b] not in image), None)
    surjective = unreached is None
    if not surjective:
        witnesses.append(("is_L_surjective", unreached))

    return MapAnalysis(
        is_logic_map=is_logic,
        is_stable=stable,
        is_normal=normal,
        is_L_surjective=surjective,
        is_isomorphism=normal and surjective,
        witnesses=tuple(witnesses),
    )


def stable_iff_disjunction(m: LogicMap, analysis: MapAnalysis | None = None) -> DisjunctionCheck:
    """Compare stability with preservation of joins up to target equivalence.

    The two agree for logic maps.  Arbitrary expression functions can
    preserve joins while failing to be logic maps at all, so callers
    sampling random mappings should gate on is_logic_map.  A caller that
    already holds ``analyze_logic_map(m)`` passes it as ``analysis``.
    """
    if m.source.connectives is None or m.source.connectives.join is None:
        raise MissingJoin("source logic has no join table")
    if m.target.connectives is None or m.target.connectives.join is None:
        raise MissingJoin("target logic has no join table")
    if analysis is None:
        analysis = analyze_logic_map(m)
    f, classes = m.mapping, m.target._index.class_of
    src_join, tgt_join = m.source.connectives.join, m.target.connectives.join
    exprs = m.source.exprs
    witness: object | None = None
    for a in exprs:
        row, image_row = src_join[a], tgt_join[f[a]]
        for b in exprs:
            if classes[f[row[b]]] != classes[image_row[f[b]]]:
                witness = (a, b)
                break
        if witness is not None:
            break
    preserves = witness is None
    if witness is None and not analysis.is_stable:
        witness = next((w for name, w in analysis.witnesses if name == "is_stable"), None)
    return DisjunctionCheck(
        is_logic_map=analysis.is_logic_map,
        stable=analysis.is_stable,
        preserves_join=preserves,
        agree=analysis.is_stable == preserves,
        witness=witness,
    )


def dual_point_map(m: LogicMap) -> PointMap:
    """The spectrum map a stable logic map induces, by theory preimage.

    Contravariant: points of the target logic's spectrum go to points of
    the source logic's spectrum.  Its defining identity: the point
    preimage of an expression's extent is the extent of its image.
    """
    analysis = analyze_logic_map(m)
    if not analysis.is_stable:
        raise NotStable("only stable maps act on spectra", witness=analysis.witnesses)
    src_pres = logic_space(m.source)
    tgt_pres = logic_space(m.target)
    src_index = {p: i for i, p in enumerate(src_pres.points)}
    mapping = tuple(src_index[m.preimage(p)] for p in tgt_pres.points)
    return PointMap(tgt_pres.space, src_pres.space, mapping)


def is_spectral_map(pm: PointMap) -> tuple[bool, PointSet | None]:
    """Whether basic opens pull back to basic opens, allowing empty."""
    basic = set(pm.source.basis) | {frozenset()}
    for u in sorted_sets(pm.target.basis):
        if pm.preimage(u) not in basic:
            return False, u
    return True, None


def dual_logic_map(pm: PointMap) -> LogicMap:
    """The basis translation a point map induces, by open preimage.

    Contravariant, and stricter than is_spectral_map: every preimage
    must literally be a basic open of the point map's source, or there
    is no expression to name it.
    """
    src_logic = space_logic(pm.target)
    tgt_logic = space_logic(pm.source)
    index = {u: i for i, u in enumerate(pm.source.basis)}
    mapping = []
    for u in pm.target.basis:
        pre = pm.preimage(u)
        if pre not in index:
            raise NotSpectralMap(f"preimage of {set_key(u)} is not basic", witness=u)
        mapping.append(index[pre])
    return LogicMap(src_logic, tgt_logic, tuple(mapping))


def basic_open_embedding(logic: AbstractLogic) -> LogicMap:
    """The comparison map from a logic into the logic of its spectrum."""
    pres = logic_space(logic)
    return LogicMap(logic, space_logic(pres.space), pres.expr_to_basis)


def point_filter_embedding(space: FiniteSpace) -> PointMap:
    """The comparison map from a space into its dual logic's spectrum."""
    logic = space_logic(space)
    pres = logic_space(logic)
    index = {p: i for i, p in enumerate(pres.points)}
    mapping = tuple(index[point_filter(space, x)] for x in range(space.n_points))
    return PointMap(space, pres.space, mapping)


def _first_miss(actual: list, expected: list) -> int | None:
    """The first position where two rows of equal length differ, or None."""
    if actual == expected:
        return None
    return list(map(operator.ne, actual, expected)).index(True)


def _connective_squares(m: LogicMap) -> list[tuple[str, bool, object]]:
    """Exact commutation of each connective present on both sides of m.

    Row a of a square compares left[a] sent through m with the row
    right[m(a)] picked at the images of the expressions; only the first
    failing row is scanned for its b.  When m is the identity between
    logics of one size, as the comparison map of a reduced logic is, a
    square holds exactly when the two tables are equal, which is tested
    first.
    """
    f = m.mapping
    identity = f == tuple(range(m.target.universe_size))
    squares: list[tuple[str, bool, object]] = []
    for name in ("join", "meet", "impl"):
        left = _table(m.source, name)
        right = _table(m.target, name)
        if left is None or right is None:
            continue
        ok, witness = True, None
        if identity and left == right:
            squares.append((name, ok, witness))
            continue
        for a, row in enumerate(left):
            picked = right[f[a]]
            b = _first_miss(list(map(f.__getitem__, row)), list(map(picked.__getitem__, f)))
            if b is not None:
                ok, witness = False, (a, b)
                break
        squares.append((name, ok, witness))
    left_neg, right_neg = _table(m.source, "neg"), _table(m.target, "neg")
    if left_neg is not None and right_neg is not None:
        a = _first_miss(list(map(f.__getitem__, left_neg)), list(map(right_neg.__getitem__, f)))
        squares.append(("neg", a is None, a))
    for name in ("top", "bottom"):
        left = _table(m.source, name)
        right = _table(m.target, name)
        if left is not None and right is not None:
            squares.append((name, f[left] == right, None if f[left] == right else left))
    return squares


# direction: (comparison map, dual of a map, dual back, names of the elements)
_TRIPS = {
    "logic": (basic_open_embedding, dual_point_map, dual_logic_map, "expr_names"),
    "space": (point_filter_embedding, dual_logic_map, dual_point_map, "point_names"),
}


def _report(direction: str, m: LogicMap | PointMap, iso_ok: bool, squares: list, witnesses: list, h) -> DualityReport:
    """The report of either roundtrip, given its comparison map m and the
    squares and witnesses of its own checks.  A map h of m's kind out of
    m's source adds the naturality square: h then the far comparison map
    equals m then the doubly dualized h.  Failed squares add witnesses."""
    embed, dual, back, names = _TRIPS[direction]
    if h is not None:
        if h.source is not m.source and h.source != m.source:
            raise ValueError(f"the supplied map must start at the {direction} under test")
        far, doubled = embed(h.target), back(dual(h))
        ok, witness = True, None
        for e, image in enumerate(m.mapping):
            if far(h(e)) != doubled(image):
                ok, witness = False, e
                break
        squares.append(("naturality", ok, witness))
    witnesses += [(name, witness) for name, ok, witness in squares if not ok]
    source_names, target_names = getattr(m.source, names), getattr(m.target, names)
    return DualityReport(
        direction=direction,
        iso_ok=iso_ok,
        square_ok=all(ok for _, ok, _ in squares),
        detail=tuple((source_names[e], target_names[image]) for e, image in enumerate(m.mapping)),
        squares=tuple(squares),
        witnesses=tuple(witnesses),
    )


def roundtrip_logic(logic: AbstractLogic, h: LogicMap | None = None) -> DualityReport:
    """Send a logic around the duality and compare it with the result.

    The comparison map must be stable and an isomorphism (normal and
    surjective up to equivalence); each connective present on both sides
    must commute with it on the nose.  Passing a stable map out of the
    logic also checks the naturality square: translating and then
    comparing equals comparing and then running the doubly dualized map.
    """
    m = basic_open_embedding(logic)
    analysis = analyze_logic_map(m)
    iso_ok = analysis.is_isomorphism and analysis.is_stable
    return _report("logic", m, iso_ok, _connective_squares(m), list(analysis.witnesses), h)


def roundtrip_space(space: FiniteSpace, f: PointMap | None = None) -> DualityReport:
    """Send a space around the duality and compare it with the result.

    The comparison map must be a homeomorphism: bijective, continuous,
    open, and matching each basic open with the extent of the expression
    naming it.  Passing a spectral map out of the space also checks the
    naturality square on points.
    """
    m = point_filter_embedding(space)
    pres = logic_space(space_logic(space))
    witnesses: list[tuple[str, object]] = []

    bijective = len(set(m.mapping)) == m.source.n_points == m.target.n_points
    if not bijective:
        witnesses.append(("bijective", m.mapping))
    src_opens = opens(space)
    tgt_opens = opens(pres.space)
    continuous = all(m.preimage(u) in src_opens for u in pres.space.basis)
    if not continuous:
        witnesses.append(("continuous", next(u for u in pres.space.basis if m.preimage(u) not in src_opens)))
    open_map = all(frozenset(m(x) for x in u) in tgt_opens for u in space.basis)
    if not open_map:
        witnesses.append(("open", next(u for u in space.basis if frozenset(m(x) for x in u) not in tgt_opens)))

    squares: list[tuple[str, bool, object]] = []
    for i, u in enumerate(space.basis):
        extent = pres.space.basis[pres.expr_to_basis[i]]
        ok = m.preimage(extent) == u
        squares.append((space.basis_names[i], ok, None if ok else u))
    return _report("space", m, bijective and continuous and open_map, squares, witnesses, f)
