"""Finite abstract logics as intersection structures.

An abstract logic here is a finite expression universe (indices 0..n-1)
together with a non-empty family of subsets, the theories, closed under
intersections of non-empty subfamilies.  Consequence, consistency and the
primality hierarchy are all derived from the family by exhaustive set
algebra; nothing is axiomatic.  What is derived once per logic (its
hash and its index) is computed lazily, on first reading, and kept.

Expressions are plain ints and expression sets are frozensets of ints.
Every public operation accepts any iterable of indices and normalizes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator

from .errors import BoundExceeded, EmptyGeneratorSet

ExprSet = frozenset[int]


def set_key(s: Iterable[int]) -> tuple[int, ...]:
    """Canonical sort key for expression sets (and point sets alike)."""
    return tuple(sorted(s))


def sorted_sets(sets: Iterable[ExprSet]) -> list[ExprSet]:
    """Deterministic enumeration order used for witnesses and emission."""
    return sorted(sets, key=set_key)


def _check_universe(universe_size: int, s: Iterable[int], what: str) -> ExprSet:
    out = frozenset(s)
    for i in out:
        if not isinstance(i, int) or i < 0 or i >= universe_size:
            raise ValueError(f"{what} contains index {i!r} outside universe of size {universe_size}")
    return out


def _check_indices(rows: Iterable[Iterable], universe: frozenset[int], what: str, outside: str) -> None:
    """Raise ValueError at the first entry of rows, row by row, that is no
    int ("{what} {v!r} is not an integer") or not in universe, the set of
    valid indices ("{what} {v} {outside}").  An int subclass such as bool
    passes.

    Valid rows pass on C builtins alone: the subset test admits only
    entries equal to indices, and those sum to an int unless one of them
    is another kind of number, such as 1.0.
    """
    entries = chain.from_iterable
    try:
        if universe.issuperset(entries(rows)) and type(sum(entries(rows))) is int:
            return
    except TypeError:
        pass  # an unhashable entry, which the scan names
    for row in rows:
        for v in row:
            if not isinstance(v, int):
                raise ValueError(f"{what} {v!r} is not an integer")
            if v not in universe:
                raise ValueError(f"{what} {v} {outside}")


@dataclass(frozen=True)
class TheoryFamily:
    """A non-empty, intersection-closed family of expression sets.

    Closure under intersections of arbitrary non-empty subfamilies is
    equivalent, for a finite family, to closure under pairwise
    intersections; the constructor checks the pairwise form.
    """

    universe_size: int
    theories: frozenset[ExprSet]

    def __post_init__(self):
        fixed = frozenset(map(frozenset, self.theories))
        object.__setattr__(self, "theories", fixed)
        if not fixed:
            raise ValueError("theory family must be non-empty")
        for t in fixed:
            _check_universe(self.universe_size, t, "theory")
        # every pair i < j at once on bitmasks; only a failing family is
        # scanned in its own order, which names the first missing pair
        members = tuple(fixed)
        masks = [_mask(t) for t in members]
        if frozenset(masks).issuperset({a & b for i, a in enumerate(masks) for b in masks[i + 1:]}):
            return
        for a in members:
            for b in members:
                if a & b not in fixed:
                    raise ValueError(f"family not intersection-closed: {set_key(a)} ∩ {set_key(b)} missing")

    def __iter__(self) -> Iterator[ExprSet]:
        return iter(sorted_sets(self.theories))

    def __len__(self) -> int:
        return len(self.theories)

    def __contains__(self, s: object) -> bool:
        return s in self.theories


@dataclass(frozen=True)
class ConnectiveTables:
    """Total lookup tables for the abstract connectives.

    ``join`` is required; the rest are optional and their absence simply
    makes the matching classification condition inapplicable.  ``top`` and
    ``bottom`` are designated expression indices, not tables.
    """

    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...] | None = None
    impl: tuple[tuple[int, ...], ...] | None = None
    neg: tuple[int, ...] | None = None
    top: int | None = None
    bottom: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "join", tuple(map(tuple, self.join)))
        if self.meet is not None:
            object.__setattr__(self, "meet", tuple(map(tuple, self.meet)))
        if self.impl is not None:
            object.__setattr__(self, "impl", tuple(map(tuple, self.impl)))
        if self.neg is not None:
            object.__setattr__(self, "neg", tuple(self.neg))

    def validate(self, n: int) -> None:
        universe = frozenset(range(n))
        for name in ("join", "meet", "impl"):
            table = getattr(self, name)
            if table is None:
                continue
            if len(table) != n or not set(map(len, table)) <= {n}:
                raise ValueError(f"{name} table is not {n}x{n}")
            _check_indices(table, universe, f"{name} table entry", "outside universe")
        if self.neg is not None:
            if len(self.neg) != n:
                raise ValueError("neg table malformed")
            _check_indices((self.neg,), universe, "neg table entry", "outside universe")
        for name in ("top", "bottom"):
            v = getattr(self, name)
            if v is not None:
                _check_indices(((v,),), universe, f"{name} index", "outside universe")


@dataclass(frozen=True)
class AbstractLogic:
    """Expression names, a theory family, and optional connective tables.

    The value-keyed caches hash a logic on every lookup, so its hash is
    computed once per object: the value the generated ``__hash__`` gives,
    read off ``_hash``.  Like ``_index``, it lives in the object's
    ``__dict__``.  It is valid only within one process, since str hashes
    are salted per process: a logic pickled after it was hashed carries
    a stale one.
    """

    expr_names: tuple[str, ...]
    theories: TheoryFamily
    connectives: ConnectiveTables | None = None

    def __post_init__(self):
        object.__setattr__(self, "expr_names", tuple(map(str, self.expr_names)))
        n = len(self.expr_names)
        if n != self.theories.universe_size:
            raise ValueError(f"{n} expression names for universe of size {self.theories.universe_size}")
        if len(set(self.expr_names)) != n:
            raise ValueError("expression names must be distinct")
        if self.connectives is not None:
            self.connectives.validate(n)

    @property
    def universe_size(self) -> int:
        return self.theories.universe_size

    @property
    def exprs(self) -> range:
        return range(self.universe_size)

    @property
    def full_set(self) -> ExprSet:
        return frozenset(self.exprs)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.expr_names, self.theories, self.connectives))

    @cached_property
    def _index(self) -> LogicIndex:
        return LogicIndex.of(self)


def _mask(s: ExprSet) -> int:
    """An expression set as an int bitmask: bit a is set when a is a member."""
    return sum(map((1).__lshift__, s))


@dataclass(frozen=True)
class LogicIndex:
    """A logic's theories, primes and equivalence classes, compiled once.

    Built lazily, once per AbstractLogic object (its ``_index``).
    ``theories`` follows sorted_sets order and ``primes`` the graded
    order (size, then contents), so scanning either finds the same first
    witness as scanning the frozensets; logic_space numbers its points
    in the primes' order, the generic point of a chain first.  ``masks``
    holds the theories as bitmasks; ``mask_set`` and ``prime_mask_set``
    answer membership of a bitmask among the theories and the primes.
    A theory is maximal when it has no strict superset.  It is prime
    unless some non-empty family excluding it intersects to it; such a
    family consists of strict supersets, and then all of them intersect
    to it, so it is prime when their meet differs from it (no
    distributivity needed).  Bit i of ``signatures[a]`` is set when
    expression a lies in primes[i]; ``upsets`` pairs bit i with the mask
    of the primes containing primes[i].  ``class_of`` numbers the
    signatures in order of first appearance: every theory is an
    intersection of primes, so two expressions share a class exactly
    when they lie in the same theories.
    """

    theories: tuple[ExprSet, ...]
    masks: tuple[int, ...]
    mask_set: frozenset[int]
    primes: tuple[ExprSet, ...]
    prime_mask_set: frozenset[int]
    maximals: frozenset[ExprSet]
    signatures: tuple[int, ...]
    upsets: tuple[tuple[int, int], ...]
    class_of: tuple[int, ...]

    @classmethod
    def of(cls, logic: AbstractLogic) -> LogicIndex:
        theories = tuple(sorted_sets(logic.theories.theories))
        masks = tuple(map(_mask, theories))
        # the meet of each theory's strict supersets, -1 when it has none
        meets = [reduce(operator.and_, [u for u in masks if u & m == m and u != m], -1) for m in masks]
        primes = sorted((t for t, m, meet in zip(theories, masks, meets) if meet != m), key=len)
        maximals = frozenset(t for t, meet in zip(theories, meets) if meet == -1)
        signatures = [0] * logic.universe_size
        for i, p in enumerate(primes):
            for a in p:
                signatures[a] |= 1 << i
        every = (1 << len(primes)) - 1
        upsets = tuple((1 << i, reduce(operator.and_, map(signatures.__getitem__, p), every))
                       for i, p in enumerate(primes))
        ids: dict[int, int] = {}
        class_of = tuple(ids.setdefault(s, len(ids)) for s in signatures)
        return cls(theories, masks, frozenset(masks), tuple(primes), frozenset(map(_mask, primes)),
                   maximals, tuple(signatures), upsets, class_of)


@dataclass(frozen=True)
class TheorySpectrum:
    """The primality hierarchy of a theory family.

    On a finite family the prime and totally prime theories coincide,
    and, since finite families are trivially chain-closed, they form
    the least generator set; ``totally_primes`` and
    ``minimal_generators`` read the one stored set.
    """

    primes: frozenset[ExprSet]
    maximals: frozenset[ExprSet]

    @property
    def totally_primes(self) -> frozenset[ExprSet]:
        return self.primes

    @property
    def minimal_generators(self) -> frozenset[ExprSet]:
        return self.primes


def _close(
    seed: Iterable[ExprSet], op: Callable[[ExprSet, ExprSet], ExprSet], limit: int | None = None
) -> frozenset[ExprSet]:
    """Smallest family containing seed and closed under a commutative,
    associative, idempotent binary operation (``operator.and_`` or
    ``operator.or_``, on sets or on int bitmasks).

    The family is grown one seed member g at a time: when the family so
    far is closed, adding g and g combined with each member keeps it
    closed, and a g already in the family adds nothing.  So the work is
    one combination per seed member and member, not per pair of members.
    The seed's own objects stand for their values in the result.  On a
    finite family, closing under the binary operation already closes
    under every non-empty subfamily.

    A family that grows past ``limit`` members raises BoundExceeded at
    once: each seed member at most doubles it, so the work stays within
    about twice the limit however large the closure would be.
    """
    members = set(seed)
    family: set = set()
    for g in members:
        if g not in family:
            family.update(map(op, repeat(g), tuple(family)))
            family.add(g)
            if limit is not None and len(family) > limit:
                raise BoundExceeded(f"the closure has more than {limit} members")
    return frozenset(members | family)  # a union keeps its left side's objects


def close_under_intersection(universe_size: int, generators: Iterable[Iterable[int]]) -> TheoryFamily:
    """Smallest intersection-closed family containing the generators."""
    gens = [_check_universe(universe_size, g, "generator") for g in generators]
    if not gens:
        raise EmptyGeneratorSet("no generators given")
    return TheoryFamily(universe_size, _close(gens, operator.and_))


def consequence(logic: AbstractLogic, A: Iterable[int]) -> ExprSet:
    """Intersection of all theories containing A.

    An inconsistent premise set is contained in no theory; by the ex falso
    convention the intersection over the empty subfamily is the full
    expression set, so inconsistent sets entail everything.
    """
    a = _check_universe(logic.universe_size, A, "A")
    out = logic.full_set
    covered = False
    for t in logic.theories.theories:
        if a <= t:
            out &= t
            covered = True
    return out if covered else logic.full_set


# each value shared so far -> the first object that held it, for the life
# of the process: accepted documents, spectra and dual logics
_VALUES: dict = {}


def _shared(value):
    """The first object equal to value that was shared in this process,
    or value itself when none was.  Values are immutable and equal values
    have equal cached facts, so one object can stand for all of them, and
    its index and reports are built once."""
    return _VALUES.setdefault(value, value)


@lru_cache(maxsize=None)
def theory_spectrum(logic: AbstractLogic) -> TheorySpectrum:
    """Primes, totally primes, maximal theories, and the least generator
    set, read off the logic's index.

    On a finite family every intersecting subfamily is finite, so the
    prime and totally prime notions coincide; the spectrum stores one
    set for both, and the collapse is part of the contract.
    """
    index = logic._index
    return TheorySpectrum(primes=frozenset(index.primes), maximals=index.maximals)
