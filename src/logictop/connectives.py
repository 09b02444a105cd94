"""Connective verification and classification of abstract logics.

Each connective condition is a biconditional quantified over the totally
prime theories; a condition whose table is absent is reported as not
applicable rather than silently true.  Witnesses are minimal in the
canonical theory-then-index order, so failures are reproducible.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Iterable

from .core import (
    AbstractLogic,
    ExprSet,
    LogicIndex,
    _check_universe,
    _mask,
    consequence,
    set_key,
)
from .errors import (
    MissingJoin,
    NotDistributive,
    PreconditionViolated,
    PrimalityFailure,
)
from .topology import _arrow, _arrows

CONDITION_ORDER = ("join", "meet", "neg", "impl", "top", "bottom")


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one connective condition.

    ``status`` is None when the connective is absent (not applicable),
    otherwise the truth of the condition.  ``witness`` is the first
    failing (theory, indices...) tuple in canonical order.
    """

    connective: str
    status: bool | None
    witness: tuple | None = None


@dataclass(frozen=True)
class ClassificationReport:
    conditions: tuple[ConditionCheck, ...]
    classification: str
    maximals_equal_totally_primes: bool
    has_valid_formula: bool
    has_inconsistent_formula: bool

    def condition(self, connective: str) -> ConditionCheck:
        for c in self.conditions:
            if c.connective == connective:
                return c
        raise KeyError(connective)

    def _ok(self, *names: str) -> bool:
        return all(self.condition(n).status is True for n in names)

    @property
    def is_distributive(self) -> bool:
        return self._ok("join", "meet")

    @property
    def is_bounded_distributive(self) -> bool:
        return self.is_distributive and self._ok("top", "bottom")

    @property
    def is_intuitionistic(self) -> bool:
        return self._ok("join", "meet", "neg", "impl")


def _table(logic: AbstractLogic, name: str):
    """The named connective table or designated index, None when absent."""
    if logic.connectives is None:
        return None
    return getattr(logic.connectives, name)


def _check_bound(logic: AbstractLogic, name: str, inside: bool) -> ConditionCheck:
    """The designated expression lies in every theory (inside) or in none."""
    e = _table(logic, name)
    if e is None:
        return ConditionCheck(name, None)
    for t in logic._index.theories:
        if (e in t) != inside:
            return ConditionCheck(name, False, (t,))
    return ConditionCheck(name, True)


def _expected_signatures(name: str, sig: tuple[int, ...], up: tuple[tuple[int, int], ...]) -> list[int]:
    """The signature each entry of the join, meet, neg or impl table must
    have, row by row, for its condition to hold on every prime, given the
    index's signatures and prime upsets.

    a join b lies in a prime exactly when a or b does, and a meet b when
    both do.  a -> b lies in prime i exactly when no prime above it holds
    a and misses b: the arrow of sig[a] into sig[b] on the upsets.  The
    negation of a lies in prime i exactly when a lies in no theory above
    it; every theory lies inside a maximal, hence prime, theory, so that
    is the arrow of sig[a] into nothing.
    """
    if name == "join":
        return [s | t for s in sig for t in sig]
    if name == "meet":
        return [s & t for s in sig for t in sig]
    if name == "neg":
        return [_arrow(up, s, 0) for s in sig]
    arrows = _arrows(sig, up)
    return [arrows[s & ~t] for s in sig for t in sig]


def _check_signed(logic: AbstractLogic, name: str, index: LogicIndex) -> ConditionCheck:
    """The join, meet, neg or impl condition, compared for the whole table
    and every prime at once on the index's signatures.

    Entry k differs from its condition on prime i when bit i of
    sig[entry] ^ expected is set.  The first failing prime in sorted_sets
    order, and the first entry failing there, (a, b) = divmod(k, n), or
    a = k for neg, make the first witness.
    """
    table = _table(logic, name)
    if table is None:
        return ConditionCheck(name, None)
    sig, primes = index.signatures, index.primes
    actual = [sig[e] for e in table] if name == "neg" else [sig[e] for row in table for e in row]
    expected = _expected_signatures(name, sig, index.upsets)
    if actual == expected:
        return ConditionCheck(name, True)
    diffs = list(map(operator.xor, actual, expected))
    bad = reduce(operator.or_, diffs)
    i = min((i for i in range(len(primes)) if bad >> i & 1), key=lambda i: set_key(primes[i]))
    k = next(k for k, d in enumerate(diffs) if d >> i & 1)
    place = (k,) if name == "neg" else divmod(k, logic.universe_size)
    return ConditionCheck(name, False, (primes[i], *place))


@lru_cache(maxsize=None)
def verify_connectives(logic: AbstractLogic) -> ClassificationReport:
    """Check every applicable connective condition and classify the logic.

    The class ladder is none, distributive (join and meet conditions),
    bounded-distributive (adds designated top and bottom), intuitionistic
    (join, meet, neg, impl), classical (intuitionistic with maximal and
    totally prime theories coinciding).  An absent connective never
    upgrades a verdict.
    """
    index = logic._index
    checks = (
        *(_check_signed(logic, name, index) for name in ("join", "meet", "neg", "impl")),
        _check_bound(logic, "top", True),
        _check_bound(logic, "bottom", False),
    )
    report = ClassificationReport(
        conditions=checks,
        classification="none",
        maximals_equal_totally_primes=index.maximals == frozenset(index.primes),
        has_valid_formula=bool(consequence(logic, frozenset())),
        has_inconsistent_formula=bool(logic.full_set.difference(*logic.theories.theories)),
    )
    if report.is_intuitionistic:
        label = "classical" if report.maximals_equal_totally_primes else "intuitionistic"
    elif report.is_bounded_distributive:
        label = "bounded-distributive"
    elif report.is_distributive:
        label = "distributive"
    else:
        return report
    return replace(report, classification=label)


@dataclass(frozen=True)
class DegeneratePrimeReport:
    no_valid_formula: bool
    empty_is_prime: bool
    no_inconsistent_formula: bool
    full_set_is_prime: bool


def check_degenerate_primes(logic: AbstractLogic) -> DegeneratePrimeReport:
    """Both sides of the two degenerate-prime biconditionals.

    No valid formula exists iff the empty set is a prime theory, and no
    inconsistent formula exists iff the full expression set is one.
    Primality of the two extreme sets is taken in the join-stability
    reading, which both satisfy vacuously, so each reduces to family
    membership; in a distributive logic the join-stable theories are
    exactly the intersection-prime ones.  The sides are reported, not
    compared: agreement is the caller's verdict.
    """
    report = verify_connectives(logic)
    if not report.is_distributive:
        raise NotDistributive(f"degenerate-prime check needs a distributive logic, got {report.classification}")
    ths = logic.theories.theories
    return DegeneratePrimeReport(
        no_valid_formula=not report.has_valid_formula,
        empty_is_prime=frozenset() in ths,
        no_inconsistent_formula=not report.has_inconsistent_formula,
        full_set_is_prime=logic.full_set in ths,
    )


def prime_extension(logic: AbstractLogic, T: Iterable[int], S: Iterable[int]) -> ExprSet:
    """Extend the theory T to a prime theory avoiding the join-closed set S.

    Greedy maximalization inside W = {theories containing T and disjoint
    from S}: repeatedly step to the canonically smallest strictly larger
    member of W.  The walk runs on the bitmasks of the logic's index,
    whose theories follow sorted_sets order, and reads primality off its
    prime masks.  A maximal member of W is prime whenever the logic is
    distributive; if the final theory fails the primality check the input
    was not distributive and PrimalityFailure reports it.
    """
    c = logic.connectives
    if c is None:
        raise MissingJoin("prime extension needs a join table to test S")
    t = _check_universe(logic.universe_size, T, "T")
    s = _check_universe(logic.universe_size, S, "S")
    if t not in logic.theories.theories:
        raise PreconditionViolated(f"T={set_key(t)} is not a theory", witness=t)
    if not s:
        raise PreconditionViolated("S must be non-empty")
    for x in s:
        for y in s:
            if c.join[x][y] not in s:
                raise PreconditionViolated(f"S is not join-closed: {x} join {y} escapes", witness=(x, y))
    if t & s:
        raise PreconditionViolated(f"T and S intersect in {set_key(t & s)}", witness=t & s)

    index = logic._index
    avoid = _mask(s)
    current = _mask(t)
    while True:
        bigger = next((u for u in index.masks if u != current and u & current == current and not u & avoid), None)
        if bigger is None:
            break
        current = bigger

    extension = index.theories[index.masks.index(current)]
    if current not in index.prime_mask_set:
        raise PrimalityFailure(
            f"maximal extension {set_key(extension)} is not prime; logic is not distributive",
            witness=extension,
        )
    return extension
