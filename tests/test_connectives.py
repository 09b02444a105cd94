"""Connective conditions, classification, and the prime machinery."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from logictop.builders import FinitePoset, heyting_from_upsets, logic_from_lattice_filters
from logictop.connectives import (
    CONDITION_ORDER,
    ConditionCheck,
    check_degenerate_primes,
    prime_extension,
    verify_connectives,
)
from logictop.core import AbstractLogic, ConnectiveTables, close_under_intersection, theory_spectrum
from logictop.corpus import corpus_logics
from logictop.duality import LogicMap, _connective_squares
from logictop.errors import NotDistributive, PreconditionViolated

from oracles import (
    oracle_bottom_condition,
    oracle_condition_check,
    oracle_connective_squares,
    oracle_consequence,
    oracle_consistent,
    oracle_disjunctive_closure,
    oracle_impl_condition,
    oracle_join_condition,
    oracle_join_stable_theories,
    oracle_meet_condition,
    oracle_neg_condition,
    oracle_top_condition,
    oracle_upsets,
    random_logic,
)

ORACLES = {
    "join": oracle_join_condition,
    "meet": oracle_meet_condition,
    "neg": oracle_neg_condition,
    "impl": oracle_impl_condition,
    "top": oracle_top_condition,
    "bottom": oracle_bottom_condition,
}


def test_condition_order_is_stable():
    assert CONDITION_ORDER == ("join", "meet", "neg", "impl", "top", "bottom")


def test_conditions_match_oracles(small_logics):
    for name, logic in small_logics:
        report = verify_connectives(logic)
        for connective in CONDITION_ORDER:
            expected = ORACLES[connective](logic)
            assert report.condition(connective).status == expected, (name, connective)


def test_worked_classifications(chain3_logic, boolean4_logic, vframe_logic):
    r3 = verify_connectives(chain3_logic)
    assert r3.classification == "intuitionistic"
    assert not r3.maximals_equal_totally_primes
    r22 = verify_connectives(boolean4_logic)
    assert r22.classification == "classical"
    assert r22.maximals_equal_totally_primes
    rv = verify_connectives(vframe_logic)
    assert rv.classification == "intuitionistic"
    assert not rv.maximals_equal_totally_primes
    for report in (r3, r22, rv):
        assert all(report.condition(c).status is True for c in CONDITION_ORDER)
        assert report.is_bounded_distributive


def test_classification_without_tables():
    logic = AbstractLogic(("a", "b"), close_under_intersection(2, [{0}, {0, 1}]))
    report = verify_connectives(logic)
    assert report.classification == "none"
    assert all(report.condition(c).status is None for c in CONDITION_ORDER)


def test_failing_condition_reports_first_witness(boolean4_logic):
    # swap the join table for the meet table: top v top lands at bot
    broken = AbstractLogic(
        boolean4_logic.expr_names,
        boolean4_logic.theories,
        boolean4_logic.connectives.__class__(
            join=boolean4_logic.connectives.meet,
            meet=boolean4_logic.connectives.meet,
        ),
    )
    check = verify_connectives(broken).condition("join")
    assert check.status is False
    t, a, b = check.witness
    c = broken.connectives
    assert (c.join[a][b] in t) != (a in t or b in t)


def test_join_stable_equals_primes(small_logics):
    for name, logic in small_logics:
        if logic.connectives is None or logic.connectives.join is None:
            continue
        if not verify_connectives(logic).is_distributive:
            continue
        assert oracle_join_stable_theories(logic) == theory_spectrum(logic).primes, name


def test_degenerate_quartet_flags(quartet):
    for name, logic, expected in quartet:
        report = check_degenerate_primes(logic)
        got = (
            report.no_valid_formula,
            report.empty_is_prime,
            report.no_inconsistent_formula,
            report.full_set_is_prime,
        )
        assert got == expected, name


def test_degenerate_biconditionals_hold_on_the_corpus():
    for name, logic in corpus_logics():
        if not verify_connectives(logic).is_distributive:
            continue
        report = check_degenerate_primes(logic)
        assert report.no_valid_formula == report.empty_is_prime, name
        assert report.no_inconsistent_formula == report.full_set_is_prime, name
        assert report.no_valid_formula == (not oracle_consequence(logic, ())), name
        consistent = all(any(a in t for t in logic.theories.theories) for a in logic.exprs)
        assert report.no_inconsistent_formula == consistent, name


def test_degenerate_check_requires_distributive():
    logic = AbstractLogic(("a", "b"), close_under_intersection(2, [{0}, {0, 1}]))
    with pytest.raises(NotDistributive):
        check_degenerate_primes(logic)


def test_disjunctive_closure_is_a_closure(boolean4_logic, vframe_logic):
    for logic in (boolean4_logic, vframe_logic):
        join = logic.connectives.join
        n = logic.universe_size
        for mask in range(1, 1 << n):
            b = frozenset(i for i in range(n) if mask >> i & 1)
            s = oracle_disjunctive_closure(logic, b)
            assert b <= s
            assert all(join[x][y] in s for x in s for y in s)
            # least: no proper superset of b closed under join is smaller
            assert all(
                not (b <= other < s)
                for other_mask in range(1 << n)
                for other in [frozenset(i for i in range(n) if other_mask >> i & 1)]
                if all(join[x][y] in other for x in other for y in other)
            )


def test_prime_extension_exhaustive(chain3_logic, boolean4_logic, vframe_logic):
    # every admissible pair, against the enumerated primes
    for logic in (chain3_logic, boolean4_logic, vframe_logic):
        join = logic.connectives.join
        n = logic.universe_size
        primes = theory_spectrum(logic).primes
        join_closed = [
            s
            for mask in range(1, 1 << n)
            for s in [frozenset(i for i in range(n) if mask >> i & 1)]
            if all(join[x][y] in s for x in s for y in s)
        ]
        pairs = 0
        for t in logic.theories.theories:
            for s in join_closed:
                if s & t:
                    continue
                pairs += 1
                p = prime_extension(logic, t, s)
                assert p in primes and t <= p and not (p & s)
        assert pairs > 0


def test_prime_extension_rejects_bad_inputs(boolean4_logic):
    with pytest.raises(PreconditionViolated):
        prime_extension(boolean4_logic, frozenset({1}), frozenset({0}))  # not a theory
    with pytest.raises(PreconditionViolated):
        prime_extension(boolean4_logic, frozenset({3}), frozenset({1, 2}))  # not join-closed
    with pytest.raises(PreconditionViolated):
        prime_extension(boolean4_logic, frozenset({3}), frozenset({3}))  # overlaps T


_EDITABLE = ("join", "meet", "impl", "neg")


@st.composite
def _edited_logics(draw):
    """A logic with tables and a copy with zero to three of its join,
    meet, impl or neg entries set to any index.  The logic is one of
    corpus_logics(4) (which ends with the degenerate quartet), each of
    its tables kept or replaced by a fully random one, or a random_logic
    on 1 to 8 expressions with four fully random tables."""
    if draw(st.booleans()):
        logic = random_logic(draw(st.integers(1, 8)), draw(st.integers(0, 2**16)))
    else:
        _, logic = draw(st.sampled_from(corpus_logics(4)))
    c, n = logic.connectives, logic.universe_size
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    tables = {}
    for name in _EDITABLE:
        own = None if c is None else getattr(c, name)
        if c is None or (own is not None and draw(st.booleans())):
            own = draw(row) if name == "neg" else [draw(row) for _ in range(n)]
        if own is not None:
            tables[name] = own
    logic = AbstractLogic(logic.expr_names, logic.theories,
                          ConnectiveTables(**tables) if c is None else replace(c, **tables))
    tables = {name: list(t) if name == "neg" else [list(r) for r in t] for name, t in tables.items()}
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(tables)))
        cells = tables[name] if name == "neg" else tables[name][draw(st.integers(0, n - 1))]
        cells[draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return logic, AbstractLogic(logic.expr_names, logic.theories, replace(logic.connectives, **tables))


@settings(max_examples=300, deadline=None)
@given(_edited_logics(), st.data())
def test_conditions_and_squares_match_the_loop_oracles(drawn, data):
    # a failing condition's prime is the lowest differing signature bit,
    # and its witness the first entry differing there
    logic, edited = drawn
    report = verify_connectives(edited)
    for name in CONDITION_ORDER:
        assert report.condition(name) == ConditionCheck(name, *oracle_condition_check(edited, name)), name
    assert report.has_inconsistent_formula == any(not oracle_consistent(edited, {a}) for a in edited.exprs)
    n = logic.universe_size
    identity = tuple(range(n))
    for source, target in ((edited, logic), (logic, edited)):
        mapping = data.draw(st.one_of(st.just(identity), st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        m = LogicMap(source, target, mapping)
        assert _connective_squares(m) == oracle_connective_squares(m)


def _frame_with_upsets(rng: random.Random, size: int) -> FinitePoset:
    """A random 6-point frame with exactly size upsets: pairs of a random
    linear order, each kept with one random density, drawn until one fits."""
    names = [f"x{i}" for i in range(6)]
    while True:
        order = rng.sample(names, 6)
        density = rng.uniform(0, 0.3)
        pairs = [(order[i], order[j]) for i in range(6) for j in range(i + 1, 6) if rng.random() < density]
        frame = FinitePoset.from_pairs(names, pairs)
        if len(oracle_upsets(frame.leq)) == size:
            return frame


@pytest.mark.parametrize("size, seed", [(48, 0), (48, 1), (64, 0)])
def test_conditions_match_the_loop_oracle_on_large_filter_logics(size, seed):
    # the filter logics of the largest 6-point frames, where every table
    # condition holds and so is answered by the signature test alone
    logic = logic_from_lattice_filters(heyting_from_upsets(_frame_with_upsets(random.Random(seed), size)))
    assert logic.universe_size == size
    report = verify_connectives(logic)
    for name in CONDITION_ORDER:
        assert report.condition(name) == ConditionCheck(name, *oracle_condition_check(logic, name)), name
    assert report.classification in ("intuitionistic", "classical")
