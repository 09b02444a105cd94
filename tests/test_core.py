"""Intersection structures, consequence, and the primality hierarchy."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from logictop.core import (
    AbstractLogic,
    ConnectiveTables,
    TheoryFamily,
    close_under_intersection,
    consequence,
    set_key,
    sorted_sets,
    theory_spectrum,
)
from logictop.duality import LogicMap, analyze_logic_map
from logictop.corpus import corpus_logics

from oracles import (
    oracle_close,
    oracle_consequence,
    oracle_consistent,
    oracle_equivalent,
    oracle_family_error,
    oracle_generates,
    oracle_is_theory,
    oracle_maximals,
    oracle_primes,
    oracle_tables_error,
    oracle_totally_primes,
    quotient_logic,
    random_logic,
    subfamilies,
)


def all_subsets(n):
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def test_theory_family_rejects_unclosed():
    with pytest.raises(ValueError):
        TheoryFamily(2, frozenset({frozenset({0}), frozenset({1})}))


def test_theory_family_rejects_empty_family():
    with pytest.raises(ValueError):
        TheoryFamily(2, frozenset())


def test_theory_family_rejects_out_of_range():
    with pytest.raises(ValueError):
        TheoryFamily(2, frozenset({frozenset({5})}))


@pytest.mark.parametrize("edit, message", [
    ({"join": ((0, 0.5), (1, 1))}, "join table entry 0.5 is not an integer"),
    ({"meet": ((0, 0), ("0", 1))}, "meet table entry '0' is not an integer"),
    ({"meet": ((0, [0]), (1, 1))}, "meet table entry [0] is not an integer"),
    ({"impl": ((1, 1), (None, 1))}, "impl table entry None is not an integer"),
    ({"neg": (1, 0.0)}, "neg table entry 0.0 is not an integer"),
    ({"top": 1.0}, "top index 1.0 is not an integer"),
    ({"bottom": "0"}, "bottom index '0' is not an integer"),
])
def test_connective_tables_refuse_entries_that_are_not_integers(edit, message):
    family = TheoryFamily(2, frozenset({frozenset({1})}))
    tables = ConnectiveTables(**{"join": ((0, 1), (1, 1)), **edit})
    with pytest.raises(ValueError) as err:
        AbstractLogic(("a", "b"), family, tables)
    assert str(err.value) == message


# entries a caller outside the document layer might pass: n stands for
# the universe size, the first index out of range
_ODD = (-1, "n", 1.5, 1.0, True, "0", None)


def _value(draw, n):
    value = draw(st.one_of(st.integers(0, max(n - 1, 0)), st.sampled_from(_ODD)))
    return n if value == "n" else value


def _outcome(check):
    """None, or the (exception name, text) a check raises; an oracle's
    returned error text reads as a ValueError."""
    try:
        text = check()
    except (ValueError, TypeError) as e:
        return type(e).__name__, str(e)
    return None if text is None else ("ValueError", text)


@st.composite
def _edited_families(draw):
    """The theories of a corpus logic with zero to two dropped, and zero to
    two extra sets drawn from in-range and odd entries."""
    _, logic = draw(st.sampled_from(corpus_logics(4)))
    n = logic.universe_size
    theories = sorted_sets(logic.theories.theories)
    for _ in range(draw(st.integers(0, 2))):
        if theories:
            theories.pop(draw(st.integers(0, len(theories) - 1)))
    for _ in range(draw(st.integers(0, 2))):
        theories.append(frozenset(_value(draw, n) for _ in range(draw(st.integers(0, 3)))))
    return n, frozenset(theories)


@settings(max_examples=300, deadline=None)
@given(_edited_families())
def test_family_check_matches_the_loop_oracle(drawn):
    n, theories = drawn

    def build():
        TheoryFamily(n, theories)

    assert _outcome(build) == _outcome(lambda: oracle_family_error(n, theories))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(corpus_logics(4)), st.data())
def test_tables_check_matches_the_loop_oracle(named, data):
    """Zero to two edits of a corpus logic's tables: an entry of join,
    meet, impl or neg set to an in-range or odd value, or a row cut short."""
    c, n = named[1].connectives, named[1].universe_size
    tables = {name: [list(row) for row in getattr(c, name)] for name in ("join", "meet", "impl")
              if getattr(c, name) is not None}
    rows = [row for table in tables.values() for row in table]
    if c.neg is not None:
        tables["neg"] = list(c.neg)
        rows.append(tables["neg"])
    for _ in range(data.draw(st.integers(0, 2))):
        row = data.draw(st.sampled_from(rows))
        if data.draw(st.booleans()):
            row[:] = row[:-1]
        elif row:
            row[data.draw(st.integers(0, len(row) - 1))] = _value(data.draw, n)
    edited = replace(c, **tables)
    assert _outcome(lambda: edited.validate(n)) == _outcome(lambda: oracle_tables_error(edited, n))


def test_close_under_intersection_matches_oracle():
    seeds = [
        [{0, 1}, {1, 2}],
        [{0, 1, 2}, {1, 2, 3}, {2, 3, 0}],
        [{0}, {0, 1}, {2, 3}],
        [set(), {1}],
    ]
    for sets in seeds:
        got = close_under_intersection(4, sets)
        assert got.theories == oracle_close(4, sets)


def test_close_under_intersection_on_random_logics():
    for seed in range(25):
        logic = random_logic(6, seed)
        ths = logic.theories.theories
        # already closed: closing again changes nothing
        assert close_under_intersection(6, ths).theories == ths
        for sub in subfamilies(sorted_sets(ths)):
            acc = sub[0]
            for s in sub[1:]:
                acc &= s
            assert acc in ths


def test_consequence_exhaustive(chain3_logic, boolean4_logic, vframe_logic):
    for logic in (chain3_logic, boolean4_logic, vframe_logic):
        for a in all_subsets(logic.universe_size):
            assert consequence(logic, a) == oracle_consequence(logic, a)


def test_consequence_of_inconsistent_is_everything(chain3_logic):
    # bot sits in no theory, so it entails the whole language
    assert consequence(chain3_logic, {0}) == chain3_logic.full_set


def test_consequence_is_monotone_and_idempotent(small_logics):
    for _, logic in small_logics:
        if logic.universe_size > 5:
            continue
        for a in all_subsets(logic.universe_size):
            ca = consequence(logic, a)
            assert a <= ca or not oracle_consistent(logic, a)
            assert consequence(logic, ca) == ca or ca == logic.full_set


def test_is_theory_and_consistency(chain3_logic):
    theories = chain3_logic.theories
    assert frozenset({2}) in theories and oracle_is_theory(chain3_logic, {2})
    assert frozenset({1, 2}) in theories and oracle_is_theory(chain3_logic, {1, 2})
    assert frozenset({1}) not in theories and not oracle_is_theory(chain3_logic, {1})
    assert frozenset() not in theories and not oracle_is_theory(chain3_logic, set())
    assert oracle_consistent(chain3_logic, {1})
    assert not oracle_consistent(chain3_logic, {0})


def _with_random_logics(small_logics):
    """The small corpus plus random structures, which often repeat columns."""
    return [*small_logics, *((f"random{seed}", random_logic(6, seed)) for seed in range(20))]


def test_membership_matches_closure_reading(small_logics):
    for name, logic in _with_random_logics(small_logics):
        for s in all_subsets(logic.universe_size):
            assert (s in logic.theories) == oracle_is_theory(logic, s), (name, set_key(s))


def test_full_set_is_not_a_theory_in_regular_logics(chain3_logic, boolean4_logic):
    for logic in (chain3_logic, boolean4_logic):
        assert logic.full_set not in logic.theories
        assert not oracle_is_theory(logic, logic.full_set)


def test_spectrum_matches_definition_oracles(small_logics):
    for name, logic in _with_random_logics(small_logics):
        spectrum = theory_spectrum(logic)
        ths = logic.theories.theories
        assert spectrum.primes == oracle_primes(ths), name
        assert spectrum.maximals == oracle_maximals(ths), name
    # the oracle's reading (a subfamily meeting inside T has a member
    # inside T) is intersection-irreducibility only on distributive
    # families; on 8 of the 20 random ones, which are not, it differs
    for name, logic in small_logics:
        assert theory_spectrum(logic).totally_primes == oracle_totally_primes(logic.theories.theories), name


def test_spectrum_chain_of_inclusions(small_logics):
    for name, logic in small_logics:
        spectrum = theory_spectrum(logic)
        assert spectrum.maximals <= spectrum.totally_primes, name
        assert spectrum.totally_primes <= spectrum.primes, name
        assert spectrum.minimal_generators == spectrum.totally_primes, name


def test_primes_equal_totally_primes_on_finite_instances(small_logics):
    # the finite collapse: intersection-irreducible members are already
    # totally prime when every descending chain stabilizes
    for name, logic in small_logics:
        spectrum = theory_spectrum(logic)
        assert spectrum.primes == spectrum.totally_primes, name


def test_worked_spectra(chain3_logic, boolean4_logic, vframe_logic):
    assert sorted_sets(theory_spectrum(chain3_logic).primes) == [
        frozenset({1, 2}),
        frozenset({2}),
    ]
    assert sorted_sets(theory_spectrum(boolean4_logic).primes) == [
        frozenset({1, 3}),
        frozenset({2, 3}),
    ]
    # the principal filter over the join of the two atoms is an
    # intersection of the two filters above it, hence not prime
    assert sorted_sets(theory_spectrum(vframe_logic).primes) == [
        frozenset({1, 3, 4}),
        frozenset({2, 3, 4}),
        frozenset({4}),
    ]
    assert frozenset({3, 4}) in vframe_logic.theories.theories


def test_generator_sets(boolean4_logic):
    spectrum = theory_spectrum(boolean4_logic)
    theories = boolean4_logic.theories.theories
    assert oracle_generates(theories, spectrum.totally_primes)
    # dropping either prime loses the theory it alone recovers
    for g in spectrum.totally_primes:
        assert not oracle_generates(theories, spectrum.totally_primes - {g})


def test_minimal_generators_are_minimal(small_logics):
    for name, logic in small_logics:
        gens = theory_spectrum(logic).minimal_generators
        theories = logic.theories.theories
        assert oracle_generates(theories, gens), name
        for g in gens:
            assert not oracle_generates(theories, gens - {g}), name


def test_logically_equivalent(chain3_logic):
    theories = chain3_logic.theories.theories
    class_of = chain3_logic._index.class_of
    for a in chain3_logic.exprs:
        for b in chain3_logic.exprs:
            expected = {t for t in theories if a in t} == {t for t in theories if b in t}
            assert (class_of[a] == class_of[b]) == expected


def test_equivalence_matches_mutual_consequence(small_logics):
    logics = _with_random_logics(small_logics)
    assert any(quotient_logic(logic)[0].universe_size < logic.universe_size for _, logic in logics)
    for name, logic in logics:
        class_of = logic._index.class_of
        for a in logic.exprs:
            for b in logic.exprs:
                assert (class_of[a] == class_of[b]) == oracle_equivalent(logic, a, b), (name, a, b)


def test_quotient_collapses_duplicate_columns():
    # expressions 1 and 2 are interchangeable in every theory
    family = close_under_intersection(3, [{1, 2}, {0, 1, 2}])
    logic = AbstractLogic(("a", "b", "c"), family)
    small, projection = quotient_logic(logic)
    assert small.universe_size == 2
    assert projection == (0, 1, 1)
    analysis = analyze_logic_map(LogicMap(logic, small, projection))
    assert analysis.is_logic_map and analysis.is_stable and analysis.is_normal
    assert analysis.is_L_surjective


def test_quotient_is_identity_like_when_columns_differ(vframe_logic):
    small, projection = quotient_logic(vframe_logic)
    assert small.universe_size == vframe_logic.universe_size
    assert projection == tuple(range(vframe_logic.universe_size))


def test_set_key_and_sorted_sets():
    sets = [frozenset({2}), frozenset({1, 2}), frozenset()]
    assert set_key(frozenset({2, 1})) == (1, 2)
    assert sorted_sets(sets) == [frozenset(), frozenset({1, 2}), frozenset({2})]


def test_random_logic_is_reproducible():
    assert random_logic(6, 3) == random_logic(6, 3)
    assert random_logic(6, 3) != random_logic(6, 4)


def test_a_logic_is_hashed_once_to_the_generated_value():
    for name, shared in corpus_logics(4):
        logic = replace(shared)  # a fresh object: no test has hashed it yet
        fields = (logic.expr_names, logic.theories, logic.connectives)
        assert "_hash" not in vars(logic)
        assert hash(logic) == hash(fields) == hash(shared), name
        assert vars(logic)["_hash"] == hash(fields)
        renamed = replace(logic, expr_names=tuple(f"r{a}" for a in logic.exprs))
        assert hash(renamed) == hash((renamed.expr_names, logic.theories, logic.connectives)), name
