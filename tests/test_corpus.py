"""Criterion 5 on every admissible pair, criterion 6 on each distinct
draw once, and run_all's order.

Criterion 5's bitmask enumerator must yield exactly the pairs that the
brute-force oracle finds from every subset of each theory's complement.
The unmemoized criterion-6 loop in oracles.py draws the same instances
and checks every draw afresh; the library must give the same counts and
the same failures, also when a check fails on an instance that is drawn
more than once.  Criterion 6 reads each pair's draws from one block of
generator words that must equal the randrange stream, and rejects every
draw of the block that is no logic map at once, on bitmasks, before any
analysis; that block gate must agree draw by draw with the per-map gate.
Criterion 5's bitmask walk must find the frozenset walk's prime, or fail
with the same witness and message.  A corpus run analyses each space
object once.
"""

import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from logictop import corpus, duality, topology
from logictop.connectives import prime_extension
from logictop.core import AbstractLogic, ConnectiveTables, TheoryFamily, set_key, theory_spectrum
from logictop.duality import (
    LogicMap,
    _fibers,
    _theory_preimages,
    analyze_logic_map,
)
from logictop.errors import PreconditionViolated, PrimalityFailure

from oracles import (
    oracle_analyze_logic_map,
    oracle_extension_pairs,
    oracle_prime_extension,
    oracle_stability_pair,
    random_logic,
)


def _stability_pairs(max_points=3):
    """Criterion 6's (source, target) pairs of named small corpus logics,
    each with a join table."""
    small = [(name, logic) for name, logic in corpus._distributive_logics(max_points) if logic.universe_size <= 6]
    assert all(logic.connectives.join is not None for _, logic in small)
    return [(src, tgt) for src in small for tgt in small]


@pytest.mark.parametrize("seed", [0, 1])
def test_stability_pair_matches_the_unmemoized_oracle(seed):
    pairs = _stability_pairs()
    assert len(pairs) > 1
    for src, tgt in pairs:
        assert corpus._stability_pair(src, tgt, seed, 500) == oracle_stability_pair(src, tgt, seed, 500)


@pytest.mark.parametrize("seed", range(5))
def test_randrange_block_is_the_randrange_stream(seed):
    # At n = 128 and the other powers of two half the words are
    # rejected, so a count of 3,000 needs a second block.
    for n in range(1, 256):
        rng = random.Random(seed)
        stream = bytes(rng.randrange(n) for _ in range(3000))
        for count in (0, 1, 7, 3000):
            assert corpus._randrange_block(random.Random(seed), n, count) == stream[:count], (n, count)


def test_randrange_tables_match_the_per_byte_form():
    for n in range(1, 256):
        shift = 8 - n.bit_length()
        keep = bytes(b >> shift for b in range(256))
        reject = bytes(b for b in range(256) if b >> shift >= n)
        assert corpus._randrange_tables(n) == (keep, reject), n


@pytest.mark.parametrize("n", [0, 256])
def test_randrange_block_rejects_a_bound_outside_one_byte(n):
    with pytest.raises(ValueError):
        corpus._randrange_block(random.Random(0), n, 0)


def test_stability_pair_counts_every_draw_from_an_empty_source():
    empty = ("empty", corpus._logic((), [()], (), ()))
    for _, target in _stability_pairs()[:3]:
        result = corpus._stability_pair(empty, target, 0, 500)
        assert result == oracle_stability_pair(empty, target, 0, 500) and result[0] == 500


def test_stability_pair_analyses_each_logic_map_once(monkeypatch):
    calls = Counter()
    real = duality.analyze_logic_map

    def counting(m):
        calls[m.mapping] += 1
        return real(m)

    # Wherever a module binds it, so a second, direct call would count.
    for module in (corpus, duality):
        if hasattr(module, "analyze_logic_map"):
            monkeypatch.setattr(module, "analyze_logic_map", counting)
    for src, tgt in _stability_pairs():
        calls.clear()
        _, logic_maps, _ = corpus._stability_pair(src, tgt, 0, 500)
        assert len(calls) <= logic_maps
        assert set(calls.values()) <= {1}, src[0] + "->" + tgt[0]


def _repeated(monkeypatch, name, key, run):
    """The keys of the calls to corpus.<name> that run() makes more than
    once, in order of first call, and the count of each key."""
    real = getattr(corpus, name)
    calls = Counter()

    def counting(*args):
        calls[key(*args)] += 1
        return real(*args)

    monkeypatch.setattr(corpus, name, counting)
    run()
    monkeypatch.setattr(corpus, name, real)
    return [k for k, count in calls.items() if count > 1], calls


def test_stability_pair_fails_at_the_first_draw_of_a_repeated_disagreeing_map(monkeypatch):
    src, tgt = next(
        (src, tgt) for src, tgt in _stability_pairs()
        if src[1].universe_size >= 3 and tgt[1].universe_size >= 3
    )
    real = corpus.stable_iff_disjunction
    repeated, _ = _repeated(
        monkeypatch, "stable_iff_disjunction", lambda m: m.mapping, lambda: oracle_stability_pair(src, tgt, 0, 500)
    )
    bad = repeated[-1]

    def disagreeing(m):
        check = real(m)
        return dataclasses.replace(check, agree=False) if m.mapping == bad else check

    monkeypatch.setattr(corpus, "stable_iff_disjunction", disagreeing)
    expected = oracle_stability_pair(src, tgt, 0, 500)
    assert expected[2] == f"{src[0]}->{tgt[0]}: lemma fails at {bad}"
    assert expected[0] > 1
    assert corpus._stability_pair(src, tgt, 0, 500) == expected


def _pairs(logic):
    """The enumerator's pairs, each once, theories in sorted order."""
    pairs = list(corpus._extension_pairs(logic))
    assert len(set(pairs)) == len(pairs)
    assert [t for t, _ in pairs] == sorted((t for t, _ in pairs), key=set_key)
    return set(pairs)


def test_extension_pairs_match_the_oracle_logic_by_logic():
    logics = corpus._extension_logics(4)
    assert len(logics) == 26
    for name, logic in logics:
        assert _pairs(logic) == oracle_extension_pairs(logic), name


@pytest.mark.parametrize("half", [0, 1])
def test_prime_extension_logic_matches_the_oracle_logic_by_logic(monkeypatch, half):
    # the criterion on one logic at a time checks exactly the oracle's
    # pairs; the two cases share the logics of max-points 4 between them
    logics = corpus._extension_logics(4)[half::2]
    assert len(logics) == 13
    for name, logic in logics:
        monkeypatch.setattr(corpus, "_extension_logics", lambda max_points: [(name, logic)])
        pairs = len(oracle_extension_pairs(logic))
        expected = corpus.CriterionResult(5, "prime-extension", True, f"{pairs} admissible pairs")
        assert corpus.criterion_prime_extension(4) == expected, name


@st.composite
def _joined_logics(draw):
    """A random intersection structure with a random join table, which
    need be neither commutative nor idempotent."""
    logic = random_logic(draw(st.integers(1, 7)), draw(st.integers(0, 10**6)))
    n = logic.universe_size
    join = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    return AbstractLogic(logic.expr_names, logic.theories, ConnectiveTables(join=join))


@settings(max_examples=150, deadline=None)
@given(_joined_logics())
def test_extension_pairs_match_the_oracle_on_random_join_tables(logic):
    assert _pairs(logic) == oracle_extension_pairs(logic)


def _assert_prime_extension_matches(logic, t, s):
    """prime_extension against the frozenset walk: the same prime, or a
    PrimalityFailure with the same witness and message."""
    try:
        expected = oracle_prime_extension(logic, t, s)
    except PrimalityFailure as failure:
        with pytest.raises(PrimalityFailure) as err:
            prime_extension(logic, t, s)
        assert (err.value.witness, str(err.value)) == (failure.witness, str(failure)), (t, s)
    else:
        assert prime_extension(logic, t, s) == expected, (t, s)


@settings(max_examples=150, deadline=None)
@given(_joined_logics())
def test_prime_extension_matches_the_oracle_on_random_join_tables(logic):
    for t, s in corpus._extension_pairs(logic):
        _assert_prime_extension_matches(logic, t, s)


def test_prime_extension_reports_a_non_prime_maximal_theory():
    # {2} = {0,2} ∩ {1,2} is the only theory above {2} that misses {0,1}
    theories = TheoryFamily(3, frozenset(map(frozenset, ({2}, {0, 2}, {1, 2}, {0, 1, 2}))))
    join = [[max(a, b) for b in range(3)] for a in range(3)]
    logic = AbstractLogic(("a", "b", "c"), theories, ConnectiveTables(join=join))
    t, s = frozenset({2}), frozenset({0, 1})
    assert (t, s) in set(corpus._extension_pairs(logic))
    with pytest.raises(PrimalityFailure) as err:
        prime_extension(logic, t, s)
    assert str(err.value) == "maximal extension (2,) is not prime; logic is not distributive"
    assert err.value.witness == t
    _assert_prime_extension_matches(logic, t, s)


@pytest.mark.parametrize("seed", [0, 1])
def test_prime_extension_criterion_matches_the_unmemoized_oracle(seed):
    # every oracle pair is checked once, whatever the seed
    pairs = sum(len(oracle_extension_pairs(logic)) for _, logic in corpus._extension_logics(3))
    result = corpus.run_all(3, seed)[4]
    assert result == corpus.CriterionResult(5, "prime-extension", True, f"{pairs} admissible pairs")


@pytest.mark.parametrize("fault", ["reject", "non-prime"])
def test_prime_extension_criterion_reports_a_faulty_pair(monkeypatch, fault):
    name, logic = corpus._extension_logics(3)[-5]
    pairs = sorted(oracle_extension_pairs(logic), key=lambda pair: tuple(map(set_key, pair)))
    bad = pairs[len(pairs) // 2]
    real = corpus.prime_extension

    def faulty(logic, t, s):
        if (t, s) == bad:
            if fault == "reject":
                raise PreconditionViolated("injected")
            return frozenset(logic.exprs)
        return real(logic, t, s)

    monkeypatch.setattr(corpus, "prime_extension", faulty)
    expected = corpus.criterion_prime_extension(3).detail
    message = "precondition rejected a valid pair" if fault == "reject" else "extension disagrees with enumeration"
    monkeypatch.setattr(corpus, "_extension_logics", lambda max_points: [(name, logic)])
    result = corpus.criterion_prime_extension(3)
    assert not result.passed
    assert result.detail == f"{len(pairs)} admissible pairs; {name}: {message}"
    assert expected.endswith(f"; {name}: {message}")


def _mask(s):
    return sum(1 << a for a in s)


def _gate(src, tgt, mapping):
    return _theory_preimages(src._index, tgt._index, _fibers(mapping, tgt.universe_size))


def _assert_gate_matches(src, tgt, mapping):
    """The bitmask logic-map test against analyze_logic_map and the
    frozenset oracle: the same verdict, the first failing target theory
    as the witness, and the preimage mask of every target theory of a
    logic map.  Criterion 6's block gate, on a block of this one draw,
    gives the same verdict, or refuses a source wider than a byte."""
    preimages, bad = _gate(src, tgt, mapping)
    m = LogicMap(src, tgt, mapping)
    expected = oracle_analyze_logic_map(
        m, theory_spectrum(src).totally_primes, theory_spectrum(tgt).totally_primes
    )
    analysis = analyze_logic_map(m)
    assert (bad is None) == analysis.is_logic_map == expected["is_logic_map"], mapping
    assert analysis.is_logic_map or not analysis.is_stable, mapping
    if bad is None:
        pulled = [_mask(a for a in src.exprs if mapping[a] in t) for t in corpus.sorted_sets(tgt.theories)]
        assert preimages == pulled, mapping
    else:
        assert expected["witnesses"][0] == analysis.witnesses[0] == ("is_logic_map", (bad, m.preimage(bad))), mapping
    if src.universe_size <= 8:
        assert corpus._logic_map_draws(src, tgt, bytes(mapping), 1) == bytes([bad is not None]), mapping
    else:
        with pytest.raises(ValueError):
            corpus._logic_map_draws(src, tgt, bytes(mapping), 1)


def test_logic_map_gate_is_exhaustively_exact_on_small_logics():
    small = [logic for _, logic in corpus.corpus_logics(3) if logic.universe_size <= 4]
    assert len(small) >= 8
    checked = logic_maps = 0
    for src, tgt in itertools.product(small, repeat=2):
        for mapping in itertools.product(range(tgt.universe_size), repeat=src.universe_size):
            _assert_gate_matches(src, tgt, mapping)
            checked += 1
            logic_maps += _gate(src, tgt, mapping)[1] is None
    assert 0 < logic_maps < checked


_WIDE = corpus.corpus_logics(4)


@st.composite
def _wide_mappings(draw):
    """A random mapping between two corpus logics of up to four frame
    points; the degenerate quartet is among them."""
    src = draw(st.sampled_from(_WIDE))[1]
    tgt = draw(st.sampled_from(_WIDE))[1]
    n = src.universe_size
    image = st.integers(0, tgt.universe_size - 1)
    return src, tgt, tuple(draw(st.lists(image, min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@given(_wide_mappings())
def test_logic_map_gate_matches_the_oracle_on_random_mappings(drawn):
    _assert_gate_matches(*drawn)


_EMPTY = corpus._logic((), [()], (), ())


@st.composite
def _draw_blocks(draw):
    """A random source of 0 to 6 expressions (the empty logic at 0), a
    random target of 1 to 6, and a block of up to 40 random draws
    between them, with its draw count."""
    width = draw(st.integers(0, 6))
    src = random_logic(width, draw(st.integers(0, 10**6))) if width else _EMPTY
    tgt = random_logic(draw(st.integers(1, 6)), draw(st.integers(0, 10**6)))
    samples = draw(st.integers(0, 40))
    image = st.integers(0, tgt.universe_size - 1)
    values = draw(st.lists(image, min_size=width * samples, max_size=width * samples))
    return src, tgt, bytes(values), samples


@settings(max_examples=300, deadline=None)
@given(_draw_blocks())
def test_logic_map_draws_match_the_per_draw_gate(drawn):
    src, tgt, values, samples = drawn
    width = src.universe_size
    expected = bytes(_gate(src, tgt, tuple(values[d * width:(d + 1) * width]))[1] is not None for d in range(samples))
    assert corpus._logic_map_draws(src, tgt, values, samples) == expected


def test_logic_map_draws_refuse_a_source_wider_than_a_byte():
    src, tgt = random_logic(9, 0), random_logic(2, 0)
    with pytest.raises(ValueError, match="at most 8 source expressions, got 9"):
        corpus._logic_map_draws(src, tgt, bytes(9), 1)


def test_run_all_runs_the_criteria_in_order():
    results = corpus.run_all(2, 1)
    assert results == (
        corpus.criterion_logic_roundtrip(2),
        corpus.criterion_space_roundtrip(2),
        corpus.criterion_spectrality(2),
        corpus.criterion_generic_points(2),
        corpus.criterion_prime_extension(2),
        corpus.criterion_stability_lemma(2, 1),
        corpus.criterion_spectral_distributive(2),
        corpus.criterion_heyting_agreement(2),
        corpus.criterion_godel_witness(),
        corpus.criterion_constructible(2),
        corpus.criterion_degenerate_primes(),
    )
    assert [r.number for r in results] == list(range(1, 12))
    assert all(r.passed for r in results)


def test_run_all_analyses_each_space_object_once(monkeypatch, fresh_corpus):
    # with the spectra rebuilt as well, every space the run reads is a new
    # object: each corpus space and each distinct refinement is analysed
    # exactly once
    duality.logic_space.cache_clear()
    built = []
    real = topology._analyze

    def counting(space):
        built.append(space)
        return real(space)

    monkeypatch.setattr(topology, "_analyze", counting)
    assert all(r.passed for r in corpus.run_all(4, 0))
    assert len({id(space) for space in built}) == len(built)
    refinements = {topology.constructible_topology(space) for _, space in corpus._spectral_spaces(4)}
    assert len(built) == len(corpus.corpus_spaces(4)) + len(refinements) == 38
    for space in built:
        assert topology.analyze_space(space) is topology.analyze_space(space) is space._report
