"""Criteria 5 and 6 check each distinct drawn instance once.

The unmemoized loops in oracles.py draw the same instances and check
every draw afresh; these tests require the same counts and the same
failures from both, also when a check fails on an instance that is
drawn more than once.  Criterion 6 rejects a draw that is no logic map
on bitmasks before any analysis, reads each pair's draws from one block
of generator words that must equal the randrange stream, and run_all
runs both criteria's tasks on one pool while it checks the other
criteria.
"""

import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from logictop import corpus, duality
from logictop.core import theory_spectrum
from logictop.duality import (
    LogicMap,
    _fibers,
    _theory_preimages,
    analyze_logic_map,
    stable_iff_disjunction,
    theory_preimage_map,
)
from logictop.errors import NotLogicMap, PreconditionViolated

from oracles import oracle_analyze_logic_map, oracle_prime_extension_criterion, oracle_stability_pair


def _stability_tasks(seed, max_points=3):
    """Criterion 6's (source, target) tasks over the small corpus logics."""
    small = [
        (name, logic)
        for name, logic in corpus._distributive_logics(max_points)
        if logic.universe_size <= 6 and logic.connectives is not None and logic.connectives.join is not None
    ]
    return [(seed, 500, src, tgt) for src in small for tgt in small]


@pytest.mark.parametrize("seed", [0, 1])
def test_stability_pair_matches_the_unmemoized_oracle(seed):
    tasks = _stability_tasks(seed)
    assert len(tasks) > 1
    for task in tasks:
        assert corpus._stability_pair(task) == oracle_stability_pair(task)


@pytest.mark.parametrize("seed", range(5))
def test_randrange_block_is_the_randrange_stream(seed):
    # At n = 128 and the other powers of two half the words are
    # rejected, so a count of 3,000 needs a second block.
    for n in range(1, 256):
        rng = random.Random(seed)
        stream = bytes(rng.randrange(n) for _ in range(3000))
        for count in (0, 1, 7, 3000):
            assert corpus._randrange_block(random.Random(seed), n, count) == stream[:count], (n, count)


@pytest.mark.parametrize("n", [0, 256])
def test_randrange_block_rejects_a_bound_outside_one_byte(n):
    with pytest.raises(ValueError):
        corpus._randrange_block(random.Random(0), n, 0)


def test_stability_pair_counts_every_draw_from_an_empty_source():
    empty = ("empty", corpus._logic((), [()], (), ()))
    for *_, target in _stability_tasks(0)[:3]:
        task = (0, 500, empty, target)
        result = corpus._stability_pair(task)
        assert result == oracle_stability_pair(task) and result[0] == 500


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
    for task in _stability_tasks(0):
        calls.clear()
        _, logic_maps, _ = corpus._stability_pair(task)
        assert len(calls) <= logic_maps
        assert set(calls.values()) <= {1}, task[2][0] + "->" + task[3][0]


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
    task = next(
        task for task in _stability_tasks(0)
        if task[2][1].universe_size >= 3 and task[3][1].universe_size >= 3
    )
    real = corpus.stable_iff_disjunction
    repeated, _ = _repeated(
        monkeypatch, "stable_iff_disjunction", lambda m: m.mapping, lambda: oracle_stability_pair(task)
    )
    bad = repeated[-1]

    def disagreeing(m):
        check = real(m)
        return dataclasses.replace(check, agree=False) if m.mapping == bad else check

    monkeypatch.setattr(corpus, "stable_iff_disjunction", disagreeing)
    expected = oracle_stability_pair(task)
    assert expected[2] == f"{task[2][0]}->{task[3][0]}: lemma fails at {bad}"
    assert expected[0] > 1
    assert corpus._stability_pair(task) == expected


def _library_failures(monkeypatch, max_points, seed):
    """criterion_prime_extension's checked count and full failure list."""
    seen = []
    real = corpus._result

    def recording(number, name, checked, detail, failures):
        seen.append((checked, list(failures)))
        return real(number, name, checked, detail, failures)

    monkeypatch.setattr(corpus, "_result", recording)
    corpus.criterion_prime_extension(max_points, seed)
    monkeypatch.setattr(corpus, "_result", real)
    return seen[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_prime_extension_criterion_matches_the_unmemoized_oracle(monkeypatch, seed):
    expected = oracle_prime_extension_criterion(4, seed)
    assert expected[0] > 0 and not expected[1]
    assert _library_failures(monkeypatch, 4, seed) == expected


@pytest.mark.parametrize("fault", ["reject", "disagree"])
def test_prime_extension_criterion_reports_a_faulty_repeated_pair_like_the_oracle(monkeypatch, fault):
    real = corpus.prime_extension
    repeated, calls = _repeated(
        monkeypatch, "prime_extension", lambda logic, t, s: (t, s), lambda: oracle_prime_extension_criterion(3)
    )
    key = repeated[len(repeated) // 2]

    def faulty(logic, t, s):
        if (t, s) == key:
            if fault == "reject":
                raise PreconditionViolated("injected")
            return frozenset(logic.exprs)
        return real(logic, t, s)

    monkeypatch.setattr(corpus, "prime_extension", faulty)
    expected = oracle_prime_extension_criterion(3)
    if fault == "reject":
        assert len(expected[1]) == calls[key] >= 2
    else:
        assert expected[1]
    assert _library_failures(monkeypatch, 3, 0) == expected


def _mask(s):
    return sum(1 << a for a in s)


def _gate(src, tgt, mapping):
    return _theory_preimages(src._index, tgt._index, _fibers(mapping, tgt.universe_size))


def _assert_gate_matches(src, tgt, mapping):
    """The bitmask logic-map test against analyze_logic_map and the
    frozenset oracle: the same verdict, the first failing target theory
    as the witness, and the preimage mask of every target theory of a
    logic map; criterion 6's verdict is the unrejected one."""
    preimages, bad = _gate(src, tgt, mapping)
    m = LogicMap(src, tgt, mapping)
    expected = oracle_analyze_logic_map(
        m, theory_spectrum(src).totally_primes, theory_spectrum(tgt).totally_primes
    )
    assert (bad is None) == analyze_logic_map(m).is_logic_map == expected["is_logic_map"], mapping
    if bad is None:
        pulled = [_mask(a for a in src.exprs if mapping[a] in t) for t in corpus.sorted_sets(tgt.theories)]
        assert preimages == pulled, mapping
        assert [_mask(pre) for _, pre in theory_preimage_map(m)] == pulled, mapping
    else:
        assert expected["witnesses"][0] == ("is_logic_map", (bad, m.preimage(bad))), mapping
        with pytest.raises(NotLogicMap) as err:
            theory_preimage_map(m)
        assert err.value.witness == (bad, m.preimage(bad)), mapping
    if all(logic.connectives is not None and logic.connectives.join is not None for logic in (src, tgt)):
        analysis = analyze_logic_map(m)
        agree = analysis.is_logic_map and stable_iff_disjunction(m).agree
        assert corpus._map_verdict(src, tgt, mapping) == (analysis.is_stable, analysis.is_logic_map, agree)


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


@pytest.mark.parametrize("seed", [0, 1])
def test_prime_extension_logic_matches_the_oracle_logic_by_logic(monkeypatch, seed):
    tasks = corpus._extension_tasks(4, seed, corpus.EXTENSION_SAMPLES)
    assert len(tasks) > 1
    for task in tasks:
        monkeypatch.setattr(corpus, "_distributive_logics", lambda max_points: (task[2],))
        assert corpus._prime_extension_logic(task) == oracle_prime_extension_criterion(4, seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_run_all_sends_criteria_5_and_6_through_one_pool(monkeypatch, inline_pool, seed):
    serial = corpus.run_all(3, seed, jobs=1)
    assert inline_pool == []
    monkeypatch.setattr(corpus.os, "cpu_count", lambda: 2)
    assert corpus.run_all(3, seed, jobs=2) == serial
    [(workers, submitted)] = inline_pool
    assert workers == 2
    stability = corpus._stability_tasks(3, seed, corpus.STABILITY_SAMPLES)
    extension = corpus._extension_tasks(3, seed, corpus.EXTENSION_SAMPLES)
    expected = [(corpus._stability_pair, task) for task in stability]
    expected += [(corpus._prime_extension_logic, task) for task in extension]
    assert submitted == expected
    assert [r.number for r in serial] == list(range(1, 12))
    assert all(r.passed for r in serial)
