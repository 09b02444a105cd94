"""Criteria 5 and 6 check each distinct drawn instance once.

The unmemoized loops in oracles.py draw the same instances and check
every draw afresh; these tests require the same counts and the same
failures from both, also when a check fails on an instance that is
drawn more than once.
"""

import dataclasses
from collections import Counter

import pytest

from logictop import corpus
from logictop.errors import PreconditionViolated

from oracles import oracle_prime_extension_criterion, oracle_stability_pair


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
