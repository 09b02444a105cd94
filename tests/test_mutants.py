"""Every criterion can fail: each case breaks one library function for one
corpus run, and the criterion that watches it must report a failure.

A mutant replaces the function where the corpus module (or, for the
roundtrip squares, the duality module) looks it up, for one ``run_all``
at max-points 3 or 4.  The ``fresh_corpus`` fixture empties the corpus
lists before and after each case, so no report memoized on a corpus
space hides a mutant or carries one into later tests.
"""

import dataclasses

import pytest

from logictop import corpus, duality
from logictop.connectives import prime_extension
from logictop.core import sorted_sets
from logictop.topology import FiniteSpace, analyze_space, constructible_topology


def _failing(max_points):
    """The numbers of the criteria that fail in one corpus run."""
    return {r.number for r in corpus.run_all(max_points, 0) if not r.passed}


def _differences_only(space):
    """constructible_topology without its union closure: the differences
    of basic opens alone, which on the diamond-order space miss {a,d}."""
    if not analyze_space(space).is_spectral:
        return constructible_topology(space)
    pool = set(space.basis) | {space.carrier}
    basis = tuple(sorted_sets({u - v for u in pool for v in pool}))
    return FiniteSpace(space.point_names, basis, tuple(f"C{i}" for i in range(len(basis))))


def _meets_s(logic, t, s):
    """A prime extension that also takes in the set it must avoid."""
    return prime_extension(logic, t, s) | s


def _all_spectral_boolean(space):
    report = analyze_space(space)
    return dataclasses.replace(report, is_boolean=report.is_spectral)


MUTANTS = {
    "constructible-without-union-closure": ("constructible_topology", _differences_only, 3, 10),
    "heyting-basis-always-false": ("is_heyting_basis", lambda space: False, 3, 8),
    "prime-extension-meets-s": ("prime_extension", _meets_s, 3, 5),
    "every-spectral-space-boolean": ("analyze_space", _all_spectral_boolean, 4, 8),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_a_broken_library_function_fails_its_criterion(monkeypatch, fresh_corpus, mutant):
    name, broken, max_points, criterion = MUTANTS[mutant]
    assert criterion not in _failing(max_points)
    monkeypatch.setattr(corpus, name, broken)
    assert criterion in _failing(max_points)


def _failed_squares(squares):
    return [(name, False, witness) for name, _, witness in squares]


def test_criterion_1_fails_when_every_connective_square_fails(monkeypatch, fresh_corpus):
    real = duality._connective_squares
    monkeypatch.setattr(duality, "_connective_squares", lambda m: _failed_squares(real(m)))
    result = corpus.run_all(3, 0)[0]
    assert not result.passed and "failing: frame1.0" in result.detail, result


def test_criterion_2_fails_when_every_basic_open_square_fails(monkeypatch, fresh_corpus):
    real = duality._report

    def failing(direction, m, iso_ok, squares, witnesses, h):
        if direction == "space":
            squares = _failed_squares(squares)
        return real(direction, m, iso_ok, squares, witnesses, h)

    monkeypatch.setattr(duality, "_report", failing)
    results = corpus.run_all(3, 0)
    assert results[0].passed
    assert not results[1].passed and "failing: frame1.0" in results[1].detail, results[1]
