"""The built-in instance corpus and the acceptance checks that run over it.

Instances: the three worked logics (a 3-chain, a 4-element Boolean
lattice, the V-frame upset logic), every upset filter logic of every
poset on up to four points, a quartet of hand-built logics realizing
each combination of having or lacking valid and inconsistent formulas,
and a few small hand-built spaces.

Each acceptance check returns a CriterionResult rather than asserting,
so the command line and the test suite share one implementation; the
test suite turns each result into a hard pass/fail.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

from .builders import (
    FinitePoset,
    enumerate_posets,
    godel_witness,
    heyting_from_upsets,
    logic_from_lattice_filters,
)
from .connectives import check_degenerate_primes, disjunctive_closure, prime_extension, verify_connectives
from .core import (
    AbstractLogic,
    ConnectiveTables,
    TheoryFamily,
    sorted_sets,
    theory_spectrum,
)
from .duality import (
    LogicMap,
    analyze_logic_map,
    logic_space,
    roundtrip_logic,
    roundtrip_space,
    stable_iff_disjunction,
)
from .errors import PreconditionViolated
from .topology import (
    FiniteSpace,
    analyze_space,
    check_adjunction,
    closure,
    constructible_topology,
    generic_point,
    has_implication,
    irreducible_closed_sets,
    is_distributive_space,
    is_heyting_basis,
    opens,
    prime_filters_on_basis,
)

POSET_COUNTS = (1, 2, 5, 16, 63)  # unlabeled posets on 1..5 points (OEIS A000112)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _result(number: int, name: str, checked: int, detail: str, failures: list[str]) -> CriterionResult:
    """Pass when nothing failed and at least one instance was checked;
    the first four failures follow the summary in the detail."""
    if failures:
        detail += f"; {'; '.join(failures[:4])}"
    return CriterionResult(number, name, checked > 0 and not failures, detail)


# worked instances


@lru_cache(maxsize=None)
def chain(n: int) -> FinitePoset:
    names = tuple(f"t{i}" for i in range(n))
    return FinitePoset.from_pairs(names, [(f"t{i}", f"t{i + 1}") for i in range(n - 1)])


@lru_cache(maxsize=None)
def antichain(n: int) -> FinitePoset:
    return FinitePoset.from_pairs(tuple(f"t{i}" for i in range(n)), [])


@lru_cache(maxsize=None)
def v_frame() -> FinitePoset:
    return FinitePoset.from_pairs(("r", "b", "c"), [("r", "b"), ("r", "c")])


@lru_cache(maxsize=None)
def l3() -> AbstractLogic:
    """The 3-chain filter logic; bottom, a middle value, top."""
    built = logic_from_lattice_filters(heyting_from_upsets(chain(2)))
    return replace(built, expr_names=("bot", "m", "top"))


@lru_cache(maxsize=None)
def l22() -> AbstractLogic:
    """The filter logic of the 4-element Boolean lattice; classical."""
    built = logic_from_lattice_filters(heyting_from_upsets(antichain(2)))
    return replace(built, expr_names=("bot", "a", "b", "top"))


@lru_cache(maxsize=None)
def lv3() -> AbstractLogic:
    """The upset filter logic of the V frame; intuitionistic, not classical."""
    return logic_from_lattice_filters(heyting_from_upsets(v_frame()))


@lru_cache(maxsize=None)
def sierpinski() -> FiniteSpace:
    return FiniteSpace(("s0", "s1"), (frozenset(), frozenset({1}), frozenset({0, 1})))


@lru_cache(maxsize=None)
def discrete_two() -> FiniteSpace:
    return FiniteSpace(
        ("x", "y"),
        (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})),
    )


@lru_cache(maxsize=None)
def one_point() -> FiniteSpace:
    return FiniteSpace(("o",), (frozenset({0}),))


@lru_cache(maxsize=None)
def indiscrete_two() -> FiniteSpace:
    return FiniteSpace(("x", "y"), (frozenset(), frozenset({0, 1})))


def _logic(names, theories, join, meet) -> AbstractLogic:
    family = TheoryFamily(len(names), frozenset(frozenset(t) for t in theories))
    return AbstractLogic(tuple(names), family, ConnectiveTables(join=join, meet=meet))


@lru_cache(maxsize=None)
def degenerate_quartet() -> tuple[tuple[str, AbstractLogic, tuple[bool, bool, bool, bool]], ...]:
    """Distributive logics hitting all four valid/inconsistent combinations.

    The expected tuple is (no_valid_formula, empty_is_prime,
    no_inconsistent_formula, full_set_is_prime).  Tables were derived by
    hand from the connective conditions over each family's primes.
    """
    no_valid = _logic(
        ("p", "pq", "dead"),
        [set(), {0}, {0, 1}],
        join=((0, 0, 0), (0, 1, 1), (0, 1, 2)),
        meet=((0, 1, 2), (1, 1, 2), (2, 2, 2)),
    )
    singular = logic_from_lattice_filters(heyting_from_upsets(chain(2)), proper=False)
    neither = _logic(
        ("p", "pq"),
        [set(), {0}, {0, 1}],
        join=((0, 0), (0, 1)),
        meet=((0, 1), (1, 1)),
    )
    return (
        ("valid-and-inconsistent", l3(), (False, False, False, False)),
        ("no-valid", no_valid, (True, True, False, False)),
        ("no-inconsistent", singular, (False, False, True, True)),
        ("neither", neither, (True, True, True, True)),
    )


@lru_cache(maxsize=None)
def corpus_frames(max_points: int = 4) -> tuple[tuple[str, FinitePoset], ...]:
    out = []
    for n in range(1, max_points + 1):
        for i, frame in enumerate(enumerate_posets(n)):
            out.append((f"frame{n}.{i}", frame))
    return tuple(out)


@lru_cache(maxsize=None)
def corpus_logics(max_points: int = 4) -> tuple[tuple[str, AbstractLogic], ...]:
    """Every corpus logic with a printable name, filter logics first."""
    out = [
        (name, logic_from_lattice_filters(heyting_from_upsets(frame)))
        for name, frame in corpus_frames(max_points)
    ]
    out += [(name, logic) for name, logic, _ in degenerate_quartet()]
    return tuple(out)


def _filter_logics(max_points: int = 4) -> tuple[tuple[str, AbstractLogic], ...]:
    """The upset filter logics of the corpus frames, without the quartet."""
    return corpus_logics(max_points)[:len(corpus_frames(max_points))]


def _distributive_logics(max_points: int = 4) -> tuple[tuple[str, AbstractLogic], ...]:
    return tuple(
        (name, logic)
        for name, logic in corpus_logics(max_points)
        if verify_connectives(logic).is_distributive
    )


@lru_cache(maxsize=None)
def corpus_spaces(max_points: int = 4) -> tuple[tuple[str, FiniteSpace], ...]:
    out = [
        (f"spectrum({name})", logic_space(logic).space)
        for name, logic in _distributive_logics(max_points)
    ]
    out += [
        ("sierpinski", sierpinski()),
        ("discrete2", discrete_two()),
        ("point", one_point()),
        ("indiscrete2", indiscrete_two()),
    ]
    return tuple(out)


def _spectral_spaces(max_points: int = 4) -> tuple[tuple[str, FiniteSpace], ...]:
    return tuple(
        (name, space)
        for name, space in corpus_spaces(max_points)
        if analyze_space(space).is_spectral
    )


# acceptance checks


def _pmap(fn, items, jobs: int | None):
    """fn over items, in order; with jobs > 1 on a process pool of at most
    one worker per item and per CPU."""
    items = list(items)
    workers = min(jobs or 1, len(items), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def criterion_logic_roundtrip(max_points: int = 4) -> CriterionResult:
    """Every upset filter logic returns isomorphic from its spectrum."""
    sizes = [frame.n for _, frame in corpus_frames(max_points)]
    counts = tuple(sizes.count(n) for n in range(1, max_points + 1))
    failures = []
    if counts != POSET_COUNTS[:max_points]:
        failures.append(f"expected poset counts {POSET_COUNTS[:max_points]}")
    logics = _filter_logics(max_points)
    bad = sorted(name for name, logic in logics if not roundtrip_logic(logic).iso_ok)
    if bad:
        failures.append(f"failing: {', '.join(bad)}")
    return _result(1, "logic-roundtrip", len(logics), f"{len(logics)} logics, poset counts {counts}", failures)


def criterion_space_roundtrip(max_points: int = 4) -> CriterionResult:
    """Every spectrum returns homeomorphic from its dual logic."""
    logics = _filter_logics(max_points)
    bad = sorted(name for name, logic in logics if not roundtrip_space(logic_space(logic).space).iso_ok)
    failures = [f"failing: {', '.join(bad)}"] if bad else []
    return _result(2, "space-roundtrip", len(logics), f"{len(logics)} spaces", failures)


def criterion_spectrality(max_points: int = 4) -> CriterionResult:
    """Bounded distributive logics have spectral spectra; extents mirror
    valid and inconsistent formulas on every distributive corpus logic."""
    failures = []
    logics = _distributive_logics(max_points)
    bounded = spectral = 0
    for name, logic in logics:
        space = logic_space(logic).space
        basic = set(space.basis)
        classified = verify_connectives(logic)
        if classified.is_bounded_distributive:
            bounded += 1
            if analyze_space(space).is_spectral:
                spectral += 1
            else:
                failures.append(f"{name}: not spectral")
            if basic | {frozenset()} != opens(space):
                failures.append(f"{name}: extents miss an open")
        if (space.carrier in basic) != classified.has_valid_formula:
            failures.append(f"{name}: carrier-extent vs valid formula")
        if (frozenset() in basic) != classified.has_inconsistent_formula:
            failures.append(f"{name}: empty-extent vs inconsistent formula")
    return _result(3, "spectrality", len(logics), f"{bounded} bounded logics, {spectral} spectral", failures)


def criterion_generic_points(max_points: int = 4) -> CriterionResult:
    """Irreducible closed sets of spectra are closures of their unions."""
    failures = []
    checked = 0
    for name, logic in _distributive_logics(max_points):
        pres = logic_space(logic)
        primes = set(pres.points)
        for f in irreducible_closed_sets(pres.space):
            checked += 1
            union = frozenset().union(*(pres.points[i] for i in f))
            if union not in primes:
                failures.append(f"{name}: union of {sorted(f)} not prime")
                continue
            x = pres.points.index(union)
            point, unique = generic_point(pres.space, f)
            if point != x or not unique or closure(pres.space, {x}) != f:
                failures.append(f"{name}: generic point mismatch on {sorted(f)}")
    return _result(4, "generic-points", checked, f"{checked} irreducible closed sets", failures)


def criterion_prime_extension(max_points: int = 4, seed: int = 0, samples: int = 1000) -> CriterionResult:
    """Random admissible (theory, join-closed set) pairs extend to primes,
    cross-checked against the enumerated primes.

    Every draw counts, but each distinct closure and each distinct
    (theory, closure) pair of a logic is computed once."""
    failures = []
    checked = 0
    for name, logic in _distributive_logics(max_points):
        if logic.universe_size > 10:
            continue
        if logic.connectives is None or logic.connectives.join is None:
            continue
        rng = random.Random((seed, name).__repr__())
        theories = sorted_sets(logic.theories)
        rests = [sorted(set(logic.exprs) - t) for t in theories]
        primes = theory_spectrum(logic).primes
        closures: dict[frozenset[int], frozenset[int]] = {}
        verdicts: dict[tuple[frozenset[int], frozenset[int]], str | None] = {}
        for _ in range(samples):
            i = rng.randrange(len(theories))
            t, rest = theories[i], rests[i]
            if not rest:
                continue
            b = frozenset(rng.sample(rest, rng.randint(1, len(rest))))
            s = closures.get(b)
            if s is None:
                s = closures[b] = disjunctive_closure(logic, b)
            if s & t:
                continue
            checked += 1
            if (t, s) not in verdicts:
                verdicts[t, s] = _extension_failure(logic, primes, t, s)
            failure = verdicts[t, s]
            # A rejection is reported on every draw; a disagreement ends
            # this logic's draws.
            if failure is not None:
                failures.append(f"{name}: {failure}")
                if failure != _REJECTED:
                    break
    return _result(5, "prime-extension", checked, f"{checked} sampled pairs", failures)


_REJECTED = "precondition rejected a valid pair"


def _extension_failure(logic: AbstractLogic, primes, t: frozenset[int], s: frozenset[int]) -> str | None:
    """Why the prime extension of t avoiding s fails criterion 5, or None."""
    try:
        p = prime_extension(logic, t, s)
    except PreconditionViolated:
        return _REJECTED
    oracle = {q for q in primes if t <= q and not (q & s)}
    if not oracle or p not in oracle or not (t <= p) or (p & s):
        return "extension disagrees with enumeration"
    return None


def _stability_pair(task) -> tuple[int, int, str | None]:
    """Sample maps between one (source, target) pair, from the pair's own
    seeded generator, up to the first failure: the sample count, the
    logic-map count and the failure, if any.  Every draw counts, but each
    distinct mapping is analysed once; only logic maps go on to the join
    scan of stable_iff_disjunction."""
    seed, samples, (src_name, src), (tgt_name, tgt) = task
    rng = random.Random((seed, src_name, tgt_name).__repr__())
    width, images = src.universe_size, tgt.universe_size
    verdicts: dict[tuple[int, ...], tuple[bool, bool, bool]] = {}
    logic_maps = 0
    for sampled in range(1, samples + 1):
        mapping = tuple(rng.randrange(images) for _ in range(width))
        verdict = verdicts.get(mapping)
        if verdict is None:
            verdict = verdicts[mapping] = _map_verdict(src, tgt, mapping)
        is_stable, is_logic_map, agree = verdict
        if is_stable and not is_logic_map:
            return sampled, logic_maps, f"{src_name}->{tgt_name}: stable non-logic-map {mapping}"
        if is_logic_map:
            logic_maps += 1
            if not agree:
                return sampled, logic_maps, f"{src_name}->{tgt_name}: lemma fails at {mapping}"
    return samples, logic_maps, None


def _map_verdict(src: AbstractLogic, tgt: AbstractLogic, mapping: tuple[int, ...]) -> tuple[bool, bool, bool]:
    """(is_stable, is_logic_map, agree) for one mapping; agree is the
    lemma's verdict on a logic map and False on anything else."""
    m = LogicMap(src, tgt, mapping)
    analysis = analyze_logic_map(m)
    agree = analysis.is_logic_map and stable_iff_disjunction(m).agree
    return analysis.is_stable, analysis.is_logic_map, agree


def criterion_stability_lemma(
    max_points: int = 4, seed: int = 0, samples: int = 500, jobs: int | None = None
) -> CriterionResult:
    """Stability coincides with join preservation on sampled logic maps.

    Each (source, target) pair is one task for _pmap; its samples depend
    only on the seed and the two names, so the totals and failures are
    the same for every job count."""
    small = [
        (name, logic)
        for name, logic in _distributive_logics(max_points)
        if logic.universe_size <= 6
        and logic.connectives is not None and logic.connectives.join is not None
    ]
    tasks = [(seed, samples, src, tgt) for src in small for tgt in small]
    results = _pmap(_stability_pair, tasks, jobs)
    sampled = sum(n for n, _, _ in results)
    logic_maps = sum(k for _, k, _ in results)
    failures = [failure for _, _, failure in results if failure is not None]
    detail = f"{sampled} samples over {len(small)}^2 logic pairs, {logic_maps} logic maps"
    return _result(6, "stability-lemma", logic_maps, detail, failures)


def criterion_spectral_distributive(max_points: int = 4) -> CriterionResult:
    """Spectral corpus spaces are distributive with matching filters and
    a working implication adjunction."""
    failures = []
    spaces = _spectral_spaces(max_points)
    for name, space in spaces:
        verdict = is_distributive_space(space)
        if not verdict.distributive:
            failures.append(f"{name}: {verdict.witness}")
            continue
        filters = prime_filters_on_basis(space)
        if len(filters) != space.n_points:
            failures.append(f"{name}: {len(filters)} filters for {space.n_points} points")
        ok, witness = check_adjunction(space)
        if not ok:
            failures.append(f"{name}: adjunction fails at {witness}")
    return _result(7, "spectral-distributive", len(spaces), f"{len(spaces)} spectral spaces", failures)


def criterion_heyting_agreement(max_points: int = 4) -> CriterionResult:
    """Spatial implication and algebraic pseudo-complements agree on
    covering bases; Boolean spaces have complemented bases.

    Agreement is a theorem only when the basic opens cover the carrier:
    a point inside no basic open (the empty prime of a logic with no
    valid formula) blocks the spatial implication while leaving the
    basis lattice Heyting, so non-covering spaces are counted and
    skipped rather than compared.
    """
    failures = []
    checked = skipped = 0
    for name, space in corpus_spaces(max_points):
        if space.uncovered:
            skipped += 1
            continue
        checked += 1
        spatial = has_implication(space)[0]
        algebraic = is_heyting_basis(space)
        if spatial != algebraic:
            failures.append(f"{name}: spatial {spatial} vs algebraic {algebraic}")
        if analyze_space(space).is_boolean:
            basic = set(space.basis)
            carrier = space.carrier
            for u in basic:
                if carrier - u not in basic:
                    failures.append(f"{name}: no complement for {sorted(u)}")
                    break
    detail = f"{checked} covering spaces, {skipped} non-covering skipped"
    return _result(8, "heyting-agreement", checked, detail, failures)


def criterion_godel_witness() -> CriterionResult:
    """The V-frame algebra refutes double-negation distribution at the
    first off-diagonal pair; Boolean algebras never do."""
    failures = []
    algebra = heyting_from_upsets(v_frame())
    got = godel_witness(algebra)
    expected = (
        algebra.element_names.index("{b}"),
        algebra.element_names.index("{c}"),
        algebra.element_names.index("{r,b,c}"),
        algebra.element_names.index("{b,c}"),
    )
    if got != expected:
        failures.append(f"V-frame witness {got}, expected {expected}")
    boolean_sizes = range(5)
    for k in boolean_sizes:
        if godel_witness(heyting_from_upsets(antichain(k))) is not None:
            failures.append(f"Boolean algebra on {2 ** k} elements yielded a witness")
    detail = f"V-frame witness {got}; Boolean algebras up to 16 elements clean"
    return _result(9, "godel-witness", 1 + len(boolean_sizes), detail, failures)


def criterion_constructible(max_points: int = 4) -> CriterionResult:
    """Constructible refinements of spectral spaces are Boolean; the
    two-point chain space refines to the discrete space."""
    failures = []
    spaces = _spectral_spaces(max_points)
    for name, space in spaces:
        fine = constructible_topology(space)
        if not analyze_space(fine).is_boolean:
            failures.append(f"{name}: refinement not Boolean")
    fine = constructible_topology(sierpinski())
    if set(fine.basis) != {frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}:
        failures.append("chain space did not refine to the discrete space")
    return _result(10, "constructible-topology", len(spaces) + 1, f"{len(spaces)} spectral spaces refined", failures)


def criterion_degenerate_primes() -> CriterionResult:
    """The four flag combinations appear exactly as designed."""
    failures = []
    quartet = degenerate_quartet()
    for name, logic, expected in quartet:
        report = check_degenerate_primes(logic)
        got = (
            report.no_valid_formula,
            report.empty_is_prime,
            report.no_inconsistent_formula,
            report.full_set_is_prime,
        )
        if got != expected:
            failures.append(f"{name}: {got} expected {expected}")
    return _result(11, "degenerate-primes", len(quartet), f"{len(quartet)} logics, all flag combinations", failures)


def run_all(max_points: int = 4, seed: int = 0, jobs: int | None = None) -> tuple[CriterionResult, ...]:
    # Criterion 6 runs first so that its pool forks before the other
    # criteria fill this process's caches, which every worker would copy.
    stability = criterion_stability_lemma(max_points, seed, jobs=jobs)
    return (
        criterion_logic_roundtrip(max_points),
        criterion_space_roundtrip(max_points),
        criterion_spectrality(max_points),
        criterion_generic_points(max_points),
        criterion_prime_extension(max_points, seed),
        stability,
        criterion_spectral_distributive(max_points),
        criterion_heyting_agreement(max_points),
        criterion_godel_witness(),
        criterion_constructible(max_points),
        criterion_degenerate_primes(),
    )
