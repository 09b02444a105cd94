"""The built-in instance corpus and the acceptance checks that run over it.

Instances: the three worked logics (a 3-chain, a 4-element Boolean
lattice, the V-frame upset logic), every upset filter logic of every
poset on up to ``--max-points`` points (at most five), a quartet of
hand-built logics realizing each combination of having or lacking valid
and inconsistent formulas, and a few small hand-built spaces.

Each acceptance check returns a CriterionResult rather than asserting,
so the command line and the test suite share one implementation; the
test suite turns each result into a hard pass/fail.  run_all runs the
eleven checks in order, in one process.  Only criterion 6 samples: it
draws seeded mappings between pairs of logics, and the seed reaches it
alone.  The corpus lists are cached here: the criteria that read them,
the degenerate quartet and the Sierpinski space included, share one
object per logic and space.  Each object keeps its own index, and each
space its own SpaceReport, so every criterion reads the facts of one
instance off the same object, and a space is analysed once per run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from operator import or_
from typing import Iterator

from .builders import (
    FinitePoset,
    enumerate_posets,
    godel_witness,
    heyting_from_upsets,
    logic_from_lattice_filters,
)
from .connectives import check_degenerate_primes, prime_extension, verify_connectives
from .core import (
    AbstractLogic,
    ConnectiveTables,
    TheoryFamily,
    sorted_sets,
    theory_spectrum,
)
from .duality import (
    LogicMap,
    logic_space,
    roundtrip_logic,
    roundtrip_space,
    stable_iff_disjunction,
)
from .errors import PreconditionViolated
from .topology import (
    FiniteSpace,
    analyze_space,
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
STABILITY_SAMPLES = 500  # criterion 6's draws per (source, target) pair


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


def chain(n: int) -> FinitePoset:
    names = tuple(f"t{i}" for i in range(n))
    return FinitePoset.from_pairs(names, [(f"t{i}", f"t{i + 1}") for i in range(n - 1)])


def antichain(n: int) -> FinitePoset:
    return FinitePoset.from_pairs(tuple(f"t{i}" for i in range(n)), [])


def v_frame() -> FinitePoset:
    return FinitePoset.from_pairs(("r", "b", "c"), [("r", "b"), ("r", "c")])


def l3() -> AbstractLogic:
    """The 3-chain filter logic; bottom, a middle value, top."""
    built = logic_from_lattice_filters(heyting_from_upsets(chain(2)))
    return replace(built, expr_names=("bot", "m", "top"))


def l22() -> AbstractLogic:
    """The filter logic of the 4-element Boolean lattice; classical."""
    built = logic_from_lattice_filters(heyting_from_upsets(antichain(2)))
    return replace(built, expr_names=("bot", "a", "b", "top"))


def lv3() -> AbstractLogic:
    """The upset filter logic of the V frame; intuitionistic, not classical."""
    return logic_from_lattice_filters(heyting_from_upsets(v_frame()))


def sierpinski() -> FiniteSpace:
    return FiniteSpace(("s0", "s1"), (frozenset(), frozenset({1}), frozenset({0, 1})))


def discrete_two() -> FiniteSpace:
    return FiniteSpace(
        ("x", "y"),
        (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})),
    )


def one_point() -> FiniteSpace:
    return FiniteSpace(("o",), (frozenset({0}),))


def indiscrete_two() -> FiniteSpace:
    return FiniteSpace(("x", "y"), (frozenset(), frozenset({0, 1})))


def _logic(names, theories, join, meet) -> AbstractLogic:
    family = TheoryFamily(len(names), frozenset(frozenset(t) for t in theories))
    return AbstractLogic(tuple(names), family, ConnectiveTables(join=join, meet=meet))


# The degenerate quartet's names and expected flags, in corpus order.  The
# flags are (no_valid_formula, empty_is_prime, no_inconsistent_formula,
# full_set_is_prime).
QUARTET_FLAGS = {
    "valid-and-inconsistent": (False, False, False, False),
    "no-valid": (True, True, False, False),
    "no-inconsistent": (False, False, True, True),
    "neither": (True, True, True, True),
}


def degenerate_quartet() -> tuple[tuple[str, AbstractLogic, tuple[bool, bool, bool, bool]], ...]:
    """Distributive logics hitting all four valid/inconsistent combinations,
    each with its expected flags from QUARTET_FLAGS.  Tables were derived
    by hand from the connective conditions over each family's primes.
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
    logics = (l3(), no_valid, singular, neither)
    return tuple((name, logic, flags) for (name, flags), logic in zip(QUARTET_FLAGS.items(), logics))


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


def criterion_logic_roundtrip(max_points: int = 4) -> CriterionResult:
    """Every upset filter logic returns isomorphic from its spectrum,
    with every connective square commuting."""
    sizes = [frame.n for _, frame in corpus_frames(max_points)]
    counts = tuple(sizes.count(n) for n in range(1, max_points + 1))
    failures = []
    if counts != POSET_COUNTS[:max_points]:
        failures.append(f"expected poset counts {POSET_COUNTS[:max_points]}")
    logics = _filter_logics(max_points)
    reports = ((name, roundtrip_logic(logic)) for name, logic in logics)
    bad = sorted(name for name, r in reports if not (r.iso_ok and r.square_ok))
    if bad:
        failures.append(f"failing: {', '.join(bad)}")
    return _result(1, "logic-roundtrip", len(logics), f"{len(logics)} logics, poset counts {counts}", failures)


def criterion_space_roundtrip(max_points: int = 4) -> CriterionResult:
    """Every spectrum returns homeomorphic from its dual logic, with every
    basic open matching its extent."""
    logics = _filter_logics(max_points)
    reports = ((name, roundtrip_space(logic_space(logic).space)) for name, logic in logics)
    bad = sorted(name for name, r in reports if not (r.iso_ok and r.square_ok))
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


def _extension_logics(max_points: int) -> list[tuple[str, AbstractLogic]]:
    """Criterion 5's logics: the distributive corpus logics (each has a
    join table) of at most ten expressions."""
    return [(name, logic) for name, logic in _distributive_logics(max_points) if logic.universe_size <= 10]


def _join_close(joins, mask: int, members: list[int], x: int, stop: int) -> tuple[int, list[int]] | None:
    """The closure of the join-closed set (mask, members) with x added,
    as a bitmask and its members; None as soon as it gains a bit of stop.
    ``joins[y][z]`` has the bits of y join z and z join y."""
    members = list(members)
    pending = 1 << x
    while pending:
        if pending & stop:
            return None
        bit = pending & -pending
        mask |= bit
        y = bit.bit_length() - 1
        members.append(y)
        pending = (pending | reduce(or_, map(joins[y].__getitem__, members))) & ~mask
    return mask, members


def _join_closed_sets(logic: AbstractLogic, avoid: int) -> list[tuple[int, list[int]]]:
    """Every non-empty join-closed set that misses the bitmask avoid, each
    once, as a bitmask and its members, by close-by-one: a set grows only
    by expressions above the last one added, and a closure that gains a
    smaller expression is dropped, since that set is reached from
    another parent.  A closure that meets avoid is dropped with all the
    sets above it, which meet avoid too."""
    join = logic.connectives.join
    joins = [[1 << join[y][z] | 1 << join[z][y] for z in logic.exprs] for y in logic.exprs]
    n = logic.universe_size
    found: list[tuple[int, list[int]]] = []
    frontier: list[tuple[int, list[int], int]] = [(0, [], 0)]
    while frontier:
        mask, members, start = frontier.pop()
        for x in range(start, n):
            if mask >> x & 1:
                continue
            grown = _join_close(joins, mask, members, x, avoid | ((1 << x) - 1))
            if grown is not None:
                found.append(grown)
                frontier.append((*grown, x + 1))
    return found


def _extension_pairs(logic: AbstractLogic) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """Criterion 5's admissible pairs of one logic: every theory t, in
    sorted_sets order, with every non-empty join-closed set s disjoint
    from it.  Every theory contains the least theory, the intersection
    of them all, so every such s misses it: the sets that miss the least
    theory are grown once per logic, and each theory takes those that
    miss it too."""
    index = logic._index
    least = reduce(int.__and__, index.masks)
    sets = [(mask, frozenset(members)) for mask, members in _join_closed_sets(logic, least)]
    for t, t_mask in zip(index.theories, index.masks):
        for mask, s in sets:
            if not mask & t_mask:
                yield t, s


def criterion_prime_extension(max_points: int = 4) -> CriterionResult:
    """Every admissible (theory, join-closed set) pair extends to a prime,
    cross-checked against the enumerated primes."""
    checked = 0
    failures = []
    for name, logic in _extension_logics(max_points):
        primes = theory_spectrum(logic).primes
        for t, s in _extension_pairs(logic):
            checked += 1
            failure = _extension_failure(logic, primes, t, s)
            if failure is not None:
                failures.append(f"{name}: {failure}")
    return _result(5, "prime-extension", checked, f"{checked} admissible pairs", failures)


def _extension_failure(logic: AbstractLogic, primes, t: frozenset[int], s: frozenset[int]) -> str | None:
    """Why the prime extension of t avoiding s fails criterion 5, or None:
    it must be one of the enumerated primes above t that miss s."""
    try:
        p = prime_extension(logic, t, s)
    except PreconditionViolated:
        return "precondition rejected a valid pair"
    if p not in primes or not t <= p or p & s:
        return "extension disagrees with enumeration"
    return None


def _randrange_tables(n: int) -> tuple[bytes, bytes]:
    """The translate table and the delete set of _randrange_block: byte b
    maps to its top n.bit_length() bits, and the bytes whose top bits
    are >= n are deleted.  The bytes with top bits v form one run of
    256 >> bits, so the table is each v repeated over its run, and the
    deleted bytes are those from n's run on."""
    bits = n.bit_length()
    run = 256 >> bits
    keep = b"".join([bytes((v,)) * run for v in range(1 << bits)])
    reject = bytes(range(n * run, 256))
    return keep, reject


def _randrange_block(rng: random.Random, n: int, count: int) -> bytes:
    """The next ``count`` values of ``rng.randrange(n)``, for 0 < n < 256.

    CPython's randrange(n) takes one 32-bit word per try, keeps its top
    n.bit_length() bits and tries again while they are >= n; and
    getrandbits(32 * m) packs m words with the first least significant.
    So the top byte of each word of such a block, shifted down, with the
    values >= n deleted, is the stream of randrange(n).  The words drawn
    after the last value kept are lost: the generator ends ahead of where
    ``count`` calls to randrange would leave it."""
    if not 0 < n < 256:
        raise ValueError(f"randrange block needs 0 < n < 256, got {n}")
    bits = n.bit_length()
    keep, reject = _randrange_tables(n)
    values = b""
    while len(values) < count:
        # About as many words as the rest needs; a shortfall draws again.
        words = ((count - len(values)) << bits) // n + 1
        block = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        values += block[3::4].translate(keep, reject)
    return values[:count]


def _logic_map_draws(src: AbstractLogic, tgt: AbstractLogic, values: bytes, samples: int) -> bytes:
    """One byte per draw of a block: zero exactly when the draw is a logic map.

    Draw d maps source expression a to ``values[d * width + a]``.  For
    each target theory t, byte d of the OR over a of a's membership
    column, shifted up by a, is the preimage mask of t under draw d; one
    translate marks every draw whose mask is no source theory.  Masks
    must fit in a byte, so the source has at most eight expressions."""
    width = src.universe_size
    if width > 8:
        raise ValueError(f"logic-map gate needs at most 8 source expressions, got {width}")
    # translate tables: only the first 2**width masks and the target's
    # expressions can occur, so the rest of each table is padding
    not_a_source_theory = bytes(m not in src._index.mask_set for m in range(1 << width)).ljust(256, b"\1")
    columns = [values[a::width] for a in range(width)]
    rejected = 0
    for t in tgt._index.masks:
        member_t = bytes(t >> b & 1 for b in tgt.exprs).ljust(256, b"\0")
        preimages = 0
        for a, column in enumerate(columns):
            preimages |= int.from_bytes(column.translate(member_t), "little") << a
        marks = preimages.to_bytes(samples, "little").translate(not_a_source_theory)
        rejected |= int.from_bytes(marks, "little")
    return rejected.to_bytes(samples, "little")


def _stability_pair(source, target, seed: int, samples: int) -> tuple[int, int, str | None]:
    """Sample maps from a (name, logic) source to a (name, logic) target,
    from the pair's own seeded generator, up to the first failure: the
    sample count, the logic-map count and the failure, if any.  The draws
    are those of randrange, taken in one block, and _logic_map_draws
    gates the whole block at once.  Every logic-map draw counts, but each
    distinct mapping is judged once."""
    (src_name, src), (tgt_name, tgt) = source, target
    rng = random.Random((seed, src_name, tgt_name).__repr__())
    width = src.universe_size
    values = _randrange_block(rng, tgt.universe_size, width * samples)
    gate = _logic_map_draws(src, tgt, values, samples)
    verdicts: dict[bytes, bool] = {}
    logic_maps = 0
    d = gate.find(0)
    while d >= 0:
        mapping = values[d * width:(d + 1) * width]
        agree = verdicts.get(mapping)
        if agree is None:
            agree = verdicts[mapping] = stable_iff_disjunction(LogicMap(src, tgt, tuple(mapping))).agree
        logic_maps += 1
        if not agree:
            return d + 1, logic_maps, f"{src_name}->{tgt_name}: lemma fails at {tuple(mapping)}"
        d = gate.find(0, d + 1)
    return samples, logic_maps, None


def criterion_stability_lemma(max_points: int = 4, seed: int = 0) -> CriterionResult:
    """Stability coincides with join preservation on sampled logic maps.

    The logics are the distributive corpus logics of at most six
    expressions, each with a join table.  Every (source, target) pair
    draws its samples from a generator seeded by the seed and the two
    names alone, as one block that _logic_map_draws gates at once; only
    the logic maps among them are judged."""
    small = [(name, logic) for name, logic in _distributive_logics(max_points) if logic.universe_size <= 6]
    sampled = logic_maps = 0
    failures = []
    for source in small:
        for target in small:
            n, k, failure = _stability_pair(source, target, seed, STABILITY_SAMPLES)
            sampled += n
            logic_maps += k
            if failure is not None:
                failures.append(failure)
    detail = f"{sampled} samples over {len(small)}^2 logic pairs, {logic_maps} logic maps"
    return _result(6, "stability-lemma", logic_maps, detail, failures)


def criterion_spectral_distributive(max_points: int = 4) -> CriterionResult:
    """Spectral corpus spaces are distributive, with one prime filter on
    the basis for each point.

    The implication adjunction, W inside U -> V exactly when W meets U
    inside V, is not checked here: once has_implication holds it cannot
    fail, since every basic open is an upset of the specialization
    order.  tests/oracles.py keeps it as a second reading.
    """
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
    two-point chain space refines to the discrete space.  Many spaces
    refine to equal spaces, and each distinct one is analysed once."""
    failures = []
    spaces = _spectral_spaces(max_points)
    refinements: dict[FiniteSpace, FiniteSpace] = {}
    for name, space in spaces:
        fine = constructible_topology(space)
        fine = refinements.setdefault(fine, fine)
        if not analyze_space(fine).is_boolean:
            failures.append(f"{name}: refinement not Boolean")
    fine = constructible_topology(dict(corpus_spaces(max_points))["sierpinski"])
    if set(fine.basis) != {frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}:
        failures.append("chain space did not refine to the discrete space")
    return _result(10, "constructible-topology", len(spaces) + 1, f"{len(spaces)} spectral spaces refined", failures)


def criterion_degenerate_primes(max_points: int = 4) -> CriterionResult:
    """The four flag combinations appear exactly as designed on the
    quartet's corpus logics."""
    failures = []
    quartet = corpus_logics(max_points)[len(corpus_frames(max_points)):]
    for name, logic in quartet:
        report = check_degenerate_primes(logic)
        got = (
            report.no_valid_formula,
            report.empty_is_prime,
            report.no_inconsistent_formula,
            report.full_set_is_prime,
        )
        if got != QUARTET_FLAGS[name]:
            failures.append(f"{name}: {got} expected {QUARTET_FLAGS[name]}")
    return _result(11, "degenerate-primes", len(quartet), f"{len(quartet)} logics, all flag combinations", failures)


def run_all(max_points: int = 4, seed: int = 0) -> tuple[CriterionResult, ...]:
    return (
        criterion_logic_roundtrip(max_points),
        criterion_space_roundtrip(max_points),
        criterion_spectrality(max_points),
        criterion_generic_points(max_points),
        criterion_prime_extension(max_points),
        criterion_stability_lemma(max_points, seed),
        criterion_spectral_distributive(max_points),
        criterion_heyting_agreement(max_points),
        criterion_godel_witness(),
        criterion_constructible(max_points),
        criterion_degenerate_primes(max_points),
    )
