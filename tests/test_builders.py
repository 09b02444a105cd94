"""Posets, lattices, upset algebras, and the poset enumerator."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from logictop import builders
from logictop.builders import (
    FiniteLattice,
    FinitePoset,
    POSET_ENUMERATION_BOUND,
    _bitrows,
    cover_edges,
    enumerate_posets,
    frame_godel_witness,
    godel_witness,
    heyting_from_upsets,
    is_strongly_connected,
    logic_from_lattice_filters,
)
from logictop.connectives import CONDITION_ORDER, ConditionCheck, verify_connectives
from logictop.corpus import POSET_COUNTS, antichain, chain, corpus_frames, corpus_spaces, discrete_two, indiscrete_two, sierpinski, v_frame
from logictop.core import _close, _mask, sorted_sets, theory_spectrum
from logictop.errors import BoundExceeded, EmptyGeneratorSet, NotHeyting
from logictop.duality import logic_space, roundtrip_logic, roundtrip_space
from logictop.topology import FiniteSpace, _arrow, _members

from oracles import (
    canonical_form,
    lattice_from_leq,
    oracle_canonical_matrix,
    oracle_condition_check,
    oracle_labeled_posets,
    oracle_open_implication,
    oracle_open_set_lattice,
    oracle_opens,
    oracle_distributivity_witness,
    oracle_double_negation_scan,
    oracle_extent,
    oracle_is_heyting,
    oracle_join_condition,
    oracle_lattice_error,
    oracle_lattice_tables,
    oracle_meet_condition,
    oracle_order_closure,
    oracle_order_error,
    oracle_poset_count,
    oracle_primes,
    oracle_totally_primes,
    oracle_upsets,
    order_isomorphic,
    random_logic,
)


def test_poset_validation():
    with pytest.raises(ValueError):
        FinitePoset(("a", "b"), ((True, True), (True, True)))  # not antisymmetric
    with pytest.raises(ValueError):
        FinitePoset(("a", "b"), ((False, False), (False, True)))  # not reflexive
    with pytest.raises(ValueError):
        FinitePoset(
            ("a", "b", "c"),
            ((True, True, False), (False, True, True), (False, False, True)),
        )  # not transitive


def test_from_pairs_takes_transitive_closure():
    p = FinitePoset.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert p.leq[0][2]
    assert p.upset(0) == frozenset({0, 1, 2})


@st.composite
def _named_pairs(draw):
    """Names x0.. on 0 to 6 elements and up to twelve pairs of them, so
    cycles are common; one time in ten a pair names an unknown element."""
    names = tuple(f"x{i}" for i in range(draw(st.integers(0, 6))))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=12)) if names else []
    if draw(st.integers(0, 9)) == 0:
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from((("zz", "x0"), ("x0", "zz")))))
    return names, pairs


@settings(max_examples=300, deadline=None)
@given(_named_pairs())
def test_from_pairs_closes_as_the_fixpoint_oracle(drawn):
    """from_pairs gives the order of the fixpoint closure, or raises the
    ValueError text that closure and the order check raise."""
    names, pairs = drawn
    got = _error_text(lambda: FinitePoset.from_pairs(names, pairs))
    assert got == _error_text(lambda: FinitePoset(names, oracle_order_closure(names, pairs)))


def test_covers_drop_composites():
    p = FinitePoset.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert set(cover_edges(_bitrows(p.leq))) == {(0, 1), (1, 2)}


def test_upsets_of_vframe_match_mask_oracle(vframe):
    algebra = heyting_from_upsets(vframe)
    elements = sorted(oracle_upsets(vframe.leq), key=lambda s: (len(s), sorted(s)))
    assert algebra.n == len(elements) == 5
    assert algebra.element_names == ("{}", "{b}", "{c}", "{b,c}", "{r,b,c}")


def test_upset_algebra_of_chain_is_chain():
    algebra = heyting_from_upsets(chain(2))
    assert algebra.n == 3
    assert all(algebra.leq[i][j] == (i <= j) for i in range(3) for j in range(3))


def test_upset_algebra_of_antichain_is_boolean():
    algebra = heyting_from_upsets(antichain(2))
    assert algebra.n == 4
    neg = [algebra.impl[x][algebra.bottom] for x in range(4)]
    assert all(algebra.join[x][neg[x]] == algebra.top for x in range(4))
    assert all(algebra.meet[x][neg[x]] == algebra.bottom for x in range(4))


def test_vframe_negation_swaps_the_arms(vframe):
    algebra = heyting_from_upsets(vframe)
    b = algebra.element_names.index("{b}")
    c = algebra.element_names.index("{c}")
    assert algebra.impl[b][algebra.bottom] == c
    assert algebra.impl[c][algebra.bottom] == b


def test_heyting_adjunction_holds_on_upset_algebras(vframe):
    for frame in (chain(3), antichain(3), vframe, *(f for _, f in corpus_frames())):
        algebra = heyting_from_upsets(frame)
        assert algebra.is_heyting
        for x in range(algebra.n):
            for y in range(algebra.n):
                for z in range(algebra.n):
                    lhs = algebra.leq[z][algebra.impl[x][y]]
                    rhs = algebra.leq[algebra.meet[z][x]][y]
                    assert lhs == rhs


@st.composite
def _frames(draw, max_points=6, min_points=1):
    """A poset on min_points to max_points points: pairs i <= j of a
    random linear order, closed by from_pairs."""
    n = draw(st.integers(min_points, max_points))
    order = draw(st.permutations([f"x{i}" for i in range(n)]))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted), max_size=10))
    return FinitePoset.from_pairs(order, [(order[i], order[j]) for i, j in pairs])


@settings(max_examples=60, deadline=None)
@given(_frames())
def test_upset_algebras_are_heyting_and_distributive(frame):
    """heyting_from_upsets builds a Heyting algebra by construction, which
    frame_godel_witness relies on when it scans a frame's upsets without
    building their algebra or checking it."""
    algebra = heyting_from_upsets(frame)
    assert algebra.n == len(oracle_upsets(frame.leq))
    assert oracle_is_heyting(algebra)
    assert oracle_distributivity_witness(algebra) is None


@settings(max_examples=40, deadline=None)
@given(_frames(min_points=6, max_points=8))
def test_frames_past_the_enumeration_bound_roundtrip_onto_their_points(frame):
    """On posets of 6 to 8 points, past POSET_ENUMERATION_BOUND, the filter
    logic of the upset algebra roundtrips both ways, and Birkhoff's
    representation holds: sending point x to the prime of the upsets
    holding x is a bijection onto the spectrum's points that preserves
    and reflects the order, x <= y exactly when x's prime lies below
    y's in the specialization order.  The points come in graded order,
    and each expression's basic open is its extent over them."""
    logic = logic_from_lattice_filters(heyting_from_upsets(frame))
    pres = logic_space(logic)
    assert list(pres.points) == sorted(pres.points, key=lambda p: (len(p), sorted(p)))
    for a in logic.exprs:
        assert pres.space.basis[pres.expr_to_basis[a]] == oracle_extent(pres.points, a), a
    for report in (roundtrip_logic(logic), roundtrip_space(pres.space)):
        assert report.iso_ok and report.square_ok, report.direction
    elements = sorted(oracle_upsets(frame.leq), key=lambda s: (len(s), sorted(s)))
    position = {p: i for i, p in enumerate(pres.points)}
    image = [position.get(frozenset(i for i, u in enumerate(elements) if x in u)) for x in range(frame.n)]
    assert None not in image and sorted(image) == list(range(len(pres.points)))
    up = [mask for _, mask in pres.space._index.upsets]
    assert all(frame.leq[x][y] == bool(up[image[x]] >> image[y] & 1) for x in range(frame.n) for y in range(frame.n))


def test_lattice_rejects_missing_bounds():
    with pytest.raises(ValueError):
        lattice_from_leq(("a", "b"), ((True, False), (False, True)))


def test_from_leq_builds_the_lattice_once(monkeypatch):
    """One build per lattice, with both bounds declared wherever they sit;
    an empty order stays unbounded, and a non-lattice or ragged order is
    refused with the build's own message."""
    builds = []
    post_init = FiniteLattice.__post_init__
    monkeypatch.setattr(FiniteLattice, "__post_init__", lambda self: builds.append(self) or post_init(self))
    t, f = True, False
    up = lattice_from_leq("abc", ((t, t, t), (f, t, t), (f, f, t)))
    down = lattice_from_leq("abc", ((t, f, f), (t, t, f), (t, t, t)))
    assert len(builds) == 2
    assert (up.top, up.bottom, down.top, down.bottom) == (2, 0, 0, 2)
    for lattice in _bounded_lattices(4):
        assert (lattice.top, lattice.bottom) == (lattice.n - 1, 0)
    empty = lattice_from_leq((), ())
    assert (empty.n, empty.top, empty.bottom) == (0, None, None)
    for names, leq, message in (
        ("ab", ((t, f), (f, t)), "no least upper bound for 0,1"),
        ("ab", ((t, t), (t,)), "order matrix must be square"),
        ("abc", ((t, t), (f, t)), "one matrix row per element"),
        ("ab", ((t, t), (t, t)), "order not antisymmetric at 0,1"),
    ):
        with pytest.raises(ValueError) as err:
            lattice_from_leq(names, leq)
        assert str(err.value) == message


@pytest.mark.parametrize("fields, message", [
    ({"impl": ((1.9, "1"), (0, 1))}, "impl value 1.9 is not an integer"),
    ({"impl": ((1, 1), (0, None))}, "impl value None is not an integer"),
    ({"top": 1.0}, "top index 1.0 is not an integer"),
    ({"bottom": "0"}, "bottom index '0' is not an integer"),
])
def test_lattice_refuses_entries_that_are_not_integers(fields, message):
    with pytest.raises(ValueError) as err:
        FiniteLattice(("a", "b"), ((True, True), (False, True)), **fields)
    assert str(err.value) == message


def test_filter_logic_of_chain_is_the_worked_three_valued(chain3_logic):
    built = logic_from_lattice_filters(heyting_from_upsets(chain(2)))
    assert built.theories == chain3_logic.theories
    assert built.connectives == chain3_logic.connectives
    assert built.expr_names != chain3_logic.expr_names  # only the labels differ


def test_filter_logic_theories_are_principal_filters(vframe_logic):
    algebra = heyting_from_upsets(v_frame())
    theories = sorted_sets(vframe_logic.theories.theories)
    expected = sorted_sets(
        frozenset(b for b in range(algebra.n) if algebra.leq[a][b])
        for a in range(algebra.n)
        if a != algebra.bottom
    )
    assert theories == expected


def test_improper_filter_switch_adds_the_full_set():
    proper = logic_from_lattice_filters(heyting_from_upsets(chain(2)))
    singular = logic_from_lattice_filters(heyting_from_upsets(chain(2)), proper=False)
    assert proper.full_set not in proper.theories
    assert singular.full_set in singular.theories
    assert singular.theories.theories == proper.theories.theories | {singular.full_set}


def test_filter_logic_needs_a_filter_to_keep():
    one = heyting_from_upsets(antichain(0))
    with pytest.raises(EmptyGeneratorSet):
        logic_from_lattice_filters(one)
    assert logic_from_lattice_filters(one, proper=False).theories.theories == {frozenset({0})}


def test_filter_logic_of_n5_is_graded_none():
    # N5: bottom, a < c, b, top; five expressions, join and meet tables
    # and both bounds, whose join condition fails at a prime
    names = ("0", "a", "b", "c", "1")
    pairs = [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")]
    lattice = lattice_from_leq(names, FinitePoset.from_pairs(names, pairs).leq)
    assert oracle_distributivity_witness(lattice) is not None
    report = verify_connectives(logic_from_lattice_filters(lattice))
    assert report.classification == "none"
    assert report.condition("join").status is False
    assert report.condition("meet").status is True


def test_open_set_lattice_of_sierpinski_is_chain():
    lattice = oracle_open_set_lattice(sierpinski())
    assert lattice.n == 3
    assert all(lattice.leq[i][j] == (i <= j) for i in range(3) for j in range(3))
    assert lattice.is_heyting


def test_open_set_lattices_are_heyting(small_spaces):
    for name, space in small_spaces:
        assert oracle_open_set_lattice(space).is_heyting, name


def test_upset_algebra_is_the_open_set_lattice_of_the_alexandrov_space():
    for name, frame in corpus_frames(4):
        alexandrov = FiniteSpace(frame.element_names, tuple(frame.upset(x) for x in range(frame.n)))
        assert heyting_from_upsets(frame) == oracle_open_set_lattice(alexandrov), name


def test_open_set_implication_matches_the_interior_oracle(wide_spaces):
    # the library's upset reading over covered points, on every pair of
    # opens, against int((X - A) | B)
    for name, space in wide_spaces:
        ops = oracle_opens(space.n_points, space.basis)
        covered = _mask(frozenset().union(*space.basis))
        upsets = [(bit, up) for bit, up in space._index.upsets if bit & covered]
        for a in ops:
            for b in ops:
                arrow = _members(_arrow(upsets, _mask(a), _mask(b)))
                assert arrow == oracle_open_implication(ops, a, b), (name, a, b)


def test_logic_from_topology_matches_filter_route(chain3_logic):
    built = logic_from_lattice_filters(oracle_open_set_lattice(sierpinski()))
    assert built.theories == chain3_logic.theories
    assert built.connectives == chain3_logic.connectives


def test_logic_from_discrete_pair_is_classical(boolean4_logic):
    built = logic_from_lattice_filters(oracle_open_set_lattice(discrete_two()))
    assert built.theories == boolean4_logic.theories
    assert built.connectives == boolean4_logic.connectives


def test_logic_from_indiscrete_pair_is_singleton_theoried():
    built = logic_from_lattice_filters(oracle_open_set_lattice(indiscrete_two()))
    assert built.universe_size == 2
    assert built.theories.theories == frozenset({frozenset({1})})


def test_strong_connectivity():
    assert is_strongly_connected(chain(3))
    assert not is_strongly_connected(v_frame())
    two_chains = FinitePoset.from_pairs(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
    assert is_strongly_connected(two_chains)


def test_poset_counts_match_relation_filter_oracle():
    for n in range(1, 5):
        got = len(tuple(enumerate_posets(n)))
        assert got == oracle_poset_count(n), n


def test_enumerated_posets_are_canonical_and_distinct():
    seen = set()
    for p in enumerate_posets(4):
        form = canonical_form(p.leq)
        assert form not in seen
        seen.add(form)


def test_every_labeled_poset_appears():
    enumerated = {canonical_form(p.leq) for p in enumerate_posets(3)}
    brute = {canonical_form(m) for m in oracle_labeled_posets(3)}
    assert enumerated == brute


def test_canonical_matrices_match_the_relabeling_loop():
    for n in range(2, 5):
        relabelings = builders._relabelings(n)
        for matrix in oracle_labeled_posets(n):
            assert builders._canonical_matrix(matrix, relabelings) == oracle_canonical_matrix(matrix), matrix


@pytest.mark.parametrize("n", range(1, POSET_ENUMERATION_BOUND + 1))
def test_enumerated_posets_match_the_relabeling_loop(monkeypatch, n):
    fast = list(enumerate_posets(n))
    monkeypatch.setattr(builders, "_canonical_matrix", lambda matrix, relabelings: oracle_canonical_matrix(matrix))
    assert fast == list(enumerate_posets(n))


def test_poset_counts_cover_the_enumeration_bound():
    assert len(POSET_COUNTS) == POSET_ENUMERATION_BOUND
    for n, expected in enumerate(POSET_COUNTS, start=1):
        assert len(tuple(enumerate_posets(n))) == expected, n


def test_enumeration_bound():
    assert POSET_ENUMERATION_BOUND == 5
    with pytest.raises(BoundExceeded):
        list(enumerate_posets(6))
    with pytest.raises(BoundExceeded):
        list(enumerate_posets(0))


def test_random_logic_bound():
    with pytest.raises(BoundExceeded):
        random_logic(13, 0)


def test_godel_witness_on_vframe(vframe):
    algebra = heyting_from_upsets(vframe)
    got = godel_witness(algebra)
    names = algebra.element_names
    assert got == (names.index("{b}"), names.index("{c}"),
                   names.index("{r,b,c}"), names.index("{b,c}"))
    assert got == oracle_double_negation_scan(algebra)
    assert frame_godel_witness(vframe) == (got, ("{b}", "{c}", "{r,b,c}", "{b,c}"))


def _assert_both_scans_match_the_table_oracle(frame):
    algebra = heyting_from_upsets(frame)
    expected = oracle_double_negation_scan(algebra)
    assert godel_witness(algebra) == expected
    named = frame_godel_witness(frame)
    if expected is None:
        assert named is None
    else:
        assert named == (expected, tuple(algebra.element_names[i] for i in expected))


def test_both_scan_routes_match_the_table_oracle_on_the_corpus_frames():
    frames = [frame for _, frame in corpus_frames(5)]
    assert len(frames) == 87
    for frame in frames:
        _assert_both_scans_match_the_table_oracle(frame)


@settings(max_examples=80, deadline=None)
@given(_frames(max_points=7))
def test_both_scan_routes_match_the_table_oracle(frame):
    _assert_both_scans_match_the_table_oracle(frame)


def test_godel_witness_absent_on_boolean_algebras():
    for k in range(5):
        assert godel_witness(heyting_from_upsets(antichain(k))) is None
        assert frame_godel_witness(antichain(k)) is None


def test_the_upset_scan_refuses_past_its_bound():
    # the 10-point antichain, just inside the bound, is scanned in test_cli
    assert builders.UPSET_BOUND == 1024
    with pytest.raises(BoundExceeded):
        frame_godel_witness(antichain(11))


def test_a_closure_stops_growing_once_past_its_limit():
    """Forty singletons close to 2**40 unions; with a limit of 1024 the
    closure gives up after at most twice that many."""
    calls = 0

    def union(a, b):
        nonlocal calls
        calls += 1
        if calls > 8 * 1024:
            raise AssertionError("the closure kept growing past its limit")
        return a | b

    with pytest.raises(BoundExceeded):
        _close([frozenset({i}) for i in range(40)], union, 1024)
    assert calls <= 2 * 1024


def test_godel_witness_needs_heyting_structure():
    lattice = lattice_from_leq(("a", "b"), ((True, True), (False, True)))
    with pytest.raises(NotHeyting):
        godel_witness(lattice)


def test_frame_recovery_up_to_order_isomorphism(vframe):
    # the spectrum of an upset filter logic carries the original order
    for frame in (chain(2), chain(3), v_frame(), antichain(3)):
        logic = logic_from_lattice_filters(heyting_from_upsets(frame))
        space = logic_space(logic).space
        matrix = [[bool(up >> y & 1) for y in range(space.n_points)] for _, up in space._index.upsets]
        assert order_isomorphic(matrix, frame.leq)


_TABLES = ("leq", "impl")


@st.composite
def _upset_algebra_edits(draw):
    """The upset algebra of a corpus frame, as its order, implication and
    bounds, with zero to three entries changed: a flipped order entry, or
    an implication entry set to any index or to one past the last."""
    _, frame = draw(st.sampled_from(corpus_frames(5)))
    algebra = heyting_from_upsets(frame)
    n = algebra.n
    tables = {name: [list(row) for row in getattr(algebra, name)] for name in _TABLES}
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(_TABLES))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        row = tables[name]
        row[i][j] = not row[i][j] if name == "leq" else draw(st.integers(0, n))
    fields = {name: tuple(tuple(row) for row in table) for name, table in tables.items()}
    return algebra.element_names, dict(fields, top=algebra.top, bottom=algebra.bottom)


def _error_text(build):
    try:
        return None, build()
    except ValueError as e:
        return str(e), None


def test_order_check_names_the_first_witness_in_loop_order():
    t, f = True, False
    for leq in (
        ((t, t, f), (t, t, t), (f, f, t)),  # 0,1 fail antisymmetry and transitivity; the first wins
        ((t, t, f), (f, t, t), (f, f, t)),
        ((t, f, f), (f, f, f), (t, t, t)),
        ((t, f, t), (t, t, f), (f, f, t)),
        ((t, t), (t,)),
    ):
        with pytest.raises(ValueError) as err:
            FinitePoset(("a", "b", "c")[:len(leq)], leq)
        assert str(err.value) == oracle_order_error(leq)


@settings(max_examples=400, deadline=None)
@given(_upset_algebra_edits())
def test_order_and_lattice_checks_match_the_loop_oracles(drawn):
    names, fields = drawn
    leq = fields["leq"]
    assert _error_text(lambda: FinitePoset(names, leq))[0] == oracle_order_error(leq)
    error, lattice = _error_text(lambda: FiniteLattice(names, **fields))
    assert error == oracle_lattice_error(**fields)
    if lattice is not None:
        assert (lattice.join, lattice.meet) == oracle_lattice_tables(leq)
        assert lattice.is_heyting == oracle_is_heyting(lattice)


@pytest.mark.parametrize("top, bottom", [(-1, -3), (99, 0), (4, -1), (2, 3), (None, 3)])
def test_declared_bounds_outside_the_carrier_are_refused(top, bottom):
    """Negative bounds do not wrap round, and a bound past the last
    element is a ValueError, not an IndexError."""
    algebra = heyting_from_upsets(chain(2))
    error, _ = _error_text(lambda: replace(algebra, top=top, bottom=bottom))
    assert error == oracle_lattice_error(algebra.leq, algebra.impl, top, bottom)
    assert error is not None


def _bounded_orders(max_points):
    """Each corpus poset of up to max_points points with a new bottom and
    top added, as element names and order."""
    out = []
    for _, frame in corpus_frames(max_points):
        k = frame.n
        leq = [[True] * (k + 2)]
        leq += [[False] + list(row) + [True] for row in frame.leq]
        leq += [[False] * (k + 1) + [True]]
        out.append((("0",) + frame.element_names + ("1",), tuple(map(tuple, leq))))
    return out


def _bounded_lattices(max_points):
    """The bounded corpus orders that are lattices (M3 and N5 among them)."""
    out = []
    for names, leq in _bounded_orders(max_points):
        try:
            out.append(lattice_from_leq(names, leq))
        except ValueError:
            pass
    return out


def _set_positions(sets):
    """The union and intersection tables of a family of sets, graded as
    the lattice builders order it, as positions in that order."""
    graded = builders._graded_sets(sets)
    position = {s: i for i, s in enumerate(graded)}
    join = tuple(tuple(position[a | b] for b in graded) for a in graded)
    meet = tuple(tuple(position[a & b] for b in graded) for a in graded)
    return join, meet


def test_join_and_meet_are_read_off_the_order():
    """On the upset algebras of every corpus frame, the open-set lattices
    of the small corpus spaces and the bounded corpus orders, the derived
    tables equal the lists-of-bounds reference, and unions and
    intersections where the elements are sets; a bounded order that is no
    lattice fails as the reference does."""
    checked = 0
    for _, frame in corpus_frames(5):
        lattice = heyting_from_upsets(frame)
        tables = (lattice.join, lattice.meet)
        assert tables == oracle_lattice_tables(lattice.leq) == _set_positions(oracle_upsets(frame.leq))
        checked += 1
    for _, space in corpus_spaces(3):
        lattice = oracle_open_set_lattice(space)
        tables = (lattice.join, lattice.meet)
        assert tables == oracle_lattice_tables(lattice.leq) == _set_positions(oracle_opens(space.n_points, space.basis))
        checked += 1
    refused = 0
    for names, leq in _bounded_orders(5):
        error, lattice = _error_text(lambda: FiniteLattice(names, leq))
        assert error == oracle_lattice_error(leq)
        if lattice is None:
            refused += 1
        else:
            assert (lattice.join, lattice.meet) == oracle_lattice_tables(leq)
    assert (checked, refused) == (87 + 16, 11)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_bounded_lattices(5)), st.randoms(use_true_random=False))
def test_filter_logic_conditions_match_the_loop_oracle(lattice, rng):
    """The filter logic of every bounded corpus poset that is a lattice,
    under a random relabelling, so that the first witness of a failing
    condition falls at varied positions."""
    n = lattice.n
    order = list(range(n))
    rng.shuffle(order)
    leq = [[lattice.leq[order[i]][order[j]] for j in range(n)] for i in range(n)]
    logic = logic_from_lattice_filters(lattice_from_leq([lattice.element_names[i] for i in order], leq))
    report = verify_connectives(logic)
    for name in CONDITION_ORDER:
        assert report.condition(name) == ConditionCheck(name, *oracle_condition_check(logic, name)), name


def test_filter_logic_is_distributive_exactly_when_its_lattice_is():
    lattices = _bounded_lattices(5)
    assert (len(lattices), sum(oracle_distributivity_witness(lattice) is not None for lattice in lattices)) == (76, 57)
    lattices += [heyting_from_upsets(frame) for _, frame in corpus_frames(4)]
    for lattice in lattices:
        report = verify_connectives(logic_from_lattice_filters(lattice))
        assert report.is_distributive == (oracle_distributivity_witness(lattice) is None)


def test_the_two_readings_of_totally_prime_part_on_non_distributive_logics():
    """theory_spectrum reads totally prime as prime (intersection-
    irreducible); oracle_totally_primes reads it as meet-prime.  On the
    filter logics of the bounded corpus lattices they part exactly on the
    57 that are not distributive, and under the meet-prime reading the
    join and meet conditions hold on all 76, so only the library's reading
    grades a filter logic distributive exactly when its lattice is."""
    parted, non_distributive = [], []
    for lattice in _bounded_lattices(5):
        logic = logic_from_lattice_filters(lattice)
        theories, spectrum = logic.theories.theories, theory_spectrum(logic)
        assert spectrum.primes == oracle_primes(theories)
        assert oracle_join_condition(logic) is True and oracle_meet_condition(logic) is True
        parted.append(spectrum.totally_primes != oracle_totally_primes(theories))
        non_distributive.append(oracle_distributivity_witness(lattice) is not None)
    assert parted == non_distributive and sum(parted) == 57
    random_logics = [random_logic(6, seed) for seed in range(20)]
    assert sum(theory_spectrum(logic).totally_primes != oracle_totally_primes(logic.theories.theories)
               for logic in random_logics) == 8
