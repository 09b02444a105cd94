"""Finite spaces: opens, separation, sobriety, implication, filters."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from logictop.corpus import corpus_frames, discrete_two, indiscrete_two, one_point
from logictop.duality import logic_space
from logictop.core import _mask
from logictop.dot import export_dot
from logictop.errors import BasisNotLattice, NotClosed, NotSpectral
from logictop.topology import (
    FiniteSpace,
    _members,
    _t0_witness,
    analyze_space,
    closure,
    constructible_topology,
    generic_point,
    has_implication,
    irreducible_closed_sets,
    is_distributive_space,
    is_heyting_basis,
    opens,
    point_filter,
    prime_filters_on_basis,
)

from oracles import (
    _t0_witness as oracle_t0_witness,
    oracle_adjunction,
    oracle_analyze_space,
    oracle_closure,
    oracle_constructible_topology,
    oracle_dot,
    oracle_has_implication,
    oracle_implication,
    oracle_is_distributive_space,
    oracle_is_heyting_basis,
    oracle_lattice_violation,
    oracle_open_implication,
    oracle_opens,
    oracle_opens_by_unions,
    oracle_prime_filters,
    oracle_specialization_upsets,
    oracle_t0,
    point_sets,
)


def _arrow_of(space, u, v):
    """U -> V of two basic opens, read off the space index's arrows."""
    return _members(space._index.arrows[_mask(u) & ~_mask(v)])


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteSpace(("a", "a"), (frozenset(),))
    with pytest.raises(ValueError):
        FiniteSpace(("a",), (frozenset({3}),))
    with pytest.raises(ValueError):
        FiniteSpace(("a",), (frozenset(), frozenset()))


@pytest.mark.parametrize("basis, message", [
    (({0.5},), "basis point 0.5 is not an integer"),
    (({0}, {1.0}), "basis point 1.0 is not an integer"),
    (({0}, {0, "1"}), "basis point '1' is not an integer"),
])
def test_space_refuses_points_that_are_not_integers(basis, message):
    with pytest.raises(ValueError) as err:
        FiniteSpace(("x", "y"), basis)
    assert str(err.value) == message


def test_opens_match_union_oracle(wide_spaces):
    for name, space in wide_spaces:
        assert opens(space) == oracle_opens(space.n_points, space.basis), name


def test_pointwise_opens_oracle_matches_the_unions_of_subfamilies(small_spaces):
    checked = 0
    for name, space in small_spaces:
        if len(space.basis) <= 10:
            checked += 1
            n, basis = space.n_points, space.basis
            assert oracle_opens(n, basis) == oracle_opens_by_unions(n, basis), name
    assert checked


def test_closed_sets_are_complements(chain_space):
    index = chain_space._index
    assert index.closed == frozenset(index.carrier & ~_mask(u) for u in opens(chain_space))


def test_closure_is_smallest_closed_superset(small_spaces):
    for name, space in small_spaces:
        closeds = [space.carrier - u for u in oracle_opens(space.n_points, space.basis)]
        for mask in range(1 << space.n_points):
            a = frozenset(i for i in range(space.n_points) if mask >> i & 1)
            expected = space.carrier
            for c in closeds:
                if a <= c and c < expected:
                    expected = c
            assert closure(space, a) == expected, name


def test_closure_rejects_stray_points(chain_space):
    with pytest.raises(ValueError):
        closure(chain_space, {7})


def test_t0_and_sobriety_coincide_on_finite_spaces(small_spaces):
    for name, space in small_spaces:
        report = analyze_space(space)
        assert report.is_T0 == report.is_sober, name


def test_indiscrete_pair_is_neither_t0_nor_sober():
    report = analyze_space(indiscrete_two())
    assert not report.is_T0 and not report.is_sober
    assert ("is_T0", (0, 1)) in report.witnesses
    assert not report.is_spectral


def test_point_filters_separate_points_iff_t0(small_spaces):
    for name, space in small_spaces:
        profiles = [point_filter(space, x) for x in range(space.n_points)]
        distinct = len(set(profiles)) == space.n_points
        assert distinct == analyze_space(space).is_T0, name


def test_sierpinski_analysis(chain_space):
    report = analyze_space(chain_space)
    assert report.is_T0 and report.is_sober and report.is_compact
    assert report.is_spectral and not report.is_boolean
    assert report.has_implication and report.basis_is_all_opens


def test_discrete_pair_is_boolean():
    report = analyze_space(discrete_two())
    assert report.is_spectral and report.is_boolean


def test_specialization_of_vframe_spectrum(vframe_logic):
    space = logic_space(vframe_logic).space
    up = [mask for _, mask in space._index.upsets]
    above = {(i, j) for i in range(3) for j in range(3) if i != j and up[i] >> j & 1}
    assert above == {(0, 1), (0, 2)}
    assert _t0_witness(space) is None and oracle_t0(space.n_points, space.basis)


def test_specialization_antisymmetric_iff_t0(wide_spaces):
    assert any(_t0_witness(space) is not None for _, space in wide_spaces)
    for name, space in wide_spaces:
        up = [mask for _, mask in space._index.upsets]
        antisymmetric = not any(up[x] >> y & 1 and up[y] >> x & 1
                                for x in range(space.n_points) for y in range(x + 1, space.n_points))
        assert antisymmetric == (_t0_witness(space) is None) == oracle_t0(space.n_points, space.basis), name


def test_basic_opens_are_specialization_upsets(small_spaces):
    for name, space in small_spaces:
        if not analyze_space(space).is_T0:
            continue
        upsets = [_members(up) for _, up in space._index.upsets]
        for u in space.basis:
            assert all(upsets[x] <= u for x in u), name


def test_irreducible_closed_sets_of_vframe_spectrum(vframe_logic):
    space = logic_space(vframe_logic).space
    got = irreducible_closed_sets(space)
    assert set(got) == {frozenset({0}), frozenset({0, 1}), frozenset({0, 2})}
    # the full carrier is the union of two smaller closed sets, so it is out
    assert space.carrier not in got


def test_generic_points_on_sierpinski(chain_space):
    point, unique = generic_point(chain_space, frozenset({0}))
    assert (point, unique) == (0, True)
    with pytest.raises(NotClosed):
        generic_point(chain_space, frozenset({1}))


def test_generic_point_not_unique_without_t0():
    point, unique = generic_point(indiscrete_two(), frozenset({0, 1}))
    assert not unique
    assert point in (0, 1)


def test_implication_open_values(vframe_logic, chain_space):
    space = logic_space(vframe_logic).space
    assert _arrow_of(space, frozenset({1}), frozenset({2})) == frozenset({2})
    assert _arrow_of(chain_space, frozenset({1}), frozenset()) == frozenset()


def test_implication_open_is_largest_candidate(small_spaces):
    # among basic opens W, those with W & U <= V sit inside U -> V
    for name, space in small_spaces:
        for u in space.basis:
            for v in space.basis:
                arrow = _arrow_of(space, u, v)
                assert arrow & u <= v or not analyze_space(space).is_T0
                for w in space.basis:
                    if w & u <= v:
                        assert w <= arrow, name


def test_has_implication_spec_values(chain_space, vframe_logic):
    assert has_implication(chain_space) == (True, None)
    ok, witness = has_implication(logic_space(vframe_logic).space)
    assert ok and witness is None


def test_prime_filters_on_discrete_pair():
    filters = prime_filters_on_basis(discrete_two())
    # principal filters over the two singleton opens, as basis index sets
    space = discrete_two()
    expected = {
        frozenset(i for i, u in enumerate(space.basis) if u >= frozenset({0})),
        frozenset(i for i, u in enumerate(space.basis) if u >= frozenset({1})),
    }
    assert set(filters) == expected


def test_prime_filters_require_lattice_basis():
    broken = FiniteSpace(("a", "b", "c"), (frozenset({0, 1}), frozenset({1, 2})))
    with pytest.raises(BasisNotLattice):
        prime_filters_on_basis(broken)
    with pytest.raises(BasisNotLattice):
        is_heyting_basis(broken)


def test_distributive_space_verdicts(vframe_logic):
    space = logic_space(vframe_logic).space
    verdict = is_distributive_space(space)
    assert verdict.distributive and verdict.bounded
    bad = is_distributive_space(indiscrete_two())
    assert not bad.distributive
    assert bad.witness is not None


def test_one_point_space_is_distributive_but_unbounded():
    verdict = is_distributive_space(one_point())
    assert verdict.distributive and not verdict.bounded


def test_adjunction_on_vframe_spectrum(vframe_logic):
    space = logic_space(vframe_logic).space
    assert len(space.basis) == 5
    assert has_implication(space)[0]
    assert oracle_adjunction(space.n_points, space.basis) == (True, None)


def test_constructible_topology_discretizes(small_spaces, chain_space):
    fine = constructible_topology(chain_space)
    assert set(fine.basis) == {
        frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1}),
    }
    for name, space in small_spaces:
        if not analyze_space(space).is_spectral:
            continue
        fine = constructible_topology(space)
        assert analyze_space(fine).is_boolean, name
        assert len(fine.basis) == 1 << space.n_points, name


def test_constructible_topology_rejects_non_spectral():
    with pytest.raises(NotSpectral):
        constructible_topology(indiscrete_two())


def test_spatial_and_algebraic_heyting_agree_on_covering_bases(small_spaces):
    for name, space in small_spaces:
        if frozenset().union(*space.basis, frozenset()) != space.carrier:
            continue
        assert has_implication(space)[0] == is_heyting_basis(space), name


def test_heyting_readings_split_without_covering(quartet):
    # with no valid formula the empty prime lies in no extent; the basis
    # lattice is still Heyting but no basic open can serve as empty -> V
    _, logic, _ = quartet[1]
    space = logic_space(logic).space
    assert frozenset().union(*space.basis) != space.carrier
    assert is_heyting_basis(space)
    assert not has_implication(space)[0]


def _assert_matches_the_oracles(space, label):
    """Every verdict and witness the space index feeds, against the
    frozenset oracles."""
    n, basis = space.n_points, space.basis
    ops = oracle_opens(n, basis)
    impl = oracle_has_implication(n, basis)
    assert has_implication(space) == impl, label
    if impl[0]:
        # the adjunction is a theorem once every arrow is basic
        assert oracle_adjunction(n, basis) == (True, None), label
    upsets = oracle_specialization_upsets(n, basis)
    assert [_members(up) for _, up in space._index.upsets] == upsets, label
    assert _t0_witness(space) == oracle_t0_witness(n, basis), label
    covered = frozenset().union(*basis)
    opens_meet = all(u & v in ops for u in ops for v in ops)
    for u in basis:
        for v in basis:
            arrow = _arrow_of(space, u, v)
            assert arrow == oracle_implication(upsets, u, v), (label, u, v)
            if opens_meet:
                # with opens closed under intersection, the upset and the
                # interior readings agree off the uncovered points
                assert arrow & covered == oracle_open_implication(ops, u, v), (label, u, v)
    for a in point_sets(n):
        assert closure(space, a) == oracle_closure(n, ops, a), (label, a)
    assert dataclasses.asdict(analyze_space(space)) == oracle_analyze_space(n, basis), label
    assert dataclasses.asdict(is_distributive_space(space)) == oracle_is_distributive_space(n, basis), label
    bad = oracle_lattice_violation(basis)
    if bad is None:
        assert prime_filters_on_basis(space) == oracle_prime_filters(basis), label
        assert is_heyting_basis(space) == oracle_is_heyting_basis(basis), label
    else:
        for reader in (prime_filters_on_basis, is_heyting_basis):
            with pytest.raises(BasisNotLattice) as err:
                reader(space)
            assert err.value.witness == bad, label


def test_space_index_matches_the_frozenset_oracles_on_the_wide_corpus(wide_spaces):
    spaces = list(wide_spaces)
    spaces += [(f"constructible({name})", constructible_topology(space))
               for name, space in wide_spaces if analyze_space(space).is_spectral]
    # the verdicts read only the point count and the basis; refinements repeat the discrete spaces
    distinct = {(space.n_points, space.basis): (name, space) for name, space in spaces}
    for name, space in distinct.values():
        _assert_matches_the_oracles(space, name)


@st.composite
def _random_spaces(draw):
    """A random basis on up to five points, or the opens it generates
    (union-closed, often a lattice), in a drawn order."""
    n = draw(st.integers(0, 5))
    points = st.frozensets(st.integers(0, n - 1), max_size=n) if n else st.just(frozenset())
    basis = draw(st.lists(points, unique=True, max_size=10))
    if draw(st.booleans()):
        basis = draw(st.permutations(sorted(oracle_opens(n, basis), key=sorted)))
    return FiniteSpace(tuple(f"p{x}" for x in range(n)), tuple(basis))


@settings(max_examples=300, deadline=None)
@given(_random_spaces())
def test_space_index_matches_the_frozenset_oracles(space):
    _assert_matches_the_oracles(space, space.basis)


@settings(max_examples=200, deadline=None)
@given(_random_spaces())
def test_dot_export_draws_the_oracle_specialization_order(space):
    assert export_dot(space) == oracle_dot(space)


def test_dot_export_draws_every_frame_and_corpus_space_as_the_oracle(wide_spaces):
    """The frames of corpus_frames(5) and the wide corpus spaces, T0 or
    not; two equivalent points are drawn with an edge each way."""
    for name, obj in [*corpus_frames(5), *wide_spaces]:
        assert export_dot(obj) == oracle_dot(obj), name
    twins = export_dot(indiscrete_two())
    assert '"x" -> "y";' in twins and '"y" -> "x";' in twins


def _assert_refines_as_the_oracle(space, label):
    """constructible_topology against the frozenset route: the same point
    names, basis in order and basis names; a space that is not spectral
    is refused."""
    if not analyze_space(space).is_spectral:
        with pytest.raises(NotSpectral):
            constructible_topology(space)
        return False
    fine = constructible_topology(space)
    assert (fine.point_names, fine.basis, fine.basis_names) == oracle_constructible_topology(space), label
    return True


def test_constructible_topology_matches_the_frozenset_route_on_the_wide_corpus(wide_spaces):
    refined = sum(_assert_refines_as_the_oracle(space, name) for name, space in wide_spaces)
    assert refined == 90


# A family that is no basis ({a} = {a,b} ∩ {a,c} is not open) is still
# called spectral; its refinement is not discrete, as {a} is no union of
# differences.
_NOT_A_BASIS = FiniteSpace(("a", "b", "c"), (frozenset(), frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 1, 2})))


@settings(max_examples=300, deadline=None)
@given(_random_spaces())
@example(_NOT_A_BASIS)
def test_constructible_topology_matches_the_frozenset_route(space):
    _assert_refines_as_the_oracle(space, space.basis)


def test_refinement_of_a_family_that_is_no_basis_is_not_discrete():
    fine = constructible_topology(_NOT_A_BASIS)
    assert frozenset({0}) not in fine.basis
    assert len(fine.basis) < 1 << _NOT_A_BASIS.n_points
