"""The two dual constructions and the comparison maps between them."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from logictop.builders import RANDOM_LOGIC_BOUND, random_logic
from logictop.core import (
    AbstractLogic,
    ConnectiveTables,
    TheoryFamily,
    close_under_intersection,
    quotient_logic,
    theory_spectrum,
)
from logictop.corpus import corpus_logics, discrete_two
from logictop.duality import (
    DisjunctionCheck,
    LogicMap,
    PointMap,
    analyze_logic_map,
    basic_open_embedding,
    dual_logic_map,
    dual_point_map,
    is_spectral_map,
    logic_space,
    point_filter_embedding,
    roundtrip_logic,
    roundtrip_space,
    sorted_primes,
    space_logic,
    stable_iff_disjunction,
    theory_preimage_map,
)
from logictop.errors import NotDistributive, NotLogicMap, NotSpectralMap, NotStable
from logictop.topology import FiniteSpace

from oracles import oracle_analyze_logic_map, oracle_extent, oracle_preserves_join


def test_logic_space_of_chain_is_sierpinski(chain3_logic):
    pres = logic_space(chain3_logic)
    assert pres.points == (frozenset({2}), frozenset({1, 2}))
    assert pres.space.basis == (frozenset(), frozenset({1}), frozenset({0, 1}))
    assert pres.space.basis_names == ("bot", "m", "top")
    assert pres.expr_to_basis == (0, 1, 2)


def test_logic_space_of_boolean_logic_is_discrete(boolean4_logic):
    pres = logic_space(boolean4_logic)
    assert pres.points == (frozenset({1, 3}), frozenset({2, 3}))
    assert set(pres.space.basis) == {
        frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1}),
    }


def test_logic_space_of_vframe_logic(vframe_logic):
    pres = logic_space(vframe_logic)
    assert pres.points == (frozenset({4}), frozenset({1, 3, 4}), frozenset({2, 3, 4}))
    assert pres.space.basis == (
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    )


def test_primes_order_is_graded(vframe_logic):
    primes = sorted_primes(vframe_logic)
    assert [len(p) for p in primes] == sorted(len(p) for p in primes)


def test_logic_space_merges_equivalent_expressions():
    # two expressions sharing every theory share one extent and one name
    from logictop.core import ConnectiveTables

    family = close_under_intersection(3, [{1, 2}, {0, 1, 2}])
    tables = ConnectiveTables(
        join=((0, 1, 1), (1, 1, 1), (1, 1, 2)),
        meet=((0, 0, 0), (0, 1, 1), (0, 1, 2)),
    )
    logic = AbstractLogic(("a", "b", "c"), family, tables)
    pres = logic_space(logic)
    assert len(pres.space.basis) == 2
    assert "b=c" in pres.space.basis_names


def test_logic_space_requires_distributive():
    bare = AbstractLogic(("a", "b"), close_under_intersection(2, [{0}, {0, 1}]))
    with pytest.raises(NotDistributive):
        logic_space(bare)


def test_space_logic_of_sierpinski(chain_space):
    logic = space_logic(chain_space)
    assert logic.universe_size == 3
    assert logic.theories.theories == frozenset({frozenset({2}), frozenset({1, 2})})
    c = logic.connectives
    assert c.top == 2 and c.bottom == 0
    assert c.impl is not None and c.neg is not None


def test_space_logic_of_one_point_cover():
    space = FiniteSpace(("w",), (frozenset(), frozenset({0})))
    logic = space_logic(space)
    assert logic.universe_size == 2
    assert logic.theories.theories == frozenset({frozenset({1})})


def test_space_logic_back_and_forth_preserves_names(chain3_logic):
    again = space_logic(logic_space(chain3_logic).space)
    assert again == chain3_logic


def test_theory_preimage_map_of_collapse(boolean4_logic):
    h = LogicMap(boolean4_logic, boolean4_logic, (0, 2, 0, 3))
    pairs = dict(theory_preimage_map(h))
    assert pairs == {
        frozenset({3}): frozenset({3}),
        frozenset({1, 3}): frozenset({3}),
        frozenset({2, 3}): frozenset({1, 3}),
    }


def test_preimage_map_rejects_non_logic_maps(boolean4_logic):
    # sending everything to top pulls {top} back to the whole language
    h = LogicMap(boolean4_logic, boolean4_logic, (0, 3, 3, 3))
    with pytest.raises(NotLogicMap):
        theory_preimage_map(h)


def test_analysis_of_identity_and_swap(boolean4_logic):
    ident = analyze_logic_map(LogicMap(boolean4_logic, boolean4_logic, (0, 1, 2, 3)))
    assert ident.is_logic_map and ident.is_stable and ident.is_normal
    assert ident.is_L_surjective and ident.is_isomorphism
    swap = analyze_logic_map(LogicMap(boolean4_logic, boolean4_logic, (0, 2, 1, 3)))
    assert swap.is_isomorphism


def test_analysis_of_the_collapse_map(boolean4_logic):
    h = LogicMap(boolean4_logic, boolean4_logic, (0, 2, 0, 3))
    analysis = analyze_logic_map(h)
    assert analysis.is_logic_map
    assert not analysis.is_stable
    assert not analysis.is_normal
    assert not analysis.is_L_surjective
    assert not analysis.is_isomorphism
    labels = dict(analysis.witnesses)
    # the prime {a, top} pulls back to the non-prime {top}
    assert labels["is_stable"] == frozenset({1, 3})


def test_everything_to_top_is_not_a_logic_map(boolean4_logic):
    analysis = analyze_logic_map(LogicMap(boolean4_logic, boolean4_logic, (0, 3, 3, 3)))
    assert not analysis.is_logic_map


def test_stability_lemma_on_the_collapse(boolean4_logic):
    h = LogicMap(boolean4_logic, boolean4_logic, (0, 2, 0, 3))
    check = stable_iff_disjunction(h)
    assert check.is_logic_map
    assert not check.stable
    assert not check.preserves_join
    assert check.agree
    assert check.witness == (1, 2)


def test_stability_lemma_exhaustive_on_small_endomaps(chain3_logic, vframe_logic):
    for logic in (chain3_logic, vframe_logic):
        n = logic.universe_size
        maps = range(n ** n)
        for code in maps:
            mapping = tuple(code // n**i % n for i in range(n))
            check = stable_iff_disjunction(LogicMap(logic, logic, mapping))
            if check.is_logic_map:
                assert check.agree, mapping
            if check.stable:
                assert check.is_logic_map, mapping


def test_dual_point_map_of_swap(boolean4_logic):
    swap = LogicMap(boolean4_logic, boolean4_logic, (0, 2, 1, 3))
    pm = dual_point_map(swap)
    assert pm.mapping == (1, 0)


def test_dual_point_map_pulls_extents_back(chain3_logic, boolean4_logic, vframe_logic):
    stable = [
        LogicMap(boolean4_logic, boolean4_logic, (0, 1, 2, 3)),
        LogicMap(boolean4_logic, boolean4_logic, (0, 2, 1, 3)),
    ]
    for logic in (chain3_logic, vframe_logic):
        n = logic.universe_size
        for code in range(n ** n):
            h = LogicMap(logic, logic, tuple(code // n**i % n for i in range(n)))
            if analyze_logic_map(h).is_stable:
                stable.append(h)
    assert len(stable) > 2
    for h in stable:
        pm = dual_point_map(h)
        src_points = logic_space(h.source).points
        tgt_points = logic_space(h.target).points
        for a in h.source.exprs:
            assert pm.preimage(oracle_extent(src_points, a)) == oracle_extent(tgt_points, h(a)), (h.mapping, a)


def test_dual_point_map_requires_stability(boolean4_logic):
    h = LogicMap(boolean4_logic, boolean4_logic, (0, 2, 0, 3))
    with pytest.raises(NotStable):
        dual_point_map(h)


def test_spectral_map_detection(chain_space):
    constant = PointMap(chain_space, chain_space, (1, 1))
    ok, witness = is_spectral_map(constant)
    assert ok and witness is None
    swap = PointMap(chain_space, chain_space, (1, 0))
    ok, witness = is_spectral_map(swap)
    assert not ok
    assert witness == frozenset({1})


def test_dual_logic_map_of_constant_into_chain(chain_space):
    constant = PointMap(discrete_two(), chain_space, (1, 1))
    h = dual_logic_map(constant)
    src, tgt = h.source, h.target
    assert src == space_logic(chain_space)
    assert tgt == space_logic(discrete_two())
    sent = [discrete_two().basis[h.mapping[a]] for a in src.exprs]
    # empty goes to empty, both opens containing s1 pull back to everything
    assert sent == [frozenset(), frozenset({0, 1}), frozenset({0, 1})]


def test_dual_logic_map_rejects_non_spectral(chain_space):
    swap = PointMap(chain_space, chain_space, (1, 0))
    with pytest.raises(NotSpectralMap):
        dual_logic_map(swap)


def test_embeddings_compose_to_roundtrips(vframe_logic, chain_space):
    emb = basic_open_embedding(vframe_logic)
    assert emb.source == vframe_logic
    analysis = analyze_logic_map(emb)
    assert analysis.is_logic_map and analysis.is_stable and analysis.is_isomorphism
    pts = point_filter_embedding(chain_space)
    assert pts.source == chain_space
    assert is_spectral_map(pts)[0]


def test_roundtrip_logic_reports(chain3_logic, boolean4_logic, vframe_logic):
    for logic in (chain3_logic, boolean4_logic, vframe_logic):
        report = roundtrip_logic(logic)
        assert report.direction == "logic"
        assert report.iso_ok and report.square_ok
        assert all(ok for _, ok, _ in report.squares)


def test_roundtrip_logic_with_automorphism(boolean4_logic):
    swap = LogicMap(boolean4_logic, boolean4_logic, (0, 2, 1, 3))
    report = roundtrip_logic(boolean4_logic, swap)
    assert report.iso_ok and report.square_ok


def test_roundtrip_logic_rejects_foreign_maps(chain3_logic, boolean4_logic):
    swap = LogicMap(boolean4_logic, boolean4_logic, (0, 2, 1, 3))
    with pytest.raises(ValueError):
        roundtrip_logic(chain3_logic, swap)


def test_roundtrip_space_reports(chain_space):
    report = roundtrip_space(chain_space)
    assert report.direction == "space"
    assert report.iso_ok and report.square_ok


def test_roundtrip_space_with_endomap(chain_space):
    constant = PointMap(chain_space, chain_space, (1, 1))
    report = roundtrip_space(chain_space, constant)
    assert report.iso_ok and report.square_ok


def test_extent_pullback_identity(small_logics):
    # the extent map pulls every extent back to the expression's theories
    from logictop.connectives import verify_connectives

    for name, logic in small_logics:
        if not verify_connectives(logic).is_distributive:
            continue
        pres = logic_space(logic)
        primes = pres.points
        for a in logic.exprs:
            ext = pres.space.basis[pres.expr_to_basis[a]]
            assert ext == frozenset(i for i, p in enumerate(primes) if a in p), name


def test_duality_functors_flip_composition(chain_space):
    # (g . f)^ = f^ . g^ on a composable pair of spectral maps
    f = PointMap(discrete_two(), chain_space, (1, 1))
    g = PointMap(chain_space, chain_space, (1, 1))
    gf = PointMap(discrete_two(), chain_space, tuple(g.mapping[x] for x in f.mapping))
    hf, hg, hgf = dual_logic_map(f), dual_logic_map(g), dual_logic_map(gf)
    composed = tuple(hf.mapping[hg.mapping[a]] for a in hgf.source.exprs)
    assert composed == hgf.mapping


_corpus_logics = st.sampled_from([logic for _, logic in corpus_logics(4)])
_small_logics = st.sampled_from([logic for _, logic in corpus_logics(2)])
_logics = st.one_of(
    st.builds(random_logic, st.integers(1, RANDOM_LOGIC_BOUND), st.integers(0, 2**32)),
    _corpus_logics,
)


def _with_copy(logic, b):
    """The logic plus one more expression, a copy of b: it lies in the
    theories b lies in, and the join and meet tables read it as b."""
    n = logic.universe_size
    family = TheoryFamily(n + 1, frozenset(t | {n} if b in t else t for t in logic.theories.theories))
    read = (*range(n), b)

    def extend(table):
        return tuple(tuple(table[read[x]][read[y]] for y in range(n + 1)) for x in range(n + 1))

    c = logic.connectives
    tables = ConnectiveTables(join=extend(c.join), meet=None if c.meet is None else extend(c.meet))
    return AbstractLogic((*logic.expr_names, f"{logic.expr_names[b]}'"), family, tables)


@st.composite
def _random_mapping(draw, source, target):
    image = st.integers(0, target.universe_size - 1)
    n = source.universe_size
    return LogicMap(source, target, tuple(draw(st.lists(image, min_size=n, max_size=n))))


@st.composite
def _logic_maps(draw):
    """Random mappings, which are mostly not logic maps, plus identities,
    quotient projections and copy embeddings, which are.  Random mappings
    between logics of at most four expressions are often logic maps,
    stable or not.  A copy embedding sends b to its copy in a target with
    joins, so it preserves joins only up to equivalence."""
    kind = draw(st.sampled_from(("random", "small", "identity", "quotient", "copy")))
    if kind == "small":
        return draw(_random_mapping(draw(_small_logics), draw(_small_logics)))
    if kind == "copy":
        source = draw(_corpus_logics)
        b = draw(st.integers(0, source.universe_size - 1))
        target = _with_copy(source, b)
        if draw(st.booleans()):
            return draw(_random_mapping(source, target))
        return LogicMap(source, target, tuple(target.universe_size - 1 if a == b else a for a in source.exprs))
    source = draw(_logics)
    if kind == "identity":
        return LogicMap(source, source, tuple(source.exprs))
    if kind == "quotient":
        target, projection = quotient_logic(source)
        return LogicMap(source, target, projection)
    return draw(_random_mapping(source, draw(_logics)))


def _has_join(logic):
    return logic.connectives is not None and logic.connectives.join is not None


@settings(max_examples=300, deadline=None)
@given(_logic_maps())
def test_map_analysis_matches_the_frozenset_oracle(m):
    expected = oracle_analyze_logic_map(
        m, theory_spectrum(m.source).totally_primes, theory_spectrum(m.target).totally_primes
    )
    assert dataclasses.asdict(analyze_logic_map(m)) == expected
    if _has_join(m.source) and _has_join(m.target):
        pair = oracle_preserves_join(m)
        stable_witness = next((w for name, w in expected["witnesses"] if name == "is_stable"), None)
        assert stable_iff_disjunction(m) == DisjunctionCheck(
            is_logic_map=expected["is_logic_map"],
            stable=expected["is_stable"],
            preserves_join=pair is None,
            agree=expected["is_stable"] == (pair is None),
            witness=pair if pair is not None else stable_witness,
        )


def test_logic_map_rejects_images_that_are_not_integers(chain3_logic):
    for images, bad in (((0.9, 1, 2), "0.9 of expression 0"), ((0, 1.5, 2), "1.5 of expression 1"),
                        ((0, 1, "2"), "'2' of expression 2")):
        with pytest.raises(ValueError, match=f"image {bad} is not an integer"):
            LogicMap(chain3_logic, chain3_logic, images)
    assert LogicMap(chain3_logic, chain3_logic, [0, 1, 2]).mapping == (0, 1, 2)


def test_point_map_rejects_images_that_are_not_integers(chain_space):
    for images, bad in (((0.9, 1), "0.9 of point 0"), ((0, "1"), "'1' of point 1")):
        with pytest.raises(ValueError, match=f"image {bad} is not an integer"):
            PointMap(chain_space, chain_space, images)
    assert PointMap(chain_space, chain_space, [1, 0]).mapping == (1, 0)
