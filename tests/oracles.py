"""Brute-force reference implementations, straight from the definitions.

Everything here trades speed for obviousness: subfamilies are enumerated
in full, conditions are checked by quantifying over whole power sets.
Tests compare the package's cleverer code against these.
"""

import random
from itertools import chain, combinations, permutations

from logictop import corpus
from logictop.errors import PreconditionViolated


def subfamilies(family):
    """All non-empty subsets of a collection, as tuples."""
    items = list(family)
    return chain.from_iterable(combinations(items, k) for k in range(1, len(items) + 1))


def intersect_all(sets):
    sets = list(sets)
    out = sets[0]
    for s in sets[1:]:
        out = out & s
    return out


def oracle_close(n, sets):
    seed = [frozenset(s) for s in sets]
    return frozenset(intersect_all(sub) for sub in subfamilies(seed))


def oracle_consequence(logic, premises):
    premises = frozenset(premises)
    above = [t for t in logic.theories.theories if premises <= t]
    if not above:
        return logic.full_set
    return intersect_all(above)


def oracle_primes(theories):
    """Intersection-irreducible members, by trying every other subfamily."""
    out = set()
    for t in theories:
        others = [u for u in theories if u != t]
        if not any(intersect_all(sub) == t for sub in subfamilies(others)):
            out.add(t)
    return frozenset(out)


def oracle_totally_primes(theories):
    """Members T such that any subfamily intersecting into T has a member in T."""
    out = set()
    for t in theories:
        ok = all(
            any(u <= t for u in sub)
            for sub in subfamilies(theories)
            if intersect_all(sub) <= t
        )
        if ok:
            out.add(t)
    return frozenset(out)


def oracle_maximals(theories):
    return frozenset(t for t in theories if not any(t < u for u in theories))


def oracle_generates(theories, candidate):
    """Whether every theory is an intersection of some of the candidates."""
    return all(
        any(intersect_all(sub) == t for sub in subfamilies(candidate))
        for t in theories
    )


def point_sets(n):
    """Every subset of range(n)."""
    return [frozenset(x for x in range(n) if mask >> x & 1) for mask in range(1 << n)]


def oracle_opens(n, basis):
    """Pointwise: U is open when it is the union of the basic opens inside it."""
    basis = [frozenset(b) for b in basis]
    return frozenset(u for u in point_sets(n) if frozenset().union(*(b for b in basis if b <= u)) == u)


def oracle_opens_by_unions(n, basis):
    """Unions of every subset of the basis, plus the empty union."""
    out = {frozenset()}
    for sub in subfamilies(basis):
        out.add(frozenset().union(*sub))
    return frozenset(out)


def oracle_open_implication(ops, a, b):
    """A -> B on a family of opens as the interior of (complement of A)
    or B: the union of every open W inside it, that is, W & A <= B."""
    return frozenset().union(*(w for w in ops if w & a <= b))


def oracle_closure(n, ops, a):
    """The intersection of every closed set (complement of an open) holding a."""
    carrier = frozenset(range(n))
    return intersect_all([carrier - o for o in ops if frozenset(a) <= carrier - o])


def oracle_specialization_upsets(n, basis):
    """For each point x, the points lying in every basic open around x."""
    basis = [frozenset(b) for b in basis]
    return [frozenset(y for y in range(n) if all(y in b for b in basis if x in b)) for x in range(n)]


def oracle_implication(upsets, u, v):
    """U -> V pointwise: the points x whose upset meets U only inside V."""
    return frozenset(x for x, up in enumerate(upsets) if up & u <= v)


def oracle_has_implication(n, basis):
    """Whether every U -> V of basic opens is basic, with the first
    failing pair in sorted order."""
    upsets = oracle_specialization_upsets(n, basis)
    ordered = sorted((frozenset(b) for b in basis), key=sorted)
    for u in ordered:
        for v in ordered:
            if oracle_implication(upsets, u, v) not in ordered:
                return False, (u, v)
    return True, None


def oracle_adjunction(n, basis):
    """W inside U -> V exactly when W meets U inside V, with the first
    failing basic triple in sorted order."""
    upsets = oracle_specialization_upsets(n, basis)
    ordered = sorted((frozenset(b) for b in basis), key=sorted)
    for u in ordered:
        for v in ordered:
            arrow = oracle_implication(upsets, u, v)
            for w in ordered:
                if (w <= arrow) != (w & u <= v):
                    return False, (u, v, w)
    return True, None


def _point_filter(basis, x):
    return frozenset(i for i, b in enumerate(basis) if x in b)


def _t0_witness(n, basis):
    seen = {}
    for x in range(n):
        profile = _point_filter(basis, x)
        if profile in seen:
            return seen[profile], x
        seen[profile] = x
    return None


def _irreducible_closed_sets(closeds):
    """Non-empty closed sets that are no union of two smaller ones, sorted."""
    out = []
    for f in closeds:
        parts = [c for c in closeds if c < f]
        if f and not any(c1 | c2 == f for c1 in parts for c2 in parts):
            out.append(f)
    return sorted(out, key=sorted)


def oracle_analyze_space(n, basis):
    """The fields of topology.SpaceReport from the definitions, over
    frozensets and the oracle opens, witnesses in the report's order."""
    basis = [frozenset(b) for b in basis]
    carrier = frozenset(range(n))
    ops = oracle_opens(n, basis)
    witnesses = []
    twins = _t0_witness(n, basis)
    if twins is not None:
        witnesses.append(("is_T0", twins))
    uncovered = carrier.difference(*basis)
    if uncovered:
        witnesses.append(("covers_carrier", min(uncovered)))
    sober = True
    for f in _irreducible_closed_sets({carrier - o for o in ops}):
        if len([y for y in f if oracle_closure(n, ops, {y}) == f]) != 1:
            sober = False
            witnesses.append(("is_sober", f))
            break
    basis_is_all_opens = set(basis) == ops
    spectral = not uncovered and twins is None and sober and basis_is_all_opens
    apart = next(
        ((x, y) for x in range(n) for y in range(x + 1, n)
         if not any(x in u and y in v and not u & v for u in ops for v in ops)),
        None,
    )
    if apart is not None and spectral:
        witnesses.append(("is_boolean", apart))
    impl_ok, impl_witness = oracle_has_implication(n, basis)
    if not impl_ok:
        witnesses.append(("has_implication", impl_witness))
    return {
        "is_T0": twins is None,
        "covers_carrier": not uncovered,
        "is_compact": carrier in ops,
        "is_sober": sober,
        "is_spectral": spectral,
        "is_boolean": spectral and apart is None,
        "has_implication": impl_ok,
        "basis_is_all_opens": basis_is_all_opens,
        "basis_intersection_closed": all(u & v in ops for u in basis for v in basis),
        "witnesses": tuple(witnesses),
    }


def oracle_lattice_violation(basis):
    """The first pair of basic opens, in sorted order, whose union or
    intersection is not basic, or None."""
    ordered = sorted((frozenset(b) for b in basis), key=sorted)
    for u in ordered:
        for v in ordered:
            if u | v not in ordered or u & v not in ordered:
                return (u, v)
    return None


def oracle_prime_filters(basis):
    """The join-prime principal filters of a basis lattice, as sets of
    basis indices, sorted; properness is avoiding the empty open."""
    basis = [frozenset(b) for b in basis]
    filters = {
        frozenset(i for i, u in enumerate(basis) if g <= u)
        for g in basis
        if g and all(not g <= u | v or g <= u or g <= v for u in basis for v in basis)
    }
    return tuple(sorted(filters, key=sorted))


def oracle_is_heyting_basis(basis):
    """Whether, for all basic U, V, the basic W meeting U inside V have a greatest member."""
    basis = [frozenset(b) for b in basis]
    for u in basis:
        for v in basis:
            candidates = [w for w in basis if w & u <= v]
            if not any(all(c <= w for c in candidates) for w in candidates):
                return False
    return True


def oracle_is_distributive_space(n, basis):
    """The fields of topology.DistributiveSpaceVerdict from the
    definitions: T0, covering, every non-empty open basic, the sorted
    basis a lattice, prime filters on it exactly the point filters."""
    basis = [frozenset(b) for b in basis]
    carrier = frozenset(range(n))
    bounded = frozenset() in basis and carrier in basis

    def verdict(distributive, witness):
        return {"distributive": distributive, "bounded": bounded, "witness": witness}

    if carrier.difference(*basis):
        return verdict(False, ("carrier-not-covered", None))
    if _t0_witness(n, basis) is not None:
        return verdict(False, ("not-T0", None))
    extra = oracle_opens(n, basis) - set(basis) - {frozenset()}
    if extra:
        return verdict(False, ("open-not-basic", min(extra, key=sorted)))
    bad = oracle_lattice_violation(basis)
    if bad is not None:
        return verdict(False, ("basis-not-lattice", bad))
    filters = set(oracle_prime_filters(basis))
    points = {_point_filter(basis, x) for x in range(n)}
    if filters != points:
        return verdict(False, ("filter-point-mismatch", min(filters ^ points, key=sorted)))
    return verdict(True, None)


def oracle_join_condition(logic):
    """The join table must mirror membership-or on every totally prime theory."""
    c = logic.connectives
    if c is None or c.join is None:
        return None
    tps = oracle_totally_primes(logic.theories.theories)
    return all(
        (c.join[a][b] in t) == (a in t or b in t)
        for t in tps
        for a in logic.exprs
        for b in logic.exprs
    )


def oracle_meet_condition(logic):
    c = logic.connectives
    if c is None or c.meet is None:
        return None
    tps = oracle_totally_primes(logic.theories.theories)
    return all(
        (c.meet[a][b] in t) == (a in t and b in t)
        for t in tps
        for a in logic.exprs
        for b in logic.exprs
    )


def oracle_neg_condition(logic):
    c = logic.connectives
    if c is None or c.neg is None:
        return None
    tps = oracle_totally_primes(logic.theories.theories)
    covered = lambda s: any(s <= u for u in logic.theories.theories)
    return all(
        (c.neg[a] in t) == (not covered(t | {a}))
        for t in tps
        for a in logic.exprs
    )


def oracle_impl_condition(logic):
    """a -> b sits in T exactly when every totally prime extension of T
    containing a also contains b."""
    c = logic.connectives
    if c is None or c.impl is None:
        return None
    tps = oracle_totally_primes(logic.theories.theories)
    return all(
        (c.impl[a][b] in t) == all(b in u for u in tps if t <= u and a in u)
        for t in tps
        for a in logic.exprs
        for b in logic.exprs
    )


def oracle_top_condition(logic):
    c = logic.connectives
    if c is None or c.top is None:
        return None
    return all(c.top in t for t in logic.theories.theories)


def oracle_bottom_condition(logic):
    c = logic.connectives
    if c is None or c.bottom is None:
        return None
    return all(c.bottom not in t for t in logic.theories.theories)


def oracle_labeled_posets(n):
    """Every reflexive, antisymmetric, transitive relation on range(n)."""
    found = []
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(cells)):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for k, (i, j) in enumerate(cells):
            if mask >> k & 1:
                rel[i][j] = True
        if any(rel[i][j] and rel[j][i] for i, j in cells):
            continue
        if any(
            rel[i][j] and rel[j][k] and not rel[i][k]
            for i in range(n) for j in range(n) for k in range(n)
        ):
            continue
        found.append(tuple(tuple(row) for row in rel))
    return found


def canonical_form(matrix):
    n = len(matrix)
    return min(
        tuple(matrix[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in permutations(range(n))
    )


def oracle_poset_count(n):
    return len({canonical_form(m) for m in oracle_labeled_posets(n)})


def oracle_upsets(leq):
    n = len(leq)
    out = []
    for mask in range(1 << n):
        s = frozenset(i for i in range(n) if mask >> i & 1)
        if all(leq[i][j] <= (j in s) for i in s for j in range(n)):
            out.append(s)
    return out


def order_isomorphic(leq_a, leq_b):
    n = len(leq_a)
    if n != len(leq_b):
        return False
    return any(
        all(leq_a[i][j] == leq_b[p[i]][p[j]] for i in range(n) for j in range(n))
        for p in permutations(range(n))
    )


def oracle_is_theory(logic, s):
    """The closure reading of a theory: consistent and its own consequence set."""
    s = frozenset(s)
    consistent = any(s <= t for t in logic.theories.theories)
    return consistent and oracle_consequence(logic, s) == s


def oracle_equivalent(logic, a, b):
    """Logical equivalence as mutual consequence."""
    return b in oracle_consequence(logic, {a}) and a in oracle_consequence(logic, {b})


def oracle_extent(points, a):
    """Indices of the listed prime theories that contain expression a."""
    return frozenset(i for i, p in enumerate(points) if a in p)


def oracle_t0(n, basis):
    """Any two distinct points are told apart by some open."""
    ops = oracle_opens(n, basis)
    return all(
        any((x in u) != (y in u) for u in ops)
        for x in range(n) for y in range(x + 1, n)
    )


def oracle_analyze_logic_map(m, src_primes, tgt_primes):
    """Map analysis by frozenset preimages and mutual consequence.

    ``src_primes`` and ``tgt_primes`` are the totally prime theories of
    the source and the target.  Returns the fields of
    duality.MapAnalysis, with the witnesses in its order: the first
    target theory (in sorted order) whose preimage is no theory, the
    first prime (smaller first) whose preimage is no prime, the first
    source theory no preimage reaches, the first target expression
    equivalent to no image.
    """
    src, tgt = m.source, m.target
    src_theories = set(src.theories.theories)
    witnesses = []
    preimages = []
    is_logic = True
    for t in sorted(tgt.theories.theories, key=sorted):
        pre = frozenset(a for a in src.exprs if m.mapping[a] in t)
        preimages.append(pre)
        if is_logic and pre not in src_theories:
            is_logic = False
            witnesses.append(("is_logic_map", (t, pre)))
    stable = is_logic
    if is_logic:
        for p in sorted(tgt_primes, key=lambda t: (len(t), sorted(t))):
            if frozenset(a for a in src.exprs if m.mapping[a] in p) not in src_primes:
                stable = False
                witnesses.append(("is_stable", p))
                break
    normal = is_logic and set(preimages) == src_theories
    if is_logic and not normal:
        witnesses.append(("is_normal", min(src_theories - set(preimages), key=sorted)))
    surjective = True
    for b in tgt.exprs:
        if not any(oracle_equivalent(tgt, b, m.mapping[a]) for a in src.exprs):
            surjective = False
            witnesses.append(("is_L_surjective", b))
            break
    return {
        "is_logic_map": is_logic,
        "is_stable": stable,
        "is_normal": normal,
        "is_L_surjective": surjective,
        "is_isomorphism": normal and surjective,
        "witnesses": tuple(witnesses),
    }


def oracle_preserves_join(m):
    """The first source pair whose join image is not equivalent to the
    join of its images, or None."""
    src_join, tgt_join = m.source.connectives.join, m.target.connectives.join
    for a in m.source.exprs:
        for b in m.source.exprs:
            lhs = m.mapping[src_join[a][b]]
            rhs = tgt_join[m.mapping[a]][m.mapping[b]]
            if not oracle_equivalent(m.target, lhs, rhs):
                return (a, b)
    return None


# Criteria 5 and 6 as they read before their draws were memoized: every
# draw is checked afresh.  The library functions are looked up on the
# corpus module at call time, so a test that patches one there patches
# both readings.


def oracle_stability_pair(task):
    """Criterion 6 on one (source, target) pair: (samples, logic maps, failure)."""
    seed, samples, (src_name, src), (tgt_name, tgt) = task
    rng = random.Random((seed, src_name, tgt_name).__repr__())
    logic_maps = 0
    for sampled in range(1, samples + 1):
        mapping = tuple(rng.randrange(tgt.universe_size) for _ in src.exprs)
        m = corpus.LogicMap(src, tgt, mapping)
        analysis = corpus.analyze_logic_map(m)
        if analysis.is_stable and not analysis.is_logic_map:
            return sampled, logic_maps, f"{src_name}->{tgt_name}: stable non-logic-map {mapping}"
        if analysis.is_logic_map:
            logic_maps += 1
            if not corpus.stable_iff_disjunction(m).agree:
                return sampled, logic_maps, f"{src_name}->{tgt_name}: lemma fails at {mapping}"
    return samples, logic_maps, None


def oracle_prime_extension_criterion(max_points=4, seed=0, samples=1000):
    """Criterion 5: (checked pairs, every failure line)."""
    failures = []
    checked = 0
    for name, logic in corpus._distributive_logics(max_points):
        if logic.universe_size > 10:
            continue
        if logic.connectives is None or logic.connectives.join is None:
            continue
        rng = random.Random((seed, name).__repr__())
        theories = corpus.sorted_sets(logic.theories)
        primes = corpus.theory_spectrum(logic).primes
        for _ in range(samples):
            t = theories[rng.randrange(len(theories))]
            rest = sorted(set(logic.exprs) - t)
            if not rest:
                continue
            b = frozenset(rng.sample(rest, rng.randint(1, len(rest))))
            s = corpus.disjunctive_closure(logic, b)
            if s & t:
                continue
            checked += 1
            try:
                p = corpus.prime_extension(logic, t, s)
            except PreconditionViolated:
                failures.append(f"{name}: precondition rejected a valid pair")
                continue
            oracle = {q for q in primes if t <= q and not (q & s)}
            if not oracle or p not in oracle or not (t <= p) or (p & s):
                failures.append(f"{name}: extension disagrees with enumeration")
                break
    return checked, failures
