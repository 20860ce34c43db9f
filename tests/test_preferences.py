from fractions import Fraction as F

import pytest

from desir import preferences
from desir.cones import DesirSet
from desir.credal import CredalSet, LinearPrevision
from desir.errors import InputError, ModelError
from desir.preferences import (
    NOT_WEAK,
    TRADITIONAL,
    WEAK_ONLY,
    PreferenceRelation,
    archimedean_class_of_set,
    dominates,
    extend_to_worst_outcome,
    from_desirset,
    interpolate_strict_superset,
)
from desir.spaces import Gamble, HorseLottery, Space, project_pi

from conftest import lps_in, rand_lottery, rand_space
from oracles import bare_cone_contains, combines_to_zero

COIN = Space(("h", "t"), ("x",), "z")


def zlot(rows):
    return HorseLottery.of(COIN, rows)


def coin_pair(diff_h, diff_t):
    """A z-lottery pair whose projected difference is (diff_h, diff_t),
    for differences in [-1, 1]."""

    def split(d):
        if d >= 0:
            return (d, 1 - d), (0, 1)
        return (0, 1), (-d, 1 + d)

    ph, qh = split(diff_h)
    pt, qt = split(diff_t)
    p = zlot([ph, pt])
    q = zlot([qh, qt])
    return p, q


def rand_relation(rng, space, max_pairs=3):
    pairs = []
    for _ in range(rng.randint(0, max_pairs)):
        p, q = rand_lottery(rng, space), rand_lottery(rng, space)
        if p != q:
            pairs.append((p, q))
    return PreferenceRelation.of(space, pairs)


BARE3 = Space(("w",), ("x0", "x1", "x2"), "z")


def bare(rows):
    return HorseLottery.of(BARE3, rows, includes_worst=False)


def ray_relation():
    # p > q iff p - q is a positive multiple of h = (1, -1, 0)
    p = bare([[1, 0, 0]])
    q = bare([[0, 1, 0]])
    return PreferenceRelation.of(BARE3, [(p, q)])


# -- consistency -------------------------------------------------------------


def test_empty_relation_consistent():
    assert PreferenceRelation.of(COIN, []).is_consistent()


def test_opposite_pairs_inconsistent():
    p, q = coin_pair(F(1), F(-1))
    r, s = coin_pair(F(-1), F(1))
    rel = PreferenceRelation.of(COIN, [(p, q), (r, s)])
    assert not rel.is_consistent()
    with pytest.raises(ModelError):
        rel.holds(p, q)


def test_ray_relation_consistent():
    assert ray_relation().is_consistent()


def test_reflexive_pair_rejected():
    p, _ = coin_pair(F(1), F(0))
    with pytest.raises(ModelError):
        PreferenceRelation.of(COIN, [(p, p)])


# -- holds -------------------------------------------------------------------


def test_holds_dominance_and_assertions():
    p, q = coin_pair(F(1), F(-1))
    rel = PreferenceRelation.of(COIN, [(p, q)])
    assert rel.holds(p, q)  # the asserted pair
    top, bottom = coin_pair(F(1, 2), F(1, 2))
    assert rel.holds(top, bottom)  # dominance
    r, s = coin_pair(F(1, 2), F(-1, 2))  # scaled difference, axiom A2
    assert rel.holds(r, s)
    assert not rel.holds(q, p)


def test_bare_holds_is_ray_membership():
    rel = ray_relation()
    r = bare([[F(1, 2), 0, F(1, 2)]])
    s = bare([[0, F(1, 2), F(1, 2)]])
    assert rel.holds(r, s)  # difference (1/2,-1/2,0) = h/2
    t = bare([[0, 0, 1]])
    assert not rel.holds(r, t)
    assert not rel.holds(r, r)


def test_holds_rejects_lotteries_on_a_foreign_space():
    # same shape, other labels: both flavours must refuse, as the oracle
    # of a set does
    other = Space(("v",), ("y0", "y1", "y2"), "z")
    z_pair = (
        HorseLottery.of(BARE3, [[1, 0, 0, 0]]),
        HorseLottery.of(BARE3, [[0, 1, 0, 0]]),
    )
    cases = [
        (ray_relation(), [[1, 0, 0]], [[0, 1, 0]], False),
        (PreferenceRelation.of(BARE3, [z_pair]), [[1, 0, 0, 0]], [[0, 1, 0, 0]], True),
    ]
    for rel, p_rows, q_rows, worst in cases:
        p = HorseLottery.of(other, p_rows, includes_worst=worst)
        q = HorseLottery.of(other, q_rows, includes_worst=worst)
        with pytest.raises(InputError, match="wrong space"):
            rel.holds(p, q)


def _rand_bare_queries(rng, rel):
    """Random bare pairs, mixtures that hold by A2 and their reversals."""
    space = rel.space
    out = [
        (rand_lottery(rng, space, False), rand_lottery(rng, space, False))
        for _ in range(4)
    ]
    for _ in range(4):
        if len(rel.pairs) < 2:
            break
        (p1, q1), (p2, q2) = rng.sample(rel.pairs, 2)
        alpha = F(rng.randint(0, 4), 4)
        p, q = p1.mix(alpha, p2), q1.mix(alpha, q2)
        out += [(p, q), (q, p)]
    for p, q in rel.pairs:
        r = rand_lottery(rng, space, False)
        alpha = F(rng.randint(1, 3), 3)
        out.append((p.mix(alpha, r), q.mix(alpha, r)))
    return out


def test_bare_relations_match_cone_oracles(rng):
    # A bare cone lives in the zero-row-sum space: consistency is avoiding
    # partial loss and holds is natural-extension membership, against the
    # convex and conic equality LPs.
    queries = true_answers = consistent = 0
    for _ in range(300):
        space = rand_space(rng, max_states=2, max_prizes=3)
        pairs = []
        for _ in range(rng.randint(1, 4)):
            p, q = rand_lottery(rng, space, False), rand_lottery(rng, space, False)
            if p != q:
                pairs.append((p, q))
        rel = PreferenceRelation.of(space, pairs, bare=True)
        gens = rel.cone_generators()
        assert rel.is_consistent() == (not combines_to_zero(gens))
        if not rel.is_consistent():
            continue
        consistent += 1
        for p, q in _rand_bare_queries(rng, rel):
            diff = Gamble(space, p.difference(q))
            answer = rel.holds(p, q)
            assert answer == bare_cone_contains(gens, diff)
            queries += 1
            true_answers += answer
    assert consistent >= 200 and queries >= 2000 and true_answers >= 200


def test_bare_holds_scans_its_credal_projection(solved_lps, enumerations):
    # consistency is settled once with the cached cone; the first query
    # enumerates the cone's M_R once, and each query is then a vertex scan:
    # no membership LP, and preferences solves none itself
    assert not hasattr(preferences, "solve")
    rel = ray_relation()
    assert rel.is_consistent()
    r = bare([[F(1, 2), 0, F(1, 2)]])
    s = bare([[0, F(1, 2), F(1, 2)]])
    solved_lps.clear()
    assert rel.holds(r, s) and not rel.holds(s, r)
    assert lps_in(solved_lps, "cones") == [] and len(enumerations) == 1


def test_dominates_examples():
    z = HorseLottery.worst_act(COIN)
    p = zlot([[F(1, 2), F(1, 2)], [0, 1]])
    assert dominates(p, z)
    assert not dominates(p, p)
    sp = Space(("w",), ("x",), "z")
    hi = HorseLottery.of(sp, [[1, 0]])
    lo = HorseLottery.of(sp, [[F(1, 2), F(1, 2)]])
    assert dominates(hi, lo)


# -- the equivalence ----------------------------------------------------------


def test_to_desirset_generators():
    p, q = coin_pair(F(1), F(-1))
    rel = PreferenceRelation.of(COIN, [(p, q)])
    d = rel.to_desirset()
    assert d.generators == (Gamble.of(COIN, [[1], [-1]]),)


def test_empty_relation_oracle_is_dominance(rng):
    rel = PreferenceRelation.of(COIN, [])
    oracle = from_desirset(rel.to_desirset())
    for _ in range(20):
        p, q = rand_lottery(rng, COIN), rand_lottery(rng, COIN)
        assert oracle.holds(p, q) == dominates(p, q)


def test_round_trip_small(rng):
    for _ in range(10):
        space = rand_space(rng)
        rel = rand_relation(rng, space)
        if not rel.is_consistent():
            continue
        oracle = from_desirset(rel.to_desirset())
        for _ in range(10):
            p, q = rand_lottery(rng, space), rand_lottery(rng, space)
            assert oracle.holds(p, q) == rel.holds(p, q)


def test_strict_oracle_is_expectation_positivity(rng):
    d = DesirSet.strict(CredalSet.point(COIN, (F(1, 2), F(1, 2))))
    oracle = from_desirset(d)
    for _ in range(5):
        p, q = rand_lottery(rng, COIN), rand_lottery(rng, COIN)
        diff = project_pi(COIN, p.difference(q))
        expect = sum(diff.flat(), F(0)) / 2
        want = expect > 0 or diff.is_positive()
        assert oracle.holds(p, q) == want


# -- worst-outcome extension ---------------------------------------------------


def test_extend_empty_relation_is_vacuous():
    sp = Space(("w",), ("x0", "x1"), "z")
    rel = PreferenceRelation.of(sp, [], bare=True)
    d = extend_to_worst_outcome(rel)
    assert d.generators == ()
    assert d.contains(Gamble.of(sp, [[1, 0]]))


def test_extend_single_pair():
    sp = Space(("w",), ("x0", "x1"), "z")
    p = HorseLottery.of(sp, [[1, 0]], includes_worst=False)
    q = HorseLottery.of(sp, [[0, 1]], includes_worst=False)
    rel = PreferenceRelation.of(sp, [(p, q)])
    d = extend_to_worst_outcome(rel)
    assert d.generators == (Gamble.of(sp, [[1, -1]]),)
    for g in d.generators:
        assert d.lower_prevision(g) == 0
    assert archimedean_class_of_set(d) == NOT_WEAK


def test_extend_rejects_z_relations():
    p, q = coin_pair(F(1), F(0))
    rel = PreferenceRelation.of(COIN, [(p, q)])
    with pytest.raises(InputError):
        extend_to_worst_outcome(rel)


# -- Archimedean ladder ---------------------------------------------------------


def test_vacuous_archimedean_grid():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            sp = Space(
                tuple(f"w{i}" for i in range(n)),
                tuple(f"x{j}" for j in range(m)),
                "z",
            )
            rel = PreferenceRelation.of(sp, [])
            want = TRADITIONAL if n == 1 and m == 1 else WEAK_ONLY
            assert rel.archimedean_class() == want


def test_archimedean_from_strict_sets():
    interior = DesirSet.strict(CredalSet.point(COIN, (F(1, 2), F(1, 2))))
    assert archimedean_class_of_set(interior) == TRADITIONAL
    boundary = DesirSet.strict(CredalSet.point(COIN, (F(1), F(0))))
    assert archimedean_class_of_set(boundary) == WEAK_ONLY
    r2 = DesirSet.augmented(
        CredalSet.point(COIN, (F(1, 2), F(1, 2))),
        [Gamble.of(COIN, [[-1], [1]])],
    )
    assert archimedean_class_of_set(r2) == NOT_WEAK


# -- interpolation ---------------------------------------------------------------


def test_interpolation_on_the_coin():
    base = DesirSet.from_generators(COIN, [Gamble.of(COIN, [[1], [-1]])])
    top = DesirSet.strict(CredalSet.point(COIN, (F(3, 4), F(1, 4))))
    first = interpolate_strict_superset(base, top)
    assert first.lower_mid == F(1, 4)
    assert first.lower_base == 0 and first.lower_top == F(1, 2)
    second = interpolate_strict_superset(base, first.strict_set)
    assert second.lower_mid == F(1, 8)


def test_interpolation_rejects_empty_cone():
    base = DesirSet.vacuous(COIN)
    top = DesirSet.strict(CredalSet.point(COIN, (F(3, 4), F(1, 4))))
    with pytest.raises(ModelError):
        interpolate_strict_superset(base, top)


def test_interpolation_rejects_non_superset():
    base = DesirSet.from_generators(COIN, [Gamble.of(COIN, [[1], [-1]])])
    top = DesirSet.strict(CredalSet.point(COIN, (F(1, 4), F(3, 4))))
    with pytest.raises(ModelError):
        interpolate_strict_superset(base, top)


# -- open-superset boundary cases (documented behaviour) ---------------------------
#
# Whether a strongly continuous bare relation always admits an open
# superset adding no new preferences is not settled in general; the two
# single-state cones below show both behaviours and pin them down as
# regression facts.


def test_ray_cone_open_supersets_add_preferences():
    # cone {(a,-a,0) : a > 0}: open supersets exist, but every one of
    # them prefers some act outside the ray.
    tri = Space(("w",), ("x0", "x1", "x2"), "z")
    h = Gamble.of(tri, [[1, -1, 0]])
    d = DesirSet.from_generators(tri, [h])
    ok, p = d.has_open_superset()
    assert ok and p(h) > 0
    superset = DesirSet.strict(CredalSet.point(tri, p.mass))
    assert superset.contains(h)
    # a zero-row-sum gamble outside the ray that the superset accepts:
    # (1+d, -1, -d) has expectation (p0-p1) + d*(p0-p2) > 0 for small d
    found = None
    for k in range(1, 200):
        delta = F(1, k)
        cand = Gamble.of(tri, [[1 + delta, -1, -delta]])
        if superset.contains(cand) and not d.contains(cand):
            found = cand
            break
    assert found is not None


def test_corner_cone_has_faithful_open_superset():
    # cone {(a,b,-a-b) : max(a,b) < 0} is approximated from inside by FG
    # cones; min of the two boundary previsions stays exactly faithful:
    # its strict part meets the zero-row-sum space in the cone alone.
    tri = Space(("w",), ("x0", "x1", "x2"), "z")
    q1 = LinearPrevision.of(tri, (F(1, 5), F(2, 5), F(2, 5)))
    q2 = LinearPrevision.of(tri, (F(2, 5), F(1, 5), F(2, 5)))
    cs = CredalSet.from_vertices(tri, [q1.mass, q2.mass])
    strict = DesirSet.strict(cs)
    for a_num in range(-4, 5):
        for b_num in range(-4, 5):
            a, b = F(a_num, 2), F(b_num, 2)
            f = Gamble.of(tri, [[a, b, -a - b]])
            if f.is_zero():
                continue
            in_cone = a < 0 and b < 0
            assert (cs.lower(f) > 0) == in_cone
            if in_cone:
                assert strict.contains(f)


# -- axioms (sampled) -------------------------------------------------------------


def test_axiom_a1_irreflexive_transitive(rng):
    for _ in range(6):
        space = rand_space(rng)
        rel = rand_relation(rng, space)
        if not rel.is_consistent():
            continue
        lots = [rand_lottery(rng, space) for _ in range(4)]
        for p in lots:
            assert not rel.holds(p, p)
        for p in lots:
            for q in lots:
                for r in lots:
                    if rel.holds(p, q) and rel.holds(q, r):
                        assert rel.holds(p, r)


def test_axiom_a2_mixture_independence(rng):
    for _ in range(6):
        space = rand_space(rng)
        rel = rand_relation(rng, space)
        if not rel.is_consistent():
            continue
        p, q = rand_lottery(rng, space), rand_lottery(rng, space)
        r = rand_lottery(rng, space)
        for alpha in (F(1, 4), F(1)):
            mixed = rel.holds(p.mix(alpha, r), q.mix(alpha, r))
            assert mixed == rel.holds(p, q)


def test_dominance_implies_preference(rng):
    for _ in range(6):
        space = rand_space(rng)
        rel = rand_relation(rng, space)
        if not rel.is_consistent():
            continue
        for _ in range(6):
            p, q = rand_lottery(rng, space), rand_lottery(rng, space)
            if dominates(p, q):
                assert rel.holds(p, q)
