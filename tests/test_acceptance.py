"""Acceptance battery: the eleven exact-value criteria.

Every check here is exact rational equality or an exact boolean; there
are no tolerances anywhere.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see one pass line per criterion.
"""

import random
from fractions import Fraction as F

import pytest

from desir.cones import DesirSet, avoids_partial_loss, open_superset_witness
from desir.credal import CredalSet, enumerate_vertices
from desir.errors import ModelError
from desir.preferences import (
    NOT_WEAK,
    TRADITIONAL,
    WEAK_ONLY,
    PreferenceRelation,
    archimedean_class_of_set,
    extend_to_worst_outcome,
    from_desirset,
    interpolate_strict_superset,
)
from desir.products import (
    A4_FAILS,
    A4_HOLDS_EXACT,
    is_strong_product,
    marginal_extension_prevision,
    prevision_factorizes,
    satisfies_a4,
    satisfies_a5,
    strong_product,
)
from desir.spaces import (
    EventSet,
    Gamble,
    Space,
    omega_factor_space,
    pi1_inverse,
    pi2_inverse,
    prizes_factor_space,
    project_pi,
)

from conftest import rand_gamble, rand_lottery, rand_mass_row, rand_rat
from oracles import m1_lower_bruteforce
from test_cones import rand_desirset

COIN = Space(("h", "t"), ("x",), "z")


def g2(a, b):
    return Gamble.of(COIN, [[a], [b]])


def _passed(n, label):
    print(f"criterion {n:2d}: PASS  {label}")


def space_of(n, m, worst="z"):
    return Space(
        tuple(f"w{i}" for i in range(n)), tuple(f"x{j}" for j in range(m)), worst
    )


def rand_consistent_relation(rng, space, n_pairs, bare=False):
    while True:
        pairs = []
        while len(pairs) < n_pairs:
            p = rand_lottery(rng, space, includes_worst=not bare)
            q = rand_lottery(rng, space, includes_worst=not bare)
            if p != q:
                pairs.append((p, q))
        rel = PreferenceRelation.of(space, pairs, bare=bare)
        if rel.is_consistent():
            return rel


def test_criterion_1_coin_example():
    uniform = CredalSet.from_constraints(COIN, (g2(1, -1), g2(-1, 1)))
    r1 = DesirSet.strict(uniform)
    r2 = DesirSet.augmented(uniform, [g2(-1, 1)])
    f = g2(-1, 1)
    assert r1.lower_prevision(f) == 0
    assert r2.lower_prevision(f) == 0
    rng = random.Random(11)
    bh = EventSet.from_states(COIN, ["h"])
    bt = EventSet.from_states(COIN, ["t"])
    for _ in range(5):
        probe = rand_gamble(rng, COIN)
        for d in (r1, r2):
            assert d.conditional_lower_prevision(probe, bh) == probe.values[0][0]
            assert d.conditional_lower_prevision(probe, bt) == probe.values[1][0]
    assert not r1.contains(f)
    assert r2.contains(f)
    assert r1.is_fully_archimedean()
    assert not r2.is_fully_archimedean()
    _passed(1, "fair-coin pair: same previsions, different border behaviour")


def test_criterion_2_minimal_extension_boundary():
    rng = random.Random(22)
    for _ in range(20):
        n, m = rng.randint(1, 3), rng.randint(2, 3)
        space = space_of(n, m)
        rel = rand_consistent_relation(rng, space, rng.randint(1, 4), bare=True)
        ext = extend_to_worst_outcome(rel)
        for g in ext.generators:
            assert ext.lower_prevision(g) == 0
        assert archimedean_class_of_set(ext) == NOT_WEAK
    for n, m in ((1, 2), (2, 2)):
        space = space_of(n, m)
        empty = PreferenceRelation.of(space, [], bare=True)
        ext = extend_to_worst_outcome(empty)
        assert archimedean_class_of_set(ext) in (WEAK_ONLY, TRADITIONAL)
    _passed(2, "minimal worst-outcome extensions sit on the boundary")


def test_criterion_3_vacuous_archimedean_grid():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            rel = PreferenceRelation.of(space_of(n, m), [])
            klass = rel.archimedean_class()
            assert klass != NOT_WEAK  # always weakly Archimedean
            want = TRADITIONAL if (n == 1 and m == 1) else WEAK_ONLY
            assert klass == want
    _passed(3, "vacuous relations: Archimedean only on the trivial grid point")


def test_criterion_4_equivalence_round_trip():
    rng = random.Random(44)
    for k in range(100):
        n = rng.randint(1, 2) if k % 4 else rng.randint(1, 3)
        m = rng.randint(1, 2) if k % 4 else rng.randint(1, 3)
        space = space_of(n, m)
        rel = rand_consistent_relation(rng, space, rng.randint(0, 3))
        oracle = from_desirset(rel.to_desirset())
        for _ in range(100):
            p = rand_lottery(rng, space)
            q = rand_lottery(rng, space)
            assert oracle.holds(p, q) == rel.holds(p, q)
        # pi1_inverse . pi is the identity on lotteries
        p = rand_lottery(rng, space)
        assert pi1_inverse(project_pi(space, p)) == p
        # pi2_inverse . pi is the identity on zero-row-sum tables
        q = rand_lottery(rng, space)
        diff = p.difference(q)
        assert pi2_inverse(project_pi(space, diff)) == diff
        # and both compositions the other way round
        g = rand_gamble(rng, space)
        assert project_pi(space, pi2_inverse(g)) == g
    _passed(4, "preference/desirability round trip plus projection identities")


def test_criterion_5_envelope_oracle():
    rng = random.Random(55)
    done = 0
    while done < 50:
        n, m = rng.choice([(1, 2), (2, 2), (1, 4), (2, 3), (3, 2), (1, 6)])
        space = space_of(n, m, worst=None)
        gens = []
        for _ in range(rng.randint(1, 4)):
            cand = rand_gamble(rng, space)
            if not cand.is_zero():
                gens.append(cand)
        try:
            d = DesirSet.from_generators(space, gens)
        except ModelError:
            continue
        done += 1
        rows = enumerate_vertices(space, d.generators)
        assert rows  # coherent sets have nonempty credal sets
        for _ in range(10):
            f = rand_gamble(rng, space)
            values = [sum(x * v for x, v in zip(r, f.flat())) / sum(r) for r in rows]
            assert d.lower_prevision(f) == min(values)
    _passed(5, "simplex lower previsions match the vertex envelope on 500 probes")


def test_criterion_6_conditional_natural_extension():
    tri = Space(("a", "b", "c"), ("x",))
    cons = tuple(
        Gamble.of(tri, [[1 if i == k else 0] for i in range(3)])
        - Gamble.constant(tri, F(1, 4))
        for k in range(3)
    )
    cs = CredalSet.from_constraints(tri, cons)
    f = Gamble.of(tri, [[1], [0], [0]])
    b = EventSet.from_states(tri, ["a", "b"])
    assert cs.conditional_natural_extension(f, b) == F(1, 3)
    # zero lower probability goes vacuous
    rng = random.Random(66)
    vac = CredalSet.from_vertices(tri, [(1, 0, 0), (0, 0, 1)])
    ab = EventSet.from_states(tri, ["a", "b"])
    assert vac.lower_probability(ab) == 0
    for _ in range(10):
        probe = rand_gamble(rng, tri)
        assert vac.conditional_natural_extension(probe, ab) == probe.min_over(ab)
    _passed(6, "conditional natural extension: Bayes vertex bound and vacuity")


def _random_factor_credal(rng, factor):
    masses = []
    for _ in range(rng.randint(2, 3)):
        masses.append(rand_mass_row(rng, factor.n_cells))
    return CredalSet.from_vertices(factor, masses)


def test_criterion_7_state_independence_characterisations():
    rng = random.Random(77)
    for n, m in ((2, 2), (3, 2)):
        joint = space_of(n, m, worst=None)
        for _ in range(3):
            mo = _random_factor_credal(rng, omega_factor_space(joint))
            mx = _random_factor_credal(rng, prizes_factor_space(joint))
            sp = strong_product(mo, mx, joint)
            assert satisfies_a5(sp, mo, mx)
            assert is_strong_product(sp, mo, mx)
    sq = space_of(2, 2, worst=None)
    corr = CredalSet.point(sq, (F(1, 2), 0, 0, F(1, 2)))
    verdict = satisfies_a4(corr)
    assert verdict.kind == A4_FAILS
    assert verdict.witness == (0, 0, F(1, 2), F(1, 4))
    product = CredalSet.point(sq, (F(1, 4),) * 4)
    mix = CredalSet.point(sq, (F(3, 8), F(1, 8), F(1, 8), F(3, 8)))
    for joint_cs in (product, corr, mix):
        factorizes = prevision_factorizes(joint_cs.vertices[0]) is None
        assert satisfies_a5(joint_cs) == factorizes
        assert (satisfies_a4(joint_cs).kind == A4_HOLDS_EXACT) == factorizes
        assert (
            is_strong_product(
                joint_cs, joint_cs.marginal_omega(), joint_cs.marginal_prizes()
            )
            == factorizes
        )
    _passed(7, "strong products pass both sure-thing conditions; correlation fails")


def test_criterion_8_law_of_total_prevision():
    rng = random.Random(88)
    for _ in range(30):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        joint = space_of(n, m, worst=None)
        mo = _random_factor_credal(rng, omega_factor_space(joint))
        conds = [
            _random_factor_credal(rng, prizes_factor_space(joint)) for _ in range(n)
        ]
        f = rand_gamble(rng, joint)
        assert marginal_extension_prevision(mo, conds, f) == m1_lower_bruteforce(
            mo, conds, f
        )
    _passed(8, "marginal extension equals the brute-force vertex combination")


def test_criterion_9_axiom_suites():
    rng = random.Random(99)
    # D1-D4: 500 membership probes across the three representations
    probes = 0
    while probes < 500:
        space = space_of(rng.randint(1, 3), rng.randint(1, 3), worst=None)
        d = rand_desirset(rng, space)
        if d is None:
            continue
        members = []
        for _ in range(10):
            probes += 1
            f = rand_gamble(rng, space)
            if f.is_positive():
                assert d.contains(f)  # D1
            if f.is_zero():
                assert not d.contains(f)
            if d.contains(f):
                members.append(f)
        assert not d.contains(Gamble.zero(space))  # D2
        for f in members[:3]:
            for lam in (F(1, 7), F(13, 2)):
                assert d.contains(f.scale(lam))  # D3
        for fa in members[:2]:
            for fb in members[:2]:
                assert d.contains(fa + fb)  # D4
    # C1-C3 plus conjugacy: 500 probes
    probes = 0
    while probes < 500:
        space = space_of(rng.randint(1, 2), rng.randint(1, 2), worst=None)
        d = rand_desirset(rng, space)
        if d is None:
            continue
        for _ in range(10):
            probes += 1
            f = rand_gamble(rng, space)
            g = rand_gamble(rng, space)
            lf = d.lower_prevision(f)
            assert lf >= f.min_value()  # C1
            for lam in (F(1, 3), F(2)):
                assert d.lower_prevision(f.scale(lam)) == lam * lf  # C2
            assert d.lower_prevision(f + g) >= lf + d.lower_prevision(g)  # C3
            assert lf <= d.upper_prevision(f)  # conjugacy
    # A1/A2 closure: 200 probes
    probes = 0
    while probes < 200:
        space = space_of(rng.randint(1, 2), rng.randint(1, 2))
        rel = rand_consistent_relation(rng, space, rng.randint(1, 2))
        lots = [rand_lottery(rng, space) for _ in range(4)]
        for p in lots:
            assert not rel.holds(p, p)  # A1 irreflexive
        held = [
            (p, q) for p in lots for q in lots if p != q and rel.holds(p, q)
        ]
        for (p, q) in held[:2]:
            for (q2, r) in held[:2]:
                if q2 == q and rel.holds(q, r):
                    assert rel.holds(p, r)  # A1 transitive
        for _ in range(5):
            probes += 1
            p, q, r = (rand_lottery(rng, space) for _ in range(3))
            for alpha in (F(1, 4), F(1)):
                assert rel.holds(p.mix(alpha, r), q.mix(alpha, r)) == rel.holds(
                    p, q
                )  # A2
    _passed(9, "coherence axiom suites: zero violations at D, C and A level")


def test_criterion_10_interpolation_halves():
    base = DesirSet.from_generators(COIN, [g2(1, -1)])
    top = DesirSet.strict(CredalSet.point(COIN, (F(3, 4), F(1, 4))))
    first = interpolate_strict_superset(base, top)
    assert first.lower_mid == F(1, 4)
    assert first.lower_base == 0 < first.lower_mid < first.lower_top == F(1, 2)
    second = interpolate_strict_superset(base, first.strict_set)
    assert second.lower_mid == F(1, 8)
    assert second.lower_base == 0 < second.lower_mid < second.lower_top == F(1, 4)
    _passed(10, "Archimedean interpolation halves the pivot prevision twice")


def _rand_zero_row_sum_gens(rng, space, count):
    gens = []
    for _ in range(count):
        rows = []
        for _ in range(space.n_states):
            head = [rand_rat(rng) for _ in range(space.n_prizes - 1)]
            rows.append(head + [-sum(head)])
        g = Gamble.of(space, rows)
        if not g.is_zero():
            gens.append(g)
    return gens


def test_criterion_11_structural_lemmas():
    rng = random.Random(111)
    coherent_seen = 0
    while coherent_seen < 50:
        space = space_of(rng.randint(1, 3), rng.randint(2, 3), worst=None)
        gens = _rand_zero_row_sum_gens(rng, space, rng.randint(1, 3))
        if not gens:
            continue
        apl, _ = avoids_partial_loss(space, gens)
        has_open, witness = open_superset_witness(space, gens)
        assert has_open == apl  # the Gordan dichotomy on zero-sum rows
        if not apl:
            continue
        coherent_seen += 1
        d = DesirSet.from_generators(space, gens)
        assert d.has_open_superset()[0]
        assert witness is not None and all(witness(g) > 0 for g in gens)
        assert d.is_fully_archimedean() == d.is_strictly_desirable()
    _passed(11, "open supersets track partial loss; support discounts track openness")
