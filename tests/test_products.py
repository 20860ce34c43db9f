import random
from fractions import Fraction as F

import pytest

from desir.cones import DesirSet
from desir.credal import CredalSet, LinearPrevision
from desir.errors import InputError, ModelError
from desir.products import (
    A4_FAILS,
    A4_HOLDS_EXACT,
    constant_lift,
    independent_natural_extension,
    irrelevant_product_set,
    is_irrelevant_product,
    is_strong_product,
    marginal_extension_prevision,
    prevision_factorizes,
    product_prevision,
    satisfies_a4,
    satisfies_a5,
    strong_product,
)
from desir.spaces import (
    Gamble,
    Space,
    omega_factor_space,
    prizes_factor_space,
)

from conftest import rand_gamble, rand_mass_row, rand_space
from oracles import is_strong_product_lp, m1_lower_bruteforce, strong_product_lower

SQ = Space(("w0", "w1"), ("x0", "x1"))
OF = omega_factor_space(SQ)
PF = prizes_factor_space(SQ)


def og(rows):
    return Gamble.of(OF, rows)


def pg(row):
    return Gamble.of(PF, [row])


def rand_factor_credal(rng, factor):
    masses = []
    for _ in range(rng.randint(1, 3)):
        m = [rng.randint(0, 4) for _ in range(factor.n_cells)]
        if not any(m):
            m[0] = 1
        masses.append(tuple(F(v, sum(m)) for v in m))
    return CredalSet.from_vertices(factor, masses)


# -- marginal extension -------------------------------------------------------


def test_marginal_extension_examples():
    f = Gamble.of(SQ, [[1, 0], [0, 0]])
    uniform_cond = [CredalSet.point(PF, (F(1, 2), F(1, 2)))] * 2
    vac = CredalSet.vacuous(OF)
    assert marginal_extension_prevision(vac, uniform_cond, f) == 0
    uni = CredalSet.point(OF, (F(1, 2), F(1, 2)))
    assert marginal_extension_prevision(uni, uniform_cond, f) == F(1, 4)
    c = Gamble.constant(SQ, F(7, 5))
    assert marginal_extension_prevision(vac, uniform_cond, c) == F(7, 5)


def test_law_of_total_prevision_bruteforce(rng):
    for _ in range(12):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        joint = Space(
            tuple(f"w{i}" for i in range(n)), tuple(f"x{j}" for j in range(m))
        )
        of, pf = omega_factor_space(joint), prizes_factor_space(joint)
        m_omega = rand_factor_credal(rng, of)
        conds = [rand_factor_credal(rng, pf) for _ in range(n)]
        f = rand_gamble(rng, joint)
        assert marginal_extension_prevision(m_omega, conds, f) == m1_lower_bruteforce(
            m_omega, conds, f
        )


# -- irrelevant product -------------------------------------------------------


def test_irrelevant_product_vacuous():
    d = irrelevant_product_set(DesirSet.vacuous(OF), DesirSet.vacuous(PF), SQ)
    assert d.generators == ()


def test_irrelevant_product_generators_and_membership():
    r_x = DesirSet.from_generators(PF, [pg([1, -1])])
    d = irrelevant_product_set(DesirSet.vacuous(OF), r_x, SQ)
    assert d.generators == (
        Gamble.of(SQ, [[1, -1], [0, 0]]),
        Gamble.of(SQ, [[0, 0], [1, -1]]),
    )
    both_rows = Gamble.of(SQ, [[1, -1], [1, -1]])
    assert d.contains(both_rows)
    assert is_irrelevant_product(d, r_x)


def test_is_irrelevant_product_counterexample():
    r_x = DesirSet.from_generators(PF, [pg([1, -1])])
    corr = DesirSet.strict(
        CredalSet.point(SQ, (F(1, 2), 0, 0, F(1, 2)))
    )
    assert not is_irrelevant_product(corr, r_x)
    # a strict prize marginal has no generators to call off: refused
    product = DesirSet.strict(CredalSet.point(SQ, (F(1, 4),) * 4))
    strict_x = DesirSet.strict(CredalSet.point(PF, (F(1, 2), F(1, 2))))
    with pytest.raises(InputError, match="finitely generated"):
        is_irrelevant_product(product, strict_x)
    assert not is_irrelevant_product(product, r_x)


def test_is_irrelevant_product_rejects_a_foreign_marginal():
    # the space check must not depend on the marginal having generators
    foreign = Space(("_",), ("y0", "y1"), None)
    d = irrelevant_product_set(DesirSet.vacuous(OF), DesirSet.vacuous(PF), SQ)
    with pytest.raises(InputError, match="prize factor"):
        is_irrelevant_product(d, DesirSet.vacuous(foreign))


# -- independent natural extension ---------------------------------------------


def test_ine_vacuous_is_vacuous():
    d = independent_natural_extension(DesirSet.vacuous(OF), DesirSet.vacuous(PF), SQ)
    f = Gamble.of(SQ, [[3, -1], [2, 5]])
    assert d.lower_prevision(f) == -1


def transpose(f: Gamble, joint_t: Space) -> Gamble:
    rows = tuple(
        tuple(f.values[i][j] for i in range(f.space.n_states))
        for j in range(f.space.n_prizes)
    )
    return Gamble(joint_t, rows)


def test_ine_symmetric_in_factors(rng):
    r_omega = DesirSet.from_generators(OF, [og([[1], [-1]])])
    r_x = DesirSet.from_generators(PF, [pg([2, -1])])
    d = independent_natural_extension(r_omega, r_x, SQ)
    # swap the factors: omega' = prizes, prizes' = omega
    sq_t = Space(("x0", "x1"), ("w0", "w1"))
    r_omega_t = DesirSet.from_generators(
        omega_factor_space(sq_t), [Gamble.of(omega_factor_space(sq_t), [[2], [-1]])]
    )
    r_x_t = DesirSet.from_generators(
        prizes_factor_space(sq_t), [Gamble.of(prizes_factor_space(sq_t), [[1, -1]])]
    )
    d_t = independent_natural_extension(r_omega_t, r_x_t, sq_t)
    for _ in range(10):
        f = rand_gamble(rng, SQ)
        assert d.contains(f) == d_t.contains(transpose(f, sq_t))


def _rand_fg_marginal(rng, factor):
    """A random coherent FG marginal together with its credal projection."""
    while True:
        gens = []
        for _ in range(rng.randint(1, 2)):
            cand = rand_gamble(rng, factor)
            if not cand.is_zero():
                gens.append(cand)
        try:
            d = DesirSet.from_generators(factor, gens)
        except Exception:
            continue
        return d, d.credal_projection()


def test_ine_below_strong_product(rng):
    checked = 0
    while checked < 5:
        r_omega, m_omega = _rand_fg_marginal(rng, OF)
        r_x, m_x = _rand_fg_marginal(rng, PF)
        checked += 1
        d = independent_natural_extension(r_omega, r_x, SQ)
        for _ in range(4):
            f = rand_gamble(rng, SQ)
            assert d.lower_prevision(f) <= strong_product_lower(m_omega, m_x, f)


def _fg_interval_marginal(factor, rays):
    """Hand-picked dual-cone rays of an interval credal set."""
    return DesirSet.from_generators(
        factor, [Gamble.of(factor, rows) for rows in rays]
    )


# -- strong product -------------------------------------------------------------


def test_strong_product_vacuous_is_cell_min(rng):
    vo, vx = CredalSet.vacuous(OF), CredalSet.vacuous(PF)
    for _ in range(5):
        f = rand_gamble(rng, SQ)
        assert strong_product_lower(vo, vx, f) == f.min_value()
        assert strong_product(vo, vx, SQ).lower(f) == f.min_value()


def test_strong_product_linear_is_grand_mean():
    uo = CredalSet.point(OF, (F(1, 2), F(1, 2)))
    ux = CredalSet.point(PF, (F(1, 2), F(1, 2)))
    f = Gamble.of(SQ, [[4, 0], [2, -2]])
    assert strong_product_lower(uo, ux, f) == 1
    sp = strong_product(uo, ux, SQ)
    assert sp.is_linear() and sp.lower(f) == 1


def test_strong_product_mixed():
    vo = CredalSet.vacuous(OF)
    ux = CredalSet.point(PF, (F(1, 2), F(1, 2)))
    f = Gamble.of(SQ, [[4, 0], [2, -2]])
    # min over states of the row mean
    assert strong_product_lower(vo, ux, f) == 0
    assert strong_product(vo, ux, SQ).lower(f) == 0


def test_strong_product_two_code_paths_agree(rng):
    for _ in range(6):
        m_omega = rand_factor_credal(rng, OF)
        m_x = rand_factor_credal(rng, PF)
        sp = strong_product(m_omega, m_x, SQ)
        for _ in range(4):
            f = rand_gamble(rng, SQ)
            assert sp.lower(f) == strong_product_lower(m_omega, m_x, f)


def test_strong_product_needs_no_pruning(rng):
    # every product of factor vertices is extreme, so building the product
    # without pruning gives the pruned hull of the products
    nontrivial = 0
    for _ in range(60):
        joint = rand_space(rng, worst=False)
        of, pf = omega_factor_space(joint), prizes_factor_space(joint)
        m_omega = CredalSet.from_vertices(
            of, [rand_mass_row(rng, of.n_cells) for _ in range(rng.randint(1, 4))]
        )
        m_x = CredalSet.from_vertices(
            pf, [rand_mass_row(rng, pf.n_cells) for _ in range(rng.randint(1, 4))]
        )
        products = [
            product_prevision(vo, vx, joint)
            for vo in m_omega.vertices
            for vx in m_x.vertices
        ]
        sp = strong_product(m_omega, m_x, joint)
        assert sp.vertices == CredalSet.from_vertices(joint, products).vertices
        nontrivial += len(sp.vertices) > 2
    assert nontrivial >= 20


def test_strong_product_marginals_preserved(rng):
    for _ in range(5):
        m_omega = rand_factor_credal(rng, OF)
        m_x = rand_factor_credal(rng, PF)
        sp = strong_product(m_omega, m_x, SQ)
        assert sp.marginal_omega().vertices == m_omega.vertices
        assert sp.marginal_prizes().vertices == m_x.vertices


# -- A5 / A4 ---------------------------------------------------------------------


def test_a5_on_strong_product(rng):
    for _ in range(4):
        m_omega = rand_factor_credal(rng, OF)
        m_x = rand_factor_credal(rng, PF)
        sp = strong_product(m_omega, m_x, SQ)
        assert satisfies_a5(sp, m_omega, m_x)
        assert is_strong_product(sp, m_omega, m_x)


def test_a5_fails_on_correlated_mass():
    corr = CredalSet.point(SQ, (F(1, 2), 0, 0, F(1, 2)))
    assert not satisfies_a5(corr)


def test_a5_on_ine_projection():
    r_omega = _fg_interval_marginal(OF, [[[3], [-1]], [[-1], [3]]])
    r_x = _fg_interval_marginal(PF, [[[2, -1]], [[-1, 2]]])
    m_omega = r_omega.credal_projection()
    m_x = r_x.credal_projection()
    assert [v.mass for v in m_omega.vertices] == [
        (F(1, 4), F(3, 4)),
        (F(3, 4), F(1, 4)),
    ]
    assert [v.mass for v in m_x.vertices] == [
        (F(1, 3), F(2, 3)),
        (F(2, 3), F(1, 3)),
    ]
    ine = independent_natural_extension(r_omega, r_x, SQ)
    joint = ine.credal_projection()
    assert satisfies_a5(joint, m_omega, m_x)


def test_a4_linear_cases():
    product = CredalSet.point(SQ, (F(1, 4),) * 4)
    assert satisfies_a4(product).kind == A4_HOLDS_EXACT
    corr = CredalSet.point(SQ, (F(1, 2), 0, 0, F(1, 2)))
    verdict = satisfies_a4(corr)
    assert verdict.kind == A4_FAILS
    i, j, got, want = verdict.witness
    assert (got, want) == (F(1, 2), F(1, 4))


def test_a4_strong_product_vertices_factorize(rng):
    m_omega = rand_factor_credal(rng, OF)
    m_x = rand_factor_credal(rng, PF)
    sp = strong_product(m_omega, m_x, SQ)
    assert satisfies_a4(sp).kind == A4_HOLDS_EXACT


def test_linear_three_way_equivalence():
    # product, correlated, and a strict mixture of them
    product = LinearPrevision.of(SQ, (F(1, 4),) * 4)
    corr = LinearPrevision.of(SQ, (F(1, 2), 0, 0, F(1, 2)))
    mix = LinearPrevision.of(
        SQ, tuple((a + b) / 2 for a, b in zip(product.mass, corr.mass))
    )
    for p in (product, corr, mix):
        joint = CredalSet.point(SQ, p.mass)
        factorizes = prevision_factorizes(p) is None
        assert satisfies_a5(joint) == factorizes
        assert (satisfies_a4(joint).kind == A4_HOLDS_EXACT) == factorizes
        assert (
            is_strong_product(joint, joint.marginal_omega(), joint.marginal_prizes())
            == factorizes
        )


def test_is_strong_product_matches_hull_lps():
    rng = random.Random(1202)
    verdicts = []
    while len(verdicts) < 300:
        space = rand_space(rng, worst=False)
        of, pf = omega_factor_space(space), prizes_factor_space(space)
        m_omega, m_x = rand_factor_credal(rng, of), rand_factor_credal(rng, pf)
        sp = strong_product(m_omega, m_x, space)
        kind = rng.randrange(4)
        if kind == 0:
            cons = [rand_gamble(rng, space) for _ in range(rng.randint(1, 2))]
            try:
                joint = CredalSet.from_constraints(space, cons)
            except ModelError:
                continue
        elif kind == 1:
            joint = sp
        elif kind == 2:
            extra = rand_mass_row(rng, space.n_cells)
            joint = CredalSet.from_vertices(
                space, [v.mass for v in sp.vertices] + [extra]
            )
        else:
            joint = CredalSet.vacuous(space)
        if rng.random() < 0.5:
            m_omega, m_x = joint.marginal_omega(), joint.marginal_prizes()
        got = is_strong_product(joint, m_omega, m_x)
        assert got == is_strong_product_lp(joint, m_omega, m_x)
        verdicts.append(got)
    assert 50 <= sum(verdicts) <= 250


def test_ine_is_not_strong_product():
    r_omega = _fg_interval_marginal(OF, [[[3], [-1]], [[-1], [3]]])
    r_x = _fg_interval_marginal(PF, [[[3, -1]], [[-1, 3]]])
    m_omega = r_omega.credal_projection()
    m_x = r_x.credal_projection()
    ine = independent_natural_extension(r_omega, r_x, SQ)
    joint = ine.credal_projection()
    sp = strong_product(m_omega, m_x, SQ)
    strictly_below = any(not sp.contains(v) for v in joint.vertices)
    assert strictly_below
    assert not is_strong_product(joint, m_omega, m_x)
    # the strong product itself always passes
    assert is_strong_product(sp, m_omega, m_x)


def test_product_marginals_match_inputs_on_probes(rng):
    r_omega = _fg_interval_marginal(OF, [[[3], [-1]], [[-1], [3]]])
    r_x = _fg_interval_marginal(PF, [[[2, -1]], [[-1, 2]]])
    for build in (irrelevant_product_set, independent_natural_extension):
        d = build(r_omega, r_x, SQ)
        mo_view = d.marginalize("omega")
        mx_view = d.marginalize("prizes")
        for _ in range(12):
            go = rand_gamble(rng, OF)
            gx = rand_gamble(rng, PF)
            assert mo_view.contains(go) == r_omega.contains(go)
            assert mx_view.contains(gx) == r_x.contains(gx)


def test_behavioural_enumeration_below_strong_product(rng):
    # per-state conditional vertex choices reach at least as low as the
    # single-vertex (sensitivity analysis) reading
    for _ in range(8):
        m_omega = rand_factor_credal(rng, OF)
        m_x = rand_factor_credal(rng, PF)
        f = rand_gamble(rng, SQ)
        m1 = m1_lower_bruteforce(m_omega, [m_x] * SQ.n_states, f)
        assert m1 <= strong_product_lower(m_omega, m_x, f)
        assert m1 == marginal_extension_prevision(m_omega, [m_x] * SQ.n_states, f)


def test_linear_prize_marginal_collapses_the_products(rng):
    # with a linear prize marginal there is only one independent product:
    # the two-stage extension and the strong product agree everywhere
    for _ in range(6):
        m_omega = rand_factor_credal(rng, OF)
        point = CredalSet.point(PF, rand_mass_row(rng, PF.n_cells))
        for _ in range(4):
            f = rand_gamble(rng, SQ)
            sp = strong_product_lower(m_omega, point, f)
            me = marginal_extension_prevision(m_omega, [point] * SQ.n_states, f)
            assert sp == me


def test_constant_lift_shape():
    f = Gamble.of(SQ, [[1, 2], [3, 4]])
    lifted = constant_lift(f, 0)
    assert lifted.values == ((F(1), F(2)), (F(1), F(2)))


def test_factor_space_mismatch_rejected():
    with pytest.raises(InputError):
        marginal_extension_prevision(
            CredalSet.vacuous(PF),
            [CredalSet.vacuous(PF)] * 2,
            Gamble.zero(SQ),
        )
