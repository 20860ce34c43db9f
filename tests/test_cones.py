from fractions import Fraction as F

import pytest

from desir.cones import (
    AUGMENTED,
    DesirSet,
    MembershipVerdict,
    PositiveCombination,
    PositiveExpectation,
    _residual_sup,
    avoids_partial_loss,
    open_superset_witness,
)
from desir.credal import CredalSet, LinearPrevision
from desir.errors import InputError, ModelError
from desir.preferences import PreferenceRelation, from_desirset
from desir.spaces import EventSet, Gamble, Space, pi1_inverse

from conftest import lps_in, rand_gamble, rand_lottery, rand_mass_row, rand_space
from oracles import (
    augmented_contains_lp,
    augmented_open_conditional_sup,
    augmented_open_lp,
    fg_contains_reference,
    open_superset_mix,
    positive_mix,
    residual_sup_free_lp,
)

COIN = Space(("h", "t"), ("x",))


def g2(a, b):
    return Gamble.of(COIN, [[a], [b]])


@pytest.fixture
def coin_r1():
    return DesirSet.strict(CredalSet.point(COIN, (F(1, 2), F(1, 2))))


@pytest.fixture
def coin_r2():
    return DesirSet.augmented(
        CredalSet.point(COIN, (F(1, 2), F(1, 2))), [g2(-1, 1)]
    )


# -- avoiding partial loss -------------------------------------------------


def test_apl_single_generator():
    ok, _ = avoids_partial_loss(COIN, [g2(1, -1)])
    assert ok


def test_apl_opposite_rays():
    ok, w = avoids_partial_loss(COIN, [g2(1, -1), g2(-1, 1)])
    assert not ok
    assert w == (F(1, 2), F(1, 2))


def test_apl_empty():
    assert avoids_partial_loss(COIN, []) == (True, None)


def test_partial_loss_rejects_a_gamble_on_another_space():
    other = Space(("h", "u"), ("x",))  # same shape, another space
    for gambles in (
        [Gamble.of(other, [[1], [-1]])],  # avoids loss
        [g2(1, -1), Gamble.of(other, [[-1], [1]])],  # loses on either space
    ):
        for call in (avoids_partial_loss, open_superset_witness):
            with pytest.raises(InputError, match="gamble on the wrong space"):
                call(COIN, gambles)


def test_incoherent_generators_rejected():
    with pytest.raises(ModelError, match=r"\(convex weights 1/2,1/2\)$"):
        DesirSet.from_generators(COIN, [g2(1, -1), g2(-1, 1)])
    with pytest.raises(ModelError):
        DesirSet.from_generators(COIN, [Gamble.zero(COIN)])


# -- membership ------------------------------------------------------------


def test_fg_membership_with_certificate():
    d = DesirSet.from_generators(COIN, [g2(1, -1)])
    verdict = d.member(g2(3, -1))
    assert verdict.member
    assert verdict.certificate.lambdas == (F(1),)
    assert verdict.certificate.residual == g2(2, 0)


def test_fg_non_membership_separates():
    d = DesirSet.from_generators(COIN, [g2(1, -1)])
    verdict = d.member(g2(-1, 1))
    assert not verdict.member
    p = verdict.certificate.prevision
    assert p(g2(-1, 1)) <= 0
    assert p(g2(1, -1)) >= 0


def test_coin_border_membership(coin_r1, coin_r2):
    f = g2(-1, 1)
    assert not coin_r1.contains(f)
    assert coin_r2.contains(f)
    assert coin_r2.member(f).member
    assert not coin_r1.member(f).member


def test_zero_never_member(coin_r1, coin_r2):
    z = Gamble.zero(COIN)
    d = DesirSet.from_generators(COIN, [g2(1, -1)])
    assert not d.contains(z) and not coin_r1.contains(z) and not coin_r2.contains(z)


def test_augmented_matches_handwritten_set(coin_r2):
    # second believer: desirable iff f(h)+f(t) > 0 or f = lam*(-1,1)
    cases = [
        (g2(2, -1), True),
        (g2(-1, 2), True),
        (g2(F(-1, 2), F(1, 2)), True),
        (g2(-2, 1), False),
        (g2(1, -1), False),
        (g2(-3, 3), True),
    ]
    for f, want in cases:
        assert coin_r2.contains(f) == want, f.values


def test_augmented_construction_guards():
    uniform = CredalSet.point(COIN, (F(1, 2), F(1, 2)))
    with pytest.raises(ModelError):
        DesirSet.augmented(uniform, [g2(1, 1)])  # positive
    with pytest.raises(ModelError):
        DesirSet.augmented(uniform, [g2(1, 0)])  # lower expectation 1/2
    with pytest.raises(ModelError, match="to zero"):
        DesirSet.augmented(uniform, [g2(-1, 1), g2(1, -1)])  # hits zero
    head = CredalSet.point(COIN, (F(1), F(0)))
    with pytest.raises(ModelError, match="negative gamble"):
        DesirSet.augmented(head, [g2(0, -1)])  # combines to a negative gamble
    # no single ray is <= 0, but their sum (0, -1, -1) is
    line = Space(("a", "b", "c"), ("x",))
    first = CredalSet.point(line, (1, 0, 0))
    rays = [Gamble.of(line, [[0], [1], [-2]]), Gamble.of(line, [[0], [-2], [1]])]
    with pytest.raises(ModelError, match="negative gamble"):
        DesirSet.augmented(first, rays)


# -- previsions --------------------------------------------------------------


def test_coin_previsions(coin_r1, coin_r2):
    f = g2(-1, 1)
    assert coin_r1.lower_prevision(f) == 0
    assert coin_r2.lower_prevision(f) == 0
    assert coin_r2.upper_prevision(f) == 0


def test_constant_prevision(coin_r1):
    assert coin_r1.lower_prevision(Gamble.constant(COIN, F(7, 3))) == F(7, 3)
    d = DesirSet.from_generators(COIN, [g2(1, -1)])
    assert d.lower_prevision(Gamble.constant(COIN, -2)) == -2


def test_fg_lower_prevision_edge():
    d = DesirSet.from_generators(COIN, [g2(1, -1)])
    assert d.lower_prevision(g2(1, 0)) == F(1, 2)
    assert d.upper_prevision(g2(1, 0)) == 1


def test_coin_conditional_previsions(coin_r1, coin_r2, rng):
    for d in (coin_r1, coin_r2):
        for _ in range(5):
            f = rand_gamble(rng, COIN)
            bh = EventSet.from_states(COIN, ["h"])
            bt = EventSet.from_states(COIN, ["t"])
            assert d.conditional_lower_prevision(f, bh) == f.values[0][0]
            assert d.conditional_lower_prevision(f, bt) == f.values[1][0]


def test_conditional_on_everything_is_unconditional(coin_r2, rng):
    every = EventSet.all_cells(COIN)
    for _ in range(5):
        f = rand_gamble(rng, COIN)
        assert coin_r2.conditional_lower_prevision(f, every) == coin_r2.lower_prevision(f)


def test_vacuous_conditional_is_min():
    d = DesirSet.vacuous(COIN)
    f = g2(5, -7)
    assert d.conditional_lower_prevision(f, EventSet.from_states(COIN, ["t"])) == -7
    assert d.conditional_lower_prevision(f, EventSet.all_cells(COIN)) == -7


TRI = Space(("a", "b", "c"), ("x",))


def g3(a, b, c):
    return Gamble.of(TRI, [[a], [b], [c]])


@pytest.fixture
def tri_dependent():
    # b1, b2 and b1 + b2 as border rays of the uniform prevision
    uniform = CredalSet.point(TRI, (F(1, 3), F(1, 3), F(1, 3)))
    return DesirSet.augmented(uniform, [g3(1, -1, 0), g3(0, 1, -1), g3(1, 0, -1)])


def test_border_ray_plus_constant_conditional(coin_r2, tri_dependent):
    for d in (coin_r2, tri_dependent):
        every = EventSet.all_cells(d.space)
        for b in d.borders:
            for c in (F(-2), F(0), F(5, 3)):
                shifted = b + Gamble.constant(d.space, c)
                assert d.conditional_lower_prevision(shifted, every) == c


def test_constant_on_event_conditional(coin_r2, tri_dependent):
    ab = EventSet.from_states(TRI, ["a", "b"])
    every = EventSet.all_cells(COIN)
    for c in (F(-3), F(0), F(7, 2)):
        assert tri_dependent.conditional_lower_prevision(g3(c, c, 9), ab) == c
        assert tri_dependent.conditional_lower_prevision(g3(c, c, c), ab) == c
        assert coin_r2.conditional_lower_prevision(g2(c, c), every) == c


def test_dependent_borders_combination_member(tri_dependent):
    f = g3(1, 0, -1)  # b1 + b2, itself a border ray
    verdict = tri_dependent.member(f)
    assert verdict.member
    cert = verdict.certificate
    assert isinstance(cert, PositiveCombination) and cert.residual.is_zero()
    assert cert.replays(tri_dependent, f)


def test_strict_mixed_support_conditional():
    # Vertices (1,0,0) and (0,0,1); event {a,b} has lower probability 0,
    # so the conditional prevision falls back to the event minimum even
    # though one vertex sees the event.
    tri = Space(("a", "b", "c"), ("x",))
    cs = CredalSet.from_vertices(tri, [(1, 0, 0), (0, 0, 1)])
    d = DesirSet.strict(cs)
    f = Gamble.of(tri, [[1], [F(1, 2)], [0]])
    b = EventSet.from_states(tri, ["a", "b"])
    assert d.conditional_lower_prevision(f, b) == F(1, 2)


# -- conditioning and marginal views ----------------------------------------


def test_condition_vacuous_is_positive_part():
    d = DesirSet.vacuous(COIN)
    view = d.condition(EventSet.from_states(COIN, ["h"]))
    assert view.contains(g2(1, 0))
    assert not view.contains(g2(1, 1))  # not supported on B
    assert not view.contains(g2(-1, 0))


def test_condition_coin_r2(coin_r2):
    view = coin_r2.condition(EventSet.from_states(COIN, ["h"]))
    assert view.contains(g2(1, 0))
    assert not view.contains(g2(-1, 0))


def test_condition_on_everything(coin_r2, rng):
    view = coin_r2.condition(EventSet.all_cells(COIN))
    for _ in range(10):
        f = rand_gamble(rng, COIN)
        assert view.contains(f) == coin_r2.contains(f)


def test_condition_members_are_members(rng):
    for _ in range(10):
        space = rand_space(rng, worst=False)
        gens = []
        for _ in range(rng.randint(0, 2)):
            cand = rand_gamble(rng, space)
            if not cand.is_zero():
                gens.append(cand)
        try:
            d = DesirSet.from_generators(space, gens)
        except ModelError:
            continue
        states = space.omega[: rng.randint(1, space.n_states)]
        b = EventSet.from_states(space, states)
        view = d.condition(b)
        for _ in range(5):
            f = rand_gamble(rng, space).restricted_to(b)
            if view.contains(f):
                assert d.contains(f)
        for bg in view.materialized_generators():
            assert view.contains(bg)


def test_condition_generators_span_the_conditional_set(rng):
    """The printed generating set of an fg set conditioned on a random
    cell event has the conditional set's members: probes on B include the
    restricted generators and positive combinations of them, which sit
    on the boundary, as well as random gambles."""
    counts = dict.fromkeys(("sets", "member", "non-member", "gens > 3"), 0)
    for _ in range(100):
        space = rand_space(rng, worst=False)
        k = rng.randint(1, 6)
        gens = [rand_gamble(rng, space, lo=-3, hi=3, max_den=2) for _ in range(k)]
        try:
            d = DesirSet.from_generators(space, gens)
        except ModelError:
            continue
        cells = space.cells()
        event = EventSet(space, tuple(rng.sample(cells, rng.randint(1, len(cells)))))
        view = d.condition(event)
        printed = DesirSet.from_generators(space, view.materialized_generators())
        restricted = [g.restricted_to(event) for g in gens]
        probes = list(restricted)
        for _ in range(8):
            mix = Gamble.zero(space)
            for bg in rng.sample(restricted, rng.randint(1, len(restricted))):
                mix = mix + bg.scale(rng.randint(1, 3))
            probes.append(mix)
            f = rand_gamble(rng, space, lo=-3, hi=3, max_den=2)
            probes.append(f.restricted_to(event))
        counts["sets"] += 1
        counts["gens > 3"] += len(gens) > 3
        for f in probes:
            member = view.contains(f)
            assert printed.contains(f) == member
            counts["member" if member else "non-member"] += 1
    assert counts["sets"] >= 40 and min(counts.values()) >= 10, counts


def test_marginal_vacuous():
    sq = Space(("h", "t"), ("x0", "x1"))
    d = DesirSet.vacuous(sq)
    mo = d.marginalize("omega")
    pos = Gamble.of(mo.factor_space, [[1], [0]])
    neg = Gamble.of(mo.factor_space, [[1], [-1]])
    assert mo.contains(pos)
    assert not mo.contains(neg)


def test_marginal_of_uniform_product():
    sq = Space(("h", "t"), ("x0", "x1"))
    d = DesirSet.strict(CredalSet.point(sq, (F(1, 4),) * 4))
    mo = d.marginalize("omega")
    assert not mo.contains(Gamble.of(mo.factor_space, [[1], [-1]]))
    strict_marg = mo.as_strict()
    assert strict_marg is not None
    assert strict_marg.credal.vertices[0].mass == (F(1, 2), F(1, 2))


def test_marginal_of_point_mass():
    sq = Space(("h", "t"), ("x0", "x1"))
    d = DesirSet.strict(CredalSet.point(sq, (1, 0, 0, 0)))
    mo = d.marginalize("omega")
    # I_{w1} - 1/2 has expectation 1/2 under the point marginal
    f = Gamble.of(mo.factor_space, [[F(1, 2)], [F(-1, 2)]])
    assert mo.contains(f)


# -- strictness / full Archimedeanity / open supersets -----------------------


def test_strictness_examples(coin_r1, coin_r2):
    assert not DesirSet.from_generators(COIN, [g2(1, -1)]).is_strictly_desirable()
    assert DesirSet.from_generators(COIN, [g2(1, 1)]).is_strictly_desirable()
    assert coin_r1.is_strictly_desirable()
    assert not coin_r2.is_strictly_desirable()


def test_fully_archimedean_examples(coin_r1, coin_r2):
    assert not DesirSet.from_generators(COIN, [g2(2, -1)]).is_fully_archimedean()
    assert coin_r1.is_fully_archimedean()
    assert not coin_r2.is_fully_archimedean()


def test_strict_sets_pass_support_discount_oracle(rng):
    # the declared shortcut for strict sets, replayed against the
    # conditional LP machinery on random members
    for _ in range(3):
        space = rand_space(rng, worst=False)
        masses = [
            [rng.randint(1, 4) for _ in range(space.n_cells)] for _ in range(2)
        ]
        cs = CredalSet.from_vertices(
            space,
            [tuple(F(v, sum(m)) for v in m) for m in masses],
        )
        d = DesirSet.strict(cs)
        assert d.is_fully_archimedean()
        for _ in range(8):
            f = rand_gamble(rng, space)
            if d.contains(f) and not f.is_positive():
                assert d.conditional_lower_prevision(f, f.support()) > 0


def test_open_superset_examples(coin_r2):
    fg = DesirSet.from_generators(COIN, [g2(1, -1)])
    ok, p = fg.has_open_superset()
    assert ok and p(g2(1, -1)) > 0
    tri = Space(("w",), ("x0", "x1", "x2"))
    cone = DesirSet.from_generators(tri, [Gamble.of(tri, [[1, -1, 0]])])
    ok, p = cone.has_open_superset()
    assert ok and p.mass[0] > p.mass[1]
    ok, p = coin_r2.has_open_superset()
    assert not ok and p is None


def test_open_superset_strict(coin_r1):
    ok, p = coin_r1.has_open_superset()
    assert ok and p.mass == (F(1, 2), F(1, 2))


def _rand_gamble_list(rng):
    """0-4 gambles of any sign pattern on a space of at most 3 x 3 cells,
    sometimes with the zero gamble among them."""
    space = rand_space(rng, worst=False)
    gambles = [
        rand_gamble(rng, space, lo=-3, hi=3, max_den=3)
        for _ in range(rng.randint(0, 4))
    ]
    if rng.random() < 0.1:
        gambles.insert(rng.randint(0, len(gambles)), Gamble.zero(space))
    return space, gambles


def test_partial_loss_dichotomy_matches_oracle(rng):
    # Ville's alternative on arbitrary gambles: the partial-loss LP's
    # Farkas vector is a prevision positive on every gamble exactly when
    # no convex combination is <= 0.  The max-margin mixture LP agrees.
    lists = [(COIN, [])] + [_rand_gamble_list(rng) for _ in range(600)]
    found = lost = with_zero = 0
    for space, gambles in lists:
        avoids, weights = avoids_partial_loss(space, gambles)
        ok, p = open_superset_witness(space, gambles)
        assert ok == avoids == open_superset_mix(space, gambles)[0]
        if ok:
            found += 1
            assert all(x >= 0 for x in p.mass) and sum(p.mass) == 1
            assert all(p(g) > 0 for g in gambles)
        else:
            lost += 1
            assert p is None
            assert all(w >= 0 for w in weights) and sum(weights) == 1
            combo = Gamble.zero(space)
            for w, g in zip(weights, gambles):
                combo = combo + g.scale(w)
            assert combo.is_nonpositive()
        with_zero += any(g.is_zero() for g in gambles)
    assert len(lists) > 500 and found >= 100 and lost >= 100 and with_zero


# -- membership axioms on random sets ----------------------------------------


def rand_desirset(rng, space):
    kind = rng.choice(["fg", "strict", "augmented"])
    if kind == "fg":
        gens = []
        for _ in range(rng.randint(0, 3)):
            cand = rand_gamble(rng, space)
            if not cand.is_zero():
                gens.append(cand)
        try:
            return DesirSet.from_generators(space, gens)
        except ModelError:
            return None
    masses = []
    for _ in range(rng.randint(1, 3)):
        m = [rng.randint(0, 4) for _ in range(space.n_cells)]
        if not any(m):
            m[0] = 1
        masses.append(tuple(F(v, sum(m)) for v in m))
    credal = CredalSet.from_vertices(space, masses)
    if kind == "strict":
        return DesirSet.strict(credal)
    for _ in range(6):
        cand = rand_gamble(rng, space)
        b = cand - Gamble.constant(space, credal.lower(cand))
        if b.is_zero() or b.is_positive():
            continue
        if credal.lower(b) != 0:
            continue
        try:
            return DesirSet.augmented(credal, [b])
        except ModelError:
            continue
    return DesirSet.strict(credal)


def rand_member(rng, space, dset):
    for _ in range(40):
        f = rand_gamble(rng, space)
        if dset.contains(f):
            return f
    return None


def test_membership_axioms(rng):
    checked = 0
    while checked < 25:
        space = rand_space(rng, worst=False)
        d = rand_desirset(rng, space)
        if d is None:
            continue
        checked += 1
        pos = rand_gamble(rng, space, lo=0)
        if pos.is_positive():
            assert d.contains(pos)  # D1
        assert not d.contains(Gamble.zero(space))  # D2
        f = rand_member(rng, space, d)
        if f is None:
            continue
        for lam in (F(1, 7), F(1), F(13, 2)):  # D3
            assert d.contains(f.scale(lam))
        g = rand_member(rng, space, d)
        if g is not None:
            assert d.contains(f + g)  # D4


def test_certificates_replay_randomly(rng):
    checked = 0
    while checked < 15:
        space = rand_space(rng, worst=False)
        d = rand_desirset(rng, space)
        if d is None:
            continue
        checked += 1
        for _ in range(6):
            f = rand_gamble(rng, space)
            verdict = d.member(f)  # member() raises if replay fails
            assert isinstance(verdict, MembershipVerdict)


def test_fg_strictness_lemmas(rng):
    # The open-shape set {f positive or lower prevision positive} always
    # sits inside an FG set, and contains it exactly when the generator
    # criterion passes.
    checked = 0
    while checked < 15:
        space = rand_space(rng, worst=False)
        d = rand_desirset(rng, space)
        if d is None or d.kind != "fg":
            continue
        checked += 1
        strict_shape = lambda f: f.is_positive() or d.lower_prevision(f) > 0
        agree = True
        for _ in range(8):
            f = rand_gamble(rng, space)
            if strict_shape(f):
                assert d.contains(f)  # inclusion holds unconditionally
            agree = agree and (strict_shape(f) == d.contains(f))
        if not d.is_strictly_desirable():
            continue
        for _ in range(8):
            f = rand_gamble(rng, space)
            assert d.contains(f) == strict_shape(f)


def test_fg_full_archimedean_iff_strict(rng):
    checked = 0
    while checked < 50:
        space = rand_space(rng, worst=False)
        d = rand_desirset(rng, space)
        if d is None or d.kind != "fg":
            continue
        checked += 1
        assert d.is_fully_archimedean() == d.is_strictly_desirable()


def _augmented_bruteforce_contains(d, f):
    """Grid the single border multiple; exact colinear solve included."""
    assert len(d.borders) == 1
    b = d.borders[0]
    strict = DesirSet.strict(d.credal)

    def in_strict_or_ray(mu):
        peeled = f - b.scale(mu)
        if peeled.is_zero():
            return mu > 0
        return peeled.is_positive() or d.credal.lower(peeled) > 0

    for k in range(0, 65):
        if in_strict_or_ray(F(k, 8)):
            return True
    # exact colinear candidates: mu with f(c) = mu*b(c) at some cell
    for fv, bv in zip(f.flat(), b.flat()):
        if bv != 0 and fv / bv > 0 and in_strict_or_ray(fv / bv):
            return True
    return strict.contains(f)


def test_augmented_membership_vs_bruteforce(rng):
    checked = 0
    while checked < 8:
        space = rand_space(rng, worst=False)
        d = rand_desirset(rng, space)
        if d is None or d.kind != "augmented" or len(d.borders) != 1:
            continue
        checked += 1
        for _ in range(10):
            f = rand_gamble(rng, space, lo=-3, hi=3, max_den=2)
            member = d.contains(f)
            assert member == augmented_contains_lp(d, f)
            # the grid may miss exact border multiples: one-sided
            if _augmented_bruteforce_contains(d, f):
                assert member
        # and the exact ray itself is always found by both
        ray = d.borders[0].scale(F(rng.randint(1, 5), rng.randint(1, 3)))
        assert d.contains(ray) and _augmented_bruteforce_contains(d, ray)


def _rand_augmented(rng):
    """A random augmented set on a space of at most 3 x 3 cells, over a
    constraint-form or vertex-form credal set, with 1-3 border rays and
    sometimes their sum as one more (dependent) ray; None on a draw the
    factory rejects."""
    space = rand_space(rng, worst=False)
    if rng.random() < 0.5:
        cons = [rand_gamble(rng, space) for _ in range(rng.randint(1, 2))]
        try:
            credal = CredalSet.from_constraints(space, cons)
        except ModelError:
            return None
    else:
        masses = [rand_mass_row(rng, space.n_cells) for _ in range(rng.randint(1, 3))]
        credal = CredalSet.from_vertices(space, masses)
    borders = []
    for _ in range(rng.randint(1, 3)):
        g = rand_gamble(rng, space, lo=-3, hi=3, max_den=2)
        b = g - Gamble.constant(space, credal.lower(g))
        if not (b.is_zero() or b.is_positive()):
            borders.append(b)
    if len(borders) > 1 and rng.random() < 0.5:
        total = borders[0] + borders[1]
        if credal.lower(total) == 0 and not total.is_positive():
            borders.append(total)
    try:
        d = DesirSet.augmented(credal, borders)
    except ModelError:
        return None
    return d if d.kind == AUGMENTED else None


def _probe_gambles(rng, d):
    """Random gambles, border combinations nudged either way, and gambles
    with lower expectation exactly zero or just above it."""
    space = d.space
    out = [rand_gamble(rng, space, lo=-3, hi=3, max_den=2) for _ in range(2)]
    combo = Gamble.zero(space)
    for b in d.borders:
        combo = combo + b.scale(F(rng.randint(0, 3), rng.randint(1, 2)))
    nudge = rand_gamble(rng, space, lo=0, hi=1, max_den=3)
    out += [combo, combo + nudge, combo - nudge]
    g = rand_gamble(rng, space)
    flat = g - Gamble.constant(space, d.credal.lower(g))
    out += [flat, flat + Gamble.constant(space, F(1, 5))]
    return [f for f in out if not f.is_zero()]


def _rand_event(rng, space):
    """A state event, the all-cells event, or a random cell event."""
    kind = rng.randrange(3)
    if kind == 0:
        states = rng.sample(space.omega, rng.randint(1, space.n_states))
        return EventSet.from_states(space, states)
    if kind == 1:
        return EventSet.all_cells(space)
    cells = space.cells()
    return EventSet(space, tuple(sorted(rng.sample(cells, rng.randint(1, len(cells))))))


def test_augmented_open_part_matches_vertex_row_lps(rng):
    # The open part of an augmented set is decided without LPs: membership
    # by the lower envelope, the conditional supremum by the generalized
    # Bayes rule.  The vertex-row LPs with free border multiples agree.
    # Each draw also runs as the strict set over the same credal set: the
    # case with no rays.
    sets = queries = zero_prob = positive_prob = open_members = 0
    while sets < 100:
        d = _rand_augmented(rng)
        if d is None:
            continue
        sets += 1
        probes = _probe_gambles(rng, d)
        conditionals = [
            (f, _rand_event(rng, d.space)) for f in _probe_gambles(rng, d)[:3]
        ]
        for dset in (d, DesirSet.strict(d.credal)):
            ok, p = dset.has_open_superset()
            assert ok == (p is not None)
            if ok:
                assert dset.credal.contains(p)
                assert all(p(b) > 0 for b in dset.borders)
            assert dset.is_strictly_desirable() == (not dset.borders)
            if not dset.borders:
                assert dset.is_fully_archimedean()
            for f in probes:
                verdict = dset.member(f)
                assert verdict.member == augmented_contains_lp(dset, f)
                assert verdict.certificate.replays(dset, f)
                in_open = dset.credal.lower(f) > 0
                assert (augmented_open_lp(dset, f)[0] > 0) == in_open
                assert isinstance(verdict.certificate, PositiveExpectation) == (
                    in_open and not f.is_positive()
                )
                open_members += in_open
                queries += 1
            for f, event in conditionals:
                sups = [
                    augmented_open_conditional_sup(dset, f, event),
                    _residual_sup(dset.borders, f, event),
                ]
                expected = max(x for x in sups if x is not None)
                assert dset.conditional_lower_prevision(f, event) == expected
                if dset.credal.lower_probability(event) == 0:
                    zero_prob += 1
                else:
                    positive_prob += 1
    assert queries >= 1000 and open_members and zero_prob and positive_prob


def _rand_fg(rng):
    """A random fg set on at most 3 x 3 cells, or None on a draw whose
    generators incur partial loss (or include the zero gamble)."""
    space, gambles = _rand_gamble_list(rng)
    try:
        return DesirSet.from_generators(space, gambles)
    except ModelError:
        return None


def test_residual_sup_matches_free_variable_lp(rng):
    # The closed part's conditional supremum shifts mu by min_B f, so its
    # LP needs no free variable.  The LP with mu free agrees on every
    # (rays, gamble, event) triple: fg, strict and augmented sets, and raw
    # ray lists, some of which incur partial loss and leave both LPs
    # unbounded.
    kinds = ("fg", "strict", "augmented", "raw")
    counts = dict.fromkeys(kinds, 0)
    cover = dict.fromkeys(
        (
            "zero lower probability",
            "positive lower probability",
            "single cell",
            "constant on event",
            "unbounded",
        ),
        0,
    )
    while min(counts[k] for k in kinds[:3]) < 100 or counts["raw"] < 60:
        aug = _rand_augmented(rng)
        sets = [_rand_fg(rng)]
        if aug is not None:
            sets += [aug, DesirSet.strict(aug.credal)]
        cases = [(d.kind, d.space, d.rays, d) for d in sets if d is not None]
        space, raw = _rand_gamble_list(rng)
        cases.append(("raw", space, [g for g in raw if not g.is_zero()], None))
        for kind, space, rays, dset in cases:
            for constant in (False, True):
                if rng.random() < 0.3:
                    event = EventSet(space, (rng.choice(space.cells()),))
                else:
                    event = _rand_event(rng, space)
                f = rand_gamble(rng, space, lo=-3, hi=3, max_den=3)
                if constant:
                    c = F(rng.randint(-3, 3), rng.randint(1, 3))
                    f = f - f.restricted_to(event) + event.indicator().scale(c)
                got = _residual_sup(rays, f, event)
                assert got == residual_sup_free_lp(rays, f, event)
                counts[kind] += 1
                cover["single cell"] += len(event.cells) == 1
                cover["constant on event"] += constant
                cover["unbounded"] += got is None
                if dset is not None:
                    assert got is not None
                    low = dset.lower_prevision(event.indicator())
                    cover["zero lower probability"] += low == 0
                    cover["positive lower probability"] += low > 0
    assert sum(counts.values()) >= 300 and min(cover.values()) >= 20, (counts, cover)


def test_fg_previsions_scan_the_credal_projection(rng):
    # An fg set's natural extension is the lower envelope of M_R = {P :
    # P(g) >= 0 for each generator g} (the lower envelope theorem), read
    # off the cached credal projection; the residual LP and the LP with mu
    # free agree with every lower and upper prevision.
    counts = dict.fromkeys(("vacuous", "one generator", "more"), 0)
    while sum(counts.values()) < 200 or min(counts.values()) < 20:
        d = _rand_fg(rng)
        if d is None:
            continue
        k = len(d.generators)
        counts["vacuous" if k == 0 else "one generator" if k == 1 else "more"] += 1
        everything = EventSet.all_cells(d.space)
        for _ in range(3):
            f = rand_gamble(rng, d.space, lo=-3, hi=3, max_den=3)
            for got, h in ((d.lower_prevision(f), f), (-d.upper_prevision(f), -f)):
                assert got == _residual_sup(d.rays, h, everything)
                assert got == residual_sup_free_lp(d.rays, h, everything)
        assert d.credal_projection() is d.credal_projection()


def test_fg_previsions_build_the_credal_projection_once(enumerations, solved_lps):
    # 20 previsions on one enumerable fg set enumerate M_R once, on the
    # first query, and solve no cone LP
    space = Space(("a", "b", "c"), ("x", "y"))
    gens = [
        Gamble.of(space, [[1, -2], [2, 0], [-1, 1]]),
        Gamble.of(space, [[0, 3], [-1, 1], [1, -2]]),
        Gamble.of(space, [[-2, 1], [1, 1], [0, 0]]),
    ]
    d = DesirSet.from_generators(space, gens)
    solved_lps.clear()
    for k in range(10):
        f = Gamble.of(space, [[k - 4, 1], [2, -k], [F(k, 3), -1]])
        assert d.lower_prevision(f) == -d.upper_prevision(-f)
    assert len(enumerations) == 1
    assert lps_in(solved_lps, "cones") == []


def _rand_fg_or_cone(rng):
    """(kind, set) on at most 3 x 3 cells with a worst outcome: the vacuous
    set, 1-5 generators, or the cone of a bare relation; None on a draw
    that incurs partial loss.  Half the generator draws are shifted to
    expectation zero under a random full-support prevision."""
    space = rand_space(rng)
    kind = rng.choice(["vacuous", "one", "more", "more", "relation"])
    if kind == "vacuous":
        return kind, DesirSet.vacuous(space)
    if kind == "relation":
        pairs = [
            (rand_lottery(rng, space, False), rand_lottery(rng, space, False))
            for _ in range(rng.randint(1, 3))
        ]
        if any(p == q for p, q in pairs):
            return None
        cone = PreferenceRelation.of(space, pairs, bare=True)._cone
        return None if cone is None else (kind, cone)
    prior = LinearPrevision(space, rand_mass_row(rng, space.n_cells))
    gens = []
    for _ in range(1 if kind == "one" else rng.randint(2, 5)):
        g = rand_gamble(rng, space, lo=-3, hi=3, max_den=3)
        if rng.random() < 0.5:
            g = g - Gamble.constant(space, prior(g))
        if not g.is_zero():
            gens.append(g)
    try:
        return kind, DesirSet.from_generators(space, gens)
    except ModelError:
        return None


def _fg_probes(rng, d):
    """Zero, a positive and a nonpositive gamble, each generator,
    nonnegative combinations of them plus a positive gamble, and random
    gambles."""
    space = d.space
    probes = [Gamble.zero(space)]
    probes += [
        rand_gamble(rng, space, lo=0, hi=3),
        rand_gamble(rng, space, lo=-3, hi=0),
    ]
    probes += list(d.generators)
    for _ in range(2 if d.generators else 0):
        combo = rand_gamble(rng, space, lo=0, hi=1, max_den=3)
        for g in d.generators:
            combo = combo + g.scale(F(rng.randint(0, 3), rng.randint(1, 3)))
        probes.append(combo)
    probes += [rand_gamble(rng, space, lo=-3, hi=3, max_den=3) for _ in range(3)]
    return probes


def _pair_for(space, f):
    """z-lotteries p, q whose projected difference is a positive multiple
    of f."""
    pos = [[max(v, 0) for v in row] for row in f.values]
    neg = [[max(-v, 0) for v in row] for row in f.values]
    scale = max([F(1)] + [sum(row) for row in pos + neg])
    return tuple(
        pi1_inverse(Gamble.of(space, rows).scale(1 / scale)) for rows in (pos, neg)
    )


def test_fg_membership_scans_match_the_reference_cone_lp(rng):
    # An enumerable fg set decides membership by f != 0 and
    # lower_{M_R}(f) >= 0; the cone LP over the rays, solved by the
    # reference simplex, agrees, and so does member() with its certificate.
    # The conditional and marginal views and the relation oracle inherit
    # the verdict.  Members with both signs and lower prevision zero, on
    # the boundary of the cone, are where a strict inequality goes wrong.
    counts = dict.fromkeys(("vacuous", "one", "more", "relation"), 0)
    boundary = 0
    while sum(counts.values()) < 200 or min(counts.values()) < 20:
        drawn = _rand_fg_or_cone(rng)
        if drawn is None:
            continue
        kind, d = drawn
        counts[kind] += 1
        m_r = d.credal_projection()
        event = _rand_event(rng, d.space)
        view = d.condition(event)
        oracle = from_desirset(d)
        for f in _fg_probes(rng, d):
            want = fg_contains_reference(d.rays, f)
            assert d.contains(f) == want == d.member(f).member, (d, f)
            boundary += want and not f.is_positive() and m_r.lower(f) == 0
            bf = f.restricted_to(event)
            assert view.contains(f) == (f == bf and want)
            assert view.contains(bf) == fg_contains_reference(d.rays, bf)
            assert oracle.holds(*_pair_for(d.space, f)) == want
        for keep in ("omega", "prizes"):
            marginal = d.marginalize(keep)
            for g in (
                rand_gamble(rng, marginal.factor_space, lo=0, hi=2),
                rand_gamble(rng, marginal.factor_space, lo=-3, hi=3, max_den=3),
            ):
                want = fg_contains_reference(d.rays, marginal.extend(g))
                assert marginal.contains(g) == want
    assert boundary >= 50, (counts, boundary)


def test_augmented_queries_lp_counts(solved_lps):
    # Only the closed part runs an LP: none for an open-part member, one
    # for a closed-part member, a non-member or a conditional prevision.
    # Membership LPs are feasibility problems (all-zero objective) for fg
    # sets and closed parts alike; the border ray (2, -1) does not sum to
    # zero over the cells, so a residual-mass objective would show.
    # Replaying a separating vertex solves no hull LP.
    third = CredalSet.from_constraints(COIN, [g2(2, -1), g2(-2, 1)])
    d = DesirSet.augmented(third, [g2(2, -1)])
    hull = CredalSet.from_vertices(COIN, [(F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))])
    d_hull = DesirSet.augmented(hull, [g2(2, -1)])
    fg = DesirSet.from_generators(COIN, [g2(2, -1)])
    strict = DesirSet.strict(third)
    vacuous = DesirSet.vacuous(COIN)
    heads = EventSet.from_states(COIN, ["h"])

    def lps(query):
        solved_lps.clear()
        answer = query()
        return answer, len(lps_in(solved_lps, "cones"))

    def feasibility_only():
        return all(x == 0 for p in lps_in(solved_lps, "cones") for x in p.objective)

    assert lps(lambda: d.member(g2(3, -1)).member) == (True, 0)
    assert lps(lambda: d.member(g2(2, -1)).member) == (True, 1)
    assert feasibility_only()
    assert lps(lambda: d.member(g2(-2, 1)).member) == (False, 1)
    assert feasibility_only()
    assert lps(lambda: fg.member(g2(4, -2)).member) == (True, 1)
    assert feasibility_only()
    assert lps(lambda: d.conditional_lower_prevision(g2(-2, 1), heads)) == (-2, 1)
    assert lps(lambda: strict.conditional_lower_prevision(g2(3, 1), heads)) == (3, 0)
    assert lps(lambda: vacuous.lower_prevision(g2(3, 1))) == (1, 0)
    assert lps(lambda: d_hull.member(g2(-2, 1)).member) == (False, 1)
    assert feasibility_only() and lps_in(solved_lps, "credal") == []


def test_partial_loss_lp_counts(solved_lps, tri_dependent):
    # The credal kinds find an open superset with no LP (the vertex
    # centroid), an fg set with one partial-loss LP; a border list costs
    # one coherence LP however many rays it has.
    fg = DesirSet.from_generators(COIN, [g2(2, -1)])
    uniform = tri_dependent.credal
    strict = DesirSet.strict(uniform)

    def lps(query):
        solved_lps.clear()
        answer = query()
        return answer, len(lps_in(solved_lps, "cones"))

    assert lps(lambda: strict.has_open_superset()[0]) == (True, 0)
    assert lps(lambda: tri_dependent.has_open_superset()[0]) == (False, 0)
    assert lps(lambda: fg.has_open_superset()[0]) == (True, 1)
    borders = tri_dependent.borders
    assert lps(lambda: DesirSet.augmented(uniform, borders).kind) == (AUGMENTED, 1)
    with pytest.raises(ModelError, match="to zero"):
        lps(lambda: DesirSet.augmented(uniform, [g3(1, -1, 0), g3(-1, 1, 0)]))
    assert len(lps_in(solved_lps, "cones")) == 1


def test_credal_open_superset_matches_mixture_lp(rng):
    # The vertex centroid is positive on every border ray exactly when
    # some mixture of the vertices is.
    sets = found = 0
    while sets < 100:
        d = _rand_augmented(rng)
        if d is None:
            continue
        sets += 1
        for dset in (d, DesirSet.strict(d.credal)):
            ok, p = dset.has_open_superset()
            oracle = positive_mix(dset.space, dset.credal.vertices, dset.borders)
            assert ok == (oracle is not None) == (p is not None)
            found += ok and bool(dset.borders)
    assert found

