from fractions import Fraction as F

from desir.cones import DesirSet
from desir.credal import CredalSet, LinearPrevision
from desir.spaces import EventSet, Gamble, Space

from conftest import rand_gamble, rand_space

from test_cones import rand_desirset

COIN = Space(("h", "t"), ("x",))


def g2(a, b):
    return Gamble.of(COIN, [[a], [b]])


def backings(rng, space):
    out = []
    for _ in range(6):
        d = rand_desirset(rng, space)
        if d is not None:
            out.append(d)
    return out


def test_c1_c2_c3_and_conjugacy(rng):
    for _ in range(8):
        space = rand_space(rng, worst=False)
        for d in backings(rng, space):
            lp = d.lower_prevision
            f, g = rand_gamble(rng, space), rand_gamble(rng, space)
            assert lp(f) >= f.min_value()  # C1
            for lam in (F(1, 3), F(2)):
                assert lp(f.scale(lam)) == lam * lp(f)  # C2
            assert lp(f + g) >= lp(f) + lp(g)  # C3
            assert lp(f) <= d.upper_prevision(f)


def test_envelope_oracle(rng):
    # lower prevision via the cone LP equals the exact minimum over the
    # enumerated vertices of the credal projection
    for _ in range(10):
        space = rand_space(rng, worst=False)
        d = rand_desirset(rng, space)
        if d is None or d.kind != "fg":
            continue
        credal = d.credal_projection()
        for _ in range(5):
            f = rand_gamble(rng, space)
            assert d.lower_prevision(f) == credal.lower(f)


def test_conditional_axioms(rng):
    for _ in range(6):
        space = rand_space(rng, worst=False)
        for d in backings(rng, space):
            states = space.omega[: rng.randint(1, space.n_states)]
            b = EventSet.from_states(space, states)
            f, g = rand_gamble(rng, space), rand_gamble(rng, space)
            cond = d.conditional_lower_prevision
            assert cond(f, b) >= f.min_over(b)  # CC1
            for lam in (F(1, 3), F(2)):
                assert cond(f.scale(lam), b) == lam * cond(f, b)
            assert cond(f + g, b) >= cond(f, b) + cond(g, b)  # CC3
            assert cond(b.indicator(), b) == 1


def test_conditional_sup_is_tight(rng):
    # v = sup { mu : B(f - mu) in D } exactly: membership holds just
    # below v and fails just above it.  (The bisection-oracle check.)
    delta = F(1, 64)
    for _ in range(8):
        space = rand_space(rng, worst=False)
        d = rand_desirset(rng, space)
        if d is None:
            continue
        states = space.omega[: rng.randint(1, space.n_states)]
        b = EventSet.from_states(space, states)
        f = rand_gamble(rng, space)
        v = d.conditional_lower_prevision(f, b)
        below = (f - Gamble.constant(space, v - delta)).restricted_to(b)
        above = (f - Gamble.constant(space, v + delta)).restricted_to(b)
        assert d.contains(below)
        assert not d.contains(above)


def test_conditional_sup_tight_on_cell_events(rng):
    # same tightness contract on arbitrary cell events (conditional
    # strictness checks condition on supports, not just state cylinders)
    delta = F(1, 64)
    checked = 0
    while checked < 40:
        space = rand_space(rng, worst=False)
        d = rand_desirset(rng, space)
        if d is None:
            continue
        cells = [c for c in space.cells() if rng.random() < 0.6]
        if not cells:
            continue
        checked += 1
        ev = EventSet(space, tuple(cells))
        f = rand_gamble(rng, space)
        v = d.conditional_lower_prevision(f, ev)
        assert d.contains((f - Gamble.constant(space, v - delta)).restricted_to(ev))
        assert not d.contains(
            (f - Gamble.constant(space, v + delta)).restricted_to(ev)
        )


def test_credal_backing_matches_strict_set(rng):
    space = Space(("h", "t"), ("x0", "x1"))
    cs = CredalSet.from_vertices(
        space, [(F(1, 4), F(1, 4), F(1, 4), F(1, 4)), (F(1, 2), F(1, 2), 0, 0)]
    )
    d = DesirSet.strict(cs)
    for _ in range(10):
        f = rand_gamble(rng, space)
        assert cs.lower(f) == d.lower_prevision(f)
        assert cs.upper(f) == d.upper_prevision(f)


def test_conditional_natural_extension_dispatch():
    cs = CredalSet.point(COIN, (F(1, 2), F(1, 2)))
    b = EventSet.from_states(COIN, ["h"])
    assert cs.conditional_natural_extension(g2(3, -5), b) == 3


def test_negative_additivity_two_vertices():
    # hand-built: hull of (1/4,3/4) and (1/2,1/2); f=(1,-1/3), g=(-1,1)
    # both sit outside the strict set, yet f+g-1/4 is inside.
    cs = CredalSet.from_vertices(COIN, [(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))])
    d = DesirSet.strict(cs)
    f, g = g2(1, F(-1, 3)), g2(-1, 1)
    assert not d.contains(f) and not d.contains(g)
    assert d.contains((f + g) - Gamble.constant(COIN, F(1, 4)))
    assert not cs.is_linear()


def test_negative_additivity_holds_when_linear(rng):
    cs = CredalSet.point(COIN, (F(1, 3), F(2, 3)))
    d = DesirSet.strict(cs)
    assert cs.is_linear()
    count = 0
    while count < 200:
        f, g = rand_gamble(rng, COIN), rand_gamble(rng, COIN)
        if d.contains(f) or d.contains(g):
            continue
        count += 1
        for eps in (F(1, 5), F(1, 97)):
            assert not d.contains((f + g) - Gamble.constant(COIN, eps))


def test_linear_dichotomy_on_event_bets(rng):
    # single-vertex backing: for any event A, mixture weight alpha and
    # prizes mu1 > mu2, exactly one of the two bets is preferred.
    p = LinearPrevision.of(COIN, (F(2, 5), F(3, 5)))
    d = DesirSet.strict(CredalSet.point(COIN, p.mass))
    for _ in range(40):
        cells = [c for c in COIN.cells() if rng.random() < 0.5]
        if not cells or len(cells) == COIN.n_cells:
            continue
        a = EventSet(COIN, tuple(cells))
        alpha = F(rng.randint(1, 7), 8)
        mu1 = F(rng.randint(0, 8), 4)
        mu2 = mu1 - F(rng.randint(1, 8), 4)
        const = Gamble.constant(COIN, alpha * mu1 + (1 - alpha) * mu2)
        bet = a.indicator().scale(mu1) + (
            EventSet(COIN, tuple(set(COIN.cells()) - set(cells))).indicator()
        ).scale(mu2)
        first = d.contains(const - bet)
        second = all(
            d.contains(bet - Gamble.constant(COIN, ap * mu1 + (1 - ap) * mu2))
            for ap in (alpha - F(1, 16), alpha - F(1, 64), F(0))
            if ap >= 0
        )
        assert first != second


def test_represents_complete_examples():
    sq = Space(("h", "t"), ("x0", "x1"))
    product = CredalSet.point(sq, (F(1, 4),) * 4)
    for scope in ("preferences", "beliefs", "values"):
        assert product.represents_complete(scope)
    assert CredalSet.point(COIN, (F(1, 2), F(1, 2))).represents_complete("preferences")
    two = CredalSet.from_vertices(COIN, [(F(1, 4), F(3, 4)), (F(1, 2), F(1, 2))])
    assert not two.represents_complete("preferences")
    # correlated joint has linear marginals but non-linear joint
    corr = CredalSet.from_vertices(
        sq,
        [(F(1, 2), 0, 0, F(1, 2)), (0, F(1, 2), F(1, 2), 0)],
    )
    assert corr.represents_complete("beliefs")
    assert corr.represents_complete("values")
    assert not corr.represents_complete("preferences")
