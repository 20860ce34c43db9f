import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import desir.credal
from desir.cones import DesirSet
from desir.credal import (
    CredalSet,
    LinearPrevision,
    enumerate_vertices,
    omega_factor_space,
)
from desir.document import parse_document
from desir.errors import InputError, InternalError, ModelError, ResourceLimitError
from desir.products import product_prevision, strong_product
from desir.spaces import EventSet, Gamble, Space, prizes_factor_space

from conftest import lps_in, rand_gamble, rand_mass_row, rand_space
from oracles import (
    check_double_inclusion_lp,
    conditional_natural_extension_scan,
    enumerate_vertices_bruteforce,
    enumerate_vertices_sweep,
    extreme_points_bruteforce,
    generalized_bayes_scan,
    lower_probability_scan,
    lower_scan,
    minimizer_scan,
    upper_scan,
)

COIN = Space(("h", "t"), ("x",))
TRI = Space(("a", "b", "c"), ("x",))
BENCH_DATA = Path(__file__).parent.parent / "bench" / "data"
LADDER = BENCH_DATA / "vertex-ladder"


def g(space, rows):
    return Gamble.of(space, rows)


def test_vacuous_vertices_are_point_masses():
    assert enumerate_vertices(COIN, ()) == ((0, 1), (1, 0))
    assert enumerate_vertices(TRI, ()) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_halfspace_vertices():
    # P((1,-1)) >= 0 on two cells: the edge p in [1/2, 1], over 2
    vs = enumerate_vertices(COIN, (g(COIN, [[1], [-1]]),))
    assert vs == ((1, 1), (2, 0))


def test_forced_equality_vertex():
    vs = enumerate_vertices(
        COIN, (g(COIN, [[1], [-1]]), g(COIN, [[-1], [1]]))
    )
    assert vs == ((1, 1),)


def test_empty_credal_set_rejected():
    with pytest.raises(ModelError):
        CredalSet.from_constraints(COIN, (g(COIN, [[-1], [-1]]),))


def test_enumeration_budget():
    # C(20 + 6, 19) = 657800 candidate active sets, past the budget
    big = Space(tuple(f"w{i}" for i in range(20)), ("x",))
    cons = (Gamble.constant(big, 1),) * 6
    with pytest.raises(ResourceLimitError, match="657800 active sets"):
        enumerate_vertices(big, cons)


def test_thirty_cell_vacuous_set():
    big = Space(tuple(f"w{i}" for i in range(30)), ("x",))
    assert enumerate_vertices(big, ()) == tuple(
        tuple(int(i == j) for i in range(30)) for j in reversed(range(30))
    )


def _kernel_masses(space, cons):
    rows = enumerate_vertices(space, cons)
    return tuple(tuple(F(x, sum(r)) for x in r) for r in rows)


def _masses_or_limit(enumerator, space, cons):
    try:
        return enumerator(space, cons)
    except ResourceLimitError:
        return "over budget"


def test_enumeration_matches_full_system_bruteforce(rng):
    """Reduced integer systems give the vertices of the full Fraction sweep,
    on rational rows, all-zero rows and duplicated rows."""
    nonempty = 0
    for _ in range(50):
        space = rand_space(rng, worst=False)
        cons = []
        for _ in range(rng.randint(0, 4)):
            pick = rng.random()
            if pick < 0.15:
                cons.append(Gamble.zero(space))
            elif pick < 0.3 and cons:
                cons.append(rng.choice(cons))
            else:
                cons.append(rand_gamble(rng, space))
        expected = _masses_or_limit(enumerate_vertices_bruteforce, space, cons)
        assert _masses_or_limit(_kernel_masses, space, cons) == expected
        nonempty += bool(expected)
    assert nonempty >= 25
    over = Space(tuple(f"w{i}" for i in range(20)), ("x",))
    cons = [Gamble.zero(over)] * 6
    for enumerator in (_kernel_masses, enumerate_vertices_bruteforce):
        assert _masses_or_limit(enumerator, over, cons) == "over budget"


def _dd_case(rng):
    """At most 4x4 cells and four rows: random rows, zero rows, repeated
    rows, positive multiples of an earlier row and negated earlier rows
    (an equality with that row)."""
    space = rand_space(rng, max_states=4, max_prizes=4, worst=False)
    cons = []
    for _ in range(rng.randint(0, 4)):
        pick = rng.random()
        if pick < 0.1:
            cons.append(Gamble.zero(space))
        elif pick < 0.2 and cons:
            cons.append(rng.choice(cons))
        elif pick < 0.3 and cons:
            cons.append(rng.choice(cons).scale(F(rng.randint(2, 5), rng.randint(1, 3))))
        elif pick < 0.45 and cons:
            cons.append(-rng.choice(cons))
        else:
            cons.append(rand_gamble(rng, space))
    return space, cons


def test_double_description_matches_the_sweep(rng):
    """Double description gives the active-set sweep's rows exactly."""
    one = Space(("w",), ("x",))
    seeded = Space(("a", "b", "c", "d"), ("w", "x", "y", "z"))
    seeded_rng = random.Random(3)
    h = g(COIN, [[1], [-2]])
    cases = [
        (one, []),
        (one, [g(one, [[1]])]),
        (one, [g(one, [[-1]])]),
        (one, [Gamble.zero(one), g(one, [[2]])]),
        (COIN, [h, -h]),
        (COIN, [h, h.scale(3), -h]),
        (TRI, [g(TRI, [[-1], [-1], [-F(1, 2)]])]),
        (seeded, [rand_gamble(seeded_rng, seeded) for _ in range(4)]),
    ]
    cases.extend(_dd_case(rng) for _ in range(50))
    sizes = []
    for space, cons in cases:
        rows = enumerate_vertices(space, cons)
        assert rows == enumerate_vertices_sweep(space, cons)
        sizes.append(len(rows))
    assert sizes[:7] == [1, 1, 0, 1, 1, 1, 0]
    assert sizes[7] == 918  # the seeded 4x4 set of ROADMAP item 4
    assert sum(map(bool, sizes)) >= 40 and 0 in sizes[8:], sizes


@pytest.mark.parametrize(
    "workload, calls, vertices",
    [("fg-strict-batch", 1, 74), ("vertex-ladder", 9, 182), ("augmented-cond", 1, 29)],
)
def test_bench_parse_enumerates_the_traced_work(monkeypatch, workload, calls, vertices):
    """Parsing the committed documents makes the enumeration calls, and
    finds the vertices, that the tracer's credal.enumerate metrics count."""
    found = []

    def counting(space, constraints, real=desir.credal.enumerate_vertices):
        rows = real(space, constraints)
        found.append(len(rows))
        return rows

    monkeypatch.setattr(desir.credal, "enumerate_vertices", counting)
    for path in sorted((BENCH_DATA / workload).glob("*.doc.txt")):
        parse_document(path.read_text())
    assert (len(found), sum(found)) == (calls, vertices)


def _self_check_case(rng):
    """An H-form set on at most 3x3 cells with at most four constraints:
    rows over a small alphabet (so several meet at one vertex), random
    rows, zero rows and duplicated rows.  None when the set is empty."""
    space = rand_space(rng, worst=False)
    alphabet = (F(0), F(1), F(-1), F(2), F(-1, 2))
    cons = []
    for _ in range(rng.randint(0, 4)):
        pick = rng.random()
        if pick < 0.1:
            cons.append(Gamble.zero(space))
        elif pick < 0.25 and cons:
            cons.append(rng.choice(cons))
        elif pick < 0.65:
            rows = [[rng.choice(alphabet) for _ in space.prizes] for _ in space.omega]
            cons.append(Gamble.of(space, rows))
        else:
            cons.append(rand_gamble(rng, space))
    try:
        return CredalSet.from_constraints(space, cons)
    except ModelError:
        return None


def _is_degenerate(cs, v):
    """More tight constraint rows than the support size less one."""
    tight = sum(v(g) == 0 for g in cs.constraints)
    return tight > sum(x > 0 for x in v.mass) - 1


def _mutated(rng, cs, t):
    """The vertex list with one vertex dropped, one vertex replaced by the
    midpoint of two others, or a feasible non-vertex point (a mixture of
    two or three vertices) added, by t; None when too few vertices."""
    vs = [v.mass for v in cs.vertices]
    kind = t % 3
    if len(vs) < (3 if kind == 1 else 2):
        return None
    if kind == 0:
        vs.pop(rng.randrange(len(vs)))
    elif kind == 1:
        a, b, c = rng.sample(range(len(vs)), 3)
        vs[a] = tuple((x + y) / 2 for x, y in zip(vs[b], vs[c]))
    else:
        picked = rng.sample(vs, rng.randint(2, min(3, len(vs))))
        weights = [rng.randint(1, 3) for _ in picked]
        vs.append(
            tuple(
                sum((w * p[j] for w, p in zip(weights, picked)), F(0)) / sum(weights)
                for j in range(len(vs[0]))
            )
        )
    points = sorted(set(vs))
    den = math.lcm(*[x.denominator for m in points for x in m])
    rows = tuple(tuple(x.numerator * (den // x.denominator) for x in m) for m in points)
    return CredalSet(cs.space, rows, den, cs.constraints)


def _raises(check, cs):
    try:
        check(cs)
    except InternalError:
        return True
    return False


def test_self_check_duals_agree_with_the_lp_oracle(rng, solved_lps):
    """The dual self-check passes on every enumerated list, and on mutated
    lists it raises exactly when the 2(n + k)-LP check does."""
    kinds = ("sets", "degenerate", "zero row", "duplicate", "raised", "fallback")
    counts = dict.fromkeys(kinds + ("raised by a dual",), 0)
    for t in range(300):
        cs = _self_check_case(rng)
        if cs is None:
            continue
        counts["sets"] += 1
        counts["degenerate"] += any(_is_degenerate(cs, v) for v in cs.vertices)
        counts["zero row"] += any(g.is_zero() for g in cs.constraints)
        counts["duplicate"] += len(set(cs.constraints)) < len(cs.constraints)
        check_double_inclusion_lp(cs)
        lists = [cs]
        mutated = _mutated(rng, cs, t)
        if mutated is not None:
            lists.append(mutated)
        for case in lists:
            solved_lps.clear()
            raised = _raises(CredalSet._check_double_inclusion, case)
            n_lps = len(lps_in(solved_lps, "credal"))
            assert raised == _raises(check_double_inclusion_lp, case)
            assert not raised or case is not cs
            counts["raised"] += raised
            counts["fallback"] += n_lps > 0
            counts["raised by a dual"] += raised and n_lps == 0
    assert counts["sets"] >= 200 and counts["raised"] >= 50, counts
    assert min(counts.values()) >= 20, counts


def test_vertex_ladder_parse_solves_only_degenerate_fallback_lps(solved_lps):
    # the 2(n + k)-LP check solved 120 LPs here; with vertex duals only the
    # directions whose every minimiser is degenerate solve one
    for path in sorted(LADDER.glob("*.doc.txt")):
        parse_document(path.read_text())
    assert len(lps_in(solved_lps, "credal")) == 2


def test_from_vertices_prunes_interior_points():
    cs = CredalSet.from_vertices(
        COIN, [(F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2))]
    )
    assert [v.mass for v in cs.vertices] == [(F(0), F(1)), (F(1), F(0))]


def _mix(rng, points):
    weights = [rng.randint(1, 4) for _ in points]
    total = sum(weights)
    return tuple(
        sum((F(w, total) * p[j] for w, p in zip(weights, points)), F(0))
        for j in range(len(points[0]))
    )


def _cloud(rng, n, shape):
    """Points on the n-cell simplex.  ``simplex``: unit masses plus points
    on their edges, on their faces and inside; ``flat``: two or three
    random points and their mixtures, a cloud of lower dimension;
    ``all-extreme``: uniform masses on k-cell supports, vertices of a
    hypersimplex; ``mixed``: random points and mixtures of them."""
    if shape == "all-extreme":
        k = rng.randint(1, n - 1)
        supports = list(itertools.combinations(range(n), k))
        chosen = rng.sample(supports, rng.randint(1, min(len(supports), 8)))
        return [tuple(F(int(j in s), k) for j in range(n)) for s in chosen]
    if shape == "simplex":
        cells = rng.sample(range(n), rng.randint(2, n))
        base = [tuple(F(int(i == j)) for j in range(n)) for i in cells]
    else:
        size = rng.randint(2, 3) if shape == "flat" else rng.randint(1, 6)
        base = [rand_mass_row(rng, n) for _ in range(size)]
    cloud = list(base)
    for _ in range(rng.randint(1, 6)):
        k = rng.randint(2, 3) if rng.random() < 0.6 else len(base)
        cloud.append(_mix(rng, rng.sample(base, min(k, len(base)))))
    return cloud


def test_from_vertices_matches_leave_one_out_oracle(rng):
    shapes = ("mixed", "simplex", "flat", "all-extreme")
    counts = dict.fromkeys(("duplicates", "pruned", "all kept", "single"), 0)
    for t in range(240):
        n = rng.randint(2, 6)
        space = Space(tuple(f"w{i}" for i in range(n)), ("x",))
        cloud = _cloud(rng, n, shapes[t % len(shapes)])
        for _ in range(rng.randint(0, 2)):
            cloud.append(rng.choice(cloud))
        rng.shuffle(cloud)
        points = [
            LinearPrevision.of(space, m) if rng.random() < 0.3 else m for m in cloud
        ]
        expected = extreme_points_bruteforce(space, points)
        got = CredalSet.from_vertices(space, points)
        assert tuple(v.mass for v in got.vertices) == expected
        distinct = len(set(cloud))
        counts["duplicates"] += distinct < len(cloud)
        counts["pruned"] += len(expected) < distinct
        counts["all kept"] += len(expected) == distinct > 1
        counts["single"] += len(expected) == 1
    assert min(counts.values()) >= 10, counts


def _check_matrix(cs):
    """The vertex-matrix invariant of one credal set."""
    rows, den = cs.rows, cs.den
    assert math.gcd(den, *itertools.chain.from_iterable(rows)) == 1
    assert list(rows) == sorted(set(rows))
    assert all(sum(r) == den for r in rows)
    assert [v.mass for v in cs.vertices] == [tuple(F(x, den) for x in r) for r in rows]


def _same(a, b):
    return a == b and hash(a) == hash(b)


def test_vertex_matrix_is_unique_and_in_lowest_terms(rng):
    """Constraint-form sets, hulls of their vertices with interior and
    repeated points (tuples and previsions over mixed denominators), both
    marginals and strong products: every matrix keeps the invariant, and
    two builds of one polytope compare and hash equal."""
    counts = dict.fromkeys(("sets", "pruned", "den > 1", "product > 2"), 0)
    for _ in range(40):
        space = rand_space(rng, worst=False)
        cons = [rand_gamble(rng, space, max_den=6) for _ in range(rng.randint(0, 2))]
        try:
            h = CredalSet.from_constraints(space, cons)
        except ModelError:
            continue
        assert _same(h, CredalSet.from_constraints(space, list(cons)))
        masses = [v.mass for v in h.vertices]
        cloud = masses + [rng.choice(masses)]
        for _ in range(3):
            cloud.append(_mix(rng, rng.sample(masses, min(3, len(masses)))))
        rng.shuffle(cloud)
        points = [
            LinearPrevision.of(space, m) if rng.random() < 0.5 else m for m in cloud
        ]
        v = CredalSet.from_vertices(space, points)
        assert _same(v, CredalSet.from_vertices(space, masses))
        assert (v.rows, v.den) == (h.rows, h.den)
        of = omega_factor_space(space)
        m_omega = CredalSet.from_vertices(
            of, [rand_mass_row(rng, of.n_cells) for _ in range(rng.randint(1, 3))]
        )
        m_x = h.marginal_prizes()
        sp = strong_product(m_omega, m_x, space)
        products = [
            product_prevision(a, b, space)
            for a in m_omega.vertices
            for b in m_x.vertices
        ]
        assert _same(sp, CredalSet.from_vertices(space, products))
        assert _same(sp.marginal_omega(), m_omega)
        assert _same(sp.marginal_prizes(), m_x)
        for cs in (h, v, h.marginal_omega(), m_x, m_omega, sp):
            _check_matrix(cs)
            counts["den > 1"] += cs.den > 1
        counts["sets"] += 1
        counts["pruned"] += len(v.rows) < len(set(cloud))
        counts["product > 2"] += len(sp.rows) > 2
    assert min(counts.values()) >= 10, counts


def _rung2_joint():
    # the 3x3 set of the vertex-ladder's second rung: 73 vertices whose
    # state and prize projections take 60 and 56 distinct points
    space = Space(("s1", "s2", "s3"), ("x1", "x2", "x3"))
    rows = [
        [2, -1, 2, -3, -3, 2, 1, 2, 2],
        [0, 2, 2, 0, -1, 3, -3, 0, -1],
        [-2, 3, -1, 0, 1, 0, 3, 1, 0],
    ]
    cons = [g(space, [r[0:3], r[3:6], r[6:9]]) for r in rows]
    return CredalSet.from_constraints(space, cons)


def test_self_check_leaves_zero_and_repeated_rows_out_of_tight_sets(solved_lps):
    # A zero row, or a positive multiple of an earlier row, is no extra
    # tight row: the joint's self-check still solves its one fallback LP
    # (it solved 7, 7 and 11 when such rows made every vertex degenerate).
    # A negative multiple turns the row into an equality and stays.
    joint = _rung2_joint()
    space, cons = joint.space, list(joint.constraints)
    first = cons[0]
    for extra in ([], [first], [first.scale(2)], [Gamble.zero(space)]):
        solved_lps.clear()
        cs = CredalSet.from_constraints(space, cons + extra)
        assert cs.vertices == joint.vertices
        assert len(lps_in(solved_lps, "credal")) == 1
    equality = CredalSet.from_constraints(space, cons + [first.scale(-1)])
    assert all(v(first) == 0 for v in equality.vertices)


def test_hull_pruning_lp_count_and_width(solved_lps):
    # each marginal prunes >= 30 distinct projected points to <= 4 vertices;
    # a hull LP has at most one column per kept vertex, and there are at
    # most (distinct points + kept vertices) of them
    joint = _rung2_joint()
    masses = [v.mass for v in joint.vertices]
    by_state = {(sum(m[0:3]), sum(m[3:6]), sum(m[6:9])) for m in masses}
    by_prize = {(sum(m[0::3]), sum(m[1::3]), sum(m[2::3])) for m in masses}
    marginals = []
    for build, distinct in (
        (joint.marginal_omega, len(by_state)),
        (joint.marginal_prizes, len(by_prize)),
    ):
        solved_lps.clear()
        marginal = build()
        widths = [len(p.objective) for p in lps_in(solved_lps, "credal")]
        kept = len(marginal.vertices)
        assert distinct >= 30 and kept <= 4
        assert widths and max(widths) <= kept
        assert len(widths) <= distinct + kept
        marginals.append(marginal)
    solved_lps.clear()
    sp = strong_product(*marginals, joint.space)
    widths = [len(p.objective) for p in lps_in(solved_lps, "credal")]
    assert widths == []
    assert len(sp.vertices) == len(marginals[0].vertices) * len(marginals[1].vertices)


def test_from_vertices_rejects_a_vertex_on_another_space():
    foreign = LinearPrevision.of(TRI, (1, 0, 0))
    for masses in ([(F(1, 2), F(1, 2)), foreign], [foreign, (F(1, 2), F(1, 2))]):
        with pytest.raises(InputError, match="vertex on the wrong space"):
            CredalSet.from_vertices(COIN, masses)


def test_minimizer_breaks_ties_to_the_smallest_mass():
    cs = CredalSet.from_constraints(TRI, ())
    f = g(TRI, [[1], [0], [0]])
    assert cs.minimizer(f).mass == (F(0), F(0), F(1))
    assert cs.minimizer(-f).mass == (F(1), F(0), F(0))


def _scan_case(rng, t):
    """A credal set with vertex masses over mixed denominators: constraint
    form on even t (None when the constraints leave nothing), vertex form
    on odd t, unit masses mixed in so events of zero probability occur."""
    space = rand_space(rng, max_states=3, max_prizes=3, worst=False)
    if t % 2 == 0:
        cons = [rand_gamble(rng, space, max_den=6) for _ in range(rng.randint(0, 2))]
        try:
            return CredalSet.from_constraints(space, cons)
        except ModelError:
            return None
    n = space.n_cells
    points = [rand_mass_row(rng, n) for _ in range(rng.randint(1, 6))]
    for k in rng.sample(range(n), rng.randint(0, min(n, 2))):
        points.append(tuple(F(int(j == k)) for j in range(n)))
    return CredalSet.from_vertices(space, points)


def _scan_gamble(rng, space):
    """A random gamble, or one over a small alphabet so that minima tie."""
    if rng.random() < 0.5:
        return rand_gamble(rng, space, max_den=6)
    alphabet = (F(0), F(1), F(-1), F(1, 2))
    rows = [[rng.choice(alphabet) for _ in space.prizes] for _ in space.omega]
    return Gamble.of(space, rows)


def _big_projections(rng, count):
    """``count`` credal projections of fg sets with 4-5 integer generators
    on 3 x 3 or 4 x 3 cells whose common denominator passes 2**64, though
    each vertex's own denominator is small: the sparse scan's lowest terms."""
    while count:
        space = rand_space(rng, max_states=4, max_prizes=3, worst=False)
        if space.n_states < 3 or space.n_prizes < 3:
            continue
        gens = [rand_gamble(rng, space, max_den=1) for _ in range(rng.randint(4, 5))]
        try:
            cs = DesirSet.from_generators(space, gens).credal_projection()
        except ModelError:
            continue
        if cs.den > 2**64:
            count -= 1
            yield cs


def test_integer_scans_match_the_fraction_oracle(rng):
    counts = dict.fromkeys(("h-form", "v-form", "tied", "bayes", "none"), 0)
    big = dict.fromkeys(("sets", "tied"), 0)
    cases = itertools.chain(
        (_scan_case(rng, t) for t in range(200)), _big_projections(rng, 10)
    )
    for cs in cases:
        if cs is None:
            continue
        space = cs.space
        counts["h-form" if cs.constraints is not None else "v-form"] += 1
        large = cs.den > 2**64
        big["sets"] += large
        cells = space.cells()
        for _ in range(3):
            f = _scan_gamble(rng, space)
            for got, want in (
                (cs.lower(f), lower_scan(cs, f)),
                (cs.upper(f), upper_scan(cs, f)),
            ):
                assert type(got) is F and got == want
            assert cs.minimizer(f) == minimizer_scan(cs, f)
            lo = lower_scan(cs, f)
            tied = sum(v(f) == lo for v in cs.vertices) > 1
            counts["tied"] += tied
            big["tied"] += large and tied
            picked = rng.sample(cells, rng.randint(1, len(cells)))
            event = EventSet(space, tuple(picked))
            got = cs.lower_probability(event)
            assert type(got) is F and got == lower_probability_scan(cs, event)
            got = cs.generalized_bayes(f, event)
            want = generalized_bayes_scan(cs, f, event)
            assert got == want and (want is None or type(got) is F)
            counts["none" if want is None else "bayes"] += 1
            states = rng.sample(space.omega, rng.randint(1, space.n_states))
            cylinder = EventSet.from_states(space, states)
            got = cs.conditional_natural_extension(f, cylinder)
            assert got == conditional_natural_extension_scan(cs, f, cylinder)
    assert min(counts.values()) >= 40, counts
    assert big["sets"] >= 10 and big["tied"] >= 5, big


def test_scans_reject_gambles_and_events_on_another_space():
    cs = CredalSet.from_vertices(COIN, [(F(1, 3), F(2, 3)), (F(1), F(0))])
    other = Space(("h", "u"), ("x",))  # same shape, another space
    f = Gamble.of(other, [[1], [-1]])
    event = EventSet.from_states(other, ["h"])
    mine = EventSet.from_states(COIN, ["h"])
    gamble_msg = "gamble and prevision live on different spaces"
    event_msg = "event and prevision live on different spaces"
    for call in (cs.lower, cs.upper, cs.minimizer):
        with pytest.raises(InputError, match=gamble_msg):
            call(f)
    with pytest.raises(InputError, match=gamble_msg):
        cs.generalized_bayes(f, mine)
    with pytest.raises(InputError, match=event_msg):
        cs.lower_probability(event)
    with pytest.raises(InputError, match=event_msg):
        cs.generalized_bayes(mine.indicator(), event)
    with pytest.raises(InputError, match="gamble on the wrong space"):
        cs.conditional_natural_extension(f, mine)
    with pytest.raises(InputError, match="event on the wrong space"):
        cs.conditional_natural_extension(mine.indicator(), event)


def test_contains_h_and_v_form():
    h = CredalSet.from_constraints(COIN, (g(COIN, [[1], [-1]]),))
    v = CredalSet.from_vertices(COIN, [(F(1, 2), F(1, 2)), (F(1), F(0))])
    for p in (
        LinearPrevision.of(COIN, (F(3, 4), F(1, 4))),
        LinearPrevision.of(COIN, (F(1, 2), F(1, 2))),
    ):
        assert h.contains(p) and v.contains(p)
    outside = LinearPrevision.of(COIN, (F(1, 4), F(3, 4)))
    assert not h.contains(outside) and not v.contains(outside)


def test_lower_is_envelope(rng):
    for _ in range(20):
        space = rand_space(rng, worst=False)
        cons = []
        for _ in range(rng.randint(0, 2)):
            cand = rand_gamble(rng, space)
            cons.append(cand)
        try:
            cs = CredalSet.from_constraints(space, tuple(cons))
        except ModelError:
            continue
        f = rand_gamble(rng, space)
        lo = cs.lower(f)
        assert all(v(f) >= lo for v in cs.vertices)
        assert cs.lower(f) == -cs.upper(-f.scale(1))  # conjugacy on the nose


def test_conditional_natural_extension_vacuous_branch():
    cs = CredalSet.from_constraints(
        COIN, (g(COIN, [[1], [0]]),)
    )  # all p, P(h) >= 0 vacuous
    b = EventSet.from_states(COIN, ["h"])
    f = g(COIN, [[5], [-7]])
    # lower probability of {h} is 0, so the extension is vacuous on it
    assert cs.lower_probability(b) == 0
    assert cs.conditional_natural_extension(f, b) == 5


def test_conditional_natural_extension_three_vertex():
    # {p_i >= 1/4}: vertices (1/2,1/4,1/4),(1/4,1/2,1/4),(1/4,1/4,1/2);
    # min of p_a/(p_a+p_b) over them is 1/3, by hand.
    cons = tuple(
        Gamble.of(TRI, [[1 if i == k else 0] for i in range(3)])
        - Gamble.constant(TRI, F(1, 4))
        for k in range(3)
    )
    cs = CredalSet.from_constraints(TRI, cons)
    assert sorted(v.mass for v in cs.vertices) == [
        (F(1, 4), F(1, 4), F(1, 2)),
        (F(1, 4), F(1, 2), F(1, 4)),
        (F(1, 2), F(1, 4), F(1, 4)),
    ]
    f = g(TRI, [[1], [0], [0]])
    b = EventSet.from_states(TRI, ["a", "b"])
    assert cs.conditional_natural_extension(f, b) == F(1, 3)


def test_conditional_natural_extension_indicator():
    cs = CredalSet.from_vertices(COIN, [(F(1, 2), F(1, 2))])
    b = EventSet.from_states(COIN, ["h"])
    assert cs.conditional_natural_extension(b.indicator(), b) == 1


def test_conditional_rejects_non_cylinder():
    space = Space(("h", "t"), ("x0", "x1"))
    cs = CredalSet.from_vertices(space, [(F(1, 4),) * 4])
    with pytest.raises(InputError):
        cs.conditional_natural_extension(
            Gamble.zero(space), EventSet(space, ((0, 0),))
        )


def test_marginals_project_vertices():
    space = Space(("h", "t"), ("x0", "x1"))
    cs = CredalSet.from_vertices(
        space,
        [
            (F(1, 2), F(0), F(1, 2), F(0)),
            (F(0), F(1, 2), F(0), F(1, 2)),
        ],
    )
    mo = cs.marginal_omega()
    assert mo.space == omega_factor_space(space)
    assert [v.mass for v in mo.vertices] == [(F(1, 2), F(1, 2))]
    assert mo.is_linear()
    mx = cs.marginal_prizes()
    assert sorted(v.mass for v in mx.vertices) == [(F(0), F(1)), (F(1), F(0))]
    assert not mx.is_linear()


def _projected_hull(cs, axis):
    """``CredalSet.from_vertices`` on the Fraction projections of every
    vertex, state by state or prize by prize."""
    space, m = cs.space, cs.space.n_prizes
    if axis == "omega":
        starts = range(0, space.n_cells, m)
        masses = [[sum(v.mass[i : i + m], F(0)) for i in starts] for v in cs.vertices]
        return CredalSet.from_vertices(omega_factor_space(space), masses)
    masses = [[sum(v.mass[j::m], F(0)) for j in range(m)] for v in cs.vertices]
    return CredalSet.from_vertices(prizes_factor_space(space), masses)


def test_integer_marginals_match_the_fraction_projections(solved_lps):
    """Both marginals, built from integer column sums, equal the hull of
    the Fraction projections (the same rows and den) and solve the same
    hull LPs: seeded H-form and V-form sets and strong products on at most
    3x3 cells, and the three committed vertex-ladder joints."""
    rng = random.Random(1994)
    sets = []
    for t in range(66):
        space = rand_space(rng, worst=False)
        if t % 3 == 0:
            cons = [rand_gamble(rng, space) for _ in range(rng.randint(0, 3))]
            try:
                sets.append(CredalSet.from_constraints(space, cons))
            except ModelError:
                pass
            continue
        points = [rand_mass_row(rng, space.n_cells) for _ in range(rng.randint(1, 6))]
        if t % 3 == 1:
            sets.append(CredalSet.from_vertices(space, points))
            continue
        of, pf = omega_factor_space(space), prizes_factor_space(space)
        m_omega, m_x = (
            CredalSet.from_vertices(
                f, [rand_mass_row(rng, f.n_cells) for _ in range(2)]
            )
            for f in (of, pf)
        )
        sets.append(strong_product(m_omega, m_x, space))
    for path in sorted(LADDER.glob("*.doc.txt")):
        sets.append(parse_document(path.read_text()).credals["J"])
    counts = dict.fromkeys(("sets", "H-form", "LPs", "den shrinks", "pruned"), 0)
    for cs in sets:
        for axis in ("omega", "prizes"):
            solved_lps.clear()
            got = cs.marginal_omega() if axis == "omega" else cs.marginal_prizes()
            kernel = lps_in(solved_lps, "credal")
            solved_lps.clear()
            want = _projected_hull(cs, axis)
            assert (got.space, got.rows, got.den) == (want.space, want.rows, want.den)
            assert kernel == lps_in(solved_lps, "credal")
            counts["LPs"] += len(kernel)
            counts["den shrinks"] += got.den < cs.den
            counts["pruned"] += len(got.rows) < len(cs.rows)
        counts["sets"] += 1
        counts["H-form"] += cs.constraints is not None
    assert counts["sets"] >= 50 + 3 and min(counts.values()) >= 15, counts
    # the integer core checks its rows, as the boundary checks masses
    for rows, den in (([[1, 2]], 2), ([[3, -1]], 2), ([[1]], 1)):
        with pytest.raises(InternalError):
            CredalSet.from_vertices(COIN, rows, den)


def test_point_credal_is_linear():
    assert CredalSet.point(COIN, (F(1, 2), F(1, 2))).is_linear()
