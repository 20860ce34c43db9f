import operator
from fractions import Fraction as F

import pytest

from desir.errors import InputError
from desir.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LpProblem,
    rat,
    solve,
)

from conftest import rand_rat
from oracles import BoundedLp, solve_reference, verify_farkas


def test_single_bound():
    out = solve(LpProblem.build([1], "max", [([1], LE, 3)]))
    assert out.status == OPTIMAL
    assert out.optimum == 3
    assert out.witness == (F(3),)


def test_simplex_face():
    out = solve(LpProblem.build([1, 1], "max", [([1, 1], LE, 1)]))
    assert out.status == OPTIMAL
    assert out.optimum == 1


def test_mixture_equation():
    # lam*(1,-1) + (1-lam)*(-1,1) = 0 over the simplex; by hand the two
    # cell equations both read 2*lam - 1 = 0, so lam = 1/2.
    prob = LpProblem.build(
        [0, 0],
        "max",
        [
            ([1, 1], EQ, 1),
            ([1, -1], EQ, 0),
            ([-1, 1], EQ, 0),
        ],
    )
    out = solve(prob)
    assert out.status == OPTIMAL
    assert out.optimum == 0
    assert out.witness == (F(1, 2), F(1, 2))


def test_infeasible_with_certificate():
    prob = LpProblem.build([0], "max", [([1], GE, 2), ([1], LE, 1)])
    out = solve(prob)
    assert out.status == INFEASIBLE
    assert out.farkas is not None
    assert verify_farkas(prob, out.farkas)
    # x >= -1 is feasible; its internal row -x <= 1 has y = 1 with y.A <= 0
    # on x and y.b > 0, and only its slack's column rules that y out
    assert not verify_farkas(LpProblem.build([0], "max", [([1], GE, -1)]), (F(1),))


def test_unbounded():
    out = solve(LpProblem.build([1], "max", [([-1], LE, 0)]))
    assert out.status == UNBOUNDED


def test_free_variables_and_shifts():
    # max x + y, x free, y in [-2, 5], x + y <= 1
    prob = BoundedLp.build(
        [1, 1],
        "max",
        [([1, 1], LE, 1), ([1, 0], LE, 10)],
        bounds=[(None, None), (-2, 5)],
    )
    out = prob.solve()
    assert out.status == OPTIMAL
    assert out.optimum == 1


def test_negative_lower_bound_only():
    prob = BoundedLp.build([1], "min", [([1], GE, -3)], bounds=[(None, None)])
    out = prob.solve()
    assert out.status == OPTIMAL
    assert out.optimum == -3


def test_empty_objective_is_zero():
    out = solve(LpProblem.build([0, 0], "min", [([1, 1], GE, 1)]))
    assert out.status == OPTIMAL
    assert out.optimum == 0


def test_zero_dimension():
    out = solve(LpProblem.build([], "max", []))
    assert out.status == OPTIMAL
    assert out.optimum == 0
    assert out.witness == ()


@pytest.mark.parametrize(
    "objective, sense, bounds, status, optimum, witness",
    [
        ([1], "min", [(F(-3, 2), None)], OPTIMAL, F(-3, 2), (F(-3, 2),)),
        ([0, 1], "min", [(None, None), (0, None)], OPTIMAL, 0, (F(0), F(0))),
        ([2], "min", [(None, None)], UNBOUNDED, None, None),
        ([1], "max", [(F(-1), None)], UNBOUNDED, None, None),
    ],
)
def test_bounds_only(objective, sense, bounds, status, optimum, witness):
    out = BoundedLp.build(objective, sense, [], bounds).solve()
    assert (out.status, out.optimum, out.witness) == (status, optimum, witness)


def test_rejects_floats():
    with pytest.raises(InputError):
        rat(0.5)
    # ints and Fractions are stored as given; a float anywhere still raises
    for objective, constraints in (
        ([1], [([0.5], LE, 1)]),
        ([1], [([1], LE, 0.5)]),
        ([0.5], [([1], LE, 1)]),
    ):
        with pytest.raises(InputError):
            LpProblem.build(objective, "max", constraints)


def test_dimension_mismatch():
    with pytest.raises(InputError):
        LpProblem.build([1, 2], "max", [([1], LE, 1)])


def _random_bounded_problem(rng, n, m):
    cons = []
    for _ in range(m):
        coeffs = [rand_rat(rng) for _ in range(n)]
        rhs = rand_rat(rng, lo=0, hi=6)
        cons.append((coeffs, LE, rhs))
    # box keeps everything bounded and feasible (origin is feasible when
    # all rhs >= 0, which the generator guarantees)
    bounds = [(0, F(5)) for _ in range(n)]
    obj = [rand_rat(rng) for _ in range(n)]
    return BoundedLp.build(obj, "max", cons, bounds)


def test_witness_satisfies_exactly(rng):
    for _ in range(40):
        prob = _random_bounded_problem(rng, rng.randint(1, 5), rng.randint(1, 5))
        out = prob.solve()
        assert out.status == OPTIMAL
        assert prob.verify_witness(out.witness)
        got = sum(c * x for c, x in zip(prob.original.objective, out.witness))
        assert got == out.optimum


def test_strong_duality_spot_check(rng):
    # Primal: max c.x st Ax <= b, 0 <= x <= u.
    # Dual:   min b.y + u.w st A^T y + w >= c, y,w >= 0.
    for _ in range(25):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        a = [[rand_rat(rng) for _ in range(n)] for _ in range(m)]
        b = [rand_rat(rng, lo=0, hi=6) for _ in range(m)]
        u = [F(rng.randint(1, 5)) for _ in range(n)]
        c = [rand_rat(rng) for _ in range(n)]
        primal = BoundedLp.build(
            c, "max", [(a[i], LE, b[i]) for i in range(m)], [(0, u[j]) for j in range(n)]
        )
        dual_obj = b + u
        dual_cons = []
        for j in range(n):
            row = [a[i][j] for i in range(m)] + [
                F(1) if k == j else F(0) for k in range(n)
            ]
            dual_cons.append((row, GE, c[j]))
        dual = LpProblem.build(dual_obj, "min", dual_cons)
        p = primal.solve()
        d = solve(dual)
        assert p.status == OPTIMAL and d.status == OPTIMAL
        assert p.optimum == d.optimum


def test_determinism(rng):
    for _ in range(10):
        prob = _random_bounded_problem(rng, 4, 4).problem
        assert solve(prob) == solve(prob)


def _brute_force_optimum(prob):
    """Enumerate the basic points of the constraint system exactly."""
    import itertools

    n = len(prob.original.objective)
    rows = [(list(c.coeffs), c.relation, c.rhs) for c in prob.original.constraints]
    for j, (lo, hi) in enumerate(prob.bounds):
        unit = [F(0)] * n
        unit[j] = F(1)
        if lo is not None:
            rows.append((unit, GE, lo))
        if hi is not None:
            rows.append((unit, LE, hi))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        m = [rows[k][0][:] + [rows[k][2]] for k in combo]
        ok = True
        for c in range(n):
            p = next((i for i in range(c, n) if m[i][c] != 0), None)
            if p is None:
                ok = False
                break
            m[c], m[p] = m[p], m[c]
            inv = m[c][c]
            m[c] = [v / inv for v in m[c]]
            for i in range(n):
                if i != c and m[i][c]:
                    f2 = m[i][c]
                    m[i] = [v - f2 * w for v, w in zip(m[i], m[c])]
        if not ok:
            continue
        x = [m[i][n] for i in range(n)]
        feasible = True
        for coeffs, rel, rhs in rows:
            lhs = sum(a * v for a, v in zip(coeffs, x))
            if (
                (rel == LE and lhs > rhs)
                or (rel == GE and lhs < rhs)
                or (rel == EQ and lhs != rhs)
            ):
                feasible = False
                break
        if not feasible:
            continue
        val = sum(c * v for c, v in zip(prob.original.objective, x))
        maximise = prob.original.sense == "max"
        if best is None or (val > best if maximise else val < best):
            best = val
    return best


def test_against_bruteforce_vertices(rng):
    done = 0
    while done < 60:
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        cons = []
        for _ in range(m):
            rel = rng.choice([LE, GE, EQ])
            cons.append(([rand_rat(rng) for _ in range(n)], rel, rand_rat(rng)))
        bounds = [(rng.choice([F(0), F(-1), F(-1, 2)]), F(3)) for _ in range(n)]
        prob = BoundedLp.build(
            [rand_rat(rng) for _ in range(n)],
            rng.choice(["max", "min"]),
            cons,
            bounds,
        )
        out = prob.solve()
        brute = _brute_force_optimum(prob)
        done += 1
        if out.status == OPTIMAL:
            assert brute == out.optimum
            assert prob.verify_witness(out.witness)
        elif out.status == INFEASIBLE:
            assert brute is None
            assert verify_farkas(prob.problem, out.farkas)


def test_infeasible_random_certificates(rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        coeffs = [F(rng.randint(1, 3)) for _ in range(n)]
        # sum of nonnegative terms forced both >= 2 and <= 1
        prob = LpProblem.build(
            [0] * n,
            "min",
            [(coeffs, GE, 2), (coeffs, LE, 1)],
        )
        out = solve(prob)
        assert out.status == INFEASIBLE
        assert verify_farkas(prob, out.farkas)


def _random_bounds(rng, n):
    """Default, free, shifted, upper-only and boxed variables."""
    bounds = []
    for _ in range(n):
        kind = rng.randrange(5)
        if kind == 0:
            bounds.append((F(0), None))
        elif kind == 1:
            bounds.append((None, None))
        elif kind == 2:
            bounds.append((rand_rat(rng, lo=-4, hi=-1), None))
        elif kind == 3:
            bounds.append((None, rand_rat(rng)))
        else:
            lo = rand_rat(rng)
            bounds.append((lo, lo + rand_rat(rng, lo=0, hi=4)))
    return bounds


def _random_general_problem(rng):
    """n, m in 0..5, every bound shape of :func:`_random_bounds`."""
    n, m = rng.randint(0, 5), rng.randint(0, 5)
    bounds = _random_bounds(rng, n)
    cons = [
        (
            [rand_rat(rng) if rng.random() < 0.8 else F(0) for _ in range(n)],
            rng.choice([LE, GE, EQ]),
            rand_rat(rng),
        )
        for _ in range(m)
    ]
    return BoundedLp.build(
        [rand_rat(rng) for _ in range(n)], rng.choice(["max", "min"]), cons, bounds
    )


# sha256 of the outcomes' reprs in the battery below, recorded before the
# integer standard-form rewrite of the solver; any change to a pivot path,
# witness, optimum or Farkas vector shows up here.
_BATTERY_DIGEST = (
    "a7dfe6e233d47d5a9f56bc540f70e8ba43abd67b171722744b7ca8d455744739"
)


def test_random_battery_certificates_and_pinned_outcomes():
    import hashlib
    import random

    rng = random.Random(5150)
    reprs = []
    statuses = set()
    for _ in range(300):
        prob = _random_general_problem(rng)
        out = prob.solve()
        statuses.add(out.status)
        if out.status == OPTIMAL:
            assert prob.verify_witness(out.witness)
            got = sum(map(operator.mul, prob.original.objective, out.witness), F(0))
            assert got == out.optimum
        elif out.status == INFEASIBLE:
            assert verify_farkas(prob.problem, out.farkas)
        reprs.append(repr(out))
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == _BATTERY_DIGEST


def _random_sparse_problem(rng):
    """n, m in 1..14, each coefficient nonzero with one probability drawn
    in 0.1..0.7, so a row often skips several pivots.  Half the systems are
    feasible by construction, at a point of the box."""
    n, m = rng.randint(1, 14), rng.randint(1, 14)
    density = rng.uniform(0.1, 0.7)
    bounds = _random_bounds(rng, n)
    point = None
    if rng.random() < 0.5:
        point = [
            lo if lo is not None else hi if hi is not None else rand_rat(rng)
            for lo, hi in bounds
        ]
    cons = []
    for _ in range(m):
        coeffs = [rand_rat(rng) if rng.random() < density else F(0) for _ in range(n)]
        rel = rng.choice([LE, GE, EQ])
        if point is None:
            rhs = rand_rat(rng)
        else:
            slack = {LE: 1, GE: -1, EQ: 0}[rel] * rand_rat(rng, lo=0, hi=2)
            rhs = sum((a * x for a, x in zip(coeffs, point)), slack)
        cons.append((coeffs, rel, rhs))
    objective = [rand_rat(rng) if rng.random() < density else F(0) for _ in range(n)]
    return BoundedLp.build(objective, rng.choice(["max", "min"]), cons, bounds)


def test_sparse_battery_matches_reference_simplex():
    import random

    rng = random.Random(1968)
    counts = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(1000):
        prob = _random_sparse_problem(rng)
        out = prob.solve()
        assert out == prob.solve(solve_reference)
        counts[out.status] += 1
        if out.status == OPTIMAL:
            assert prob.verify_witness(out.witness)
            got = sum(map(operator.mul, prob.original.objective, out.witness), F(0))
            assert got == out.optimum
        elif out.status == INFEASIBLE:
            assert verify_farkas(prob.problem, out.farkas)
    assert min(counts.values()) >= 100, counts


def test_only_equality_rows_keep_an_artificial(monkeypatch):
    """Each inequality row's Farkas multiplier is read at its slack, so its
    artificial column goes the first time it leaves the basis; only an
    ``=`` row keeps one.  Every pivot gets exactly that drop set."""
    import random

    import desir.lp

    drops = []
    kernel_pivot = desir.lp._pivot

    def recording(rows, dens, labels, basis, r, c, d, drop):
        drops.append(drop)
        return kernel_pivot(rows, dens, labels, basis, r, c, d, drop)

    monkeypatch.setattr(desir.lp, "_pivot", recording)
    rng = random.Random(2402)
    pivoted = 0
    for _ in range(200):
        prob = _random_sparse_problem(rng).problem
        drops.clear()
        solve(prob)
        rows = prob.constraints
        art0 = len(prob.objective) + sum(c.relation != EQ for c in rows)
        expected = {art0 + i for i, c in enumerate(rows) if c.relation != EQ}
        assert all(drop == expected for drop in drops)
        pivoted += bool(expected and drops)
    assert pivoted >= 100

def _integer_lp_case(rng, t):
    """(objective, sense, constraints, bounds) with integer data only, by
    t: a hull LP (is a target a convex combination of integer points?), a
    cone LP, or a general problem with every bound shape."""
    kind = t % 3
    if kind < 2:
        n, k = rng.randint(1, 5), rng.randint(1, 6)
        points = [[rng.randint(0, 6) for _ in range(n)] for _ in range(k)]
        if kind == 0:
            # the points times W and a mixture with weights w over W: the
            # data stay integral, and half the targets are feasible
            weights = [rng.randint(0, 3) for _ in points]
            weights[0] += not any(weights)
            total = sum(weights)
            if rng.random() < 0.5:
                target = [sum(map(operator.mul, weights, col)) for col in zip(*points)]
            else:
                target = [rng.randint(0, 6 * total) for _ in range(n)]
            points = [[total * x for x in p] for p in points]
        else:
            target = [rng.randint(-6, 6) for _ in range(n)]
        rel = EQ if kind == 0 else LE
        cons = [(list(col), rel, b) for col, b in zip(zip(*points), target)]
        if kind == 0:
            cons.append(([1] * k, EQ, 1))
        cone = LpProblem.cone(points, rel, target, convex=kind == 0)
        assert cone == LpProblem.build([0] * k, "max", cons)
        return [0] * k, "max", cons, None
    n, m = rng.randint(0, 5), rng.randint(0, 5)
    bounds = []
    for _ in range(n):
        lo = rng.choice([0, None, rng.randint(-4, -1), rng.randint(1, 3)])
        hi = rng.choice([None, rng.randint(-2, 5)])
        if lo is not None and hi is not None:
            hi = lo + rng.randint(0, 4)
        bounds.append((lo, hi))
    cons = [
        (
            [rng.randint(-4, 4) for _ in range(n)],
            rng.choice([LE, GE, EQ]),
            rng.randint(-5, 5),
        )
        for _ in range(m)
    ]
    objective = [rng.randint(-4, 4) for _ in range(n)]
    return objective, rng.choice(["max", "min"]), cons, bounds


def _in_fractions(objective, sense, cons, bounds):
    """The same problem data with every number a Fraction."""

    def frac(v):
        return None if v is None else F(v)

    return (
        [F(c) for c in objective],
        sense,
        [([F(a) for a in row], rel, F(b)) for row, rel, b in cons],
        None if bounds is None else [(frac(lo), frac(hi)) for lo, hi in bounds],
    )


def test_integer_and_fraction_data_solve_alike():
    """An LP built from ints keeps them, and solves to the very outcome
    (status, witness, optimum, Farkas vector, reprs included) of the same
    LP built from Fractions: hull and cone LPs on random integer points,
    and general problems with integer data and every bound shape."""
    import random

    rng = random.Random(2207)
    seen = set()
    for t in range(300):
        objective, sense, cons, bounds = _integer_lp_case(rng, t)
        ints = BoundedLp.build(objective, sense, cons, bounds)
        kernel = ints.problem
        stored = [*kernel.objective, *(a for c in kernel.constraints for a in c.coeffs)]
        stored += [c.rhs for c in kernel.constraints]
        assert all(type(v) is int for v in stored)
        fracs = BoundedLp.build(*_in_fractions(objective, sense, cons, bounds))
        out = ints.solve()
        assert repr(out) == repr(fracs.solve())
        seen.add((t % 3, out.status))
    assert seen >= {(0, OPTIMAL), (0, INFEASIBLE), (1, OPTIMAL), (1, INFEASIBLE)}
    assert {(2, OPTIMAL), (2, INFEASIBLE), (2, UNBOUNDED)} <= seen


@pytest.fixture
def pivots(monkeypatch):
    """Lists of the (row, entering variable) of every pivot the kernel and
    the reference simplex make from here on."""
    import desir.lp
    import oracles

    kernel, reference = [], []
    kernel_pivot, reference_pivot = desir.lp._pivot, oracles._Tableau.pivot

    def in_kernel(rows, dens, labels, basis, r, c, *rest):
        kernel.append((r, labels[c]))
        return kernel_pivot(rows, dens, labels, basis, r, c, *rest)

    def in_reference(tab, r, c):
        reference.append((r, c))
        return reference_pivot(tab, r, c)

    monkeypatch.setattr(desir.lp, "_pivot", in_kernel)
    monkeypatch.setattr(oracles._Tableau, "pivot", in_reference)
    return kernel, reference


def _check_against_reference(prob, pivots):
    """The kernel makes the full-tableau reference simplex's pivots and
    reaches its outcome, reprs included, and the certificate replays;
    returns the outcome."""
    for made in pivots:
        made.clear()
    out, expected = prob.solve(), prob.solve(solve_reference)
    assert pivots[0] == pivots[1]
    assert (out, repr(out)) == (expected, repr(expected))
    if out.status == OPTIMAL:
        assert prob.verify_witness(out.witness)
        got = sum(map(operator.mul, prob.original.objective, out.witness), F(0))
        assert got == out.optimum
    elif out.status == INFEASIBLE:
        assert verify_farkas(prob.problem, out.farkas)
    return out


def _finite_upper_bounds(rng, n, empty=True):
    """A finite upper bound on every variable; lower bounds 0, shifted or
    none; with ``empty``, a box may be empty."""
    bounds = []
    for _ in range(n):
        lo = rng.choice([F(0), rand_rat(rng, lo=-3, hi=1), None])
        base = F(0) if lo is None else lo
        bounds.append((lo, base + rand_rat(rng, lo=-1 if empty else 0, hi=4)))
    return bounds


def test_infeasible_mixed_rows_read_every_farkas_case(pivots):
    """300 infeasible problems mixing <=, >= and = rows (some of them
    flipped by a negative right-hand side) with a finite upper bound on
    every variable: the Farkas vector reads slack rows (slack basic or
    not) and = rows (artificial basic or not) alike."""
    import random

    rng = random.Random(2400)
    found = tried = 0
    while found < 300:
        tried += 1
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        cons = [
            (
                [rand_rat(rng) if rng.random() < 0.7 else F(0) for _ in range(n)],
                rng.choice([LE, GE, EQ]),
                rand_rat(rng),
            )
            for _ in range(m)
        ]
        prob = BoundedLp.build(
            [rand_rat(rng) for _ in range(n)],
            rng.choice(["max", "min"]),
            cons,
            _finite_upper_bounds(rng, n),
        )
        found += _check_against_reference(prob, pivots).status == INFEASIBLE
    assert tried < 3 * found


def test_redundant_equalities_keep_an_artificial_into_phase_2(pivots):
    """60 feasible problems whose = rows include combinations of the others,
    with a nonzero objective: phase 1 ends with artificials basic at zero,
    and drive-out either pivots each out on its smallest real column or
    leaves an all-zero row, before phase 2."""
    import random

    rng = random.Random(2401)
    statuses = []
    for _ in range(60):
        n = rng.randint(2, 5)
        bounds = _finite_upper_bounds(rng, n, empty=False)
        # a point of the box: each variable at its upper bound, its lower
        # bound or halfway
        point = [
            hi if lo is None else lo + rng.choice([0, 1]) * (hi - lo) / 2
            for lo, hi in bounds
        ]
        base = [
            [F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, 3))
        ]
        rows = list(base)
        for _ in range(rng.randint(1, 3)):
            weights = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in base]
            rows.append([sum(map(operator.mul, weights, col)) for col in zip(*base)])
        cons = [(row, EQ, sum(a * x for a, x in zip(row, point))) for row in rows]
        for _ in range(rng.randint(0, 2)):
            row = [F(rng.randint(-2, 2)) for _ in range(n)]
            lhs = sum(a * x for a, x in zip(row, point))
            rel = rng.choice([LE, GE])
            slack = rng.randint(0, 1)
            cons.append((row, rel, lhs + slack if rel == LE else lhs - slack))
        rng.shuffle(cons)
        objective = [F(rng.randint(-2, 2)) for _ in range(n)]
        objective[rng.randrange(n)] += 3
        prob = BoundedLp.build(objective, rng.choice(["max", "min"]), cons, bounds)
        statuses.append(_check_against_reference(prob, pivots).status)
    assert INFEASIBLE not in statuses and OPTIMAL in statuses
