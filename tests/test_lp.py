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
    verify_farkas,
    verify_witness,
)

from conftest import rand_rat
from oracles import solve_reference


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


def test_unbounded():
    out = solve(LpProblem.build([1], "max", [([-1], LE, 0)]))
    assert out.status == UNBOUNDED


def test_free_variables_and_shifts():
    # max x + y, x free, y in [-2, 5], x + y <= 1
    prob = LpProblem.build(
        [1, 1],
        "max",
        [([1, 1], LE, 1), ([1, 0], LE, 10)],
        bounds=[(None, None), (-2, 5)],
    )
    out = solve(prob)
    assert out.status == OPTIMAL
    assert out.optimum == 1


def test_negative_lower_bound_only():
    prob = LpProblem.build([1], "min", [([1], GE, -3)], bounds=[(None, None)])
    out = solve(prob)
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
    out = solve(LpProblem.build(objective, sense, [], bounds))
    assert (out.status, out.optimum, out.witness) == (status, optimum, witness)


def test_rejects_floats():
    with pytest.raises(InputError):
        rat(0.5)


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
    return LpProblem.build(obj, "max", cons, bounds)


def test_witness_satisfies_exactly(rng):
    for _ in range(40):
        prob = _random_bounded_problem(rng, rng.randint(1, 5), rng.randint(1, 5))
        out = solve(prob)
        assert out.status == OPTIMAL
        assert verify_witness(prob, out.witness)
        got = sum(c * x for c, x in zip(prob.objective, out.witness))
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
        primal = LpProblem.build(
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
        p = solve(primal)
        d = solve(dual)
        assert p.status == OPTIMAL and d.status == OPTIMAL
        assert p.optimum == d.optimum


def test_determinism(rng):
    for _ in range(10):
        prob = _random_bounded_problem(rng, 4, 4)
        assert solve(prob) == solve(prob)


def _brute_force_optimum(prob):
    """Enumerate the basic points of the constraint system exactly."""
    import itertools

    n = len(prob.objective)
    rows = [(list(c.coeffs), c.relation, c.rhs) for c in prob.constraints]
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
        val = sum(c * v for c, v in zip(prob.objective, x))
        if best is None or (val > best if prob.sense == "max" else val < best):
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
        prob = LpProblem.build(
            [rand_rat(rng) for _ in range(n)],
            rng.choice(["max", "min"]),
            cons,
            bounds,
        )
        out = solve(prob)
        brute = _brute_force_optimum(prob)
        done += 1
        if out.status == OPTIMAL:
            assert brute == out.optimum
            assert verify_witness(prob, out.witness)
        elif out.status == INFEASIBLE:
            assert brute is None
            assert verify_farkas(prob, out.farkas)


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
    return LpProblem.build(
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
        out = solve(prob)
        statuses.add(out.status)
        if out.status == OPTIMAL:
            assert verify_witness(prob, out.witness)
            got = sum((c * x for c, x in zip(prob.objective, out.witness)), F(0))
            assert got == out.optimum
        elif out.status == INFEASIBLE:
            assert verify_farkas(prob, out.farkas)
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
    return LpProblem.build(objective, rng.choice(["max", "min"]), cons, bounds)


def test_sparse_battery_matches_reference_simplex():
    import random

    rng = random.Random(1968)
    counts = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for _ in range(1000):
        prob = _random_sparse_problem(rng)
        out = solve(prob)
        assert out == solve_reference(prob)
        counts[out.status] += 1
        if out.status == OPTIMAL:
            assert verify_witness(prob, out.witness)
            got = sum((c * x for c, x in zip(prob.objective, out.witness)), F(0))
            assert got == out.optimum
        elif out.status == INFEASIBLE:
            assert verify_farkas(prob, out.farkas)
    assert min(counts.values()) >= 100, counts
