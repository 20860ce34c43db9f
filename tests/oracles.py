"""Brute-force evaluators the tests compare the kernel against.

The product oracles enumerate vertex combinations directly, with no hull
construction and no LP; the vertex oracles solve every full n x n
active-set system by fraction-free Gauss-Jordan elimination of their
own, or every reduced one with the kernel's integer solver (the
active-set sweep); the extreme-point oracle drops, one at a time, every
point in the hull of all the others, with one LP over all of them each;
the double-inclusion oracle solves the H-form LP in every canonical
direction and both senses; the augmented-set oracles solve the open part
of posi(strict + border rays) as LPs with one row per credal vertex,
border multiples free; the residual oracle solves the closed part's
conditional supremum as one LP with mu a free variable (free and bounded
variables reach the kernel's x >= 0 simplex through :class:`BoundedLp`);
the envelope oracles scan the vertices with one Fraction multiply-add
per cell; the strong-product oracle checks domination both ways with one
hull LP per vertex; the reference simplex keeps every tableau row in
lowest terms with one gcd reduction per row and pivot, and the
certificate replays check an LP witness and a Farkas vector against the
problem's own rows in Fractions; the dichotomy oracles decide the open
side of partial loss by a max-margin LP over mixtures of given points,
and a bare preference cone by convex and conic equality LPs; the fg
membership oracle solves the cone LP over the rays with the reference
simplex.  Each is an independent route to the same exact answer.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from desir.credal import (
    ENUMERATION_BUDGET,
    LinearPrevision,
    _bareiss_solve,
    _integer_row,
)
from desir.errors import InternalError, ResourceLimitError
from desir.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LpOutcome,
    LpProblem,
    _standard_form,
    solve,
)
from desir.products import satisfies_a5, strong_product
from desir.spaces import Gamble, omega_factor_space, prizes_factor_space


def _lowest(nums, den):
    """Divide a row's numerators and positive denominator by their gcd."""
    g = den
    for v in nums:
        g = math.gcd(g, v)
        if g == 1:
            return nums, den
    return [v // g for v in nums], den // g


class _Tableau:
    """Rows of integer numerators, one positive lowest-terms denominator
    per row; m constraint rows, then the objective rows."""

    def __init__(self, nums, dens, basis):
        self.nums = nums
        self.dens = dens
        self.basis = basis
        self.m = len(basis)
        self.width = len(nums[0])

    def value(self, i, j):
        return Fraction(self.nums[i][j], self.dens[i])

    def pivot(self, r, c):
        piv = self.nums[r][c]
        if piv == 0:
            raise InternalError("pivot on zero entry")
        row_r = self.nums[r]
        if piv < 0:
            row_r = [-v for v in row_r]
            piv = -piv
        # Normalised pivot row: value v_rj / v_rc; row denominator cancels.
        row_r, new_den_r = _lowest(row_r, piv)
        for i in range(len(self.nums)):
            if i == r:
                continue
            fac = self.nums[i][c]
            if fac == 0:
                continue
            self.nums[i], self.dens[i] = _lowest(
                [a * new_den_r - fac * b for a, b in zip(self.nums[i], row_r)],
                self.dens[i] * new_den_r,
            )
        self.nums[r] = row_r
        self.dens[r] = new_den_r


def _bland(tab, zrow, allowed_cols, cap):
    rhs = tab.width - 1
    iters = 0
    while True:
        iters += 1
        if iters > cap:
            raise InternalError("simplex iteration cap exceeded")
        znums = tab.nums[zrow]
        enter = next((j for j in allowed_cols if znums[j] < 0), -1)
        if enter < 0:
            return OPTIMAL
        leave = -1
        best_n = best_d = 0
        for i in range(tab.m):
            a = tab.nums[i][enter]
            if a <= 0:
                continue
            bi = tab.nums[i][rhs]
            if leave < 0 or bi * best_d < best_n * a or (
                bi * best_d == best_n * a and tab.basis[i] < tab.basis[leave]
            ):
                leave, best_n, best_d = i, bi, a
        if leave < 0:
            return UNBOUNDED
        tab.pivot(leave, enter)
        tab.basis[leave] = enter


def solve_reference(problem):
    """Two-phase Bland simplex on lowest-terms integer rows: the same
    pivots as :func:`desir.lp.solve`, with a gcd reduction per touched row
    where the kernel divides exactly (fraction-free)."""
    rows, dens, (z2, z2_den) = _standard_form(problem)
    m = len(rows)
    n_cols = art0 = len(z2) - 1
    width = n_cols + m + 1
    den_z = math.lcm(*dens)
    z1 = [0] * (n_cols + 1)
    for row, den in zip(rows, dens):
        for j, v in enumerate(row):
            z1[j] -= v * (den_z // den)

    def widen(row):
        return row[:-1] + [0] * m + row[-1:]

    nums = [widen(row) for row in rows]
    for i, den in enumerate(dens):
        nums[i][art0 + i] = den
    z1, den_z = _lowest(widen(z1), den_z)
    nums.append(z1)
    dens.append(den_z)
    feasibility_only = not any(z2)
    if not feasibility_only:
        nums.append(widen(z2))
        dens.append(z2_den)
    tab = _Tableau(nums, dens, [art0 + i for i in range(m)])
    cap = 2000 + 40 * width * (m + 2)
    if _bland(tab, m, range(n_cols), cap) != OPTIMAL:
        raise InternalError("phase 1 cannot be unbounded")
    if tab.nums[m][-1] < 0:
        y = tuple(Fraction(1) - tab.value(m, art0 + i) for i in range(m))
        return LpOutcome(status=INFEASIBLE, farkas=y)
    if not feasibility_only:
        for i in range(m):
            if tab.basis[i] < art0:
                continue
            enter = next((j for j in range(n_cols) if tab.nums[i][j]), -1)
            if enter >= 0:
                tab.pivot(i, enter)
                tab.basis[i] = enter
        if _bland(tab, m + 1, range(n_cols), cap) == UNBOUNDED:
            return LpOutcome(status=UNBOUNDED)
    x = [Fraction(0)] * n_cols
    for i in range(m):
        if tab.basis[i] < n_cols:
            x[tab.basis[i]] = tab.value(i, width - 1)
    witness = tuple(x[: len(problem.objective)])
    optimum = Fraction(0) if feasibility_only else -tab.value(m + 1, width - 1)
    if problem.sense == "max":
        optimum = -optimum
    return LpOutcome(status=OPTIMAL, optimum=optimum, witness=witness)


def _feasible(constraints, bounds, witness):
    """Exact feasibility of a point: every (lower, upper) bound, ``None``
    meaning unbounded on that side, and every constraint row."""
    if len(witness) != len(bounds):
        return False
    for x, (lo, hi) in zip(witness, bounds):
        if (lo is not None and x < lo) or (hi is not None and x > hi):
            return False
    for con in constraints:
        lhs = sum((a * x for a, x in zip(con.coeffs, witness)), Fraction(0))
        if con.relation == LE and lhs > con.rhs:
            return False
        if con.relation == GE and lhs < con.rhs:
            return False
        if con.relation == EQ and lhs != con.rhs:
            return False
    return True


def verify_witness(problem, witness):
    """Exact feasibility of a point for the problem: x >= 0 and every row."""
    return _feasible(problem.constraints, [(0, None)] * len(problem.objective), witness)


def verify_farkas(problem, farkas):
    """Replay an infeasibility certificate from the problem's own rows.

    ``farkas`` multiplies the rows of the internal equality form: the
    constraints, each negated when its right-hand side is negative, with
    one slack column per inequality row.  Undoing the negation gives
    multipliers u for the problem's rows, and validity means they prove
    ``0 > 0`` over x >= 0: u.b > 0 and (u.A)_j <= 0 for every variable,
    while a row's slack column asks u <= 0 on a ``<=`` row and u >= 0 on
    a ``>=`` row.
    """
    rows = problem.constraints
    if len(farkas) != len(rows):
        return False
    u = [Fraction(y) if row.rhs >= 0 else -Fraction(y) for y, row in zip(farkas, rows)]
    if any(
        (row.relation == LE and ui > 0) or (row.relation == GE and ui < 0)
        for ui, row in zip(u, rows)
    ):
        return False
    for j in range(len(problem.objective)):
        if sum((ui * row.coeffs[j] for ui, row in zip(u, rows)), Fraction(0)) > 0:
            return False
    return sum((ui * row.rhs for ui, row in zip(u, rows)), Fraction(0)) > 0


@dataclass(frozen=True)
class BoundedLp:
    """max/min c.x subject to rows and per-variable bounds, reduced to the
    kernel's x >= 0 form by the textbook substitutions (Chvatal, *Linear
    Programming*, 1983): a free variable is split in place into adjacent
    columns x+ - x-, a finite lower bound is shifted into the right-hand
    sides, and each finite upper bound becomes a ``<=`` row after the
    constraints.  ``problem`` is that x >= 0 LP in x'; ``cols[j]`` is
    ``(col, lower)``: variable j is x'[col] + lower, or x'[col] - x'[col + 1]
    when lower is None; ``shift`` is the constant k with c.x = c'.x' + k.
    """

    original: LpProblem  # the rows and objective without their bounds
    bounds: tuple
    problem: LpProblem
    cols: tuple
    shift: object

    @staticmethod
    def build(objective, sense, constraints, bounds=None) -> "BoundedLp":
        """``bounds[j]`` is (lower, upper), ``None`` meaning unbounded on
        that side; the default is (0, None) throughout."""
        original = LpProblem.build(objective, sense, constraints)
        n = len(original.objective)
        bounds = ((0, None),) * n if bounds is None else tuple(bounds)
        assert len(bounds) == n
        cols, width = [], 0
        for lo, _ in bounds:
            cols.append((width, lo))
            width += 1 if lo is not None else 2

        def split(coeffs):
            row = [0] * width
            for a, (col, lo) in zip(coeffs, cols):
                row[col] = a
                if lo is None:
                    row[col + 1] = -a
            return row

        def shift(coeffs):
            return sum([a * lo for a, (_, lo) in zip(coeffs, cols) if lo], 0)

        rows = [
            (split(con.coeffs), con.relation, con.rhs - shift(con.coeffs))
            for con in original.constraints
        ]
        for j, (lo, hi) in enumerate(bounds):
            if hi is not None:
                unit = [0] * n
                unit[j] = 1
                rows.append((split(unit), LE, hi if lo is None else hi - lo))
        c = original.objective
        problem = LpProblem.build(split(c), sense, rows)
        return BoundedLp(original, bounds, problem, tuple(cols), shift(c))

    def solve(self, solver=solve) -> LpOutcome:
        """The solver's outcome on ``problem``, its witness checked there
        and then mapped back, with the optimum, to the original variables;
        a Farkas vector stays over ``problem``'s rows."""
        out = solver(self.problem)
        if out.status != OPTIMAL:
            return out
        assert verify_witness(self.problem, out.witness)
        x = out.witness
        witness = tuple(
            [
                x[c] - x[c + 1] if lo is None else x[c] + lo if lo else x[c]
                for c, lo in self.cols
            ]
        )
        return LpOutcome(OPTIMAL, out.optimum + self.shift, witness)

    def verify_witness(self, witness):
        """Exact feasibility of a point for the original rows and bounds."""
        return _feasible(self.original.constraints, self.bounds, witness)


def _integer_solve(rows, rhs):
    """Solve a square integer system by fraction-free Gauss-Jordan
    elimination: ``(nums, det)`` with x = nums / det and det > 0, or None
    when singular.  After step k every entry is a k x k minor of the
    row-permuted system, so each division by the previous pivot is exact;
    at the end the matrix is det times the identity."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    prev = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        p, pivot_row = a[col][col], a[col]
        for i in range(n):
            if i != col:
                f = a[i][col]
                a[i] = [(p * v - f * w) // prev for v, w in zip(a[i], pivot_row)]
        prev = p
    sign = 1 if prev > 0 else -1
    return [sign * row[n] for row in a], sign * prev


def enumerate_vertices_bruteforce(space, constraints):
    """Vertex masses of {p in simplex : P(g) >= 0}, sorted: every choice of
    n - 1 rows from the pool (unit rows p_j = 0, then the constraint rows,
    each scaled to integers by the lcm of its denominators) plus sum p = 1,
    solved as a full n x n integer system and filtered for feasibility.
    Same candidate budget as the kernel."""
    n = space.n_cells
    pool = [[int(i == j) for i in range(n)] for j in range(n)]
    for g in constraints:
        flat = g.flat()
        den = math.lcm(*[v.denominator for v in flat])
        pool.append([v.numerator * (den // v.denominator) for v in flat])
    if math.comb(len(pool), n - 1) > ENUMERATION_BUDGET:
        raise ResourceLimitError("over the enumeration budget")
    rhs = [0] * (n - 1) + [1]
    seen = set()
    for combo in itertools.combinations(pool, n - 1):
        sol = _integer_solve(list(combo) + [[1] * n], rhs)
        if sol is None:
            continue
        nums, det = sol
        if any(v < 0 for v in nums):
            continue
        if any(sum(c * v for c, v in zip(cf, nums)) < 0 for cf in pool[n:]):
            continue
        seen.add(tuple([Fraction(v, det) for v in nums]))
    return tuple(sorted(seen))


def enumerate_vertices_sweep(space, constraints):
    """The active-set sweep: ``enumerate_vertices``'s output, found by
    trying every vertex as the unique solution of n - 1 active rows plus
    sum p = 1.  A choice of c constraint rows leaves c + 1 free cells (the
    chosen unit rows p_j = 0 pin the rest), so each candidate is a
    (c + 1)-square integer Bareiss system, filtered for feasibility.  A
    candidate whose chosen row has one strict sign on every free cell is
    skipped before its solve.  Same candidate budget as the kernel."""
    n = space.n_cells
    k = len(constraints)
    if math.comb(n + k, n - 1) > ENUMERATION_BUDGET:
        raise ResourceLimitError("over the enumeration budget")
    rows = [_integer_row(g.flat())[0] for g in constraints]
    # each row's cells of either strict sign, as bit masks
    pos = [sum(1 << j for j, x in enumerate(r) if x > 0) for r in rows]
    neg = [sum(1 << j for j, x in enumerate(r) if x < 0) for r in rows]
    seen = {}  # each vertex's row in lowest terms, and its sum
    for c in range(min(k, n - 1) + 1):
        for picked in itertools.combinations(range(k), c):
            chosen = [rows[i] for i in picked]
            masks = [m for i in picked for m in (pos[i], neg[i])]
            for free in itertools.combinations(range(n), c + 1):
                fmask = sum(1 << j for j in free)
                # a chosen row of one strict sign on every free cell vanishes
                # at no p >= 0 with sum p = 1 there
                if any(m & fmask == fmask for m in masks):
                    continue
                system = [[1] * (c + 2)] + [[r[j] for j in free] + [0] for r in chosen]
                sol = _bareiss_solve(system)
                if sol is None:
                    continue
                y, d = sol
                if d < 0:
                    y = [-v for v in y]
                if any(v < 0 for v in y):
                    continue
                if any(sum(r[j] * v for j, v in zip(free, y)) < 0 for r in rows):
                    continue
                g = math.gcd(*y)
                row = [0] * n
                for j, v in zip(free, y):
                    row[j] = v // g
                seen[tuple(row)] = sum(row)
    den = math.lcm(*seen.values())
    return tuple(sorted([tuple([x * (den // s) for x in r]) for r, s in seen.items()]))


def _hull_contains(vertices, point):
    if not vertices:
        return False
    out = solve(LpProblem.cone(vertices, EQ, point, convex=True))
    return out.status == OPTIMAL


def extreme_points_bruteforce(space, masses):
    """The extreme points of the hull of ``masses``, sorted: the distinct
    points in order, each dropped when it lies in the hull of all the
    points still kept besides it (removing one never changes the hull)."""
    pts = []
    seen = set()
    for m in masses:
        p = m if isinstance(m, LinearPrevision) else LinearPrevision.of(space, m)
        if p.mass not in seen:
            seen.add(p.mass)
            pts.append(p)
    pts.sort(key=lambda p: p.mass)
    keep = list(pts)
    i = 0
    while i < len(keep):
        others = [p.mass for k, p in enumerate(keep) if k != i]
        if others and _hull_contains(others, keep[i].mass):
            del keep[i]
        else:
            i += 1
    return tuple(p.mass for p in keep)


def check_double_inclusion_lp(credal):
    """The enumeration self-check by LPs: every vertex satisfies every
    constraint, and on each canonical direction (coordinates and
    constraint rows) the H-form LP optimum equals the vertex extreme, in
    both senses.  Raises InternalError otherwise; 2(n + k) LPs.

    All in integers: each constraint row is scaled by the lcm of its
    denominators (a positive scaling, so the same H-form set), and each
    direction's vertex values are computed once, as numerators over the
    vertex denominator, from the rows of the vertex matrix."""
    n = credal.space.n_cells
    rows, den = credal.rows, credal.den
    gs = []
    for g in credal.constraints:
        flat = g.flat()
        scale = math.lcm(*[x.denominator for x in flat])
        gs.append([x.numerator * (scale // x.denominator) for x in flat])
    # (direction, every vertex's value of it as a numerator over den)
    directions = [
        ([int(i == j) for i in range(n)], [r[j] for r in rows]) for j in range(n)
    ]
    for g in gs:
        vals = [sum([x * c for x, c in zip(r, g)]) for r in rows]
        if min(vals) < 0:
            raise InternalError("enumerated vertex violates a constraint")
        directions.append((g, vals))
    cons = [(g, GE, 0) for g in gs]
    cons.append(([1] * n, EQ, 1))
    for d, vals in directions:
        for sense, ext in (("max", max(vals)), ("min", min(vals))):
            out = solve(LpProblem.build(d, sense, cons))
            if out.status != OPTIMAL:
                raise InternalError("H-polytope optimisation failed")
            if Fraction(ext, den) != out.optimum:
                raise InternalError("H-form and V-form disagree on a support direction")


def _vertex_value(vertex, f):
    """P(f) at one vertex, in Fractions."""
    return sum((x * v for x, v in zip(vertex.mass, f.flat())), Fraction(0))


def _vertex_probability(vertex, event):
    m = event.space.n_prizes
    return sum((vertex.mass[i * m + j] for i, j in event.cells), Fraction(0))


def lower_scan(credal, f):
    return min(_vertex_value(v, f) for v in credal.vertices)


def upper_scan(credal, f):
    return max(_vertex_value(v, f) for v in credal.vertices)


def minimizer_scan(credal, f):
    """The vertex with the least P(f), ties to the smallest mass."""
    return min(credal.vertices, key=lambda v: (_vertex_value(v, f), v.mass))


def lower_probability_scan(credal, event):
    return min(_vertex_probability(v, event) for v in credal.vertices)


def generalized_bayes_scan(credal, f, event):
    """min over vertices of P(Bf) / P(B), or None when some vertex gives B
    zero probability."""
    probs = [_vertex_probability(v, event) for v in credal.vertices]
    if 0 in probs:
        return None
    bf = f.restricted_to(event)
    return min(_vertex_value(v, bf) / pb for v, pb in zip(credal.vertices, probs))


def conditional_natural_extension_scan(credal, f, event):
    """Vacuous (min of f on B) at zero lower probability, else generalized
    Bayes."""
    value = generalized_bayes_scan(credal, f, event)
    return f.min_over(event) if value is None else value


def _prize_row(f, state):
    return Gamble(prizes_factor_space(f.space), (f.values[state],))


def m1_lower_bruteforce(m_omega, conditionals, f):
    """Minimum over all vertex combinations, the conditional vertex free
    to vary with the state (the behavioural reading of irrelevance)."""
    per_state_values = [
        [v(_prize_row(f, i)) for v in cond.vertices]
        for i, cond in enumerate(conditionals)
    ]
    return min(
        sum((vo.mass[i] * val for i, val in enumerate(combo)), Fraction(0))
        for vo in m_omega.vertices
        for combo in itertools.product(*per_state_values)
    )


def strong_product_lower(m_omega, m_x, f):
    """Min over vertex pairs of the product prevision."""
    factor = omega_factor_space(f.space)
    inners = [
        Gamble(factor, tuple((vx(_prize_row(f, i)),) for i in range(f.space.n_states)))
        for vx in m_x.vertices
    ]
    return min(vo(g) for g in inners for vo in m_omega.vertices)


def augmented_open_lp(dset, f):
    """(t, mu) at the optimum of max t subject to v(f) - sum mu_j v(b_j) >= t
    at every credal vertex v, mu >= 0 and t <= 1: f is in the open part of
    posi(strict + border rays) iff t > 0, and mu is a witness."""
    borders = dset.borders
    nb = len(borders)
    cons = [
        ([v(b) for b in borders] + [Fraction(1)], LE, v(f))
        for v in dset.credal.vertices
    ]
    cons.append(([Fraction(0)] * nb + [Fraction(1)], LE, Fraction(1)))
    bounds = [(Fraction(0), None)] * nb + [(None, None)]
    objective = [Fraction(0)] * nb + [Fraction(1)]
    out = BoundedLp.build(objective, "max", cons, bounds).solve()
    assert out.status == OPTIMAL
    return out.optimum, out.witness[:nb]


def augmented_contains_lp(dset, f):
    """Membership in posi(strict + border rays): f positive, or in the open
    part by the vertex-row LP, or f - sum mu_j b_j >= 0 for some mu >= 0."""
    if f.is_positive():
        return True
    if f.is_nonpositive():
        return False
    if augmented_open_lp(dset, f)[0] > 0:
        return True
    bflats = [b.flat() for b in dset.borders]
    fflat = f.flat()
    cons = [([bf[c] for bf in bflats], LE, fflat[c]) for c in range(len(fflat))]
    out = solve(LpProblem.build([Fraction(0)] * len(bflats), "max", cons))
    return out.status == OPTIMAL


def residual_sup_free_lp(rays, f, event):
    """sup { mu : B(f - mu) - sum(lambda r) >= 0, lambda >= 0 } with mu a
    free variable, or None when unbounded.  No rays still solves an LP."""
    k = len(rays)
    flats = [r.flat() for r in rays]
    bflat = f.restricted_to(event).flat()
    iflat = event.indicator().flat()
    cons = [
        ([fl[c] for fl in flats] + [iflat[c]], LE, bflat[c])
        for c in range(len(bflat))
    ]
    bounds = [(Fraction(0), None)] * k + [(None, None)]
    objective = [Fraction(0)] * k + [Fraction(1)]
    out = BoundedLp.build(objective, "max", cons, bounds).solve()
    assert out.status != INFEASIBLE
    return out.optimum if out.status == OPTIMAL else None


def augmented_open_conditional_sup(dset, f, event):
    """sup { mu : B(f - mu) is in the open part }, or None when that part
    is empty, by two vertex-row LPs.  The gate LP asks whether some mu and
    border multiples lambda >= 0 leave every v(B(f - mu)) - sum lambda_j
    v(b_j) strictly positive; the sup LP then maximises mu subject to the
    same rows, nonstrict."""
    borders = dset.borders
    nb = len(borders)
    bf = f.restricted_to(event)
    indicator = event.indicator()
    rows = [
        ([v(indicator)] + [v(b) for b in borders], v(bf))
        for v in dset.credal.vertices
    ]
    gate_cons = [(row + [Fraction(1)], LE, rhs) for row, rhs in rows]
    gate_cons.append(([Fraction(0)] * (1 + nb) + [Fraction(1)], LE, Fraction(1)))
    gate_bounds = [(None, None)] + [(Fraction(0), None)] * nb + [(None, None)]
    gate = BoundedLp.build(
        [Fraction(0)] * (1 + nb) + [Fraction(1)], "max", gate_cons, gate_bounds
    ).solve()
    if gate.status != OPTIMAL or gate.optimum <= 0:
        return None
    cons = [(row, LE, rhs) for row, rhs in rows]
    bounds = [(None, None)] + [(Fraction(0), None)] * nb
    objective = [Fraction(1)] + [Fraction(0)] * nb
    out = BoundedLp.build(objective, "max", cons, bounds).solve()
    assert out.status != UNBOUNDED
    return out.optimum if out.status == OPTIMAL else None


def is_strong_product_lp(joint, m_omega, m_x):
    """Domination both ways with hull LPs: every vertex-pair product lies
    in the joint, and every joint vertex lies in the strong product."""
    if not satisfies_a5(joint, m_omega, m_x):
        return False
    sp = strong_product(m_omega, m_x, joint.space)
    return all(sp.contains(v) for v in joint.vertices)


def combines_to_zero(gambles):
    """True iff some convex combination of the gambles is exactly zero."""
    if not gambles:
        return False
    flats = [g.flat() for g in gambles]
    out = solve(LpProblem.cone(flats, EQ, [0] * len(flats[0]), convex=True))
    return out.status == OPTIMAL


def positive_mix(space, points, rays):
    """A mixture of the points strictly positive on every ray, or None:
    max t subject to sum alpha_k p_k(b) >= t for every ray b, alpha in the
    simplex and t <= 1."""
    k = len(points)
    cons = [([p(b) for p in points] + [Fraction(-1)], GE, Fraction(0)) for b in rays]
    cons.append(([Fraction(1)] * k + [Fraction(0)], EQ, Fraction(1)))
    cons.append(([Fraction(0)] * k + [Fraction(1)], LE, Fraction(1)))
    out = solve(LpProblem.build([Fraction(0)] * k + [Fraction(1)], "max", cons))
    if out.status != OPTIMAL or out.optimum <= 0:
        return None
    alpha = out.witness[:k]
    mass = tuple(
        sum((a * p.mass[c] for a, p in zip(alpha, points)), Fraction(0))
        for c in range(space.n_cells)
    )
    return LinearPrevision(space, mass)


def open_superset_mix(space, gambles):
    """(found, prevision): a mixture of the cell units strictly positive
    on every gamble."""
    n = space.n_cells
    units = [
        LinearPrevision(space, tuple(Fraction(int(c == j)) for c in range(n)))
        for j in range(n)
    ]
    p = positive_mix(space, units, gambles)
    return p is not None, p


def bare_cone_contains(gambles, f):
    """f is nonzero and a nonnegative combination of the gambles exactly."""
    if f.is_zero() or not gambles:
        return False
    flats = [g.flat() for g in gambles]
    return solve(LpProblem.cone(flats, EQ, f.flat())).status == OPTIMAL


def fg_contains_reference(rays, f):
    """f is nonzero and lambda >= 0, sum lambda_k r_k <= f is feasible, by
    the reference simplex; with no rays, f is nonzero and >= 0."""
    if not rays:
        return f.is_positive()
    if f.is_zero():
        return False
    problem = LpProblem.cone([r.flat() for r in rays], LE, f.flat())
    return solve_reference(problem).status == OPTIMAL
