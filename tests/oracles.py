"""Brute-force evaluators the tests compare the kernel against.

The product oracles enumerate vertex combinations directly, with no hull
construction and no LP; the family oracle enumerates block subsets with
one LP each; the vertex oracle solves every full n x n active-set system
in Fractions; the extreme-point oracle drops, one at a time, every point
in the hull of all the others, with one LP over all of them each; the
augmented-set oracles solve the open part of posi(strict + border rays)
as LPs with one row per credal vertex, border multiples free; the envelope
oracles scan the vertices with one Fraction multiply-add per cell; the
strong-product oracle checks domination both ways with one hull LP per
vertex; the reference simplex keeps every tableau row in lowest terms
with one gcd reduction per row and pivot.  Each is an independent route
to the same exact answer.
"""

import itertools
import math
from fractions import Fraction

from desir.credal import ENUMERATION_BUDGET, LinearPrevision
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
    rows, dens, cols, (z2, z2_den) = _standard_form(problem)
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
    witness = tuple(
        x[col] - x[col + 1] if lo is None else x[col] + lo for col, lo in cols
    )
    optimum = Fraction(0) if feasibility_only else -tab.value(m + 1, width - 1)
    if problem.sense == "max":
        optimum = -optimum
    return LpOutcome(status=OPTIMAL, optimum=optimum, witness=witness)


def _gauss_solve(rows, rhs):
    """Solve a square exact system by Gauss-Jordan; None when singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def enumerate_vertices_bruteforce(space, constraints):
    """Vertex masses of {p in simplex : P(g) >= 0}, sorted: every choice of
    n - 1 rows from the pool (unit rows p_j = 0, then the constraint rows)
    plus sum p = 1, solved as a full n x n Fraction system and filtered
    for feasibility.  Same candidate budget as the kernel."""
    n = space.n_cells
    pool = [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
    pool.extend(g.flat() for g in constraints)
    if math.comb(len(pool), n - 1) > ENUMERATION_BUDGET:
        raise ResourceLimitError("over the enumeration budget")
    ones = [Fraction(1)] * n
    seen = set()
    for combo in itertools.combinations(pool, n - 1):
        rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
        sol = _gauss_solve(list(combo) + [ones], rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        if any(sum(c * v for c, v in zip(cf, sol)) < 0 for cf in pool[n:]):
            continue
        seen.add(tuple(sol))
    return tuple(sorted(seen))


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


def assessment_lower(assessment, f):
    """Lower prevision of f under a ConditionalAssessment: the minimum over
    its conditional masses of the expectation on the event's cells."""
    return min(
        sum(
            (x * f.values[i][j] for x, (i, j) in zip(v, assessment.event.cells)),
            Fraction(0),
        )
        for v in assessment.vertices
    )


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


def family_contains_bruteforce(family, f):
    """Membership in a ConditionalFamilySet by trying every nonempty block
    subset: f = h + sum over the subset of B_i y_i with h >= 0 and every
    P_i(y_i) > 0, or f >= 0 and nonzero.  At f = 0 a True answer means the
    family incurs partial loss."""
    if f.is_positive():
        return True
    k = len(family.assessments)
    return any(
        _subset_feasible(family, f, [i for i in range(k) if mask & (1 << i)])
        for mask in range(1, 1 << k)
    )


def _subset_feasible(family, f, used):
    # variables: per used block: g over its cells, bound m, slack eps;
    # then one residual per space cell, then the common slack delta.
    space = family.space
    n = space.n_cells
    m_prizes = space.n_prizes
    offsets = []
    width = 0
    for i in used:
        offsets.append(width)
        width += len(family.assessments[i].event.cells) + 2
    h0 = width
    width += n
    dcol = width
    width += 1

    def empty_row():
        return [Fraction(0)] * width

    cons = []
    bounds = []
    for pos, i in enumerate(used):
        cells = family.assessments[i].event.cells
        base = offsets[pos]
        bounds.extend([(None, None)] * len(cells))
        bounds.append((None, None))  # m_i
        bounds.append((Fraction(0), None))  # eps_i
        for v in family.assessments[i].vertices:
            row = empty_row()
            for x, k2 in zip(v, range(len(cells))):
                row[base + k2] = x
            row[base + len(cells)] = Fraction(-1)
            cons.append((row, GE, Fraction(0)))
        row = empty_row()
        row[base + len(cells) + 1] = Fraction(1)
        row[dcol] = Fraction(-1)
        cons.append((row, GE, Fraction(0)))
    bounds.extend([(Fraction(0), None)] * n)  # residual h
    bounds.append((Fraction(0), Fraction(1)))  # delta
    for c in range(n):
        i_state, j_prize = divmod(c, m_prizes)
        row = empty_row()
        row[h0 + c] = Fraction(1)
        for pos, i in enumerate(used):
            cells = family.assessments[i].event.cells
            base = offsets[pos]
            if (i_state, j_prize) in cells:
                k2 = cells.index((i_state, j_prize))
                row[base + k2] = Fraction(1)
                row[base + len(cells)] = Fraction(-1)
                row[base + len(cells) + 1] = Fraction(1)
        cons.append((row, EQ, f.values[i_state][j_prize]))
    obj = empty_row()
    obj[dcol] = Fraction(1)
    out = solve(LpProblem.build(obj, "max", cons, bounds))
    return out.status == OPTIMAL and out.optimum > 0


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
    out = solve(LpProblem.build([Fraction(0)] * nb + [Fraction(1)], "max", cons, bounds))
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
    gate = solve(
        LpProblem.build(
            [Fraction(0)] * (1 + nb) + [Fraction(1)], "max", gate_cons, gate_bounds
        )
    )
    if gate.status != OPTIMAL or gate.optimum <= 0:
        return None
    cons = [(row, LE, rhs) for row, rhs in rows]
    bounds = [(None, None)] + [(Fraction(0), None)] * nb
    out = solve(LpProblem.build([Fraction(1)] + [Fraction(0)] * nb, "max", cons, bounds))
    assert out.status != UNBOUNDED
    return out.optimum if out.status == OPTIMAL else None


def is_strong_product_lp(joint, m_omega, m_x):
    """Domination both ways with hull LPs: every vertex-pair product lies
    in the joint, and every joint vertex lies in the strong product."""
    if not satisfies_a5(joint, m_omega, m_x):
        return False
    sp = strong_product(m_omega, m_x, joint.space)
    return all(sp.contains(v) for v in joint.vertices)
