"""Exact rational linear programming.

A small two-phase primal simplex over arbitrary-precision rationals.  The
kernel never touches floating point: strict-versus-weak inequality
distinctions (``> 0`` against ``= 0``) carry all the semantics upstream,
so every pivot, every ratio test and every certificate is exact.

Scalars are ``fractions.Fraction`` (aliased ``Rat``).  Internally the
tableau is integer and pivots are fraction-free (Bareiss): each entry is
a minor of the integer start matrix, so its size stays polynomial in the
input and every pivot divides exactly, with no gcd.  Each row keeps its
own positive denominator; a row a pivot leaves alone is not rescaled
until a later pivot touches it (see :func:`_pivot`).  The problem goes
into integer rows in one pass (:func:`_standard_form`), with no
Fraction-valued intermediate copy of the standard form.

Pivoting uses Bland's rule (smallest eligible index), so the solver
terminates on every input and two runs on the same problem produce
bit-identical outcomes.  The phase-2 objective row is carried through
the phase-1 pivots, which keep it reduced against the basis, so phase 2
starts without re-expressing it.

Outcomes carry certificates: an optimal witness that satisfies every
constraint exactly, or, on infeasibility, Farkas multipliers for the
internal standard form (see :func:`verify_farkas`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import InputError, InternalError

Rat = Fraction

LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_RELATIONS = (LE, EQ, GE)


def rat(value) -> Rat:
    """Coerce ints / strings / Fractions to an exact rational.

    Floats are rejected: they have no place in this kernel.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise InputError(f"float {value!r} rejected; use exact rationals")
    return Fraction(value)


@dataclass(frozen=True)
class LinearConstraint:
    coeffs: tuple[Rat, ...]
    relation: str
    rhs: Rat

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise InputError(f"unknown relation {self.relation!r}")


@dataclass(frozen=True)
class LpProblem:
    """max/min c.x subject to rows (a.x rel b) and per-variable bounds.

    ``bounds[j]`` is a pair (lower, upper); ``None`` means unbounded on
    that side.  The default bound is (0, None).
    """

    objective: tuple[Rat, ...]
    sense: str
    constraints: tuple[LinearConstraint, ...]
    bounds: tuple[tuple[Optional[Rat], Optional[Rat]], ...]

    @staticmethod
    def build(
        objective: Sequence,
        sense: str,
        constraints: Sequence[tuple[Sequence, str, object]],
        bounds: Optional[Sequence[tuple[Optional[object], Optional[object]]]] = None,
    ) -> "LpProblem":
        # Tuples are built from lists: CPython then takes each from its free
        # tuples of the final size, while a tuple grown from a generator is
        # resized into place and, once freed, parks in that free list until
        # a full collection, which raises peak memory.
        obj = tuple([rat(c) for c in objective])
        rows = tuple(
            [
                LinearConstraint(tuple([rat(a) for a in coeffs]), rel, rat(rhs))
                for coeffs, rel, rhs in constraints
            ]
        )
        if bounds is None:
            bnds: tuple[tuple[Optional[Rat], Optional[Rat]], ...] = (
                (Fraction(0), None),
            ) * len(obj)
        else:
            bnds = tuple(
                [
                    (None if lo is None else rat(lo), None if hi is None else rat(hi))
                    for lo, hi in bounds
                ]
            )
        return LpProblem(obj, sense, rows, bnds)

    @staticmethod
    def cone(
        columns: Sequence[Sequence],
        relation: str,
        target: Sequence,
        convex: bool = False,
    ) -> "LpProblem":
        """Feasibility of lambda >= 0 with sum_k lambda_k columns[k] rel target.

        One row per target coordinate, then ``sum lambda = 1`` when
        ``convex``; zero objective, so any feasible witness is optimal.
        """
        k = len(columns)
        cons = [
            ([col[c] for col in columns], relation, t) for c, t in enumerate(target)
        ]
        if convex:
            cons.append(([Fraction(1)] * k, EQ, Fraction(1)))
        return LpProblem.build([Fraction(0)] * k, "max", cons)

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise InputError(f"sense must be 'max' or 'min', got {self.sense!r}")
        n = len(self.objective)
        if len(self.bounds) != n:
            raise InputError("bounds length does not match objective length")
        for row in self.constraints:
            if len(row.coeffs) != n:
                raise InputError(
                    f"constraint has {len(row.coeffs)} coefficients, expected {n}"
                )


@dataclass(frozen=True)
class LpOutcome:
    status: str
    optimum: Optional[Rat] = None
    witness: Optional[tuple[Rat, ...]] = None
    farkas: Optional[tuple[Rat, ...]] = None


# ---------------------------------------------------------------------------
# Integer standard form
#
# Variables are shifted / split so every internal variable is >= 0; finite
# upper bounds become extra rows.  Every row is normalised to a nonnegative
# right-hand side and receives slack/surplus plus one artificial variable,
# so the initial basis is the artificial identity and Farkas multipliers can
# be read off the phase-1 reduced costs uniformly.
#
# Rows are built in one pass straight into integer numerators over the lcm
# of their entries' denominators.  That (numerators, denominator) pair is
# the row's unique lowest-terms form, so the integer tableau, and hence
# Bland's path, depend only on the rational problem.
# ---------------------------------------------------------------------------

_FLIP = {LE: GE, GE: LE, EQ: EQ}


def _standard_form(problem: LpProblem):
    """Integer rows of min c'.x' subject to A'x' = b, x' >= 0, b >= 0.

    Returns ``(rows, dens, cols, objective)``.  ``rows[i]`` holds the
    numerators of ``[A'_i | b_i]`` over the positive ``dens[i]``; columns
    are structural, then one slack/surplus per inequality row; rows are
    the constraints, then one row per finite upper bound.  ``cols[j]`` is
    ``(col, lo)``: variable j is ``x'_col + lo``, or ``x'_col - x'_col+1``
    when ``lo`` is None.  ``objective`` is ``(nums, den)`` of the min-form
    row ``[c' | -k]``, with k the constant the shifts add to c'.x'.
    """
    cols = []
    n_struct = 0
    for lo, _ in problem.bounds:
        cols.append((n_struct, lo))
        n_struct += 1 if lo is not None else 2

    def shift(coeffs):
        pairs = zip(coeffs, cols)
        return sum((a * lo for a, (_, lo) in pairs if a and lo), Fraction(0))

    specs = [
        (con.coeffs, con.relation, con.rhs - shift(con.coeffs))
        for con in problem.constraints
    ]
    # Note: an empty box (hi < lo) flows through as an infeasible bound
    # row, so the certificate machinery covers that case uniformly.
    for j, (lo, hi) in enumerate(problem.bounds):
        if hi is not None:
            unit = [0] * len(cols)
            unit[j] = 1
            specs.append((unit, LE, hi if lo is None else hi - lo))
    n_cols = n_struct + sum(rel != EQ for _, rel, _ in specs)

    def integer_row(coeffs, rhs, sign):
        den = rhs.denominator
        for a in coeffs:
            if a:
                den = lcm(den, a.denominator)
        row = [0] * (n_cols + 1)
        for a, (col, lo) in zip(coeffs, cols):
            if a:
                row[col] = v = sign * a.numerator * (den // a.denominator)
                if lo is None:
                    row[col + 1] = -v
        row[-1] = sign * rhs.numerator * (den // rhs.denominator)
        return row, den

    rows, dens = [], []
    slack = n_struct
    for coeffs, rel, rhs in specs:
        sign = 1
        if rhs < 0:
            sign, rel = -1, _FLIP[rel]
        row, den = integer_row(coeffs, rhs, sign)
        if rel != EQ:
            row[slack] = den if rel == LE else -den
            slack += 1
        rows.append(row)
        dens.append(den)
    c = problem.objective
    objective = integer_row(c, -shift(c), -1 if problem.sense == "max" else 1)
    return rows, dens, cols, objective


# ---------------------------------------------------------------------------
# Fraction-free (Bareiss) tableau
#
# ``rows[i]`` holds integers whose values are ``rows[i][j] / dens[i]``.  Row
# layout: m constraint rows, then the objective rows, which pivots update
# but never pick.  Column layout: structural + slack + artificial columns,
# and the right-hand side last.
# ---------------------------------------------------------------------------


def _pivot(rows: list[list[int]], dens: list[int], r: int, c: int, d: int) -> int:
    """Pivot on (r, c), ``d`` being the previous pivot; returns the new one.

    Bareiss maps every other row to ``(p * row - f * pivot_row) // d``, p
    the pivot and f the row's entry in column c, all rows then over p.
    Every entry is, up to sign, a minor of the integer start matrix
    (|det B| times B^-1 [A | b]), so the division is exact.  A row with
    f = 0 keeps its integers and its own denominator: Bareiss would scale
    it by p_k+1 / p_k, then p_k+2 / p_k+1, ..., each step integral, and
    the product telescopes to d / dens[i], so ``v * d // dens[i]`` is
    exact.  The pivot row is brought over d that way; a touched row takes
    the scale into its step, ``(p * row - f * pivot_row) // dens[i]``.
    """
    piv_row = rows[r]
    if dens[r] != d:
        piv_row = [v * d // dens[r] for v in piv_row]
    p = piv_row[c]
    if p == 0:
        raise InternalError("pivot on zero entry")
    if p < 0:  # only when driving an artificial out; keeps every den > 0
        piv_row = [-v for v in piv_row]
        p = -p
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            den = dens[i]
            rows[i] = [(p * a - f * b) // den for a, b in zip(row, piv_row)]
            dens[i] = p
    rows[r] = piv_row
    dens[r] = p
    return p


def _bland(
    rows: list[list[int]], dens: list[int], basis: list[int], zrow: int, d: int
) -> tuple[str, int]:
    """Minimise the objective carried in row ``zrow`` over the columns
    before the artificials; returns a status and the last pivot."""
    m = len(basis)
    n_cols = len(rows[0]) - m - 1
    cap = 2000 + 40 * len(rows[0]) * (m + 2)
    iters = 0
    while True:
        iters += 1
        if iters > cap:
            raise InternalError("simplex iteration cap exceeded")
        z = rows[zrow]
        enter = next((j for j in range(n_cols) if z[j] < 0), -1)
        if enter < 0:
            return OPTIMAL, d
        leave = -1
        best_n = best_d = 0  # ratio best_n / best_d, both from the same row
        for i in range(m):
            a = rows[i][enter]
            if a <= 0:
                continue
            bi = rows[i][-1]
            if leave < 0 or bi * best_d < best_n * a or (
                bi * best_d == best_n * a and basis[i] < basis[leave]
            ):
                leave, best_n, best_d = i, bi, a
        if leave < 0:
            return UNBOUNDED, d
        d = _pivot(rows, dens, leave, enter, d)
        basis[leave] = enter


def solve(problem: LpProblem) -> LpOutcome:
    """Solve exactly; deterministic for identical input."""
    rows, row_dens, cols, (z2, z2_den) = _standard_form(problem)
    m = len(rows)
    n_cols = art0 = len(z2) - 1

    # Row i is taken times den_i, its unit artificial column standing for
    # den_i times the original artificial.  Phase 1 still minimises the sum
    # of the original artificials: minus the sum of the rows over their
    # denominators, an integer row over their lcm, zero on the artificials.
    lcm_den = lcm(*row_dens)
    z1 = [0] * (n_cols + 1)
    for row, den in zip(rows, row_dens):
        scale = lcm_den // den
        for j, v in enumerate(row):
            if v:
                z1[j] -= v * scale

    def widen(row):  # room for the artificial columns, before b
        return row[:-1] + [0] * m + row[-1:]

    tab = [widen(row) for row in rows]
    for i in range(m):
        tab[i][art0 + i] = 1
    tab.append(widen(z1))
    feasibility_only = not any(z2)
    if not feasibility_only:
        tab.append(widen(z2))
    dens = [1] * len(tab)
    basis = [art0 + i for i in range(m)]

    status, d = _bland(tab, dens, basis, m, 1)
    if status != OPTIMAL:
        raise InternalError("phase 1 cannot be unbounded")
    if tab[m][-1] < 0:  # minus the phase-1 optimum
        # Phase-1 duality: y_i = 1 - reduced cost of the original artificial
        # i, which is den_i times that of the scaled one.  Validity
        # (y.A <= 0, y.b > 0) holds by construction and is replayed by
        # verify_farkas in the certificate layer and the test suite.
        z_den = dens[m] * lcm_den
        y = [1 - Fraction(den * v, z_den) for den, v in zip(row_dens, tab[m][art0:])]
        return LpOutcome(status=INFEASIBLE, farkas=tuple(y))

    if not feasibility_only:
        # Drive leftover artificials out of the basis (they sit at value 0).
        # A row with no nonzero entry in a real column stays as it is: no
        # ratio test can pick it and no pivot changes it.
        for i in range(m):
            if basis[i] < art0:
                continue
            enter = next((j for j in range(n_cols) if tab[i][j]), -1)
            if enter >= 0:
                d = _pivot(tab, dens, i, enter, d)
                basis[i] = enter
        # The phase-2 row needs no re-expression in this basis: it starts at
        # zero on the artificial basis and rode along every pivot, and a
        # pivot zeroes the entering column in every other row, so it is zero
        # on every basic column already.
        if _bland(tab, dens, basis, m + 1, d)[0] == UNBOUNDED:
            return LpOutcome(status=UNBOUNDED)

    x = [Fraction(0)] * n_cols
    for i, col in enumerate(basis):
        if col < n_cols:
            x[col] = Fraction(tab[i][-1], dens[i])
    witness = tuple(
        [x[col] - x[col + 1] if lo is None else x[col] + lo for col, lo in cols]
    )
    # The min-form row's right-hand side reads minus its current value.
    optimum = Fraction(0)
    if not feasibility_only:
        optimum = Fraction(-tab[m + 1][-1], dens[m + 1] * z2_den)
    if problem.sense == "max":
        optimum = -optimum
    return LpOutcome(status=OPTIMAL, optimum=optimum, witness=witness)


def verify_witness(problem: LpProblem, witness: Sequence[Rat]) -> bool:
    """Exact feasibility of a point for the original problem."""
    if len(witness) != len(problem.objective):
        return False
    for x, (lo, hi) in zip(witness, problem.bounds):
        if lo is not None and x < lo:
            return False
        if hi is not None and x > hi:
            return False
    for con in problem.constraints:
        lhs = sum((a * x for a, x in zip(con.coeffs, witness)), Fraction(0))
        if con.relation == LE and lhs > con.rhs:
            return False
        if con.relation == GE and lhs < con.rhs:
            return False
        if con.relation == EQ and lhs != con.rhs:
            return False
    return True


def verify_farkas(problem: LpProblem, farkas: Sequence[Rat]) -> bool:
    """Replay an infeasibility certificate.

    ``farkas`` multiplies the rows of the internal equality form (original
    constraints first, then one row per finite upper bound, each negated
    when needed so its right-hand side is nonnegative); validity means the
    combination proves ``0 > 0`` over nonnegative variables:
    y.A <= 0 componentwise and y.b > 0.
    """
    rows, dens, _, (z, _) = _standard_form(problem)
    if len(farkas) != len(rows):
        return False
    total = [Fraction(0)] * len(z)
    for y, row, den in zip(farkas, rows, dens):
        w = Fraction(y) / den
        for j, v in enumerate(row):
            if v:
                total[j] += w * v
    return all(t <= 0 for t in total[:-1]) and total[-1] > 0
