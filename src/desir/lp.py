"""Exact rational linear programming.

A small two-phase primal simplex over arbitrary-precision rationals.  The
kernel never touches floating point: strict-versus-weak inequality
distinctions (``> 0`` against ``= 0``) carry all the semantics upstream,
so every pivot, every ratio test and every certificate is exact.

Scalars are ``fractions.Fraction`` (aliased ``Rat``).  Internally each
tableau row is kept as a list of integer numerators with one shared
positive denominator; a pivot then needs one gcd reduction per row
instead of one per entry, which is what makes the thousands of small
membership programs run by the upper layers cheap.  The problem goes
into that form in one pass (:func:`_standard_form`), with no
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
from math import gcd, lcm
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
# the row's unique lowest-terms form, the one every pivot restores, so the
# tableau and hence Bland's path depend only on the rational problem.
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


def _lowest(nums: list[int], den: int) -> tuple[list[int], int]:
    """Divide a row's numerators and positive denominator by their gcd."""
    g = den
    for v in nums:
        g = gcd(g, v)
        if g == 1:
            return nums, den
    return [v // g for v in nums], den // g


# ---------------------------------------------------------------------------
# Integer-numerator tableau
# ---------------------------------------------------------------------------


class _Tableau:
    """Rows of integer numerators, one positive denominator per row.

    Row layout: m constraint rows, then any number of objective rows that
    are updated by pivots but never pivoted on.  Column layout: structural
    + slack + artificial columns, and the right-hand side as last column.
    """

    __slots__ = ("nums", "dens", "basis", "m", "width")

    def __init__(self, nums: list[list[int]], dens: list[int], basis: list[int]):
        self.nums = nums
        self.dens = dens
        self.basis = basis
        self.m = len(basis)
        self.width = len(nums[0])

    def value(self, i: int, j: int) -> Rat:
        return Fraction(self.nums[i][j], self.dens[i])

    def pivot(self, r: int, c: int):
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
            # v'_ij = v_ij - v_ic * (n_rj / piv')  with piv' = new_den_r
            self.nums[i], self.dens[i] = _lowest(
                [a * new_den_r - fac * b for a, b in zip(self.nums[i], row_r)],
                self.dens[i] * new_den_r,
            )
        self.nums[r] = row_r
        self.dens[r] = new_den_r


def _bland(tab: _Tableau, zrow: int, allowed_cols: Sequence[int], cap: int) -> str:
    """Minimise the objective carried in row ``zrow``; returns a status."""
    rhs = tab.width - 1
    iters = 0
    while True:
        iters += 1
        if iters > cap:
            raise InternalError("simplex iteration cap exceeded")
        znums = tab.nums[zrow]
        enter = -1
        for j in allowed_cols:
            if znums[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best_n = best_d = 0  # ratio best_n / best_d, both from the same row
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


def solve(problem: LpProblem) -> LpOutcome:
    """Solve exactly; deterministic for identical input."""
    rows, dens, cols, (z2, z2_den) = _standard_form(problem)
    m = len(rows)
    n_cols = art0 = len(z2) - 1
    width = n_cols + m + 1

    # Phase-1 objective: minimise the artificial sum, reduced against the
    # all-artificial basis, i.e. minus the sum of the rows, zero on the
    # artificial columns.
    den_z = 1
    for den in dens:
        den_z = lcm(den_z, den)
    z1 = [0] * (n_cols + 1)
    for row, den in zip(rows, dens):
        scale = den_z // den
        for j, v in enumerate(row):
            if v:
                z1[j] -= v * scale

    def widen(row):  # room for the artificial columns, before b
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
    if tab.nums[m][-1] < 0:  # minus the phase-1 optimum
        # Phase-1 duality: y_i = 1 - reduced cost of artificial column i.
        # Validity (y.A <= 0, y.b > 0) holds by construction and is replayed
        # by verify_farkas in the certificate layer and the test suite.
        y = tuple([Fraction(1) - tab.value(m, art0 + i) for i in range(m)])
        return LpOutcome(status=INFEASIBLE, farkas=y)

    if not feasibility_only:
        # Drive leftover artificials out of the basis (they sit at value 0).
        # A row with no nonzero entry in a real column stays as it is: no
        # ratio test can pick it and no pivot changes it.
        for i in range(m):
            if tab.basis[i] < art0:
                continue
            enter = next((j for j in range(n_cols) if tab.nums[i][j]), -1)
            if enter >= 0:
                tab.pivot(i, enter)
                tab.basis[i] = enter
        # The phase-2 row needs no re-expression in this basis: it starts at
        # zero on the artificial basis and rode along every pivot, and a
        # pivot zeroes the entering column in every other row, so it is zero
        # on every basic column already.
        if _bland(tab, m + 1, range(n_cols), cap) == UNBOUNDED:
            return LpOutcome(status=UNBOUNDED)

    x = [Fraction(0)] * n_cols
    for i in range(m):
        if tab.basis[i] < n_cols:
            x[tab.basis[i]] = tab.value(i, width - 1)
    witness = tuple(
        [x[col] - x[col + 1] if lo is None else x[col] + lo for col, lo in cols]
    )
    # The min-form row's right-hand side reads minus its current value.
    optimum = Fraction(0) if feasibility_only else -tab.value(m + 1, width - 1)
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
