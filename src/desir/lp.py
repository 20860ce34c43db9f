"""Exact rational linear programming.

A small two-phase primal simplex over arbitrary-precision rationals.  The
kernel never touches floating point: strict-versus-weak inequality
distinctions (``> 0`` against ``= 0``) carry all the semantics upstream,
so every pivot, every ratio test and every certificate is exact.

Scalars are ``fractions.Fraction`` (aliased ``Rat``).  Internally each
tableau row is kept as a list of integer numerators with one shared
positive denominator; a pivot then needs one gcd reduction per row
instead of one per entry, which is what makes the thousands of small
membership programs run by the upper layers cheap.

Pivoting uses Bland's rule (smallest eligible index), so the solver
terminates on every input and two runs on the same problem produce
bit-identical outcomes.

Outcomes carry certificates: an optimal witness that satisfies every
constraint exactly, or, on infeasibility, Farkas multipliers for the
internal standard form (see :func:`verify_farkas`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
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
        obj = tuple(rat(c) for c in objective)
        rows = tuple(
            LinearConstraint(tuple(rat(a) for a in coeffs), rel, rat(rhs))
            for coeffs, rel, rhs in constraints
        )
        if bounds is None:
            bnds: tuple[tuple[Optional[Rat], Optional[Rat]], ...] = tuple(
                (Fraction(0), None) for _ in obj
            )
        else:
            bnds = tuple(
                (None if lo is None else rat(lo), None if hi is None else rat(hi))
                for lo, hi in bounds
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
# Internal standard form
#
# Variables are shifted / split so every internal variable is >= 0; finite
# upper bounds become extra rows.  Every row is normalised to a nonnegative
# right-hand side and receives slack/surplus plus one artificial variable,
# so the initial basis is the artificial identity and Farkas multipliers can
# be read off the phase-1 reduced costs uniformly.
# ---------------------------------------------------------------------------


@dataclass
class _Internal:
    n_struct: int  # structural internal columns
    col_of_var: list  # per original var: ("shift", col, offset) | ("split", col+, col-)
    rows: list  # list of (coeffs: list[Rat], relation, rhs: Rat) pre-normalisation
    obj: list  # internal min-objective over structural columns
    obj_const: Rat  # constant offset contributed by bound shifts
    sense_flip: bool  # True when the original problem was a max


def _internalize(problem: LpProblem) -> _Internal:
    n = len(problem.objective)
    col_of_var = []
    n_struct = 0
    shifts: list[tuple[int, Rat]] = []  # (original var, offset) for rhs fixups
    extra_rows: list[tuple[list[Rat], str, Rat]] = []

    # Note: an empty box (hi < lo) flows through as an infeasible bound
    # row, so the certificate machinery covers that case uniformly.
    for j, (lo, hi) in enumerate(problem.bounds):
        if lo is None:
            col_of_var.append(("split", n_struct, n_struct + 1))
            n_struct += 2
        else:
            col_of_var.append(("shift", n_struct, lo))
            if lo != 0:
                shifts.append((j, lo))
            n_struct += 1

    def expand(coeffs: Sequence[Rat]) -> list[Rat]:
        out = [Fraction(0)] * n_struct
        for j, a in enumerate(coeffs):
            if not a:
                continue
            kind = col_of_var[j]
            if kind[0] == "shift":
                out[kind[1]] += a
            else:
                out[kind[1]] += a
                out[kind[2]] -= a
        return out

    rows = []
    for con in problem.constraints:
        rhs = con.rhs
        for j, off in shifts:
            rhs -= con.coeffs[j] * off
        rows.append((expand(con.coeffs), con.relation, rhs))

    # Finite upper bounds: x'_j <= hi - lo  (or x+ - x- <= hi for free vars).
    for j, (lo, hi) in enumerate(problem.bounds):
        if hi is None:
            continue
        unit = [Fraction(0)] * n
        unit[j] = Fraction(1)
        rhs = hi if lo is None else hi - lo
        extra_rows.append((expand(unit), LE, rhs))
    rows.extend(extra_rows)

    sense_flip = problem.sense == "max"
    obj = expand(problem.objective)
    obj_const = Fraction(0)
    for j, off in shifts:
        obj_const += problem.objective[j] * off
    if sense_flip:
        obj = [-c for c in obj]
        obj_const = -obj_const
    return _Internal(n_struct, col_of_var, rows, obj, obj_const, sense_flip)


def _standard_matrix(internal: _Internal):
    """Equality standard form: columns = structural + slack/surplus, b >= 0.

    Returns (columns_by_row, b, slack_col_of_row) where each row i reads
    sum_j A[i][j] x_j = b[i] over nonnegative x.
    """
    m = len(internal.rows)
    n = internal.n_struct
    n_slack = sum(1 for _, rel, _ in internal.rows if rel != EQ)
    a = [[Fraction(0)] * (n + n_slack) for _ in range(m)]
    b = []
    slack_at = n
    for i, (coeffs, rel, rhs) in enumerate(internal.rows):
        sign = 1
        if rhs < 0:
            sign = -1
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        for j, c in enumerate(coeffs):
            a[i][j] = sign * c
        if rel == LE:
            a[i][slack_at] = Fraction(1)
            slack_at += 1
        elif rel == GE:
            a[i][slack_at] = Fraction(-1)
            slack_at += 1
        b.append(rhs)
    return a, b


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

    def __init__(self, rows_rat: list[list[Rat]], n_obj_rows: int):
        self.nums: list[list[int]] = []
        self.dens: list[int] = []
        for row in rows_rat:
            den = 1
            for v in row:
                d = v.denominator
                den = den * d // gcd(den, d)
            nums = [v.numerator * (den // v.denominator) for v in row]
            self._push_reduced(nums, den)
        self.m = len(rows_rat) - n_obj_rows
        self.width = len(rows_rat[0]) if rows_rat else 0
        self.basis = []

    def _push_reduced(self, nums: list[int], den: int):
        g = den
        for v in nums:
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            nums = [v // g for v in nums]
            den //= g
        self.nums.append(nums)
        self.dens.append(den)

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
        new_den_r = piv
        g = new_den_r
        for v in row_r:
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            row_r = [v // g for v in row_r]
            new_den_r //= g
        for i in range(len(self.nums)):
            if i == r:
                continue
            fac = self.nums[i][c]
            if fac == 0:
                continue
            row_i = self.nums[i]
            den_i = self.dens[i]
            # v'_ij = v_ij - v_ic * (n_rj / piv')  with piv' = new_den_r
            new = [
                a * new_den_r - fac * b
                for a, b in zip(row_i, row_r)
            ]
            den = den_i * new_den_r
            g = den
            for v in new:
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                new = [v // g for v in new]
                den //= g
            self.nums[i] = new
            self.dens[i] = den
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
    internal = _internalize(problem)
    a, b = _standard_matrix(internal)
    m = len(a)
    n_cols = len(a[0]) if m else internal.n_struct
    art0 = n_cols
    width = n_cols + m + 1

    if m == 0:
        # No constraints: optimum exists iff no improving direction.
        return _solve_unconstrained(problem, internal)

    feasibility_only = not any(internal.obj)
    n_obj_rows = 1 if feasibility_only else 2

    rows_rat: list[list[Rat]] = []
    for i in range(m):
        row = list(a[i]) + [Fraction(0)] * m + [b[i]]
        row[art0 + i] = Fraction(1)
        rows_rat.append(row)
    if not feasibility_only:
        z2 = [Fraction(0)] * width
        for j in range(internal.n_struct):
            z2[j] = internal.obj[j]
        rows_rat.append(z2)

    tab = _Tableau(rows_rat, n_obj_rows=n_obj_rows - 1)
    # Phase-1 objective: minimise the artificial sum, reduced against the
    # all-artificial basis; built row-wise in integers from the tableau.
    den_z = 1
    for i in range(m):
        d = tab.dens[i]
        den_z = den_z * d // gcd(den_z, d)
    z1_nums = [0] * width
    for i in range(m):
        scale = den_z // tab.dens[i]
        row = tab.nums[i]
        for j in range(width):
            v = row[j]
            if v:
                z1_nums[j] -= v * scale
    for i in range(m):
        z1_nums[art0 + i] = 0  # artificial columns carry cost 1 - y_i... start reduced
    tab._push_reduced(z1_nums, den_z)
    if not feasibility_only:
        # keep z2 as the last row
        tab.nums[m], tab.nums[m + 1] = tab.nums[m + 1], tab.nums[m]
        tab.dens[m], tab.dens[m + 1] = tab.dens[m + 1], tab.dens[m]

    tab.basis = [art0 + i for i in range(m)]
    z1_row, z2_row = m, m + 1
    cap = 2000 + 40 * width * (m + 2)

    status = _bland(tab, z1_row, range(n_cols), cap)
    if status != OPTIMAL:
        raise InternalError("phase 1 cannot be unbounded")
    phase1_value = -tab.value(z1_row, width - 1)
    if phase1_value > 0:
        # Phase-1 duality: y_i = 1 - reduced cost of artificial column i.
        # Validity (y.A <= 0, y.b > 0) holds by construction and is replayed
        # by verify_farkas in the certificate layer and the test suite.
        y = tuple(Fraction(1) - tab.value(z1_row, art0 + i) for i in range(m))
        return LpOutcome(status=INFEASIBLE, farkas=y)

    if not feasibility_only:
        # Drive leftover artificials out of the basis (they sit at value 0).
        drop_rows = []
        for i in range(tab.m):
            if tab.basis[i] < art0:
                continue
            enter = -1
            for j in range(n_cols):
                if tab.nums[i][j] != 0:
                    enter = j
                    break
            if enter < 0:
                drop_rows.append(i)
            else:
                tab.pivot(i, enter)
                tab.basis[i] = enter
        for i in reversed(drop_rows):
            del tab.nums[i]
            del tab.dens[i]
            del tab.basis[i]
            tab.m -= 1
            z1_row -= 1
            z2_row -= 1

        # Express the phase-2 objective in terms of the current basis.
        for i in range(tab.m):
            bcol = tab.basis[i]
            fac = tab.value(z2_row, bcol)
            if fac == 0:
                continue
            den_z = tab.dens[z2_row]
            den_i = tab.dens[i]
            new = [
                zn * fac.denominator * den_i - fac.numerator * rn * den_z
                for zn, rn in zip(tab.nums[z2_row], tab.nums[i])
            ]
            den = den_z * fac.denominator * den_i
            g = den
            for v in new:
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                new = [v // g for v in new]
                den //= g
            tab.nums[z2_row] = new
            tab.dens[z2_row] = den

        status = _bland(tab, z2_row, range(n_cols), cap)
        if status == UNBOUNDED:
            return LpOutcome(status=UNBOUNDED)

    x_int = [Fraction(0)] * n_cols
    for i in range(tab.m):
        if tab.basis[i] < n_cols:
            x_int[tab.basis[i]] = tab.value(i, width - 1)
    witness = []
    for kind in internal.col_of_var:
        if kind[0] == "shift":
            witness.append(x_int[kind[1]] + kind[2])
        else:
            witness.append(x_int[kind[1]] - x_int[kind[2]])
    witness_t = tuple(witness)
    if feasibility_only:
        optimum = Fraction(0)
    else:
        value_min = -tab.value(z2_row, width - 1) + internal.obj_const
        optimum = -value_min if internal.sense_flip else value_min
    return LpOutcome(status=OPTIMAL, optimum=optimum, witness=witness_t)


def _solve_unconstrained(problem: LpProblem, internal: _Internal) -> LpOutcome:
    # Only bounds.  Each variable optimises independently.
    total = Fraction(0)
    witness = []
    for c, (lo, hi) in zip(problem.objective, problem.bounds):
        want_high = (c > 0) == (problem.sense == "max")
        if c == 0:
            pick = lo if lo is not None else (hi if hi is not None else Fraction(0))
        elif want_high:
            if hi is None:
                return LpOutcome(status=UNBOUNDED)
            pick = hi
        else:
            if lo is None:
                return LpOutcome(status=UNBOUNDED)
            pick = lo
        witness.append(pick)
        total += c * pick
    return LpOutcome(status=OPTIMAL, optimum=total, witness=tuple(witness))


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


def _farkas_ok(a, b, y) -> bool:
    m = len(a)
    if len(y) != m:
        return False
    n = len(a[0]) if m else 0
    for j in range(n):
        if sum((y[i] * a[i][j] for i in range(m)), Fraction(0)) > 0:
            return False
    return sum((y[i] * b[i] for i in range(m)), Fraction(0)) > 0


def verify_farkas(problem: LpProblem, farkas: Sequence[Rat]) -> bool:
    """Replay an infeasibility certificate.

    ``farkas`` multiplies the rows of the internal equality form (original
    constraints first, then one row per finite upper bound); validity means
    the combination proves ``0 > 0`` over nonnegative variables:
    y.A <= 0 componentwise and y.b > 0.
    """
    internal = _internalize(problem)
    a, b = _standard_matrix(internal)
    return _farkas_ok(a, b, tuple(farkas))
