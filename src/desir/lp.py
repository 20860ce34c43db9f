"""Exact rational linear programming.

A small two-phase primal simplex over arbitrary-precision rationals.  The
kernel never touches floating point: strict-versus-weak inequality
distinctions (``> 0`` against ``= 0``) carry all the semantics upstream,
so every pivot, every ratio test and every certificate is exact.

Inputs are ints or Fractions (``Rat``), kept as given; floats are
rejected.  Internally the simplex keeps an integer dictionary: a row
stores its nonbasic columns only, a basic column being known without
storage, and pivots are fraction-free (Bareiss): each entry is a minor
of the integer start matrix, so its size stays polynomial in the input
and every pivot divides exactly, with no gcd.  Each row keeps its own
positive denominator; a row a pivot leaves alone is not rescaled until
a later pivot touches it (see :func:`_pivot`).  The problem goes into integer
rows in one pass (:func:`_standard_form`), so an all-integer problem
builds no Fraction before its outcome.

Pivoting uses Bland's rule (smallest eligible index), so the solver
terminates on every input and two runs on the same problem produce
bit-identical outcomes.  The phase-2 objective row is carried through
the phase-1 pivots, which keep it reduced against the basis, so phase 2
starts without re-expressing it.

Every variable is nonnegative: each question the kernel asks is about a
cone of desirable gambles, so its multipliers are x >= 0.  Outcomes carry
certificates: an optimal witness x >= 0 that satisfies every constraint
exactly, or, on infeasibility, Farkas multipliers y for the rows of the
internal equality form (:func:`_standard_form`), with y.A <= 0
componentwise and y.b > 0.  They are read off the phase-1 row,
at each row's slack or, on an ``=`` row, its artificial: the only
artificial columns a pivot keeps.
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


def _exact(value) -> Rat:
    """An int or a Fraction as given; anything else through :func:`rat`."""
    return value if type(value) is int or type(value) is Fraction else rat(value)


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
    """max/min c.x subject to rows (a.x rel b) and x >= 0.

    Numbers are ints or Fractions, stored as given; ``build`` rejects
    floats.
    """

    objective: tuple[Rat, ...]
    sense: str
    constraints: tuple[LinearConstraint, ...]

    @staticmethod
    def build(
        objective: Sequence,
        sense: str,
        constraints: Sequence[tuple[Sequence, str, object]],
    ) -> "LpProblem":
        # Tuples are built from lists: CPython then takes each from its free
        # tuples of the final size, while a tuple grown from a generator is
        # resized into place and, once freed, parks in that free list until
        # a full collection, which raises peak memory.
        obj = tuple([_exact(c) for c in objective])
        rows = tuple(
            [
                LinearConstraint(tuple([_exact(a) for a in coeffs]), rel, _exact(rhs))
                for coeffs, rel, rhs in constraints
            ]
        )
        return LpProblem(obj, sense, rows)

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
            cons.append(([1] * k, EQ, 1))
        return LpProblem.build([0] * k, "max", cons)

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise InputError(f"sense must be 'max' or 'min', got {self.sense!r}")
        n = len(self.objective)
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
# Every variable is already >= 0, so the internal rows are the problem's
# rows: each is normalised to a nonnegative right-hand side and receives
# slack/surplus plus one artificial variable, so the initial basis is the
# artificial identity and Farkas multipliers can be read off the phase-1
# reduced costs uniformly.
#
# Rows are built in one pass straight into integer numerators over the lcm
# of their entries' denominators.  That (numerators, denominator) pair is
# the row's unique lowest-terms form, so the integer tableau, and hence
# Bland's path, depend only on the rational problem.
# ---------------------------------------------------------------------------

_FLIP = {LE: GE, GE: LE, EQ: EQ}


def _standard_form(problem: LpProblem):
    """Integer rows of min c'.x subject to A'x' = b, x' >= 0, b >= 0.

    Returns ``(rows, dens, objective)``.  ``rows[i]`` holds the numerators
    of ``[A'_i | b_i]`` over the positive ``dens[i]``, constraint i negated
    when its right-hand side is negative; columns are the variables, then
    one slack/surplus per inequality row.  ``objective`` is ``(nums, den)``
    of the min-form row ``[c' | 0]``.
    """
    n = len(problem.objective)
    n_cols = n + sum(con.relation != EQ for con in problem.constraints)

    def integer_row(coeffs, rhs, sign):
        den = lcm(rhs.denominator, *[a.denominator for a in coeffs])
        row = [0] * (n_cols + 1)
        for j, a in enumerate(coeffs):
            if a:
                row[j] = sign * a.numerator * (den // a.denominator)
        row[-1] = sign * rhs.numerator * (den // rhs.denominator)
        return row, den

    rows, dens = [], []
    slack = n
    for con in problem.constraints:
        rel, sign = con.relation, 1
        if con.rhs < 0:
            sign, rel = -1, _FLIP[rel]
        row, den = integer_row(con.coeffs, con.rhs, sign)
        if rel != EQ:
            row[slack] = den if rel == LE else -den
            slack += 1
        rows.append(row)
        dens.append(den)
    objective = integer_row(problem.objective, 0, -1 if problem.sense == "max" else 1)
    return rows, dens, objective


# ---------------------------------------------------------------------------
# Fraction-free (Bareiss) dictionary
#
# ``rows[i]`` holds integers whose values are ``rows[i][j] / dens[i]``.  Row
# layout: m constraint rows, then the objective rows, which pivots update
# but never pick.  A row stores only the nonbasic columns, then the
# right-hand side; ``labels[j]`` names stored column j's variable:
# structural and slack variables below n_cols, row i's artificial
# n_cols + i.  A basic column is implicit: dens[i] on its row, 0 elsewhere.
# Artificials start basic; one that leaves keeps its column only on an
# ``=`` row, for the Farkas vector (see :func:`solve`).
# ---------------------------------------------------------------------------


def _pivot(rows, dens, labels, basis, r, c, d, drop) -> int:
    """Exchange basis[r] with stored column c's variable, ``d`` being the
    previous pivot; returns the new one.

    Bareiss maps every other row to ``(p * row - f * pivot_row) // d``, p
    the pivot and f the row's entry in column c, all rows then over p.
    Every entry is, up to sign, a minor of the integer start matrix
    (|det B| times B^-1 [A | b]), so the division is exact.  A row with
    f = 0 keeps its integers and its own denominator: Bareiss would scale
    it by p_k+1 / p_k, then p_k+2 / p_k+1, ..., each step integral, and
    the product telescopes to d / dens[i], so ``v * d // dens[i]`` is
    exact.  The pivot row is brought over d that way; a touched row takes
    the scale into its step, ``(p * row - f * pivot_row) // dens[i]``.
    Column c then holds the leaving variable, d on the scaled pivot row and
    0 elsewhere before the step, or is deleted if that variable is in drop.
    """
    piv_row = rows[r]
    if dens[r] != d:
        piv_row = [v * d // dens[r] for v in piv_row]
    p = piv_row[c]
    if p == 0:
        raise InternalError("pivot on zero entry")
    if p < 0:  # only when driving an artificial out; keeps every den > 0
        piv_row = [-v for v in piv_row]
        p, d = -p, -d
    piv_row[c] = d
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            row[c] = 0
            den = dens[i]
            rows[i] = [(p * a - f * b) // den for a, b in zip(row, piv_row)]
            dens[i] = p
    rows[r], dens[r] = piv_row, p
    basis[r], labels[c] = labels[c], basis[r]
    if labels[c] in drop:
        for row in rows:
            del row[c]
        del labels[c]
    return p


def _bland(rows, dens, labels, basis, zrow, d, n_cols, drop) -> tuple[str, int]:
    """Minimise the objective carried in row ``zrow`` over the variables
    below ``n_cols``; returns a status and the last pivot."""
    m = len(basis)
    cap = 2000 + 40 * (n_cols + m + 1) * (m + 2)
    iters = 0
    while True:
        iters += 1
        if iters > cap:
            raise InternalError("simplex iteration cap exceeded")
        label = min([j for j, v in zip(labels, rows[zrow]) if v < 0], default=n_cols)
        if label >= n_cols:
            return OPTIMAL, d
        enter = labels.index(label)
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
        d = _pivot(rows, dens, labels, basis, leave, enter, d, drop)


def solve(problem: LpProblem) -> LpOutcome:
    """Solve exactly; deterministic for identical input."""
    rows, row_dens, (z2, z2_den) = _standard_form(problem)
    m = len(rows)
    n_cols = art0 = len(z2) - 1

    # Row i is taken times den_i, its artificial standing for den_i times
    # the original artificial.  Phase 1 still minimises the sum of the
    # original artificials: minus the sum of the rows over their
    # denominators, an integer row over their lcm, zero on the artificials.
    lcm_den = lcm(*row_dens)
    z1 = [0] * (n_cols + 1)
    for row, den in zip(rows, row_dens):
        scale = lcm_den // den
        for j, v in enumerate(row):
            if v:
                z1[j] -= v * scale
    # Phase-1 duality: y_i = 1 - den_i * (reduced cost of artificial i), or
    # -sign * that of row i's slack, whose column is sign * den_i times the
    # artificial's.  farkas[i] = (label, k, y0): y_i = y0 - k * its cost.
    farkas = [(art0 + i, den, 1) for i, den in enumerate(row_dens)]
    s = len(problem.objective)  # first slack
    for i, row in enumerate(rows):
        if s < n_cols and row[s]:
            farkas[i] = (s, 1 if row[s] > 0 else -1, 0)
            s += 1
    drop = {art0 + i for i, (j, _, _) in enumerate(farkas) if j < n_cols}

    feasibility_only = not any(z2)
    tab = rows + [z1] + ([] if feasibility_only else [z2])
    dens = [1] * len(tab)
    labels = list(range(n_cols))
    basis = [art0 + i for i in range(m)]

    status, d = _bland(tab, dens, labels, basis, m, 1, n_cols, drop)
    if status != OPTIMAL:
        raise InternalError("phase 1 cannot be unbounded")
    if tab[m][-1] < 0:  # minus the phase-1 optimum
        # y.A <= 0 and y.b > 0 by construction; the test suite replays it.
        z, z_den = dict(zip(labels, tab[m])), dens[m] * lcm_den
        y = [y0 - Fraction(k * z.get(j, 0), z_den) for j, k, y0 in farkas]
        return LpOutcome(status=INFEASIBLE, farkas=tuple(y))

    if not feasibility_only:
        # Drive leftover artificials out of the basis (they sit at value 0).
        # A row with no nonzero entry in a real column stays as it is: no
        # ratio test can pick it and no pivot changes it.
        for i in range(m):
            if basis[i] < art0:
                continue
            enter = min([j for j, v in zip(labels, tab[i]) if v], default=n_cols)
            if enter < n_cols:
                d = _pivot(tab, dens, labels, basis, i, labels.index(enter), d, drop)
        # The phase-2 row needs no re-expression in this basis: it starts at
        # zero on the artificial basis and rode along every pivot, and a
        # pivot zeroes the entering column in every other row, so it is zero
        # on every basic column already.
        if _bland(tab, dens, labels, basis, m + 1, d, n_cols, drop)[0] == UNBOUNDED:
            return LpOutcome(status=UNBOUNDED)

    x = [Fraction(0)] * n_cols
    for i, col in enumerate(basis):
        if col < n_cols:
            x[col] = Fraction(tab[i][-1], dens[i])
    witness = tuple(x[: len(problem.objective)])
    # The min-form row's right-hand side reads minus its current value.
    optimum = Fraction(0)
    if not feasibility_only:
        optimum = Fraction(-tab[m + 1][-1], dens[m + 1] * z2_den)
    if problem.sense == "max":
        optimum = -optimum
    return LpOutcome(status=OPTIMAL, optimum=optimum, witness=witness)
