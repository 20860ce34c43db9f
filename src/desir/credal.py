"""Linear previsions and credal sets with exact vertex enumeration.

A linear prevision is an expectation functional, stored as an exact joint
mass function on the cells of a space.  A credal set is a polytope of
linear previsions, held in two coupled representations: an optional list
of homogeneous constraints P(g_i) >= 0 over the probability simplex (the
H-form) and the enumerated list of its vertices (the V-form).  Sets built
from constraints enumerate their vertices eagerly; sets built from points
(convex hulls, products, mixtures) keep only the V-form and answer
membership through exact linear programs.

Vertex enumeration is the desk-scale combinatorial method: every vertex
of {p >= 0, sum p = 1, G p >= 0} solves a square system picked from the
active-constraint pool, so trying all pools of the right size, solving
exactly and filtering feasibility finds them all.  A configurable bound
rejects instances where that would blow up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalError, ModelError, ResourceLimitError
from .lp import EQ, GE, OPTIMAL, LpProblem, Rat, rat, solve
from .spaces import (
    EventSet,
    Gamble,
    Space,
    omega_factor_space,
    prizes_factor_space,
)

#: Desk-scale cap on (cell count + constraint count) for vertex enumeration.
DESK_SCALE_BOUND = 24
#: Secondary hard cap on the number of candidate active sets tried.
ENUMERATION_BUDGET = 200_000


@dataclass(frozen=True)
class LinearPrevision:
    """An exact joint mass function, applied to gambles as an expectation."""

    space: Space
    mass: tuple[Rat, ...]  # row-major over cells

    def __post_init__(self):
        if len(self.mass) != self.space.n_cells:
            raise InputError("mass vector does not match the space")
        if any(v < 0 for v in self.mass):
            raise InputError("mass entries must be nonnegative")
        if sum(self.mass, Fraction(0)) != 1:
            raise InputError("mass must sum to one")

    @staticmethod
    def of(space: Space, values: Iterable) -> "LinearPrevision":
        return LinearPrevision(space, tuple(rat(v) for v in values))

    def __call__(self, f: Gamble) -> Rat:
        if f.space != self.space:
            raise InputError("gamble and prevision live on different spaces")
        total = Fraction(0)
        k = 0
        for row in f.values:
            for v in row:
                if v:
                    total += v * self.mass[k]
                k += 1
        return total

    def of_event(self, event: EventSet) -> Rat:
        m = self.space.n_prizes
        return sum((self.mass[i * m + j] for i, j in event.cells), Fraction(0))


def _gauss_solve(rows: list[list[Rat]], rhs: list[Rat]) -> Optional[list[Rat]]:
    """Solve a square exact system; None when singular."""
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


def enumerate_vertices(
    space: Space, constraints: Sequence[Gamble]
) -> tuple[LinearPrevision, ...]:
    """All vertices of {p in simplex : P(g) >= 0 for each constraint g}.

    Exact, duplicate-free, lexicographically ordered.  Raises
    ResourceLimitError past the desk-scale enumeration budget.
    """
    n = space.n_cells
    for g in constraints:
        if g.space != space:
            raise InputError("constraint gamble on the wrong space")
    pool: list[tuple[Rat, ...]] = []
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        pool.append(tuple(row))
    for g in constraints:
        pool.append(g.flat())

    if n + len(constraints) > DESK_SCALE_BOUND or (
        n >= 1 and math.comb(len(pool), n - 1) > ENUMERATION_BUDGET
    ):
        raise ResourceLimitError(
            f"vertex enumeration over {len(constraints)} constraints in "
            f"dimension {n} exceeds the desk-scale bound"
        )

    ones = [Fraction(1)] * n
    cflats = pool[n:]
    seen = set()
    for combo in itertools.combinations(range(len(pool)), n - 1):
        rows = [list(pool[k]) for k in combo]
        rows.append(ones)
        sol = _gauss_solve(rows, [Fraction(0)] * (n - 1) + [Fraction(1)])
        if sol is None:
            continue
        if any(v < 0 for v in sol):
            continue
        if any(
            sum((c * v for c, v in zip(cf, sol)), Fraction(0)) < 0 for cf in cflats
        ):
            continue
        seen.add(tuple(sol))
    return tuple(LinearPrevision(space, m) for m in sorted(seen))


def _hull_contains(vertices: Sequence[tuple[Rat, ...]], point: tuple[Rat, ...]) -> bool:
    if not vertices:
        return False
    out = solve(LpProblem.cone(vertices, EQ, point, convex=True))
    return out.status == OPTIMAL


@dataclass(frozen=True)
class CredalSet:
    """A nonempty polytope of linear previsions on one space."""

    space: Space
    vertices: tuple[LinearPrevision, ...]
    constraints: Optional[tuple[Gamble, ...]] = None

    def __post_init__(self):
        if not self.vertices:
            raise ModelError("credal set is empty")
        for v in self.vertices:
            if v.space != self.space:
                raise InputError("vertex on the wrong space")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_constraints(space: Space, constraints: Sequence[Gamble]) -> "CredalSet":
        cons = tuple(constraints)
        vertices = enumerate_vertices(space, cons)
        if not vertices:
            raise ModelError("the constraints cut the simplex down to nothing")
        cs = CredalSet(space, vertices, cons)
        cs._check_double_inclusion()
        return cs

    @staticmethod
    def from_vertices(space: Space, masses: Sequence) -> "CredalSet":
        pts = []
        for m in masses:
            p = m if isinstance(m, LinearPrevision) else LinearPrevision.of(space, m)
            if p.mass not in {q.mass for q in pts}:
                pts.append(p)
        pts.sort(key=lambda p: p.mass)
        # prune non-extreme points; removing one never changes the hull
        keep = list(pts)
        i = 0
        while i < len(keep):
            others = [p.mass for k, p in enumerate(keep) if k != i]
            if others and _hull_contains(others, keep[i].mass):
                del keep[i]
            else:
                i += 1
        return CredalSet(space, tuple(keep), None)

    @staticmethod
    def vacuous(space: Space) -> "CredalSet":
        return CredalSet.from_constraints(space, ())

    @staticmethod
    def point(space: Space, mass) -> "CredalSet":
        return CredalSet.from_vertices(space, [mass])

    def _check_double_inclusion(self):
        """V-form inside H-form exactly, and H-form inside the hull, the
        latter certified on the canonical direction family (coordinates
        and constraint rows, both signs)."""
        assert self.constraints is not None
        for v in self.vertices:
            for g in self.constraints:
                if v(g) < 0:
                    raise InternalError("enumerated vertex violates a constraint")
        n = self.space.n_cells
        directions: list[tuple[Rat, ...]] = []
        for j in range(n):
            row = [Fraction(0)] * n
            row[j] = Fraction(1)
            directions.append(tuple(row))
        for g in self.constraints:
            directions.append(g.flat())
        cons = [(list(g.flat()), GE, Fraction(0)) for g in self.constraints]
        cons.append(([Fraction(1)] * n, EQ, Fraction(1)))
        for d in directions:
            for sense in ("max", "min"):
                out = solve(LpProblem.build(list(d), sense, cons))
                if out.status != OPTIMAL:
                    raise InternalError("H-polytope optimisation failed")
                ext = (max if sense == "max" else min)(
                    sum((c * v for c, v in zip(d, p.mass)), Fraction(0))
                    for p in self.vertices
                )
                if ext != out.optimum:
                    raise InternalError(
                        "H-form and V-form disagree on a support direction"
                    )

    # -- queries ------------------------------------------------------

    def contains(self, p: LinearPrevision) -> bool:
        if p.space != self.space:
            raise InputError("prevision on the wrong space")
        if self.constraints is not None:
            return all(p(g) >= 0 for g in self.constraints)
        return _hull_contains([v.mass for v in self.vertices], p.mass)

    def lower(self, f: Gamble) -> Rat:
        return min(v(f) for v in self.vertices)

    def upper(self, f: Gamble) -> Rat:
        return max(v(f) for v in self.vertices)

    def is_linear(self) -> bool:
        return len(self.vertices) == 1

    def represents_complete(self, scope: str) -> bool:
        """Single-vertex tests for completeness of preferences/beliefs/values."""
        if scope == "preferences":
            return self.is_linear()
        if scope == "beliefs":
            return self.marginal_omega().is_linear()
        if scope == "values":
            return self.marginal_prizes().is_linear()
        raise InputError(f"unknown completeness scope {scope!r}")

    def lower_probability(self, event: EventSet) -> Rat:
        return min(v.of_event(event) for v in self.vertices)

    def conditional_natural_extension(self, f: Gamble, event: EventSet) -> Rat:
        """Vacuous below zero lower probability, else the Bayes lower bound.

        The linear-fractional minimum of P(Bf)/P(B) over the polytope is
        attained at a vertex, so scanning vertices is exact.
        """
        if event.is_empty():
            raise InputError("conditioning event is empty")
        if not event.is_state_cylinder():
            raise InputError("conditional natural extension updates on states only")
        if self.lower_probability(event) == 0:
            return f.min_over(event)
        bf = f.restricted_to(event)
        best: Optional[Rat] = None
        for v in self.vertices:
            pb = v.of_event(event)
            if pb == 0:
                continue
            val = v(bf) / pb
            if best is None or val < best:
                best = val
        if best is None:
            raise InternalError("positive lower probability but no mass on event")
        return best

    # -- marginals ----------------------------------------------------

    def marginal_omega(self) -> "CredalSet":
        factor = omega_factor_space(self.space)
        masses = []
        for v in self.vertices:
            m = self.space.n_prizes
            masses.append(
                tuple(
                    sum(v.mass[i * m : (i + 1) * m], Fraction(0))
                    for i in range(self.space.n_states)
                )
            )
        return CredalSet.from_vertices(factor, masses)

    def marginal_prizes(self) -> "CredalSet":
        factor = prizes_factor_space(self.space)
        m = self.space.n_prizes
        masses = []
        for v in self.vertices:
            masses.append(
                tuple(
                    sum(
                        (v.mass[i * m + j] for i in range(self.space.n_states)),
                        Fraction(0),
                    )
                    for j in range(m)
                )
            )
        return CredalSet.from_vertices(factor, masses)
