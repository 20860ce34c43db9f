"""Linear previsions and credal sets with exact vertex enumeration.

A linear prevision is an expectation functional, stored as an exact joint
mass function on the cells of a space.  A credal set is a polytope of
linear previsions, held in two coupled representations: an optional list
of homogeneous constraints P(g_i) >= 0 over the probability simplex (the
H-form) and its vertices (the V-form).  Sets built from constraints
enumerate their vertices eagerly; sets built from points (convex hulls,
marginals, mixtures) keep only the V-form and answer membership through
exact linear programs.  Building one from points prunes them to the
extreme points output-sensitively (Clarkson): each point is tested
against the extreme points found so far, and each failed test exposes a
new one, so a hull LP has at most as many columns as the set has
vertices, not one per point.  Strong products need no pruning.

Every envelope query is a vertex scan: a lower prevision, the generalized
Bayes rule and the membership tests of the strict and augmented cones all
attain their extremes at a vertex.  A credal set therefore holds its
vertices as one integer matrix, every mass a numerator over one common
denominator, in lowest terms.  A query turns its gamble into integer
numerators over the gamble's own lcm, takes one integer dot product per
vertex, compares by integer (cross-)multiplication and builds a single
Fraction at the end, so every answer is the exact rational the Fraction
scan gives, at machine-integer cost per vertex.  Lower and upper
previsions and the minimiser scan each row's nonzero columns in its own
lowest terms, derived once: an enumerated vertex has few nonzero masses
and a denominator of a few bits, the common one up to hundreds.
Enumeration, pruning (which marginals enter with integer column sums)
and products work on these rows too; linear previsions are built only at
the boundary: from outside input, and as the vertex list, on first use.

Vertex enumeration is integer double description (Motzkin et al. 1953):
the vertices are the extreme rays of {p >= 0, G p >= 0} scaled to sum
one, and each constraint row in turn keeps the rays on its side and adds
one primitive integer ray on each edge it cuts, adjacency being a test
on zero-set bit masks.  The one bound, ENUMERATION_BUDGET, caps C(n + k,
n - 1), which bounds every intermediate vertex count, and raises
ResourceLimitError past it before any arithmetic.

Every enumerated set is checked against its H-form on the support
directions (plus or minus each cell and each constraint row), with LP
duality and no LP: min over the H-form set of P(h) is the largest t with
h - t - sum y_k g_k >= 0 on every cell for some y >= 0, so a dual y
proves that the vertex minimum t is the H-form minimum.  y = 0 serves
when h >= t everywhere; otherwise complementary slackness gives y at a
nondegenerate minimising vertex from one small integer solve over its
support and tight rows.  Only a direction whose minimisers are all
degenerate falls back to the H-form LP.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalError, ModelError, ResourceLimitError
from .lp import EQ, GE, OPTIMAL, LpOutcome, LpProblem, Rat, rat, solve
from .spaces import (
    EventSet,
    Gamble,
    Space,
    omega_factor_space,
    prizes_factor_space,
)

#: Cap on C(n + k, n - 1), the active-set count that bounds every vertex list.
ENUMERATION_BUDGET = 200_000


@dataclass(frozen=True)
class LinearPrevision:
    """An exact joint mass function, applied to gambles as an expectation."""

    space: Space
    mass: tuple[Rat, ...]  # row-major over cells

    def __post_init__(self):
        _check_mass(self.space, self.mass)

    @staticmethod
    def of(space: Space, values: Iterable) -> "LinearPrevision":
        # from a list: see LpProblem.build on tuples grown from generators
        return LinearPrevision(space, tuple([rat(v) for v in values]))

    def __call__(self, f: Gamble) -> Rat:
        if f.space != self.space:
            raise InputError("gamble and prevision live on different spaces")
        cells = itertools.chain.from_iterable(f.values)
        return sum((v * p for v, p in zip(cells, self.mass) if p and v), Fraction(0))


def _check_mass(space: Space, mass: Sequence[Rat]):
    if len(mass) != space.n_cells:
        raise InputError("mass vector does not match the space")
    if any(v < 0 for v in mass):
        raise InputError("mass entries must be nonnegative")
    if sum(mass, Fraction(0)) != 1:
        raise InputError("mass must sum to one")


def _integer_row(values: Sequence[Rat]) -> tuple[list[int], int]:
    """(nums, d) with values[k] == nums[k] / d, d the lcm of the denominators."""
    d = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) for v in values], d


def _bareiss_solve(m: list[list[int]]) -> Optional[tuple[list[int], int]]:
    """Fraction-free Gauss-Jordan (Bareiss) on an integer [A | b], in place:
    (y, d) with A y = d b and d = +-det A, or None when A is singular.
    Every division is exact, since every entry is a minor of [A | b]."""
    n = len(m)
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return None
        m[k], m[piv] = m[piv], m[k]
        pk = m[k]
        d = pk[k]
        for i, row in enumerate(m):
            if i != k:
                a = row[k]
                for j in range(k + 1, n + 1):
                    row[j] = (d * row[j] - a * pk[j]) // prev
        prev = d
    return [row[n] for row in m], prev


def enumerate_vertices(
    space: Space, constraints: Sequence[Gamble]
) -> tuple[tuple[int, ...], ...]:
    """All vertices of {p in simplex : P(g) >= 0 for each constraint g},
    as integer rows over one common denominator, each summing to it:
    distinct, in lexicographic order and in lowest terms.  Each vertex is
    y / sum(y) with gcd(y) = 1, the denominator the lcm of the sums; a
    prime power dividing it divides some sum s as far, so that row
    y * (lcm / s) has an entry prime to it.  Empty when no vertex exists.

    The vertices are the extreme rays y of {p >= 0, G p >= 0}, found by
    double description: from the n unit rays, each row g keeps the rays
    with g.y >= 0 and adds s+ y- - s- y+ (over its gcd) on each edge from
    a ray with g.y = s+ > 0 to one with g.y = s- < 0.  By the adjacency
    lemma (Motzkin et al. 1953; Fukuda & Prodon 1996) these are all the
    new extreme rays, and two rays span an edge iff the rows vanishing on
    both, at least n - 2 of them, vanish on no third ray.

    Raises ResourceLimitError, before any arithmetic, when C(n + k, n - 1)
    exceeds ENUMERATION_BUDGET.  A vertex solves n - 1 active rows and
    sum p = 1, so the first i rows leave at most C(n + i, n - 1) <=
    C(n + k, n - 1) vertices: the check bounds every ray list too.
    """
    n = space.n_cells
    for g in constraints:
        if g.space != space:
            raise InputError("constraint gamble on the wrong space")
    k = len(constraints)
    candidates = math.comb(n + k, n - 1)
    if candidates > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"vertex enumeration in dimension {n} with {k} constraint(s) "
            f"tries {candidates} active sets, over the budget of {ENUMERATION_BUDGET}"
        )
    # (ray, zero set): unit row j is bit j, constraint row i is bit n + i
    full = (1 << n) - 1
    rays = [([int(i == j) for i in range(n)], full ^ (1 << j)) for j in range(n)]
    for i, g in enumerate(constraints):
        # positive integer rescaling keeps every sign and every zero set
        row = _integer_row(g.flat())[0]
        bit = 1 << (n + i)
        signed = [(r, z, sum(map(operator.mul, row, r))) for r, z in rays]
        rays = [(r, z if s else z | bit) for r, z, s in signed if s >= 0]
        neg = [t for t in signed if t[2] < 0]
        for rp, zp, sp in [t for t in signed if t[2] > 0]:
            for rn, zn, sn in neg:
                z = zp & zn
                # zero sets of distinct extreme rays are incomparable, so
                # only the pair itself holds z
                if z.bit_count() < n - 2 or any(
                    m & z == z and m != zp and m != zn for _, m, _ in signed
                ):
                    continue
                y = [sp * a - sn * b for a, b in zip(rn, rp)]
                d = math.gcd(*y)
                rays.append(([v // d for v in y], z | bit))
    sums = [sum(r) for r, _ in rays]
    den = math.lcm(*sums)
    rows = [tuple([x * (den // s) for x in r]) for (r, _), s in zip(rays, sums)]
    return tuple(sorted(rows))


def _hull_lp(points: Sequence[Sequence], target: Sequence) -> LpOutcome:
    """The hull LP: is ``target`` a convex combination of ``points``?"""
    return solve(LpProblem.cone(points, EQ, target, convex=True))


@dataclass(frozen=True)
class CredalSet:
    """A nonempty polytope of linear previsions on one space.

    ``rows[k][c] / den`` is vertex k's mass on cell c: the integer matrix
    every scan runs on.  Invariant: the rows are distinct, extreme, in
    lexicographic order and each sums to ``den``, and gcd(den, every
    entry) = 1.  That lowest-terms matrix is unique to the polytope, so
    sets with the same vertices and constraints compare and hash equal.
    Both constructors and ``products.strong_product`` guarantee the
    invariant; ``minimizer`` and ``products.is_strong_product`` rely on it.
    """

    space: Space
    rows: tuple[tuple[int, ...], ...]
    den: int
    constraints: Optional[tuple[Gamble, ...]] = None

    def __post_init__(self):
        if not self.rows:
            raise ModelError("credal set is empty")

    @functools.cached_property
    def vertices(self) -> tuple[LinearPrevision, ...]:
        """The vertices as linear previsions, in row order, built on first use."""
        den = self.den
        masses = [tuple([Fraction(x, den) for x in row]) for row in self.rows]
        return tuple([LinearPrevision(self.space, m) for m in masses])

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_constraints(space: Space, constraints: Sequence[Gamble]) -> "CredalSet":
        cons = tuple(constraints)
        rows = enumerate_vertices(space, cons)
        if not rows:
            raise ModelError("the constraints cut the simplex down to nothing")
        cs = CredalSet(space, rows, sum(rows[0]), cons)
        cs._check_double_inclusion()
        return cs

    @staticmethod
    def from_vertices(
        space: Space, masses: Sequence, den: Optional[int] = None
    ) -> "CredalSet":
        """The convex hull of finitely many previsions, kept as its extreme
        points in lexicographic order.

        The boundary checks the masses and makes one integer matrix; with
        ``den``, ``masses`` are such rows (the marginals' column sums).  The
        core raises InternalError unless each row is nonnegative and sums to
        ``den``, and sorts the distinct rows in lowest terms.

        Clarkson's output-sensitive pruning.  The distinct points are
        tested in order against E, the extreme points found so far, with
        one hull LP.  A feasible LP proves the point non-extreme.  An
        infeasible one yields a Farkas direction d with d.p > d.e for
        every e in E; the lexicographically largest maximiser of d over
        all points is then a new extreme point: the maximisers span a face
        of the hull, the lexicographic maximum of finitely many points is
        an extreme point of their hull, and an extreme point of a face is
        one of the polytope.  It joins E and the point is tested again.
        Every LP has at most h - 1 columns, h the number of vertices kept,
        and there are fewer LPs than points.  Hull LPs take the integer rows
        as they are, the maximiser is an integer argmax, and one gcd puts
        the kept rows in lowest terms.
        """
        if den is None:
            points = []
            for m in masses:
                if isinstance(m, LinearPrevision):
                    if m.space != space:
                        raise InputError("vertex on the wrong space")
                    mass = m.mass
                else:
                    mass = tuple([rat(v) for v in m])
                    _check_mass(space, mass)
                points.append(mass)
            den = math.lcm(*[x.denominator for p in points for x in p])
            masses = [[x.numerator * (den // x.denominator) for x in p] for p in points]
        n = space.n_cells
        if any(len(r) != n or min(r) < 0 or sum(r) != den for r in masses):
            raise InternalError("hull points are not masses over their denominator")
        g = math.gcd(den, *itertools.chain.from_iterable(masses))
        rows = sorted({tuple([x // g for x in r]) for r in masses})
        den //= g
        kept: list[int] = []
        is_kept = [False] * len(rows)
        for i, row in enumerate(rows):
            while not is_kept[i]:
                if kept:
                    out = _hull_lp([rows[k] for k in kept], row)
                    if out.status == OPTIMAL:
                        break
                    # every row has a nonnegative right-hand side, so the
                    # Farkas vector multiplies the rows as written
                    d = _integer_row(out.farkas[:n])[0]
                else:
                    d = [0] * n  # nothing kept yet: the lexicographic maximum
                vals = [sum(map(operator.mul, d, r)) for r in rows]
                # ties to the largest index: the rows are sorted
                best = len(vals) - 1 - vals[::-1].index(max(vals))
                if is_kept[best]:
                    raise InternalError("hull pruning exposed a kept point again")
                is_kept[best] = True
                kept.append(best)
        g = math.gcd(den, *[x for k in kept for x in rows[k]])
        kept_rows = tuple([tuple([x // g for x in rows[k]]) for k in sorted(kept)])
        return CredalSet(space, kept_rows, den // g)

    @staticmethod
    def vacuous(space: Space) -> "CredalSet":
        return CredalSet.from_constraints(space, ())

    @staticmethod
    def point(space: Space, mass) -> "CredalSet":
        return CredalSet.from_vertices(space, [mass])

    def _check_double_inclusion(self):
        """Necessary-condition self-check of the enumeration, not a proof:
        every vertex satisfies every constraint, and on each canonical
        direction h (plus or minus a unit cell or a constraint row) the
        H-form minimum equals the vertex minimum t.  Completeness comes
        from the enumeration itself: by the adjacency lemma every
        double-description cut keeps each old vertex on its side and adds
        a ray on every edge it crosses, so no vertex is missed.

        The vertices are feasible, so the H-form minimum is at most t.  A
        dual y >= 0 with h - t - sum y_k g_k >= 0 on every cell proves it
        at least t (weak duality), with no LP.  y = 0 serves when h >= t
        on every cell.  Otherwise complementary slackness fixes y at a
        nondegenerate minimiser v, with support S and tight rows T,
        |T| = |S| - 1: y_k = 0 off T, and h - t - sum y_k g_k vanishes on
        S, one |S|-square integer system in (y_T, t).  Its solution is
        unique, so if it fails the sign test v is not optimal over the
        H-form set and a vertex is missing.  Only a direction whose
        minimisers are all degenerate (or singular) solves the H-form LP.
        Zero rows and positive multiples of an earlier row join no T: their
        multipliers fold into the earlier row's (-g stays: g, -g is an
        equality).
        """
        assert self.constraints is not None
        n = self.space.n_cells
        rows, den = self.rows, self.den
        gs = [_integer_row(g.flat())[0] for g in self.constraints]
        keys = [tuple([x // d for x in g]) if (d := math.gcd(*g)) else () for g in gs]
        distinct = [k for k, key in enumerate(keys) if key and key not in keys[:k]]
        # every vertex's P(g_k), numerators over den times g_k's scale
        cvals = [[sum(map(operator.mul, r, g)) for r in rows] for g in gs]
        if any(min(vals) < 0 for vals in cvals):
            raise InternalError("enumerated vertex violates a constraint")
        supports = [[j for j, x in enumerate(r) if x] for r in rows]
        tights = [[k for k in distinct if not cvals[k][i]] for i in range(len(rows))]

        def certified(h, vals) -> bool:
            lo = min(vals)  # t = lo / den
            if all(x * den >= lo for x in h):
                return True
            for i in [i for i, v in enumerate(vals) if v == lo]:
                support, tight = supports[i], tights[i]
                if len(tight) != len(support) - 1:
                    continue  # degenerate, or no vertex at all
                sol = _bareiss_solve(
                    [[gs[k][j] for k in tight] + [1, h[j]] for j in support]
                )
                if sol is None:
                    continue
                y, det = sol
                if det < 0:
                    y, det = [-x for x in y], -det
                *ys, t = y  # the multipliers y_T and t, over det
                if min(ys, default=0) >= 0 and all(
                    det * h[j] - t >= sum(a * gs[k][j] for a, k in zip(ys, tight))
                    for j in range(n)
                ):
                    return True
                raise InternalError("H-form and V-form disagree on a support direction")
            return False

        # (direction as integers, vertex values as numerators over den)
        units = (
            ([int(i == j) for i in range(n)], [r[j] for r in rows]) for j in range(n)
        )
        cons = [(list(g.flat()), GE, 0) for g in self.constraints]
        cons.append(([1] * n, EQ, 1))
        for h, vals in itertools.chain(units, zip(gs, cvals)):
            # the maximum of h is minus the minimum of -h
            for d, dvals in ((h, vals), ([-x for x in h], [-v for v in vals])):
                if certified(d, dvals):
                    continue
                out = solve(LpProblem.build(d, "min", cons))
                if out.status != OPTIMAL:
                    raise InternalError("H-polytope optimisation failed")
                if Fraction(min(dvals), den) != out.optimum:
                    raise InternalError(
                        "H-form and V-form disagree on a support direction"
                    )

    # -- queries ------------------------------------------------------

    def contains(self, p: LinearPrevision) -> bool:
        if p.space != self.space:
            raise InputError("prevision on the wrong space")
        if self.constraints is not None:
            return all(p(g) >= 0 for g in self.constraints)
        return _hull_lp(self.rows, [x * self.den for x in p.mass]).status == OPTIMAL

    @functools.cached_property
    def _scan(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
        """The scan form, built on first use: per row, its nonzero columns,
        their masses and its own denominator, in the row's lowest terms."""
        out = []
        for row in self.rows:
            cols = tuple([c for c, x in enumerate(row) if x])
            g = math.gcd(self.den, *[row[c] for c in cols])
            out.append((cols, tuple([row[c] // g for c in cols]), self.den // g))
        return tuple(out)

    def _least(self, f: Gamble, sign: int) -> tuple[int, Rat]:
        """The first row with the least sign * P(f), and that P(f): one
        sparse integer dot product per row, compared by cross-multiplication."""
        if f.space != self.space:
            raise InputError("gamble and prevision live on different spaces")
        nums, d = _integer_row(f.flat())
        get = (nums if sign > 0 else [-x for x in nums]).__getitem__
        mul = operator.mul
        best, best_num, best_den = 0, None, 1
        for k, (cols, masses, den) in enumerate(self._scan):
            num = sum(map(mul, masses, map(get, cols)))
            if best_num is None or num * best_den < best_num * den:
                best, best_num, best_den = k, num, den
        return best, Fraction(sign * best_num, best_den * d)

    def _event_columns(self, event: EventSet) -> list[int]:
        if event.space != self.space:
            raise InputError("event and prevision live on different spaces")
        m = self.space.n_prizes
        return [i * m + j for i, j in event.cells]

    def lower(self, f: Gamble) -> Rat:
        return self._least(f, 1)[1]

    def upper(self, f: Gamble) -> Rat:
        return self._least(f, -1)[1]

    def centroid(self) -> LinearPrevision:
        """The mean of the vertices: P(f) > 0 whenever every vertex has
        P(f) >= 0 and some vertex has P(f) > 0."""
        total = len(self.rows) * self.den
        return LinearPrevision(
            self.space, tuple([Fraction(sum(col), total) for col in zip(*self.rows)])
        )

    def minimizer(self, f: Gamble) -> LinearPrevision:
        """The vertex with the least P(f), ties to the smallest mass (the
        first such vertex, since the vertices are in lexicographic order)."""
        return self.vertices[self._least(f, 1)[0]]

    def is_linear(self) -> bool:
        return len(self.rows) == 1

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
        cols = self._event_columns(event)
        least = min(sum([row[c] for c in cols]) for row in self.rows)
        return Fraction(least, self.den)

    def generalized_bayes(self, f: Gamble, event: EventSet) -> Optional[Rat]:
        """min over P of P(Bf) / P(B), or None when some P gives B zero
        probability.

        The linear-fractional minimum over the polytope is attained at a
        vertex, so scanning vertices is exact.  With vertex v's P(B) as
        prob_v / den and P(Bf) as num_v / (den d), the ratio is
        num_v / (prob_v d): the scan compares num_v / prob_v by
        cross-multiplication, every prob_v being positive.
        """
        cols = self._event_columns(event)
        if f.space != self.space:
            raise InputError("gamble and prevision live on different spaces")
        picked = [[row[c] for c in cols] for row in self.rows]
        probs = [sum(p) for p in picked]
        if 0 in probs:
            return None
        nums, d = _integer_row([f.values[i][j] for i, j in event.cells])
        mul = operator.mul
        best_num, best_prob = None, 1
        for p, prob in zip(picked, probs):
            num = sum(map(mul, p, nums))
            if best_num is None or num * best_prob < best_num * prob:
                best_num, best_prob = num, prob
        return Fraction(best_num, best_prob * d)

    def conditional_natural_extension(self, f: Gamble, event: EventSet) -> Rat:
        """Vacuous at zero lower probability, else the generalized Bayes rule."""
        if f.space != self.space:
            raise InputError("gamble on the wrong space")
        if event.space != self.space:
            raise InputError("event on the wrong space")
        if event.is_empty():
            raise InputError("conditioning event is empty")
        if not event.is_state_cylinder():
            raise InputError("conditional natural extension updates on states only")
        value = self.generalized_bayes(f, event)
        return f.min_over(event) if value is None else value

    # -- marginals ----------------------------------------------------

    def marginal_omega(self) -> "CredalSet":
        m, cells = self.space.n_prizes, self.space.n_cells
        sums = [[sum(row[i : i + m]) for i in range(0, cells, m)] for row in self.rows]
        return CredalSet.from_vertices(omega_factor_space(self.space), sums, self.den)

    def marginal_prizes(self) -> "CredalSet":
        m = self.space.n_prizes
        sums = [[sum(row[j::m]) for j in range(m)] for row in self.rows]
        return CredalSet.from_vertices(prizes_factor_space(self.space), sums, self.den)
