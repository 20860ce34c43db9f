"""Coherent sets of desirable gambles in three finite representations.

``DesirSet`` carries one of:

* ``fg``        -- the natural extension posi(generators + positive gambles);
* ``strict``    -- the open set {f positive, or lower expectation of f > 0}
                   induced by a credal set;
* ``augmented`` -- posi(strict + finitely many border rays), the shape of
                   non-Archimedean models such as the second believer in
                   the fair-coin story: same previsions, different border.

Every answer is exact.  Vertex scans of the credal set decide the open
part, lower previsions, the generalized Bayes rule and the open-superset
search (the vertex centroid) of the credal kinds, and an fg set's
previsions and membership verdicts: by Farkas and Minkowski-Weyl its
natural extension is the lower envelope of M_R = {P : P(g) >= 0 for each
generator g} (Walley 1991, 3.3-3.4), enumerated once per set, on first
use.  Exact linear programs decide the rest: the cone LP over the rays
(of an fg set, only certificates and sets whose M_R is over the
enumeration budget), the residual LP (also an fg prevision over the
budget), the fg separating prevision, and the partial-loss LP, whose
Farkas vector is the open-superset witness of an fg set (Ville).
Positive membership verdicts carry a positive-combination or
positive-expectation certificate; negative verdicts carry a separating
linear prevision.  Certificates replay exactly.

Every set is a list of asserted rays -- the generators of an fg set, the
border rays of an augmented set, none for a strict set -- plus, for the
credal kinds, the open part {lower expectation of f > 0}.  Each question
has one rule over that shape.  Membership: f positive, then the open part,
then one zero-objective cone LP lambda >= 0, sum lambda_k r_k <= f over
the rays, feasible iff lower_{M_R}(f) >= 0 with R the rays.  Every
border ray has lower expectation zero, so subtracting border multiples
never raises an expectation: the open part needs no LP.

The conditional computation is ``sup { mu : B(f - mu) in D }`` for an
arbitrary nonempty cell event B.  The member set is the union of the open
part and the closed part (a nonnegative residual after subtracting ray
multiples), each with a down-closed mu-set, so the supremum is the larger
of the two: the generalized Bayes rule for the open part and, for the
closed part, min_B f plus one residual cone LP with no free variable: the
largest nu >= 0 with sum lambda_k r_k + nu 1_B <= B(f - min_B f).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .credal import CredalSet, LinearPrevision, enumerate_vertices
from .errors import InputError, InternalError, ModelError, ResourceLimitError
from .lp import EQ, GE, LE, OPTIMAL, LpOutcome, LpProblem, Rat, solve
from .spaces import (
    EventSet,
    Gamble,
    Space,
    cylinder_from_omega,
    cylinder_from_prizes,
    omega_factor_space,
    prizes_factor_space,
)

FG = "fg"
STRICT = "strict"
AUGMENTED = "augmented"


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositiveCombination:
    """f = sum(lambda_i g_i) + sum(mu_j b_j) + residual with residual >= 0."""

    lambdas: tuple[Rat, ...]
    border_lambdas: tuple[Rat, ...]
    residual: Gamble

    def replays(self, dset: "DesirSet", f: Gamble) -> bool:
        if any(l < 0 for l in self.lambdas + self.border_lambdas):
            return False
        if not (self.residual.is_zero() or self.residual.is_positive()):
            return False
        acc = self.residual
        for l, g in zip(self.lambdas, dset.generators):
            acc = acc + g.scale(l)
        for m, b in zip(self.border_lambdas, dset.borders):
            acc = acc + b.scale(m)
        if acc != f or f.is_zero():
            return False
        used = any(self.lambdas) or any(self.border_lambdas)
        return used or self.residual.is_positive()


@dataclass(frozen=True)
class PositiveExpectation:
    """Every credal vertex pays out on f: f is in the open part.

    value = min over vertices of f, strictly positive.  The border
    multiples are all zero, as subtracting border rays never raises an
    expectation; a replay peels whatever multiples it is given.
    """

    border_lambdas: tuple[Rat, ...]
    value: Rat

    def replays(self, dset: "DesirSet", f: Gamble) -> bool:
        if dset.credal is None or any(m < 0 for m in self.border_lambdas):
            return False
        peeled = _peel(f, self.border_lambdas, dset.borders)
        return dset.credal.lower(peeled) == self.value and self.value > 0


@dataclass(frozen=True)
class SeparatingPrevision:
    """P(f) <= 0 while P is nonnegative on every asserted ray; for the
    credal kinds P is a vertex of the credal set."""

    prevision: LinearPrevision

    def replays(self, dset: "DesirSet", f: Gamble) -> bool:
        p = self.prevision
        if p(f) > 0 or any(p(r) < 0 for r in dset.rays):
            return False
        return dset.credal is None or p in dset.credal.vertices


Certificate = Union[PositiveCombination, PositiveExpectation, SeparatingPrevision]


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    certificate: Certificate


# ---------------------------------------------------------------------------
# Consistency of raw assessments
# ---------------------------------------------------------------------------


def _losing_mix(space: Space, gambles: Sequence[Gamble]) -> LpOutcome:
    """The partial-loss LP over a nonempty list on ``space``: lambda >= 0,
    sum lambda = 1, sum lambda_k g_k <= 0."""
    if any(g.space != space for g in gambles):
        raise InputError("gamble on the wrong space")
    flats = [g.flat() for g in gambles]
    return solve(LpProblem.cone(flats, LE, [0] * len(flats[0]), convex=True))


def avoids_partial_loss(
    space: Space, gambles: Sequence[Gamble]
) -> tuple[bool, Optional[tuple[Rat, ...]]]:
    """True iff no convex combination of the gambles is <= 0.

    On failure returns the violating convex weights.
    """
    if not gambles:
        return True, None
    out = _losing_mix(space, gambles)
    if out.status == OPTIMAL:
        return False, out.witness
    return True, None


def open_superset_witness(
    space: Space, gambles: Sequence[Gamble]
) -> tuple[bool, Optional[LinearPrevision]]:
    """A prevision strictly positive on every gamble, if one exists.

    Ville's alternative, for any finite list of gambles: either some
    convex combination is <= 0 (partial loss) or some prevision is
    strictly positive on all of them, never both.  The partial-loss LP
    decides it and, when infeasible, its Farkas vector y is the witness.
    In ``solve``'s Farkas convention (y.A <= 0 and y.b > 0 over the
    internal equality rows) y.b > 0 gives y_last > 0, the slack of
    each cell row gives y_c <= 0, and each gamble's column gives
    sum_c -y_c g(c) >= y_last > 0; so P = -y[:n] / sum(-y[:n]).  With no
    gambles the uniform prevision serves.
    """
    n = space.n_cells
    if not gambles:
        return True, LinearPrevision(space, (Fraction(1, n),) * n)
    out = _losing_mix(space, gambles)
    if out.status == OPTIMAL:
        return False, None
    weights = [-y for y in out.farkas[:n]]
    total = sum(weights, Fraction(0))
    p = LinearPrevision(space, tuple([w / total for w in weights]))
    if any(p(g) <= 0 for g in gambles):
        raise InternalError("Farkas prevision is not positive on every gamble")
    return True, p


def _peel(f: Gamble, weights: Sequence[Rat], rays: Sequence[Gamble]) -> Gamble:
    """f - sum(w * r)."""
    for w, r in zip(weights, rays):
        f = f - r.scale(w)
    return f


def _residual_sup(
    rays: Sequence[Gamble], f: Gamble, event: EventSet
) -> Optional[Rat]:
    """sup { mu : B(f - mu) - sum(lambda r) >= 0, lambda >= 0 }, or None
    when unbounded.  mu = m = min_B f with lambda = 0 is feasible and the
    feasible mu are down-closed, so the supremum is m plus the cone LP
    max { nu >= 0 : sum lambda_k r_k + nu 1_B <= B(f - m), lambda >= 0 }."""
    low = f.min_over(event)
    if not rays:
        return low
    cols = [r.flat() for r in rays] + [event.indicator().flat()]
    target = [(x - low) * b for x, b in zip(f.flat(), cols[-1])]
    cons = [([col[c] for col in cols], LE, t) for c, t in enumerate(target)]
    out = solve(LpProblem.build([Fraction(0)] * len(rays) + [Fraction(1)], "max", cons))
    return low + out.optimum if out.status == OPTIMAL else None


# ---------------------------------------------------------------------------
# The three-representation desirable set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesirSet:
    """A coherent cone of desirable gambles; construct via the factories."""

    space: Space
    kind: str
    generators: tuple[Gamble, ...] = ()
    credal: Optional[CredalSet] = None
    borders: tuple[Gamble, ...] = ()

    # -- factories ------------------------------------------------------

    @staticmethod
    def from_generators(space: Space, generators: Iterable[Gamble]) -> "DesirSet":
        gens = tuple(generators)
        for g in gens:
            if g.space != space:
                raise InputError("generator on the wrong space")
            if g.is_zero():
                raise ModelError("the zero gamble cannot be desirable")
        ok, witness = avoids_partial_loss(space, gens)
        if not ok:
            w = ",".join(f"{x.numerator}/{x.denominator}" for x in witness)
            raise ModelError(f"assessments incur partial loss (convex weights {w})")
        return DesirSet(space, FG, generators=gens)

    @staticmethod
    def vacuous(space: Space) -> "DesirSet":
        return DesirSet(space, FG)

    @staticmethod
    def strict(credal: CredalSet) -> "DesirSet":
        return DesirSet(credal.space, STRICT, credal=credal)

    @staticmethod
    def augmented(credal: CredalSet, borders: Iterable[Gamble]) -> "DesirSet":
        bs = tuple(borders)
        space = credal.space
        for b in bs:
            if b.space != space:
                raise InputError("border gamble on the wrong space")
            if b.is_zero() or b.is_positive():
                raise ModelError("border rays must be nonzero and not positive")
            if credal.lower(b) != 0:
                raise ModelError(
                    "border rays must sit exactly on the boundary (lower "
                    "expectation zero)"
                )
        if bs:
            _check_border_coherence(space, bs)
        if not bs:
            return DesirSet(space, STRICT, credal=credal)
        return DesirSet(space, AUGMENTED, credal=credal, borders=bs)

    @property
    def rays(self) -> tuple[Gamble, ...]:
        """The asserted rays: the generators of an fg set or the border
        rays of an augmented set; a strict set has none."""
        return self.generators + self.borders

    # -- membership -------------------------------------------------------

    def contains(self, f: Gamble) -> bool:
        """Boolean membership (no certificate replay).

        An fg set within the budget decides by f != 0 and lower_{M_R}(f) >=
        0, no LP.  By Farkas, lambda >= 0, sum lambda_k r_k <= f is
        infeasible iff some y >= 0 has y.r >= 0 on every ray and y.f < 0:
        normalised, a P in M_R with P(f) < 0, and M_R's minimum is at a
        vertex.  A nonzero f <= 0 has lower < 0, else the system is
        feasible with lambda != 0, a partial loss (from_generators rejects
        it).  The vacuous set's M_R is the simplex.  Others: _certificate.
        """
        self._check_space(f)
        if self.kind == FG and self._m_r is not None:
            return not f.is_zero() and self._m_r.lower(f) >= 0
        return self._certificate(f) is not None

    def member(self, f: Gamble) -> MembershipVerdict:
        """Membership with a replay-checked certificate."""
        self._check_space(f)
        cert = self._certificate(f)
        member = cert is not None
        if not member:
            cert = SeparatingPrevision(self._separating(f))
        if not cert.replays(self, f):
            raise InternalError("membership certificate failed to replay")
        return MembershipVerdict(member, cert)

    def _certificate(self, f: Gamble) -> Optional[Certificate]:
        """Positive certificate, or None if f is not a member (the zero
        gamble and nonpositive gambles never are).  Every verdict of a
        credal kind or an over-budget fg set, and every fg certificate.

        f positive, then the open part, then the cone LP over the rays.  A
        border ray b has lower expectation zero, so P(b) >= 0 for every P
        in the credal set and P(f - sum mu_j b_j) <= P(f) for every mu >= 0.
        Border multiples never help the open part: f is in it iff
        lower(f) > 0, with mu = 0 as the witness.  Outside it, f is a member
        iff f - sum lambda_k r_k >= 0 for some lambda >= 0; f is neither
        zero nor >= 0 there, so a feasible lambda is nonzero.
        """
        if f.is_positive():
            zero = Fraction(0)
            return PositiveCombination(
                (zero,) * len(self.generators), (zero,) * len(self.borders), f
            )
        if f.is_nonpositive():
            return None
        if self.credal is not None:
            value = self.credal.lower(f)
            if value > 0:
                return PositiveExpectation((Fraction(0),) * len(self.borders), value)
        rays = self.rays
        if not rays:
            return None
        out = solve(LpProblem.cone([r.flat() for r in rays], LE, f.flat()))
        if out.status != OPTIMAL:
            return None
        k = len(self.generators)
        weights = out.witness
        return PositiveCombination(weights[:k], weights[k:], _peel(f, weights, rays))

    def _separating(self, f: Gamble) -> LinearPrevision:
        """A prevision with P(f) <= 0 that respects all assertions."""
        if self.kind == FG:
            n = self.space.n_cells
            cons = [(list(g.flat()), GE, Fraction(0)) for g in self.generators]
            cons.append((list(f.flat()), LE, Fraction(0)))
            cons.append(([Fraction(1)] * n, EQ, Fraction(1)))
            out = solve(LpProblem.build([Fraction(0)] * n, "max", cons))
            if out.status != OPTIMAL:
                raise InternalError("no separating prevision for a non-member")
            return LinearPrevision(self.space, out.witness)
        best = self.credal.minimizer(f)
        if best(f) > 0:
            raise InternalError("non-member with positive lower expectation")
        return best

    # -- previsions ------------------------------------------------------

    def lower_prevision(self, f: Gamble) -> Rat:
        """sup { mu : f - mu in D }, the lower envelope of the credal set (M_R
        for fg); only an fg set over the enumeration budget solves an LP."""
        self._check_space(f)
        credal = self._m_r if self.kind == FG else self.credal
        if credal is None:
            return self.conditional_lower_prevision(f, EventSet.all_cells(self.space))
        return credal.lower(f)

    def upper_prevision(self, f: Gamble) -> Rat:
        return -self.lower_prevision(-f)

    def conditional_lower_prevision(self, f: Gamble, event: EventSet) -> Rat:
        """sup { mu : B(f - mu) in D } for a nonempty cell event B.

        The closed part's supremum is min_B f plus the shifted residual LP
        over the rays (_residual_sup); a credal kind also takes the open
        part's.  B(f - mu) is in the open part iff its lower expectation is
        positive (see _certificate), so that is the generalized Bayes rule.
        """
        self._check_space(f)
        if event.space != self.space:
            raise InputError("event on the wrong space")
        if event.is_empty():
            raise InputError("conditioning event is empty")
        closed = _residual_sup(self.rays, f, event)
        if closed is None:
            raise InternalError("conditional prevision unbounded; set incoherent")
        if self.credal is None:
            return closed
        open_sup = self.credal.generalized_bayes(f, event)
        return closed if open_sup is None else max(open_sup, closed)

    def conditional_upper_prevision(self, f: Gamble, event: EventSet) -> Rat:
        return -self.conditional_lower_prevision(-f, event)

    # -- structure queries ------------------------------------------------

    def is_strictly_desirable(self) -> bool:
        """Openness: members outside L+ stay members after a small uniform
        discount.  Decided ray-wise; a border ray has lower prevision zero
        and is never positive, so a credal kind passes iff it has none."""
        return all(r.is_positive() or self.lower_prevision(r) > 0 for r in self.rays)

    def is_fully_archimedean(self) -> bool:
        """Conditional strictness on supports, decided ray-wise.

        Each generator or border ray b must survive
        sup { eps : S(b)(b - eps) in D } > 0, which is the conditional
        lower prevision on its support; the natural extension then
        inherits the property cell-event by cell-event.  A strict set has
        no rays and passes: each member f equals its own support
        restriction, so discounting inside the support keeps the lower
        expectation positive.
        """
        return all(
            self.conditional_lower_prevision(r, r.support()) > 0 for r in self.rays
        )

    def has_open_superset(self) -> tuple[bool, Optional[LinearPrevision]]:
        """Search for one prevision strictly positive on every asserted ray:
        any prevision for fg (one partial-loss LP), a point of the credal
        set for the credal kinds.  Every border ray b has lower(b) = 0, so
        v(b) >= 0 at every vertex v and the vertex centroid is positive on
        b iff some point of the set is: no LP."""
        if self.kind == FG:
            return open_superset_witness(self.space, self.generators)
        p = self.credal.centroid()
        ok = all(p(b) > 0 for b in self.borders)
        return ok, p if ok else None

    @functools.cached_property
    def _m_r(self) -> Optional[CredalSet]:
        """M_R = {P : P(g) >= 0 for each generator g}, built on first use;
        None over the enumeration budget, a test on the input size alone."""
        try:
            return CredalSet.from_constraints(self.space, self.generators)
        except ResourceLimitError:
            return None

    def credal_projection(self) -> CredalSet:
        """The credal set whose lower envelope is the natural extension: M_R
        for an fg set, built once; ResourceLimitError over the budget."""
        if self.kind != FG:
            return self.credal
        # None only over the budget, where building again raises its error
        return self._m_r or CredalSet.from_constraints(self.space, self.generators)

    # -- views -----------------------------------------------------------

    def condition(self, event: EventSet) -> "ConditionalView":
        if event.is_empty():
            raise InputError("conditioning event is empty")
        if event.space != self.space:
            raise InputError("event on the wrong space")
        return ConditionalView(self, event)

    def marginalize(self, keep: str) -> "MarginalView":
        if keep not in ("omega", "prizes"):
            raise InputError("keep must be 'omega' or 'prizes'")
        return MarginalView(self, keep)

    # -- plumbing ----------------------------------------------------------

    def _check_space(self, f: Gamble):
        if f.space != self.space:
            raise InputError("gamble on the wrong space")


def _check_border_coherence(space: Space, borders: Sequence[Gamble]):
    """Reject border lists whose cone meets -L+ or the origin: one
    partial-loss LP, its convex combination telling the two apart."""
    ok, weights = avoids_partial_loss(space, borders)
    if ok:
        return
    if _peel(Gamble.zero(space), weights, borders).is_zero():
        raise ModelError("border rays positively combine to zero")
    raise ModelError("border rays positively combine to a negative gamble")


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalView:
    """Membership oracle of { f in D : f = Bf }."""

    base: DesirSet
    event: EventSet

    def contains(self, f: Gamble) -> bool:
        if f != f.restricted_to(self.event):
            return False
        return self.base.contains(f)

    def materialized_generators(self) -> tuple[Gamble, ...]:
        """A complete generating set of an fg set's conditional set, for
        display; empty for the credal kinds, whose view is an oracle.

        f = Bf is sum lambda_k g_k + h with lambda, h >= 0, so
        sum lambda_k g_k(c) <= 0 on each cell c off B.  These lambda form a
        cone spanned by the vertices of its slice sum lambda = 1: one vertex
        enumeration on a k-cell space, one constraint -(g_1(c), ..., g_k(c))
        per cell c off B (ResourceLimitError over budget).  Each vertex
        gives the ray B sum lambda_k g_k, in vertex order; zero and
        nonnegative rays add nothing to L+, and they and repeats are dropped.
        """
        gens = self.base.generators
        if self.base.kind != FG or not gens:
            return ()
        space, inside = self.base.space, set(self.event.cells)
        lam = Space(tuple(f"g{k}" for k in range(len(gens))), ("x",))
        flats = [g.flat() for g in gens]
        off = [c for c, cell in enumerate(space.cells()) if cell not in inside]
        cons = [Gamble.of(lam, [[-f[c]] for f in flats]) for c in off]
        out = []
        for row in enumerate_vertices(lam, cons):
            mix = [g.scale(Fraction(x, sum(row))) for x, g in zip(row, gens) if x]
            bg = sum(mix, Gamble.zero(space)).restricted_to(self.event)
            if bg.min_value() < 0 and bg not in out:
                out.append(bg)
        return tuple(out)


@dataclass(frozen=True)
class MarginalView:
    """Membership oracle over one-factor gambles via cylindrical extension."""

    base: DesirSet
    keep: str

    @property
    def factor_space(self) -> Space:
        if self.keep == "omega":
            return omega_factor_space(self.base.space)
        return prizes_factor_space(self.base.space)

    def extend(self, g: Gamble) -> Gamble:
        if self.keep == "omega":
            return cylinder_from_omega(self.base.space, g)
        return cylinder_from_prizes(self.base.space, g)

    def contains(self, g: Gamble) -> bool:
        return self.base.contains(self.extend(g))

    def as_strict(self) -> Optional[DesirSet]:
        """For a strict base the marginal is strict over the projected
        credal set; other kinds stay oracles."""
        if self.base.kind != STRICT:
            return None
        credal = (
            self.base.credal.marginal_omega()
            if self.keep == "omega"
            else self.base.credal.marginal_prizes()
        )
        return DesirSet.strict(credal)
