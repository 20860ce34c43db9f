"""Incomplete preference relations over horse lotteries.

A relation is a finite list of asserted strict preferences between acts.
All queries go through its cone of scaled act differences: with a worst
outcome the cone projects to a coherent set of desirable gambles and
back, which is the equivalence this package is built around.  Bare
relations (no worst outcome yet) keep their cone inside the zero-row-sum
space and support the minimal extension that adjoins one.

Both flavours use one cone, the natural extension of their difference
gambles.  A bare difference sums to zero in each state, so a convex
combination <= 0 of them is 0 and avoiding partial loss is consistency;
f = sum lambda_k g_k + h with h >= 0 forces h = 0, so the natural
extension holds exactly the nonzero members of posi(differences).

The Archimedean ladder for worst-outcome relations collapses to two
exact tests: weak continuity is strict desirability of the projected
set, and the traditional/strong forms additionally need every cell
indicator to carry positive lower prevision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .cones import DesirSet
from .credal import CredalSet
from .errors import InputError, InternalError, ModelError
from .lp import Rat
from .spaces import Gamble, HorseLottery, Space, project_pi

NOT_WEAK = "not-weak"
WEAK_ONLY = "weak-only"
TRADITIONAL = "traditional"


def dominates(p: HorseLottery, q: HorseLottery) -> bool:
    """Objective preference: the projection of p weakly beats that of q
    everywhere and beats it somewhere."""
    if p.space != q.space or not (p.includes_worst and q.includes_worst):
        raise InputError("dominance compares two acts over the same z-space")
    diff = project_pi(p.space, p) - project_pi(q.space, q)
    return diff.is_positive()


@dataclass(frozen=True)
class PreferenceRelation:
    """Finitely many asserted strict preferences plus the derived cone."""

    space: Space
    pairs: tuple[tuple[HorseLottery, HorseLottery], ...]
    bare: bool

    @staticmethod
    def of(
        space: Space,
        pairs: Sequence[tuple[HorseLottery, HorseLottery]],
        bare: Optional[bool] = None,
    ) -> "PreferenceRelation":
        pairs = tuple(pairs)
        flavors = {p.includes_worst for pair in pairs for p in pair}
        if len(flavors) > 1:
            raise InputError("cannot mix bare lotteries and z-lotteries")
        if flavors:
            inferred = flavors == {False}
            if bare is not None and bare != inferred:
                raise InputError("bare flag contradicts the lotteries given")
            bare = inferred
        elif bare is None:
            bare = space.worst is None
        for p, q in pairs:
            if p.space != space or q.space != space:
                raise InputError("lottery on the wrong space")
            if p == q:
                raise ModelError("a strict preference cannot relate an act to itself")
        return PreferenceRelation(space, pairs, bare)

    def _gamble(self, p: HorseLottery, q: HorseLottery) -> Gamble:
        """The gamble of p > q: the act difference, projected with a worst
        outcome, as is for a bare relation."""
        if p.space != self.space or q.space != self.space:
            raise InputError("lottery on the wrong space")
        if not self.bare:
            return project_pi(self.space, p.difference(q))
        if p.includes_worst or q.includes_worst:
            raise InputError("bare relations compare bare lotteries")
        return Gamble(self.space, p.difference(q))

    def cone_generators(self) -> tuple[Gamble, ...]:
        """One gamble per asserted pair: the (projected) act difference."""
        return tuple([self._gamble(p, q) for p, q in self.pairs])

    @cached_property
    def _cone(self) -> Optional[DesirSet]:
        """The natural extension of the generators; None when they incur
        partial loss."""
        try:
            return DesirSet.from_generators(self.space, self.cone_generators())
        except ModelError:
            return None

    # -- consistency -----------------------------------------------------

    def is_consistent(self) -> bool:
        return self._cone is not None

    def _require_consistent(self) -> DesirSet:
        if self._cone is None:
            raise ModelError("the asserted preferences are inconsistent")
        return self._cone

    # -- queries -----------------------------------------------------------

    def holds(self, p: HorseLottery, q: HorseLottery) -> bool:
        """Whether p > q follows from the assertions (cone membership)."""
        return self._require_consistent().contains(self._gamble(p, q))

    # -- the equivalence ---------------------------------------------------

    def to_desirset(self) -> DesirSet:
        """The projected cone as a finitely generated coherent set."""
        if self.bare:
            raise InputError("only worst-outcome relations project to gambles")
        return self._require_consistent()

    def archimedean_class(self) -> str:
        """weak continuity = strict desirability; the traditional and
        strong forms add positive lower prevision on every cell."""
        return archimedean_class_of_set(self.to_desirset())


@dataclass(frozen=True)
class RelationOracle:
    """The preference relation carried by a coherent set of gambles."""

    dset: DesirSet

    @property
    def space(self) -> Space:
        return self.dset.space

    def holds(self, p: HorseLottery, q: HorseLottery) -> bool:
        if p.space != self.space or q.space != self.space:
            raise InputError("lottery on the wrong space")
        return self.dset.contains(project_pi(self.space, p.difference(q)))


def from_desirset(dset: DesirSet) -> RelationOracle:
    dset.space.require_worst()
    return RelationOracle(dset)


def extend_to_worst_outcome(rel: PreferenceRelation) -> DesirSet:
    """Minimal extension of a bare relation to one with a worst outcome.

    The result is the natural extension of the bare cone, which keeps
    lower prevision zero on every asserted difference: the minimal
    extension is never weakly Archimedean unless the relation is empty.
    """
    if not rel.bare:
        raise InputError("the relation already has a worst outcome")
    rel.space.require_worst()
    return rel._require_consistent()


def archimedean_class_of_set(dset: DesirSet) -> str:
    """Classify the relation a coherent set of gambles induces."""
    if not dset.is_strictly_desirable():
        return NOT_WEAK
    for cell in dset.space.cells():
        if dset.lower_prevision(Gamble.unit(dset.space, cell)) <= 0:
            return WEAK_ONLY
    return TRADITIONAL


@dataclass(frozen=True)
class Interpolation:
    """A strictly smaller Archimedean superset squeezed above a minimal
    extension: previsions of the pivot separate all three sets."""

    strict_set: DesirSet
    pivot: Gamble
    lower_base: Rat
    lower_mid: Rat
    lower_top: Rat


def interpolate_strict_superset(base: DesirSet, top: DesirSet) -> Interpolation:
    """Between a minimal worst-outcome extension and any strictly
    desirable superset there is always another one; halve the prevision
    of the first cone generator by mixing in a boundary prevision of the
    base.
    """
    if base.kind != "fg" or not base.generators:
        raise ModelError("interpolation needs a finitely generated nonempty cone")
    if top.kind != "strict":
        raise ModelError("the superset must be strictly desirable")
    if top.space != base.space:
        raise InputError("sets live on different spaces")
    for g in base.generators:
        if not g.is_positive() and top.credal.lower(g) <= 0:
            raise ModelError("the superset does not strictly contain the base cone")
    pivot = base.generators[0]
    top_value = top.credal.lower(pivot)
    p1 = top.credal.minimizer(pivot)
    base_credal = base.credal_projection()
    base_value = base_credal.lower(pivot)
    if base_value != 0:
        raise ModelError(
            "interpolation starts from a boundary generator (lower prevision 0)"
        )
    p0 = base_credal.minimizer(pivot)
    mid_mass = tuple(
        Fraction(1, 2) * a + Fraction(1, 2) * b for a, b in zip(p1.mass, p0.mass)
    )
    hull = CredalSet.from_vertices(
        base.space, [v.mass for v in top.credal.vertices] + [mid_mass]
    )
    result = DesirSet.strict(hull)
    mid_value = hull.lower(pivot)
    if mid_value != top_value / 2:
        raise InternalError("interpolated prevision is not the exact half")
    if not (base_value < mid_value < top_value):
        raise InternalError("interpolation failed to separate the three sets")
    return Interpolation(result, pivot, base_value, mid_value, top_value)
