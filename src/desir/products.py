"""Joint models from marginal ones: irrelevance, independence, strength.

State independence is asymmetric here: saying the states are irrelevant
to the prizes means every conditional-on-a-state model coincides with
the prize marginal, and the least committal such joint is the marginal
extension.  The symmetric notions stack strictly above it: the
independent natural extension adds the mirrored irrelevance, and the
strong product tightens further to the lower envelope of the pairwise
products of the marginal credal sets.

The two sure-thing-style conditions close the loop: domination by the
strong product characterises one, factorisation of every credal vertex
the other, and a joint model is the strong product exactly when it
passes both.  For linear previsions all of it collapses to the mass
function factorising cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cones import DesirSet
from .credal import CredalSet, LinearPrevision
from .errors import InputError
from .lp import Rat
from .spaces import (
    Gamble,
    Space,
    cylinder_from_omega,
    embed_at_prize,
    embed_at_state,
    omega_factor_space,
    prizes_factor_space,
)


def joint_space(omega_factor: Space, prizes_factor: Space) -> Space:
    return Space(omega_factor.omega, prizes_factor.prizes, None)


def constant_lift(f: Gamble, state: int) -> Gamble:
    """f^omega: the prize profile of one state, repeated in every state."""
    row = f.values[state]
    return Gamble(f.space, tuple(row for _ in f.space.omega))


def _prize_row(f: Gamble, state: int) -> Gamble:
    factor = prizes_factor_space(f.space)
    return Gamble(factor, (f.values[state],))


def _check_factors(joint: Space, m_omega, m_x):
    if m_omega is not None and m_omega.space != omega_factor_space(joint):
        raise InputError("state marginal is not on the state factor")
    if m_x is not None and m_x.space != prizes_factor_space(joint):
        raise InputError("prize marginal is not on the prize factor")


# ---------------------------------------------------------------------------
# Marginal extension (law of total prevision)
# ---------------------------------------------------------------------------


def marginal_extension_prevision(
    m_omega: CredalSet, conditionals: Sequence[CredalSet], f: Gamble
) -> Rat:
    """Lower prevision of the two-stage model: first the conditional
    lower prevision in each state, then the state marginal of that."""
    joint = f.space
    _check_factors(joint, m_omega, None)
    if len(conditionals) != joint.n_states:
        raise InputError("need one conditional credal set per state")
    prize_factor = prizes_factor_space(joint)
    rows = []
    for i, cond in enumerate(conditionals):
        if cond.space != prize_factor:
            raise InputError("conditional credal set is not on the prize factor")
        rows.append((cond.lower(_prize_row(f, i)),))
    inner = Gamble(omega_factor_space(joint), tuple(rows))
    return m_omega.lower(inner)


# ---------------------------------------------------------------------------
# Products at the desirability level
# ---------------------------------------------------------------------------


def irrelevant_product_set(
    r_omega: DesirSet, r_x: DesirSet, joint: Optional[Space] = None
) -> DesirSet:
    """Smallest joint set making the states irrelevant to the prizes:
    cylinders of the state marginal plus every state-called-off copy of
    the prize marginal's generators."""
    if r_omega.kind != "fg" or r_x.kind != "fg":
        raise InputError("irrelevant products take finitely generated marginals")
    if joint is None:
        joint = joint_space(r_omega.space, r_x.space)
    if r_omega.space != omega_factor_space(joint) or r_x.space != prizes_factor_space(
        joint
    ):
        raise InputError("marginal sets are not on the factors of the joint space")
    gens = [cylinder_from_omega(joint, g) for g in r_omega.generators]
    for i in range(joint.n_states):
        for gx in r_x.generators:
            gens.append(embed_at_state(joint, i, gx))
    return DesirSet.from_generators(joint, gens)


def is_irrelevant_product(
    d_joint: DesirSet, r_x: DesirSet, probes: Sequence[Gamble] = ()
) -> bool:
    """Whether the joint accepts every prize-marginal ray called off on
    each single state; generator sufficiency when the marginal is
    finitely generated, caller-supplied probes otherwise."""
    joint = d_joint.space
    if r_x.kind == "fg":
        rays = r_x.generators
    elif probes:
        rays = tuple(probes)
    else:
        raise InputError(
            "a non-finitely-generated prize marginal needs probe gambles"
        )
    for g in rays:
        if g.space != prizes_factor_space(joint):
            raise InputError("probe ray is not on the prize factor")
    for i in range(joint.n_states):
        for g in rays:
            if not d_joint.contains(embed_at_state(joint, i, g)):
                return False
    return True


def independent_natural_extension(
    r_omega: DesirSet, r_x: DesirSet, joint: Optional[Space] = None
) -> DesirSet:
    """Least committal joint with both irrelevance directions."""
    if r_omega.kind != "fg" or r_x.kind != "fg":
        raise InputError("the independent natural extension takes FG marginals")
    if joint is None:
        joint = joint_space(r_omega.space, r_x.space)
    if r_omega.space != omega_factor_space(joint) or r_x.space != prizes_factor_space(
        joint
    ):
        raise InputError("marginal sets are not on the factors of the joint space")
    gens = []
    for i in range(joint.n_states):
        for gx in r_x.generators:
            gens.append(embed_at_state(joint, i, gx))
    for j in range(joint.n_prizes):
        for go in r_omega.generators:
            gens.append(embed_at_prize(joint, j, go))
    return DesirSet.from_generators(joint, gens)


# ---------------------------------------------------------------------------
# Strong product
# ---------------------------------------------------------------------------


def product_prevision(
    v_omega: LinearPrevision, v_x: LinearPrevision, joint: Space
) -> LinearPrevision:
    mass = tuple(
        v_omega.mass[i] * v_x.mass[j]
        for i in range(joint.n_states)
        for j in range(joint.n_prizes)
    )
    return LinearPrevision(joint, mass)


def strong_product(
    m_omega: CredalSet, m_x: CredalSet, joint: Optional[Space] = None
) -> CredalSet:
    """Hull of the pairwise vertex products; bilinearity puts the lower
    envelope at vertex pairs, so this credal set evaluates the strong
    product exactly.

    Every product is already a vertex, so nothing is pruned.  Suppose
    P1 x P2 = sum_k l_k Q1_k x Q2_k, a convex combination of products of
    factor vertices.  Marginalising on the states gives P1 = sum_k l_k Q1_k;
    P1 is extreme, so Q1_k = P1 wherever l_k > 0.  Then
    P1 x P2 = P1 x (sum_k l_k Q2_k), and marginalising on the prizes gives
    P2 = sum_k l_k Q2_k, so Q2_k = P2 as well: no product is a mixture of
    the others.  Distinct factor vertices give distinct products, since
    the marginals recover the factors.
    """
    if joint is None:
        joint = joint_space(m_omega.space, m_x.space)
    _check_factors(joint, m_omega, m_x)
    products = [
        product_prevision(vo, vx, joint)
        for vo in m_omega.vertices
        for vx in m_x.vertices
    ]
    products.sort(key=lambda p: p.mass)
    return CredalSet(joint, tuple(products), None)


# ---------------------------------------------------------------------------
# The two state-independence conditions
# ---------------------------------------------------------------------------


def satisfies_a5(
    joint: CredalSet,
    m_omega: Optional[CredalSet] = None,
    m_x: Optional[CredalSet] = None,
) -> bool:
    """Domination by the strong product of the marginals: every vertex
    pair product must already be a possible joint prevision."""
    if m_omega is None:
        m_omega = joint.marginal_omega()
    if m_x is None:
        m_x = joint.marginal_prizes()
    _check_factors(joint.space, m_omega, m_x)
    for vo in m_omega.vertices:
        for vx in m_x.vertices:
            if not joint.contains(product_prevision(vo, vx, joint.space)):
                return False
    return True


def prevision_factorizes(p: LinearPrevision) -> Optional[tuple[int, int, Rat, Rat]]:
    """None when the mass factorises cell by cell; otherwise the first
    offending cell with its joint and product-of-marginals masses."""
    space = p.space
    m = space.n_prizes
    row_mass = [
        sum(p.mass[i * m : (i + 1) * m], Fraction(0)) for i in range(space.n_states)
    ]
    col_mass = [
        sum((p.mass[i * m + j] for i in range(space.n_states)), Fraction(0))
        for j in range(m)
    ]
    for i in range(space.n_states):
        for j in range(m):
            want = row_mass[i] * col_mass[j]
            if p.mass[i * m + j] != want:
                return (i, j, p.mass[i * m + j], want)
    return None


A4_HOLDS_EXACT = "holds-exact"
A4_HOLDS_ON_PROBES = "holds-on-probes"
A4_FAILS = "fails"


@dataclass(frozen=True)
class A4Verdict:
    kind: str
    witness: Optional[object] = None

    def holds(self) -> bool:
        return self.kind != A4_FAILS


def satisfies_a4(
    joint: CredalSet, probes: Sequence[tuple[Gamble, Gamble]] = ()
) -> A4Verdict:
    """The sure-thing condition on lower previsions.

    Exact when the joint is linear (cell factorisation) or when every
    credal vertex factorises (lower envelopes preserve the condition).
    Otherwise only the probed instances of the inequality
    lower(g - f) >= min over states of lower(g - f^state) are checked,
    and the verdict says so.
    """
    if joint.is_linear():
        bad = prevision_factorizes(joint.vertices[0])
        if bad is None:
            return A4Verdict(A4_HOLDS_EXACT)
        return A4Verdict(A4_FAILS, bad)
    if all(prevision_factorizes(v) is None for v in joint.vertices):
        return A4Verdict(A4_HOLDS_EXACT)
    for g, f in probes:
        lhs = joint.lower(g - f)
        rhs = min(
            joint.lower(g - constant_lift(f, i)) for i in range(joint.space.n_states)
        )
        if lhs < rhs:
            return A4Verdict(A4_FAILS, (g, f, lhs, rhs))
    return A4Verdict(A4_HOLDS_ON_PROBES)


def is_strong_product(
    joint: CredalSet, m_omega: CredalSet, m_x: CredalSet
) -> bool:
    """Whether the joint is the strong product of the two marginals.

    Two polytopes are equal exactly when their extreme points are, and
    both vertex lists are distinct, extreme and sorted (the ``CredalSet``
    invariant, which ``strong_product`` proves for its own output), so
    the lists are compared directly, with no LP.
    """
    return joint.vertices == strong_product(m_omega, m_x, joint.space).vertices
