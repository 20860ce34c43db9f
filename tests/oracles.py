"""Brute-force evaluators the tests compare the kernel against.

Each one enumerates vertex combinations directly, with no hull
construction and no LP, so it is an independent route to the same
exact value.
"""

import itertools
from fractions import Fraction

from desir.spaces import Gamble, omega_factor_space, prizes_factor_space


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
