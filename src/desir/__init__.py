"""Exact computation with desirable gambles, coherent lower previsions,
credal sets and incomplete preferences over horse lotteries."""

from .cones import DesirSet, MembershipVerdict, avoids_partial_loss
from .credal import CredalSet, LinearPrevision, enumerate_vertices
from .errors import (
    DesirError,
    InputError,
    InternalError,
    ModelError,
    ResourceLimitError,
)
from .lp import LpOutcome, LpProblem, Rat, rat, solve
from .preferences import (
    PreferenceRelation,
    RelationOracle,
    archimedean_class_of_set,
    dominates,
    extend_to_worst_outcome,
    from_desirset,
    interpolate_strict_superset,
)
from .products import (
    independent_natural_extension,
    irrelevant_product_set,
    is_irrelevant_product,
    is_strong_product,
    marginal_extension_prevision,
    satisfies_a4,
    satisfies_a5,
    strong_product,
)
from .spaces import (
    EventSet,
    Gamble,
    HorseLottery,
    Space,
    decompose_in_generating_family,
    is_act_difference,
    normalize_worst_act,
    pi1_inverse,
    pi2_inverse,
    project_pi,
)

__version__ = "0.1.0"
