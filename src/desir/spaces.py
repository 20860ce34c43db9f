"""Finite spaces, gambles, horse lotteries and the act-difference geometry.

A :class:`Space` fixes an ordered state axis (omega), an ordered prize
axis, and optionally a designated worst outcome ``z``.  Gambles are exact
rational reward tables on states x prizes and never carry a ``z`` column:
the worst outcome exists only in horse lotteries, where it is stored as
the last mass column.  The projection ``pi`` drops that column; its two
restrictions ``pi1`` (to lotteries) and ``pi2`` (to scaled lottery
differences) are invertible and implemented here together with their
inverses.

Everything is immutable and hashable, so values can be shared freely
across threads and used as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError, ModelError
from .lp import Rat, rat

Rows = tuple[tuple[Rat, ...], ...]


def _to_rows(rows: Iterable[Iterable]) -> Rows:
    # Tuples on hot paths are built from lists (see LpProblem.build): a
    # tuple grown from a generator is resized into place and, once freed,
    # parks in CPython's free list of its final size.
    return tuple([tuple([rat(v) for v in row]) for row in rows])


@dataclass(frozen=True)
class Space:
    """Ordered state labels, ordered prize labels, optional worst outcome."""

    omega: tuple[str, ...]
    prizes: tuple[str, ...]
    worst: Optional[str] = None

    def __post_init__(self):
        if not self.omega or not self.prizes:
            raise InputError("a space needs at least one state and one prize")
        labels = list(self.omega) + list(self.prizes)
        if self.worst is not None:
            labels.append(self.worst)
            if self.worst in self.prizes:
                raise InputError(f"worst outcome {self.worst!r} duplicates a prize")
        if len(set(self.prizes)) != len(self.prizes) or len(set(self.omega)) != len(
            self.omega
        ):
            raise InputError("state and prize labels must be unique")

    @property
    def n_states(self) -> int:
        return len(self.omega)

    @property
    def n_prizes(self) -> int:
        return len(self.prizes)

    @property
    def n_cells(self) -> int:
        return len(self.omega) * len(self.prizes)

    def cells(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n_states) for j in range(self.n_prizes)]

    def state_index(self, label: str) -> int:
        try:
            return self.omega.index(label)
        except ValueError:
            raise InputError(f"unknown state {label!r}") from None

    def prize_index(self, label: str) -> int:
        try:
            return self.prizes.index(label)
        except ValueError:
            raise InputError(f"unknown prize {label!r}") from None

    def require_worst(self) -> str:
        if self.worst is None:
            raise InputError("this operation needs a space with a worst outcome")
        return self.worst


@dataclass(frozen=True)
class Gamble:
    """Exact reward table on omega x prizes (in utiles / lottery tickets)."""

    space: Space
    values: Rows

    def __post_init__(self):
        if len(self.values) != self.space.n_states or any(
            len(row) != self.space.n_prizes for row in self.values
        ):
            raise InputError("gamble table does not match the space dimensions")

    @staticmethod
    def of(space: Space, rows: Iterable[Iterable]) -> "Gamble":
        return Gamble(space, _to_rows(rows))

    @staticmethod
    def zero(space: Space) -> "Gamble":
        z = tuple(tuple(Fraction(0) for _ in space.prizes) for _ in space.omega)
        return Gamble(space, z)

    @staticmethod
    def constant(space: Space, c) -> "Gamble":
        c = rat(c)
        return Gamble(space, tuple(tuple(c for _ in space.prizes) for _ in space.omega))

    @staticmethod
    def unit(space: Space, cell: tuple[int, int]) -> "Gamble":
        rows = [[Fraction(0)] * space.n_prizes for _ in space.omega]
        rows[cell[0]][cell[1]] = Fraction(1)
        return Gamble.of(space, rows)

    def flat(self) -> tuple[Rat, ...]:
        return tuple([v for row in self.values for v in row])

    def __add__(self, other: "Gamble") -> "Gamble":
        self._check_mate(other)
        return Gamble(
            self.space,
            tuple(
                [
                    tuple([a + b for a, b in zip(ra, rb)])
                    for ra, rb in zip(self.values, other.values)
                ]
            ),
        )

    def __sub__(self, other: "Gamble") -> "Gamble":
        self._check_mate(other)
        return Gamble(
            self.space,
            tuple(
                [
                    tuple([a - b for a, b in zip(ra, rb)])
                    for ra, rb in zip(self.values, other.values)
                ]
            ),
        )

    def __neg__(self) -> "Gamble":
        return Gamble(
            self.space, tuple([tuple([-v for v in row]) for row in self.values])
        )

    def scale(self, factor) -> "Gamble":
        factor = rat(factor)
        return Gamble(
            self.space,
            tuple([tuple([factor * v for v in row]) for row in self.values]),
        )

    def _check_mate(self, other: "Gamble"):
        if self.space != other.space:
            raise InputError("gambles live on different spaces")

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.values for v in row)

    def is_positive(self) -> bool:
        """f >= 0 and f != 0 (membership in L+)."""
        seen = False
        for row in self.values:
            for v in row:
                if v < 0:
                    return False
                if v > 0:
                    seen = True
        return seen

    def is_nonpositive(self) -> bool:
        return all(v <= 0 for row in self.values for v in row)

    def min_value(self) -> Rat:
        return min(v for row in self.values for v in row)

    def min_over(self, event: "EventSet") -> Rat:
        return min(self.values[i][j] for i, j in event.cells)

    def restricted_to(self, event: "EventSet") -> "Gamble":
        """Bf: the gamble called off outside the event."""
        cells = set(event.cells)
        rows = [
            [
                self.values[i][j] if (i, j) in cells else Fraction(0)
                for j in range(self.space.n_prizes)
            ]
            for i in range(self.space.n_states)
        ]
        return Gamble.of(self.space, rows)

    def support(self) -> "EventSet":
        cells = tuple(
            (i, j)
            for i in range(self.space.n_states)
            for j in range(self.space.n_prizes)
            if self.values[i][j] != 0
        )
        return EventSet(self.space, cells)


@dataclass(frozen=True)
class EventSet:
    """A subset of the omega x prizes cells; conditioning on states uses
    cylinders B x prizes."""

    space: Space
    cells: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for cell in self.cells:
            i, j = cell
            if not (0 <= i < self.space.n_states and 0 <= j < self.space.n_prizes):
                raise InputError(f"cell {cell} outside the space")
            if cell in seen:
                raise InputError(f"duplicate cell {cell}")
            seen.add(cell)
        object.__setattr__(self, "cells", tuple(sorted(self.cells)))

    @staticmethod
    def from_states(space: Space, states: Sequence[str]) -> "EventSet":
        idx = [space.state_index(s) for s in states]
        cells = tuple((i, j) for i in sorted(idx) for j in range(space.n_prizes))
        return EventSet(space, cells)

    @staticmethod
    def all_cells(space: Space) -> "EventSet":
        return EventSet(space, tuple(space.cells()))

    def is_empty(self) -> bool:
        return not self.cells

    def is_state_cylinder(self) -> bool:
        states = {i for i, _ in self.cells}
        return len(self.cells) == len(states) * self.space.n_prizes

    def states(self) -> tuple[int, ...]:
        return tuple(sorted({i for i, _ in self.cells}))

    def indicator(self) -> Gamble:
        rows = [[Fraction(0)] * self.space.n_prizes for _ in self.space.omega]
        for i, j in self.cells:
            rows[i][j] = Fraction(1)
        return Gamble.of(self.space, rows)


@dataclass(frozen=True)
class HorseLottery:
    """Per-state probability mass function over the prizes.

    When ``includes_worst`` the mass table has one extra final column for
    the worst outcome z and the space must designate one.
    """

    space: Space
    masses: Rows
    includes_worst: bool = True

    def __post_init__(self):
        width = self.space.n_prizes + (1 if self.includes_worst else 0)
        if self.includes_worst:
            self.space.require_worst()
        if len(self.masses) != self.space.n_states or any(
            len(row) != width for row in self.masses
        ):
            raise InputError("lottery table does not match the space dimensions")
        for row in self.masses:
            if any(v < 0 for v in row):
                raise InputError("lottery masses must be nonnegative")
            if sum(row, Fraction(0)) != 1:
                raise InputError("every lottery row must sum to one")

    @staticmethod
    def of(space: Space, rows: Iterable[Iterable], includes_worst: bool = True):
        return HorseLottery(space, _to_rows(rows), includes_worst)

    @staticmethod
    def worst_act(space: Space) -> "HorseLottery":
        space.require_worst()
        rows = tuple(
            tuple([Fraction(0)] * space.n_prizes + [Fraction(1)])
            for _ in space.omega
        )
        return HorseLottery(space, rows, True)

    def difference(self, other: "HorseLottery") -> Rows:
        if self.space != other.space or self.includes_worst != other.includes_worst:
            raise InputError("lotteries live on different act spaces")
        return tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.masses, other.masses)
        )

    def mix(self, alpha, other: "HorseLottery") -> "HorseLottery":
        """alpha*self + (1-alpha)*other."""
        alpha = rat(alpha)
        if not 0 <= alpha <= 1:
            raise InputError("mixture coefficient must lie in [0, 1]")
        if self.space != other.space or self.includes_worst != other.includes_worst:
            raise InputError("lotteries live on different act spaces")
        rows = tuple(
            tuple(alpha * a + (1 - alpha) * b for a, b in zip(ra, rb))
            for ra, rb in zip(self.masses, other.masses)
        )
        return HorseLottery(self.space, rows, self.includes_worst)


# ---------------------------------------------------------------------------
# Projections between acts and gambles
# ---------------------------------------------------------------------------


def _z_rows(space: Space, h) -> Rows:
    if isinstance(h, HorseLottery):
        if not h.includes_worst:
            raise InputError("projection expects a table over the z-extended prizes")
        return h.masses
    rows = _to_rows(h)
    if len(rows) != space.n_states or any(
        len(row) != space.n_prizes + 1 for row in rows
    ):
        raise InputError("table does not match the z-extended space dimensions")
    return rows


def project_pi(space: Space, h) -> Gamble:
    """pi: drop the z column of a table on omega x (prizes + z)."""
    space.require_worst()
    rows = _z_rows(space, h)
    return Gamble(space, tuple(row[:-1] for row in rows))


def pi1_inverse(f: Gamble) -> HorseLottery:
    """Rebuild the lottery whose projection is f (z gets the missing mass)."""
    f.space.require_worst()
    rows = []
    for row in f.values:
        s = sum(row, Fraction(0))
        if any(v < 0 or v > 1 for v in row) or s > 1:
            raise InputError("gamble entries must lie in [0,1] with row sums <= 1")
        rows.append(tuple(row) + (1 - s,))
    return HorseLottery(f.space, tuple(rows), True)


def pi2_inverse(f: Gamble) -> Rows:
    """Rebuild the act difference whose projection is f (z gets minus the
    row sum); output rows sum to zero."""
    f.space.require_worst()
    return tuple(tuple(row) + (-sum(row, Fraction(0)),) for row in f.values)


def is_act_difference(rows) -> bool:
    """True iff every row of the table sums to exactly zero."""
    return all(sum(row, Fraction(0)) == 0 for row in _to_rows(rows))


# ---------------------------------------------------------------------------
# The finite generating family of the act-difference space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainDecomposition:
    """Per-state decomposition over the chain generators.

    For state i, ``permutations[i]`` reorders the prize indices so the
    nonnegative entries come first, and ``lambdas[i][k]`` is the
    coefficient of the generator I_{x_sigma(k)} - I_{x_sigma(k+1)}.
    All coefficients are nonnegative prefix sums.
    """

    gamble: Gamble
    permutations: tuple[tuple[int, ...], ...]
    lambdas: tuple[tuple[Rat, ...], ...]

    def reconstruct(self) -> Gamble:
        space = self.gamble.space
        rows = [[Fraction(0)] * space.n_prizes for _ in space.omega]
        for i, (perm, lams) in enumerate(zip(self.permutations, self.lambdas)):
            for k, lam in enumerate(lams):
                rows[i][perm[k]] += lam
                rows[i][perm[k + 1]] -= lam
        return Gamble.of(space, rows)


def decompose_in_generating_family(f: Gamble) -> ChainDecomposition:
    """Write a zero-row-sum gamble over the chain generators, state by state.

    The permutation puts nonnegative entries before negative ones; the
    coefficients are the prefix sums of the permuted row, which are then
    nonnegative and bounded by (|prizes| - 1) * max|f|.
    """
    perms = []
    lams = []
    for row in f.values:
        if sum(row, Fraction(0)) != 0:
            raise InputError("decomposition needs zero row sums")
        order = sorted(range(len(row)), key=lambda j: (row[j] < 0, j))
        prefix = []
        acc = Fraction(0)
        for j in order[:-1]:
            acc += row[j]
            prefix.append(acc)
        perms.append(tuple(order))
        lams.append(tuple(prefix))
    return ChainDecomposition(f, tuple(perms), tuple(lams))


# ---------------------------------------------------------------------------
# Factor spaces and cylinder embeddings
#
# Marginal models live on a one-axis space whose missing axis is the
# reserved singleton label "_"; products and marginalisation move gambles
# between a joint space and its two factor spaces through the embeddings
# below.
# ---------------------------------------------------------------------------

FACTOR_LABEL = "_"


def omega_factor_space(space: Space) -> Space:
    if FACTOR_LABEL in space.omega:
        raise InputError(f"label {FACTOR_LABEL!r} is reserved for factor spaces")
    return Space(space.omega, (FACTOR_LABEL,), None)


def prizes_factor_space(space: Space) -> Space:
    if FACTOR_LABEL in space.prizes:
        raise InputError(f"label {FACTOR_LABEL!r} is reserved for factor spaces")
    return Space((FACTOR_LABEL,), space.prizes, None)


def cylinder_from_omega(joint: Space, g: Gamble) -> Gamble:
    """Extend a state-factor gamble to the joint space, constant in prizes."""
    if g.space != omega_factor_space(joint):
        raise InputError("gamble is not on the state factor of this space")
    return Gamble(
        joint,
        tuple(tuple(row[0] for _ in joint.prizes) for row in g.values),
    )


def cylinder_from_prizes(joint: Space, g: Gamble) -> Gamble:
    """Extend a prize-factor gamble to the joint space, constant in states."""
    if g.space != prizes_factor_space(joint):
        raise InputError("gamble is not on the prize factor of this space")
    return Gamble(joint, tuple(g.values[0] for _ in joint.omega))


def embed_at_state(joint: Space, state: int, g: Gamble) -> Gamble:
    """I_{omega} . g: the prize-factor gamble paid only in one state."""
    if g.space != prizes_factor_space(joint):
        raise InputError("gamble is not on the prize factor of this space")
    zero = tuple(Fraction(0) for _ in joint.prizes)
    return Gamble(
        joint,
        tuple(g.values[0] if i == state else zero for i in range(joint.n_states)),
    )


def embed_at_prize(joint: Space, prize: int, g: Gamble) -> Gamble:
    """I_{x} . g: the state-factor gamble paid only on one prize column."""
    if g.space != omega_factor_space(joint):
        raise InputError("gamble is not on the state factor of this space")
    return Gamble(
        joint,
        tuple(
            tuple(row[0] if j == prize else Fraction(0) for j in range(joint.n_prizes))
            for row in g.values
        ),
    )


def normalize_worst_act(
    pairs: Sequence[tuple[HorseLottery, HorseLottery]], w: HorseLottery
) -> tuple[tuple[tuple[HorseLottery, HorseLottery], ...], tuple[int, ...]]:
    """Swap, state by state, the prize carrying w's unit mass with z.

    Returns the transformed pairs together with the per-state column index
    that was swapped with the z column (the transposition record); applying
    the same record again undoes the map.  Rejects w unless it is
    degenerate in every state, since no other act can be worst.
    """
    space = w.space
    space.require_worst()
    sigma = []
    for i, row in enumerate(w.masses):
        hits = [j for j, v in enumerate(row) if v == 1]
        if len(hits) != 1 or sum(row, Fraction(0)) != 1:
            raise ModelError(
                "a worst act must put unit mass on a single outcome in every "
                f"state; state {space.omega[i]!r} does not"
            )
        sigma.append(hits[0])
    sigma_t = tuple(sigma)
    out = tuple(
        (apply_state_swaps(p, sigma_t), apply_state_swaps(q, sigma_t))
        for p, q in pairs
    )
    return out, sigma_t


def apply_state_swaps(p: HorseLottery, sigma: Sequence[int]) -> HorseLottery:
    """Per state i, swap mass columns sigma[i] and z; an involution."""
    z_col = p.space.n_prizes
    rows = []
    for i, row in enumerate(p.masses):
        row = list(row)
        j = sigma[i]
        if j != z_col:
            row[j], row[z_col] = row[z_col], row[j]
        rows.append(tuple(row))
    return HorseLottery(p.space, tuple(rows), True)
