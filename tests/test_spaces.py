from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desir.errors import InputError, ModelError
from desir.spaces import (
    EventSet,
    Gamble,
    HorseLottery,
    Space,
    apply_state_swaps,
    decompose_in_generating_family,
    is_act_difference,
    normalize_worst_act,
    pi1_inverse,
    pi2_inverse,
    project_pi,
)

from conftest import rand_gamble, rand_lottery, rand_space

SP1 = Space(("w0",), ("x",), "z")
SP2 = Space(("w0",), ("x0", "x1"), "z")


def fr(num, den=1):
    return F(num, den)


rationals = st.fractions(max_denominator=12, min_value=-5, max_value=5)


def test_space_validation():
    with pytest.raises(InputError):
        Space((), ("x",))
    with pytest.raises(InputError):
        Space(("a", "a"), ("x",))
    with pytest.raises(InputError):
        Space(("a",), ("x",), worst="x")


def test_project_drops_z_column():
    g = project_pi(SP1, [[F(3, 10), F(7, 10)]])
    assert g.values == ((F(3, 10),),)


def test_project_of_difference():
    p = HorseLottery.of(SP1, [[1, 0]])
    q = HorseLottery.of(SP1, [[F(1, 2), F(1, 2)]])
    g = project_pi(SP1, p.difference(q))
    assert g.values == ((F(1, 2),),)


def test_pi1_inverse_examples():
    lot = pi1_inverse(Gamble.of(SP1, [[F(3, 10)]]))
    assert lot.masses == ((F(3, 10), F(7, 10)),)
    assert pi1_inverse(Gamble.zero(SP1)) == HorseLottery.worst_act(SP1)
    lot2 = pi1_inverse(Gamble.of(SP2, [[F(1, 2), F(1, 2)]]))
    assert lot2.masses[0][-1] == 0


def test_pi1_inverse_rejects_bad_rows():
    with pytest.raises(InputError):
        pi1_inverse(Gamble.of(SP2, [[F(3, 4), F(1, 2)]]))
    with pytest.raises(InputError):
        pi1_inverse(Gamble.of(SP1, [[F(-1, 4)]]))


def test_pi2_inverse_examples():
    assert pi2_inverse(Gamble.of(SP1, [[F(1, 5)]])) == ((F(1, 5), F(-1, 5)),)
    assert pi2_inverse(Gamble.of(SP2, [[1, -1]]))[0][-1] == 0


def test_pi_inverse_pairs_random(rng):
    for _ in range(30):
        space = rand_space(rng)
        f = rand_gamble(rng, space)
        assert project_pi(space, pi2_inverse(f)) == f
        p = rand_lottery(rng, space)
        assert pi1_inverse(project_pi(space, p)) == p


@given(rows=st.lists(st.lists(rationals, min_size=2, max_size=2), min_size=1, max_size=3))
def test_pi2_rows_sum_to_zero(rows):
    space = Space(tuple(f"w{i}" for i in range(len(rows))), ("x0", "x1"), "z")
    table = pi2_inverse(Gamble.of(space, rows))
    assert is_act_difference(table)


def test_is_act_difference_examples(rng):
    for lam in (F(1, 3), F(1), F(7, 2)):
        space = rand_space(rng)
        p, q = rand_lottery(rng, space), rand_lottery(rng, space)
        diff = tuple(
            tuple(lam * v for v in row) for row in p.difference(q)
        )
        assert is_act_difference(diff)
    assert not is_act_difference([[1, 1], [1, 1]])
    assert is_act_difference([[1, -1, 0]])
    assert not is_act_difference([[1, -1, 1]])


def test_decompose_single_generator():
    space = Space(("w0",), ("x0", "x1"))
    dec = decompose_in_generating_family(Gamble.of(space, [[2, -2]]))
    assert dec.lambdas == ((F(2),),)
    assert dec.permutations == ((0, 1),)
    assert dec.reconstruct() == dec.gamble


def test_decompose_zero_row():
    space = Space(("w0",), ("x0", "x1", "x2"))
    dec = decompose_in_generating_family(Gamble.zero(space))
    assert dec.lambdas == ((F(0), F(0)),)


def test_decompose_prefix_sums():
    space = Space(("w0",), ("x0", "x1", "x2"))
    dec = decompose_in_generating_family(Gamble.of(space, [[1, 1, -2]]))
    assert dec.lambdas == ((F(1), F(2)),)
    assert dec.reconstruct() == dec.gamble


def test_decompose_rejects_nonzero_sum():
    space = Space(("w0",), ("x0", "x1"))
    with pytest.raises(InputError):
        decompose_in_generating_family(Gamble.of(space, [[1, 1]]))


@settings(max_examples=60)
@given(data=st.data())
def test_decompose_reconstructs_and_bounds(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(2, 4))
    space = Space(tuple(f"w{i}" for i in range(n)), tuple(f"x{j}" for j in range(m)))
    rows = []
    for _ in range(n):
        head = [data.draw(rationals) for _ in range(m - 1)]
        rows.append(head + [-sum(head)])
    f = Gamble.of(space, rows)
    dec = decompose_in_generating_family(f)
    assert dec.reconstruct() == f
    eps = max(abs(v) for row in f.values for v in row)
    k = m - 1
    for lams in dec.lambdas:
        assert all(0 <= lam <= k * eps for lam in lams)


def test_support_examples():
    space = Space(("w0",), ("x0", "x1", "x2"))
    ev = Gamble.of(space, [[1, 0, -1]]).support()
    assert ev.cells == ((0, 0), (0, 2))
    assert Gamble.zero(space).support().is_empty()
    b = EventSet(space, ((0, 1),))
    assert b.indicator().support() == b


def test_normalize_worst_act_identity():
    space = Space(("w0", "w1"), ("x0",), "z")
    w = HorseLottery.worst_act(space)
    p = HorseLottery.of(space, [[F(1, 2), F(1, 2)], [1, 0]])
    pairs, sigma = normalize_worst_act([(p, w)], w)
    assert sigma == (1, 1)
    assert pairs == ((p, w),)


def test_normalize_worst_act_swaps():
    # w picks x1 in state w0 and z in state w1: lotteries swap columns
    # x1 <-> z in the first state only.
    space = Space(("w0", "w1"), ("x0", "x1"), "z")
    w = HorseLottery.of(space, [[0, 1, 0], [0, 0, 1]])
    p = HorseLottery.of(space, [[F(1, 2), F(1, 4), F(1, 4)], [1, 0, 0]])
    pairs, sigma = normalize_worst_act([(p, w)], w)
    pp = pairs[0][0]
    assert sigma == (1, 2)
    assert pp.masses[0] == (F(1, 2), F(1, 4), F(1, 4))[:1] + (F(1, 4), F(1, 4))
    assert pp.masses[1] == (1, 0, 0)


def test_normalize_worst_act_involution(rng):
    for _ in range(20):
        space = rand_space(rng)
        w_rows = []
        for _ in space.omega:
            row = [F(0)] * (space.n_prizes + 1)
            row[rng.randrange(space.n_prizes + 1)] = F(1)
            w_rows.append(row)
        w = HorseLottery.of(space, w_rows)
        p = rand_lottery(rng, space)
        _, sigma = normalize_worst_act([], w)
        assert apply_state_swaps(apply_state_swaps(p, sigma), sigma) == p


def test_normalize_worst_act_rejects_nondegenerate():
    space = Space(("w0",), ("x0",), "z")
    w = HorseLottery.of(space, [[F(1, 2), F(1, 2)]])
    with pytest.raises(ModelError):
        normalize_worst_act([], w)
