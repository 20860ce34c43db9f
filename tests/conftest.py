import random
from fractions import Fraction

import pytest

import desir.cones
import desir.credal
from desir.spaces import Gamble, HorseLottery, Space


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def solved_lps(monkeypatch):
    """Every LP that ``desir.cones`` or ``desir.credal`` solves from here
    on, in order, as (module, problem) pairs; module is "cones" or
    "credal"."""
    log = []
    for module in (desir.cones, desir.credal):
        name = module.__name__.rpartition(".")[2]

        def recording(problem, name=name, real=module.solve):
            log.append((name, problem))
            return real(problem)

        monkeypatch.setattr(module, "solve", recording)
    return log


@pytest.fixture
def enumerations(monkeypatch):
    """The argument tuple of every ``desir.credal.enumerate_vertices`` call
    from here on, in order."""
    log = []

    def counting(*args, real=desir.credal.enumerate_vertices):
        log.append(args)
        return real(*args)

    monkeypatch.setattr(desir.credal, "enumerate_vertices", counting)
    return log


def lps_in(solved, module) -> list:
    """The problems of a ``solved_lps`` log that ``module`` solved."""
    return [problem for name, problem in solved if name == module]


def rand_rat(rng, lo=-4, hi=4, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_nonneg_rat(rng, hi=4, max_den=4) -> Fraction:
    return Fraction(rng.randint(0, hi), rng.randint(1, max_den))


def rand_space(rng, max_states=3, max_prizes=3, worst=True) -> Space:
    n = rng.randint(1, max_states)
    m = rng.randint(1, max_prizes)
    return Space(
        tuple(f"w{i}" for i in range(n)),
        tuple(f"x{j}" for j in range(m)),
        "z" if worst else None,
    )


def rand_gamble(rng, space, lo=-4, hi=4, max_den=4) -> Gamble:
    return Gamble.of(
        space,
        [[rand_rat(rng, lo, hi, max_den) for _ in space.prizes] for _ in space.omega],
    )


def rand_mass_row(rng, width) -> tuple:
    raw = [rng.randint(0, 5) for _ in range(width)]
    if not any(raw):
        raw[rng.randrange(width)] = 1
    total = sum(raw)
    return tuple(Fraction(v, total) for v in raw)


def rand_lottery(rng, space, includes_worst=True) -> HorseLottery:
    width = space.n_prizes + (1 if includes_worst else 0)
    rows = [rand_mass_row(rng, width) for _ in space.omega]
    return HorseLottery.of(space, rows, includes_worst)
