"""Seeded generator for the benchmark's problem documents and query scripts.

Each workload has a fixed *shape*: the space, the constraint-form credal
sets, the generators, border rays and lotteries, and how many of each query
kind a script holds.  The shape sets the cost of a run (vertex counts, LP
sizes), so it does not change with the seed.  The seed draws the rest:

* a permutation of the states and one of the prizes, applied to every
  template table, so each LP and each enumeration sees the same numbers in
  another order (vertex counts are invariant under it);
* every query gamble, in fixed proportions of members by construction and
  random gambles;
* the order of the queries in each script.

Run as a script to answer every query of a seed once and name any that
fails, or to refresh the committed inputs and expected outputs of the
default seed (``--commit``):

    python3 bench/generate.py --seed 7
    python3 bench/generate.py --commit
"""

from __future__ import annotations

import argparse
import io
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DATA = BENCH / "data"
DEFAULT_SEED = 1
WORKLOADS = ("fg-strict-batch", "vertex-ladder", "augmented-cond")


#: Generated inputs: ``(stem, document text, script text)`` per document.
Parts = tuple[tuple[str, str, str], ...]


# -- template tables (row-major over states x prizes) ------------------------

# 4x3, two constraints: 74 vertices.
FG_STRICT_CREDAL = (
    (0, 3, 2, 3, -2, 0, -2, 0, 3, 2, -1, -3),
    (-2, 1, 0, 3, 2, -2, 1, 3, 1, 0, 2, -1),
)

# 3x3, two constraints: 29 vertices.  Each border ray has lower expectation
# exactly zero on this credal set and the rays pass the coherence checks.
AUGMENTED_CREDAL = (
    (3, 0, -1, 2, 0, 2, -1, -3, 0),
    (0, 0, 1, -1, -2, 3, 0, 3, 1),
)
AUGMENTED_BORDERS = (
    (3, 15, 3, -1, 23, 3, 23, 11, 7),
    (13, 5, 13, 5, 21, 9, -3, 13, 17),
    (7, 7, 5, -1, 1, 9, 7, 3, 11),
)

# Ladder rungs (states, prizes, constraints): 22, 73 and 66 vertices from
# 126, 495 and 792 candidate active sets.  Larger rungs (3x3 with four
# constraints: 92 vertices, ~2 s; 4x4 with four: 840 vertices, ~72 s) would
# not fit three set-ups in one run.
LADDER_RUNGS = (
    (2, 3, ((3, 1, -3, -2, 2, 2), (1, 3, 2, -2, -3, 1), (0, 2, 1, 0, 3, -1))),
    (
        3,
        3,
        (
            (2, -3, -3, 2, 2, -1, 2, 1, 2),
            (3, 0, -1, 2, 0, 2, -1, -3, 0),
            (0, 0, 1, -1, -2, 3, 0, 3, 1),
        ),
    ),
    (
        2,
        4,
        (
            (2, -3, 3, 1, 1, 3, 3, -1),
            (-1, 2, -1, 1, 0, 1, 3, 0),
            (-3, 2, 2, -1, 2, 1, 2, 3),
            (0, 3, 1, -1, 2, 0, -1, 2),
        ),
    ),
)
# Factor credal sets for the product and state-independence queries.
LADDER_OMEGA_FACTOR = {2: ((2, -1),), 3: ((2, -1, 0), (0, 1, -1))}
LADDER_PRIZES_FACTOR = {3: ((1, 1, -1), (-1, 2, 0)), 4: ((1, -1, 1, 0), (0, 2, -1, 1))}


# -- text helpers ---------------------------------------------------------------


def _num(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class _Doc:
    def __init__(self, n: int, m: int, worst: bool):
        self.m = m
        self.lines = [
            "space",
            "omega " + " ".join(f"s{i + 1}" for i in range(n)),
            "prizes " + " ".join(f"x{j + 1}" for j in range(m)),
        ]
        if worst:
            self.lines.append("worst z")
        self.lines.append("end")

    def block(self, head: str, rows):
        self.lines += ["", head]
        self.lines += [" ".join(_num(v) for v in row) for row in rows]
        self.lines.append("end")

    def section(self, head: str, body: list[str]):
        self.lines += ["", head, *body, "end"]

    def gamble(self, name: str, flat):
        self.block(f"gamble {name}", [flat[k : k + self.m] for k in range(0, len(flat), self.m)])

    def credal(self, name: str, constraints, on: str = ""):
        self.section(
            f"credal {name}" + (f" on {on}" if on else ""),
            ["constraint " + " ".join(_num(v) for v in c) for c in constraints],
        )

    def line(self, text: str):
        self.lines += ["", text]

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _permute(flat, n: int, m: int, sigma, tau):
    """Relabel a row-major n x m table: new[i][j] = old[sigma[i]][tau[j]]."""
    return tuple(flat[sigma[i] * m + tau[j]] for i in range(n) for j in range(m))


def _perms(rng: random.Random, n: int, m: int):
    sigma, tau = list(range(n)), list(range(m))
    rng.shuffle(sigma)
    rng.shuffle(tau)
    return sigma, tau


def _random_gamble(rng: random.Random, cells: int, lo: int = -5, hi: int = 5):
    while True:
        g = tuple(rng.randint(lo, hi) for _ in range(cells))
        if any(g):
            return g


def _combination(rng: random.Random, rays, cells: int, base: int = 0):
    """``base`` plus a sparse 0/1 residual plus weights 1..2 on every ray."""
    g = [base + (rng.random() < 0.3) for _ in range(cells)]
    for ray in rays:
        w = rng.randint(1, 2)
        g = [a + w * b for a, b in zip(g, ray)]
    return tuple(g)


def _each(names: list[str], count: int) -> list[str]:
    """``count`` uses spread evenly over ``names`` (a multiple of its length)."""
    assert count % len(names) == 0
    return names * (count // len(names))


def _script(rng: random.Random, queries: list[str]) -> str:
    rng.shuffle(queries)
    return "\n".join(queries) + "\n"


# -- workloads --------------------------------------------------------------------
#
# ``shape`` is seeded by the workload name alone and draws the fixed parts
# (generators, lotteries); ``rng`` is seeded by the run's seed.  Query
# gambles come from ``rng`` in fixed proportions of members built by
# construction and random gambles, and every query kind uses every gamble
# equally often, so the cost mix does not drift with the seed.


def _fg_strict(shape: random.Random, rng: random.Random):
    n, m = 4, 3
    cells = n * m
    sigma, tau = _perms(rng, n, m)
    doc = _Doc(n, m, worst=True)
    # Generators with positive total are strictly desirable under the
    # uniform prevision, so the fg set avoids partial loss.
    gens = []
    while len(gens) < 4:
        h = _random_gamble(shape, cells, -3, 3)
        if sum(h) > 0 and min(h) < 0:
            gens.append(_permute(h, n, m, sigma, tau))
    for k, h in enumerate(gens):
        doc.gamble(f"h{k + 1}", h)
    credal = [_permute(c, n, m, sigma, tau) for c in FG_STRICT_CREDAL]
    # A third of the gambles are in R (generator combinations plus a
    # nonnegative residual), a third in S (constraint combinations plus a
    # positive constant) and a third are random.
    pool = []
    for k in range(30):
        if k % 3 == 0:
            pool.append(_combination(rng, gens, cells))
        elif k % 3 == 1:
            pool.append(_combination(rng, credal, cells, base=1))
        else:
            pool.append(_random_gamble(rng, cells))
    for k, g in enumerate(pool):
        doc.gamble(f"g{k + 1}", g)
    doc.credal("M", credal)
    doc.line("desirset R fg h1 h2 h3 h4")
    doc.line("desirset S strict M")
    # Lotteries over x1..x3 and z in quarters; a pair (a, b) is asserted only
    # when a puts less total mass on z, which keeps the relation consistent.
    lots = []
    for k in range(8):
        rows = []
        for _ in range(n):
            cuts = sorted(shape.randint(0, 4) for _ in range(m))
            parts = [cuts[0]] + [cuts[i] - cuts[i - 1] for i in range(1, m)]
            rows.append([Fraction(p, 4) for p in parts + [4 - cuts[-1]]])
        lots.append(rows)
        doc.block(f"lottery l{k + 1}", [[rows[i][j] for j in tau] + [rows[i][m]] for i in sigma])
    z_mass = [sum(r[-1] for r in rows) for rows in lots]
    pairs = shape.sample(
        [(a, b) for a in range(8) for b in range(8) if z_mass[a] < z_mass[b]], 4
    )
    doc.section("relation rel", [f"pair l{a + 1} l{b + 1}" for a, b in pairs])

    names = [f"g{k + 1}" for k in range(len(pool))]
    queries = []
    for template, count in (
        ("member R {}", 90),
        ("member R {} certificate", 60),
        ("lowprev R {}", 60),
        ("upprev R {}", 60),
        ("member S {}", 90),
        ("member S {} certificate", 60),
        ("lowprev S {}", 60),
        ("upprev S {}", 60),
    ):
        queries += [template.format(g) for g in _each(names, count)]
    # every ordered pair of distinct lotteries, and the asserted ones again
    queries += [f"pref-holds rel l{a} l{b}" for a in range(1, 9) for b in range(1, 9) if a != b]
    queries += [f"pref-holds rel l{a + 1} l{b + 1}" for a, b in pairs]
    return (("batch", doc.text(), _script(rng, queries)),)


def _ladder(shape: random.Random, rng: random.Random):
    parts = []
    for rung, (n, m, constraints) in enumerate(LADDER_RUNGS):
        cells = n * m
        sigma, tau = _perms(rng, n, m)
        doc = _Doc(n, m, worst=False)
        names = [f"g{k + 1}" for k in range(20)]
        for name in names:
            doc.gamble(name, _random_gamble(rng, cells))
        doc.credal("J", [_permute(c, n, m, sigma, tau) for c in constraints])
        doc.credal("MO", [[c[i] for i in sigma] for c in LADDER_OMEGA_FACTOR[n]], on="omega")
        doc.credal("MX", [[c[j] for j in tau] for c in LADDER_PRIZES_FACTOR[m]], on="prizes")
        events = [f"s{i + 1}" for i in range(n)] + [" ".join(f"s{i + 1}" for i in range(n - 1))]
        for k, states in enumerate(events):
            doc.section(f"event E{k + 1}", [f"states {states}"])
        queries = ["vertices J"] * 2
        queries += [f"lowprev J {g}" for g in names]
        queries += [f"upprev J {g}" for g in names]
        queries += [f"condnatex J {g} E{k % len(events) + 1}" for k, g in enumerate(names)]
        queries += ["marginal J omega", "marginal J prizes"] * 2
        queries += ["product strong MO MX", "statecheck a4 J"] * 2
        queries += ["statecheck a5 J"]
        stem = f"rung{rung + 1}-{n}x{m}-{len(constraints)}"
        parts.append((stem, doc.text(), _script(rng, queries)))
    return tuple(parts)


def _augmented(shape: random.Random, rng: random.Random):
    n, m = 3, 3
    cells = n * m
    sigma, tau = _perms(rng, n, m)
    doc = _Doc(n, m, worst=True)
    borders = [_permute(b, n, m, sigma, tau) for b in AUGMENTED_BORDERS]
    for k, b in enumerate(borders):
        doc.gamble(f"b{k + 1}", b)
    credal = [_permute(c, n, m, sigma, tau) for c in AUGMENTED_CREDAL]
    # A third of the gambles sit on the border cone (border combinations plus
    # a nonnegative residual), a third in the open part (constraint
    # combinations plus a positive constant), a third are random: every
    # branch of the membership case split runs.
    pool = []
    for k in range(18):
        if k % 3 == 0:
            pool.append(_combination(rng, borders, cells))
        elif k % 3 == 1:
            pool.append(_combination(rng, credal, cells, base=1))
        else:
            pool.append(_random_gamble(rng, cells))
    names = [f"g{k + 1}" for k in range(len(pool))]
    for name, g in zip(names, pool):
        doc.gamble(name, g)
    doc.credal("M", credal)
    doc.line("desirset A augmented M b1 b2 b3")
    events = ["s1", "s2", "s3", "s1 s2", "s2 s3", "s1 s3"]
    for k, states in enumerate(events):
        doc.section(f"event E{k + 1}", [f"states {states}"])
    queries = [f"member A {g}" for g in _each(names, 72)]
    queries += [f"member A {g} certificate" for g in _each(names, 36)]
    queries += [
        f"condlowprev A {g} E{(k + u) % len(events) + 1}"
        for u in range(4)
        for k, g in enumerate(names)
    ]
    queries += [f"lowprev A {g}" for g in _each(names, 36)]
    return (("augmented", doc.text(), _script(rng, queries)),)


_GENERATORS = {
    "fg-strict-batch": _fg_strict,
    "vertex-ladder": _ladder,
    "augmented-cond": _augmented,
}


def generate(workload: str, seed: int) -> Parts:
    """The inputs of one workload for one seed; same seed, same bytes."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    shape = random.Random(f"{workload}:shape")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](shape, rng)


def write(parts: Parts, directory: Path) -> list[tuple[Path, Path]]:
    """Write each document and script; return their paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, doc, script in parts:
        doc_path = directory / f"{stem}.doc.txt"
        script_path = directory / f"{stem}.script.txt"
        doc_path.write_text(doc, encoding="utf-8")
        script_path.write_text(script, encoding="utf-8")
        paths.append((doc_path, script_path))
    return paths


def desir_run(doc_path: Path, script_path: Path) -> str:
    """What ``desir run DOC SCRIPT`` prints; raises if it exits non-zero."""
    from desir.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["run", str(doc_path), str(script_path)])
    if code != 0:
        raise RuntimeError(f"desir run {doc_path.name} exited with {code}")
    return out.getvalue()


def check(parts: Parts) -> list[str]:
    """Run every query once; one message per query that raises."""
    from desir.cli import run_command
    from desir.document import parse_document

    problems = []
    for stem, doc_text, script in parts:
        try:
            doc = parse_document(doc_text)
        except Exception as exc:  # report, then go on with the next document
            problems.append(f"{stem}: document: {type(exc).__name__}: {exc}")
            continue
        for line in script.splitlines():
            try:
                run_command(doc, line.split())
            except Exception as exc:
                problems.append(f"{stem}: {line}: {type(exc).__name__}: {exc}")
    return problems


def load_desir():
    """Import desir from this checkout's ``src`` and nowhere else; exit 2 if absent."""
    src = BENCH.parent / "src"
    if not (src / "desir" / "__init__.py").is_file():
        print(f"bench: no desir sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import desir

    if Path(desir.__file__).resolve().parent != (src / "desir").resolve():
        print(f"bench: imported desir from {desir.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument(
        "--commit",
        action="store_true",
        help="rewrite bench/data from the default seed, with desir run's outputs",
    )
    ns = ap.parse_args(argv)
    names = WORKLOADS if ns.workload == "all" else (ns.workload,)
    load_desir()
    failed = 0
    for name in names:
        parts = generate(name, DEFAULT_SEED if ns.commit else ns.seed)
        if ns.commit:
            for doc_path, script_path in write(parts, DATA / name):
                expected = desir_run(doc_path, script_path)
                stem = doc_path.name[: -len(".doc.txt")]
                (DATA / name / f"{stem}.expected.txt").write_text(expected, encoding="utf-8")
            print(f"{name}: committed inputs and expected outputs under {DATA / name}")
        else:
            problems = check(parts)
            failed += len(problems)
            for p in problems:
                print(f"{name} seed {ns.seed}: FAILED {p}")
            if not problems:
                print(f"{name} seed {ns.seed}: every query answered")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
