"""Exact invariants that desir's answers must satisfy, checked without desir.

The byte-for-byte gate can only compare a seed without committed outputs
with itself, so every run also audits its answers here, in plain
``Fraction`` arithmetic over the generated documents.  The audit enumerates
the vertices of every constraint-form credal set itself (brute force over
active sets, like the kernel's desk-scale method but written apart from it)
and checks:

* ``vertices`` answers equal that list, in order;
* ``lowprev``/``upprev`` on credal, strict and augmented sets are the vertex
  envelope; a strict verdict is "lower expectation > 0"; ``condnatex`` is
  the vacuous-or-Bayes bound; ``statecheck a4`` and ``a5`` follow from
  vertex factorisation and from the marginal products; ``marginal`` points
  are vertex marginals;
* membership certificates replay: a positive combination rebuilds the
  gamble with nonnegative weights and residual; an expectation certificate
  states the exact lower expectation of the peeled gamble; a separating
  mass is a prevision that meets every assertion and gives the gamble no
  positive expectation; plain and certified verdicts agree;
* a ``product strong`` point factorises; fg lower previsions and
  conditional lower previsions lie between the gamble's least and largest
  value on the event.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from itertools import product as cartesian


def _canonical(token: str) -> Fraction:
    """An answer value: ``p/q`` in lowest terms with q > 0."""
    num, sep, den = token.partition("/")
    value = Fraction(int(num), int(den))
    if not sep or value.numerator != int(num) or value.denominator != int(den):
        raise ValueError(f"{token!r} is not p/q in lowest terms")
    return value


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _solve(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """Solve a square system given as augmented rows; None when singular."""
    n = len(rows)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot = rows[col][col]
        head = rows[col] = [x / pivot for x in rows[col]]
        for i in range(n):
            f = rows[i][col]
            if i != col and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], head)]
    return [row[n] for row in rows]


def enumerate_vertices(constraints, cells: int) -> list[tuple[Fraction, ...]]:
    """Sorted vertices of {p >= 0, sum p = 1, c.p >= 0 for each constraint}.

    Each vertex is the unique solution of ``sum p = 1`` with ``cells - 1``
    tight rows from the pool of coordinate and constraint rows.
    """
    pool = [tuple(int(k == j) for k in range(cells)) for j in range(cells)]
    pool += [tuple(c) for c in constraints]
    found = set()
    for active in combinations(pool, cells - 1):
        rows = [[Fraction(x) for x in row] + [Fraction(0)] for row in active]
        rows.append([Fraction(1)] * cells + [Fraction(1)])
        p = _solve(rows)
        if p is not None and min(p) >= 0 and all(_dot(c, p) >= 0 for c in constraints):
            found.add(tuple(p))
    return sorted(found)


class _Doc:
    """The parts of a generated document the invariants need."""

    def __init__(self, text: str):
        self.gambles: dict[str, tuple[Fraction, ...]] = {}
        self.credals: dict[str, list[tuple[Fraction, ...]]] = {}
        self.desirsets: dict[str, tuple[str, list[str]]] = {}
        self.events: dict[str, list[int]] = {}
        self.pairs: set[tuple[str, str]] = set()
        self._vertices: dict[str, list[tuple[Fraction, ...]]] = {}
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        k = 0
        while k < len(lines):
            head = lines[k]
            body = []
            if head[0] != "desirset":
                end = k + 1
                while lines[end] != ["end"]:
                    end += 1
                body, k = lines[k + 1 : end], end
            k += 1
            if head[0] == "space":
                fields = {row[0]: row[1:] for row in body}
                self.omega, self.prizes = fields["omega"], fields["prizes"]
            elif head[0] == "gamble":
                self.gambles[head[1]] = tuple(Fraction(t) for row in body for t in row)
            elif head[0] == "credal" and len(head) == 2:
                self.credals[head[1]] = [tuple(Fraction(t) for t in row[1:]) for row in body]
            elif head[0] == "desirset":
                self.desirsets[head[1]] = (head[2], head[3:])
            elif head[0] == "event":
                self.events[head[1]] = [self.omega.index(s) for s in body[0][1:]]
            elif head[0] == "relation":
                self.pairs.update((row[1], row[2]) for row in body)
        self.n, self.m = len(self.omega), len(self.prizes)

    def vertices(self, credal: str) -> list[tuple[Fraction, ...]]:
        if credal not in self._vertices:
            self._vertices[credal] = enumerate_vertices(self.credals[credal], self.n * self.m)
        return self._vertices[credal]

    def credal_of(self, name: str) -> str | None:
        """The credal set behind a credal, strict or augmented set name."""
        if name in self.credals:
            return name
        kind, refs = self.desirsets[name]
        return None if kind == "fg" else refs[0]

    def event_cells(self, name: str) -> list[int]:
        return [i * self.m + j for i in self.events[name] for j in range(self.m)]

    def assertions(self, name: str):
        """(generators, borders, credal constraints) behind a set name."""
        if name in self.credals:
            return [], [], self.credals[name]
        kind, refs = self.desirsets[name]
        if kind == "fg":
            return [self.gambles[r] for r in refs], [], []
        return [], [self.gambles[r] for r in refs[1:]], self.credals[refs[0]]


class _DocAudit:
    def __init__(self, doc: _Doc, answers: dict[int, tuple[list[str], list[str]]]):
        self.doc = doc
        self.answers = answers
        self.verdicts: dict[tuple[str, str], str] = {}

    def run(self) -> dict[int, str]:
        problems = {}
        for q, (tokens, lines) in self.answers.items():
            try:
                check = getattr(self, "_" + tokens[0].replace("-", "_"), None)
                problem = check(tokens[1:], lines) if check else None
            except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                problem = f"unreadable answer ({type(exc).__name__}: {exc})"
            if problem:
                problems[q] = problem
        return problems

    def _lower(self, name: str, f) -> Fraction:
        return min(_dot(v, f) for v in self.doc.vertices(self.doc.credal_of(name)))

    # -- membership ---------------------------------------------------------------

    def _member(self, args, lines):
        name, g = args[0], args[1]
        f = self.doc.gambles[g]
        verdict = lines[0]
        if verdict not in ("true", "false"):
            return f"verdict {verdict!r}"
        if self.verdicts.setdefault((name, g), verdict) != verdict:
            return "plain and certified verdicts disagree"
        if any(f) and min(f) >= 0 and verdict != "true":
            return "a nonzero nonnegative gamble is always desirable"
        if max(f) <= 0 and verdict != "false":
            return "a nonpositive gamble is never desirable"
        if self.doc.credal_of(name) is not None and min(f) < 0 < max(f):
            positive = self._lower(name, f) > 0
            if positive and verdict != "true":
                return "positive lower expectation but not desirable"
            strict = not self.doc.assertions(name)[1]  # no border rays
            if strict and not positive and verdict != "false":
                return "strict set: lower expectation not positive but desirable"
        if args[-1] != "certificate":
            return "extra answer lines" if len(lines) != 1 else None
        return self._certificate(name, f, verdict, lines[1].split())

    def _certificate(self, name, f, verdict, cert):
        gens, borders, constraints = self.doc.assertions(name)
        fields = dict(t.split("=", 1) for t in cert[2:] if "=" in t)

        def weights(key):
            return [] if fields[key] == "-" else [_canonical(t) for t in fields[key].split(",")]

        if cert[:2] == ["certificate", "combination"]:
            lam, mu = weights("lambdas"), weights("borders")
            residual = [_canonical(t) for t in [fields["residual"]] + cert[5:]]
            if len(lam) != len(gens) or len(mu) != len(borders):
                return "combination weights do not match the set's rays"
            if verdict != "true" or min(lam + mu + residual, default=0) < 0:
                return "combination with a negative weight or residual"
            rebuilt = list(residual)
            for w, h in list(zip(lam, gens)) + list(zip(mu, borders)):
                rebuilt = [a + w * b for a, b in zip(rebuilt, h)]
            return "combination does not rebuild the gamble" if tuple(rebuilt) != f else None
        if cert[:2] == ["certificate", "separating"]:
            mass = [_canonical(fields["mass"])] + [_canonical(t) for t in cert[3:]]
            if verdict != "false" or min(mass) < 0 or sum(mass) != 1:
                return "separating mass is not a prevision of a non-member"
            if _dot(mass, f) > 0 or any(_dot(mass, h) < 0 for h in gens + borders + constraints):
                return "separating mass fails an assertion or rewards the gamble"
            return None
        if cert[:2] == ["certificate", "expectation"]:
            mu = weights("borders")
            if len(mu) != len(borders) or min(mu, default=0) < 0:
                return "expectation certificate with bad border weights"
            peeled = list(f)
            for w, b in zip(mu, borders):
                peeled = [a - w * x for a, x in zip(peeled, b)]
            value = _canonical(fields["value"])
            if verdict != "true" or value <= 0 or value != self._lower(name, peeled):
                return "expectation certificate is not the peeled gamble's positive lower expectation"
            return None
        return f"unknown certificate {' '.join(cert)!r}"

    def _pref_holds(self, args, lines):
        if lines not in (["true"], ["false"]):
            return f"verdict {lines!r}"
        if (args[1], args[2]) in self.doc.pairs and lines != ["true"]:
            return "an asserted preference does not hold"
        return None

    # -- previsions -----------------------------------------------------------------

    def _bounded(self, value, f, cells):
        values = [f[c] for c in cells]
        return "value outside the gamble's range" if not min(values) <= value <= max(values) else None

    def _lowprev(self, args, lines, env=min):
        (value_token,) = lines
        value = _canonical(value_token)
        f = self.doc.gambles[args[1]]
        credal = self.doc.credal_of(args[0])
        if credal is None:
            return self._bounded(value, f, range(len(f)))
        want = env(_dot(v, f) for v in self.doc.vertices(credal))
        return "not the vertex envelope" if value != want else None

    def _upprev(self, args, lines):
        return self._lowprev(args, lines, env=max)

    def _condlowprev(self, args, lines):
        (value_token,) = lines
        return self._bounded(_canonical(value_token), self.doc.gambles[args[1]], self.doc.event_cells(args[2]))

    def _condnatex(self, args, lines):
        (value_token,) = lines
        f = self.doc.gambles[args[1]]
        cells = self.doc.event_cells(args[2])
        verts = self.doc.vertices(args[0])
        weights = [sum(v[c] for c in cells) for v in verts]
        if min(weights) == 0:
            want = min(f[c] for c in cells)
        else:
            want = min(sum(v[c] * f[c] for c in cells) / w for v, w in zip(verts, weights))
        return "not the vacuous-or-Bayes bound over the vertices" if _canonical(value_token) != want else None

    # -- credal sets -----------------------------------------------------------------

    def _masses(self, lines):
        return [tuple(_canonical(t) for t in line.split()) for line in lines]

    def _vertices(self, args, lines):
        if self._masses(lines) != self.doc.vertices(args[0]):
            return "not the sorted vertex list of the constraints"
        return None

    def _marginals(self, verts, keep):
        n, m = self.doc.n, self.doc.m
        if keep == "omega":
            return {tuple(sum(v[i * m : (i + 1) * m]) for i in range(n)) for v in verts}
        return {tuple(sum(v[i * m + j] for i in range(n)) for j in range(m)) for v in verts}

    def _marginal(self, args, lines):
        if lines[0] != "strict":
            return f"marginal of a credal set answered {lines[0]!r}"
        points = set(self._masses(lines[1:]))
        if not points <= self._marginals(self.doc.vertices(self.doc.credal_of(args[0])), args[1]):
            return "a marginal vertex is no vertex's marginal"
        return None

    def _product(self, args, lines):
        n, m = self.doc.n, self.doc.m
        for p in self._masses(lines):
            rows = [sum(p[i * m : (i + 1) * m]) for i in range(n)]
            cols = [sum(p[i * m + j] for i in range(n)) for j in range(m)]
            if sum(p) != 1 or min(p) < 0 or any(p[i * m + j] != rows[i] * cols[j] for i in range(n) for j in range(m)):
                return f"{p} is not a product prevision"
        return None

    def _statecheck(self, args, lines):
        which, name = args[0], args[1]
        verts = self.doc.vertices(name)
        if which == "a5":
            products = (
                tuple(a * b for a in po for b in px)
                for po, px in cartesian(self._marginals(verts, "omega"), self._marginals(verts, "prizes"))
            )
            holds = all(_dot(p, c) >= 0 for p in products for c in self.doc.credals[name])
            return "a5 disagrees with the marginal products" if lines != [("true" if holds else "false")] else None
        n, m = self.doc.n, self.doc.m

        def factorizes(v):
            rows = [sum(v[i * m : (i + 1) * m]) for i in range(n)]
            cols = [sum(v[i * m + j] for i in range(n)) for j in range(m)]
            return all(v[i * m + j] == rows[i] * cols[j] for i in range(n) for j in range(m))

        if all(factorizes(v) for v in verts):
            return "every vertex factorises: a4 holds exactly" if lines != ["holds-exact"] else None
        if len(verts) > 1:
            return "no probes given: a4 holds on probes" if lines != ["holds-on-probes"] else None
        return None if lines[0].startswith("fails ") else "a linear joint that does not factorise"


def audit(texts: list[str], scripts: list[list[str]], answers: dict[tuple[int, int], str]):
    """Map (document, query) to the invariant its answer breaks."""
    problems = {}
    for d, text in enumerate(texts):
        mine = {
            q: (scripts[d][q].split(), answer.split("\n"))
            for (dd, q), answer in answers.items()
            if dd == d
        }
        for q, problem in _DocAudit(_Doc(text), mine).run().items():
            problems[(d, q)] = problem
    return problems
