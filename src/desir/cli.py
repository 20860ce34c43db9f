"""Command surface and batch runner over problem documents.

Every command answers in a deterministic text form with rationals printed
as ``p/q`` in lowest terms.  Exit codes: 0 all queries answered, 1 a
checked property was violated (incoherent set, inconsistent relation,
failed interpolation precondition), 2 malformed input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .cones import (
    DesirSet,
    PositiveCombination,
    PositiveExpectation,
    SeparatingPrevision,
)
from .credal import CredalSet
from .document import ProblemDocument, emit_document, parse_document, rat_str
from .errors import DesirError, InputError, ModelError
from .preferences import (
    archimedean_class_of_set,
    extend_to_worst_outcome,
    interpolate_strict_superset,
)
from .products import (
    independent_natural_extension,
    irrelevant_product_set,
    is_strong_product,
    satisfies_a4,
    satisfies_a5,
    strong_product,
)
from .spaces import Gamble


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _flat(g: Gamble) -> str:
    return " ".join(rat_str(v) for v in g.flat())


def _vertices(credal: CredalSet) -> list[str]:
    return [" ".join(rat_str(v) for v in p.mass) for p in credal.vertices]


def _certificate_lines(cert) -> list[str]:
    if isinstance(cert, PositiveCombination):
        lams = ",".join(rat_str(v) for v in cert.lambdas) or "-"
        mus = ",".join(rat_str(v) for v in cert.border_lambdas) or "-"
        return [
            f"certificate combination lambdas={lams} borders={mus} "
            f"residual={_flat(cert.residual)}"
        ]
    if isinstance(cert, PositiveExpectation):
        mus = ",".join(rat_str(v) for v in cert.border_lambdas) or "-"
        return [f"certificate expectation borders={mus} value={rat_str(cert.value)}"]
    if isinstance(cert, SeparatingPrevision):
        mass = " ".join(rat_str(v) for v in cert.prevision.mass)
        return [f"certificate separating mass={mass}"]
    raise InputError(f"unknown certificate {type(cert).__name__}")


def _backing(doc: ProblemDocument, name: str):
    if name in doc.desirsets:
        return doc.desirsets[name]
    if name in doc.credals:
        return DesirSet.strict(doc.credals[name])
    raise InputError(f"no desirset or credal named {name!r}")


def run_command(doc: ProblemDocument, tokens: Sequence[str]) -> list[str]:
    if not tokens:
        raise InputError("empty command")
    cmd, args = tokens[0], list(tokens[1:])

    if cmd == "check":
        if args:
            raise InputError("check takes no arguments")
        for name, rel in doc.relations.items():
            if not rel.is_consistent():
                raise ModelError(f"relation {name!r} is inconsistent")
        return ["ok"]

    if cmd == "member":
        want_cert = False
        if args and args[-1] == "certificate":
            want_cert = True
            args.pop()
        if len(args) != 2:
            raise InputError("usage: member SET GAMBLE [certificate]")
        dset = _backing(doc, args[0])
        f = doc.lookup("gamble", args[1])
        if want_cert:
            verdict = dset.member(f)  # replay-verified before printing
            return [_bool(verdict.member)] + _certificate_lines(verdict.certificate)
        return [_bool(dset.contains(f))]

    if cmd in ("lowprev", "upprev"):
        if len(args) != 2:
            raise InputError(f"usage: {cmd} SET GAMBLE")
        dset = _backing(doc, args[0])
        f = doc.lookup("gamble", args[1])
        value = dset.lower_prevision(f) if cmd == "lowprev" else dset.upper_prevision(f)
        return [rat_str(value)]

    if cmd == "condlowprev":
        if len(args) != 3:
            raise InputError("usage: condlowprev SET GAMBLE EVENT")
        dset = _backing(doc, args[0])
        f = doc.lookup("gamble", args[1])
        ev = doc.lookup("event", args[2])
        return [rat_str(dset.conditional_lower_prevision(f, ev))]

    if cmd == "condnatex":
        if len(args) != 3:
            raise InputError("usage: condnatex CREDAL GAMBLE EVENT")
        credal = doc.lookup("credal", args[0])
        f = doc.lookup("gamble", args[1])
        ev = doc.lookup("event", args[2])
        return [rat_str(credal.conditional_natural_extension(f, ev))]

    if cmd == "vertices":
        if len(args) != 1:
            raise InputError("usage: vertices CREDAL")
        return _vertices(doc.lookup("credal", args[0]))

    if cmd == "marginal":
        if len(args) != 2 or args[1] not in ("omega", "prizes"):
            raise InputError("usage: marginal SET omega|prizes")
        view = _backing(doc, args[0]).marginalize(args[1])
        strict = view.as_strict()
        if strict is not None:
            return ["strict"] + _vertices(strict.credal)
        return [f"view {args[0]} {args[1]}"]

    if cmd == "condition":
        if len(args) != 2:
            raise InputError("usage: condition SET EVENT")
        dset = _backing(doc, args[0])
        ev = doc.lookup("event", args[1])
        view = dset.condition(ev)
        if dset.kind == "fg":
            return ["fg"] + [_flat(g) for g in view.materialized_generators()]
        return [f"view {args[0]} {args[1]}"]

    if cmd == "pref-holds":
        if len(args) != 3:
            raise InputError("usage: pref-holds REL P Q")
        rel = doc.lookup("relation", args[0])
        p = doc.lookup("lottery", args[1])
        q = doc.lookup("lottery", args[2])
        return [_bool(rel.holds(p, q))]

    if cmd == "extend-worst":
        if len(args) != 1:
            raise InputError("usage: extend-worst REL")
        dset = extend_to_worst_outcome(doc.lookup("relation", args[0]))
        return ["fg"] + [_flat(g) for g in dset.generators]

    if cmd == "archimedean":
        if len(args) != 1:
            raise InputError("usage: archimedean REL|SET")
        name = args[0]
        if name in doc.relations:
            return [doc.relations[name].archimedean_class()]
        return [archimedean_class_of_set(_backing(doc, name))]

    if cmd == "product":
        if len(args) != 3:
            raise InputError("usage: product irrelevant|independent|strong MO MX")
        kind = args[0]
        if kind == "strong":
            mo = doc.lookup("credal", args[1])
            mx = doc.lookup("credal", args[2])
            return _vertices(strong_product(mo, mx, doc.space))
        ro = doc.lookup("desirset", args[1])
        rx = doc.lookup("desirset", args[2])
        if kind == "irrelevant":
            dset = irrelevant_product_set(ro, rx, doc.space)
        elif kind == "independent":
            dset = independent_natural_extension(ro, rx, doc.space)
        else:
            raise InputError(f"unknown product kind {kind!r}")
        return ["fg"] + [_flat(g) for g in dset.generators]

    if cmd == "statecheck":
        if not args:
            raise InputError("usage: statecheck a4|a5|strong JOINT [MO MX]")
        which = args[0]
        if which == "a4":
            if len(args) != 2:
                raise InputError("usage: statecheck a4 JOINT")
            verdict = satisfies_a4(doc.lookup("credal", args[1]))
            if verdict.kind == "fails" and verdict.witness is not None:
                i, j, got, want = verdict.witness
                cell = f"{doc.space.omega[i]}:{doc.space.prizes[j]}"
                return [f"fails {cell} {rat_str(got)} {rat_str(want)}"]
            return [verdict.kind]
        if which == "a5":
            if len(args) not in (2, 4):
                raise InputError("usage: statecheck a5 JOINT [MO MX]")
            joint = doc.lookup("credal", args[1])
            mo = doc.lookup("credal", args[2]) if len(args) == 4 else None
            mx = doc.lookup("credal", args[3]) if len(args) == 4 else None
            return [_bool(satisfies_a5(joint, mo, mx))]
        if which == "strong":
            if len(args) != 4:
                raise InputError("usage: statecheck strong JOINT MO MX")
            joint = doc.lookup("credal", args[1])
            mo = doc.lookup("credal", args[2])
            mx = doc.lookup("credal", args[3])
            return [_bool(is_strong_product(joint, mo, mx))]
        raise InputError(f"unknown statecheck {which!r}")

    if cmd == "interpolate":
        if len(args) != 2:
            raise InputError("usage: interpolate R R1")
        base = doc.lookup("desirset", args[0])
        top = doc.lookup("desirset", args[1])
        result = interpolate_strict_superset(base, top)
        lines = [f"pivot {_flat(result.pivot)}"]
        lines.append(
            "lower "
            + " ".join(
                rat_str(v)
                for v in (result.lower_base, result.lower_mid, result.lower_top)
            )
        )
        lines.extend(_vertices(result.strict_set.credal))
        return lines

    if cmd == "emit":
        if args:
            raise InputError("emit takes no arguments")
        return emit_document(doc).splitlines()

    raise InputError(f"unknown command {cmd!r}")


def run_script(doc: ProblemDocument, text: str) -> str:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append("> " + line)
            out.extend(run_command(doc, line.split()))
    return "\n".join(out) + ("\n" if out else "")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="desir",
        description="exact computation with desirable gambles, previsions "
        "and incomplete preferences",
    )
    parser.add_argument("command", help="check|run|emit or any query command")
    parser.add_argument("document", help="problem document path")
    parser.add_argument("args", nargs="*", help="command arguments")
    parser.add_argument(
        "--certificate",
        action="store_true",
        help="attach a replay-verified certificate (member only)",
    )
    ns = parser.parse_args(argv)

    try:
        doc = parse_document(_read(ns.document))
        if ns.command == "run":
            if len(ns.args) != 1:
                raise InputError("usage: desir run DOC SCRIPT")
            sys.stdout.write(run_script(doc, _read(ns.args[0])))
            return 0
        tokens = [ns.command] + list(ns.args)
        if ns.certificate:
            tokens.append("certificate")
        for line in run_command(doc, tokens):
            print(line)
        return 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 1
    except DesirError as exc:  # internal/resource: still a failed property
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
