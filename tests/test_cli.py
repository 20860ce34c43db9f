import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import desir.credal
from desir.cli import main, run_command, run_script
from desir.document import parse_document
from desir.errors import DesirError, InternalError, ResourceLimitError

from conftest import lps_in

DATA = Path(__file__).parent / "data"
BENCH_DATA = Path(__file__).parent.parent / "bench" / "data"
COIN_TEXT = (DATA / "coin.txt").read_text()


@pytest.fixture
def coin_doc():
    return parse_document(COIN_TEXT)


def one(doc, line):
    return run_command(doc, line.split())


def test_coin_query_battery(coin_doc):
    assert one(coin_doc, "lowprev R2 f") == ["0/1"]
    assert one(coin_doc, "lowprev R1 f") == ["0/1"]
    assert one(coin_doc, "member R1 f") == ["false"]
    assert one(coin_doc, "member R2 f") == ["true"]
    assert one(coin_doc, "archimedean vacuousRel") == ["weak-only"]
    assert one(coin_doc, "archimedean R1") == ["traditional"]
    assert one(coin_doc, "archimedean R2") == ["not-weak"]


def test_conditional_queries(coin_doc):
    assert one(coin_doc, "condlowprev R2 f H") == ["-1/1"]
    assert one(coin_doc, "condlowprev R2 f T") == ["1/1"]
    assert one(coin_doc, "condnatex uniform f H") == ["-1/1"]


def test_vertices_and_views(coin_doc):
    assert one(coin_doc, "vertices uniform") == ["1/2 1/2"]
    assert one(coin_doc, "marginal R1 omega") == ["strict", "1/2 1/2"]
    out = one(coin_doc, "condition Rmin H")
    assert out[0] == "fg"


def test_member_certificates(coin_doc):
    out = one(coin_doc, "member R2 f certificate")
    assert out[0] == "true"
    assert out[1].startswith("certificate")
    out = one(coin_doc, "member R1 f certificate")
    assert out[0] == "false"
    assert "separating" in out[1]


def test_pref_holds_and_extend(coin_doc):
    assert one(coin_doc, "pref-holds assertedRel pz qz") == ["true"]
    assert one(coin_doc, "pref-holds assertedRel qz pz") == ["false"]
    assert one(coin_doc, "check") == ["ok"]


def test_interpolate_command():
    text = COIN_TEXT + (
        "\ncredal tilted\n"
        "constraint 1 -3\n"
        "constraint -1 3\n"
        "end\n\n"
        "desirset R1t strict tilted\n"
    )
    doc = parse_document(text)
    out = one(doc, "interpolate Rmin R1t")
    assert out[0] == "pivot 1/1 -1/1"
    assert out[1] == "lower 0/1 1/4 1/2"


def test_script_runner_deterministic(coin_doc):
    script = "\n".join(
        [
            "# the coin battery",
            "lowprev R2 f",
            "member R1 f",
            "member R2 f",
            "condlowprev R2 f H",
            "archimedean vacuousRel",
            "vertices uniform",
        ]
    )
    first = run_script(coin_doc, script)
    assert run_script(coin_doc, script) == first
    assert "> lowprev R2 f\n0/1\n" in first


def _blocks(transcript):
    """Split a run transcript into (command, answer lines) blocks."""
    blocks = []
    for line in transcript.splitlines():
        if line.startswith("> "):
            blocks.append((line[2:], []))
        else:
            blocks[-1][1].append(line)
    return blocks


@pytest.mark.parametrize(
    "doc_path",
    [
        BENCH_DATA / "fg-strict-batch" / "batch.doc.txt",
        BENCH_DATA / "augmented-cond" / "augmented.doc.txt",
    ],
    ids=["fg-strict-batch", "augmented-cond"],
)
def test_committed_certificates_byte_identical(doc_path):
    # every printed certificate of the committed benchmark outputs, so a
    # refactor of the LP layer cannot move a witness unnoticed
    wanted = _replay_committed(doc_path, lambda cmd: cmd.endswith(" certificate"))
    assert all(cmd.startswith("member ") for cmd, _ in wanted)


def test_committed_fg_strict_answers_byte_identical():
    # every answer of the fg-strict-batch workload, so a change to the
    # strict set's vertex scans shows in its plain member, lowprev and
    # upprev lines and not only in the benchmark
    doc_path = BENCH_DATA / "fg-strict-batch" / "batch.doc.txt"
    wanted = _replay_committed(doc_path, keep=lambda cmd: True)
    assert {cmd.split()[0] for cmd, _ in wanted} == {
        "member",
        "lowprev",
        "upprev",
        "pref-holds",
    }
    # S is the workload's strict set
    heads = {" ".join(cmd.split()[:2]) for cmd, _ in wanted}
    assert {"member S", "lowprev S", "upprev S"} <= heads


def test_committed_previsions_byte_identical():
    # every lower and conditional lower prevision of the augmented workload,
    # the values the cone layer's case split decides
    doc_path = BENCH_DATA / "augmented-cond" / "augmented.doc.txt"
    wanted = _replay_committed(
        doc_path, lambda cmd: cmd.split()[0] in ("lowprev", "condlowprev")
    )
    assert {cmd.split()[0] for cmd, _ in wanted} == {"lowprev", "condlowprev"}


def test_committed_augmented_answers_byte_identical():
    # every answer of the augmented workload, plain member verdicts
    # included, so a change to the cone layer's case split shows here and
    # not only in the benchmark
    doc_path = BENCH_DATA / "augmented-cond" / "augmented.doc.txt"
    wanted = _replay_committed(doc_path, keep=lambda cmd: True)
    assert {cmd.split()[0] for cmd, _ in wanted} == {"member", "lowprev", "condlowprev"}


@pytest.mark.parametrize(
    "doc_path",
    [
        BENCH_DATA / "fg-strict-batch" / "batch.doc.txt",
        BENCH_DATA / "augmented-cond" / "augmented.doc.txt",
    ],
    ids=["fg-strict-batch", "augmented-cond"],
)
def test_committed_previsions_solve_plain_cone_lps(doc_path, solved_lps):
    # every closed-part supremum is a cone LP over the rays and the event
    # indicator: every LP the cone layer solves here (the parse's
    # partial-loss LP, then the queries) has no free variable and no
    # negative right-hand side
    _replay_committed(
        doc_path, lambda cmd: cmd.split()[0] in ("lowprev", "upprev", "condlowprev")
    )
    cone_lps = lps_in(solved_lps, "cones")
    assert cone_lps
    for problem in cone_lps:
        assert set(problem.bounds) == {(0, None)}
        assert all(row.rhs >= 0 for row in problem.constraints)


@pytest.mark.parametrize("rung", ["rung1-2x3-3", "rung2-3x3-3", "rung3-2x4-4"])
def test_committed_vertex_ladder_answers_byte_identical(rung):
    # vertex lists, envelopes, marginals, strong products and A5 verdicts,
    # so a change to hull pruning shows here and not only in the benchmark.
    # `statecheck a4` lines are left out: the committed ones carry the
    # probe-based `holds-on-probes` verdict, which is wrong on rung 1's joint
    # (ROADMAP item 6) and is due to be re-recorded.
    doc_path = BENCH_DATA / "vertex-ladder" / f"{rung}.doc.txt"
    wanted = _replay_committed(
        doc_path, lambda cmd: not cmd.startswith("statecheck a4")
    )
    kinds = {cmd.split()[0] for cmd, _ in wanted}
    assert {"vertices", "marginal", "product", "statecheck"} <= kinds


def _fg_scale_text():
    """20 generators on a 4x3 space, each with a positive uniform
    expectation, so that together they avoid partial loss; m = h1 + h2
    and n = -h1, a member and a non-member."""
    lines = ["space", "omega s1 s2 s3 s4", "prizes x1 x2 x3", "end"]
    tables = {}
    for k in range(20):
        cells = [(7 * k + 5 * c) % 11 - 5 for c in range(12)]
        cells[k % 12] += max(0, 1 - sum(cells))
        tables[f"h{k + 1}"] = cells
    tables["m"] = [a + b for a, b in zip(tables["h1"], tables["h2"])]
    tables["n"] = [-a for a in tables["h1"]]
    for name, cells in tables.items():
        lines += [f"gamble {name}"]
        lines += [" ".join(map(str, cells[i : i + 3])) for i in range(0, 12, 3)]
        lines += ["end"]
    lines.append("desirset R fg " + " ".join(f"h{k + 1}" for k in range(20)))
    return "\n".join(lines) + "\n"


def test_fg_scale_answers_without_its_credal_projection(monkeypatch):
    # the dual polytope of 20 generators on 12 cells has C(32, 11) candidate
    # active sets: member and lowprev must keep answering by cone LP, and
    # the credal projection must refuse before any LP
    doc = parse_document(_fg_scale_text())
    assert one(doc, "member R m") == ["true"]
    out = one(doc, "member R m certificate")
    assert out[0] == "true" and out[1].startswith("certificate combination")
    out = one(doc, "member R n certificate")
    assert out[0] == "false" and out[1].startswith("certificate separating")
    # the natural extension: min of P(f) over {P : P(h_k) >= 0 for each k}
    assert one(doc, "lowprev R h1") == ["0/1"]
    assert one(doc, "lowprev R n") == ["-53/44"]

    def no_lp(problem):
        raise AssertionError("an LP ran before the budget check")

    monkeypatch.setattr(desir.credal, "solve", no_lp)
    with pytest.raises(ResourceLimitError, match="129024480 active sets"):
        doc.desirsets["R"].credal_projection()


def _replay_committed(doc_path, keep):
    """Rerun the committed queries that ``keep`` selects and compare their
    answer blocks with the committed output; returns the blocks."""
    stem = doc_path.name.split(".")[0]
    expected = (doc_path.parent / f"{stem}.expected.txt").read_text()
    wanted = [b for b in _blocks(expected) if keep(b[0])]
    assert wanted
    doc = parse_document(doc_path.read_text())
    script = "\n".join(cmd for cmd, _ in wanted)
    assert _blocks(run_script(doc, script)) == wanted
    return wanted


def test_python_dash_m_entry_point():
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "desir", "check", str(DATA / "coin.txt")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_main_exit_codes(tmp_path, capsys):
    doc_path = tmp_path / "coin.txt"
    doc_path.write_text(COIN_TEXT)
    assert main(["check", str(doc_path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"

    assert main(["lowprev", str(doc_path), "R2", "f"]) == 0
    assert capsys.readouterr().out.strip() == "0/1"

    assert main(["member", str(doc_path), "R2", "f", "--certificate"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("true\ncertificate")

    bad = tmp_path / "bad.txt"
    bad.write_text(COIN_TEXT.replace("-1\n1\nend", "-0.5\n1\nend", 1))
    assert main(["check", str(bad)]) == 2

    incoherent = tmp_path / "incoherent.txt"
    incoherent.write_text(
        "space\nomega h t\nprizes x\nend\n\n"
        "gamble a\n1\n-1\nend\n\ngamble b\n-1\n1\nend\n\n"
        "desirset D fg a b\n"
    )
    assert main(["check", str(incoherent)]) == 1

    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"space\nomega \xff\xfe\nend\n")
    capsys.readouterr()
    for unreadable in (tmp_path / "missing.txt", tmp_path, binary):
        assert main(["check", str(unreadable)]) == 2
        assert capsys.readouterr().err.startswith("input error: cannot read")
    assert main(["run", str(doc_path), str(tmp_path / "missing.txt")]) == 2


def test_main_run_subcommand(tmp_path, capsys):
    doc_path = tmp_path / "coin.txt"
    doc_path.write_text(COIN_TEXT)
    script = tmp_path / "queries.txt"
    script.write_text("member R2 f\nlowprev R1 f\n")
    assert main(["run", str(doc_path), str(script.name and script)]) == 0
    out = capsys.readouterr().out
    assert out == "> member R2 f\ntrue\n> lowprev R1 f\n0/1\n"


def test_emit_command(coin_doc):
    emitted = "\n".join(one(coin_doc, "emit")) + "\n"
    assert emitted == COIN_TEXT


PRODUCTS_DOC = """space
omega w0 w1
prizes x0 x1
end

gamble go on omega
1
-1
end

gamble gx on prizes
1 -1
end

credal MO on omega
constraint 1 -1
end

credal MX on prizes
constraint 2 -1
constraint -1 2
end

credal joint
constraint 1 -1 -1 1
end

desirset RO fg go

desirset RX fg gx

desirset VO vacuous on omega
"""


def test_product_and_statecheck_commands():
    doc = parse_document(PRODUCTS_DOC)
    out = one(doc, "product irrelevant VO RX")
    assert out == ["fg", "1/1 -1/1 0/1 0/1", "0/1 0/1 1/1 -1/1"]
    out = one(doc, "product independent RO RX")
    assert out[0] == "fg" and len(out) == 5
    out = one(doc, "product strong MO MX")
    assert all(len(line.split()) == 4 for line in out)
    sp_doc = parse_document(
        PRODUCTS_DOC
        + "\ncredal prod\n"
        + "constraint 5 -3 -3 -3\nconstraint -1 7 -1 -1\n"
        + "constraint -3 -3 5 -3\nconstraint -1 -1 -1 7\n"
        + "end\n"
    )
    # the credal pinned to the product point mass (3/8,1/8,3/8,1/8)
    assert one(sp_doc, "vertices prod") == ["3/8 1/8 3/8 1/8"]
    assert one(sp_doc, "statecheck a4 prod") == ["holds-exact"]
    assert one(sp_doc, "statecheck a5 prod") == ["true"]
    assert one(
        sp_doc, "statecheck strong prod MO MX"
    ) == ["false"]  # prod's own marginals differ from MO/MX


# Each command form: fixed leading tokens, how many declared names follow,
# fixed trailing tokens.
_FORMS = [
    (("check",), 0, ()),
    (("emit",), 0, ()),
    (("member",), 2, ()),
    (("member",), 2, ("certificate",)),
    (("lowprev",), 2, ()),
    (("upprev",), 2, ()),
    (("condlowprev",), 3, ()),
    (("condnatex",), 3, ()),
    (("vertices",), 1, ()),
    (("marginal",), 1, ("omega",)),
    (("marginal",), 1, ("prizes",)),
    (("condition",), 2, ()),
    (("pref-holds",), 3, ()),
    (("extend-worst",), 1, ()),
    (("archimedean",), 1, ()),
    (("product", "irrelevant"), 2, ()),
    (("product", "independent"), 2, ()),
    (("product", "strong"), 2, ()),
    (("statecheck", "a4"), 1, ()),
    (("statecheck", "a5"), 1, ()),
    (("statecheck", "a5"), 3, ()),
    (("statecheck", "strong"), 3, ()),
    (("interpolate",), 2, ()),
]


def test_every_command_on_every_name_tuple_answers_or_rejects():
    # Malformed input gives a DesirError (exit code 2 or 1), never a
    # traceback: every command on every tuple of declared names, with
    # objects on the joint space and on each factor.
    doc = parse_document((DATA / "factors.txt").read_text())
    names = [name for _, name in doc.order]
    crashes = []
    answered = 0
    for head, arity, tail in _FORMS:
        for picked in itertools.product(names, repeat=arity):
            tokens = list(head + picked + tail)
            try:
                out = run_command(doc, tokens)
            except InternalError as exc:
                crashes.append((tokens, repr(exc)))
            except DesirError:
                continue
            except Exception as exc:  # the defect under test
                crashes.append((tokens, repr(exc)))
            else:
                assert all(isinstance(line, str) for line in out)
                answered += 1
    assert crashes == []
    assert answered > 100


def test_cross_space_condnatex_is_input_error(capsys):
    doc_path = str(DATA / "factors.txt")
    doc = parse_document((DATA / "factors.txt").read_text())
    cases = [
        (c, g, e)
        for c, g, e in itertools.product(doc.credals, doc.gambles, doc.events)
        if not doc.credals[c].space == doc.gambles[g].space == doc.events[e].space
    ]
    assert len(cases) == 30
    for c, g, e in cases:
        assert main(["condnatex", doc_path, c, g, e]) == 2, (c, g, e)
        assert capsys.readouterr().err.startswith("input error:")
