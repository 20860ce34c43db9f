"""Self-tests of the benchmark harness (not of desir).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from generate import DATA, WORKLOADS, generate, load_desir  # noqa: E402
from oracle import audit  # noqa: E402
from tracer import Tracer  # noqa: E402

load_desir()

AUG = DATA / "augmented-cond"


def _prepared(script: list[str], expected=None) -> run.Prepared:
    """The committed augmented-cond document with a hand-picked script."""
    text = (AUG / "augmented.doc.txt").read_text(encoding="utf-8")
    order = [(0, q) for q in range(len(script))]
    return run.Prepared(["augmented"], [text], [script], order, expected or {}, False)


def _committed_answers(count: int) -> tuple[list[str], dict]:
    blocks = run.parse_run_output((AUG / "augmented.expected.txt").read_text(encoding="utf-8"))
    blocks = blocks[:count]
    return [cmd for cmd, _ in blocks], {(0, q): answer for q, (_, answer) in enumerate(blocks)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert generate(workload, 5) == generate(workload, 5)
    assert generate(workload, 5) != generate(workload, 6)
    for stem, doc, script in generate(workload, 1):
        assert (DATA / workload / f"{stem}.doc.txt").read_text(encoding="utf-8") == doc
        assert (DATA / workload / f"{stem}.script.txt").read_text(encoding="utf-8") == script


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_pass_puts_ten_samples_beyond_p95(workload):
    queries = sum(len(script.splitlines()) for _, _, script in generate(workload, 3))
    assert queries >= 200


def test_committed_answers_pass():
    script, expected = _committed_answers(12)
    prep = _prepared(script, expected)
    checker = run.Checker(prep)
    run.run_round(prep, checker)
    assert (checker.attempted, checker.failed) == (13, 0)


def test_one_byte_change_to_an_expected_answer_is_caught():
    script, expected = _committed_answers(12)
    key = (0, 3)
    answer = expected[key]
    k = len(answer) - 1
    expected[key] = answer[:k] + ("0" if answer[k] != "0" else "1") + answer[k + 1 :]
    prep = _prepared(script, expected)
    checker = run.Checker(prep)
    run.run_round(prep, checker)
    assert checker.failed == 1
    assert script[3] in checker.messages[0]


def test_a_query_that_raises_counts_as_failed():
    prep = _prepared(["lowprev A g1", "lowprev A no-such-gamble", "condlowprev A g1"])
    checker = run.Checker(prep)
    run.run_round(prep, checker)
    assert (checker.attempted, checker.failed) == (4, 2)
    assert "raised InputError" in checker.messages[0]


def test_tracing_keeps_answers_and_restores_bindings():
    script, expected = _committed_answers(30)
    modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "desir"}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    classes = [v for mod in modules.values() for v in vars(mod).values() if isinstance(v, type)]
    class_before = {cls: dict(cls.__dict__) for cls in classes}

    plain = run.Checker(_prepared(script))
    run.run_round(plain.prep, plain)
    tracer = Tracer()
    traced = run.Checker(_prepared(script, expected))
    with tracer:
        assert tracer.patched()
        run.run_round(traced.prep, traced)

    assert plain.reference == expected
    assert traced.failed == 0
    names = {rec[0] for rec in tracer.spans}
    assert {"lp.solve", "cones.query", "document.parse", "cli.run_command"} <= names
    assert {rec[1] for rec in tracer.spans if rec[0] == "lp.solve"} == {"cones", "credal"}
    assert not tracer.patched()
    for name, mod in modules.items():
        for attr, value in before[name].items():
            assert vars(mod)[attr] is value, f"{name}.{attr} not restored"
    for cls, attrs in class_before.items():
        for attr, value in attrs.items():
            assert cls.__dict__[attr] is value, f"{cls.__name__}.{attr} not restored"


def test_oracle_catches_answers_that_break_an_invariant():
    script, expected = _committed_answers(200)
    text = (AUG / "augmented.doc.txt").read_text(encoding="utf-8")
    assert audit([text], [script], expected) == {}
    broken = dict(expected)
    cert = next(k for k, v in expected.items() if "combination" in v)
    broken[cert] = broken[cert].replace("residual=", "residual=1", 1)
    low = next(k for k, _ in expected.items() if script[k[1]].startswith("lowprev"))
    broken[low] = "1000/1"
    assert set(audit([text], [script], broken)) == {cert, low}


def test_oracle_checks_vertex_lists_against_its_own_enumeration():
    ladder = DATA / "vertex-ladder"
    text = (ladder / "rung1-2x3-3.doc.txt").read_text(encoding="utf-8")
    blocks = run.parse_run_output((ladder / "rung1-2x3-3.expected.txt").read_text(encoding="utf-8"))
    script = [cmd for cmd, _ in blocks]
    answers = {(0, q): answer for q, (_, answer) in enumerate(blocks)}
    assert audit([text], [script], answers) == {}
    key = next(k for k in answers if script[k[1]] == "vertices J")
    answers[key] = answers[key].split("\n", 1)[1]  # drop the first vertex
    assert set(audit([text], [script], answers)) == {key}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", WORKLOADS[0]]
    cmd += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_names_what_the_runs_print():
    from tracer import PER_LAYER_UNITS

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
