"""The desir benchmark: seeded batch workloads driven through the public API.

    python3 bench/run.py --workload fg-strict-batch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

One run is one fresh process and one client in a closed loop: it generates
the workload's documents and query scripts from ``--seed``, parses every
document several times (``setup_s`` is the median), then answers queries one
at a time through ``desir.cli.run_command`` -- the call ``desir run`` makes --
in passes that each ask every query once, until ``--seconds`` have passed.
Every workload has at least 200 queries, so a pass puts at least ten samples
beyond its p95.  Every
answer is compared byte for byte with the committed ``desir run`` output for
the default seed, or with the first answer of the same query for any other
seed, and checked against the exact invariants in ``oracle.py``.

``--trace 1`` instead runs whole rounds (parse every document, answer every
query once), alternating untraced and traced rounds, and reports the
per-layer metrics of ``tracer.py``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"

sys.path.insert(0, str(BENCH))
from generate import DATA, DEFAULT_SEED, WORKLOADS, generate, load_desir, write  # noqa: E402

#: Document parses per run; setup_s is their median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}


def parse_run_output(text: str) -> list[tuple[str, str]]:
    """Split ``desir run`` output into (command, answer lines joined by newlines)."""
    blocks: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        if line.startswith("> "):
            blocks.append((line[2:], []))
        elif blocks:
            blocks[-1][1].append(line)
        else:
            raise ValueError(f"answer line before any command: {line!r}")
    return [(cmd, "\n".join(lines)) for cmd, lines in blocks]


@dataclass
class Prepared:
    """One workload's inputs, query order and reference answers."""

    stems: list[str]
    texts: list[str]
    scripts: list[list[str]]
    order: list[tuple[int, int]]  # (document index, query index)
    expected: dict[tuple[int, int], str]
    committed: bool
    problems: list[str] = field(default_factory=list)


def prepare(workload: str, seed: int) -> Prepared:
    """Generate the inputs, write them under ``bench/work`` and read them back.

    For the default seed the generated files must equal the committed ones,
    and the committed ``desir run`` outputs become the expected answers.
    """
    paths = write(generate(workload, seed), WORK / f"{workload}-seed{seed}")
    stems, texts, scripts, problems = [], [], [], []
    expected: dict[tuple[int, int], str] = {}
    committed = seed == DEFAULT_SEED
    for d, (doc_path, script_path) in enumerate(paths):
        stem = doc_path.name[: -len(".doc.txt")]
        stems.append(stem)
        texts.append(doc_path.read_text(encoding="utf-8"))
        script = script_path.read_text(encoding="utf-8")
        lines = [ln.strip() for ln in script.splitlines()]
        scripts.append([ln for ln in lines if ln and not ln.startswith("#")])
        if not committed:
            continue
        for suffix, text in ((".doc.txt", texts[-1]), (".script.txt", script)):
            ref = DATA / workload / f"{stem}{suffix}"
            if not ref.is_file() or ref.read_text(encoding="utf-8") != text:
                problems.append(f"generated {stem}{suffix} differs from {ref}")
        ref = DATA / workload / f"{stem}.expected.txt"
        blocks = parse_run_output(ref.read_text(encoding="utf-8")) if ref.is_file() else []
        if [cmd for cmd, _ in blocks] != scripts[-1]:
            problems.append(f"{ref} does not answer {stem}.script.txt")
            continue
        for q, (_, answer) in enumerate(blocks):
            expected[(d, q)] = answer
    order = [(d, q) for d, script in enumerate(scripts) for q in range(len(script))]
    random.Random(f"{workload}:{seed}:order").shuffle(order)
    return Prepared(stems, texts, scripts, order, expected, committed, problems)


class Checker:
    """Byte-for-byte answer gate; counts every query that raises or differs."""

    def __init__(self, prep: Prepared):
        self.prep = prep
        self.reference = dict(prep.expected)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def _fail(self, message: str):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def query(self, key: tuple[int, int], answer, error) -> None:
        self.attempted += 1
        d, q = key
        where = f"{self.prep.stems[d]}: {self.prep.scripts[d][q]}"
        if error is not None:
            self._fail(f"{where}: raised {type(error).__name__}: {error}")
            return
        text = "\n".join(answer)
        ref = self.reference.get(key)
        if ref is None:
            self.reference[key] = text
        elif text != ref:
            self._fail(f"{where}: answer {text!r} differs from {ref!r}")

    def document(self, stem: str, error) -> None:
        self.attempted += 1
        if error is not None:
            self._fail(f"{stem}: parse raised {type(error).__name__}: {error}")

    def audit(self, problems: dict[tuple[int, int], str]) -> None:
        """Count each query whose reference answer breaks an oracle invariant."""
        for (d, q), problem in sorted(problems.items()):
            self._fail(f"{self.prep.stems[d]}: {self.prep.scripts[d][q]}: {problem}")

    def transcript(self) -> str:
        """Every answer in ``desir run`` form, one section per document."""
        out = []
        for d, stem in enumerate(self.prep.stems):
            out.append(f"== {stem}")
            for q, command in enumerate(self.prep.scripts[d]):
                out.append("> " + command)
                answer = self.reference.get((d, q))
                if answer is None:
                    out.append("!! no answer")
                elif answer:
                    out.append(answer)
        return "\n".join(out) + "\n"


def parse_all(prep: Prepared, checker: Checker):
    """Parse every document once; None in place of a document that raised."""
    from desir import document

    docs = []
    for stem, text in zip(prep.stems, prep.texts):
        try:
            docs.append(document.parse_document(text))
            checker.document(stem, None)
        except Exception as exc:  # counted as a failed document
            docs.append(None)
            checker.document(stem, exc)
    return docs


def ask(docs, prep: Prepared, key: tuple[int, int]):
    """One query through run_command; returns (answer lines, exception)."""
    from desir import cli

    d, q = key
    if docs[d] is None:
        return None, RuntimeError("document did not parse")
    try:
        return cli.run_command(docs[d], prep.scripts[d][q].split()), None
    except Exception as exc:  # counted as a failed query
        return None, exc


def run_round(prep: Prepared, checker: Checker) -> float:
    """Parse every document and answer every query once; wall seconds."""
    t0 = time.perf_counter()
    docs = parse_all(prep, checker)
    for key in prep.order:
        answer, error = ask(docs, prep, key)
        checker.query(key, answer, error)
    return time.perf_counter() - t0


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(prep: Prepared, checker: Checker, seconds: float) -> tuple[dict, list[str]]:
    """Untraced run: end-to-end metrics plus extra report lines."""
    setups = []
    docs = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        docs = parse_all(prep, checker)
        setups.append(time.perf_counter() - t0)
    gc.collect()
    # Whole passes, each answering every query once, so every pass has the
    # same mix.  Rate and percentiles are medians over passes: a few seconds
    # of machine-wide slowdown moves some passes, not the median.
    passes = []  # (wall seconds, sorted latencies) per pass
    clock = time.perf_counter
    start = clock()
    while not passes or clock() - start < seconds:
        latencies = []
        p0 = clock()
        for key in prep.order:
            t0 = clock()
            answer, error = ask(docs, prep, key)
            latencies.append(clock() - t0)
            checker.query(key, answer, error)
        passes.append((clock() - p0, sorted(latencies)))
    loop_s = clock() - start
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": statistics.median(len(lat) / wall for wall, lat in passes),
        "query_p50_ms": 1000 * statistics.median(statistics.median(lat) for _, lat in passes),
        "query_p95_ms": 1000 * statistics.median(_nearest_rank(lat, 0.95) for _, lat in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = [
        f"query_samples {sum(len(lat) for _, lat in passes)} count",
        f"query_passes {len(passes)} count",
        f"query_loop_s {loop_s:.6f} s",
        f"setup_runs {' '.join(f'{s:.6f}' for s in setups)} s",
    ]
    return metrics, extra


def measure_traced(prep: Prepared, checker: Checker, seconds: float, spans_path: Path):
    """Alternate untraced and traced rounds; per-layer metrics."""
    from tracer import COUNT_METRICS, Tracer, summarize

    plain, traced, rounds = [], [], []
    tracer = Tracer()
    run_round(prep, checker)  # warm-up, so neither side pays the first round
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        gc.collect()
        plain.append(run_round(prep, checker))
        gc.collect()
        base = len(tracer.spans)
        with tracer:
            traced.append(run_round(prep, checker))
        rounds.append(summarize(tracer.spans[base:], base))
    tracer.dump(spans_path)
    problems = []
    for k in COUNT_METRICS:
        if len({r[k] for r in rounds}) != 1:
            problems.append(f"count {k} differs between rounds: {[r[k] for r in rounds]}")
    metrics = {
        k: rounds[0][k] if k in COUNT_METRICS else statistics.median(r[k] for r in rounds)
        for k in rounds[0]
    }
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    extra = [
        f"rounds {len(rounds)} count",
        f"round_untraced_s {statistics.median(plain):.6f} s",
        f"round_traced_s {statistics.median(traced):.6f} s",
        f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    ]
    return metrics, extra, problems


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    load_desir()
    from oracle import audit
    from tracer import PER_LAYER_UNITS

    prep = prepare(workload, seed)
    checker = Checker(prep)
    out_dir = WORK / f"{workload}-seed{seed}"
    problems = list(prep.problems)
    if trace:
        metrics, extra, more = measure_traced(prep, checker, seconds, out_dir / "spans.jsonl")
        problems += more
        units = PER_LAYER_UNITS
    else:
        metrics, extra = measure(prep, checker, seconds)
        units = END_TO_END_UNITS
    checker.audit(audit(prep.texts, prep.scripts, checker.reference))
    transcript = checker.transcript()
    (out_dir / "outputs.txt").write_text(transcript, encoding="utf-8")
    digest = hashlib.sha256(transcript.encode("utf-8")).hexdigest()
    failed_frac = checker.failed / checker.attempted
    print(f"workload {workload} seed {seed} trace {int(trace)}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_frac {failed_frac!r} ratio")
    for line in extra:
        print(line)
    source = "committed desir run output" if prep.committed else "first answer in this run"
    print(f"expected answers: {source}")
    print(f"outputs sha256:{digest} in {(out_dir / 'outputs.txt').relative_to(ROOT)}")
    for message in problems + checker.messages:
        print(f"FAILED {message}")
    result = {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="desir benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.workload == "all":
        return run_all(ns.seed, ns.seconds, ns.trace)
    return run_one(ns.workload, ns.seed, ns.seconds, bool(ns.trace))


if __name__ == "__main__":
    sys.exit(main())
