"""casecheck benchmark: the generate -> run -> score pipeline, end to end
through the CLI, plus a separate traced in-process pass for per-layer numbers.

Usage (from the repository root):

    python3 perfbench/run.py --workload default-390 --seed 0 --seconds 50 --trace 0

``--seed`` is the corpus seed; the answer policy is always ``nocot-like``
with policy seed 7 and default solver budgets. Workloads (see README.md for
why each exists):

* ``default-390``   ``casecheck generate`` (390 cases, 5-8 queries each); the
  three methods at ``--jobs 1``, ``score --baseline`` for each, ``report``.
* ``long-bundles``  the same domain mix with 14-16 queries per bundle, built
  by ``long_corpus.py``; the three methods and their scores.
* ``scale-3900``    ``casecheck generate --cases 3900``; ``check+repair`` at
  ``--jobs 2`` and its score.

With ``--trace 0`` the script repeats, in child processes and until
``--seconds`` have passed, a corpus set-up followed by one pass of the CLI
pipeline, and reports ``setup_s``, ``pipeline_s`` and ``bundles_per_s`` as
medians over them, and ``peak_rss_mb``. A host-speed probe (``probe.py``, no
``casecheck`` code) runs after every child; each child's wall time is scaled
to a reference host speed by the probes on either side of it, so that the
shared host's drift cancels. Failed bundles (invariant failure,
a ``timeout`` step status, a missing report or a nonzero exit of the run) are
the result's ``failed`` out of ``attempted``.

With ``--trace 1`` it runs the pipeline in process at ``--jobs 1`` with the
tracer in ``spans.py`` installed and without it, in alternating pairs (the
median difference is the tracing overhead), then once through the CLI at
``--jobs 2`` (the ``ProcessPoolExecutor`` path), and reports the per-layer
metrics in ``LAYERS``.
Spans are written to ``.bench_build/perfbench/trace/``.

Every run checks its outputs and exits 1 with ``"correct": false`` when a
check fails: invariant failures, byte-identical corpora and reports across
repeats (and, traced, between the CLI ``--jobs 2`` run and the in-process
``--jobs 1`` runs), the ROADMAP anchors for ``default-390`` at seed 0, gold labels
re-derived without the CDCL solver (``oracle.py``), and, traced, the exact
deterministic counters of an earlier traced run of the same workload, seed,
``casecheck`` sources and benchmark sources, kept under ``.bench_build/perfbench/counts/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

POLICY, POLICY_SEED = "nocot-like", "7"
METHODS = ("baseline", "check", "check+repair")
# SetCons/Acc of the default corpus at seed 0 (ROADMAP, aim 2).
ANCHOR_SEED = 0
ANCHORS = {"baseline": ("0.551", "0.853"), "check": ("0.946", "0.799"),
           "check+repair": ("1.000", "0.856")}
STARTUP_SAMPLES = 5
# Traced/untraced in-process passes alternate this many times; the order
# flips in every other pair so that a drifting host speed cancels out.
OVERHEAD_PAIRS = 4
# Wall time of ``probe.py`` on the host the baseline was measured on
# (2-vCPU Xeon, Python 3.11) while it ran fast. Timings are reported at this
# host speed: each child's wall time is scaled by PROBE_REF_S / the mean of
# the probe times just before and just after it.
PROBE_REF_S = 0.30


@dataclass(frozen=True)
class Workload:
    generate: tuple[str, ...] | None  # CLI generate arguments; None: long_corpus.py
    methods: tuple[str, ...]
    jobs: int
    report: bool


WORKLOADS = {
    "default-390": Workload(("generate",), METHODS, jobs=1, report=True),
    "long-bundles": Workload(None, METHODS, jobs=1, report=False),
    "scale-3900": Workload(("generate", "--cases", "3900"), ("check+repair",),
                           jobs=2, report=False),
}


class Checks:
    """Correctness verdict of one benchmark run."""

    def __init__(self):
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


# ------------------------------------------------------------- child processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# Largest max-RSS of the casecheck children, in KiB; the probe's is left out.
peak_rss_kb = 0


def run_child(argv: list[str], count_rss: bool = True) -> tuple[float, int]:
    """Run the interpreter on ``argv`` with ``src/`` importable; returns the
    wall time and exit code."""
    global peak_rss_kb
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=child_env(), cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        # wait4 gives this child's own resource usage, not the sum so far.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if count_rss:
            peak_rss_kb = max(peak_rss_kb, usage.ru_maxrss)
        if proc.returncode:
            err.seek(0)
            sys.stderr.write(f"{' '.join(argv)} exited {proc.returncode}\n"
                             f"{err.read().decode(errors='replace')}")
    return wall, proc.returncode


def run_cli_child(args: list[str]) -> tuple[float, int]:
    return run_child(["-m", "casecheck.cli", *args])


def run_cli_inprocess(args: list[str]) -> tuple[float, int]:
    from casecheck import cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    return time.perf_counter() - start, code


# --------------------------------------------------------------- the pipeline


def setup_argv(w: Workload, out: Path, seed: int) -> list[str]:
    if w.generate is None:
        return [str(ROOT / "perfbench" / "long_corpus.py"), str(out), str(seed)]
    return ["-m", "casecheck.cli", *w.generate, "--out", str(out), "--seed", str(seed)]


def setup_inprocess(w: Workload, out: Path, seed: int) -> int:
    if w.generate is None:
        from long_corpus import write_long_corpus

        write_long_corpus(str(out), seed)
        return 0
    return run_cli_inprocess([*w.generate, "--out", str(out), "--seed", str(seed)])[1]


def pipeline_commands(w: Workload, corpus: Path, out: Path, jobs: int) -> list[tuple[str, str, list[str]]]:
    """(kind, method, CLI arguments) for every invocation after set-up."""
    cmds = [("run", m, ["run", "--corpus", str(corpus), "--out", str(out / m),
                        "--policy", POLICY, "--method", m, "--seed", POLICY_SEED,
                        "--jobs", str(jobs)]) for m in w.methods]
    baseline = ["--baseline", str(out / "baseline")] if "baseline" in w.methods else []
    cmds += [("score", m, ["score", "--run", str(out / m), *baseline]) for m in w.methods]
    if w.report:
        cmds.append(("report", w.methods[-1], ["report", "--run", str(out / w.methods[-1])]))
    return cmds


def run_pipeline(w: Workload, corpus: Path, out: Path, jobs: int, n_cases: int,
                 checks: Checks, runner=run_cli_child) -> dict[str, float]:
    """One pass of the pipeline; returns its wall times."""
    shutil.rmtree(out, ignore_errors=True)
    walls = {"pipeline_s": 0.0, "run_s": 0.0}
    for kind, method, args in pipeline_commands(w, corpus, out, jobs):
        wall, code = runner(args)
        walls["pipeline_s"] += wall
        if kind == "run":
            walls["run_s"] += wall
            check_run_dir(out / method, n_cases, code, checks)
        else:
            checks.require(code == 0, f"casecheck {kind} for {method} exited {code}")
    walls["bundles"] = n_cases * len(w.methods)
    return walls


def read_reports(run_dir: Path) -> list[dict]:
    path = run_dir / "reports.jsonl"
    if not path.exists():
        return []
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_run_dir(run_dir: Path, n_cases: int, returncode: int, checks: Checks) -> None:
    checks.attempted += n_cases
    reports = read_reports(run_dir) if returncode == 0 else []
    bad = sum(1 for r in reports if r["invariant_failures"] or "timeout" in r["statuses_before"])
    failed = bad + n_cases - len(reports)
    checks.failed += failed
    checks.require(failed == 0, f"{run_dir.name}: {failed} of {n_cases} bundles failed")


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def outputs_digest(w: Workload, out: Path) -> dict[str, str]:
    return {f"{m}/{name}": digest(out / m / name)
            for m in w.methods for name in ("reports.jsonl", "metrics.json")}


def check_anchors(w_name: str, seed: int, out: Path, methods, checks: Checks) -> None:
    if w_name != "default-390" or seed != ANCHOR_SEED:
        return
    for m in methods:
        path = out / m / "metrics.json"
        if not path.exists():
            checks.require(False, f"anchor check: {path} missing")
            continue
        data = json.loads(path.read_text())
        got = (f"{data['set_cons_rate']:.3f}", f"{data['accuracy']:.3f}")
        checks.require(got == ANCHORS[m], f"anchor {m}: SetCons/Acc {'/'.join(got)}, "
                                          f"expected {'/'.join(ANCHORS[m])}")


def check_oracle(corpus: Path, seed: int, checks: Checks) -> None:
    from oracle import check_corpus

    start = time.perf_counter()
    checked, mismatches = check_corpus(corpus, seed)
    print(f"  oracle: {checked} queries re-derived without the CDCL solver in "
          f"{time.perf_counter() - start:.1f} s, {len(mismatches)} mismatches")
    for m in mismatches:
        checks.require(False, f"oracle: {m}")


def count_lines(path: Path) -> int:
    with path.open(encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}, all {' '.join(f'{v:.4g}' for v in values)}"


# ----------------------------------------------------------------- trace 0


def measure(name: str, w: Workload, seed: int, seconds: int, work: Path, checks: Checks) -> dict:
    corpus, corpus_digests = work / "corpus.jsonl", set()
    probes, raw_setups, raw_walls, setups = [], [], [], []

    def probe() -> float:
        wall, code = run_child([str(ROOT / "perfbench" / "probe.py")], count_rss=False)
        checks.require(code == 0, f"host-speed probe exited {code}")
        probes.append(wall)
        return wall

    def scaled(wall: float) -> float:
        """``wall``, just measured, at reference host speed: a probe follows
        every child, and the mean of the probes on either side of it gives
        the host speed while it ran."""
        before = probes[-1]
        return wall * PROBE_REF_S / ((before + probe()) / 2)

    def run_scaled(args: list[str]) -> tuple[float, int]:
        wall, code = run_cli_child(args)
        raw_walls.append(wall)
        return scaled(wall), code

    def set_up() -> float:
        """Write the corpus; returns how long that took, probe included."""
        start = time.perf_counter()
        corpus.unlink(missing_ok=True)
        wall, code = run_child(setup_argv(w, corpus, seed))
        checks.require(code == 0, f"set-up exited {code}")
        raw_setups.append(wall)
        setups.append(scaled(wall))
        corpus_digests.add(digest(corpus))
        return time.perf_counter() - start

    # Two probes (the first warms the file cache), the first set-up and the
    # oracle run before the measured window.
    probe()
    probe()
    last_setup = set_up()
    if not corpus.exists():
        return {}
    n_cases = count_lines(corpus)
    check_oracle(corpus, seed, checks)

    passes, raw_passes, first, last_pass = [], [], None, 0.0
    start = time.perf_counter()
    # Every pass after the first starts with a fresh set-up; start another
    # only if one more of the last set-up and pass's length fits.
    while not passes or time.perf_counter() - start + last_setup + last_pass <= seconds:
        if passes:
            last_setup = set_up()
        pass_start, n_walls = time.perf_counter(), len(raw_walls)
        out = work / "runs"
        passes.append(run_pipeline(w, corpus, out, w.jobs, n_cases, checks, run_scaled))
        raw_passes.append(sum(raw_walls[n_walls:]))
        last_pass = time.perf_counter() - pass_start
        now = outputs_digest(w, out)
        first = first or now
        checks.require(now == first, f"pass {len(passes)}: outputs differ from pass 1")
    checks.require(len(corpus_digests) == 1, "set-ups wrote different corpora")
    check_anchors(name, seed, work / "runs", w.methods, checks)

    pipeline = [p["pipeline_s"] for p in passes]
    rate = [p["bundles"] / p["run_s"] for p in passes]
    peak = peak_rss_kb / 1024.0
    print(f"  {n_cases} cases, {len(setups)} set-ups, {len(passes)} pipeline passes "
          f"in {time.perf_counter() - start:.1f} s")
    print(f"  probe          {quartiles(probes)}")
    print(f"  raw set-up     {quartiles(raw_setups)}")
    print(f"  raw pipeline   {quartiles(raw_passes)}")
    print(f"  timings below are at reference host speed (probe {PROBE_REF_S} s)")
    print(f"  setup_s        {statistics.median(setups):10.4f} s     median, {quartiles(setups)}")
    print(f"  pipeline_s     {statistics.median(pipeline):10.4f} s     median, {quartiles(pipeline)}")
    print(f"  bundles_per_s  {statistics.median(rate):10.2f} 1/s   median, {quartiles(rate)}")
    print(f"  peak_rss_mb    {peak:10.1f} MB    largest max-RSS of any casecheck child")
    print(f"  failed_frac    {checks.failed / max(checks.attempted, 1):10.4f}       "
          f"{checks.failed} of {checks.attempted} bundles")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "pipeline_s": (statistics.median(pipeline), "s"),
        "bundles_per_s": (statistics.median(rate), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }


# ----------------------------------------------------------------- trace 1


# Per-layer metrics and their units. A name ``<span name>.<field>`` with field
# ``calls``, ``busy_s`` or ``self_s`` is read from the span summaries (the
# GENERATE_SPANS from the traced set-up, the rest from the traced pipeline);
# every other name is a counter or a figure derived in ``layer_metrics``.
LAYERS = {
    "cli.startup_s": "s",
    "generator.generate_casefile.calls": "count",
    "generator.generate_casefile.busy_s": "s",
    "casefile.literal_gold_label.calls": "count",
    "casefile.literal_gold_label.busy_s": "s",
    "generator.useful_ratio": "ratio",
    "casefile.load_corpus.busy_s": "s",
    "casefile.compile_case.calls": "count",
    "casefile.compile_case.self_s": "s",
    "logic.parse_dimacs.busy_s": "s",
    "lia.parse_theory.busy_s": "s",
    "lia.ground.busy_s": "s",
    "lia.ground.clauses": "count",
    "solver.session_build.calls": "count",
    "solver.session_build.self_s": "s",
    "solver.solve.calls": "count",
    "solver.solve.self_s": "s",
    "solver.conflicts": "count",
    "solver.propagations": "count",
    "solver.decisions": "count",
    "commitments.append_and_check.calls": "count",
    "commitments.append_and_check.self_s": "s",
    "commitments.rebuild_check.busy_s": "s",
    "commitments.unsat_core.calls": "count",
    "commitments.unsat_core.busy_s": "s",
    "commitments.core_minimal_ratio": "ratio",
    "repair.attempt_repair.calls": "count",
    "repair.attempt_repair.busy_s": "s",
    "repair.accept_ratio": "ratio",
    "repair.min_revision_cost.calls": "count",
    "repair.min_revision_cost.busy_s": "s",
    "repair.revision_exact_ratio": "ratio",
    "answerers.answer.calls": "count",
    "answerers.answer.self_s": "s",
    "runner.evaluate_bundle.p50_ms": "ms",
    "runner.evaluate_bundle.p95_ms": "ms",
    "runner.evaluate_bundle.self_s": "s",
    "runner.check_solver_calls": "count",
    "runner.core_solver_calls": "count",
    "runner.repair_solver_calls": "count",
    "runner.revision_probe_calls": "count",
    "runner.answerer_calls": "count",
    "metrics.save_reports.busy_s": "s",
    "metrics.load_reports.busy_s": "s",
    "metrics.aggregate.busy_s": "s",
    "runner.jobs2_bundles_per_s": "1/s",
    "trace.overhead_s": "s",
}
GENERATE_SPANS = ("generator.generate_casefile", "casefile.literal_gold_label")
# Integer bases of the ratios; deterministic like every ``count`` metric.
RATIO_BASES = ("commitments.unsat_core.minimal", "repair.min_revision_cost.exact",
               "repair.candidates_tried", "repair.candidates_accepted",
               "generator.compile_case.calls")


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile_ms(durations: list[float], q: float) -> float:
    ordered = sorted(durations)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def layer_metrics(gen: dict, pipe: dict, counters: dict) -> dict[str, tuple[float, str]]:
    """Every LAYERS metric as (value, unit) from the span summaries of the
    set-up (``gen``) and the pipeline (``pipe``) and the pass's counters."""
    def calls(summary, name):
        return summary.get(name, {}).get("calls", 0)

    counters["generator.compile_case.calls"] = calls(gen, "casefile.compile_case")
    evaluate = pipe.get("runner.evaluate_bundle", {}).get("durations", [])
    derived = {
        "generator.useful_ratio": _ratio(calls(gen, "generator.generate_casefile"),
                                         counters["generator.compile_case.calls"]),
        "commitments.core_minimal_ratio": _ratio(counters["commitments.unsat_core.minimal"],
                                                 calls(pipe, "commitments.unsat_core")),
        "repair.accept_ratio": _ratio(counters["repair.candidates_accepted"],
                                      counters["repair.candidates_tried"]),
        "repair.revision_exact_ratio": _ratio(counters["repair.min_revision_cost.exact"],
                                              calls(pipe, "repair.min_revision_cost")),
        "runner.evaluate_bundle.p50_ms": _percentile_ms(evaluate, 0.50),
        "runner.evaluate_bundle.p95_ms": _percentile_ms(evaluate, 0.95),
        "trace.overhead_s": statistics.median(counters["trace.overhead_pairs_s"]),
    }
    out = {}
    for name, unit in LAYERS.items():
        if name in derived:
            value = derived[name]
        elif name in counters:
            value = counters[name]
        else:
            span, field = name.rsplit(".", 1)
            value = (gen if span in GENERATE_SPANS else pipe).get(span, {}).get(field, 0)
        out[name] = (value, unit)
    return out


def report_counters(w: Workload, out: Path) -> dict[str, int]:
    """Phase counters and repair verdicts summed over a pass's reports."""
    counters = {f"runner.{k}": 0 for k in ("check_solver_calls", "core_solver_calls",
                                           "repair_solver_calls", "revision_probe_calls",
                                           "answerer_calls")}
    counters["repair.candidates_tried"] = counters["repair.candidates_accepted"] = 0
    for m in w.methods:
        for r in read_reports(out / m):
            for k, v in r["counts"].items():
                if f"runner.{k}" in counters:
                    counters[f"runner.{k}"] += v
            for entry in r["repair_log"]:
                counters["repair.candidates_tried"] += len(entry["tried"])
                counters["repair.candidates_accepted"] += sum(
                    1 for t in entry["tried"] if t["verdict"] == "accepted")
    return counters


def source_digest() -> str:
    """Digest of the ``casecheck`` sources and of the benchmark's own code,
    which defines what the counters count."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "casecheck").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(name: str, seed: int, counts: dict[str, int], checks: Checks) -> None:
    """Compare with the counts of an earlier traced run of the same workload,
    seed and sources; the first such run records them."""
    path = WORK / "counts" / f"{name}-seed{seed}-{source_digest()}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        differ = sorted(k for k in counts.keys() | previous.keys()
                        if counts.get(k) != previous.get(k))
        checks.require(not differ, f"deterministic counters differ from the earlier traced "
                                   f"run: {', '.join(differ)}")
        print(f"  counters: {len(counts)} compared with an earlier traced run, {len(differ)} differ")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True, indent=1) + "\n")
        print(f"  counters: {len(counts)} recorded for later traced runs")


def trace(name: str, w: Workload, seed: int, work: Path, checks: Checks) -> dict:
    from spans import Tracer, layer_summary, write_spans

    counters: dict[str, float] = {}
    startups = [run_child(["-c", "import casecheck.cli"])[0] for _ in range(STARTUP_SAMPLES)]
    counters["cli.startup_s"] = statistics.median(startups)

    tracer = Tracer()
    corpus = work / "corpus.jsonl"
    import casecheck.cli  # noqa: F401  (load every module before patching)

    tracer.install()
    try:
        with tracer.stage("generate"):
            checks.require(setup_inprocess(w, corpus, seed) == 0, "traced set-up failed")
    finally:
        tracer.uninstall()
    if not corpus.exists():
        return {}
    n_cases = count_lines(corpus)
    check_oracle(corpus, seed, checks)

    def traced_pass(pass_tracer: Tracer) -> dict:
        pass_tracer.install()
        try:
            with pass_tracer.stage("pipeline"):
                return run_pipeline(w, corpus, work / "traced", 1, n_cases, checks,
                                    run_cli_inprocess)
        finally:
            pass_tracer.uninstall()

    def untraced_pass() -> dict:
        return run_pipeline(w, corpus, work / "untraced", 1, n_cases, checks, run_cli_inprocess)

    # The first traced pass gives the spans; later ones only time the overhead.
    pairs = []
    for i in range(OVERHEAD_PAIRS):
        pass_tracer = tracer if i == 0 else Tracer()
        if i % 2:
            traced = traced_pass(pass_tracer)
            untraced = untraced_pass()
        else:
            untraced = untraced_pass()
            traced = traced_pass(pass_tracer)
        pairs.append((traced["run_s"], untraced["run_s"]))
    pool = run_pipeline(w, corpus, work / "cli", max(w.jobs, 2), n_cases, checks)
    reference = outputs_digest(w, work / "traced")
    for other in ("untraced", "cli"):
        checks.require(outputs_digest(w, work / other) == reference,
                       f"{other} outputs differ from the traced --jobs 1 outputs")
    check_anchors(name, seed, work / "traced", w.methods, checks)

    counters["trace.overhead_pairs_s"] = [t - u for t, u in pairs]
    counters["runner.jobs2_bundles_per_s"] = pool["bundles"] / pool["run_s"]
    counters.update(report_counters(w, work / "traced"))
    counters.update(tracer.stages["pipeline"].counters)
    metrics = layer_metrics(layer_summary(tracer.stages["generate"].spans),
                            layer_summary(tracer.stages["pipeline"].spans), counters)
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    counts.update((k, counters[k]) for k in RATIO_BASES)
    check_counts(name, seed, counts, checks)

    spans_path = WORK / "trace" / f"{name}-seed{seed}.spans.tsv"
    n_spans = write_spans(tracer, spans_path)
    width = max(len(k) for k in metrics)
    for k, (value, unit) in metrics.items():
        shown = f"{value:d}" if unit == "count" else f"{value:.4f}"
        print(f"  {k:<{width}}  {shown:>14} {unit}")
    print("  ratio bases: " + ", ".join(f"{k} {counters[k]}" for k in RATIO_BASES))
    print("  tracing overhead: median of traced - untraced in-process evaluation over "
          + ", ".join(f"{t:.3f} - {u:.3f} s" for t, u in pairs))
    print("  the --jobs 2 CLI runs are measured end to end only: spans inside "
          "ProcessPoolExecutor workers are not recorded")
    print(f"  {n_spans} spans written to {spans_path.relative_to(ROOT)}")
    return metrics


# ----------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    parser.add_argument("--seconds", type=int, default=50,
                        help="how long the repeated pipeline is measured (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "casecheck" / "cli.py").is_file():
        print(f"perfbench: no casecheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    try:
        if args.trace:
            metrics = trace(args.workload, w, args.seed, work, checks)
        else:
            metrics = measure(args.workload, w, args.seed, args.seconds, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.require(bool(metrics), "no metrics measured")
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not checks.problems,
        # A run that never got to evaluate a bundle counts as one failed attempt.
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
