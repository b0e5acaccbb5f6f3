"""In-process span tracer for the benchmark's traced pass.

The tracer wraps public functions and methods of ``casecheck`` from the
outside: each function is replaced under every module name where a caller
looks it up (``casecheck.runner.attempt_repair`` and
``casecheck.repair.attempt_repair`` are both patched, because ``runner``
imported the name), and methods are replaced on their class. Nothing under
``src/`` changes; ``uninstall`` restores the originals.

A span is ``[name, start, end, parent, case_id]``. The parent is the span
that was open when the call started; the case id is taken from the call's
arguments where the layer has one (a bundle, a case being compiled or
generated) and is otherwise inherited from the parent, so every span of one
bundle shares its case id. Spans stay in memory, grouped by stage, until
``write_spans`` runs at the end of the benchmark.

Spans inside ``ProcessPoolExecutor`` workers are not recorded: the ``--jobs``
path is measured end to end only.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _case_from_first_arg(args, kwargs):
    return args[0].id


def _case_from_case_id(args, kwargs):
    return kwargs.get("case_id") or (args[2] if len(args) > 2 else None)


def _count_ground_clauses(tracer, args, result):
    tracer.counters["lia.ground.clauses"] += len(result.formula.clauses)


def _count_minimal_core(tracer, args, result):
    tracer.counters["commitments.unsat_core.minimal"] += int(result.minimal)


def _count_exact_revision(tracer, args, result):
    tracer.counters["repair.min_revision_cost.exact"] += int(result.exact)


def _keep_solver_stats(tracer, args, result):
    tracer.solver_stats.append(args[0].stats)


# Module-level functions: span name -> (defining module, attribute, case id
# extractor or None, result hook or None).
FUNCTIONS = {
    "generator.generate_casefile": ("casecheck.generator", "generate_casefile",
                                    _case_from_case_id, None),
    "casefile.literal_gold_label": ("casecheck.casefile", "literal_gold_label", None, None),
    "casefile.load_corpus": ("casecheck.casefile", "load_corpus", None, None),
    "casefile.compile_case": ("casecheck.casefile", "compile_case", _case_from_first_arg, None),
    "logic.parse_dimacs": ("casecheck.logic", "parse_dimacs", None, None),
    "lia.parse_theory": ("casecheck.lia", "parse_theory", None, None),
    "lia.ground": ("casecheck.lia", "ground", None, _count_ground_clauses),
    "runner.evaluate_bundle": ("casecheck.runner", "evaluate_bundle", _case_from_first_arg, None),
    "repair.attempt_repair": ("casecheck.repair", "attempt_repair", None, None),
    "repair.min_revision_cost": ("casecheck.repair", "min_revision_cost", None,
                                 _count_exact_revision),
    "metrics.save_reports": ("casecheck.metrics", "save_reports", None, None),
    "metrics.load_reports": ("casecheck.metrics", "load_reports", None, None),
    "metrics.aggregate": ("casecheck.metrics", "aggregate", None, None),
}

# Methods: span name -> (defining module, class, method, result hook or None).
METHODS = {
    "solver.session_build": ("casecheck.solver", "SolverSession", "__init__",
                             _keep_solver_stats),
    "solver.solve": ("casecheck.solver", "SolverSession", "solve", None),
    "commitments.append_and_check": ("casecheck.commitments", "BeliefState",
                                     "append_and_check", None),
    "commitments.rebuild_check": ("casecheck.commitments", "BeliefState", "rebuild_check", None),
    "commitments.unsat_core": ("casecheck.commitments", "BeliefState", "unsat_core",
                               _count_minimal_core),
    "answerers.answer": ("casecheck.answerers", "Answerer", "answer", None),
}

SOLVER_COUNTERS = ("conflicts", "propagations", "decisions")


class Stage:
    """Spans and counters recorded while one stage of the pass ran."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()


class Tracer:
    def __init__(self):
        self.stages: dict[str, Stage] = {}
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        # The stats of every session built in the current stage; summed when
        # the stage ends, so work done outside ``solve`` (unit clauses at
        # build time, selector clauses added later) is counted too.
        self.solver_stats: list = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def stage(self, name: str):
        stage = self.stages.setdefault(name, Stage())
        self.spans, self.counters, self.solver_stats = stage.spans, stage.counters, []
        try:
            yield stage
        finally:
            for c in SOLVER_COUNTERS:
                stage.counters[f"solver.{c}"] += sum(getattr(s, c) for s in self.solver_stats)
            self.spans, self.counters, self.solver_stats = [], Counter(), []

    # ---------------------------------------------------------------- wrapping

    def _wrap(self, name, fn, case_of=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._open
            parent = stack[-1] if stack else -1
            case = case_of(args, kwargs) if case_of else (
                spans[parent][4] if parent >= 0 else None)
            span = [name, 0.0, 0.0, parent, case]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after:
                after(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every traced name in every loaded ``casecheck`` module."""
        modules = [m for n, m in sys.modules.items()
                   if n == "casecheck" or n.startswith("casecheck.")]
        for name, (module, attr, case_of, after) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, case_of, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, (module, cls_name, attr, after) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, after=after))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


# ----------------------------------------------------------------- summaries


def layer_summary(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``busy_s`` (wall time inside the layer,
    outermost spans of that name only) and ``self_s`` (busy time minus the
    time covered by child spans), plus the list of durations."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, _case) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        duration = end - start
        row["calls"] += 1
        row["self_s"] += duration - child_time[i]
        row["durations"].append(duration)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["busy_s"] += duration
    return out


def write_spans(tracer: Tracer, path: Path) -> int:
    """Write every recorded span as tab-separated text; returns the count."""
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        fh.write("stage\tspan\tname\tcase\tparent\tstart_s\tend_s\n")
        for stage_name, stage in tracer.stages.items():
            for i, (name, start, end, parent, case) in enumerate(stage.spans):
                fh.write(f"{stage_name}\t{i}\t{name}\t{case or ''}\t{parent}\t{start:.7f}\t{end:.7f}\n")
                count += 1
    return count
