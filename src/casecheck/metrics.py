"""Per-query and set-level metrics computed from bundle reports.

A BundleReport is the complete, serializable record of one bundle run:
per-query labels (gold, as answered, and final after any interventions),
per-step satisfiability statuses before and after interventions, the repair
log, and call counts. Its annotated record classes declare ``reports.jsonl``
once: ``save_reports`` writes their fields, and ``load_reports`` checks each
line against them with the checker every JSON input shares (``schema``).
Every metric reads only serialized fields, so scoring a report file
reproduces in-process results bit for bit. Wall-clock timings are kept out of
the canonical records (they live in a sidecar) so that repeated runs of one
configuration produce byte-identical report and metric files.
"""

from __future__ import annotations

import json
from collections import Counter
from math import fsum
from pathlib import Path
from typing import NamedTuple, Sequence

from . import InputError, Label, SolveStatus, schema
from .schema import Count


class Phase(NamedTuple):
    name: str       # key in a report's ``counts``
    capped: bool    # counts against the per-bundle solver-call cap
    overhead: bool  # counts toward the solver calls of ``OH``


# Every phase the run loop books solver calls to, each bound to the name the
# run loop books it by. The revision probe is a measurement, not pipeline cost.
PHASES = FILTER_CALLS, CHECK_CALLS, CORE_CALLS, REPAIR_CALLS, PROBE_CALLS = (
    Phase("filter_solver_calls", capped=False, overhead=True),
    Phase("check_solver_calls", capped=True, overhead=True),
    Phase("core_solver_calls", capped=True, overhead=True),
    Phase("repair_solver_calls", capped=True, overhead=True),
    Phase("revision_probe_calls", capped=False, overhead=False),
)


# The report records (see ``schema``): every field is required, no other key.
# A run's records hold ``Label`` and ``SolveStatus`` members, loaded ones the
# strings they equal.
class QueryRecord:
    query_id: str
    gold: str | None
    predicted: str
    final: str

    def __init__(self, query_id, gold, predicted, final):
        self.query_id, self.gold, self.predicted, self.final = query_id, gold, predicted, final


class RepairLogEntry:
    query_id: str
    core_query_ids: list[str]
    core_minimal: bool
    tried: list[dict]
    accepted: dict | None
    outcome: str
    solver_calls: Count

    def __init__(self, query_id, core_query_ids, core_minimal, tried, accepted, outcome,
                 solver_calls):
        self.query_id, self.core_query_ids = query_id, core_query_ids
        self.core_minimal, self.tried, self.accepted = core_minimal, tried, accepted
        self.outcome, self.solver_calls = outcome, solver_calls


class BundleReport:
    case_id: str
    domain: str
    mode: str    # set | sequential
    method: str  # baseline | check | check+repair
    queries: list[QueryRecord]
    statuses_before: list[str]
    statuses_after: list[str]
    final_sat: bool
    bundle_status: str  # consistent | repaired | inconsistent
    repair_log: list[RepairLogEntry]
    counts: dict[str, Count]
    min_revision: Count
    min_revision_exact: bool
    invariant_failures: list[str]

    def __init__(self, case_id, domain, mode, method, queries, statuses_before, statuses_after,
                 final_sat, bundle_status, repair_log, counts, min_revision, min_revision_exact,
                 invariant_failures):
        self.case_id, self.domain, self.mode, self.method = case_id, domain, mode, method
        self.queries, self.statuses_before = queries, statuses_before
        self.statuses_after, self.final_sat = statuses_after, final_sat
        self.bundle_status, self.repair_log, self.counts = bundle_status, repair_log, counts
        self.min_revision, self.min_revision_exact = min_revision, min_revision_exact
        self.invariant_failures = invariant_failures

    @property
    def n(self) -> int:
        return len(self.queries)

    @property
    def solver_calls(self) -> int:
        return sum(self.counts.get(phase.name, 0) for phase in PHASES if phase.overhead)

    @property
    def answerer_calls(self) -> int:
        return self.counts.get("answerer_calls", 0)


def save_reports(reports: Sequence[BundleReport], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for report in sorted(reports, key=lambda r: r.case_id):
            # vars gives each record's fields
            fh.write(json.dumps(report, default=vars, sort_keys=True) + "\n")


class ReportFormatError(InputError):
    """A run directory file that is no JSON or holds no bundle report, or
    reports that hold nothing to score; the message names the file, and the
    line and field where there is one."""


def load_reports(path: str | Path) -> list[BundleReport]:
    try:
        return schema.read_lines(BundleReport, path)[1]
    except schema.Unfit as exc:
        raise ReportFormatError(exc.at(path, "a report")) from None


class Timings:
    """``timings.json``, a run's wall-clock sidecar: scoring reads the total."""

    UNKNOWN_KEYS = "ignored"
    total_seconds: float

    def __init__(self, total_seconds=None):
        self.total_seconds = total_seconds


def load_timings(path: str | Path) -> Timings:
    try:
        return schema.build(Timings, [schema.read_json(path)])[0]
    except schema.Unfit as exc:
        raise ReportFormatError(exc.at(path, "timings")) from None


# ------------------------------------------------------------------- metrics

def _f1(tp: int, fp: int, fn: int) -> float:
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0  # class absent from both gold and predictions
    denom = 2 * tp + fp + fn
    return (2 * tp / denom) if denom else 0.0


def set_cons_rate(reports: Sequence[BundleReport]) -> float:
    """Fraction of bundles whose final belief state is satisfiable."""
    return sum(1 for r in reports if r.final_sat) / len(reports)


def auc_prefix_cons(report: BundleReport) -> float | None:
    """Mean prefix-satisfiability indicator; sequential bundles only (set
    bundles have no meaningful prefix order, flagged as None)."""
    if report.mode != "sequential":
        return None
    if not report.statuses_after:
        return 1.0
    return report.statuses_after.count(SolveStatus.SAT) / len(report.statuses_after)


def contradiction_density(report: BundleReport) -> float:
    """Fraction of steps where a satisfiable state became unsatisfiable.
    Interventions reset the running state, so repaired runs can transition
    more than once; untouched runs are monotone and cap at one transition."""
    if not report.queries:
        return 0.0
    transitions = 0
    running_sat = True  # premises are satisfiable by construction
    sat, unsat = SolveStatus.SAT, SolveStatus.UNSAT
    for before, after in zip(report.statuses_before, report.statuses_after):
        if running_sat and before == unsat:
            transitions += 1
        running_sat = after == sat
    return transitions / len(report.queries)


def revision_cost(reports: Sequence[BundleReport]) -> float:
    """Mean ``min_revision``: the fewest active commitments whose retraction
    would restore each final state."""
    return sum(r.min_revision for r in reports) / len(reports)


class MetricsReport:
    bundles: int
    queries: int
    accuracy: float
    macro_f1: float
    unknown_f1: float
    unknown_rate: float
    set_cons_rate: float
    auc_prefix_cons: float | None
    revision_cost: float
    contradiction_density: float
    solver_calls: int
    answerer_calls: int
    overhead_calls: float | None

    def __init__(self, bundles, queries, accuracy, macro_f1, unknown_f1, unknown_rate,
                 set_cons_rate, auc_prefix_cons, revision_cost, contradiction_density,
                 solver_calls, answerer_calls, overhead_calls):
        self.bundles, self.queries, self.accuracy = bundles, queries, accuracy
        self.macro_f1, self.unknown_f1, self.unknown_rate = macro_f1, unknown_f1, unknown_rate
        self.set_cons_rate, self.auc_prefix_cons = set_cons_rate, auc_prefix_cons
        self.revision_cost = revision_cost
        self.contradiction_density, self.solver_calls = contradiction_density, solver_calls
        self.answerer_calls, self.overhead_calls = answerer_calls, overhead_calls

    def validate(self) -> None:
        for name in ("accuracy", "macro_f1", "unknown_f1", "unknown_rate", "set_cons_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name}={value} out of [0,1]")
        if self.auc_prefix_cons is not None and not (0.0 <= self.auc_prefix_cons <= 1.0):
            raise ValueError("auc_prefix_cons out of [0,1]")
        if self.revision_cost < 0:
            raise ValueError("revision_cost negative")


def aggregate(reports: Sequence[BundleReport],
              baseline: Sequence[BundleReport] | None = None) -> MetricsReport:
    """Standard multiclass scores over the final (post-intervention) labels of
    gold-labelled queries, where a class missing from both gold and
    predictions scores F1 = 1; the set-level metrics; and ``OH``, the solver
    plus answerer calls against ``baseline``'s. Reports without a
    gold-labelled query raise ReportFormatError. Floats are summed with
    ``fsum``, correctly rounded, since ``sum`` of floats rounds differently
    from Python 3.12 on and the scores must not depend on the interpreter."""
    # how often each (gold, final) pair occurs, so that each label is compared
    # with a handful of pairs, not with every query
    pairs = Counter((q.gold, q.final) for r in reports for q in r.queries if q.gold is not None)
    scored = pairs.total()
    if not scored:
        raise ReportFormatError("no gold-labelled query to score")
    f1s = {}
    for label in Label:
        tp = pairs[label, label]
        fp = sum(n for (_, final), n in pairs.items() if final == label) - tp
        fn = sum(n for (gold, _), n in pairs.items() if gold == label) - tp
        f1s[label] = _f1(tp, fp, fn)
    solver = sum(r.solver_calls for r in reports)
    answerer = sum(r.answerer_calls for r in reports)
    base = sum(r.solver_calls + r.answerer_calls for r in baseline) if baseline is not None else 0
    aucs = [auc for auc in map(auc_prefix_cons, reports) if auc is not None]  # sequential only
    report = MetricsReport(
        bundles=len(reports),
        queries=sum(r.n for r in reports),
        accuracy=sum(n for (gold, final), n in pairs.items() if gold == final) / scored,
        macro_f1=fsum(f1s.values()) / len(f1s),
        unknown_f1=f1s[Label.UNKNOWN],
        unknown_rate=sum(n for (_, final), n in pairs.items() if final == Label.UNKNOWN) / scored,
        set_cons_rate=set_cons_rate(reports),
        auc_prefix_cons=fsum(aucs) / len(aucs) if aucs else None,
        revision_cost=revision_cost(reports),
        contradiction_density=fsum(map(contradiction_density, reports)) / len(reports),
        solver_calls=solver,
        answerer_calls=answerer,
        overhead_calls=(solver + answerer) / base if base else None,
    )
    report.validate()
    return report


# -------------------------------------------------------------------- tables

_COLUMNS = ("Acc", "F1", "Unk-F1", "SetCons", "AUC", "RevCost", "OH")


def _fmt(value, width=8) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.3f}".rjust(width)
    return str(value).rjust(width)


def render_table(rows: Sequence[tuple[str, MetricsReport]], title: str | None = None) -> str:
    """Flat text table, one row per labelled run, headline columns first."""
    lines = []
    if title:
        lines.append(title)
    label_width = max([len(label) for label, _ in rows] + [12])
    header = "".rjust(label_width) + "".join(c.rjust(9) for c in _COLUMNS)
    lines.append(header)
    for label, m in rows:
        cells = (m.accuracy, m.macro_f1, m.unknown_f1, m.set_cons_rate,
                 m.auc_prefix_cons, m.revision_cost, m.overhead_calls)
        lines.append(label.ljust(label_width) + "".join(_fmt(c, 9) for c in cells))
    return "\n".join(lines) + "\n"


def domain_breakdown(reports: Sequence[BundleReport]) -> list[tuple[str, MetricsReport]]:
    rows = []
    for domain in sorted({r.domain for r in reports}):
        subset = [r for r in reports if r.domain == domain]
        try:
            rows.append((domain, aggregate(subset)))
        except ReportFormatError as exc:
            raise ReportFormatError(f"domain {domain}: {exc}") from None
    return rows
