"""Per-query and set-level metrics computed from bundle reports.

A BundleReport is the complete, serializable record of one bundle run:
per-query labels (gold, as answered, and final after any interventions),
per-step satisfiability statuses before and after interventions, the repair
log, and call counts. Every metric reads only serialized fields, so scoring a
report file reproduces in-process results bit for bit. Wall-clock timings are
kept out of the canonical records (they live in a sidecar) so that repeated
runs of one configuration produce byte-identical report and metric files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterable, Sequence

from .casefile import Label

SAT, UNSAT = "sat", "unsat"  # SolveStatus values, as the reports spell them


@dataclass
class QueryRecord:
    query_id: str
    gold: str | None
    predicted: str
    final: str


@dataclass
class RepairLogEntry:
    query_id: str
    core_query_ids: list[str]
    core_minimal: bool
    tried: list[dict]
    accepted: dict | None
    outcome: str
    solver_calls: int


@dataclass
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
    repair_log: list[RepairLogEntry] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    min_revision: int = 0
    min_revision_exact: bool = True
    invariant_failures: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.queries)

    @property
    def solver_calls(self) -> int:
        return sum(v for k, v in self.counts.items() if k.endswith("solver_calls"))

    @property
    def answerer_calls(self) -> int:
        return self.counts.get("answerer_calls", 0)

    def to_record(self) -> dict:
        record = dict(vars(self))
        record["queries"] = [dict(vars(q)) for q in self.queries]
        record["repair_log"] = [dict(vars(e)) for e in self.repair_log]
        return record

    @classmethod
    def from_record(cls, record: dict) -> "BundleReport":
        """A field that scoring reads with the wrong JSON type raises
        ReportFormatError naming it (``type()`` is exact: true is no int)."""
        for name, (kind, entry, wording) in _REPORT_TYPES.items():
            if name not in record:
                continue  # a required field is missed below; the others take their defaults
            value = record[name]
            if type(value) is not kind or entry and any(
                    type(e) is not entry for e in (value.values() if kind is dict else value)):
                raise ReportFormatError(f"{name} must be {wording}, got {value!r}")
        data = dict(record)
        data["queries"] = [QueryRecord(**q) for q in data["queries"]]
        for i, q in enumerate(data["queries"]):
            if type(q.gold) not in (str, type(None)) or type(q.final) is not str:
                raise ReportFormatError(f"queries[{i}]: gold must be a string or null, final a string")
        data["repair_log"] = [RepairLogEntry(**e) for e in data.get("repair_log", [])]
        return cls(**data)


# JSON type, entry type and wording of each report field that scoring reads
_REPORT_TYPES = {
    "domain": (str, None, "a string"), "mode": (str, None, "a string"),
    "final_sat": (bool, None, "true or false"), "min_revision": (int, None, "an integer"),
    "queries": (list, dict, "a list of objects"), "counts": (dict, int, "an object of integers"),
    "statuses_before": (list, str, "a list of strings"),
    "statuses_after": (list, str, "a list of strings"),
}


def save_reports(reports: Sequence[BundleReport], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for report in sorted(reports, key=lambda r: r.case_id):
            fh.write(json.dumps(report.to_record(), sort_keys=True) + "\n")


class ReportFormatError(ValueError):
    """A run directory file that is no JSON or holds no bundle report; the
    message names the file and line."""


def load_reports(path: str | Path) -> list[BundleReport]:
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(BundleReport.from_record(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:  # a ReportFormatError names its field
                why = exc if isinstance(exc, ReportFormatError) else f"not a bundle report ({exc!r})"
                raise ReportFormatError(f"{path}:{lineno}: {why}") from None
    return out


# ------------------------------------------------------------------- metrics

LABEL_NAMES = [l.value for l in Label]


def _f1(tp: int, fp: int, fn: int) -> float:
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0  # class absent from both gold and predictions
    denom = 2 * tp + fp + fn
    return (2 * tp / denom) if denom else 0.0


@dataclass
class PerQueryMetrics:
    accuracy: float
    macro_f1: float
    unknown_f1: float
    unknown_rate: float  # share of Unknown among final predictions


def per_query_metrics(reports: Iterable[BundleReport]) -> PerQueryMetrics:
    """Standard multiclass scores over final (post-intervention) labels.
    A class missing from both gold and predictions scores F1 = 1."""
    pairs = [(q.gold, q.final) for r in reports for q in r.queries if q.gold is not None]
    if not pairs:
        raise ValueError("no scored queries")
    correct = sum(1 for gold, final in pairs if gold == final)
    f1s = {}
    for name in LABEL_NAMES:
        tp = sum(1 for g, f in pairs if g == name and f == name)
        fp = sum(1 for g, f in pairs if g != name and f == name)
        fn = sum(1 for g, f in pairs if g == name and f != name)
        f1s[name] = _f1(tp, fp, fn)
    unknown_rate = sum(1 for _, f in pairs if f == Label.UNKNOWN.value) / len(pairs)
    return PerQueryMetrics(
        accuracy=correct / len(pairs),
        macro_f1=sum(f1s.values()) / len(f1s),
        unknown_f1=f1s[Label.UNKNOWN.value],
        unknown_rate=unknown_rate,
    )


def set_cons_rate(reports: Sequence[BundleReport]) -> float:
    """Fraction of bundles whose final belief state is satisfiable."""
    if not reports:
        raise ValueError("no reports")
    return sum(1 for r in reports if r.final_sat) / len(reports)


def auc_prefix_cons(report: BundleReport) -> float | None:
    """Mean prefix-satisfiability indicator; sequential bundles only (set
    bundles have no meaningful prefix order, flagged as None)."""
    if report.mode != "sequential":
        return None
    if not report.statuses_after:
        return 1.0
    return sum(1 for s in report.statuses_after if s == SAT) / len(report.statuses_after)


def mean_auc_prefix_cons(reports: Sequence[BundleReport]) -> float | None:
    values = [auc_prefix_cons(r) for r in reports]
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def contradiction_density(report: BundleReport) -> float:
    """Fraction of steps where a satisfiable state became unsatisfiable.
    Interventions reset the running state, so repaired runs can transition
    more than once; untouched runs are monotone and cap at one transition."""
    if not report.queries:
        return 0.0
    transitions = 0
    running_sat = True  # premises are satisfiable by construction
    for before, after in zip(report.statuses_before, report.statuses_after):
        if running_sat and before == UNSAT:
            transitions += 1
        running_sat = after == SAT
    return transitions / len(report.queries)


def mean_contradiction_density(reports: Sequence[BundleReport]) -> float:
    return sum(contradiction_density(r) for r in reports) / len(reports)


def revision_cost(reports: Sequence[BundleReport]) -> float:
    """Mean ``min_revision``: the fewest active commitments whose retraction
    would restore each final state."""
    if not reports:
        raise ValueError("no reports")
    return sum(r.min_revision for r in reports) / len(reports)


@dataclass
class OverheadReport:
    solver_calls: int
    answerer_calls: int
    call_ratio: float | None       # (solver + answerer) vs the baseline run


def overhead(reports: Sequence[BundleReport],
             baseline: Sequence[BundleReport] | None = None) -> OverheadReport:
    solver = sum(r.solver_calls for r in reports)
    answerer = sum(r.answerer_calls for r in reports)
    call_ratio = None
    if baseline is not None:
        base = sum(r.solver_calls for r in baseline) + sum(r.answerer_calls for r in baseline)
        call_ratio = (solver + answerer) / base if base else None
    return OverheadReport(solver, answerer, call_ratio)


@dataclass
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

    def validate(self) -> None:
        for name in ("accuracy", "macro_f1", "unknown_f1", "unknown_rate", "set_cons_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name}={value} out of [0,1]")
        if self.auc_prefix_cons is not None and not (0.0 <= self.auc_prefix_cons <= 1.0):
            raise ValueError("auc_prefix_cons out of [0,1]")
        if self.revision_cost < 0:
            raise ValueError("revision_cost negative")

    def to_dict(self) -> dict:
        return asdict(self)


def aggregate(reports: Sequence[BundleReport],
              baseline: Sequence[BundleReport] | None = None) -> MetricsReport:
    pq = per_query_metrics(reports)
    oh = overhead(reports, baseline)
    report = MetricsReport(
        bundles=len(reports),
        queries=sum(r.n for r in reports),
        accuracy=pq.accuracy,
        macro_f1=pq.macro_f1,
        unknown_f1=pq.unknown_f1,
        unknown_rate=pq.unknown_rate,
        set_cons_rate=set_cons_rate(reports),
        auc_prefix_cons=mean_auc_prefix_cons(reports),
        revision_cost=revision_cost(reports),
        contradiction_density=mean_contradiction_density(reports),
        solver_calls=oh.solver_calls,
        answerer_calls=oh.answerer_calls,
        overhead_calls=oh.call_ratio,
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
        rows.append((domain, aggregate(subset)))
    return rows
