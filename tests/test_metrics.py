import inspect
import json
import typing

import pytest

from casecheck.metrics import (
    BundleReport,
    MetricsReport,
    QueryRecord,
    RepairLogEntry,
    ReportFormatError,
    Timings,
    aggregate,
    auc_prefix_cons,
    contradiction_density,
    domain_breakdown,
    load_reports,
    render_table,
    revision_cost,
    save_reports,
    set_cons_rate,
)


def report(case_id="c1", statuses=("sat", "sat"), labels=None, mode="sequential",
           final_sat=True, min_rev=0, counts=None, domain="relational",
           statuses_before=None):
    labels = labels or [("entailed", "entailed", "entailed")] * len(statuses)
    queries = [QueryRecord(f"q{i}", g, p, f) for i, (g, p, f) in enumerate(labels)]
    return BundleReport(
        case_id=case_id, domain=domain, mode=mode, method="baseline",
        queries=queries,
        statuses_before=list(statuses_before or statuses),
        statuses_after=list(statuses),
        final_sat=final_sat,
        bundle_status="consistent" if final_sat else "inconsistent",
        repair_log=[],
        counts=counts or {"check_solver_calls": len(statuses), "answerer_calls": len(statuses)},
        min_revision=min_rev,
        min_revision_exact=True,
        invariant_failures=[],
    )


def test_perfect_predictions_score_one():
    r = report(labels=[("entailed", "entailed", "entailed"),
                       ("contradicted", "contradicted", "contradicted"),
                       ("unknown", "unknown", "unknown")], statuses=("sat",) * 3)
    m = aggregate([r])
    assert (m.accuracy, m.macro_f1, m.unknown_f1) == (1.0, 1.0, 1.0)


def test_macro_f1_hand_computed():
    # six queries with a fixed confusion pattern:
    # gold:      E E C C U U
    # predicted: E C C C U E
    labels = [("entailed", "entailed", "entailed"),
              ("entailed", "contradicted", "contradicted"),
              ("contradicted", "contradicted", "contradicted"),
              ("contradicted", "contradicted", "contradicted"),
              ("unknown", "unknown", "unknown"),
              ("unknown", "entailed", "entailed")]
    r = report(labels=labels, statuses=("sat",) * 6)
    m = aggregate([r])
    # E: tp=1 fp=1 fn=1 -> 0.5; C: tp=2 fp=1 fn=0 -> 0.8; U: tp=1 fp=0 fn=1 -> 2/3
    assert m.accuracy == pytest.approx(4 / 6)
    assert m.macro_f1 == pytest.approx((0.5 + 0.8 + 2 / 3) / 3)
    assert m.unknown_f1 == pytest.approx(2 / 3)


def test_absent_unknown_class_scores_one_by_convention():
    labels = [("entailed", "entailed", "entailed"),
              ("contradicted", "contradicted", "contradicted")]
    m = aggregate([report(labels=labels)])
    assert m.unknown_f1 == 1.0


def test_auc_prefix_cons_direct_formula():
    r = report(statuses=("sat", "sat", "sat", "unsat", "unsat"), final_sat=False)
    assert auc_prefix_cons(r) == pytest.approx(0.6)
    assert auc_prefix_cons(report(statuses=("sat",) * 4)) == 1.0
    r_set = report(statuses=("sat", "unsat"), mode="set", final_sat=False)
    assert auc_prefix_cons(r_set) is None


def test_auc_matches_first_failure_index_when_monotone():
    statuses = ["sat"] * 2 + ["unsat"] * 3  # first failure at step 3 (1-based)
    r = report(statuses=tuple(statuses), final_sat=False)
    n = len(statuses)
    first_unsat = statuses.index("unsat") + 1
    assert auc_prefix_cons(r) == pytest.approx((first_unsat - 1) / n)


def test_contradiction_density_cases():
    assert contradiction_density(report(statuses=("sat",) * 5)) == 0.0
    r = report(statuses=("sat", "sat", "unsat", "unsat", "unsat"), final_sat=False)
    assert contradiction_density(r) == pytest.approx(0.2)
    # repaired step resets the running state: two transitions possible
    r2 = report(statuses=("sat", "sat", "sat"),
                statuses_before=("unsat", "sat", "unsat"))
    assert contradiction_density(r2) == pytest.approx(2 / 3)


def test_revision_cost_means():
    reports = [report(), report(min_rev=1, final_sat=False),
               report(min_rev=2, final_sat=False)]
    assert revision_cost(reports) == pytest.approx(1.0)


def test_overhead_self_ratio_is_exactly_one():
    reports = [report(), report(case_id="c2")]
    assert aggregate(reports, baseline=reports).overhead_calls == 1.0


def test_serialization_roundtrip_bit_identical(tmp_path):
    reports = [report(case_id="b", statuses=("sat", "unsat"), final_sat=False, min_rev=1),
               report(case_id="a")]
    path = tmp_path / "reports.jsonl"
    save_reports(reports, path)
    loaded = load_reports(path)
    assert [r.case_id for r in loaded] == ["a", "b"]  # canonical order
    m1 = aggregate(sorted(reports, key=lambda r: r.case_id))
    m2 = aggregate(loaded)
    assert vars(m1) == vars(m2)
    # re-serialization is byte-identical
    path2 = tmp_path / "again.jsonl"
    save_reports(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("cls", [QueryRecord, RepairLogEntry, BundleReport, MetricsReport,
                                 Timings])
def test_records_take_their_annotated_fields_in_order(cls):
    # the checker builds records positionally, in annotation order, so a
    # parameter out of that order, or stored under another field, would
    # silently swap two fields
    names = list(typing.get_type_hints(cls))
    assert list(inspect.signature(cls).parameters) == names
    values = list(range(len(names)))
    assert vars(cls(*values)) == dict(zip(names, values))


def test_a_bad_report_line_is_named_by_line_and_path(tmp_path):
    # lines are checked a chunk at a time; the first bad value is named,
    # here in a later chunk than the first
    path = tmp_path / "reports.jsonl"
    save_reports([report(case_id=f"c{i:03}") for i in range(100)], path)
    good = path.read_text().splitlines()

    def load_with(lineno, edit):
        lines = list(good)
        record = json.loads(lines[lineno - 1])
        edit(record)
        lines[lineno - 1] = json.dumps(record)
        lines[-1] = json.dumps({**json.loads(lines[-1]), "final_sat": "no"})  # also bad, later
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReportFormatError) as exc:
            load_reports(path)
        return str(exc.value)

    def nested(record):
        record["queries"][1]["predicted"] = None

    assert load_with(70, nested) == f"{path}:70: queries[1].predicted must be a string, got None"
    assert load_with(3, lambda r: r.pop("domain")) == f"{path}:3: domain: missing required field"
    assert load_with(5, lambda r: r["queries"][0].update(extra=1)) == \
        f"{path}:5: queries[0].extra: unknown field"
    path.write_text(good[0] + "\n[1, 2]\n")
    with pytest.raises(ReportFormatError, match=r":2: a report must be an object, got \[1, 2\]$"):
        load_reports(path)


def test_a_report_with_empty_counts_loads(tmp_path):
    # every count, and there are none, is an integer >= 0
    path = tmp_path / "reports.jsonl"
    empty = report()
    empty.counts = {}
    save_reports([empty], path)
    assert load_reports(path)[0].counts == {}


def test_set_cons_consistency_with_terminal_flags():
    reports = [report(case_id=f"c{i}") for i in range(6)]
    reports[1].final_sat = False
    reports[4].final_sat = False
    rate = set_cons_rate(reports)
    flagged = sum(1 for r in reports if not r.final_sat)
    assert rate == pytest.approx(1 - flagged / len(reports))


def test_aggregate_validates_and_tables_render():
    reports = [report(case_id=f"c{i}", domain="relational" if i % 2 else "policy")
               for i in range(4)]
    m = aggregate(reports)
    text = render_table([("baseline", m)], title="run")
    assert "SetCons" in text and "baseline" in text
    rows = domain_breakdown(reports)
    assert {name for name, _ in rows} == {"relational", "policy"}


def test_report_vocabulary_is_the_engines():
    # the methods and modes a run takes are the ones RunConfig checks
    from casecheck import METHODS, MODES, runner

    for method in METHODS:
        for mode in MODES:
            runner.RunConfig(corpus="", policy="oracle", method=method, mode=mode)
    with pytest.raises(ValueError, match="method"):
        runner.RunConfig(corpus="", policy="oracle", method="repair")
    with pytest.raises(ValueError, match="mode"):
        runner.RunConfig(corpus="", policy="oracle", mode="batch")
