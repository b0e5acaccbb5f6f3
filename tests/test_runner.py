import json

import pytest

from casecheck import SolveStatus
from casecheck.answerers import PRESETS, Answerer, PolicyConfig, policy_to_dict
from casecheck.casefile import Domain, Label
from casecheck.generator import GeneratorSpec, generate_corpus
from casecheck.metrics import aggregate, load_reports, save_reports
from casecheck.runner import METHODS, RunConfig, evaluate_bundle, run, write_run


def report_lines(reports) -> list[str]:
    """Reports by value: each as the line ``save_reports`` writes for it."""
    return [json.dumps(r, default=vars, sort_keys=True) for r in reports]


GEN_MIX = GeneratorSpec(domain_mix={Domain.RELATIONAL: 8, Domain.TEMPORAL: 6,
                                 Domain.POLICY: 5, Domain.ABDUCTIVE: 6})


@pytest.fixture(scope="module")
def cases():
    return generate_corpus(GEN_MIX, seed=21)


def config(method, policy="nocot-like", **kw):
    defaults = dict(corpus="", policy=policy, method=method, mode="sequential",
                    seed=9, max_conflicts=100_000)
    defaults.update(kw)
    return RunConfig(**defaults)


def test_oracle_is_clean_everywhere(cases):
    for method in ("baseline", "check", "check+repair"):
        reports = [evaluate_bundle(c, config(method, policy="oracle")) for c in cases]
        m = aggregate(reports)
        assert m.set_cons_rate == 1.0
        assert m.contradiction_density == 0.0
        assert m.revision_cost == 0.0
        assert all(r.bundle_status == "consistent" for r in reports)


def test_check_mode_exactly_n_calls_on_clean_bundles(cases):
    for case in cases:
        report = evaluate_bundle(case, config("check", policy="oracle"))
        assert report.counts.get("check_solver_calls") == case.bundle_size
        assert report.counts.get("core_solver_calls", 0) == 0


def test_baseline_statuses_monotone(cases):
    for case in cases:
        report = evaluate_bundle(case, config("baseline"))
        seen_unsat = False
        for s in report.statuses_after:
            if s == SolveStatus.UNSAT:
                seen_unsat = True
            else:
                assert not seen_unsat, "sat status after unsat in a no-intervention run"
        assert report.statuses_before == report.statuses_after


def test_baseline_final_labels_equal_predictions(cases):
    for case in cases:
        report = evaluate_bundle(case, config("baseline"))
        for q in report.queries:
            assert q.final == q.predicted


def test_check_improves_set_consistency(cases):
    base = aggregate([evaluate_bundle(c, config("baseline")) for c in cases])
    check = aggregate([evaluate_bundle(c, config("check")) for c in cases])
    repair = aggregate([evaluate_bundle(c, config("check+repair")) for c in cases])
    assert check.set_cons_rate > base.set_cons_rate
    assert repair.set_cons_rate >= check.set_cons_rate


def test_repair_budget_compliance(cases):
    for case in cases:
        report = evaluate_bundle(case, config("check+repair"))
        pipeline_calls = (report.counts.get("check_solver_calls", 0)
                          + report.counts.get("core_solver_calls", 0)
                          + report.counts.get("repair_solver_calls", 0))
        assert pipeline_calls <= 3 * case.bundle_size
        for entry in report.repair_log:
            assert len(entry.tried) <= 2
        assert not report.invariant_failures


def test_abstain_when_softening_fails(cases):
    # A one-conflict budget makes a softening solve time out deterministically:
    # on case rel-0004, q4's smaller candidate times out, the larger one is
    # refuted, and the step abstains without a further solve, keeping the
    # past, q1 included.
    cfg = config("check+repair", max_conflicts=1, r_max=6)
    reports = {case.id: evaluate_bundle(case, cfg) for case in cases}
    assert not any(r.invariant_failures for r in reports.values())
    report = reports["rel-0004"]
    entry = next(e for e in report.repair_log if e.query_id == "q4")
    assert entry.tried == [{"size": 1, "verdict": "timeout"}, {"size": 2, "verdict": "unsat"}]
    assert entry.solver_calls == 2
    assert entry.outcome == "fallback-unknown" and entry.accepted is None
    final = {q.query_id: q for q in report.queries}
    assert final["q4"].final == Label.UNKNOWN.value
    assert final["q1"].final == final["q1"].predicted


def test_overhead_ordering_check_cheaper_than_sampling(cases):
    # checking adds a few solver calls; sampling-based answering multiplies
    # answerer calls, so its normalized overhead is far larger
    base = [evaluate_bundle(c, config("baseline")) for c in cases]
    check = [evaluate_bundle(c, config("check")) for c in cases]
    sc = [evaluate_bundle(c, config("baseline", policy="sc-like")) for c in cases]
    oh_check = aggregate(check, baseline=base).overhead_calls
    oh_sc = aggregate(sc, baseline=base).overhead_calls
    assert 1.0 <= oh_check < oh_sc


def test_set_mode_has_no_auc(cases):
    reports = [evaluate_bundle(c, config("check", mode="set")) for c in cases]
    m = aggregate(reports)
    assert m.auc_prefix_cons is None


def test_run_writes_canonical_artifacts(tmp_path, cases):
    from casecheck.casefile import save_corpus
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(cases, corpus)
    cfg = config("check+repair", corpus=str(corpus))
    reports, timings = run(cfg)
    out = write_run(tmp_path / "run1", cfg, reports, timings)
    assert (out / "reports.jsonl").exists()
    assert (out / "manifest.json").exists()
    assert (out / "timings.json").exists()
    loaded = load_reports(out / "reports.jsonl")
    assert [r.case_id for r in loaded] == sorted(r.case_id for r in reports)
    # canonical file carries no wall-clock
    first = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    assert "wall_ms" not in first


def test_run_determinism_byte_identical(tmp_path, cases):
    from casecheck.casefile import save_corpus
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(cases, corpus)
    cfg = config("check+repair", corpus=str(corpus))
    r1, t1 = run(cfg)
    r2, t2 = run(cfg)
    write_run(tmp_path / "a", cfg, r1, t1)
    write_run(tmp_path / "b", cfg, r2, t2)
    assert (tmp_path / "a" / "reports.jsonl").read_bytes() == \
        (tmp_path / "b" / "reports.jsonl").read_bytes()


def test_parallel_jobs_match_sequential(tmp_path, cases):
    from casecheck.casefile import save_corpus
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(cases, corpus)
    for method in ("baseline", "check", "check+repair"):
        for mode in ("sequential", "set"):
            r1, t1 = run(config(method, corpus=str(corpus), mode=mode))
            r2, t2 = run(config(method, corpus=str(corpus), mode=mode, jobs=2))
            assert report_lines(r1) == report_lines(r2), (method, mode)
            assert list(t1) == list(t2) == sorted(c.id for c in cases)


def test_policy_file_and_replay_trace_load_once_per_run(tmp_path, monkeypatch, default_corpus):
    # a replay policy given as a file: both are read once per run, not once
    # per bundle; the manifest keeps the policy as it was given
    from casecheck import answerers
    from casecheck.casefile import save_corpus
    cases = default_corpus[:40]
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(cases, corpus)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps({"case_id": c.id, "query_id": q.id,
                                         "label": q.gold_label.value}) + "\n"
                             for c in cases for q in c.queries))
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"kind": "replay", "trace_path": str(trace)}))
    loads = {"trace": 0, "policy": 0}

    def counting(name, fn):
        def wrapped(*args):
            loads[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(answerers, "load_trace", counting("trace", answerers.load_trace))
    monkeypatch.setattr(answerers, "policy_from_dict", counting("policy", answerers.policy_from_dict))
    cfg = config("check+repair", policy=str(policy), corpus=str(corpus))
    reports, timings = run(cfg)
    assert loads == {"trace": 1, "policy": 1}
    assert report_lines(reports) == report_lines(evaluate_bundle(c, cfg)
                                                 for c in sorted(cases, key=lambda c: c.id))
    out = write_run(tmp_path / "run", cfg, reports, timings)
    assert json.loads((out / "manifest.json").read_text())["config"]["policy"] == str(policy)


def test_in_process_and_loaded_reports_score_alike(tmp_path, cases):
    # a report holds label and status members in process and their strings
    # once loaded; both score alike, and both save to the same bytes
    cases = sorted(cases, key=lambda c: c.id)  # the order save_reports writes
    runs = {method: [evaluate_bundle(c, config(method)) for c in cases] for method in METHODS}
    loaded = {}
    for method, reports in runs.items():
        path = tmp_path / f"{method}.jsonl"
        save_reports(reports, path)
        loaded[method] = load_reports(path)
        again = tmp_path / f"{method}-again.jsonl"
        save_reports(loaded[method], again)
        assert again.read_bytes() == path.read_bytes()
    statuses = [pair for r, l in zip(runs["check"], loaded["check"])
                for pair in zip(r.statuses_before, l.statuses_before)]
    assert {s for s, _ in statuses} >= {SolveStatus.SAT, SolveStatus.UNSAT}
    assert all(type(s) is SolveStatus and type(t) is str for s, t in statuses)
    q, loaded_q = runs["check"][0].queries[0], loaded["check"][0].queries[0]
    assert type(q.final) is Label and type(loaded_q.final) is str
    for method in METHODS:
        assert vars(aggregate(runs[method])) == vars(aggregate(loaded[method]))
        assert (vars(aggregate(runs[method], baseline=runs["baseline"]))
                == vars(aggregate(loaded[method], baseline=loaded["baseline"])))


def test_split_filter(tmp_path, cases):
    from casecheck.casefile import save_corpus, split_cases
    split_cases(cases, (0.6, 0.2, 0.2), seed=3)
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(cases, corpus)
    cfg = config("baseline", corpus=str(corpus), split="test")
    reports, _ = run(cfg)
    want = {c.id for c in cases if c.split == "test"}
    assert {r.case_id for r in reports} == want


def test_logic_filtered_sc_never_kills_state(cases):
    policy = PolicyConfig(kind="self-consistency", k=3,
                          inner=PRESETS["nocot-like"], logic_filter=True)
    for case in cases[:10]:
        report = evaluate_bundle(case, config("check", policy=policy))
        assert report.final_sat
        assert report.counts.get("filter_solver_calls", 0) > 0


def test_every_booked_phase_is_in_the_phase_table(cases, monkeypatch):
    # the per-bundle cap and OH read their phases off PHASES alone
    from casecheck import runner
    from casecheck.metrics import PHASES

    ledgers = []

    class Recorded(runner._Ledger):
        def __init__(self, *args):
            super().__init__(*args)
            ledgers.append(self)

    monkeypatch.setattr(runner, "_Ledger", Recorded)
    sc_filter = PolicyConfig(kind="self-consistency", k=3,
                             inner=PRESETS["nocot-like"], logic_filter=True)
    phases = {p.name for p in PHASES}
    booked = set()
    for method in METHODS:
        for policy in ("nocot-like", sc_filter):
            for case in cases[:12]:
                report = evaluate_bundle(case, config(method, policy=policy))
                counts = report.counts
                assert counts.keys() <= phases | {"answerer_calls"}
                booked |= counts.keys()
                # OH leaves out the revision probe, a measurement
                assert report.solver_calls == sum(
                    v for k, v in counts.items() if k not in ("answerer_calls", "revision_probe_calls"))
                assert ledgers.pop().capped == sum(counts.get(k, 0) for k in (
                    "check_solver_calls", "core_solver_calls", "repair_solver_calls"))
    assert booked == phases | {"answerer_calls"}


def test_invalid_config_rejected():
    # the wording of every other refusal (``schema.must``)
    with pytest.raises(ValueError, match=r"^method must be one of baseline, check, check\+repair, "
                                         r"got 'verify'$"):
        RunConfig(corpus="", policy="oracle", method="verify")
    with pytest.raises(ValueError, match=r"^mode must be one of set, sequential, got 'parallel'$"):
        RunConfig(corpus="", policy="oracle", mode="parallel")
    with pytest.raises(ValueError):
        RunConfig(corpus="", policy="oracle", method="check+repair", r_max=0)
    for budget in (None, 0):  # None, the old "no budget", failed only at the first conflict
        with pytest.raises(ValueError, match="max_conflicts"):
            RunConfig(corpus="", policy="oracle", max_conflicts=budget)
    # each ran serially, failed deep in the pool or reached the manifest as given
    for name, value in [("jobs", 0), ("jobs", -3), ("jobs", True), ("jobs", 2.5), ("seed", "7"),
                        ("seed", True), ("r_max", 1.5), ("call_cap_factor", True)]:
        with pytest.raises(ValueError, match=name):
            RunConfig(corpus="", policy="oracle", **{name: value})
    # the repair budgets are read by check+repair alone
    assert RunConfig(corpus="", policy="oracle", method="check", r_max=0).r_max == 0


# sha256 of reports.jsonl for each method (policy nocot-like, seed 7) on the
# seed-0 default corpus, in both modes, and on the 40-case long-bundle corpus
# of test_generator.py: any change to a verdict, a core, a repair or a
# solver-call count moves them
REPORT_DIGESTS = {
    ("default", "sequential", "baseline"): "c128ee86a2a55fb626ed3382afaab75dd470e5d81b61096a95f1a0e04d14b36c",
    ("default", "sequential", "check"): "84156077bd3a558a8c2fcbf84d4b99eff41d84250216758342522df83e41ee51",
    ("default", "sequential", "check+repair"): "1b226aa3b3f12a9f4fae2016430913c78ef615234ec327141cb78f1ad66de404",
    ("default", "set", "baseline"): "523057b4a68ac67616e47cf17e54503985e1c766da1319a8434a73ede6cf686a",
    ("default", "set", "check"): "afd779622089f4d3e3a7622adf97be0125ec4f8a80a194750462b1fc98b7410b",
    ("default", "set", "check+repair"): "101d50f61d61b7d2380f951e261e162121ab5498a7029e466bda1eaa68b2a868",
    ("long", "sequential", "baseline"): "0cd61cf52d227ee02174daea78361466f8b98afd3f7c59c5e49a4ea18485b4e0",
    ("long", "sequential", "check"): "bd6f2c550b2dd10acfb404c5d36d889f81788a9ed0f8868dd4af428ee619d102",
    ("long", "sequential", "check+repair"): "6ad6137f8a3ac7f56f5a2d7ebb66c06096f6a5686db8028b817bad2bb1f88d40",
}


def _pin_id(key):
    corpus_name, mode, method = key
    return f"{corpus_name}-{method}" if mode == "sequential" else f"{corpus_name}-{mode}-{method}"


@pytest.fixture(scope="module")
def long_corpus():
    spec = GeneratorSpec(bundle_min=14, bundle_max=16, domain_mix={d: 10 for d in Domain})
    return generate_corpus(spec, seed=0)


@pytest.fixture(scope="module")
def pinned_reports(default_corpus, long_corpus):
    """The reports of a REPORT_DIGESTS key, evaluated once per module."""
    cache = {}

    def reports(key):
        if key not in cache:
            corpus_name, mode, method = key
            corpus = default_corpus if corpus_name == "default" else long_corpus
            cfg = config(method, mode=mode, seed=7, max_conflicts=200_000)
            cache[key] = [evaluate_bundle(case, cfg) for case in corpus]
        return cache[key]
    return reports


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS), ids=_pin_id)
def test_run_reports_are_pinned(tmp_path, pinned_reports, key):
    import hashlib

    path = tmp_path / "reports.jsonl"
    save_reports(pinned_reports(key), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_DIGESTS[key]


# sha256 of metrics.json and of table.txt, as ``casecheck score`` writes them
# for each method's sequential reports of REPORT_DIGESTS on the default
# corpus, scored against the baseline's: the same bytes under every Python
# version. The tables read SetCons/Acc 0.551/0.853 (baseline), 0.946/0.799
# (check) and 1.000/0.856 (check+repair)
SCORE_DIGESTS = {
    "baseline": ("5ee75561829b6b03bcae9740dce906bc40ee4cf9d615f3b8322b9091890bd61e",
                 "90b091daa03fa632bed6e5c698b76e63b3be5d21ae083eaeed2a317a0fea38dd"),
    "check": ("c39b4ed7ed94810e3b1eb55038a44258d3342a8a4132f5b790da583def2f2021",
              "d5ee0321dd94ee4ce14d8bd7c3c19502aa3233aa1b06c7aa0334c7343ce47114"),
    "check+repair": ("cf583805d20907fecdaedd8b358b282175692d27e498d0e60dadbe3a875bb1e3",
                     "5fd275dc6c7e2ae35a3a1aef0df732b4bd7cc4ce02e4d66fde917373c1d83864"),
}


@pytest.mark.parametrize("method", METHODS)
def test_scores_are_pinned(tmp_path, pinned_reports, method):
    import hashlib

    from casecheck.cli import main

    for name in ("baseline", method):
        save_reports(pinned_reports(("default", "sequential", name)),
                     tmp_path / name / "reports.jsonl")
    run_dir = tmp_path / method
    assert main(["score", "--run", str(run_dir), "--baseline", str(tmp_path / "baseline")]) == 0
    digests = [hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
               for name in ("metrics.json", "table.txt")]
    assert tuple(digests) == SCORE_DIGESTS[method]


# sha256 of reports.jsonl for the policy paths REPORT_DIGESTS leaves out, each
# with the three methods (policy seed 7) on the first 40 cases of the seed-0
# default corpus; the digests were taken at cc0ae94. "replay" reads a trace
# file holding nocot-like's answers; "sc-filter" is sc-like given as a policy
# file with "logic_filter": true, the only way into logic_filtered_vote
POLICY_DIGESTS = {
    ("cot-like", "baseline"): "cee1905a4b0d844dfcd3cc991787da3183bdbf20846efef4448655494fe7d536",
    ("cot-like", "check"): "3ad91cad1bcdf7854c5a9622d36fccb7f6f432c6f1581de2c8a39f85cb6e5fcd",
    ("cot-like", "check+repair"): "58faa2a00d1535d8995a7ebbbe552cc13e5a6f5404f15cb99811a20063680140",
    ("sc-like", "baseline"): "7fc9e938119fa028f7017c33a66f096afa0d2ac3029f038fdafa87fdb8f03c4b",
    ("sc-like", "check"): "9b32dfa8cc8165e74f3f6f2613b1f5db72b6a170ebb5e1a830c217b0d6eb1b51",
    ("sc-like", "check+repair"): "863463254c7f270e36c04b28a3dee4e4b8cb786822e098b229963a50eb1db0b9",
    ("history-like", "baseline"): "c11a8b8074f548f2280f23d9d2d69d05946aa33bd5194097b0b388d66dbbb643",
    ("history-like", "check"): "0e89cf4403d250a1ef49e8cb5795d0c5ece079b64d5aeb1d4283e16fc084901b",
    ("history-like", "check+repair"): "e3d397b9564da68b8c0c5fab833758ca7f28f5b97f80dd0d7bbb295bbbcf5a1a",
    ("oracle", "baseline"): "1767f4e777080c00cf21e3b3b8c4173a6d4df9dcc6bda7ab8dbdc3e1bb3e74c8",
    ("oracle", "check"): "a79aac0ddbca6a567567f6b1e79b5bc82cb75ec68e5d63f3786c1eee605c50ff",
    ("oracle", "check+repair"): "47e710fdc486b62e6c6226fc821d5f2a9d85ffb03365bf12f262e7e4b813dd28",
    ("replay", "baseline"): "020d895fab6baff5058cf54309ebcb7bc8040269f31c8f932d13d5a1da34d5e7",
    ("replay", "check"): "32d4a8ef91ac6df2f4dc45a8a7f2e302a4f7526ef929a6cbe6b64094e15a53a2",
    ("replay", "check+repair"): "d22a64dcb1af6a5a2bb270008a88574e743ae128f16b22698204d6b10d9fce95",
    ("sc-filter", "baseline"): "7fc9e938119fa028f7017c33a66f096afa0d2ac3029f038fdafa87fdb8f03c4b",
    ("sc-filter", "check"): "01f2f9c71e6457b139f6183d1937d26a48c7a74d7c19dc9e9437c16b8239a2fa",
    ("sc-filter", "check+repair"): "40b68f1746058a1754d084b8cc16b265a264561ddf5aa90cd16a3c57faf9ee22",
}


def _policy_under_test(name, cases, tmp_path):
    """A preset name, or the path of a policy file written for ``name``."""
    if name == "replay":
        answerer = Answerer(PRESETS["nocot-like"], seed=7)
        trace = tmp_path / "trace.jsonl"
        with trace.open("w") as fh:
            for case in cases:
                for query in case.queries:
                    answer = answerer.answer(case, query)
                    fh.write(json.dumps({"case_id": case.id, "query_id": query.id,
                                         "label": answer.label.value,
                                         "derived_atoms": list(answer.derived_atoms)}) + "\n")
        data = {"kind": "replay", "trace_path": str(trace)}
    elif name == "sc-filter":
        data = {**policy_to_dict(PRESETS["sc-like"]), "logic_filter": True}
    else:
        return name
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("key", sorted(POLICY_DIGESTS), ids="-".join)
def test_policy_reports_are_pinned(tmp_path, default_corpus, key):
    import hashlib

    name, method = key
    cases = default_corpus[:40]
    policy = _policy_under_test(name, cases, tmp_path)
    reports = [evaluate_bundle(case, config(method, policy=policy, seed=7, max_conflicts=200_000))
               for case in cases]
    path = tmp_path / "reports.jsonl"
    save_reports(reports, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == POLICY_DIGESTS[key]


# sha256 of reports.jsonl for the three methods (policy nocot-like, seed 7) on
# the first 40 cases of the seed-0 default corpus under a one-conflict budget,
# taken at 8bc49df. The other pins run at 200,000 conflicts and reach no
# timeout; here the per-step checks time out 8/8/13 times, one repair candidate
# times out and 2/2/1 minimum revisions end inexact
TIMEOUT_DIGESTS = {
    "baseline": "6d65385bfc5fc2397f627c02e0c4a2f0057f1e1ee350588fe22857b7fed825f8",
    "check": "9f0b258f85677a9b0fc41c42996ccf1589f42f2798ed20cf293a0bb52b1ef837",
    "check+repair": "6f01b098361cb7cc0b747f4e94ee7ad9faeb97b8e17839dbd3e8eb48e99c19c1",
}


@pytest.mark.parametrize("method", sorted(TIMEOUT_DIGESTS))
def test_timeout_reports_are_pinned(tmp_path, default_corpus, method):
    import hashlib

    reports = [evaluate_bundle(case, config(method, seed=7, max_conflicts=1))
               for case in default_corpus[:40]]
    assert any(s == "timeout" for r in reports for s in r.statuses_before)
    path = tmp_path / "reports.jsonl"
    save_reports(reports, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TIMEOUT_DIGESTS[method]


@pytest.mark.parametrize("corpus_name", ["default", "long"])
def test_loading_and_evaluating_leave_no_cyclic_garbage(tmp_path, default_corpus, long_corpus,
                                                        corpus_name):
    # a self-referential closure per s-expression read and per grounded
    # inequality used to leave 47,392 objects (default corpus) for the
    # cyclic collector after every load
    import gc

    from casecheck.casefile import load_corpus, save_corpus

    path = tmp_path / "corpus.jsonl"
    save_corpus(default_corpus if corpus_name == "default" else long_corpus, path)
    gc.collect()
    gc.disable()
    try:
        cases = load_corpus(path)
        assert gc.collect() == 0
        for method in METHODS:
            for case in cases:
                evaluate_bundle(case, config(method, seed=7))
            assert gc.collect() == 0, method
    finally:
        gc.enable()
