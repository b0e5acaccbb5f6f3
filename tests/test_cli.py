import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from casecheck.answerers import PRESETS, policy_to_dict
from casecheck.cli import build_parser, main


def test_generate_smoke_corpus(tmp_path, capsys):
    out = tmp_path / "smoke.jsonl"
    rc = main(["generate", "--out", str(out), "--cases", "10", "--seed", "4"])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 10
    printed = capsys.readouterr().out
    assert "Domain" in printed and "total" in printed


def test_generate_same_seed_identical_files(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    main(["generate", "--out", str(a), "--cases", "8", "--seed", "2"])
    main(["generate", "--out", str(b), "--cases", "8", "--seed", "2"])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("flag, value", [
    ("--cases", "0"),  # used to read as unset and write the full corpus
    ("--cases", "-3"),
    ("--mix", "0,0,0,0"),
    ("--mix", "2,-1,0,0"),
])
def test_generate_rejects_counts_that_give_the_wrong_corpus(tmp_path, capsys, flag, value):
    out = tmp_path / "bad.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, message", [
    ("0.5,0.5", None),  # used to end in a ValueError traceback, exit 1
    ("1.5,-0.5,0", None),  # used to exit 0 with every case in train
    ("0.5,0.5,0.5", None),
    ("nan,0,1", None),
    ("a,b,c", "invalid _parse_ratios value: 'a,b,c'"),
])
def test_generate_rejects_split_shares(tmp_path, capsys, value, message):
    out = tmp_path / "bad.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--out", str(out), "--cases", "10", "--split", value])
    assert exc.value.code == 2
    message = message or f"needs three shares >= 0 that sum to 1 (train,dev,test), got {value}"
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"casecheck generate: error: argument --split: {message}")
    assert not out.exists()


def test_generate_refuses_cases_together_with_mix(tmp_path, capsys):
    # --mix used to win silently: 4 cases written, exit 0
    out = tmp_path / "c.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--out", str(out), "--cases", "8", "--mix", "1,1,1,1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "casecheck generate: error: argument --mix: not allowed with argument --cases")
    assert not out.exists()


@pytest.mark.parametrize("command, out, message", [
    # ended in an IsADirectoryError traceback
    pytest.param("generate", "{dir}", "--out {dir} is a directory", id="generate-dir"),
    # evaluated every bundle, then ended in a FileExistsError traceback, exit 1
    pytest.param("run", "{file}", "--out {file} is not a directory", id="run-file"),
    pytest.param("label", "{dir}", "--out {dir} is a directory", id="label-dir"),
    pytest.param("score", "{file}", "--out {file} is not a directory", id="score-file"),
    pytest.param("generate", "{file}/c.jsonl", "--out {file}/c.jsonl: {file} is not a directory",
                 id="generate-under-file"),
    pytest.param("run", "{file}/run", "--out {file}/run: {file} is not a directory",
                 id="run-under-file"),
])
def test_an_unusable_out_exits_2_before_any_work(tmp_path, corpus, capsys, monkeypatch,
                                                 command, out, message):
    from casecheck import casefile, generator, metrics, runner

    def no_work(*args, **kwargs):
        raise AssertionError("work began before --out was checked")

    # runner first: executing it binds casefile's load_corpus in it
    for module, name in ((runner, "run"), (generator, "generate_corpus"),
                         (casefile, "load_corpus"), (metrics, "load_reports")):
        monkeypatch.setattr(module, name, no_work)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept\n")
    paths = {"dir": str(tmp_path / "dir"), "file": str(tmp_path / "file")}
    out = out.format(**paths)
    argv = {"generate": ["generate", "--out", out],
            "run": run_args(corpus, out),
            "label": ["label", "--corpus", str(corpus), "--out", out],
            "score": ["score", "--run", str(tmp_path), "--out", out]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"casecheck {command}: error: {message.format(**paths)}\n"
    assert (tmp_path / "file").read_text() == "kept\n"
    assert not any((tmp_path / "dir").iterdir())


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    main(["generate", "--out", str(path), "--cases", "12", "--seed", "6"])
    return path


def run_args(corpus, out, **kw):
    args = ["run", "--corpus", str(corpus), "--out", str(out),
            "--max-conflicts", "100000"]
    for key, value in kw.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


@pytest.mark.parametrize("flag, value", [
    ("--r-max", "0"),  # these two used to end in a ValueError traceback, exit 1
    ("--call-cap-factor", "-1"),
    ("--jobs", "0"),  # used to run as --jobs 1
    ("--jobs", "-2"),
    ("--max-conflicts", "0"),  # used to act as a budget of one conflict
])
def test_run_rejects_budgets_below_one(tmp_path, corpus, capsys, flag, value):
    out = tmp_path / "bad-run"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--corpus", str(corpus), "--out", str(out), "--method", "check+repair",
              flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--method", "repair"), ("--mode", "batch")])
def test_run_rejects_an_unknown_method_or_mode(tmp_path, corpus, capsys, flag, value):
    out = tmp_path / "bad-run"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--corpus", str(corpus), "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid choice: '{value}'" in capsys.readouterr().err
    assert not out.exists()


def _row(policy, message, name):
    # ``name`` is the id the row was first collected under, fixed so that a
    # change of wording renames no row
    return pytest.param(policy, message, id=f"{policy}-{name}")


@pytest.mark.parametrize("policy, message", [
    _row("no-such", "unknown policy preset or config file: 'no-such'",
         "unknown policy preset or config file: 'no-such'"),
    _row("missing.json", "unknown policy preset or config file: 'missing.json'",
         "unknown policy preset or config file: 'missing.json'"),
    _row("bad.json", "malformed policy file 'bad.json': ", "malformed policy file 'bad.json': "),
    _row("list.json", "malformed policy file 'list.json': ",
         "malformed policy file 'list.json': "),
    _row("kind.json", "kind must be one of oracle, noisy, replay, self-consistency, history, "
                      "got 'bogus'",  # used to fail at the first answer
         "kind must be one of oracle, noisy, replay, self-consistency, history, got 'bogus'"),
    _row("replay.json", "trace_path must be set for a replay policy, got None",
         "trace_path must be set for a replay policy, got None"),
    _row("not-json.json", "not-json.jsonl:2: not JSON (", "not-json.jsonl:2: not JSON ("),
    _row("maybe.json", "maybe.jsonl:1: label must be one of entailed, contradicted, unknown, "
                       "got 'maybe'",
         "maybe.jsonl:1: label must be one of entailed, contradicted, unknown, got 'maybe'"),
    # each of these parsed and then ended in a traceback, exit 1
    _row("k0.json", "k must be an integer >= 1, got 0", "k must be an integer >= 1, got 0"),
    _row("no-matrix.json", "matrix must be set for a noisy policy, got None",
         "matrix must be set for a noisy policy, got None"),
    _row("derived-max.json", "derived_max must be an integer >= 1, got 0",
         "derived_max must be an integer >= 1, got 0"),
    _row("history-no-matrix.json", "matrix must be set for a history policy, got None",
         "matrix must be set for a history policy, got None"),
    # each of these was accepted, with a value no policy means
    _row("rate-nan.json", "derived_rate must be a number in [0, 1], got nan",
         "derived_rate must be a number in [0, 1], got nan"),
    _row("bias-above-1.json", "history_bias must be a number in [0, 1], got 1.5",
         "history_bias must be a number in [0, 1], got 1.5"),
    _row("filter-text.json", "logic_filter must be true or false, got 'yes'",
         "logic_filter must be true or false, got 'yes'"),
    # an error in a nested policy used to leave out where it was
    _row("inner-k0.json", "inner.k must be an integer >= 1, got 0",
         "inner.k must be an integer >= 1, got 0"),
    _row("inner-kind.json", "inner.kind must be one of oracle, noisy, replay, self-consistency, "
                            "history, got 'bogus'",
         "inner.kind must be one of oracle, noisy, replay, self-consistency, history, got 'bogus'"),
    # these named neither the field nor its path
    _row("inner-matrix-dist.json",
         "inner.matrix[2] must be a probability distribution, got [0, 0, 2]",
         "inner.matrix[2] must be a probability distribution, got [0, 0, 2]"),
    _row("matrix-shape.json", "matrix must be 3x3, got [[1, 0, 0]]",
         "matrix must be 3x3, got [[1, 0, 0]]"),
    _row("list.json", "malformed policy file 'list.json': a policy must be an object, got [1, 2]",
         "malformed policy file 'list.json': a policy must be an object, got [1, 2]"),
])
def test_run_rejects_unusable_policies(tmp_path, corpus, capsys, monkeypatch, policy, message):
    # each used to end in a traceback, exit 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "kind.json").write_text('{"kind": "bogus"}')
    (tmp_path / "replay.json").write_text('{"kind": "replay"}')
    sc = {"kind": "self-consistency", "inner": NOCOT}
    for name, policy_file in [
            ("k0", {**sc, "k": 0}),
            ("no-matrix", {"kind": "noisy", "derived_rate": 0.5}),
            ("derived-max", {**NOCOT, "derived_max": 0, "derived_rate": 1.0}),
            ("rate-nan", {**NOCOT, "derived_rate": float("nan")}),
            ("bias-above-1", {**HISTORY, "history_bias": 1.5}),
            ("filter-text", {**sc, "k": 3, "logic_filter": "yes"}),
            ("history-no-matrix", {**HISTORY, "matrix": None}),
            ("inner-k0", {**sc, "inner": {**NOCOT, "k": 0}}),
            ("inner-kind", {**sc, "inner": {"kind": "bogus"}}),
            ("inner-matrix-dist", {**sc, "inner": {**NOCOT, "matrix": [[1, 0, 0], [0, 1, 0],
                                                                       [0, 0, 2]]}}),
            ("matrix-shape", {**NOCOT, "matrix": [[1, 0, 0]]})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(policy_file))
    for name, trace in [("not-json", '{"case_id": "rel-0001", "query_id": "q1", '
                                     '"label": "entailed"}\n{not json\n'),
                        ("maybe", '{"case_id": "rel-0001", "query_id": "q1", "label": "maybe"}\n')]:
        (tmp_path / f"{name}.jsonl").write_text(trace)
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"kind": "replay", "trace_path": f"{name}.jsonl"}))
    out = tmp_path / "bad-run"
    assert main(["run", "--corpus", str(corpus), "--out", str(out), "--policy", policy]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"casecheck run: error: {message}") and err.count("\n") == 1
    assert not out.exists()


NOCOT = policy_to_dict(PRESETS["nocot-like"])
HISTORY = policy_to_dict(PRESETS["history-like"])
SELF_CONSISTENCY = {"kind": "self-consistency", "inner": NOCOT}


def _put(**fields):
    return lambda record: {**record, **fields}


def _drop(key):
    return lambda record: {k: v for k, v in record.items() if k != key}


def _in_query(**fields):
    return lambda record: {**record, "queries": [{**record["queries"][0], **fields}]}


# Rows of each input and kind of problem, a value of the wrong JSON type or a
# missing field, in the wording reports.jsonl and timings.json already used;
# their own rows are in test_report_fields_of_the_wrong_type_exit_2 and
# test_corrupt_run_directory_exits_2_naming_file_and_line. Each edits a good
# record of its input: the first corpus record, the nocot-like policy file,
# or a one-line replay trace.
@pytest.mark.parametrize("source, edit, message", [
    ("corpus", _in_query(id=1), "cases[0].queries[0].id must be a string, got 1"),
    ("corpus", _in_query(text=5), "cases[0].queries[0].text must be a string or null, got 5"),
    ("corpus", _put(split=5), "cases[0].split must be a string or null, got 5"),
    ("corpus", _put(premises_format=5),
     "cases[0].premises_format must be a string or null, got 5"),
    ("corpus", _drop("queries"), "cases[0].queries: missing required field"),
    ("policy", _put(k="3"), "k must be an integer, got '3'"),
    ("policy", _put(k=True), "k must be an integer, got True"),
    ("policy", _put(derived_max=2.0), "derived_max must be an integer, got 2.0"),
    ("policy", _put(echo_flip=True), "echo_flip must be a number, got True"),
    ("policy", _put(history_bias="x"), "history_bias must be a number, got 'x'"),
    ("policy", _put(derived_rate="x"), "derived_rate must be a number, got 'x'"),
    ("policy", _put(trace_path=5), "trace_path must be a string or null, got 5"),
    ("policy", _put(matrix=5), "matrix must be a list of lists of numbers or null, got 5"),
    ("policy", _put(matrix=[*NOCOT["matrix"][:2], [0.14, 0.14, "x"]]),
     "matrix[2] must be a list of numbers, got [0.14, 0.14, 'x']"),
    ("policy", _put(**{**SELF_CONSISTENCY, "inner": 5}), "inner must be an object or null, got 5"),
    ("policy", _put(**{**SELF_CONSISTENCY, "inner": {**NOCOT, "matrix": 5}}),
     "inner.matrix must be a list of lists of numbers or null, got 5"),
    ("policy", _drop("kind"), "kind: missing required field"),
    ("trace", _drop("query_id"), "{file}:1: query_id: missing required field"),
    ("trace", lambda _: "case_id query_id label",
     "{file}:1: a trace record must be an object, got 'case_id query_id label'"),
    ("trace", _put(case_id=7), "{file}:1: case_id must be a string, got 7"),
    ("trace", _put(query_id=1), "{file}:1: query_id must be a string, got 1"),
], ids=["corpus-query-id", "corpus-text", "corpus-split", "corpus-format", "corpus-missing",
        "policy-k-text", "policy-k-bool", "policy-max-float", "policy-flip-bool",
        "policy-bias-text", "policy-rate-text", "policy-trace-int", "policy-matrix-int",
        "policy-matrix-text", "policy-inner-int", "policy-inner-matrix-int", "policy-missing",
        "trace-missing", "trace-not-object", "trace-case-id", "trace-query-id"])
def test_each_input_names_a_bad_field_in_one_wording(tmp_path, corpus, capsys, source, edit,
                                                     message):
    out = tmp_path / "out"
    if source == "corpus":
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(edit(json.loads(Path(corpus).read_text().splitlines()[0])))
                        + "\n")
        argv = run_args(path, out)
    else:
        policy = tmp_path / "policy.json"
        path = tmp_path / "trace.jsonl"
        if source == "policy":
            policy.write_text(json.dumps(edit(NOCOT)))
        else:
            path.write_text(json.dumps(edit({"case_id": "rel-0001", "query_id": "q1",
                                             "label": "entailed"})) + "\n")
            policy.write_text(json.dumps({"kind": "replay", "trace_path": str(path)}))
        argv = run_args(corpus, out, policy=policy)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"casecheck run: error: {message.format(file=path)}\n"
    assert not out.exists()


def test_run_of_a_split_with_no_cases_exits_2(tmp_path, corpus, capsys):
    # used to end in a ValueError traceback, exit 1
    out = tmp_path / "no-split"
    assert main(run_args(corpus, out, split="nosuch")) == 2
    assert capsys.readouterr().err == "casecheck run: error: no cases in split 'nosuch'\n"
    assert not out.exists()


def unlabelled(corpus, out, case_ids=None):
    """A copy of ``corpus`` whose cases in ``case_ids`` (all by default) have
    null gold labels, as ``casecheck label`` writes for a case that timed out."""
    records = [json.loads(line) for line in Path(corpus).read_text().splitlines()]
    for record in records:
        if case_ids is None or record["id"] in case_ids:
            for q in record["queries"]:
                q["gold_label"] = None
    out.write_text("".join(json.dumps(r) + "\n" for r in records))
    return out, records[0]["id"]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("policy, message", [
    # these two ended in a ValueError traceback, exit 1
    ("nocot-like", "case {case}: query q1 has no gold label to perturb"),
    ("oracle", "case {case}: query q1 has no gold label for the oracle"),
])
def test_run_over_unlabelled_queries_exits_2(tmp_path, corpus, capsys, jobs, policy, message):
    first = json.loads(Path(corpus).read_text().splitlines()[0])["id"]
    bad, case = unlabelled(corpus, tmp_path / "one-unlabelled.jsonl", {first})
    out = tmp_path / "run"
    assert main(run_args(bad, out, policy=policy, jobs=jobs)) == 2
    assert capsys.readouterr().err == f"casecheck run: error: {message.format(case=case)}\n"
    assert not out.exists()


@pytest.mark.parametrize("policy", ["nocot-like", "oracle", "replay.json"])
def test_run_over_a_corpus_without_gold_labels_exits_2(tmp_path, corpus, capsys, monkeypatch,
                                                      policy):
    # a replay run used to write its run directory, then end in a ValueError
    # traceback, exit 1; nothing is evaluated now
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trace.jsonl").write_text("")
    (tmp_path / "replay.json").write_text('{"kind": "replay", "trace_path": "trace.jsonl"}')
    bad, _ = unlabelled(corpus, tmp_path / "unlabelled.jsonl")
    out = tmp_path / "run"
    assert main(run_args(bad, out, policy=policy)) == 2
    assert capsys.readouterr().err == (f"casecheck run: error: no query in {bad} "
                                       "has a gold label to score\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "report"])
@pytest.mark.parametrize("unscorable", ["empty", "unlabelled"])
def test_reports_with_nothing_to_score_exit_2(tmp_path, corpus, capsys, command, unscorable):
    # each used to end in a ValueError traceback, exit 1
    out = tmp_path / "run"
    assert main(run_args(corpus, out, policy="oracle", method="baseline")) == 0
    path = out / "reports.jsonl"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    for report in lines:
        for q in report["queries"]:
            q["gold"] = None
    path.write_text("" if unscorable == "empty" else
                    "".join(json.dumps(r, sort_keys=True) + "\n" for r in lines))
    capsys.readouterr()
    assert main([command, "--run", str(out)]) == 2
    assert capsys.readouterr().err == (f"casecheck {command}: error: {path}: "
                                       "no gold-labelled query to score\n")


def test_report_of_a_domain_without_gold_labels_exits_2(tmp_path, corpus, capsys):
    # used to print the overall table, then end in a ValueError traceback, exit 1
    out = tmp_path / "run"
    assert main(run_args(corpus, out, policy="oracle", method="baseline")) == 0
    path = out / "reports.jsonl"
    reports = [json.loads(line) for line in path.read_text().splitlines()]
    domain = reports[0]["domain"]
    for report in reports:
        if report["domain"] == domain:
            for q in report["queries"]:
                q["gold"] = None
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in reports))
    capsys.readouterr()
    assert main(["report", "--run", str(out)]) == 2
    assert capsys.readouterr() == ("", f"casecheck report: error: domain {domain}: "
                                       "no gold-labelled query to score\n")


@pytest.mark.parametrize("command", ["score", "report"])
def test_run_directory_without_reports_exits_2(tmp_path, capsys, command):
    # used to end in a FileNotFoundError traceback, exit 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([command, "--run", str(empty)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"casecheck {command}: error: ") and err.count("\n") == 1
    assert str(empty / "reports.jsonl") in err


@pytest.mark.parametrize("command", ["score", "report"])
@pytest.mark.parametrize("name, line, text", [
    ("reports.jsonl", 2, "{not json"),
    ("reports.jsonl", 2, '{"case_id": "x"}'),
    ("timings.json", 1, "{not json"),
    ("timings.json", 1, "[1, 2]"),
    # used to end in a ValueError traceback, exit 1, after writing metrics.json
    ("timings.json", 1, '{"total_seconds": "fast"}'),
], ids=["reports-not-json", "not-a-report", "timings-not-json", "timings-not-object",
        "timings-seconds-text"])
def test_corrupt_run_directory_exits_2_naming_file_and_line(tmp_path, corpus, capsys,
                                                            command, name, line, text):
    # used to end in a JSONDecodeError, KeyError or AttributeError traceback, exit 1
    out = tmp_path / "run"
    assert main(run_args(corpus, out, policy="oracle", method="baseline")) == 0
    path = out / name
    if name == "reports.jsonl":
        text = path.read_text().splitlines()[0] + "\n" + text + "\n"
    path.write_text(text)
    capsys.readouterr()
    assert main([command, "--run", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"casecheck {command}: error: {path}:{line}: ")
    assert err.count("\n") == 1
    assert not (out / "metrics.json").exists() and not (out / "table.txt").exists()


@pytest.mark.parametrize("command", ["score", "report"])
@pytest.mark.parametrize("field, value, message", [
    # the first two used to end in a TypeError traceback, exit 1
    ("statuses_before", 5, "statuses_before must be a list of strings, got 5"),
    ("min_revision", "3", "min_revision must be an integer >= 0, got '3'"),
    # these were scored as given
    ("final_sat", "yes", "final_sat must be true or false, got 'yes'"),
    ("counts", {"check_solver_calls": True},
     "counts must be an object of integers >= 0, got {'check_solver_calls': True}"),
    ("queries", [{"query_id": "q1", "gold": 5, "predicted": "unknown", "final": "unknown"}],
     "queries[0].gold must be a string or null, got 5"),
    # these fields were not checked; a negative revision cost ended in a
    # ValueError traceback, exit 1
    ("min_revision_exact", "no", "min_revision_exact must be true or false, got 'no'"),
    ("invariant_failures", 5, "invariant_failures must be a list of strings, got 5"),
    ("repair_log", [5], "repair_log[0] must be an object, got 5"),
    ("repair_log", [{"query_id": "q1", "core_query_ids": [], "core_minimal": True, "tried": [],
                     "accepted": None, "outcome": "reported", "solver_calls": 0},
                    {"query_id": "q2", "core_query_ids": [], "core_minimal": True, "tried": 5,
                     "accepted": None, "outcome": "reported", "solver_calls": 0}],
     "repair_log[1].tried must be a list of objects, got 5"),
    ("statuses_after", [1], "statuses_after must be a list of strings, got [1]"),
    ("queries", [{"query_id": "q1", "gold": "unknown", "predicted": "unknown", "final": 5}],
     "queries[0].final must be a string, got 5"),
    ("min_revision", -1, "min_revision must be an integer >= 0, got -1"),
    ("wall_ms", 3.5, "wall_ms: unknown field"),
], ids=["statuses-number", "revision-text", "sat-text", "count-bool", "gold-number",
        "exact-text", "failures-number", "log-entry-number", "log-tried-number",
        "statuses-entry-number", "final-number", "revision-negative", "unknown-field"])
def test_report_fields_of_the_wrong_type_exit_2(tmp_path, corpus, capsys, command,
                                                field, value, message):
    out = tmp_path / "run"
    assert main(run_args(corpus, out, policy="oracle", method="baseline")) == 0
    path = out / "reports.jsonl"
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), field: value})
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, "--run", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"casecheck {command}: error: {path}:2: ")
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("source", ["corpus", "reports", "policy", "trace", "timings"])
def test_input_nested_too_deeply_exits_2(tmp_path, corpus, capsys, source):
    # each ended in a RecursionError traceback, exit 1
    deep = "[" * 200000 + "\n"
    run_dir, out = tmp_path / "run", tmp_path / "out"
    if source in ("reports", "timings"):
        assert main(run_args(corpus, run_dir, policy="oracle", method="baseline")) == 0
        path = run_dir / ("reports.jsonl" if source == "reports" else "timings.json")
        argv, where = ["score", "--run", str(run_dir), "--out", str(out)], f"{path}:1"
    elif source == "corpus":
        path = tmp_path / "deep.jsonl"
        argv, where = run_args(path, out), "cases[0]"
    elif source == "policy":
        path = tmp_path / "deep.json"
        argv, where = run_args(corpus, out, policy=path), f"malformed policy file '{path}'"
    else:
        path = tmp_path / "deep.jsonl"
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps({"kind": "replay", "trace_path": str(path)}))
        argv, where = run_args(corpus, out, policy=replay), f"{path}:1"
    path.write_text(deep)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"casecheck {argv[0]}: error: "
                                       f"{where}: nested too deeply to read\n")
    assert not out.exists()


def test_integer_ids_are_refused_not_missed(tmp_path, capsys):
    # a corpus coerced integer ids to text and a replay trace kept them as
    # integers, so this run logged a replay miss for 7/1, answered Unknown
    # and exited 0
    corpus, trace = tmp_path / "corpus.jsonl", tmp_path / "trace.jsonl"
    corpus.write_text(json.dumps({"id": 7, "domain": "relational",
                                  "premises": "p cnf 2 1\n1 2 0\n",
                                  "queries": [{"id": 1, "atom": 1, "gold_label": "unknown"}]})
                      + "\n")
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"kind": "replay", "trace_path": str(trace)}))
    # the trace loads first; with text ids it loads, and the corpus is refused
    for ids, message in [((7, 1), f"{trace}:1: case_id must be a string, got 7"),
                         (("7", "1"), "cases[0].id must be a string, got 7")]:
        trace.write_text(json.dumps({"case_id": ids[0], "query_id": ids[1],
                                     "label": "entailed"}) + "\n")
        assert main(run_args(corpus, tmp_path / "out", policy=replay)) == 2
        assert capsys.readouterr().err == f"casecheck run: error: {message}\n"


@pytest.mark.parametrize("command", ["run", "label"])
def test_malformed_corpus_exits_2_naming_the_case(tmp_path, corpus, capsys, command):
    # used to end in a traceback with exit 1, the code kept for invariant failures
    def no_premises(records):
        del records[3]["premises"]

    def atom_outside_vocabulary(records):
        # used to name the case but not its cases[i] index
        records[1]["queries"][0]["atom"] = 999

    def repeated_id(records):
        # used to load: a run wrote two reports for one case id and one
        # timings entry, so total_seconds undercounted
        records[1] = records[0]

    for corrupt, message in [
            (no_premises, "cases[3].premises: missing required field"),
            (atom_outside_vocabulary,
             "cases[1] (case rel-0001): query q1: atom 999 outside premise vocabulary"),
            (repeated_id, "cases[1].id must be unique in the corpus, got 'rel-0000'")]:
        records = [json.loads(line) for line in Path(corpus).read_text().splitlines()]
        corrupt(records)
        bad = tmp_path / f"{corrupt.__name__}.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / f"{corrupt.__name__}-out"
        args = (run_args(bad, out, policy="oracle") if command == "run"
                else ["label", "--corpus", str(bad), "--out", str(out)])
        assert main(args) == 2
        assert capsys.readouterr().err == f"casecheck {command}: error: {message}\n"
        assert not out.exists()


def test_oracle_run_and_score(tmp_path, corpus, capsys):
    out = tmp_path / "run-oracle"
    rc = main(run_args(corpus, out, policy="oracle", method="check"))
    assert rc == 0
    assert (out / "reports.jsonl").exists()
    assert (out / "manifest.json").exists()
    rc = main(["score", "--run", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "SetCons" in printed
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["set_cons_rate"] == 1.0


def test_score_reads_a_run_scored_against_itself_once(tmp_path, corpus, monkeypatch):
    import shutil

    import casecheck.metrics

    run_dir = tmp_path / "base"
    assert main(run_args(corpus, run_dir, policy="nocot-like", method="baseline")) == 0
    shutil.copytree(run_dir, tmp_path / "copy")
    load_reports, loads = casecheck.metrics.load_reports, []

    def counted(path):
        loads.append(path)
        return load_reports(path)

    monkeypatch.setattr(casecheck.metrics, "load_reports", counted)
    outputs = {}
    for name, baseline in [("same", run_dir / "."), ("copy", tmp_path / "copy")]:
        out = tmp_path / f"score-{name}"
        loads.clear()
        assert main(["score", "--run", str(run_dir), "--baseline", str(baseline),
                     "--out", str(out)]) == 0
        outputs[name] = [(out / f).read_bytes() for f in ("metrics.json", "table.txt")]
        assert len(loads) == (1 if name == "same" else 2)
    assert outputs["same"] == outputs["copy"]


def test_noisy_baseline_has_failures_and_repair_improves(tmp_path, corpus):
    base_dir = tmp_path / "run-base"
    repair_dir = tmp_path / "run-repair"
    assert main(run_args(corpus, base_dir, policy="nocot-like", method="baseline",
                         seed=5)) == 0
    assert main(run_args(corpus, repair_dir, policy="nocot-like", method="check+repair",
                         seed=5)) == 0
    base = json.loads((Path(base_dir) / "manifest.json").read_text())
    assert base["bundles"] == 12
    main(["score", "--run", str(base_dir)])
    main(["score", "--run", str(repair_dir), "--baseline", str(base_dir)])
    mb = json.loads((base_dir / "metrics.json").read_text())
    mr = json.loads((repair_dir / "metrics.json").read_text())
    assert mb["set_cons_rate"] < 1.0  # the noisy policy does contradict itself
    assert mr["set_cons_rate"] > mb["set_cons_rate"]
    assert mr["overhead_calls"] is not None


def test_rescoring_is_byte_identical(tmp_path, corpus):
    out = tmp_path / "run-x"
    main(run_args(corpus, out, policy="nocot-like", method="check", seed=3))
    main(["score", "--run", str(out)])
    first = (out / "metrics.json").read_bytes(), (out / "table.txt").read_bytes()
    main(["score", "--run", str(out)])
    second = (out / "metrics.json").read_bytes(), (out / "table.txt").read_bytes()
    assert first == second


def test_report_prints_domain_breakdown(tmp_path, corpus, capsys):
    out = tmp_path / "run-r"
    main(run_args(corpus, out, policy="oracle", method="baseline"))
    capsys.readouterr()
    assert main(["report", "--run", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "by domain" in printed


def test_corpus_dir_env_var(tmp_path, monkeypatch):
    corpus_dir = tmp_path / "corpora"
    corpus_dir.mkdir()
    main(["generate", "--out", str(corpus_dir / "env.jsonl"), "--cases", "6", "--seed", "1"])
    monkeypatch.setenv("CASECHECK_CORPUS_DIR", str(corpus_dir))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run-env"
    rc = main(run_args("env.jsonl", out, policy="oracle", method="check"))
    assert rc == 0


def test_label_command_round_trip(tmp_path, corpus):
    # strip the gold labels, then re-derive them
    stripped = tmp_path / "stripped.jsonl"
    lines = []
    for line in Path(corpus).read_text().splitlines():
        record = json.loads(line)
        for q in record["queries"]:
            q["gold_label"] = None
        lines.append(json.dumps(record, sort_keys=True))
    stripped.write_text("\n".join(lines) + "\n")
    relabeled = tmp_path / "relabeled.jsonl"
    assert main(["label", "--corpus", str(stripped), "--out", str(relabeled)]) == 0
    orig = [json.loads(l) for l in Path(corpus).read_text().splitlines()]
    new = [json.loads(l) for l in relabeled.read_text().splitlines()]
    for a, b in zip(orig, new):
        for qa, qb in zip(a["queries"], b["queries"]):
            assert qa["gold_label"] == qb["gold_label"]


def test_every_session_of_generate_run_and_label_has_a_conflict_budget(tmp_path, monkeypatch):
    # belief-state sessions take the run's budget; generation, labelling and
    # rebuild_check's fallback keep the default, so a one-conflict run still
    # certifies its premises. The seed-4 corpus reaches the fallback.
    from casecheck.commitments import BeliefState
    from casecheck.solver import DEFAULT_MAX_CONFLICTS, SolverSession

    built, beliefs = [], []
    session_init, belief_init = SolverSession.__init__, BeliefState.__init__

    def record_session(self, *args, **kwargs):
        session_init(self, *args, **kwargs)
        built.append(self)

    def record_belief(self, *args, **kwargs):
        belief_init(self, *args, **kwargs)
        beliefs.append(self.session)

    monkeypatch.setattr(SolverSession, "__init__", record_session)
    monkeypatch.setattr(BeliefState, "__init__", record_belief)
    corpus = tmp_path / "seed4.jsonl"
    assert main(["generate", "--cases", "40", "--seed", "4", "--out", str(corpus)]) == 0
    assert built and {s.max_conflicts for s in built} == {DEFAULT_MAX_CONFLICTS}
    built.clear()
    assert main(["run", "--corpus", str(corpus), "--out", str(tmp_path / "run"),
                 "--policy", "nocot-like", "--method", "check+repair",
                 "--max-conflicts", "1", "--r-max", "6"]) == 0
    assert len(beliefs) == 40 and {s.max_conflicts for s in beliefs} == {1}
    fallbacks = [s for s in built if not any(s is b for b in beliefs)]
    assert fallbacks and {s.max_conflicts for s in fallbacks} == {DEFAULT_MAX_CONFLICTS}
    built.clear()
    assert main(["label", "--corpus", str(corpus), "--out", str(tmp_path / "labeled.jsonl")]) == 0
    assert built and {s.max_conflicts for s in built} == {DEFAULT_MAX_CONFLICTS}


def fresh(*argv: str, warnings: str = "error") -> subprocess.CompletedProcess:
    """Run a fresh interpreter with warnings as errors (or as ``warnings``
    says) on ``argv``."""
    import casecheck

    env = dict(os.environ, PYTHONPATH=str(Path(casecheck.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-X", "dev", "-W", warnings, *argv], env=env,
                          capture_output=True, text=True, check=True)


def fresh_modules(code: str) -> tuple[set[str], set[str]]:
    """The ``casecheck`` modules registered and those executed after ``code``
    in a fresh interpreter. A module registered but not executed yet is no
    plain ``types.ModuleType``."""
    out = fresh("-c", f"{code}\nimport json, sys, types\n"
                "names = [n for n in sys.modules if n.split('.')[0] == 'casecheck']\n"
                "print(json.dumps([names, [n for n in names "
                "if type(sys.modules[n]) is types.ModuleType]]), file=sys.stderr)")
    registered, executed = json.loads(out.stderr.splitlines()[-1])
    return set(registered), set(executed)


# Standard-library modules no CLI child needs to start: dataclasses imports
# inspect, ast, dis and tokenize, and logging is imported where a warning is
# logged.
LEAN = ("dataclasses", "inspect", "logging")
POOL = ("multiprocessing", "concurrent.futures")


def fresh_main(argv: list[str], modules: tuple[str, ...] = LEAN,
               warnings: str = "error") -> tuple[list[str], str]:
    """The ``modules`` a fresh interpreter holds after ``main(argv)`` exits
    0, and what it wrote to stderr."""
    out = fresh("-c", "import json, sys\nfrom casecheck.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                f"print(json.dumps([m for m in {modules!r} if m in sys.modules]), file=sys.stderr)",
                warnings=warnings)
    *err, loaded = out.stderr.splitlines()
    return json.loads(loaded), "\n".join(err)


def test_cli_import_loads_no_process_pool(tmp_path):
    # no command needs multiprocessing: generate and ``run --jobs N`` fork
    # their shards themselves. The run prints every warning, since os.fork
    # swallows its fork-with-threads DeprecationWarning (3.12 on) when
    # warnings are errors
    out = fresh("-c", f"import sys, casecheck.cli; print([m for m in {POOL!r} if m in sys.modules])")
    assert out.stdout.strip() == "[]"
    corpus = str(tmp_path / "c.jsonl")
    assert main(["generate", "--cases", "4", "--out", corpus]) == 0
    argv = ["run", "--corpus", corpus, "--out", str(tmp_path / "run"), "--policy", "nocot-like",
            "--jobs", "2"]
    assert fresh_main(argv, POOL, warnings="always") == ([], "")


def test_cli_children_start_without_dataclasses_inspect_or_logging(tmp_path):
    corpus, run_dir = str(tmp_path / "c.jsonl"), str(tmp_path / "run")
    for argv in (["generate", "--cases", "4", "--out", corpus],
                 ["run", "--corpus", corpus, "--out", run_dir, "--policy", "nocot-like"],
                 ["score", "--run", run_dir],
                 ["report", "--run", run_dir]):
        assert fresh_main(argv) == ([], ""), argv[0]


def test_generate_forks_its_shards_without_a_warning(tmp_path):
    # os.fork swallows its fork-with-threads DeprecationWarning (3.12 on) when
    # warnings are errors, so this child prints every warning instead
    argv = ["generate", "--cases", "8", "--out", str(tmp_path / "c.jsonl")]
    assert fresh("-m", "casecheck.cli", *argv, warnings="always").stderr == ""


def test_a_timed_out_check_still_logs_its_warning(tmp_path):
    corpus = str(tmp_path / "seed4.jsonl")
    assert main(["generate", "--cases", "40", "--seed", "4", "--out", corpus]) == 0
    loaded, err = fresh_main(["run", "--corpus", corpus, "--out", str(tmp_path / "run"),
                              "--policy", "nocot-like", "--method", "check+repair",
                              "--max-conflicts", "1", "--r-max", "6"])
    assert loaded == ["logging"]
    assert "satisfiability check timed out, label degraded to Unknown" in err


@pytest.mark.parametrize("source", ["policy", "trace", "run", "label", "score"])
def test_input_that_is_no_utf8_exits_2(tmp_path, corpus, capsys, source):
    # each ended in a UnicodeDecodeError traceback, exit 1
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff\xfe{}\n")
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps({"kind": "replay", "trace_path": str(bad)}))
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "reports.jsonl").write_bytes(bad.read_bytes())
    out = tmp_path / "out"
    argv = {"policy": run_args(corpus, out, policy=bad),
            "trace": run_args(corpus, out, policy=replay),
            "run": run_args(bad, out),
            "label": ["label", "--corpus", str(bad), "--out", str(out)],
            "score": ["score", "--run", str(run_dir), "--out", str(out)]}[source]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"casecheck {argv[0]}: error: ") and err.count("\n") == 1
    named = run_dir / "reports.jsonl" if source == "score" else bad
    assert str(named) in err and "not UTF-8 text" in err
    assert not out.exists()


def test_mix_help_lists_the_domains_in_order(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--help"])
    assert "--mix MIX per-domain counts: relational,temporal,policy,abductive" in " ".join(
        capsys.readouterr().out.split())
    # the order --mix reads its counts in
    mix = build_parser().parse_args(["generate", "--out", "c", "--mix", "1,2,3,4"]).mix
    assert {domain.value: n for domain, n in mix.items()} == {
        "relational": 1, "temporal": 2, "policy": 3, "abductive": 4}


def test_cli_import_registers_every_engine_module():
    # perfbench's tracer reads each of them from sys.modules after this import
    registered, executed = fresh_modules("import casecheck.cli")
    assert registered == {"casecheck", "casecheck.cli", *(
        f"casecheck.{m}" for m in ("schema", "logic", "solver", "lia", "casefile", "commitments",
                                   "repair", "answerers", "metrics", "generator", "runner"))}
    assert executed == {"casecheck", "casecheck.cli"}


@pytest.mark.parametrize("command", ["score", "report"])
def test_scoring_executes_metrics_alone(tmp_path, corpus, command):
    run_dir = tmp_path / "run"
    assert main(run_args(corpus, run_dir, policy="oracle", method="baseline")) == 0
    argv = [command, "--run", str(run_dir)]
    _, executed = fresh_modules(f"from casecheck.cli import main\nassert main({argv!r}) == 0")
    assert executed == {"casecheck", "casecheck.cli", "casecheck.metrics", "casecheck.schema"}
    # through the entry point too, where runpy warns of a casecheck.cli
    # imported before it runs
    assert fresh("-m", "casecheck.cli", *argv).stderr == ""


def test_generate_executes_no_run_or_scoring_module(tmp_path):
    argv = ["generate", "--cases", "4", "--out", str(tmp_path / "c.jsonl")]
    _, executed = fresh_modules(f"from casecheck.cli import main\nassert main({argv!r}) == 0")
    assert "casecheck.generator" in executed
    assert not executed & {f"casecheck.{m}" for m in ("runner", "answerers", "commitments",
                                                      "repair", "metrics")}


def test_refused_input_executes_only_what_the_command_uses(tmp_path):
    # naming the errors that exit 2 executed casefile, answerers, lia, logic
    # and solver whenever a handler raised
    argv = ["score", "--run", str(tmp_path)]  # no reports.jsonl there
    _, executed = fresh_modules(f"from casecheck.cli import main\nassert main({argv!r}) == 2")
    assert executed == {"casecheck", "casecheck.cli", "casecheck.metrics", "casecheck.schema"}
