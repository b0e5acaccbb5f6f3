import json
import os
import random
import threading
from pathlib import Path

import pytest

from casecheck import schema
from casecheck.casefile import (
    CaseError,
    CaseFile,
    CorpusFormatError,
    Domain,
    Label,
    Query,
    case_to_record,
    compile_case,
    forked_map,
    label_case,
    literal_gold_label,
    load_corpus,
    save_corpus,
    split_cases,
)
FIXTURES = Path(__file__).parent / "fixtures"


def make_case(premises: str, atoms, case_id="t-1", domain=Domain.RELATIONAL) -> CaseFile:
    queries = [Query(id=f"q{i+1}", atom=a) for i, a in enumerate(atoms)]
    case = CaseFile(id=case_id, domain=domain, premises=premises,
                    premises_format="dimacs", queries=queries)
    return compile_case(case)


def load_records(tmp_path, *records) -> list[CaseFile]:
    """The cases of a corpus file that holds ``records``, one a line."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    return load_corpus(corpus)


def load_at(tmp_path, index: int, record) -> CaseFile:
    """``record`` loaded as ``cases[index]``, after ``index`` good cases."""
    good = [{**_GOOD, "id": f"good-{i}"} for i in range(index)]
    return load_records(tmp_path, *good, record)[-1]


def test_gold_label_entailed():
    case = make_case("p cnf 1 1\n1 0", [1])
    assert literal_gold_label(case.new_session()[0], case.queries[0].atom) is Label.ENTAILED


def test_gold_label_contradicted():
    case = make_case("p cnf 1 1\n1 0", [-1])
    assert literal_gold_label(case.new_session()[0], case.queries[0].atom) is Label.CONTRADICTED


def test_gold_label_unknown_confirmed_by_enumeration():
    from casecheck.logic import count_models

    case = make_case("p cnf 2 1\n1 2 0", [1])
    assert literal_gold_label(case.new_session()[0], case.queries[0].atom) is Label.UNKNOWN
    # enumeration finds models with the atom true and with it false
    for lit in (1, -1):
        formula = case.formula.copy()
        formula.add_clause([lit])
        assert count_models(formula) > 0


def _label_twice(formula, literals):
    """Labels from one pass sharing a witness set and from fresh-set checks
    on a second session, each with its solve count."""
    from casecheck.solver import SolverSession

    shared_session, witnesses = SolverSession(formula), set()
    shared = {lit: literal_gold_label(shared_session, lit, witnesses) for lit in literals}
    fresh_session = SolverSession(formula)
    fresh = {lit: literal_gold_label(fresh_session, lit) for lit in literals}
    return shared, fresh, shared_session.stats.solver_calls, fresh_session.stats.solver_calls


def _oracle_label(possible_true: bool, possible_false: bool) -> Label:
    if not possible_false:
        return Label.ENTAILED
    return Label.UNKNOWN if possible_true else Label.CONTRADICTED


def test_shared_witnesses_label_like_fresh_checks_on_random_cnfs():
    from casecheck.logic import Formula, count_models

    rng = random.Random(2015)
    saved = labelled = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        clauses = [[v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))]
                   for _ in range(rng.randint(1, 8))]

        def with_units(*units) -> Formula:
            f = Formula(num_vars=n)
            for c in clauses + [[u] for u in units]:
                f.add_clause(c)
            return f

        if count_models(with_units()) == 0:
            continue  # labelling needs satisfiable premises
        literals = [sign * v for v in range(1, n + 1) for sign in (1, -1)]
        rng.shuffle(literals)
        shared, fresh, shared_calls, fresh_calls = _label_twice(with_units(), literals)
        assert shared == fresh
        for lit in literals:
            assert shared[lit] is _oracle_label(count_models(with_units(lit)) > 0,
                                                count_models(with_units(-lit)) > 0)
        assert shared_calls <= fresh_calls
        saved += fresh_calls - shared_calls
        labelled += 1
    assert labelled > 100 and saved > 0


def test_shared_witnesses_label_like_fresh_checks_on_theories():
    from casecheck.lia import (IntVar, LinConstraint, Theory, enumerate_int_solutions,
                               eval_constraint, ground)

    rng = random.Random(2015)

    def constraint(variables, relations):
        chosen = rng.sample(variables, rng.randint(1, len(variables)))
        terms = tuple((rng.choice([-3, -2, -1, 1, 2, 3]), v.name) for v in chosen)
        return LinConstraint(terms, rng.choice(relations), rng.randint(-12, 12))

    saved = labelled = 0
    for _ in range(300):
        variables = []
        for i in range(rng.randint(1, 3)):
            lower = rng.randint(-3, 2)
            variables.append(IntVar(f"v{i}", lower, lower + rng.randint(1, 4)))
        premises = [constraint(variables, ("<=", "<", "=", ">=", ">", "!="))
                    for _ in range(rng.randint(1, 3))]
        theory = Theory(variables, [(f"c{j}", c) for j, c in enumerate(premises)])
        solutions = enumerate_int_solutions(theory)
        if not solutions:
            continue
        gt = ground(theory)
        query = constraint(variables, ("<=", "<", ">=", ">"))
        atom = gt.reify(query, "query:q1")
        # every literal with an integer meaning: the query atom and x <= k
        meaning = {atom: query}
        for (name, k), v in gt.order_vars.items():
            meaning[v] = LinConstraint(((1, name),), "<=", k)
        literals = [sign * v for v in range(1, gt.formula.num_vars + 1) for sign in (1, -1)]
        rng.shuffle(literals)
        shared, fresh, shared_calls, fresh_calls = _label_twice(gt.formula, literals)
        assert shared == fresh
        for v, c in meaning.items():
            truth = [eval_constraint(c, s) for s in solutions]
            for lit, holds in ((v, truth), (-v, [not t for t in truth])):
                assert shared[lit] is _oracle_label(any(holds), not all(holds)), (theory, c)
        assert shared_calls <= fresh_calls
        saved += fresh_calls - shared_calls
        labelled += 1
    assert labelled > 100 and saved > 0


def test_unsatisfiable_premises_rejected(tmp_path):
    # compiling only parses and grounds; every entry point that uses the
    # premises refuses them and names the case
    from casecheck.runner import METHODS, RunConfig, evaluate_bundle, run

    def bad_case() -> CaseFile:
        case = make_case("p cnf 2 2\n1 0\n-1 0", [1, -2, 2], case_id="bad-7")
        for q in case.queries:
            q.gold_label = Label.ENTAILED
        return case

    case = bad_case()
    corpus = tmp_path / "bad.jsonl"
    save_corpus([case], corpus)
    entry_points = [case.new_session, lambda: label_case(case),
                    lambda: run(RunConfig(corpus=str(corpus), policy="nocot-like", jobs=2))]
    entry_points += [lambda m=m: evaluate_bundle(bad_case(), RunConfig(
        corpus="", policy="nocot-like", method=m)) for m in METHODS]
    for entry in entry_points:
        with pytest.raises(CaseError, match="case bad-7: premises are unsatisfiable"):
            entry()


def test_minimal_handwritten_case_roundtrip(tmp_path):
    case = make_case("p cnf 1 1\n1 0", [1])
    case.queries[0].gold_label = Label.ENTAILED
    path = tmp_path / "mini.jsonl"
    save_corpus([case], path)
    [loaded] = load_corpus(path)
    assert loaded.id == case.id
    assert loaded.queries[0].gold_label is Label.ENTAILED
    assert literal_gold_label(loaded.new_session()[0], loaded.queries[0].atom) is Label.ENTAILED


def test_roundtrip_preserves_unknown_fields(tmp_path):
    record = {
        "id": "x-1", "domain": "relational", "split": "dev",
        "premises": "p cnf 1 1\n1 0", "premises_format": "dimacs",
        "queries": [{"id": "q1", "atom": 1, "gold_label": None, "text": None,
                     "depends_on": [], "annotator": "a3"}],
        "provenance": {"source": "manual"},
    }
    [case] = load_records(tmp_path, record)
    assert case.extra["provenance"] == {"source": "manual"}
    assert case.queries[0].extra["annotator"] == "a3"
    out = case_to_record(case)
    assert out["provenance"] == {"source": "manual"}
    assert out["queries"][0]["annotator"] == "a3"


def test_schema_errors_carry_field_path(tmp_path):
    record = {"id": "x", "domain": "nope", "premises": "p cnf 1 0\n", "queries": []}
    with pytest.raises(CorpusFormatError) as exc:
        load_at(tmp_path, 3, record)
    assert "cases[3].domain" in str(exc.value)

    record = {"id": "x", "domain": "relational", "premises": "p cnf 1 0\n",
              "queries": [{"id": "q1", "atom": 1, "gold_label": "maybe"}]}
    with pytest.raises(CorpusFormatError) as exc:
        load_at(tmp_path, 0, record)
    assert "queries[0].gold_label" in str(exc.value)


_GOOD = {"id": "r-0001", "domain": "relational", "premises": "p cnf 2 1\n1 2 0\n",
         "premises_format": "dimacs", "queries": [{"id": "q1", "atom": 1, "depends_on": []}]}


@pytest.mark.parametrize("record, message", [
    (["r-0001"], r"cases\[5\] must be an object, got \['r-0001'\]"),
    ({**_GOOD, "premises": 5}, r"cases\[5\]\.premises must be a string, got 5"),
    ({**_GOOD, "queries": {"a": 1}},
     r"cases\[5\]\.queries must be a list of objects, got \{'a': 1\}"),
    ({**_GOOD, "queries": ["q1"]}, r"cases\[5\]\.queries\[0\] must be an object, got 'q1'"),
    ({**_GOOD, "queries": [{"id": "q1", "atom": 1, "depends_on": 3}]},
     r"cases\[5\]\.queries\[0\]\.depends_on must be a list of strings, got 3"),
    # an id in depends_on used to be turned into text, as query ids were
    ({**_GOOD, "queries": [{"id": "q1", "atom": 1, "depends_on": [1]}]},
     r"cases\[5\]\.queries\[0\]\.depends_on must be a list of strings, got \[1\]"),
    # these failed only when the case compiled, naming no field
    ({**_GOOD, "queries": [{"id": "q1", "atom": "(<= x 3)"}]},
     r"cases\[5\]\.queries\[0\]\.atom must be a literal \(an integer\) for DIMACS premises, "
     r"got '\(<= x 3\)'"),
    ({**_GOOD, "premises": "(declare-int x 0 9)", "premises_format": "theory"},
     r"cases\[5\]\.queries\[0\]\.atom must be constraint text for theory premises, got 1"),
    ({**_GOOD, "premises_format": "cnf"},
     r"cases\[5\]\.premises_format must be one of dimacs, theory, got 'cnf'"),
], ids=["record", "premises", "queries", "query", "depends_on", "depends-on-id", "dimacs-atom",
        "theory-atom", "format"])
def test_records_of_the_wrong_type_name_their_field(tmp_path, record, message):
    # each used to end in a raw AttributeError or TypeError
    load_at(tmp_path, 5, _GOOD)
    with pytest.raises(CorpusFormatError, match=f"^{message}$"):
        load_at(tmp_path, 5, record)


@pytest.mark.parametrize("queries, message", [
    ([{"id": "q1", "atom": 1}, {"id": "q1", "atom": 2}],
     r"cases\[5\]\.queries\[1\]\.id must be unique in its case, got 'q1'"),
    # an integer id used to be turned into text, and so collide with '1'
    ([{"id": "q1", "atom": 1}, {"id": 1, "atom": 2}, {"id": "1", "atom": -2}],
     r"cases\[5\]\.queries\[1\]\.id must be a string, got 1"),
    ([{"id": "q1", "atom": True}],
     r"cases\[5\]\.queries\[0\]\.atom must be an integer or a string, got True"),
], ids=["same-id", "same-id-as-text", "bool-atom"])
def test_queries_a_report_could_not_tell_apart_are_refused(tmp_path, queries, message):
    # each used to load: one id for two queries, or True as the literal 1
    with pytest.raises(CorpusFormatError, match=f"^{message}$"):
        load_at(tmp_path, 5, {**_GOOD, "queries": queries})


def test_record_classes_take_their_fields_first():
    # the checker passes a record's fields positionally, in annotation order,
    # then the keys it keeps
    import inspect
    import typing

    from casecheck.answerers import PolicyConfig, TraceRecord

    for cls in (Query, CaseFile, PolicyConfig, TraceRecord):
        fields = list(typing.get_type_hints(cls)) + (["extra"] if cls.UNKNOWN_KEYS == "kept" else [])
        assert list(inspect.signature(cls).parameters)[:len(fields)] == fields


def test_compile_errors_name_their_case(tmp_path):
    good = {"id": "t-0001", "domain": "temporal", "premises": "(declare-int x 0 9)",
            "premises_format": "theory", "queries": [{"id": "q1", "atom": "(<= x 3)"}]}
    bad = dict(good, id="t-0002", queries=[{"id": "q1", "atom": "(<= y 3)"}])
    with pytest.raises(CorpusFormatError,
                       match=r"^cases\[4\] \(case t-0002\): undeclared variable 'y'$"):
        load_at(tmp_path, 4, bad)
    with pytest.raises(CorpusFormatError, match=r"^cases\[1\] \(case t-0002\): "):
        load_records(tmp_path, good, bad)
    dimacs = {"id": "r-0007", "domain": "relational", "premises": "p cnf 1 1\n2 0\n",
              "queries": []}
    with pytest.raises(CorpusFormatError,
                       match=r"^cases\[2\] \(case r-0007\): line 2: literal 2 out of"):
        load_at(tmp_path, 2, dimacs)


@pytest.mark.parametrize("assertion", [
    "(assert " + "(and " * 2000 + "(<= x 3)" + ")" * 2000 + ")",
    "(assert (<= " + "(+ " * 2000 + "x" + ")" * 2000 + " 3))",
], ids=["and", "plus"])
def test_deep_nesting_fails_with_its_case_named(tmp_path, assertion):
    # used to raise RecursionError out of the s-expression reader
    record = {"id": "t-0001", "domain": "temporal", "premises_format": "theory",
              "premises": "(declare-int x 0 9)\n" + assertion,
              "queries": [{"id": "q1", "atom": "(<= x 3)"}]}
    with pytest.raises(CorpusFormatError, match=r"^cases\[0\] \(case t-0001\): "
                                                r"expression nested deeper than 64 levels$"):
        load_records(tmp_path, record)


def test_oversized_dimacs_header_fails_at_load_with_its_case_named(tmp_path):
    # used to load, leaving the first solver session to size its arrays from
    # the header and die with MemoryError; only the loader runs here, since a
    # session over this header would allocate gigabytes
    good = {"id": "r-0001", "domain": "relational", "premises": "p cnf 2 1\n1 2 0\n",
            "queries": [{"id": "q1", "atom": 1}]}
    bad = dict(good, id="r-0002", premises="p cnf 300000000 1\n1 2 0\n")
    with pytest.raises(CorpusFormatError, match=r"^cases\[1\] \(case r-0002\): line 1: "
                                                r"header declares 300000000 variables, "
                                                r"more than 200000$"):
        load_records(tmp_path, good, bad)
    # the case formula's clause budget: a header may declare no more, so a
    # body with that many clauses is refused before it is read
    with pytest.raises(CorpusFormatError, match=r"^cases\[0\] \(case r-0001\): line 1: "
                                                r"header declares 200001 clauses, "
                                                r"more than 200000$"):
        load_records(tmp_path, dict(good, premises="p cnf 2 200001\n1 2 0\n"))


def test_scheduling_fixture_loads_with_capacity_query():
    [case] = load_corpus(FIXTURES / "scheduling.jsonl")
    assert case.bundle_size == 5
    texts = [q.text for q in case.queries]
    assert any("Room-1 capacity" in t for t in texts)
    from casecheck.lia import parse_theory
    assert [n for n, _ in parse_theory(case.premises).assertions] == [
        "dur_A", "dur_B", "order_ab", "horizon_a", "horizon_b"]
    session, _ = case.new_session()
    for q in case.queries:
        assert literal_gold_label(session, q.atom) is q.gold_label


def test_split_390_cases():
    cases = [CaseFile(id=f"c{i}", domain=Domain.RELATIONAL, premises="", premises_format="dimacs",
                      queries=[]) for i in range(390)]
    split_cases(cases, (0.8, 0.1, 0.1), seed=1)
    counts = {s: sum(1 for c in cases if c.split == s) for s in ("train", "dev", "test")}
    assert counts == {"train": 312, "dev": 39, "test": 39}


def test_split_10_cases_and_seed_changes_membership_not_sizes():
    def run(seed):
        cases = [CaseFile(id=f"c{i}", domain=Domain.RELATIONAL, premises="",
                          premises_format="dimacs", queries=[]) for i in range(10)]
        split_cases(cases, (0.8, 0.1, 0.1), seed=seed)
        return {c.id: c.split for c in cases}

    a, b = run(1), run(2)
    sizes = lambda m: {s: sum(1 for v in m.values() if v == s) for s in ("train", "dev", "test")}
    assert sizes(a) == {"train": 8, "dev": 1, "test": 1}
    assert sizes(a) == sizes(b)
    assert a != b  # membership moved


def test_split_rejects_bad_ratios():
    with pytest.raises(ValueError):
        split_cases([], (0.5, 0.2), seed=0)


# ---------------------------------------------------------------- forked map


def test_an_unfit_record_raised_in_a_forked_shard_reaches_the_parent_whole(tmp_path):
    # the second file is read in the child of shard 1; its second line names
    # no domain, so the record checker raises Unfit with that line and index
    record = {"id": "t-1", "domain": "relational", "premises": "p cnf 1 1\n1 0\n", "queries": []}
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text(json.dumps(record) + "\n")
    bad.write_text(json.dumps(record) + "\n" + json.dumps({**record, "domain": "nowhere"}) + "\n")
    with pytest.raises(schema.Unfit) as here:
        schema.read_lines(CaseFile, bad)
    with pytest.raises(schema.Unfit) as there:
        forked_map(lambda path: schema.read_lines(CaseFile, path), [good, bad], workers=2)
    whole = [(str(e), e.path, e.problem, e.line, e.index) for e in (here.value, there.value)]
    assert whole[1] == whole[0]
    assert (there.value.path, there.value.line, there.value.index) == ("domain", 2, 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_what_a_shard_cannot_pickle_is_named():
    class LocalError(Exception):  # a class pickle cannot find by name
        pass

    def unsendable_results(item):
        return threading.Lock() if item else item

    def unsendable_error(item):
        if item:
            raise LocalError(f"no item {item}")
        return item

    # item 1 is mapped in the child of shard 1
    with pytest.raises(RuntimeError, match=r"^shard 1 could not send its results: "
                                           r"TypeError: cannot pickle '_thread.lock' object$"):
        forked_map(unsendable_results, [0, 1], workers=2)
    with pytest.raises(RuntimeError, match="^shard 1 raised LocalError: no item 1, "
                                           "which cannot be pickled$"):
        forked_map(unsendable_error, [0, 1], workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_shard_count_is_clamped_to_the_items(monkeypatch):
    # three items on four workers make three shards: two forks, not one process
    fork, forks = os.fork, []

    def counting_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    results = forked_map(lambda item: (item, os.getpid()), [0, 1, 2], workers=4)
    assert [item for item, _ in results] == [0, 1, 2]
    assert len(forks) == 2
    assert results[0][1] == os.getpid() and len({pid for _, pid in results}) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
