import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from casecheck import casefile, generator, schema
from casecheck.casefile import (Domain, Label, case_to_record, literal_gold_label, load_corpus,
                                save_corpus)
from casecheck.cli import _apportion
from casecheck.generator import (
    GeneratorSpec,
    corpus_composition,
    generate_casefile,
    generate_corpus,
)
from casecheck.lia import enumerate_int_solutions, eval_constraint, parse_constraint, parse_theory


def test_seeded_generation_is_reproducible():
    a = generate_casefile(Domain.RELATIONAL, 7)
    b = generate_casefile(Domain.RELATIONAL, 7)
    assert case_to_record(a) == case_to_record(b)
    c = generate_casefile(Domain.RELATIONAL, 8)
    assert case_to_record(a) != case_to_record(c)


def test_bundle_shape_and_labels():
    for domain in Domain:
        for seed in range(5):
            case = generate_casefile(domain, seed)
            assert 5 <= case.bundle_size <= 8
            labels = {q.gold_label for q in case.queries}
            assert labels == set(Label)
            assert any(q.depends_on for q in case.queries)


def test_generated_gold_labels_match_solver():
    for domain in Domain:
        case = generate_casefile(domain, 99)
        session, _ = case.new_session()
        for q in case.queries:
            assert literal_gold_label(session, q.atom) is q.gold_label


def test_self_check_rejects_a_mislabel_under_optimize():
    # python -O strips assert statements; the self-check must still fail and
    # name the case, the query and both labels
    import casecheck

    src = str(Path(casecheck.__file__).resolve().parent.parent)
    code = ("from casecheck.casefile import Label\n"
            "from casecheck.generator import Domain, _self_check, generate_casefile\n"
            "case = generate_casefile(Domain.RELATIONAL, 7, case_id='rel-7')\n"
            "q = next(q for q in case.queries if q.gold_label is Label.ENTAILED)\n"
            "q.gold_label = Label.UNKNOWN\n"
            "print(q.id)\n"
            "_self_check(case, *case.new_session())\n")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True)
    assert out.returncode != 0
    qid = out.stdout.strip()
    assert f"case rel-7 query {qid}: gold label unknown re-derives as entailed" in out.stderr


def test_temporal_golds_match_integer_enumeration():
    # two-meeting cases only: a three-meeting one enumerates ~456k assignments
    negated = 0
    for seed in (1, 3, 5, 7, 9):
        case = generate_casefile(Domain.TEMPORAL, seed)
        theory = parse_theory(case.premises)
        solutions = enumerate_int_solutions(theory)
        assert solutions, "premises must be satisfiable"
        var_map = theory.var_map
        for q in case.queries:
            constraint = parse_constraint(q.atom_text, var_map)
            truth = [eval_constraint(constraint, s) for s in solutions]
            if all(truth):
                expected = Label.ENTAILED
            elif not any(truth):
                expected = Label.CONTRADICTED
            else:
                expected = Label.UNKNOWN
            assert q.gold_label is expected, (seed, q.id)
            negated += q.text.startswith("[negated] ")
    # complement labels are derived from their atom's, not solved
    assert negated > 0


def test_no_query_is_negated_twice(default_corpus):
    # a dependency pair built on a pooled complement used to ask the
    # complement of the complement as "[negated] [negated] <text>"
    texts = [q.text for c in default_corpus for q in c.queries]
    assert not [t for t in texts if "[negated] [negated]" in t]
    assert any(t.startswith("[negated] ") for t in texts)


def test_relational_label_distribution_over_50_cases():
    counts = Counter()
    for seed in range(50):
        case = generate_casefile(Domain.RELATIONAL, 1000 + seed)
        for q in case.queries:
            counts[q.gold_label] += 1
    total = sum(counts.values())
    for label in Label:
        assert counts[label] / total >= 0.10


def test_small_corpus_mix_and_composition():
    spec = GeneratorSpec(domain_mix={Domain.RELATIONAL: 4, Domain.TEMPORAL: 3,
                                     Domain.POLICY: 2, Domain.ABDUCTIVE: 2})
    cases = generate_corpus(spec, seed=17)
    assert len(cases) == 11
    rows = corpus_composition(cases)
    assert rows[-1]["domain"] == "total"
    assert rows[-1]["cases"] == 11
    by_domain = {r["domain"]: r["cases"] for r in rows}
    assert by_domain["relational"] == 4 and by_domain["temporal"] == 3


def test_default_corpus_shape(default_corpus):
    cases = default_corpus
    by_domain = Counter(c.domain for c in cases)
    assert by_domain == {Domain.RELATIONAL: 120, Domain.TEMPORAL: 100,
                         Domain.POLICY: 80, Domain.ABDUCTIVE: 90}
    total_queries = sum(c.bundle_size for c in cases)
    assert abs(total_queries - 2450) <= 245  # reported total, 10% tolerance


def test_default_corpus_unknown_prevalence(default_corpus):
    queries = [q for c in default_corpus for q in c.queries]
    unknown = sum(1 for q in queries if q.gold_label is Label.UNKNOWN)
    assert 0.17 <= unknown / len(queries) <= 0.19


# sha256 of the default corpus file at seed 0, the corpus behind the README's
# anchor scores: any change to generation, grounding or the solver that moves
# a premise, query or gold label changes it
DEFAULT_CORPUS_DIGEST = "3472aadbe8b61d656c61895732e3f1abce072a30d5537a352a5174c03d4b3602"


def test_default_corpus_is_pinned(default_corpus, tmp_path):
    import hashlib

    path = tmp_path / "corpus.jsonl"
    save_corpus(default_corpus, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_CORPUS_DIGEST


# sha256 of a 40-case corpus with 14-16 queries per bundle at seed 0: long
# bundles run the label classes short, so the spill into Unknown is pinned too
LONG_CORPUS_DIGEST = "b43f58390b828e7c156fecd406a3ea3222b607c2fb01538f93e7b10d84e45fa8"


def test_long_bundle_corpus_is_pinned(tmp_path):
    import hashlib

    spec = GeneratorSpec(bundle_min=14, bundle_max=16, domain_mix={d: 10 for d in Domain})
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate_corpus(spec, seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LONG_CORPUS_DIGEST


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("spec", [
    GeneratorSpec(domain_mix=_apportion(40)),
    GeneratorSpec(bundle_min=14, bundle_max=16, domain_mix={d: 4 for d in Domain}),
], ids=["default-40", "long-16"])
def test_generated_cases_compile_as_the_loader_compiles_them(tmp_path, spec, seed):
    # generation builds its cases on premises compiled once per attempt and
    # without the JSON checker; the saved record must read back to the same
    # record, formula and atoms
    cases = generate_corpus(spec, seed=seed)
    save_corpus(cases, tmp_path / "corpus.jsonl")
    for case, loaded in zip(cases, load_corpus(tmp_path / "corpus.jsonl"), strict=True):
        assert case_to_record(loaded) == case_to_record(case), case.id
        assert loaded.formula.num_vars == case.formula.num_vars, case.id
        assert loaded.formula.clauses == case.formula.clauses, case.id
        assert [q.atom for q in loaded.queries] == [q.atom for q in case.queries], case.id


def test_each_generation_attempt_compiles_its_premises_once(monkeypatch):
    calls = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every name the generator and the loader look a compile step up by
    for module in (generator, casefile):
        for name in ("parse_dimacs", "parse_theory", "ground"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for name in ("_generate_cnf_case", "_generate_temporal_case"):
        monkeypatch.setattr(generator, name, counting(name, getattr(generator, name)))
    # the checker of JSON input; generated cases were never JSON
    monkeypatch.setattr(schema, "build", counting("build", schema.build))
    # seed 3 retries five of the 30 CNF draws; one shard, the default, so
    # every call is counted in this process
    cases = generate_corpus(GeneratorSpec(domain_mix=_apportion(40)), seed=3)
    assert calls["_generate_cnf_case"] + calls["_generate_temporal_case"] == len(cases) + 5
    # a CNF draft is built as a formula, never written out and parsed back
    assert calls["parse_dimacs"] == 0
    assert calls["build"] == 0
    assert calls["parse_theory"] == calls["ground"] == calls["_generate_temporal_case"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("spec", [
    GeneratorSpec(domain_mix=_apportion(40)),
    GeneratorSpec(bundle_min=14, bundle_max=16, domain_mix={d: 10 for d in Domain}),
], ids=["default-40", "long-40"])
def test_sharded_generation_gives_the_same_cases(spec, seed):
    # three workers split the 40 cases unevenly: 14, 13 and 13
    def compiled(cases):
        return [(case_to_record(c), c.formula.num_vars, c.formula.clauses,
                 [q.atom for q in c.queries]) for c in cases]

    reference = compiled(generate_corpus(spec, seed=seed, workers=1))
    for workers in (2, 3):
        assert compiled(generate_corpus(spec, seed=seed, workers=workers)) == reference, workers
    with pytest.raises(ChildProcessError):  # every shard's child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case_id", ["rel-0000", "rel-0001"], ids=["parent", "child"])
def test_a_failing_shard_raises_its_error_and_leaves_no_child(monkeypatch, case_id):
    # with two workers, rel-0000 is built in this process and rel-0001 in the
    # forked child; the recipe is patched before the fork, so the child fails too
    recipe = generator._generate_cnf_case

    def failing(domain, seed, this_id, spec):
        if this_id == case_id:
            raise ValueError(f"recipe failed on {this_id}")
        return recipe(domain, seed, this_id, spec)

    monkeypatch.setattr(generator, "_generate_cnf_case", failing)
    with pytest.raises(ValueError) as exc:
        generate_corpus(GeneratorSpec(domain_mix=_apportion(40)), workers=2)
    assert str(exc.value) == f"recipe failed on {case_id}"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_shard_that_dies_is_named(monkeypatch):
    recipe = generator._generate_cnf_case

    def dying(domain, seed, case_id, spec):
        if case_id == "rel-0001":  # built in the child of shard 1
            os._exit(3)
        return recipe(domain, seed, case_id, spec)

    monkeypatch.setattr(generator, "_generate_cnf_case", dying)
    with pytest.raises(RuntimeError, match="^shard 1 exited without its results$"):
        generate_corpus(GeneratorSpec(domain_mix=_apportion(40)), workers=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open fds in /proc")
def test_a_fork_that_fails_leaks_no_fd_and_leaves_no_child(monkeypatch):
    # the second of two forks fails (EAGAIN): the pipe made for it is closed
    # and the child of the first is reaped
    fork, forks = os.fork, []

    def failing_fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", failing_fork)
    with pytest.raises(OSError, match="Resource temporarily unavailable"):
        generate_corpus(GeneratorSpec(domain_mix=_apportion(40)), workers=3)
    assert len(os.listdir("/proc/self/fd")) == open_fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
