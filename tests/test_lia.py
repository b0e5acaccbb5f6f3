import random

import pytest

from casecheck.lia import (
    RELATIONS,
    LinConstraint,
    TheoryError,
    Theory,
    IntVar,
    enumerate_int_solutions,
    format_constraint,
    ground,
    parse_constraint,
    parse_theory,
)
from casecheck.logic import count_models
from casecheck.solver import SolveStatus, SolverSession


def decode(gt, true_literals: frozenset[int]) -> dict[str, int]:
    """Integer values of a grounded theory's variables in a total model, given
    by the literals it makes true: the least k with ``x <= k`` true, or the
    upper bound when none is."""
    out = {}
    for v in gt.var_map.values():
        out[v.name] = next((k for k in range(v.lower, v.upper)
                            if gt.order_vars[(v.name, k)] in true_literals), v.upper)
    return out


def test_parse_two_named_constraints():
    theory = parse_theory(
        "(declare-int x 0 3)\n"
        "(assert (>= x 2))\n"
        "(assert (<= x 1))\n"
    )
    assert [v.name for v in theory.variables] == ["x"]
    assert theory.variables[0].lower == 0 and theory.variables[0].upper == 3
    assert [name for name, _ in theory.assertions] == ["a1", "a2"]


def test_parse_definitional_equality():
    theory = parse_theory(
        "(declare-int start_A 0 10)\n"
        "(declare-int end_A 0 12)\n"
        "(assert (! (= end_A (+ start_A 2)) :named dur_A))\n"
    )
    name, c = theory.assertions[0]
    assert name == "dur_A"
    assert c.relation == "="
    assert sorted(c.terms) == [(-1, "start_A"), (1, "end_A")]
    assert c.constant == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("(assert (<= x 1))", "undeclared"),
        ("(declare-int x 0 3)(assert (<= (* x x) 1))", "nonlinear"),
        ("(declare-const x Int)", "unbounded"),
        ("(declare-int x 0 200)", "width"),
        ("(declare-int x 0 3)(assert (<= 1 2))", "no variables"),
        ("(declare-int x 0 3)(assert (<= x 1)", "unbalanced"),
        ("(declare-int x 0 3))", "unexpected ')'"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(TheoryError) as exc:
        parse_theory(text)
    assert fragment in str(exc.value)


def test_ground_pigeonhole_single_var():
    theory = parse_theory("(declare-int x 0 1)(assert (= x 0))(assert (= x 1))")
    gt = ground(theory)
    res = SolverSession(gt.formula).solve()
    assert res.status is SolveStatus.UNSAT


def test_ground_model_count_matches_integers():
    theory = parse_theory("(declare-int x 0 3)(assert (>= x 2))")
    gt = ground(theory)
    assert count_models(gt.formula) == 2
    assert len(enumerate_int_solutions(theory)) == 2


def test_ground_decode_roundtrip():
    theory = parse_theory(
        "(declare-int x 0 4)(declare-int y 1 5)"
        "(assert (<= (+ x y) 6))(assert (> y x))"
    )
    gt = ground(theory)
    res = SolverSession(gt.formula).solve()
    assert res.status is SolveStatus.SAT
    values = decode(gt, res.true_literals)
    assert values["x"] + values["y"] <= 6 and values["y"] > values["x"]


def test_conflicting_named_assertions_ground_unsat():
    theory = parse_theory(
        "(declare-int x 0 5)"
        "(assert (! (>= x 4) :named big))"
        "(assert (! (<= x 1) :named small))"
        "(assert (! (>= x 0) :named harmless))"
    )
    assert SolverSession(ground(theory).formula).solve().status is SolveStatus.UNSAT


def test_disequality_encoding():
    theory = parse_theory("(declare-int x 0 3)(assert (!= x 2))")
    gt = ground(theory)
    assert count_models(gt.formula) == 3
    assert len(enumerate_int_solutions(theory)) == 3


def test_equisatisfiability_random_instances():
    rng = random.Random(424)
    agree = 0
    for _ in range(200):
        n_vars = rng.randint(1, 3)
        variables = [IntVar(f"v{i}", 0, rng.randint(1, 4)) for i in range(n_vars)]
        assertions = []
        for j in range(rng.randint(1, 4)):
            width = rng.randint(1, n_vars)
            chosen = rng.sample(variables, width)
            terms = tuple((rng.choice([-2, -1, 1, 2]), v.name) for v in chosen)
            rel = rng.choice(["<=", "<", "=", ">=", ">", "!="])
            const = rng.randint(-4, 8)
            assertions.append((f"c{j}", LinConstraint(terms, rel, const)))
        theory = Theory(variables, assertions)
        gt = ground(theory)
        grounded = SolverSession(gt.formula).solve()
        expected = len(enumerate_int_solutions(theory, cap=1)) > 0
        assert grounded.status is (SolveStatus.SAT if expected else SolveStatus.UNSAT)
        agree += 1
    assert agree == 200


def _random_constraint(rng: random.Random, variables: list[IntVar],
                       relations=RELATIONS) -> LinConstraint:
    chosen = rng.sample(variables, rng.randint(1, len(variables)))
    terms = tuple((rng.choice([-3, -2, -1, 1, 2, 3]), v.name) for v in chosen)
    return LinConstraint(terms, rng.choice(relations), rng.randint(-12, 12))


def test_grounding_counts_match_integer_solutions():
    rng = random.Random(2009)
    reified = 0
    for _ in range(300):
        variables = []
        for i in range(rng.randint(1, 3)):
            lower = rng.randint(-3, 2)
            variables.append(IntVar(f"v{i}", lower, lower + rng.randint(0, 4)))
        theory = Theory(variables, [(f"c{j}", _random_constraint(rng, variables))
                                    for j in range(rng.randint(1, 3))])
        gt = ground(theory)
        if rng.random() < 0.3:
            # a reified inequality is a function of the integers, so it adds no
            # models; "=" and "!=" would leave a disjunction selector free on
            # the side the query literal switches off
            gt.reify(_random_constraint(rng, variables, ("<=", "<", ">=", ">")), "query:q1")
            reified += 1
        assert count_models(gt.formula) == len(enumerate_int_solutions(theory)), theory
    assert reified > 50


@pytest.mark.parametrize("co", [1, 2, -1, -3])
def test_single_term_inequality_grounds_to_one_clause(co):
    theory = parse_theory("(declare-int x -3 5)")
    ladder = len(ground(theory).formula.clauses)
    assert ladder == 7
    lo, hi = sorted((co * -3, co * 5))
    for k in range(lo, hi):
        gt = ground(parse_theory(f"(declare-int x -3 5)(assert (<= (* {co} x) {k}))"))
        assert len(gt.formula.clauses) == ladder + 1
        models = {x for x in range(-3, 6) if co * x <= k}
        assert count_models(gt.formula) == len(models)


def test_scheduling_fixture_premises_parse_to_five_assertions():
    import json
    from pathlib import Path

    record = json.loads(
        (Path(__file__).parent / "fixtures" / "scheduling.jsonl").read_text())
    theory = parse_theory(record["premises"])
    assert len(theory.assertions) == 5
    assert {n for n, _ in theory.assertions} == {
        "dur_A", "dur_B", "order_ab", "horizon_a", "horizon_b"}


def test_constraint_text_roundtrip():
    var_map = {"x": IntVar("x", 0, 5), "y": IntVar("y", 0, 5)}
    c = parse_constraint("(<= (+ x (* -2 y)) 3)", var_map)
    again = parse_constraint(format_constraint(c), var_map)
    assert (again.terms, again.relation, again.constant) == (c.terms, c.relation, c.constant)


def test_reify_matches_integer_semantics():
    theory = parse_theory("(declare-int x 0 4)")
    gt = ground(theory)
    c = parse_constraint("(>= x 3)", theory.var_map)
    lit = gt.reify(c, "probe")
    session = SolverSession(gt.formula)
    # forcing the literal forces the constraint, and vice versa
    res = session.solve(assumptions=[lit])
    assert res.status is SolveStatus.SAT and decode(gt, res.true_literals)["x"] >= 3
    res = session.solve(assumptions=[-lit])
    assert res.status is SolveStatus.SAT and decode(gt, res.true_literals)["x"] < 3


def test_oversized_grounding_fails_fast_and_names_its_group(tmp_path):
    import json
    import time

    from casecheck.casefile import CorpusFormatError, load_corpus

    decl = "".join(f"(declare-int {v} 0 63)" for v in "abcd")
    wide = "(<= (+ a b c d) 126)"  # 216,384 order-encoding clauses
    start = time.perf_counter()
    with pytest.raises(TheoryError, match="^big: order encoding exceeds"):
        ground(parse_theory(decl + f"(assert (! {wide} :named big))"))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "wide-0001", "domain": "temporal", "premises": decl,
                                  "premises_format": "theory",
                                  "queries": [{"id": "q1", "atom": "(<= a 3)"},
                                              {"id": "q2", "atom": wide}]}))
    with pytest.raises(CorpusFormatError,
                       match=r"^cases\[0\] \(case wide-0001\): query:q2: order encoding exceeds"):
        load_corpus(corpus)
    assert time.perf_counter() - start < 10
    # a 3-term sum at the same width stays well under the limit: 248 ladder
    # clauses plus one clause per value pair of a and b that leaves c a bound
    assert len(ground(parse_theory(decl + "(assert (<= (+ a b c) 80))")).formula.clauses) == 4_173


def test_one_clause_budget_covers_the_whole_case(tmp_path, capsys, monkeypatch):
    import json
    import re

    from casecheck import lia
    from casecheck.cli import main
    from casecheck.logic import MAX_CLAUSES

    # each 3-term sum grounds to at most 4,093 clauses, under the budget on
    # its own; the 400 of them would ground to 1,397,281 in all
    decl = "".join(f"(declare-int v{i} 0 63)" for i in range(4))
    sums = "".join(f"(assert (<= (+ v0 v1 v2) {60 + i % 64}))" for i in range(400))
    corpus = tmp_path / "wide.jsonl"
    corpus.write_text(json.dumps({"id": "wide-0001", "domain": "temporal", "premises": decl + sums,
                                  "queries": [{"id": "q1", "atom": "(<= v0 3)"}]}) + "\n")
    grounded = []

    def counting(emit):
        def wrapper(self, name, parts):
            try:
                return emit(self, name, parts)
            finally:
                grounded.append(len(self.formula.clauses))
        return wrapper

    monkeypatch.setattr(lia.GroundedTheory, "_emit", counting(lia.GroundedTheory._emit))
    assert main(["run", "--corpus", str(corpus), "--out", str(tmp_path / "run")]) == 2
    # one line, naming the case and the unnamed assertion (a1, a2, ...) it reached
    assert re.fullmatch(r"casecheck run: error: cases\[0\] \(case wide-0001\): a\d+: "
                        r"order encoding exceeds 200000 clauses\n", capsys.readouterr().err)
    assert max(grounded) == MAX_CLAUSES
    assert not (tmp_path / "run").exists()
