import random

import pytest

from casecheck.logic import (
    EnumerationGuardError,
    Formula,
    LogicError,
    count_models,
    emit_dimacs,
    evaluate,
    normalize_clause,
    parse_dimacs,
    refutes,
    truth_table,
)


def test_normalize_dedup_and_tautology():
    assert normalize_clause([1, 2, 1]) == (1, 2)
    assert normalize_clause([1, -1, 2]) is None
    with pytest.raises(Exception):
        normalize_clause([0])


def test_parse_smallest_formula():
    f = parse_dimacs("p cnf 1 1\n1 0")
    assert f.num_vars == 1
    assert f.clauses == [(1,)]


def test_parse_two_clause_formula():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0")
    assert f.num_vars == 2
    assert f.clauses == [(1, 2), (-1, -2)]
    assert count_models(f) == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p cnf x 1\n1 0", "header"),
        ("p dnf 1 1\n1 0", "header"),
        ("1 0", "before problem header"),
        ("p cnf 1 1\n2 0", "out of declared range"),
        ("p cnf 2 1\n1 2", "terminating 0"),
        ("p cnf 2 3\n1 0\n2 0", "declares 3"),
    ],
)
def test_parse_errors_carry_line_info(text, fragment):
    with pytest.raises(LogicError) as exc:
        parse_dimacs(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize("text, message", [
    ("p cnf 1 0\np cnf 1 0", "line 2: duplicate problem header"),
    ("p dnf 1 1\n1 0", "line 1: malformed header 'p dnf 1 1'"),
    ("p cnf x 1\n1 0", "line 1: non-integer counts in header 'p cnf x 1'"),
    ("p cnf -1 0", "line 1: negative counts in header"),
    ("p cnf 200001 0", "line 1: header declares 200001 variables, more than 200000"),
    ("p cnf 1 200001", "line 1: header declares 200001 clauses, more than 200000"),
    ("1 0", "line 1: clause before problem header"),
    ("p cnf 1 1\n1 x 0", "line 2: non-integer literal in '1 x 0'"),
    ("c note\np cnf 1 1\n2 0", "line 3: literal 2 out of declared range 1..1"),
    ("p cnf 2 1\n1\n2", "line 2: clause missing terminating 0"),
    ("c note", "missing problem header"),
    ("p cnf 2 3\n1 0\n2 0", "header declares 3 clauses, found 2"),
], ids=["duplicate", "malformed", "counts", "negative", "variables", "clauses", "before",
        "literal", "range", "unterminated", "missing", "found"])
def test_dimacs_errors_name_their_line_first(text, message):
    with pytest.raises(LogicError) as exc:
        parse_dimacs(text)
    assert str(exc.value) == message


def test_roundtrip_random_3cnf():
    rng = random.Random(20)
    f = Formula(num_vars=20)
    for _ in range(60):
        lits = rng.sample(range(1, 21), 3)
        f.add_clause([l if rng.random() < 0.5 else -l for l in lits])
    text = emit_dimacs(f)
    g = parse_dimacs(text)
    assert g.num_vars == f.num_vars
    assert sorted(map(sorted, g.clauses)) == sorted(map(sorted, f.clauses))
    assert emit_dimacs(g) == text


def test_group_comments_are_ignored():
    # corpora written by earlier versions tag premise clauses with group comments
    plain = "p cnf 3 3\n1 0\n2 0\n-1 3 0\n"
    tagged = "c group facts 0 2\nc group rules 2 3\n" + plain
    for f in (parse_dimacs(tagged), parse_dimacs(plain)):
        assert (f.num_vars, f.clauses) == (3, [(1,), (2,), (-1, 3)])


def test_header_counts_tautological_clauses():
    f = parse_dimacs("p cnf 2 2\n1 -1 0\n1 2 0\n")
    assert f.num_vars == 2
    assert f.clauses == [(1, 2)]
    with pytest.raises(LogicError, match="declares 1 clauses, found 2"):
        parse_dimacs("p cnf 2 1\n1 -1 0\n1 2 0\n")


def test_count_matches_direct_evaluation():
    rng = random.Random(7)
    for _ in range(30):
        nv = rng.randint(1, 10)
        f = Formula(num_vars=nv)
        for _ in range(rng.randint(1, 3 * nv)):
            width = rng.randint(1, min(3, nv))
            lits = rng.sample(range(1, nv + 1), width)
            f.add_clause([l if rng.random() < 0.5 else -l for l in lits])
        direct = 0
        for i in range(1 << nv):
            model = {j: bool((i >> (nv - j)) & 1) for j in range(1, nv + 1)}
            if evaluate(f, model):
                direct += 1
        assert count_models(f) == direct


def test_enumeration_guard():
    f = Formula(num_vars=25)
    with pytest.raises(EnumerationGuardError):
        truth_table(f)


def random_refutation_input(rng: random.Random, horn: bool) -> tuple[Formula, list[int], Formula]:
    """Clauses over at most 12 variables, a few units, and the clauses with
    the units added. A Horn clause has at most one positive literal."""
    nv = rng.randint(1, 12)
    f = Formula(num_vars=nv)
    for _ in range(rng.randint(0, 3 * nv)):
        lits = [v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, nv + 1), rng.randint(1, min(3, nv)))]
        if horn:
            lits = [lits[0]] + [-abs(l) for l in lits[1:]]
        f.add_clause(lits)
    units = [v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, nv + 1), rng.randint(0, min(4, nv)))]
    constrained = f.copy()
    for unit in units:
        constrained.add_clause([unit])
    return f, units, constrained


def test_unit_propagation_refutation_implies_no_model():
    rng = random.Random(25)
    refuted = 0
    for _ in range(500):
        f, units, constrained = random_refutation_input(rng, horn=False)
        if refutes(f.clauses, units):
            assert truth_table(constrained) == 0, (f, units)
            refuted += 1
    assert 50 < refuted < 450
    assert refutes([], [2, 1, -2]) and not refutes([], [1, 2])
    assert refutes([(1,)], [-1]) and not refutes([(1, 2)], [-1])


def test_unit_propagation_decides_horn_clauses():
    # unit propagation is complete on Horn clauses: when it stops without a
    # conflict, every variable it left unassigned can be false
    rng = random.Random(26)
    for _ in range(500):
        f, units, constrained = random_refutation_input(rng, horn=True)
        assert refutes(f.clauses, units) == (truth_table(constrained) == 0), (f, units)
