import itertools
import random

import pytest

from casecheck.logic import Formula, LogicError, count_models, evaluate
from casecheck.solver import DEFAULT_MAX_CONFLICTS, SolveStatus, SolverSession


def model_of(res) -> dict[int, bool] | None:
    """The total model of a SAT result as ``{var: bool}``, the form
    ``logic.evaluate`` reads; None for UNSAT and TIMEOUT."""
    if res.true_literals is None:
        return None
    return {abs(lit): lit > 0 for lit in res.true_literals}


def stats_of(session) -> dict[str, int]:
    """A copy of the session's counters: they keep counting after it is taken."""
    return dict(vars(session.stats))


def three_sat(rng, num_vars, ratio):
    """Random 3-SAT: ``int(num_vars * ratio)`` clauses of three distinct variables."""
    f = Formula(num_vars=num_vars)
    for _ in range(int(num_vars * ratio)):
        f.add_clause([v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)])
    return f


def random_formula(rng, max_vars=16, ratio_range=(1.0, 6.0)):
    nv = rng.randint(2, max_vars)
    f = Formula(num_vars=nv)
    n_clauses = max(1, int(nv * rng.uniform(*ratio_range)))
    for _ in range(n_clauses):
        width = rng.randint(1, min(4, nv))
        lits = rng.sample(range(1, nv + 1), width)
        f.add_clause([l if rng.random() < 0.5 else -l for l in lits])
    return f


def test_unit_conflict_with_assumption():
    f = Formula(num_vars=1)
    f.add_clause([1])
    s = SolverSession(f)
    res = s.solve(assumptions=[-1])
    assert res.status is SolveStatus.UNSAT
    assert res.failed_assumptions <= {-1}


def test_empty_formula_vacuous_sat():
    s = SolverSession(Formula(num_vars=0))
    res = s.solve()
    assert res.status is SolveStatus.SAT
    assert res.true_literals == frozenset()


def test_models_are_total_and_satisfying():
    rng = random.Random(3)
    for _ in range(200):
        f = random_formula(rng, max_vars=12)
        res = SolverSession(f).solve()
        if res.status is SolveStatus.SAT:
            model = model_of(res)
            assert set(model) == set(range(1, f.num_vars + 1)) and evaluate(f, model)


def test_agrees_with_enumeration_small():
    rng = random.Random(11)
    for _ in range(400):
        f = random_formula(rng, max_vars=8)
        res = SolverSession(f).solve()
        expected = count_models(f) > 0
        assert res.status is (SolveStatus.SAT if expected else SolveStatus.UNSAT)


def test_all_three_var_cnfs_subset():
    # clauses over vars 1..3 including the empty clause
    pool = []
    for polarity in itertools.product([1, 0, -1], repeat=3):
        clause = tuple(sign * v for v, sign in zip((1, 2, 3), polarity) if sign)
        pool.append(clause)
    rng = random.Random(5)
    for _ in range(500):
        k = rng.randint(0, 4)
        clauses = rng.sample(pool, k)
        f = Formula(num_vars=3)
        for c in clauses:
            f.clauses.append(c)
        res = SolverSession(f).solve()
        expected = count_models(f) > 0
        assert res.status is (SolveStatus.SAT if expected else SolveStatus.UNSAT)


def test_assumption_monotonicity():
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        f = random_formula(rng, max_vars=8, ratio_range=(2.0, 5.0))
        s = SolverSession(f)
        base = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, f.num_vars + 1), 2)]
        res = s.solve(assumptions=base)
        if res.status is not SolveStatus.UNSAT:
            continue
        extra_var = rng.choice([v for v in range(1, f.num_vars + 1) if v not in map(abs, base)] or [1])
        superset = base + [extra_var]
        assert s.solve(assumptions=superset).status is SolveStatus.UNSAT
        checked += 1


def test_failed_assumptions_are_sound():
    rng = random.Random(17)
    checked = 0
    while checked < 60:
        f = random_formula(rng, max_vars=8, ratio_range=(2.5, 5.0))
        s = SolverSession(f)
        assume = [v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, f.num_vars + 1), min(4, f.num_vars))]
        res = s.solve(assumptions=assume)
        if res.status is not SolveStatus.UNSAT:
            continue
        assert res.failed_assumptions <= set(assume)
        # conjoining the failed subset as units must be UNSAT
        g = f.copy()
        for a in res.failed_assumptions:
            g.add_clause([a])
        assert count_models(g) == 0
        checked += 1


def test_incremental_clause_addition():
    f = Formula(num_vars=3)
    f.add_clause([1, 2])
    s = SolverSession(f)
    assert s.solve().status is SolveStatus.SAT
    s.add_clause([-1])
    s.add_clause([-2])
    assert s.solve().status is SolveStatus.UNSAT
    assert s.solve(assumptions=[3]).status is SolveStatus.UNSAT


def test_selector_guarded_groups_retract():
    # commitments as selector-guarded clauses: dropping the selector retracts
    f = Formula(num_vars=2)
    f.add_clause([1, 2])
    s = SolverSession(f)
    s1 = s.add_variable()
    s2 = s.add_variable()
    s.add_clause([-s1, -1])
    s.add_clause([-s2, -2])
    assert s.solve(assumptions=[s1]).status is SolveStatus.SAT
    res = s.solve(assumptions=[s1, s2])
    assert res.status is SolveStatus.UNSAT
    assert res.failed_assumptions <= {s1, s2}
    assert s.solve(assumptions=[s2]).status is SolveStatus.SAT


def test_conflict_budget_timeout_deterministic():
    rng = random.Random(23)
    # a moderately hard unsat instance: pigeonhole-ish random
    f = random_formula(rng, max_vars=14, ratio_range=(5.0, 6.0))
    s = SolverSession(f, max_conflicts=1)
    res = s.solve()
    # with a 1-conflict budget, either it is easy (solved before any conflict)
    # or it times out; run twice for identical outcomes
    s2 = SolverSession(f, max_conflicts=1)
    assert s2.solve().status is res.status
    # random 3-SAT at the threshold ratio, far past a 2,000-conflict budget:
    # both sessions stop at the same conflict with the same counters
    hard = three_sat(random.Random(0), 200, 4.26)
    runs = []
    for _ in range(2):
        s = SolverSession(hard, max_conflicts=2_000)
        runs.append((s.solve().status, stats_of(s)))
    assert runs[0] == runs[1] and runs[0][0] is SolveStatus.TIMEOUT
    assert runs[0][1]["conflicts"] == 2_000


def pigeonhole(pigeons: int, holes: int) -> Formula:
    """Every pigeon in some hole, no hole shared: UNSAT when pigeons > holes."""
    var = lambda p, h: p * holes + h + 1
    f = Formula(num_vars=pigeons * holes)
    for p in range(pigeons):
        f.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p, q in itertools.combinations(range(pigeons), 2):
            f.add_clause([-var(p, h), -var(q, h)])
    return f


def test_luby_restarts():
    terms = [SolverSession._luby(i) for i in range(1, 16)]
    assert terms == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    s = SolverSession(pigeonhole(6, 5))
    assert s.solve().status is SolveStatus.UNSAT
    assert s.stats.restarts > 0


def test_determinism_statistics():
    rng = random.Random(29)
    f = random_formula(rng, max_vars=14, ratio_range=(3.5, 4.5))
    runs = []
    for _ in range(2):
        s = SolverSession(f)
        res = s.solve()
        runs.append((res.status, res.true_literals, stats_of(s)))
    assert runs[0] == runs[1]


def test_reused_models_agree_with_enumeration(monkeypatch):
    # incremental sessions in the commitment idiom: selectors guarding
    # clauses, clauses added between solves (root units and clauses over
    # fresh variables included), fresh variables assumed in either polarity
    # and in both at once; every answer is checked against enumeration
    rng = random.Random(37)
    hits = 0
    reuse_model = SolverSession._reuse_model

    def counting(self, assumptions):
        nonlocal hits
        hit = reuse_model(self, assumptions)
        hits += hit
        return hit

    monkeypatch.setattr(SolverSession, "_reuse_model", counting)
    solves = 0
    for _ in range(150):
        f = random_formula(rng, max_vars=7, ratio_range=(0.5, 2.5))
        s = SolverSession(f)
        clauses = list(f.clauses)
        fresh: list[int] = []
        for _ in range(16):
            op = rng.random()
            if op < 0.25:
                sel = s.add_variable()
                fresh.append(sel)
                for _ in range(rng.randint(1, 2)):
                    lit = rng.randint(1, s.num_vars - 1)
                    clause = (-sel, lit if rng.random() < 0.5 else -lit)
                    s.add_clause(clause)
                    clauses.append(clause)
            elif op < 0.45:
                width = rng.choice((1, 1, 2, 3))
                lits = rng.sample(range(1, s.num_vars + 1), min(width, s.num_vars))
                clause = tuple(l if rng.random() < 0.5 else -l for l in lits)
                s.add_clause(clause)
                clauses.append(clause)
            else:
                pool = fresh + rng.sample(range(1, s.num_vars + 1), 2)
                assumptions = [v if rng.random() < 0.7 else -v
                               for v in rng.sample(pool, rng.randint(0, min(4, len(pool))))]
                if fresh and rng.random() < 0.1:
                    sel = rng.choice(fresh)
                    assumptions += [sel, -sel]
                res = s.solve(assumptions)
                solves += 1
                g = Formula(s.num_vars, clauses + [(a,) for a in assumptions])
                expected = SolveStatus.SAT if count_models(g) else SolveStatus.UNSAT
                assert res.status is expected
                if res.status is SolveStatus.SAT:
                    model = model_of(res)
                    assert set(model) == set(range(1, s.num_vars + 1)) and evaluate(g, model)
                else:
                    assert res.failed_assumptions <= set(assumptions)
                    core = Formula(s.num_vars, clauses + [(a,) for a in res.failed_assumptions])
                    assert count_models(core) == 0
    assert hits > 150, (hits, solves)  # the shortcut is exercised


def test_reused_model_costs_no_search():
    f = Formula(num_vars=3)
    f.add_clause([1, 2])
    f.add_clause([-1, 3])
    s = SolverSession(f)
    first = s.solve()
    assert first.status is SolveStatus.SAT
    sel = s.add_variable()
    lit = 1 if 1 in first.true_literals else -1  # agrees with the model just found
    s.add_clause([-sel, lit])
    before = stats_of(s)
    res = s.solve([sel])
    after = stats_of(s)
    assert res.status is SolveStatus.SAT
    assert res.true_literals == first.true_literals | {sel}
    assert after == {**before, "solver_calls": before["solver_calls"] + 1}
    # a clause the model violates, then an assumption it violates: both search
    s.add_clause([-lit])
    res = s.solve([sel])
    assert res.status is SolveStatus.UNSAT and res.failed_assumptions == {sel}
    assert s.solve([-sel]).status is SolveStatus.SAT
    searched = s.stats.decisions + s.stats.propagations
    assert s.solve([-lit]).status is SolveStatus.SAT
    assert s.stats.decisions + s.stats.propagations == searched
    assert s.solve([lit]).status is SolveStatus.UNSAT


def test_cached_cores_agree_with_enumeration(monkeypatch):
    # UNSAT-heavy incremental sessions: selector groups, clauses added between
    # solves (root units included), conflict budgets that run out, and
    # supersets of earlier assumption sets; every answer, searched or taken
    # from the last failed-assumption set, is checked against enumeration, and
    # once the clauses alone are refuted every later answer is the empty set
    rng = random.Random(41)
    searched_cores = 0
    analyze_final = SolverSession._analyze_final

    def counting(self, failed_p):
        nonlocal searched_cores
        searched_cores += 1
        return analyze_final(self, failed_p)

    monkeypatch.setattr(SolverSession, "_analyze_final", counting)
    hits = 0
    for _ in range(150):
        f = random_formula(rng, max_vars=6, ratio_range=(0.5, 2.0))
        s = SolverSession(f, max_conflicts=rng.choice((1, 2, DEFAULT_MAX_CONFLICTS)))
        clauses = list(f.clauses)
        selectors: list[int] = []
        asked: list[list[int]] = [[]]
        refuted = False
        for _ in range(20):
            op = rng.random()
            if op < 0.2:
                sel = s.add_variable()
                selectors.append(sel)
                for _ in range(rng.randint(1, 2)):
                    lits = rng.sample(range(1, f.num_vars + 1), rng.randint(1, min(2, f.num_vars)))
                    clause = (-sel, *(l if rng.random() < 0.5 else -l for l in lits))
                    s.add_clause(clause)
                    clauses.append(clause)
            elif op < 0.3:
                lit = rng.randint(1, s.num_vars)
                clause = (lit if rng.random() < 0.5 else -lit,)
                s.add_clause(clause)
                clauses.append(clause)
            else:
                pool = selectors + rng.sample(range(1, f.num_vars + 1), min(2, f.num_vars))
                extra = [v if rng.random() < 0.8 else -v
                         for v in rng.sample(pool, rng.randint(0, min(3, len(pool))))]
                assumptions = (rng.choice(asked) if rng.random() < 0.5 else []) + extra
                rng.shuffle(assumptions)
                asked.append(assumptions)
                before = searched_cores
                res = s.solve(assumptions)
                if refuted:
                    assert res.status is SolveStatus.UNSAT and not res.failed_assumptions
                if res.status is SolveStatus.TIMEOUT:
                    assert res.true_literals is None
                    continue
                g = Formula(s.num_vars, clauses + [(a,) for a in assumptions])
                expected = SolveStatus.SAT if count_models(g) else SolveStatus.UNSAT
                assert res.status is expected
                if res.status is SolveStatus.SAT:
                    assert evaluate(g, model_of(res))
                    continue
                assert res.true_literals is None
                assert res.failed_assumptions <= set(assumptions)
                core = Formula(s.num_vars, clauses + [(a,) for a in res.failed_assumptions])
                assert count_models(core) == 0
                refuted = not res.failed_assumptions
                hits += bool(res.failed_assumptions) and searched_cores == before
    assert hits > 150, hits  # the cache is exercised


def test_models_are_built_when_read():
    # results kept across later solves and read only at the end still give
    # the true literals of their own call; a second read returns the same object
    rng = random.Random(43)
    kept = []
    for _ in range(60):
        f = random_formula(rng, max_vars=7, ratio_range=(0.5, 3.0))
        s = SolverSession(f)
        clauses = list(f.clauses)
        for _ in range(6):
            sel = s.add_variable()
            lit = rng.randint(1, f.num_vars)
            clause = (-sel, lit if rng.random() < 0.5 else -lit)
            s.add_clause(clause)
            clauses.append(clause)
            assumptions = [v for v in range(f.num_vars + 1, s.num_vars + 1) if rng.random() < 0.6]
            res = s.solve(assumptions)
            g = Formula(s.num_vars, clauses + [(a,) for a in assumptions])
            assert res.status is (SolveStatus.SAT if count_models(g) else SolveStatus.UNSAT)
            kept.append((res, g))
    assert sum(res.status is SolveStatus.SAT for res, _ in kept) > 150
    for res, g in kept:
        if res.status is SolveStatus.SAT:
            true = res.true_literals
            assert true is res.true_literals
            model = model_of(res)
            assert set(model) == set(range(1, g.num_vars + 1)) and evaluate(g, model)
        else:
            assert res.true_literals is None
    timed_out = SolverSession(pigeonhole(5, 4), max_conflicts=1).solve()
    assert timed_out.status is SolveStatus.TIMEOUT and timed_out.true_literals is None


def test_rejects_unknown_assumption_variable():
    s = SolverSession(Formula(num_vars=1))
    with pytest.raises(Exception):
        s.solve(assumptions=[5])


@pytest.mark.parametrize("bad", [0, 3, -3])
def test_bad_assumption_raises_where_a_cache_would_answer(bad):
    # the last model answers [2]; the failed set {1} answers any superset of [1]
    s = SolverSession(Formula(num_vars=2, clauses=[(-1,)]))
    assert s.solve([2]).status is SolveStatus.SAT
    with pytest.raises(LogicError, match="unknown variable"):
        s.solve([2, bad])
    assert s.solve([1]).failed_assumptions == {1}
    with pytest.raises(LogicError, match="unknown variable"):
        s.solve([1, bad])


@pytest.mark.parametrize("clause", [(1, 0), (0,), (2, 3), (-3,), (1, -3)])
def test_session_rejects_literals_outside_the_variable_count(clause):
    # a hand-built formula skips Formula.add_clause's check; without the
    # session's own, 0 would load as slot 1 and 3 would index past the arrays
    with pytest.raises(LogicError):
        SolverSession(Formula(num_vars=2, clauses=[clause]))
    # also in a clause that a root-level unit already satisfies
    with pytest.raises(LogicError):
        SolverSession(Formula(num_vars=2, clauses=[(1,), (1, *clause)]))
    # and in a clause added after a model that the next solve would reuse
    s = SolverSession(Formula(num_vars=2))
    assert s.solve().status is SolveStatus.SAT
    with pytest.raises(LogicError):
        s.add_clause(clause)
    assert s.solve([-1, -2]).status is SolveStatus.SAT  # the rejected clause left nothing behind


# A compiled temporal case: order-encoded ladders plus reified query atoms.
PIN_THEORY = """\
(declare-int start_A 0 14)
(declare-int end_A 0 20)
(declare-int start_B 0 14)
(declare-int end_B 0 20)
(declare-int start_C 0 14)
(declare-int end_C 0 20)
(assert (! (= end_A (+ start_A 5)) :named dur_A))
(assert (! (= end_B (+ start_B 4)) :named dur_B))
(assert (! (= end_C (+ start_C 6)) :named dur_C))
(assert (! (<= end_A start_B) :named a_before_b))
(assert (! (<= end_C 18) :named horizon))
"""
PIN_QUERIES = ["(< start_C end_B)", "(>= start_B 5)", "(> end_B 20)",
               "(<= (+ start_A start_C) 9)", "(!= start_C start_A)"]

# sha256 of the trajectory below: any change to the search order (branching,
# learning, restarts, watch order), to when a solve is answered from the last
# model or the last failed-assumption set, or to a counter changes it
TRAJECTORY_DIGEST = "469b66f73aa7287cae9cc5d26d89a39bdb25b736582ab55f13ca8f160568d2f9"
# sha256 of the status of every call alone: it holds across changes to the
# search that keep every verdict
STATUS_DIGEST = "cf3ba7b3403e3009e263afa9b554b9d683fd36dc4350e21af0ffd2bace642b9d"


def _trajectory(tmp_path) -> list:
    """Status, model, failed assumptions and counters of every call in a fixed
    sequence of sessions that exercises each path of the search."""
    import json

    from casecheck.casefile import load_corpus

    out = []

    def call(s, assumptions=()):
        res = s.solve(assumptions)
        model = None if res.true_literals is None else sorted(res.true_literals)
        out.append([res.status.value, model, sorted(res.failed_assumptions), stats_of(s)])

    rng = random.Random(2024)
    for _ in range(40):  # random SAT and UNSAT formulas, with and without assumptions
        f = three_sat(rng, rng.randint(10, 40), rng.uniform(3.0, 5.5))
        s = SolverSession(f)
        call(s)
        for _ in range(3):
            k = rng.randint(1, min(5, f.num_vars))
            call(s, [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, f.num_vars + 1), k)])

    # root units at build time: propagated, then conflicting
    for clauses in ([(1,), (-2,), (1, 2, 3), (-1, 4), (-4, -3, 5), (2, -5, 6)],
                    [(1,), (-1, 2), (-2, 3), (-3,)]):
        f = Formula(num_vars=6)
        for c in clauses:
            f.add_clause(c)
        s = SolverSession(f)
        call(s)
        call(s, [-6, 5])

    # selector-guarded groups grown between solves
    f = three_sat(random.Random(7), 20, 2.5)
    s = SolverSession(f)
    sel_rng = random.Random(8)
    selectors = []
    for _ in range(8):
        sel = s.add_variable()
        selectors.append(sel)
        for _ in range(2):
            lits = sel_rng.sample(range(1, f.num_vars + 1), 2)
            s.add_clause([-sel] + [l if sel_rng.random() < 0.5 else -l for l in lits])
        call(s, selectors)
        call(s, selectors[::2])
    s.add_clause([-selectors[0]])
    call(s, selectors)

    # a one-conflict budget times out, then the same session finishes
    s = SolverSession(pigeonhole(5, 4), max_conflicts=1)
    call(s)
    s.max_conflicts = DEFAULT_MAX_CONFLICTS
    call(s)
    # enough conflicts to restart
    s = SolverSession(pigeonhole(6, 5))
    call(s)

    corpus = tmp_path / "pin.jsonl"
    corpus.write_text(json.dumps({
        "id": "pin-0001", "domain": "temporal", "premises": PIN_THEORY, "premises_format": "theory",
        "queries": [{"id": f"q{i}", "atom": text} for i, text in enumerate(PIN_QUERIES, 1)]}))
    [case] = load_corpus(corpus)
    s = SolverSession(case.formula)
    call(s)
    atoms = [q.atom for q in case.queries]
    for atom in atoms:
        call(s, [-atom])
        call(s, [atom])
    call(s, atoms)
    call(s, [atoms[0], -atoms[1], atoms[4]])
    return out


def test_search_trajectory_is_pinned(tmp_path):
    import hashlib
    import json

    blob = json.dumps(_trajectory(tmp_path), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == TRAJECTORY_DIGEST


def test_search_statuses_are_pinned(tmp_path):
    import hashlib
    import json

    blob = json.dumps([call[0] for call in _trajectory(tmp_path)]).encode()
    assert hashlib.sha256(blob).hexdigest() == STATUS_DIGEST
