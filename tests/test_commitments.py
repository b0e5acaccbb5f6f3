import logging
import random

from casecheck import commitments
from casecheck.casefile import CaseFile, Domain, Label, Query, compile_case, load_corpus
from casecheck.commitments import BeliefState, Commitment, extract_commitment
from casecheck.logic import Formula, count_models, evaluate, parse_dimacs
from casecheck.repair import min_revision_cost
from casecheck.solver import SolverSession, SolveStatus
from pathlib import Path

from test_solver import model_of

FIXTURES = Path(__file__).parent / "fixtures"


def q(atom, qid="q1"):
    return Query(id=qid, atom=atom)


def selector(state, index):
    """The session variable that guards commitment ``index``."""
    return state.base_vars + 1 + index


def rebuild_formula(state, exclude=frozenset()):
    """Premises plus the active commitments (but those in ``exclude``) as
    plain unit clauses: the retained conjunction, outside the session."""
    f = state.base_formula.copy()
    for i in state.active_indices:
        if i not in exclude:
            for lit in state.commitments[i].literals:
                f.add_clause([lit])
    return f


def test_extract_entailed_is_queried_atom():
    c = extract_commitment(q(3), Label.ENTAILED)
    assert c.literals == (3,)


def test_extract_contradicted_negates():
    c = extract_commitment(q(3), Label.CONTRADICTED)
    assert c.literals == (-3,)


def test_extract_unknown_asserts_nothing():
    c = extract_commitment(q(3), Label.UNKNOWN)
    assert c.literals == ()


def test_extract_with_derived_atoms_orders_queried_first():
    c = extract_commitment(q(3), Label.ENTAILED, derived_atoms=[5])
    assert c.literals == (3, 5)


def test_extract_drops_out_of_vocabulary_atoms(caplog):
    with caplog.at_level(logging.WARNING):
        c = extract_commitment(q(3), Label.ENTAILED, derived_atoms=[5, 99],
                               vocabulary_size=10)
    assert c.literals == (3, 5)
    assert "outside vocabulary" in caplog.text


def empty_state(num_vars=4) -> BeliefState:
    return BeliefState(Formula(num_vars=num_vars))


def unit_state() -> BeliefState:
    return BeliefState(parse_dimacs("p cnf 1 1\n1 0"))


def test_append_accepts_consistent():
    state = unit_state()
    idx, res = state.append_and_check(Commitment("q1", Label.ENTAILED, (1,)))
    assert res.status is SolveStatus.SAT
    assert state.active_indices == [idx]
    assert state.rebuild_check()


def test_append_flags_violation_and_leaves_state_unchanged():
    state = unit_state()
    _, res = state.append_and_check(Commitment("q1", Label.CONTRADICTED, (-1,)))
    assert res.status is SolveStatus.UNSAT
    assert state.active_indices == []
    assert state.rebuild_check()  # retained state is still just the premises


def test_scheduling_fixture_violation_at_second_commitment():
    [case] = load_corpus(FIXTURES / "scheduling.jsonl")
    state = BeliefState(case.formula)
    queries = {q.id: q for q in case.queries}
    overlap, capacity = queries["q2"], queries["q5"]
    _, first = state.append_and_check(extract_commitment(overlap, Label.ENTAILED))
    assert first.status is SolveStatus.SAT
    _, second = state.append_and_check(extract_commitment(capacity, Label.ENTAILED))
    assert second.status is SolveStatus.UNSAT


def test_core_localizes_conflicting_pair():
    state = empty_state(3)
    state.append_and_check(Commitment("q1", Label.ENTAILED, (1,)))
    state.append_and_check(Commitment("q2", Label.ENTAILED, (2,)))
    idx, res = state.append_and_check(Commitment("q3", Label.CONTRADICTED, (-1,)))
    assert res.status is SolveStatus.UNSAT
    core = state.unsat_core(idx, res.failed_assumptions, 64)
    assert core.minimal
    ids = {state.commitments[i].query_id for i in core.commitment_indices}
    assert ids == {"q1", "q3"}


def test_core_never_contains_unknown_commitments():
    state = empty_state(3)
    state.append_and_check(Commitment("q1", Label.ENTAILED, (1,)))
    state.append_and_check(Commitment("q2", Label.UNKNOWN, ()))
    idx, res = state.append_and_check(Commitment("q3", Label.CONTRADICTED, (-1,)))
    core = state.unsat_core(idx, res.failed_assumptions, 64)
    labels = {state.commitments[i].label for i in core.commitment_indices}
    assert Label.UNKNOWN not in labels


def test_minimal_cores_verified_by_single_removal():
    rng = random.Random(31)
    verified = 0
    while verified < 40:
        nv = rng.randint(3, 6)
        state = empty_state(nv)
        n = rng.randint(3, 6)
        for i in range(n):
            lit = rng.choice([1, -1]) * rng.randint(1, nv)
            idx, res = state.append_and_check(Commitment(f"q{i}", Label.ENTAILED, (lit,)))
            if res.status is SolveStatus.UNSAT:
                core = state.unsat_core(idx, res.failed_assumptions, 64)
                assert core.minimal
                sel = [selector(state, j) for j in core.commitment_indices]
                assert state.session.solve(sel).status is SolveStatus.UNSAT
                for drop in core.commitment_indices:
                    subset = [selector(state, j) for j in core.commitment_indices if j != drop]
                    assert state.session.solve(subset).status is SolveStatus.SAT
                verified += 1
                break


def test_belief_state_matches_fresh_rebuild():
    rng = random.Random(37)
    for _ in range(30):
        nv = rng.randint(3, 8)
        f = Formula(num_vars=nv)
        for _ in range(rng.randint(1, nv)):
            lits = rng.sample(range(1, nv + 1), min(2, nv))
            f.add_clause([l if rng.random() < 0.5 else -l for l in lits])
        if count_models(f) == 0:
            continue
        state = BeliefState(f)
        for i in range(rng.randint(1, 5)):
            lit = rng.choice([1, -1]) * rng.randint(1, nv)
            idx, res = state.append_and_check(Commitment(f"q{i}", Label.ENTAILED, (lit,)))
            incr_sat = res.status is SolveStatus.SAT
            if incr_sat:
                assert state.rebuild_check()
            else:
                # rejected commitment: conjunction incl. it must really be UNSAT
                g = rebuild_formula(state)
                for lit2 in state.commitments[idx].literals:
                    g.add_clause([lit2])
                assert count_models(g) == 0


def test_monotone_prefix_without_intervention():
    # once forced past a violation, every later prefix stays UNSAT
    state = empty_state(4)
    statuses = []
    plan = [(1,), (-1,), (2,), (-2,)]
    for i, lits in enumerate(plan):
        c = Commitment(f"q{i}", Label.ENTAILED, lits)
        idx, res = state.append_and_check(c)
        if res.status is SolveStatus.UNSAT:
            state.activate(idx, sat=False)
            statuses.append(False)
        else:
            statuses.append(state.sat)
    first_bad = statuses.index(False)
    assert all(not s for s in statuses[first_bad:])


def test_retract_restores_satisfiability():
    state = empty_state(3)
    state.append_and_check(Commitment("q1", Label.ENTAILED, (1,)))
    c2 = Commitment("q2", Label.ENTAILED, (-1,))
    idx, res = state.append_and_check(c2)
    assert res.status is SolveStatus.UNSAT
    state.activate(idx, sat=False)
    assert not state.sat
    assert state.session.solve(state.assumptions()).status is SolveStatus.UNSAT
    # retraction is an assumption flip: solve without q1's selector
    assert state.session.solve(state.assumptions(exclude=(0,))).status is SolveStatus.SAT


def test_timeout_degrades_to_unknown():
    # a conflict budget of 1 on a contradiction-heavy check forces TIMEOUT
    f = Formula(num_vars=14)
    rng = random.Random(41)
    for _ in range(70):
        lits = rng.sample(range(1, 15), 3)
        f.add_clause([l if rng.random() < 0.5 else -l for l in lits])
    state = BeliefState(f, max_conflicts=1)
    hit = None
    for v in range(1, 15):
        idx, res = state.append_and_check(Commitment(f"q{v}", Label.ENTAILED, (v,)))
        if res.status is SolveStatus.TIMEOUT:
            hit = idx
            break
    assert hit is not None
    # the tried commitment stays inactive; its Unknown stand-in comes last
    assert not state.active[hit]
    assert state.commitments[-1] == Commitment(f"q{v}", Label.UNKNOWN, ())
    assert state.active[-1]


# Deliberately corrupted belief states: each test below passes only if
# rebuild_check derives its verdict instead of echoing ``state.sat``.


def test_validation_rejects_a_model_that_misses_the_retained_conjunction():
    state = unit_state()
    state.append_and_check(Commitment("q1", Label.ENTAILED, (1,)))
    assert state.sat
    # the session still guards +1 while the state now claims -1
    state.commitments[0] = state.commitments[0]._replace(literals=(-1,))
    model = model_of(state.session.solve(state.assumptions()))
    assert not evaluate(rebuild_formula(state), model)
    assert state.rebuild_check() is False


def test_validation_rejects_a_model_that_misses_a_premise():
    state = empty_state(2)
    state.append_and_check(Commitment("q1", Label.ENTAILED, (1,)))
    # a premise the incremental session never saw contradicts the commitment
    state.base_formula.clauses.append((-1,))
    model = model_of(state.session.solve(state.assumptions()))
    assert model[1] and not evaluate(state.base_formula, model)
    assert state.rebuild_check() is False


def test_validation_re_solves_an_unsat_core_in_a_fresh_session():
    state = empty_state(2)
    state.append_and_check(Commitment("q1", Label.ENTAILED, (1,)))
    # a clause only the incremental session sees makes its selector fail
    state.session.add_clause([-selector(state, 0), -1])
    assert state.session.solve(state.assumptions()).status is SolveStatus.UNSAT
    state.sat = False  # what the corrupted session now claims
    assert state.rebuild_check() is True


def guarded_pigeonhole(pigeons: int, holes: int) -> Formula:
    """PHP(pigeons, holes) with every clause relaxed by a guard variable,
    the last one: satisfiable, and a hard refutation once the guard is
    assumed false."""
    var = lambda p, h: p * holes + h + 1
    guard = pigeons * holes + 1
    f = Formula(num_vars=guard)
    for p in range(pigeons):
        f.add_clause([var(p, h) for h in range(holes)] + [guard])
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                f.add_clause([-var(p, h), -var(q, h), guard])
    return f


def test_validation_after_a_timeout_re_solves_every_active_commitment():
    f = guarded_pigeonhole(4, 3)
    state = BeliefState(f, max_conflicts=1)
    idx, result = state.trial(Commitment("q1", Label.CONTRADICTED, (-f.num_vars,)))
    assert result.status is SolveStatus.TIMEOUT
    state.activate(idx)  # as if the timed-out trial had verified SAT
    assert state.session.solve(state.assumptions()).status is SolveStatus.TIMEOUT
    assert state.rebuild_check() is False


def count_sessions(monkeypatch) -> list:
    """Every solver session the belief-state module builds from now on."""
    built = []

    class Counted(SolverSession):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(commitments, "SolverSession", Counted)
    return built


def chained_conflict() -> BeliefState:
    """Premises 1 -> 2 -> 3 and the active commitments 1 and -3: UNSAT, and
    refuted by unit propagation from the two commitment literals."""
    state = BeliefState(parse_dimacs("p cnf 3 2\n-1 2 0\n-2 3 0"))
    state.append_and_check(Commitment("q1", Label.ENTAILED, (1,)))
    idx, result = state.append_and_check(Commitment("q2", Label.CONTRADICTED, (-3,)))
    assert result.status is SolveStatus.UNSAT
    state.activate(idx, sat=False)
    return state


def test_validation_certifies_unsat_on_the_bundle_session(monkeypatch):
    state = chained_conflict()
    assert min_revision_cost(state).value == 1  # its last solve is SAT: the witness
    built = count_sessions(monkeypatch)
    assert state.rebuild_check() is False
    assert built == []


def test_validation_without_a_checked_premise_witness_builds_a_fresh_session(monkeypatch):
    state = chained_conflict()
    built = count_sessions(monkeypatch)
    assert state.witness is None  # no solve of the state's own has been SAT
    assert state.rebuild_check() is False
    assert len(built) == 1
    # a witness that misses a premise the session never saw is no witness
    min_revision_cost(state)
    assert -2 in state.witness.true_literals
    state.base_formula.clauses.append((2,))
    assert state.rebuild_check() is False
    assert len(built) == 2


def test_validation_refuses_a_corrupted_failed_set(monkeypatch):
    from casecheck.runner import RunConfig, evaluate_bundle

    case = compile_case(CaseFile(
        id="rel-1", domain=Domain.RELATIONAL, premises="p cnf 2 1\n1 2 0\n",
        premises_format="dimacs", queries=[Query("q1", 1, Label.ENTAILED),
                                           Query("q2", 1, Label.CONTRADICTED)]))
    config = RunConfig(corpus="", policy="oracle", method="baseline")
    built = count_sessions(monkeypatch)
    report = evaluate_bundle(case, config)
    assert report.statuses_after == ["sat", "unsat"]
    assert report.invariant_failures == [] and len(built) == 1

    # the session's failed set loses its first selector, and the cached copy
    # answers the revision probe and the closing solve
    analyze_final = SolverSession._analyze_final

    def corrupted(self, failed_p):
        core = analyze_final(self, failed_p)
        return core - {min(core)} if len(core) > 1 else core

    monkeypatch.setattr(SolverSession, "_analyze_final", corrupted)
    built.clear()
    report = evaluate_bundle(case, config)
    assert report.invariant_failures == ["incremental status disagrees with fresh rebuild"]
    assert len(built) == 2  # the certificate refused, the fallback re-solved
