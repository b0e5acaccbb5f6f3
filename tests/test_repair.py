import itertools
import random

from casecheck.casefile import Label
from casecheck.commitments import BeliefState, Commitment
from casecheck.logic import Formula, count_models, parse_dimacs
from casecheck.repair import (
    RevisionCost,
    attempt_repair,
    logic_filtered_vote,
    min_revision_cost,
    propose_repairs,
)
from casecheck.solver import SolveStatus

from test_commitments import guarded_pigeonhole, rebuild_formula


def state_of(dimacs: str | None = None, num_vars: int = 4) -> BeliefState:
    formula = parse_dimacs(dimacs) if dimacs else Formula(num_vars=num_vars)
    return BeliefState(formula)


def violating_append(state, commitment) -> int:
    idx, result = state.append_and_check(commitment)
    assert result.status is SolveStatus.UNSAT
    return idx


def force(state, commitment) -> None:
    """Activate the commitment whatever its trial says, as a baseline run
    continues past a violation."""
    idx, _ = state.trial(commitment)
    state.activate(idx, sat=False)


def forced_conflicts(state, atoms) -> None:
    """For each atom, commit to it and then force in its negation."""
    for i, v in enumerate(atoms, start=1):
        state.append_and_check(Commitment(f"p{i}", Label.ENTAILED, (v,)))
    for i, v in enumerate(atoms, start=1):
        c = Commitment(f"n{i}", Label.CONTRADICTED, (-v,))
        state.activate(violating_append(state, c), sat=False)


def test_candidates_without_derived_atoms():
    # nothing to soften: the step abstains without a solve
    state = state_of("p cnf 1 1\n1 0")
    c = Commitment("q1", Label.CONTRADICTED, (-1,))
    violating_append(state, c)
    assert propose_repairs(c) == []
    before = state.session.stats.solver_calls
    accepted, tried = attempt_repair(state, c, 2)
    assert state.session.stats.solver_calls == before
    assert accepted is None and tried == []
    assert state.commitments[-1] == Commitment("q1", Label.UNKNOWN, ())
    assert state.active[-1]
    assert state.rebuild_check()


def test_soften_candidate_keeps_queried_atom():
    state = state_of(num_vars=5)
    state.append_and_check(Commitment("q1", Label.ENTAILED, (-5,)))
    c = Commitment("q2", Label.ENTAILED, (3, 5))  # derived atom 5 conflicts
    violating_append(state, c)
    assert propose_repairs(c) == [Commitment("q2", Label.ENTAILED, (3,))]
    accepted, tried = attempt_repair(state, c, 2)
    assert accepted == Commitment("q2", Label.ENTAILED, (3,))
    assert [(t.size, verdict) for t, verdict in tried] == [(1, "accepted")]
    assert state.rebuild_check()


def test_candidates_grow_by_one_derived_atom():
    c = Commitment("q1", Label.CONTRADICTED, (-1, 2, -3, 4))
    assert [t.literals for t in propose_repairs(c)] == [(-1,), (-1, 2), (-1, 2, -3)]
    assert all(t.label is Label.CONTRADICTED and t.query_id == "q1" for t in propose_repairs(c))


def test_repair_verification_cap_respected():
    # three softened candidates, all refuted by the premises; r_max=2 stops
    # after two solves and the step abstains
    state = state_of("p cnf 4 1\n1 0")
    c = Commitment("q1", Label.CONTRADICTED, (-1, 2, 3, 4))
    violating_append(state, c)
    before = state.session.stats.solver_calls
    accepted, tried = attempt_repair(state, c, 2)
    assert state.session.stats.solver_calls - before == 2
    assert [(t.size, verdict) for t, verdict in tried] == [(1, "unsat"), (2, "unsat")]
    assert accepted is None


def test_fallback_unknown_when_candidates_fail():
    # the derived atom conflicts and softening would fix it, but the call cap
    # leaves no verification call, so the step abstains
    state = state_of(num_vars=5)
    state.append_and_check(Commitment("q1", Label.ENTAILED, (-5,)))
    c = Commitment("q2", Label.ENTAILED, (3, 5))
    violating_append(state, c)
    before = state.session.stats.solver_calls
    accepted, tried = attempt_repair(state, c, 0)
    assert state.session.stats.solver_calls == before
    assert accepted is None and tried == []
    assert state.commitments[-1].label is Label.UNKNOWN
    assert state.rebuild_check()


def test_accepted_repair_is_lexicographically_optimal():
    # exhaust the candidate space independently: every candidate that would
    # restore satisfiability must be at least as large as the accepted one
    rng = random.Random(71)
    checked = 0
    while checked < 30:
        nv = rng.randint(3, 6)
        f = Formula(num_vars=nv)
        for _ in range(rng.randint(0, 2)):
            lits = rng.sample(range(1, nv + 1), 2)
            f.add_clause([l if rng.random() < 0.5 else -l for l in lits])
        if count_models(f) == 0:
            continue
        state = BeliefState(f)
        violation = None
        for i in range(rng.randint(2, 6)):
            lit = rng.choice([1, -1]) * rng.randint(1, nv)
            derived = tuple(rng.choice([1, -1]) * rng.randint(1, nv)
                            for _ in range(rng.randint(0, 2)))
            derived = tuple(d for d in derived if abs(d) != abs(lit))
            c = Commitment(f"q{i}", Label.ENTAILED, (lit, *derived))
            if state.append_and_check(c)[1].status is SolveStatus.UNSAT:
                violation = c
                break
        if violation is None:
            continue
        c = violation
        # oracle pass: which candidates restore satisfiability?
        sat_sizes = []
        for candidate in propose_repairs(c):
            g = rebuild_formula(state)
            for lit2 in candidate.literals:
                g.add_clause([lit2])
            if count_models(g) > 0:
                sat_sizes.append(candidate.size)
        accepted, _ = attempt_repair(state, c, 64)
        if accepted is not None:
            assert sat_sizes and accepted.size == min(sat_sizes)
            checked += 1
        else:
            assert not sat_sizes  # nothing could have fixed it
            checked += 1


# ------------------------------------------------------------- filtered vote


def test_vote_plain_majority():
    state = state_of(num_vars=3)
    samples = [Commitment("q1", Label.ENTAILED, (1,)),
               Commitment("q1", Label.ENTAILED, (1,)),
               Commitment("q1", Label.CONTRADICTED, (-1,))]
    assert logic_filtered_vote(samples, state) is Label.ENTAILED


def test_vote_filters_state_killers():
    state = state_of("p cnf 1 1\n-1 0")  # premises refute atom 1
    samples = [Commitment("q1", Label.ENTAILED, (1,)),
               Commitment("q1", Label.ENTAILED, (1,)),
               Commitment("q1", Label.CONTRADICTED, (-1,))]
    assert logic_filtered_vote(samples, state) is Label.CONTRADICTED  # sole survivor


def test_vote_tie_yields_unknown():
    state = state_of(num_vars=2)
    samples = [Commitment("q1", Label.ENTAILED, (1,)),
               Commitment("q1", Label.CONTRADICTED, (-1,))]
    assert logic_filtered_vote(samples, state) is Label.UNKNOWN


def test_vote_conservative_over_seeds():
    rng = random.Random(51)
    for _ in range(100):
        nv = rng.randint(2, 5)
        f = Formula(num_vars=nv)
        for _ in range(rng.randint(0, nv)):
            lits = rng.sample(range(1, nv + 1), min(2, nv))
            f.add_clause([l if rng.random() < 0.5 else -l for l in lits])
        if count_models(f) == 0:
            continue
        state = BeliefState(f)
        atom = rng.randint(1, nv)
        samples = []
        for _ in range(rng.randint(1, 5)):
            label = rng.choice(list(Label))
            if label is Label.UNKNOWN:
                samples.append(Commitment("q", label, ()))
            else:
                lit = atom if label is Label.ENTAILED else -atom
                samples.append(Commitment("q", label, (lit,)))
        label = logic_filtered_vote(samples, state)
        if label is not Label.UNKNOWN:
            lit = atom if label is Label.ENTAILED else -atom
            g = rebuild_formula(state)
            g.add_clause([lit])
            assert count_models(g) > 0


# --------------------------------------------------------- minimum revision


def test_revision_cost_zero_when_sat():
    state = state_of(num_vars=2)
    state.append_and_check(Commitment("q1", Label.ENTAILED, (1,)))
    assert min_revision_cost(state).value == 0


def test_revision_cost_single_conflict():
    state = state_of(num_vars=3)
    state.append_and_check(Commitment("q1", Label.ENTAILED, (1,)))
    state.append_and_check(Commitment("q2", Label.ENTAILED, (2,)))
    state.activate(violating_append(state, Commitment("q3", Label.CONTRADICTED, (-1,))),
                   sat=False)
    rev = min_revision_cost(state)
    assert rev.value == 1 and rev.exact


def brute_force_min_retraction(state) -> int | None:
    """Fewest active commitments whose retraction leaves the state
    satisfiable; None when no retraction does."""
    candidates = [i for i in state.active_indices if state.commitments[i].literals]
    for k in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, k):
            if count_models(rebuild_formula(state, exclude=frozenset(subset))) > 0:
                return k
    return None


def test_revision_cost_matches_brute_force_on_seeded_conflicts():
    rng = random.Random(61)
    checked = 0
    while checked < 40:
        nv = rng.randint(3, 6)
        f = Formula(num_vars=nv)
        for _ in range(rng.randint(0, 2)):
            lits = rng.sample(range(1, nv + 1), 2)
            f.add_clause([l if rng.random() < 0.5 else -l for l in lits])
        if count_models(f) == 0:
            continue
        state = BeliefState(f)
        for i in range(rng.randint(2, 16)):
            lit = rng.choice([1, -1]) * rng.randint(1, nv)
            c = Commitment(f"q{i}", Label.ENTAILED, (lit,))
            idx, res = state.append_and_check(c)
            if res.status is SolveStatus.UNSAT:
                state.activate(idx, sat=False)
        rev = min_revision_cost(state)
        assert rev.exact
        assert rev.value == len(rev.witness) == brute_force_min_retraction(state)
        if rev.value > 0:
            checked += 1


def test_minimum_retraction_repairs_three_forced_conflicts():
    # one solve per disjoint core, each adding one to the hitting set, then
    # the solve that certifies it; the earliest of each pair is retracted
    state = state_of(num_vars=4)
    forced_conflicts(state, (1, 2, 3))
    before = state.session.stats.solver_calls
    rev = min_revision_cost(state)
    assert state.session.stats.solver_calls - before == 4
    assert rev == RevisionCost(3, True, (0, 1, 2))


def test_revision_cost_exact_past_twelve_commitments():
    # one clash followed by twelve unrelated commitments: retracting either
    # clashing commitment suffices, however many others are active
    state = state_of(num_vars=13)
    state.append_and_check(Commitment("q1", Label.ENTAILED, (1,)))
    state.activate(violating_append(state, Commitment("q2", Label.CONTRADICTED, (-1,))),
                   sat=False)
    for v in range(2, 14):  # the state is already unsatisfiable
        force(state, Commitment(f"q{v + 1}", Label.ENTAILED, (v,)))
    assert len(state.active_indices) == 14
    rev = min_revision_cost(state)
    assert rev.value == 1 and rev.exact
    assert rev.witness in ((0,), (1,))


def test_revision_cost_inexact_after_a_timeout():
    f = guarded_pigeonhole(4, 3)
    state = BeliefState(f, max_conflicts=1)
    force(state, Commitment("q1", Label.CONTRADICTED, (-f.num_vars,)))
    rev = min_revision_cost(state)
    assert rev.exact is False and rev.witness is None
