"""Conflict repair under a minimal-change objective.

When a commitment breaks the satisfiable state, softened versions of it that
keep the past are verified in size order, one solver call each: derived atoms
are dropped and the label stays. When none is accepted within ``r_max`` and
what the bundle's cap leaves, the step abstains: the label reverts to Unknown,
which asserts nothing and so needs no solve. The per-bundle cap itself is
kept by the runner. Also hosts logic-filtered voting and the minimum revision
cost (the fewest active commitments whose retraction restores
satisfiability), found by implicit hitting sets: every failed solve yields a
core, its failed assumptions; every correction set must hit every core, so a
minimum hitting set of the cores found so far is a lower bound, and the first
one whose retraction solves SAT is a minimum.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .casefile import Label, majority_label
from .commitments import BeliefState, Commitment
from .solver import SolveStatus


def propose_repairs(commitment: Commitment) -> list[Commitment]:
    """The softened candidates, smallest first: the queried atom alone, then
    with one more derived atom each time, up to all but the last. A
    commitment without derived atoms has none."""
    return [Commitment(commitment.query_id, commitment.label, commitment.literals[:size])
            for size in range(1, commitment.size)]


def attempt_repair(state: BeliefState, commitment: Commitment,
                   calls: int) -> tuple[Commitment | None, list[tuple[Commitment, str]]]:
    """Spend at most ``calls`` solver calls (the runner passes the smaller of
    ``r_max`` and what the bundle's cap leaves) on the candidates for a
    commitment that broke a satisfiable state, one trial each, and activate
    the first that verifies SAT. Returns it (None when the step abstains
    instead, which makes no solver call) and the (candidate, verdict) pairs
    tried."""
    tried: list[tuple[Commitment, str]] = []
    for candidate in propose_repairs(commitment)[:calls]:
        idx, result = state.trial(candidate)
        if result.status is SolveStatus.SAT:
            state.activate(idx)
            tried.append((candidate, "accepted"))
            return candidate, tried
        tried.append((candidate, result.status.value))
    state.abstain(commitment.query_id)
    return None, tried


# ------------------------------------------------------------- filtered vote


def logic_filtered_vote(samples: Sequence[Commitment], state: BeliefState) -> Label:
    """Keep only sampled answers whose commitments preserve satisfiability,
    then majority-vote the survivors; ties and empty survivor sets yield
    Unknown. Each trial stays installed but inactive, so the state is
    unchanged."""
    if not samples:
        raise ValueError("need at least one sample")
    survivors: list[Label] = []
    for commitment in samples:
        # an Unknown sample asserts nothing, so it is trivially safe
        if not commitment.literals or state.trial(commitment)[1].status is SolveStatus.SAT:
            survivors.append(commitment.label)
    return majority_label(survivors) if survivors else Label.UNKNOWN


# --------------------------------------------------------- minimum revision


class RevisionCost(NamedTuple):
    value: int   # a lower bound when not exact
    exact: bool  # False only when a solver budget ran out
    witness: tuple[int, ...] | None


def min_revision_cost(state: BeliefState) -> RevisionCost:
    """Minimum number of active commitments whose retraction restores
    satisfiability: solve with the current minimum hitting set retracted; on
    UNSAT add the failed-assumption core and recompute the hitting set.
    Exact at any size unless a solve times out."""
    cores: list[set[int]] = []
    hitting: tuple[int, ...] = ()
    while True:
        result = state.solve(exclude=hitting)
        if result.status is SolveStatus.SAT:
            return RevisionCost(len(hitting), True, hitting)
        if result.status is SolveStatus.TIMEOUT:
            return RevisionCost(len(hitting), False, None)
        core = state.commitment_indices(result.failed_assumptions)
        if not core:  # the premises are unsatisfiable on their own
            return RevisionCost(len(hitting), True, None)
        cores.append(core)
        hitting = _min_hitting_set(cores, len(hitting))


def _min_hitting_set(cores: list[set[int]], size: int) -> tuple[int, ...]:
    """Smallest set that meets every core, enumerated by increasing size
    (from ``size``, a known lower bound) in index order over their union."""
    union = sorted(set().union(*cores))
    while True:
        for subset in itertools.combinations(union, size):
            if all(not core.isdisjoint(subset) for core in cores):
                return subset
        size += 1
