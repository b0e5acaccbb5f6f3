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
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .casefile import Label, majority_label
from .commitments import BeliefState, Commitment
from .solver import SolveStatus


class RepairOutcomeKind(str, Enum):
    REPAIRED = "repaired"
    FALLBACK_UNKNOWN = "fallback-unknown"


@dataclass
class RepairOutcome:
    kind: RepairOutcomeKind
    final_commitment: Commitment
    tried: list[tuple[Commitment, str]] = field(default_factory=list)  # (candidate, verdict)


def propose_repairs(commitment: Commitment) -> list[Commitment]:
    """The softened candidates, smallest first: the queried atom alone, then
    with one more derived atom each time, up to all but the last. A
    commitment without derived atoms has none."""
    return [Commitment(commitment.query_id, commitment.label, commitment.literals[:size])
            for size in range(1, commitment.size)]


def attempt_repair(state: BeliefState, commitment: Commitment, calls: int) -> RepairOutcome:
    """Spend at most ``calls`` solver calls (the runner passes the smaller of
    ``r_max`` and what the bundle's cap leaves) on the candidates for a
    commitment that broke a satisfiable state, one call each, and activate
    the first that verifies SAT. Without one the step abstains; the
    abstention makes no solver call."""
    tried: list[tuple[Commitment, str]] = []
    for candidate in propose_repairs(commitment)[:calls]:
        trial_idx = state.install(candidate)
        result = state.solve_with(extra=(state.selectors[trial_idx],))
        if result.status is SolveStatus.SAT:
            state.activate(trial_idx, sat=True)
            tried.append((candidate, "accepted"))
            return RepairOutcome(RepairOutcomeKind.REPAIRED, candidate, tried)
        tried.append((candidate, "timeout" if result.status is SolveStatus.TIMEOUT else "unsat"))
    idx = state.abstain(commitment.query_id)
    return RepairOutcome(RepairOutcomeKind.FALLBACK_UNKNOWN, state.commitments[idx], tried)


# ------------------------------------------------------------- filtered vote


@dataclass
class VoteResult:
    label: Label
    survivors: list[Label]


def logic_filtered_vote(samples: Sequence[Commitment], state: BeliefState) -> VoteResult:
    """Keep only sampled answers whose commitments preserve satisfiability,
    then majority-vote the survivors; ties and empty survivor sets yield
    Unknown. Trial checks roll back (commitments are installed but never
    activated)."""
    if not samples:
        raise ValueError("need at least one sample")
    survivors: list[Label] = []
    for commitment in samples:
        if not commitment.literals:
            survivors.append(commitment.label)  # asserts nothing, trivially safe
            continue
        idx = state.install(commitment)
        result = state.solve_with(extra=(state.selectors[idx],))
        if result.status is SolveStatus.SAT:
            survivors.append(commitment.label)
    label = majority_label(survivors) if survivors else Label.UNKNOWN
    return VoteResult(label, survivors)


# --------------------------------------------------------- minimum revision


@dataclass
class RevisionCost:
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
        result = state.solve_with(exclude=frozenset(hitting))
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
