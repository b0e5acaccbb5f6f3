"""Conflict repair under a minimal-change objective.

When a commitment breaks satisfiability, candidates are enumerated (flip the
current label, soften by dropping derived atoms, selectively retract prior
core members), ranked by the lexicographic cost (past retractions, label
change, commitment size), and verified against the solver: at most ``r_max``
verifications per query, and no more than the caller's ``call_cap`` allows.
The per-bundle cap itself is kept by the runner. Also hosts logic-filtered
voting and the minimum revision cost (the fewest active commitments whose
retraction restores satisfiability), found by implicit hitting sets: every
failed solve yields a core, its failed assumptions; every correction set must
hit every core, so a minimum hitting set of the cores found so far is a lower
bound, and the first one whose retraction solves SAT is a minimum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .casefile import Label
from .commitments import BeliefState, Commitment, CommitmentOrigin, UnsatCore
from .solver import SolveStatus

OPPOSITE = {Label.ENTAILED: Label.CONTRADICTED, Label.CONTRADICTED: Label.ENTAILED}


class RepairKind(str, Enum):
    FLIP = "flip"
    SOFTEN = "soften"
    RETRACT = "retract"


@dataclass(frozen=True)
class RepairAction:
    kind: RepairKind
    new_label: Label | None = None
    dropped_atoms: tuple[int, ...] = ()
    retract_indices: tuple[int, ...] = ()
    cost: tuple[int, int, int] = (0, 0, 0)  # (past retractions, label changed, psi size)


@dataclass
class RepairBudget:
    r_max: int = 2              # candidate verifications per query
    call_cap: int | None = None  # verification calls left in the bundle's cap
    delta_past_limit: int = 3   # retraction threshold before giving up

    def __post_init__(self):
        if self.r_max <= 0 or self.delta_past_limit <= 0:
            raise ValueError("budget fields must be positive")
        if self.call_cap is not None and self.call_cap < 0:
            raise ValueError("call_cap must not be negative")


class RepairOutcomeKind(str, Enum):
    REPAIRED = "repaired"
    FALLBACK_UNKNOWN = "fallback-unknown"
    PARTIAL = "partial"


@dataclass
class RepairOutcome:
    kind: RepairOutcomeKind
    final_commitment: Commitment
    action: RepairAction | None = None
    retracted_indices: tuple[int, ...] = ()
    tried: list[tuple[RepairAction, str]] = field(default_factory=list)
    active_index: int | None = None  # belief-state slot of the final commitment

    @property
    def delta_past(self) -> int:
        return len(self.retracted_indices)


def propose_repairs(state: BeliefState, commitment: Commitment, core: UnsatCore,
                    pending_index: int) -> list[RepairAction]:
    """Deterministic candidate enumeration: flip to Unknown, flip to the
    opposite label, soften one derived atom at a time (most derived first),
    then retract prior core members singly, in pairs, and as a whole."""
    derived = commitment.literals[1:] if commitment.literals else ()
    d = len(derived)
    out: list[RepairAction] = []
    if commitment.label is not Label.UNKNOWN:
        out.append(RepairAction(RepairKind.FLIP, new_label=Label.UNKNOWN, cost=(0, 1, 0)))
        out.append(RepairAction(RepairKind.FLIP, new_label=OPPOSITE[commitment.label],
                                cost=(0, 1, 1 + d)))
    for k in range(1, d + 1):  # drop the k most recently derived atoms
        out.append(RepairAction(RepairKind.SOFTEN, new_label=commitment.label,
                                dropped_atoms=tuple(derived[d - k:]),
                                cost=(0, 0, 1 + d - k)))
    prior = [i for i in core.commitment_indices
             if i != pending_index and state.commitments[i].literals]
    recent_first = sorted(prior, reverse=True)
    size_now = commitment.size
    for i in recent_first:
        out.append(RepairAction(RepairKind.RETRACT, retract_indices=(i,),
                                cost=(1, 0, size_now)))
    for pair in itertools.combinations(recent_first, 2):
        out.append(RepairAction(RepairKind.RETRACT, retract_indices=pair,
                                cost=(2, 0, size_now)))
    if len(recent_first) > 2:
        full = tuple(recent_first)
        out.append(RepairAction(RepairKind.RETRACT, retract_indices=full,
                                cost=(len(full), 0, size_now)))
    return out


def _revised_commitment(original: Commitment, action: RepairAction) -> Commitment:
    if action.kind is RepairKind.FLIP:
        if action.new_label is Label.UNKNOWN:
            atom = original.literals[0] if original.literals else None
            return Commitment(original.query_id, Label.UNKNOWN, (),
                              CommitmentOrigin.REPAIR, undetermined_atom=atom)
        flipped = (-original.literals[0], *original.literals[1:])
        return Commitment(original.query_id, action.new_label, flipped,
                          CommitmentOrigin.REPAIR)
    if action.kind is RepairKind.SOFTEN:
        kept = tuple(l for l in original.literals if l not in action.dropped_atoms)
        return Commitment(original.query_id, original.label, kept,
                          CommitmentOrigin.REPAIR)
    return original  # retraction leaves the current commitment as-is


def attempt_repair(state: BeliefState, commitment: Commitment, core: UnsatCore,
                   pending_index: int, budget: RepairBudget) -> RepairOutcome:
    """Try up to ``r_max`` candidates (fewer when ``call_cap`` is smaller) in
    lexicographic cost order (ties by enumeration order) until one restores
    satisfiability; otherwise revert the current label to
    Unknown. States that stay unsatisfiable even then (violations that were
    forced in earlier) get an exact minimum-retraction completion, or PARTIAL
    when that exceeds the retraction threshold."""
    candidates = propose_repairs(state, commitment, core, pending_index)
    ordered = sorted(range(len(candidates)), key=lambda i: (candidates[i].cost, i))
    allowed = budget.r_max if budget.call_cap is None else min(budget.r_max, budget.call_cap)

    tried: list[tuple[RepairAction, str]] = []
    for idx in ordered[:allowed]:
        action = candidates[idx]
        exclude = frozenset(action.retract_indices)
        if action.kind is RepairKind.RETRACT:
            trial_idx = pending_index
        else:
            trial_idx = state.install(_revised_commitment(commitment, action))
        result = state.solve_with(extra=(state.selectors[trial_idx],), exclude=exclude)
        if result.status is SolveStatus.SAT:
            if action.cost[0] > budget.delta_past_limit:
                tried.append((action, "accepted-over-threshold"))
                return RepairOutcome(RepairOutcomeKind.PARTIAL,
                                     final_commitment=commitment,
                                     action=action, tried=tried)
            for i in action.retract_indices:
                state.retract(i)
            state.activate(trial_idx, sat=True)
            tried.append((action, "accepted"))
            final = state.commitments[trial_idx]
            return RepairOutcome(RepairOutcomeKind.REPAIRED, final_commitment=final,
                                 action=action,
                                 retracted_indices=action.retract_indices,
                                 tried=tried, active_index=trial_idx)
        tried.append((action, "timeout" if result.status is SolveStatus.TIMEOUT else "unsat"))

    # no candidate within budget: the current label reverts to Unknown
    fallback = Commitment(commitment.query_id, Label.UNKNOWN, (), CommitmentOrigin.REPAIR,
                          undetermined_atom=commitment.literals[0] if commitment.literals else None)
    fb_idx = state.install(fallback)
    state.activate(fb_idx, sat=state.sat)
    if state.sat:
        return RepairOutcome(RepairOutcomeKind.FALLBACK_UNKNOWN, final_commitment=fallback,
                             tried=tried, active_index=fb_idx)

    # the state was already past a violation; find the cheapest retraction set
    rev = min_revision_cost(state)
    if not rev.exact or rev.value > budget.delta_past_limit or rev.witness is None:
        return RepairOutcome(RepairOutcomeKind.PARTIAL, final_commitment=fallback,
                             tried=tried, active_index=fb_idx)
    for i in rev.witness:
        state.retract(i)
    state.sat = True
    return RepairOutcome(RepairOutcomeKind.REPAIRED, final_commitment=fallback,
                         retracted_indices=rev.witness, tried=tried, active_index=fb_idx)


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
    if not survivors:
        return VoteResult(Label.UNKNOWN, survivors)
    counts = {label: survivors.count(label) for label in set(survivors)}
    best = max(counts.values())
    top = [label for label, n in counts.items() if n == best]
    label = top[0] if len(top) == 1 else Label.UNKNOWN
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
        if not core:  # the premises alone are unsatisfiable
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
