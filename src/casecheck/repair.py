"""Conflict repair under a minimal-change objective.

When a commitment breaks satisfiability, the candidates that keep the past
(soften by dropping derived atoms, flip the current label) are verified in
lexicographic cost order (past retractions, label change, commitment size),
one solver call each. The calls that ``r_max`` and the caller's ``call_cap``
leave go to retraction: the minimum set of past commitments whose retraction
admits the current one, found by the same search as the minimum revision
cost. The per-bundle cap itself is kept by the runner. Also hosts
logic-filtered voting and that minimum revision cost (the fewest active
commitments whose retraction restores satisfiability), found by implicit
hitting sets: every failed solve yields a core, its failed assumptions; every
correction set must hit every core, so a minimum hitting set of the cores
found so far is a lower bound, and the first one whose retraction solves SAT
is a minimum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .casefile import OPPOSITE_LABEL, Label, majority_label
from .commitments import BeliefState, Commitment
from .solver import SolveStatus

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
    r_max: int = 2              # solver calls per query
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


def propose_repairs(commitment: Commitment) -> list[RepairAction]:
    """The candidates that keep the past, in cost order: soften by dropping
    derived atoms (all of them first, then one fewer each time, so the
    smallest commitment comes first), flip to Unknown, flip to the opposite
    label."""
    derived = commitment.literals[1:]
    d = len(derived)
    out = [RepairAction(RepairKind.SOFTEN, new_label=commitment.label,
                        dropped_atoms=tuple(derived[d - k:]), cost=(0, 0, 1 + d - k))
           for k in range(d, 0, -1)]
    if commitment.label is not Label.UNKNOWN:
        out.append(RepairAction(RepairKind.FLIP, new_label=Label.UNKNOWN, cost=(0, 1, 0)))
        out.append(RepairAction(RepairKind.FLIP, new_label=OPPOSITE_LABEL[commitment.label],
                                cost=(0, 1, 1 + d)))
    return out


def _revised_commitment(original: Commitment, action: RepairAction) -> Commitment:
    if action.kind is RepairKind.FLIP:
        if action.new_label is Label.UNKNOWN:
            return Commitment(original.query_id, Label.UNKNOWN, ())
        flipped = (-original.literals[0], *original.literals[1:])
        return Commitment(original.query_id, action.new_label, flipped)
    kept = tuple(l for l in original.literals if l not in action.dropped_atoms)
    return Commitment(original.query_id, original.label, kept)


def attempt_repair(state: BeliefState, commitment: Commitment, pending_index: int,
                   budget: RepairBudget) -> RepairOutcome:
    """Spend at most ``r_max`` solver calls (fewer when ``call_cap`` is
    smaller) on repairing the pending commitment of a satisfiable state. The
    candidates that keep the past come first, one call each; the calls left
    go to the minimum retraction of past commitments that admits the pending
    one, PARTIAL when it retracts more than ``delta_past_limit``. Without a
    repair the current label reverts to Unknown; from a state that was
    already unsatisfiable that fallback is PARTIAL."""
    allowed = budget.r_max if budget.call_cap is None else min(budget.r_max, budget.call_cap)
    tried: list[tuple[RepairAction, str]] = []
    for action in propose_repairs(commitment)[:allowed]:
        trial_idx = state.install(_revised_commitment(commitment, action))
        result = state.solve_with(extra=(state.selectors[trial_idx],))
        if result.status is SolveStatus.SAT:
            state.activate(trial_idx, sat=True)
            tried.append((action, "accepted"))
            return RepairOutcome(RepairOutcomeKind.REPAIRED,
                                 final_commitment=state.commitments[trial_idx],
                                 action=action, tried=tried, active_index=trial_idx)
        tried.append((action, "timeout" if result.status is SolveStatus.TIMEOUT else "unsat"))

    if len(tried) < allowed:
        rev = min_revision_cost(state, keep=pending_index, call_budget=allowed - len(tried))
        action = RepairAction(RepairKind.RETRACT, retract_indices=rev.witness or (),
                              cost=(rev.value, 0, commitment.size))
        if rev.witness is None:
            tried.append((action, "unsat" if rev.exact else "timeout"))
        elif rev.value > budget.delta_past_limit:
            tried.append((action, "accepted-over-threshold"))
            return RepairOutcome(RepairOutcomeKind.PARTIAL, final_commitment=commitment,
                                 action=action, tried=tried)
        else:
            for i in rev.witness:
                state.retract(i)
            state.activate(pending_index, sat=True)
            tried.append((action, "accepted"))
            return RepairOutcome(RepairOutcomeKind.REPAIRED, final_commitment=commitment,
                                 action=action, retracted_indices=rev.witness,
                                 tried=tried, active_index=pending_index)

    # no repair within budget: the current label reverts to Unknown
    fallback = Commitment(commitment.query_id, Label.UNKNOWN, ())
    fb_idx = state.install(fallback)
    state.activate(fb_idx, sat=state.sat)
    kind = RepairOutcomeKind.FALLBACK_UNKNOWN if state.sat else RepairOutcomeKind.PARTIAL
    return RepairOutcome(kind, final_commitment=fallback, tried=tried, active_index=fb_idx)


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
    exact: bool  # False only when a solver budget or the call budget ran out
    witness: tuple[int, ...] | None


def min_revision_cost(state: BeliefState, keep: int | None = None,
                      call_budget: int | None = None) -> RevisionCost:
    """Minimum number of active commitments whose retraction restores
    satisfiability: solve with the current minimum hitting set retracted; on
    UNSAT add the failed-assumption core and recompute the hitting set.
    ``keep``, an installed commitment, is solved in and never retracted.
    Exact at any size unless a solve times out or ``call_budget`` solves are
    spent."""
    extra = () if keep is None else (state.selectors[keep],)
    cores: list[set[int]] = []
    hitting: tuple[int, ...] = ()
    for _ in itertools.count() if call_budget is None else range(call_budget):
        result = state.solve_with(extra=extra, exclude=frozenset(hitting))
        if result.status is SolveStatus.SAT:
            return RevisionCost(len(hitting), True, hitting)
        if result.status is SolveStatus.TIMEOUT:
            break
        core = state.commitment_indices(result.failed_assumptions)
        core.discard(keep)
        if not core:  # the premises (with ``keep``) are unsatisfiable on their own
            return RevisionCost(len(hitting), True, None)
        cores.append(core)
        hitting = _min_hitting_set(cores, len(hitting))
    return RevisionCost(len(hitting), False, None)


def _min_hitting_set(cores: list[set[int]], size: int) -> tuple[int, ...]:
    """Smallest set that meets every core, enumerated by increasing size
    (from ``size``, a known lower bound) in index order over their union."""
    union = sorted(set().union(*cores))
    while True:
        for subset in itertools.combinations(union, size):
            if all(not core.isdisjoint(subset) for core in cores):
                return subset
        size += 1
