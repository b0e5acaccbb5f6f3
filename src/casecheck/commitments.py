"""Commitment extraction and belief-state tracking.

Answering a query induces a commitment: the queried atom for an entailed
answer, its negation for a contradicted one, nothing for Unknown. The belief
state is the conjunction of the case premises with every accepted commitment;
commitments enter the solver as selector-guarded clauses so retraction
is an assumption flip rather than a rebuild, and unsatisfiable cores over the
selectors localize conflicts to specific commitments.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

from .casefile import Label, Query, check_premises
from .logic import Formula, evaluate
from .solver import SolveResult, SolveStatus, SolverSession

log = logging.getLogger(__name__)


@dataclass
class Commitment:
    query_id: str
    label: Label
    literals: tuple[int, ...]  # queried atom first, derived atoms after; empty for Unknown

    @property
    def size(self) -> int:
        return len(self.literals)


def extract_commitment(query: Query, label: Label,
                       derived_atoms: tuple[int, ...] | list[int] | None = None,
                       vocabulary_size: int | None = None) -> Commitment:
    """Deterministic commitment for a (query, label) pair.

    Derived atoms outside the premise vocabulary are dropped with a warning
    rather than poisoning the solver state."""
    derived = list(derived_atoms or ())
    if vocabulary_size is not None:
        kept = []
        for atom in derived:
            if atom == 0 or abs(atom) > vocabulary_size:
                log.warning("query %s: derived atom %d outside vocabulary, dropped",
                            query.id, atom)
            else:
                kept.append(atom)
        derived = kept
    derived = [a for a in derived if abs(a) != abs(query.atom)]

    if label is Label.ENTAILED:
        literals = (query.atom, *derived)
    elif label is Label.CONTRADICTED:
        literals = (-query.atom, *derived)
    else:
        literals = ()
    return Commitment(query.id, label, literals)


class AppendStatus(Enum):
    ACCEPTED = "accepted"
    VIOLATION = "violation"
    TIMEOUT_FALLBACK = "timeout-fallback"


@dataclass
class AppendResult:
    status: AppendStatus
    commitment: Commitment
    solve_result: SolveResult | None = None


@dataclass
class UnsatCore:
    commitment_indices: tuple[int, ...]  # positions in the belief state, ascending
    minimal: bool


class BeliefState:
    """Premises plus an ordered list of commitments, each behind a selector
    literal. The retained conjunction at any time equals the premises plus
    every active commitment; ``rebuild_check`` certifies its status."""

    def __init__(self, formula: Formula, max_conflicts: int | None = None,
                 max_seconds: float | None = 30.0):
        self.base_formula = formula
        self.session = SolverSession(formula, max_conflicts=max_conflicts,
                                     max_seconds=max_seconds)
        self.base_vars = formula.num_vars
        self.commitments: list[Commitment] = []
        self.selectors: list[int] = []
        self._slot: dict[int, int] = {}  # selector -> commitment index
        self.active: list[bool] = []
        self.sat = True  # status of the retained conjunction; premises checked by rebuild_check

    # ------------------------------------------------------------- plumbing

    def _install(self, commitment: Commitment) -> int:
        selector = self.session.add_variable()
        for lit in commitment.literals:
            self.session.add_clause([-selector, lit])
        self.commitments.append(commitment)
        self.selectors.append(selector)
        self._slot[selector] = len(self.commitments) - 1
        self.active.append(False)
        return len(self.commitments) - 1

    def commitment_indices(self, failed: frozenset[int]) -> set[int]:
        """Commitment indices behind the selectors in a failed-assumption set;
        other literals are ignored."""
        return {self._slot[s] for s in failed if s in self._slot}

    def active_assumptions(self, extra: tuple[int, ...] = (),
                           exclude: frozenset[int] = frozenset()) -> list[int]:
        out = [s for i, s in enumerate(self.selectors)
               if self.active[i] and i not in exclude]
        out.extend(extra)
        return out

    @property
    def active_indices(self) -> list[int]:
        return [i for i, on in enumerate(self.active) if on]

    # ------------------------------------------------------------ operations

    def append_and_check(self, commitment: Commitment) -> AppendResult:
        """One solver call: tentatively assume the new commitment on top of
        the active set. Accepted on SAT; on UNSAT the state is unchanged and
        repair (or the caller's policy) decides what happens; on TIMEOUT the
        commitment conservatively degrades to Unknown and is accepted."""
        idx = self._install(commitment)
        result = self.session.solve(self.active_assumptions(extra=(self.selectors[idx],)))
        if result.status is SolveStatus.SAT:
            self.active[idx] = True
            return AppendResult(AppendStatus.ACCEPTED, commitment, result)
        if result.status is SolveStatus.TIMEOUT:
            # fresh entry: the original selector still guards the old literals
            fb_idx = self.abstain(commitment.query_id)
            log.warning("query %s: satisfiability check timed out, label degraded to Unknown",
                        commitment.query_id)
            return AppendResult(AppendStatus.TIMEOUT_FALLBACK, self.commitments[fb_idx], result)
        return AppendResult(AppendStatus.VIOLATION, commitment, result)

    def force_append(self, commitment: Commitment) -> int:
        """Continue past a violation the caller has just seen: activate the
        commitment regardless, which leaves the retained conjunction
        unsatisfiable."""
        if (self.commitments and self.commitments[-1] is commitment
                and not self.active[-1]):
            idx = len(self.commitments) - 1
        else:
            idx = self._install(commitment)
        self.active[idx] = True
        self.sat = False
        return idx

    def abstain(self, query_id: str) -> int:
        """Install and activate an empty Unknown commitment for the query. It
        asserts nothing, so ``sat`` is unchanged."""
        idx = self._install(Commitment(query_id, Label.UNKNOWN, ()))
        self.active[idx] = True
        return idx

    def install(self, commitment: Commitment) -> int:
        """Install without activating (trial commitments for repair/voting)."""
        return self._install(commitment)

    def activate(self, index: int, sat: bool = True) -> None:
        self.active[index] = True
        self.sat = sat

    def solve_with(self, extra: tuple[int, ...] = (),
                   exclude: frozenset[int] = frozenset()) -> SolveResult:
        """Trial check with some commitments masked out or selectors added."""
        return self.session.solve(self.active_assumptions(extra=extra, exclude=exclude))

    # ------------------------------------------------------------ core logic

    def unsat_core(self, pending_index: int | None = None,
                   failed: frozenset[int] | None = None,
                   minimize: bool = True,
                   call_budget: int | None = None) -> UnsatCore:
        """Core over commitment indices whose conjunction with the premises is
        UNSAT. Starts from the solver's failed-assumption set and then runs a
        deletion scan, most recent first, so cores bias toward recent
        commitments. A minimization timeout returns the unminimized core."""
        candidates = set(self.active_indices)
        if pending_index is not None:
            candidates.add(pending_index)
        if failed is not None:
            candidates &= self.commitment_indices(failed)

        core = sorted(candidates)
        if not minimize:
            return UnsatCore(tuple(core), minimal=False)
        calls = 0
        for idx in sorted(core, reverse=True):  # most recent first
            if idx not in core:
                continue
            if call_budget is not None and calls >= call_budget:
                return UnsatCore(tuple(sorted(core)), minimal=False)
            trial = [self.selectors[i] for i in core if i != idx]
            result = self.session.solve(trial)
            calls += 1
            if result.status is SolveStatus.TIMEOUT:
                return UnsatCore(tuple(sorted(core)), minimal=False)
            if result.status is SolveStatus.UNSAT:
                # narrow to the failed subset, which drops idx and maybe more
                narrowed = self.commitment_indices(result.failed_assumptions)
                core = sorted(narrowed) if narrowed else [i for i in core if i != idx]
        return UnsatCore(tuple(sorted(core)), minimal=True)

    # ------------------------------------------------------------ validation

    def rebuild_check(self, case_id: str | None = None) -> bool:
        """Certified satisfiability of the retained conjunction.

        One solve of the active selectors on the incremental session. A SAT
        model is its own certificate: it must satisfy every premise clause and
        every literal of every active commitment. Otherwise a fresh session
        over the premises checks them (``check_premises``) and re-solves under
        the literals of the failed-assumption commitments, or of every active
        commitment after a timeout or a failed certificate; that verdict
        stands."""
        result = self.session.solve(self.active_assumptions())
        model = result.model
        if (result.status is SolveStatus.SAT and evaluate(self.base_formula, model)
                and all(model[abs(lit)] == (lit > 0)
                        for i in self.active_indices for lit in self.commitments[i].literals)):
            return True
        basis = self.active_indices
        if result.status is SolveStatus.UNSAT:
            basis = sorted(self.commitment_indices(result.failed_assumptions))
        fresh = SolverSession(self.base_formula)
        check_premises(fresh, case_id)
        literals = [lit for i in basis for lit in self.commitments[i].literals]
        return fresh.solve(literals).status is SolveStatus.SAT
