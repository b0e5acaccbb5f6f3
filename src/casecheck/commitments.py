"""Commitment extraction and belief-state tracking.

Answering a query induces a commitment: the queried atom for an entailed
answer, its negation for a contradicted one, nothing for Unknown. The belief
state is the conjunction of the case premises with every accepted commitment;
commitments enter the solver as selector-guarded clauses so retraction
is an assumption flip rather than a rebuild, and unsatisfiable cores over the
selectors localize conflicts to specific commitments.
"""

from __future__ import annotations

from typing import NamedTuple

from .casefile import Label, Query, check_premises
from .logic import Formula, refutes, satisfies
from .solver import DEFAULT_MAX_CONFLICTS, SolveResult, SolveStatus, SolverSession


class Commitment(NamedTuple):
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
                import logging  # only where a warning is logged: off the start-up path
                logging.getLogger(__name__).warning(
                    "query %s: derived atom %d outside vocabulary, dropped", query.id, atom)
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


class UnsatCore(NamedTuple):
    commitment_indices: tuple[int, ...]  # positions in the belief state, ascending
    minimal: bool


class BeliefState:
    """Premises plus an ordered list of commitments, each behind a selector
    literal: commitment ``i`` is guarded by variable ``base_vars + 1 + i``,
    the session variable its installation added. The retained conjunction at
    any time equals the premises plus every active commitment;
    ``rebuild_check`` certifies its status."""

    def __init__(self, formula: Formula, max_conflicts: int = DEFAULT_MAX_CONFLICTS):
        self.base_formula = formula
        self.session = SolverSession(formula, max_conflicts=max_conflicts)
        self.base_vars = formula.num_vars
        self.commitments: list[Commitment] = []
        self.active: list[bool] = []
        self.sat = True  # status of the retained conjunction; premises checked by rebuild_check
        self.witness: SolveResult | None = None  # rebuild_check checks it before use

    # ------------------------------------------------------------- plumbing

    def _install(self, commitment: Commitment) -> int:
        """Add the commitment, inactive, behind the next session variable."""
        selector = self.session.add_variable()
        for lit in commitment.literals:
            self.session.add_clause([-selector, lit])
        self.commitments.append(commitment)
        self.active.append(False)
        return len(self.commitments) - 1

    def commitment_indices(self, failed: frozenset[int]) -> set[int]:
        """Commitment indices behind the selectors in a failed-assumption set."""
        return {s - self.base_vars - 1 for s in failed if s > self.base_vars}

    def assumptions(self, exclude: tuple[int, ...] = ()) -> list[int]:
        """Selectors of the active commitments, but those in ``exclude``."""
        base = self.base_vars + 1
        return [base + i for i, on in enumerate(self.active) if on and i not in exclude]

    @property
    def active_indices(self) -> list[int]:
        return [i for i, on in enumerate(self.active) if on]

    # ------------------------------------------------------------ operations

    def trial(self, commitment: Commitment) -> tuple[int, SolveResult]:
        """Install the commitment inactive and solve it on top of the active
        set; the caller decides whether to ``activate`` it."""
        idx = self._install(commitment)
        return idx, self.session.solve([*self.assumptions(), self.base_vars + 1 + idx])

    def append_and_check(self, commitment: Commitment) -> tuple[int, SolveResult]:
        """One ``trial`` of the new commitment, activated on SAT. On UNSAT the
        state is unchanged and repair (or the caller's policy) decides what
        happens; on TIMEOUT an Unknown stand-in is activated instead, and the
        index returned stays the tried commitment's."""
        idx, result = self.trial(commitment)
        if result.status is SolveStatus.SAT:
            self.active[idx] = True
        elif result.status is SolveStatus.TIMEOUT:
            # fresh entry: the original selector still guards the old literals
            self.abstain(commitment.query_id)
            import logging
            logging.getLogger(__name__).warning(
                "query %s: satisfiability check timed out, label degraded to Unknown",
                commitment.query_id)
        return idx, result

    def abstain(self, query_id: str) -> int:
        """Install and activate an empty Unknown commitment for the query. It
        asserts nothing, so ``sat`` is unchanged."""
        idx = self._install(Commitment(query_id, Label.UNKNOWN, ()))
        self.active[idx] = True
        return idx

    def activate(self, index: int, sat: bool = True) -> None:
        """Activate a tried commitment; ``sat=False`` continues past a
        violation, which leaves the retained conjunction unsatisfiable."""
        self.active[index] = True
        self.sat = sat

    # ------------------------------------------------------------ core logic

    def unsat_core(self, pending_index: int, failed: frozenset[int],
                   call_budget: int) -> UnsatCore:
        """Core over commitment indices whose conjunction with the premises is
        UNSAT: the active and pending commitments in the failed-assumption
        set. With a positive ``call_budget`` a deletion scan of at most that
        many solves minimizes it, most recent first, so cores bias toward
        recent commitments. A minimization timeout or an exhausted budget
        returns the core unminimized."""
        candidates = set(self.active_indices)
        candidates.add(pending_index)
        core = sorted(candidates & self.commitment_indices(failed))
        if call_budget <= 0:
            return UnsatCore(tuple(core), minimal=False)
        base = self.base_vars + 1
        calls = 0
        for idx in sorted(core, reverse=True):  # most recent first
            if idx not in core:
                continue
            if calls >= call_budget:
                return UnsatCore(tuple(sorted(core)), minimal=False)
            result = self.session.solve([base + i for i in core if i != idx])
            calls += 1
            if result.status is SolveStatus.TIMEOUT:
                return UnsatCore(tuple(sorted(core)), minimal=False)
            if result.status is SolveStatus.UNSAT:
                # narrow to the failed subset, which drops idx and maybe more
                narrowed = self.commitment_indices(result.failed_assumptions)
                core = sorted(narrowed) if narrowed else [i for i in core if i != idx]
        return UnsatCore(tuple(sorted(core)), minimal=True)

    # ------------------------------------------------------------ validation

    def solve(self, exclude: tuple[int, ...] = ()) -> SolveResult:
        """Solve the active commitments, but those in ``exclude``. A SAT
        result becomes the ``witness``."""
        result = self.session.solve(self.assumptions(exclude))
        if result.status is SolveStatus.SAT:
            self.witness = result
        return result

    def rebuild_check(self, case_id: str | None = None) -> bool:
        """Certified satisfiability of the retained conjunction.

        One ``solve`` of the active commitments on the bundle's own session,
        certified from the premises and the commitment literals, never from
        the session's clauses. SAT: the true literals meet every premise
        clause and hold every active commitment literal. UNSAT: unit
        propagation from the literals of the failed-set commitments refutes
        the premises, and the ``witness`` (the revision probe's last solve,
        say) meets every premise clause, since unsatisfiable premises would
        refute anything. Otherwise (a timeout, no checked witness or a failed
        certificate) a fresh session checks the premises (``check_premises``)
        and re-solves under the literals of the failed-set commitments, or of
        every active commitment after a timeout or a failed SAT certificate;
        that verdict stands."""
        result = self.solve()
        premises = self.base_formula.clauses
        basis = self.active_indices
        if result.status is SolveStatus.SAT:
            true = result.true_literals
            if satisfies(premises, true) and true.issuperset(self._literals(basis)):
                return True
        elif result.status is SolveStatus.UNSAT:
            failed = self.commitment_indices(result.failed_assumptions)
            basis = [i for i in basis if i in failed]
            witness = self.witness
            if (witness is not None and satisfies(premises, witness.true_literals)
                    and refutes(premises, self._literals(basis))):
                return False
        # the default budget, not the run's: under a tiny run budget the
        # premise check itself would time out and the run would exit 2
        fresh = SolverSession(self.base_formula)
        check_premises(fresh, case_id)
        return fresh.solve(self._literals(basis)).status is SolveStatus.SAT

    def _literals(self, indices: list[int]) -> list[int]:
        return [lit for i in indices for lit in self.commitments[i].literals]
