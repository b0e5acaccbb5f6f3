"""Complete incremental SAT solver: CDCL with watched literals, first-UIP
learning, Luby restarts, phase saving, and MiniSat-style assumption handling.

A session keeps its learned state across calls, so repeated checks over the
same base formula (with varying assumption sets) reuse prior work. Verdicts
are fully deterministic: branching breaks ties by variable index and there is
no randomized component.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappush, heappop
from typing import Iterable, Sequence

from .logic import Formula, LogicError, normalize_clause

TRUE = 1
FALSE = 0
UNDEF = -1

DEFAULT_WALL_TIMEOUT = 30.0  # seconds per call unless a conflict budget is set


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


@dataclass
class SolverStats:
    solver_calls: int = 0
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "solver_calls": self.solver_calls,
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }


@dataclass
class SolveResult:
    status: SolveStatus
    model: dict[int, bool] | None = None
    failed_assumptions: frozenset[int] = frozenset()


class SolverSession:
    """One loaded formula plus incremental solving state.

    Not thread-safe; one session per thread. Clauses may be added between
    calls (never during one). Variables added after construction support the
    selector-literal idiom used for retractable constraint groups.
    """

    def __init__(
        self,
        formula: Formula | None = None,
        max_conflicts: int | None = None,
        max_seconds: float | None = DEFAULT_WALL_TIMEOUT,
    ):
        self.max_conflicts = max_conflicts
        self.max_seconds = max_seconds
        self.stats = SolverStats()

        self._num_vars = 0
        self._ok = True  # False once the clause set is unconditionally UNSAT
        # indexed by variable (1-based; slot 0 unused)
        self._assign: list[int] = [UNDEF]
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._phase: list[bool] = [False]
        self._activity: list[float] = [0.0]
        # watches indexed by literal slot: lit l -> 2*|l| + (1 if l < 0 else 0)
        self._watches: list[list[list[int]]] = [[], []]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._heap: list[tuple[float, int]] = []
        self._units: list[int] = []  # root-level facts pending propagation

        if formula is not None:
            formula.validate()
            while self._num_vars < formula.num_vars:
                self.add_variable()
            for clause in formula.clauses:
                self.add_clause(clause)

    # ------------------------------------------------------------------ setup

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def add_variable(self) -> int:
        self._num_vars += 1
        self._assign.append(UNDEF)
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(False)
        self._activity.append(0.0)
        self._watches.append([])
        self._watches.append([])
        heappush(self._heap, (0.0, self._num_vars))
        return self._num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause between solve calls; normalizes and handles units."""
        clause = normalize_clause(lits)
        if clause is None:  # tautology
            return
        for l in clause:
            if abs(l) > self._num_vars:
                raise LogicError(f"literal {l} references unknown variable (have {self._num_vars})")
        self._cancel_until(0)
        if not self._ok:
            return
        if len(clause) == 0:
            self._ok = False
            return
        # drop literals already false at root, stop if satisfied at root
        reduced = []
        for l in clause:
            v = self._lit_value(l)
            if v == TRUE and self._level[abs(l)] == 0:
                return
            if v == FALSE and self._level[abs(l)] == 0:
                continue
            reduced.append(l)
        if not reduced:
            self._ok = False
            return
        if len(reduced) == 1:
            if not self._enqueue(reduced[0], None):
                self._ok = False
                return
            if self._propagate() is not None:
                self._ok = False
            return
        self._attach(list(reduced))

    def _attach(self, clause: list[int]) -> None:
        self._watches[self._slot(clause[0])].append(clause)
        self._watches[self._slot(clause[1])].append(clause)

    @staticmethod
    def _slot(lit: int) -> int:
        return 2 * abs(lit) + (1 if lit < 0 else 0)

    # --------------------------------------------------------------- valuation

    def _lit_value(self, lit: int) -> int:
        v = self._assign[abs(lit)]
        if v == UNDEF:
            return UNDEF
        return v if lit > 0 else 1 - v

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self._lit_value(lit)
        if val == TRUE:
            return True
        if val == FALSE:
            return False
        var = abs(lit)
        self._assign[var] = TRUE if lit > 0 else FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _new_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        for i in range(len(self._trail) - 1, bound - 1, -1):
            var = abs(self._trail[i])
            self._assign[var] = UNDEF
            self._reason[var] = None
            heappush(self._heap, (-self._activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, bound)

    # -------------------------------------------------------------- propagate

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            falsified = -lit
            watch_list = self._watches[self._slot(falsified)]
            i = 0
            while i < len(watch_list):
                clause = watch_list[i]
                # ensure the falsified literal sits at position 1
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == TRUE:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches[self._slot(clause[1])].append(clause)
                        watch_list[i] = watch_list[-1]
                        watch_list.pop()
                        moved = True
                        break
                if moved:
                    continue
                # clause is unit or conflicting
                if not self._enqueue(first, clause):
                    return clause
                i += 1
        return None

    # ----------------------------------------------------------------- learn

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._assign[var] == UNDEF:
            heappush(self._heap, (-self._activity[var], var))
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._heap = [(-self._activity[v], v) for v in range(1, self._num_vars + 1)
                          if self._assign[v] == UNDEF]
            heapify(self._heap)

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backjump level).
        learnt[0] is the asserting literal."""
        cur_level = len(self._trail_lim)
        seen = [False] * (self._num_vars + 1)
        learnt: list[int] = []
        counter = 0
        p: int | None = None
        reason: list[int] = conflict
        idx = len(self._trail) - 1

        while True:
            for q in reason:
                if p is not None and abs(q) == abs(p):
                    continue  # the variable being resolved away
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # find next marked literal on the trail
            while not seen[abs(self._trail[idx])]:
                idx -= 1
            p = -self._trail[idx]
            var = abs(p)
            seen[var] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            reason = self._reason[var] or []

        learnt.insert(0, p)
        if len(learnt) == 1:
            return learnt, 0
        # backjump to the second-highest level; put that literal at slot 1
        max_i = 1
        for i in range(2, len(learnt)):
            if self._level[abs(learnt[i])] > self._level[abs(learnt[max_i])]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, self._level[abs(learnt[1])]

    def _analyze_final(self, failed_lit: int) -> frozenset[int]:
        """Assumptions implying the negation of ``failed_lit`` (which is among
        them); the returned subset conjoined with the formula is UNSAT."""
        failed = {failed_lit}
        if not self._trail_lim:
            return frozenset(failed)
        seen = [False] * (self._num_vars + 1)
        seen[abs(failed_lit)] = True
        for i in range(len(self._trail) - 1, self._trail_lim[0] - 1, -1):
            lit = self._trail[i]
            var = abs(lit)
            if not seen[var]:
                continue
            reason = self._reason[var]
            if reason is None:
                failed.add(lit)  # decision at assumption levels == an assumption
            else:
                for q in reason:
                    qv = abs(q)
                    if qv != var and self._level[qv] > 0:
                        seen[qv] = True
            seen[var] = False
        return frozenset(failed)

    # ----------------------------------------------------------------- decide

    def _decide(self) -> int | None:
        while self._heap:
            negact, var = heappop(self._heap)
            if self._assign[var] == UNDEF and -negact == self._activity[var]:
                self.stats.decisions += 1
                return var if self._phase[var] else -var
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == UNDEF:
                self.stats.decisions += 1
                return var if self._phase[var] else -var
        return None

    @staticmethod
    def _luby(i: int) -> int:
        k = 1
        while (1 << (k + 1)) <= i + 1:
            k += 1
        if (1 << k) == i + 1:
            return 1 << (k - 1)
        return SolverSession._luby(i - (1 << k) + 1)

    # ------------------------------------------------------------------ solve

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: int | None = None,
        max_seconds: float | None = None,
    ) -> SolveResult:
        """Check satisfiability under the given assumption literals.

        SAT results carry a total model. UNSAT results carry the subset of
        assumptions the refutation used (not necessarily minimal; empty when
        the clause set is UNSAT on its own). Budget exhaustion yields TIMEOUT
        and callers must treat the verdict as unknown. A conflict budget, when
        set, replaces the wall-clock budget.
        """
        self.stats.solver_calls += 1
        assumptions = list(assumptions)
        for a in assumptions:
            if a == 0 or abs(a) > self._num_vars:
                raise LogicError(f"assumption {a} references unknown variable")

        self._cancel_until(0)
        if not self._ok:
            return SolveResult(SolveStatus.UNSAT, failed_assumptions=frozenset())
        if self._propagate() is not None:
            self._ok = False
            return SolveResult(SolveStatus.UNSAT, failed_assumptions=frozenset())

        budget_conflicts = max_conflicts if max_conflicts is not None else self.max_conflicts
        budget_seconds = max_seconds if max_seconds is not None else self.max_seconds
        deadline = None
        if budget_conflicts is None and budget_seconds is not None:
            deadline = time.monotonic() + budget_seconds

        conflicts_this_call = 0
        restart_idx = 1
        restart_limit = 32 * self._luby(restart_idx)
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_this_call += 1
                conflicts_since_restart += 1
                if len(self._trail_lim) == 0:
                    self._ok = False
                    return SolveResult(SolveStatus.UNSAT, failed_assumptions=frozenset())
                if budget_conflicts is not None and conflicts_this_call >= budget_conflicts:
                    self._cancel_until(0)
                    return SolveResult(SolveStatus.TIMEOUT)
                if deadline is not None and conflicts_this_call % 64 == 0 and time.monotonic() > deadline:
                    self._cancel_until(0)
                    return SolveResult(SolveStatus.TIMEOUT)
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self._ok = False
                        return SolveResult(SolveStatus.UNSAT, failed_assumptions=frozenset())
                else:
                    self._attach(learnt)
                    self._enqueue(learnt[0], learnt)
                self._var_inc *= self._var_decay
                continue

            if conflicts_since_restart >= restart_limit and len(self._trail_lim) > len(assumptions):
                self.stats.restarts += 1
                restart_idx += 1
                restart_limit = 32 * self._luby(restart_idx)
                conflicts_since_restart = 0
                self._cancel_until(len(assumptions) if assumptions else 0)
                continue

            if len(self._trail_lim) < len(assumptions):
                p = assumptions[len(self._trail_lim)]
                val = self._lit_value(p)
                if val == TRUE:
                    self._new_level()  # placeholder level keeps index mapping
                elif val == FALSE:
                    failed = self._analyze_final(p)
                    self._cancel_until(0)
                    return SolveResult(SolveStatus.UNSAT, failed_assumptions=failed)
                else:
                    self._new_level()
                    self._enqueue(p, None)
                continue

            decision = self._decide()
            if decision is None:
                model = {v: self._assign[v] == TRUE for v in range(1, self._num_vars + 1)}
                self._cancel_until(0)
                return SolveResult(SolveStatus.SAT, model=model)
            self._new_level()
            self._enqueue(decision, None)
