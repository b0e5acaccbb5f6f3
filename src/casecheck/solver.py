"""Complete incremental SAT solver: CDCL with watched literals, first-UIP
learning, Luby restarts, phase saving, and MiniSat-style assumption handling.

A session keeps its learned state across calls, so repeated checks over the
same base formula (with varying assumption sets) reuse prior work. It also
keeps the model of its last satisfiable search. When that model, extended to
the variables created since (false unless assumed), satisfies a later call's
assumptions and every clause added since, the call returns it without a
search, as a counterexample cache would (Cadar, Dunbar & Engler, OSDI 2008).
A conflict-free search would return the same model, so no status or model
depends on the shortcut. The other half: clauses are only ever added, so a
call assuming the whole failed set of the last UNSAT search is UNSAT with it,
again without a search. A SAT result builds its set of true literals when
first read: once per bundle by ``BeliefState.rebuild_check``, per check by
gold labelling; nothing builds a ``{var: bool}`` model. Verdicts are fully
deterministic: branching breaks ties by variable index, there is no
randomized component, and the one budget counts conflicts, not seconds.
"""

from __future__ import annotations

from functools import cached_property
from heapq import heapify, heappush, heappop
from typing import Iterable, Sequence

from . import SolveStatus
from .logic import Formula, LogicError

TRUE = 1
FALSE = 0
UNDEF = -1

DEFAULT_MAX_CONFLICTS = 20_000  # per call; 18-26 s of hard random 3-SAT on a 2-vCPU host


class SolverStats:
    def __init__(self):
        self.solver_calls = self.decisions = self.conflicts = self.propagations = self.restarts = 0


class SolveResult:
    def __init__(self, status: SolveStatus, failed_assumptions: frozenset[int] = frozenset(),
                 _bits: list[int] | None = None):  # SAT: sign bit of vars 1..n
        self.status, self.failed_assumptions, self._bits = status, failed_assumptions, _bits

    @cached_property
    def true_literals(self) -> frozenset[int] | None:
        """The literals the total model of a SAT result makes true, one per
        variable, built on first read; else None."""
        if self._bits is None:
            return None
        return frozenset(-v if b else v for v, b in enumerate(self._bits, 1))


class SolverSession:
    """One loaded formula plus incremental solving state.

    Not thread-safe; one session per thread. Clauses may be added between
    calls (never during one). Variables added after construction support the
    selector-literal idiom used for retractable constraints.

    Inside the session a literal is a slot: ``v`` is ``2v`` and ``-v`` is
    ``2v+1``, so negation is ``^ 1``. Clauses, reasons, watches and the trail
    hold slots; literals are converted only in the public methods.
    """

    def __init__(self, formula: Formula | None = None,
                 max_conflicts: int = DEFAULT_MAX_CONFLICTS):
        self.max_conflicts = max_conflicts
        self.stats = SolverStats()

        n = self._num_vars = formula.num_vars if formula is not None else 0
        self._ok = True  # False once the clause set is unconditionally UNSAT
        # indexed by slot: TRUE, FALSE or UNDEF for the literal
        self._value: list[int] = [UNDEF] * (2 * n + 2)
        # watches[s]: clauses watching slot s, visited when s becomes false
        self._watches: list[list[list[int]]] = [[] for _ in range(2 * n + 2)]
        # indexed by variable (1-based; index 0 unused)
        self._level: list[int] = [0] * (n + 1)
        self._reason: list[list[int] | None] = [None] * (n + 1)
        self._phase: list[int] = [1] * (n + 1)  # sign bit of the saved polarity
        self._activity: list[float] = [0.0] * (n + 1)
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, n + 1)]  # already a heap
        # While _reuse holds, the saved phases are a model of every clause
        # loaded: the last search ended SAT and every clause added since held
        # under them. Variables from _fresh_from on were created since (false
        # when created), and _since keeps the clauses added since that mention
        # one, because a solve may assume such a variable either way.
        self._reuse = False
        self._fresh_from = n + 1
        self._since: list[tuple[int, ...]] = []
        # failed set of the last UNSAT search: clauses only grow, so it stays UNSAT
        self._core: frozenset[int] | None = None

        if formula is not None:
            self._load(formula.clauses)

    # ------------------------------------------------------------------ setup

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def add_variable(self) -> int:
        self._num_vars += 1
        self._value += (UNDEF, UNDEF)
        self._watches += ([], [])
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(1)
        self._activity.append(0.0)
        heappush(self._heap, (0.0, self._num_vars))
        return self._num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause between solve calls."""
        self._cancel_until(0)
        self._load((tuple(lits),))

    def _load(self, clauses: Iterable[Sequence[int]]) -> None:
        """Add clauses at the root level in order. Every literal is checked
        against the variable count as it becomes a slot, also in a clause
        that is then skipped: unchecked, ``0`` would load as slot 1.
        Duplicate literals and literals false at the root are dropped,
        tautologies and clauses true at the root are skipped, and a unit
        clause propagates at once. A clause the saved phases falsify ends
        their reuse as a model."""
        value, watches, n = self._value, self._watches, self._num_vars
        for clause in clauses:
            reduced = []
            skip = not self._ok
            for l in clause:
                if not isinstance(l, int) or l == 0 or abs(l) > n:
                    raise LogicError(f"bad literal {l!r} (have {n} variables)")
                p = 2 * l if l > 0 else 1 - 2 * l
                v = value[p]
                if v == TRUE or (p ^ 1) in reduced:
                    skip = True
                elif v == UNDEF and p not in reduced:
                    reduced.append(p)
            if self._reuse:
                # before the unit below, which rewrites the phases it propagates
                if not self._holds(clause):
                    self._reuse = False
                elif max(map(abs, clause)) >= self._fresh_from:
                    self._since.append(clause)
            if skip:
                continue
            if not reduced:
                self._ok = False
            elif len(reduced) == 1:
                self._enqueue(reduced[0], None)
                if self._propagate() is not None:
                    self._ok = False
            else:
                watches[reduced[0]].append(reduced)
                watches[reduced[1]].append(reduced)

    def _holds(self, clause: Iterable[int]) -> bool:
        """Whether the saved phases make some literal of ``clause`` true."""
        phase = self._phase
        for l in clause:
            if phase[abs(l)] == (l < 0):
                return True
        return False

    def _reuse_model(self, assumptions: Sequence[int]) -> bool:
        """Whether the saved phases, with each assumed fresh variable set to
        its assumed polarity, satisfy every assumption and every clause added
        since the last search. On success the phases keep those polarities,
        as enqueueing them would; otherwise they are restored."""
        phase, fresh = self._phase, self._fresh_from
        saved = {}
        for a in assumptions:
            var = abs(a)
            if var >= fresh:
                saved.setdefault(var, phase[var])
                phase[var] = 1 if a < 0 else 0
        if all(phase[abs(a)] == (a < 0) for a in assumptions) and all(map(self._holds, self._since)):
            return True
        for var, bit in saved.items():
            phase[var] = bit
        return False

    @staticmethod
    def _literal(p: int) -> int:
        return -(p >> 1) if p & 1 else p >> 1

    # --------------------------------------------------------------- valuation

    def _enqueue(self, p: int, reason: list[int] | None) -> None:
        """Make the unassigned slot ``p`` true at the current level."""
        self._value[p] = TRUE
        self._value[p ^ 1] = FALSE
        var = p >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = p & 1
        self._trail.append(p)

    def _cancel_until(self, level: int) -> None:
        trail, trail_lim = self._trail, self._trail_lim
        if len(trail_lim) <= level:
            return
        bound = trail_lim[level]
        value, activity, heap = self._value, self._activity, self._heap
        for p in reversed(trail[bound:]):
            value[p] = value[p ^ 1] = UNDEF
            var = p >> 1
            heappush(heap, (-activity[var], var))
        del trail[bound:]
        del trail_lim[level:]
        self._qhead = min(self._qhead, bound)

    # -------------------------------------------------------------- propagate

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        trail, value, watches = self._trail, self._value, self._watches
        level, reason, phase = self._level, self._reason, self._phase
        cur_level = len(self._trail_lim)
        qhead = start = self._qhead
        conflict = None
        while qhead < len(trail) and conflict is None:
            false_p = trail[qhead] ^ 1
            qhead += 1
            watch_list = watches[false_p]
            i, end = 0, len(watch_list)
            while i < end:
                clause = watch_list[i]
                # ensure the falsified literal sits at position 1
                first = clause[0]
                if first == false_p:
                    first = clause[0] = clause[1]
                    clause[1] = false_p
                if value[first] == TRUE:
                    i += 1
                    continue
                for k in range(2, len(clause)):
                    q = clause[k]
                    if value[q] != FALSE:
                        clause[1] = q
                        clause[k] = false_p
                        watches[q].append(clause)
                        end -= 1
                        watch_list[i] = watch_list[end]
                        watch_list.pop()
                        break
                else:
                    # clause is unit or conflicting
                    if value[first] == FALSE:
                        conflict = clause
                        break
                    value[first] = TRUE
                    value[first ^ 1] = FALSE
                    var = first >> 1
                    level[var] = cur_level
                    reason[var] = clause
                    phase[var] = first & 1
                    trail.append(first)
                    i += 1
        self._qhead = qhead
        self.stats.propagations += qhead - start
        return conflict

    # ----------------------------------------------------------------- learn

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._heap = [(-self._activity[v], v) for v in range(1, self._num_vars + 1)
                          if self._value[2 * v] == UNDEF]
            heapify(self._heap)

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backjump level).
        learnt[0] is the asserting literal."""
        trail, level = self._trail, self._level
        cur_level = len(self._trail_lim)
        seen = [False] * (self._num_vars + 1)
        learnt: list[int] = []
        counter = 0
        pvar = 0  # the variable being resolved away; none yet
        reason: list[int] = conflict
        idx = len(trail) - 1

        while True:
            for q in reason:
                var = q >> 1
                if var != pvar and not seen[var] and level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # find next marked literal on the trail
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            pvar = p >> 1
            seen[pvar] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            reason = self._reason[pvar] or []

        learnt.insert(0, p ^ 1)
        if len(learnt) == 1:
            return learnt, 0
        # backjump to the second-highest level; put that literal at index 1
        max_i = 1
        for i in range(2, len(learnt)):
            if level[learnt[i] >> 1] > level[learnt[max_i] >> 1]:
                max_i = i
        learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _analyze_final(self, failed_p: int) -> frozenset[int]:
        """Assumptions implying the negation of ``failed_p`` (which is among
        them); the returned subset conjoined with the formula is UNSAT."""
        failed = {self._literal(failed_p)}
        if self._trail_lim:
            trail, level = self._trail, self._level
            seen = [False] * (self._num_vars + 1)
            seen[failed_p >> 1] = True
            for i in range(len(trail) - 1, self._trail_lim[0] - 1, -1):
                p = trail[i]
                var = p >> 1
                if not seen[var]:
                    continue
                reason = self._reason[var]
                if reason is None:
                    failed.add(self._literal(p))  # decision at assumption levels == an assumption
                else:
                    for q in reason:
                        qv = q >> 1
                        if qv != var and level[qv] > 0:
                            seen[qv] = True
                seen[var] = False
        return frozenset(failed)

    # ----------------------------------------------------------------- decide

    def _decide(self) -> int | None:
        value, activity = self._value, self._activity
        while self._heap:
            negact, var = heappop(self._heap)
            if value[2 * var] == UNDEF and -negact == activity[var]:
                self.stats.decisions += 1
                return 2 * var | self._phase[var]
        return None  # every unassigned variable has a current heap entry

    @staticmethod
    def _luby(i: int) -> int:
        k = 1
        while (1 << (k + 1)) <= i + 1:
            k += 1
        if (1 << k) == i + 1:
            return 1 << (k - 1)
        return SolverSession._luby(i - (1 << k) + 1)

    # ------------------------------------------------------------------ solve

    def solve(self, assumptions: Sequence[int] = ()) -> SolveResult:
        """Check satisfiability under the given assumption literals.

        SAT results carry a total model. UNSAT results carry the subset of
        assumptions the refutation used (not necessarily minimal; empty when
        the clause set is UNSAT on its own). Exhausting the session's budget
        yields TIMEOUT and callers must treat the verdict as unknown.
        """
        self.stats.solver_calls += 1
        for a in assumptions:
            if a == 0 or abs(a) > self._num_vars:
                raise LogicError(f"assumption {a} references unknown variable")

        if not self._ok:
            return SolveResult(SolveStatus.UNSAT)
        if self._core is not None and self._core.issubset(assumptions):
            return SolveResult(SolveStatus.UNSAT, failed_assumptions=self._core)
        if self._reuse and self._reuse_model(assumptions):
            # a search would assign, imply and decide exactly these polarities
            # without a conflict, and return this model
            return SolveResult(SolveStatus.SAT, _bits=self._phase[1:])
        self._reuse = False

        slots = [2 * a if a > 0 else 1 - 2 * a for a in assumptions]
        self._cancel_until(0)
        if self._propagate() is not None:
            self._ok = False
            return SolveResult(SolveStatus.UNSAT)

        budget_conflicts = self.max_conflicts
        conflicts_this_call = 0
        restart_idx = 1
        restart_limit = 32 * self._luby(restart_idx)
        conflicts_since_restart = 0
        trail_lim = self._trail_lim

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_this_call += 1
                conflicts_since_restart += 1
                if len(trail_lim) == 0:
                    self._ok = False
                    return SolveResult(SolveStatus.UNSAT)
                if conflicts_this_call >= budget_conflicts:
                    self._cancel_until(0)
                    return SolveResult(SolveStatus.TIMEOUT)
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self._watches[learnt[0]].append(learnt)
                    self._watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self._var_inc *= self._var_decay
                continue

            if conflicts_since_restart >= restart_limit and len(trail_lim) > len(slots):
                self.stats.restarts += 1
                restart_idx += 1
                restart_limit = 32 * self._luby(restart_idx)
                conflicts_since_restart = 0
                self._cancel_until(len(slots))
                continue

            if len(trail_lim) < len(slots):
                p = slots[len(trail_lim)]
                val = self._value[p]
                if val == FALSE:
                    self._core = self._analyze_final(p)
                    self._cancel_until(0)
                    return SolveResult(SolveStatus.UNSAT, failed_assumptions=self._core)
                trail_lim.append(len(self._trail))  # a true assumption opens an empty level
                if val == UNDEF:
                    self._enqueue(p, None)
                continue

            decision = self._decide()
            if decision is None:
                self._cancel_until(0)
                # every variable is assigned, so the saved phases are this model
                self._reuse = True
                self._fresh_from = self._num_vars + 1
                self._since = []
                return SolveResult(SolveStatus.SAT, _bits=self._phase[1:])
            trail_lim.append(len(self._trail))
            self._enqueue(decision, None)
