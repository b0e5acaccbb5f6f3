"""Propositional core: clauses, CNF formulas, DIMACS io, model checks,
unit-propagation refutations, model counting.

Literals are nonzero ints in DIMACS convention: ``v`` asserts variable ``v``
true, ``-v`` asserts it false. Variables are numbered from 1.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Sequence

ENUMERATION_VAR_LIMIT = 24
# a solver session sizes per-variable arrays from the header, so a header
# declaring hundreds of millions of variables would exhaust memory there
MAX_DIMACS_VARS = 200_000
# clauses one case formula may hold, its premises and reified query atoms
# together: a DIMACS header may declare no more, and grounding stops there. A
# 3-term sum at width 64 grounds to at most 4,093, a 4-term one to about
# 216,000; generated cases hold about 150 at most
MAX_CLAUSES = 200_000

TAUTOLOGY = None  # marker returned by normalize_clause


class LogicError(ValueError):
    pass


class EnumerationGuardError(LogicError):
    pass


def normalize_clause(lits: Iterable[int]) -> tuple[int, ...] | None:
    """Deduplicate literals; return TAUTOLOGY (None) for clauses with l and -l."""
    seen: dict[int, None] = {}
    for l in lits:
        if not isinstance(l, int) or l == 0:
            raise LogicError(f"bad literal {l!r}")
        if -l in seen:
            return TAUTOLOGY
        seen.setdefault(l, None)
    return tuple(seen)


class Formula:
    """A CNF formula: a variable count and a list of normalized clauses."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int = 0, clauses: list[tuple[int, ...]] | None = None):
        self.num_vars = num_vars
        self.clauses = [] if clauses is None else clauses

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Normalize and append a clause; returns False if it was a tautology."""
        clause = normalize_clause(lits)
        if clause is TAUTOLOGY:
            return False
        for l in clause:
            if abs(l) > self.num_vars:
                raise LogicError(f"literal {l} exceeds declared variable count {self.num_vars}")
        self.clauses.append(clause)
        return True

    def copy(self) -> "Formula":
        return Formula(self.num_vars, list(self.clauses))


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text. Comment lines are ignored; tautological
    clauses count toward the header's clause count but are dropped."""
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[tuple[int, ...]] = []
    read = 0
    pending: list[int] = []
    pending_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise LogicError(f"line {lineno}: duplicate problem header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise LogicError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise LogicError(f"line {lineno}: non-integer counts in header {line!r}")
            if num_vars < 0 or num_clauses < 0:
                raise LogicError(f"line {lineno}: negative counts in header")
            if num_vars > MAX_DIMACS_VARS:
                raise LogicError(f"line {lineno}: header declares {num_vars} variables, "
                                 f"more than {MAX_DIMACS_VARS}")
            if num_clauses > MAX_CLAUSES:
                raise LogicError(f"line {lineno}: header declares {num_clauses} clauses, "
                                 f"more than {MAX_CLAUSES}")
            continue
        if num_vars is None:
            raise LogicError(f"line {lineno}: clause before problem header")
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise LogicError(f"line {lineno}: non-integer literal in {line!r}")
        if not pending:
            pending_line = lineno
        for l in lits:
            if l == 0:
                read += 1
                clause = normalize_clause(pending)
                if clause is not TAUTOLOGY:
                    for c in clause:
                        if abs(c) > num_vars:
                            raise LogicError(f"line {pending_line}: literal {c} "
                                             f"out of declared range 1..{num_vars}")
                    clauses.append(clause)
                pending = []
            else:
                pending.append(l)

    if num_vars is None:
        raise LogicError("missing problem header")
    if pending:
        raise LogicError(f"line {pending_line}: clause missing terminating 0")
    if read != num_clauses:
        raise LogicError(f"header declares {num_clauses} clauses, found {read}")
    return Formula(num_vars, clauses)


def emit_dimacs(formula: Formula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def satisfies(clauses: Iterable[Iterable[int]], true: AbstractSet[int]) -> bool:
    """Whether every clause has a literal in ``true``, the literals an
    assignment makes true."""
    return not any(map(true.isdisjoint, clauses))


def evaluate(formula: Formula, model: dict[int, bool]) -> bool:
    """Direct evaluation of a total assignment against every clause."""
    return satisfies(formula.clauses, {v if b else -v for v, b in model.items()})


def refutes(clauses: Iterable[Sequence[int]], units: Iterable[int]) -> bool:
    """Whether unit propagation from the literals ``units`` over ``clauses``
    reaches a conflict, which shows that no model of the clauses makes every
    unit true: a reverse-unit-propagation refutation (Goldberg & Novikov,
    DATE 2003). Propagation runs to a fixpoint over plain literal sets and
    shares no code with the solver; ``False`` proves nothing."""
    true = set(units)
    if any(-lit in true for lit in true):
        return True
    pending = list(clauses)
    while True:
        kept, grew = [], False
        for clause in pending:
            free = [lit for lit in clause if -lit not in true]
            if not free:
                return True  # every literal false
            if true.isdisjoint(free):  # not yet satisfied
                if len(free) == 1:
                    true.add(free[0])
                    grew = True
                else:
                    kept.append(clause)
        if not grew:
            return False
        pending = kept


_MASK_CACHE: dict[tuple[int, int], int] = {}


def _var_mask(n: int, var: int) -> int:
    """Bitmask over all 2^n assignment indices where ``var`` is true.

    Assignment index i assigns variable j the bit (i >> (n - j)) & 1, so
    ascending i enumerates assignments in lexicographic variable order.
    """
    key = (n, var)
    cached = _MASK_CACHE.get(key)
    if cached is not None:
        return cached
    half = 1 << (n - var)
    mask = ((1 << half) - 1) << half
    span = half * 2
    total = 1 << n
    while span < total:
        mask |= mask << span
        span *= 2
    _MASK_CACHE[key] = mask
    return mask


def truth_table(formula: Formula) -> int:
    """The formula's satisfying set as a bitmask over all 2^num_vars assignments."""
    n = formula.num_vars
    if n > ENUMERATION_VAR_LIMIT:
        raise EnumerationGuardError(f"{n} variables exceeds enumeration limit {ENUMERATION_VAR_LIMIT}")
    full = (1 << (1 << n)) - 1
    table = full
    for clause in formula.clauses:
        cmask = 0
        for l in clause:
            m = _var_mask(n, abs(l))
            cmask |= m if l > 0 else (full ^ m)
        table &= cmask
        if table == 0:
            break
    return table


def count_models(formula: Formula) -> int:
    return truth_table(formula).bit_count()
