"""Bounded linear-integer constraint frontend.

Parses a small s-expression language (a restricted SMT-LIB-style surface
syntax) and grounds it to CNF with the order encoding, so integer domains run
on the same SAT core as propositional ones. Grammar::

    (declare-int NAME LOW HIGH)
    (assert ATOM)
    (assert (! ATOM :named NAME))
    ATOM  := (REL TERM TERM)            REL in {<= < = >= > != distinct}
    TERM  := INT | VAR | (+ TERM ...) | (- TERM TERM) | (- TERM)
           | (* INT VAR) | (* VAR INT)

Only the bounded fragment is supported: every variable carries explicit
finite bounds and terms must be linear. Grounding errors name the assertion
(or the reified query) they came from.
"""

from __future__ import annotations

import itertools
import re

from .logic import MAX_CLAUSES, Formula

DEFAULT_DOMAIN_WIDTH = 64
# s-expression nesting the reader accepts: generated theories nest at most 4
# deep, and the term parser recurses once per level
MAX_NESTING = 64
RELATIONS = ("<=", "<", "=", ">=", ">", "!=")

_NEGATED = {"<=": ">", "<": ">=", "=": "!=", ">=": "<", ">": "<=", "!=": "="}


class TheoryError(ValueError):
    pass


class IntVar:
    __slots__ = ("name", "lower", "upper")

    def __init__(self, name: str, lower: int, upper: int):
        if lower > upper:
            raise TheoryError(f"{name}: empty domain [{lower},{upper}]")
        self.name, self.lower, self.upper = name, lower, upper

    @property
    def width(self) -> int:
        return self.upper - self.lower + 1


class LinConstraint:
    """sum(coef * var) REL constant over declared integer variables."""

    __slots__ = ("terms", "relation", "constant")

    def __init__(self, terms: tuple[tuple[int, str], ...], relation: str, constant: int):
        if relation not in RELATIONS:
            raise TheoryError(f"unknown relation {relation!r}")
        if not terms:
            raise TheoryError("constraint has no variable terms")
        if any(c == 0 for c, _ in terms):
            raise TheoryError("zero coefficient in constraint")
        self.terms, self.relation, self.constant = terms, relation, constant

    def negated(self) -> "LinConstraint":
        return LinConstraint(self.terms, _NEGATED[self.relation], self.constant)


class Theory:
    __slots__ = ("variables", "assertions")

    def __init__(self, variables: list[IntVar] | None = None,
                 assertions: list[tuple[str, LinConstraint]] | None = None):
        self.variables = [] if variables is None else variables
        self.assertions = [] if assertions is None else assertions

    @property
    def var_map(self) -> dict[str, IntVar]:
        return {v.name: v for v in self.variables}


# ---------------------------------------------------------------------- parse

_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*$")


def _tokenize(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        stripped = line.split(";", 1)[0]
        out.extend(_TOKEN_RE.findall(stripped))
    return out


def _read_sexprs(tokens: list[str]) -> list:
    """The expressions a token list spells, nested lists of tokens, read
    without recursion: ``open_lists`` holds the lists around the current one."""
    exprs: list = []
    current, open_lists = exprs, []
    for tok in tokens:
        if tok == "(":
            if len(open_lists) == MAX_NESTING:
                raise TheoryError(f"expression nested deeper than {MAX_NESTING} levels")
            items: list = []
            current.append(items)
            open_lists.append(current)
            current = items
        elif tok == ")":
            if not open_lists:
                raise TheoryError("unexpected ')'")
            current = open_lists.pop()
        else:
            current.append(tok)
    if open_lists:
        raise TheoryError("unbalanced parentheses")
    return exprs


def _as_int(tok) -> int | None:
    if isinstance(tok, str):
        try:
            return int(tok)
        except ValueError:
            return None
    return None


def _linear_term(expr, var_map: dict[str, IntVar]) -> tuple[dict[str, int], int]:
    """Return (coefficients by variable, constant offset) for a term."""
    val = _as_int(expr)
    if val is not None:
        return {}, val
    if isinstance(expr, str):
        if expr not in var_map:
            raise TheoryError(f"undeclared variable {expr!r}")
        return {expr: 1}, 0
    if not expr:
        raise TheoryError("empty term")
    op = expr[0]
    if op == "+":
        coefs: dict[str, int] = {}
        const = 0
        for sub in expr[1:]:
            c, k = _linear_term(sub, var_map)
            for name, co in c.items():
                coefs[name] = coefs.get(name, 0) + co
            const += k
        return coefs, const
    if op == "-":
        if len(expr) == 2:
            c, k = _linear_term(expr[1], var_map)
            return {n: -co for n, co in c.items()}, -k
        if len(expr) == 3:
            c1, k1 = _linear_term(expr[1], var_map)
            c2, k2 = _linear_term(expr[2], var_map)
            for name, co in c2.items():
                c1[name] = c1.get(name, 0) - co
            return c1, k1 - k2
        raise TheoryError(f"malformed subtraction {expr!r}")
    if op == "*":
        if len(expr) != 3:
            raise TheoryError(f"malformed product {expr!r}")
        a, b = expr[1], expr[2]
        ia, ib = _as_int(a), _as_int(b)
        if ia is not None and isinstance(b, str) and ib is None:
            name, coef = b, ia
        elif ib is not None and isinstance(a, str) and ia is None:
            name, coef = a, ib
        else:
            raise TheoryError(f"nonlinear term {expr!r}: only integer * variable is supported")
        if name not in var_map:
            raise TheoryError(f"undeclared variable {name!r}")
        return {name: coef}, 0
    raise TheoryError(f"unsupported term operator {op!r}")


def _parse_atom(expr, var_map: dict[str, IntVar]) -> LinConstraint:
    if not isinstance(expr, list) or len(expr) != 3:
        raise TheoryError(f"malformed atom {expr!r}")
    rel = expr[0]
    if rel == "distinct":
        rel = "!="
    if rel not in RELATIONS:
        raise TheoryError(f"unknown relation {rel!r}")
    lc, lk = _linear_term(expr[1], var_map)
    rc, rk = _linear_term(expr[2], var_map)
    coefs = dict(lc)
    for name, co in rc.items():
        coefs[name] = coefs.get(name, 0) - co
    terms = tuple((co, name) for name, co in coefs.items() if co != 0)
    if not terms:
        raise TheoryError(f"atom {expr!r} has no variables after normalization")
    return LinConstraint(terms, rel, rk - lk)


def parse_constraint(text: str, var_map: dict[str, IntVar]) -> LinConstraint:
    """Parse a single atom (used for query atoms stored as text)."""
    exprs = _read_sexprs(_tokenize(text))
    if len(exprs) != 1:
        raise TheoryError(f"expected a single atom, got {len(exprs)} expressions")
    return _parse_atom(exprs[0], var_map)


def format_constraint(c: LinConstraint) -> str:
    def term(co: int, name: str) -> str:
        return name if co == 1 else f"(* {co} {name})"

    parts = [term(co, name) for co, name in c.terms]
    lhs = parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"
    return f"({c.relation} {lhs} {c.constant})"


def parse_theory(text: str) -> Theory:
    """Parse declarations and named assertions into a Theory."""
    theory = Theory()
    var_map: dict[str, IntVar] = {}
    used_names: set[str] = set()
    auto = 0
    for expr in _read_sexprs(_tokenize(text)):
        if not isinstance(expr, list) or not expr:
            raise TheoryError(f"top-level expression must be a form: {expr!r}")
        head = expr[0]
        if head == "declare-int":
            if len(expr) != 4:
                raise TheoryError(f"declare-int needs name, low, high: {expr!r}")
            name = expr[1]
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise TheoryError(f"bad variable name {name!r}")
            lo, hi = _as_int(expr[2]), _as_int(expr[3])
            if lo is None or hi is None:
                raise TheoryError(f"non-integer bounds in {expr!r}")
            if name in var_map:
                raise TheoryError(f"duplicate declaration of {name!r}")
            var = IntVar(name, lo, hi)
            if var.width > DEFAULT_DOMAIN_WIDTH:
                raise TheoryError(
                    f"{name}: domain width {var.width} exceeds bound {DEFAULT_DOMAIN_WIDTH}")
            var_map[name] = var
            theory.variables.append(var)
        elif head in ("declare-const", "declare-fun"):
            raise TheoryError(f"unbounded declaration {head!r} rejected: use (declare-int name low high)")
        elif head == "assert":
            if len(expr) != 2:
                raise TheoryError(f"assert takes one atom: {expr!r}")
            body = expr[1]
            name = None
            if isinstance(body, list) and body and body[0] == "!":
                if len(body) != 4 or body[2] != ":named":
                    raise TheoryError(f"malformed named assertion {body!r}")
                name = body[3]
                body = body[1]
            if name is None:
                auto += 1
                name = f"a{auto}"
            if name in used_names:
                raise TheoryError(f"duplicate assertion name {name!r}")
            used_names.add(name)
            theory.assertions.append((name, _parse_atom(body, var_map)))
        else:
            raise TheoryError(f"unsupported form {head!r}")
    return theory


# --------------------------------------------------------------------- ground


class GroundedTheory:
    """Order-encoded CNF for a theory, with the atom map needed to translate
    cores back to named constraints and to encode further atoms later."""

    __slots__ = ("formula", "order_vars", "var_map", "atoms")

    def __init__(self, formula: Formula,
                 order_vars: dict[tuple[str, int], int],  # (var name, k) -> prop var for x <= k
                 var_map: dict[str, IntVar],  # the theory's variables by name, built once
                 # atom text -> its constraint; shared by copies, which have the same variables
                 atoms: dict[str, LinConstraint] | None = None):
        self.formula, self.order_vars, self.var_map = formula, order_vars, var_map
        self.atoms = {} if atoms is None else atoms

    def copy(self) -> "GroundedTheory":
        """The same grounding over a copy of the formula, so atoms reified on
        the copy leave this one unchanged."""
        return GroundedTheory(self.formula.copy(), self.order_vars, self.var_map, self.atoms)

    def constraint(self, text: str) -> LinConstraint:
        """The constraint an atom text denotes over the theory's variables,
        parsed once per text."""
        c = self.atoms.get(text)
        if c is None:
            c = self.atoms[text] = parse_constraint(text, self.var_map)
        return c

    def _new_prop(self) -> int:
        self.formula.num_vars += 1
        return self.formula.num_vars

    def order_literal(self, name: str, k: int) -> int:
        return self.order_vars[(name, k)]

    def _add_clauses(self, c: LinConstraint, prefix: tuple[int, ...] = ()) -> None:
        """Append to the formula the CNF clauses asserting ``c`` whenever all
        prefix literals are false."""
        for _, name in c.terms:
            if name not in self.var_map:
                raise TheoryError(f"constraint references undeclared variable {name!r}")
        rel, k = c.relation, c.constant
        # a strict relation is the non-strict one with its bound one tighter
        if rel in ("<=", "<", "="):
            self._leq_clauses(c.terms, k - (rel == "<"), prefix)
        if rel in (">=", ">", "="):
            self._leq_clauses(_negate_terms(c.terms), -k - (rel == ">"), prefix)
        if rel == "!=":
            # one side selector: d -> (e <= k-1), not d -> (e >= k+1)
            d = self._new_prop()
            self._leq_clauses(c.terms, k - 1, prefix + (-d,))
            self._leq_clauses(_negate_terms(c.terms), -k - 1, prefix + (d,))

    def _leq_clauses(self, terms, bound: int, prefix: tuple[int, ...]) -> None:
        """Append the order-encoded CNF for ``sum(co * x) <= bound`` after
        ``prefix``; past ``MAX_CLAUSES`` in the whole formula, refuse.

        Every term but the last is branched on value by value; each branch
        extends the escape literals that rule its value out. The last term's
        bound is closed-form: with ``b`` left for it, ``co > 0`` needs
        ``x <= b // co`` and ``co < 0`` needs ``x > -(b // -co) - 1``, so each
        prefix gets one clause. Through the order ladder it subsumes the
        clause of every other violating value (Tamura et al., 2009)."""
        info = [(co, self.var_map[name]) for co, name in terms]
        n = len(info)
        min_suffix = [0] * (n + 1)
        max_suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            co, v = info[i]
            lo_c, hi_c = (co * v.lower, co * v.upper) if co > 0 else (co * v.upper, co * v.lower)
            min_suffix[i] = min_suffix[i + 1] + lo_c
            max_suffix[i] = max_suffix[i + 1] + hi_c

        table = (info, min_suffix, max_suffix, self.formula.clauses)
        self._leq_branch(table, 0, bound, list(prefix))

    def _leq_branch(self, table, i: int, b: int, escape: list[int]) -> None:
        """Append to ``clauses`` the clauses of terms ``i`` on with ``b`` left
        for them, after the literals of ``escape``. ``table`` is the state of
        the one ``_leq_clauses`` call: handed down, not closed over, so no
        call leaves a reference cycle behind."""
        info, min_suffix, max_suffix, clauses = table
        if b >= max_suffix[i]:
            return
        co, v = info[i]
        if b < min_suffix[i] or i == len(info) - 1:
            if len(clauses) >= MAX_CLAUSES:
                raise TheoryError(f"order encoding exceeds {MAX_CLAUSES} clauses")
            if b < min_suffix[i]:
                clauses.append(tuple(escape))
            elif co > 0:
                clauses.append((*escape, self.order_literal(v.name, b // co)))
            else:
                clauses.append((*escape, -self.order_literal(v.name, -(b // -co) - 1)))
            return
        if co > 0:
            for val in range(v.lower, v.upper + 1):
                if val > v.lower:
                    escape.append(self.order_literal(v.name, val - 1))
                    self._leq_branch(table, i + 1, b - co * val, escape)
                    escape.pop()
                else:
                    self._leq_branch(table, i + 1, b - co * val, escape)
        else:
            for val in range(v.lower, v.upper + 1):
                if val < v.upper:
                    escape.append(-self.order_literal(v.name, val))
                    self._leq_branch(table, i + 1, b - co * val, escape)
                    escape.pop()
                else:
                    self._leq_branch(table, i + 1, b - co * val, escape)

    def add_constraint(self, c: LinConstraint, name: str) -> None:
        self._emit(name, [(c, ())])

    def reify(self, c: LinConstraint, name: str) -> int:
        """Fresh literal equivalent to ``c`` over the integer semantics."""
        d = self._new_prop()
        self._emit(name, [(c, (-d,)), (c.negated(), (d,))])
        return d

    def _emit(self, name: str, parts) -> None:
        """Append the clauses of each (constraint, prefix); grounding errors
        are prefixed with ``name``."""
        try:
            for c, prefix in parts:
                self._add_clauses(c, prefix)
        except TheoryError as e:
            raise TheoryError(f"{name}: {e}") from None


def _negate_terms(terms):
    return tuple((-co, name) for co, name in terms)


def ground(theory: Theory) -> GroundedTheory:
    """Ground to an equisatisfiable CNF: the order ladder of every variable,
    then the clauses of each assertion in order."""
    formula = Formula()
    order_vars: dict[tuple[str, int], int] = {}
    for v in theory.variables:
        if v.width > DEFAULT_DOMAIN_WIDTH:
            raise TheoryError(
                f"{v.name}: domain width {v.width} exceeds bound {DEFAULT_DOMAIN_WIDTH}")
        for k in range(v.lower, v.upper):
            formula.num_vars += 1
            order_vars[(v.name, k)] = formula.num_vars

    gt = GroundedTheory(formula, order_vars, theory.var_map)
    for v in theory.variables:
        for k in range(v.lower, v.upper - 1):
            formula.clauses.append((-order_vars[(v.name, k)], order_vars[(v.name, k + 1)]))
    if len(formula.clauses) > MAX_CLAUSES:
        raise TheoryError(f"order encoding exceeds {MAX_CLAUSES} clauses")
    for name, constraint in theory.assertions:
        gt.add_constraint(constraint, name)
    return gt


# -------------------------------------------------------------- integer oracle

INT_ENUM_LIMIT = 2_000_000


def eval_constraint(c: LinConstraint, assignment: dict[str, int]) -> bool:
    total = sum(co * assignment[name] for co, name in c.terms)
    rel, k = c.relation, c.constant
    if rel == "<=":
        return total <= k
    if rel == "<":
        return total < k
    if rel == "=":
        return total == k
    if rel == ">=":
        return total >= k
    if rel == ">":
        return total > k
    return total != k


def enumerate_int_solutions(theory: Theory, cap: int | None = None) -> list[dict[str, int]]:
    """Brute-force integer solutions; the oracle side of grounding tests."""
    size = 1
    for v in theory.variables:
        size *= v.width
        if size > INT_ENUM_LIMIT:
            raise TheoryError(f"domain product exceeds enumeration limit {INT_ENUM_LIMIT}")
    names = [v.name for v in theory.variables]
    out = []
    for values in itertools.product(*(range(v.lower, v.upper + 1) for v in theory.variables)):
        assignment = dict(zip(names, values))
        if all(eval_constraint(c, assignment) for _, c in theory.assertions):
            out.append(assignment)
            if cap is not None and len(out) >= cap:
                break
    return out
