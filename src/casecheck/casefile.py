"""Case files and query bundles: data model, on-disk corpus format, gold-label
derivation by entailment checking, and case-level splits.

Corpus files are line-delimited JSON, one case per line. Propositional cases
carry DIMACS premises and integer query atoms; temporal cases carry theory
text and constraint-text atoms that are reified to fresh literals when the
case is compiled. ``Query`` and ``CaseFile`` declare a record once, for the
checker every JSON input shares (``schema``); keys that are no field are
kept verbatim, so files from other producers round-trip.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

from . import Domain, InputError, Label, schema
from .lia import GroundedTheory, TheoryError, ground, parse_theory
from .logic import Formula, LogicError, parse_dimacs
from .schema import member, must
from .solver import SolveResult, SolveStatus, SolverSession


OPPOSITE_LABEL = {Label.ENTAILED: Label.CONTRADICTED, Label.CONTRADICTED: Label.ENTAILED}


def majority_label(labels: Sequence[Label]) -> Label:
    """The most frequent of a nonempty label list; a tie for the top count
    yields Unknown."""
    counts = {label: labels.count(label) for label in set(labels)}
    best = max(counts.values())
    top = [label for label, n in counts.items() if n == best]
    return top[0] if len(top) == 1 else Label.UNKNOWN


def subseed(*parts) -> int:
    """The seed derived from ``parts``: the first 8 bytes, big-endian, of the
    sha256 of their ``:``-joined text."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class CaseError(InputError):
    pass


class CorpusFormatError(CaseError):
    pass


class LabelTimeout(CaseError):
    """A gold-label solver check exceeded its budget; the label is refused."""


class Query:
    """One query of a case. Its ``atom`` is a literal of DIMACS premises, or
    constraint text of theory premises, kept as ``atom_text`` until reified."""

    UNKNOWN_KEYS = "kept"
    id: str
    atom: int | str
    gold_label: str | None
    text: str | None
    depends_on: list[str]
    __slots__ = ("id", "atom", "gold_label", "text", "depends_on", "extra", "atom_text")

    def __init__(self, id, atom, gold_label=None, text=None, depends_on=None, extra=None):
        self.id, self.text = id, text
        self.atom, self.atom_text = (0, atom) if type(atom) is str else (atom, None)
        self.gold_label = None if gold_label is None else member(Label, "gold_label", gold_label)
        self.depends_on = [] if depends_on is None else depends_on
        self.extra = {} if extra is None else extra


class CaseFile:
    """One case, premises and queries; a missing ``premises_format`` is read off the premises."""

    UNKNOWN_KEYS = "kept"
    id: str
    domain: str
    premises: str
    queries: list[Query]
    premises_format: str | None
    split: str | None
    __slots__ = ("id", "domain", "premises", "queries", "premises_format", "split", "extra",
                 "formula")

    def __init__(self, id, domain, premises, queries, premises_format=None, split=None,
                 extra=None):
        self.id, self.domain = id, member(Domain, "domain", domain)
        if premises_format is None:
            premises_format = ("dimacs" if premises.lstrip().startswith(("p cnf", "c", "p"))
                               else "theory")
        elif premises_format not in ("dimacs", "theory"):
            raise must("premises_format", "one of dimacs, theory", premises_format)
        dimacs, ids = premises_format == "dimacs", set()
        for j, q in enumerate(queries):
            if q.id in ids:
                raise must(f"queries[{j}].id", "unique in its case", q.id)
            ids.add(q.id)
            if (not q.atom_text) != dimacs:
                raise must(f"queries[{j}].atom", "a literal (an integer) for DIMACS premises"
                           if dimacs else "constraint text for theory premises",
                           q.atom if q.atom_text is None else q.atom_text)
        self.premises, self.premises_format, self.queries = premises, premises_format, queries
        self.split, self.formula, self.extra = split, None, {} if extra is None else extra

    @property
    def bundle_size(self) -> int:
        return len(self.queries)

    def new_session(self) -> tuple[SolverSession, set[int]]:
        """A labelling session over satisfiable premises, with the literals
        true in its premise check's model: raises CaseError when they are
        unsatisfiable and LabelTimeout when the check runs out of budget."""
        if self.formula is None:
            raise CaseError(f"case {self.id} is not compiled")
        session = SolverSession(self.formula)
        return session, set(check_premises(session, self.id).true_literals)


def check_premises(session: SolverSession, case_id: str | None) -> SolveResult:
    """One solve with no assumptions on a session over the case premises;
    returns its SAT result."""
    res = session.solve()
    if res.status is SolveStatus.UNSAT:
        raise CaseError(f"case {case_id}: premises are unsatisfiable")
    if res.status is SolveStatus.TIMEOUT:
        raise LabelTimeout(f"case {case_id}: premise satisfiability check timed out")
    return res


def compile_premises(premises: str, premises_format: str) -> Formula | GroundedTheory:
    """The premises alone, compiled: DIMACS text to its formula, theory text
    to its grounding before any query atom is reified."""
    if premises_format == "dimacs":
        return parse_dimacs(premises)
    return ground(parse_theory(premises))


def compile_case(case: CaseFile, premises: Formula | GroundedTheory | None = None) -> CaseFile:
    """Build the case formula on ``premises``, the case's compiled premises,
    compiling them first when the caller has none. A DIMACS case uses the
    premise formula itself; a theory case reifies each query atom to a fresh
    literal on a copy of the grounding, so one compile serves every case
    over the same premises, and its grounding errors name ``query:<id>``.
    Parsing and grounding only: the premises are checked by whatever
    session uses them."""
    if premises is None:
        premises = compile_premises(case.premises, case.premises_format)
    if case.premises_format == "dimacs":
        case.formula = premises
        for q in case.queries:
            if q.atom == 0 or abs(q.atom) > case.formula.num_vars:
                raise CorpusFormatError(f"query {q.id}: atom {q.atom!r} outside premise vocabulary")
    else:
        grounded = premises.copy()
        for q in case.queries:
            q.atom = grounded.reify(grounded.constraint(q.atom_text), f"query:{q.id}")
        case.formula = grounded.formula
    return case


def literal_gold_label(session: SolverSession, atom: int,
                       witnesses: set[int] | None = None) -> Label:
    """Label of a literal against satisfiable premises: exactly one of the
    three labels, decided by whether ``-atom`` and ``atom`` are each possible.
    ``witnesses`` holds the literals true in some model the session has
    returned in this labelling pass, from its premise check on: a witnessed
    literal is possible without a solve, and each model a check returns joins
    the set (backbone computation with model filtering: Janota, Lynce &
    Marques-Silva, AI Communications 2015). A fresh set skips no check."""
    if witnesses is None:
        witnesses = set()
    for lit, label, check in ((-atom, Label.ENTAILED, "entailment"),
                              (atom, Label.CONTRADICTED, "refutation")):
        if lit in witnesses:
            continue
        res = session.solve(assumptions=[lit])
        if res.status is SolveStatus.TIMEOUT:
            raise LabelTimeout(f"{check} check timed out")
        if res.status is SolveStatus.UNSAT:
            return label
        witnesses.update(res.true_literals)
    return Label.UNKNOWN


def label_case(case: CaseFile) -> None:
    """Fill gold labels for every query, sharing one witness set seeded with
    the premise model; raises LabelTimeout on budget hits."""
    session, witnesses = case.new_session()
    for q in case.queries:
        q.gold_label = literal_gold_label(session, q.atom, witnesses)


# ------------------------------------------------------------------ corpus io


def case_to_record(case: CaseFile) -> dict:
    theory = case.premises_format == "theory"
    queries = [{**schema.dump(q), "atom": q.atom_text if theory else q.atom,
                "gold_label": q.gold_label and q.gold_label.value} for q in case.queries]
    return {**schema.dump(case), "domain": case.domain.value, "queries": queries}


def save_corpus(cases: Iterable[CaseFile], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for case in cases:
            fh.write(json.dumps(case_to_record(case), sort_keys=True) + "\n")


def load_corpus(path: str | Path) -> list[CaseFile]:
    """The compiled cases of a corpus file, line ``i + 1`` being ``cases[i]``.
    A bad record raises CorpusFormatError naming ``cases[i]`` and the field,
    or the case whose premises or atoms do not compile; so does a case id
    that an earlier line holds."""
    try:
        linenos, cases = schema.read_lines(CaseFile, path)
    except schema.Unfit as exc:
        raise CorpusFormatError(str(exc.under(f"cases[{exc.line - 1}]")) if exc.line
                                else f"{path}{exc.problem}") from None
    ids = set()
    for lineno, case in zip(linenos, cases):
        if case.id in ids:
            raise CorpusFormatError(str(must(f"cases[{lineno - 1}].id", "unique in the corpus",
                                             case.id)))
        ids.add(case.id)
        try:
            compile_case(case)
        except (CorpusFormatError, TheoryError, LogicError) as exc:
            raise CorpusFormatError(f"cases[{lineno - 1}] (case {case.id}): {exc}") from exc
    return cases


# --------------------------------------------------------------------- splits


def split_cases(cases: Sequence[CaseFile], ratios: Sequence[float] = (0.8, 0.1, 0.1),
                seed: int = 0) -> list[CaseFile]:
    """Partition into train, dev and test at case granularity with
    deterministic shuffling; bundle membership never straddles splits.
    Counts use largest-remainder rounding."""
    names = ("train", "dev", "test")
    if len(ratios) != len(names):
        raise ValueError(f"expected {len(names)} split ratios, got {len(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios sum to {sum(ratios)}, expected 1")
    import random

    n = len(cases)
    exact = [r * n for r in ratios]
    counts = [int(x) for x in exact]
    remainder = n - sum(counts)
    by_fraction = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in range(remainder):
        counts[by_fraction[i % len(counts)]] += 1

    order = list(range(n))
    random.Random(seed).shuffle(order)
    pos = 0
    for name, count in zip(names, counts):
        for idx in order[pos:pos + count]:
            cases[idx].split = name
        pos += count
    return list(cases)
