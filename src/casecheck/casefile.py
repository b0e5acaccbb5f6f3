"""Case files and query bundles: data model, on-disk corpus format, gold-label
derivation by entailment checking, and case-level splits.

Corpus files are line-delimited JSON, one case per line. Propositional cases
carry DIMACS premises and integer query atoms; temporal cases carry theory
text and constraint-text atoms that are reified to fresh literals when the
case is compiled. Unknown record fields are preserved verbatim so files from
other producers round-trip.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from . import InputError
from .lia import GroundedTheory, TheoryError, ground, parse_theory
from .logic import Formula, LogicError, parse_dimacs
from .solver import SolveResult, SolveStatus, SolverSession


class Label(str, Enum):
    ENTAILED = "entailed"
    CONTRADICTED = "contradicted"
    UNKNOWN = "unknown"


OPPOSITE_LABEL = {Label.ENTAILED: Label.CONTRADICTED, Label.CONTRADICTED: Label.ENTAILED}


def majority_label(labels: Sequence[Label]) -> Label:
    """The most frequent of a nonempty label list; a tie for the top count
    yields Unknown."""
    counts = {label: labels.count(label) for label in set(labels)}
    best = max(counts.values())
    top = [label for label, n in counts.items() if n == best]
    return top[0] if len(top) == 1 else Label.UNKNOWN


class Domain(str, Enum):
    RELATIONAL = "relational"
    TEMPORAL = "temporal"
    POLICY = "policy"
    ABDUCTIVE = "abductive"


class CaseError(InputError):
    pass


class CorpusFormatError(CaseError):
    pass


class LabelTimeout(CaseError):
    """A gold-label solver check exceeded its budget; the label is refused."""


_QUERY_FIELDS = {"id", "atom", "gold_label", "text", "depends_on"}
_CASE_FIELDS = {"id", "domain", "split", "premises", "premises_format", "queries"}
_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}


class Query:
    __slots__ = ("id", "atom", "gold_label", "text", "depends_on", "atom_text", "extra")

    def __init__(self, id: str, atom: int,  # literal in the compiled formula
                 gold_label: Label | None = None, text: str | None = None,
                 depends_on: list[str] | None = None,
                 atom_text: str | None = None,  # source constraint text for theory cases
                 extra: dict | None = None):
        self.id, self.atom, self.gold_label, self.text = id, atom, gold_label, text
        self.depends_on = [] if depends_on is None else depends_on
        self.atom_text = atom_text
        self.extra = {} if extra is None else extra


class CaseFile:
    __slots__ = ("id", "domain", "premises", "premises_format", "queries", "split", "formula",
                 "extra")

    def __init__(self, id: str, domain: Domain, premises: str,
                 premises_format: str,  # "dimacs" | "theory"
                 queries: list[Query], split: str | None = None,
                 formula: Formula | None = None, extra: dict | None = None):
        self.id, self.domain, self.premises = id, domain, premises
        self.premises_format, self.queries = premises_format, queries
        self.split, self.formula = split, formula
        self.extra = {} if extra is None else extra

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
    if premises_format == "theory":
        return ground(parse_theory(premises))
    raise CorpusFormatError(f"unknown premises_format {premises_format!r}")


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
            if not isinstance(q.atom, int) or q.atom == 0 or abs(q.atom) > case.formula.num_vars:
                raise CorpusFormatError(f"query {q.id}: atom {q.atom!r} outside premise vocabulary")
    else:
        grounded = premises.copy()
        for q in case.queries:
            if not q.atom_text:
                raise CorpusFormatError(f"query {q.id}: missing constraint atom")
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
    queries = []
    for q in case.queries:
        rec = {
            "id": q.id,
            "atom": q.atom_text if case.premises_format == "theory" else q.atom,
            "gold_label": q.gold_label.value if q.gold_label else None,
            "text": q.text,
            "depends_on": list(q.depends_on),
        }
        rec.update(q.extra)
        queries.append(rec)
    record = {
        "id": case.id,
        "domain": case.domain.value,
        "split": case.split,
        "premises": case.premises,
        "premises_format": case.premises_format,
        "queries": queries,
    }
    record.update(case.extra)
    return record


def case_from_record(record: dict, index: int = 0,
                     premises: Formula | GroundedTheory | None = None) -> CaseFile:
    """The compiled case a corpus record describes; ``premises``, when given,
    are the record's premises already compiled by ``compile_premises``.
    Malformed records raise CorpusFormatError naming ``cases[index]`` and
    the field."""
    path = f"cases[{index}]"

    def need(d: dict, key: str, where: str, kind: type | None = None):
        if key not in d:
            raise CorpusFormatError(f"{where}.{key}: missing required field")
        return typed(d[key], f"{where}.{key}", kind) if kind else d[key]

    def typed(value, where: str, kind: type):
        if not isinstance(value, kind):
            raise CorpusFormatError(f"{where}: expected {_KIND_NAMES[kind]}, "
                                    f"got {type(value).__name__}")
        return value

    typed(record, path, dict)
    case_id = need(record, "id", path)
    domain_raw = need(record, "domain", path)
    try:
        domain = Domain(domain_raw)
    except ValueError:
        raise CorpusFormatError(f"{path}.domain: unknown domain {domain_raw!r}")
    premises_text = need(record, "premises", path, str)
    fmt = record.get("premises_format")
    if fmt is None:
        fmt = "dimacs" if premises_text.lstrip().startswith(("p cnf", "c", "p")) else "theory"
    queries, query_ids = [], set()
    for j, qrec in enumerate(need(record, "queries", path, list)):
        qpath = f"{path}.queries[{j}]"
        typed(qrec, qpath, dict)
        gold_raw = qrec.get("gold_label")
        try:
            gold = Label(gold_raw) if gold_raw is not None else None
        except ValueError:
            raise CorpusFormatError(f"{qpath}.gold_label: unknown label {gold_raw!r}")
        atom = need(qrec, "atom", qpath)
        if fmt == "theory":
            if not isinstance(atom, str):
                raise CorpusFormatError(f"{qpath}.atom: theory cases need constraint text")
            atom_text, atom_lit = atom, 0
        else:
            if type(atom) is not int:  # a JSON boolean is no literal
                raise CorpusFormatError(f"{qpath}.atom: expected a literal (int)")
            atom_text, atom_lit = None, atom
        query_id = str(need(qrec, "id", qpath))
        if query_id in query_ids:
            raise CorpusFormatError(f"{qpath}.id: duplicate query id {query_id!r}")
        query_ids.add(query_id)
        queries.append(Query(
            id=query_id,
            atom=atom_lit,
            gold_label=gold,
            text=qrec.get("text"),
            depends_on=[str(d) for d in typed(qrec.get("depends_on", []),
                                              f"{qpath}.depends_on", list)],
            atom_text=atom_text,
            extra={k: v for k, v in qrec.items() if k not in _QUERY_FIELDS},
        ))
    case = CaseFile(
        id=str(case_id),
        domain=domain,
        premises=premises_text,
        premises_format=fmt,
        queries=queries,
        split=record.get("split"),
        extra={k: v for k, v in record.items() if k not in _CASE_FIELDS},
    )
    try:
        compile_case(case, premises)
    except (CorpusFormatError, TheoryError, LogicError) as exc:
        raise CorpusFormatError(f"{path} (case {case.id}): {exc}") from exc
    return case


def save_corpus(cases: Iterable[CaseFile], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for case in cases:
            fh.write(json.dumps(case_to_record(case), sort_keys=True) + "\n")


def load_corpus(path: str | Path) -> list[CaseFile]:
    cases = []
    with Path(path).open("r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"cases[{i}]: invalid JSON ({exc})")
            cases.append(case_from_record(record, index=i))
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
