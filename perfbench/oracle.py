"""Gold-label check that does not use the CDCL solver.

Propositional cases (11-14 variables) are decided by bitset model counting
(``logic.count_models``) over the premises plus the query literal or its
negation. Temporal cases are decided by enumerating every integer solution
of the premises (``lia.enumerate_int_solutions``) and evaluating the query
constraint on each (``lia.eval_constraint``). A seeded sample of cases per
domain keeps the check to a few seconds.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from casecheck.lia import enumerate_int_solutions, eval_constraint, parse_constraint, parse_theory
from casecheck.logic import count_models, parse_dimacs

# Cases checked per domain. A 3-meeting temporal case enumerates ~350k
# assignments (~1.4 s), so the temporal sample is smaller.
SAMPLE = {"relational": 6, "policy": 6, "abductive": 6, "temporal": 3}


def _label(holds_somewhere: bool, fails_somewhere: bool) -> str:
    if not fails_somewhere:
        return "entailed"
    if not holds_somewhere:
        return "contradicted"
    return "unknown"


def _dimacs_labels(record: dict) -> list[str]:
    formula = parse_dimacs(record["premises"])
    if count_models(formula) == 0:
        raise ValueError("premises are unsatisfiable")
    labels = []
    for q in record["queries"]:
        with_atom, without_atom = formula.copy(), formula.copy()
        with_atom.add_clause([q["atom"]])
        without_atom.add_clause([-q["atom"]])
        labels.append(_label(count_models(with_atom) > 0, count_models(without_atom) > 0))
    return labels


def _theory_labels(record: dict) -> list[str]:
    theory = parse_theory(record["premises"])
    solutions = enumerate_int_solutions(theory)
    if not solutions:
        raise ValueError("premises have no integer solution")
    labels = []
    for q in record["queries"]:
        constraint = parse_constraint(q["atom"], theory.var_map)
        values = {eval_constraint(constraint, s) for s in solutions}
        labels.append(_label(True in values, False in values))
    return labels


def check_corpus(path: Path, seed: int) -> tuple[int, list[str]]:
    """Re-derive the gold labels of a seeded sample of cases; returns the
    number of queries checked and one message per mismatch."""
    by_domain: dict[str, list[dict]] = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            by_domain.setdefault(record["domain"], []).append(record)
    rng = random.Random(seed)
    checked, mismatches = 0, []
    for domain in sorted(by_domain):
        records = by_domain[domain]
        for record in rng.sample(records, min(SAMPLE.get(domain, 3), len(records))):
            derive = _theory_labels if record["premises_format"] == "theory" else _dimacs_labels
            for q, label in zip(record["queries"], derive(record)):
                checked += 1
                if q["gold_label"] != label:
                    mismatches.append(f"{record['id']}/{q['id']}: corpus says "
                                      f"{q['gold_label']}, oracle says {label}")
    return checked, mismatches
