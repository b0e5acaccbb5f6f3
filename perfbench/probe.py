"""Host-speed probe: a fixed pure-Python job that shares no code with
``casecheck``.

``run.py`` runs this script in a child process after every child it times.
Its wall time tracks how fast the shared host runs Python at that moment:
interpreter start-up, the standard-library imports the CLI makes, JSON round
trips, dict and list work, sorting and a small unit-propagation loop.
``run.py`` scales each timed child by the probes on either side of it, so
host drift cancels while a change to ``casecheck`` still shows in full.

Usage: python3 perfbench/probe.py
"""

from __future__ import annotations

import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import hashlib
import itertools  # noqa: F401
import json
import logging  # noqa: F401
import random
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass
from enum import Enum
from heapq import heappop, heappush


class Kind(Enum):
    DIMACS = "dimacs"
    TEMPORAL = "temporal"


@dataclass(frozen=True)
class Row:
    id: str
    kind: Kind
    clauses: tuple[tuple[int, ...], ...]


def propagate(clauses, assignment: dict[int, bool]) -> bool:
    """Unit propagation to a fixpoint; False on a conflict."""
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            free, sat = [], False
            for lit in clause:
                value = assignment.get(abs(lit))
                if value is None:
                    free.append(lit)
                elif value == (lit > 0):
                    sat = True
                    break
            if sat:
                continue
            if not free:
                return False
            if len(free) == 1:
                assignment[abs(free[0])] = free[0] > 0
                changed = True
    return True


def main() -> int:
    rng = random.Random(20260417)
    rows = []
    for i in range(300):
        n_vars = rng.randint(11, 14)
        clauses = tuple(tuple(rng.choice((-1, 1)) * rng.randint(1, n_vars) for _ in range(3))
                        for _ in range(rng.randint(30, 45)))
        rows.append(Row(f"p{i:05d}", rng.choice(list(Kind)), clauses))
    text = "\n".join(json.dumps({**asdict(r), "kind": r.kind.value}) for r in rows)
    loaded = [json.loads(line) for line in text.splitlines()]

    by_kind: dict[str, list[str]] = defaultdict(list)
    conflicts, heap = 0, []
    for row in loaded:
        by_kind[row["kind"]].append(row["id"])
        clauses = [tuple(c) for c in row["clauses"]]
        for first in (1, -1, 2, -2):
            if not propagate(clauses, {abs(first): first > 0}):
                conflicts += 1
        heappush(heap, (len({abs(l) for c in clauses for l in c}), row["id"]))
    order = [heappop(heap)[1] for _ in range(len(heap))]
    digest = hashlib.sha256((text + "".join(order)).encode()).hexdigest()
    return 0 if digest and conflicts >= 0 and by_kind else 1


if __name__ == "__main__":
    raise SystemExit(main())
