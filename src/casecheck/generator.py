"""Deterministic synthetic case generation.

Each domain has its own recipe (planted-model random CNF, interval scheduling
over bounded integers, ground rule sets, and an underconstrained variant) but
all share the same assembly: build satisfiable premises, scan the vocabulary
for entailed/contradicted/contingent atoms with the solver, then draw a 5-8
query bundle containing every label class, a dependency pair over a shared
atom, and an Unknown share targeted at roughly 18% corpus-wide.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .casefile import CaseFile, Domain, Label, Query, compile_case, literal_gold_label
from .lia import format_constraint, parse_constraint, parse_theory
from .logic import Formula, emit_dimacs
from .solver import SolverSession

DEFAULT_DOMAIN_MIX = {
    Domain.RELATIONAL: 120,
    Domain.TEMPORAL: 100,
    Domain.POLICY: 80,
    Domain.ABDUCTIVE: 90,
}

MAX_ATTEMPTS = 30


class GenerationError(RuntimeError):
    pass


@dataclass
class GeneratorSpec:
    domain_mix: dict[Domain, int] = field(default_factory=lambda: dict(DEFAULT_DOMAIN_MIX))
    bundle_min: int = 5
    bundle_max: int = 8


def _subseed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _plan_counts(rng: random.Random, size: int, domain: Domain) -> dict[Label, int]:
    """Per-bundle label counts: at least one of each class; the Unknown share
    lands near 18% corpus-wide, with the underconstrained domain heavier."""
    extra_p = 0.5 if domain is Domain.ABDUCTIVE else 0.10
    n_unknown = min(1 + (1 if rng.random() < extra_p else 0), size - 2)
    rest = size - n_unknown
    n_entailed = 1 + sum(1 for _ in range(rest - 2) if rng.random() < 0.5)
    return {
        Label.ENTAILED: n_entailed,
        Label.CONTRADICTED: rest - n_entailed,
        Label.UNKNOWN: n_unknown,
    }


def _literal_pools(session: SolverSession, num_vars: int) -> dict[Label, list[int]]:
    pools: dict[Label, list[int]] = {Label.ENTAILED: [], Label.CONTRADICTED: [], Label.UNKNOWN: []}
    for v in range(1, num_vars + 1):
        label = literal_gold_label(session, v)
        if label is Label.ENTAILED:
            pools[Label.ENTAILED].append(v)
            pools[Label.CONTRADICTED].append(-v)
        elif label is Label.CONTRADICTED:
            pools[Label.ENTAILED].append(-v)
            pools[Label.CONTRADICTED].append(v)
        else:
            pools[Label.UNKNOWN].append(v)
            pools[Label.UNKNOWN].append(-v)
    return pools


# ------------------------------------------------------------- CNF premises


def _planted_clauses(rng: random.Random, num_vars: int, n_clauses: int,
                     model: list[bool], width: int = 3, horn: bool = False) -> list[list[int]]:
    clauses = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        lits = []
        for v in vs:
            pol = rng.random() < 0.5
            lits.append(v if pol else -v)
        if horn:
            positives = [l for l in lits if l > 0]
            for extra in positives[1:]:
                lits[lits.index(extra)] = -extra
        if not any((l > 0) == model[abs(l) - 1] for l in lits):
            flip = rng.choice(range(len(lits)))
            l = lits[flip]
            lits[flip] = abs(l) if model[abs(l) - 1] else -abs(l)
        clauses.append(lits)
    return clauses


def _cnf_premises(rng: random.Random, domain: Domain) -> str:
    """Planted-model CNF with a chain-forced backbone: facts plus implication
    chains pin a known set of variables, texture clauses stay satisfiable."""
    num_vars = rng.randint(11, 14)
    model = [rng.random() < 0.5 for _ in range(num_vars)]
    if domain is Domain.ABDUCTIVE:
        n_forced, ratio = 4, 0.9
    else:
        n_forced, ratio = 7, 1.3

    def lit(v: int) -> int:
        return v if model[v - 1] else -v

    forced = rng.sample(range(1, num_vars + 1), n_forced)
    clauses: list[list[int]] = []
    for i, v in enumerate(forced):
        if i < 2:
            clauses.append([lit(v)])  # root facts
        else:
            parent = forced[rng.randrange(i)]
            clauses.append([-lit(parent), lit(v)])
    # tight binary constraints over the open variables: individually plausible
    # assertions can still be jointly infeasible across queries
    open_vars = [v for v in range(1, num_vars + 1) if v not in forced]
    rng.shuffle(open_vars)
    for x, z in zip(open_vars[0::2], open_vars[1::2]):
        a = x if rng.random() < 0.5 else -x
        b = z if rng.random() < 0.5 else -z
        if not ((a > 0) == model[x - 1] or (b > 0) == model[z - 1]):
            a = -a
        clauses.append([a, b])
    horn = domain is Domain.POLICY
    clauses.extend(_planted_clauses(rng, num_vars, int(num_vars * ratio), model, horn=horn))
    if domain is Domain.ABDUCTIVE:
        keep = n_forced + max(2, int((len(clauses) - n_forced) * 0.6))
        clauses = clauses[:keep]
    f = Formula(num_vars=num_vars)
    for c in clauses:
        f.add_clause(c)
    return emit_dimacs(f)


_TEXT_TEMPLATES = {
    Domain.RELATIONAL: ("Is fact f{v} established?", "Does the record rule out f{v}?"),
    Domain.POLICY: ("Is permission p{v} granted?", "Is permission p{v} denied by policy?"),
    Domain.ABDUCTIVE: ("Can hypothesis h{v} hold?", "Is hypothesis h{v} excluded?"),
}


def _query_text(domain: Domain, atom: int, rng: random.Random) -> str:
    pos_t, neg_t = _TEXT_TEMPLATES[domain]
    return (pos_t if atom > 0 else neg_t).format(v=abs(atom))


def _generate_cnf_case(domain: Domain, seed: int, case_id: str,
                       spec: GeneratorSpec) -> CaseFile:
    rng = random.Random(seed)
    premises = _cnf_premises(rng, domain)
    case = CaseFile(id=case_id, domain=domain, premises=premises,
                    premises_format="dimacs", queries=[])
    compile_case(case)
    session = case.new_session()
    pools = _literal_pools(session, case.formula.num_vars)

    size = rng.randint(spec.bundle_min, spec.bundle_max)
    counts = _plan_counts(rng, size, domain)
    if not pools[Label.ENTAILED] or not pools[Label.UNKNOWN]:
        raise GenerationError("label pools too small")

    picks: list[tuple[int, Label]] = []
    used_atoms: set[int] = set()
    # dependency pair first: two queries over one shared variable
    if counts[Label.UNKNOWN] >= 2:
        w = rng.choice(sorted({abs(l) for l in pools[Label.UNKNOWN]}))
        pair = [(w, Label.UNKNOWN), (-w, Label.UNKNOWN)]
        counts[Label.UNKNOWN] -= 2
    else:
        e = rng.choice(pools[Label.ENTAILED])
        pair = [(e, Label.ENTAILED), (-e, Label.CONTRADICTED)]
        counts[Label.ENTAILED] -= 1
        counts[Label.CONTRADICTED] -= 1
    picks.extend(pair)
    used_atoms.update(l for l, _ in pair)

    # entailed/contradicted shortfalls spill into Unknown (thin backbones)
    for label in (Label.ENTAILED, Label.CONTRADICTED, Label.UNKNOWN):
        candidates = [l for l in pools[label] if l not in used_atoms]
        rng.shuffle(candidates)
        chosen = candidates[:counts[label]]
        if label is not Label.UNKNOWN:
            counts[Label.UNKNOWN] += counts[label] - len(chosen)
        elif len(chosen) < counts[label]:
            raise GenerationError("not enough contingent atoms")
        used_atoms.update(chosen)
        picks.extend((l, label) for l in chosen)
    if {lbl for _, lbl in picks} != set(Label):
        raise GenerationError("bundle missing a label class")

    order = list(range(len(picks)))
    rng.shuffle(order)
    pair_positions = sorted(order.index(i) for i in (0, 1))
    queries = []
    for pos, idx in enumerate(order):
        atom, label = picks[idx]
        queries.append(Query(
            id=f"q{pos + 1}",
            atom=atom,
            gold_label=label,
            text=_query_text(domain, atom, rng),
        ))
    queries[pair_positions[1]].depends_on = [queries[pair_positions[0]].id]
    case.queries = queries

    for q in case.queries:  # generation self-check against the solver
        assert literal_gold_label(session, q.atom) is q.gold_label
    return case


# --------------------------------------------------------- temporal premises


def _generate_temporal_case(seed: int, case_id: str, spec: GeneratorSpec) -> CaseFile:
    rng = random.Random(seed)
    n_meetings = 2 if rng.random() < 0.7 else 3
    names = ["A", "B", "C"][:n_meetings]
    durations = {m: rng.randint(2, 4) for m in names}
    horizon = rng.randint(8, 10)

    lines = []
    for m in names:
        lines.append(f"(declare-int start_{m} 0 6)")
        lines.append(f"(declare-int end_{m} 0 {6 + durations[m]})")
    for m in names:
        lines.append(f"(assert (! (= end_{m} (+ start_{m} {durations[m]})) :named dur_{m}))")
    if rng.random() < 0.7:
        lines.append("(assert (! (<= start_A start_B) :named order_ab))")
    lines.append(f"(assert (! (<= end_{names[-1]} {horizon}) :named horizon))")
    if rng.random() < 0.4:
        lines.append(f"(assert (! (>= start_A {rng.randint(1, 2)}) :named window_a))")
    premises = "\n".join(lines) + "\n"
    var_map = parse_theory(premises).var_map

    def complement(atom_text: str) -> str:
        return format_constraint(parse_constraint(atom_text, var_map).negated())

    # candidate atoms, each with its complement so every label class can appear
    candidates: list[tuple[str, str]] = []
    for m in names:
        k = rng.randint(1, 5)
        candidates.append((f"(<= start_{m} {k})", f"Does meeting {m} start by slot {k}?"))
        j = rng.randint(2, horizon)
        candidates.append((f"(>= end_{m} {j})", f"Does meeting {m} run past slot {j - 1}?"))
        candidates.append((f"(<= end_{m} {horizon})", f"Does meeting {m} finish inside the horizon?"))
        candidates.append((f"(>= end_{m} {durations[m]})", f"Does meeting {m} run at least its booked length?"))
        candidates.append((f"(<= start_{m} 6)", f"Does meeting {m} start inside the scheduling window?"))
    candidates.append(("(< start_B end_A)", "Can meeting A overlap meeting B?"))
    candidates.append(("(>= start_B end_A)", "Is the shared room free of overlaps?"))
    expanded: list[tuple[str, str]] = []
    seen_atoms: set[str] = set()
    for atom_text, text in candidates:
        for variant_text, variant_q in ((atom_text, text), (complement(atom_text), f"[negated] {text}")):
            if variant_text not in seen_atoms:
                seen_atoms.add(variant_text)
                expanded.append((variant_text, variant_q))

    probe = CaseFile(
        id=case_id, domain=Domain.TEMPORAL, premises=premises, premises_format="theory",
        queries=[Query(id=f"c{i}", atom=0, atom_text=a, text=t) for i, (a, t) in enumerate(expanded)],
    )
    compile_case(probe)
    session = probe.new_session()
    pools: dict[Label, list[tuple[str, str]]] = {lbl: [] for lbl in Label}
    for q in probe.queries:
        pools[literal_gold_label(session, q.atom)].append((q.atom_text, q.text))

    size = rng.randint(spec.bundle_min, spec.bundle_max)
    counts = _plan_counts(rng, size, Domain.TEMPORAL)

    picks: list[tuple[str, str, Label]] = []
    overlap = "(< start_B end_A)"
    no_overlap = "(>= start_B end_A)"
    pool_texts = {a for lbl in Label for a, _ in pools[lbl]}
    dep_pair: list[tuple[str, str, Label]] = []
    if counts[Label.UNKNOWN] >= 2 and overlap in {a for a, _ in pools[Label.UNKNOWN]} \
            and no_overlap in {a for a, _ in pools[Label.UNKNOWN]}:
        dep_pair = [(overlap, "Can meeting A overlap meeting B?", Label.UNKNOWN),
                    (no_overlap, "Is the shared room free of overlaps?", Label.UNKNOWN)]
        counts[Label.UNKNOWN] -= 2
    else:
        for atom_text, text in pools[Label.ENTAILED]:
            comp = complement(atom_text)
            if comp in pool_texts and counts[Label.ENTAILED] and counts[Label.CONTRADICTED]:
                dep_pair = [(atom_text, text, Label.ENTAILED),
                            (comp, f"[negated] {text}", Label.CONTRADICTED)]
                counts[Label.ENTAILED] -= 1
                counts[Label.CONTRADICTED] -= 1
                break
    if not dep_pair:
        raise GenerationError("no dependency pair available")
    picks.extend(dep_pair)
    used = {a for a, _, _ in picks}

    for label in (Label.ENTAILED, Label.CONTRADICTED):
        available = [(a, t) for a, t in pools[label] if a not in used]
        rng.shuffle(available)
        chosen = available[:counts[label]]
        counts[Label.UNKNOWN] += counts[label] - len(chosen)
        for a, t in chosen:
            picks.append((a, t, label))
            used.add(a)
    available = [(a, t) for a, t in pools[Label.UNKNOWN] if a not in used]
    rng.shuffle(available)
    if len(available) < counts[Label.UNKNOWN]:
        raise GenerationError("not enough contingent temporal atoms")
    for a, t in available[:counts[Label.UNKNOWN]]:
        picks.append((a, t, Label.UNKNOWN))
        used.add(a)

    order = list(range(len(picks)))
    rng.shuffle(order)
    pair_positions = sorted(order.index(i) for i in (0, 1))
    queries = []
    for pos, idx in enumerate(order):
        atom_text, text, label = picks[idx]
        queries.append(Query(id=f"q{pos + 1}", atom=0, atom_text=atom_text,
                             gold_label=label, text=text))
    queries[pair_positions[1]].depends_on = [queries[pair_positions[0]].id]

    case = CaseFile(id=case_id, domain=Domain.TEMPORAL, premises=premises,
                    premises_format="theory", queries=queries)
    compile_case(case)
    session = case.new_session()
    for q in case.queries:
        assert literal_gold_label(session, q.atom) is q.gold_label
    return case


# ----------------------------------------------------------------- top level


def generate_casefile(domain: Domain, seed: int, case_id: str | None = None,
                      spec: GeneratorSpec | None = None) -> CaseFile:
    """Deterministic case generation; same arguments give identical cases.

    Retries with derived sub-seeds on degenerate draws and reports exhaustion
    instead of looping forever."""
    spec = spec or GeneratorSpec()
    case_id = case_id or f"{domain.value[:3]}-{seed & 0xFFFF:05d}"
    last_error: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        attempt_seed = seed if attempt == 0 else _subseed(seed, "retry", attempt)
        try:
            if domain is Domain.TEMPORAL:
                return _generate_temporal_case(attempt_seed, case_id, spec)
            return _generate_cnf_case(domain, attempt_seed, case_id, spec)
        except GenerationError as exc:
            last_error = exc
    raise GenerationError(
        f"generation for {domain.value} seed {seed} exhausted {MAX_ATTEMPTS} attempts: {last_error}")


def generate_corpus(spec: GeneratorSpec | None = None, seed: int = 0) -> list[CaseFile]:
    spec = spec or GeneratorSpec()
    cases = []
    for domain in (Domain.RELATIONAL, Domain.TEMPORAL, Domain.POLICY, Domain.ABDUCTIVE):
        count = spec.domain_mix.get(domain, 0)
        for i in range(count):
            case_seed = _subseed(seed, domain.value, i)
            cases.append(generate_casefile(domain, case_seed,
                                           case_id=f"{domain.value[:3]}-{i:04d}", spec=spec))
    return cases


def corpus_composition(cases) -> list[dict]:
    """Composition rows: domain, case count, queries per bundle, total queries."""
    from statistics import mean, pstdev

    rows = []
    for domain in Domain:
        sizes = [c.bundle_size for c in cases if c.domain is domain]
        if not sizes:
            continue
        rows.append({
            "domain": domain.value,
            "cases": len(sizes),
            "queries_per_bundle_mean": round(mean(sizes), 2),
            "queries_per_bundle_sd": round(pstdev(sizes), 2),
            "queries": sum(sizes),
        })
    rows.append({
        "domain": "total",
        "cases": len(cases),
        "queries_per_bundle_mean": round(mean([c.bundle_size for c in cases]), 2) if cases else 0,
        "queries_per_bundle_sd": round(pstdev([c.bundle_size for c in cases]), 2) if cases else 0,
        "queries": sum(c.bundle_size for c in cases),
    })
    return rows
