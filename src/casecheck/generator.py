"""Deterministic synthetic case generation.

Each domain has its own recipe (planted-model random CNF, interval scheduling
over bounded integers, ground rule sets, and an underconstrained variant). A
recipe supplies only three things: satisfiable premises, candidate atoms with
their question texts, and the rule that picks the bundle's dependency pair
(two queries over one shared atom). The rest is shared: ``_label_pools``
labels each candidate once with the solver and files its complement under
the opposite label (both under Unknown when the atom is contingent), and
``_draw_bundle`` draws a 5-8 query bundle containing every label class, with
an Unknown share targeted at roughly 18% corpus-wide. Each attempt compiles
its premises once: a CNF recipe drafts the ``Formula`` itself and a theory
recipe grounds its text with the loader's ``compile_premises``. The probe
case whose session labels the pools and the final case are built as
``CaseFile``s on that one result by the loader's ``compile_case``; they were
never JSON, so they skip the JSON checker but keep ``CaseFile``'s value
rules, and every gold label is re-checked against the solver.
The pool labelling and the re-check each keep their own witness set (see
``literal_gold_label``), seeded with the premise model of the session they
use, so a check that an earlier model of the same pass already answers costs
no solve.
"""

from __future__ import annotations

import random

from .casefile import (OPPOSITE_LABEL, CaseFile, Domain, Label, Query, compile_case,
                       compile_premises, forked_map, literal_gold_label, subseed)
from .lia import format_constraint
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


class GeneratorSpec:
    __slots__ = ("domain_mix", "bundle_min", "bundle_max")

    def __init__(self, domain_mix: dict[Domain, int] | None = None,
                 bundle_min: int = 5, bundle_max: int = 8):
        self.domain_mix = dict(DEFAULT_DOMAIN_MIX) if domain_mix is None else domain_mix
        self.bundle_min, self.bundle_max = bundle_min, bundle_max


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


def _label_pools(session: SolverSession, premise_model: set[int],
                 candidates: list[tuple[int, tuple, tuple]]) -> dict[Label, list[tuple]]:
    """Pools of (atom, text) queries by gold label. Each candidate is
    (literal, query, complement query): one label check places both, the
    complement in the opposite class or, for an Unknown atom, beside it."""
    pools: dict[Label, list[tuple]] = {lbl: [] for lbl in Label}
    witnesses = set(premise_model)
    for literal, query, comp in candidates:
        label = literal_gold_label(session, literal, witnesses)
        if label is Label.UNKNOWN:
            pools[label] += [query, comp]
        else:
            pools[label].append(query)
            pools[OPPOSITE_LABEL[label]].append(comp)
    return pools


def _draw_bundle(rng: random.Random, pools: dict[Label, list[tuple]],
                 counts: dict[Label, int], pair: list[tuple[tuple, Label]]) -> list[Query]:
    """The queries of one bundle: the dependency pair, then each class
    filled from its pool, with entailed/contradicted shortfalls spilling into
    Unknown (thin backbones), in shuffled order."""
    picks = list(pair)
    for _, label in pair:
        counts[label] -= 1
    used = {atom for (atom, _), _ in pair}
    for label in (Label.ENTAILED, Label.CONTRADICTED, Label.UNKNOWN):
        available = [q for q in pools[label] if q[0] not in used]
        rng.shuffle(available)
        chosen = available[:counts[label]]
        if label is not Label.UNKNOWN:
            counts[Label.UNKNOWN] += counts[label] - len(chosen)
        elif len(chosen) < counts[label]:
            raise GenerationError("not enough contingent atoms")
        used.update(atom for atom, _ in chosen)
        picks.extend((q, label) for q in chosen)
    if {label for _, label in picks} != set(Label):
        raise GenerationError("bundle missing a label class")

    order = list(range(len(picks)))
    rng.shuffle(order)
    queries = []
    for pos, idx in enumerate(order):
        (atom, text), label = picks[idx]
        queries.append(Query(f"q{pos + 1}", atom, label, text))
    first, second = sorted(order.index(i) for i in (0, 1))
    queries[second].depends_on = [queries[first].id]
    return queries


def _self_check(case: CaseFile, session: SolverSession, premise_model: set[int]) -> CaseFile:
    """Re-derive every gold label on the built case with a witness set of its
    own, seeded with the premise model only, so the check shares no model
    with the pool labelling."""
    witnesses = set(premise_model)
    for q in case.queries:
        label = literal_gold_label(session, q.atom, witnesses)
        if label is not q.gold_label:
            # not a GenerationError: the retry loop must not hide a mislabel
            raise RuntimeError(f"case {case.id} query {q.id}: gold label "
                               f"{q.gold_label.value} re-derives as {label.value}")
    return case


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


def _cnf_premises(rng: random.Random, domain: Domain) -> Formula:
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
    return f


_TEXT_TEMPLATES = {
    Domain.RELATIONAL: ("Is fact f{v} established?", "Does the record rule out f{v}?"),
    Domain.POLICY: ("Is permission p{v} granted?", "Is permission p{v} denied by policy?"),
    Domain.ABDUCTIVE: ("Can hypothesis h{v} hold?", "Is hypothesis h{v} excluded?"),
}


def _query_text(domain: Domain, atom: int) -> str:
    pos_t, neg_t = _TEXT_TEMPLATES[domain]
    return (pos_t if atom > 0 else neg_t).format(v=abs(atom))


def _generate_cnf_case(domain: Domain, seed: int, case_id: str,
                       spec: GeneratorSpec) -> CaseFile:
    rng = random.Random(seed)
    premises = _cnf_premises(rng, domain)
    text = emit_dimacs(premises)

    def case(queries: list[Query]) -> CaseFile:
        return compile_case(CaseFile(case_id, domain, text, queries, "dimacs"), premises)

    session, premise_model = case([]).new_session()

    def query(lit: int) -> tuple[int, str]:
        return lit, _query_text(domain, lit)

    pools = _label_pools(session, premise_model, [(v, query(v), query(-v))
                                                  for v in range(1, premises.num_vars + 1)])
    size = rng.randint(spec.bundle_min, spec.bundle_max)
    counts = _plan_counts(rng, size, domain)
    if not pools[Label.ENTAILED] or not pools[Label.UNKNOWN]:
        raise GenerationError("label pools too small")
    # dependency pair: two queries over one shared variable
    if counts[Label.UNKNOWN] >= 2:
        w = rng.choice(sorted({abs(lit) for lit, _ in pools[Label.UNKNOWN]}))
        pair = [(query(w), Label.UNKNOWN), (query(-w), Label.UNKNOWN)]
    else:
        e = rng.choice(pools[Label.ENTAILED])
        pair = [(e, Label.ENTAILED), (query(-e[0]), Label.CONTRADICTED)]
    return _self_check(case(_draw_bundle(rng, pools, counts, pair)), session, premise_model)


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
    text = "\n".join(lines) + "\n"
    premises = compile_premises(text, "theory")

    def case(queries: list[Query]) -> CaseFile:
        return compile_case(CaseFile(case_id, Domain.TEMPORAL, text, queries, "theory"), premises)

    def complement(atom_text: str) -> str:
        return format_constraint(premises.constraint(atom_text).negated())

    # candidate atoms, the first question text kept when two coincide; each
    # is pooled with its complement so every label class can appear
    candidates: dict[str, str] = {}
    for m in names:
        k = rng.randint(1, 5)
        candidates.setdefault(f"(<= start_{m} {k})", f"Does meeting {m} start by slot {k}?")
        j = rng.randint(2, horizon)
        candidates.setdefault(f"(>= end_{m} {j})", f"Does meeting {m} run past slot {j - 1}?")
        candidates.setdefault(f"(<= end_{m} {horizon})", f"Does meeting {m} finish inside the horizon?")
        candidates.setdefault(f"(>= end_{m} {durations[m]})", f"Does meeting {m} run at least its booked length?")
        candidates.setdefault(f"(<= start_{m} 6)", f"Does meeting {m} start inside the scheduling window?")
    overlap = ("(< start_B end_A)", "Can meeting A overlap meeting B?")
    no_overlap = ("(>= start_B end_A)", "Is the shared room free of overlaps?")
    candidates.update((overlap, no_overlap))

    probe = case([Query(f"c{i}", a, text=t) for i, (a, t) in enumerate(candidates.items())])
    pools = _label_pools(*probe.new_session(),
                         [(q.atom, (q.atom_text, q.text), (complement(q.atom_text), f"[negated] {q.text}"))
                          for q in probe.queries])
    size = rng.randint(spec.bundle_min, spec.bundle_max)
    counts = _plan_counts(rng, size, Domain.TEMPORAL)
    # dependency pair: the two overlap atoms when both are contingent, else
    # the first entailed query whose complement is pooled too, asked with the
    # complement's pooled text (the first text pooled for that atom)
    if counts[Label.UNKNOWN] >= 2 and overlap in pools[Label.UNKNOWN] \
            and no_overlap in pools[Label.UNKNOWN]:
        pair = [(overlap, Label.UNKNOWN), (no_overlap, Label.UNKNOWN)]
    else:
        pool_text: dict[str, str] = {}
        for lbl in Label:
            for a, t in pools[lbl]:
                pool_text.setdefault(a, t)
        pair = next(([((a, t), Label.ENTAILED),
                      ((complement(a), pool_text[complement(a)]), Label.CONTRADICTED)]
                     for a, t in pools[Label.ENTAILED] if complement(a) in pool_text), None)
        if pair is None:
            raise GenerationError("no dependency pair available")
    final = case(_draw_bundle(rng, pools, counts, pair))
    return _self_check(final, *final.new_session())


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
        attempt_seed = seed if attempt == 0 else subseed(seed, "retry", attempt)
        try:
            if domain is Domain.TEMPORAL:
                return _generate_temporal_case(attempt_seed, case_id, spec)
            return _generate_cnf_case(domain, attempt_seed, case_id, spec)
        except GenerationError as exc:
            last_error = exc
    raise GenerationError(
        f"generation for {domain.value} seed {seed} exhausted {MAX_ATTEMPTS} attempts: {last_error}")


def generate_corpus(spec: GeneratorSpec | None = None, seed: int = 0,
                    workers: int | None = None) -> list[CaseFile]:
    """The cases of ``spec``'s domain mix, in domain order. Each case draws
    from its own sub-seed, so the cases are independent and are built by
    ``forked_map`` over ``workers`` processes, by default one per usable CPU;
    interleaving gives every shard its share of the costlier temporal cases.
    The cases, and so the corpus, do not depend on ``workers``."""
    spec = spec or GeneratorSpec()
    tasks = [(domain, i) for domain in Domain for i in range(spec.domain_mix.get(domain, 0))]

    def build(task: tuple[Domain, int]) -> CaseFile:
        domain, i = task
        return generate_casefile(domain, subseed(seed, domain.value, i),
                                 case_id=f"{domain.value[:3]}-{i:04d}", spec=spec)

    return forked_map(build, tasks, workers)


def corpus_composition(cases) -> list[dict]:
    """Composition rows: domain, case count, queries per bundle, total queries."""
    from statistics import mean, pstdev

    def row(name: str, sizes: list[int]) -> dict:
        return {
            "domain": name,
            "cases": len(sizes),
            "queries_per_bundle_mean": round(mean(sizes), 2) if sizes else 0,
            "queries_per_bundle_sd": round(pstdev(sizes), 2) if sizes else 0,
            "queries": sum(sizes),
        }

    rows = [row(d.value, [c.bundle_size for c in cases if c.domain is d]) for d in Domain]
    return [r for r in rows if r["cases"]] + [row("total", [c.bundle_size for c in cases])]
