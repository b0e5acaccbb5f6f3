"""Bundle evaluation pipeline.

Three methods share one loop over a bundle's queries:

* ``baseline``: answers are committed as given; the per-step checks only
  measure, never intervene, so prefix satisfiability is monotone.
* ``check``: each commitment is verified before acceptance. A conflict whose
  minimized core is the current commitment alone is handled conservatively
  (the label reverts to Unknown); conflicts that implicate earlier
  commitments are localized and reported, but altering the past requires
  repair authority, so the bundle keeps the contradiction.
* ``check+repair``: detected conflicts go through the repair search
  (softened commitments, smallest first) under the per-query and per-bundle
  budgets; without an accepted candidate the step abstains (the label reverts
  to Unknown, with no solve). Repair starts from a satisfiable state, since
  every repaired or abstaining step leaves one, and keeps the past: no
  earlier commitment is retracted.

In sequential mode the answerer sees earlier final answers; in set mode it
sees no history. Checking walks the bundle order in both.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from . import METHODS, MODES, Label, SolveStatus
from .answerers import Answer, Answerer, PolicyConfig, policy_to_dict, resolve_policy
from .casefile import CaseError, CaseFile, Query, forked_map, load_corpus
from .commitments import BeliefState, extract_commitment
from .metrics import (CHECK_CALLS, CORE_CALLS, FILTER_CALLS, PHASES, PROBE_CALLS, REPAIR_CALLS,
                      BundleReport, Phase, QueryRecord, RepairLogEntry, save_reports)
from .repair import attempt_repair, logic_filtered_vote, min_revision_cost
from .schema import must
from .solver import DEFAULT_MAX_CONFLICTS


class RunConfig:
    # the fields in order: ``to_dict`` writes them and ``cli`` passes the options among them
    FIELDS = ("corpus", "policy", "method", "mode", "split", "seed", "r_max", "call_cap_factor",
              "max_conflicts", "jobs")
    __slots__ = FIELDS

    def __init__(self, corpus: str, policy: str | PolicyConfig, method: str = "check+repair",
                 mode: str = "sequential", split: str | None = None, seed: int = 0,
                 r_max: int = 2,
                 call_cap_factor: int = 3,  # per-bundle solver-call cap = factor * n
                 max_conflicts: int = DEFAULT_MAX_CONFLICTS, jobs: int = 1):
        self.corpus, self.policy, self.method, self.mode = corpus, policy, method, mode
        self.split, self.seed, self.r_max = split, seed, r_max
        self.call_cap_factor = call_cap_factor
        self.max_conflicts, self.jobs = max_conflicts, jobs
        for name, allowed in (("method", METHODS), ("mode", MODES)):
            if getattr(self, name) not in allowed:
                raise must(name, "one of " + ", ".join(allowed), getattr(self, name))
        positive = ("max_conflicts", "jobs")  # the repair budgets matter to check+repair alone
        if method == "check+repair":
            positive += ("r_max", "call_cap_factor")
        for name in ("seed", "r_max", "call_cap_factor", "max_conflicts", "jobs"):
            value = getattr(self, name)
            if type(value) is not int:  # type() is exact: a bool is refused, and so is None
                raise must(name, "an integer", value)
            if name in positive and value < 1:
                raise must(name, "an integer >= 1", value)

    def to_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self.FIELDS}
        if isinstance(self.policy, PolicyConfig):
            data["policy"] = policy_to_dict(self.policy)
        return data


class _Ledger:
    """Solver calls of one bundle, read off the session's own counter.

    ``take(phase)`` books every call since the previous take under the name
    of ``phase``, an entry of ``metrics.PHASES``, which says which phases the
    cap counts."""

    def __init__(self, stats, cap: int):
        self.stats = stats
        self.cap = cap
        self.counts: dict[str, int] = {}
        self._mark = stats.solver_calls

    def take(self, phase: Phase) -> int:
        delta = self.stats.solver_calls - self._mark
        self._mark += delta
        self.counts[phase.name] = self.counts.get(phase.name, 0) + delta
        return delta

    @property
    def capped(self) -> int:
        return sum(self.counts.get(phase.name, 0) for phase in PHASES if phase.capped)

    def slack(self, checks_left: int) -> int:
        """Calls left for optional work that still leave one call for each
        remaining per-step check."""
        return max(0, self.cap - self.capped - checks_left)


def evaluate_bundle(case: CaseFile, config: RunConfig,
                    answerer: Answerer | None = None) -> BundleReport:
    """One bundle's report; ``run`` passes the answerer it built for ``config``."""
    if answerer is None:
        answerer = Answerer(resolve_policy(config.policy), config.seed)
    policy = answerer.config
    state = BeliefState(case.formula, max_conflicts=config.max_conflicts)
    n = case.bundle_size
    ledger = _Ledger(state.session.stats, config.call_cap_factor * n)

    use_filter = (policy.kind == "self-consistency" and policy.logic_filter
                  and config.method != "baseline")

    records: list[QueryRecord] = []
    statuses_before: list[SolveStatus] = []
    statuses_after: list[SolveStatus] = []
    repair_log: list[RepairLogEntry] = []
    invariants: list[str] = []
    history: list[tuple[Query, Label]] = []
    seen = history if config.mode == "sequential" else None
    answerer_calls = 0

    for t, query in enumerate(case.queries):
        # ------------------------------------------------------------ answer
        if use_filter:
            draws = answerer.sample_commitment_candidates(case, query, seen, policy.k)
            answerer_calls += len(draws)
            candidates = [extract_commitment(query, d.label, d.derived_atoms,
                                             vocabulary_size=state.base_vars)
                          for d in draws]
            answer = Answer(logic_filtered_vote(candidates, state))
            ledger.take(FILTER_CALLS)
        else:
            answer = answerer.answer(case, query, history=seen)
            answerer_calls += answer.calls

        commitment = extract_commitment(query, answer.label, answer.derived_atoms,
                                        vocabulary_size=state.base_vars)
        predicted = answer.label
        final = answer.label

        # ------------------------------------------------------------- check
        pending, result = state.append_and_check(commitment)
        ledger.take(CHECK_CALLS)
        statuses_before.append(result.status)
        if result.status is SolveStatus.TIMEOUT:
            if config.method != "baseline":
                final = Label.UNKNOWN
        elif result.status is SolveStatus.UNSAT:
            if config.method == "baseline":
                state.activate(pending, sat=False)
            else:
                core = state.unsat_core(pending, result.failed_assumptions, ledger.slack(n - t - 1))
                ledger.take(CORE_CALLS)
                core_qids = [state.commitments[i].query_id for i in core.commitment_indices]
                if config.method == "check":
                    if core.minimal and core.commitment_indices == (pending,):
                        # overconfident answer against the premises: abstain
                        final = Label.UNKNOWN
                        state.abstain(query.id)
                        outcome_name = "fallback-unknown"
                    else:
                        # altering past commitments needs repair authority
                        state.activate(pending, sat=False)
                        outcome_name = "reported"
                    repair_log.append(RepairLogEntry(
                        query_id=query.id, core_query_ids=core_qids,
                        core_minimal=core.minimal, tried=[], accepted=None,
                        outcome=outcome_name, solver_calls=0))
                else:  # check+repair
                    accepted, tried = attempt_repair(state, commitment,
                                                     min(config.r_max, ledger.slack(n - t - 1)))
                    repair_calls = ledger.take(REPAIR_CALLS)
                    final = accepted.label if accepted else Label.UNKNOWN
                    repair_log.append(RepairLogEntry(
                        query_id=query.id, core_query_ids=core_qids,
                        core_minimal=core.minimal,
                        tried=[{"size": c.size, "verdict": verdict} for c, verdict in tried],
                        accepted={"size": accepted.size} if accepted else None,
                        outcome="repaired" if accepted else "fallback-unknown",
                        solver_calls=repair_calls))
        # a SAT trial keeps ``sat``; baseline and check clear it to go past a violation
        statuses_after.append(SolveStatus.SAT if state.sat else SolveStatus.UNSAT)

        records.append(QueryRecord(
            query_id=query.id,
            gold=query.gold_label,
            predicted=predicted,
            final=final,
        ))
        history.append((query, final))

    # -------------------------------------------------------------- scoring
    final_sat = state.sat
    rev = min_revision_cost(state)
    ledger.take(PROBE_CALLS)  # measurement, not pipeline cost

    if state.rebuild_check(case.id) != state.sat:
        invariants.append("incremental status disagrees with fresh rebuild")
    if config.method == "check+repair" and not final_sat:
        invariants.append("repair mode ended unsatisfiable")
    if config.method == "check+repair":
        per_query_attempts = [len(e.tried) for e in repair_log]
        if any(a > config.r_max for a in per_query_attempts):
            invariants.append("repair attempts exceeded r_max")
        if ledger.capped > ledger.cap:
            invariants.append(f"solver calls {ledger.capped} exceed cap {ledger.cap}")

    if not final_sat:
        bundle_status = "inconsistent"
    elif config.method == "check+repair" and repair_log:  # only a violation starts a repair
        bundle_status = "repaired"
    else:
        bundle_status = "consistent"

    counts = dict(ledger.counts)
    counts["answerer_calls"] = answerer_calls
    return BundleReport(
        case_id=case.id,
        domain=case.domain.value,
        mode=config.mode,
        method=config.method,
        queries=records,
        statuses_before=statuses_before,
        statuses_after=statuses_after,
        final_sat=final_sat,
        bundle_status=bundle_status,
        repair_log=repair_log,
        counts=counts,
        min_revision=rev.value,
        min_revision_exact=rev.exact,
        invariant_failures=invariants,
    )


# ----------------------------------------------------------------- run level


def _timed(case: CaseFile, config: RunConfig, answerer: Answerer) -> tuple[BundleReport, float]:
    """One bundle's report and its evaluation time in ms."""
    start = time.perf_counter()
    report = evaluate_bundle(case, config, answerer)
    return report, (time.perf_counter() - start) * 1000.0


def run(config: RunConfig) -> tuple[list[BundleReport], dict[str, float]]:
    """Evaluate every bundle in the selected split, in case id order, over
    ``config.jobs`` processes (``forked_map``). Returns (reports, evaluation
    ms by case id). The policy is resolved, and a replay trace loaded, once
    per run; forked shards inherit the answerer and the compiled cases.
    Selected cases with no gold-labelled query raise CaseError before any
    evaluation."""
    answerer = Answerer(resolve_policy(config.policy), config.seed)  # before the corpus loads
    cases = load_corpus(config.corpus)
    if config.split:
        cases = [c for c in cases if c.split == config.split]
    if not cases:
        raise CaseError(f"no cases in split {config.split!r}" if config.split
                        else "the corpus holds no cases")
    if all(q.gold_label is None for c in cases for q in c.queries):
        where = f"split {config.split!r} of {config.corpus}" if config.split else config.corpus
        raise CaseError(f"no query in {where} has a gold label to score")
    cases = sorted(cases, key=lambda c: c.id)

    results = forked_map(lambda case: _timed(case, config, answerer), cases, config.jobs)
    return [report for report, _ in results], {report.case_id: ms for report, ms in results}


def write_run(out_dir: str | Path, config: RunConfig,
              reports: list[BundleReport], timings: dict[str, float]) -> Path:
    """Run directory layout: canonical reports + manifest, timing sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_reports(reports, out / "reports.jsonl")
    manifest = {
        "config": config.to_dict(),
        "bundles": len(reports),
        "invariant_failures": sum(len(r.invariant_failures) for r in reports),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    sidecar = {
        "total_seconds": sum(timings.values()) / 1000.0,
        "per_case_ms": dict(sorted(timings.items())),
    }
    (out / "timings.json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return out
