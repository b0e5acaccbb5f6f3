"""Simulated answer policies.

Real models are replaced by deterministic samplers: an oracle that returns
gold labels, confusion-matrix noise with optional spurious derived atoms,
recorded-trace replay, self-consistency voting over an inner policy, and a
history-conditioned variant that prefers agreement with earlier answers on
shared atoms. Every draw is seeded from (policy seed, case id, query id,
draw index), so outputs are reproducible and independent of evaluation order.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect
from pathlib import Path
from typing import NamedTuple

from . import InputError, schema
from .casefile import OPPOSITE_LABEL, CaseError, CaseFile, Label, Query, majority_label, subseed

LABELS = tuple(Label)
KINDS = ("oracle", "noisy", "replay", "self-consistency", "history")


class PolicyError(InputError):
    """A policy name that is no preset, or a config file that is missing or
    does not describe a policy an ``Answerer`` can run."""


class Answer(NamedTuple):
    label: Label
    derived_atoms: tuple[int, ...] = ()
    calls: int = 1  # answerer forward passes consumed


class ConfusionMatrix:
    """Row-stochastic gold-to-predicted label distribution."""

    __slots__ = ("rows", "cumulative")

    def __init__(self, rows: tuple[tuple[float, float, float], ...]):  # rows/cols in LABELS order
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise schema.must("matrix", "3x3", [list(r) for r in rows])
        for i, row in enumerate(rows):
            if any(p < 0 for p in row) or not abs(sum(row) - 1.0) <= 1e-9:  # refuses NaN
                raise schema.must(f"matrix[{i}]", "a probability distribution", list(row))
        self.rows = rows
        # each gold label's row as cumulative weights, the table ``sample`` draws from
        self.cumulative = {gold: list(itertools.accumulate(row))
                           for gold, row in zip(LABELS, rows)}

    def sample(self, gold: Label, rng: random.Random) -> Label:
        # the draw ``choices(LABELS, weights=row, k=1)`` makes, without
        # accumulating the row or building a list on every call
        cum = self.cumulative[gold]
        return LABELS[bisect(cum, rng.random() * (cum[-1] + 0.0), 0, 2)]


class PolicyConfig:
    """One answer policy, as a policy file holds it (see ``schema``): a missing
    field takes its default, a key that is no field is ignored."""

    UNKNOWN_KEYS = "ignored"
    kind: str  # one of KINDS
    matrix: list[list[float]] | None  # label noise, needed by noisy and history
    derived_rate: float  # chance a non-Unknown answer carries derived atoms
    derived_max: int
    echo_flip: float  # chance a leaked echo has the wrong polarity
    k: int  # samples for self-consistency
    inner: PolicyConfig | None
    history_bias: float  # chance of agreeing with the latest shared-atom answer
    logic_filter: bool  # filter SC samples through the belief state
    trace_path: str | None

    def __init__(self, kind, matrix=None, derived_rate=0.0, derived_max=2, echo_flip=0.0, k=1,
                 inner=None, history_bias=0.0, logic_filter=False, trace_path=None):
        if kind not in KINDS:
            raise schema.must("kind", "one of " + ", ".join(KINDS), kind)
        for name, value in (("derived_max", derived_max), ("k", k)):
            if value < 1:
                raise schema.must(name, "an integer >= 1", value)
        for name, value in (("derived_rate", derived_rate), ("echo_flip", echo_flip),
                            ("history_bias", history_bias)):
            if not 0 <= value <= 1:  # refuses NaN
                raise schema.must(name, "a number in [0, 1]", value)
        if kind in ("noisy", "history") and matrix is None:
            raise schema.must("matrix", f"set for a {kind} policy", matrix)
        if kind == "replay" and not trace_path:
            raise schema.must("trace_path", "set for a replay policy", trace_path)
        if kind == "self-consistency" and inner is None:
            raise schema.must("inner", "set for a self-consistency policy", inner)
        if matrix is not None and not isinstance(matrix, ConfusionMatrix):  # a policy file's rows
            matrix = ConfusionMatrix(matrix)
        self.kind, self.matrix, self.inner, self.k = kind, matrix, inner, k
        self.derived_rate, self.derived_max, self.echo_flip = derived_rate, derived_max, echo_flip
        self.history_bias, self.logic_filter = history_bias, logic_filter
        self.trace_path = trace_path


# leakage concentrates on underdetermined content
_ECHO_WEIGHTS = {Label.ENTAILED: 1.0, Label.CONTRADICTED: 1.0, Label.UNKNOWN: 2.0}


def _sample_derived(rng: random.Random, case: CaseFile, query: Query,
                    cfg: PolicyConfig) -> tuple[int, ...]:
    """Spurious derived assertions ride along with an answer: mostly noisy
    echoes of the answerer's belief about other queries in the bundle
    (cross-query leakage), occasionally a fabricated atom from the wider
    vocabulary. ``cfg.echo_flip`` is the chance an echo lands with the wrong
    polarity; leakage is sloppier than the direct answer."""
    if cfg.derived_rate <= 0.0 or rng.random() >= cfg.derived_rate:
        return ()
    own = abs(query.atom)
    others, cumulative, total = [], [], 0.0  # the echo pool, cumulatively weighted
    for q in case.queries:
        if q.gold_label is not None and abs(q.atom) != own:
            total += _ECHO_WEIGHTS[q.gold_label]
            others.append(q)
            cumulative.append(total)
    picks = []
    for _ in range(rng.randint(1, cfg.derived_max)):
        if others and rng.random() < 0.8:
            echoed = rng.choices(others, cum_weights=cumulative, k=1)[0]
            belief = cfg.matrix.sample(echoed.gold_label, rng)
            if belief is Label.UNKNOWN:
                continue
            atom = echoed.atom if belief is Label.ENTAILED else -echoed.atom
            if rng.random() < cfg.echo_flip:
                atom = -atom
            picks.append(atom)
        else:
            var = rng.randint(1, case.formula.num_vars)
            if var != own:
                picks.append(var if rng.random() < 0.5 else -var)
    return tuple(dict.fromkeys(picks))


class Answerer:
    """Callable policy: (case, query, history, draw) -> Answer."""

    def __init__(self, config: PolicyConfig, seed: int):
        self.config = config
        self.seed = seed
        self._trace = load_trace(config.trace_path) if config.kind == "replay" else None
        self._inner = Answerer(config.inner, seed) if config.inner else None
        self._rng = random.Random()  # reseeded for every draw, cheaper than a new one

    def _rng_for(self, case_id: str, query_id: str, draw: int | str) -> random.Random:
        """The answerer's generator in the state ``random.Random(s)`` would
        start in, ``s`` derived from (policy seed, case id, query id, draw)."""
        self._rng.seed(subseed(self.seed, case_id, query_id, draw))
        return self._rng

    # history: ordered (query, final label) pairs from earlier steps
    def answer(self, case: CaseFile, query: Query,
               history: list[tuple[Query, Label]] | None = None,
               draw: int = 0) -> Answer:
        cfg = self.config
        if cfg.kind == "oracle":
            if query.gold_label is None:
                raise CaseError(f"case {case.id}: query {query.id} has no gold label for the oracle")
            return Answer(query.gold_label)
        if cfg.kind == "replay":
            recorded = self._trace.get((case.id, query.id))
            if recorded is None:
                import logging  # only where a warning is logged: off the start-up path
                logging.getLogger(__name__).warning(
                    "replay miss for %s/%s, answering Unknown", case.id, query.id)
                return Answer(Label.UNKNOWN)
            return Answer(recorded.label, recorded.derived_atoms)
        if cfg.kind == "noisy":
            return self._noisy_answer(case, query, draw)
        if cfg.kind == "history":
            return self._history_answer(case, query, history or [], draw)
        draws = self.sample_commitment_candidates(case, query, history, cfg.k)  # self-consistency
        return Answer(majority_label([d.label for d in draws]), calls=cfg.k)  # ties -> Unknown

    def _noisy_answer(self, case: CaseFile, query: Query, draw: int) -> Answer:
        cfg = self.config
        rng = self._rng_for(case.id, query.id, draw)
        if query.gold_label is None:
            raise CaseError(f"case {case.id}: query {query.id} has no gold label to perturb")
        label = cfg.matrix.sample(query.gold_label, rng)
        derived = ()
        if label is not Label.UNKNOWN:
            derived = _sample_derived(rng, case, query, cfg)
        return Answer(label, derived_atoms=derived)

    def _history_answer(self, case: CaseFile, query: Query,
                        history: list[tuple[Query, Label]], draw: int) -> Answer:
        cfg = self.config
        rng = self._rng_for(case.id, query.id, f"h{draw}")
        dependencies = set(query.depends_on)
        prior = None
        for past_query, past_label in reversed(history):
            same_var = abs(past_query.atom) == abs(query.atom)
            if past_query.id in dependencies or same_var:
                prior = (past_query, past_label)
                break
        if prior is not None and rng.random() < cfg.history_bias:
            past_query, past_label = prior
            if past_label is not Label.UNKNOWN:
                flipped = past_query.atom == -query.atom
                label = (OPPOSITE_LABEL[past_label] if flipped else past_label)
                return Answer(label)
        return self._noisy_answer(case, query, draw)

    def sample_commitment_candidates(self, case: CaseFile, query: Query,
                                     history, k: int) -> list[Answer]:
        """Raw per-draw answers, for logic-filtered aggregation."""
        inner = self._inner or self
        return [inner.answer(case, query, history, draw=i) for i in range(k)]


# ------------------------------------------------------------------- presets

# The noisy presets are calibrated so that an unchecked run over the default
# corpus lands near the measured baseline consistency band (see the harness
# tests); the mechanism mirrors the dominant observed failure modes: spurious
# derived assertions, occasional label flips, and overconfident answers on
# underdetermined queries.
NOCOT_MATRIX = ConfusionMatrix((
    (0.875, 0.015, 0.110),
    (0.015, 0.875, 0.110),
    (0.140, 0.140, 0.720),
))

PRESETS: dict[str, PolicyConfig] = {
    "oracle": PolicyConfig(kind="oracle"),
    "nocot-like": PolicyConfig(
        kind="noisy",
        matrix=NOCOT_MATRIX,
        derived_rate=0.60,
        echo_flip=0.10,
    ),
    "cot-like": PolicyConfig(
        kind="noisy",
        matrix=ConfusionMatrix((
            (0.91, 0.01, 0.08),
            (0.01, 0.91, 0.08),
            (0.12, 0.12, 0.76),
        )),
        derived_rate=0.42,
        echo_flip=0.08,
    ),
    "sc-like": PolicyConfig(
        kind="self-consistency",
        k=5,
        inner=PolicyConfig(
            kind="noisy",
            matrix=NOCOT_MATRIX,
            derived_rate=0.42,
            echo_flip=0.10,
        ),
    ),
    "history-like": PolicyConfig(
        kind="history",
        matrix=NOCOT_MATRIX,
        derived_rate=0.60,
        echo_flip=0.10,
        history_bias=0.5,
    ),
}


def resolve_policy(name_or_config: str | PolicyConfig) -> PolicyConfig:
    if isinstance(name_or_config, PolicyConfig):
        return name_or_config
    if name_or_config in PRESETS:
        return PRESETS[name_or_config]
    try:
        data = schema.read_json(name_or_config)
    except OSError:
        raise PolicyError(f"unknown policy preset or config file: {name_or_config!r} "
                          f"(presets: {', '.join(sorted(PRESETS))})") from None
    except schema.Unfit as exc:
        raise PolicyError(f"malformed policy file {name_or_config!r}{exc.problem}") from None
    if type(data) is not dict:
        raise PolicyError(f"malformed policy file {name_or_config!r}: "
                          f"a policy must be an object, got {data!r}")
    return policy_from_dict(data)


def policy_to_dict(config: PolicyConfig) -> dict:
    data = schema.dump(config)
    if config.matrix is not None:
        data["matrix"] = [list(row) for row in config.matrix.rows]
    if config.inner is not None:
        data["inner"] = policy_to_dict(config.inner)
    return data


def policy_from_dict(data: dict) -> PolicyConfig:
    """The policy a policy file's object describes; a value that does not fit
    raises PolicyError naming its path, as ``matrix[2]`` or ``inner.k``."""
    try:
        return schema.build(PolicyConfig, [data])[0]
    except schema.Unfit as exc:
        raise PolicyError(f"{exc.path or 'a policy'}{exc.problem}") from None
    except RecursionError:  # inner policies nested past the interpreter's limit
        raise PolicyError("inner: nested too deeply to read") from None


# -------------------------------------------------------------- replay traces


class TraceRecord:
    """One recorded answer, a line of a replay trace (see ``schema``); other keys are ignored."""

    UNKNOWN_KEYS = "ignored"
    case_id: str
    query_id: str
    label: str
    derived_atoms: list[int]

    def __init__(self, case_id, query_id, label, derived_atoms=()):
        self.case_id, self.query_id = case_id, query_id
        self.label, self.derived_atoms = schema.member(Label, "label", label), tuple(derived_atoms)


def load_trace(path: str | Path) -> dict[tuple[str, str], Answer]:
    """The answers of a replay trace by (case id, query id); a bad line raises
    PolicyError naming the trace, the line and the field."""
    try:
        records = schema.read_lines(TraceRecord, path)[1]
    except schema.Unfit as exc:
        raise PolicyError(exc.at(path, "a trace record")) from None
    return {(r.case_id, r.query_id): Answer(r.label, r.derived_atoms) for r in records}
