import json
import random

import pytest

from casecheck.answerers import (
    PRESETS,
    Answerer,
    ConfusionMatrix,
    PolicyConfig,
    PolicyError,
    policy_from_dict,
    policy_to_dict,
    resolve_policy,
)
from casecheck.casefile import Domain, Label
from casecheck.generator import generate_casefile


def diagonal(p: float) -> ConfusionMatrix:
    """Diagonal weight ``p``, the rest of each row split evenly."""
    off = (1.0 - p) / 2.0
    return ConfusionMatrix(tuple(tuple(p if i == j else off for j in range(3))
                                 for i in range(3)))


@pytest.fixture(scope="module")
def case():
    return generate_casefile(Domain.RELATIONAL, 123)


def test_matrix_rows_must_be_distributions():
    with pytest.raises(ValueError):
        ConfusionMatrix(((0.5, 0.5, 0.1), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):  # used to pass, and to fail in the first draw
        ConfusionMatrix(((float("nan"), 0, 0), (0, 1, 0), (0, 0, 1)))


def test_oracle_returns_gold(case):
    policy = Answerer(PolicyConfig(kind="oracle"), seed=0)
    for q in case.queries:
        assert policy.answer(case, q).label is q.gold_label


def test_identity_noise_is_gold(case):
    policy = Answerer(PolicyConfig(kind="noisy", matrix=diagonal(1.0)), seed=5)
    for draw in range(1000):
        q = case.queries[draw % len(case.queries)]
        assert policy.answer(case, q, draw=draw).label is q.gold_label


def test_noisy_marginals_match_matrix(case):
    policy = Answerer(PolicyConfig(kind="noisy", matrix=diagonal(0.8)), seed=7)
    q = case.queries[0]
    hits = 0
    n = 10_000
    for draw in range(n):
        if policy.answer(case, q, draw=draw).label is q.gold_label:
            hits += 1
    assert abs(hits / n - 0.8) < 0.02


def test_answers_are_seed_deterministic(case):
    config = PolicyConfig(kind="noisy", matrix=diagonal(0.6),
                          derived_rate=0.5)
    a = Answerer(config, seed=11)
    b = Answerer(config, seed=11)
    c = Answerer(config, seed=12)
    outs_a = [a.answer(case, q, draw=3) for q in case.queries]
    outs_b = [b.answer(case, q, draw=3) for q in case.queries]
    assert outs_a == outs_b
    assert outs_a != [c.answer(case, q, draw=3) for q in case.queries]


def test_derived_atoms_stay_in_vocabulary(case):
    config = PolicyConfig(kind="noisy", matrix=diagonal(1.0), derived_rate=1.0)
    policy = Answerer(config, seed=3)
    for draw in range(200):
        q = case.queries[draw % len(case.queries)]
        ans = policy.answer(case, q, draw=draw)
        for atom in ans.derived_atoms:
            assert 1 <= abs(atom) <= case.formula.num_vars
            assert abs(atom) != abs(q.atom)


def test_self_consistency_k1_equals_single_draw(case):
    inner = PolicyConfig(kind="noisy", matrix=diagonal(0.6))
    sc = Answerer(PolicyConfig(kind="self-consistency", k=1, inner=inner), seed=9)
    single = Answerer(inner, seed=9)
    for q in case.queries:
        assert sc.answer(case, q).label is single.answer(case, q, draw=0).label


def test_self_consistency_majority_and_tie():
    votes = [Label.ENTAILED] * 12 + [Label.CONTRADICTED] * 5 + [Label.UNKNOWN] * 3
    counts = {l: votes.count(l) for l in set(votes)}
    assert max(counts, key=counts.get) is Label.ENTAILED
    # engine-level check of the tie rule via sample_answers is covered below


def test_majority_vote_amplifies_accuracy(case):
    inner = PolicyConfig(kind="noisy", matrix=diagonal(0.6))
    single = Answerer(inner, seed=21)
    sc = Answerer(PolicyConfig(kind="self-consistency", k=20, inner=inner), seed=21)
    q = case.queries[0]
    n = 500
    # reuse the same underlying draw streams: compare across distinct queries
    single_hits = sum(single.answer(case, case.queries[i % len(case.queries)],
                                    draw=i).label
                      is case.queries[i % len(case.queries)].gold_label for i in range(n))
    sc_hits = 0
    for i in range(n):
        qq = case.queries[i % len(case.queries)]
        votes = [single.answer(case, qq, draw=1000 * i + j).label for j in range(20)]
        counts = {l: votes.count(l) for l in set(votes)}
        best = max(counts.values())
        top = [l for l, c in counts.items() if c == best]
        label = top[0] if len(top) == 1 else Label.UNKNOWN
        sc_hits += label is qq.gold_label
    assert sc_hits > single_hits


def test_replay_roundtrip_and_miss(tmp_path, case):
    records = [{"case_id": case.id, "query_id": case.queries[0].id,
                "label": "entailed", "derived_atoms": [2]}]
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    policy = Answerer(PolicyConfig(kind="replay", trace_path=str(path)), seed=0)
    ans = policy.answer(case, case.queries[0])
    assert ans.label is Label.ENTAILED and ans.derived_atoms == (2,)
    miss = policy.answer(case, case.queries[1])
    assert miss.label is Label.UNKNOWN


@pytest.mark.parametrize("fields, message", [
    # used to raise ValueError at the answer
    ({"label": "maybe"}, "label must be one of entailed, contradicted, unknown, got 'maybe'"),
    ({"label": ["entailed"]}, "label must be a string, got ['entailed']"),
    ({"derived_atoms": ["x"]}, "derived_atoms must be a list of integers, got ['x']"),
    ({"derived_atoms": 3}, "derived_atoms must be a list of integers, got 3"),
    ({"derived_atoms": [1, True]}, "derived_atoms must be a list of integers, got [1, True]"),
], ids=["label-maybe", "label-list", "atom-text", "atoms-scalar", "atom-bool"])
def test_replay_trace_values_are_checked_at_load(tmp_path, fields, message):
    # a bad derived atom used to raise TypeError in the commitment extractor
    good = {"case_id": "rel-0001", "query_id": "q1", "label": "entailed", "derived_atoms": [2]}
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "query_id": "q2", **fields})
                    + "\n")
    with pytest.raises(PolicyError) as exc:
        Answerer(PolicyConfig(kind="replay", trace_path=str(path)), seed=0)
    assert str(exc.value) == f"{path}:2: {message}"


def test_presets_resolve():
    for name in ("oracle", "nocot-like", "cot-like", "sc-like", "history-like"):
        cfg = resolve_policy(name)
        Answerer(cfg, seed=0)  # constructible
    # an unknown name lists them, as `run --help` does not
    with pytest.raises(PolicyError, match=r"'no-such' \(presets: cot-like, history-like, "
                                          r"nocot-like, oracle, sc-like\)$"):
        resolve_policy("no-such")


def test_presets_round_trip_through_policy_files(tmp_path):
    for name, preset in PRESETS.items():
        data = policy_to_dict(preset)  # every field, the matrix as its rows
        assert policy_to_dict(policy_from_dict(data)) == data
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**data, "comment": "not a field"}))  # ignored: no field
        assert policy_to_dict(resolve_policy(str(path))) == data
    # one nocot matrix, not three copies of it
    assert (PRESETS["sc-like"].inner.matrix is PRESETS["nocot-like"].matrix
            is PRESETS["history-like"].matrix)


def test_history_policy_biases_toward_agreement(case):
    config = PolicyConfig(kind="history", matrix=diagonal(0.5),
                          history_bias=1.0)
    policy = Answerer(config, seed=13)
    # find the designed dependency pair: same variable, opposite polarity
    dep = next(q for q in case.queries if q.depends_on)
    anchor = next(q for q in case.queries if q.id == dep.depends_on[0])
    history = [(anchor, Label.ENTAILED)]
    ans = policy.answer(case, dep, history=history)
    if anchor.atom == -dep.atom:
        assert ans.label is Label.CONTRADICTED
    elif anchor.atom == dep.atom:
        assert ans.label is Label.ENTAILED


# sha256 over every answer (case id, query id, draw, label, derived atoms) of
# each noisy preset (policy seed 7) on the seed-0 default corpus, taken at
# ae666ed. Each bundle is answered in order with the earlier answers as
# history; sc-like contributes its five inner draws per query. The report pins
# see answers only through verdicts; this one sees every draw
ANSWER_DIGESTS = {
    "cot-like": "80b3f084f9eeb76cc9a8255844d97eabe16b1bc150bb7d18d00a71f1236fc8d1",
    "history-like": "11d4fca6f7f9766538eed625a3e9e2b18ec2aef1ecb3539561696f591b8c93bb",
    "nocot-like": "a0f5fbd2db356555ce9e52b3bf8220c29528d1ef7173ae7b64da051f4b14f8f6",
    "sc-like": "035636c03ab9b30c36773340128023655620411a8a3d3e701e28053e97d5f070",
}


@pytest.mark.parametrize("name", sorted(ANSWER_DIGESTS))
def test_answers_are_pinned(default_corpus, name):
    import hashlib

    config = PRESETS[name]
    answerer = Answerer(config, seed=7)
    digest = hashlib.sha256()
    for case in default_corpus:
        history = []
        for query in case.queries:
            if config.kind == "self-consistency":
                draws = answerer.sample_commitment_candidates(case, query, history, config.k)
            else:
                draws = [answerer.answer(case, query, history)]
            for draw, answer in enumerate(draws):
                digest.update(json.dumps([case.id, query.id, draw, answer.label.value,
                                          list(answer.derived_atoms)]).encode() + b"\n")
            history.append((query, draws[0].label))
    assert digest.hexdigest() == ANSWER_DIGESTS[name]


def test_cumulative_sampling_draws_as_weighted_sampling():
    # the inlined draw on an answerer's reseeded generator against
    # ``choices`` on a new one: the same label, the same state afterwards
    import hashlib

    labels = tuple(Label)
    for name, preset in PRESETS.items():
        for config in (preset, preset.inner):
            if config is None or config.matrix is None:
                continue
            answerer = Answerer(config, seed=7)
            for gold, row in zip(labels, config.matrix.rows):
                for draw in range(200):
                    rng = answerer._rng_for("c-1", "q1", draw)
                    digest = hashlib.sha256(f"7:c-1:q1:{draw}".encode()).digest()
                    twin = random.Random(int.from_bytes(digest[:8], "big"))
                    assert rng.getstate() == twin.getstate()
                    assert config.matrix.sample(gold, rng) is twin.choices(
                        labels, weights=row, k=1)[0], (name, gold, draw)
                    assert rng.getstate() == twin.getstate()
