"""Command-line harness: generate corpora, derive labels, run policy/method
sweeps, and score reports.

Exit codes separate engine problems from measured phenomena and bad input:
a run exits 1 only when an internal invariant check failed, never because the
evaluated policy produced contradictions (those are the data). Bad input
exits 2 with a one-line message, like argparse: a bad argument, a missing
file, an input the one JSON checker (``schema``) refuses, named by its place
(``cases[i]``, ``file:line`` or the policy file) and the field's path, a
corpus with unusable premises, nothing to score or a query without the gold
label its policy needs, and reports with nothing to score.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Engine modules, not names: each is executed on its first use inside a
# handler (see the package's ``__init__``), so ``score`` and ``report`` execute
# ``metrics`` alone. A name imported from one of them here would execute it at
# once; the words come from the package itself.
from . import METHODS, MODES, Domain, InputError, casefile, generator, metrics, runner

ENV_CORPUS_DIR = "CASECHECK_CORPUS_DIR"


def _resolve_corpus_path(path: str) -> str:
    if Path(path).exists():
        return path
    base = os.environ.get(ENV_CORPUS_DIR)
    if base and (Path(base) / path).exists():
        return str(Path(base) / path)
    return path


def _at_least_one(text: str) -> int:
    """Counts and budgets: zero or less would be read as unset, as one, or
    fail deep inside a run, so argparse refuses it (exit 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_mix(text: str) -> dict[Domain, int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != len(Domain) or min(parts) < 0 or sum(parts) == 0:
        raise argparse.ArgumentTypeError(
            f"mix needs {len(Domain)} counts >= 0 with a positive sum: {','.join(Domain)}")
    return dict(zip(Domain, parts))


def _parse_ratios(text: str) -> tuple[float, ...]:
    """Train, dev and test shares: three numbers >= 0 that sum to 1, checked
    here since ``split_cases`` would fail on others or take them as given."""
    ratios = tuple(float(x) for x in text.split(","))
    if len(ratios) != 3 or not all(r >= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise argparse.ArgumentTypeError(
            f"needs three shares >= 0 that sum to 1 (train,dev,test), got {text}")
    return ratios


def _apportion(total: int) -> dict[Domain, int]:
    weights = generator.DEFAULT_DOMAIN_MIX
    wsum = sum(weights.values())
    exact = {d: total * w / wsum for d, w in weights.items()}
    counts = {d: int(v) for d, v in exact.items()}
    leftovers = sorted(weights, key=lambda d: (-(exact[d] - counts[d]), d.value))
    for d in leftovers[:total - sum(counts.values())]:  # fewer than one per domain
        counts[d] += 1
    return counts


def cmd_generate(args) -> int:
    mix = args.mix or (_apportion(args.cases) if args.cases else None)
    spec = generator.GeneratorSpec(domain_mix=mix) if mix else generator.GeneratorSpec()
    cases = generator.generate_corpus(spec, seed=args.seed)
    casefile.split_cases(cases, args.split, seed=args.seed)
    casefile.save_corpus(cases, args.out)
    rows = generator.corpus_composition(cases)
    header = f"{'Domain':<12}{'Cases':>7}{'Q/Bundle':>12}{'Queries':>9}"
    print(header)
    for row in rows:
        qb = f"{row['queries_per_bundle_mean']} ± {row['queries_per_bundle_sd']}"
        print(f"{row['domain']:<12}{row['cases']:>7}{qb:>12}{row['queries']:>9}")
    print(f"wrote {len(cases)} cases to {args.out}")
    return 0


def cmd_label(args) -> int:
    cases = casefile.load_corpus(_resolve_corpus_path(args.corpus))
    timeouts = 0
    for case in cases:
        try:
            casefile.label_case(case)
        except casefile.LabelTimeout:
            timeouts += 1
            case.extra["label_timeout"] = True
            for q in case.queries:
                q.gold_label = None
    casefile.save_corpus(cases, args.out)
    labeled = sum(1 for c in cases if all(q.gold_label for q in c.queries))
    print(f"labeled {labeled}/{len(cases)} cases ({timeouts} refused on timeout) -> {args.out}")
    return 0


def cmd_run(args) -> int:
    # the options given; RunConfig supplies every other default
    options = {name: value for name, value in vars(args).items() if name in runner.RunConfig.FIELDS}
    config = runner.RunConfig(**{**options, "corpus": _resolve_corpus_path(args.corpus)})
    reports, timings = runner.run(config)
    out = runner.write_run(args.out, config, reports, timings)
    m = metrics.aggregate(reports)
    bad = sum(len(r.invariant_failures) for r in reports)
    print(f"{len(reports)} bundles -> {out}")
    print(f"SetCons={m.set_cons_rate:.3f} Acc={m.accuracy:.3f} "
          f"RevCost={m.revision_cost:.3f}")
    if bad:
        for r in reports:
            for failure in r.invariant_failures:
                print(f"INVARIANT VIOLATION [{r.case_id}]: {failure}", file=sys.stderr)
        return 1
    return 0


def _load_run(run_dir: str):
    path = Path(run_dir) / "reports.jsonl"
    reports = metrics.load_reports(path)
    if not any(q.gold is not None for r in reports for q in r.queries):
        raise metrics.ReportFormatError(f"{path}: no gold-labelled query to score")
    timings = Path(run_dir) / "timings.json"
    return reports, metrics.load_timings(timings).total_seconds if timings.exists() else None


def cmd_score(args) -> int:
    reports, eval_s = _load_run(args.run)
    baseline_reports, baseline_eval_s = (None, None)
    if args.baseline:  # a run scored against itself is read once
        same = (Path(args.baseline, "reports.jsonl").resolve()
                == Path(args.run, "reports.jsonl").resolve())
        baseline_reports, baseline_eval_s = (reports, eval_s) if same else _load_run(args.baseline)
    m = metrics.aggregate(reports, baseline=baseline_reports)
    label = f"{reports[0].method}/{reports[0].mode}"
    table = metrics.render_table([(label, m)])
    out_dir = Path(args.out or args.run)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(
        json.dumps(m, default=vars, sort_keys=True, indent=2) + "\n")
    (out_dir / "table.txt").write_text(table)
    print(table, end="")
    if eval_s is not None:
        line = f"evaluation time, summed over bundles: {eval_s:.2f}s"
        if baseline_eval_s:
            line += f" ({eval_s / baseline_eval_s:.2f}x baseline)"
        print(line)
    return 0


def cmd_report(args) -> int:
    reports, _ = _load_run(args.run)
    m, domains = metrics.aggregate(reports), metrics.domain_breakdown(reports)  # before output
    label = f"{reports[0].method}/{reports[0].mode}"
    print(metrics.render_table([(label, m)], title="overall"), end="")
    print()
    print(metrics.render_table(domains, title="by domain"), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casecheck",
        description="Case-file consistency engine: corpus generation, "
                    "policy evaluation, and set-level metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--cases", type=_at_least_one, default=None,
                   help="total case count, at least 1 (default: the full 120/100/80/90 mix)")
    g.add_argument("--mix", type=_parse_mix, default=None,
                   help=f"per-domain counts: {','.join(Domain)}")
    g.add_argument("--split", type=_parse_ratios, default="0.8,0.1,0.1",
                   help="train,dev,test shares, each >= 0, summing to 1")
    g.set_defaults(func=cmd_generate)

    l = sub.add_parser("label", help="derive gold labels with the solver")
    l.add_argument("--corpus", required=True)
    l.add_argument("--out", required=True)
    l.set_defaults(func=cmd_label)

    # an option not given is left out, so every default but --policy's is RunConfig's
    r = sub.add_parser("run", help="evaluate a policy over a corpus",
                       argument_default=argparse.SUPPRESS)
    r.set_defaults(func=cmd_run)
    r.add_argument("--corpus", required=True)
    r.add_argument("--out", required=True, help="run directory")
    r.add_argument("--policy", default="oracle",
                   help="preset name or policy config file (default: oracle)")
    r.add_argument("--method", choices=METHODS, metavar="METHOD", help="one of %(choices)s")
    r.add_argument("--mode", choices=MODES, metavar="MODE", help="one of %(choices)s")
    r.add_argument("--split")
    r.add_argument("--seed", type=int)
    r.add_argument("--r-max", type=_at_least_one)
    r.add_argument("--call-cap-factor", type=_at_least_one)
    r.add_argument("--max-conflicts", type=_at_least_one,
                   help="deterministic conflict budget per solver call")
    r.add_argument("--jobs", type=_at_least_one)

    s = sub.add_parser("score", help="compute metrics from a run directory")
    s.add_argument("--run", required=True)
    s.add_argument("--baseline", default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="print metric tables for a run")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"casecheck {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
