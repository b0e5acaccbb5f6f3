"""Write the long-bundles corpus: the default 390-case domain mix with 14-16
queries per bundle. The CLI has no bundle-size flag, so this goes through the
library calls ``casecheck generate`` itself makes.

Usage: python3 perfbench/long_corpus.py OUT SEED   (with src/ on PYTHONPATH)
"""

from __future__ import annotations

import sys

from casecheck.casefile import save_corpus, split_cases
from casecheck.generator import GeneratorSpec, generate_corpus


def write_long_corpus(out: str, seed: int) -> None:
    cases = generate_corpus(GeneratorSpec(bundle_min=14, bundle_max=16), seed=seed)
    split_cases(cases, (0.8, 0.1, 0.1), seed=seed)
    save_corpus(cases, out)


if __name__ == "__main__":
    write_long_corpus(sys.argv[1], int(sys.argv[2]))
