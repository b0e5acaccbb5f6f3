"""casecheck: consistency engine and evaluation harness for multi-query case files.

The words the files spell are declared here once: gold and answered labels,
domains, step statuses, and the methods and modes a run takes. Every
subcommand executes this module and only the engine modules it uses, so
scoring compares against these words without executing one.
"""

import importlib.util
import sys
from enum import Enum

__version__ = "0.1.0"


class InputError(ValueError):
    """Bad input that the CLI refuses with exit 2 and a one-line message: the
    base of ``casefile.CaseError``, ``answerers.PolicyError`` and
    ``metrics.ReportFormatError``, so that catching them executes none of
    those modules."""


# Each member is the string a corpus or report holds, and ``json.dumps``
# writes it as that string.
class Label(str, Enum):
    ENTAILED = "entailed"
    CONTRADICTED = "contradicted"
    UNKNOWN = "unknown"


class Domain(str, Enum):
    RELATIONAL = "relational"
    TEMPORAL = "temporal"
    POLICY = "policy"
    ABDUCTIVE = "abductive"


class SolveStatus(str, Enum):
    SAT = "sat"
    UNSAT = "unsat"
    TIMEOUT = "timeout"


# the methods and modes a run takes (``runner.RunConfig`` checks them)
METHODS = ("baseline", "check", "check+repair")
MODES = ("set", "sequential")


# The engine modules are registered in ``sys.modules`` and bound here at once
# but executed on first attribute access (the lazy-import recipe of the
# ``importlib`` docs), so each subcommand executes only the modules it uses:
# ``score`` and ``report`` execute ``metrics`` and its checker, ``schema``,
# alone. A new engine module joins this list. ``cli`` stays off it:
# ``python -m casecheck.cli`` must not find it in ``sys.modules`` before
# running it.
_LAZY = ("schema", "logic", "solver", "lia", "casefile", "commitments", "repair", "answerers",
         "metrics", "generator", "runner")


def _register(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _register(_name)
del _name
