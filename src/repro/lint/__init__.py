"""``repro.lint`` -- determinism & purity static analysis for this repo.

The reproduction's headline claims (TTL inference, the Fig. 14-20 method
comparisons, golden-digest replay) rest on invariants the test suite
can only spot-check at runtime:

- every random draw comes from a seeded, named stream;
- no simulation code reads wall-clock time;
- observability code never schedules events or draws randomness, so
  attaching a tracer cannot perturb a run;
- simulated-time floats are never compared with ``==``/``!=``;
- hot-path classes stay ``__slots__``-ed; config dataclasses stay
  keyword-only.

``repro.lint`` machine-checks those invariants over the AST so the next
thousand lines of perf work cannot silently break them.  Run it as::

    python -m repro.lint src          # or: repro lint src
    python -m repro.lint --list-rules

Each rule has a stable ``REPxxx`` code (see :mod:`repro.lint.rules` and
``docs/static-analysis.md``).  Per-line suppression::

    t = time.time()  # repro: noqa REP002 -- wall-clock OK in this shim

Grandfathered findings live in a committed JSON baseline
(``lint-baseline.json``); only *new* findings fail the build.
"""

from __future__ import annotations

from .baseline import Baseline
from .engine import LintReport, SourceFile, lint_paths, lint_sources
from .findings import Finding
from .rules import RULES, all_codes, rule_for_code

__all__ = [
    "Baseline",
    "Finding",
    "LintReport",
    "RULES",
    "SourceFile",
    "all_codes",
    "lint_paths",
    "lint_sources",
    "rule_for_code",
]
