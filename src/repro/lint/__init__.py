"""``repro.lint`` — AST-based checker for the repo's standing invariants.

Every headline guarantee this reproduction makes rests on code-shape
invariants that used to be enforced by reviewer vigilance alone.  This
package machine-checks them over ``src/`` as ``repro lint`` (or
``python -m repro.lint``), with one stable code per rule:

=========  ==============================================================
``RPR000`` file does not parse (the linter never silently skips code)
``RPR101`` legacy ``np.random.*`` global-state API call
``RPR102`` argless ``default_rng()`` / stdlib ``random`` import
``RPR103`` ``rng`` truthiness default (use ``if rng is None``)
``RPR201`` nondeterministic value flows into a record payload field
``RPR202`` ``runtime``/``traces`` diagnostics read back into a payload
``RPR401`` third-party import in the stdlib-only service package
``RPR402`` lock-guarded shared state mutated outside ``with self._lock:``
=========  ==============================================================

R1 (101-103) protects seed discipline — all randomness flows from
``derive_seed``, the root of PR 3's parallel==serial payload-bit-parity.
R2 (201-202) protects payload purity — the soundness condition of PR 8's
fleet-wide spec-hash result cache.  R4 (401-402) protects the fleet
service's stdlib-only deployability and its job-table lock discipline.

The checker is purely syntactic (stdlib ``ast``; checked code is never
imported) and ships with an **empty** suppression allowlist: the tree
passes with zero findings and CI keeps it that way.  Escape hatches for
the future: ``--allow`` files and inline ``# lint: allow[CODE]`` comments.

Programmatic use::

    from repro.lint import lint_source, lint_paths

    findings = lint_source(code, module="repro.sim.example")
    findings, n_files = lint_paths([Path("src")])
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from .config import Allowlist
from .context import ModuleContext
from .findings import Finding
from .registry import RULES, Rule, run_rules

# Importing the rule modules registers their checks.
from . import rules_seed  # noqa: F401,E402  (registration side effect)
from . import rules_payload  # noqa: F401,E402
from . import rules_service  # noqa: F401,E402

from .cli import lint_file, lint_paths, main, run_lint  # noqa: E402


def lint_source(
    source: str,
    module: Optional[str] = None,
    path: Union[str, Path] = "<source>",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint an in-memory source string (the fixture-test entry point).

    ``module`` sets the dotted module name scoped rules key on (e.g.
    ``"repro.sim.example"`` puts the fixture inside the kernel scope);
    when omitted it is inferred from ``path``.
    """
    ctx = ModuleContext(source, path=path, module=module)
    return run_rules(ctx, select=select)


__all__ = [
    "Allowlist",
    "Finding",
    "ModuleContext",
    "RULES",
    "Rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "run_lint",
    "run_rules",
]
