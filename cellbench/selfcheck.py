"""The benchmark's own test: tracing changes no result, and counts repeat.

    python3 cellbench/selfcheck.py [--seed N] [workload ...]

For each workload (all by default) this runs ``run.py`` once untraced and
twice traced, then checks that

* the per-layer counts below are identical across the two traced runs, and
* every cell's payload digest is the same in all three runs.

It also prints the tracing overhead (traced minus untraced ``wall_s``) and
``cell.unattributed.s``.  Exit code 0 means every check held.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

#: Per-layer counts a deterministic program must repeat exactly.
EXACT_COUNTS = (
    "thresholds.calls", "faultsim.calls", "faultsim.fault_patterns",
    "podem.calls", "podem.detected", "podem.aborted", "podem.untestable",
    "atpg.patterns", "salvage.trials", "salvage.accepted",
    "compile.full", "compile.patched", "compile.hits",
    "insertion.attempts", "trigger.mc.session_vectors", "seqsim.calls",
    "detect.chips", "cache.hits", "cache.misses",
)


def _run(workload: str, seed: int, trace: int) -> Tuple[Dict[str, str], Dict[str, float], dict]:
    """One ``run.py`` run: (cell digests, printed metrics, result line).

    Stage profiles of traced runs are echoed as they are.
    """
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.splitlines()
    digests: Dict[str, str] = {}
    printed: Dict[str, float] = {}
    for line in out:
        words = line.split()
        if words[:1] == ["cell"] and words[2] == "pass=0":
            digests[words[1]] = words[4].split("=", 1)[1]
        elif words[:1] == ["metric"]:
            printed[words[1]] = float(words[2])
        elif words[:1] == ["profile"]:
            print(f"  {line}")
    return digests, printed, json.loads(out[-1])


def check(workload: str, seed: int) -> List[str]:
    plain_digests, plain, _ = _run(workload, seed, 0)
    traced = [_run(workload, seed, 1) for _ in range(2)]
    problems = []
    for n, (digests, _, result) in enumerate(traced):
        if digests != plain_digests:
            problems.append(f"traced run {n} changed payload digests")
        if not result["correct"]:
            problems.append(f"traced run {n} is not correct")
    first, second = (t[2]["metrics"] for t in traced)
    for name in EXACT_COUNTS:
        if first[name]["value"] != second[name]["value"]:
            problems.append(f"{name}: {first[name]['value']} != {second[name]['value']}")
    overhead = traced[0][1]["wall_s"] - plain["wall_s"]
    print(f"{workload}: wall_s untraced={plain['wall_s']:.3f} traced={traced[0][1]['wall_s']:.3f} "
          f"overhead_s={overhead:+.3f} ({overhead / plain['wall_s']:+.1%}) "
          f"cell.unattributed.s={first['cell.unattributed.s']['value']:.4f} "
          f"spans={first['trace.spans']['value']} "
          f"cells={len(plain_digests)} {'ok' if not problems else 'FAILED'}")
    for problem in problems:
        print(f"  {problem}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(prog="cellbench-selfcheck")
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if unknown:
        parser.exit(2, f"unknown workloads {unknown}; choose from {', '.join(WORKLOADS)}\n")
    failures = sum(len(check(w, args.seed)) for w in args.workloads)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
