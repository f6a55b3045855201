"""Cell benchmark: campaign cells end to end, and layer by layer when traced.

    python3 cellbench/run.py --workload table1_cells --seed 0 --seconds 8 --trace 0

Each pass of the workload runs in a fresh process (``worker.py``).  Passes
repeat until ``--seconds`` of measurement have elapsed, at least once.  Set-up
is timed in several fresh processes and reported as the median.  End-to-end
times are scaled to a reference host speed by a probe that runs alongside the
program (``hostspeed.py``); the raw times are printed too.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass, and the span
log goes to ``.cellbench/spans/``.

Every run prints each cell's payload digest.  On the default seed (0) the
digests must match ``pins.json``; a mismatch fails the cell.  ``--pin``
rewrites this workload's entry of ``pins.json`` from a seed-0 pass.

See ``METRICS.md`` for what each metric means and which change should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
PREFIX = "@cellbench"
DEFAULT_SEED = 0
#: Fresh set-up probes besides the measured passes (set-up is their median).
SETUP_PROBES = 2
#: A pass that has not finished by then is killed and the run fails.
PASS_TIMEOUT_S = 160.0

sys.path.insert(0, str(HERE))
from hostspeed import PROBE_REF_S, scaled  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class RunError(Exception):
    """The run cannot produce a result; the message says why."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # one line, no usage block
        self.exit(2, f"cellbench: {message}; workloads: {', '.join(WORKLOADS)}; "
                     "--seed takes an integer\n")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = _Parser(prog="cellbench")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite this workload's pinned seed-0 digests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    return args


# -- child processes -------------------------------------------------------

def _worker(workload: str, seed: int, trace: int, setup_only: bool = False,
            spans: Optional[Path] = None) -> dict:
    """Run one fresh ``worker.py`` process and return its messages."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # CLOCK_MONOTONIC is system-wide, so the child can time itself from here.
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} pass exceeded {PASS_TIMEOUT_S:.0f} s") from None
    messages = {}
    for line in proc.stdout.splitlines():
        if line.startswith(PREFIX):
            kind, _, payload = line[len(PREFIX) + 1:].partition(" ")
            messages[kind] = json.loads(payload)
        else:
            print(line, file=sys.stderr)
    if proc.returncode != 0 or "ready" not in messages or (
            not setup_only and "result" not in messages):
        raise RunError(f"{workload} worker exited with code {proc.returncode}")
    return messages


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _loadavg() -> str:
    return ",".join(f"{x:.2f}" for x in os.getloadavg())


# -- pins ------------------------------------------------------------------

def _load_pins() -> Dict[str, Dict[str, str]]:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def _write_pins(workload: str, cells: List[dict]) -> None:
    pins = _load_pins()
    pins[workload] = {c["label"]: c["digest"] for c in cells}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


# -- the run ---------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args: argparse.Namespace) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise RunError(f"no program source at {ROOT / 'src' / 'repro'}; "
                       "run from the root of a repository checkout")
    workload = WORKLOADS[args.workload]
    print(f"env git={_git_sha()} nproc={os.cpu_count()} load_before={_loadavg()} "
          f"python={platform.python_version()}")
    print(f"workload {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")

    setups = [_worker(workload.name, args.seed, 0, setup_only=True)["ready"]
              for _ in range(SETUP_PROBES)]
    passes: List[dict] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        spans = None
        if args.trace:
            spans = ROOT / ".cellbench" / "spans" / (
                f"{workload.name}-seed{args.seed}-pass{len(passes)}.json")
        messages = _worker(workload.name, args.seed, args.trace, spans=spans)
        setups.append(messages["ready"])
        passes.append(messages["result"])
    print(f"passes={len(passes)} numpy={passes[0]['numpy']} load_after={_loadavg()}")

    # Correctness: no error, the same payload in every pass, pins on seed 0.
    pins = _load_pins().get(workload.name, {}) if args.seed == DEFAULT_SEED else {}
    cells = passes[0]["cells"]
    failed = 0
    for n, result in enumerate(passes):
        for first, cell in zip(cells, result["cells"]):
            problems = [cell["error"]] if cell["error"] else []
            if cell["digest"] != first["digest"]:
                problems.append("payload differs from the first pass")
            pinned = pins.get(cell["label"])
            if pinned is not None and pinned != cell["digest"]:
                problems.append(f"digest differs from pinned {pinned}")
            failed += bool(problems)
            if n == 0 or problems:
                verdict = "FAILED " + "; ".join(problems) if problems else (
                    "pin=ok" if pinned else "pin=none")
                print(f"cell {cell['label']} pass={n} s={cell['s']:.4f} "
                      f"digest={cell['digest']} {verdict}")
    for cell in cells:
        if "pft_analytic" in cell:  # printed, not asserted: they disagree today
            print(f"pft {cell['label']} pft_analytic={cell['pft_analytic']} "
                  f"pft_monte_carlo={cell['pft_monte_carlo']}")
    checks = [c for p in passes for c in p["checks"]]
    if pins and not args.pin and set(pins) != {c["label"] for c in cells}:
        checks.append("pinned cell set differs from the workload's cells")
    for check in checks:
        print(f"check FAILED {check}")
    if args.pin:
        if args.seed != DEFAULT_SEED or failed or checks:
            raise RunError("--pin needs --seed 0 and a pass without failures")
        _write_pins(workload.name, cells)
        print(f"pinned {len(cells)} digests for {workload.name} in {PINS.name}")

    # Every end-to-end figure, by name and unit.
    # Times are scaled to the reference host speed (hostspeed.py); the raw
    # figures and the host's slowdown are printed beside them.
    raw_wall = median([p["wall_s"] for p in passes])
    raw_setup = median([s["s"] for s in setups])
    print(f"metric raw_wall_s {raw_wall:.4f} s")
    print(f"metric raw_setup_s {raw_setup:.4f} s")
    print(f"metric host_slowdown {median([p['probe_s'] for p in passes]) / PROBE_REF_S:.4f} "
          "ratio")
    e2e = {
        "wall_s": _metric(median([scaled(p["wall_s"], p["probe_s"]) for p in passes]), "s"),
        "setup_s": _metric(median([scaled(s["s"], s["probe_s"]) for s in setups]), "s"),
        "peak_rss_mb": _metric(max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    for circuit in sorted({c["circuit"] for c in cells}):
        seconds = median([
            scaled(median([c["s"] for c in p["cells"] if c["circuit"] == circuit]),
                   p["probe_s"])
            for p in passes
        ])
        print(f"metric cell_s.{circuit} {seconds:.4f} s")
    for key in ("resubmit_s", "query_s"):
        if key in passes[0]:
            print(f"metric {key} {median([p[key] for p in passes]):.4f} s")
    attempted = len(cells) * len(passes)
    print(f"metric fail_ratio {failed / attempted:.4f} ratio")

    for name, m in e2e.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    metrics = e2e
    if args.trace:
        for profile in passes[0].get("profiles", []):
            wall = profile["wall_s"]
            stages = " ".join(f"{k}={v / wall:.1%}" for k, v in profile["stages"].items())
            top = sorted(profile["self_s"].items(), key=lambda kv: -kv[1])[:6]
            selfs = " ".join(f"{k}={v:.3f}" for k, v in top)
            print(f"profile {profile['label']} wall={wall:.3f}s {stages} | self_s {selfs}")
        metrics = {
            name: _metric(median([p["layers"][name] for p in passes]), unit)
            for name, unit in LAYER_UNITS.items()
        }
        for name, m in metrics.items():
            print(f"metric {name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": not failed and not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except RunError as exc:
        print(f"cellbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
