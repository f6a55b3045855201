"""In-memory spans around calls into the program's layers.

The tracer wraps the names callers look up (module globals, class
attributes, registry entries) and restores them on :meth:`Tracer.close`.
Nothing under ``src/`` is edited: every span is recorded from here.

A span has a name, start, end, parent span and cell.  Spans nest per
thread and belong to their parent's cell; a span with no parent on its
thread belongs to no cell unless it is a cell span itself.  Counts recorded
at the same boundaries go into the span's ``attrs``.  Spans stay in memory; :func:`layer_metrics` reduces them
when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    cell: Optional[int]
    end: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _AtpgPhase:
    """Call-order state of one ``generate_test_set`` call."""

    random_blocks: int
    block_size: int
    random_calls: int = 0
    podem_seen: bool = False
    after_detect: bool = False
    pre_compact_rows: Optional[int] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, cell: bool = False, **attrs: Any):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        if cell:
            cell_id: Optional[int] = span_id
        else:
            cell_id = parent.cell if parent is not None else None
        span = Span(
            span_id, name, time.perf_counter(),
            parent.id if parent is not None else None, cell_id, attrs=attrs,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    # -- wrapping --------------------------------------------------------
    def traced(
        self,
        fn: Callable[..., Any],
        name: str,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
        cell: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span.

        ``before(span, args, kwargs)`` may return new ``(args, kwargs)``;
        ``after(span, args, kwargs, result)`` records counts from the call.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, cell=cell) as span:
                if before is not None:
                    args, kwargs = before(span, args, kwargs) or (args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, kwargs, result)
                return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`close`.

        A name the program no longer has is skipped, so the benchmark keeps
        running across refactors (its counts then read 0).
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        setattr(owner, attr, self.traced(original, name, **hooks))
        self.on_close(lambda: setattr(owner, attr, original))

    def on_close(self, undo: Callable[[], None]) -> None:
        self._restore.append(undo)

    def close(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- per-thread ATPG phase -------------------------------------------
    @property
    def atpg(self) -> Optional[_AtpgPhase]:
        return getattr(self._local, "atpg", None)

    @atpg.setter
    def atpg(self, value: Optional[_AtpgPhase]) -> None:
        self._local.atpg = value


def _arg(args: tuple, kwargs: dict, index: int, key: str, default: Any = None) -> Any:
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import numpy as np

    from repro.api import fleet
    from repro.api.registry import DETECTORS
    from repro.atpg.faultsim import FaultSimulator
    from repro.atpg.generate import AtpgConfig
    from repro.atpg.podem import PodemEngine, PodemStatus
    from repro.core import insertion, pipeline, salvage, thresholds
    from repro.service.cache import ResultCache
    from repro.service.client import FleetClient
    from repro.service.store import ResultStore
    from repro.sim.seqsim import SequentialSimulator
    from repro.trojan import trigger

    # core.thresholds: one span per call, keyed for memo reuse.
    def thresholds_before(span, args, kwargs):
        circuit = _arg(args, kwargs, 0, "circuit")
        defender = _arg(args, kwargs, 2, "defender")
        span.attrs["key"] = f"{circuit.structural_fingerprint()}|{defender!r}"

    tracer.wrap(pipeline, "compute_thresholds", "thresholds", before=thresholds_before)
    tracer.wrap(thresholds, "optimize_netlist", "power.optimize")
    for module in (thresholds, salvage, insertion):
        tracer.wrap(module, "analyze", "power.analyze")

    # atpg: the phase of each fault-sim call follows from call order.
    def atpg_before(span, args, kwargs):
        config = _arg(args, kwargs, 1, "config") or AtpgConfig()
        tracer.atpg = _AtpgPhase(config.random_blocks, config.block_size)

    def atpg_after(span, args, kwargs, result):
        phase = tracer.atpg
        tracer.atpg = None
        span.attrs.update(
            patterns=int(result.n_patterns),
            detected=int(result.detected_faults),
            faults=int(result.total_faults),
            pre_compact=int(phase.pre_compact_rows or result.n_patterns),
        )

    tracer.wrap(thresholds, "generate_test_set", "atpg", before=atpg_before, after=atpg_after)

    def faultsim_before(span, args, kwargs):
        faults = _arg(args, kwargs, 2, "faults")
        if not isinstance(faults, Sequence):  # len() must not consume it
            faults = list(faults)
            if "faults" in kwargs:
                kwargs = dict(kwargs, faults=faults)
            else:
                args = args[:2] + (faults,) + args[3:]
        rows = int(np.atleast_2d(_arg(args, kwargs, 1, "patterns")).shape[0])
        span.attrs["fault_patterns"] = rows * len(faults)
        span.attrs["phase"] = _faultsim_phase(tracer.atpg, rows)
        return args, kwargs

    tracer.wrap(FaultSimulator, "run", "faultsim", before=faultsim_before)

    def podem_after(span, args, kwargs, result):
        span.attrs["status"] = result.status.value
        phase = tracer.atpg
        if phase is not None:
            phase.podem_seen = True
            phase.after_detect = result.status is PodemStatus.DETECTED

    tracer.wrap(PodemEngine, "generate", "podem", after=podem_after)

    # core.salvage / sim.compiled / core.insertion.
    def salvage_after(span, args, kwargs, result):
        tried = [r for r in result.removals if r.tied_value >= 0]
        span.attrs.update(
            trials=len(tried),
            accepted=sum(1 for r in tried if r.accepted),
            compile=dict(result.compile_stats),
        )

    tracer.wrap(pipeline, "salvage", "salvage", after=salvage_after)

    def insertion_after(span, args, kwargs, result):
        span.attrs["attempts"] = len(result.attempts)

    tracer.wrap(pipeline, "insert_trojan_zero", "insertion", after=insertion_after)

    # trojan.trigger / sim.seqsim.
    tracer.wrap(pipeline, "trigger_report", "trigger")

    def mc_before(span, args, kwargs):
        vectors = _arg(args, kwargs, 2, "n_test_vectors")
        sessions = _arg(args, kwargs, 3, "n_sessions", 256)
        span.attrs["session_vectors"] = int(vectors) * int(sessions)

    tracer.wrap(trigger, "monte_carlo_pft", "trigger.mc", before=mc_before)
    tracer.wrap(SequentialSimulator, "run_sequences_nets", "seqsim")

    # detect / traces: every registered suite.
    for suite_name in DETECTORS.names():
        suite = DETECTORS.get(suite_name)

        def detect_before(span, args, kwargs, suite_name=suite_name):
            span.attrs.update(suite=suite_name, chips=int(kwargs.get("n_chips", 0)))

        DETECTORS.register(suite_name, tracer.traced(suite, "detect", before=detect_before))
        tracer.on_close(lambda n=suite_name, s=suite: DETECTORS.register(n, s))

    # service / api.fleet: cells run by the server are cells too.
    tracer.wrap(fleet, "run_experiment", "cell", cell=True)

    def cache_get_after(span, args, kwargs, result):
        span.attrs["hit"] = result is not None

    tracer.wrap(ResultCache, "get", "cache.get", after=cache_get_after)
    tracer.wrap(ResultCache, "put", "cache.put")
    tracer.wrap(ResultStore, "ingest", "store.ingest")
    tracer.wrap(ResultStore, "compact", "store.compact")
    for method in ("health", "submit", "status", "jobs", "records", "cancel"):
        tracer.wrap(FleetClient, method, "client.request")


def _faultsim_phase(phase: Optional[_AtpgPhase], rows: int) -> str:
    """Random blocks come first, a cross-drop follows each detecting PODEM
    call, and the rest is compaction plus the final sweep."""
    if phase is None:
        return "other"
    if phase.after_detect:
        phase.after_detect = False
        return "podem"
    if (
        not phase.podem_seen
        and phase.pre_compact_rows is None
        and phase.random_calls < phase.random_blocks
        and rows == phase.block_size
    ):
        phase.random_calls += 1
        return "random"
    if phase.pre_compact_rows is None:
        phase.pre_compact_rows = rows
    return "compact"


# -- reduction -----------------------------------------------------------

#: Per-layer metrics of a traced pass, as :func:`layer_metrics` returns
#: them (plus ``service.compute_share``, added by the worker): name -> unit.
LAYER_UNITS: Dict[str, str] = {
    "thresholds.s": "s", "thresholds.calls": "count", "thresholds.repeat_share": "ratio",
    "power.optimize.s": "s", "power.analyze.s": "s",
    "atpg.s": "s", "atpg.random.s": "s", "atpg.podem_phase.s": "s", "atpg.compact.s": "s",
    "atpg.patterns": "count", "atpg.coverage": "ratio", "atpg.compact.keep_ratio": "ratio",
    "faultsim.calls": "count", "faultsim.s": "s", "faultsim.fault_patterns": "count",
    "podem.calls": "count", "podem.s": "s", "podem.detected": "count",
    "podem.aborted": "count", "podem.untestable": "count", "podem.detect_ratio": "ratio",
    "salvage.s": "s", "salvage.trials": "count", "salvage.accepted": "count",
    "salvage.accept_ratio": "ratio",
    "compile.full": "count", "compile.patched": "count", "compile.hits": "count",
    "insertion.s": "s", "insertion.attempts": "count",
    "trigger.s": "s", "trigger.mc.s": "s", "trigger.mc.session_vectors": "count",
    "seqsim.calls": "count", "seqsim.s": "s",
    "detect.s": "s", "detect.chips": "count",
    "cache.hits": "count", "cache.misses": "count", "cache.get.s": "s", "cache.put.s": "s",
    "store.ingest.s": "s", "store.compact.s": "s", "client.requests": "count",
    "service.compute_share": "ratio",
    "cell.s": "s", "cell.unattributed.s": "s", "trace.spans": "count",
}


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Reduce one run's spans to the per-layer metrics."""
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in named(name))

    m: Dict[str, float] = {}
    keys = [s.attrs["key"] for s in sorted(named("thresholds"), key=lambda s: s.start)]
    m["thresholds.s"] = total("thresholds")
    m["thresholds.calls"] = len(keys)
    m["thresholds.repeat_share"] = _ratio(len(keys) - len(set(keys)), len(keys))
    m["power.optimize.s"] = total("power.optimize")
    m["power.analyze.s"] = total("power.analyze")

    m["atpg.s"] = total("atpg")
    faultsim = named("faultsim")
    for phase, key in (("random", "atpg.random.s"), ("podem", "atpg.podem_phase.s"),
                       ("compact", "atpg.compact.s")):
        m[key] = sum(s.duration for s in faultsim if s.attrs["phase"] == phase)
    m["atpg.patterns"] = attr_sum("atpg", "patterns")
    m["atpg.coverage"] = _ratio(attr_sum("atpg", "detected"), attr_sum("atpg", "faults"))
    m["atpg.compact.keep_ratio"] = _ratio(
        attr_sum("atpg", "patterns"), attr_sum("atpg", "pre_compact")
    )
    m["faultsim.calls"] = len(faultsim)
    m["faultsim.s"] = total("faultsim")
    m["faultsim.fault_patterns"] = attr_sum("faultsim", "fault_patterns")

    podem = named("podem")
    statuses = [s.attrs["status"] for s in podem]
    m["podem.calls"] = len(podem)
    m["podem.s"] = total("podem")
    for status in ("detected", "aborted", "untestable"):
        m[f"podem.{status}"] = statuses.count(status)
    m["podem.detect_ratio"] = _ratio(statuses.count("detected"), len(podem))

    m["salvage.s"] = total("salvage")
    m["salvage.trials"] = attr_sum("salvage", "trials")
    m["salvage.accepted"] = attr_sum("salvage", "accepted")
    m["salvage.accept_ratio"] = _ratio(m["salvage.accepted"], m["salvage.trials"])
    for key, stat in (("compile.full", "full_compiles"),
                      ("compile.patched", "patched_compiles"),
                      ("compile.hits", "fingerprint_hits")):
        m[key] = sum(s.attrs["compile"].get(stat, 0) for s in named("salvage"))
    m["insertion.s"] = total("insertion")
    m["insertion.attempts"] = attr_sum("insertion", "attempts")

    m["trigger.s"] = total("trigger")
    m["trigger.mc.s"] = total("trigger.mc")
    m["trigger.mc.session_vectors"] = attr_sum("trigger.mc", "session_vectors")
    m["seqsim.calls"] = len(named("seqsim"))
    m["seqsim.s"] = total("seqsim")
    m["detect.s"] = total("detect")
    m["detect.chips"] = attr_sum("detect", "chips")

    gets = named("cache.get")
    m["cache.hits"] = sum(1 for s in gets if s.attrs["hit"])
    m["cache.misses"] = len(gets) - m["cache.hits"]
    m["cache.get.s"] = total("cache.get")
    m["cache.put.s"] = total("cache.put")
    m["store.ingest.s"] = total("store.ingest")
    m["store.compact.s"] = total("store.compact")
    m["client.requests"] = len(named("client.request"))

    cells = named("cell")
    top = {s.id: 0.0 for s in cells}
    for s in spans:
        if s.parent in top:
            top[s.parent] += s.duration
    m["cell.s"] = sum(s.duration for s in cells)
    m["cell.unattributed.s"] = sum(s.duration - top[s.id] for s in cells)
    m["trace.spans"] = len(spans)
    return m


#: Self-time key of a fault-sim span, by the ATPG phase it ran in.
_FAULTSIM_LAYER = {
    "random": "atpg.random",
    "podem": "atpg.podem_phase",
    "compact": "atpg.compact",
    "other": "faultsim",
}


def cell_profiles(spans: List[Span]) -> List[dict]:
    """Per cell: wall time, its top-level stages and self time per layer."""
    selfs = self_times(spans)
    cells = {s.id: s for s in spans if s.name == "cell"}
    profiles: Dict[int, dict] = {
        cid: {"label": c.attrs.get("label", str(cid)), "wall_s": c.duration,
              "stages": {}, "self_s": {}}
        for cid, c in cells.items()
    }
    for s in spans:
        profile = profiles.get(s.cell)
        if profile is None:
            continue
        key = _FAULTSIM_LAYER[s.attrs["phase"]] if s.name == "faultsim" else s.name
        profile["self_s"][key] = profile["self_s"].get(key, 0.0) + selfs[s.id]
        if s.parent == s.cell:
            profile["stages"][s.name] = profile["stages"].get(s.name, 0.0) + s.duration
    return [profiles[cid] for cid in sorted(profiles)]
