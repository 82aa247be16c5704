"""Per-layer tracing for the benchmark's traced passes.

``Tracer.install`` replaces public dfsim functions by wrappers through their
module attributes, so a call made as ``module.function`` or through the
defining module's own globals is recorded; a name bound elsewhere with
``from ... import`` is not, and its cost stays in its caller's self time.
Each call records a span in memory: its name, its parent span, the
workload and the pass (run id), and four clock readings.  ``start`` and
``end`` bracket the wrapped call; ``enter`` and ``exit`` bracket the whole
wrapper, so the wrapper's own bookkeeping is measured rather than folded
into the parent's self time.  The spans are written out when the run ends.

Self time is a span's duration minus the part of it that its children,
wrappers included, cover.  Every ``*_s`` layer metric is a sum of self
times, so the self times, the wrapper time and the few clock reads around
the root call add up to the traced wall time of the pass.

Traced passes run under speed.SpeedSampler like untraced ones, so that the
tracing overhead can be taken at reference CPU speed.  Its samples are
recorded as ``SAMPLE_SPAN`` spans: as children they leave the self time of
whatever span they interrupted, and they count in no layer metric, just as
the pass's wall time leaves them out.  A sample that interrupts a wrapper's
own bookkeeping counts in ``trace.wrapper_s`` instead, and the sampling
handler's own few instructions are in no span, so ``trace.unaccounted_s``
is a few milliseconds off zero per pass.
"""

from __future__ import annotations

import builtins
import csv
import functools
import importlib
import inspect
import itertools
import time
from collections import defaultdict
from typing import NamedTuple

#: (dfsim module, attribute, self-time metric, call-count metric or None).
#: ``cli.print`` is the builtin as seen from dfsim.cli: it writes the
#: verify report, so it belongs with the output layer.
WRAPPED = (
    ("cli", "main", "cli.self_s", None),
    ("cli", "print", "harness.output_s", None),
    ("harness", "run_sweep", "harness.self_s", None),
    ("harness", "verify", "harness.self_s", None),
    ("harness", "results_to_csv", "harness.output_s", None),
    ("harness", "results_to_json", "harness.output_s", None),
    ("circuits", "assemble", "circuits.assemble_s", "circuits.assemble_calls"),
    ("circuits", "count_damaging_errors", "circuits.audit_s", "circuits.audit_calls"),
    ("noise", "run_plan_exact", "noise.exact_s", "noise.exact_calls"),
    ("noise", "apply_channel", "noise.apply_channel_s", "noise.apply_channel_calls"),
    ("noise", "monte_carlo_finals", "noise.mc_s", "noise.mc_calls"),
    ("noise", "shot_seed", "noise.shot_seed_s", "noise.shot_seed_calls"),
    ("readout", "signal_intensity", "readout.signal_s", "readout.signal_calls"),
)

_METRICS_OF = {f"{mod}.{attr}": (t, c) for mod, attr, t, c in WRAPPED}

#: Span name of one speed.SpeedSampler sample in a traced pass.
SAMPLE_SPAN = "speed.sample"

#: Bytes of one shot's final state in noise.monte_carlo_finals: a 16x16
#: complex128 matrix.  ``noise.mc_bytes`` is computed from it, not measured.
SHOT_STATE_BYTES = 16 * 16 * 16


class Span(NamedTuple):
    id: int
    parent: int  # 0 when no wrapped call encloses this one
    name: str
    workload: str
    run: int  # pass index within one benchmark run
    enter: int  # perf_counter_ns readings
    start: int
    end: int
    exit: int
    shots: int  # shots argument of noise.monte_carlo_finals, else 0


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self._records: list[list] = []
        self._ids = itertools.count(1)
        self._stack = [0]
        self._saved: list[tuple] = []

    def install(self, run: int) -> None:
        """Wrap every function in WRAPPED; spans are tagged with ``run``."""
        for module_name, attr, _, _ in WRAPPED:
            module = importlib.import_module(f"dfsim.{module_name}")
            had = attr in vars(module)
            original = getattr(module, attr) if had else getattr(builtins, attr)
            self._saved.append((module, attr, had, original))
            setattr(module, attr, self.wrap(f"{module_name}.{attr}", original, run))

    def uninstall(self) -> None:
        for module, attr, had, original in reversed(self._saved):
            if had:
                setattr(module, attr, original)
            else:
                delattr(module, attr)
        self._saved.clear()

    def wrap(self, name: str, fn, run: int):
        """``fn`` recording a span called ``name`` for pass ``run`` at each call."""
        records, stack, ids, clock = self._records, self._stack, self._ids, time.perf_counter_ns
        workload = self.workload
        signature = inspect.signature(fn) if name == "noise.monte_carlo_finals" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                shots = 0
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    shots = int(bound.arguments["shots"])
                record = [span_id, parent, name, workload, run, enter, start, end, 0, shots]
                records.append(record)
                record[8] = clock()

        return traced

    @property
    def spans(self) -> list[Span]:
        return [Span(*r) for r in self._records]

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(Span._fields)
            writer.writerows(self._records)


def read_csv(path: str) -> list[Span]:
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)
        return [
            Span(int(i), int(p), name, workload, *map(int, rest))
            for i, p, name, workload, *rest in rows
        ]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part its children (with wrappers) cover, in ns."""
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    out = {}
    for span in spans:
        covered, reach = 0, span.start
        for child in sorted(children[span.id], key=lambda c: c.enter):
            lo, hi = max(child.enter, reach), min(child.exit, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.end - span.start - covered
    return out


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time was ``wall_s``."""
    ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = {c: 0 for _, _, _, c in WRAPPED if c}
    own = self_times(spans)
    spans = [span for span in spans if span.name != SAMPLE_SPAN]
    shots = []
    wrapper_ns = 0
    for span in spans:
        time_metric, calls_metric = _METRICS_OF[span.name]
        ns[time_metric] += own[span.id]
        if calls_metric:
            calls[calls_metric] += 1
        if span.name == "noise.monte_carlo_finals":
            shots.append(span.shots)
        wrapper_ns += (span.start - span.enter) + (span.exit - span.end)
    metrics: dict[str, float] = {t: ns[t] / 1e9 for _, _, t, _ in WRAPPED}
    metrics.update(calls)
    mc_shots = sum(shots)
    metrics["noise.mc_shots"] = mc_shots
    metrics["noise.mc_bytes"] = max(shots, default=0) * SHOT_STATE_BYTES
    metrics["noise.mc_ns_per_shot"] = (
        (ns["noise.mc_s"] + ns["noise.shot_seed_s"]) / mc_shots if mc_shots else 0.0
    )
    metrics["trace.spans"] = len(spans)
    metrics["trace.wrapper_s"] = wrapper_ns / 1e9
    metrics["trace.unaccounted_s"] = wall_s - (sum(own[span.id] for span in spans) + wrapper_ns) / 1e9
    return metrics
