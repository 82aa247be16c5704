"""dfsim benchmark: time one workload end to end, or trace it per layer.

    python3 bench/run_bench.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a dfsim checkout; it imports dfsim from ``src/`` and
writes only under ``.bench_run/``.  The workloads are in workloads.py, the
metric names and units in BENCHMARK.json.

With ``--trace 0`` it starts fresh interpreters that only import dfsim and
build the workload's config (``setup_s`` is their median), and one more
fresh interpreter that runs passes of the workload for ``--seconds`` and
reports ``speed_adj_wall_s`` (median pass), ``speed_adj_shots_per_s`` and
``peak_rss_mb``.  The two speed-adjusted metrics are a pass's wall time and
throughput at a fixed reference CPU speed (see speed.py): the virtual CPUs
this runs on change speed by up to 1.6x every few seconds, which made raw
wall times of the same code differ by 20-30% from run to run.  The raw
``wall_s``, ``shots_per_s`` and the mean CPU speed are printed beside
them.  With ``--trace 1`` that interpreter alternates untraced and traced
passes, and the per-layer metrics come from the traced ones (see
spans.py); ``trace.overhead_s`` is the median traced pass minus the median
untraced pass, both at reference CPU speed.  The spans of the last traced
run of each workload are kept in ``.bench_run/spans-<workload>.csv``.

Every pass's output goes through the oracle (oracle.py), and a pass whose
output bytes differ from the first pass's at the same seed fails as a
whole.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric by name with its unit, ``fail_ratio`` and the environment
the run was made in.  BLAS threads are capped at the number of usable
processors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import layer_metrics, read_csv
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
#: Fresh interpreters timed for setup_s after one untimed warm-up, half of
#: them before the workload's passes and half after, so that the median
#: spans the run rather than one moment of a machine whose speed drifts.
SETUP_PROBES = 16
#: Every run ends within this many seconds or fails.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _spawn(args: list[str], root: Path, env: dict[str, str], deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before starting {args}")
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{CHILD.name} {' '.join(args[:2])} exited with code {proc.returncode}")
    return proc.stdout


def _setup_times(probe: list[str], root: Path, env: dict[str, str], deadline: float, count: int) -> list[float]:
    times = []
    for _ in range(count):
        t0 = time.monotonic()
        ready = float(_spawn(probe, root, env, deadline).split()[-1])
        times.append(ready - t0)
    return times


def _commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_digest(root: Path) -> str:
    """sha256 over the paths and bytes of src/**/*.py, to tell code versions apart."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _end_to_end(result: dict, setup: list[float]) -> dict[str, float]:
    adjusted = statistics.median(p["adjusted_s"] for p in result["passes"] if not p["traced"])
    return {
        "setup_s": statistics.median(setup),
        "speed_adj_wall_s": adjusted,
        "speed_adj_shots_per_s": result["cells"] * result["shots"] / adjusted,
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
    }


def _raw_wall(result: dict) -> dict[str, float]:
    """Wall time and throughput as measured, not adjusted for CPU speed; printed only."""
    untraced = [p for p in result["passes"] if not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in untraced)
    return {
        "wall_s": wall,
        "shots_per_s": result["cells"] * result["shots"] / wall,
        "cpu_speed": statistics.median(p["speed"] for p in untraced),
    }


def _per_layer(result: dict, spans_path: Path) -> dict[str, float]:
    by_run = defaultdict(list)
    for span in read_csv(str(spans_path)):
        by_run[span.run].append(span)
    per_pass = []
    for p in result["passes"]:
        if p["traced"]:
            metrics = layer_metrics(by_run[p["index"]], p["wall_s"])
            metrics["harness.output_bytes"] = p["output_bytes"]
            metrics["trace.wall_s"] = p["wall_s"]
            per_pass.append(metrics)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        # Counts repeat exactly from pass to pass; keep them whole numbers.
        metrics[name] = statistics.median_low(values) if isinstance(values[0], int) else statistics.median(values)
    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    metrics["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    # At reference CPU speed: raw walls of passes seconds apart differ by more
    # than the overhead (see speed.py).
    metrics["trace.overhead_s"] = statistics.median(p["adjusted_s"] for p in traced) - statistics.median(
        p["adjusted_s"] for p in untraced
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="dfsim seed of every pass (>= 0)")
    parser.add_argument("--seconds", type=int, required=True, help="time budget for the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "dfsim" / "__init__.py").is_file():
        print("error: src/dfsim not found; run from the root of a dfsim checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    nproc = len(os.sched_getaffinity(0))
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    common = ["--workload", workload.name, "--seed", str(args.seed)]

    run_dir = root / ".bench_run"
    workdir = run_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        probe = [*common, "--setup-probe"]
        setup = []
        if not args.trace:
            _spawn(probe, root, env, deadline)  # warm-up: byte-compiles dfsim, fills the page cache
            setup += _setup_times(probe, root, env, deadline, SETUP_PROBES // 2)
        _spawn(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(workdir)],
            root, env, deadline,
        )
        if not args.trace:
            setup += _setup_times(probe, root, env, deadline, SETUP_PROBES - SETUP_PROBES // 2)
        result = json.loads((workdir / "result.json").read_text())
        if args.trace:
            spans_path = run_dir / f"spans-{workload.name}.csv"
            shutil.move(workdir / "spans.csv", spans_path)
            metrics = _per_layer(result, spans_path)
        else:
            metrics = _end_to_end(result, setup)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != {m["name"] for m in declared}:
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    passes = result["passes"]
    for p in passes:
        if p["sha256"] != passes[0]["sha256"]:
            p["failed"] = p["attempted"]
            p["first_failure"] = f"pass {p['index']} output differs from pass 0 at the same seed"
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": workload.name,
        "argv": [
            a if len(a) <= 80 else f"{a[:24]}...{a[-8:]} ({a.count(',') + 1} values)"
            for a in workload.argv(args.seed, "OUTPUT" if workload.command == "run" else None)
        ],
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": nproc,
        "blas_threads": nproc,
        "python": result["python"],
        "numpy": result["numpy"],
        "blas": result["blas"],
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
        "setup_probes": len(setup),
        "passes": [{k: p[k] for k in ("traced", "wall_s", "adjusted_s", "speed", "sha256")} for p in passes],
    }
    print("env " + json.dumps(record))
    for m in declared:
        value = metrics[m["name"]]
        print(f"{m['name']:<28} {value if isinstance(value, int) else f'{value:.6f}':>16} {m['unit']}")
    if not args.trace:
        raw = _raw_wall(result)
        for name, unit in (("wall_s", "s"), ("shots_per_s", "1/s"), ("cpu_speed", "x reference")):
            print(f"{name:<28} {raw[name]:>16.6f} {unit} (as measured, not a gated metric)")
    kind = "checks" if workload.command == "verify" else "cells"
    print(f"{'fail_ratio':<28} {failed / attempted:>16.6f} ({failed}/{attempted} {kind} failed)")
    for p in passes:
        if p["failed"]:
            print(f"pass {p['index']}: {p['failed']} failed, first: {p['first_failure']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
