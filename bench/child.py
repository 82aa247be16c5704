"""One benchmark workload inside a fresh interpreter; started by run_bench.py.

``--setup-probe``: import dfsim, build the workload's validated config and
print ``time.monotonic()``.  The parent subtracts its own reading taken just
before the spawn, so set-up time includes interpreter start-up.

Otherwise: run passes of the workload through ``dfsim.cli.main`` in this
process until one more pass would overrun ``--seconds``, check every pass's
output with the oracle, and write ``result.json`` (and ``spans.csv`` when
traced) to ``--workdir``.  With ``--trace 1`` the passes alternate untraced
and traced, at least one of each, so the tracing overhead is measured in
the same process.  Every pass runs under speed.SpeedSampler, which gives
its wall time without the sampling (``wall_s``) and that time at reference
CPU speed (``adjusted_s``).
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from workloads import WORKLOADS, Workload


def _probe(workload: Workload, seed: int) -> None:
    from dfsim import cli, harness  # noqa: F401  (a user's `dfsim` loads the CLI too)

    harness.build_config({**workload.config, "seed": seed})
    print(repr(time.monotonic()))


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _run(workload: Workload, seed: int, seconds: int, trace: bool, workdir: str) -> None:
    import contextlib
    import functools
    import hashlib
    import json
    import os
    import platform
    import resource

    import numpy as np
    from dfsim import cli, harness, readout

    import oracle
    from spans import SAMPLE_SPAN, Tracer
    from speed import SpeedSampler, speed

    cfg = harness.build_config({**workload.config, "seed": seed})
    cells = len(cfg.e_grid) * sum(len(readout.steps_for_mode(m)) for m in cfg.modes)
    tracer = Tracer(workload.name)
    passes = []
    began = time.perf_counter()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        out = os.path.join(workdir, f"pass{index}.out")
        log = os.path.join(workdir, f"pass{index}.log")
        argv = workload.argv(seed, out if workload.command == "run" else None)
        wrap = functools.partial(tracer.wrap, SAMPLE_SPAN, run=index) if traced else None
        with open(log, "w") as fh, contextlib.redirect_stdout(fh):
            if traced:
                tracer.install(index)
            try:
                with SpeedSampler(wrap) as sampler:
                    rc = cli.main(argv)
            finally:
                if traced:
                    tracer.uninstall()
        # verify prints its report; run writes its table to --output.
        path = out if workload.command == "run" else log
        data = Path(path).read_bytes() if os.path.exists(path) else b""
        text = data.decode(errors="replace")
        if workload.command == "run":
            verdict = oracle.check_sweep(text, cells, cfg.shots)
            rc_ok = rc == 0
        else:
            verdict = oracle.check_verify(text)
            rc_ok = rc == (1 if verdict.failed else 0)
        failed = verdict.failed if rc_ok else verdict.attempted
        passes.append(
            {
                "index": index,
                "traced": bool(traced),
                "wall_s": sampler.own_s,
                "adjusted_s": sampler.adjusted_s,
                "speed": speed(sampler.samples),
                "sha256": hashlib.sha256(data).hexdigest(),
                "output_bytes": len(data),
                "attempted": verdict.attempted,
                "failed": failed,
                "first_failure": verdict.first_failure if rc_ok else f"exit code {rc}",
            }
        )
        elapsed = time.perf_counter() - began
        done = len(passes)
        if done >= (2 if trace else 1) and elapsed * (done + 1) / done > seconds:
            break
    if trace:
        tracer.write_csv(os.path.join(workdir, "spans.csv"))
    result = {
        "cells": cells,
        "shots": cfg.shots,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "passes": passes,
    }
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=".")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        _probe(workload, args.seed)
    else:
        _run(workload, args.seed, args.seconds, bool(args.trace), args.workdir)


if __name__ == "__main__":
    main()
