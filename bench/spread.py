"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/spread.py                          # all workloads, seeds 1..10
    python3 bench/spread.py --workloads verify --seeds 1,2,3 --trace 1 --out FILE

Run from the repository root.  Each (workload, seed) is one run of
run_bench.py with BENCHMARK.json's run_seconds, one after another.  For each
workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread
(q3 - q1) / median and, for end-to-end metrics, the bound from
BENCHMARK.json, and beside them the median raw pass wall time and CPU speed
before the speed adjustment (see speed.py).  ``--out`` merges the figures into a JSON file under the
key ``trace<0|1>``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN_BENCH = Path(__file__).resolve().parent / "run_bench.py"


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else float("inf"),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated names")
    parser.add_argument("--seeds", default=",".join(map(str, range(1, 11))), help="comma-separated seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON file to merge the summary into")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seeds = [int(s) for s in args.seeds.split(",")]
    summary = {}
    for name in args.workloads.split(","):
        runs = []
        raw = {"wall_s": [], "speed": []}  # as measured, before the CPU-speed adjustment
        for seed in seeds:
            cmd = [sys.executable, str(RUN_BENCH), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"error: {name} seed {seed} exited with code {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            runs.append(json.loads(lines[-1]))
            env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
            untraced = [p for p in env["passes"] if not p["traced"]]
            for key in ("wall_s", "speed"):
                raw[key].append(statistics.median(p[key] for p in untraced))
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        metrics = {}
        print(f"{name}: {len(runs)} runs, fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
        for m in declared:
            stats = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            metrics[m["name"]] = {"unit": m["unit"], **stats}
            bound = f"bound {m['bound']:.2f}" if "bound" in m else ""
            print(
                f"  {m['name']:<26} median {stats['median']:>14.6g} {m['unit']:<10}"
                f" q1 {stats['q1']:>12.6g} q3 {stats['q3']:>12.6g}"
                f" spread {stats['spread']:.4f} {bound}"
            )
        for key, values in raw.items():
            stats = summarise(values)
            metrics[f"raw.{key}"] = stats
            print(f"  raw {key:<22} median {stats['median']:>14.6g} q1 {stats['q1']:>12.6g}"
                  f" q3 {stats['q3']:>12.6g} spread {stats['spread']:.4f} (not gated)")
        summary[name] = {"seeds": seeds, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        path = Path(args.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged.setdefault(f"trace{args.trace}", {}).update(summary)
        path.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
