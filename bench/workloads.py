"""The benchmark's workloads: the dfsim invocations it times.

Each workload is one ``dfsim run`` or ``dfsim verify`` invocation, handed to
``dfsim.cli.main`` in-process.  They are chosen so that a different layer
dominates each one, and so that every planned optimisation has a workload
that exercises it and one that bypasses it:

* ``paper-sweep``: the default sweep, the paper's experiment (Grover, both
  modes, 9 e values x 3 steps x 2 modes = 54 cells x 2048 shots).  Monte
  Carlo shot evolution and per-shot seeding take almost all of the time.
* ``fine-grid``: Deutsch-Jozsa on a 513-point e grid (step 1/1024) at
  2 shots, 3078 cells.  The exact channel, per-cell bookkeeping and CSV
  output dominate; bulk shot work is bypassed, so a Monte Carlo speed-up
  should leave it unchanged.
* ``deep-shots``: unprotected Grover at e = 0.25, 3 cells x 32768 shots.
  The (shots, 16, 16) array of final states sets peak memory here and
  nowhere else.
* ``verify``: the default invariant suite.  The same layers are used
  differently: Monte Carlo finals are checked as matrices, the immunity
  check calls the channel directly, and the qcore and dfs checks run only
  here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: 0, 1/1024, ..., 512/1024: every value is exact in binary, so the grid
#: round-trips through the command line unchanged.
FINE_E_GRID = ",".join(repr(k / 1024) for k in range(513))

#: Config keys (as ``harness.build_config`` takes them) and their CLI flags.
_FLAGS = {
    "algorithm": "--algorithm",
    "e_grid": "--e-grid",
    "modes": "--mode",
    "shots": "--shots",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # dfsim subcommand: "run" or "verify"
    config: dict[str, str] = field(default_factory=dict)

    def argv(self, seed: int, output: str | None = None) -> list[str]:
        """Command line for one pass; ``output`` is the result file of ``run``."""
        argv = [self.command, "--seed", str(seed)]
        for key, value in self.config.items():
            argv += [_FLAGS[key], value]
        if output is not None:
            argv += ["--output", output]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-sweep", "run"),
        Workload(
            "fine-grid",
            "run",
            {"algorithm": "deutsch-jozsa", "modes": "both", "e_grid": FINE_E_GRID, "shots": "2"},
        ),
        Workload("deep-shots", "run", {"modes": "unprotected", "e_grid": "0.25", "shots": "32768"}),
        Workload("verify", "verify"),
    )
}
