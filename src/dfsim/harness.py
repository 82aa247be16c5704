"""Experiment harness: e-sweeps, result tables, and the invariant verifier.

The sweep reproduces the benchmark protocol: for every combination of error
strength, temporal-averaging step, and computer mode it reports the exact
channel signal, the shot-averaged Monte-Carlo signal with its standard error,
the closed-form prediction (1-2e)^n, and the damage count n.  Results are
deterministic functions of (config, seed) down to the output bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import circuits, dfs, noise, qcore, readout

DEFAULT_E_GRID = tuple(k * 0.0625 for k in range(9))  # 0 .. 0.5, nine levels
IMMUNITY_E_GRID = tuple(k * 0.05 for k in range(11))  # 0 .. 0.5 step 0.05

CSV_HEADER = "e,step,mode,algorithm,signal_exact,signal_mc,mc_stderr,theory,n"

#: Expected damage counts for the default Grover placement, by preparation label.
EXPECTED_DAMAGE = {
    "protected": {"Z1Z2": 0, "Z3Z4": 0, "Z1Z2Z3Z4": 0},
    "unprotected": {"Z1": 6, "Z1Z4": 12, "Z4": 6},
}

#: Absolute slack added to statistical tolerances so exactly-reproduced cells
#: (zero shot variance) pass at double precision.
NUMERICAL_FLOOR = 1e-12


class ConfigError(ValueError):
    """Invalid sweep configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class SweepConfig:
    e_grid: tuple[float, ...] = DEFAULT_E_GRID
    shots: int = noise.DEFAULT_SHOTS
    seed: int = 0
    modes: tuple[str, ...] = ("protected", "unprotected")
    algorithm: str = "grover"
    placement: tuple[int, ...] | None = None
    output: str | None = None
    format: str = "csv"

    def __post_init__(self) -> None:
        if not self.e_grid:
            raise ConfigError("e_grid must not be empty")
        for e in self.e_grid:
            if not 0.0 <= e <= 0.5:
                raise ConfigError(f"e_grid values must lie in [0, 0.5], got {e}")
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        for mode in self.modes:
            if mode not in circuits.MODES:
                raise ConfigError(f"unknown mode {mode!r}")
        if not self.modes:
            raise ConfigError("at least one mode is required")
        if self.algorithm not in circuits.ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")


@dataclass(frozen=True)
class SignalResult:
    e: float
    step: str
    mode: str
    algorithm: str
    signal_exact: float
    signal_mc: float
    mc_stderr: float
    theory: float
    n: int


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def _cell_seed(seed: int, mode_idx: int, step_idx: int, e_idx: int) -> int:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(mode_idx, step_idx, e_idx))
    return int(ss.generate_state(1, np.uint64)[0])


def _plan_for(cfg: SweepConfig, mode: str, step: readout.PreparationStep) -> circuits.ExperimentPlan:
    return circuits.assemble(
        mode,
        cfg.algorithm,
        preparation=step,
        placement=cfg.placement,
    )


def _mc_signal(mask: np.ndarray, e: float, shots: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo signal and its standard error by Pauli-frame sampling.

    ``mask`` is the plan's circuits.damage_mask: a shot's final deviation is
    the ideal one negated once per damaging flip drawn, so its signal is
    exactly +1 or -1 by the parity of those flips.  The mean is then
    1 - 2 (odd shots) / shots, and the standard error is the sample standard
    deviation (ddof 1) of the +-1 shot signals over sqrt(shots).
    """
    flips = noise.draw_flips(e, seed, shots, len(mask))
    odd = int(np.count_nonzero((flips & mask).sum(axis=(1, 2)) % 2))
    mean = 1.0 - 2.0 * odd / shots
    stderr = float(np.sqrt((1.0 - mean * mean) / (shots - 1))) if shots > 1 else 0.0
    return mean, stderr


def run_sweep(cfg: SweepConfig) -> list[SignalResult]:
    """Exact + Monte-Carlo signals for every (mode, step, e) cell."""
    rows: list[SignalResult] = []
    for mode_idx, mode in enumerate(cfg.modes):
        steps = readout.steps_for_mode(mode)
        for step_idx, step in enumerate(steps):
            plan = _plan_for(cfg, mode, step)
            reference = noise.run_plan_exact(plan, 0.0)
            mask = circuits.damage_mask(plan)
            n = int(mask.sum())
            for e_idx, e in enumerate(cfg.e_grid):
                exact = readout.signal_intensity(noise.run_plan_exact(plan, e), reference)
                mc_mean, mc_stderr = _mc_signal(
                    mask, e, cfg.shots, _cell_seed(cfg.seed, mode_idx, step_idx, e_idx)
                )
                rows.append(
                    SignalResult(
                        e=float(e),
                        step=step.label,
                        mode=mode,
                        algorithm=cfg.algorithm,
                        signal_exact=float(exact),
                        signal_mc=mc_mean,
                        mc_stderr=mc_stderr,
                        theory=readout.theory_curve(n, e),
                        n=n,
                    )
                )
    return rows


def results_to_csv(rows: list[SignalResult]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.e!r},{r.step},{r.mode},{r.algorithm},"
            f"{r.signal_exact!r},{r.signal_mc!r},{r.mc_stderr!r},{r.theory!r},{r.n}"
        )
    return "\n".join(lines) + "\n"


def results_to_json(rows: list[SignalResult]) -> str:
    payload = [
        {
            "e": r.e,
            "step": r.step,
            "mode": r.mode,
            "algorithm": r.algorithm,
            "signal_exact": r.signal_exact,
            "signal_mc": r.signal_mc,
            "mc_stderr": r.mc_stderr,
            "theory": r.theory,
            "n": r.n,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def write_results(rows: list[SignalResult], path: str | Path, fmt: str = "csv") -> None:
    text = results_to_csv(rows) if fmt == "csv" else results_to_json(rows)
    Path(path).write_text(text)


# ---------------------------------------------------------------------------
# invariant verifier


def _random_logical_states(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    states = []
    for _ in range(count):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(psi / np.linalg.norm(psi))
    return states


def _immunity_residual(seed: int, corrupt: bool) -> float:
    rng = np.random.default_rng(seed)
    bases = [b.vectors for b in (dfs.dfs_basis(i) for i in (1, 2, 3, 4))]
    if corrupt:
        bad = bases[3].copy()
        bad[12, 0] *= -1.0  # break one sign relation in subspace 4
        bases[3] = bad
    worst = 0.0
    for psi in _random_logical_states(rng, 50):
        rho = np.zeros((qcore.DIM, qcore.DIM), dtype=complex)
        for basis in bases:
            vec = basis @ psi
            rho += 0.25 * np.outer(vec, vec.conj())
        for e in IMMUNITY_E_GRID:
            out = noise.apply_channel(rho, noise.engineered_channel(e))
            worst = max(worst, qcore.frobenius_norm(out - rho))
    return worst


def _pauli_product_residual(seed: int, pairs: int = 200) -> float:
    rng = np.random.default_rng(seed)
    basis = qcore.pauli_basis_strings()
    phases = (1 + 0j, -1 + 0j, 1j, -1j)
    worst = 0.0
    for _ in range(pairs):
        p = qcore.PauliString(basis[rng.integers(256)].letters, phases[rng.integers(4)])
        q = qcore.PauliString(basis[rng.integers(256)].letters, phases[rng.integers(4)])
        prod = qcore.multiply(p, q)
        worst = max(
            worst,
            float(np.abs(prod.matrix() - p.matrix() @ q.matrix()).max()),
        )
        anti = qcore.anticommutes(p, q)
        comm = p.matrix() @ q.matrix() + q.matrix() @ p.matrix()
        matrix_anti = bool(np.abs(comm).max() < 1e-12)
        if anti != matrix_anti:
            worst = max(worst, 1.0)
    return worst


def _pauli_orthogonality_residual() -> float:
    stack = np.stack([p.matrix() for p in qcore.pauli_basis_strings()])
    gram = np.einsum("aij,bij->ab", stack.conj(), stack)
    return qcore.frobenius_norm(gram - qcore.DIM * np.eye(256))


def _eigenstructure_residual(e_grid: tuple[float, ...]) -> float:
    worst = 0.0
    for e in e_grid:
        audit = noise.verify_error_model(noise.engineered_model(e))
        worst = max(worst, audit.max_residual, float(np.abs(audit.weights - 1.0).max()))
    return worst


def _protected_correctness_residual(cfg: SweepConfig) -> float:
    steps = readout.protected_steps()
    plans = [_plan_for(cfg, "protected", s) for s in steps]
    logical = np.eye(4, dtype=complex)
    for gate in plans[0].gates:
        logical = gate.logical @ logical
    target = logical @ np.array([1, 0, 0, 0], dtype=complex)
    worst = 0.0
    for plan in plans:
        ref = dfs.decode(noise.run_plan_exact(plan, 0.0))
        for e in cfg.e_grid:
            out = dfs.decode(noise.run_plan_exact(plan, e))
            worst = max(worst, abs(readout.signal_intensity(out, ref) - 1.0))
    summed_initial = qcore.identity_matrix() / qcore.DIM
    for s in steps:
        summed_initial = summed_initial + s.deviation
    for e in cfg.e_grid:
        rho_l = dfs.decode(noise.run_plan_exact(plans[0], e, initial=summed_initial))
        fidelity = float(np.real(target.conj() @ rho_l @ target))
        worst = max(worst, abs(fidelity - 1.0))
    return worst


def _temporal_averaging_residual(cfg: SweepConfig, mode: str) -> float:
    steps = readout.steps_for_mode(mode)
    plan = _plan_for(cfg, mode, steps[0])
    full = qcore.identity_matrix() / qcore.DIM
    for s in steps:
        full = full + s.deviation
    worst = 0.0
    for e in cfg.e_grid:
        direct = noise.run_plan_exact(plan, e, initial=full)
        summed = noise.run_plan_exact(plan, e, initial=qcore.identity_matrix() / qcore.DIM)
        for s in steps:
            summed = summed + noise.run_plan_exact(plan, e, initial=s.deviation)
        worst = max(worst, qcore.frobenius_norm(direct - summed))
    return worst


def _damage_consistency_residual(cfg: SweepConfig) -> float:
    worst = 0.0
    for step in readout.unprotected_steps():
        plan = _plan_for(cfg, "unprotected", step)
        n = circuits.count_damaging_errors(plan)
        reference = noise.run_plan_exact(plan, 0.0)
        for e in cfg.e_grid:
            sig = readout.signal_intensity(noise.run_plan_exact(plan, e), reference)
            worst = max(worst, abs(sig - readout.theory_curve(n, e)))
    return worst


def _damage_values_residual(cfg: SweepConfig) -> float:
    worst = 0.0
    for mode in ("protected", "unprotected"):
        for step in readout.steps_for_mode(mode):
            plan = _plan_for(cfg, mode, step)
            n = circuits.count_damaging_errors(plan)
            worst = max(worst, abs(n - EXPECTED_DAMAGE[mode][step.label]))
    return worst


def _mc_convergence_residual(cfg: SweepConfig) -> tuple[float, str]:
    """Worst margin of the dense shot mean over its 5-sigma bound around the exact state.

    Every shot is a unitary conjugation of the preparation rho0, so its
    Frobenius variance is known: ||rho0||^2 - ||rho_exact||^2.  Using it,
    rather than the sample variance (0 whenever all shots agree), keeps the
    bound valid at any shot count.  Differences at rounding level are clamped
    to 0, so noise-free cells keep the bare NUMERICAL_FLOOR.
    """
    worst = -np.inf
    worst_cell = ""
    for mode_idx, mode in enumerate(cfg.modes):
        for step_idx, step in enumerate(readout.steps_for_mode(mode)):
            plan = _plan_for(cfg, mode, step)
            prep_sq = qcore.frobenius_norm(plan.preparation.deviation) ** 2
            for e_idx, e in enumerate(cfg.e_grid):
                exact = noise.run_plan_exact(plan, e)
                mean = noise.monte_carlo_run(
                    plan, e, cfg.shots, _cell_seed(cfg.seed, mode_idx, step_idx, e_idx)
                )
                var = prep_sq - qcore.frobenius_norm(exact) ** 2
                if var <= qcore.DEFAULT_TOL * prep_sq:
                    var = 0.0
                sigma = np.sqrt(var / cfg.shots)
                margin = qcore.frobenius_norm(mean - exact) - (5.0 * sigma + NUMERICAL_FLOOR)
                if margin > worst:
                    worst = margin
                    worst_cell = f"mode={mode} step={step.label} e={e:g}"
    return float(worst), worst_cell


def verify(cfg: SweepConfig | None = None, *, _corrupt_dfs: bool = False) -> list[VerifyCheck]:
    """Run the machine-checkable invariant suite; every check reports its residual.

    ``_corrupt_dfs`` is a test hook that breaks one sign of one subspace basis
    vector inside the immunity check, to prove the check has teeth.
    """
    cfg = cfg or SweepConfig()
    checks: list[VerifyCheck] = []

    def add(name: str, residual: float, tolerance: float, detail: str = "") -> None:
        checks.append(
            VerifyCheck(
                name=name,
                passed=bool(residual <= tolerance),
                residual=float(residual),
                tolerance=float(tolerance),
                detail=detail,
            )
        )

    add("pauli-product-exactness", _pauli_product_residual(cfg.seed), 0.0)
    add("pauli-orthogonality", _pauli_orthogonality_residual(), qcore.DEFAULT_TOL)
    add("dfs-gram-identity", dfs.gram_defect(), qcore.DEFAULT_TOL)
    add(
        "dfs-immunity",
        _immunity_residual(cfg.seed, _corrupt_dfs),
        qcore.DEFAULT_TOL,
        "50 random logical states, e = 0 .. 0.5 step 0.05",
    )
    add(
        "channel-completeness",
        max(noise.engineered_channel(e).completeness_defect() for e in cfg.e_grid),
        qcore.DEFAULT_TOL,
    )
    add("eigenstructure-audit", _eigenstructure_residual(cfg.e_grid), qcore.DEFAULT_TOL)
    add("protected-correctness", _protected_correctness_residual(cfg), 1e-10)
    add(
        "temporal-averaging",
        max(_temporal_averaging_residual(cfg, m) for m in cfg.modes),
        qcore.DEFAULT_TOL,
    )
    add("damage-count-consistency", _damage_consistency_residual(cfg), 1e-10)
    if cfg.algorithm == "grover" and cfg.placement is None:
        add("damage-count-values", _damage_values_residual(cfg), 0.0, "n = 0/0/0 and 6/12/6")
    mc_margin, mc_cell = _mc_convergence_residual(cfg)
    add(
        "mc-convergence",
        mc_margin,
        0.0,
        f"worst cell {mc_cell}; bound 5*sigma_mc + {NUMERICAL_FLOOR:g} at {cfg.shots} shots",
    )
    return checks


# ---------------------------------------------------------------------------
# configuration files


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file; '#' starts a comment."""
    mapping: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"invalid number list {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"invalid integer list {text!r}") from exc


def build_config(mapping: dict[str, object]) -> SweepConfig:
    """Build a validated SweepConfig from string-or-typed key/value pairs."""
    kwargs: dict[str, object] = {}
    for key, value in mapping.items():
        if value is None:
            continue
        if key == "e_grid":
            kwargs["e_grid"] = _parse_floats(value) if isinstance(value, str) else tuple(value)
        elif key == "shots":
            try:
                kwargs["shots"] = int(value)
            except ValueError as exc:
                raise ConfigError(f"invalid shots {value!r}") from exc
        elif key == "seed":
            try:
                kwargs["seed"] = int(value)
            except ValueError as exc:
                raise ConfigError(f"invalid seed {value!r}") from exc
        elif key == "modes" or key == "mode":
            modes = value.replace(",", " ").split() if isinstance(value, str) else list(value)
            if modes == ["both"]:
                modes = list(circuits.MODES)
            kwargs["modes"] = tuple(modes)
        elif key == "algorithm":
            kwargs["algorithm"] = str(value)
        elif key == "placement":
            kwargs["placement"] = _parse_ints(value) if isinstance(value, str) else tuple(value)
        elif key == "output":
            kwargs["output"] = str(value)
        elif key == "format":
            kwargs["format"] = str(value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        return SweepConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
