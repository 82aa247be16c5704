"""Experiment harness: e-sweeps, result tables, and the invariant verifier.

The sweep reproduces the benchmark protocol: for every combination of error
strength, temporal-averaging step, and computer mode it reports the exact
channel signal, the shot-averaged Monte-Carlo signal with its standard error,
the closed-form prediction (1-2e)^n, and the damage count n.  Results are
deterministic functions of (config, seed) down to the output bytes.

As in the experiment, a mode is one circuit run from each of its three
temporal-averaging preparations: one plan, and its steps' stack of
preparations, which every walk of the plan takes as its initial states.
The sweep and the verifier walk the modes of _mode_stacks the same two ways:
each mode's stack once through _cell_batches for the exact finals, and each
step's whole e grid once through _step_draws for the shots, which read only
the damage mask and the cell keys.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import circuits, dfs, noise, qcore, readout

DEFAULT_E_GRID = tuple(k * 0.0625 for k in range(9))  # 0 .. 0.5, nine levels
IMMUNITY_E_GRID = tuple(k * 0.05 for k in range(11))  # 0 .. 0.5 step 0.05

#: Expected damage counts for the default Grover placement, by preparation label.
EXPECTED_DAMAGE = {
    "protected": {"Z1Z2": 0, "Z3Z4": 0, "Z1Z2Z3Z4": 0},
    "unprotected": {"Z1": 6, "Z1Z4": 12, "Z4": 6},
}

#: Absolute slack added to statistical tolerances so exactly-reproduced cells
#: (zero shot variance) pass at double precision.
NUMERICAL_FLOOR = 1e-12

#: mc-convergence's false-alarm rate, a normal's two-sided tail beyond 5 sigma.
_ALPHA = math.erfc(5 / math.sqrt(2))


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
        # library callers may pass lists or arrays: hold tuples, hashable and comparable
        for name in ("e_grid", "modes", "placement"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.e_grid:
            raise ConfigError("e_grid must not be empty")
        for e in self.e_grid:
            if not 0.0 <= e <= 0.5:
                raise ConfigError(f"e_grid values must lie in [0, 0.5], got {e}")
        # -0.0 + 0.0 is +0.0: a grid value of -0 is written and reported as 0
        object.__setattr__(self, "e_grid", tuple(float(e) + 0.0 for e in self.e_grid))
        for name in ("shots", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {value!r}") from None
        if self.shots < 1:
            raise ConfigError("shots must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be a non-negative integer below 2**64, got {self.seed}")
        for mode in self.modes:
            if mode not in circuits.MODES:
                raise ConfigError(f"unknown mode {mode!r}")
        if not self.modes:
            raise ConfigError("at least one mode is required")
        if len(set(self.modes)) < len(self.modes):
            raise ConfigError(f"modes must not repeat, got {','.join(self.modes)}")
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


#: The CSV header: the SignalResult fields, in order.
CSV_HEADER = ",".join(f.name for f in fields(SignalResult))


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""


def sweep_plans(cfg: SweepConfig) -> Iterator[circuits.ExperimentPlan]:
    """Each mode's one plan, for the modes of cfg in order.

    Every step runs through the same gates and noise points, with its
    deviation as the initial state (_mode_stacks).
    This is the one mapping from a config to its plans: run_sweep, verify and
    ``dfsim count-n`` all take their plans from here.
    """
    for mode in cfg.modes:
        yield circuits.assemble(mode, cfg.algorithm, placement=cfg.placement)


def _mode_stacks(
    cfg: SweepConfig,
) -> Iterator[tuple[int, circuits.ExperimentPlan, tuple, np.ndarray, list[np.ndarray], np.ndarray]]:
    """(mode index, plan, steps, preparations, damage masks, noiseless finals)
    of each mode of cfg, in step order.

    The preparations (steps, 16, 16) are the steps' deviations.  They go
    through the plan noise-free as one stack, once in circuits.damage_mask
    for the masks (steps, points, 2), and once for the noiseless finals, the
    last boundary of circuits.ideal_boundary_deviations.  Those are the exact
    channel's finals at e = 0 to the byte: preparation entries are +-1/16 or
    0 and gate entries in {0, +-1/2, +-1}, so every noise-free product and
    sum is exact in float64, in any order and on any BLAS kernel.
    """
    for mode_idx, plan in enumerate(sweep_plans(cfg)):
        steps = readout.steps_for_mode(plan.mode)
        preps = np.stack([step.deviation for step in steps])
        masks = list(circuits.damage_mask(plan, preps))
        references = circuits.ideal_boundary_deviations(plan, preps)[-1]
        yield mode_idx, plan, steps, preps, masks, references


#: Shots drawn at a time over the cells of a _step_draws group.  Results do
#: not depend on it (tested); it only bounds memory: 18 B per shot of flips
#: at nine noise points, and a few 8 B indices per shot in the dense oracle.
_SHOT_BLOCK = 65536

#: (state, e) rows of one noise.run_plan_exact call.  Its three float64 planes
#: take 2 KiB per row each; a 513-value fine-grid pass took 95, 82 and 79 ms at
#: blocks of 32, 64 and 128 (medians of 30, 2-vCPU VM), and 128 raised its peak
#: RSS by 0.7 MiB over 64.  Results do not depend on it (tested).
_E_BLOCK = 64


def _cell_batches(
    e_grid: tuple[float, ...], plan: circuits.ExperimentPlan, initial: np.ndarray
) -> Iterator[tuple[int, tuple[float, ...], np.ndarray]]:
    """(start, e, finals) over e_grid in order, e = e_grid[start : start + cells].

    ``initial`` is a stack of k states, such as a mode's preparations, and
    finals (k, cells, 16, 16) are the stack through plan at e, one
    run_plan_exact call.  This is the one place that blocks exact rows: a
    batch holds _E_BLOCK // k cells, and at least one, so no caller holds
    more than one batch of finals.
    """
    batch = max(1, _E_BLOCK // len(initial))
    for start in range(0, len(e_grid), batch):
        e = e_grid[start : start + batch]
        yield start, e, noise.run_plan_exact(plan, e, initial)


def _step_keys(cfg: SweepConfig, mode_idx: int, steps: int) -> list[tuple[int, ...]]:
    """Each step's Philox keys over cfg.e_grid: cell (mode_idx, step, i) is keyed
    cfg.seed | (mode_idx << 48 | step << 32 | i) << 64.  The seed fills the low
    64 bits and the cell's indices the high 64, so every cell of a run, with
    mode < 2, step < 3 and i < 2**32, has its own stream."""
    count = len(cfg.e_grid)
    return [
        tuple(cfg.seed | (mode_idx << 48 | step << 32 | i) << 64 for i in range(count))
        for step in range(steps)
    ]


def _parity(flips: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(cells, shots): the xor of each shot's flips on the true entries of a damage mask."""
    return np.bitwise_xor.reduce(flips[..., mask], axis=-1)


def _step_draws(
    mask: np.ndarray, e: tuple[float, ...], shots: int, keys: tuple[int, ...]
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """(cells, flips, _parity(flips, mask)) over one step's cells (e[i], keys[i]).

    The one place that draws: max(1, _SHOT_BLOCK // shots) cells a group, each
    group one noise.draw_flips call per _SHOT_BLOCK shots, in shot order.  A
    cell's flips come from its own Philox key (_step_keys), whatever its group.
    """
    batch = max(1, _SHOT_BLOCK // shots)
    for start in range(0, len(keys), batch):
        cells = slice(start, start + batch)
        for first in range(0, shots, _SHOT_BLOCK):
            count = min(_SHOT_BLOCK, shots - first)
            flips = noise.draw_flips(e[cells], keys[cells], count, len(mask), first=first)
            yield cells, flips, _parity(flips, mask)


def _mc_signal(
    mask: np.ndarray, e: tuple[float, ...], shots: int, seeds: tuple[int, ...]
) -> list[tuple[float, float]]:
    """Monte-Carlo signal and its standard error of each cell (e[i], seeds[i]).

    ``mask`` is the plan's circuits.damage_mask: a shot's final deviation is
    the ideal one negated once per damaging flip drawn, so its signal is
    +1 or -1 by its _parity.  The mean is then 1 - 2 (odd shots) /
    shots, and the standard error is the sample standard deviation (ddof 1)
    of the +-1 shot signals over sqrt(shots).  The cells are drawn by
    _step_draws, unless no entry of the mask is true: every protected plan,
    and every plan without noise points, draws nothing.
    """
    odd = np.zeros(len(seeds), dtype=np.int64)
    for cells, _, parity in _step_draws(mask, e, shots, seeds) if mask.any() else ():
        odd[cells] += np.count_nonzero(parity, axis=1)
    mean = 1.0 - 2.0 * odd / shots
    stderr = np.sqrt((1.0 - mean * mean) / (shots - 1)) if shots > 1 else np.zeros_like(mean)
    return list(zip(mean.tolist(), stderr.tolist()))


def run_sweep(cfg: SweepConfig) -> list[SignalResult]:
    """Exact + Monte-Carlo signals for every (mode, step, e) cell, in _mode_stacks order.

    Each mode's steps go through its plan as one stack, walked once in
    _cell_batches: each step's finals of a batch are turned into exact
    signals at once.  Each step's whole grid is then drawn by one _mc_signal call.
    """
    rows: list[SignalResult] = []
    for mode_idx, plan, steps, preps, masks, references in _mode_stacks(cfg):
        keys = _step_keys(cfg, mode_idx, len(steps))
        exact = np.empty((len(steps), len(cfg.e_grid)))
        for start, e, finals in _cell_batches(cfg.e_grid, plan, preps):
            for step_idx, (stack, reference) in enumerate(zip(finals, references)):
                exact[step_idx, start : start + len(e)] = readout.signal_intensity(stack, reference)
        for step, mask, signals, step_keys in zip(steps, masks, exact.tolist(), keys):
            step_mc = _mc_signal(mask, cfg.e_grid, cfg.shots, step_keys)
            n = int(mask.sum())
            for e_i, signal, (mean, stderr) in zip(cfg.e_grid, signals, step_mc):
                theory = readout.theory_curve(n, e_i)
                row = (e_i, step.label, plan.mode, cfg.algorithm, signal, mean, stderr, theory, n)
                rows.append(SignalResult(*row))
    return rows


def results_to_csv(rows: list[SignalResult]) -> str:
    # str of a float is its repr; vars() avoids the deep copy of dataclasses.astuple
    lines = [CSV_HEADER]
    lines.extend(",".join(map(str, vars(r).values())) for r in rows)
    return "\n".join(lines) + "\n"


def results_to_json(rows: list[SignalResult]) -> str:
    return json.dumps([vars(r) for r in rows], indent=2) + "\n"


# ---------------------------------------------------------------------------
# invariant verifier


def _immunity_residual(seed: int) -> float:
    """Worst change the engineered channel makes, over IMMUNITY_E_GRID, to 50
    random logical states, each stored by dfs.encode.

    The states go through noise.apply_channel as one (50, 16, 16) stack; each
    state's output equals its own apply_channel to the bit.
    """
    rng = np.random.default_rng(seed)
    rhos = []
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rhos.append(dfs.encode(psi / np.linalg.norm(psi)))
    rhos = np.stack(rhos)
    worst = 0.0
    for e in IMMUNITY_E_GRID:
        out = noise.apply_channel(rhos, noise.engineered_model(e))
        worst = max(worst, *map(qcore.frobenius_norm, out - rhos))
    return worst


def _pauli_product_residual(seed: int) -> float:
    rng = np.random.default_rng(seed)
    basis = qcore.pauli_basis_strings()
    phases = (1 + 0j, -1 + 0j, 1j, -1j)
    worst = 0.0
    for _ in range(200):
        p = qcore.PauliString(basis[rng.integers(256)].letters, phases[rng.integers(4)])
        q = qcore.PauliString(basis[rng.integers(256)].letters, phases[rng.integers(4)])
        pq, qp = p.matrix() @ q.matrix(), q.matrix() @ p.matrix()
        worst = max(worst, float(np.abs(qcore.multiply(p, q).matrix() - pq).max()))
        if qcore.anticommutes(p, q) != bool(np.abs(pq + qp).max() < 1e-12):
            worst = max(worst, 1.0)
    return worst


def _pauli_orthogonality_residual() -> float:
    flat = qcore._word_matrices().reshape(256, -1)
    gram = flat.conj() @ flat.T
    return qcore.frobenius_norm(gram - qcore.DIM * np.eye(256))


def _eigenstructure_residual(e_grid: tuple[float, ...]) -> float:
    worst = 0.0
    for e in e_grid:
        audit = noise.verify_error_model(noise.engineered_model(e))
        worst = max(worst, audit.max_residual, float(np.abs(audit.weights - 1.0).max()))
    return worst


def _acceptance_radius(shots: int, p: float) -> float:
    """Largest |k - shots p| of the counts k that the exact two-sided test of
    k ~ Binomial(shots, p) accepts at _ALPHA: the nearest ones, whose tail (the
    chance of a count as far from shots p or farther, within 1e-9) is >= _ALPHA."""
    if not 0.0 < p < 1.0:  # one certain count
        return 0.0
    k = np.arange(shots + 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(k[1:]))])
    log_pmf = log_fact[-1] - log_fact - log_fact[::-1] + k * math.log(p) + k[::-1] * math.log1p(-p)
    distance = np.abs(k - shots * p)
    order = np.argsort(distance, kind="stable")
    near = distance[order]
    tails = np.cumsum(np.exp(log_pmf[order])[::-1])[::-1]  # the smallest terms first
    return float(near[tails[np.searchsorted(near, near - 1e-9)] >= _ALPHA].max())


def _grid_pass(cfg: SweepConfig) -> tuple[float, float, float, float, int, float, str]:
    """protected-correctness's, temporal-averaging's, damage-count-consistency's,
    frame-dense-shots's and damage-count-values's residuals, and mc-convergence's
    worst margin and its cell.

    The walk is _mode_stacks over cfg.modes and then the other mode, so each
    swept mode (one of cfg.modes) has the index, and so the cell keys, that
    run_sweep gives it.  Each step of a swept mode is drawn once through
    _step_draws, whose blocks give the mode's (steps, grid) negated counts k
    and frame-dense-shots: the worst ||rho_shot - s rho_ref|| / ||rho_ref|| of
    the dense oracle's shots from the step's preparation, with s = +-1 the
    shot's frame sign and rho_ref the step's noiseless final.  Then the stack
    [summed preparation (identity/16 plus every step's deviation),
    identity/16, step 0 .. 2] goes once through _cell_batches, and each batch feeds:
    - temporal-averaging (swept): the summed final against the sum of the rest;
    - protected-correctness (protected, swept or not): each step's decoded
      final against its decoded noiseless one, and the decoded summed final
      against the logical circuit's output from |00>;
    - damage-count-consistency (unprotected, swept or not): each step's
      |exact signal - (1-2e)^n|;
    - mc-convergence's (steps, grid) margins (swept).  A cell's dense mean is
      (1 - 2k/shots) rho_ref, and its margin that mean's distance from the
      exact final, less 2 ||rho_ref|| / shots times the _acceptance_radius at
      P = (1 - exact signal)/2, less NUMERICAL_FLOOR: an exact test of k at
      any shot count, which a part of the exact final orthogonal to rho_ref
      fails too.
    damage-count-values is each step's |n - EXPECTED_DAMAGE|, which holds for
    the default Grover placement only.  The first five are maxima.
    mc-convergence's cell is the first worst in (cfg.modes order, step, e) order.
    """
    identity = np.eye(qcore.DIM, dtype=complex) / qcore.DIM
    correctness = averaging = consistency = frame_dense = 0.0
    damage = 0
    margins, labels = [], []  # per mode of cfg.modes, in its order
    walk = replace(cfg, modes=tuple(dict.fromkeys((*cfg.modes, *circuits.MODES))))
    for mode_idx, plan, steps, preps, masks, references in _mode_stacks(walk):
        mode, swept = plan.mode, mode_idx < len(cfg.modes)
        for step, mask in zip(steps, masks):
            damage = max(damage, abs(int(mask.sum()) - EXPECTED_DAMAGE[mode][step.label]))
        if mode == "protected":
            logical = np.eye(4, dtype=complex)
            for gate in plan.gates:
                logical = gate.logical @ logical
            target = logical[:, 0]
            refs = [dfs.decode(reference) for reference in references]
        norms = [qcore.frobenius_norm(reference) for reference in references]
        negated = np.zeros((len(steps), len(cfg.e_grid)), dtype=np.int64)
        margin = np.empty(negated.shape)
        keys = _step_keys(cfg, mode_idx, len(steps)) if swept else []
        for step_idx, step_keys in enumerate(keys):
            mask, reference = masks[step_idx], references[step_idx]
            for cells, flips, parity in _step_draws(mask, cfg.e_grid, cfg.shots, step_keys):
                negated[step_idx, cells] += np.count_nonzero(parity, axis=1)
                flips = np.concatenate(flips)
                states, index = noise.monte_carlo_states(plan, flips, preps[step_idx])
                apart = np.linalg.norm(states[:, None] - [reference, -reference], axis=(2, 3))
                sign = parity.ravel().astype(np.intp)  # 1: negated
                frame_dense = max(frame_dense, apart[index, sign].max() / norms[step_idx])
        initial = np.concatenate([[sum(preps, identity), identity], preps])
        for start, e, (direct, total, *parts) in _cell_batches(cfg.e_grid, plan, initial):
            signals = [readout.signal_intensity(p, r).tolist() for p, r in zip(parts, references)]
            if swept:
                for part in parts:
                    total = total + part
                averaging = max(averaging, *map(qcore.frobenius_norm, direct - total))
            if mode == "protected":
                for part, ref in zip(parts, refs):
                    for final in part:
                        signal = readout.signal_intensity(dfs.decode(final), ref)
                        correctness = max(correctness, abs(signal - 1.0))
                for final in direct:
                    fidelity = float(np.real(target.conj() @ dfs.decode(final) @ target))
                    correctness = max(correctness, abs(fidelity - 1.0))
            if mode == "unprotected":
                for mask, step_signals in zip(masks, signals):
                    for e_i, signal in zip(e, step_signals):
                        theory = readout.theory_curve(int(mask.sum()), e_i)
                        consistency = max(consistency, abs(signal - theory))
            for step_idx, part in enumerate(parts if swept else ()):
                reference, norm = references[step_idx], norms[step_idx]
                counts = negated[step_idx, start : start + len(e)].tolist()
                for i, (exact, k, signal) in enumerate(zip(part, counts, signals[step_idx])):
                    mean = (1.0 - 2.0 * k / cfg.shots) * reference
                    radius = _acceptance_radius(cfg.shots, (1 - signal) / 2) * 2 * norm / cfg.shots
                    distance = qcore.frobenius_norm(mean - exact)
                    margin[step_idx, start + i] = distance - radius - NUMERICAL_FLOOR
        if swept:
            margins.append(margin)
            labels.append([step.label for step in steps])
    margins = np.stack(margins)
    mode_idx, step_idx, e_idx = np.unravel_index(np.argmax(margins), margins.shape)
    label = labels[mode_idx][step_idx]
    cell = f"mode={cfg.modes[mode_idx]} step={label} e={cfg.e_grid[e_idx]:g}"
    return correctness, averaging, consistency, frame_dense, damage, float(margins.max()), cell


def verify(cfg: SweepConfig | None = None) -> list[VerifyCheck]:
    """Run the machine-checkable invariant suite; every check reports its residual.

    One _grid_pass walks both modes, whatever cfg.modes holds.
    """
    cfg = cfg or SweepConfig()
    checks: list[VerifyCheck] = []

    def add(name: str, residual: float, tolerance: float, detail: str = "") -> None:
        passed = bool(residual <= tolerance)
        checks.append(VerifyCheck(name, passed, float(residual), float(tolerance), detail))

    add("pauli-product-exactness", _pauli_product_residual(cfg.seed), 0.0)
    add("pauli-orthogonality", _pauli_orthogonality_residual(), qcore.DEFAULT_TOL)
    add("dfs-gram-identity", dfs.gram_defect(), qcore.DEFAULT_TOL)
    add(
        "dfs-immunity",
        _immunity_residual(cfg.seed),
        qcore.DEFAULT_TOL,
        "50 random logical states, e = 0 .. 0.5 step 0.05",
    )
    completeness = max(noise.engineered_model(e).completeness_defect for e in cfg.e_grid)
    add("channel-completeness", completeness, qcore.DEFAULT_TOL)
    add("eigenstructure-audit", _eigenstructure_residual(cfg.e_grid), qcore.DEFAULT_TOL)
    correctness, averaging, consistency, frame_dense, damage, mc_margin, mc_cell = _grid_pass(cfg)
    add("protected-correctness", correctness, 1e-10)
    add("temporal-averaging", averaging, qcore.DEFAULT_TOL)
    add("damage-count-consistency", consistency, 1e-10)
    if cfg.algorithm == "grover" and cfg.placement is None:
        add("damage-count-values", damage, 0.0, "n = 0/0/0 and 6/12/6")
    add("frame-dense-shots", frame_dense, qcore.DEFAULT_TOL)
    add(
        "mc-convergence",
        mc_margin,
        0.0,
        f"worst cell {mc_cell}; bound exact binomial at erfc(5/sqrt(2)) + {NUMERICAL_FLOOR:g}"
        f" at {cfg.shots} shots",
    )
    return checks


# ---------------------------------------------------------------------------
# configuration files


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file; '#' starts a comment."""
    mapping: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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


def _words(value: object) -> list:
    """Tokens of a comma- or space-separated string, or the items of a sequence."""
    return value.replace(",", " ").split() if isinstance(value, str) else list(value)


def _modes(value: object) -> tuple[str, ...]:
    modes = tuple(_words(value))
    return circuits.MODES if modes == ("both",) else modes


#: Every config key: the SweepConfig field it sets and the parser of its
#: string (config file, flag) or typed value.
_CONFIG_KEYS = {
    "e_grid": ("e_grid", lambda v: tuple(float(t) for t in _words(v))),
    "shots": ("shots", int),
    "seed": ("seed", int),
    "modes": ("modes", _modes),
    "mode": ("modes", _modes),
    "algorithm": ("algorithm", str),
    "placement": ("placement", lambda v: tuple(int(t) for t in _words(v))),
    "output": ("output", str),
    "format": ("format", str),
}


def build_config(mapping: dict[str, object]) -> SweepConfig:
    """Build a validated SweepConfig from string-or-typed key/value pairs (None: unset)."""
    kwargs: dict[str, object] = {}
    for key, value in mapping.items():
        if value is None:
            continue
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        field, parse = _CONFIG_KEYS[key]
        try:
            kwargs[field] = parse(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid {key} {value!r}: {exc}") from exc
    return SweepConfig(**kwargs)
