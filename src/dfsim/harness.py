"""Experiment harness: e-sweeps, result tables, and the invariant verifier.

The sweep reproduces the benchmark protocol: for every combination of error
strength, temporal-averaging step, and computer mode it reports the exact
channel signal, the shot-averaged Monte-Carlo signal with its standard error,
the closed-form prediction (1-2e)^n, and the damage count n.  Results are
deterministic functions of (config, seed) down to the output bytes.

The verifier builds one table of the six (mode, step) plans, each assembled,
audited and given its noiseless final state once, and walks each swept plan's
cells once, feeding the damage-count and Monte-Carlo checks from each batch.
"""

from __future__ import annotations

import itertools
import json
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


def sweep_plans(
    cfg: SweepConfig,
) -> Iterator[tuple[tuple[int, int], str, readout.PreparationStep, circuits.ExperimentPlan]]:
    """(key, mode, step, plan) for every (mode, step) of cfg, in sweep order.

    ``key`` is (mode index, step index).  This is the one mapping from a
    config to its plans: run_sweep, verify's plan table and ``dfsim count-n``
    all take their plans from here.
    """
    for mode_idx, mode in enumerate(cfg.modes):
        for step_idx, step in enumerate(readout.steps_for_mode(mode)):
            plan = circuits.assemble(mode, cfg.algorithm, preparation=step, placement=cfg.placement)
            yield (mode_idx, step_idx), mode, step, plan


def _exact_finals(
    plan: circuits.ExperimentPlan, e_grid: tuple[float, ...], initial: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """Exact final state of plan at each e of e_grid, in order.

    The grid goes to noise.run_plan_exact noise._E_BLOCK values at a time,
    and each block is dropped once read, so no sweep or check holds the
    finals of the whole grid.  Every exact evolution over a grid in this
    module goes through here.
    """
    for start in range(0, len(e_grid), noise._E_BLOCK):
        yield from noise.run_plan_exact(plan, e_grid[start : start + noise._E_BLOCK], initial)


#: Constants of NumPy's SeedSequence (O'Neill's seed_seq_fe), all mod 2**32.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list[int]:
    """n as SeedSequence reads an integer: 32-bit words, least significant first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value, h: int, mult: int = _MULT_A):
    """One hash step of SeedSequence on a word or a uint64 array of words.

    Returns the hashed value and the next hash constant, which every call
    carries on to the next.
    """
    value = value ^ h
    h = h * mult & _MASK32
    value = value * h & _MASK32
    return value ^ value >> 16, h


def _mix(x: int, y):
    """SeedSequence's mix of pool word x with the hashed word y."""
    r = ((_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _cell_seeds(entropy: int, key: tuple[int, ...], count: int) -> np.ndarray:
    """SeedSequence(entropy, spawn_key=key + (i,)).generate_state(1, np.uint64)[0], i < count.

    The same bits as NumPy's SeedSequence, derived in one pass.  Its pool of
    four words mixes every input word in order: the entropy, padded to four
    words as SeedSequence pads it when it spawns, then the words of ``key``,
    then the index i.  All but i are mixed once, with Python ints; i is mixed
    for every cell at once in uint64 arrays masked to 32 bits.  The seed is
    drawn from pool words 0 and 1 alone.
    """
    if count > 2**32:
        raise ValueError("at most 2**32 cells: a larger index takes two words")
    words = _uint32_words(int(entropy))
    words += [0] * (4 - len(words))
    for k in key:
        words += _uint32_words(int(k))
    pool = []
    h = _INIT_A
    for w in words[:4]:
        value, h = _hashmix(w, h)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], value)
    for w in words[4:]:
        for dst in range(4):
            value, h = _hashmix(w, h)
            pool[dst] = _mix(pool[dst], value)
    index = np.arange(count, dtype=np.uint64)
    seeds = np.zeros(count, dtype=np.uint64)
    out = _INIT_B
    for dst in (0, 1):
        value, h = _hashmix(index, h)
        word, out = _hashmix(_mix(pool[dst], value), out, _MULT_B)
        seeds |= word << np.uint64(32 * dst)
    return seeds


#: Shots drawn at a time over all cells of a batch.  Results do not depend
#: on it (tested); it only bounds memory: 18 B per shot of flips at nine
#: noise points, and a few 8 B indices per shot in the dense oracle.
_SHOT_BLOCK = 65536

#: Shots whose columns _dense_shot_means gathers at a time, 16 B per column.
_GATHER_SHOTS = 4096


def _cell_batches(
    cfg: SweepConfig, key: tuple[int, int], plan: circuits.ExperimentPlan
) -> Iterator[tuple[tuple[float, ...], tuple[int, ...], tuple[np.ndarray, ...]]]:
    """(e, seeds, exact final states) of the cells of the plan ``key``, in e_grid order.

    The seed of the cell at e index i equals SeedSequence(cfg.seed,
    spawn_key=key + (i,))'s 64-bit state; all come from one _cell_seeds pass.
    A batch holds min(noise._E_BLOCK, _SHOT_BLOCK // shots) cells, and at
    least one, so a batch of more than one cell draws at most _SHOT_BLOCK
    shots.  run_sweep and verify's dense oracle both take their cells from
    here, so they draw the same flips for a cell.
    """
    batch = max(1, min(noise._E_BLOCK, _SHOT_BLOCK // cfg.shots))
    seeds = _cell_seeds(cfg.seed, key, len(cfg.e_grid)).tolist()
    cells = zip(cfg.e_grid, seeds, _exact_finals(plan, cfg.e_grid))
    for _ in range(0, len(cfg.e_grid), batch):
        yield tuple(zip(*itertools.islice(cells, batch)))


def _mc_signal(
    mask: np.ndarray, e: tuple[float, ...], shots: int, seeds: tuple[int, ...]
) -> list[tuple[float, float]]:
    """Monte-Carlo signal and its standard error of each cell (e[i], seeds[i]) of a batch.

    ``mask`` is the plan's circuits.damage_mask: a shot's final deviation is
    the ideal one negated once per damaging flip drawn, so its signal is
    exactly +1 or -1 by the parity of those flips.  The mean is then
    1 - 2 (odd shots) / shots, and the standard error is the sample standard
    deviation (ddof 1) of the +-1 shot signals over sqrt(shots).  The batch
    is drawn in one noise.draw_flips call per _SHOT_BLOCK shots.
    """
    odd = np.zeros(len(seeds), dtype=np.int64)
    for first in range(0, shots, _SHOT_BLOCK):
        flips = noise.draw_flips(e, seeds, min(_SHOT_BLOCK, shots - first), len(mask), first=first)
        flips &= mask
        odd += np.count_nonzero(flips.sum(axis=(2, 3)) % 2, axis=1)
    signals = []
    for k in odd.tolist():
        mean = 1.0 - 2.0 * k / shots
        stderr = float(np.sqrt((1.0 - mean * mean) / (shots - 1))) if shots > 1 else 0.0
        signals.append((mean, stderr))
    return signals


def _dense_shot_means(
    plan: circuits.ExperimentPlan, e: tuple[float, ...], shots: int, seeds: tuple[int, ...]
) -> np.ndarray:
    """Mean final state (cells, 16, 16) of the dense oracle's shots of each cell of a batch.

    The batch is drawn as _mc_signal draws it; each block's flips of all cells
    go through one noise.monte_carlo_states call, so cells share states.  A
    cell adds its shots' states onto its running total in shot order, as
    .mean(axis=0) adds, so each mean equals, to the bit,
    noise.monte_carlo_finals(plan, e[i], shots, seeds[i]).mean(axis=0).  Only
    the byte-distinct columns of [states; running totals] are summed,
    _GATHER_SHOTS shots at a time, then scattered back: equal columns, equal sums.
    """
    points, cells = len(plan.decoherence_points), len(seeds)
    totals = np.zeros((cells, qcore.DIM**2), dtype=complex)
    for first in range(0, shots, _SHOT_BLOCK):
        block = min(_SHOT_BLOCK, shots - first)
        flips = noise.draw_flips(e, seeds, block, points, first=first)
        states, index = noise.monte_carlo_states(plan, flips.reshape(cells * block, points, 2))
        del flips
        rows = np.concatenate([states.reshape(len(states), -1), totals])
        columns, inverse = noise._distinct(rows.T, np.arange(qcore.DIM**2))
        columns = columns.T.copy()  # row len(states) + c is cell c's running total
        for c, shot_rows in enumerate(index.reshape(cells, -1), start=len(states)):
            for start in range(0, len(shot_rows), _GATHER_SHOTS):
                part = np.concatenate([[c], shot_rows[start : start + _GATHER_SHOTS]])
                # accumulate adds in order; add.reduce of one column sums pairwise
                columns[c] = np.add.accumulate(columns[part], axis=0)[-1]
        totals = columns[len(states) :, inverse]
    return (totals / shots).reshape(cells, qcore.DIM, qcore.DIM)


def run_sweep(cfg: SweepConfig) -> list[SignalResult]:
    """Exact + Monte-Carlo signals for every (mode, step, e) cell, in _cell_batches."""
    rows: list[SignalResult] = []
    for key, mode, step, plan in sweep_plans(cfg):
        reference = noise.run_plan_exact(plan, 0.0)
        mask = circuits.damage_mask(plan)
        n = int(mask.sum())
        for e, seeds, finals in _cell_batches(cfg, key, plan):
            signals = _mc_signal(mask, e, cfg.shots, seeds)
            for e_i, final, (mean, stderr) in zip(e, finals, signals):
                exact = float(readout.signal_intensity(final, reference))
                theory = readout.theory_curve(n, e_i)
                row = (float(e_i), step.label, mode, cfg.algorithm, exact, mean, stderr, theory, n)
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


def _plan_table(cfg: SweepConfig) -> dict[str, list[tuple]]:
    """Each mode's (plan, n, noiseless final state), in step order.

    Built for both modes whatever cfg.modes holds, since damage-count-consistency
    and damage-count-values read plans of both.  Every check of verify takes its
    plans from here, so each is assembled and audited once.
    """
    table: dict[str, list[tuple]] = {mode: [] for mode in circuits.MODES}
    for _, mode, _, plan in sweep_plans(replace(cfg, modes=circuits.MODES)):
        n = circuits.count_damaging_errors(plan)
        table[mode].append((plan, n, noise.run_plan_exact(plan, 0.0)))
    return table


def _linearity_residuals(cfg: SweepConfig, table: dict[str, list[tuple]]) -> tuple[float, float]:
    """protected-correctness's and temporal-averaging's residuals, from one walk per mode.

    A mode's walk zips, over cfg.e_grid, the exact finals of the summed
    preparation (identity/16 plus every step's deviation) and of identity/16,
    both through step 0's plan, with those of each step's own plan.
    temporal-averaging compares the first with the sum of the rest, in each
    mode of cfg.modes.  protected-correctness reads the protected walk, swept
    or not: each step's decoded final against its decoded noiseless one, and
    the decoded summed final against the logical circuit's output from |00>.
    """
    logical = np.eye(4, dtype=complex)
    for gate in table["protected"][0][0].gates:
        logical = gate.logical @ logical
    target = logical[:, 0]
    refs = [dfs.decode(reference) for _, _, reference in table["protected"]]
    identity = np.eye(qcore.DIM, dtype=complex) / qcore.DIM
    correctness = averaging = 0.0
    for mode in dict.fromkeys(("protected", *cfg.modes)):
        entries = table[mode]
        summed = sum((plan.preparation.deviation for plan, _, _ in entries), identity)
        walks = [_exact_finals(entries[0][0], cfg.e_grid, i) for i in (summed, identity)]
        walks += [_exact_finals(plan, cfg.e_grid) for plan, _, _ in entries]
        for direct, total, *parts in zip(*walks):
            if mode in cfg.modes:
                for part in parts:
                    total = total + part
                averaging = max(averaging, qcore.frobenius_norm(direct - total))
            if mode == "protected":
                for part, ref in zip(parts, refs):
                    signal = readout.signal_intensity(dfs.decode(part), ref)
                    correctness = max(correctness, abs(signal - 1.0))
                fidelity = float(np.real(target.conj() @ dfs.decode(direct) @ target))
                correctness = max(correctness, abs(fidelity - 1.0))
    return correctness, averaging


def _cell_pass(cfg: SweepConfig, table: dict[str, list[tuple]]) -> tuple[float, float, str]:
    """damage-count-consistency's residual, and mc-convergence's worst margin and its cell.

    One walk of each cfg.modes plan's _cell_batches feeds both.  Consistency is
    the worst |exact signal - (1-2e)^n| of the unprotected cells (walked on
    their own if cfg.modes lacks them).  mc-convergence bounds the dense shot
    mean by 5 sigma around the exact state, with the known Frobenius variance
    of a shot, ||rho0||^2 - ||rho_exact||^2 (every shot conjugates rho0 by a
    unitary); rounding-level variances are clamped to 0, so noise-free cells
    keep the bare NUMERICAL_FLOOR.  The bound treats the shot mean as normal,
    which it is not at few shots when the exact signal is near 1: one negated
    shot then lies beyond 5 sigma, so a correct cell can fail (22 of 300 seeds
    at 1 shot, e = 0.005, unprotected; a known false alarm).
    """
    consistency, worst, worst_cell = 0.0, -np.inf, ""
    for mode_idx, mode in enumerate(cfg.modes):
        for step_idx, (plan, n, reference) in enumerate(table[mode]):
            prep_sq = qcore.frobenius_norm(plan.preparation.deviation) ** 2
            for e, seeds, finals in _cell_batches(cfg, (mode_idx, step_idx), plan):
                means = _dense_shot_means(plan, e, cfg.shots, seeds)
                for e_i, exact, mean in zip(e, finals, means):
                    if mode == "unprotected":
                        consistency = max(consistency, _theory_gap(e_i, exact, n, reference))
                    var = prep_sq - qcore.frobenius_norm(exact) ** 2
                    if var <= qcore.DEFAULT_TOL * prep_sq:
                        var = 0.0
                    sigma = np.sqrt(var / cfg.shots)
                    margin = qcore.frobenius_norm(mean - exact) - (5.0 * sigma + NUMERICAL_FLOOR)
                    if margin > worst:
                        worst = margin
                        worst_cell = f"mode={mode} step={plan.preparation.label} e={e_i:g}"
    if "unprotected" not in cfg.modes:
        for plan, n, reference in table["unprotected"]:
            for e_i, final in zip(cfg.e_grid, _exact_finals(plan, cfg.e_grid)):
                consistency = max(consistency, _theory_gap(e_i, final, n, reference))
    return consistency, float(worst), worst_cell


def _theory_gap(e: float, final: np.ndarray, n: int, reference: np.ndarray) -> float:
    return abs(readout.signal_intensity(final, reference) - readout.theory_curve(n, e))


def verify(cfg: SweepConfig | None = None) -> list[VerifyCheck]:
    """Run the machine-checkable invariant suite; every check reports its residual.

    The plan checks read one _plan_table, and one _cell_pass walks the cells.
    """
    cfg = cfg or SweepConfig()
    table = _plan_table(cfg)
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
    correctness, averaging = _linearity_residuals(cfg, table)
    add("protected-correctness", correctness, 1e-10)
    add("temporal-averaging", averaging, qcore.DEFAULT_TOL)
    consistency, mc_margin, mc_cell = _cell_pass(cfg, table)
    add("damage-count-consistency", consistency, 1e-10)
    if cfg.algorithm == "grover" and cfg.placement is None:
        values = [abs(n - EXPECTED_DAMAGE[mode][plan.preparation.label])
                  for mode, entries in table.items() for plan, n, _ in entries]
        add("damage-count-values", max(values), 0.0, "n = 0/0/0 and 6/12/6")
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
