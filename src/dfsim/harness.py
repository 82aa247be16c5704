"""Experiment harness: e-sweeps, result tables, and the invariant verifier.

The sweep reproduces the benchmark protocol: for every combination of error
strength, temporal-averaging step, and computer mode it reports the exact
channel signal, the shot-averaged Monte-Carlo signal with its standard error,
the closed-form prediction (1-2e)^n, and the damage count n.  Results are
deterministic functions of (config, seed) down to the output bytes.

As in the experiment, a mode is one circuit run from each of its three
temporal-averaging preparations: one plan and its steps' stack of
preparations (mode_stacks).  The sweep and the verifier walk each mode the
same two ways: its stack once through _cell_batches for the exact finals,
float64 rows of noise._exact_rows, and each step's whole e grid once for
the shots, drawn in blocks of at most noise._BLOCK_FLIPS flips.  The
sweep's walk, _step_columns, yields each step's signal columns, which
csv_steps formats and run_sweep turns into rows; it holds no flips, only
each cell's count of negated shots (noise._negated_counts, one call a
step).  Only the verifier draws flips, through _step_draws, for its dense
oracle: its walk, _grid_values, hands each draw block and exact batch to
the reduction of each grid check that reads it, which fills that check's
own values array.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from collections.abc import Iterator, Sequence
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
    modes: tuple[str, ...] = circuits.MODES
    algorithm: str = "grover"
    placement: tuple[int, ...] | None = None
    output: str | None = None
    format: str = "csv"

    def __post_init__(self) -> None:
        # library callers may pass lists or arrays: hold tuples, hashable and comparable
        for name in ("e_grid", "modes", "placement"):
            value = getattr(self, name)
            try:
                if value is not None:
                    object.__setattr__(self, name, tuple(value))
            except TypeError as exc:
                raise ConfigError(f"invalid {name} {value!r}: {exc}") from None
        if not self.e_grid:
            raise ConfigError("e_grid must not be empty")
        for e in self.e_grid:
            if not (isinstance(e, numbers.Real) and 0.0 <= e <= 0.5):
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


def mode_stacks(
    cfg: SweepConfig,
) -> Iterator[tuple[int, circuits.ExperimentPlan, tuple, np.ndarray, tuple, np.ndarray]]:
    """(mode index, plan, steps, preparations, damage audit, noiseless finals)
    of each mode of cfg, in order: the one mapping from a config to its plans,
    which run_sweep, verify and ``dfsim count-n`` all read.

    The preparations (steps, 16, 16) are the steps' deviations, walked
    noise-free once as one stack (circuits.ideal_boundary_deviations): the
    damage audit reads every boundary, and the noiseless finals are the last.
    Those are the exact channel's finals at e = 0 to the byte: preparation
    entries are +-1/16 or 0 and gate entries in {0, +-1/2, +-1}, so every
    noise-free product and sum is exact in float64, in any order and on any
    BLAS kernel.
    """
    for mode_idx, mode in enumerate(cfg.modes):
        plan = circuits.assemble(mode, cfg.algorithm, placement=cfg.placement)
        steps = readout.steps_for_mode(mode)
        preps = np.stack([step.deviation for step in steps])
        walk = circuits.ideal_boundary_deviations(plan, preps)
        yield mode_idx, plan, steps, preps, circuits._audit(plan, walk), walk[-1]


#: (state, e) rows of one exact walk, 2 KiB each in each of its two float64
#: planes.  With run reading real rows, a fine-grid pass (513 e values, 2-vCPU
#: VM, median speed-adjusted wall time over three rounds of 6 to 8 runs) took
#: 42-43, 38-40 and 36-40 ms at 96, 128 and 192 rows, at 44.2-44.3 MiB peak RSS
#: each; its traced Python peak was 1.04, 1.24 and 1.65 MB, against 1.44 MB when
#: run read complex finals at 96 rows.  192 rows tie 128 on time but hold more
#: than that (tested: no result depends on it).  verify reads the same real
#: rows, its stack of five states in batches of 25 cells.
_E_BLOCK = 128


def _cell_batches(
    e_grid: tuple[float, ...], plan: circuits.ExperimentPlan, initial: np.ndarray
) -> Iterator[tuple[int, tuple[float, ...], np.ndarray]]:
    """(start, e, rows) over e_grid in order, e = e_grid[start : start + cells].

    ``initial`` is a stack of k states, such as a mode's preparations, and
    rows (k, cells, 16, 16) are the float64 finals of the stack through plan
    at e, one noise._exact_rows call, which run and verify both read.  This
    is the one place that blocks exact rows: a batch holds _E_BLOCK // k
    cells, and at least one, so no caller holds more than one batch of rows.
    """
    batch = max(1, _E_BLOCK // len(initial))
    for start in range(0, len(e_grid), batch):
        e = e_grid[start : start + batch]
        yield start, e, noise._exact_rows(plan, e, initial)


def _step_keys(cfg: SweepConfig, mode_idx: int, steps: int) -> list[range]:
    """Each step's Philox keys over cfg.e_grid: cell (mode_idx, step, i) is keyed
    cfg.seed | (mode_idx << 48 | step << 32 | i) << 64.  The seed fills the low
    64 bits and the cell's indices the high 64, so every cell of a run, with
    mode < 2, step < 3 and i < 2**32, has its own stream, and the OR is a sum:
    a step's keys are a range in steps of 2**64."""
    count = len(cfg.e_grid)
    firsts = (cfg.seed | (mode_idx << 48 | step << 32) << 64 for step in range(steps))
    return [range(first, first + (count << 64), 1 << 64) for first in firsts]


def _parity(flips: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(cells, shots): the xor of each shot's flips on the true entries of a damage mask."""
    return np.bitwise_xor.reduce(flips[..., mask], axis=-1)


def _step_draws(
    mask: np.ndarray, e: tuple[float, ...], shots: int, keys: Sequence[int]
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """(cells, flips, _parity(flips, mask)) over one step's cells (e[i], keys[i]):
    verify's draws, each one noise.draw_flips call of at most noise._BLOCK_FLIPS
    flips (or one shot's): blocks of _BLOCK_FLIPS // (2 points) shots, and of
    65 536 shots at nine points or fewer, since the dense oracle keeps a few
    8 B indices a shot, over as many cells as fill one, at least one.  A
    cell's flips come from its own Philox key (_step_keys), whatever its
    group or block."""
    block = max(1, noise._BLOCK_FLIPS // max(mask.size, 18))  # shots
    batch = max(1, block // shots)  # cells
    for start in range(0, len(keys), batch):
        cells = slice(start, start + batch)
        for first in range(0, shots, block):
            count = min(block, shots - first)
            flips = noise.draw_flips(e[cells], keys[cells], count, len(mask), first=first)
            yield cells, flips, _parity(flips, mask)


def _mc_signal(
    mask: np.ndarray, e: tuple[float, ...], shots: int, seeds: Sequence[int]
) -> tuple[list[float], list[float]]:
    """The Monte-Carlo signal column of the cells (e[i], seeds[i]), and its standard errors.

    ``mask`` is one step's damaging flags of circuits.damage_audit: a shot's
    final deviation is the ideal one negated once per damaging flip drawn, so
    its signal is +1 or -1 by its _parity.  The mean is then 1 - 2 (odd shots)
    / shots, and the standard error is the sample standard deviation (ddof 1)
    of the +-1 shot signals over sqrt(shots).  The odd shots of every cell are
    counted by one noise._negated_counts call, which holds no flips and blocks
    its own draws, unless no entry of the mask is true: every protected plan,
    and every plan without noise points, draws nothing.
    """
    odd = noise._negated_counts(e, seeds, shots, mask) if mask.any() else np.zeros(len(seeds))
    mean = 1.0 - 2.0 * odd / shots
    stderr = np.sqrt((1.0 - mean * mean) / (shots - 1)) if shots > 1 else np.zeros_like(mean)
    return mean.tolist(), stderr.tolist()


def _step_columns(
    cfg: SweepConfig,
) -> Iterator[tuple[str, str, int, list[float], list[float], list[float]]]:
    """(mode, label, n, exact, mean, stderr) of each (mode, step) of cfg, in
    mode_stacks order, with its signal columns over cfg.e_grid: run's one walk.

    Each mode's steps go through its plan as one stack, walked once in
    _cell_batches, in float64: one signal_intensity call gives a batch's exact
    signals from its real rows, the bits of the complex finals' signals.
    Each step's whole grid is then drawn by one _mc_signal call.
    """
    for mode_idx, plan, steps, preps, (_, masks), references in mode_stacks(cfg):
        keys = _step_keys(cfg, mode_idx, len(steps))
        exact = np.empty((len(steps), len(cfg.e_grid)))
        for start, e, rows in _cell_batches(cfg.e_grid, plan, preps):
            exact[:, start : start + len(e)] = readout.signal_intensity(rows, references[:, None])
            del rows  # its plane is freed before the next batch's walk
        for step, mask, signals, step_keys in zip(steps, masks, exact.tolist(), keys):
            mean, stderr = _mc_signal(mask, cfg.e_grid, cfg.shots, step_keys)
            yield plan.mode, step.label, int(mask.sum()), signals, mean, stderr


def run_sweep(cfg: SweepConfig) -> list[SignalResult]:
    """Exact + Monte-Carlo signals for every (mode, step, e) cell, in mode_stacks order.

    The rows are built from _step_columns' columns, which csv_steps formats.
    """
    rows: list[SignalResult] = []
    for mode, label, n, exact, mean, stderr in _step_columns(cfg):
        rows += [SignalResult(e_i, label, mode, cfg.algorithm, signal, mc, err,
                              readout.theory_curve(n, e_i), n)
                 for e_i, signal, mc, err in zip(cfg.e_grid, exact, mean, stderr)]
    return rows


def _csv_text(e_reprs, cells: str, exact, mean, stderr, theory, n: str) -> str:
    """A step's CSV lines, in CSV_HEADER order: the one row layout.  ``cells`` is
    ",step,mode,algorithm," and ``n`` ",n"; a float's !r is its str, written fastest."""
    return "".join([f"{e}{cells}{x!r},{m!r},{s!r},{t!r}{n}\n"
                    for e, x, m, s, t in zip(e_reprs, exact, mean, stderr, theory)])


def csv_steps(cfg: SweepConfig) -> Iterator[str]:
    """The CSV text, without the header, of each (mode, step) of cfg in run_sweep's
    row order: formatted from _step_columns' columns, with no SignalResult made.
    The theory column is computed once for each distinct damage count n."""
    e_reprs, theories = [repr(e) for e in cfg.e_grid], {}
    for mode, label, n, exact, mean, stderr in _step_columns(cfg):
        if n not in theories:
            theories[n] = [readout.theory_curve(n, e) for e in cfg.e_grid]
        yield _csv_text(e_reprs, f",{label},{mode},{cfg.algorithm},", exact, mean, stderr,
                        theories[n], f",{n}")


def results_to_csv(rows: list[SignalResult]) -> str:
    """The header and one line per row, each row as length-1 columns of _csv_text."""
    return "".join([CSV_HEADER + "\n"] + [
        _csv_text((repr(r.e),), f",{r.step},{r.mode},{r.algorithm},", (r.signal_exact,),
                  (r.signal_mc,), (r.mc_stderr,), (r.theory,), f",{r.n}") for r in rows])


def results_to_json(rows: list[SignalResult]) -> str:
    return json.dumps([vars(r) for r in rows], indent=2) + "\n"


# ---------------------------------------------------------------------------
# invariant verifier


#: Word matrices _word_pass takes at a time: all 256 at once held 3 MB, verify's peak.
_WORD_BLOCK = 32


def _word_pass() -> tuple[np.ndarray, list[float]]:
    """The values flip-anticommutation and pauli-transform-inverse judge, on the 256 dense
    word matrices W, _WORD_BLOCK at a time: 1.0 per wrong entry of the audit's table
    circuits._flip_anticommutes (for F = XXII, IIXX: whether W F + F W is 0; exactly one
    of W F - F W and W F + F W must be 0), and each block's max |_pauli_transform(W) - I|."""
    words, flips = qcore._word_matrices(), dfs._ERROR_STACK[1:3]  # XXII, IIXX
    table, wrong, inverse = circuits._flip_anticommutes(), [], []
    for start in range(0, len(words), _WORD_BLOCK):
        block = slice(start, start + _WORD_BLOCK)
        product, reverse = words[block, None] @ flips, flips @ words[block, None]
        commutes = ~(product != reverse).any(axis=(2, 3))
        anticommutes = ~(product + reverse).any(axis=(2, 3))
        wrong.append((table[block] != anticommutes) | (commutes == anticommutes))
        coeffs = qcore._pauli_transform(words[block])  # rows start.. of the identity
        inverse.append(np.abs(coeffs - np.eye(len(coeffs), len(words), start)).max())
    return np.concatenate(wrong).astype(float), inverse


def _encoded_operators() -> np.ndarray:
    """(16, 16, 16): sum_i V_i |a><b| V_i^dagger over dfs.all_isometries, a-major.
    dfs.encode(psi) is (1/4) sum_ab psi_a psi_b^* of them: they span every encoded state."""
    v = np.stack(dfs.all_isometries())
    return np.einsum("ixa,iyb->abxy", v, v.conj()).reshape(-1, qcore.DIM, qcore.DIM)


def _immunity_residual() -> list[float]:
    """The change the engineered channel makes to each _encoded_operators at
    each e of IMMUNITY_E_GRID: 176 norms.  The operators go through
    noise.apply_channel as one stack, each one's output its own to the bit."""
    ops, norms = _encoded_operators(), []
    for e in IMMUNITY_E_GRID:
        out = noise.apply_channel(ops, noise.engineered_model(e))
        norms += map(qcore.frobenius_norm, out - ops)
    return norms


def _eigenstructure_residual(e_grid: tuple[float, ...]) -> list[float]:
    """Each e's verify_error_model max_residual and its four |weight - 1|."""
    values = []
    for e in e_grid:
        audit = noise.verify_error_model(noise.engineered_model(e))
        values += [audit.max_residual, *np.abs(audit.weights - 1.0).tolist()]
    return values


def _acceptance_radius(shots: int, p: float) -> float:
    """Largest |k - shots p| of the counts k that the exact two-sided test of
    k ~ Binomial(shots, p) accepts at _ALPHA: the nearest ones, whose tail (the
    chance of a count as far from shots p or farther, within 1e-9) is >= _ALPHA.
    Only counts within t = sqrt(shots ln(2e13) / 2) of shots p are summed, the
    first by math.lgamma and the rest by the pmf ratio: by Hoeffding, P(|k -
    shots p| >= t) <= 2 exp(-2 t**2 / shots) = 1e-13, far below _ALPHA."""
    if not 0.0 < p < 1.0:  # one certain count
        return 0.0
    t = math.sqrt(shots * math.log(2e13) / 2)
    low, high = max(0, math.ceil(shots * p - t)), min(shots, math.floor(shots * p + t))
    k = np.arange(low, high + 1)
    first = (math.lgamma(shots + 1) - math.lgamma(low + 1) - math.lgamma(shots - low + 1)
             + low * math.log(p) + (shots - low) * math.log1p(-p))
    ratios = np.log((shots - k[:-1]) / (k[:-1] + 1)) + (math.log(p) - math.log1p(-p))
    log_pmf = first + np.concatenate([[0.0], np.cumsum(ratios)])
    distance = np.abs(k - shots * p)
    order = np.argsort(distance, kind="stable")
    near = distance[order]
    tails = np.cumsum(np.exp(log_pmf[order])[::-1])[::-1]  # the smallest terms first
    return float(near[tails[np.searchsorted(near, near - 1e-9)] >= _ALPHA].max())


def _attempt(compute, *args, failed=math.inf):
    """compute(*args), or ``failed`` if it raises ValueError: the checks that read it FAIL."""
    try:
        return compute(*args)
    except ValueError:
        return failed


def _correctness(plan: circuits.ExperimentPlan, references, finals) -> np.ndarray:
    """protected-correctness, (1 + steps, cells) of a protected batch decoded as one
    stack: the summed final's |fidelity - 1| with the logical circuit's output
    from |00>, then each step's |signal - 1| against its decoded noiseless final."""
    logical = np.eye(4, dtype=complex)
    for gate in plan.gates:
        logical = gate.logical @ logical
    target = logical[:, 0]
    refs = np.concatenate([[np.outer(target, target.conj())], dfs.decode(references)])
    decoded = np.delete(dfs.decode(finals), 1, axis=0)  # all but identity/16
    return np.abs(readout.signal_intensity(decoded, refs[:, None]) - 1.0)


def _averaging(finals: np.ndarray) -> list[float]:
    """temporal-averaging, one per cell: ||summed final - sum of the rest||."""
    return list(map(qcore.frobenius_norm, finals[0] - sum(finals[2:], finals[1])))


def _consistency(masks, references, e: tuple[float, ...], finals) -> np.ndarray:
    """damage-count-consistency, (steps, cells) of an unprotected batch: each
    step's |exact signal - (1-2e)^n|, n its count of damaging flags."""
    signals = readout.signal_intensity(finals[2:], references[:, None])
    return np.abs(signals - [[readout.theory_curve(int(m.sum()), e_i) for e_i in e] for m in masks])


def _frame_apart(states: np.ndarray, index, sign, reference: np.ndarray) -> float:
    """frame-dense-shots: the largest ||states[index[k]] - s_k reference|| / ||reference||
    over shots k, where s_k is -1 if sign[k] is 1 (the frame negated shot k) and +1 if it is 0."""
    apart = np.linalg.norm(states[:, None] - [reference, -reference], axis=(2, 3))
    return apart[index, sign].max() / qcore.frobenius_norm(reference)


def _mc_margins(shots: int, references, negated: np.ndarray, finals) -> np.ndarray:
    """mc-convergence, (steps, cells) of a swept batch.  A cell's dense mean is
    (1 - 2k/shots) rho_ref, for its k negated shots; its margin is that mean's
    distance from the exact final, less 2 ||rho_ref|| / shots times the
    _acceptance_radius at P = (1 - exact signal)/2, less NUMERICAL_FLOOR: an exact
    test of k at any shot count, which a part orthogonal to rho_ref fails too."""
    parts = finals[2:]
    means = (1.0 - 2.0 * negated / shots)[..., None, None] * references[:, None]
    distance = list(map(qcore.frobenius_norm, (means - parts).reshape(-1, *parts.shape[2:])))
    p = (1 - readout.signal_intensity(parts, references[:, None])) / 2
    radius = np.reshape([_acceptance_radius(shots, x) for x in p.ravel().tolist()], p.shape)
    norms = np.array([qcore.frobenius_norm(reference) for reference in references])[:, None]
    return np.reshape(distance, p.shape) - radius * 2 * norms / shots - NUMERICAL_FLOOR


def _damage_values(walk: list) -> list[int]:
    """damage-count-values: each step's |n - EXPECTED_DAMAGE|, from the audit alone.
    EXPECTED_DAMAGE holds for the default Grover placement only."""
    return [abs(int(mask.sum()) - EXPECTED_DAMAGE[plan.mode][step.label])
            for _, plan, steps, _, (_, masks), _ in walk for step, mask in zip(steps, masks)]


def _grid_values(cfg: SweepConfig, walk: list) -> dict[str, np.ndarray]:
    """The five grid checks' values by name, from one walk of each mode of
    ``walk``: mode_stacks over cfg.modes, so each swept mode has run's cell
    keys, then the other mode.  Each swept step is drawn once through
    _step_draws and the dense oracle, unless noise._invariant_final, which
    reads only states, proves one final for every flip history (frame sign
    +1).  Each mode's stack [summed preparation, identity/16, step 0 .. 2]
    goes once through _cell_batches.  Every value starts at inf: what a
    raising reduction or shared stage leaves unfilled FAILs only its readers.
    """
    identity = np.eye(qcore.DIM, dtype=complex) / qcore.DIM
    rows, grid, swept = len(walk[0][2]), len(cfg.e_grid), len(cfg.modes)  # 3 steps a mode
    values = {name: np.full(shape, math.inf) for name, shape in [
        ("protected-correctness", (1 + rows, grid)), ("temporal-averaging", (swept, grid)),
        ("damage-count-consistency", (rows, grid)), ("frame-dense-shots", (swept, rows)),
        ("mc-convergence", (swept, rows, grid))]}
    for mode_idx, plan, steps, preps, (_, masks), references in walk:
        negated, drawn = np.zeros((len(steps), grid), dtype=np.int64), mode_idx < swept
        try:
            for step_idx, keys in enumerate(_step_keys(cfg, mode_idx, len(steps)) if drawn else ()):
                mask, initial, reference = masks[step_idx], preps[step_idx], references[step_idx]
                final = None if mask.any() else noise._invariant_final(plan, initial)
                if final is not None:  # every shot of every cell ends there, frame sign +1
                    values["frame-dense-shots"][mode_idx, step_idx] = _attempt(
                        _frame_apart, final[None], 0, 0, reference)
                    continue
                apart = []
                for cells, flips, parity in _step_draws(mask, cfg.e_grid, cfg.shots, keys):
                    negated[step_idx, cells] += np.count_nonzero(parity, axis=1)
                    histories = flips.reshape(parity.size, *mask.shape)  # a view, at 0 points too
                    states, index = noise.monte_carlo_states(plan, histories, initial)
                    sign = parity.ravel().astype(np.intp)  # 1: negated
                    apart.append(_attempt(_frame_apart, states, index, sign, reference))
                values["frame-dense-shots"][mode_idx, step_idx] = np.max(apart)
        except ValueError:  # a draw or dense evolution: mc-convergence reads its counts
            drawn = False
        initial = np.concatenate([[sum(preps, identity), identity], preps])
        try:
            for start, e, finals in _cell_batches(cfg.e_grid, plan, initial):
                cells = slice(start, start + len(e))
                if plan.mode == "protected":
                    values["protected-correctness"][:, cells] = _attempt(
                        _correctness, plan, references, finals)
                else:
                    values["damage-count-consistency"][:, cells] = _attempt(
                        _consistency, masks, references, e, finals)
                if mode_idx < swept:
                    values["temporal-averaging"][mode_idx, cells] = _attempt(_averaging, finals)
                if drawn:
                    values["mc-convergence"][mode_idx, :, cells] = _attempt(
                        _mc_margins, cfg.shots, references, negated[:, cells], finals)
                del finals  # freed before the next batch's walk
        except ValueError:  # the exact walk: the cells it did not reach stay inf
            pass
    return values


def verify(cfg: SweepConfig | None = None) -> list[VerifyCheck]:
    """Run the machine-checkable invariant suite; every check reports its residual.

    A check's residual is the largest value it judges: a NaN among them FAILs it,
    as does the inf of a computation that raised.  Both modes' mode_stacks are
    built first, outside the checks (a bad placement exits 2).
    """
    cfg = cfg or SweepConfig()
    modes = tuple(dict.fromkeys((*cfg.modes, *circuits.MODES)))  # cfg.modes, then the other
    walk = list(mode_stacks(replace(cfg, modes=modes)))
    checks: list[VerifyCheck] = []

    def add(name: str, values, tolerance: float, detail: str = "") -> None:
        residual = float(np.max(values))  # np.max keeps a NaN, where max may drop it
        checks.append(VerifyCheck(name, residual <= tolerance, residual, float(tolerance), detail))

    flip_table, transform = _attempt(_word_pass, failed=(math.inf, math.inf))
    add("flip-anticommutation", flip_table, 0.0)
    add("pauli-transform-inverse", transform, 0.0)
    add("dfs-gram-identity", _attempt(dfs.gram_defect), 0.0)
    add("dfs-immunity", _attempt(_immunity_residual), qcore.DEFAULT_TOL,
        "16 operators spanning every encoded state, e = 0 .. 0.5 step 0.05")
    add("channel-completeness", _attempt(lambda: [noise.engineered_model(e).completeness_defect
                                                  for e in cfg.e_grid]), qcore.DEFAULT_TOL)
    add("eigenstructure-audit", _attempt(_eigenstructure_residual, cfg.e_grid), qcore.DEFAULT_TOL)
    grid = _grid_values(cfg, walk)
    for name in ("protected-correctness", "temporal-averaging", "damage-count-consistency"):
        add(name, grid[name], qcore.DEFAULT_TOL)
    if cfg.algorithm == "grover" and cfg.placement is None:
        add("damage-count-values", _attempt(_damage_values, walk), 0.0, "n = 0/0/0 and 6/12/6")
    add("frame-dense-shots", grid["frame-dense-shots"], 0.0)
    margins = grid["mc-convergence"]  # argmax: the first worst in (cfg.modes, step, e) order
    mode_idx, step_idx, e_idx = np.unravel_index(np.argmax(margins), margins.shape)
    label = walk[mode_idx][2][step_idx].label  # the swept modes lead walk
    cell = f"mode={cfg.modes[mode_idx]} step={label} e={cfg.e_grid[e_idx]:g}"
    add("mc-convergence", margins, 0.0,
        f"worst cell {cell}; bound exact binomial at erfc(5/sqrt(2)) + {NUMERICAL_FLOOR:g}"
        f" at {cfg.shots} shots")
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
