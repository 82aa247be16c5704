"""Engineered paired-flip decoherence: error model, exact channel, Monte Carlo.

Every error operator of the paired-flip model is a combination of the error
words IIII, XXII, IIXX and XXXX (dfs.ERROR_BASIS).  An ErrorModelSpec holds
the coefficients of its Kraus operators over those words; it is the one
description of a channel that apply_channel and verify_error_model take.

run_plan_exact evolves one initial state or a stack of them, at one e or a
whole grid, in one float64 pass without apply_channel (every dfsim state,
gate and channel coefficient is real).  apply_channel and the dense oracle
stay complex, as independent references: every final equals, to the bit,
the gate-by-gate evolution with apply_channel(rho, engineered_model(e)), and
holds no -0 (test_grid_evolution_equals_per_e_kraus_sum_to_the_bit,
test_grid_evolution_leaves_no_negative_zero).

The engineered decoherence is applied at chosen circuit points: XXII with
probability e, then IIXX with the same probability.  Averaged over
realizations this is the spec engineered_model(e),

    E0 = (1-e) IIII,  E1 = sqrt(e(1-e)) XXII,
    E2 = sqrt(e(1-e)) IIXX,  E3 = e XXXX,

complete because (1-e)^2 + 2 e(1-e) + e^2 = 1; at e = 0 only E0 is kept.
The exact channel is the primary evolution path.  The dense Monte-Carlo path
(monte_carlo_states, monte_carlo_finals) gives every shot its 16x16 matrix,
flipped by permuting its entries with the XXII and IIXX entry permutations;
it mirrors the shot-averaged protocol and is the oracle for the sweep's
Pauli-frame sampler; shots of one or many cells whose matrices are equal to
the byte share one (monte_carlo_states).  Decoherence grows with e and is
strongest at e = 0.5; larger values are rejected.

Reproducibility contract: the flips of one cell come from one counter-based
Philox stream (Salmon et al., SC'11) keyed by the cell's seed, so any range
of shots, drawn in any order, on any worker or with other cells in one call,
gives bit-identical flips (draw_flips,
test_draw_flips_over_many_cells_stacks_the_one_cell_draws).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from . import dfs
from .circuits import ExperimentPlan
from .qcore import DEFAULT_TOL, DIM, frobenius_norm

DEFAULT_SHOTS = 2048


def _validate_probability(e: ArrayLike) -> np.ndarray:
    """e (a float or an array of them) as a float array; every value must lie in [0, 0.5]."""
    e = np.asarray(e, dtype=float)
    bad = ~((e >= 0.0) & (e <= 0.5))  # NaN is bad too
    if bad.any():
        raise ValueError(f"error probability must lie in [0, 0.5], got {e[bad].flat[0]}")
    return e


def _engineered_coefficients(e: ArrayLike) -> np.ndarray:
    """Coefficients (1-e, sqrt(e(1-e)), sqrt(e(1-e)), e) of the error words, on axis 0."""
    root = np.sqrt(e * (1.0 - e))
    return np.array([1.0 - e, root, root, e])


@dataclass(frozen=True, eq=False)
class ErrorModelSpec:
    """Kraus operators E_d = sum_k a[d, k] W_k over the error words W = dfs.ERROR_BASIS.

    ``coefficients`` is a read-only copy of a, one row per operator.  The
    read-only ``operators`` (each the sum of only its nonzero terms) and the
    ``completeness_defect`` ||sum_d E_d^dagger E_d - I||_F are computed once,
    when the spec is made.
    """

    coefficients: np.ndarray
    operators: tuple[np.ndarray, ...] = field(init=False, repr=False)
    completeness_defect: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a = np.array(self.coefficients, dtype=complex)
        if a.ndim != 2 or a.shape[1] != 4:
            raise ValueError("coefficients must have shape (n_operators, 4)")
        a.setflags(write=False)
        ops = []
        for row in a.tolist():
            terms = [c * m for c, m in zip(row, dfs.ERROR_MATRICES) if c]
            op = sum(terms[1:], terms[0]) if terms else np.zeros((DIM, DIM), dtype=complex)
            op.setflags(write=False)
            ops.append(op)
        acc = np.zeros((DIM, DIM), dtype=complex)
        for op in ops:
            acc += op.conj().T @ op
        acc.flat[:: DIM + 1] -= 1.0  # minus the identity
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "operators", tuple(ops))
        object.__setattr__(self, "completeness_defect", frobenius_norm(acc))


def engineered_model(e: float) -> ErrorModelSpec:
    """The paired-flip channel at strength e; only its nonzero operators are kept."""
    e = float(_validate_probability(e))
    a = np.zeros((4, 4))
    a.flat[::5] = _engineered_coefficients(e)  # the diagonal
    return ErrorModelSpec(coefficients=a if e else a[:1])  # e > 0: every row is nonzero


def apply_channel(rho: np.ndarray, channel: ErrorModelSpec) -> np.ndarray:
    """rho -> sum_d E_d rho E_d^dagger; rejects incomplete channels."""
    defect = channel.completeness_defect
    if defect > DEFAULT_TOL:
        raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for op in channel.operators:
        out += op @ rho @ op.conj().T
    return out


@dataclass(frozen=True)
class EigenvalueAudit:
    """Scalar action of each Kraus operator on each subspace.

    ``eigenvalues[d, i-1]`` is the scalar by which operator d multiplies every
    state of subspace i; ``weights[i-1]`` is sum_d |eigenvalue|^2, the factor
    multiplying that subspace's mixture weight.  ``max_residual`` bounds the
    deviation from exact scalar action.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray
    max_residual: float


def verify_error_model(spec: ErrorModelSpec) -> EigenvalueAudit:
    """Confirm each operator acts as a scalar on every subspace and report weights.

    The predicted scalar on subspace i with signature (s1, s2, s3) is
    a_d0 + a_d1 s1 + a_d2 s2 + a_d3 s3; the residual measures the matrix
    action against that prediction.  Requires a complete model.
    """
    defect = spec.completeness_defect
    if defect > DEFAULT_TOL:
        raise ValueError(f"error model is not trace preserving (defect {defect:.3e})")
    a = spec.coefficients
    n_ops = a.shape[0]
    eigenvalues = np.zeros((n_ops, 4), dtype=complex)
    residual = 0.0
    for i in (1, 2, 3, 4):
        basis = dfs.dfs_basis(i)
        s1, s2, s3 = basis.signature
        chi = np.array([1.0, s1, s2, s3])
        eigenvalues[:, i - 1] = a @ chi
        for d, op in enumerate(spec.operators):
            resid = frobenius_norm(op @ basis.vectors - eigenvalues[d, i - 1] * basis.vectors)
            residual = max(residual, resid)
    weights = np.sum(np.abs(eigenvalues) ** 2, axis=0)
    return EigenvalueAudit(eigenvalues, weights, residual)


#: Shots of one cell whose raw words draw_flips holds at a time, 144 B each
#: at nine noise points.  Results do not depend on it (tested).
_UNIFORM_SHOTS = 4096

#: 64-bit words per Philox counter value; a state's counter counts these blocks.
_PHILOX_BLOCK = 4


def draw_flips(
    e: ArrayLike, seed: ArrayLike, shots: int, points: int, first: int = 0
) -> np.ndarray:
    """Flips of shots first .. first+shots-1 of one cell or of many.

    ``seed`` is one cell's seed or a 1-D array of them, and ``e`` a float or
    an array of the same length; the result has shape
    np.shape(seed) + (shots, points, 2).  ``[..., k, p, 0]`` says whether
    XXII hits point p in shot first+k, ``[..., k, p, 1]`` whether IIXX does;
    each is true with probability e.  Shot k compares the uniforms at words
    k*2*points .. (k+1)*2*points - 1 of the Philox stream keyed by the cell's
    seed against its e, so every shot range is drawn in one call and equals
    the matching rows of a draw that starts at shot 0.

    The uniform of a word is NumPy's next_double, (word >> 11) * 2**-53, the
    value Generator.random returns; so uniform < e exactly when
    word < ceil(e * 2**53) << 11, and the raw words (BitGenerator.random_raw)
    are compared with that integer, with no conversion to float.

    One Philox generator is re-keyed for each cell by setting its state (the
    cell's seed as key, the counter at the block of word first*2*points).
    Shots are drawn _UNIFORM_SHOTS at a time, each slice as if it were its
    own ``first``, and one cell's words of one slice are held at a time;
    only the returned flips grow with the shots and the cells.
    """
    seeds = np.array(seed, dtype=object)
    e = _validate_probability(e)
    if seeds.ndim > 1 or e.shape not in ((), seeds.shape):
        raise ValueError("seed must be an integer or a 1-D array, and e a float or one per seed")
    if min(shots, points, first) < 0:
        raise ValueError("shots, points and first must be >= 0")
    keys = []
    for key in seeds.ravel().tolist():
        key = operator.index(key)
        if not 0 <= key < 2**128:
            raise ValueError(f"seed must lie in [0, 2**128), got {key}")
        keys.append([key & 0xFFFFFFFFFFFFFFFF, key >> 64])
    # e * 2**53 is exact, and at most 2**52, so the shifted threshold fits 64 bits
    steps = np.ceil(np.broadcast_to(e, seeds.shape).ravel() * 2.0**53).astype(np.uint64)
    thresholds = steps << np.uint64(11)
    bit_generator = np.random.Philox(0)  # seeded, so it reads no OS entropy; re-keyed below
    state = bit_generator.state
    flips = np.empty(seeds.shape + (shots, points, 2), dtype=bool)
    cells = flips.reshape((seeds.size, shots, points, 2))
    for start in range(0, shots, _UNIFORM_SHOTS):
        offset = (first + start) * 2 * points
        state["state"]["counter"] = [offset // _PHILOX_BLOCK, 0, 0, 0]
        for key, threshold, out in zip(keys, thresholds, cells[:, start : start + _UNIFORM_SHOTS]):
            state["state"]["key"] = key
            bit_generator.state = state
            if offset % _PHILOX_BLOCK:  # words of earlier shots in the block
                bit_generator.random_raw(offset % _PHILOX_BLOCK)
            np.less(bit_generator.random_raw(out.shape), threshold, out=out)
    return flips


def shot_seed(seed: int, index: int) -> int:
    """Shot ``index``'s seed in the former per-shot scheme: unused, kept for bench/spans.py."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def _entry_permutation(word: np.ndarray) -> np.ndarray:
    """perm with (W rho W^dagger).ravel() == rho.ravel()[perm] for a permutation matrix W."""
    p = np.abs(word).argmax(axis=1)  # W[i, p[i]] = 1
    return (p[:, None] * DIM + p).ravel()


#: Entry permutation of each error word, in dfs.ERROR_BASIS order.
_WORD_PERMS = tuple(_entry_permutation(w) for w in dfs.ERROR_MATRICES)

#: Each error word's entry permutation as reversed axes of entry-major rows
#: seen as (4, 4, 4, 4, rows): flat entry f has base-4 digits d0 d1 d2 d3, and
#: a reversed digit is 3 - d = d ^ 3, so XXII (f ^ 0xCC) reverses d0 and d2,
#: IIXX (f ^ 0x33) d1 and d3, and XXXX (f ^ 0xFF) all four
#: (test_word_permutations_are_reversals).
_WORD_FLIPS = (..., np.s_[::-1, :, ::-1], np.s_[:, ::-1, :, ::-1], np.s_[::-1, ::-1, ::-1, ::-1])


def run_plan_exact(plan: ExperimentPlan, e: ArrayLike, initial: np.ndarray) -> np.ndarray:
    """Deterministic evolution: gates interleaved with the exact channel, at every e.

    ``e`` is a float or a 1-D grid, and ``initial`` one state (16, 16) or a
    stack (k, 16, 16) of them; the result is C-contiguous, of shape
    initial.shape[:-2] + np.shape(e) + (16, 16).
    Each (state, e) row's final equals, to the bit, evolving that state alone
    with apply_channel(rho, engineered_model(e)) at every noise point and
    u rho u^dagger at every gate.  Callers that must not hold every final at
    once pass the grid in blocks, as harness._cell_batches does.  Raises
    ValueError if an e lies outside [0, 0.5], or ``initial`` or a gate is not real.

    The rows are the columns, state-major, of a float64 (16, 16, rows) plane
    beside two work planes, freed before the +0 imaginary part is added.  Each
    c_k is a (16, rows) block; the terms (rho c_k) c_k are summed in operator
    order, flips read through _WORD_FLIPS views.  A gate is twice u rho and a
    transposing copy.  OpenBLAS sums a 16 x 16 by 16 x (16 rows) product's k
    terms in order, but not always a 16 x few one's (Haswell kernels, few <= 4).
    """
    e = _validate_probability(e)
    grid = e.ravel()
    coeffs = _engineered_coefficients(grid)  # (4, len(grid)), real and >= 0
    # every W_k^dagger W_k is I, so sum_k E_k^dagger E_k = (sum_k c_k^2) I
    defect = np.sqrt(DIM) * float(np.abs((coeffs**2).sum(axis=0) - 1.0).max(initial=0.0))
    if defect > DEFAULT_TOL:
        raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")
    prep = np.asarray(initial, dtype=complex)
    if prep.ndim not in (2, 3) or prep.shape[-2:] != (DIM, DIM):
        raise ValueError(f"initial must have shape ({DIM}, {DIM}) or (k, {DIM}, {DIM})")
    if prep.imag.any():
        raise ValueError("initial must be real (the exact channel evolves float64 rows)")
    for gate in plan.gates:
        if gate.physical.imag.any():
            raise ValueError(f"plan gate {gate.label!r} must be real (exact rows are float64)")
    states = prep.real.reshape(-1, DIM * DIM)
    rows = len(states) * grid.size
    rho = np.repeat(states.T, grid.size, axis=1).reshape(DIM, DIM, rows)  # (state, e) columns
    acc, scaled = np.empty_like(rho), np.empty_like(rho)
    flipped = scaled.reshape(4, 4, 4, 4, rows)
    a, r, b = (np.tile(c, (DIM, len(states))) for c in coeffs[[0, 1, 3]])  # (16, rows) each
    points = plan.decoherence_points
    idx = 0
    for boundary in range(len(plan.gates) + 1):
        while idx < len(points) and points[idx] == boundary:
            total = acc.reshape(flipped.shape)  # a view of the plane that becomes rho
            np.multiply(np.multiply(rho, a, out=acc), a, out=acc)
            np.multiply(np.multiply(rho, r, out=scaled), r, out=scaled)
            total += flipped[_WORD_FLIPS[1]]  # XXII
            total += flipped[_WORD_FLIPS[2]]  # IIXX
            np.multiply(np.multiply(rho, b, out=scaled), b, out=scaled)
            total += flipped[_WORD_FLIPS[3]]  # XXXX
            acc += 0.0  # turns -0 into +0, as apply_channel's sum from +0 leaves none
            rho, acc = acc, rho
            idx += 1
        if boundary < len(plan.gates):
            u = plan.gates[boundary].physical.real
            for _ in range(2):  # u rho u^T = (u (u rho)^T)^T
                np.matmul(u, rho.reshape(DIM, -1), out=acc.reshape(DIM, -1))
                np.copyto(rho, acc.transpose(1, 0, 2))
    del acc, scaled, flipped, a, r, b
    finals = rho.reshape(DIM * DIM, rows).T.astype(complex, order="C")
    return finals.reshape(prep.shape[:-2] + e.shape + (DIM, DIM))


#: Entry permutation of each flip pattern p = XXII + 2 IIXX at one noise point:
#: identity, XXII, IIXX, and XXII then IIXX, in the order the flips are drawn.
_FLIP_PERMS = np.stack(
    [np.arange(DIM * DIM), _WORD_PERMS[1], _WORD_PERMS[2], _WORD_PERMS[1][_WORD_PERMS[2]]]
)


def _distinct(rho: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the 2-D rho that differ in at least one byte, and group remapped onto them.

    Rows are compared as raw bytes (np.void), so +0.0 and -0.0 stay apart and
    a merged row is the very same state, not a close one.
    """
    width = rho.shape[1]
    rows = np.ascontiguousarray(rho).view(np.dtype((np.void, rho.itemsize * width)))
    distinct, inverse = np.unique(rows.ravel(), return_inverse=True)
    return distinct.view(rho.dtype).reshape(-1, width), inverse.ravel()[group]


def _compact(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(keys, return_inverse=True) for integer keys in [0, size), without a sort.

    The keys present are flagged in a table of size entries; their ranks,
    a running count of the flags, are the inverse.
    """
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]


def monte_carlo_states(
    plan: ExperimentPlan, flips: np.ndarray, initial: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct final states of the shots whose flips are ``flips``, and each shot's state.

    ``flips`` has shape (shots, points, 2), as draw_flips returns it for one
    cell; the draws of a batch of cells, reshaped to (cells * shots, points,
    2), evolve every cell's shots together, each from the state ``initial``.
    The result is (states, index): states (distinct, 16, 16), pairwise
    different in at least one byte, and index (shots,), so that
    states[index[k]] is the final deviation of shot k.

    The dense oracle: every shot is evolved as a 16x16 matrix, and shots
    whose states are equal to the byte share one.  Each shot's result equals,
    to the bit, evolving it alone
    (test_shared_flip_histories_match_unshared_replay_to_the_bit).  Only the
    drawn flips and the states decide the sharing, never the damage audit, so
    the oracle stays independent of the frame sampler it checks.
    """
    points = plan.decoherence_points
    flips = np.asarray(flips, dtype=bool)
    if flips.ndim != 3 or flips.shape[1:] != (len(points), 2) or len(flips) < 1:
        raise ValueError(f"flips must have shape (shots >= 1, {len(points)}, 2)")
    # rho[g] is the raveled state of every shot k with group[k] == g
    rho = np.asarray(initial, dtype=complex).reshape(1, DIM * DIM)
    group = np.zeros(len(flips), dtype=np.intp)
    idx = 0
    for boundary in range(len(plan.gates) + 1):
        while idx < len(points) and points[idx] == boundary:
            pattern = flips[:, idx, 0] + 2 * flips[:, idx, 1]
            keys, group = _compact(group * 4 + pattern, 4 * len(rho))
            rho = rho.ravel()[(keys // 4 * DIM * DIM)[:, None] + _FLIP_PERMS[keys & 3]]
            rho, group = _distinct(rho, group)
            idx += 1
        if boundary < len(plan.gates):
            u = plan.gates[boundary].physical
            rho = (u @ rho.reshape(-1, DIM, DIM) @ u.conj().T).reshape(-1, DIM * DIM)
    # a gate may round two states to the same bytes
    rho, group = _distinct(rho, group)
    return rho.reshape(-1, DIM, DIM), group


def monte_carlo_finals(
    plan: ExperimentPlan, e: float, shots: int, seed: int, initial: np.ndarray
) -> np.ndarray:
    """Final deviation matrix of every shot from one state ``initial``, shape (shots, 16, 16).

    The flips are draw_flips(e, seed, shots, points) and the states come from
    monte_carlo_states; each shot's matrix equals, to the bit, evolving it on
    its own.  This holds all shots at once (4 KiB each).  Unused by dfsim;
    kept because bench/spans.py wraps noise.monte_carlo_finals by name.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    flips = draw_flips(e, seed, shots, len(plan.decoherence_points))
    states, index = monte_carlo_states(plan, flips, initial)
    return states[index]
