"""Engineered paired-flip decoherence: error model, exact channel, Monte Carlo.

Every error operator of the paired-flip model is a combination of the error
words IIII, XXII, IIXX and XXXX (dfs.ERROR_BASIS).  An ErrorModelSpec holds
the coefficients of its Kraus operators over those words; it is the one
description of a channel that apply_channel and verify_error_model take.

run_plan_exact evolves one initial state or a stack of them, at one e or a
whole grid, in float64 (every dfsim state, gate and channel coefficient is
real), at a noise point only on the entry classes that hold a byte, and copies
the finals out as complex, for library callers; dfsim run and verify read the
same walk's float64 rows, in batches set up once a stack (_exact_batches).
apply_channel and the dense oracle stay complex, as independent references:
every final equals, to the bit, the gate-by-gate walk with apply_channel(rho,
engineered_model(e)), and holds no -0 (test_grid_evolution_leaves_no_negative_zero,
test_grid_evolution_equals_per_e_kraus_sum_to_the_bit).

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
the byte share one (monte_carlo_states).  A noise point where no flip changes
a byte of any state regroups no shot, and _invariant_final applies that rule,
which reads only states, to find the one final of every flip history of a
state, where there is one.  Decoherence grows with e and is
strongest at e = 0.5; larger values are rejected.

Reproducibility contract: the flips of one cell come from one counter-based
Philox stream (Salmon et al., SC'11) keyed by the cell's seed, so any range
of shots, drawn in any order, on any worker or with other cells in one call,
gives bit-identical flips (draw_flips,
test_draw_flips_over_many_cells_stacks_the_one_cell_draws).  draw_flips is
the one drawer, of run and verify alike: it splits a call into units, disjoint
(cells, shots) views of the flips it returns, and draws them on _WORKERS
threads when there are enough, each thread re-keying its own generator;
nothing is reduced across threads, so the flips, and so the output bytes, do
not depend on the worker count
(test_cli_run_bytes_do_not_depend_on_the_worker_count).
"""

from __future__ import annotations

import functools
import operator
import os
import threading
from collections.abc import Iterator
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
    if not defect <= DEFAULT_TOL:  # NaN too
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
    multiplying that subspace's mixture weight.  ``max_residual`` is the largest
    deviation from exact scalar action (NaN if any deviation is).
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
    if not defect <= DEFAULT_TOL:  # NaN too
        raise ValueError(f"error model is not trace preserving (defect {defect:.3e})")
    a = spec.coefficients
    n_ops = a.shape[0]
    eigenvalues = np.zeros((n_ops, 4), dtype=complex)
    residuals = []
    for i in (1, 2, 3, 4):
        basis = dfs.dfs_basis(i)
        s1, s2, s3 = basis.signature
        chi = np.array([1.0, s1, s2, s3])
        eigenvalues[:, i - 1] = a @ chi
        residuals += [frobenius_norm(op @ basis.vectors - scalar * basis.vectors)
                      for op, scalar in zip(spec.operators, eigenvalues[:, i - 1])]
    weights = np.sum(np.abs(eigenvalues) ** 2, axis=0)
    return EigenvalueAudit(eigenvalues, weights, float(np.max(residuals)))


#: 64-bit words per Philox counter value; a state's counter counts these blocks.
_PHILOX_BLOCK = 4

#: Words of one draw_flips unit: a cell is sliced at _UNIT_WORDS // (2 points)
#: shots, 910 at nine noise points, and a unit groups as many cells' slices as
#: fit.  A slice's raw words stay below 128 KiB, glibc's default mmap
#: threshold, so they come from a heap the unit's thread reuses.  Results do
#: not depend on it (tested).
_UNIT_WORDS = 16 * 1024

#: Flips, 1 B each, that one block of harness._step_draws holds at most, and
#: so one draw_flips call of run or verify returns: 65 536 shots at nine noise
#: points, whatever the points.
_BLOCK_FLIPS = 65536 * 18

#: Threads that draw a draw_flips call of at least 2 * _WORKERS units, the
#: caller's one included, at most one per CPU this process may run on (not
#: every platform has CPU affinity).  Philox's random_raw and the comparisons
#: release the GIL, and a third thread gained nothing on two CPUs.  Results do
#: not depend on it (tested).
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def _keyed_cells(e: ArrayLike, seed: ArrayLike) -> tuple[tuple[int, ...], list, np.ndarray]:
    """(seed's shape, each cell's Philox key as [low, high] 64-bit words, each
    cell's threshold ceil(e * 2**53) << 11): ``seed`` is one cell's seed or a
    1-D array of them, and ``e`` a float or one per seed."""
    seeds = np.array(seed, dtype=object)
    e = _validate_probability(e)
    if seeds.ndim > 1 or e.shape not in ((), seeds.shape):
        raise ValueError("seed must be an integer or a 1-D array, and e a float or one per seed")
    keys = []
    for key in seeds.ravel().tolist():
        key = operator.index(key)
        if not 0 <= key < 2**128:
            raise ValueError(f"seed must lie in [0, 2**128), got {key}")
        keys.append([key & 0xFFFFFFFFFFFFFFFF, key >> 64])
    # e * 2**53 is exact, and at most 2**52, so the shifted threshold fits 64 bits
    steps = np.ceil(np.broadcast_to(e, seeds.shape).ravel() * 2.0**53).astype(np.uint64)
    return seeds.shape, keys, steps << np.uint64(11)


def _philox() -> tuple[np.random.Philox, dict]:
    """A Philox generator and its state, which _draw re-keys for each cell's slice."""
    bit_generator = np.random.Philox(0)  # seeded, so it reads no OS entropy
    return bit_generator, bit_generator.state


def _draw(philox: tuple[np.random.Philox, dict], key: list, threshold, offset: int,
          out: np.ndarray) -> None:
    """out = whether each of words offset .. offset + out.size - 1 of the Philox
    stream keyed ``key`` lies below ``threshold``: one cell's slice of a
    draw_flips unit.  The generator is re-keyed through its state, with
    the counter at the block of word ``offset``, and the words of earlier shots
    in that block are discarded.  At threshold 0 (e = 0) no word lies below it,
    so none is drawn."""
    if not threshold:
        out.fill(False)
        return
    bit_generator, state = philox
    state["state"]["key"] = key
    state["state"]["counter"] = [offset // _PHILOX_BLOCK, 0, 0, 0]
    bit_generator.state = state
    if offset % _PHILOX_BLOCK:
        bit_generator.random_raw(offset % _PHILOX_BLOCK)
    np.less(bit_generator.random_raw(out.shape), threshold, out=out)


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

    A unit is a group of cells over one slice of their shots, a disjoint view
    of the returned flips, drawn by one _draw per cell: each cell is sliced at
    _UNIT_WORDS // (2 points) shots, at least one, and a unit holds as many
    cells as keep it within _UNIT_WORDS words.  With at least 2 * _WORKERS
    units, _WORKERS threads draw them, each re-keying its own Philox and
    taking the next unit when it is free; otherwise the calling thread draws
    them all.  Every thread is joined before a unit's exception is raised.
    Only the returned flips grow with the shots, the points and the cells.
    """
    shape, keys, thresholds = _keyed_cells(e, seed)
    if min(shots, points, first) < 0:
        raise ValueError("shots, points and first must be >= 0")
    flips = np.empty(shape + (shots, points, 2), dtype=bool)
    cells = flips.reshape((len(keys), shots, points, 2))
    words = 2 * max(points, 1)  # a shot's words
    span = max(1, min(shots, _UNIT_WORDS // words))  # shots a slice
    batch = max(1, _UNIT_WORDS // (span * words))  # cells a unit
    slices, groups = -(-shots // span), -(-len(keys) // batch)
    workers = _WORKERS if slices * groups >= 2 * _WORKERS else 1
    # each worker's generator, made here: what a thread allocates stays in its
    # own malloc arena, and numpy.random is imported on first use
    philoxes, errors = [_philox() for _ in range(workers)], [None] * workers
    pending, taking = iter(range(slices * groups)), threading.Lock()

    def work(worker: int) -> None:
        try:
            while True:
                with taking:  # each unit is taken once, by the next thread that is free
                    i = next(pending, None)
                if i is None:
                    return
                unit, group = divmod(i, groups)
                rows, start = slice(group * batch, (group + 1) * batch), unit * span
                offset = (first + start) * 2 * points
                for key, threshold, out in zip(keys[rows], thresholds[rows],
                                               cells[rows, start : start + span]):
                    _draw(philoxes[worker], key, threshold, offset, out)
        except BaseException as exc:  # raised in the caller, after every join
            errors[worker] = exc

    started = []
    try:
        for worker in range(1, workers):
            thread = threading.Thread(target=work, args=(worker,))
            thread.start()
            started.append(thread)
        work(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return flips


def shot_seed(seed: int, index: int) -> int:
    """Shot ``index``'s seed in the former per-shot scheme: unused, kept for bench/spans.py."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


#: Flat entries of each class x = i ^ j: _CLASS_ENTRIES[x, i] = 16 i + (i ^ x).  A word of mask
#: m maps (i, j) to (i ^ m, j ^ m), in its class; as (4, 4) by i's base-4 digits, XXII (m = 12)
#: reverses axis 0, IIXX (m = 3) axis 1 and XXXX both (test_word_permutations_are_reversals).
_CLASS_ENTRIES = 16 * np.arange(DIM) + (np.arange(DIM) ^ np.arange(DIM)[:, None])


@functools.lru_cache(maxsize=8)
def _schedule(points: tuple[int, ...], gates: tuple[tuple[str, int], ...],
              matrices: tuple[bytes, ...], pattern: bytes):
    """A plan's steps for states nonzero only on ``pattern`` (256 bools), its gates
    given as (label, index into ``matrices``, the complex bytes of each distinct
    gate array, so a repeated matrix is hashed once a stack): (u, None) at a gate,
    u real, and (None, entries) at a noise point, entries (classes, 4, 4) of the
    classes the pattern touches.  It becomes (u != 0) P (u != 0)^T at a gate and
    all of those classes at a noise point; outside it, finite rows hold +0.
    """
    live, steps, shared = np.frombuffer(pattern, dtype=bool), [], {}
    gates = [(label, matrices[i]) for label, i in gates]
    for boundary, (label, matrix) in enumerate((*gates, ("", None))):
        for _ in range(points.count(boundary)):
            touched = live[_CLASS_ENTRIES].any(axis=1)
            entries = _CLASS_ENTRIES[touched].reshape(-1, 4, 4)
            steps.append((None, shared.setdefault(touched.tobytes(), entries)))  # one per class set
            live = touched[np.arange(DIM)[:, None] ^ np.arange(DIM)].ravel()  # (i, j): i ^ j
        if matrix is not None:
            u = np.frombuffer(matrix, dtype=complex).reshape(DIM, DIM)
            if u.imag.any() or not np.isfinite(u.real).all():
                raise ValueError(f"plan gate {label!r} must be real and finite (rows are float64)")
            steps.append((u.real, None))
            live = ((u != 0) @ live.reshape(DIM, DIM) @ (u != 0).T).ravel()
    return tuple(steps)


def _held(plane: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The classes of ``entries`` (classes, 4, 4) where a row of the (256, rows) plane holds a
    byte, -0 too: on a class of +0 alone the channel (coefficients >= 0) writes what is there."""
    return entries[plane.view(np.uint64).take(entries, axis=0).any(axis=(1, 2, 3))]


def _exact_batches(plan: ExperimentPlan, e: ArrayLike, initial: np.ndarray,
                   cells: int) -> Iterator[np.ndarray]:
    """run_plan_exact's walk of each ``cells`` values of e in turn: float64 rows of shape
    initial.shape[:-2] + (cells or fewer, 16, 16), a view (not C-contiguous) of a
    (16, 16, rows) plane of the batch's own.  e, its coefficients and ``initial``
    are checked, _schedule looked up and the gate step's work plane made once a stack.

    The rows are the plane's columns, state-major; ``initial`` + 0.0 starts them,
    so none holds -0.  A noise point sums the terms (rho c_k) c_k in operator
    order, flips read through reversed axes, on the _schedule classes that hold
    a byte (_held), and writes those alone.  A gate is twice u rho and a
    transposing copy.  OpenBLAS sums a 16 x 16 by 16 x (16 rows) product's k
    terms in order, but not always a 16 x few one's (Haswell kernels, few <= 4).
    """
    e = _validate_probability(e)
    grid = e.ravel()
    coeffs = _engineered_coefficients(grid)  # (4, len(grid)), real and >= 0
    # every W_k^dagger W_k is I, so sum_k E_k^dagger E_k = (sum_k c_k^2) I
    defect = np.sqrt(DIM) * float(np.abs((coeffs**2).sum(axis=0) - 1.0).max(initial=0.0))
    if not defect <= DEFAULT_TOL:  # NaN too
        raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")
    prep = np.asarray(initial, dtype=complex)
    if prep.ndim not in (2, 3) or prep.shape[-2:] != (DIM, DIM):
        raise ValueError(f"initial must have shape ({DIM}, {DIM}) or (k, {DIM}, {DIM})")
    if prep.imag.any() or not np.isfinite(prep.real).all():
        raise ValueError("initial must be real and finite (the exact channel evolves float64 rows)")
    states = prep.real.reshape(-1, DIM * DIM) + 0.0  # turns -0 into +0
    arrays = {id(g.physical): g.physical for g in plan.gates}  # Grover's 7 gates hold 3
    index = {key: i for i, key in enumerate(arrays)}
    gates = tuple((g.label, index[id(g.physical)]) for g in plan.gates)
    matrices = tuple(np.asarray(u, dtype=complex).tobytes() for u in arrays.values())
    steps = _schedule(plan.decoherence_points, gates, matrices, (states != 0).any(axis=0).tobytes())
    spare = np.empty(DIM * DIM * len(states) * min(cells, grid.size))
    for start in range(0, max(grid.size, 1), cells):  # an empty grid is one empty batch
        batch = coeffs[[0, 1, 3], start : start + cells]  # c_0, c_1 = c_2, c_3
        rho = np.repeat(states.T, batch.shape[1], axis=1).reshape(DIM, DIM, -1)  # (state, e)
        acc, plane = spare[: rho.size].reshape(rho.shape), rho.reshape(DIM * DIM, -1)
        scale = np.concatenate([batch] * len(states), axis=1)[:, None, None, None]  # by row
        for u, entries in steps:
            if u is None:
                entries = _held(plane, entries)
                terms = plane.take(entries, axis=0) * scale  # (3, classes, 4, 4, rows)
                total = np.multiply(terms, scale, out=terms)[0]
                total += terms[1][:, ::-1]  # XXII
                total += terms[1][:, :, ::-1]  # IIXX
                total += terms[2][:, ::-1, ::-1]  # XXXX
                total += 0.0  # turns -0 into +0, as apply_channel's sum from +0 leaves none
                plane[entries] = total
                del terms, total  # freed before the next gather
            else:  # u rho u^T = (u (u rho)^T)^T
                for _ in range(2):
                    np.matmul(u, rho.reshape(DIM, -1), out=acc.reshape(DIM, -1))
                    np.copyto(rho, acc.transpose(1, 0, 2))
        yield plane.T.reshape(prep.shape[:-2] + (batch.shape[1], DIM, DIM))
        del rho, plane  # freed with the consumer's rows, before the next batch's


def _exact_rows(plan: ExperimentPlan, e: ArrayLike, initial: np.ndarray) -> np.ndarray:
    """_exact_batches' one batch of all of e, shape initial.shape[:-2] + np.shape(e) + (16, 16)."""
    [rows] = _exact_batches(plan, e, initial, max(1, np.size(e)))
    return rows.reshape(np.shape(initial)[:-2] + np.shape(e) + (DIM, DIM))


def run_plan_exact(plan: ExperimentPlan, e: ArrayLike, initial: np.ndarray) -> np.ndarray:
    """Deterministic evolution: gates interleaved with the exact channel, at every e.

    ``e`` is a float or a 1-D grid, and ``initial`` one state (16, 16) or a
    stack (k, 16, 16) of them; the result is complex and C-contiguous, of shape
    initial.shape[:-2] + np.shape(e) + (16, 16).
    Each (state, e) row's final equals, to the bit, evolving that state alone
    with apply_channel(rho, engineered_model(e)) at every noise point and
    u rho u^dagger at every gate.  Callers that must not hold every final at
    once pass the grid in blocks, as harness._cell_batches does with the
    walk's float64 rows; no dfsim command calls this.  Raises
    ValueError if an e lies outside [0, 0.5], or ``initial`` or a gate is not
    real and finite.

    The walk is _exact_rows', in float64; this copies its rows out once, as
    complex with +0 imaginary parts.  The walk's work plane is freed first.
    """
    return _exact_rows(plan, e, initial).astype(complex, order="C")


#: Each error word's perm, (W rho W^dagger).ravel() == rho.ravel()[perm], in dfs.ERROR_BASIS
#: order: row p is the dense oracle's flip pattern p = XXII + 2 IIXX at one noise point.
_FLIP_PERMS = np.stack([(p[:, None] * DIM + p).ravel()  # W[i, p[i]] = 1
                        for p in np.abs(dfs.ERROR_MATRICES).argmax(axis=2)])


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


def _flips_move(rho: np.ndarray) -> bool:
    """Whether a flip pattern of _FLIP_PERMS changes a byte of a row of the 2-D rho.

    Where none does, every flip history leaves every state as it is, so a
    noise point need regroup no shot.  Only the states decide, never the damage
    audit; bytes, not values, so a +0.0 moved onto a -0.0 counts as a change.
    """
    words = np.ascontiguousarray(rho).view(np.uint64).reshape(len(rho), DIM * DIM, 2)
    return bool((np.take(words, _FLIP_PERMS, axis=1) != words[:, None]).any())


def _conjugate(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The dense oracle's gate step: u rho u^dagger of each raveled row of the 2-D rho."""
    return (u @ rho.reshape(-1, DIM, DIM) @ u.conj().T).reshape(-1, DIM * DIM)


def _invariant_final(plan: ExperimentPlan, initial: np.ndarray) -> np.ndarray | None:
    """The one final (16, 16) that every flip history of ``initial`` reaches in
    monte_carlo_states, or None if a flip changes a byte of the state at some noise point.

    A gate-by-gate walk of the one state, with the oracle's own gate step
    (_conjugate) and its own rule (_flips_move): where this returns a final,
    monte_carlo_states regroups no shot, so it maps every one of the
    4**points histories to exactly these bytes, at index 0.
    """
    points = plan.decoherence_points
    rho = np.asarray(initial, dtype=complex).reshape(1, DIM * DIM)
    for boundary in range(len(plan.gates) + 1):
        if boundary in points and _flips_move(rho):
            return None
        if boundary < len(plan.gates):
            rho = _conjugate(plan.gates[boundary].physical, rho)
    return rho.reshape(DIM, DIM)


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
    whose states are equal to the byte share one.  A noise point where no
    flip changes a byte of any current state (_flips_move) regroups no shot.
    Each shot's result equals, to the bit, evolving it alone
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
            if _flips_move(rho):
                pattern = flips[:, idx, 0] + 2 * flips[:, idx, 1]
                keys, group = _compact(group * 4 + pattern, 4 * len(rho))
                rho = rho.ravel()[(keys // 4 * DIM * DIM)[:, None] + _FLIP_PERMS[keys & 3]]
                rho, group = _distinct(rho, group)
            idx += 1
        if boundary < len(plan.gates):
            rho = _conjugate(plan.gates[boundary].physical, rho)
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
