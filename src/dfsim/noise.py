"""Engineered paired-flip decoherence: exact channel, sampling, Monte Carlo.

The decoherence is applied at chosen circuit points: XXII with probability e,
then IIXX with the same probability.  Averaged over realizations this is the
Kraus channel

    E0 = (1-e) IIII,  E1 = sqrt(e(1-e)) XXII,
    E2 = sqrt(e(1-e)) IIXX,  E3 = e XXXX,

complete because (1-e)^2 + 2 e(1-e) + e^2 = 1.  The exact channel is the
primary evolution path.  The dense Monte-Carlo path (monte_carlo_finals)
evolves every shot's 16x16 matrix; it mirrors the shot-averaged protocol and
is the oracle for the sweep's Pauli-frame sampler.  Decoherence grows with
e and is strongest at e = 0.5; larger values are rejected.

Reproducibility contract: the flips of one cell come from one counter-based
Philox stream (Salmon et al., SC'11) keyed by the cell's seed.  Shot k reads
the 2*points uniforms at a fixed position, word k*2*points, of that stream,
so any range of shots can be recomputed on its own, in any order or on any
worker, and gives bit-identical flips (see draw_flips).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dfs
from .circuits import ExperimentPlan
from .qcore import (
    DEFAULT_TOL,
    DIM,
    PauliString,
    frobenius_norm,
    identity_matrix,
    pauli_matrix,
)

#: Operator basis of the error model: a_d0 IIII + a_d1 XXII + a_d2 IIXX + a_d3 XXXX.
ERROR_BASIS = (
    PauliString("IIII"),
    PauliString("XXII"),
    PauliString("IIXX"),
    PauliString("XXXX"),
)

_ERROR_MATRICES = tuple(pauli_matrix(p) for p in ERROR_BASIS)

#: The two stochastically applied flips, in protocol order.
FLIP_PAIR = (_ERROR_MATRICES[1], _ERROR_MATRICES[2])

DEFAULT_SHOTS = 2048


def _validate_probability(e: float) -> float:
    e = float(e)
    if not 0.0 <= e <= 0.5:
        raise ValueError(f"error probability must lie in [0, 0.5], got {e}")
    return e


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered Kraus operators; complete when sum E^dagger E = identity."""

    operators: tuple[np.ndarray, ...]

    def completeness_defect(self) -> float:
        acc = np.zeros((DIM, DIM), dtype=complex)
        for op in self.operators:
            acc += op.conj().T @ op
        return frobenius_norm(acc - identity_matrix())


def engineered_channel(e: float) -> KrausChannel:
    """The paired-flip channel at strength e; exactly complete by construction."""
    e = _validate_probability(e)
    coeffs = (1.0 - e, np.sqrt(e * (1.0 - e)), np.sqrt(e * (1.0 - e)), e)
    ops = tuple(c * m for c, m in zip(coeffs, _ERROR_MATRICES) if c != 0.0)
    return KrausChannel(operators=ops)


def apply_channel(
    rho: np.ndarray, channel: KrausChannel, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """rho -> sum_d E_d rho E_d^dagger; rejects incomplete channels."""
    defect = channel.completeness_defect()
    if defect > tol:
        raise ValueError(f"channel is not trace preserving (defect {defect:.3e})")
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for op in channel.operators:
        out += op @ rho @ op.conj().T
    return out


@dataclass(frozen=True, eq=False)
class ErrorModelSpec:
    """Coefficients a[d, k] over ERROR_BASIS, one row per Kraus operator."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.coefficients, dtype=complex)
        if a.ndim != 2 or a.shape[1] != 4:
            raise ValueError("coefficients must have shape (n_operators, 4)")
        object.__setattr__(self, "coefficients", a)

    def operators(self) -> tuple[np.ndarray, ...]:
        return tuple(
            sum(c * m for c, m in zip(row, _ERROR_MATRICES))
            for row in self.coefficients
        )

    def channel(self) -> KrausChannel:
        return KrausChannel(operators=self.operators())


def engineered_model(e: float) -> ErrorModelSpec:
    """The engineered channel written as error-model coefficients."""
    e = _validate_probability(e)
    a = np.zeros((4, 4), dtype=complex)
    a[0, 0] = 1.0 - e
    a[1, 1] = np.sqrt(e * (1.0 - e))
    a[2, 2] = np.sqrt(e * (1.0 - e))
    a[3, 3] = e
    return ErrorModelSpec(coefficients=a)


@dataclass(frozen=True)
class EigenvalueAudit:
    """Scalar action of each Kraus operator on each subspace.

    ``eigenvalues[d, i-1]`` is the scalar by which operator d multiplies every
    state of subspace i; ``weights[i-1]`` is sum_d |eigenvalue|^2, the factor
    multiplying that subspace's mixture weight.  ``max_residual`` bounds the
    deviation from exact scalar action; subspaces exceeding tolerance are
    listed in ``flagged``.
    """

    eigenvalues: np.ndarray
    weights: np.ndarray
    max_residual: float
    flagged: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.flagged


def verify_error_model(
    spec: ErrorModelSpec, tol: float = DEFAULT_TOL
) -> EigenvalueAudit:
    """Confirm each operator acts as a scalar on every subspace and report weights.

    The predicted scalar on subspace i with signature (s1, s2, s3) is
    a_d0 + a_d1 s1 + a_d2 s2 + a_d3 s3; the residual measures the matrix
    action against that prediction.  Requires a complete model.
    """
    channel = spec.channel()
    defect = channel.completeness_defect()
    if defect > tol:
        raise ValueError(f"error model is not trace preserving (defect {defect:.3e})")
    a = spec.coefficients
    n_ops = a.shape[0]
    eigenvalues = np.zeros((n_ops, 4), dtype=complex)
    residuals = np.zeros(4)
    for i in (1, 2, 3, 4):
        basis = dfs.dfs_basis(i)
        s1, s2, s3 = basis.signature
        chi = np.array([1.0, s1, s2, s3])
        eigenvalues[:, i - 1] = a @ chi
        for d, op in enumerate(channel.operators):
            resid = frobenius_norm(op @ basis.vectors - eigenvalues[d, i - 1] * basis.vectors)
            residuals[i - 1] = max(residuals[i - 1], resid)
    weights = np.sum(np.abs(eigenvalues) ** 2, axis=0)
    flagged = tuple(i for i in (1, 2, 3, 4) if residuals[i - 1] > tol)
    return EigenvalueAudit(
        eigenvalues=eigenvalues,
        weights=weights,
        max_residual=float(residuals.max()),
        flagged=flagged,
    )


#: 64-bit words per Philox counter value; ``Philox.advance`` counts these blocks.
_PHILOX_BLOCK = 4


def draw_flips(
    e: float, seed: int, shots: int, points: int, first: int = 0
) -> np.ndarray:
    """Flips of shots first .. first+shots-1, shape (shots, points, 2).

    ``[k, p, 0]`` says whether XXII hits point p in shot first+k, ``[k, p, 1]``
    whether IIXX does; each is true with probability e.  Shot k compares the
    uniforms at words k*2*points .. (k+1)*2*points - 1 of the Philox stream
    keyed by ``seed`` against e, so every shot range is drawn in one call and
    equals the matching rows of a draw that starts at shot 0.
    """
    e = _validate_probability(e)
    if min(shots, points, first) < 0:
        raise ValueError("shots, points and first must be >= 0")
    offset = first * 2 * points
    bit_generator = np.random.Philox(key=seed)
    bit_generator.advance(offset // _PHILOX_BLOCK)
    bit_generator.random_raw(offset % _PHILOX_BLOCK)  # words of earlier shots in the block
    return np.random.Generator(bit_generator).random((shots, points, 2)) < e


def shot_seed(seed: int, index: int) -> int:
    """Integer seed of shot ``index`` under ``seed`` in the former per-shot scheme.

    Unused by dfsim; kept because bench/spans.py wraps noise.shot_seed by name.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def run_plan_exact(
    plan: ExperimentPlan, e: float, initial: np.ndarray | None = None
) -> np.ndarray:
    """Deterministic evolution: gates interleaved with the exact channel."""
    channel = engineered_channel(e)
    rho = np.array(
        plan.preparation.deviation if initial is None else initial, dtype=complex
    )
    points = plan.decoherence_points
    idx = 0
    for boundary in range(len(plan.gates) + 1):
        while idx < len(points) and points[idx] == boundary:
            rho = apply_channel(rho, channel)
            idx += 1
        if boundary < len(plan.gates):
            u = plan.gates[boundary].physical
            rho = u @ rho @ u.conj().T
    return rho


def monte_carlo_finals(
    plan: ExperimentPlan,
    e: float,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Final deviation matrix of every shot, shape (shots, 16, 16).

    The dense oracle: every shot is evolved as a 16x16 matrix, with the flips
    draw_flips(e, seed, shots, points) gives it.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    prep = plan.preparation.deviation if initial is None else initial
    points = plan.decoherence_points
    draws = draw_flips(e, seed, shots, len(points))
    rho = np.broadcast_to(np.asarray(prep, dtype=complex), (shots, DIM, DIM)).copy()
    idx = 0
    for boundary in range(len(plan.gates) + 1):
        while idx < len(points) and points[idx] == boundary:
            for slot, flip in enumerate(FLIP_PAIR):
                sel = draws[:, idx, slot]
                if sel.any():
                    rho[sel] = flip @ rho[sel] @ flip
            idx += 1
        if boundary < len(plan.gates):
            u = plan.gates[boundary].physical
            rho = u @ rho @ u.conj().T
    return rho


def monte_carlo_run(
    plan: ExperimentPlan,
    e: float,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Shot-averaged final deviation matrix (the protocol's ensemble average)."""
    return monte_carlo_finals(plan, e, shots, seed, initial).mean(axis=0)
