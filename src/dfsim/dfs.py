"""Decoherence-free subspaces for the paired-flip error model.

The noise this package studies flips qubits (1,2) and/or qubits (3,4)
together, i.e. every error operator is a combination of

    IIII,  XXII,  IIXX,  XXXX.

These four operators form an abelian group, so the Hilbert space splits into
four simultaneous eigenspaces ("subspaces" below), each labelled by the
eigenvalue signature (s1, s2, s3) of (XXII, IIXX, XXXX) with s3 = s1*s2.
Each eigenspace is four-dimensional and hosts two logical qubits.

Basis construction: the sixteen kets split into four orbits
{seed, XXII seed, IIXX seed, XXXX seed} with seeds |0000>, |1000>, |0001>,
|1001> carrying logical labels 00, 01, 10, 11.  Inside subspace i the
physical ket |b1 b2 b3 b4> enters with sign s1^(b2) * s2^(b3), equivalently

    |xy>_i = (|seed> + s1 XXII|seed> + s2 IIXX|seed> + s1 s2 XXXX|seed>) / 2.

For i = 1 (all +1) this reproduces the symmetric combinations, e.g.
|00>_1 = (|0000> + |1100> + |0011> + |1111>)/2.

A logical state psi = (a, b, c, d) is stored as the classical mixture

    rho = sum_i c_i |psi>_i <psi|_i,   default weights c_i = 1/4,

which the paired-flip noise cannot disturb: every error operator acts as a
scalar on each subspace, so only the weights c_i could change, and trace
preservation forces even those to stay put.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import DEFAULT_TOL, DIM, PauliString, frobenius_norm, is_unitary, pauli_matrix

#: Eigenvalue signatures (s1, s2, s3) of (XXII, IIXX, XXXX) per subspace index.
SIGNATURES = {
    1: (1, 1, 1),
    2: (1, -1, -1),
    3: (-1, 1, -1),
    4: (-1, -1, 1),
}

#: Seed kets for logical 00, 01, 10, 11 (one per flip orbit).
_SEEDS = (0b0000, 0b1000, 0b0001, 0b1001)

_FLIP_A = 0b1100  # XOR mask of XXII
_FLIP_B = 0b0011  # XOR mask of IIXX

#: The error words: every error operator is a_0 IIII + a_1 XXII + a_2 IIXX + a_3 XXXX.
ERROR_BASIS = (
    PauliString("IIII"),
    PauliString("XXII"),
    PauliString("IIXX"),
    PauliString("XXXX"),
)

_ERROR_STACK = np.stack([pauli_matrix(p) for p in ERROR_BASIS])
_ERROR_STACK.setflags(write=False)

#: Read-only matrices of ERROR_BASIS, in the same order.
ERROR_MATRICES = tuple(_ERROR_STACK)


@dataclass(frozen=True, eq=False)
class DfsBasis:
    """Orthonormal basis of one decoherence-free subspace.

    ``vectors`` is a (16, 4) isometry whose columns are the logical basis
    states in the order |00>, |01>, |10>, |11> (logical qubit 1 on the left).
    """

    dfs_index: int
    signature: tuple[int, int, int]
    vectors: np.ndarray


def _build_basis(i: int) -> DfsBasis:
    s1, s2, _ = SIGNATURES[i]
    v = np.zeros((DIM, 4), dtype=complex)
    for col, seed in enumerate(_SEEDS):
        v[seed, col] = 0.5
        v[seed ^ _FLIP_A, col] = 0.5 * s1
        v[seed ^ _FLIP_B, col] = 0.5 * s2
        v[seed ^ (_FLIP_A | _FLIP_B), col] = 0.5 * s1 * s2
    v.flags.writeable = False
    return DfsBasis(dfs_index=i, signature=SIGNATURES[i], vectors=v)


_BASES = {i: _build_basis(i) for i in (1, 2, 3, 4)}


def dfs_basis(i: int) -> DfsBasis:
    """The i-th decoherence-free subspace basis, i in {1, 2, 3, 4}."""
    if i not in _BASES:
        raise ValueError(f"subspace index must be 1..4, got {i}")
    return _BASES[i]


def all_isometries() -> tuple[np.ndarray, ...]:
    return tuple(_BASES[i].vectors for i in (1, 2, 3, 4))


def encode(psi: np.ndarray, weights: tuple[float, float, float, float] | None = None) -> np.ndarray:
    """Density (deviation) matrix sum_i c_i |psi>_i <psi|_i, unit trace.

    dfsim stores every state with the default weights; test_dfs.py's
    test_decode_invariant_under_channel_any_weights and
    test_general_error_model_only_reweights_subspaces pass others, to show
    the module docstring's claim for any weights.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise ValueError("logical state must have 4 amplitudes")
    if abs(np.linalg.norm(psi) - 1.0) > DEFAULT_TOL:
        raise ValueError("logical state must be normalized")
    if weights is None:
        weights = (0.25, 0.25, 0.25, 0.25)
    w = np.asarray(weights, dtype=float)
    if w.shape != (4,) or np.any(w < -DEFAULT_TOL) or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be 4 nonnegative reals summing to 1")
    rho = np.zeros((DIM, DIM), dtype=complex)
    for c, basis in zip(w, all_isometries()):
        vec = basis @ psi
        rho += c * np.outer(vec, vec.conj())
    return rho


def decode(rho: np.ndarray) -> np.ndarray:
    """Weight-summed 4x4 logical matrix sum_i V_i^dagger rho V_i (trace preserved);
    a stack (..., 16, 16) gives (..., 4, 4), each matrix's own decode to the bit."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros(rho.shape[:-2] + (4, 4), dtype=complex)
    for basis in all_isometries():
        out += basis.conj().T @ rho @ basis
    return out


def lift_logical_unitary(u: np.ndarray) -> np.ndarray:
    """Block-diagonal physical unitary acting as ``u`` inside every subspace.

    The lift is a unitary homomorphism (the four subspaces tile the full
    space) and commutes with every paired-flip error operator, so it is the
    noise-free idealization of a logical gate.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("logical unitary must be 4x4")
    if not is_unitary(u):
        raise ValueError("lift_logical_unitary requires a unitary input")
    out = np.zeros((DIM, DIM), dtype=complex)
    for basis in all_isometries():
        out += basis @ u @ basis.conj().T
    return out


def gram_defect() -> float:
    """Frobenius distance of the 16 stacked basis vectors from orthonormality."""
    stacked = np.hstack(all_isometries())
    return frobenius_norm(stacked.conj().T @ stacked - np.eye(DIM))
