"""Dense complex linear algebra and Pauli-string algebra on four qubits.

Conventions used throughout the package:

* The Hilbert space is 16-dimensional.  Basis index ``b`` encodes the ket
  ``|b1 b2 b3 b4>`` with qubit 1 as the most significant bit, so for example
  ``|1100>`` sits at index 12 and ``|0011>`` at index 3.
* Operators are plain ``numpy`` arrays of shape (16, 16), complex128.
* Deviation matrices (the traceless, observable part of an ensemble density
  matrix) use the same representation; nothing in this module assumes unit
  trace.
* A Pauli word's phase is one of {+1, -1, +i, -i}, so its matrix's entries
  are 0, +-1 or +-i and products of word matrices are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

N_QUBITS = 4
DIM = 16

#: Frobenius-norm tolerance for all equality and unitarity checks.
DEFAULT_TOL = 1e-12

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_ALLOWED_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)


@dataclass(frozen=True)
class PauliString:
    """A four-letter Pauli word with an exact group phase.

    ``letters`` reads left to right as qubits 1..4; ``phase`` is restricted
    to {+1, -1, +i, -i}, so its matrix's entries are 0, +-1 or +-i.
    """

    letters: str
    phase: complex = 1 + 0j

    def __post_init__(self) -> None:
        if len(self.letters) != N_QUBITS or any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"letters must be 4 characters from IXYZ, got {self.letters!r}")
        ph = complex(self.phase)
        if ph not in _ALLOWED_PHASES:
            raise ValueError(f"phase must be one of +1, -1, +i, -i, got {ph!r}")
        object.__setattr__(self, "phase", ph)

    def matrix(self) -> np.ndarray:
        return pauli_matrix(self)


#: Maps a word's letters to its base-4 index in pauli_basis_strings order.
_LETTER_DIGITS = str.maketrans("IXYZ", "0123")


@lru_cache(maxsize=1)
def _word_matrices() -> np.ndarray:
    """Read-only sigma_1 x sigma_2 x sigma_3 x sigma_4 of all 256 words, shape (256, 16, 16).

    Built once, in pauli_basis_strings order, by the same left-to-right
    products as chained np.kron, so every entry has the same bits.
    """
    singles = np.stack([PAULI_1Q[c] for c in "IXYZ"])
    m = singles
    for _ in range(N_QUBITS - 1):
        n = m.shape[1]
        m = m[:, None, :, None, :, None] * singles[None, :, None, :, None, :]
        m = m.reshape(-1, 2 * n, 2 * n)
    m.setflags(write=False)
    return m


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of ``p``: phase * (sigma_1 x sigma_2 x sigma_3 x sigma_4), a fresh array."""
    return p.phase * _word_matrices()[int(p.letters.translate(_LETTER_DIGITS), 4)]


def anticommutes(p: PauliString, q: PauliString) -> bool:
    """True iff pq = -qp, i.e. the words differ on an odd number of non-identity sites."""
    hits = sum(
        1 for a, b in zip(p.letters, q.letters) if a != "I" and b != "I" and a != b
    )
    return hits % 2 == 1


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    return frobenius_norm(u.conj().T @ u - np.eye(n)) <= DEFAULT_TOL


@lru_cache(maxsize=1)
def pauli_basis_strings() -> tuple[PauliString, ...]:
    """All 256 phase (+1) Pauli words, an orthogonal operator basis."""
    return tuple(
        PauliString("".join(w)) for w in product("IXYZ", repeat=N_QUBITS)
    )


def _pauli_transform(rhos: np.ndarray) -> np.ndarray:
    """Pauli coefficients (..., 256), in pauli_basis_strings order, of a stack of 16x16 matrices.

    One qubit at a time, with no 256x256 product: each step maps the leading
    qubit's 2x2 blocks m to Tr(sigma m), sigma = I, X, Y, Z, as a new last index.
    """
    rhos = np.asarray(rhos, dtype=complex)
    t = rhos.reshape(-1, DIM, DIM, 1)
    for _ in range(N_QUBITS):
        count, n, _, words = t.shape
        t = t.reshape(count, 2, n // 2, 2, n // 2, words)
        m00, m01, m10, m11 = t[:, 0, :, 0], t[:, 0, :, 1], t[:, 1, :, 0], t[:, 1, :, 1]
        t = np.stack([m00 + m11, m01 + m10, 1j * (m01 - m10), m00 - m11], axis=-1)
        t = t.reshape(count, n // 2, n // 2, 4 * words)
    return t.reshape(rhos.shape[:-2] + (4**N_QUBITS,)) / DIM


def pauli_decompose(rho: np.ndarray, tol: float = DEFAULT_TOL) -> dict[str, complex]:
    """Expand ``rho`` over the Pauli basis: rho = sum_w coeff[w] * matrix(w).

    Coefficients below ``tol`` in modulus are dropped; the tests pass 1e-10
    and, in test_circuits.py's per_word_audit, a tolerance relative to rho.
    """
    coeffs = _pauli_transform(rho)
    return {
        p.letters: complex(c)
        for p, c in zip(pauli_basis_strings(), coeffs)
        if abs(c) > tol
    }
