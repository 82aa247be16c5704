"""Dense complex linear algebra and Pauli-string algebra on four qubits.

Conventions used throughout the package:

* The Hilbert space is 16-dimensional.  Basis index ``b`` encodes the ket
  ``|b1 b2 b3 b4>`` with qubit 1 as the most significant bit, so for example
  ``|1100>`` sits at index 12 and ``|0011>`` at index 3.
* Operators are plain ``numpy`` arrays of shape (16, 16), complex128.
* Deviation matrices (the traceless, observable part of an ensemble density
  matrix) use the same representation; nothing in this module assumes unit
  trace.
* Group phases of Pauli words are tracked exactly over {+1, -1, +i, -i}.
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

# Single-site products a.b = phase * c for the non-trivial combinations.
_SITE_PRODUCT = {
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


@dataclass(frozen=True)
class PauliString:
    """A four-letter Pauli word with an exact group phase.

    ``letters`` reads left to right as qubits 1..4; ``phase`` is restricted
    to {+1, -1, +i, -i} so products and (anti)commutation stay exact.
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

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __neg__(self) -> "PauliString":
        return PauliString(self.letters, -self.phase)

    def __str__(self) -> str:
        prefix = {1 + 0j: "", -1 + 0j: "-", 1j: "i", -1j: "-i"}[self.phase]
        return prefix + self.letters


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


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact group product; pauli_matrix(multiply(p, q)) == pauli_matrix(p) @ pauli_matrix(q)."""
    phase = p.phase * q.phase
    letters = []
    for a, b in zip(p.letters, q.letters):
        if a == "I":
            letters.append(b)
        elif b == "I":
            letters.append(a)
        elif a == b:
            letters.append("I")
        else:
            site_phase, c = _SITE_PRODUCT[(a, b)]
            phase *= site_phase
            letters.append(c)
    return PauliString("".join(letters), phase)


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


def hs_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    return complex(np.vdot(np.asarray(a), np.asarray(b)))


@lru_cache(maxsize=1)
def pauli_basis_strings() -> tuple[PauliString, ...]:
    """All 256 phase (+1) Pauli words, an orthogonal operator basis."""
    return tuple(
        PauliString("".join(w)) for w in product("IXYZ", repeat=N_QUBITS)
    )


def pauli_decompose(rho: np.ndarray, tol: float = DEFAULT_TOL) -> dict[str, complex]:
    """Expand ``rho`` over the Pauli basis: rho = sum_w coeff[w] * matrix(w).

    Coefficients below ``tol`` in modulus are dropped.
    """
    stack = _word_matrices()
    coeffs = np.einsum("aij,ij->a", stack.conj(), np.asarray(rho, dtype=complex)) / DIM
    return {
        p.letters: complex(c)
        for p, c in zip(pauli_basis_strings(), coeffs)
        if abs(c) > tol
    }
