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

#: Frobenius-norm tolerance for all equality / unitarity / Hermiticity checks.
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


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense matrix of ``p``: phase * (sigma_1 x sigma_2 x sigma_3 x sigma_4)."""
    m = PAULI_1Q[p.letters[0]]
    for c in p.letters[1:]:
        m = np.kron(m, PAULI_1Q[c])
    return p.phase * m


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


def identity_matrix() -> np.ndarray:
    return np.eye(DIM, dtype=complex)


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def is_unitary(u: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    return frobenius_norm(u.conj().T @ u - np.eye(n)) <= tol


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return frobenius_norm(m - m.conj().T) <= tol


def conjugate(rho: np.ndarray, u: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary conjugation u rho u^dagger; rejects non-unitary ``u``."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, tol):
        raise ValueError("conjugate requires a unitary operator")
    return u @ np.asarray(rho, dtype=complex) @ u.conj().T


def hs_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dagger b)."""
    return complex(np.vdot(np.asarray(a), np.asarray(b)))


def pauli_basis_strings() -> tuple[PauliString, ...]:
    """All 256 phase (+1) Pauli words, an orthogonal operator basis."""
    return _pauli_basis_strings()


@lru_cache(maxsize=1)
def _pauli_basis_strings() -> tuple[PauliString, ...]:
    return tuple(
        PauliString("".join(w)) for w in product("IXYZ", repeat=N_QUBITS)
    )


@lru_cache(maxsize=1)
def _pauli_basis_stack() -> np.ndarray:
    return np.stack([pauli_matrix(p) for p in _pauli_basis_strings()])


def pauli_decompose(rho: np.ndarray, tol: float = DEFAULT_TOL) -> dict[str, complex]:
    """Expand ``rho`` over the Pauli basis: rho = sum_w coeff[w] * matrix(w).

    Coefficients below ``tol`` in modulus are dropped.
    """
    stack = _pauli_basis_stack()
    coeffs = np.einsum("aij,ij->a", stack.conj(), np.asarray(rho, dtype=complex)) / DIM
    return {
        p.letters: complex(c)
        for p, c in zip(_pauli_basis_strings(), coeffs)
        if abs(c) > tol
    }
