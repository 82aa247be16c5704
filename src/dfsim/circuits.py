"""Logical circuits (Grover, refined Deutsch-Jozsa) and experiment plans.

A plan is what every walk of one mode reads: the realized 16-dimensional gate
sequence and where the engineered-noise points sit.  The walks' callers choose
the initial states.  Two realizations of the same logical circuit exist:

* protected  - every logical gate is lifted block-diagonally onto the four
  decoherence-free subspaces;
* unprotected - physical spins 1 and 4 serve directly as the two qubits
  (identity on spins 2 and 3), so the paired-flip noise hits them.

Noise placement: one point after preparation, one after each gate group, and
one more before acquisition.  The Grover sequence has seven gate groups
(equal superposition, oracle, three-part diffusion, and a two-pulse readout
filter that tilts the final populations into the transverse plane and back),
giving nine points by default.  A custom placement may be supplied as a
sorted list of gate-boundary indices (0 = right after preparation,
len(gates) = just before acquisition; duplicates allowed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

import numpy as np

from . import dfs
from .qcore import DIM, _pauli_transform, anticommutes, is_unitary, pauli_basis_strings

_H = np.array([[1, 1], [1, -1]], dtype=complex)  # sqrt(2) H: _HH halves its kron

#: H on both register qubits, every entry exactly +-1/2; prepares the equal
#: superposition.  One read-only array for every gate, built once.
_HH = np.kron(_H, _H) / 2
_HH.setflags(write=False)

MODES = ("protected", "unprotected")
ALGORITHMS = ("grover", "deutsch-jozsa")

BASIS_LABELS = ("00", "01", "10", "11")

#: Two-bit boolean functions satisfying the constant-or-balanced promise,
#: keyed by name; values are f over inputs (x1 x2) = 00, 01, 10, 11.  The CLI
#: runs const0; test_criterion_8_deutsch_jozsa runs them all.
DJ_FUNCTIONS = {
    "const0": (0, 0, 0, 0),
    "const1": (1, 1, 1, 1),
    "x1": (0, 0, 1, 1),
    "not_x1": (1, 1, 0, 0),
    "x2": (0, 1, 0, 1),
    "not_x2": (1, 0, 1, 0),
    "xor": (0, 1, 1, 0),
    "xnor": (1, 0, 0, 1),
}


@dataclass(frozen=True, eq=False)
class LogicalGate:
    label: str
    matrix: np.ndarray  # 4x4 unitary on the two-qubit register


@dataclass(frozen=True, eq=False)
class Gate:
    """A plan gate: logical 4x4 unitary plus its realized 16x16 action."""

    label: str
    logical: np.ndarray
    physical: np.ndarray


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    mode: str
    gates: tuple[Gate, ...]
    decoherence_points: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        pts = tuple(int(p) for p in self.decoherence_points)
        n = len(self.gates)
        if any(p < 0 or p > n for p in pts):
            raise ValueError(f"placement indices must lie in [0, {n}]")
        if list(pts) != sorted(pts):
            raise ValueError("placement indices must be sorted")
        object.__setattr__(self, "decoherence_points", pts)


def phase_flip(index: int) -> np.ndarray:
    """Diagonal unitary flipping the sign of one basis state."""
    m = np.eye(4, dtype=complex)
    m[index, index] = -1.0
    return m


def grover_gates(marked: str = "11") -> tuple[LogicalGate, ...]:
    """One-iteration Grover circuit for a four-item search, exact by construction.

    Sequence: equal superposition, oracle sign flip on the marked label, then
    the diffusion operator decomposed as H2 . flip(|00>) . H2.  Applied to
    |00> the composite yields the marked state up to a global phase.
    """
    if marked not in BASIS_LABELS:
        raise ValueError(f"marked label must be one of {BASIS_LABELS}, got {marked!r}")
    return (
        LogicalGate("superpose", _HH),
        LogicalGate(f"oracle:{marked}", phase_flip(int(marked, 2))),
        LogicalGate("diffuse:mix", _HH),
        LogicalGate("diffuse:flip00", phase_flip(0)),
        LogicalGate("diffuse:unmix", _HH),
    )


def dj_gates(function) -> tuple[LogicalGate, ...]:
    """Ancilla-free Deutsch-Jozsa: H2, phase oracle (-1)^f(x), H2.

    ``function`` is a DJ_FUNCTIONS name or a truth table over inputs 00, 01,
    10, 11, and must keep the constant-or-balanced promise.  The register
    returns to |00> exactly when f is constant.
    """
    if isinstance(function, str):
        try:
            table = DJ_FUNCTIONS[function]
        except KeyError:
            raise ValueError(f"unknown function name {function!r}") from None
    else:
        table = tuple(int(v) for v in function)
    if len(table) != 4 or any(v not in (0, 1) for v in table):
        raise ValueError("truth table must be 4 bits over inputs 00, 01, 10, 11")
    if sum(table) not in (0, 2, 4):
        raise ValueError("function violates the constant-or-balanced promise")
    oracle = np.diag([(-1.0) ** v for v in table]).astype(complex)
    name = next((k for k, v in DJ_FUNCTIONS.items() if v == table), "".join(map(str, table)))
    return (
        LogicalGate("superpose", _HH),
        LogicalGate(f"oracle:{name}", oracle),
        LogicalGate("unmix", _HH),
    )


def readout_gates() -> tuple[LogicalGate, ...]:
    """Two-pulse readout filter: tilt populations into the transverse plane, restore."""
    return (
        LogicalGate("readout:tilt", _HH),
        LogicalGate("readout:restore", _HH),
    )


def default_placement(n_gates: int) -> tuple[int, ...]:
    """After preparation, after every gate group, and once more before acquisition."""
    return tuple(range(n_gates + 1)) + (n_gates,)


def embed_on_spins_1_4(u: np.ndarray) -> np.ndarray:
    """Realize a two-qubit unitary on physical spins 1 and 4, identity on 2 and 3."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError("register unitary must be 4x4")
    if not is_unitary(u):
        raise ValueError("embed_on_spins_1_4 requires a unitary input")
    k = np.arange(DIM)
    reg = ((k >> 2) & 2) | (k & 1)  # register index: spin 1 high bit, spin 4 low bit
    same_spectators = (k[:, None] & 0b0110) == (k & 0b0110)  # spins 2, 3 unchanged
    return np.where(same_spectators, u[reg[:, None], reg], 0)


def assemble(
    mode: str,
    algorithm: str = "grover",
    *,
    marked: str = "11",
    function="const0",
    placement: tuple[int, ...] | None = None,
) -> ExperimentPlan:
    """Plan running the algorithm, then the readout filter, in ``mode``.

    Protected plans lift every logical gate onto the encoded register;
    unprotected plans run it directly on spins 1 and 4 (no error avoidance).
    The placement defaults to default_placement.  The CLI runs the defaults
    of ``marked`` (grover_gates) and ``function`` (dj_gates); the plans()
    strategy of test_properties.py runs every marked item and every promise
    table through the damage audit and the exact channel.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    realize = dfs.lift_logical_unitary if mode == "protected" else embed_on_spins_1_4
    circuit = grover_gates(marked) if algorithm == "grover" else dj_gates(function)
    logical = circuit + readout_gates()
    realized: dict[bytes, np.ndarray] = {}  # one read-only array per distinct logical matrix
    for g in logical:
        key = g.matrix.tobytes()
        if key not in realized:
            realized[key] = realize(g.matrix)
            realized[key].setflags(write=False)
    gates = tuple(Gate(g.label, g.matrix, realized[g.matrix.tobytes()]) for g in logical)
    return ExperimentPlan(
        mode=mode,
        gates=gates,
        decoherence_points=default_placement(len(gates)) if placement is None else tuple(placement),
    )


def ideal_boundary_deviations(plan: ExperimentPlan, initial: np.ndarray) -> list[np.ndarray]:
    """Noise-free deviation at every gate boundary 0..len(gates).

    ``initial`` is one state (16, 16) or a stack (k, 16, 16) of them; each
    boundary's entry has its shape.
    """
    rho = np.asarray(initial, dtype=complex)
    out = [rho]
    for gate in plan.gates:
        rho = gate.physical @ rho @ gate.physical.conj().T
        out.append(rho)
    return out


@dataclass(frozen=True)
class PointDamage:
    """Damage audit entry for one decoherence point."""

    point: int
    boundary: int
    state: str          # Pauli words of the deviation, joined with "+"
    damaging: tuple[bool, bool]  # whether XXII, IIXX would negate the deviation

    @property
    def hits(self) -> int:
        """How many of the two error operators would damage the deviation."""
        return sum(self.damaging)


@lru_cache(maxsize=1)
def _flip_anticommutes() -> np.ndarray:
    """Bool (256, 2): whether each basis word anticommutes with XXII, IIXX."""
    words, flips = pauli_basis_strings(), dfs.ERROR_BASIS[1:3]
    return np.array([[anticommutes(w, f) for f in flips] for w in words])


def _audit(plan: ExperimentPlan, initial: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(present, damaging): the Pauli words (..., points, 256) of the noise-free
    deviations of ``initial`` (as in damage_mask) at the noise points, and their
    flags (..., points, 2).

    One Pauli transform splits every deviation into words (coefficients above
    1e-10 times its norm), and each error operator (XXII then IIXX) is compared
    with every word.  A flip that anticommutes with all of them negates the
    deviation (damaging, one unit of n); one that commutes with all of them
    leaves it unchanged.  A mix means the deviation is not a flip eigenstate
    and the closed form (1-2e)^n does not apply; that is reported as an error,
    not guessed around.
    """
    points = plan.decoherence_points
    devs = np.stack(ideal_boundary_deviations(plan, initial), axis=-3)[..., list(points), :, :]
    norms = np.linalg.norm(devs, axis=(-2, -1))
    present = np.abs(_pauli_transform(devs)) > 1e-10 * norms[..., None]
    table = _flip_anticommutes()
    damaging = present @ table
    mixed = np.argwhere(damaging & (present @ ~table))
    if len(mixed):
        point = mixed[0, -2]
        raise ValueError(
            f"deviation at point {point} (boundary {points[point]}) is not a "
            "flip eigenstate; damage counting is undefined for this plan"
        )
    return present, damaging


def damage_audit(plan: ExperimentPlan, initial: np.ndarray) -> list[PointDamage]:
    """Each noise point's words and damage_mask(plan, initial) flags for one state
    ``initial`` (16, 16), as ``dfsim count-n`` prints them for each step."""
    present, damaging = _audit(plan, initial)
    words, points = [p.letters for p in pauli_basis_strings()], plan.decoherence_points
    return [
        PointDamage(point, boundary, "+".join(compress(words, row)), tuple(flags))
        for point, (boundary, row, flags) in enumerate(zip(points, present, damaging.tolist()))
    ]


def damage_mask(plan: ExperimentPlan, initial: np.ndarray) -> np.ndarray:
    """Boolean (points, 2): whether XXII / IIXX at that point negates the ideal deviation.

    ``initial`` is one state (16, 16), or a stack (k, 16, 16) evolved at once,
    giving (k, points, 2).  Every other flip leaves the deviation unchanged
    (_audit raises otherwise), so a shot's signal is (-1) to the number of its
    flips on true entries.
    """
    return _audit(plan, initial)[1]


def count_damaging_errors(plan: ExperimentPlan, initial: np.ndarray) -> int:
    """Total damage count n of ``initial`` (16, 16); its exact signal equals (1-2e)^n."""
    return int(damage_mask(plan, initial).sum())
