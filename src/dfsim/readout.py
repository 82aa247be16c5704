"""Temporal-averaging preparations and the relative signal-intensity metric.

Ensemble NMR observes only the traceless ("deviation") part of the density
matrix, and only certain Pauli products are directly preparable from thermal
equilibrium.  A computation on the encoded register therefore runs three
times, once from each preparable deviation, and the three outputs are summed;
adding the untouched identity/16 to the summed inputs reconstructs the full
|00> register state, so by linearity the summed outputs equal the output of
a single computation from |00>.

Signal intensity is modeled as the real Hilbert-Schmidt projection of a final
deviation onto the noiseless (e = 0) final deviation of the same experiment,
normalized so the noiseless run reads exactly 1.  Phase-inverted outputs give
negative intensities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import DEFAULT_TOL, DIM, PauliString, pauli_matrix


@dataclass(frozen=True, eq=False)
class PreparationStep:
    """One temporal-averaging input: a label and its diagonal Pauli deviation."""

    label: str
    deviation: np.ndarray


def _pauli_deviation(letters: str) -> np.ndarray:
    dev = pauli_matrix(PauliString(letters)) / DIM
    dev.flags.writeable = False
    return dev


def protected_steps() -> tuple[PreparationStep, ...]:
    """The three preparable deviations whose sum (plus I/16) is the encoded |00>."""
    return (
        PreparationStep("Z1Z2", _pauli_deviation("ZZII")),
        PreparationStep("Z3Z4", _pauli_deviation("IIZZ")),
        PreparationStep("Z1Z2Z3Z4", _pauli_deviation("ZZZZ")),
    )


def unprotected_steps() -> tuple[PreparationStep, ...]:
    """Pseudo-pure preparations for the bare two-qubit computer on spins 1 and 4.

    Summed with identity/16 these give |0><0| on spins 1 and 4 and a fully
    mixed state on the spectator spins 2 and 3.  Ordered so that step k pairs
    with the k-th protected step's result panel.
    """
    return (
        PreparationStep("Z1", _pauli_deviation("ZIII")),
        PreparationStep("Z1Z4", _pauli_deviation("ZIIZ")),
        PreparationStep("Z4", _pauli_deviation("IIIZ")),
    )


def steps_for_mode(mode: str) -> tuple[PreparationStep, ...]:
    if mode == "protected":
        return protected_steps()
    if mode == "unprotected":
        return unprotected_steps()
    raise ValueError(f"unknown mode {mode!r}")


def signal_intensity(final: np.ndarray, reference: np.ndarray) -> float | np.ndarray:
    """Signed intensity of ``final``, complex or real, relative to the noiseless ``reference``.

    Returns Re Tr(reference^dagger final) / Tr(reference^dagger reference);
    equals 1 when final == reference and -1 when the output is phase inverted.
    The last two axes are the matrix and the leading axes broadcast: one final
    gives a float, and finals (k, cells, 16, 16) against references[:, None]
    give (k, cells) signals, each against its row's nonzero reference.  Each
    entry's product is ref.real * final.real + ref.imag * final.imag; a real
    final reads as one whose imaginary parts are +0, so its second term is
    ref.imag * +0.0, taken once per reference (an infinite ref.imag still
    gives NaN), and no complex copy is made.
    Each sum of real products (ufuncs, no fused multiply-add) is reduced
    pairwise, in a fixed order, over C-contiguous products: the same bits
    alone or in a stack of any memory layout, real or complex, on any BLAS kernel.
    """
    ref = np.reshape(reference, np.shape(reference)[:-2] + (-1,))
    norm = np.add.reduce(ref.real * ref.real + ref.imag * ref.imag, axis=-1)
    if np.any(norm <= DEFAULT_TOL):
        raise ValueError("signal reference must be nonzero")
    final = np.asarray(final)
    stack = final.reshape(final.shape[:-2] + ref.shape[-1:])
    real, imag = (stack.real, stack.imag) if np.iscomplexobj(stack) else (stack, 0.0)
    # np.add.reduce is pairwise only along contiguous axes
    products = np.multiply(ref.real, real, order="C")
    products += ref.imag * imag
    signals = np.add.reduce(products, axis=-1) / norm
    return float(signals) if signals.ndim == 0 else signals


def theory_curve(n: int, e: float) -> float:
    """Predicted unprotected intensity (1 - 2e)^n after n damaging error chances."""
    if n < 0:
        raise ValueError("damage count must be nonnegative")
    if not 0.0 <= e <= 0.5:
        raise ValueError("error probability must lie in [0, 0.5]")
    return float((1.0 - 2.0 * e) ** n)
