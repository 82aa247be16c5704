"""dfsim: exact simulator for decoherence-free two-logical-qubit computation.

Two logical qubits are stored across four physical qubits inside the four
simultaneous eigenspaces of the paired-flip operators XXII and IIXX.  The
encoded computer runs Grover's search (or the refined Deutsch-Jozsa test)
unharmed under arbitrarily strong engineered paired-flip noise, while a bare
two-qubit control computer decays as (1 - 2e)^n.
"""

from .qcore import (
    DEFAULT_TOL,
    DIM,
    PauliString,
    anticommutes,
    pauli_decompose,
    pauli_matrix,
)
from .dfs import (
    DfsBasis,
    decode,
    dfs_basis,
    encode,
    lift_logical_unitary,
)
from .noise import (
    ErrorModelSpec,
    apply_channel,
    draw_flips,
    engineered_model,
    run_plan_exact,
    verify_error_model,
)
from .circuits import (
    ExperimentPlan,
    assemble,
    count_damaging_errors,
    dj_gates,
    grover_gates,
)
from .readout import (
    PreparationStep,
    protected_steps,
    signal_intensity,
    theory_curve,
    unprotected_steps,
)
from .harness import SweepConfig, SignalResult, run_sweep, verify

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "DIM",
    "PauliString",
    "anticommutes",
    "pauli_decompose",
    "pauli_matrix",
    "DfsBasis",
    "decode",
    "dfs_basis",
    "encode",
    "lift_logical_unitary",
    "ErrorModelSpec",
    "apply_channel",
    "draw_flips",
    "engineered_model",
    "run_plan_exact",
    "verify_error_model",
    "ExperimentPlan",
    "assemble",
    "count_damaging_errors",
    "dj_gates",
    "grover_gates",
    "PreparationStep",
    "protected_steps",
    "signal_intensity",
    "theory_curve",
    "unprotected_steps",
    "SweepConfig",
    "SignalResult",
    "run_sweep",
    "verify",
    "__version__",
]
