import math

import numpy as np
import pytest

from dfsim import circuits, dfs, noise, qcore, readout
from dfsim.qcore import PauliString, pauli_matrix
from dfsim.readout import (
    protected_steps,
    signal_intensity,
    theory_curve,
    unprotected_steps,
)


def test_protected_steps_sum_to_encoded_00():
    total = np.eye(16, dtype=complex) / 16
    for step in protected_steps():
        total = total + step.deviation
    np.testing.assert_allclose(
        total, dfs.encode(np.array([1, 0, 0, 0], dtype=complex)), atol=1e-14
    )


def test_step_deviations_are_traceless_diagonal_hermitian():
    for step in protected_steps() + unprotected_steps():
        dev = step.deviation
        assert abs(np.trace(dev)) < 1e-14
        assert qcore.frobenius_norm(dev - dev.conj().T) <= 1e-12
        np.testing.assert_allclose(dev, np.diag(np.diag(dev)), atol=1e-14)


def test_protected_steps_are_channel_invariant():
    for step in protected_steps():
        for e in (0.1, 0.3, 0.5):
            out = noise.apply_channel(step.deviation, noise.engineered_model(e))
            np.testing.assert_allclose(out, step.deviation, atol=1e-14)


def test_unprotected_steps_sum_to_pseudo_pure_00():
    total = np.eye(16, dtype=complex) / 16
    for step in unprotected_steps():
        total = total + step.deviation
    # oracle: |0><0| on spins 1 and 4, fully mixed spins 2 and 3
    proj0 = np.array([[1, 0], [0, 0]], dtype=complex)
    half = np.eye(2, dtype=complex) / 2
    expected = np.kron(np.kron(np.kron(proj0, half), half), proj0)
    np.testing.assert_allclose(total, expected, atol=1e-14)


def test_unprotected_step_labels_and_order():
    assert tuple(s.label for s in unprotected_steps()) == ("Z1", "Z1Z4", "Z4")
    assert tuple(s.label for s in protected_steps()) == ("Z1Z2", "Z3Z4", "Z1Z2Z3Z4")


def test_unprotected_z1_scales_under_one_point():
    z1 = unprotected_steps()[0].deviation
    for e in (0.2, 0.5):
        out = noise.apply_channel(z1, noise.engineered_model(e))
        np.testing.assert_allclose(out, (1 - 2 * e) * z1, atol=1e-14)


def test_signal_intensity_reference_conventions():
    ref = pauli_matrix(PauliString("ZIII")) / 16
    assert signal_intensity(ref, ref) == pytest.approx(1.0)
    assert signal_intensity(-ref, ref) == pytest.approx(-1.0)
    assert signal_intensity(0.25 * ref, ref) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        signal_intensity(ref, np.zeros((16, 16)))


def _overlap_ratio(final, reference):
    """Re Tr(reference^dagger final) / Tr(reference^dagger reference), one final at a
    time: math.fsum of the real products rounds their sum once, in no BLAS order."""
    ref, out = np.ravel(reference), np.ravel(final)
    overlap = math.fsum(np.concatenate([ref.real * out.real, ref.imag * out.imag]).tolist())
    norm = math.fsum(np.concatenate([ref.real * ref.real, ref.imag * ref.imag]).tolist())
    return overlap / norm


def _within_one_rounding(signals, finals, reference):
    expected = [_overlap_ratio(final, reference) for final in finals]
    return signals == pytest.approx(expected, rel=2**-52, abs=0)


def test_signal_intensity_of_a_stack_equals_each_final_alone():
    plan = circuits.assemble("unprotected", "grover")
    prep = unprotected_steps()[1].deviation
    reference = noise.run_plan_exact(plan, 0.0, prep)
    grid = [0.0, 0.1, 0.25, 0.5, 0.3, 0.2]
    finals = noise.run_plan_exact(plan, grid, prep).reshape(2, 3, 16, 16)
    signals = signal_intensity(finals, reference)
    assert isinstance(signals, np.ndarray) and signals.shape == (2, 3)
    for row, finals_row in zip(signals.tolist(), finals):
        assert _within_one_rounding(row, finals_row, reference)
        assert row == [signal_intensity(final, reference) for final in finals_row]  # bitwise
    assert signal_intensity(finals[:0, 0], reference).shape == (0,)
    # the same values with the rows innermost in memory: a reduction along a
    # strided axis is not pairwise, and moved 13 of these 21 signals one ulp
    steps = unprotected_steps()
    plan = circuits.assemble("unprotected", "deutsch-jozsa")
    initial = np.stack([step.deviation for step in steps])
    finals = noise.run_plan_exact(plan, [k / 1024 for k in range(21)], initial)
    references = noise.run_plan_exact(plan, 0.0, initial)
    strided = np.ascontiguousarray(finals.reshape(-1, 256).T).T.reshape(finals.shape)
    assert not strided.flags.c_contiguous and (strided == finals).all()
    signals = signal_intensity(finals[1], references[1])
    assert signal_intensity(strided[1], references[1]).tobytes() == signals.tobytes()
    assert signals.tolist() == [signal_intensity(final, references[1]) for final in finals[1]]
    # a stack of references broadcasts against the finals' leading axes: each
    # step's row against its own reference, of any finals layout, bit for bit
    stacked = signal_intensity(finals, references[:, None])
    assert stacked.shape == (3, 21)
    for row, step_finals, reference in zip(stacked, finals, references):
        assert row.tobytes() == signal_intensity(step_finals, reference).tobytes()
    assert signal_intensity(strided, references[:, None]).tobytes() == stacked.tobytes()
    for zeroed in range(3):
        refs = references.copy()
        refs[zeroed] = 0.0
        with pytest.raises(ValueError, match="signal reference must be nonzero"):
            signal_intensity(finals, refs[:, None])
    # a 4x4 reference takes a stack of 4x4 finals
    prep = protected_steps()[0].deviation
    finals = noise.run_plan_exact(circuits.assemble("protected"), [0.0, 0.3], prep)
    decoded = np.stack([dfs.decode(final) for final in finals])
    together = signal_intensity(decoded, decoded[0]).tolist()
    assert _within_one_rounding(together, decoded, decoded[0])
    assert together == [signal_intensity(d, decoded[0]) for d in decoded]


@pytest.mark.parametrize("placement", [None, (1, 2)], ids=["default", "ends-in-a-gate"])
@pytest.mark.parametrize("mode", circuits.MODES)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_signal_of_real_rows_equals_the_complex_finals_to_the_bit(algorithm, mode, placement):
    # run reads noise._exact_rows' float64 rows, a strided view; each signal
    # must be the bits of the complex finals' signal, whose imaginary parts are
    # +0, and of the complex formula itself, also against references whose
    # imaginary parts are -0 (then ref.imag * +0.0 is -0), at e = 0 and 0.5 too
    steps = readout.steps_for_mode(mode)
    plan = circuits.assemble(mode, algorithm, placement=placement)
    preps = np.stack([step.deviation for step in steps])
    grid = (0.0, 1 / 1024, 0.125, 0.25, 0.375, 0.5)
    rows = noise._exact_rows(plan, grid, preps)
    finals = noise.run_plan_exact(plan, grid, preps)
    assert rows.dtype == np.float64 and not rows.flags.c_contiguous
    assert rows.tobytes() == finals.real.tobytes()
    references = noise.run_plan_exact(plan, 0.0, preps)
    negative = references.copy()
    negative.imag = -0.0
    for refs in (references[:, None], negative[:, None]):
        signals = signal_intensity(rows, refs)
        assert signals.tobytes() == signal_intensity(finals, refs).tobytes()
        ref, stack = refs.reshape(3, 1, 256), finals.reshape(3, len(grid), 256)
        norm = np.add.reduce(ref.real * ref.real + ref.imag * ref.imag, axis=-1)
        formula = np.add.reduce(ref.real * stack.real + ref.imag * stack.imag, axis=-1) / norm
        assert signals.tobytes() == formula.tobytes()
    # the imaginary term of a real final is ref.imag * +0.0, not left out: an
    # infinite imaginary part of the reference makes the signal NaN either way
    reference = np.array(references[0])
    reference[0, 0] += complex(0.0, np.inf)
    with np.errstate(invalid="ignore"):  # inf * 0
        assert np.isnan(signal_intensity(rows[0, 0], reference))
        assert np.isnan(signal_intensity(finals[0, 0], reference))


def test_signal_matches_closed_form_at_quarter():
    plan = circuits.assemble("unprotected", "grover")
    prep = unprotected_steps()[1].deviation
    reference = noise.run_plan_exact(plan, 0.0, prep)
    signal = signal_intensity(noise.run_plan_exact(plan, 0.25, prep), reference)
    assert signal == pytest.approx(0.5**12, abs=1e-12)
    assert signal == pytest.approx(2.44140625e-4, abs=1e-12)


def test_theory_curve_values():
    assert theory_curve(6, 0.0) == 1.0
    assert theory_curve(6, 0.5) == 0.0
    assert theory_curve(0, 0.37) == 1.0
    # oracle: repeated multiplication
    acc = 1.0
    for _ in range(12):
        acc *= 0.8
    assert theory_curve(12, 0.1) == pytest.approx(acc)
    assert theory_curve(12, 0.1) == pytest.approx(0.0687, abs=5e-5)


def test_theory_curve_validation():
    with pytest.raises(ValueError):
        theory_curve(-1, 0.1)
    with pytest.raises(ValueError):
        theory_curve(6, 0.6)


def test_temporal_averaging_is_linear_through_evolution():
    for mode in ("protected", "unprotected"):
        steps = readout.steps_for_mode(mode)
        plan = circuits.assemble(mode, "grover")
        for e in (0.0, 0.1875, 0.5):
            total = sum(noise.run_plan_exact(plan, e, initial=s.deviation) for s in steps)
            combined = sum(s.deviation for s in steps)
            together = noise.run_plan_exact(plan, e, initial=combined)
            assert qcore.frobenius_norm(total - together) < 1e-12


def test_protected_signal_is_flat():
    for step in protected_steps():
        plan = circuits.assemble("protected", "grover")
        reference = noise.run_plan_exact(plan, 0.0, step.deviation)
        for e in np.arange(0.0, 0.501, 0.0625):
            signal = signal_intensity(noise.run_plan_exact(plan, e, step.deviation), reference)
            assert signal == pytest.approx(1.0, abs=1e-10)


def test_unprotected_signal_negligible_from_03_up():
    for step in unprotected_steps():
        plan = circuits.assemble("unprotected", "grover")
        reference = noise.run_plan_exact(plan, 0.0, step.deviation)
        for e in (0.3, 0.3125, 0.375, 0.4375, 0.5):
            signal = signal_intensity(noise.run_plan_exact(plan, e, step.deviation), reference)
            assert abs(signal) < 0.01
