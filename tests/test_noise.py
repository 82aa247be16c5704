import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from dfsim import circuits, dfs, harness, noise, qcore, readout
from dfsim.noise import (
    ErrorModelSpec,
    apply_channel,
    draw_flips,
    engineered_model,
    monte_carlo_finals,
    monte_carlo_states,
    run_plan_exact,
    verify_error_model,
)
from dfsim.qcore import PauliString, pauli_matrix


def random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def test_engineered_channel_at_zero_is_identity_map():
    ch = engineered_model(0.0)
    assert ch.coefficients.shape == (1, 4) and len(ch.operators) == 1
    np.testing.assert_array_equal(ch.operators[0], np.eye(16))
    rho = pauli_matrix(PauliString("ZIII")) / 16
    np.testing.assert_array_equal(apply_channel(rho, ch), rho)


def test_engineered_channel_at_half_has_equal_coefficients():
    ch = engineered_model(0.5)
    words = ("IIII", "XXII", "IIXX", "XXXX")
    assert len(ch.operators) == 4
    for op, word in zip(ch.operators, words):
        np.testing.assert_allclose(op, 0.5 * pauli_matrix(PauliString(word)), atol=1e-15)


def test_engineered_channel_completeness():
    for e in (0.1, 0.3, 0.5):
        assert engineered_model(e).completeness_defect < 1e-15


def test_engineered_channel_rejects_out_of_range():
    for bad in (-0.1, 0.51, 1.0):
        with pytest.raises(ValueError):
            engineered_model(bad)


def test_apply_channel_fixes_encoded_00():
    rho = dfs.encode(np.array([1, 0, 0, 0], dtype=complex))
    for e in (0.1, 0.25, 0.5):
        np.testing.assert_allclose(apply_channel(rho, engineered_model(e)), rho, atol=1e-14)


def test_apply_channel_scales_z1_by_1_minus_2e():
    z1 = pauli_matrix(PauliString("ZIII")) / 16

    def flipped(word):
        flip = pauli_matrix(PauliString(word))
        return flip @ z1 @ flip.conj().T

    for e in (0.1, 0.25, 0.4):
        # oracle: conjugate branch by branch with the protocol's flip pattern
        expected = (
            (1 - e) ** 2 * z1
            + e * (1 - e) * flipped("XXII")
            + e * (1 - e) * flipped("IIXX")
            + e**2 * flipped("XXXX")
        )
        out = apply_channel(z1, engineered_model(e))
        np.testing.assert_allclose(out, expected, atol=1e-14)
        np.testing.assert_allclose(out, (1 - 2 * e) * z1, atol=1e-14)


def test_apply_channel_leaves_z1z2_unchanged():
    z1z2 = pauli_matrix(PauliString("ZZII")) / 16
    for e in (0.1, 0.5):
        np.testing.assert_allclose(apply_channel(z1z2, engineered_model(e)), z1z2, atol=1e-14)


def test_channel_operators_are_read_only_copies():
    # operators and defect are cached, so the coefficients must not change under them
    a = np.array([[0.5, 0, 0, 0]], dtype=complex)
    spec = ErrorModelSpec(coefficients=a)
    a[0, 0] = 1.0  # the caller's array, not the spec's
    with pytest.raises(ValueError):
        spec.coefficients[0, 0] = 1.0
    with pytest.raises(ValueError):
        spec.operators[0][0, 0] = 1.0
    # ||(0.25 - 1) I||_F over 16 dimensions
    assert spec.completeness_defect == pytest.approx(3.0, abs=1e-15)


def test_apply_channel_rejects_incomplete():
    bad = ErrorModelSpec(coefficients=np.array([[0.5, 0, 0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        apply_channel(np.eye(16, dtype=complex) / 16, bad)


def test_every_trace_preservation_guard_rejects_a_nan_defect(monkeypatch):
    # NaN > tol is False: each guard must raise unless the defect is <= tol
    nan = ErrorModelSpec(coefficients=[[np.nan, 0, 0, 0]])
    assert np.isnan(nan.completeness_defect)
    with pytest.raises(ValueError, match="channel is not trace preserving"):
        apply_channel(np.eye(16, dtype=complex) / 16, nan)
    with pytest.raises(ValueError, match="error model is not trace preserving"):
        verify_error_model(nan)
    # a validated e cannot be NaN, so the exact path's coefficients are made so
    coefficients = noise._engineered_coefficients

    def with_nan_xxxx(e):
        a = coefficients(e)
        a[3] = np.nan
        return a

    monkeypatch.setattr(noise, "_engineered_coefficients", with_nan_xxxx)
    prep = readout.protected_steps()[0].deviation
    with pytest.raises(ValueError, match="channel is not trace preserving"):
        run_plan_exact(circuits.assemble("protected"), [0.0, 0.25], prep)


def test_channel_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    ch = engineered_model(0.3)
    for _ in range(100):
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = (m + m.conj().T) / 2
        out = apply_channel(rho, ch)
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12
        assert qcore.frobenius_norm(out - out.conj().T) <= 1e-12


def test_dfs_immunity_across_grid():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = dfs.encode(random_state(rng))
        for e in np.arange(0.0, 0.501, 0.05):
            out = apply_channel(rho, engineered_model(e))
            assert qcore.frobenius_norm(out - rho) < 1e-12


def test_nine_bare_channel_points_give_ninth_power():
    z1 = pauli_matrix(PauliString("ZIII")) / 16
    for e in (0.1, 0.25):
        ch = engineered_model(e)
        rho = z1.copy()
        for _ in range(9):
            rho = apply_channel(rho, ch)
        np.testing.assert_allclose(rho, (1 - 2 * e) ** 9 * z1, atol=1e-13)


def _per_e_exact(plan, e, initial):
    """The reference evolution of ``initial``: apply_channel(rho, engineered_model(e))
    at each noise point and u rho u^dagger at each gate, one e at a time."""
    model = engineered_model(e)
    rho = np.array(initial, dtype=complex)
    points = plan.decoherence_points
    idx = 0
    for boundary in range(len(plan.gates) + 1):
        while idx < len(points) and points[idx] == boundary:
            rho = apply_channel(rho, model)
            idx += 1
        if boundary < len(plan.gates):
            u = plan.gates[boundary].physical
            rho = u @ rho @ u.conj().T
    return rho


#: e = 0 keeps only E0, so zeros are mixed with e > 0 inside one block.
MIXED_E_GRID = (0.0, 1 / 1024, 0.25, 0.0, 0.5)


@pytest.mark.parametrize("step", range(3))
@pytest.mark.parametrize("mode", circuits.MODES)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_grid_evolution_equals_per_e_kraus_sum_to_the_bit(algorithm, mode, step):
    steps = readout.steps_for_mode(mode)
    plan = circuits.assemble(mode, algorithm)
    summed = np.eye(16, dtype=complex) / 16 + sum(s.deviation for s in steps)
    for initial in (steps[step].deviation, summed):
        finals = run_plan_exact(plan, MIXED_E_GRID, initial=initial)
        assert finals.shape == (len(MIXED_E_GRID), 16, 16)
        for e, final in zip(MIXED_E_GRID, finals):
            # tobytes: signs of zeros count too
            assert final.tobytes() == _per_e_exact(plan, e, initial).tobytes()
            assert run_plan_exact(plan, e, initial=initial).tobytes() == final.tobytes()


def _assert_no_negative_zero(plan, initial):
    """run_plan_exact's finals of ``initial`` equal the apply_channel walk to the bit
    and, as apply_channel sums from +0, hold no -0."""
    finals = run_plan_exact(plan, MIXED_E_GRID, initial)
    for state, row in zip(initial, finals):
        for e, final in zip(MIXED_E_GRID, row):
            assert final.tobytes() == _per_e_exact(plan, e, state).tobytes()
    parts = finals.view(float)
    assert not np.signbit(parts[parts == 0.0]).any()


def test_grid_evolution_leaves_no_negative_zero():
    # apply_channel sums from +0, so no entry of its output is -0; a plan
    # without gates hands the channel's output back as it is
    step = readout.unprotected_steps()[0]
    plan = circuits.ExperimentPlan("unprotected", (), (0, 0))
    _assert_no_negative_zero(plan, np.stack([-np.zeros((16, 16), dtype=complex), -step.deviation]))


@pytest.mark.parametrize("mode", circuits.MODES)
def test_grid_evolution_ending_in_a_gate_leaves_no_negative_zero(mode):
    # -0 off the live entries of the initial states, a noise point first, two
    # in a row and gates after the last: a noise point writes only the classes
    # it touches, so it must find +0 on the rest, from the start, after a
    # noise point and after a gate's sums of zero products
    step = readout.steps_for_mode(mode)[0]
    plan = circuits.assemble(mode, placement=(0, 0, 2))
    initial = np.stack([-np.zeros((16, 16), dtype=complex), -step.deviation])
    assert np.signbit(initial.real[1][initial.real[1] == 0.0]).all()
    _assert_no_negative_zero(plan, initial)


def test_schedule_is_keyed_by_each_distinct_gate_array_once(monkeypatch):
    # protected and unprotected Grover share their gate labels and noise
    # points, so only the gate bytes tell their schedules apart; Grover's 7
    # gates hold 3 distinct arrays, whose bytes the key holds once each
    seen = []
    schedule = noise._schedule

    def spy(points, gates, matrices, pattern):
        seen.append((gates, matrices))
        return schedule(points, gates, matrices, pattern)

    monkeypatch.setattr(noise, "_schedule", spy)
    dense = np.random.default_rng(3).normal(size=(16, 16))
    plans = [circuits.assemble(mode) for mode in circuits.MODES]
    assert [g.label for g in plans[0].gates] == [g.label for g in plans[1].gates]
    for plan in plans:
        final = run_plan_exact(plan, 0.25, dense)
        assert final.tobytes() == _per_e_exact(plan, 0.25, dense).tobytes()
    for plan, (gates, matrices) in zip(plans, seen):
        assert len(gates) == 7 and len(matrices) == 3
        for gate, (label, index) in zip(plan.gates, gates):
            assert label == gate.label and matrices[index] == gate.physical.tobytes()


def test_word_permutations_are_reversals():
    # on a flat entry index f, XXII is f ^ 0xCC, IIXX is f ^ 0x33 =
    # (f ^ 0xCC) ^ 0xFF, the XXII gather reversed, and XXXX is f ^ 0xFF =
    # 255 - f, the reversal
    perms = noise._FLIP_PERMS  # IIII, XXII, IIXX and XXXX
    flat = np.arange(256)
    assert (perms[1] == flat ^ 0xCC).all()
    assert (perms[2] == perms[1][::-1]).all()
    assert (perms[3] == flat[::-1]).all()
    assert (perms[0] == flat).all() and (perms[3] == perms[1][perms[2]]).all()
    # run_plan_exact gathers each class x = i ^ j of entry-major rows as
    # (classes, 4, 4, rows) and reads each word's term through reversed
    # axes; each equals the gather the dense oracle's _FLIP_PERMS still takes
    entries = noise._CLASS_ENTRIES.ravel()
    assert sorted(entries) == list(flat)
    assert ((entries >> 4) ^ (entries & 15) == np.repeat(np.arange(16), 16)).all()
    flips = (np.s_[:, :, :], np.s_[:, ::-1], np.s_[:, :, ::-1], np.s_[:, ::-1, ::-1])
    for rows in (1, 3, 5):
        columns = np.random.default_rng(rows).normal(size=(256, rows))
        kept = columns[entries].reshape(16, 4, 4, rows)
        for perm, flip in zip(perms, flips):
            assert kept[flip].reshape(256, rows).tobytes() == columns[perm[entries]].tobytes()


#: Noise placements of which all but () put a gate after the last noise point.
PLACEMENTS = ((1, 2), (0,), (), (3,), (0, 2, 4), (0, 0, 1))


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("mode", circuits.MODES)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_grid_evolution_past_the_last_noise_point_equals_kraus_sum_to_the_bit(
    algorithm, mode, placement
):
    # tobytes after a final gate checks the imaginary zeros' signs too
    steps = readout.steps_for_mode(mode)
    plan = circuits.assemble(mode, algorithm, placement=placement)
    summed = np.eye(16, dtype=complex) / 16 + sum(s.deviation for s in steps)
    for initial in (steps[0].deviation, summed):
        finals = run_plan_exact(plan, MIXED_E_GRID, initial=initial)
        for e, final in zip(MIXED_E_GRID, finals):
            assert final.tobytes() == _per_e_exact(plan, e, initial).tobytes()


def test_grid_evolution_rejects_non_real_input():
    step = readout.unprotected_steps()[0]
    s_gate = np.diag([1, 1j, 1, 1j])  # S on the second register qubit
    gate = circuits.Gate("s", s_gate, circuits.embed_on_spins_1_4(s_gate))
    plan = circuits.ExperimentPlan("unprotected", (gate,), (0, 1))
    with pytest.raises(ValueError, match="plan gate 's' must be real"):
        run_plan_exact(plan, 0.25, step.deviation)
    plan = circuits.assemble("unprotected")
    with pytest.raises(ValueError, match="initial must be real"):
        run_plan_exact(plan, 0.25, step.deviation + 1e-3j * np.eye(16))
    negative_zero = np.array(step.deviation, dtype=complex)
    negative_zero.imag = -0.0  # equal to 0, so the state is real
    finals = run_plan_exact(plan, 0.25, negative_zero)
    assert finals.tobytes() == run_plan_exact(plan, 0.25, step.deviation).tobytes()


def _rotated_plan(mode):
    """The mode's Grover plan with a real rotation by 0.3 on spin 1 after its
    second gate: a gate that is not Clifford, so no class stays zero by a Pauli
    argument, and whose products and sums round."""
    c, s = np.cos(0.3), np.sin(0.3)
    rotation = np.kron([[c, -s], [s, c]], np.eye(2))
    gate = circuits.Gate("rotate", rotation, circuits.embed_on_spins_1_4(rotation))
    gates = circuits.assemble(mode, "grover").gates
    gates = gates[:2] + (gate,) + gates[2:]
    return circuits.ExperimentPlan(mode, gates, circuits.default_placement(len(gates)))


@pytest.mark.parametrize("mode", circuits.MODES)
def test_grid_evolution_of_dense_states_equals_per_e_kraus_sum_to_the_bit(mode):
    # every entry of a random real stack is nonzero, so all 16 classes are
    # live at the first noise point; the zeros' signs are compared too
    dense = np.random.default_rng(7).normal(size=(3, 16, 16))
    assert (dense != 0).all()
    for plan in (circuits.assemble(mode, "grover"), _rotated_plan(mode)):
        finals = run_plan_exact(plan, MIXED_E_GRID, dense)
        for state, row in zip(dense, finals):
            for e, final in zip(MIXED_E_GRID, row):
                assert final.tobytes() == _per_e_exact(plan, e, state).tobytes()


#: Up to seven e values, 0 and 0.5 first, 0 twice: the small-stack walks take the first 1 to 7.
SMALL_E_GRID = (0.0, 0.5, 1 / 1024, 0.25, 0.0, 0.125, 0.3)


@pytest.mark.parametrize("states", [1, 2, 3, 5])
@pytest.mark.parametrize("mode", circuits.MODES)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_small_stacks_equal_the_apply_channel_walk_to_the_bit(algorithm, mode, states):
    # OpenBLAS sums a 16 x 16 by 16 x (16 rows) product's k terms in order,
    # but the Haswell kernels not always a 16 x few one's (few <= 4): stacks
    # of 1 to 35 rows, the mode's own states and a random real stack, walked
    # as one batch and in batches of one e value, each row to the bit of the
    # state's own apply_channel walk
    plan = circuits.assemble(mode, algorithm)
    steps = [step.deviation for step in readout.steps_for_mode(mode)]
    identity = np.eye(16) / 16
    ours = np.stack([sum(steps, identity), identity, *steps][:states])
    dense = np.random.default_rng(states).normal(size=(states, 16, 16))
    for stack in (ours, dense):
        alone = {(i, e): _per_e_exact(plan, e, state).tobytes()
                 for i, state in enumerate(stack) for e in set(SMALL_E_GRID)}
        for n in range(1, len(SMALL_E_GRID) + 1):
            grid = SMALL_E_GRID[:n]
            whole = noise._exact_rows(plan, grid, stack)
            batched = np.concatenate(list(noise._exact_batches(plan, grid, stack, 1)), axis=1)
            for rows in (whole, batched):
                assert rows.shape == (states, n, 16, 16)
                for i, row in enumerate(rows):
                    for e, final in zip(grid, row):
                        assert final.astype(complex).tobytes() == alone[i, e]


def test_a_noise_point_evolves_only_the_classes_that_hold_a_byte(monkeypatch):
    # after the first noise point each Deutsch-Jozsa point schedules 4
    # classes, and the rows hold a byte in 1 or 3 of them.  A class of +0
    # alone is left as it is; a -0 is a byte held, so a class of -0 alone,
    # set here at the last point (after the last gate), is evolved and comes
    # out +0, as the apply_channel walk's sums from +0 leave it
    plan = circuits.assemble("unprotected", "deutsch-jozsa")
    stack = np.stack([step.deviation for step in readout.unprotected_steps()])
    held, last, real = [], len(plan.decoherence_points) - 1, noise._held

    def spy(plane, entries):
        words = plane.view(np.uint64)
        if len(held) == last:
            plane[next(c for c in entries if not words[c].any())] = -0.0
        kept = real(plane, entries)
        assert {int(c.flat[0]) for c in kept} == {int(c.flat[0]) for c in entries if words[c].any()}
        held.append((len(entries), len(kept)))
        return kept

    monkeypatch.setattr(noise, "_held", spy)
    finals = noise._exact_rows(plan, MIXED_E_GRID, stack)
    assert held == [(1, 1), (4, 3), (4, 3), (4, 1), (4, 3), (4, 1), (4, 2)]
    assert not np.signbit(finals[finals == 0.0]).any()
    for state, row in zip(stack, finals):
        for e, final in zip(MIXED_E_GRID, row):
            assert final.astype(complex).tobytes() == _per_e_exact(plan, e, state).tobytes()


@pytest.mark.parametrize("mode", circuits.MODES)
def test_grid_evolution_through_a_non_clifford_gate_equals_per_e_kraus_sum_to_the_bit(mode):
    # the classes a noise point keeps come from the gates' nonzero patterns,
    # not from the gates being Clifford
    plan = _rotated_plan(mode)
    steps = readout.steps_for_mode(mode)
    stack = np.stack([step.deviation for step in steps])
    finals = run_plan_exact(plan, MIXED_E_GRID, stack)
    for state, row in zip(stack, finals):
        for e, final in zip(MIXED_E_GRID, row):
            assert final.tobytes() == _per_e_exact(plan, e, state).tobytes()


def test_grid_evolution_rejects_non_finite_input():
    # NaN * 0 is NaN, so a non-finite entry could reach entries that the
    # nonzero pattern holds at +-0
    plan = circuits.assemble("unprotected")
    step = readout.unprotected_steps()[0]
    for bad in (np.nan, np.inf, -np.inf):
        initial = np.array(step.deviation)
        initial[3, 5] = bad
        with pytest.raises(ValueError, match="initial must be real and finite"):
            run_plan_exact(plan, 0.25, initial)
    physical = np.array(plan.gates[0].physical)
    physical[0, 0] = np.nan
    gate = circuits.Gate("nan", plan.gates[0].logical, physical)
    with pytest.raises(ValueError, match="plan gate 'nan' must be real and finite"):
        run_plan_exact(circuits.ExperimentPlan("unprotected", (gate,), (0, 1)), 0.25, step.deviation)


def test_grid_evolution_peaks_near_the_size_of_its_result():
    # two real (256, rows) planes, half the result's bytes each, and a noise
    # point's terms of its live classes (4 of 16 here, so three quarter
    # planes); the work plane and the terms are freed before the complex
    # result is made, so the peak is about 1.5 times the result
    plan = circuits.assemble("unprotected")
    stack = np.stack([s.deviation for s in readout.unprotected_steps()])
    grid = np.linspace(0.0, 0.5, 513)
    run_plan_exact(plan, grid[:2], stack)  # warm-up
    tracemalloc.start()
    try:
        finals = run_plan_exact(plan, grid, stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * finals.nbytes


def test_grid_evolution_shapes():
    # the rows are evolved as columns and copied out transposed; readers that
    # reduce over a final's entries rely on the result being C-contiguous
    plan = circuits.assemble("unprotected")
    prep = readout.unprotected_steps()[0].deviation
    stack = np.stack([s.deviation for s in readout.unprotected_steps()])
    for e, initial, shape in (
        (0.25, prep, (16, 16)),
        (np.float64(0.25), prep, (16, 16)),
        ([0.25], prep, (1, 16, 16)),
        ([0.25, 0.5], prep, (2, 16, 16)),
        ((), prep, (0, 16, 16)),
        (0.25, stack, (3, 16, 16)),
        ([0.25, 0.5], stack, (3, 2, 16, 16)),
        ((), stack, (3, 0, 16, 16)),
    ):
        finals = run_plan_exact(plan, e, initial)
        assert finals.shape == shape and finals.flags.c_contiguous
    for bad in (np.eye(4), stack[None], np.zeros(16)):
        with pytest.raises(ValueError, match="initial must have shape"):
            run_plan_exact(plan, 0.25, bad)


def test_grid_evolution_rejects_any_out_of_range_e():
    plan = circuits.assemble("unprotected")
    prep = readout.unprotected_steps()[0].deviation
    for bad in (0.51, -0.1, float("nan")):
        with pytest.raises(ValueError, match="must lie in"):
            run_plan_exact(plan, (0.0, 0.25, bad, 0.5), prep)


def test_sample_shot_zero_probability_is_all_false():
    flips = draw_flips(0.0, 123, 64, 9)
    assert flips.shape == (64, 9, 2) and flips.dtype == bool
    assert not flips.any()


def test_sample_shot_rejects_probability_above_half():
    with pytest.raises(ValueError):
        draw_flips(1.0, 0, 1, 9)


def test_draw_flips_rejects_negative_sizes():
    for shots, points, first in ((-1, 9, 0), (1, -1, 0), (1, 9, -1)):
        with pytest.raises(ValueError):
            draw_flips(0.25, 0, shots, points, first=first)


def test_sample_shot_empirical_frequency_at_half():
    # binomial: 3 sigma = 3 * sqrt(0.25 / 2048)
    shots = 2048
    freq = draw_flips(0.5, 99, shots, 9).mean(axis=0)
    assert np.abs(freq - 0.5).max() < 3 * np.sqrt(0.25 / shots)


def test_draw_flips_first_recomputes_any_shot_range():
    # shot k starts at word 2*points*k of the stream; Philox advances in
    # blocks of 4 words, so odd k with points = 9 or 1 start inside a block
    for points in (9, 1, 2):
        full = draw_flips(0.3, 17, 40, points)
        for k in (0, 1, 2, 3, 5, 6, 13, 39):
            np.testing.assert_array_equal(draw_flips(0.3, 17, 40 - k, points, first=k), full[k:])
            np.testing.assert_array_equal(draw_flips(0.3, 17, 1, points, first=k), full[k : k + 1])


def _fresh_philox_draw(e, seed, shots, points, first):
    """Flips drawn from a Philox built for this one cell, keyed by seed and
    advanced to shot ``first``."""
    offset = first * 2 * points
    bit_generator = np.random.Philox(key=seed)
    bit_generator.advance(offset // 4)
    bit_generator.random_raw(offset % 4)
    return np.random.Generator(bit_generator).random((shots, points, 2)) < e


@pytest.mark.parametrize("points", [7, 9])
def test_draw_flips_equals_a_fresh_philox_per_cell(points, monkeypatch):
    # 2*points*first is not a multiple of 4 for odd first, so the re-keyed
    # state must skip words inside the counter's first block.  No word lies
    # below the threshold 0 of an e = 0 cell, so those cells draw none
    e = (0.0, 0.1, 0.0, 0.25, 0.0, 0.5, 0.0)
    seeds = (0, 17, 3, 2**63 + 5, 2**40, 2**64 - 1, 2**64 - 2)
    references = [
        [_fresh_philox_draw(x, s, 5, points, first) for x, s in zip(e, seeds)] for first in range(10)
    ]
    drawn = []

    class KeySpy(np.random.Philox):
        def random_raw(self, size=None, output=True):
            low, high = self.state["state"]["key"].tolist()
            drawn.append(low | high << 64)
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "Philox", KeySpy)
    for first, reference in enumerate(references):
        drawn.clear()
        batch = draw_flips(e, np.array(seeds, dtype=np.uint64), 5, points, first=first)
        np.testing.assert_array_equal(batch, np.array(reference))
        assert set(drawn) == {s for x, s in zip(e, seeds) if x > 0}
        for x, s, ref in zip(e, seeds, reference):
            drawn.clear()
            np.testing.assert_array_equal(draw_flips(x, s, 5, points, first=first), ref)
            assert set(drawn) == ({s} if x > 0 else set())


def test_draw_flips_is_exact_at_the_uniforms_own_values():
    # Generator.random() returns k * 2**-53; an e equal to a drawn uniform, or
    # the next float on either side of it, must flip exactly as comparing that
    # uniform does.  2*points*first words is not a whole Philox block.
    points, first, shots = 9, 3, 6
    for seed in (5, 2**64 + 11):
        bit_generator = np.random.Philox(key=seed)
        bit_generator.advance(first * 2 * points // 4)
        bit_generator.random_raw(first * 2 * points % 4)
        uniforms = np.random.Generator(bit_generator).random((shots, points, 2))
        grid = [0.0, 0.5, 5e-324, 2.0**-53, 3 * 2.0**-53]
        for u in [u for u in uniforms.ravel().tolist() if u <= 0.5][:6]:
            grid += [u, float(np.nextafter(u, 0.0)), float(np.nextafter(u, 1.0))]
        grid = [e for e in grid if e <= 0.5]
        for e in grid:
            expected = _fresh_philox_draw(e, seed, shots, points, first)
            np.testing.assert_array_equal(draw_flips(e, seed, shots, points, first=first), expected)
        batch = draw_flips(grid, [seed] * len(grid), shots, points, first=first)
        for e, flips in zip(grid, batch):
            np.testing.assert_array_equal(flips, uniforms < e)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "unit_words", [16 * 1024, 5, 36, 54, 130],
    ids=["default", "one-shot", "two-shot", "three-shot", "odd"],
)
def test_draw_flips_does_not_depend_on_the_unit_or_the_worker_count(
    workers, unit_words, monkeypatch
):
    # a cell is sliced at _UNIT_WORDS // (2 * points) shots, at least one (1,
    # 2, 3 or 7 shots at nine points; 2, 18, 27 or 65 at one), a unit groups as many
    # cells as fit, and 2 * workers units or more are drawn on the worker
    # threads; slices of 3 or 7 shots (54 or 126 words) at nine points, or of
    # 65 shots (130 words) at one, start inside a Philox block.  _step_draws counts
    # each cell's negated shots from the same flips
    monkeypatch.setattr(noise, "_WORKERS", workers)
    monkeypatch.setattr(noise, "_UNIT_WORDS", unit_words)
    e = (0.0, 0.1, 0.25, 0.5, 0.3)
    seeds = (0, 17, 2**64 - 1, 2**128 - 1, 2**100 + 3)
    rng = np.random.default_rng(4)
    for points in (9, 1, 4):
        masks = [np.ones((points, 2), dtype=bool), np.zeros((points, 2), dtype=bool),
                 rng.random((points, 2)) < 0.5]
        for shots, first in ((0, 0), (1, 0), (5, 3), (37, 0), (40, 1), (201, 0)):
            references = np.array([_fresh_philox_draw(x, s, shots, points, first)
                                   for x, s in zip(e, seeds)])
            np.testing.assert_array_equal(draw_flips(e, seeds, shots, points, first=first),
                                          references.reshape(len(e), shots, points, 2))
            for mask in masks if shots and not first else ():  # _step_draws starts at shot 0
                [(_, _, _, counts)] = harness._step_draws(mask, e, shots, seeds)
                assert counts.dtype == np.int64
                parity = (references & mask).sum(axis=(-2, -1)) % 2
                np.testing.assert_array_equal(counts, np.count_nonzero(parity, axis=-1))
    assert draw_flips(0.3, 5, 40, 9).shape == (40, 9, 2)
    np.testing.assert_array_equal(draw_flips(0.3, 5, 40, 9), _fresh_philox_draw(0.3, 5, 40, 9, 0))


def test_draw_flips_holds_a_word_budget_whatever_the_points():
    # at 900 noise points a slice of 910 shots would hold 13 MB of raw words;
    # the unit budget of 16 * 1024 words (128 KiB) gives 9 shots a slice
    # instead, drawn on the worker threads, each holding one slice's words
    draw_flips(0.3, 5, 2, 900)  # warm-up
    tracemalloc.start()
    try:
        flips = draw_flips(0.3, 5, 8192, 900)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flips.shape == (8192, 900, 2)
    assert peak - flips.nbytes < 2 * 2**20


def test_draw_flips_loses_no_unit_under_fast_thread_switching(monkeypatch):
    # more workers than CPUs, one shot a unit, and a thread switch every
    # microsecond: a unit taken by two threads, or by none, would leave its
    # flips drawn twice or never written
    monkeypatch.setattr(noise, "_WORKERS", (os.cpu_count() or 1) + 1)
    monkeypatch.setattr(noise, "_UNIT_WORDS", 18)
    e, seeds = (0.1, 0.25, 0.5), (3, 2**64 + 9, 2**127)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        flips = draw_flips(e, seeds, 600, 9)
    finally:
        sys.setswitchinterval(interval)
    references = [_fresh_philox_draw(x, s, 600, 9, 0) for x, s in zip(e, seeds)]
    np.testing.assert_array_equal(flips, np.array(references))


def test_draw_flips_holds_nothing_per_unit(monkeypatch):
    # one shot a unit: 10 cells of 200 shots are 2000 units, taken from a
    # counter, so beyond the flips it returns the call peaks as one of 200
    # units (20 shots) does; a list of the units would peak many times as
    # high.  One worker, so only the caller's thread allocates
    monkeypatch.setattr(noise, "_WORKERS", 1)
    monkeypatch.setattr(noise, "_UNIT_WORDS", 18)

    def peak(shots: int) -> int:
        tracemalloc.start()
        try:
            flips = draw_flips((0.25,) * 10, range(1, 11), shots, 9)
            return tracemalloc.get_traced_memory()[1] - flips.nbytes
        finally:
            tracemalloc.stop()

    peak(20)  # warm-up
    assert peak(200) < 1.25 * peak(20)


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_draw_flips_joins_every_thread_before_a_unit_raises(failing, monkeypatch):
    # a unit that raises on either thread is raised in the caller, and only
    # after every worker thread has been joined; the other thread's first
    # unit waits for the failure, so the failing thread surely takes one
    monkeypatch.setattr(noise, "_WORKERS", 2)
    draw, caller, failed = noise._draw, threading.current_thread(), threading.Event()

    def fail_on_one_thread(*args):
        if (threading.current_thread() is caller) == (failing == "caller"):
            failed.set()
            raise ValueError("a unit's draw failed")
        assert failed.wait(timeout=60)
        return draw(*args)

    monkeypatch.setattr(noise, "_draw", fail_on_one_thread)
    before = threading.active_count()
    with pytest.raises(ValueError, match="a unit's draw failed"):
        draw_flips((0.25,) * 3, (1, 2, 3), 32768, 9)
    assert threading.active_count() == before


@pytest.mark.parametrize("cells", [0, 1, 6])
def test_draw_flips_over_many_cells_stacks_the_one_cell_draws(cells):
    seeds = [7919 * k + 3 for k in range(cells)]
    e = np.linspace(0.0, 0.5, cells)
    for first in (0, 3):
        flips = draw_flips(e, seeds, 4, 9, first=first)
        assert flips.shape == (cells, 4, 9, 2) and flips.dtype == bool
        stacked = [draw_flips(x, s, 4, 9, first=first) for x, s in zip(e, seeds)]
        np.testing.assert_array_equal(flips, np.array(stacked).reshape(flips.shape))
    # one e for every cell
    stacked = np.array([draw_flips(0.3, s, 4, 9) for s in seeds]).reshape(cells, 4, 9, 2)
    np.testing.assert_array_equal(draw_flips(0.3, seeds, 4, 9), stacked)


def test_draw_flips_rejects_bad_seeds_and_shapes():
    for e, seed in ((0.3, -1), (0.3, 2**128), ((0.1, 0.2), 5), ((0.1,), (1, 2)), (0.3, [[1]])):
        with pytest.raises(ValueError):
            draw_flips(e, seed, 2, 9)
    with pytest.raises(ValueError, match="must lie in"):
        draw_flips((0.1, 0.6), (1, 2), 2, 9)
    with pytest.raises(TypeError):
        draw_flips(0.3, 1.5, 2, 9)


def test_draw_flips_share_uniforms_across_e():
    # the same stream position is compared with every e, so flips only grow with e
    low, high = draw_flips(0.1, 8, 256, 9), draw_flips(0.4, 8, 256, 9)
    assert not (low & ~high).any() and (high & ~low).any()


def test_monte_carlo_matches_shot_records():
    # re-run each shot by hand from its own draw_flips row and compare matrices
    plan = circuits.assemble("unprotected")
    prep = readout.unprotected_steps()[0].deviation
    e, shots, seed = 0.3, 8, 5
    points = len(plan.decoherence_points)
    finals = monte_carlo_finals(plan, e, shots=shots, seed=seed, initial=prep)
    for k in range(shots):
        (drawn,) = draw_flips(e, seed, 1, points, first=k)
        rho = np.array(prep, dtype=complex)
        idx = 0
        for boundary in range(len(plan.gates) + 1):
            while idx < points and plan.decoherence_points[idx] == boundary:
                for slot, flip in enumerate(dfs.ERROR_MATRICES[1:3]):
                    if drawn[idx, slot]:
                        rho = flip @ rho @ flip
                idx += 1
            if boundary < len(plan.gates):
                u = plan.gates[boundary].physical
                rho = u @ rho @ u.conj().T
        np.testing.assert_allclose(finals[k], rho, atol=1e-13)


def _unshared_finals(plan, e, shots, seed, initial):
    # one 16x16 state per shot from initial, every shot evolved on its own
    points = plan.decoherence_points
    draws = draw_flips(e, seed, shots, len(points))
    rho = np.broadcast_to(np.asarray(initial, dtype=complex), (shots, 16, 16)).copy()
    idx = 0
    for boundary in range(len(plan.gates) + 1):
        while idx < len(points) and points[idx] == boundary:
            for slot, flip in enumerate(dfs.ERROR_MATRICES[1:3]):
                sel = draws[:, idx, slot]
                if sel.any():
                    rho[sel] = flip @ rho[sel] @ flip
            idx += 1
        if boundary < len(plan.gates):
            u = plan.gates[boundary].physical
            rho = u @ rho @ u.conj().T
    return rho


@pytest.mark.parametrize("mode", circuits.MODES)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_shared_flip_histories_match_unshared_replay_to_the_bit(mode, algorithm):
    # shots with the same flips so far share one evolved state; sharing must
    # not change a single bit of any shot's final matrix
    shots, seed = 512, 23
    plan = circuits.assemble(mode, algorithm)
    prep = readout.steps_for_mode(mode)[0].deviation
    for e in (0.0, 0.0625, 0.25, 0.5):
        finals = monte_carlo_finals(plan, e, shots=shots, seed=seed, initial=prep)
        assert finals.shape == (shots, 16, 16)
        assert finals.tobytes() == _unshared_finals(plan, e, shots, seed, prep).tobytes()


def test_shared_flip_histories_with_initial_state():
    plan = circuits.assemble("unprotected")
    initial = pauli_matrix(PauliString("ZXIY")) / 16
    finals = monte_carlo_finals(plan, 0.25, shots=128, seed=4, initial=initial)
    assert finals.tobytes() == _unshared_finals(plan, 0.25, 128, 4, initial).tobytes()


@pytest.mark.parametrize("mode", circuits.MODES)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_oracle_states_are_pairwise_distinct_by_bytes(mode, algorithm):
    # states are shared by their bytes, so no two returned rows may be equal
    plan = circuits.assemble(mode, algorithm)
    flips = draw_flips(0.25, 8, 512, len(plan.decoherence_points))
    states, index = monte_carlo_states(plan, flips, readout.steps_for_mode(mode)[-1].deviation)
    assert index.shape == (512,) and set(index.tolist()) == set(range(len(states)))
    assert len({s.tobytes() for s in states}) == len(states)


def test_oracle_merges_shots_whose_flip_histories_differ():
    # a protected preparation is left alone by every flip (up to rounding), so
    # its 64 shots fall on a few states though nearly every history differs
    plan = circuits.assemble("protected")
    flips = draw_flips(0.5, 2, 64, len(plan.decoherence_points))
    histories = len(np.unique(flips.reshape(64, -1), axis=0))
    states, _ = monte_carlo_states(plan, flips, readout.protected_steps()[0].deviation)
    assert len(states) <= 4 < histories


def test_oracle_rejects_flips_of_the_wrong_shape():
    plan = circuits.assemble("unprotected")
    prep = readout.unprotected_steps()[0].deviation
    points = len(plan.decoherence_points)
    for shape in ((0, points, 2), (4, points + 1, 2), (4, points)):
        with pytest.raises(ValueError, match="flips must have shape"):
            monte_carlo_states(plan, np.zeros(shape, dtype=bool), prep)


def test_monte_carlo_at_zero_error_equals_exact():
    plan = circuits.assemble("unprotected")
    prep = readout.unprotected_steps()[1].deviation
    exact = run_plan_exact(plan, 0.0, prep)
    mc = monte_carlo_finals(plan, 0.0, shots=16, seed=1, initial=prep).mean(axis=0)
    np.testing.assert_allclose(mc, exact, atol=1e-13)


def test_monte_carlo_is_deterministic_under_seed():
    plan = circuits.assemble("unprotected")
    prep = readout.unprotected_steps()[2].deviation
    a = monte_carlo_finals(plan, 0.25, shots=32, seed=42, initial=prep)
    b = monte_carlo_finals(plan, 0.25, shots=32, seed=42, initial=prep)
    assert np.array_equal(a, b)
    c = monte_carlo_finals(plan, 0.25, shots=32, seed=43, initial=prep)
    assert not np.array_equal(a, c)


def test_stochastic_average_converges_to_exact_channel():
    plan = circuits.assemble("unprotected")
    prep = readout.unprotected_steps()[1].deviation
    shots = 2048
    for e in (0.125, 0.3125):
        exact = run_plan_exact(plan, e, prep)
        finals = monte_carlo_finals(plan, e, shots=shots, seed=11, initial=prep)
        mean = finals.mean(axis=0)
        var = float(np.sum(np.abs(finals - mean) ** 2) / (shots - 1))
        sigma = np.sqrt(var / shots)
        assert qcore.frobenius_norm(mean - exact) <= 5 * sigma + 1e-12


def test_protected_shots_are_noise_free_one_by_one():
    # encoded preparations commute with every flip, so each shot is exact
    plan = circuits.assemble("protected")
    prep = readout.protected_steps()[0].deviation
    exact = run_plan_exact(plan, 0.0, prep)
    finals = monte_carlo_finals(plan, 0.5, shots=64, seed=2, initial=prep)
    assert qcore.frobenius_norm(finals.std(axis=0)) < 1e-13
    np.testing.assert_allclose(finals[0], exact, atol=1e-13)


def test_verify_error_model_identity_channel():
    spec = ErrorModelSpec(coefficients=np.array([[1.0, 0, 0, 0]], dtype=complex))
    audit = verify_error_model(spec)
    assert audit.max_residual <= qcore.DEFAULT_TOL
    np.testing.assert_allclose(audit.eigenvalues, np.ones((1, 4)), atol=1e-15)
    np.testing.assert_allclose(audit.weights, np.ones(4), atol=1e-15)


def test_verify_error_model_engineered_values():
    audit = verify_error_model(engineered_model(0.3))
    assert audit.max_residual < 1e-12
    root = np.sqrt(0.21)
    np.testing.assert_allclose(
        audit.eigenvalues[:, 0], [0.7, root, root, 0.3], atol=1e-12
    )
    # signature signs carry into the other subspaces
    np.testing.assert_allclose(
        audit.eigenvalues[:, 1], [0.7, root, -root, -0.3], atol=1e-12
    )
    np.testing.assert_allclose(audit.weights, np.ones(4), atol=1e-12)
    assert np.sum(np.abs(audit.eigenvalues[:, 0]) ** 2) == pytest.approx(
        0.49 + 0.21 + 0.21 + 0.09
    )


def test_verify_error_model_random_complete_models():
    rng = np.random.default_rng(19)
    chi = np.array([[1, *dfs.dfs_basis(i).signature] for i in (1, 2, 3, 4)], dtype=float)
    for _ in range(10):
        eig = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        eig /= np.linalg.norm(eig, axis=0, keepdims=True)
        spec = ErrorModelSpec(coefficients=eig @ chi / 4)
        audit = verify_error_model(spec)
        assert audit.max_residual < 1e-12
        np.testing.assert_allclose(audit.weights, np.ones(4), atol=1e-12)
        # with uniform mixture weights 1/4 the reweighted total stays 1
        assert np.sum(0.25 * audit.weights) == pytest.approx(1.0, abs=1e-12)


def test_verify_error_model_rejects_incomplete():
    spec = ErrorModelSpec(coefficients=np.array([[0.5, 0, 0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        verify_error_model(spec)
