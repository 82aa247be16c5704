import numpy as np
import pytest

from dfsim import circuits, dfs, noise, qcore, readout
from dfsim.noise import (
    ErrorModelSpec,
    KrausChannel,
    apply_channel,
    draw_flips,
    engineered_channel,
    engineered_model,
    monte_carlo_finals,
    monte_carlo_run,
    run_plan_exact,
    verify_error_model,
)
from dfsim.qcore import PauliString, pauli_matrix


def random_state(rng):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def test_engineered_channel_at_zero_is_identity_map():
    ch = engineered_channel(0.0)
    assert len(ch.operators) == 1
    np.testing.assert_array_equal(ch.operators[0], np.eye(16))
    rho = pauli_matrix(PauliString("ZIII")) / 16
    np.testing.assert_array_equal(apply_channel(rho, ch), rho)


def test_engineered_channel_at_half_has_equal_coefficients():
    ch = engineered_channel(0.5)
    words = ("IIII", "XXII", "IIXX", "XXXX")
    assert len(ch.operators) == 4
    for op, word in zip(ch.operators, words):
        np.testing.assert_allclose(op, 0.5 * pauli_matrix(PauliString(word)), atol=1e-15)


def test_engineered_channel_completeness():
    for e in (0.1, 0.3, 0.5):
        assert engineered_channel(e).completeness_defect() < 1e-15


def test_engineered_channel_rejects_out_of_range():
    for bad in (-0.1, 0.51, 1.0):
        with pytest.raises(ValueError):
            engineered_channel(bad)


def test_apply_channel_fixes_encoded_00():
    rho = dfs.encode(np.array([1, 0, 0, 0], dtype=complex))
    for e in (0.1, 0.25, 0.5):
        np.testing.assert_allclose(apply_channel(rho, engineered_channel(e)), rho, atol=1e-14)


def test_apply_channel_scales_z1_by_1_minus_2e():
    z1 = pauli_matrix(PauliString("ZIII")) / 16
    for e in (0.1, 0.25, 0.4):
        # oracle: conjugate branch by branch with the protocol's flip pattern
        expected = (
            (1 - e) ** 2 * z1
            + e * (1 - e) * qcore.conjugate(z1, pauli_matrix(PauliString("XXII")))
            + e * (1 - e) * qcore.conjugate(z1, pauli_matrix(PauliString("IIXX")))
            + e**2 * qcore.conjugate(z1, pauli_matrix(PauliString("XXXX")))
        )
        out = apply_channel(z1, engineered_channel(e))
        np.testing.assert_allclose(out, expected, atol=1e-14)
        np.testing.assert_allclose(out, (1 - 2 * e) * z1, atol=1e-14)


def test_apply_channel_leaves_z1z2_unchanged():
    z1z2 = pauli_matrix(PauliString("ZZII")) / 16
    for e in (0.1, 0.5):
        np.testing.assert_allclose(apply_channel(z1z2, engineered_channel(e)), z1z2, atol=1e-14)


def test_apply_channel_rejects_incomplete():
    bad = KrausChannel(operators=(0.5 * np.eye(16, dtype=complex),))
    with pytest.raises(ValueError):
        apply_channel(np.eye(16, dtype=complex) / 16, bad)


def test_channel_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    ch = engineered_channel(0.3)
    for _ in range(100):
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = (m + m.conj().T) / 2
        out = apply_channel(rho, ch)
        assert abs(np.trace(out) - np.trace(rho)) < 1e-12
        assert qcore.is_hermitian(out)


def test_dfs_immunity_across_grid():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = dfs.encode(random_state(rng))
        for e in np.arange(0.0, 0.501, 0.05):
            out = apply_channel(rho, engineered_channel(e))
            assert qcore.frobenius_norm(out - rho) < 1e-12


def test_nine_bare_channel_points_give_ninth_power():
    z1 = pauli_matrix(PauliString("ZIII")) / 16
    for e in (0.1, 0.25):
        ch = engineered_channel(e)
        rho = z1.copy()
        for _ in range(9):
            rho = apply_channel(rho, ch)
        np.testing.assert_allclose(rho, (1 - 2 * e) ** 9 * z1, atol=1e-13)


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


def test_draw_flips_share_uniforms_across_e():
    # the same stream position is compared with every e, so flips only grow with e
    low, high = draw_flips(0.1, 8, 256, 9), draw_flips(0.4, 8, 256, 9)
    assert not (low & ~high).any() and (high & ~low).any()


def test_monte_carlo_matches_shot_records():
    # re-run each shot by hand from its own draw_flips row and compare matrices
    plan = circuits.assemble_unprotected(preparation=readout.unprotected_steps()[0])
    e, shots, seed = 0.3, 8, 5
    points = len(plan.decoherence_points)
    finals = monte_carlo_finals(plan, e, shots=shots, seed=seed)
    flips = dfs.flip_matrices()[:2]
    for k in range(shots):
        (drawn,) = draw_flips(e, seed, 1, points, first=k)
        rho = np.array(plan.preparation.deviation, dtype=complex)
        idx = 0
        for boundary in range(len(plan.gates) + 1):
            while idx < points and plan.decoherence_points[idx] == boundary:
                for slot in (0, 1):
                    if drawn[idx, slot]:
                        rho = flips[slot] @ rho @ flips[slot]
                idx += 1
            if boundary < len(plan.gates):
                u = plan.gates[boundary].physical
                rho = u @ rho @ u.conj().T
        np.testing.assert_allclose(finals[k], rho, atol=1e-13)


def test_monte_carlo_at_zero_error_equals_exact():
    plan = circuits.assemble_unprotected(preparation=readout.unprotected_steps()[1])
    exact = run_plan_exact(plan, 0.0)
    mc = monte_carlo_run(plan, 0.0, shots=16, seed=1)
    np.testing.assert_allclose(mc, exact, atol=1e-13)


def test_monte_carlo_is_deterministic_under_seed():
    plan = circuits.assemble_unprotected(preparation=readout.unprotected_steps()[2])
    a = monte_carlo_finals(plan, 0.25, shots=32, seed=42)
    b = monte_carlo_finals(plan, 0.25, shots=32, seed=42)
    assert np.array_equal(a, b)
    c = monte_carlo_finals(plan, 0.25, shots=32, seed=43)
    assert not np.array_equal(a, c)


def test_stochastic_average_converges_to_exact_channel():
    plan = circuits.assemble_unprotected(preparation=readout.unprotected_steps()[1])
    shots = 2048
    for e in (0.125, 0.3125):
        exact = run_plan_exact(plan, e)
        finals = monte_carlo_finals(plan, e, shots=shots, seed=11)
        mean = finals.mean(axis=0)
        var = float(np.sum(np.abs(finals - mean) ** 2) / (shots - 1))
        sigma = np.sqrt(var / shots)
        assert qcore.frobenius_norm(mean - exact) <= 5 * sigma + 1e-12


def test_protected_shots_are_noise_free_one_by_one():
    # encoded preparations commute with every flip, so each shot is exact
    plan = circuits.assemble_protected(preparation=readout.protected_steps()[0])
    exact = run_plan_exact(plan, 0.0)
    finals = monte_carlo_finals(plan, 0.5, shots=64, seed=2)
    assert qcore.frobenius_norm(finals.std(axis=0)) < 1e-13
    np.testing.assert_allclose(finals[0], exact, atol=1e-13)


def test_verify_error_model_identity_channel():
    spec = ErrorModelSpec(coefficients=np.array([[1.0, 0, 0, 0]], dtype=complex))
    audit = verify_error_model(spec)
    assert audit.ok
    np.testing.assert_allclose(audit.eigenvalues, np.ones((1, 4)), atol=1e-15)
    np.testing.assert_allclose(audit.weights, np.ones(4), atol=1e-15)


def test_verify_error_model_engineered_values():
    audit = verify_error_model(engineered_model(0.3))
    assert audit.ok and audit.max_residual < 1e-12
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
    chi = np.array([[1, *dfs.dfs_signature(i)] for i in (1, 2, 3, 4)], dtype=float)
    for _ in range(10):
        eig = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        eig /= np.linalg.norm(eig, axis=0, keepdims=True)
        spec = ErrorModelSpec(coefficients=eig @ chi / 4)
        audit = verify_error_model(spec)
        assert audit.ok and audit.max_residual < 1e-12
        np.testing.assert_allclose(audit.weights, np.ones(4), atol=1e-12)
        # with uniform mixture weights 1/4 the reweighted total stays 1
        assert np.sum(0.25 * audit.weights) == pytest.approx(1.0, abs=1e-12)


def test_verify_error_model_rejects_incomplete():
    spec = ErrorModelSpec(coefficients=np.array([[0.5, 0, 0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        verify_error_model(spec)
