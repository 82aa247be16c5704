import re

import numpy as np
import pytest

from dfsim import circuits, dfs, noise, qcore, readout
from dfsim.circuits import (
    ExperimentPlan,
    assemble,
    count_damaging_errors,
    damage_audit,
    damage_mask,
    dj_gates,
    embed_on_spins_1_4,
    grover_gates,
)
from dfsim.qcore import PauliString, pauli_matrix
from test_noise import PLACEMENTS


def composite(gates):
    u = np.eye(gates[0].matrix.shape[0], dtype=complex)
    for g in gates:
        u = g.matrix @ u
    return u


def summed_initial(mode):
    rho = np.eye(16, dtype=complex) / 16
    for step in readout.steps_for_mode(mode):
        rho = rho + step.deviation
    return rho


def test_grover_retrieves_marked_item():
    for marked in ("00", "01", "10", "11"):
        u = composite(grover_gates(marked))
        out = u @ np.array([1, 0, 0, 0], dtype=complex)
        assert abs(out[int(marked, 2)]) == pytest.approx(1.0, abs=1e-12)


def test_grover_superposition_step():
    first = grover_gates("11")[0]
    out = first.matrix @ np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_allclose(out, 0.5 * np.ones(4), atol=1e-12)


@pytest.mark.parametrize("mode", circuits.MODES)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_realized_gates_have_exact_entries(algorithm, mode):
    # every entry is 0, +-1/2 or +-1 exactly, so every gate product is exact
    # and its bits do not depend on the BLAS kernel; a Hadamard pair built
    # from 1/sqrt(2) gives +-0.4999999999999999 instead
    for gate in assemble(mode, algorithm).gates:
        assert set(np.unique(gate.physical).tolist()) <= {0, 0.5, -0.5, 1, -1}, gate.label


@pytest.mark.parametrize("mode", circuits.MODES)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_gates_share_one_read_only_array_per_logical_matrix(algorithm, mode, monkeypatch):
    # each distinct logical matrix is one array, realized once: Grover's five
    # Hadamard pairs, its oracle and flip00 (3 of 7), and Deutsch-Jozsa's
    # Hadamard pairs and const0 oracle (2 of 5); the algorithm's and the
    # readout filter's Hadamard pairs are one array, not two equal ones
    realized = []
    for module, name in ((dfs, "lift_logical_unitary"), (circuits, "embed_on_spins_1_4")):
        def spy(u, _real=getattr(module, name)):
            realized.append(u)
            return _real(u)
        monkeypatch.setattr(module, name, spy)
    gates = assemble(mode, algorithm).gates
    assert len(realized) == {"grover": 3, "deutsch-jozsa": 2}[algorithm]
    assert not any(gate.physical.flags.writeable for gate in gates)
    for a in gates:
        for b in gates:
            assert (a.physical is b.physical) == np.array_equal(a.logical, b.logical), (a, b)
            assert (a.logical is b.logical) == np.array_equal(a.logical, b.logical), (a, b)


def test_grover_realizes_its_hadamard_pairs_once():
    physical = {gate.label: gate.physical for gate in assemble("protected").gates}
    pairs = ("superpose", "diffuse:mix", "diffuse:unmix", "readout:tilt", "readout:restore")
    assert all(physical[label] is physical["superpose"] for label in pairs)
    assert physical["oracle:11"] is not physical["diffuse:flip00"]


def test_grover_rejects_bad_label():
    with pytest.raises(ValueError):
        grover_gates("2")
    with pytest.raises(ValueError):
        grover_gates("111")


def test_dj_outputs_for_all_promise_functions():
    # oracle: brute-force 4-dim evaluation of H2 . diag((-1)^f) . H2 |00>
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    hh = np.kron(h, h)
    expected_state = {
        "const0": 0, "const1": 0,
        "x1": 2, "not_x1": 2,
        "x2": 1, "not_x2": 1,
        "xor": 3, "xnor": 3,
    }
    for name, table in circuits.DJ_FUNCTIONS.items():
        direct = hh @ np.diag([(-1.0) ** v for v in table]) @ hh
        out = composite(dj_gates(name)) @ np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(
            out, direct @ np.array([1, 0, 0, 0], dtype=complex), atol=1e-12
        )
        assert abs(out[expected_state[name]]) == pytest.approx(1.0, abs=1e-12)
        assert (sum(table) in (0, 4)) == (expected_state[name] == 0)


def test_dj_rejects_non_promise_function():
    with pytest.raises(ValueError):
        dj_gates((1, 0, 0, 0))
    with pytest.raises(ValueError):
        dj_gates("nonsense")


def test_embedding_acts_on_spins_1_and_4_only():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    np.testing.assert_allclose(
        embed_on_spins_1_4(np.kron(x, x)), pauli_matrix(PauliString("XIIX")), atol=1e-14
    )
    np.testing.assert_allclose(
        embed_on_spins_1_4(np.kron(z, np.eye(2))), pauli_matrix(PauliString("ZIII")), atol=1e-14
    )
    cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    expected = np.diag(
        [(-1.0) ** (((b >> 3) & 1) * (b & 1)) for b in range(16)]
    ).astype(complex)
    np.testing.assert_allclose(embed_on_spins_1_4(cz), expected, atol=1e-14)


def _loop_embedding(u):
    # element-by-element reference: u's entry where spins 2 and 3 agree, else 0
    out = np.zeros((16, 16), dtype=complex)
    for r in range(16):
        for c in range(16):
            if (c & 0b0110) == (r & 0b0110):
                out[r, c] = u[(((r >> 3) & 1) << 1) | (r & 1), (((c >> 3) & 1) << 1) | (c & 1)]
    return out


def test_embedding_equals_loop_reference_byte_for_byte():
    rng = np.random.default_rng(12)
    unitaries = [
        np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        for _ in range(50)
    ]
    gates = grover_gates("01") + dj_gates("xor") + circuits.readout_gates()
    unitaries.extend(g.matrix for g in gates)
    for u in unitaries:
        got, want = embed_on_spins_1_4(u), _loop_embedding(u)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_embedding_rejects_nonunitary():
    with pytest.raises(ValueError):
        embed_on_spins_1_4(np.ones((4, 4)))


def test_default_placements():
    grover_plan = assemble("protected", "grover")
    assert grover_plan.decoherence_points == (0, 1, 2, 3, 4, 5, 6, 7, 7)
    assert len(grover_plan.decoherence_points) == 9
    dj_plan = assemble("protected", "deutsch-jozsa", function="xor")
    assert dj_plan.decoherence_points == (0, 1, 2, 3, 4, 5, 5)


def test_assemble_rejects_unknown_mode_and_algorithm():
    with pytest.raises(ValueError, match="mode"):
        assemble("shielded", "grover")
    with pytest.raises(ValueError, match="algorithm"):
        assemble("protected", "shor")
    with pytest.raises(ValueError, match="algorithm"):
        assemble("unprotected", "shor")


def test_plan_validates_placement():
    plan = assemble("unprotected", "grover")
    with pytest.raises(ValueError):
        ExperimentPlan(mode=plan.mode, gates=plan.gates, decoherence_points=(0, 99))
    with pytest.raises(ValueError):
        ExperimentPlan(mode=plan.mode, gates=plan.gates, decoherence_points=(3, 1))


def test_protected_grover_decodes_to_marked_state_at_any_e():
    plan = assemble("protected", "grover")
    for e in (0.0, 0.125, 0.3125, 0.5):
        final = noise.run_plan_exact(plan, e, initial=summed_initial("protected"))
        rho_l = dfs.decode(final)
        assert rho_l[3, 3].real == pytest.approx(1.0, abs=1e-12)


def test_protected_step_deviations_survive_every_point():
    plan = assemble("protected", "grover")
    devs = circuits.ideal_boundary_deviations(plan, readout.protected_steps()[0].deviation)
    for e in (0.25, 0.5):
        model = noise.engineered_model(e)
        for boundary in plan.decoherence_points:
            rho = devs[boundary]
            assert qcore.frobenius_norm(noise.apply_channel(rho, model) - rho) < 1e-12


def test_unprotected_noiseless_run_succeeds():
    plan = assemble("unprotected", "grover")
    final = noise.run_plan_exact(plan, 0.0, initial=summed_initial("unprotected"))
    # marked item |11> on spins (1, 4), spectators fully mixed
    expected = (
        pauli_matrix(PauliString("IIII"))
        - pauli_matrix(PauliString("ZIII"))
        - pauli_matrix(PauliString("IIIZ"))
        + pauli_matrix(PauliString("ZIIZ"))
    ) / 16
    np.testing.assert_allclose(final, expected, atol=1e-12)


def test_unprotected_damage_counts():
    expected = {"Z1": 6, "Z1Z4": 12, "Z4": 6}
    for step in readout.unprotected_steps():
        plan = assemble("unprotected", "grover")
        assert count_damaging_errors(plan, step.deviation) == expected[step.label]


def test_protected_damage_count_is_zero():
    for step in readout.protected_steps():
        plan = assemble("protected", "grover")
        assert count_damaging_errors(plan, step.deviation) == 0


def test_damage_count_agrees_with_anticommutation_oracle():
    # independent route: extract the Pauli word at each point and use the
    # exact algebraic anticommutation predicate
    flips = (PauliString("XXII"), PauliString("IIXX"))
    for step in readout.unprotected_steps():
        plan = assemble("unprotected", "grover")
        devs = circuits.ideal_boundary_deviations(plan, step.deviation)
        n_oracle = 0
        for boundary in plan.decoherence_points:
            coeffs = qcore.pauli_decompose(devs[boundary], tol=1e-10)
            assert len(coeffs) == 1
            word = PauliString(next(iter(coeffs)))
            n_oracle += sum(qcore.anticommutes(word, f) for f in flips)
        assert count_damaging_errors(plan, step.deviation) == n_oracle


def test_unprotected_decay_matches_damage_count():
    for step in readout.unprotected_steps():
        plan = assemble("unprotected", "grover")
        n = count_damaging_errors(plan, step.deviation)
        reference = noise.run_plan_exact(plan, 0.0, step.deviation)
        for e in np.arange(0.0, 0.501, 0.0625):
            final = noise.run_plan_exact(plan, e, step.deviation)
            signal = readout.signal_intensity(final, reference)
            assert signal == pytest.approx((1 - 2 * e) ** n, abs=1e-10)


def test_unprotected_signal_negligible_at_e_03():
    for step in readout.unprotected_steps():
        plan = assemble("unprotected", "grover")
        reference = noise.run_plan_exact(plan, 0.0, step.deviation)
        final = noise.run_plan_exact(plan, 0.3, step.deviation)
        signal = readout.signal_intensity(final, reference)
        assert abs(signal) <= 0.01


def test_damage_audit_reports_states():
    plan = assemble("unprotected", "grover")
    audit = damage_audit(plan, readout.unprotected_steps()[0].deviation)
    assert len(audit) == 9
    assert audit[0].state == "ZIII" and audit[0].hits == 1
    assert sum(entry.hits for entry in audit) == 6
    protected_audit = damage_audit(
        assemble("protected", "grover"), readout.protected_steps()[0].deviation
    )
    assert all(entry.hits == 0 for entry in protected_audit)


def test_damage_audit_names_every_word_of_a_negated_deviation():
    # an X rotation on spin 1 turns ZIII into a mix of ZIII and YIII; XXII
    # negates both words, so the state must be named by them, not called
    # invariant
    theta = 0.3
    rx = np.array(
        [[np.cos(theta / 2), -1j * np.sin(theta / 2)], [-1j * np.sin(theta / 2), np.cos(theta / 2)]]
    )
    m = np.kron(rx, np.eye(2))
    plan = ExperimentPlan(
        mode="unprotected",
        gates=(circuits.Gate("rx1", m, embed_on_spins_1_4(m)),),
        decoherence_points=(0, 1),
    )
    audit = damage_audit(plan, readout.unprotected_steps()[0].deviation)
    assert audit[0].state == "ZIII"
    assert sorted(audit[1].state.split("+")) == ["YIII", "ZIII"]
    assert audit[1].damaging == (True, False)


def per_word_audit(plan, initial):
    """The damage audit of ``initial`` one point and one Pauli word at a time."""
    devs = circuits.ideal_boundary_deviations(plan, initial)
    audit = []
    for point, boundary in enumerate(plan.decoherence_points):
        rho = devs[boundary]
        coeffs = qcore.pauli_decompose(rho, tol=1e-10 * qcore.frobenius_norm(rho))
        damaging = []
        for flip in dfs.ERROR_BASIS[1:3]:
            signs = {qcore.anticommutes(PauliString(word), flip) for word in coeffs}
            assert len(signs) == 1
            damaging.append(True in signs)
        audit.append((point, boundary, "+".join(coeffs), tuple(damaging)))
    return audit


@pytest.mark.parametrize("placement", [None, *PLACEMENTS])
@pytest.mark.parametrize("mode", circuits.MODES)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_damage_audit_equals_the_per_word_audit(algorithm, mode, placement):
    # and row i of the mask of the mode's stacked preparations is step i's
    plan = assemble(mode, algorithm, placement=placement)
    steps = readout.steps_for_mode(mode)
    stacked = damage_mask(plan, np.stack([step.deviation for step in steps]))
    assert stacked.dtype == bool
    assert stacked.shape == (len(steps), len(plan.decoherence_points), 2)
    for step, row in zip(steps, stacked.tolist()):
        audit = damage_audit(plan, step.deviation)
        expected = per_word_audit(plan, step.deviation)
        assert [(a.point, a.boundary, a.state, a.damaging) for a in audit] == expected
        assert all(type(flag) is bool for a in audit for flag in a.damaging)
        assert row == [list(flags) for *_, flags in expected]
        assert row == damage_mask(plan, step.deviation).tolist()


def non_eigen_plan():
    """A plan whose T-like gate on spin 1 turns ZIII, but not IIIZ, into a
    mix of words that XXII partly negates."""
    t = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    gates = tuple(
        circuits.Gate(label, np.kron(m, np.eye(2)), embed_on_spins_1_4(np.kron(m, np.eye(2))))
        for label, m in (("mix", h), ("twist", t))
    )
    return ExperimentPlan(mode="unprotected", gates=gates, decoherence_points=(0, 1, 2))


def test_damage_count_rejects_non_eigen_states():
    # a T-like gate turns the transverse deviation into a non-eigen mixture
    with pytest.raises(ValueError, match="eigenstate"):
        count_damaging_errors(non_eigen_plan(), readout.unprotected_steps()[0].deviation)


def test_stacked_damage_mask_rejects_one_non_eigen_deviation():
    # Z4 stays an eigenstate of both flips at every point, Z1 does not at
    # point 2; a stack holding both fails as Z1 alone does
    z1, _, z4 = readout.unprotected_steps()
    plan = non_eigen_plan()
    assert damage_mask(plan, z4.deviation).tolist() == [[False, True]] * 3
    with pytest.raises(ValueError, match="eigenstate") as alone:
        damage_audit(plan, z1.deviation)
    assert str(alone.value).startswith("deviation at point 2 (boundary 2)")
    with pytest.raises(ValueError, match=re.escape(str(alone.value))):
        damage_mask(plan, np.stack([z4.deviation, z1.deviation]))


def test_moving_points_across_commuting_gates_is_invisible():
    # lifted gates commute with every error operator, so sliding a point
    # across any protected gate cannot change the final state
    step = readout.protected_steps()[2]
    base = assemble("protected", "grover")
    variants = [
        (0, 0, 1, 2, 3, 4, 5, 6, 7),
        (1, 2, 3, 4, 4, 4, 5, 6, 7),
        (0, 1, 1, 2, 3, 5, 6, 7, 7),
    ]
    out_base = noise.run_plan_exact(base, 0.3, step.deviation)
    for placement in variants:
        plan = assemble("protected", "grover", placement=placement)
        final = noise.run_plan_exact(plan, 0.3, step.deviation)
        np.testing.assert_allclose(final, out_base, atol=1e-12)

