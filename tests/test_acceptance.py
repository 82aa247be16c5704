"""Acceptance suite: the eight headline guarantees, one test per criterion.

Each test pins the documented tolerance and prints a PASS line when it
holds (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Statistical comparisons against zero-variance Monte-Carlo cells carry an
absolute floor of 1e-12, the package-wide equality tolerance, so that
bit-exact cells are not failed on double-precision rounding.
"""

import time

import numpy as np
import pytest

from dfsim import circuits, dfs, harness, noise, qcore, readout

E_GRID = harness.DEFAULT_E_GRID  # 0 .. 0.5 in nine steps
FLOOR = 1e-12


def _report(k, text):
    print(f"ACCEPTANCE {k} PASS: {text}")


def summed_initial(mode):
    rho = np.eye(16, dtype=complex) / 16
    for step in readout.steps_for_mode(mode):
        rho = rho + step.deviation
    return rho


def test_criterion_1_dfs_immunity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = dfs.encode(psi)
        for e in np.arange(0.0, 0.501, 0.05):
            out = noise.apply_channel(rho, noise.engineered_model(e))
            worst = max(worst, qcore.frobenius_norm(out - rho))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report(1, f"50 encoded states untouched by the channel, residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_protected_grover_correctness():
    start = time.perf_counter()
    worst = 0.0
    for step in readout.protected_steps():
        plan = circuits.assemble("protected", "grover")
        ideal = dfs.decode(noise.run_plan_exact(plan, 0.0, step.deviation))
        for e in E_GRID:
            decoded = dfs.decode(noise.run_plan_exact(plan, e, step.deviation))
            worst = max(worst, abs(readout.signal_intensity(decoded, ideal) - 1.0))
    plan = circuits.assemble("protected", "grover")
    for e in E_GRID:
        final = noise.run_plan_exact(plan, e, initial=summed_initial("protected"))
        fidelity = dfs.decode(final)[3, 3].real  # population of |11>
        worst = max(worst, abs(fidelity - 1.0))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report(2, f"search lands on |11> for every step and e, residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_unprotected_decay_law():
    expected_n = {"Z1": 6, "Z1Z4": 12, "Z4": 6}
    flips = (qcore.PauliString("XXII"), qcore.PauliString("IIXX"))
    worst = 0.0
    for step in readout.unprotected_steps():
        plan = circuits.assemble("unprotected", "grover")
        # independent oracle: anticommutation count of the Pauli word present
        # at each of the nine default decoherence points
        devs = circuits.ideal_boundary_deviations(plan, step.deviation)
        n_oracle = 0
        for boundary in plan.decoherence_points:
            coeffs = qcore.pauli_decompose(devs[boundary], tol=1e-10)
            assert len(coeffs) == 1, "deviation must stay a single Pauli word"
            word = qcore.PauliString(next(iter(coeffs)))
            n_oracle += sum(qcore.anticommutes(word, f) for f in flips)
        assert n_oracle == expected_n[step.label]
        assert circuits.count_damaging_errors(plan, step.deviation) == n_oracle

        reference = noise.run_plan_exact(plan, 0.0, step.deviation)
        for e in E_GRID:
            final = noise.run_plan_exact(plan, e, step.deviation)
            signal = readout.signal_intensity(final, reference)
            worst = max(worst, abs(signal - (1 - 2 * e) ** n_oracle))
    assert worst <= 1e-10
    _report(3, f"signals equal (1-2e)^n with n = 6/12/6, residual {worst:.2e}")


def test_criterion_4_failure_thresholds():
    start = time.perf_counter()
    high_e = [e for e in E_GRID if e >= 0.3] + [0.3]
    for step in readout.unprotected_steps():
        plan = circuits.assemble("unprotected", "grover")
        reference = noise.run_plan_exact(plan, 0.0, step.deviation)
        for e in high_e:
            final = noise.run_plan_exact(plan, e, step.deviation)
            signal = readout.signal_intensity(final, reference)
            assert abs(signal) < 0.01
    for step in readout.protected_steps():
        plan = circuits.assemble("protected", "grover")
        reference = noise.run_plan_exact(plan, 0.0, step.deviation)
        for e in high_e:
            final = noise.run_plan_exact(plan, e, step.deviation)
            signal = readout.signal_intensity(final, reference)
            assert signal == pytest.approx(1.0, abs=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(4, f"unprotected |signal| < 0.01 while protected stays 1 for e >= 0.3, {elapsed:.2f}s")


def test_criterion_5_monte_carlo_matches_exact():
    start = time.perf_counter()
    rows = harness.run_sweep(harness.SweepConfig(shots=2048, seed=0))
    elapsed = time.perf_counter() - start
    assert len(rows) == 9 * 3 * 2
    for r in rows:
        assert abs(r.signal_mc - r.signal_exact) <= 4 * r.mc_stderr + FLOOR, (
            r.mode, r.step, r.e,
        )
    assert elapsed < 60.0
    _report(5, f"54 cells at 2048 shots inside 4 standard errors, sweep {elapsed:.1f}s")


def test_criterion_6_temporal_averaging_identity():
    plan = circuits.assemble("protected", "grover")
    steps = readout.protected_steps()
    worst = 0.0
    for e in E_GRID:
        direct = noise.run_plan_exact(plan, e, initial=summed_initial("protected"))
        summed = noise.run_plan_exact(plan, e, initial=np.eye(16, dtype=complex) / 16)
        for step in steps:
            summed = summed + noise.run_plan_exact(plan, e, initial=step.deviation)
        worst = max(worst, qcore.frobenius_norm(direct - summed))
    assert worst <= 1e-12
    _report(6, f"summed step evolutions equal the |00> evolution, residual {worst:.2e}")


def test_criterion_7_eigenstructure_audit():
    worst_residual = 0.0
    worst_weight = 0.0
    for e in E_GRID:
        audit = noise.verify_error_model(noise.engineered_model(e))
        assert audit.max_residual <= qcore.DEFAULT_TOL
        worst_residual = max(worst_residual, audit.max_residual)
        worst_weight = max(worst_weight, float(np.abs(audit.weights - 1.0).max()))
    assert worst_residual <= 1e-12
    assert worst_weight <= 1e-12
    _report(
        7,
        "scalar action on all four subspaces with unit weight sums, "
        f"residuals {worst_residual:.2e}/{worst_weight:.2e}",
    )


def test_criterion_8_deutsch_jozsa():
    worst = 0.0
    for name in circuits.DJ_FUNCTIONS:
        plan = circuits.assemble("protected", "deutsch-jozsa", function=name)
        constant = sum(circuits.DJ_FUNCTIONS[name]) in (0, 4)
        for e in E_GRID:
            final = noise.run_plan_exact(plan, e, initial=summed_initial("protected"))
            p00 = dfs.decode(final)[0, 0].real
            verdict_constant = p00 > 0.5
            assert verdict_constant == constant, (name, e, p00)
            worst = max(worst, abs(p00 - (1.0 if constant else 0.0)))

        for step in readout.unprotected_steps():
            uplan = circuits.assemble("unprotected", "deutsch-jozsa", function=name)
            n = circuits.count_damaging_errors(uplan, step.deviation)
            reference = noise.run_plan_exact(uplan, 0.0, step.deviation)
            for e in E_GRID:
                final = noise.run_plan_exact(uplan, e, step.deviation)
                signal = readout.signal_intensity(final, reference)
                worst = max(worst, abs(signal - (1 - 2 * e) ** n))
    assert worst <= 1e-10
    _report(8, f"verdicts exact for all 8 promise functions, decay law holds, residual {worst:.2e}")
