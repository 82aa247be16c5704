import csv
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import dfsim
from dfsim import circuits, cli, dfs, harness, noise, qcore, readout
from dfsim.harness import (
    CSV_HEADER,
    ConfigError,
    SignalResult,
    SweepConfig,
    VerifyCheck,
    build_config,
    load_config_file,
    results_to_csv,
    results_to_json,
    run_sweep,
    verify,
)

from test_circuits import per_word_audit
from test_noise import PLACEMENTS

SMALL = SweepConfig(e_grid=(0.0, 0.25, 0.5), shots=64, seed=3)


#: dfsim's public names.  The public surface is counted in names, so a name
#: is added or removed here on purpose, in the same change as __init__.py.
PUBLIC_NAMES = [
    "DEFAULT_TOL", "DIM", "DfsBasis", "ErrorModelSpec", "ExperimentPlan", "PauliString",
    "PreparationStep", "SignalResult", "SweepConfig", "__version__", "anticommutes",
    "apply_channel", "assemble", "count_damaging_errors", "decode", "dfs_basis", "dj_gates",
    "draw_flips", "encode", "engineered_model", "grover_gates", "lift_logical_unitary",
    "pauli_decompose", "pauli_matrix", "protected_steps",
    "run_plan_exact", "run_sweep", "signal_intensity", "theory_curve", "unprotected_steps",
    "verify", "verify_error_model",
]


def test_public_names_are_pinned():
    assert sorted(dfsim.__all__) == PUBLIC_NAMES
    assert all(hasattr(dfsim, name) for name in dfsim.__all__)


def test_default_grid_is_nine_levels():
    cfg = SweepConfig()
    assert len(cfg.e_grid) == 9
    assert cfg.e_grid[0] == 0.0 and cfg.e_grid[-1] == 0.5
    assert cfg.shots == 2048


def test_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(e_grid=(0.7,))
    with pytest.raises(ConfigError):
        SweepConfig(shots=0)
    with pytest.raises(ConfigError):
        SweepConfig(modes=("shielded",))
    with pytest.raises(ConfigError):
        SweepConfig(algorithm="shor")
    with pytest.raises(ConfigError):
        SweepConfig(format="xml")
    with pytest.raises(ConfigError, match="seed"):
        SweepConfig(seed=-1)
    with pytest.raises(ConfigError, match="repeat"):
        SweepConfig(modes=("protected", "protected"))
    with pytest.raises(ConfigError, match="repeat"):
        build_config({"modes": "unprotected protected unprotected"})
    # library inputs that are not tuples are held as tuples, then validated
    with pytest.raises(ConfigError, match="e_grid must not be empty"):
        SweepConfig(e_grid=np.array([]))
    with pytest.raises(ConfigError, match=r"must lie in \[0, 0.5\]"):
        SweepConfig(e_grid=np.array([0.25, 0.7]))
    with pytest.raises(ConfigError, match="repeat"):
        SweepConfig(modes=["protected", "protected"])
    listed = SweepConfig(e_grid=np.array([0.0, 0.25]), modes=["protected"], placement=[0, 2])
    tupled = SweepConfig(e_grid=(0.0, 0.25), modes=("protected",), placement=(0, 2))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert all(type(e) is float for e in listed.e_grid)
    assert type(listed.modes) is tuple and type(listed.placement) is tuple
    # library inputs of the wrong kind are configuration errors that name
    # their field
    for field, value in (("e_grid", 0.25), ("e_grid", ("a",)), ("modes", 5), ("placement", 3)):
        with pytest.raises(ConfigError, match=field):
            SweepConfig(**{field: value})
    # a placement entry must be an index, not truncated to one: the plan,
    # which knows the gate count, checks every entry
    with pytest.raises(ValueError, match="placement indices must be integers"):
        circuits.assemble("protected", placement=(1.9,))
    with pytest.raises(ValueError, match="placement indices must be integers"):
        run_sweep(SweepConfig(placement=(0.5,), e_grid=(0.25,), shots=2))


def test_sweep_has_one_row_per_cell():
    rows = run_sweep(SMALL)
    assert len(rows) == 3 * 3 * 2
    keys = {(r.e, r.step, r.mode) for r in rows}
    assert len(keys) == len(rows)


def test_sweep_protected_rows_are_flat_and_unprotected_die_at_half():
    rows = run_sweep(SMALL)
    for r in rows:
        if r.mode == "protected":
            assert r.signal_exact == pytest.approx(1.0, abs=1e-10)
            assert r.n == 0 and r.theory == 1.0
        else:
            assert r.n in (6, 12)
            assert r.signal_exact == pytest.approx(r.theory, abs=1e-10)
            if r.e == 0.5:
                assert r.signal_exact == pytest.approx(0.0, abs=1e-10)
        assert abs(r.signal_mc - r.signal_exact) <= 4 * r.mc_stderr + 1e-10


@pytest.mark.parametrize("mode", circuits.MODES)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_frame_signals_match_dense_shot_by_shot(mode, algorithm):
    # same draws: the dense oracle's per-shot signal against the frame parity
    shots, seed = 256, 21
    for step in readout.steps_for_mode(mode):
        plan = circuits.assemble(mode, algorithm)
        _, mask = circuits.damage_audit(plan, step.deviation)
        reference = noise.run_plan_exact(plan, 0.0, step.deviation)
        for e in (0.1, 0.25, 0.4):
            finals = noise.monte_carlo_finals(plan, e, shots, seed, initial=step.deviation)
            dense = np.array([readout.signal_intensity(f, reference) for f in finals])
            flips = noise.draw_flips(e, seed, shots, len(mask))
            frame = 1 - 2 * ((flips & mask).sum(axis=(1, 2)) % 2)
            np.testing.assert_allclose(dense, frame, rtol=0, atol=1e-13)
            [mean], [stderr] = harness._mc_signal(mask, (e,), shots, (seed,))
            assert mean == pytest.approx(dense.mean(), abs=1e-13)
            assert stderr == pytest.approx(dense.std(ddof=1) / np.sqrt(shots), abs=1e-13)


def test_sweep_is_deterministic():
    a = results_to_csv(run_sweep(SMALL))
    b = results_to_csv(run_sweep(SMALL))
    assert a == b
    c = results_to_csv(run_sweep(SweepConfig(e_grid=(0.0, 0.25, 0.5), shots=64, seed=4)))
    assert a != c


def test_csv_schema():
    text = results_to_csv(run_sweep(SMALL))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "e,step,mode,algorithm,signal_exact,signal_mc,mc_stderr,theory,n"
    assert len(lines) == 1 + 18
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[3] == "grover"


def test_json_mirror_matches_csv_rows():
    # the last row holds a distinct value in every field, so a field that the
    # CSV row's f-string misses, repeats or reorders fails here
    distinct = {"float": lambda i: 1 / (i + 3), "str": lambda i: f"s{i}", "int": lambda i: 100 + i}
    values = [distinct[f.type](i) for i, f in enumerate(fields(SignalResult))]
    assert len(set(map(str, values))) == len(values)
    rows = run_sweep(SMALL) + [SignalResult(*values)]
    assert results_to_csv(rows).endswith("\n" + ",".join(map(str, values)) + "\n")
    payload = json.loads(results_to_json(rows))
    assert len(payload) == len(rows)
    names = [f.name for f in fields(SignalResult)]
    for entry, row in zip(payload, rows):
        assert list(entry) == names
        assert entry == {name: getattr(row, name) for name in names}
    lines = results_to_csv(rows).splitlines()
    assert lines[0] == ",".join(names) and len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        assert line.split(",") == [str(getattr(row, name)) for name in names]


def test_verify_passes_on_fresh_build():
    checks = verify(SweepConfig(e_grid=(0.0, 0.25, 0.5), shots=128, seed=5))
    failed = [c.name for c in checks if not c.passed]
    assert failed == []
    names = {c.name for c in checks}
    assert {"dfs-immunity", "channel-completeness", "mc-convergence",
            "damage-count-consistency", "damage-count-values"} <= names


def test_verify_detects_corrupted_subspace(monkeypatch):
    bases = list(dfs.all_isometries())
    assert max(harness._immunity_residual()) <= qcore.DEFAULT_TOL
    bad = bases[3].copy()
    bad[12, 0] *= -1.0  # break one sign relation in subspace 4
    bases[3] = bad
    monkeypatch.setattr(dfs, "all_isometries", lambda: tuple(bases))
    assert max(harness._immunity_residual()) > 1e-3


def test_verify_fails_on_a_biased_sampler(monkeypatch, capsys):
    # the dense oracle draws through noise.draw_flips, a batch of e at a time;
    # bias it by +0.05 in e
    unbiased = noise.draw_flips
    monkeypatch.setattr(
        noise,
        "draw_flips",
        lambda e, *args, **kw: unbiased(np.minimum(np.add(e, 0.05), 0.5), *args, **kw),
    )
    assert cli.main(["verify"]) == 1
    assert "FAIL mc-convergence" in capsys.readouterr().out


def test_verify_fails_when_a_damage_flag_is_flipped(monkeypatch, capsys):
    # the frame then negates the shots that drew that (point, flip) pair of
    # one protected plan, and the dense oracle, which reads the same flips,
    # does not; flag [0, 0, 0] of the protected stack is step Z1Z2's.
    # harness.mode_stacks audits its noise-free walk through circuits._audit
    audited = circuits._audit
    z1z2 = readout.protected_steps()[0]

    def flipped(plan, walk):
        present, damaging = audited(plan, walk)
        damaging = damaging.copy()
        if plan.mode == "protected":
            assert damaging.ndim == 3 and z1z2.label == "Z1Z2"
            assert np.array_equal(walk[0][0], z1z2.deviation)
            damaging[0, 0, 0] = not damaging[0, 0, 0]
        return present, damaging

    monkeypatch.setattr(circuits, "_audit", flipped)
    assert cli.main(["verify"]) == 1
    assert "FAIL frame-dense-shots" in capsys.readouterr().out


def test_verify_fails_on_an_exact_final_off_the_reference(monkeypatch, capsys):
    # a 1e-6 Pauli term orthogonal to every protected reference, added to the
    # protected finals of the e grid but not to the references: each exact
    # signal stays 1 and each count 0, but the mean rho_ref misses the term
    cfg = SweepConfig(modes=("protected",))
    [(_, plan, *_)] = harness.mode_stacks(cfg)
    refs = [noise.run_plan_exact(plan, 0.0, step.deviation) for step in readout.protected_steps()]
    words = qcore._word_matrices()[1:]
    word = next(w for w in words if all(abs(np.vdot(w, ref)) < 1e-12 for ref in refs))
    exact = noise._exact_rows

    def off_reference(plan, e, initial):
        finals = exact(plan, e, initial)
        return finals + 1e-6 * word if plan.mode == "protected" and np.ndim(e) else finals

    monkeypatch.setattr(noise, "_exact_rows", off_reference)
    assert cli.main(["verify"]) == 1
    assert "FAIL mc-convergence" in capsys.readouterr().out


def _exact_without_the_last_noise_point(monkeypatch):
    exact = noise._exact_rows

    def faulty(plan, e, initial):
        return exact(replace(plan, decoherence_points=plan.decoherence_points[:-1]), e, initial)

    monkeypatch.setattr(noise, "_exact_rows", faulty)


def _damage_audit_without_the_last_point(monkeypatch):
    audited = circuits._audit  # the audit of harness.mode_stacks' noise-free walk

    def faulty(plan, walk):
        present, damaging = audited(plan, walk)
        damaging = damaging.copy()
        damaging[..., -1, :] = False
        return present, damaging

    monkeypatch.setattr(circuits, "_audit", faulty)


def _flip_table_with_one_entry_flipped(monkeypatch):
    # ZIII against XXII: the first point of the unprotected Z1 step
    table = circuits._flip_anticommutes().copy()
    word = [p.letters for p in qcore.pauli_basis_strings()].index("ZIII")
    assert table[word, 0]
    table[word, 0] = False
    monkeypatch.setattr(circuits, "_flip_anticommutes", lambda: table)


def _pauli_transform_with_a_wrong_y_sign(monkeypatch):
    # -Tr(Y m) for Tr(Y m) on every qubit: each word's coefficient times
    # (-1) to its number of Ys.  circuits imported the function by name
    transform = qcore._pauli_transform
    signs = np.array([(-1.0) ** p.letters.count("Y") for p in qcore.pauli_basis_strings()])

    def faulty(rhos):
        return transform(rhos) * signs

    monkeypatch.setattr(qcore, "_pauli_transform", faulty)
    monkeypatch.setattr(circuits, "_pauli_transform", faulty)


def _channel_with_its_first_operator_only(monkeypatch):
    def faulty(rho, channel):
        op = channel.operators[0]
        return op @ np.asarray(rho, dtype=complex) @ op.conj().T

    monkeypatch.setattr(noise, "apply_channel", faulty)


def _channel_with_its_xxxx_coefficient_scaled(monkeypatch):
    coefficients = noise._engineered_coefficients

    def faulty(e):
        a = coefficients(e)
        a[3] *= 0.9
        return a

    monkeypatch.setattr(noise, "_engineered_coefficients", faulty)


def _exact_finals_with_a_nan(monkeypatch):
    exact = noise._exact_rows

    def faulty(plan, e, initial):
        finals = exact(plan, e, initial)
        finals[..., 0, 0] = np.nan
        return finals

    monkeypatch.setattr(noise, "_exact_rows", faulty)


def _channel_output_with_a_nan(monkeypatch):
    channel = noise.apply_channel

    def faulty(rho, spec):
        out = channel(rho, spec)
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(noise, "apply_channel", faulty)


def _dense_states_with_a_nan(monkeypatch):
    evolve = noise.monte_carlo_states

    def faulty(plan, flips, initial):
        states, index = evolve(plan, flips, initial)
        states = states.copy()
        states.flat[0] = np.nan
        return states, index

    monkeypatch.setattr(noise, "monte_carlo_states", faulty)


def _protected_gate_leaking_below_the_audit_cut(monkeypatch):
    # spin 1 turned by 1e-13 rad after the protected plans' first gate: the
    # leaked words lie far below damage_audit's 1e-10 cut, so every protected
    # mask stays false, but a flip changes the state's bytes
    assemble = circuits.assemble
    c, s = np.cos(1e-13), np.sin(1e-13)
    leak = np.kron([[c, -s], [s, c]], np.eye(8))

    def faulty(mode, *args, **kwargs):
        plan = assemble(mode, *args, **kwargs)
        if mode != "protected":
            return plan
        first = replace(plan.gates[0], physical=leak @ plan.gates[0].physical)
        return replace(plan, gates=(first, *plan.gates[1:]))

    monkeypatch.setattr(circuits, "assemble", faulty)


def _invariant_final_negated(monkeypatch):
    walk = noise._invariant_final

    def faulty(plan, initial):
        final = walk(plan, initial)
        return None if final is None else -final

    monkeypatch.setattr(noise, "_invariant_final", faulty)


def _error_model_audit_with_nan_weights(monkeypatch):
    audit = noise.verify_error_model

    def faulty(spec):
        found = audit(spec)
        return replace(found, weights=np.full(4, np.nan))

    monkeypatch.setattr(noise, "verify_error_model", faulty)


def _channel_with_a_nan_xxxx_coefficient(monkeypatch):
    coefficients = noise._engineered_coefficients

    def faulty(e):
        a = coefficients(e)
        a[3] = np.nan
        return a

    monkeypatch.setattr(noise, "_engineered_coefficients", faulty)


def _raising(owner, name):
    """A fault that makes owner.<name> raise ValueError."""
    def fault(monkeypatch):
        def faulty(*args, **kwargs):
            raise ValueError(f"{name} raised")

        monkeypatch.setattr(owner, name, faulty)

    return fault


def _last_dense_evolution_raising(monkeypatch):
    # a default verify evolves three draw blocks, one per unprotected step:
    # the third raises once every count is taken
    evolve, calls = noise.monte_carlo_states, []

    def faulty(*args):
        calls.append(args)
        if len(calls) == 3:
            raise ValueError("dense evolution raised")
        return evolve(*args)

    monkeypatch.setattr(noise, "monte_carlo_states", faulty)


#: The checks that evolve through the engineered channel: the three that
#: build it, and the four grid checks that read the exact walk.  The flip
#: table, the Pauli transform and the DFS basis read no channel; nor do
#: damage-count-values, which reads the audit alone, and frame-dense-shots,
#: which reads the draws and the dense oracle.
_CHANNEL_FAULT_FAILS = {
    "dfs-immunity", "channel-completeness", "eigenstructure-audit", "protected-correctness",
    "temporal-averaging", "damage-count-consistency", "mc-convergence",
}

#: Each grid check's reduction in harness, which must FAIL that check alone.
_REDUCTIONS = {
    "protected-correctness": "_correctness", "temporal-averaging": "_averaging",
    "damage-count-consistency": "_consistency", "damage-count-values": "_damage_values",
    "frame-dense-shots": "_frame_apart", "mc-convergence": "_mc_margins",
}


@pytest.mark.parametrize(
    "fault, failed",
    [
        (_exact_without_the_last_noise_point, {"damage-count-consistency"}),
        (
            _damage_audit_without_the_last_point,
            {"damage-count-consistency", "damage-count-values", "frame-dense-shots"},
        ),
        (
            _flip_table_with_one_entry_flipped,
            {"flip-anticommutation", "damage-count-consistency", "damage-count-values",
             "frame-dense-shots", "mc-convergence"},
        ),
        (_pauli_transform_with_a_wrong_y_sign, {"pauli-transform-inverse"}),
        (_channel_with_its_first_operator_only, {"dfs-immunity"}),
        (_channel_with_its_xxxx_coefficient_scaled, _CHANNEL_FAULT_FAILS),
        (
            _exact_finals_with_a_nan,
            {"protected-correctness", "temporal-averaging", "damage-count-consistency",
             "mc-convergence"},
        ),
        (_channel_output_with_a_nan, {"dfs-immunity"}),
        (_dense_states_with_a_nan, {"frame-dense-shots"}),
        (_protected_gate_leaking_below_the_audit_cut, {"frame-dense-shots"}),
        (_invariant_final_negated, {"frame-dense-shots"}),
        (_error_model_audit_with_nan_weights, {"eigenstructure-audit"}),
        (_channel_with_a_nan_xxxx_coefficient, _CHANNEL_FAULT_FAILS),
        (_raising(noise, "_engineered_coefficients"), _CHANNEL_FAULT_FAILS),
        (_raising(noise, "draw_flips"), {"frame-dense-shots", "mc-convergence"}),
        (_last_dense_evolution_raising, {"frame-dense-shots", "mc-convergence"}),
        *[(_raising(harness, name), {check}) for check, name in _REDUCTIONS.items()],
    ],
    ids=[
        "exact-channel-fails-damage-count-consistency-only",
        "damage-audit-fails-damage-count-consistency-values-and-frame-dense-shots",
        "flip-table-fails-flip-anticommutation-damage-count-consistency-values-frame-dense-shots"
        "-and-mc-convergence",
        "pauli-transform-y-sign-fails-pauli-transform-inverse-only",
        "apply-channel-fails-dfs-immunity-only",
        "channel-not-trace-preserving-fails-every-check-that-reads-a-channel",
        "nan-exact-finals-fail-every-check-that-reads-them",
        "nan-channel-output-fails-dfs-immunity-only",
        "nan-dense-states-fail-frame-dense-shots-only",
        "protected-gate-leak-below-the-audit-cut-is-drawn-and-fails-frame-dense-shots-only",
        "wrong-invariant-final-fails-frame-dense-shots-only",
        "nan-error-model-weights-fail-eigenstructure-audit-only",
        "nan-channel-coefficient-fails-every-check-that-reads-a-channel",
        "raising-channel-coefficients-fail-every-check-that-reads-a-channel",
        "raising-draws-fail-frame-dense-shots-and-mc-convergence-only",
        "raising-last-dense-evolution-fails-frame-dense-shots-and-mc-convergence-only",
        *[f"raising-reduction-fails-{check}-only" for check in _REDUCTIONS],
    ],
)
def test_verify_fails_its_checks_on_a_fault(fault, failed, monkeypatch, capsys):
    # the exact channel losing the last noise point moves every unprotected
    # signal off (1-2e)^n; the audit losing it lowers n and flips the frame's
    # sign of the shots that drew a damaging flip there, against the dense
    # oracle; a wrong entry of the flip table differs from the dense products,
    # and the audit, which reads it, lowers n: the frame no longer negates the
    # shots that drew XXII at the Z1 step's first point, against the dense
    # oracle and the exact signal; a wrong Y sign in the Pauli transform keeps
    # every |coefficient|, so only the transform's own check sees it;
    # a channel keeping only (1-e) IIII shrinks every encoded state for e > 0;
    # a channel whose XXXX weight falls short of trace preserving makes every
    # check that evolves through it raise, and each such check FAILs with an
    # infinite residual while the rest still run: the exact walk raises, and
    # with it the four grid checks that read it, but not the two that read
    # the audit or the draws; draws, or their dense evolution, that raise fail
    # the two checks that read them, mc-convergence even when the counts are
    # whole; a check's own reduction that raises fails that check alone;
    # a NaN among the values a check judges is its residual, so that check
    # FAILs, and a NaN channel coefficient is not trace preserving either.
    # The walk that spares verify the protected draws reads only states: a
    # protected gate that lets a flip change the state, by less than the audit
    # sees, is drawn, and the dense oracle's flipped shots leave the frame's
    # unnegated reference; a walk that finds a wrong final is judged as a shot
    fault(monkeypatch)
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert {line[5:].split(":")[0] for line in lines if line.startswith("FAIL ")} == failed


def test_verify_of_a_placement_past_the_gates_exits_2(capsys):
    # the plans are built before any check runs: a bad placement is an
    # invalid configuration, not a failed check
    assert cli.main(["verify", "--placement", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: placement indices must lie in [0, 7]\n"


@pytest.fixture(scope="module")
def oracle():
    """bench/oracle.py, loaded by its path: bench/ is not a package.  Its
    dataclass looks its module up in sys.modules while it is built."""
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.03, 0.25, 0.5])
@pytest.mark.parametrize("shots", [1, 2, 3, 64, 2048])
def test_acceptance_radius_is_the_exact_binomial_test(shots, p, oracle):
    # the benchmark oracle's two-sided binomial tail is the independent
    # reference: a count lies within the radius exactly when its tail is >= alpha.
    # From 64 shots Hoeffding's window leaves the farthest counts out of the sum
    assert harness._ALPHA == oracle.ALPHA
    radius = harness._acceptance_radius(shots, p)
    for k in range(shots + 1):
        tail = oracle.binomial_two_sided(k, shots, p)
        assert (abs(k - shots * p) <= radius) == (tail >= oracle.ALPHA), (k, tail)


@pytest.mark.parametrize("p", [1e-3, 0.25, 0.5])
def test_acceptance_radius_at_a_large_shot_count_is_the_exact_binomial_test(p, oracle):
    # at 2**20 shots the window holds about 1 in 130 counts; the counts next
    # to the radius on each side, the farthest accepted and the nearest
    # rejected among them, must be judged as the oracle judges them
    shots = 2**20
    radius, centre = harness._acceptance_radius(shots, p), shots * p
    counts = {math.floor(centre + side * radius) + d for side in (-1, 1) for d in (-1, 0, 1, 2)}
    inside = {k: abs(k - centre) <= radius for k in counts if 0 <= k <= shots}
    assert set(inside.values()) == {True, False}
    for k, accepted in inside.items():
        tail = oracle.binomial_two_sided(k, shots, p)
        assert accepted == (tail >= oracle.ALPHA), (k, tail)


def test_acceptance_radius_memory_does_not_grow_with_the_shots():
    # the window is about 7.8 sqrt(shots) counts wide: 16 000 counts, some
    # 1 MB of arrays, at 2**22 shots, where all the counts took 288 MB
    tracemalloc.start()
    try:
        harness._acceptance_radius(2**22, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _count_calls(monkeypatch) -> dict[str, int]:
    """Count the calls of circuits.assemble, circuits._audit (damage_audit's
    core, which harness.mode_stacks calls), the noise-free walks
    (circuits.ideal_boundary_deviations), the exact walks (noise._exact_rows,
    which run and verify read), and the plans built (ExperimentPlan.__post_init__)."""
    calls = {"assemble": 0, "audit": 0, "noise-free walk": 0, "exact walk": 0,
             "ExperimentPlan": 0}
    for key, owner, name in (
        ("assemble", circuits, "assemble"), ("audit", circuits, "_audit"),
        ("noise-free walk", circuits, "ideal_boundary_deviations"),
        ("exact walk", noise, "_exact_rows"),
        ("ExperimentPlan", circuits.ExperimentPlan, "__post_init__"),
    ):
        def spy(*args, _real=getattr(owner, name), _key=key, **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return calls


#: One plan, one audit and one exact walk of each mode's stack over the nine
#: e values: per mode, one assembly (and so one plan built), one noise-free
#: walk of the stack, which gives both its damage audit and its references
#: (not an e = 0 exact call), and one exact walk.
ONE_PLAN_PER_MODE = {"assemble": 2, "audit": 2, "noise-free walk": 2, "exact walk": 2,
                     "ExperimentPlan": 2}


def test_verify_builds_audits_and_evolves_each_plan_once(monkeypatch):
    # each mode assembled once and its stack of three preparations audited
    # once; 2 exact evolutions: per mode, one batch of the stack of 5
    # (summed preparation, identity/16 and each step, through the mode's
    # plan) over the nine e values, from which every grid check of the mode
    # reads its cells
    calls = _count_calls(monkeypatch)
    assert all(c.passed for c in harness.verify())
    assert calls == ONE_PLAN_PER_MODE


def test_count_n_audits_each_mode_stack_once(monkeypatch, capsys):
    # count-n prints the rows of each mode's one stacked audit, and evolves
    # nothing through the noisy channel
    calls = _count_calls(monkeypatch)
    assert cli.main(["count-n"]) == 0
    assert calls == {**ONE_PLAN_PER_MODE, "exact walk": 0}
    assert capsys.readouterr().out.count(": n = ") == 6


@pytest.mark.parametrize("mode", circuits.MODES)
def test_verify_of_one_mode_evolves_each_mode_once(mode, monkeypatch):
    # the unswept mode is walked too, for protected-correctness or
    # damage-count-consistency, as one stack like the swept one
    calls = _count_calls(monkeypatch)
    assert all(c.passed for c in harness.verify(SweepConfig(modes=(mode,))))
    assert calls == ONE_PLAN_PER_MODE


def test_sweep_evolves_each_mode_as_one_stack(monkeypatch):
    # per mode: one assembly, one audit of the stack of three steps and one
    # stack of the three steps over the nine e values
    calls = _count_calls(monkeypatch)
    rows = run_sweep(SweepConfig())
    assert len(rows) == 54
    assert calls == ONE_PLAN_PER_MODE


@pytest.mark.parametrize("shots", [2048, 40000])
def test_sweep_exact_batches_do_not_depend_on_the_shots(shots, monkeypatch):
    # 129 protected e values in batches of _E_BLOCK // 3 cells (42 at 128
    # rows: 4 batches), at any shot count
    grid = tuple(k / 256 for k in range(129))
    calls = _count_calls(monkeypatch)
    run_sweep(SweepConfig(e_grid=grid, shots=shots, modes=("protected",)))
    assert calls["exact walk"] == -(-len(grid) // (harness._E_BLOCK // 3))


@pytest.mark.parametrize("seed", range(6))
def test_fidelity_of_a_decoded_batch_equals_each_final_alone(seed):
    # protected-correctness reads the summed final's fidelity with
    # readout.signal_intensity against |target><target|, so a batch of cells
    # gives each cell's fidelity to the bit, whatever the target; a random
    # normalized complex one here, where a (cells, 4) @ (4,) product is not
    # always the dot of a lone final
    cfg = SweepConfig(e_grid=tuple(k / 96 for k in range(49)), modes=("protected",))
    [(_, plan, _, preps, _, _)] = harness.mode_stacks(cfg)
    identity = np.eye(16, dtype=complex) / 16
    initial = np.concatenate([[sum(preps, identity), identity], preps])
    batches = harness._cell_batches(cfg.e_grid, plan, initial)
    decoded = np.concatenate([dfs.decode(finals)[0] for _, _, finals in batches])
    rng = np.random.default_rng(seed)
    target = rng.normal(size=4) + 1j * rng.normal(size=4)
    target /= np.linalg.norm(target)
    projector = np.outer(target, target.conj())
    batch = readout.signal_intensity(decoded, projector)
    assert batch.shape == (len(cfg.e_grid),)
    for fidelity, final in zip(batch, decoded):
        assert fidelity.tobytes() == np.float64(readout.signal_intensity(final, projector)).tobytes()


def test_immunity_check_on_the_stack_equals_each_state_alone():
    # the 16 operators _immunity_residual stacks, each through apply_channel alone
    ops = harness._encoded_operators()
    assert ops.shape == (16, 16, 16)
    worst = 0.0
    for e in harness.IMMUNITY_E_GRID:
        model = noise.engineered_model(e)
        for op, out in zip(ops, noise.apply_channel(ops, model)):
            alone = noise.apply_channel(op, model)
            assert out.tobytes() == alone.tobytes()
            worst = max(worst, qcore.frobenius_norm(alone - op))
    residuals = harness._immunity_residual()
    assert len(residuals) == 16 * len(harness.IMMUNITY_E_GRID) and max(residuals) == worst


@pytest.mark.parametrize("seed", range(4))
def test_encoded_operators_span_every_encoded_state(seed):
    # sum_i V_i |a><b| V_i^dagger are orthogonal, each of squared norm 4, so
    # a state's coefficient on each is its overlap / 4; dfs.encode(psi) is
    # (1/4) sum_ab psi_a psi_b^* of them, recovered to the bit
    ops = harness._encoded_operators()
    flat = ops.reshape(16, -1)
    assert np.linalg.matrix_rank(flat) == 16
    np.testing.assert_array_equal(flat.conj() @ flat.T, 4 * np.eye(16))
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = dfs.encode(psi)
    coeffs = flat.conj() @ rho.ravel() / 4
    np.testing.assert_array_equal(coeffs, np.outer(psi, psi.conj()).ravel() / 4)
    np.testing.assert_array_equal(np.tensordot(coeffs, ops, axes=1), rho)


@pytest.mark.parametrize("block", [1, 7, 256])
def test_word_pass_does_not_depend_on_its_block(block, monkeypatch):
    flip_table, transform = harness._word_pass()
    assert flip_table.shape == (256, 2) and len(transform) == 256 // harness._WORD_BLOCK
    monkeypatch.setattr(harness, "_WORD_BLOCK", block)
    blocked_table, blocked_transform = harness._word_pass()
    assert blocked_table.tobytes() == flip_table.tobytes()
    assert max(blocked_transform) == max(transform) == 0.0


def test_word_pass_holds_one_block_at_a_time():
    # the flip products and the transform of all 256 words at once peaked at
    # 4.2 MB and 3.1 MB, and the transform set verify's peak RSS
    harness._word_pass()  # the word matrices and the flip table are cached
    tracemalloc.start()
    try:
        harness._word_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_verify_reads_the_seed_only_in_its_monte_carlo_checks():
    # every other check is exhaustive: its residual's bytes do not depend on the seed
    cfg = SweepConfig(e_grid=(0.0, 0.25, 0.5), shots=16)
    runs = [{c.name: np.float64(c.residual).tobytes() for c in verify(replace(cfg, seed=seed))}
            for seed in (0, 2**64 - 1)]
    assert runs[0].keys() == runs[1].keys() and len(runs[0]) == 12
    for name in runs[0].keys() - {"frame-dense-shots", "mc-convergence"}:
        assert runs[0][name] == runs[1][name], name


def test_cli_verify_passes_without_noise_points(capsys):
    code = cli.main(["verify", "--placement", ",", "--e-grid", "0,0.25", "--shots", "4",
                     "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "11/11 checks passed"


def test_mc_convergence_keeps_the_bare_floor_on_protected_cells():
    # protected shots are all exact: the bound must be the 1e-12 floor alone,
    # not widened by a rounding-level P of negated shots
    checks = verify(SweepConfig(modes=("protected",), shots=64, seed=1))
    mc = {c.name: c for c in checks}["mc-convergence"]
    assert mc.passed
    assert mc.residual >= -1.01 * harness.NUMERICAL_FLOOR


@pytest.mark.parametrize("shots", ["1", "2"])
def test_cli_verify_passes_at_one_and_two_shots(shots, capsys):
    # the bound is an exact binomial test of the negated shots' count, at
    # the exact signal's P, not a sample variance, which is 0 whenever every
    # shot agrees
    assert cli.main(["verify", "--shots", shots]) == 0
    assert "12/12 checks passed" in capsys.readouterr().out


def test_cli_verify_passes_a_correct_program_at_one_shot_near_e_0(capsys):
    # one negated shot of a cell whose exact signal is 0.94 lies beyond 5
    # normal sigmas, but has probability 0.03, inside the exact binomial test
    argv = "verify --seed 5 --mode unprotected --e-grid 0.005 --shots 1".split()
    assert cli.main(argv) == 0, capsys.readouterr().out


def test_verify_tolerance_scales_with_shots():
    # the Monte-Carlo bound is the exact binomial test at whatever shot count
    # is configured
    checks = verify(SweepConfig(e_grid=(0.0, 0.3125), shots=32, seed=6))
    by_name = {c.name: c for c in checks}
    assert by_name["mc-convergence"].passed


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# sweep settings\n"
        "shots = 16\n"
        "seed = 9\n"
        "e_grid = 0, 0.25, 0.5\n"
        "modes = protected\n"
        "format = json\n"
    )
    mapping = load_config_file(path)
    cfg = build_config(mapping)
    assert cfg.shots == 16 and cfg.seed == 9
    assert cfg.modes == ("protected",) and cfg.format == "json"
    merged = dict(mapping)
    merged["shots"] = "32"  # flag-style override wins
    assert build_config(merged).shots == 32


def test_load_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("this is not a key value line\n")
    with pytest.raises(ConfigError):
        load_config_file(path)
    path.write_bytes(b"\xff\xfeshots = 2\n")  # not UTF-8
    with pytest.raises(ConfigError, match="cannot read config file .*'utf-8' codec"):
        load_config_file(path)
    with pytest.raises(ConfigError, match="shots"):
        build_config({"shots": "many"})
    with pytest.raises(ConfigError, match="frobnicate"):
        build_config({"frobnicate": "1"})


@pytest.mark.parametrize(
    "key, value",
    [("e_grid", "zero"), ("e_grid", [None]), ("seed", "x"), ("placement", "1,b"), ("shots", [2])],
)
def test_build_config_names_the_key_a_parser_rejects(key, value):
    # a parser's ValueError or TypeError becomes a ConfigError naming the key
    with pytest.raises(ConfigError, match=f"invalid {key} "):
        build_config({key: value})


def test_build_config_reads_mode_alias_and_typed_values():
    assert build_config({"mode": "both"}).modes == circuits.MODES
    cfg = build_config({"e_grid": (0, 0.25), "placement": [1, 3], "shots": 4, "seed": None})
    assert cfg.e_grid == (0.0, 0.25) and cfg.placement == (1, 3) and cfg.shots == 4
    assert cfg.seed == 0


def test_cli_run_writes_deterministic_output(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["run", "--e-grid", "0,0.5", "--shots", "16", "--seed", "7", "--mode", "unprotected"]
    assert cli.main(args + ["--output", str(out1)]) == 0
    assert cli.main(args + ["--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith(CSV_HEADER)


def test_cli_run_stdout_json(capsys):
    code = cli.main([
        "run", "--e-grid", "0", "--shots", "2", "--mode", "protected", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["mode"] == "protected"


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("e_grid = 0\nshots = 2\nmodes = protected\n")
    out = tmp_path / "o.csv"
    code = cli.main([
        "run", "--config", str(cfg_file), "--mode", "unprotected", "--output", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    text = out.read_text()
    assert ",unprotected," in text and ",protected," not in text


def test_cli_invalid_configuration_exits_2(capsys):
    assert cli.main(["run", "--e-grid", "0.9", "--shots", "2"]) == 2
    assert cli.main(["run", "--mode", "shielded"]) == 2
    assert cli.main(["run", "--e-grid", "zero"]) == 2
    assert cli.main(["run", "--mode", "protected,protected"]) == 2
    assert "modes must not repeat" in capsys.readouterr().err
    assert cli.main([
        "run", "--e-grid", "0", "--shots", "2", "--mode", "protected",
        "--output", "/nonexistent-dir/results.csv",
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output file /nonexistent-dir/results.csv: ")


def test_cli_run_checks_the_output_path_before_the_sweep(tmp_path, monkeypatch, capsys):
    def no_sweep(cfg):
        raise AssertionError("the sweep ran before the output path was checked")

    monkeypatch.setattr(harness, "_step_columns", no_sweep)
    path = tmp_path / "missing-dir" / "results.csv"
    assert cli.main(["run", "--output", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write output file {path}: ")


def test_cli_run_keeps_an_old_output_file_when_the_sweep_fails(tmp_path, capsys):
    out = tmp_path / "results.csv"
    out.write_text("old rows\n")
    assert cli.main(["run", "--placement", "99", "--output", str(out)]) == 2
    assert "placement" in capsys.readouterr().err
    assert out.read_text() == "old rows\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_run_writes_the_same_bytes_to_stdout_and_to_the_output_file(fmt, tmp_path, capsys):
    # 65 e values per mode: three exact batches of each mode's stack.  The
    # library's rows, through results_to_csv or results_to_json, give the
    # same text, and an old file longer than the table is cut to it
    command = [*DJ_BATCHES.split(), "--format", fmt]
    assert cli.main(command) == 0
    out = capsys.readouterr().out
    rows = run_sweep(build_config({"seed": 3, "algorithm": "deutsch-jozsa", "modes": "both",
                                   "shots": 2, "e_grid": DJ_BATCHES.split()[-1]}))
    assert (results_to_csv if fmt == "csv" else results_to_json)(rows) == out
    path = tmp_path / f"results.{fmt}"
    path.write_text("old rows\n" * len(out))
    assert cli.main([*command, "--output", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {2 * 3 * 65} rows to {path}\n"
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_run_that_fails_after_its_first_step_writes_nothing(
    fmt, to_file, tmp_path, monkeypatch, capsys
):
    # the protected steps draw nothing and each unprotected step counts its
    # negated shots once, so the second count fails after four steps'
    # columns are made
    drawn = []
    count = noise._negated_counts

    def fail_on_the_second_call(*args, **kwargs):
        drawn.append(args)
        if len(drawn) == 2:
            raise ValueError("the second draw failed")
        return count(*args, **kwargs)

    monkeypatch.setattr(noise, "_negated_counts", fail_on_the_second_call)
    path = tmp_path / "results"
    path.write_text("old rows\n")
    output = ["--output", str(path)] if to_file else []
    assert cli.main([*DJ_BATCHES.split(), "--format", fmt, *output]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: the second draw failed\n"
    assert path.read_text() == "old rows\n" and len(drawn) == 2


#: A deep-shots-shaped run: 3 cells x 32768 shots, each cell counted in units
#: on the worker threads.
DEEP_SHOTS = "run --seed 0 --mode unprotected --e-grid 0.25 --shots 32768"


def _parity_counts(e, seeds, shots, mask):
    """noise._negated_counts' oracle: the negated shots counted from the drawn flips."""
    flips = noise.draw_flips(e, seeds, shots, len(mask))
    return np.count_nonzero(harness._parity(flips, mask), axis=1)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("uniform_words", [4096 * 18, 4096], ids=["default-slices", "small-slices"])
def test_cli_run_bytes_do_not_depend_on_the_worker_count(
    workers, uniform_words, monkeypatch, capsys
):
    # units of 1000 words hold 55 shots (990 words), so most start inside a
    # Philox block; with slices of 4096 words the default run's cells, and
    # the 70001-shot run's last 4465 shots, are counted in units too
    monkeypatch.setattr(noise, "_negated_counts", _parity_counts)
    assert cli.main(DEEP_SHOTS.split()) == 0
    deep = capsys.readouterr().out
    monkeypatch.undo()
    monkeypatch.setattr(noise, "_WORKERS", workers)
    monkeypatch.setattr(noise, "_UNIT_WORDS", 1000)
    monkeypatch.setattr(noise, "_UNIFORM_WORDS", uniform_words)
    command = "run --seed 5 --mode unprotected --shots 70001 --e-grid 0.125,0.375"
    _assert_golden_stdout(command, GOLDEN_BATCH_SHA256[command], capsys)
    _assert_golden_stdout("run --seed 0", GOLDEN_RUN_SEED_0_SHA256, capsys)
    assert cli.main(DEEP_SHOTS.split()) == 0
    assert capsys.readouterr().out == deep


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_cli_run_whose_worker_unit_fails_writes_nothing(to_file, tmp_path, monkeypatch, capsys):
    # the first step's cell is counted on two threads; a unit that raises on
    # the worker thread fails the run as any draw does, after every thread
    # is joined.  The caller's first unit waits for the failure, so the
    # worker surely takes a unit
    monkeypatch.setattr(noise, "_WORKERS", 2)
    draw, caller, failed = noise._draw, threading.current_thread(), threading.Event()

    def fail_on_the_worker(*args):
        if threading.current_thread() is not caller:
            failed.set()
            raise ValueError("a unit's draw failed")
        assert failed.wait(timeout=60)
        return draw(*args)

    monkeypatch.setattr(noise, "_draw", fail_on_the_worker)
    path = tmp_path / "results"
    path.write_text("old rows\n")
    output = ["--output", str(path)] if to_file else []
    before = threading.active_count()
    assert cli.main([*DEEP_SHOTS.split(), *output]) == 2
    assert threading.active_count() == before
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: a unit's draw failed\n"
    assert path.read_text() == "old rows\n"


def test_run_memory_does_not_grow_with_the_noise_points():
    # 65536 shots at e = 0.25 with every noise point at boundary 3: the shots
    # are counted in units of _UNIT_WORDS words, the damage audit transforms
    # each boundary once, and points that touch the same entry classes share
    # one schedule array, so 300 points peak near 9 (1.6 to 1.9 times); drawn
    # as flips, 300 points held 118 MB of RSS
    def peak(points: int) -> int:
        cfg = SweepConfig(e_grid=(0.25,), shots=65536, modes=("unprotected",),
                          placement=(3,) * points)
        tracemalloc.start()
        try:
            for _ in harness.csv_steps(cfg):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(9)  # warm-up
    assert peak(300) < 2.5 * peak(9)


def test_verify_memory_does_not_grow_with_the_noise_points(monkeypatch):
    # 2048 shots at e = 0.25 with every noise point at boundary 3: verify
    # draws each step in blocks of at most noise._BLOCK_FLIPS flips, and the
    # dense oracle reads each block's flips reshaped, not copied, so 300
    # points peak near 9 (1.4 times); every shot's flips in one block,
    # copied once more for the oracle, would peak at 3.3 times.  Below nine
    # points a block holds no more shots than at nine, as the oracle keeps a
    # few indices a shot: 65536 shots at one point peak below nine's, and
    # 2.2 times as high in one block of the budget's flips.  The budget is
    # cut to a quarter, five blocks a step at 300 points, to keep the test
    # short
    monkeypatch.setattr(noise, "_BLOCK_FLIPS", noise._BLOCK_FLIPS // 4)

    def peak(points: int, shots: int = 2048) -> int:
        cfg = SweepConfig(e_grid=(0.25,), shots=shots, modes=("unprotected",),
                          placement=(3,) * points)
        tracemalloc.start()
        try:
            assert all(c.passed for c in harness.verify(cfg))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(9)  # warm-up
    assert peak(300) < 2 * peak(9)
    assert peak(1, 65536) < 1.25 * peak(9, 65536)


def test_csv_steps_computes_one_theory_column_per_damage_count(monkeypatch, capsys):
    # Deutsch-Jozsa's n are 0/0/0 and 4/8/4: three distinct counts, so three
    # theory columns over the 65 e values of its golden, which keeps its bytes
    calls = []
    theory = readout.theory_curve

    def spy(n, e):
        calls.append(n)
        return theory(n, e)

    monkeypatch.setattr(readout, "theory_curve", spy)
    _assert_golden_stdout(DJ_BATCHES, GOLDEN_BATCH_SHA256[DJ_BATCHES], capsys)
    assert sorted(set(calls)) == [0, 4, 8] and len(calls) == 3 * 65


def test_cli_run_csv_makes_no_signal_result(monkeypatch, capsys):
    def no_rows(*args):
        raise AssertionError("run --format csv made a SignalResult")

    monkeypatch.setattr(harness, "SignalResult", no_rows)
    _assert_golden_stdout(DJ_BATCHES, GOLDEN_BATCH_SHA256[DJ_BATCHES], capsys)


def test_cli_run_csv_holds_little_more_than_its_text(tmp_path):
    # 4000 e values x 2 modes x 3 steps = 24000 rows at 2 shots: the rows are
    # formatted step by step from the sweep's columns, so the traced peak
    # stays near the 1.8 MB of text; rows built as objects and then joined
    # into one string peaked at 7.4 times the text
    path = tmp_path / "results.csv"
    command = ["run", "--algorithm", "deutsch-jozsa", "--mode", "both", "--shots", "2"]
    assert cli.main([*command, "--e-grid", "0,0.25", "--output", str(path)]) == 0  # warm-up
    grid = ",".join(repr(k / 8000) for k in range(4000))
    tracemalloc.start()
    try:
        assert cli.main([*command, "--e-grid", grid, "--output", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size


def test_cli_verify_json_report(capsys):
    code = cli.main([
        "verify", "--e-grid", "0.25", "--shots", "8", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    names = {entry["name"] for entry in payload}
    assert "dfs-immunity" in names
    assert all(list(entry) == [f.name for f in fields(VerifyCheck)] for entry in payload)
    assert all(entry["passed"] for entry in payload)


def test_cli_verify_exit_code_and_report(capsys):
    code = cli.main(["verify", "--e-grid", "0,0.5", "--shots", "16", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS dfs-immunity" in out
    assert "checks passed" in out


def test_cli_show_basis(capsys):
    assert cli.main(["show-basis"]) == 0
    out = capsys.readouterr().out
    assert "subspace 1" in out and "|0000>" in out
    assert "XXII=+1 IIXX=-1 XXXX=-1" in out


def test_cli_count_n(capsys):
    assert cli.main(["count-n", "--mode", "unprotected"]) == 0
    out = capsys.readouterr().out
    assert "step=Z1: n = 6" in out
    assert "step=Z1Z4: n = 12" in out
    assert "step=Z4: n = 6" in out


def test_cli_random_seed_is_reported(capsys):
    code = cli.main([
        "run", "--seed", "random", "--e-grid", "0", "--shots", "2", "--mode", "protected",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "# seed =" in captured.err
    assert captured.out.split("\n", 1)[0] == CSV_HEADER
    code = cli.main([
        "run", "--seed", "random", "--e-grid", "0", "--shots", "2", "--mode", "protected",
        "--format", "json",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "# seed =" in captured.err
    assert len(json.loads(captured.out)) == 3


@pytest.mark.parametrize("shots", [1, 3, 64])
def test_cli_run_signal_mc_is_a_whole_count_of_negated_shots(shots, capsys):
    assert cli.main(["run", "--shots", str(shots), "--seed", "4"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 54
    for row in rows:
        mc = float(row["signal_mc"])
        negated = round((1 - mc) * shots / 2)
        assert mc == 1 - 2 * negated / shots and -1.0 <= mc <= 1.0
        if shots == 1:
            assert mc in (1.0, -1.0)


def test_cli_imports_secrets_only_for_a_random_seed():
    src = str(Path(dfsim.__file__).resolve().parents[1])
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "from dfsim import cli\n"
        "assert 'secrets' not in sys.modules, 'import dfsim.cli imported secrets'\n"
        "sys.exit(cli.main(['run', '--seed', 'random', '--e-grid', '0', '--shots', '2',"
        " '--mode', 'protected']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("# seed = ")
    assert proc.stdout.split("\n", 1)[0] == CSV_HEADER


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--output", "out.csv"],
        ["count-n", "--e-grid", "0"],
        ["count-n", "--shots", "5"],
        ["count-n", "--seed", "random"],
        ["count-n", "--output", "out.csv"],
        ["count-n", "--format", "json"],
        ["show-basis", "--config", "sweep.cfg"],
    ],
)
def test_cli_rejects_options_the_command_does_not_read(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "# seed" not in captured.err
    assert list(tmp_path.iterdir()) == []


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The run over 65 e values per mode at 2 shots.  Each mode's stack of three
#: steps is evolved in exact batches of harness._E_BLOCK // 3 e values (42
#: and 23 at 128 rows); each gate is two 16 x 16 by 16 x (16 rows)
#: products, whose k sums must depend neither on the BLAS kernel nor on the
#: batch's width.
DJ_BATCHES = "run --seed 3 --algorithm deutsch-jozsa --mode both --shots 2 --e-grid " + ",".join(
    repr(k / 128) for k in range(65)
)

#: The file under tests/golden that holds the stdout of each pinned command.
#: Every one but count-n's was re-pinned once when the Hadamard pair got exact
#: entries and signal_intensity became a fixed-order sum, which made the bytes
#: the same on every BLAS kernel (test_stdout_does_not_depend_on_the_blas_kernel).
#: The seven verify ones were re-pinned once more when three sampled checks
#: became exhaustive (flip-anticommutation, pauli-transform-inverse, and
#: dfs-immunity over 16 spanning operators) and four tolerances became exact:
#: only those checks' lines and those tolerance fields changed.
GOLDEN_FILES = {
    "count-n": "count-n.txt",
    "count-n --algorithm deutsch-jozsa --placement 0,2,4": "count-n-dj-placement.txt",
    "run --seed 0": "run-seed-0.csv",
    "verify --seed 0": "verify-seed-0.txt",
    "verify --seed 0 --mode protected --e-grid 0.25": "verify-protected.txt",
    "verify --seed 0 --algorithm deutsch-jozsa --mode unprotected --shots 4 --e-grid 0.25":
        "verify-dj-unprotected.txt",
    "verify --seed 0 --placement 1,2 --e-grid 0.25 --shots 16": "verify-placement.txt",
    "run --seed 0 --e-grid 0,0.25 --shots 16 --format json": "run.json",
    "verify --seed 0 --shots 64 --e-grid 0,0.25,0.5 --format json": "verify.json",
    "verify --seed 0 --mode unprotected --e-grid 0.1,0.3 --format json": "verify-unprotected.json",
    DJ_BATCHES: "run-dj-batches.csv",
    "run --seed 5 --mode unprotected --shots 70001 --e-grid 0.125,0.375": "run-70001-shots.csv",
    "run --seed 0 --placement 1,2 --e-grid 0,0.25,0.5": "run-placement.csv",
    "verify --seed 0 --mode unprotected,protected --shots 16 --e-grid 0.1,0.3":
        "verify-reversed.txt",
}


def _assert_golden_stdout(command: str, sha256: str, capsys) -> None:
    """The stdout of ``command`` must equal its golden file byte for byte, and
    hash to ``sha256``; a mismatch names the first line that differs."""
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out.encode()
    name = GOLDEN_FILES[command]
    golden = (GOLDEN_DIR / name).read_bytes()
    pairs = itertools.zip_longest(out.splitlines(True), golden.splitlines(True))
    for lineno, (got, want) in enumerate(pairs, start=1):
        assert got == want, f"{name}: line {lineno} is {got!r}, golden {want!r}"
    assert hashlib.sha256(out).hexdigest() == sha256


def test_every_golden_file_is_pinned():
    assert sorted(path.name for path in GOLDEN_DIR.iterdir()) == sorted(GOLDEN_FILES.values())


#: sha256 of the stdout of count-n, the rows of each mode's stacked damage
#: audit: one noise-free evolution of the mode's three preparations, as run
#: and verify take it, whose words and flags must not depend on the BLAS
#: kernel.  Re-pin only on purpose, and say why in CHANGES.md.
GOLDEN_COUNT_N_SHA256 = {
    "count-n": "5dfcb1c107794f648e7ec07e001e303b3fe13509cc2558f6bb9fdc56d3c454db",
    "count-n --algorithm deutsch-jozsa --placement 0,2,4":
        "40a8ea586dab7ffd76d4c55fbce00aa88ad1af3329a300c5d7892a9a34094e23",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_COUNT_N_SHA256))
def test_cli_count_n_matches_golden_stdout(command, capsys):
    _assert_golden_stdout(command, GOLDEN_COUNT_N_SHA256[command], capsys)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_cli_count_n_prints_the_per_word_audit(algorithm, placement, capsys):
    # every mode and step of the plan, one point and one Pauli word at a time
    command = ["count-n", "--algorithm", algorithm, "--placement", ",".join(map(str, placement))]
    assert cli.main(command) == 0
    expected = []
    for mode in circuits.MODES:
        plan = circuits.assemble(mode, algorithm, placement=placement)
        for step in readout.steps_for_mode(mode):
            audit = per_word_audit(plan, step.deviation)
            n = sum(sum(flags) for *_, flags in audit)
            expected.append(f"mode={mode} step={step.label}: n = {n}\n")
            expected += [
                f"  point {point} (boundary {boundary}): state {state}, "
                f"damaging operators {sum(flags)}\n"
                for point, boundary, state, flags in audit
            ]
    assert capsys.readouterr().out == "".join(expected)


def test_cli_closed_stdout_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before dfsim writes a byte
    src = str(Path(dfsim.__file__).resolve().parents[1])
    # buffered stdout, as on any pipe: the write fails at the final flush
    env = {**os.environ, "PYTHONUNBUFFERED": ""}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dfsim.cli", "count-n"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == cli._EXIT_BROKEN_PIPE


def test_cli_count_n_draws_no_seed(tmp_path, capsys):
    # keys count-n does not read may stay in a shared config file
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("seed = random\nshots = 2\nmodes = unprotected\n")
    assert cli.main(["count-n", "--config", str(cfg_file)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "step=Z1Z4: n = 12" in captured.out


@pytest.mark.parametrize("shots", [1, 7, 8, 64, 2048])
def test_mc_signal_does_not_depend_on_the_shot_block(shots, monkeypatch):
    # one noise._negated_counts call over all the shots; with every budget
    # of noise at 7 shots of the mask's 18 words, it draws them in units of
    # 7 shots, on the calling thread below 28 shots and on the workers above
    plan = circuits.assemble("unprotected")
    _, mask = circuits.damage_audit(plan, readout.unprotected_steps()[1].deviation)
    assert mask.size == 18
    one_block = harness._mc_signal(mask, (0.3,), shots, (11,))
    counted, drawn = [], []
    unblocked, draw = noise._negated_counts, noise._draw

    def spy(e, seed, count, mask):
        counted.append(count)
        return unblocked(e, seed, count, mask)

    def draw_spy(philox, key, threshold, offset, out):
        drawn.append((offset // 18, len(out)))
        return draw(philox, key, threshold, offset, out)

    monkeypatch.setattr(noise, "_negated_counts", spy)
    monkeypatch.setattr(noise, "_draw", draw_spy)
    for budget in ("_BLOCK_FLIPS", "_UNIFORM_WORDS", "_UNIT_WORDS"):
        monkeypatch.setattr(noise, budget, 7 * 18)
    assert harness._mc_signal(mask, (0.3,), shots, (11,)) == one_block
    assert counted == [shots]
    assert sorted(drawn) == [(first, min(7, shots - first)) for first in range(0, shots, 7)]


@pytest.mark.parametrize("shots", [1, 70000])
@pytest.mark.parametrize(
    "mask", [np.zeros((9, 2), dtype=bool), np.zeros((0, 2), dtype=bool)], ids=["harmless", "no-points"]
)
def test_mc_signal_of_a_mask_without_damage_draws_nothing(mask, shots, monkeypatch):
    # every shot reads +1, so k = 0: mean 1 - 2k/shots = 1.0, standard error 0.0
    def spy(*args, **kwargs):
        raise AssertionError("a plan without damaging flips drew shots")

    monkeypatch.setattr(noise, "draw_flips", spy)
    monkeypatch.setattr(noise, "_negated_counts", spy)
    means, stderrs = harness._mc_signal(mask, (0.0, 0.25, 0.5), shots, (1, 2, 3))
    assert means == [1.0] * 3 and stderrs == [0.0] * 3
    assert all(type(v) is float for v in means + stderrs)


@pytest.mark.parametrize(
    "shots, modes",
    [
        pytest.param(shots, modes, id=f"{shots}{suffix}")
        for suffix, modes in (("", ("unprotected",)), ("-both", circuits.MODES))
        for shots in (1, 3, 20)
    ],
)
def test_sweep_does_not_depend_on_the_cell_batch(shots, modes, monkeypatch):
    # run counts step by step over the whole grid, whatever the exact batches
    # (_E_BLOCK // 3 cells): each unprotected step in turn, in one
    # noise._negated_counts call, which draws units of 12 // shots cells, at
    # least one, under a budget of 12 shots of 18 flips (the cells of the
    # flips each _draw fills); protected plans have no damaging flip and
    # draw nothing
    grid = tuple(k / 64 for k in range(33))
    cfg = SweepConfig(e_grid=grid, shots=shots, seed=6, modes=modes)
    one_cell_at_a_time = []
    for mode_idx, plan, steps, *_ in harness.mode_stacks(cfg):
        for step, keys in zip(steps, harness._step_keys(cfg, mode_idx, 3)):
            _, mask = circuits.damage_audit(plan, step.deviation)
            for e, key in zip(grid, keys):
                one_cell_at_a_time += zip(*harness._mc_signal(mask, (e,), shots, (key,)))
    drawn, units = [], set()
    batched, draw = noise._negated_counts, noise._draw

    def spy(e, seeds, count, mask):
        drawn.append((len(seeds), count))
        return batched(e, seeds, count, mask)

    def draw_spy(philox, key, threshold, offset, out):
        units.add(out.base.shape[1])  # out is one cell's row of the unit's flips
        return draw(philox, key, threshold, offset, out)

    monkeypatch.setattr(noise, "_negated_counts", spy)
    monkeypatch.setattr(noise, "_draw", draw_spy)
    monkeypatch.setattr(harness, "_E_BLOCK", 8)
    monkeypatch.setattr(noise, "_BLOCK_FLIPS", 12 * 18)
    rows = run_sweep(cfg)
    assert [(r.signal_mc, r.mc_stderr) for r in rows] == one_cell_at_a_time
    assert drawn == [(33, shots)] * 3  # three unprotected steps
    assert units == {max(1, 12 // shots)}


def test_fine_grid_sweep_draws_once_per_step(monkeypatch):
    # 513 Deutsch-Jozsa e values at 2 shots: each of the three unprotected
    # steps counts its 1026 shots in one noise._negated_counts call, which
    # draws each cell once, all 513 in one unit.  With a _BLOCK_FLIPS of
    # 100 shots' flips that call counts 50 cells (100 shots) a unit, with
    # the same calls, draws and rows
    cfg = SweepConfig(
        e_grid=tuple(k / 1024 for k in range(513)), shots=2, modes=circuits.MODES,
        algorithm="deutsch-jozsa",
    )
    drawn, sizes, units = [], set(), set()
    batched, draw = noise._negated_counts, noise._draw

    def spy(e, seeds, count, mask):
        drawn.append(len(seeds) * count)
        sizes.add(mask.size)
        return batched(e, seeds, count, mask)

    def draw_spy(philox, key, threshold, offset, out):
        drawn.append((offset, out.shape))
        units.add(out.base.shape[1])  # out is one cell's row of the unit's flips
        return draw(philox, key, threshold, offset, out)

    monkeypatch.setattr(noise, "_negated_counts", spy)
    monkeypatch.setattr(noise, "_draw", draw_spy)
    rows = run_sweep(cfg)
    [words] = sizes  # a shot's flips
    assert drawn == ([513 * 2] + [(0, (2, words))] * 513) * 3 and units == {513}
    drawn.clear()
    units.clear()
    monkeypatch.setattr(noise, "_BLOCK_FLIPS", 100 * words)
    assert run_sweep(cfg) == rows
    assert drawn == ([513 * 2] + [(0, (2, words))] * 513) * 3 and units == {50}


@pytest.mark.parametrize("length", [1, 7, 8, 20])
def test_sweep_does_not_depend_on_the_e_block(length, monkeypatch):
    # zeros (E0 only) and e > 0 share blocks
    grid = tuple((k % 5) * 0.1 for k in range(length))
    cfg = SweepConfig(e_grid=grid, shots=4, seed=9, modes=("unprotected",))
    one_block = results_to_csv(run_sweep(cfg))
    monkeypatch.setattr(harness, "_E_BLOCK", 7)
    assert results_to_csv(run_sweep(cfg)) == one_block


@pytest.mark.parametrize(
    "modes, shots, block",
    [
        (("unprotected", "protected"), 3, 12),
        (("protected",), 3, 12),
        (SweepConfig().modes, 3, 12),
        (SweepConfig().modes, 5, 2),
    ],
    ids=["reversed", "protected", "default", "multi-block"],
)
def test_verify_does_not_depend_on_the_cell_batch(modes, shots, block, monkeypatch):
    # 20 cells per mode: two batches of 12 and 8 by default, one cell per
    # batch (7 // 5 rows) with the small blocks; with a _BLOCK_FLIPS of 2
    # shots at the unprotected steps' nine noise points, each cell of 5
    # shots is drawn in three blocks.  Every residual and the reported worst
    # cell must agree
    cfg = SweepConfig(e_grid=tuple(k / 40 for k in range(20)), shots=shots, modes=modes)
    default = [repr(check) for check in harness.verify(cfg)]
    monkeypatch.setattr(harness, "_E_BLOCK", 7)
    monkeypatch.setattr(noise, "_BLOCK_FLIPS", block * 18)
    assert [repr(check) for check in harness.verify(cfg)] == default


@pytest.mark.parametrize(
    "modes", [("protected", "unprotected"), ("unprotected", "protected")], ids=["default", "reversed"]
)
def test_verify_draws_each_unprotected_step_once_whatever_the_e_block(modes, monkeypatch):
    # verify draws each of the three unprotected steps' nine cells in one call
    # of 2048 shots, whatever the exact batches, and under the keys run draws
    # them with: _step_keys of the mode's index in cfg.modes.  No flip changes
    # a protected state, so the protected steps draw nothing, as in run
    cfg = SweepConfig(modes=modes)
    drawn, keyed = [], []
    batched = noise.draw_flips

    def spy(e, seeds, count, points, first=0):
        drawn.append((len(seeds), count, first))
        keyed.append(tuple(seeds))
        return batched(e, seeds, count, points, first=first)

    monkeypatch.setattr(noise, "draw_flips", spy)
    schedules = []
    for block in (64, 7):
        monkeypatch.setattr(harness, "_E_BLOCK", block)
        drawn.clear()
        assert all(c.passed for c in harness.verify(cfg))
        schedules.append(list(drawn))
    assert schedules == [[(9, 2048, 0)] * 3] * 2
    unprotected = modes.index("unprotected")
    keys = [tuple(step) for step in harness._step_keys(cfg, unprotected, 3)]
    protected = {tuple(step) for step in harness._step_keys(cfg, 1 - unprotected, 3)}
    assert keyed == keys * 2
    assert not protected & set(keyed)  # verify draws no protected cell
    keyed.clear()
    counted = noise._negated_counts

    def count_spy(e, seeds, count, mask):
        keyed.append(tuple(seeds))
        return counted(e, seeds, count, mask)

    monkeypatch.setattr(noise, "_negated_counts", count_spy)
    run_sweep(cfg)
    assert keyed == keys  # run counts no protected cell


def test_mc_convergence_reports_the_first_worst_cell_in_step_order(monkeypatch):
    # verify draws each step's whole grid once, so _parity is called once per
    # step, for both cells; the exact batches hold one cell each (5 // 5
    # rows).  Without noise points every exact final is the step's noiseless
    # one, of signal 1, so the binomial radius is 0; a cell whose one shot is
    # counted negated has mean -rho_ref and margin 2 ||rho_ref|| -
    # NUMERICAL_FLOOR.  The steps' references have one norm, so step 0 at
    # e = 0.2 and step 1 at e = 0.1 tie at the worst; step order wins.
    # Without noise points noise._invariant_final finds the one final of every
    # flip history, and no step would be drawn: it is faked to find none.
    cfg = SweepConfig(e_grid=(0.1, 0.2), shots=1, modes=("unprotected",), placement=())
    [(_, plan, *_)] = harness.mode_stacks(cfg)
    steps = readout.unprotected_steps()
    norms = {qcore.frobenius_norm(noise.run_plan_exact(plan, 0.0, s.deviation)) for s in steps}
    negated = iter([[False, True], [True, False], [False, False]])  # (e = 0.1, 0.2) per step

    def fake(flips, mask):
        return np.reshape(next(negated), flips.shape[:2])

    monkeypatch.setattr(harness, "_parity", fake)
    monkeypatch.setattr(noise, "_invariant_final", lambda plan, initial: None)
    monkeypatch.setattr(harness, "_E_BLOCK", 5)
    [check] = [c for c in harness.verify(cfg) if c.name == "mc-convergence"]
    [norm] = norms
    assert check.residual == 2 * norm - harness.NUMERICAL_FLOOR
    label = steps[0].label
    assert check.detail.startswith(f"worst cell mode=unprotected step={label} e=0.2;")
    assert next(negated, None) is None


def test_sweep_memory_does_not_grow_with_the_e_grid(monkeypatch):
    # The exact finals are consumed a block at a time: a 1025-value grid
    # would add 4 MiB if they were held at once.  The shot draws, bounded by
    # _SHOT_BLOCK, are replaced by a constant to keep the test short, and a
    # warm-up sweep keeps one-time allocations out of both peaks.
    def constant(mask, e, shots, seeds):
        return [1.0] * len(seeds), [0.0] * len(seeds)

    monkeypatch.setattr(harness, "_mc_signal", constant)
    peaks = []
    for values in (2, 129, 1025):
        grid = tuple(k / (2 * (values - 1)) for k in range(values))
        cfg = SweepConfig(e_grid=grid, shots=1, modes=("protected",), algorithm="deutsch-jozsa")
        tracemalloc.start()
        try:
            run_sweep(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] <= 1.5 * peaks[1]


def test_negative_zero_e_is_written_and_reported_as_zero(capsys):
    assert math.copysign(1.0, build_config({"e_grid": "-0,0.25"}).e_grid[0]) == 1.0
    assert math.copysign(1.0, SweepConfig(e_grid=(-0.0,)).e_grid[0]) == 1.0
    assert cli.main(["run", "--e-grid=-0,0.25", "--shots", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 12 and {row.split(",")[0] for row in rows} == {"0.0", "0.25"}
    assert cli.main(["verify", "--e-grid", "-0", "--shots", "2"]) == 0
    out = capsys.readouterr().out
    assert " e=0;" in out and "e=-0" not in out


def test_cli_rejects_negative_seed(capsys):
    assert cli.main(["run", "--seed", "-3", "--e-grid", "0", "--shots", "2"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_rejects_a_seed_of_2_64(source, tmp_path, capsys):
    # a cell's Philox key holds the seed in its low 64 bits
    if source == "flag":
        args = ["--seed", "18446744073709551616"]
    else:
        path = tmp_path / "seed.cfg"
        path.write_text("seed = 18446744073709551616\n")
        args = ["--config", str(path)]
    assert cli.main(["run", *args, "--e-grid", "0", "--shots", "2"]) == 2
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer below 2**64, got 18446744073709551616" in err


def test_cli_runs_the_largest_seed(capsys):
    command = ["run", "--seed", "18446744073709551615", "--mode", "unprotected", "--shots", "2"]
    assert cli.main([*command, "--e-grid", "0.25"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


#: The console-script invocations of the tier1 workflow that no other test
#: runs as written, each with the exit code the workflow expects
#: and, beside it, the workflow's reason.  {tmp} is a fresh directory, as
#: $RUNNER_TEMP is there.
WORKFLOW_INVOCATIONS = [
    # seed 2**64 - 1 fills the low 64 bits of every cell's Philox key, so
    # the keys run at the top of the 128-bit range end to end
    pytest.param("verify --seed 18446744073709551615 --mode unprotected", 0,
                 id="verify-at-the-largest-seed"),
    # 40 exact e values in batches of 25 and 15 (harness._E_BLOCK // 5
    # for each mode's stack of 5, at 128 rows), each step's 40 cells in one
    # draw call, unprotected walked first; every check must pass
    pytest.param("verify --seed 0 --mode unprotected,protected --shots 3 --e-grid "
                 + ",".join(str(k / 80) for k in range(40)), 0,
                 id="verify-several-cell-batches-in-reversed-mode-order"),
    # 70 e values x 3 steps are 210 (state, e) rows per mode, evolved in
    # two batches of at most 42 e values (harness._E_BLOCK // 3, at 128 rows)
    pytest.param("run --seed 0 --algorithm deutsch-jozsa --mode both --shots 2 --e-grid "
                 + ",".join(str(k / 138) for k in range(70)) + " --output {tmp}/dj.csv", 0,
                 id="run-a-mode-stack-over-several-exact-blocks"),
    # run and count-n through the console script: a run that writes its
    # table to --output
    pytest.param("run --seed 0 --shots 16 --e-grid 0,0.25 --output {tmp}/run.csv", 0,
                 id="run-to-an-output-file"),
    # the protected run draws nothing (no flip damages a protected plan),
    # though its 70000 shots exceed one noise._BLOCK_FLIPS of flips
    # (65536 shots at the nine noise points)
    pytest.param("run --seed 0 --mode protected --shots 70000 --e-grid 0.25 --output {tmp}/p.csv",
                 0, id="run-protected-past-one-shot-block"),
    # flag values go through the config-file parser, so both exit 2
    pytest.param("run --shots abc", 2, id="reject-a-bad-flag-value"),
    pytest.param("run --config {tmp}/bad.cfg", 2, id="reject-a-bad-config-file-value"),
    # 2 e values x 40000 shots per plan exceed one draw block of
    # noise._BLOCK_FLIPS flips (65536 shots at the nine noise points), so
    # the dense oracle takes one cell per draw call; each exact batch still
    # holds both e values
    pytest.param("verify --seed 0 --mode unprotected --e-grid 0.25,0.5 --shots 40000", 0,
                 id="verify-past-one-shot-block"),
    # placement 0 leaves gates after the last noise point, so the exact
    # path's last operation on every (state, e) row is a real matmul
    pytest.param("verify --seed 0 --placement 0 --e-grid 0.25,0.5", 0,
                 id="verify-a-plan-ending-in-a-gate"),
]


@pytest.mark.parametrize("command, code", WORKFLOW_INVOCATIONS)
def test_cli_exits_as_the_workflow_expects(command, code, tmp_path):
    (tmp_path / "bad.cfg").write_text("algorithm = foo\n")
    assert cli.main(command.format(tmp=tmp_path).split()) == code


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("shots", 2.5)])
def test_config_rejects_a_non_integer_seed_or_shots(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {value}$"):
        SweepConfig(**{field: value})


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("shots", "abc", "invalid shots 'abc': invalid literal for int() with base 10: 'abc'"),
        ("algorithm", "foo", "unknown algorithm 'foo'"),
        ("format", "xml", "format must be csv or json, got 'xml'"),
    ],
)
def test_cli_gives_a_bad_flag_value_the_config_file_message(
    key, value, message, source, tmp_path, capsys
):
    # flag values are parsed and checked by harness.build_config, as a
    # config file's are, not by argparse
    if source == "flag":
        args = [f"--{key}", value]
    else:
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {value}\n")
        args = ["--config", str(path)]
    assert cli.main(["run", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _numpy_blas_is_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # NumPy before 1.26 only prints its build configuration
        return False
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="NumPy's BLAS is not OpenBLAS")
def test_stdout_does_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE picks the kernels of a DYNAMIC_ARCH OpenBLAS when it
    # loads: Haswell's fuse multiply and add, Prescott's do not.  The gates'
    # entries are exact and the overlaps are fixed-order ufunc sums, so every
    # printed digit must agree; with gates built from 1/sqrt(2) and np.vdot
    # overlaps, both commands differ between the two
    src = str(Path(dfsim.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for command in ("run --seed 0 --e-grid 0.125,0.25", "verify --seed 0 --e-grid 0.25"):
        stdout = []
        for core in ("Haswell", "Prescott"):
            env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": pythonpath}
            argv = [sys.executable, "-m", "dfsim.cli", *command.split()]
            proc = subprocess.run(argv, capture_output=True, env=env, timeout=120, check=True)
            stdout.append(proc.stdout)
        assert stdout[0] == stdout[1], command


#: sha256 of the stdout of `dfsim run --seed 0`.  Re-pin only when output
#: bytes change on purpose, and say why in CHANGES.md.
GOLDEN_RUN_SEED_0_SHA256 = "9d35fa381e37216723e6cc565bdf18f6c872a70d46206eba58faa148606923ec"


def test_cli_run_seed_0_matches_golden_csv(capsys):
    _assert_golden_stdout("run --seed 0", GOLDEN_RUN_SEED_0_SHA256, capsys)


#: sha256 of the stdout of a run whose plans end in a gate: noise points 1
#: and 2 only, so the exact path's last operation is a gate, not the channel.
#: The exact finals end in a real matmul, and the references, from the
#: noise-free walk, in a complex one; both must give the golden bytes on
#: every BLAS kernel.
#: Re-pin only when output bytes change on purpose, and say why in CHANGES.md.
GOLDEN_RUN_PLACEMENT_SHA256 = "ada5a75aeb79c74c1439889e86ddffd2c7e20dfa52ef7e2b468be47bb97bc398"


def test_cli_run_ending_in_a_gate_matches_golden_csv(capsys):
    command = "run --seed 0 --placement 1,2 --e-grid 0,0.25,0.5"
    _assert_golden_stdout(command, GOLDEN_RUN_PLACEMENT_SHA256, capsys)


#: sha256 of the stdout of `dfsim verify --seed 0`.  The dense oracle's
#: residuals are printed to three digits, so any change in its arithmetic
#: shows here; re-pin only on purpose, and say why in CHANGES.md.
GOLDEN_VERIFY_SEED_0_SHA256 = "d59285e4e84c1e1a66996776c079e4e9fd4b0f99a358a9e4ee22d11623bf8e38"


def test_cli_verify_seed_0_matches_golden_stdout(capsys):
    _assert_golden_stdout("verify --seed 0", GOLDEN_VERIFY_SEED_0_SHA256, capsys)


#: sha256 of the stdout of verify on paths the default does not take: one
#: mode only (damage-count-consistency still audits the unprotected plans),
#: another algorithm, a placement that ends in a gate, without
#: damage-count-values, and the reversed mode order (verify walks cfg.modes
#: in order, then the other mode, as run does).
#: Re-pinned once when verify gained frame-dense-shots and mc-convergence
#: became an exact binomial test of the negated shots' count; the
#: Deutsch-Jozsa one again when each cell's Philox key became
#: (seed, mode, step, e index), which moved its worst mc-convergence cell.
GOLDEN_VERIFY_PATHS_SHA256 = {
    "verify --seed 0 --mode protected --e-grid 0.25":
        "21b097750434a2d7659849e2ab2082c49dfe03dffa431dfe4857b0a7ecff2c03",
    "verify --seed 0 --algorithm deutsch-jozsa --mode unprotected --shots 4 --e-grid 0.25":
        "59e9322ab0a120c91a8192d591b3512964bb73a79039f9e9f42258a441a903a7",
    "verify --seed 0 --placement 1,2 --e-grid 0.25 --shots 16":
        "8a545aeb2c84de83eb45e99797ace81ca9280e8500e9601c3c04db7b4954a1cd",
    # both modes in reverse order: the worst cell is in protected, the second
    # mode walked, so its label is read from the second swept mode
    "verify --seed 0 --mode unprotected,protected --shots 16 --e-grid 0.1,0.3":
        "06300882829114395c14feb646b96c80a70c448d122199c891c18d3c79093755",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_VERIFY_PATHS_SHA256))
def test_cli_verify_paths_match_golden_stdout(command, capsys):
    _assert_golden_stdout(command, GOLDEN_VERIFY_PATHS_SHA256[command], capsys)


#: sha256 of the stdout of the two JSON tables: both are built from the
#: SignalResult and VerifyCheck fields, so these pin their names and order.
#: Re-pin only on purpose, and say why in CHANGES.md.
GOLDEN_JSON_SHA256 = {
    "run --seed 0 --e-grid 0,0.25 --shots 16 --format json":
        "e8c9fa88b4872f7c38f5d9ba67d46a5c3afacede1597e84811093e2141a230f4",
    "verify --seed 0 --shots 64 --e-grid 0,0.25,0.5 --format json":
        "03f07ecf184dd00cc1fb13403afb19f0686c2c4013db0225818ad30a13d6a2ee",
    # protected-correctness reads the protected walk though protected is unswept
    "verify --seed 0 --mode unprotected --e-grid 0.1,0.3 --format json":
        "386611d4683906047a7a992b931db8235107b842833ba3215788c61969b65239",
}


#: sha256 of the stdout of runs whose cells are drawn in batches: 65 cells
#: per plan at 2 shots, and cells of more than one noise._BLOCK_FLIPS of
#: flips, counted in units on the worker threads.  Re-pinned when each
#: cell's Philox key became (seed, mode, step, e index);
#: test_sweep_does_not_depend_on_the_cell_batch checks the batches against
#: per-cell draws.
GOLDEN_BATCH_SHA256 = {
    DJ_BATCHES:
        "a8adf190462724e345a7b0ac93164de7aae1aaae437123447d1269c223ebe296",
    "run --seed 5 --mode unprotected --shots 70001 --e-grid 0.125,0.375":
        "df5736cba83b0c0ad9d14dc6b6136e21c8a5023b1a0c79e028bab2794d0d3212",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_BATCH_SHA256))
def test_cli_batched_cells_match_golden_stdout(command, capsys):
    _assert_golden_stdout(command, GOLDEN_BATCH_SHA256[command], capsys)


@pytest.mark.parametrize("command", sorted(GOLDEN_JSON_SHA256))
def test_cli_json_output_matches_golden_stdout(command, capsys):
    _assert_golden_stdout(command, GOLDEN_JSON_SHA256[command], capsys)
