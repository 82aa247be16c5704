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

SMALL = SweepConfig(e_grid=(0.0, 0.25, 0.5), shots=64, seed=3)


#: dfsim's public names.  The public surface is counted in names, so a name
#: is added or removed here on purpose, in the same change as __init__.py.
PUBLIC_NAMES = [
    "DEFAULT_TOL", "DIM", "DfsBasis", "ErrorModelSpec", "ExperimentPlan", "PauliString",
    "PreparationStep", "SignalResult", "SweepConfig", "__version__", "anticommutes",
    "apply_channel", "assemble", "count_damaging_errors", "decode", "dfs_basis", "dj_gates",
    "draw_flips", "encode", "engineered_model", "grover_gates", "lift_logical_unitary",
    "multiply", "pauli_decompose", "pauli_matrix", "protected_steps",
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
        mask = circuits.damage_mask(plan, step.deviation)
        reference = noise.run_plan_exact(plan, 0.0, step.deviation)
        for e in (0.1, 0.25, 0.4):
            finals = noise.monte_carlo_finals(plan, e, shots, seed, initial=step.deviation)
            dense = np.array([readout.signal_intensity(f, reference) for f in finals])
            flips = noise.draw_flips(e, seed, shots, len(mask))
            frame = 1 - 2 * ((flips & mask).sum(axis=(1, 2)) % 2)
            np.testing.assert_allclose(dense, frame, rtol=0, atol=1e-13)
            [(mean, stderr)] = harness._mc_signal(mask, (e,), shots, (seed,))
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
    rows = run_sweep(SMALL)
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
    assert harness._immunity_residual(5) <= qcore.DEFAULT_TOL
    bad = bases[3].copy()
    bad[12, 0] *= -1.0  # break one sign relation in subspace 4
    bases[3] = bad
    monkeypatch.setattr(dfs, "all_isometries", lambda: tuple(bases))
    assert harness._immunity_residual(5) > 1e-3


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


def test_verify_fails_when_a_damage_mask_entry_is_flipped(monkeypatch, capsys):
    # the frame then negates the shots that drew that (point, flip) pair of
    # one protected plan, and the dense oracle, which reads the same flips,
    # does not; entry [0, 0, 0] of the protected stack is step Z1Z2's
    audited = circuits.damage_mask
    z1z2 = readout.protected_steps()[0]

    def flipped(plan, initial):
        mask = audited(plan, initial).copy()
        if plan.mode == "protected":
            assert mask.ndim == 3 and z1z2.label == "Z1Z2"
            assert np.array_equal(initial[0], z1z2.deviation)
            mask[0, 0, 0] = not mask[0, 0, 0]
        return mask

    monkeypatch.setattr(circuits, "damage_mask", flipped)
    assert cli.main(["verify"]) == 1
    assert "FAIL frame-dense-shots" in capsys.readouterr().out


def test_verify_fails_on_an_exact_final_off_the_reference(monkeypatch, capsys):
    # a 1e-6 Pauli term orthogonal to every protected reference, added to the
    # protected finals of the e grid but not to the references: each exact
    # signal stays 1 and each count 0, but the mean rho_ref misses the term
    cfg = SweepConfig(modes=("protected",))
    [plan] = harness.sweep_plans(cfg)
    refs = [noise.run_plan_exact(plan, 0.0, step.deviation) for step in readout.protected_steps()]
    words = qcore._word_matrices()[1:]
    word = next(w for w in words if all(abs(np.vdot(w, ref)) < 1e-12 for ref in refs))
    exact = noise.run_plan_exact

    def off_reference(plan, e, initial):
        finals = exact(plan, e, initial)
        return finals + 1e-6 * word if plan.mode == "protected" and np.ndim(e) else finals

    monkeypatch.setattr(noise, "run_plan_exact", off_reference)
    assert cli.main(["verify"]) == 1
    assert "FAIL mc-convergence" in capsys.readouterr().out


def _exact_without_the_last_noise_point(monkeypatch):
    exact = noise.run_plan_exact

    def faulty(plan, e, initial):
        return exact(replace(plan, decoherence_points=plan.decoherence_points[:-1]), e, initial)

    monkeypatch.setattr(noise, "run_plan_exact", faulty)


def _damage_mask_without_the_last_point(monkeypatch):
    audited = circuits.damage_mask

    def faulty(plan, initial):
        mask = audited(plan, initial).copy()
        mask[..., -1, :] = False
        return mask

    monkeypatch.setattr(circuits, "damage_mask", faulty)


def _pauli_product_with_phase_one(monkeypatch):
    multiply = qcore.multiply

    def faulty(p, q):
        return qcore.PauliString(multiply(p, q).letters, 1)

    monkeypatch.setattr(qcore, "multiply", faulty)


def _channel_with_its_first_operator_only(monkeypatch):
    def faulty(rho, channel):
        op = channel.operators[0]
        return op @ np.asarray(rho, dtype=complex) @ op.conj().T

    monkeypatch.setattr(noise, "apply_channel", faulty)


@pytest.mark.parametrize(
    "fault, failed",
    [
        (_exact_without_the_last_noise_point, {"damage-count-consistency"}),
        (
            _damage_mask_without_the_last_point,
            {"damage-count-consistency", "damage-count-values", "frame-dense-shots"},
        ),
        (_pauli_product_with_phase_one, {"pauli-product-exactness"}),
        (_channel_with_its_first_operator_only, {"dfs-immunity"}),
    ],
    ids=[
        "exact-channel-fails-damage-count-consistency-only",
        "damage-mask-fails-damage-count-consistency-values-and-frame-dense-shots",
        "pauli-product-fails-pauli-product-exactness-only",
        "apply-channel-fails-dfs-immunity-only",
    ],
)
def test_verify_fails_its_checks_on_a_fault(fault, failed, monkeypatch, capsys):
    # the exact channel losing the last noise point moves every unprotected
    # signal off (1-2e)^n; the mask losing it lowers n and flips the frame's
    # sign of the shots that drew a damaging flip there, against the dense
    # oracle; a product that drops its phase differs from the matrix product;
    # a channel keeping only (1-e) IIII shrinks every encoded state for e > 0
    fault(monkeypatch)
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert {line[5:].split(":")[0] for line in lines if line.startswith("FAIL ")} == failed


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
    # reference: a count lies within the radius exactly when its tail is >= alpha
    assert harness._ALPHA == oracle.ALPHA
    radius = harness._acceptance_radius(shots, p)
    for k in range(shots + 1):
        tail = oracle.binomial_two_sided(k, shots, p)
        assert (abs(k - shots * p) <= radius) == (tail >= oracle.ALPHA), (k, tail)


def _count_calls(monkeypatch) -> dict[str, int]:
    """Count the calls of circuits.assemble, circuits.damage_audit, circuits.damage_mask
    and noise.run_plan_exact, and the plans built (ExperimentPlan.__post_init__)."""
    calls = {"assemble": 0, "damage_audit": 0, "damage_mask": 0, "run_plan_exact": 0,
             "ExperimentPlan": 0}
    for key, owner, name in (
        ("assemble", circuits, "assemble"), ("damage_audit", circuits, "damage_audit"),
        ("damage_mask", circuits, "damage_mask"), ("run_plan_exact", noise, "run_plan_exact"),
        ("ExperimentPlan", circuits.ExperimentPlan, "__post_init__"),
    ):
        def spy(*args, _real=getattr(owner, name), _key=key, **kwargs):
            calls[_key] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return calls


#: One plan, one audit and one exact walk of each mode's stack over the nine
#: e values: per mode, one assembly (and so one plan built), one stacked
#: damage_mask and one run_plan_exact; the references come from the
#: noise-free walk, not from an e = 0 exact call.
ONE_PLAN_PER_MODE = {
    "assemble": 2, "damage_audit": 0, "damage_mask": 2, "run_plan_exact": 2, "ExperimentPlan": 2
}


def test_verify_builds_audits_and_evolves_each_plan_once(monkeypatch):
    # each mode assembled once and its stack of three preparations audited
    # once; 2 exact evolutions: per mode, one batch of the stack of 5
    # (summed preparation, identity/16 and each step, through the mode's
    # plan) over the nine e values, from which every grid check of the mode
    # reads its cells
    calls = _count_calls(monkeypatch)
    assert all(c.passed for c in harness.verify())
    assert calls == ONE_PLAN_PER_MODE


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
    # 129 protected e values in batches of _E_BLOCK // 3 = 21 cells: 7
    # batches, at any shot count
    grid = tuple(k / 256 for k in range(129))
    calls = _count_calls(monkeypatch)
    run_sweep(SweepConfig(e_grid=grid, shots=shots, modes=("protected",)))
    assert calls["run_plan_exact"] == 7


@pytest.mark.parametrize("seed", range(4))
def test_immunity_check_on_the_stack_equals_each_state_alone(seed):
    # the states _immunity_residual draws, each through apply_channel alone
    rng = np.random.default_rng(seed)
    rhos = []
    for _ in range(50):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rhos.append(dfs.encode(psi / np.linalg.norm(psi)))
    worst = 0.0
    for e in harness.IMMUNITY_E_GRID:
        model = noise.engineered_model(e)
        for rho, out in zip(rhos, noise.apply_channel(np.stack(rhos), model)):
            alone = noise.apply_channel(rho, model)
            assert out.tobytes() == alone.tobytes()
            worst = max(worst, qcore.frobenius_norm(alone - rho))
    assert harness._immunity_residual(seed) == worst


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

    monkeypatch.setattr(harness, "run_sweep", no_sweep)
    path = tmp_path / "missing-dir" / "results.csv"
    assert cli.main(["run", "--output", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write output file {path}: ")


def test_cli_run_keeps_an_old_output_file_when_the_sweep_fails(tmp_path, capsys):
    out = tmp_path / "results.csv"
    out.write_text("old rows\n")
    assert cli.main(["run", "--placement", "99", "--output", str(out)]) == 2
    assert "placement" in capsys.readouterr().err
    assert out.read_text() == "old rows\n"


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

#: The run over 65 e values per plan at 2 shots, drawn in batches of 64 and 1.
DJ_BATCHES = "run --seed 3 --algorithm deutsch-jozsa --mode both --shots 2 --e-grid " + ",".join(
    repr(k / 128) for k in range(65)
)

#: The file under tests/golden that holds the stdout of each pinned command.
#: Every one but count-n's was re-pinned once when the Hadamard pair got exact
#: entries and signal_intensity became a fixed-order sum, which made the bytes
#: the same on every BLAS kernel (test_stdout_does_not_depend_on_the_blas_kernel).
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


#: sha256 of the stdout of count-n.  Re-pin only on purpose, and say why in
#: CHANGES.md.
GOLDEN_COUNT_N_SHA256 = {
    "count-n": "5dfcb1c107794f648e7ec07e001e303b3fe13509cc2558f6bb9fdc56d3c454db",
    "count-n --algorithm deutsch-jozsa --placement 0,2,4":
        "40a8ea586dab7ffd76d4c55fbce00aa88ad1af3329a300c5d7892a9a34094e23",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_COUNT_N_SHA256))
def test_cli_count_n_matches_golden_stdout(command, capsys):
    _assert_golden_stdout(command, GOLDEN_COUNT_N_SHA256[command], capsys)


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
    plan = circuits.assemble("unprotected")
    mask = circuits.damage_mask(plan, readout.unprotected_steps()[1].deviation)
    one_block = harness._mc_signal(mask, (0.3,), shots, (11,))
    drawn = []
    unblocked = noise.draw_flips

    def spy(e, seed, count, points, first=0):
        drawn.append((first, count))
        return unblocked(e, seed, count, points, first=first)

    monkeypatch.setattr(noise, "draw_flips", spy)
    monkeypatch.setattr(harness, "_SHOT_BLOCK", 7)
    assert harness._mc_signal(mask, (0.3,), shots, (11,)) == one_block
    assert drawn == [(first, min(7, shots - first)) for first in range(0, shots, 7)]


@pytest.mark.parametrize("shots", [1, 70000])
@pytest.mark.parametrize(
    "mask", [np.zeros((9, 2), dtype=bool), np.zeros((0, 2), dtype=bool)], ids=["harmless", "no-points"]
)
def test_mc_signal_of_a_mask_without_damage_draws_nothing(mask, shots, monkeypatch):
    # every shot reads +1, so k = 0: mean 1 - 2k/shots = 1.0, standard error 0.0
    def spy(*args, **kwargs):
        raise AssertionError("a plan without damaging flips drew shots")

    monkeypatch.setattr(noise, "draw_flips", spy)
    signals = harness._mc_signal(mask, (0.0, 0.25, 0.5), shots, (1, 2, 3))
    assert signals == [(1.0, 0.0)] * 3
    assert all(type(v) is float for cell in signals for v in cell)


@pytest.mark.parametrize(
    "shots, modes",
    [
        pytest.param(shots, modes, id=f"{shots}{suffix}")
        for suffix, modes in (("", ("unprotected",)), ("-both", circuits.MODES))
        for shots in (1, 3, 20)
    ],
)
def test_sweep_does_not_depend_on_the_cell_batch(shots, modes, monkeypatch):
    # run draws step by step over the whole grid, whatever the exact batches
    # (_E_BLOCK // 3 cells): each unprotected step in turn, in batches of
    # _SHOT_BLOCK // shots cells, at least one, each drawn in shot blocks of
    # _SHOT_BLOCK; protected plans have no damaging flip and draw nothing
    grid = tuple(k / 64 for k in range(33))
    cfg = SweepConfig(e_grid=grid, shots=shots, seed=6, modes=modes)
    one_cell_at_a_time = []
    for mode_idx, plan in enumerate(harness.sweep_plans(cfg)):
        steps = readout.steps_for_mode(plan.mode)
        for step, keys in zip(steps, harness._step_keys(cfg, mode_idx, 3)):
            mask = circuits.damage_mask(plan, step.deviation)
            for e, key in zip(grid, keys):
                one_cell_at_a_time += harness._mc_signal(mask, (e,), shots, (key,))
    drawn = []
    batched = noise.draw_flips

    def spy(e, seeds, count, points, first=0):
        drawn.append((len(seeds), count, first))
        return batched(e, seeds, count, points, first=first)

    monkeypatch.setattr(noise, "draw_flips", spy)
    monkeypatch.setattr(harness, "_E_BLOCK", 8)
    monkeypatch.setattr(harness, "_SHOT_BLOCK", 12)
    rows = run_sweep(cfg)
    assert [(r.signal_mc, r.mc_stderr) for r in rows] == one_cell_at_a_time
    batch = max(1, 12 // shots)
    cells = [min(batch, 33 - start) for start in range(0, 33, batch)]
    firsts = range(0, shots, 12)
    steps = range(3)  # three unprotected steps
    expected = [
        (c, min(12, shots - first), first) for _ in steps for c in cells for first in firsts
    ]
    assert drawn == expected


def test_fine_grid_sweep_draws_once_per_step(monkeypatch):
    # 513 Deutsch-Jozsa e values at 2 shots: each of the three unprotected
    # steps draws its 1026 shots in one call.  With a _SHOT_BLOCK of 100, a
    # step draws 50 cells (100 shots) a call: 11 calls, the last of 13 cells
    cfg = SweepConfig(
        e_grid=tuple(k / 1024 for k in range(513)), shots=2, modes=circuits.MODES,
        algorithm="deutsch-jozsa",
    )
    drawn = []
    batched = noise.draw_flips

    def spy(e, seeds, count, points, first=0):
        drawn.append(len(seeds) * count)
        return batched(e, seeds, count, points, first=first)

    monkeypatch.setattr(noise, "draw_flips", spy)
    rows = run_sweep(cfg)
    assert drawn == [513 * 2] * 3
    drawn.clear()
    monkeypatch.setattr(harness, "_SHOT_BLOCK", 100)
    assert run_sweep(cfg) == rows
    assert drawn == ([100] * 10 + [26]) * 3


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
    # batch (7 // 5 rows) with the small blocks; at 5 shots in shot blocks of
    # 2, each cell is drawn in three blocks.  Every residual and the reported
    # worst cell must agree
    cfg = SweepConfig(e_grid=tuple(k / 40 for k in range(20)), shots=shots, modes=modes)
    default = [repr(check) for check in harness.verify(cfg)]
    monkeypatch.setattr(harness, "_E_BLOCK", 7)
    monkeypatch.setattr(harness, "_SHOT_BLOCK", block)
    assert [repr(check) for check in harness.verify(cfg)] == default


@pytest.mark.parametrize(
    "modes", [("protected", "unprotected"), ("unprotected", "protected")], ids=["default", "reversed"]
)
def test_verify_draws_each_step_once_whatever_the_e_block(modes, monkeypatch):
    # verify draws each of the six swept steps' nine cells in one call of 2048
    # shots, whatever the exact batches, and under the keys run draws them
    # with: _step_keys of each mode's index in cfg.modes, in that order
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
    assert schedules == [[(9, 2048, 0)] * 6] * 2
    keys = [step for mode_idx in range(2) for step in harness._step_keys(cfg, mode_idx, 3)]
    assert keyed == keys * 2
    keyed.clear()
    run_sweep(cfg)
    unprotected = modes.index("unprotected")
    assert keyed == keys[3 * unprotected : 3 * unprotected + 3]  # run draws no protected cell


def test_mc_convergence_reports_the_first_worst_cell_in_step_order(monkeypatch):
    # verify draws each step's whole grid once, so _parity is called once per
    # step, for both cells; the exact batches hold one cell each (5 // 5
    # rows).  Without noise points every exact final is the step's noiseless
    # one, of signal 1, so the binomial radius is 0; a cell whose one shot is
    # counted negated has mean -rho_ref and margin 2 ||rho_ref|| -
    # NUMERICAL_FLOOR.  The steps' references have one norm, so step 0 at
    # e = 0.2 and step 1 at e = 0.1 tie at the worst; step order wins.
    cfg = SweepConfig(e_grid=(0.1, 0.2), shots=1, modes=("unprotected",), placement=())
    [plan] = harness.sweep_plans(cfg)
    steps = readout.unprotected_steps()
    norms = {qcore.frobenius_norm(noise.run_plan_exact(plan, 0.0, s.deviation)) for s in steps}
    negated = iter([[False, True], [True, False], [False, False]])  # (e = 0.1, 0.2) per step

    def fake(flips, mask):
        return np.reshape(next(negated), flips.shape[:2])

    monkeypatch.setattr(harness, "_parity", fake)
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
    monkeypatch.setattr(
        harness, "_mc_signal", lambda mask, e, shots, seeds: [(1.0, 0.0)] * len(seeds)
    )
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
#: Re-pin only when output bytes change on purpose, and say why in CHANGES.md.
GOLDEN_RUN_PLACEMENT_SHA256 = "ada5a75aeb79c74c1439889e86ddffd2c7e20dfa52ef7e2b468be47bb97bc398"


def test_cli_run_ending_in_a_gate_matches_golden_csv(capsys):
    command = "run --seed 0 --placement 1,2 --e-grid 0,0.25,0.5"
    _assert_golden_stdout(command, GOLDEN_RUN_PLACEMENT_SHA256, capsys)


#: sha256 of the stdout of `dfsim verify --seed 0`.  The dense oracle's
#: residuals are printed to three digits, so any change in its arithmetic
#: shows here; re-pin only on purpose, and say why in CHANGES.md.
GOLDEN_VERIFY_SEED_0_SHA256 = "d6716445617c38a187c7e1c5c063cd25b2ae12681e8e3a3c64f06817bc30c601"


def test_cli_verify_seed_0_matches_golden_stdout(capsys):
    _assert_golden_stdout("verify --seed 0", GOLDEN_VERIFY_SEED_0_SHA256, capsys)


#: sha256 of the stdout of verify on paths the default does not take: one
#: mode only (damage-count-consistency still audits the unprotected plans),
#: another algorithm, and a placement without damage-count-values.
#: Re-pinned once when verify gained frame-dense-shots and mc-convergence
#: became an exact binomial test of the negated shots' count; the
#: Deutsch-Jozsa one again when each cell's Philox key became
#: (seed, mode, step, e index), which moved its worst mc-convergence cell.
GOLDEN_VERIFY_PATHS_SHA256 = {
    "verify --seed 0 --mode protected --e-grid 0.25":
        "23f6dd067fae23390c4881bc3d707c1426a482d9bb596acf456aacb11caca1c2",
    "verify --seed 0 --algorithm deutsch-jozsa --mode unprotected --shots 4 --e-grid 0.25":
        "997d9470e0d119fd589ba7b88f9071299999549d61d386a95e27b399ca2d632e",
    "verify --seed 0 --placement 1,2 --e-grid 0.25 --shots 16":
        "fe1e7da7c9e170446843e98f126f6e01f4552b8298bbddf8aa908793f3ff22c0",
    # both modes in reverse order: the worst cell is in protected, the second
    # mode walked, so its label is read from the second swept mode
    "verify --seed 0 --mode unprotected,protected --shots 16 --e-grid 0.1,0.3":
        "66723a4e1b181b35a78d7c4297b9e65a440f63a47d40d9faea93269c0bd6c254",
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
        "30c0abd1b613a72e4dd9c987df64035403d7e1abfbea5d29c9fbb9ca03aacadd",
    # protected-correctness reads the protected walk though protected is unswept
    "verify --seed 0 --mode unprotected --e-grid 0.1,0.3 --format json":
        "ad3a08e20c14c140ce7275fd8991fcebf94932d4224ccc282bb335abc40c8b1c",
}


#: sha256 of the stdout of runs whose cells are drawn in batches: 65 cells
#: per plan at 2 shots (batches of 64 and 1), and cells of more than one
#: _SHOT_BLOCK.  Re-pinned when each cell's Philox key became
#: (seed, mode, step, e index); test_sweep_does_not_depend_on_the_cell_batch
#: checks the batches against per-cell draws.
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
