import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
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
    "draw_flips", "encode", "engineered_model", "grover_gates", "hs_overlap",
    "lift_logical_unitary", "multiply", "pauli_decompose", "pauli_matrix", "protected_steps",
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
        plan = circuits.assemble(mode, algorithm, preparation=step)
        mask = circuits.damage_mask(plan)
        reference = noise.run_plan_exact(plan, 0.0)
        for e in (0.1, 0.25, 0.4):
            finals = noise.monte_carlo_finals(plan, e, shots, seed)
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


def test_verify_builds_audits_and_evolves_each_plan_once(monkeypatch):
    # six (mode, step) plans, each assembled and audited once; 22 exact
    # evolutions: 6 noiseless references, 6 cell walks, and one walk of 5 per
    # mode (summed preparation and identity/16 through step 0's plan, and
    # each step's own plan) that temporal-averaging and, in the protected
    # mode, protected-correctness both read
    calls = {"assemble": 0, "damage_audit": 0, "run_plan_exact": 0}
    for module, name in ((circuits, "assemble"), (circuits, "damage_audit"),
                         (noise, "run_plan_exact")):
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    assert all(c.passed for c in harness.verify())
    assert calls == {"assemble": 6, "damage_audit": 6, "run_plan_exact": 22}


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
    assert lines[-1] == "10/10 checks passed"


def test_mc_convergence_keeps_the_bare_floor_on_protected_cells():
    # protected shots are all exact: the bound must be the 1e-12 floor alone,
    # not widened by a rounding-level variance estimate
    checks = verify(SweepConfig(modes=("protected",), shots=64, seed=1))
    mc = {c.name: c for c in checks}["mc-convergence"]
    assert mc.passed
    assert mc.residual >= -1.01 * harness.NUMERICAL_FLOOR


@pytest.mark.parametrize("shots", ["1", "2"])
def test_cli_verify_passes_at_one_and_two_shots(shots, capsys):
    # the bound uses the known shot variance, not the sample variance, which
    # is 0 whenever every shot agrees
    assert cli.main(["verify", "--shots", shots]) == 0
    assert "11/11 checks passed" in capsys.readouterr().out


@pytest.mark.xfail(
    strict=True,
    reason="known false alarm: the 5 sigma normal bound of mc-convergence is not "
    "valid at 1 shot when the exact signal is near 1",
)
def test_cli_verify_passes_a_correct_program_at_one_shot_near_e_0(capsys):
    # one negated shot of a cell whose exact signal is 0.94 lies beyond 5 sigma
    argv = "verify --seed 5 --mode unprotected --e-grid 0.005 --shots 1".split()
    assert cli.main(argv) == 0, capsys.readouterr().out


def test_verify_tolerance_scales_with_shots():
    # the Monte-Carlo bound is 5 sigma at whatever shot count is configured
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


#: sha256 of the stdout of count-n.  Re-pin only on purpose, and say why in
#: CHANGES.md.
GOLDEN_COUNT_N_SHA256 = {
    "count-n": "5dfcb1c107794f648e7ec07e001e303b3fe13509cc2558f6bb9fdc56d3c454db",
    "count-n --algorithm deutsch-jozsa --placement 0,2,4":
        "40a8ea586dab7ffd76d4c55fbce00aa88ad1af3329a300c5d7892a9a34094e23",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_COUNT_N_SHA256))
def test_cli_count_n_matches_golden_stdout(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_COUNT_N_SHA256[command]


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
    plan = circuits.assemble("unprotected", preparation=readout.unprotected_steps()[1])
    mask = circuits.damage_mask(plan)
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


def _dense_shot_mean(plan, e, shots, seed):
    """The dense oracle's mean final state of one cell: a batch of one."""
    [mean] = harness._dense_shot_means(plan, (e,), shots, (seed,))
    return mean


@pytest.mark.parametrize("shots", [1, 7, 8, 64, 2048])
def test_dense_shot_mean_does_not_depend_on_the_shot_block(shots, monkeypatch):
    # the blocks are added onto the running sum in shot order, which is how
    # .mean(axis=0) adds the whole stack, so the bytes agree
    plan = circuits.assemble("unprotected", preparation=readout.unprotected_steps()[1])
    whole = noise.monte_carlo_finals(plan, 0.3, shots, 11).mean(axis=0)
    assert _dense_shot_mean(plan, 0.3, shots, 11).tobytes() == whole.tobytes()
    drawn = []
    unblocked = noise.draw_flips

    def spy(e, seed, count, points, first=0):
        drawn.append((first, count))
        return unblocked(e, seed, count, points, first=first)

    monkeypatch.setattr(noise, "draw_flips", spy)
    monkeypatch.setattr(harness, "_SHOT_BLOCK", 7)
    assert _dense_shot_mean(plan, 0.3, shots, 11).tobytes() == whole.tobytes()
    assert drawn == [(first, min(7, shots - first)) for first in range(0, shots, 7)]


@pytest.mark.parametrize("shots", [1, 7, 8, 5000])
def test_dense_shot_mean_does_not_depend_on_the_gather_slice(shots, monkeypatch):
    plan = circuits.assemble("unprotected", preparation=readout.unprotected_steps()[1])
    whole = noise.monte_carlo_finals(plan, 0.3, shots, 11).mean(axis=0)
    assert _dense_shot_mean(plan, 0.3, shots, 11).tobytes() == whole.tobytes()
    monkeypatch.setattr(harness, "_GATHER_SHOTS", 3)
    monkeypatch.setattr(harness, "_SHOT_BLOCK", 1000)
    assert _dense_shot_mean(plan, 0.3, shots, 11).tobytes() == whole.tobytes()


#: (e, seed) cells for the batched dense oracle: e = 0 and e = 0.5, and the
#: largest 64-bit seed.
DENSE_CELLS = ((0.0, 3), (0.3, 11), (0.5, 2**64 - 1), (0.125, 5), (0.25, 0))


@pytest.mark.parametrize("block", [7, 40, 65536])
@pytest.mark.parametrize("shots", [1, 7, 8, 300, 2048])
def test_dense_shot_means_of_a_batch_equal_each_cell_alone(shots, block, monkeypatch):
    # cells of a batch share flip draws and states, but each cell's mean
    # equals its own finals' mean to the bit
    plan = circuits.assemble("unprotected", preparation=readout.unprotected_steps()[1])
    whole = [noise.monte_carlo_finals(plan, e, shots, seed).mean(axis=0) for e, seed in DENSE_CELLS]
    drawn = []
    unblocked = noise.draw_flips

    def spy(e, seeds, count, points, first=0):
        drawn.append((len(seeds), count, first))
        return unblocked(e, seeds, count, points, first=first)

    monkeypatch.setattr(noise, "draw_flips", spy)
    monkeypatch.setattr(harness, "_SHOT_BLOCK", block)
    batch = max(1, min(noise._E_BLOCK, block // shots))  # run_sweep's rule
    means, expected = [], []
    for start in range(0, len(DENSE_CELLS), batch):
        e, seeds = zip(*DENSE_CELLS[start : start + batch])
        means.extend(harness._dense_shot_means(plan, e, shots, seeds))
        firsts = range(0, shots, block)
        expected += [(len(seeds), min(block, shots - first), first) for first in firsts]
    assert [m.tobytes() for m in means] == [w.tobytes() for w in whole]
    assert drawn == expected


def test_dense_shot_means_add_a_single_column_in_shot_order(monkeypatch):
    # When every entry of every state is equal, the states have one distinct
    # column, which is summed as an (N, 1) array.  np.add.reduce sums such a
    # column pairwise, with other roundings than the shot-order sum of
    # .mean(axis=0).
    rng = np.random.default_rng(4)
    values = rng.normal(size=5) + 1j * rng.normal(size=5)
    index = rng.integers(5, size=3000)
    states = values[:, None, None] * np.ones((16, 16))
    monkeypatch.setattr(noise, "monte_carlo_states", lambda plan, flips: (states, index))
    plan = circuits.assemble("unprotected", preparation=readout.unprotected_steps()[1])
    total = 0j
    for k in index.tolist():
        total = total + values[k]
    mean = _dense_shot_mean(plan, 0.3, len(index), 2)
    assert (mean == total / len(index)).all()


def test_dense_shot_mean_memory_does_not_grow_within_a_shot_block():
    # 16384 shots are one _SHOT_BLOCK and four gather slices; anything held
    # for all shots of the block at once, other than their 18 B of flips and
    # a few indices (such as their finals or their float uniforms), would
    # take about four times what one slice takes
    plan = circuits.assemble("unprotected", preparation=readout.unprotected_steps()[1])
    _dense_shot_mean(plan, 0.25, 8, 2)
    peaks = []
    for shots in (harness._GATHER_SHOTS, 16384):
        tracemalloc.start()
        try:
            _dense_shot_mean(plan, 0.25, shots, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_dense_shot_mean_memory_does_not_grow_with_the_shots(monkeypatch):
    # one block of finals is 256 x 4 KiB; holding what 16 blocks computed
    # would add 15 MiB.  A warm-up call keeps one-time allocations out of
    # both peaks.
    monkeypatch.setattr(harness, "_SHOT_BLOCK", 256)
    plan = circuits.assemble("unprotected", preparation=readout.unprotected_steps()[1])
    _dense_shot_mean(plan, 0.25, 8, 2)
    peaks = []
    for shots in (256, 16 * 256):
        tracemalloc.start()
        try:
            _dense_shot_mean(plan, 0.25, shots, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("shots", [1, 3, 20])
def test_sweep_does_not_depend_on_the_cell_batch(shots, monkeypatch):
    # batches of min(_E_BLOCK, _SHOT_BLOCK // shots) cells, at least one
    grid = tuple(k / 64 for k in range(33))
    cfg = SweepConfig(e_grid=grid, shots=shots, seed=6, modes=("unprotected",))
    one_cell_at_a_time = []
    for key, _, _, plan in harness.sweep_plans(cfg):
        mask = circuits.damage_mask(plan)
        for e, seed in zip(grid, harness._cell_seeds(cfg.seed, key, len(grid)).tolist()):
            one_cell_at_a_time += harness._mc_signal(mask, (e,), shots, (seed,))
    drawn = []
    batched = noise.draw_flips

    def spy(e, seeds, count, points, first=0):
        drawn.append((len(seeds), count, first))
        return batched(e, seeds, count, points, first=first)

    monkeypatch.setattr(noise, "draw_flips", spy)
    monkeypatch.setattr(noise, "_E_BLOCK", 8)
    monkeypatch.setattr(harness, "_SHOT_BLOCK", 12)
    rows = run_sweep(cfg)
    assert [(r.signal_mc, r.mc_stderr) for r in rows] == one_cell_at_a_time
    batch = max(1, min(8, 12 // shots))
    cells = [min(batch, 33 - start) for start in range(0, 33, batch)]
    firsts = range(0, shots, 12)
    expected = [(c, min(12, shots - first), first) for c in cells for first in firsts]
    assert drawn == expected * 3  # three steps


@pytest.mark.parametrize("length", [1, 7, 8, 20])
def test_sweep_does_not_depend_on_the_e_block(length, monkeypatch):
    # zeros (E0 only) and e > 0 share blocks
    grid = tuple((k % 5) * 0.1 for k in range(length))
    cfg = SweepConfig(e_grid=grid, shots=4, seed=9, modes=("unprotected",))
    one_block = results_to_csv(run_sweep(cfg))
    monkeypatch.setattr(noise, "_E_BLOCK", 7)
    assert results_to_csv(run_sweep(cfg)) == one_block


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


def test_cli_rejects_negative_seed(capsys):
    assert cli.main(["run", "--seed", "-3", "--e-grid", "0", "--shots", "2"]) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


#: sha256 of the stdout of `dfsim run --seed 0`.  Re-pin only when output
#: bytes change on purpose, and say why in CHANGES.md.
GOLDEN_RUN_SEED_0_SHA256 = "5386cd7adb93ebbaca18656aedddc216371f4dc7142f6a014e0ac10b62ef556b"


def test_cli_run_seed_0_matches_golden_csv(capsys):
    assert cli.main(["run", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_RUN_SEED_0_SHA256


#: sha256 of the stdout of `dfsim verify --seed 0`.  The dense oracle's
#: residuals are printed to three digits, so any change in its arithmetic
#: shows here; re-pin only on purpose, and say why in CHANGES.md.
GOLDEN_VERIFY_SEED_0_SHA256 = "2741a972bd23e1aa8090f88ebab45d915374f2d2e23c8d830abdb0e09ec558d2"


def test_cli_verify_seed_0_matches_golden_stdout(capsys):
    assert cli.main(["verify", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_SEED_0_SHA256


#: sha256 of the stdout of verify on paths the default does not take: one
#: mode only (damage-count-consistency still audits the unprotected plans),
#: another algorithm, and a placement without damage-count-values.  Pinned
#: before verify took its plans from one table.
GOLDEN_VERIFY_PATHS_SHA256 = {
    "verify --seed 0 --mode protected --e-grid 0.25":
        "248bad04d33ad7d1ab47071ae415c017f73baad36dc369151df47e9be04dd838",
    "verify --seed 0 --algorithm deutsch-jozsa --mode unprotected --shots 4 --e-grid 0.25":
        "c6a89eda3f0af6ba811cf80f007f31f142a5ca79d731e61b2391ab1106f784c0",
    "verify --seed 0 --placement 1,2 --e-grid 0.25 --shots 16":
        "d0fdcd471bb0ca6fb86be8c4246b728ee859d24a5ec5bc5fa46ad13efecaf968",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_VERIFY_PATHS_SHA256))
def test_cli_verify_paths_match_golden_stdout(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_PATHS_SHA256[command]


#: sha256 of the stdout of the two JSON tables: both are built from the
#: SignalResult and VerifyCheck fields, so these pin their names and order.
#: Re-pin only on purpose, and say why in CHANGES.md.
GOLDEN_JSON_SHA256 = {
    "run --seed 0 --e-grid 0,0.25 --shots 16 --format json":
        "cd532b32f0e238ebfebee28b57690aa4b920478e0a7699d4fb12d42b9070c7aa",
    "verify --seed 0 --shots 64 --e-grid 0,0.25,0.5 --format json":
        "3506a99a60dc07ba1f7f65ac08dd3811149fc29fb458926b22f976559207be62",
    # protected-correctness reads the protected walk though protected is unswept
    "verify --seed 0 --mode unprotected --e-grid 0.1,0.3 --format json":
        "a5211b55f1f9650f88e09db4fe8843d6bc97d90184f6a8e984af592481b91a8c",
}


#: sha256 of the stdout of runs whose cells are drawn in batches: 65 cells
#: per plan at 2 shots (batches of 64 and 1), and cells of more than one
#: _SHOT_BLOCK.  Pinned on the per-cell draws the batches replaced.
GOLDEN_BATCH_SHA256 = {
    "run --seed 3 --algorithm deutsch-jozsa --mode both --shots 2 --e-grid "
    + ",".join(repr(k / 128) for k in range(65)):
        "5ac5b96c7e21df31a11556fc851b1b693edb57a32812b2fb0275781a6858b96e",
    "run --seed 5 --mode unprotected --shots 70001 --e-grid 0.125,0.375":
        "71ad7f1e73779c72a9eed7a2dfc96f70ffe81303322b5fce077c39dd7ca4a17f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_BATCH_SHA256))
def test_cli_batched_cells_match_golden_stdout(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_BATCH_SHA256[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_JSON_SHA256))
def test_cli_json_output_matches_golden_stdout(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON_SHA256[command]
