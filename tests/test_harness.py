import csv
import hashlib
import io
import json

import numpy as np
import pytest

from dfsim import circuits, cli, harness, noise, readout
from dfsim.harness import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    build_config,
    load_config_file,
    results_to_csv,
    results_to_json,
    run_sweep,
    verify,
    write_results,
)

SMALL = SweepConfig(e_grid=(0.0, 0.25, 0.5), shots=64, seed=3)


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
            mean, stderr = harness._mc_signal(mask, e, shots, seed)
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
    assert payload[0]["step"] == rows[0].step
    assert payload[0]["signal_exact"] == rows[0].signal_exact


def test_write_results(tmp_path):
    rows = run_sweep(SMALL)
    path = tmp_path / "out.csv"
    write_results(rows, path, "csv")
    assert path.read_text().startswith(CSV_HEADER)


def test_verify_passes_on_fresh_build():
    checks = verify(SweepConfig(e_grid=(0.0, 0.25, 0.5), shots=128, seed=5))
    failed = [c.name for c in checks if not c.passed]
    assert failed == []
    names = {c.name for c in checks}
    assert {"dfs-immunity", "channel-completeness", "mc-convergence",
            "damage-count-consistency", "damage-count-values"} <= names


def test_verify_detects_corrupted_subspace():
    checks = verify(
        SweepConfig(e_grid=(0.25,), shots=2, seed=5), _corrupt_dfs=True
    )
    by_name = {c.name: c for c in checks}
    assert not by_name["dfs-immunity"].passed
    assert by_name["dfs-immunity"].residual > 1e-3


def test_verify_fails_on_a_biased_sampler(monkeypatch, capsys):
    # the dense oracle draws through noise.draw_flips; bias it by +0.05 in e
    unbiased = noise.draw_flips
    monkeypatch.setattr(
        noise, "draw_flips", lambda e, *args, **kw: unbiased(min(e + 0.05, 0.5), *args, **kw)
    )
    assert cli.main(["verify"]) == 1
    assert "FAIL mc-convergence" in capsys.readouterr().out


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
    with pytest.raises(ConfigError):
        build_config({"shots": "many"})
    with pytest.raises(ConfigError):
        build_config({"frobnicate": "1"})


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
    assert cli.main([
        "run", "--e-grid", "0", "--shots", "2", "--mode", "protected",
        "--output", "/nonexistent-dir/results.csv",
    ]) == 2
    capsys.readouterr()


def test_cli_verify_json_report(capsys):
    code = cli.main([
        "verify", "--e-grid", "0.25", "--shots", "8", "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    names = {entry["name"] for entry in payload}
    assert "dfs-immunity" in names
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
    out = capsys.readouterr().out
    assert code == 0
    assert "# seed =" in out


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
