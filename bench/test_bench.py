"""Tests of the benchmark's own logic: the output oracle, span self times and
the CPU-speed adjustment.

    python3 -m pytest bench
"""

from __future__ import annotations

import math

import oracle
import spans
import speed
from spans import Span, Tracer, layer_metrics, self_times

HEADER = ",".join(oracle.CSV_HEADER)


def _row(mode: str, exact: float, mc: float, theory: float | None = None) -> dict[str, str]:
    return {
        "mode": mode,
        "signal_exact": repr(exact),
        "signal_mc": repr(mc),
        "theory": repr(exact if theory is None else theory),
    }


def _csv(rows: list[dict[str, str]]) -> str:
    lines = [HEADER] + [
        f"0.1,Z1,{r['mode']},grover,{r['signal_exact']},{r['signal_mc']},0.0,{r['theory']},6"
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def _unbiased(exact: float, shots: int) -> float:
    """The most likely mean of ``shots`` +-1 signals whose expectation is ``exact``."""
    return 1.0 - 2.0 * round(shots * (1.0 - exact) / 2.0) / shots


def test_cell_biased_by_five_hundredths_fails_at_2048_shots():
    exact = (1.0 - 2 * 0.005) ** 6
    assert oracle.cell_failure(_row("unprotected", exact, _unbiased(exact, 2048)), 2048) == ""
    biased = _row("unprotected", exact, exact + 0.05)
    assert "shot noise" in oracle.cell_failure(biased, 2048)
    # The same bias as a whole number of shots fails the binomial tail, not only the count.
    shifted = _row("unprotected", exact, _unbiased(exact, 2048) + 52 * 2 / 2048)
    assert "shot noise" in oracle.cell_failure(shifted, 2048)
    verdict = oracle.check_sweep(_csv([biased, _row("protected", 1.0, 1.0)]), cells=2, shots=2048)
    assert (verdict.attempted, verdict.failed) == (2, 1)


def test_rounding_below_minus_one_passes_at_one_shot():
    exact = (1.0 - 2 * 0.25) ** 6
    assert oracle.cell_failure(_row("unprotected", exact, -1.0000000000000004), 1) == ""
    assert oracle.cell_failure(_row("unprotected", exact, -1.000000000002), 1).startswith("|signal_mc|")


def test_single_negated_shot_near_one_passes_at_two_shots():
    exact = (1.0 - 2 / 1024) ** 6
    # A 5-sigma normal bound with the known shot variance would flag this likely outcome.
    assert abs(0.0 - exact) > 5 * math.sqrt((1 - exact**2) / 2)
    assert oracle.cell_failure(_row("unprotected", exact, 0.0), 2) == ""


def test_protected_cell_fails_on_any_negated_shot_or_decay():
    assert oracle.cell_failure(_row("protected", 1.0, 1.0 - 2 / 2048), 2048)
    assert oracle.cell_failure(_row("protected", 0.99, 0.99), 2048)
    assert oracle.cell_failure(_row("unprotected", 0.5, 0.5, theory=0.5 + 1e-9), 2048)


def test_missing_row_and_bad_header_fail():
    verdict = oracle.check_sweep(_csv([_row("protected", 1.0, 1.0)]), cells=2, shots=8)
    assert (verdict.attempted, verdict.failed) == (2, 1)
    assert oracle.check_sweep("e,step\n", cells=3, shots=8).failed == 3


def test_verify_report_counts_fail_lines():
    text = "PASS a: residual=0\nFAIL b: residual=1\nPASS c: residual=0\n1/3 checks passed\n"
    verdict = oracle.check_verify(text)
    assert (verdict.attempted, verdict.failed) == (3, 1)
    assert verdict.first_failure.startswith("b:")


def _span(i, parent, name, enter, start, end, exit_, shots=0):
    return Span(i, parent, name, "synthetic", 0, enter, start, end, exit_, shots)


def test_self_time_subtracts_nested_children_with_their_wrappers():
    tree = [
        _span(3, 2, "noise.monte_carlo_finals", 150, 160, 200, 210, shots=2048),
        _span(5, 2, spans.SAMPLE_SPAN, 220, 221, 260, 261),
        _span(2, 1, "harness.run_sweep", 100, 110, 300, 320),
        _span(4, 1, "harness.results_to_csv", 400, 405, 600, 610),
        _span(1, 0, "cli.main", 0, 10, 1000, 1010),
    ]
    assert self_times(tree) == {3: 40, 5: 39, 2: 190 - 60 - 41, 4: 195, 1: 990 - 220 - 210}
    # The pass's wall time leaves the 41 ns sample out, and so do the metrics.
    metrics = layer_metrics(tree, wall_s=(1015 - 41) * 1e-9)
    assert math.isclose(metrics["cli.self_s"], 560e-9)
    assert math.isclose(metrics["harness.self_s"], 89e-9)
    assert math.isclose(metrics["harness.output_s"], 195e-9)
    assert math.isclose(metrics["noise.mc_s"], 40e-9)
    assert math.isclose(metrics["trace.wrapper_s"], 85e-9)
    assert math.isclose(metrics["trace.unaccounted_s"], 5e-9, abs_tol=1e-15)
    assert metrics["noise.mc_shots"] == 2048
    assert metrics["noise.mc_bytes"] == 2048 * spans.SHOT_STATE_BYTES
    assert metrics["trace.spans"] == 4


def test_tracer_counts_real_calls_and_restores_functions(tmp_path):
    from dfsim import cli, noise

    original = noise.apply_channel
    tracer = Tracer("tiny")
    tracer.install(run=0)
    try:
        argv = ["run", "--mode", "unprotected", "--e-grid", "0.25", "--shots", "4"]
        assert cli.main([*argv, "--output", str(tmp_path / "out.csv")]) == 0
    finally:
        tracer.uninstall()
    assert noise.apply_channel is original and "print" not in vars(cli)
    recorded = tracer.spans
    metrics = layer_metrics(recorded, wall_s=1.0)
    assert metrics["noise.mc_calls"] == 3 and metrics["noise.mc_shots"] == 12
    assert metrics["noise.shot_seed_calls"] == 12
    assert metrics["noise.exact_calls"] == 6  # 3 cells plus 3 noiseless references
    assert metrics["noise.apply_channel_calls"] == 6 * 9
    tracer.write_csv(str(tmp_path / "spans.csv"))
    assert spans.read_csv(str(tmp_path / "spans.csv")) == recorded


def test_speed_is_the_mean_share_of_reference_speed():
    ref = speed.REF_KERNEL_S
    assert speed.speed([ref, ref]) == 1.0
    # Half the time at full speed and half at 1/1.6 of it.
    assert math.isclose(speed.speed([ref, 1.6 * ref]), (1 + 1 / 1.6) / 2)


def test_sampler_samples_through_the_body_and_leaves_its_own_time_out():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 0.2 / speed.INTERVAL_S / 2
    assert math.isclose(sampler.own_s + sampler.sampling_s, sampler.wall_s)
    assert 0.2 - sampler.sampling_s - 0.01 < sampler.own_s < 0.21
    assert math.isclose(sampler.adjusted_s, sampler.own_s * speed.speed(sampler.samples))
