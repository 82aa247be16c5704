"""Property tests over random plans: Deutsch-Jozsa promise tables, Grover marked
labels, every preparation step, placements with duplicates, and e in [0, 0.5];
the damage audit and the exact channel over stacks of initial states; the sweep's masked-column
parity against a masked sum; the cells' Philox keys, pairwise distinct and
carrying the seed in their low 64 bits; the state walk that spares verify
its draws against the dense oracle; the oracle's key compaction against
np.unique; and random complete error models.

Examples are capped and derandomized, and no failing example is replayed
from an earlier run, so the suite stays fast and repeatable.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dfsim import circuits, dfs, harness, noise, readout
from test_circuits import audit_rows, non_eigen_plan, per_word_audit
from test_noise import _per_e_exact

#: Every two-bit table that is constant or balanced.
PROMISE_TABLES = st.one_of(
    st.sampled_from([(0, 0, 0, 0), (1, 1, 1, 1)]),
    st.permutations([0, 0, 1, 1]).map(tuple),
)

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def plans(draw):
    """(mode, plan, initial) for a random mode, step, algorithm instance and
    placement; initial is the step's deviation.

    The placement is a sorted list of gate boundaries, duplicates and the
    empty list included.
    """
    mode = draw(st.sampled_from(circuits.MODES))
    step = draw(st.sampled_from(readout.steps_for_mode(mode)))
    if draw(st.sampled_from(circuits.ALGORITHMS)) == "grover":
        marked = draw(st.sampled_from(circuits.BASIS_LABELS))
        plan = circuits.assemble(mode, "grover", marked=marked)
    else:
        table = draw(PROMISE_TABLES)
        plan = circuits.assemble(mode, "deutsch-jozsa", function=table)
    boundaries = st.integers(min_value=0, max_value=len(plan.gates))
    placement = sorted(draw(st.lists(boundaries, max_size=12)))
    return mode, replace(plan, decoherence_points=tuple(placement)), step.deviation


E = st.floats(min_value=0.0, max_value=0.5)
SEEDS = st.integers(min_value=0, max_value=2**63 - 1)


@PROPERTY
@given(plans(), E, SEEDS)
def test_frame_signal_equals_dense_signal_shot_by_shot(mode_plan, e, seed):
    _, plan, initial = mode_plan
    shots = 16
    _, mask = circuits.damage_audit(plan, initial)
    reference = noise.run_plan_exact(plan, 0.0, initial)
    finals = noise.monte_carlo_finals(plan, e, shots, seed, initial=initial)
    dense = np.array([readout.signal_intensity(f, reference) for f in finals])
    flips = noise.draw_flips(e, seed, shots, len(mask))
    frame = 1 - 2 * ((flips & mask).sum(axis=(1, 2)) % 2)
    np.testing.assert_allclose(dense, frame, rtol=0, atol=1e-13)


@PROPERTY
@given(plans(), E, SEEDS, st.integers(min_value=1, max_value=256))
def test_signals_follow_the_damage_count(mode_plan, e, seed, shots):
    mode, plan, initial = mode_plan
    _, mask = circuits.damage_audit(plan, initial)
    n = int(mask.sum())
    exact = readout.signal_intensity(
        noise.run_plan_exact(plan, e, initial), noise.run_plan_exact(plan, 0.0, initial)
    )
    # signal_exact may exceed 1 by rounding (1.0000000000000004 in the golden
    # CSV), so only its distance to the prediction is asserted
    expected = 1.0 if mode == "protected" else (1.0 - 2.0 * e) ** n
    assert abs(exact - expected) <= 1e-10
    [mc], _ = harness._mc_signal(mask, (e,), shots, (seed,))
    assert -1.0 <= mc <= 1.0
    assert -1.0 <= readout.theory_curve(n, e) <= 1.0


@PROPERTY
@given(plans())
def test_stacked_damage_audit_equals_each_steps_audit(mode_plan):
    # row i of the mode's stacked audit is the audit of step i through the plan
    mode, plan, _ = mode_plan
    steps = readout.steps_for_mode(mode)
    present, damaging = circuits.damage_audit(plan, np.stack([step.deviation for step in steps]))
    assert damaging.shape == (len(steps), len(plan.decoherence_points), 2)
    for words, flags, step in zip(present, damaging, steps):
        alone = circuits.damage_audit(plan, step.deviation)
        assert np.array_equal(alone[0], words) and np.array_equal(alone[1], flags)
        assert audit_rows(plan, words, flags) == per_word_audit(plan, step.deviation)


def _assert_noise_free_walk_is_the_exact_channel_at_e_0(plan, preps, references):
    # every preparation entry is +-1/16 or 0 and every gate entry is in
    # {0, +-1/2, +-1}, so every noise-free product and sum is exact in float64:
    # the dense channel at e = 0, kept here as an independent check, must give
    # the walk's bytes, -0 included
    exact = noise.run_plan_exact(plan, 0.0, preps)
    assert references.shape == exact.shape and references.dtype == exact.dtype
    assert references.flags.c_contiguous and exact.flags.c_contiguous
    assert references.tobytes() == exact.tobytes()


@PROPERTY
@given(plans())
def test_noise_free_walk_equals_the_exact_channel_at_e_0(mode_plan):
    mode, plan, _ = mode_plan
    preps = np.stack([step.deviation for step in readout.steps_for_mode(mode)])
    walk = circuits.ideal_boundary_deviations(plan, preps)[-1]
    _assert_noise_free_walk_is_the_exact_channel_at_e_0(plan, preps, walk)


@pytest.mark.parametrize("placement", [None, (0, 2, 4), (1, 2), (), (0, 0, 1)])
@pytest.mark.parametrize("mode", circuits.MODES)
@pytest.mark.parametrize("algorithm", circuits.ALGORITHMS)
def test_mode_stack_references_equal_the_exact_channel_at_e_0(algorithm, mode, placement):
    # the references harness.mode_stacks gives run, verify and count-n
    cfg = harness.SweepConfig(modes=(mode,), algorithm=algorithm, placement=placement)
    [(_, plan, _, preps, _, references)] = harness.mode_stacks(cfg)
    _assert_noise_free_walk_is_the_exact_channel_at_e_0(plan, preps, references)


#: The plan of every (algorithm, mode).
MODE_PLANS = [
    circuits.assemble(mode, algorithm)
    for algorithm in circuits.ALGORITHMS
    for mode in circuits.MODES
]

#: e values where the exact channel's roundings are most at risk: the ends of
#: the range, the least subnormal, and values with e * 2**53 a whole number.
EDGE_E = st.sampled_from([0.0, 0.5, 5e-324, 2.0**-53, 3 * 2.0**-53, 0.25, 0.375, 1 / 1024])


@PROPERTY
@given(
    st.sampled_from(range(len(MODE_PLANS))),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5),
    st.lists(st.one_of(EDGE_E, E), max_size=6),
)
@example(0, [0, 1, 2, 3, 4], [0.0, 0.5, 5e-324, 2.0**-53, 0.25])
@example(3, [4], [])
def test_stacked_exact_evolution_equals_each_state_alone(index, picks, grid):
    # a stack of initial states (summed preparation, identity/16, the mode's
    # steps), evolved as (state, e) rows in one pass, equals the per-e Kraus
    # sum of each state alone, to the bit
    plan = MODE_PLANS[index]
    steps = [step.deviation for step in readout.steps_for_mode(plan.mode)]
    identity = np.eye(16, dtype=complex) / 16
    candidates = [sum(steps, identity), identity, *steps]
    initial = np.stack([candidates[i] for i in picks])
    finals = noise.run_plan_exact(plan, grid, initial)
    assert finals.shape == (len(picks), len(grid), 16, 16)
    for state, row in zip(initial, finals):
        for e, final in zip(grid, row):
            assert final.tobytes() == _per_e_exact(plan, e, state).tobytes()


@PROPERTY
@given(
    st.integers(min_value=1, max_value=9).flatmap(lambda points: arrays(bool, (points, 2))),
    st.lists(E, min_size=1, max_size=3),
    SEEDS,
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=16),
)
@example(np.ones((9, 2), dtype=bool), [0.25, 0.5], 7, 40, 16)
@example(np.eye(9, 2, -8, dtype=bool), [0.3], 8, 33, 5)  # one true column
def test_masked_column_parity_equals_the_masked_sum(mask, e, seed, shots, block):
    # the sweep xors only the mask's true columns, a _SHOT_BLOCK at a time
    seeds = tuple(seed + i for i in range(len(e)))
    flips = noise.draw_flips(e, seeds, shots, len(mask))
    odd = np.count_nonzero((flips & mask).sum(axis=(-2, -1)) % 2, axis=-1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_SHOT_BLOCK", block)
        means, _ = harness._mc_signal(mask, tuple(e), shots, seeds)
    assert means == [1.0 - 2.0 * k / shots for k in odd.tolist()]


@PROPERTY
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=600))
@example(0, 1)
@example(2**64 - 1, 600)
def test_cell_keys_are_distinct_and_keep_the_seed(seed, count):
    cfg = harness.SweepConfig(e_grid=(0.25,) * count, seed=seed)
    keys = [
        key
        for mode_idx in range(len(circuits.MODES))
        for step_keys in harness._step_keys(cfg, mode_idx, 3)
        for key in step_keys
    ]
    assert len(keys) == len(circuits.MODES) * 3 * count
    assert len(set(keys)) == len(keys)
    assert all(key & (2**64 - 1) == seed and key < 2**128 for key in keys)


def _single_point_histories(points: int) -> np.ndarray:
    """(1 + 3 points, points, 2): no flip, then each of XXII, IIXX and XXXX alone at each point."""
    flips = np.zeros((1 + 3 * points, points, 2), dtype=bool)
    for p in range(points):
        for k in (1, 2, 3):  # the dense oracle's flip pattern k = XXII + 2 IIXX
            flips[3 * p + k, p] = (k & 1, k >> 1)
    return flips


@PROPERTY
@given(plans(), SEEDS)
@example(("unprotected", non_eigen_plan(), readout.unprotected_steps()[0].deviation), 0)
@example(("protected", circuits.assemble("protected", placement=()),
          readout.protected_steps()[0].deviation), 0)
def test_invariant_final_is_the_dense_final_of_every_flip_history(mode_plan, seed):
    # the walk reads only states: where it finds a final, the dense oracle
    # takes random, all-true and single-point histories to those bytes, at
    # index 0; where it finds none, a flip at one point gives a second state
    _, plan, initial = mode_plan
    points = len(plan.decoherence_points)
    single = _single_point_histories(points)
    final = noise._invariant_final(plan, initial)
    if final is None:
        states, _ = noise.monte_carlo_states(plan, single, initial)
        assert len(states) > 1
        return
    assert final.shape == (16, 16) and final.dtype == complex
    every = np.ones((1, points, 2), dtype=bool)
    for flips in (noise.draw_flips(0.5, seed, 64, points), every, single):
        states, index = noise.monte_carlo_states(plan, flips, initial)
        assert states.shape == (1, 16, 16) and states.tobytes() == final.tobytes()
        assert index.shape == (len(flips),) and not index.any()


@PROPERTY
@given(
    st.integers(min_value=1, max_value=64).flatmap(
        lambda size: st.tuples(
            st.just(size),
            arrays(np.intp, st.integers(0, 300), elements=st.integers(0, size - 1)),
        )
    )
)
def test_key_compaction_equals_unique(size_keys):
    # monte_carlo_states compacts its (state, flip pattern) keys without a sort
    size, keys = size_keys
    distinct, inverse = noise._compact(keys, size)
    expected_distinct, expected_inverse = np.unique(keys, return_inverse=True)
    assert distinct.dtype == expected_distinct.dtype and inverse.dtype == expected_inverse.dtype
    np.testing.assert_array_equal(distinct, expected_distinct)
    np.testing.assert_array_equal(inverse, expected_inverse)


#: Row i: the character (1, s1, s2, s3) of subspace i+1, so that a @ CHI.T
#: holds each operator's scalar on each subspace.
CHI = np.array([(1, *dfs.dfs_basis(i).signature) for i in (1, 2, 3, 4)], dtype=float)


def coefficient_parts(n):
    """Real and imaginary parts of an (n, 4) coefficient matrix, entries in [-1, 1]."""
    part = arrays(float, (n, 4), elements=st.floats(min_value=-1.0, max_value=1.0))
    return st.tuples(part, part)


@PROPERTY
@given(st.integers(min_value=1, max_value=6).flatmap(coefficient_parts))
def test_random_complete_error_models_only_reweight_by_one(parts):
    # scale each subspace's scalars to unit norm: then sum_d E_d^dagger E_d = I
    scalars = (parts[0] + 1j * parts[1]) @ CHI.T
    norms = np.linalg.norm(scalars, axis=0)
    assume(norms.min() > 1e-3)
    scalars /= norms
    coefficients = np.linalg.solve(CHI, scalars.T).T
    spec = noise.ErrorModelSpec(coefficients)
    assert spec.completeness_defect <= 1e-12
    audit = noise.verify_error_model(spec)
    assert audit.max_residual <= 1e-12
    np.testing.assert_allclose(audit.weights, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(audit.eigenvalues, scalars, rtol=0, atol=1e-12)
