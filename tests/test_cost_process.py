"""Growth sampling determinism and the accrue/collect state machine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolopt.cost_process import (
    CLIP_RANGE,
    CostState,
    GrowthParams,
    materialize_kappa,
    sample_growth,
)


def check_invariant(cs):
    """Assert accrued[i] == sum of kappa[i, T[i]+1 .. t] for every vertex."""
    for i in range(1, cs.num_vertices + 1):
        expect = float(cs.kappa[i, cs.T[i] + 1 : cs.t + 1].sum())
        if abs(expect - cs.accrued[i]) > 1e-9:
            raise AssertionError(
                f"accrual invariant broken at vertex {i}: {cs.accrued[i]} vs {expect}"
            )


def params(mu, noise=0.1):
    return GrowthParams(mu_star=np.array([0.0] + list(mu)), noise_stddev=noise)


def test_sample_growth_is_deterministic_per_seed_and_iteration():
    p = params([0.3, 0.5, 0.7])
    a = sample_growth(p, 42, 1)
    b = sample_growth(p, 42, 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_growth(p, 42, 2))
    assert not np.array_equal(a, sample_growth(p, 43, 1))


def test_zero_noise_draws_equal_true_rates_exactly():
    p = params([0.25, 0.5, 0.875], noise=0.0)
    got = sample_growth(p, 7, 3)
    assert got.tolist() == [0.0, 0.25, 0.5, 0.875]


def test_draws_are_clipped_into_unit_interval():
    p = params([0.0, 1.0] * 5, noise=0.5)
    for t in range(1, 20):
        d = sample_growth(p, 11, t)
        assert (d >= 0.0).all() and (d <= 1.0).all()


def test_depot_slot_never_grows():
    p = params([0.9, 0.9])
    for t in range(1, 10):
        assert sample_growth(p, 3, t)[0] == 0.0


def test_iteration_index_must_be_positive():
    with pytest.raises(ValueError):
        sample_growth(params([0.5]), 1, 0)


def test_sample_mean_tracks_rate_when_clipping_is_slack():
    # mu = 0.5 is five sigmas from both clip bounds, so the clipped mean is
    # the plain Gaussian mean up to Monte-Carlo error.
    p = params([0.5], noise=0.1)
    draws = [sample_growth(p, 1000 + k, 1)[1] for k in range(20000)]
    assert abs(float(np.mean(draws)) - 0.5) < 0.005


def reference_sample_growth(params, stream_seed, t):
    """sample_growth before the direct PCG64 stream, kept verbatim as the reference."""
    rng = np.random.default_rng((stream_seed, t))
    mu = np.asarray(params.mu_star, dtype=float)
    draws = rng.normal(loc=mu, scale=params.noise_stddev)
    draws = np.clip(draws, *CLIP_RANGE)
    draws[0] = 0.0
    return draws


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mu=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)),
                   min_size=1, max_size=25),
       noise=st.one_of(st.sampled_from([0.0, 0.1]), st.floats(0.0, 2.0)),
       stream_seed=st.integers(0, 2**40), t=st.integers(1, 12))
def test_draws_match_the_normal_and_clip_reference(mu, noise, stream_seed, t):
    # bytes, so a signed zero that moves shows
    p = params(mu, noise)
    got = sample_growth(p, stream_seed, t)
    assert got.tobytes() == reference_sample_growth(p, stream_seed, t).tobytes()


def test_materialize_matches_per_iteration_sampling():
    p = params([0.2, 0.6])
    table = materialize_kappa(p, 5, 4)
    assert table.shape == (3, 5)
    assert np.array_equal(table[:, 0], np.zeros(3))
    for t in range(1, 5):
        assert np.array_equal(table[:, t], sample_growth(p, 5, t))


def test_cost_state_accrues_collects_and_reports_residual():
    kappa = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, 1.0, 2.0],
            [0.0, 4.0, 8.0],
        ]
    )
    cs = CostState(kappa)
    cs.advance()
    assert cs.residual_cost() == 5.0
    collected = cs.apply_visits({1, 2}, 1)
    assert collected == 1.0
    assert cs.residual_cost() == 4.0
    check_invariant(cs)
    cs.advance()
    # vertex 2 regrew 2, vertex 3 now carries 4 + 8
    assert cs.residual_cost() == 14.0
    assert cs.apply_visits({1, 3}, 2) == 12.0
    assert cs.residual_cost() == 2.0
    assert cs.T.tolist() == [0, 2, 1, 2]
    check_invariant(cs)


def test_cost_state_rejects_bad_calls():
    cs = CostState(np.zeros((3, 2)))
    cs.advance()
    with pytest.raises(ValueError):
        cs.advance()
    with pytest.raises(ValueError):
        cs.apply_visits({2}, 1)  # no depot
    with pytest.raises(ValueError):
        cs.apply_visits({1, 2}, 2)  # wrong iteration
    with pytest.raises(ValueError):
        cs.apply_visits({1, 9}, 1)  # out of range


def test_revisiting_within_one_iteration_collects_once():
    cs = CostState(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 3.0]]))
    cs.advance()
    assert cs.apply_visits({1, 2}, 1) == 3.0
    assert cs.apply_visits({1, 2}, 1) == 0.0
