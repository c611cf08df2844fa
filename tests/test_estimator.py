"""Running-average rate estimates from collected lumps."""

from __future__ import annotations

import numpy as np
import pytest

from patrolopt.estimator import EstimatorState


def test_unvisited_vertices_use_the_default_rate():
    est = EstimatorState(3, mu_default=0.5)
    assert est.mu_hat().tolist() == [0.0, 0.5, 0.5, 0.5]
    # default prediction grows linearly from t = 0
    assert est.predicted_cost(4).tolist() == [0.0, 2.0, 2.0, 2.0]


def test_estimate_is_total_collected_over_elapsed_time():
    # dyadic lumps keep the divisions exact in binary floating point
    est = EstimatorState(2, mu_default=0.5)
    est.observe(1, 1.5, 2)
    assert est.mu_hat()[1] == 0.75
    est.observe(1, 0.75, 5)
    assert est.mu_hat()[1] == 2.25 / 5
    assert est.mu_hat()[2] == 0.5


def test_prediction_counts_iterations_since_last_visit():
    est = EstimatorState(2, mu_default=0.5)
    est.observe(2, 1.0, 2)  # mu_hat = 0.5, T = 2
    pred = est.predicted_cost(6)
    assert pred[2] == 0.5 * 4
    assert pred[0] == 0.0


def test_zero_lump_gives_zero_rate():
    est = EstimatorState(1, mu_default=0.5)
    est.observe(1, 0.0, 3)
    assert est.mu_hat()[1] == 0.0
    assert est.predicted_cost(7)[1] == 0.0


def test_observe_rejects_bad_input():
    est = EstimatorState(2, mu_default=0.5)
    est.observe(1, 1.0, 2)
    with pytest.raises(ValueError):
        est.observe(1, 1.0, 2)  # not after last visit
    with pytest.raises(ValueError):
        est.observe(1, 1.0, 1)
    with pytest.raises(ValueError):
        est.observe(2, -0.5, 1)
    with pytest.raises(ValueError):
        est.observe(3, 1.0, 1)
    with pytest.raises(ValueError):
        est.observe(0, 1.0, 1)


def test_interleaved_vertices_track_independently():
    est = EstimatorState(3, mu_default=0.25)
    est.observe(1, 2.0, 4)
    est.observe(3, 1.0, 1)
    est.observe(3, 2.0, 3)
    mu = est.mu_hat()
    assert mu[1] == 0.5
    assert mu[2] == 0.25
    assert mu[3] == 1.0


def test_estimates_converge_under_noise():
    rng = np.random.default_rng(9)
    est = EstimatorState(1, mu_default=0.5)
    true_rate = 0.6
    errs = []
    for t in range(1, 201):
        est.observe(1, float(np.clip(rng.normal(true_rate, 0.1), 0, 1)), t)
        if t in (5, 50, 200):
            errs.append(abs(est.mu_hat()[1] - true_rate))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.01
