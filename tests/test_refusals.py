"""Refusals and boundary values that no other test or run reaches.

One table of calls that must raise, and one of calls whose answer at the
edge of a formula's domain is fixed by definition (an empty interval, a
start outside the set, a zero clearance).
"""

import numpy as np
import pytest

import stablelab as sl
from stablelab import closedform, functionals
from stablelab.config import ConfigError, parse_config

BM1 = sl.ProcessSpec(alpha=2.0, dim=1)

REFUSALS = {
    "j_params_gamma2_zero": (lambda: sl.JParams(0.5, 0.0), ValueError, "gamma2"),
    "j_integral_point_of_wrong_dimension": (
        lambda: sl.j_integral(sl.JParams(0.5, 3.0, 3), [1.0, 2.0]), ValueError, r"R\^3"),
    "unknown_experiment": (
        lambda: parse_config("", experiment="nonsense"), ConfigError, "nonsense"),
    "feynman_kac_weight_past_t_max": (
        lambda: sl.feynman_kac_weight(
            sl.sample_path(BM1, [0.0], 1.0, 0.1, 5), sl.KillingPotential.constant(1.0), 1.5),
        ValueError, "t_max"),
    "lifetime_tail_bound_diverges": (
        lambda: sl.estimate_killed_lifetime_mean(
            BM1, [0.0], sl.KillingPotential.constant(1e-12), 0.1, 2, 1, t_max=1.0),
        sl.TailBoundError, "diverges"),
    "union_of_balls_radius_count": (
        lambda: sl.UnionOfBalls(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), [0.6, 0.6]),
        ValueError, "one radius per center"),
    "shrinking_balls_none": (lambda: sl.shrinking_ball_domain(2, 0), ValueError, "n_max"),
    "shrinking_intervals_none": (
        lambda: sl.disjoint_shrinking_intervals(0), ValueError, "n_max"),
    "path_batch_no_paths": (
        lambda: sl.sample_path_batch(BM1, [0.0], 1.0, 0.1, 0, 1), ValueError, "n_paths"),
    "engine_capture_past_horizon": (
        lambda: functionals._fk_engine(
            BM1, np.zeros((1, 1)), sl.KillingPotential.none(), 0.1, 1.0, 2, 1,
            capture_time=2.0),
        ValueError, "capture_time"),
    "part_mask_one_point_short": (
        lambda: sl.part_generator(
            sl.dirichlet_laplacian(sl.Grid1D.symmetric(1.0, 0.1)), np.ones(18, dtype=bool)),
        ValueError, "mask"),
    "interval_survival_at_time_zero": (
        lambda: closedform.brownian_interval_survival(-1.0, 1.0, 0.0, 0.0), ValueError, "t > 0"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refused(name):
    call, error, match = REFUSALS[name]
    with pytest.raises(error, match=match):
        call()


VALUES = {
    "lp_rates_one_time_is_its_rate": (
        lambda: sl.LpRates((8.0,), (1.5,), (1.4,), (1.5,)).extrapolated(1), 1.5),
    "interval_mean_exit_outside": (
        lambda: closedform.brownian_interval_mean_exit(-1.0, 1.0, 2.0), 0.0),
    "interval_survival_outside": (
        lambda: closedform.brownian_interval_survival(-1.0, 1.0, 2.0, 0.5), 0.0),
    "ball_mean_exit_outside": (lambda: closedform.brownian_ball_mean_exit(1.0, 2.0, 2), 0.0),
    "stable_mean_exit_outside": (
        lambda: closedform.stable_interval_mean_exit(1.5, 1.0, 2.0), 0.0),
    "central_mass_of_nothing": (
        lambda: closedform.symmetric_stable_central_cdf_mass(1.5, 0.0), 0.0),
    "exit_with_no_clearance": (lambda: closedform.brownian_one_sided_exit_prob(0.0, 1.0), 1.0),
}


@pytest.mark.parametrize("name", VALUES)
def test_boundary_value(name):
    call, expected = VALUES[name]
    assert call() == expected
