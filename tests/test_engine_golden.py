"""Golden engine values: the Monte Carlo estimators return these numbers to
the bit for these seeds.

The values were recorded at commit 1f488a8 (before the squared-norm rule,
the broadcast lattice-union depth and the bridge's early return) at toy
size.  The two ``dynkin_residual`` cases were recorded the same way at
commit 32e09da, before the exit step moved into ``functionals._exit_step``.
A change to the engine's step that is meant to be a pure speed-up
must keep every one of them; a change that is meant to move Monte Carlo
numbers (draws, streams, chunking, compaction) re-records them and says so.
Each result is reduced to its floats and compared by ``repr``, so equality
is bitwise.
"""

import numpy as np
import pytest

import stablelab as sl
from stablelab.closedform import CauchyBump, GaussianBump

BM1 = sl.ProcessSpec(alpha=2.0, dim=1)
BM2 = sl.ProcessSpec(alpha=2.0, dim=2)
CAUCHY = sl.ProcessSpec(alpha=1.0, dim=1)
V = sl.KillingPotential.power(1.0, 2.0, offset=1.0)  # V = 1 + |x|^2
NS = np.array([5.0, 50.0, 500.0, 5000.0])  # the benchmark's scan probes
INNER = np.linspace(-3.0, 3.0, 13)[:, None]
OUTER = np.array([[-6.0], [-5.0], [-4.0], [-3.5], [-3.25], [3.25], [3.5], [4.0], [5.0], [6.0]])

CASES = {
    "disc": lambda: sl.estimate_mean_exit_time(
        BM2, [0.0, 0.0], sl.Ball((0.0, 0.0), 1.0), t_max=8.0, h=1e-3, n_paths=1000, seed=2701),
    "off_centre_ball": lambda: sl.estimate_mean_exit_time(
        BM2, [0.5, -0.25], sl.Ball((0.5, -0.25), 1.0), t_max=8.0, h=1e-3, n_paths=500, seed=2702),
    "shrinking_ball_scan": lambda: sl.exit_time_scan(
        BM2, np.column_stack([NS, np.zeros_like(NS)]), sl.shrinking_ball_domain(2, 10_000),
        t_max=20.0, h=1e-2, n_paths=200, seed=2703),
    "norm_bound": lambda: sl.t_norm_bound_check(
        CAUCHY, V, sl.Interval(-6.0, 6.0), INNER, OUTER, t=1.0, h=1e-2, n_paths=50,
        seed=2705, zeta_t_max=6.0),
    "lifetime_d2": lambda: sl.estimate_killed_lifetime_mean(
        BM2, [0.3, -0.2], V, h=1e-2, n_paths=400, seed=2706, t_max=6.0),
    "dynkin_brownian": lambda: sl.dynkin_residual(
        BM1, 0.2, GaussianBump(1.0), 0.5, sl.Interval(-1.0, 1.0), h=1e-3, n_paths=2000, seed=2801),
    "dynkin_cauchy": lambda: sl.dynkin_residual(
        CAUCHY, 0.0, CauchyBump(1.0), 0.5, sl.Interval(-1.0, 1.0), h=1e-3, n_paths=2000, seed=2802),
}

GOLDEN = {
    'disc': (0.4869679999999975, 0.010546641217752414, 0.0, None, None),
    'off_centre_ball': (0.4936019999999974, 0.015530528619206327, 0.0, None, None),
    'shrinking_ball_scan': (((1.304099999999997, 0.07370082055174074, 0.0, None, None),
                             (0.6188429152239796, 0.016950172235908466, 0.0, None,
                              None)),
                            ((0.6166999999999999, 0.037976381475859314, 0.0, None,
                              None),
                             (0.40224431555474, 0.015017904989513735, 0.0, None, None)),
                            ((0.42615000000000025, 0.024671965618896296, 0.0, None,
                              None),
                             (0.31274769206583775, 0.013317537665718327, 0.0, None,
                              None)),
                            ((0.3462000000000002, 0.01922349604000273, 0.0, None, None),
                             (0.26952400658047615, 0.011603921433762892, 0.0, None,
                              None))),
    'norm_bound': (0.0006688301482302626, 0.0006621080426687887, 0.38506707627011094,
                   0.01418790619255178, 0.04261004133651295,
                   (3.6864977352210156e-06, 1.1209893228515785e-09,
                    3.280435891477223e-07, 1.748650477253168e-11,
                    2.1902617435429608e-15, 2.501710318478045e-05,
                    0.0006688301482302626, 1.0564492843697369e-05,
                    1.2929918566533832e-13, 4.158236070459819e-05,
                    7.702076910030096e-07, 6.743318037570984e-08, 3.317399625981217e-13,
                    5.758965909356675e-06, 9.615871773939972e-15, 3.324447479991762e-07,
                    5.406911254196749e-12, 1.2198867733463213e-07,
                    6.361767469096959e-11, 2.67635654593899e-09, 1.8079488059672318e-12,
                    3.0187269882763657e-13, 4.653933908636204e-08),
                   (3.649401085046244e-06, 1.1085874108807526e-09,
                    3.246858315871644e-07, 1.698112411774159e-11,
                    2.1682485040057777e-15, 2.4574016460969868e-05,
                    0.0006621080426687887, 9.705011279744909e-06, 1.279996633802028e-13,
                    4.116443692175559e-05, 7.623476090198154e-07, 6.387372316342918e-08,
                    2.7884292124008387e-13, 5.701083141849298e-06,
                    6.2073670902009776e-15, 3.2910318497953914e-07,
                    5.202043834996591e-12, 1.2076076546965552e-07,
                    6.297828484822613e-11, 1.852897529669645e-09,
                    1.7288474620546125e-12, 1.8396578796201467e-13,
                    4.5838630528785774e-08)),
    'lifetime_d2': (0.5761808838388193, 0.0056313312315874504, 0.0, 0.576182752812599,
                    0.16834367067629274),
    'dynkin_brownian': (0.00027115857093994264, 0.003421697742166331, 0.6867866517458123,
                        0.5375365158009718, 0.14897897737390067),
    'dynkin_cauchy': (0.0005154952186898821, 0.0020520567366314507, 0.6628913837258135,
                      0.5648119989664917, 0.09756388954063189),
}


def _floats(result):
    """The numbers a result carries, as nested tuples of floats."""
    if isinstance(result, (list, tuple)):
        return tuple(_floats(r) for r in result)
    if isinstance(result, sl.EstimatorResult):
        return (result.mean, result.stderr, result.survived_fraction,
                result.tail_corrected_mean, result.p_hat)
    if isinstance(result, sl.DynkinResidual):
        return (result.residual, result.stderr, result.full_semigroup,
                result.part_semigroup, result.boundary_term)
    table = result.probe_table
    return (result.lhs, result.lhs_stderr, result.rhs, result.rhs_stderr, result.slack,
            tuple(table.means.tolist()), tuple(table.stderrs.tolist()))


@pytest.mark.parametrize("name", list(CASES))
def test_engine_golden(name):
    assert repr(_floats(CASES[name]())) == repr(GOLDEN[name])
