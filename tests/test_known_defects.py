"""Known wrong answers, each pinned as a strict xfail until ROADMAP item 1 mends it.

Each case states the correct answer.  Today each gives a wrong number at
exit 0 or raises a typed error where the answer exists, so each is expected
to fail; ``strict=True`` turns the first one that passes into a failure, so
its mending shows and the mark is removed with it.
"""

import math

import numpy as np
import pytest

from secrecylab import (
    FadingWiretapChannel,
    GaussianWiretapChannel,
    awgn_waterfill,
    calibrate_fading_lambda,
)
from secrecylab.allocation import FADING_BUDGET_REL_TOL, _power_array

THRESHOLD_SOLVE = pytest.mark.xfail(strict=True, reason="ROADMAP item 1a")


@THRESHOLD_SOLVE
@pytest.mark.parametrize("budget", [1e-20, 1e-16, 1e-10])
def test_small_budget_goes_to_the_first_link_to_activate(budget):
    # Link 2 activates at t = 3 and link 1 at t = 4, so a budget this small
    # is all link 2's.  Today: (0, 0) at 1e-20, 11 % too much at 1e-16, and
    # wrong from the 8th digit at 1e-10.
    result = awgn_waterfill([GaussianWiretapChannel(1.0, 2.0), GaussianWiretapChannel(1.0, 3.0)],
                            budget)
    np.testing.assert_allclose(result.powers, [0.0, budget], rtol=1e-12, atol=0.0)


@THRESHOLD_SOLVE
@pytest.mark.parametrize("sigma_m_sq, sigma_w_sq, budget", [
    (2.0 ** 24, 2.0 ** 54, 1.0),
    (8.82e129, 1.25e132, 2.46e267),
])
def test_one_link_spends_the_budget(sigma_m_sq, sigma_w_sq, budget):
    # Today both raise NumericalError: the first misses the 1e-9 residual by
    # bracket collapse, the second's threshold passes the float maximum.
    result = awgn_waterfill([GaussianWiretapChannel(sigma_m_sq, sigma_w_sq)], budget)
    np.testing.assert_allclose(result.powers, [budget], rtol=1e-12, atol=0.0)


@THRESHOLD_SOLVE
def test_power_of_two_scaling_into_subnormal_powers():
    # The example TestPowerOfTwoScaling finds only when a local hypothesis
    # database replays it: the scaled solve gives ...804e-308 where the
    # unscaled one, scaled back, gives ...808e-308.
    variances = [(1.0, 1.0)] * 3 + [(2.0 ** -106, 2.0 ** -78.25)]
    budget, j = 2.0 ** -106, -914
    base = awgn_waterfill([GaussianWiretapChannel(m, w) for m, w in variances], budget)
    scaled = awgn_waterfill(
        [GaussianWiretapChannel(math.ldexp(m, j), math.ldexp(w, j)) for m, w in variances],
        math.ldexp(budget, j))
    np.testing.assert_array_equal(scaled.powers, np.ldexp(base.powers, j))


def calibration_draws(ch, samples, seed):
    """The gain draws ``calibrate_fading_lambda`` takes for ``samples`` and ``seed``."""
    rng = np.random.default_rng(seed)
    return rng.exponential(ch.a, samples), rng.exponential(ch.b, samples)


@THRESHOLD_SOLVE
@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_calibration_meets_a_tiny_budget(seed):
    # Today each of these seeds raises NumericalError; seed 1 passes.
    budget, ch = 1e-20, FadingWiretapChannel(2.0, 1.0, 1.0, 1.0)
    policy = calibrate_fading_lambda(ch, budget, 10_000, seed)
    assert abs(policy.avg_power - budget) <= FADING_BUDGET_REL_TOL * budget
    # The threshold the policy carries spends the budget too.
    spent = _power_array(policy.threshold, *calibration_draws(ch, 10_000, seed)).mean()
    assert abs(spent - budget) <= FADING_BUDGET_REL_TOL * budget
