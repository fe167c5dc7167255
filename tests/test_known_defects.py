"""Known wrong answers, each pinned as a strict xfail until ROADMAP item 1 mends it.

Each case states the correct answer.  Today each gives a wrong number at
exit 0 or raises a typed error where the answer exists, so each is expected
to fail; ``strict=True`` turns the first one that passes into a failure, so
its mending shows and the mark is removed with it.
"""

import decimal
import math

import numpy as np
import pytest

from secrecylab import (
    ChannelState,
    FadingWiretapChannel,
    GaussianWiretapChannel,
    awgn_waterfill,
    calibrate_fading_lambda,
    gaussian_secrecy_rate,
    instantaneous_fading_secrecy_rate,
)
from secrecylab.allocation import FADING_BUDGET_REL_TOL

THRESHOLD_SOLVE = pytest.mark.xfail(strict=True, reason="ROADMAP item 1a")
RATE_KERNEL = pytest.mark.xfail(strict=True, reason="ROADMAP item 1b")


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


@THRESHOLD_SOLVE
@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_calibration_meets_a_tiny_budget(seed):
    # Today each of these seeds raises NumericalError; seed 1 passes.
    budget = 1e-20
    policy = calibrate_fading_lambda(FadingWiretapChannel(2.0, 1.0, 1.0, 1.0), budget,
                                     10_000, seed)
    assert abs(policy.avg_power - budget) <= FADING_BUDGET_REL_TOL * budget


def decimal_rate(power, sigma_m_sq, sigma_w_sq):
    """``1/2 log2(1 + P/sigma_m_sq) - 1/2 log2(1 + P/sigma_w_sq)`` of the floats
    as given, evaluated to 60 digits."""
    with decimal.localcontext(decimal.Context(prec=60)):
        p, m, w = map(decimal.Decimal, (power, sigma_m_sq, sigma_w_sq))
        return float(((1 + p / m).ln() - (1 + p / w).ln()) / (2 * decimal.Decimal(2).ln()))


@RATE_KERNEL
def test_rate_of_nearly_equal_noises():
    # 4.00428e-16 bits; today 4.805e-16.
    sigma_w_sq = 1.0 + 1e-15
    rate = gaussian_secrecy_rate(1.0, GaussianWiretapChannel(1.0, sigma_w_sq))
    assert rate == pytest.approx(decimal_rate(1.0, 1.0, sigma_w_sq), rel=1e-12, abs=0.0)


@RATE_KERNEL
def test_rate_of_a_tiny_power():
    # A gain of 0 is an infinite noise variance.  Today the rate is 0.
    rate = instantaneous_fading_secrecy_rate(1e-17, ChannelState(1.0, 0.0))
    assert rate == pytest.approx(decimal_rate(1e-17, 1.0, math.inf), rel=1e-12, abs=0.0)
