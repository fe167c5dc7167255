"""Channel types and single-link secrecy-rate formulas."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecylab import (
    AgentChannel,
    ChannelState,
    FadingWiretapChannel,
    GaussianWiretapChannel,
    InvalidInputError,
    gaussian_secrecy_rate,
    instantaneous_fading_secrecy_rate,
    is_qualified,
    to_agent_channel,
)
from secrecylab.channels import _secrecy_rate

finite_positive = st.floats(min_value=1e-3, max_value=1e3,
                            allow_nan=False, allow_infinity=False)


class TestTypes:
    def test_gaussian_rejects_nonpositive_variance(self):
        with pytest.raises(InvalidInputError):
            GaussianWiretapChannel(sigma_m_sq=-1.0, sigma_w_sq=1.0)
        with pytest.raises(InvalidInputError):
            GaussianWiretapChannel(sigma_m_sq=1.0, sigma_w_sq=0.0)
        with pytest.raises(InvalidInputError):
            GaussianWiretapChannel(sigma_m_sq=math.nan, sigma_w_sq=1.0)
        with pytest.raises(InvalidInputError):
            GaussianWiretapChannel(sigma_m_sq=1.0, sigma_w_sq=math.inf)

    def test_fading_rejects_nonpositive_fields(self):
        for bad in ({"a": 0.0}, {"b": -2.0}, {"sigma_m_sq": math.inf}):
            kwargs = {"a": 1.0, "b": 1.0, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}
            kwargs.update(bad)
            with pytest.raises(InvalidInputError):
                FadingWiretapChannel(**kwargs)

    @pytest.mark.parametrize("build, field", [
        (lambda: GaussianWiretapChannel(True, 3.0), "sigma_m_sq"),
        (lambda: FadingWiretapChannel(1.0, True, 1.0, 1.0), "b"),
        (lambda: AgentChannel(1, True, 2.0), "main_snr"),
        (lambda: AgentChannel(1, 1.0, False), "eaves_snr"),
        (lambda: ChannelState(0.5, True), "b_draw"),
    ])
    def test_booleans_are_not_numbers(self, build, field):
        message = rf"^{field}: expected a finite number, got (True|False)$"
        with pytest.raises(InvalidInputError, match=message):
            build()

    @pytest.mark.parametrize("fields, name, gain", [
        ({"a": 1e10, "sigma_m_sq": 1e-300}, "sigma_m_sq", "inf"),
        ({"a": 1e-200, "sigma_m_sq": 1e200}, "sigma_m_sq", "0.0"),
        ({"b": 1e300, "sigma_w_sq": 1e-300}, "sigma_w_sq", "inf"),
        ({"b": 1e-300, "sigma_w_sq": 1e300}, "sigma_w_sq", "0.0"),
    ])
    def test_fading_power_gains_must_be_positive_finite(self, fields, name, gain):
        kwargs = dict({"a": 1.0, "b": 1.0, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}, **fields)
        with pytest.raises(InvalidInputError, match=rf"^{name}: .*power gain .*got {gain}"):
            FadingWiretapChannel(**kwargs)

    def test_smallest_fading_gains_still_load(self):
        ch = FadingWiretapChannel(a=1e-300, b=1.0, sigma_m_sq=1.0, sigma_w_sq=1.0)
        assert to_agent_channel(ch, 1).main_snr == 1e-300
        assert to_agent_channel(FadingWiretapChannel(5e-324, 1.0, 1.0, 1.0), 1).main_snr > 0

    def test_gaussian_variance_with_overflowing_gain_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^sigma_w_sq: .*power gain .*got inf"):
            GaussianWiretapChannel(sigma_m_sq=1.0, sigma_w_sq=1e-320)
        GaussianWiretapChannel(sigma_m_sq=1e-308, sigma_w_sq=1.0)

    def test_state_allows_zero_gain(self):
        state = ChannelState(a_draw=0.0, b_draw=0.0)
        assert state.a_draw == 0.0
        with pytest.raises(InvalidInputError):
            ChannelState(a_draw=-0.1, b_draw=1.0)


class TestGaussianSecrecyRate:
    def test_zero_power_gives_zero(self):
        ch = GaussianWiretapChannel(1.0, 3.0)
        assert gaussian_secrecy_rate(0.0, ch) == 0.0

    def test_identical_channels_give_zero(self):
        ch = GaussianWiretapChannel(2.0, 2.0)
        assert gaussian_secrecy_rate(7.3, ch) == 0.0

    def test_hand_evaluated_value(self):
        # 1/2 log2 4 - 1/2 log2 2 = 0.5 bits
        ch = GaussianWiretapChannel(1.0, 3.0)
        assert gaussian_secrecy_rate(3.0, ch) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_power_rejected(self):
        ch = GaussianWiretapChannel(1.0, 3.0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                gaussian_secrecy_rate(bad, ch)

    def test_nondecreasing_in_power_when_eavesdropper_noisier(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            sm = rng.uniform(0.5, 5.0)
            ch = GaussianWiretapChannel(sm, sm + rng.uniform(0.1, 5.0))
            grid = np.linspace(0.0, 50.0, 200)
            rates = [gaussian_secrecy_rate(p, ch) for p in grid]
            assert np.all(np.diff(rates) >= -1e-12)

    def test_rate_below_asymptotic_ceiling(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            sm = rng.uniform(0.5, 5.0)
            sw = sm + rng.uniform(0.1, 5.0)
            ch = GaussianWiretapChannel(sm, sw)
            ceiling = 0.5 * math.log2(sw / sm)
            for p in rng.uniform(0.0, 1e6, size=20):
                assert gaussian_secrecy_rate(p, ch) < ceiling


class TestInstantaneousFadingRate:
    def test_zero_power(self):
        assert instantaneous_fading_secrecy_rate(0.0, ChannelState(3.0, 1.0)) == 0.0

    def test_equal_gains(self):
        assert instantaneous_fading_secrecy_rate(2.0, ChannelState(1.7, 1.7)) == 0.0

    def test_hand_evaluated_value(self):
        # 1/2 (log2 4 - log2 2) = 0.5 bits
        rate = instantaneous_fading_secrecy_rate(1.0, ChannelState(3.0, 1.0))
        assert rate == pytest.approx(0.5, abs=1e-12)

    def test_eavesdropper_ahead_clamps_to_zero(self):
        assert instantaneous_fading_secrecy_rate(5.0, ChannelState(1.0, 2.0)) == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidInputError):
            instantaneous_fading_secrecy_rate(-0.5, ChannelState(1.0, 1.0))


def decimal_rate(power, sigma_m_sq, sigma_w_sq):
    """``1/2 log2(1 + P/sigma_m_sq) - 1/2 log2(1 + P/sigma_w_sq)`` of the floats
    as given, evaluated to 400 digits, which keep 60 past a subnormal ``P/sigma``."""
    with decimal.localcontext(decimal.Context(prec=400)):
        p, m, w = map(decimal.Decimal, (power, sigma_m_sq, sigma_w_sq))
        return float(((1 + p / m).ln() - (1 + p / w).ln()) / (2 * decimal.Decimal(2).ln()))


class TestRateKernel:
    """The one elementwise rate kernel behind both scalar rate formulas."""

    HALF_LOG2_10 = 0.5 * math.log2(10.0)

    def test_overflowing_snr_keeps_the_true_rate(self):
        # p * a overflows to inf; the rate is 1/2 log2(a/b) in the limit.
        ch = GaussianWiretapChannel(sigma_m_sq=1e-10, sigma_w_sq=1e-9)
        assert abs(gaussian_secrecy_rate(1e300, ch) - self.HALF_LOG2_10) <= 1e-12
        rate = instantaneous_fading_secrecy_rate(1e300, ChannelState(1e10, 1e9))
        assert abs(rate - self.HALF_LOG2_10) <= 1e-12
        vec = _secrecy_rate(np.array([1e300, 1.0]), np.array([1e10, 3.0]),
                            np.array([1e9, 1.0]))
        assert np.all(np.abs(vec - [self.HALF_LOG2_10, 0.5]) <= 1e-12)

    def test_overflow_without_eavesdropper_gain_stays_finite(self):
        rate = instantaneous_fading_secrecy_rate(1e300, ChannelState(1e10, 0.0))
        assert rate == pytest.approx(0.5 * (math.log2(1e10) + math.log2(1e300)), rel=1e-15)

    def test_overflow_with_eavesdropper_ahead_clamps_to_zero(self):
        assert instantaneous_fading_secrecy_rate(1e300, ChannelState(1e9, 1e10)) == 0.0
        assert instantaneous_fading_secrecy_rate(1e300, ChannelState(1e10, 1e10)) == 0.0

    def test_rate_of_nearly_equal_noises(self):
        sigma_w_sq = 1.0 + 1e-15
        rate = gaussian_secrecy_rate(1.0, GaussianWiretapChannel(1.0, sigma_w_sq))
        assert rate == pytest.approx(decimal_rate(1.0, 1.0, sigma_w_sq), rel=1e-12, abs=0.0)

    def test_rate_of_a_tiny_power(self):
        # A gain of 0 is an infinite noise variance.
        rate = instantaneous_fading_secrecy_rate(1e-17, ChannelState(1.0, 0.0))
        assert rate == pytest.approx(decimal_rate(1e-17, 1.0, math.inf), rel=1e-12, abs=0.0)

    def test_overflowing_eavesdropper_product(self):
        # p b overflows and p (a - b) does not; 60 digits give 0.0687517618749674541...
        rate = instantaneous_fading_secrecy_rate(1.8e298, ChannelState(1.1e10, 1e10))
        assert rate == pytest.approx(0.06875176187496745, rel=1e-15)

    def test_overflowing_inverse_power_sum(self):
        # 1/p + b passes the float maximum while p a and p b stay moderate;
        # 60 digits give 0.0351946639456989810...
        rate = instantaneous_fading_secrecy_rate(1e-307, ChannelState(1.79e308, 1.7e308))
        assert rate == pytest.approx(0.035194663945698985, rel=1e-11)

    @pytest.mark.parametrize("power", [1e-310, 5e-324])
    @pytest.mark.parametrize("sigma_m_sq, sigma_w_sq", [(5.6e-309, 1.0), (1.0, 2.0)])
    def test_rate_of_a_subnormal_power(self, power, sigma_m_sq, sigma_w_sq):
        # 1/p overflows.  The gains are (1.78e308, 1) and (1, 0.5); on the
        # second the rate is itself subnormal, so it is checked to one step.
        rate = gaussian_secrecy_rate(power, GaussianWiretapChannel(sigma_m_sq, sigma_w_sq))
        exact = decimal_rate(power, sigma_m_sq, sigma_w_sq)
        assert rate == pytest.approx(exact, rel=1e-15, abs=5e-324)

    def test_scalar_wrappers_equal_the_vector_kernel(self):
        rng = np.random.default_rng(12)
        p = 10.0 ** rng.uniform(-20, 300, 400)
        p[:5] = 0.0
        a = 10.0 ** rng.uniform(-10, 10, 400)
        b = 10.0 ** rng.uniform(-10, 10, 400)
        b[5:10] = 0.0
        vec = _secrecy_rate(p, a, b)
        assert np.all(np.isfinite(vec)) and np.all(vec >= 0.0)
        fading = [instantaneous_fading_secrecy_rate(x, ChannelState(y, z))
                  for x, y, z in zip(p, a, b)]
        np.testing.assert_array_equal(vec, fading)
        gaussian = [gaussian_secrecy_rate(x, GaussianWiretapChannel(1.0 / y, 1.0 / z))
                    for x, y, z in zip(p[10:], a[10:], b[10:])]
        np.testing.assert_allclose(vec[10:], gaussian, rtol=1e-12, atol=1e-15)


class TestQualification:
    def test_clear_advantage_is_qualified(self):
        assert is_qualified(FadingWiretapChannel(2.0, 1.0, 1.0, 1.0))

    def test_equality_is_disqualified(self):
        assert not is_qualified(FadingWiretapChannel(1.0, 1.0, 1.0, 1.0))

    def test_noise_normalization_matters(self):
        # a/sigma_m_sq = 0.5 < b/sigma_w_sq = 1
        assert not is_qualified(FadingWiretapChannel(1.0, 1.0, 2.0, 1.0))

    def test_to_agent_channel_values(self):
        agent = to_agent_channel(FadingWiretapChannel(2.0, 3.0, 1.0, 1.0), id=4)
        assert agent.id == 4
        assert agent.main_snr == pytest.approx(2.0)
        assert agent.eaves_snr == pytest.approx(3.0)

        agent = to_agent_channel(FadingWiretapChannel(4.0, 1.0, 2.0, 2.0), id=1)
        assert (agent.main_snr, agent.eaves_snr) == (2.0, 0.5)

    @given(a=finite_positive, b=finite_positive,
           sm=finite_positive, sw=finite_positive)
    @settings(max_examples=300)
    def test_qualified_iff_agent_snrs_ordered(self, a, b, sm, sw):
        ch = FadingWiretapChannel(a, b, sm, sw)
        agent = to_agent_channel(ch, id=0)
        assert is_qualified(ch) == (agent.main_snr > agent.eaves_snr)

    def test_agent_channel_rejects_nonpositive_snr(self):
        with pytest.raises(InvalidInputError):
            AgentChannel(id=1, main_snr=0.0, eaves_snr=1.0)
