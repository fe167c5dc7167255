"""Water-filling solver and fading power policy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecylab import (
    ChannelState,
    FadingPolicy,
    FadingWiretapChannel,
    GaussianWiretapChannel,
    InvalidInputError,
    NumericalError,
    awgn_waterfill,
    calibrate_fading_lambda,
    ergodic_secrecy_capacity,
    fading_power,
    gaussian_secrecy_rate,
    instantaneous_fading_secrecy_rate,
    power_at_lambda,
    sum_secrecy_rate,
)
from secrecylab.allocation import _fading_power_array


def random_bank(rng, n=3, lo=0.5, hi=5.0):
    return [GaussianWiretapChannel(rng.uniform(lo, hi), rng.uniform(lo, hi))
            for _ in range(n)]


def grid_best_rate(channels, budget, step=0.01):
    """Brute-force oracle: best clamped sum rate on the full-budget simplex grid."""
    sm = np.array([ch.sigma_m_sq for ch in channels])
    sw = np.array([ch.sigma_w_sq for ch in channels])
    k = int(round(budget / step))
    assert len(channels) == 3
    counts = np.arange(k + 1, 0, -1)
    k0 = np.repeat(np.arange(k + 1), counts)
    offsets = np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    k1 = np.arange(counts.sum()) - offsets
    powers = np.stack([k0, k1, k - k0 - k1], axis=1) * step
    rates = np.maximum(
        0.0,
        0.5 * (np.log2(1.0 + powers / sm) - np.log2(1.0 + powers / sw)),
    ).sum(axis=1)
    return float(rates.max())


class TestPowerAtLambda:
    def test_activation_boundary_gives_zero(self):
        ch = GaussianWiretapChannel(1.0, 3.0)
        assert power_at_lambda(ch, 1.0 / 3.0) == pytest.approx(0.0, abs=1e-9)

    def test_hand_evaluated_root(self):
        ch = GaussianWiretapChannel(1.0, 3.0)
        expected = 0.5 * (math.sqrt(20.0) - 4.0)
        assert power_at_lambda(ch, 0.25) == pytest.approx(expected, rel=1e-12)

    def test_ineligible_channel_gets_nothing(self):
        for sw in (0.5, 1.0):
            ch = GaussianWiretapChannel(1.0, sw)
            for lam in (1e-6, 0.1, 10.0):
                assert power_at_lambda(ch, lam) == 0.0

    def test_rejects_nonpositive_lambda(self):
        ch = GaussianWiretapChannel(1.0, 3.0)
        for lam in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidInputError):
                power_at_lambda(ch, lam)

    def test_activation_consistency(self):
        """power > 0 exactly when 1/sigma_m_sq - 1/sigma_w_sq > 2 lam."""
        rng = np.random.default_rng(11)
        for _ in range(1000):
            ch = GaussianWiretapChannel(rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
            lam = rng.uniform(1e-3, 2.0)
            active = power_at_lambda(ch, lam) > 0
            gate = 1.0 / ch.sigma_m_sq - 1.0 / ch.sigma_w_sq > 2.0 * lam
            assert active == gate


class TestWaterfill:
    def test_single_eligible_channel_takes_all(self):
        result = awgn_waterfill([GaussianWiretapChannel(1.0, 2.0)], budget=1.0)
        np.testing.assert_allclose(result.powers, [1.0], atol=1e-9)

    def test_identical_channels_split_evenly(self):
        bank = [GaussianWiretapChannel(1.0, 3.0), GaussianWiretapChannel(1.0, 3.0)]
        result = awgn_waterfill(bank, budget=4.0)
        np.testing.assert_allclose(result.powers, [2.0, 2.0], atol=1e-9)

    def test_three_channel_example_matches_grid_oracle(self):
        bank = [GaussianWiretapChannel(1.0, 3.0),
                GaussianWiretapChannel(1.0, 1.5),
                GaussianWiretapChannel(2.0, 1.0)]
        result = awgn_waterfill(bank, budget=10.0)
        assert result.powers[2] == 0.0
        oracle = grid_best_rate(bank, budget=10.0, step=0.01)
        assert result.sum_rate == pytest.approx(oracle, rel=1e-3)

    def test_no_eligible_channels_returns_zeros(self):
        bank = [GaussianWiretapChannel(2.0, 1.0), GaussianWiretapChannel(3.0, 3.0)]
        result = awgn_waterfill(bank, budget=5.0)
        np.testing.assert_array_equal(result.powers, [0.0, 0.0])
        assert result.lam == 0.0
        assert result.sum_rate == 0.0

    def test_budget_exactness(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            bank = random_bank(rng)
            if not any(ch.sigma_w_sq > ch.sigma_m_sq for ch in bank):
                continue
            for budget in (0.1, 1.0, 10.0):
                result = awgn_waterfill(bank, budget)
                assert abs(result.powers.sum() - budget) <= 1e-9

    def test_kkt_stationarity(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            bank = random_bank(rng)
            if not any(ch.sigma_w_sq > ch.sigma_m_sq for ch in bank):
                continue
            result = awgn_waterfill(bank, budget=5.0)
            for ch, p in zip(bank, result.powers):
                if p > 0:
                    lhs = (p + ch.sigma_m_sq) * (p + ch.sigma_w_sq) * 2 * result.lam
                    rhs = ch.sigma_w_sq - ch.sigma_m_sq
                    assert lhs == pytest.approx(rhs, rel=1e-6)
                else:
                    gate = (1.0 / ch.sigma_m_sq - 1.0 / ch.sigma_w_sq
                            > 2.0 * result.lam)
                    assert not gate

    def test_ineligible_channels_stay_at_zero(self):
        bank = [GaussianWiretapChannel(1.0, 3.0), GaussianWiretapChannel(2.0, 1.0)]
        result = awgn_waterfill(bank, budget=7.0)
        assert result.powers[1] == 0.0

    def test_sum_rate_nondecreasing_in_budget(self):
        bank = [GaussianWiretapChannel(1.0, 3.0),
                GaussianWiretapChannel(0.8, 2.0),
                GaussianWiretapChannel(1.5, 1.6)]
        rates = [awgn_waterfill(bank, b).sum_rate
                 for b in np.linspace(0.1, 10.0, 25)]
        assert np.all(np.diff(rates) >= -1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            awgn_waterfill([], budget=1.0)
        with pytest.raises(InvalidInputError):
            awgn_waterfill([GaussianWiretapChannel(1.0, 2.0)], budget=0.0)
        with pytest.raises(InvalidInputError):
            awgn_waterfill([GaussianWiretapChannel(1.0, 2.0)], budget=-3.0)

    def test_reports_per_link_rates(self):
        rng = np.random.default_rng(19)
        bank = random_bank(rng, n=8)
        bank[0] = GaussianWiretapChannel(1.0, 3.0)
        result = awgn_waterfill(bank, budget=6.0)
        assert result.rates.tolist() == [gaussian_secrecy_rate(p, ch)
                                         for p, ch in zip(result.powers.tolist(), bank)]
        assert result.sum_rate == sum_secrecy_rate(bank, result.powers)
        empty = awgn_waterfill([GaussianWiretapChannel(2.0, 1.0)], budget=1.0)
        np.testing.assert_array_equal(empty.rates, [0.0])

    @pytest.mark.parametrize("budget", [0.1, 1.0, 10.0])
    def test_matches_plain_bisection(self, budget):
        """Bisection on lam over the textbook root, written out here."""
        def textbook_powers(bank, lam):
            out = []
            for ch in bank:
                n_delta = ch.sigma_w_sq - ch.sigma_m_sq
                if n_delta > 0 and 1.0 / ch.sigma_m_sq - 1.0 / ch.sigma_w_sq > 2.0 * lam:
                    n_sum = ch.sigma_w_sq + ch.sigma_m_sq
                    out.append(0.5 * (math.sqrt(n_delta ** 2 + 2.0 * n_delta / lam) - n_sum))
                else:
                    out.append(0.0)
            return np.array(out)

        rng = np.random.default_rng(29)
        checked = 0
        while checked < 30:
            bank = random_bank(rng, n=int(rng.integers(1, 7)), lo=0.2, hi=5.0)
            if not any(ch.sigma_w_sq > ch.sigma_m_sq for ch in bank):
                continue
            hi = max(0.5 * (1.0 / ch.sigma_m_sq - 1.0 / ch.sigma_w_sq) for ch in bank)
            lo = hi
            while textbook_powers(bank, lo).sum() < budget:
                lo *= 0.5
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                if textbook_powers(bank, mid).sum() >= budget:
                    lo = mid
                else:
                    hi = mid
            lam = min((lo, hi), key=lambda v: abs(textbook_powers(bank, v).sum() - budget))
            result = awgn_waterfill(bank, budget)
            assert result.lam == pytest.approx(lam, rel=1e-12)
            np.testing.assert_allclose(result.powers, textbook_powers(bank, lam),
                                       rtol=1e-9, atol=1e-12)
            checked += 1

    @given(exponent=st.floats(min_value=-30.0, max_value=30.0),
           links=st.integers(min_value=1, max_value=5),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_budget_met_or_raises(self, exponent, links, seed):
        budget = 10.0 ** exponent
        bank = random_bank(np.random.default_rng(seed), n=links, lo=0.2, hi=5.0)
        try:
            result = awgn_waterfill(bank, budget)
        except NumericalError:
            return
        assert np.all(np.isfinite(result.powers)) and np.all(result.powers >= 0.0)
        assert math.isfinite(result.lam) and math.isfinite(result.sum_rate)
        assert np.all(np.isfinite(result.rates))
        if any(ch.sigma_w_sq > ch.sigma_m_sq for ch in bank):
            residual = abs(result.powers.sum() - budget)
            if not residual <= 1e-9:
                pytest.fail(f"budget residual {residual!r} exceeds 1e-9")


class TestSumSecrecyRate:
    def test_zero_powers(self):
        bank = [GaussianWiretapChannel(1.0, 3.0), GaussianWiretapChannel(1.0, 2.0)]
        assert sum_secrecy_rate(bank, [0.0, 0.0]) == 0.0

    def test_single_channel_reduces_to_link_rate(self):
        ch = GaussianWiretapChannel(1.0, 3.0)
        assert sum_secrecy_rate([ch], [3.0]) == gaussian_secrecy_rate(3.0, ch)

    def test_two_identical_channels(self):
        bank = [GaussianWiretapChannel(1.0, 3.0)] * 2
        assert sum_secrecy_rate(bank, [3.0, 3.0]) == pytest.approx(1.0, abs=1e-12)

    def test_additive_over_sublists(self):
        rng = np.random.default_rng(23)
        bank = random_bank(rng, n=6)
        powers = rng.uniform(0.0, 4.0, size=6).tolist()
        whole = sum_secrecy_rate(bank, powers)
        parts = (sum_secrecy_rate(bank[:2], powers[:2])
                 + sum_secrecy_rate(bank[2:], powers[2:]))
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            sum_secrecy_rate([GaussianWiretapChannel(1.0, 2.0)], [1.0, 2.0])

    def test_rejects_invalid_powers(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                sum_secrecy_rate([GaussianWiretapChannel(1.0, 2.0)], [bad])


FADING = FadingWiretapChannel(a=2.0, b=1.0, sigma_m_sq=1.0, sigma_w_sq=1.0)


class TestFadingPower:
    def test_no_advantage_gives_zero(self):
        policy = FadingPolicy(lam=0.25, channel=FADING)
        assert fading_power(policy, ChannelState(1.0, 1.0)) == 0.0
        assert fading_power(policy, ChannelState(0.5, 2.0)) == 0.0

    def test_hand_evaluated_root(self):
        # n_delta = 1/1 - 1/2 = 0.5, n_sum = 1.5
        policy = FadingPolicy(lam=0.25, channel=FADING)
        expected = 0.5 * (math.sqrt(4.25) - 1.5)
        assert fading_power(policy, ChannelState(2.0, 1.0)) == pytest.approx(
            expected, rel=1e-12)

    def test_large_threshold_kills_power(self):
        state = ChannelState(5.0, 1.0)
        assert fading_power(FadingPolicy(lam=1e9, channel=FADING), state) == 0.0
        sentinel = FadingPolicy(lam=math.inf, channel=FADING, zero_secrecy=True)
        assert fading_power(sentinel, state) == 0.0

    def test_power_vanishes_as_gains_meet(self):
        policy = FadingPolicy(lam=0.05, channel=FADING)
        b = 1.0
        prev = math.inf
        for eps in (1.0, 0.5, 0.3, 0.2, 0.15, 0.12, 0.11, 0.101):
            p = fading_power(policy, ChannelState(b + eps, b))
            assert p <= prev
            prev = p
        assert fading_power(policy, ChannelState(b + 0.100001, b)) < 1e-2
        assert fading_power(policy, ChannelState(b + 0.1, b)) <= 1e-12
        assert fading_power(policy, ChannelState(b + 0.09, b)) == 0.0

    def test_zero_eavesdropper_gain_limit(self):
        policy = FadingPolicy(lam=0.1, channel=FADING)
        expected = 0.5 * (1.0 / 0.1 - 2.0 / 4.0)
        assert fading_power(policy, ChannelState(4.0, 0.0)) == pytest.approx(
            expected, rel=1e-12)

    def test_vector_rule_matches_scalar(self):
        rng = np.random.default_rng(31)
        a = rng.exponential(2.0, 500)
        b = rng.exponential(1.0, 500)
        b[:3] = 0.0
        for lam in (0.05, 0.4, 2.0):
            vec = _fading_power_array(lam, a, b)
            policy = FadingPolicy(lam=lam, channel=FADING)
            scalar = [fading_power(policy, ChannelState(x, y)) for x, y in zip(a, b)]
            np.testing.assert_array_equal(vec, scalar)
            # The textbook root 1/2 (sqrt(n_delta^2 + 2 n_delta/lam) - n_sum) at
            # the reciprocal gains; it cancels near activation, hence the atol.
            textbook = np.zeros_like(a)
            for i, (x, y) in enumerate(zip(a, b)):
                if x - y > 2.0 * lam:
                    if y == 0.0:
                        textbook[i] = 0.5 / lam - 1.0 / x
                    else:
                        n_delta, n_sum = 1.0 / y - 1.0 / x, 1.0 / x + 1.0 / y
                        textbook[i] = 0.5 * (math.sqrt(n_delta ** 2 + 2.0 * n_delta / lam)
                                             - n_sum)
            np.testing.assert_allclose(vec, textbook, rtol=1e-9, atol=1e-12)


class TestCalibration:
    def test_meets_budget_on_calibration_sample(self):
        policy = calibrate_fading_lambda(FADING, avg_budget=1.0,
                                         samples=20_000, seed=5)
        rng = np.random.default_rng(5)
        a = rng.exponential(FADING.a, 20_000)
        b = rng.exponential(FADING.b, 20_000)
        mean_power = _fading_power_array(policy.lam, a, b).mean()
        assert mean_power == pytest.approx(1.0, rel=1e-6)

    def test_fresh_seed_reproduces_budget_within_2pct(self):
        policy = calibrate_fading_lambda(FADING, avg_budget=1.0,
                                         samples=100_000, seed=5)
        rng = np.random.default_rng(99)
        a = rng.exponential(FADING.a, 100_000)
        b = rng.exponential(FADING.b, 100_000)
        mean_power = _fading_power_array(policy.lam, a, b).mean()
        assert mean_power == pytest.approx(1.0, rel=0.02)

    def test_deterministic_given_seed(self):
        p1 = calibrate_fading_lambda(FADING, 1.0, 10_000, seed=42)
        p2 = calibrate_fading_lambda(FADING, 1.0, 10_000, seed=42)
        assert p1.lam == p2.lam

    def test_tiny_budget_pushes_threshold_up(self):
        small = calibrate_fading_lambda(FADING, 1e-6, 20_000, seed=3)
        large = calibrate_fading_lambda(FADING, 1.0, 20_000, seed=3)
        assert small.lam > large.lam
        rng = np.random.default_rng(3)
        a = rng.exponential(FADING.a, 20_000)
        b = rng.exponential(FADING.b, 20_000)
        assert _fading_power_array(small.lam, a, b).mean() <= 2e-6

    def test_swapped_channel_has_little_usable_power(self):
        """A channel whose eavesdropper fades better leaves most slots dark."""
        swapped = FadingWiretapChannel(a=1.0, b=2.0, sigma_m_sq=1.0, sigma_w_sq=1.0)
        policy = calibrate_fading_lambda(FADING, 1.0, 50_000, seed=7)
        rng = np.random.default_rng(8)
        a = rng.exponential(swapped.a, 50_000)
        b = rng.exponential(swapped.b, 50_000)
        powers = _fading_power_array(policy.lam, a, b)
        assert powers.mean() < 0.5  # well under the budget the policy was built for
        assert (powers > 0).mean() < 0.35

    def test_zero_secrecy_sentinel(self):
        hopeless = FadingWiretapChannel(a=1e-9, b=1.0, sigma_m_sq=1.0, sigma_w_sq=1.0)
        policy = calibrate_fading_lambda(hopeless, 1.0, 2_000, seed=0)
        assert policy.zero_secrecy
        assert policy.lam == math.inf
        assert fading_power(policy, ChannelState(2.0, 1.0)) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            calibrate_fading_lambda(FADING, 0.0, 100, seed=0)
        with pytest.raises(InvalidInputError):
            calibrate_fading_lambda(FADING, 1.0, 0, seed=0)

    def test_reports_achieved_power_and_iterations(self):
        rng = np.random.default_rng(5)
        a = rng.exponential(FADING.a, 10_000)
        b = rng.exponential(FADING.b, 10_000)
        for budget in (0.1, 1.0, 10.0):
            policy = calibrate_fading_lambda(FADING, budget, 10_000, seed=5)
            assert 1 <= policy.iterations <= 20
            assert policy.avg_power == pytest.approx(
                _fading_power_array(policy.lam, a, b).mean(), rel=1e-12)
            assert policy.avg_power == pytest.approx(budget, rel=1e-12)
        sentinel = calibrate_fading_lambda(
            FadingWiretapChannel(a=1e-9, b=1.0, sigma_m_sq=1.0, sigma_w_sq=1.0),
            1.0, 2_000, seed=0)
        assert (sentinel.avg_power, sentinel.iterations) == (0.0, 0)

    @pytest.mark.parametrize("gains", [(5.0, 0.5), (1.2, 1.2), (0.9, 2.5)],
                             ids=["strong", "marginal", "adverse"])
    @pytest.mark.parametrize("budget", [0.1, 1.0, 10.0])
    def test_matches_plain_bisection(self, gains, budget):
        ch = FadingWiretapChannel(a=gains[0], b=gains[1], sigma_m_sq=1.0, sigma_w_sq=1.0)
        rng = np.random.default_rng(17)
        a = rng.exponential(ch.a, 10_000)
        b = rng.exponential(ch.b, 10_000)

        def mean_power(lam):
            return _fading_power_array(lam, a, b).mean()

        lo, hi = 1e-12, float((a - b).max())    # nothing is active above hi/2
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if mean_power(mid) >= budget:
                lo = mid
            else:
                hi = mid
        bisected = min((lo, hi), key=lambda v: abs(mean_power(v) - budget))
        policy = calibrate_fading_lambda(ch, budget, 10_000, seed=17)
        assert policy.lam == pytest.approx(bisected, rel=1e-9)

    def test_unreachable_budget_raises(self):
        # Far below the power of the first slot to activate.
        with pytest.raises(NumericalError, match="1e-120"):
            calibrate_fading_lambda(FADING, 1e-120, 10_000, seed=0)

    @given(exponent=st.floats(min_value=-30.0, max_value=30.0),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_budget_met_or_raises(self, exponent, seed):
        budget = 10.0 ** exponent
        try:
            policy = calibrate_fading_lambda(FADING, budget, 2_000, seed=seed)
        except NumericalError:
            return
        assert math.isfinite(policy.lam) and policy.lam > 0
        assert math.isfinite(policy.avg_power)
        assert abs(policy.avg_power - budget) <= 0.01 * budget
        rng = np.random.default_rng(seed)
        a = rng.exponential(FADING.a, 2_000)
        b = rng.exponential(FADING.b, 2_000)
        assert _fading_power_array(policy.lam, a, b).mean() == pytest.approx(
            policy.avg_power, rel=1e-9)


class TestErgodicCapacity:
    def test_zero_power_policy_estimates_zero(self):
        sentinel = FadingPolicy(lam=math.inf, channel=FADING, zero_secrecy=True)
        estimate, stderr = ergodic_secrecy_capacity(FADING, sentinel, 5_000, seed=1)
        assert estimate == 0.0
        assert stderr == 0.0

    def test_zero_power_on_an_infinite_gain_draw_estimates_zero(self):
        """Draws of a gain near the float limit overflow to inf; 0 * inf must not be nan."""
        ch = FadingWiretapChannel(a=1.0, b=1.7e308, sigma_m_sq=1.0, sigma_w_sq=1.0)
        sentinel = FadingPolicy(lam=math.inf, channel=ch, zero_secrecy=True)
        assert ergodic_secrecy_capacity(ch, sentinel, 1_000, seed=1) == (0.0, 0.0)

    def test_non_finite_estimate_is_a_numerical_error(self):
        ch = FadingWiretapChannel(a=1.7e308, b=1.0, sigma_m_sq=1.0, sigma_w_sq=1.0)
        policy = FadingPolicy(lam=1.0, channel=ch)
        with pytest.raises(NumericalError, match="not finite"):
            ergodic_secrecy_capacity(ch, policy, 1_000, seed=1)

    def test_degenerate_state_reduces_to_instantaneous_formula(self):
        # Point-mass fading at (3, 1) under unit power is the slot formula.
        rate = instantaneous_fading_secrecy_rate(1.0, ChannelState(3.0, 1.0))
        rates = np.full(1000, rate)
        assert rates.mean() == pytest.approx(0.5, abs=1e-12)
        assert rates.std(ddof=1) == 0.0

    def test_deterministic_given_seed(self):
        policy = calibrate_fading_lambda(FADING, 1.0, 10_000, seed=2)
        e1 = ergodic_secrecy_capacity(FADING, policy, 10_000, seed=9)
        e2 = ergodic_secrecy_capacity(FADING, policy, 10_000, seed=9)
        assert e1 == e2

    def test_with_power_reports_mean_power_of_the_same_draws(self):
        policy = calibrate_fading_lambda(FADING, 1.0, 10_000, seed=2)
        rate, stderr, power = ergodic_secrecy_capacity(FADING, policy, 10_000, seed=9,
                                                       with_power=True)
        assert (rate, stderr) == ergodic_secrecy_capacity(FADING, policy, 10_000, seed=9)
        rng = np.random.default_rng(9)
        a = rng.exponential(FADING.a, 10_000)
        b = rng.exponential(FADING.b, 10_000)
        assert power == _fading_power_array(policy.lam, a, b).mean()

    def test_calibrated_policy_beats_constant_power_baseline(self):
        """Threshold policy vs spend-the-budget-whenever-qualified, paired draws."""
        budget = 1.0
        policy = calibrate_fading_lambda(FADING, budget, 50_000, seed=21)
        prob_advantage = FADING.a / (FADING.a + FADING.b)
        const_power = budget / prob_advantage
        wins = 0
        for rep in range(20):
            rng = np.random.default_rng(1000 + rep)
            a = rng.exponential(FADING.a, 20_000)
            b = rng.exponential(FADING.b, 20_000)
            p_opt = _fading_power_array(policy.lam, a, b)
            opt = np.maximum(0.0, 0.5 * (np.log2(1 + p_opt * a)
                                         - np.log2(1 + p_opt * b))).mean()
            p_base = np.where(a > b, const_power, 0.0)
            base = np.maximum(0.0, 0.5 * (np.log2(1 + p_base * a)
                                          - np.log2(1 + p_base * b))).mean()
            wins += opt >= base
        assert wins == 20
