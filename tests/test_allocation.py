"""Water-filling solver and fading power policy."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
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
from secrecylab import allocation
from secrecylab.allocation import (
    _RESIDUAL_ULPS,
    _SLOT_BLOCK,
    _SUBSAMPLE_SLOTS,
    AWGN_BUDGET_TOL,
    FADING_BUDGET_REL_TOL,
    _block_evaluator,
    _block_powers,
    _compact_active,
    _draw_states,
    _power_array,
    _slot_blocks,
    _solve_threshold,
)
from secrecylab.channels import GaussianBank, _secrecy_rate


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


def record_evaluations(monkeypatch):
    """Record each evaluation of the threshold solver as ``(slots walked, t)``, in order."""
    calls = []
    build = allocation._block_evaluator

    def recording_evaluator(blocks, n):
        evaluate = build(blocks, n)
        slots = sum(len(a) for a, _ in blocks)

        def recorded(t):
            calls.append((slots, t))
            return evaluate(t)

        return recorded

    monkeypatch.setattr(allocation, "_block_evaluator", recording_evaluator)
    return calls


def textbook_lambda(sigma_m_sq, sigma_w_sq, budget):
    """Plain bisection on lam over the textbook root, vectorized over an
    all-eligible bank, to the float grid."""
    n_delta, n_sum = sigma_w_sq - sigma_m_sq, sigma_w_sq + sigma_m_sq

    def spent(lam):
        return np.maximum(0.5 * (np.sqrt(n_delta ** 2 + 2.0 * n_delta / lam) - n_sum), 0.0).sum()

    hi = float((0.5 * (1.0 / sigma_m_sq - 1.0 / sigma_w_sq)).max())    # nothing spends here
    lo = hi
    while spent(lo) < budget:
        lo *= 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if spent(mid) >= budget:
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda v: abs(spent(v) - budget))


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

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("budget", [1.0, 10.0, 20.0, 200.0])
    def test_ten_thousand_links_take_few_evaluations(self, monkeypatch, seed, budget):
        """A Newton step below one ulp of ``t`` moves to the neighbour float
        instead of bisecting the whole bracket."""
        rng = np.random.default_rng(seed)
        sigma_m_sq, sigma_w_sq = rng.uniform(0.5, 5.0, (2, 10_000))
        calls = record_evaluations(monkeypatch)
        awgn_waterfill(GaussianBank(range(10_000), sigma_m_sq, sigma_w_sq), budget)
        assert len(calls) <= 12

    @pytest.mark.parametrize("links", [_SLOT_BLOCK + 1, 3 * _SLOT_BLOCK + 7, 200_000])
    @pytest.mark.parametrize("budget", [1.0, 100.0])
    def test_past_one_block_starts_from_a_subsample(self, monkeypatch, links, budget):
        """More eligible links than one block: the full-bank search starts from
        the root of a strided subsample and needs few evaluations."""
        rng = np.random.default_rng(links)
        sigma_m_sq = rng.uniform(0.5, 5.0, links)
        sigma_w_sq = sigma_m_sq * rng.uniform(1.05, 4.0, links)     # every link is eligible
        calls = record_evaluations(monkeypatch)
        result = awgn_waterfill(GaussianBank(range(links), sigma_m_sq, sigma_w_sq), budget)
        assert abs(result.powers.sum() - budget) <= AWGN_BUDGET_TOL
        assert result.lam == pytest.approx(textbook_lambda(sigma_m_sq, sigma_w_sq, budget),
                                           rel=0, abs=1e-12)
        subsample = len(range(0, links, links // _SUBSAMPLE_SLOTS))
        assert {slots for slots, _ in calls} == {subsample, links}
        assert sum(slots == links for slots, _ in calls) <= 6

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
        policy = FadingPolicy(threshold=4.0)
        assert fading_power(policy, ChannelState(1.0, 1.0)) == 0.0
        assert fading_power(policy, ChannelState(0.5, 2.0)) == 0.0

    def test_hand_evaluated_root(self):
        # n_delta = 1/1 - 1/2 = 0.5, n_sum = 1.5
        policy = FadingPolicy(threshold=4.0)
        expected = 0.5 * (math.sqrt(4.25) - 1.5)
        assert fading_power(policy, ChannelState(2.0, 1.0)) == pytest.approx(
            expected, rel=1e-12)

    def test_small_threshold_kills_power(self):
        state = ChannelState(5.0, 1.0)
        assert fading_power(FadingPolicy(threshold=1e-9), state) == 0.0
        assert fading_power(FadingPolicy(threshold=0.0), state) == 0.0

    def test_the_policy_is_its_threshold(self):
        assert [f.name for f in dataclasses.fields(FadingPolicy)] == [
            "threshold", "avg_power", "iterations"]
        policy = FadingPolicy(threshold=4.0)
        assert (policy.lam, policy.zero_secrecy) == (0.25, False)
        zero = FadingPolicy(threshold=0.0)
        assert (zero.lam, zero.zero_secrecy) == (math.inf, True)
        with pytest.raises(AttributeError):
            zero.lam = 0.5
        with pytest.raises(AttributeError):
            zero.zero_secrecy = False

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, True])
    def test_rejects_a_threshold_that_is_not_a_finite_non_negative_number(self, bad):
        with pytest.raises(InvalidInputError, match="^threshold: "):
            FadingPolicy(threshold=bad)

    def test_power_vanishes_as_gains_meet(self):
        policy = FadingPolicy(threshold=20.0)
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
        policy = FadingPolicy(threshold=10.0)
        expected = 0.5 * (10.0 - 2.0 / 4.0)
        assert fading_power(policy, ChannelState(4.0, 0.0)) == pytest.approx(
            expected, rel=1e-12)

    def test_vector_rule_matches_scalar(self):
        rng = np.random.default_rng(31)
        a = rng.exponential(2.0, 500)
        b = rng.exponential(1.0, 500)
        b[:3] = 0.0
        for t in (20.0, 2.5, 0.5):
            vec = _power_array(t, a, b)
            policy = FadingPolicy(threshold=t)
            scalar = [fading_power(policy, ChannelState(x, y)) for x, y in zip(a, b)]
            np.testing.assert_array_equal(vec, scalar)
            # The textbook root 1/2 (sqrt(n_delta^2 + 2 n_delta/lam) - n_sum) at
            # the reciprocal gains; it cancels near activation, hence the atol.
            lam = 1.0 / t
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


def shifts(up, down, lo=-1000, hi=1000):
    """The ``j`` in ``[lo, hi]`` that keep each nonzero ``x * 2**j`` (``x`` in
    ``up``) and ``x * 2**-j`` (``x`` in ``down``) a normal, finite float."""
    for x in np.abs(np.asarray(up, dtype=float)):
        if x:
            e = math.frexp(x)[1]
            lo, hi = max(lo, -1021 - e), min(hi, 1024 - e)
    for x in np.abs(np.asarray(down, dtype=float)):
        if x:
            e = math.frexp(x)[1]
            lo, hi = max(lo, e - 1024), min(hi, e + 1021)
    return lo, hi


def normal_or_zero(x):
    x = np.abs(np.asarray(x, dtype=float))
    return bool(np.all((x == 0.0) | ((x >= 2.0 ** -1022) & np.isfinite(x))))


#: Positive floats from 2**-200 to 2**200, log-uniformly.
MODERATE = st.floats(-200.0, 200.0).map(lambda e: 2.0 ** e)


class TestPowerOfTwoScaling:
    """Scaling every gain by a power of two scales every power by its inverse, bit for bit.

    The slot kernel divides every term by ``g = a - b``, so none squares a
    gain or multiplies two: wherever each value stays a normal float, the
    scaled computation is the unscaled one with shifted exponents.
    """

    @settings(max_examples=300, deadline=None)
    @given(gains=st.lists(st.tuples(MODERATE, MODERATE), min_size=1, max_size=6),
           t=MODERATE, data=st.data())
    def test_fading_power_rule(self, gains, t, data):
        a, b = np.array(gains).T
        on = a > b
        u, v, k = whole_array_terms(a[on], b[on])
        lo, hi = shifts(up=[*a, *b, *(a - b)[on], *k, t], down=[*u])
        assume(lo <= hi)
        j = data.draw(st.integers(lo, hi), label="j")
        unscaled = _power_array(math.ldexp(t, j), a, b)
        scaled = _power_array(t, np.ldexp(a, j), np.ldexp(b, j))
        assume(normal_or_zero(unscaled) and normal_or_zero(scaled))
        np.testing.assert_array_equal(np.ldexp(scaled, j), unscaled)

    @settings(max_examples=300, deadline=None)
    @given(variances=st.lists(st.tuples(MODERATE, MODERATE), min_size=1, max_size=6),
           budget=MODERATE, data=st.data())
    def test_awgn_waterfill(self, variances, budget, data):
        bank = [GaussianWiretapChannel(m, w) for m, w in variances]
        a, b = np.array([ch.gains for ch in bank]).T
        on = a > b
        assume(np.any(on))
        try:
            base = awgn_waterfill(bank, budget)
        except NumericalError:  # the float grid of t cannot meet the 1e-9 budget residual
            reject()
        u, v, k = whole_array_terms(a[on], b[on])
        # The residual scales with the budget, so it bounds j from above.
        residual = abs(base.powers.sum() - budget)
        top = math.frexp(AWGN_BUDGET_TOL)[1] - math.frexp(residual)[1] - 1 if residual else 1000
        lo, hi = shifts(up=[*np.ravel(variances), budget, *base.powers, *u, 1.0 / base.lam],
                        down=[*a, *b, *(a - b)[on], *k, base.lam], hi=min(1000, top))
        assume(lo <= hi)
        j = data.draw(st.integers(lo, hi), label="j")
        scaled = awgn_waterfill(
            [GaussianWiretapChannel(math.ldexp(m, j), math.ldexp(w, j)) for m, w in variances],
            math.ldexp(budget, j))
        np.testing.assert_array_equal(scaled.powers, np.ldexp(base.powers, j))
        np.testing.assert_array_equal(scaled.rates, base.rates)
        assert scaled.lam == math.ldexp(base.lam, -j)
        assert scaled.sum_rate == base.sum_rate


#: Fading links ``(a, b)``: strong, marginal and adverse, and one whose every slot is active.
LINKS = [(5.0, 0.5), (1.2, 1.2), (0.9, 2.5), (1.0, 1e-12)]
LINK_IDS = ["strong", "marginal", "adverse", "all-active"]


def bisected_lambda(a, b, budget):
    """The threshold whose mean power over the draws ``(a, b)`` is closest to
    the budget, by plain bisection on ``lam`` to the float grid."""
    on = a > b
    u, v, k = whole_array_terms(a[on], b[on])

    def mean_power(lam):
        t = 1.0 / lam
        return (np.maximum(t - u, 0.0) / (v + np.sqrt(1.0 + t * k))).sum() / len(a)

    lo, hi = 1e-12, float((a - b).max())    # nothing is active above hi/2
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mean_power(mid) >= budget:
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda v: abs(mean_power(v) - budget))


class TestCalibration:
    def test_meets_budget_on_calibration_sample(self):
        policy = calibrate_fading_lambda(FADING, avg_budget=1.0,
                                         samples=20_000, seed=5)
        rng = np.random.default_rng(5)
        a = rng.exponential(FADING.a, 20_000)
        b = rng.exponential(FADING.b, 20_000)
        mean_power = _power_array(policy.threshold, a, b).mean()
        assert mean_power == pytest.approx(1.0, rel=1e-6)

    def test_fresh_seed_reproduces_budget_within_2pct(self):
        policy = calibrate_fading_lambda(FADING, avg_budget=1.0,
                                         samples=100_000, seed=5)
        rng = np.random.default_rng(99)
        a = rng.exponential(FADING.a, 100_000)
        b = rng.exponential(FADING.b, 100_000)
        mean_power = _power_array(policy.threshold, a, b).mean()
        assert mean_power == pytest.approx(1.0, rel=0.02)

    def test_deterministic_given_seed(self):
        p1 = calibrate_fading_lambda(FADING, 1.0, 10_000, seed=42)
        p2 = calibrate_fading_lambda(FADING, 1.0, 10_000, seed=42)
        assert p1.lam == p2.lam

    def test_tiny_budget_lowers_the_threshold(self):
        small = calibrate_fading_lambda(FADING, 1e-6, 20_000, seed=3)
        large = calibrate_fading_lambda(FADING, 1.0, 20_000, seed=3)
        assert small.threshold < large.threshold
        rng = np.random.default_rng(3)
        a = rng.exponential(FADING.a, 20_000)
        b = rng.exponential(FADING.b, 20_000)
        assert _power_array(small.threshold, a, b).mean() <= 2e-6

    def test_swapped_channel_has_little_usable_power(self):
        """A channel whose eavesdropper fades better leaves most slots dark."""
        swapped = FadingWiretapChannel(a=1.0, b=2.0, sigma_m_sq=1.0, sigma_w_sq=1.0)
        policy = calibrate_fading_lambda(FADING, 1.0, 50_000, seed=7)
        rng = np.random.default_rng(8)
        a = rng.exponential(swapped.a, 50_000)
        b = rng.exponential(swapped.b, 50_000)
        powers = _power_array(policy.threshold, a, b)
        assert powers.mean() < 0.5  # well under the budget the policy was built for
        assert (powers > 0).mean() < 0.35

    def test_zero_secrecy_sentinel(self):
        hopeless = FadingWiretapChannel(a=1e-9, b=1.0, sigma_m_sq=1.0, sigma_w_sq=1.0)
        policy = calibrate_fading_lambda(hopeless, 1.0, 2_000, seed=0)
        assert policy == FadingPolicy(threshold=0.0)
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
                _power_array(policy.threshold, a, b).mean(), rel=1e-12)
            assert policy.avg_power == pytest.approx(budget, rel=1e-12)
        sentinel = calibrate_fading_lambda(
            FadingWiretapChannel(a=1e-9, b=1.0, sigma_m_sq=1.0, sigma_w_sq=1.0),
            1.0, 2_000, seed=0)
        assert (sentinel.avg_power, sentinel.iterations) == (0.0, 0)

    @pytest.mark.parametrize("gains", LINKS[:3], ids=LINK_IDS[:3])
    @pytest.mark.parametrize("budget", [0.1, 1.0, 10.0])
    def test_matches_plain_bisection(self, gains, budget):
        ch = FadingWiretapChannel(a=gains[0], b=gains[1], sigma_m_sq=1.0, sigma_w_sq=1.0)
        rng = np.random.default_rng(17)
        a = rng.exponential(ch.a, 10_000)
        b = rng.exponential(ch.b, 10_000)
        policy = calibrate_fading_lambda(ch, budget, 10_000, seed=17)
        assert policy.lam == pytest.approx(bisected_lambda(a, b, budget), rel=1e-9)

    @pytest.mark.parametrize("gains", LINKS, ids=LINK_IDS)
    @pytest.mark.parametrize("samples", [10 ** 5, 10 ** 6])
    def test_subsample_start_matches_plain_bisection(self, gains, samples):
        """Past one block of active slots, the full-sample search starts from a subsample root."""
        ch = FadingWiretapChannel(a=gains[0], b=gains[1], sigma_m_sq=1.0, sigma_w_sq=1.0)
        budget = 2.0
        policy = calibrate_fading_lambda(ch, budget, samples, seed=29)
        rng = np.random.default_rng(29)
        a = rng.exponential(ch.a, samples)
        b = rng.exponential(ch.b, samples)
        assert np.count_nonzero(a > b) > _SLOT_BLOCK
        assert policy.lam == pytest.approx(bisected_lambda(a, b, budget), rel=1e-9)
        assert abs(policy.avg_power - budget) <= _RESIDUAL_ULPS * math.ulp(budget)
        assert policy.iterations <= 5

    def test_unreachable_budget_raises(self):
        # Far below the power of the first slot to activate.
        with pytest.raises(NumericalError, match="1e-120"):
            calibrate_fading_lambda(FADING, 1e-120, 10_000, seed=0)

    @given(exponent=st.floats(min_value=-30.0, max_value=30.0),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    @example(exponent=-30.0, seed=1)
    @example(exponent=-20.0, seed=1)
    def test_budget_met_or_raises(self, exponent, seed):
        budget = 10.0 ** exponent
        try:
            policy = calibrate_fading_lambda(FADING, budget, 2_000, seed=seed)
        except NumericalError:
            return
        assert policy.threshold > 0
        assert math.isfinite(policy.avg_power)
        assert abs(policy.avg_power - budget) <= 0.01 * budget
        rng = np.random.default_rng(seed)
        a = rng.exponential(FADING.a, 2_000)
        b = rng.exponential(FADING.b, 2_000)
        # abs=0: pytest.approx's default absolute tolerance of 1e-12 would pass
        # any spend at budgets below about 1e-12.
        assert _power_array(policy.threshold, a, b).mean() == pytest.approx(
            policy.avg_power, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("budget, seed", [(1e-18, 1), (10 ** -18.756, 3391068437)])
    def test_a_tiny_budget_policy_spends_the_power_it_reports(self, budget, seed):
        # One ulp of t moves the spend by tenths of a percent at these budgets,
        # and 1/lam can lie an ulp from the solved t: the policy spends the t itself.
        policy = calibrate_fading_lambda(FADING, budget, 2_000, seed)
        spent = _power_array(policy.threshold, *_draw_states(FADING, 2_000, seed)).mean()
        assert spent == pytest.approx(policy.avg_power, rel=1e-9, abs=0.0)
        assert abs(spent - budget) <= FADING_BUDGET_REL_TOL * budget


def whole_array_terms(a, b):
    """The slot terms written out of place, over whole arrays."""
    g = a - b
    return 2.0 / g, (a + b) / g, 2.0 * b * (a / g)


def whole_array_mean_power_and_slope(t, a, b, n):
    """Mean power and mean ``dP/dt`` over ``n`` slots, the formula over whole arrays."""
    u, v, k = whole_array_terms(a, b)
    w = np.sqrt(1.0 + t * k)
    p = np.maximum(t - u, 0.0) / (v + w)
    slope = np.where(p > 0.0, (1.0 - 0.5 * k * p / w) / (v + w), 0.0)
    return p.sum() / n, slope.sum() / n


def neighbours(t, toward, count):
    """``t`` and the ``count`` floats that follow it toward ``toward``."""
    out = [t]
    for _ in range(count):
        out.append(math.nextafter(out[-1], toward))
    return out


BLOCK_EDGES = [_SLOT_BLOCK - 1, _SLOT_BLOCK, _SLOT_BLOCK + 1, 3 * _SLOT_BLOCK + 7]


class TestBlockedCalibration:
    """The solver evaluates in blocks; calibration builds its terms in place."""

    @pytest.mark.parametrize("active", BLOCK_EDGES)
    def test_blocked_evaluation_matches_whole_arrays(self, active):
        rng = np.random.default_rng(active)
        a = rng.exponential(5.0, active)
        b = a * rng.uniform(0.0, 0.99, active)
        n = active + 1000      # slots with a <= b spend nothing but count in the mean
        gains = a.copy(), b.copy()
        evaluate = _block_evaluator(_slot_blocks(*gains), n)
        u = whole_array_terms(a, b)[0]
        for t in [*np.quantile(u, [0.01, 0.5, 0.99]), 10.0 * u.max()]:
            power, slope = evaluate(t)
            want_power, want_slope = whole_array_mean_power_and_slope(t, a, b, n)
            assert power == pytest.approx(want_power, rel=1e-13)
            assert slope == pytest.approx(want_slope, rel=1e-13)
        np.testing.assert_array_equal(gains, (a, b))   # the gains are only read

    @pytest.mark.parametrize("samples", BLOCK_EDGES)
    @pytest.mark.parametrize("budget", [0.1, 1.0, 10.0])
    def test_calibration_across_block_edges(self, samples, budget):
        # b is so small that every slot is active: the active count is ``samples``.
        ch = FadingWiretapChannel(a=1.0, b=1e-12, sigma_m_sq=1.0, sigma_w_sq=1.0)
        rng = np.random.default_rng(samples)
        a = rng.exponential(ch.a, samples)
        b = rng.exponential(ch.b, samples)
        assert np.all(a > b)
        policy = calibrate_fading_lambda(ch, budget, samples, seed=samples)
        assert abs(policy.avg_power - budget) <= _RESIDUAL_ULPS * math.ulp(budget)
        assert policy.avg_power == pytest.approx(
            _power_array(policy.threshold, a, b).mean(), rel=1e-13)

    @pytest.mark.parametrize("samples", BLOCK_EDGES)
    def test_compaction_keeps_the_active_slots_in_order(self, samples):
        rng = np.random.default_rng(samples)
        a, b = rng.exponential(1.0, (2, samples))
        a[::1000] = math.inf          # an overflowed draw is active, with u = 0
        want = a[a > b], b[a > b]
        kept_a, kept_b = _compact_active(a, b)
        np.testing.assert_array_equal((kept_a, kept_b), want)
        assert np.shares_memory(kept_a, a) and np.shares_memory(kept_b, b)  # in place
        assert [len(kept) for kept in _compact_active(np.ones(5), np.ones(5))] == [0, 0]

    @pytest.mark.parametrize("active", BLOCK_EDGES)
    def test_search_starts_at_the_least_threshold(self, monkeypatch, active):
        """The solver's lower bound ``2 / max(a - b)``, taken block by block, is
        ``min u``.  With the widest gap in the last block, on a slot the strided
        subsample keeps, the subsample's search and the full one both start there."""
        rng = np.random.default_rng(active)
        a = rng.exponential(5.0, active)
        b = a * rng.uniform(0.0, 0.99, active)
        stride = active // _SUBSAMPLE_SLOTS
        kept, widest = (active - 1) // stride * stride, np.argmax(a - b)
        a[[kept, widest]], b[[kept, widest]] = a[[widest, kept]], b[[widest, kept]]
        least = whole_array_terms(a, b)[0].min()
        calls = record_evaluations(monkeypatch)
        # No slot spends at the lower bound, and every t above it spends far
        # more than this target: the result is the lower bound.
        assert _solve_threshold(a, b, active, 1e-300)[:2] == (least, 0.0)
        first = {}
        for slots, t in calls:
            first.setdefault(slots, t)
        assert list(first.values()) == [least] * (1 if active <= _SLOT_BLOCK else 2)

    @pytest.mark.parametrize("root, slope, want", [
        # Every step is far below one ulp: climb from the lower bound, 2, float by float.
        (2.0 + 3 * math.ulp(2.0), lambda t: 1e300, neighbours(2.0, math.inf, 3)),
        # The first step lands on 4, above the root: descend float by float.
        (4.0 - 3 * math.ulp(2.0), lambda t: 0.25 if t == 2.0 else 1e300,
         [2.0, *neighbours(4.0, 0.0, 4)]),
    ], ids=["up", "down"])
    def test_a_step_below_one_ulp_moves_to_the_neighbour(self, monkeypatch, root, slope, want):
        """A Newton step that rounds to ``t`` itself moves ``t`` one float toward
        the root, from either side, until the bracket closes on two neighbours."""
        seen = []

        def step_evaluator(blocks, n):
            def mean_power_and_slope(t):
                seen.append(t)
                return (1.5 if t >= root else 0.5), slope(t)

            return mean_power_and_slope

        monkeypatch.setattr(allocation, "_block_evaluator", step_evaluator)
        # At target 1 the search starts at its lower bound, 2 * target.
        _solve_threshold(np.array([3.0]), np.array([1.0]), 1, 1.0)
        assert seen == want

    def test_block_terms_match_the_out_of_place_form(self):
        rng = np.random.default_rng(11)
        a, b = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), (2, 100_000)))
        a, b = a[a > b], b[a > b]
        with np.errstate(over="ignore", invalid="ignore"):
            expected = whole_array_terms(a, b)
        buffers = np.empty((6, len(a)))
        _block_powers(1.0, a, b, buffers)
        np.testing.assert_array_equal(buffers[:3], expected)

    @pytest.mark.parametrize("active", BLOCK_EDGES)
    def test_power_array_is_the_blocked_powers(self, active):
        """The whole-array powers are the per-block powers, concatenated, bit for bit."""
        rng = np.random.default_rng(active)
        a = rng.exponential(5.0, active)
        b = a * rng.uniform(0.0, 0.99, active)
        buffers = np.empty((6, _SLOT_BLOCK))
        # 1000 slots with a <= b, spread among the others, get no power.
        where = rng.integers(0, active, 1000)
        all_a, all_b = np.insert(a, where, 1.0), np.insert(b, where, 2.0)
        for t in np.quantile(whole_array_terms(a, b)[0], [0.01, 0.5, 0.99]):
            want = np.zeros(len(all_a))
            want[all_a > all_b] = np.concatenate(
                [_block_powers(t, *block, buffers)[0].copy() for block in _slot_blocks(a, b)])
            np.testing.assert_array_equal(_power_array(t, all_a, all_b), want)

    @pytest.mark.parametrize("gains", LINKS, ids=LINK_IDS)
    def test_calibration_peak_memory(self, gains):
        """At 10**6 samples the traced peak stays within 20 bytes per sample:
        the two draws, compacted in place, and a few block buffers."""
        ch = FadingWiretapChannel(a=gains[0], b=gains[1], sigma_m_sq=1.0, sigma_w_sq=1.0)
        samples = 10 ** 6
        tracemalloc.start()
        try:
            calibrate_fading_lambda(ch, 2.0, samples, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * samples


class TestErgodicCapacity:
    def test_zero_power_policy_estimates_zero(self):
        sentinel = FadingPolicy(threshold=0.0)
        estimate, stderr, power = ergodic_secrecy_capacity(FADING, sentinel, 5_000, seed=1)
        assert estimate == 0.0
        assert stderr == 0.0
        assert power == 0.0

    def test_zero_power_on_an_infinite_gain_draw_estimates_zero(self):
        """Draws of a gain near the float limit overflow to inf; 0 * inf must not be nan."""
        ch = FadingWiretapChannel(a=1.0, b=1.7e308, sigma_m_sq=1.0, sigma_w_sq=1.0)
        sentinel = FadingPolicy(threshold=0.0)
        assert ergodic_secrecy_capacity(ch, sentinel, 1_000, seed=1) == (0.0, 0.0, 0.0)

    def test_non_finite_estimate_is_a_numerical_error(self):
        ch = FadingWiretapChannel(a=1.7e308, b=1.0, sigma_m_sq=1.0, sigma_w_sq=1.0)
        policy = FadingPolicy(threshold=1.0)
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

    def test_reports_mean_power_of_the_same_draws(self):
        """The power is within 2 ulps of the exactly rounded mean over the same
        draws, and far from the mean over other draws."""
        policy = calibrate_fading_lambda(FADING, 1.0, 10_000, seed=2)

        def exact_mean_power(samples, seed):
            rng = np.random.default_rng(seed)
            a = rng.exponential(FADING.a, samples)
            b = rng.exponential(FADING.b, samples)
            return math.fsum(_power_array(policy.threshold, a, b)) / samples

        for samples in (10_000, 100_000):    # one block of active slots, and several
            _rate, _stderr, power = ergodic_secrecy_capacity(FADING, policy, samples, seed=9)
            exact = exact_mean_power(samples, 9)
            assert abs(power - exact) <= 2 * math.ulp(exact)
            assert abs(power - exact_mean_power(samples, 10)) > 1e9 * math.ulp(exact)

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
            p_opt = _power_array(policy.threshold, a, b)
            opt = np.maximum(0.0, 0.5 * (np.log2(1 + p_opt * a)
                                         - np.log2(1 + p_opt * b))).mean()
            p_base = np.where(a > b, const_power, 0.0)
            base = np.maximum(0.0, 0.5 * (np.log2(1 + p_base * a)
                                          - np.log2(1 + p_base * b))).mean()
            wins += opt >= base
        assert wins == 20


def whole_array_ergodic(t, a, b):
    """The ergodic estimate at threshold ``t`` over whole arrays: the
    zero-padded power rule, the rate kernel, and numpy's mean and sample
    standard deviation."""
    p = _power_array(t, a, b)
    rates = _secrecy_rate(p, a, b)
    stderr = rates.std(ddof=1) / math.sqrt(len(a)) if len(a) > 1 else 0.0
    return rates.mean(), stderr, p.mean()


def mixed_draws(active, inactive, seed):
    """Gain draws with exactly ``active`` slots where ``a > b``, shuffled among ``inactive`` others."""
    rng = np.random.default_rng(seed)
    a = rng.exponential(5.0, active + inactive)
    b = a * np.concatenate([rng.uniform(0.0, 0.99, active), rng.uniform(1.0, 2.0, inactive)])
    order = rng.permutation(active + inactive)
    return a[order], b[order]


class TestBlockedErgodic:
    """The estimate walks the compacted draws in blocks and folds their statistics."""

    @pytest.mark.parametrize("active, inactive", [
        *((m, inactive) for m in BLOCK_EDGES for inactive in (0, 1000)), (0, 1000)])
    def test_matches_whole_arrays_across_block_edges(self, monkeypatch, active, inactive):
        a, b = mixed_draws(active, inactive, seed=active + inactive)
        # The estimator compacts its draws in place: hand it copies.
        monkeypatch.setattr(allocation, "_draw_states", lambda ch, samples, seed: (a.copy(), b.copy()))
        # At t = 2 the slots with a - b > 1 spend: most active ones, not all.
        policy = FadingPolicy(threshold=2.0)
        got = ergodic_secrecy_capacity(FADING, policy, active + inactive, seed=0)
        want = whole_array_ergodic(policy.threshold, a, b)
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("samples", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_whole_arrays_on_one_or_two_samples(self, samples, seed):
        policy = FadingPolicy(threshold=20.0)
        rng = np.random.default_rng(seed)
        a = rng.exponential(FADING.a, samples)
        b = rng.exponential(FADING.b, samples)
        got = ergodic_secrecy_capacity(FADING, policy, samples, seed)
        want = whole_array_ergodic(policy.threshold, a, b)
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_matches_whole_arrays_where_the_rate_kernel_overflows(self):
        """``p a`` passes the float maximum, so the rate takes its overflow form."""
        ch = FadingWiretapChannel(a=1e10, b=1e-300, sigma_m_sq=1.0, sigma_w_sq=1.0)
        policy = FadingPolicy(threshold=1e300)
        samples = _SLOT_BLOCK + 1000
        rng = np.random.default_rng(4)
        a = rng.exponential(ch.a, samples)
        b = rng.exponential(ch.b, samples)
        with np.errstate(over="ignore"):
            assert not np.isfinite(_power_array(policy.threshold, a, b) * a).all()
        got = ergodic_secrecy_capacity(ch, policy, samples, seed=4)
        want = whole_array_ergodic(policy.threshold, a, b)
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("gains", LINKS, ids=LINK_IDS)
    def test_ergodic_peak_memory(self, gains):
        """At 10**6 samples the traced peak stays within 20 bytes per sample:
        the two draws, compacted in place, and a few block buffers."""
        ch = FadingWiretapChannel(a=gains[0], b=gains[1], sigma_m_sq=1.0, sigma_w_sq=1.0)
        policy = calibrate_fading_lambda(ch, 2.0, 10_000, seed=7)
        samples = 10 ** 6
        tracemalloc.start()
        try:
            ergodic_secrecy_capacity(ch, policy, samples, seed=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * samples


class TestDrawStates:
    @pytest.mark.parametrize("scales", [(5.0, 0.5), (8.2e307, 1.0), (1.0, 1e-310)],
                             ids=["unit", "overflowing", "subnormal"])
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 63 + 5,
                                      np.random.SeedSequence(entropy=7, spawn_key=(1, 0))])
    def test_bit_identical_to_numpy_exponential(self, scales, seed):
        ch = FadingWiretapChannel(a=scales[0], b=scales[1], sigma_m_sq=1.0, sigma_w_sq=1.0)
        rng = np.random.default_rng(seed)
        want = rng.exponential(ch.a, 1000), rng.exponential(ch.b, 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _draw_states(ch, 1000, seed)
        assert [draw.tobytes() for draw in got] == [draw.tobytes() for draw in want]
        if ch.a == 8.2e307:
            assert np.isinf(want[0]).any()
