"""Power allocation that maximizes secrecy rate across parallel links.

Two settings are covered:

**Static AWGN banks.**  The sum secrecy rate
``sum_i [1/2 log2(1 + P_i/sigma_m_sq_i) - 1/2 log2(1 + P_i/sigma_w_sq_i)]``
is maximized subject to ``sum_i P_i <= budget``.  Stationarity of the
Lagrangian gives, per link, ``(P_i + sigma_m_sq)(P_i + sigma_w_sq) =
n_delta / (2 lambda)`` with ``n_delta = sigma_w_sq - sigma_m_sq``, whose
positive root is

    P_i(lambda) = 1/2 * (sqrt(n_delta^2 + 2 n_delta / lambda) - n_sum),

``n_sum = sigma_w_sq + sigma_m_sq``.  A link receives power only when its
eavesdropper is strictly noisier (``n_delta > 0``) and the threshold is low
enough: ``1/sigma_m_sq - 1/sigma_w_sq > 2 lambda``.  Since each
``P_i(lambda)`` is continuous and strictly decreasing on its active range,
the budget equation ``sum_i P_i(lambda) = budget`` is solved by bisection on
``lambda``; this is a secrecy variant of classical water-filling in which
links are ranked by the variance gap rather than by gain.

**Fading links with known per-slot state.**  The same root formula applies
slot by slot with the roles of the noise variances played by the reciprocal
gains: ``n_delta = 1/b - 1/a`` and ``n_sum = 1/a + 1/b`` for a slot with
gains ``(a, b)``.  Written in ``t = 1/lambda`` with ``g = a - b`` and
rationalized, the root is free of cancellation:

    P(t) = (t g - 2) / (a + b + sqrt(g^2 + 2 t g a b)),

spent only on slots with ``t g > 2`` (``a - b > 2 lambda``); at ``b = 0`` it
is ``t/2 - 1/a``.  The threshold is calibrated by Monte Carlo so the
*average* spent power meets the budget: safeguarded Newton steps on ``t``
with the analytic slope ``dP/dt = (g - P g a b / R) / (a + b + R)``,
``R = sqrt(g^2 + 2 t g a b)``, falling back to doubling or bisection when a
step leaves the bracket.  The calibration-sample mean power must land within
1 % of the budget, else :class:`~secrecylab.errors.NumericalError` is
raised.  The ergodic secrecy rate is the sample mean of the per-slot rates.

Monte Carlo estimators take a seed and evaluate sequentially with
numpy's PCG64 generator, so results are bit-reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    FadingWiretapChannel,
    gaussian_secrecy_rate,
)
from .errors import InvalidInputError, NumericalError

#: Bisection never runs more than this many interval-halving steps; the
#: bracket collapses to adjacent floats long before.
_MAX_BISECT = 200

#: Fading calibration makes at most this many full-sample evaluations.
_MAX_NEWTON = 200

#: Calibration stops once the mean power is this many ulps from the budget.
_RESIDUAL_ULPS = 4

#: Documented accuracy of fading calibration: the calibration-sample mean
#: power is within this fraction of the average budget.
FADING_BUDGET_REL_TOL = 0.01


@dataclass(frozen=True)
class AllocationResult:
    """Solution of the AWGN budget split.

    Attributes
    ----------
    powers : numpy.ndarray
        Per-link transmit power, same order as the input bank; >= 0, zero on
        every link whose eavesdropper is not strictly noisier.
    lam : float
        The threshold (Lagrange multiplier) at which the powers were
        evaluated; 0.0 when no link is eligible and nothing is allocated.
    sum_rate : float
        Achieved sum secrecy rate in bits per channel use.
    """

    powers: np.ndarray
    lam: float
    sum_rate: float


@dataclass(frozen=True)
class FadingPolicy:
    """Per-slot power rule for one fading link: threshold plus its channel.

    ``zero_secrecy`` marks the degenerate case where calibration found no
    slot with a positive-rate opportunity; the threshold is then ``inf`` and
    the policy allocates nothing.  ``avg_power`` is the mean power the
    policy spends on its calibration sample and ``iterations`` the number of
    full-sample evaluations calibration made (both 0 when not calibrated).
    """

    lam: float
    channel: FadingWiretapChannel
    zero_secrecy: bool = False
    avg_power: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        if self.zero_secrecy:
            return
        if not (isinstance(self.lam, (int, float)) and math.isfinite(self.lam) and self.lam > 0):
            raise InvalidInputError(f"lam must be positive and finite, got {self.lam!r}")


def power_at_lambda(ch, lam):
    """Optimal power for one AWGN link at a given threshold.

    Returns ``1/2 (sqrt(n_delta^2 + 2 n_delta/lam) - n_sum)`` when the link
    is active, else 0.  The link is active exactly when
    ``1/sigma_m_sq - 1/sigma_w_sq > 2 lam``.

    Parameters
    ----------
    ch : GaussianWiretapChannel
    lam : float
        Threshold, > 0.
    """
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam > 0):
        raise InvalidInputError(f"lam must be positive and finite, got {lam!r}")
    n_delta = ch.sigma_w_sq - ch.sigma_m_sq
    if n_delta <= 0:
        return 0.0
    if 1.0 / ch.sigma_m_sq - 1.0 / ch.sigma_w_sq <= 2.0 * lam:
        return 0.0
    n_sum = ch.sigma_w_sq + ch.sigma_m_sq
    p = 0.5 * (math.sqrt(n_delta * n_delta + 2.0 * n_delta / lam) - n_sum)
    return max(0.0, p)


def sum_secrecy_rate(channels, powers):
    """Sum of per-link secrecy rates at the given power vector.

    Parameters
    ----------
    channels : sequence of GaussianWiretapChannel
    powers : sequence of float
        Same length as ``channels``, entries >= 0.
    """
    if len(channels) != len(powers):
        raise InvalidInputError(
            f"length mismatch: {len(channels)} channels vs {len(powers)} powers")
    return sum(gaussian_secrecy_rate(p, ch) for p, ch in zip(powers, channels))


def awgn_waterfill(channels, budget, tol=1e-9):
    """Split a power budget across parallel AWGN links for maximum secrecy.

    Bisects the threshold ``lam`` until ``sum_i power_at_lambda(ch_i, lam)``
    meets the budget.  When no link has a strictly noisier eavesdropper the
    budget is unusable and an all-zero allocation is returned.

    Parameters
    ----------
    channels : sequence of GaussianWiretapChannel
        At least one link.
    budget : float
        Total power to distribute, > 0.
    tol : float
        Maximum allowed |allocated - budget| when at least one link is
        eligible.  Bisection runs to bracket collapse, which lands far
        inside the default 1e-9.

    Returns
    -------
    AllocationResult

    Raises
    ------
    InvalidInputError
        Empty bank or non-positive budget.
    NumericalError
        Bisection could not meet ``tol`` (practically only reachable with
        tol below float resolution).
    """
    if len(channels) == 0:
        raise InvalidInputError("channel list must not be empty")
    if not (isinstance(budget, (int, float)) and math.isfinite(budget) and budget > 0):
        raise InvalidInputError(f"budget must be positive and finite, got {budget!r}")

    eligible = [ch for ch in channels if ch.sigma_w_sq > ch.sigma_m_sq]
    if not eligible:
        powers = np.zeros(len(channels))
        return AllocationResult(powers=powers, lam=0.0, sum_rate=0.0)

    def total(lam):
        return sum(power_at_lambda(ch, lam) for ch in channels)

    # Above lam_hi every activation inequality fails, so total(lam_hi) == 0.
    lam_hi = max(0.5 * (1.0 / ch.sigma_m_sq - 1.0 / ch.sigma_w_sq) for ch in eligible)
    lam_lo = lam_hi
    for _ in range(1200):
        lam_lo *= 0.5
        if total(lam_lo) >= budget:
            break
    else:
        raise NumericalError("could not bracket the threshold from below")

    lo, hi = lam_lo, lam_hi
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if total(mid) >= budget:
            lo = mid
        else:
            hi = mid

    lam = min((lo, hi), key=lambda v: abs(total(v) - budget))
    powers = np.array([power_at_lambda(ch, lam) for ch in channels])
    residual = abs(powers.sum() - budget)
    if residual > tol:
        raise NumericalError(
            f"budget residual {residual:.3e} exceeds tolerance {tol:.3e}")
    return AllocationResult(powers=powers, lam=lam,
                            sum_rate=sum_secrecy_rate(channels, powers))


def _slot_power(t, g, s, g2, c):
    """Cancellation-free per-slot power at ``t = 1/lam``, with its root term.

    For slots with ``g = a - b > 0``, given ``s = a + b``, ``g2 = g**2`` and
    ``c = 2 g a b``, returns ``(p, r)`` with ``r = sqrt(g2 + t c)`` and
    ``p = max(t g - 2, 0) / (s + r)``: zero exactly when ``t g <= 2``.
    """
    r = np.sqrt(g2 + t * c)
    p = np.maximum(t * g - 2.0, 0.0) / (s + r)
    return p, r


def _slot_terms(a, b):
    """The per-slot constants ``(g, s, g2, c)`` of :func:`_slot_power`."""
    g = a - b
    return g, a + b, g * g, 2.0 * g * a * b


def _fading_power_array(lam, a, b):
    """Vectorized per-slot power rule; ``a``/``b`` are gain arrays."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.zeros(a.shape)
    on = a > b
    out[on] = _slot_power(1.0 / lam, *_slot_terms(a[on], b[on]))[0]
    return out


def fading_power(policy, state):
    """Power spent on one fading slot under a calibrated policy.

    Zero whenever the slot offers no advantage (``a_draw <= b_draw``) or the
    advantage is below the threshold (``a_draw - b_draw <= 2 lam``);
    otherwise the water-filling root evaluated at the reciprocal gains.

    Parameters
    ----------
    policy : FadingPolicy
    state : ChannelState
    """
    return float(_fading_power_array(policy.lam, state.a_draw, state.b_draw))


def _draw_states(ch, samples, seed):
    """Exponential gain draws for ``samples`` slots of one fading link."""
    rng = np.random.default_rng(seed)
    a = rng.exponential(ch.a, samples)
    b = rng.exponential(ch.b, samples)
    return a, b


def calibrate_fading_lambda(ch, avg_budget, samples, seed):
    """Find the threshold whose average spent power meets the budget.

    Draws one calibration sample of slot states and solves
    ``mean P(t) = avg_budget`` for ``t = 1/lam`` by safeguarded Newton steps
    with the analytic slope.  The sample is fixed before the search, so the
    result is deterministic given the seed; the mean power is continuous and
    strictly increasing in ``t`` wherever it is positive.

    Parameters
    ----------
    ch : FadingWiretapChannel
    avg_budget : float
        Target average power, > 0.
    samples : int
        Calibration sample size; at least 10**4 is recommended for the
        1 percent accuracy contract to carry over to fresh draws.
    seed : int or numpy.random.SeedSequence

    Returns
    -------
    FadingPolicy
        Calibrated policy, carrying the calibration-sample mean power
        (``avg_power``) and the number of full-sample evaluations
        (``iterations``).  If no drawn slot has ``a_draw > b_draw`` the
        budget is unreachable at any threshold; the returned policy carries
        ``zero_secrecy=True`` and an infinite threshold, and allocates zero
        power everywhere.

    Raises
    ------
    InvalidInputError
        Non-positive budget or sample count.
    NumericalError
        The calibration-sample mean power misses ``avg_budget`` by more than
        :data:`FADING_BUDGET_REL_TOL` (1 %).  This happens for budgets below
        the mean power of the first slot to activate, which the float grid of
        the threshold cannot resolve (around 1e-20 for unit-scale gains and
        1e4 samples), and for budgets so large that ``t`` overflows.
    """
    if not (isinstance(avg_budget, (int, float)) and math.isfinite(avg_budget) and avg_budget > 0):
        raise InvalidInputError(f"avg_budget must be positive and finite, got {avg_budget!r}")
    if not (isinstance(samples, int) and samples >= 1):
        raise InvalidInputError(f"samples must be a positive integer, got {samples!r}")

    a, b = _draw_states(ch, samples, seed)
    keep = a > b
    if not np.any(keep):
        return FadingPolicy(lam=math.inf, channel=ch, zero_secrecy=True)
    g, s, g2, c = _slot_terms(a[keep], b[keep])
    del a, b, keep      # free the draws: the search needs only the slot terms

    def mean_power_and_slope(t):
        p, r = _slot_power(t, g, s, g2, c)
        slope = np.where(p > 0.0, (g - 0.5 * c * p / r) / (s + r), 0.0)
        return float(p.sum()) / samples, float(slope.sum()) / samples

    # Every slot spends at most t/2, so the mean power at lo is within budget.
    lo, hi = max(2.0 / float(g.max()), 2.0 * avg_budget), math.inf
    t = lo
    for iterations in range(1, _MAX_NEWTON + 1):
        # Budgets near the float limit overflow t*c; the contract check below
        # reports them, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            power, slope = mean_power_and_slope(t)
        residual = power - avg_budget
        if iterations == 1 or abs(residual) < abs(best_p - avg_budget):
            best_t, best_p = t, power
        if abs(residual) <= _RESIDUAL_ULPS * math.ulp(avg_budget):
            break
        if residual < 0:
            lo = t
        else:
            hi = t
        step = t - residual / slope if slope > 0 else math.inf
        if not lo < step < hi:
            step = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
        if step == lo or step == hi:
            break
        t = step

    if not abs(best_p - avg_budget) <= FADING_BUDGET_REL_TOL * avg_budget:
        raise NumericalError(
            f"calibrated mean power {best_p:.6g} misses the average budget "
            f"{avg_budget:.6g} by more than {FADING_BUDGET_REL_TOL:.0%}")
    return FadingPolicy(lam=1.0 / best_t, channel=ch, avg_power=best_p,
                        iterations=iterations)


def _ergodic_estimate(ch, policy, samples, seed):
    """Rate, standard error and mean spent power, all from one draw of states."""
    if not (isinstance(samples, int) and samples >= 1):
        raise InvalidInputError(f"samples must be a positive integer, got {samples!r}")
    a, b = _draw_states(ch, samples, seed)
    p = _fading_power_array(policy.lam, a, b)
    rates = np.maximum(0.0, 0.5 * (np.log2(1.0 + p * a) - np.log2(1.0 + p * b)))
    estimate = float(rates.mean())
    stderr = float(rates.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return estimate, stderr, float(p.mean())


def ergodic_secrecy_capacity(ch, policy, samples, seed, *, with_power=False):
    """Monte Carlo estimate of the long-run secrecy rate under a policy.

    Draws ``samples`` slot states, applies the policy's per-slot power rule
    and averages the instantaneous secrecy rates.

    Parameters
    ----------
    ch : FadingWiretapChannel
    policy : FadingPolicy
    samples : int
        >= 1.
    seed : int or numpy.random.SeedSequence
    with_power : bool
        Also return the mean power the policy spent on the same draws.

    Returns
    -------
    (float, float) or (float, float, float)
        Sample-mean rate in bits per channel use and its standard error
        (sample standard deviation over sqrt(samples); 0.0 for a single
        sample), followed by the sample-mean power when ``with_power``.
    """
    estimate = _ergodic_estimate(ch, policy, samples, seed)
    return estimate if with_power else estimate[:2]
