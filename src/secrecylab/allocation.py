"""Power allocation that maximizes secrecy rate across parallel links.

**Fading links with known per-slot state.**  A slot with power gains
``(a, b)`` spends, at threshold ``lambda``, with ``t = 1/lambda`` and
``g = a - b``, the cancellation-free root

    P(t) = max(t - u, 0) / (v + sqrt(1 + t k)),
    u = 2/g,  v = (a + b)/g,  k = 2 b a/g,

so only when ``t > u`` (``a - b > 2 lambda``); at ``b = 0`` it is
``t/2 - 1/a``.  Every term is a ratio to ``g``: none squares a gain or
multiplies two, so no term overflows before a gain does, and scaling the
gains by a power of two scales ``P`` by its inverse, exactly.  The
threshold is calibrated by Monte Carlo so that the calibration-sample mean
power lands within 1 % of the average budget, else
:class:`~secrecylab.errors.NumericalError` is raised.  The ergodic secrecy
rate is the sample mean of the per-slot rates.

**Static AWGN banks.**  The sum secrecy rate
``sum_i [1/2 log2(1 + P_i/sigma_m_sq_i) - 1/2 log2(1 + P_i/sigma_w_sq_i)]``
is maximized subject to ``sum_i P_i <= budget``.  A link is a slot with
gains ``(1/sigma_m_sq, 1/sigma_w_sq)``; there the root above is the
rationalized textbook root ``1/2 (sqrt(n_delta^2 + 2 n_delta/lambda) -
n_sum)``, ``n_delta = sigma_w_sq - sigma_m_sq``, ``n_sum = sigma_w_sq +
sigma_m_sq``.  A link receives power only when ``1/sigma_m_sq -
1/sigma_w_sq > 2 lambda``: a secrecy variant of water-filling that ranks
links by the variance gap rather than by gain.

**One threshold solver serves both.**  ``sum P(t) / n = target`` over ``n``
slots (the calibration sample, or the bank's links with target
``budget/n``) is continuous and strictly increasing wherever it is
positive.  It is solved by safeguarded Newton steps on ``t`` with the
analytic slope ``dP/dt = (1 - k P / (2 w)) / (v + w)``, ``w = sqrt(1 + t
k)``, falling back to doubling or bisection when a step leaves the bracket;
a bracket wider than a factor of 4 is bisected at its geometric mean.
Calibration stops within 4 ulps of the budget; the water-fill runs until
the bracket collapses.  Each evaluation walks the slots in blocks of
``2**14`` through a few preallocated buffers, and the slot terms are built
in place in the buffers of the compressed draws.  Calibration memory thus
peaks at four float arrays over the active slots (or at the two draws while
they are compressed): about 29 bytes per sample on a link with ``a = 10 b``.

Monte Carlo estimators take a seed and evaluate sequentially with
numpy's PCG64 generator, so results are bit-reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import FadingWiretapChannel, GaussianBank, _secrecy_rate
from .errors import InvalidInputError, NumericalError, _check_count, _check_positive

#: The threshold solver makes at most this many evaluations of the mean power.
_MAX_NEWTON = 200

#: Calibration stops once the mean power is this many ulps from the budget.
_RESIDUAL_ULPS = 4

#: The threshold solver evaluates the slots in blocks of this many, so its
#: temporaries stay cache-sized at any sample size.
_SLOT_BLOCK = 2 ** 14

#: Documented accuracy of fading calibration: the calibration-sample mean
#: power is within this fraction of the average budget.
FADING_BUDGET_REL_TOL = 0.01

#: Accuracy of the AWGN water-fill: the allocated powers sum to the budget
#: within this absolute tolerance.
AWGN_BUDGET_TOL = 1e-9


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
    rates : numpy.ndarray
        Per-link secrecy rate at ``powers``, same order as the input bank.
    """

    powers: np.ndarray
    lam: float
    sum_rate: float
    rates: np.ndarray


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
        _check_positive("lam", self.lam)


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
    _check_positive("lam", lam)
    return float(_fading_power_array(lam, *ch.gains))


def sum_secrecy_rate(channels, powers):
    """Sum of per-link secrecy rates at the given power vector.

    Parameters
    ----------
    channels : GaussianBank or sequence of GaussianWiretapChannel
    powers : sequence of float
        Same length as ``channels``, entries >= 0.
    """
    if len(channels) != len(powers):
        raise InvalidInputError(
            f"length mismatch: {len(channels)} channels vs {len(powers)} powers")
    powers = np.asarray(powers, dtype=float)
    if not np.all(np.isfinite(powers) & (powers >= 0)):
        raise InvalidInputError("powers must be non-negative finite numbers")
    return float(_secrecy_rate(powers, *_gains(channels)).sum())


def _gains(channels):
    """The main and eavesdropper gain columns of a :class:`GaussianBank` or of a
    sequence of channels, gathered in order."""
    if isinstance(channels, GaussianBank):
        return channels.gains
    return np.reshape([ch.gains for ch in channels], (-1, 2)).T


def awgn_waterfill(channels, budget):
    """Split a power budget across parallel AWGN links for maximum secrecy.

    Solves for the threshold ``lam`` at which the links' optimal powers sum
    to the budget, running the search until its bracket collapses.  When at
    least one link is eligible, the powers sum to the budget within
    :data:`AWGN_BUDGET_TOL` (1e-9); bracket collapse meets it for budgets
    below 2**23, whose float spacing is finer than that.  When no link has a
    strictly noisier eavesdropper the budget is unusable and an all-zero
    allocation is returned.

    Parameters
    ----------
    channels : GaussianBank or sequence of GaussianWiretapChannel
        At least one link.  A sequence is gathered into the gain columns a
        bank holds, so both are solved alike.
    budget : float
        Total power to distribute, > 0.

    Returns
    -------
    AllocationResult

    Raises
    ------
    InvalidInputError
        Empty bank or non-positive budget.
    NumericalError
        The allocation misses the budget by more than
        :data:`AWGN_BUDGET_TOL` (budgets whose float spacing exceeds it).
    """
    if len(channels) == 0:
        raise InvalidInputError("channel list must not be empty")
    _check_positive("budget", budget)

    a, b = _gains(channels)
    powers = np.zeros(len(channels))
    on = a > b
    if not np.any(on):
        return AllocationResult(powers=powers, lam=0.0, sum_rate=0.0, rates=powers.copy())
    terms = _slot_terms(a[on], b[on])
    t = _solve_threshold(terms, len(channels), budget / len(channels), 0.0)[0]
    powers[on] = _slot_power(t, *terms)[0]
    residual = abs(powers.sum() - budget)
    if not residual <= AWGN_BUDGET_TOL:
        raise NumericalError(
            f"budget residual {residual:.3e} exceeds tolerance {AWGN_BUDGET_TOL:.3e}")
    rates = _secrecy_rate(powers, a, b)
    return AllocationResult(powers=powers, lam=1.0 / t, sum_rate=float(rates.sum()), rates=rates)


# Thresholds near the float limit, and gain draws that overflowed, overflow
# the slot kernels below; the callers' residual checks report the result,
# so numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def _slot_power(t, u, v, k, out=None):
    """Cancellation-free per-slot power at ``t = 1/lam``, with its root term.

    For slots with ``g = a - b > 0``, given ``u = 2/g``, ``v = (a + b)/g``
    and ``k = 2 b a/g``, returns ``(p, w)`` with ``w = sqrt(1 + t k)`` and
    ``p = max(t - u, 0) / (v + w)``: zero exactly when ``t <= u``.  ``out``
    is an optional ``(p, w)`` pair of arrays to write the results into.
    """
    p, w = out or (None, None)
    w = np.sqrt(np.add(1.0, np.multiply(t, k, out=w), out=w), out=w)
    p = np.maximum(np.subtract(t, u, out=p), 0.0, out=p)
    return np.divide(p, v + w, out=p), w


@np.errstate(over="ignore", invalid="ignore")
def _slot_slope(p, w, v, k, out):
    """``dP/dt`` of the slots at :func:`_slot_power`'s ``(p, w)``, written into ``out``.

    The slope is 0 where ``p = 0``.
    """
    s = np.multiply(0.5, k, out=out)
    np.subtract(1.0, np.divide(np.multiply(s, p, out=s), w, out=s), out=s)
    np.divide(s, v + w, out=s)
    np.copyto(s, 0.0, where=~(p > 0.0))
    return s


@np.errstate(over="ignore", invalid="ignore")
def _slot_terms(a, b):
    """The per-slot constants ``(u, v, k)`` of :func:`_slot_power`, for ``a > b``.

    Each is a ratio to ``g = a - b``, so no term squares a gain or multiplies
    two of them.  Takes ownership of ``a`` and ``b``: ``k`` is built in
    ``a``'s buffer with ``b``'s as scratch, and ``u`` in ``g``'s, so only
    ``g`` and ``v`` take new memory and a large calibration sample peaks at
    four arrays of its active slots.
    """
    g = a - b
    v = np.add(a, b)
    v /= g
    # (a/g) * 2b: the two products of 2.0 * b * (a / g), so k is bit-identical.
    k = np.multiply(np.divide(a, g, out=a), np.multiply(2.0, b, out=b), out=a)
    return np.divide(2.0, g, out=g), v, k


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


def _mean(powers, n):
    """``powers.sum() / n``, also where the sum alone passes the float maximum."""
    with np.errstate(over="ignore"):
        total = float(powers.sum())
    return total / n if total < math.inf else float((powers / n).sum())


def _block_evaluator(terms, n):
    """``t -> (mean power, mean dP/dt)`` over ``n`` slots, evaluated in blocks.

    ``terms`` are the :func:`_slot_terms` of the slots with ``a > b``; the
    others add nothing.  Each call walks the slots in blocks of
    :data:`_SLOT_BLOCK` through three preallocated block buffers, so its
    temporaries stay cache-sized, and adds the per-block means and slopes.
    """
    edges = range(_SLOT_BLOCK, len(terms[0]), _SLOT_BLOCK)
    blocks = list(zip(*(np.split(term, edges) for term in terms)))
    buffers = np.empty((3, min(len(terms[0]), _SLOT_BLOCK)))
    sums = np.empty((2, len(blocks)))

    def mean_power_and_slope(t):
        for i, (u, v, k) in enumerate(blocks):
            p, w, s = buffers[:, :len(u)]
            _slot_power(t, u, v, k, out=(p, w))
            sums[:, i] = _mean(p, n), _slot_slope(p, w, v, k, out=s).sum()
        return float(sums[0].sum()), float(sums[1].sum()) / n

    return mean_power_and_slope


def _solve_threshold(terms, n, target, residual_tol):
    """Solve ``sum P(t) / n = target`` for ``t = 1/lam`` over ``n`` slots.

    ``terms`` are the :func:`_slot_terms` of the slots with ``a > b``; the
    others spend nothing.  Stops once the mean power is within
    ``residual_tol`` of the target, when the bracket collapses, or after
    :data:`_MAX_NEWTON` evaluations.  Returns ``(t, mean power, evaluations)``
    for the evaluated ``t`` whose mean power came closest to the target.
    """
    mean_power_and_slope = _block_evaluator(terms, n)
    # Every slot spends at most t/2, so the mean power at lo is within target.
    lo, hi = max(float(terms[0].min()), 2.0 * target), math.inf
    t = lo
    for iterations in range(1, _MAX_NEWTON + 1):
        power, slope = mean_power_and_slope(t)
        residual = power - target
        if iterations == 1 or abs(residual) < abs(best_p - target):
            best_t, best_p = t, power
        if abs(residual) <= residual_tol:
            break
        if residual < 0:
            lo = t
        else:
            hi = t
        step = t - residual / slope if slope > 0 else math.inf
        if not lo < step < hi:
            step = 2.0 * lo if hi == math.inf else _midpoint(lo, hi)
        if step == lo or step == hi:
            break
        t = step
    return best_t, best_p, iterations


def _midpoint(lo, hi):
    """Bisection point of ``0 < lo < hi``: geometric on a wide bracket.

    A Newton step can overshoot by many orders of magnitude; the geometric
    mean halves the bracket's exponent range, where the arithmetic one would
    take a step per factor of two.  Both scale exactly with ``lo`` and
    ``hi``.
    """
    return lo * math.sqrt(hi / lo) if hi > 4.0 * lo else 0.5 * (lo + hi)


def _draw_states(ch, samples, seed):
    """Exponential gain draws for ``samples`` slots of one fading link."""
    rng = np.random.default_rng(seed)
    return rng.exponential(ch.a, samples), rng.exponential(ch.b, samples)


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
    _check_positive("avg_budget", avg_budget)
    _check_count("samples", samples)

    a, b = _draw_states(ch, samples, seed)
    keep = a > b
    if not np.any(keep):
        return FadingPolicy(lam=math.inf, channel=ch, zero_secrecy=True)
    # Compress one draw at a time, so each full draw is freed before the next
    # copy is made; the search needs only the slot terms.
    a = a[keep]
    b = b[keep]
    del keep
    terms = _slot_terms(a, b)
    del a, b
    best_t, best_p, iterations = _solve_threshold(
        terms, samples, avg_budget, _RESIDUAL_ULPS * math.ulp(avg_budget))

    if not abs(best_p - avg_budget) <= FADING_BUDGET_REL_TOL * avg_budget:
        raise NumericalError(
            f"calibrated mean power {best_p:.6g} misses the average budget "
            f"{avg_budget:.6g} by more than {FADING_BUDGET_REL_TOL:.0%}")
    return FadingPolicy(lam=1.0 / best_t, channel=ch, avg_power=best_p,
                        iterations=iterations)


def ergodic_secrecy_capacity(ch, policy, samples, seed):
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

    Returns
    -------
    (float, float, float)
        Sample-mean rate in bits per channel use, its standard error (sample
        standard deviation over sqrt(samples); 0.0 for a single sample) and
        the mean power the policy spent on the same draws.

    Raises
    ------
    NumericalError
        Any of the three is not finite.
    """
    _check_count("samples", samples)
    a, b = _draw_states(ch, samples, seed)
    p = _fading_power_array(policy.lam, a, b)
    rates = _secrecy_rate(p, a, b)
    estimate = float(rates.mean())
    stderr = float(rates.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    power = _mean(p, samples)
    if not math.isfinite(estimate + stderr + power):
        raise NumericalError(f"ergodic estimate is not finite: rate {estimate!r}, "
                             f"standard error {stderr!r}, mean power {power!r}")
    return estimate, stderr, power
