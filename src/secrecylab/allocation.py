"""Power allocation that maximizes secrecy rate across parallel links.

**Fading links with known per-slot state.**  A slot with power gains
``(a, b)`` spends, at threshold ``t = 1/lambda`` (``lambda`` is the
Lagrange multiplier) and with ``g = a - b``, the cancellation-free root

    P(t) = max(t - u, 0) / (v + sqrt(1 + t k)),
    u = 2/g,  v = (a + b)/g,  k = 2 b a/g,

so only when ``t > u`` (``a - b > 2 lambda``); at ``b = 0`` it is
``t/2 - 1/a``.  Every term is a ratio to ``g``: none squares a gain or
multiplies two, so no term overflows before a gain does, and scaling the
gains by a power of two scales ``P`` by its inverse, exactly.  The
threshold is calibrated by Monte Carlo so that the calibration-sample mean
power lands within 1 % of the average budget, else
:class:`~secrecylab.errors.NumericalError` is raised.  The ergodic secrecy
rate is the sample mean of the per-slot rates on fresh draws, with its
standard error.

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
a bracket wider than a factor of 4 is bisected at its geometric mean, and a
step below one ulp of ``t`` moves ``t`` to its neighbour float.  Every solve
stops under one rule: within 4 ulps of the target, else when the bracket
closes on two neighbouring floats, else after 200 evaluations.  On more
slots than one block, it starts from the root of a strided subsample of
about ``2**11`` of them, solved the same way, and then takes about 4
evaluations.  Each evaluation walks the active slots' gains in
blocks of ``2**14`` and builds each block's terms, powers and slopes in a
few preallocated block buffers, so no term array spans the sample.  One
function, ``_block_powers``, forms the terms and powers of the root above,
always in rows its caller hands it: a block's rows in the solver and the
ergodic walk, rows as long as the active slots for the water-fill's final
powers and the scalar power rules.
Calibration first compacts the active slots block by block inside the
draws' own buffers, so its memory peaks at the two draws: about 17 bytes
per sample at ``10**6`` samples, on any link.

**The ergodic estimate walks the same blocks once.**  It compacts fresh
draws as calibration does, builds each block's powers with the same
``_block_powers`` and rates with the rate kernel, and folds each block's count, mean
and sum of squared deviations into running totals by the pairwise update
of T. F. Chan, G. H. Golub and R. J. LeVeque ("Algorithms for computing
the sample variance", 1983), the inactive slots entering as one group of
zeros.  So it too peaks at the two draws, about 17 bytes per sample.

Monte Carlo estimators take a seed and evaluate sequentially with
numpy's PCG64 generator, so results are bit-reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import GaussianBank, _secrecy_rate
from .errors import (InvalidInputError, NumericalError, _check_count, _check_nonnegative,
                     _check_positive)

#: The threshold solver makes at most this many evaluations of the mean power.
_MAX_NEWTON = 200

#: The threshold solver stops once the mean power is this many ulps from its target.
_RESIDUAL_ULPS = 4

#: The threshold solver evaluates the slots in blocks of this many, so its
#: temporaries stay cache-sized at any sample size.
_SLOT_BLOCK = 2 ** 14

#: A threshold solve on more slots than one block first solves on a strided
#: subsample of about this many of them and starts from that threshold.
_SUBSAMPLE_SLOTS = 2 ** 11

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
        The Lagrange multiplier ``1/t`` of the threshold ``t`` at which the
        powers were evaluated; 0.0 when no link is eligible and nothing is
        allocated.
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
    """Per-slot power rule for one fading link: the threshold ``t`` it spends at.

    ``threshold`` is the ``t = 1/lambda`` of the module docstring's root, a
    finite number >= 0, as the threshold search solved it.  A policy with
    threshold 0 allocates nothing: calibration returns it when no slot has a
    positive-rate opportunity.  ``avg_power`` is the mean power the policy
    spends on its calibration sample and ``iterations`` the number of
    full-sample evaluations its threshold search made (both 0 when not
    calibrated).
    """

    threshold: float
    avg_power: float = 0.0
    iterations: int = 0

    def __post_init__(self):
        _check_nonnegative("threshold", self.threshold)

    @property
    def lam(self):
        """The multiplier ``1/threshold``; ``inf`` at threshold 0."""
        return 1.0 / self.threshold if self.threshold else math.inf

    @property
    def zero_secrecy(self):
        """Whether the threshold is 0, so the policy allocates nothing."""
        return self.threshold == 0.0


def power_at_lambda(ch, lam):
    """Optimal power for one AWGN link at a given multiplier.

    Returns ``1/2 (sqrt(n_delta^2 + 2 n_delta/lam) - n_sum)`` when the link
    is active, else 0.  The link is active exactly when
    ``1/sigma_m_sq - 1/sigma_w_sq > 2 lam``.

    Parameters
    ----------
    ch : GaussianWiretapChannel
    lam : float
        Lagrange multiplier ``1/t``, > 0.
    """
    _check_positive("lam", lam)
    return float(_power_array(1.0 / lam, *ch.gains))


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

    Solves for the threshold ``t = 1/lam`` at which the links' optimal
    powers sum to the budget, by the threshold search of the module
    docstring; the powers must then sum to the budget within
    :data:`AWGN_BUDGET_TOL` (1e-9).  Where the bracket on ``t`` closes on
    two neighbouring floats first, the sum can still miss the budget by a
    part of the power that one float step of ``t`` moves: ``ulp(t)`` times
    the summed ``1/(v + w)`` of the active links.  Where that step passes
    about 2e-9, as it can from ``t`` near 2**24 on, a
    :class:`~secrecylab.errors.NumericalError` is raised although the answer
    exists: the link ``(sigma_m_sq, sigma_w_sq) = (2**24, 2**54)`` at
    budget 1 misses by 1.863e-09.  The tolerance is absolute, so small
    budgets pass it inexactly: the first link to activate, at ``t = u``,
    gets power in steps of about ``ulp(u) / (v + w)``, 1.11e-16 on the link
    (1, 3).  A budget below that step gives all-zero powers, and budgets up
    to about 1e6 times it lose relative accuracy (1e-10 on that link is off
    from the 8th digit), at exit 0.
    ROADMAP item 1 plans the relative fix.  When no link has a strictly
    noisier eavesdropper the budget is unusable and an all-zero allocation
    is returned.

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
        :data:`AWGN_BUDGET_TOL`: one float step of ``t`` near the root moves
        the powers by more than about twice that (see above).
    """
    if len(channels) == 0:
        raise InvalidInputError("channel list must not be empty")
    _check_positive("budget", budget)

    a, b = _gains(channels)
    on = a > b
    if not np.any(on):
        powers = np.zeros(len(channels))
        return AllocationResult(powers=powers, lam=0.0, sum_rate=0.0, rates=powers.copy())
    t = _solve_threshold(a[on], b[on], len(channels), budget / len(channels))[0]
    powers = _power_array(t, a, b)
    residual = abs(powers.sum() - budget)
    if not residual <= AWGN_BUDGET_TOL:
        raise NumericalError(
            f"budget residual {residual:.3e} exceeds tolerance {AWGN_BUDGET_TOL:.3e}")
    rates = _secrecy_rate(powers, a, b)
    return AllocationResult(powers=powers, lam=1.0 / t, sum_rate=float(rates.sum()), rates=rates)


def _power_array(t, a, b):
    """Per-slot powers at threshold ``t`` of the gains ``a`` and ``b``,
    broadcast against each other: zero where ``a <= b``."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    out = np.zeros(a.shape)
    on = a > b
    out[on] = _block_powers(t, a[on], b[on], np.empty((6, np.count_nonzero(on))))[0]
    return out


def fading_power(policy, state):
    """Power spent on one fading slot under a calibrated policy.

    Zero whenever the slot offers no advantage (``a_draw <= b_draw``) or the
    advantage is too small for the policy's threshold ``t`` (``t (a_draw -
    b_draw) <= 2``); otherwise the water-filling root evaluated at the
    reciprocal gains.

    Parameters
    ----------
    policy : FadingPolicy
    state : ChannelState
    """
    return float(_power_array(policy.threshold, state.a_draw, state.b_draw))


def _mean(powers, n):
    """``powers.sum() / n``, also where the sum alone passes the float maximum."""
    with np.errstate(over="ignore"):
        total = float(powers.sum())
    return total / n if total < math.inf else float((powers / n).sum())


def _slot_blocks(a, b):
    """``(a, b)`` split into views of at most :data:`_SLOT_BLOCK` slots each."""
    return [(a[i:i + _SLOT_BLOCK], b[i:i + _SLOT_BLOCK]) for i in range(0, len(a), _SLOT_BLOCK)]


# Thresholds near the float limit, and gain draws that overflowed, overflow
# the slot terms below; the callers' residual checks report the result, so
# numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def _block_powers(t, a, b, buffers):
    """Powers at ``t = 1/lam`` of slots with ``a > b``, built in preallocated rows.

    Writes the slot terms ``u, v, k`` of the module docstring, the root
    term ``w = sqrt(1 + t k)``, the denominator ``d = v + w`` and the
    powers ``p = max(t - u, 0) / d`` into the first six rows of
    ``buffers``, whose rows hold at least ``len(a)`` entries; the gains are
    only read.  Each term is a ratio to ``g = a - b``, so none squares a
    gain or multiplies two.  The solver and the ergodic walk hand it one
    block's rows at a time, :func:`_power_array` rows as long as all the
    active slots.  Returns ``(p, w, d, k)``.
    """
    u, v, k, p, w, d = buffers[:6, :len(a)]
    g = np.subtract(a, b, out=u)
    np.divide(np.add(a, b, out=v), g, out=v)
    # (a/g) * 2b: the two products of 2.0 * b * (a / g), so k equals it bit for bit.
    np.multiply(np.divide(a, g, out=k), np.multiply(2.0, b, out=p), out=k)
    np.divide(2.0, g, out=u)
    np.sqrt(np.add(1.0, np.multiply(t, k, out=w), out=w), out=w)
    np.maximum(np.subtract(t, u, out=p), 0.0, out=p)
    return np.divide(p, np.add(v, w, out=d), out=p), w, d, k


def _block_evaluator(blocks, n):
    """``t -> (mean power, mean dP/dt)`` over ``n`` slots, evaluated in blocks.

    ``blocks`` are the :func:`_slot_blocks` of the gains of the slots with
    ``a > b``; the others add nothing.  Each call builds each block's
    powers (:func:`_block_powers`) and slopes ``dP/dt = (1 - k P / (2 w)) /
    d``, 0 where ``P = 0``, in seven preallocated block buffers, and adds
    the per-block means and slopes.  So no term array spans the whole
    sample, and the temporaries stay cache-sized; the gains are only read.
    """
    buffers = np.empty((7, len(blocks[0][0])))
    sums = np.empty((2, len(blocks)))

    def mean_power_and_slope(t):
        for i, (a, b) in enumerate(blocks):
            p, w, d, k = _block_powers(t, a, b, buffers)
            s = np.multiply(0.5, k, out=buffers[6, :len(a)])
            with np.errstate(over="ignore", invalid="ignore"):
                np.subtract(1.0, np.divide(np.multiply(s, p, out=s), w, out=s), out=s)
                np.divide(s, d, out=s)
            np.copyto(s, 0.0, where=~(p > 0.0))
            sums[:, i] = _mean(p, n), s.sum()
        return float(sums[0].sum()), float(sums[1].sum()) / n

    return mean_power_and_slope


def _solve_threshold(a, b, n, target):
    """Solve ``sum P(t) / n = target`` for ``t = 1/lam`` over ``n`` slots.

    ``a`` and ``b`` are the gains of the slots with ``a > b``; the others
    spend nothing.  No slot spends below ``t = 2 / max(a - b)``, where the
    search starts, or, on more than one block of slots, at the root of a
    strided subsample of about :data:`_SUBSAMPLE_SLOTS` of them, solved by
    this function with ``n`` scaled to its share.  Each solve stops once the
    mean power is within :data:`_RESIDUAL_ULPS` ulps of the target, else
    when the bracket closes on two neighbouring floats, else after
    :data:`_MAX_NEWTON` evaluations.  A Newton step below one ulp of ``t``
    moves ``t`` to its neighbour toward the root.  Returns ``(t, mean
    power, evaluations)`` for the evaluated ``t`` whose mean power came
    closest to the target; the subsample's evaluations are not counted.
    """
    blocks = _slot_blocks(a, b)
    gap = max(float((a - b).max()) for a, b in blocks)
    # Every slot spends at most t/2, so the mean power at lo is within target.
    # 2/x rounds monotonically, so 2/gap is the least u of the slots.
    lo, hi = max(2.0 / gap, 2.0 * target), math.inf
    t = lo
    if len(blocks) > 1:
        stride = len(a) // _SUBSAMPLE_SLOTS
        sub_a, sub_b = a[::stride], b[::stride]
        # The subsample stands for all the slots: scale n to its share.
        t = max(lo, _solve_threshold(sub_a, sub_b, n * len(sub_a) / len(a), target)[0])
    mean_power_and_slope = _block_evaluator(blocks, n)
    for iterations in range(1, _MAX_NEWTON + 1):
        power, slope = mean_power_and_slope(t)
        residual = power - target
        if iterations == 1 or abs(residual) < abs(best_p - target):
            best_t, best_p = t, power
        if abs(residual) <= _RESIDUAL_ULPS * math.ulp(target):
            break
        if residual < 0:
            lo = t
        else:
            hi = t
        step = t - residual / slope if slope > 0 else math.inf
        if step == t:
            step = math.nextafter(t, hi if residual < 0 else lo)
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
    """Exponential gain draws for ``samples`` slots of one fading link.

    Bit-identical to ``rng.exponential(ch.a, samples), rng.exponential(ch.b,
    samples)``: numpy draws ``exponential(scale)`` as ``scale`` times a
    standard exponential, which is scaled here in place.  A scale near the
    float maximum overflows some draws to ``inf``, as numpy's own does.
    """
    rng = np.random.default_rng(seed)
    a, b = rng.standard_exponential(samples), rng.standard_exponential(samples)
    with np.errstate(over="ignore"):
        a *= ch.a
        b *= ch.b
    return a, b


def _compact_active(a, b):
    """Move the slots with ``a > b`` to the front of ``a`` and ``b``, in order and in place.

    Walks the draws in blocks of :data:`_SLOT_BLOCK` and gathers each
    block's active slots by index, so only block-sized copies are made.
    Returns views of the active slots in the draws' own buffers.
    """
    active = 0
    for i in range(0, len(a), _SLOT_BLOCK):
        block_a, block_b = a[i:i + _SLOT_BLOCK], b[i:i + _SLOT_BLOCK]
        keep = np.flatnonzero(block_a > block_b)
        np.take(block_a, keep, out=a[active:active + len(keep)])
        np.take(block_b, keep, out=b[active:active + len(keep)])
        active += len(keep)
    return a[:active], b[:active]


def calibrate_fading_lambda(ch, avg_budget, samples, seed):
    """Find the threshold whose average spent power meets the budget.

    Draws one calibration sample of slot states and solves
    ``mean P(t) = avg_budget`` for ``t = 1/lam`` by the threshold search of
    the module docstring.  The sample is fixed before the search, so the
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
        (``iterations``; a subsample's are not counted).  If no drawn
        slot has ``a_draw > b_draw`` the budget is unreachable at any
        threshold; the returned policy has threshold 0 (so ``zero_secrecy``
        is true and the multiplier ``lam`` infinite), and allocates zero
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

    a, b = _compact_active(*_draw_states(ch, samples, seed))
    if not len(a):
        return FadingPolicy(threshold=0.0)
    best_t, best_p, iterations = _solve_threshold(a, b, samples, avg_budget)

    if not abs(best_p - avg_budget) <= FADING_BUDGET_REL_TOL * avg_budget:
        raise NumericalError(
            f"calibrated mean power {best_p:.6g} misses the average budget "
            f"{avg_budget:.6g} by more than {FADING_BUDGET_REL_TOL:.0%}")
    return FadingPolicy(threshold=best_t, avg_power=best_p, iterations=iterations)


def ergodic_secrecy_capacity(ch, policy, samples, seed):
    """Monte Carlo estimate of the long-run secrecy rate under a policy.

    Draws ``samples`` slot states, applies the policy's per-slot power rule
    and averages the instantaneous secrecy rates.  The slots with ``a > b``
    are compacted to the front of the draws and walked in blocks of
    :data:`_SLOT_BLOCK`: each block's terms and powers are built in
    preallocated block buffers, and its rates' count, mean and sum of
    squared deviations are folded into running totals by the pairwise
    update of Chan, Golub and LeVeque; the other slots enter as one group
    of zeros.  So memory peaks at the two draws, about 17 bytes per sample.

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
    a, b = _compact_active(*_draw_states(ch, samples, seed))
    buffers = np.empty((6, min(len(a), _SLOT_BLOCK)))
    # The inactive slots are one group of zeros: mean 0, no squared deviation.
    count, estimate, m2, power = samples - len(a), 0.0, 0.0, 0.0
    for a, b in _slot_blocks(a, b):
        p = _block_powers(policy.threshold, a, b, buffers)[0]
        power += _mean(p, samples)
        rates = _secrecy_rate(p, a, b)
        block_mean = float(rates.mean())
        block_m2 = float(np.square(np.subtract(rates, block_mean, out=rates), out=rates).sum())
        count += len(a)
        delta, share = block_mean - estimate, len(a) / count
        estimate += delta * share
        m2 += block_m2 + delta * delta * (count - len(a)) * share
    stderr = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples) if samples > 1 else 0.0
    if not math.isfinite(estimate + stderr + power):
        raise NumericalError(f"ergodic estimate is not finite: rate {estimate!r}, "
                             f"standard error {stderr!r}, mean power {power!r}")
    return estimate, stderr, power
