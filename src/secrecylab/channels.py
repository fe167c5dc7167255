"""Wiretap channel primitives.

A wiretap link carries one transmission to a legitimate receiver while an
eavesdropper observes a second, noisier copy.  This module holds the channel
data types used everywhere else plus the single-link secrecy-rate formulas:

- :func:`gaussian_secrecy_rate` for a static AWGN link, and
  :meth:`GaussianBank.secrecy_rates` for a bank of them held as columns,
- :func:`instantaneous_fading_secrecy_rate` for one fading slot,
- :func:`is_qualified` / :func:`to_agent_channel` for the SNR-based
  classification used by the cooperation machinery.

All rates are in bits per channel use (base-2 logarithms) and negative
secrecy rates clamp to zero, matching the capacity interpretation.  Both
rates are one elementwise kernel in power gains (an AWGN link has gains
``1/sigma_m_sq, 1/sigma_w_sq``).  Everything here is a pure function of its
arguments and safe to call concurrently.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, _check_nonnegative, _check_positive


def _check_gain(field, formula, gain):
    """A link's power gain, derived from ``field``, must be a positive finite float."""
    if not 0.0 < gain < math.inf:
        raise InvalidInputError(
            f"{field}: expected a positive finite power gain {formula}, got {gain!r}")


@dataclass(frozen=True)
class GaussianWiretapChannel:
    """One static AWGN link: noise variances of the two observations.

    Parameters
    ----------
    sigma_m_sq : float
        Noise variance on the main (legitimate) channel, linear power units.
    sigma_w_sq : float
        Noise variance on the eavesdropper channel, linear power units.

    Both variances must be large enough (about 5.56e-309 or more) that the
    power gains ``gains = (1/sigma_m_sq, 1/sigma_w_sq)``, which the rate and
    power kernels use, are finite.
    """

    sigma_m_sq: float
    sigma_w_sq: float
    gains: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_positive("sigma_m_sq", self.sigma_m_sq)
        _check_positive("sigma_w_sq", self.sigma_w_sq)
        object.__setattr__(self, "gains", (1.0 / self.sigma_m_sq, 1.0 / self.sigma_w_sq))
        _check_gain("sigma_m_sq", "1/sigma_m_sq", self.gains[0])
        _check_gain("sigma_w_sq", "1/sigma_w_sq", self.gains[1])


class GaussianBank:
    """Static AWGN links held as columns: ids, noise variances and power gains.

    ``ids`` is a list with one id per link.  ``sigma_m_sq`` and
    ``sigma_w_sq`` are read-only float arrays, and ``gains`` is the pair
    ``(1/sigma_m_sq, 1/sigma_w_sq)`` of read-only arrays.  Each link obeys
    the rule of :class:`GaussianWiretapChannel`: both variances positive and
    finite, and both gains finite.

    Raises
    ------
    InvalidInputError
        A variance breaks that rule (named with its row, e.g.
        ``sigma_m_sq[3]``), or a column does not hold one value per id.
    """

    def __init__(self, ids, sigma_m_sq, sigma_w_sq):
        self.ids = list(ids)
        self.sigma_m_sq, gain_m = self._variances("sigma_m_sq", sigma_m_sq)
        self.sigma_w_sq, gain_w = self._variances("sigma_w_sq", sigma_w_sq)
        self.gains = (gain_m, gain_w)

    def _variances(self, name, values):
        """One variance column and its gain column, both read-only."""
        values = np.array(values, dtype=float)
        if values.shape != (len(self.ids),):
            raise InvalidInputError(
                f"{name}: expected {len(self.ids)} values, one per id, got shape {values.shape}")
        with np.errstate(divide="ignore", over="ignore"):
            gain = 1.0 / values
        bad = ~((gain > 0.0) & (gain < math.inf))
        if bad.any():
            i = int(bad.argmax())
            raise InvalidInputError(
                f"{name}[{i}]: expected a positive variance whose power gain "
                f"1/{name} is a finite float, got {values[i].item()!r}")
        values.setflags(write=False)
        gain.setflags(write=False)
        return values, gain

    def __len__(self):
        return len(self.ids)

    def secrecy_rates(self, power):
        """Each link's secrecy rate at the same transmit power, as a float array.

        The rate of :func:`gaussian_secrecy_rate`, evaluated for the whole
        bank in one call.
        """
        _check_nonnegative("power", power)
        return _secrecy_rate(power, *self.gains)


@dataclass(frozen=True)
class FadingWiretapChannel:
    """One fading link: mean power gains plus static noise variances.

    ``a`` and ``b`` are the average fading power gains of the main and
    eavesdropper paths.  Per-slot gains are drawn as exponentials with these
    means (squared zero-mean Gaussian amplitude fading has exponentially
    distributed power).  The per-slot rate and power formulas treat the drawn
    gains as effective, noise-normalized SNR factors; ``sigma_m_sq`` and
    ``sigma_w_sq`` enter only the static qualification test
    (:func:`is_qualified`, :func:`to_agent_channel`), whose power gains
    ``a/sigma_m_sq, b/sigma_w_sq`` must be positive finite floats.
    """

    a: float
    b: float
    sigma_m_sq: float
    sigma_w_sq: float

    def __post_init__(self):
        _check_positive("a", self.a)
        _check_positive("b", self.b)
        _check_positive("sigma_m_sq", self.sigma_m_sq)
        _check_positive("sigma_w_sq", self.sigma_w_sq)
        _check_gain("sigma_m_sq", "a/sigma_m_sq", self.a / self.sigma_m_sq)
        _check_gain("sigma_w_sq", "b/sigma_w_sq", self.b / self.sigma_w_sq)


@dataclass(frozen=True)
class ChannelState:
    """Instantaneous fading state: one (main, eavesdropper) power-gain draw."""

    a_draw: float
    b_draw: float

    def __post_init__(self):
        _check_nonnegative("a_draw", self.a_draw)
        _check_nonnegative("b_draw", self.b_draw)


@dataclass(frozen=True)
class AgentChannel:
    """One agent's link summarized as a pair of SNRs.

    ``main_snr`` is the agent's own link SNR, ``eaves_snr`` the SNR of the
    eavesdropper listening to that agent.  Within a bank, ids must be unique.
    """

    id: int
    main_snr: float
    eaves_snr: float

    def __post_init__(self):
        _check_positive("main_snr", self.main_snr)
        _check_positive("eaves_snr", self.eaves_snr)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _secrecy_rate(p, a, b):
    """Elementwise ``max(0, 1/2 log2((1 + p a) / (1 + p b)))`` for gains ``a, b``.

    Where ``p a`` or ``p b`` overflows, the rate is taken in the equivalent
    form ``1/2 (log2(a + 1/p) - log2(b + 1/p))``, which stays finite.  At
    ``p = 0`` the rate is 0, also for an infinite gain.
    """
    rate = 0.5 * np.log2((1.0 + np.multiply(p, a)) / (1.0 + np.multiply(p, b)))
    if not np.isfinite(rate).all():
        q = 1.0 / p
        rate = np.where(np.isfinite(rate), rate,
                        np.where(p > 0, 0.5 * (np.log2(a + q) - np.log2(b + q)), 0.0))
    return np.maximum(rate, 0.0)


def gaussian_secrecy_rate(power, ch):
    """Secrecy rate of one AWGN wiretap link at a given transmit power.

    Computes ``max(0, 1/2 log2(1 + P/sigma_m_sq) - 1/2 log2(1 + P/sigma_w_sq))``
    in bits per channel use.  The rate is zero whenever the eavesdropper's
    noise is not strictly worse than the legitimate receiver's
    (``sigma_w_sq <= sigma_m_sq``) or no power is spent.

    Parameters
    ----------
    power : float
        Transmit power, linear units, >= 0.
    ch : GaussianWiretapChannel

    Returns
    -------
    float
        Secrecy rate in bits per channel use, >= 0.
    """
    _check_nonnegative("power", power)
    return float(_secrecy_rate(power, *ch.gains))


def instantaneous_fading_secrecy_rate(power, state):
    """Secrecy rate of one fading slot under known channel state.

    ``max(0, 1/2 [log2(1 + P * a_draw) - log2(1 + P * b_draw)])`` in bits per
    channel use; zero whenever the eavesdropper's instantaneous gain is at
    least the main gain.

    Parameters
    ----------
    power : float
        Transmit power for this slot, >= 0.
    state : ChannelState
    """
    _check_nonnegative("power", power)
    return float(_secrecy_rate(power, state.a_draw, state.b_draw))


def is_qualified(ch):
    """Whether a fading link can sustain a positive secrecy rate on average.

    True iff the noise-normalized main gain strictly exceeds the
    noise-normalized eavesdropper gain: ``a/sigma_m_sq > b/sigma_w_sq``.
    Equality counts as disqualified.
    """
    return ch.a / ch.sigma_m_sq > ch.b / ch.sigma_w_sq


def to_agent_channel(ch, id):
    """Summarize a fading link as an :class:`AgentChannel` SNR pair.

    ``main_snr = a/sigma_m_sq`` and ``eaves_snr = b/sigma_w_sq``, so
    ``is_qualified(ch)`` holds exactly when ``main_snr > eaves_snr``.
    """
    return AgentChannel(id=id,
                        main_snr=ch.a / ch.sigma_m_sq,
                        eaves_snr=ch.b / ch.sigma_w_sq)
