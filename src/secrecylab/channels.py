"""Wiretap channel primitives.

A wiretap link carries one transmission to a legitimate receiver while an
eavesdropper observes a second, noisier copy.  This module holds the
gaussian and fading link types, the fading slot state and the single-link
secrecy-rate formulas:

- :func:`gaussian_secrecy_rate` for a static AWGN link, and
  :meth:`GaussianBank.secrecy_rates` for a bank of them held as columns,
- :func:`instantaneous_fading_secrecy_rate` for one fading slot.

The agent model (:class:`~secrecylab.cooperation.AgentChannel`, its bank,
and a fading link's SNR pair) lives in :mod:`secrecylab.cooperation`.

All rates are in bits per channel use (base-2 logarithms) and negative
secrecy rates clamp to zero, matching the capacity interpretation.  Both
rates are one elementwise kernel in power gains (an AWGN link has gains
``1/sigma_m_sq, 1/sigma_w_sq``).  Everything here is a pure function of its
arguments and safe to call concurrently.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidInputError, _check_nonnegative, _check_positive, _finite_float,
                     _finite_number, _finite_numbers, _one_per_id)


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

    ``ids`` is a list with one id per link.  Each variance column is a
    sequence of Python ints and floats, the numbers
    :class:`GaussianWiretapChannel` takes (a bool, a str or an int beyond
    the float range is not one), or a numpy array of floats or ints, which
    is checked in one vectorized pass.  The bank holds ``sigma_m_sq`` and
    ``sigma_w_sq`` as read-only float arrays, and ``gains`` as the pair
    ``(1/sigma_m_sq, 1/sigma_w_sq)`` of read-only arrays.  Each link obeys
    the rule of that class: both variances positive and finite, and both
    gains finite.

    Raises
    ------
    InvalidInputError
        A variance breaks that rule, or a column does not hold one value
        per id.  The message names the first bad row, e.g.
        ``sigma_m_sq[3]: expected a finite number, got True``.
    """

    def __init__(self, ids, sigma_m_sq, sigma_w_sq):
        self.ids = list(ids)
        self.sigma_m_sq, gain_m = self._variances("sigma_m_sq", sigma_m_sq)
        self.sigma_w_sq, gain_w = self._variances("sigma_w_sq", sigma_w_sq)
        self.gains = (gain_m, gain_w)

    def _variances(self, name, given):
        """One variance column and its gain column, both read-only."""
        values = given
        if not (isinstance(given, np.ndarray) and given.dtype.kind in "fiu"):
            values = given = list(given)
            if not _finite_numbers(given):  # a value that is not a number goes in as NaN
                values = [value if _finite_number(value) else math.nan for value in given]
        values = _one_per_id(name, np.array(values, dtype=float), len(self.ids))
        with np.errstate(divide="ignore", over="ignore"):
            gain = 1.0 / values
        bad = ~((gain > 0.0) & (gain < math.inf))
        if bad.any():
            i = int(bad.argmax())
            _finite_float(f"{name}[{i}]", given[i] if isinstance(given, list) else values[i].item())
            raise InvalidInputError(
                f"{name}[{i}]: expected a positive variance whose power gain "
                f"1/{name} is a finite float, got {values[i].item()!r}")
        values.setflags(write=False)
        gain.setflags(write=False)
        return values, gain

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, row):
        return GaussianWiretapChannel(self.sigma_m_sq[row].item(), self.sigma_w_sq[row].item())

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
    (:func:`~secrecylab.cooperation.is_qualified`,
    :func:`~secrecylab.cooperation.to_agent_channel`), whose power gains
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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _secrecy_rate(p, a, b):
    """Elementwise ``max(0, 1/2 log2((1 + p a) / (1 + p b)))`` for gains ``a, b``.

    Taken as ``log1p((a - b) / (1/p + b)) / (2 ln 2)``, which keeps its
    relative accuracy near activation, where the ratio under the log is
    close to 1, and stays finite where ``p a`` or ``p b`` overflows.  That
    form fails where its quotient overflows (a rate that is not finite) or
    where ``1/p + b`` overflows (a rate of 0 at a positive power: ``p``
    below about 5.6e-309, or below about 1e-292 on a gain near the float
    maximum).  Those rows, and the rows with ``a = b``, are recomputed.
    Where ``1/p`` is finite, the rate is taken as ``1/2 (log2(a/2 + 1/2p) -
    log2(b/2 + 1/2p))``, in which no term overflows.  Where it is not, ``p
    a`` and ``p b`` are at most about 1 on finite gains, and the rate is
    taken as ``log1p(p (a - b) / (1 + p b)) / (2 ln 2)``.
    At ``p = 0`` the rate is 0, also for an infinite gain.
    """
    q = np.divide(1.0, p)  # a Python 0.0 raises on 1.0 / p
    rate = np.log1p((a - b) / (q + b)) / (2.0 * math.log(2.0))
    far = ~np.isfinite(rate) | ((rate == 0.0) & (p > 0))
    if far.any():
        half = 0.5 * (np.log2(0.5 * a + 0.5 * q) - np.log2(0.5 * b + 0.5 * q))
        near = np.log1p(np.multiply(p, a - b) / (1.0 + np.multiply(p, b))) / (2.0 * math.log(2.0))
        rate = np.select([~far, q < math.inf, p > 0], [rate, half, near], 0.0)
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
