"""Finite-alphabet wiretap rates at desk scale.

Numerically evaluates secrecy rates on tiny discrete channels: the rate of
one link at a fixed input distribution is ``I(X;Y) - I(X;Z)``, the capacity
is its maximum over input distributions, and the eavesdropper-aggregation
effect for correlated inputs is the drop from ``I(X;Z_own)`` to
``I(X; Z_own, Z_other)``.

The maximization is over the channel input directly (no auxiliary cloud
variable); that restriction is optimal for degraded channels, which are the
only ones with a closed form to validate against, and is an explicit
limitation otherwise.  Entropy terms use ``0 * log 0 = 0`` and base-2 logs.

The capacity search (:func:`max_secrecy_rate_grid`) returns what evaluating
every grid point would, without doing so.  It is a certified
branch-and-bound over boxes in the cumulative coordinates
``x_k = c_1 + ... + c_k`` of a composition ``c`` of the grid denominator.
All coordinates are cut at one shared set of points, made by halving
``[0, denom]`` again and again, so a box's ordered corners are grid points
that span its part of the simplex.  The rate ``H(qM) - H(qE) - q.gap`` is a
concave term minus a concave term plus a linear one (mutual information is
concave in the input; Cover & Thomas, Thm 2.7.4), so the tangent plane of
``H(qM)`` at the corners' mean bounds it over the box from the corner
values alone (see :func:`_upper_bounds`).  A box whose bound, raised by a
rounding margin scaled to the size of the summed terms, lies more than
the tie tolerance below the best rate found is dropped; the rest are split
down to leaves a few values wide, whose grid points are evaluated with the
same kernel.  When nothing prunes, as on identical links, every grid point
is evaluated once, in batches of bounded size.
"""

import numpy as np

from .errors import InvalidInputError, UnsupportedSizeError, _check_grid_step

_NORM_TOL = 1e-12
_TIE_TOL = 1e-12
#: Boxes are split until every interval holds at most this many values.
_LEAF_WIDTH = 8
#: About the most grid points one rate-kernel call evaluates.  It caps the
#: search's memory whatever the grid size, and keeps the kernel's arrays in
#: cache: on a 2-vCPU Xeon with 2 MB L2 the kernel took about 70 ns a row in
#: calls of 2**12 rows and 100-120 ns in calls of 2**13 or 2**14.
_BATCH = 1 << 12
_TINY = np.finfo(float).smallest_subnormal


def _as_prob_matrix(name, m, ndim=2):
    try:
        if any(isinstance(x, (bool, np.bool_)) for x in np.asarray(m, dtype=object).flat):
            raise TypeError("booleans are not numbers")
        m = np.array(m, dtype=float)  # copy: stored matrices are frozen read-only
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name}: must be a rectangular array of numbers") from None
    if m.ndim != ndim:
        raise InvalidInputError(f"{name}: must be {ndim}-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name}: contains non-finite entries")
    if np.any(m < 0):
        raise InvalidInputError(f"{name}: contains negative entries")
    return m


def _as_distribution(name, p, ndim=2):
    """A probability array, as :func:`_as_prob_matrix`, whose entries sum to 1."""
    p = _as_prob_matrix(name, p, ndim)
    if abs(p.sum() - 1.0) > _NORM_TOL:
        raise InvalidInputError(
            f"{name}: must sum to 1 within {_NORM_TOL}, got sum {p.sum()!r}")
    return p


class DiscretePmf:
    """A probability vector over a finite alphabet.

    Entries must be non-negative and sum to 1 within 1e-12.
    """

    def __init__(self, probs):
        self.probs = _as_distribution("probs", probs, ndim=1)
        self.probs.setflags(write=False)

    def __len__(self):
        return len(self.probs)

    def __repr__(self):
        return f"DiscretePmf({self.probs.tolist()})"


class DiscreteWiretapChannel:
    """A finite-alphabet wiretap link: two row-stochastic transition matrices.

    ``main`` is |X| x |Y| (legitimate observation), ``eaves`` is |X| x |Z|
    (eavesdropper observation); the two observations are conditionally
    independent given the input.  Two channels are equal when their matrices
    are, and hash alike then.
    """

    def __init__(self, main, eaves):
        main = _as_prob_matrix("main", main)
        eaves = _as_prob_matrix("eaves", eaves)
        if main.shape[0] != eaves.shape[0]:
            raise InvalidInputError(
                f"eaves: must share the input alphabet of main: "
                f"{eaves.shape[0]} vs {main.shape[0]} rows")
        for name, m in (("main", main), ("eaves", eaves)):
            bad = np.abs(m.sum(axis=1) - 1.0) > _NORM_TOL
            if np.any(bad):
                raise InvalidInputError(
                    f"{name}: row {int(np.argmax(bad))} does not sum to 1 within {_NORM_TOL}")
        self.main = main
        self.eaves = eaves
        self.main.setflags(write=False)
        self.eaves.setflags(write=False)
        # h(main row x) - h(eaves row x): the per-input term of the rate kernel.
        self._entropy_gap = _entropies(main) - _entropies(eaves)

    def __eq__(self, other):
        return (isinstance(other, DiscreteWiretapChannel) and np.array_equal(self.main, other.main)
                and np.array_equal(self.eaves, other.eaves))

    def __hash__(self):
        # Adding 0.0 turns -0.0 into 0.0, which it equals, so their bytes agree too.
        return hash(tuple((m.shape, (m + 0.0).tobytes()) for m in (self.main, self.eaves)))

    @property
    def num_inputs(self):
        return self.main.shape[0]


def bsc(p):
    """Binary symmetric transition matrix with crossover probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"crossover probability must be in [0, 1], got {p!r}")
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def mutual_information(joint):
    """Mutual information of a joint distribution, in bits.

    Parameters
    ----------
    joint : array-like, shape (|A|, |B|)
        Joint probabilities p(a, b); entries >= 0, total 1 within 1e-12.

    Returns
    -------
    float
        I(A;B) >= 0; zero (within rounding) iff the joint factorizes into
        its marginals.
    """
    j = _as_distribution("joint", joint)
    pa = j.sum(axis=1)
    pb = j.sum(axis=0)
    mask = j > 0
    prod = np.outer(pa, pb)
    terms = j[mask] * (np.log2(j[mask]) - np.log2(prod[mask]))
    return max(0.0, float(terms.sum()))


def _entropies(p):
    """Entropy in bits of each row of a 2-D ``p``, with 0 log 0 = 0."""
    # Zeros take the log of the smallest subnormal (-1074), times 0.
    logs = np.maximum(p, _TINY)
    np.log2(logs, out=logs)
    return -np.einsum("ij,ij->i", p, logs)


def _rates(ch, q):
    """``I(X;Y) - I(X;Z)`` in bits for each row ``q``, with ``qM`` and ``H(qM)``.

    Uses ``I(X;Y) = H(qM) - q . h_M`` with ``h_M`` the per-input row
    entropies of the transition matrix, so a batch costs two ``(rows, |Y|)``
    products and one entropy pass over each.  A point mass on input ``i``
    reproduces row ``i`` exactly, so its rate is exactly 0.

    A lone row is evaluated twice: numpy multiplies one row by a different
    BLAS routine, whose rounding differs, and a point must get the same rate
    whether it is evaluated alone or inside a batch.
    """
    if len(q) == 1:
        return tuple(t[:1] for t in _rates(ch, np.repeat(q, 2, axis=0)))
    pm = q @ ch.main
    hm = _entropies(pm)
    return hm - _entropies(q @ ch.eaves) - q @ ch._entropy_gap, pm, hm


def secrecy_rate_discrete(ch, input_pmf):
    """Secrecy rate of one discrete link at a fixed input distribution.

    ``I(X;Y) - I(X;Z)`` in bits; may be negative (callers maximize).

    Parameters
    ----------
    ch : DiscreteWiretapChannel
    input_pmf : DiscretePmf
        Length must match the channel's input alphabet.
    """
    p = input_pmf.probs
    if len(p) != ch.num_inputs:
        raise InvalidInputError(
            f"input pmf length {len(p)} does not match alphabet size {ch.num_inputs}")
    return float(_rates(ch, p[None, :])[0][0])


def _parts(x, denom):
    """Grid points as float compositions of ``denom``, one row per point.

    ``x`` has shape ``(|X| - 1, points)``: row ``k`` holds the cumulative
    coordinate ``x_{k+1}``, the sum of the first ``k + 1`` parts.  The parts
    are whole numbers, held exactly.
    """
    parts = np.empty((x.shape[1], len(x) + 1))
    prev = 0
    for k, col in enumerate(x):
        np.subtract(col, prev, out=parts[:, k])
        prev = col
    np.subtract(denom, prev, out=parts[:, -1])
    return parts


def _ascending(x):
    """Where the coordinates along the first axis of ``x`` are non-decreasing."""
    return (x[1:] >= x[:-1]).all(axis=0)


def _kept(x, ok):
    """``x[:, ok]`` for a ``(d, boxes, choices)`` array, by flat index: faster than a mask."""
    return np.take(x.reshape(len(x), ok.size), np.flatnonzero(ok), axis=1)


def _choices(lo, hi):
    """Each box's ``2**d`` ways to take the low or high end of every interval.

    Returns ``high`` of shape ``(d, 1, 2**d)``, true where a choice takes
    the high end, and the mask of choices to keep per box: the high end of
    an interval with one value would repeat the low end.
    """
    d = len(lo)
    high = np.indices((2,) * d).reshape(d, 1, 2 ** d) == 1
    return high, (~high | (lo < hi)[:, :, None]).all(axis=0)


def _upper_bounds(ch, lo, hi, denom):
    """Certified upper bounds on the rate over each box, and the best corner rate.

    A box's ordered corners are the grid points that take each coordinate's
    ``lo`` or ``hi`` and stay non-decreasing; they span the box's part of
    the simplex.  With ``q0`` their mean and ``T`` the tangent plane of the
    concave ``H(qM)`` at ``q0``, the rate ``H(qM) - H(qE) - q.gap`` is at
    most ``T(q) - H(qE) - q.gap``, which is convex and so at most its
    largest value at a corner: ``U = max_v R(v) + T(v) - H(vM)``.
    ``T(v) - H(vM)`` is the divergence of ``vM`` from ``q0 M``, second order
    in the box width.

    ``U`` is raised by a rounding margin: a sum of ``k`` terms is off by
    at most about ``k`` ulps of the sum of their magnitudes, and the terms
    here are bounded by the largest tangent value, ``log2 |Z|`` and the
    largest ``|gap|``.  A box whose ``q0 M`` is zero at an output some
    row of ``M`` can produce has an unbounded tangent slope and gets
    ``U = inf``.
    """
    high, ok = _choices(lo, hi)
    x = np.where(high, hi[:, :, None], lo[:, :, None])
    ok &= _ascending(x)
    owner = np.nonzero(ok)[0]
    rate, pm, hm = _rates(ch, _parts(_kept(x, ok), denom) / denom)
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    p0 = np.add.reduceat(pm, starts) / np.diff(starts, append=len(owner))[:, None]
    tangent = -np.einsum("ij,ij->i", pm, np.log2(np.maximum(p0, _TINY))[owner])
    upper = np.maximum.reduceat(rate + (tangent - hm), starts)
    nx, ny, nz = ch.num_inputs, ch.main.shape[1], ch.eaves.shape[1]
    size = (np.maximum.reduceat(tangent, starts) + np.log2(nz)
            + np.abs(ch._entropy_gap).max())
    upper += 16 * (nx + ny + nz) * np.finfo(float).eps * size
    upper[((p0 == 0) & ch.main.any(axis=0)).any(axis=1)] = np.inf
    return upper, rate.max()


def _split(lo, hi):
    """The children of boxes: every interval halved at the same cut points.

    Interval ``[lo, hi]`` becomes ``[lo, m]`` and ``[m + 1, hi]`` with
    ``m = (lo + hi) // 2``, or stays whole when it holds one value.  Every
    coordinate's interval comes from one shared set of cut points, so two
    coordinates' intervals are identical or disjoint; children whose
    intervals are out of order hold no grid point and are dropped.
    """
    high, ok = _choices(lo, hi)
    mid = (lo + hi)[:, :, None] // 2
    clo = np.where(high, mid + 1, lo[:, :, None])
    ok &= _ascending(clo)
    return _kept(clo, ok), _kept(np.where(high, hi[:, :, None], mid), ok)


def _leaf_points(lo, hi, width, denom):
    """Every grid point of the boxes, as parts: non-decreasing ``lo <= x <= hi``.

    Each coordinate's interval owns the values ``lo..hi`` and the
    intervals of one level partition ``0..denom``, so every grid point lies
    in exactly one box of a level.  No interval is wider than ``width``.
    """
    d = len(lo)
    x = lo[:, :, None] + np.indices((width,) * d, dtype=lo.dtype).reshape(d, 1, width ** d)
    ok = (x <= hi[:, :, None]).all(axis=0) & _ascending(x)
    return _parts(_kept(x, ok), denom)


def _merge_ties(ties, rates, parts, best, denom):
    """Grid points within the tie tolerance of ``best`` that can still be the answer.

    A point is dropped once a lexicographically smaller point has a rate
    at least as high: whenever it is within the tolerance, so is that one.
    The rest come out in lexicographic order with strictly rising rates.
    """
    weights = (denom + 1.0) ** np.arange(parts.shape[1])[::-1]
    rank = parts @ weights  # lexicographic; exact, below 2**53
    # Past the batch's first point with its top rate, every point is dropped.
    keep = (rates >= best - _TIE_TOL) & (rank <= rank[rates == rates.max()].min())
    rates = np.concatenate((ties[0], rates[keep]))
    parts = np.concatenate((ties[1], parts[keep]))
    keep = rates >= best - _TIE_TOL
    rates, parts = rates[keep], parts[keep]
    order = np.argsort(parts @ weights)
    rates, parts = rates[order], parts[order]
    above = rates > np.maximum.accumulate(np.concatenate(([-np.inf], rates[:-1])))
    return rates[above], parts[above]


def max_secrecy_rate_grid(ch, grid_step):
    """Search the input simplex grid for the best secrecy rate.

    The grid holds every input distribution whose entries are multiples of
    ``1 / round(1 / grid_step)``: a step of 0.003 searches multiples of
    1/333.  Returns the best rate over the grid together with its
    maximizer.  Grid points within 1e-12 of the best rate count as tied
    (rounding noise separates points that tie exactly, e.g. permutations
    on a symmetric channel), and ties resolve to the lexicographically
    smallest distribution.  The result is never negative: every point mass
    is a grid point and evaluates to exactly 0, so a channel without
    secrecy capacity gives rate 0.0 at ``(0, ..., 0, 1)``.

    The answer is that of evaluating every grid point; a certified
    branch-and-bound (see the module docstring) skips the boxes of grid
    points that cannot come within the tie tolerance of the best.

    Parameters
    ----------
    ch : DiscreteWiretapChannel
        Input alphabet of size at most 4.
    grid_step : float
        Simplex resolution, between 1e-3 and 0.1.

    Returns
    -------
    (float, DiscretePmf)
    """
    nx = ch.num_inputs
    if nx > 4:
        raise UnsupportedSizeError(
            f"grid search supports input alphabets up to 4, got {nx}")
    _check_grid_step("grid_step", grid_step)
    denom = int(round(1.0 / grid_step))

    d = nx - 1
    best = -np.inf
    ties = (np.empty(0), np.empty((0, nx)))
    # Boxes are (d, boxes) arrays of interval ends, int16 (the denominator
    # is at most 1000) to keep the arrays small.  Open boxes go in batches,
    # depth first; the batch of highest bounds is split first, so the best
    # rate rises early.
    stack = [(np.zeros((d, 1), dtype=np.int16), np.full((d, 1), denom, dtype=np.int16))]
    while stack:
        lo, hi = stack.pop()
        upper, top = _upper_bounds(ch, lo, hi, denom)
        best = max(best, top)
        live = np.flatnonzero(upper >= best - _TIE_TOL)
        if not len(live):
            continue
        live = live[np.argsort(upper[live], kind="stable")]
        lo, hi = lo[:, live], hi[:, live]
        width = int((hi - lo).max(initial=0)) + 1
        if width > _LEAF_WIDTH:
            lo, hi = _split(lo, hi)
            # Bounding holds about twice the arrays per corner that a leaf
            # holds per point, and a box has up to 2**d corners.
            step = max(1, _BATCH >> (d + 1))
            stack += [(lo[:, i:i + step], hi[:, i:i + step]) for i in range(0, lo.shape[1], step)]
            continue
        # Slices of leaves that start within one window of _BATCH grid points.
        size = np.prod(hi - lo + 1, axis=0, dtype=int)  # no fewer than the box's grid points
        window = (np.cumsum(size) - size) // _BATCH
        cuts = [0, *(np.flatnonzero(np.diff(window)) + 1), len(size)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            parts = _leaf_points(lo[:, a:b], hi[:, a:b], width, denom)
            rates = _rates(ch, parts / denom)[0]
            best = max(best, rates.max())
            ties = _merge_ties(ties, rates, parts, best, denom)
    rates, parts = ties
    first = np.argmax(rates >= best - _TIE_TOL)
    return float(best), DiscretePmf(parts[first] / denom)


def parallel_sum_rate(chs, inputs):
    """Sum of per-link secrecy rates over a bank of independent links."""
    if len(chs) != len(inputs):
        raise InvalidInputError(
            f"length mismatch: {len(chs)} channels vs {len(inputs)} inputs")
    return sum(secrecy_rate_discrete(ch, pmf) for ch, pmf in zip(chs, inputs))


def aggregated_eavesdropper_rate(ch1, ch2, joint_input, which):
    """Secrecy rate of one link when eavesdroppers pool their observations.

    Two links carry possibly correlated inputs (X1, X2) ~ ``joint_input``;
    each link's outputs are conditionally independent given its own input.
    For the selected link the rate is ``I(X;Y) - I(X; Z1, Z2)``: the
    eavesdropper term aggregates both observed signals, so correlation
    between the inputs can only lower the rate relative to the single-link
    value at the same marginal (with equality for independent inputs).

    Parameters
    ----------
    ch1, ch2 : DiscreteWiretapChannel
        Alphabets of size at most 3.
    joint_input : array-like, shape (|X1|, |X2|)
        Joint input distribution.
    which : int
        0 to evaluate link 1, 1 to evaluate link 2.
    """
    if which not in (0, 1):
        raise InvalidInputError(f"which must be 0 or 1, got {which!r}")
    joint = _as_distribution("joint_input", joint_input)
    if joint.shape != (ch1.num_inputs, ch2.num_inputs):
        raise InvalidInputError(
            f"joint_input shape {joint.shape} does not match alphabets "
            f"({ch1.num_inputs}, {ch2.num_inputs})")
    for name, size in (("X1", ch1.num_inputs), ("X2", ch2.num_inputs),
                       ("Y1", ch1.main.shape[1]), ("Y2", ch2.main.shape[1]),
                       ("Z1", ch1.eaves.shape[1]), ("Z2", ch2.eaves.shape[1])):
        if size > 3:
            raise UnsupportedSizeError(f"alphabet {name} exceeds size 3: {size}")

    own = ch1 if which == 0 else ch2
    marginal = joint.sum(axis=1) if which == 0 else joint.sum(axis=0)
    i_main = mutual_information(marginal[:, None] * own.main)

    # p(x1, x2, z1, z2) = p(x1, x2) p(z1|x1) p(z2|x2)
    full = np.einsum("ab,ac,bd->abcd", joint, ch1.eaves, ch2.eaves)
    agg = full.sum(axis=1) if which == 0 else full.sum(axis=0)  # (x_own, z1, z2)
    agg = agg.reshape(agg.shape[0], -1)
    i_eaves = mutual_information(agg)
    return float(i_main - i_eaves)
