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
"""

import numpy as np

from .errors import InvalidInputError, UnsupportedSizeError, _check_grid_step

_NORM_TOL = 1e-12
_TIE_TOL = 1e-12
#: Grid points per rate-kernel call.  At 2**12 rows each ``(rows, 4)`` working
#: array is 128 KB, so a chunk's arrays stay inside a 2 MB L2 together.  On a
#: 2-vCPU Xeon with 2 MB L2, a 4-input search at step 0.01 took 22-28 ms with
#: 2**12 rows and 31-36 ms with 2**15, with one OpenBLAS thread or two; at
#: step 0.002 every size from 2**12 to 2**15 took about 2.4 s.
_GRID_CHUNK = 1 << 12
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
    independent given the input.
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
    """``I(X;Y) - I(X;Z)`` in bits for each row ``q`` of input distributions.

    Uses ``I(X;Y) = H(qM) - q . h_M`` with ``h_M`` the per-input row
    entropies of the transition matrix, so a batch costs two ``(rows, |Y|)``
    products and one entropy pass over each.  A point mass on input ``i``
    reproduces row ``i`` exactly, so its rate is exactly 0.
    """
    return _entropies(q @ ch.main) - _entropies(q @ ch.eaves) - q @ ch._entropy_gap


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
    return float(_rates(ch, p[None, :])[0])


def _compositions(total, parts):
    """All compositions of ``total`` into ``parts`` parts, as an iterable of chunks.

    Rows are produced in ascending lexicographic order of the composition
    tuple, so the first maximizer encountered is the lexicographically
    smallest one.  Starting from ``[[total]]``, each of ``parts - 1`` steps
    splits every row's last part ``r`` into ``(j, r - j)`` for ``j = 0..r``.
    """
    chunks = [np.array([[total]])]
    for _ in range(parts - 1):
        chunks = (piece for rows in chunks for piece in _split_last(rows))
    return chunks


def _split_last(rows):
    """Split each row's last part ``r`` into ``(j, r - j)``, ``j = 0..r``, in chunks.

    The input is cut after the row where the running output row count
    reaches a multiple of :data:`_GRID_CHUNK`, so a chunk holds about that
    many rows, more only where one row alone splits into more.
    """
    counts = rows[:, -1] + 1
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_GRID_CHUNK, ends[-1], _GRID_CHUNK)) + 1
    bounds = sorted({0, *cuts.tolist(), len(rows)})  # a set: no empty pieces
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n = counts[lo:hi]
        split = np.repeat(rows[lo:hi], n, axis=0)
        j = np.arange(len(split)) - np.repeat(np.cumsum(n) - n, n)
        split[:, -1] -= j
        yield np.insert(split, -1, j, axis=1)


def max_secrecy_rate_grid(ch, grid_step):
    """Grid-search the input simplex for the best secrecy rate.

    Enumerates every input distribution whose entries are multiples of
    ``grid_step`` and returns the best rate together with its maximizer.
    Grid points within 1e-12 of the best rate count as tied (rounding noise
    separates points that tie exactly, e.g. permutations on a symmetric
    channel), and ties resolve to the lexicographically smallest
    distribution.  The result is never negative: every point mass is a grid
    point and evaluates to exactly 0, so a channel without secrecy capacity
    gives rate 0.0 at ``(0, ..., 0, 1)``.

    Parameters
    ----------
    ch : DiscreteWiretapChannel
        Input alphabet of size at most 4 (the enumeration is combinatorial).
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

    best = -np.inf
    # Points above every earlier point and within the tie tolerance of the
    # running best, in grid order: the first point within the tolerance of
    # the final best is always one of them.
    near = []
    for block in _compositions(denom, nx):
        q = block / denom
        rates = _rates(ch, q)
        top = rates.max()
        if top <= best:
            continue
        # Only points within the tolerance of the new best can be kept, and
        # every other point of the chunk lies below all of them.
        close = np.flatnonzero(rates >= top - _TIE_TOL)
        vals = rates[close]
        above = vals > np.maximum.accumulate(np.concatenate(([best], vals[:-1])))
        best = top
        near = [c for c in near if c[0] >= best - _TIE_TOL]
        near += [(rates[i], q[i]) for i in close[above]]
    return float(best), DiscretePmf(near[0][1])


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
