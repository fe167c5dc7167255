"""Reference answers for the benchmark's report checks.

Each function derives from the generated scenario what a correct report
must contain.  The code shares nothing with ``secrecylab``: it re-derives
the closed forms, runs its own vectorised bisections, its own greedy pairing
(sorted order plus a next-unused-index table) and its own grid search
(entropy form ``H(qM) - H(qE) - q.(h_M - h_E)``).  The only thing it takes
from the program is the documented seeding contract: channel ``pos`` draws
its Monte Carlo stream from ``SeedSequence(seed, spawn_key=(pos, stage))``,
stage 0 for calibration and stage 1 for the ergodic estimate, with main
gains drawn before eavesdropper gains.
"""

import bisect
import math

import numpy as np

_BISECT_STEPS = 200


def _bisect_decreasing(f, target, lo, hi):
    """Root of a continuous decreasing ``f`` with ``f(lo) >= target >= f(hi)``."""
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) >= target:
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda v: abs(f(v) - target))


# --- fading links ------------------------------------------------------------

def fading_draws(seed, pos, stage, a, b, samples):
    """The (main, eavesdropper) gain draws of one channel's Monte Carlo stream."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(pos, stage)))
    return rng.exponential(a, samples), rng.exponential(b, samples)


def fading_powers(lam, a, b):
    """Per-slot power at threshold ``lam``: the root of
    ``(P + 1/a)(P + 1/b) = (1/b - 1/a) / (2 lam)`` on slots with ``a - b > 2 lam``."""
    p = np.zeros_like(a)
    on = a - b > 2.0 * lam
    aa, bb = a[on], b[on]
    inv_a = 1.0 / aa
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_b = 1.0 / bb
        gap = inv_b - inv_a
        root = 0.5 * (np.sqrt(gap * gap + 2.0 * gap / lam) - inv_a - inv_b)
    p[on] = np.where(bb > 0, root, 0.5 / lam - inv_a)
    return np.maximum(p, 0.0)


def fading_rates(p, a, b):
    return np.maximum(0.0, 0.5 * (np.log2(1.0 + p * a) - np.log2(1.0 + p * b)))


def calibrate(a, b, budget):
    """Threshold at which the sample-mean power equals ``budget``; inf if unreachable."""
    keep = a > b
    if not keep.any():
        return math.inf
    a, b, n = a[keep], b[keep], len(a)

    def mean_power(lam):
        return fading_powers(lam, a, b).sum() / n

    hi = float((a - b).max())           # no slot is active at or above hi / 2
    lo = hi
    while mean_power(lo) < budget:
        lo *= 0.5
    return _bisect_decreasing(mean_power, budget, lo, hi)


def fading(command, channels, seed, samples, budget):
    """Expected ``allocate-fading`` / ``ergodic`` outputs, one dict per channel."""
    rows = []
    for pos, ch in enumerate(channels):
        a0, b0 = fading_draws(seed, pos, 0, ch["a"], ch["b"], samples)
        if command == "allocate-fading":
            rows.append({"zero_secrecy": not (a0 > b0).any(), "draws": (pos, 0)})
            continue
        lam = calibrate(a0, b0, budget)
        a1, b1 = fading_draws(seed, pos, 1, ch["a"], ch["b"], samples)
        p = fading_powers(lam, a1, b1)
        rates = fading_rates(p, a1, b1)
        rows.append({"zero_secrecy": math.isinf(lam), "lambda": lam,
                     "power": float(p.mean()), "rate_bits": float(rates.mean()),
                     "stderr": float(rates.std(ddof=1) / math.sqrt(samples)),
                     "draws": (pos, 1)})
    return {"channels": channels, "seed": seed, "samples": samples, "budget": budget,
            "rows": rows}


# --- finite-alphabet grid ----------------------------------------------------

def _entropy_rows(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.where(p > 0, p * np.log2(p), 0.0).sum(axis=-1)


def _compositions(total, parts):
    """All compositions of ``total`` into ``parts`` parts, lexicographically ascending."""
    if parts == 1:
        return np.array([[total]])
    if parts == 2:
        head = np.arange(total + 1)
        return np.column_stack([head, total - head])
    blocks = []
    for k0 in range(total + 1):
        rest = _compositions(total - k0, parts - 1)
        blocks.append(np.column_stack([np.full(len(rest), k0), rest]))
    return np.concatenate(blocks)


def grid_rates(main, eaves, comps, denom):
    """Secrecy rate at every grid point ``comps / denom``."""
    q = comps / denom
    h_gap = _entropy_rows(main) - _entropy_rows(eaves)
    return _entropy_rows(q @ main) - _entropy_rows(q @ eaves) - q @ h_gap


#: Grid points whose rates differ by less than this count as tied.
TIE_TOL = 1e-12


def discrete(mats, step):
    """Expected ``discrete-capacity`` outputs: the maximum rate and its first maximiser."""
    denom = int(round(1.0 / step))
    comps = _compositions(denom, len(mats[0][0]))
    rows = []
    for main, eaves in mats:
        rates = grid_rates(np.asarray(main), np.asarray(eaves), comps, denom)
        best = float(rates.max())
        first = int(np.argmax(rates >= best - TIE_TOL))
        rows.append({"rate_bits": best, "argmax": comps[first].tolist()})
    return {"denom": denom, "rows": rows}


# --- gaussian and agent banks ------------------------------------------------

def gaussian_rate(power, sm, sw):
    if power == 0:
        return 0.0
    return max(0.0, 0.5 * math.log2((1.0 + power / sm) / (1.0 + power / sw)))


def waterfill(sm, sw, budget):
    """Powers and threshold that split ``budget`` across the AWGN bank."""
    gap = sw - sm
    total = sw + sm
    edge = 0.5 * (1.0 / sm - 1.0 / sw)     # a link is active while lam < edge
    usable = gap > 0
    if not usable.any():
        return np.zeros_like(sm), 0.0

    def powers(lam):
        on = usable & (edge > lam)
        p = np.zeros_like(sm)
        p[on] = 0.5 * (np.sqrt(gap[on] ** 2 + 2.0 * gap[on] / lam) - total[on])
        return np.maximum(p, 0.0)

    hi = float(edge[usable].max())
    lo = hi
    while powers(lo).sum() < budget:
        lo *= 0.5
    lam = _bisect_decreasing(lambda v: powers(v).sum(), budget, lo, hi)
    return powers(lam), lam


def _greedy_pairs(ids, main, eaves):
    """Greedy helper pairing over agents sorted by (main_snr, id)."""
    k = len(ids)
    following = list(range(k + 1))   # following[j]: first index >= j not yet a helper

    def first_free(j):
        root = j
        while following[root] != root:
            root = following[root]
        while following[j] != root:
            following[j], j = root, following[j]
        return root

    used = [False] * k
    pairs = []
    for i in range(k):
        if used[i] or not eaves[i] > main[i]:
            continue
        # Helpers need main_snr > eaves_snr_i > main_snr_i, so they sort after i.
        j = first_free(bisect.bisect_right(main, eaves[i]))
        if j < k:
            used[i] = used[j] = True
            following[j] = j + 1
            pairs.append((ids[i], ids[j]))
    return pairs


def _sorted_disqualified(channels):
    dis = sorted((ch["main_snr"], pos + 1, ch["eaves_snr"])
                 for pos, ch in enumerate(channels)
                 if not ch["main_snr"] > ch["eaves_snr"])
    return [d[1] for d in dis], [d[0] for d in dis], [d[2] for d in dis]


def bank(command, channels, budget):
    """Expected outputs of ``rate``, ``allocate``, ``pair`` and ``pick-prob``."""
    if command in ("rate", "allocate"):
        sm = np.array([ch["sigma_m_sq"] for ch in channels])
        sw = np.array([ch["sigma_w_sq"] for ch in channels])
        if command == "rate":
            return {"sm": sm, "sw": sw, "budget": budget,
                    "powers": np.full(len(sm), budget)}
        powers, lam = waterfill(sm, sw, budget)
        return {"sm": sm, "sw": sw, "budget": budget, "powers": powers, "lambda": lam}

    ids, main, eaves = _sorted_disqualified(channels)
    if command == "pair":
        pairs = _greedy_pairs(ids, main, eaves)
        helped = {h for h, _ in pairs}
        helpers = {j for _, j in pairs}
        roles = {}
        for pos, ch in enumerate(channels):
            cid = pos + 1
            roles[cid] = ("qualified" if ch["main_snr"] > ch["eaves_snr"] else
                          "helped" if cid in helped else
                          "helper" if cid in helpers else "unpaired")
        return {"channels": channels, "pairs": pairs, "roles": roles}

    # pick-prob: feasible members of agent i are the sorted suffix whose
    # main_snr exceeds eaves_snr_i (which excludes i itself).
    starts = [bisect.bisect_right(main, e) for e in eaves]
    sizes = [len(ids) - s for s in starts]
    contested = next((i for i, s in enumerate(sizes) if s == 1), None)
    prob = None
    prefix = None
    if contested is not None:
        prefix = [s for s in sizes[:contested] if s >= 1]
        miss = 1.0
        for s in prefix:
            miss *= (s - 1) / s
        prob = 1.0 - miss if prefix else 0.0
    return {"channels": channels, "ids": ids, "starts": starts, "contested": contested,
            "prefix_sizes": prefix, "pick_probability": prob}
