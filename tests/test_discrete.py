"""Finite-alphabet secrecy rates against closed forms and brute force."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecylab import discrete
from secrecylab import (
    DiscretePmf,
    DiscreteWiretapChannel,
    InvalidInputError,
    UnsupportedSizeError,
    aggregated_eavesdropper_rate,
    bsc,
    max_secrecy_rate_grid,
    mutual_information,
    parallel_sum_rate,
    secrecy_rate_discrete,
)


def h2(p):
    """Binary entropy in bits (test-local oracle)."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def random_joint(rng, shape):
    j = rng.random(shape)
    return j / j.sum()


def random_stochastic(rng, rows, cols, sharpness=1):
    m = rng.random((rows, cols)) ** sharpness
    return m / m.sum(axis=1, keepdims=True)


def circulant_channel(rng, n):
    """Main and eaves matrices invariant under cyclic shifts of the input."""
    def circ(row):
        return np.array([np.roll(row / row.sum(), k) for k in range(n)])
    return DiscreteWiretapChannel(circ(rng.random(n) ** 4), circ(rng.random(n)))


def near_tie_channel(rng, n):
    """A circulant channel with one main row moved by 1e-13 to 1e-12.

    Its maximizers, equal under cyclic shifts before the move, now differ
    by less than the tie tolerance but by more than rounding.
    """
    ch = circulant_channel(rng, n)
    main = ch.main.copy()
    k = rng.integers(n)
    main[k] = np.roll(main[k], 1) * 10 ** rng.uniform(-13, -12) + main[k]
    return DiscreteWiretapChannel(main=main / main.sum(axis=1, keepdims=True), eaves=ch.eaves)


def rate_via_mutual_information(ch, p):
    p = np.asarray(p, dtype=float)
    return (mutual_information(p[:, None] * ch.main)
            - mutual_information(p[:, None] * ch.eaves))


def grid_bruteforce(ch, denom):
    """Every grid point in lexicographic order, with its rate by mutual_information."""
    points = [c for c in itertools.product(range(denom + 1), repeat=ch.num_inputs)
              if sum(c) == denom]
    rates = [rate_via_mutual_information(ch, np.array(c) / denom) for c in points]
    return points, rates


def compositions(total, parts, chunk=1 << 12):
    """All compositions of ``total`` into ``parts`` parts, as an iterable of chunks.

    Rows come in ascending lexicographic order.  Starting from ``[[total]]``,
    each of ``parts - 1`` steps splits every row's last part ``r`` into
    ``(j, r - j)`` for ``j = 0..r``, in chunks of about ``chunk`` rows (more
    only where one row alone splits into more).
    """
    chunks = [np.array([[total]])]
    for _ in range(parts - 1):
        chunks = (piece for rows in chunks for piece in split_last(rows, chunk))
    return chunks


def split_last(rows, chunk):
    counts = rows[:, -1] + 1
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(chunk, ends[-1], chunk)) + 1
    bounds = sorted({0, *cuts.tolist(), len(rows)})  # a set: no empty pieces
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n = counts[lo:hi]
        split = np.repeat(rows[lo:hi], n, axis=0)
        j = np.arange(len(split)) - np.repeat(np.cumsum(n) - n, n)
        split[:, -1] -= j
        yield np.insert(split, -1, j, axis=1)


def exhaustive_grid_search(ch, denom):
    """Rate and grid units of the best grid point, by evaluating every point.

    The oracle for the branch-and-bound: the same rate kernel over the whole
    grid in lexicographic order, and the first point within the tie
    tolerance of the best rate.
    """
    comps = np.concatenate(list(compositions(denom, ch.num_inputs)))
    q = comps / denom
    rates = discrete._rates(ch, q)[0]
    best = rates.max()
    return float(best), tuple(comps[np.argmax(rates >= best - discrete._TIE_TOL)].tolist())


@st.composite
def grid_cases(draw):
    """A channel of 1-4 inputs and 1-5 outputs per link, and a denominator 10-60.

    Kinds: random links with exact zeros, circulant ties, near-ties,
    degraded
    links without secrecy capacity (``M = E W``), identical links, and an
    identity main matrix.
    """
    nx, ny, nz = (draw(st.integers(1, top)) for top in (4, 5, 5))
    kind = draw(st.sampled_from(
        ["random", "circulant", "near-tie", "degraded", "identical", "eye"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def stochastic(rows, cols):
        m = rng.random((rows, cols)) ** 4 * (rng.random((rows, cols)) < 0.7)
        m[np.arange(rows), rng.integers(0, cols, rows)] += 0.1
        return m / m.sum(axis=1, keepdims=True)

    eaves = stochastic(nx, nz)
    if kind == "circulant":
        ch = circulant_channel(rng, nx)
    elif kind == "near-tie":
        ch = near_tie_channel(rng, nx)
    elif kind == "degraded":
        ch = DiscreteWiretapChannel(main=eaves @ stochastic(nz, ny), eaves=eaves)
    else:
        main = {"random": stochastic(nx, ny), "identical": eaves.copy(), "eye": np.eye(nx)}[kind]
        ch = DiscreteWiretapChannel(main=main, eaves=eaves)
    return ch, draw(st.integers(10, 60))


def grid_units(pmf, denom):
    return tuple(int(k) for k in np.rint(pmf.probs * denom))


def aggregated_joint_bruteforce(joint_input, eaves1, eaves2, which):
    """p(x_own, z1, z2) by explicit summation over the other input."""
    nx1, nx2 = joint_input.shape
    nz1, nz2 = eaves1.shape[1], eaves2.shape[1]
    n_own = nx1 if which == 0 else nx2
    out = np.zeros((n_own, nz1, nz2))
    for x1 in range(nx1):
        for x2 in range(nx2):
            for z1 in range(nz1):
                for z2 in range(nz2):
                    mass = joint_input[x1, x2] * eaves1[x1, z1] * eaves2[x2, z2]
                    out[x1 if which == 0 else x2, z1, z2] += mass
    return out


class TestTypes:
    def test_pmf_must_normalize(self):
        with pytest.raises(InvalidInputError):
            DiscretePmf([0.5, 0.4])
        with pytest.raises(InvalidInputError):
            DiscretePmf([0.5, -0.5, 1.0])
        DiscretePmf([0.25, 0.75])

    def test_channel_rows_must_be_stochastic(self):
        with pytest.raises(InvalidInputError):
            DiscreteWiretapChannel(main=[[0.9, 0.2], [0.1, 0.9]],
                                   eaves=bsc(0.3))
        with pytest.raises(InvalidInputError):
            DiscreteWiretapChannel(main=bsc(0.1),
                                   eaves=[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])


class TestMutualInformation:
    def test_independent_uniform_binary(self):
        joint = np.full((2, 2), 0.25)
        assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated_binary(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(joint) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_with_uniform_input(self):
        joint = 0.5 * bsc(0.1)
        assert mutual_information(joint) == pytest.approx(1 - h2(0.1), abs=1e-12)

    def test_rejects_unnormalized_joint(self):
        with pytest.raises(InvalidInputError):
            mutual_information(np.full((2, 2), 0.3))

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidInputError):
            mutual_information(np.array([[0.6, -0.1], [0.3, 0.2]]))

    def test_nonnegative_and_zero_for_products(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            pa = rng.random(rng.integers(2, 4))
            pa /= pa.sum()
            pb = rng.random(rng.integers(2, 4))
            pb /= pb.sum()
            assert mutual_information(np.outer(pa, pb)) <= 1e-10
            assert mutual_information(random_joint(rng, (3, 3))) >= 0.0

    def test_aggregation_can_only_help_the_observer(self):
        """I(X1; Z1, Z2) >= I(X1; Z1): more taps never hurt the listener."""
        rng = np.random.default_rng(15)
        e1, e2 = bsc(0.25), bsc(0.4)
        for _ in range(300):
            joint_input = random_joint(rng, (2, 2))
            agg = aggregated_joint_bruteforce(joint_input, e1, e2, which=0)
            i_both = mutual_information(agg.reshape(2, -1))
            i_one = mutual_information(agg.sum(axis=2))
            assert i_both >= i_one - 1e-10


class TestSecrecyRateDiscrete:
    def test_identical_channels_rate_zero(self):
        ch = DiscreteWiretapChannel(main=bsc(0.2), eaves=bsc(0.2))
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.random(2)
            pmf = DiscretePmf(p / p.sum())
            assert secrecy_rate_discrete(ch, pmf) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_sends_nothing(self):
        ch = DiscreteWiretapChannel(main=bsc(0.1), eaves=bsc(0.3))
        assert secrecy_rate_discrete(ch, DiscretePmf([1.0, 0.0])) == pytest.approx(
            0.0, abs=1e-12)

    def test_degraded_bsc_closed_form(self):
        ch = DiscreteWiretapChannel(main=bsc(0.1), eaves=bsc(0.3))
        rate = secrecy_rate_discrete(ch, DiscretePmf([0.5, 0.5]))
        assert rate == pytest.approx(h2(0.3) - h2(0.1), abs=1e-12)
        assert rate == pytest.approx(0.4123, abs=1e-4)

    def test_reversed_degradation_goes_negative(self):
        ch = DiscreteWiretapChannel(main=bsc(0.3), eaves=bsc(0.1))
        assert secrecy_rate_discrete(ch, DiscretePmf([0.5, 0.5])) < 0.0

    def test_dimension_mismatch(self):
        ch = DiscreteWiretapChannel(main=bsc(0.1), eaves=bsc(0.3))
        with pytest.raises(InvalidInputError):
            secrecy_rate_discrete(ch, DiscretePmf([0.2, 0.3, 0.5]))

    def test_matches_mutual_information_path(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            nx = int(rng.integers(2, 5))
            ch = DiscreteWiretapChannel(
                main=random_stochastic(rng, nx, int(rng.integers(2, 6))),
                eaves=random_stochastic(rng, nx, int(rng.integers(2, 6))))
            p = rng.random(nx) * (rng.random(nx) < 0.8)  # some zero entries
            p[0] += 0.1
            p /= p.sum()
            got = secrecy_rate_discrete(ch, DiscretePmf(p))
            assert got == pytest.approx(rate_via_mutual_information(ch, p), abs=1e-12)


class TestGridSearch:
    def test_identical_channels_max_is_zero(self):
        ch = DiscreteWiretapChannel(main=bsc(0.15), eaves=bsc(0.15))
        rate, argmax = max_secrecy_rate_grid(ch, grid_step=0.01)
        assert rate == 0.0
        assert argmax.probs.tolist() == [0.0, 1.0]

    def test_degraded_bsc_attains_closed_form_at_uniform(self):
        ch = DiscreteWiretapChannel(main=bsc(0.1), eaves=bsc(0.3))
        rate, argmax = max_secrecy_rate_grid(ch, grid_step=1e-3)
        assert rate == pytest.approx(h2(0.3) - h2(0.1), abs=1e-3)
        np.testing.assert_allclose(argmax.probs, [0.5, 0.5], atol=1e-9)

    def test_eavesdropper_advantage_floors_at_zero(self):
        ch = DiscreteWiretapChannel(main=bsc(0.3), eaves=bsc(0.1))
        rate, argmax = max_secrecy_rate_grid(ch, grid_step=1e-3)
        assert rate == 0.0
        # zero is hit at the point masses; lexicographically smallest wins
        np.testing.assert_allclose(argmax.probs, [0.0, 1.0], atol=0.0)

    def test_grid_dominates_off_grid_pmfs_with_lipschitz_slack(self):
        rng = np.random.default_rng(29)
        step = 0.05
        ch = DiscreteWiretapChannel(main=bsc(0.05), eaves=bsc(0.35))
        best, _ = max_secrecy_rate_grid(ch, grid_step=step)
        for _ in range(100):
            t = rng.random()
            rate = secrecy_rate_discrete(ch, DiscretePmf([t, 1 - t]))
            assert best >= rate - 4 * step

    def test_closed_form_for_random_degraded_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = rng.uniform(0.01, 0.45)
            q = rng.uniform(p + 0.02, 0.5)
            ch = DiscreteWiretapChannel(main=bsc(p), eaves=bsc(q))
            rate, _ = max_secrecy_rate_grid(ch, grid_step=5e-3)
            assert rate == pytest.approx(h2(q) - h2(p), abs=1e-3)

    def test_three_symbol_alphabet_runs(self):
        main = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        eaves = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        ch = DiscreteWiretapChannel(main=main, eaves=eaves)
        rate, argmax = max_secrecy_rate_grid(ch, grid_step=0.05)
        assert rate > 0.0
        assert abs(argmax.probs.sum() - 1.0) < 1e-12
        # grid value is a certified lower bound on the true maximum
        assert rate <= math.log2(3)

    @pytest.mark.parametrize("batch", [None, 7])
    @pytest.mark.parametrize("kind", ["random", "circulant"])
    @pytest.mark.parametrize("nx", [3, 4])
    def test_matches_first_near_maximum_of_bruteforce(self, nx, kind, batch, monkeypatch):
        """Rate and argmax agree with a loop over mutual_information.

        Circulant channels tie exactly under cyclic shifts of the input, so
        only rounding noise separates their maximizers; leaves two values
        wide in batches of 7 points spread such near-ties over many boxes
        and batches.
        """
        if batch is not None:
            monkeypatch.setattr(discrete, "_BATCH", batch)
            monkeypatch.setattr(discrete, "_LEAF_WIDTH", 2)
        rng = np.random.default_rng(61 + nx)
        for _ in range(5):
            if kind == "random":
                ch = DiscreteWiretapChannel(main=random_stochastic(rng, nx, nx, sharpness=4),
                                            eaves=random_stochastic(rng, nx, nx))
            else:
                ch = circulant_channel(rng, nx)
            points, rates = grid_bruteforce(ch, 20)
            best = max(rates)
            first = next(c for c, r in zip(points, rates) if r >= best - 1e-12)
            rate, argmax = max_secrecy_rate_grid(ch, grid_step=0.05)
            assert rate == pytest.approx(best, abs=1e-12)
            assert grid_units(argmax, 20) == first

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_compositions_match_itertools(self, parts, chunk):
        """The oracle's enumerator: every composition once, in lexicographic
        order, in non-empty chunks of at most the chunk size plus one row's
        split."""
        chunk = chunk or 1 << 12
        total = 12
        expected = [c for c in itertools.product(range(total + 1), repeat=parts)
                    if sum(c) == total]
        chunks = list(compositions(total, parts, chunk))
        assert all(0 < len(c) <= chunk + total for c in chunks)
        assert [tuple(row) for c in chunks for row in c.tolist()] == expected

    @pytest.mark.parametrize("small", [False, True])
    @pytest.mark.parametrize("denom", [10, 12, 37])
    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_leaves_cover_every_grid_point_once(self, parts, denom, small, monkeypatch):
        """With pruning off, the leaves hold every grid point exactly once."""
        if small:
            monkeypatch.setattr(discrete, "_BATCH", 64)
            monkeypatch.setattr(discrete, "_LEAF_WIDTH", 2)
        bounds, leaves, seen = discrete._upper_bounds, discrete._leaf_points, []

        def no_pruning(*args):
            upper, top = bounds(*args)
            return np.full_like(upper, np.inf), top

        def recorded(*args):
            seen.append(leaves(*args))
            return seen[-1]

        monkeypatch.setattr(discrete, "_upper_bounds", no_pruning)
        monkeypatch.setattr(discrete, "_leaf_points", recorded)
        m = random_stochastic(np.random.default_rng(parts), parts, 3)
        max_secrecy_rate_grid(DiscreteWiretapChannel(m, m.copy()), 1 / denom)
        expected = [c for c in itertools.product(range(denom + 1), repeat=parts)
                    if sum(c) == denom]
        got = sorted(tuple(int(k) for k in row) for p in seen for row in p)
        assert got == expected

    @given(grid_cases(), st.sampled_from([1, 2, 8]), st.sampled_from([64, 1 << 14]))
    @settings(max_examples=300, deadline=None)
    def test_matches_exhaustive_oracle(self, case, leaf_width, batch):
        """The same rate, bit for bit, and the same argmax as every grid point,
        for any leaf width and batch size."""
        ch, denom = case
        with mock.patch.object(discrete, "_LEAF_WIDTH", leaf_width), \
                mock.patch.object(discrete, "_BATCH", batch):
            rate, argmax = max_secrecy_rate_grid(ch, 1 / denom)
        assert (rate, grid_units(argmax, denom)) == exhaustive_grid_search(ch, denom)

    @pytest.mark.parametrize("seed", [2, 10, 52, 72, 135, 190])
    def test_keeps_near_ties_below_the_best(self, seed, monkeypatch):
        """The answer may lie up to the tie tolerance below the best rate.

        On these near-tie channels the lexicographically first point within
        the tolerance is more than rounding below the best.  Leaves one value
        wide make each box's bound its one point's rate plus the margin, so
        a search that pruned against the best alone would miss the answer.
        """
        monkeypatch.setattr(discrete, "_LEAF_WIDTH", 1)
        rng = np.random.default_rng(seed)
        ch = near_tie_channel(rng, int(rng.integers(2, 5)))
        denom = int(rng.integers(10, 40))
        best, first = exhaustive_grid_search(ch, denom)
        q = np.array([first, first]) / denom
        assert best - discrete._rates(ch, q)[0][0] > 3e-13
        rate, argmax = max_secrecy_rate_grid(ch, 1 / denom)
        assert (rate, grid_units(argmax, denom)) == (best, first)

    def test_grid_is_multiples_of_one_over_rounded_inverse_step(self):
        """Step 0.003 searches multiples of 1/333, not of 0.003 (no such point sums to 1)."""
        main = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        eaves = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        ch = DiscreteWiretapChannel(main=main, eaves=eaves)
        rate, argmax = max_secrecy_rate_grid(ch, grid_step=0.003)
        assert argmax.probs.tolist() == [111 / 333] * 3
        assert (rate, grid_units(argmax, 333)) == exhaustive_grid_search(ch, 333)

    def test_memory_stays_flat_when_nothing_prunes(self):
        """Identical links tie everywhere, so no box is pruned; the batches
        still hold the search's peak memory at a step with 15x the points
        within 1.5x of the coarser step's."""
        m = random_stochastic(np.random.default_rng(5), 4, 4)
        ch = DiscreteWiretapChannel(main=m, eaves=m.copy())
        peaks = []
        for step in (0.01, 0.004):
            tracemalloc.start()
            try:
                assert max_secrecy_rate_grid(ch, step)[0] == 0.0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_zero_capacity_gives_exact_zero_at_first_point_mass(self):
        """A main link degraded from the eavesdropper's (M = E W) has capacity 0."""
        rng = np.random.default_rng(71)
        channels = []
        for i in range(100):
            nx = (2, 3, 4)[i % 3]
            eaves = random_stochastic(rng, nx, int(rng.integers(2, 6)))
            w = random_stochastic(rng, eaves.shape[1], int(rng.integers(2, 6)))
            channels.append(DiscreteWiretapChannel(main=eaves @ w, eaves=eaves))
        for nx in (2, 3, 4):  # identical links
            m = random_stochastic(rng, nx, 3)
            channels.append(DiscreteWiretapChannel(main=m, eaves=m.copy()))
        for ch in channels:
            nx = ch.num_inputs
            rate, argmax = max_secrecy_rate_grid(ch, grid_step=0.05 if nx == 4 else 0.02)
            assert rate == 0.0
            assert argmax.probs.tolist() == [0.0] * (nx - 1) + [1.0]

    def test_rate_at_the_argmax_is_the_reported_rate_exactly(self):
        """``secrecy_rate_discrete`` at the argmax gives the grid's rate, bit for bit.

        It evaluates one row, which numpy multiplies by a different BLAS
        routine than the grid's batches; without the kernel's padding of a
        lone row, about one channel in six differed in the last bits.
        """
        rng = np.random.default_rng(1)
        for _ in range(300):
            nx, ny, nz = rng.integers(2, 5, size=3)
            ch = DiscreteWiretapChannel(main=random_stochastic(rng, nx, ny),
                                        eaves=random_stochastic(rng, nx, nz))
            rate, argmax = max_secrecy_rate_grid(ch, 0.02)
            assert secrecy_rate_discrete(ch, argmax) == rate

    def test_size_and_step_limits(self):
        five = np.full((5, 2), 0.5)
        with pytest.raises(UnsupportedSizeError):
            max_secrecy_rate_grid(DiscreteWiretapChannel(five, five), 0.01)
        ch = DiscreteWiretapChannel(main=bsc(0.1), eaves=bsc(0.3))
        with pytest.raises(InvalidInputError):
            max_secrecy_rate_grid(ch, grid_step=0.5)
        with pytest.raises(InvalidInputError):
            max_secrecy_rate_grid(ch, grid_step=1e-4)


class TestParallelSumRate:
    def test_two_identical_banks(self):
        ch = DiscreteWiretapChannel(main=bsc(0.1), eaves=bsc(0.3))
        uniform = DiscretePmf([0.5, 0.5])
        total = parallel_sum_rate([ch, ch], [uniform, uniform])
        assert total == pytest.approx(2 * (h2(0.3) - h2(0.1)), abs=1e-12)

    def test_empty_bank(self):
        assert parallel_sum_rate([], []) == 0.0

    def test_single_channel_reduces(self):
        ch = DiscreteWiretapChannel(main=bsc(0.2), eaves=bsc(0.4))
        pmf = DiscretePmf([0.3, 0.7])
        assert parallel_sum_rate([ch], [pmf]) == secrecy_rate_discrete(ch, pmf)

    def test_length_mismatch(self):
        ch = DiscreteWiretapChannel(main=bsc(0.1), eaves=bsc(0.3))
        with pytest.raises(InvalidInputError):
            parallel_sum_rate([ch], [])


class TestAggregatedEavesdropperRate:
    CH = DiscreteWiretapChannel(main=bsc(0.1), eaves=bsc(0.3))

    def test_independent_inputs_match_single_link_rate(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p1 = rng.random(2)
            p1 /= p1.sum()
            p2 = rng.random(2)
            p2 /= p2.sum()
            joint = np.outer(p1, p2)
            agg = aggregated_eavesdropper_rate(self.CH, self.CH, joint, which=0)
            solo = secrecy_rate_discrete(self.CH, DiscretePmf(p1))
            assert agg == pytest.approx(solo, abs=1e-12)

    def test_fully_correlated_inputs_lose_rate(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        agg = aggregated_eavesdropper_rate(self.CH, self.CH, joint, which=0)
        solo = secrecy_rate_discrete(self.CH, DiscretePmf([0.5, 0.5]))
        assert agg < solo - 1e-4

    def test_point_mass_input_sends_nothing(self):
        joint = np.zeros((2, 2))
        joint[1, 0] = 1.0
        agg = aggregated_eavesdropper_rate(self.CH, self.CH, joint, which=0)
        assert agg == pytest.approx(0.0, abs=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(43)
        ch2 = DiscreteWiretapChannel(main=bsc(0.2), eaves=bsc(0.45))
        for which in (0, 1):
            for _ in range(25):
                joint = random_joint(rng, (2, 2))
                got = aggregated_eavesdropper_rate(self.CH, ch2, joint, which)
                own = (self.CH, ch2)[which]
                marginal = joint.sum(axis=1 - which)
                agg = aggregated_joint_bruteforce(joint, self.CH.eaves,
                                                  ch2.eaves, which)
                expected = (mutual_information(marginal[:, None] * own.main)
                            - mutual_information(agg.reshape(2, -1)))
                assert got == pytest.approx(expected, abs=1e-12)

    def test_never_exceeds_single_link_rate(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            joint = random_joint(rng, (2, 2))
            agg = aggregated_eavesdropper_rate(self.CH, self.CH, joint, which=0)
            solo = secrecy_rate_discrete(self.CH, DiscretePmf(joint.sum(axis=1)))
            assert agg <= solo + 1e-12

    def test_sum_shrinks_when_eavesdroppers_aggregate(self):
        """Bank-level version of the aggregation penalty."""
        rng = np.random.default_rng(53)
        ch2 = DiscreteWiretapChannel(main=bsc(0.15), eaves=bsc(0.35))
        for _ in range(50):
            joint = random_joint(rng, (2, 2))
            agg_sum = (aggregated_eavesdropper_rate(self.CH, ch2, joint, 0)
                       + aggregated_eavesdropper_rate(self.CH, ch2, joint, 1))
            indep_sum = (secrecy_rate_discrete(self.CH, DiscretePmf(joint.sum(axis=1)))
                         + secrecy_rate_discrete(ch2, DiscretePmf(joint.sum(axis=0))))
            assert agg_sum <= indep_sum + 1e-12

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            aggregated_eavesdropper_rate(self.CH, self.CH,
                                         np.full((3, 2), 1 / 6), which=0)
        with pytest.raises(InvalidInputError):
            aggregated_eavesdropper_rate(self.CH, self.CH,
                                         np.full((2, 2), 0.25), which=2)
        four = np.full((4, 4), 0.25)
        big = DiscreteWiretapChannel(four, four)
        with pytest.raises(UnsupportedSizeError):
            aggregated_eavesdropper_rate(big, big, np.full((4, 4), 1 / 16), which=0)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_aggregation_property_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        joint = random_joint(rng, (2, 2))
        agg = aggregated_eavesdropper_rate(self.CH, self.CH, joint, which=0)
        solo = secrecy_rate_discrete(self.CH, DiscretePmf(joint.sum(axis=1)))
        assert agg <= solo + 1e-12
