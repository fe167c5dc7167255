"""Secrecy rates on tiny finite-alphabet wiretap channels.

Evaluates I(X;Y) - I(X;Z) on binary symmetric channel pairs, grid-searches
the input distribution, checks the degraded closed form h(q) - h(p), finds
a four-input channel's capacity on the default 1e-3 grid, and shows how
eavesdroppers pooling observations of correlated inputs eat into the rate.

Run:  python3 demos/discrete_wiretap_walkthrough.py
"""

import math

import numpy as np

from secrecylab import (
    DiscretePmf,
    DiscreteWiretapChannel,
    aggregated_eavesdropper_rate,
    bsc,
    max_secrecy_rate_grid,
    secrecy_rate_discrete,
)


def h2(p):
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


# Legitimate receiver sees a BSC(0.1), the eavesdropper a noisier BSC(0.3).
ch = DiscreteWiretapChannel(main=bsc(0.1), eaves=bsc(0.3))

print("rate at a few input distributions (bits/use):")
for t in (0.5, 0.3, 0.1, 0.0):
    rate = secrecy_rate_discrete(ch, DiscretePmf([t, 1 - t]))
    print(f"  input ({t:.1f}, {1 - t:.1f}): {rate:+.5f}")

best, argmax = max_secrecy_rate_grid(ch, grid_step=1e-3)
print(f"\ngrid-search capacity: {best:.5f} at input {argmax.probs.tolist()}")
print(f"closed form h(0.3) - h(0.1): {h2(0.3) - h2(0.1):.5f}")

# Swap the two observations and no input distribution helps:
worse = DiscreteWiretapChannel(main=bsc(0.3), eaves=bsc(0.1))
best_w, _ = max_secrecy_rate_grid(worse, grid_step=1e-3)
print(f"with the eavesdropper ahead: capacity {best_w:.5f}")

# Four inputs at the default step of 1e-3: a grid of C(1003, 3) = 1.7e8
# input distributions.  The branch-and-bound returns the grid's best point
# while evaluating about one in ten thousand of them.
main4 = np.array([[0.85, 0.05, 0.05, 0.05],
                  [0.05, 0.85, 0.05, 0.05],
                  [0.05, 0.05, 0.70, 0.20],
                  [0.05, 0.05, 0.20, 0.70]])
eaves4 = np.array([[0.40, 0.40, 0.10, 0.10],
                   [0.40, 0.40, 0.10, 0.10],
                   [0.10, 0.10, 0.45, 0.35],
                   [0.10, 0.10, 0.35, 0.45]])
best4, argmax4 = max_secrecy_rate_grid(DiscreteWiretapChannel(main4, eaves4), grid_step=1e-3)
print(f"\nfour-input channel at step 1e-3 ({math.comb(1003, 3):,} grid points):")
print(f"  capacity {best4:.5f} bits/use at input {argmax4.probs.tolist()}")

# Correlated inputs across two links let the eavesdroppers pool what they
# hear. Compare link 1's rate for independent vs identical inputs:
print("\neavesdropper aggregation on two links (both BSC(0.1)/BSC(0.3)):")
indep = np.outer([0.5, 0.5], [0.5, 0.5])
same = np.array([[0.5, 0.0], [0.0, 0.5]])
for label, joint in [("independent inputs", indep), ("identical inputs", same)]:
    rate = aggregated_eavesdropper_rate(ch, ch, joint, which=0)
    print(f"  {label}: {rate:.5f}")
print("Identical traffic on both links hands the eavesdroppers a second")
print("look at the same symbol, so the per-link secrecy rate drops.")
