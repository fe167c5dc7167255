"""Splitting a power budget across parallel wiretap links.

Walks through the secrecy water-filling allocator: which links get power,
how the Lagrange multiplier moves with the budget, and a brute-force check
that the solver's split really is the best one.

Run:  python3 demos/waterfilling_walkthrough.py
"""

import numpy as np

from secrecylab import GaussianWiretapChannel, awgn_waterfill, gaussian_secrecy_rate

# Three links. The eavesdropper's noise is what makes a link valuable:
# link C's eavesdropper hears *better* than the legitimate receiver, so no
# amount of power makes it secret.
bank = [
    GaussianWiretapChannel(sigma_m_sq=1.0, sigma_w_sq=3.0),   # A: strong advantage
    GaussianWiretapChannel(sigma_m_sq=1.0, sigma_w_sq=1.5),   # B: slim advantage
    GaussianWiretapChannel(sigma_m_sq=2.0, sigma_w_sq=1.0),   # C: hopeless
]

print("Per-link secrecy rate at fixed power 2.0 (bits/use):")
for name, ch in zip("ABC", bank):
    print(f"  link {name}: {gaussian_secrecy_rate(2.0, ch):.4f}")

print("\nBudget sweep:")
print(f"{'budget':>8} {'P_A':>8} {'P_B':>8} {'P_C':>8} {'multiplier':>10} {'sum rate':>9}")
for budget in (0.5, 1.0, 2.0, 5.0, 10.0):
    r = awgn_waterfill(bank, budget)
    pa, pb, pc = r.powers
    print(f"{budget:8.1f} {pa:8.4f} {pb:8.4f} {pc:8.4f} {r.lam:10.5f} {r.sum_rate:9.5f}")

print("""
Small budgets go entirely to link A (largest noise gap); link B joins once
the multiplier drops below its activation point; link C never activates.
""")

# Sanity-check the budget-10 split against an exhaustive grid.
result = awgn_waterfill(bank, 10.0)
step = 0.01
k = int(round(10.0 / step))
counts = np.arange(k + 1, 0, -1)
k0 = np.repeat(np.arange(k + 1), counts)
offsets = np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
k1 = np.arange(counts.sum()) - offsets
powers = np.stack([k0, k1, k - k0 - k1], axis=1) * step
sm = np.array([ch.sigma_m_sq for ch in bank])
sw = np.array([ch.sigma_w_sq for ch in bank])
grid_rates = np.maximum(
    0.0, 0.5 * (np.log2(1 + powers / sm) - np.log2(1 + powers / sw))).sum(axis=1)

print(f"solver sum rate:        {result.sum_rate:.6f} bits/use")
print(f"best of {len(powers):,} grid points: {grid_rates.max():.6f} bits/use")
print(f"solver - grid best:     {result.sum_rate - grid_rates.max():+.2e}")

# The stationarity identity every funded link satisfies:
print("\n(P + sigma_m_sq)(P + sigma_w_sq) * 2*lam vs sigma_w_sq - sigma_m_sq:")
for name, ch, p in zip("ABC", bank, result.powers):
    if p > 0:
        lhs = (p + ch.sigma_m_sq) * (p + ch.sigma_w_sq) * 2 * result.lam
        print(f"  link {name}: {lhs:.9f} vs {ch.sigma_w_sq - ch.sigma_m_sq:.9f}")
