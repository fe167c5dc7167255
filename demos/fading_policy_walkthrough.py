"""Adaptive power control on a fading wiretap link.

With per-slot channel state known, the transmitter should stay silent on
slots where the eavesdropper fades better and spend more on slots with a
big advantage. This script calibrates the threshold policy to an average
power budget, estimates the resulting long-run secrecy rate, and compares
it with the naive constant-power strategy on the same fading draws.

Run:  python3 demos/fading_policy_walkthrough.py
"""

import numpy as np

from secrecylab import (
    ChannelState,
    FadingWiretapChannel,
    calibrate_fading_lambda,
    ergodic_secrecy_capacity,
    fading_power,
)
from secrecylab.allocation import _power_array

ch = FadingWiretapChannel(a=2.0, b=1.0, sigma_m_sq=1.0, sigma_w_sq=1.0)
budget = 1.0
samples = 100_000

policy = calibrate_fading_lambda(ch, avg_budget=budget, samples=samples, seed=11)
print(f"calibrated threshold t = 1/lam: {policy.threshold:.5f}  (average power target {budget})")

print("\nPower spent on a few example slot states (a_draw, b_draw):")
for a_draw, b_draw in [(0.5, 1.0), (1.2, 1.0), (2.0, 1.0), (5.0, 1.0), (5.0, 0.1)]:
    p = fading_power(policy, ChannelState(a_draw, b_draw))
    print(f"  ({a_draw:4.1f}, {b_draw:4.1f}) -> power {p:.4f}")

estimate, stderr, _power = ergodic_secrecy_capacity(ch, policy, samples, seed=12)
print(f"\nergodic secrecy rate: {estimate:.5f} +/- {stderr:.5f} bits/use")

# Same draws, two strategies: threshold policy vs constant power on every
# advantaged slot (scaled so its average power also meets the budget).
rng = np.random.default_rng(13)
a = rng.exponential(ch.a, samples)
b = rng.exponential(ch.b, samples)
p_opt = _power_array(policy.threshold, a, b)
const = budget / (ch.a / (ch.a + ch.b))  # Pr(a_draw > b_draw) = a / (a + b)
p_const = np.where(a > b, const, 0.0)


def mean_rate(p):
    return np.maximum(0.0, 0.5 * (np.log2(1 + p * a) - np.log2(1 + p * b))).mean()


print(f"\npaired comparison on {samples:,} fresh slots:")
print(f"  threshold policy: rate {mean_rate(p_opt):.5f}, "
      f"avg power {p_opt.mean():.4f}, active slots {(p_opt > 0).mean():5.1%}")
print(f"  constant power:   rate {mean_rate(p_const):.5f}, "
      f"avg power {p_const.mean():.4f}, active slots {(p_const > 0).mean():5.1%}")

# A link whose eavesdropper fades better on average is mostly unusable:
swapped = FadingWiretapChannel(a=1.0, b=2.0, sigma_m_sq=1.0, sigma_w_sq=1.0)
sw_policy = calibrate_fading_lambda(swapped, budget, samples, seed=14)
sw_rate, _stderr, _power = ergodic_secrecy_capacity(swapped, sw_policy, samples, seed=15)
print(f"\nsame budget on the swapped link (a=1, b=2): rate {sw_rate:.5f} bits/use")
print("The policy still meets the budget, but crams power into the rare")
print("advantaged slots; the achievable secrecy rate collapses.")
