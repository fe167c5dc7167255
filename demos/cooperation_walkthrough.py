"""Cooperative jamming: pairing blocked agents with stronger helpers.

Loads the bundled nine-agent scenario (three agents can already talk
secretly, six cannot), runs the greedy pairing, prints the secrecy
efficiencies, and shows where the greedy rule sits relative to the true
maximum matching.

Run:  python3 demos/cooperation_walkthrough.py
"""

from secrecylab import (
    classify,
    efficiency_qualified,
    feasible_set,
    greedy_pairing,
    load_scenario,
    max_matching_oracle,
    pick_probability_monte_carlo,
    pr_picking_k,
    AgentChannel,
)
from secrecylab.harness import bundled_scenario_path

scenario = load_scenario(bundled_scenario_path("fig4.scenario"))
_positions, bank = scenario.agents()
qualified, disqualified = classify(bank)

print(f"bank of {len(bank)} agents: {len(qualified)} qualified, "
      f"{len(disqualified)} disqualified\n")

print("qualified agents keep their own channel;")
print("their efficiency is the share of capacity that stays secret:")
for agent in qualified:
    print(f"  agent {agent.id}: SNR {agent.main_snr:5.1f} vs eavesdropper "
          f"{agent.eaves_snr:4.1f} -> efficiency {efficiency_qualified(agent):.3f}")

plan = greedy_pairing(disqualified)
print(f"\ngreedy pairing formed {len(plan.pairs)} pairs "
      f"(optimum here: {max_matching_oracle(disqualified)}):")
for helped, helper in plan.pairs:
    print(f"  agent {helper} jams for agent {helped}: "
          f"efficiency {plan.efficiencies[(helped, helper)]:.3f}")
print("Pair efficiency never reaches 0.5: the helper burns its whole slot.")

# The greedy is not always optimal. Taking the weakest feasible helper can
# consume an agent that a larger matching needed as a helped node:
gap_bank = [AgentChannel(id=i, main_snr=a, eaves_snr=e)
            for i, (a, e) in enumerate(
                zip([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 4.5, 4.5]), 1)]
gap_plan = greedy_pairing(gap_bank)
print(f"\ncounterexample bank A=(1,2,3,4), E=(1.5,2.5,4.5,4.5):")
print(f"  greedy pairs {gap_plan.pairs} = {len(gap_plan.pairs)} pair(s); "
      f"maximum matching = {max_matching_oracle(gap_bank)} via (1,3),(2,4)")

# Helper contention: with random picking, the one agent whose feasible set
# is a single helper risks losing it. Greedy avoids that by always taking
# the weakest feasible helper.
five = [AgentChannel(id=i, main_snr=a, eaves_snr=e)
        for i, (a, e) in enumerate(
            zip([1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 3.5, 3.5, 4.5, 6.0]), 1)]
_, disq = classify(five)
sizes = [len(feasible_set(i, disq)) for i in range(1, 6)]
print(f"\nfive-agent bank feasible-set sizes: {sizes}")
print(f"agent 4 depends entirely on agent 5 being left alone.")
formula = pr_picking_k([4, 2, 2])
sets = [feasible_set(i, disq) for i in (1, 2, 3)]
simulated = pick_probability_monte_carlo(sets, target_id=5, trials=50_000, seed=0)
print(f"chance random pickers grab agent 5 first: "
      f"independence formula {formula:.4f}, sequential simulation {simulated:.4f}")
