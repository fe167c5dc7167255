"""Experiment orchestration: maps CLI commands onto library operations.

Each command consumes a :class:`~secrecylab.scenario.Scenario` plus a few
options and returns a list of :class:`~secrecylab.scenario.ReportRecord`.
Runs are deterministic: Monte Carlo commands derive one child stream per
channel from the run seed via ``numpy.random.SeedSequence`` spawn keys
``(channel_position, stage)``, so appending a channel to a scenario never
perturbs the draws of existing channels.
"""

import math
from importlib import resources

import numpy as np

from . import __version__
from .allocation import (
    FADING_BUDGET_REL_TOL,
    awgn_waterfill,
    calibrate_fading_lambda,
    ergodic_secrecy_capacity,
)
from .channels import gaussian_secrecy_rate
from .cooperation import (
    classify,
    efficiency_qualified,
    feasible_set,
    greedy_pairing,
    pr_picking_k,
)
from .discrete import max_secrecy_rate_grid
from .errors import ScenarioValidationError, UsageError
from .scenario import SCHEMA_VERSION, ReportRecord, load_scenario

COMMANDS = ("rate", "allocate", "allocate-fading", "ergodic", "pair",
            "discrete-capacity", "pick-prob", "fig4")

DEFAULT_SAMPLES = 100_000
DEFAULT_GRID_STEP = 1e-3
BUDGET_TOL = 1e-9


def substream(seed, *key):
    """Child random stream for one channel: PCG64 seeded by (seed, key).

    Uses ``numpy.random.SeedSequence(entropy=seed, spawn_key=key)``, the
    documented portable derivation, so streams for different keys are
    independent and stable across runs.
    """
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))


def bundled_scenario_path(name):
    """Filesystem path of a scenario shipped inside the package."""
    return resources.files("secrecylab").joinpath("data", name)


def _meta(seed, **extra):
    md = {"seed": seed,
          "versions": {"secrecylab": __version__, "scenario_schema": SCHEMA_VERSION}}
    if extra:
        md["tolerances"] = extra
    return md


def _require_budget(command, budget):
    if budget is None:
        raise UsageError(f"command '{command}' requires a budget "
                         f"(--budget or a scenario-level budget field)")
    return budget


def _entries(scenario, kind, command):
    entries = scenario.of_kind(kind)
    if not entries:
        raise ScenarioValidationError(
            f"command '{command}' needs at least one '{kind}' channel in the scenario")
    return entries


def _run_rate(scenario, seed, budget):
    power = _require_budget("rate", budget)
    records = []
    for _pos, sc in _entries(scenario, "gaussian", "rate"):
        ch = sc.channel
        records.append(ReportRecord(
            experiment="rate", channel_id=sc.id,
            inputs={"sigma_m_sq": ch.sigma_m_sq, "sigma_w_sq": ch.sigma_w_sq},
            outputs={"power": float(power),
                     "rate_bits": gaussian_secrecy_rate(power, ch)},
            metadata=_meta(seed)))
    return records


def _run_allocate(scenario, seed, budget):
    budget = _require_budget("allocate", budget)
    entries = _entries(scenario, "gaussian", "allocate")
    bank = [sc.channel for _pos, sc in entries]
    result = awgn_waterfill(bank, budget, tol=BUDGET_TOL)
    records = []
    for (_pos, sc), power, rate in zip(entries, result.powers.tolist(), result.rates.tolist()):
        ch = sc.channel
        records.append(ReportRecord(
            experiment="allocate", channel_id=sc.id,
            inputs={"sigma_m_sq": ch.sigma_m_sq, "sigma_w_sq": ch.sigma_w_sq},
            outputs={"power": power, "rate_bits": rate},
            metadata=_meta(seed, budget_tol=BUDGET_TOL)))
    records.append(ReportRecord(
        experiment="allocate", channel_id="summary",
        outputs={"power": float(result.powers.sum()),
                 "rate_bits": result.sum_rate,
                 "lambda": result.lam},
        metadata=_meta(seed, budget_tol=BUDGET_TOL)))
    return records


def _fading_records(scenario, seed, budget, samples, command, estimate):
    budget = _require_budget(command, budget)
    records = []
    for pos, sc in _entries(scenario, "fading", command):
        ch = sc.channel
        policy = calibrate_fading_lambda(ch, budget, samples, substream(seed, pos, 0))
        outputs = {"lambda": policy.lam, "zero_secrecy": policy.zero_secrecy,
                   "power": policy.avg_power}
        if estimate:
            rate, stderr, power = ergodic_secrecy_capacity(
                ch, policy, samples, substream(seed, pos, 1), with_power=True)
            outputs.update(rate_bits=rate, stderr=stderr, power=power)
        metadata = _meta(seed, avg_budget_rel_tol=FADING_BUDGET_REL_TOL, samples=samples)
        metadata.update(calibration_iterations=policy.iterations,
                        achieved_power=policy.avg_power)
        records.append(ReportRecord(
            experiment=command, channel_id=sc.id,
            inputs={"a": ch.a, "b": ch.b,
                    "sigma_m_sq": ch.sigma_m_sq, "sigma_w_sq": ch.sigma_w_sq},
            outputs=outputs, metadata=metadata))
    return records


def _run_pair(scenario, seed, experiment):
    bank_entries = scenario.agent_bank()
    if not bank_entries:
        raise ScenarioValidationError(
            f"command '{experiment}' needs 'agent-snr' or 'fading' channels")
    bank = [agent for _pos, agent in bank_entries]
    qualified, disqualified = classify(bank)
    plan = greedy_pairing(disqualified)
    qualified_ids = {agent.id for agent in qualified}
    helped_ids = {helped for helped, _helper in plan.pairs}
    helper_ids = {helper for _helped, helper in plan.pairs}

    records = []
    for agent in bank:
        if agent.id in qualified_ids:
            role = "qualified"
            outputs = {
                "qualified": True,
                "role": role,
                "rate_bits": math.log2(1 + agent.main_snr) - math.log2(1 + agent.eaves_snr),
                "efficiency": efficiency_qualified(agent),
            }
        else:
            if agent.id in helped_ids:
                role = "helped"
            elif agent.id in helper_ids:
                role = "helper"
            else:
                role = "unpaired"
            outputs = {"qualified": False, "role": role}
        records.append(ReportRecord(
            experiment=experiment, channel_id=agent.id,
            inputs={"A": agent.main_snr, "E": agent.eaves_snr},
            outputs=outputs, metadata=_meta(seed)))

    by_id = {agent.id: agent for agent in bank}
    for helped, helper in plan.pairs:
        records.append(ReportRecord(
            experiment=experiment, channel_id=helped,
            inputs={"A": by_id[helped].main_snr, "E": by_id[helped].eaves_snr},
            outputs={"pair_with": helper,
                     "efficiency": plan.efficiencies[(helped, helper)]},
            metadata=_meta(seed)))
    return records


def _run_discrete(scenario, seed, grid_step):
    records = []
    for _pos, sc in _entries(scenario, "discrete", "discrete-capacity"):
        rate, argmax = max_secrecy_rate_grid(sc.channel, grid_step)
        records.append(ReportRecord(
            experiment="discrete-capacity", channel_id=sc.id,
            outputs={"rate_bits": rate, "argmax_pmf": argmax.probs.tolist()},
            metadata=_meta(seed, grid_step=grid_step)))
    return records


def _run_pick_prob(scenario, seed):
    bank_entries = scenario.agent_bank()
    if not bank_entries:
        raise ScenarioValidationError(
            "command 'pick-prob' needs 'agent-snr' or 'fading' channels")
    bank = [agent for _pos, agent in bank_entries]
    _qualified, disqualified = classify(bank)
    sets = [feasible_set(agent.id, disqualified) for agent in disqualified]

    records = []
    for agent, fs in zip(disqualified, sets):
        records.append(ReportRecord(
            experiment="pick-prob", channel_id=agent.id,
            inputs={"A": agent.main_snr, "E": agent.eaves_snr},
            outputs={"feasible_set_size": len(fs),
                     "feasible_members": list(fs.members)},
            metadata=_meta(seed)))

    contested = next((i for i, fs in enumerate(sets) if len(fs) == 1), None)
    summary_outputs = {"pick_probability": None}
    if contested is not None:
        prefix_sizes = [len(fs) for fs in sets[:contested] if len(fs) >= 1]
        prob = pr_picking_k(prefix_sizes)
        summary_outputs = {
            "pick_probability": prob,
            "efficiency": prob,  # surfaces the probability in the fixed CSV columns
            "contested_helper": sets[contested].members[0],
            "prefix_sizes": prefix_sizes,
        }
    records.append(ReportRecord(
        experiment="pick-prob", channel_id="summary",
        outputs=summary_outputs, metadata=_meta(seed)))
    return records


def run(command, scenario, *, budget=None, samples=None, grid_step=None, seed=None):
    """Execute one command against a scenario.

    Parameters
    ----------
    command : str
        One of :data:`COMMANDS`.
    scenario : Scenario or None
        ``fig4`` falls back to the bundled scenario when none is given;
        every other command requires one.
    budget, samples, grid_step, seed :
        Option overrides; unset values fall back to the scenario fields and
        then to the documented defaults.

    Returns
    -------
    list of ReportRecord
    """
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}; expected one of {COMMANDS}")
    if command == "fig4" and scenario is None:
        scenario = load_scenario(bundled_scenario_path("fig4.scenario"))
    if scenario is None:
        raise UsageError(f"command '{command}' requires --scenario")

    seed = scenario.seed if seed is None else seed
    budget = scenario.budget if budget is None else budget
    samples = (scenario.samples or DEFAULT_SAMPLES) if samples is None else samples
    grid_step = DEFAULT_GRID_STEP if grid_step is None else grid_step

    if command == "rate":
        return _run_rate(scenario, seed, budget)
    if command == "allocate":
        return _run_allocate(scenario, seed, budget)
    if command == "allocate-fading":
        return _fading_records(scenario, seed, budget, samples,
                               "allocate-fading", estimate=False)
    if command == "ergodic":
        return _fading_records(scenario, seed, budget, samples,
                               "ergodic", estimate=True)
    if command == "pair":
        return _run_pair(scenario, seed, "pair")
    if command == "fig4":
        return _run_pair(scenario, seed, "fig4")
    if command == "discrete-capacity":
        return _run_discrete(scenario, seed, grid_step)
    return _run_pick_prob(scenario, seed)
