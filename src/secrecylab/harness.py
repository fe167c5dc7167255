"""Experiment orchestration: maps CLI commands onto library operations.

Each command consumes a :class:`~secrecylab.scenario.Scenario` plus a few
options and returns a list of :class:`~secrecylab.scenario.ReportRecord`.
Runs are deterministic: Monte Carlo commands derive one child stream per
channel from the run seed via ``numpy.random.SeedSequence`` spawn keys
``(channel_position, stage)``, so appending a channel to a scenario never
perturbs the draws of existing channels.
"""

from importlib import resources

import numpy as np

from . import __version__
from .allocation import (
    AWGN_BUDGET_TOL,
    FADING_BUDGET_REL_TOL,
    awgn_waterfill,
    calibrate_fading_lambda,
    ergodic_secrecy_capacity,
)
from .channels import gaussian_secrecy_rate
from .cooperation import (
    classify,
    feasible_set,
    greedy_pairing,
    pr_picking_k,
    qualified_rate,
)
from .discrete import max_secrecy_rate_grid
from .errors import ScenarioValidationError, UsageError
from .scenario import CHANNEL_SCHEMA, SCHEMA_VERSION, ReportRecord, load_scenario

COMMANDS = ("rate", "allocate", "allocate-fading", "ergodic", "pair",
            "discrete-capacity", "pick-prob", "fig4")

DEFAULT_SAMPLES = 100_000
DEFAULT_GRID_STEP = 1e-3


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


def _agent_bank(scenario, command):
    bank = [agent for _pos, agent in scenario.agent_bank()]
    if not bank:
        raise ScenarioValidationError(
            f"command '{command}' needs 'agent-snr' or 'fading' channels")
    return bank


def _link_record(experiment, sc, outputs, metadata):
    """A row about one scenario link; its inputs are the link's scenario fields."""
    _cls, fields = CHANNEL_SCHEMA[sc.kind]
    return ReportRecord(experiment=experiment, channel_id=sc.id,
                        inputs={key: float(getattr(sc.channel, key)) for key in fields},
                        outputs=outputs, metadata=metadata)


def _agent_record(experiment, agent, seed, outputs):
    """A row about one agent; its inputs are the agent's SNR pair."""
    return ReportRecord(experiment=experiment, channel_id=agent.id,
                        inputs={"A": float(agent.main_snr), "E": float(agent.eaves_snr)},
                        outputs=outputs, metadata=_meta(seed))


def _run_rate(scenario, seed, budget):
    power = float(_require_budget("rate", budget))
    records = []
    for _pos, sc in _entries(scenario, "gaussian", "rate"):
        outputs = {"power": power, "rate_bits": gaussian_secrecy_rate(power, sc.channel)}
        records.append(_link_record("rate", sc, outputs, _meta(seed)))
    return records


def _run_allocate(scenario, seed, budget):
    budget = _require_budget("allocate", budget)
    entries = _entries(scenario, "gaussian", "allocate")
    result = awgn_waterfill([sc.channel for _pos, sc in entries], budget)
    records = []
    for (_pos, sc), power, rate in zip(entries, result.powers.tolist(), result.rates.tolist()):
        records.append(_link_record("allocate", sc, {"power": power, "rate_bits": rate},
                                    _meta(seed, budget_tol=AWGN_BUDGET_TOL)))
    records.append(ReportRecord(
        experiment="allocate", channel_id="summary",
        outputs={"power": float(result.powers.sum()),
                 "rate_bits": result.sum_rate,
                 "lambda": result.lam},
        metadata=_meta(seed, budget_tol=AWGN_BUDGET_TOL)))
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
        records.append(_link_record(command, sc, outputs, metadata))
    return records


def _run_pair(scenario, seed, experiment):
    bank = _agent_bank(scenario, experiment)
    qualified, disqualified = classify(bank)
    plan = greedy_pairing(disqualified)
    roles = {agent.id: "qualified" for agent in qualified}
    for helped, helper in plan.pairs:
        roles[helped], roles[helper] = "helped", "helper"

    records = []
    for agent in bank:
        role = roles.get(agent.id, "unpaired")
        outputs = {"qualified": role == "qualified", "role": role}
        if role == "qualified":
            outputs["rate_bits"], outputs["efficiency"] = qualified_rate(agent)
        records.append(_agent_record(experiment, agent, seed, outputs))

    by_id = {agent.id: agent for agent in bank}
    for pair in plan.pairs:
        records.append(_agent_record(experiment, by_id[pair[0]], seed, {
            "pair_with": pair[1], "efficiency": plan.efficiencies[pair]}))
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
    _qualified, disqualified = classify(_agent_bank(scenario, "pick-prob"))
    sets = [feasible_set(agent.id, disqualified) for agent in disqualified]
    records = [_agent_record("pick-prob", agent, seed, {
                   "feasible_set_size": len(fs), "feasible_members": list(fs.members)})
               for agent, fs in zip(disqualified, sets)]

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
