"""Experiment orchestration: maps CLI commands onto library operations.

Each command consumes a :class:`~secrecylab.scenario.Scenario` plus a few
options and returns a list of :class:`~secrecylab.report.ReportRecord`,
or a :class:`~secrecylab.report.ColumnReport` that holds the rows as
columns.  ``rate`` and ``allocate`` work on the scenario's gaussian bank:
one rate-kernel call or one water-fill over the whole bank.  ``pair``,
``fig4`` and ``pick-prob`` work on its agent bank
(:meth:`~secrecylab.scenario.Scenario.agents`): one classification, then
the pairing or one O(1) feasible-set call per disqualified agent, each set
written as its start in the sorted ids.
One table, ``_TABLE``, declares every command once: its runner, the
channels it reads and whether it spends a budget.  :func:`run` resolves the
options and checks those preconditions for all commands in one place.
Runs are deterministic: Monte Carlo commands derive one child stream per
channel from the run seed via ``numpy.random.SeedSequence`` spawn keys
``(channel_position, stage)``, so appending a channel to a scenario never
perturbs the draws of existing channels.
"""

from importlib import resources
from types import SimpleNamespace

import numpy as np

from . import __version__
from .allocation import (
    AWGN_BUDGET_TOL,
    FADING_BUDGET_REL_TOL,
    awgn_waterfill,
    calibrate_fading_lambda,
    ergodic_secrecy_capacity,
)
# Not called: a bank's rates come from one GaussianBank.secrecy_rates call.
# bench/layer_trace.py wraps this name here, so it stays importable.
from .channels import gaussian_secrecy_rate  # noqa: F401
from .cooperation import (
    classify,
    feasible_set,
    greedy_pairing,
    pr_picking_k,
    qualified_rates,
)
from .discrete import max_secrecy_rate_grid
from .errors import (
    ScenarioValidationError,
    UsageError,
    _check_count,
    _check_grid_step,
    _check_positive,
    _check_seed,
)
from .report import ColumnReport, ReportRecord, Suffixes
from .scenario import CHANNEL_SCHEMA, SCHEMA_VERSION, load_scenario

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


def _link_record(command, sc, outputs, metadata):
    """A row about one scenario link; its inputs are the link's scenario fields."""
    _cls, fields = CHANNEL_SCHEMA[sc.kind]
    return ReportRecord(experiment=command, channel_id=sc.id,
                        inputs={key: float(getattr(sc.channel, key)) for key in fields},
                        outputs=outputs, metadata=metadata)


def _bank_report(command, bank, outputs, metadata, tail=()):
    """Rows about the links of a gaussian bank; their inputs are the links' scenario fields."""
    _cls, fields = CHANNEL_SCHEMA["gaussian"]
    return ColumnReport(command, bank.ids, {key: getattr(bank, key) for key in fields},
                        outputs, metadata, tail)


def _run_rate(command, bank, options):
    outputs = {"power": [options.budget] * len(bank),
               "rate_bits": bank.secrecy_rates(options.budget)}
    return _bank_report(command, bank, outputs, _meta(options.seed))


def _run_allocate(command, bank, options):
    result = awgn_waterfill(bank, options.budget)
    metadata = _meta(options.seed, budget_tol=AWGN_BUDGET_TOL)
    summary = ReportRecord(
        experiment=command, channel_id="summary",
        outputs={"power": float(result.powers.sum()),
                 "rate_bits": result.sum_rate,
                 "lambda": result.lam},
        metadata=metadata)
    return _bank_report(command, bank, {"power": result.powers, "rate_bits": result.rates},
                        metadata, [summary])


def _run_fading(command, entries, options):
    seed, budget, samples = options.seed, options.budget, options.samples
    records = []
    for pos, sc in entries:
        policy = calibrate_fading_lambda(sc.channel, budget, samples, substream(seed, pos, 0))
        # A report holds finite floats only: the zero-secrecy multiplier is infinite.
        outputs = {"lambda": "inf" if policy.zero_secrecy else policy.lam,
                   "zero_secrecy": policy.zero_secrecy, "power": policy.avg_power}
        if command == "ergodic":
            rate, stderr, power = ergodic_secrecy_capacity(
                sc.channel, policy, samples, substream(seed, pos, 1))
            outputs.update(rate_bits=rate, stderr=stderr, power=power)
        metadata = _meta(seed, avg_budget_rel_tol=FADING_BUDGET_REL_TOL, samples=samples)
        metadata.update(calibration_iterations=policy.iterations,
                        achieved_power=policy.avg_power)
        records.append(_link_record(command, sc, outputs, metadata))
    return records


def _agent_shape(bank, **outputs):
    """Rows about the agents of a bank, as a ColumnReport shape; their inputs
    are the agents' SNR pairs, as floats even where the scenario gave ints."""
    return bank.ids, {"A": list(map(float, bank.main_snr)),
                      "E": list(map(float, bank.eaves_snr))}, outputs


def _run_pair(command, bank, options):
    qualified, disqualified = classify(bank)
    plan = greedy_pairing(disqualified)
    roles = dict.fromkeys(qualified.ids, "qualified")
    for helped, helper in plan.pairs:
        roles[helped], roles[helper] = "helped", "helper"
    rates, efficiencies = qualified_rates(qualified)
    # Agent rows in file order, each of the qualified shape (0) or the other
    # (1), then the pair rows (2).
    order = [int(roles.get(agent_id) != "qualified") for agent_id in bank.ids]
    others = bank.take([row for row, shape in enumerate(order) if shape])
    row_of = dict(zip(bank.ids, range(len(bank))))
    shapes = [
        _agent_shape(qualified, qualified=[True] * len(qualified),
                     role=["qualified"] * len(qualified), rate_bits=rates,
                     efficiency=efficiencies),
        _agent_shape(others, qualified=[False] * len(others),
                     role=[roles.get(agent_id, "unpaired") for agent_id in others.ids]),
        _agent_shape(bank.take([row_of[helped] for helped, _helper in plan.pairs]),
                     pair_with=[helper for _helped, helper in plan.pairs],
                     efficiency=[plan.efficiencies[pair] for pair in plan.pairs]),
    ]
    return ColumnReport.of_shapes(command, shapes, order + [2] * len(plan.pairs),
                                  _meta(options.seed))


def _run_discrete(command, entries, options):
    metadata = _meta(options.seed, grid_step=options.grid_step)
    records = []
    for _pos, sc in entries:
        rate, argmax = max_secrecy_rate_grid(sc.channel, options.grid_step)
        records.append(ReportRecord(
            experiment=command, channel_id=sc.id,
            outputs={"rate_bits": rate, "argmax_pmf": argmax.probs.tolist()},
            metadata=metadata))
    return records


def _run_pick_prob(command, bank, options):
    _qualified, disqualified = classify(bank)
    sets = [feasible_set(agent_id, disqualified) for agent_id in disqualified.ids]
    sizes = [len(fs) for fs in sets]
    metadata = _meta(options.seed)

    contested = next((i for i, size in enumerate(sizes) if size == 1), None)
    summary_outputs = {"pick_probability": None}
    if contested is not None:
        prefix_sizes = [size for size in sizes[:contested] if size >= 1]
        prob = pr_picking_k(prefix_sizes)
        summary_outputs = {
            "pick_probability": prob,
            "efficiency": prob,  # surfaces the probability in the fixed CSV columns
            "contested_helper": sets[contested].members[0],
            "prefix_sizes": prefix_sizes,
        }
    # Each set is a suffix of the sorted ids: the last len(fs) of them.
    return ColumnReport(command, *_agent_shape(
        disqualified, feasible_set_size=sizes,
        feasible_members=Suffixes(disqualified.ids, [len(sizes) - size for size in sizes])),
        metadata, [ReportRecord(experiment=command, channel_id="summary",
                                outputs=summary_outputs, metadata=metadata)])


#: The agent view of a scenario, ``agent-snr`` entries plus ``fading`` ones,
#: named as the commands that read it need it.
_AGENTS = "'agent-snr' or 'fading' channels"

#: Each command: its runner, the channels it reads (a channel type or
#: :data:`_AGENTS`) and whether it spends a budget.  The runner is called as
#: ``runner(command, entries, options)``: ``entries`` are the channels read,
#: as :meth:`Scenario.gaussian_bank` gives the ``gaussian`` ones,
#: :meth:`Scenario.agents` the agent view and :meth:`Scenario.of_kind` the
#: ``(position, channel)`` pairs of the others, and ``options`` the resolved
#: seed, budget, samples and grid step.
_TABLE = {
    "rate": (_run_rate, "gaussian", True),
    "allocate": (_run_allocate, "gaussian", True),
    "allocate-fading": (_run_fading, "fading", True),
    "ergodic": (_run_fading, "fading", True),
    "pair": (_run_pair, _AGENTS, False),
    "discrete-capacity": (_run_discrete, "discrete", False),
    "pick-prob": (_run_pick_prob, _AGENTS, False),
    "fig4": (_run_pair, _AGENTS, False),
}

COMMANDS = tuple(_TABLE)


def run(command, scenario, *, budget=None, samples=None, grid_step=None, seed=None):
    """Execute one command against a scenario.

    Checks the preconditions in this order: a scenario, then the seed,
    given here or the scenario's (an integer in ``[0, 2**64)``), then the
    budget and the sample count, each given here or the scenario's (a
    positive finite number, a positive integer), and a grid step given here
    (in ``[1e-3, 0.1]``), whichever command runs, then a budget for the
    commands that spend one, then at least one channel of the kind the
    command reads.

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
    list of ReportRecord, or ColumnReport
        ``rate``, ``allocate``, ``pair``, ``fig4`` and ``pick-prob`` return
        their rows as a :class:`~secrecylab.report.ColumnReport`, a
        sequence of the same records that compares equal to their list.
    """
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}; expected one of {COMMANDS}")
    runner, reads, spends_budget = _TABLE[command]
    if command == "fig4" and scenario is None:
        scenario = load_scenario(bundled_scenario_path("fig4.scenario"))
    if scenario is None:
        raise UsageError(f"command '{command}' requires --scenario")

    budget = scenario.budget if budget is None else budget
    samples = scenario.samples if samples is None else samples
    options = SimpleNamespace(
        seed=_check_seed("seed", scenario.seed if seed is None else seed),
        budget=None if budget is None else _check_positive("budget", budget),
        samples=DEFAULT_SAMPLES if samples is None else _check_count("samples", samples),
        grid_step=(DEFAULT_GRID_STEP if grid_step is None
                   else _check_grid_step("grid_step", grid_step)))
    if spends_budget and options.budget is None:
        raise UsageError(f"command '{command}' requires a budget "
                         f"(--budget or a scenario-level budget field)")

    if reads == "gaussian":
        entries = scenario.gaussian_bank()
    else:
        entries = scenario.agents()[1] if reads == _AGENTS else scenario.of_kind(reads)
    if not entries:
        needs = reads if reads == _AGENTS else f"at least one '{reads}' channel in the scenario"
        raise ScenarioValidationError(f"command '{command}' needs {needs}")
    return runner(command, entries, options)
