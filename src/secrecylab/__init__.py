"""secrecylab: secrecy capacities of parallel wiretap channel banks.

Library layout:

- :mod:`secrecylab.channels`: gaussian and fading link types and
  single-link secrecy rates
- :mod:`secrecylab.allocation`: water-filling budget splits and fading
  power policies with Monte Carlo calibration
- :mod:`secrecylab.discrete`: finite-alphabet rates, grid capacity search,
  eavesdropper aggregation
- :mod:`secrecylab.cooperation`: the agent model (agents, agent banks,
  qualification), greedy helper pairing, matching oracle,
  secrecy-efficiency metrics; imports no numpy
- :mod:`secrecylab.scenario` / :mod:`secrecylab.harness` /
  :mod:`secrecylab.report` / :mod:`secrecylab.cli`: scenario files,
  experiment runs, report records and their CSV/JSON writers, the command
  line
"""

__version__ = "0.1.0"

from .channels import (
    ChannelState,
    FadingWiretapChannel,
    GaussianBank,
    GaussianWiretapChannel,
    gaussian_secrecy_rate,
    instantaneous_fading_secrecy_rate,
)
from .allocation import (
    AllocationResult,
    FadingPolicy,
    awgn_waterfill,
    calibrate_fading_lambda,
    ergodic_secrecy_capacity,
    fading_power,
    power_at_lambda,
    sum_secrecy_rate,
)
from .discrete import (
    DiscretePmf,
    DiscreteWiretapChannel,
    aggregated_eavesdropper_rate,
    bsc,
    max_secrecy_rate_grid,
    mutual_information,
    parallel_sum_rate,
    secrecy_rate_discrete,
)
from .cooperation import (
    AgentBank,
    AgentChannel,
    FeasibleSet,
    PairingPlan,
    SortedBank,
    classify,
    efficiency_pair,
    efficiency_qualified,
    feasible_set,
    greedy_pairing,
    is_qualified,
    max_matching_oracle,
    pick_probability_monte_carlo,
    pr_picking_k,
    qualified_rate,
    qualified_rates,
    to_agent_channel,
)
from .errors import (
    InvalidInputError,
    InvalidPairError,
    NumericalError,
    ScenarioError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    UnsupportedSizeError,
    UsageError,
)
from .report import ColumnReport, ReportRecord, emit
from .scenario import Scenario, load_scenario
from .harness import run, substream

import types as _types

__all__ = [name for name, obj in list(globals().items())
           if not name.startswith("_") and not isinstance(obj, _types.ModuleType)]
