"""secrecylab: secrecy capacities of parallel wiretap channel banks.

Library layout:

- :mod:`secrecylab.channels`: channel types and single-link secrecy rates
- :mod:`secrecylab.allocation`: water-filling budget splits and fading
  power policies with Monte Carlo calibration
- :mod:`secrecylab.discrete`: finite-alphabet rates, grid capacity search,
  eavesdropper aggregation
- :mod:`secrecylab.cooperation`: qualification, greedy helper pairing,
  matching oracle, secrecy-efficiency metrics
- :mod:`secrecylab.scenario` / :mod:`secrecylab.harness` /
  :mod:`secrecylab.cli`: scenario files, experiment runs, reports
"""

__version__ = "0.1.0"

from .channels import (
    AgentChannel,
    ChannelState,
    FadingWiretapChannel,
    GaussianBank,
    GaussianWiretapChannel,
    gaussian_secrecy_rate,
    instantaneous_fading_secrecy_rate,
    is_qualified,
    to_agent_channel,
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
    FeasibleSet,
    PairingPlan,
    SortedBank,
    classify,
    efficiency_pair,
    efficiency_qualified,
    feasible_set,
    greedy_pairing,
    max_matching_oracle,
    pick_probability_monte_carlo,
    pr_picking_k,
    qualified_rate,
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
from .scenario import ColumnReport, ReportRecord, Scenario, emit, load_scenario
from .harness import run, substream

import types as _types

__all__ = [name for name, obj in list(globals().items())
           if not name.startswith("_") and not isinstance(obj, _types.ModuleType)]
