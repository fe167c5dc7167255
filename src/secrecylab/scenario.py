"""Scenario files and report records.

A scenario is a JSON document with an explicit ``schema_version`` and a list
of tagged channel descriptors; unknown fields are rejected rather than
ignored so config typos surface immediately.  Reports are flat records that
serialize to either a fixed-column CSV or a JSON mirror; all numbers are
rendered with 12 significant digits so reruns are byte-identical and
machine-diffable.

Scenario schema (version 1)::

    {
      "schema_version": 1,
      "seed": 0,                 // optional, default 0; 64-bit unsigned
      "budget": 10.0,            // optional; required by allocation commands
      "samples": 100000,         // optional; Monte Carlo sample count
      "channels": [
        {"type": "gaussian",  "sigma_m_sq": 1.0, "sigma_w_sq": 3.0},
        {"type": "fading",    "a": 2.0, "b": 1.0,
         "sigma_m_sq": 1.0, "sigma_w_sq": 1.0},
        {"type": "agent-snr", "main_snr": 1.0, "eaves_snr": 2.5},
        {"type": "discrete",  "main": [[0.9, 0.1], [0.1, 0.9]],
                              "eaves": [[0.7, 0.3], [0.3, 0.7]]}
      ]
    }

Every channel may carry an optional integer ``id`` (default: its 1-based
position); ids must be unique.
"""

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

from .channels import (
    AgentChannel,
    FadingWiretapChannel,
    GaussianWiretapChannel,
    to_agent_channel,
)
from .discrete import DiscreteWiretapChannel
from .errors import (
    InvalidInputError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    _check_count,
    _check_positive,
    _check_seed,
)

SCHEMA_VERSION = 1

#: Fixed CSV column set, in order.
CSV_COLUMNS = ("experiment", "channel_id", "A", "E", "power", "rate_bits",
               "pair_with", "efficiency", "seed")

_TOP_LEVEL_KEYS = {"schema_version", "seed", "budget", "samples", "channels"}


@dataclass(frozen=True)
class ScenarioChannel:
    """One tagged channel from a scenario: kind, id, and the typed object."""

    kind: str
    id: int
    channel: object


@dataclass(frozen=True)
class Scenario:
    """A parsed experiment configuration."""

    channels: tuple
    seed: int = 0
    budget: float = None
    samples: int = None

    def of_kind(self, kind):
        """Channels of one kind, as (position, ScenarioChannel) pairs."""
        return [(pos, sc) for pos, sc in enumerate(self.channels) if sc.kind == kind]

    def agent_bank(self):
        """Agent-SNR view of the scenario, as (position, AgentChannel) pairs.

        Covers ``agent-snr`` entries directly and ``fading`` entries through
        their noise-normalized SNRs.
        """
        bank = []
        for pos, sc in enumerate(self.channels):
            if sc.kind == "agent-snr":
                bank.append((pos, sc.channel))
            elif sc.kind == "fading":
                bank.append((pos, to_agent_channel(sc.channel, sc.id)))
        return bank


@dataclass
class ReportRecord:
    """One output row of an experiment run.

    ``inputs`` holds the channel parameters the row refers to, ``outputs``
    the computed quantities, and ``metadata`` at least the seed plus any
    tolerances and versions that shaped the run.
    """

    experiment: str
    channel_id: object
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


#: Each channel ``type``: the class it builds and its required fields in the
#: class's argument order.  The class checks the field values.  An entry may
#: also carry ``type`` and ``id``; an ``agent-snr`` channel takes its id as
#: its first argument.
CHANNEL_SCHEMA = {
    "gaussian": (GaussianWiretapChannel, ("sigma_m_sq", "sigma_w_sq")),
    "fading": (FadingWiretapChannel, ("a", "b", "sigma_m_sq", "sigma_w_sq")),
    "agent-snr": (AgentChannel, ("main_snr", "eaves_snr")),
    "discrete": (DiscreteWiretapChannel, ("main", "eaves")),
}
_ALLOWED_KEYS = {kind: {"type", "id", *fields} for kind, (_, fields) in CHANNEL_SCHEMA.items()}


def _channel_args(ctx, entry):
    """An entry's type, the class it builds and its field values."""
    if not isinstance(entry, dict):
        raise ScenarioValidationError(f"{ctx}: expected an object")
    kind = entry.get("type")
    if kind not in CHANNEL_SCHEMA:
        raise ScenarioValidationError(
            f"{ctx}.type: unknown channel type {kind!r}; expected one of "
            f"{sorted(CHANNEL_SCHEMA)}")
    if not _ALLOWED_KEYS[kind].issuperset(entry):
        unknown = sorted(set(entry) - _ALLOWED_KEYS[kind])
        raise ScenarioValidationError(
            f"{ctx}: unknown field(s) {unknown} for type {kind!r}")
    cls, fields = CHANNEL_SCHEMA[kind]
    for key in fields:
        if key not in entry:
            raise ScenarioValidationError(f"{ctx}.{key}: missing required field")
    return kind, cls, [entry[key] for key in fields]


def parse_scenario(doc, source="<scenario>"):
    """Validate a decoded scenario document and build a :class:`Scenario`.

    Raises :class:`ScenarioValidationError` naming the offending field on
    any schema or invariant violation.
    """
    if not isinstance(doc, dict):
        raise ScenarioValidationError(f"{source}: top level must be an object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ScenarioValidationError(
            f"{source}: unknown top-level field(s) {sorted(unknown)}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioValidationError(
            f"{source}.schema_version: expected {SCHEMA_VERSION}, got {version!r}")

    seed, budget, samples = doc.get("seed", 0), doc.get("budget"), doc.get("samples")
    try:
        _check_seed("seed", seed)
        if budget is not None:
            budget = _check_positive("budget", budget)
        if samples is not None:
            _check_count("samples", samples)
    except InvalidInputError as exc:
        raise ScenarioValidationError(f"{source}.{exc}") from exc

    raw_channels = doc.get("channels")
    if not isinstance(raw_channels, list) or not raw_channels:
        raise ScenarioValidationError(
            f"{source}.channels: expected a non-empty list of channel objects")

    channels = []
    seen_ids = set()
    for pos, entry in enumerate(raw_channels):
        ctx = f"{source}.channels[{pos}]"
        kind, cls, args = _channel_args(ctx, entry)
        cid = entry.get("id", pos + 1)
        try:
            built = cls(cid, *args) if cls is AgentChannel else cls(*args)
        except InvalidInputError as exc:
            raise ScenarioValidationError(f"{ctx}.{exc}") from exc
        if not isinstance(cid, int) or isinstance(cid, bool):
            raise ScenarioValidationError(f"{ctx}.id: expected an integer, got {cid!r}")
        if cid in seen_ids:
            raise ScenarioValidationError(f"{ctx}.id: duplicate channel id {cid}")
        seen_ids.add(cid)
        channels.append(ScenarioChannel(kind=kind, id=cid, channel=built))

    return Scenario(channels=tuple(channels), seed=seed, budget=budget,
                    samples=samples)


def load_scenario(path):
    """Read, parse and validate a scenario file.

    Raises
    ------
    FileNotFoundError
        The file does not exist.
    ScenarioSyntaxError
        The file is not well-formed JSON (reported with line and column).
    ScenarioValidationError
        The document violates the schema or a channel invariant; the message
        names the offending field, e.g. ``channels[2].sigma_m_sq``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_scenario(doc, source=str(path))


def _fmt12(x):
    """Render a float with 12 significant digits."""
    return f"{x:.12g}"


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt12(value)
    return str(value)


def _round_floats(obj):
    """Recursively pass floats through the 12-significant-digit renderer."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return _fmt12(obj)
        return float(_fmt12(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _record_to_csv_row(rec):
    return [
        _csv_cell(rec.experiment),
        _csv_cell(rec.channel_id),
        _csv_cell(rec.inputs.get("A")),
        _csv_cell(rec.inputs.get("E")),
        _csv_cell(rec.outputs.get("power")),
        _csv_cell(rec.outputs.get("rate_bits")),
        _csv_cell(rec.outputs.get("pair_with")),
        _csv_cell(rec.outputs.get("efficiency")),
        _csv_cell(rec.metadata.get("seed")),
    ]


def render(records, format):
    """Serialize records to a string in the given format (csv or json)."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(_record_to_csv_row(rec))
        return buf.getvalue()
    if format == "json":
        payload = [_round_floats(vars(rec)) for rec in records]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise InvalidInputError(f"unknown report format {format!r}")


def emit(records, format, path):
    """Write records to ``path`` (or stdout for ``\"-\"``) as CSV or JSON.

    CSV uses the fixed column set :data:`CSV_COLUMNS`; a header row is
    always written, so an empty record list produces a header-only file.
    JSON mirrors each record exactly.  Float fields carry 12 significant
    digits in both formats, making repeated runs byte-identical.
    """
    text = render(records, format)
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
