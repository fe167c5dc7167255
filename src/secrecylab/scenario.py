"""Scenario files and report records.

A scenario is a JSON document with an explicit ``schema_version`` and a list
of tagged channel descriptors; unknown fields are rejected rather than
ignored so config typos surface immediately.  Reports are flat records that
serialize to either a fixed-column CSV or a JSON mirror; all numbers are
rendered with 12 significant digits so reruns are byte-identical and
machine-diffable.  Every float in a report is finite, with no exception; a
quantity that has no finite value goes in as a string (the harness writes
the zero-secrecy sentinel as ``"lambda": "inf"``).

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
from json.encoder import encode_basestring_ascii

from .channels import (
    AgentChannel,
    FadingWiretapChannel,
    GaussianWiretapChannel,
    to_agent_channel,
)
from .discrete import DiscreteWiretapChannel
from .errors import (
    InvalidInputError,
    NumericalError,
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


#: Types of value that hold no float.
_NO_FLOATS = frozenset((str, int, bool, type(None)))


def _nonfinite_field(value, clean):
    """Name and value of the first non-finite float in a dict, list or tuple, or None.

    The name is the key path, each key as ``.key`` and each index as
    ``[i]``, e.g. ``(".argmax_pmf[1]", nan)``.  Raises ``TypeError``, as the
    JSON renderer does, for a value that is not a str, int, float, None,
    dict, list or tuple.  ``clean`` maps the ids of dicts already found
    finite to the dicts, which it keeps alive so that no id is reused while
    it is held.
    """
    if isinstance(value, dict):
        items = value.items()
    elif _NO_FLOATS.issuperset(map(type, value)):
        return None
    else:
        items = enumerate(value)
    for key, item in items:
        kind = type(item)
        if kind is float:
            if not math.isfinite(item):
                return _key_name(key), item
        elif kind in _NO_FLOATS or id(item) in clean:
            continue
        elif isinstance(item, (dict, list, tuple)):
            found = _nonfinite_field(item, clean)
            if found is not None:
                return _key_name(key) + found[0], found[1]
        elif not isinstance(item, (str, int, float)):
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        elif isinstance(item, float) and not math.isfinite(item):
            return _key_name(key), item
    if isinstance(value, dict):
        clean[id(value)] = value
    return None


def _key_name(key):
    return f"[{key}]" if isinstance(key, int) else f".{key}"


def _check_finite(rec, clean):
    """Raise :class:`NumericalError` naming the record and field of a non-finite float."""
    found = _nonfinite_field(vars(rec), clean)
    if found is not None:
        name, value = found
        raise NumericalError(
            f"report record (experiment {rec.experiment!r}, channel_id {rec.channel_id!r}): "
            f"{name[1:]} is {value!r}; a report holds finite numbers only")


class _NonFinite(Exception):
    """A non-finite float met by the JSON renderer; the caller names the field."""


def _json_records(records):
    """Each record's fields as ``json.dumps(indent=2, sort_keys=True)`` lays
    them out inside the report's top-level list.

    A float is rounded to 12 significant digits and shown as the ``repr`` of
    the rounded value; a non-finite one raises :class:`_NonFinite`.  A list
    of ints is joined in one call, and a dict shared by many records renders
    once per report and depth.
    """
    memo = {}       # (id(dict), indent) -> its text
    seen = []       # the dicts in memo, held so that no id is reused
    heads = {}      # key -> its JSON string and the ": " after it
    int_texts = {}  # int -> its text; ids recur across the lists of a report

    def value_text(value, indent):
        kind = type(value)
        if kind is float:
            text = f"{value:.12g}"
            # Text with a point and no exponent is already repr(float(text)):
            # no shorter decimal names the double nearest a 12-digit one, and
            # repr writes numbers of this size without an exponent too.
            if "." not in text or "e" in text:
                if not math.isfinite(value):
                    raise _NonFinite
                text = repr(float(text))
            return text
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is int:
            return int.__repr__(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, dict):
            if not value:
                return "{}"
            text = memo.get((id(value), indent))
            if text is None:
                text = memo[id(value), indent] = dict_text(value, indent)
                seen.append(value)
            return text
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            inner = indent + "  "
            if set(map(type, value)) == {int}:
                try:
                    body = f",\n{inner}".join(map(int_texts.__getitem__, value))
                except KeyError:
                    int_texts.update(zip(value, map(int.__repr__, value)))
                    body = f",\n{inner}".join(map(int_texts.__getitem__, value))
            else:
                body = f",\n{inner}".join([value_text(item, inner) for item in value])
            return f"[\n{inner}{body}\n{indent}]"
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            return value_text(float(value), indent)
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def dict_text(d, indent):
        inner = indent + "  "
        parts = []
        for key in sorted(d):
            head = heads.get(key)
            if head is None:
                if not isinstance(key, str):
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
                head = heads[key] = encode_basestring_ascii(key) + ": "
            parts.append(head + value_text(d[key], inner))
        body = f",\n{inner}".join(parts)
        return f"{{\n{inner}{body}\n{indent}}}"

    for rec in records:
        try:
            yield dict_text(vars(rec), "  ")
        except _NonFinite:
            _check_finite(rec, {})
            raise


def render(records, format):
    """Serialize records to a string in the given format (csv or json).

    Raises :class:`NumericalError` naming the field of a non-finite float
    anywhere in a record, and ``TypeError`` for a value of a type JSON
    cannot hold, in either format.
    """
    if format == "csv":
        clean = {}
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            _check_finite(rec, clean)
            writer.writerow(_record_to_csv_row(rec))
        return buf.getvalue()
    if format == "json":
        body = ",\n  ".join(_json_records(records))
        return f"[\n  {body}\n]\n" if body else "[]\n"
    raise InvalidInputError(f"unknown report format {format!r}")


def emit(records, format, path):
    """Write records to ``path`` (or stdout for ``\"-\"``) as CSV or JSON.

    CSV uses the fixed column set :data:`CSV_COLUMNS`; a header row is
    always written, so an empty record list produces a header-only file.
    JSON mirrors each record exactly, laid out as ``json.dumps(indent=2,
    sort_keys=True)`` does.  Float fields carry 12 significant digits in
    both formats, making repeated runs byte-identical.  A non-finite float
    anywhere in a record raises :class:`NumericalError` before the file is
    opened, so no partial report is written.
    """
    text = render(records, format)
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
