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

The ``gaussian`` entries are checked and held by column: their fields,
types and gains, and every id, are checked over whole columns, and the
bank is kept as one :class:`~secrecylab.channels.GaussianBank` inside the
scenario's :class:`ChannelList`.  When any check fails, the entries are
checked again one by one from the first, so the error raised is the first
in file order, with the message of the per-entry rules.  Other entries are
built one by one.  A report about a bank's links is a :class:`ColumnReport`,
whose float columns are each checked once for finiteness.  The record
writers write it: one template record, with a slot in its id and in each
float field, goes through the CSV row writer or the JSON dict writer once,
and each row fills the slots with its own texts.  So the bytes and the
messages are those the same rows give as :class:`ReportRecord` objects.
"""

import bisect
import csv
import io
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from json.encoder import encode_basestring_ascii
from string import Formatter

import numpy as np

from .channels import (
    AgentChannel,
    FadingWiretapChannel,
    GaussianBank,
    GaussianWiretapChannel,
    _one_per_id,
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
    _finite_numbers,
)

SCHEMA_VERSION = 1

#: Fixed CSV column set, in order.
CSV_COLUMNS = ("experiment", "channel_id", "A", "E", "power", "rate_bits", "pair_with",
               "efficiency", "seed")

_TOP_LEVEL_KEYS = {"schema_version", "seed", "budget", "samples", "channels"}


@dataclass(frozen=True)
class ScenarioChannel:
    """One tagged channel from a scenario: kind, id, and the typed object."""

    kind: str
    id: int
    channel: object


class ChannelList(Sequence):
    """A scenario's channels in file order, with the gaussian ones held by column.

    ``bank`` is a :class:`~secrecylab.channels.GaussianBank` of the gaussian
    entries, whose file positions ``positions`` lists in ascending order;
    indexing one of them builds its :class:`ScenarioChannel` on demand.
    ``others`` maps the position of every other entry to its
    ScenarioChannel, in file order.
    """

    def __init__(self, bank, positions, others):
        self.bank, self.positions, self.others = bank, positions, others

    @classmethod
    def of(cls, channels):
        """The list holding a sequence of :class:`ScenarioChannel`."""
        channels = list(channels)
        gaussian = [(pos, sc) for pos, sc in enumerate(channels) if sc.kind == "gaussian"]
        bank = GaussianBank([sc.id for _pos, sc in gaussian],
                            [sc.channel.sigma_m_sq for _pos, sc in gaussian],
                            [sc.channel.sigma_w_sq for _pos, sc in gaussian])
        others = {pos: sc for pos, sc in enumerate(channels) if sc.kind != "gaussian"}
        return cls(bank, [pos for pos, _sc in gaussian], others)

    def __len__(self):
        return len(self.bank) + len(self.others)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[pos] for pos in range(len(self))[index]]
        pos = range(len(self))[index]
        sc = self.others.get(pos)
        if sc is None:
            row = bisect.bisect_left(self.positions, pos)
            bank = self.bank
            sc = ScenarioChannel(kind="gaussian", id=bank.ids[row], channel=GaussianWiretapChannel(
                bank.sigma_m_sq[row].item(), bank.sigma_w_sq[row].item()))
        return sc

    def __eq__(self, other):
        # Equal as the tuple of its entries is, with the same hash.
        return isinstance(other, (tuple, ChannelList)) and tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"ChannelList({list(self)!r})"


@dataclass(frozen=True)
class Scenario:
    """A parsed experiment configuration.

    ``channels`` is a :class:`ChannelList`; a sequence of
    :class:`ScenarioChannel` given here is held as one.
    """

    channels: ChannelList
    seed: int = 0
    budget: float = None
    samples: int = None

    def __post_init__(self):
        if not isinstance(self.channels, ChannelList):
            object.__setattr__(self, "channels", ChannelList.of(self.channels))

    def gaussian_bank(self):
        """The ``gaussian`` channels as one GaussianBank, in file order."""
        return self.channels.bank

    def of_kind(self, kind):
        """Channels of one kind, as (position, ScenarioChannel) pairs."""
        if kind == "gaussian":
            return [(pos, self.channels[pos]) for pos in self.channels.positions]
        return [(pos, sc) for pos, sc in self.channels.others.items() if sc.kind == kind]

    def agent_bank(self):
        """Agent-SNR view of the scenario, as (position, AgentChannel) pairs.

        Covers ``agent-snr`` entries directly and ``fading`` entries through
        their noise-normalized SNRs.
        """
        bank = []
        for pos, sc in self.channels.others.items():
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


class ColumnReport(Sequence):
    """Report rows about the links of a bank, held as columns, then a few records.

    Row ``i`` stands for the record ``ReportRecord(experiment, ids[i],
    {key: inputs[key][i]}, {key: outputs[key][i]}, metadata)``: ``ids``
    are ints, ``inputs`` and ``outputs`` map field names to float columns
    with one value per id, and ``metadata`` is shared by every row.  The
    records in ``tail`` (a summary row, say) follow the rows.
    :func:`render` writes one template record that stands for every row and
    fills it with each row's own texts; indexing builds a row's record.  A
    report compares equal to the list of its records, as that list does, and
    adding a list of records gives a list of records.
    """

    def __init__(self, experiment, ids, inputs, outputs, metadata, tail=()):
        self.experiment, self.ids, self.metadata = experiment, list(ids), metadata
        if not all(issubclass(kind, int) and kind is not bool for kind in set(map(type, self.ids))):
            raise InvalidInputError("ids: expected an int for each row")
        self.inputs, self.outputs = ({key: _one_per_id(key, np.asarray(values, dtype=float),
                                                       len(self.ids))
                                      for key, values in d.items()} for d in (inputs, outputs))
        self.tail = list(tail)

    def __len__(self):
        return len(self.ids) + len(self.tail)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        if i >= len(self.ids):
            return self.tail[i - len(self.ids)]
        return ReportRecord(
            experiment=self.experiment, channel_id=self.ids[i],
            inputs={key: column[i].item() for key, column in self.inputs.items()},
            outputs={key: column[i].item() for key, column in self.outputs.items()},
            metadata=self.metadata)

    def __eq__(self, other):
        return isinstance(other, (list, ColumnReport)) and list(self) == list(other)

    __hash__ = None  # unhashable, as a list is

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def _template(self, id_text, float_texts):
        """The record that stands for every row, and the texts that fill it.

        Its id and each float field hold a :class:`_Slot`; slot ``k`` takes
        row ``i``'s text from ``fills[k][i]``: ``id_text`` of each id for
        the id, and ``float_texts`` of each column's values for its floats.
        """
        columns = [*self.inputs.values(), *self.outputs.values()]
        slots = [_Slot(f"\0{k}\0") for k in range(len(columns) + 1)]
        fills = [map(id_text, self.ids), *(float_texts(c.tolist()) for c in columns)]
        return ReportRecord(self.experiment, slots[0], dict(zip(self.inputs, slots[1:])),
                            dict(zip(self.outputs, slots[1 + len(self.inputs):])),
                            self.metadata), fills


class _Slot(str):
    """A field of a :class:`ColumnReport`'s template record, which each row
    fills with its own text.

    Its text is its slot number between NULs, which JSON never writes raw;
    ``str`` of a slot is the slot itself, so a CSV cell keeps its type.
    """

    def __str__(self):
        return self


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

    channels = _channel_columns(raw_channels, source)
    if channels is None:
        channels = _channel_entries(raw_channels, source)
    return Scenario(channels=channels, seed=seed, budget=budget, samples=samples)


def _channel_entry(ctx, pos, entry):
    """The ScenarioChannel of the entry at ``pos``, checked on its own."""
    kind, cls, args = _channel_args(ctx, entry)
    cid = entry.get("id", pos + 1)
    try:
        built = cls(cid, *args) if cls is AgentChannel else cls(*args)
    except InvalidInputError as exc:
        raise ScenarioValidationError(f"{ctx}.{exc}") from exc
    if not isinstance(cid, int) or isinstance(cid, bool):
        raise ScenarioValidationError(f"{ctx}.id: expected an integer, got {cid!r}")
    return ScenarioChannel(kind=kind, id=cid, channel=built)


def _channel_entries(raw_channels, source):
    """The channels, checked entry by entry; raises at the first failure in file order."""
    channels = []
    seen_ids = set()
    for pos, entry in enumerate(raw_channels):
        ctx = f"{source}.channels[{pos}]"
        sc = _channel_entry(ctx, pos, entry)
        if sc.id in seen_ids:
            raise ScenarioValidationError(f"{ctx}.id: duplicate channel id {sc.id}")
        seen_ids.add(sc.id)
        channels.append(sc)
    return ChannelList.of(channels)


def _channel_columns(raw_channels, source):
    """The channels, with the ``gaussian`` entries checked and held by column.

    Checks the gaussian entries' shape, field types and gains, and every
    id, over whole columns; builds every other entry as
    :func:`_channel_entries` does.  Accepts exactly what that accepts.
    Returns None where any check fails (or an entry is of a subclass of
    dict), so that :func:`_channel_entries` names the first failure.
    """
    positions, rows, others = [], [], {}
    for pos, entry in enumerate(raw_channels):
        if type(entry) is not dict:
            return None
        if entry.get("type") == "gaussian":
            positions.append(pos)
            rows.append(entry)
        else:
            try:
                others[pos] = _channel_entry(f"{source}.channels[{pos}]", pos, entry)
            except ScenarioValidationError:
                return None
    allowed = _ALLOWED_KEYS["gaussian"]
    if not all(row.keys() <= allowed for row in rows):
        return None
    try:
        columns = [[row[key] for row in rows] for key in CHANNEL_SCHEMA["gaussian"][1]]
    except KeyError:
        return None
    ids = [entry.get("id", pos + 1) for pos, entry in enumerate(raw_channels)]
    if not (set(map(type, ids)) <= {int} and len(set(ids)) == len(ids)
            and all(map(_finite_numbers, columns))):
        return None
    try:
        bank = GaussianBank([ids[pos] for pos in positions], *columns)
    except InvalidInputError:
        return None
    return ChannelList(bank, positions, others)


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
    # One cell per name of CSV_COLUMNS, in order.
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


def _nonfinite_field(value):
    """Name and value of the first non-finite float in a dict, list or tuple, or None.

    The name is the key path, each key as ``.key`` and each index as
    ``[i]``, e.g. ``(".argmax_pmf[1]", nan)``.  Raises ``TypeError``, as the
    JSON renderer does, for a value that is not a str, int, float, None,
    dict, list or tuple.
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
        elif kind in _NO_FLOATS:
            continue
        elif isinstance(item, (dict, list, tuple)):
            found = _nonfinite_field(item)
            if found is not None:
                return _key_name(key) + found[0], found[1]
        elif not isinstance(item, (str, int, float)):
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        elif isinstance(item, float) and not math.isfinite(item):
            return _key_name(key), item
    return None


def _key_name(key):
    return f"[{key}]" if isinstance(key, int) else f".{key}"


def _check_finite(rec):
    """Raise :class:`NumericalError` naming the record and field of a non-finite float."""
    found = _nonfinite_field(vars(rec))
    if found is not None:
        name, value = found
        raise NumericalError(
            f"report record (experiment {rec.experiment!r}, channel_id {rec.channel_id!r}): "
            f"{name[1:]} is {value!r}; a report holds finite numbers only")


def _check_columns(report):
    """:func:`_check_finite` for each row of a :class:`ColumnReport`.

    The first row, which holds the shared metadata, is walked as a record;
    each float column is then checked once, and the first row holding a
    non-finite float is walked to name its field.
    """
    if not report.ids:
        return
    _check_finite(report[0])
    columns = (*report.inputs.values(), *report.outputs.values())
    bad = [int(finite.argmin()) for finite in map(np.isfinite, columns) if not finite.all()]
    if bad:
        _check_finite(report[min(bad)])


class _NonFinite(Exception):
    """A non-finite float met by the JSON renderer; the caller names the field."""


def _float_texts(values):
    """The JSON texts of finite floats, as :func:`_json_records` renders one."""
    texts = [f"{value:.12g}" for value in values]
    return [text if "." in text and "e" not in text else repr(float(text)) for text in texts]


def _json_records(records):
    """Each record's fields as ``json.dumps(indent=2, sort_keys=True)`` lays
    them out inside the report's top-level list.

    A float is rounded to 12 significant digits and shown as the ``repr`` of
    the rounded value; a non-finite one raises :class:`_NonFinite`.  A list
    of ints is joined in one call, and a dict shared by many records renders
    once per report and depth.  A :class:`ColumnReport`'s template record is
    rendered once, and each row joins its literal text with the row's own id
    and float texts in the template's slots; its ``tail`` records follow.
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
            # _float_texts states the same rule for a column.
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
            return value if kind is _Slot else encode_basestring_ascii(value)
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            return value_text(float(value), indent)
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def head_text(key):
        head = heads.get(key)
        if head is None:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            head = heads[key] = encode_basestring_ascii(key) + ": "
        return head

    def dict_text(d, indent):
        inner = indent + "  "
        parts = []
        for key in sorted(d):
            head = heads.get(key)
            if head is None:
                head = head_text(key)
            parts.append(head + value_text(d[key], inner))
        body = f",\n{inner}".join(parts)
        return f"{{\n{inner}{body}\n{indent}}}"

    if isinstance(records, ColumnReport):
        if records.ids:  # else the template stands for no row, and is not rendered
            template, fills = records._template(int.__repr__, _float_texts)
            yield from _filled(dict_text(vars(template), "  ").split("\0"), fills, len(records.ids))
        records = records.tail
    for rec in records:
        try:
            yield dict_text(vars(rec), "  ")
        except _NonFinite:
            _check_finite(rec)
            raise


def _filled(parts, fills, n):
    """The ``n`` rows of a template in ``parts``: literal text at even places
    and a slot number ``k`` at odd ones, which row ``i`` fills with
    ``fills[k][i]``."""
    return map("".join, zip(*[fills[int(part)] if k % 2 else repeat(part, n)
                              for k, part in enumerate(parts)]))


def render(records, format):
    """Serialize records to a string in the given format (csv or json).

    Raises :class:`NumericalError` naming the field of a non-finite float
    anywhere in a record, and ``TypeError`` for a value of a type JSON
    cannot hold, in either format.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        if isinstance(records, ColumnReport):
            _check_columns(records)
            template, fills = records._template(str, lambda values: map(_fmt12, values))
            # Each slot cell goes in as a numbered format field and each other
            # cell with its braces doubled; parsing the line as a format string
            # gives back the literal text between the slots, as written.
            line = io.StringIO()
            csv.writer(line, lineterminator="\n").writerow(
                [f"{{{cell[1:-1]}}}" if type(cell) is _Slot
                 else cell.replace("{", "{{").replace("}", "}}")
                 for cell in _record_to_csv_row(template)])
            parts = [""]
            for literal, slot, _spec, _conv in Formatter().parse(line.getvalue()):
                parts[-1] += literal
                if slot is not None:
                    parts += [slot, ""]
            buf.writelines(_filled(parts, fills, len(records.ids)))
            records = records.tail
        for rec in records:
            _check_finite(rec)
            writer.writerow(_record_to_csv_row(rec))
        return buf.getvalue()
    if format == "json":
        if isinstance(records, ColumnReport):
            _check_columns(records)
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
