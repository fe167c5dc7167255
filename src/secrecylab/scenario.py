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

The ``gaussian`` and ``agent-snr`` entries are checked and held by column:
the loader checks their fields and every id over whole columns, and each
type's bank (a :class:`~secrecylab.channels.GaussianBank` or an
:class:`~secrecylab.channels.AgentBank`), which owns the rule for its
values, checks them as it is built; it is kept inside the scenario's
:class:`ChannelList`.  When any check fails, the entries are checked again
one by one from the first, so the error raised is the first in file order,
with the message of the per-entry rules; only then, and for ``fading`` and
``discrete`` entries, are entries built one by one.  A report about a
bank's rows is a :class:`ColumnReport`, whose float columns are each
checked once for finiteness.  The record writers write it: per row shape,
one template record, with a slot in its id and in each column field, is
laid out once, and each row fills the slots with its own texts.  A CSV
line is built cell by cell: each cell but a slot is quoted by the
:mod:`csv` row writer, and each column value that is not an int, a bool
or None goes through the same quoting.  A record of the tail is a template
with no slot.  So the bytes and the messages are those the same rows give
as :class:`ReportRecord` objects.
"""

import bisect
import csv
import io
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .channels import (
    AgentBank,
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
)

SCHEMA_VERSION = 1

#: The record field that holds each CSV column after ``channel_id``.
_CSV_FIELDS = {"A": "inputs", "E": "inputs", "power": "outputs", "rate_bits": "outputs",
               "pair_with": "outputs", "efficiency": "outputs", "seed": "metadata"}
#: Fixed CSV column set, in order.
CSV_COLUMNS = ("experiment", "channel_id", *_CSV_FIELDS)

_TOP_LEVEL_KEYS = {"schema_version", "seed", "budget", "samples", "channels"}


@dataclass(frozen=True)
class ScenarioChannel:
    """One tagged channel from a scenario: kind, id, and the typed object."""

    kind: str
    id: int
    channel: object


class ChannelList(Sequence):
    """A scenario's channels in file order, with the gaussian and agent-snr ones held by column.

    ``banks`` maps each channel type of :data:`_BANKS` to its bank and the
    file positions of its entries, in ascending order; indexing one of them
    builds its :class:`ScenarioChannel` on demand.  ``others`` maps the
    position of every other entry to its ScenarioChannel, in file order.
    """

    def __init__(self, banks, others):
        self.banks, self.others = banks, others

    @classmethod
    def of(cls, channels):
        """The list holding a sequence of :class:`ScenarioChannel`."""
        channels = list(channels)
        banks = {}
        for kind, bank_cls in _BANKS.items():
            held = [(pos, sc) for pos, sc in enumerate(channels) if sc.kind == kind]
            columns = ([getattr(sc.channel, key) for _pos, sc in held]
                       for key in CHANNEL_SCHEMA[kind][1])
            banks[kind] = (bank_cls([sc.id for _pos, sc in held], *columns),
                           [pos for pos, _sc in held])
        return cls(banks, {pos: sc for pos, sc in enumerate(channels) if sc.kind not in _BANKS})

    def __len__(self):
        return len(self.others) + sum(len(bank) for bank, _positions in self.banks.values())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[pos] for pos in range(len(self))[index]]
        pos = range(len(self))[index]
        sc = self.others.get(pos)
        if sc is None:
            for kind, (bank, positions) in self.banks.items():
                row = bisect.bisect_left(positions, pos)
                if row < len(positions) and positions[row] == pos:
                    return ScenarioChannel(kind=kind, id=bank.ids[row], channel=bank[row])
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
        return self.channels.banks["gaussian"][0]

    def of_kind(self, kind):
        """Channels of one kind, as (position, ScenarioChannel) pairs."""
        if kind in self.channels.banks:
            return [(pos, self.channels[pos]) for pos in self.channels.banks[kind][1]]
        return [(pos, sc) for pos, sc in self.channels.others.items() if sc.kind == kind]

    def agents(self):
        """The agent view of the scenario: the file positions and one AgentBank.

        Covers ``agent-snr`` entries directly and ``fading`` entries through
        their noise-normalized SNRs (:func:`~secrecylab.channels.to_agent_channel`),
        in file order.
        """
        bank, positions = self.channels.banks["agent-snr"]
        fading = [(pos, to_agent_channel(sc.channel, sc.id))
                  for pos, sc in self.channels.others.items() if sc.kind == "fading"]
        if not fading:
            return positions, bank
        rows = sorted([*zip(positions, bank.ids, bank.main_snr, bank.eaves_snr),
                       *((pos, ch.id, ch.main_snr, ch.eaves_snr) for pos, ch in fading)])
        positions, *columns = map(list, zip(*rows))
        return positions, AgentBank(*columns)

    def agent_bank(self):
        """The agent view of :meth:`agents`, as (position, AgentChannel) pairs."""
        return list(zip(*self.agents()))


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
    """Report rows held as columns, in one or more shapes, then a few records.

    A shape is ``(ids, inputs, outputs)``: its row ``i`` stands for the
    record ``ReportRecord(experiment, ids[i], {key: inputs[key][i]},
    {key: outputs[key][i]}, metadata)``.  ``ids`` are ints; ``inputs`` and
    ``outputs`` map str field names to columns with one value per id.  A
    column holding a float is held as a float array; a column of ints, strs,
    bools and Nones, or a :class:`Suffixes`, is kept as it is.  ``metadata``
    is shared by every row.  Built here, a report has one shape; built by
    :meth:`of_shapes`, its rows take their shapes in a given order.  The
    records in ``tail`` (a summary row, say) follow the rows.
    :func:`render` writes one template record per shape and fills it with
    each row's own texts; indexing builds a row's record.  A report compares
    equal to the list of its records, as that list does, and adding a list
    of records gives a list of records.
    """

    def __init__(self, experiment, ids, inputs, outputs, metadata, tail=()):
        self.experiment, self.metadata, self.tail = experiment, metadata, list(tail)
        self.shapes, self.order = [self._shape(ids, inputs, outputs)], None

    @classmethod
    def of_shapes(cls, experiment, shapes, order, metadata, tail=()):
        """A report whose ``shapes`` are ``(ids, inputs, outputs)`` triples;
        ``order`` lists each row's shape, by its index in ``shapes``, in
        report order."""
        report = cls(experiment, *shapes[0], metadata, tail)
        report.shapes += [cls._shape(*shape) for shape in shapes[1:]]
        report.order = list(order)
        if sorted(report.order) != [s for s, (ids, *_) in enumerate(report.shapes) for _ in ids]:
            raise InvalidInputError("order: expected each shape once for each of its ids")
        return report

    @staticmethod
    def _shape(ids, inputs, outputs):
        ids = list(ids)
        if not all(issubclass(kind, int) and kind is not bool for kind in set(map(type, ids))):
            raise InvalidInputError("ids: expected an int for each row")
        if not all(isinstance(key, str) for key in (*inputs, *outputs)):
            raise InvalidInputError("columns: expected a str name for each")
        return ids, *({key: _one_per_id(key, _column(values), len(ids))
                       for key, values in d.items()} for d in (inputs, outputs))

    def __len__(self):
        return sum(len(ids) for ids, _inputs, _outputs in self.shapes) + len(self.tail)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        if i >= len(self) - len(self.tail):
            return self.tail[i - len(self) + len(self.tail)]
        shape = 0 if self.order is None else self.order[i]
        row = i if self.order is None else self.order[:i].count(shape)
        ids, inputs, outputs = self.shapes[shape]
        return ReportRecord(
            experiment=self.experiment, channel_id=ids[row],
            inputs={key: _item(column, row) for key, column in inputs.items()},
            outputs={key: _item(column, row) for key, column in outputs.items()},
            metadata=self.metadata)

    def __eq__(self, other):
        return isinstance(other, (list, ColumnReport)) and list(self) == list(other)

    __hash__ = None  # unhashable, as a list is

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

    def _report_row(self, shape, row):
        """The report row number of a shape's row ``row``."""
        if self.order is None:
            return row
        return [i for i, s in enumerate(self.order) if s == shape][row]

    def _rows(self, id_text, column_texts, template_parts):
        """The texts of each row, as a tuple, in report order, then those of each tail record.

        Each shape with rows has one template record, whose id and each
        column field hold a :class:`_Slot`.  ``template_parts(template)``
        gives its text as parts: literal text at even places and slot
        numbers at odd ones.  Slot ``k`` takes row ``i``'s text from
        ``fills[k][i]``: ``id_text`` of each id for the id, and
        ``column_texts`` of each column for its fields.  A tail record is a
        template with no slot.
        """
        texts = []
        for ids, inputs, outputs in self.shapes:
            if not ids:  # a template that stands for no row is not rendered
                texts.append(iter(()))
                continue
            columns = [*inputs.values(), *outputs.values()]
            slots = [_Slot(f"\0{k}\0") for k in range(len(columns) + 1)]
            template = ReportRecord(self.experiment, slots[0], dict(zip(inputs, slots[1:])),
                                    dict(zip(outputs, slots[1 + len(inputs):])), self.metadata)
            fills = [map(id_text, ids), *map(column_texts, columns)]
            texts.append(_filled(template_parts(template), fills, len(ids)))
        rows = texts[0] if self.order is None else map(next, map(texts.__getitem__, self.order))
        return chain(rows, *(_filled(template_parts(rec), [], 1) for rec in self.tail))


class Suffixes(Sequence):
    """A report column whose row ``i`` holds the tuple ``values[starts[i]:]``.

    ``values`` hold no float.  The JSON writer renders them once, and each
    row's text is a slice of that text.
    """

    def __init__(self, values, starts):
        self.values, self.starts = values, list(starts)
        if not _NO_FLOATS.issuperset(map(type, values)):
            raise InvalidInputError("values: expected no float")

    def __len__(self):
        return len(self.starts)

    def __getitem__(self, row):
        return tuple(self.values[self.starts[row]:])


def _column(values):
    """A column of a :class:`ColumnReport`, as it holds it."""
    if isinstance(values, Suffixes) or (
            not isinstance(values, np.ndarray) and _NO_FLOATS.issuperset(map(type, values))):
        return values
    return np.asarray(values, dtype=float)


def _item(column, row):
    value = column[row]
    return value.item() if isinstance(value, np.generic) else value


class _Slot(str):
    """A field of a :class:`ColumnReport`'s template record, which each row
    fills with its own text.

    Its text is its slot number between NULs, which JSON never writes raw.
    """


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
#: The channel types held by column, and the bank that holds each; a bank
#: takes the ids and then the type's fields, in the order of CHANNEL_SCHEMA.
_BANKS = {"gaussian": GaussianBank, "agent-snr": AgentBank}


def _channel_args(ctx, entry):
    """An entry's type, the class it builds and its field values."""
    if not isinstance(entry, dict):
        raise ScenarioValidationError(f"{ctx}: expected an object")
    kind = entry.get("type")
    if not isinstance(kind, str) or kind not in CHANNEL_SCHEMA:
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
    """The channels, with the entries of each type in :data:`_BANKS` checked and held by column.

    Checks those entries' fields, and every id, over whole columns, and
    leaves their values to the banks; builds every other entry as
    :func:`_channel_entries` does.  Accepts exactly what that accepts.
    Returns None where any check fails (or an entry is of a subclass of
    dict), so that :func:`_channel_entries` names the first failure.
    """
    held = {kind: ([], []) for kind in _BANKS}   # type -> its entries and their positions
    others = {}
    # Each error caught is a failed check: a missing field (KeyError), a type
    # that is a list or a dict (TypeError), a bad value or a bad other entry.
    try:
        for pos, entry in enumerate(raw_channels):
            if type(entry) is not dict:
                return None
            rows = held.get(entry.get("type"))
            if rows is not None:
                rows[0].append(entry)
                rows[1].append(pos)
            else:
                others[pos] = _channel_entry(f"{source}.channels[{pos}]", pos, entry)
        ids = [entry.get("id", pos + 1) for pos, entry in enumerate(raw_channels)]
        if not (set(map(type, ids)) <= {int} and len(set(ids)) == len(ids)):
            return None
        banks = {}
        for kind, (rows, positions) in held.items():
            columns = [[row[key] for row in rows] for key in CHANNEL_SCHEMA[kind][1]]
            if not all(row.keys() <= _ALLOWED_KEYS[kind] for row in rows):
                return None
            banks[kind] = (_BANKS[kind]([ids[pos] for pos in positions], *columns), positions)
    except (KeyError, TypeError, InvalidInputError, ScenarioValidationError):
        return None
    return ChannelList(banks, others)


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


def _csv_quoted(text):
    """A CSV cell's text as the :mod:`csv` row writer of a report writes it."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([text])
    return line.getvalue()[:-1] if text else ""  # the writer quotes a row of one empty cell


#: Types of value that hold no float.
_NO_FLOATS = frozenset((str, int, bool, type(None)))
#: Types of value whose CSV text is never quoted.
_UNQUOTED = frozenset((int, bool, type(None)))


def _nonfinite_field(value):
    """Name and value of the first non-finite float in a dict, list or tuple, or None.

    The name is the key path, each key as ``.key`` and each index as
    ``[i]``, e.g. ``(".argmax_pmf[1]", nan)``.  Raises ``TypeError``, as the
    JSON renderer does, for a dict key that is not a str, and for a value
    that is not a str, int, float, None, dict, list or tuple.
    """
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
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
    each float column is then checked once, and the first row, in report
    order, holding a non-finite float is walked to name its field.  The
    other columns hold no float.
    """
    if len(report) > len(report.tail):
        _check_finite(report[0])
    bad = [report._report_row(shape, int(finite.argmin()))
           for shape, (_ids, inputs, outputs) in enumerate(report.shapes)
           for finite in (np.isfinite(column) for column in (*inputs.values(), *outputs.values())
                          if isinstance(column, np.ndarray))
           if not finite.all()]
    if bad:
        _check_finite(report[min(bad)])


#: Where the value of a column sits in a JSON report: in the inputs or
#: outputs dict of a record in the top-level list.
_COLUMN_INDENT = " " * 6
#: What follows each record of a JSON report but the last.
_JSON_SEP = ",\n  "


def _float_texts(values):
    """The JSON texts of finite floats: each rounded to 12 significant digits
    and shown as the ``repr`` of the rounded value."""
    texts = [f"{value:.12g}" for value in values]
    # Text with a point and no exponent is already repr(float(text)): no
    # shorter decimal names the double nearest a 12-digit one, and repr
    # writes numbers of this size without an exponent too.
    return [text if "." in text and "e" not in text else repr(float(text)) for text in texts]


def _json_text(value, indent):
    """The text of a value at ``indent`` as ``json.dumps(indent=2, sort_keys=True)``
    writes it, with each float, finite, rounded to 12 significant digits and
    shown as the ``repr`` of the rounded value."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_texts((value,))[0]
    if value is None or kind is bool:
        return {None: "null", True: "true", False: "false"}[value]
    inner = indent + "  "
    if isinstance(value, dict):
        return _json_block("{}", [f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
                                  for key in sorted(value)], indent)
    if isinstance(value, (list, tuple)):
        return _json_block("[]", [_json_text(item, inner) for item in value], indent)
    if isinstance(value, str):
        return value if kind is _Slot else encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_block(brackets, items, indent):
    """A JSON list or dict holding the given item texts, one per line, under ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _json_texts(column):
    """The JSON texts of a column of a :class:`ColumnReport`."""
    if isinstance(column, np.ndarray):
        return _float_texts(column.tolist())
    if not isinstance(column, Suffixes):
        return [_json_text(value, _COLUMN_INDENT) for value in column]
    # A row's list is "[", a newline and the indent, then one slice of the
    # text of all the values: from the value at the row's start to the end.
    inner = _COLUMN_INDENT + "  "
    texts = [_json_text(value, inner) for value in column.values]
    whole = _json_block("[]", texts, _COLUMN_INDENT)
    offsets = list(accumulate((len(text) + len(inner) + 2 for text in texts),
                              initial=len(inner) + 2))
    return [f"[\n{inner}{whole[offsets[start]:]}" if start < len(texts) else "[]"
            for start in column.starts]


def _filled(parts, fills, n):
    """The ``n`` rows of a template in ``parts``: literal text at even places
    and a slot number ``k`` at odd ones, which row ``i`` fills with
    ``fills[k][i]``.  Each row is the tuple of its texts, to be joined."""
    return zip(*[fills[int(part)] if k % 2 else repeat(part, n) for k, part in enumerate(parts)])


def _json_parts(template):
    """A template record's JSON text and separator, as the parts :func:`_filled` takes."""
    return (_json_text(vars(template), "  ") + _JSON_SEP).split("\0")


def _csv_texts(column):
    """The CSV cells of a column of a :class:`ColumnReport`, each quoted as
    :func:`_csv_parts` quotes a cell; a float, an int, a bool or None needs
    no quoting."""
    if type(column) is np.ndarray:
        return map(_fmt12, column.tolist())
    if isinstance(column, Suffixes) or not _UNQUOTED.issuperset(map(type, column)):
        return map(_csv_quoted, map(_csv_cell, column))
    return map(_csv_cell, column)


def _csv_parts(template):
    """A template record's CSV line, one cell per name of :data:`CSV_COLUMNS`,
    as the parts :func:`_filled` takes: each slot cell is found by its
    place, and each other cell is quoted by :func:`_csv_quoted`."""
    parts = [""]  # each cell followed by a comma, the last one's replaced by the line's end
    for cell in (template.experiment, template.channel_id,
                 *(getattr(template, part).get(key) for key, part in _CSV_FIELDS.items())):
        if type(cell) is _Slot:
            parts += [cell[1:-1], ","]
        else:
            parts[-1] += _csv_quoted(_csv_cell(cell)) + ","
    parts[-1] = parts[-1][:-1] + "\n"
    return parts


def render(records, format):
    """Serialize records to a string in the given format (csv or json).

    Raises :class:`NumericalError` naming the field of a non-finite float
    anywhere in a record, and ``TypeError`` for a dict key that is not a
    str or a value of a type JSON cannot hold, in either format: the first
    of these in report order, and in each record in field order.
    """
    if format not in ("csv", "json"):
        raise InvalidInputError(f"unknown report format {format!r}")
    if not isinstance(records, ColumnReport):  # records alone: a report with no column rows
        records = ColumnReport(None, [], {}, {}, None, records)
    _check_columns(records)
    for rec in records.tail:
        _check_finite(rec)
    if format == "csv":
        return "".join([",".join(CSV_COLUMNS) + "\n",
                        *chain.from_iterable(records._rows(str, _csv_texts, _csv_parts))])
    # Each record as json.dumps(indent=2, sort_keys=True) lays it out in the
    # top-level list, each followed by the separator; the texts of all rows
    # are joined once, with the last separator replaced by the list's end.
    texts = ["[\n  ", *chain.from_iterable(records._rows(int.__repr__, _json_texts, _json_parts))]
    texts[-1] = texts[-1][:-len(_JSON_SEP)] + "\n]\n"
    return "".join(texts) if len(texts) > 1 else "[]\n"


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
