"""Report records and their CSV and JSON writers.

Reports are flat records that serialize to either a fixed-column CSV or a
JSON mirror; all numbers are rendered with 12 significant digits so reruns
are byte-identical and machine-diffable.  Every float in a report is
finite, with no exception; a quantity that has no finite value goes in as a
string (the harness writes the zero-secrecy sentinel as ``"lambda":
"inf"``).

A report about a bank's rows is a :class:`ColumnReport`, whose float
columns are each held as a list of floats and checked once for finiteness.
The record writers write it: per row shape, one template record, with a
slot in its id and in each column field, is laid out once, and each row
fills the slots with its own texts.  A CSV line is built cell by cell, and
every cell, a template's or a row's, is quoted by one rule: where it holds
a comma, a quote, a carriage return or a line feed, it is put in quotes
with its quotes doubled (RFC 4180).  A record of the tail is a template
with no slot.  So the bytes and the messages are those the same rows give
as :class:`ReportRecord` objects.

This module imports nothing else from the package but
:mod:`secrecylab.errors`, nor numpy.
"""

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, count, repeat
from json.encoder import encode_basestring_ascii

from .errors import InvalidInputError, NumericalError, _one_per_id

#: The record field that holds each CSV column after ``channel_id``.
_CSV_FIELDS = {"A": "inputs", "E": "inputs", "power": "outputs", "rate_bits": "outputs",
               "pair_with": "outputs", "efficiency": "outputs", "seed": "metadata"}
#: Fixed CSV column set, in order.
CSV_COLUMNS = ("experiment", "channel_id", *_CSV_FIELDS)


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
    ``outputs`` map str field names to columns with one value per id (a
    str or bytes is one value, not a column).  A column holding a float is
    held as a list of floats, each value converted by ``float`` once, here,
    and so is any array (anything with an ``astype`` method), through
    ``astype(float)``; a column of ints, strs, bools and Nones, or a
    :class:`Suffixes`, is kept as it is.
    ``metadata`` is shared by every row.  Built here, a report has one
    shape; built by :meth:`of_shapes`, its rows take their shapes in a
    given order.  The records in ``tail`` (a summary row, say) follow the
    rows.  :func:`render` writes one template record per shape and fills it
    with each row's own texts; indexing builds a row's record.  A report
    compares equal to the list of its records, as that list does, and
    adding a list of records gives a list of records.
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
        # Each report row's place in its shape.
        places = [count() for _ in report.shapes]
        report.places = [next(places[shape]) for shape in report.order]
        return report

    @staticmethod
    def _shape(ids, inputs, outputs):
        ids = list(ids)
        if not all(issubclass(kind, int) and kind is not bool for kind in set(map(type, ids))):
            raise InvalidInputError("ids: expected an int for each row")
        if not all(isinstance(key, str) for key in (*inputs, *outputs)):
            raise InvalidInputError("columns: expected a str name for each")
        return ids, *({key: _column(key, values, len(ids)) for key, values in d.items()}
                      for d in (inputs, outputs))

    def __len__(self):
        return sum(len(ids) for ids, _inputs, _outputs in self.shapes) + len(self.tail)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        if i >= len(self) - len(self.tail):
            return self.tail[i - len(self) + len(self.tail)]
        shape, row = (0, i) if self.order is None else (self.order[i], self.places[i])
        ids, inputs, outputs = self.shapes[shape]
        return ReportRecord(
            experiment=self.experiment, channel_id=ids[row],
            inputs={key: column[row] for key, column in inputs.items()},
            outputs={key: column[row] for key, column in outputs.items()},
            metadata=self.metadata)

    def __eq__(self, other):
        return isinstance(other, (list, ColumnReport)) and list(self) == list(other)

    __hash__ = None  # unhashable, as a list is

    def __add__(self, other):
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)

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


class _Floats(list):
    """A float column of a :class:`ColumnReport`: a list of floats."""


def _column(name, values, n):
    """A column of a :class:`ColumnReport` with one value for each of ``n`` ids, as it holds it."""
    if isinstance(values, (str, bytes, bytearray)):
        raise InvalidInputError(
            f"{name}: expected a column of values, got a {type(values).__name__}")
    values = _one_per_id(name, values, n)
    if hasattr(values, "astype"):  # an array, of any number type
        return _Floats(values.astype(float).tolist())
    if isinstance(values, Suffixes) or _NO_FLOATS.issuperset(map(type, values)):
        return values
    return _Floats(map(float, values))


class _Slot(str):
    """A field of a :class:`ColumnReport`'s template record, which each row
    fills with its own text.

    Its text is its slot number between NULs, which JSON never writes raw.
    """


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _csv_quoted(text):
    """A CSV cell's text, in quotes with its quotes doubled where it holds a
    comma, a quote or a line break (RFC 4180)."""
    return text if _CSV_SPECIAL.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


#: The characters that put a CSV cell in quotes.
_CSV_SPECIAL = frozenset(',"\r\n')
#: Types of value that hold no float.
_NO_FLOATS = frozenset((str, int, bool, type(None)))


def _nonfinite_field(value):
    """Name and value of the first non-finite float in a dict, list or tuple, or None.

    The name is the key path, each key as ``.key`` and each index as
    ``[i]``, e.g. ``(".argmax_pmf[1]", nan)``.  Raises ``TypeError``, as
    ``json.dumps`` does, for a dict key that is not a str, and for a value
    that is not a str, int, float, None, dict, list or tuple; :func:`render`
    checks each record here before a writer meets it.
    """
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
        items = value.items()
    elif _NO_FLOATS.issuperset(map(type, value)):  # one pass over pick-prob row 0's long id tuple
        return None
    else:
        items = enumerate(value)
    for key, item in items:
        if isinstance(item, float):
            if not math.isfinite(item):
                return _key_name(key), item
        elif isinstance(item, (dict, list, tuple)):
            found = _nonfinite_field(item)
            if found is not None:
                return _key_name(key) + found[0], found[1]
        elif not (item is None or isinstance(item, (str, int))):
            raise TypeError(f"Object of type {type(item).__name__} is not JSON serializable")
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
    each float column is then checked once.  Only where one holds a
    non-finite float are the rows walked, in report order, so the first
    row holding one names its field.  The other columns hold no float.
    """
    rows = len(report) - len(report.tail)
    if rows:
        _check_finite(report[0])
    if not all(all(map(math.isfinite, column)) for _ids, inputs, outputs in report.shapes
               for column in (*inputs.values(), *outputs.values()) if type(column) is _Floats):
        for i in range(1, rows):
            _check_finite(report[i])


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
    shown as the ``repr`` of the rounded value.  The value holds only the
    types :func:`_nonfinite_field` lets pass."""
    if type(value) is int:  # ahead of the ladder: pick-prob's JSON holds thousands of plain ints
        return int.__repr__(value)
    if value is None or value is True or value is False:
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, str):
        return value if type(value) is _Slot else encode_basestring_ascii(value)
    if isinstance(value, float):
        return _float_texts((value,))[0]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        return _json_block("{}", [f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
                                  for key in sorted(value)], indent)
    return _json_block("[]", [_json_text(item, inner) for item in value], indent)


def _json_block(brackets, items, indent):
    """A JSON list or dict holding the given item texts, one per line, under ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    body = f",\n{inner}".join(items)
    return f"{brackets[0]}\n{inner}{body}\n{indent}{brackets[1]}"


def _json_texts(column):
    """The JSON texts of a column of a :class:`ColumnReport`."""
    if type(column) is _Floats:
        return _float_texts(column)
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
    """The CSV cells of a column of a :class:`ColumnReport`, each quoted by
    :func:`_csv_quoted`; a float needs no quoting."""
    if type(column) is _Floats:
        return map("{:.12g}".format, column)
    return map(_csv_quoted, map(_csv_cell, column))


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
