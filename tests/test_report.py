"""The report module on its own: no numpy, and CSV that reads back cell for cell."""

import csv
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secrecylab.errors import InvalidInputError
from secrecylab.report import CSV_COLUMNS, ColumnReport, ReportRecord, render

#: Renders a two-shape report with a tail, cells that CSV quotes, an int
#: column, a column of ints and floats and a Suffixes column, in both formats.
TWO_SHAPES = """
from secrecylab.report import ColumnReport, ReportRecord, Suffixes, render
report = ColumnReport.of_shapes(
    "pair",
    [([4, 2], {"A": [1.5, 2], "E": [0.25, 3.0]}, {"role": ["helped", 'a,"b"\\r']}),
     ([9], {"A": [7]}, {"pair_with": [4], "efficiency": [1 / 3],
                       "members": Suffixes([9, 4], [1])})],
    [0, 1, 0], {"seed": 3, "tolerances": {"tol": 1e-9}},
    [ReportRecord("pair", "summary", outputs={"power": 2.5}, metadata={"seed": 3})])
result = [render(report, "csv"), render(report, "json")]
"""


def test_report_needs_no_numpy(without_numpy):
    assert without_numpy(TWO_SHAPES) == ["secrecylab", "secrecylab.errors", "secrecylab.report"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("text", ["ab", b"ab", bytearray(b"ab")])
def test_a_str_or_bytes_is_no_column(fmt, text):
    """A str or bytes is one value, not a column of its characters or bytes."""
    message = f"^E: expected a column of values, got a {type(text).__name__}$"
    with pytest.raises(InvalidInputError, match=message):
        render(ColumnReport("x", [1, 2], {"A": [1.0, 2.0], "E": text}, {}, {"seed": 0}), fmt)
    with pytest.raises(InvalidInputError, match=message.replace("E:", "role:")):
        render(ColumnReport.of_shapes("x", [([1], {}, {}), ([2, 3], {}, {"role": text})],
                                      [1, 0, 1], {"seed": 0}), fmt)


#: Text made of the characters CSV must quote, and one it need not.
TEXTS = st.text(st.sampled_from(list(',"\n\ra')), max_size=5)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
VALUES = st.one_of(TEXTS, st.integers(), st.booleans(), st.none(), FLOATS)
NOT_FLOATS = st.one_of(TEXTS, st.integers(), st.booleans(), st.none())
METADATA = st.fixed_dictionaries({"seed": st.one_of(st.integers(), TEXTS)})
INPUTS, OUTPUTS = ["A", "E"], ["power", "rate_bits", "pair_with", "efficiency"]
RECORDS = st.lists(st.builds(
    ReportRecord, experiment=TEXTS, channel_id=st.one_of(st.integers(), TEXTS),
    inputs=st.dictionaries(st.sampled_from(INPUTS), VALUES),
    outputs=st.dictionaries(st.sampled_from(OUTPUTS), VALUES), metadata=METADATA), max_size=3)


@st.composite
def column_reports(draw):
    """A report of one to three shapes of zero to three rows, in any order,
    with columns of floats or of other values, and up to three tail records."""
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 3))

        def columns(names):
            return {key: draw(st.lists(draw(st.sampled_from([FLOATS, NOT_FLOATS])),
                                       min_size=n, max_size=n))
                    for key in draw(st.lists(st.sampled_from(names), unique=True))}

        shapes.append((draw(st.lists(st.integers(), min_size=n, max_size=n)),
                       columns(INPUTS), columns(OUTPUTS)))
    order = draw(st.permutations([s for s, (ids, *_) in enumerate(shapes) for _ in ids]))
    return ColumnReport.of_shapes(draw(TEXTS), shapes, order, draw(METADATA), draw(RECORDS))


def cell(value):
    """The text a CSV reader gives back for a record's value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


@settings(max_examples=300, deadline=None)
@given(st.one_of(RECORDS, column_reports()))
@example([ReportRecord("a\rb", 1, metadata={"seed": 0})])
@example([ReportRecord("\r", "\n", {"A": '"'}, {"pair_with": ","}, {"seed": "\r\n"})])
def test_csv_reads_back_as_its_records_cells(records):
    rows = list(csv.reader(io.StringIO(render(records, "csv"), newline="")))
    assert rows == [list(CSV_COLUMNS), *([cell(value) for value in (
        rec.experiment, rec.channel_id, *map(rec.inputs.get, INPUTS),
        *map(rec.outputs.get, OUTPUTS), rec.metadata.get("seed"))] for rec in records)]
