"""The report module on its own: no numpy, and CSV that reads back cell for cell."""

import csv
import io
import json
import pathlib
import subprocess
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

import secrecylab.report
# Suffixes is used by eval(TWO_SHAPES).
from secrecylab.report import CSV_COLUMNS, ColumnReport, ReportRecord, Suffixes, render  # noqa: F401

#: A two-shape report with a tail, cells that CSV quotes, an int column, a
#: column of ints and floats and a Suffixes column, as source, so that a
#: process with no numpy builds the same report.
TWO_SHAPES = """ColumnReport.of_shapes(
    "pair",
    [([4, 2], {"A": [1.5, 2], "E": [0.25, 3.0]}, {"role": ["helped", 'a,"b"\\r']}),
     ([9], {"A": [7]}, {"pair_with": [4], "efficiency": [1 / 3],
                       "members": Suffixes([9, 4], [1])})],
    [0, 1, 0], {"seed": 3, "tolerances": {"tol": 1e-9}},
    [ReportRecord("pair", "summary", outputs={"power": 2.5}, metadata={"seed": 3})])"""

#: Imports the report module with numpy unimportable and the package's
#: ``__init__`` not run; prints both renderings and the package modules loaded.
NO_NUMPY = """
import json, sys, types
sys.modules["numpy"] = None
package = types.ModuleType("secrecylab")
package.__path__ = [sys.argv[1]]
sys.modules["secrecylab"] = package
from secrecylab.report import ColumnReport, ReportRecord, Suffixes, render
report = eval(sys.argv[2])
print(json.dumps([render(report, "csv"), render(report, "json"),
                  sorted(name for name in sys.modules if name.startswith("secrecylab"))]))
"""


def test_report_needs_no_numpy():
    package = pathlib.Path(secrecylab.report.__file__).parent
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY, str(package), TWO_SHAPES],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    csv_text, json_text, modules = json.loads(proc.stdout)
    report = eval(TWO_SHAPES)
    assert csv_text == render(report, "csv")
    assert json_text == render(report, "json")
    assert modules == ["secrecylab", "secrecylab.errors", "secrecylab.report"]


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
