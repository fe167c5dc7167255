"""Scenario loading/validation and report serialization."""

import csv
import io
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecylab import (
    InvalidInputError,
    NumericalError,
    ReportRecord,
    ScenarioSyntaxError,
    ScenarioValidationError,
    classify,
    load_scenario,
)
from secrecylab.harness import bundled_scenario_path
from secrecylab.report import CSV_COLUMNS, render


def write_scenario(tmp_path, doc, name="test.scenario"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


MINIMAL = {
    "schema_version": 1,
    "channels": [{"type": "gaussian", "sigma_m_sq": 1.0, "sigma_w_sq": 3.0}],
}


class TestLoadScenario:
    def test_minimal_gaussian_scenario(self, tmp_path):
        scenario = load_scenario(write_scenario(tmp_path, MINIMAL))
        assert len(scenario.channels) == 1
        assert scenario.seed == 0
        assert scenario.channels[0].kind == "gaussian"
        assert scenario.channels[0].id == 1

    def test_channel_list_repr_shows_banked_and_other_entries(self, tmp_path):
        doc = dict(MINIMAL, channels=[*MINIMAL["channels"], {
            "type": "fading", "a": 2.0, "b": 1.0, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}])
        assert repr(load_scenario(write_scenario(tmp_path, doc)).channels) == (
            "ChannelList([ScenarioChannel(kind='gaussian', id=1, "
            "channel=GaussianWiretapChannel(sigma_m_sq=1.0, sigma_w_sq=3.0)), "
            "ScenarioChannel(kind='fading', id=2, channel=FadingWiretapChannel("
            "a=2.0, b=1.0, sigma_m_sq=1.0, sigma_w_sq=1.0))])")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "nope.scenario")

    def test_syntax_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.scenario"
        path.write_text('{\n  "schema_version": 1,\n  "channels": [,]\n}\n')
        with pytest.raises(ScenarioSyntaxError, match=r":3:\d+"):
            load_scenario(path)

    def test_invariant_violation_names_the_channel(self, tmp_path):
        doc = {"schema_version": 1,
               "channels": [
                   {"type": "gaussian", "sigma_m_sq": 1.0, "sigma_w_sq": 3.0},
                   {"type": "gaussian", "sigma_m_sq": -1.0, "sigma_w_sq": 3.0},
               ]}
        with pytest.raises(ScenarioValidationError, match=r"channels\[1\]\.sigma_m_sq"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_unknown_top_level_field_rejected(self, tmp_path):
        doc = dict(MINIMAL, extra_knob=3)
        with pytest.raises(ScenarioValidationError, match="extra_knob"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_unknown_channel_field_rejected(self, tmp_path):
        doc = {"schema_version": 1,
               "channels": [{"type": "gaussian", "sigma_m_sq": 1.0,
                             "sigma_w_sq": 3.0, "sigma_typo": 1.0}]}
        with pytest.raises(ScenarioValidationError, match="sigma_typo"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_wrong_schema_version_rejected(self, tmp_path):
        doc = dict(MINIMAL, schema_version=2)
        with pytest.raises(ScenarioValidationError, match="schema_version"):
            load_scenario(write_scenario(tmp_path, doc))
        with pytest.raises(ScenarioValidationError, match="schema_version"):
            load_scenario(write_scenario(tmp_path, {"channels": MINIMAL["channels"]}))

    def test_duplicate_ids_rejected(self, tmp_path):
        doc = {"schema_version": 1,
               "channels": [
                   {"type": "gaussian", "id": 7, "sigma_m_sq": 1.0, "sigma_w_sq": 3.0},
                   {"type": "gaussian", "id": 7, "sigma_m_sq": 1.0, "sigma_w_sq": 2.0},
               ]}
        with pytest.raises(ScenarioValidationError, match="duplicate"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_bad_seed_rejected(self, tmp_path):
        for bad in (-1, 2 ** 64, "abc", 1.5):
            doc = dict(MINIMAL, seed=bad)
            with pytest.raises(ScenarioValidationError, match="seed"):
                load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("key, value, message", [
        ("seed", True, "expected a 64-bit unsigned integer, got True"),
        ("budget", True, "expected a finite number, got True"),
        ("budget", 10 ** 400, "expected a finite number"),
        ("budget", 0, "expected a positive value, got 0"),
        ("samples", True, "expected a positive integer, got True"),
        ("samples", 2.0, "expected a positive integer, got 2.0"),
    ], ids=["seed-bool", "budget-bool", "budget-huge-int", "budget-zero", "samples-bool",
            "samples-float"])
    def test_bad_top_level_number_names_the_field(self, tmp_path, key, value, message):
        path = write_scenario(tmp_path, dict(MINIMAL, **{key: value}))
        with pytest.raises(ScenarioValidationError, match=rf"\.{key}: {message}"):
            load_scenario(path)

    def test_integer_fields_report_as_floats(self, tmp_path):
        from secrecylab import run

        doc = {"schema_version": 1, "budget": 2,
               "channels": [{"type": "gaussian", "sigma_m_sq": 1, "sigma_w_sq": 3},
                            {"type": "agent-snr", "main_snr": 4, "eaves_snr": 1}]}
        scenario = load_scenario(write_scenario(tmp_path, doc))
        assert scenario.budget == 2.0 and type(scenario.budget) is float
        text = render(run("rate", scenario) + run("pair", scenario), "json")
        for field in ('"sigma_m_sq": 1.0', '"sigma_w_sq": 3.0', '"A": 4.0', '"E": 1.0'):
            assert field in text

    def test_empty_channel_list_rejected(self, tmp_path):
        doc = {"schema_version": 1, "channels": []}
        with pytest.raises(ScenarioValidationError, match="channels"):
            load_scenario(write_scenario(tmp_path, doc))

    def test_discrete_channel_round_trips(self, tmp_path):
        doc = {"schema_version": 1,
               "channels": [{"type": "discrete",
                             "main": [[0.9, 0.1], [0.1, 0.9]],
                             "eaves": [[0.7, 0.3], [0.3, 0.7]]}]}
        scenario = load_scenario(write_scenario(tmp_path, doc))
        assert scenario.channels[0].channel.num_inputs == 2

    def test_bad_discrete_matrix_names_channel(self, tmp_path):
        doc = {"schema_version": 1,
               "channels": [{"type": "discrete",
                             "main": [[0.9, 0.2], [0.1, 0.9]],
                             "eaves": [[0.7, 0.3], [0.3, 0.7]]}]}
        with pytest.raises(ScenarioValidationError, match=r"channels\[0\]"):
            load_scenario(write_scenario(tmp_path, doc))


#: One valid entry per channel type.
VALID_ENTRIES = {
    "gaussian": {"type": "gaussian", "sigma_m_sq": 1.0, "sigma_w_sq": 3.0},
    "fading": {"type": "fading", "a": 2.0, "b": 1.0, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0},
    "agent-snr": {"type": "agent-snr", "main_snr": 1.0, "eaves_snr": 2.5},
    "discrete": {"type": "discrete", "main": [[0.9, 0.1], [0.1, 0.9]],
                 "eaves": [[0.7, 0.3], [0.3, 0.7]]},
}

MISSING = object()


def bad_fields():
    """(type, field, bad value, expected message) for each required field."""
    def case(kind, key, value, message):
        label = "missing" if value is MISSING else repr(value)
        return pytest.param(kind, key, value, message, id=f"{kind}.{key}={label}")

    for kind, entry in VALID_ENTRIES.items():
        for key in sorted(set(entry) - {"type"}):
            field = rf"channels\[1\]\.{key}: "
            yield case(kind, key, MISSING, field + "missing required field")
            if kind == "discrete":
                continue
            for value in ("1.0", True, None, float("inf"), float("nan")):
                yield case(kind, key, value, field + "expected a finite number")
            for value in (0.0, -2.5):
                yield case(kind, key, value, field + "expected a positive value")
    for key in ("main", "eaves"):
        field = rf"channels\[1\]\.{key}: "
        for value in ([["x", 1.0], [0.1, 0.9]], [[{}, 1.0], [0.1, 0.9]], [[0.9, 0.1], [1.0]]):
            yield case("discrete", key, value, field + "must be a rectangular array of numbers")
        yield case("discrete", key, [[-0.3, 1.3], [0.3, 0.7]], field + "contains negative entries")


class TestChannelFields:
    """Every channel type's bad fields raise errors naming channels[i] and the field."""

    @staticmethod
    def load_second(tmp_path, entry):
        doc = {"schema_version": 1, "channels": [VALID_ENTRIES["gaussian"], entry]}
        return load_scenario(write_scenario(tmp_path, doc))

    @pytest.mark.parametrize("kind", sorted(VALID_ENTRIES))
    def test_valid_entry_loads(self, tmp_path, kind):
        scenario = self.load_second(tmp_path, VALID_ENTRIES[kind])
        assert (scenario.channels[1].kind, scenario.channels[1].id) == (kind, 2)

    @pytest.mark.parametrize("kind, key, value, message", list(bad_fields()))
    def test_bad_field(self, tmp_path, kind, key, value, message):
        entry = {k: v for k, v in VALID_ENTRIES[kind].items() if k != key}
        if value is not MISSING:
            entry[key] = value
        with pytest.raises(ScenarioValidationError, match=message):
            self.load_second(tmp_path, entry)

    @pytest.mark.parametrize("kind", sorted(VALID_ENTRIES))
    def test_unknown_type(self, tmp_path, kind):
        entry = dict(VALID_ENTRIES[kind], type=kind.upper())
        with pytest.raises(ScenarioValidationError,
                           match=r"channels\[1\]\.type: unknown channel type"):
            self.load_second(tmp_path, entry)

    @pytest.mark.parametrize("kind", sorted(VALID_ENTRIES))
    def test_unknown_field(self, tmp_path, kind):
        with pytest.raises(ScenarioValidationError, match=r"channels\[1\]: .*'extra'"):
            self.load_second(tmp_path, dict(VALID_ENTRIES[kind], extra=1.0))


class TestBundledScenario:
    def test_fig4_scenario_parses_and_classifies(self):
        scenario = load_scenario(bundled_scenario_path("fig4.scenario"))
        assert len(scenario.channels) == 9
        _positions, bank = scenario.agents()
        qualified, disqualified = classify(bank)
        assert (len(qualified), len(disqualified)) == (3, 6)


class TestEmit:
    def test_empty_records_give_header_only_csv(self):
        text = render([], "csv")
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def test_single_allocation_record_row(self):
        rec = ReportRecord(experiment="allocate", channel_id=1,
                           outputs={"power": 2.0, "rate_bits": 0.5},
                           metadata={"seed": 0})
        lines = render([rec], "csv").splitlines()
        assert len(lines) == 2
        assert lines[1] == "allocate,1,,,2,0.5,,,0"

    def test_twelve_significant_digits(self):
        rec = ReportRecord(experiment="rate", channel_id=1,
                           outputs={"rate_bits": 0.123456789012345678},
                           metadata={"seed": 0})
        assert "0.123456789012" in render([rec], "csv")
        payload = json.loads(render([rec], "json"))
        assert payload[0]["outputs"]["rate_bits"] == 0.123456789012

    def test_json_mirrors_record(self):
        rec = ReportRecord(experiment="pair", channel_id=4,
                           inputs={"A": 1.0, "E": 2.0},
                           outputs={"pair_with": 6, "efficiency": 0.3},
                           metadata={"seed": 9})
        payload = json.loads(render([rec], "json"))
        assert payload == [{
            "experiment": "pair", "channel_id": 4,
            "inputs": {"A": 1.0, "E": 2.0},
            "outputs": {"pair_with": 6, "efficiency": 0.3},
            "metadata": {"seed": 9},
        }]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("fields, name", [
        ({"outputs": {"rate_bits": math.nan}}, "outputs.rate_bits"),
        ({"outputs": {"rate_bits": np.float64("nan")}}, "outputs.rate_bits"),
        ({"inputs": {"A": math.inf}}, "inputs.A"),
        ({"metadata": {"seed": 0, "tolerances": {"budget_tol": -math.inf}}},
         "metadata.tolerances.budget_tol"),
        ({"outputs": {"argmax_pmf": [0.5, math.nan]}}, r"outputs.argmax_pmf\[1\]"),
        ({"outputs": {"lambda": math.inf}}, "outputs.lambda"),
        ({"outputs": {"lambda": math.inf, "zero_secrecy": 1}}, "outputs.lambda"),
        ({"outputs": {"lambda": -math.inf, "zero_secrecy": True}}, "outputs.lambda"),
        ({"outputs": {"lambda": math.nan, "zero_secrecy": True}}, "outputs.lambda"),
        ({"outputs": {"lambda": math.inf, "zero_secrecy": True, "power": math.inf}},
         "outputs.lambda"),
        ({"channel_id": math.inf}, "channel_id"),
        ({"outputs": {"lambda": math.inf, "zero_secrecy": True}}, "outputs.lambda"),
    ])
    def test_nonfinite_float_outside_the_sentinel_raises(self, fmt, fields, name):
        rec = ReportRecord(**{"experiment": "ergodic", "channel_id": 3, **fields})
        with pytest.raises(NumericalError,
                           match=rf"experiment 'ergodic', channel_id .*\): {name} is "):
            render([ReportRecord(experiment="ok", channel_id=1), rec], fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("outputs, kind", [
        ({"rate_bits": np.float32("nan")}, "float32"),
        ({"pair_with": np.int64(4)}, "int64"),
        ({"argmax_pmf": [0.5, np.float32(0.5)]}, "float32"),
    ])
    def test_a_value_json_cannot_hold_raises_in_either_format(self, fmt, outputs, kind):
        rec = ReportRecord(experiment="x", channel_id=1, outputs=outputs)
        with pytest.raises(TypeError, match=f"^Object of type {kind} is not JSON serializable$"):
            render([rec], fmt)

    def test_json_rejects_a_key_that_is_not_a_string(self):
        rec = ReportRecord(experiment="x", channel_id=1, outputs={1: 0.5})
        with pytest.raises(TypeError, match="^report keys must be str, not int$"):
            render([rec], "json")

    def test_csv_cell_of_each_type(self):
        rec = ReportRecord(experiment="x", channel_id="summary", inputs={"A": True, "E": False},
                           outputs={"power": 2, "rate_bits": 1 / 3}, metadata={"seed": None})
        assert render([rec], "csv").splitlines()[1] == "x,summary,true,false,2,0.333333333333,,,"

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidInputError, match="^unknown report format 'xml'$"):
            render([], "xml")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_writes_nothing_when_a_number_is_not_finite(self, tmp_path, fmt):
        from secrecylab import emit

        rec = ReportRecord(experiment="rate", channel_id=1, outputs={"rate_bits": math.inf})
        fresh, kept = tmp_path / f"fresh.{fmt}", tmp_path / f"kept.{fmt}"
        kept.write_text("earlier report\n")
        for out in (fresh, kept):
            with pytest.raises(NumericalError):
                emit([rec], fmt, str(out))
        assert not fresh.exists()
        assert kept.read_text() == "earlier report\n"

    def test_emit_writes_file(self, tmp_path):
        from secrecylab import emit

        rec = ReportRecord(experiment="rate", channel_id=1, metadata={"seed": 0})
        out = tmp_path / "report.csv"
        emit([rec], "csv", str(out))
        assert out.read_text().startswith("experiment,")

    def test_scenario_numbers_survive_run_and_emit(self, tmp_path):
        """Numeric scenario fields round-trip into reports at 12 digits."""
        from secrecylab import run
        from secrecylab.report import render

        awkward = 2.12345678901234567
        doc = {"schema_version": 1,
               "channels": [{"type": "agent-snr", "main_snr": awkward,
                             "eaves_snr": 3.14159265358979}]}
        scenario = load_scenario(write_scenario(tmp_path, doc))
        records = run("pair", scenario)
        payload = json.loads(render(records, "json"))
        assert payload[0]["inputs"]["A"] == float(f"{awkward:.12g}")
        assert payload[0]["inputs"]["E"] == float(f"{3.14159265358979:.12g}")
        row = render(records, "csv").splitlines()[1].split(",")
        assert row[2] == f"{awkward:.12g}"

    @pytest.mark.parametrize("command", ["allocate-fading", "ergodic"])
    def test_harness_writes_the_zero_secrecy_sentinel_as_a_string(self, command):
        from secrecylab import run

        scenario = load_scenario(pathlib.Path(__file__).parent / "data" / "reports"
                                 / "zero-secrecy.scenario")
        [record] = run(command, scenario)
        assert record.outputs["zero_secrecy"] is True
        assert record.outputs["lambda"] == "inf"


def _round_floats(obj):
    """Reference rounding for ``json.dumps``: every float to 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


class _Int(int):
    """An int subclass, which ``json.dumps`` writes as its int value."""


class _Str(str):
    """A str subclass, which ``json.dumps`` writes as its str value."""


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOATS = st.one_of(FINITE, FINITE.map(np.float64),
                   st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300,
                                    1.7976931348623157e308, 0.1 + 0.2]))
SCALARS = st.one_of(FLOATS, st.integers(), st.integers(2 ** 63, 2 ** 200), st.booleans(),
                    st.none(), st.text(max_size=6), st.integers().map(_Int),
                    st.text(max_size=6).map(_Str))
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.lists(st.one_of(st.integers(), FLOATS), max_size=6),
                               st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12)
DICTS = st.dictionaries(st.text(max_size=6), VALUES, max_size=4)


@st.composite
def report_records(draw):
    """Records of any JSON-able shape; some share one metadata dict, some hold
    the zero-secrecy sentinel as the harness writes it, and the shared dict
    may recur deeper down."""
    shared = draw(DICTS)
    records = []
    for _ in range(draw(st.integers(0, 4))):
        outputs = draw(DICTS)
        if draw(st.booleans()):
            outputs.update({"lambda": "inf", "zero_secrecy": True})
        if draw(st.booleans()):
            outputs["nested"] = shared
        records.append(ReportRecord(
            experiment=draw(st.text(max_size=6)),
            channel_id=draw(st.one_of(st.integers(), st.just("summary"))),
            inputs=draw(DICTS), outputs=outputs,
            metadata=shared if draw(st.booleans()) else draw(DICTS)))
    return records


@settings(max_examples=200, deadline=None)
@given(report_records())
def test_json_report_bytes_match_json_dumps(records):
    expected = json.dumps([_round_floats(vars(rec)) for rec in records],
                          indent=2, sort_keys=True) + "\n"
    assert render(records, "json") == expected


def _csv_cell(value):
    """Reference text of one CSV cell, before the csv module quotes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


#: Text that CSV quotes, writes raw, or that a writer could take for a marker.
CSV_TEXTS = st.one_of(st.text(st.sampled_from(list('{}",\n\r\0 a')), max_size=6),
                      st.text(max_size=4))
CSV_VALUES = st.one_of(VALUES, CSV_TEXTS)


@st.composite
def csv_records(draw):
    """Records whose CSV fields hold values of any JSON-able kind, or are absent."""
    def fields(names):
        return {key: draw(CSV_VALUES) for key in names if draw(st.booleans())}

    return [ReportRecord(experiment=draw(CSV_TEXTS),
                         channel_id=draw(st.one_of(st.integers(), CSV_TEXTS)),
                         inputs=fields(["A", "E", "sigma_m_sq"]),
                         outputs=fields(["power", "rate_bits", "pair_with", "efficiency"]),
                         metadata=fields(["seed", "versions"]))
            for _ in range(draw(st.integers(0, 3)))]


@settings(max_examples=200, deadline=None)
@given(csv_records())
def test_csv_report_bytes_match_the_csv_writer(records):
    def line(cells):
        # A writer quotes the characters of its line terminator: with "\r\n",
        # a cell holding either line break is quoted (RFC 4180).
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(cells)
        return buf.getvalue()[:-2] + "\n"

    expected = [line(CSV_COLUMNS)]
    for rec in records:
        expected.append(line(map(_csv_cell, [
            rec.experiment, rec.channel_id, rec.inputs.get("A"), rec.inputs.get("E"),
            *map(rec.outputs.get, ["power", "rate_bits", "pair_with", "efficiency"]),
            rec.metadata.get("seed")])))
    assert render(records, "csv") == "".join(expected)
