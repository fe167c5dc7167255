"""Gaussian banks held as columns: loading, solving and writing reports.

The column loader must accept exactly what the per-entry loader accepts,
with the same contents, and reject the rest with the per-entry loader's
first message.  A column report must write the bytes its records would,
and fail on a non-finite float with the records' message.
"""

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecylab import (
    AgentChannel,
    GaussianWiretapChannel,
    InvalidInputError,
    NumericalError,
    ReportRecord,
    ScenarioValidationError,
    awgn_waterfill,
    cli,
    gaussian_secrecy_rate,
    load_scenario,
)
from secrecylab.channels import GaussianBank
from secrecylab.scenario import (
    CHANNEL_SCHEMA,
    ColumnReport,
    ScenarioChannel,
    _channel_columns,
    emit,
    render,
)


def per_entry_channels(raw_channels, source):
    """The per-entry loader, as it was before gaussian banks were loaded by
    column: ``[(kind, id, channel)]``, or the first ScenarioValidationError."""
    channels, seen_ids = [], set()
    for pos, entry in enumerate(raw_channels):
        ctx = f"{source}.channels[{pos}]"
        if not isinstance(entry, dict):
            raise ScenarioValidationError(f"{ctx}: expected an object")
        kind = entry.get("type")
        if kind not in CHANNEL_SCHEMA:
            raise ScenarioValidationError(
                f"{ctx}.type: unknown channel type {kind!r}; expected one of "
                f"{sorted(CHANNEL_SCHEMA)}")
        cls, fields = CHANNEL_SCHEMA[kind]
        if not {"type", "id", *fields}.issuperset(entry):
            unknown = sorted(set(entry) - {"type", "id", *fields})
            raise ScenarioValidationError(
                f"{ctx}: unknown field(s) {unknown} for type {kind!r}")
        for key in fields:
            if key not in entry:
                raise ScenarioValidationError(f"{ctx}.{key}: missing required field")
        args = [entry[key] for key in fields]
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
        channels.append((kind, cid, built))
    return channels


VARIANCES = st.one_of(st.floats(1e-300, 1e300), st.integers(1, 10 ** 6),
                      st.sampled_from([1e-308, 5.6e-309, 1.7976931348623157e308, 10 ** 300]))
#: Values that no variance may take.
BAD_VALUES = st.sampled_from([True, False, "1.0", None, 10 ** 400, -(10 ** 400), 0, 0.0,
                              -0.0, -1.5, 1e-320, 5.5e-309, [1.0]])
SIGMAS = ("sigma_m_sq", "sigma_w_sq")
OTHERS = ({"type": "fading", "a": 2.0, "b": 1.0, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0},
          {"type": "agent-snr", "main_snr": 1.0, "eaves_snr": 2.5})
BAD_FADING = {"type": "fading", "a": -1.0, "b": 1.0, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}
MUTATIONS = ("value", "missing", "unknown", "type", "non-object", "id", "duplicate",
             "bad-fading")


def mutate(draw, entries):
    """Break one entry (or insert a bad fading entry beside it)."""
    i = draw(st.integers(0, len(entries) - 1))
    kind = draw(st.sampled_from(MUTATIONS))
    entry = entries[i]
    if kind == "non-object":
        entries[i] = draw(st.sampled_from([None, "gaussian", [1.0, 2.0], 3]))
    elif kind == "bad-fading":
        entries.insert(draw(st.sampled_from([i, i + 1])), dict(BAD_FADING))
    elif not isinstance(entry, dict):
        return
    elif kind == "value":
        entry[draw(st.sampled_from(SIGMAS))] = draw(BAD_VALUES)
    elif kind == "missing":
        entry.pop(draw(st.sampled_from(SIGMAS)), None)
    elif kind == "unknown":
        entry["gain"] = 1.0
    elif kind == "type":
        entry["type"] = draw(st.sampled_from(["gausian", "fading", "agent-snr", None, 1]))
    elif kind == "id":
        entry["id"] = draw(st.sampled_from([True, False, 2.5, "7", None]))
    else:  # duplicate: the id another entry has, explicitly or by position
        j = draw(st.integers(0, len(entries) - 1))
        other = entries[j]
        entry["id"] = other.get("id", j + 1) if isinstance(other, dict) else j + 1


@st.composite
def mutated_banks(draw):
    """A valid gaussian bank, maybe with other entries, and zero to two mutations."""
    entries = []
    for k in range(draw(st.integers(1, 6))):
        entry = {"type": "gaussian", "sigma_m_sq": draw(VARIANCES),
                 "sigma_w_sq": draw(VARIANCES)}
        if draw(st.booleans()):
            entry["id"] = 1000 + k
        entries.append(entry)
    for _ in range(draw(st.integers(0, 3))):
        entries.insert(draw(st.integers(0, len(entries))), dict(draw(st.sampled_from(OTHERS))))
    for _ in range(draw(st.integers(0, 2))):
        mutate(draw, entries)
    return entries


@settings(max_examples=300, deadline=None)
@given(mutated_banks())
def test_column_loader_agrees_with_the_per_entry_loader(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bank.scenario")
        out = os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema_version": 1, "channels": entries}, fh)
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)["channels"]
        try:
            expected, message = per_entry_channels(raw, path), None
        except ScenarioValidationError as exc:
            expected, message = None, str(exc)

        # The column path accepts exactly what the per-entry path accepts.
        assert (_channel_columns(raw, path) is None) == (message is not None)

        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(["rate", "--scenario", path, "--budget", "1",
                             "--format", "json", "--out", out])
        if message is not None:
            assert (code, err.getvalue()) == (cli.EXIT_VALIDATION, f"error: {message}\n")
            with pytest.raises(ScenarioValidationError) as caught:
                load_scenario(path)
            assert str(caught.value) == message
            return

        scenario = load_scenario(path)
        assert len(scenario.channels) == len(expected)
        # A bank holds its variances as floats: an int variance is its float.
        assert [(sc.kind, sc.id, sc.channel) for sc in scenario.channels] == [
            (kind, cid, GaussianWiretapChannel(float(ch.sigma_m_sq), float(ch.sigma_w_sq))
             if kind == "gaussian" else ch) for kind, cid, ch in expected]
        gaussian = [(cid, ch) for kind, cid, ch in expected if kind == "gaussian"]
        bank = scenario.gaussian_bank()
        assert bank.ids == [cid for cid, _ch in gaussian]
        assert bank.sigma_m_sq.tolist() == [float(ch.sigma_m_sq) for _cid, ch in gaussian]
        assert bank.sigma_w_sq.tolist() == [float(ch.sigma_w_sq) for _cid, ch in gaussian]
        if gaussian:
            assert (code, err.getvalue()) == (cli.EXIT_OK, "")
            with open(out, encoding="utf-8") as fh:
                assert [rec["channel_id"] for rec in json.load(fh)] == bank.ids
        else:
            assert code == cli.EXIT_VALIDATION
            assert "needs at least one 'gaussian' channel" in err.getvalue()


class TestScenarioChannels:
    DOC = {"schema_version": 1, "channels": [
        {"type": "gaussian", "id": 21, "sigma_m_sq": 1.0, "sigma_w_sq": 3.0},
        {"type": "agent-snr", "main_snr": 1.0, "eaves_snr": 2.5},
        {"type": "gaussian", "sigma_m_sq": 2, "sigma_w_sq": 5.5},
    ]}

    def load(self, tmp_path, doc=DOC):
        path = tmp_path / "mixed.scenario"
        path.write_text(json.dumps(doc))
        return load_scenario(path)

    def test_gaussian_entries_are_built_on_demand(self, tmp_path):
        channels = self.load(tmp_path).channels
        assert len(channels) == 3
        assert channels[2] == ScenarioChannel("gaussian", 3, GaussianWiretapChannel(2.0, 5.5))
        assert channels[-3] == ScenarioChannel("gaussian", 21, GaussianWiretapChannel(1.0, 3.0))
        assert channels[1] == ScenarioChannel("agent-snr", 2, AgentChannel(2, 1.0, 2.5))
        assert [sc.id for sc in channels] == [21, 2, 3]
        assert [sc.id for sc in channels[1:]] == [2, 3]
        with pytest.raises(IndexError):
            channels[3]

    def test_views_keep_file_positions(self, tmp_path):
        scenario = self.load(tmp_path)
        assert [(pos, sc.id) for pos, sc in scenario.of_kind("gaussian")] == [(0, 21), (2, 3)]
        assert [(pos, agent.id) for pos, agent in scenario.agent_bank()] == [(1, 2)]
        assert scenario.gaussian_bank().ids == [21, 3]

    def test_a_scenario_built_from_entries_holds_them_as_columns(self, tmp_path):
        from secrecylab import Scenario

        loaded = self.load(tmp_path)
        built = Scenario(channels=tuple(loaded.channels))
        assert built.channels == loaded.channels
        assert built.gaussian_bank().sigma_m_sq.tolist() == [1.0, 2.0]


class TestGaussianBank:
    def test_rejects_a_variance_whose_gain_is_not_finite(self):
        with pytest.raises(InvalidInputError, match=r"^sigma_w_sq\[1\]: .* got 1e-320$"):
            GaussianBank([1, 2], [1.0, 1.0], [2.0, 1e-320])
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidInputError, match=r"^sigma_m_sq\[0\]"):
                GaussianBank([1], [bad], [1.0])
        with pytest.raises(InvalidInputError, match="one per id"):
            GaussianBank([1, 2], [1.0], [1.0, 2.0])

    def test_columns_are_read_only(self):
        bank = GaussianBank([1], [1.0], [2.0])
        for column in (bank.sigma_m_sq, *bank.gains):
            with pytest.raises(ValueError):
                column[0] = 5.0

    def test_solves_as_the_list_of_its_channels(self):
        rng = np.random.default_rng(5)
        m, w = rng.uniform(0.1, 4.0, (2, 200))
        bank = GaussianBank(range(200), m, w)
        channels = [GaussianWiretapChannel(a, b) for a, b in zip(m.tolist(), w.tolist())]
        assert len(bank) == 200
        for budget in (0.01, 3.0, 500.0):
            by_bank, by_list = awgn_waterfill(bank, budget), awgn_waterfill(channels, budget)
            assert by_bank.powers.tolist() == by_list.powers.tolist()
            assert by_bank.rates.tolist() == by_list.rates.tolist()
            assert (by_bank.lam, by_bank.sum_rate) == (by_list.lam, by_list.sum_rate)
            assert bank.secrecy_rates(budget).tolist() == [
                gaussian_secrecy_rate(budget, ch) for ch in channels]


def report(rate_bits, sigma_w_sq=(2.0, 3.0, 4.0), metadata=None):
    metadata = {"seed": 0} if metadata is None else metadata
    summary = ReportRecord(experiment="rate", channel_id="summary",
                           outputs={"power": 3.0}, metadata=metadata)
    return ColumnReport("rate", [5, 7, 9],
                        {"sigma_m_sq": [1.0, 2.0, 3.0], "sigma_w_sq": list(sigma_w_sq)},
                        {"power": [1.0, 1.0, 1.0], "rate_bits": list(rate_bits)},
                        metadata, tail=[summary])


FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e22, 1e-7, 123456789012.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(FLOATS, min_size=3, max_size=3), st.lists(FLOATS, min_size=3, max_size=3),
       st.sampled_from(["csv", "json"]))
def test_column_report_renders_as_its_records(rate_bits, sigma_w_sq, fmt):
    columns = report(rate_bits, sigma_w_sq)
    records = list(columns)
    try:
        expected = render(records, fmt)
    except NumericalError as exc:
        with pytest.raises(NumericalError) as caught:
            render(columns, fmt)
        assert str(caught.value) == str(exc)
    else:
        assert render(columns, fmt) == expected


class TestNonFiniteColumns:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_names_the_first_bad_row_and_field(self, tmp_path, fmt):
        out = tmp_path / f"report.{fmt}"
        bad = report([0.5, math.nan, 0.25], sigma_w_sq=(2.0, 3.0, math.inf))
        with pytest.raises(NumericalError) as caught:
            emit(bad, fmt, str(out))
        assert str(caught.value) == ("report record (experiment 'rate', channel_id 7): "
                                     "outputs.rate_bits is nan; a report holds finite "
                                     "numbers only")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shared_metadata_is_checked_in_the_first_row(self, fmt):
        with pytest.raises(NumericalError, match=r"channel_id 5\): metadata\.tol is inf"):
            render(report([0.5, 0.5, 0.5], metadata={"tol": math.inf}), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_through_the_cli(self, tmp_path, fmt, monkeypatch, capsys):
        def with_a_nan(self, power):
            rates = np.full(len(self), 0.5)
            rates[1] = math.nan
            return rates

        monkeypatch.setattr(GaussianBank, "secrecy_rates", with_a_nan)
        path = tmp_path / "bank.scenario"
        path.write_text(json.dumps({"schema_version": 1, "channels": [
            {"type": "gaussian", "id": id_, "sigma_m_sq": 1.0, "sigma_w_sq": 2.0}
            for id_ in (4, 8, 15)]}))
        out = tmp_path / f"report.{fmt}"
        code = cli.main(["rate", "--scenario", str(path), "--budget", "1",
                         "--format", fmt, "--out", str(out)])
        assert code == cli.EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: report record (experiment 'rate', channel_id 8): "
            "outputs.rate_bits is nan; a report holds finite numbers only\n")
        assert not out.exists()


def test_concatenation_gives_records():
    columns = report([0.5, 0.5, 0.5])
    other = ReportRecord(experiment="pair", channel_id=1)
    assert columns + [other] == list(columns) + [other]
    assert [other] + columns == [other] + list(columns)
    assert len(columns) == 4 and columns[-1].channel_id == "summary"
    assert columns[1] == ReportRecord("rate", 7, {"sigma_m_sq": 2.0, "sigma_w_sq": 3.0},
                                      {"power": 1.0, "rate_bits": 0.5}, {"seed": 0})
