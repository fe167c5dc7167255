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
from collections import OrderedDict, defaultdict
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secrecylab import (
    AgentChannel,
    FadingWiretapChannel,
    GaussianWiretapChannel,
    InvalidInputError,
    NumericalError,
    ReportRecord,
    ScenarioValidationError,
    awgn_waterfill,
    cli,
    gaussian_secrecy_rate,
    load_scenario,
    run,
    to_agent_channel,
)
from secrecylab.channels import GaussianBank
from secrecylab.cooperation import AgentBank
from secrecylab.report import ColumnReport, emit, render
from secrecylab.scenario import CHANNEL_SCHEMA, Scenario, ScenarioChannel, parse_scenario


def per_entry_channels(raw_channels, source):
    """The per-entry loader, as it was before gaussian banks were loaded by
    column: ``[(kind, id, channel)]``, or the first ScenarioValidationError."""
    channels, seen_ids = [], set()
    for pos, entry in enumerate(raw_channels):
        ctx = f"{source}.channels[{pos}]"
        if not isinstance(entry, dict):
            raise ScenarioValidationError(f"{ctx}: expected an object")
        kind = entry.get("type")
        if not isinstance(kind, str) or kind not in CHANNEL_SCHEMA:
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
#: SNRs, with ints that a float cannot hold exactly and the smallest subnormal.
SNRS = st.one_of(st.floats(1e-300, 1e300), st.integers(1, 10 ** 6),
                 st.sampled_from([5e-324, 1.7976931348623157e308, 10 ** 300, 2 ** 53 + 1]))
#: Values that no variance may take, and, but for the tiny positive ones,
#: no SNR either.
BAD_VALUES = st.sampled_from([True, False, "1.0", None, 10 ** 400, -(10 ** 400), 0, 0.0,
                              -0.0, -1.5, 1e-320, 5.5e-309, [1.0], math.inf, math.nan])
#: The fields each type held by column draws, and the values they draw from.
FIELDS = {"gaussian": (("sigma_m_sq", "sigma_w_sq"), VARIANCES),
          "agent-snr": (("main_snr", "eaves_snr"), SNRS)}
OTHERS = ({"type": "fading", "a": 2.0, "b": 1.0, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0},
          {"type": "fading", "a": 1.5, "b": 3.0, "sigma_m_sq": 3.0, "sigma_w_sq": 7.0},
          {"type": "agent-snr", "main_snr": 1.0, "eaves_snr": 2.5},
          {"type": "discrete", "main": [[0.9, 0.1], [0.1, 0.9]], "eaves": [[0.7, 0.3], [0.3, 0.7]]})
BAD_FADING = {"type": "fading", "a": -1.0, "b": 1.0, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}
MUTATIONS = ("value", "missing", "unknown", "type", "non-object", "id", "duplicate",
             "bad-fading")


def mutate(draw, entries):
    """Break one entry (or insert a bad fading entry beside it)."""
    i = draw(st.integers(0, len(entries) - 1))
    kind = draw(st.sampled_from(MUTATIONS))
    entry = entries[i]
    # str(): a type mutated before may be a list or a dict, which no dict key can be.
    fields = FIELDS.get(str(entry.get("type")), (("a",), None))[0] if isinstance(entry, dict) else ()
    if kind == "non-object":
        entries[i] = draw(st.sampled_from([None, "gaussian", [1.0, 2.0], 3]))
    elif kind == "bad-fading":
        entries.insert(draw(st.sampled_from([i, i + 1])), dict(BAD_FADING))
    elif not isinstance(entry, dict):
        return
    elif kind == "value":
        entry[draw(st.sampled_from(fields))] = draw(BAD_VALUES)
    elif kind == "missing":
        entry.pop(draw(st.sampled_from(fields)), None)
    elif kind == "unknown":
        entry[draw(st.sampled_from(["gain", "sigma_m_sq", "main_snr"]))] = 1.0
    elif kind == "type":
        entry["type"] = draw(st.sampled_from(["gausian", "gaussian", "fading", "agent-snr",
                                              "discrete", None, 1, [1], {"a": 1}]))
    elif kind == "id":
        entry["id"] = draw(st.sampled_from([True, False, 2.5, "7", None]))
    else:  # duplicate: the id another entry has, explicitly or by position
        j = draw(st.integers(0, len(entries) - 1))
        other = entries[j]
        entry["id"] = other.get("id", j + 1) if isinstance(other, dict) else j + 1


@st.composite
def mutated_banks(draw):
    """Gaussian and agent-snr entries, maybe with fading, agent-snr and
    discrete ones among them, and zero to two mutations."""
    entries = []
    for k in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(sorted(FIELDS)))
        fields, values = FIELDS[kind]
        entry = {"type": kind, **{key: draw(values) for key in fields}}
        if draw(st.booleans()):
            entry["id"] = draw(st.sampled_from([1000 + k, -k - 1, 2 ** 64 + k]))
        entries.append(entry)
    for _ in range(draw(st.integers(0, 3))):
        entries.insert(draw(st.integers(0, len(entries))), dict(draw(st.sampled_from(OTHERS))))
    for _ in range(draw(st.integers(0, 2))):
        mutate(draw, entries)
    return entries


def contents(kind, channel):
    """A channel as a value that compares by contents (a discrete channel's matrices)."""
    return (channel.main.tolist(), channel.eaves.tolist()) if kind == "discrete" else channel


def cli_run(argv):
    """``cli.main``'s exit code and standard error."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=400, deadline=None)
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

        rate = cli_run(["rate", "--scenario", path, "--budget", "1", "--format", "json",
                        "--out", out])
        if message is not None:
            assert rate == (cli.EXIT_VALIDATION, f"error: {message}\n")
            assert cli_run(["pair", "--scenario", path]) == rate
            with pytest.raises(ScenarioValidationError) as caught:
                load_scenario(path)
            assert str(caught.value) == message
            return

        scenario = load_scenario(path)
        assert len(scenario.channels) == len(expected)
        # A bank holds its variances as floats: an int variance is its float.
        # An agent keeps its SNRs as given.
        assert [(sc.kind, sc.id, contents(sc.kind, sc.channel)) for sc in scenario.channels] == [
            (kind, cid, contents(kind, GaussianWiretapChannel(float(ch.sigma_m_sq),
                                                              float(ch.sigma_w_sq))
                                 if kind == "gaussian" else ch)) for kind, cid, ch in expected]
        assert all(type(sc.channel.main_snr) is type(ch.main_snr)
                   for sc, (kind, _cid, ch) in zip(scenario.channels, expected)
                   if kind == "agent-snr")
        gaussian = [(cid, ch) for kind, cid, ch in expected if kind == "gaussian"]
        bank = scenario.gaussian_bank()
        assert bank.ids == [cid for cid, _ch in gaussian]
        assert bank.sigma_m_sq.tolist() == [float(ch.sigma_m_sq) for _cid, ch in gaussian]
        assert bank.sigma_w_sq.tolist() == [float(ch.sigma_w_sq) for _cid, ch in gaussian]
        if gaussian:
            assert rate == (cli.EXIT_OK, "")
            with open(out, encoding="utf-8") as fh:
                assert [rec["channel_id"] for rec in json.load(fh)] == bank.ids
        else:
            assert rate[0] == cli.EXIT_VALIDATION
            assert "needs at least one 'gaussian' channel" in rate[1]

        # The agent view: agent-snr entries as they are, fading ones through their SNRs.
        agents = [(pos, ch if kind == "agent-snr" else to_agent_channel(ch, cid))
                  for pos, (kind, cid, ch) in enumerate(expected)
                  if kind in ("agent-snr", "fading")]
        assert list(zip(*scenario.agents())) == agents
        pair = cli_run(["pair", "--scenario", path, "--format", "json", "--out", out])
        if agents:
            assert pair == (cli.EXIT_OK, "")
            with open(out, encoding="utf-8") as fh:
                ids = [rec["channel_id"] for rec in json.load(fh)]
            assert ids[:len(agents)] == [agent.id for _pos, agent in agents]
        else:
            assert pair == (cli.EXIT_VALIDATION, "error: command 'pair' needs 'agent-snr' "
                                                 "or 'fading' channels\n")


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
        assert [(pos, agent.id) for pos, agent in zip(*scenario.agents())] == [(1, 2)]
        assert scenario.gaussian_bank().ids == [21, 3]

    def test_a_scenario_built_from_entries_holds_them_as_columns(self, tmp_path):
        loaded = self.load(tmp_path)
        built = Scenario(channels=tuple(loaded.channels))
        assert built.channels == loaded.channels
        assert built.gaussian_bank().sigma_m_sq.tolist() == [1.0, 2.0]

    def test_a_scenario_built_in_code_equals_the_file_it_came_from(self, tmp_path):
        doc = {"schema_version": 1, "seed": 4, "channels": [
            {"type": "gaussian", "sigma_m_sq": 1.0, "sigma_w_sq": 3.0}, *OTHERS]}
        loaded = self.load(tmp_path, doc)
        built = Scenario(channels=tuple(loaded.channels), seed=4)
        assert built == loaded and hash(built) == hash(loaded)
        # Its fading and discrete entries are equal copies of those given.
        assert [sc.channel is loaded.channels[pos].channel
                for pos, sc in built.channels.others.items()] == [False] * 3
        # Two loads of a file with a discrete channel are equal too.
        again = self.load(tmp_path, doc)
        assert again == loaded and hash(again) == hash(loaded)

    @pytest.mark.parametrize("channels, message", [
        ([ScenarioChannel("gaussian", 1, GaussianWiretapChannel(1.0, 3.0)),
          ScenarioChannel("gaussian", 1, GaussianWiretapChannel(2.0, 3.0))],
         "<scenario>.channels[1].id: duplicate channel id 1"),
        ([ScenarioChannel("gaussian", 1, GaussianWiretapChannel(1.0, 3.0)),
          ScenarioChannel("fading", 1, FadingWiretapChannel(2.0, 1.0, 1.0, 1.0))],
         "<scenario>.channels[1].id: duplicate channel id 1"),
        ([ScenarioChannel("agent-snr", 3, AgentChannel(3, 1.0, 2.5)),
          ScenarioChannel("agent-snr", 3, AgentChannel(3, 2.0, 5.0))],
         "<scenario>.channels[1].id: duplicate channel id 3"),
        ([ScenarioChannel("gausian", 1, GaussianWiretapChannel(1.0, 3.0))],
         "<scenario>.channels[0].type: unknown channel type 'gausian'; expected one of "
         "['agent-snr', 'discrete', 'fading', 'gaussian']"),
        ([ScenarioChannel("gaussian", True, GaussianWiretapChannel(1.0, 3.0))],
         "<scenario>.channels[0].id: expected an integer, got True"),
        ([ScenarioChannel("gaussian", 1, GaussianWiretapChannel(1.0, 3.0)),
          ScenarioChannel(["gaussian"], 2, GaussianWiretapChannel(1.0, 3.0))],
         "<scenario>.channels[1].type: unknown channel type ['gaussian']; expected one of "
         "['agent-snr', 'discrete', 'fading', 'gaussian']"),
        ([ScenarioChannel("fading", 1, GaussianWiretapChannel(1.0, 3.0))],
         "<scenario>.channels[0].a: missing required field"),
        ([ScenarioChannel("gaussian", 1, GaussianWiretapChannel(1.0, 3.0)),
          GaussianWiretapChannel(2.0, 3.0)],
         "<scenario>.channels[1]: expected a ScenarioChannel, got GaussianWiretapChannel")])
    def test_a_scenario_built_in_code_is_checked_as_a_file_is(self, channels, message):
        with pytest.raises(ScenarioValidationError) as caught:
            Scenario(channels=channels)
        assert str(caught.value) == message

    def test_any_dict_is_an_entry(self):
        doc = {"schema_version": 1, "channels": [*self.DOC["channels"], *OTHERS]}
        ordered = dict(doc, channels=[OrderedDict(entry) for entry in doc["channels"]])
        assert parse_scenario(ordered) == parse_scenario(doc)
        ordered["channels"][1]["gain"] = 1.0
        with pytest.raises(ScenarioValidationError, match=r"^<scenario>\.channels\[1\]: unknown "):
            parse_scenario(ordered)
        # A default fills no missing field.
        for entry in ({"type": "gaussian", "sigma_m_sq": 1.0}, {"type": "agent-snr", "main_snr": 1.0},
                      {"type": "fading", "a": 2.0, "sigma_m_sq": 1.0, "sigma_w_sq": 1.0}):
            with pytest.raises(ScenarioValidationError, match=r"\.channels\[1\]\.\w+: missing"):
                parse_scenario(dict(doc, channels=[doc["channels"][0],
                                                   defaultdict(lambda: 1.0, entry)]))


class TestGaussianBank:
    def test_rejects_a_variance_whose_gain_is_not_finite(self):
        with pytest.raises(InvalidInputError, match=r"^sigma_w_sq\[1\]: .* got 1e-320$"):
            GaussianBank([1, 2], [1.0, 1.0], [2.0, 1e-320])
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(InvalidInputError, match=r"^sigma_m_sq\[0\]"):
                GaussianBank([1], [bad], [1.0])
        with pytest.raises(InvalidInputError) as caught:
            GaussianBank([1, 2], [1.0], [1.0, 2.0])
        assert str(caught.value) == "sigma_m_sq: expected 2 values, one per id, got shape (1,)"

    def test_names_the_first_bad_row_by_the_rule_of_a_link(self):
        for column, message in [
                ([1.0, True, -1.0], "sigma_m_sq[1]: expected a finite number, got True"),
                ([-1.0, True], "sigma_m_sq[0]: expected a positive variance whose power gain "
                               "1/sigma_m_sq is a finite float, got -1.0"),
                ([2, 10 ** 400], f"sigma_m_sq[1]: expected a finite number, got {10 ** 400}"),
                (np.array([1.0, np.nan]), "sigma_m_sq[1]: expected a finite number, got nan"),
                (["2.0", 1.0], "sigma_m_sq[0]: expected a finite number, got '2.0'")]:
            with pytest.raises(InvalidInputError) as caught:
                GaussianBank(range(len(column)), column, [2.0] * len(column))
            assert str(caught.value) == message
        # A numpy array of ints is a column of numbers; one of bools is not.
        assert GaussianBank([1], np.array([2]), [3.0]).sigma_m_sq.tolist() == [2.0]
        with pytest.raises(InvalidInputError, match=r"^sigma_w_sq\[0\]: expected a finite number"):
            GaussianBank([1], [2.0], np.array([True]))

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


#: Values on which a bank and one link or agent must agree: numbers of
#: every kind, and values that are no number.
ENTRY_VALUES = st.one_of(
    st.sampled_from([True, False, "2.0", None, 10 ** 400, -(10 ** 400), 1e-320, 5.5e-309, 0, 0.0,
                     -1, -1.5, math.inf, -math.inf, math.nan, np.float64(2.5)]),
    st.integers(), st.floats())


def raised(build):
    """The InvalidInputError ``build()`` raises, or None."""
    try:
        build()
    except InvalidInputError as exc:
        return exc
    return None


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["gaussian", "agent-snr"]), ENTRY_VALUES, ENTRY_VALUES)
def test_a_bank_accepts_exactly_what_its_entry_accepts(kind, first, second):
    if kind == "gaussian":
        bank = raised(lambda: GaussianBank([1], [first], [second]))
        entry = raised(lambda: GaussianWiretapChannel(first, second))
    else:
        bank = raised(lambda: AgentBank([1], [first], [second]))
        entry = raised(lambda: AgentChannel(1, first, second))
    assert (bank is None) == (entry is None)
    if bank is not None:
        # The bank names the row; an agent bank gives the agent's message.
        assert str(bank).split(":")[0] in ("sigma_m_sq[0]", "sigma_w_sq[0]", "main_snr[0]",
                                           "eaves_snr[0]")
        if kind == "agent-snr":
            assert str(bank) == str(entry).replace(":", "[0]:", 1)


def report(rate_bits, sigma_w_sq=(2.0, 3.0, 4.0), metadata=None):
    metadata = {"seed": 0} if metadata is None else metadata
    summary = ReportRecord(experiment="rate", channel_id="summary",
                           outputs={"power": 3.0}, metadata=metadata)
    return ColumnReport("rate", [5, 7, 9],
                        {"sigma_m_sq": [1.0, 2.0, 3.0], "sigma_w_sq": list(sigma_w_sq)},
                        {"power": [1.0, 1.0, 1.0], "rate_bits": list(rate_bits)},
                        metadata, tail=[summary])


FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 1e22, 1e-7, 123456789012.0]))
#: Text that CSV quotes or writes raw, that JSON escapes, and that a format
#: string or a NUL-delimited marker would misread.
TEXTS = st.one_of(st.text(st.sampled_from(list('{}",\n\r\0\\ a0') + ["é", "€", "\x01"]),
                          max_size=6),
                  st.text(max_size=4))
#: The values of a column that holds no float.
NOT_FLOATS = st.one_of(TEXTS, st.integers(), st.booleans(), st.none())
#: Values of a shared metadata dict, nested, with a ``seed`` key at times.
#: Dict keys: text, and at times an int or None, which no report may hold.
KEYS = st.one_of(TEXTS, TEXTS, TEXTS, st.sampled_from([1, -2, None]))
VALUES = st.recursive(
    st.one_of(TEXTS, st.integers(), st.none(), st.booleans(), FLOATS),
    lambda children: st.one_of(st.lists(children, max_size=3),
                               st.dictionaries(KEYS, children, max_size=3)),
    max_leaves=8)
METADATA = st.dictionaries(st.one_of(st.just("seed"), KEYS), VALUES, max_size=4)


@st.composite
def column_reports(draw):
    """A report with zero to three rows, columns of floats or of other values
    that may fall in any cell of CSV, metadata of any JSON-able shape and up
    to two tail records."""
    n = draw(st.integers(0, 3))

    def columns(names):
        return {key: draw(st.lists(draw(st.sampled_from([FLOATS, NOT_FLOATS])),
                                   min_size=n, max_size=n))
                for key in draw(st.lists(st.sampled_from(names), unique=True))}

    metadata = draw(METADATA)
    tail = [ReportRecord(experiment=draw(TEXTS), channel_id=draw(st.sampled_from(["summary", 4])),
                         outputs={"power": draw(FLOATS)},
                         metadata=metadata if draw(st.booleans()) else draw(METADATA))
            for _ in range(draw(st.integers(0, 2)))]
    return ColumnReport(draw(TEXTS), draw(st.lists(st.integers(), min_size=n, max_size=n)),
                        columns(["A", "E", "sigma_m_sq", "sigma_w_sq"]),
                        columns(["power", "rate_bits", "pair_with", "efficiency", "lambda"]),
                        metadata, tail)


def with_text(text):
    """A report with ``text`` in every field its rows share."""
    return ColumnReport(text, [3, 1], {"A": [0.5, 2.0], text: [1.0, 1.5]},
                        {"power": [0.25, 1e22]}, {"seed": text, text: [text, {text: None}]},
                        tail=[ReportRecord(text, "summary", metadata={"seed": text})])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.builds(report, st.lists(FLOATS, min_size=3, max_size=3),
                           st.lists(FLOATS, min_size=3, max_size=3)),
                 column_reports()),
       st.sampled_from(["csv", "json"]))
# Text that looks like a slot, or like the format fields a CSV template is parsed from.
@example(with_text("{x}\0"), "csv")
@example(with_text("}{0}{"), "csv")
@example(with_text("\0" "1\0"), "json")
@example(with_text('"\0,\r\n'), "json")
# Column texts that CSV must quote.
@example(ColumnReport("pair", [1, 2], {}, {"pair_with": ["a,b", 'x"y']}, {"seed": 0}), "csv")
@example(ColumnReport("pair", [1], {"A": ["\n"]}, {"efficiency": [""]}, {"seed": 0}), "csv")
# A report with no rows shares its metadata with no row: a non-finite float there is not written.
@example(ColumnReport("rate", [], {"A": []}, {"power": []}, {"tol": math.inf},
                      tail=[ReportRecord("rate", "summary", metadata={"seed": 0})]), "json")
def test_column_report_renders_as_its_records(columns, fmt):
    records = list(columns)
    try:
        expected = render(records, fmt)
    except (NumericalError, TypeError) as exc:
        with pytest.raises(type(exc)) as caught:
            render(columns, fmt)
        assert str(caught.value) == str(exc)
    else:
        assert render(columns, fmt) == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("metadata, kind", [({1: 2}, "int"), ({"seed": 0, 1: 2}, "int"),
                                            ({"seed": 0, "tol": {None: 1.0}}, "NoneType")])
def test_a_key_that_is_not_str_is_refused_in_either_format(fmt, metadata, kind):
    with pytest.raises(TypeError) as caught:
        render([ReportRecord("x", 1, metadata=metadata)], fmt)
    assert str(caught.value) == f"report keys must be str, not {kind}"
    # A column report refuses it as its records do: in its first row, before
    # the non-finite float of a later row.
    with pytest.raises(TypeError) as caught:
        render(report([0.5, math.nan, 0.5], metadata=metadata), fmt)
    assert str(caught.value) == f"report keys must be str, not {kind}"


class TestColumnReport:
    def test_a_column_must_hold_one_value_per_id(self):
        with pytest.raises(InvalidInputError) as caught:
            ColumnReport("rate", [5, 7], {"A": [1.0, 2.0]}, {"power": [1.0]}, {})
        assert str(caught.value) == "power: expected 2 values, one per id, got shape (1,)"

    def test_rows_take_their_shapes_in_the_order_given(self):
        shapes = [([4, 2], {"A": [1.0, 2.0]}, {"role": ["helped", "unpaired"]}),
                  ([9], {"A": [0.5]}, {"pair_with": [4], "efficiency": [0.25]})]
        columns = ColumnReport.of_shapes("pair", shapes, [0, 1, 0], {"seed": 0})
        assert [rec.channel_id for rec in columns] == [4, 9, 2]
        assert columns[1] == ReportRecord("pair", 9, {"A": 0.5},
                                          {"pair_with": 4, "efficiency": 0.25}, {"seed": 0})
        assert type(columns[1].outputs["pair_with"]) is int
        for fmt in ("csv", "json"):
            assert render(columns, fmt) == render(list(columns), fmt)
        # The first non-finite float in report order is named, whatever its shape.
        shapes[0][1]["A"][1] = shapes[1][1]["A"][0] = math.nan
        with pytest.raises(NumericalError, match=r"channel_id 9\): inputs\.A is nan"):
            render(ColumnReport.of_shapes("pair", shapes, [0, 1, 0], {"seed": 0}), "csv")
        with pytest.raises(InvalidInputError, match="^order: expected each shape once"):
            ColumnReport.of_shapes("pair", shapes, [0, 1, 1], {"seed": 0})
        with pytest.raises(InvalidInputError, match="^columns: expected a str name for each$"):
            ColumnReport("rate", [1], {1: [1.0]}, {}, {})

    @pytest.mark.parametrize("ids", [[1.5], ["3"], [True], [2, False], [None]])
    def test_ids_must_be_ints_and_not_bools(self, ids):
        with pytest.raises(InvalidInputError, match="^ids: expected an int for each row$"):
            ColumnReport("rate", ids, {}, {}, {})

    def test_compares_as_the_list_of_its_records(self):
        columns = report([0.5, 0.5, 0.5])
        assert columns == report([0.5, 0.5, 0.5])
        assert columns == list(columns) and list(columns) == columns
        assert columns != report([0.5, 0.25, 0.5])
        assert columns != columns[:3]
        # As a list does: no tuple is equal to it, and it has no hash.
        assert columns != tuple(columns)
        with pytest.raises(TypeError):
            hash(columns)


def test_runs_and_channels_compare_by_value(tmp_path):
    path = tmp_path / "bank.scenario"
    path.write_text(json.dumps({"schema_version": 1, "channels": [
        {"type": "gaussian", "sigma_m_sq": 1.0, "sigma_w_sq": w} for w in (2.0, 0.5, 3.0)] + [
        {"type": "agent-snr", "main_snr": 1.0, "eaves_snr": 2.5}]}))
    scenario = load_scenario(path)
    for command in ("rate", "allocate"):
        assert run(command, scenario, budget=2.0) == run(command, scenario, budget=2.0)
        assert run(command, scenario, budget=2.0) != run(command, scenario, budget=3.0)
    # A scenario's channels compare and hash as the tuple of their entries.
    channels = scenario.channels
    assert channels == tuple(channels) and tuple(channels) == channels
    assert hash(channels) == hash(tuple(channels))
    assert channels != list(channels)
    assert load_scenario(path) == scenario


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
