"""Agent banks held as columns: ``pair``, ``fig4`` and ``pick-prob`` reports.

The column runners must write the bytes that the per-record runners wrote,
one :class:`ReportRecord` per agent.  A copy of those runners is kept here
as the oracle, with the pairing and the feasible sets done by plain scans
over the agents sorted by (main_snr, id), and the rates by ``math.log1p``.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secrecylab import (
    AgentBank,
    AgentChannel,
    InvalidInputError,
    ReportRecord,
    SortedBank,
    UnsupportedSizeError,
    __version__,
    classify,
    feasible_set,
    greedy_pairing,
    max_matching_oracle,
    pr_picking_k,
    qualified_rates,
    run,
)
from secrecylab.report import ColumnReport, Suffixes, render
from secrecylab.scenario import SCHEMA_VERSION, parse_scenario


def bits(snr):
    return math.log1p(snr) / math.log(2.0)


def meta(seed):
    return {"seed": seed,
            "versions": {"secrecylab": __version__, "scenario_schema": SCHEMA_VERSION}}


def agent_record(command, agent, outputs, metadata):
    return ReportRecord(experiment=command, channel_id=agent.id,
                        inputs={"A": float(agent.main_snr), "E": float(agent.eaves_snr)},
                        outputs=outputs, metadata=metadata)


def sorted_disqualified(agents):
    return sorted((ch for ch in agents if not ch.main_snr > ch.eaves_snr),
                  key=lambda ch: (ch.main_snr, ch.id))


def record_pair(command, agents, seed):
    """The per-record ``pair`` runner: agent rows in file order, then pair rows."""
    order = sorted_disqualified(agents)
    pairs, used = [], set()
    for i, helped in enumerate(order):
        if helped.id in used or not helped.eaves_snr > helped.main_snr:
            continue
        helper = next((ch for ch in order[i + 1:]
                       if ch.id not in used and ch.main_snr > helped.eaves_snr), None)
        if helper is not None:
            used.update((helped.id, helper.id))
            pairs.append((helped, helper))
    roles = {ch.id: "qualified" for ch in agents if ch.main_snr > ch.eaves_snr}
    for helped, helper in pairs:
        roles[helped.id], roles[helper.id] = "helped", "helper"
    metadata = meta(seed)
    records = []
    for agent in agents:
        role = roles.get(agent.id, "unpaired")
        outputs = {"qualified": role == "qualified", "role": role}
        if role == "qualified":
            cap = bits(agent.main_snr)
            rate = cap - bits(agent.eaves_snr)
            outputs["rate_bits"], outputs["efficiency"] = rate, rate / cap
        records.append(agent_record(command, agent, outputs, metadata))
    for helped, helper in pairs:
        cap = bits(helped.main_snr)
        records.append(agent_record(command, helped, {
            "pair_with": helper.id, "efficiency": cap / (cap + bits(helper.main_snr))}, metadata))
    return records


def record_pick_prob(command, agents, seed):
    """The per-record ``pick-prob`` runner: one row per disqualified agent, then the summary."""
    order = sorted_disqualified(agents)
    sets = [tuple(ch.id for ch in order if ch.id != agent.id and ch.main_snr > agent.eaves_snr)
            for agent in order]
    metadata = meta(seed)
    records = [agent_record(command, agent, {"feasible_set_size": len(members),
                                             "feasible_members": members}, metadata)
               for agent, members in zip(order, sets)]
    contested = next((i for i, members in enumerate(sets) if len(members) == 1), None)
    outputs = {"pick_probability": None}
    if contested is not None:
        prefix_sizes = [len(members) for members in sets[:contested] if len(members) >= 1]
        prob = pr_picking_k(prefix_sizes)
        outputs = {"pick_probability": prob, "efficiency": prob,
                   "contested_helper": sets[contested][0], "prefix_sizes": prefix_sizes}
    records.append(ReportRecord(experiment=command, channel_id="summary", outputs=outputs,
                                metadata=metadata))
    return records


ORACLES = {"pair": record_pair, "fig4": record_pair, "pick-prob": record_pick_prob}

#: SNRs from a few levels, so that ties and boundary agents are common, from
#: a range, as ints, and tiny.
SNRS = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0]), st.floats(0.01, 100.0),
                 st.integers(1, 6), st.sampled_from([1e-300, 1e-20, 2 ** 53 + 1]))
#: Ids around zero, and beyond the int64 range on both sides.
IDS = st.one_of(st.integers(-30, 30), st.integers(2 ** 63 - 2, 2 ** 64 + 2),
                st.integers(-(2 ** 70), -(2 ** 63)))


@st.composite
def agent_docs(draw):
    """Agent-snr and fading entries, with a gaussian one at times, in one of
    three mixes: any, no qualified agent, no disqualified agent."""
    mix = draw(st.sampled_from(["any", "no qualified", "no disqualified"]))
    ids = draw(st.lists(IDS, max_size=14, unique=True))
    channels = []
    for agent_id in ids:
        if draw(st.integers(0, 4)) == 0:
            sigma_m = draw(st.sampled_from([1.0, 0.5, 2.0]))
            sigma_w = draw(st.sampled_from([1.0, 3.0]))
            a, b = draw(SNRS), draw(SNRS)
            if (mix == "no qualified") == (a / sigma_m > b / sigma_w):
                a, b = b, a
            if mix != "any" and (a / sigma_m > b / sigma_w) == (mix == "no qualified"):
                continue  # a tie that the swap cannot break
            channels.append({"type": "fading", "id": agent_id, "a": a, "b": b,
                             "sigma_m_sq": sigma_m, "sigma_w_sq": sigma_w})
            continue
        a = draw(SNRS)
        e = draw(st.one_of(st.just(a), SNRS))  # E == A: a boundary agent
        if mix != "any" and (a > e) == (mix == "no qualified"):
            a, e = e, a
        if mix == "no disqualified" and not a > e:
            continue
        channels.append({"type": "agent-snr", "id": agent_id, "main_snr": a, "eaves_snr": e})
    if draw(st.booleans()):
        channels.insert(draw(st.integers(0, len(channels))),  # an id no agent draws
                        {"type": "gaussian", "id": 2 ** 80, "sigma_m_sq": 1.0, "sigma_w_sq": 2.0})
    if channels and not draw(st.integers(0, 5)):
        for entry in channels:  # positional ids
            entry.pop("id", None)
    return {"schema_version": 1, "seed": draw(st.sampled_from([0, 7, 2 ** 64 - 1])),
            "channels": channels or [{"type": "gaussian", "sigma_m_sq": 1.0, "sigma_w_sq": 2.0}]}


def outcome(build, fmt):
    """The report text, or the type and message of the error raised."""
    try:
        return render(build(), fmt)
    except ValueError as exc:
        return type(exc), str(exc)


#: The five-agent bank of the paper's contested-helper example (agent 4 has
#: one helper), with a qualified agent and a tie on main_snr broken by id.
FIVE = {"schema_version": 1, "channels": [
    {"type": "agent-snr", "id": i, "main_snr": a, "eaves_snr": e}
    for i, a, e in ((5, 5.0, 6.0), (1, 1.0, 1.5), (3, 3.0, 3.5), (2, 2.0, 3.5), (4, 4.0, 4.5),
                    (9, 3.0, 3.5), (8, 7.0, 2.0))]}


@settings(max_examples=400, deadline=None)
@given(agent_docs(), st.sampled_from(sorted(ORACLES)))
@example(FIVE, "pick-prob")
@example(FIVE, "pair")
@example({"schema_version": 1, "channels": [
    {"type": "agent-snr", "id": 2 ** 64 + 1, "main_snr": 2.0, "eaves_snr": 2.0},
    {"type": "agent-snr", "id": -(2 ** 63) - 1, "main_snr": 2.0, "eaves_snr": 9.0},
    {"type": "fading", "id": 0, "a": 20.0, "b": 1.0, "sigma_m_sq": 2.0, "sigma_w_sq": 3.0}]},
    "pick-prob")
def test_column_runners_write_the_records_bytes(doc, command):
    scenario = parse_scenario(doc)
    agents = list(scenario.agents()[1])
    columns = run(command, scenario) if agents else None
    if agents:
        assert isinstance(columns, ColumnReport)
        assert columns == ORACLES[command](command, agents, scenario.seed)
    for fmt in ("csv", "json"):
        assert outcome(lambda: run(command, scenario), fmt) == outcome(
            lambda: ORACLES[command](command, agents, scenario.seed)
            if agents else run(command, scenario), fmt)


class TestAgentBank:
    def test_rows_are_agents_and_values_stay_as_given(self):
        bank = AgentBank([7, -3], [2, 0.5], [1.5, 4])
        assert list(bank) == [AgentChannel(7, 2, 1.5), AgentChannel(-3, 0.5, 4)]
        assert type(bank[0].main_snr) is int and bank == list(bank) and bank == tuple(bank)
        assert bank.take([1]) == bank[1:] == [AgentChannel(-3, 0.5, 4)]
        assert isinstance(bank[::-1], AgentBank) and bank[::-1] == list(bank)[::-1]
        assert AgentBank.of(list(bank)) == bank and AgentBank.of(bank) is bank

    @pytest.mark.parametrize("bad, message", [
        (0.0, "eaves_snr[1]: expected a positive value, got 0.0"),
        (True, "eaves_snr[1]: expected a finite number, got True"),
        (10 ** 400, f"eaves_snr[1]: expected a finite number, got {10 ** 400}"),
        (math.nan, "eaves_snr[1]: expected a finite number, got nan"),
        ("1", "eaves_snr[1]: expected a finite number, got '1'")])
    def test_rejects_an_snr_as_an_agent_does(self, bad, message):
        with pytest.raises(ValueError) as caught:
            AgentBank([1, 2], [1.0, 1.0], [1.0, bad])
        assert str(caught.value) == message
        with pytest.raises(ValueError) as single:
            AgentChannel(2, 1.0, bad)
        assert str(single.value) == message.replace("[1]", "")
        with pytest.raises(ValueError, match=r"^main_snr: expected 2 values, one per id"):
            AgentBank([1, 2], [1.0], [1.0, 1.0])

    @pytest.mark.parametrize("eaves_snr", [2.0, 0.0])  # the ids are checked before the SNRs
    def test_a_bank_names_the_first_repeated_id(self, eaves_snr):
        with pytest.raises(InvalidInputError, match="^duplicate agent id 3$"):
            AgentBank([5, 3, 8, 3, 5], [1.0] * 5, [eaves_snr] * 5)

    def test_take_rejects_a_repeated_row_by_its_id(self):
        bank = AgentBank([1, 2, 3], [1, 2, 3], [2.5, 5, 6])
        with pytest.raises(InvalidInputError, match="^duplicate agent id 1$"):
            bank.take([0, 0, 1, 2])
        assert bank.take([2, 0]) == [AgentChannel(3, 3, 6), AgentChannel(1, 1, 2.5)]

    @pytest.mark.parametrize("read", [AgentBank.of, classify, greedy_pairing, max_matching_oracle,
                                      qualified_rates, lambda agents: feasible_set(8, agents)])
    def test_every_reader_rejects_a_repeated_id_through_the_bank(self, read):
        agents = [AgentChannel(agent_id, 1.0, 2.0) for agent_id in [5, 3, 8, 3, 5]]
        with pytest.raises(InvalidInputError, match="^duplicate agent id 3$"):
            read(agents)

    def test_the_oracle_checks_its_size_before_the_ids(self):
        agents = [AgentChannel(agent_id % 12, 1.0, 2.0) for agent_id in range(13)]
        with pytest.raises(UnsupportedSizeError):
            max_matching_oracle(agents)
        with pytest.raises(InvalidInputError, match="^duplicate agent id 0$"):
            classify(agents)

    def test_classify_takes_a_bank_as_it_takes_a_list(self):
        bank = AgentBank([4, 9, 1, 6], [2.0, 2.0, 5.0, 1.0], [3.0, 2.0, 1.0, 1.5])
        for agents in (bank, list(bank)):
            qualified, disqualified = classify(agents)
            assert list(qualified.ids) == [1]
            assert isinstance(disqualified, SortedBank)
            assert disqualified.ids == (6, 4, 9)  # the tie on main_snr goes to the lower id
            assert [feasible_set(i, disqualified).members for i in disqualified.ids] == [
                (4, 9), (), ()]
        # Sorted with its qualified agent, which may sit in its own suffix.
        everyone = SortedBank(bank)
        assert feasible_set(6, everyone).members == (4, 9, 1)
        assert feasible_set(1, everyone).members == (4, 9)


def test_feasible_sets_are_held_as_suffixes():
    disqualified = classify([AgentChannel(i, float(i), 2.5) for i in (1, 2)] +
                            [AgentChannel(i, float(i), float(i) + 0.5) for i in (3, 4, 5)])[1]
    fs = feasible_set(1, disqualified)
    assert (len(fs), fs.members) == (3, (3, 4, 5))
    assert repr(fs) == "FeasibleSet(agent_id=1, members=(3, 4, 5))"
    column = Suffixes(disqualified.ids, [len(disqualified) - len(feasible_set(i, disqualified))
                                         for i in disqualified.ids])
    assert list(column) == [feasible_set(i, disqualified).members for i in disqualified.ids]
    with pytest.raises(ValueError, match="values: expected no float"):
        Suffixes([1.0], [0])
