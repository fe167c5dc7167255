"""Classification, greedy helper pairing, matching oracle, efficiencies."""

import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecylab import (
    AgentChannel,
    FeasibleSet,
    InvalidInputError,
    InvalidPairError,
    PairingPlan,
    SortedBank,
    UnsupportedSizeError,
    classify,
    efficiency_pair,
    efficiency_qualified,
    feasible_set,
    greedy_pairing,
    max_matching_oracle,
    pick_probability_monte_carlo,
    pr_picking_k,
    qualified_rate,
)


def bank_from(a_values, e_values, ids=None):
    ids = ids or range(1, len(a_values) + 1)
    return [AgentChannel(id=i, main_snr=a, eaves_snr=e)
            for i, a, e in zip(ids, a_values, e_values)]


def random_disqualified_bank(rng, k):
    """k agents, each with eaves_snr strictly above main_snr."""
    a = rng.uniform(0.5, 10.0, size=k)
    e = a * rng.uniform(1.01, 3.0, size=k)
    bank = bank_from(a.tolist(), e.tolist())
    return sorted(bank, key=lambda ch: (ch.main_snr, ch.id))


def networkx_max_matching(bank):
    g = nx.Graph()
    g.add_nodes_from(ch.id for ch in bank)
    for helped in bank:
        for helper in bank:
            if helper.id != helped.id and \
                    helper.main_snr > helped.eaves_snr > helped.main_snr:
                g.add_edge(helped.id, helper.id)
    return len(nx.max_weight_matching(g, maxcardinality=True))


#: SNRs drawn from a few values, so that ties and boundary agents
#: (``eaves_snr == main_snr``) are common, or from a range.
SNRS = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(0.1, 10.0))


@st.composite
def agent_banks(draw, max_size=12):
    """Agents with unique ids, qualified, disqualified and boundary mixed."""
    ids = draw(st.lists(st.integers(-20, 20), max_size=max_size, unique=True))
    return [AgentChannel(id=i, main_snr=draw(SNRS), eaves_snr=draw(SNRS)) for i in ids]


# The worked five-agent configuration: one agent (id 4) has exactly one
# possible helper, making its pairing contested under random picking.
FIVE_AGENTS = bank_from([1.0, 2.0, 3.0, 4.0, 5.0],
                        [1.5, 3.5, 3.5, 4.5, 6.0])


class TestClassify:
    def test_all_qualified(self):
        bank = bank_from([3.0, 2.0], [1.0, 1.0])
        qualified, disqualified = classify(bank)
        assert [ch.id for ch in qualified] == [1, 2]
        assert disqualified == []

    def test_three_qualified_six_disqualified(self):
        bank = bank_from([10.0, 10.0, 10.0, 1.0, 1.5, 2.5, 3.0, 6.0, 12.0],
                         [1.0, 4.0, 8.0, 2.0, 3.0, 5.0, 4.0, 8.0, 15.0])
        qualified, disqualified = classify(bank)
        assert (len(qualified), len(disqualified)) == (3, 6)

    def test_disqualified_sorted_by_snr(self):
        bank = bank_from([3.0, 1.0, 2.0], [10.0, 10.0, 10.0])
        _, disqualified = classify(bank)
        assert [ch.id for ch in disqualified] == [2, 3, 1]

    def test_equal_snr_ties_break_by_id(self):
        bank = bank_from([2.0, 2.0], [5.0, 5.0], ids=[9, 4])
        _, disqualified = classify(bank)
        assert [ch.id for ch in disqualified] == [4, 9]

    def test_duplicate_ids_rejected(self):
        bank = bank_from([1.0, 2.0], [3.0, 4.0], ids=[1, 1])
        with pytest.raises(InvalidInputError):
            classify(bank)


class TestFeasibleSets:
    def test_five_agent_sets(self):
        _, disqualified = classify(FIVE_AGENTS)
        sets = {i: feasible_set(i, disqualified) for i in range(1, 6)}
        assert sets[1].members == (2, 3, 4, 5)
        assert sets[2].members == (4, 5)
        assert sets[3].members == (4, 5)
        assert sets[4].members == (5,)
        assert sets[5].members == ()
        assert [len(sets[i]) for i in range(1, 6)] == [4, 2, 2, 1, 0]

    def test_overwhelming_eavesdropper_gives_empty_set(self):
        bank = bank_from([1.0, 2.0, 3.0], [100.0, 2.5, 3.5])
        _, disqualified = classify(bank)
        assert feasible_set(1, disqualified).members == ()

    def test_unknown_id_rejected(self):
        _, disqualified = classify(FIVE_AGENTS)
        with pytest.raises(InvalidInputError):
            feasible_set(77, disqualified)

    @given(agent_banks(), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_members_match_the_definition(self, bank, from_classify, random):
        """Members of i are {j != i : main_snr_j > eaves_snr_i} in (main_snr, id) order,
        on the bank from classify and on a shuffled plain list that may hold
        qualified agents."""
        if from_classify:
            seq = classify(bank)[1]
        else:
            seq = list(bank)
            random.shuffle(seq)
        for agent in seq:
            helpers = sorted((ch for ch in seq
                              if ch.id != agent.id and ch.main_snr > agent.eaves_snr),
                             key=lambda ch: (ch.main_snr, ch.id))
            assert feasible_set(agent.id, seq).members == tuple(ch.id for ch in helpers)
        unknown = max((ch.id for ch in seq), default=0) + 1
        with pytest.raises(InvalidInputError, match="unknown agent id"):
            feasible_set(unknown, seq)

    def test_a_changed_list_gives_a_fresh_answer(self):
        bank = list(FIVE_AGENTS)
        assert feasible_set(4, bank).members == (5,)
        bank.append(AgentChannel(id=6, main_snr=4.8, eaves_snr=9.0))
        assert feasible_set(4, bank).members == (6, 5)

    def test_classified_bank_is_immutable_and_equals_a_list(self):
        _, disqualified = classify(FIVE_AGENTS)
        # Held by column: each column a tuple, and no row can be replaced.
        columns = (disqualified.ids, disqualified.main_snr, disqualified.eaves_snr)
        assert all(isinstance(column, tuple) for column in columns)
        with pytest.raises(TypeError):
            disqualified[0] = disqualified[1]
        assert disqualified == sorted(FIVE_AGENTS, key=lambda ch: ch.main_snr)
        assert classify([])[1] == [] and not classify([])[1] != []


class TestGreedyPairing:
    def test_empty_bank(self):
        plan = greedy_pairing([])
        assert plan.pairs == ()
        assert plan.unpaired == ()

    def test_hand_traced_example(self):
        bank = bank_from([1.0, 2.0, 3.0], [2.5, 5.0, 6.0])
        plan = greedy_pairing(bank)
        assert plan.pairs == ((1, 3),)
        assert plan.unpaired == (2,)
        assert set(plan.efficiencies) == {(1, 3)}

    def test_unsorted_input_rejected(self):
        bank = bank_from([2.0, 1.0], [5.0, 2.5])
        with pytest.raises(InvalidInputError):
            greedy_pairing(bank)

    def test_qualified_agent_rejected(self):
        bank = bank_from([1.0, 5.0], [2.0, 1.0])
        with pytest.raises(InvalidInputError):
            greedy_pairing(bank)

    def test_pairs_satisfy_jamming_margin(self):
        rng = np.random.default_rng(61)
        for _ in range(10_000):
            bank = random_disqualified_bank(rng, int(rng.integers(0, 9)))
            plan = greedy_pairing(bank)
            by_id = {ch.id: ch for ch in bank}
            seen = set()
            for helped, helper in plan.pairs:
                assert by_id[helper].main_snr > by_id[helped].eaves_snr \
                    > by_id[helped].main_snr
                assert helped not in seen and helper not in seen
                seen.update((helped, helper))
            assert seen.isdisjoint(plan.unpaired)
            assert seen | set(plan.unpaired) == set(by_id)
            assert all(0 < eff < 0.5 for eff in plan.efficiencies.values())

    def test_chooses_weakest_feasible_helper(self):
        """No unused feasible helper is weaker than the one taken."""
        rng = np.random.default_rng(67)
        for _ in range(300):
            bank = random_disqualified_bank(rng, int(rng.integers(2, 11)))
            plan = greedy_pairing(bank)
            by_id = {ch.id: ch for ch in bank}
            order = {ch.id: pos for pos, ch in enumerate(bank)}
            consumed = set()
            for helped, helper in plan.pairs:
                for other in bank:
                    if other.id in (helped, helper) or other.id in consumed:
                        continue
                    weaker = (other.main_snr, other.id) < \
                        (by_id[helper].main_snr, by_id[helper].id)
                    feasible = (other.main_snr > by_id[helped].eaves_snr
                                and order[other.id] > order[helped])
                    assert not (weaker and feasible), \
                        f"helper {helper} was not minimal for {helped}"
                consumed.update((helped, helper))

    def test_never_exceeds_oracle_cardinality(self):
        rng = np.random.default_rng(71)
        for _ in range(250):
            bank = random_disqualified_bank(rng, int(rng.integers(2, 11)))
            plan = greedy_pairing(bank)
            assert len(plan.pairs) <= max_matching_oracle(bank)

    def test_matches_oracle_on_dense_instances(self):
        """When every eavesdropper sits below the next agent's SNR the
        feasibility graph is complete-to-the-right and greedy pairs
        floor(k/2) agents, which no strategy can beat."""
        rng = np.random.default_rng(83)
        for _ in range(200):
            k = int(rng.integers(2, 11))
            a = np.cumsum(rng.uniform(0.1, 1.0, size=k)) + 1.0
            e = a + 0.01  # disqualified, but below the next agent's SNR
            bank = bank_from(a.tolist(), e.tolist())
            plan = greedy_pairing(bank)
            assert len(plan.pairs) == max_matching_oracle(bank) == k // 2

    def test_known_suboptimal_instance(self):
        """Taking the weakest feasible helper can forfeit pairs: greedy
        spends agent 2 helping agent 1, yet (1,3),(2,4) covers four agents.
        Pins the gap between the greedy rule and the true maximum matching."""
        bank = bank_from([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 4.5, 4.5])
        plan = greedy_pairing(bank)
        assert plan.pairs == ((1, 2),)
        assert max_matching_oracle(bank) == 2

    def test_at_most_half_get_paired(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            k = int(rng.integers(0, 11))
            bank = random_disqualified_bank(rng, k)
            assert len(greedy_pairing(bank).pairs) <= k // 2


def quadratic_greedy(disqualified):
    """The greedy rule as a plain scan, with its input checks: the reference
    that :func:`greedy_pairing` must agree with, plan and error alike.

    Checks ids in input order, then the (main_snr, id) order, then that no
    agent is qualified; each agent then scans every later agent for a helper.
    """
    seen = set()
    for ch in disqualified:
        if ch.id in seen:
            raise InvalidInputError(f"duplicate agent id {ch.id}")
        seen.add(ch.id)
    keys = [(ch.main_snr, ch.id) for ch in disqualified]
    if keys != sorted(keys):
        raise InvalidInputError(
            "disqualified bank must be sorted by ascending (main_snr, id); "
            "use classify() to obtain the sorted bank")
    for ch in disqualified:
        if ch.main_snr > ch.eaves_snr:
            raise InvalidInputError(
                f"agent {ch.id} is qualified (main_snr > eaves_snr) and does "
                f"not belong in the disqualified bank")
    used = set()
    pairs = []
    efficiencies = {}
    for idx, helped in enumerate(disqualified):
        if helped.id in used or not helped.eaves_snr > helped.main_snr:
            continue
        for helper in disqualified[idx + 1:]:
            if helper.id not in used and helper.main_snr > helped.eaves_snr:
                used.update((helped.id, helper.id))
                pair = (helped.id, helper.id)
                pairs.append(pair)
                efficiencies[pair] = efficiency_pair(helped, helper)
                break
    return PairingPlan(pairs=tuple(pairs),
                       unpaired=tuple(ch.id for ch in disqualified if ch.id not in used),
                       efficiencies=efficiencies)


def outcome(pairing, bank):
    """The plan, with its efficiencies' key order, or the type and message raised."""
    try:
        plan = pairing(bank)
    except InvalidInputError as exc:
        return type(exc), str(exc)
    return plan, list(plan.efficiencies)


#: A few SNR levels, so that ties between SNRs, and between one agent's
#: eavesdropper and another agent's link, are common.
LEVELS = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0)


def tied_disqualified_bank(rng, k):
    """k disqualified agents with unique ids, sorted by (main_snr, id); about
    one in eight is a boundary agent (``eaves_snr == main_snr``)."""
    bank = []
    for agent_id in rng.sample(range(-k, 3 * k + 1), k):
        a = rng.choice(LEVELS) if rng.random() < 0.5 else rng.uniform(0.1, 10.0)
        draw = rng.random()
        if draw < 0.125:
            e = a
        elif draw < 0.5:
            e = rng.choice([level for level in LEVELS if level > a] or [2 * a])
        else:
            e = a * rng.uniform(1.0001, 4.0)
        bank.append(AgentChannel(id=agent_id, main_snr=a, eaves_snr=e))
    return sorted(bank, key=lambda ch: (ch.main_snr, ch.id))


class TestGreedyAgainstTheQuadraticScan:
    @given(st.integers(0, 400), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_plan_from_a_sorted_bank_and_a_sorted_list(self, k, seed):
        bank = tied_disqualified_bank(random.Random(seed), k)
        expected = outcome(quadratic_greedy, bank)
        assert isinstance(expected[0], PairingPlan)
        assert outcome(greedy_pairing, bank) == expected
        assert outcome(greedy_pairing, SortedBank(bank)) == expected
        assert outcome(greedy_pairing, classify(bank)[1]) == expected

    @given(st.integers(2, 60), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["shuffled", "duplicate id", "qualified", "qualified, unsorted"]))
    @settings(max_examples=200, deadline=None)
    def test_same_error_for_a_bad_bank(self, k, seed, fault):
        rng = random.Random(seed)
        bank = tied_disqualified_bank(rng, k)
        i, j = sorted(rng.sample(range(k), 2))
        if fault == "shuffled":
            rng.shuffle(bank)
        elif fault == "duplicate id":
            bank[j] = AgentChannel(id=bank[i].id, main_snr=bank[j].main_snr,
                                   eaves_snr=bank[j].eaves_snr)
        else:
            ch = bank[i]
            bank[i] = AgentChannel(id=ch.id, main_snr=ch.main_snr, eaves_snr=ch.main_snr / 2)
            if fault == "qualified, unsorted":
                bank[i], bank[j] = bank[j], bank[i]
        expected = outcome(quadratic_greedy, bank)
        assert outcome(greedy_pairing, bank) == expected
        assert outcome(greedy_pairing, tuple(bank)) == expected


class TestMatchingOracle:
    def test_no_edges(self):
        bank = bank_from([1.0, 2.0], [10.0, 10.0])
        assert max_matching_oracle(bank) == 0

    def test_single_edge_instance(self):
        bank = bank_from([1.0, 2.0, 3.0], [2.5, 5.0, 6.0])
        assert max_matching_oracle(bank) == 1

    def test_chain_instance(self):
        bank = bank_from([1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 10.0])
        assert max_matching_oracle(bank) == 2

    def test_too_many_agents_rejected(self):
        bank = random_disqualified_bank(np.random.default_rng(0), 13)
        with pytest.raises(UnsupportedSizeError):
            max_matching_oracle(bank)

    def test_agrees_with_networkx(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            bank = random_disqualified_bank(rng, int(rng.integers(2, 9)))
            assert max_matching_oracle(bank) == networkx_max_matching(bank)


class TestEfficiencies:
    def test_qualified_approaches_one_as_eavesdropper_vanishes(self):
        eff = efficiency_qualified(AgentChannel(id=1, main_snr=3.0, eaves_snr=1e-12))
        assert eff == pytest.approx(1.0, abs=1e-9)

    def test_qualified_hand_value(self):
        eff = efficiency_qualified(AgentChannel(id=1, main_snr=3.0, eaves_snr=1.0))
        assert eff == pytest.approx(0.5, abs=1e-12)

    def test_qualified_vanishes_at_the_boundary(self):
        eff = efficiency_qualified(
            AgentChannel(id=1, main_snr=3.0, eaves_snr=3.0 * (1 - 1e-12)))
        assert eff == pytest.approx(0.0, abs=1e-9)

    def test_disqualified_agent_rejected(self):
        for fn in (efficiency_qualified, qualified_rate):
            with pytest.raises(InvalidInputError):
                fn(AgentChannel(id=1, main_snr=1.0, eaves_snr=1.0))
            with pytest.raises(InvalidInputError):
                fn(AgentChannel(id=1, main_snr=1.0, eaves_snr=2.0))

    def test_qualified_rate_and_efficiency_share_one_formula(self):
        rng = np.random.default_rng(83)
        for a, e in rng.uniform(0.01, 50.0, size=(200, 2)).tolist():
            agent = AgentChannel(id=1, main_snr=max(a, e) * 1.5, eaves_snr=min(a, e))
            rate, eff = qualified_rate(agent)
            cap = math.log1p(agent.main_snr) / math.log(2)
            assert rate == cap - math.log1p(agent.eaves_snr) / math.log(2)
            assert eff == efficiency_qualified(agent) == rate / cap

    @pytest.mark.parametrize("main_snr, eaves_snr", [(1e-10, 1e-30), (1e-20, 1e-30),
                                                     (1e-300, 5e-324)])
    def test_tiny_snrs_keep_their_rate(self, main_snr, eaves_snr):
        """``log2(1 + x)`` is exactly 0 below ~1.1e-16; the rate must not be."""
        agent = AgentChannel(id=1, main_snr=main_snr, eaves_snr=eaves_snr)
        rate, eff = qualified_rate(agent)
        exact = (math.log1p(agent.main_snr) - math.log1p(agent.eaves_snr)) / math.log(2)
        assert rate == pytest.approx(exact, rel=1e-12, abs=0.0) and rate > 0
        assert eff == pytest.approx(1.0, rel=1e-9)
        helped = AgentChannel(id=2, main_snr=main_snr, eaves_snr=1.0)
        helper = AgentChannel(id=3, main_snr=2.0, eaves_snr=3.0)
        assert 0.0 < efficiency_pair(helped, helper) < 0.5

    def test_pair_hand_values(self):
        helped = AgentChannel(id=1, main_snr=1.0, eaves_snr=2.0)
        helper = AgentChannel(id=2, main_snr=3.0, eaves_snr=9.0)
        assert efficiency_pair(helped, helper) == pytest.approx(1 / 3, rel=1e-12)

        helped = AgentChannel(id=1, main_snr=3.0, eaves_snr=5.0)
        helper = AgentChannel(id=2, main_snr=7.0, eaves_snr=9.0)
        assert efficiency_pair(helped, helper) == pytest.approx(0.4, rel=1e-12)

    def test_pair_approaches_half_in_the_symmetric_limit(self):
        prev = 0.0
        for eps in (1e-1, 1e-2, 1e-4, 1e-6, 1e-8):
            helped = AgentChannel(id=1, main_snr=3.0, eaves_snr=3.0 + eps)
            helper = AgentChannel(id=2, main_snr=3.0 + 2 * eps, eaves_snr=9.0)
            eff = efficiency_pair(helped, helper)
            assert prev < eff < 0.5
            prev = eff
        assert prev == pytest.approx(0.5, abs=1e-8)

    def test_invalid_pairs_rejected(self):
        helped = AgentChannel(id=1, main_snr=1.0, eaves_snr=2.0)
        weak_helper = AgentChannel(id=2, main_snr=1.5, eaves_snr=9.0)
        with pytest.raises(InvalidPairError):
            efficiency_pair(helped, weak_helper)
        qualified = AgentChannel(id=3, main_snr=2.0, eaves_snr=1.0)
        strong_helper = AgentChannel(id=4, main_snr=30.0, eaves_snr=9.0)
        with pytest.raises(InvalidPairError):
            efficiency_pair(qualified, strong_helper)

    @given(a_i=st.floats(0.1, 50.0), margin=st.floats(0.01, 2.0),
           gap=st.floats(0.01, 5.0))
    @settings(max_examples=300)
    def test_pair_efficiency_stays_below_half(self, a_i, margin, gap):
        helped = AgentChannel(id=1, main_snr=a_i, eaves_snr=a_i + margin)
        helper = AgentChannel(id=2, main_snr=a_i + margin + gap, eaves_snr=1.0)
        assert 0.0 < efficiency_pair(helped, helper) < 0.5


class TestPickProbability:
    def test_empty_list(self):
        assert pr_picking_k([]) == 0.0

    def test_forced_pick(self):
        assert pr_picking_k([5, 1, 3]) == 1.0

    def test_five_agent_prefix_value(self):
        assert pr_picking_k([4, 2, 2]) == pytest.approx(0.8125, abs=0.0)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidInputError):
            pr_picking_k([3, 0])
        with pytest.raises(InvalidInputError):
            pr_picking_k([2.5])

    def test_sizes_are_integers_not_booleans(self):
        assert pr_picking_k([np.int64(4), np.int32(2), 2]) == 0.8125
        with pytest.raises(InvalidInputError, match=r"^set size: expected a positive integer"):
            pr_picking_k([3, True])

    def test_trials_must_be_a_positive_integer(self):
        sets = [FeasibleSet(agent_id=1, members=(2,))]
        assert pick_probability_monte_carlo(sets, 2, np.int64(3), seed=0) == 1.0
        for trials in (True, 0, 2.0):
            with pytest.raises(InvalidInputError, match=r"^trials: expected a positive integer"):
                pick_probability_monte_carlo(sets, 2, trials, seed=0)

    def test_monte_carlo_of_sequential_process(self):
        """Branch enumeration for agents 1-3 targeting helper 5: agent 1
        picks from {2,3,4,5}; picking 5 or 4 makes a later agent take 5 for
        sure, while picking 2 or 3 consumes that agent and leaves one
        fifty-fifty turn over {4,5}.  Hence 1/4 + 1/4 + 2 * (1/4)(1/2) = 3/4,
        which differs from the independent-pick formula's 13/16.  Agents 4
        and 5 leave it as it is: 4 can only pick 5, but whenever 5 is still
        free by then, 4 has been taken; 5, whose set is empty, skips its turn."""
        _, disqualified = classify(FIVE_AGENTS)
        sets = [feasible_set(i, disqualified) for i in range(1, 6)]
        freq = pick_probability_monte_carlo(sets, target_id=5,
                                            trials=20_000, seed=101)
        assert freq == pytest.approx(0.75, abs=0.02)
        # deterministic given the seed
        again = pick_probability_monte_carlo(sets, target_id=5,
                                             trials=20_000, seed=101)
        assert freq == again
        assert pr_picking_k([4, 2, 2]) == 0.8125


#: The agent model run on a bank with qualified, boundary, paired and
#: unpaired agents.
AGENT_MODEL = """
from secrecylab.cooperation import (AgentBank, classify, feasible_set, greedy_pairing,
                                    max_matching_oracle, pr_picking_k, qualified_rates)
bank = AgentBank([1, 2, 3, 4, 5, 6, 7, 8], [1.0, 2.0, 3, 6.0, 10.0, 4.0, 2.0, 0.5],
                 [2.5, 5.0, 6.0, 8.0, 1.0, 3.0, 2.0, 9.0])
qualified, disqualified = classify(bank)
sets = [feasible_set(agent_id, disqualified) for agent_id in disqualified.ids]
result = [list(qualified), list(disqualified), greedy_pairing(disqualified), sets,
          qualified_rates(qualified), max_matching_oracle(disqualified),
          pr_picking_k([len(fs) for fs in sets if len(fs) > 1])]
"""


def test_the_agent_model_needs_no_numpy(without_numpy):
    assert without_numpy(AGENT_MODEL) == ["secrecylab", "secrecylab.cooperation",
                                          "secrecylab.errors"]
