"""Cooperative jamming: pairing agents so blocked links become usable.

An agent whose eavesdropper out-hears them (``eaves_snr >= main_snr``) cannot
communicate secretly on their own.  A stronger agent can fix that by
transmitting interference that drowns out the weaker agent's eavesdropper,
at the cost of giving up their own slot.  This module classifies a bank of
agents, runs the greedy pairing rule (each blocked agent, taken in
increasing SNR order, grabs the weakest still-unused agent strong enough to
jam its eavesdropper), and provides an exhaustive maximum-matching oracle
that measures how far the greedy rule falls short of the most pairs any
strategy can form: on some banks it pairs fewer.

The agent model lives here too: an :class:`AgentChannel` is one agent's
SNR pair, an :class:`AgentBank` holds agents as columns and owns the rule
that their ids are unique, and :func:`to_agent_channel` gives a fading
link's SNR pair.  Every function that reads agents takes a bank, or a
sequence of agents that it gathers into one, so a repeated id is rejected
where the bank is built.

Secrecy-efficiency metrics compare the secret rate to the raw capacity
spent obtaining it.  For a cooperating pair the helper's whole capacity goes
to jamming, so the pair's efficiency ``log2(1+A_helped) /
[log2(1+A_helped) + log2(1+A_helper)]`` is strictly below one half and
approaches it only as the two SNRs coincide.

This module imports nothing else from the package but
:mod:`secrecylab.errors`; numpy is imported only by
:func:`pick_probability_monte_carlo`, for its random generator.
"""

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import (InvalidInputError, InvalidPairError, UnsupportedSizeError, _check_count,
                     _check_positive, _finite_numbers, _one_per_id)

#: Exhaustive matching uses a bitmask table of size 2**k.
_MAX_ORACLE_AGENTS = 12


@dataclass(frozen=True)
class AgentChannel:
    """One agent's link summarized as a pair of SNRs.

    ``main_snr`` is the agent's own link SNR, ``eaves_snr`` the SNR of the
    eavesdropper listening to that agent.  Within a bank, ids must be unique
    (:class:`AgentBank` checks it).
    """

    id: int
    main_snr: float
    eaves_snr: float

    def __post_init__(self):
        _check_positive("main_snr", self.main_snr)
        _check_positive("eaves_snr", self.eaves_snr)


class AgentBank(Sequence):
    """Agents held as columns: ``ids``, ``main_snr`` and ``eaves_snr``, each a list.

    Row ``i`` is the agent ``AgentChannel(ids[i], main_snr[i], eaves_snr[i])``,
    which indexing builds; a slice gives a bank.  Each SNR obeys that
    class's rule and is kept as given, so an int SNR stays an int.  The ids
    are unique.  A bank compares equal to a list or tuple of the same agents
    in the same order.

    Raises
    ------
    InvalidInputError
        An id repeats (named as ``duplicate agent id 7``, for the first id
        seen twice), an SNR breaks that rule (named with its row, e.g.
        ``main_snr[3]``), or a column does not hold one value per id.
    """

    def __init__(self, ids, main_snr, eaves_snr):
        self.ids = self._unique(list(ids))
        self.main_snr, self.eaves_snr = (self._snrs(name, values) for name, values in
                                         (("main_snr", main_snr), ("eaves_snr", eaves_snr)))

    @staticmethod
    def _unique(ids):
        """``ids``, a list, if no id repeats."""
        if len(set(ids)) < len(ids):
            seen = set()
            for agent_id in ids:
                if agent_id in seen:
                    raise InvalidInputError(f"duplicate agent id {agent_id}")
                seen.add(agent_id)
        return ids

    def _snrs(self, name, values):
        values = _one_per_id(name, list(values), len(self.ids))
        if not (_finite_numbers(values) and all(0 < v < math.inf for v in values)):
            for row, value in enumerate(values):
                _check_positive(f"{name}[{row}]", value)
        return values

    @staticmethod
    def of(agents):
        """A bank of the given agents, in their order; a bank is taken as it is."""
        if isinstance(agents, AgentBank):
            return agents
        rows = [(ch.id, ch.main_snr, ch.eaves_snr) for ch in agents]
        return AgentBank(*(list(zip(*rows)) or ((), (), ())))

    def take(self, rows):
        """The agents at the given row numbers, in that order, as a new bank.

        Its SNRs are this bank's, so they are not checked again.  The rows
        must not repeat: a repeated row raises :class:`InvalidInputError`
        naming its id, as a repeated id does in a new bank.
        """
        bank = object.__new__(AgentBank)
        bank.ids, bank.main_snr, bank.eaves_snr = (
            [column[row] for row in rows] for column in (self.ids, self.main_snr, self.eaves_snr))
        self._unique(bank.ids)
        return bank

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, row):
        if isinstance(row, slice):
            return self.take(range(len(self))[row])
        return AgentChannel(self.ids[row], self.main_snr[row], self.eaves_snr[row])

    def __eq__(self, other):
        return isinstance(other, (list, tuple, AgentBank)) and tuple(self) == tuple(other)


def is_qualified(ch):
    """Whether a fading link can sustain a positive secrecy rate on average.

    True iff the noise-normalized main gain strictly exceeds the
    noise-normalized eavesdropper gain: ``a/sigma_m_sq > b/sigma_w_sq``.
    Equality counts as disqualified.
    """
    return ch.a / ch.sigma_m_sq > ch.b / ch.sigma_w_sq


def to_agent_channel(ch, id):
    """Summarize a fading link as an :class:`AgentChannel` SNR pair.

    ``main_snr = a/sigma_m_sq`` and ``eaves_snr = b/sigma_w_sq``, so
    ``is_qualified(ch)`` holds exactly when ``main_snr > eaves_snr``.
    """
    return AgentChannel(id=id,
                        main_snr=ch.a / ch.sigma_m_sq,
                        eaves_snr=ch.b / ch.sigma_w_sq)


class FeasibleSet:
    """Ids of agents strong enough to jam one agent's eavesdropper.

    Its ``members`` are the tuple ``members[start:]`` of the given ids,
    sliced when asked for, so that :func:`feasible_set` builds a set in O(1).
    """

    def __init__(self, agent_id, members, start=0):
        self.agent_id, self._ids, self._start = agent_id, members, start

    @property
    def members(self):
        return tuple(self._ids[self._start:])

    def __len__(self):
        return len(self._ids) - self._start

    def __repr__(self):
        return f"FeasibleSet(agent_id={self.agent_id!r}, members={self.members!r})"


@dataclass(frozen=True)
class PairingPlan:
    """Outcome of a pairing run.

    ``pairs`` holds (helped_id, helper_id) tuples in formation order,
    ``unpaired`` the ids consumed by no pair, and ``efficiencies`` the
    secrecy efficiency of each formed pair keyed by the pair tuple.
    """

    pairs: tuple
    unpaired: tuple
    efficiencies: dict = field(default_factory=dict)


class SortedBank(AgentBank):
    """Agents sorted by ascending (main_snr, id), with the index feasible sets bisect.

    Built from a sequence of agents or an :class:`AgentBank`, whose rows it
    sorts once; greedy pairing bisects the same index.  Its columns are
    tuples, so the index can never disagree with the agents it holds.  It
    compares equal to a list or tuple of the same agents in the same order.
    Ids must be unique, as in any bank.
    """

    def __init__(self, agents):
        bank = AgentBank.of(agents)
        rows = sorted(zip(bank.main_snr, bank.ids, bank.eaves_snr))
        self.main_snr, self.ids, self.eaves_snr = map(tuple, zip(*rows)) if rows else ((),) * 3
        self._pos = dict(zip(self.ids, range(len(rows))))


def classify(bank):
    """Split a bank into qualified and disqualified agents.

    Qualified agents (``main_snr > eaves_snr``, strictly) keep their input
    order; disqualified agents come back as a :class:`SortedBank`, sorted by
    ascending ``main_snr`` with ties broken by id, which is the order the
    greedy pairing consumes.

    Parameters
    ----------
    bank : AgentBank or sequence of AgentChannel
        Ids must be unique.

    Returns
    -------
    (AgentBank, SortedBank)
        ``(qualified, disqualified)``
    """
    bank = AgentBank.of(bank)
    keep = [a > e for a, e in zip(bank.main_snr, bank.eaves_snr)]
    return (bank.take([row for row, k in enumerate(keep) if k]),
            SortedBank(bank.take([row for row, k in enumerate(keep) if not k])))


def feasible_set(agent_id, disqualified):
    """All agents in the bank strong enough to help the given one.

    Members are ids ``j != agent_id`` with ``main_snr_j > eaves_snr_i``,
    listed in ascending (main_snr, id) order: the suffix of the sorted bank
    after ``bisect_right`` of ``eaves_snr_i`` on the SNRs.  A disqualified
    agent never sits in its own suffix, so on the :class:`SortedBank` from
    :func:`classify` the members of a set ``fs`` are the last ``len(fs)`` ids
    of the bank.  A qualified agent may sit in its suffix, and is left out.
    On that bank a call costs O(log k); any other sequence of agents is
    sorted first.
    """
    bank = disqualified if isinstance(disqualified, SortedBank) else SortedBank(disqualified)
    pos = bank._pos.get(agent_id)
    if pos is None:
        raise InvalidInputError(f"unknown agent id {agent_id!r}")
    start = bisect_right(bank.main_snr, bank.eaves_snr[pos])
    if pos < start:
        return FeasibleSet(agent_id, bank.ids, start)
    return FeasibleSet(agent_id, bank.ids[start:pos] + bank.ids[pos + 1:])


def greedy_pairing(disqualified):
    """Pair blocked agents with the weakest helpers that can jam for them.

    Walks the bank in ascending SNR order; each still-unused agent ``i``
    takes the first later unused agent whose ``main_snr`` strictly exceeds
    ``eaves_snr_i`` (when two candidates tie on SNR the lower id wins by
    sort order).  Consumed agents never appear in a second pair.

    A helper search bisects the bank's SNRs and then skips used positions
    through a path-halving "next unused position" list, so a run over k
    agents costs O(k log k).  The :class:`SortedBank` from :func:`classify`
    is taken as it is, not sorted again.

    Parameters
    ----------
    disqualified : AgentBank or sequence of AgentChannel
        Must already be sorted ascending by (main_snr, id) and contain only
        disqualified agents.

    Returns
    -------
    PairingPlan
    """
    bank = given = AgentBank.of(disqualified)  # gathered once; a SortedBank is taken as it is
    if not isinstance(bank, SortedBank):
        bank = SortedBank(given)
        if bank.ids != tuple(given.ids):
            raise InvalidInputError(
                "disqualified bank must be sorted by ascending (main_snr, id); "
                "use classify() to obtain the sorted bank")
    ids, snrs, eaves = bank.ids, bank.main_snr, bank.eaves_snr
    k = len(bank)
    nxt = list(range(k + 1))  # nxt[p] == p while position p is unused; k is a sentinel
    pairs = []
    efficiencies = {}
    for pos in range(k):
        if snrs[pos] > eaves[pos]:
            raise InvalidInputError(
                f"agent {ids[pos]} is qualified (main_snr > eaves_snr) and does "
                f"not belong in the disqualified bank")
        if nxt[pos] != pos or not eaves[pos] > snrs[pos]:
            continue  # a helper already, or a boundary agent with no strict jamming margin
        h = bisect_right(snrs, eaves[pos])
        while nxt[h] != h:
            nxt[h] = nxt[nxt[h]]
            h = nxt[h]
        if h < k:
            nxt[pos], nxt[h] = pos + 1, h + 1
            pair = (ids[pos], ids[h])
            pairs.append(pair)
            efficiencies[pair] = _pair_efficiency(snrs[pos], snrs[h])
    unpaired = tuple(ids[p] for p in range(k) if nxt[p] == p)
    return PairingPlan(pairs=tuple(pairs), unpaired=unpaired,
                       efficiencies=efficiencies)


def max_matching_oracle(disqualified):
    """Exact maximum number of disjoint valid pairs, by bitmask DP.

    A pair (i, j) is valid when ``main_snr_j > eaves_snr_i > main_snr_i``
    (j jams for i); each agent participates in at most one pair in either
    role.  Exhaustive over all subsets, so limited to 12 agents.

    Parameters
    ----------
    disqualified : AgentBank or sequence of AgentChannel
        Ids must be unique.

    Returns
    -------
    int
    """
    k = len(disqualified)
    if k > _MAX_ORACLE_AGENTS:
        raise UnsupportedSizeError(
            f"exhaustive matching supports up to {_MAX_ORACLE_AGENTS} agents, got {k}")
    bank = AgentBank.of(disqualified)
    a, e = bank.main_snr, bank.eaves_snr
    adj = [0] * k
    for x in range(k):
        for y in range(k):
            if x != y and a[y] > e[x] > a[x]:
                adj[x] |= 1 << y
                adj[y] |= 1 << x
    best = [0] * (1 << k)
    for mask in range(1, 1 << k):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        top = best[rest]
        partners = adj[low] & rest
        while partners:
            jbit = partners & -partners
            cand = best[rest ^ jbit] + 1
            if cand > top:
                top = cand
            partners ^= jbit
        best[mask] = top
    return best[-1]


def _capacity(snr):
    """``log2(1 + snr)`` in bits, through ``log1p`` so that a tiny SNR keeps its value."""
    return math.log1p(snr) / math.log(2.0)


def qualified_rates(bank):
    """Secret rate and secrecy efficiency of each agent of a bank who needs no help.

    The rate is ``log2(1+A) - log2(1+E)`` bits; the efficiency is the
    fraction of the link's eavesdropper-free capacity that survives as that
    rate, ``rate / log2(1+A)``.

    Parameters
    ----------
    bank : AgentBank or sequence of AgentChannel
        Every agent must be qualified (``main_snr > eaves_snr``, strictly).

    Returns
    -------
    (list, list)
        ``(rates, efficiencies)``, one float per agent, in bank order.
    """
    bank = AgentBank.of(bank)
    rates, efficiencies = [], []
    for agent_id, a, e in zip(bank.ids, bank.main_snr, bank.eaves_snr):
        if not a > e:
            raise InvalidInputError(
                f"agent {agent_id} is not qualified: main_snr {a} <= eaves_snr {e}")
        cap = _capacity(a)
        rates.append(cap - _capacity(e))
        efficiencies.append(rates[-1] / cap)
    return rates, efficiencies


def qualified_rate(ch):
    """Secret rate and secrecy efficiency of one qualified agent, as
    :func:`qualified_rates` gives them: ``(rate, efficiency)``."""
    return tuple(column[0] for column in qualified_rates([ch]))


def efficiency_qualified(ch):
    """Secrecy efficiency of an agent who needs no help.

    The fraction of the link's eavesdropper-free capacity that survives as
    secret rate: ``[log2(1+A) - log2(1+E)] / log2(1+A)``.  Approaches 1 as
    the eavesdropper vanishes and 0 as it catches up.

    Parameters
    ----------
    ch : AgentChannel
        Must be qualified (``main_snr > eaves_snr``, strictly).
    """
    return qualified_rate(ch)[1]


def efficiency_pair(helped, helper):
    """Secrecy efficiency of a cooperating pair.

    With the helper fully jamming the helped agent's eavesdropper, the
    helped link's entire capacity becomes secret, but the helper's capacity
    is spent: ``log2(1+A_i) / [log2(1+A_i) + log2(1+A_h)]``.  Strictly below
    0.5 because the helper must be the stronger of the two.

    Parameters
    ----------
    helped, helper : AgentChannel
        Must satisfy ``helper.main_snr > helped.eaves_snr > helped.main_snr``.
    """
    if not (helper.main_snr > helped.eaves_snr > helped.main_snr):
        raise InvalidPairError(
            f"pair ({helped.id}, {helper.id}) violates the jamming margin: "
            f"need helper main_snr > helped eaves_snr > helped main_snr, got "
            f"{helper.main_snr} / {helped.eaves_snr} / {helped.main_snr}")
    return _pair_efficiency(helped.main_snr, helper.main_snr)


def _pair_efficiency(helped_snr, helper_snr):
    """:func:`efficiency_pair` from the two agents' ``main_snr``."""
    c_helped = _capacity(helped_snr)
    return c_helped / (c_helped + _capacity(helper_snr))


def pr_picking_k(set_sizes):
    """Chance that random pickers collectively grab a contested helper.

    For agents choosing helpers uniformly at random from feasible sets of
    the given sizes, returns ``1 - prod_j (s_j - 1) / s_j`` under the
    simplifying assumption that the choices are independent (earlier picks
    shrinking later sets is deliberately ignored; see
    :func:`pick_probability_monte_carlo` for the sequential process).

    Parameters
    ----------
    set_sizes : sequence of int
        Each >= 1.  An empty sequence returns 0; any size-1 set forces the
        pick, returning 1.
    """
    miss = 1.0
    for s in set_sizes:
        _check_count("set size", s)
        miss *= (s - 1) / s
    return 1.0 - miss


def pick_probability_monte_carlo(sets, target_id, trials, seed):
    """Simulate the sequential random-pick process behind :func:`pr_picking_k`.

    Agents take turns in the given order; each agent not yet consumed picks
    uniformly at random among its feasible members that nobody has consumed
    (skipping the turn if none remain), and a successful pick consumes both
    sides of the new pair.  Returns the fraction of trials in which
    ``target_id`` gets consumed, which need not match the independent-pick
    formula because earlier picks shrink later sets.

    Parameters
    ----------
    sets : sequence of FeasibleSet
        Pick order.
    target_id : int
    trials : int
        >= 1.
    seed : int or numpy.random.SeedSequence
    """
    import numpy as np  # here, so that the agent model loads without numpy

    _check_count("trials", trials)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        consumed = set()
        for fs in sets:
            if fs.agent_id in consumed:
                continue
            avail = [m for m in fs.members if m not in consumed]
            if not avail:
                continue
            choice = avail[rng.integers(len(avail))]
            consumed.add(fs.agent_id)
            consumed.add(choice)
            if choice == target_id:
                hits += 1
                break
    return hits / trials
