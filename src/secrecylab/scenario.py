"""Scenario files.

A scenario is a JSON document with an explicit ``schema_version`` and a list
of tagged channel descriptors; unknown fields are rejected rather than
ignored so config typos surface immediately.  Reports about a scenario are
written by :mod:`secrecylab.report`.

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
:class:`~secrecylab.cooperation.AgentBank`), which owns the rule for its
values, checks them as it is built; it is kept inside the scenario's
:class:`ChannelList`.  When any check fails, the entries are checked again
one by one from the first, so the error raised is the first in file order,
with the message of the per-entry rules; only then, and for ``fading`` and
``discrete`` entries, are entries built one by one.
"""

import bisect
import json
from collections.abc import Sequence
from dataclasses import dataclass

from .channels import FadingWiretapChannel, GaussianBank, GaussianWiretapChannel
from .cooperation import AgentBank, AgentChannel, to_agent_channel
from .discrete import DiscreteWiretapChannel
from .errors import (
    InvalidInputError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    _check_count,
    _check_positive,
    _check_seed,
)

SCHEMA_VERSION = 1

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
        their noise-normalized SNRs (:func:`~secrecylab.cooperation.to_agent_channel`),
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
