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
:class:`ChannelList`.  ``fading`` and ``discrete`` entries are built one by
one.  When any check fails, the entries are checked again one by one from
the first, so the error raised is the first in file order, with the message
of the per-entry rules.  A :class:`Scenario` built in code goes through the
same loader, with ``<scenario>`` in place of the file's path.
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
    The loader builds it from checked entries, for a file and for a
    :class:`Scenario` built in code alike.
    """

    def __init__(self, banks, others):
        self.banks, self.others = banks, others

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

    ``channels`` is a :class:`ChannelList`.  A sequence of
    :class:`ScenarioChannel` given here is checked exactly as a file is, with
    ``<scenario>`` in place of its path: each is turned back into its file
    entry (:func:`_file_entry`) and loaded, so the list holds equal copies of
    the channels, and a repeated id, an unknown type or a channel without its
    type's fields raises the file's
    :class:`~secrecylab.errors.ScenarioValidationError`.  So does an item
    that is no ScenarioChannel.
    """

    channels: ChannelList
    seed: int = 0
    budget: float = None
    samples: int = None

    def __post_init__(self):
        if not isinstance(self.channels, ChannelList):
            entries = [_file_entry(pos, sc) for pos, sc in enumerate(self.channels)]
            object.__setattr__(self, "channels", _channel_list(entries, "<scenario>"))

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


def _file_entry(pos, sc):
    """The file entry of the :class:`ScenarioChannel` at ``pos`` of a Scenario built in code.

    Holds ``type``, ``id`` and each field of :data:`CHANNEL_SCHEMA` that the
    channel has, so the loader names a missing one.  A type that is no
    known one has no fields, and gets the loader's error for it.
    """
    if not isinstance(sc, ScenarioChannel):
        raise ScenarioValidationError(f"<scenario>.channels[{pos}]: expected a ScenarioChannel, "
                                      f"got {type(sc).__name__}")
    known = isinstance(sc.kind, str) and sc.kind in CHANNEL_SCHEMA
    fields = CHANNEL_SCHEMA[sc.kind][1] if known else ()
    return {"type": sc.kind, "id": sc.id,
            **{key: getattr(sc.channel, key) for key in fields if hasattr(sc.channel, key)}}


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

    return Scenario(channels=_channel_list(raw_channels, source), seed=seed, budget=budget,
                    samples=samples)


def _channel_entry(ctx, pos, entry):
    """The ScenarioChannel of the entry at ``pos``, checked on its own."""
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
    args = [entry[key] for key in fields]
    cid = entry.get("id", pos + 1)
    try:
        built = cls(cid, *args) if cls is AgentChannel else cls(*args)
    except InvalidInputError as exc:
        raise ScenarioValidationError(f"{ctx}.{exc}") from exc
    if type(cid) is not int:
        raise ScenarioValidationError(f"{ctx}.id: expected an integer, got {cid!r}")
    return ScenarioChannel(kind=kind, id=cid, channel=built)


def _raise_first_failure(raw_channels, source):
    """Check the channels entry by entry and raise the first failure in file order."""
    seen_ids = set()
    for pos, entry in enumerate(raw_channels):
        ctx = f"{source}.channels[{pos}]"
        cid = _channel_entry(ctx, pos, entry).id
        if cid in seen_ids:
            raise ScenarioValidationError(f"{ctx}.id: duplicate channel id {cid}")
        seen_ids.add(cid)
    raise AssertionError(f"{source}.channels: the column checks fail where no entry does")


def _channel_list(raw_channels, source):
    """The :class:`ChannelList` of a list of channel entries (dicts): its only builder.

    Checks the fields of the entries of each type in :data:`_BANKS`, and
    every id, over whole columns, and leaves their values to the banks;
    builds every other entry on its own.  Where any check fails, raises the
    first failure in file order, as :func:`_raise_first_failure` names it.
    """
    held = {kind: ([], []) for kind in _BANKS}   # type -> its entries and their positions
    others = {}
    # Each error caught is a failed check: a missing field (KeyError), a type
    # that is a list or a dict (TypeError), a bad value or a bad other entry.
    try:
        for pos, entry in enumerate(raw_channels):
            if type(entry) is not dict and isinstance(entry, dict):
                entry = dict(entry)  # its items only: a default (a defaultdict's) fills no field
            rows = held.get(entry.get("type")) if isinstance(entry, dict) else None
            if rows is not None:
                rows[0].append(entry)
                rows[1].append(pos)
            else:
                others[pos] = _channel_entry(f"{source}.channels[{pos}]", pos, entry)
        ids = [entry.get("id", pos + 1) for pos, entry in enumerate(raw_channels)]
        if set(map(type, ids)) <= {int} and len(set(ids)) == len(ids):
            banks = {}
            for kind, (rows, positions) in held.items():
                if not all(row.keys() <= _ALLOWED_KEYS[kind] for row in rows):
                    break
                columns = [[row[key] for row in rows] for key in CHANNEL_SCHEMA[kind][1]]
                banks[kind] = (_BANKS[kind]([ids[pos] for pos in positions], *columns), positions)
            else:
                return ChannelList(banks, others)
    except (KeyError, TypeError, InvalidInputError, ScenarioValidationError):
        pass
    _raise_first_failure(raw_channels, source)


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
