"""Trace serialization: one event per line, stable field order.

The line format is the only thing the verifier consumes. It never sees
simulator objects, so everything verification needs must be representable
here. Layout:

* header lines ``# <tag> <tokens>``, in ``HEADER`` order: ``trace-format``,
  ``scenario``, ``seed``, ``ticks``, ``enforcement`` (the run's
  ``model.EnforcementConfig``: ``<layer>=0|1`` per layer in name order, then
  ``guard=deny|approve``), ``attacker``, one ``agent`` line per
  ``AgentMeta`` (``<id> privilege= period= channels=``) and one ``carrier``
  line per ``model.Carrier`` (``<id> name= owner= class= autoload= position=
  scope= label0=``, where position is its injection and label0 its label at
  session start; the header carries no content)
* one column row: ``tick|agent|kind|carrier_id|label|decision|reason``
* event lines in trace order

The ``kind`` column is a colon-joined token: the event kind, then the
detail fields that ``KIND_FIELDS`` lists for that kind, in order. Rendering
and parsing both read that one table:

    write:1111                      facet bits persist,propagate,harm,verbatim
    exposed_read / opaque_read      carrier or source in the carrier_id column
    high_risk:invoke_shell
    msg_send:c1:1111[:exfil]
    msg_recv:c1:0110:from=a2
    promote:free_form_instruction:1111   carrier_id column holds candidate id
    declassify:deterministic_validation   carrier target in carrier_id
    context_reset / heartbeat
    inject:c0:1111

Missing values are ``-``. Events without a decision are bookkeeping; the
verifier rejects decision-less lines for effectful kinds.

The parser yields ``model.Event`` and ``model.Carrier``, the records the
simulator writes, and fails closed: anything it cannot interpret raises
``TraceFormatError`` naming the line. That covers a wrong column, token or
detail-field count, an unknown tag, kind, key, enum value or facet token, a
key out of order, a negative tick, a ``# ticks`` or agent ``period=`` below
1, an integer not written as ``str(int)`` writes it (``+3``, `` 4``, ``03``, ``1_0``), a tick lower than the previous
event line's, a sender without ``from=``, a decision/reason pair that
``Decision`` does not admit (``allow|rtw-re-entry``, ``deny|ok``), a repeated
single tag, agent id, carrier id or channel of one agent line, a carrier
that breaks a ``Carrier`` invariant, a name that ``agent_id``,
``channel_name`` or ``scenario_name`` refuses, a header that does not open
with ``# trace-format``, and a header line after the column row. There a
``#`` line whose first word is not a header tag is a comment, which the
parser skips. A header that lacks a single tag parses with the field
``SINGLE_FIELDS`` names None, so fragments parse; the verifier refuses to
audit it. A line that parses is the line render writes for it. Decisions are the model's shared ``DECISIONS``
objects.

Most event lines repeat an earlier line but for the tick, so each
``render_trace`` and ``parse_trace`` call keeps a cache that lives for that
call only. Render keys it on an event's fields other than the tick
(``SHAPE_FIELDS``) and stores the line after the tick; parse keys it on
the line after the tick and stores those fields. The first line of each
shape goes through the strict ``event_to_line``/``parse_event_line``;
a later one formats, or parses and checks, only its tick.

Identical runs must serialize byte-identically; nothing here may read the
clock, the environment, or unordered containers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import islice
from operator import attrgetter
from typing import Any, Callable, NamedTuple

from .model import (
    DECISIONS,
    FACET_VALUES,
    LAYER_NAMES,
    ActionKind,
    AutoloadPolicy,
    Carrier,
    CarrierClass,
    CarrierInvariantError,
    CarrierScope,
    DeclassProcedure,
    EnforcementConfig,
    Event,
    EventKind,
    GuardMode,
    InjectionPosition,
    PayloadFacets,
    Privilege,
    ReentryGuardError,
    SchemaKind,
    TaintLabel,
)

FORMAT_VERSION = 1
COLUMN_ROW = "tick|agent|kind|carrier_id|label|decision|reason"
MISSING = "-"


class TraceFormatError(ReentryGuardError):
    """A serialized trace line or header could not be parsed."""


# ---------------------------------------------------------------------------
# the header
# ---------------------------------------------------------------------------


@dataclass
class AgentMeta:
    id: str
    privilege: Privilege
    period: int
    channels: list[str]


@dataclass
class TraceMeta:
    # parse_trace leaves None the SINGLE_FIELDS field of a single tag the
    # header lacks; verifier.audit refuses such a header
    scenario: str
    seed: int
    ticks: int
    enforcement: EnforcementConfig
    attacker: str
    agents: list[AgentMeta] = field(default_factory=list)
    carriers: list[Carrier] = field(default_factory=list)


def _by_value(enum_cls: type[Enum]) -> dict[str, Any]:
    return {member.value: member for member in enum_cls}


def _enum(enum_cls: type[Enum]) -> Callable[[str], Any]:
    return _by_value(enum_cls).__getitem__


def _count(raw: str) -> int:  # an integer, in the one form render writes
    value = int(raw)
    if str(value) != raw:
        raise ValueError(f"{raw!r} is not written as {value}")
    return value


def _at_least_one(raw: str) -> int:  # a tick budget or a heartbeat period
    if (value := _count(raw)) < 1:
        raise ValueError(f"{value} is below 1")
    return value


class _Line(NamedTuple):
    records: str | None  # the TraceMeta list a line per record fills; None: one line
    render: Callable[[Any], str]  # the record, or the TraceMeta -> the tokens
    make: Callable[..., Any]  # parsed values by name -> the record, or TraceMeta fields
    pattern: re.Pattern[str]  # the tokens, one group per field
    names: tuple[str, ...]
    parses: tuple[Callable[[str], Any], ...]


def _line(
    records: str | None,
    render: Callable[[Any], str],
    make: Callable[..., Any],
    *fields: tuple[str | None, str, Callable[[str], Any]],
) -> _Line:
    """A header line whose tokens are its fields (key, name, parse) in order,
    each ``key=value`` or, where the key is None, the bare value. A lone bare
    value is the rest of the line, so a scenario name may hold spaces."""
    keys, names, parses = zip(*fields)
    if keys == (None,):
        pattern = "(.+)"
    else:
        pattern = " ".join(r"(\S+)" if key is None else rf"{key}=(\S*)" for key in keys)
    return _Line(records, render, make, re.compile(pattern), names, parses)


# Names the trace writes as one token must read back as themselves: not
# empty, not the "-" of a missing value, no whitespace, and none of the
# separators around them. An agent id is an event-line column, a msg_recv
# sender after ':' and an item of the run record's comma-joined infected=
# list of agent@tick; a channel is a kind-token field and an item of an agent
# line's comma list. The scenario name is the rest of its header line and
# one '|'-separated field of the run record. The scenario schema refuses, and
# the header parser fails closed on, a name these rules refuse.
def _token(separators: str) -> Callable[[str], str]:
    pattern = re.compile(rf"[^\s{re.escape(separators)}]+")

    def check(name: str) -> str:
        if name == MISSING or pattern.fullmatch(name) is None:
            raise ValueError(
                f"{name!r} cannot be one trace token: it is empty or {MISSING!r},"
                f" or holds whitespace or one of {separators!r}"
            )
        return name

    return check


agent_id = _token("|:,@")
channel_name = _token("|:,")


def _channel_list(raw: str) -> list[str]:  # an agent line's channels=
    channels = [] if raw == MISSING else list(map(channel_name, raw.split(",")))
    if len(set(channels)) != len(channels):
        raise ValueError(f"repeated channel in {raw!r}")
    return channels


def scenario_name(name: str) -> str:
    if name.splitlines() != [name] or "|" in name:
        raise ValueError(f"{name!r} is not one non-empty line without '|'")
    return name


# member -> token: an enum's .value is slow, and an f-string of a str-mixin
# member writes its qualified name
_TOKEN = {
    member: member.value
    for enum_cls in (Privilege, CarrierClass, AutoloadPolicy, InjectionPosition, CarrierScope, TaintLabel)
    for member in enum_cls
}
_LAYERS = sorted(LAYER_NAMES)
_VERSION = {str(FORMAT_VERSION): FORMAT_VERSION}.__getitem__
_FLAG_BITS = {"0": False, "1": True}.__getitem__

# The header, in render order; render_header and parse_trace both read it.
# Each line renders as one f-string: a call per token would cost more than
# the line.
HEADER: dict[str, _Line] = {
    "trace-format": _line(
        None,
        lambda meta: str(FORMAT_VERSION),
        lambda version: {},
        (None, "version", _VERSION),
    ),
    "scenario": _line(None, lambda meta: meta.scenario, dict, (None, "scenario", scenario_name)),
    "seed": _line(None, lambda meta: str(meta.seed), dict, (None, "seed", _count)),
    "ticks": _line(None, lambda meta: str(meta.ticks), dict, (None, "ticks", _at_least_one)),
    "enforcement": _line(
        None,
        lambda meta: (
            " ".join(f"{layer}={getattr(meta.enforcement, layer):d}" for layer in _LAYERS)
            + f" guard={meta.enforcement.guard_mode.value}"
        ),
        lambda **fields: {"enforcement": EnforcementConfig(**fields)},
        *((layer, layer, _FLAG_BITS) for layer in _LAYERS),
        ("guard", "guard_mode", _enum(GuardMode)),
    ),
    "attacker": _line(None, lambda meta: meta.attacker, dict, (None, "attacker", agent_id)),
    "agent": _line(
        "agents",
        lambda a: (
            f"{a.id} privilege={_TOKEN[a.privilege]} period={a.period}"
            f" channels={','.join(a.channels) or MISSING}"
        ),
        AgentMeta,
        (None, "id", agent_id),
        ("privilege", "privilege", _enum(Privilege)),
        ("period", "period", _at_least_one),
        ("channels", "channels", _channel_list),
    ),
    "carrier": _line(
        "carriers",
        lambda c: (
            f"{c.id} name={c.name} owner={MISSING if c.owner is None else c.owner} class={_TOKEN[c.cls]}"
            f" autoload={_TOKEN[c.autoload]} position={_TOKEN[c.injection]} scope={_TOKEN[c.scope]}"
            f" label0={_TOKEN[c.label]}"
        ),
        Carrier,
        (None, "id", _count),
        ("name", "name", str),
        ("owner", "owner", lambda raw: None if raw == MISSING else agent_id(raw)),
        ("class", "cls", _enum(CarrierClass)),
        ("autoload", "autoload", _enum(AutoloadPolicy)),
        ("position", "injection", _enum(InjectionPosition)),
        ("scope", "scope", _enum(CarrierScope)),
        ("label0", "label", _enum(TaintLabel)),
    ),
}
# single tag -> the TraceMeta field its line fills, which parse_trace leaves
# None when the header lacks the tag; trace-format fills none, and the
# parser refuses a header that does not open with it
SINGLE_FIELDS = {
    "scenario": "scenario",
    "seed": "seed",
    "ticks": "ticks",
    "enforcement": "enforcement",
    "attacker": "attacker",
}


def render_header(meta: TraceMeta) -> list[str]:
    lines: list[str] = []
    for tag, line in HEADER.items():
        prefix, render = f"# {tag} ", line.render
        items = getattr(meta, line.records) if line.records else (meta,)
        lines += [prefix + render(item) for item in items]
    lines.append(COLUMN_ROW)
    return lines


def missing_tags(meta: TraceMeta) -> list[str]:
    """The single tags, other than trace-format, that a parsed header lacks."""
    return [tag for tag, name in SINGLE_FIELDS.items() if getattr(meta, name) is None]


def _parse_header(lines: list[str]) -> tuple[TraceMeta, int]:
    """The header, and the number of lines up to and including the column row."""
    meta = TraceMeta(**dict.fromkeys(SINGLE_FIELDS.values()))
    seen: set[tuple[Any, ...]] = set()  # (tag,) per single tag, (tag, id) per record
    for line_no, line in enumerate(lines, start=1):
        if line == COLUMN_ROW:
            return meta, line_no
        if not line.strip():
            continue
        if not line.startswith("#"):
            raise TraceFormatError(f"line {line_no}: event line before column row")
        hash_, _, rest = line.partition(" ")
        tag, _, text = rest.partition(" ")
        try:
            if hash_ != "#" or tag not in HEADER:
                raise ValueError("unknown tag")
            if not seen and tag != "trace-format":
                raise ValueError("the header does not open with # trace-format")
            records, _, make, pattern, names, parses = HEADER[tag]
            match = pattern.fullmatch(text)
            if match is None:
                raise ValueError(f"tokens do not match {pattern.pattern}")
            made = make(**{name: parse(raw) for name, parse, raw in zip(names, parses, match.groups())})
            key = (tag, made.id) if records else (tag,)
            if key in seen:
                raise ValueError("repeated " + " ".join(map(str, key)))
            seen.add(key)
            if records:
                getattr(meta, records).append(made)
            else:
                vars(meta).update(made)
        except KeyError as exc:
            raise TraceFormatError(f"line {line_no}: unknown value {exc} in {line!r}") from exc
        except (ValueError, CarrierInvariantError) as exc:
            raise TraceFormatError(f"line {line_no}: bad header {line!r}: {exc}") from exc
    return meta, len(lines)


# ---------------------------------------------------------------------------
# the kind token
# ---------------------------------------------------------------------------

# Event fields each kind's token carries after the kind, in order. Both
# event_to_line and parse_event_line read this table.
KIND_FIELDS: dict[EventKind, tuple[str, ...]] = {
    EventKind.WRITE: ("facets",),
    EventKind.EXPOSED_READ: (),
    EventKind.OPAQUE_READ: (),
    EventKind.HIGH_RISK: ("action",),
    EventKind.MSG_SEND: ("channel", "facets", "exfil"),
    EventKind.MSG_RECV: ("channel", "facets", "sender"),
    EventKind.PROMOTE: ("schema", "facets"),
    EventKind.DECLASSIFY: ("procedure",),
    EventKind.CONTEXT_RESET: (),
    EventKind.HEARTBEAT: (),
    EventKind.INJECT: ("channel", "facets"),
}


def _sender(token: str) -> str:
    if not token.startswith("from="):
        raise ValueError(f"sender {token!r} lacks from=")
    return token[len("from="):]


# value tables, built once: token -> model value
_KINDS = _by_value(EventKind)
_LABELS = {MISSING: None, **_by_value(TaintLabel)}
# (verdict, reason) columns -> the shared decision; only the pairs Decision admits
_DECISIONS = {(MISSING, MISSING): None} | {
    (v.value, r.value): decision for (v, r), decision in DECISIONS.items()
}

_REQUIRED = object()
# field -> (render, parse, value when the token leaves the field out);
# exfil is a trailing flag, rendered (not None) only when set
_CODECS: dict[str, tuple[Callable[[Any], str | None], Callable[[str], Any], Any]] = {
    "facets": (PayloadFacets.token, FACET_VALUES.__getitem__, _REQUIRED),
    "action": (lambda v: v.value, _by_value(ActionKind).__getitem__, _REQUIRED),
    "schema": (lambda v: v.value, _by_value(SchemaKind).__getitem__, _REQUIRED),
    "procedure": (lambda v: v.value, _by_value(DeclassProcedure).__getitem__, _REQUIRED),
    "channel": (str, str, _REQUIRED),
    "sender": (lambda v: "from=" + v, _sender, _REQUIRED),
    "exfil": (lambda v: "exfil" if v else None, {"exfil": True}.__getitem__, False),
}


def _kind_token(ev: Event) -> str:
    tokens = [ev.kind.value]
    for name in KIND_FIELDS[ev.kind]:
        value = getattr(ev, name)
        if value is None:
            raise TraceFormatError(f"{ev.kind.value} event without {name}")
        token = _CODECS[name][0](value)
        if token is not None:
            tokens.append(token)
    return ":".join(tokens)


def _kind_detail(token: str) -> tuple[EventKind, dict[str, Any]]:
    kind_value, *parts = token.split(":")
    kind = _KINDS[kind_value]
    names = KIND_FIELDS[kind]
    if len(parts) > len(names):
        raise ValueError(f"{kind_value} takes at most {len(names)} detail fields")
    detail: dict[str, Any] = {}
    for i, name in enumerate(names):
        _, parse, absent = _CODECS[name]
        if i < len(parts):
            detail[name] = parse(parts[i])
        elif absent is _REQUIRED:
            raise ValueError(f"{kind_value} needs {name}")
        else:
            detail[name] = absent
    return kind, detail


# ---------------------------------------------------------------------------
# event <-> line
# ---------------------------------------------------------------------------


# Every Event field but the tick, in declaration order: render_trace keys
# its cache on these values and parse_trace rebuilds events from them, so a
# new Event field is part of both keys without further edits.
SHAPE_FIELDS = tuple(f.name for f in fields(Event) if f.name != "tick")
_shape = attrgetter(*SHAPE_FIELDS)


def _line_tail(ev: Event) -> str:
    """The line after the tick column, starting with its separator."""
    carrier = str(ev.carrier_id) if ev.carrier_id is not None else MISSING
    label = ev.label.value if ev.label is not None else MISSING
    if ev.decision is not None:
        verdict = ev.decision.verdict.value
        reason = ev.decision.reason.value
    else:
        verdict = MISSING
        reason = MISSING
    return "|" + "|".join([ev.agent, _kind_token(ev), carrier, label, verdict, reason])


def event_to_line(ev: Event) -> str:
    return str(ev.tick) + _line_tail(ev)


def render_trace(events: list[Event], meta: TraceMeta) -> str:
    lines = render_header(meta)
    # event fields other than the tick -> line tail; lives for this call
    tails: dict[tuple[Any, ...], str] = {}
    for ev in events:
        key = _shape(ev)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = _line_tail(ev)
        lines.append(str(ev.tick) + tail)
    return "\n".join(lines) + "\n"


def parse_event_line(line: str, line_no: int = 0) -> Event:
    cols = line.split("|")
    if len(cols) != 7:
        raise TraceFormatError(f"line {line_no}: expected 7 columns, got {len(cols)}")
    raw_tick, agent, kind_token, raw_carrier, raw_label, raw_verdict, raw_reason = cols
    try:
        kind, detail = _kind_detail(kind_token)
        return Event(
            tick=_count(raw_tick),
            agent=agent,
            kind=kind,
            carrier_id=None if raw_carrier == MISSING else _count(raw_carrier),
            label=_LABELS[raw_label],
            decision=_DECISIONS[raw_verdict, raw_reason],
            **detail,
        )
    except KeyError as exc:
        raise TraceFormatError(f"line {line_no}: unknown value {exc} in {line!r}") from exc
    except ValueError as exc:
        raise TraceFormatError(f"line {line_no}: {exc} in {line!r}") from exc


def parse_trace(text: str) -> tuple[TraceMeta, list[Event]]:
    lines = text.splitlines()
    meta, start = _parse_header(lines)
    events: list[Event] = []
    # line tail -> the fields of the event it parsed to, and tick column ->
    # checked tick; both live for this call. A line whose tail and tick are
    # both known is rebuilt from them.
    shapes: dict[str, tuple[Any, ...]] = {}
    ticks: dict[str, int] = {}
    last_tick = 0
    for line_no, line in enumerate(islice(lines, start, None), start=start + 1):
        raw_tick, _, tail = line.partition("|")
        shape = shapes.get(tail)
        tick = ticks.get(raw_tick)
        if shape is not None and tick is not None:
            ev = Event(tick, *shape)
        elif not line.strip():
            continue
        elif line.startswith("#"):
            # a comment, unless it names a header tag
            words = line[1:].split(maxsplit=1)
            if words and words[0] in HEADER:
                raise TraceFormatError(f"line {line_no}: header line after the column row")
            continue
        elif shape is not None:
            try:
                tick = ticks[raw_tick] = _count(raw_tick)
                ev = Event(tick, *shape)
            except ValueError as exc:
                raise TraceFormatError(f"line {line_no}: {exc} in {line!r}") from exc
        else:
            ev = parse_event_line(line, line_no)
            shapes[tail] = _shape(ev)
        if ev.tick < last_tick:
            raise TraceFormatError(f"line {line_no}: tick {ev.tick} after tick {last_tick} in {line!r}")
        last_tick = ev.tick
        events.append(ev)
    return meta, events
