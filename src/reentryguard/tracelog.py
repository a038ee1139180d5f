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

The parser accepts the texts render writes and, among the events, comments:
``#`` lines that hold no ``|`` and whose first word is no header tag. For
every ``text`` it accepts, ``render_trace(events, meta)`` is ``text`` without
its comments. Its header grammar is ``HEADER``: the single tags one line
each and the record tags a run of lines each, ids ascending, in table
order; then the column row, the event lines, and the final newline. It
yields ``model.FrozenEvent``, a read-only ``model.Event``, and
``model.Carrier``: the records the simulator writes. It fails closed:
anything else raises ``TraceFormatError`` naming the line.
That covers a missing, repeated or misplaced tag, a record id not
above the one before it, an unknown tag, kind, key, enum value or facet
token, a wrong column, token or detail-field count, a key out of order, a
blank line, a header line after the column row, a ``#`` line with a ``|``
(read as an event line, so no event line can be commented out), a carriage
return, a missing final newline, a negative tick, a ``# ticks`` or agent
``period=`` below 1, an integer not written as ``str(int)`` writes it
(``+3``, `` 4``, ``03``, ``1_0``), a tick lower than the previous event
line's, a sender without ``from=``, a decision/reason pair that is none of
the 8 members of the model's ``Decision`` (``allow|rtw-re-entry``,
``deny|ok``, ``guard|rtw-re-entry``), a repeated channel of one agent
line, a carrier that breaks a ``Carrier`` invariant, and a name that
``agent_id``, ``channel_name`` or ``scenario_name`` refuses (in a header
line, or the channel of an event line: ``msg_send:-:1111``,
``inject::1111``). Decisions are the members of the model's ``Decision``
enum, and facets its shared ``FACET_VALUES``.

Event lines seldom repeat within a trace but mostly repeat a line of an
earlier trace, and most event lines repeat an earlier line but for the
tick, so the line codecs are memoised for the whole process, each in a
dict that keeps the first ``_MEMO_BOUND`` keys it meets: a full memo
stores nothing more and is never emptied, so one trace with more distinct
lines than the bound cannot evict the lines the other traces share, and a
key past the bound is built again each time it is met. Render keys its
memo on the fields the event's line holds after the tick (``_RENDER_KEYS``:
kind, agent, carrier id, label, decision, then the kind's ``KIND_FIELDS``;
facets and decisions are the model's shared values) and stores the tail;
it formats a tick column only when the tick changes, since a tick holds
many events. Parse keys on the exact text: one memo on the header line,
one on the event line and one on the tail (the line after the tick), which
stores the event's ``SHAPE_FIELDS``. An event line the process has
memoised is one lookup and yields the same read-only ``FrozenEvent`` to
every parse that meets it. A new event line with a known tail has only
its tick parsed and checked. No line reads another line's columns, so a
line's event is a function of its text alone. A line new to the process
goes through the strict codec (``event_to_line``, ``parse_event_line``,
the ``HEADER`` patterns), and a line that raises is never memoised, nor is
a comment. A memo holds immutable values only: the header records are
frozen (``Carrier``, ``AgentMeta``) and the parsed events read-only, while
the simulator's own events stay mutable, since it sets
``event.decision``. The checks across lines (the tag order, the id order,
the column row, comments, the tick order) run on every line. So a memo
cannot change what is read or refused.

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
    FACET_VALUES,
    LAYER_NAMES,
    ActionKind,
    AutoloadPolicy,
    Carrier,
    CarrierClass,
    CarrierInvariantError,
    CarrierScope,
    Decision,
    DeclassProcedure,
    EnforcementConfig,
    Event,
    EventKind,
    FrozenEvent,
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


# The process-wide memos of the line codecs (see the module docstring): each
# keeps its first _MEMO_BOUND keys, as the simulator's carrier blocks do.
_MEMO_BOUND = 16384
# header line -> the frozen record it parses to, or its TraceMeta fields
_HEADER_MEMO: dict[str, Any] = {}
_PARSE_MEMO: dict[str, tuple[Any, ...]] = {}  # event line after the tick -> SHAPE_FIELDS values
_RENDER_MEMO: dict[tuple[Any, ...], str] = {}  # _RENDER_KEYS values -> line after the tick
_EVENT_MEMO: dict[str, FrozenEvent] = {}  # exact event line -> its event
_MEMOS = (_HEADER_MEMO, _PARSE_MEMO, _RENDER_MEMO, _EVENT_MEMO)


def _memoise(memo: dict[Any, Any], key: Any, value: Any) -> Any:
    if len(memo) < _MEMO_BOUND:
        memo[key] = value
    return value


# ---------------------------------------------------------------------------
# the header
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentMeta:
    id: str
    privilege: Privilege
    period: int
    channels: tuple[str, ...]


@dataclass
class TraceMeta:
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


def _channel_list(raw: str) -> tuple[str, ...]:  # an agent line's channels=
    channels = () if raw == MISSING else tuple(map(channel_name, raw.split(",")))
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
            f" label0={_TOKEN[c.label0]}"
        ),
        Carrier,
        (None, "id", _count),
        ("name", "name", str),
        ("owner", "owner", lambda raw: None if raw == MISSING else agent_id(raw)),
        ("class", "cls", _enum(CarrierClass)),
        ("autoload", "autoload", _enum(AutoloadPolicy)),
        ("position", "injection", _enum(InjectionPosition)),
        ("scope", "scope", _enum(CarrierScope)),
        ("label0", "label0", _enum(TaintLabel)),
    ),
}


def render_header(meta: TraceMeta) -> list[str]:
    lines: list[str] = []
    for tag, line in HEADER.items():
        prefix, render = f"# {tag} ", line.render
        items = getattr(meta, line.records) if line.records else (meta,)
        lines += [prefix + render(item) for item in items]
    lines.append(COLUMN_ROW)
    return lines


def _parse_header(lines: list[str]) -> tuple[TraceMeta, int]:
    """The header, and the number of lines up to and including the column
    row. ``HEADER`` is its grammar: a line per single tag and a run of lines
    per record tag, ids ascending, in table order; then the column row.
    ``lines`` ends with the empty line after the text's final newline."""
    values: dict[str, Any] = {}
    at = 0  # the index of the next line
    for tag, (records, _, make, pattern, names, parses) in HEADER.items():
        prefix = f"# {tag} "
        run: list[Any] = []  # a record tag's records so far
        while lines[at].startswith(prefix):
            line = lines[at]
            at += 1
            # a memoised line's tokens parse; the id order runs on every line
            memo = made = _HEADER_MEMO.get(line)
            try:
                if made is None:
                    match = pattern.fullmatch(line, len(prefix))
                    if match is None:
                        raise ValueError(f"tokens do not match {pattern.pattern}")
                    made = make(**{name: parse(raw) for name, parse, raw in zip(names, parses, match.groups())})
                if run and not run[-1].id < made.id:
                    raise ValueError(f"{tag} {made.id} after {tag} {run[-1].id}: ids ascend")
            except KeyError as exc:
                raise TraceFormatError(f"line {at}: unknown value {exc} in {line!r}") from exc
            except (ValueError, CarrierInvariantError) as exc:
                raise TraceFormatError(f"line {at}: bad header {line!r}: {exc}") from exc
            if memo is None:
                _memoise(_HEADER_MEMO, line, made)
            if records is None:
                values.update(made)
                break
            run.append(made)
        else:
            if records is None:
                raise TraceFormatError(f"line {at + 1}: expected # {tag}, got {lines[at]!r}")
            values[records] = run
    if lines[at] != COLUMN_ROW:
        raise TraceFormatError(f"line {at + 1}: expected the column row, got {lines[at]!r}")
    return TraceMeta(**values), at + 1


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
# (verdict, reason) columns -> the decision; only the 8 members' pairs
_DECISIONS = {(MISSING, MISSING): None} | {(d.verdict.value, d.reason.value): d for d in Decision}

_REQUIRED = object()
# field -> (render, parse, value when the token leaves the field out);
# exfil is a trailing flag, rendered (not None) only when set
_CODECS: dict[str, tuple[Callable[[Any], str | None], Callable[[str], Any], Any]] = {
    "facets": (PayloadFacets.token, FACET_VALUES.__getitem__, _REQUIRED),
    "action": (lambda v: v.value, _by_value(ActionKind).__getitem__, _REQUIRED),
    "schema": (lambda v: v.value, _by_value(SchemaKind).__getitem__, _REQUIRED),
    "procedure": (lambda v: v.value, _by_value(DeclassProcedure).__getitem__, _REQUIRED),
    "channel": (str, channel_name, _REQUIRED),
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


# Every Event field but the tick, in declaration order: parse_trace's tail
# memo stores these values and rebuilds events from them, so a new Event
# field is part of it without further edits.
SHAPE_FIELDS = tuple(f.name for f in fields(Event) if f.name != "tick")
_shape = attrgetter(*SHAPE_FIELDS)
# kind -> render_trace's memo key: the fields _line_tail reads, kind first
_RENDER_KEYS = {
    kind: attrgetter("kind", "agent", "carrier_id", "label", "decision", *names) for kind, names in KIND_FIELDS.items()
}


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
    # the tick column of the last event, formatted when the tick changes
    tick, column = None, ""
    for ev in events:
        key = _RENDER_KEYS[ev.kind](ev)
        tail = _RENDER_MEMO.get(key)
        if tail is None:
            tail = _memoise(_RENDER_MEMO, key, _line_tail(ev))
        if ev.tick != tick:
            tick = ev.tick
            column = str(tick)
        lines.append(column + tail)
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
    """The header and the events: read-only FrozenEvents, each shared by
    every parse in the process that meets its line while the memo has room."""
    lines = text.split("\n")
    if lines[-1]:
        raise TraceFormatError(f"line {len(lines)}: the text does not end with a newline")
    meta, start = _parse_header(lines)
    events: list[Event] = []
    tick = 0  # the previous event line's tick
    for line_no, line in enumerate(islice(lines, start, len(lines) - 1), start=start + 1):
        ev = _EVENT_MEMO.get(line)
        if ev is None:
            if line[:1] == "#" and "|" not in line:
                # a comment, unless it names a header tag; a # line with a |
                # is read as an event line, so no event line can be commented out
                words = line[1:].split(maxsplit=1)
                if words and words[0] in HEADER:
                    raise TraceFormatError(f"line {line_no}: header line after the column row")
                continue
            head, _, tail = line.partition("|")
            shape = _PARSE_MEMO.get(tail)
            if shape is None:
                ev = parse_event_line(line, line_no)
                _memoise(_PARSE_MEMO, tail, _shape(ev))
            else:
                try:
                    ev = Event(_count(head), *shape)
                except ValueError as exc:
                    raise TraceFormatError(f"line {line_no}: {exc} in {line!r}") from exc
            ev.__class__ = FrozenEvent
            _memoise(_EVENT_MEMO, line, ev)
        if ev.tick < tick:
            raise TraceFormatError(f"line {line_no}: tick {ev.tick} after tick {tick} in {line!r}")
        tick = ev.tick
        events.append(ev)
    return meta, events
