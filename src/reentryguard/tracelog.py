"""Trace serialization: one event per line, stable field order.

The line format is the only thing the verifier consumes. It never sees
simulator objects, so everything verification needs must be representable
here. Layout:

* header lines, prefixed ``#``: format version, scenario name, seed, tick
  budget, enforcement flags, guard mode, attacker id, one line per agent,
  one line per carrier (owner/class/autoload/position/scope/initial label)
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
    declassify:human_review         carrier target in carrier_id
    context_reset / heartbeat
    inject:c0:1111

Missing values are ``-``. Events without a decision are bookkeeping; the
verifier rejects decision-less lines for effectful kinds.

The parser yields ``model.Event``, the record the simulator writes, and
fails closed: anything it cannot interpret raises ``TraceFormatError``
naming the line. That covers a wrong column or detail-field count, an
unknown kind, enum value or facet token, a negative tick, a tick or carrier
id not written as ``str(int)`` writes it (``+3``, `` 4``, ``03``, ``1_0``),
a tick lower than the previous event line's, a sender without ``from=``, a
decision/reason pair that ``Decision`` does not admit
(``allow|rtw-re-entry``, ``deny|ok``, ``allow|-``), and an ``# enforcement``
header whose ``guard=`` is not ``deny`` or ``approve``, whose flags are not
exactly the four layers, or whose flag values are not ``0`` or ``1``. An
event line that parses is the line ``render_trace`` writes for it. Every
value is looked up in a table built once from the model; decisions are the
model's shared ``DECISIONS`` objects.

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

from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from typing import Any, Callable

from .model import (
    DECISIONS,
    ActionKind,
    DeclassProcedure,
    Event,
    EventKind,
    GuardMode,
    Layer,
    PayloadFacets,
    ReentryGuardError,
    SchemaKind,
    TaintLabel,
    Trace,
)

FORMAT_VERSION = 1
COLUMN_ROW = "tick|agent|kind|carrier_id|label|decision|reason"
MISSING = "-"


class TraceFormatError(ReentryGuardError):
    """A serialized trace line or header could not be parsed."""


# ---------------------------------------------------------------------------
# header metadata
# ---------------------------------------------------------------------------


@dataclass
class AgentMeta:
    id: str
    privilege: str
    period: int
    channels: list[str]


@dataclass
class CarrierMeta:
    id: int
    name: str
    owner: str | None
    cls: str
    autoload: str
    position: str
    scope: str
    label0: str


@dataclass
class TraceMeta:
    scenario: str
    seed: int
    ticks: int
    flags: dict[str, bool]  # rtw/seal/memgate/attenuation
    guard: str  # "deny" | "approve"
    attacker: str
    agents: list[AgentMeta] = field(default_factory=list)
    carriers: list[CarrierMeta] = field(default_factory=list)


def render_header(meta: TraceMeta) -> list[str]:
    flag_bits = " ".join(f"{k}={1 if v else 0}" for k, v in sorted(meta.flags.items()))
    lines = [
        f"# trace-format {FORMAT_VERSION}",
        f"# scenario {meta.scenario}",
        f"# seed {meta.seed}",
        f"# ticks {meta.ticks}",
        f"# enforcement {flag_bits} guard={meta.guard}",
        f"# attacker {meta.attacker}",
    ]
    for ag in meta.agents:
        chans = ",".join(ag.channels) if ag.channels else MISSING
        lines.append(
            f"# agent {ag.id} privilege={ag.privilege} period={ag.period} channels={chans}"
        )
    for ca in meta.carriers:
        owner = ca.owner if ca.owner is not None else MISSING
        lines.append(
            f"# carrier {ca.id} name={ca.name} owner={owner} class={ca.cls}"
            f" autoload={ca.autoload} position={ca.position} scope={ca.scope}"
            f" label0={ca.label0}"
        )
    lines.append(COLUMN_ROW)
    return lines


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


def _by_value(enum_cls: type[Enum]) -> dict[str, Any]:
    return {member.value: member for member in enum_cls}


def _count(raw: str) -> int:  # a tick or carrier id, in the one form render writes
    value = int(raw)
    if str(value) != raw:
        raise ValueError(f"{raw!r} is not written as {value}")
    return value


def _sender(token: str) -> str:
    if not token.startswith("from="):
        raise ValueError(f"sender {token!r} lacks from=")
    return token[len("from="):]


# value tables, built once: token -> model value
_KINDS = _by_value(EventKind)
_LABELS = {MISSING: None, **_by_value(TaintLabel)}
_GUARDS = tuple(_by_value(GuardMode))
_LAYERS = sorted(_by_value(Layer).keys() - {Layer.NONE.value})
_FLAG_BITS = {"0": False, "1": True}
_FACETS = {t: PayloadFacets.from_token(t) for t in (format(i, "04b") for i in range(16))}
# (verdict, reason) columns -> the shared decision; only the pairs Decision admits
_DECISIONS = {(MISSING, MISSING): None} | {
    (v.value, r.value): decision for (v, r), decision in DECISIONS.items()
}

_REQUIRED = object()
# field -> (render, parse, value when the token leaves the field out);
# exfil is a trailing flag, rendered (not None) only when set
_CODECS: dict[str, tuple[Callable[[Any], str | None], Callable[[str], Any], Any]] = {
    "facets": (PayloadFacets.token, _FACETS.__getitem__, _REQUIRED),
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


def render_trace(trace: Trace, meta: TraceMeta) -> str:
    lines = render_header(meta)
    # event fields other than the tick -> line tail; lives for this call
    tails: dict[tuple[Any, ...], str] = {}
    for ev in trace:
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


def _parse_header_line(text: str, line_no: int, meta: TraceMeta) -> None:
    body = text[1:].strip()
    fieldsv = body.split()
    if not fieldsv:
        return
    tag = fieldsv[0]
    kv = dict(part.split("=", 1) for part in fieldsv[2:] if "=" in part)
    if tag == "scenario":
        meta.scenario = fieldsv[1]
    elif tag == "seed":
        meta.seed = int(fieldsv[1])
    elif tag == "ticks":
        meta.ticks = int(fieldsv[1])
    elif tag == "enforcement":
        pairs = dict(part.split("=", 1) for part in fieldsv[1:] if "=" in part)
        meta.guard = pairs.pop("guard", GuardMode.DENY_ALL.value)
        if meta.guard not in _GUARDS:
            raise ValueError(f"guard={meta.guard} is not one of {', '.join(_GUARDS)}")
        if sorted(pairs) != _LAYERS:
            raise ValueError(f"flags {' '.join(sorted(pairs))} are not {' '.join(_LAYERS)}")
        for name, bit in pairs.items():
            if bit not in _FLAG_BITS:
                raise ValueError(f"{name}={bit} is not 0 or 1")
        meta.flags = {k: _FLAG_BITS[v] for k, v in pairs.items()}
    elif tag == "attacker":
        meta.attacker = fieldsv[1]
    elif tag == "agent":
        chans = kv.get("channels", MISSING)
        meta.agents.append(
            AgentMeta(
                id=fieldsv[1],
                privilege=kv.get("privilege", "low"),
                period=int(kv.get("period", "1")),
                channels=[] if chans == MISSING else chans.split(","),
            )
        )
    elif tag == "carrier":
        owner = kv.get("owner", MISSING)
        meta.carriers.append(
            CarrierMeta(
                id=int(fieldsv[1]),
                name=kv.get("name", ""),
                owner=None if owner == MISSING else owner,
                cls=kv.get("class", ""),
                autoload=kv.get("autoload", ""),
                position=kv.get("position", ""),
                scope=kv.get("scope", ""),
                label0=kv.get("label0", "clean"),
            )
        )
    elif tag == "trace-format":
        if int(fieldsv[1]) != FORMAT_VERSION:
            raise TraceFormatError(f"line {line_no}: unsupported trace format {fieldsv[1]}")


def parse_trace(text: str) -> tuple[TraceMeta, list[Event]]:
    meta = TraceMeta(scenario="", seed=0, ticks=0, flags={}, guard="deny", attacker="")
    events: list[Event] = []
    saw_columns = False
    # line tail -> the fields of the event it parsed to, and tick column ->
    # checked tick; both live for this call
    shapes: dict[str, tuple[Any, ...]] = {}
    ticks: dict[str, int] = {}
    last_tick = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.startswith("#"):
            try:
                _parse_header_line(line, line_no, meta)
            except (IndexError, ValueError) as exc:
                raise TraceFormatError(f"line {line_no}: bad header {line!r}: {exc}") from exc
            continue
        raw_tick, _, tail = line.partition("|")
        shape = shapes.get(tail)
        if shape is not None:
            try:
                tick = ticks.get(raw_tick)
                if tick is None:
                    tick = ticks[raw_tick] = _count(raw_tick)
                ev = Event(tick, *shape)
            except ValueError as exc:
                raise TraceFormatError(f"line {line_no}: {exc} in {line!r}") from exc
        elif not line.strip():
            continue
        elif line == COLUMN_ROW:
            saw_columns = True
            continue
        elif not saw_columns:
            raise TraceFormatError(f"line {line_no}: event line before column row")
        else:
            ev = parse_event_line(line, line_no)
            shapes[tail] = _shape(ev)
        if ev.tick < last_tick:
            raise TraceFormatError(f"line {line_no}: tick {ev.tick} after tick {last_tick} in {line!r}")
        last_tick = ev.tick
        events.append(ev)
    return meta, events
