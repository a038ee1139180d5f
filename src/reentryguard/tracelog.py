"""Trace serialization: one event per line, stable field order.

The line format is the only thing the verifier consumes. It never sees
simulator objects, so everything verification needs must be representable
here. Layout:

* header lines, prefixed ``#``: format version, scenario name, seed, tick
  budget, enforcement flags, guard mode, attacker id, one line per agent,
  one line per carrier (owner/class/autoload/position/scope/initial label)
* one column row: ``tick|agent|kind|carrier_id|label|decision|reason``
* event lines in trace order

The ``kind`` column is a colon-joined token; the first part is the event
kind, the rest is kind-specific detail:

    write:1111                      facet bits persist,propagate,harm,verbatim
    exposed_read / opaque_read      carrier or source in the carrier_id column
    high_risk:invoke_shell
    msg_send:c1:1111[:exfil]
    msg_recv:c1:0110:from=a2
    promote:free_form_instruction:1111   carrier_id column holds candidate id
    declassify:human_review         carrier target in carrier_id, else agent
    context_reset / heartbeat
    inject:c0:1111

Missing values are ``-``. Events without a decision are bookkeeping; the
verifier rejects decision-less lines for effectful kinds.

Identical runs must serialize byte-identically; nothing here may read the
clock, the environment, or unordered containers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    ActionKind,
    DeclassProcedure,
    Event,
    EventKind,
    PayloadFacets,
    Reason,
    ReentryGuardError,
    SchemaKind,
    TaintLabel,
    Trace,
    Verdict,
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
# event -> line
# ---------------------------------------------------------------------------


def _facet_token(facets: PayloadFacets | None) -> str:
    return (facets or PayloadFacets.none()).token()


def _kind_token(ev: Event) -> str:
    k = ev.kind
    if k is EventKind.WRITE:
        return f"write:{_facet_token(ev.facets)}"
    if k is EventKind.HIGH_RISK:
        if ev.action is None:
            raise TraceFormatError("high_risk event without an action kind")
        return f"high_risk:{ev.action.value}"
    if k is EventKind.MSG_SEND:
        if ev.channel is None:
            raise TraceFormatError("msg_send event without a channel")
        token = f"msg_send:{ev.channel}:{_facet_token(ev.facets)}"
        return token + ":exfil" if ev.exfil else token
    if k is EventKind.MSG_RECV:
        if ev.channel is None or ev.sender is None:
            raise TraceFormatError("msg_recv event needs channel and sender")
        return f"msg_recv:{ev.channel}:{_facet_token(ev.facets)}:from={ev.sender}"
    if k is EventKind.PROMOTE:
        if ev.schema is None:
            raise TraceFormatError("promote event without a schema kind")
        return f"promote:{ev.schema.value}:{_facet_token(ev.facets)}"
    if k is EventKind.DECLASSIFY:
        if ev.procedure is None:
            raise TraceFormatError("declassify event without a procedure")
        return f"declassify:{ev.procedure.value}"
    if k is EventKind.INJECT:
        if ev.channel is None:
            raise TraceFormatError("inject event without a channel")
        return f"inject:{ev.channel}:{_facet_token(ev.facets)}"
    return k.value


def event_to_line(ev: Event) -> str:
    carrier = str(ev.carrier_id) if ev.carrier_id is not None else MISSING
    label = ev.label.value if ev.label is not None else MISSING
    if ev.decision is not None:
        verdict = ev.decision.verdict.value
        reason = ev.decision.reason.value
    else:
        verdict = MISSING
        reason = MISSING
    return "|".join([str(ev.tick), ev.agent, _kind_token(ev), carrier, label, verdict, reason])


def render_trace(trace: Trace, meta: TraceMeta) -> str:
    lines = render_header(meta)
    lines.extend(event_to_line(ev) for ev in trace)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# line -> parsed event
# ---------------------------------------------------------------------------


@dataclass
class LogEvent:
    """Parsed trace line. This is deliberately a plain record: the verifier
    reconstructs all state of interest from these alone."""

    tick: int
    agent: str
    kind: EventKind
    carrier_id: int | None
    label: TaintLabel | None
    verdict: Verdict | None
    reason: Reason | None
    facets: PayloadFacets
    channel: str | None = None
    action: ActionKind | None = None
    schema: SchemaKind | None = None
    procedure: DeclassProcedure | None = None
    sender: str | None = None
    exfil: bool = False


def _parse_kind_token(token: str, line_no: int) -> dict:
    parts = token.split(":")
    try:
        kind = EventKind(parts[0])
    except ValueError as exc:
        raise TraceFormatError(f"line {line_no}: unknown event kind {parts[0]!r}") from exc
    out: dict = {"kind": kind, "facets": PayloadFacets.none()}
    try:
        if kind is EventKind.WRITE:
            out["facets"] = PayloadFacets.from_token(parts[1])
        elif kind is EventKind.HIGH_RISK:
            out["action"] = ActionKind(parts[1])
        elif kind is EventKind.MSG_SEND:
            out["channel"] = parts[1]
            out["facets"] = PayloadFacets.from_token(parts[2])
            out["exfil"] = len(parts) > 3 and parts[3] == "exfil"
        elif kind is EventKind.MSG_RECV:
            out["channel"] = parts[1]
            out["facets"] = PayloadFacets.from_token(parts[2])
            if not parts[3].startswith("from="):
                raise ValueError("missing from=")
            out["sender"] = parts[3][len("from="):]
        elif kind is EventKind.PROMOTE:
            out["schema"] = SchemaKind(parts[1])
            out["facets"] = PayloadFacets.from_token(parts[2])
        elif kind is EventKind.DECLASSIFY:
            out["procedure"] = DeclassProcedure(parts[1])
        elif kind is EventKind.INJECT:
            out["channel"] = parts[1]
            out["facets"] = PayloadFacets.from_token(parts[2])
        elif len(parts) > 1:
            raise ValueError("unexpected detail")
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(f"line {line_no}: bad kind token {token!r}: {exc}") from exc
    return out


def parse_event_line(line: str, line_no: int = 0) -> LogEvent:
    cols = line.split("|")
    if len(cols) != 7:
        raise TraceFormatError(f"line {line_no}: expected 7 columns, got {len(cols)}")
    raw_tick, agent, kind_token, raw_carrier, raw_label, raw_verdict, raw_reason = cols
    try:
        tick = int(raw_tick)
    except ValueError as exc:
        raise TraceFormatError(f"line {line_no}: bad tick {raw_tick!r}") from exc
    detail = _parse_kind_token(kind_token, line_no)
    try:
        carrier_id = None if raw_carrier == MISSING else int(raw_carrier)
        label = None if raw_label == MISSING else TaintLabel(raw_label)
        verdict = None if raw_verdict == MISSING else Verdict(raw_verdict)
        reason = None if raw_reason == MISSING else Reason(raw_reason)
    except ValueError as exc:
        raise TraceFormatError(f"line {line_no}: {exc}") from exc
    return LogEvent(
        tick=tick,
        agent=agent,
        kind=detail["kind"],
        carrier_id=carrier_id,
        label=label,
        verdict=verdict,
        reason=reason,
        facets=detail["facets"],
        channel=detail.get("channel"),
        action=detail.get("action"),
        schema=detail.get("schema"),
        procedure=detail.get("procedure"),
        sender=detail.get("sender"),
        exfil=detail.get("exfil", False),
    )


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
        meta.guard = pairs.pop("guard", "deny")
        meta.flags = {k: v == "1" for k, v in pairs.items()}
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


def parse_trace(text: str) -> tuple[TraceMeta, list[LogEvent]]:
    meta = TraceMeta(scenario="", seed=0, ticks=0, flags={}, guard="deny", attacker="")
    events: list[LogEvent] = []
    saw_columns = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            try:
                _parse_header_line(line, line_no, meta)
            except (IndexError, ValueError) as exc:
                raise TraceFormatError(f"line {line_no}: bad header {line!r}: {exc}") from exc
            continue
        if line == COLUMN_ROW:
            saw_columns = True
            continue
        if not saw_columns:
            raise TraceFormatError(f"line {line_no}: event line before column row")
        events.append(parse_event_line(line, line_no))
    return meta, events
