"""Trace serialization: stable line format, header metadata, round-trips."""

from dataclasses import fields

import pytest

from reentryguard.cli import main
from reentryguard.model import (
    DECISIONS,
    ActionKind,
    DeclassProcedure,
    Decision,
    Event,
    EventKind,
    PayloadFacets,
    Reason,
    SchemaKind,
    TaintLabel,
    Trace,
)
from reentryguard.tracelog import (
    COLUMN_ROW,
    MISSING,
    SHAPE_FIELDS,
    TraceFormatError,
    TraceMeta,
    event_to_line,
    parse_event_line,
    parse_trace,
    render_trace,
)


def minimal_meta() -> TraceMeta:
    return TraceMeta(
        scenario="toy",
        seed=1,
        ticks=4,
        flags={"rtw": False, "seal": False, "memgate": False, "attenuation": False},
        guard="deny",
        attacker="attacker",
    )


ONE_PER_KIND = [
    Event(tick=1, agent="a1", kind=EventKind.WRITE, carrier_id=2, label=TaintLabel.CLEAN,
          facets=PayloadFacets.none(), decision=Decision.allow()),
    Event(tick=1, agent="a1", kind=EventKind.EXPOSED_READ, carrier_id=3,
          label=TaintLabel.TAINTED, decision=Decision.deny(Reason.RTW_RE_ENTRY)),
    Event(tick=1, agent="a1", kind=EventKind.OPAQUE_READ, carrier_id=3,
          label=TaintLabel.EXTERNAL, decision=Decision.allow(Reason.NOT_MEDIATED_LOWRISK)),
    Event(tick=1, agent="a1", kind=EventKind.HIGH_RISK, action=ActionKind.INVOKE_SHELL,
          decision=Decision.deny(Reason.ATTENUATED_HIGHRISK)),
    Event(tick=2, agent="a1", kind=EventKind.MSG_SEND, channel="c1", label=TaintLabel.TAINTED_DERIVED,
          facets=PayloadFacets.from_token("0110"), decision=Decision.allow()),
    Event(tick=2, agent="a1", kind=EventKind.MSG_SEND, channel="c1", label=TaintLabel.TAINTED_DERIVED,
          facets=PayloadFacets.full(), exfil=True, decision=Decision.guard(Reason.ATTENUATED_HIGHRISK)),
    Event(tick=2, agent="a1", kind=EventKind.MSG_RECV, channel="c1", label=TaintLabel.TAINTED,
          facets=PayloadFacets.full(), sender="a2"),
    Event(tick=2, agent="a1", kind=EventKind.PROMOTE, carrier_id=4, label=TaintLabel.TAINTED,
          schema=SchemaKind.TYPED_FACT, facets=PayloadFacets.none(),
          decision=Decision.deny(Reason.PROMOTION_REJECTED)),
    Event(tick=3, agent="a1", kind=EventKind.DECLASSIFY, carrier_id=5, label=TaintLabel.TAINTED,
          procedure=DeclassProcedure.HUMAN_REVIEW, decision=Decision.allow()),
    Event(tick=3, agent="a1", kind=EventKind.CONTEXT_RESET),
    Event(tick=3, agent="a1", kind=EventKind.HEARTBEAT),
    Event(tick=0, agent="attacker", kind=EventKind.INJECT, channel="c0", label=TaintLabel.TAINTED,
          facets=PayloadFacets.full()),
]


def _kind_id(event: Event) -> str:
    return event.kind.value + (":exfil" if event.exfil else "")


class TestEventLines:
    def test_write_line_shape(self):
        event = Event(
            tick=3,
            agent="a1",
            kind=EventKind.WRITE,
            carrier_id=7,
            label=TaintLabel.TAINTED,
            facets=PayloadFacets.full(),
            decision=Decision.allow(),
        )
        assert event_to_line(event) == "3|a1|write:1111|7|tainted|allow|ok"

    def test_missing_fields_render_as_dash(self):
        event = Event(tick=0, agent="a1", kind=EventKind.HEARTBEAT)
        assert event_to_line(event) == f"0|a1|heartbeat|{MISSING}|{MISSING}|{MISSING}|{MISSING}"

    def test_exfil_send_token(self):
        event = Event(
            tick=2,
            agent="a1",
            kind=EventKind.MSG_SEND,
            channel="c0",
            facets=PayloadFacets.from_token("0110"),
            exfil=True,
            decision=Decision.deny(Reason.ATTENUATED_HIGHRISK),
        )
        line = event_to_line(event)
        assert "msg_send:c0:0110:exfil" in line
        assert line.endswith("deny|attenuated-highrisk")

    @pytest.mark.parametrize("event", ONE_PER_KIND, ids=_kind_id)
    def test_line_round_trip_per_kind(self, event):
        assert parse_event_line(event_to_line(event)) == event

    def test_samples_cover_every_kind(self):
        assert {ev.kind for ev in ONE_PER_KIND} == set(EventKind)

    def test_detail_field_is_required_to_render(self):
        # a line that would not parse back to the same event is never written
        with pytest.raises(TraceFormatError, match="write event without facets"):
            event_to_line(Event(tick=1, agent="a1", kind=EventKind.WRITE, decision=Decision.allow()))


class TestParseErrors:
    def test_wrong_column_count(self):
        with pytest.raises(TraceFormatError):
            parse_event_line("1|a1|write:1111|7|tainted|allow")

    def test_unknown_kind(self):
        with pytest.raises(TraceFormatError):
            parse_event_line("1|a1|teleport:1111|7|tainted|allow|ok")

    def test_bad_tick(self):
        with pytest.raises(TraceFormatError):
            parse_event_line("x|a1|heartbeat|-|-|-|-")

    def test_bad_label(self):
        with pytest.raises(TraceFormatError):
            parse_event_line("1|a1|write:1111|7|sparkly|allow|ok")

    def test_bad_facet_token(self):
        with pytest.raises(TraceFormatError):
            parse_event_line("1|a1|write:11|7|tainted|allow|ok")

    @pytest.mark.parametrize(
        "line",
        [
            "1|a1|write:1111:junk|7|tainted|allow|ok",
            "1|a1|msg_send:c1:1111:junk|-|tainted|allow|ok",
            "1|a1|msg_recv:c1:1111:from=a2:extra|-|tainted|-|-",
            "1|a1|exposed_read|7|tainted|allow|rtw-re-entry",
            "1|a1|exposed_read|7|tainted|deny|ok",
            "1|a1|exposed_read|7|tainted|allow|-",
            "1|a1|exposed_read|7|tainted|-|ok",
            "-1|a1|heartbeat|-|-|-|-",
            # render writes str(int); any other spelling of a tick or
            # carrier id would re-render as different bytes
            "+3|a1|heartbeat|-|-|-|-",
            " 4|a1|heartbeat|-|-|-|-",
            "1_0|a1|heartbeat|-|-|-|-",
            "03|a1|heartbeat|-|-|-|-",
            "1|a1|exposed_read|+7|tainted|allow|ok",
            "1|a1|exposed_read|07|tainted|allow|ok",
        ],
    )
    def test_malformed_event_line_names_its_line(self, line):
        with pytest.raises(TraceFormatError, match=r"^line 2: "):
            parse_trace(f"{COLUMN_ROW}\n{line}\n")

    def test_event_line_before_column_row_rejected(self):
        text = "1|a1|heartbeat|-|-|-|-\n" + COLUMN_ROW + "\n"
        with pytest.raises(TraceFormatError):
            parse_trace(text)

    @pytest.mark.parametrize(
        "header",
        [
            "# seed",
            "# attacker",
            "# trace-format",
            "# seed x",
            "# agent a1 period=x",
            "# carrier x",
            "# enforcement attenuation=0 memgate=0 rtw=0 seal=0 guard=maybe",
            "# enforcement attenuation=0 memgate=0 rtw=yes seal=0 guard=deny",
            "# enforcement attenuation=0 memgate=0 rtw=0 seal= guard=approve",
            "# enforcement attenuaton=1 memgate=1 rtw=1 seal=1 guard=deny",
            "# enforcement memgate=1 rtw=1 seal=1 guard=deny",
            "# enforcement attenuation=1 memgate=1 rtw=1 seal=1 turbo=0 guard=deny",
            "# enforcement guard=deny",
        ],
    )
    def test_malformed_header_names_its_line(self, header, bundled, tmp_path, capsys):
        lines = bundled("fwA").trace_text.splitlines()
        text = "\n".join([lines[0], header, *lines[1:]]) + "\n"
        with pytest.raises(TraceFormatError, match=r"^line 2: "):
            parse_trace(text)
        path = tmp_path / "bad.trace"
        path.write_text(text)
        assert main(["--verify-trace", str(path)]) == 2
        assert "line 2: " in capsys.readouterr().err


class TestLineShapeCache:
    """parse_trace parses the first line with a given tail strictly and
    rebuilds later ones from the cached fields; only the tick is new."""

    HEARTBEAT_TAIL = "|a1|heartbeat|-|-|-|-"

    @pytest.mark.parametrize("tick", ["-1", "x", "2", "", "+3", " 4", "1_0", "03"])
    def test_cached_tail_still_checks_its_tick(self, tick):
        text = f"{COLUMN_ROW}\n3{self.HEARTBEAT_TAIL}\n3{self.HEARTBEAT_TAIL}\n{tick}{self.HEARTBEAT_TAIL}\n"
        with pytest.raises(TraceFormatError, match=r"^line 4: "):
            parse_trace(text)

    def test_cached_tail_takes_its_own_tick(self):
        text = f"{COLUMN_ROW}\n3{self.HEARTBEAT_TAIL}\n5{self.HEARTBEAT_TAIL}\n"
        _, events = parse_trace(text)
        assert [ev.tick for ev in events] == [3, 5]
        assert events[0] is not events[1]

    def test_shape_is_every_event_field_but_tick(self):
        # Event(tick, *shape) rebuilds a cached line, so tick must come first
        assert ("tick", *SHAPE_FIELDS) == tuple(f.name for f in fields(Event))

    def test_reversed_event_lines_rejected(self, bundled, tmp_path, capsys):
        lines = bundled("fwA").trace_text.splitlines()
        start = lines.index(COLUMN_ROW) + 1
        text = "\n".join(lines[:start] + lines[start:][::-1]) + "\n"
        with pytest.raises(TraceFormatError, match=r"^line \d+: tick \d+ after tick \d+"):
            parse_trace(text)
        path = tmp_path / "reversed.trace"
        path.write_text(text)
        assert main(["--verify-trace", str(path)]) == 2
        assert "after tick" in capsys.readouterr().err


class TestTraceRoundTrip:
    def test_synthetic_trace(self):
        trace = Trace()
        trace.append_event(Event(tick=0, agent="attacker", kind=EventKind.INJECT,
                                 channel="c0", facets=PayloadFacets.full()))
        trace.append_event(Event(tick=1, agent="a1", kind=EventKind.WRITE, carrier_id=1,
                                 label=TaintLabel.TAINTED_DERIVED, facets=PayloadFacets.full(),
                                 decision=Decision.allow()))
        text = render_trace(trace, minimal_meta())
        meta, events = parse_trace(text)
        assert meta.scenario == "toy"
        assert meta.seed == 1
        assert meta.guard == "deny"
        assert len(events) == 2
        assert events[0].kind is EventKind.INJECT
        assert events[1].label is TaintLabel.TAINTED_DERIVED

    def test_full_run_round_trip(self, bundled):
        """parse yields the simulator's own events, and render reproduces
        every event line of a real run."""
        result = bundled("fwA")
        meta, events = parse_trace(result.trace_text)
        assert meta.scenario == "fwA"
        assert events == result.trace.events
        assert len(meta.agents) == 3
        assert meta.carriers, "carrier metadata must survive the round trip"
        original_lines = [
            line for line in result.trace_text.splitlines() if line and not line.startswith("#")
        ][1:]  # drop the column row
        assert original_lines == [event_to_line(p) for p in events]

    def test_parser_and_mediate_share_decisions(self, bundled):
        result = bundled("fwA", enforce="all")
        _, events = parse_trace(result.trace_text)
        shared = {id(d) for d in DECISIONS.values()}
        decided = [ev for ev in result.trace.events if ev.decision is not None]
        assert decided
        assert all(id(ev.decision) in shared for ev in decided)
        assert all(p.decision is s.decision for p, s in zip(events, result.trace.events))

    def test_header_flags_round_trip(self, bundled):
        meta, _ = parse_trace(bundled("fwA", enforce="rtw,seal").trace_text)
        assert meta.flags == {"rtw": True, "seal": True, "memgate": False, "attenuation": False}

    def test_carrier_metadata_fields(self, bundled):
        meta, _ = parse_trace(bundled("fwA").trace_text)
        by_name = {c.name: c for c in meta.carriers}
        heartbeat = by_name["a1.taskfile"]
        assert heartbeat.owner == "a1"
        assert heartbeat.cls == "workspace_file"
        assert heartbeat.autoload == "heartbeat"
        assert heartbeat.label0 == "clean"
