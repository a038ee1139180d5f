"""Trace serialization: stable line format, header metadata, round-trips."""

from dataclasses import fields, replace
from itertools import combinations

import pytest

from reentryguard.cli import main
from reentryguard.model import (
    DECISIONS,
    LAYER_NAMES,
    ActionKind,
    DeclassProcedure,
    Decision,
    Event,
    EventKind,
    GuardMode,
    PayloadFacets,
    Reason,
    ReentryGuardError,
    SchemaKind,
    TaintLabel,
)
from reentryguard.policy import EnforcementConfig
from reentryguard.scenarios import bundled_names, load_bundled, random_scenario
from reentryguard.sim import Ecosystem, run_scenario
from reentryguard.tracelog import (
    COLUMN_ROW,
    HEADER,
    MISSING,
    SINGLE_FIELDS,
    SHAPE_FIELDS,
    TraceFormatError,
    TraceMeta,
    event_to_line,
    parse_event_line,
    parse_trace,
    render_trace,
)
from reentryguard.verifier import build_report


# the fields of a well-formed carrier line, after its id
CARRIER_KEYS = (
    "name=x owner=a1 class=workspace_file autoload=heartbeat"
    " position=user_prompt scope=agent_local label0=clean"
)


def minimal_meta() -> TraceMeta:
    return TraceMeta(
        scenario="toy",
        seed=1,
        ticks=4,
        enforcement=EnforcementConfig.none(),
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
          procedure=DeclassProcedure.DETERMINISTIC_VALIDATION, decision=Decision.allow()),
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
            # the one declassification procedure the model knows
            "3|a1|declassify:human_review|5|tainted|allow|ok",
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
            # header integers, like ticks, are read in the one form render writes
            "# seed +07",
            "# ticks 0_8",
            # no scenario has a tick budget or a heartbeat period below 1
            "# ticks 0",
            "# ticks -3",
            "# agent a9 privilege=low period=0 channels=c0",
            "# agent a9 privilege=low period=-4 channels=c0",
            f"# carrier 01 {CARRIER_KEYS}",
            "# agent a9 privilege=low period=+2 channels=c0",
            "# foo bar",
            f"# carrier 90 {CARRIER_KEYS.replace('workspace_file', 'bogus')}",
            f"# carrier 90 {CARRIER_KEYS.replace('owner=a1 ', '')}",
            f"# carrier 90 {CARRIER_KEYS} zzz=1",
            f"# carrier 90 {CARRIER_KEYS.replace('label0=clean', 'label0=bogus')}",
            # a carrier the simulator could not build: static config always autoloads
            "# carrier 90 name=x owner=a1 class=static_config autoload=never"
            " position=system_prompt scope=agent_local label0=clean",
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


def _refused(text: str, tmp_path, match: str) -> None:
    """Auditing the text fails naming its cause, and --verify-trace exits 2."""
    with pytest.raises(ReentryGuardError, match=match):
        build_report(text)
    path = tmp_path / "bad.trace"
    path.write_text(text)
    assert main(["--verify-trace", str(path)]) == 2


class TestHeaderRefusals:
    """Header edits that would change what the audit judges by: each is
    refused, never read with a value filled in or replaced."""

    def test_second_enforcement_line(self, bundled, tmp_path):
        lines = bundled("fwA", enforce="all").trace_text.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("# enforcement ")) + 1
        weaker = "# enforcement attenuation=0 memgate=0 rtw=0 seal=0 guard=approve"
        text = "\n".join([*lines[:at], weaker, *lines[at:]]) + "\n"
        _refused(text, tmp_path, rf"^line {at + 1}: .*repeated")

    def test_second_scenario_line(self, bundled, tmp_path):
        lines = bundled("fwA").trace_text.splitlines()
        text = "\n".join([*lines[:2], "# scenario fwB", *lines[2:]]) + "\n"
        _refused(text, tmp_path, r"^line 3: .*repeated")

    def test_carrier_declared_twice(self, bundled, tmp_path):
        lines = bundled("fwA").trace_text.splitlines()
        at = lines.index(COLUMN_ROW)
        text = "\n".join([*lines[:at], lines[at - 1], *lines[at:]]) + "\n"
        _refused(text, tmp_path, rf"^line {at + 1}: .*repeated carrier")

    @pytest.mark.parametrize(
        "header",
        [
            f"# carrier 90 {CARRIER_KEYS}",
            f"#carrier 90 {CARRIER_KEYS}",
            "# enforcement attenuation=0 memgate=0 rtw=0 seal=0 guard=approve",
            "# attacker a1",
        ],
    )
    def test_header_line_after_the_events(self, header, bundled, tmp_path):
        lines = bundled("fwA").trace_text.splitlines()
        text = "\n".join([*lines, header]) + "\n"
        _refused(text, tmp_path, rf"^line {len(lines) + 1}: header line after the column row")

    def test_comment_after_the_column_row_is_skipped(self, bundled):
        """A # line after the column row whose first word is no header tag
        carries nothing the audit reads."""
        text = bundled("fwA").trace_text
        lines = text.splitlines()
        at = lines.index(COLUMN_ROW) + 5
        # the text after the first | repeats an event line's
        repeat = "# repeat" + lines[at][lines[at].index("|"):]
        commented = "\n".join([*lines[:at], "# note", *lines[at:], repeat, "#", "# nonce 3"]) + "\n"
        assert parse_trace(commented) == parse_trace(text)
        assert build_report(commented) == build_report(text)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("# scenario fwA", "# scenario fw|A"),
            ("# agent a1 ", "# agent a,1 "),
            ("# agent a1 ", "# agent x@1 "),
            (" owner=a1 ", " owner=a,1 "),
            (" owner=a1 ", " owner=x@1 "),
            ("# attacker attacker", "# attacker at,tacker"),
            (" channels=c0", " channels=c:0"),
        ],
        ids=["scenario-pipe", "agent-comma", "agent-at", "owner-comma", "owner-at", "attacker-comma", "channel-colon"],
    )
    def test_names_that_would_split_the_record(self, old, new, bundled, tmp_path):
        """The names the scenario schema refuses because they would split a
        machine record are refused in a header too, never printed."""
        lines = bundled("fwA").trace_text.splitlines()
        at = next(i for i, line in enumerate(lines) if old in line)
        lines[at] = lines[at].replace(old, new, 1)
        text = "\n".join(lines) + "\n"
        with pytest.raises(TraceFormatError, match=rf"^line {at + 1}: bad header "):
            parse_trace(text)
        _refused(text, tmp_path, rf"^line {at + 1}: ")

    def test_agent_channel_repeated(self, bundled, tmp_path):
        """A repeated channel would make the agent read its log twice."""
        lines = bundled("fwA").trace_text.splitlines()
        at = lines.index("# agent a1 privilege=low period=2 channels=c0,c1")
        lines[at] += ",c1"
        _refused("\n".join(lines) + "\n", tmp_path, rf"^line {at + 1}: bad header .*repeated channel")

    def test_carrier_lines_without_owner(self, bundled, tmp_path):
        text = "".join(
            " ".join(part for part in line.split(" ") if not part.startswith("owner="))
            if line.startswith("# carrier ") else line
            for line in bundled("fwA").trace_text.splitlines(keepends=True)
        )
        _refused(text, tmp_path, r"^line \d+: bad header '# carrier ")

    @pytest.mark.parametrize(
        "tag, match",
        [
            ("attacker", "no # attacker line"),
            ("seed", "no # seed line"),
            ("scenario", "no # scenario line"),
            ("ticks", "no # ticks line"),
            ("enforcement", "no # enforcement line"),
            ("trace-format", r"^line 1: .*does not open with # trace-format"),
        ],
    )
    def test_single_tag_deleted(self, tag, match, bundled, tmp_path):
        text = "".join(
            line for line in bundled("cross_framework", enforce="all").trace_text.splitlines(keepends=True)
            if not line.startswith(f"# {tag} ")
        )
        _refused(text, tmp_path, match)

    def test_every_single_tag_but_trace_format_names_its_field(self):
        # missing_tags reads SINGLE_FIELDS; a single tag left out of it
        # would never be reported missing
        singles = {tag for tag, line in HEADER.items() if line.records is None}
        assert singles == {"trace-format", *SINGLE_FIELDS}
        assert set(SINGLE_FIELDS.values()) <= {f.name for f in fields(TraceMeta)}


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
        trace = [
            Event(tick=0, agent="attacker", kind=EventKind.INJECT, channel="c0", facets=PayloadFacets.full()),
            Event(tick=1, agent="a1", kind=EventKind.WRITE, carrier_id=1,
                  label=TaintLabel.TAINTED_DERIVED, facets=PayloadFacets.full(),
                  decision=Decision.allow()),
        ]
        text = render_trace(trace, minimal_meta())
        meta, events = parse_trace(text)
        assert meta.scenario == "toy"
        assert meta.seed == 1
        assert meta.enforcement.guard_mode is GuardMode.DENY_ALL
        assert len(events) == 2
        assert events[0].kind is EventKind.INJECT
        assert events[1].label is TaintLabel.TAINTED_DERIVED

    def test_full_run_round_trip(self, bundled):
        """parse yields the simulator's own events, and render reproduces
        every event line of a real run."""
        result = bundled("fwA")
        meta, events = parse_trace(result.trace_text)
        assert meta.scenario == "fwA"
        assert events == result.trace
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
        decided = [ev for ev in result.trace if ev.decision is not None]
        assert decided
        assert all(id(ev.decision) in shared for ev in decided)
        assert all(p.decision is s.decision for p, s in zip(events, result.trace))

    @pytest.mark.parametrize("enforce", ["none", "all"])
    @pytest.mark.parametrize("name", bundled_names())
    def test_header_round_trip_bundled(self, name, enforce, bundled):
        """The parsed header is the simulator's own, field for field."""
        scenario = replace(load_bundled(name), enforcement=EnforcementConfig.from_names(enforce))
        meta, _ = parse_trace(bundled(name, enforce).trace_text)
        assert vars(meta) == vars(Ecosystem(scenario).meta)

    def test_header_round_trip_fuzz(self):
        for seed in range(50):
            scenario = random_scenario(seed, EnforcementConfig.from_names("all"))
            meta, _ = parse_trace(run_scenario(scenario).trace_text)
            assert vars(meta) == vars(Ecosystem(scenario).meta), seed

    def test_scenario_name_with_spaces_round_trips(self):
        result = run_scenario(replace(load_bundled("fwA"), name="fwA with spaces"))
        assert parse_trace(result.trace_text)[0].scenario == "fwA with spaces"
        assert result.report.meta.scenario == "fwA with spaces"

    @pytest.mark.parametrize("guard", list(GuardMode), ids=lambda g: g.value)
    @pytest.mark.parametrize(
        "layers",
        [names for k in range(len(LAYER_NAMES) + 1) for names in combinations(LAYER_NAMES, k)],
        ids=lambda names: ",".join(names) or "none",
    )
    def test_header_flags_round_trip(self, layers, guard, bundled):
        """Each of the 32 enforcement values reads back from its spec string
        and from the header of a run under it."""
        cfg = EnforcementConfig(guard_mode=guard, **dict.fromkeys(layers, True))
        assert EnforcementConfig.from_names(cfg.names(), cfg.guard_mode) == cfg
        meta, _ = parse_trace(bundled("fwA", cfg.names(), guard).trace_text)
        assert meta.enforcement == cfg

    def test_carrier_metadata_fields(self, bundled):
        meta, _ = parse_trace(bundled("fwA").trace_text)
        by_name = {c.name: c for c in meta.carriers}
        heartbeat = by_name["a1.taskfile"]
        assert heartbeat.owner == "a1"
        assert heartbeat.cls == "workspace_file"
        assert heartbeat.autoload == "heartbeat"
        assert heartbeat.label == "clean"
