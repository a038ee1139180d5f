"""Trace serialization: stable line format, header metadata, round-trips."""

import copy
import operator
import pickle
import random
from dataclasses import FrozenInstanceError, fields, replace
from functools import cache
from itertools import combinations
from typing import Any, Callable

import pytest

from reentryguard import tracelog
from reentryguard.cli import main
from reentryguard.model import (
    FACET_VALUES,
    LAYER_NAMES,
    NO_FACETS,
    ActionKind,
    DeclassProcedure,
    Decision,
    Event,
    EventKind,
    FrozenEvent,
    GuardMode,
    ReentryGuardError,
    SchemaKind,
    TaintLabel,
)
from reentryguard.policy import EnforcementConfig
from reentryguard.scenarios import bundled_names, load_bundled, random_scenario
from reentryguard.sim import Ecosystem, run_scenario
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


# the rendered header of minimal_meta, through the column row and its newline
TOY_HEADER = render_trace([], minimal_meta())
FIRST = TOY_HEADER.count("\n") + 1  # the line number of the first event line


def toy_trace(*lines: str) -> str:
    """The toy header, then the lines, each ending with a newline."""
    return TOY_HEADER + "".join(line + "\n" for line in lines)


def in_place(text: str, bad: str) -> tuple[str, int]:
    """The text with bad in place of the first header line of bad's tag, or
    after the first line where it has none, and bad's line number."""
    lines = text.splitlines()
    tag = bad.split(" ")[1]
    at = next((i for i, line in enumerate(lines) if line.startswith(f"# {tag} ")), None)
    if at is None:
        at = 1
        lines.insert(at, bad)
    else:
        lines[at] = bad
    return "\n".join(lines) + "\n", at + 1


ONE_PER_KIND = [
    Event(tick=1, agent="a1", kind=EventKind.WRITE, carrier_id=2, label=TaintLabel.CLEAN,
          facets=NO_FACETS, decision=Decision.ALLOW),
    Event(tick=1, agent="a1", kind=EventKind.EXPOSED_READ, carrier_id=3,
          label=TaintLabel.TAINTED, decision=Decision.DENY_RE_ENTRY),
    Event(tick=1, agent="a1", kind=EventKind.OPAQUE_READ, carrier_id=3,
          label=TaintLabel.EXTERNAL, decision=Decision.NOT_MEDIATED),
    Event(tick=1, agent="a1", kind=EventKind.HIGH_RISK, action=ActionKind.INVOKE_SHELL,
          decision=Decision.DENY_ATTENUATED),
    Event(tick=2, agent="a1", kind=EventKind.MSG_SEND, channel="c1", label=TaintLabel.TAINTED_DERIVED,
          facets=FACET_VALUES["0110"], decision=Decision.ALLOW),
    Event(tick=2, agent="a1", kind=EventKind.MSG_SEND, channel="c1", label=TaintLabel.TAINTED_DERIVED,
          facets=FACET_VALUES["1111"], exfil=True, decision=Decision.GUARD_ATTENUATED),
    Event(tick=2, agent="a1", kind=EventKind.MSG_RECV, channel="c1", label=TaintLabel.TAINTED,
          facets=FACET_VALUES["1111"], sender="a2"),
    Event(tick=2, agent="a1", kind=EventKind.PROMOTE, carrier_id=4, label=TaintLabel.TAINTED,
          schema=SchemaKind.TYPED_FACT, facets=NO_FACETS,
          decision=Decision.DENY_PROMOTION),
    Event(tick=3, agent="a1", kind=EventKind.DECLASSIFY, carrier_id=5, label=TaintLabel.TAINTED,
          procedure=DeclassProcedure.DETERMINISTIC_VALIDATION, decision=Decision.ALLOW),
    Event(tick=3, agent="a1", kind=EventKind.CONTEXT_RESET),
    Event(tick=3, agent="a1", kind=EventKind.HEARTBEAT),
    Event(tick=0, agent="attacker", kind=EventKind.INJECT, channel="c0", label=TaintLabel.TAINTED,
          facets=FACET_VALUES["1111"]),
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
            facets=FACET_VALUES["1111"],
            decision=Decision.ALLOW,
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
            facets=FACET_VALUES["0110"],
            exfil=True,
            decision=Decision.DENY_ATTENUATED,
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
            event_to_line(Event(tick=1, agent="a1", kind=EventKind.WRITE, decision=Decision.ALLOW))


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
            # a high_risk line names the tool it invokes; writes and sends
            # are events of their own kinds
            "3|a1|high_risk:write_config|-|tainted|allow|ok",
            "3|a1|high_risk:send_message|-|tainted|allow|ok",
            # a channel is one trace token, in an event line as in the header
            "1|a1|msg_send:-:1111|-|tainted|allow|ok",
            "0|attacker|inject::1111|-|tainted|-|-",
            "1|a1|msg_recv:c 1:0110:from=a2|-|tainted|-|-",
        ],
    )
    def test_malformed_event_line_names_its_line(self, line):
        with pytest.raises(TraceFormatError, match=rf"^line {FIRST}: "):
            parse_trace(toy_trace(line))

    def test_event_line_before_column_row_rejected(self):
        text = TOY_HEADER.replace(COLUMN_ROW, "1|a1|heartbeat|-|-|-|-\n" + COLUMN_ROW)
        with pytest.raises(TraceFormatError, match=rf"^line {FIRST - 1}: expected the column row"):
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
            # a bad token ahead of owner= is refused whatever follows it
            f"# carrier +90 {CARRIER_KEYS}",
            "# carrier 90 " + CARRIER_KEYS.replace("name=x", "name=x\ty"),
            f"# carrier 90 {CARRIER_KEYS.replace(' owner=', '  owner=')}",
            f"# carrier 90 {CARRIER_KEYS.replace('name=', 'nom=')}",
            # a carrier the simulator could not build: static config always autoloads
            "# carrier 90 name=x owner=a1 class=static_config autoload=never"
            " position=system_prompt scope=agent_local label0=clean",
            # candidates are kept apart from carriers: no carrier has this class
            "# carrier 90 name=x owner=a1 class=candidate_memory autoload=never"
            " position=user_prompt scope=agent_local label0=clean",
        ],
    )
    def test_malformed_header_names_its_line(self, header, bundled, tmp_path, capsys):
        text, at = in_place(bundled("fwA").trace_text, header)
        with pytest.raises(TraceFormatError, match=rf"^line {at}: "):
            parse_trace(text)
        path = tmp_path / "bad.trace"
        path.write_text(text)
        assert main(["--verify-trace", str(path)]) == 2
        assert f"line {at}: " in capsys.readouterr().err


def _refused(text: str, tmp_path, match: str) -> None:
    """Auditing the text fails naming its cause, and --verify-trace exits 2."""
    with pytest.raises(ReentryGuardError, match=match):
        build_report(text)
    path = tmp_path / "bad.trace"
    path.write_text(text)
    assert main(["--verify-trace", str(path)]) == 2


def test_network_action_is_refused(bundled, tmp_path):
    """The shell is the one action an agent proposes, so undefended fwA with
    each of its 36 shell actions named invoke_network is refused at its
    first high_risk line, not audited as 3 chains."""
    shell = "|high_risk:invoke_shell|"
    text = bundled("fwA").trace_text
    assert text.count(shell) == 36
    network = text.replace(shell, "|high_risk:invoke_network|")
    at = next(no for no, line in enumerate(network.split("\n"), 1) if "invoke_network" in line)
    assert at == 110
    _refused(network, tmp_path, rf"^line {at}: unknown value 'invoke_network'")


@pytest.mark.parametrize("name", ["fwA", "fwB", "fwC", "cross_framework", "privilege_escalation"])
def test_guard_on_a_re_entry_is_refused(name, bundled, tmp_path):
    """Only attenuation guards, so guard|rtw-re-entry is no decision. Read
    as one, it would take effect under approve-mode guards and turn the
    run's denied re-entries into chains of a run that was safe."""
    result = bundled(name, "all", GuardMode.APPROVE_ALL)
    assert result.report.safe and not result.report.chains
    forged = result.trace_text.replace("|deny|rtw-re-entry\n", "|guard|rtw-re-entry\n")
    lines = forged.split("\n")
    at = next(i for i, line in enumerate(lines, 1) if line.endswith("|guard|rtw-re-entry"))
    _refused(forged, tmp_path, rf"^line {at}: unknown value \('guard', 'rtw-re-entry'\) in ")


class TestHeaderRefusals:
    """Header edits that would change what the audit judges by: each is
    refused, never read with a value filled in or replaced."""

    def test_second_enforcement_line(self, bundled, tmp_path):
        lines = bundled("fwA", enforce="all").trace_text.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("# enforcement ")) + 1
        weaker = "# enforcement attenuation=0 memgate=0 rtw=0 seal=0 guard=approve"
        text = "\n".join([*lines[:at], weaker, *lines[at:]]) + "\n"
        _refused(text, tmp_path, rf"^line {at + 1}: expected # attacker, got '# enforcement ")

    def test_second_scenario_line(self, bundled, tmp_path):
        lines = bundled("fwA").trace_text.splitlines()
        text = "\n".join([*lines[:2], "# scenario fwB", *lines[2:]]) + "\n"
        _refused(text, tmp_path, r"^line 3: expected # seed, got '# scenario fwB'")

    def test_carrier_declared_twice(self, bundled, tmp_path):
        lines = bundled("fwA").trace_text.splitlines()
        at = lines.index(COLUMN_ROW)
        text = "\n".join([*lines[:at], lines[at - 1], *lines[at:]]) + "\n"
        _refused(text, tmp_path, rf"^line {at + 1}: bad header .*: carrier (\d+) after carrier \1: ids ascend")

    @pytest.mark.parametrize("tag", ["agent", "carrier"])
    def test_records_out_of_id_order(self, tag, bundled, tmp_path):
        """The simulator writes agents in id order and numbers carriers in
        order, so a swapped pair is no trace it wrote."""
        lines = bundled("fwA").trace_text.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"# {tag} "))
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
        match = rf"^line {at + 2}: bad header .*: {tag} \S+ after {tag} \S+: ids ascend"
        _refused("\n".join(lines) + "\n", tmp_path, match)

    @pytest.mark.parametrize("at", range(6))
    def test_single_tags_out_of_order(self, at, bundled, tmp_path):
        lines = bundled("fwA").trace_text.splitlines()
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
        tag = lines[at + 1].split(" ")[1]
        _refused("\n".join(lines) + "\n", tmp_path, rf"^line {at + 1}: expected # {tag}, got ")

    @pytest.mark.parametrize("at", [1, 6, 9])
    def test_blank_header_line(self, at, bundled, tmp_path):
        lines = bundled("fwA").trace_text.splitlines()
        lines.insert(at, "")
        _refused("\n".join(lines) + "\n", tmp_path, rf"^line {at + 1}: expected ")

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
        """A # line after the column row that holds no | and whose first word
        is no header tag carries nothing the audit reads."""
        text = bundled("fwA").trace_text
        lines = text.splitlines()
        at = lines.index(COLUMN_ROW) + 5
        commented = "\n".join([*lines[:at], "# note", *lines[at:], "#", "# nonce 3"]) + "\n"
        assert parse_trace(commented) == parse_trace(text)
        assert build_report(commented) == build_report(text)

    @pytest.mark.parametrize("kind", ["repeat", "blank", "space", "commented-write"])
    def test_barred_comment_or_blank_after_the_column_row_is_refused(self, kind, bundled, tmp_path):
        """A # line with a | is read as an event line, so no event line can
        be commented out and hidden from the audit; a blank line is no line
        render writes."""
        lines = bundled("fwA").trace_text.splitlines()
        at = lines.index(COLUMN_ROW) + 5
        write = next(i for i, line in enumerate(lines) if "|write:" in line)
        # repeat: the text after the first | repeats an event line's
        edit = {
            "repeat": (at, "# repeat" + lines[at][lines[at].index("|"):]),
            "blank": (at, ""),
            "space": (at, " "),
            "commented-write": (write, "#" + lines[write]),
        }
        at, line = edit[kind]
        lines[at] = line
        _refused("\n".join(lines) + "\n", tmp_path, rf"^line {at + 1}: ")

    @pytest.mark.parametrize("cut", [0, 1, 40])
    def test_no_final_newline_refused(self, cut, bundled):
        lines = bundled("fwA").trace_text.splitlines()
        text = "\n".join(lines[: len(lines) - cut])
        with pytest.raises(TraceFormatError, match=rf"^line {len(lines) - cut}: the text does not end with a newline"):
            parse_trace(text)

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
            ("attacker", r"^line 6: expected # attacker, got '# agent "),
            ("seed", r"^line 3: expected # seed, got '# ticks "),
            ("scenario", r"^line 2: expected # scenario, got '# seed "),
            ("ticks", r"^line 4: expected # ticks, got '# enforcement "),
            ("enforcement", r"^line 5: expected # enforcement, got '# attacker "),
            ("trace-format", r"^line 1: expected # trace-format, got '# scenario "),
        ],
    )
    def test_single_tag_deleted(self, tag, match, bundled, tmp_path):
        text = "".join(
            line for line in bundled("cross_framework", enforce="all").trace_text.splitlines(keepends=True)
            if not line.startswith(f"# {tag} ")
        )
        _refused(text, tmp_path, match)


class TestLineShapeCache:
    """parse_trace parses the first line with a given tail strictly and
    rebuilds later ones from the cached fields; only the tick is new."""

    HEARTBEAT_TAIL = "|a1|heartbeat|-|-|-|-"

    @pytest.mark.parametrize("tick", ["-1", "x", "2", "", "+3", " 4", "1_0", "03"])
    def test_cached_tail_still_checks_its_tick(self, tick):
        text = toy_trace(f"3{self.HEARTBEAT_TAIL}", f"3{self.HEARTBEAT_TAIL}", f"{tick}{self.HEARTBEAT_TAIL}")
        with pytest.raises(TraceFormatError, match=rf"^line {FIRST + 2}: "):
            parse_trace(text)

    def test_cached_tail_takes_its_own_tick(self):
        text = toy_trace(f"3{self.HEARTBEAT_TAIL}", f"5{self.HEARTBEAT_TAIL}")
        _, events = parse_trace(text)
        assert [ev.tick for ev in events] == [3, 5]
        assert events[0] is not events[1]

    def test_repeated_line_yields_its_event_again(self):
        other = "3|a2|heartbeat|-|-|-|-"
        text = toy_trace(f"3{self.HEARTBEAT_TAIL}", other, f"3{self.HEARTBEAT_TAIL}")
        _, events = parse_trace(text)
        assert [ev.agent for ev in events] == ["a1", "a2", "a1"]
        assert events[0] is events[2]

    @pytest.mark.parametrize("middle", ["4|a1|heartbeat|-|-|-|-", "4|a2|heartbeat|-|-|-|-"])
    def test_repeated_line_still_checks_tick_order(self, middle):
        """A line that repeats an earlier one is one lookup, and the
        tick-order check still runs on it."""
        text = toy_trace(f"3{self.HEARTBEAT_TAIL}", middle, f"3{self.HEARTBEAT_TAIL}")
        with pytest.raises(TraceFormatError, match=rf"^line {FIRST + 2}: tick 3 after tick 4"):
            parse_trace(text)

    @pytest.mark.parametrize("enforce", ["none", "all"])
    @pytest.mark.parametrize("name", bundled_names())
    def test_cached_parse_is_the_line_parse(self, name, enforce, bundled):
        text = bundled(name, enforce).trace_text
        lines = text.splitlines()
        start = lines.index(COLUMN_ROW) + 1
        _, events = parse_trace(text)
        assert events == [parse_event_line(line, no) for no, line in enumerate(lines[start:], start + 1)]

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


@cache
def _fuzz_text(seed: int) -> str:
    return run_scenario(random_scenario(seed, EnforcementConfig.all_enabled())).trace_text


def _memo_sizes() -> list[int]:
    return [len(memo) for memo in tracelog._MEMOS]


def _empty_memos() -> None:
    for memo in tracelog._MEMOS:
        memo.clear()


def _cold_parse(text: str):
    _empty_memos()
    return parse_trace(text)


class TestProcessMemos:
    """The line codecs' memos live for the whole process. A parse with warm
    memos is the strict parse, a refused line is never learnt, and every
    check that depends on the rest of the trace still runs on a memoised
    line."""

    HEARTBEAT = "3|a1|heartbeat|-|-|-|-"

    def test_each_test_starts_with_empty_memos(self):
        assert _memo_sizes() == [0, 0, 0, 0]

    @staticmethod
    def _warm_parse_is_the_cold_parse(text: str, other: str, monkeypatch) -> None:
        cold_meta, cold_events = _cold_parse(text)
        parse_trace(other)
        assert all(_memo_sizes()[:2])  # the header and tail memos

        def strict(line, line_no=0):
            raise AssertionError(f"line {line_no} parsed again: {line!r}")

        monkeypatch.setattr(tracelog, "parse_event_line", strict)
        meta, events = parse_trace(text)
        assert meta == cold_meta and events == cold_events
        # the frozen header records and the read-only events are the earlier
        # call's own objects
        records = [*meta.agents, *meta.carriers]
        assert all(map(operator.is_, records, [*cold_meta.agents, *cold_meta.carriers]))
        assert all(map(operator.is_, events, cold_events))

    @pytest.mark.parametrize("enforce", ["none", "all"])
    @pytest.mark.parametrize("name", bundled_names())
    def test_warm_parse_is_the_cold_parse_bundled(self, name, enforce, bundled, monkeypatch):
        self._warm_parse_is_the_cold_parse(bundled(name, enforce).trace_text, _fuzz_text(0), monkeypatch)

    @pytest.mark.parametrize("seed", range(30))
    def test_warm_parse_is_the_cold_parse_fuzz(self, seed, monkeypatch):
        self._warm_parse_is_the_cold_parse(_fuzz_text(seed), _fuzz_text((seed + 1) % 30), monkeypatch)

    @pytest.mark.parametrize(
        "bad",
        [
            f"# carrier 90 {CARRIER_KEYS.replace('workspace_file', 'bogus')}",
            # tokens that parse, for a carrier the model refuses
            "# carrier 90 name=x owner=a1 class=static_config autoload=never"
            " position=system_prompt scope=agent_local label0=clean",
            "# agent a9 privilege=low period=0 channels=c0",
        ],
    )
    def test_refused_header_line_is_refused_again(self, bad, bundled):
        good = bundled("fwA").trace_text
        text, at = in_place(good, bad)
        refusals = []
        for _ in range(2):
            with pytest.raises(TraceFormatError, match=rf"^line {at}: ") as refused:
                parse_trace(text)
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]
        assert bad not in tracelog._HEADER_MEMO
        assert parse_trace(good) == _cold_parse(good)

    @pytest.mark.parametrize(
        "bad",
        ["3|a1|teleport:1111|7|tainted|allow|ok", "3|a1|exposed_read|7|tainted|deny|ok", "-1|a1|heartbeat|-|-|-|-"],
    )
    def test_refused_event_line_is_refused_again(self, bad):
        text = toy_trace(bad)
        refusals = []
        for _ in range(2):
            with pytest.raises(TraceFormatError, match=rf"^line {FIRST}: ") as refused:
                parse_trace(text)
            refusals.append(str(refused.value))
        assert refusals[0] == refusals[1]
        assert bad.partition("|")[2] not in tracelog._PARSE_MEMO
        good = toy_trace(self.HEARTBEAT)
        assert parse_trace(good) == _cold_parse(good)

    def test_mutating_a_parse_changes_no_later_parse(self, bundled):
        text = bundled("fwA").trace_text
        _, events = parse_trace(text)
        with pytest.raises(FrozenInstanceError):
            events[-1].carrier_id = 99
        assert parse_trace(text) == _cold_parse(text)

    def test_parsed_header_records_are_frozen(self, bundled):
        meta, _ = parse_trace(bundled("fwA").trace_text)
        with pytest.raises(FrozenInstanceError):
            meta.carriers[0].label0 = TaintLabel.TAINTED
        with pytest.raises(FrozenInstanceError):
            meta.agents[0].channels = ("zz",)

    def test_small_bound_holds_and_changes_nothing(self, bundled, monkeypatch):
        texts = [bundled(name, enforce).trace_text for name in bundled_names() for enforce in ("none", "all")]
        texts += [_fuzz_text(seed) for seed in range(5)]
        expected = [_cold_parse(text) for text in texts]
        monkeypatch.setattr(tracelog, "_MEMO_BOUND", 8)
        _empty_memos()
        for _ in range(2):
            for text, (meta, events) in zip(texts, expected):
                assert parse_trace(text) == (meta, events)
                assert render_trace(events, meta) == text
                assert 0 < max(_memo_sizes()) <= 8

    def test_a_full_memo_keeps_what_it_holds(self, bundled, monkeypatch):
        """A trace with more new lines than a memo has room for evicts no
        line of an earlier trace: fwA parsed again after it builds no event
        and yields the first parse's own objects."""
        text = bundled("fwA").trace_text
        first = parse_trace(text)
        monkeypatch.setattr(tracelog, "_MEMO_BOUND", max(_memo_sizes()) + 1)
        larger = run_scenario(random_scenario(1, EnforcementConfig.none())).trace_text
        assert len(set(larger.split("\n")) - set(text.split("\n"))) > tracelog._MEMO_BOUND
        parse_trace(larger)
        built = []
        check = Event.__post_init__
        monkeypatch.setattr(Event, "__post_init__", lambda ev: built.append(ev) or check(ev))
        meta, events = parse_trace(text)
        assert built == []
        assert all(map(operator.is_, events, first[1]))
        assert all(map(operator.is_, meta.carriers, first[0].carriers))

    # The checks that depend on the rest of the trace, on memoised lines

    def test_memoised_carrier_line_repeated(self, bundled):
        text = bundled("fwA").trace_text
        parse_trace(text)
        lines = text.splitlines()
        at = lines.index(COLUMN_ROW)
        assert lines[at - 1] in tracelog._HEADER_MEMO
        repeated = "\n".join([*lines[:at], lines[at - 1], *lines[at:]]) + "\n"
        match = rf"^line {at + 1}: bad header .*: carrier (\d+) after carrier \1: ids ascend"
        with pytest.raises(TraceFormatError, match=match):
            parse_trace(repeated)

    def test_memoised_line_first(self, bundled):
        text = bundled("fwA").trace_text
        parse_trace(text)
        lines = text.splitlines()
        assert lines[1] in tracelog._HEADER_MEMO
        with pytest.raises(TraceFormatError, match=r"^line 1: expected # trace-format, got '# scenario "):
            parse_trace("\n".join(lines[1:]) + "\n")

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_known_tag_first_is_refused_before_its_tokens(self, warm, bundled):
        text = bundled("fwA").trace_text
        if warm:
            parse_trace(text)
        with pytest.raises(TraceFormatError) as refused:
            parse_trace("# carrier zz\n" + text)
        assert str(refused.value) == "line 1: expected # trace-format, got '# carrier zz'"

    @pytest.mark.parametrize(
        "lines, match",
        [
            (["4|a2|heartbeat|-|-|-|-", HEARTBEAT], rf"^line {FIRST + 1}: tick 3 after tick 4 in "),
            (["03|a1|heartbeat|-|-|-|-"], rf"^line {FIRST}: '03' is not written as 3 in "),
        ],
        ids=["lower-tick", "non-canonical-tick"],
    )
    def test_memoised_tail_still_checks_its_tick(self, lines, match):
        parse_trace(toy_trace(self.HEARTBEAT))
        assert self.HEARTBEAT.partition("|")[2] in tracelog._PARSE_MEMO
        with pytest.raises(TraceFormatError, match=match):
            parse_trace(toy_trace(*lines))

    def test_memoised_line_does_not_lend_its_tick_column(self):
        """A new line after a memoised one parses its own tick column, even
        when it equals the column of the last new line before them."""
        memoised = "4|a1|heartbeat|-|-|-|-"
        parse_trace(toy_trace(memoised))
        lines = ["2|a2|heartbeat|-|-|-|-", memoised, "2|a1|heartbeat|-|-|-|-"]
        with pytest.raises(TraceFormatError, match=rf"^line {FIRST + 2}: tick 2 after tick 4 in "):
            parse_trace(toy_trace(*lines))

    def test_memoised_tail_behind_a_hash_is_refused(self):
        """A # before a known tail makes a tick column that is no integer."""
        comment = "# x|a1|heartbeat|-|-|-|-"
        parse_trace(toy_trace(self.HEARTBEAT))
        with pytest.raises(TraceFormatError, match=rf"^line {FIRST}: .* in '# x\|"):
            parse_trace(toy_trace(comment))
        with pytest.raises(TraceFormatError, match=rf"^line {FIRST + 1}: .* in '# x\|"):
            parse_trace(toy_trace(self.HEARTBEAT, comment))


# per field, values an event may hold instead; None leaves a detail field out
ALTERNATES: dict[str, list[Any]] = {
    "kind": list(EventKind),
    "agent": ["a2"],
    "carrier_id": [None, 2, 9],
    "label": [None, *TaintLabel],
    "facets": [None, NO_FACETS, FACET_VALUES["1111"], FACET_VALUES["0110"]],
    "channel": [None, "c0", "c9"],
    "action": [None, *ActionKind],
    "schema": [None, *SchemaKind],
    "procedure": [None, *DeclassProcedure],
    "sender": [None, "a2", "a9"],
    "exfil": [False, True],
    "decision": [None, *Decision],
}


def _one_field_changed(event: Event) -> list[Event]:
    """The event with one field changed at a time, each variant renderable."""
    variants = []
    for name in SHAPE_FIELDS:
        for value in ALTERNATES[name]:
            if value == getattr(event, name):
                continue
            variant = replace(event, **{name: value})
            try:
                event_to_line(variant)
            except TraceFormatError:  # a detail field its kind needs is gone
                continue
            variants.append(variant)
    return variants


def _warm_render_is_the_strict_render(events: list[Event], meta: TraceMeta) -> None:
    lines = render_trace(events, meta).splitlines()
    start = lines.index(COLUMN_ROW) + 1
    assert lines[start:] == [event_to_line(ev) for ev in events]


class TestRenderKeys:
    """render_trace keys its memo on the fields a kind's line holds: an event
    that differs in one of them renders its own line, and one that differs
    only in a field its line leaves out renders the same line."""

    def test_every_kind_has_a_render_key(self):
        assert set(tracelog._RENDER_KEYS) == set(EventKind)

    def test_alternates_cover_every_field(self):
        assert set(ALTERNATES) == set(SHAPE_FIELDS)

    @pytest.mark.parametrize("event", ONE_PER_KIND, ids=_kind_id)
    def test_one_field_changed_renders_its_own_line(self, event):
        variants = _one_field_changed(event)
        changed = {name for name in SHAPE_FIELDS if any(getattr(v, name) != getattr(event, name) for v in variants)}
        # a detail field the line needs cannot change when its enum has one member
        fixed = {
            name for name in tracelog.KIND_FIELDS[event.kind] if len(ALTERNATES[name]) == 2 and None in ALTERNATES[name]
        }
        assert changed == set(SHAPE_FIELDS) - fixed
        for variant in variants:
            render_trace([event], minimal_meta())  # the memo holds the event's tail
            _warm_render_is_the_strict_render([variant], minimal_meta())
        # and once every variant's tail is held too
        _warm_render_is_the_strict_render([event, *variants], minimal_meta())

    @pytest.mark.parametrize("enforce", ["none", "all"])
    @pytest.mark.parametrize("name", bundled_names())
    def test_warm_render_is_the_strict_render_bundled(self, name, enforce, bundled):
        result = bundled(name, enforce)
        meta, _ = parse_trace(result.trace_text)
        render_trace(bundled(name, "all" if enforce == "none" else "none").trace, meta)
        for _ in range(2):
            _warm_render_is_the_strict_render(result.trace, meta)

    @pytest.mark.parametrize("seed", range(30))
    def test_warm_render_is_the_strict_render_fuzz(self, seed):
        meta, events = parse_trace(_fuzz_text(seed))
        render_trace(parse_trace(_fuzz_text((seed + 1) % 30))[1], meta)
        for _ in range(2):
            _warm_render_is_the_strict_render(events, meta)


class TestParsedEventsAreValues:
    """parse_trace yields read-only events, one per distinct line for the
    process, that equal the simulator's field for field."""

    @pytest.fixture
    def event(self, bundled):
        _, events = parse_trace(bundled("fwA", "all").trace_text)
        return next(ev for ev in events if ev.decision is Decision.ALLOW and ev.facets is not None)

    def test_assignment_and_deletion_raise(self, event):
        with pytest.raises(FrozenInstanceError):
            event.decision = None
        with pytest.raises(FrozenInstanceError):
            del event.tick
        with pytest.raises(FrozenInstanceError):
            event.extra = 1

    def test_copies_are_equal_events(self, event):
        for copied in (copy.copy(event), copy.deepcopy(event), pickle.loads(pickle.dumps(event))):
            assert copied == event and copied is not event
            assert copied.decision is event.decision and copied.facets is event.facets
            with pytest.raises(FrozenInstanceError):
                copied.tick = 0
        denied = Decision.DENY_RE_ENTRY
        changed = replace(event, decision=denied)
        assert changed.decision is denied and changed != event
        assert replace(changed, decision=event.decision) == event

    def test_events_are_unhashable(self, event):
        with pytest.raises(TypeError):
            hash(event)
        with pytest.raises(TypeError):
            hash(Event(0, "a1", EventKind.HEARTBEAT))

    @pytest.mark.parametrize("enforce", ["none", "all"])
    @pytest.mark.parametrize("name", bundled_names())
    def test_parsed_and_simulated_events_are_equal_both_ways(self, name, enforce, bundled):
        result = bundled(name, enforce)
        _, events = parse_trace(result.trace_text)
        assert events == result.trace and result.trace == events
        # live events are plain; a message turn kept for replay shares
        # read-only ones (sim's module docstring)
        assert Event in {type(ev) for ev in result.trace} <= {Event, FrozenEvent}

    def test_a_warm_parse_builds_no_event(self, monkeypatch):
        texts = [_fuzz_text(seed) for seed in range(30)]
        for text in texts:
            parse_trace(text)
        built = []
        check = Event.__post_init__
        monkeypatch.setattr(Event, "__post_init__", lambda ev: built.append(ev) or check(ev))
        for text in texts:
            parse_trace(text)
        assert built == []
        parse_trace(toy_trace("5|a9|heartbeat|-|-|-|-"))
        assert len(built) == 1  # the counter sees a line new to the process


@cache
def _strict_event(line: str) -> Event:
    # parse_event_line is a function of the line but for the number a
    # refusal names, and a refusal is not cached
    return parse_event_line(line)


def _reference_parse(text: str) -> tuple[TraceMeta, list[Event]]:
    """The parse by its rules alone, one line at a time: the final newline,
    the header, then per line the comment rule, the strict line parse and
    the tick order."""
    lines = text.split("\n")
    if lines[-1]:
        raise TraceFormatError(f"line {len(lines)}: the text does not end with a newline")
    meta, start = tracelog._parse_header(lines)
    events: list[Event] = []
    last = 0
    for line_no, line in enumerate(lines[start:-1], start + 1):
        if line.startswith("#") and "|" not in line:
            words = line[1:].split(maxsplit=1)
            if words and words[0] in tracelog.HEADER:
                raise TraceFormatError(f"line {line_no}: header line after the column row")
            continue
        try:
            ev = _strict_event(line)
        except TraceFormatError:
            parse_event_line(line, line_no)
            raise
        if ev.tick < last:
            raise TraceFormatError(f"line {line_no}: tick {ev.tick} after tick {last} in {line!r}")
        last = ev.tick
        events.append(ev)
    return meta, events


def _uncommented(text: str) -> str:
    """The text without its comments: the # lines after the column row that
    hold no |."""
    header, row, rest = text.partition(COLUMN_ROW + "\n")
    kept = [line for line in rest.split("\n") if not (line.startswith("#") and "|" not in line)]
    return header + row + "\n".join(kept)


MUTATIONS = (
    "delete", "duplicate", "swap", "zero-tick", "comment", "note", "foreign", "truncate", "blank", "double-bar",
    "header-swap", "header-blank", "crlf", "no-final-newline", "repeat", "cut", "reseed",
)


def _mutate(kind: str, lines: list[str], start: int, foreign: list[str], rng: random.Random) -> str:
    """The trace with one mutation of the kind: at a random line after the
    column row, or in the header for the header kinds and reseed."""
    out = list(lines)
    i = rng.randrange(start, len(lines))
    line = lines[i]
    if kind == "delete":
        del out[i]
    elif kind == "duplicate":  # the copy goes anywhere, before or after
        out.insert(rng.randint(start, len(out)), line)
    elif kind == "swap":
        j = rng.randrange(start, len(lines))
        out[i], out[j] = out[j], out[i]
    elif kind == "zero-tick":
        out[i] = "0" + line
    elif kind == "comment":
        out[i] = "# x|" + line.partition("|")[2]
    elif kind == "note":  # a comment, or a # line naming a header tag
        out.insert(rng.randint(start, len(out)), rng.choice(["# note", "#", "# nonce 3", "# agent a9"]))
    elif kind == "foreign":  # an event line of another trace
        out.insert(rng.randint(start, len(out)), rng.choice(foreign))
    elif kind == "truncate":
        out[i:] = [line[: rng.randrange(len(line))]]
    elif kind == "blank":
        out.insert(rng.randint(start, len(out)), rng.choice(["", " ", "\t"]))
    elif kind == "double-bar":
        bar = rng.choice([at for at, char in enumerate(line) if char == "|"])
        out[i] = line[:bar] + "|" + line[bar:]
    elif kind == "header-swap":
        h, j = rng.randrange(start), rng.randrange(start)
        out[h], out[j] = out[j], out[h]
    elif kind == "header-blank":
        out.insert(rng.randrange(start), rng.choice(["", " ", "#"]))
    elif kind == "crlf":  # the line ends from a random line on, header or events
        k = rng.randrange(len(out))
        out[k:] = [each + "\r" for each in out[k:]]
    elif kind == "no-final-newline":  # the text cut after a line, without its newline
        return "\n".join(out[:i + 1])
    elif kind == "repeat":  # the line again right after it
        out.insert(i, line)
    elif kind == "cut":  # a cut at a line boundary, which the format cannot tell
        del out[i + 1:]
    else:  # another seed, in the header's third line
        out[2] = f"# seed {rng.randrange(1000)}"
    return "\n".join(out) + "\n"


def _outcome(parse: Callable[[str], Any], text: str) -> Any:
    try:
        return parse(text)
    except TraceFormatError as exc:
        return str(exc)


class TestParseDifferential:
    """On mutated bundled and fuzz traces, parse_trace with cold memos and
    again with warm ones gives what the line-by-line reference gives: equal
    events field for field, or the identical refusal message. And whatever
    it accepts is, but for its comments, the text render writes for what it
    read."""

    def test_cold_warm_and_reference_agree(self, bundled):
        texts = [bundled(name, enforce).trace_text for name in bundled_names() for enforce in ("none", "all")]
        corpus = [text.splitlines() for text in texts + [_fuzz_text(seed) for seed in range(10)]]
        rng = random.Random(0)
        outcomes = []
        for k, lines in enumerate(corpus):
            start = lines.index(COLUMN_ROW) + 1
            other = corpus[(k + 1) % len(corpus)]
            foreign = other[other.index(COLUMN_ROW) + 1:]
            for kind in MUTATIONS:
                for n in range(10):
                    text = _mutate(kind, lines, start, foreign, rng)
                    expected = _outcome(_reference_parse, text)
                    _empty_memos()
                    assert _outcome(parse_trace, text) == expected, ("cold", k, kind, n)
                    assert _outcome(parse_trace, text) == expected, ("warm", k, kind, n)
                    if not isinstance(expected, str):
                        meta, events = expected
                        assert render_trace(events, meta) == _uncommented(text), ("round trip", k, kind, n)
                    outcomes.append(isinstance(expected, str))
        # the sample holds both refusals and parses, or it shows little
        assert 0.2 < sum(outcomes) / len(outcomes) < 0.8


class TestTraceRoundTrip:
    def test_synthetic_trace(self):
        trace = [
            Event(tick=0, agent="attacker", kind=EventKind.INJECT, channel="c0", facets=FACET_VALUES["1111"]),
            Event(tick=1, agent="a1", kind=EventKind.WRITE, carrier_id=1,
                  label=TaintLabel.TAINTED_DERIVED, facets=FACET_VALUES["1111"],
                  decision=Decision.ALLOW),
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
        shared = {id(d) for d in Decision}
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
        assert heartbeat.label0 == "clean"
