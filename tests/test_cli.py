"""Command-line interface: modes, exit codes, record/table consistency."""

import pytest

from reentryguard import cli
from reentryguard.cli import MATRIX_ORDER, main
from reentryguard.policy import EnforcementConfig, MediationError
from reentryguard.scenarios import bundled_names, load_bundled, random_scenario
from reentryguard.sim import run_scenario
from reentryguard.tracelog import TraceFormatError
from reentryguard.verifier import build_report


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_records(out: str) -> list[dict[str, str]]:
    records = []
    for line in out.strip().splitlines():
        kind, _, rest = line.partition("|")
        records.append({"_kind": kind} | dict(part.split("=", 1) for part in rest.split("|")))
    return records


class TestRunMode:
    def test_table_run_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--scenario", "fwA")
        assert code == 0
        assert "scenario" in out and "fwA" in out
        assert "✓" in out or "✗" in out

    def test_machine_record_fields(self, capsys):
        code, out, _ = run_cli(capsys, "--scenario", "fwA", "--report", "machine")
        assert code == 0
        (record,) = machine_records(out)
        assert record["_kind"] == "report"
        assert record["scenario"] == "fwA"
        assert record["enforce"] == "none"
        expected_fields = {
            "scenario", "enforce", "guard", "seed", "ticks", "events",
            "persistence", "re_entry", "propagation", "privilege_escalation",
            "exfiltration", "hops", "infected", "zero_click", "chains",
            "safe", "rtw_ok", "rtw_violations",
        }
        assert expected_fields <= set(record)
        for layer in ("rtw", "seal", "memgate", "attenuation"):
            assert f"denials_{layer}" in record
        # every denial blames a layer, so no field counts unowned ones
        assert "denials_none" not in record

    def test_undefended_reference_run_is_compromised(self, capsys):
        _, out, _ = run_cli(capsys, "--scenario", "fwA", "--report", "machine")
        (record,) = machine_records(out)
        assert record["safe"] == "0"
        assert record["persistence"] == "1"
        assert record["re_entry"] == "1"
        assert record["propagation"] == "1"
        assert record["privilege_escalation"] == "1"
        assert record["hops"] == "3"
        assert record["zero_click"] == "1"

    def test_enforce_override_secures_the_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "--scenario", "fwA", "--enforce", "all", "--report", "machine"
        )
        assert code == 0
        (record,) = machine_records(out)
        assert record["enforce"] == "all"
        assert record["safe"] == "1"
        assert record["chains"] == "0"

    def test_guard_flag_reaches_record(self, capsys):
        _, out, _ = run_cli(
            capsys, "--scenario", "fwA", "--enforce", "all",
            "--guard", "approve", "--report", "machine",
        )
        (record,) = machine_records(out)
        assert record["guard"] == "approve"
        # attenuation under approve-mode guards leaves rtw on: a contaminated
        # reader's actions still take effect, so its tainted reads are denied
        assert (record["safe"], record["chains"], record["events"]) == ("1", "0", "209")

    def test_seed_and_ticks_overrides(self, capsys):
        _, out, _ = run_cli(
            capsys, "--scenario", "fwA", "--seed", "99", "--ticks", "5",
            "--report", "machine",
        )
        (record,) = machine_records(out)
        assert record["seed"] == "99"
        assert record["ticks"] == "5"

    def test_table_is_rendered_from_the_machine_record(self, capsys):
        _, machine_out, _ = run_cli(capsys, "--scenario", "fwB", "--report", "machine")
        (record,) = machine_records(machine_out)
        _, table_out, _ = run_cli(capsys, "--scenario", "fwB")
        assert record.pop("_kind") == "report"
        assert cli.render_table(record) == table_out.rstrip("\n")


class TestTraceOutAndVerify:
    def test_trace_out_deterministic(self, capsys, tmp_path):
        one, two = tmp_path / "one.trace", tmp_path / "two.trace"
        assert run_cli(capsys, "--scenario", "fwA", "--trace-out", str(one))[0] == 0
        assert run_cli(capsys, "--scenario", "fwA", "--trace-out", str(two))[0] == 0
        assert one.read_bytes() == two.read_bytes()
        assert one.read_text().startswith("# trace-format 1\n")

    def test_verify_reproduces_the_run_record(self, capsys, tmp_path):
        trace = tmp_path / "run.trace"
        _, run_out, _ = run_cli(
            capsys, "--scenario", "fwA", "--enforce", "rtw",
            "--trace-out", str(trace), "--report", "machine",
        )
        code, verify_out, _ = run_cli(
            capsys, "--verify-trace", str(trace), "--report", "machine"
        )
        assert code == 0
        assert verify_out == run_out

    def test_verify_refuses_commented_event_lines(self, capsys, tmp_path):
        """A # before each write, high_risk and msg_send line of undefended
        fwA would hide its chains from an auditor that skipped comments."""
        trace = tmp_path / "run.trace"
        run_cli(capsys, "--scenario", "fwA", "--trace-out", str(trace))
        hidden = ("write", "high_risk", "msg_send")
        commented = tmp_path / "commented.trace"
        commented.write_text("".join(
            "#" + line if line.count("|") == 6 and line.split("|")[2].split(":")[0] in hidden else line
            for line in trace.read_text().splitlines(keepends=True)
        ))
        code, out, err = run_cli(capsys, "--verify-trace", str(commented))
        assert code == 2
        assert out == ""
        assert "reentryguard: line " in err

    def test_verify_reads_a_crlf_copy_as_text(self, capsys, tmp_path):
        """The CLI reads a trace file as text, which translates line ends;
        parse_trace itself refuses a carriage return."""
        trace = tmp_path / "run.trace"
        _, run_out, _ = run_cli(capsys, "--scenario", "fwA", "--trace-out", str(trace), "--report", "machine")
        crlf = tmp_path / "crlf.trace"
        crlf.write_bytes(trace.read_bytes().replace(b"\n", b"\r\n"))
        code, verify_out, _ = run_cli(capsys, "--verify-trace", str(crlf), "--report", "machine")
        assert code == 0
        assert verify_out == run_out
        with pytest.raises(TraceFormatError, match=r"^line 1: "):
            build_report(crlf.read_bytes().decode())

    def test_verify_missing_file_is_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--verify-trace", str(tmp_path / "nope.trace"))
        assert code == 2
        assert "reentryguard:" in err

    def test_verify_garbage_file_is_config_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("this is not a trace\n")
        code, _, err = run_cli(capsys, "--verify-trace", str(bad))
        assert code == 2
        assert "reentryguard:" in err


class TestExitCodes:
    def test_no_mode_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_two_modes_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--scenario", "fwA", "--suite", "tables"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv, flag, readers",
        [
            (["--verify-trace", "t", "--enforce", "all"], "--enforce", "--scenario or --capability-matrix"),
            (["--verify-trace", "t", "--seed", "7"], "--seed", "--scenario or --capability-matrix"),
            (["--verify-trace", "t", "--ticks", "2"], "--ticks", "--scenario or --capability-matrix"),
            (["--suite", "tables", "--guard", "approve"], "--guard", "--scenario or --capability-matrix"),
            (["--suite", "tables", "--trace-out", "x"], "--trace-out", "--scenario"),
            (["--capability-matrix", "--trace-out", "x"], "--trace-out", "--scenario"),
            (["--list-scenarios", "--enforce", "bogus"], "--enforce", "--scenario or --capability-matrix"),
            (
                ["--list-scenarios", "--report", "machine"],
                "--report",
                "--scenario or --capability-matrix or --suite or --verify-trace",
            ),
        ],
    )
    def test_flag_the_mode_ignores_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, flag, readers):
        """A flag the chosen mode would not read is refused, naming the flag
        and the modes that read it, before any file is read or written."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"{flag} goes only with {readers}\n" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--frobnicate"])
        assert exc.value.code == 1

    def test_unknown_scenario_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "--scenario", "ghost_town")
        assert code == 2
        assert "reentryguard:" in err

    def test_bad_enforce_list_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "--scenario", "fwA", "--enforce", "rtw,sealant")
        assert code == 2
        assert "reentryguard:" in err

    def test_declassify_for_unknown_agent_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "ghost.yaml"
        path.write_text(
            "channels: [c0]\n"
            "agents:\n  - id: a1\n    channels: [c0]\n"
            "declassify: [[ghost, 1]]\n"
        )
        code, _, err = run_cli(capsys, "--scenario", str(path))
        assert code == 2
        assert "ghost" in err

    def test_mediation_gap_is_internal_error(self, capsys, monkeypatch):
        def explode(scenario):
            raise MediationError("no rule for kind heartbeat")

        monkeypatch.setattr(cli, "run_scenario", explode)
        code, _, err = run_cli(capsys, "--scenario", "fwA")
        assert code == 3
        assert "internal mediation gap" in err


class TestCapabilityMatrix:
    def test_quadrants(self, capsys):
        code, out, _ = run_cli(capsys, "--capability-matrix", "--report", "machine")
        assert code == 0
        records = machine_records(out)
        assert [r["config"] for r in records] == list(MATRIX_ORDER)
        got = {r["config"]: (r["persistence"], r["propagation"]) for r in records}
        assert got == {
            "full": ("1", "1"),
            "messaging_disabled": ("1", "0"),
            "file_write_disabled": ("0", "1"),
            "minimal": ("0", "0"),
        }

    def test_table_layout(self, capsys):
        code, out, _ = run_cli(capsys, "--capability-matrix")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + len(MATRIX_ORDER)
        assert lines[0].split() == ["config", "persistence", "propagation"]

    def test_explicit_base_scenario(self, capsys):
        code, out, _ = run_cli(
            capsys, "--capability-matrix", "--scenario", "fwB", "--report", "machine"
        )
        assert code == 0
        assert len(machine_records(out)) == len(MATRIX_ORDER)


class TestSuiteMode:
    def test_ablation_table(self, capsys):
        code, out, _ = run_cli(capsys, "--suite", "ablation")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 6
        assert lines[0].split()[:2] == ["scenario", "enforce"]
        assert all("fwA" in line for line in lines[1:])

    def test_tables_machine_records(self, capsys):
        code, out, _ = run_cli(capsys, "--suite", "tables", "--report", "machine")
        assert code == 0
        records = machine_records(out)
        assert len(records) == 12
        undefended = [r for r in records if r["enforce"] == "none"]
        enforced = [r for r in records if r["enforce"] == "all"]
        assert len(undefended) == len(enforced) == 6
        assert all(r["safe"] == "0" for r in undefended)
        assert all(r["safe"] == "1" for r in enforced)

    def test_unknown_suite_is_config_error(self, capsys):
        code, _, _ = run_cli(capsys, "--suite", "no_such_suite")
        assert code == 2


class TestListMode:
    def test_lists_everything_bundled(self, capsys):
        code, out, _ = run_cli(capsys, "--list-scenarios")
        assert code == 0
        for name in ("fwA", "fwB", "fwC", "cross_framework",
                     "privilege_escalation", "exfiltration"):
            assert name in out
        assert "ablation" in out and "tables" in out
        for preset in MATRIX_ORDER:
            assert preset in out


def assert_splits_back(split: dict[str, str], report) -> None:
    """A split machine line is the report's record, and its infected= is the
    report's agents and ticks."""
    assert split == {"_kind": "report"} | cli.report_record(report)
    infected = [] if split["infected"] == "-" else [tuple(item.split("@")) for item in split["infected"].split(",")]
    assert infected == [(agent, str(tick)) for agent, tick in zip(report.infected, report.infection_ticks)]


class TestRecordSplitsBack:
    """Every machine line splits, as machine_records and the benchmark's
    record_fields do, back into exactly the record it was rendered from."""

    def _split_and_reports(self, monkeypatch, capsys, *argv: str) -> tuple[list[dict[str, str]], list]:
        """The split machine lines of a CLI run, and the reports it recorded."""
        reports = []
        report_record = cli.report_record
        monkeypatch.setattr(cli, "report_record", lambda report: reports.append(report) or report_record(report))
        code, out, _ = run_cli(capsys, *argv, "--report", "machine")
        assert code == 0
        monkeypatch.undo()
        return machine_records(out), reports

    @pytest.mark.parametrize("suite", ["tables", "ablation"])
    def test_suites(self, suite, monkeypatch, capsys):
        split, reports = self._split_and_reports(monkeypatch, capsys, "--suite", suite)
        assert len(split) == len(reports)
        for line, report in zip(split, reports):
            assert_splits_back(line, report)

    @pytest.mark.parametrize("name", bundled_names())
    @pytest.mark.parametrize("enforce", ["none", "all"])
    def test_bundled(self, name, enforce, monkeypatch, capsys):
        (split,), (report,) = self._split_and_reports(monkeypatch, capsys, "--scenario", name, "--enforce", enforce)
        assert_splits_back(split, report)

    def test_matrix(self, capsys):
        split = machine_records(run_cli(capsys, "--capability-matrix", "--report", "machine")[1])
        assert split == [{"_kind": "matrix"} | record for record in cli.emit_capability_matrix(load_bundled("fwA"))]

    def test_fuzz_seeds_fully_enforced(self):
        for seed in range(200):
            report = run_scenario(random_scenario(seed, EnforcementConfig.all_enabled())).report
            (split,) = machine_records(cli.render_machine("report", cli.report_record(report)))
            assert_splits_back(split, report)
