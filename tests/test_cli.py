"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in ("run", "effectiveness", "compensation", "mape",
                    "adversaries"):
        assert command in out


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command_prints_final_table(capsys):
    code = main(["run", "--seed", "3", "--workers", "3", "--rows", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "completed in" in out
    assert "payouts:" in out
    assert out.count("'name'") == 4


def test_run_with_recommender(capsys):
    code = main(["run", "--seed", "3", "--workers", "3", "--rows", "4",
                 "--recommender"])
    assert code == 0
    assert "completed in" in capsys.readouterr().out


def test_effectiveness_command(capsys):
    assert main(["effectiveness", "--seed", "7"]) == 0
    assert "E1:" in capsys.readouterr().out


def test_compensation_command_scheme_choice(capsys):
    assert main(["compensation", "--seed", "7", "--scheme", "uniform"]) == 0
    assert "scheme=uniform" in capsys.readouterr().out


def test_compare_command(capsys):
    assert main(["compare", "--seed", "7"]) == 0
    assert "E5:" in capsys.readouterr().out


def test_estimates_command(capsys):
    assert main(["estimates", "--seed", "7"]) == 0
    assert "Figure 5" in capsys.readouterr().out


def test_earning_rate_command(capsys):
    assert main(["earning-rate", "--seed", "7"]) == 0
    assert "Figure 6" in capsys.readouterr().out


def test_mape_command_small(capsys):
    assert main(["mape", "--seeds", "3,7"]) == 0
    out = capsys.readouterr().out
    assert "E4:" in out and "2 runs" in out


def test_adversaries_command(capsys):
    assert main(["adversaries", "--kind", "copier", "--seed", "7",
                 "--counts", "0,1"]) == 0
    assert "copier" in capsys.readouterr().out


def test_invalid_scheme_rejected():
    with pytest.raises(SystemExit):
        main(["compensation", "--scheme", "martian"])


def test_vs_microtask_command(capsys):
    assert main(["vs-microtask", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "E9:" in out and "microtask" in out


def test_latency_command(capsys):
    assert main(["latency", "--seed", "7"]) == 0
    assert "A6:" in capsys.readouterr().out


def test_scaling_command(capsys):
    assert main(["scaling", "--seed", "7", "--counts", "3,5"]) == 0
    assert "A8:" in capsys.readouterr().out


def test_report_quick_to_file(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main(["report", "--seed", "7", "--quick", "--out", str(out)]) == 0
    text = out.read_text()
    assert "# CrowdFill reproduction" in text
    assert "E1 — overall effectiveness" in text
    assert "Figure 5" in text
    # Quick mode skips the sweeps.
    assert "E4" not in text
    assert "wrote" in capsys.readouterr().out


def test_report_quick_to_stdout(capsys):
    assert main(["report", "--seed", "7", "--quick"]) == 0
    assert "Figure 6" in capsys.readouterr().out


def test_suggest_budget_command(capsys):
    assert main(["suggest-budget", "--rows", "10", "--wage", "9"]) == 0
    out = capsys.readouterr().out
    assert "suggested budget" in out and "$9.00/hour" in out


def test_suggest_budget_with_verification(capsys):
    assert main(["suggest-budget", "--rows", "5", "--wage", "6",
                 "--verify", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Realized hourly wages" in out


def test_quality_command(capsys):
    assert main(["quality", "--seed", "7"]) == 0
    assert "A9:" in capsys.readouterr().out


def test_domains_command(capsys):
    assert main(["domains", "--seed", "7"]) == 0
    assert "A10:" in capsys.readouterr().out


def test_cost_command(capsys):
    assert main(["cost", "--seed", "7", "--wage", "9"]) == 0
    assert "A11:" in capsys.readouterr().out


def test_run_with_fault_plan_crash_windows(tmp_path, capsys):
    """`repro run --shards N --fault-plan plan.json` loads a serialized
    plan (the `to_dict` wire form round-trips through the CLI) and
    reports the injected fault events."""
    import json

    from repro.net import FaultPlan, ShardCrashWindow
    from repro.server.shard import shard_endpoint

    plan = FaultPlan(
        crashes=(ShardCrashWindow(shard_endpoint(1), 1.0, 3.0),)
    )
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan.to_dict()))
    code = main(["run", "--seed", "3", "--workers", "3", "--rows", "4",
                 "--shards", "2", "--fault-plan", str(plan_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fault events injected:" in out
    events = int(out.split("fault events injected:")[1].split()[0])
    assert events >= 2  # the crash and its restart both fired
    assert out.count("'name'") == 4  # the run still converged


def _refused(capsys, argv):
    """Run ``repro run`` and return its one stderr line; the run must
    exit non-zero and print nothing else."""
    assert main(["run", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_run_fault_plan_crashes_require_shards(tmp_path, capsys):
    """Crash windows without --shards are rejected with a one-line
    error: only the sharded backend has a WAL to recover from."""
    import json

    from repro.net import FaultPlan, ShardCrashWindow
    from repro.server.shard import shard_endpoint

    plan = FaultPlan(
        crashes=(ShardCrashWindow(shard_endpoint(0), 1.0, 2.0),)
    )
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan.to_dict()))
    err = _refused(capsys, ["--seed", "3", "--workers", "3", "--rows", "4",
                            "--fault-plan", str(plan_file)])
    assert "crash windows need a sharded backend" in err


def test_run_rejects_a_malformed_fault_plan(tmp_path, capsys):
    """A plan that does not load is a one-line error, not a traceback."""
    import json

    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(
        {"disconnects": [{"endpoint": "worker-1", "start": 5, "ned": 9}]}
    ))
    err = _refused(capsys, ["--seed", "3", "--fault-plan", str(plan_file)])
    assert "unknown key(s) 'ned'" in err


@pytest.mark.parametrize("endpoint", ["worker-1", "shard-7"])
def test_run_rejects_a_crash_window_off_the_shards(
    endpoint, tmp_path, capsys, monkeypatch
):
    """A crash window on a worker or on a shard the run does not have
    is refused before any simulated time passes: a worker has no WAL to
    recover from (its replica would silently diverge) and an unknown
    endpoint's window would do nothing."""
    import json

    from repro.sim import Simulator

    def no_time(self, *args, **kwargs):
        raise AssertionError("simulated time passed")

    monkeypatch.setattr(Simulator, "run", no_time)
    monkeypatch.setattr(Simulator, "step", no_time)
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(
        {"crashes": [{"endpoint": endpoint, "start": 100, "end": 300}]}
    ))
    err = _refused(capsys, ["--seed", "3", "--shards", "2",
                            "--fault-plan", str(plan_file)])
    assert f"crash window on '{endpoint}'" in err


def test_run_cdc_export_lost_to_a_primary_crash_fails_loudly(tmp_path, capsys):
    """A crash of the primary shard loses the `--cdc-out` subscription:
    the CLI names the crashed endpoint, writes no export, exits non-zero
    and still writes its other outputs."""
    import json

    from repro.net import FaultPlan, ShardCrashWindow
    from repro.server.shard import shard_endpoint

    plan = FaultPlan(
        crashes=(ShardCrashWindow(shard_endpoint(0), 1.0, 3.0),)
    )
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan.to_dict()))
    cdc_file = tmp_path / "events.jsonl"
    metrics_file = tmp_path / "metrics.json"
    code = main(["run", "--seed", "3", "--workers", "3", "--rows", "4",
                 "--shards", "2", "--fault-plan", str(plan_file),
                 "--cdc-out", str(cdc_file),
                 "--metrics-out", str(metrics_file)])
    assert code == 1
    captured = capsys.readouterr()
    assert "shard-0" in captured.err
    assert str(cdc_file) in captured.err
    assert not cdc_file.exists()
    assert "change events" not in captured.out
    assert metrics_file.exists()
    assert captured.out.count("'name'") == 4  # the results still print


def test_run_cdc_export_survives_a_non_primary_crash(tmp_path, capsys):
    """Only the primary's crash loses the export: a crash of another
    shard still writes every change event."""
    import json

    from repro.net import FaultPlan, ShardCrashWindow
    from repro.server.shard import shard_endpoint

    plan = FaultPlan(
        crashes=(ShardCrashWindow(shard_endpoint(1), 1.0, 3.0),)
    )
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan.to_dict()))
    cdc_file = tmp_path / "events.jsonl"
    code = main(["run", "--seed", "3", "--workers", "3", "--rows", "4",
                 "--shards", "2", "--fault-plan", str(plan_file),
                 "--cdc-out", str(cdc_file)])
    assert code == 0
    lines = cdc_file.read_text().splitlines()
    assert lines
    assert f"wrote {len(lines)} change events" in capsys.readouterr().out
