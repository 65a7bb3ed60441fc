"""CLI surface: subcommands, report schema, exit codes, seed plumbing."""

import json

import numpy as np
import pytest

from icecache import Engine, InvariantViolation
from icecache.bench import validate_report
from icecache.cli import main

SMALL = ["--tokens", "720", "--d", "16", "--d-prime", "8", "--clusters", "8",
         "--layers", "3", "--kv-heads", "1"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bench_emits_rows_and_aggregates(capsys):
    code, out, _ = _run(capsys, ["bench", *SMALL, "--steps", "10", "--budget", "16"])
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert len(report["rows"]) == 10
    assert report["aggregates"]["steps"] == 10
    assert report["config"]["engine"]["token_budget"] == 16
    validate_report(report)


def test_bench_report_and_csv_files(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    csv_path = tmp_path / "rows.csv"
    code, _, _ = _run(capsys, ["bench", *SMALL, "--steps", "5", "--budget", "8",
                               "--report", str(report_path), "--csv", str(csv_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert len(report["rows"]) == 5
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    assert "recall_at_k" in lines[0]


def test_compare_baseline_reports_paired_hit_rates(capsys):
    code, out, _ = _run(capsys, ["compare-baseline", *SMALL, "--steps", "6",
                                 "--budget", "16"])
    assert code == 0
    report = json.loads(out)
    assert "baseline" in report
    assert report["baseline"]["mean_token_order_hit_rate"] is not None
    for row in report["rows"]:
        assert row["baseline_hit_rate"] is not None
        assert row["page_hit_rate"] is not None


def test_sweep_recall_monotone_in_budget(capsys):
    code, out, _ = _run(capsys, ["sweep", *SMALL, "--steps", "8",
                                 "--budgets", "4,16,64"])
    assert code == 0
    report = json.loads(out)
    recalls = [run["aggregates"]["mean_recall_at_k"] for run in report["sweep"]]
    assert [run["token_budget"] for run in report["sweep"]] == [4, 16, 64]
    assert recalls[0] <= recalls[1] + 1e-9 <= recalls[2] + 2e-9


def test_sweep_baseline_keeps_each_budgets_baseline_block(capsys):
    code, out, _ = _run(capsys, ["sweep", *SMALL, "--steps", "6",
                                 "--budgets", "8,16", "--baseline"])
    assert code == 0
    runs = json.loads(out)["sweep"]
    assert [run["token_budget"] for run in runs] == [8, 16]
    for run in runs:
        assert run["baseline"]["mean_token_order_hit_rate"] is not None
        assert run["baseline"]["mean_semantic_hit_rate"] is not None
    code, out, _ = _run(capsys, ["sweep", *SMALL, "--steps", "2", "--budgets", "8"])
    assert code == 0 and "baseline" not in json.loads(out)["sweep"][0]


def test_gen_then_bench_from_trace(tmp_path, capsys):
    trace = tmp_path / "w.icet"
    code, _, _ = _run(capsys, ["gen", *SMALL, "--out", str(trace)])
    assert code == 0 and trace.exists()
    code, out, _ = _run(capsys, ["bench", *SMALL, "--trace", str(trace),
                                 "--steps", "4", "--budget", "8"])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["workload"]["kind"] == "trace_file"
    assert len(report["rows"]) == 4


def test_pipeline_est_output(capsys):
    code, out, _ = _run(capsys, ["pipeline-est", "--prefill", "1", "--offload", "1",
                                 "--index", "1", "--layers", "10"])
    assert code == 0
    report = json.loads(out)
    assert report["serial_total"] == 30.0
    assert report["pipelined_total"] == 12.0


def test_config_error_exit_code(capsys):
    code, _, err = _run(capsys, ["bench", *SMALL, "--steps", "5", "--ratio", "1.5"])
    assert code == 2
    assert "config error" in err


def test_search_budget_error_exits_before_prefill(capsys, monkeypatch):
    def prefill(*args, **kwargs):
        raise AssertionError("prefill ran on a config with a bad search budget")
    monkeypatch.setattr(Engine, "prefill", prefill)
    code, _, err = _run(capsys, ["bench", *SMALL, "--steps", "5", "--budget", "0"])
    assert code == 2
    assert "token_budget must be >= 1" in err


def test_io_error_exit_code(tmp_path, capsys):
    code, _, err = _run(capsys, ["bench", *SMALL, "--trace",
                                 str(tmp_path / "missing.icet"), "--steps", "2"])
    assert code == 4
    assert "i/o error" in err


def test_non_finite_trace_is_io_error(tmp_path, capsys):
    trace = tmp_path / "w.icet"
    assert _run(capsys, ["gen", *SMALL, "--out", str(trace)])[0] == 0
    raw = bytearray(trace.read_bytes())
    offset = 32 + 590 * 3 * (16 + 8 + 16) * 4  # token 590's first key float
    raw[offset:offset + 4] = np.float32(np.nan).tobytes()
    trace.write_bytes(bytes(raw))
    code, _, err = _run(capsys, ["bench", *SMALL, "--trace", str(trace), "--steps", "5"])
    assert code == 4
    assert f"i/o error: non-finite value at byte offset {offset}" in err


def test_bad_seed_env_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("ICECACHE_SEED", "abc")
    code, _, err = _run(capsys, ["bench", *SMALL, "--steps", "2", "--budget", "8"])
    assert code == 2
    assert "config error: ICECACHE_SEED" in err


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("ICECACHE_SEED", "77")
    code, out, _ = _run(capsys, ["bench", *SMALL, "--steps", "2", "--budget", "8"])
    assert code == 0
    assert json.loads(out)["config"]["engine"]["seed"] == 77


def test_tampered_aggregates_fail_validation(capsys):
    code, out, _ = _run(capsys, ["bench", *SMALL, "--steps", "3", "--budget", "8"])
    report = json.loads(out)
    report["aggregates"]["mean_recall_at_k"] += 0.25
    with pytest.raises(InvariantViolation, match="aggregate"):
        validate_report(report)
