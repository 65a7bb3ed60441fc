"""CLI surface: subcommands, report schema, exit codes, seed plumbing."""

import json
import re

import numpy as np
import pytest

from icecache import Engine, InvariantViolation
from icecache.bench import _aggregate, score_step, validate_report
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
    # The second run has anchor 0 and reuse layers 1 and 2, which own no store.
    for extra in ([], ["--skip-layers", "0", "--reuse-stride", "3"]):
        code, out, _ = _run(capsys, ["compare-baseline", *SMALL, "--steps", "6",
                                     "--budget", "16", *extra])
        assert code == 0
        report = json.loads(out)
        assert report["config"]["engine"]["reuse_stride"] == (3 if extra else 1)
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


def test_planted_needle_gen_of_one_token_names_n_tokens(tmp_path, capsys):
    code, _, err = _run(capsys, ["gen", "--kind", "planted_needle", "--tokens", "1",
                                 "--out", str(tmp_path / "x.icet")])
    assert code == 2
    assert "config error: planted_needle workloads need n_tokens >= 2" in err
    assert not (tmp_path / "x.icet").exists()


def test_invariant_violation_exit_code(capsys, monkeypatch):
    """A row that breaks a report invariant exits 3, as documented."""
    def bad_score(*args, **kwargs):
        return {**score_step(*args, **kwargs), "recall_at_k": 1.5}
    monkeypatch.setattr("icecache.bench.score_step", bad_score)
    code, out, err = _run(capsys, ["bench", *SMALL, "--steps", "2", "--budget", "8"])
    assert code == 3 and out == ""
    assert "invariant violation: metrics invariant" in err


def _tamper_steps(report):
    report["aggregates"]["steps"] += 1


def _tamper_rate(report):
    report["rows"][1]["page_hit_rate"] = -0.5


def _tamper_loaded(report):
    row = report["rows"][0]
    row["tokens_loaded"] = row["pages_selected"] * report["config"]["engine"]["page_size"] + 1


@pytest.mark.parametrize("tamper, message", [
    (_tamper_steps, "aggregates.steps != len(rows)"),
    (_tamper_rate, "metrics invariant: page_hit_rate outside [0, 1]"),
    (_tamper_loaded, "pagestore invariant: loaded tokens exceed selected pages x page size"),
], ids=["steps", "rate", "loaded"])
def test_tampered_rows_fail_their_row_check(capsys, tamper, message):
    """Each row check of `validate_report` fires on its own tampering."""
    code, out, _ = _run(capsys, ["bench", *SMALL, "--steps", "3", "--budget", "8"])
    report = json.loads(out)
    validate_report(report)
    tamper(report)
    if tamper is not _tamper_steps:  # the row checks run after the aggregates match
        report["aggregates"] = _aggregate(report["rows"])
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        validate_report(report)
