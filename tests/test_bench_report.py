"""Bench report pipeline: trend CSV, markdown rendering, CLI wiring."""

import json

import pytest

from repro.bench.report import (
    REPORT_FILENAME,
    TREND_COLUMNS,
    TREND_FILENAME,
    append_trend_row,
    current_commit,
    load_trend,
    render_report,
    trend_row,
)
from repro.bench.__main__ import main as bench_main


def sample_report(suite="smoke", gemm_speedup=5.0):
    return {
        "schema": 2,
        "suite": suite,
        "repeats": 2,
        "host": {"python": "3.11", "platform": "test"},
        "kernels": [
            {"id": "gemm-w1a2-32x32x128", "suite": "gemm", "pair": "w1a2",
             "dims": {"m": 32}, "reference_us": 100.0, "packed_us": 20.0,
             "speedup": gemm_speedup, "identical": True, "repeats": 2},
            {"id": "conv-w1a2-b1c8-8@8k3s1", "suite": "conv", "pair": "w1a2",
             "dims": {"cin": 8}, "reference_us": 200.0, "packed_us": 80.0,
             "speedup": 2.5, "identical": True, "repeats": 2},
        ],
        "serving": [
            {"model": "alexnet", "pair": "w1a2", "batch": 8,
             "modeled_total_us": 123.0, "gemm_problems": 5,
             "plan_cache_hit_rate": 1.0},
        ],
        "summary": {
            "geomean_speedup": 3.5, "gemm_geomean_speedup": gemm_speedup,
            "min_speedup": 2.5, "max_speedup": gemm_speedup,
        },
    }


# ----------------------------------------------------------------------
# trend history
# ----------------------------------------------------------------------
def test_trend_row_summarizes_a_report():
    row = trend_row(sample_report(), commit="abc1234", date="2026-08-07")
    assert row == {
        "commit": "abc1234", "date": "2026-08-07", "suite": "smoke",
        "kernels": 2, "gemm_geomean_speedup": 5.0, "geomean_speedup": 3.5,
        "min_speedup": 2.5, "max_speedup": 5.0,
    }
    assert tuple(row) == TREND_COLUMNS


def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / TREND_FILENAME
    row = trend_row(sample_report(), commit="abc1234", date="2026-08-07")
    assert append_trend_row(path, row) == [row]
    assert load_trend(path) == [row]


def test_load_trend_missing_file_is_empty(tmp_path):
    assert load_trend(tmp_path / "nope.csv") == []


def test_append_dedups_by_commit_and_suite(tmp_path):
    path = tmp_path / TREND_FILENAME
    first = trend_row(sample_report(gemm_speedup=5.0), commit="c1", date="d1")
    rerun = trend_row(sample_report(gemm_speedup=6.0), commit="c1", date="d2")
    other = trend_row(sample_report(suite="fast"), commit="c1", date="d1")
    append_trend_row(path, first)
    append_trend_row(path, other)
    rows = append_trend_row(path, rerun)
    assert len(rows) == 2  # rerun replaced first; other suite survived
    by_suite = {r["suite"]: r for r in rows}
    assert by_suite["smoke"]["gemm_geomean_speedup"] == 6.0
    assert by_suite["fast"]["commit"] == "c1"


def test_trend_accumulates_across_commits(tmp_path):
    path = tmp_path / TREND_FILENAME
    for i in range(3):
        append_trend_row(path, trend_row(
            sample_report(), commit=f"c{i}", date=f"2026-08-0{i + 1}"
        ))
    assert [r["commit"] for r in load_trend(path)] == ["c0", "c1", "c2"]


def test_current_commit_prefers_github_sha(monkeypatch):
    monkeypatch.setenv("GITHUB_SHA", "0123456789abcdef")
    assert current_commit() == "012345678"


def test_current_commit_falls_back_to_git(monkeypatch, tmp_path):
    monkeypatch.delenv("GITHUB_SHA", raising=False)
    # a non-repo directory forces the terminal fallback
    assert current_commit(tmp_path) == "worktree"


# ----------------------------------------------------------------------
# markdown report
# ----------------------------------------------------------------------
def test_render_report_contains_all_sections():
    rows = [trend_row(sample_report(), commit="abc1234", date="2026-08-07")]
    md = render_report(sample_report(), rows)
    assert md.startswith("# Bench report -- `smoke` suite")
    for heading in ("## Run summary", "## GEMM kernels", "## Conv kernels",
                    "## Serving modeled cost", "## Speedup trend"):
        assert heading in md
    assert "gemm-w1a2-32x32x128" in md
    assert "conv-w1a2-b1c8-8@8k3s1" in md
    assert "abc1234" in md  # the trend row made it into the table


def test_render_report_drops_empty_sections():
    report = sample_report()
    report["serving"] = []
    md = render_report(report, [])
    assert "## Serving modeled cost" not in md
    assert "## Speedup trend" not in md


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_bench_cli_report_and_trace(tmp_path, capsys):
    out = tmp_path / "results"
    trend = tmp_path / TREND_FILENAME
    trace = tmp_path / "kernels.json"
    rc = bench_main([
        "--smoke", "--repeats", "1", "--no-check",
        "--out", str(out), "--report", "--trend", str(trend),
        "--trace", str(trace),
    ])
    assert rc == 0
    rows = load_trend(trend)
    assert len(rows) == 1 and rows[0]["suite"] == "smoke"
    md = (out / REPORT_FILENAME).read_text()
    assert "## Speedup trend" in md

    from repro.obs import validate_chrome_trace

    validate_chrome_trace(json.loads(trace.read_text()))
    spans = [
        json.loads(line)
        for line in trace.with_suffix(".jsonl").read_text().splitlines()
    ]
    assert spans and all(s["phase"] == "kernel" for s in spans)
    assert all(s["track"] == "wall" for s in spans)
    assert any(s["attributes"]["bmma_calls"] > 0 for s in spans)


@pytest.mark.slow
def test_bench_cli_report_from_existing_json(tmp_path):
    src = tmp_path / "BENCH_kernels.json"
    src.write_text(json.dumps(sample_report()))
    out = tmp_path / "results"
    rc = bench_main([
        "--report-from", str(src),
        "--out", str(out), "--trend", str(tmp_path / TREND_FILENAME),
    ])
    assert rc == 0
    assert (out / REPORT_FILENAME).exists()
    assert load_trend(tmp_path / TREND_FILENAME)[0]["suite"] == "smoke"
