"""Perf-report pipeline: trend history + markdown report over bench runs.

Turns the raw ``BENCH_kernels.json`` artifact into the repo's perf story:

* **trend history** -- ``BENCH_trend.csv`` accumulates one summary row per
  commit+suite (gemm/overall geomean, min/max speedup), appended from
  successive bench runs so regressions show up as a series, not a diff;
* **markdown report** -- ``BENCH_report.md`` renders the kernel tables,
  the serving modeled-cost rows and the trend table into one artifact,
  via a section registry in the style of the experiment/figure registry
  (:data:`repro.experiments.runner.EXPERIMENTS`).  The experiment tables
  have one publisher, the experiments runner, so they are not rendered
  here.

Used by ``python -m repro.bench --report`` and the CI ``report`` job.
"""

from __future__ import annotations

import csv
import datetime
import os
import subprocess
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..experiments.report import format_rows, format_table

__all__ = [
    "TREND_FILENAME",
    "REPORT_FILENAME",
    "TREND_COLUMNS",
    "current_commit",
    "trend_row",
    "load_trend",
    "append_trend_row",
    "render_report",
    "SECTIONS",
]

TREND_FILENAME = "BENCH_trend.csv"
REPORT_FILENAME = "BENCH_report.md"

#: One row per (commit, suite); later runs of the same pair replace the row.
TREND_COLUMNS = (
    "commit",
    "date",
    "suite",
    "kernels",
    "gemm_geomean_speedup",
    "geomean_speedup",
    "min_speedup",
    "max_speedup",
)

_NUMERIC_TREND_COLUMNS = TREND_COLUMNS[4:]


def current_commit(repo: Path | None = None) -> str:
    """Short id of the commit being measured.

    CI exports ``GITHUB_SHA``; locally we ask git.  Falls back to
    ``"worktree"`` so report generation never fails on a bare checkout.
    """
    sha = os.environ.get("GITHUB_SHA", "")
    if sha:
        return sha[:9]
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo or Path.cwd(), capture_output=True, text=True,
            timeout=10, check=False,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "worktree"


def trend_row(
    report: Mapping[str, Any],
    *,
    commit: str | None = None,
    date: str | None = None,
) -> dict[str, Any]:
    """Summarize one bench-report dict into a trend row."""
    summary = report.get("summary", {})
    return {
        "commit": commit or current_commit(),
        "date": date or datetime.date.today().isoformat(),
        "suite": report.get("suite", "unknown"),
        "kernels": len(report.get("kernels", [])),
        "gemm_geomean_speedup": round(
            float(summary.get("gemm_geomean_speedup", 0.0)), 3),
        "geomean_speedup": round(float(summary.get("geomean_speedup", 0.0)), 3),
        "min_speedup": round(float(summary.get("min_speedup", 0.0)), 3),
        "max_speedup": round(float(summary.get("max_speedup", 0.0)), 3),
    }


def load_trend(path: Path) -> list[dict[str, Any]]:
    """Read the trend CSV (numeric columns typed); [] when absent."""
    path = Path(path)
    if not path.exists():
        return []
    rows: list[dict[str, Any]] = []
    with path.open(newline="") as fh:
        for raw in csv.DictReader(fh):
            row: dict[str, Any] = {c: raw.get(c, "") for c in TREND_COLUMNS}
            row["kernels"] = int(row["kernels"] or 0)
            for col in _NUMERIC_TREND_COLUMNS:
                row[col] = float(row[col] or 0.0)
            rows.append(row)
    return rows


def append_trend_row(path: Path, row: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Append ``row`` to the CSV at ``path`` and return all rows.

    Re-running the bench on the same commit+suite (local iteration, CI
    retries) replaces that row in place instead of stuttering the series.
    """
    path = Path(path)
    rows = load_trend(path)
    key = (row["commit"], row["suite"])
    rows = [r for r in rows if (r["commit"], r["suite"]) != key]
    rows.append({c: row[c] for c in TREND_COLUMNS})
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(TREND_COLUMNS))
        writer.writeheader()
        writer.writerows(rows)
    return rows


# --------------------------------------------------------------------------
# markdown sections
#
# Each renderer takes (report_dict, trend_rows) and returns markdown, or ""
# to drop its section.  Registered in render order, experiment-registry
# style, so new sections slot in without touching render_report.

def _kernel_rows(report: Mapping[str, Any], suite: str) -> list[Mapping]:
    return [r for r in report.get("kernels", []) if r.get("suite") == suite]


def _kernel_table(rows: Sequence[Mapping]) -> str:
    return format_rows(
        rows,
        ["id", "pair", "reference_us", "packed_us", "speedup", "identical"],
        headers=["kernel", "pair", "reference (us)", "packed (us)",
                 "speedup", "identical"],
    )


def _section_header(report: Mapping[str, Any], trend: Sequence[Mapping]) -> str:
    host = report.get("host", {})
    summary = report.get("summary", {})
    rows = [
        ["suite", report.get("suite", "?")],
        ["repeats", report.get("repeats", "?")],
        ["kernels", len(report.get("kernels", []))],
        ["gemm geomean speedup",
         f"{summary.get('gemm_geomean_speedup', 0.0):.1f}x"],
        ["overall geomean speedup",
         f"{summary.get('geomean_speedup', 0.0):.1f}x"],
        ["host", " ".join(str(v) for v in host.values()) or "?"],
    ]
    return (
        "packed-word kernels vs the decoded-integer reference "
        "(best-of-N wall clock; `identical` is the byte-identity "
        "contract every strategy must keep).\n\n"
        + format_table(["run", "value"], rows)
    )


def _section_gemm(report: Mapping[str, Any], trend: Sequence[Mapping]) -> str:
    rows = _kernel_rows(report, "gemm")
    return _kernel_table(rows) if rows else ""


def _section_conv(report: Mapping[str, Any], trend: Sequence[Mapping]) -> str:
    rows = _kernel_rows(report, "conv")
    return _kernel_table(rows) if rows else ""


def _section_serving(report: Mapping[str, Any], trend: Sequence[Mapping]) -> str:
    rows = report.get("serving", [])
    if not rows:
        return ""
    return (
        "Modeled end-to-end plan cost per served model "
        "(the serving stack prices batches with these numbers).\n\n"
        + format_rows(
            rows,
            ["model", "pair", "batch", "modeled_total_us", "gemm_problems",
             "plan_cache_hit_rate"],
            headers=["model", "pair", "batch", "modeled total (us)",
                     "gemm problems", "plan-cache hit rate"],
        )
    )


def _section_trend(report: Mapping[str, Any], trend: Sequence[Mapping]) -> str:
    if not trend:
        return ""
    return (
        "One row per commit+suite, appended by each `--report` run; read "
        "top-to-bottom as the perf history.\n\n"
        + format_rows(
            trend,
            list(TREND_COLUMNS),
            headers=["commit", "date", "suite", "kernels", "gemm geomean",
                     "geomean", "min", "max"],
        )
    )


SECTIONS: dict[str, Callable[[Mapping[str, Any], Sequence[Mapping]], str]] = {
    "Run summary": _section_header,
    "GEMM kernels (APMM)": _section_gemm,
    "Conv kernels (APConv)": _section_conv,
    "Serving modeled cost": _section_serving,
    "Speedup trend": _section_trend,
}


def render_report(
    report: Mapping[str, Any], trend: Sequence[Mapping] = ()
) -> str:
    """Render the full markdown perf report."""
    parts = [f"# Bench report -- `{report.get('suite', '?')}` suite"]
    for title, render in SECTIONS.items():
        body = render(report, trend)
        if body:
            parts.append(f"## {title}\n\n{body}")
    return "\n\n".join(parts) + "\n"
