"""CLI for the micro-benchmark subsystem + CI regression gate.

Usage::

    python -m repro.bench --fast            # what CI's bench job runs
    python -m repro.bench                   # full suite
    python -m repro.bench --update-baseline # refresh committed numbers

Writes ``BENCH_kernels.json`` under ``--out`` (default:
``$REPRO_RESULTS_DIR`` or ``./results``), prints the packed-vs-reference
table, and -- unless ``--no-check`` -- gates against the committed
baseline (``benchmarks/baselines/BENCH_kernels.json``): exit 1 on any
byte-identity failure, a gemm-suite geomean speedup below the floor, or a
tracked kernel regressing more than the tolerance.

When the compiled ``cffi`` kernel backend (:mod:`repro.core.backends`)
loads, the run also times each conv kernel numpy-vs-cffi; the gate then
additionally requires compiled byte-identity and, above the smoke tier,
a compiled geomean of at least 1x.

``--report`` additionally appends a trend row to ``BENCH_trend.csv`` and
renders ``BENCH_report.md`` (kernel tables + serving modeled cost + trend
history).
``--trace PATH`` records every kernel execution as wall-clock spans and
writes a Chrome-trace JSON (open in ``chrome://tracing`` / Perfetto) plus
a ``.jsonl`` span log next to it.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

from . import (
    DEFAULT_BASELINE_PATH,
    DEFAULT_MIN_GEMM_SPEEDUP,
    DEFAULT_TOLERANCE,
    RESULT_FILENAME,
    check_report,
    geomean,
    load_report,
    merge_best,
    run_suite,
)


def _emit_report(args, report_dict: dict) -> int:
    """Append the trend row and render the markdown report (``--report``)."""
    from .report import (
        REPORT_FILENAME,
        TREND_FILENAME,
        append_trend_row,
        render_report,
        trend_row,
    )

    out_dir = args.out or pathlib.Path(
        os.environ.get("REPRO_RESULTS_DIR", "results")
    )
    trend_path = args.trend or DEFAULT_BASELINE_PATH.parent / TREND_FILENAME
    rows = append_trend_row(trend_path, trend_row(report_dict))
    md = render_report(report_dict, rows)
    report_path = out_dir / REPORT_FILENAME
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(md)
    print(f"appended trend row to {trend_path} ({len(rows)} rows)")
    print(f"wrote {report_path}")
    return 0


def _format_table(report) -> str:
    header = f"{'kernel':<48} {'reference':>12} {'packed':>12} {'speedup':>9} {'ok':>3}"
    lines = [header, "-" * len(header)]
    for r in report.kernels:
        lines.append(
            f"{r.id:<48} {r.reference_us:>10.0f}us {r.packed_us:>10.0f}us "
            f"{r.speedup:>8.1f}x {'y' if r.identical else 'N':>3}"
        )
    s = report.summary()
    lines.append("-" * len(header))
    lines.append(
        f"{'geomean (all / gemm suite)':<48} "
        f"{s['geomean_speedup']:>23.1f}x {s['gemm_geomean_speedup']:>8.1f}x"
    )
    if "compiled_geomean_speedup" in s:
        backend = next(
            r.compiled_backend for r in report.kernels
            if r.compiled_backend is not None
        )
        lines.append(
            f"{f'compiled [{backend}] vs numpy geomean (conv)':<48} "
            f"{s['compiled_geomean_speedup']:>23.2f}x"
        )
    for m in report.serving:
        lines.append(
            f"serving: {m['model']} {m['pair']} batch={m['batch']} "
            f"modeled={m['modeled_total_us']:.0f}us "
            f"gemms={m['gemm_problems']} "
            f"plan_cache_hit_rate={m['plan_cache_hit_rate']:.2f}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    tier = parser.add_mutually_exclusive_group()
    tier.add_argument("--fast", action="store_true",
                      help="CI tier: one shape per pair, small conv suite")
    tier.add_argument("--smoke", action="store_true",
                      help="tiny tier for tests (no speedup floor)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats (default 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="operand RNG seed (default 0)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="output dir for BENCH_kernels.json (default: "
                             "$REPRO_RESULTS_DIR or ./results)")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help=f"baseline to gate against (default: "
                             f"{DEFAULT_BASELINE_PATH} when present)")
    parser.add_argument("--no-check", action="store_true",
                        help="run + report only; skip the regression gate")
    parser.add_argument("--update-baseline", action="store_true",
                        help=f"write the run to {DEFAULT_BASELINE_PATH} "
                             "(or --baseline) instead of gating against it")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional speedup regression per "
                             "tracked kernel (default 0.25)")
    parser.add_argument("--min-gemm-speedup", type=float, default=None,
                        help="floor on the gemm suite's geomean speedup "
                             f"(default {DEFAULT_MIN_GEMM_SPEEDUP:.0f}; 0 "
                             "disables)")
    parser.add_argument("--report", action="store_true",
                        help="append a trend row to BENCH_trend.csv and "
                             "render BENCH_report.md under --out")
    parser.add_argument("--report-from", type=pathlib.Path, default=None,
                        metavar="JSON",
                        help="report on an existing BENCH_kernels.json "
                             "instead of running the suite (implies "
                             "--report and skips the gate)")
    parser.add_argument("--trend", type=pathlib.Path, default=None,
                        help="trend CSV to append to (default: "
                             "benchmarks/baselines/BENCH_trend.csv)")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        metavar="PATH",
                        help="record kernel executions and write a "
                             "Chrome-trace JSON there (+ .jsonl sibling)")
    args = parser.parse_args(argv)

    if args.report_from is not None:
        return _emit_report(args, report_dict=load_report(args.report_from))

    tier_name = "smoke" if args.smoke else ("fast" if args.fast else "full")
    if args.trace is not None:
        from ..obs import Tracer, trace_kernels, write_chrome_trace, write_jsonl

        tracer = Tracer()
        with trace_kernels(tracer):
            report = run_suite(tier_name, repeats=args.repeats, seed=args.seed)
        args.trace.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(tracer, args.trace)
        n = write_jsonl(tracer, args.trace.with_suffix(".jsonl"))
        print(f"traced {n} kernel executions -> {args.trace} "
              f"(+ {args.trace.with_suffix('.jsonl').name})")
    else:
        report = run_suite(tier_name, repeats=args.repeats, seed=args.seed)
    print(_format_table(report))

    out_dir = args.out or pathlib.Path(
        os.environ.get("REPRO_RESULTS_DIR", "results")
    )
    out_path = out_dir / RESULT_FILENAME
    report.write(out_path)
    print(f"\nwrote {out_path}")

    if args.report:
        # report before the gate: a regression must not suppress the
        # artifact that explains it
        _emit_report(args, report_dict=report.to_dict())

    baseline_path = args.baseline or DEFAULT_BASELINE_PATH
    if args.update_baseline:
        # never commit a baseline that violates the semantic contract --
        # byte-identity failures must not become "the new normal"
        broken = [
            r.id for r in report.kernels
            if not r.identical or r.compiled_identical is False
        ]
        if broken:
            print("error: refusing to update the baseline; output "
                  "not byte-identical for: " + ", ".join(broken),
                  file=sys.stderr)
            return 1
        report.write(baseline_path)
        print(f"updated baseline {baseline_path}")
        return 0

    if args.no_check:
        return 0

    baseline = None
    if baseline_path.exists():
        try:
            baseline = load_report(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if baseline.get("suite") != tier_name:
            # a baseline tracks one tier's kernels; comparing a run of
            # another tier would report spurious "missing kernel" failures
            print(f"note: baseline is the {baseline.get('suite')!r} tier, "
                  f"this run is {tier_name!r}; gating on byte-identity "
                  "and the speedup floor only")
            baseline = None
    else:
        print(f"note: no baseline at {baseline_path}; gating on "
              "byte-identity and the speedup floor only")

    floor = args.min_gemm_speedup
    if floor is None:
        floor = 0.0 if tier_name == "smoke" else DEFAULT_MIN_GEMM_SPEEDUP
    failures = check_report(
        report, baseline, tolerance=args.tolerance, min_gemm_speedup=floor,
    )
    timing_failures = [f for f in failures if "byte-identical" not in f]
    if timing_failures:
        # a regression verdict must reproduce: re-measure once and keep
        # the better ratio per kernel (byte-identity violations survive
        # the merge -- those are deterministic bugs, not timing noise,
        # and identity-only failures skip the pointless re-run)
        print("\ngate failed on first measurement; re-measuring once "
              "to rule out timing noise...", file=sys.stderr)
        report = merge_best(
            report, run_suite(tier_name, repeats=args.repeats, seed=args.seed)
        )
        report.write(out_path)
        failures = check_report(
            report, baseline, tolerance=args.tolerance, min_gemm_speedup=floor,
        )
    if failures:
        print("\nBENCH GATE FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    gg = geomean(report.gemm_speedups)
    msg = (f"bench gate passed (gemm geomean {gg:.1f}x, "
           f"tolerance {args.tolerance:.0%}")
    if report.compiled_speedups:
        msg += f", compiled geomean {geomean(report.compiled_speedups):.2f}x"
    print(msg + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
