"""Tests for repro.bench: suites, JSON schema, and the CI regression gate."""

import copy
import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchReport,
    ConvSpec,
    GemmSpec,
    check_report,
    conv_suite,
    gemm_suite,
    geomean,
    load_report,
    merge_best,
    run_suite,
    serving_suite,
)
from repro.bench.__main__ import main as bench_main
from repro.core import backends


@pytest.fixture(scope="module")
def smoke_report() -> BenchReport:
    return run_suite("smoke", repeats=1, seed=0)


class TestSuites:
    def test_gemm_suite_covers_paper_pairs(self):
        pairs = {s.pair for s in gemm_suite("fast")}
        assert {"w1a2", "w2a2", "w1a4", "w2a4", "w4a4", "w2a8"} <= pairs

    def test_full_supersets_fast(self):
        fast = {s.id for s in gemm_suite("fast")}
        full = {s.id for s in gemm_suite("full")}
        assert fast <= full
        assert len(conv_suite("full")) >= len(conv_suite("fast"))

    def test_serving_suite_pulls_model_gemms(self):
        specs, meta = serving_suite("fast")
        assert specs, "serving suite must track at least one model GEMM"
        assert all(s.suite == "serving" for s in specs)
        assert meta[0]["model"] == "AlexNet"
        assert meta[0]["modeled_total_us"] > 0
        # distinct ids (deduped)
        ids = [s.id for s in specs]
        assert len(ids) == len(set(ids))

    def test_spec_ids_are_stable(self):
        assert GemmSpec("gemm", "w1a2", 8, 9, 10).id == "gemm-w1a2-8x9x10"
        assert (
            ConvSpec("w1a2", batch=2, cin=4, cout=8, hw=6).id
            == "conv-w1a2-b2c4-8@6k3s1"
        )

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier"):
            run_suite("warp-speed")


class TestReport:
    def test_every_kernel_byte_identical(self, smoke_report):
        assert smoke_report.kernels
        assert all(r.identical for r in smoke_report.kernels)
        assert all(r.packed_us > 0 and r.reference_us > 0
                   for r in smoke_report.kernels)

    def test_json_roundtrip_and_schema(self, smoke_report, tmp_path):
        path = tmp_path / "BENCH_kernels.json"
        smoke_report.write(path)
        data = load_report(path)
        assert data["schema"] == SCHEMA_VERSION
        assert data["suite"] == "smoke"
        assert len(data["kernels"]) == len(smoke_report.kernels)
        for entry in data["kernels"]:
            assert {"id", "suite", "pair", "dims", "reference_us",
                    "packed_us", "speedup", "identical"} <= set(entry)
        assert "geomean_speedup" in data["summary"]

    def test_compiled_columns_only_on_conv_rows(self, smoke_report):
        conv = [r for r in smoke_report.kernels if r.suite == "conv"]
        assert conv
        for r in smoke_report.kernels:
            if r.suite != "conv":
                assert r.compiled_speedup is None
        if backends.get_backend().compiled:
            assert all(
                r.compiled_backend == "cffi" and r.compiled_identical
                for r in conv
            )

    def test_schema_mismatch_refused(self, smoke_report, tmp_path):
        path = tmp_path / "old.json"
        data = smoke_report.to_dict()
        data["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema"):
            load_report(path)

    def test_geomean(self):
        assert geomean([4.0, 16.0]) == pytest.approx(8.0)
        assert geomean([]) == 0.0


class TestRegressionGate:
    def _baseline_from(self, report: BenchReport) -> dict:
        return report.to_dict()

    def test_passes_against_own_baseline(self, smoke_report):
        baseline = self._baseline_from(smoke_report)
        assert check_report(smoke_report, baseline, min_gemm_speedup=0) == []

    def test_passes_without_baseline(self, smoke_report):
        assert check_report(smoke_report, None, min_gemm_speedup=0) == []

    def test_fails_on_speedup_regression(self, smoke_report):
        baseline = self._baseline_from(smoke_report)
        # the committed numbers claim 2x what we measured: >25% regression
        for entry in baseline["kernels"]:
            entry["speedup"] *= 2.0
        failures = check_report(
            smoke_report, baseline, tolerance=0.25,
            min_gemm_speedup=0,
        )
        assert failures
        assert all("regressed" in f for f in failures)

    def test_tolerance_absorbs_small_regressions(self, smoke_report):
        baseline = self._baseline_from(smoke_report)
        for entry in baseline["kernels"]:
            entry["speedup"] *= 1.10  # 10% worse than committed: inside 25%
        assert check_report(
            smoke_report, baseline, tolerance=0.25,
            min_gemm_speedup=0,
        ) == []

    def test_fails_on_missing_tracked_kernel(self, smoke_report):
        baseline = self._baseline_from(smoke_report)
        baseline["kernels"].append(
            dict(baseline["kernels"][0], id="gemm-w9a9-1x1x1")
        )
        failures = check_report(smoke_report, baseline, min_gemm_speedup=0)
        assert any("missing from this run" in f for f in failures)

    def test_fails_on_identity_violation(self, smoke_report):
        broken = copy.deepcopy(smoke_report)
        broken.kernels[0].identical = False
        failures = check_report(broken, None, min_gemm_speedup=0)
        assert any("byte-identical" in f for f in failures)

    def test_fails_below_gemm_speedup_floor(self, smoke_report):
        failures = check_report(smoke_report, None, min_gemm_speedup=1e9)
        assert any("floor" in f for f in failures)

    def test_compiled_slower_than_numpy_fails_above_smoke_tier(
        self, smoke_report
    ):
        slow = copy.deepcopy(smoke_report)
        for r in slow.kernels:
            if r.suite == "conv":
                r.compiled_backend = "cffi"
                r.compiled_speedup = 0.5
                r.compiled_identical = True
        # smoke shapes are too tiny for the ratio: only identity gates
        assert check_report(slow, None, min_gemm_speedup=0) == []
        slow.suite = "fast"
        failures = check_report(slow, None, min_gemm_speedup=0)
        assert any("must not be slower" in f for f in failures)

    def test_merge_best_takes_better_ratio_but_keeps_identity_bugs(
        self, smoke_report
    ):
        worse = copy.deepcopy(smoke_report)
        for r in worse.kernels:
            r.speedup /= 2
        merged = merge_best(worse, smoke_report)
        for got, best in zip(merged.kernels, smoke_report.kernels):
            assert got.speedup == best.speedup
        # identity violation in either run survives the merge, even when
        # the other run measured the better ratio
        broken = copy.deepcopy(smoke_report)
        broken.kernels[0].identical = False
        broken.kernels[0].speedup = 1e9
        merged = merge_best(smoke_report, broken)
        assert merged.kernels[0].speedup == 1e9
        assert merged.kernels[0].identical is False


class TestCLI:
    def test_smoke_run_writes_report_and_passes(self, tmp_path, capsys):
        rc = bench_main([
            "--smoke", "--repeats", "1", "--out", str(tmp_path), "--no-check",
        ])
        assert rc == 0
        data = load_report(tmp_path / "BENCH_kernels.json")
        assert data["suite"] == "smoke"

    def test_update_then_check_roundtrip(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        rc = bench_main([
            "--smoke", "--repeats", "1", "--out", str(tmp_path / "a"),
            "--baseline", str(baseline), "--update-baseline",
        ])
        assert rc == 0
        assert baseline.exists()
        # smoke kernels run in microseconds, so back-to-back timings are
        # noisy; a wide tolerance keeps this a test of the gate mechanics
        # rather than of scheduler jitter
        rc = bench_main([
            "--smoke", "--repeats", "1", "--out", str(tmp_path / "b"),
            "--baseline", str(baseline), "--tolerance", "0.9",
        ])
        assert rc == 0

    def test_environment_cannot_loosen_the_gate(self, tmp_path, monkeypatch):
        baseline = tmp_path / "baseline.json"
        rc = bench_main([
            "--smoke", "--repeats", "1", "--out", str(tmp_path / "a"),
            "--baseline", str(baseline), "--update-baseline",
        ])
        assert rc == 0
        tripled = json.loads(baseline.read_text())
        for entry in tripled["kernels"]:
            entry["speedup"] *= 3.0
        baseline.write_text(json.dumps(tripled))
        # only --tolerance may widen the gate: a stray variable in the
        # environment must not let a 3x regression pass
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "0.99")
        rc = bench_main([
            "--smoke", "--repeats", "1", "--out", str(tmp_path / "b"),
            "--baseline", str(baseline),
        ])
        assert rc == 1

    def test_gate_failure_exits_nonzero(self, tmp_path, capsys):
        rc = bench_main([
            "--smoke", "--repeats", "1", "--out", str(tmp_path),
            "--min-gemm-speedup", "1e9",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        # the gate re-measures once before giving a final verdict
        assert "re-measuring once" in err
        assert "BENCH GATE FAILED" in err

    def test_update_baseline_refuses_identity_violation(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.bench.__main__ as cli

        def broken_run_suite(tier, *, repeats, seed):
            report = run_suite(tier, repeats=repeats, seed=seed)
            report.kernels[0].identical = False
            return report

        monkeypatch.setattr(cli, "run_suite", broken_run_suite)
        baseline = tmp_path / "baseline.json"
        rc = bench_main([
            "--smoke", "--repeats", "1", "--out", str(tmp_path / "a"),
            "--baseline", str(baseline), "--update-baseline",
        ])
        assert rc == 1
        assert not baseline.exists()
        assert "refusing to update" in capsys.readouterr().err
