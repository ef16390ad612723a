"""Shape assertions for every reproduced table/figure.

These tests encode the paper's qualitative claims -- who wins, by roughly
what factor, where crossovers fall -- against the generated data.
"""

import pytest

from repro.experiments import figures


@pytest.fixture(scope="module")
def fig5():
    return figures.fig5_apmm_speedups()


@pytest.fixture(scope="module")
def fig7():
    return figures.fig7_apconv_speedups()


class TestFig5:
    def test_apmm_beats_int4_everywhere(self, fig5):
        panel4, _ = fig5
        for name in ("APMM-w1a2", "APMM-w1a3", "APMM-w1a4", "APMM-w2a2"):
            assert all(s > 1.0 for _, s in panel4.series[name]), name

    def test_w1a2_speedup_factor(self, fig5):
        """Paper: up to 2.35x over cutlass-gemm-int4."""
        panel4, _ = fig5
        assert 1.8 < panel4.max_speedup("APMM-w1a2") < 3.5

    def test_variants_similar_at_small_sizes(self, fig5):
        """Paper: w1a2..w2a2 nearly identical at N=128, 256 (batching)."""
        panel4, _ = fig5
        for n_idx in (0, 1):
            vals = [
                panel4.series[f"APMM-{v}"][n_idx][1]
                for v in ("w1a2", "w1a3", "w1a4", "w2a2")
            ]
            assert max(vals) - min(vals) < 0.15 * max(vals)

    def test_apmm_outperforms_cutlass_int1(self, fig5):
        """Paper's surprise: emulated APMM beats the binary library kernel."""
        panel4, _ = fig5
        w1a2 = dict(panel4.series["APMM-w1a2"])
        int1 = dict(panel4.series["cutlass-gemm-int1"])
        assert all(w1a2[n] > int1[n] for n in w1a2)

    def test_high_bit_variants_beat_int8(self, fig5):
        """Paper: up to ~3x over cublas-gemm-int8."""
        _, panel8 = fig5
        assert 2.2 < panel8.max_speedup("APMM-w5a1") < 4.0
        assert all(s > 1.0 for _, s in panel8.series["APMM-w5a1"])

    def test_w2a8_weakest_high_bit_variant(self, fig5):
        """Paper: 16 plane-products make w2a8 the costliest emulation."""
        _, panel8 = fig5
        at_max = {
            name: dict(panel8.series[name])[1024]
            for name in ("APMM-w5a1", "APMM-w1a8", "APMM-w6a2", "APMM-w2a8")
        }
        assert at_max["APMM-w2a8"] == min(at_max.values())


class TestFig6:
    def test_a100_panels_generated(self):
        panel4, panel8 = figures.fig6_apmm_speedups_a100()
        assert panel4.device == "A100"
        assert all(s > 0.8 for _, s in panel4.series["APMM-w1a2"])
        assert all(s > 1.0 for _, s in panel8.series["APMM-w5a1"])

    def test_a100_apmm_beats_int4(self):
        panel4, _ = figures.fig6_apmm_speedups_a100()
        assert panel4.max_speedup("APMM-w1a2") > 1.3


class TestFig7:
    def test_apconv_beats_int4(self, fig7):
        panel4, _ = fig7
        assert all(s > 1.0 for _, s in panel4.series["APConv-w1a2"])

    def test_speedup_factor_vs_int4(self, fig7):
        """Paper: up to 3.78x over cutlass-conv-int4."""
        panel4, _ = fig7
        assert 2.5 < panel4.max_speedup("APConv-w1a2") < 5.0

    def test_speedup_factor_vs_int8(self, fig7):
        """Paper: up to 3.08x over cutlass-conv-int8."""
        _, panel8 = fig7
        best = max(panel8.max_speedup(f"APConv-{v}")
                   for v in ("w1a5", "w1a8", "w2a6", "w2a8"))
        assert 1.8 < best < 4.5

    def test_conv_speedups_exceed_gemm_speedups(self, fig5, fig7):
        """Conv geometry (small N, small K) underutilizes the baselines
        even more than the FC geometry -- the paper's 3.78x vs 2.35x."""
        assert (
            fig7[0].max_speedup("APConv-w1a2")
            > fig5[0].max_speedup("APMM-w1a2")
        )


class TestFig8:
    def test_a100_conv_panels(self):
        panel4, panel8 = figures.fig8_apconv_speedups_a100()
        assert panel4.device == "A100"
        assert panel4.max_speedup("APConv-w1a2") > 1.5
        assert all(s > 0.9 for _, s in panel8.series["APConv-w1a8"])


class TestFig9:
    def test_first_layer_largest(self):
        """Paper: 80.4% (AlexNet) and 47.5% (VGG-Variant) in conv1."""
        breakdown = figures.fig9_layer_breakdown(("AlexNet", "VGG-Variant"))
        for model, fracs in breakdown.items():
            assert fracs[0][0] == "conv1"
            assert fracs[0][1] == max(f for _, f in fracs), model
        assert breakdown["AlexNet"][0][1] > 0.25

    def test_fractions_normalized(self):
        breakdown = figures.fig9_layer_breakdown(("AlexNet",))
        assert sum(f for _, f in breakdown["AlexNet"]) == pytest.approx(1.0)


class TestFig10:
    def test_fusion_always_wins(self):
        rows = figures.fig10_kernel_fusion()
        assert all(r["speedup"] > 1.0 for r in rows)

    def test_average_reduction_factor(self):
        """Paper: 1.77x average latency reduction."""
        rows = figures.fig10_kernel_fusion()
        avg = sum(r["speedup"] for r in rows) / len(rows)
        assert 1.4 < avg < 3.5

    def test_channel_sweep_covered(self):
        rows = figures.fig10_kernel_fusion()
        assert [r["channels"] for r in rows] == list(figures.CONV_CHANNELS)
        # fusion saves launches and DRAM round trips, which weigh most
        # at the smallest channel count
        assert rows[0]["speedup"] > rows[-1]["speedup"]


class TestFig11:
    def test_overheads_are_small_percent(self):
        """Paper: ~1.16% combination + ~2.02% decomposition."""
        rows = figures.fig11_bit_overhead()
        for r in rows:
            assert 0 <= r["combine_overhead_pct"] < 5
            assert 0 <= r["decompose_overhead_pct"] < 8
        mean = sum(r["decompose_overhead_pct"] for r in rows) / len(rows)
        assert mean < 4


class TestFig12:
    def test_w4a4_beats_cutlass_int4_at_small_sizes(self):
        data = figures.fig12_same_bits()
        series = dict(data["APMM-w4a4 vs cutlass-int4"])
        assert series[128] > 1.0
        assert series[256] > 1.0

    def test_w1a1_beats_cutlass_int1(self):
        """Paper: ~1.35x from kernel-level optimizations."""
        data = figures.fig12_same_bits()
        speedups = [s for _, s in data["APMM-w1a1 vs cutlass-int1"]]
        assert all(s > 1.0 for s in speedups)
        assert 1.0 < sum(speedups) / len(speedups) < 2.0


class TestTable4:
    def test_within_tolerance_of_paper(self):
        rows = figures.table4_fc_latency()
        for r in rows:
            assert r["latency_us"] == pytest.approx(r["paper_us"], rel=0.3), r

    def test_ordering_matches_paper(self):
        rows = {r["kernel"]: r["latency_us"] for r in figures.table4_fc_latency()}
        assert rows["w1a2"] < rows["w1a3"] < rows["w1a4"] <= rows["w2a2"]
        assert rows["w2a2"] < rows["cutlass-gemm-int1"]
        assert rows["cutlass-gemm-int1"] < rows["cutlass-gemm-int4"]


class TestTables23:
    @pytest.fixture(scope="class")
    def table2(self):
        rows = figures.table2_apnn_inference()
        return {
            model: {r["scheme"]: r for r in rows if r["model"] == model}
            for model in ("AlexNet", "VGG-Variant", "ResNet-18")
        }

    def test_apnn_fastest_scheme(self, table2):
        for model, rows in table2.items():
            by_scheme = {s: r["latency_ms"] for s, r in rows.items()}
            assert by_scheme["APNN-w1a2"] == min(by_scheme.values()), model
            assert by_scheme["BNN"] > by_scheme["APNN-w1a2"], model

    def test_apnn_beats_single_4x(self, table2):
        for model, rows in table2.items():
            by_scheme = {s: r["latency_ms"] for s, r in rows.items()}
            assert by_scheme["CUTLASS-Single"] / by_scheme["APNN-w1a2"] > 4, model

    def test_apnn_throughput_beats_single_3x(self, table2):
        """Paper abstract: 3x higher throughput than single precision."""
        for model, rows in table2.items():
            by_scheme = {s: r["throughput_fps"] for s, r in rows.items()}
            assert by_scheme["APNN-w1a2"] / by_scheme["CUTLASS-Single"] > 3, model

    def test_table3_precision_latency_ordering(self):
        rows = {r["scheme"]: r["latency_ms"] for r in figures.table3_vgg_case_study()}
        assert rows["APNN-w1a2"] < rows["APNN-w2a2"] < rows["APNN-w2a8"]
        assert rows["APNN-w1a2"] < rows["BNN"]
        assert rows["APNN-w1a2"] < rows["CUTLASS-INT8-TC"]
        assert rows["APNN-w2a2"] < rows["CUTLASS-INT8-TC"]

    def test_table3_w2a8_not_faster_than_int8(self):
        """Paper: 16 plane products make w2a8 lose its edge over int8."""
        rows = {
            r["scheme"]: r["throughput_fps"]
            for r in figures.table3_vgg_case_study()
        }
        assert rows["APNN-w2a8"] < rows["CUTLASS-INT8-TC"]


class TestAblations:
    def test_every_design_choice_helps(self):
        data = figures.ablation_design_choices()
        full = data["apmm-w1a2 (full design)"]
        assert data["  - plane batching"] > 1.5 * full
        assert data["  - double caching"] >= full
        assert data["  - autotuning (fixed 128x128)"] > full
        assert (
            data["apconv-w1a2 naive NCHW (512ch)"]
            > 1.2 * data["apconv-w1a2 channel-major (512ch)"]
        )
