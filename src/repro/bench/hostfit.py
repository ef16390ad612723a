"""Fit the host cost model's rates: ``taskset -c 0 python -m repro.bench.hostfit``.

:class:`repro.core.packed.HostProduct` prices the fold, the popcount
GEMM, the conv gather and the int8 conv as counted work divided by the
rates of :data:`repro.core.packed.HOST_RATES`.  This command measures
those rates the way Markidis et al. characterize a unit: it times each
primitive the paths are made of in one process -- the fold (cast, BLAS
GEMM, int64 output pass), the layout pass with ``im2col``'s window copy,
the ``np.packbits`` packer, the window gather, the popcount GEMM on both
of its compiled branches, and the int8 path's weight decode, panel
writer and AVX-512 VNNI GEMM --
over the README's crossover shapes, every AlexNet-w1a2 and
ResNet-18-w2a4 layer of the perfbench forwards and a sweep of
precision pairs over their conv shapes, and fits one rate per
primitive.

Run it on one CPU, as the command line above does.  Every path splits
its work alike across the usable CPUs (:mod:`repro.core.cores`), so the
rates are per-core work: that is what the paths are compared on, and
what :data:`repro.core.cores.MIN_PART_US` divides.

Branch 1, the AVX-512 micro-kernel, is the host build where the CPU has
AVX-512 VPOPCNTDQ; branch 0, the scalar loop nest, is the same C source
built for x86-64-v3 (:func:`repro.core._backend_cffi.loop_nest_build`)
and swapped in for its timings.  The int8 kernels run only in a build
for AVX-512 VNNI, so they are timed on the host build and priced
alike on either branch.  A branch or kernel this host cannot run keeps
its committed rates.

It prints, as markdown:

* the fitted ``HOST_RATES`` literal, to paste into ``core/packed.py``;
* the README crossover tables on both branches -- measured fold time
  over popcount (GEMM) or gather (conv) time, bold where the fitted
  model takes the compiled side -- and how many cells the model and the
  swept-bits rule it replaced (``p*q*64*words <= 2*K``) put on the
  faster side;
* emulation against native int8: the gather's speedup over the int8
  path per precision pair and conv shape, the CPU analogue of the
  paper's Figs. 5-8;
* every benchmark layer's measured path times, and per build (branch,
  with or without VNNI) the route the model takes, its measured over
  modeled time and its measured time over the fastest measured path.

Every timing is the median of seven rounds that each run all of one
shape's calls, in alternating order, on ``uint8`` digits (bipolar
weights, unsigned features, as the forwards quantize them) and on
weights that are not prepared, so each call does its weight work as the
model prices it; each conv path from the unpadded map, with its one
layout pass (:func:`~repro.kernels.layout.pad_channel_last`), as
``apconv`` runs it.  The run takes about a minute on one core of a
2-vCPU VM and builds into a temporary directory.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..core import _backend_cffi, backends, packed
from ..core.bitops import packed_words
from ..core.packed import (
    HOST_RATES,
    HostProduct,
    HostRates,
    _pack_planes,
    _popcount_matmul,
    _vnni_gemm_work,
    _vnni_panel_work,
    matmul_path,
)
from ..core.types import Encoding, Precision
from ..kernels.layout import conv_weight_matrix, im2col, pad_channel_last
from ..kernels.packed_conv import (
    _vnni_weights,
    packed_conv_matmul,
    vnni_conv_matmul,
)

__all__ = [
    "ALEXNET", "NATIVE_CONVS", "RESNET18", "GemmShape", "ConvShape", "fit",
    "main",
]

#: Rounds each shape's timings take the median of.
ROUNDS = 7


@dataclass(frozen=True)
class GemmShape:
    """One ``(M, K) x (N, K)`` product; ``pair`` is ``"wXaY"``."""

    name: str
    pair: str
    m: int
    n: int
    k: int

    def product(self) -> HostProduct:
        p, q = _bits(self.pair)
        return HostProduct(self.m, self.n, self.k, p, q)


@dataclass(frozen=True)
class ConvShape:
    """One square-kernel conv over a ``(batch, cin, hw, hw)`` map."""

    name: str
    pair: str
    batch: int
    cin: int
    cout: int
    hw: int
    kernel: int
    stride: int = 1
    padding: int = 0

    def product(self) -> HostProduct:
        p, q = _bits(self.pair)
        side = self.hw + 2 * self.padding
        return HostProduct.conv(
            self.batch, self.cin, self.cout, side, side, self.kernel,
            self.stride, p, q,
        )


def _bits(pair: str) -> tuple[int, int]:
    w, a = pair[1:].split("a")
    return int(w), int(a)


#: The README crossover cells: a GEMM at ``M = K = 2048``, and a 3x3
#: conv on a 15x15 unpadded map at batch 8 and ``C_out`` 128.
README_PAIRS = ("w1a1", "w1a2", "w2a2", "w1a4", "w2a4")
README_GEMM_N = (8, 64, 256, 1024)
README_CONV_CIN = (3, 8, 16, 32, 48, 64, 96, 128)
README_GEMMS = [
    GemmShape(f"gemm-{pair}-n{n}", pair, 2048, n, 2048)
    for pair in README_PAIRS for n in README_GEMM_N
]
README_CONVS = [
    ConvShape(f"conv-{pair}-c{cin}", pair, 8, cin, 128, 15, 3)
    for pair in README_PAIRS for cin in README_CONV_CIN
]

#: perfbench's forwards on 224x224 images: AlexNet-w1a2 at batch 8 and
#: ResNet-18-w2a4 at batch 4, their first convs on 8-bit images.  One
#: entry per distinct ResNet-18 shape; the names are its group names.
ALEXNET = [
    ConvShape("conv1", "w1a8", 8, 3, 64, 224, 11, 4, 2),
    ConvShape("conv2", "w1a2", 8, 64, 192, 27, 5, 1, 2),
    ConvShape("conv3", "w1a2", 8, 192, 384, 13, 3, 1, 1),
    ConvShape("conv4", "w1a2", 8, 384, 256, 13, 3, 1, 1),
    ConvShape("conv5", "w1a2", 8, 256, 256, 13, 3, 1, 1),
    GemmShape("fc6", "w1a2", 4096, 8, 9216),
    GemmShape("fc7", "w1a2", 4096, 8, 4096),
    GemmShape("fc8", "w1a2", 1000, 8, 4096),
]
RESNET18 = [
    ConvShape("conv1", "w2a8", 4, 3, 64, 224, 7, 2, 3),
    ConvShape("conv64-64k3s1", "w2a4", 4, 64, 64, 55, 3, 1, 1),
    ConvShape("conv64-128k3s2", "w2a4", 4, 64, 128, 55, 3, 2, 1),
    ConvShape("conv64-128k1s2", "w2a4", 4, 64, 128, 55, 1, 2, 0),
    ConvShape("conv128-128k3s1", "w2a4", 4, 128, 128, 28, 3, 1, 1),
    ConvShape("conv128-256k3s2", "w2a4", 4, 128, 256, 28, 3, 2, 1),
    ConvShape("conv128-256k1s2", "w2a4", 4, 128, 256, 28, 1, 2, 0),
    ConvShape("conv256-256k3s1", "w2a4", 4, 256, 256, 14, 3, 1, 1),
    ConvShape("conv256-512k3s2", "w2a4", 4, 256, 512, 14, 3, 2, 1),
    ConvShape("conv256-512k1s2", "w2a4", 4, 256, 512, 14, 1, 2, 0),
    ConvShape("conv512-512k3s1", "w2a4", 4, 512, 512, 7, 3, 1, 1),
    GemmShape("fc", "w2a4", 1000, 4, 512),
]

#: Emulation against native int8: each pair over the 3x3 stride-1 conv
#: shapes of ResNet-18 and AlexNet's conv3.  A cell that is a benchmark
#: layer is that layer, measured once.
NATIVE_PAIRS = ("w1a1", "w1a2", "w2a2", "w1a4", "w2a4", "w4a4", "w2a8")
NATIVE_SHAPES = [
    shape for shape in RESNET18
    if isinstance(shape, ConvShape) and shape.kernel == 3 and shape.stride == 1
] + [ALEXNET[2]]
NATIVE_CONVS = [
    dataclasses.replace(shape, pair=pair)
    for shape in NATIVE_SHAPES for pair in NATIVE_PAIRS
]

#: Shapes whose fold is timed with a wider accumulator forced, for the
#: float64 and int64 multiply-add rates.
WIDE_FOLDS = [GemmShape("wide", "w2a4", 256, 256, 2048),
              GemmShape("wide", "w2a4", 1024, 64, 2048)]


@dataclass
class Samples:
    """Counted work and median times (µs) per primitive."""

    fold: list[tuple[tuple[float, ...], float]] = field(default_factory=list)
    wide: dict[str, list[tuple[GemmShape, float]]] = field(default_factory=dict)
    im2col: list[tuple[tuple[float, ...], float]] = field(default_factory=list)
    pack: list[tuple[tuple[float, ...], float]] = field(default_factory=list)
    gather: list[tuple[tuple[float, ...], float]] = field(default_factory=list)
    kernel: dict[int, list[tuple[tuple[float, ...], float]]] = field(
        default_factory=dict
    )
    vnni_weights: list[tuple[tuple[float, ...], float]] = field(default_factory=list)
    panels: list[tuple[tuple[float, ...], float]] = field(default_factory=list)
    vnni: list[tuple[tuple[float, ...], float]] = field(default_factory=list)
    #: measured whole-path µs: (shape, branch) -> path -> µs
    paths: dict[tuple[Any, int], dict[str, float]] = field(default_factory=dict)


def _medians_us(calls: dict[str, Callable[[], Any]],
                rounds: int = ROUNDS) -> dict[str, float]:
    """Median µs of each call over ``rounds`` rounds that run every call
    once, in alternating order: each call finds the caches the others
    left, as a forward's kernels do, not the ones its own last run left."""
    times: dict[str, list[float]] = {name: [] for name in calls}
    order = list(calls)
    for r in range(rounds):
        for name in order if r % 2 else order[::-1]:
            t0 = time.perf_counter()
            calls[name]()
            times[name].append(time.perf_counter() - t0)
    return {name: float(np.median(t)) * 1e6 for name, t in times.items()}


@contextmanager
def _swapped(owner: Any, name: str, value: Any) -> Iterator[None]:
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def _on(build: Any, fn: Callable[[], Any]) -> Callable[[], Any]:
    """``fn`` run with every cffi kernel taken from ``build``."""
    def call() -> Any:
        with _swapped(_backend_cffi, "_loaded", build):
            return fn()
    return call


def _precisions(pair: str) -> tuple[Precision, Precision]:
    p, q = _bits(pair)
    return Precision(p, Encoding.BIPOLAR), Precision(q, Encoding.UNSIGNED)


def _digits(rng: np.random.Generator, prec: Precision, shape) -> np.ndarray:
    return prec.random_digits(rng, shape).astype(np.uint8)


def _fold_work(w: np.ndarray, x: np.ndarray) -> tuple[float, ...]:
    (m, k), n = w.shape, x.shape[0]
    return (m * n * k, (m + n) * k, m * n)


def _pack_work(digits: np.ndarray, bits: int) -> tuple[float, ...]:
    rows, k = digits.shape
    blocks = -(-rows // max(1, packed._PACK_BLOCK // max(k, 1)))
    ragged = rows if k % 64 else 0
    return (bits * digits.size, bits * rows, bits * ragged, bits * blocks)


def _kernel_work(product: HostProduct, branch: int,
                 words: int) -> tuple[float, ...]:
    pairs = product.popcount_pairs(branch)
    return (pairs * words, pairs)


def measure_gemm(s: Samples, shape: GemmShape, builds: dict[int, Any]) -> None:
    wp, xp = _precisions(shape.pair)
    p, q = wp.bits, xp.bits
    rng = np.random.default_rng(0)
    w = _digits(rng, wp, (shape.m, shape.k))
    x = _digits(rng, xp, (shape.n, shape.k))
    w_words, x_words = _pack_planes(w, p), _pack_planes(x, q)
    calls = {
        "fold": lambda: matmul_path("fold", w, x, wp, xp, backend="numpy"),
        "pack w": lambda: _pack_planes(w, p),
        "pack x": lambda: _pack_planes(x, q),
    }
    for b, build in builds.items():
        calls[f"kernel {b}"] = _on(build, lambda: _popcount_matmul(
            w_words, x_words, wp, xp, shape.k, backend="cffi"))
        calls[f"popcount {b}"] = _on(build, lambda: matmul_path(
            "popcount", w, x, wp, xp, backend="cffi"))
    t = _medians_us(calls)
    s.fold.append((_fold_work(w, x), t["fold"]))
    s.pack += [(_pack_work(w, p), t["pack w"]), (_pack_work(x, q), t["pack x"])]
    product = shape.product()
    for b in builds:
        s.kernel.setdefault(b, []).append(
            (_kernel_work(product, b, packed_words(shape.k)), t[f"kernel {b}"]))
        s.paths[shape, b] = {"fold": t["fold"], "popcount": t[f"popcount {b}"]}


def measure_conv(s: Samples, shape: ConvShape, builds: dict[int, Any],
                 vnni: bool) -> None:
    wp, xp = _precisions(shape.pair)
    p, q = wp.bits, xp.bits
    rng = np.random.default_rng(0)
    kernel, stride, cin = shape.kernel, shape.stride, shape.cin
    w = _digits(rng, wp, (shape.cout, cin, kernel, kernel))
    x = _digits(rng, xp, (shape.batch, cin, shape.hw, shape.hw))
    product = shape.product()

    def layout() -> np.ndarray:  # unsigned features pad with digit 0
        return pad_channel_last(x, shape.padding, 0)

    # every path's operands, from the one map as the paths build them
    x_map = layout()
    w_flat, cols = conv_weight_matrix(w), im2col(x_map, kernel, stride)
    cwords = packed_words(cin)
    x_rows = x_map.reshape(-1, cin)
    w_rows = w_flat.reshape(-1, cin)
    map_words = _pack_planes(x_rows, q).reshape(
        q * shape.batch, *x_map.shape[1:3], cwords)
    gather = backends.kernel("conv_gather", "cffi")
    gathered = gather(map_words, kernel, kernel, stride)
    w_gather = _pack_planes(w_rows, p).reshape(p * shape.cout,
                                               kernel * kernel * cwords)
    calls = {
        "im2col": lambda: im2col(layout(), kernel, stride),
        "fold gemm": lambda: matmul_path("fold", w_flat, cols, wp, xp,
                                         backend="numpy"),
        "pack map": lambda: _pack_planes(x_rows, q),
        "pack w rows": lambda: _pack_planes(w_rows, p),
        "gather": lambda: gather(map_words, kernel, kernel, stride),
        "fold": lambda: matmul_path(
            "fold", conv_weight_matrix(w), im2col(layout(), kernel, stride),
            wp, xp, backend="numpy"),
    }
    for b, build in builds.items():
        calls[f"gather kernel {b}"] = _on(build, lambda: _popcount_matmul(
            w_gather, gathered, wp, xp, product.k, backend="cffi"))
        calls[f"gather path {b}"] = _on(build, lambda: packed_conv_matmul(
            w, layout(), wp, xp, stride=stride, backend="cffi"))
    vnni = vnni and product.int8_exact()
    if vnni:
        # the int8 kernels, on the host build
        w_panels = _vnni_weights(w, wp)
        panels = _backend_cffi._vnni_panels(x_map, kernel, stride)
        calls.update({
            "vnni weights": lambda: _vnni_weights(w, wp),
            "panels": lambda: _backend_cffi._vnni_panels(x_map, kernel, stride),
            "vnni gemm": lambda: _backend_cffi._vnni_gemm(
                w_panels, panels, product.m, product.n),
            "vnni path": lambda: vnni_conv_matmul(
                w, layout(), wp, xp, stride=stride, backend="cffi"),
        })
    t = _medians_us(calls)
    s.im2col.append(((x_map.size, x_map.size // cin, cols.size), t["im2col"]))
    s.fold.append((_fold_work(w_flat, cols), t["fold gemm"]))
    s.pack += [
        (_pack_work(x_rows, q), t["pack map"]),
        (_pack_work(w_rows, p), t["pack w rows"]),
    ]
    s.gather.append(((gathered.size, gathered.shape[0] * kernel),
                     t["gather"]))
    if vnni:
        s.vnni_weights.append(((product.m * product.k,), t["vnni weights"]))
        s.panels.append((_vnni_panel_work(product.n, product.k, kernel),
                         t["panels"]))
        s.vnni.append((_vnni_gemm_work(product.m, product.n, product.k),
                       t["vnni gemm"]))
    for b in builds:
        s.kernel.setdefault(b, []).append(
            (_kernel_work(product, b, kernel * kernel * cwords),
             t[f"gather kernel {b}"]))
        s.paths[shape, b] = {"fold": t["fold"], "gather": t[f"gather path {b}"]}
        if vnni:
            s.paths[shape, b]["vnni"] = t["vnni path"]


def measure_wide(s: Samples) -> None:
    """Folds with the float64 and the int64 accumulator forced."""
    rng = np.random.default_rng(0)
    for dtype, limit in packed._FOLD_ACCUMULATORS[1:]:
        for shape in WIDE_FOLDS:
            wp, xp = _precisions(shape.pair)
            w = _digits(rng, wp, (shape.m, shape.k))
            x = _digits(rng, xp, (shape.n, shape.k))
            with _swapped(packed, "_FOLD_ACCUMULATORS", ((dtype, limit),)):
                t = _medians_us({"fold": lambda: matmul_path(
                    "fold", w, x, wp, xp, backend="numpy")})
            s.wide.setdefault(np.dtype(dtype).name, []).append((shape, t["fold"]))


def nnls_relative(rows: Sequence[Sequence[float]],
                  times: Sequence[float]) -> list[float]:
    """Non-negative ``c`` minimizing ``sum(((rows @ c) - t) / t)**2``.

    Exhaustive over the subsets of the (few) columns: the unconstrained
    least-squares fit of each subset, keeping the best one whose
    coefficients are all positive.
    """
    a = np.asarray(rows, dtype=float) / np.asarray(times, dtype=float)[:, None]
    b = np.ones(len(times))
    best: tuple[float, list[float]] | None = None
    width = a.shape[1]
    for mask in itertools.product((False, True), repeat=width):
        cols = [i for i in range(width) if mask[i]]
        if not cols:
            continue
        coef, *_ = np.linalg.lstsq(a[:, cols], b, rcond=None)
        if (coef <= 0).any():
            continue
        resid = float(((a[:, cols] @ coef - b) ** 2).sum())
        if best is None or resid < best[0]:
            full = [0.0] * width
            for i, c in zip(cols, coef):
                full[i] = float(c)
            best = (resid, full)
    if best is None:
        raise ValueError("no positive fit")
    return best[1]


def _rate(coef: float) -> float:
    return 1.0 / coef if coef > 0 else float("inf")


def _ratios(samples, coef: Sequence[float]) -> list[float]:
    """Measured over fitted time of each ``(work, µs)`` sample."""
    return [t / float(np.dot(work, coef)) for work, t in samples]


def fit(s: Samples, base: HostRates = HOST_RATES
        ) -> tuple[HostRates, dict[str, list[float]]]:
    """Rates fitted to ``s``, and each primitive's measured / fitted
    times; a branch or the int8 kernels without samples keep ``base``'s
    rates."""
    quality: dict[str, list[float]] = {}

    def fitted(name: str, samples) -> list[float]:
        coef = nnls_relative(*zip(*samples))
        quality[name] = _ratios(samples, coef)
        return coef

    macs, operands, outputs = fitted("fold float32", s.fold)
    fold_macs = {"float32": _rate(macs)}
    for dtype, wide in s.wide.items():
        # the cast and output terms as fitted; the rest is the GEMM
        rest = [((sh.m * sh.n * sh.k,),
                 t - (sh.m + sh.n) * sh.k * operands - sh.m * sh.n * outputs)
                for sh, t in wide]
        (coef,) = fitted(f"fold {dtype} GEMM", rest)
        fold_macs[dtype] = _rate(coef)
    words = list(base.popcount_words)
    pair_words = list(base.popcount_pair_words)
    for branch, samples in s.kernel.items():
        per_word, per_pair = fitted(f"popcount GEMM, {BRANCH_NAMES[branch]}",
                                    samples)
        words[branch] = _rate(per_word)
        pair_words[branch] = per_pair / per_word
    layout, layout_pixel, windows = fitted("im2col", s.im2col)
    pack, pack_row, pack_ragged, pack_pass = fitted("pack", s.pack)
    gather, gather_run = fitted("gather", s.gather)
    rates = dataclasses.replace(
        base,
        fold_macs=fold_macs,
        fold_operands=_rate(operands),
        fold_outputs=_rate(outputs),
        layout_digits=_rate(layout),
        layout_pixel_digits=layout_pixel / layout,
        im2col_digits=_rate(windows),
        pack_digits=_rate(pack),
        pack_row_digits=pack_row / pack,
        pack_ragged_row_digits=pack_ragged / pack,
        pack_pass_digits=pack_pass / pack,
        gather_words=_rate(gather),
        gather_run_words=gather_run / gather,
        popcount_words=(words[0], words[1]),
        popcount_pair_words=(pair_words[0], pair_words[1]),
    )
    if s.vnni:
        (weights,) = fitted("vnni weights", s.vnni_weights)
        panel, panel_run = fitted("panel writer", s.panels)
        quads, output = fitted("VNNI GEMM", s.vnni)
        rates = dataclasses.replace(
            rates,
            vnni_weight_digits=_rate(weights),
            panel_bytes=_rate(panel),
            panel_run_bytes=panel_run / panel,
            vnni_quads=_rate(quads),
            vnni_output_quads=output / quads,
        )
    return rates, quality


def quality_table(quality: dict[str, list[float]]) -> list[str]:
    lines = ["| primitive | samples | measured / fitted: min | median | max |",
             "|---|---|---|---|---|"]
    for name, ratios in quality.items():
        lines.append(f"| {name} | {len(ratios)} | {min(ratios):.2f} | "
                     f"{float(np.median(ratios)):.2f} | {max(ratios):.2f} |")
    return lines


def _sig(x: float) -> str:
    return f"{float(f'{x:.4g}')!r}"


def rates_literal(rates: HostRates) -> str:
    """``rates`` as the ``HOST_RATES = HostRates(...)`` source line."""
    lines = ["HOST_RATES = HostRates("]
    for f in dataclasses.fields(rates):
        value = getattr(rates, f.name)
        if isinstance(value, Mapping):
            text = "{" + ", ".join(
                f'"{k}": {_sig(v)}' for k, v in value.items()) + "}"
        elif isinstance(value, tuple):
            text = "(" + ", ".join(_sig(v) for v in value) + ")"
        else:
            text = _sig(value)
        lines.append(f"    {f.name}={text},")
    return "\n".join(lines + [")"])


def swept_bits_rule(product: HostProduct, words: int) -> bool:
    """The rule the model replaced: popcount where ``p*q*64*words <= 2*K``."""
    return product.p_bits * product.q_bits * 64 * words <= 2 * product.k


BRANCH_NAMES = {1: "micro-kernel", 0: "loop nest"}


def _crossover(s: Samples, rates: HostRates, branch: int, shape,
               other: str, words: int) -> tuple[str, bool, bool]:
    """One cell: fold time over ``other``'s time, bold where the model
    takes ``other``; and whether the model and the swept-bits rule put
    it on the faster side."""
    product = shape.product()
    t = s.paths[shape, branch]
    faster = t["fold"] > t[other]
    model = product.host_us(other, branch, rates) < product.host_us(
        "fold", branch, rates)
    ratio = t["fold"] / t[other]
    cell = f"**{ratio:.2f}**" if model else f"{ratio:.2f}"
    return cell, model == faster, swept_bits_rule(product, words) == faster


def readme_tables(s: Samples, rates: HostRates,
                  branches: Sequence[int]) -> list[str]:
    """The crossover tables, and how many cells each rule gets right."""
    head = " | ".join(f"{BRANCH_NAMES[b]} N = " + " | ".join(map(str, README_GEMM_N))
                      for b in branches)
    lines = [f"| GEMM, M = K = 2048 | {head} |",
             "|---|" + "---|" * len(README_GEMM_N) * len(branches)]
    tallies = []
    hits = {b: [0, 0] for b in branches}
    for pair in README_PAIRS:
        cells = []
        for b in branches:
            for n in README_GEMM_N:
                shape = GemmShape(f"gemm-{pair}-n{n}", pair, 2048, n, 2048)
                cell, model, old = _crossover(s, rates, b, shape, "popcount",
                                              packed_words(2048))
                cells.append(cell)
                hits[b][0] += model
                hits[b][1] += old
        p, q = _bits(pair)
        lines.append(f"| {pair} (p·q {p * q}) | " + " | ".join(cells) + " |")
    for b in branches:
        tallies.append(f"GEMM, {BRANCH_NAMES[b]}: the model takes the faster "
                       f"side in {hits[b][0]} of {len(README_GEMMS)} cells, "
                       f"the swept-bits rule in {hits[b][1]}")
    for b in branches:
        lines += ["", f"| conv 3x3, 15x15 unpadded, batch 8, C_out 128, "
                  f"{BRANCH_NAMES[b]}: fold / gather | C_in "
                  + " | ".join(map(str, README_CONV_CIN)) + " |",
                  "|---|" + "---|" * len(README_CONV_CIN)]
        model_hits = old_hits = 0
        for pair in README_PAIRS:
            cells = []
            for cin in README_CONV_CIN:
                shape = ConvShape(f"conv-{pair}-c{cin}", pair, 8, cin, 128,
                                  15, 3)
                cell, model, old = _crossover(s, rates, b, shape, "gather",
                                              9 * packed_words(cin))
                cells.append(cell)
                model_hits += model
                old_hits += old
            lines.append(f"| {pair} | " + " | ".join(cells) + " |")
        tallies.append(f"conv, {BRANCH_NAMES[b]}: the model takes the faster "
                       f"side in {model_hits} of {len(README_CONVS)} cells, "
                       f"the swept-bits rule in {old_hits}")
    return lines + [""] + [f"- {t}" for t in tallies]


def configs(branches: Sequence[int], vnni: bool) -> list[tuple[int, bool]]:
    """The builds the model routes for: each branch, with and without
    the int8 kernels where this host has them."""
    return [(b, v) for b in branches for v in ((True, False) if vnni else (False,))]


def config_name(config: tuple[int, bool]) -> str:
    branch, vnni = config
    return BRANCH_NAMES[branch] + (" + VNNI" if vnni else "")


def route(product: HostProduct, config: tuple[int, bool],
          rates: HostRates) -> str:
    """The model's route for ``product`` on ``config`` under ``rates``."""
    branch, vnni = config
    return min(product.paths(branch, vnni),
               key=lambda path: product.host_us(path, branch, rates))


def layer_table(s: Samples, rates: HostRates, builds: Sequence[tuple[int, bool]],
                network: str, shapes: Sequence[GemmShape | ConvShape]) -> list[str]:
    """Per layer: measured ms per path, and per build the model's route
    with its measured / modeled time and its measured time over the
    fastest measured path the build can run."""
    branches = sorted({b for b, _ in builds}, reverse=True)
    lines = [f"| {network} | fold ms | "
             + " | ".join(f"popcount or gather ms, {BRANCH_NAMES[b]}"
                          for b in branches)
             + " | vnni ms | "
             + " | ".join(f"{config_name(c)}: route, measured / modeled, "
                          "over fastest" for c in builds) + " |",
             "|---|" + "---|" * (2 + len(branches) + len(builds))]
    for shape in shapes:
        product = shape.product()
        other = "gather" if isinstance(shape, ConvShape) else "popcount"
        cells = [f"{s.paths[shape, branches[0]]['fold'] / 1e3:.2f}"]
        cells += [f"{s.paths[shape, b][other] / 1e3:.2f}" for b in branches]
        vnni_us = s.paths[shape, branches[0]].get("vnni")
        cells.append("—" if vnni_us is None else f"{vnni_us / 1e3:.2f}")
        for config in builds:
            t = s.paths[shape, config[0]]
            taken = route(product, config, rates)
            fastest = min(t[path] for path in product.paths(*config))
            cells.append(
                f"{taken} {t[taken] / product.host_us(taken, config[0], rates):.2f}"
                f" / {t[taken] / fastest:.2f}")
        lines.append(f"| {shape.name} | " + " | ".join(cells) + " |")
    return lines


def native_table(s: Samples, rates: HostRates, branch: int) -> list[str]:
    """Emulation against native int8 on ``branch`` with VNNI: the
    gather's speedup over the int8 path (vnni time over gather time) per
    pair and shape, bold where the model takes the gather."""
    lines = ["| conv shape, batch | " + " | ".join(
        f"{pair} (p·q {_bits(pair)[0] * _bits(pair)[1]})"
        for pair in NATIVE_PAIRS) + " |",
        "|---|" + "---|" * len(NATIVE_PAIRS)]
    hits = 0
    for base in NATIVE_SHAPES:
        cells = []
        for pair in NATIVE_PAIRS:
            shape = dataclasses.replace(base, pair=pair)
            t = s.paths[shape, branch]
            speedup = t["vnni"] / t["gather"]
            taken = route(shape.product(), (branch, True), rates)
            cells.append(f"**{speedup:.2f}**" if taken == "gather"
                         else f"{speedup:.2f}")
            hits += (taken == "gather") == (speedup > 1)
        lines.append(f"| {base.name} @{base.hw}, b{base.batch} | "
                     + " | ".join(cells) + " |")
    return lines + ["", f"- {BRANCH_NAMES[branch]} + VNNI: the model takes "
                    f"the faster of the two in {hits} of {len(NATIVE_CONVS)} "
                    "cells"]


def builds(directory: Path) -> dict[int, Any]:
    """The loaded build of each popcount branch this host can run."""
    host = _backend_cffi._build()
    found = {int(host.lib.repro_popcount_branch()): host}
    if 0 not in found:
        try:
            found[0] = _backend_cffi.loop_nest_build(directory)
        except Exception as exc:  # no x86-64-v3, or gcc rejected the flags
            print(f"no loop-nest build ({type(exc).__name__}: {exc}); "
                  "branch 0 keeps its committed rates", file=sys.stderr)
    return dict(sorted(found.items(), reverse=True))


def main() -> int:
    if not backends.get_backend().compiled:
        print("hostfit needs the cffi kernels", file=sys.stderr)
        return 2
    vnni = _backend_cffi.vnni_build()
    if not vnni:
        print("no AVX-512 VNNI build: the int8 rates keep their committed "
              "values", file=sys.stderr)
    samples = Samples()
    convs = README_CONVS + [s for s in ALEXNET + RESNET18
                            if isinstance(s, ConvShape)]
    if vnni:
        convs += [s for s in NATIVE_CONVS if s not in convs]
    with tempfile.TemporaryDirectory() as tmp:
        loaded = builds(Path(tmp))
        for gemm in README_GEMMS + [s for s in ALEXNET + RESNET18
                                    if isinstance(s, GemmShape)]:
            measure_gemm(samples, gemm, loaded)
        for conv in convs:
            measure_conv(samples, conv, loaded, vnni)
        measure_wide(samples)
    rates, quality = fit(samples)
    branches = list(loaded)
    print("## Fitted host rates\n\n```python")
    print(rates_literal(rates))
    print("```\n")
    print("\n".join(quality_table(quality)))
    print("\n## README crossover cells\n")
    print("\n".join(readme_tables(samples, rates, branches)))
    if vnni:
        print("\n## Emulation against native int8: gather speedup over vnni\n")
        print("\n".join(native_table(samples, rates, branches[0])))
    for network, shapes in (("AlexNet-w1a2", ALEXNET),
                            ("ResNet-18-w2a4", RESNET18)):
        print(f"\n## {network} layers\n")
        print("\n".join(layer_table(samples, rates, configs(branches, vnni),
                                     network, shapes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
