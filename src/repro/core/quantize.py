"""Quantizers used by APNN layers and quantization-aware training.

The paper (sections 2.1 and 5.1) follows LQ-Nets: start from a
full-precision network and quantize with a *quantization error minimization*
(QEM) strategy.  At inference time, layers apply the affine quantization
``y = floor((x - z) / s)`` clamped to the q-bit range (section 5.2).

This module implements:

* :class:`AffineQuantizer` -- the inference-time quantization op with
  zero-point ``z`` and scale ``s`` (paper section 5.2);
* :func:`binarize` -- sign binarization to the bipolar {-1,+1} encoding with
  the mean-absolute scale of BinaryConnect/XNOR-style weights;
* :class:`QEMQuantizer` -- LQ-Nets-flavoured quantization error minimization:
  alternates between assignment and closed-form scale updates to minimize
  ``||x - s * Q(x/s)||^2`` for a symmetric (bipolar) or unsigned grid.

All quantizers return *digits* (raw codes) plus the float parameters needed
to decode, so the integer kernels can run on digits while accuracy
evaluation can reconstruct real values.  The weight quantizers,
:func:`binarize` and :meth:`QEMQuantizer.fit`, return read-only digits
that :mod:`repro.core.prepared` registers, so the kernels do each
weight's range scan and packing once, on first use.

Digits are stored in :func:`~repro.core.types.digit_dtype` of their bit
width -- ``uint8`` up to 8 bits, ``uint16`` up to 16, ``int64`` above --
so a q-bit operand moves no more than the bytes it needs (the paper's
minimal-traffic dataflow, section 5.1).  The kernels keep that dtype
through padding, im2col and packing; decoding
(:meth:`~repro.core.types.Precision.decode`) and every accumulator are
int64.  Arithmetic on digits must widen first: unsigned differences
wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cores, prepared
from .types import Encoding, Precision, digit_dtype

__all__ = [
    "STREAM_CHUNK",
    "AffineQuantizer",
    "QEMQuantizer",
    "QuantizedTensor",
    "binarize",
]

#: Elements per streamed pass over a weight, 4 MiB of float64:
#: :func:`binarize` and the Kaiming draw (:mod:`repro.nn.layers`) hold
#: one such float64 chunk at a time, never a float64 copy of a weight.
STREAM_CHUNK = 1 << 19

#: Full-size passes of :meth:`AffineQuantizer.quantize`: divide, floor,
#: maximum, minimum and the cast.
_QUANTIZE_PASSES = 5


@dataclass
class QuantizedTensor:
    """Digits plus decode parameters: ``values ~= scale * decoded``."""

    digits: np.ndarray
    precision: Precision
    scale: float

    def dequantize(self) -> np.ndarray:
        """Reconstruct approximate real values."""
        return self.scale * self.precision.decode(self.digits)


@dataclass(frozen=True)
class AffineQuantizer:
    """Inference-time affine quantization ``y = floor((x - z)/s)``, clamped.

    Matches paper section 5.2: ``z`` is the zero-point, ``s`` the scale and
    the output digits occupy ``bits`` unsigned bits.
    """

    bits: int
    scale: float
    zero_point: float = 0.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")

    @property
    def precision(self) -> Precision:
        return Precision(self.bits, Encoding.UNSIGNED)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Real values -> unsigned digits in ``[0, 2**bits - 1]``.

        ``floor((x - z) / s)`` in float64, clamped, then cast: each part
        of the split along axis 0 (:func:`repro.core.cores.split`) runs
        these steps in place on one float64 buffer of its own, and the
        digits keep ``x``'s memory order.  Subtracting a zero point of
        +0.0 is the IEEE identity, so it is skipped.
        """
        x = np.asarray(x)
        rows = x.reshape(1) if x.ndim == 0 else x
        out = np.empty_like(rows, dtype=digit_dtype(self.bits))
        top = (1 << self.bits) - 1

        def part(lo: int, hi: int) -> None:
            work = np.empty_like(rows[lo:hi], dtype=np.float64)
            if self.zero_point:
                np.subtract(rows[lo:hi], self.zero_point, out=work,
                            dtype=np.float64)
                np.divide(work, self.scale, out=work)
            else:
                np.divide(rows[lo:hi], self.scale, out=work, dtype=np.float64)
            np.floor(work, out=work)
            # maximum-then-minimum is np.clip, without its generic loop
            np.maximum(work, 0, out=work)
            np.minimum(work, top, out=work)
            out[lo:hi] = work

        cores.split(len(rows), part, _QUANTIZE_PASSES * rows.size * cores.ELEMENT_US)
        return out.reshape(x.shape)

    def dequantize(self, digits: np.ndarray) -> np.ndarray:
        """Unsigned digits -> approximate real values."""
        return np.asarray(digits, dtype=np.float64) * self.scale + self.zero_point

    @classmethod
    def from_range(cls, lo: float, hi: float, bits: int) -> "AffineQuantizer":
        """Quantizer covering ``[lo, hi]`` with ``2**bits`` levels."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        scale = (hi - lo) / ((1 << bits) - 1)
        return cls(bits=bits, scale=scale, zero_point=lo)

    @classmethod
    def from_data(cls, x: np.ndarray, bits: int) -> "AffineQuantizer":
        """Min/max-calibrated quantizer for a sample tensor."""
        x = np.asarray(x, dtype=np.float64)
        lo, hi = float(x.min()), float(x.max())
        if hi <= lo:
            hi = lo + 1.0
        return cls.from_range(lo, hi, bits)


def binarize(x: np.ndarray) -> QuantizedTensor:
    """Sign binarization to bipolar digits with mean-|x| scaling.

    ``x ~= alpha * sign(x)`` with ``alpha = mean(|x|)`` -- the classic BNN
    weight binarization the paper's Case II/III inputs come from.  Zeros map
    to +1 (digit 1) so every element is representable in one bipolar bit.
    The digits are read-only and prepared (:mod:`repro.core.prepared`).

    One pass streams ``x`` in float64 chunks of at most
    :data:`STREAM_CHUNK` elements: each chunk's signs go straight into
    the digits and its ``|x|`` is summed in numpy's pairwise order, so
    ``alpha`` equals ``np.mean(np.abs(x.astype(np.float64)))`` bit for
    bit while no float64 copy of the whole weight exists.  The caller's
    array is never written.  ``x`` is read in C order: an input that is
    not C-contiguous is first copied once in its own dtype, its digits
    come back C-contiguous, and its ``alpha`` is the mean in C order,
    which for a Fortran-ordered or transposed input can differ in the
    last bit from ``np.mean``'s memory-order sum.  An empty input gets
    ``alpha`` 1.0.
    """
    x = np.asarray(x)
    flat = x.reshape(-1)  # a view when x is C-contiguous
    digits = np.empty(x.shape, dtype=digit_dtype(1))
    signs = digits.reshape(-1).view(np.bool_)
    n = flat.size
    alpha = float(_stream_abs_sum(flat, signs, 0, n) / n) if n else 1.0
    if alpha == 0.0:
        alpha = 1.0
    return QuantizedTensor(
        digits=prepared.freeze(digits),
        precision=Precision(1, Encoding.BIPOLAR),
        scale=alpha,
    )


def _stream_abs_sum(
    flat: np.ndarray, signs: np.ndarray, lo: int, hi: int
) -> np.float64:
    """The float64 sum of ``|flat[lo:hi]|``, with ``flat[lo:hi] >= 0``
    written into ``signs[lo:hi]`` on the way.

    numpy's float64 ``add.reduce`` of a contiguous run splits it at half
    its length, rounded down to a multiple of 8, down to blocks of 128,
    and adds the halves' sums.  This makes the same splits until a range
    fits in one chunk and lets numpy sum that chunk, so the total is
    numpy's sum of the whole float64 copy, bit for bit.
    """
    n = hi - lo
    if n > STREAM_CHUNK:
        half = n // 2
        half -= half % 8
        return (_stream_abs_sum(flat, signs, lo, lo + half)
                + _stream_abs_sum(flat, signs, lo + half, hi))
    chunk = flat[lo:hi].astype(np.float64)
    np.greater_equal(chunk, 0, out=signs[lo:hi])
    return np.add.reduce(np.abs(chunk, out=chunk))


class QEMQuantizer:
    """Quantization-error-minimizing scale search (LQ-Nets style).

    Finds ``s`` minimizing ``||x - s * decode(Q(x/s))||^2`` where ``Q``
    projects onto the digit grid of ``precision``.  Uses the standard
    alternating scheme: with assignments ``v = decode(Q(x/s))`` fixed, the
    optimal scale is ``s* = <x, v> / <v, v>``; iterate to a fixed point.

    Parameters
    ----------
    precision:
        Target grid.  Bipolar grids are symmetric (odd integers around 0 for
        multi-bit), unsigned grids are ``{0..2**b - 1}``.
    iters:
        Alternation steps; convergence is typically < 10.
    """

    def __init__(self, precision: Precision, iters: int = 25) -> None:
        if iters < 1:
            raise ValueError(f"iters must be >= 1, got {iters}")
        self.precision = precision
        self.iters = iters

    def _project(
        self,
        x: np.ndarray,
        scale: float = 1.0,
        work: np.ndarray | None = None,
    ) -> np.ndarray:
        """Project ``x / scale`` onto the digit grid, returning digits.

        ``work`` (float64, ``x``'s shape) ends holding the digits as
        float64 -- small integers, exact -- which :meth:`fit` decodes
        without a range scan.
        """
        prec = self.precision
        if work is None:
            work = np.empty(np.shape(x))
        np.divide(x, scale, out=work)
        if prec.encoding is Encoding.BIPOLAR:
            # bipolar levels are 2*d - (2**b - 1): odd-spaced grid, step 2,
            # so d = rint((y + L - 1) / 2) for y = x / scale, taken as
            # ((y + L) - 1) / 2, the order that expression evaluates in
            np.add(work, prec.num_levels, out=work)
            np.subtract(work, 1, out=work)
            np.divide(work, 2.0, out=work)
        np.rint(work, out=work)
        # maximum-then-minimum is np.clip on finite values, without its
        # slower generic loop
        np.maximum(work, 0, out=work)
        np.minimum(work, prec.num_levels - 1, out=work)
        return work.astype(digit_dtype(prec.bits))

    def fit(self, x: np.ndarray) -> QuantizedTensor:
        """Quantize ``x`` with an error-minimizing scale.

        The digits are read-only and prepared (:mod:`repro.core.prepared`).
        The alternation's dot products run with numpy's OpenBLAS held at
        one thread (:func:`repro.core.cores.hold_blas`): OpenBLAS splits
        a long sum by its thread count, so otherwise the scale's last bit
        would follow the host's CPU count.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.size == 0:
            return QuantizedTensor(
                digits=prepared.freeze(
                    np.zeros_like(x, dtype=digit_dtype(self.precision.bits))
                ),
                precision=self.precision,
                scale=1.0,
            )
        max_level = max(abs(self.precision.min_value), self.precision.max_value, 1)
        scale = float(np.max(np.abs(x))) / max_level if np.any(x) else 1.0
        if scale == 0.0:
            scale = 1.0
        a, b = self.precision.decode_affine
        flat = x.ravel()
        work = np.empty(x.shape)
        decoded = np.empty(x.size)
        digits = self._project(x, scale, work)
        with cores.hold_blas():
            for _ in range(self.iters):
                # decode(digits) in float64: work holds the digits, a*d + b
                # is exact, and they are in range by construction
                np.multiply(work.ravel(), a, out=decoded)
                np.add(decoded, b, out=decoded)
                denom = float(np.dot(decoded, decoded))
                if denom == 0.0:
                    break
                new_scale = float(np.dot(flat, decoded)) / denom
                if new_scale <= 0.0:
                    break
                new_digits = self._project(x, new_scale, work)
                if new_scale == scale and np.array_equal(new_digits, digits):
                    break
                scale, digits = new_scale, new_digits
        return QuantizedTensor(
            digits=prepared.freeze(digits), precision=self.precision, scale=scale
        )

    def error(self, x: np.ndarray) -> float:
        """Mean-squared quantization error at the fitted scale."""
        qt = self.fit(x)
        return float(np.mean((np.asarray(x, dtype=np.float64) - qt.dequantize()) ** 2))

