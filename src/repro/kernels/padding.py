"""Input-aware padding design (paper section 4.2b).

Convolution pads the feature map border, but at 1-bit granularity the
padding *digit* is not automatically the neutral value 0: under the
bipolar encoding the digit 0 means the value -1.  The paper's three
strategies, keyed by operand encodings:

1. **both unsigned** -- pad digit 0 (value 0); neutral, no correction;
2. **both bipolar** -- pad digit 1 (value +1) and track, per output
   position, how much the padded lanes contributed; amend afterwards;
3. **bipolar weight x unsigned feature** -- pad digit 0 (value 0);
   the Case-III correction (``-J*X`` uses the feature's window sum) is
   unaffected because a zero value adds nothing to either term.

We add the symmetric fourth case (unsigned weight x bipolar feature) for
completeness: pad digit 1 (+1) with the same counter correction.

The correction is exact: for pad value ``v`` the padded lanes contribute
``v * sum(W over out-of-frame taps)`` to each output pixel, which equals
``v`` times the cross-correlation of the pad-indicator mask with the
decoded weights.  The paper's "counter" realizes the same amendment for
its +-1 weights; computing the masked weight sum keeps the design exact
for every ``p``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import cores
from ..core.opselect import EmulationCase, classify
from ..core.types import Precision

__all__ = ["PaddingPlan", "plan_padding", "pad_digits", "padding_correction"]


@dataclass(frozen=True)
class PaddingPlan:
    """Resolved padding strategy for one (weight, feature) encoding pair."""

    case: EmulationCase
    pad_digit: int
    pad_value: int
    needs_correction: bool

    @property
    def strategy(self) -> str:
        if not self.needs_correction:
            return f"pad-{self.pad_digit}"
        return f"pad-{self.pad_digit}+counter"


def plan_padding(weight: Precision, feature: Precision) -> PaddingPlan:
    """Choose the padding strategy from the operand encodings."""
    case = classify(weight, feature)
    if case is EmulationCase.CASE_I or case is EmulationCase.CASE_III:
        # unsigned features: digit 0 is the value 0 -- truly neutral.
        return PaddingPlan(case, pad_digit=0, pad_value=0, needs_correction=False)
    # bipolar features: no digit encodes 0.  Pad +1 (all bit-planes set,
    # i.e. the max digit) and amend with the counter correction.
    pad_digit = feature.num_levels - 1
    pad_value = int(feature.decode(np.array([pad_digit]))[0])
    return PaddingPlan(case, pad_digit=pad_digit, pad_value=pad_value,
                       needs_correction=True)


def pad_digits(x: np.ndarray, padding: int, pad_digit: int) -> np.ndarray:
    """Spatially pad an (N, C, H, W) digit tensor with a constant digit."""
    if x.ndim != 4:
        raise ValueError(f"expected 4-D NCHW digits, got shape {x.shape}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if padding == 0:
        return x
    # widen narrow digits to hold the constant, so a bipolar max digit
    # (2**bits - 1) cannot wrap
    dtype = np.promote_types(x.dtype, np.min_scalar_type(pad_digit))
    n, c, h, w = x.shape
    p = padding
    out = np.empty((n, c, h + 2 * p, w + 2 * p), dtype=dtype)

    def part(lo: int, hi: int) -> None:  # images lo .. hi-1
        frame = out[lo:hi]
        frame[:, :, :p] = pad_digit
        frame[:, :, p + h:] = pad_digit
        frame[:, :, p:p + h, :p] = pad_digit
        frame[:, :, p:p + h, p + w:] = pad_digit
        frame[:, :, p:p + h, p:p + w] = x[lo:hi]

    cores.split(n, part, out.size * cores.ELEMENT_US)
    return out


def padding_correction(
    w_values: np.ndarray,
    height: int,
    width: int,
    padding: int,
    stride: int,
    pad_value: int,
) -> np.ndarray:
    """Contribution of the padded lanes to each output pixel.

    Parameters
    ----------
    w_values:
        Decoded weights, shape ``(C_out, C_in, KH, KW)``.
    height, width:
        *Unpadded* input spatial dims.
    padding, stride:
        Convolution geometry.
    pad_value:
        The arithmetic value the padding digit decodes to.

    Returns
    -------
    np.ndarray
        ``(C_out, OH, OW)`` int64; subtract from the padded-convolution
        output to recover zero-padding semantics:
        ``y_true = y_padded - correction``.
    """
    if w_values.ndim != 4:
        raise ValueError(f"expected (C_out, C_in, KH, KW) weights, got {w_values.shape}")
    cout, cin, kh, kw = w_values.shape
    if pad_value == 0 or padding == 0:
        oh = (height + 2 * padding - kh) // stride + 1
        ow = (width + 2 * padding - kw) // stride + 1
        return np.zeros((cout, oh, ow), dtype=np.int64)

    mask = np.ones((height + 2 * padding, width + 2 * padding), dtype=np.int64)
    mask[padding: padding + height, padding: padding + width] = 0
    windows = np.lib.stride_tricks.sliding_window_view(mask, (kh, kw))
    windows = windows[::stride, ::stride]  # (OH, OW, KH, KW)
    # The mask is channel-independent, so sum weights over C_in first.
    w_spatial = w_values.sum(axis=1, dtype=np.int64)  # (C_out, KH, KW)
    corr = np.einsum("xykl,ckl->cxy", windows, w_spatial)
    return pad_value * corr
