"""Core value types for arbitrary-precision computation.

The paper's emulation design (APNN-TC, SC '21, section 3) operates on integer
matrices whose elements occupy ``bits`` binary digits, together with an
*encoding* that says which real values those digits stand for:

* :attr:`Encoding.UNSIGNED` -- plain non-negative binary integers; a value
  ``v`` with ``b`` bits lies in ``[0, 2**b - 1]``.  This is the encoding of
  quantized activations (Case I / Case III features in the paper).
* :attr:`Encoding.BIPOLAR` -- each *bit-plane* digit ``d in {0, 1}`` encodes
  the value ``2*d - 1 in {-1, +1}``.  A ``b``-bit bipolar scalar therefore
  represents ``sum_s 2**s * (2*d_s - 1)``, which for ``b == 1`` is the classic
  binary-neural-network weight encoding of {-1, +1}.

The :class:`Precision` dataclass packages bit-width and encoding together and
supplies the value range, decoding helpers and a stable string form such as
``"w1a2"`` used throughout kernels, benchmarks and reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Encoding",
    "Precision",
    "PrecisionPair",
    "MAX_BITS",
    "digit_dtype",
]

#: Largest bit-width the emulation templates accept.  The paper evaluates up
#: to 8 bits; the algebra works for more, but the int32 accumulator of the
#: Tensor-Core primitive bounds safe combinations (see ``emulate.py``).
MAX_BITS = 16


def digit_dtype(bits: int) -> np.dtype:
    """Narrowest unsigned dtype that holds ``2**bits`` digit levels.

    ``uint8`` up to 8 bits and ``uint16`` up to 16, so a q-bit operand
    moves at most ``max(8, q)`` bits per digit; wider grids (which
    :class:`~repro.core.quantize.AffineQuantizer` accepts) stay
    ``int64``.
    """
    if bits <= 8:
        return np.dtype(np.uint8)
    if bits <= 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


class Encoding(enum.Enum):
    """How the binary digits of a value map to arithmetic values."""

    UNSIGNED = "unsigned"
    BIPOLAR = "bipolar"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Precision:
    """Bit-width plus encoding of one operand.

    Parameters
    ----------
    bits:
        Number of binary digits per element, ``1 <= bits <= MAX_BITS``.
    encoding:
        How digits map to values; see :class:`Encoding`.
    """

    bits: int
    encoding: Encoding = Encoding.UNSIGNED

    def __post_init__(self) -> None:
        if not isinstance(self.bits, (int, np.integer)):
            raise TypeError(f"bits must be an int, got {type(self.bits).__name__}")
        if not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"bits must be in [1, {MAX_BITS}], got {self.bits}")
        if not isinstance(self.encoding, Encoding):
            raise TypeError("encoding must be an Encoding")

    # ------------------------------------------------------------------
    # value range & decoding
    # ------------------------------------------------------------------
    @property
    def num_levels(self) -> int:
        """Number of representable levels (``2**bits``)."""
        return 1 << self.bits

    @property
    def min_value(self) -> int:
        """Smallest representable arithmetic value."""
        if self.encoding is Encoding.UNSIGNED:
            return 0
        # all bit-planes at digit 0 -> each contributes -2**s
        return -(self.num_levels - 1)

    @property
    def max_value(self) -> int:
        """Largest representable arithmetic value."""
        return self.num_levels - 1

    @property
    def decode_affine(self) -> tuple[int, int]:
        """``(a, b)`` with ``decode(d) == a*d + b`` for every digit ``d``.

        ``(1, 0)`` for :attr:`Encoding.UNSIGNED`.  For
        :attr:`Encoding.BIPOLAR` each bit-plane digit ``d_s`` contributes
        ``2**s * (2*d_s - 1)``, which collapses to ``(2, -(2**bits - 1))``.
        """
        if self.encoding is Encoding.UNSIGNED:
            return 1, 0
        return 2, -(self.num_levels - 1)

    def decode(self, digits: np.ndarray) -> np.ndarray:
        """Map raw digit words (``[0, 2**bits)``) to int64 arithmetic
        values through :attr:`decode_affine`."""
        digits = np.asarray(digits)
        if digits.size and (digits.min() < 0 or digits.max() >= self.num_levels):
            raise ValueError(
                f"digits out of range for {self.bits}-bit precision: "
                f"[{digits.min()}, {digits.max()}]"
            )
        a, b = self.decode_affine
        values = digits.astype(np.int64)
        if (a, b) != (1, 0):
            values = a * values + b
        return values

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`decode`; validates representability."""
        values = np.asarray(values, dtype=np.int64)
        if self.encoding is Encoding.UNSIGNED:
            digits = values
        else:
            shifted = values + (self.num_levels - 1)
            if np.any(shifted % 2 != 0):
                raise ValueError(
                    "bipolar values must have the parity of the encoding; "
                    f"got values like {values.ravel()[:4]} for bits={self.bits}"
                )
            digits = shifted // 2
        if digits.size and (digits.min() < 0 or digits.max() >= self.num_levels):
            raise ValueError(
                f"values not representable at {self}: range "
                f"[{values.min()}, {values.max()}]"
            )
        return digits

    def random_digits(
        self, rng: np.random.Generator, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Uniform random raw digits for testing/benchmarks."""
        return rng.integers(0, self.num_levels, size=shape, dtype=np.int64)

    def __str__(self) -> str:
        tag = "u" if self.encoding is Encoding.UNSIGNED else "b"
        return f"int{self.bits}{tag}"


@dataclass(frozen=True)
class PrecisionPair:
    """A (weight, activation) precision pair, e.g. ``w1a2``.

    The paper names kernels ``APMM-wXaY`` where ``X`` is the weight bit-width
    and ``Y`` the activation bit-width.  Weights default to bipolar encoding
    (the common choice for quantized NNs, and the one that exercises the
    paper's Case II/III operator selection); activations default to unsigned.
    """

    weight: Precision
    activation: Precision

    @classmethod
    def parse(cls, name: str) -> "PrecisionPair":
        """Parse names like ``"w1a2"`` into a :class:`PrecisionPair`.

        Weight encoding is bipolar, activation unsigned -- matching the
        paper's NN configuration (section 3.2, Case III).
        """
        name = name.strip().lower()
        if not name.startswith("w") or "a" not in name:
            raise ValueError(f"cannot parse precision pair from {name!r}")
        w_part, a_part = name[1:].split("a", 1)
        try:
            w_bits, a_bits = int(w_part), int(a_part)
        except ValueError as exc:
            raise ValueError(f"cannot parse precision pair from {name!r}") from exc
        return cls(
            weight=Precision(w_bits, Encoding.BIPOLAR),
            activation=Precision(a_bits, Encoding.UNSIGNED),
        )

    @property
    def name(self) -> str:
        return f"w{self.weight.bits}a{self.activation.bits}"

    @property
    def plane_product(self) -> int:
        """Number of 1-bit BMMA passes the emulation performs (``p*q``)."""
        return self.weight.bits * self.activation.bits

    def __str__(self) -> str:
        return self.name
