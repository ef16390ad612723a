"""Core bit-level emulation algebra (paper section 3).

Public surface:

* value types: :class:`~repro.core.types.Precision`,
  :class:`~repro.core.types.Encoding`, :class:`~repro.core.types.PrecisionPair`
  and the digit storage dtype :func:`~repro.core.types.digit_dtype`
* bit primitives: :func:`~repro.core.bitops.bit_decompose`,
  :func:`~repro.core.bitops.bit_combine`, :func:`~repro.core.bitops.pack_bits`
* the AP-Bit template: :func:`~repro.core.emulate.apbit_matmul`
* the fold, the decoded-digit fast path: :func:`~repro.core.packed.packed_matmul`
* operator selection: :func:`~repro.core.opselect.select_operator`
* quantizers: :class:`~repro.core.quantize.AffineQuantizer`,
  :class:`~repro.core.quantize.QEMQuantizer`
"""

from .bitops import (
    WORD_BITS,
    bit_combine,
    bit_decompose,
    pack_bits,
    packed_words,
    popcount,
    popcount_reduce,
    unpack_bits,
)
from .emulate import apbit_matmul, apbit_matmul_planes, reference_matmul
from .opselect import EmulationCase, OperatorPlan, TCOp, classify, select_operator
from .packed import fold_exactness_bound, packed_matmul
from .quantize import AffineQuantizer, QEMQuantizer, QuantizedTensor, binarize
from .types import MAX_BITS, Encoding, Precision, PrecisionPair, digit_dtype

__all__ = [
    "WORD_BITS",
    "MAX_BITS",
    "Encoding",
    "Precision",
    "PrecisionPair",
    "digit_dtype",
    "bit_decompose",
    "bit_combine",
    "pack_bits",
    "unpack_bits",
    "packed_words",
    "popcount",
    "popcount_reduce",
    "apbit_matmul",
    "apbit_matmul_planes",
    "reference_matmul",
    "packed_matmul",
    "fold_exactness_bound",
    "EmulationCase",
    "OperatorPlan",
    "TCOp",
    "classify",
    "select_operator",
    "AffineQuantizer",
    "QEMQuantizer",
    "QuantizedTensor",
    "binarize",
]
