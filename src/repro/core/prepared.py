"""Prepared weights: the weight-side work of a product, done once.

A quantized weight never changes, so the work a kernel does on it -- the
digit range scan, a conv weight's channel-major matrix, the packed bit
planes -- returns the same bytes on every call.  APNN-TC treats
weights as fixed operands of its batched bit-plane product (§4.1); here
they are prepared once, in one table.

:func:`freeze` makes an array read-only and enters its owner in the
table; :func:`repro.core.quantize.binarize` and
:meth:`repro.core.quantize.QEMQuantizer.fit` freeze the digits they
return.  :func:`form` returns a registered array's form under a key,
made on its first use and kept, and makes the form afresh on every call
for any other array -- callers' own arrays, read-only or not, and every
activation.  Both cases run the same code and return the same bytes.

Which arrays are served.  The *owner* of an array is the array at the
end of its ``.base`` chain.  An array is served when its owner is
registered and still read-only, and when it covers the owner's bytes in
the owner's order: the same dtype and size, both C-contiguous.  So every
such view of one owner (the quantizer's read-only view, a reshape)
shares its forms, each keyed by the shape of the view it was made from
as well as by the caller's key.  An owner found writeable loses its
entry.  One case is unsupported: making the owner writeable through
``.base``, writing it and making it read-only again, with no lookup in
between, leaves its forms stale.

Lifetime.  An owner's entry goes when the owner does
(:class:`weakref.finalize`).  A kept form that is an array is frozen and
registered itself, so the forms of a form (the planes of a conv weight's
matrix) are kept as well.  A form that is a view of its own owner costs
nothing to make and is never kept, since keeping it would keep the owner
alive.

Threads.  Two threads that make one form at once make the same bytes,
and the table keeps one of them.  Nothing here takes a lock, so a part of
:func:`repro.core.cores.split` never waits on the table.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Hashable, TypeVar

import numpy as np

__all__ = ["form", "freeze"]

_T = TypeVar("_T")


class _Entry:
    """One registered owner: a weak reference to it and its kept forms."""

    __slots__ = ("owner", "forms")

    def __init__(self, owner: np.ndarray) -> None:
        self.owner = weakref.ref(owner)
        self.forms: dict[Hashable, Any] = {}


#: ``id(owner) -> entry`` for every registered owner still alive.
_table: dict[int, _Entry] = {}


def _owner(array: np.ndarray) -> np.ndarray:
    """The array at the end of ``array``'s ``.base`` chain."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def freeze(array: np.ndarray) -> np.ndarray:
    """Make ``array`` and its owner read-only, register the owner, and
    return a read-only view of ``array``.

    numpy refuses to make that view writeable again, because its base
    is read-only.
    """
    owner = _owner(array)
    owner.flags.writeable = False
    array.flags.writeable = False
    entry = _table.get(id(owner))
    if entry is None or entry.owner() is not owner:
        _table[id(owner)] = _Entry(owner)
        # no other object can take the owner's id before it is freed
        weakref.finalize(owner, _table.pop, id(owner), None).atexit = False
    return array.view()


def _entry(array: np.ndarray) -> _Entry | None:
    """The entry that serves ``array``, or None."""
    owner = _owner(array)
    entry = _table.get(id(owner))
    if entry is None or entry.owner() is not owner:
        return None
    if owner.flags.writeable:  # written through .base: forms may be stale
        _table.pop(id(owner), None)
        return None
    if (
        array.dtype != owner.dtype
        or array.size != owner.size
        or not (array.flags.c_contiguous and owner.flags.c_contiguous)
    ):
        return None
    return entry


def form(array: np.ndarray, key: Hashable, make: Callable[[], _T]) -> _T:
    """``make()``, kept under ``key`` and ``array``'s shape when
    ``array`` is prepared, and made afresh on every call otherwise.

    ``make`` must depend only on ``array``'s contents and shape and on
    ``key``.  A kept array is read-only.
    """
    entry = _entry(array)
    if entry is None:
        return make()
    full_key = (array.shape, key)
    try:
        return entry.forms[full_key]
    except KeyError:
        pass
    value: Any = make()
    if isinstance(value, np.ndarray):
        if _owner(value) is entry.owner():
            return value  # a view of the owner: keeping it keeps the owner
        value = freeze(value)
    return entry.forms.setdefault(full_key, value)
