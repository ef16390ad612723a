"""Kernel backends: who executes the packed popcount hot loops.

Two fixed tiers:

* ``numpy`` -- always usable and always correct.  It has no compiled
  kernels, so every caller keeps the BLAS fold
  (:func:`repro.core.packed.packed_matmul`), after im2col for a conv.
* ``cffi`` -- the ahead-of-time C kernels of
  :mod:`repro.core._backend_cffi`: the fused weighted popcount GEMM, the
  conv window gather and, on a build for AVX-512 VNNI, the native int8
  conv.  Usable when its shared object builds or loads.

:func:`get_backend` picks ``cffi`` when it loads and ``numpy``
otherwise; ``apmm``/``apconv`` also take a per-call ``backend=``
(``"numpy"`` or ``"cffi"``).  Compiled kernels run where the host cost
model (:class:`repro.core.packed.HostProduct`) prices them below the
fold: the popcount GEMM of :func:`~repro.core.packed.packed_matmul`,
and the conv window gather and int8 conv of
:mod:`repro.kernels.packed_conv`.

Compiled kernels are byte-identical to the numpy path (enforced by the
hypothesis suite and the ``repro.bench`` byte-identity oracle).  A cffi
load failure costs one :class:`RuntimeWarning` and degrades to numpy;
only an explicit ``backend="cffi"`` then raises.

:func:`resolve_dispatch` is the one ``(strategy, backend)`` check that
``apmm`` and ``apconv`` share.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Callable, Mapping

__all__ = [
    "CAPABILITIES",
    "STRATEGIES",
    "Backend",
    "NUMPY",
    "CFFI",
    "get_backend",
    "resolve_backend",
    "kernel",
    "resolve_dispatch",
]

#: The packed hot loops the cffi tier compiles:
#:
#: * ``packed_gemm`` -- the fused weighted popcount-reduce GEMM
#:   (``sum_{s,t} 2**(s+t) * popc(A_s op B_t)`` in one pass, stored with
#:   the operator plan's affine correction);
#: * ``conv_gather`` -- packed conv window gather over a word-packed
#:   feature map (no im2col digit matrix);
#: * ``vnni_conv`` -- the native int8 conv: a panel writer that copies
#:   the im2col windows of a channel-last u8 map straight into 32-pixel
#:   k-quad panels, and an AVX-512 VNNI GEMM of s8 weights against them.
#:   Every build carries the entry, but only a build compiled for AVX-512
#:   VNNI runs it (:func:`repro.core._backend_cffi.vnni_build`); the
#:   host cost model offers it nowhere else.
CAPABILITIES = ("packed_gemm", "conv_gather", "vnni_conv")

#: Kernel execution strategies of `apmm`/`apconv`.  ``"packed"`` is the
#: only backend-sensitive one; ``"integer"`` and ``"bitserial"`` are
#: numpy reference paths by definition.
STRATEGIES = ("packed", "integer", "bitserial")


@dataclass(frozen=True)
class Backend:
    """One kernel tier: its name and the compiled kernels it provides."""

    name: str
    compiled: bool
    capabilities: frozenset[str]


NUMPY = Backend("numpy", compiled=False, capabilities=frozenset())
CFFI = Backend("cffi", compiled=True, capabilities=frozenset(CAPABILITIES))
_BY_NAME = {b.name: b for b in (NUMPY, CFFI)}

_COMBINATIONS = (
    f"packed x ({'/'.join(_BY_NAME)}), integer x (numpy), bitserial x (numpy)"
)

#: The cffi kernel table: ``None`` before the first load attempt, empty
#: after a failed one (the process then stays on numpy).
_cffi_table: dict[str, Callable[..., Any]] | None = None


def _cffi_kernels() -> Mapping[str, Callable[..., Any]]:
    """The cffi kernel table, built or loaded on first use."""
    global _cffi_table
    if _cffi_table is not None:
        return _cffi_table
    try:
        from . import _backend_cffi

        table = dict(_backend_cffi.kernels())
        missing = set(CAPABILITIES) - set(table)
        if missing:
            raise RuntimeError(f"no kernels for {sorted(missing)}")
    except Exception as exc:
        # a broken toolchain must cost one warning, not the hot path
        warnings.warn(
            f"cffi kernel backend failed to load "
            f"({type(exc).__name__}: {exc}); falling back to numpy",
            RuntimeWarning,
            stacklevel=4,
        )
        table = {}
    _cffi_table = table
    return table


def get_backend() -> Backend:
    """``cffi`` when its shared object loads (building it if needed),
    else ``numpy``."""
    return CFFI if _cffi_kernels() else NUMPY


def _named(choice: Backend | str) -> Backend:
    name = choice.name if isinstance(choice, Backend) else choice
    backend = _BY_NAME.get(name)
    if backend is None:
        raise ValueError(
            f"unknown backend {choice!r}; choose from {'/'.join(_BY_NAME)}"
        )
    return backend


def resolve_backend(choice: Backend | str | None = None) -> Backend:
    """A per-call backend choice as a usable :class:`Backend`.

    ``None`` means :func:`get_backend`.  An unknown name raises
    ``ValueError``; ``"cffi"`` raises ``RuntimeError`` when its kernels
    failed to load, because the caller asked for it by name.
    """
    if choice is None:
        return get_backend()
    backend = _named(choice)
    if backend.compiled and not _cffi_kernels():
        raise RuntimeError(
            "backend 'cffi' failed to load its kernels (see the earlier "
            "warning); use backend='numpy' or fix the toolchain"
        )
    return backend


def kernel(
    capability: str, backend: Backend | str | None = None
) -> Callable[..., Any] | None:
    """The compiled kernel for one capability, or ``None`` on numpy."""
    if capability not in CAPABILITIES:
        raise ValueError(
            f"unknown capability {capability!r}; valid: {CAPABILITIES}"
        )
    if not resolve_backend(backend).compiled:
        return None
    return _cffi_kernels()[capability]


def resolve_dispatch(
    strategy: str,
    backend: Backend | str | None = None,
    *,
    kernel_name: str = "kernel",
) -> tuple[str, Backend]:
    """Validate one ``(strategy, backend)`` request for ``apmm``/``apconv``.

    ``strategy`` must be one of :data:`STRATEGIES`, and the reference
    strategies (``integer``/``bitserial``) only combine with ``numpy``
    -- they exist to be the backend-free oracle.  Errors enumerate the
    valid combinations.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"{kernel_name}: unknown strategy {strategy!r}; valid "
            f"(strategy, backend) combinations: {_COMBINATIONS}"
        )
    if strategy == "packed":
        return strategy, resolve_backend(backend)
    if backend is not None and _named(backend) is not NUMPY:
        raise ValueError(
            f"{kernel_name}: strategy {strategy!r} is a numpy reference "
            f"path and cannot run on backend {_named(backend).name!r}; "
            f"valid combinations: {_COMBINATIONS}"
        )
    return strategy, NUMPY
