"""Heuristic tile autotuner (paper section 4.3.2).

The search space is the cross product of ``bm, bn in {16, 32, 64, 128}``
(bk fixed at 128).  The paper's two-step heuristic:

1. score every candidate by TLP (eq. 3) and order them, higher TLP first
   (the paper's priority queue);
2. if even the highest TLP is below the threshold ``T`` (= 64), keep that
   candidate -- the problem is too small to fill the GPU, so parallelism is
   everything; otherwise keep popping and choose, among candidates whose
   TLP stays >= T, the one with the best compute intensity (eq. 4).

Candidates whose shared-memory or fragment footprint cannot launch on the
target device are discarded up front.  Ties break deterministically
(higher TLP, then smaller ``bm``, then smaller ``bn``) so tuning results
are reproducible.

Results are memoized per (problem, device) since NN inference re-tunes the
same layer shapes repeatedly; the paper notes different block tilings share
one data layout, so switching tile sizes between layers has no cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..tensorcore.device import DeviceSpec, get_device
from .tiling import CANDIDATE_TILES, TileConfig, compute_intensity, tlp

__all__ = [
    "TuneResult",
    "autotune",
    "TLP_THRESHOLD",
    "AutotuneCacheStats",
    "cache_stats",
    "clear_cache",
]

#: Paper: "We empirically set T as 64 in our evaluation."
TLP_THRESHOLD = 64.0


@dataclass(frozen=True)
class TuneResult:
    """Chosen tile plus the scores that justified it."""

    config: TileConfig
    tlp: float
    ci: float
    #: All candidates inspected, as (config, tlp, ci), best first by the
    #: heuristic's ordering -- kept for ablation studies and reports.
    ranking: tuple[tuple[TileConfig, float, float], ...]


def _candidates(device: DeviceSpec) -> list[TileConfig]:
    out = []
    for bm in CANDIDATE_TILES:
        for bn in CANDIDATE_TILES:
            cfg = TileConfig(bm, bn)
            try:
                cfg.validate_for_device(device)
            except ValueError:
                continue
            out.append(cfg)
    if not out:
        raise RuntimeError(f"no feasible tile candidates on {device.name}")
    return out


def _tune(
    m: int, n: int, p_bits: int, q_bits: int, device: DeviceSpec,
    threshold: float,
) -> TuneResult:
    # Step 1: order candidates by TLP (higher first); deterministic
    # tie-break on the smaller tile.
    ordered = sorted(
        (
            (cfg, tlp(m, n, p_bits, q_bits, cfg), compute_intensity(cfg))
            for cfg in _candidates(device)
        ),
        key=lambda item: (-item[1], item[0].bm, item[0].bn),
    )
    if ordered[0][1] < threshold:
        # Step 2a: even the most parallel tiling cannot fill the GPU;
        # stick with maximum TLP.
        choice = ordered[0]
    else:
        # Step 2b: among TLP >= T, improve CI.
        feasible = [item for item in ordered if item[1] >= threshold]
        choice = max(feasible, key=lambda item: (item[2], item[1],
                                                 -item[0].bm, -item[0].bn))
    return TuneResult(
        config=choice[0], tlp=choice[1], ci=choice[2], ranking=tuple(ordered)
    )


@lru_cache(maxsize=4096)
def _autotune_cached(
    m: int, n: int, p_bits: int, q_bits: int, device_name: str,
    threshold: float,
) -> TuneResult:
    return _tune(m, n, p_bits, q_bits, get_device(device_name), threshold)


def autotune(
    m: int,
    n: int,
    p_bits: int,
    q_bits: int,
    device: DeviceSpec | str,
    threshold: float = TLP_THRESHOLD,
) -> TuneResult:
    """Select block tiling for a ``p``-bit x ``q``-bit GEMM of size M x N.

    Parameters
    ----------
    m:
        Rows of the weight operand (e.g. output channels).
    n:
        Rows of the feature operand (e.g. batch x spatial positions).
    p_bits, q_bits:
        Operand bit-widths; they scale TLP because the batched BMMA grid
        covers every bit-plane (paper section 4.1a).
    device:
        Target device or its registered name.
    threshold:
        TLP floor ``T`` (paper default 64).
    """
    if min(m, n, p_bits, q_bits) < 1:
        raise ValueError("m, n, p_bits, q_bits must all be >= 1")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    name = device.name if isinstance(device, DeviceSpec) else device
    # Unregistered custom DeviceSpec: bypass the cache.
    if isinstance(device, DeviceSpec):
        try:
            registered = get_device(name) is device
        except KeyError:
            registered = False
        if not registered:
            return _tune(m, n, p_bits, q_bits, device, threshold)
    return _autotune_cached(m, n, p_bits, q_bits, name, threshold)


@dataclass(frozen=True)
class AutotuneCacheStats:
    """Memoization counters of the (problem, device) tuning cache.

    Surfaced so the serving metrics layer (:mod:`repro.serve.metrics`) can
    report how often layer shapes re-tune versus reuse a prior search.
    """

    hits: int
    misses: int
    entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def cache_stats() -> AutotuneCacheStats:
    """Current hit/miss/size counters of the autotune memo."""
    info = _autotune_cached.cache_info()
    return AutotuneCacheStats(
        hits=info.hits, misses=info.misses, entries=info.currsize
    )


def clear_cache() -> None:
    """Drop all memoized tuning results (and their counters)."""
    _autotune_cached.cache_clear()
