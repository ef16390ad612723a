"""Tiling configuration and the paper's performance metrics (section 4.3).

A kernel launch is organized as a grid of thread blocks; each block owns a
``bm x bn`` output tile and marches along the reduction dimension in steps
of ``bk``.  Inside a block, 8 warps partition the tile into ``wm x wn``
warp tiles, each computed by sliding the 8x8x128 ``bmma`` primitive.

Two analytical quantities drive tile selection (paper eqs. 3 and 4):

* **TLP** (thread-level parallelism): ``TLP = pM * qN / (bm * bn)`` -- the
  number of thread blocks of the *batched* problem (the paper batches the
  ``p`` weight planes and ``q`` feature planes into one virtual large BMMA,
  which is where the ``p``/``q`` factors come from);
* **CI** (compute intensity): ``CI = 2 * bm * bn / (bm + bn)`` -- computed
  MACs per byte of tile traffic; independent of ``bk``, which is why the
  paper fixes ``bk = 128``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TileConfig",
    "tlp",
    "compute_intensity",
    "DEFAULT_BK",
    "CANDIDATE_TILES",
    "WARPS_PER_BLOCK",
]

#: The paper fixes the K-tile at 128 (one bmma K-slice) since CI does not
#: depend on bk and smaller bk leaves shared memory for larger bm/bn.
DEFAULT_BK = 128

#: Candidate block tile sizes searched by the autotuner (paper 4.3.2).
CANDIDATE_TILES = (16, 32, 64, 128)

#: The paper empirically uses 8 warps per block with the block workload
#: split evenly across warps.
WARPS_PER_BLOCK = 8

#: Feasible (rows, cols) partitions of 8 warps over the block tile.
_WARP_PARTITIONS = ((4, 2), (2, 4), (8, 1), (1, 8), (2, 2), (4, 1), (1, 4),
                    (2, 1), (1, 2), (1, 1))


@dataclass(frozen=True)
class TileConfig:
    """Block/warp tiling of one GEMM-like kernel.

    Parameters
    ----------
    bm, bn:
        Block tile: rows of the (batched) weight operand and rows of the
        (batched) feature operand covered by one thread block.
    bk:
        Reduction-step tile; must be a multiple of the bmma K (128).
    """

    bm: int
    bn: int
    bk: int = DEFAULT_BK

    def __post_init__(self) -> None:
        for name, v in (("bm", self.bm), ("bn", self.bn)):
            if v < 8 or v % 8 != 0:
                raise ValueError(f"{name} must be a positive multiple of 8, got {v}")
        if self.bk < 128 or self.bk % 128 != 0:
            raise ValueError(f"bk must be a positive multiple of 128, got {self.bk}")

    # ------------------------------------------------------------------
    # warp partition
    # ------------------------------------------------------------------
    @property
    def warp_partition(self) -> tuple[int, int]:
        """(rows, cols) of warps; the paper's default is (4, 2).

        The paper sets ``wm = bm/4, wn = bn/2`` (8 warps).  For small tiles
        where that would drop a warp tile below the 8-row bmma minimum, we
        fall back to the densest feasible partition -- matching how real
        kernels template-specialize small tiles.
        """
        for rows, cols in _WARP_PARTITIONS:
            if self.bm // rows >= 8 and self.bn // cols >= 8:
                return rows, cols
        return 1, 1

    @property
    def num_warps(self) -> int:
        rows, cols = self.warp_partition
        return rows * cols

    @property
    def wm(self) -> int:
        """Warp-tile rows (weight side)."""
        return self.bm // self.warp_partition[0]

    @property
    def wn(self) -> int:
        """Warp-tile rows (feature side)."""
        return self.bn // self.warp_partition[1]

    @property
    def wk(self) -> int:
        """Warp-tile K; the paper uses wk = bk."""
        return self.bk

    # ------------------------------------------------------------------
    # resource usage
    # ------------------------------------------------------------------
    def smem_bytes(self, double_buffered: bool = True) -> int:
        """Shared memory staged per block: 1-bit W and X tiles.

        ``(bm*bk + bn*bk)`` bits per stage; double buffering (overlap load
        with compute) doubles it.
        """
        per_stage_bits = (self.bm + self.bn) * self.bk
        stages = 2 if double_buffered else 1
        return per_stage_bits * stages // 8

    def fragment_bytes(self) -> int:
        """Register fragments per block: the int32 output accumulators plus
        the operand fragments of each warp's current bmma slice."""
        acc = self.bm * self.bn * 4
        rows, cols = self.warp_partition
        operand = rows * cols * (self.wm + self.wn) * self.bk // 8
        return acc + operand

    def validate_for_device(self, device) -> None:
        """Raise if this tiling cannot launch on ``device``."""
        if self.smem_bytes() > device.max_shared_mem_per_block_bytes:
            raise ValueError(
                f"tile {self.bm}x{self.bn}x{self.bk} needs "
                f"{self.smem_bytes()} B shared memory, device block max is "
                f"{device.max_shared_mem_per_block_bytes} B"
            )
        if self.fragment_bytes() > device.fragment_bytes_per_block:
            raise ValueError(
                f"tile {self.bm}x{self.bn}x{self.bk} needs "
                f"{self.fragment_bytes()} B of fragments, device block max "
                f"is {device.fragment_bytes_per_block} B"
            )

    def __str__(self) -> str:
        return f"{self.bm}x{self.bn}x{self.bk}"


def tlp(m: int, n: int, p_bits: int, q_bits: int, cfg: TileConfig) -> float:
    """Thread-level parallelism of the batched problem (paper eq. 3)."""
    if min(m, n, p_bits, q_bits) < 1:
        raise ValueError("dimensions and bit-widths must be >= 1")
    return (p_bits * m * q_bits * n) / (cfg.bm * cfg.bn)


def compute_intensity(cfg: TileConfig) -> float:
    """Compute intensity of one block tile (paper eq. 4): 2*bm*bn/(bm+bn)."""
    return 2.0 * cfg.bm * cfg.bn / (cfg.bm + cfg.bn)
