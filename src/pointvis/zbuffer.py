"""Per-pixel nearest-depth winner selection.

This is the single reduction shared by visibility pruning and
rasterization: bin projected points into integer pixels and keep, per
pixel, the candidate with minimal depth (ties broken by smallest point
index). Its one contract is that rows arrive in strictly increasing
order; every step keeps that order instead of restoring or re-checking
it. Candidates are a step-1 `range` of map rows (a window's one run of
rows, from `connectivity.window_rows`, or the whole map) or an index
array (a `depth` or `radius` bench selection, a visible set re-pruned
from another pose, or a hand-built array, cast to int64 without a copy
when it already is one). An array that is not strictly increasing
becomes its `np.unique` where it enters, which is also where a repeated
candidate comes to count once. A range and an array are then checked by
one rule at their two ends, before any block is binned. Both take one
block plan: entries lo..hi-1 (a range's ends, or 0 and the array's
length) are binned in the `_BLOCK`-entry blocks of a grid aligned to
entry 0, each cut to lo..hi, and one loop body reads a block as a slice
of the positions (a range: no index array is built and no row is copied)
or as a gather (an array). Given the map's `BlockBoxes`, a range skips
every grid block whose axis-aligned box lies wholly outside the view
frustum: behind the camera, or left, right, above or below the image, by
a margin that covers rounding, so no skipped row could have landed in
the image. A map's first range is not culled, its second builds every
block's box, and an array is never culled. All blocks share one `BinWork`
scratch per view, and `pixel_bins` returns a block's in-bounds rows in
order, with their flat pixel index.

The order gives the tie rule: from the second block on, a row whose depth
is not strictly below the `best` that earlier blocks left at its pixel is
dropped before the scatter-min, since an earlier row, with a smaller
index, holds that depth or a smaller one; such a row can neither win nor
lower `best`. A map that holds a surface sample once for each frame that
scanned it has many such exact-depth copies. Each block's remaining
depths are scatter-min'ed into the view's one W*H `best` buffer. After
the last block the rows whose depth equals the final `best` at their
pixel are the ties; one scatter-min of their indices picks each pixel's
smallest, and the rows that hold it are the winners, still in increasing
order, so no sort follows. It runs in one thread.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geom import BinWork, Intrinsics, Pose, pixel_bins

_EMPTY = np.iinfo(np.int64).max
# Candidates binned per block: a block's projection temporaries (a few MB)
# stay in cache, where one pass over a whole window would stream hundreds
# of MB through memory about eight times. On 11.6M rows at 1024x512,
# 2^15 and 2^16 rows measured fastest, 2^14 and 2^17 about 15% slower.
_BLOCK = 1 << 15
# A box is culled only when it lies beyond a plane by this fraction of the
# size of the numbers involved. The projection rounds about ten times, each
# by at most 2^-53 of that size, so a point it could keep is never culled.
_MARGIN = 1e-12


class BlockBoxes:
    """The axis-aligned boxes of a positions array's `_BLOCK`-row blocks, on
    a grid aligned to row 0: one float64 row per block of its center (3),
    half-extent (3) and the sum of both magnitudes, the size `outside_view`
    scales its margin by. A map holds one. The array's first row range gets
    no boxes, so a map read for one view, as `pointvis render` does, builds
    none (a box reads its block once more, about 0.2 ms from memory). The
    second builds the whole `table` and later ones slice it, so a map pruned
    exactly twice by small windows pays for every block: about 60 ms for 10M
    float32 rows. The table starts over when `_BLOCK` or the array change."""

    def __init__(self):
        self.block, self.source, self.table = 0, None, None

    def cover(self, positions: np.ndarray, first: int, stop: int) -> np.ndarray | None:
        """The (stop - first, 7) box rows of blocks first..stop-1, or None on the array's first range."""
        if self.block != _BLOCK or self.source is not positions:
            self.block, self.source, self.table = _BLOCK, positions, None
        elif self.table is None:
            # per block, one strided reduction per column: `rows.min(axis=0)` is about 12x slower, and
            # whole columns (`np.minimum.reduceat`) 1.5-2x
            lo, hi = np.hsplit(np.array([[op(c) for op in (np.min, np.max) for c in positions[s : s + _BLOCK].T]
                                         for s in range(0, len(positions), _BLOCK)], np.float64), 2)
            with np.errstate(over="ignore"):  # an overflowing box is never culled
                center, half = (lo + hi) / 2, (hi - lo) / 2
                self.table = np.column_stack([center, half, np.abs(center).sum(axis=1) + half.sum(axis=1)])
        return None if self.table is None else self.table[first:stop]


def outside_view(boxes: np.ndarray, pose: Pose, K: Intrinsics) -> np.ndarray:
    """Whether each box (a row of `BlockBoxes.cover`) lies wholly beyond one
    of the view's five half-spaces, so that `pixel_bins` drops every point in
    it: camera z <= 0, u < 0, u >= W, v < 0 or v >= H.

    For z > 0, u < 0 is a . c < 0 for the camera-frame point c and
    a = (fx, 0, cx); the other planes are alike. With c = R^T (p - t) that
    is n . (p - t) < 0 for the world-frame normal n = R a, whose largest
    value over a box is n . center + |n| . half - n . t. A box is outside
    when that is below minus a margin, `_MARGIN` times a bound on the
    magnitudes the projection rounds: (size + |t|) times the sum of the
    intrinsics' magnitudes. It is all one (boxes, 7) @ (7, 5) product, left
    to BLAS: it decides culling only, and the margin covers any kernel's
    rounding, so no output bit depends on it. A
    box whose numbers overflow is never outside, and neither is any box of
    a plane whose bound overflows."""
    planes = np.array([
        [0.0, K.fx, -K.fx, 0.0, 0.0],
        [0.0, 0.0, 0.0, K.fy, -K.fy],
        [1.0, K.cx, K.width - K.cx, K.cy, K.height - K.cy],
    ])
    with np.errstate(over="ignore", invalid="ignore"):
        normals = pose.rotation @ planes
        slack = _MARGIN * (1.0 + K.fx + K.fy + abs(K.cx) + abs(K.cy) + K.width + K.height)
        weights = np.vstack([normals, np.abs(normals), np.full(5, slack)])
        bound = pose.translation @ normals - slack * np.abs(pose.translation).sum()
        return (boxes @ weights < np.where(np.isfinite(bound), bound, -np.inf)).any(axis=1)


def zbuffer_winners(
    indices: range | np.ndarray,
    pose: Pose,
    K: Intrinsics,
    positions: np.ndarray,
    boxes: BlockBoxes | None = None,
):
    """Z-buffer over `positions[indices]` at the resolution of K.

    Returns (winner_index, pixel_u, pixel_v, winner_depth) in increasing
    point index. Candidates behind the camera or out of bounds are dropped
    before the reduction. `indices` is a step-1 `range` of rows or a 1-D
    integer array, which becomes its `np.unique` unless strictly
    increasing, so a repeated candidate counts once. Its rows, checked at
    their two ends, must lie in [0, N); an empty array may have any dtype,
    an empty range any bounds. Anything else raises DomainError before any
    block is binned. Entries lo..hi-1 (a range's ends, or 0 and the
    array's length) are binned in the blocks of the grid aligned to entry
    0; given `boxes`, the map's `BlockBoxes`, a range skips the grid blocks
    outside the view. The result is the same with or without them.
    """
    n, rows = len(positions), None
    if isinstance(indices, range) and indices.step == 1:
        lo, hi = indices.start, indices.stop
        first, last = lo, hi - 1
    else:
        rows = np.asarray(indices)
        if rows.ndim != 1 or (rows.size and not np.issubdtype(rows.dtype, np.integer)):
            raise DomainError(f"candidate indices must be a 1-D integer array, got {rows.dtype} {rows.shape}")
        rows = rows.astype(np.int64, copy=False)
        if len(rows) > 1 and (rows[1:] <= rows[:-1]).any():
            rows = np.unique(rows)
        lo, hi = 0, len(rows)
        first, last = (rows[0], rows[-1]) if len(rows) else (0, -1)
    if first <= last and not (0 <= first and last < n):  # the rows increase, so their ends bound them
        raise DomainError(f"candidate index {first if not 0 <= first < n else last} is outside the map's {n} points")
    grid = range(lo // _BLOCK, -(-hi // _BLOCK)) if lo < hi else range(0)
    table = boxes.cover(positions, grid.start, grid.stop) if rows is None and boxes is not None and grid else None
    if table is not None:
        grid = [b for b, culled in zip(grid, outside_view(table, pose, K).tolist()) if not culled]

    def blocks():
        work = BinWork(min(_BLOCK, max(hi - lo, 0)))  # one scratch per view
        for b in grid:
            s, e = max(b * _BLOCK, lo), min((b + 1) * _BLOCK, hi)
            block = positions[s:e] if rows is None else np.take(positions, rows[s:e], axis=0)
            keep, pix, z = pixel_bins(pose, K, block, work)
            yield (keep + s if rows is None else rows[s:e].take(keep)), pix, z

    return reduce_bins(blocks(), K.width, K.height)


def reduce_bins(blocks, width: int, height: int):
    """The (depth, index) minimum of each pixel of a width x height image
    over `blocks`, an iterable of (idx, pix, depth) rows already binned
    inside the image, with pix = v * width + u. The indices must strictly
    increase over all the rows, within a block and from one block to the
    next: the tie rule drops a later block's row that only ties an earlier
    block's depth, and each pixel's winner is its first tie row. Returns
    (winner_index, pixel_u, pixel_v, winner_depth) in the rows' order."""
    best = np.full(width * height, np.inf)
    kept = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]  # so no blocks is no rows
    for i, (idx, pix, depth) in enumerate(blocks):
        if i:  # a row that does not beat the earlier blocks' best loses to an earlier row
            ahead = np.flatnonzero(depth < best[pix])
            idx, pix, depth = idx.take(ahead), pix.take(ahead), depth.take(ahead)
        np.minimum.at(best, pix, depth)
        kept.append((idx, pix, depth))
    idx, pix, depth = (np.concatenate(rows) for rows in zip(*kept))
    tie = np.flatnonzero(depth == best[pix])
    idx, pix, depth = idx.take(tie), pix.take(tie), depth.take(tie)
    winner = np.full(width * height, _EMPTY)
    np.minimum.at(winner, pix, idx)
    won = np.flatnonzero(winner[pix] == idx)
    pix = pix.take(won)
    return idx.take(won), pix % width, pix // width, depth.take(won)
