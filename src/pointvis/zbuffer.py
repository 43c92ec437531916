"""Per-pixel nearest-depth winner selection.

This is the single reduction shared by visibility pruning and
rasterization: bin projected points into integer pixels and keep, per
pixel, the candidate with minimal depth (ties broken by smallest point
index). Candidates are binned in blocks of `_BLOCK` rows. A step-1
`range` of candidates (a window's one run of map rows, from
`connectivity.window_rows`) is a row range: its bounds are checked once
and each block is a slice of the positions, so no index array is built
and no rows are copied. Any other input (a bench strategy's selection or
a hand-built array) is an index array, checked and gathered block by
block. Both share one camera-transform scratch array per view.
`pixel_bins` returns only a block's in-bounds rows. Each block's depths
are scatter-min'ed into the view's one W*H `best` buffer, and only the
rows that still tie or beat `best` at their pixel are kept: `best` only
decreases, so a dropped row can never equal the final minimum. After the
last block, one scatter-min of the index over the exact-depth ties
decides each pixel. It runs in one thread.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError
from .geom import Intrinsics, Pose, pixel_bins

_EMPTY = np.iinfo(np.int64).max
# Candidates binned per block: a block's projection temporaries (a few MB)
# stay in cache, where one pass over a whole window would stream hundreds
# of MB through memory about eight times. On 11.6M rows at 1024x512,
# 2^15 and 2^16 rows measured fastest, 2^14 and 2^17 about 15% slower.
_BLOCK = 1 << 15


def zbuffer_winners(
    indices: range | np.ndarray,
    pose: Pose,
    K: Intrinsics,
    positions: np.ndarray,
):
    """Z-buffer over `positions[indices]` at the resolution of K.

    Returns (winner_index, pixel_u, pixel_v, winner_depth) sorted by
    point index. Candidates behind the camera or out of bounds are
    dropped before the reduction; a repeated candidate counts once.
    `indices` is a step-1 `range` of rows or a 1-D integer array, with
    every entry in [0, N); an empty array may have any dtype, an empty
    range any bounds. Anything else raises DomainError.
    """
    n = len(positions)
    if isinstance(indices, range) and indices.step == 1:
        lo, hi, rows = indices.start, indices.stop, None
        if lo < hi and not (0 <= lo and hi <= n):  # a non-empty range is checked once, at its ends
            raise DomainError(f"candidate index {lo if not 0 <= lo < n else n} is outside the map's {n} points")
    else:
        rows = np.asarray(indices)
        if rows.ndim != 1 or (rows.size and not np.issubdtype(rows.dtype, np.integer)):
            raise DomainError(f"candidate indices must be a 1-D integer array, got {rows.dtype} {rows.shape}")
        lo, hi, rows = 0, len(rows), rows.astype(np.int64, copy=False)

    def blocks():
        work = np.empty((2, min(_BLOCK, max(hi - lo, 0)), 3))  # one camera-transform scratch per view
        for s in range(lo, hi, _BLOCK):
            e = min(s + _BLOCK, hi)
            if rows is None:
                ok, ui, vi, z = pixel_bins(pose, K, positions[s:e], work)
                idx = np.flatnonzero(ok) + s
            else:
                idx = rows[s:e]
                # a negative index reads as a huge unsigned one, so one max checks both ends
                if idx.view(np.uint64).max() >= n:
                    bad = idx[(idx < 0) | (idx >= n)][0]
                    raise DomainError(f"candidate index {bad} is outside the map's {n} points")
                ok, ui, vi, z = pixel_bins(pose, K, np.take(positions, idx, axis=0), work)
                idx = idx.compress(ok)
            yield idx, vi * K.width + ui, z

    return reduce_bins(blocks(), K.width, K.height)


def reduce_bins(blocks, width: int, height: int):
    """The (depth, index) minimum of each pixel of a width x height image
    over `blocks`, an iterable of (idx, pix, depth) rows already binned
    inside the image, with pix = v * width + u. Returns (winner_index,
    pixel_u, pixel_v, winner_depth) sorted by point index."""
    best = np.full(width * height, np.inf)
    kept = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]  # so no blocks is no rows
    for idx, pix, depth in blocks:
        np.minimum.at(best, pix, depth)
        keep = np.flatnonzero(depth <= best[pix])
        kept.append((idx.take(keep), pix.take(keep), depth.take(keep)))
    idx, pix, depth = (np.concatenate(rows) for rows in zip(*kept))
    tie = np.flatnonzero(depth == best[pix])
    winner = np.full(width * height, _EMPTY)
    np.minimum.at(winner, pix.take(tie), idx.take(tie))

    pix = np.flatnonzero(winner != _EMPTY)
    idx = winner[pix]
    order = np.argsort(idx)
    idx, pix = idx[order], pix[order]
    return idx, pix % width, pix // width, best[pix]
