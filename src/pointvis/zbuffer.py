"""Per-pixel nearest-depth winner selection.

This is the single reduction shared by visibility pruning and
rasterization: bin projected points into integer pixels and keep, per
pixel, the candidate with minimal depth (ties broken by smallest point
index). Candidates are gathered and binned in blocks of `_BLOCK` rows;
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
    indices: np.ndarray,
    pose: Pose,
    K: Intrinsics,
    positions: np.ndarray,
):
    """Z-buffer over `positions[indices]` at the resolution of K.

    Returns (winner_index, pixel_u, pixel_v, winner_depth) sorted by
    point index. Candidates behind the camera or out of bounds are
    dropped before the reduction; a repeated candidate counts once.
    `indices` must be a 1-D integer array with every entry in [0, N); an
    empty one may have any dtype. Anything else raises DomainError.
    """
    indices = np.asarray(indices)
    if indices.ndim != 1 or (indices.size and not np.issubdtype(indices.dtype, np.integer)):
        raise DomainError(f"candidate indices must be a 1-D integer array, got {indices.dtype} {indices.shape}")
    indices = indices.astype(np.int64, copy=False)
    n = len(positions)

    def blocks():
        for s in range(0, max(len(indices), 1), _BLOCK):  # an empty input is one empty block
            idx = indices[s : s + _BLOCK]
            # a negative index reads as a huge unsigned one, so one max checks both ends
            if idx.size and idx.view(np.uint64).max() >= n:
                bad = idx[(idx < 0) | (idx >= n)][0]
                raise DomainError(f"candidate index {bad} is outside the map's {n} points")
            ok, ui, vi, z = pixel_bins(pose, K, np.take(positions, idx, axis=0))
            yield idx.compress(ok), vi * K.width + ui, z

    return reduce_bins(blocks(), K.width, K.height)


def reduce_bins(blocks, width: int, height: int):
    """The (depth, index) minimum of each pixel of a width x height image
    over `blocks`, an iterable of (idx, pix, depth) rows already binned
    inside the image, with pix = v * width + u. Returns (winner_index,
    pixel_u, pixel_v, winner_depth) sorted by point index."""
    best = np.full(width * height, np.inf)
    kept = []
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
