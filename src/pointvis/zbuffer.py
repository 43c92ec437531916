"""Per-pixel nearest-depth winner selection.

This is the single reduction shared by visibility pruning and
rasterization: bin projected points into integer pixels and keep, per
pixel, the candidate with minimal depth (ties broken by smallest point
index). Two scatter-min passes over a W*H buffer decide it, depth
first and then index among the exact-depth ties; it runs in one thread.
"""
from __future__ import annotations

import numpy as np

from .geom import Intrinsics, Pose, pixel_bins

_EMPTY = np.iinfo(np.int64).max


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
    """
    indices = np.asarray(indices, dtype=np.int64)
    ok, ui, vi, z = pixel_bins(pose, K, positions[indices])
    return reduce_bins(indices[ok], ui[ok], vi[ok], z[ok], K.width, K.height)


def reduce_bins(idx, ui, vi, depth, width: int, height: int):
    """The (depth, index) minimum of each pixel over points already binned
    inside the width x height image. Returns (winner_index, pixel_u,
    pixel_v, winner_depth) sorted by point index."""
    pix = vi * width + ui
    best = np.full(width * height, np.inf)
    np.minimum.at(best, pix, depth)
    tie = depth == best[pix]
    winner = np.full(width * height, _EMPTY)
    np.minimum.at(winner, pix[tie], idx[tie])

    pix = np.flatnonzero(winner != _EMPTY)
    idx = winner[pix]
    order = np.argsort(idx)
    idx, pix = idx[order], pix[order]
    return idx, pix % width, pix // width, best[pix]
