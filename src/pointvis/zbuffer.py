"""Per-pixel nearest-depth winner selection.

This is the single reduction shared by visibility pruning and
rasterization: bin projected points into integer pixels and keep, per
pixel, the candidate with minimal depth (ties broken by smallest point
index). The reduction min-by-(depth, index) is associative, so chunked
parallel execution is bit-identical to sequential.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geom import Intrinsics, Pose, pixel_bins
from .threads import worker_count


def _select(pix: np.ndarray, depth: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Positions of the per-pixel (depth, index) minima within the inputs."""
    order = np.lexsort((index, depth, pix))
    pix_sorted = pix[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = pix_sorted[1:] != pix_sorted[:-1]
    return order[first]


def zbuffer_winners(
    indices: np.ndarray,
    pose: Pose,
    K: Intrinsics,
    positions: np.ndarray,
):
    """Z-buffer over `positions[indices]` at the resolution of K.

    Returns (winner_index, pixel_u, pixel_v, winner_depth) sorted by
    point index. Candidates behind the camera or out of bounds are
    dropped before the reduction.
    """
    indices = np.asarray(indices, dtype=np.int64)
    nworkers = worker_count()
    if nworkers <= 1 or len(indices) < 4096:
        parts = [_chunk_winners(indices, pose, K, positions)]
    else:
        chunks = np.array_split(indices, nworkers)
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            parts = list(pool.map(lambda c: _chunk_winners(c, pose, K, positions), chunks))

    idx = np.concatenate([p[0] for p in parts])
    pix = np.concatenate([p[1] for p in parts])
    depth = np.concatenate([p[2] for p in parts])
    if len(parts) > 1:
        keep = _select(pix, depth, idx)
        idx, pix, depth = idx[keep], pix[keep], depth[keep]

    order = np.argsort(idx)
    idx, pix, depth = idx[order], pix[order], depth[order]
    return idx, pix % K.width, pix // K.width, depth


def _chunk_winners(indices, pose, K, positions):
    ok, ui, vi, z = pixel_bins(pose, K, positions[indices])
    idx = indices[ok]
    pix = vi[ok] * K.width + ui[ok]
    depth = z[ok]
    keep = _select(pix, depth, idx)
    return idx[keep], pix[keep], depth[keep]
