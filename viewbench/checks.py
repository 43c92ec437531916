"""Per-view output checks, leak against the ray-casting oracle, and the
output digest."""
from __future__ import annotations

import hashlib

import numpy as np

LEAK_MAX = 0.01  # acceptance 02's bound on connectivity leak
PSNR_MIN_DB = 25.0  # acceptance 08's render-quality floor


def view_problems(vis, img, width: int, height: int) -> list[str]:
    """Everything wrong with one view's visible set and RGB image; empty if
    the view is valid. An empty visible set is valid."""
    problems = []
    idx, pix, depth = vis.point_indices, vis.pixel_of, vis.depth_of
    m = len(idx)
    if pix.shape != (m, 2) or depth.shape != (m,):
        return [f"visible set shapes disagree: indices {idx.shape}, pixels {pix.shape}, depths {depth.shape}"]
    if m > 1 and not np.all(np.diff(idx) > 0):
        problems.append("visible indices are not strictly increasing")
    if m:
        u, v = pix[:, 0], pix[:, 1]
        if not np.all((u >= 0) & (u < width) & (v >= 0) & (v < height)):
            problems.append("a visible pixel is out of bounds")
        elif len(np.unique(v * width + u)) != m:
            problems.append("two visible points share a pixel")
        if not np.all(np.isfinite(depth) & (depth > 0)):
            problems.append("a visible depth is not finite and positive")
    if img.shape != (height, width, 3):
        problems.append(f"image shape {img.shape} is not {(height, width, 3)}")
    elif not np.all(np.isfinite(img)):
        problems.append("image has non-finite values")
    elif img.size and (img.min() < 0.0 or img.max() > 1.0):
        problems.append("image values leave [0, 1]")
    return problems


def view_digest(vis, img) -> bytes:
    """sha256 over the visible indices, pixels, depths and RGB bytes."""
    h = hashlib.sha256()
    for a in (vis.point_indices, vis.pixel_of, vis.depth_of, img):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.data)
    return h.digest()


def leak_frac(positions, vis, pose, surfaces, tracer) -> float:
    """Winners the oracle finds occluded, over all winners (0 for none)."""
    if len(vis) == 0:
        return 0.0
    from pointvis.synth import oracle_occluded_many

    occluded = tracer.call(
        "synth.oracle_occluded_many", oracle_occluded_many, positions[vis.point_indices], pose, surfaces
    )
    return float(np.count_nonzero(occluded)) / len(vis)
