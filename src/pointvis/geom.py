"""Rigid camera poses, pinhole projection, and intrinsics scaling.

Conventions:
  - Poses are camera-to-world: `rotation @ x_cam + translation = x_world`,
    so `translation` is the camera center in the world frame.
  - Depth is the camera-frame z coordinate (z-buffer semantics), not ray
    length. z > 0 means the point lies ahead of the camera.
  - Pixels are continuous (u, v); a point lands in the integer pixel
    (floor(u), floor(v)). No half-pixel offset is applied when scaling
    the principal point between pyramid levels, which keeps projections
    at level t exactly 1/2^t of the level-0 projection.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_ORTHO_TOL = 1e-6
_DOT3_ROWS = 1 << 15  # rows a `dot3` pass takes: in cache, 2-3x faster than one pass over 0.9M-2.3M rows
# Bytes a view holds per pixel of its image: the tracemalloc peak over the
# prune, pyramid levels 0-5, `render_rgb` and `write_ppm` read 116 B a pixel
# for an empty 512x256 or 1024x512 view and 198 B for one whose every pixel
# holds a point, so an image is held to 200 B a pixel.
_VIEW_PIXEL_BYTES = 200


def _as_matrix(value, shape, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise DomainError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    return arr


def check_fits(count, row_bytes: int, what: str) -> None:
    """DomainError unless `count` rows of `row_bytes` bytes fit in one array and in
    physical memory (the array limit alone where `os.sysconf` cannot tell the
    memory size). `count` may be a float; an inf or nan count is refused."""
    limit = np.iinfo(np.intp).max
    if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", {}) and os.sysconf("SC_PHYS_PAGES") > 0:
        limit = min(limit, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    if not count <= limit // row_bytes:
        raise DomainError(f"{what}, more than the {limit} bytes an array or this machine's memory can hold")


def dot3(a, m, out=None, scratch=None) -> np.ndarray:
    """`a @ m` for 3-vectors `a` ((N, 3) or (3,)) and a 3 x k matrix or a 3-vector `m`,
    summed as (a0 * m[0, j] + a1 * m[1, j]) + a2 * m[2, j], one numpy operation at a time,
    so every CPU rounds it alike (a BLAS kernel may fuse with FMA or reorder); every product
    whose result reaches an output is taken here, `_DOT3_ROWS` rows at a time. `out` must
    not overlap `a`; `scratch`, of min(N, `_DOT3_ROWS`) rows or more, holds the temporary."""
    a, m = np.asarray(a), np.asarray(m, dtype=np.float64)  # float64 factors: a float32 `a` is multiplied in float64
    out = np.empty(a.shape[:-1] + m.shape[1:]) if out is None else out
    rows, cols = a.reshape(-1, 3), out.reshape(-1, m.size // 3)  # views: one row per 3-vector
    tmp = np.empty(min(len(rows), _DOT3_ROWS)) if scratch is None else scratch
    for s in range(0, len(rows), _DOT3_ROWS):
        p = rows[s : s + _DOT3_ROWS]
        t = tmp[: len(p)]
        for j, col in enumerate(m.reshape(3, -1).T):
            x = cols[s : s + _DOT3_ROWS, j]
            np.multiply(p[:, 0], col[0], out=x)
            x += np.multiply(p[:, 1], col[1], out=t)
            x += np.multiply(p[:, 2], col[2], out=t)
    return out


def rotation_error(rot: np.ndarray):
    """`(|R^T R - I|_max, det R)` of each 3x3 in `rot` (..., 3, 3); an overflow gives an inf or nan error.
    It decides a tolerance check only, so it stays one BLAS product."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(np.swapaxes(rot, -1, -2) @ rot - np.eye(3)).max(axis=(-2, -1)), np.linalg.det(rot)


def check_rotations(rot: np.ndarray) -> None:
    """DomainError, naming the worst, unless each finite 3x3 in `rot` (..., 3, 3) is a rotation within _ORTHO_TOL."""
    err, det = rotation_error(rot)
    if not np.all(err <= _ORTHO_TOL):
        raise DomainError(f"rotation is not orthonormal (|R^T R - I|_max = {np.max(err):.3g})")
    if not np.all((1.0 - _ORTHO_TOL <= det) & (det <= 1.0 + _ORTHO_TOL)):
        raise DomainError(f"rotation determinant {np.ravel(det)[np.argmax(np.abs(det - 1.0))]:.6f} is not +1")


@dataclass(frozen=True, eq=False)
class Pose:
    """Camera-to-world rigid transform."""

    rotation: np.ndarray
    translation: np.ndarray
    frame_id: int | None = None

    def __post_init__(self):
        rot = _as_matrix(self.rotation, (3, 3), "rotation")
        t = _as_matrix(self.translation, (3,), "translation")
        check_rotations(rot)
        if self.frame_id is not None and self.frame_id < 0:
            raise DomainError("frame_id must be non-negative")
        rot.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pose):
            return NotImplemented
        return (
            np.array_equal(self.rotation, other.rotation)
            and np.array_equal(self.translation, other.translation)
            and self.frame_id == other.frame_id
        )


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole model: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise DomainError("focal lengths must be positive")
        if self.width < 1 or self.height < 1:
            raise DomainError("image dimensions must be at least 1 pixel")
        check_fits(self.width * self.height, _VIEW_PIXEL_BYTES, f"a {self.width}x{self.height} view")
        for v in (self.fx, self.fy, self.cx, self.cy):
            if not np.isfinite(v):
                raise DomainError("intrinsics must be finite")


class BinWork:
    """Scratch arrays for binning blocks of up to `rows` points, so that a
    caller binning many blocks, as the z-buffer does, allocates each
    block's temporaries once per view. Each call of `project_points` and
    `pixel_bins` writes them in place, and their results are views into
    them, valid until their next use."""

    def __init__(self, rows: int):
        self.diff, self.xyz = np.empty((3, rows)), np.empty((3, rows))
        self.tmp, self.ok = np.empty(rows), np.empty(rows, dtype=bool)


def _work(points: np.ndarray, work: BinWork | None) -> BinWork:
    if work is None:
        return BinWork(len(points))
    if len(work.ok) < len(points):
        raise DomainError(f"this BinWork ({len(work.ok)} rows) is for fewer than {len(points)} rows")
    return work


def scale_intrinsics(K: Intrinsics, level: int) -> Intrinsics:
    """Intrinsics for pyramid level t: focals and principal point / 2^t,
    dimensions floor-divided."""
    if level < 0:
        raise DomainError("level must be non-negative")
    if level == 0:
        return K
    w, h = K.width >> level, K.height >> level
    if w == 0 or h == 0:
        raise DomainError(f"level {level} collapses a {K.width}x{K.height} image to zero size")
    s = 2**level
    return Intrinsics(K.fx / s, K.fy / s, K.cx / s, K.cy / s, w, h)


def project_points(pose: Pose, K: Intrinsics, positions: np.ndarray, work: BinWork | None = None):
    """Project an (N, 3) world array. Returns (u, v, z) float64 arrays;
    entries with z <= 0 are behind the camera (u, v undefined there).

    The camera frame is R^T (p - t): p is copied transposed, t is
    subtracted from each coordinate row, and x, y and z are `dot3`'s
    (p - t) @ R, written straight into their rows. u and v are then
    f * c / z + p, in that order, written over the rows of p - t.
    `work`, a `BinWork` of at least N rows, holds all of them in place of
    new arrays, with the same bits; without it one is made for the call. A
    caller binning many blocks makes one per view: otherwise glibc can
    return the freed arrays to the system after each block and fault them
    in again on the next, about 4000 page faults in the prune of a
    533k-row window."""
    pts = np.asarray(positions)
    work, n = _work(pts, work), len(pts)
    d, xyz = work.diff[:, :n], work.xyz[:, :n]
    np.copyto(d, pts.T)
    np.subtract(d, pose.translation[:, None], out=d)
    dot3(d.T, pose.rotation, out=xyz.T, scratch=work.tmp[:n])
    (x, y, z), (u, v) = xyz, d[:2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for out, c, f, p in ((u, x, K.fx, K.cx), (v, y, K.fy, K.cy)):
            np.add(np.divide(np.multiply(f, c, out=out), z, out=out), p, out=out)
    return u, v, z


def pixel_bins(pose: Pose, K: Intrinsics, positions: np.ndarray, work: BinWork | None = None):
    """The points with z > 0 whose pixel (floor(u), floor(v)) lies inside
    the image: (keep, pix, z), their rows in `positions` in order, their
    flat pixel index floor(v) * W + floor(u) (int64) and their depth.

    For a real u and an integer W, 0 <= u < W holds exactly when
    0 <= floor(u) < W, so bounds are decided on the float (u, v) and only
    the kept rows are floored. The index is exact in float64, as it is
    below W * H < 2^53, so it is cast once, and no out-of-image value is
    cast. `work` is `project_points`'s scratch; the bounds mask is
    written into it."""
    work = _work(positions, work)
    u, v, z = project_points(pose, K, positions, work)
    ok = work.ok[: len(z)]
    np.greater(z, 0, out=ok)
    for c, limit in ((u, K.width), (v, K.height)):
        ok &= c >= 0
        ok &= c < limit
    keep = np.flatnonzero(ok)
    pu, pv = u.take(keep), v.take(keep)
    np.floor(pu, out=pu)
    np.floor(pv, out=pv)
    pv *= K.width
    pv += pu
    return keep, pv.astype(np.int64), z.take(keep)
