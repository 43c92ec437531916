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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_ORTHO_TOL = 1e-6


def _as_matrix(value, shape, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise DomainError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class Pose:
    """Camera-to-world rigid transform."""

    rotation: np.ndarray
    translation: np.ndarray
    frame_id: int | None = None

    def __post_init__(self):
        rot = _as_matrix(self.rotation, (3, 3), "rotation")
        t = _as_matrix(self.translation, (3,), "translation")
        err = np.abs(rot.T @ rot - np.eye(3)).max()
        if err > _ORTHO_TOL:
            raise DomainError(f"rotation is not orthonormal (|R^T R - I|_max = {err:.3g})")
        det = np.linalg.det(rot)
        if not (1.0 - _ORTHO_TOL <= det <= 1.0 + _ORTHO_TOL):
            raise DomainError(f"rotation determinant {det:.6f} is not +1")
        if self.frame_id is not None and self.frame_id < 0:
            raise DomainError("frame_id must be non-negative")
        rot.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", t)

    @property
    def camera_center(self) -> np.ndarray:
        return self.translation

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pose):
            return NotImplemented
        return (
            np.array_equal(self.rotation, other.rotation)
            and np.array_equal(self.translation, other.translation)
            and self.frame_id == other.frame_id
        )

    def __hash__(self):
        return hash((self.rotation.tobytes(), self.translation.tobytes(), self.frame_id))


def identity_pose(frame_id: int | None = None) -> Pose:
    return Pose(np.eye(3), np.zeros(3), frame_id)


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
        for v in (self.fx, self.fy, self.cx, self.cy):
            if not np.isfinite(v):
                raise DomainError("intrinsics must be finite")


@dataclass(frozen=True)
class CamPoint:
    """A point in the camera frame; z is depth along the optical axis."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y) and np.isfinite(self.z)):
            raise DomainError("camera point must be finite")


def world_to_camera(pose: Pose, p) -> CamPoint:
    """Map a world point into the camera frame: R^T (p - t)."""
    p = _as_matrix(p, (3,), "point")
    c = pose.rotation.T @ (p - pose.translation)
    return CamPoint(float(c[0]), float(c[1]), float(c[2]))


def world_to_camera_many(pose: Pose, points: np.ndarray) -> np.ndarray:
    """Vectorized R^T (p - t) for an (N, 3) array."""
    pts = np.asarray(points, dtype=np.float64)
    return (pts - pose.translation) @ pose.rotation


def project(K: Intrinsics, c: CamPoint):
    """Project a camera-frame point; returns (u, v, depth) or None if behind."""
    if c.z <= 0:
        return None
    u = K.fx * c.x / c.z + K.cx
    v = K.fy * c.y / c.z + K.cy
    return (u, v, c.z)


def back_project(K: Intrinsics, u: float, v: float, depth: float) -> CamPoint:
    """Invert `project` for a known depth."""
    if depth <= 0:
        raise DomainError("depth must be positive")
    return CamPoint((u - K.cx) * depth / K.fx, (v - K.cy) * depth / K.fy, depth)


def scale_intrinsics(K: Intrinsics, level: int) -> Intrinsics:
    """Intrinsics for pyramid level t: focals and principal point / 2^t,
    dimensions floor-divided."""
    if level < 0:
        raise DomainError("level must be non-negative")
    if level == 0:
        return K
    s = 2**level
    w, h = K.width // s, K.height // s
    if w == 0 or h == 0:
        raise DomainError(f"level {level} collapses a {K.width}x{K.height} image to zero size")
    return Intrinsics(K.fx / s, K.fy / s, K.cx / s, K.cy / s, w, h)


def project_points(pose: Pose, K: Intrinsics, positions: np.ndarray):
    """Project an (N, 3) world array. Returns (u, v, z) float64 arrays;
    entries with z <= 0 are behind the camera (u, v undefined there)."""
    cam = world_to_camera_many(pose, positions)
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = K.fx * cam[:, 0] / z + K.cx
        v = K.fy * cam[:, 1] / z + K.cy
    return u, v, z


def pixel_bins(pose: Pose, K: Intrinsics, positions: np.ndarray):
    """Integer pixel of each world point: (ok, ui, vi, z), where
    (ui, vi) = (floor(u), floor(v)) and ok marks points with z > 0 whose
    pixel lies inside the image. ui and vi are -1 for points behind the
    camera; z is the depth of every point."""
    u, v, z = project_points(pose, K, positions)
    ahead = z > 0
    ui = np.floor(np.where(ahead, u, -1)).astype(np.int64)
    vi = np.floor(np.where(ahead, v, -1)).astype(np.int64)
    ok = ahead & (ui >= 0) & (ui < K.width) & (vi >= 0) & (vi < K.height)
    return ok, ui, vi, z
