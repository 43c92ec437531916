import math
import struct
import warnings
from typing import NamedTuple

import numpy as np
import pytest

from pointvis.connectivity import build_graph
from pointvis.errors import DomainError, FormatError
from pointvis.geom import Intrinsics, Pose
from pointvis.ingest import Scan, Sequence, accumulate
from pointvis.synth import CanyonParams, make_canyon, scene_sequence


@pytest.fixture(scope="session")
def small_canyon():
    params = CanyonParams(
        length=60.0, wall_gap=8.0, point_spacing=0.4, lidar_range=15.0,
        frame_step=1.0, occluders=1, seed=11,
        image_width=128, image_height=64, focal=64.0,
    )
    scene = make_canyon(params)
    seq = scene_sequence(scene)
    graph = build_graph(seq, 5)
    return scene, seq.map, seq, graph


def uniform_sequence(n_scans, pts_per_scan, seed=0, spacing=1.0, with_colors=False):
    """Straight-line trajectory with random box-shaped scans around each pose."""
    rng = np.random.default_rng(seed)
    frames, scans, colors = [], [], []
    for t in range(n_scans):
        center = np.array([0.0, 0.0, t * spacing])
        pose = Pose(np.eye(3), center, t)
        frames.append((t, pose))
        pts = rng.uniform(-10, 10, size=(pts_per_scan, 3))
        pts[:, 2] = rng.uniform(-5, 30, size=pts_per_scan)
        scans.append(Scan(t, pts))
        if with_colors:
            colors.append(rng.uniform(0, 1, size=(pts_per_scan, 3)))
    cloud = accumulate(scans, [p for _, p in frames], colors=colors if with_colors else None)
    K = Intrinsics(64.0, 64.0, 64.0, 32.0, 128, 64)
    return Sequence(frames, K, cloud)


class CamPoint(NamedTuple):
    """A point in the camera frame; z is depth along the optical axis."""

    x: float
    y: float
    z: float


def world_to_camera(pose: Pose, p) -> CamPoint:
    """One world point in the camera frame, R^T (p - t), written apart from
    the package's vectorized transform in plain Python floats, each entry
    summed in the package's one order: (d0 R0j + d1 R1j) + d2 R2j for
    d = p - t. A non-finite point is a DomainError."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise DomainError(f"point must be 3 finite numbers, got {p}")
    d = [a - b for a, b in zip(p.tolist(), pose.translation.tolist())]
    return CamPoint(*((d[0] * r0 + d[1] * r1) + d[2] * r2 for r0, r1, r2 in zip(*pose.rotation.tolist())))


def project(K: Intrinsics, c: CamPoint):
    """The pinhole projection of a camera-frame point: (u, v, depth), or None at z <= 0."""
    if c.z <= 0:
        return None
    return (K.fx * c.x / c.z + K.cx, K.fy * c.y / c.z + K.cy, c.z)


def back_project(K: Intrinsics, u: float, v: float, depth: float) -> CamPoint:
    """Invert `project` for a known depth."""
    if depth <= 0:
        raise DomainError("depth must be positive")
    return CamPoint((u - K.cx) * depth / K.fx, (v - K.cy) * depth / K.fy, depth)


def brute_force_zbuffer(cloud, candidate_idx, pose, K):
    """Exhaustive per-pixel minimum, pure-Python: the pruning oracle."""
    best = {}
    for i in candidate_idx:
        c = world_to_camera(pose, cloud.positions[i])
        hit = project(K, c)
        if hit is None:
            continue
        u, v, depth = hit
        pu, pv = math.floor(u), math.floor(v)
        if not (0 <= pu < K.width and 0 <= pv < K.height):
            continue
        key = (pu, pv)
        if key not in best or (depth, i) < best[key]:
            best[key] = (depth, i)
    return {key: idx for key, (_, idx) in best.items()}


GRAPH_DEFECTS = ("rotation", "repeated-frame", "window-lo-above-hi", "n-zero")


def corrupt_graph(raw: bytes, defect: str) -> bytes:
    """A copy of a v1 graph file (two frames or more) with one defect from
    GRAPH_DEFECTS. The header is 31 bytes; each 120-byte entry holds the
    frame id, the row-major 3x4 pose and the (lo, hi) window."""
    raw = bytearray(raw)
    first, second = 31, 31 + 120
    if defect == "rotation":
        raw[first + 8 : first + 16] = struct.pack("<d", 2.0)
    elif defect == "repeated-frame":
        raw[second : second + 8] = raw[first : first + 8]
    elif defect == "window-lo-above-hi":
        raw[first + 104 : first + 120] = struct.pack("<QQ", 5, 3)
    elif defect == "n-zero":
        raw[13:15] = struct.pack("<H", 0)
    else:
        raise ValueError(defect)
    return bytes(raw)


def loads_or_format_error(reader, path):
    """`reader(path)` either returns or raises FormatError, and warns nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            reader(path)
        except FormatError:
            pass
