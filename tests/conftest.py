import math
import struct
import warnings

import numpy as np
import pytest

from pointvis.connectivity import build_graph
from pointvis.errors import FormatError
from pointvis.geom import Intrinsics, Pose, project, world_to_camera
from pointvis.ingest import PointCloudMap, Scan, Sequence, accumulate
from pointvis.synth import CanyonParams, make_canyon, scene_map


@pytest.fixture(scope="session")
def small_canyon():
    params = CanyonParams(
        length=60.0, wall_gap=8.0, point_spacing=0.4, lidar_range=15.0,
        frame_step=1.0, occluders=1, seed=11,
        image_width=128, image_height=64, focal=64.0,
    )
    scene = make_canyon(params)
    cloud, surface_ids = scene_map(scene)
    seq = Sequence([(p.frame_id, p) for p in scene.trajectory], scene.intrinsics, cloud)
    graph = build_graph(seq, 5)
    return scene, cloud, surface_ids, seq, graph


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
