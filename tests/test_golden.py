"""Pinned output bits: a fixed small scene's map file and views hash to a
recorded value, so a change to any output bit fails tier-1 on every run.

A change that alters output bits on purpose records the new values here and
says why. Every product whose result reaches an output is summed in one
fixed order (`geom.dot3`), not by BLAS, so the value is the same whatever
OpenBLAS kernel the machine gets, with FMA or without.
"""
import hashlib

import numpy as np

from pointvis import ingest
from pointvis.connectivity import build_graph, visible_set_for
from pointvis.geom import Pose
from pointvis.ingest import attach_descriptors, load_map, save_map
from pointvis.raster import Channels, rasterize_pyramid
from pointvis.render import render_rgb
from pointvis.synth import CanyonParams, make_canyon, scene_sequence

# sha256 of the map file, and of every view's visible indices, pixels, depths,
# RGB and descriptor levels
PINNED = (
    "8a7e97e54f3ece980cfce071b6f9721ae021fde5a3eddffa21a0c200ff3c1f5e",
    "c6fc381624a83e9c2fab87bbcd3e960f1aab725659745fdf218dc493e13a4675",
)


def _hash(h, *arrays):
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.data)


def test_output_bits_match_a_pinned_value(tmp_path, monkeypatch):
    # the scene of `scripts/compare_cli_outputs.sh`: 12 frames, 17k map rows, a closed end at z = 24
    scene = make_canyon(CanyonParams(length=24.0, point_spacing=0.5, lidar_range=9.0, frame_step=2.0,
                                     occluders=1, seed=4, image_width=64, image_height=32))
    seq = scene_sequence(scene)
    save_map(tmp_path / "m.map", attach_descriptors(seq.map, channels=4, seed=3))
    map_sha = hashlib.sha256((tmp_path / "m.map").read_bytes()).hexdigest()
    monkeypatch.setattr(ingest, "_SPLIT_BYTES", 1 << 16)  # the file and its positions are read in two halves
    cloud = load_map(tmp_path / "m.map")
    np.testing.assert_array_equal(cloud.positions, seq.map.positions.astype(np.float32), strict=True)
    np.testing.assert_array_equal(cloud.colors, seq.map.colors.astype(np.float32), strict=True)

    graph, K, traj = build_graph(seq, 3), scene.intrinsics, scene.trajectory
    half_turn = np.diag([-1.0, 1.0, -1.0])  # looking down -z
    up = np.array([[1.0, 0, 0], [0, 0, 1], [0, -1, 0]])  # looking up +y
    cy, sy, cp, sp = np.cos(0.3), np.sin(0.3), np.cos(0.1), np.sin(0.1)
    turned = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]]) @ np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    poses = {
        "frame 4": traj[4],
        # a rotation with no zero entry, so the camera transform rounds
        "between frames 4 and 5, turned": Pose(turned, (traj[4].translation + traj[5].translation) / 2),
        "past the closed end, looking back": Pose(half_turn, traj[-1].translation + [0.0, 0.0, 8.0]),
        "empty, looking up from above": Pose(up, traj[0].translation + [0.0, 100.0, 0.0]),
    }
    h = hashlib.sha256()
    counts = {}
    for name, pose in poses.items():
        vis = visible_set_for(graph, cloud, pose, K)
        counts[name] = len(vis)
        img = render_rgb(rasterize_pyramid(cloud, vis, pose, K))
        _hash(h, vis.point_indices, vis.pixel_of, vis.depth_of, img)
        if name == "frame 4":
            for level in rasterize_pyramid(cloud, vis, pose, K, (0, 1, 3), Channels.DESCRIPTOR).levels:
                _hash(h, level.features, level.depth, level.mask)
    assert counts["empty, looking up from above"] == 0 and min(list(counts.values())[:3]) > 0, counts
    got = (map_sha, h.hexdigest())
    assert got == PINNED, (
        f"output bits changed: map {got[0]}, views {got[1]}; a change that means to alter them records these in PINNED"
    )
