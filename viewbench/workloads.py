"""The benchmark's three workloads: scene set-up from a seed, the query
poses, and one view through the public pointvis functions.

Every call into pointvis goes through `tracer.call(<module>.<function>, ...)`
so a traced run can attribute time to each layer; with tracing off the
tracer is a `NullTracer` and the calls are the same.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from pointvis.connectivity import (
    build_graph,
    candidate_indices,
    load_graph,
    nearest_frame,
    prune_visible,
    retrieve_candidates,
    save_graph,
)
from pointvis.geom import Intrinsics, Pose
from pointvis.ingest import (
    Scan,
    Sequence,
    accumulate,
    load_map,
    read_intrinsics,
    save_map,
    write_intrinsics,
)
from pointvis.raster import DEFAULT_LEVELS, Channels, rasterize_pyramid
from pointvis.render import render_rgb, write_ppm
from pointvis.synth import CanyonParams, make_canyon

WINDOW_N = 5  # the connectivity window parameter n, as in the acceptance scenes


@dataclass
class Scene:
    """What a workload's views need after set-up."""

    K: Intrinsics
    trajectory: list[Pose]
    map_points: int
    map_bytes: int  # positions + colors in memory
    cloud: object = None  # PointCloudMap held in memory; None when views read it from disk
    graph: object = None
    surfaces: list | None = None  # known surfaces, for the oracle
    files: dict | None = None  # cold_render: map, graph, intrinsics and output paths


@dataclass
class ViewOut:
    vis: object  # VisibleSet
    pyramid: object  # RasterPyramid
    img: np.ndarray
    candidates: int


def _yaw_pitch(yaw: float, pitch: float) -> np.ndarray:
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    return ry @ rx


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws, one in each of n equal slices of [lo, hi], in random order.

    Stratified draws keep the mix of cheap and costly views nearly the same
    from seed to seed, which keeps a run's mean view time steady.
    """
    return rng.permutation(lo + (np.arange(n) + rng.uniform(size=n)) * (hi - lo) / n)


def _canyon_scene(params: CanyonParams, tracer) -> Scene:
    scene = tracer.call("synth.make_canyon", make_canyon, params)
    cloud = tracer.call(
        "ingest.accumulate", accumulate, scene.scans, scene.trajectory, colors=scene.scan_colors
    )
    frames = [(p.frame_id, p) for p in scene.trajectory]
    graph = tracer.call("connectivity.build_graph", build_graph, Sequence(frames, scene.intrinsics, cloud), WINDOW_N)
    return Scene(
        scene.intrinsics, scene.trajectory, len(cloud), cloud.positions.nbytes + cloud.colors.nbytes,
        cloud=cloud, graph=graph, surfaces=scene.surfaces,
    )


def _in_memory_view(scene: Scene, query: Pose, tracer) -> ViewOut:
    return _render(scene.cloud, scene.graph, scene.K, query, tracer)


def _render(cloud, graph, K: Intrinsics, query: Pose, tracer) -> ViewOut:
    """Nearest frame, window retrieval, prune, pyramid and RGB render."""
    fid = tracer.call("connectivity.nearest_frame", nearest_frame, graph, query)
    ranges = tracer.call("connectivity.retrieve_candidates", retrieve_candidates, graph, cloud, fid)
    cand = tracer.call("connectivity.candidate_indices", candidate_indices, ranges)
    vis = tracer.call("connectivity.prune_visible", prune_visible, cand, cloud, query, K, source_frame=fid)
    pyr = tracer.call(
        "raster.rasterize_pyramid", rasterize_pyramid, cloud, vis, query, K, DEFAULT_LEVELS, Channels.COLOR
    )
    img = tracer.call("render.render_rgb", render_rgb, pyr)
    return ViewOut(vis, pyr, img, len(cand))


# dense_frame: the acceptance-08 scene; 5 frames and n=5, so every view's
# window is the whole 11.6M-point map.

def dense_setup(seed: int, tiny: bool, tracer, workdir: str) -> Scene:
    if tiny:
        size = dict(point_spacing=0.1, image_width=128, image_height=64, focal=50.0)
    else:
        size = dict(point_spacing=0.015, image_width=1024, image_height=512, focal=400.0)
    params = CanyonParams(
        length=20.0, wall_gap=6.0, lidar_range=16.0, frame_step=4.0, occluders=0,
        seed=seed, wall_height=10.0, **size,
    )
    return _canyon_scene(params, tracer)


def dense_poses(scene: Scene, seed: int) -> list[Pose]:
    """One view perturbed around each of the 5 frame poses. The perturbation
    is small: a frame's view cost depends on how much of the map is ahead of
    it, and a small one keeps that nearly the same from seed to seed."""
    rng = np.random.default_rng([seed, 1])
    views = []
    for k, base in enumerate(scene.trajectory):
        rot = base.rotation @ _yaw_pitch(rng.uniform(-0.05, 0.05), rng.uniform(-0.03, 0.03))
        views.append(Pose(rot, base.translation + rng.uniform(-0.1, 0.1, 3), 1000 + k))
    return views


# occluded_canyon: the acceptance-02 scene; 120 frames, so a window is a
# small slice of the map.

def occluded_setup(seed: int, tiny: bool, tracer, workdir: str) -> Scene:
    if tiny:
        size = dict(point_spacing=0.6, image_width=64, image_height=32, focal=32.0)
    else:
        size = dict(point_spacing=0.3, image_width=256, image_height=128, focal=128.0)
    params = CanyonParams(
        length=120.0, wall_gap=8.0, lidar_range=15.0, frame_step=1.0, occluders=2,
        seed=seed, occluder_clearance=30.0, **size,
    )
    return _canyon_scene(params, tracer)


OCCLUDED_VIEWS = 96


def occluded_poses(scene: Scene, seed: int) -> list[Pose]:
    """Forward-looking views off the trajectory: anywhere across the street
    and between frames, and one in eight past the closed end of the canyon,
    where nothing is in front of the camera and the visible set is empty."""
    rng = np.random.default_rng([seed, 1])
    length = scene.trajectory[-1].translation[2] + 1.0
    n_out = OCCLUDED_VIEWS // 8
    z_in = iter(_strata(rng, OCCLUDED_VIEWS - n_out, -5.0, length - 1.0))
    z_out = iter(_strata(rng, n_out, length + 3.0, length + 7.0))
    x, y = _strata(rng, OCCLUDED_VIEWS, -2.5, 2.5), _strata(rng, OCCLUDED_VIEWS, -0.5, 0.5)
    yaw, pitch = _strata(rng, OCCLUDED_VIEWS, -0.35, 0.35), _strata(rng, OCCLUDED_VIEWS, -0.1, 0.1)
    views = []
    for k in range(OCCLUDED_VIEWS):
        z = next(z_out) if k % 8 == 7 else next(z_in)
        views.append(Pose(_yaw_pitch(yaw[k], pitch[k]), np.array([x[k], y[k], z]), 1000 + k))
    return views


# cold_render: a 10M-point uniform 300-scan sequence (acceptance 04's size)
# written to disk during set-up; each view repeats `pointvis render`.

def cold_setup(seed: int, tiny: bool, tracer, workdir: str) -> Scene:
    n_scans, per_scan = (40, 500) if tiny else (300, 33_334)
    rng = np.random.default_rng([seed, 0])
    frames, scans, colors = [], [], []
    for t in range(n_scans):
        pose = Pose(np.eye(3), np.array([0.0, 0.0, float(t)]), t)
        frames.append((t, pose))
        pts = rng.uniform(-10, 10, size=(per_scan, 3))
        pts[:, 2] = rng.uniform(-5, 30, size=per_scan)
        scans.append(Scan(t, pts))
        colors.append(rng.uniform(0, 1, size=(per_scan, 3)))
    cloud = tracer.call("ingest.accumulate", accumulate, scans, [p for _, p in frames], colors=colors)
    del scans, colors
    K = Intrinsics(64.0, 64.0, 64.0, 32.0, 128, 64)
    graph = tracer.call("connectivity.build_graph", build_graph, Sequence(frames, K, cloud), WINDOW_N)
    files = {name: os.path.join(workdir, name) for name in ("map.bin", "graph.bin", "intrinsics.txt", "view.ppm")}
    tracer.call("ingest.save_map", save_map, files["map.bin"], cloud)
    tracer.call("connectivity.save_graph", save_graph, files["graph.bin"], graph)
    tracer.call("ingest.write_intrinsics", write_intrinsics, files["intrinsics.txt"], K)
    return Scene(
        K, [p for _, p in frames], len(cloud), cloud.positions.nbytes + cloud.colors.nbytes, files=files
    )


COLD_VIEWS = 10


def cold_poses(scene: Scene, seed: int) -> list[Pose]:
    """Views near frames spread along the whole trajectory."""
    rng = np.random.default_rng([seed, 1])
    frames = _strata(rng, COLD_VIEWS, 0, len(scene.trajectory)).astype(np.int64)
    views = []
    for k in range(COLD_VIEWS):
        base = scene.trajectory[frames[k]]
        rot = _yaw_pitch(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1))
        views.append(Pose(rot, base.translation + rng.uniform(-0.5, 0.5, 3), 1000 + k))
    return views


def cold_view(scene: Scene, query: Pose, tracer) -> ViewOut:
    """`pointvis render` step for step: read map, graph and intrinsics,
    then retrieve, prune, rasterize, render and write the PPM."""
    files = scene.files
    cloud = tracer.call("ingest.load_map", load_map, files["map.bin"])
    graph = tracer.call("connectivity.load_graph", load_graph, files["graph.bin"])
    K = tracer.call("ingest.read_intrinsics", read_intrinsics, files["intrinsics.txt"])
    out = _render(cloud, graph, K, query, tracer)
    tracer.call("render.write_ppm", write_ppm, files["view.ppm"], out.img)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # (seed, tiny, tracer, workdir) -> Scene
    poses: object  # (scene, seed) -> list[Pose]
    view: object  # (scene, pose, tracer) -> ViewOut
    psnr_floor: bool = False  # require PSNR_MIN_DB against oracle_paint on every scored view
    score_leak: bool = False  # score leak against the ray-casting oracle


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_frame", dense_setup, dense_poses, _in_memory_view, psnr_floor=True),
        Workload("occluded_canyon", occluded_setup, occluded_poses, _in_memory_view, score_leak=True),
        Workload("cold_render", cold_setup, cold_poses, cold_view),
    )
}
