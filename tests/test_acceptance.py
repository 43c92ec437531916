"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(written to the real stdout so it shows up even under capture).
"""

import itertools
import math
import os
import sys
import time

import numpy as np
import pytest

from pointvis.bench import Strategy, run_strategy, subset_ratio, write_report_csv, read_report_csv
from pointvis.connectivity import (
    build_graph,
    load_graph,
    prune_visible,
    save_graph,
    visible_set_for,
)
from pointvis import ingest
from pointvis.errors import FormatError
from pointvis.geom import Intrinsics, Pose
from pointvis.ingest import (
    PointCloudMap,
    attach_descriptors,
    load_map,
    save_map,
)
from pointvis.losses import (
    ScaleScores,
    discriminator_adv_loss,
    downscale_reference,
    generator_adv_loss,
)
from pointvis.raster import Channels, load_raster, occupancy, rasterize, rasterize_pyramid, save_raster
from pointvis.render import psnr, render_rgb, ssim
from pointvis.synth import CanyonParams, make_canyon, oracle_paint, scene_sequence

from conftest import brute_force_zbuffer, uniform_sequence
from test_render import ssim_naive


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with _CAPTURE.disabled():
        print(line, file=sys.stdout, flush=True)
    assert ok, line


def _yaw_pitch(yaw: float, pitch: float) -> np.ndarray:
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    return ry @ rx


def _random_views(scene, count, seed):
    rng = np.random.default_rng(seed)
    views = []
    for k in range(count):
        base = scene.trajectory[int(rng.integers(len(scene.trajectory)))]
        rot = base.rotation @ _yaw_pitch(rng.uniform(-0.4, 0.4), rng.uniform(-0.15, 0.15))
        t = base.translation + rng.uniform(-0.5, 0.5, 3)
        views.append(Pose(rot, t, 1000 + k))
    return views


class TestCriterion1:
    def test_pruning_matches_exhaustive_oracle(self):
        params = CanyonParams(
            length=40.0, wall_gap=8.0, point_spacing=0.8, lidar_range=14.0,
            frame_step=2.0, occluders=1, seed=21,
            image_width=96, image_height=48, focal=48.0,
        )
        scene = make_canyon(params)
        cloud = scene_sequence(scene).map
        assert len(cloud) <= 100_000
        all_idx = np.arange(len(cloud), dtype=np.int64)
        views = _random_views(scene, 50, seed=100)
        mismatches = 0
        engine_s = 0.0
        for pose in views:
            t0 = time.perf_counter()
            vis = prune_visible(all_idx, cloud, pose, scene.intrinsics)
            engine_s += time.perf_counter() - t0
            got = {tuple(px): int(i) for px, i in zip(vis.pixel_of, vis.point_indices)}
            want = brute_force_zbuffer(cloud, all_idx, pose, scene.intrinsics)
            if got != want:
                mismatches += 1
        ok = mismatches == 0 and engine_s < 10.0
        _report(1, "visibility oracle equivalence",
                ok, f"{len(views)} views, {mismatches} mismatches, {engine_s:.2f}s")


class TestCriterion2:
    def test_fullmap_leaks_connectivity_does_not(self):
        params = CanyonParams(
            length=120.0, wall_gap=8.0, point_spacing=0.3, lidar_range=15.0,
            frame_step=1.0, occluders=2, seed=7, occluder_clearance=30.0,
            image_width=256, image_height=128, focal=128.0,
        )
        scene = make_canyon(params)
        seq = scene_sequence(scene)
        occ_z = [s.origin[2] for s in scene.surfaces[4:]]
        queries = [
            p for p in scene.trajectory
            if any(2.0 < z - p.translation[2] < 20.0 for z in occ_z)
        ][::4]
        ones = [1] * len(queries)
        full = run_strategy(Strategy("fullmap"), seq, queries,
                            surfaces=scene.surfaces, oracle_visible_counts=ones)
        conn = run_strategy(Strategy("connectivity", 5), seq, queries,
                            surfaces=scene.surfaces, oracle_visible_counts=ones)
        full_leak = float(np.mean([r.leak for r in full.rows]))
        conn_leak = float(np.mean([r.leak for r in conn.rows]))
        ok = full_leak >= 0.05 and conn_leak <= 0.01
        _report(2, "occlusion-leak mismatch reproduction",
                ok, f"fullmap leak {full_leak:.3f} >= 0.05, connectivity leak {conn_leak:.4f} <= 0.01")


class TestCriterion3:
    def test_subset_ratio_on_uniform_sequence(self):
        seq = uniform_sequence(300, 10, seed=30)
        queries = [p for _, p in seq.frames]
        rep = run_strategy(Strategy("connectivity", 5), seq, queries)
        ratio = subset_ratio(rep)
        target = 16.0 / 300.0
        ok = abs(ratio - target) <= 0.10 * target
        _report(3, "connectivity subset ratio",
                ok, f"measured {ratio:.5f} vs (3n+1)/S = {target:.5f} +/- 10%")


class TestCriterion4:
    def test_pruned_path_speedup_on_10m_map(self):
        seq = uniform_sequence(300, 33_334, seed=40)
        assert len(seq.map) >= 10_000_000
        graph = build_graph(seq, 5)
        all_idx = np.arange(len(seq.map), dtype=np.int64)
        queries = [p for _, p in seq.frames[7::15]][:20]
        assert len(queries) == 20
        ratios = []
        for pose in queries:
            t0 = time.perf_counter()
            prune_visible(all_idx, seq.map, pose, seq.intrinsics)
            full_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            visible_set_for(graph, seq.map, pose, seq.intrinsics)
            pruned_s = time.perf_counter() - t0
            ratios.append(full_s / pruned_s)
        median = float(np.median(ratios))
        ok = median >= 10.0
        _report(4, "pruned-path runtime scaling",
                ok, f"{len(seq.map)} points, median speedup {median:.1f}x >= 10x over {len(queries)} views")


class TestCriterion5:
    def test_pyramid_dims_and_occupancy_monotone(self):
        K = Intrinsics(400.0, 400.0, 512.0, 256.0, 1024, 512)
        rng = np.random.default_rng(50)
        pts = rng.uniform(-2, 2, (500, 3))
        pts[:, 2] = rng.uniform(1, 10, 500)
        cloud = PointCloudMap(pts, [(0, 0, 500)], colors=rng.uniform(0, 1, (500, 3)))
        pose = Pose(np.eye(3), np.zeros(3))
        pyr = rasterize_pyramid(cloud, np.arange(500), pose, K, levels=range(6))
        dims = [(img.mask.shape[0], img.mask.shape[1]) for img in pyr.levels]
        want = [(512 >> t, 1024 >> t) for t in range(6)]
        dims_ok = dims == want

        Ks = Intrinsics(32.0, 32.0, 32.0, 16.0, 64, 32)
        monotone_ok = True
        for trial in range(100):
            r = np.random.default_rng(500 + trial)
            p = r.uniform(-3, 3, (200, 3))
            p[:, 2] = r.uniform(0.5, 12, 200)
            c = PointCloudMap(p, [(0, 0, 200)], colors=r.uniform(0, 1, (200, 3)))
            py = rasterize_pyramid(c, np.arange(200), pose, Ks, levels=range(6))
            occ = [occupancy(img) for img in py.levels]
            if any(b < a - 1e-15 for a, b in zip(occ, occ[1:])):
                monotone_ok = False
                break
        ok = dims_ok and monotone_ok
        _report(5, "pyramid dimension law and occupancy monotonicity",
                ok, f"dims {dims[1:]} match H/2^t x W/2^t; occupancy non-decreasing on 100 sets: {monotone_ok}")


class TestCriterion6:
    def test_loss_unit_suite_and_additivity(self):
        tol = 1e-12
        checks = [
            abs(generator_adv_loss(ScaleScores([np.ones((3, 3))] * 4)) - 0.0) <= tol,
            abs(generator_adv_loss(ScaleScores([np.array([[0.5]])])) - 0.25) <= tol,
            abs(generator_adv_loss(ScaleScores([np.zeros((2, 2))] * 5)) - 5.0) <= tol,
            abs(discriminator_adv_loss(ScaleScores([np.zeros((2, 2))] * 3),
                                       ScaleScores([np.ones((2, 2))] * 3)) - 0.0) <= tol,
            abs(discriminator_adv_loss(ScaleScores([np.ones((2, 2))] * 2),
                                       ScaleScores([np.ones((2, 2))] * 2)) - 2.0) <= tol,
            abs(discriminator_adv_loss(ScaleScores([np.array([0.2, 0.4])]),
                                       ScaleScores([np.array([0.9])])) - 0.11) <= tol,
            np.array_equal(downscale_reference(np.full((4, 4, 3), 0.7), 1),
                           np.full((4, 4, 3), 0.7)),
            abs(downscale_reference(np.array([[0.0, 0.0], [1.0, 1.0]])[:, :, None], 2)[0, 0, 0] - 0.5) <= tol,
            np.allclose(downscale_reference(np.full((8, 8, 3), 0.3), 3), 0.3, atol=tol),
        ]
        additive = True
        rng = np.random.default_rng(60)
        for _ in range(100):
            a = ScaleScores([rng.normal(size=(3, 4)) for _ in range(3)])
            b = ScaleScores([rng.normal(size=(2, 2)) for _ in range(2)])
            both = ScaleScores(a.scores + b.scores)
            if abs(generator_adv_loss(both)
                   - generator_adv_loss(a) - generator_adv_loss(b)) > tol:
                additive = False
                break
        ok = all(checks) and additive
        _report(6, "loss unit suite",
                ok, f"{sum(checks)}/{len(checks)} fixtures at 1e-12, additivity over 100 random score sets: {additive}")


class TestCriterion7:
    def test_metric_fixtures(self):
        a = np.zeros((16, 16, 3))
        psnr_ok = (
            abs(psnr(a, np.full_like(a, 0.5)) - 10.0 * math.log10(1.0 / 0.25)) <= 1e-9
            and abs(psnr(a, np.ones_like(a)) - 0.0) <= 1e-9
            and math.isinf(psnr(a, a))
        )
        rng = np.random.default_rng(70)
        x = rng.uniform(0, 1, (32, 32, 3))
        y = np.clip(x + rng.normal(0, 0.1, (32, 32, 3)), 0, 1)
        ssim_diff = abs(ssim(x, y) - ssim_naive(x, y))
        ssim_ok = ssim_diff <= 1e-6 and abs(ssim(x, x) - 1.0) <= 1e-9
        ok = psnr_ok and ssim_ok
        _report(7, "metric fixtures",
                ok, f"analytic PSNR at 1e-9, |ssim - oracle| = {ssim_diff:.2e} <= 1e-6, ssim(a,a)=1")


class TestCriterion8:
    def test_render_quality_floor(self):
        params = CanyonParams(
            length=20.0, wall_gap=6.0, point_spacing=0.015, lidar_range=16.0,
            frame_step=4.0, occluders=0, seed=3, wall_height=10.0,
            image_width=1024, image_height=512, focal=400.0,
        )
        scene = make_canyon(params)
        seq = scene_sequence(scene)
        cloud = seq.map
        graph = build_graph(seq, 5)
        query = scene.trajectory[1]
        t0 = time.perf_counter()
        vis = visible_set_for(graph, cloud, query, scene.intrinsics)
        pyr = rasterize_pyramid(cloud, vis, query, scene.intrinsics)
        img = render_rgb(pyr)
        frame_s = time.perf_counter() - t0
        ref = oracle_paint(query, scene.intrinsics, scene.surfaces)
        score = psnr(img, ref)
        ok = score >= 25.0 and frame_s < 5.0
        _report(8, "render quality floor",
                ok, f"PSNR {score:.2f} dB >= 25 at 512x1024, frame in {frame_s:.2f}s < 5s")


class TestCriterion9:
    def test_thread_and_seed_determinism(self):
        params = CanyonParams(
            length=50.0, wall_gap=8.0, point_spacing=0.3, lidar_range=15.0,
            frame_step=1.0, occluders=1, seed=9,
            image_width=128, image_height=64, focal=64.0,
        )
        scene_a = make_canyon(params)
        scene_b = make_canyon(params)
        seed_ok = all(
            np.array_equal(sa.points, sb.points)
            for sa, sb in zip(scene_a.scans, scene_b.scans)
        )
        seq = scene_sequence(scene_a)
        cloud = attach_descriptors(seq.map, seed=1)
        graph = build_graph(seq, 5)
        query = scene_a.trajectory[len(scene_a.trajectory) // 2]
        prev = os.environ.get("CENPBG_THREADS")
        outputs = []
        try:
            for workers in ("1", "2", "8"):
                os.environ["CENPBG_THREADS"] = workers
                vis = visible_set_for(graph, cloud, query, scene_a.intrinsics)
                pyr = rasterize_pyramid(cloud, vis, query, scene_a.intrinsics)
                img = render_rgb(pyr)
                outputs.append((
                    vis.point_indices.tobytes(), vis.pixel_of.tobytes(), vis.depth_of.tobytes(),
                    img.tobytes(),
                    rasterize(cloud, vis, query, scene_a.intrinsics, 0,
                              Channels.DESCRIPTOR).features.tobytes(),
                ))
        finally:
            if prev is None:
                os.environ.pop("CENPBG_THREADS", None)
            else:
                os.environ["CENPBG_THREADS"] = prev
        threads_ok = outputs[0] == outputs[1] == outputs[2]
        ok = seed_ok and threads_ok
        _report(9, "determinism across workers and seeds",
                ok, f"1/2/8 workers bit-identical: {threads_ok}, seed repeat bit-identical: {seed_ok}")


class TestCriterion10:
    @staticmethod
    def _tamper(path, offset, payload):
        data = bytearray(path.read_bytes())
        data[offset : offset + len(payload)] = payload
        path.write_bytes(bytes(data))

    def test_round_trips_and_rejections(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(101)
        pts = rng.uniform(-10, 10, (64, 3)).astype(np.float32).astype(np.float64)
        colors = rng.uniform(0, 1, (64, 3)).astype(np.float32).astype(np.float64)
        desc = attach_descriptors(
            PointCloudMap(pts, [(0, 0, 40), (2, 40, 24)]), seed=2
        ).descriptors.astype(np.float32).astype(np.float64)
        cloud = PointCloudMap(pts, [(0, 0, 40), (2, 40, 24)], colors=colors, descriptors=desc)
        save_map(tmp_path / "m.bin", cloud)
        back = load_map(tmp_path / "m.bin")
        map_ok = (
            np.array_equal(back.positions, cloud.positions)
            and np.array_equal(back.colors, cloud.colors)
            and np.array_equal(back.descriptors, cloud.descriptors)
            and back.scan_ranges == cloud.scan_ranges
        )

        seq = uniform_sequence(12, 5, seed=102)
        graph = build_graph(seq, 5)
        save_graph(tmp_path / "g.bin", graph)
        graph_ok = load_graph(tmp_path / "g.bin") == graph

        K = Intrinsics(32.0, 32.0, 32.0, 16.0, 64, 32)
        img = rasterize(cloud, np.arange(len(cloud)), seq.frames[3][1], K, 1,
                        Channels.DESCRIPTOR)
        img = type(img)(img.level, img.features.astype(np.float32).astype(np.float64),
                        np.where(np.isfinite(img.depth),
                                 img.depth.astype(np.float32).astype(np.float64), np.inf),
                        img.mask)
        save_raster(tmp_path / "r.bin", img)
        rast = load_raster(tmp_path / "r.bin")
        raster_ok = (
            rast.level == img.level
            and np.array_equal(rast.mask, img.mask)
            and np.array_equal(rast.features, img.features)
            and np.array_equal(rast.depth[rast.mask], img.depth[img.mask])
        )

        rep = run_strategy(Strategy("connectivity", 5), seq,
                           [p for _, p in seq.frames[::4]])
        write_report_csv(tmp_path / "rep.csv", rep)
        back_rep = read_report_csv(tmp_path / "rep.csv", rep.strategy, rep.map_size)

        def same(x, y):
            return x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))

        report_ok = len(back_rep.rows) == len(rep.rows) and all(
            all(same(getattr(a, f), getattr(b, f)) for f in
                ("frame_id", "retrieved", "visible", "leak", "precision",
                 "recall", "prune_s", "raster_s"))
            for a, b in zip(back_rep.rows, rep.rows)
        )

        rejections = 0
        for name, loader in (("m.bin", load_map), ("g.bin", load_graph), ("r.bin", load_raster)):
            bad_magic = tmp_path / ("magic_" + name)
            bad_magic.write_bytes((tmp_path / name).read_bytes())
            self._tamper(bad_magic, 0, b"XXXX")
            bad_ver = tmp_path / ("ver_" + name)
            bad_ver.write_bytes((tmp_path / name).read_bytes())
            self._tamper(bad_ver, 11, (99).to_bytes(2, "little"))
            # each file is read in one call, then with every array in two halves
            for split_bytes, bad in itertools.product((ingest._SPLIT_BYTES, 1), (bad_magic, bad_ver)):
                monkeypatch.setattr(ingest, "_SPLIT_BYTES", split_bytes)
                try:
                    loader(bad)
                except FormatError:
                    rejections += 1
        ok = map_ok and graph_ok and raster_ok and report_ok and rejections == 12
        _report(10, "format round-trips and rejection",
                ok, f"map/graph/raster/report lossless: "
                    f"{map_ok}/{graph_ok}/{raster_ok}/{report_ok}, "
                    f"{rejections}/12 loads of the 6 corrupt files rejected, in one read and in halves")
