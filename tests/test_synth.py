import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pointvis import synth
from pointvis.errors import DomainError, FormatError
from pointvis.geom import Intrinsics, Pose, project_points
from pointvis.ingest import read_intrinsics
from pointvis.synth import (
    CanyonParams,
    Rect3,
    load_scans,
    make_canyon,
    oracle_paint,
    oracle_visible_many,
    read_scene,
    read_surfaces,
    scene_sequence,
    write_scene,
)

SMALL = CanyonParams(
    length=30.0, wall_gap=6.0, point_spacing=0.5, lidar_range=10.0,
    frame_step=1.0, seed=5, image_width=64, image_height=32, focal=32.0,
)


def canyon_samples(params):
    """The samples `make_canyon(params)` scans, their colors, and each one's surface index."""
    _, samples, colors, rows = synth._sample_canyon(params)
    return samples, colors, np.repeat(np.arange(len(rows)), rows)


class TestMakeCanyon:
    def test_frame_count(self):
        params = CanyonParams(length=100.0, frame_step=1.0, point_spacing=1.0, seed=0)
        scene = make_canyon(params)
        assert len(scene.trajectory) == 100
        assert len(scene.scans) == 100

    def test_deterministic(self):
        a = make_canyon(SMALL)
        b = make_canyon(SMALL)
        for sa, sb in zip(a.scans, b.scans):
            assert np.array_equal(sa.points, sb.points)
        for ca, cb in zip(a.scan_colors, b.scan_colors, strict=True):
            assert np.array_equal(ca, cb)

    # occluder clearance is the one path that drops samples, so the trimmed
    # rows matter only there
    @pytest.mark.parametrize("params", [SMALL, CanyonParams(
        length=24.0, wall_gap=6.0, point_spacing=0.5, lidar_range=9.0, frame_step=2.0, occluders=2,
        occluder_clearance=4.0, seed=4)], ids=["open", "cleared"])
    def test_scans_are_the_samples_in_range(self, params):
        scene = make_canyon(params)
        samples, colors, _ = canyon_samples(params)
        for pose, scan, col in zip(scene.trajectory, scene.scans, scene.scan_colors, strict=True):
            near = np.linalg.norm(samples - pose.translation, axis=1) <= params.lidar_range
            assert np.array_equal(scan.points, samples[near] - pose.translation)
            assert np.array_equal(col, colors[near])

    def test_points_lie_on_surfaces(self):
        scene = make_canyon(SMALL)
        samples, _, sample_surface = canyon_samples(SMALL)
        for idx in np.random.default_rng(30).choice(len(samples), 200):
            p = samples[idx]
            rect = scene.surfaces[sample_surface[idx]]
            n = rect.normal / np.linalg.norm(rect.normal)
            assert abs(np.dot(p - rect.origin, n)) <= 1e-6

    def test_scan_range_limit(self):
        scene = make_canyon(SMALL)
        for pose, scan in zip(scene.trajectory, scene.scans):
            assert np.linalg.norm(scan.points, axis=1).max() <= SMALL.lidar_range + 1e-9

    def test_no_occluders_all_in_frustum_visible(self):
        params = CanyonParams(
            length=20.0, wall_gap=6.0, point_spacing=0.8, lidar_range=8.0,
            frame_step=2.0, occluders=0, seed=1, close_end=False,
            image_width=64, image_height=32, focal=32.0,
        )
        scene = make_canyon(params)
        samples, _, _ = canyon_samples(params)
        pose = scene.trajectory[2]
        u, v, z = project_points(pose, scene.intrinsics, samples)
        ahead = z > 0
        ui = np.floor(np.where(ahead, u, -1)).astype(int)
        vi = np.floor(np.where(ahead, v, -1)).astype(int)
        in_frustum = ahead & (ui >= 0) & (ui < 64) & (vi >= 0) & (vi < 32)
        vis = oracle_visible_many(samples, pose, scene.intrinsics, scene.surfaces)
        assert np.array_equal(vis, in_frustum)

    def test_degenerate_spacing_rejected(self):
        with pytest.raises(DomainError):
            make_canyon(CanyonParams(point_spacing=10.0, wall_gap=8.0))

    # a request that gives no pose or no image is refused before any surface is sampled
    @pytest.mark.parametrize("change", [dict(frame_step=3.0, length=1.0), dict(image_width=0)])
    def test_unservable_request_refused_before_sampling(self, monkeypatch, change):
        sampled = []
        monkeypatch.setattr(synth, "texture_color", lambda *args: sampled.append(args))
        with pytest.raises(DomainError):
            make_canyon(CanyonParams(**change))
        assert sampled == []

    # physical memory faked as 64 MiB: the default canyon at spacing 0.027 has
    # 2.06M samples, which fit at 24 B a sample (49 MB) but not at the 48 B
    # that the samples and their colors take (99 MB)
    def test_samples_beyond_memory_refused_before_sampling(self, monkeypatch):
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1 << 14, "SC_PAGE_SIZE": 1 << 12}.__getitem__)
        sampled = []
        monkeypatch.setattr(synth, "texture_color", lambda *args: sampled.append(args))
        with pytest.raises(DomainError, match="2.0[0-9]*e\\+06 samples"):
            make_canyon(CanyonParams(point_spacing=0.027))
        assert sampled == []

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError):
            make_canyon(CanyonParams(wall_gap=8.0, lidar_range=4.0))

    def test_holds_only_its_scans(self):
        """numpy reports its buffers to tracemalloc. A scene holds its scans and
        scan colors and under 1 MiB beside them. Building it allocates the
        samples and their colors once (48 B a sample), and the peak adds the
        frame loop's temporaries: the squared xy distance kept for every frame,
        one frame's distances and mask, and the scan being cut, 20 B a kept
        sample (19.5 B measured)."""
        # ground 120 x 800, walls 800 x 160, end cap 120 x 160, occluders 120 x 120
        params = CanyonParams(length=40.0, wall_gap=6.0, point_spacing=0.05, lidar_range=8.0, frame_step=8.0,
                              occluders=2, occluder_clearance=4.0, seed=3, image_width=64, image_height=32)
        n_samples, kept = 400_000, sum(synth._sample_canyon(params)[3])
        assert kept < n_samples  # the clearance cut the tail
        make_canyon(SMALL)  # leave numpy's first-call allocations out of the trace
        tracemalloc.start()
        try:
            scene = make_canyon(params)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scan_bytes = sum(s.points.nbytes + c.nbytes for s, c in zip(scene.scans, scene.scan_colors, strict=True))
        assert held <= scan_bytes + 2**20
        assert peak <= scan_bytes + n_samples * 48 + kept * 20 + 2**20


def segment_t(origin, direction, rect):
    """`synth._ray_rect_t` on one row, kept in the open interval (0, 1): the
    t at which the segment origin + t*direction crosses the rectangle, or None."""
    t = float(synth._ray_rect_t(np.array([origin], float), np.array([direction], float), rect)[0])
    return t if 0.0 < t < 1.0 else None


class TestRayRectIntersect:
    RECT = Rect3([-1, -1, 5], [2, 0, 0], [0, 2, 0], [1, 1, 1])

    def test_through_center(self):
        t = segment_t([0, 0, 0], [0, 0, 10], self.RECT)
        assert abs(t - 0.5) <= 1e-12

    def test_parallel(self):
        assert segment_t([0, 0, 0], [1, 0, 0], self.RECT) is None

    def test_segment_stops_short(self):
        t = segment_t([0, 0, 0], [0, 0, 5 - 1e-9], self.RECT)
        assert t is None

    def test_misses_sideways(self):
        assert segment_t([5, 5, 0], [0, 0, 10], self.RECT) is None

    # edge_v's 1e50 along x cancels a Gram determinant g11*g22 - g12^2 to 0; the dual
    # vectors put (0, 1.5, 0) at a = 0.5, b = 0 on the sheared and the plain rectangle
    def test_sheared_rectangle_hit(self):
        for edge_v in ([1e50, 0, 24], [0, 0, 24]):
            rect = Rect3([-4, 1.5, 0], [8, 0, 0], edge_v, [1, 1, 1])
            assert segment_t([0, 0, -1], [0, 3, 2], rect) == 0.5


def triangle_hit(orig, delta, a, b, c, t_max):
    """Moller-Trumbore segment/triangle test (second implementation)."""
    e1, e2 = b - a, c - a
    pvec = np.cross(delta, e2)
    det = np.dot(e1, pvec)
    if abs(det) < 1e-14:
        return False
    inv = 1.0 / det
    tvec = orig - a
    u = np.dot(tvec, pvec) * inv
    if u < 0 or u > 1:
        return False
    qvec = np.cross(tvec, e1)
    v = np.dot(delta, qvec) * inv
    if v < 0 or u + v > 1:
        return False
    t = np.dot(e2, qvec) * inv
    return 0.0 < t < t_max


def rect_hit_via_triangles(orig, delta, rect, t_max):
    o = rect.origin
    a, b, c, d = o, o + rect.edge_u, o + rect.edge_u + rect.edge_v, o + rect.edge_v
    return triangle_hit(orig, delta, a, b, c, t_max) or triangle_hit(orig, delta, a, c, d, t_max)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ray_rect_matches_triangle_pair(seed):
    """The segment o + s*d, s in (0, 1), meets the rectangle's plane at
    s = t, at rectangle coordinates (a, b); about a fifth of samples hit."""
    rng = np.random.default_rng(seed)
    origin, edge_u, edge_v, d = rng.uniform(-4, 4, size=(4, 3))
    a, b = rng.uniform(-0.25, 1.25, size=2)
    t = rng.uniform(-0.5, 1.5)
    assume(abs(np.dot(np.cross(edge_u, edge_v), d)) > 1e-2)
    # keep samples off the rectangle's edges, its diagonal (shared by the
    # two triangles) and the segment's endpoints, where rounding decides
    assume(min(abs(a), abs(a - 1), abs(b), abs(b - 1), abs(a - b), abs(t), abs(t - 1)) > 1e-6)
    o = origin + a * edge_u + b * edge_v - t * d
    rect = Rect3(origin, edge_u, edge_v, [1, 1, 1])
    assert (segment_t(o, d, rect) is not None) == rect_hit_via_triangles(o, d, rect, 1.0)


class TestOracleVisible:
    def test_point_ahead_no_occluders(self):
        scene = make_canyon(SMALL)
        cloud = scene_sequence(scene).map
        pose = scene.trajectory[0]
        # pick a map point well within the frustum
        u, v, z = project_points(pose, scene.intrinsics, cloud.positions)
        ok = (z > 2) & (u > 10) & (u < 50) & (v > 5) & (v < 25)
        idx = int(np.nonzero(ok)[0][0])
        assert oracle_visible_many(cloud.positions[idx : idx + 1], pose, scene.intrinsics, scene.surfaces)[0]

    def test_full_corridor_occluder_blocks(self):
        scene = make_canyon(SMALL)
        cloud = scene_sequence(scene).map
        pose = scene.trajectory[0]
        u, v, z = project_points(pose, scene.intrinsics, cloud.positions)
        ok = (z > 5) & (u > 20) & (u < 40) & (v > 10) & (v < 20)
        idx = int(np.nonzero(ok)[0][0])
        blocker = Rect3([-10, -20, 1.0], [20, 0, 0], [0, 40, 0], [0, 0, 0])
        assert not oracle_visible_many(cloud.positions[idx : idx + 1], pose, scene.intrinsics,
                                       scene.surfaces + [blocker])[0]

    def test_matches_triangle_pair_oracle(self):
        params = CanyonParams(
            length=24.0, wall_gap=6.0, point_spacing=1.0, lidar_range=9.0,
            frame_step=3.0, occluders=2, seed=2, image_width=64, image_height=32, focal=32.0,
        )
        scene = make_canyon(params)
        samples, _, _ = canyon_samples(params)
        pose = scene.trajectory[3]
        pts = samples[:: max(1, len(samples) // 400)]
        got = oracle_visible_many(pts, pose, scene.intrinsics, scene.surfaces)
        u, v, z = project_points(pose, scene.intrinsics, pts)
        for i, p in enumerate(pts):
            if z[i] <= 0 or not (0 <= np.floor(u[i]) < 64 and 0 <= np.floor(v[i]) < 32):
                assert not got[i]
                continue
            delta = p - pose.translation
            blocked = any(
                rect_hit_via_triangles(pose.translation, delta, r, 1.0 - 1e-4)
                for r in scene.surfaces
            )
            assert got[i] == (not blocked)

    def test_adding_occluder_is_monotone(self):
        scene = make_canyon(SMALL)
        pose = scene.trajectory[1]
        pts = canyon_samples(SMALL)[0][::37]
        before = oracle_visible_many(pts, pose, scene.intrinsics, scene.surfaces)
        extra = Rect3([-3, -6, 4.0], [6, 0, 0], [0, 7.5, 0], [0.5, 0.5, 0.5])
        after = oracle_visible_many(pts, pose, scene.intrinsics, scene.surfaces + [extra])
        assert not np.any(after & ~before)

    def test_visible_implies_in_frustum(self):
        scene = make_canyon(SMALL)
        pose = scene.trajectory[4]
        pts = canyon_samples(SMALL)[0][::11]
        vis = oracle_visible_many(pts, pose, scene.intrinsics, scene.surfaces)
        u, v, z = project_points(pose, scene.intrinsics, pts)
        assert np.all(z[vis] > 0)
        assert np.all((np.floor(u[vis]) >= 0) & (np.floor(u[vis]) < 64))
        assert np.all((np.floor(v[vis]) >= 0) & (np.floor(v[vis]) < 32))


class TestOraclePaint:
    def test_background_where_nothing_hit(self):
        K = Intrinsics(16.0, 16.0, 16.0, 8.0, 32, 16)
        img = oracle_paint(Pose(np.eye(3), np.zeros(3)), K, [], background=0.5)
        assert np.all(img == 0.5)

    def test_painted_color_matches_sample_color(self):
        scene = make_canyon(SMALL)
        pose = scene.trajectory[0]
        img = oracle_paint(pose, scene.intrinsics, scene.surfaces)
        assert img.shape == (32, 64, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0
        # corridor end is open and above the walls is empty: some background
        assert np.any(np.all(img == 0.5, axis=2)) or SMALL.close_end


class TestSceneDump:
    def test_round_trip_surfaces(self, tmp_path):
        scene = make_canyon(SMALL)
        write_scene(tmp_path, scene)
        back = read_surfaces(tmp_path / "surfaces.txt")
        assert len(back) == len(scene.surfaces)
        for a, b in zip(back, scene.surfaces):
            assert np.array_equal(a.origin, b.origin)
            assert np.array_equal(a.edge_u, b.edge_u)
            assert np.array_equal(a.edge_v, b.edge_v)
            assert np.array_equal(a.color, b.color)

    def test_degenerate_surface_names_line(self, tmp_path):
        path = tmp_path / "surfaces.txt"
        path.write_text("0 0 0 1 0 0 0 1 0 0.5 0.5 0.5\n0 0 0 1 0 0 2 0 0 0.5 0.5 0.5\n")
        with pytest.raises(FormatError, match="surfaces.txt:2: degenerate rectangle"):
            read_surfaces(path)

    # images/ and surfaces.txt are the layout's optional parts: the map is
    # colored only with images, and the surfaces are None without the file.
    @pytest.mark.parametrize("images", [True, False])
    def test_read_scene_round_trip(self, tmp_path, images):
        scene = make_canyon(SMALL)
        write_scene(tmp_path, scene, with_images=images)
        want = scene_sequence(scene)
        for surfaces_file in (True, False):
            if not surfaces_file:
                (tmp_path / "surfaces.txt").unlink()
            seq, surfaces = read_scene(tmp_path)
            assert seq.frame_ids() == want.frame_ids() and seq.intrinsics == want.intrinsics
            for (_, a), (_, b) in zip(seq.frames, want.frames, strict=True):
                assert np.array_equal(a.rotation, b.rotation) and np.array_equal(a.translation, b.translation)
            assert seq.map.scan_ranges == want.map.scan_ranges
            np.testing.assert_allclose(seq.map.positions, want.map.positions, atol=1e-5)  # float32 scan files
            assert (seq.map.colors is not None) == images
            if images:  # the points in their own scan's view
                assert np.isfinite(seq.map.colors).any()
            if surfaces_file:
                assert [s.origin.tolist() for s in surfaces] == [s.origin.tolist() for s in scene.surfaces]
            else:
                assert surfaces is None

    # Every field is finite, but a number the ray-rectangle solve derives from
    # the line is not: rejected where it enters, and without a warning.
    @pytest.mark.parametrize("line", [
        "0 0 0 1e308 0 0 0 1 0 0.5 0.5 0.5",
        "0 0 0 1e100 0 0 0 1e110 0 0.5 0.5 0.5",
        "1e308 0 0 2 0 0 0 1 0 0.5 0.5 0.5",
    ], ids=["gram-entry", "gram-determinant", "origin-along-edge"])
    def test_overflowing_surface_names_line(self, tmp_path, line):
        path = tmp_path / "surfaces.txt"
        path.write_text("0 0 0 1 0 0 0 1 0 0.5 0.5 0.5\n" + line + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="surfaces.txt:2: rectangle too large"):
                read_surfaces(path)

    # An edge of 1e120 along z leaves the normal, the dual vectors and the bound on
    # a hit's terms finite: a valid rectangle, met at a = 5e-121, b = 0.5
    def test_long_sheared_surface_accepted_and_hit(self, tmp_path):
        path = tmp_path / "surfaces.txt"
        path.write_text("0 0 0 8 0 1e120 0 0 24 0.5 0.5 0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (rect,) = read_surfaces(path)
            assert segment_t([4e-120, -1, 12.5], [0, 2, 0], rect) == 0.5
            assert segment_t([4e-120, -1, 50], [0, 2, 0], rect) is None

    def test_load_scans_holds_one_image(self, tmp_path):
        """numpy reports its buffers to tracemalloc. Coloring a loaded map
        holds the scans (their files' 16 B a point), the map's positions and
        colors (48 B a point) and one image (24 B a pixel) at once, plus the
        image file's bytes while it is read (3 B a pixel) and under 1 MiB:
        one scan's binning temporaries and small objects. Holding all 12
        images would take 24 B a pixel for each."""
        params = CanyonParams(length=24.0, wall_gap=6.0, point_spacing=0.5, lidar_range=9.0, frame_step=2.0,
                              seed=4, image_width=256, image_height=128)
        write_scene(tmp_path, make_canyon(params), with_images=True)
        K = read_intrinsics(tmp_path / "intrinsics.txt")
        args = (tmp_path / "scans", tmp_path / "poses.txt", tmp_path / "images", K)
        load_scans(*args)  # leave numpy's first-call allocations out of the trace
        tracemalloc.start()
        try:
            _, cloud = load_scans(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cloud.scan_ranges) == 12 and np.isfinite(cloud.colors).any()
        assert peak <= len(cloud) * (16 + 48) + K.width * K.height * (24 + 3) + 2**20

    def test_dump_is_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            write_scene(tmp_path / sub, make_canyon(SMALL))
        for name in ("poses.txt", "intrinsics.txt", "surfaces.txt", "scans/000003.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
