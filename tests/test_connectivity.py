import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointvis import zbuffer
from pointvis.connectivity import (
    _GRAPH_ENTRY,
    ConnectivityGraph,
    build_graph,
    load_graph,
    nearest_frame,
    prune_visible,
    save_graph,
    visible_set_for,
    window_rows,
)
from pointvis.errors import DomainError, FormatError
from pointvis.geom import Intrinsics, Pose
from pointvis.ingest import PointCloudMap, Sequence
from pointvis.zbuffer import zbuffer_winners

from conftest import GRAPH_DEFECTS, brute_force_zbuffer, corrupt_graph, uniform_sequence


class TestBuildGraph:
    def test_interior_window(self):
        seq = uniform_sequence(300, 5, seed=0)
        graph = build_graph(seq, 5)
        assert graph.window(10) == (5, 20)
        assert graph.window(10)[1] - graph.window(10)[0] + 1 == 16  # 3n + 1

    def test_clamp_at_start(self):
        seq = uniform_sequence(300, 5, seed=0)
        assert build_graph(seq, 5).window(0) == (0, 10)

    def test_clamp_at_end(self):
        seq = uniform_sequence(300, 5, seed=0)
        assert build_graph(seq, 5).window(299) == (294, 299)

    def test_n_zero_rejected(self):
        seq = uniform_sequence(10, 5, seed=0)
        with pytest.raises(DomainError):
            build_graph(seq, 0)

    def test_empty_window_rejected(self):
        scans = uniform_sequence(5, 5, seed=0)
        poses = uniform_sequence(20, 1, seed=0).frames
        seq = Sequence(poses, scans.intrinsics, scans.map)
        with pytest.raises(DomainError, match=r"frame 7 has an empty scan window \(5, 4\)"):
            build_graph(seq, 2)
        assert build_graph(Sequence(poses[:7], scans.intrinsics, scans.map), 2).window(6) == (4, 4)

    @pytest.mark.parametrize("fids", [[-1, 0], [0, 0], [2, 1]])
    def test_frame_ids_non_negative_and_increasing(self, fids):
        """The graph table stores frame ids unsigned and searches them sorted."""
        seq = uniform_sequence(3, 5, seed=24)
        with pytest.raises(DomainError, match="non-negative and strictly increasing"):
            Sequence([(fid, Pose(np.eye(3), np.zeros(3))) for fid in fids], seq.intrinsics, seq.map)

    def test_every_frame_has_entry(self):
        seq = uniform_sequence(50, 5, seed=1)
        graph = build_graph(seq, 3)
        assert graph.table["frame"].tolist() == seq.frame_ids()


class TestNearestFrame:
    def test_exact_pose_match(self):
        seq = uniform_sequence(100, 5, seed=2)
        graph = build_graph(seq, 5)
        assert nearest_frame(graph, seq.frames[42][1]) == 42

    def test_tie_breaks_to_smaller_id(self):
        seq = uniform_sequence(10, 5, seed=3, spacing=2.0)
        graph = build_graph(seq, 2)
        midway = Pose(np.eye(3), [0.0, 0.0, 7.0])  # centers at z=6 and z=8
        assert nearest_frame(graph, midway) == 3

    def test_matches_linear_scan_oracle(self):
        seq = uniform_sequence(80, 5, seed=4)
        graph = build_graph(seq, 5)
        rng = np.random.default_rng(5)
        for _ in range(50):
            q = Pose(np.eye(3), rng.uniform(-5, 90, 3))
            best = min(
                seq.frames,
                key=lambda fp: (np.linalg.norm(fp[1].translation - q.translation), fp[0]),
            )[0]
            assert nearest_frame(graph, q) == best

    def test_overflowing_distance_is_farthest(self):
        table = np.zeros(3, _GRAPH_ENTRY)
        table["frame"] = [0, 1, 2]
        table["pose"][:, :, :3] = np.eye(3)
        table["pose"][:, :, 3] = [[-1e200, 0, 0], [5.0, 0, 0], [1e200, 0, 0]]
        graph = ConnectivityGraph(table, 1, 3)
        assert nearest_frame(graph, Pose(np.eye(3), [1e154, 0.0, 0.0])) == 1
        with pytest.raises(DomainError, match="finite distance"):
            nearest_frame(graph, Pose(np.eye(3), [0.0, 1e200, 0.0]))


class TestRetrieveCandidates:
    def test_window_sums_counts(self):
        seq = uniform_sequence(300, 1000, seed=6)
        graph = build_graph(seq, 5)
        assert len(window_rows(seq.map, *graph.window(10))) == 16_000

    def test_full_window_is_whole_map(self):
        seq = uniform_sequence(10, 100, seed=7)
        graph = build_graph(seq, 5)
        assert window_rows(seq.map, *graph.window(5)) == range(len(seq.map))

    def test_unknown_frame(self):
        seq = uniform_sequence(10, 10, seed=8)
        graph = build_graph(seq, 2)
        with pytest.raises(DomainError):
            window_rows(seq.map, *graph.window(999))


class TestPruneVisible:
    K = Intrinsics(64.0, 64.0, 64.0, 32.0, 128, 64)

    def _single_point_map(self, p):
        return PointCloudMap(np.array([p], dtype=float), [(0, 0, 1)])

    def test_point_behind_camera(self):
        cloud = self._single_point_map([0.0, 0.0, -5.0])
        vis = prune_visible(np.array([0]), cloud, Pose(np.eye(3), np.zeros(3)), self.K)
        assert len(vis) == 0

    def test_nearest_depth_wins(self):
        cloud = PointCloudMap(np.array([[0, 0, 3.0], [0, 0, 2.0]]), [(0, 0, 2)])
        vis = prune_visible(np.array([0, 1]), cloud, Pose(np.eye(3), np.zeros(3)), self.K)
        assert list(vis.point_indices) == [1]
        assert vis.depth_of[0] == 2.0

    def test_depth_tie_breaks_to_smaller_index(self):
        cloud = PointCloudMap(np.array([[0, 0, 2.0], [0, 0, 2.0]]), [(0, 0, 2)])
        vis = prune_visible(np.array([0, 1]), cloud, Pose(np.eye(3), np.zeros(3)), self.K)
        assert list(vis.point_indices) == [0]

    def test_indices_strictly_increasing(self, small_canyon):
        scene, cloud, seq, graph = small_canyon
        vis = visible_set_for(graph, cloud, scene.trajectory[7], scene.intrinsics)
        assert np.all(np.diff(vis.point_indices) > 0)
        assert np.all(vis.depth_of > 0)

    def test_matches_brute_force_oracle(self, small_canyon):
        scene, cloud, seq, graph = small_canyon
        for fid in (0, 15, 40):
            query = scene.trajectory[fid]
            cand = window_rows(cloud, *graph.window(fid))
            vis = prune_visible(cand, cloud, query, scene.intrinsics, source_frame=fid)
            oracle = brute_force_zbuffer(cloud, cand, query, scene.intrinsics)
            got = {(int(u), int(v)): int(i) for (u, v), i in zip(vis.pixel_of, vis.point_indices)}
            assert got == oracle

    def test_subset_and_pixel_bound(self, small_canyon):
        scene, cloud, seq, graph = small_canyon
        vis = visible_set_for(graph, cloud, scene.trajectory[20], scene.intrinsics)
        K = scene.intrinsics
        assert len(vis) <= K.width * K.height
        lo, hi = graph.window(vis.source_frame)
        ranges = {sid: (first, first + count) for sid, first, count in cloud.scan_ranges}
        windows = [ranges[s] for s in range(lo, hi + 1) if s in ranges]
        for i in vis.point_indices[:: max(1, len(vis) // 50)]:
            assert any(a <= i < b for a, b in windows)

    def test_thread_count_determinism(self, small_canyon, monkeypatch):
        scene, cloud, seq, graph = small_canyon
        query = scene.trajectory[25]
        results = []
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("CENPBG_THREADS", threads)
            vis = visible_set_for(graph, cloud, query, scene.intrinsics)
            results.append((vis.point_indices.tobytes(), vis.pixel_of.tobytes(), vis.depth_of.tobytes()))
        assert results[0] == results[1] == results[2]


# Half-unit grid coordinates, a few fixed depths and an integer camera shift
# keep every projection exact, so exact depth ties really occur; candidates
# come unsorted and repeated, and some points fall behind the camera or
# outside the 8x6 image.
@st.composite
def _zbuffer_case(draw):
    coord = st.integers(-12, 12).map(lambda k: k * 0.5)
    depth = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0])
    points = draw(st.lists(st.tuples(coord, coord, depth), min_size=1, max_size=30))
    cand = draw(st.lists(st.integers(0, len(points) - 1), max_size=60))
    shift = draw(st.tuples(*[st.integers(-1, 1)] * 3))
    return np.array(points), np.array(cand, dtype=np.int64), np.array(shift, dtype=float)


def _check_zbuffer_case(case):
    positions, cand, shift = case
    cloud = PointCloudMap(positions, [(0, 0, len(positions))])
    pose = Pose(np.eye(3), shift)
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    idx, pu, pv, depth = zbuffer_winners(cand, pose, K, positions)
    assert np.all(np.diff(idx) > 0)
    assert np.array_equal(depth, positions[idx, 2] - shift[2])
    got = {(int(u), int(v)): int(i) for u, v, i in zip(pu, pv, idx)}
    assert got == brute_force_zbuffer(cloud, cand, pose, K)


@settings(max_examples=300, deadline=None)
@given(_zbuffer_case())
def test_zbuffer_matches_brute_force_on_random_clouds(case):
    _check_zbuffer_case(case)


# Blocks of a few rows put repeated candidates and exact depth ties in
# different blocks, which the one reduction after the block loop must join.
@pytest.mark.parametrize("block", [1, 2, 7])
@settings(max_examples=300, deadline=None)
@given(case=_zbuffer_case())
def test_zbuffer_matches_brute_force_across_blocks(block, case):
    with mock.patch.object(zbuffer, "_BLOCK", block):
        _check_zbuffer_case(case)


# The block loop keeps only the rows that tie or beat the running per-pixel
# minimum: a row beaten by a later block, an exact depth tie whose smaller
# index comes in the later block, and a candidate repeated in two blocks
# must all end as the one reduction over every row would decide.
@pytest.mark.parametrize("block", [1, 2, 7])
def test_zbuffer_prefilter_across_blocks(block):
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    positions = np.array([
        [1.1, 0.0, 2.0],   # 0: pixel (6, 3) at depth 2, ties with 4 and wins on index
        [0.0, 0.0, 1.0],   # 1: pixel (4, 3) at depth 1, beats 3
        [-1.0, 0.0, 2.0],  # 2: pixel (2, 3), a candidate in both blocks
        [0.0, 0.0, 3.0],   # 3: pixel (4, 3) at depth 3
        [1.0, 0.0, 2.0],   # 4: pixel (6, 3) at depth 2
        [0.0, -1.0, 2.0],  # 5: pixel (4, 1)
        [0.0, 0.0, -1.0],  # 6: behind the camera
        [100.0, 0.0, 1.0],  # 7: right of the image
    ])
    cand = np.array([3, 4, 2, 5, 6, 7, 3, 1, 0, 2, 7, 6, 5, 4])
    cloud = PointCloudMap(positions, [(0, 0, len(positions))])
    with mock.patch.object(zbuffer, "_BLOCK", block):
        idx, pu, pv, depth = zbuffer_winners(cand, Pose(np.eye(3), np.zeros(3)), K, positions)
    got = {(int(u), int(v)): int(i) for u, v, i in zip(pu, pv, idx)}
    assert got == brute_force_zbuffer(cloud, cand, Pose(np.eye(3), np.zeros(3)), K)
    assert got == {(6, 3): 0, (4, 3): 1, (2, 3): 2, (4, 1): 5}
    assert idx.tolist() == [0, 1, 2, 5] and depth.tolist() == [2.0, 1.0, 2.0, 2.0]


# The tie rule drops a later block's row that does not beat the depth the
# earlier blocks left at its pixel. Exact copies of rows, at any distance
# from their originals, put such ties across blocks of 1, 2 and 7 rows. A
# row range must decide as the brute force does, and as the same rows given
# as a shuffled index array with repeats, which is sorted where it enters.
@pytest.mark.parametrize("block", [1, 2, 7])
@settings(max_examples=200, deadline=None)
@given(case=_zbuffer_case(), data=st.data())
def test_zbuffer_tie_rule_with_copies_across_blocks(block, case, data):
    base, _, shift = case
    copies = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=30))
    positions = np.concatenate([base, base[copies]])
    order = data.draw(st.permutations(range(len(positions))))
    positions = positions[order]  # copies before and after their originals
    n = len(positions)
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    cloud = PointCloudMap(positions, [(0, 0, n)])
    pose = Pose(np.eye(3), shift)
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    repeats = data.draw(st.lists(st.integers(lo, max(hi - 1, lo)), max_size=10)) if hi > lo else []
    shuffled = np.array(data.draw(st.permutations(list(range(lo, hi)) + repeats)), dtype=np.int64)
    with mock.patch.object(zbuffer, "_BLOCK", block):
        got = zbuffer_winners(range(lo, hi), pose, K, positions)
        for a, b in zip(got, zbuffer_winners(shuffled, pose, K, positions)):
            np.testing.assert_array_equal(a, b, strict=True)
    idx, pu, pv, _ = got
    assert {(int(u), int(v)): int(i) for u, v, i in zip(pu, pv, idx)} == brute_force_zbuffer(
        cloud, range(lo, hi), pose, K
    )


# A descending range is an index array whose blocks, left unsorted, would
# come in decreasing row order: sorted where it enters, it must decide as
# the ascending row range does, ties across blocks included.
@pytest.mark.parametrize("block", [1, 2, 7, 1 << 15])
def test_zbuffer_descending_range_equals_ascending(block):
    rng = np.random.default_rng(5)
    base = rng.integers(-6, 7, (40, 3)) * 0.5
    base[:, 2] = rng.choice([-1.0, 1.0, 2.0, 3.0], 40)
    positions = np.concatenate([base, base[::3], base[::-2]])
    n = len(positions)
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    with mock.patch.object(zbuffer, "_BLOCK", block):
        got = zbuffer_winners(range(n - 1, -1, -1), Pose(np.eye(3), np.zeros(3)), K, positions)
        want = zbuffer_winners(range(0, n), Pose(np.eye(3), np.zeros(3)), K, positions)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b, strict=True)
    assert len(want[0]) > 5 and want[0].max() < 40  # each original wins the tie with its copies


def test_zbuffer_drops_far_off_image_points_without_warning():
    """Projections too large for int64, or overflowing to inf, are out of
    bounds: they are dropped, and nothing is cast or warned about."""
    K = Intrinsics(20.0, 20.0, 16.0, 8.0, 32, 16)
    positions = np.array([
        [1.0, 0.0, 1e-300],
        [1e30, 0.0, 1.0],
        [0.0, -1e30, 1.0],
        [1e300, 0.0, 1e-10],
        [0.0, 0.0, 4.0],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx, pu, pv, depth = zbuffer_winners(np.arange(5), Pose(np.eye(3), np.zeros(3)), K, positions)
    assert (idx.tolist(), pu.tolist(), pv.tolist(), depth.tolist()) == ([4], [16], [8], [4.0])


def test_zbuffer_empty_candidates():
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    out = zbuffer_winners(np.zeros(0, dtype=np.int64), Pose(np.eye(3), np.zeros(3)), K, np.ones((3, 3)))
    assert [len(a) for a in out] == [0, 0, 0, 0]
    assert [a.dtype for a in out] == [np.int64, np.int64, np.int64, np.float64]


# A candidate index names one map row: a negative index must not wrap round
# to the end of the map, a float must not be truncated, and an index past
# the end is a DomainError, not a stray IndexError. An unsorted array is
# checked at its ends once sorted, so a bad entry between good ones counts.
@pytest.mark.parametrize(
    "cand",
    [[-1], [-3, 0], [3], [0, 2, 3], np.array([0.5]), np.array([0.0, 1.0]), np.array([True, False]),
     np.array([[0, 1]]), np.array([2**63], dtype=np.uint64), [0, -1, 2], [0, 3, 1]],
)
def test_zbuffer_rejects_bad_candidate_indices(cand):
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    cloud = PointCloudMap(np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 2.0], [-0.5, 0.0, 2.0]]), [(0, 0, 3)])
    with pytest.raises(DomainError):
        prune_visible(np.asarray(cand), cloud, Pose(np.eye(3), np.zeros(3)), K)


@pytest.mark.parametrize("block", [1, 2, 7])
def test_zbuffer_rejects_bad_index_in_a_later_block(block):
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    positions = np.ones((8, 3))
    with (
        mock.patch.object(zbuffer, "_BLOCK", block),
        mock.patch.object(zbuffer, "pixel_bins", wraps=zbuffer.pixel_bins) as bins,
        pytest.raises(DomainError, match="-1"),
    ):
        zbuffer_winners(np.array([0, 1, 2, 3, 4, 5, 6, -1]), Pose(np.eye(3), np.zeros(3)), K, positions)
    bins.assert_not_called()  # the array is checked where it enters, before any block is binned


# An empty row range has no row to check, wherever its ends lie.
@pytest.mark.parametrize(
    "cand", [[], np.zeros(0), np.zeros(0, dtype=np.uint8), range(9, 9), range(5, 2), range(-4, -4)]
)
def test_zbuffer_empty_candidates_of_any_dtype(cand):
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    idx, _, _, _ = zbuffer_winners(cand, Pose(np.eye(3), np.zeros(3)), K, np.ones((3, 3)))
    assert idx.dtype == np.int64 and len(idx) == 0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 5)), max_size=8),
    st.integers(-3, 30),
    st.integers(-3, 30),
)
def test_window_rows_are_the_window_scans_rows(gaps_counts, lo, hi):
    """Over maps with scan-id gaps, empty scans or no scans, and windows
    below, inside, above or crossed (lo > hi), the rows are one step-1
    `range`: those of the scans with lo <= sid <= hi, in order."""
    ranges, sid, first = [], -1, 0
    for gap, count in gaps_counts:
        sid += gap
        ranges.append((sid, first, count))
        first += count
    cloud = PointCloudMap(np.zeros((first, 3)), ranges)
    want = [i for s, f, c in ranges if lo <= s <= hi for i in range(f, f + c)]
    got = window_rows(cloud, lo, hi)
    assert isinstance(got, range) and got.step == 1
    assert list(got) == want


def test_reduce_bins_of_no_blocks_is_empty():
    out = zbuffer.reduce_bins(iter(()), 8, 6)
    assert [len(a) for a in out] == [0, 0, 0, 0]
    assert [a.dtype for a in out] == [np.int64, np.int64, np.int64, np.float64]


# A step-1 range is a row range: each block is a slice of the positions,
# not a gather, and a block whose box lies outside the view is skipped. It
# must decide every pixel as the same rows given as an index array (never
# culled) do, bit for bit, at either position dtype and with blocks that
# cut the range anywhere; the range's ends at row 0 and row N and empty
# ranges are checked in every example, twice, with the map's boxes kept
# between the ranges of one example (the second range prune builds every
# block's box, so the later prunes cull). The boxes start over for any other
# positions array, so the map's own `cloud.positions` is passed with them.
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("block", [1, 2, 7, 1 << 15])
@settings(max_examples=100, deadline=None)
@given(case=_zbuffer_case(), data=st.data())
def test_zbuffer_row_range_equals_index_array(dtype, block, case, data):
    positions, _, shift = case
    positions = positions.astype(dtype)
    n = len(positions)
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n))
    cloud = PointCloudMap(positions, [(0, 0, n)])
    pose = Pose(np.eye(3), shift)
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    with mock.patch.object(zbuffer, "_BLOCK", block):
        for rows in 2 * (range(lo, hi), range(0, n), range(lo, lo), range(n, n), range(0, 0)):
            got = zbuffer_winners(rows, pose, K, cloud.positions, cloud.boxes)
            np.testing.assert_array_equal(got[0], prune_visible(rows, cloud, pose, K).point_indices, strict=True)
            want = zbuffer_winners(np.arange(rows.start, rows.stop, dtype=np.int64), pose, K, positions)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b, strict=True)
            idx, pu, pv, _ = got
            assert {(int(u), int(v)): int(i) for u, v, i in zip(pu, pv, idx)} == brute_force_zbuffer(
                cloud, rows, pose, K
            )
    assert cloud.boxes.table is not None


_PLANE_K = Intrinsics(40.0, 30.0, 32.3, 16.7, 64, 32)


def _on_plane(plane: int, a: float, z: float) -> np.ndarray:
    """A camera-frame point on one of the five planes a view's boxes are
    tested against: z = 0, u = 0, u = W, v = 0 or v = H; `a` places it
    along the plane and `z` sets its depth."""
    K = _PLANE_K
    x, y = a, a / 2
    if plane == 0:
        z = 0.0
    elif plane in (1, 2):
        x = ((0.0 if plane == 1 else K.width) - K.cx) * z / K.fx
    else:
        y = ((0.0 if plane == 3 else K.height) - K.cy) * z / K.fy
    return np.array([x, y, z])


@st.composite
def _plane_case(draw):
    """A rotated view and a map whose rows lie on the view's frustum planes,
    a few ulps either side of them, and well outside or inside: rows in one
    block give boxes that straddle a plane or lie wholly beyond it."""
    yaw, pitch = draw(st.floats(-0.4, 0.4)), draw(st.floats(-0.3, 0.3))
    cy, sy, cp, sp = np.cos(yaw), np.sin(yaw), np.cos(pitch), np.sin(pitch)
    rot = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]]) @ np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    pose = Pose(rot, np.array(draw(st.tuples(*[st.integers(-3, 3)] * 3)), dtype=float) / 4)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        c = _on_plane(draw(st.integers(0, 4)), draw(st.floats(-3, 3)), draw(st.floats(0.5, 9)))
        shift = draw(st.sampled_from([0.0, 0.0, -2.0, 2.0]))  # on the plane, or off it by far
        c = c + shift * np.array([1.0, 1.0, 0.5])
        p = (pose.rotation @ c + pose.translation).astype(dtype)
        for ulps in draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4)):
            axis = draw(st.integers(0, 2))
            q = p.copy()
            for _ in range(abs(ulps)):
                q[axis] = np.nextafter(q[axis], np.copysign(np.inf, ulps), dtype=dtype)
            rows.append(q)
    return pose, np.array(rows, dtype=dtype)


# The box test is exact: a culled block holds no row the projection would
# keep, even for rows on a frustum plane or a few ulps either side of it,
# so a prune through the map's boxes equals the unculled ones bit for bit.
# The first prune builds no box; the second builds them and culls.
@pytest.mark.parametrize("block", [1, 2, 7])
@settings(max_examples=200, deadline=None)
@given(case=_plane_case())
def test_culled_prune_equals_unculled_at_the_frustum_planes(block, case):
    pose, positions = case
    n = len(positions)
    cloud = PointCloudMap(positions, [(0, 0, n)])
    with mock.patch.object(zbuffer, "_BLOCK", block):
        want = zbuffer_winners(np.arange(n), pose, _PLANE_K, positions)
        for _ in range(2):
            vis = prune_visible(range(0, n), cloud, pose, _PLANE_K)
            got = vis.point_indices, vis.pixel_of[:, 0], vis.pixel_of[:, 1], vis.depth_of
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b, strict=True)
        assert cloud.boxes.table is not None


def test_frustum_planes_cull_boxes_wholly_beyond_them():
    """Single-point boxes well beyond each plane are culled; points inside
    the image, or on a plane up to rounding (inside the margin), are not."""
    K, pose = _PLANE_K, Pose(np.eye(3), np.zeros(3))
    inside = np.array([[0.1, 0.2, 3.0], [_on_plane(1, 0, 5)[0] + 1e-3, 0.0, 5.0]])
    beyond = np.array([_on_plane(p, 0.5, 4.0) + off for p, off in
                       [(0, (0, 0, -0.1)), (1, (-0.1, 0, 0)), (2, (0.1, 0, 0)), (3, (0, -0.1, 0)), (4, (0, 0.1, 0))]])
    near = np.array([_on_plane(p, 0.5 if p else 0.0, 4.0) for p in range(5)])  # on the planes, up to rounding
    center = np.vstack([inside, beyond, near])
    boxes = np.column_stack([center, np.zeros_like(center), np.abs(center).sum(axis=1)])  # single-point boxes
    out = zbuffer.outside_view(boxes, pose, K)
    assert out.tolist() == [False, False] + [True] * 5 + [False] * 5


def test_boxes_built_at_one_block_size_are_not_reused_at_another():
    """Rows 0-6 are in view and rows 7-13 behind the camera, so once the
    boxes are built only the blocks holding rows 0-6 are binned. Boxes of 7
    rows read at a block of 2 would take block 1 (rows 2-3) for the behind
    box and cull it."""
    positions = np.vstack([np.column_stack([np.linspace(-1, 1, 7), np.zeros(7), np.full(7, 3.0)]),
                           np.tile([0.0, 0.0, -2.0], (7, 1))])
    cloud = PointCloudMap(positions, [(0, 0, 14)])
    want = zbuffer_winners(np.arange(14), Pose(np.eye(3), np.zeros(3)), _PLANE_K, positions)[0]
    assert len(want) == 7
    for block in (7, 2, 7):
        with mock.patch.object(zbuffer, "_BLOCK", block):
            for binned in (14, -(-7 // block) * block):  # the second prune builds the boxes and culls
                with mock.patch.object(zbuffer, "pixel_bins", wraps=zbuffer.pixel_bins) as bins:
                    got = prune_visible(range(0, 14), cloud, Pose(np.eye(3), np.zeros(3)), _PLANE_K).point_indices
                np.testing.assert_array_equal(got, want, strict=True)
                assert sum(len(call.args[2]) for call in bins.call_args_list) == binned
        assert cloud.boxes.block == block and len(cloud.boxes.table) == -(-14 // block)
        assert cloud.boxes.table is not None


def test_boxes_are_built_on_the_second_prune_of_their_block():
    """The first range prune builds no box, an index-array prune touches none,
    and the second range prune builds every block's box at once, each the
    min and max of its block's rows."""
    positions = np.random.default_rng(0).integers(-5, 5, (40, 3)).astype(float)  # exact centers and halves
    cloud = PointCloudMap(positions, [(0, 0, 40)])
    assert cloud.boxes.block == 0  # none at construction
    with mock.patch.object(zbuffer, "_BLOCK", 8):
        prune_visible(range(9, 17), cloud, Pose(np.eye(3), np.zeros(3)), _PLANE_K)  # blocks 1 and 2
        assert cloud.boxes.table is None
        prune_visible(np.arange(40), cloud, Pose(np.eye(3), np.zeros(3)), _PLANE_K)  # an index array touches no box
        assert cloud.boxes.table is None
        prune_visible(range(15, 26), cloud, Pose(np.eye(3), np.zeros(3)), _PLANE_K)  # blocks 1, 2 and 3
        table = cloud.boxes.table
        prune_visible(range(0, 40), cloud, Pose(np.eye(3), np.zeros(3)), _PLANE_K)
        assert cloud.boxes.table is table and table.shape == (5, 7)
    for row, block in zip(table, np.split(positions, 5), strict=True):
        center, half, size = np.split(row, [3, 6])
        np.testing.assert_array_equal(center - half, block.min(axis=0))
        np.testing.assert_array_equal(center + half, block.max(axis=0))
        assert size == np.abs(center).sum() + half.sum()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zbuffer_row_range_bit_identical_on_a_rotated_view(dtype):
    rng = np.random.default_rng(3)
    n = 5000
    positions = np.column_stack([rng.uniform(-4, 4, n), rng.uniform(-2, 2, n), rng.uniform(-1, 9, n)]).astype(dtype)
    c, s = np.cos(0.2), np.sin(0.2)
    pose = Pose(np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]]), [0.3, -0.1, 0.2])
    K = Intrinsics(40.0, 40.0, 32.3, 16.7, 64, 32)
    with mock.patch.object(zbuffer, "_BLOCK", 333):
        for lo, hi in [(0, n), (0, 1000), (999, 1001), (4000, n), (2500, 2500)]:
            got = zbuffer_winners(range(lo, hi), pose, K, positions)
            want = zbuffer_winners(np.arange(lo, hi), pose, K, positions)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b, strict=True)
    assert len(zbuffer_winners(range(0, n), pose, K, positions)[0]) > 100


# A row range past either end of the map names one of its rows outside it.
@pytest.mark.parametrize("rows, bad", [(range(-1, 2), -1), (range(0, 4), 3), (range(5, 9), 5), (range(-7, -3), -7)])
def test_zbuffer_rejects_row_range_outside_the_map(rows, bad):
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    with pytest.raises(DomainError, match=f"candidate index {bad} is outside the map's 3 points"):
        zbuffer_winners(rows, Pose(np.eye(3), np.zeros(3)), K, np.ones((3, 3)))


@pytest.mark.parametrize("rows", [range(0, 3, 2), range(2, -1, -1)])
def test_zbuffer_range_of_other_step_is_an_index_array(rows):
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    positions = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 2.0], [-0.5, 0.0, 2.0]])
    got = zbuffer_winners(rows, Pose(np.eye(3), np.zeros(3)), K, positions)
    want = zbuffer_winners(np.array(list(rows)), Pose(np.eye(3), np.zeros(3)), K, positions)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b, strict=True)


class TestGraphSerialization:
    def test_round_trip(self, tmp_path):
        seq = uniform_sequence(3, 5, seed=9)
        graph = build_graph(seq, 1)
        path = tmp_path / "g.grf"
        save_graph(path, graph)
        assert load_graph(path) == graph

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.grf"
        path.write_bytes(b"WRONGMAGIC\x00" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_graph(path)

    def test_wrong_version(self, tmp_path):
        seq = uniform_sequence(3, 5, seed=10)
        path = tmp_path / "v.grf"
        save_graph(path, build_graph(seq, 1))
        raw = bytearray(path.read_bytes())
        raw[11:13] = struct.pack("<H", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_graph(path)

    def test_window_too_large_for_format(self, tmp_path):
        graph = build_graph(uniform_sequence(3, 5, seed=12), 65536)
        path = tmp_path / "big.grf"
        with pytest.raises(DomainError):
            save_graph(path, graph)
        assert not path.exists()

    def test_truncation(self, tmp_path):
        seq = uniform_sequence(3, 5, seed=11)
        path = tmp_path / "t.grf"
        save_graph(path, build_graph(seq, 1))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_graph(path)

    @pytest.mark.parametrize("defect", GRAPH_DEFECTS)
    def test_defect_rejected(self, tmp_path, defect):
        path = tmp_path / "g.grf"
        save_graph(path, build_graph(uniform_sequence(4, 5, seed=13), 1))
        path.write_bytes(corrupt_graph(path.read_bytes(), defect))
        with pytest.raises(FormatError, match=str(path)):
            load_graph(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "g.grf"
        save_graph(path, build_graph(uniform_sequence(3, 5, seed=14), 1))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="bytes"):
            load_graph(path)

    @pytest.mark.parametrize("n", [0, -1])
    def test_window_below_one_not_saved(self, tmp_path, n):
        graph = build_graph(uniform_sequence(3, 5, seed=15), 1)
        graph.n = n
        path = tmp_path / "small.grf"
        with pytest.raises(DomainError):
            save_graph(path, graph)
        assert not path.exists()

    def test_window_lo_above_hi_not_saved(self, tmp_path):
        graph = build_graph(uniform_sequence(3, 5, seed=16), 1)
        graph.table["window"][1] = (2, 1)
        path = tmp_path / "lohi.grf"
        with pytest.raises(DomainError):
            save_graph(path, graph)
        assert not path.exists()


class TestGraphTable:
    def test_pose_and_window_by_frame(self):
        seq = uniform_sequence(6, 5, seed=17)
        graph = build_graph(seq, 2)
        for fid, pose in seq.frames:
            assert graph.pose(fid) == pose
            assert graph.window(fid) == (max(0, fid - 2), min(5, fid + 4))

    @pytest.mark.parametrize("fid", [-1, 6, 2**64 - 1, 2**64, 2**70])
    def test_missing_frame(self, fid):
        graph = build_graph(uniform_sequence(6, 5, seed=18), 2)
        for lookup in (graph.pose, graph.window):
            with pytest.raises(DomainError, match=f"frame {fid} not in graph"):
                lookup(fid)

    def test_pose_does_not_alias_the_table(self):
        seq = uniform_sequence(4, 5, seed=19)
        graph = build_graph(seq, 1)
        pose = graph.pose(2)
        graph.table["pose"][:] = 7.0
        assert np.array_equal(pose.rotation, np.eye(3))
        assert np.array_equal(pose.translation, seq.frames[2][1].translation)

    def test_load_query_and_save_build_no_pose(self, tmp_path):
        seq = uniform_sequence(5, 5, seed=20)
        graph = build_graph(seq, 2)
        query = Pose(np.eye(3), [0.0, 0.0, 2.2])
        path = tmp_path / "g.grf"
        post_init = Pose.__post_init__
        with mock.patch.object(Pose, "__post_init__", autospec=True, side_effect=post_init) as made:
            save_graph(path, graph)
            loaded = load_graph(path)
            assert nearest_frame(loaded, query) == 2 and loaded.window(2) == (0, 4)
            assert made.call_count == 0
            loaded.pose(2)
            assert made.call_count == 1

    def test_rows_out_of_order_load_sorted(self, tmp_path):
        """A v1 file may hold its frame rows in any order; they load sorted."""
        graph = build_graph(uniform_sequence(5, 5, seed=21), 1)
        path, reversed_path = tmp_path / "g.grf", tmp_path / "rev.grf"
        save_graph(path, graph)
        raw = path.read_bytes()
        rows = [raw[31 + 120 * i : 31 + 120 * (i + 1)] for i in range(5)]
        reversed_path.write_bytes(raw[:31] + b"".join(rows[::-1]))
        loaded = load_graph(reversed_path)
        assert loaded == graph
        assert loaded.table["frame"].tolist() == [0, 1, 2, 3, 4]
        assert nearest_frame(loaded, Pose(np.eye(3), [0.0, 0.0, 3.5])) == 3  # tie goes to the smaller id

    def test_equality_compares_table_n_and_scans(self):
        graph = build_graph(uniform_sequence(4, 5, seed=22), 1)
        same = ConnectivityGraph(graph.table.copy(), graph.n, graph.built_over)
        assert graph == same
        assert graph != ConnectivityGraph(graph.table, graph.n + 1, graph.built_over)
        assert graph != ConnectivityGraph(graph.table, graph.n, graph.built_over + 1)
        same.table["window"][0, 1] += 1
        assert graph != same

    def test_non_finite_pose_entry_rejected(self, tmp_path):
        path = tmp_path / "g.grf"
        save_graph(path, build_graph(uniform_sequence(3, 5, seed=23), 1))
        raw = bytearray(path.read_bytes())
        raw[31 + 120 + 8 + 8 * 3 : 31 + 120 + 8 + 8 * 4] = struct.pack("<d", float("nan"))  # frame 1's t_x
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite"):
            load_graph(path)


@st.composite
def _small_graphs(draw):
    """A valid graph of 0..4 frames with random rotations, translations,
    windows, n and scan count."""
    fids = sorted(draw(st.sets(st.integers(0, 2**40), max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = np.zeros(len(fids), _GRAPH_ENTRY)
    for row, fid in zip(table, fids):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        q[:, 0] *= np.sign(np.linalg.det(q))  # a rotation, not a reflection
        lo = draw(st.integers(0, 1000))
        row["frame"], row["window"] = fid, (lo, lo + draw(st.integers(0, 50)))
        row["pose"] = np.column_stack([q, rng.uniform(-100, 100, 3)])
    return ConnectivityGraph(table, draw(st.integers(1, 0xFFFF)), draw(st.integers(0, 2**32)))


def _graph_bytes(directory, graph) -> bytes:
    path = directory / "valid.grf"
    save_graph(path, graph)
    assert load_graph(path) == graph
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(_small_graphs(), st.data())
def test_every_graph_truncation_rejected(tmp_path_factory, graph, data):
    work = tmp_path_factory.mktemp("cut")
    raw = _graph_bytes(work, graph)
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = work / "g.grf"
    path.write_bytes(raw[:cut])
    with pytest.raises(FormatError):
        load_graph(path)


@settings(max_examples=300, deadline=None)
@given(_small_graphs(), st.data())
def test_graph_byte_mutation_loads_or_format_error(tmp_path_factory, graph, data):
    work = tmp_path_factory.mktemp("mut")
    raw = _graph_bytes(work, graph)
    pos = data.draw(st.integers(0, len(raw) - 1))
    mutated = bytearray(raw)
    mutated[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
    path = work / "g.grf"
    path.write_bytes(bytes(mutated))
    try:
        load_graph(path)
    except FormatError:
        pass
