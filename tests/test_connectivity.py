import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointvis import zbuffer
from pointvis.connectivity import (
    ConnectivityGraph,
    build_graph,
    candidate_indices,
    load_graph,
    nearest_frame,
    prune_visible,
    retrieve_candidates,
    save_graph,
    visible_set_for,
)
from pointvis.errors import DomainError, FormatError
from pointvis.geom import Intrinsics, Pose, identity_pose
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

    def test_every_frame_has_entry(self):
        seq = uniform_sequence(50, 5, seed=1)
        graph = build_graph(seq, 3)
        assert sorted(graph.entries) == seq.frame_ids()


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


class TestRetrieveCandidates:
    def test_window_sums_counts(self):
        seq = uniform_sequence(300, 1000, seed=6)
        graph = build_graph(seq, 5)
        ranges = retrieve_candidates(graph, seq.map, 10)
        assert sum(c for _, _, c in ranges) == 16_000

    def test_full_window_is_whole_map(self):
        seq = uniform_sequence(10, 100, seed=7)
        graph = build_graph(seq, 5)
        ranges = retrieve_candidates(graph, seq.map, 5)
        assert sum(c for _, _, c in ranges) == len(seq.map)

    def test_unknown_frame(self):
        seq = uniform_sequence(10, 10, seed=8)
        graph = build_graph(seq, 2)
        with pytest.raises(DomainError):
            retrieve_candidates(graph, seq.map, 999)


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
        scene, cloud, _, seq, graph = small_canyon
        vis = visible_set_for(graph, cloud, scene.trajectory[7], scene.intrinsics)
        assert np.all(np.diff(vis.point_indices) > 0)
        assert np.all(vis.depth_of > 0)

    def test_matches_brute_force_oracle(self, small_canyon):
        scene, cloud, _, seq, graph = small_canyon
        for fid in (0, 15, 40):
            query = scene.trajectory[fid]
            ranges = retrieve_candidates(graph, cloud, fid)
            cand = candidate_indices(ranges)
            vis = prune_visible(cand, cloud, query, scene.intrinsics, source_frame=fid)
            oracle = brute_force_zbuffer(cloud, cand, query, scene.intrinsics)
            got = {(int(u), int(v)): int(i) for (u, v), i in zip(vis.pixel_of, vis.point_indices)}
            assert got == oracle

    def test_subset_and_pixel_bound(self, small_canyon):
        scene, cloud, _, seq, graph = small_canyon
        vis = visible_set_for(graph, cloud, scene.trajectory[20], scene.intrinsics)
        K = scene.intrinsics
        assert len(vis) <= K.width * K.height
        lo, hi = graph.window(vis.source_frame)
        ranges = {sid: (first, first + count) for sid, first, count in cloud.scan_ranges}
        windows = [ranges[s] for s in range(lo, hi + 1) if s in ranges]
        for i in vis.point_indices[:: max(1, len(vis) // 50)]:
            assert any(a <= i < b for a, b in windows)

    def test_thread_count_determinism(self, small_canyon, monkeypatch):
        scene, cloud, _, seq, graph = small_canyon
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
        idx, pu, pv, depth = zbuffer_winners(cand, identity_pose(), K, positions)
    got = {(int(u), int(v)): int(i) for u, v, i in zip(pu, pv, idx)}
    assert got == brute_force_zbuffer(cloud, cand, identity_pose(), K)
    assert got == {(6, 3): 0, (4, 3): 1, (2, 3): 2, (4, 1): 5}
    assert idx.tolist() == [0, 1, 2, 5] and depth.tolist() == [2.0, 1.0, 2.0, 2.0]


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
        idx, pu, pv, depth = zbuffer_winners(np.arange(5), identity_pose(), K, positions)
    assert (idx.tolist(), pu.tolist(), pv.tolist(), depth.tolist()) == ([4], [16], [8], [4.0])


def test_zbuffer_empty_candidates():
    K = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    out = zbuffer_winners(np.zeros(0, dtype=np.int64), Pose(np.eye(3), np.zeros(3)), K, np.ones((3, 3)))
    assert [len(a) for a in out] == [0, 0, 0, 0]
    assert [a.dtype for a in out] == [np.int64, np.int64, np.int64, np.float64]


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
        graph.entries[1] = (graph.entries[1][0], (2, 1))
        path = tmp_path / "lohi.grf"
        with pytest.raises(DomainError):
            save_graph(path, graph)
        assert not path.exists()


@st.composite
def _small_graphs(draw):
    """A valid graph of 0..4 frames with random rotations, translations,
    windows, n and scan count."""
    fids = draw(st.sets(st.integers(0, 2**40), max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = {}
    for fid in fids:
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        q[:, 0] *= np.sign(np.linalg.det(q))  # a rotation, not a reflection
        lo = draw(st.integers(0, 1000))
        entries[fid] = (Pose(q, rng.uniform(-100, 100, 3), fid), (lo, lo + draw(st.integers(0, 50))))
    return ConnectivityGraph(entries, draw(st.integers(1, 0xFFFF)), draw(st.integers(0, 2**32)))


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
