import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointvis.connectivity import ConnectivityGraph, candidate_indices, prune_visible, save_graph
from pointvis.errors import DomainError, FormatError
from pointvis.geom import Intrinsics, Pose, identity_pose
from pointvis.ingest import (
    NO_COLOR,
    PointCloudMap,
    Scan,
    accumulate,
    load_map,
    read_intrinsics,
    read_poses,
    read_scan,
    save_map,
    split_train_test,
    write_intrinsics,
    write_poses,
    write_scan,
)
from pointvis.raster import RasterImage, rasterize_pyramid, save_raster
from pointvis.render import render_rgb
from pointvis.synth import read_surfaces

from conftest import loads_or_format_error


class TestReadScan:
    def test_two_point_fixture(self, tmp_path):
        path = tmp_path / "scan.bin"
        data = struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, 0.0)
        path.write_bytes(data)
        scan = read_scan(path)
        assert np.array_equal(scan.points, [[1, 2, 3], [4, 5, 6]])
        assert np.array_equal(scan.reflectance, [0.5, 0.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(read_scan(path)) == 0

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(FormatError, match="bad.bin"):
            read_scan(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-50, 50, (100, 3)).astype(np.float32).astype(np.float64)
        refl = rng.uniform(0, 1, 100).astype(np.float32).astype(np.float64)
        scan = Scan(4, pts, refl)
        path = tmp_path / "rt.bin"
        write_scan(path, scan)
        back = read_scan(path, scan_id=4)
        assert np.array_equal(back.points, scan.points)
        assert np.array_equal(back.reflectance, scan.reflectance)


class TestReadPoses:
    def test_identity_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("7 1 0 0 0 0 1 0 0 0 0 1 0\n")
        frames = read_poses(path)
        assert frames == [(7, identity_pose(7))]

    def test_duplicate_frame_id(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("7 1 0 0 0 0 1 0 0 0 0 1 0\n7 1 0 0 1 0 1 0 0 0 0 1 0\n")
        with pytest.raises(FormatError, match=":2"):
            read_poses(path)

    def test_reflection_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("0 1 0 0 0 0 1 0 0 0 0 -1 0\n")
        with pytest.raises(FormatError):
            read_poses(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("0 1 0 0\n")
        with pytest.raises(FormatError, match="13 fields"):
            read_poses(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("0 1 0 0 0 0 one 0 0 0 0 1 0\n")
        with pytest.raises(FormatError, match="non-numeric"):
            read_poses(path)

    # a frame id Pose rejects, and an entry whose square overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("line", ["-3 1 0 0 0 0 1 0 0 0 0 1 0", "0 1e200 0 0 0 0 1 0 0 0 0 1 0"])
    def test_rejected_without_warning(self, tmp_path, line):
        path = tmp_path / "poses.txt"
        path.write_text(line + "\n")
        with pytest.raises(FormatError, match="poses.txt:1"):
            read_poses(path)

    def test_mild_drift_reorthonormalized(self, tmp_path):
        rot = np.eye(3) + np.random.default_rng(5).normal(0, 1e-5, (3, 3))
        vals = np.hstack([rot, np.zeros((3, 1))]).reshape(-1)
        path = tmp_path / "poses.txt"
        path.write_text("0 " + " ".join(repr(float(v)) for v in vals) + "\n")
        (_, pose), = read_poses(path)
        assert np.abs(pose.rotation.T @ pose.rotation - np.eye(3)).max() <= 1e-9

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        frames = []
        for fid in (0, 3, 9):
            angle = rng.uniform(0, 6)
            c, s = np.cos(angle), np.sin(angle)
            rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
            frames.append((fid, Pose(rot, rng.uniform(-5, 5, 3), fid)))
        path = tmp_path / "poses.txt"
        write_poses(path, frames)
        assert read_poses(path) == frames


class TestIntrinsicsIO:
    def test_round_trip(self, tmp_path):
        from pointvis.geom import Intrinsics

        K = Intrinsics(123.25, 99.5, 64.0, 32.0, 128, 64)
        path = tmp_path / "K.txt"
        write_intrinsics(path, K)
        assert read_intrinsics(path) == K

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "K.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(FormatError):
            read_intrinsics(path)

    @pytest.mark.parametrize("text", ["-5 1 0 0 4 4\n", "1 1 0 0 0 4\n"])
    def test_rejected_field_names_file(self, tmp_path, text):
        path = tmp_path / "K.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match="K.txt: "):
            read_intrinsics(path)


@pytest.mark.parametrize("reader", [read_poses, read_intrinsics, read_surfaces])
def test_not_utf8_text(tmp_path, reader):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"0 1 0 0\n\xff\xfe 1 0\n")
    with pytest.raises(FormatError, match="binary.txt: not UTF-8 text"):
        reader(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reader,text,where", [
    (read_poses, "0 nan 0 0 0 0 1 0 0 0 0 1 0\n", "f.txt:1"),
    (read_poses, "0 1 0 0 0 0 1 0 0 0 0 1 0\n1 1 0 0 1e999 0 1 0 0 0 0 1 0\n", "f.txt:2"),
    (read_intrinsics, "nan 1 0 0 4 4\n", "f.txt"),
    (read_intrinsics, "1 1 -inf 0 4 4\n", "f.txt"),
])
def test_non_finite_field(tmp_path, reader, text, where):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(FormatError, match=f"{where}: non-finite"):
        reader(path)


@st.composite
def _small_trajectories(draw):
    """0..4 posed frames: random rotations, or quarter turns about z whose
    near-zero entries print with an exponent."""
    fids = sorted(draw(st.sets(st.integers(0, 10**6), max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = []
    for fid in fids:
        if draw(st.booleans()):
            rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            rot[:, 0] *= np.sign(np.linalg.det(rot))  # a rotation, not a reflection
        else:
            a = draw(st.sampled_from([0.5, 1.0, 1.5])) * np.pi
            rot = np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]])
        frames.append((fid, Pose(rot, rng.uniform(-100, 100, 3), fid)))
    return frames


def _poses_bytes(directory, frames) -> bytes:
    path = directory / "valid.txt"
    write_poses(path, frames)
    assert read_poses(path) == frames
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(_small_trajectories(), st.data())
def test_every_poses_truncation_loads_or_format_error(tmp_path_factory, frames, data):
    work = tmp_path_factory.mktemp("cut")
    raw = _poses_bytes(work, frames)
    path = work / "p.txt"
    path.write_bytes(raw[: data.draw(st.integers(0, max(len(raw) - 1, 0)))])
    loads_or_format_error(read_poses, path)


@settings(max_examples=300, deadline=None)
@given(_small_trajectories().filter(len), st.data())
def test_poses_byte_mutation_loads_or_format_error(tmp_path_factory, frames, data):
    work = tmp_path_factory.mktemp("mut")
    raw = _poses_bytes(work, frames)
    pos = data.draw(st.integers(0, len(raw) - 1))
    mutated = bytearray(raw)
    mutated[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
    path = work / "p.txt"
    path.write_bytes(bytes(mutated))
    loads_or_format_error(read_poses, path)


class TestAccumulate:
    def test_two_scans_identity(self):
        scans = [Scan(0, np.arange(9).reshape(3, 3)), Scan(1, np.arange(9).reshape(3, 3) + 1)]
        cloud = accumulate(scans, [identity_pose(), identity_pose()])
        assert len(cloud) == 6
        assert cloud.scan_ranges == [(0, 0, 3), (1, 3, 3)]

    def test_translation_applied(self):
        scan = Scan(0, [[0, 0, 1], [0, 0, 2]])
        cloud = accumulate([scan], [Pose(np.eye(3), [0, 0, 10])])
        assert np.array_equal(cloud.positions[:, 2], [11, 12])

    def test_count_mismatch(self):
        with pytest.raises(DomainError):
            accumulate([Scan(0, np.zeros((1, 3)))], [])

    def test_extrinsic_applied_before_pose(self):
        ext = np.hstack([np.eye(3), [[1], [0], [0]]])
        scan = Scan(0, [[0.0, 0.0, 0.0]])
        cloud = accumulate([scan], [Pose(np.eye(3), [0, 0, 5])], extrinsic=ext)
        assert np.array_equal(cloud.positions, [[1, 0, 5]])

    def test_permutation_consistency(self):
        rng = np.random.default_rng(7)
        scans = [Scan(i, rng.uniform(-1, 1, (4, 3))) for i in range(3)]
        poses = [Pose(np.eye(3), rng.uniform(-1, 1, 3)) for _ in range(3)]
        a = accumulate(scans, poses)
        order = [2, 0, 1]
        b = accumulate([scans[i] for i in order], [poses[i] for i in order])
        pts_a = {tuple(p) for p in a.positions}
        pts_b = {tuple(p) for p in b.positions}
        assert pts_a == pts_b


class TestSplitTrainTest:
    def test_twenty_frames(self):
        ids = list(range(100, 120))
        train, test = split_train_test(ids)
        assert test == [100, 110]
        assert len(train) == 18

    def test_single_frame(self):
        train, test = split_train_test([42])
        assert test == [42] and train == []

    def test_316_frames(self):
        # oracle: count of 0-based positions p < 316 with p % 10 == 0
        expected_test = sum(1 for p in range(316) if p % 10 == 0)
        train, test = split_train_test(list(range(316)))
        assert len(test) == expected_test == 32
        assert len(train) == 284

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            split_train_test([])

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200, unique=True))
    def test_disjoint_union(self, ids):
        train, test = split_train_test(ids)
        assert set(train).isdisjoint(test)
        assert sorted(train + test) == sorted(ids)


class TestMapValidation:
    def test_range_sum_must_match(self):
        with pytest.raises(DomainError):
            PointCloudMap(np.zeros((3, 3)), [(0, 0, 2)])

    def test_ranges_must_be_contiguous(self):
        with pytest.raises(DomainError):
            PointCloudMap(np.zeros((4, 3)), [(0, 0, 2), (1, 3, 2)])

    def test_ranges_sorted_by_scan_id(self):
        with pytest.raises(DomainError):
            PointCloudMap(np.zeros((4, 3)), [(1, 0, 2), (0, 2, 2)])

    @pytest.mark.parametrize("dtype,kept", [(np.float32, True), (np.float64, True),
                                            (np.float16, False), (np.int64, False)])
    def test_float32_and_float64_kept_others_widened(self, dtype, kept):
        given_ = np.arange(6, dtype=dtype).reshape(2, 3)
        cloud = PointCloudMap(given_, [(0, 0, 2)], given_, given_)
        for arr in (cloud.positions, cloud.colors, cloud.descriptors):
            assert arr.dtype == (dtype if kept else np.float64)
            assert np.shares_memory(arr, given_) == kept

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_positions_rejected(self, dtype):
        for bad in ([[np.nan, 0, 1], [0, 0, 2]], [[0, 0, 1], [0, np.inf, 2]]):
            with pytest.raises(DomainError, match="non-finite"):
                PointCloudMap(np.array(bad, dtype=dtype), [(0, 0, 2)])


class TestMapSerialization:
    def _cloud(self, with_colors=True, with_desc=True):
        rng = np.random.default_rng(8)
        n = 17
        pos = rng.uniform(-10, 10, (n, 3)).astype(np.float32).astype(np.float64)
        colors = rng.uniform(0, 1, (n, 3)).astype(np.float32).astype(np.float64) if with_colors else None
        desc = rng.normal(size=(n, 8)).astype(np.float32).astype(np.float64) if with_desc else None
        return PointCloudMap(pos, [(0, 0, 10), (2, 10, 7)], colors, desc)

    @pytest.mark.parametrize("colors,desc", [(True, True), (True, False), (False, False)])
    def test_round_trip(self, tmp_path, colors, desc):
        cloud = self._cloud(colors, desc)
        path = tmp_path / "m.map"
        save_map(path, cloud)
        back = load_map(path)
        assert np.array_equal(back.positions, cloud.positions)
        assert back.scan_ranges == cloud.scan_ranges
        if colors:
            assert np.array_equal(back.colors, cloud.colors)
        else:
            assert back.colors is None
        if desc:
            assert np.array_equal(back.descriptors, cloud.descriptors)

    def test_loaded_arrays_keep_file_float32(self, tmp_path):
        path = tmp_path / "m.map"
        save_map(path, self._cloud())
        back = load_map(path)
        for arr in (back.positions, back.colors, back.descriptors):
            assert arr.dtype == np.float32
            assert arr.flags.writeable

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.map"
        path.write_bytes(b"NOTAMAP\x00" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_map(path)

    def test_wrong_version(self, tmp_path):
        cloud = self._cloud(False, False)
        path = tmp_path / "v.map"
        save_map(path, cloud)
        raw = bytearray(path.read_bytes())
        raw[11:13] = struct.pack("<H", 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_map(path)

    def test_truncation(self, tmp_path):
        cloud = self._cloud()
        path = tmp_path / "t.map"
        save_map(path, cloud)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_map(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position(self, tmp_path, bad):
        cloud = self._cloud()
        path = tmp_path / "nf.map"
        save_map(path, cloud)
        raw = bytearray(path.read_bytes())
        off = raw.index(cloud.positions.astype("<f4").tobytes())
        raw[off + 20 : off + 24] = np.float32(bad).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="non-finite"):
            load_map(path)

    def test_corrupt_range_table(self, tmp_path):
        cloud = self._cloud()
        path = tmp_path / "r.map"
        save_map(path, cloud)
        raw = bytearray(path.read_bytes())
        off = raw.index(struct.pack("<QQQ", 2, 10, 7))
        raw[off + 8 : off + 16] = struct.pack("<Q", 11)  # second scan no longer contiguous
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="contiguous"):
            load_map(path)

    def test_missing_color_still_loads(self, tmp_path):
        cloud = self._cloud(with_desc=False)
        cloud.colors[3] = NO_COLOR
        path = tmp_path / "nc.map"
        save_map(path, cloud)
        back = load_map(path)
        assert np.isnan(back.colors[3]).all()
        assert np.array_equal(back.colors[4:], cloud.colors[4:])


@st.composite
def _small_maps(draw):
    """A valid map of 0..16 points in 0..4 scans, with or without colors
    and descriptors."""
    counts = draw(st.lists(st.integers(0, 4), max_size=4))
    scan_ids = sorted(draw(st.sets(st.integers(0, 1000), min_size=len(counts), max_size=len(counts))))
    first = np.concatenate([[0], np.cumsum(counts)]).astype(int)
    n = int(first[-1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    colors = rng.uniform(0, 1, (n, 3)) if draw(st.booleans()) else None
    desc = rng.normal(size=(n, draw(st.integers(1, 3)))) if draw(st.booleans()) else None
    return PointCloudMap(rng.uniform(-10, 10, (n, 3)), list(zip(scan_ids, first[:-1].tolist(), counts)),
                         colors, desc)


def _map_bytes(directory, cloud) -> bytes:
    path = directory / "valid.map"
    save_map(path, cloud)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(_small_maps(), st.data())
def test_every_map_truncation_rejected(tmp_path_factory, cloud, data):
    work = tmp_path_factory.mktemp("cut")
    raw = _map_bytes(work, cloud)
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = work / "m.map"
    path.write_bytes(raw[:cut])
    with pytest.raises(FormatError):
        load_map(path)


@settings(max_examples=300, deadline=None)
@given(_small_maps(), st.data())
def test_map_byte_mutation_loads_or_format_error(tmp_path_factory, cloud, data):
    work = tmp_path_factory.mktemp("mut")
    raw = _map_bytes(work, cloud)
    pos = data.draw(st.integers(0, len(raw) - 1))
    mutated = bytearray(raw)
    mutated[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
    path = work / "m.map"
    path.write_bytes(bytes(mutated))
    try:
        load_map(path)
    except FormatError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_loaded_map_renders_like_float64(tmp_path_factory, seed):
    """The file's float32 arrays give the same visible set, pyramid and RGB,
    bit for bit, as the same values widened to float64 in memory."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    pos = np.column_stack([rng.uniform(-4, 4, n), rng.uniform(-2, 2, n), rng.uniform(-1, 8, n)])
    pos[rng.integers(0, n, n // 4)] = pos[rng.integers(0, n, n // 4)]  # exact depth ties
    colors = rng.uniform(0, 1, (n, 3))
    colors[rng.random(n) < 0.1] = NO_COLOR
    split = int(rng.integers(0, n + 1))
    ranges = [(0, 0, split), (1, split, n - split)]
    path = tmp_path_factory.mktemp("exact") / "m.map"
    save_map(path, PointCloudMap(pos, ranges, colors))
    loaded = load_map(path)
    widened = PointCloudMap(loaded.positions.astype(np.float64), ranges, loaded.colors.astype(np.float64))
    yaw, pitch = rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)
    cy, sy, cp, sp = np.cos(yaw), np.sin(yaw), np.cos(pitch), np.sin(pitch)
    rot = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]]) @ np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    pose = Pose(rot, rng.uniform(-0.5, 0.5, 3))
    K = Intrinsics(32.0, 32.0, 32.0 + rng.uniform(-1, 1), 16.0 + rng.uniform(-1, 1), 64, 32)
    cand = candidate_indices(ranges)
    outs = []
    for cloud in (loaded, widened):
        vis = prune_visible(cand, cloud, pose, K)
        pyr = rasterize_pyramid(cloud, vis, pose, K)
        outs.append([vis.point_indices, vis.pixel_of, vis.depth_of, render_rgb(pyr)]
                    + [a for img in pyr.levels for a in (img.features, img.depth, img.mask)])
    assert loaded.positions.dtype == np.float32
    for got, want in zip(*outs):
        np.testing.assert_array_equal(got, want, strict=True)


def _golden_files(directory):
    """A fixed map with colors and descriptors, one without, a graph and a
    raster dump, every array built from np.arange."""
    pos = np.arange(36.0).reshape(12, 3) * 0.25 - 4
    colors = np.arange(36.0).reshape(12, 3) / 64
    colors[7] = NO_COLOR
    desc = np.arange(48.0).reshape(12, 4) * 0.5 - 10
    ranges = [(0, 0, 5), (3, 5, 0), (4, 5, 7)]
    save_map(directory / "full.map", PointCloudMap(pos, ranges, colors, desc))
    save_map(directory / "bare.map", PointCloudMap(pos, ranges))
    rot = np.eye(3)[[1, 2, 0]]
    entries = {fid: (Pose(rot, np.arange(3.0) * 1.5 + fid, fid), (max(0, fid - 2), fid + 4)) for fid in (0, 3, 8)}
    save_graph(directory / "g.grf", ConnectivityGraph(entries, 2, 9))
    mask = np.arange(15).reshape(3, 5) % 3 == 0
    depth = np.where(mask, np.arange(15.0).reshape(3, 5) * 0.75 + 1, np.inf)
    save_raster(directory / "r.ras", RasterImage(1, np.arange(30.0).reshape(3, 5, 2) / 8, depth, mask))


# sha256 of each file as format v1 writes it; a change to these bytes is a
# format change and needs a new version.
GOLDEN_SHA256 = {
    "full.map": "e05e7d4a893a5ab4ff06e165191683ba62ce37f1bf374c25c1d0a18c425d9945",
    "bare.map": "59cf5d3f8999426ad2f546bea36e1f53f6fc68359866e703974bb14f30459c97",
    "g.grf": "a6e927c404ab6b6787d153a46016d3d22f698b881e74421834b086c60f18dc36",
    "r.ras": "204a41cbc2249c810ffb762ee915e546e029fb670bcd046542badcc403ec9f53",
}


def test_format_v1_golden_bytes(tmp_path):
    _golden_files(tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
