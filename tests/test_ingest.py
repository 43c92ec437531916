import hashlib
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointvis import ingest
from pointvis.connectivity import _GRAPH_ENTRY, ConnectivityGraph, load_graph, prune_visible, save_graph, window_rows
from pointvis.errors import DomainError, FormatError
from pointvis.geom import Intrinsics, Pose
from pointvis.ingest import (
    MAP_MAGIC,
    PointCloudMap,
    Scan,
    accumulate,
    attach_descriptors,
    load_map,
    read_intrinsics,
    read_poses,
    read_scan,
    save_map,
    write_intrinsics,
    write_poses,
    write_scan,
)
from pointvis.raster import RasterImage, load_raster, rasterize_pyramid, save_raster
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
        scan = Scan(4, pts)
        path = tmp_path / "rt.bin"
        write_scan(path, scan)
        back = read_scan(path, scan_id=4)
        assert np.array_equal(back.points, scan.points)


class TestReadPoses:
    def test_identity_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("7 1 0 0 0 0 1 0 0 0 0 1 0\n")
        frames = read_poses(path)
        assert frames == [(7, Pose(np.eye(3), np.zeros(3), 7))]

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
    (read_surfaces, "nan 0 0 1 0 0 0 1 0 0.5 0.5 0.5\n", "f.txt:1"),
    (read_surfaces, "0 0 0 1 0 0 0 1 0 0.5 0.5 0.5\n\n0 0 0 1 0 0 0 inf 0 0.5 0.5 0.5\n", "f.txt:3"),
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
        cloud = accumulate(scans, [Pose(np.eye(3), np.zeros(3))] * 2)
        assert len(cloud) == 6
        assert cloud.scan_ranges == [(0, 0, 3), (1, 3, 3)]

    def test_translation_applied(self):
        scan = Scan(0, [[0, 0, 1], [0, 0, 2]])
        cloud = accumulate([scan], [Pose(np.eye(3), [0, 0, 10])])
        assert np.array_equal(cloud.positions[:, 2], [11, 12])

    def test_count_mismatch(self):
        with pytest.raises(DomainError):
            accumulate([Scan(0, np.zeros((1, 3)))], [])

    def test_permutation_consistency(self):
        rng = np.random.default_rng(7)
        scans = [Scan(i, rng.uniform(-1, 1, (4, 3))) for i in range(3)]
        poses = [Pose(np.eye(3), rng.uniform(-1, 1, 3)) for _ in range(3)]
        a = accumulate(list(scans), poses)
        order = [2, 0, 1]
        b = accumulate([scans[i] for i in order], [poses[i] for i in order])
        pts_a = {tuple(p) for p in a.positions}
        pts_b = {tuple(p) for p in b.positions}
        assert pts_a == pts_b


    def test_color_rows_must_match_their_scan(self):
        """Totals that agree do not make up for a scan with the wrong row count."""
        scans = [Scan(0, np.zeros((2, 3))), Scan(1, np.ones((3, 3)))]
        colors = [np.full((3, 3), 0.1), np.full((2, 3), 0.9)]
        with pytest.raises(DomainError, match="scan 0"):
            accumulate(scans, [Pose(np.eye(3), np.zeros(3))] * 2, colors=colors)

    @pytest.mark.parametrize("col", [[["a", "b", "c"]], np.zeros((1, 2)), None, np.zeros(3)])
    def test_malformed_colors_name_the_scan(self, col):
        scans = [Scan(4, np.zeros((1, 3))), Scan(7, np.zeros((1, 3)))]
        with pytest.raises(DomainError, match="scan 7"):
            accumulate(scans, [Pose(np.eye(3), np.zeros(3))] * 2, colors=[np.zeros((1, 3)), col])

    @pytest.mark.parametrize("colors", [None, []])
    def test_no_scans_is_an_empty_map(self, colors):
        cloud = accumulate([], [], colors=colors)
        assert len(cloud) == 0 and cloud.positions.shape == (0, 3) and cloud.scan_ranges == []
        assert cloud.colors is None if colors is None else cloud.colors.shape == (0, 3)


def _owned_case():
    """Three scans with unsorted ids, turned poses and float64 colors."""
    rng = np.random.default_rng(11)
    scans = [Scan(sid, rng.uniform(-5, 5, (n, 3))) for sid, n in ((3, 40), (0, 25), (2, 60))]
    poses = [Pose(_random_rotation(rng), rng.uniform(-5, 5, 3)) for _ in scans]
    colors = [rng.uniform(0, 1, (len(scan), 3)) for scan in scans]
    return scans, poses, colors


def test_accumulate_lets_each_scan_go():
    """The map takes the lists it is given: every scan's points and colors
    are freed once their rows are written, and both lists are empty after.
    The map is byte-equal to one built from copies. `tracemalloc` cannot
    show this saving: `np.empty` counts the whole map when it is
    allocated, while resident memory grows only as rows are written."""
    scans, poses, colors = _owned_case()
    want = accumulate(list(scans), poses, colors=list(colors))
    assert len(scans) == len(colors) == 3  # copies leave the lists as given
    scans, poses, colors = _owned_case()
    refs = [weakref.ref(scan.points) for scan in scans] + [weakref.ref(col) for col in colors]
    cloud = accumulate(scans, poses, colors=colors)
    assert scans == [] and colors == []
    assert all(ref() is None for ref in refs)
    assert cloud.scan_ranges == want.scan_ranges
    assert cloud.positions.tobytes() == want.positions.tobytes()
    assert cloud.colors.tobytes() == want.colors.tobytes()


def _last_colors_wrong(scans, colors):
    colors[-1] = np.zeros((len(scans[-1]) + 1, 3))
    return scans, colors


def _id_repeated(scans, colors):
    scans[-1] = Scan(scans[0].scan_id, scans[-1].points)
    return scans, colors


@pytest.mark.parametrize("spoil,match", [
    (_last_colors_wrong, "scan 2: colors have shape"),
    (_id_repeated, "scan id 3 is given twice"),
    (lambda scans, colors: (tuple(scans), colors), "must be lists"),
    (lambda scans, colors: (scans, tuple(colors)), "must be lists"),
], ids=["last-colors-shape", "repeated-id", "scans-tuple", "colors-tuple"])
def test_accumulate_refusal_leaves_the_lists_as_given(spoil, match):
    """Every check comes before the first scan is let go, so a DomainError
    leaves both lists with their length and entries."""
    scans, poses, colors = _owned_case()
    scans, colors = spoil(scans, colors)
    given_scans, given_colors = list(scans), list(colors)
    with pytest.raises(DomainError, match=match):
        accumulate(scans, poses, colors=colors)
    assert len(scans) == len(given_scans) and all(a is b for a, b in zip(scans, given_scans))
    assert len(colors) == len(given_colors) and all(a is b for a, b in zip(colors, given_colors))


def _random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _to_world(scan: Scan, pose: Pose) -> np.ndarray:
    """`pts @ R.T + t` with entry j of a row summed in one order, (p0 R[j, 0] +
    p1 R[j, 1]) + p2 R[j, 2], then t: elementwise numpy, which no BLAS kernel rounds."""
    p, r = scan.points, pose.rotation
    return p[:, :1] * r[:, 0] + p[:, 1:2] * r[:, 1] + p[:, 2:] * r[:, 2] + pose.translation


@st.composite
def _scan_lists(draw):
    """Scans with unsorted ids, empty scans among them, random poses, and
    colors or not."""
    k = draw(st.integers(0, 6))
    ids = draw(st.lists(st.integers(0, 100), min_size=k, max_size=k, unique=True))
    sizes = draw(st.lists(st.integers(0, 12), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scans = [Scan(sid, rng.uniform(-50, 50, (n, 3))) for sid, n in zip(ids, sizes)]
    poses = [Pose(_random_rotation(rng), rng.uniform(-20, 20, 3)) for _ in ids]
    colors = [rng.uniform(0, 1, (n, 3)) for n in sizes] if draw(st.booleans()) else None
    return scans, poses, colors


@settings(max_examples=200, deadline=None)
@given(_scan_lists(), st.integers(1, 7), st.booleans())
def test_accumulate_and_save_map_match_the_concatenated_reference(tmp_path_factory, case, rows, desc):
    """The map is bit-equal to the per-scan `pts @ R.T + t` of `_to_world`
    concatenated in scan-id order, and the file to the header and the
    arrays' `tobytes()`, whatever the chunk size `save_map` casts in."""
    scans, poses, colors = case
    cloud = accumulate(list(scans), poses, colors=None if colors is None else list(colors))
    order = sorted(range(len(scans)), key=lambda i: scans[i].scan_id)
    world = [_to_world(scans[i], poses[i]) for i in order]
    want = np.concatenate(world) if world else np.zeros((0, 3))
    assert cloud.positions.dtype == want.dtype and cloud.positions.tobytes() == want.tobytes()
    if colors is None:
        assert cloud.colors is None
    else:
        want_colors = np.concatenate([colors[i] for i in order]) if order else np.zeros((0, 3))
        assert cloud.colors.dtype == np.float64 and cloud.colors.tobytes() == want_colors.tobytes()
    assert cloud.scan_ranges == [
        (scans[i].scan_id, sum(len(scans[j]) for j in order[:p]), len(scans[i])) for p, i in enumerate(order)
    ]

    if desc:
        cloud = attach_descriptors(cloud, channels=2)
    arrays = [a for a in (cloud.colors, cloud.descriptors) if a is not None]
    flags = (cloud.colors is not None) | (cloud.descriptors is not None) << 1
    want_bytes = b"".join(
        [MAP_MAGIC, struct.pack("<HQHBQ", 1, len(cloud), 2 if desc else 0, flags, len(cloud.scan_ranges)),
         np.array(cloud.scan_ranges, dtype="<u8").tobytes()]
        + [a.astype("<f4").tobytes() for a in [cloud.positions, *arrays]]
    )
    path = tmp_path_factory.mktemp("ref") / "m.map"
    with mock.patch.object(ingest, "_SAVE_ROWS", rows):
        save_map(path, cloud)
    assert path.read_bytes() == want_bytes


def test_accumulate_and_save_map_hold_no_second_copy(tmp_path):
    """numpy reports its buffers to tracemalloc: building a 1M-point map in
    20 scans allocates the map and under 1 MiB beyond it, no temporary of
    one scan's size; writing it holds one float32 chunk at a time, not a
    float32 copy of the map."""
    rng = np.random.default_rng(5)
    scans = [Scan(i, rng.uniform(-10, 10, (50_000, 3))) for i in range(20)]
    poses = [Pose(_random_rotation(rng), rng.uniform(-5, 5, 3)) for _ in scans]
    colors = [rng.uniform(0, 1, (50_000, 3)) for _ in scans]
    tracemalloc.start()
    try:
        cloud = accumulate(list(scans), poses, colors=list(colors))
        _, build_peak = tracemalloc.get_traced_memory()
        map_bytes = cloud.positions.nbytes + cloud.colors.nbytes
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        save_map(tmp_path / "m.map", cloud)
        _, write_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = np.concatenate([_to_world(s, p) for s, p in zip(scans, poses)])
    assert cloud.positions.tobytes() == want.tobytes()  # bit-equal at full scan size too
    assert build_peak <= map_bytes + 2**20  # 1.02x; one concatenated copy made it 1.5x
    file_bytes = (tmp_path / "m.map").stat().st_size
    assert file_bytes > 22 * 2**20
    assert write_peak - held < 3 * 2**20


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

    # The z-buffer caches a box per block of positions with the map, so a
    # write through the map would leave a stale box that culls visible rows.
    def test_positions_are_read_only(self, tmp_path):
        built = accumulate([Scan(0, np.ones((4, 3)))], [Pose(np.eye(3), np.zeros(3))], colors=[np.zeros((4, 3))])
        save_map(tmp_path / "m.map", built)
        for cloud in (built, load_map(tmp_path / "m.map"), PointCloudMap(np.zeros((2, 3)), [(0, 0, 2)])):
            with pytest.raises(ValueError, match="read-only"):
                cloud.positions[0, 0] = 5.0
            with pytest.raises(ValueError, match="read-only"):
                cloud.positions += 1.0
        built.colors[0, 0] = 0.5  # colors stay writable

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

    @pytest.mark.parametrize("bad", [1e39, -1e39])
    def test_position_beyond_float32_not_saved(self, tmp_path, bad):
        """`load_map` rejects the inf such a position would become, so
        `save_map` refuses it and writes no file."""
        path = tmp_path / "big.map"
        with pytest.raises(DomainError, match="float32"):
            save_map(path, PointCloudMap(np.array([[0.0, 0.0, 1.0], [bad, 0.0, 1.0]]), [(0, 0, 2)]))
        assert not path.exists()

    def test_float32_max_position_saved(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        path = tmp_path / "top.map"
        save_map(path, PointCloudMap(np.array([[top, -top, 1.0]]), [(0, 0, 1)]))
        assert load_map(path).positions.tolist() == [[top, -top, 1.0]]

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
        assert not back.positions.flags.writeable  # the map's culling boxes are built from them
        assert back.colors.flags.writeable and back.descriptors.flags.writeable

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
        cloud.colors[3] = np.nan
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


def _split_bytes(data):
    """A patch of `ingest._SPLIT_BYTES` drawn from `data`: unchanged, so a small
    map is read in one call, or 1, so every array of two bytes or more is read
    and checked in two halves."""
    return mock.patch.object(ingest, "_SPLIT_BYTES", data.draw(st.sampled_from([ingest._SPLIT_BYTES, 1])))


@settings(max_examples=200, deadline=None)
@given(_small_maps(), st.data())
def test_every_map_truncation_rejected(tmp_path_factory, cloud, data):
    work = tmp_path_factory.mktemp("cut")
    raw = _map_bytes(work, cloud)
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = work / "m.map"
    path.write_bytes(raw[:cut])
    with _split_bytes(data), pytest.raises(FormatError):
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
    with _split_bytes(data):
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
    colors[rng.random(n) < 0.1] = np.nan
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
    cand = window_rows(loaded, 0, 1)
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
    colors[7] = np.nan
    desc = np.arange(48.0).reshape(12, 4) * 0.5 - 10
    ranges = [(0, 0, 5), (3, 5, 0), (4, 5, 7)]
    save_map(directory / "full.map", PointCloudMap(pos, ranges, colors, desc))
    save_map(directory / "bare.map", PointCloudMap(pos, ranges))
    rot = np.eye(3)[[1, 2, 0]]
    table = np.zeros(3, _GRAPH_ENTRY)
    for row, fid in zip(table, (0, 3, 8)):
        row["frame"], row["window"] = fid, (max(0, fid - 2), fid + 4)
        row["pose"] = np.column_stack([rot, np.arange(3.0) * 1.5 + fid])
    save_graph(directory / "g.grf", ConnectivityGraph(table, 2, 9))
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


# A file's length is checked against its header, from `fstat`, before any
# buffer is allocated: 8 MiB of trailing bytes are refused having read only
# the header, so a file extended to terabytes is a FormatError too, not an
# allocation failure.
@pytest.mark.parametrize("name, load", [("full.map", load_map), ("g.grf", load_graph), ("r.ras", load_raster)])
def test_trailing_bytes_refused_before_the_arrays_are_read(tmp_path, name, load):
    _golden_files(tmp_path)
    path = tmp_path / name
    with open(path, "ab") as f:
        f.truncate(path.stat().st_size + (8 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="bytes"):
            load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# The split path: `_SPLIT_BYTES` lowered to 64 makes these small files take
# the two-halves read and check that a map of megabytes takes.
@pytest.fixture
def split_at_64(monkeypatch):
    monkeypatch.setattr(ingest, "_SPLIT_BYTES", 64)


_TEST_MAGIC, _TEST_HEADER = b"TEST", struct.Struct("<HQ")  # version, byte count


def _byte_file(path, n: int) -> bytes:
    """A v1-style file of `n` payload bytes, returned."""
    payload = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8)
    ingest.write_binary(path, _TEST_MAGIC, _TEST_HEADER, (1, n), [payload])
    return payload.tobytes()


def _read_bytes(path):
    return ingest.read_binary(path, _TEST_MAGIC, 1, _TEST_HEADER, lambda fields: [(fields[1], "u1")])[1][0]


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 127, 1001, 4097])
def test_read_binary_halves_give_the_file_bytes(tmp_path, split_at_64, n):
    want = _byte_file(tmp_path / "b.bin", n)
    assert _read_bytes(tmp_path / "b.bin").tobytes() == want


@pytest.mark.parametrize("points", [0, 1, 2, 3, 7, 100, 1001])
def test_load_map_same_arrays_in_one_read_and_in_halves(tmp_path, monkeypatch, points):
    rng = np.random.default_rng(points)
    half = points // 2
    cloud = PointCloudMap(rng.uniform(-9, 9, (points, 3)), [(0, 0, half), (3, half, points - half)],
                          rng.uniform(0, 1, (points, 3)), rng.normal(size=(points, 1)))
    save_map(tmp_path / "m.map", cloud)
    loads = []
    for split_bytes in (1 << 62, 64):
        monkeypatch.setattr(ingest, "_SPLIT_BYTES", split_bytes)
        back = load_map(tmp_path / "m.map")
        loads.append((back.positions, back.colors, back.descriptors))
        assert back.scan_ranges == cloud.scan_ranges
    for one, split in zip(*loads):
        np.testing.assert_array_equal(split, one, strict=True)


@pytest.mark.parametrize("row", [0, 49, 50, 99])  # 100 rows: rows 50 on are the helper's half
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_position_found_in_either_half(tmp_path, split_at_64, row, bad):
    pos = np.arange(300.0).reshape(100, 3)
    pos[row, 2] = bad
    with pytest.raises(DomainError, match="non-finite"):
        PointCloudMap(pos, [(0, 0, 100)])
    pos[row, 2] = 1.0
    save_map(tmp_path / "m.map", PointCloudMap(pos, [(0, 0, 100)]))
    raw = bytearray((tmp_path / "m.map").read_bytes())
    off = raw.index(pos.astype("<f4").tobytes())
    raw[off + 12 * row + 8 : off + 12 * row + 12] = np.float32(bad).tobytes()
    (tmp_path / "m.map").write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=r"m\.map: non-finite point position"):
        load_map(tmp_path / "m.map")


def _fake_preadv(monkeypatch, step, calls_allowed=100):
    """Patch `os.preadv` with one that reads at most `step(call)` bytes on
    the `call`-th call of its thread (none when 0) and fails the call after
    `calls_allowed`, so a reader that retries at end of file fails, not hangs."""
    real, calls = os.preadv, {}

    def preadv(fd, buffers, offset):
        me = threading.get_ident()
        calls[me] = calls.get(me, 0) + 1
        assert calls[me] <= calls_allowed, f"preadv called {calls[me]} times in one thread"
        return real(fd, [buffers[0][: step(calls[me])]], offset) if step(calls[me]) else 0

    monkeypatch.setattr(os, "preadv", preadv)
    return calls


def test_short_reads_are_read_on(tmp_path, monkeypatch, split_at_64):
    want = _byte_file(tmp_path / "b.bin", 1001)
    calls = _fake_preadv(monkeypatch, lambda call: 7)
    assert _read_bytes(tmp_path / "b.bin").tobytes() == want
    assert sorted(calls.values()) == [72, 72]  # 500 and 501 bytes, 7 a call


@pytest.mark.parametrize("step", [lambda call: 0, lambda call: 7 if call == 1 else 0])
def test_end_of_file_before_the_buffer_is_full(tmp_path, monkeypatch, split_at_64, step):
    _byte_file(tmp_path / "b.bin", 1001)
    _fake_preadv(monkeypatch, step, calls_allowed=2)
    with pytest.raises(FormatError, match=r"b\.bin: expected 1015 bytes, got \d+"):
        _read_bytes(tmp_path / "b.bin")


@pytest.mark.parametrize("failing", ["caller", "helper"])
def test_a_failing_half_raises_once_both_halves_end(tmp_path, monkeypatch, split_at_64, failing):
    _byte_file(tmp_path / "b.bin", 1001)
    real, ended = os.preadv, []

    def preadv(fd, buffers, offset):
        half = "caller" if threading.current_thread() is threading.main_thread() else "helper"
        if half == failing:
            raise OSError(5, f"the {half}'s half failed")
        time.sleep(0.2)
        got = real(fd, buffers, offset)
        ended.append(half)
        return got

    monkeypatch.setattr(os, "preadv", preadv)
    with pytest.raises(OSError, match=f"the {failing}'s half failed"):
        _read_bytes(tmp_path / "b.bin")
    assert ended == [{"caller": "helper", "helper": "caller"}[failing]]


_LAZY_HELPER = """
import sys, tempfile, threading
import numpy as np
from pointvis import ingest

with tempfile.TemporaryDirectory() as d:
    ingest.save_map(d + "/m.map", ingest.PointCloudMap(np.zeros((1000, 3)), [(0, 0, 1000)]))
    ingest.load_map(d + "/m.map")
    print(threading.active_count(), "concurrent.futures" in sys.modules)
    rows = ingest._SPLIT_BYTES // 24 + 1  # float64 positions of at least _SPLIT_BYTES
    for _ in range(3):
        ingest.PointCloudMap(np.zeros((rows, 3)), [(0, 0, rows)])
        print(threading.active_count())
"""


def test_helper_thread_starts_on_the_first_split_only():
    """Loading a small map starts no thread and imports no executor; each
    array at `_SPLIT_BYTES` starts a helper and joins it before returning."""
    src = os.path.dirname(os.path.dirname(ingest.__file__))
    run = subprocess.run([sys.executable, "-c", _LAZY_HELPER], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["1", "False", "1", "1", "1"]
