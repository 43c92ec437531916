import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointvis import zbuffer
from pointvis.connectivity import VisibleSet, prune_visible
from pointvis.errors import DomainError, FormatError
from pointvis.geom import Intrinsics, Pose, scale_intrinsics
from pointvis.ingest import PointCloudMap, attach_descriptors
from pointvis.raster import (
    Channels,
    RasterImage,
    load_raster,
    occupancy,
    rasterize,
    rasterize_pyramid,
    save_raster,
)
from conftest import brute_force_zbuffer

IDENTITY = Pose(np.eye(3), np.zeros(3))


def colored_map(positions, colors=None):
    positions = np.asarray(positions, dtype=float)
    if colors is None:
        colors = np.tile([1.0, 0.0, 0.0], (len(positions), 1))
    return PointCloudMap(positions, [(0, 0, len(positions))], colors)


class TestRasterize:
    K = Intrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)

    def test_single_point_on_axis(self):
        cloud = colored_map([[0, 0, 2.0]])
        img = rasterize(cloud, np.array([0]), IDENTITY, self.K, level=0)
        assert np.count_nonzero(img.mask) == 1
        assert img.mask[50, 50]
        assert np.array_equal(img.features[50, 50], [1, 0, 0])
        assert img.depth[50, 50] == 2.0
        assert not np.isfinite(img.depth[0, 0])

    def test_zbuffer_keeps_nearer(self):
        cloud = colored_map([[0, 0, 3.0], [0, 0, 2.0]], [[1, 0, 0], [0, 1, 0]])
        img = rasterize(cloud, np.array([0, 1]), IDENTITY, self.K, level=0)
        assert np.array_equal(img.features[50, 50], [0, 1, 0])

    def test_missing_descriptors_rejected(self):
        cloud = colored_map([[0, 0, 2.0]])
        with pytest.raises(DomainError):
            rasterize(cloud, np.array([0]), IDENTITY, self.K, 0, Channels.DESCRIPTOR)

    def test_missing_colors_rejected(self):
        cloud = PointCloudMap(np.array([[0, 0, 2.0]]), [(0, 0, 1)])
        with pytest.raises(DomainError):
            rasterize(cloud, np.array([0]), IDENTITY, self.K, 0, Channels.COLOR)

    def test_matches_per_pixel_minimum_oracle(self):
        rng = np.random.default_rng(12)
        n = 10_000
        pts = np.column_stack(
            [rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), rng.uniform(0.5, 10, n)]
        )
        colors = rng.uniform(0, 1, (n, 3))
        cloud = colored_map(pts, colors)
        img = rasterize(cloud, np.arange(n), IDENTITY, self.K, level=0)

        # independent exhaustive oracle
        feat = np.zeros((100, 100, 3))
        depth = np.full((100, 100), np.inf)
        mask = np.zeros((100, 100), dtype=bool)
        for i in range(n):
            x, y, z = pts[i]
            u = int(np.floor(100 * x / z + 50))
            v = int(np.floor(100 * y / z + 50))
            if 0 <= u < 100 and 0 <= v < 100 and z < depth[v, u]:
                depth[v, u] = z
                feat[v, u] = colors[i]
                mask[v, u] = True
        assert np.array_equal(img.mask, mask)
        assert np.array_equal(img.depth, depth)
        assert np.array_equal(img.features, feat)

    def test_masked_depth_equals_point_z(self):
        rng = np.random.default_rng(13)
        pts = np.column_stack([rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200), rng.uniform(1, 5, 200)])
        cloud = colored_map(pts, rng.uniform(0, 1, (200, 3)))
        img = rasterize(cloud, np.arange(200), IDENTITY, self.K, level=0)
        zs = {round(z, 9) for z in pts[:, 2]}
        for d in img.depth[img.mask]:
            assert d > 0
            assert any(abs(d - z) <= 1e-6 for z in zs)

    def test_descriptor_channels(self):
        cloud = attach_descriptors(colored_map([[0, 0, 2.0]]), channels=8, seed=1)
        img = rasterize(cloud, np.array([0]), IDENTITY, self.K, 0, Channels.DESCRIPTOR)
        assert img.channel_count == 8
        assert np.array_equal(img.features[50, 50], cloud.descriptors[0])


class TestRasterizePyramid:
    K = Intrinsics(100.0, 100.0, 512.0, 256.0, 1024, 512)

    def test_full_resolution_level_dims(self):
        cloud = colored_map([[0, 0, 5.0]])
        pyr = rasterize_pyramid(cloud, np.array([0]), IDENTITY, self.K, levels=(1, 2, 3, 4, 5))
        dims = [(img.mask.shape) for img in pyr.levels]
        assert dims == [(256, 512), (128, 256), (64, 128), (32, 64), (16, 32)]

    def test_empty_indices(self):
        cloud = colored_map([[0, 0, 5.0]])
        pyr = rasterize_pyramid(cloud, np.zeros(0, dtype=np.int64), IDENTITY, self.K)
        assert all(occupancy(img) == 0.0 for img in pyr.levels)

    def test_dense_grid_saturates_every_level(self):
        K = Intrinsics(64.0, 64.0, 16.0, 8.0, 32, 16)
        uu, vv = np.meshgrid(np.arange(32) + 0.5, np.arange(16) + 0.5)
        z = 2.0
        pts = np.column_stack(
            [(uu.ravel() - 16.0) * z / 64.0, (vv.ravel() - 8.0) * z / 64.0, np.full(uu.size, z)]
        )
        cloud = colored_map(pts)
        pyr = rasterize_pyramid(cloud, np.arange(len(pts)), IDENTITY, K, levels=(0, 1, 2, 3))
        assert [occupancy(img) for img in pyr.levels] == [1.0, 1.0, 1.0, 1.0]

    def test_empty_level_set_rejected(self):
        cloud = colored_map([[0, 0, 5.0]])
        with pytest.raises(DomainError):
            rasterize_pyramid(cloud, np.array([0]), IDENTITY, self.K, levels=())

    def test_monotone_coverage(self):
        rng = np.random.default_rng(14)
        K = Intrinsics(64.0, 64.0, 64.0, 32.0, 128, 64)
        for trial in range(20):
            n = rng.integers(1, 500)
            pts = np.column_stack(
                [rng.uniform(-3, 3, n), rng.uniform(-2, 2, n), rng.uniform(0.5, 10, n)]
            )
            cloud = colored_map(pts, rng.uniform(0, 1, (n, 3)))
            pyr = rasterize_pyramid(cloud, np.arange(n), IDENTITY, K, levels=(0, 1, 2, 3, 4))
            occ = [occupancy(img) for img in pyr.levels]
            assert all(b >= a for a, b in zip(occ, occ[1:]))

    def test_pruned_equals_raw_at_level_zero(self):
        rng = np.random.default_rng(15)
        K = Intrinsics(64.0, 64.0, 64.0, 32.0, 128, 64)
        n = 3000
        pts = np.column_stack([rng.uniform(-3, 3, n), rng.uniform(-2, 2, n), rng.uniform(0.5, 10, n)])
        cloud = colored_map(pts, rng.uniform(0, 1, (n, 3)))
        vis = prune_visible(np.arange(n), cloud, IDENTITY, K)
        a = rasterize(cloud, vis, IDENTITY, K, level=0)
        b = rasterize(cloud, np.arange(n), IDENTITY, K, level=0)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.features, b.features)

    def test_points_binned_once_for_all_levels(self, monkeypatch):
        calls = []
        real = zbuffer.pixel_bins
        monkeypatch.setattr(zbuffer, "pixel_bins", lambda *args: calls.append(args) or real(*args))
        cloud = colored_map([[0, 0, 5.0], [1, 1, 4.0]])
        rasterize_pyramid(cloud, np.array([0, 1]), IDENTITY, self.K)
        rasterize(cloud, np.array([0, 1]), IDENTITY, self.K, level=3)
        assert len(calls) == 2
        # one view in `pointvis render` order: the visible set is level 0
        vis = prune_visible(np.array([0, 1]), cloud, IDENTITY, self.K)
        rasterize_pyramid(cloud, vis, IDENTITY, self.K)
        assert len(calls) == 3

    def test_foreign_visible_set_pruned_at_the_given_view(self):
        rng = np.random.default_rng(16)
        K = Intrinsics(64.0, 64.0, 64.0, 32.0, 128, 64)
        n = 2000
        pts = np.column_stack([rng.uniform(-3, 3, n), rng.uniform(-2, 2, n), rng.uniform(0.5, 10, n)])
        cloud = colored_map(pts, rng.uniform(0, 1, (n, 3)))
        moved = prune_visible(np.arange(n), cloud, Pose(np.eye(3), [0.4, -0.3, 0.5]), K, source_frame=7)
        other_k = prune_visible(np.arange(n), cloud, IDENTITY, Intrinsics(50.0, 50.0, 60.0, 30.0, 120, 60), 7)
        by_hand = VisibleSet(moved.point_indices, 7, moved.pixel_of, moved.depth_of)
        for vis in (moved, other_k, by_hand):
            got = rasterize_pyramid(cloud, vis, IDENTITY, K)
            want = rasterize_pyramid(cloud, vis.point_indices, IDENTITY, K)
            assert got.source_frame == 7
            for a, b in zip(got.levels, want.levels):
                assert np.array_equal(a.mask, b.mask)
                assert np.array_equal(a.depth, b.depth)
                assert np.array_equal(a.features, b.features)

    def test_collapsed_level_rejected(self):
        cloud = colored_map([[0, 0, 5.0]])
        with pytest.raises(DomainError, match="collapses"):
            rasterize_pyramid(cloud, np.array([0]), IDENTITY, self.K, levels=(0, 10))


# The z-buffer property's scenes (exact half-unit coordinates, exact depth
# ties, unsorted and repeated candidates, points behind the camera and out
# of bounds) on image sizes not divisible by 2^t, fractional principal
# points and random level subsets; each level must equal the brute-force
# z-buffer at that level's intrinsics.
@st.composite
def _pyramid_case(draw):
    coord = st.integers(-12, 12).map(lambda k: k * 0.5)
    depth = st.sampled_from([-1.0, 0.0, 1.0, 2.0, 3.0])
    points = draw(st.lists(st.tuples(coord, coord, depth), min_size=1, max_size=30))
    cand = draw(st.lists(st.integers(0, len(points) - 1), max_size=60))
    shift = draw(st.tuples(*[st.integers(-1, 1)] * 3))
    width, height = draw(st.integers(1, 21)), draw(st.integers(1, 21))
    f = draw(st.sampled_from([1.0, 2.5, 4.0]))
    cx = draw(st.floats(-2.0, width + 2.0))
    cy = draw(st.floats(-2.0, height + 2.0))
    top = min(width, height).bit_length() - 1  # coarsest level that keeps a pixel
    levels = draw(st.sets(st.integers(0, top), min_size=1))
    K = Intrinsics(f, f, cx, cy, width, height)
    return np.array(points), np.array(cand, dtype=np.int64), np.array(shift, dtype=float), K, levels


@settings(max_examples=300, deadline=None)
@given(_pyramid_case())
def test_pyramid_levels_match_brute_force(case):
    positions, cand, shift, K, levels = case
    n = len(positions)
    colors = np.column_stack([np.arange(n), -np.arange(n), np.ones(n)]).astype(float)
    cloud = PointCloudMap(positions, [(0, 0, n)], colors)
    pose = Pose(np.eye(3), shift)
    want = {}
    for t in levels:
        Kt = scale_intrinsics(K, t)
        mask = np.zeros((Kt.height, Kt.width), dtype=bool)
        depth = np.full((Kt.height, Kt.width), np.inf)
        features = np.zeros((Kt.height, Kt.width, 3))
        for (u, v), i in brute_force_zbuffer(cloud, cand, pose, Kt).items():
            mask[v, u] = True
            depth[v, u] = positions[i, 2] - shift[2]
            features[v, u] = colors[i]
        want[t] = mask, depth, features
    # the candidates themselves, and the visible set pruned at the same view
    for source in (cand, prune_visible(cand, cloud, pose, K)):
        pyr = rasterize_pyramid(cloud, source, pose, K, levels)
        assert [img.level for img in pyr.levels] == sorted(levels)
        for img in pyr.levels:
            mask, depth, features = want[img.level]
            assert np.array_equal(img.mask, mask)
            assert np.array_equal(img.depth, depth)
            assert np.array_equal(img.features, features)


class TestOccupancy:
    def test_fraction(self):
        cloud = colored_map([[0, 0, 2.0]])
        K = Intrinsics(8.0, 8.0, 16.0, 8.0, 32, 16)
        img = rasterize(cloud, np.array([0]), IDENTITY, K, level=0)
        assert occupancy(img) == 1 / 512


class TestRasterSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        K = Intrinsics(32.0, 32.0, 16.0, 8.0, 32, 16)
        pts = np.column_stack([rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50), rng.uniform(1, 5, 50)])
        cloud = colored_map(pts, rng.uniform(0, 1, (50, 3)).astype(np.float32).astype(np.float64))
        img = rasterize(cloud, np.arange(50), IDENTITY, K, level=0)
        img.depth[img.mask] = img.depth[img.mask].astype(np.float32)  # format stores f32
        path = tmp_path / "r.ras"
        save_raster(path, img)
        back = load_raster(path)
        assert back.level == img.level
        assert np.array_equal(back.mask, img.mask)
        assert np.array_equal(back.depth, img.depth)
        assert np.array_equal(back.features, img.features)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ras"
        path.write_bytes(b"XXXXXXXXXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_raster(path)

    def test_wrong_version(self, tmp_path):
        cloud = colored_map([[0, 0, 2.0]])
        K = Intrinsics(8.0, 8.0, 8.0, 8.0, 16, 16)
        img = rasterize(cloud, np.array([0]), IDENTITY, K, level=0)
        path = tmp_path / "v.ras"
        save_raster(path, img)
        raw = bytearray(path.read_bytes())
        raw[11:13] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_raster(path)

    def test_truncation(self, tmp_path):
        cloud = colored_map([[0, 0, 2.0]])
        K = Intrinsics(8.0, 8.0, 8.0, 8.0, 16, 16)
        img = rasterize(cloud, np.array([0]), IDENTITY, K, level=0)
        path = tmp_path / "t.ras"
        save_raster(path, img)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_raster(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_set_pixel_depth_not_positive_finite(self, tmp_path, bad):
        cloud = colored_map([[0, 0, 2.0]])
        K = Intrinsics(8.0, 8.0, 8.0, 8.0, 16, 16)
        img = rasterize(cloud, np.array([0]), IDENTITY, K, level=0)
        path = tmp_path / "d.ras"
        save_raster(path, img)
        raw = bytearray(path.read_bytes())
        off = raw.index(img.depth.astype("<f4").tobytes()) + 4 * int(np.flatnonzero(img.mask)[0])
        raw[off : off + 4] = np.float32(bad).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="d.ras"):
            load_raster(path)

    # 1e-50 and 1e39 are positive and finite in float64 but 0 and inf as written
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0, 1e-50, 1e39])
    def test_bad_depth_not_saved(self, tmp_path, bad):
        cloud = colored_map([[0, 0, 2.0]])
        K = Intrinsics(8.0, 8.0, 8.0, 8.0, 16, 16)
        img = rasterize(cloud, np.array([0]), IDENTITY, K, level=0)
        img.depth[img.mask] = bad
        path = tmp_path / "d.ras"
        with pytest.raises(DomainError):
            save_raster(path, img)
        assert not path.exists()


@st.composite
def _small_rasters(draw):
    """A valid raster image of 0..5 x 0..5 pixels and 1..4 channels: set
    pixels have positive finite depth, empty ones +inf, and features may be
    NaN (points without a color)."""
    h, w, c = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((h, w)) < 0.5
    depth = np.where(mask, rng.uniform(0.1, 50, (h, w)), np.inf)
    features = rng.uniform(0, 1, (h, w, c))
    features[rng.random((h, w)) < 0.2] = np.nan
    return RasterImage(draw(st.integers(0, 5)), features, depth, mask)


def _raster_bytes(directory, image) -> bytes:
    path = directory / "valid.ras"
    save_raster(path, image)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(_small_rasters(), st.data())
def test_every_raster_truncation_rejected(tmp_path_factory, image, data):
    work = tmp_path_factory.mktemp("cut")
    raw = _raster_bytes(work, image)
    cut = data.draw(st.integers(0, len(raw) - 1))
    path = work / "r.ras"
    path.write_bytes(raw[:cut])
    with pytest.raises(FormatError):
        load_raster(path)


@settings(max_examples=300, deadline=None)
@given(_small_rasters(), st.data())
def test_raster_byte_mutation_loads_or_format_error(tmp_path_factory, image, data):
    work = tmp_path_factory.mktemp("mut")
    raw = _raster_bytes(work, image)
    pos = data.draw(st.integers(0, len(raw) - 1))
    mutated = bytearray(raw)
    mutated[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
    path = work / "r.ras"
    path.write_bytes(bytes(mutated))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            back = load_raster(path)
        except FormatError:
            return
    set_depth = back.depth[back.mask]
    assert np.all(np.isfinite(set_depth) & (set_depth > 0))
