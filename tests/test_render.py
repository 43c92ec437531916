import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointvis.errors import DomainError, FormatError
from pointvis.geom import Intrinsics, Pose
from pointvis.ingest import PointCloudMap, attach_descriptors
from pointvis.raster import Channels, RasterImage, RasterPyramid, rasterize_pyramid
from pointvis.render import psnr, read_ppm, render_rgb, ssim, write_ppm

from conftest import loads_or_format_error

IDENTITY = Pose(np.eye(3), np.zeros(3))


def pyramid_of(level_fills, h=16, w=16):
    """Build a pyramid from {level: [(v, u, color), ...]} dicts."""
    levels = []
    for t, pixels in sorted(level_fills.items()):
        lh, lw = h >> t, w >> t
        feat = np.zeros((lh, lw, 3))
        depth = np.full((lh, lw), np.inf)
        mask = np.zeros((lh, lw), dtype=bool)
        for v, u, color in pixels:
            mask[v, u] = True
            feat[v, u] = color
            depth[v, u] = 1.0
        levels.append(RasterImage(t, feat, depth, mask))
    return RasterPyramid(levels, Channels.COLOR)


class TestRenderRgb:
    def test_fully_masked_level0(self):
        rng = np.random.default_rng(17)
        feat = rng.uniform(0, 1, (16, 16, 3))
        full = RasterImage(0, feat, np.ones((16, 16)), np.ones((16, 16), dtype=bool))
        empty1 = RasterImage(1, np.zeros((8, 8, 3)), np.full((8, 8), np.inf), np.zeros((8, 8), dtype=bool))
        img = render_rgb(RasterPyramid([full, empty1], Channels.COLOR))
        assert np.array_equal(img, feat)

    def test_all_empty_gives_background(self):
        pyr = pyramid_of({0: [], 3: []})
        img = render_rgb(pyr, background=0.25)
        assert np.all(img == 0.25)

    def test_hand_traced_fill(self):
        # red point at level-0 pixel (8,8); level-3 bin (1,1) also red; all else empty.
        red = (1.0, 0.0, 0.0)
        pyr = pyramid_of({0: [(8, 8, red)], 3: [(1, 1, red)]})
        img = render_rgb(pyr, background=0.5)
        # oracle: level-3 bin (1,1) covers rows/cols 8..15
        expect = np.full((16, 16, 3), 0.5)
        expect[8:16, 8:16] = red
        assert np.array_equal(img, expect)

    def test_finest_coarser_level_wins(self):
        red, blue = (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)
        pyr = pyramid_of({0: [], 1: [(0, 0, red)], 3: [(0, 0, blue)]})
        img = render_rgb(pyr)
        assert np.array_equal(img[0, 0], red)  # level 1 overrides level 3
        assert np.array_equal(img[2, 2], blue)  # only level 3 covers here

    def test_descriptor_pyramid_rejected(self):
        cloud = attach_descriptors(
            PointCloudMap(np.array([[0, 0, 2.0]]), [(0, 0, 1)]), channels=8
        )
        K = Intrinsics(8.0, 8.0, 8.0, 8.0, 16, 16)
        pyr = rasterize_pyramid(cloud, np.array([0]), IDENTITY, K, (0, 1), Channels.DESCRIPTOR)
        with pytest.raises(DomainError):
            render_rgb(pyr)

    def test_output_in_range(self):
        rng = np.random.default_rng(18)
        pix0 = [(int(v), int(u), tuple(rng.uniform(0, 1, 3))) for v, u in rng.integers(0, 16, (30, 2))]
        pix2 = [(int(v), int(u), tuple(rng.uniform(0, 1, 3))) for v, u in rng.integers(0, 4, (8, 2))]
        img = render_rgb(pyramid_of({0: pix0, 2: pix2}))
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(19)
        pix0 = [(int(v), int(u), tuple(rng.uniform(0, 1, 3))) for v, u in rng.integers(0, 16, (30, 2))]
        pix2 = [(int(v), int(u), tuple(rng.uniform(0, 1, 3))) for v, u in rng.integers(0, 4, (8, 2))]
        img = render_rgb(pyramid_of({0: pix0, 2: pix2}))
        # feed the output back as a fully-masked level-0 raster
        full = RasterImage(0, img, np.ones((16, 16)), np.ones((16, 16), dtype=bool))
        empty = RasterImage(1, np.zeros((8, 8, 3)), np.full((8, 8), np.inf), np.zeros((8, 8), dtype=bool))
        again = render_rgb(RasterPyramid([full, empty], Channels.COLOR))
        assert np.array_equal(again, img)


def render_loop(pyramid, background):
    """Per-pixel reference: the finest level whose bin (v >> t, u >> t)
    exists and is occupied, else the background; NaN colour shows as
    background."""
    h, w = pyramid.level(0).mask.shape
    bg = np.full(3, background)
    out = np.empty((h, w, 3))
    for v in range(h):
        for u in range(w):
            color = bg
            for img in sorted(pyramid.levels, key=lambda im: im.level):
                bv, bu = v >> img.level, u >> img.level
                if bv < img.mask.shape[0] and bu < img.mask.shape[1] and img.mask[bv, bu]:
                    color = img.features[bv, bu]
                    break
            out[v, u] = np.clip(color if np.all(np.isfinite(color)) else bg, 0.0, 1.0)
    return out


# Image sizes not divisible by 2^t leave rows and columns past (h >> t) << t
# that level t does not cover; features go outside [0, 1] and some are NaN.
@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 23), st.integers(2, 23), st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0), st.sampled_from([0.0, 0.3, 1.0]),
)
def test_render_matches_per_pixel_loop(h, w, seed, density, background):
    rng = np.random.default_rng(seed)
    top = min(h, w).bit_length() - 1
    coarser = [t for t in range(1, top + 1) if rng.random() < 0.7] or [top]
    levels = []
    for t in [0] + coarser:
        lh, lw = h >> t, w >> t
        mask = rng.random((lh, lw)) < density
        feat = rng.uniform(-0.2, 1.2, (lh, lw, 3))
        feat[rng.random((lh, lw)) < 0.1] = np.nan
        levels.append(RasterImage(t, np.where(mask[..., None], feat, 0.0), np.where(mask, 1.0, np.inf), mask))
    pyr = RasterPyramid(levels, Channels.COLOR)
    assert np.array_equal(render_rgb(pyr, background), render_loop(pyr, background))


@pytest.mark.parametrize("background", [np.nan, np.inf, (0.5, np.nan, 0.5)])
def test_non_finite_background_rejected(background):
    with pytest.raises(DomainError, match="background"):
        render_rgb(pyramid_of({0: [], 1: []}), background=background)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = np.random.default_rng(20).uniform(0, 1, (8, 8, 3))
        assert psnr(img, img) == float("inf")

    def test_quarter_mse(self):
        a = np.zeros((8, 8, 3))
        b = np.full((8, 8, 3), 0.5)
        assert abs(psnr(a, b) - 6.0205999132796239) <= 1e-9

    def test_full_scale_error(self):
        assert abs(psnr(np.zeros((4, 4, 3)), np.ones((4, 4, 3)))) <= 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        a, b = rng.uniform(0, 1, (8, 8, 3)), rng.uniform(0, 1, (8, 8, 3))
        assert psnr(a, b) == psnr(b, a)

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(22)
        base = rng.uniform(0.3, 0.7, (16, 16, 3))
        noise = rng.uniform(-1, 1, (16, 16, 3))
        values = [psnr(base + amp * noise, base) for amp in (0.05, 0.1, 0.2)]
        assert values[0] > values[1] > values[2]

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            psnr(np.zeros((4, 4, 3)), np.zeros((5, 4, 3)))


def ssim_naive(img, ref, window=11, sigma=1.5, k1=0.01, k2=0.03):
    """Independent nested-loop SSIM oracle (valid windows, Gaussian weights)."""
    r = np.arange(window) - (window - 1) / 2
    g = np.exp(-(r**2) / (2 * sigma**2))
    kern2 = np.outer(g, g)
    kern2 /= kern2.sum()
    c1, c2 = k1**2, k2**2
    h, w, nc = img.shape
    vals = []
    for ch in range(nc):
        x, y = img[:, :, ch], ref[:, :, ch]
        acc = []
        for i in range(h - window + 1):
            for j in range(w - window + 1):
                wx = x[i : i + window, j : j + window]
                wy = y[i : i + window, j : j + window]
                ux = (kern2 * wx).sum()
                uy = (kern2 * wy).sum()
                vx = (kern2 * wx * wx).sum() - ux**2
                vy = (kern2 * wy * wy).sum() - uy**2
                vxy = (kern2 * wx * wy).sum() - ux * uy
                acc.append(((2 * ux * uy + c1) * (2 * vxy + c2)) / ((ux**2 + uy**2 + c1) * (vx + vy + c2)))
        vals.append(np.mean(acc))
    return float(np.mean(vals))


class TestSsim:
    def test_identical_is_one(self):
        img = np.random.default_rng(23).uniform(0, 1, (16, 16, 3))
        assert abs(ssim(img, img) - 1.0) <= 1e-9

    def test_anticorrelated_binary_is_negative(self):
        rng = np.random.default_rng(24)
        img = (rng.uniform(0, 1, (16, 16, 3)) > 0.5).astype(float)
        assert ssim(img, 1.0 - img) < 0.0

    @pytest.mark.filterwarnings("error")
    def test_matches_independent_implementation(self):
        rng = np.random.default_rng(25)
        a = rng.uniform(0, 1, (32, 32, 3))
        b = np.clip(a + rng.normal(0, 0.1, (32, 32, 3)), 0, 1)
        for window in (11, 1, 2, 3, 10, 12):  # even windows too: every window that fits, none padded
            assert abs(ssim(a, b, window=window) - ssim_naive(a, b, window=window)) <= 1e-12

    @pytest.mark.parametrize("param", [
        {"window": 0}, {"window": -3}, {"window": 2.5}, {"window": np.nan},
        {"sigma": 0.0}, {"sigma": -1.5}, {"sigma": np.nan}, {"sigma": np.inf},
        {"data_range": 0.0}, {"data_range": -1.0}, {"data_range": np.nan}, {"data_range": np.inf},
    ], ids=lambda param: "{}={}".format(*next(iter(param.items()))))
    def test_invalid_parameter_rejected(self, param):
        img = np.zeros((16, 16, 3))
        with pytest.raises(DomainError, match=next(iter(param))):
            ssim(img, img, **param)

    def test_too_small_rejected(self):
        with pytest.raises(DomainError):
            ssim(np.zeros((8, 8, 3)), np.zeros((8, 8, 3)))

    def test_dim_mismatch(self):
        with pytest.raises(DomainError):
            ssim(np.zeros((16, 16, 3)), np.zeros((16, 12, 3)))


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(26)
        img = np.floor(rng.uniform(0, 1, (12, 9, 3)) * 255) / 255.0
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert np.abs(back - img).max() <= 1e-12

    def test_rounding_half_up(self, tmp_path):
        img = np.full((1, 1, 3), 0.5)  # 127.5 rounds to 128
        path = tmp_path / "half.ppm"
        write_ppm(path, img)
        raw = path.read_bytes()
        assert raw[-3:] == bytes([128, 128, 128])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            read_ppm(path)

    @pytest.mark.parametrize("raw", [b"P6\n4", b"P6\nx 2 255\n", b"P6\n-2 -2 255\n" + bytes(12)])
    def test_malformed_header(self, tmp_path, raw):
        path = tmp_path / "bad.ppm"
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            read_ppm(path)


@st.composite
def _small_images(draw):
    """An (h, w, 3) image of 0..4 x 0..4 pixels with values on the 1/255 grid."""
    h, w = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.integers(0, 256, (h, w, 3)) / 255.0


def _ppm_bytes(directory, img) -> bytes:
    path = directory / "valid.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(_small_images(), st.data())
def test_every_ppm_truncation_loads_or_format_error(tmp_path_factory, img, data):
    work = tmp_path_factory.mktemp("cut")
    raw = _ppm_bytes(work, img)
    path = work / "i.ppm"
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    loads_or_format_error(read_ppm, path)


@settings(max_examples=300, deadline=None)
@given(_small_images(), st.data())
def test_ppm_byte_mutation_loads_or_format_error(tmp_path_factory, img, data):
    work = tmp_path_factory.mktemp("mut")
    raw = _ppm_bytes(work, img)
    pos = data.draw(st.integers(0, len(raw) - 1))
    mutated = bytearray(raw)
    mutated[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[pos]))
    path = work / "i.ppm"
    path.write_bytes(bytes(mutated))
    loads_or_format_error(read_ppm, path)
