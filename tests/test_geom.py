import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointvis import geom
from pointvis.errors import DomainError
from pointvis.geom import BinWork, Intrinsics, Pose, pixel_bins, project_points, scale_intrinsics

from conftest import CamPoint, back_project, project, world_to_camera


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(DomainError):
            Pose(np.eye(3) * 1.01, np.zeros(3))

    # entries near the float64 limit overflow in R^T R; that must still be
    # a DomainError, with no RuntimeWarning on the way
    @pytest.mark.filterwarnings("error")
    def test_rejects_overflowing_rotation_without_warning(self):
        with pytest.raises(DomainError, match="orthonormal"):
            Pose(np.array([[1e300, 1e300, 0.0], [1e300, -1e300, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3))

    def test_batched_check_reports_the_worst_matrix(self):
        batch = np.stack([np.eye(3), np.eye(3) * 1.01, np.diag([1.0, 1.0, -1.0]), np.eye(3) * 1.1])
        with pytest.raises(DomainError, match=r"orthonormal \(\|R\^T R - I\|_max = 0.21\)"):
            geom.check_rotations(batch)
        with pytest.raises(DomainError, match="determinant -1.000000 is not"):
            geom.check_rotations(batch[[0, 2, 0]])
        geom.check_rotations(np.zeros((0, 3, 3)))

    def test_rejects_reflection(self):
        with pytest.raises(DomainError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_negative_frame_id(self):
        with pytest.raises(DomainError):
            Pose(np.eye(3), np.zeros(3), frame_id=-1)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pose = Pose(rot_z(rng.uniform(0, 6.28)), rng.uniform(-5, 5, 3))
            p = rng.uniform(-10, 10, 3)
            c = world_to_camera(pose, p)
            back = pose.rotation @ np.array([c.x, c.y, c.z]) + pose.translation
            assert np.abs(back - p).max() <= 1e-9

    def test_camera_center_maps_to_origin(self):
        pose = Pose(rot_z(0.7), [1.0, 2.0, 3.0])
        c = world_to_camera(pose, pose.translation)
        assert abs(c.x) <= 1e-9 and abs(c.y) <= 1e-9 and abs(c.z) <= 1e-9


class TestWorldToCamera:
    def test_identity(self):
        c = world_to_camera(Pose(np.eye(3), np.zeros(3)), [1.0, 2.0, 3.0])
        assert (c.x, c.y, c.z) == (1.0, 2.0, 3.0)

    def test_pure_translation(self):
        pose = Pose(np.eye(3), [1.0, 0.0, 0.0])
        c = world_to_camera(pose, [1.0, 0.0, 5.0])
        assert (c.x, c.y, c.z) == (0.0, 0.0, 5.0)

    def test_pi_rotation_about_z(self):
        pose = Pose(rot_z(math.pi), np.zeros(3))
        c = world_to_camera(pose, [1.0, 0.0, 2.0])
        assert abs(c.x - (-1.0)) <= 1e-9
        assert abs(c.y) <= 1e-9
        assert abs(c.z - 2.0) <= 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            world_to_camera(Pose(np.eye(3), np.zeros(3)), [np.nan, 0.0, 1.0])


class TestProject:
    K = Intrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)

    def test_optical_axis(self):
        assert project(self.K, CamPoint(0, 0, 2)) == (50.0, 50.0, 2.0)

    def test_off_axis(self):
        assert project(self.K, CamPoint(1, 0, 2)) == (100.0, 50.0, 2.0)

    def test_behind_camera(self):
        assert project(self.K, CamPoint(0, 0, -1)) is None
        assert project(self.K, CamPoint(0, 0, 0)) is None

    def test_back_projection_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            c = CamPoint(*rng.uniform(-1, 1, 2), rng.uniform(0.1, 20))
            u, v, d = project(self.K, c)
            b = back_project(self.K, u, v, d)
            assert abs(b.x - c.x) <= 1e-6 and abs(b.y - c.y) <= 1e-6 and abs(b.z - c.z) <= 1e-6


class TestScaleIntrinsics:
    K = Intrinsics(100.0, 100.0, 50.0, 50.0, 512, 1024)

    def test_level_zero_is_identity(self):
        assert scale_intrinsics(self.K, 0) == self.K

    def test_level_two(self):
        K2 = scale_intrinsics(self.K, 2)
        assert K2 == Intrinsics(25.0, 25.0, 12.5, 12.5, 128, 256)

    def test_level_five(self):
        K5 = scale_intrinsics(self.K, 5)
        assert K5 == Intrinsics(3.125, 3.125, 1.5625, 1.5625, 16, 32)

    def test_collapse_rejected(self):
        with pytest.raises(DomainError):
            scale_intrinsics(Intrinsics(10, 10, 2, 2, 4, 4), 3)
        with pytest.raises(DomainError):
            scale_intrinsics(self.K, -1)

    def test_projection_scales_by_level(self):
        rng = np.random.default_rng(2)
        for t in (1, 2, 3):
            Kt = scale_intrinsics(self.K, t)
            for _ in range(20):
                c = CamPoint(*rng.uniform(-2, 2, 2), rng.uniform(0.5, 30))
                u0, v0, d0 = project(self.K, c)
                ut, vt, dt = project(Kt, c)
                assert abs(ut - u0 / 2**t) <= 1e-9
                assert abs(vt - v0 / 2**t) <= 1e-9
                assert dt == d0


class TestIntrinsicsValidation:
    def test_rejects_bad_focal(self):
        with pytest.raises(DomainError):
            Intrinsics(0.0, 1.0, 0.0, 0.0, 10, 10)

    def test_rejects_zero_dims(self):
        with pytest.raises(DomainError):
            Intrinsics(1.0, 1.0, 0.0, 0.0, 0, 10)


# The size rule holds a count to physical memory, or to the array limit alone
# where `os.sysconf` cannot tell the memory size; a float count may be inf or nan.
def test_check_fits_limits(monkeypatch):
    arrays = np.iinfo(np.intp).max
    memory = min(arrays, os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    geom.check_fits(memory // 24, 24, "fits")
    for count in (memory // 24 + 1, float(memory), math.inf, math.nan, 10**400):
        with pytest.raises(DomainError, match="too much"):
            geom.check_fits(count, 24, "too much")
    monkeypatch.delattr(os, "sysconf_names")
    geom.check_fits(arrays // 24, 24, "fits")
    with pytest.raises(DomainError):
        geom.check_fits(arrays // 24 + 1, 24, "too much")


class TestPixelBins:
    def test_matches_scalar_projection(self):
        K = Intrinsics(20.0, 20.0, 16.0, 8.0, 32, 16)
        pose = Pose(rot_z(0.3), np.array([0.5, -0.2, 1.0]))
        pts = np.random.default_rng(3).uniform(-6, 6, size=(500, 3))
        keep, pix, z = pixel_bins(pose, K, pts)
        assert keep.dtype == pix.dtype == np.int64 and len(keep) == len(pix) == len(z)
        kept = iter(zip(keep, pix, z))
        for i, p in enumerate(pts):
            hit = project(K, world_to_camera(pose, p))
            inside = hit is not None and 0 <= math.floor(hit[0]) < 32 and 0 <= math.floor(hit[1]) < 16
            if inside:
                row, pixel, depth = next(kept)
                assert row == i and pixel == math.floor(hit[1]) * 32 + math.floor(hit[0])
                assert depth == pytest.approx(hit[2], rel=1e-12)
        assert next(kept, None) is None
        assert 0 < len(keep) < len(pts)


def _full_length_rule(K, u, v, z):
    """The binning rule as it was before bounds were decided on the float
    (u, v): floor and cast every row (rows behind the camera as -1), mark
    the in-bounds ones, then keep those, with the pixel index in int64."""
    ahead = z > 0
    with np.errstate(invalid="ignore"):  # an infinite or huge u does not fit int64: out of bounds either way
        ui = np.floor(np.where(ahead, u, -1)).astype(np.int64)
        vi = np.floor(np.where(ahead, v, -1)).astype(np.int64)
    ok = ahead & (ui >= 0) & (ui < K.width) & (vi >= 0) & (vi < K.height)
    return np.flatnonzero(ok), vi[ok] * K.width + ui[ok], z[ok]


def _coord(size):
    edges = [
        -0.0, 0.0, float(size), float(np.nextafter(size, 0)), float(np.nextafter(np.float32(size), np.float32(0))),
        -5e-324, size / 2, -1.0, 1e30,
    ]
    return st.one_of(st.sampled_from(edges), st.floats(-2.0 * size, 2.0 * size))


_DEPTH = st.one_of(st.sampled_from([1.0, 0.0, -0.0, -1.0, 1e-300, 0.5]), st.floats(-4.0, 4.0))


# Deciding the bounds on the float (u, v) and flooring only the kept rows
# must keep exactly the rows, pixels and depths of the full-length rule.
# With the identity pose and unit focal lengths, a point at depth 1 lands at
# u = x, v = y, so the drawn coordinates hit the image edges exactly; the
# same rows, given to the rule as (u, v, z) directly, also reach u = -0.0
# and u = +-inf.
@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    width=st.integers(1, 40),
    height=st.integers(1, 40),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_pixel_bins_matches_full_length_rule(data, width, height, dtype):
    rows = data.draw(st.lists(st.tuples(_coord(width), _coord(height), _DEPTH), max_size=40))
    K = Intrinsics(1.0, 1.0, 0.0, 0.0, width, height)
    pose = Pose(np.eye(3), np.zeros(3))
    pts = np.array(rows, dtype=np.float64).reshape(-1, 3).astype(dtype)
    want = _full_length_rule(K, *project_points(pose, K, pts))
    for a, b in zip(pixel_bins(pose, K, pts), want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    u, v, z = np.array(rows + [(-0.0, -0.0, 1.0), (np.inf, 0.0, 1.0), (0.0, -np.inf, 2.0)]).T
    with mock.patch.object(geom, "project_points", lambda *args: (u, v, z)):
        got = pixel_bins(pose, K, np.zeros((len(u), 3)))
    for a, b in zip(got, _full_length_rule(K, u, v, z)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# The z-buffer bins its candidates block by block, so binning must not
# depend on how many rows share one call: the camera transform and every
# step after it must give each row the same bits in a block of any size as
# in the whole array.
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 3000),
    block=st.integers(1, 3000),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_pixel_bins_per_block_equals_whole(seed, n, block, dtype):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    pose = Pose(q, rng.uniform(-5, 5, size=3))
    K = Intrinsics(40.0, 30.0, 31.5, 23.5, 64, 48)
    pts = rng.uniform(-20, 20, size=(n, 3)).astype(dtype)
    whole = pixel_bins(pose, K, pts)
    work = BinWork(block)
    for buf in (work.diff, work.xyz, work.tmp):
        buf.fill(np.nan)
    for scratch in (None, work):  # a scratch reused by every block changes no bit
        parts = []
        for s in range(0, max(n, 1), block):
            keep, pix, z = pixel_bins(pose, K, pts[s : s + block], scratch)
            parts.append((keep + s, pix.copy(), z.copy()))  # with a scratch, views valid until its next use
        for a, b in zip(whole, zip(*parts)):
            assert np.concatenate(b).tobytes() == a.tobytes()


# `dot3` is written out here in plain Python floats, which CPython rounds
# once per operation: the package's product must give the same bits, with
# a float32 `a` multiplied in float64, and so must `project_points`, whose
# u, v and z are the camera transform's products and the pinhole's.
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dot3_sums_in_a_fixed_order(dtype):
    rng = np.random.default_rng(8)
    a, m = rng.normal(size=(40, 3)).astype(dtype), rng.normal(size=(3, 4))
    want = [[(float(r[0]) * c[0] + float(r[1]) * c[1]) + float(r[2]) * c[2] for c in m.T.tolist()] for r in a]
    assert geom.dot3(a, m).tolist() == want
    assert geom.dot3(a, m[:, 1]).tolist() == [row[1] for row in want]
    assert geom.dot3(a[0], m[:, 2]).tolist() == want[0][2]
    pose, K = Pose(rot_z(0.3), np.array([0.5, -0.2, 1.0])), Intrinsics(40.0, 30.0, 31.5, 23.5, 64, 48)
    ahead = a + np.array([0, 0, 6], dtype)  # camera z = world z - 1 > 0, so every row projects
    want = [project(K, world_to_camera(pose, p)) for p in ahead]
    assert None not in want
    assert np.column_stack(project_points(pose, K, ahead)).tolist() == [list(w) for w in want]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(-4, 4),
    st.integers(0, 2),
    st.booleans(),
    st.integers(1, 5),
    st.data(),
)
def test_batched_rotation_check_agrees_with_pose(seed, ulps, col, reflect, size, data):
    """A rotation with one column scaled by sqrt(1 + _ORTHO_TOL), moved a
    few ulps either side, so |R^T R - I|_max lands on either side of the
    tolerance (and a reflection when `reflect`): `check_rotations` on a
    batch of rotations holding it anywhere raises exactly when `Pose(R, t)`
    does, with the same message."""
    rng = np.random.default_rng(seed)
    batch = np.linalg.qr(rng.normal(size=(size, 3, 3)))[0]
    batch[:, :, 0] *= np.sign(np.linalg.det(batch))[:, None]  # rotations, not reflections
    scale = np.sqrt(1.0 + geom._ORTHO_TOL)
    at = data.draw(st.integers(0, size - 1))
    batch[at, :, col] *= scale + ulps * np.spacing(scale)
    if reflect:
        batch[at, :, (col + 1) % 3] *= -1.0

    def outcome(check):
        try:
            check()
        except DomainError as e:
            return str(e)
        return None

    assert outcome(lambda: geom.check_rotations(batch)) == outcome(lambda: Pose(batch[at], np.zeros(3)))
