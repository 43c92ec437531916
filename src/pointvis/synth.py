"""Synthetic street-canyon scene with analytic rectangle occluders and a
brute-force ray-casting visibility oracle, and the scene directory layout
that `write_scene` writes and `read_scene` reads.

World frame: x right, y down, z forward (so an identity pose looks down
the corridor). The camera travels along the z axis at ground height
minus `CAMERA_HEIGHT`. Surfaces are textured rectangles; point colors
are sampled from the same analytic texture the oracle painter uses, so
a sampled point and the painter agree exactly at the sample position.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError
from .geom import Intrinsics, Pose, check_fits, dot3, pixel_bins
from .ingest import (
    PointCloudMap, Scan, Sequence, accumulate, read_intrinsics, read_lines, read_numbers, read_poses,
    read_scan, write_intrinsics, write_poses, write_scan,
)
from .render import DEFAULT_BACKGROUND, read_view_image, write_ppm

SELF_HIT_EPS = 1e-4  # relative slack before the segment endpoint
CAMERA_HEIGHT = 1.5  # the ground lies this far below the camera path


@dataclass
class Rect3:
    """Textured rectangle: origin + a*edge_u + b*edge_v, (a, b) in [0,1]^2.

    Construction also computes what the ray-rectangle solve reads: the
    normal n = edge_u x edge_v and the dual vectors dual_u = (edge_v x n) /
    (n @ n) and dual_v = (n x edge_u) / (n @ n), so that an offset q =
    a*edge_u + b*edge_v in the plane has a = q @ dual_u and b = q @ dual_v."""

    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    color: np.ndarray  # base RGB in [0, 1]
    normal: np.ndarray = field(init=False, repr=False)
    dual_u: np.ndarray = field(init=False, repr=False)
    dual_v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.edge_u = np.asarray(self.edge_u, dtype=np.float64).reshape(3)
        self.edge_v = np.asarray(self.edge_v, dtype=np.float64).reshape(3)
        self.color = np.asarray(self.color, dtype=np.float64).reshape(3)
        u, v = self.edge_u, self.edge_v
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            n = self.normal = np.cross(u, v)
            nn = dot3(n, n)
            if nn == 0.0:
                raise DomainError("degenerate rectangle: spanning vectors are parallel")
            duals = np.stack([np.cross(v, n), np.cross(n, u)]) / nn
            self.dual_u, self.dual_v = duals
            corners = self.origin + np.array([(0, 0), (1, 0), (0, 1), (1, 1)]) @ np.stack([u, v])
            reach = 2 * (np.abs(u) + np.abs(v)) @ np.abs(duals).T  # twice the bound on a hit's |a|, |b| terms
            # corners, reach and the origin's offsets are only checked for overflow, so they stay on BLAS
            derived = (n, nn, duals, corners, np.stack([u, v, n]) @ self.origin, reach)
            if not all(np.isfinite(x).all() for x in derived):
                raise DomainError("rectangle too large: its normal, dual vectors or corners overflow float64")


def texture_color(surface_idx: int, base: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Smooth per-surface texture: base color modulated by a sinusoid of
    world position. Pure function of (surface_idx, base, position)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    rng = np.random.default_rng(7919 + surface_idx)
    waves = rng.normal(size=(3, 3))
    waves /= np.linalg.norm(waves, axis=1, keepdims=True)
    phases = rng.uniform(0, 2 * np.pi, size=3)
    phase_arg = 2 * np.pi * dot3(pts, waves.T) / 6.0 + phases
    out = base * (0.85 + 0.15 * np.sin(phase_arg))
    return np.clip(out, 0.0, 1.0)


@dataclass
class CanyonParams:
    length: float = 60.0
    wall_gap: float = 8.0
    point_spacing: float = 0.25
    lidar_range: float = 20.0
    frame_step: float = 1.0
    occluders: int = 0
    seed: int = 0
    wall_height: float = 8.0  # occluders are 0.75 * wall_height tall
    occluder_clearance: float = 0.0  # cleared corridor length behind each occluder
    close_end: bool = True
    image_width: int = 256
    image_height: int = 128
    focal: float | None = None  # default image_width / 2


@dataclass
class SyntheticScene:
    surfaces: list[Rect3]
    trajectory: list[Pose]
    scans: list[Scan]
    intrinsics: Intrinsics
    scan_colors: list[np.ndarray] = field(default_factory=list)


_PALETTE = np.array(
    [
        (0.55, 0.55, 0.60),  # ground
        (0.75, 0.45, 0.35),  # left wall
        (0.40, 0.55, 0.75),  # right wall
        (0.60, 0.70, 0.45),  # end cap
        (0.85, 0.30, 0.30),
        (0.30, 0.80, 0.35),
        (0.90, 0.75, 0.25),
        (0.70, 0.35, 0.80),
        (0.30, 0.75, 0.80),
        (0.85, 0.55, 0.70),
    ]
)


def make_canyon(params: CanyonParams) -> SyntheticScene:
    p = params
    for name in ("length", "wall_gap", "point_spacing", "lidar_range", "frame_step"):
        if not 0 < getattr(p, name) < np.inf:
            raise DomainError(f"{name} must be positive and finite")
    if p.occluders < 0 or p.seed < 0:
        raise DomainError("occluders and seed must be non-negative")
    if not 0 <= p.occluder_clearance < np.inf:
        raise DomainError("occluder_clearance must be non-negative and finite")
    if p.point_spacing > p.wall_gap:
        raise DomainError("degenerate scene: point spacing exceeds the wall gap")
    if p.lidar_range <= p.wall_gap:
        raise DomainError("lidar_range must exceed wall_gap")

    with np.errstate(over="ignore"):  # inf: refused
        frames = np.float64(p.length) / p.frame_step
    check_fits(frames, 96, f"length {p.length:g} at frame_step {p.frame_step:g} gives {frames:g} poses")  # 12 float64
    n_frames = int(round(p.length / p.frame_step))
    if n_frames == 0:
        raise DomainError(f"length {p.length:g} at frame_step {p.frame_step:g} gives no pose")
    focal = p.focal if p.focal is not None else p.image_width / 2
    K = Intrinsics(focal, focal, p.image_width / 2, p.image_height / 2, p.image_width, p.image_height)
    surfaces, samples, sample_colors, _ = _sample_canyon(p)
    n_rows = _scan_rows_bound(samples[:, 2], n_frames, p)
    check_fits(n_rows, 48, f"{n_frames} frames in lidar_range {p.lidar_range:g} of {len(samples)} samples "
               f"give up to {n_rows} scan rows")  # float64 xyz and color each
    trajectory, scans, scan_colors = [], [], []
    x, y, z = samples.T
    xy2, d = x * x + y * y, np.empty(len(samples))  # every center is on the z axis
    for t in range(n_frames):
        center = np.array([0.0, 0.0, t * p.frame_step])
        trajectory.append(Pose(np.eye(3), center, t))
        np.square(np.subtract(z, center[2], out=d), out=d)
        near = np.sqrt(np.add(xy2, d, out=d), out=d) <= p.lidar_range  # norm's own sum, (x x + y y) + dz dz
        scans.append(Scan(t, samples[near] - center))
        scan_colors.append(sample_colors[near])

    return SyntheticScene(surfaces, trajectory, scans, K, scan_colors)


def _sample_canyon(p: CanyonParams) -> tuple[list[Rect3], np.ndarray, np.ndarray, list[int]]:
    """The canyon's surfaces; their samples, a jittered grid of round(a / spacing)
    x round(b / spacing) on a surface of sides a x b, with texture colors; and
    each surface's row count. Samples and colors are allocated once, at the grids'
    total, and written in place; occluder clearance drops rows, so the tail is cut."""
    g, L, wh, ch = p.wall_gap, p.length, p.wall_height, CAMERA_HEIGHT
    # the ground g x L, two walls L x wh, the end cap g x wh and each occluder g x 0.75 wh
    sides = np.abs(np.array([(g, L), (L, wh), (g, wh), (g, 0.75 * wh)]))
    counts = [1, 2, int(p.close_end), p.occluders]
    with np.errstate(over="ignore"):  # inf: refused
        grids = np.maximum(1.0, np.rint(sides / p.point_spacing))
        n_samples = sum(n * c for n, c in zip(grids.prod(axis=1), counts) if c)
    check_fits(n_samples, 48, f"length {L:g}, wall_gap {g:g} and {p.occluders} occluders at point_spacing "
               f"{p.point_spacing:g} give {n_samples:g} samples")  # float64 xyz and color each
    surfaces = [
        Rect3((-g / 2, ch, 0), (g, 0, 0), (0, 0, L), _PALETTE[0]),  # ground
        Rect3((-g / 2, ch, 0), (0, 0, L), (0, -wh, 0), _PALETTE[1]),  # left wall
        Rect3((g / 2, ch, 0), (0, 0, L), (0, -wh, 0), _PALETTE[2]),  # right wall
    ]
    if p.close_end:
        surfaces.append(Rect3((-g / 2, ch, L), (g, 0, 0), (0, -wh, 0), _PALETTE[3]))
    n_static, occ_z = len(surfaces), [L * (k + 1) / (p.occluders + 1) for k in range(p.occluders)]
    surfaces += [Rect3((-g / 2, ch, z), (g, 0, 0), (0, -0.75 * wh, 0), _PALETTE[4 + k % (len(_PALETTE) - 4)])
                 for k, z in enumerate(occ_z)]
    rng = np.random.default_rng(p.seed)
    samples, colors = np.empty((int(n_samples), 3)), np.empty((int(n_samples), 3))
    rows, cursor = [], 0
    plan = np.repeat(grids, counts, axis=0).astype(np.int64).tolist()  # one (nu, nv) per surface
    for idx, (rect, (nu, nv)) in enumerate(zip(surfaces, plan, strict=True)):
        ii, jj = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
        a = (ii.reshape(-1) + 0.5 + rng.uniform(-0.45, 0.45, ii.size)) / nu
        b = (jj.reshape(-1) + 0.5 + rng.uniform(-0.45, 0.45, jj.size)) / nv
        pts = samples[cursor : cursor + len(a)]
        # the two steps of `origin + a * edge_u + b * edge_v`, written into the surface's own rows
        np.add(rect.origin, a[:, None] * rect.edge_u, out=pts)
        pts += b[:, None] * rect.edge_v
        if p.occluder_clearance > 0 and idx < n_static:
            blocked = np.zeros(len(pts), dtype=bool)
            for z in occ_z:
                blocked |= (pts[:, 2] > z) & (pts[:, 2] < z + p.occluder_clearance)
            kept = pts[~blocked]
            pts = samples[cursor : cursor + len(kept)]
            pts[:] = kept
        colors[cursor : cursor + len(pts)] = texture_color(idx, rect.color, pts)
        rows.append(len(pts))
        cursor += len(pts)
    return surfaces, samples[:cursor], colors[:cursor], rows


def _scan_rows_bound(z: np.ndarray, n_frames: int, p: CanyonParams) -> int:
    """An upper bound on the rows `make_canyon`'s scans keep from samples at
    depths `z`. A frame at z_t keeps only samples with |z - z_t| <=
    lidar_range, so the (frame, sample) pairs within that reach, widened by
    a few ulps of rounding, bound them; the shorter of the two sorted
    arrays is searched in the longer."""
    zs, z_t = np.sort(z), np.arange(n_frames) * p.frame_step
    reach = p.lidar_range + 8 * np.spacing(p.lidar_range + np.abs(zs).max(initial=0) + z_t.max(initial=0))
    short, long = sorted((zs, z_t), key=len)
    return int((np.searchsorted(long, short + reach, "right") - np.searchsorted(long, short - reach)).sum())


def scene_sequence(scene: SyntheticScene) -> Sequence:
    """The scene's trajectory and intrinsics, and its scans accumulated at
    their poses into a colored world map."""
    cloud = accumulate(scene.scans, scene.trajectory, colors=scene.scan_colors)
    return Sequence([(p.frame_id, p) for p in scene.trajectory], scene.intrinsics, cloud)


def _ray_rect_t(origins: np.ndarray, dirs: np.ndarray, rect: Rect3) -> np.ndarray:
    """Ray parameter t at which row i of origins + t*dirs meets the
    rectangle, or +inf where the ray misses it or runs parallel to it.
    The single ray-rectangle solve behind the oracle and the painter;
    callers choose the admissible t interval, which never holds 0.

    With m = origin - o, t = (m @ n) / (d @ n), and the offset q = t*d - m
    from the rectangle's origin to the plane hit is a*edge_u + b*edge_v, so
    a = q @ dual_u and b = q @ dual_v: no Gram determinant to cancel. An
    overflow is a miss: it leaves inf, nan or 0 in t, or inf or nan in a or
    b. No hit overflows past t. A hit has |q_i| <= |u_i| + |v_i|, so (|u| +
    |v|) @ |dual| bounds each term of a and b, and `Rect3` holds twice that
    finite; t*d is the camera-to-hit offset (shorter than d for t < 1). A
    segment hit has |m @ n| < |d @ n|, so its t overflows only with d @ n,
    on a segment too long for float64 to solve."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = rect.origin - origins
        t = dot3(m, rect.normal) / dot3(dirs, rect.normal)
        q = t[:, None] * dirs - m
        a, b = dot3(q, rect.dual_u), dot3(q, rect.dual_v)
        inside = np.isfinite(t) & (a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0)
        return np.where(inside, t, np.inf)


def oracle_occluded_many(positions: np.ndarray, pose: Pose, surfaces: list[Rect3]) -> np.ndarray:
    """True where some surface blocks the segment camera-center -> point."""
    pts = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    deltas = pts - pose.translation
    centers = np.broadcast_to(pose.translation, pts.shape)
    occluded = np.zeros(len(pts), dtype=bool)
    for rect in surfaces:
        todo = ~occluded
        if not np.any(todo):
            break
        t = _ray_rect_t(centers[todo], deltas[todo], rect)
        occluded[todo] |= (t > 0.0) & (t < 1.0 - SELF_HIT_EPS)
    return occluded


def oracle_visible_many(
    positions: np.ndarray, pose: Pose, K: Intrinsics, surfaces: list[Rect3]
) -> np.ndarray:
    """Vectorized oracle: positive depth, in-bounds pixel, unobstructed ray."""
    pts = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    keep = pixel_bins(pose, K, pts)[0]
    visible = np.zeros(len(pts), dtype=bool)
    if len(keep):
        visible[keep] = ~oracle_occluded_many(pts[keep], pose, surfaces)
    return visible


def oracle_paint(
    pose: Pose, K: Intrinsics, surfaces: list[Rect3], background: float = DEFAULT_BACKGROUND
) -> np.ndarray:
    """Analytic ground-truth render: nearest surface hit per pixel-center
    ray, textured; background where no surface is hit."""
    us = (np.arange(K.width) + 0.5 - K.cx) / K.fx
    vs = (np.arange(K.height) + 0.5 - K.cy) / K.fy
    uu, vv = np.meshgrid(us, vs)
    dirs_cam = np.stack([uu, vv, np.ones_like(uu)], axis=-1).reshape(-1, 3)
    dirs = dot3(dirs_cam, pose.rotation.T)
    centers = np.broadcast_to(pose.translation, dirs.shape)
    best_t = np.full(len(dirs), np.inf)
    best_surf = np.full(len(dirs), -1, dtype=np.int64)
    for idx, rect in enumerate(surfaces):
        t = _ray_rect_t(centers, dirs, rect)
        closer = (t > 1e-9) & (t < best_t)
        best_t[closer] = t[closer]
        best_surf[closer] = idx
    img = np.full((len(dirs), 3), float(background))
    for idx, rect in enumerate(surfaces):
        sel = best_surf == idx
        if np.any(sel):
            hits = pose.translation + best_t[sel, None] * dirs[sel]
            img[sel] = texture_color(idx, rect.color, hits)
    return img.reshape(K.height, K.width, 3)


def _numbered(directory, number: int, ext: str) -> str:
    """File `number` of a scene directory's `scans/` or `images/`: six digits and `ext`."""
    return os.path.join(directory, f"{number:06d}{ext}")


def write_scene(out_dir, scene: SyntheticScene, with_images: bool = False) -> None:
    """Dump a scene in the ingest formats: scans/, poses.txt, intrinsics.txt, a surfaces.txt
    manifest (9 geometry floats + 3 color floats per line) and, with `with_images`, the
    painter's view from each pose in images/."""
    os.makedirs(os.path.join(out_dir, "scans"), exist_ok=True)
    for scan in scene.scans:
        write_scan(_numbered(os.path.join(out_dir, "scans"), scan.scan_id, ".bin"), scan)
    write_poses(os.path.join(out_dir, "poses.txt"), [(p.frame_id, p) for p in scene.trajectory])
    write_intrinsics(os.path.join(out_dir, "intrinsics.txt"), scene.intrinsics)
    with open(os.path.join(out_dir, "surfaces.txt"), "w", encoding="utf-8") as f:
        for rect in scene.surfaces:
            vals = np.concatenate([rect.origin, rect.edge_u, rect.edge_v, rect.color])
            f.write(" ".join(repr(float(v)) for v in vals) + "\n")
    if with_images:
        os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
        for pose in scene.trajectory:
            img = oracle_paint(pose, scene.intrinsics, scene.surfaces)
            write_ppm(_numbered(os.path.join(out_dir, "images"), pose.frame_id, ".ppm"), img)


def load_scans(scan_dir, poses_path, image_dir=None, K=None) -> tuple[list[tuple[int, Pose]], PointCloudMap]:
    """The trajectory in `poses_path`, and every numbered scan file in
    `scan_dir` accumulated at its pose into a map. A scan file is named by
    its scan id in ASCII digits, leading zeros allowed, and `.bin`, `.dat`
    or no extension; other names are skipped, and two files of one id are
    a FormatError. With `image_dir`, a directory, each scan's points take
    the nearest pixel of its `<scan id:06d>.ppm` there, if any, projected by
    `K` at its pose, one image held at a time; the other points' colors are
    NaN. An image not K's size is a DomainError."""
    frames = read_poses(poses_path)
    pose_of = dict(frames)
    scans, named = [], {}
    for name in sorted(os.listdir(scan_dir)):
        stem, ext = os.path.splitext(name)
        if ext not in (".bin", ".dat", "") or not (stem.isascii() and stem.isdigit()):
            continue
        sid, path = int(stem), os.path.join(scan_dir, name)
        if sid in named:
            raise FormatError(f"{named[sid]} and {path} are both scan {sid}")
        if sid not in pose_of:
            raise FormatError(f"scan {sid} has no pose in {poses_path}")
        named[sid] = path
        scans.append(read_scan(path, scan_id=sid))
    if not scans:
        raise FormatError(f"no scan files found in {scan_dir}")
    cloud = accumulate(scans, [pose_of[scan.scan_id] for scan in scans])
    if image_dir is None:
        return frames, cloud
    listed = {os.path.join(image_dir, name) for name in os.listdir(image_dir)}  # OSError unless a directory
    colors = np.full((len(cloud), 3), np.nan)
    for sid, first, count in cloud.scan_ranges:
        if (path := _numbered(image_dir, sid, ".ppm")) in listed:
            keep, pix, _ = pixel_bins(pose_of[sid], K, cloud.positions[first : first + count])
            colors[first + keep] = read_view_image(path, K, path).reshape(-1, 3)[pix]  # let go before the next is read
    return frames, PointCloudMap(cloud.positions, cloud.scan_ranges, colors)


def read_scene(scene_dir) -> tuple[Sequence, list[Rect3] | None]:
    """A directory as `write_scene` writes it, as a Sequence, and its
    surfaces. The map is colored from images/ when there is one; the
    surfaces are None when there is no surfaces.txt."""
    K = read_intrinsics(os.path.join(scene_dir, "intrinsics.txt"))
    images, surfaces = os.path.join(scene_dir, "images"), os.path.join(scene_dir, "surfaces.txt")
    frames, cloud = load_scans(os.path.join(scene_dir, "scans"), os.path.join(scene_dir, "poses.txt"),
                               images if os.path.isdir(images) else None, K)
    return Sequence(frames, K, cloud), read_surfaces(surfaces) if os.path.exists(surfaces) else None


def read_surfaces(path) -> list[Rect3]:
    surfaces = []
    for where, fields in read_lines(path):
        vals = read_numbers(where, fields, 12)
        try:
            surfaces.append(Rect3(vals[0:3], vals[3:6], vals[6:9], vals[9:12]))
        except DomainError as e:
            raise FormatError(f"{where}: {e}") from e
    return surfaces
