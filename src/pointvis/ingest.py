"""KITTI-style sensor ingest: binary LiDAR scans, trajectory files,
intrinsics, map accumulation, train/test splits, the map file, and
`read_binary`/`write_binary`: the one reader and writer of v1 binary files.
"""
from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError
from .geom import Intrinsics, Pose, pixel_bins

MAP_MAGIC = b"CENPBG-MAP\x00"
MAP_VERSION = 1
_MAP_HEADER = struct.Struct("<HQHBQ")  # version, N, C, flags, range count

NO_COLOR = np.float32(np.nan)  # sentinel for points without a sampled color


@dataclass
class Scan:
    """One LiDAR sweep in its sensor frame."""

    scan_id: int
    points: np.ndarray  # (N, 3) float
    reflectance: np.ndarray | None = None  # (N,) in [0, 1]

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise DomainError(f"scan {self.scan_id} has non-finite coordinates")
        if self.scan_id < 0:
            raise DomainError("scan_id must be non-negative")
        if self.reflectance is not None:
            self.reflectance = np.asarray(self.reflectance, dtype=np.float64).reshape(-1)
            if len(self.reflectance) != len(self.points):
                raise DomainError("reflectance length does not match point count")

    def __len__(self):
        return len(self.points)


@dataclass
class PointCloudMap:
    """Accumulated world-frame point cloud with per-scan index ranges.

    Position, color and descriptor arrays that are float32 or float64 are
    kept as given (a loaded map keeps the file's float32); any other dtype
    is widened to float64. Consumers widen the rows they gather to float64,
    which is exact from float32, so results do not depend on the dtype.
    """

    positions: np.ndarray  # (N, 3) world frame
    scan_ranges: list[tuple[int, int, int]]  # (scan_id, first_index, count)
    colors: np.ndarray | None = None  # (N, 3) in [0, 1], NaN rows = no color
    descriptors: np.ndarray | None = None  # (N, C)

    def __post_init__(self):
        self.positions = _float_array(self.positions).reshape(-1, 3)
        # NaN propagates through min and max and an infinity is one of them,
        # so unlike isfinite(...).all() no temporary array is made.
        if self.positions.size and not (
            np.isfinite(self.positions.min()) and np.isfinite(self.positions.max())
        ):
            raise DomainError("non-finite point position")
        n = len(self.positions)
        total = sum(c for _, _, c in self.scan_ranges)
        if total != n:
            raise DomainError(f"scan_ranges cover {total} points, map has {n}")
        cursor = 0
        prev_id = -1
        for scan_id, first, count in self.scan_ranges:
            if first != cursor or count < 0:
                raise DomainError("scan_ranges must be contiguous, ordered, non-overlapping")
            if scan_id <= prev_id:
                raise DomainError("scan_ranges must be sorted by scan_id")
            prev_id = scan_id
            cursor += count
        if self.colors is not None:
            self.colors = _float_array(self.colors).reshape(-1, 3)
            if len(self.colors) != n:
                raise DomainError("colors length does not match point count")
        if self.descriptors is not None:
            self.descriptors = _float_array(self.descriptors)
            if self.descriptors.ndim != 2 or len(self.descriptors) != n:
                raise DomainError("descriptors must be an (N, C) array")

    def __len__(self):
        return len(self.positions)

    @property
    def channel_count(self) -> int | None:
        return None if self.descriptors is None else self.descriptors.shape[1]


def _float_array(a) -> np.ndarray:
    """`a` itself when it is a float32 or float64 array, else a float64 copy."""
    a = np.asarray(a)
    return a if a.dtype in (np.float32, np.float64) else a.astype(np.float64)


@dataclass
class Sequence:
    """Posed frames plus the accumulated map they observe."""

    frames: list[tuple[int, Pose]]
    intrinsics: Intrinsics
    map: PointCloudMap

    def __post_init__(self):
        ids = [fid for fid, _ in self.frames]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise DomainError("frame_ids must be strictly increasing")

    def frame_ids(self) -> list[int]:
        return [fid for fid, _ in self.frames]


def read_scan(path, scan_id: int = 0) -> Scan:
    """Parse little-endian float32 (x, y, z, reflectance) quadruples."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % 16 != 0:
        raise FormatError(
            f"{path}: truncated scan, {len(raw)} bytes is not a multiple of 16 "
            f"(stray data from byte offset {len(raw) - len(raw) % 16})"
        )
    data = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    return Scan(scan_id, data[:, :3].astype(np.float64), data[:, 3].astype(np.float64))


def write_scan(path, scan: Scan) -> None:
    """Inverse of read_scan (test helper and scene-dump writer)."""
    refl = scan.reflectance
    if refl is None:
        refl = np.zeros(len(scan))
    data = np.empty((len(scan), 4), dtype="<f4")
    data[:, :3] = scan.points
    data[:, 3] = refl
    with open(path, "wb") as f:
        f.write(data.tobytes())


def read_text(path) -> str:
    """The whole file as UTF-8 text, line endings translated to "\\n"."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def read_poses(path) -> list[tuple[int, Pose]]:
    """Parse trajectory lines: frame_id followed by a row-major 3x4
    camera-to-world matrix (13 whitespace-separated fields)."""
    out: list[tuple[int, Pose]] = []
    seen: set[int] = set()
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 13:
            raise FormatError(f"{path}:{lineno}: expected 13 fields, got {len(fields)}")
        try:
            frame_id = int(fields[0])
            vals = [float(x) for x in fields[1:]]
        except ValueError as e:
            raise FormatError(f"{path}:{lineno}: non-numeric token ({e})") from e
        if not np.all(np.isfinite(vals)):
            raise FormatError(f"{path}:{lineno}: non-finite field")
        if frame_id in seen:
            raise FormatError(f"{path}:{lineno}: duplicate frame_id {frame_id}")
        seen.add(frame_id)
        mat = np.array(vals, dtype=np.float64).reshape(3, 4)
        rot, t = mat[:, :3], mat[:, 3]
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf or nan: rejected
            err = np.abs(rot.T @ rot - np.eye(3)).max()
            det = np.linalg.det(rot)
        if not err <= 1e-3 or det < 0:
            raise FormatError(
                f"{path}:{lineno}: rotation block is not orthonormal (error {err:.3g}, det {det:.3f})"
            )
        if err > 1e-6:
            rot = _nearest_rotation(rot)
        try:
            out.append((frame_id, Pose(rot, t, frame_id)))
        except DomainError as e:
            raise FormatError(f"{path}:{lineno}: {e}") from e
    return out


def write_poses(path, frames: list[tuple[int, Pose]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for fid, pose in frames:
            mat = np.hstack([pose.rotation, pose.translation[:, None]])
            f.write(str(fid) + " " + " ".join(repr(float(v)) for v in mat.reshape(-1)) + "\n")


def _nearest_rotation(mat: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(mat)
    rot = u @ vt
    if np.linalg.det(rot) < 0:
        u[:, -1] = -u[:, -1]
        rot = u @ vt
    return rot


def read_intrinsics(path) -> Intrinsics:
    """Parse a single-line 'fx fy cx cy width height' file."""
    fields = read_text(path).split()
    if len(fields) != 6:
        raise FormatError(f"{path}: expected 6 fields, got {len(fields)}")
    try:
        fx, fy, cx, cy = (float(x) for x in fields[:4])
        w, h = int(fields[4]), int(fields[5])
    except ValueError as e:
        raise FormatError(f"{path}: non-numeric token ({e})") from e
    if not np.all(np.isfinite([fx, fy, cx, cy])):
        raise FormatError(f"{path}: non-finite field")
    try:
        return Intrinsics(fx, fy, cx, cy, w, h)
    except DomainError as e:
        raise FormatError(f"{path}: {e}") from e


def write_intrinsics(path, K: Intrinsics) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{float(K.fx)!r} {float(K.fy)!r} {float(K.cx)!r} {float(K.cy)!r} {K.width} {K.height}\n")


def accumulate(
    scans: list[Scan],
    sensor_poses: list[Pose],
    colors: list[np.ndarray] | None = None,
    extrinsic: np.ndarray | None = None,
) -> PointCloudMap:
    """Transform each scan to the world frame and concatenate.

    `extrinsic` is an optional 3x4 sensor-to-camera transform applied
    before the pose (identity by default). `colors` is an optional
    per-scan list of (N_i, 3) arrays.
    """
    if len(scans) != len(sensor_poses):
        raise DomainError(f"{len(scans)} scans but {len(sensor_poses)} poses")
    if colors is not None and len(colors) != len(scans):
        raise DomainError("colors list length does not match scans")
    triples = list(zip(scans, sensor_poses, colors if colors is not None else [None] * len(scans)))
    triples.sort(key=lambda t: t[0].scan_id)
    parts = []
    color_parts = []
    ranges = []
    cursor = 0
    for scan, pose, col in triples:
        pts = scan.points
        if extrinsic is not None:
            ext = np.asarray(extrinsic, dtype=np.float64).reshape(3, 4)
            pts = pts @ ext[:, :3].T + ext[:, 3]
        world = pts @ pose.rotation.T + pose.translation
        parts.append(world)
        if col is not None:
            color_parts.append(np.asarray(col, dtype=np.float64).reshape(-1, 3))
        ranges.append((scan.scan_id, cursor, len(scan)))
        cursor += len(scan)
    positions = np.concatenate(parts) if parts else np.zeros((0, 3))
    color_arr = np.concatenate(color_parts) if colors is not None else None
    return PointCloudMap(positions, ranges, colors=color_arr)


def split_train_test(frame_ids: list[int]) -> tuple[list[int], list[int]]:
    """Every 10th frame (0-based position within the list) is a test frame."""
    if not frame_ids:
        raise DomainError("cannot split an empty frame list")
    test = [fid for p, fid in enumerate(frame_ids) if p % 10 == 0]
    train = [fid for p, fid in enumerate(frame_ids) if p % 10 != 0]
    return train, test


def attach_descriptors(cloud: PointCloudMap, channels: int = 8, seed: int = 0) -> PointCloudMap:
    """Attach random per-point descriptors (stand-in for learned ones)."""
    if channels < 1:
        raise DomainError("descriptor channel count must be positive")
    rng = np.random.default_rng(seed)
    desc = rng.standard_normal((len(cloud), channels))
    return PointCloudMap(cloud.positions, list(cloud.scan_ranges), cloud.colors, desc)


def colorize_map(
    cloud: PointCloudMap,
    frames: list[tuple[int, Pose]],
    images: dict[int, np.ndarray],
    K: Intrinsics,
) -> PointCloudMap:
    """Color each point by projecting it into its own scan's reference image
    and sampling the nearest pixel. Out-of-bounds points keep NaN (no color).
    """
    pose_of = dict(frames)
    colors = np.full((len(cloud), 3), np.nan)
    for scan_id, first, count in cloud.scan_ranges:
        if scan_id not in pose_of or scan_id not in images:
            continue
        img = images[scan_id]
        ok, ui, vi, _ = pixel_bins(pose_of[scan_id], K, cloud.positions[first : first + count])
        colors[first : first + count][ok] = img[vi, ui]
    return PointCloudMap(cloud.positions, list(cloud.scan_ranges), colors, cloud.descriptors)


def write_binary(path, magic: bytes, header: struct.Struct, fields, arrays) -> None:
    """Write a format-v1 file: the magic, the header packed from `fields`
    (version first), then each array's bytes in order."""
    with open(path, "wb") as f:
        f.write(magic)
        f.write(header.pack(*fields))
        for arr in arrays:
            f.write(arr.tobytes())


def read_binary(path, magic: bytes, version: int, header: struct.Struct, sizes):
    """Read a format-v1 file with one `readinto` into a byte buffer.

    Checks the magic, the header and its version, then that the file is
    exactly as long as the header implies: `sizes(fields)` gives each
    array's `(count, dtype)` in file order. Returns the header fields and
    one flat writable view of the buffer per array."""
    with open(path, "rb") as f:
        raw = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
        raw = raw[: f.readinto(raw)]
    if raw[: len(magic)].tobytes() != magic:
        raise FormatError(f"{path}: bad magic, expected {magic!r}")
    off = len(magic) + header.size
    if len(raw) < off:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    fields = header.unpack_from(raw, len(magic))
    if fields[0] != version:
        raise FormatError(f"{path}: unsupported version {fields[0]}")
    spans = [(count * np.dtype(dtype).itemsize, dtype) for count, dtype in sizes(fields)]
    bounds = list(itertools.accumulate((nbytes for nbytes, _ in spans), initial=off))
    if len(raw) != bounds[-1]:
        raise FormatError(f"{path}: expected {bounds[-1]} bytes, got {len(raw)}")
    return fields, [raw[a:b].view(dtype) for a, b, (_, dtype) in zip(bounds, bounds[1:], spans)]


def save_map(path, cloud: PointCloudMap) -> None:
    """Binary map format: magic, version, N, C, flags, range table, arrays."""
    flags = (1 if cloud.colors is not None else 0) | (2 if cloud.descriptors is not None else 0)
    header = (MAP_VERSION, len(cloud), cloud.channel_count or 0, flags, len(cloud.scan_ranges))
    arrays = [np.array(cloud.scan_ranges, dtype="<u8"), cloud.positions.astype("<f4")]
    arrays += [a.astype("<f4") for a in (cloud.colors, cloud.descriptors) if a is not None]
    write_binary(path, MAP_MAGIC, _MAP_HEADER, header, arrays)


def _map_sizes(fields):
    """Range table, positions, colors, descriptors; an array the flags omit has count 0."""
    _, n, c, flags, nranges = fields
    colors, descriptors = (n * 3 if flags & 1 else 0), (n * c if flags & 2 else 0)
    return [(nranges * 3, "<u8"), (n * 3, "<f4"), (colors, "<f4"), (descriptors, "<f4")]


def load_map(path) -> PointCloudMap:
    """Read a map file; the map's arrays are writable little-endian float32
    views of the file's bytes."""
    (_, n, c, flags, nranges), (ranges, positions, colors, descriptors) = read_binary(
        path, MAP_MAGIC, MAP_VERSION, _MAP_HEADER, _map_sizes
    )
    ranges = [tuple(r) for r in ranges.reshape(nranges, 3).tolist()]
    colors = colors.reshape(n, 3) if flags & 1 else None
    descriptors = descriptors.reshape(n, c) if flags & 2 else None
    try:
        return PointCloudMap(positions.reshape(n, 3), ranges, colors, descriptors)
    except DomainError as e:
        raise FormatError(f"{path}: {e}") from e
