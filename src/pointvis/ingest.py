"""KITTI-style sensor ingest: binary LiDAR scans, trajectory files,
intrinsics, map accumulation, the map file, and `read_binary`/`write_binary`:
the one reader and writer of v1 binary files. `halves` splits the read and
the finiteness check of a large array between the caller and a helper
thread.
"""
from __future__ import annotations

import itertools
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError
from .geom import Intrinsics, Pose, dot3, rotation_error
from .zbuffer import BlockBoxes

MAP_MAGIC = b"CENPBG-MAP\x00"
MAP_VERSION = 1
_MAP_HEADER = struct.Struct("<HQHBQ")  # version, N, C, flags, range count


@dataclass
class Scan:
    """One LiDAR sweep in its sensor frame. Its points keep their dtype as
    `PointCloudMap`'s arrays do: float32 (as `read_scan` gives) or float64
    as given, any other dtype widened to float64."""

    scan_id: int
    points: np.ndarray  # (N, 3) float

    def __post_init__(self):
        self.points = _float_array(self.points).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise DomainError(f"scan {self.scan_id} has non-finite coordinates")
        if self.scan_id < 0:
            raise DomainError("scan_id must be non-negative")

    def __len__(self):
        return len(self.points)


@dataclass
class PointCloudMap:
    """Accumulated world-frame point cloud with per-scan index ranges.

    Position, color and descriptor arrays that are float32 or float64 are
    kept as given (a loaded map keeps the file's float32); any other dtype
    is widened to float64. Consumers widen the rows they gather to float64,
    which is exact from float32, so results do not depend on the dtype.
    The map's positions are a read-only view of the given array, so the
    z-buffer's culling boxes in `boxes`, built from them as views need
    them, cannot go stale through the map.
    """

    positions: np.ndarray  # (N, 3) world frame
    scan_ranges: list[tuple[int, int, int]]  # (scan_id, first_index, count)
    colors: np.ndarray | None = None  # (N, 3) in [0, 1], NaN rows = no color
    descriptors: np.ndarray | None = None  # (N, C)
    boxes: BlockBoxes = field(default_factory=BlockBoxes, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.positions = _float_array(self.positions).reshape(-1, 3)
        self.positions.setflags(write=False)

        def finite(a, b):
            # NaN propagates through min and max and an infinity is one of
            # them, so unlike isfinite(...).all() no temporary array is made.
            rows = self.positions[a:b]
            return not rows.size or bool(np.isfinite(rows.min()) and np.isfinite(rows.max()))

        if not all(halves(finite, len(self.positions), 3 * self.positions.itemsize)):
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
        if any(b <= a for a, b in zip([-1, *ids], ids)):
            raise DomainError("frame_ids must be non-negative and strictly increasing")

    def frame_ids(self) -> list[int]:
        return [fid for fid, _ in self.frames]


def read_scan(path, scan_id: int = 0) -> Scan:
    """Parse little-endian float32 (x, y, z, reflectance) quadruples; nothing reads reflectance, so it is dropped."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % 16 != 0:
        raise FormatError(
            f"{path}: truncated scan, {len(raw)} bytes is not a multiple of 16 "
            f"(stray data from byte offset {len(raw) - len(raw) % 16})"
        )
    return Scan(scan_id, np.frombuffer(raw, dtype="<f4").reshape(-1, 4)[:, :3])


def write_scan(path, scan: Scan) -> None:
    """Inverse of read_scan, with reflectance 0 (test helper and scene-dump writer)."""
    data = np.zeros((len(scan), 4), dtype="<f4")
    data[:, :3] = scan.points
    with open(path, "wb") as f:
        f.write(data.tobytes())


def read_text(path) -> str:
    """The whole file as UTF-8 text, line endings translated to "\\n"."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from e


def read_lines(path):
    """(`path:line`, tokens) for each line of a text file that has a token."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        tokens = line.split()
        if tokens:
            yield f"{path}:{lineno}", tokens


def read_numbers(where, tokens, count: int) -> np.ndarray:
    """The `count` tokens as finite float64s, else FormatError naming `where`
    (`path:line`, a path or a CLI option): the field check of every text input."""
    if len(tokens) != count:
        raise FormatError(f"{where}: expected {count} fields, got {len(tokens)}")
    try:
        vals = np.array([float(x) for x in tokens])
    except ValueError as e:
        raise FormatError(f"{where}: non-numeric token ({e})") from e
    if not np.all(np.isfinite(vals)):
        raise FormatError(f"{where}: non-finite field")
    return vals


def _read_int(where, token: str) -> int:
    """An integer field of a line `read_numbers` has checked."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{where}: {token!r} is not an integer") from None


def read_pose(where, tokens, frame_id: int | None) -> Pose:
    """The pose of a poses-file line or of `render --pose`: 12 tokens, a row-major
    3x4 camera-to-world matrix. Real trajectories carry rotations a little off, so
    one orthonormal within 1e-3 with det >= 0 is accepted and, if off by more than
    1e-6, replaced by the nearest rotation (LAPACK's SVD and a BLAS product: the one
    output a BLAS kernel can round); else FormatError naming `where`."""
    mat = read_numbers(where, tokens, 12).reshape(3, 4)
    rot, t = mat[:, :3], mat[:, 3]
    err, det = rotation_error(rot)
    if not err <= 1e-3 or det < 0:
        raise FormatError(f"{where}: rotation block is not orthonormal (error {err:.3g}, det {det:.3f})")
    if err > 1e-6:  # the nearest rotation; det(rot) > 0 here, so U V^T is no reflection
        u, _, vt = np.linalg.svd(rot)
        rot = u @ vt
    try:
        return Pose(rot, t, frame_id)
    except DomainError as e:
        raise FormatError(f"{where}: {e}") from e


def read_poses(path) -> list[tuple[int, Pose]]:
    """Parse trajectory lines: frame_id followed by a row-major 3x4
    camera-to-world matrix (13 whitespace-separated fields)."""
    out: list[tuple[int, Pose]] = []
    seen: set[int] = set()
    for where, fields in read_lines(path):
        vals = read_numbers(where, fields, 13)
        frame_id = _read_int(where, fields[0])
        if frame_id in seen:
            raise FormatError(f"{where}: duplicate frame_id {frame_id}")
        seen.add(frame_id)
        out.append((frame_id, read_pose(where, vals[1:], frame_id)))
    return out


def write_poses(path, frames: list[tuple[int, Pose]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for fid, pose in frames:
            mat = np.hstack([pose.rotation, pose.translation[:, None]])
            f.write(str(fid) + " " + " ".join(repr(float(v)) for v in mat.reshape(-1)) + "\n")


def read_intrinsics(path) -> Intrinsics:
    """Parse a single-line 'fx fy cx cy width height' file."""
    fields = read_text(path).split()
    fx, fy, cx, cy = read_numbers(path, fields, 6)[:4].tolist()
    w, h = (_read_int(path, x) for x in fields[4:])
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
) -> PointCloudMap:
    """Transform each scan to the world frame and lay the scans out in
    scan-id order.

    `colors` is an optional per-scan list of numeric (N_i, 3) arrays. The
    map's arrays are allocated once at their final size and each scan is
    written into its own rows, so no step holds a second copy of the map.

    The map takes over the `scans` and `colors` lists: once a scan's rows
    are written, its slots in both are set to None, so a scan that nothing
    else holds is freed before the next one is read, and both lists are
    empty on return. A caller that reads its scans afterwards passes copies
    (`list(scans)`). Every check is made before the first slot is cleared,
    so a DomainError leaves both lists as given.
    """
    if len(scans) != len(sensor_poses):
        raise DomainError(f"{len(scans)} scans but {len(sensor_poses)} poses")
    if colors is not None and len(colors) != len(scans):
        raise DomainError("colors list length does not match scans")
    if not isinstance(scans, list) or not isinstance(colors, list | None):
        raise DomainError("scans and colors must be lists: the map empties them")
    order = sorted(range(len(scans)), key=lambda i: scans[i].scan_id)
    for a, b in zip(order, order[1:]):
        if scans[a].scan_id == scans[b].scan_id:
            raise DomainError(f"scan id {scans[a].scan_id} is given twice")
    if colors is not None:
        for i in order:
            _check_colors(scans[i], colors[i])
    n = sum(len(scan) for scan in scans)
    positions = np.empty((n, 3))
    color_arr = np.empty((n, 3)) if colors is not None else None
    ranges = []
    cursor = 0
    for i in order:
        scan, pose = scans[i], sensor_poses[i]
        rows = positions[cursor : cursor + len(scan)]
        # the two steps of `pts @ R.T + t`, written into the map's own rows
        dot3(scan.points, pose.rotation.T, out=rows)
        rows += pose.translation
        if color_arr is not None:
            color_arr[cursor : cursor + len(scan)] = colors[i]
            colors[i] = None
        ranges.append((scan.scan_id, cursor, len(scan)))
        cursor += len(scan)
        scans[i] = scan = None  # its arrays go here, unless the caller holds them
    scans.clear()
    if colors is not None:
        colors.clear()
    return PointCloudMap(positions, ranges, colors=color_arr)


def _check_colors(scan: Scan, col) -> None:
    """DomainError naming the scan unless `col` is a numeric (len(scan), 3) array."""
    try:
        col = np.asarray(col)
    except (TypeError, ValueError) as e:
        raise DomainError(f"scan {scan.scan_id}: colors are not numeric ({e})") from e
    if col.dtype.kind not in "biuf":
        raise DomainError(f"scan {scan.scan_id}: colors are not numeric (dtype {col.dtype})")
    if col.shape != (len(scan), 3):
        raise DomainError(
            f"scan {scan.scan_id}: colors have shape {col.shape}, expected ({len(scan)}, 3)"
        )


def attach_descriptors(cloud: PointCloudMap, channels: int = 8, seed: int = 0) -> PointCloudMap:
    """Attach random per-point descriptors (stand-in for learned ones)."""
    if channels < 1:
        raise DomainError("descriptor channel count must be positive")
    rng = np.random.default_rng(seed)
    desc = rng.standard_normal((len(cloud), channels))
    return PointCloudMap(cloud.positions, list(cloud.scan_ranges), cloud.colors, desc)


def write_binary(path, magic: bytes, header: struct.Struct, fields, arrays) -> None:
    """Write a format-v1 file: the magic, the header packed from `fields`
    (version first), then each array's bytes in order. `arrays` may be any
    iterable, such as a generator of chunks; each array is written from its
    own buffer, with no bytes copy."""
    with open(path, "wb") as f:
        f.write(magic)
        f.write(header.pack(*fields))
        for arr in arrays:
            f.write(np.ascontiguousarray(arr))


# Arrays of at least this many bytes are read and checked in two halves, the
# second on a helper thread (`halves`). Medians of 25 in-process `load_map`
# calls of a map of float32 positions and colors, one read against two halves
# (2-core Xeon VM, file in the page cache): 1 MB 0.18 -> 0.29 ms, 2 MB
# 0.34 -> 0.41 ms, 4 MB 0.76 -> 0.56 and 0.68 -> 0.74 ms in two runs, 8 MB
# 1.38 -> 0.95 ms, 16 MB 3.3 -> 2.2 ms, 32 MB 12.4 -> 7.7 ms. Break-even is
# about 4 MB.
_SPLIT_BYTES = 4 << 20

def halves(fn, n: int, itemsize: int = 1) -> list:
    """`[fn(0, n)]` when `n` items of `itemsize` bytes are fewer than
    `_SPLIT_BYTES`, else `[fn(0, n // 2), fn(n // 2, n)]` with the second call
    on a helper thread started for the split, which ends before this returns
    or raises. An exception of either half reaches the caller, the caller's
    own when both raise."""
    if n * itemsize < _SPLIT_BYTES:
        return [fn(0, n)]
    from concurrent.futures import ThreadPoolExecutor

    mid = n // 2
    with ThreadPoolExecutor(max_workers=1) as helper:
        second = helper.submit(fn, mid, n)
        first = fn(0, mid)
    return [first, second.result()]


def _pread_full(fd, buf, offset: int) -> int:
    """Fill `buf` from `offset` of the file `fd`; the bytes read, fewer at
    end of file. One `preadv` reads at most 0x7ffff000 bytes on Linux."""
    got = 0
    while got < len(buf):
        k = os.preadv(fd, [buf[got:]], offset + got)
        if k == 0:
            break
        got += k
    return got


def read_binary(path, magic: bytes, version: int, header: struct.Struct, sizes):
    """Read a format-v1 file: its header, then the arrays into one buffer.

    Checks the magic, the header and its version, then, from `fstat` and
    before anything is allocated, that the file is exactly as long as the
    header implies: `sizes(fields)` gives each array's `(count, dtype)` in
    file order. The buffer is filled by `preadv` at absolute offsets on the
    same descriptor, in two halves (`halves`) when it is large. Returns the
    header fields and one flat writable view of the buffer per array."""
    off = len(magic) + header.size
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(off)
        if head[: len(magic)] != magic:
            raise FormatError(f"{path}: bad magic, expected {magic!r}")
        if len(head) < off:
            raise FormatError(f"{path}: truncated header ({len(head)} bytes)")
        fields = header.unpack_from(head, len(magic))
        if fields[0] != version:
            raise FormatError(f"{path}: unsupported version {fields[0]}")
        spans = [(count * np.dtype(dtype).itemsize, dtype) for count, dtype in sizes(fields)]
        bounds = list(itertools.accumulate((nbytes for nbytes, _ in spans), initial=0))
        if size != off + bounds[-1]:
            raise FormatError(f"{path}: expected {off + bounds[-1]} bytes, got {size}")
        raw = np.empty(bounds[-1], dtype=np.uint8)
        buf = memoryview(raw)
        got = sum(halves(lambda a, b: _pread_full(f.fileno(), buf[a:b], off + a), len(raw)))
    if got != len(raw):  # the file changed after the fstat
        raise FormatError(f"{path}: expected {off + bounds[-1]} bytes, got {off + got}")
    return fields, [raw[a:b].view(dtype) for a, b, (_, dtype) in zip(bounds, bounds[1:], spans)]


# Rows cast to float32 per chunk by `save_map`: one chunk (768 KB of
# positions) is the write's only transient.
_SAVE_ROWS = 1 << 16


def save_map(path, cloud: PointCloudMap) -> None:
    """Binary map format: magic, version, N, C, flags, range table, arrays.

    The arrays are cast to little-endian float32 in chunks of `_SAVE_ROWS`
    rows as they are written, so no float32 copy of the whole map is made.
    A position beyond the float32 range raises DomainError before the file
    is opened, since `load_map` rejects the inf it would become."""
    if len(cloud):
        with np.errstate(over="ignore"):  # beyond float32 becomes inf: refused below
            extremes = np.array([cloud.positions.min(), cloud.positions.max()]).astype("<f4")
        if np.isinf(extremes).any():
            raise DomainError("a point position is beyond the float32 range of the map format")
    flags = (1 if cloud.colors is not None else 0) | (2 if cloud.descriptors is not None else 0)
    header = (MAP_VERSION, len(cloud), cloud.channel_count or 0, flags, len(cloud.scan_ranges))
    arrays = [a for a in (cloud.positions, cloud.colors, cloud.descriptors) if a is not None]

    def chunks():
        yield np.array(cloud.scan_ranges, dtype="<u8")
        for a in arrays:
            for s in range(0, len(a), _SAVE_ROWS):
                yield a[s : s + _SAVE_ROWS].astype("<f4")

    write_binary(path, MAP_MAGIC, _MAP_HEADER, header, chunks())


def _map_sizes(fields):
    """Range table, positions, colors, descriptors; an array the flags omit has count 0."""
    _, n, c, flags, nranges = fields
    colors, descriptors = (n * 3 if flags & 1 else 0), (n * c if flags & 2 else 0)
    return [(nranges * 3, "<u8"), (n * 3, "<f4"), (colors, "<f4"), (descriptors, "<f4")]


def load_map(path) -> PointCloudMap:
    """Read a map file; the map's arrays are little-endian float32 views of
    the file's bytes, writable but for the positions."""
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
