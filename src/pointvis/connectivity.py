"""Camera-to-scan connectivity: a generous per-frame scan window built
once per sequence, plus per-query candidate retrieval and z-buffer
pruning down to the visible set.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError
from .geom import Intrinsics, Pose
from .ingest import PointCloudMap, Sequence
from .zbuffer import zbuffer_winners

GRAPH_MAGIC = b"CENPBG-GRF\x00"
GRAPH_VERSION = 1


@dataclass
class ConnectivityGraph:
    """frame_id -> (pose, inclusive scan-id window)."""

    entries: dict[int, tuple[Pose, tuple[int, int]]]
    n: int
    built_over: int  # scans in the sequence

    def window(self, frame_id: int) -> tuple[int, int]:
        if frame_id not in self.entries:
            raise DomainError(f"frame {frame_id} not in graph")
        return self.entries[frame_id][1]


@dataclass
class VisibleSet:
    """Points surviving pruning for one query view, sorted by map index."""

    point_indices: np.ndarray  # strictly increasing
    source_frame: int
    pixel_of: np.ndarray  # (M, 2) integer (u, v)
    depth_of: np.ndarray  # (M,) meters

    def __len__(self):
        return len(self.point_indices)


def build_graph(sequence: Sequence, n: int) -> ConnectivityGraph:
    """Associate every frame t with scans [t-n, t+2n], clamped to the
    sequence. Assumes one scan per frame sharing the frame's index."""
    if n <= 0:
        raise DomainError("window parameter n must be positive")
    if not sequence.frames:
        raise DomainError("sequence has no frames")
    scan_ids = [sid for sid, _, _ in sequence.map.scan_ranges]
    last_scan = max(scan_ids) if scan_ids else max(sequence.frame_ids())
    first_scan = min(scan_ids) if scan_ids else 0
    entries = {}
    for fid, pose in sequence.frames:
        lo = max(first_scan, fid - n)
        hi = min(last_scan, fid + 2 * n)
        # re-tag so a graph reloaded from disk compares equal
        entries[fid] = (Pose(pose.rotation, pose.translation, fid), (lo, hi))
    return ConnectivityGraph(entries, n, built_over=len(scan_ids) or len(sequence.frames))


def nearest_frame(graph: ConnectivityGraph, query: Pose) -> int:
    """Frame whose camera center is nearest the query's (Euclidean,
    translation only); ties go to the smallest frame_id."""
    if not graph.entries:
        raise DomainError("graph is empty")
    fids = sorted(graph.entries)
    centers = np.array([graph.entries[f][0].translation for f in fids])
    d2 = np.sum((centers - query.translation) ** 2, axis=1)
    return fids[int(np.argmin(d2))]


def retrieve_candidates(
    graph: ConnectivityGraph, cloud: PointCloudMap, frame_id: int
) -> list[tuple[int, int, int]]:
    """Map scan_ranges falling inside the frame's window."""
    lo, hi = graph.window(frame_id)
    return [(sid, first, count) for sid, first, count in cloud.scan_ranges if lo <= sid <= hi]


def candidate_indices(ranges: list[tuple[int, int, int]]) -> np.ndarray:
    """Flatten index ranges into a sorted index array."""
    if not ranges:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate([np.arange(first, first + count, dtype=np.int64) for _, first, count in ranges])


def prune_visible(
    candidates: np.ndarray,
    cloud: PointCloudMap,
    query: Pose,
    K: Intrinsics,
    source_frame: int = -1,
) -> VisibleSet:
    """Keep candidate map indices with positive depth, an in-bounds
    full-resolution pixel, and minimal depth among all candidates binned
    to the same pixel (depth ties broken by smallest point index)."""
    idx, pu, pv, depth = zbuffer_winners(candidates, query, K, cloud.positions)
    return VisibleSet(idx, source_frame, np.stack([pu, pv], axis=1), depth)


def visible_set_for(
    graph: ConnectivityGraph, cloud: PointCloudMap, query: Pose, K: Intrinsics
) -> VisibleSet:
    """Full retrieval path: nearest frame, window candidates, pruning."""
    fid = nearest_frame(graph, query)
    cand = candidate_indices(retrieve_candidates(graph, cloud, fid))
    return prune_visible(cand, cloud, query, K, source_frame=fid)


def save_graph(path, graph: ConnectivityGraph) -> None:
    if not 0 <= graph.n <= 0xFFFF:
        raise DomainError(f"window parameter n={graph.n} does not fit the graph format (max 65535)")
    with open(path, "wb") as f:
        f.write(GRAPH_MAGIC)
        f.write(struct.pack("<HHQ", GRAPH_VERSION, graph.n, len(graph.entries)))
        f.write(struct.pack("<Q", graph.built_over))
        for fid in sorted(graph.entries):
            pose, (lo, hi) = graph.entries[fid]
            mat = np.hstack([pose.rotation, pose.translation[:, None]])
            f.write(struct.pack("<Q", fid))
            f.write(mat.astype("<f8").tobytes())
            f.write(struct.pack("<QQ", lo, hi))


def load_graph(path) -> ConnectivityGraph:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[: len(GRAPH_MAGIC)] != GRAPH_MAGIC:
        raise FormatError(f"{path}: bad magic, not a connectivity graph file")
    off = len(GRAPH_MAGIC)
    try:
        version, n, count = struct.unpack_from("<HHQ", raw, off)
        off += struct.calcsize("<HHQ")
        if version != GRAPH_VERSION:
            raise FormatError(f"{path}: unsupported graph version {version}")
        (built_over,) = struct.unpack_from("<Q", raw, off)
        off += 8
        entries = {}
        entry_size = 8 + 12 * 8 + 16
        for _ in range(count):
            if off + entry_size > len(raw):
                raise FormatError(f"{path}: truncated at byte {off}")
            (fid,) = struct.unpack_from("<Q", raw, off)
            off += 8
            mat = np.frombuffer(raw, dtype="<f8", count=12, offset=off).reshape(3, 4)
            off += 96
            lo, hi = struct.unpack_from("<QQ", raw, off)
            off += 16
            entries[fid] = (Pose(mat[:, :3], mat[:, 3], fid), (lo, hi))
    except struct.error as e:
        raise FormatError(f"{path}: truncated header ({e})") from e
    if off != len(raw):
        raise FormatError(f"{path}: {len(raw) - off} trailing bytes")
    return ConnectivityGraph(entries, n, built_over)
