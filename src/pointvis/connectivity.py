"""Camera-to-scan connectivity: a generous per-frame scan window built
once per sequence, per-query candidate retrieval, z-buffer pruning down
to the visible set, and the graph file (via `ingest.read_binary`).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError
from .geom import Intrinsics, Pose
from .ingest import PointCloudMap, Sequence, read_binary, write_binary
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
    """Points surviving pruning for one query view, sorted by map index,
    with the pose and intrinsics they were pruned at (None when built by
    hand). At that pose and K the set is level 0 of the pyramid: each point
    is the (depth, index) minimum of its own pixel."""

    point_indices: np.ndarray  # strictly increasing
    source_frame: int
    pixel_of: np.ndarray  # (M, 2) integer (u, v)
    depth_of: np.ndarray  # (M,) meters
    pose: Pose | None = None
    K: Intrinsics | None = None

    def __len__(self):
        return len(self.point_indices)


def build_graph(sequence: Sequence, n: int) -> ConnectivityGraph:
    """Associate every frame t with scans [t-n, t+2n], clamped to the
    sequence. Assumes one scan per frame sharing the frame's index. A frame
    whose clamped window is empty (more than n past the last scan, or more
    than 2n before the first) raises DomainError."""
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
        if lo > hi:
            raise DomainError(
                f"frame {fid} has an empty scan window ({lo}, {hi}) after clamping to scans {first_scan}..{last_scan}"
            )
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
    return ranges_in_window(cloud, *graph.window(frame_id))


def ranges_in_window(cloud: PointCloudMap, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """Map scan_ranges whose scan id lies in [lo, hi]."""
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
    return VisibleSet(idx, source_frame, np.stack([pu, pv], axis=1), depth, query, K)


def visible_set_for(
    graph: ConnectivityGraph, cloud: PointCloudMap, query: Pose, K: Intrinsics
) -> VisibleSet:
    """Full retrieval path: nearest frame, window candidates, pruning."""
    fid = nearest_frame(graph, query)
    cand = candidate_indices(retrieve_candidates(graph, cloud, fid))
    return prune_visible(cand, cloud, query, K, source_frame=fid)


_GRAPH_HEADER = struct.Struct("<HHQQ")  # version, n, frame count, scans built over
_GRAPH_ENTRY = np.dtype([("frame", "<u8"), ("pose", "<f8", (3, 4)), ("window", "<u8", (2,))])


def save_graph(path, graph: ConnectivityGraph) -> None:
    if not 1 <= graph.n <= 0xFFFF:
        raise DomainError(f"window parameter n={graph.n} does not fit the graph format (1..65535)")
    for fid, (_, (lo, hi)) in graph.entries.items():
        if lo > hi:
            raise DomainError(f"frame {fid} has an empty scan window ({lo} > {hi})")
    table = np.zeros(len(graph.entries), _GRAPH_ENTRY)
    for row, fid in zip(table, sorted(graph.entries)):
        pose, window = graph.entries[fid]
        row["frame"], row["window"] = fid, window
        row["pose"] = np.hstack([pose.rotation, pose.translation[:, None]])
    header = (GRAPH_VERSION, graph.n, len(graph.entries), graph.built_over)
    write_binary(path, GRAPH_MAGIC, _GRAPH_HEADER, header, [table])


def load_graph(path) -> ConnectivityGraph:
    (_, n, count, built_over), (table,) = read_binary(
        path, GRAPH_MAGIC, GRAPH_VERSION, _GRAPH_HEADER, lambda fields: [(fields[2], _GRAPH_ENTRY)]
    )
    if n < 1:
        raise FormatError(f"{path}: window parameter n=0")
    fids, windows = table["frame"].tolist(), table["window"].tolist()
    if len(set(fids)) != count:
        raise FormatError(f"{path}: repeated frame id")
    if any(lo > hi for lo, hi in windows):
        raise FormatError(f"{path}: a window has lo > hi")
    try:
        entries = {
            fid: (Pose(mat[:, :3], mat[:, 3], fid), tuple(window))
            for fid, mat, window in zip(fids, table["pose"].astype(np.float64), windows)
        }
    except DomainError as e:
        raise FormatError(f"{path}: {e}") from e
    return ConnectivityGraph(entries, n, built_over)
