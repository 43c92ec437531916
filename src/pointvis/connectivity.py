"""Camera-to-scan connectivity: a generous per-frame scan window built
once per sequence, a query's candidates as the window's one run of map
rows (`window_rows`), z-buffer pruning down to the visible set, and the
graph file (via `ingest.read_binary`).
"""
from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DomainError, FormatError
from .geom import Intrinsics, Pose, check_rotations
from .ingest import PointCloudMap, Sequence, read_binary, write_binary
from .zbuffer import zbuffer_winners

GRAPH_MAGIC = b"CENPBG-GRF\x00"
GRAPH_VERSION = 1
_GRAPH_HEADER = struct.Struct("<HHQQ")  # version, n, frame count, scans built over
_GRAPH_ENTRY = np.dtype([("frame", "<u8"), ("pose", "<f8", (3, 4)), ("window", "<u8", (2,))])


@dataclass(eq=False)
class ConnectivityGraph:
    """The graph file's frame table: `_GRAPH_ENTRY` rows (frame, pose `[R | t]`, scan window) by frame id."""

    table: np.ndarray
    n: int
    built_over: int  # scans in the sequence

    def _row(self, frame_id: int):
        i = np.searchsorted(self.table["frame"], frame_id) if 0 <= frame_id < 2**64 else len(self.table)
        if i == len(self.table) or self.table["frame"][i] != frame_id:
            raise DomainError(f"frame {frame_id} not in graph")
        return self.table[i]

    def window(self, frame_id: int) -> tuple[int, int]:
        return tuple(self._row(frame_id)["window"].tolist())

    def pose(self, frame_id: int) -> Pose:
        mat = self._row(frame_id)["pose"]
        return Pose(mat[:, :3].copy(), mat[:, 3].copy(), frame_id)

    def __eq__(self, other) -> bool:
        same = isinstance(other, ConnectivityGraph) and (self.n, self.built_over) == (other.n, other.built_over)
        return same and np.array_equal(self.table, other.table)


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
    fids = sequence.frame_ids()
    scan_ids = [sid for sid, _, _ in sequence.map.scan_ranges]
    last_scan = max(scan_ids) if scan_ids else fids[-1]
    first_scan = min(scan_ids) if scan_ids else 0
    windows = [(max(first_scan, fid - n), min(last_scan, fid + 2 * n)) for fid in fids]
    for fid, (lo, hi) in zip(fids, windows):
        if lo > hi:
            raise DomainError(
                f"frame {fid} has an empty scan window ({lo}, {hi}) after clamping to scans {first_scan}..{last_scan}"
            )
    table = np.zeros(len(fids), _GRAPH_ENTRY)
    table["frame"], table["window"] = fids, windows
    table["pose"][:, :, :3] = [pose.rotation for _, pose in sequence.frames]
    table["pose"][:, :, 3] = [pose.translation for _, pose in sequence.frames]
    return ConnectivityGraph(table, n, built_over=len(scan_ids) or len(fids))


def nearest_frame(graph: ConnectivityGraph, query: Pose) -> int:
    """Frame whose camera center is nearest the query's (Euclidean,
    translation only); ties go to the smallest frame_id. A squared distance
    that overflows is farther than every finite one; when none is finite,
    DomainError."""
    if not len(graph.table):
        raise DomainError("graph is empty")
    with np.errstate(over="ignore"):
        d2 = np.sum((graph.table["pose"][:, :, 3] - query.translation) ** 2, axis=1)
    i = np.argmin(d2)
    if not np.isfinite(d2[i]):
        raise DomainError("the query is too far from every frame for a finite distance")
    return int(graph.table["frame"][i])


def window_rows(cloud: PointCloudMap, lo: int, hi: int) -> range:
    """Map rows of the scans whose id lies in [lo, hi], in order. The map's
    scan ranges are contiguous and sorted by scan id, so they are one run,
    found by binary search; a window that holds no scan is `range(0)`."""
    ranges = cloud.scan_ranges
    a = bisect_left(ranges, lo, key=itemgetter(0))
    b = bisect_right(ranges, hi, key=itemgetter(0))
    if a >= b:
        return range(0)
    _, last, count = ranges[b - 1]
    return range(ranges[a][1], last + count)


# Names `viewbench` imports; the next benchmark change (ROADMAP item 2) deletes them.
def retrieve_candidates(graph: ConnectivityGraph, cloud: PointCloudMap, frame_id: int) -> range:
    return window_rows(cloud, *graph.window(frame_id))


def candidate_indices(rows: range) -> range:
    return rows


def prune_visible(
    candidates: range | np.ndarray,
    cloud: PointCloudMap,
    query: Pose,
    K: Intrinsics,
    source_frame: int = -1,
) -> VisibleSet:
    """Keep candidate map indices with positive depth, an in-bounds
    full-resolution pixel, and minimal depth among all candidates binned
    to the same pixel (depth ties broken by smallest point index). A row
    range skips the map blocks whose cached boxes lie outside the view."""
    idx, pu, pv, depth = zbuffer_winners(candidates, query, K, cloud.positions, cloud.boxes)
    return VisibleSet(idx, source_frame, np.stack([pu, pv], axis=1), depth, query, K)


def visible_set_for(
    graph: ConnectivityGraph, cloud: PointCloudMap, query: Pose, K: Intrinsics
) -> VisibleSet:
    """Full retrieval path: nearest frame, window candidates, pruning."""
    fid = nearest_frame(graph, query)
    cand = window_rows(cloud, *graph.window(fid))
    return prune_visible(cand, cloud, query, K, source_frame=fid)


def save_graph(path, graph: ConnectivityGraph) -> None:
    if not 1 <= graph.n <= 0xFFFF:
        raise DomainError(f"window parameter n={graph.n} does not fit the graph format (1..65535)")
    for fid, (lo, hi) in zip(graph.table["frame"].tolist(), graph.table["window"].tolist()):
        if lo > hi:
            raise DomainError(f"frame {fid} has an empty scan window ({lo} > {hi})")
    header = (GRAPH_VERSION, graph.n, len(graph.table), graph.built_over)
    write_binary(path, GRAPH_MAGIC, _GRAPH_HEADER, header, [graph.table])


def load_graph(path) -> ConnectivityGraph:
    (_, n, _, built_over), (table,) = read_binary(
        path, GRAPH_MAGIC, GRAPH_VERSION, _GRAPH_HEADER, lambda fields: [(fields[2], _GRAPH_ENTRY)]
    )
    if n < 1:
        raise FormatError(f"{path}: window parameter n=0")
    table = table[np.argsort(table["frame"], kind="stable")]
    if np.any(table["frame"][1:] == table["frame"][:-1]):
        raise FormatError(f"{path}: repeated frame id")
    if np.any(table["window"][:, 0] > table["window"][:, 1]):
        raise FormatError(f"{path}: a window has lo > hi")
    if not np.isfinite(table["pose"]).all():
        raise FormatError(f"{path}: non-finite pose entry")
    try:
        check_rotations(table["pose"][:, :, :3])
    except DomainError as e:
        raise FormatError(f"{path}: {e}") from e
    return ConnectivityGraph(table, n, built_over)
