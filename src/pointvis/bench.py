"""Competing visibility strategies scored against the ray-casting oracle:
retrieval sizes, leak/precision/recall, and pruned-path timings.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .connectivity import (
    ConnectivityGraph,
    build_graph,
    candidate_indices,
    nearest_frame,
    prune_visible,
    ranges_in_window,
)
from .errors import DomainError, FormatError
from .geom import Pose, world_to_camera_many
from .ingest import Sequence
from .raster import Channels, rasterize
from .synth import Rect3, oracle_occluded_many, oracle_visible_many

CSV_HEADER = ["frame_id", "retrieved", "visible", "leak", "precision", "recall", "prune_s", "raster_s"]


@dataclass(frozen=True)
class Strategy:
    """One of: fullmap | depth(d) | radius(r) | window(n) | connectivity(n)."""

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in ("fullmap", "depth", "radius", "window", "connectivity"):
            raise DomainError(f"unknown strategy kind {self.kind!r}")
        if self.kind != "fullmap" and (self.param is None or not 0 < self.param < math.inf):
            raise DomainError(f"strategy {self.kind!r} needs a positive finite parameter")
        if self.kind in ("window", "connectivity") and self.param != int(self.param):
            raise DomainError(f"strategy {self.kind!r} needs an integer window, got {self.param:g}")

    @staticmethod
    def full_map_zbuffer() -> "Strategy":
        return Strategy("fullmap")

    @staticmethod
    def depth_threshold(d: float) -> "Strategy":
        return Strategy("depth", d)

    @staticmethod
    def radius_crop(r: float) -> "Strategy":
        return Strategy("radius", r)

    @staticmethod
    def sliding_window(n: int) -> "Strategy":
        return Strategy("window", n)

    @staticmethod
    def connectivity(n: int = 5) -> "Strategy":
        return Strategy("connectivity", n)

    @staticmethod
    def parse(text: str) -> "Strategy":
        parts = text.strip().split(":")
        kind = parts[0]
        try:
            param = float(parts[1]) if len(parts) > 1 else None
        except ValueError as e:
            raise DomainError(f"bad strategy parameter in {text!r}") from e
        if kind in ("window", "connectivity"):
            param = param if param is not None else 5.0
        return Strategy(kind, param)

    @property
    def label(self) -> str:
        return self.kind if self.param is None else f"{self.kind}:{self.param:g}"


@dataclass
class ViewStats:
    frame_id: int
    retrieved: int
    visible: int
    leak: float
    precision: float
    recall: float
    prune_s: float
    raster_s: float


@dataclass
class StrategyReport:
    strategy: str
    map_size: int
    rows: list[ViewStats]

    def mean(self, attr: str) -> float:
        vals = [getattr(r, attr) for r in self.rows]
        vals = [v for v in vals if not (isinstance(v, float) and math.isnan(v))]
        return float(np.mean(vals)) if vals else float("nan")


def _select_candidates(strategy, sequence, graph, query):
    cloud = sequence.map
    if strategy.kind == "fullmap":
        return np.arange(len(cloud), dtype=np.int64), -1
    if strategy.kind == "depth":
        z = world_to_camera_many(query, cloud.positions)[2]
        return np.nonzero((z > 0) & (z <= strategy.param))[0].astype(np.int64), -1
    if strategy.kind == "radius":
        d2 = np.sum((cloud.positions - query.translation) ** 2, axis=1)
        return np.nonzero(d2 <= strategy.param**2)[0].astype(np.int64), -1
    n = int(strategy.param)
    if graph is None:
        raise DomainError(f"strategy {strategy.kind!r} needs a connectivity graph")
    fid = nearest_frame(graph, query)
    # connectivity takes the graph's window; the sliding window is the
    # symmetric [t - 2n, t + 2n], which includes scans behind the camera
    lo, hi = graph.window(fid) if strategy.kind == "connectivity" else (fid - 2 * n, fid + 2 * n)
    return candidate_indices(ranges_in_window(cloud, lo, hi)), fid


def run_strategy(
    strategy: Strategy,
    sequence: Sequence,
    query_poses: list[Pose],
    graph: ConnectivityGraph | None = None,
    surfaces: list[Rect3] | None = None,
    oracle_visible_counts: list[int] | None = None,
) -> StrategyReport:
    """Evaluate one strategy over the query views.

    `oracle_visible_counts` optionally supplies the per-view recall
    denominator (oracle-visible in-frustum map points) to avoid
    recomputing it for every strategy.
    """
    cloud = sequence.map
    K = sequence.intrinsics
    if strategy.kind in ("window", "connectivity") and graph is None:
        graph = build_graph(sequence, int(strategy.param))
    if strategy.kind == "connectivity" and graph.n != int(strategy.param):
        raise DomainError(f"{strategy.label} needs a graph with n={strategy.param:g}, got n={graph.n}")
    rows = []
    for vi, query in enumerate(query_poses):
        t0 = time.perf_counter()
        cand, fid = _select_candidates(strategy, sequence, graph, query)
        vis = prune_visible(cand, cloud, query, K, source_frame=fid)
        prune_s = time.perf_counter() - t0

        t1 = time.perf_counter()
        if cloud.colors is not None:
            rasterize(cloud, vis, query, K, level=0, channels=Channels.COLOR)
        elif cloud.descriptors is not None:
            rasterize(cloud, vis, query, K, level=0, channels=Channels.DESCRIPTOR)
        raster_s = time.perf_counter() - t1

        leak = precision = recall = float("nan")
        if surfaces is not None:
            winners = cloud.positions[vis.point_indices]
            occluded = oracle_occluded_many(winners, query, surfaces)
            n_win = len(vis)
            if n_win:
                leak = float(np.count_nonzero(occluded)) / n_win
                precision = 1.0 - leak
            if oracle_visible_counts is not None:
                denom = oracle_visible_counts[vi]
            else:
                denom = int(np.count_nonzero(oracle_visible_many(cloud.positions, query, K, surfaces)))
            if denom:
                recall = float(np.count_nonzero(~occluded)) / denom
        frame_id = fid if fid >= 0 else (query.frame_id if query.frame_id is not None else vi)
        rows.append(ViewStats(frame_id, len(cand), len(vis), leak, precision, recall, prune_s, raster_s))
    return StrategyReport(strategy.label, len(cloud), rows)


def subset_ratio(report: StrategyReport) -> float:
    """Mean retrieved candidate count as a fraction of the map size."""
    if report.map_size == 0:
        return 0.0
    return report.mean("retrieved") / report.map_size


def timing_summary(report: StrategyReport) -> dict:
    if not report.rows:
        raise DomainError("report has no views")
    mean_prune = report.mean("prune_s")
    mean_raster = report.mean("raster_s")
    total = mean_prune + mean_raster
    return {
        "mean_prune_s": mean_prune,
        "mean_raster_s": mean_raster,
        "fps": (1.0 / total) if total > 0 else float("inf"),
    }


def write_report_csv(path, report: StrategyReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for r in report.rows:
            writer.writerow(
                [r.frame_id, r.retrieved, r.visible, repr(r.leak), repr(r.precision),
                 repr(r.recall), repr(r.prune_s), repr(r.raster_s)]
            )


def read_report_csv(path, strategy: str = "", map_size: int = 0) -> StrategyReport:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise FormatError(f"{path}: unexpected CSV header {header}")
        for rec in reader:
            if len(rec) != len(CSV_HEADER):
                raise FormatError(f"{path}: bad row {rec}")
            rows.append(
                ViewStats(int(rec[0]), int(rec[1]), int(rec[2]), float(rec[3]),
                          float(rec[4]), float(rec[5]), float(rec[6]), float(rec[7]))
            )
    return StrategyReport(strategy, map_size, rows)
