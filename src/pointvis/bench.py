"""Competing visibility strategies scored against the ray-casting oracle:
retrieval sizes, leak/precision/recall, and pruned-path timings.
"""
from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .connectivity import (
    build_graph,
    nearest_frame,
    prune_visible,
    window_rows,
)
from .errors import DomainError, FormatError
from .geom import Pose, dot3
from .ingest import Sequence, read_text
from .raster import Channels, rasterize
from .synth import Rect3, oracle_occluded_many, oracle_visible_many


@dataclass(frozen=True)
class Strategy:
    """One of: fullmap | depth(d) | radius(r) | window(n) | connectivity(n)."""

    kind: str
    param: float | None = None

    def __post_init__(self):
        if self.kind not in ("fullmap", "depth", "radius", "window", "connectivity"):
            raise DomainError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "fullmap" and self.param is not None:
            raise DomainError(f"strategy 'fullmap' takes no parameter, got {self.param:g}")
        if self.kind != "fullmap" and (self.param is None or not 0 < self.param < math.inf):
            raise DomainError(f"strategy {self.kind!r} needs a positive finite parameter")
        if self.kind in ("window", "connectivity") and self.param != int(self.param):
            raise DomainError(f"strategy {self.kind!r} needs an integer window, got {self.param:g}")

    @staticmethod
    def parse(text: str) -> "Strategy":
        kind, *params = text.strip().split(":")
        if len(params) > 1:
            raise DomainError(f"strategy {text!r} has more than one parameter")
        try:
            param = float(params[0]) if params else None
        except ValueError as e:
            raise DomainError(f"bad strategy parameter in {text!r}") from e
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


CSV_HEADER = [f.name for f in fields(ViewStats)]  # a report's columns: `write_report_csv` writes each row's fields


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
        return range(len(cloud)), -1
    if strategy.kind == "depth":
        z = dot3(cloud.positions - query.translation, query.rotation[:, 2])  # camera-frame z
        return np.nonzero((z > 0) & (z <= strategy.param))[0], -1
    if strategy.kind == "radius":
        with np.errstate(over="ignore"):  # a radius or distance that overflows squares to inf
            d2 = np.sum((cloud.positions - query.translation) ** 2, axis=1)
            r2 = np.float64(strategy.param) ** 2
        return np.nonzero(d2 <= r2)[0], -1
    n = int(strategy.param)
    fid = nearest_frame(graph, query)
    # connectivity takes the graph's window; the sliding window is the
    # symmetric [t - 2n, t + 2n], which includes scans behind the camera
    lo, hi = graph.window(fid) if strategy.kind == "connectivity" else (fid - 2 * n, fid + 2 * n)
    return window_rows(cloud, lo, hi), fid


def run_strategy(
    strategy: Strategy,
    sequence: Sequence,
    query_poses: list[Pose],
    surfaces: list[Rect3] | None = None,
    oracle_visible_counts: list[int] | None = None,
) -> StrategyReport:
    """Evaluate one strategy over the query views. `window:n` and
    `connectivity:n` run on `build_graph(sequence, n)`.

    `oracle_visible_counts` optionally supplies the per-view recall
    denominator, `oracle_counts(sequence, query_poses, surfaces)`, so that
    several strategies over the same views compute it once.
    """
    if surfaces is not None and oracle_visible_counts is None:
        oracle_visible_counts = oracle_counts(sequence, query_poses, surfaces)
    cloud = sequence.map
    K = sequence.intrinsics
    graph = build_graph(sequence, int(strategy.param)) if strategy.kind in ("window", "connectivity") else None
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
            if oracle_visible_counts[vi]:
                recall = float(np.count_nonzero(~occluded)) / oracle_visible_counts[vi]
        frame_id = fid if fid >= 0 else (query.frame_id if query.frame_id is not None else vi)
        rows.append(ViewStats(frame_id, len(cand), len(vis), leak, precision, recall, prune_s, raster_s))
    return StrategyReport(strategy.label, len(cloud), rows)


def oracle_counts(sequence: Sequence, query_poses: list[Pose], surfaces: list[Rect3]) -> list[int]:
    """The map points the oracle sees from each query: `run_strategy`'s recall denominators."""
    cloud, K = sequence.map, sequence.intrinsics
    return [int(np.count_nonzero(oracle_visible_many(cloud.positions, q, K, surfaces))) for q in query_poses]


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
        writer.writerows(astuple(r) for r in report.rows)


def read_report_csv(path, strategy: str = "", map_size: int = 0) -> StrategyReport:
    rows = []
    reader = csv.reader(io.StringIO(read_text(path)))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise FormatError(f"{path}: unexpected CSV header {header}")
    for rec in reader:
        if len(rec) != len(CSV_HEADER):
            raise FormatError(f"{path}:{reader.line_num}: bad row {rec}")
        try:
            rows.append(ViewStats(*map(int, rec[:3]), *map(float, rec[3:])))
        except ValueError as e:
            raise FormatError(f"{path}:{reader.line_num}: non-numeric field ({e})") from e
    return StrategyReport(strategy, map_size, rows)
