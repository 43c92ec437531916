"""Command-line front end: synth | build-map | build-graph | render | bench.

Exit codes: 0 success, 1 runtime failure, 2 usage or format error.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench as bench_mod
from .connectivity import build_graph, load_graph, save_graph, visible_set_for
from .errors import DomainError, FormatError
from .geom import Pose, scale_intrinsics
from .ingest import (
    PointCloudMap,
    Sequence,
    accumulate,
    colorize_map,
    load_map,
    read_intrinsics,
    read_poses,
    read_scan,
    save_map,
)
from .raster import Channels, rasterize_pyramid
from .render import psnr, read_ppm, render_rgb, ssim, write_ppm
from .synth import CanyonParams, make_canyon, read_surfaces, write_scene


def _parse_levels(text: str) -> list[int]:
    """The sorted levels of `render --levels`: level 0, at least one coarser
    level (the renderer fills holes from it) and no negative level."""
    try:
        levels = sorted({int(x) for x in text.split(",") if x.strip() != ""})
    except ValueError as e:
        raise DomainError(f"bad level list {text!r}") from e
    if 0 not in levels:
        raise DomainError(f"level list {text!r} lacks level 0")
    if levels[0] < 0:
        raise DomainError(f"level list {text!r} has a negative level")
    if len(levels) < 2:
        raise DomainError(f"level list {text!r} has no level coarser than 0")
    return levels


def _load_scans(scan_dir: str, poses_path: str) -> tuple[list[tuple[int, Pose]], PointCloudMap]:
    """Read the trajectory and every numbered scan file in `scan_dir`, and
    accumulate the scans at their poses into a map."""
    frames = read_poses(poses_path)
    pose_of = dict(frames)
    if not os.path.isdir(scan_dir):
        raise FileNotFoundError(f"scan directory {scan_dir} does not exist")
    scans = []
    for name in sorted(os.listdir(scan_dir)):
        stem, ext = os.path.splitext(name)
        if ext not in (".bin", ".dat", ""):
            continue
        try:
            sid = int(stem)
        except ValueError:
            continue
        if sid not in pose_of:
            raise FormatError(f"scan {sid} has no pose in {poses_path}")
        scans.append(read_scan(os.path.join(scan_dir, name), scan_id=sid))
    if not scans:
        raise FormatError(f"no scan files found in {scan_dir}")
    return frames, accumulate(scans, [pose_of[scan.scan_id] for scan in scans])


def cmd_synth(args) -> int:
    params = CanyonParams(
        length=args.length,
        wall_gap=args.wall_gap,
        point_spacing=args.spacing,
        lidar_range=args.lidar_range,
        frame_step=args.frame_step,
        occluders=args.occluders,
        seed=args.seed,
        occluder_clearance=args.occluder_clearance,
        image_width=args.width,
        image_height=args.height,
    )
    scene = make_canyon(params)
    write_scene(args.out, scene, with_images=args.images)
    n_pts = sum(len(s) for s in scene.scans)
    print(f"wrote scene to {args.out}: {len(scene.scans)} scans, {n_pts} scan points")
    return 0


def cmd_build_map(args) -> int:
    frames, cloud = _load_scans(args.scans, args.poses)
    if args.images:
        if not args.intrinsics:
            raise DomainError("--images requires --intrinsics for projection")
        K = read_intrinsics(args.intrinsics)
        images = {}
        for sid, _, _ in cloud.scan_ranges:
            img_path = os.path.join(args.images, f"{sid:06d}.ppm")
            if os.path.exists(img_path):
                images[sid] = read_ppm(img_path)
        cloud = colorize_map(cloud, frames, images, K)
    save_map(args.out, cloud)
    print(f"wrote map {args.out}: {len(cloud)} points, {len(cloud.scan_ranges)} scans")
    return 0


def cmd_build_graph(args) -> int:
    cloud = load_map(args.map)
    frames = read_poses(args.poses)
    K = read_intrinsics(args.intrinsics) if args.intrinsics else None
    if K is None:
        from .geom import Intrinsics

        K = Intrinsics(1.0, 1.0, 0.0, 0.0, 1, 1)  # graph building never projects
    seq = Sequence(frames, K, cloud)
    graph = build_graph(seq, args.n)
    save_graph(args.out, graph)
    print(f"wrote graph {args.out}: {len(graph.entries)} frames, n={graph.n}")
    return 0


def _query_pose(args, graph) -> Pose:
    """The pose `render` views from: `--frame`'s stored pose, else `--pose`."""
    if args.frame is not None:
        if args.frame not in graph.entries:
            raise DomainError(f"frame {args.frame} not in graph; pass --pose instead")
        return graph.entries[args.frame][0]
    if args.pose:
        try:
            vals = [float(x) for x in args.pose.replace(",", " ").split()]
        except ValueError as e:
            raise DomainError(f"--pose: {e}") from e
        if len(vals) != 12:
            raise DomainError("--pose needs 12 floats (row-major 3x4 camera-to-world)")
        mat = np.array(vals).reshape(3, 4)
        return Pose(mat[:, :3], mat[:, 3])
    raise DomainError("provide --pose or --frame")


def cmd_render(args) -> int:
    # Every argument and every file but the map is checked first, so a bad
    # request exits before the largest file is read or any output is written.
    levels = _parse_levels(args.levels)
    K = read_intrinsics(args.intrinsics)
    scale_intrinsics(K, levels[-1])  # a level too coarse for the image
    if not np.isfinite(args.background):
        raise DomainError(f"--background must be finite, got {args.background!r}")
    ref = read_ppm(args.reference) if args.reference else None
    if ref is not None and ref.shape[:2] != (K.height, K.width):
        raise DomainError(f"--reference is {ref.shape[1]}x{ref.shape[0]}, the view {K.width}x{K.height}")
    graph = load_graph(args.graph)
    query = _query_pose(args, graph)
    cloud = load_map(args.map)
    vis = visible_set_for(graph, cloud, query, K)
    pyramid = rasterize_pyramid(cloud, vis, query, K, levels, Channels.COLOR)
    img = render_rgb(pyramid, background=args.background)
    write_ppm(args.out, img)
    print(f"wrote {args.out} ({len(vis)} visible points from frame {vis.source_frame})")
    if ref is not None:
        print(f"psnr={psnr(img, ref)} ssim={ssim(img, ref)}")
    return 0


def cmd_bench(args) -> int:
    if args.every < 1:
        raise DomainError("--every must be a positive integer")
    scene_dir = args.scene
    frames, cloud = _load_scans(os.path.join(scene_dir, "scans"), os.path.join(scene_dir, "poses.txt"))
    K = read_intrinsics(os.path.join(scene_dir, "intrinsics.txt"))
    surfaces_path = os.path.join(scene_dir, "surfaces.txt")
    surfaces = read_surfaces(surfaces_path) if os.path.exists(surfaces_path) else None
    seq = Sequence(frames, K, cloud)
    graph = build_graph(seq, args.n)
    queries = [pose for _, pose in frames][:: args.every]

    # a bare `window` or `connectivity` runs with the --n window; `kind:N` with its own
    texts = [s.strip() for s in args.strategies.split(",") if s.strip()]
    strategies = [
        bench_mod.Strategy.parse(f"{s}:{args.n}" if s in ("window", "connectivity") else s) for s in texts
    ]
    if not strategies:
        raise DomainError("no strategies given")
    multi = len(strategies) > 1
    for strat in strategies:
        strat_graph = build_graph(seq, int(strat.param)) if strat.kind == "connectivity" else graph
        report = bench_mod.run_strategy(strat, seq, queries, graph=strat_graph, surfaces=surfaces)
        out = args.out
        if multi:
            stem, ext = os.path.splitext(args.out)
            out = f"{stem}_{strat.label.replace(':', '-')}{ext or '.csv'}"
        bench_mod.write_report_csv(out, report)
        timing = bench_mod.timing_summary(report)
        print(
            f"{strat.label}: subset_ratio={bench_mod.subset_ratio(report):.5f} "
            f"mean_leak={report.mean('leak'):.5f} fps={timing['fps']:.1f} -> {out}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pointvis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic canyon scene")
    p.add_argument("--out", required=True)
    p.add_argument("--length", type=float, default=60.0)
    p.add_argument("--wall-gap", type=float, default=8.0)
    p.add_argument("--spacing", type=float, default=0.25)
    p.add_argument("--lidar-range", type=float, default=20.0)
    p.add_argument("--frame-step", type=float, default=1.0)
    p.add_argument("--occluders", type=int, default=0)
    p.add_argument("--occluder-clearance", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=128)
    p.add_argument("--images", action="store_true", help="also paint reference PPMs")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-map", help="accumulate scans into a map file")
    p.add_argument("--scans", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--images", help="reference image dir for point colors")
    p.add_argument("--intrinsics")
    p.set_defaults(func=cmd_build_map)

    p = sub.add_parser("build-graph", help="build the frame-to-scan connectivity graph")
    p.add_argument("--map", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--intrinsics")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("render", help="render an RGB view through the pipeline")
    p.add_argument("--map", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--pose", help="12 floats, row-major 3x4 camera-to-world")
    p.add_argument("--frame", type=int, help="render from a stored frame's pose")
    p.add_argument("--levels", default="0,1,2,3,4,5")
    p.add_argument("--background", type=float, default=0.5)
    p.add_argument("--reference", help="PPM to score against (prints psnr/ssim)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="score visibility strategies on a scene dump")
    p.add_argument("--scene", required=True, help="directory written by `pointvis synth`")
    p.add_argument("--strategies", default="connectivity,fullmap")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--every", type=int, default=1, help="use every k-th frame as a query")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, FormatError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
