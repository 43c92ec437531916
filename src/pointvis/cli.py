"""Command-line front end: synth | build-map | build-graph | render | bench.

Exit codes: 0 success, 1 runtime failure, 2 usage or format error.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import bench as bench_mod
from .connectivity import build_graph, load_graph, save_graph, visible_set_for
from .errors import DomainError, FormatError
from .geom import Intrinsics, Pose, scale_intrinsics
from .ingest import Sequence, load_map, read_intrinsics, read_pose, read_poses, save_map
from .raster import DEFAULT_LEVELS, Channels, rasterize_pyramid
from .render import (
    DEFAULT_BACKGROUND, check_background, check_levels, psnr, read_view_image, render_rgb, ssim, write_ppm,
)
from .synth import CanyonParams, load_scans, make_canyon, read_scene, write_scene

# `synth`'s scene options, each the `CanyonParams` field it sets, with that field's default and type
_SYNTH_OPTIONS = (("--length", "length"), ("--wall-gap", "wall_gap"), ("--spacing", "point_spacing"),
                  ("--lidar-range", "lidar_range"), ("--frame-step", "frame_step"), ("--occluders", "occluders"),
                  ("--occluder-clearance", "occluder_clearance"), ("--seed", "seed"), ("--width", "image_width"),
                  ("--height", "image_height"))
_WINDOW_N = 5  # the default connectivity window n of build-graph and bench


def _parse_levels(text: str) -> list[int]:
    """The sorted levels of `render --levels`, held to the renderer's rule."""
    try:
        levels = sorted({int(x) for x in text.split(",") if x.strip() != ""})
    except ValueError as e:
        raise DomainError(f"bad level list {text!r}") from e
    check_levels(levels)
    return levels


def cmd_synth(args) -> int:
    scene = make_canyon(CanyonParams(**{field: getattr(args, field) for _, field in _SYNTH_OPTIONS}))
    write_scene(args.out, scene, with_images=args.images)
    n_pts = sum(len(s) for s in scene.scans)
    print(f"wrote scene to {args.out}: {len(scene.scans)} scans, {n_pts} scan points")
    return 0


def cmd_build_map(args) -> int:
    if args.images and not args.intrinsics:
        raise DomainError("--images requires --intrinsics for projection")
    K = read_intrinsics(args.intrinsics) if args.images else None
    _, cloud = load_scans(args.scans, args.poses, args.images, K)
    save_map(args.out, cloud)
    print(f"wrote map {args.out}: {len(cloud)} points, {len(cloud.scan_ranges)} scans")
    return 0


def cmd_build_graph(args) -> int:
    cloud = load_map(args.map)
    frames = read_poses(args.poses)
    seq = Sequence(frames, Intrinsics(1.0, 1.0, 0.0, 0.0, 1, 1), cloud)  # graph building never projects
    graph = build_graph(seq, args.n)
    save_graph(args.out, graph)
    print(f"wrote graph {args.out}: {len(graph.table)} frames, n={graph.n}")
    return 0


def _query_pose(args, graph) -> Pose:
    """The pose `render` views from: `--frame`'s stored pose, else `--pose`."""
    if args.frame is not None:
        try:
            return graph.pose(args.frame)
        except DomainError as e:
            raise DomainError(f"{e}; pass --pose instead") from e
    if args.pose:
        return read_pose("--pose", args.pose.replace(",", " ").split(), None)
    raise DomainError("provide --pose or --frame")


def cmd_render(args) -> int:
    # Every argument and every file but the map is checked first, so a bad
    # request exits before the largest file is read or any output is written.
    levels = _parse_levels(args.levels)
    K = read_intrinsics(args.intrinsics)
    scale_intrinsics(K, levels[-1])  # a level too coarse for the image
    check_background(args.background)
    ref = read_view_image(args.reference, K, "--reference") if args.reference else None
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
    if args.n < 1:
        raise DomainError("--n must be a positive integer")
    # a bare `window` or `connectivity` runs with the --n window; `kind:N` with its own
    texts = [s.strip() for s in args.strategies.split(",") if s.strip()]
    strategies = [
        bench_mod.Strategy.parse(f"{s}:{args.n}" if s in ("window", "connectivity") else s) for s in texts
    ]
    if not strategies:
        raise DomainError("no strategies given")
    multi = len(strategies) > 1
    seq, surfaces = read_scene(args.scene)  # a colored map when there are images, so `raster_s` times a raster
    queries = [pose for _, pose in seq.frames][:: args.every]
    counts = bench_mod.oracle_counts(seq, queries, surfaces) if surfaces is not None else None
    for strat in strategies:
        report = bench_mod.run_strategy(strat, seq, queries, surfaces=surfaces, oracle_visible_counts=counts)
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
    scene_defaults = CanyonParams()
    for option, field in _SYNTH_OPTIONS:
        default = getattr(scene_defaults, field)
        metavar = option[2:].replace("-", "_").upper()  # argparse's own, from the option's name
        p.add_argument(option, dest=field, metavar=metavar, type=type(default), default=default)
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
    p.add_argument("--n", type=int, default=_WINDOW_N)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("render", help="render an RGB view through the pipeline")
    p.add_argument("--map", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--pose", help="12 floats, row-major 3x4 camera-to-world")
    p.add_argument("--frame", type=int, help="render from a stored frame's pose")
    p.add_argument("--levels", default=",".join(map(str, DEFAULT_LEVELS)))
    p.add_argument("--background", type=float, default=DEFAULT_BACKGROUND)
    p.add_argument("--reference", help="PPM to score against (prints psnr/ssim)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="score visibility strategies on a scene dump")
    p.add_argument("--scene", required=True, help="directory written by `pointvis synth`")
    p.add_argument("--strategies", default="connectivity,fullmap")
    p.add_argument("--n", type=int, default=_WINDOW_N)
    p.add_argument("--every", type=int, default=1, help="use every k-th frame as a query")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
