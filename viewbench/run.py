"""pointvis view benchmark: pose -> visible set -> pyramid -> RGB.

    python3 viewbench/run.py --workload dense_frame --seed 1 --seconds 20 --trace 0

Builds the workload's scene from --seed (set-up is repeated and its median
reported), then renders the workload's fixed list of query poses in a closed
loop, one caller in one process, in whole passes over the list until at least
--seconds of view time and MIN_VIEWS views are measured. Every view is checked; see checks.py.
The clock runs only while a view runs, so checks between views cost no view
time. With --trace 1 each pose is rendered twice in a row, untraced then
traced, and the per-layer metrics come from the spans of the traced views.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1). Lines
before it print every metric by name with its unit, the environment and the
output digest. Exit code 0 when every view passed, 1 when one failed, 2 when
the benchmark cannot run (for example, no pointvis sources beside it).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict

# One caller and one pointvis worker, and one BLAS thread: the products on
# the view path are (N, 3) x (3, 3), where a second BLAS thread bought no
# throughput on a 2-core machine and doubled the run-to-run spread. Set
# before numpy loads its BLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from checks import LEAK_MAX, PSNR_MIN_DB, leak_frac, view_digest, view_problems  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPEATS = 3
MIN_VIEWS = 15  # untraced views per run, so the median of a slow workload is not one or two views
DEADLINE_S = 140.0  # stop measuring mid-pass after this much wall time, to exit within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
LEVELS = range(6)

END_TO_END_UNITS = {"views_per_s": "1/s", "view_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics every workload reports, with their units.
PER_LAYER_UNITS = {
    "zbuffer.prune_s": "s",
    "zbuffer.candidates_per_s": "1/s",
    "zbuffer.winners": "count",
    "zbuffer.winner_frac": "frac",
    "zbuffer.gather_bytes": "B",
    "connectivity.nearest_frame_s": "s",
    "connectivity.retrieve_s": "s",
    "connectivity.candidates": "count",
    "connectivity.window_frac": "frac",
    "connectivity.build_graph_s": "s",
    "raster.pyramid_s": "s",
    **{f"raster.occupancy.l{t}": "frac" for t in LEVELS},
    "render.render_s": "s",
    **{f"render.fill_frac.l{t}": "frac" for t in LEVELS},
    "render.background_frac": "frac",
    "ingest.accumulate_s": "s",
    "trace.view_s": "s",
    "trace.uncovered_frac": "frac",
    "trace.overhead_frac": "frac",
}

# Per-layer metrics of calls only some workloads make: printed and written
# to the trace file where the call happens, left out of the JSON line.
WORKLOAD_LAYER_UNITS = {
    "connectivity.load_graph_s": "s",
    "ingest.load_map_s": "s",
    "ingest.load_map_bytes": "B",
    "ingest.save_map_s": "s",
    "render.write_ppm_s": "s",
    "synth.make_canyon_s": "s",
    "synth.oracle_paint_s": "s",
    "synth.oracle_occluded_s": "s",
}

# Span name -> per-layer metric: time per traced view for calls on the view
# path, time per call for set-up and oracle calls.
VIEW_SPANS = {
    "connectivity.prune_visible": "zbuffer.prune_s",
    "connectivity.nearest_frame": "connectivity.nearest_frame_s",
    "connectivity.retrieve_candidates": "connectivity.retrieve_s",
    "connectivity.candidate_indices": "connectivity.retrieve_s",
    "raster.rasterize_pyramid": "raster.pyramid_s",
    "render.render_rgb": "render.render_s",
    "render.write_ppm": "render.write_ppm_s",
    "ingest.load_map": "ingest.load_map_s",
    "connectivity.load_graph": "connectivity.load_graph_s",
}
CALL_SPANS = {
    "connectivity.build_graph": "connectivity.build_graph_s",
    "ingest.accumulate": "ingest.accumulate_s",
    "ingest.save_map": "ingest.save_map_s",
    "synth.make_canyon": "synth.make_canyon_s",
    "synth.oracle_paint": "synth.oracle_paint_s",
    "synth.oracle_occluded_many": "synth.oracle_occluded_s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="pointvis view benchmark")
    p.add_argument("--workload", required=True, choices=("dense_frame", "occluded_canyon", "cold_render"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="view time to measure, in whole passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every scene, for smoke tests")
    p.add_argument("--out", default=os.path.join(HERE, "out"), help="directory for scratch files and traces")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def environment(seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "seed": seed,
    }


def tail(values: list[float]):
    """(percentile, value) at the highest percentile with >= 10 values
    beyond it, or None when there are too few values."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100.0 - p) / 100.0 >= 10.0:
            return p, float(np.percentile(values, p))
    return None


def fill_fractions(pyramid) -> list[float]:
    """Share of output pixels each level supplies in render_rgb's hole fill,
    from the pyramid masks; the last entry is the background share."""
    base = pyramid.level(0).mask
    h, w = base.shape
    source = np.full((h, w), -1, dtype=np.int8)
    for img in sorted(pyramid.levels, key=lambda im: -im.level):
        if img.level == 0:
            continue
        s = 2**img.level
        up = np.repeat(np.repeat(img.mask, s, axis=0), s, axis=1)[:h, :w]
        source[: up.shape[0], : up.shape[1]][up] = img.level
    source[base] = 0
    counts = np.bincount(source.reshape(-1) + 1, minlength=len(LEVELS) + 1)
    return [float(c) / source.size for c in counts[1:]] + [float(counts[0]) / source.size]


class Loop:
    """What the timed loop saw: view times, checks and per-view counts."""

    def __init__(self):
        self.view_s = {False: [], True: []}  # keyed by traced
        self.pass_s: list[float] = []  # untraced view time of each whole pass
        self.first: dict[int, bytes] = {}  # pose -> digest of its first render
        self.psnrs: list[float] = []
        self.leak_occluded = 0.0
        self.leak_winners = 0
        self.counts = defaultdict(list)  # per traced view
        self.attempted = 0
        self.failed = 0
        self.measured = 0.0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"{what} failed: {'; '.join(problems)}", file=sys.stderr)


def measure(wl, scene, poses, args, tracer) -> Loop:
    """Render the poses in whole passes until --seconds of view time."""
    untraced = NullTracer()
    loop = Loop()
    modes = (False, True) if args.trace else (False,)
    K = scene.K
    while True:
        pass_s = 0.0
        for k, pose in enumerate(poses):
            for traced in modes:
                if time.perf_counter() - START > DEADLINE_S:
                    return loop
                tr = tracer if traced else untraced
                tr.view = loop.attempted
                loop.attempted += 1
                t0 = time.perf_counter()
                try:
                    with tr.span("view"):
                        out = wl.view(scene, pose, tr)
                except Exception:  # a view that raises is a failed view
                    loop.measured += time.perf_counter() - t0
                    loop.fail(f"view {tr.view} (pose {k})", [traceback.format_exc()])
                    continue
                dt = time.perf_counter() - t0
                loop.measured += dt
                loop.view_s[traced].append(dt)
                if not traced:
                    pass_s += dt
                problems = view_problems(out.vis, out.img, K.width, K.height)
                digest = view_digest(out.vis, out.img)
                if k not in loop.first:
                    loop.first[k] = digest
                    problems += score(wl, scene, pose, out.vis, out.img, loop, tracer)
                elif digest != loop.first[k]:
                    problems.append("output differs from the first render of the same pose")
                if problems:
                    loop.fail(f"view {tr.view} (pose {k})", problems)
                if traced:
                    count_layers(out, loop.counts)
        loop.pass_s.append(pass_s)
        if loop.measured >= args.seconds and (args.trace or len(loop.view_s[False]) >= MIN_VIEWS):
            return loop


def score(wl, scene, pose, vis, img, loop, tracer) -> list[str]:
    """Score a pose's first render against the oracle, between timed views."""
    from pointvis.render import psnr
    from pointvis.synth import oracle_paint

    problems = []
    if scene.surfaces is not None:
        ref = tracer.call("synth.oracle_paint", oracle_paint, pose, scene.K, scene.surfaces)
        db = psnr(img, ref)
        if np.isfinite(db):
            loop.psnrs.append(db)
        if wl.psnr_floor and db < PSNR_MIN_DB:
            problems.append(f"PSNR {db:.2f} dB < {PSNR_MIN_DB}")
    if wl.score_leak:
        leak = leak_frac(scene.cloud.positions, vis, pose, scene.surfaces, tracer)
        loop.leak_occluded += leak * len(vis)
        loop.leak_winners += len(vis)
        if leak > LEAK_MAX:
            problems.append(f"leak {leak:.4f} > {LEAK_MAX}")
    return problems


def count_layers(out, counts) -> None:
    from pointvis.raster import occupancy

    counts["candidates"].append(out.candidates)
    counts["winners"].append(len(out.vis))
    counts["occupancy"].append([occupancy(out.pyramid.level(t)) for t in LEVELS])
    counts["fill"].append(fill_fractions(out.pyramid))


def run(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    env = environment(args.seed)
    os.makedirs(args.out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=args.out)
    try:
        setup_s = []
        scene = None
        for _ in range(SETUP_REPEATS):
            scene = None  # free the last scene before building the next
            t0 = time.perf_counter()
            scene = wl.setup(args.seed, args.tiny, tracer, workdir)
            setup_s.append(time.perf_counter() - t0)
        poses = wl.poses(scene, args.seed)
        loop = measure(wl, scene, poses, args, tracer)
        env.update({
            "workload": wl.name,
            "views": loop.attempted,
            "passes": len(loop.pass_s),
            "poses": len(poses),
            "map_points": scene.map_points,
            "map_bytes": scene.map_bytes,
        })
        if scene.files:
            env["map_file_bytes"] = os.path.getsize(scene.files["map.bin"])
            env["note"] = "views read the map and graph from the page cache, not from disk"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = loop.view_s[False]
    extra = []
    if args.trace:
        declared = PER_LAYER_UNITS
        metrics = layer_metrics(tracer, loop, scene.map_points, env.get("map_file_bytes"))
        extra += [f"metric {name} {metrics[name]!r} {unit}"
                  for name, unit in WORKLOAD_LAYER_UNITS.items() if name in metrics]
        extra.append(f"trace accounting: layer self time + uncovered - view time = "
                     f"{metrics['trace.accounting_error_s']!r} s")
        trace_path = os.path.join(args.out, f"trace-{wl.name}.json")
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({"env": env, "metrics": metrics, "spans": tracer.to_json()}, f)
        extra.append(f"trace {trace_path}: {len(tracer.spans)} spans")
    else:
        declared = END_TO_END_UNITS
        # per-pass throughput, median over passes: a burst of load from
        # outside the process slows a few passes and barely moves it
        rates = [len(poses) / t for t in loop.pass_s if t > 0]
        env["pass_views_per_s"] = [round(r, 4) for r in rates]
        metrics = {
            "views_per_s": statistics.median(rates) if rates else len(times) / max(sum(times), 1e-9),
            "view_p50_s": statistics.median(times) if times else 0.0,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        t = tail(times)
        if t:
            env["tail_percentile"] = t[0]
            extra.append(f"metric view_tail_s {t[1]!r} s (p{t[0]:g} of {len(times)} views)")
        else:
            extra.append(f"metric view_tail_s omitted ({len(times)} views, needs 20)")
        if scene.surfaces is not None:
            identical = len(loop.first) - len(loop.psnrs)
            extra.append(f"metric psnr_db {statistics.fmean(loop.psnrs)!r} dB ({len(loop.psnrs)} scored poses, "
                         f"{identical} identical to the oracle)" if loop.psnrs else "metric psnr_db omitted")
        if wl.score_leak:
            frac = loop.leak_occluded / loop.leak_winners if loop.leak_winners else 0.0
            extra.append(f"metric leak_frac {frac!r} frac "
                         f"({loop.leak_winners} winners over {len(loop.first)} poses)")
    extra.append(f"metric failed_view_frac {loop.failed / max(loop.attempted, 1)!r} frac "
                 f"({loop.failed} of {loop.attempted} views)")

    digest = hashlib.sha256(b"".join(loop.first.get(k, b"raised") for k in range(len(poses))))
    print(f"env {json.dumps(env)}")
    for name, unit in declared.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    for line in extra:
        print(line)
    print(f"digest {digest.hexdigest()} over {len(poses)} poses")
    correct = loop.failed == 0 and loop.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0 if correct else 1


def layer_metrics(tracer, loop, map_points, map_file_bytes) -> dict:
    """Per-layer metrics from the spans of the traced views and calls."""
    spans = tracer.spans
    self_s = tracer.self_times()
    view_ids = {i for i, s in enumerate(spans) if s[0] == "view"}
    n = max(len(view_ids), 1)
    per_view = defaultdict(float)
    per_call = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if name in VIEW_SPANS and parent in view_ids:
            per_view[VIEW_SPANS[name]] += end - start
        elif name in CALL_SPANS:
            per_call[CALL_SPANS[name]].append(end - start)
    view_total = sum(spans[i][2] - spans[i][1] for i in view_ids)
    uncovered = sum(self_s[i] for i in view_ids)
    accounted = uncovered + sum(self_s[i] for i, s in enumerate(spans) if s[3] in view_ids)

    counts = loop.counts
    cand = np.array(counts["candidates"], dtype=np.float64)
    win = np.array(counts["winners"], dtype=np.float64)
    occ = np.array(counts["occupancy"]).reshape(-1, len(LEVELS))
    fill = np.array(counts["fill"]).reshape(-1, len(LEVELS) + 1)
    has = len(cand) > 0
    prune_total = per_view["zbuffer.prune_s"]
    untraced, traced = sum(loop.view_s[False]), sum(loop.view_s[True])
    m = {name: total / n for name, total in per_view.items()}
    m.update({name: statistics.fmean(v) for name, v in per_call.items()})
    m.update({
        "zbuffer.candidates_per_s": float(cand.sum()) / prune_total if prune_total else 0.0,
        "zbuffer.winners": float(win.mean()) if has else 0.0,
        "zbuffer.winner_frac": float(win.sum() / cand.sum()) if cand.sum() else 0.0,
        "zbuffer.gather_bytes": float(cand.mean()) * 32 if has else 0.0,  # int64 index + 3 float64
        "connectivity.candidates": float(cand.mean()) if has else 0.0,
        "connectivity.window_frac": float(cand.mean()) / map_points if has else 0.0,
        "trace.view_s": view_total / n,
        "trace.uncovered_frac": uncovered / view_total if view_total else 0.0,
        "trace.overhead_frac": traced / untraced - 1.0 if untraced else 0.0,
        "trace.accounting_error_s": abs(accounted - view_total),
    })
    for t in LEVELS:
        m[f"raster.occupancy.l{t}"] = float(occ[:, t].mean()) if has else 0.0
        m[f"render.fill_frac.l{t}"] = float(fill[:, t].mean()) if has else 0.0
    m["render.background_frac"] = float(fill[:, -1].mean()) if has else 0.0
    if map_file_bytes is not None:
        m["ingest.load_map_bytes"] = float(map_file_bytes)
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    # the program's worker count stays at its default of 1
    for var in ("CENPBG_THREADS", "POINTVIS_THREADS"):
        os.environ.pop(var, None)
    if not os.path.isfile(os.path.join(SRC, "pointvis", "__init__.py")):
        print(f"error: no pointvis sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
