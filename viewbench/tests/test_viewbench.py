"""Smoke tests of the view benchmark at tiny scene sizes, and of its checks.

    PYTHONPATH=src python3 -m pytest -q viewbench/tests
"""
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from checks import view_digest, view_problems  # noqa: E402
from pointvis.connectivity import VisibleSet  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Metrics printed on `metric` lines but not in the JSON line, by workload.
E2E_LINES = {
    "dense_frame": ["view_tail_s", "psnr_db", "failed_view_frac"],
    "occluded_canyon": ["view_tail_s", "psnr_db", "leak_frac", "failed_view_frac"],
    "cold_render": ["view_tail_s", "failed_view_frac"],
}
LAYER_LINES = {
    "dense_frame": ["synth.make_canyon_s", "synth.oracle_paint_s"],
    "occluded_canyon": ["synth.make_canyon_s", "synth.oracle_paint_s", "synth.oracle_occluded_s"],
    "cold_render": ["connectivity.load_graph_s", "ingest.load_map_s", "ingest.load_map_bytes",
                    "ingest.save_map_s", "render.write_ppm_s"],
}


def run_bench(root, workload, trace, out, seed=3):
    cmd = [sys.executable, os.path.join(root, "viewbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny", "--out", str(out)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric(workload, trace, tmp_path):
    proc = run_bench(ROOT, workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    named = [m["name"] for m in declared] + (LAYER_LINES if trace else E2E_LINES)[workload]
    assert set(named) <= printed
    assert any(line.startswith("env ") for line in lines)
    assert any(line.startswith("digest ") for line in lines)
    if trace:
        with open(tmp_path / f"trace-{workload}.json", encoding="utf-8") as f:
            dump = json.load(f)
        assert dump["metrics"]["trace.accounting_error_s"] < 1e-9
        assert {"id", "name", "start", "end", "parent", "view"} == set(dump["spans"][0])


def test_same_seed_same_digest(tmp_path):
    digests = []
    for _ in range(2):
        proc = run_bench(ROOT, "occluded_canyon", 0, tmp_path)
        digests.append([line for line in proc.stdout.splitlines() if line.startswith("digest ")])
    assert digests[0] == digests[1] and digests[0]


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "viewbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(str(tmp_path), WORKLOADS[0], 0, tmp_path / "out")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _valid_view():
    vis = VisibleSet(
        np.array([2, 5, 9], dtype=np.int64), 0,
        np.array([[0, 0], [3, 1], [7, 3]], dtype=np.int64), np.array([1.0, 2.5, 4.0]),
    )
    return vis, np.full((4, 8, 3), 0.5)


def test_checker_accepts_valid_and_empty_views():
    vis, img = _valid_view()
    assert view_problems(vis, img, 8, 4) == []
    empty = VisibleSet(np.zeros(0, np.int64), 0, np.zeros((0, 2), np.int64), np.zeros(0))
    assert view_problems(empty, img, 8, 4) == []


@pytest.mark.parametrize("corrupt", ["order", "duplicate_index", "shared_pixel", "out_of_bounds",
                                     "depth", "nan_image", "image_range", "image_shape"])
def test_checker_rejects_corrupted_view(corrupt):
    vis, img = _valid_view()
    if corrupt == "order":
        vis.point_indices = vis.point_indices[::-1].copy()
    elif corrupt == "duplicate_index":
        vis.point_indices[1] = vis.point_indices[0]
    elif corrupt == "shared_pixel":
        vis.pixel_of[2] = vis.pixel_of[1]
    elif corrupt == "out_of_bounds":
        vis.pixel_of[2] = (8, 3)
    elif corrupt == "depth":
        vis.depth_of[0] = -1.0
    elif corrupt == "nan_image":
        img[0, 0, 0] = np.nan
    elif corrupt == "image_range":
        img[0, 0, 0] = 1.5
    elif corrupt == "image_shape":
        img = img[:, :4]
    assert view_problems(vis, img, 8, 4)


def test_digest_sees_every_output():
    vis, img = _valid_view()
    base = view_digest(vis, img)
    vis.depth_of[1] = np.nextafter(vis.depth_of[1], np.inf)
    assert view_digest(vis, img) != base


def test_self_times_and_uncovered_add_up_to_the_view():
    tr = Tracer()
    tr.view = 0
    with tr.span("view"):
        tr.call("a", time.sleep, 0.002)
        with tr.span("b"):
            tr.call("b.inner", time.sleep, 0.001)
    view = tr.spans[0][2] - tr.spans[0][1]
    assert [s[3] for s in tr.spans] == [-1, 0, 0, 2]
    assert sum(tr.self_times()) == pytest.approx(view, abs=1e-12)
    assert all(t >= 0 for t in tr.self_times())
