import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from pointvis import cli
from pointvis.bench import Strategy, read_report_csv, run_strategy
from pointvis.cli import main
from pointvis.connectivity import build_graph, load_graph
from pointvis.ingest import (
    Sequence,
    accumulate,
    colorize_map,
    load_map,
    read_intrinsics,
    read_poses,
    read_scan,
)
from pointvis.render import read_ppm
from pointvis.synth import read_surfaces

from conftest import GRAPH_DEFECTS, corrupt_graph

SCENE_ARGS = [
    "--length", "24", "--wall-gap", "6", "--spacing", "0.5", "--lidar-range", "9",
    "--frame-step", "2", "--seed", "4", "--width", "64", "--height", "32",
]


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    code = main(["synth", "--out", str(out), "--images", *SCENE_ARGS])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def built(scene_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("build")
    map_path = work / "scene.map"
    graph_path = work / "scene.grf"
    code = main([
        "build-map", "--scans", str(scene_dir / "scans"), "--poses", str(scene_dir / "poses.txt"),
        "--images", str(scene_dir / "images"), "--intrinsics", str(scene_dir / "intrinsics.txt"),
        "--out", str(map_path),
    ])
    assert code == 0
    code = main([
        "build-graph", "--map", str(map_path), "--poses", str(scene_dir / "poses.txt"),
        "--n", "5", "--out", str(graph_path),
    ])
    assert code == 0
    return scene_dir, map_path, graph_path


class TestSynth:
    def test_scene_files_exist(self, scene_dir):
        assert (scene_dir / "poses.txt").exists()
        assert (scene_dir / "intrinsics.txt").exists()
        assert (scene_dir / "surfaces.txt").exists()
        assert (scene_dir / "scans" / "000000.bin").exists()
        assert (scene_dir / "images" / "000000.ppm").exists()

    def test_idempotent_bytes(self, tmp_path):
        for sub in ("x", "y"):
            assert main(["synth", "--out", str(tmp_path / sub), *SCENE_ARGS]) == 0
        a = (tmp_path / "x" / "scans" / "000001.bin").read_bytes()
        b = (tmp_path / "y" / "scans" / "000001.bin").read_bytes()
        assert a == b

    def test_invalid_spacing_usage_error(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "bad"), "--spacing", "100", "--wall-gap", "6"])
        assert code == 2


class TestBuildMap:
    def test_map_contents(self, built):
        scene_dir, map_path, _ = built
        cloud = load_map(map_path)
        n_scans = len(os.listdir(scene_dir / "scans"))
        assert len(cloud.scan_ranges) == n_scans
        assert cloud.colors is not None

    def test_missing_pose_file(self, scene_dir, tmp_path):
        code = main([
            "build-map", "--scans", str(scene_dir / "scans"),
            "--poses", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "m.map"),
        ])
        assert code == 2

    def test_images_color_the_same_points(self, built):
        scene_dir, map_path, _ = built
        frames = read_poses(scene_dir / "poses.txt")
        scans = [read_scan(scene_dir / "scans" / f"{fid:06d}.bin", scan_id=fid) for fid, _ in frames]
        images = {fid: read_ppm(scene_dir / "images" / f"{fid:06d}.ppm") for fid, _ in frames}
        expected = colorize_map(
            accumulate(scans, [pose for _, pose in frames]), frames, images,
            read_intrinsics(scene_dir / "intrinsics.txt"),
        )
        got = load_map(map_path).colors
        assert np.any(np.isfinite(got))
        assert np.array_equal(got, expected.colors.astype(np.float32), equal_nan=True)

    def test_two_scan_fixture(self, tmp_path):
        import struct

        scans = tmp_path / "scans"
        scans.mkdir()
        for sid in (0, 1):
            (scans / f"{sid:06d}.bin").write_bytes(struct.pack("<12f", *range(12)))
        (tmp_path / "poses.txt").write_text(
            "0 1 0 0 0 0 1 0 0 0 0 1 0\n1 1 0 0 0 0 1 0 0 0 0 1 0\n"
        )
        out = tmp_path / "m.map"
        assert main(["build-map", "--scans", str(scans), "--poses", str(tmp_path / "poses.txt"),
                     "--out", str(out)]) == 0
        assert len(load_map(out)) == 6


class TestBuildGraph:
    def test_graph_round_trip(self, built):
        _, _, graph_path = built
        graph = load_graph(graph_path)
        assert graph.n == 5
        assert len(graph.entries) > 0

    def test_n_zero_usage_error(self, built, tmp_path):
        scene_dir, map_path, _ = built
        code = main([
            "build-graph", "--map", str(map_path), "--poses", str(scene_dir / "poses.txt"),
            "--n", "0", "--out", str(tmp_path / "g.grf"),
        ])
        assert code == 2

    def test_frame_past_the_scans_usage_error(self, built, tmp_path, capsys):
        scene_dir, map_path, _ = built
        lines = (scene_dir / "poses.txt").read_text().split("\n")
        last = lines[-1] if lines[-1].strip() else lines[-2]
        poses = tmp_path / "poses.txt"
        poses.write_text("\n".join(lines) + "\n" + " ".join(["1000", *last.split()[1:]]) + "\n")
        code = main(["build-graph", "--map", str(map_path), "--poses", str(poses),
                     "--n", "5", "--out", str(tmp_path / "g.grf")])
        assert code == 2
        assert "frame 1000 has an empty scan window" in capsys.readouterr().err
        assert not (tmp_path / "g.grf").exists()


class TestRender:
    def test_render_known_frame(self, built, tmp_path, capsys):
        scene_dir, map_path, graph_path = built
        out = tmp_path / "view.ppm"
        code = main([
            "render", "--map", str(map_path), "--graph", str(graph_path),
            "--intrinsics", str(scene_dir / "intrinsics.txt"),
            "--frame", "3", "--levels", "0,1,2,3", "--out", str(out),
            "--reference", str(scene_dir / "images" / "000003.ppm"),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "psnr=" in captured and "ssim=" in captured
        img = read_ppm(out)
        assert img.shape == (32, 64, 3)

    def test_render_pose_without_reference_omits_metrics(self, built, tmp_path, capsys):
        scene_dir, map_path, graph_path = built
        out = tmp_path / "v2.ppm"
        code = main([
            "render", "--map", str(map_path), "--graph", str(graph_path),
            "--intrinsics", str(scene_dir / "intrinsics.txt"),
            "--pose", "1 0 0 0 0 1 0 0 0 0 1 5.0", "--levels", "0,1,2,3", "--out", str(out),
        ])
        assert code == 0
        assert "psnr=" not in capsys.readouterr().out

    def test_unknown_frame_uses_nearest_via_pose(self, built, tmp_path):
        scene_dir, map_path, graph_path = built
        # an off-trajectory pose: nearest_frame resolves the window to use
        out = tmp_path / "v3.ppm"
        code = main([
            "render", "--map", str(map_path), "--graph", str(graph_path),
            "--intrinsics", str(scene_dir / "intrinsics.txt"),
            "--pose", "1 0 0 0.2 0 1 0 -0.1 0 0 1 4.7", "--levels", "0,1,2", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_malformed_reference_usage_error(self, built, tmp_path):
        scene_dir, map_path, graph_path = built
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n4")
        code = main([
            "render", "--map", str(map_path), "--graph", str(graph_path),
            "--intrinsics", str(scene_dir / "intrinsics.txt"), "--frame", "3",
            "--out", str(tmp_path / "v4.ppm"), "--reference", str(bad),
        ])
        assert code == 2

    def test_non_finite_map_usage_error(self, built, tmp_path):
        scene_dir, map_path, graph_path = built
        raw = bytearray(map_path.read_bytes())
        off = raw.index(load_map(map_path).positions.astype("<f4").tobytes())
        raw[off + 4 : off + 8] = np.float32(np.nan).tobytes()
        bad = tmp_path / "nan.map"
        bad.write_bytes(bytes(raw))
        code = main([
            "render", "--map", str(bad), "--graph", str(graph_path),
            "--intrinsics", str(scene_dir / "intrinsics.txt"), "--frame", "3",
            "--out", str(tmp_path / "v5.ppm"),
        ])
        assert code == 2


class TestBench:
    def test_two_strategies(self, scene_dir, tmp_path):
        out = tmp_path / "report.csv"
        code = main([
            "bench", "--scene", str(scene_dir), "--strategies", "connectivity,fullmap",
            "--every", "3", "--out", str(out),
        ])
        assert code == 0
        conn = tmp_path / "report_connectivity-5.csv"
        full = tmp_path / "report_fullmap.csv"
        assert conn.exists() and full.exists()
        header = conn.read_text().splitlines()[0]
        assert header == "frame_id,retrieved,visible,leak,precision,recall,prune_s,raster_s"

    def test_deterministic_counts(self, scene_dir, tmp_path):
        outs = []
        for sub in ("r1.csv", "r2.csv"):
            out = tmp_path / sub
            assert main(["bench", "--scene", str(scene_dir), "--strategies", "connectivity",
                         "--every", "4", "--out", str(out)]) == 0
            rows = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_scan_without_pose_usage_error(self, scene_dir, tmp_path):
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        shutil.copy(scene / "scans" / "000000.bin", scene / "scans" / "000999.bin")
        code = main(["bench", "--scene", str(scene), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_unknown_strategy_usage_error(self, scene_dir, tmp_path):
        code = main(["bench", "--scene", str(scene_dir), "--strategies", "sorcery",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_each_strategy_runs_its_own_window(self, scene_dir, tmp_path):
        code = main(["bench", "--scene", str(scene_dir), "--n", "3", "--every", "3",
                     "--strategies", "connectivity,connectivity:1,connectivity:8,window",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 0
        frames = read_poses(scene_dir / "poses.txt")
        scans = [read_scan(scene_dir / "scans" / f"{fid:06d}.bin", scan_id=fid) for fid, _ in frames]
        cloud = accumulate(scans, [pose for _, pose in frames])
        seq = Sequence(frames, read_intrinsics(scene_dir / "intrinsics.txt"), cloud)
        queries = [pose for _, pose in frames][::3]
        surfaces = read_surfaces(scene_dir / "surfaces.txt")
        key = lambda r: (r.frame_id, r.retrieved, r.visible, repr(r.leak), repr(r.precision), repr(r.recall))
        retrieved = {}
        for n in (3, 1, 8):
            got = read_report_csv(tmp_path / f"r_connectivity-{n}.csv").rows
            want = run_strategy(Strategy.connectivity(n), seq, queries, build_graph(seq, n), surfaces).rows
            assert [key(r) for r in got] == [key(r) for r in want]
            retrieved[n] = [r.retrieved for r in got]
        assert retrieved[1] != retrieved[3] != retrieved[8]
        got = read_report_csv(tmp_path / "r_window-3.csv").rows  # a bare `window` runs with --n too
        want = run_strategy(Strategy.sliding_window(3), seq, queries, build_graph(seq, 3), surfaces).rows
        assert [key(r) for r in got] == [key(r) for r in want]


@pytest.mark.parametrize("levels", ["1,3", "0", "-1,0", "0,12"])
def test_render_levels_checked_before_loading(built, tmp_path, monkeypatch, levels):
    scene_dir, map_path, graph_path = built
    loads = []
    monkeypatch.setattr(cli, "load_map", lambda path: loads.append(path))
    code = main(["render", "--map", str(map_path), "--graph", str(graph_path),
                 "--intrinsics", str(scene_dir / "intrinsics.txt"), "--frame", "3",
                 f"--levels={levels}", "--out", str(tmp_path / "v.ppm")])
    assert code == 2
    assert loads == []


# `render` checks the whole request, and reads every input but the map,
# before it reads the map; a bad request writes no output.
@pytest.mark.parametrize("extra", [
    ["--pose", "1 0 0 0 0 1 0 0 0 0 1 abc"],
    ["--pose", "1 0 0 0 0 1 0 0 0 0 1"],
    ["--frame", "999"],
    [],
    ["--frame", "3", "--background", "nan"],
    ["--frame", "3", "--reference", "MISSING"],
    ["--frame", "3", "--reference", "SMALL"],
    ["--frame", "3", "--graph", "MISSING"],
], ids=["pose-token", "pose-short", "frame-unknown", "no-pose-or-frame", "background-nan",
        "reference-missing", "reference-size", "graph-missing"])
def test_render_request_checked_before_loading(built, tmp_path, monkeypatch, extra):
    scene_dir, map_path, graph_path = built
    small = tmp_path / "small.ppm"
    small.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    names = {"MISSING": tmp_path / "missing", "SMALL": small}
    loads = []
    monkeypatch.setattr(cli, "load_map", lambda path: loads.append(path))
    out = tmp_path / "v.ppm"
    code = main(["render", "--map", str(map_path), "--graph", str(graph_path),
                 "--intrinsics", str(scene_dir / "intrinsics.txt"), "--out", str(out),
                 *[str(names.get(x, x)) for x in extra]])
    assert code == 2
    assert loads == []
    assert not out.exists()


def test_import_needs_no_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, pointvis.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}).returncode == 0


# Each malformed input is rejected where it enters: exit 2, never exit 1 and
# never exit 0 with bad output.
@pytest.mark.parametrize("command,extra", [
    ("render", ["--pose", "1 0 0 0 0 1 0 0 0 0 1 abc"]),
    ("render", ["--frame", "3", "--background", "nan"]),
    ("render", ["--frame", "3", "--reference", "NEGATIVE_PPM"]),
    ("bench", ["--every", "0"]),
    ("bench", ["--every", "-1"]),
    ("bench", ["--strategies", "depth:abc"]),
    ("bench", ["--strategies", "depth:nan"]),
    ("bench", ["--strategies", "connectivity:2.5"]),
    ("synth", ["--length", "nan"]),
    ("render", ["--frame", "3", "--intrinsics", "MAP"]),
    ("build-graph", ["--poses", "MAP"]),
    ("render", ["--frame", "3", "--map", "SCENE"]),
    ("build-graph", ["--poses", "SCENE"]),
    ("render", ["--frame", "3", "--map", "UNDER_MAP"]),
    *[("render", ["--frame", "3", "--graph", f"GRAPH_{defect}"]) for defect in GRAPH_DEFECTS],
], ids=["pose-token", "background-nan", "reference-negative-size", "every-zero", "every-negative",
        "strategy-text", "strategy-nan", "strategy-fractional-window", "synth-length-nan",
        "intrinsics-binary", "poses-binary", "map-directory", "poses-directory", "map-under-file",
        *[f"graph-{defect}" for defect in GRAPH_DEFECTS]])
def test_malformed_input_usage_error(built, tmp_path, command, extra):
    scene_dir, map_path, graph_path = built
    negative = tmp_path / "neg.ppm"
    negative.write_bytes(b"P6\n-2 -2\n255\n" + bytes(12))
    names = {"NEGATIVE_PPM": negative, "MAP": map_path, "UNDER_MAP": map_path / "x", "SCENE": scene_dir}
    for defect in GRAPH_DEFECTS:
        names[f"GRAPH_{defect}"] = tmp_path / f"{defect}.grf"
        names[f"GRAPH_{defect}"].write_bytes(corrupt_graph(graph_path.read_bytes(), defect))
    extra = [str(names.get(x, x)) for x in extra]
    base = {
        "render": ["--map", str(map_path), "--graph", str(graph_path),
                   "--intrinsics", str(scene_dir / "intrinsics.txt"), "--out", str(tmp_path / "v.ppm")],
        "build-graph": ["--map", str(map_path), "--poses", str(scene_dir / "poses.txt"),
                        "--out", str(tmp_path / "g.grf")],
        "bench": ["--scene", str(scene_dir), "--out", str(tmp_path / "r.csv")],
        "synth": ["--out", str(tmp_path / "scene")],
    }[command]
    assert main([command, *base, *extra]) == 2
