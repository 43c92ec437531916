import os
import shutil
import struct
import subprocess
import sys
from dataclasses import astuple

import numpy as np
import pytest

from pointvis import bench, cli
from pointvis.bench import Strategy, read_report_csv, run_strategy
from pointvis.cli import main
from pointvis.connectivity import load_graph
from pointvis.errors import DomainError
from pointvis.geom import pixel_bins
from pointvis.ingest import (
    Sequence,
    accumulate,
    load_map,
    read_intrinsics,
    read_poses,
    read_scan,
)
from pointvis.raster import Channels, RasterImage, RasterPyramid, rasterize
from pointvis.render import read_ppm, render_rgb
from pointvis.synth import CanyonParams, oracle_visible_many, read_scene, read_surfaces

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

    # reference: each scan's rows binned at its pose, colored from its own image
    def test_images_color_the_same_points(self, built):
        scene_dir, map_path, _ = built
        frames = read_poses(scene_dir / "poses.txt")
        K = read_intrinsics(scene_dir / "intrinsics.txt")
        scans = [read_scan(scene_dir / "scans" / f"{fid:06d}.bin", scan_id=fid) for fid, _ in frames]
        cloud = accumulate(scans, [pose for _, pose in frames])
        expected = np.full((len(cloud), 3), np.nan)
        for (fid, pose), (_, first, count) in zip(frames, cloud.scan_ranges, strict=True):
            keep, pix, _ = pixel_bins(pose, K, cloud.positions[first : first + count])
            expected[first + keep] = read_ppm(scene_dir / "images" / f"{fid:06d}.ppm").reshape(-1, 3)[pix]
        got = load_map(map_path).colors
        assert np.any(np.isfinite(got))
        assert np.array_equal(got, expected.astype(np.float32), equal_nan=True)

    # a scan whose image is missing keeps NaN colors; every other row is
    # colored as in the fully imaged build, by build-map and read_scene alike
    def test_scan_without_its_image_is_uncolored(self, built, tmp_path):
        scene_dir, map_path, _ = built
        partial = tmp_path / "partial"
        shutil.copytree(scene_dir, partial)
        (partial / "images" / "000003.ppm").unlink()
        assert main([
            "build-map", "--scans", str(partial / "scans"), "--poses", str(partial / "poses.txt"),
            "--images", str(partial / "images"), "--intrinsics", str(partial / "intrinsics.txt"),
            "--out", str(tmp_path / "m.map"),
        ]) == 0
        got, whole = load_map(tmp_path / "m.map").colors, load_map(map_path)
        (first, count), = [(f, c) for sid, f, c in whole.scan_ranges if sid == 3]
        assert np.isfinite(whole.colors[first : first + count]).any()
        assert np.isnan(got[first : first + count]).all()
        assert np.array_equal(np.delete(got, np.s_[first : first + count], axis=0),
                              np.delete(whole.colors, np.s_[first : first + count], axis=0), equal_nan=True)
        assert np.array_equal(read_scene(partial)[0].map.colors.astype(np.float32), got, equal_nan=True)

    @pytest.mark.parametrize("images", ["no-such-dir", "poses.txt"])
    def test_images_not_a_directory_exits_2(self, scene_dir, tmp_path, images):
        code = main([
            "build-map", "--scans", str(scene_dir / "scans"), "--poses", str(scene_dir / "poses.txt"),
            "--images", str(scene_dir / images), "--intrinsics", str(scene_dir / "intrinsics.txt"),
            "--out", str(tmp_path / "m.map"),
        ])
        assert code == 2
        assert not (tmp_path / "m.map").exists()

    def test_read_scene_colors_as_build_map_does(self, built):
        scene_dir, map_path, _ = built
        seq, surfaces = read_scene(scene_dir)
        assert np.array_equal(seq.map.colors.astype(np.float32), load_map(map_path).colors, equal_nan=True)
        assert len(surfaces) == len(read_surfaces(scene_dir / "surfaces.txt"))

    @staticmethod
    def _two_scan_build(tmp_path, names):
        """`build-map` over scan files `names` of 3 points each, at poses for scans 0 and 1."""
        scans = tmp_path / "scans"
        scans.mkdir()
        for name in names:
            (scans / name).write_bytes(struct.pack("<12f", *range(12)))
        (tmp_path / "poses.txt").write_text(
            "0 1 0 0 0 0 1 0 0 0 0 1 0\n1 1 0 0 0 0 1 0 0 0 0 1 0\n"
        )
        return main(["build-map", "--scans", str(scans), "--poses", str(tmp_path / "poses.txt"),
                     "--out", str(tmp_path / "m.map")])

    def test_two_scan_fixture(self, tmp_path):
        assert self._two_scan_build(tmp_path, [f"{sid:06d}.bin" for sid in (0, 1)]) == 0
        assert len(load_map(tmp_path / "m.map")) == 6

    # only a stem of ASCII digits names a scan: `int()` would also read `1_0` as 10,
    # `+1` and ` 1` as 1 and `-1` as -1
    def test_stem_not_all_digits_skipped(self, tmp_path):
        names = ["000000.bin", "000001.bin", "1_0.bin", "+1.bin", " 1.bin", "-1.bin", "\u0661.bin"]
        assert self._two_scan_build(tmp_path, names) == 0
        assert load_map(tmp_path / "m.map").scan_ranges == [(0, 0, 3), (1, 3, 3)]

    # refused where the files are listed, naming both, not later by the map's sorted-ids check
    def test_two_files_of_one_scan_rejected_naming_both(self, tmp_path, capsys):
        assert self._two_scan_build(tmp_path, ["000000.bin", "000001.bin", "1.bin"]) == 2
        scans = tmp_path / "scans"
        assert f"error: {scans / '000001.bin'} and {scans / '1.bin'} are both scan 1" in capsys.readouterr().err


class TestBuildGraph:
    def test_graph_round_trip(self, built):
        _, _, graph_path = built
        graph = load_graph(graph_path)
        assert graph.n == 5
        assert len(graph.table) > 0

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

    def test_pose_follows_the_poses_file_rule(self, scene_dir, tmp_path):
        # frame 4 turned 0.1 rad about y, typed to four decimals: |R^T R - I|_max
        # is 1.5e-5, so the poses file's rule repairs it, and `--pose` with the
        # same 12 numbers views from the same repaired pose as `--frame 4`
        lines = (scene_dir / "poses.txt").read_text().splitlines()
        f = lines[4].split()
        assert f[0] == "4"
        pose = f"0.9950 0 0.0998 {f[4]} 0 1 0 {f[8]} -0.0998 0 0.9950 {f[12]}"
        lines[4] = "4 " + pose
        poses = tmp_path / "poses.txt"
        poses.write_text("\n".join(lines) + "\n")
        map_path, graph_path = tmp_path / "m.map", tmp_path / "g.grf"
        assert main(["build-map", "--scans", str(scene_dir / "scans"), "--poses", str(poses),
                     "--images", str(scene_dir / "images"), "--intrinsics", str(scene_dir / "intrinsics.txt"),
                     "--out", str(map_path)]) == 0
        assert main(["build-graph", "--map", str(map_path), "--poses", str(poses), "--n", "3",
                     "--out", str(graph_path)]) == 0
        views = []
        for name, how in (("frame.ppm", ["--frame", "4"]), ("pose.ppm", ["--pose", pose])):
            assert main(["render", "--map", str(map_path), "--graph", str(graph_path),
                         "--intrinsics", str(scene_dir / "intrinsics.txt"), *how,
                         "--out", str(tmp_path / name)]) == 0
            views.append((tmp_path / name).read_bytes())
        assert views[0] == views[1]

    @pytest.mark.parametrize("frame", ["-1", "999", str(2**64)])
    def test_frame_not_in_graph_suggests_pose(self, built, tmp_path, capsys, frame):
        scene_dir, map_path, graph_path = built
        code = main([
            "render", "--map", str(map_path), "--graph", str(graph_path),
            "--intrinsics", str(scene_dir / "intrinsics.txt"), f"--frame={frame}",
            "--out", str(tmp_path / "v.ppm"),
        ])
        assert code == 2
        assert f"frame {frame} not in graph; pass --pose instead" in capsys.readouterr().err

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


def _scene_sequence(scene):
    """The scene's frames, scans and intrinsics as a Sequence, and its surfaces."""
    frames = read_poses(scene / "poses.txt")
    scans = [read_scan(path, scan_id=int(path.stem)) for path in sorted((scene / "scans").iterdir())]
    cloud = accumulate(scans, [dict(frames)[scan.scan_id] for scan in scans])
    return Sequence(frames, read_intrinsics(scene / "intrinsics.txt"), cloud), read_surfaces(scene / "surfaces.txt")


def _row_key(r):
    """A report row's columns 1-6; columns 7-8 are timings."""
    return (r.frame_id, r.retrieved, r.visible, repr(r.leak), repr(r.precision), repr(r.recall))


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

    def test_scene_without_intrinsics_usage_error(self, scene_dir, tmp_path):
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene, ignore=shutil.ignore_patterns("intrinsics.txt"))
        assert main(["bench", "--scene", str(scene), "--out", str(tmp_path / "x.csv")]) == 2

    # The oracle's count of the map points each query sees is that view's
    # recall denominator: one count per query, whatever the strategies.
    def test_oracle_counts_once_per_query(self, scene_dir, tmp_path, monkeypatch):
        calls = []

        def record(positions, pose, K, surfaces):
            calls.append(pose.frame_id)
            return oracle_visible_many(positions, pose, K, surfaces)

        monkeypatch.setattr(bench, "oracle_visible_many", record)
        assert main(["bench", "--scene", str(scene_dir), "--strategies", "connectivity,window,fullmap,depth:10",
                     "--every", "3", "--out", str(tmp_path / "r.csv")]) == 0
        assert calls == [fid for fid, _ in read_poses(scene_dir / "poses.txt")][::3]

    def test_unknown_strategy_usage_error(self, scene_dir, tmp_path):
        code = main(["bench", "--scene", str(scene_dir), "--strategies", "sorcery",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_each_strategy_runs_its_own_window(self, scene_dir, tmp_path):
        code = main(["bench", "--scene", str(scene_dir), "--n", "3", "--every", "3",
                     "--strategies", "connectivity,connectivity:1,connectivity:8,window",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 0
        seq, surfaces = _scene_sequence(scene_dir)
        queries = [pose for _, pose in seq.frames][::3]
        retrieved = {}
        for n in (3, 1, 8):
            got = read_report_csv(tmp_path / f"r_connectivity-{n}.csv").rows
            want = run_strategy(Strategy("connectivity", n), seq, queries, surfaces).rows
            assert [_row_key(r) for r in got] == [_row_key(r) for r in want]
            retrieved[n] = [r.retrieved for r in got]
        assert retrieved[1] != retrieved[3] != retrieved[8]
        got = read_report_csv(tmp_path / "r_window-3.csv").rows  # a bare `window` runs with --n too
        want = run_strategy(Strategy("window", 3), seq, queries, surfaces).rows
        assert [_row_key(r) for r in got] == [_row_key(r) for r in want]

    def test_frame_past_the_scans_needs_no_graph(self, scene_dir, tmp_path):
        # fullmap and depth read no graph, so a frame no scan window can hold
        # is just one more query
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene, ignore=shutil.ignore_patterns("images"))
        lines = (scene / "poses.txt").read_text().splitlines()
        lines.append(" ".join(["40", *lines[-1].split()[1:]]))
        (scene / "poses.txt").write_text("\n".join(lines) + "\n")
        assert main(["bench", "--scene", str(scene), "--strategies", "fullmap,depth:10", "--every", "4",
                     "--out", str(tmp_path / "r.csv")]) == 0
        seq, surfaces = _scene_sequence(scene)
        queries = [pose for _, pose in seq.frames][::4]
        assert queries[-1].frame_id == 40
        for strat in (Strategy("fullmap"), Strategy("depth", 10)):
            got = read_report_csv(tmp_path / f"r_{strat.label.replace(':', '-')}.csv").rows
            want = run_strategy(strat, seq, queries, surfaces=surfaces).rows
            assert [_row_key(r) for r in got] == [_row_key(r) for r in want]

    # With the scene's images the map is colored as `build-map --images` colors
    # it, so `raster_s` times one level-0 color raster per view; without them
    # the map has no channel to raster.
    @pytest.mark.parametrize("images", [True, False])
    def test_raster_per_view_when_the_scene_has_images(self, scene_dir, tmp_path, monkeypatch, images):
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene, ignore=None if images else shutil.ignore_patterns("images"))
        calls = []

        def record(cloud, vis, query, K, level, channels):
            calls.append((level, channels, cloud.colors is not None))
            return rasterize(cloud, vis, query, K, level=level, channels=channels)

        monkeypatch.setattr(bench, "rasterize", record)
        assert main(["bench", "--scene", str(scene), "--strategies", "connectivity,fullmap", "--every", "4",
                     "--out", str(tmp_path / "r.csv")]) == 0
        views = len(read_poses(scene / "poses.txt")[::4])
        assert calls == ([(0, Channels.COLOR, True)] * 2 * views if images else [])

    # A radius whose square overflows float64 holds every point of the map.
    def test_overflowing_radius_holds_every_point(self, scene_dir, tmp_path):
        assert main(["bench", "--scene", str(scene_dir), "--strategies", "radius:1e200", "--every", "6",
                     "--out", str(tmp_path / "r.csv")]) == 0
        seq, _ = _scene_sequence(scene_dir)
        rows = read_report_csv(tmp_path / "r.csv").rows
        assert rows and all(r.retrieved == len(seq.map) for r in rows)


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


# `render --levels` holds a level list to the renderer's own rule.
@pytest.mark.parametrize("levels", ["1,3", "0", "-1,0"])
def test_render_levels_rejected_as_render_rgb_rejects_them(built, tmp_path, levels):
    scene_dir, map_path, graph_path = built
    assert main(["render", "--map", str(map_path), "--graph", str(graph_path),
                 "--intrinsics", str(scene_dir / "intrinsics.txt"), "--frame", "3",
                 f"--levels={levels}", "--out", str(tmp_path / "v.ppm")]) == 2
    ts = [int(t) for t in levels.split(",")]
    hw = [(16 >> (t - min(ts)), 16 >> (t - min(ts))) for t in ts]
    with pytest.raises(DomainError):
        render_rgb(RasterPyramid([RasterImage(t, np.zeros((*s, 3)), np.full(s, np.inf), np.zeros(s, dtype=bool))
                                  for t, s in zip(ts, hw)], Channels.COLOR))


# `synth`'s scene options take their defaults from `CanyonParams`.
def test_synth_defaults_are_canyon_params(tmp_path, monkeypatch):
    made = []

    def record(params):
        made.append(params)
        raise DomainError("recorded")

    monkeypatch.setattr(cli, "make_canyon", record)
    assert main(["synth", "--out", str(tmp_path / "scene")]) == 2
    assert made == [CanyonParams()]


@pytest.mark.parametrize("strategies", ["sorcery", "depth:nan", ","])
def test_bench_strategies_checked_before_reading_the_scene(scene_dir, tmp_path, monkeypatch, strategies):
    reads = []
    monkeypatch.setattr(cli, "read_scene", lambda path: reads.append(path))
    assert main(["bench", "--scene", str(scene_dir), "--strategies", strategies,
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert reads == []


# `render` checks the whole request, and reads every input but the map,
# before it reads the map; a bad request writes no output. The machine is
# faked as 1 GiB, where a 4096x4096 image fits at 24 B a pixel but a whole
# view of it does not.
@pytest.mark.parametrize("extra", [
    ["--pose", "1 0 0 0 0 1 0 0 0 0 1 abc"],
    ["--pose", "1 0 0 0 0 1 0 0 0 0 1"],
    ["--frame", "999"],
    [],
    ["--frame", "3", "--background", "nan"],
    ["--frame", "3", "--reference", "MISSING"],
    ["--frame", "3", "--reference", "SMALL"],
    ["--frame", "3", "--graph", "MISSING"],
    ["--frame", "3", "--intrinsics", "VIEW_BEYOND_MEMORY"],
], ids=["pose-token", "pose-short", "frame-unknown", "no-pose-or-frame", "background-nan",
        "reference-missing", "reference-size", "graph-missing", "view-beyond-memory"])
def test_render_request_checked_before_loading(built, tmp_path, monkeypatch, extra):
    scene_dir, map_path, graph_path = built
    small = tmp_path / "small.ppm"
    small.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    big = tmp_path / "big.txt"
    big.write_text("2048 2048 2048 2048 4096 4096\n")
    names = {"MISSING": tmp_path / "missing", "SMALL": small, "VIEW_BEYOND_MEMORY": big}
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1 << 18, "SC_PAGE_SIZE": 1 << 12}.__getitem__)
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
    ("bench", ["--strategies", "depth:10:junk"]),
    ("bench", ["--strategies", "fullmap:7"]),
    ("bench", ["--strategies", "fullmap", "--n", "0"]),
    ("build-map", ["--images", "SMALL_IMAGES"]),
    ("synth", ["--length", "nan"]),
    ("synth", ["--occluders", "1", "--occluder-clearance", "nan"]),
    ("synth", ["--occluders", "1", "--occluder-clearance", "-3"]),
    ("synth", ["--length", "1e308"]),
    ("synth", ["--spacing", "1e-300"]),
    ("synth", ["--frame-step", "1e-300", "--length", "1"]),
    ("render", ["--frame", "3", "--intrinsics", "HUGE_INTRINSICS"]),
    ("synth", ["--spacing", "1e-6", "--length", "1"]),
    ("synth", ["--frame-step", "1e-12", "--length", "1"]),
    ("synth", ["--frame-step", "1e-7", "--length", "1"]),
    ("render", ["--frame", "3", "--intrinsics", "VAST_INTRINSICS"]),
    ("render", ["--frame", "3", "--levels", "0,99999999999"]),
    ("render", ["--pose", "1 0 0 1e200 0 1 0 0 0 0 1 0"]),
    ("render", ["--frame", "3", "--intrinsics", "MAP"]),
    ("build-graph", ["--poses", "MAP"]),
    ("render", ["--frame", "3", "--map", "SCENE"]),
    ("build-graph", ["--poses", "SCENE"]),
    ("render", ["--frame", "3", "--map", "UNDER_MAP"]),
    *[("render", ["--frame", "3", "--graph", f"GRAPH_{defect}"]) for defect in GRAPH_DEFECTS],
    ("bench", ["--scene", "OVERFLOW_SURFACES_SCENE"]),
    ("synth", ["--frame-step", "3", "--length", "1"]),
    ("synth", ["--width", "0"]),
], ids=["pose-token", "background-nan", "reference-negative-size", "every-zero", "every-negative",
        "strategy-text", "strategy-nan", "strategy-fractional-window", "strategy-extra-field",
        "strategy-fullmap-param", "bench-n-zero", "images-size", "synth-length-nan",
        "synth-clearance-nan", "synth-clearance-negative", "synth-length-overflow", "synth-spacing-tiny",
        "synth-frame-count-overflow", "intrinsics-image-too-large", "synth-samples-beyond-memory",
        "synth-poses-beyond-memory", "synth-scans-beyond-memory",
        "intrinsics-image-beyond-memory", "levels-huge", "pose-distance-overflow",
        "intrinsics-binary", "poses-binary", "map-directory", "poses-directory", "map-under-file",
        *[f"graph-{defect}" for defect in GRAPH_DEFECTS], "surfaces-derived-overflow", "synth-no-pose",
        "synth-width-zero"])
def test_malformed_input_usage_error(built, tmp_path, command, extra):
    scene_dir, map_path, graph_path = built
    negative = tmp_path / "neg.ppm"
    negative.write_bytes(b"P6\n-2 -2\n255\n" + bytes(12))
    small_images = tmp_path / "small_images"
    small_images.mkdir()
    (small_images / "000003.ppm").write_bytes(b"P6\n8 8\n255\n" + bytes(8 * 8 * 3))
    huge = tmp_path / "huge.txt"
    huge.write_text("64 64 32 16 1000000000000 1000000000000\n")
    vast = tmp_path / "vast.txt"  # fits an array, not any machine's memory
    vast.write_text("64 64 32 16 10000000 10000000\n")
    names = {"NEGATIVE_PPM": negative, "MAP": map_path, "UNDER_MAP": map_path / "x", "SCENE": scene_dir,
             "SMALL_IMAGES": small_images, "HUGE_INTRINSICS": huge, "VAST_INTRINSICS": vast}
    for defect in GRAPH_DEFECTS:
        names[f"GRAPH_{defect}"] = tmp_path / f"{defect}.grf"
        names[f"GRAPH_{defect}"].write_bytes(corrupt_graph(graph_path.read_bytes(), defect))
    if "OVERFLOW_SURFACES_SCENE" in extra:  # a finite field whose edge products overflow float64
        names["OVERFLOW_SURFACES_SCENE"] = tmp_path / "overflow"
        shutil.copytree(scene_dir, tmp_path / "overflow", ignore=shutil.ignore_patterns("images"))
        lines = (scene_dir / "surfaces.txt").read_text().splitlines()
        fields = lines[1].split()
        lines[1] = " ".join([*fields[:3], "1e308", *fields[4:]])  # the first edge's x
        (tmp_path / "overflow" / "surfaces.txt").write_text("\n".join(lines) + "\n")
    extra = [str(names.get(x, x)) for x in extra]
    base = {
        "render": ["--map", str(map_path), "--graph", str(graph_path),
                   "--intrinsics", str(scene_dir / "intrinsics.txt"), "--out", str(tmp_path / "v.ppm")],
        "build-graph": ["--map", str(map_path), "--poses", str(scene_dir / "poses.txt"),
                        "--out", str(tmp_path / "g.grf")],
        "build-map": ["--scans", str(scene_dir / "scans"), "--poses", str(scene_dir / "poses.txt"),
                      "--intrinsics", str(scene_dir / "intrinsics.txt"), "--out", str(tmp_path / "m.map")],
        "bench": ["--scene", str(scene_dir), "--out", str(tmp_path / "r.csv")],
        "synth": ["--out", str(tmp_path / "scene")],
    }[command]
    assert main([command, *base, *extra]) == 2


# A wall moved 1e306 along z is a valid surface that no view's ray reaches:
# the oracle's solve overflows on it, which is a miss, so `bench` exits 0
# and scores every view as if the wall were not there.
def test_far_surface_scores_as_absent(scene_dir, tmp_path):
    lines = (scene_dir / "surfaces.txt").read_text().splitlines()
    fields = lines[1].split()
    far = [lines[0], " ".join([*fields[:2], "1e306", *fields[3:]]), *lines[2:]]
    reports = []
    for name, surfaces in (("far", far), ("absent", [lines[0], *lines[2:]])):
        shutil.copytree(scene_dir, tmp_path / name, ignore=shutil.ignore_patterns("images"))
        (tmp_path / name / "surfaces.txt").write_text("\n".join(surfaces) + "\n")
        assert main(["bench", "--scene", str(tmp_path / name), "--strategies", "fullmap",
                     "--out", str(tmp_path / f"{name}.csv")]) == 0
        reports.append([r[:6] for r in map(astuple, read_report_csv(tmp_path / f"{name}.csv").rows)])
    assert reports[0] == reports[1]


# An output that cannot be written (here a full device) is an OSError: exit 2.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["render", "bench"])
def test_output_write_error_usage_error(built, command):
    scene_dir, map_path, graph_path = built
    args = {
        "render": ["--map", str(map_path), "--graph", str(graph_path),
                   "--intrinsics", str(scene_dir / "intrinsics.txt"), "--frame", "3"],
        "bench": ["--scene", str(scene_dir), "--strategies", "connectivity"],
    }[command]
    assert main([command, *args, "--out", "/dev/full"]) == 2
