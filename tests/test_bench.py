from unittest import mock

import numpy as np
import pytest

from pointvis import bench, zbuffer
from pointvis.bench import (
    CSV_HEADER,
    Strategy,
    StrategyReport,
    ViewStats,
    read_report_csv,
    run_strategy,
    subset_ratio,
    timing_summary,
    write_report_csv,
)
from pointvis.connectivity import prune_visible
from pointvis.errors import DomainError, FormatError
from pointvis.ingest import PointCloudMap, Sequence
from pointvis.synth import CanyonParams, make_canyon, oracle_visible_many, scene_sequence

from conftest import uniform_sequence


@pytest.fixture(scope="module")
def occluded_canyon():
    params = CanyonParams(
        length=120.0, wall_gap=8.0, point_spacing=0.3, lidar_range=15.0,
        frame_step=1.0, occluders=2, seed=7, occluder_clearance=30.0,
        image_width=256, image_height=128, focal=128.0,
    )
    scene = make_canyon(params)
    return scene, scene_sequence(scene)


class TestStrategy:
    def test_parse(self):
        assert Strategy.parse("fullmap") == Strategy("fullmap")
        assert Strategy.parse("depth:60") == Strategy("depth", 60.0)
        assert Strategy.parse("radius:30") == Strategy("radius", 30.0)
        assert Strategy.parse("connectivity:5") == Strategy("connectivity", 5)
        assert Strategy.parse("window:4") == Strategy("window", 4)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            Strategy.parse("magic")

    def test_missing_param(self):
        with pytest.raises(DomainError):
            Strategy("depth")

    @pytest.mark.parametrize("text", ["depth:10:junk", "window:3:", "fullmap:7", "fullmap:", "connectivity"])
    def test_malformed_text(self, text):
        with pytest.raises(DomainError):
            Strategy.parse(text)


class TestRunStrategy:
    def test_zero_occluders_no_leak(self):
        params = CanyonParams(
            length=30.0, wall_gap=6.0, point_spacing=0.5, lidar_range=10.0,
            frame_step=2.0, occluders=0, seed=3, close_end=False,
            image_width=64, image_height=32, focal=32.0,
        )
        scene = make_canyon(params)
        seq = scene_sequence(scene)
        queries = scene.trajectory[::3]
        for strat in (Strategy("fullmap"), Strategy("connectivity", 5), Strategy("depth", 15.0)):
            rep = run_strategy(strat, seq, queries, surfaces=scene.surfaces)
            assert all(r.leak == 0.0 for r in rep.rows if not np.isnan(r.leak))

    def test_connectivity_retrieves_subset_of_fullmap(self, occluded_canyon):
        scene, seq = occluded_canyon
        queries = scene.trajectory[::20]
        conn = run_strategy(Strategy("connectivity", 5), seq, queries)
        full = run_strategy(Strategy("fullmap"), seq, queries)
        for c, f in zip(conn.rows, full.rows):
            assert c.retrieved <= f.retrieved
            assert f.retrieved == len(seq.map)

    def test_fullmap_prunes_the_map_as_a_culled_row_range(self):
        """`fullmap` hands the z-buffer the map's row range, so the map's
        block boxes are built whole on the second query and cull from then on;
        each view equals the same prune given every row as an index array."""
        params = CanyonParams(
            length=30.0, wall_gap=6.0, point_spacing=0.5, lidar_range=10.0,
            frame_step=2.0, occluders=1, seed=3, image_width=64, image_height=32, focal=32.0,
        )
        scene = make_canyon(params)
        seq = scene_sequence(scene)
        cloud = seq.map
        queries = scene.trajectory[::4]
        seen = []

        def record(cand, *args, **kwargs):
            seen.append((cand, prune_visible(cand, *args, **kwargs)))
            return seen[-1][1]

        with mock.patch.object(zbuffer, "_BLOCK", 512), mock.patch.object(bench, "prune_visible", record):
            rep = run_strategy(Strategy("fullmap"), seq, queries)
            assert cloud.boxes.block == 512 and cloud.boxes.table is not None
            for query, row, (cand, vis) in zip(queries, rep.rows, seen, strict=True):
                assert cand == range(len(cloud)) and row.retrieved == len(cloud)
                want = prune_visible(np.arange(len(cloud)), cloud, query, seq.intrinsics)
                for a, b in [(vis.point_indices, want.point_indices), (vis.pixel_of, want.pixel_of),
                             (vis.depth_of, want.depth_of)]:
                    np.testing.assert_array_equal(a, b, strict=True)

    def test_fullmap_leaks_more_on_occluded_views(self, occluded_canyon):
        scene, seq = occluded_canyon
        # views where a cross-corridor occluder is ahead and inside the image
        occ_z = [s.origin[2] for s in scene.surfaces[4:]]
        queries = [
            p for p in scene.trajectory
            if any(2.0 < z - p.translation[2] < 20.0 for z in occ_z)
        ][::4]
        assert queries
        full = run_strategy(Strategy("fullmap"), seq, queries, surfaces=scene.surfaces,
                            oracle_visible_counts=[1] * len(queries))
        conn = run_strategy(Strategy("connectivity", 5), seq, queries,
                            surfaces=scene.surfaces, oracle_visible_counts=[1] * len(queries))
        for f, c in zip(full.rows, conn.rows):
            assert f.leak > c.leak

    def test_precision_plus_leak_is_one(self, occluded_canyon):
        scene, seq = occluded_canyon
        queries = scene.trajectory[10:12]
        rep = run_strategy(Strategy("fullmap"), seq, queries, surfaces=scene.surfaces,
                           oracle_visible_counts=[1, 1])
        for r in rep.rows:
            assert abs(r.precision + r.leak - 1.0) <= 1e-12

    def test_connectivity_winners_within_sliding_window(self, occluded_canyon):
        scene, seq = occluded_canyon
        queries = scene.trajectory[30:31]
        conn = run_strategy(Strategy("connectivity", 5), seq, queries)
        wind = run_strategy(Strategy("window", 5), seq, queries)
        assert conn.rows[0].retrieved <= wind.rows[0].retrieved

    def test_recall_uses_oracle_denominator(self, occluded_canyon):
        scene, seq = occluded_canyon
        query = scene.trajectory[20]
        denom = int(np.count_nonzero(
            oracle_visible_many(seq.map.positions, query, seq.intrinsics, scene.surfaces)
        ))
        rep = run_strategy(Strategy("connectivity", 5), seq, [query],
                           surfaces=scene.surfaces, oracle_visible_counts=[denom])
        r = rep.rows[0]
        assert 0.0 < r.recall <= 1.0


class TestSubsetRatio:
    def test_large_scale_reference(self):
        rows = [ViewStats(0, 720_000, 0, 0.0, 1.0, 1.0, 0.0, 0.0)]
        rep = StrategyReport("connectivity:5", 19_403_162, rows)
        assert abs(subset_ratio(rep) - 0.0371) <= 0.0005

    def test_uniform_sequence_matches_window_fraction(self):
        seq = uniform_sequence(300, 200, seed=13)
        queries = [p for _, p in seq.frames]
        rep = run_strategy(Strategy("connectivity", 5), seq, queries)
        expected = 16.0 / 300.0
        assert abs(subset_ratio(rep) - expected) / expected <= 0.10

    def test_fullmap_is_one(self):
        seq = uniform_sequence(20, 50, seed=14)
        rep = run_strategy(Strategy("fullmap"), seq, [seq.frames[3][1]])
        assert subset_ratio(rep) == 1.0


class TestTimingSummary:
    def test_single_view_fps(self):
        rows = [ViewStats(0, 10, 5, 0.0, 1.0, 1.0, 0.02, 0.03)]
        rep = StrategyReport("fullmap", 10, rows)
        t = timing_summary(rep)
        assert abs(t["fps"] - 1.0 / 0.05) <= 1e-9

    def test_zero_point_map(self):
        cloud = PointCloudMap(np.zeros((0, 3)), [])
        seq = uniform_sequence(5, 10, seed=15)
        seq = Sequence(seq.frames, seq.intrinsics, cloud)
        rep = run_strategy(Strategy("fullmap"), seq, [seq.frames[0][1]])
        t = timing_summary(rep)
        assert rep.rows[0].visible == 0
        assert t["fps"] > 0

    def test_empty_report_rejected(self):
        with pytest.raises(DomainError):
            timing_summary(StrategyReport("fullmap", 10, []))


class TestReportSerialization:
    def test_round_trip(self, tmp_path):
        rows = [
            ViewStats(3, 100, 40, 0.125, 0.875, 0.5, 0.001953125, 0.0078125),
            ViewStats(7, 90, 30, float("nan"), float("nan"), float("nan"), 0.25, 0.5),
        ]
        rep = StrategyReport("connectivity:5", 1000, rows)
        path = tmp_path / "r.csv"
        write_report_csv(path, rep)
        back = read_report_csv(path, strategy=rep.strategy, map_size=rep.map_size)
        for a, b in zip(back.rows, rows):
            for f in ("frame_id", "retrieved", "visible", "prune_s", "raster_s"):
                assert getattr(a, f) == getattr(b, f)
            for f in ("leak", "precision", "recall"):
                va, vb = getattr(a, f), getattr(b, f)
                assert (np.isnan(va) and np.isnan(vb)) or va == vb

    def test_header_exact(self, tmp_path):
        rep = StrategyReport("fullmap", 10, [])
        path = tmp_path / "h.csv"
        write_report_csv(path, rep)
        first = path.read_text().splitlines()[0]
        assert first == "frame_id,retrieved,visible,leak,precision,recall,prune_s,raster_s"

    @pytest.mark.parametrize("row", ["x,5,3,0.0,1.0,0.5,0.1,0.1", "0,5,3,0.0,1.0,half,0.1,0.1"])
    def test_non_numeric_field_names_line(self, tmp_path, row):
        path = tmp_path / "r.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0,5,3,0.0,1.0,0.5,0.1,0.1\n" + row + "\n")
        with pytest.raises(FormatError, match="r.csv:3: non-numeric field"):
            read_report_csv(path)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes((",".join(CSV_HEADER) + "\n0,5,3,0.0,1.0,0.5,0.1,").encode() + b"\xff\n")
        with pytest.raises(FormatError, match="r.csv: not UTF-8"):
            read_report_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(FormatError):
            read_report_csv(path)
