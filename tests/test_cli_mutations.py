"""A standing mutation property of the CLI: one malformed field or byte in
any input file ends in exit 0 or 2, never in exit 1 or a RuntimeWarning."""
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pointvis.cli import main

# the small scene of `scripts/compare_cli_outputs.sh`, without images: 12 frames, 5 surfaces, 17k map rows
CI_SCENE_ARGS = ["--length", "24", "--spacing", "0.5", "--lidar-range", "9", "--frame-step", "2",
                 "--occluders", "1", "--seed", "4", "--width", "64", "--height", "32"]
TEXT_FILES = ("surfaces.txt", "poses.txt", "intrinsics.txt")
FIELD_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e306", "-1e304", "1e120", "1e50", "1e-300",
                     "0", "-0", "-1", "2.5", "1e400", "18446744073709551616", "abc", ""]),
    st.floats().map(repr),
)
MUTATIONS = st.one_of(
    # (file, line, field, new text): line and field are taken modulo the file's
    st.tuples(st.sampled_from(TEXT_FILES), st.integers(0, 15), st.integers(0, 15), FIELD_VALUES),
    # (file, offset, new byte): the offset is taken modulo the file's size; half land in the header
    st.tuples(st.sampled_from(["map", "graph"]), st.one_of(st.integers(0, 63), st.integers(0, 1 << 20)),
              st.integers(0, 255)),
)


@pytest.fixture(scope="session")
def ci_scene(tmp_path_factory):
    work = tmp_path_factory.mktemp("mutations")
    scene = work / "scene"
    assert main(["synth", "--out", str(scene), *CI_SCENE_ARGS]) == 0
    assert main(["build-map", "--scans", str(scene / "scans"), "--poses", str(scene / "poses.txt"),
                 "--out", str(work / "map.bin")]) == 0
    assert main(["build-graph", "--map", str(work / "map.bin"), "--poses", str(scene / "poses.txt"),
                 "--n", "3", "--out", str(work / "graph.bin")]) == 0
    return work


def _mutated_run(work, mutation, out_dir) -> list[str]:
    """The `pointvis` arguments that read the scene with one input mutated
    as `mutation` says, the mutated copy written under `out_dir`."""
    name, *how = mutation
    if name in TEXT_FILES:  # `bench` reads the scene's three text files; its scans are linked
        line, field, value = how
        lines = (work / "scene" / name).read_text().splitlines()
        fields = lines[line % len(lines)].split()
        fields[field % len(fields)] = value
        lines[line % len(lines)] = " ".join(fields)
        scene = out_dir / "scene"
        scene.mkdir()
        os.symlink(work / "scene" / "scans", scene / "scans")
        for text in TEXT_FILES:
            (scene / text).write_text("\n".join(lines) + "\n" if text == name else (work / "scene" / text).read_text())
        return ["bench", "--scene", str(scene), "--every", "3", "--out", str(out_dir / "r.csv")]
    offset, byte = how
    raw = bytearray((work / f"{name}.bin").read_bytes())
    raw[offset % len(raw)] = byte
    (out_dir / f"{name}.bin").write_bytes(bytes(raw))
    files = {"map": work / "map.bin", "graph": work / "graph.bin", name: out_dir / f"{name}.bin"}
    return ["render", "--map", str(files["map"]), "--graph", str(files["graph"]),
            "--intrinsics", str(work / "scene" / "intrinsics.txt"), "--frame", "4", "--out", str(out_dir / "v.ppm")]


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(mutation=MUTATIONS)
@example(mutation=("surfaces.txt", 0, 6, "1e50"))  # the ground sheared: its second edge is (1e50, 0, 24)
@example(mutation=("surfaces.txt", 1, 3, "1e308"))  # a wall's normal overflows
@example(mutation=("intrinsics.txt", 0, 2, "1e308"))  # cx: the z-buffer's culling bound overflowed
@example(mutation=("poses.txt", 0, 4, "1.7976931348623157e+308"))  # frame 0's x: the oracle's t overflowed
def test_one_mutation_exits_0_or_2(ci_scene, mutation):
    with tempfile.TemporaryDirectory(dir=ci_scene) as out_dir:
        args = _mutated_run(ci_scene, mutation, Path(out_dir))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(args)
    assert code in (0, 2), (mutation, code)
