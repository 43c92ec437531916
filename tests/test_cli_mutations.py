"""A standing mutation property of the CLI: one malformed field or byte in
any input file of `bench`, `render`, `build-map` or `build-graph` ends in
exit 0 or 2, never in exit 1 or a RuntimeWarning."""
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
OFFSETS = st.one_of(st.integers(0, 63), st.integers(0, 1 << 20))
# (file, line, field, new text): line and field are taken modulo the file's
FIELD = (st.integers(0, 15), st.integers(0, 15), FIELD_VALUES)
# (file, offset, new byte): the offset is taken modulo the file's size; half land in the header
BYTE = (OFFSETS, st.integers(0, 255))
# `bench` reads the text files, `render` the map and the graph
MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(TEXT_FILES), *FIELD),
    st.tuples(st.sampled_from(["map", "graph"]), *BYTE),
)
# `build-map` reads poses.txt and the scans, `build-graph` the map; ("scans", scan,
# offset, new byte) mutates scan 0-11, and a byte of None cuts the file at the offset
BUILD_MUTATIONS = st.one_of(
    st.tuples(st.just("poses.txt"), *FIELD),
    st.tuples(st.just("scans"), st.integers(0, 11), OFFSETS, st.one_of(st.integers(0, 255), st.none())),
    st.tuples(st.just("map"), *BYTE),
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


def _mutate_text(src: Path, dst: Path, line, field, value) -> None:
    lines = src.read_text().splitlines()
    fields = lines[line % len(lines)].split()
    fields[field % len(fields)] = value
    lines[line % len(lines)] = " ".join(fields)
    dst.write_text("\n".join(lines) + "\n")


def _mutate_bytes(src: Path, dst: Path, offset, byte) -> None:
    """`src` with its byte at `offset` (modulo its size) set to `byte`, or cut there when `byte` is None."""
    raw = bytearray(src.read_bytes())
    if byte is None:
        del raw[offset % len(raw) :]
    else:
        raw[offset % len(raw)] = byte
    dst.write_bytes(bytes(raw))


def _mutated_run(work, mutation, out_dir) -> list[str]:
    """The `pointvis bench` or `render` arguments that read the scene with
    one input mutated as `mutation` says, the mutated copy written under
    `out_dir`."""
    name, *how = mutation
    if name in TEXT_FILES:  # `bench` reads the scene's three text files; its scans are linked
        scene = out_dir / "scene"
        scene.mkdir()
        os.symlink(work / "scene" / "scans", scene / "scans")
        for text in TEXT_FILES:
            if text == name:
                _mutate_text(work / "scene" / text, scene / text, *how)
            else:
                os.symlink(work / "scene" / text, scene / text)
        return ["bench", "--scene", str(scene), "--every", "3", "--out", str(out_dir / "r.csv")]
    _mutate_bytes(work / f"{name}.bin", out_dir / f"{name}.bin", *how)
    files = {"map": work / "map.bin", "graph": work / "graph.bin", name: out_dir / f"{name}.bin"}
    return ["render", "--map", str(files["map"]), "--graph", str(files["graph"]),
            "--intrinsics", str(work / "scene" / "intrinsics.txt"), "--frame", "4", "--out", str(out_dir / "v.ppm")]


def _mutated_build(work, mutation, out_dir) -> list[str]:
    """The `pointvis build-map` or `build-graph` arguments that read the
    scene with one input mutated as `mutation` says, as `_mutated_run`."""
    name, *how = mutation
    if name == "map":
        _mutate_bytes(work / "map.bin", out_dir / "map.bin", *how)
        return ["build-graph", "--map", str(out_dir / "map.bin"), "--poses", str(work / "scene" / "poses.txt"),
                "--n", "3", "--out", str(out_dir / "graph.bin")]
    scans, poses = work / "scene" / "scans", work / "scene" / "poses.txt"
    if name == "poses.txt":
        poses = out_dir / name
        _mutate_text(work / "scene" / name, poses, *how)
    else:  # one scan mutated, the others linked
        index, *how = how
        originals = sorted(scans.iterdir())
        scans = out_dir / "scans"
        scans.mkdir()
        for i, path in enumerate(originals):
            if i == index % len(originals):
                _mutate_bytes(path, scans / path.name, *how)
            else:
                os.symlink(path, scans / path.name)
    return ["build-map", "--scans", str(scans), "--poses", str(poses), "--out", str(out_dir / "map.bin")]


def _exits_0_or_2(work, mutated_args, mutation) -> None:
    with tempfile.TemporaryDirectory(dir=work) as out_dir:
        args = mutated_args(work, mutation, Path(out_dir))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(args)
    assert code in (0, 2), (mutation, code)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(mutation=MUTATIONS)
@example(mutation=("surfaces.txt", 0, 6, "1e50"))  # the ground sheared: its second edge is (1e50, 0, 24)
@example(mutation=("surfaces.txt", 1, 3, "1e308"))  # a wall's normal overflows
@example(mutation=("intrinsics.txt", 0, 2, "1e308"))  # cx: the z-buffer's culling bound overflowed
@example(mutation=("poses.txt", 0, 4, "1.7976931348623157e+308"))  # frame 0's x: the oracle's t overflowed
def test_one_mutation_exits_0_or_2(ci_scene, mutation):
    _exits_0_or_2(ci_scene, _mutated_run, mutation)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(mutation=BUILD_MUTATIONS)
@example(mutation=("scans", 3, 100, None))  # scan 3 cut inside its seventh point
def test_one_build_input_mutation_exits_0_or_2(ci_scene, mutation):
    _exits_0_or_2(ci_scene, _mutated_build, mutation)
