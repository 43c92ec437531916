#!/usr/bin/env bash
# Runs the same CLI pipeline from a base tree's src/ and from this tree's,
# and fails unless the files they write are byte-identical.
#
#   scripts/compare_cli_outputs.sh BASE_TREE [WORK_DIR]
#
# BASE_TREE is a checkout of the commit to compare with (for example a
# `git archive` of it, unpacked). Outputs go to WORK_DIR/cli-base and
# WORK_DIR/cli-head (default: a new temporary directory). Exit 0 when every
# output matches, 1 otherwise.
#
# A small synth -> build-map -> build-graph -> render pipeline runs in each
# tree, and the map, graph and views are compared with cmp. A map is also
# built from a copy of the small scene with frame 3's image removed: the map
# is colored one scan at a time, so that scan's rows keep NaN colors and the
# others are colored as in the first map. The second view
# renders a pyramid with level gaps on a gray background. The third views
# from a pose halfway between frames 4 and 5 (z = 9), so `nearest_frame`
# runs on the loaded graph and breaks a tie. The fourth views from frame 4's
# line of poses.txt, its id dropped, as `--pose`, and must equal the
# `--frame 4` view in each tree; one more `--frame 4` render scores itself
# against the painter's image of frame 4 with `--reference`, and only its
# `psnr=... ssim=...` line is compared (the line before it names each
# tree's own output path). The fifth and sixth view from the first
# frame (0) and the last frame id in poses.txt, whose windows are clamped at
# the map's first and last scans: the z-buffer's row range starts at row 0
# and ends at row N. The map above has 17k rows, less than one z-buffer
# block of 2^15 rows, so a second scene at spacing 0.1 (434k rows, 14
# blocks) is rendered from frame 0, frame 4 and the last frame: their
# windows cross block boundaries and start at row 0, mid-block in a float32
# file, and mid-block again. Each render is its process's first prune of
# the map, so it builds and tests no block box (the tests and bench's
# fullmap below cover built and culled boxes). That map file is 10.4 MB,
# above `ingest._SPLIT_BYTES` (4 MB), so build-graph and these renders read
# it, and check its positions, in two halves, the second on a helper thread
# started for the split; the small map is read in one call. `bench` scores five
# strategies, two of which (depth, radius) prune candidates gathered outside
# any window, and then connectivity, fullmap, depth and radius on the
# 14-block scene. There fullmap's row range builds every block's box on its
# second query and culls from then on, and depth:10 passes index arrays of
# 41k-225k rows, which the z-buffer bins in 2-7 blocks each. A copy of the
# small scene without images/ and surfaces.txt, the scene reader's two
# optional parts, is benched too: its map has no colors and its leak columns
# are nan. The CSVs are compared on columns 1-6, since columns 7-8 are
# timings. Last, `synth --out --images` with no other option writes the
# scene of every default scene option, and a small scene with two occluders
# and `--occluder-clearance 4` clears the ground and walls behind each: the
# one path on which `make_canyon` drops samples and cuts its sample arrays
# short. The two trees' scene directories (the small scene, the dense one,
# the default one and the cleared one) are compared file by file: scans,
# poses, intrinsics, surfaces and the painter's images/, whose bits would
# otherwise be compared only through the map's colors.
set -euo pipefail
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BASE_TREE [WORK_DIR]" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
work=${2:-$(mktemp -d)}
status=0
for tree in base head; do
  root=$([ $tree = base ] && echo "$base" || echo "$head")
  out="$work/cli-$tree"
  pv() { PYTHONPATH="$root/src" python3 -m pointvis.cli "$@"; }
  pv synth --out "$out/scene" --images --length 24 --spacing 0.5 --lidar-range 9 \
    --frame-step 2 --occluders 1 --seed 4 --width 64 --height 32
  pv build-map --scans "$out/scene/scans" --poses "$out/scene/poses.txt" \
    --images "$out/scene/images" --intrinsics "$out/scene/intrinsics.txt" --out "$out/map.bin"
  cp -r "$out/scene" "$out/partial"
  rm "$out/partial/images/000003.ppm"
  pv build-map --scans "$out/partial/scans" --poses "$out/partial/poses.txt" \
    --images "$out/partial/images" --intrinsics "$out/partial/intrinsics.txt" --out "$out/partial-map.bin"
  pv build-graph --map "$out/map.bin" --poses "$out/scene/poses.txt" --n 3 --out "$out/graph.bin"
  pv render --map "$out/map.bin" --graph "$out/graph.bin" \
    --intrinsics "$out/scene/intrinsics.txt" --frame 4 --out "$out/view.ppm"
  pv render --map "$out/map.bin" --graph "$out/graph.bin" \
    --intrinsics "$out/scene/intrinsics.txt" --frame 4 --levels 0,2,5 --background 0.2 \
    --out "$out/view-gaps.ppm"
  pv render --map "$out/map.bin" --graph "$out/graph.bin" \
    --intrinsics "$out/scene/intrinsics.txt" --pose "1 0 0 0.5 0 1 0 0 0 0 1 9" \
    --out "$out/view-pose.ppm"
  pose4=$(awk '$1 == 4 {$1 = ""; print}' "$out/scene/poses.txt")
  pv render --map "$out/map.bin" --graph "$out/graph.bin" \
    --intrinsics "$out/scene/intrinsics.txt" --pose "$pose4" --out "$out/view-pose4.ppm"
  pv render --map "$out/map.bin" --graph "$out/graph.bin" \
    --intrinsics "$out/scene/intrinsics.txt" --frame 4 --reference "$out/scene/images/000004.ppm" \
    --out "$out/view-scored.ppm" | grep '^psnr=' > "$out/score.txt"
  pv render --map "$out/map.bin" --graph "$out/graph.bin" \
    --intrinsics "$out/scene/intrinsics.txt" --frame 0 --out "$out/view-first.ppm"
  last=$(awk 'NF {id = $1} END {print id}' "$out/scene/poses.txt")
  pv render --map "$out/map.bin" --graph "$out/graph.bin" \
    --intrinsics "$out/scene/intrinsics.txt" --frame "$last" --out "$out/view-last.ppm"
  if ! cmp "$out/view.ppm" "$out/view-pose4.ppm"; then
    echo "::error::$tree: --pose from frame 4's poses.txt line differs from --frame 4"
    status=1
  fi
  pv synth --out "$out/dense" --images --length 24 --spacing 0.1 --lidar-range 9 \
    --frame-step 2 --occluders 1 --seed 4 --width 64 --height 32
  pv build-map --scans "$out/dense/scans" --poses "$out/dense/poses.txt" \
    --images "$out/dense/images" --intrinsics "$out/dense/intrinsics.txt" --out "$out/dense-map.bin"
  pv build-graph --map "$out/dense-map.bin" --poses "$out/dense/poses.txt" --n 3 --out "$out/dense-graph.bin"
  last=$(awk 'NF {id = $1} END {print id}' "$out/dense/poses.txt")
  for view in first:0 4:4 last:"$last"; do
    pv render --map "$out/dense-map.bin" --graph "$out/dense-graph.bin" \
      --intrinsics "$out/dense/intrinsics.txt" --frame "${view#*:}" --out "$out/dense-view-${view%%:*}.ppm"
  done
  pv bench --scene "$out/scene" --strategies connectivity,window,fullmap,depth:10,radius:6 --n 3 \
    --out "$out/bench.csv"
  cp -r "$out/scene" "$out/bare"
  rm -r "$out/bare/images" "$out/bare/surfaces.txt"
  pv bench --scene "$out/bare" --strategies connectivity,window,fullmap,depth:10,radius:6 --n 3 \
    --out "$out/bare-bench.csv"
  pv bench --scene "$out/dense" --strategies connectivity,fullmap,depth:10,radius:6 --n 3 \
    --out "$out/dense-bench.csv"
  pv synth --out "$out/default" --images
  pv synth --out "$out/cleared" --images --length 24 --spacing 0.5 --lidar-range 9 \
    --frame-step 2 --occluders 2 --occluder-clearance 4 --seed 4 --width 64 --height 32
done
for f in map.bin partial-map.bin graph.bin view.ppm view-gaps.ppm view-pose.ppm view-pose4.ppm score.txt view-first.ppm \
  view-last.ppm dense-view-first.ppm dense-view-4.ppm dense-view-last.ppm; do
  if ! cmp "$work/cli-base/$f" "$work/cli-head/$f"; then
    echo "::error::CLI output $f differs from the base commit"
    status=1
  fi
done
for f in "$work"/cli-base/bench_*.csv "$work"/cli-base/bare-bench_*.csv \
  "$work"/cli-base/dense-bench_*.csv; do
  b=$(basename "$f")
  if ! cmp <(cut -d, -f1-6 "$f") <(cut -d, -f1-6 "$work/cli-head/$b"); then
    echo "::error::CLI output $b differs from the base commit in columns 1-6"
    status=1
  fi
done
for d in scene dense default cleared; do
  if ! diff -r --brief "$work/cli-base/$d" "$work/cli-head/$d"; then
    echo "::error::the synth scene directory $d differs from the base commit"
    status=1
  fi
done
exit $status
