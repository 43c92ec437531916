"""Point-cloud visibility estimation and multi-resolution rasterization
for forward-moving LiDAR + camera sequences."""

from .errors import DomainError, FormatError
from .geom import CamPoint, Intrinsics, Pose, project, scale_intrinsics, world_to_camera
from .ingest import PointCloudMap, Scan, Sequence, accumulate, split_train_test
from .connectivity import (
    ConnectivityGraph,
    VisibleSet,
    build_graph,
    nearest_frame,
    prune_visible,
    window_rows,
)
from .raster import Channels, RasterImage, RasterPyramid, occupancy, rasterize, rasterize_pyramid
from .render import psnr, render_rgb, ssim
from .losses import ScaleScores, discriminator_adv_loss, downscale_reference, generator_adv_loss
from .synth import CanyonParams, Rect3, SyntheticScene, make_canyon, oracle_visible, ray_rect_intersect
from .bench import Strategy, StrategyReport, run_strategy, subset_ratio, timing_summary

__all__ = [
    "DomainError", "FormatError",
    "Pose", "Intrinsics", "CamPoint", "world_to_camera", "project", "scale_intrinsics",
    "Scan", "PointCloudMap", "Sequence", "accumulate", "split_train_test",
    "ConnectivityGraph", "VisibleSet", "build_graph", "nearest_frame",
    "window_rows", "prune_visible",
    "RasterImage", "RasterPyramid", "Channels", "rasterize", "rasterize_pyramid", "occupancy",
    "render_rgb", "psnr", "ssim",
    "ScaleScores", "generator_adv_loss", "discriminator_adv_loss", "downscale_reference",
    "Rect3", "SyntheticScene", "CanyonParams", "make_canyon", "ray_rect_intersect", "oracle_visible",
    "Strategy", "StrategyReport", "run_strategy", "subset_ratio", "timing_summary",
]
