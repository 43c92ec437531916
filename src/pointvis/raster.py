"""Point rasterization into single-level feature images and the
multi-resolution pyramid (levels t store an H/2^t x W/2^t x C image
under z-buffer semantics). Level 0 is the visible set, the one z-buffer
of the view; level t reads the level-0 pixel (u, v) at bin
(u >> t, v >> t). Raster dumps go through `ingest.read_binary`.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .connectivity import VisibleSet, prune_visible
from .errors import DomainError, FormatError
from .geom import Intrinsics, Pose, scale_intrinsics
from .ingest import PointCloudMap, read_binary, write_binary
from .zbuffer import reduce_bins

RASTER_MAGIC = b"CENPBG-RAS\x00"
RASTER_VERSION = 1
_RASTER_HEADER = struct.Struct("<HHIIH")  # version, level, h, w, C

DEFAULT_LEVELS = (0, 1, 2, 3, 4, 5)  # 1..5 are the pyramid proper; 0 feeds the renderer


class Channels(Enum):
    COLOR = "color"
    DESCRIPTOR = "descriptor"


@dataclass
class RasterImage:
    level: int
    features: np.ndarray  # (h, w, C)
    depth: np.ndarray  # (h, w), +inf where empty
    mask: np.ndarray  # (h, w) bool

    @property
    def channel_count(self) -> int:
        return self.features.shape[2]


@dataclass
class RasterPyramid:
    levels: list[RasterImage]  # strictly increasing in level
    channels: Channels
    source_frame: int = -1

    def level(self, t: int) -> RasterImage:
        for img in self.levels:
            if img.level == t:
                return img
        raise DomainError(f"pyramid has no level {t}")


def _attribute_array(cloud: PointCloudMap, channels: Channels) -> np.ndarray:
    if channels is Channels.COLOR:
        if cloud.colors is None:
            raise DomainError("map has no colors")
        return cloud.colors
    if cloud.descriptors is None:
        raise DomainError("map has no descriptors")
    return cloud.descriptors


def rasterize(
    cloud: PointCloudMap,
    indices,
    pose: Pose,
    K: Intrinsics,
    level: int,
    channels: Channels = Channels.COLOR,
) -> RasterImage:
    """Z-buffer the given points at level-t resolution; each pixel keeps the
    attribute vector of its minimal-depth point (ties to smallest index)."""
    return rasterize_pyramid(cloud, indices, pose, K, (level,), channels).levels[0]


def rasterize_pyramid(
    cloud: PointCloudMap,
    indices,
    pose: Pose,
    K: Intrinsics,
    levels=DEFAULT_LEVELS,
    channels: Channels = Channels.COLOR,
) -> RasterPyramid:
    """Level 0 is the visible set: a `VisibleSet` pruned at this pose and K
    is used as it is, and any other input (an index array, or a set pruned
    elsewhere or built by hand) is pruned here first. Each level t reduces
    the winners of the next finer requested level in bin (u >> t, v >> t).
    Scaling by 2^-t is exact in floating point and the (depth, index)
    minimum is associative, so level t equals the z-buffer at
    `scale_intrinsics(K, t)`."""
    levels = sorted(set(levels))
    if not levels:
        raise DomainError("level set must be non-empty")
    attrs = _attribute_array(cloud, channels)
    vis = indices
    if not isinstance(vis, VisibleSet):
        vis = prune_visible(indices, cloud, pose, K)
    elif vis.pose != pose or vis.K != K:
        vis = prune_visible(vis.point_indices, cloud, pose, K, vis.source_frame)
    idx, ui, vi, depth = vis.point_indices, vis.pixel_of[:, 0], vis.pixel_of[:, 1], vis.depth_of
    images, prev = [], 0
    for t in levels:
        Kt = scale_intrinsics(K, t)
        if t != prev:  # level 0 is already reduced
            ui, vi = ui >> (t - prev), vi >> (t - prev)
            keep = (ui < Kt.width) & (vi < Kt.height)
            block = idx[keep], vi[keep] * Kt.width + ui[keep], depth[keep]
            idx, ui, vi, depth = reduce_bins([block], Kt.width, Kt.height)
        features = np.zeros((Kt.height, Kt.width, attrs.shape[1]))
        depth_img = np.full((Kt.height, Kt.width), np.inf)
        mask = np.zeros((Kt.height, Kt.width), dtype=bool)
        features[vi, ui] = attrs[idx]
        depth_img[vi, ui] = depth
        mask[vi, ui] = True
        images.append(RasterImage(t, features, depth_img, mask))
        prev = t
    return RasterPyramid(images, channels, vis.source_frame)


def occupancy(image: RasterImage) -> float:
    """Fraction of pixels holding a point."""
    return float(np.count_nonzero(image.mask)) / image.mask.size


def _bad_depth(depth: np.ndarray, mask: np.ndarray) -> bool:
    """Whether a set pixel has a depth that is NaN, infinite or not positive."""
    set_depth = depth[mask]
    return not np.all(np.isfinite(set_depth) & (set_depth > 0))


def save_raster(path, image: RasterImage) -> None:
    h, w, c = image.features.shape
    with np.errstate(over="ignore"):  # a depth beyond float32 becomes inf: refused below
        depth = image.depth.astype("<f4")
    if _bad_depth(depth, image.mask):
        raise DomainError("a set pixel has a depth that is not finite and positive in float32")
    arrays = [np.packbits(image.mask.reshape(-1)), depth, image.features.astype("<f4")]
    write_binary(path, RASTER_MAGIC, _RASTER_HEADER, (RASTER_VERSION, image.level, h, w, c), arrays)


def _raster_sizes(fields):
    """Packed mask bits, depth and features of an h x w x C image."""
    _, _, h, w, c = fields
    return [((h * w + 7) // 8, np.uint8), (h * w, "<f4"), (h * w * c, "<f4")]


def load_raster(path) -> RasterImage:
    (_, level, h, w, c), (mask, depth, features) = read_binary(
        path, RASTER_MAGIC, RASTER_VERSION, _RASTER_HEADER, _raster_sizes
    )
    mask = np.unpackbits(mask, count=h * w).astype(bool).reshape(h, w)
    with np.errstate(invalid="ignore"):  # a signalling NaN in the file widens to a quiet NaN
        depth = depth.astype(np.float64).reshape(h, w)
        features = features.astype(np.float64).reshape(h, w, c)
    if _bad_depth(depth, mask):
        raise FormatError(f"{path}: a set pixel has a depth that is not finite and positive")
    return RasterImage(level, features, depth, mask)
