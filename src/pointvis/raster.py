"""Point rasterization into single-level feature images and the
multi-resolution pyramid (levels t store an H/2^t x W/2^t x C image
under z-buffer semantics). Level 0 is the visible set, the one z-buffer
of the view; level t reads the level-0 pixel (u, v) at bin
(u >> t, v >> t).
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .connectivity import VisibleSet, prune_visible
from .errors import DomainError, FormatError
from .geom import Intrinsics, Pose, scale_intrinsics
from .ingest import PointCloudMap
from .zbuffer import reduce_bins

RASTER_MAGIC = b"CENPBG-RAS\x00"
RASTER_VERSION = 1

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
            idx, ui, vi, depth = reduce_bins(idx[keep], ui[keep], vi[keep], depth[keep], Kt.width, Kt.height)
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


def save_raster(path, image: RasterImage) -> None:
    h, w, c = image.features.shape
    with open(path, "wb") as f:
        f.write(RASTER_MAGIC)
        f.write(struct.pack("<HHIIH", RASTER_VERSION, image.level, h, w, c))
        f.write(np.packbits(image.mask.reshape(-1)).tobytes())
        f.write(image.depth.astype("<f4").tobytes())
        f.write(image.features.astype("<f4").tobytes())


def load_raster(path) -> RasterImage:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[: len(RASTER_MAGIC)] != RASTER_MAGIC:
        raise FormatError(f"{path}: bad magic, not a raster dump")
    off = len(RASTER_MAGIC)
    try:
        version, level, h, w, c = struct.unpack_from("<HHIIH", raw, off)
    except struct.error as e:
        raise FormatError(f"{path}: truncated header ({e})") from e
    if version != RASTER_VERSION:
        raise FormatError(f"{path}: unsupported raster version {version}")
    off += struct.calcsize("<HHIIH")
    npix = h * w
    mask_bytes = (npix + 7) // 8
    expected = off + mask_bytes + npix * 4 + npix * c * 4
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, got {len(raw)}")
    mask = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8, count=mask_bytes, offset=off), count=npix
    ).astype(bool).reshape(h, w)
    off += mask_bytes
    with np.errstate(invalid="ignore"):  # a signalling NaN in the file widens to a quiet NaN
        depth = np.frombuffer(raw, dtype="<f4", count=npix, offset=off).astype(np.float64).reshape(h, w)
        off += npix * 4
        features = (
            np.frombuffer(raw, dtype="<f4", count=npix * c, offset=off)
            .astype(np.float64)
            .reshape(h, w, c)
        )
    set_depth = depth[mask]
    if not np.all(np.isfinite(set_depth) & (set_depth > 0)):
        raise FormatError(f"{path}: a set pixel has a depth that is not finite and positive")
    return RasterImage(level, features, depth, mask)
