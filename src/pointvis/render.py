"""Deterministic finest-first splat renderer and image-quality metrics.

The renderer walks the pyramid levels from finest to coarsest: a pixel
(u, v) still empty takes the feature of level t when the bin
(u >> t, v >> t) is occupied, and a constant background when no level
has it. Level 0 is the case t = 0.

PSNR and SSIM score a render against a reference. SSIM averages the local
index over every window that fits in the image, with no padding, so even
windows score the same patches as odd ones.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, FormatError
from .raster import Channels, RasterPyramid

DEFAULT_BACKGROUND = 0.5


def render_rgb(pyramid: RasterPyramid, background=DEFAULT_BACKGROUND) -> np.ndarray:
    """Finest-first hole fill of a color pyramid into an (H, W, 3) image."""
    if pyramid.channels is not Channels.COLOR:
        raise DomainError("renderer needs a color pyramid, got descriptors")
    h, w, c = pyramid.level(0).features.shape
    if len(pyramid.levels) < 2:
        raise DomainError("pyramid must contain at least one coarser level")
    if c != 3:
        raise DomainError(f"renderer needs 3 channels, got {c}")
    bg = np.broadcast_to(np.asarray(background, dtype=np.float64), (3,))
    if not np.all(np.isfinite(bg)):
        raise DomainError(f"background must be finite, got {background!r}")
    out = np.empty((h, w, 3))
    v, u = np.indices((h, w)).reshape(2, -1)  # the pixels no level has filled yet
    for img in sorted(pyramid.levels, key=lambda im: im.level):
        bv, bu = v >> img.level, u >> img.level
        hit = (bv < img.mask.shape[0]) & (bu < img.mask.shape[1])
        hit[hit] = img.mask[bv[hit], bu[hit]]
        out[v[hit], u[hit]] = img.features[bv[hit], bu[hit]]
        v, u = v[~hit], u[~hit]
    out[v, u] = bg
    # points without a sampled color carry NaN; show background there
    out[~np.all(np.isfinite(out), axis=2)] = bg
    return np.clip(out, 0.0, 1.0)


def psnr(img: np.ndarray, ref: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB, peak 1.0; +inf for identical images."""
    img = np.asarray(img, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if img.shape != ref.shape:
        raise DomainError(f"image shapes differ: {img.shape} vs {ref.shape}")
    mse = float(np.mean((img - ref) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


def _gaussian_kernel(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    r = np.arange(size) - (size - 1) / 2
    k = np.exp(-(r**2) / (2 * sigma**2))
    return k / k.sum()


def _window_mean(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable Gaussian mean over every window that fits in the image."""
    k = len(kernel)
    return sliding_window_view(sliding_window_view(img, k, axis=0) @ kernel, k, axis=1) @ kernel


def ssim(
    img: np.ndarray,
    ref: np.ndarray,
    window: int = 11,
    sigma: float = 1.5,
    k1: float = 0.01,
    k2: float = 0.03,
    data_range: float = 1.0,
) -> float:
    """Mean local SSIM with a Gaussian window, per channel then averaged.

    The mean runs over every window x window patch that fits in the image.
    """
    if not isinstance(window, (int, np.integer)) or window < 1:
        raise DomainError(f"window must be an integer >= 1, got {window!r}")
    if not 0 < sigma < np.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma!r}")
    if not 0 < data_range < np.inf:
        raise DomainError(f"data_range must be positive and finite, got {data_range!r}")
    img = np.asarray(img, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if img.shape != ref.shape:
        raise DomainError(f"image shapes differ: {img.shape} vs {ref.shape}")
    if img.ndim == 2:
        img = img[:, :, None]
        ref = ref[:, :, None]
    h, w = img.shape[:2]
    if min(h, w) < window:
        raise DomainError(f"image {h}x{w} smaller than the {window}x{window} window")
    kern = _gaussian_kernel(window, sigma)
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    per_channel = []
    for ch in range(img.shape[2]):
        x, y = img[:, :, ch], ref[:, :, ch]
        ux = _window_mean(x, kern)
        uy = _window_mean(y, kern)
        uxx = _window_mean(x * x, kern)
        uyy = _window_mean(y * y, kern)
        uxy = _window_mean(x * y, kern)
        vx = uxx - ux * ux
        vy = uyy - uy * uy
        vxy = uxy - ux * uy
        num = (2 * ux * uy + c1) * (2 * vxy + c2)
        den = (ux * ux + uy * uy + c1) * (vx + vy + c2)
        per_channel.append(np.mean(num / den))
    return float(np.mean(per_channel))


def write_ppm(path, img: np.ndarray) -> None:
    """Binary P6, maxval 255, values rounded half-up."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DomainError("PPM writer needs an (H, W, 3) image")
    h, w = img.shape[:2]
    bytes_img = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(bytes_img.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"P6"):
        raise FormatError(f"{path}: not a binary PPM")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if pos == start:
            raise FormatError(f"{path}: truncated header")
        fields.append(raw[start:pos])
    if not all(x.isdigit() for x in fields):
        raise FormatError(f"{path}: header fields must be unsigned decimal integers, got {fields}")
    w, h, maxval = (int(x) for x in fields)
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace after maxval
    data = raw[pos : pos + w * h * 3]
    if len(data) != w * h * 3:
        raise FormatError(f"{path}: truncated pixel data")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3).astype(np.float64) / 255.0
