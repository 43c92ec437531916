"""Deterministic splat renderer and image-quality metrics.

The hole-fill rule: a pixel (u, v) takes the feature of the finest level t
whose bin (u >> t, v >> t) is occupied, and a constant background when no
level has it. Level 0 is the case t = 0. A winner without a color (NaN)
shows the background, not a coarser level.

The renderer applies the rule to indices, not colors. Every level's
features are stacked into one table, with a last row for the background.
Going from the coarsest level to the finest, on each level's own grid, a
cell's source row is its own table row when the level is occupied there,
else the source row of its coarser bin, repeated 2^dt times along both
axes; cells past the coarser level's cover take the background row. The
image is then one gather from the table with level 0's map.

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


def check_levels(levels) -> None:
    """The renderer's levels: level 0, a coarser one to fill holes from, none negative."""
    levels = sorted(set(levels))
    if levels[:1] != [0] or len(levels) < 2:
        raise DomainError(f"level list {levels} needs level 0, a coarser level and no negative level")


def check_background(value) -> np.ndarray:
    """The background as a (3,) array: one number or 3, all finite."""
    try:
        bg = np.broadcast_to(np.asarray(value, dtype=np.float64), (3,))
    except (TypeError, ValueError):
        raise DomainError(f"background must be one number or 3 numbers, got {value!r}") from None
    if not np.all(np.isfinite(bg)):
        raise DomainError(f"background must be finite, got {value!r}")
    return bg


def render_rgb(pyramid: RasterPyramid, background=DEFAULT_BACKGROUND) -> np.ndarray:
    """Hole fill of a color pyramid into an (H, W, 3) image: one source-index
    map, built coarse to fine, then one gather. The pyramid checked its shapes."""
    if pyramid.channels is not Channels.COLOR:
        raise DomainError("renderer needs a color pyramid, got descriptors")
    levels = pyramid.levels
    check_levels([img.level for img in levels])
    bg = check_background(background)
    h, w, c = levels[0].features.shape
    if c != 3:
        raise DomainError(f"renderer needs 3 channels, got {c}")
    # table row k is the k-th cell of the levels laid end to end, finest
    # first; the last row is the background
    offsets = np.cumsum([0] + [img.mask.size for img in levels])
    table = np.concatenate([img.features.reshape(-1, 3) for img in levels] + [bg[None]])
    src = None  # source row of each cell of the coarser level just done
    for img, off in zip(reversed(levels), reversed(offsets[:-1])):
        rows = np.full(img.mask.shape, offsets[-1])
        if src is not None:
            s = 1 << (prev - img.level)
            hc, wc = src.shape
            # splitting axes is always a view, so this writes into rows
            rows[: hc * s, : wc * s].reshape(hc, s, wc, s)[...] = src[:, None, :, None]
        own = np.flatnonzero(img.mask)
        rows.reshape(-1)[own] = off + own
        src, prev = rows, img.level
    out = table.take(src.reshape(-1), axis=0)
    # points without a sampled color carry NaN; show background there
    finite = np.isfinite(out[:, 0]) & np.isfinite(out[:, 1]) & np.isfinite(out[:, 2])
    out[~finite] = bg
    return np.clip(out, 0.0, 1.0, out=out).reshape(h, w, 3)


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
    """Separable Gaussian mean over every window that fits in the image, the
    taps of each pass summed in tap order, not by a BLAS kernel's order."""
    for axis in (0, 1):
        taps = sliding_window_view(img, len(kernel), axis=axis)
        img = sum((taps[..., i] * kernel[i] for i in range(1, len(kernel))), taps[..., 0] * kernel[0])
    return img


def ssim(
    img: np.ndarray, ref: np.ndarray, window: int = 11, sigma: float = 1.5, data_range: float = 1.0
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
    c1 = (0.01 * data_range) ** 2  # the standard k1 = 0.01, k2 = 0.03
    c2 = (0.03 * data_range) ** 2
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


def read_view_image(path, K, name: str) -> np.ndarray:
    """The PPM at `path`; DomainError naming `name` unless it is K's size."""
    img = read_ppm(path)
    if img.shape[:2] != (K.height, K.width):
        raise DomainError(f"{name} is {img.shape[1]}x{img.shape[0]}, the view {K.width}x{K.height}")
    return img
