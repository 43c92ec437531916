"""Multi-scale least-squares adversarial losses.

Each discriminator scale emits a score map; the per-scale contribution
is the mean over that map, and the loss sums contributions over scales.
The generator term drives fake scores toward 1, the discriminator term
drives fake scores toward 0 and real scores toward 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass
class ScaleScores:
    """Ordered per-scale score maps."""

    scores: list[np.ndarray]

    def __post_init__(self):
        if not self.scores:
            raise DomainError("need at least one scale")
        maps = []
        for i, m in enumerate(self.scores):
            arr = np.asarray(m, dtype=np.float64)
            if arr.size == 0:
                raise DomainError(f"scale {i} has an empty score map")
            maps.append(arr)
        self.scores = maps

    def __len__(self):
        return len(self.scores)


def generator_adv_loss(fake: ScaleScores) -> float:
    """Sum over scales of mean (score - 1)^2."""
    return float(sum(np.mean((m - 1.0) ** 2) for m in fake.scores))


def discriminator_adv_loss(fake: ScaleScores, real: ScaleScores) -> float:
    """Sum over scales of mean(fake^2) + mean((real - 1)^2)."""
    if len(fake) != len(real):
        raise DomainError(f"scale counts differ: {len(fake)} fake vs {len(real)} real")
    total = 0.0
    for f, r in zip(fake.scores, real.scores):
        total += float(np.mean(f**2)) + float(np.mean((r - 1.0) ** 2))
    return total


def downscale_reference(img: np.ndarray, scale: int) -> np.ndarray:
    """Ground-truth image adjusted to discriminator scale i: (i-1) rounds
    of 2x2 box-filter halving. scale=1 is the identity."""
    if scale < 1:
        raise DomainError("scale index starts at 1")
    out = np.asarray(img, dtype=np.float64)
    for _ in range(scale - 1):
        h, w = out.shape[:2]
        if h < 2 or w < 2:
            raise DomainError(f"image {h}x{w} too small to halve")
        h2, w2 = h // 2, w // 2
        out = out[: h2 * 2, : w2 * 2]
        out = 0.25 * (out[0::2, 0::2] + out[1::2, 0::2] + out[0::2, 1::2] + out[1::2, 1::2])
    return out
