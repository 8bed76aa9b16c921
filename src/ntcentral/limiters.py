"""Minmod limiters and the slope fields used by the central schemes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def minmod(a, b):
    """Classic two-argument minmod: smaller-magnitude argument if signs agree, else 0.

    Written as two clamps, max(min(a, b), 0) + min(max(a, b), 0): when the
    signs agree one clamp keeps the smaller magnitude and the other gives
    +0, and when they differ both give 0.
    """
    lo = np.minimum(a, b, dtype=float)
    hi = np.maximum(a, b, dtype=float)
    if lo.ndim == 0:
        return np.maximum(lo, 0.0) + np.minimum(hi, 0.0)
    np.maximum(lo, 0.0, out=lo)
    np.minimum(hi, 0.0, out=hi)
    return np.add(lo, hi, out=lo)


def minmod3(a, b, c):
    """Three-argument minmod: sign-common minimum magnitude, zero otherwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    sa, sb, sc = np.sign(a), np.sign(b), np.sign(c)
    same = (sa == sb) & (sb == sc) & (sa != 0.0)
    mag = np.minimum(np.abs(a), np.minimum(np.abs(b), np.abs(c)))
    return np.where(same, sa * mag, 0.0)


@dataclass(frozen=True)
class ClipConfig:
    """Optional magnitude clip for limited differences.

    When enabled, every limited difference is additionally capped at
    ``C * dx**delta`` (signed like the backward difference), which bounds the
    reconstruction jumps independently of the data.  Disabled by default.
    """

    enabled: bool = False
    C: float = 1.0
    delta: float = 0.5

    def cap(self, dx: float) -> float:
        return self.C * dx**self.delta


NO_CLIP = ClipConfig()


def limited_difference(fwd, bwd, dx: float, clip: ClipConfig = NO_CLIP):
    """Limited slope from one-sided differences (not yet divided by dx on input)."""
    if clip.enabled:
        cap = clip.cap(dx)
        d = minmod3(fwd, bwd, np.sign(bwd) * cap)
    else:
        d = minmod(fwd, bwd)
    return d / dx


def slopes_of_extended(a_ext: np.ndarray, dx: float, clip: ClipConfig = NO_CLIP):
    """Limited slopes of an already ghost-extended array; loses one entry per side."""
    d = a_ext[..., 1:] - a_ext[..., :-1]
    return limited_difference(d[..., 1:], d[..., :-1], dx, clip)
