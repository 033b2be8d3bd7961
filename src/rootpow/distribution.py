"""Probability densities with the loss family as negative log density.

pdf(x) = exp(-loss(x, lam, c)) / (c * Z(lam)) for lam >= -1.  The
normalizer Z has no tractable closed form; :func:`partition_function`
integrates it with composite Simpson over nodes warped by expm1 so that
the fat-tailed members near lam = -1 (whose support is effectively
[0, ~6e15]) get logarithmically spaced samples.  For repeated or
table-driven use, :func:`build_table` precomputes log Z on a grid over the
compactified coordinate s = lam / (1 + |lam|), which maps lam in
[-1, +inf] onto [-1/2, 1], and :class:`ZTable` interpolates it with a
monotone cubic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import PchipInterpolator

from .core import EPS, _require_lambda, transform
from .loss import _require_scale, loss

__all__ = [
    "partition_function",
    "support_halfwidth",
    "pdf",
    "ZTable",
    "build_table",
    "DEFAULT_GRID_SIZE",
    "DEFAULT_NUM_POINTS",
]

DEFAULT_NUM_POINTS = 4096
DEFAULT_GRID_SIZE = 3301


def _interpolation_kink(s: float) -> float:
    # log Z is not C2 at lam = 0: expanding the transform for small |lam|
    # gives d(log Z)/dlam = 0.5 * log|lam| + O(1), so log Z carries a
    # 0.5 * s * log|s| term in the compactified coordinate.  Subtracting it
    # before fitting the cubic and adding it back on lookup restores cubic
    # convergence next to s = 0.
    return 0.0 if s == 0.0 else 0.5 * s * math.log(abs(s))


def _require_dist_lambda(lam: float) -> float:
    lam = _require_lambda(lam)
    if lam < -1.0:
        raise ValueError(f"density undefined for lam < -1, got {lam!r}")
    return lam


def support_halfwidth(lam: float) -> float:
    """Half-width of the support at unit scale: infinite for lam <= 1,
    sqrt(2 lam / (lam - 1)) above, sqrt(2) at lam = +inf."""
    lam = _require_dist_lambda(lam)
    if lam <= 1.0:
        return math.inf
    if lam == math.inf:
        return math.sqrt(2.0)
    return math.sqrt(2.0 * lam / (lam - 1.0))


@lru_cache(maxsize=4096)
def partition_function(lam: float, num_points: int = DEFAULT_NUM_POINTS) -> float:
    """Normalizing integral of exp(-loss(x, lam, 1)) over the real line.

    Composite Simpson over [0, x_max] doubled for symmetry, where x_max is
    the point at which the unnormalized density falls below eps**2.  Node
    count is normalized up to the next odd integer so every interval pair
    is complete.
    """
    lam = _require_dist_lambda(lam)
    num_points = int(num_points)
    if num_points < 16:
        raise ValueError("need at least 16 quadrature points")
    if num_points % 2 == 0:
        num_points += 1
    # Where exp(-loss) drops to eps**2: loss = -log(eps**2), so invert.
    cutoff = -math.log(EPS**2)
    x_max = math.sqrt(2.0 * transform(cutoff, -lam))
    u = np.linspace(0.0, math.log1p(x_max), num_points)
    x = np.expm1(u)
    y = np.exp(-loss(x, lam))
    return 2.0 * float(simpson(y, x=x))


def pdf(
    x: float,
    lam: float,
    c: float = 1.0,
    table: "ZTable | None" = None,
    num_points: int = DEFAULT_NUM_POINTS,
) -> float:
    """Density at x; exactly 0 at and beyond the support bound when lam > 1.

    Z comes from ``table`` when given, else from (cached) quadrature.
    """
    lam = _require_dist_lambda(lam)
    c = _require_scale(c)
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if lam > 1.0 and abs(x) >= c * support_halfwidth(lam):
        return 0.0
    z = table.lookup(lam) if table is not None else partition_function(lam, num_points)
    # divide by z then c: loss(x, lam, c) and loss(x/c, lam, 1) are the
    # same float, so this order makes pdf(x, lam, c) == pdf(x/c, lam, 1)/c
    # bit-exact instead of merely close
    return math.exp(-loss(x, lam, c)) / z / c


def _compactify(lam: float) -> float:
    if lam == math.inf:
        return 1.0
    return lam / (1.0 + abs(lam))


def _decompactify(s: float) -> float:
    if s >= 1.0:
        return math.inf
    if s >= 0.0:
        return s / (1.0 - s)
    return s / (1.0 + s)


@dataclass(frozen=True)
class ZTable:
    """Precomputed log Z on a strictly increasing grid of the compactified
    coordinate, plus the quadrature node count that produced it."""

    s_grid: tuple[float, ...]
    log_z: tuple[float, ...]
    num_points: int
    precision: str = "binary64"

    def __post_init__(self) -> None:
        if len(self.s_grid) != len(self.log_z):
            raise ValueError("s_grid and log_z must have equal length")
        if len(self.s_grid) < 2:
            raise ValueError("table needs at least two nodes")
        diffs = np.diff(self.s_grid)
        if not np.all(diffs > 0.0):
            raise ValueError("s_grid must be strictly increasing")
        if not all(map(math.isfinite, self.log_z)):
            raise ValueError("log_z values must be finite")

    @cached_property
    def _interpolator(self) -> PchipInterpolator:
        s = np.asarray(self.s_grid)
        smoothed = np.asarray(self.log_z) - np.array(
            [_interpolation_kink(float(t)) for t in s]
        )
        return PchipInterpolator(s, smoothed)

    def lookup(self, lam: float) -> float:
        """Interpolated Z; exact at grid nodes, domain lam >= -1."""
        lam = _require_dist_lambda(lam)
        s = _compactify(lam)
        if s >= self.s_grid[-1]:
            return math.exp(self.log_z[-1])
        idx = np.searchsorted(self.s_grid, s)
        if idx < len(self.s_grid) and self.s_grid[idx] == s:
            return math.exp(self.log_z[idx])
        return math.exp(float(self._interpolator(s)) + _interpolation_kink(s))

    def save(self, path) -> None:
        payload = {
            "s_grid": list(self.s_grid),
            "log_z": list(self.log_z),
            "num_points": self.num_points,
            "precision": self.precision,
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ZTable":
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
        return cls(
            s_grid=tuple(map(float, payload["s_grid"])),
            log_z=tuple(map(float, payload["log_z"])),
            num_points=int(payload["num_points"]),
            precision=str(payload["precision"]),
        )


def build_table(grid_size: int = DEFAULT_GRID_SIZE, num_points: int = DEFAULT_NUM_POINTS) -> ZTable:
    """Evaluate the partition function over a uniform s grid.

    Deterministic for fixed arguments.  grid_size is normalized up so that
    s = 0 lands exactly on a node (log Z has its lam = 0 kink there, and a
    node on the kink keeps the fit one-sided).  The default size is what
    the steep stretch approaching lam = -1 needs for about 4e-7 worst-case
    interpolation error; 512 nodes leave roughly 6e-5 there.
    """
    grid_size = int(grid_size)
    if grid_size < 16:
        raise ValueError(f"grid_size must be at least 16, got {grid_size}")
    while (grid_size - 1) % 3:
        grid_size += 1
    s_grid = np.linspace(-0.5, 1.0, grid_size)
    log_z = [
        math.log(partition_function(_decompactify(float(s)), num_points))
        for s in s_grid
    ]
    return ZTable(
        s_grid=tuple(float(s) for s in s_grid),
        log_z=tuple(log_z),
        num_points=num_points,
    )
