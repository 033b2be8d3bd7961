"""Probability densities with the loss family as negative log density.

pdf(x) = exp(-loss(x, lam, c)) / (c * Z(lam)) for lam >= -1.  The
normalizer Z has no tractable closed form; :func:`partition_function`
integrates it with composite Simpson on a uniform grid in u = log1p(x),
so that the fat-tailed members near lam = -1 (whose support is
effectively [0, ~6e15]) get logarithmically spaced samples in x.  For
repeated or table-driven use, :func:`build_table` precomputes log Z on a
uniform grid over the compactified coordinate s = lam / (1 + |lam|), which
maps lam in [-1, +inf] onto [-1/2, 1], and :class:`ZTable` interpolates it
with the monotone cubic Hermite (PCHIP) of Fritsch and Carlson, SIAM J.
Numer. Anal. 17 (1980).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

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
    the point at which the unnormalized density falls below eps**2.  The
    nodes are uniform in u = log1p(x), so the integrand carries the
    Jacobian dx/du = e**u.  Node count is normalized up to the next odd
    integer so every interval pair is complete.
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
    u_max = math.log1p(x_max)
    u = np.linspace(0.0, u_max, num_points)
    weights = np.full(num_points, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    y = np.exp(u - loss(np.expm1(u), lam))
    h = u_max / (num_points - 1)
    return 2.0 * h / 3.0 * float(np.dot(weights, y))


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


def _pchip_slopes(m: np.ndarray) -> np.ndarray:
    """Node slopes of the monotone cubic Hermite interpolant on a uniform
    grid whose cell secants are m (Fritsch and Carlson; the slopes of
    scipy.interpolate.PchipInterpolator with every spacing equal).

    Interior slopes are the weighted harmonic mean of the two adjacent
    secants, or 0 where those differ in sign or one is 0.  The end slopes
    come from the one-sided three-point rule, set to 0 when that points
    against the end secant and clamped to 3 times the end secant when the
    first two secants differ in sign and it overshoots.
    """
    if len(m) == 1:
        return np.array([m[0], m[0]])
    slopes = np.zeros(len(m) + 1)
    # equal spacing gives the harmonic mean equal weights, and the end rule
    # ((2 h0 + h1) m0 - h0 m1) / (h0 + h1) becomes (3 m0 - m1) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        harmonic = 2.0 / (1.0 / m[:-1] + 1.0 / m[1:])
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    slopes[1:-1] = np.where(flat, 0.0, harmonic)
    for end, (m0, m1) in ((0, (m[0], m[1])), (-1, (m[-1], m[-2]))):
        d = (3.0 * m0 - m1) / 2.0
        if np.sign(d) != np.sign(m0):
            d = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            d = 3.0 * m0
        slopes[end] = d
    return slopes


@dataclass(frozen=True)
class ZTable:
    """Precomputed log Z on a uniform, strictly increasing grid of the
    compactified coordinate, plus the quadrature node count that produced
    it."""

    s_grid: tuple[float, ...]
    log_z: tuple[float, ...]
    num_points: int
    precision: str = "binary64"

    def __post_init__(self) -> None:
        if len(self.s_grid) != len(self.log_z):
            raise ValueError("s_grid and log_z must have equal length")
        if len(self.s_grid) < 2:
            raise ValueError("table needs at least two nodes")
        if not (np.isfinite(self.s_grid).all() and np.isfinite(self.log_z).all()):
            raise ValueError("s_grid and log_z values must be finite")
        diffs = np.diff(self.s_grid)
        if not np.all(diffs > 0.0):
            raise ValueError("s_grid must be strictly increasing")
        # lookup finds the cell by division, which needs equal spacing
        if not np.all(np.abs(diffs - diffs[0]) <= 1e-9 * diffs[0]):
            raise ValueError("s_grid must be uniformly spaced")

    @cached_property
    def _cells(self) -> tuple[float, tuple[tuple[float, float, float, float], ...]]:
        """Grid step and, per cell, the kink-subtracted cubic in powers of
        s - s_k, highest first, as plain floats for a numpy-free lookup."""
        step = (self.s_grid[-1] - self.s_grid[0]) / (len(self.s_grid) - 1)
        y = np.asarray(self.log_z) - np.array([_interpolation_kink(t) for t in self.s_grid])
        h = np.diff(self.s_grid)
        secant = np.diff(y) / h
        d = _pchip_slopes(secant)
        t = (d[:-1] + d[1:] - 2.0 * secant) / h
        coeffs = np.stack([t / h, (secant - d[:-1]) / h - t, d[:-1], y[:-1]], axis=1)
        return step, tuple(map(tuple, coeffs.tolist()))

    def lookup(self, lam: float) -> float:
        """Interpolated Z; exact at grid nodes, domain lam >= -1."""
        lam = _require_dist_lambda(lam)
        s = _compactify(lam)
        grid = self.s_grid
        if s >= grid[-1]:
            return math.exp(self.log_z[-1])
        step, cells = self._cells
        # below the first node the first cell's cubic extrapolates
        i = min(max(int((s - grid[0]) / step), 0), len(cells) - 1)
        # the division can land one cell off where linspace rounded a node
        if i > 0 and s < grid[i]:
            i -= 1
        elif s >= grid[i + 1]:
            i += 1
        if s == grid[i]:
            return math.exp(self.log_z[i])
        a, b, c, d = cells[i]
        t = s - grid[i]
        return math.exp(((a * t + b) * t + c) * t + d + _interpolation_kink(s))

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
        """Read a table written by save; a file of any other shape or with
        fields of the wrong type raises ValueError."""
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("table file must hold a JSON object")
        num_points = payload.get("num_points")
        if isinstance(num_points, bool) or not isinstance(num_points, int):
            raise ValueError("num_points must be an integer")
        precision = payload.get("precision")
        if not isinstance(precision, str):
            raise ValueError("precision must be a string")
        return cls(
            s_grid=_number_list(payload, "s_grid"),
            log_z=_number_list(payload, "log_z"),
            num_points=num_points,
            precision=precision,
        )


def _is_number(v) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number_list(payload: dict, key: str) -> tuple[float, ...]:
    values = payload.get(key)
    if not isinstance(values, list) or not all(map(_is_number, values)):
        raise ValueError(f"{key} must be a list of numbers")
    return tuple(map(float, values))


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
