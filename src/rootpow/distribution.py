"""Probability densities with the loss family as negative log density.

pdf(x) = exp(-loss(x, lam, c)) / (c * Z(lam)) for lam >= -1.  The
normalizer Z has no tractable closed form; :func:`partition_function`
integrates it in u = log1p(x), so that the fat-tailed members near
lam = -1 (whose support is effectively [0, ~6e15]) get logarithmically
spaced samples in x, with the tanh-sinh rule on plain floats: 205 nodes
at t_k = k T/m for k = -m..m with m = 102 and T = 3.1875 (a step of 1/32),
whose images crowd doubly exponentially toward both ends of [0, u_max].
The sum stops evaluating the upper side (v -> 1, where the density is
down to about eps**2) once its terms can no longer change it: past
x = sqrt(3) - 1 the integrand decreases for every lam >= -1, and the
weights decrease in k, so once a term falls below total 2**-56 each later
upper term would round away; the result is the full sum's, bit for bit,
at about 133 of the 205 evaluations on the default table's grid.
Z is one cached number per lam.  Where x_max, the point at which the
density falls to eps**2, overflows (the smallest normal double
<= |lam| <= 4.0099895460609535e-307), Z is refused with a ValueError; a
subnormal lam takes the lam = 0 branch and its Z, sqrt(2 pi).  The module
imports no numpy.  :func:`build_table` stores log Z on a uniform grid over
the compactified coordinate s = lam / (1 + |lam|), which maps lam in
[-1, +inf] onto [-1/2, 1], and :class:`ZTable` persists it as a checked
file record; a lookup is partition_function's cached value at every lam,
nodes included, so Z has one rule.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import islice

from .core import (
    EPS, _elementwise, _plan, _require_count, _require_number, _sorted_linspace,
    _to_float,
)
from .families import _loss, _require_scale

__all__ = [
    "partition_function",
    "support_halfwidth",
    "pdf",
    "ZTable",
    "build_table",
    "DEFAULT_GRID_SIZE",
    "DEFAULT_NUM_POINTS",
]

DEFAULT_NUM_POINTS = 205
DEFAULT_GRID_SIZE = 1651
_MIN_NUM_POINTS = 16
_MIN_GRID_SIZE = 16
# A rule of the file format: exp of every stored log Z is then a positive
# normal double, for any reader of the file.  Built tables hold log Z in
# [0.63, 1.49].
_MAX_ABS_LOG_Z = 700.0


def _require_dist_lambda(lam: float) -> float:
    lam = _require_number(lam)
    if lam < -1.0:
        raise ValueError(f"density undefined for lam < -1, got {lam!r}")
    return lam


def support_halfwidth(lam: float) -> float:
    """Half-width of the support at unit scale: infinite for lam <= 1,
    sqrt(2 lam / (lam - 1)) above, sqrt(2) for lam past 1/EPS, where the
    transform's pole is 1."""
    lam = _require_dist_lambda(lam)
    # the pole is inf for lam <= 1; the shortcut skips the table lookup there
    return math.inf if lam <= 1.0 else math.sqrt(2.0 * _plan[lam][7])


# The tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974; Bailey, Jeyabalan
# & Li, Experimental Math. 14, 2005), truncated at |t| = T: its end nodes
# lie 3e-17 from the ends of the interval, at 1.5e-15 of the middle weight.
_TANH_SINH_T = 3.1875
# Where exp(-loss) drops to eps**2: the loss there, which the inverse
# transform maps back to x_max**2 / 2.
_CUTOFF_LOSS = -math.log(EPS**2)
# Past this x the integrand in u = log1p(x) decreases for every lam >= -1.
_DECREASING_PAST = math.sqrt(3.0) - 1.0


def _tanh_sinh(m: int):
    """The rule's 2m+1 nodes on [0, 1] as (v, w) pairs, node and weight:
    the middle one, at t = 0, then those of t_k and -t_k for k = 1..m.
    Next to 0, where the density peaks, v = (1 - tanh a)/2 with
    a = pi/2 sinh t_k is written as exp(-a) / (2 cosh a), which keeps its
    relative precision."""
    h = _TANH_SINH_T / m
    yield 0.5, 0.25 * math.pi * h
    for k in range(1, m + 1):
        t = k * h
        a = 0.5 * math.pi * math.sinh(t)
        ca = math.cosh(a)
        v = 0.5 * math.exp(-a) / ca
        w = 0.25 * math.pi * h * math.cosh(t) / (ca * ca)
        yield v, w
        yield 1.0 - v, w


_DEFAULT_RULE = tuple(_tanh_sinh(DEFAULT_NUM_POINTS // 2))


def _quadrature(lam: float) -> float:
    # partition_function's rule, uncached: it checks lam
    lam = _require_dist_lambda(lam)
    u_max = math.log1p(math.sqrt(2.0 * _plan[-lam][9](_CUTOFF_LOSS)))
    if u_max == math.inf:
        raise ValueError(
            f"the quadrature cutoff, where exp(-loss) falls to eps**2, overflows at lam = {lam!r}"
        )
    nodes = iter(_DEFAULT_RULE)
    ft, exp, expm1 = _plan[lam][9], math.exp, math.expm1
    total = 0.0
    for v, w in nodes:
        u = u_max * v
        x = expm1(u)
        term = w * exp(u - ft(0.5 * x * x))  # the Jacobian dx/du = e**u
        total += term
        # Stop the upper side (v > 1/2) once its terms can no longer change
        # the sum: term < total 2**-56 at x > sqrt(3) - 1.  For lam >= -1,
        # f'(y) >= 1/(1 + y): equal at lam = -1, Bernoulli's inequality on
        # f'(y) = (1 + y/|lam|)**lam for -1 < lam < 0, and f' >= 1 for
        # lam >= 0.  So d/du log(e**u exp(-f(x**2/2))) = 1 - x (1 + x)
        # f'(x**2/2) < 0 once x**2/2 + x - 1 > 0, that is, x > sqrt(3) - 1.
        # The weights decrease in k, so every later upper term is at most
        # this one, below a quarter of the least half-ulp of the total
        # (total 2**-54): adding it rounds back to the same total, and the
        # lower terms only raise the total.
        if v > 0.5 and term < total * 2.0**-56 and x > _DECREASING_PAST:
            break
    for v, w in islice(nodes, 0, None, 2):  # the lower nodes left, in order
        u = u_max * v
        x = expm1(u)
        total += w * exp(u - ft(0.5 * x * x))
    return 2.0 * u_max * total  # [0, 1] scaled to [0, u_max], doubled for x < 0


_cached_quadrature = lru_cache(maxsize=4096)(_quadrature)


def partition_function(lam: float) -> float:
    """Normalizing integral of exp(-loss(x, lam, 1)) over the real line.

    The tanh-sinh rule over [0, x_max] doubled for symmetry, where x_max is
    the point at which the unnormalized density falls below eps**2.  The
    rule runs in u = log1p(x), so the integrand carries the Jacobian
    dx/du = e**u, on the 205 nodes t_k = k/32, |k| <= 102, of the map
    u = u_max (1 + tanh(pi/2 sinh t)) / 2.  The nodes are summed from the
    middle out, each lower node before its upper mirror; once an upper
    term at x > sqrt(3) - 1 is below total 2**-56 the upper side stops.
    There the integrand decreases in u for every lam >= -1 (f'(y) >=
    1/(1 + y)) and the weights decrease in k, so no later upper term
    reaches half an ulp of the total: the value is the full rule's, bit
    for bit.  Where x_max overflows, at the smallest normal double <= |lam|
    <= 4.0099895460609535e-307, a ValueError names lam; a subnormal lam
    takes the lam = 0 branch and returns sqrt(2 pi).  Cached per lam: lam
    is checked before the cache sees it, and ``cache_clear`` empties it.
    """
    return _cached_quadrature(_require_dist_lambda(lam))


# lru_cache's handles on the function that checks before the cache hashes
partition_function.cache_clear = _cached_quadrature.cache_clear
partition_function.__wrapped__ = _quadrature


def _pdf(x, np, lam: float, c: float, z: float, edge: float):
    # divide by z then c: loss(x, lam, c) and loss(x/c, lam, 1) are the
    # same float, so this order makes pdf(x, lam, c) == pdf(x/c, lam, 1)/c
    # bit-exact instead of merely close
    return np.where(abs(x) < edge, np.exp(-_loss(x, np, lam, c)) / z / c, 0.0)


def _float_pdf(x: float, lam: float, c: float, z: float, edge: float) -> float:
    # _pdf's float step, with _loss's inlined: the loss is >= 0 (or inf), so
    # exp never overflows
    if abs(x) < edge:
        r = x / c
        return math.exp(-_plan[lam][9](0.5 * r * r)) / z / c
    return 0.0


def _pdf_params(lam: float, c: float, table: "ZTable | None") -> tuple:
    # check c, lam's kind and table, then look Z up once, which checks the
    # rest of lam: _pdf's parameters.  A float c and lam make no Python call
    # past a table's lookup.  The edge is c * support_halfwidth(lam), inline.
    if not (type(c) is float and 0.0 < c < math.inf):
        c = _require_scale(c)
    if type(lam) is not float:
        lam = _to_float(lam, "shape parameter lam")
    if table is not None and not isinstance(table, ZTable):
        raise ValueError(f"table must be a ZTable or None, got {type(table).__name__}")
    z = table.lookup(lam) if table is not None else _cached_quadrature(lam)
    return lam, c, z, c * (math.inf if lam <= 1.0 else math.sqrt(2.0 * _plan[lam][7]))


def pdf(x, lam: float, c: float = 1.0, table: "ZTable | None" = None):
    """Density at x (a float or an ndarray); exactly 0 at and beyond the
    support bound when lam > 1.  Z comes from ``table``, a ZTable, when
    given, else from (cached) quadrature; either lookup also checks lam.
    """
    lam, c, z, edge = _pdf_params(lam, c, table)
    if type(x) is float and x == x:
        return _float_pdf(x, lam, c, z, edge)
    return _elementwise(_pdf, _float_pdf, x, lam, c, z, edge)


def _decompactify(s: float) -> float:
    if s >= 1.0:
        return math.inf
    if s >= 0.0:
        return s / (1.0 - s)
    return s / (1.0 + s)


def _floats(values, name: str) -> tuple[float, ...]:
    # each element type checked once; JSON true/false load as bool, an int
    if not isinstance(values, (list, tuple)) or not all(
        issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, values))
    ):
        raise ValueError(f"{name} must be a list of numbers")
    try:
        return tuple(map(float, values))
    except OverflowError:  # an int past the largest double
        raise ValueError(f"{name} values must be finite") from None


class ZTable(namedtuple("ZTable", "s_grid log_z num_points")):
    """Precomputed log Z on a uniform, strictly increasing grid of the
    compactified coordinate from -0.5 to 1, plus the quadrature node count
    that produced it (a table saved when Z came from composite Simpson
    records that rule's count, and loads as before).  The record is what
    the file holds; a lookup reads none of its fields.  Every field rule is
    checked here, since a table comes from outside the program: s_grid
    and log_z are lists or tuples of numbers, stored as float tuples,
    log_z within [-700, 700], so that exp of every stored value is a
    positive normal double, and num_points a count of at least 16."""

    def __new__(cls, s_grid, log_z, num_points: int):
        s_grid = _floats(s_grid, "s_grid")
        log_z = _floats(log_z, "log_z")
        if isinstance(num_points, bool) or not isinstance(num_points, int):
            raise ValueError("num_points must be an integer")
        num_points = _require_count(num_points, "num_points", _MIN_NUM_POINTS)
        if len(s_grid) != len(log_z):
            raise ValueError("s_grid and log_z must have equal length")
        if len(s_grid) < 2:
            raise ValueError("table needs at least two nodes")
        if not all(map(math.isfinite, log_z)):
            raise ValueError("log_z values must be finite")
        if not -_MAX_ABS_LOG_Z <= min(log_z) <= max(log_z) <= _MAX_ABS_LOG_Z:
            raise ValueError(f"log_z values must lie in [-{_MAX_ABS_LOG_Z:g}, {_MAX_ABS_LOG_Z:g}]")
        if s_grid[0] != -0.5 or s_grid[-1] != 1.0:  # lam in [-1, inf]
            raise ValueError("s_grid must run from -0.5 to 1.0")
        # uniform spacing is a rule of the file format; a NaN, inf or
        # out-of-order node fails it too
        diffs = [b - a for a, b in zip(s_grid, s_grid[1:])]
        if not all(abs(h - diffs[0]) <= 1e-9 * diffs[0] for h in diffs):
            raise ValueError("s_grid must be uniformly spaced")
        return super().__new__(cls, s_grid, log_z, num_points)

    # namedtuple's _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def lookup(self, lam: float) -> float:
        """Z, domain lam >= -1: partition_function's (cached) value at every
        lam, a grid node or not, and its ValueError where it raises one."""
        return partition_function(lam)

    def save(self, path) -> None:
        import json

        # one write: json.dump would stream through the pure-Python encoder
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({**self._asdict(), "precision": "binary64"}) + "\n")

    @classmethod
    def load(cls, path) -> "ZTable":
        """Read a table written by save.  A path open cannot take raises
        OSError, as a missing file does; a payload that is not a JSON object
        with precision "binary64", or a field ZTable rejects, raises ValueError."""
        import json

        def number(text):
            # an integer literal past int()'s digit limit reads as a float,
            # inf, which the field rules then refuse by name
            try:
                return int(text)
            except ValueError:
                return float(text)

        try:
            fh = open(path, "r", encoding="ascii")
        except ValueError as exc:  # a path open rejects (a NUL byte)
            raise OSError(str(exc)) from None
        with fh:
            payload = json.load(fh, parse_int=number)
        if not isinstance(payload, dict) or payload.get("precision") != "binary64":
            raise ValueError('table file must hold a JSON object with precision "binary64"')
        return cls(*map(payload.get, cls._fields))


def build_table(grid_size: int = DEFAULT_GRID_SIZE) -> ZTable:
    """Evaluate the partition function over a uniform s grid.

    Deterministic for a fixed size.  grid_size, a count (README, Arrays)
    of at least 16, is normalized up to 1 (mod 3), so that lam = 0 is a
    node.  The table records partition_function's node count, 205.
    """
    grid_size = _require_count(grid_size, "grid_size", _MIN_GRID_SIZE)
    grid_size += -(grid_size - 1) % 3
    s_grid = list(_sorted_linspace(-0.5, 1.0, grid_size))
    log_z = [math.log(partition_function(_decompactify(s))) for s in s_grid]
    return ZTable(s_grid, log_z, DEFAULT_NUM_POINTS)
