"""Closed-form references the benchmark checks rootpow's outputs against.

Everything here is written from the published closed forms with numpy and
shares no code with ``rootpow``: each branch of the transform is spelled
out directly instead of going through the package's plan table.  The
functions take an array of x and scalar shape parameters and mirror the
package's documented domain rules (the clamp below the pole for lam > 1,
exact zeros outside a bump's or density's support), because those rules
are part of the contract being checked.
"""

from __future__ import annotations

import math

import numpy as np

_ABOVE_MINUS_ONE = math.nextafter(-1.0, 0.0)

# Closed-form normalizers of exp(-loss(x, lam, 1)):
#   lam = 0    Gaussian                      sqrt(2 pi)
#   lam = -1   Cauchy 1/(1 + x^2/2)          pi sqrt(2)
#   lam = -1/2 exp(1 - sqrt(1 + x^2))        2 e K1(1)
#   lam = +inf Epanechnikov 1 - x^2/2        4 sqrt(2) / 3
_K1_AT_1 = 0.60190723019723457474  # modified Bessel function K_1(1)
PDF_Z = {
    0.0: math.sqrt(2.0 * math.pi),
    -1.0: math.pi * math.sqrt(2.0),
    -0.5: 2.0 * math.e * _K1_AT_1,
    math.inf: 4.0 * math.sqrt(2.0) / 3.0,
}


def pole(lam: float) -> float:
    """Upper end of the transform's domain: lam/(lam-1) for lam > 1."""
    if lam == math.inf:
        return 1.0
    return lam / (lam - 1.0) if lam > 1.0 else math.inf


def _clamp(x, lam):
    x = np.asarray(x, dtype=float)
    if lam > 1.0:
        x = np.minimum(x, math.nextafter(pole(lam), 0.0))
    return x


def transform(x, lam: float) -> np.ndarray:
    """f(x, lam) for x >= 0 from the branch closed forms."""
    x = _clamp(x, lam)
    with np.errstate(all="ignore"):
        if lam == math.inf:
            return -np.log1p(np.maximum(-x, _ABOVE_MINUS_ONE))
        if lam == -math.inf:
            return -np.expm1(-x)
        if lam == 1.0:
            return np.expm1(x)
        if lam == -1.0:
            return np.log1p(x)
        if lam == 0.0:
            return x.copy()
        if lam > 0.0:
            base = np.maximum((1.0 - lam) / lam * x, _ABOVE_MINUS_ONE)
            return lam * np.expm1(np.log1p(base) / (1.0 - lam))
        return -lam / (lam + 1.0) * np.expm1((lam + 1.0) * np.log1p(-x / lam))


def derivative(x, lam: float) -> np.ndarray:
    """d/dx f(x, lam) for x >= 0 from the differentiated closed forms."""
    x = _clamp(x, lam)
    with np.errstate(all="ignore"):
        if lam == math.inf:
            return 1.0 / (1.0 - x)
        if lam == -math.inf:
            return np.exp(-x)
        if lam == 1.0:
            return np.exp(x)
        if lam == -1.0:
            return 1.0 / (1.0 + x)
        if lam == 0.0:
            return np.ones_like(x)
        if lam > 0.0:
            base = np.maximum((1.0 - lam) / lam * x, _ABOVE_MINUS_ONE)
            return np.exp(lam / (1.0 - lam) * np.log1p(base))
        return np.exp(lam * np.log1p(-x / lam))


def _half_square(x, c):
    with np.errstate(all="ignore"):
        r = np.asarray(x, dtype=float) / c
        return 0.5 * r * r


def loss(x, lam: float, c: float = 1.0) -> np.ndarray:
    return transform(_half_square(x, c), lam)


def kernel(x, lam: float, c: float = 1.0) -> np.ndarray:
    return derivative(_half_square(x, c), lam)


def pdf(x, lam: float, c: float = 1.0) -> np.ndarray:
    """Density for the four shapes whose normalizer has a closed form."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = np.exp(-loss(x, lam, c)) / PDF_Z[lam] / c
    if lam == math.inf:
        out = np.where(np.abs(x) >= c * math.sqrt(2.0), 0.0, out)
    return out


def bump(x, lam: float) -> np.ndarray:
    """exp(-lam ((1 - x^2)^(1/(1-lam)) - 1)) on (-1, 1), 0 elsewhere."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    xi = np.where(inside, x, 0.0)
    with np.errstate(all="ignore"):
        val = np.exp(-lam * np.expm1(np.log1p(-xi * xi) / (1.0 - lam)))
    return np.where(inside, val, 0.0)


def signed_transform(x, lam_pos: float, lam_neg: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    pos = transform(np.where(x >= 0.0, x, 0.0), lam_pos)
    neg = -transform(np.where(x < 0.0, -x, 0.0), lam_neg)
    return np.where(x >= 0.0, pos, neg)


def softplus(x) -> np.ndarray:
    return np.logaddexp(0.0, np.asarray(x, dtype=float))


def sigmoid(x) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def tanh(x) -> np.ndarray:
    return np.tanh(np.asarray(x, dtype=float))


def relu(x, lam_neg: float = 0.0) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def boxcox(x, lam: float) -> np.ndarray:
    """((1 + x)^lam - 1) / lam, log1p(x) at lam = 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        if lam == 0.0:
            return np.log1p(x)
        return np.expm1(lam * np.log1p(x)) / lam


def boxcox_normalized(x, lam: float) -> np.ndarray:
    """Box-Cox rescaled to unit slope at 0; the identity at lam = 1."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        if lam == 1.0:
            return x.copy()
        if lam == 0.0:
            return np.log1p(x)
        d = abs(1.0 - lam)
        scale = (1.0 / lam - 1.0) if lam < 1.0 else (lam - 1.0) / lam
        return scale * np.expm1(lam * np.log1p(x / d))


def irls_fixpoint(obs: np.ndarray, lam: float, c: float = 1.0) -> float:
    """Fixpoint of the closed-form IRLS weights, started from the median."""
    mu = float(np.median(obs))
    for _ in range(10_000):
        w = kernel(obs - mu, lam, c)
        new = float(np.sum(w * obs) / np.sum(w))
        if abs(new - mu) <= 1e-15 * (1.0 + abs(new)):
            return new
        mu = new
    return mu


def close(got, want, rtol: float, atol: float = 0.0) -> np.ndarray:
    """Elementwise agreement; infinities must match exactly, NaN never does."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    with np.errstate(invalid="ignore"):
        near = np.abs(got - want) <= rtol * np.abs(want) + atol
    same_inf = np.isinf(want) & (got == want)
    return np.where(np.isinf(want), same_inf, near & np.isfinite(got))
