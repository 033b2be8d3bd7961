"""One contract for every public evaluator: a float in gives a float out, an
ndarray in gives a float64 array of its shape that agrees with the float
calls, NaN or an out-of-domain element raises ValueError, and the binary64
extremes evaluate without a RuntimeWarning."""

import math
import sys
import warnings

import numpy as np
import pytest

import rootpow as rp

MAX = sys.float_info.max
XS = np.linspace(-0.9, 3.0, 40).reshape(4, 10)

# Array-vs-float agreement, (rtol, atol), at each module's existing
# tolerance: the array path runs numpy's ufuncs where a float runs libm.
CORE_TOL = (1e-14, 0.0)
BUMP_TOL = (0.0, 1e-12)
PDF_TOL = (1e-9, 0.0)
SIGNED_TOL = (0.0, 1e-9)
BOXCOX_TOL = (1e-10, 1e-10)

# name, evaluator, shape arguments, tolerance, an x outside the domain
# (None where every real x is in it)
CASES = [
    ("transform", rp.transform, (-2.0,), CORE_TOL, None),
    ("inverse", rp.inverse, (-2.0,), CORE_TOL, None),
    ("derivative", rp.derivative, (0.5,), CORE_TOL, None),
    ("loss", rp.loss, (-2.0, 0.5), CORE_TOL, None),
    ("kernel", rp.kernel, (-1.0, 2.0), CORE_TOL, None),
    ("irls_weight", rp.irls_weight, (-math.inf,), CORE_TOL, None),
    ("pdf", rp.pdf, (3.0, 1.0), PDF_TOL, None),
    ("pdf_fat_tail", rp.pdf, (-1.0, 0.5), PDF_TOL, None),
    ("bump", rp.bump, (2.0,), BUMP_TOL, None),
    ("signed_transform", rp.signed_transform, (0.5, -2.0), SIGNED_TOL, None),
    ("softplus", rp.softplus, (), SIGNED_TOL, None),
    ("sigmoid", rp.sigmoid, (), SIGNED_TOL, None),
    ("tanh", rp.tanh, (), SIGNED_TOL, None),
    ("relu", rp.relu, (-0.5,), SIGNED_TOL, None),
    ("boxcox", rp.boxcox, (0.5,), BOXCOX_TOL, -1.0),
    ("boxcox_log", rp.boxcox, (0.0,), BOXCOX_TOL, -1.5),
    ("boxcox_normalized", rp.boxcox_normalized, (2.0,), BOXCOX_TOL, -1.0),
    ("boxcox_normalized_log", rp.boxcox_normalized, (0.0,), BOXCOX_TOL, -1.0),
    ("boxcox_normalized_identity", rp.boxcox_normalized, (1.0,), BOXCOX_TOL, None),
    ("transform_via_boxcox", rp.transform_via_boxcox, (0.5,), BOXCOX_TOL, -1.0),
    ("boxcox_via_transform", rp.boxcox_via_transform, (2.0,), BOXCOX_TOL, None),
]


@pytest.mark.parametrize("name,fn,args,tol,outside", CASES, ids=[c[0] for c in CASES])
class TestEvaluatorContract:
    def test_float_in_float_out(self, name, fn, args, tol, outside):
        for x in (0.25, 1, np.float64(-0.25)):
            assert type(fn(x, *args)) is float, x

    def test_array_matches_float_calls(self, name, fn, args, tol, outside):
        out = fn(XS, *args)
        assert isinstance(out, np.ndarray)
        assert out.shape == XS.shape and out.dtype == np.float64
        assert not np.shares_memory(out, XS)
        want = [fn(float(x), *args) for x in XS.ravel()]
        rtol, atol = tol
        np.testing.assert_allclose(out.ravel(), want, rtol=rtol, atol=atol)

    def test_nan_anywhere_raises(self, name, fn, args, tol, outside):
        with pytest.raises(ValueError):
            fn(math.nan, *args)
        with pytest.raises(ValueError):
            fn(np.array([0.1, math.nan, 0.3]), *args)

    def test_extremes_evaluate_silently(self, name, fn, args, tol, outside):
        xs = [0.0, -0.0, 5e-324, MAX, math.inf]
        if outside is None:
            xs += [-5e-324, -MAX, -math.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = fn(np.array(xs), *args)
            floats = [fn(x, *args) for x in xs]
        assert not np.isnan(out).any()
        assert not any(map(math.isnan, floats))


BOUNDED = [c for c in CASES if c[4] is not None]


@pytest.mark.parametrize("name,fn,args,tol,outside", BOUNDED, ids=[c[0] for c in BOUNDED])
def test_out_of_domain_element_raises(name, fn, args, tol, outside):
    with pytest.raises(ValueError):
        fn(outside, *args)
    with pytest.raises(ValueError):
        fn(np.array([0.1, outside, 0.3]), *args)


def test_pdf_with_table_takes_arrays():
    table = rp.build_table(16, 256)
    xs = np.linspace(-3.0, 3.0, 13)
    out = rp.pdf(xs, 0.5, 2.0, table)
    want = [rp.pdf(float(x), 0.5, 2.0, table) for x in xs]
    np.testing.assert_allclose(out, want, rtol=PDF_TOL[0])
