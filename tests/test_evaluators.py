"""One contract for every public evaluator: a float in gives a float out, an
ndarray in gives a float64 array of its shape that agrees with the float
calls, NaN or an out-of-domain element raises ValueError, and the binary64
extremes evaluate without a RuntimeWarning."""

import contextlib
import math
import re
import sys
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootpow as rp
from rootpow import core, distribution, families
from rootpow.cli import main

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


# The argument each shape or scale position names in its ValueError.
PARAM_NAMES = {name: ("lam", "c") for name in ("loss", "kernel", "pdf", "pdf_fat_tail")}
# The reader function of each shape or scale position, where it is not
# _require_number: the public evaluator refuses what its reader refuses,
# with the reader's message.
PARAM_READERS = {
    **dict.fromkeys(("loss", "kernel"), (core._require_number, families._require_scale)),
    **dict.fromkeys(("pdf", "pdf_fat_tail"),
                    (distribution._require_dist_lambda, families._require_scale)),
    "bump": (families._require_bump_lambda,),
    **dict.fromkeys(("boxcox", "boxcox_log", "boxcox_normalized", "boxcox_normalized_log",
                     "boxcox_normalized_identity", "boxcox_via_transform"),
                    (families._require_boxcox_lambda,)),
}
# A complex scalar of each kind: numpy's and Python's (each also with a zero
# imaginary part) and a 0-d numpy array.
COMPLEX_SCALARS = [np.complex128(0.5 + 1j), np.complex64(0.5 + 1j), np.complex128(0.5), 0.5 + 1j,
                   0.5 + 0j, np.array(0.5 + 1j)]
# Values that are not numbers: float() parses the first two.
NOT_NUMBERS = ["0.5", b"0.5", None, [0.5]]
# Scalars at each sign, zero of both signs, the extremes and inf.
SCALAR_XS = [-math.inf, -1e300, -3.0, -1.0, -0.5, -0.0, 0.0, 5e-324, 0.25, 1.0, 3.0, 1e300,
             math.inf]


class _Float(float):
    pass


def _each_position(name, fn, args):
    # (name, reader, call) for each shape or scale position: call(v) puts v
    # there, at x = 0.5 and at -0.5 (signed_transform's and relu's float
    # steps read one shape on each side), and pdf's also with a table.  On
    # an empty plan and Z cache, then on one that holds args and 0.5:
    # hash(0.5 + 0j) is hash(0.5), so a lookup before the check would take
    # the complex 0.5.
    params = PARAM_NAMES.get(name, ("lam",) * len(args))
    readers = PARAM_READERS.get(name, (core._require_number,) * len(args))
    tables = ({}, {"table": _TABLE}) if fn is rp.pdf else ({},)
    core._plan.clear()
    rp.partition_function.cache_clear()
    for warm in (False, True):
        if warm:
            fn(0.5, *args), rp.transform(0.5, 0.5), rp.partition_function(0.5)
        for i, (param, reader) in enumerate(zip(params, readers)):
            for x in (0.5, -0.5):
                for kw in tables:
                    yield param, reader, lambda v: fn(x, *args[:i], v, *args[i + 1:], **kw)


def _outcome(fn, x, args):
    # the result's float.hex, or the exception type
    try:
        value = fn(x, *args)
    except Exception as exc:
        return type(exc).__name__
    assert type(value) is float, (type(x).__name__, x)
    return value.hex()


@pytest.mark.parametrize("name,fn,args,tol,outside", CASES, ids=[c[0] for c in CASES])
class TestEvaluatorContract:
    def test_float_in_float_out(self, name, fn, args, tol, outside):
        for x in (0.25, 1, np.float64(-0.25)):
            assert type(fn(x, *args)) is float, x

    def test_every_scalar_kind_gives_the_float_bits(self, name, fn, args, tol, outside):
        # a float takes the public function's own route to its body; an
        # integral int, an np.float64 and a float subclass take
        # _elementwise's, and give the same bits or the same exception
        for v in SCALAR_XS:
            kinds = [np.float64(v), _Float(v)]
            if v.is_integer() and float(int(v)).hex() == v.hex():  # not -0.0
                kinds.append(int(v))
            want = _outcome(fn, v, args)
            for x in kinds:
                assert _outcome(fn, x, args) == want, (type(x).__name__, v)
        for nan in (math.nan, np.float64(math.nan)):
            with pytest.raises(ValueError, match="^x must not be NaN$"):
                fn(nan, *args)

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

    def test_complex_array_raises(self, name, fn, args, tol, outside):
        # converting it to float64 would drop the imaginary part, with
        # only a ComplexWarning
        for xs in ([0.5 + 1j], [0.5 + 0j, 1.0]):
            with pytest.raises(ValueError, match="^x must be real, got a complex array$"):
                fn(np.array(xs), *args)
        # so would float() a complex scalar, as x or as any shape or scale
        # parameter; the ValueError names the argument
        for z in COMPLEX_SCALARS:
            with pytest.raises(ValueError, match="^x must be real, got "):
                fn(z, *args)
        for param, reader, call in _each_position(name, fn, args):
            for z in COMPLEX_SCALARS:
                with pytest.raises(ValueError, match=rf"^[\w -]*\b{param} must be real, got "):
                    call(z)

    def test_a_value_that_is_not_a_number_raises(self, name, fn, args, tol, outside):
        # float() would parse a str or bytes, and raise TypeError for None or
        # a list; as x or as any shape or scale parameter each is a
        # ValueError that names the argument
        for v in NOT_NUMBERS:
            with pytest.raises(ValueError, match=rf"^x must be a number, got {re.escape(repr(v))}$"):
                fn(v, *args)
        # an ndarray x is an array call; as a parameter, one of ndim >= 1 is
        # not a number either
        for param, reader, call in _each_position(name, fn, args):
            for v in [*NOT_NUMBERS, np.array([0.5]), np.array([0.5, 1.0])]:
                with pytest.raises(ValueError, match=rf"^[\w -]*\b{param} must be a number, got "):
                    call(v)

    def test_a_float_its_reader_refuses_raises_the_readers_error(self, name, fn, args, tol,
                                                                  outside):
        # a float shape or scale is checked inline, anything else by its
        # reader: NaN and the ends of each reader's range (c: 0, -0 and inf;
        # bump: 1 and inf; Box-Cox: +-inf; the density: the float below -1)
        # must give the reader's ValueError, message and all
        floats = [math.nan, np.float64(math.nan), 0.0, -0.0, 1.0, math.inf, -math.inf,
                  math.nextafter(-1.0, -math.inf)]
        for param, reader, call in _each_position(name, fn, args):
            for v in floats:
                try:
                    reader(v)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        call(v)

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


# The shape and scale readers.  A public evaluator checks a float shape or
# scale inline and calls none of them; it calls one per parameter of any
# other kind, which may call another reader in turn.
_READERS = {f.__code__ for f in (
    core._require_number, core._to_float, families._require_scale, families._require_bump_lambda,
    families._require_boxcox_lambda, distribution._require_dist_lambda,
)}
# the number of shape parameters, where it is not 1
_SHAPES = {"signed_transform": 2, "softplus": 0, "sigmoid": 0, "tanh": 0}
# the evaluators that check a float shape through their reader too: no
# workload calls them per scalar
_READ_BY_THE_READER = {"transform_via_boxcox", "boxcox_via_transform"}
_TABLE = rp.ZTable(s_grid=(-0.5, 0.25, 1.0), log_z=(1.0, 0.5, 0.25), num_points=64)


def _reader_calls(call):
    # call()'s value, and the readers it calls itself, not those a reader calls
    calls = []
    def profile(frame, event, arg):
        if event == "call" and frame.f_code in _READERS and frame.f_back.f_code not in _READERS:
            calls.append(frame.f_code.co_name)
    sys.setprofile(profile)
    try:
        value = call()
    finally:
        sys.setprofile(None)
    return value, calls


@pytest.mark.parametrize("name,fn,args,tol,outside", CASES, ids=[c[0] for c in CASES])
def test_a_float_shape_calls_no_reader_and_any_other_kind_one(name, fn, args, tol, outside):
    # steady-state calls, the caches filled
    shapes = _SHAPES.get(name, 1)
    for x in (0.25, XS):
        want = fn(x, *args)
        value, calls = _reader_calls(lambda: fn(x, *args))
        assert len(calls) == (shapes if name in _READ_BY_THE_READER else 0), (type(x).__name__, calls)
        for kind in (np.float64, int, Fraction):
            if not all(kind is np.float64 or math.isfinite(lam)
                       and (kind is Fraction or lam.is_integer()) for lam in args[:shapes]):
                continue  # no int or Fraction has this shape's value
            kinds = (*map(kind, args[:shapes]), *args[shapes:])
            value, calls = _reader_calls(lambda: fn(x, *kinds))
            assert len(calls) == shapes, (type(x).__name__, kind.__name__, calls)
            assert type(value) is type(want), (type(x).__name__, kind.__name__)
            assert np.asarray(value).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("fn", [rp.partition_function, _TABLE.lookup],
                         ids=["partition_function", "ZTable.lookup"])
def test_a_shape_that_is_not_a_number_raises_before_the_z_cache(fn):
    # partition_function checks lam before its Z cache hashes it, so a
    # list or an ndarray is the ValueError that ZTable.lookup gives, not
    # the cache's TypeError
    for v in [*NOT_NUMBERS, np.array([0.5]), np.array([0.5, 1.0])]:
        with pytest.raises(ValueError, match=r"^shape parameter lam must be a number, got "):
            fn(v)


@pytest.mark.parametrize("call", [
    lambda: rp.partition_function(0.5, 205), lambda: rp.partition_function(0.5, num_points=205),
    lambda: rp.build_table(16, 205), lambda: rp.build_table(num_points=205),
], ids=["partition_function", "partition_function-keyword", "build_table", "build_table-keyword"])
def test_a_node_count_is_not_an_argument(call):
    # Z has one rule, whose node count no caller sets
    with pytest.raises(TypeError):
        call()


BOUNDED = [c for c in CASES if c[4] is not None]


@pytest.mark.parametrize("name,fn,args,tol,outside", BOUNDED, ids=[c[0] for c in BOUNDED])
def test_out_of_domain_element_raises(name, fn, args, tol, outside):
    with pytest.raises(ValueError):
        fn(outside, *args)
    with pytest.raises(ValueError):
        fn(np.array([0.1, outside, 0.3]), *args)


# An int past the largest double in each numeric argument of every public
# evaluator, and the name its ValueError gives it.
BIG = 10**400
PAST_DOUBLE = [
    *((fn, args, name) for fn in (rp.transform, rp.inverse, rp.derivative, rp.transform_naive,
                                   rp.oracle_transform)
      for args, name in [((BIG, 0.5), "x"), ((1.0, BIG), "lam")]),
    *((fn, args, name) for fn in (rp.loss, rp.kernel, rp.irls_weight, rp.pdf)
      for args, name in [((BIG, 0.5, 1.0), "x"), ((1.0, BIG, 1.0), "lam"),
                         ((1.0, 0.5, BIG), "c")]),
    (rp.bump, (BIG, 2.0), "x"), (rp.bump, (0.5, BIG), "lam"),
    (rp.signed_transform, (BIG, 0.5, -2.0), "x"), (rp.signed_transform, (1.0, BIG, -2.0), "lam"),
    (rp.signed_transform, (1.0, 0.5, BIG), "lam"),
    (rp.softplus, (BIG,), "x"), (rp.sigmoid, (BIG,), "x"), (rp.tanh, (BIG,), "x"),
    (rp.relu, (BIG, 0.0), "x"), (rp.relu, (1.0, BIG), "lam"),
    *((fn, args, name) for fn in (rp.boxcox, rp.boxcox_normalized, rp.transform_via_boxcox,
                                   rp.boxcox_via_transform)
      for args, name in [((BIG, 0.5), "x"), ((1.0, BIG), "lam")]),
    *((fn, (BIG,), "lam") for fn in (rp.classify, rp.branch_plan, rp.max_domain,
                                      rp.render_lambda, rp.support_halfwidth,
                                      rp.partition_function, _TABLE.lookup)),
    (rp.error_sweep, ([0.5], BIG), "x_lo"), (rp.error_sweep, ([0.5], 0.01, BIG), "x_hi"),
]


@pytest.mark.parametrize("sign", [1, -1], ids=["pos", "neg"])
@pytest.mark.parametrize("fn,args,name", PAST_DOUBLE,
                         ids=[f"{c[0].__name__}-{c[2]}{c[1].index(BIG)}" for c in PAST_DOUBLE])
def test_an_int_past_the_largest_double_is_a_value_error(fn, args, name, sign):
    args = tuple(sign * a if a is BIG else a for a in args)
    with pytest.raises(ValueError, match=rf"\b{name}\b.*too large for a double"):
        fn(*args)


# The same for IRLS: each argument past the largest double (max_iters past
# every int), and the ValueError it gives.
def _problem(**kw):
    return rp.IrlsProblem((1.0, 2.0), lam=-1.0, **kw)


IRLS_PAST_DOUBLE = {
    "observations": (lambda big: rp.IrlsProblem((1.0, big), lam=-1.0),
                     "an observation is too large for a double"),
    "tol": (lambda big: _problem(tol=big), "tol is too large for a double"),
    "max_iters": (lambda big: _problem(max_iters=math.inf if big > 0 else -math.inf),
                  "max_iters must be an integer, got -?inf"),
    "loss_objective": (lambda big: rp.loss_objective(big, _problem()),
                       "mu is too large for a double"),
    "objective_gradient": (lambda big: rp.objective_gradient(big, _problem()),
                           "mu is too large for a double"),
    "irls_step": (lambda big: rp.irls_step(big, _problem()), "mu is too large for a double"),
}


@pytest.mark.parametrize("sign", [1, -1], ids=["pos", "neg"])
@pytest.mark.parametrize("case", IRLS_PAST_DOUBLE)
def test_an_irls_argument_past_the_largest_double_is_a_value_error(case, sign):
    call, message = IRLS_PAST_DOUBLE[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(sign * BIG)


# The count rule (README, Arrays) at every count argument: (call, the name
# its ValueError gives, least).  A CLI argv takes the flag's text at {n}.
COUNTS = {
    "build_table-grid_size": (lambda n: rp.build_table(n), "grid_size", 16),
    "ZTable-num_points": (lambda n: rp.ZTable((-0.5, 1.0), (0.0, 0.0), n), "num_points", 16),
    "error_sweep-n": (lambda n: rp.error_sweep([0.5], n=n), "n", 2),
    "IrlsProblem-max_iters": (lambda n: _problem(max_iters=n), "max_iters", 1),
    "cli-accuracy-n": (["accuracy", "--lambdas=0.5", "--n", "{n}"], "--n", 2),
    "cli-ztable-grid_size": (["ztable", "--grid-size", "{n}", "--output", "{out}"],
                             "--grid-size", 16),
    # {data} holds 1, 2 and 3, which converge in one pass
    "cli-irls-max_iters": (["irls", "--data", "{data}", "--lambda=0", "--max-iters", "{n}"],
                           "--max-iters", 1),
    "cli-eval-range_count": (["eval", "--fn=f", "--lambda=0.5", "--x", "0:1:{n}"], "--x", 1),
}


def _count_cases():
    # (case, value, accepted): ZTable takes JSON integers only, and the CLI
    # reads the text of each value, where str(least) is the accepted spelling
    for case, (call, _, least) in COUNTS.items():
        good = [least] if case.startswith("ZTable") else [least, np.int64(least), float(least)]
        bad = [least - 1, least + 0.5, True, str(least), math.inf, -math.inf, math.nan]
        if isinstance(call, list):
            good, bad = [str(least)], [str(v) for v in bad if not isinstance(v, str)]
        yield from ((case, v, True) for v in good)
        yield from ((case, v, False) for v in bad)


COUNT_CASES = list(_count_cases())


@pytest.mark.parametrize("case,value,accepted", COUNT_CASES, ids=[
    f"{case}-{'accepts' if ok else 'refuses'}-{value!r}" for case, value, ok in COUNT_CASES])
def test_every_count_argument_follows_the_count_rule(case, value, accepted, tmp_path, capsys):
    call, name, least = COUNTS[case]
    if isinstance(call, list):  # exit 2 and one error line naming the flag
        data = tmp_path / "obs.csv"
        data.write_text("1\n2\n3\n")
        code = main([arg.format(n=value, out=tmp_path / "zt.json", data=data) for arg in call])
        out, err = capsys.readouterr()
        if accepted:
            assert code == 0, err
        else:
            assert (code, out) == (2, "")
            assert re.fullmatch(rf"error: (rootpow \w+: argument )?{name}\b.*\n", err), err
    elif accepted:  # the same result as from the int, with the count stored as an int
        assert repr(call(value)) == repr(call(least))
    elif type(value) is int:  # least - 1
        with pytest.raises(ValueError, match=f"^{name} must be at least {least}, got {value}$"):
            call(value)
    else:
        with pytest.raises(ValueError, match=rf"^{name} must be an integer\b"):
            call(value)


def test_pdf_with_table_takes_arrays():
    table = rp.build_table(16)
    xs = np.linspace(-3.0, 3.0, 13)
    out = rp.pdf(xs, 0.5, 2.0, table)
    want = [rp.pdf(float(x), 0.5, 2.0, table) for x in xs]
    np.testing.assert_allclose(out, want, rtol=PDF_TOL[0])


# Shapes where the array bodies skip identity passes, so that the first
# pass that allocates is a later one, or none is: lam = 0 hands x back,
# lam = 1 starts at the expm1/exp, lam = -1 at the maximum, and c = 1
# skips the division.
IDENTITY_SKIPS = [
    ("transform_zero", rp.transform, (0.0,)),
    ("transform_one", rp.transform, (1.0,)),
    ("transform_neg_one", rp.transform, (-1.0,)),
    ("transform_bounded", rp.transform, (1.5,)),
    ("derivative_zero", rp.derivative, (0.0,)),
    ("derivative_one", rp.derivative, (1.0,)),
    ("loss_c1", rp.loss, (-1.0, 1.0)),
    ("loss_zero_c1", rp.loss, (0.0, 1.0)),
    ("kernel_c1", rp.kernel, (-math.inf, 1.0)),
    ("kernel_zero_c1", rp.kernel, (0.0, 1.0)),
    ("irls_weight_c1", rp.irls_weight, (-0.5,)),
]
NO_WRITE = [(c[0], c[1], c[2]) for c in CASES] + IDENTITY_SKIPS
LAYOUTS = {
    "contiguous": lambda: XS.copy(),
    "strided": lambda: np.linspace(-0.9, 3.0, 80)[::2],
    "zero_d": lambda: np.array(0.75),
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("name,fn,args", NO_WRITE, ids=[c[0] for c in NO_WRITE])
def test_array_bodies_never_write_into_x(name, fn, args, layout):
    x = LAYOUTS[layout]()
    before = x.copy()
    out = fn(x, *args)
    assert x.tobytes() == before.tobytes()
    assert type(out) is np.ndarray and out.shape == x.shape
    assert not np.shares_memory(out, x)
    # any layout gives the bits of the same values laid out contiguously
    want = fn(np.ascontiguousarray(before).reshape(-1), *args).reshape(x.shape)
    assert out.tobytes() == want.tobytes()


# Reference array bodies with every pass out of place and none skipped;
# the fused bodies must give the same bits.
_ABOVE_MINUS_ONE = math.nextafter(-1.0, 0.0)


def _unfused_transform(x, lam):
    plan = rp.branch_plan(lam)
    t = plan.pre_scale * np.minimum(x, plan.max_domain)
    if not plan.skip_log:
        t = np.log1p(np.maximum(t, _ABOVE_MINUS_ONE))
    t = plan.mid_scale * t
    if not plan.skip_exp:
        t = np.expm1(t)
    return plan.post_scale * t


def _unfused_derivative(x, lam):
    plan = rp.branch_plan(lam)
    t = plan.pre_scale * np.minimum(x, plan.max_domain)
    if not plan.skip_log:
        inner = np.log1p(np.maximum(t, _ABOVE_MINUS_ONE))
        if plan.skip_exp:
            return np.exp(-inner)
        dmid = plan.mid_scale - 1.0
        return np.ones_like(t) if dmid == 0.0 else np.exp(dmid * inner)
    return np.ones_like(t) if plan.skip_exp else np.exp(plan.mid_scale * t)


def _half_square(x, c):
    r = x / c
    return 0.5 * r * r


def _hex(values):
    return [float(v).hex() for v in values]


# one shape per branch, plus lam = 0.5 (pre_scale 1), a bounded lam > 1 and
# |lam| below eps/2 (a derivative of exactly 1 off the ZERO branch)
FUSION_LAMS = [math.inf, 1.0, 0.5, 0.3, 0.0, 1e-17, -0.5, -1.0, -2.0, -math.inf, 1.5, 3.0]
_TINY_SUB = 5e-324
FUSION_XS = np.concatenate([
    [0.0, -0.0, _TINY_SUB, -_TINY_SUB, 2.5e-310, -1e-320, 1e200, -1e200, MAX, -MAX,
     math.inf, -math.inf, 1.3e154, -1.5e154, 1.0, -1.0],
    np.random.default_rng(8).standard_normal(500) * 10.0 ** np.random.default_rng(9).uniform(-8, 8, 500),
])


@pytest.mark.parametrize("lam", FUSION_LAMS)
def test_fused_bodies_match_unfused_bit_for_bit(lam):
    with np.errstate(over="ignore"):
        want = {
            "transform": _unfused_transform(FUSION_XS, lam),
            "inverse": _unfused_transform(FUSION_XS, -lam),
            "derivative": _unfused_derivative(FUSION_XS, lam),
        }
        for c in (0.5, 1.0, 2.0):
            u = _half_square(FUSION_XS, c)
            want[f"loss c={c}"] = _unfused_transform(u, lam)
            want[f"kernel c={c}"] = _unfused_derivative(u, lam)
            want[f"irls_weight c={c}"] = want[f"kernel c={c}"]
    got = {
        "transform": rp.transform(FUSION_XS, lam),
        "inverse": rp.inverse(FUSION_XS, lam),
        "derivative": rp.derivative(FUSION_XS, lam),
    }
    for c in (0.5, 1.0, 2.0):
        got[f"loss c={c}"] = rp.loss(FUSION_XS, lam, c)
        got[f"kernel c={c}"] = rp.kernel(FUSION_XS, lam, c)
        got[f"irls_weight c={c}"] = rp.irls_weight(FUSION_XS, lam, c)
    for name in want:
        assert _hex(got[name]) == _hex(want[name]), name


# The float bodies a plan row picks, held to the array body run on a float
# with libm: one shared statement of the arithmetic.  _LIBM stands in for
# the numpy module a body is handed, with the names the bodies call; its
# expm1 and exp saturate to inf as numpy's do, and its where, like
# numpy's, takes both values already evaluated.
def _saturating(f):
    def call(t, out=None):
        try:
            return f(t)
        except OverflowError:
            return math.inf
    return call


_LIBM = types.SimpleNamespace(
    log1p=lambda t, out=None: math.log1p(t), expm1=_saturating(math.expm1),
    exp=_saturating(math.exp), maximum=lambda a, b, out=None: b if b > a else a,
    where=lambda cond, then, otherwise: then if cond else otherwise, any=bool,
)
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
_LOG_MAX = math.log(MAX)


def _around(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


# every branch, and each window edge (TINY, 1 - EPS/2, 1 + EPS, 1/EPS, of
# both signs) with one step to either side; +-1e-17 has a unit derivative
# off the ZERO branch
BODY_LAMS = sorted({
    sign * v
    for edge in (_TINY, 1.0 - _EPS / 2.0, 1.0 + _EPS, 1.0 / _EPS)
    for v in _around(edge)
    for sign in (1.0, -1.0)
} | {0.0, 1e-17, -1e-17, 0.5, -0.5, 2.0, -2.0, 3.0, MAX, -MAX, math.inf, -math.inf})


def _body_xs(lam):
    # +-0, subnormals, +-1e300, +-inf; just below, at and past the pole
    # (x > 0, lam > 1), the point where pre * x meets -1, and each x where
    # the expm1 or exp stage's argument reaches log(MAX), past which it
    # saturates
    pre, skip_log, mid, _, _, bound, _, pole, *_, dmid = core._plan[lam]
    xs = [0.0, -0.0, 5e-324, -5e-324, _TINY / 2.0, -_TINY / 2.0, 1e300, -1e300, math.inf,
          -math.inf, *_around(-1.0 / pre)]
    if pole < math.inf:
        xs += [*_around(bound), *_around(pole)]
    for power in {mid, dmid} - {0.0}:
        try:
            edge = _LOG_MAX / power
            xs += _around(edge / pre if skip_log else math.expm1(edge) / pre)
        except OverflowError:  # no such x
            pass
    return xs


def _assert_float_bodies_match(x, lam):
    # each through the step _elementwise runs, which calls the row's body
    for step, body in ((core._transform_step, core._transform),
                       (core._derivative_step, core._derivative)):
        got = step(x, lam)
        assert type(got) is float
        assert got.hex() == body(x, _LIBM, lam).hex(), (body.__name__, x, lam)


def _bodies(factory):
    # the code of each float body a factory can build
    return {c for c in factory.__code__.co_consts if isinstance(c, types.CodeType)}


def test_body_lams_take_every_branch_and_float_body():
    rows = [core._plan[lam] for lam in BODY_LAMS]
    assert {row[8] for row in rows} == set(rp.Branch)
    transforms = _bodies(core._float_transform)
    assert {code.co_name for code in transforms} == {"log_exp", "log", "exp", "scale"}
    assert {row[9].__code__ for row in rows} == transforms
    derivatives = _bodies(core._float_derivative) | {core._float_slope_one.__code__}
    assert {code.co_name for code in derivatives} == {
        "_float_slope_one", "slope_exp", "slope_log",
    }
    assert {row[10].__code__ for row in rows} == derivatives


@pytest.mark.parametrize("lam", BODY_LAMS)
def test_float_bodies_match_the_array_body_at_the_edges(lam):
    for x in _body_xs(lam):
        _assert_float_bodies_match(x, lam)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_float_bodies_match_the_array_body_bit_for_bit(data):
    lam = data.draw(st.sampled_from(BODY_LAMS) | st.floats(allow_nan=False), label="lam")
    x = data.draw(st.sampled_from(_body_xs(lam)) | st.floats(allow_nan=False), label="x")
    _assert_float_bodies_match(x, lam)


# Each family's float step, held to its body run on a float with libm:
# name -> (step, body, the step's parameters from a shape lam, a second
# shape lam2 and a scale c, or None where lam is outside the family's
# domain).  pdf's z may be any positive number: both divide by it.
def _boxcox_shape(lam, lam2, c):
    return (lam,) if math.isfinite(lam) else None


_STEPS = {
    "loss": (families._float_loss, families._loss, lambda lam, lam2, c: (lam, c)),
    "kernel": (families._float_kernel, families._kernel, lambda lam, lam2, c: (lam, c)),
    "signed_transform": (families._float_signed, families._signed,
                         lambda lam, lam2, c: (lam, lam2)),
    "relu": (families._float_relu, families._relu, lambda lam, lam2, c: (lam,)),
    "bump": (families._float_bump, families._bump,
             lambda lam, lam2, c: (lam,) if 1.0 < lam < math.inf else None),
    "pdf": (distribution._float_pdf, distribution._pdf,
            lambda lam, lam2, c: (lam, c, 0.75, c * rp.support_halfwidth(lam))
            if lam >= -1.0 else None),
    "softplus": (families._float_softplus, families._softplus, lambda lam, lam2, c: ()),
    "sigmoid": (families._float_sigmoid, families._sigmoid, lambda lam, lam2, c: ()),
    "tanh": (families._float_tanh, families._tanh, lambda lam, lam2, c: ()),
    "boxcox": (families._float_boxcox, families._boxcox, _boxcox_shape),
    "boxcox_normalized": (families._float_boxcox_normalized, families._boxcox_normalized,
                          _boxcox_shape),
    "transform_via_boxcox": (families._float_transform_via_boxcox,
                             families._transform_via_boxcox,
                             lambda lam, lam2, c: (lam,) if math.isfinite(lam)
                             and core._plan[lam][8] is not rp.Branch.ONE else None),
    "boxcox_via_transform": (families._float_boxcox_via_transform,
                             families._boxcox_via_transform, _boxcox_shape),
}
_BOXCOX = {"boxcox", "boxcox_normalized", "transform_via_boxcox", "boxcox_via_transform"}
_STEP_SCALES = (1.0, 0.5, 3.0, 1e-300, 1e300)


def _step_xs(name, params):
    # +-0, subnormals, +-1, +-1e300, +-inf; each side of 0 (signed), of 2
    # (relu's inner 2 - x) and of |x| = 1 (bump); where exp, expm1 or a
    # doubled x reaches log(MAX); where 0.5 * (x/c)**2 passes the largest
    # double, and each side of pdf's support edge
    xs = [0.0, -0.0, 5e-324, -5e-324, _TINY / 2.0, -_TINY / 2.0, 1e300, -1e300, math.inf,
          -math.inf, *_around(1.0), *_around(-1.0), *_around(2.0)]
    for v in (_LOG_MAX, _LOG_MAX / 2.0):
        xs += [*_around(v), *_around(-v)]
    if name in ("loss", "kernel", "pdf"):
        v = params[1] * math.sqrt(2.0) * math.sqrt(MAX)
        xs += [*_around(v), *_around(-v)]
    if name == "pdf" and params[3] < math.inf:
        xs += [*_around(params[3]), *_around(-params[3])]
    if name in _BOXCOX:
        xs += _boxcox_xs(name, params[0])
    return xs


def _boxcox_xs(name, lam):
    # Box-Cox steps and bodies run their own tests of the lam windows, whose
    # sides BODY_LAMS takes.  In x: where the inner Box-Cox argument s * x
    # meets the domain edge -1, and where a * log1p(s * x) reaches log(MAX),
    # past which expm1 overflows, each with one step to either side; for
    # boxcox_via_transform, the edges its inner transform's float bodies
    # are tested at.
    if name == "boxcox_via_transform":
        if abs(lam - 1.0) < _EPS:
            return []
        k = abs(1.0 - lam)
        return [x / k for x in _body_xs(lam - 1.0 if lam < 1.0 else 1.0 - 1.0 / lam)]
    s, a = 1.0, lam
    if name == "boxcox_normalized" and abs(lam - 1.0) >= _EPS:
        s = 1.0 / abs(1.0 - lam)
    elif name == "transform_via_boxcox":
        if core._plan[lam][8] is rp.Branch.ZERO:
            a = 1.0
        elif lam < 0.0:
            s, a = -1.0 / lam, lam + 1.0
        else:
            s, a = (1.0 - lam) / lam, 1.0 / (1.0 - lam)
    xs = _around(-1.0 / s)
    if a != 0.0:
        try:
            xs += _around(math.expm1(_LOG_MAX / a) / s)
        except OverflowError:  # no such x
            pass
    return xs


def _step_params(name, lam):
    # the parameter tuples the edge test runs a step with at lam
    make = _STEPS[name][2]
    if name == "signed_transform":
        return [make(lam, lam2, 1.0) for lam2 in BODY_LAMS]
    return [p for p in {make(lam, None, c) for c in _STEP_SCALES} if p is not None]


def _assert_step_matches(name, x, params):
    step, body, _ = _STEPS[name]
    try:
        want = body(x, _LIBM, *params).hex()
    except ValueError as exc:  # a Box-Cox domain check: the step's is the same
        assert name in _BOXCOX, (name, x, params)
        with pytest.raises(ValueError) as raised:
            step(x, *params)
        assert str(raised.value) == str(exc), (name, x, params)
        return
    got = step(x, *params)
    assert type(got) is float
    assert got.hex() == want, (name, x, params)


@pytest.mark.parametrize("lam", BODY_LAMS)
def test_float_steps_match_their_bodies_at_the_edges(lam):
    for name in _STEPS:
        for params in _step_params(name, lam):
            for x in _step_xs(name, params):
                _assert_step_matches(name, x, params)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_float_steps_match_their_bodies_bit_for_bit(data):
    name = data.draw(st.sampled_from(sorted(_STEPS)), label="step")
    make = _STEPS[name][2]
    lams = [lam for lam in BODY_LAMS if make(lam, None, 1.0) is not None]
    lam = data.draw(st.sampled_from(lams), label="lam")
    lam2 = data.draw(st.sampled_from(BODY_LAMS), label="lam2")
    c = data.draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), label="c")
    params = make(lam, lam2, c)
    x = data.draw(st.sampled_from(_step_xs(name, params)) | st.floats(allow_nan=False), label="x")
    _assert_step_matches(name, x, params)


# The loss body hands its power the half square u >= 0 (or +inf) with
# nonneg=True, and the power skips the floor of log1p's argument where
# pre > 0: an identity there.  On numpy the array loss, kernel and pdf give
# the bits of the same bodies with the floor run; on libm the skipping body
# still gives its float step's bits.  BODY_LAMS takes every branch, and x
# runs from 0 past the pole of a lam > 1, where pre < 0 and the floor stays.
def _floored(power):
    # power with the floor always run, whatever the caller says of u
    return lambda u, np, lam, out, nonneg: power(u, np, lam, out)


def _skip_xs(lam, c):
    pole = core._plan[lam][7]
    top = 3.0 * c * math.sqrt(2.0 * min(pole, 50.0))  # u = 0.5 (x/c)**2 to 9 * min(pole, 50)
    xs = [*np.linspace(0.0, top, 301).tolist(), 5e-324, _TINY, 1e-200, 1e200, MAX, math.inf]
    if pole < math.inf:
        xs += _around(c * math.sqrt(2.0 * pole))
    return np.array([*xs, *(-x for x in xs)])


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("lam", BODY_LAMS)
def test_the_skipped_floor_changes_no_bit(lam, c, monkeypatch):
    xs = _skip_xs(lam, c)
    floored_loss = _floored(core._transform)
    with np.errstate(over="ignore"):
        want = {"loss": families._loss(xs, np, lam, c, floored_loss),
                "kernel": families._loss(xs, np, lam, c, _floored(core._derivative))}
    got = {"loss": rp.loss(xs, lam, c), "kernel": rp.kernel(xs, lam, c)}
    steps = {"loss": families._float_loss, "kernel": families._float_kernel}
    bodies = {"loss": families._loss, "kernel": families._kernel}
    if lam >= -1.0:  # pdf's route past _pdf_params, with any Z, as in _STEPS
        params = (lam, c, 0.75, c * rp.support_halfwidth(lam))
        got["pdf"] = core._elementwise(distribution._pdf, distribution._float_pdf, xs, *params)
        monkeypatch.setattr(distribution, "_loss",
                            lambda x, np, lam, c: families._loss(x, np, lam, c, floored_loss))
        with np.errstate(over="ignore"):
            want["pdf"] = distribution._pdf(xs, np, *params)
        monkeypatch.undo()
    for name in want:
        assert _hex(got[name]) == _hex(want[name]), name
    for x in xs.tolist():
        for name in steps:
            assert steps[name](x, lam, c).hex() == bodies[name](x, _LIBM, lam, c).hex(), (name, x)
        if lam >= -1.0:
            want_pdf = distribution._pdf(x, _LIBM, *params).hex()
            assert distribution._float_pdf(x, *params).hex() == want_pdf, ("pdf", x)


# where pre > 0 and the log runs, x < -1/pre takes log1p's floor: the public
# transform, inverse and derivative arrays still run it
@pytest.mark.parametrize("lam", [lam for lam in BODY_LAMS
                                 if core._plan[lam][0] > 0.0 and not core._plan[lam][1]])
def test_public_arrays_keep_the_floor_past_minus_one_over_pre(lam):
    edge = -1.0 / core._plan[lam][0]
    xs = np.array([x for x in (math.nextafter(edge, -math.inf), 1.5 * edge, 1e10 * edge,
                               -1e300, -MAX, -math.inf) if x < edge])
    with np.errstate(over="ignore"):
        want = {"transform": _unfused_transform(xs, lam), "inverse": _unfused_transform(xs, lam),
                "derivative": _unfused_derivative(xs, lam)}
    for name, fn, shape in (("transform", rp.transform, lam), ("inverse", rp.inverse, -lam),
                            ("derivative", rp.derivative, lam)):
        got = fn(xs, shape)
        assert _hex(got) == _hex(want[name]), name
        floats = np.array([fn(x, shape) for x in xs.tolist()])
        assert not np.isnan(floats).any()
        np.testing.assert_allclose(got, floats, rtol=1e-12, atol=0.0)


# A steady-state scalar call of each evaluator with a float step runs that
# step and enters no array body: not core's _transform or _derivative, not
# a family body.  A float does not enter the dispatcher either.
_ARRAY_BODIES = {
    core._transform.__code__, core._derivative.__code__,
    *(body.__code__ for _, body, _ in _STEPS.values()),
}
_GENERIC = {core._elementwise.__code__, *_ARRAY_BODIES}
_STEP_CALLS = [
    ("loss", rp.loss, (-2.0, 0.5)), ("kernel", rp.kernel, (-1.0, 2.0)),
    ("kernel", rp.irls_weight, (-math.inf,)), ("pdf", rp.pdf, (3.0, 1.0)),
    ("pdf", rp.pdf, (-1.0, 0.5, _TABLE)), ("bump", rp.bump, (2.0,)),
    ("signed_transform", rp.signed_transform, (0.5, -2.0)), ("softplus", rp.softplus, ()),
    ("sigmoid", rp.sigmoid, ()), ("tanh", rp.tanh, ()), ("relu", rp.relu, (-0.5,)),
    ("boxcox", rp.boxcox, (2.0,)), ("boxcox_normalized", rp.boxcox_normalized, (0.5,)),
    ("transform_via_boxcox", rp.transform_via_boxcox, (-0.5,)),
    ("boxcox_via_transform", rp.boxcox_via_transform, (3.0,)),
]
# Every x is in every Box-Cox domain here but -3, where boxcox,
# boxcox_normalized and transform_via_boxcox raise from their step.
_STEP_CALL_XS = (-3.0, -0.25, -0.0, 0.0, 0.25, 3.0, math.inf)


def _entered(name, fn, x, args):
    # the code objects a steady-state call fn(x, *args) enters; only a
    # Box-Cox domain check may raise
    allowed = (ValueError,) if name in _BOXCOX else ()
    with contextlib.suppress(*allowed):
        fn(x, *args)  # fills the caches
    entered = set()
    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)
    sys.setprofile(profile)
    try:
        fn(x, *args)
    except allowed:
        pass
    finally:
        sys.setprofile(None)
    return entered


@pytest.mark.parametrize("name, fn, args", _STEP_CALLS,
                         ids=[fn.__name__ + ("_table" if _TABLE in args else "")
                              for _, fn, args in _STEP_CALLS])
def test_a_float_call_never_enters_a_generic_body(name, fn, args):
    for x in _STEP_CALL_XS:
        entered = _entered(name, fn, x, args)
        assert _STEPS[name][0].__code__ in entered, x
        assert not entered & _GENERIC, (x, sorted(code.co_name for code in entered & _GENERIC))


# transform, inverse and derivative call the row's float body directly on a
# float, and on another scalar kind through the step _elementwise runs
_SCALAR_CALLS = [(name, _STEPS[name][0], fn, args) for name, fn, args in _STEP_CALLS] + [
    ("transform", core._transform_step, rp.transform, (0.5,)),
    ("inverse", core._transform_step, rp.inverse, (-2.0,)),
    ("derivative", core._derivative_step, rp.derivative, (3.0,)),
]


@pytest.mark.parametrize("name, step, fn, args", _SCALAR_CALLS,
                         ids=[fn.__name__ + ("_table" if _TABLE in args else "")
                              for _, _, fn, args in _SCALAR_CALLS])
def test_every_scalar_kind_takes_the_float_step(name, step, fn, args):
    # an int, an np.float64 and a float subclass run the step and enter no
    # array body (TestEvaluatorContract holds them to the float call's bits)
    for v in _STEP_CALL_XS:
        for x in [np.float64(v), _Float(v)] + ([int(v)] if v.is_integer() else []):
            entered = _entered(name, fn, x, args)
            assert step.__code__ in entered, (type(x).__name__, v)
            assert not entered & _ARRAY_BODIES, (
                type(x).__name__, v, sorted(code.co_name for code in entered & _ARRAY_BODIES)
            )


# Totality: every finite double x, and every positive finite scale c, gives
# a non-NaN result or a ValueError, as a float and as an array.  The shapes
# cover the seven branches and the edges of their windows, +-1e308, and the
# families' domain edges (pdf at -1, bump at 1, Box-Cox at the finite limit).
TOTALITY_SHAPES = [
    math.inf, MAX, 1e308, 1e16, 4.6e15, 3.0, 1.5, math.nextafter(1.0, math.inf), 1.0, 0.5,
    5e-324, 0.0, -0.0, -0.5, -1.0, math.nextafter(-1.0, -math.inf), -2.0, -4.6e15, -1e308,
    -MAX, -math.inf,
]
# evaluator, how many shapes it takes, whether it takes a scale c
TOTALITY = [
    (rp.transform, 1, False), (rp.inverse, 1, False), (rp.derivative, 1, False),
    (rp.loss, 1, True), (rp.kernel, 1, True), (rp.irls_weight, 1, True), (rp.pdf, 1, True),
    (rp.bump, 1, False), (rp.signed_transform, 2, False), (rp.softplus, 0, False),
    (rp.sigmoid, 0, False), (rp.tanh, 0, False), (rp.relu, 1, False), (rp.boxcox, 1, False),
    (rp.boxcox_normalized, 1, False), (rp.transform_via_boxcox, 1, False),
    (rp.boxcox_via_transform, 1, False),
]


@pytest.mark.parametrize("fn, shapes, scaled", TOTALITY, ids=[case[0].__name__ for case in TOTALITY])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_total_on_every_finite_double(fn, shapes, scaled, data):
    x = data.draw(st.floats(allow_nan=False, allow_infinity=False), label="x")
    args = [data.draw(st.sampled_from(TOTALITY_SHAPES), label="lam") for _ in range(shapes)]
    if scaled:
        args.append(data.draw(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), label="c"
        ))
    try:
        value = fn(x, *args)
        assert type(value) is float and not math.isnan(value)
    except ValueError:
        pass
    try:
        out = fn(np.array([x, -x]), *args)
        assert out.dtype == np.float64 and not np.isnan(out).any()
    except ValueError:
        pass
