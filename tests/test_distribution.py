"""Density family: partition constants, normalization, the Z table."""

import json
import math
import re
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import tanh_sinh_reference
from rootpow.accuracy import default_lambda_grid
from rootpow.core import Branch, _plan, classify, transform
from rootpow.distribution import (
    DEFAULT_NUM_POINTS,
    ZTable,
    _decompactify,
    _DEFAULT_RULE,
    _cached_quadrature,
    _tanh_sinh,
    build_table,
    partition_function,
    pdf,
    support_halfwidth,
)
from rootpow.families import loss

SQRT_2PI = math.sqrt(2.0 * math.pi)
SMALL_TABLE = dict(s_grid=(-0.5, 0.25, 1.0), log_z=(1.0, 0.5, 0.25), num_points=64)
# The smooth-Laplace member carries exp(+1) relative to its printed closed
# form because the matching loss is sqrt(1 + u^2) - 1, so the normalizer is
# 2 e K1(1); frozen from mpmath.besselk(1, 1) and cross-checked against a
# 2**20-node tanh-sinh sum in test_high_node_oracle.
TWO_E_K1 = 2.0 * math.e * float(mpmath.besselk(1, 1))

CLOSED_Z = {
    0.0: SQRT_2PI,
    -1.0: math.pi * math.sqrt(2.0),
    math.inf: 4.0 * math.sqrt(2.0) / 3.0,
    -0.5: TWO_E_K1,
}


class TestPartitionFunction:
    def test_closed_form_constants(self):
        for lam, want in CLOSED_Z.items():
            got = partition_function(lam)
            assert abs(got - want) <= 1e-6 * want, (lam, got, want)

    def test_cauchy_constant_tight(self):
        # the tanh-sinh rule in u = log1p(x) resolves the heavy Cauchy tail
        # far below the family's 1e-6 tolerance
        want = math.pi * math.sqrt(2.0)
        assert abs(partition_function(-1.0) - want) <= 2e-10 * want

    def test_high_node_oracle(self):
        # Independent pin of the smooth-Laplace constant: a 2**20-node run
        # agrees with the Bessel value to well under the family tolerance.
        z_hi = tanh_sinh_reference(-0.5, 2**20 + 1)
        assert abs(z_hi - TWO_E_K1) <= 1e-9 * TWO_E_K1

    def test_domain(self):
        with pytest.raises(ValueError):
            partition_function(-1.0 - 1e-9)
        with pytest.raises(ValueError):
            partition_function.__wrapped__(-1.0 - 1e-9)

    def test_default_rule_meets_the_closed_forms(self):
        # the 205-node tanh-sinh rule lands within a few ulps of each
        for lam, want in CLOSED_Z.items():
            got = partition_function(lam)
            assert abs(got - want) <= 1e-14 * want, (lam, got, want)

    @pytest.mark.parametrize("lam", [
        -1.0, -0.999, -0.9, -0.5, 1e-300, -1e-300, 0.0, 0.5, 1.0, 1.0 + 1e-7, 1.5, 2.0, 10.0,
        1e20, math.inf,
    ])
    def test_default_rule_agrees_with_half_its_step(self, lam):
        # the rule's own error estimate: 2 * 205 - 1 nodes halve the step
        # and add a node between each two of the default rule's
        fine = tanh_sinh_reference(lam, 2 * DEFAULT_NUM_POINTS - 1)
        assert abs(partition_function(lam) - fine) <= 1e-13 * fine

    def test_pdf_reads_the_cache_past_the_argument_checks(self):
        # pdf's lam is a float by then, and a cache miss checks it: a hit
        # is the cache's C call, with no Python frame of partition_function
        pdf(0.25, 0.5)
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name)
                       if event == "call" else None)
        try:
            pdf(0.25, 0.5)
        finally:
            sys.setprofile(None)
        assert "pdf" in calls
        assert not {"partition_function", "_quadrature", "_require_dist_lambda"} & set(calls)

    # Next to |lam| = TINY the cutoff transform(72.09, -lam) overflows (its
    # pre-scale is ~1/|lam|), so x_max is inf and the rule has no interval,
    # where the density is the Gaussian's: lam = +/-1e-306 already gives
    # Z = 2.5066282746310087 and pdf(0.5) = 0.35206532676429964.  Each call is
    # refused with a ValueError that names lam; a log-domain tail for small
    # |lam| makes the xfails pass.
    _TINY_SHAPES = [sys.float_info.min, -sys.float_info.min, 1e-307, -1e-307]

    @pytest.mark.xfail(strict=True, reason="the quadrature cutoff overflows at |lam| near TINY")
    @pytest.mark.parametrize("lam", _TINY_SHAPES)
    def test_gaussian_constant_at_tiny_shapes(self, lam):
        assert partition_function(lam) == pytest.approx(SQRT_2PI, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason="the quadrature cutoff overflows at |lam| near TINY")
    @pytest.mark.parametrize("lam", _TINY_SHAPES)
    def test_gaussian_density_at_tiny_shapes(self, lam):
        assert pdf(0.5, lam) == pytest.approx(0.3520653267642995, rel=1e-12)

    @pytest.mark.parametrize("lam", [*_TINY_SHAPES, 5e-308])
    def test_an_overflowing_cutoff_is_refused(self, lam):
        # before any node is evaluated: no warning, no NaN, and lam named
        message = rf"^the quadrature cutoff, .* overflows at lam = {re.escape(repr(lam))}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (partition_function, partition_function.__wrapped__,
                         lambda lam: pdf(0.5, lam), lambda lam: pdf(np.array([0.5]), lam)):
                with pytest.raises(ValueError, match=message):
                    call(lam)


def _assert_the_full_sum(lam):
    # the stopped sum against every node's, bit for bit, or both refuse lam
    try:
        want = tanh_sinh_reference(lam)
    except ValueError:
        with pytest.raises(ValueError):
            partition_function.__wrapped__(lam)
        return
    assert partition_function.__wrapped__(lam).hex() == want.hex(), lam


_EDGE_SHAPES = [-1.0, 0.0, 1.0, math.inf, 1.0 + 2.0**-52, 1.0 - 2.0**-52, 1e-300, 1e308]


class TestTheUpperTailStop:
    """The quadrature stops evaluating the upper side once its terms cannot
    change the sum; these pin the result to the sum over every node, bit for
    bit, and check the two premises of the proof on the computed values."""

    def test_every_node_of_the_default_table(self):
        for s in build_table().s_grid:
            _assert_the_full_sum(_decompactify(s))

    def test_the_accuracy_grid(self):
        for lam in default_lambda_grid():
            if lam >= -1.0:
                _assert_the_full_sum(lam)

    @pytest.mark.parametrize("lam", _EDGE_SHAPES)
    def test_edge_shapes(self, lam):
        _assert_the_full_sum(lam)

    @settings(max_examples=300, deadline=None)
    @given(lam=st.floats(min_value=-1.0, allow_nan=False))
    def test_any_shape(self, lam):
        _assert_the_full_sum(lam)

    def test_the_stop_fires(self):
        # the full 205-node rule calls the row's transform closure 205 times,
        # plus once for the cutoff; at lam = 0 the upper side stops early
        closure = _plan[0.0][9].__code__
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code)
                       if event == "call" else None)
        try:
            partition_function.__wrapped__(0.0)
        finally:
            sys.setprofile(None)
        assert calls.count(closure) <= 140

    @pytest.mark.parametrize("m", [8, 102, 204])
    def test_the_weights_decrease_in_k(self, m):
        # the middle node's weight, then those of k = 1..m, each shared by
        # the lower node and its upper mirror
        rule = list(_tanh_sinh(m))
        if m == 102:
            assert tuple(rule) == _DEFAULT_RULE
        assert all(w == rule[2 * k][1] for k, (_, w) in enumerate(rule[1::2], 1))
        weights = [rule[0][1], *(w for _, w in rule[1::2])]
        assert all(a > b for a, b in zip(weights, weights[1:]))

    @pytest.mark.parametrize("lam", [
        -1.0, -0.999, -0.5, -1e-8, 0.0, 1e-8, 0.5, 1.0, 1.0 + 2.0**-52, 1.5, 2.0, 10.0, 1e6,
        1e308, math.inf,
    ])
    def test_the_upper_integrand_decreases_past_the_threshold(self, lam):
        # past x = sqrt(3) - 1 the computed integrand of the upper nodes,
        # in the order they are summed, rises by no more than rounding
        u_max = math.log1p(math.sqrt(2.0 * transform(-math.log(sys.float_info.epsilon**2), -lam)))
        for m in (102, 204):
            upper = [(1.0 - v) * u_max for v, _ in list(_tanh_sinh(m))[1::2]]
            values = [
                math.exp(u - transform(0.5 * math.expm1(u) ** 2, lam))
                for u in upper if math.expm1(u) > math.sqrt(3.0) - 1.0
            ]
            assert len(values) > m // 2
            assert all(b <= a * (1.0 + 1e-10) for a, b in zip(values, values[1:])), lam


class TestSupport:
    def test_halfwidths(self):
        assert support_halfwidth(0.0) == math.inf
        assert support_halfwidth(1.0) == math.inf
        assert support_halfwidth(math.inf) == math.sqrt(2.0)
        assert support_halfwidth(2.0) == pytest.approx(2.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            support_halfwidth(-1.5)

    # shapes past 1/EPS share the +inf pole of 1, up to the largest double,
    # where 2 * lam overflows
    @pytest.mark.parametrize("lam", [1e16, 8.99e307, 1e308, sys.float_info.max, math.inf])
    def test_pos_inf_window_shares_the_unit_pole(self, lam):
        assert support_halfwidth(lam) == math.sqrt(2.0)
        xs = [2.0, -2.0, 1.5, -1.5]
        assert [pdf(x, lam) for x in xs] == [0.0] * 4
        assert pdf(np.array(xs), lam).tolist() == [0.0] * 4

    @pytest.mark.parametrize("lam", [2.0, 4e15])
    def test_bounded_support_below_the_window(self, lam):
        edge = math.sqrt(2.0 * lam / (lam - 1.0))
        assert support_halfwidth(lam) == edge
        xs = [0.0, 0.5, -1.0, 1.4, math.nextafter(edge, 0.0), edge, -edge, 2.5]
        z = partition_function(lam)
        want = [math.exp(-loss(x, lam)) / z if abs(x) < edge else 0.0 for x in xs]
        assert [pdf(x, lam) for x in xs] == want
        np.testing.assert_allclose(pdf(np.array(xs), lam), want, rtol=1e-12, atol=0.0)


class TestPdf:
    def test_normal_peak(self):
        assert pdf(0.0, 0.0, 1.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-9)

    def test_cauchy_peak(self):
        assert pdf(0.0, -1.0, 1.0) == pytest.approx(1.0 / (math.pi * math.sqrt(2.0)), rel=1e-6)

    def test_zero_outside_bounded_support(self):
        assert pdf(2.0, math.inf, 1.0) == 0.0
        assert pdf(math.sqrt(2.0), math.inf, 1.0) == 0.0
        assert pdf(2.0 * 3.0, 2.0, 3.0) == 0.0

    def test_far_tail_underflows_to_zero(self):
        # the squared residual overflows to inf, so the density is 0
        assert pdf(1e300, 0.0) == 0.0
        assert pdf(-1e200, -1.0) == 0.0

    def test_smooth_laplace_closed_form(self):
        k1 = float(mpmath.besselk(1, 1))
        for x in [0.0, 0.7, 2.0, 5.0]:
            want = math.exp(-math.sqrt(1.0 + x * x)) / (2.0 * k1)
            assert pdf(x, -0.5, 1.0) == pytest.approx(want, rel=1e-6)

    def test_symmetry_and_mode(self):
        for lam in [-1.0, -0.5, 0.0, 2.0, math.inf]:
            peak = pdf(0.0, lam, 1.0)
            for x in np.linspace(0.0, 3.0, 31):
                x = float(x)
                assert pdf(x, lam, 1.0) == pdf(-x, lam, 1.0)
                assert pdf(x, lam, 1.0) <= peak

    def test_scale_family(self):
        # x/c, the loss, and the division order are shared between the two
        # sides, so the scale family holds exactly (within the 1-ulp pin).
        for lam in [-1.0, 0.0, 0.5, 2.0]:
            for c in [0.5, 3.0, 7.7]:
                for x in [0.0, 0.4, 1.1, 2.3]:
                    lhs = pdf(x, lam, c)
                    rhs = pdf(x / c, lam, 1.0) / c
                    assert abs(lhs - rhs) <= math.ulp(abs(rhs)), (lam, c, x)

    def test_normalization(self):
        for lam in [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, math.inf]:
            for c in [0.5, 1.0, 3.0]:
                hw = support_halfwidth(lam)
                hi = c * hw if math.isfinite(hw) else math.inf
                half, _ = quad(lambda t: pdf(t, lam, c), 0.0, hi, limit=200)
                assert abs(2.0 * half - 1.0) <= 1e-6, (lam, c)

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            pdf(0.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            pdf(0.0, 0.0, -1.0)


def compactify(lam: float) -> float:
    # the table's coordinate s, written out again: a lookup never forms it
    return 1.0 if lam == math.inf else lam / (1.0 + abs(lam))


class TestCompactification:
    def test_endpoints(self):
        assert compactify(-1.0) == -0.5
        assert compactify(0.0) == 0.0
        assert compactify(math.inf) == 1.0
        assert _decompactify(1.0) == math.inf
        assert _decompactify(-0.5) == -1.0


@pytest.fixture(scope="module")
def table():
    return build_table(256)


def _assert_one_rule(table, lam):
    """A lookup is partition_function's bits or exactly its ValueError, at
    a node and off one alike; True off node, so a caller can show that it
    probed both."""
    try:
        want = partition_function(lam)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            table.lookup(lam)
    else:
        assert table.lookup(lam).hex() == want.hex(), lam
    return compactify(lam) not in table.s_grid


# shapes of each branch the density takes, lam >= -1; at +/-1e-307 the
# quadrature cutoff overflows, so an off-node lookup raises
BRANCH_SHAPES = {
    Branch.NEG_ONE: [-1.0],
    Branch.NEG: [-0.999, -0.5, -1e-8, -1e-300, -1e-307],
    Branch.ZERO: [0.0, -0.0],
    Branch.POS: [1e-307, 1e-300, 1e-8, 0.3, 1.0 + 2.0**-52, 2.0, 1e6],
    Branch.ONE: [1.0],
    Branch.POS_INF: [5e15, 1e16, 1e308, math.inf],
}


class TestZTable:

    def test_grid_invariants(self, table):
        assert table.s_grid[0] == -0.5
        assert table.s_grid[-1] == 1.0
        assert 0.0 in table.s_grid
        assert all(b > a for a, b in zip(table.s_grid, table.s_grid[1:]))
        assert all(map(math.isfinite, table.log_z))

    def test_node_lookup_is_the_rule(self, table):
        # every node, those that linspace rounded off the ideal uniform grid
        # included, on the fixture's grid with log Z moved far from the
        # rule's: a lookup that read a node would show
        moved = table._replace(log_z=[v + 1.0 for v in table.log_z])
        for s in moved.s_grid:
            lam = _decompactify(s)
            assert moved.lookup(lam).hex() == partition_function(lam).hex(), s

    def test_node_values_match_quadrature(self, table):
        # the nodes every built table has: lam = -1, 0 and inf
        for lam in (-1.0, 0.0, -0.0, math.inf):
            assert compactify(lam) in table.s_grid
            assert table.lookup(lam).hex() == partition_function(lam).hex(), lam

    def test_midpoint_matches_direct_quadrature(self, table):
        i = len(table.s_grid) // 2
        s_mid = 0.5 * (table.s_grid[i] + table.s_grid[i + 1])
        lam = _decompactify(s_mid)
        direct = tanh_sinh_reference(lam, 2048)
        assert table.lookup(lam) == pytest.approx(direct, rel=1e-12)

    def test_interior_probe(self, table):
        for lam in [3.7, -0.3, 0.9, 12.0]:
            direct = tanh_sinh_reference(lam, 2048)
            assert table.lookup(lam) == pytest.approx(direct, rel=1e-12)

    def test_one_rule_on_the_accuracy_grid(self):
        # the default table at every lam >= -1 of the accuracy grid
        table = build_table()
        off_node = [_assert_one_rule(table, lam) for lam in default_lambda_grid() if lam >= -1.0]
        assert 0 < sum(off_node) < len(off_node)

    @pytest.mark.parametrize("branch", BRANCH_SHAPES, ids=[b.name for b in BRANCH_SHAPES])
    def test_one_rule_on_every_branch(self, table, branch):
        # on the fixture's table and on SMALL_TABLE, whose grid misses
        # lam = 0 and lam = 1 and whose log Z is far from the rule's at its
        # nodes (lam = -1, 1/3 and inf), so a lookup that read one would show
        off_node = []
        for each in (table, ZTable(**SMALL_TABLE)):
            for lam in BRANCH_SHAPES[branch]:
                assert classify(lam) is branch
                off_node.append(_assert_one_rule(each, lam))
        assert any(off_node) or branch is Branch.NEG_ONE

    @settings(max_examples=300, deadline=None)
    @given(lam=st.floats(min_value=-1.0))
    def test_one_rule_at_any_shape(self, table, lam):
        _assert_one_rule(table, lam)

    @pytest.mark.parametrize("size", range(2, 10))
    def test_one_rule_on_a_small_table_of_every_size(self, size):
        # log Z far from the rule's, so a lookup that read a node, or a
        # neighbouring one, would show
        rng = np.random.default_rng(size)
        s_grid = np.linspace(-0.5, 1.0, size).tolist()
        table = ZTable(s_grid, rng.uniform(-5.0, 5.0, size).tolist(), 64)
        probes = [*s_grid, *np.linspace(-0.5, 1.0, 151).tolist()]
        off_node = [_assert_one_rule(table, _decompactify(s)) for s in probes]
        # a node is off node only where s fails to round-trip through lam
        assert off_node[:size] == [compactify(_decompactify(s)) != s for s in s_grid]
        assert any(off_node[size:])

    @pytest.mark.parametrize("lam", [-1.0, 0.0, -0.0, math.inf])
    def test_a_node_lookup_is_a_hit_on_partition_functions_cache(self, lam):
        # at a node whose log Z is far from the rule's, the lookup is
        # partition_function's number, read from the same cache
        table = ZTable((-0.5, 0.0, 0.5, 1.0), (3.0, -2.0, 1.0, 0.5), 64)
        stored = math.exp(table.log_z[table.s_grid.index(compactify(lam))])
        want = partition_function(lam)
        assert stored != want
        before = _cached_quadrature.cache_info()
        assert table.lookup(lam).hex() == want.hex()
        after = _cached_quadrature.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_an_off_node_lookup_shares_partition_functions_cache(self, table):
        # one cached number per lam: the lookup's quadrature is the one
        # partition_function then reads, a cache hit
        lam = 0.123456789
        assert compactify(lam) not in table.s_grid
        z = table.lookup(lam)
        before = _cached_quadrature.cache_info()
        assert partition_function(lam).hex() == z.hex()
        after = _cached_quadrature.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    @pytest.mark.parametrize("lam", [*TestPartitionFunction._TINY_SHAPES, 5e-308, -5e-308, 4e-307])
    def test_an_off_node_tiny_shape_raises_the_quadrature_error(self, table, lam):
        # where the cutoff overflows, a table gives the no-table verdict:
        # partition_function's ValueError, word for word, and pdf's
        with pytest.raises(ValueError) as want:
            partition_function(lam)
        message = f"^{re.escape(str(want.value))}$"
        for each in (table, ZTable(**SMALL_TABLE)):
            with pytest.raises(ValueError, match=message):
                each.lookup(lam)
            with pytest.raises(ValueError, match=message):
                pdf(0.5, lam, table=each)
        assert table.lookup(0.0).hex() == partition_function(0.0).hex()

    def test_default_table_lookup_is_the_rule_at_every_node(self):
        # all 1651 nodes of the default table, node 13 (lam =
        # -0.9538188277087033) among them, where exp(log_z) is an ulp off
        # the rule's Z: lookup and pdf give the no-table bits
        table = build_table()
        lams = [_decompactify(s) for s in table.s_grid]
        assert len(lams) == 1651 and lams[13] == -0.9538188277087033
        assert math.exp(table.log_z[13]) != partition_function(lams[13])
        xs = np.linspace(-3.0, 3.0, 13)
        for lam in lams:
            assert table.lookup(lam).hex() == partition_function(lam).hex(), lam
            assert pdf(0.7, lam, table=table).hex() == pdf(0.7, lam).hex(), lam
            assert pdf(xs, lam, table=table).tobytes() == pdf(xs, lam).tobytes(), lam

    def test_default_table_nodes_hold_the_rule(self):
        # what the file holds: each stored log Z is the rule's Z through one
        # log and one exp, within 2 ulps
        table = build_table()
        for s, log_z in zip(table.s_grid, table.log_z):
            want = partition_function(_decompactify(s))
            assert abs(math.exp(log_z) - want) <= 2.0 * math.ulp(want), s

    def test_lookup_domain(self, table):
        with pytest.raises(ValueError):
            table.lookup(-1.1)

    def test_persistence_round_trip(self, table, tmp_path):
        path = tmp_path / "table.json"
        table.save(path)
        loaded = ZTable.load(path)
        assert loaded == table
        # byte-identical re-serialization
        path2 = tmp_path / "table2.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_json_schema(self, table, tmp_path):
        import json

        path = tmp_path / "table.json"
        table.save(path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"s_grid", "log_z", "num_points", "precision"}
        assert payload["precision"] == "binary64"
        assert payload["num_points"] == DEFAULT_NUM_POINTS
        assert len(payload["s_grid"]) == len(payload["log_z"])

    def test_validation_on_load(self, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "s_grid": [0.0, 0.0, 1.0],
            "log_z": [1.0, 1.0, 1.0],
            "num_points": 64,
            "precision": "binary64",
        }))
        with pytest.raises(ValueError):
            ZTable.load(path)

    @pytest.mark.parametrize("s_grid", [
        (2.0, 1e308),                                 # lookup(0.0) was NaN
        tuple(np.linspace(0.5, 1.0, 11).tolist()),    # lookup(-1.0) was 7.4e-44
        tuple(np.linspace(-0.5, 0.5, 11).tolist()),
        tuple(np.linspace(-0.75, 1.0, 11).tolist()),
    ], ids=["past-the-range", "upper-half", "lower-part", "wider"])
    def test_grid_off_the_compactified_range_rejected(self, s_grid, tmp_path):
        # a table must cover s in [-0.5, 1], lam in [-1, inf], end to end
        log_z = tuple(float(v) for v in np.linspace(0.0, 1.0, len(s_grid)))
        with pytest.raises(ValueError, match="-0.5 to 1.0"):
            ZTable(s_grid=s_grid, log_z=log_z, num_points=64)
        path = tmp_path / "zt.json"
        path.write_text(json.dumps({
            "s_grid": list(s_grid), "log_z": list(log_z), "num_points": 64,
            "precision": "binary64",
        }))
        with pytest.raises(ValueError, match="-0.5 to 1.0"):
            ZTable.load(path)

    def test_non_uniform_grid_rejected(self, table):
        s_grid = list(table.s_grid)
        s_grid[5] += 1e-6 * (s_grid[6] - s_grid[5])
        with pytest.raises(ValueError, match="uniformly spaced"):
            ZTable(s_grid=tuple(s_grid), log_z=table.log_z, num_points=table.num_points)
        # a non-finite or out-of-order interior node breaks the spacing too
        for edit in ({5: math.nan}, {5: math.inf}, {5: table.s_grid[6], 6: table.s_grid[5]}):
            s_grid = list(table.s_grid)
            for k, v in edit.items():
                s_grid[k] = v
            with pytest.raises(ValueError):
                ZTable(s_grid=tuple(s_grid), log_z=table.log_z, num_points=table.num_points)

    @pytest.mark.parametrize("field, value", [
        ("num_points", "abc"),
        ("num_points", True),
        ("num_points", 64.0),
        ("num_points", 15),
        ("num_points", -5),
        ("s_grid", np.linspace(-0.5, 1.0, 3)),
        ("log_z", np.zeros(3)),
        ("log_z", (1.0, True, 0.25)),
        ("s_grid", (-0.5, "0.25", 1.0)),
        ("log_z", (1.0, 10**400, 0.25)),
        ("log_z", (1.0, 0.5)),
        ("log_z", (1.0, 1000.0, 0.25)),
        ("log_z", (1.0, -1000.0, 0.25)),
    ], ids=["str-num-points", "bool-num-points", "float-num-points", "15-num-points",
            "negative-num-points", "ndarray-s-grid", "ndarray-log-z", "bool-node", "str-node",
            "int-past-binary64", "unequal-lengths", "log-z-past-700", "log-z-below-minus-700"])
    def test_constructor_rejects_what_load_rejects(self, field, value, tmp_path):
        # the constructor owns the field rules, so a record it accepts always
        # hashes and saves to a file that loads back
        with pytest.raises(ValueError):
            ZTable(**{**SMALL_TABLE, field: value})
        if not isinstance(value, np.ndarray):
            path = tmp_path / "zt.json"
            path.write_text(json.dumps({**SMALL_TABLE, field: value, "precision": "binary64"}))
            with pytest.raises(ValueError):
                ZTable.load(path)

    @pytest.mark.parametrize("field, value, message", [
        ("log_z", [1.0, "HUGE", 0.25], "log_z values must be finite"),
        ("log_z", [1.0, "-HUGE", 0.25], "log_z values must be finite"),
        ("s_grid", [-0.5, "HUGE", 1.0], "s_grid must be uniformly spaced"),
        ("num_points", "HUGE", "num_points must be an integer"),
    ], ids=["log-z", "negative-log-z", "s-grid", "num-points"])
    def test_an_integer_past_the_digit_limit_is_refused_by_its_field(
        self, field, value, message, tmp_path
    ):
        # a 5001-digit literal is valid JSON that int() will not read (its
        # 4300-digit limit): it loads as inf, which the field's rule refuses
        huge = "1" + "0" * 5000
        text = json.dumps({**SMALL_TABLE, field: value, "precision": "binary64"})
        path = tmp_path / "zt.json"
        path.write_text(text.replace('"-HUGE"', "-" + huge).replace('"HUGE"', huge))
        with pytest.raises(ValueError, match=f"^{message}$"):
            ZTable.load(path)

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(2, 40),
        ints=st.booleans(),
        container=st.sampled_from([list, tuple]),
        log_z=st.lists(st.one_of(st.floats(-700.0, 700.0), st.integers(-700, 700)),
                       min_size=40, max_size=40),
        bad=st.sampled_from([None, None, None, True, "1", math.nan, math.inf, 10**400]),
        num_points=st.one_of(st.integers(), st.sampled_from([64.0, True, "64"])),
    )
    def test_every_accepted_table_round_trips(
        self, tmp_path_factory, size, ints, container, log_z, bad, num_points
    ):
        # uniform grids, integral nodes as ints when `ints`, and at most one
        # bad log_z entry: whatever the constructor accepts must store float
        # tuples, hash, and load back from its file equal with an equal hash
        s_grid = np.linspace(-0.5, 1.0, size).tolist()
        if ints:
            s_grid = [int(s) if s.is_integer() else s for s in s_grid]
        log_z = log_z[:size]
        if bad is not None:
            log_z[size // 2] = bad
        try:
            table = ZTable(container(s_grid), container(log_z), num_points)
        except ValueError:
            return
        assert all(type(v) is float for v in table.s_grid + table.log_z)
        path = tmp_path_factory.mktemp("zt") / "zt.json"
        table.save(path)
        loaded = ZTable.load(path)
        assert loaded == table
        assert hash(loaded) == hash(table)

    @settings(max_examples=100, deadline=None)
    @given(
        size=st.integers(2, 40),
        log_z=st.lists(st.one_of(st.floats(-700.0, 700.0), st.integers(-700, 700)),
                       min_size=40, max_size=40),
        num_points=st.integers(16, 2**31),
        lam=st.floats(min_value=-1.0),
    )
    def test_tables_within_the_log_z_bound_load_and_look_up(
        self, tmp_path_factory, size, log_z, num_points, lam
    ):
        # the constructor accepts every log_z in [-700, 700], and every
        # lookup on such a table is a positive normal double, so pdf divides
        # by it without overflow or ZeroDivisionError, or it is exactly the
        # ValueError partition_function raises (its cutoff overflows for
        # |lam| from the smallest normal double to 4.0099895460609535e-307)
        table = ZTable(np.linspace(-0.5, 1.0, size).tolist(), log_z[:size], num_points)
        path = tmp_path_factory.mktemp("zt") / "zt.json"
        table.save(path)
        assert ZTable.load(path) == table
        try:
            z = table.lookup(lam)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                partition_function(lam)
            return
        assert sys.float_info.min <= z < math.inf
        assert not math.isnan(pdf(0.5, lam, table=table))

    def test_a_table_saved_under_simpson_loads_and_looks_up(self):
        # build_table(16) saved this when Z came from 4097-node composite
        # Simpson; num_points records that rule's count.  A lookup reads no
        # field of the table: at its nodes (lam = -1, 0, inf) as off them,
        # Z is partition_function's
        table = ZTable.load(Path(__file__).parent / "data" / "ztable-simpson-4096.json")
        assert table.num_points == 4096
        frozen = {
            -1.0: (4.442882938158363, 0.200070292479357),
            -0.999: (4.435312311611763, 0.2004117390404881),
            -0.5: (3.272306972526515, 0.2715716633314335),
            0.0: (2.5066282746310007, 0.35206532676429947),
            0.3: (2.1668013752787503, 0.4042693585872475),
            2.0: (1.9667616258254526, 0.44498189691678375),
            1e5: (1.8856200260078466, 0.4640383489370367),
            math.inf: (1.8856180831641274, 0.4640388251536717),
        }
        got = {lam: (table.lookup(lam), pdf(0.5, lam, table=table)) for lam in frozen}
        assert got == frozen

    def test_one_node_rejected(self):
        with pytest.raises(ValueError, match="at least two nodes"):
            ZTable(s_grid=(1.0,), log_z=(0.0,), num_points=64)

    def test_grid_size_is_normalized_up_to_a_node_at_zero(self):
        table = build_table(17)
        assert len(table.s_grid) == 19
        assert table.s_grid[6] == 0.0

    def test_s_grid_is_numpy_linspace_bit_for_bit(self, table):
        # the plain-float linspace build_table runs, at the fixture's size,
        # a small one, and every size from 2 to 399 and three larger ones
        from rootpow.core import _sorted_linspace

        def hexes(values):
            return [float.hex(v) for v in values]

        for built in (table, build_table(16)):
            assert hexes(built.s_grid) == hexes(np.linspace(-0.5, 1.0, len(built.s_grid)))
        for size in [*range(2, 400), 3301, 4096, 10000]:
            want = hexes(np.linspace(-0.5, 1.0, size))
            assert hexes(_sorted_linspace(-0.5, 1.0, size)) == want, size

    def test_build_validation(self):
        with pytest.raises(ValueError):
            build_table(8)

    def test_pdf_through_table(self, table):
        direct = pdf(0.7, 0.3, 1.0)
        via_table = pdf(0.7, 0.3, 1.0, table=table)
        assert via_table.hex() == direct.hex()

    @pytest.mark.parametrize("lam", [-0.999, -0.5, 0.3, 1.0 + 2.0**-52, 2.0, 1e6, 5e15])
    def test_off_node_pdf_is_the_pdf_without_a_table(self, table, lam):
        # float and array, at two scales: the same bits, since Z is one rule
        assert compactify(lam) not in table.s_grid
        xs = np.linspace(-3.0, 3.0, 61)
        for c in (1.0, 2.5):
            assert pdf(0.7, lam, c, table=table).hex() == pdf(0.7, lam, c).hex()
            assert pdf(xs, lam, c, table=table).tobytes() == pdf(xs, lam, c).tobytes()

    @pytest.mark.parametrize("x", [0.7, np.array([0.7, -1.5])], ids=["float", "array"])
    def test_pdf_refuses_a_table_that_is_not_a_ztable(self, x):
        for bad in ("x", dict(SMALL_TABLE), tuple(ZTable(**SMALL_TABLE))):
            message = rf"^table must be a ZTable or None, got {type(bad).__name__}$"
            with pytest.raises(ValueError, match=message):
                pdf(x, 0.3, 1.0, table=bad)
