"""Density family: partition constants, normalization, table fidelity."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from rootpow.distribution import (
    ZTable,
    _compactify,
    _decompactify,
    build_table,
    partition_function,
    pdf,
    support_halfwidth,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)
# The smooth-Laplace member carries exp(+1) relative to its printed closed
# form because the matching loss is sqrt(1 + u^2) - 1, so the normalizer is
# 2 e K1(1); frozen from mpmath.besselk(1, 1) and cross-checked against a
# 2**20-node quadrature in test_high_node_oracle.
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

    def test_high_node_oracle(self):
        # Independent pin of the smooth-Laplace constant: a 2**20-node run
        # agrees with the Bessel value to well under the family tolerance.
        z_hi = partition_function.__wrapped__(-0.5, 2**20 + 1)
        assert abs(z_hi - TWO_E_K1) <= 1e-9 * TWO_E_K1

    def test_domain(self):
        with pytest.raises(ValueError):
            partition_function(-1.0 - 1e-9)
        with pytest.raises(ValueError):
            partition_function(0.0, num_points=8)

    def test_odd_point_normalization(self):
        assert partition_function.__wrapped__(0.0, 64) == partition_function.__wrapped__(0.0, 65)


class TestSupport:
    def test_halfwidths(self):
        assert support_halfwidth(0.0) == math.inf
        assert support_halfwidth(1.0) == math.inf
        assert support_halfwidth(math.inf) == math.sqrt(2.0)
        assert support_halfwidth(2.0) == pytest.approx(2.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            support_halfwidth(-1.5)


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


class TestCompactification:
    def test_endpoints(self):
        assert _compactify(-1.0) == -0.5
        assert _compactify(0.0) == 0.0
        assert _compactify(math.inf) == 1.0
        assert _decompactify(1.0) == math.inf
        assert _decompactify(-0.5) == -1.0


@pytest.fixture(scope="module")
def table():
    return build_table(256, num_points=2048)


class TestZTable:

    def test_grid_invariants(self, table):
        assert table.s_grid[0] == -0.5
        assert table.s_grid[-1] == 1.0
        assert 0.0 in table.s_grid
        assert all(b > a for a, b in zip(table.s_grid, table.s_grid[1:]))
        assert all(map(math.isfinite, table.log_z))

    def test_node_lookup_returns_stored_value(self, table):
        for idx in [0, len(table.s_grid) // 3, len(table.s_grid) - 1]:
            lam = _decompactify(table.s_grid[idx])
            stored = math.exp(table.log_z[idx])
            if _compactify(lam) == table.s_grid[idx]:
                assert table.lookup(lam) == stored
            else:  # coordinate fails to round-trip; continuity still holds
                assert table.lookup(lam) == pytest.approx(stored, rel=1e-12)

    def test_node_values_match_quadrature(self, table):
        assert table.lookup(0.0) == partition_function.__wrapped__(0.0, 2048)

    def test_midpoint_matches_direct_quadrature(self, table):
        i = len(table.s_grid) // 2
        s_mid = 0.5 * (table.s_grid[i] + table.s_grid[i + 1])
        lam = _decompactify(s_mid)
        direct = partition_function.__wrapped__(lam, 2048)
        assert table.lookup(lam) == pytest.approx(direct, rel=1e-6)

    def test_interior_probe(self, table):
        for lam in [3.7, -0.3, 0.9, 12.0]:
            direct = partition_function.__wrapped__(lam, 2048)
            assert table.lookup(lam) == pytest.approx(direct, rel=1e-5)

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
        assert payload["num_points"] == 2048
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

    def test_build_validation(self):
        with pytest.raises(ValueError):
            build_table(8)

    def test_pdf_through_table(self, table):
        direct = pdf(0.7, 0.3, 1.0)
        via_table = pdf(0.7, 0.3, 1.0, table=table)
        assert via_table == pytest.approx(direct, rel=1e-5)
