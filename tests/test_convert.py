"""Conversion tables, the rotation identity, and the angle matrix."""

import math
from fractions import Fraction

import numpy as np
import pytest

from chaoslab import convert
from chaoslab.chaos import sample_batch
from chaoslab.exact import EC, ONE, ZERO
from chaoslab.hermite import (BiPoly, complex_hermite, hermite_of_linear,
                              real_hermite, real_hermite_y)


class TestConversionTables:
    def test_degree_zero_is_identity(self):
        c2r, r2c = convert.conversion_tables(0)
        assert c2r.rows == ((ONE,),) and r2c.rows == ((ONE,),)

    def test_degree_one_rows(self):
        c2r, r2c = convert.conversion_tables(1)
        # J_{1,0} = H_1(x) + i H_1(y), i.e. z = x + i y
        assert c2r.coefficient(1, 1) == ONE
        assert c2r.coefficient(1, 0) == EC(0, 1)
        # H_1(x) = (J_{1,0} + J_{0,1}) / 2
        assert r2c.coefficient(1, 0) == EC(Fraction(1, 2))
        assert r2c.coefficient(1, 1) == EC(Fraction(1, 2))

    def test_tables_are_built_once_per_degree(self):
        first = convert.conversion_tables(4)
        assert convert.conversion_tables(4) is first
        # immutable: a shared table cannot be altered by one of its users
        assert all(isinstance(row, tuple) for table in first for row in table.rows)
        with pytest.raises(AttributeError):
            first[0].rows = ()

    @pytest.mark.parametrize("n", range(7))
    def test_roundtrip_is_identity(self, n):
        c2r, r2c = convert.conversion_tables(n)
        for prod in (c2r.matmul(r2c), r2c.matmul(c2r)):
            for i in range(n + 1):
                for j in range(n + 1):
                    assert prod[i][j] == (ONE if i == j else ZERO)

    @pytest.mark.parametrize("n", range(6))
    def test_tables_are_true_polynomial_identities(self, n):
        c2r, r2c = convert.conversion_tables(n)
        for m in range(n + 1):
            total = BiPoly()
            for k in range(n + 1):
                total = total + c2r.coefficient(m, k) * (
                    real_hermite(k) * real_hermite_y(n - k))
            assert total == complex_hermite(m, n - m)
        for k in range(n + 1):
            total = BiPoly()
            for m in range(n + 1):
                total = total + r2c.coefficient(k, m) * complex_hermite(m, n - m)
            assert total == real_hermite(k) * real_hermite_y(n - k)


class TestRotationExpand:
    def test_linear(self):
        theta = 0.813
        coeffs = convert.rotation_expand(1, theta)
        assert coeffs == pytest.approx([math.sin(theta), math.cos(theta)])

    def test_quarter_turn(self):
        assert convert.rotation_expand(2, math.pi / 4) == \
            pytest.approx([0.5, 1.0, 0.5])

    def test_identity_rotation(self):
        assert convert.rotation_expand(2, (Fraction(1), Fraction(0))) == [0, 0, 1]

    def test_exact_values(self):
        got = convert.rotation_expand(2, (Fraction(3, 5), Fraction(4, 5)))
        assert got == [Fraction(16, 25), Fraction(24, 25), Fraction(9, 25)]

    def test_exact_pair_must_be_on_circle(self):
        with pytest.raises(ValueError):
            convert.rotation_expand(2, (Fraction(1, 2), Fraction(1, 2)))


class TestThetaGrid:
    def test_default_is_admissible(self):
        g = convert.ThetaGrid.default(5)
        assert g.n == 5
        assert all(a > b for a, b in zip(g.angles, g.angles[1:]))

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            convert.ThetaGrid((1.0, 1.0))
        with pytest.raises(ValueError):
            convert.ThetaGrid((0.5, 1.0))
        with pytest.raises(ValueError):
            convert.ThetaGrid((math.pi, 1.0))

    def test_exact_grid_carries_trig(self):
        g = convert.exact_grid(4)
        assert g.trig is not None and len(g.trig) == 5
        for (c, s), angle in zip(g.trig, g.angles):
            assert math.cos(angle) == pytest.approx(float(c))
            assert math.sin(angle) == pytest.approx(float(s))


class TestAngleMatrix:
    def test_degree_zero(self):
        am = convert.build_angle_matrix(convert.ThetaGrid((1.0,)))
        assert am.matrix.tolist() == [[1.0]]
        assert am.determinant == pytest.approx(1.0)

    def test_degree_one_entries_and_det(self):
        g = convert.ThetaGrid((math.pi / 2, math.pi / 4))
        am = convert.build_angle_matrix(g)
        r = math.sqrt(2) / 2
        assert am.matrix == pytest.approx(np.array([[1.0, 0.0], [r, r]]), abs=1e-15)
        assert am.determinant == pytest.approx(r)
        assert convert.det_closed_form(g) == pytest.approx(math.sin(math.pi / 4))

    def test_degree_two_closed_form(self):
        g = convert.ThetaGrid((3 * math.pi / 4, math.pi / 2, math.pi / 4))
        am = convert.build_angle_matrix(g)
        want = convert.det_closed_form(g)
        assert abs(am.determinant - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("n", range(7))
    def test_exact_determinant_law(self, n):
        g = convert.exact_grid(n)
        am = convert.build_angle_matrix_exact(g)
        assert am.determinant == convert.det_closed_form(g)
        # exact inverse really inverts
        size = n + 1
        for i in range(size):
            for j in range(size):
                s = sum(am.matrix[i][k] * am.inverse[k][j] for k in range(size))
                assert s == (1 if i == j else 0)

    def test_inverse_residual_certificate(self):
        for n in range(9):
            am = convert.build_angle_matrix(convert.ThetaGrid.default(n))
            resid = np.abs(am.matrix @ am.inverse - np.eye(n + 1)).max()
            assert resid <= 1e-10

    def test_ill_conditioned_grid_is_rejected(self):
        base = 1.0
        angles = tuple(base - k * 1e-9 for k in range(9))
        with pytest.raises(convert.IllConditionedError):
            convert.build_angle_matrix(convert.ThetaGrid(angles))


class TestHermiteToComplex:
    def test_degree_zero(self):
        assert convert.hermite_to_complex_coeffs(0, (Fraction(1), Fraction(0))) == [ONE]

    def test_axis_aligned(self):
        got = convert.hermite_to_complex_coeffs(1, (Fraction(1), Fraction(0)))
        assert got == [EC(Fraction(1, 2)), EC(Fraction(1, 2))]
        got = convert.hermite_to_complex_coeffs(2, (Fraction(1), Fraction(0)))
        assert got == [EC(Fraction(1, 4)), EC(Fraction(1, 2)), EC(Fraction(1, 4))]

    @pytest.mark.parametrize("trig", [(Fraction(1), Fraction(0)),
                                      (Fraction(3, 5), Fraction(4, 5)),
                                      (Fraction(-5, 13), Fraction(12, 13))])
    def test_polynomial_identity(self, trig):
        for n in range(7):
            d = convert.hermite_to_complex_coeffs(n, trig)
            total = BiPoly()
            for k in range(n + 1):
                total = total + d[k] * complex_hermite(k, n - k)
            assert total == hermite_of_linear(n, trig[0], trig[1])

    @pytest.mark.parametrize("n", range(7))
    def test_factors_through_rotation_and_table(self, n):
        # substituting the rotation identity into the real-to-complex table
        # must reproduce these coefficients exactly
        trig = (Fraction(-3, 5), Fraction(4, 5))
        _, r2c = convert.conversion_tables(n)
        rot = convert.rotation_expand(n, trig)
        d = convert.hermite_to_complex_coeffs(n, trig)
        for k in range(n + 1):
            via = sum((EC(rot[l]) * r2c.coefficient(l, k) for l in range(n + 1)), ZERO)
            assert via == d[k]


def hermite_to_complex_by_triple_loop(n, cos_t, sin_t):
    """The defining sum of d_k, term by term, with a power per term."""
    c, i_s = EC(cos_t), EC(0, sin_t)
    out = []
    for k in range(n + 1):
        acc = ZERO
        for r in range(k + 1):
            for l in range(n + 1):
                w = math.comb(n, l) * math.comb(l, r) * math.comb(n - l, k - r)
                acc = acc + (-1) ** (k - r) * w * c ** l * i_s ** (n - l)
        out.append(acc * Fraction(1, 2 ** n))
    return out


@pytest.mark.parametrize("trig", [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                                  (Fraction(4, 5), Fraction(-3, 5)),
                                  (Fraction(-33, 65), Fraction(56, 65))])
@pytest.mark.parametrize("n", range(9))
def test_hermite_to_complex_matches_the_triple_loop(n, trig):
    assert convert.hermite_to_complex_coeffs(n, trig) == \
        hermite_to_complex_by_triple_loop(n, *trig)


class TestComplexToHermite:
    def test_degree_zero(self):
        g = convert.exact_grid(0)
        assert convert.complex_to_hermite_coeffs(0, 0, g) == [ONE]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exact_reconstruction(self, n):
        g = convert.exact_grid(n)
        am = convert.build_angle_matrix_exact(g)
        for k in range(n + 1):
            coeffs = convert.complex_to_hermite_coeffs(n, k, g, am)
            total = BiPoly()
            for i, (c, s) in enumerate(g.trig):
                total = total + coeffs[i] * hermite_of_linear(n, c, s)
            assert total == complex_hermite(k, n - k)

    def test_pathwise_rank_one_reconstruction(self):
        # J_{1,0}(Z(h)) from two rotated degree-one Hermites, 100 sample points
        grid = convert.ThetaGrid((math.pi / 2, math.pi / 4))
        coeffs = convert.complex_to_hermite_coeffs(1, 1, grid)
        rng = np.random.default_rng(12)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h *= math.sqrt(2) / np.linalg.norm(h)
        batch = sample_batch(3, 100, seed=77)
        z_h = (batch.zeta @ h) / math.sqrt(2)
        lhs = z_h  # J_{1,0}(w) = w
        rhs = np.zeros(100, dtype=complex)
        for i, t in enumerate(grid.angles):
            fg = np.exp(1j * t) * np.conj(h) / math.sqrt(2)
            f, g = fg.real, fg.imag
            rhs += coeffs[i] * (batch.xi @ f + batch.eta @ g)
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_index_validation(self):
        g = convert.exact_grid(2)
        with pytest.raises(ValueError):
            convert.complex_to_hermite_coeffs(2, 3, g)
        with pytest.raises(ValueError):
            convert.complex_to_hermite_coeffs(3, 1, g)
