"""Hermite polynomial construction against independent symbolic oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from chaoslab.exact import EC, ZERO, ExactComplex
from chaoslab.hermite import (BiPoly, complex_hermite, evaluate,
                              expand_monomial, hermite_coeffs, hermite_of_linear,
                              ou_apply, ou_apply_numeric, ou_eigenvalue,
                              real_hermite, real_hermite_y)


def sympy_hermite_coeffs(n):
    """Independent oracle: differentiate exp(-x^2/2) symbolically n times."""
    x = sympy.Symbol("x")
    expr = (-1) ** n * sympy.exp(x ** 2 / 2) * sympy.diff(sympy.exp(-x ** 2 / 2), x, n)
    poly = sympy.Poly(sympy.expand(expr), x)
    out = [0] * (n + 1)
    for (k,), c in poly.terms():
        out[k] = int(c)
    return tuple(out)


def closed_form_j(m, n, rho=Fraction(2)):
    """Independent cross-check: alternating-sum closed form of J_{m,n}."""
    rho = Fraction(rho)
    terms = {}
    for i in range(min(m, n) + 1):
        c = Fraction((-1) ** i) * rho ** i * math.factorial(i) \
            * math.comb(m, i) * math.comb(n, i)
        terms[(m - i, n - i)] = c
    return BiPoly(terms)


class TestRealHermite:
    def test_first_examples(self):
        assert hermite_coeffs(0) == (1,)
        assert hermite_coeffs(1) == (0, 1)
        # H_3 = x^3 - 3x, from three symbolic differentiations
        assert hermite_coeffs(3) == sympy_hermite_coeffs(3) == (0, -3, 0, 1)

    @pytest.mark.parametrize("n", range(13))
    def test_against_sympy(self, n):
        assert hermite_coeffs(n) == sympy_hermite_coeffs(n)

    @pytest.mark.parametrize("n", range(9))
    def test_leading_coefficient_and_parity(self, n):
        coeffs = hermite_coeffs(n)
        assert coeffs[n] == 1
        # H_n(-x) = (-1)^n H_n(x): coefficients vanish off the parity of n
        assert all(c == 0 for k, c in enumerate(coeffs) if (k - n) % 2)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_three_term_recurrence_is_derived(self, n):
        # x H_n - n H_{n-1} = H_{n+1}, checked against the derivative definition
        cur, prev, nxt = hermite_coeffs(n), hermite_coeffs(n - 1), hermite_coeffs(n + 1)
        want = [0] * (n + 2)
        for k, c in enumerate(cur):
            want[k + 1] += c
        for k, c in enumerate(prev):
            want[k] -= n * c
        assert tuple(want) == nxt

    def test_real_hermite_bipoly_roundtrip(self):
        p = real_hermite(4)
        assert p.to_xy().terms() == {(4, 0): EC(1), (2, 0): EC(-6), (0, 0): EC(3)}
        assert from_xy_by_products(p.to_xy().terms()) == p


class TestComplexHermite:
    def test_base_cases(self):
        assert complex_hermite(0, 0) == BiPoly.constant(1)
        assert complex_hermite(1, 0) == BiPoly.z()
        assert complex_hermite(1, 1) == BiPoly({(1, 1): 1, (0, 0): -2})
        assert complex_hermite(1, 1, rho=Fraction(3)) == BiPoly({(1, 1): 1, (0, 0): -3})

    @pytest.mark.parametrize("args", [(-1, 0), (0, -2), (1.5, 0), (1.0, 0), ("1", 0),
                                      (0, 0, 0), (1, 1, Fraction(-1, 2))],
                             ids=["negative-m", "negative-n", "fraction", "float",
                                  "string", "rho-zero", "rho-negative"])
    def test_index_validation(self, args):
        complex_hermite(1, 0)  # a built integer index must not admit its float twin
        with pytest.raises(ValueError):
            complex_hermite(*args)

    @pytest.mark.parametrize("rho", [Fraction(1), Fraction(2), Fraction(1, 2)])
    def test_closed_form_cross_check(self, rho):
        for m in range(7):
            for n in range(7 - m):
                assert complex_hermite(m, n, rho=rho) == closed_form_j(m, n, rho)

    @pytest.mark.parametrize("rho", [Fraction(1), Fraction(2)])
    def test_conjugation_symmetry(self, rho):
        for m in range(7):
            for n in range(7 - m):
                assert complex_hermite(m, n, rho=rho).conj() == \
                    complex_hermite(n, m, rho=rho)

    def test_evaluation_examples(self):
        assert evaluate(complex_hermite(0, 0), 2.3 - 0.7j) == 1
        assert evaluate(complex_hermite(1, 0), 3 + 4j) == 3 + 4j
        assert evaluate(complex_hermite(1, 1), 1 + 1j) == 0

    def test_vectorized_evaluation(self):
        z = np.array([1 + 1j, 0.5 - 0.25j, -2j])
        p = complex_hermite(2, 1)
        vec = p(z)
        assert vec.shape == (3,)
        for i, zi in enumerate(z):
            assert vec[i] == pytest.approx(p(complex(zi)))


class TestOrnsteinUhlenbeck:
    def test_kills_constants(self):
        assert ou_apply(complex_hermite(0, 0), (Fraction(3, 5), Fraction(4, 5))).is_zero()

    def test_radial_case(self):
        # at theta = 0 the generator sends J_{1,1} to -2 J_{1,1}
        j11 = complex_hermite(1, 1)
        assert ou_apply(j11, (Fraction(1), Fraction(0))) == EC(-2) * j11

    def test_degree_one_phase(self):
        cos_t, sin_t = Fraction(4, 5), Fraction(3, 5)
        out = ou_apply(complex_hermite(1, 0), (cos_t, sin_t))
        assert out == ExactComplex(-cos_t, -sin_t) * BiPoly.z()

    def test_exact_eigenrelation(self):
        for cos_t, sin_t in [(Fraction(1), Fraction(0)), (Fraction(4, 5), Fraction(3, 5)),
                             (Fraction(3, 5), Fraction(-4, 5))]:
            for m in range(7):
                for n in range(7 - m):
                    p = complex_hermite(m, n)
                    assert ou_apply(p, (cos_t, sin_t)) == \
                        ou_eigenvalue(m, n, cos_t, sin_t) * p

    def test_numeric_eigenrelation(self):
        rng = np.random.default_rng(5)
        for theta in rng.uniform(-1.5, 1.5, size=10):
            p = complex_hermite(2, 1)
            lam = ou_eigenvalue(2, 1, math.cos(theta), math.sin(theta))
            got = ou_apply_numeric(p, float(theta))
            want = {k: lam * c.to_complex() for k, c in p.terms().items()}
            for key in set(got) | set(want):
                assert abs(got.get(key, 0) - want.get(key, 0)) <= 1e-12

    @given(terms=st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.builds(ExactComplex, st.fractions(-2, 2, max_denominator=7),
                  st.fractions(-2, 2, max_denominator=7)),
        min_size=1, max_size=6),
        trig=st.sampled_from([(Fraction(1), Fraction(0)), (Fraction(4, 5), Fraction(3, 5)),
                              (Fraction(3, 5), Fraction(-4, 5)),
                              (Fraction(12, 13), Fraction(5, 13))]))
    @settings(max_examples=60, deadline=None)
    def test_exact_and_numeric_generators_agree(self, terms, trig):
        p = BiPoly(terms)
        exact = ou_apply(p, trig)
        # not an eigenfunction: A p is no multiple of p
        k0, c0 = next(iter(p.terms().items()), ((0, 0), ZERO))
        keys = set(p.terms()) | set(exact.terms())
        assume(any(exact.coefficient(*k) * c0 != exact.coefficient(*k0) * p.coefficient(*k)
                   for k in keys))
        got = ou_apply_numeric(p, math.atan2(trig[1], trig[0]))
        for key in keys | set(got):
            assert abs(got.get(key, 0) - exact.coefficient(*key).to_complex()) <= 1e-12

    def test_rejects_bad_angles(self):
        p = complex_hermite(1, 1)
        with pytest.raises(ValueError):
            ou_apply(p, (Fraction(-3, 5), Fraction(4, 5)))  # cos <= 0
        with pytest.raises(ValueError):
            ou_apply(p, (Fraction(1, 2), Fraction(1, 2)))  # not on the circle
        with pytest.raises(ValueError):
            ou_apply_numeric(p, 2.0)
        with pytest.raises(ValueError):
            ou_apply_numeric(p, 0.3, rho=-1)


class TestMonomialExpansion:
    def test_examples(self):
        assert expand_monomial(1, 0) == {(1, 0): 1}
        assert expand_monomial(1, 1) == {(1, 1): 1, (0, 0): 2}
        assert expand_monomial(2, 1) == {(2, 1): 1, (1, 0): 4}

    def test_roundtrip(self):
        for r in range(6):
            for s in range(6):
                total = BiPoly()
                for (m, n), c in expand_monomial(r, s).items():
                    total = total + c * complex_hermite(m, n)
                assert total == BiPoly({(r, s): 1})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            expand_monomial(-1, 0)


small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
exact_coeffs = st.builds(ExactComplex, small_fracs, small_fracs, small_fracs, small_fracs)


@given(st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.builds(ExactComplex, small_fracs, small_fracs),
    max_size=6))
@settings(max_examples=40, deadline=None)
def test_xy_form_is_an_exact_bijection(terms):
    p = BiPoly(terms)
    assert from_xy_by_products(p.to_xy().terms()) == p


# -- closed-form constructions against products of linear factors ----------------

# x = (z + zbar)/2 and y = (z - zbar)/(2i), multiplied out with BiPoly's own
# product: the reference the closed forms must equal
X_REF = BiPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
Y_REF = BiPoly({(1, 0): EC(0, Fraction(-1, 2)), (0, 1): EC(0, Fraction(1, 2))})


def power_by_products(p, k):
    out = BiPoly.constant(1)
    for _ in range(k):
        out = out * p
    return out


def from_xy_by_products(xy_terms):
    out = BiPoly()
    for (i, j), c in xy_terms.items():
        out = out + c * power_by_products(X_REF, i) * power_by_products(Y_REF, j)
    return out


@given(st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                       exact_coeffs, max_size=6))
@example({})
@example({(2, 0): EC(1), (0, 2): EC(1)})     # |z|^2: the z^2 and zbar^2 keys cancel
@example({(2, 0): EC(1), (0, 2): EC(-1)})    # Re z^2: the z zbar key cancels
@example({(1, 0): EC(1), (0, 1): EC(0, 1)})  # z: the zbar key cancels
@example({(8, 0): ExactComplex(0, 0, 1, 1), (0, 8): EC(-3), (3, 5): EC(0, 2)})
@settings(max_examples=60, deadline=None)
def test_from_xy_matches_products_of_x_and_y(xy_terms):
    # to_xy inverts the construction from products of x and y
    nonzero = {k: c for k, c in xy_terms.items() if not c.is_zero()}
    assert from_xy_by_products(xy_terms).to_xy().terms() == nonzero


@pytest.mark.parametrize("cx, cy", [
    (Fraction(1), Fraction(0)), (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-5, 13), Fraction(12, 13)), (Fraction(8, 17), Fraction(-15, 17)),
    (ExactComplex(0, 0, Fraction(1, 2), 0), ExactComplex(0, 0, Fraction(1, 2), 0)),
    (ExactComplex(1, 2, 0, -1), EC(Fraction(-1, 3), Fraction(1, 4))),
], ids=["axis", "3-4-5", "5-12-13", "8-15-17", "sqrt2-diagonal", "complex"])
@pytest.mark.parametrize("n", range(9))
def test_hermite_of_linear_matches_powers_of_the_linear_form(n, cx, cy):
    lin = cx * X_REF + cy * Y_REF
    want = BiPoly()
    for k, c in enumerate(hermite_coeffs(n)):
        want = want + c * power_by_products(lin, k)
    assert hermite_of_linear(n, cx, cy) == want


def test_cached_real_hermites_survive_a_mutated_terms_copy():
    # H_5 = x^5 - 10 x^3 + 15 x; its odd powers of y carry the sign of (-i)^j
    for make, key in ((real_hermite, lambda k: (k, 0)), (real_hermite_y, lambda k: (0, k))):
        want = {key(5): EC(1), key(3): EC(-10), key(1): EC(15)}
        make(5).terms().clear()
        assert make(5) is make(5)
        assert make(5).to_xy().terms() == want


def test_linear_composition_matches_pointwise():
    p = hermite_of_linear(4, Fraction(3, 5), Fraction(4, 5))
    for z in (0.3 + 1.1j, -2 + 0.5j):
        x, y = z.real, z.imag
        direct = sum(c * (0.6 * x + 0.8 * y) ** k
                     for k, c in enumerate(hermite_coeffs(4)))
        assert p(z).real == pytest.approx(direct)
        assert p(z).imag == pytest.approx(0, abs=1e-12)


# -- floating evaluation against exact values at dyadic points -----------------------


def exact_value(p, x, y):
    """p at z = x + iy from its exact real-coordinate form, rounded once."""
    return sum((c * EC(x ** i * y ** j) for (i, j), c in p.to_xy().terms().items()),
               ZERO).to_complex()


def term_scale(p, z):
    """sum |c_ab| |z|^(a+b): the size of p's terms at z, which bounds the
    rounding error of any term-by-term evaluation."""
    return sum(abs(c.to_complex()) * abs(z) ** (a + b) for (a, b), c in p.terms().items())


# dyadic coordinates with 30-bit fractions, so the floats hold them exactly
# and the products need rounding
dyadics = st.builds(lambda k: Fraction(k, 1 << 30), st.integers(-(3 << 30), 3 << 30))


@given(terms=st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                             exact_coeffs, max_size=7),
       xs=st.lists(dyadics, min_size=1, max_size=6),
       ys=st.lists(dyadics, min_size=6, max_size=6),
       real_input=st.booleans())
@example(terms={}, xs=[Fraction(3, 2)], ys=[Fraction(1, 4)] * 6, real_input=False)
@example(terms={(0, 0): EC(Fraction(-7, 3))}, xs=[Fraction(3, 2), Fraction(-1, 8)],
         ys=[Fraction(1, 4)] * 6, real_input=True)
@example(terms={(4, 0): EC(1), (0, 4): ExactComplex(0, 0, 1), (6, 2): EC(-2)},
         xs=[Fraction(5, 4)], ys=[Fraction(-3, 8)] * 6, real_input=False)
@settings(max_examples=60, deadline=None)
def test_array_evaluation_matches_exact_xy_form(terms, xs, ys, real_input):
    # covers complex coefficients, gaps in the powers of |z|^2 (e.g. (6, 2)
    # and (4, 0) without (5, 1)), several angular frequencies a - b of both signs,
    # a constant-only and the zero polynomial, on real and complex arrays
    p = BiPoly(terms)
    pts = [(x, Fraction(0) if real_input else y) for x, y in zip(xs, ys)]
    z = np.array([float(x) for x, _ in pts]) if real_input else \
        np.array([complex(x, y) for x, y in pts])
    got = evaluate(p, z)
    assert got.dtype == np.complex128 and got.shape == z.shape
    if p.is_zero():
        assert (got == 0).all()
        return
    if p.degree() == 0:
        assert (got == p.coefficient(0, 0).to_complex()).all()
        return
    for k, (x, y) in enumerate(pts):
        zk = complex(x, y)
        assert abs(got[k] - exact_value(p, x, y)) <= 1e-12 * term_scale(p, zk)


@pytest.mark.parametrize("a, b", [(a, b) for a in range(9) for b in range(9 - a)])
def test_complex_hermite_values_at_dyadic_points(a, b):
    """J_{a,b}, a + b <= 8, within 1e-12 of |J| at random dyadic points.
    Near a root the terms cancel and no evaluation order is relative to |J|
    itself, so the error is measured against max(|J|, 1% of the term size)."""
    rnd = random.Random(1000 * a + b)
    pts = [(Fraction(rnd.randint(-3 << 30, 3 << 30), 1 << 30),
            Fraction(rnd.randint(-3 << 30, 3 << 30), 1 << 30)) for _ in range(40)]
    p = complex_hermite(a, b)
    got = evaluate(p, np.array([complex(x, y) for x, y in pts]))
    for k, (x, y) in enumerate(pts):
        want = exact_value(p, x, y)
        size = max(abs(want), 0.01 * term_scale(p, complex(x, y)))
        assert abs(got[k] - want) <= 1e-12 * size, (a, b, x, y)


def test_scalar_and_array_evaluation_agree():
    rnd = random.Random(3)
    pts = [complex(rnd.uniform(-3, 3), rnd.uniform(-3, 3)) for _ in range(20)]
    for p in (complex_hermite(6, 4), complex_hermite(0, 3),
              BiPoly({(2, 0): ExactComplex(1, 0, 2), (1, 3): EC(-1), (0, 0): EC(5)})):
        vec = evaluate(p, np.array(pts))
        for k, z in enumerate(pts):
            one = evaluate(p, z)
            assert isinstance(one, complex)
            # numpy's complex kernels may round differently from Python's
            assert abs(one - vec[k]) <= 1e-14 * term_scale(p, z)


def test_radial_plan_is_built_once_per_polynomial(monkeypatch):
    from chaoslab import hermite
    built = []
    real_plan = hermite._radial_plan
    monkeypatch.setattr(hermite, "_radial_plan", lambda p: built.append(p) or real_plan(p))
    p = BiPoly({(3, 1): EC(2), (0, 2): EC(1)})
    z = np.array([0.5 + 1j, -1.25 + 0.5j])
    first = p(z)
    assert (p(z) == first).all() and p(0.5 + 1j) == pytest.approx(first[0])
    assert built == [p]
