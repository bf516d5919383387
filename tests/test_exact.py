"""ExactComplex arithmetic against the dense Q(i, sqrt(2)) formulas.

The class keeps five ints over one denominator; these tests compare it with
the plain formulas over all four components, written out here on Fraction
4-tuples (a, b, c, d) for (a + b*sqrt2) + (c + d*sqrt2)*i, and check that
the stored form is canonical.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chaoslab.exact import I_UNIT, ONE, SQRT2, ZERO, ExactComplex


def dense_mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 2 * b1 * d2 + 2 * d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)


def dense_add(p, q):
    return tuple(x + y for x, y in zip(p, q))


def dense_sub(p, q):
    return tuple(x - y for x, y in zip(p, q))


def dense_inverse(p):
    a, b, c, d = p
    conj = (a, b, -c, -d)
    n0, n1, _, _ = dense_mul(p, conj)  # real: (n0 + n1*sqrt2)
    den = n0 * n0 - 2 * n1 * n1
    return dense_mul(conj, (n0 / den, -n1 / den, Fraction(0), Fraction(0)))


def parts(x):
    return (x.a, x.b, x.c, x.d)


def from_parts(p):
    a, b, c, d = p
    return ExactComplex(a, c, b, d)


def assert_matches(result, expected):
    assert isinstance(result, ExactComplex)
    assert all(type(v) is Fraction for v in parts(result)), parts(result)
    assert parts(result) == tuple(Fraction(v) for v in expected)
    exp = from_parts(expected)
    assert result == exp and hash(result) == hash(exp)


# Each component is zero about half the time, so sparse and dense patterns
# (Gaussian rationals, pure sqrt(2) multiples, all zero) all occur.
component = st.one_of(st.just(0), st.integers(-4, 4),
                      st.fractions(min_value=-5, max_value=5, max_denominator=7))
values = st.tuples(component, component, component, component).map(
    lambda p: from_parts(tuple(Fraction(v) for v in p)))
scalars = st.one_of(st.integers(-6, 6),
                    st.fractions(min_value=-5, max_value=5, max_denominator=7))


@given(values, values)
@settings(max_examples=200, deadline=None)
def test_binary_ops_match_dense_formulas(x, y):
    before = (parts(x), parts(y))
    assert_matches(x * y, dense_mul(parts(x), parts(y)))
    assert_matches(x + y, dense_add(parts(x), parts(y)))
    assert_matches(x - y, dense_sub(parts(x), parts(y)))
    assert (parts(x), parts(y)) == before  # operands are never mutated


@given(values, scalars)
@settings(max_examples=200, deadline=None)
def test_scalar_operands_both_orders(x, s):
    sp = (Fraction(s), Fraction(0), Fraction(0), Fraction(0))
    xp = parts(x)
    assert_matches(x * s, dense_mul(xp, sp))
    assert_matches(s * x, dense_mul(sp, xp))
    assert_matches(x + s, dense_add(xp, sp))
    assert_matches(s + x, dense_add(sp, xp))
    assert_matches(x - s, dense_sub(xp, sp))
    assert_matches(s - x, dense_sub(sp, xp))
    assert parts(x) == xp


@given(values)
@settings(max_examples=100, deadline=None)
def test_inverse_and_negation(x):
    assert_matches(-x, tuple(-v for v in parts(x)))
    assert_matches(x.conjugate(), (x.a, x.b, -x.c, -x.d))
    assert_matches(x.real(), (x.a, x.b, 0, 0))
    assert_matches(x.imag(), (x.c, x.d, 0, 0))
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    assert_matches(x.inverse(), dense_inverse(parts(x)))
    assert_matches(x * x.inverse(), (1, 0, 0, 0))


def test_fixed_identities():
    assert SQRT2 * SQRT2 == 2
    assert I_UNIT * I_UNIT == -1
    assert (SQRT2 * I_UNIT) * (SQRT2 * I_UNIT) == -2
    x = ExactComplex(Fraction(3, 4), -2, Fraction(1, 3), 5)
    for z in (x, ZERO, ONE, SQRT2):
        assert z + ZERO == z and ZERO + z == z
        assert z - ZERO == z and z * 0 == ZERO and 0 * z == ZERO
        assert z * ONE == z and z - z == ZERO
    assert_matches(x + 0, parts(x))
    assert_matches(ExactComplex(0) * ExactComplex(0), (0, 0, 0, 0))


# -- the canonical five-int form ---------------------------------------------


def fields(x):
    return (x.p, x.q, x.r, x.s, x.n)


def assert_canonical(x):
    assert all(type(v) is int for v in fields(x)), fields(x)
    assert x.n > 0 and math.gcd(*fields(x)) == 1, fields(x)


def assert_same(x, y):
    assert_canonical(x)
    assert_canonical(y)
    assert fields(x) == fields(y) and hash(x) == hash(y)


def test_zero_and_reduced_construction():
    zero = (0, 0, 0, 0, 1)
    assert fields(ZERO) == zero and fields(ExactComplex(Fraction(0, 5))) == zero
    assert_same(ExactComplex(Fraction(2, 4)), ExactComplex(Fraction(1, 2)))
    assert_same(ExactComplex(Fraction(6, 4), Fraction(-3, 9), Fraction(10, 8), 2),
                ExactComplex(Fraction(3, 2), Fraction(-1, 3), Fraction(5, 4), 2))
    assert fields(ExactComplex(Fraction(1, 6), 0, Fraction(1, 4), 0)) == (2, 3, 0, 0, 12)


@given(values, values, scalars)
@settings(max_examples=200, deadline=None)
def test_equal_values_by_different_routes_have_equal_fields(x, y, s):
    for v in (x + y, x - y, x * y, x * s, s * x, x + s, -x, x.conjugate(), x.real(),
              x.imag()):
        assert_canonical(v)
    assert fields(x - x) == (0, 0, 0, 0, 1) and fields(x * 0) == (0, 0, 0, 0, 1)
    assert_same((x + y) - y, x)
    assert_same(x * y, y * x)
    assert_same(x * s, ExactComplex(s) * x)
    assert_same((x + s) - s, x)
    if y:
        assert_same((x * y) * y.inverse(), x)
        assert_same((x * y) / y, x)
    if x:
        assert_same(x.inverse().inverse(), x)
        assert_same(x * x.inverse(), ExactComplex(1))


@given(values)
@settings(max_examples=200, deadline=None)
def test_to_complex_is_bit_identical_to_fraction_floats(x):
    r2 = math.sqrt(2.0)
    want = complex(float(x.a) + float(x.b) * r2, float(x.c) + float(x.d) * r2)
    got = x.to_complex()
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@given(values)
@settings(max_examples=200, deadline=None)
def test_repr_renders_the_fraction_components(x):
    a, b, c, d = parts(x)
    assert all(type(v) is Fraction for v in (a, b, c, d))
    terms = [t for v, t in ((a, f"{a}"), (b, f"{b}*r2"), (c, f"{c}*i"), (d, f"{d}*r2*i")) if v]
    assert repr(x) == "EC(" + (" + ".join(terms) if terms else "0") + ")"
    if not (b or d):
        want = str(a) if c == 0 else f"{a} {'+' if c > 0 else '-'} {abs(c)}*i"
        assert x.rational_str() == want
