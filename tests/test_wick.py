"""Wick oracle against brute-force matching enumeration."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from chaoslab.exact import EC, SQRT2, ExactComplex
from chaoslab.hermite import BiPoly, complex_hermite
from chaoslab.wick import (GaussPoly, GaussianFamily, embed, expect, expect_complex,
                           isserlis_moment)


def brute_moment(cov, exponents):
    """Independent oracle: explicit recursion over items, no memoization."""
    items = [i for i, e in enumerate(exponents) for _ in range(e)]
    if len(items) % 2:
        return Fraction(0)

    def rec(rest):
        if not rest:
            return Fraction(1)
        first, tail = rest[0], rest[1:]
        total = Fraction(0)
        for j in range(len(tail)):
            total += cov[first][tail[j]] * rec(tail[:j] + tail[j + 1:])
        return total

    return rec(items)


class TestIsserlis:
    def test_single_coordinate_double_factorials(self):
        fam = GaussianFamily.standard(1)
        for k in range(1, 7):
            want = math.prod(range(1, 2 * k, 2))  # (2k-1)!!
            assert isserlis_moment(fam, [2 * k]) == want

    def test_examples(self):
        fam = GaussianFamily.standard(2)
        assert isserlis_moment(GaussianFamily.standard(1), [4]) == 3
        assert isserlis_moment(fam, [2, 2]) == 1
        assert isserlis_moment(fam, [3, 2]) == 0

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            isserlis_moment(GaussianFamily.standard(2), [2, -1])
        with pytest.raises(ValueError):  # not truncated to E g^2
            isserlis_moment(GaussianFamily.standard(1), [2.7])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            isserlis_moment(GaussianFamily.standard(2), [2])

    def test_against_brute_force(self):
        import random
        rnd = random.Random(7)
        for _ in range(25):
            d = rnd.randint(1, 3)
            # random PSD covariance A A^T
            a = [[Fraction(rnd.randint(-2, 2), rnd.randint(1, 2))
                  for _ in range(d)] for _ in range(d)]
            cov = [[sum(a[i][k] * a[j][k] for k in range(d)) for j in range(d)]
                   for i in range(d)]
            fam = GaussianFamily(cov)
            exps = [rnd.randint(0, 3) for _ in range(d)]
            if sum(exps) > 8:
                continue
            assert isserlis_moment(fam, exps) == brute_moment(cov, exps)


_SCALED = st.builds(Fraction, st.integers(-3, 3), st.integers(2, 6))


@st.composite
def scaled_moment_cases(draw):
    """A family whose covariance has a denominator above 1 (so ``scale`` > 1),
    either A A^T for a rational A or the real form of a complex Gram matrix
    B B^* with Fraction entries, and a polynomial of total degree <= 8."""
    d = draw(st.integers(1, 2))
    if draw(st.booleans()):
        d += 1
        a = [[draw(_SCALED) for _ in range(d)] for _ in range(d)]
        fam = GaussianFamily([[sum(a[i][k] * a[j][k] for k in range(d))
                               for j in range(d)] for i in range(d)])
    else:
        b = [[ExactComplex(draw(_SCALED), draw(_SCALED)) for _ in range(d)]
             for _ in range(d)]
        fam = GaussianFamily.from_complex_gram(
            [[sum((b[i][k] * b[j][k].conjugate() for k in range(d)), EC(0))
              for j in range(d)] for i in range(d)])
    assume(fam.scale > 1)
    exps = st.lists(st.integers(0, 3), min_size=fam.dim, max_size=fam.dim).filter(
        lambda e: sum(e) <= 8)
    terms = draw(st.lists(st.tuples(exps, st.tuples(_SCALED, _SCALED)),
                          min_size=1, max_size=4))
    return fam, [(tuple(e), ExactComplex(*c)) for e, c in terms]


@given(scaled_moment_cases())
@settings(max_examples=40, deadline=None)
def test_scaled_covariance_matches_brute_force(case):
    # the pairing sum runs on scale * cov in ints; each moment is divided back
    fam, terms = case
    cov = fam.covariance
    poly = GaussPoly(fam.dim, {})
    want = EC(0)
    for exps, coeff in terms:
        poly = poly + GaussPoly(fam.dim, {exps: coeff})
        want = want + coeff * brute_moment(cov, exps)
    for _ in range(2):  # the second round is served from the family's memo
        for exps, _ in terms:
            got = isserlis_moment(fam, exps)
            assert type(got) is Fraction
            assert got == brute_moment(cov, exps)
            assert sum(exps) % 2 or exps in fam._sums
        got = expect(fam, poly)
        assert type(got) is ExactComplex
        assert got == want


@pytest.mark.parametrize("fam", [
    GaussianFamily.from_complex_gram([[EC(1)]]),  # covariance I/2, scale 2
    GaussianFamily([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]]),  # scale 6
], ids=["complex-gram", "rational-2-3"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_expect_with_irrational_coefficients_over_a_scaled_family(fam, data):
    # each term's numerator meets den * scale**top in the int sum; the
    # reference adds c * E[x^k] term by term in ExactComplex
    assert fam.scale > 1
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: sum(e) <= 8)
    terms = data.draw(st.dictionaries(exps, _COEFF, min_size=1, max_size=5))
    want = sum((c * isserlis_moment(fam, k) for k, c in terms.items()), EC(0))
    assert expect(fam, GaussPoly(2, terms)) == want


class TestFamilyValidation:
    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            GaussianFamily([[1, 2], [2, 1]])

    def test_rejects_zero_diag_with_coupling(self):
        with pytest.raises(ValueError):
            GaussianFamily([[0, 1], [1, 0]])

    def test_accepts_singular_psd(self):
        fam = GaussianFamily([[1, 1], [1, 1]])
        assert isserlis_moment(fam, [1, 1]) == 1

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GaussianFamily([[1, 0], [1, 1]])

    @pytest.mark.parametrize("cov", [[[1.0, 0.5], [0.5, 1.0]], [[1, 0.5], [0.5, 1]],
                                     [[1, 0j], [0j, 1]]], ids=["float", "one-float", "complex"])
    def test_rejects_non_rational_entries(self, cov):
        # the oracle is exact: a float family used to be accepted and then
        # failed with TypeError inside expect
        with pytest.raises(ValueError, match="rational"):
            GaussianFamily(cov)

    def test_psd_check_skips_rows_with_a_zero_multiplier(self, monkeypatch):
        # a diagonal covariance needs no row update; updating every row made
        # the check cubic in the dimension even for complex_standard
        subtractions = []
        sub = Fraction.__sub__
        monkeypatch.setattr(Fraction, "__sub__",
                            lambda a, b: subtractions.append(1) or sub(a, b))
        GaussianFamily.complex_standard(8)
        assert not subtractions
        with pytest.raises(ValueError):
            GaussianFamily([[1, 2], [2, 1]])
        assert subtractions


class TestExpect:
    def test_constant(self):
        fam = GaussianFamily.standard(2)
        assert expect(fam, GaussPoly.constant(2, Fraction(5, 3))) == EC(Fraction(5, 3))

    def test_centered_hermite(self):
        fam = GaussianFamily.standard(1)
        h4 = GaussPoly(1, {(4,): 1, (2,): -6, (0,): 3})
        assert expect(fam, h4) == EC(0)

    def test_radial_square(self):
        fam = GaussianFamily.standard(2)
        g = GaussPoly(2, {(2, 0): 1, (0, 2): 1, (0, 0): -2})
        assert expect(fam, g * g) == EC(4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expect(GaussianFamily.standard(1), GaussPoly.constant(2, 1))
        one, two = GaussPoly.constant(1, 1), GaussPoly.constant(2, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            two.plus([(1, two), (1, one)])
        with pytest.raises(ValueError, match="dimension mismatch"):
            BiPoly.constant(1).plus([(1, one)])


@given(st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.fractions(min_value=-3, max_value=3, max_denominator=4)),
                min_size=1, max_size=4),
       st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.fractions(min_value=-3, max_value=3, max_denominator=4)),
                min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_expectation_is_linear(a, b, f_terms, g_terms):
    fam = GaussianFamily.standard(2)
    f = GaussPoly(2, {k: v for k, v in f_terms})
    g = GaussPoly(2, {k: v for k, v in g_terms})
    combo = EC(a) * f + EC(b) * g
    assert expect(fam, combo) == EC(a) * expect(fam, f) + EC(b) * expect(fam, g)


class TestComplexExpectations:
    def test_variance_two(self):
        fam = GaussianFamily.complex_standard(1)
        z, zb = BiPoly.z(), BiPoly.zbar()
        assert expect_complex(fam, [(z * zb, 0)]) == EC(2)
        assert expect_complex(fam, [(z * z, 0)]) == EC(0)  # symmetric: E[zeta^2] = 0

    def test_diagonal_values(self):
        fam = GaussianFamily.complex_standard(1)
        j12 = complex_hermite(1, 2)
        assert expect_complex(fam, [(j12, 0), (j12.conj(), 0)]) == EC(16)

    def test_off_diagonal_vanishes(self):
        fam = GaussianFamily.complex_standard(1)
        assert expect_complex(
            fam, [(complex_hermite(1, 0), 0),
                  (complex_hermite(0, 1).conj(), 0)]) == EC(0)

    def test_orthogonality_sweep(self):
        fam = GaussianFamily.complex_standard(1)
        idx = [(m, n) for m in range(5) for n in range(5) if m + n <= 4]
        for m1, n1 in idx:
            for m2, n2 in idx:
                got = expect_complex(
                    fam, [(complex_hermite(m1, n1), 0),
                          (complex_hermite(m2, n2).conj(), 0)])
                if (m1, n1) == (m2, n2):
                    assert got == EC(math.factorial(m1) * math.factorial(n1)
                                     * 2 ** (m1 + n1))
                else:
                    assert got == EC(0)

    def test_correlated_pair_product_rule(self):
        # E[J_{m,n}(z1) conj(J_{m,n}(z2))] = m! n! gamma^m conj(gamma)^n
        gamma = ExactComplex(Fraction(1, 2), Fraction(1, 3))
        gram = [[EC(2), gamma], [gamma.conjugate(), EC(2)]]
        fam = GaussianFamily.from_complex_gram(gram)
        # cross covariances realized exactly
        assert expect_complex(fam, [(BiPoly.z(), 0), (BiPoly.zbar(), 1)]) == gamma
        assert expect_complex(fam, [(BiPoly.z(), 0), (BiPoly.z(), 1)]) == EC(0)
        for m in range(3):
            for n in range(3 - m):
                got = expect_complex(
                    fam, [(complex_hermite(m, n), 0),
                          (complex_hermite(m, n).conj(), 1)])
                want = EC(math.factorial(m) * math.factorial(n)) \
                    * gamma ** m * gamma.conjugate() ** n
                assert got == want

    def test_gram_must_be_hermitian(self):
        with pytest.raises(ValueError):
            GaussianFamily.from_complex_gram([[EC(2), EC(1)], [EC(0), EC(2)]])

    def test_gram_rejects_sqrt2_entries(self):
        # Hermitian, but E[zeta_0 conj(zeta_1)] = sqrt(2) has no rational covariance
        with pytest.raises(ValueError, match="rational-complex"):
            GaussianFamily.from_complex_gram([[EC(2), SQRT2], [SQRT2, EC(2)]])

    @pytest.mark.parametrize("gram", [
        [[EC(2), EC(0), EC(0)], [EC(0), EC(2), EC(0)]],
        [[EC(2), EC(0)], [EC(0), EC(2)], [EC(0), EC(0)]],
        [[EC(2), EC(0)], [EC(0)]],
    ], ids=["2x3", "3x2", "ragged"])
    def test_gram_must_be_square(self, gram):
        # a 2 x 3 gram must not lose its third column silently
        with pytest.raises(ValueError, match="gram matrix must be square"):
            GaussianFamily.from_complex_gram(gram)

    def test_bipoly_substitution_layout(self):
        # zeta_1 = xi_1 + i eta_1 lives at coordinates 1 and 3 of (xi, xi, eta, eta)
        poly = embed(BiPoly.z().to_xy(), (1, 3), 4)
        assert poly.terms() == {(0, 1, 0, 0): EC(1), (0, 0, 0, 1): EC(0, 1)}
        # expect_complex places zeta_k there itself; distinct gram entries make
        # a swapped or shifted layout give other values
        g01 = ExactComplex(Fraction(1, 2), Fraction(1, 3))
        fam = GaussianFamily.from_complex_gram([[EC(2), g01], [g01.conjugate(), EC(3)]])
        assert fam.complex_dim == 2
        z, zb = BiPoly.z(), BiPoly.zbar()
        assert expect_complex(fam, [(z, 1), (zb, 1)]) == EC(3)
        assert expect_complex(fam, [(z, 0), (zb, 1)]) == g01
        assert expect_complex(fam, [(z, 1), (z, 1)]) == EC(0)

    @pytest.mark.parametrize("var", [-1, 2])
    def test_variable_index_outside_the_family_is_refused(self, var):
        # -1 must not wrap round to zeta_1, nor 2 = K reach past the last eta
        fam = GaussianFamily.from_complex_gram([[EC(2), EC(1)], [EC(1), EC(3)]])
        with pytest.raises(ValueError, match="coordinates"):
            expect_complex(fam, [(BiPoly.z(), var), (BiPoly.zbar(), var)])

    def test_real_family_is_refused(self):
        # only from_complex_gram lays out complex coordinates
        fam = GaussianFamily.standard(2)
        assert fam.complex_dim is None
        with pytest.raises(ValueError, match="no complex coordinates"):
            expect_complex(fam, [(BiPoly.z(), 0), (BiPoly.zbar(), 0)])

    def test_real_form_forms_no_exactcomplex_arithmetic(self, monkeypatch):
        # to_xy expands on the int numerators, so placing the factors of a
        # complex Wick call takes no ExactComplex arithmetic at all
        p, fam = complex_hermite(4, 4), GaussianFamily.complex_standard(1)
        calls = []
        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            op = getattr(ExactComplex, name)
            monkeypatch.setattr(ExactComplex, name,
                                lambda a, b, op=op, name=name: calls.append(name) or op(a, b))
        assert type(p.to_xy()) is GaussPoly
        assert calls == []
        got = expect_complex(fam, [(p, 0), (p.conj(), 0)])
        assert calls == []
        assert got == EC(math.factorial(4) ** 2 * 2 ** 8)


# -- the shared polynomial algebra against sympy --------------------------------------
#
# GaussPoly and its two-variable case BiPoly share one implementation, so the
# algebra is checked here against sympy's expansion of the same expression.
# A GaussPoly's variables are real; BiPoly's are z and zbar = conj(z).

_ROOT2 = sympy.sqrt(2)
_BASIS = {1: (1, 0, 0, 0), _ROOT2: (0, 1, 0, 0), sympy.I: (0, 0, 1, 0),
          _ROOT2 * sympy.I: (0, 0, 0, 1)}


def _rat(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


def _num_to_sympy(c: ExactComplex):
    r = [sympy.Rational(x.numerator, x.denominator) for x in (c.a, c.b, c.c, c.d)]
    return r[0] + r[1] * _ROOT2 + sympy.I * (r[2] + r[3] * _ROOT2)


def _num_from_sympy(x) -> ExactComplex:
    parts = [Fraction(0)] * 4  # a, b (sqrt2), c (i), d (i sqrt2)
    for unit, q in sympy.expand(x).as_coefficients_dict().items():
        parts[_BASIS[unit].index(1)] += _rat(q)
    return ExactComplex(parts[0], parts[2], parts[1], parts[3])


def _symbols(p):
    if isinstance(p, BiPoly):
        return sympy.symbols("z zb")
    return sympy.symbols(f"x0:{p.dim}", real=True)


def _to_sympy(p, xs):
    return sum((_num_to_sympy(c) * sympy.Mul(*(x ** e for x, e in zip(xs, k)))
                for k, c in p.terms().items()), sympy.Integer(0))


def _from_sympy(expr, like, xs):
    """The polynomial of ``like``'s class whose terms are sympy's expansion."""
    terms = {k: _num_from_sympy(c)
             for k, c in sympy.Poly(sympy.expand(expr), *xs).as_dict().items() if c != 0}
    return BiPoly(terms) if isinstance(like, BiPoly) else GaussPoly(like.dim, terms)


def _sympy_conj(expr, p, xs):
    out = sympy.conjugate(expr)
    if isinstance(p, BiPoly):
        z, zb = xs
        out = out.subs({sympy.conjugate(z): zb, sympy.conjugate(zb): z}, simultaneous=True)
    return out


_PART = st.sampled_from([0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3)])
_COEFF = st.builds(ExactComplex, _PART, _PART, _PART, _PART).filter(lambda c: not c.is_zero())
_SCALAR = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3), _COEFF)


@st.composite
def _poly_pair(draw):
    """(p, q) of one class; q is p with some terms negated plus extra terms,
    so sums and products cancel keys."""
    dim = draw(st.sampled_from([1, 2, 3, "bi"]))
    make = BiPoly if dim == "bi" else (lambda t: GaussPoly(dim, t))
    keys = st.tuples(*[st.integers(0, 2)] * (2 if dim == "bi" else dim))
    p_terms = draw(st.dictionaries(keys, _COEFF, max_size=4))
    flips = draw(st.lists(st.booleans(), min_size=len(p_terms), max_size=len(p_terms)))
    q_terms = draw(st.dictionaries(keys, _COEFF, max_size=2))
    q_terms.update({k: -c if f else c for (k, c), f in zip(p_terms.items(), flips)})
    return make(p_terms), make(q_terms)


# p + q cancels zbar and leaves 2/2 at z: every numerator shares the factor 2
# with the denominator, so the sum must be reduced to compare equal
@example((BiPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}),
          BiPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2)})), 1)
@given(_poly_pair(), _SCALAR)
@settings(max_examples=60, deadline=None)
def test_polynomial_algebra_matches_sympy(pq, scalar):
    p, q = pq
    xs = _symbols(p)
    sp, sq, s = _to_sympy(p, xs), _to_sympy(q, xs), _num_to_sympy(ExactComplex.coerce(scalar))
    cases = [(p + q, sp + sq), (p - q, sp - sq), (-p, -sp), (p * q, sp * sq),
             (p + scalar, sp + s), (scalar + p, s + sp), (p - scalar, sp - s),
             (scalar - p, s - sp), (p * scalar, sp * s), (scalar * p, s * sp),
             (p.conj(), _sympy_conj(sp, p, xs))]
    # a linear combination through plus
    combo = p.plus([(scalar, q), (-1, p), (2, q), (1, p)])
    cases.append((combo, sp + s * sq - sp + 2 * sq + sp))
    for got, want in cases:
        want = _from_sympy(want, p, xs)
        assert got == want
        assert hash(got) == hash(want)  # equal by different routes, equal hashes
    assert type(combo) is type(p) and combo.dim == p.dim
    # cancelling pairs leave no term behind, not a stored zero
    zero = p.plus([(1, q), (-1, p), (-1, q)])
    assert zero.terms() == {} and type(zero) is type(p)
    assert p.plus([(scalar, q), (-ExactComplex.coerce(scalar), q)]) == p


@given(_poly_pair(), st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_embed_is_a_ring_map(pq, dim, data):
    p, q = pq
    coords = data.draw(st.lists(st.integers(0, dim - 1), min_size=len(_symbols(p)),
                                max_size=len(_symbols(p))))  # repeats allowed

    def emb(poly):
        return embed(poly, coords, dim)

    assert emb(p * q) == emb(p) * emb(q)
    assert emb(p + q) == emb(p) + emb(q)
    xs, big = _symbols(p), sympy.symbols(f"x0:{dim}", real=True)
    substituted = _to_sympy(p, xs).subs(dict(zip(xs, (big[c] for c in coords))),
                                        simultaneous=True)
    assert emb(p) == _from_sympy(substituted, GaussPoly(dim), big)


@pytest.mark.parametrize("terms, coords", [
    ({(1,): 1}, (-1,)),           # negative coordinate: used to land on dim - 1
    ({(1,): 1}, (3,)),            # coordinate equal to dim
    ({(1, 0): 1}, (0,)),          # more variables than coords
    ({(1,): 1}, (0, 1)),          # fewer variables than coords
])
def test_embed_rejects_bad_inputs(terms, coords):
    small = GaussPoly(len(next(iter(terms))), terms)
    with pytest.raises(ValueError):
        embed(small, coords, 3)


@pytest.mark.parametrize("key", [
    (-1,),                        # negative exponent
    (1.0,),                       # non-int exponent
    (1.5,),                       # non-int exponent: used to be truncated to x
    1,                            # key not a tuple
])
def test_gausspoly_rejects_bad_keys(key):
    with pytest.raises(ValueError):
        GaussPoly(1, {key: 1})


def test_bipoly_rejects_non_int_exponents():
    with pytest.raises(ValueError):  # used to be read as z
        BiPoly({(1.9, 0): 1})


def test_embed_drops_cancelled_terms():
    # two small keys land on one tuple through a repeated coordinate
    small = GaussPoly(2, {(1, 0): 1, (0, 1): -1, (0, 0): 2})
    assert embed(small, (1, 1), 3).terms() == {(0, 0, 0): EC(2)}
