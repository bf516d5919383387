"""Real and complex Hermite polynomials with exact coefficient algebra.

``BiPoly`` is a polynomial in one complex variable ``z`` and its conjugate
``zbar`` with coefficients in Q(i, sqrt(2)).  It is the two-variable case of
``wick.GaussPoly``, the package's one sparse exact polynomial class, and
adds only what is particular to (z, zbar): the derivatives, the conjugation
that swaps z and zbar, and the real form: writing ``z = x + i y`` gives the
equivalent two-variable ``GaussPoly`` in ``(x, y)`` (:meth:`BiPoly.to_xy`).

The real Hermite polynomials H_n follow the probabilists' normalization
H_n(x) = (-1)^n exp(x^2/2) d^n/dx^n exp(-x^2/2) (leading coefficient 1).
The complex Hermite polynomials J_{m,n}(z, rho) are built by repeated
application of the creation operators

    a*  : p -> -dp/dzbar + (z/rho) p
    a~* : p -> -dp/dz    + (zbar/rho) p

as J_{m,n} = rho^(m+n) (a*)^m (a~*)^n 1, so J_{0,0} = 1, J_{1,0} = z and
J_{1,1} = z zbar - rho.  Both families are eigenfunctions of the
Ornstein-Uhlenbeck generator implemented by :func:`ou_apply`.

The real-coordinate constructions are one closed binomial form.  From
x = (z + zbar)/2 and y = (z - zbar)/(2i), a linear form cx x + cy y equals
alpha z + beta zbar with alpha = (cx - i cy)/2, beta = (cx + i cy)/2, so

    H_n(cx x + cy y) = sum_k c_k sum_r C(k,r) alpha^r beta^(k-r) z^r zbar^(k-r)

for H_n = sum_k c_k x^k; H_n(x) and H_n(y) are the cases (1, 0) and (0, 1).

Floating evaluation (:func:`evaluate`) uses the radial form: every term
z^a zbar^b equals w^|a-b| s^min(a,b), with s = |z|^2 and w = z for a >= b,
w = zbar otherwise.  Terms of one angular frequency d = a - b share w^|d|,
so a polynomial is sum_d w^|d| q_d(s) with each q_d evaluated by Horner in
s, in real arithmetic when its coefficients are real.  J_{m,n} has the one
frequency m - n, which gives the Laguerre form z^(m-n) q(|z|^2) for m >= n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Mapping, Tuple, Union

import numpy as np

from .exact import (EC, ExactComplex, HALF, I_UNIT, ONE, ZERO, _add_into, _make as _element,
                    _reduced)
from .wick import GaussPoly

Scalar = Union[int, Fraction, ExactComplex]
ExponentPair = Tuple[int, int]


class BiPoly(GaussPoly):
    """Polynomial in (z, zbar) with coefficients in Q(i, sqrt2): the
    two-variable ``GaussPoly`` whose key (a, b) is the degree in z and in
    zbar, stored as its numerator form (``exact`` module docstring).
    Conjugation and the derivatives map the int numerators; a coefficient
    becomes an ``ExactComplex`` only when read (:meth:`coefficient`,
    ``terms()``).  ``_plan`` holds the floating radial plan of
    :func:`evaluate`, built on first use.
    """

    __slots__ = ("_plan",)

    def __init__(self, terms: Mapping[ExponentPair, Scalar] | None = None):
        super().__init__(2, terms)

    # bound here, not only inherited, so that a profiler wrapping this class's
    # own attributes counts BiPoly products apart from GaussPoly ones
    __mul__ = __rmul__ = GaussPoly.__mul__

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "BiPoly":
        return cls({(0, 0): value})

    @classmethod
    def z(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def zbar(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    # -- (z, zbar) structure ---------------------------------------------------

    def coefficient(self, a: int, b: int) -> ExactComplex:
        v = self._num.get((a, b))
        return ZERO if v is None else _element(*v, self._den)

    def conj(self) -> "BiPoly":
        """Complex conjugate: conjugate coefficients, swap z and zbar powers."""
        return self._of_form(2, self._den, {(b, a): (p, q, -r, -s)
                                            for (a, b), (p, q, r, s) in self._num.items()})

    def d_z(self) -> "BiPoly":
        return self._of_form(2, *_reduced(self._den, {
            (a - 1, b): (a * p, a * q, a * r, a * s)
            for (a, b), (p, q, r, s) in self._num.items() if a}))

    def d_zbar(self) -> "BiPoly":
        return self._of_form(2, *_reduced(self._den, {
            (a, b - 1): (b * p, b * q, b * r, b * s)
            for (a, b), (p, q, r, s) in self._num.items() if b}))

    def to_xy(self) -> GaussPoly:
        """The real form: the two-variable ``GaussPoly`` in (x, y), key (i, j)
        for x^i y^j, equal to this polynomial at z = x + i y.  z^a zbar^b =
        (x + iy)^a (x - iy)^b expands on the int numerators: its term
        x^(i+j) y^e, e = a + b - i - j, weighs C(a,i) C(b,j) (-1)^(b-j) times
        i^e, a rotation of (p, q, r, s).  No ``ExactComplex`` is formed."""
        out: Dict[ExponentPair, Tuple[int, int, int, int]] = {}
        for (a, b), (p, q, r, s) in self._num.items():
            turns = ((p, q, r, s), (-r, -s, p, q), (-p, -q, -r, -s), (r, s, -p, -q))
            weights = [(i + j, math.comb(a, i) * math.comb(b, j) * (-1) ** (b - j))
                       for i in range(a + 1) for j in range(b + 1)]
            _add_into(out, (((k, a + b - k), tuple(w * c for c in turns[(a + b - k) % 4]))
                            for k, w in weights))
        return GaussPoly._of_form(2, *_reduced(self._den, out))

    def __call__(self, z):
        return evaluate(self, z)


def _radial_plan(p: BiPoly) -> Tuple[Tuple[int, tuple], ...]:
    """(d, (c_0, ..., c_J)) per angular frequency d = a - b, in increasing d:
    p = sum_d w^|d| sum_j c_j s^j (see the module docstring).  Powers of s
    that p lacks get a zero; a frequency with only real coefficients gets
    floats, otherwise complex numbers."""
    groups: Dict[int, Dict[int, ExactComplex]] = {}
    for (a, b), coeff in p.terms().items():
        groups.setdefault(a - b, {})[min(a, b)] = coeff
    plan = []
    for d in sorted(groups):
        by_power = groups[d]
        real = all(c.is_real() for c in by_power.values())
        coeffs = []
        for j in range(max(by_power) + 1):
            c = by_power.get(j, ZERO).to_complex()
            coeffs.append(c.real if real else c)
        plan.append((d, tuple(coeffs)))
    return tuple(plan)


def _power(w, n: int):
    """w^n for n >= 1 by repeated squaring: numpy's complex ``**`` takes a
    general, several times slower path for most integer exponents."""
    out = None
    while True:
        if n & 1:
            out = w if out is None else out * w
        n >>= 1
        if not n:
            return out
        w = w * w


def evaluate(p: BiPoly, z):
    """Evaluate in floating arithmetic by the radial form of the module
    docstring.  ``z`` may be a numpy array, giving a complex128 array of its
    shape, or a scalar, giving a complex.

    One algorithm serves both: the body uses only arithmetic operators, and
    the in-place ones update an array the body allocated itself or rebind a
    scalar.
    """
    plan = getattr(p, "_plan", None)  # unset on a result of arithmetic
    if plan is None:
        plan = p._plan = _radial_plan(p)
    array = isinstance(z, np.ndarray)
    if not array:
        z = complex(z)
    zbar = z.conjugate()
    s = (z * zbar).real
    out = None
    for d, coeffs in plan:
        # Horner in s: q = (..((c_J s + c_{J-1}) s + ..) s + c_0
        q = coeffs[-1]
        if len(coeffs) > 1:
            q = q * s
            for c in coeffs[-2:0:-1]:
                if c:
                    q += c
                q *= s
            if coeffs[0]:
                q += coeffs[0]
        if d:
            q = q * _power(z if d > 0 else zbar, abs(d))
        out = q if out is None else out + q
    if not array:
        return complex(out or 0)
    if isinstance(out, np.ndarray):
        return out.astype(np.complex128, copy=False)
    return np.full(z.shape, out or 0, dtype=np.complex128)


# -- real Hermite polynomials ---------------------------------------------------


@lru_cache(maxsize=None)
def hermite_coeffs(n: int) -> Tuple[int, ...]:
    """Integer coefficients (c_0, ..., c_n) of H_n, from the derivative definition.

    Maintains d^k/dx^k exp(-x^2/2) = P_k(x) exp(-x^2/2) via P_{k+1} = P_k' - x P_k,
    then H_n = (-1)^n P_n.  The three-term recurrence is *not* assumed here.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = [1]  # P_0
    for _ in range(n):
        nxt = [0] * (len(p) + 1)
        for k, c in enumerate(p):
            if k >= 1:
                nxt[k - 1] += k * c   # derivative of c x^k
            nxt[k + 1] -= c           # -x * c x^k
        p = nxt
    sign = -1 if n % 2 else 1
    return tuple(sign * c for c in p)


@lru_cache(maxsize=None)
def real_hermite(n: int) -> BiPoly:
    """H_n as a BiPoly in the variable x = Re z (univariate in x)."""
    return hermite_of_linear(n, 1, 0)


@lru_cache(maxsize=None)
def real_hermite_y(n: int) -> BiPoly:
    """H_n in the variable y = Im z."""
    return hermite_of_linear(n, 0, 1)


def hermite_of_linear(n: int, cx, cy) -> BiPoly:
    """H_n(cx * x + cy * y) as an exact BiPoly (cx, cy rational or ExactComplex).

    By the closed form of the module docstring: the term z^r zbar^(k-r) has
    coefficient c_k C(k,r) alpha^r beta^(k-r), and each key comes from one k,
    so nothing is summed.  The powers of alpha and beta are built once.
    """
    cx, cy = ExactComplex.coerce(cx), ExactComplex.coerce(cy)
    alpha = (cx - I_UNIT * cy) * HALF
    beta = (cx + I_UNIT * cy) * HALF
    alpha_pow, beta_pow = [ONE], [ONE]
    for _ in range(n):
        alpha_pow.append(alpha_pow[-1] * alpha)
        beta_pow.append(beta_pow[-1] * beta)
    out: Dict[ExponentPair, ExactComplex] = {}
    for k, c in enumerate(hermite_coeffs(n)):
        if c:
            for r in range(k + 1):
                out[(r, k - r)] = alpha_pow[r] * beta_pow[k - r] * (c * math.comb(k, r))
    return BiPoly(out)


# -- complex Hermite polynomials -------------------------------------------------


def _check_rho(rho) -> Fraction:
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    return rho


def _create(p: BiPoly, rho: Fraction) -> BiPoly:
    # a* p = -dp/dzbar + (z/rho) p
    return -p.d_zbar() + BiPoly({(1, 0): Fraction(1, 1) / rho}) * p


def _create_bar(p: BiPoly, rho: Fraction) -> BiPoly:
    # a~* p = -dp/dz + (zbar/rho) p
    return -p.d_z() + BiPoly({(0, 1): Fraction(1, 1) / rho}) * p


def complex_hermite(m: int, n: int, rho=Fraction(2)) -> BiPoly:
    """J_{m,n}(z, rho) built by repeated creation-operator application.

    m and n must be nonnegative integers and rho positive.
    """
    if not all(isinstance(i, int) and i >= 0 for i in (m, n)):
        raise ValueError(f"indices must be nonnegative integers, got ({m!r}, {n!r})")
    return _complex_hermite(m, n, _check_rho(rho))


@lru_cache(maxsize=None)
def _complex_hermite(m: int, n: int, rho: Fraction) -> BiPoly:
    p = BiPoly.constant(1)
    for _ in range(n):
        p = _create_bar(p, rho)
    for _ in range(m):
        p = _create(p, rho)
    return EC(rho ** (m + n)) * p


# -- Ornstein-Uhlenbeck generator ------------------------------------------------


def _ou_terms(terms, two_rho_cos, eit):
    """The generator on a term map, written once with ``+`` and ``*`` for exact
    or floating scalars: z^a zbar^b goes to
    2 rho cos * ab z^(a-1) zbar^(b-1) - (a e^{i theta} + b e^{-i theta}) z^a zbar^b."""
    eit_bar = eit.conjugate()
    out = {}
    for (a, b), c in terms.items():
        parts = [((a, b), -(a * eit + b * eit_bar) * c)]
        if a and b:
            parts.append(((a - 1, b - 1), two_rho_cos * (a * b) * c))
        for key, val in parts:
            out[key] = out[key] + val if key in out else val
    return out


def ou_apply(p: BiPoly, trig: Tuple[Fraction, Fraction], rho=Fraction(2)) -> BiPoly:
    """Apply the OU generator exactly, given exact rational (cos, sin).

    A = 2 rho cos * d2/dz dzbar - e^{i theta} z d/dz - e^{-i theta} zbar d/dzbar,
    restricted to angles with cos > 0 (theta in (-pi/2, pi/2)).
    """
    cos_t, sin_t = Fraction(trig[0]), Fraction(trig[1])
    if cos_t * cos_t + sin_t * sin_t != 1:
        raise ValueError("(cos, sin) must lie on the unit circle")
    if cos_t <= 0:
        raise ValueError("angle outside (-pi/2, pi/2): cos must be positive")
    rho = _check_rho(rho)
    return BiPoly(_ou_terms(p.terms(), EC(2 * rho * cos_t), ExactComplex(cos_t, sin_t)))


def ou_apply_numeric(p: BiPoly, theta: float, rho=2.0) -> Dict[ExponentPair, complex]:
    """Floating-point OU application for generic angles; returns a term map."""
    if not -math.pi / 2 < theta < math.pi / 2:
        raise ValueError("theta must lie in (-pi/2, pi/2)")
    rho = float(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    out = _ou_terms({k: c.to_complex() for k, c in p.terms().items()},
                    2 * rho * math.cos(theta), complex(math.cos(theta), math.sin(theta)))
    return {k: v for k, v in out.items() if v != 0}


def ou_eigenvalue(m: int, n: int, cos_t, sin_t):
    """Eigenvalue -( (m+n) cos + i (m-n) sin ) of J_{m,n} under the generator."""
    if isinstance(cos_t, float) or isinstance(sin_t, float):
        return complex(-(m + n) * cos_t, -(m - n) * sin_t)
    return ExactComplex(-(m + n) * Fraction(cos_t), -(m - n) * Fraction(sin_t))


# -- monomial expansion ----------------------------------------------------------


def expand_monomial(r: int, s: int) -> Dict[ExponentPair, int]:
    """Coefficients of z^r zbar^s in the J basis at rho = 2.

    z^r zbar^s = sum_{i=0}^{min(r,s)} C(r,i) C(s,i) i! 2^i J_{r-i, s-i}(z).
    """
    if r < 0 or s < 0:
        raise ValueError("exponents must be nonnegative")
    out: Dict[ExponentPair, int] = {}
    for i in range(min(r, s) + 1):
        out[(r - i, s - i)] = math.comb(r, i) * math.comb(s, i) * math.factorial(i) * 2 ** i
    return out
