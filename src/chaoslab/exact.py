"""Exact scalar arithmetic over the field Q(i, sqrt(2)).

Every symbolic identity in this package is an equality between numbers of
the form (a + b*sqrt(2)) + (c + d*sqrt(2))*i with rational a, b, c, d.
Keeping the whole field in one value type lets polynomial identities,
basis conversions and tensor decompositions be tested with ``==`` instead
of floating tolerances.  Floating point enters only at evaluation time.

A value is stored as five Python ints (p, q, r, s, n) standing for
(p + q*sqrt(2) + (r + s*sqrt(2))*i) / n: the four components share one
denominator.  The form is canonical, n > 0 and gcd(p, q, r, s, n) = 1, so
equal values have equal fields and ``==`` and ``hash`` compare five ints.
Every operation builds its result with ``_make``, which restores the
invariant with one ``math.gcd`` call; no ``Fraction`` is formed on the
arithmetic path.

A map of field values (a polynomial's coefficients, a tensor's entries) has
one numerator form, built and reduced only here (:func:`_numerators`): an
int ``den`` and, per key, a nonzero int tuple (p, q, r, s) standing for
(p + q*sqrt(2) + (r + s*sqrt(2))*i) / den.  It is canonical, with den > 0
and gcd(den, every component) = 1 (:func:`_reduced`), so equal maps have
equal forms.  Sums and products run on the ints (:func:`_add_into`,
:func:`_scaled`), the denominator multiplying once per operation and the
form reduced once at its end.  Real tensors keep the (p, q) half.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, sqrt
from typing import Dict, Iterable, Mapping, Tuple, Union

_SQRT2 = sqrt(2.0)

RationalLike = Union[int, Fraction]


def _rational(x) -> RationalLike:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"not a rational value: {x!r}")


class ExactComplex:
    """An element (a + b*sqrt(2)) + (c + d*sqrt(2))*i of Q(i, sqrt(2)),
    held as (p + q*sqrt(2) + (r + s*sqrt(2))*i) / n with n > 0 and
    gcd(p, q, r, s, n) = 1.  Values are never mutated after construction."""

    __slots__ = ("p", "q", "r", "s", "n")

    def __init__(self, re=0, im=0, re_sqrt2=0, im_sqrt2=0):
        a, b, c, d = _rational(re), _rational(re_sqrt2), _rational(im), _rational(im_sqrt2)
        da, db, dc, dd = a.denominator, b.denominator, c.denominator, d.denominator
        # over the lcm of reduced denominators the five ints are coprime
        n = lcm(da, db, dc, dd)
        self.p, self.q, self.r, self.s, self.n = (
            a.numerator * (n // da), b.numerator * (n // db),
            c.numerator * (n // dc), d.numerator * (n // dd), n)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def coerce(cls, x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to ExactComplex")

    # -- components, predicates and views -------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.n)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.n)

    @property
    def c(self) -> Fraction:
        return Fraction(self.r, self.n)

    @property
    def d(self) -> Fraction:
        return Fraction(self.s, self.n)

    def is_zero(self) -> bool:
        return not (self.p or self.q or self.r or self.s)

    def is_real(self) -> bool:
        return not (self.r or self.s)

    def real(self) -> "ExactComplex":
        return _make(self.p, self.q, 0, 0, self.n)

    def imag(self) -> "ExactComplex":
        return _make(self.r, self.s, 0, 0, self.n)

    def conjugate(self) -> "ExactComplex":
        return _make(self.p, self.q, -self.r, -self.s, self.n)

    def to_complex(self) -> complex:
        # int true division is correctly rounded, as float(Fraction) is
        n = self.n
        return complex(self.p / n + (self.q / n) * _SQRT2,
                       self.r / n + (self.s / n) * _SQRT2)

    def real_sign(self) -> int:
        """Sign of a real element a + b*sqrt(2); raises if not real."""
        if not self.is_real():
            raise ValueError(f"{self!r} is not real")
        a, b = self.p, self.q  # n > 0, so the numerator decides
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: a^2 != 2 b^2 for nonzero integers, so the term
        # of larger square decides
        lead = a if a * a > 2 * b * b else b
        return 1 if lead > 0 else -1

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        p1, q1, r1, s1, n1 = self.p, self.q, self.r, self.s, self.n
        if isinstance(other, ExactComplex):
            p2, q2, r2, s2, n2 = other.p, other.q, other.r, other.s, other.n
            if n1 == n2:
                return _make(p1 + p2, q1 + q2, r1 + r2, s1 + s2, n1)
            return _make(p1 * n2 + p2 * n1, q1 * n2 + q2 * n1,
                         r1 * n2 + r2 * n1, s1 * n2 + s2 * n1, n1 * n2)
        if isinstance(other, int):
            return _make(p1 + other * n1, q1, r1, s1, n1)
        if isinstance(other, Fraction):
            u, v = other.numerator, other.denominator
            return _make(p1 * v + u * n1, q1 * v, r1 * v, s1 * v, n1 * v)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return -self + other

    def __neg__(self):
        return _make(-self.p, -self.q, -self.r, -self.s, self.n)

    def __mul__(self, other):
        p1, q1, r1, s1, n1 = self.p, self.q, self.r, self.s, self.n
        if isinstance(other, ExactComplex):
            p2, q2, r2, s2, n2 = other.p, other.q, other.r, other.s, other.n
        elif isinstance(other, int):
            return _make(p1 * other, q1 * other, r1 * other, s1 * other, n1)
        elif isinstance(other, Fraction):
            u = other.numerator
            return _make(p1 * u, q1 * u, r1 * u, s1 * u, n1 * other.denominator)
        else:
            return NotImplemented
        if not (q2 or r2 or s2):  # other is rational
            return _make(p1 * p2, q1 * p2, r1 * p2, s1 * p2, n1 * n2)
        if not (q1 or r1 or s1):  # self is rational
            return _make(p1 * p2, p1 * q2, p1 * r2, p1 * s2, n1 * n2)
        # (x1 + i y1)(x2 + i y2) with x, y in Z[sqrt2] as (int, sqrt2) pairs:
        #   p = p1 p2 + 2 q1 q2 - r1 r2 - 2 s1 s2
        #   q = p1 q2 + q1 p2 - r1 s2 - s1 r2
        #   r = p1 r2 + r1 p2 + 2 (q1 s2 + s1 q2)
        #   s = p1 s2 + q1 r2 + r1 q2 + s1 p2
        return _make(p1 * p2 - r1 * r2 + 2 * (q1 * q2 - s1 * s2),
                     p1 * q2 + q1 * p2 - r1 * s2 - s1 * r2,
                     p1 * r2 + r1 * p2 + 2 * (q1 * s2 + s1 * q2),
                     p1 * s2 + q1 * r2 + r1 * q2 + s1 * p2,
                     n1 * n2)

    __rmul__ = __mul__

    def _real_inverse(self):
        """Inverse of the real element (p + q*sqrt(2))/n: n (p - q*sqrt(2))
        / (p^2 - 2 q^2), with the sign moved into the numerator."""
        p, q, n = self.p, self.q, self.n
        den = p * p - 2 * q * q
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        if den < 0:
            den, n = -den, -n
        return _make(n * p, -n * q, 0, 0, den)

    def inverse(self) -> "ExactComplex":
        if self.is_zero():
            raise ZeroDivisionError("division by zero ExactComplex")
        norm = self * self.conjugate()  # real and positive
        return self.conjugate() * norm._real_inverse()

    def __truediv__(self, other):
        return self * ExactComplex.coerce(other).inverse()

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        try:
            o = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return (self.p == o.p and self.q == o.q and self.r == o.r
                and self.s == o.s and self.n == o.n)

    def __hash__(self):
        return hash((self.p, self.q, self.r, self.s, self.n))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        parts = []
        if self.p:
            parts.append(str(self.a))
        if self.q:
            parts.append(f"{self.b}*r2")
        if self.r:
            parts.append(f"{self.c}*i")
        if self.s:
            parts.append(f"{self.d}*r2*i")
        return "EC(" + (" + ".join(parts) if parts else "0") + ")"

    def rational_str(self) -> str:
        """Render a rational-complex value as ``re`` or ``re + im*i``."""
        if self.q or self.s:
            raise ValueError("value has sqrt(2) parts; not rational-complex")
        if self.r == 0:
            return str(self.a)
        sign = "+" if self.r > 0 else "-"
        return f"{self.a} {sign} {abs(self.c)}*i"


_object_new = object.__new__


def _make(p: int, q: int, r: int, s: int, n: int) -> ExactComplex:
    """Build (p + q*sqrt(2) + (r + s*sqrt(2))*i)/n for n > 0, divided by
    the common gcd so the result is canonical."""
    z = _object_new(ExactComplex)
    g = gcd(p, q, r, s, n)
    if g == 1:
        z.p, z.q, z.r, z.s, z.n = p, q, r, s, n
    else:
        z.p, z.q, z.r, z.s, z.n = p // g, q // g, r // g, s // g, n // g
    return z


ZERO = ExactComplex(0)
ONE = ExactComplex(1)
I_UNIT = ExactComplex(0, 1)
SQRT2 = ExactComplex(0, 0, 1, 0)
HALF = ExactComplex(Fraction(1, 2))


def EC(re=0, im=0) -> ExactComplex:
    """Shorthand constructor for rational-complex values."""
    return ExactComplex(re, im)


def half_power(n: int) -> ExactComplex:
    """Exact 2**(-n/2) for n >= 0; for odd n this is sqrt(2)/2**((n+1)/2)."""
    if n % 2 == 0:
        return ExactComplex(Fraction(1, 2 ** (n // 2)))
    return ExactComplex(0, 0, Fraction(1, 2 ** ((n + 1) // 2)), 0)


def i_power(n: int) -> ExactComplex:
    """Exact i**n for any integer n."""
    return (ONE, I_UNIT, -ONE, -I_UNIT)[n % 4]


def _numerator(c: ExactComplex, f: int = 1) -> Tuple[int, int, int, int]:
    """The numerator of c over f times its denominator."""
    return c.p * f, c.q * f, c.r * f, c.s * f


def _add_into(out: Dict, items: Iterable) -> Dict:
    """``out`` with the (key, numerator) items added in, key by key."""
    for k, v in items:
        old = out.get(k)
        out[k] = v if old is None else (
            old[0] + v[0], old[1] + v[1], old[2] + v[2], old[3] + v[3])
    return out


def _scaled(items: Mapping, m: Tuple[int, int, int, int]) -> Dict:
    """Each numerator of ``items`` times the numerator m = (a, b, c, d), as
    elements a + b sqrt2 + (c + d sqrt2) i multiply."""
    a, b, c, d = m
    if not (b or c or d):
        return {k: (a * p, a * q, a * r, a * s) for k, (p, q, r, s) in items.items()}
    return {k: (a * p - c * r + 2 * (b * q - d * s), a * q + b * p - c * s - d * r,
                a * r + c * p + 2 * (b * s + d * q), a * s + b * r + c * q + d * p)
            for k, (p, q, r, s) in items.items()}


def _reduced(den: int, items: Mapping) -> Tuple[int, Dict]:
    """The canonical form of (den, items): zero numerators dropped, and den
    and every component divided by their common gcd (den 1 when empty)."""
    kept, g = {}, den
    for k, v in items.items():
        if v != (0, 0, 0, 0):
            kept[k] = v
            if g != 1:
                g = gcd(g, *v)
    if g != 1:
        den //= g
        kept = {k: (p // g, q // g, r // g, s // g) for k, (p, q, r, s) in kept.items()}
    return den, kept


def _numerators(pairs: Iterable[Tuple[object, object]]) -> Tuple[int, Dict]:
    """The canonical numerator form (den, {key: (p, q, r, s)}) of (key,
    scalar) pairs, first over the lcm of the scalars' denominators; the
    values of a repeated key are summed."""
    coeffs = [(k, ExactComplex.coerce(c)) for k, c in pairs]
    den = lcm(*(c.n for _, c in coeffs))
    return _reduced(den, _add_into({}, ((k, _numerator(c, den // c.n)) for k, c in coeffs)))
