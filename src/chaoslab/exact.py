"""Exact scalar arithmetic over the field Q(i, sqrt(2)).

Every symbolic identity in this package is an equality between numbers of
the form (a + b*sqrt(2)) + (c + d*sqrt(2))*i with rational a, b, c, d.
Keeping the whole field in one value type lets polynomial identities,
basis conversions and tensor decompositions be tested with ``==`` instead
of floating tolerances.  Floating point enters only at evaluation time.
"""

from __future__ import annotations

from fractions import Fraction
from math import sqrt
from typing import Union

_SQRT2 = sqrt(2.0)

RationalLike = Union[int, Fraction]


# Every absent component is this one object, so zeros cost no allocation.
_FZERO = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x) if x else _FZERO
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


class ExactComplex:
    """An element (a + b*sqrt(2)) + (c + d*sqrt(2))*i of Q(i, sqrt(2))."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, re=0, im=0, re_sqrt2=0, im_sqrt2=0):
        self.a = _frac(re)
        self.c = _frac(im)
        self.b = _frac(re_sqrt2)
        self.d = _frac(im_sqrt2)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def coerce(cls, x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to ExactComplex")

    # -- predicates and views --------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def is_real(self) -> bool:
        return not (self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not a plain rational")
        return self.a

    def real(self) -> "ExactComplex":
        return _new(self.a, self.b, _FZERO, _FZERO)

    def imag(self) -> "ExactComplex":
        return _new(self.c, self.d, _FZERO, _FZERO)

    def conjugate(self) -> "ExactComplex":
        c, d = self.c, self.d
        return _new(self.a, self.b, -c if c else c, -d if d else d)

    def to_complex(self) -> complex:
        return complex(float(self.a) + float(self.b) * _SQRT2,
                       float(self.c) + float(self.d) * _SQRT2)

    def real_sign(self) -> int:
        """Sign of a real element a + b*sqrt(2); raises if not real."""
        if not self.is_real():
            raise ValueError(f"{self!r} is not real")
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2
        lead = a if a * a > 2 * b * b else b
        if a * a == 2 * b * b:
            return 0  # impossible for rationals unless a == b == 0, kept for safety
        return 1 if lead > 0 else -1

    # -- arithmetic -------------------------------------------------------------

    # Values are never mutated after construction, so a result may share
    # an operand (or its components) whenever the other operand is zero.

    def __add__(self, other):
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        if isinstance(other, ExactComplex):
            if not (a1 or b1 or c1 or d1):
                return other
            a2, b2, c2, d2 = other.a, other.b, other.c, other.d
            if not (a2 or b2 or c2 or d2):
                return self
            return _new((a1 + a2 if a2 else a1) if a1 else a2,
                        (b1 + b2 if b2 else b1) if b1 else b2,
                        (c1 + c2 if c2 else c1) if c1 else c2,
                        (d1 + d2 if d2 else d1) if d1 else d2)
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            return _new(a1 + other if a1 else _frac(other), b1, c1, d1)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        if isinstance(other, ExactComplex):
            a2, b2, c2, d2 = other.a, other.b, other.c, other.d
            if not (a2 or b2 or c2 or d2):
                return self
            return _new((a1 - a2 if a2 else a1) if a1 else -a2 if a2 else a1,
                        (b1 - b2 if b2 else b1) if b1 else -b2 if b2 else b1,
                        (c1 - c2 if c2 else c1) if c1 else -c2 if c2 else c1,
                        (d1 - d2 if d2 else d1) if d1 else -d2 if d2 else d1)
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            return _new(a1 - other if a1 else _frac(-other), b1, c1, d1)
        return NotImplemented

    def __rsub__(self, other):
        if not isinstance(other, (ExactComplex, int, Fraction)):
            return NotImplemented
        return -self + other

    def __neg__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        return _new(-a if a else a, -b if b else b, -c if c else c, -d if d else d)

    def __mul__(self, other):
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        if isinstance(other, ExactComplex):
            a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        elif isinstance(other, (int, Fraction)):
            if not other:
                return ZERO
            return _new(a1 * other if a1 else a1, b1 * other if b1 else b1,
                        c1 * other if c1 else c1, d1 * other if d1 else d1)
        else:
            return NotImplemented
        # (r1 + i m1)(r2 + i m2) with r, m in Q(sqrt2) as (rat, sqrt2) pairs:
        #   re0 = a1 a2 + 2 b1 b2 - c1 c2 - 2 d1 d2
        #   re1 = a1 b2 + b1 a2 - c1 d2 - d1 c2
        #   im0 = a1 c2 + c1 a2 + 2 (b1 d2 + d1 b2)
        #   im1 = a1 d2 + b1 c2 + c1 b2 + d1 a2
        # Only products of two nonzero components are formed; a sum starts
        # from its first term, never from a zero.
        na, nb, nc, nd = bool(a2), bool(b2), bool(c2), bool(d2)
        re0 = re1 = im0 = im1 = _FZERO
        if a1:
            if na:
                re0 = a1 * a2
            if nb:
                re1 = a1 * b2
            if nc:
                im0 = a1 * c2
            if nd:
                im1 = a1 * d2
        if b1:
            if na:
                t = b1 * a2
                re1 = re1 + t if re1 else t
            if nb:
                t = 2 * (b1 * b2)
                re0 = re0 + t if re0 else t
            if nc:
                t = b1 * c2
                im1 = im1 + t if im1 else t
            if nd:
                t = 2 * (b1 * d2)
                im0 = im0 + t if im0 else t
        if c1:
            if na:
                t = c1 * a2
                im0 = im0 + t if im0 else t
            if nb:
                t = c1 * b2
                im1 = im1 + t if im1 else t
            if nc:
                t = c1 * c2
                re0 = re0 - t if re0 else -t
            if nd:
                t = c1 * d2
                re1 = re1 - t if re1 else -t
        if d1:
            if na:
                t = d1 * a2
                im1 = im1 + t if im1 else t
            if nb:
                t = 2 * (d1 * b2)
                im0 = im0 + t if im0 else t
            if nc:
                t = d1 * c2
                re1 = re1 - t if re1 else -t
            if nd:
                t = 2 * (d1 * d2)
                re0 = re0 - t if re0 else -t
        return _new(re0, re1, im0, im1)

    __rmul__ = __mul__

    def _real_inverse(self):
        """Inverse of the real element a + b*sqrt(2) as a (rat, sqrt2) pair."""
        a, b = self.a, self.b
        den = a * a - 2 * b * b
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return ExactComplex(a / den, 0, -b / den, 0)

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
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            parts.append(f"{self.b}*r2")
        if self.c:
            parts.append(f"{self.c}*i")
        if self.d:
            parts.append(f"{self.d}*r2*i")
        return "EC(" + (" + ".join(parts) if parts else "0") + ")"

    def rational_str(self) -> str:
        """Render a rational-complex value as ``re`` or ``re + im*i``."""
        if self.b or self.d:
            raise ValueError("value has sqrt(2) parts; not rational-complex")
        if self.c == 0:
            return str(self.a)
        sign = "+" if self.c > 0 else "-"
        return f"{self.a} {sign} {abs(self.c)}*i"


_object_new = object.__new__


def _new(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> ExactComplex:
    """Build a + b*sqrt(2) + (c + d*sqrt(2))*i from Fraction components,
    skipping the coercions of ``ExactComplex.__init__``."""
    z = _object_new(ExactComplex)
    z.a, z.b, z.c, z.d = a, b, c, d
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
    """Exact 2**(-n/2); for odd n this is sqrt(2)/2**((n+1)/2)."""
    if n < 0:
        # 2**(k/2) for k = -n > 0
        k = -n
        if k % 2 == 0:
            return ExactComplex(Fraction(2 ** (k // 2)))
        return ExactComplex(0, 0, Fraction(2 ** ((k - 1) // 2)), 0)
    if n % 2 == 0:
        return ExactComplex(Fraction(1, 2 ** (n // 2)))
    return ExactComplex(0, 0, Fraction(1, 2 ** ((n + 1) // 2)), 0)


def i_power(n: int) -> ExactComplex:
    """Exact i**n for any integer n."""
    return (ONE, I_UNIT, -ONE, -I_UNIT)[n % 4]
