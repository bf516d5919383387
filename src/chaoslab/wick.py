"""Exact Gaussian expectations by Isserlis pairing sums.

This is the brute-force oracle the rest of the package is checked against:
expectations of polynomials in finitely many jointly Gaussian coordinates,
computed as sums over perfect matchings with exact rational covariance.
A family takes rational covariance entries only; a float is refused.
Complex variables are always reduced to pairs of real coordinates before
pairing; no complex shortcut is used here.

The pairing sum runs on integers.  A family stores ``scale``, the lcm of its
covariance denominators, and the integer matrix scale * cov; the sum over
matchings of a degree-2n monomial is an int, and the moment is that int
divided by scale**n (the int itself for ``GaussianFamily.standard``).  A
family is immutable, so its pairing sums are a pure cache: each family keeps
one memo, shared by :func:`isserlis_moment` and :func:`expect`, holding one
int per distinct exponent tuple met.  ``GaussianFamily.standard(d)`` is one
shared family per d, so its memo serves every caller in the process.

``GaussPoly`` is the package's one sparse exact polynomial class;
``hermite.BiPoly``, the polynomials in (z, zbar), is its two-variable case,
and :func:`embed` places a small polynomial into chosen coordinates of a
larger one.  Sharing the algebra does not make the oracle depend on what it
checks: the expectation is still a pairing sum over the covariance
(``_pairing_sum``), never a closed form for products of chaos elements.

A polynomial is stored as the numerator form of its coefficient map, keyed
by exponent tuple (``exact`` module docstring), so ``==`` and ``hash``
compare forms.  Products, sums, conjugation, :func:`embed` and
:func:`expect` run on its ints: a product of two coefficients is sixteen
int multiplies.  An ``ExactComplex`` is formed only where a coefficient
leaves the algebra: :meth:`GaussPoly.terms`, ``repr``,
``BiPoly.coefficient`` and the result of :func:`expect`, one
``exact._make`` each.

Exact terms are summed in one place, :meth:`GaussPoly.plus`: a linear
combination p + sum c_i q_i goes into one numerator map in one pass, and
``+`` and ``-`` are its one-pair case.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .exact import (EC, ExactComplex, ONE, _add_into, _make as _element, _numerator,
                    _numerators, _reduced, _scaled)

Exponents = Tuple[int, ...]


def _psd_exact(rows: Sequence[Sequence[Fraction]]) -> bool:
    """Positive-semidefinite test by complete-pivoting elimination, exact."""
    a = [[Fraction(x) for x in row] for row in rows]
    idx = list(range(len(a)))
    while idx:
        piv = max(idx, key=lambda i: a[i][i])
        if a[piv][piv] < 0:
            return False
        if a[piv][piv] == 0:
            # all remaining diagonals are <= 0; PSD forces the block to vanish
            return all(a[i][j] == 0 for i in idx for j in idx)
        p = a[piv][piv]
        idx.remove(piv)
        for i in idx:
            f = a[i][piv] / p
            if f:  # a zero multiplier leaves the row as it is
                for j in idx:
                    a[i][j] -= f * a[piv][j]
    return True


class GaussianFamily:
    """A centered Gaussian vector given by its covariance matrix, whose
    entries must be int or Fraction: the oracle is exact, so a float or
    complex entry is refused.

    ``covariance`` is a tuple of tuples of Fraction and ``scale`` the lcm of
    their denominators.  The memo of integer pairing sums (module docstring)
    lives as long as the family; concurrent callers can only compute an
    entry twice, never store a different one.
    """

    def __init__(self, covariance):
        rows = [tuple(row) for row in covariance]
        d = len(rows)
        if any(len(row) != d for row in rows):
            raise ValueError("covariance must be square")
        if any(rows[i][j] != rows[j][i] for i in range(d) for j in range(i)):
            raise ValueError("covariance must be symmetric")
        if not all(isinstance(x, (int, Fraction)) for row in rows for x in row):
            raise ValueError("covariance entries must be rational (int or Fraction)")
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not _psd_exact(rows):
            raise ValueError("covariance is not positive semidefinite")
        self.dim = d
        self.covariance = rows
        self.scale = lcm(*(x.denominator for row in rows for x in row))
        # row i as its (j, scale * cov[i][j]) pairs with a nonzero entry
        self._int_rows = tuple(
            tuple((j, x.numerator * (self.scale // x.denominator))
                  for j, x in enumerate(row) if x)
            for row in rows)
        self._sums: Dict[Exponents, int] = {(0,) * d: 1}
        # K for a family of K complex variables (from_complex_gram), else None
        self.complex_dim = None

    @classmethod
    @lru_cache(maxsize=None)
    def standard(cls, d: int) -> "GaussianFamily":
        """d i.i.d. standard normal coordinates; one shared family per d,
        so its pairing memo serves every caller in the process."""
        return cls([[int(i == j) for j in range(d)] for i in range(d)])

    @classmethod
    def from_complex_gram(cls, gram) -> "GaussianFamily":
        """Jointly symmetric complex Gaussians zeta_k = xi_k + i eta_k.

        ``gram`` is the square Hermitian matrix of E[zeta_j conj(zeta_k)]; the
        relation matrix E[zeta_j zeta_k] is identically zero (symmetry).
        Real layout: coordinates 0..K-1 are xi, K..2K-1 are eta, so
        ``complex_dim`` = K and zeta_k sits at (k, K + k).
        """
        g = [[ExactComplex.coerce(x) for x in row] for row in gram]
        k = len(g)
        if any(len(row) != k for row in g):
            raise ValueError("gram matrix must be square")
        for i in range(k):
            for j in range(k):
                if g[i][j] != g[j][i].conjugate():
                    raise ValueError("gram matrix must be Hermitian")
                if g[i][j].b or g[i][j].d:
                    raise ValueError("gram entries must be rational-complex")
        cov = [[Fraction(0)] * (2 * k) for _ in range(2 * k)]
        for i in range(k):
            for j in range(k):
                re = g[i][j].a / 2
                im = g[i][j].c / 2
                cov[i][j] = re              # E[xi_i xi_j]
                cov[k + i][k + j] = re      # E[eta_i eta_j]
                cov[i][k + j] = -im         # E[xi_i eta_j]
                cov[k + i][j] = im          # E[eta_i xi_j]
        fam = cls(cov)
        fam.complex_dim = k
        return fam

    @classmethod
    def complex_standard(cls, k: int) -> "GaussianFamily":
        """k i.i.d. symmetric complex Gaussians with variance 2."""
        gram = [[EC(2 if i == j else 0) for j in range(k)] for i in range(k)]
        return cls.from_complex_gram(gram)


def isserlis_moment(fam: GaussianFamily, exponents: Sequence[int]) -> Fraction:
    """E[prod_i g_i^{k_i}] as an exact pairing sum; 0 for odd total degree."""
    exps = tuple(exponents)
    if len(exps) != fam.dim:
        raise ValueError(f"expected {fam.dim} exponents, got {len(exps)}")
    if any(not isinstance(e, int) or e < 0 for e in exps):
        raise ValueError("exponents must be nonnegative ints")
    degree = sum(exps)
    if degree % 2:
        return Fraction(0)
    return Fraction(_pairing_sum(exps, fam._int_rows, fam._sums),
                    fam.scale ** (degree // 2))


def _pairing_sum(counts: Exponents, rows, memo) -> int:
    """Sum over the perfect matchings of the multiset ``counts`` (even total
    degree) of the products of the integer covariance entries ``rows``."""
    got = memo.get(counts)
    if got is not None:
        return got
    i = next(k for k, c in enumerate(counts) if c)
    rest = list(counts)
    rest[i] -= 1
    total = 0
    for j, cij in rows[i]:
        c = rest[j]
        if c:
            rest[j] = c - 1
            total += c * cij * _pairing_sum(tuple(rest), rows, memo)
            rest[j] = c
    memo[counts] = total
    return total


class GaussPoly:
    """Sparse polynomial in ``dim`` variables with coefficients in Q(i, sqrt2).

    Stored as its numerator form (module docstring): ``_den`` and ``_num``,
    a map from exponent tuples of length ``dim`` to nonzero int tuples
    (p, q, r, s).  Instances are immutable.  Arithmetic returns the class of
    its polynomial operand (``hermite.BiPoly`` is the two-variable case),
    and a scalar may stand on either side of ``+``, ``-`` and ``*``.
    """

    __slots__ = ("dim", "_den", "_num")

    def __init__(self, dim: int, terms: Mapping[Exponents, object] | None = None):
        self.dim = int(dim)
        terms = terms or {}
        for key in terms:
            if not (isinstance(key, tuple) and len(key) == self.dim):
                raise ValueError(f"exponent key {key!r} is not a tuple of length {self.dim}")
            if any(not isinstance(e, int) or e < 0 for e in key):
                raise ValueError("exponents must be nonnegative ints")
        self._den, self._num = _numerators(terms.items())

    @classmethod
    def _of_form(cls, dim: int, den: int, items: Dict) -> "GaussPoly":
        """The polynomial of this class in ``dim`` variables holding the
        numerator form (den, items) as given: it must be canonical
        (``exact._reduced``), so nothing is checked or reduced."""
        out = object.__new__(cls)
        out.dim, out._den, out._num = dim, den, items
        return out

    def _as_poly(self, value) -> "GaussPoly":
        """A polynomial as it is, a scalar as a constant of self's dim."""
        return value if isinstance(value, GaussPoly) else GaussPoly.constant(self.dim, value)

    @classmethod
    def constant(cls, dim: int, value) -> "GaussPoly":
        c = ExactComplex.coerce(value)
        return cls._of_form(dim, *_reduced(c.n, {(0,) * dim: _numerator(c)}))

    def terms(self) -> Dict[Exponents, ExactComplex]:
        """The coefficients as ExactComplex, in a new dict."""
        den = self._den
        return {k: _element(p, q, r, s, den) for k, (p, q, r, s) in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def degree(self) -> int:
        return max((sum(k) for k in self._num), default=0)

    def conj(self) -> "GaussPoly":
        """Conjugate the coefficients; the variables are real."""
        return self._of_form(self.dim, self._den, {k: (p, q, -r, -s)
                                                   for k, (p, q, r, s) in self._num.items()})

    def plus(self, pairs: Iterable[Tuple[object, "GaussPoly"]]) -> "GaussPoly":
        """self + sum of c * q over the (scalar c, polynomial q) pairs, summed
        into one numerator map over the lcm of the terms' denominators and
        reduced once at the end.  The result has self's class and dim; a q of
        another dim raises ValueError."""
        terms = []
        for c, q in pairs:
            if q.dim != self.dim:
                raise ValueError("dimension mismatch")
            terms.append((ExactComplex.coerce(c), q))
        den = lcm(self._den, *(c.n * q._den for c, q in terms))
        out = _scaled(self._num, (den // self._den, 0, 0, 0))
        for c, q in terms:
            _add_into(out, _scaled(q._num, _numerator(c, den // (c.n * q._den))).items())
        return self._of_form(self.dim, *_reduced(den, out))

    def __add__(self, other):
        return self.plus([(ONE, self._as_poly(other))])

    __radd__ = __add__

    def __neg__(self):
        return self._of_form(self.dim, self._den, {k: (-p, -q, -r, -s)
                                                   for k, (p, q, r, s) in self._num.items()})

    def __sub__(self, other):
        return self.plus([(-ONE, self._as_poly(other))])

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, GaussPoly):
            c = ExactComplex.coerce(other)
            return self._of_form(self.dim, *_reduced(self._den * c.n,
                                                     _scaled(self._num, _numerator(c))))
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out: Dict[Exponents, Tuple[int, int, int, int]] = {}
        right = other._num.items()
        for k1, (p1, q1, r1, s1) in self._num.items():
            for k2, (p2, q2, r2, s2) in right:
                key = tuple(map(add, k1, k2))
                p = p1 * p2 - r1 * r2 + 2 * (q1 * q2 - s1 * s2)
                q = p1 * q2 + q1 * p2 - r1 * s2 - s1 * r2
                r = p1 * r2 + r1 * p2 + 2 * (q1 * s2 + s1 * q2)
                s = p1 * s2 + q1 * r2 + r1 * q2 + s1 * p2
                old = out.get(key)
                out[key] = (p, q, r, s) if old is None else (
                    old[0] + p, old[1] + q, old[2] + r, old[3] + s)
        return self._of_form(self.dim, *_reduced(self._den * other._den, out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    def __repr__(self):
        terms = ", ".join(f"{k}: {c!r}" for k, c in sorted(self.terms().items()))
        return f"{type(self).__name__}(dim={self.dim}, {{{terms}}})"


def embed(small: GaussPoly, coords: Sequence[int], dim: int) -> GaussPoly:
    """Substitute X_{coords[i]} for variable i of a small polynomial.

    The result is a polynomial over ``dim`` coordinates: each numerator of
    ``small`` moves to its remapped exponent tuple, and the form is reduced
    once.  Keys that land on one tuple (a repeated coordinate) are summed,
    so the substitution is a ring map: embed(p * q) = embed(p) * embed(q).
    ``small`` must have len(coords) variables and each coordinate lie in
    0..dim-1 (ValueError otherwise); ``small``'s keys were checked when it
    was built, so the output tuples are valid by construction.
    """
    if small.dim != len(coords) or not all(isinstance(c, int) and 0 <= c < dim
                                           for c in coords):
        raise ValueError(f"a polynomial in {small.dim} variables placed at coordinates "
                         f"{tuple(coords)} of 0..{dim - 1}")
    moved = []
    for key, v in small._num.items():
        exps = [0] * dim
        for coord, e in zip(coords, key):
            exps[coord] += e
        moved.append((tuple(exps), v))
    return GaussPoly._of_form(dim, *_reduced(small._den, _add_into({}, moved)))


def expect(fam: GaussianFamily, poly: GaussPoly) -> ExactComplex:
    """Exact expectation of a polynomial in the family's coordinates.

    Each even-degree term adds its numerator times its integer pairing sum,
    brought to the top degree's power of ``scale``; the result is that int
    sum over den * scale**top, one ``exact._make``.  The sums come from and
    go to the family's memo.
    """
    if poly.dim != fam.dim:
        raise ValueError(f"polynomial dim {poly.dim} != family dim {fam.dim}")
    rows, memo, scale = fam._int_rows, fam._sums, fam.scale
    top = poly.degree() // 2
    big_p = big_q = big_r = big_s = 0
    for exps, (p, q, r, s) in poly._num.items():
        degree = sum(exps)
        if degree % 2:
            continue
        m = _pairing_sum(exps, rows, memo)
        if m:
            m *= scale ** (top - degree // 2)
            big_p, big_q, big_r, big_s = (big_p + m * p, big_q + m * q,
                                          big_r + m * r, big_s + m * s)
    return _element(big_p, big_q, big_r, big_s, poly._den * scale ** top)


def expect_complex(fam: GaussianFamily,
                   factors: Iterable[Tuple[GaussPoly, int]]) -> ExactComplex:
    """E[prod of (z, zbar) polynomials in the family's complex coordinates].

    Each factor is (``hermite.BiPoly``, complex variable index k in 0..K-1);
    conjugate a factor with its conj() before passing it in.  Its (x, y) form
    is embedded at zeta_k's coordinates (k, K + k) of a ``from_complex_gram``
    family, the factors multiplied left to right and :func:`expect` taken.
    """
    if fam.complex_dim is None:
        raise ValueError("family has no complex coordinates (see from_complex_gram)")
    poly = GaussPoly.constant(fam.dim, 1)
    for p, var in factors:
        poly = poly * embed(p.to_xy(), (var, fam.complex_dim + var), fam.dim)
    return expect(fam, poly)
