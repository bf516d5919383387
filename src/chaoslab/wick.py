"""Exact Gaussian expectations by Isserlis pairing sums.

This is the brute-force oracle the rest of the package is checked against:
expectations of polynomials in finitely many jointly Gaussian coordinates,
computed as sums over perfect matchings with exact rational covariance.
Complex variables are always reduced to pairs of real coordinates before
pairing; no complex shortcut is used here.

``GaussPoly`` is the package's one sparse exact polynomial class;
``hermite.BiPoly``, the polynomials in (z, zbar), is its two-variable case,
and :func:`embed` places a small polynomial into chosen coordinates of a
larger one.  Sharing the algebra does not make the oracle depend on what it
checks: the expectation is still a pairing sum over the covariance
(``_pairing_sum``), never a closed form for products of chaos elements.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .exact import EC, ExactComplex, ZERO

Exponents = Tuple[int, ...]


def _is_rational_matrix(rows) -> bool:
    return all(isinstance(x, (int, Fraction)) for row in rows for x in row)


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
    """A centered Gaussian vector given by its (rational) covariance matrix."""

    def __init__(self, covariance, complex_pairs=None):
        rows = [tuple(row) for row in covariance]
        d = len(rows)
        if any(len(row) != d for row in rows):
            raise ValueError("covariance must be square")
        for i in range(d):
            for j in range(d):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("covariance must be symmetric")
        if _is_rational_matrix(rows):
            rows = [tuple(Fraction(x) for x in row) for row in rows]
            if not _psd_exact(rows):
                raise ValueError("covariance is not positive semidefinite")
        else:
            import numpy as np

            w = np.linalg.eigvalsh(np.array(rows, dtype=float))
            if w.min() < -1e-10:
                raise ValueError("covariance is not positive semidefinite")
        self.dim = d
        self.covariance = rows
        # optional map complex variable k -> (xi coordinate, eta coordinate)
        self.complex_pairs = tuple(complex_pairs) if complex_pairs else None

    @classmethod
    def standard(cls, d: int) -> "GaussianFamily":
        """d i.i.d. standard normal coordinates."""
        eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        pairs = None
        if d % 2 == 0:
            k = d // 2
            pairs = [(i, k + i) for i in range(k)]
        return cls(eye, complex_pairs=pairs)

    @classmethod
    def from_complex_gram(cls, gram) -> "GaussianFamily":
        """Jointly symmetric complex Gaussians zeta_k = xi_k + i eta_k.

        ``gram`` is the Hermitian matrix of E[zeta_j conj(zeta_k)]; the
        relation matrix E[zeta_j zeta_k] is identically zero (symmetry).
        Real layout: coordinates 0..K-1 are xi, K..2K-1 are eta.
        """
        g = [[ExactComplex.coerce(x) for x in row] for row in gram]
        k = len(g)
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
        return cls(cov, complex_pairs=[(i, k + i) for i in range(k)])

    @classmethod
    def complex_standard(cls, k: int) -> "GaussianFamily":
        """k i.i.d. symmetric complex Gaussians with variance 2."""
        gram = [[EC(2 if i == j else 0) for j in range(k)] for i in range(k)]
        return cls.from_complex_gram(gram)


def isserlis_moment(fam: GaussianFamily, exponents: Sequence[int]) -> Fraction:
    """E[prod_i g_i^{k_i}] as an exact pairing sum; 0 for odd total degree."""
    exps = tuple(int(e) for e in exponents)
    if len(exps) != fam.dim:
        raise ValueError(f"expected {fam.dim} exponents, got {len(exps)}")
    if any(e < 0 for e in exps):
        raise ValueError("exponents must be nonnegative")
    if sum(exps) % 2:
        return Fraction(0)
    return _pairing_sum(exps, fam.covariance, {})


def _pairing_sum(counts: Exponents, cov, memo) -> Fraction:
    if not any(counts):
        return Fraction(1)
    got = memo.get(counts)
    if got is not None:
        return got
    i = next(k for k, c in enumerate(counts) if c)
    rest = list(counts)
    rest[i] -= 1
    total = Fraction(0)
    row = cov[i]
    for j, c in enumerate(rest):
        if c == 0:
            continue
        cij = row[j]
        if cij == 0:
            continue
        rest[j] -= 1
        total += c * cij * _pairing_sum(tuple(rest), cov, memo)
        rest[j] += 1
    memo[counts] = total
    return total


class GaussPoly:
    """Sparse polynomial in ``dim`` variables with exact coefficients.

    Keys of the term map are exponent tuples of length ``dim``; values are
    nonzero ``ExactComplex``.  Instances are immutable.  Arithmetic returns
    the class of its polynomial operand (``hermite.BiPoly`` is the
    two-variable case), and a scalar may stand on either side of ``+``, ``-``
    and ``*``.
    """

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms: Mapping[Exponents, object] | None = None):
        self.dim = int(dim)
        cleaned: Dict[Exponents, ExactComplex] = {}
        if terms:
            for key, coeff in terms.items():
                exps = tuple(int(e) for e in key)
                if len(exps) != self.dim:
                    raise ValueError("exponent tuple has wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError("exponents must be nonnegative")
                c = ExactComplex.coerce(coeff)
                if not c.is_zero():
                    cleaned[exps] = c
        self._terms = cleaned

    def _make(self, terms: Dict[Exponents, ExactComplex]) -> "GaussPoly":
        """A polynomial of self's class and dim holding ``terms`` as given:
        its keys must be valid and its values nonzero ExactComplex."""
        out = object.__new__(type(self))
        out.dim = self.dim
        out._terms = terms
        return out

    def _scalar(self, value) -> "GaussPoly":
        c = ExactComplex.coerce(value)
        return self._make({} if c.is_zero() else {(0,) * self.dim: c})

    @classmethod
    def constant(cls, dim: int, value) -> "GaussPoly":
        return cls(dim, {(0,) * dim: value})

    def terms(self) -> Dict[Exponents, ExactComplex]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        return max((sum(k) for k in self._terms), default=0)

    def conj(self) -> "GaussPoly":
        """Conjugate the coefficients; the variables are real."""
        return self._make({k: c.conjugate() for k, c in self._terms.items()})

    def __add__(self, other):
        if not isinstance(other, GaussPoly):
            return self + self._scalar(other)
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = out.get(k, ZERO) + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return self._make(out)

    __radd__ = __add__

    def __neg__(self):
        return self._make({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GaussPoly):
            other = self._scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, GaussPoly):
            c = ExactComplex.coerce(other)
            if c.is_zero():
                return self._make({})
            return self._make({k: c * v for k, v in self._terms.items()})
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out: Dict[Exponents, ExactComplex] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key = tuple(map(add, k1, k2))
                s = out.get(key, ZERO) + c1 * c2
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return self._make(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        terms = ", ".join(f"{k}: {c!r}" for k, c in sorted(self._terms.items()))
        return f"{type(self).__name__}(dim={self.dim}, {{{terms}}})"


def embed(terms: Mapping[Exponents, object], coords: Sequence[int], dim: int) -> GaussPoly:
    """Substitute X_{coords[i]} for variable i of a small polynomial's term map.

    The result is a polynomial over ``dim`` coordinates.  Keys that land on
    one exponent tuple (a repeated coordinate) are summed, so the
    substitution is a ring map: embed(p * q) = embed(p) * embed(q).
    """
    out: Dict[Exponents, ExactComplex] = {}
    for key, coeff in terms.items():
        exps = [0] * dim
        for coord, e in zip(coords, key, strict=True):
            exps[coord] += e
        exps, c = tuple(exps), ExactComplex.coerce(coeff)
        out[exps] = out[exps] + c if exps in out else c
    return GaussPoly(dim, out)


def expect(fam: GaussianFamily, poly: GaussPoly) -> ExactComplex:
    """Exact expectation of a polynomial in the family's coordinates."""
    if poly.dim != fam.dim:
        raise ValueError(f"polynomial dim {poly.dim} != family dim {fam.dim}")
    memo: Dict[Exponents, Fraction] = {}
    total = ZERO
    for exps, coeff in poly._terms.items():
        if sum(exps) % 2:
            continue
        total = total + coeff * EC(_pairing_sum(exps, fam.covariance, memo))
    return total


def bipoly_to_gausspoly(p: GaussPoly, var: int, fam: GaussianFamily) -> GaussPoly:
    """Substitute zeta_var = xi + i eta into a ``hermite.BiPoly`` in (z, zbar)."""
    if fam.complex_pairs is None:
        raise ValueError("family carries no complex coordinate pairs")
    return embed(p.to_xy(), fam.complex_pairs[var], fam.dim)


def expect_complex(fam: GaussianFamily,
                   factors: Iterable[Tuple[GaussPoly, int]]) -> ExactComplex:
    """E[prod of (z, zbar) polynomials in the family's complex coordinates].

    Each factor is (``hermite.BiPoly``, complex variable index); conjugate a
    factor with its conj() before passing it in.  Everything is reduced to real
    coordinates and delegated to :func:`expect`.
    """
    poly = GaussPoly.constant(fam.dim, 1)
    for p, var in factors:
        poly = poly * bipoly_to_gausspoly(p, var, fam)
    return expect(fam, poly)
