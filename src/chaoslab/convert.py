"""Basis changes between complex Hermite and real Hermite-product bases.

For fixed total degree n the families {J_{m,n-m}(z)} and
{H_k(x) H_{n-k}(y)} (z = x + iy) span the same space; this module holds
the exact conversion tables between them, the Hermite rotation identity

    H_n(x cos t + y sin t) = sum_l C(n,l) cos^l t sin^(n-l) t H_l(x) H_{n-l}(y),

the angle matrix M collecting that identity at a grid of angles (whose
determinant has the closed form prod_k C(n,k) * prod_{i<j} sin(t_i - t_j)),
and the two derived coefficient families that rewrite a rotated real
Hermite in the complex basis and a complex Hermite as a combination of
rank-one real Hermites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exact import EC, ExactComplex, ONE, ZERO, i_power

TrigPair = Tuple[Fraction, Fraction]


class IllConditionedError(RuntimeError):
    """Raised when a grid's angle matrix fails its inverse residual check."""


# -- angle grids -----------------------------------------------------------------


@dataclass(frozen=True)
class ThetaGrid:
    """Strictly decreasing angles t_0 > t_1 > ... > t_n, all in (0, pi).

    ``trig`` optionally carries exact rational (cos, sin) pairs for each
    angle, enabling exact table and matrix arithmetic.
    """

    angles: Tuple[float, ...]
    trig: Optional[Tuple[TrigPair, ...]] = None

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        object.__setattr__(self, "angles", angles)
        if not angles:
            raise ValueError("grid needs at least one angle")
        for a in angles:
            if not 0.0 < a < math.pi:
                raise ValueError(f"angle {a} outside (0, pi)")
        for a, b in zip(angles, angles[1:]):
            if not a > b:
                raise ValueError("angles must be strictly decreasing")
        if self.trig is not None:
            trig = tuple((Fraction(c), Fraction(s)) for c, s in self.trig)
            if len(trig) != len(angles):
                raise ValueError("trig pairs must match angles")
            for c, s in trig:
                if c * c + s * s != 1:
                    raise ValueError("(cos, sin) must lie on the unit circle")
                if s <= 0:
                    raise ValueError("sin must be positive on (0, pi)")
            object.__setattr__(self, "trig", trig)

    @property
    def n(self) -> int:
        return len(self.angles) - 1

    @classmethod
    def default(cls, n: int) -> "ThetaGrid":
        """Well-separated grid t_k = pi (n + 1 - k) / (n + 2), k = 0..n."""
        return cls(tuple(math.pi * (n + 1 - k) / (n + 2) for k in range(n + 1)))

    @classmethod
    def from_trig(cls, pairs: Sequence[TrigPair]) -> "ThetaGrid":
        """Build an exact grid from rational (cos, sin) pairs (any order)."""
        pairs = [(Fraction(c), Fraction(s)) for c, s in pairs]
        decorated = sorted(((math.atan2(float(s), float(c)), (c, s)) for c, s in pairs),
                           reverse=True)
        return cls(tuple(a for a, _ in decorated), tuple(p for _, p in decorated))


# Rational points on the unit circle with positive sine, for exact grids.
_PYTHAGOREAN = [
    (3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29),
    (9, 40, 41), (12, 35, 37), (11, 60, 61), (28, 45, 53), (33, 56, 65),
    (16, 63, 65), (48, 55, 73), (13, 84, 85), (36, 77, 85), (39, 80, 89),
]


def rational_angles(count: int) -> List[TrigPair]:
    """``count`` distinct rational (cos, sin) pairs with sin > 0, cos decreasing."""
    pool = {(Fraction(0), Fraction(1))}
    for p, q, r in _PYTHAGOREAN:
        for c, s in ((p, q), (q, p)):
            pool.add((Fraction(c, r), Fraction(s, r)))
            pool.add((Fraction(-c, r), Fraction(s, r)))
    if count > len(pool):
        raise ValueError(f"only {len(pool)} exact angles available")
    ordered = sorted(pool, key=lambda cs: cs[0])  # increasing cos = decreasing angle
    # spread the selection across (0, pi)
    picks = [ordered[round(i * (len(ordered) - 1) / max(count - 1, 1))]
             for i in range(count)]
    return picks


def exact_grid(n: int) -> ThetaGrid:
    """Default exact-trig grid with n + 1 rational angles."""
    return ThetaGrid.from_trig(rational_angles(n + 1))


# -- conversion tables --------------------------------------------------------


@dataclass(frozen=True)
class ConversionTable:
    """Dense (n+1) x (n+1) coefficient table for one conversion direction.

    direction "complex_to_real": row m gives J_{m,n-m}(z) over columns k of
    H_k(x) H_{n-k}(y).  direction "real_to_complex": row k gives
    H_k(x) H_{n-k}(y) over columns m of J_{m,n-m}(z).
    """

    degree: int
    direction: str
    rows: Tuple[Tuple[ExactComplex, ...], ...]

    def coefficient(self, row: int, col: int) -> ExactComplex:
        return self.rows[row][col]

    def matmul(self, other: "ConversionTable") -> List[List[ExactComplex]]:
        n = self.degree + 1
        return [[sum((self.rows[i][k] * other.rows[k][j] for k in range(n)), ZERO)
                 for j in range(n)] for i in range(n)]


def _complex_to_real_entry(n: int, m: int, k: int) -> ExactComplex:
    acc = 0
    for r in range(k + 1):
        s = k - r
        sign = -1 if (n - m - s) % 2 else 1
        acc += sign * math.comb(m, r) * math.comb(n - m, s)
    return i_power(n - k) * EC(acc)


def _real_to_complex_entry(n: int, k: int, m: int) -> ExactComplex:
    acc = 0
    for r in range(m + 1):
        s = m - r
        acc += math.comb(k, r) * math.comb(n - k, s) * (-1) ** s
    return i_power(n - k) * EC(Fraction(acc, 2 ** n))


@lru_cache(maxsize=None)
def conversion_tables(n: int) -> Tuple[ConversionTable, ConversionTable]:
    """Exact tables (complex_to_real, real_to_complex) at total degree n.

    The two matrices are exact inverses of one another.  Both are immutable,
    so one pair per degree is built and shared.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    c2r = tuple(tuple(_complex_to_real_entry(n, m, k) for k in range(n + 1))
                for m in range(n + 1))
    r2c = tuple(tuple(_real_to_complex_entry(n, k, m) for m in range(n + 1))
                for k in range(n + 1))
    return (ConversionTable(n, "complex_to_real", c2r),
            ConversionTable(n, "real_to_complex", r2c))


# -- rotation identity coefficients ---------------------------------------------


def rotation_expand(n: int, theta) -> list:
    """Coefficients over l of H_l(x) H_{n-l}(y) in H_n(x cos t + y sin t).

    ``theta`` is either a float angle or an exact (cos, sin) pair, in which
    case the returned coefficients are exact Fractions.
    """
    if isinstance(theta, tuple):
        c, s = Fraction(theta[0]), Fraction(theta[1])
        if c * c + s * s != 1:
            raise ValueError("(cos, sin) must lie on the unit circle")
    else:
        c, s = math.cos(theta), math.sin(theta)
    return [math.comb(n, l) * c ** l * s ** (n - l) for l in range(n + 1)]


# -- the angle matrix -------------------------------------------------------------


@dataclass(frozen=True)
class AngleMatrix:
    """Floating angle matrix with certified inverse.

    Entry [k][l] = C(n,l) sin^(n-l)(t_k) cos^l(t_k); row index follows the
    grid, column l follows powers of cos.  The inverse is indexed the other
    way around in the reconstruction identities, so use :meth:`minv` rather
    than raw transposition-prone indexing.
    """

    grid: ThetaGrid
    matrix: np.ndarray
    determinant: float
    inverse: np.ndarray

    def minv(self, l: int, k: int) -> float:
        """Entry (l, k) of the inverse: weight of angle k in reconstructing
        H_l(x) H_{n-l}(y)."""
        return float(self.inverse[l, k])


# largest entry of |M Minv - I| a floating angle matrix may leave
RESIDUAL_TOL = 1e-10


def build_angle_matrix(grid: ThetaGrid) -> AngleMatrix:
    """LU inverse of the angle matrix, with an infinity-norm residual check."""
    n = grid.n
    m = np.empty((n + 1, n + 1))
    for k, t in enumerate(grid.angles):
        c, s = math.cos(t), math.sin(t)
        for l in range(n + 1):
            m[k, l] = math.comb(n, l) * s ** (n - l) * c ** l
    det = float(np.linalg.det(m))
    inv = np.linalg.inv(m)
    resid = np.abs(m @ inv - np.eye(n + 1)).max()
    if resid > RESIDUAL_TOL:
        raise IllConditionedError(
            f"angle matrix residual {resid:.3e} exceeds {RESIDUAL_TOL:.1e}; "
            "grid angles are too close")
    return AngleMatrix(grid, m, det, inv)


def det_closed_form(grid: ThetaGrid) -> float:
    """prod_k C(n,k) * prod_{i<j} sin(t_i - t_j), floating point."""
    n = grid.n
    out = 1.0
    for k in range(n + 1):
        out *= math.comb(n, k)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            out *= math.sin(grid.angles[i] - grid.angles[j])
    return out


@dataclass(frozen=True)
class ExactAngleMatrix:
    """Rational angle matrix for exact-trig grids, inverted exactly."""

    grid: ThetaGrid
    matrix: Tuple[Tuple[Fraction, ...], ...]
    determinant: Fraction
    inverse: Tuple[Tuple[Fraction, ...], ...]

    def minv(self, l: int, k: int) -> Fraction:
        return self.inverse[l][k]


def _fraction_inverse(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], Fraction]:
    n = len(rows)
    a = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv_piv = 1 / a[col][col]
        a[col] = [x * inv_piv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a], det


def build_angle_matrix_exact(grid: ThetaGrid) -> ExactAngleMatrix:
    if grid.trig is None:
        raise ValueError("exact angle matrix needs a grid with rational trig")
    n = grid.n
    rows = [[Fraction(math.comb(n, l)) * s ** (n - l) * c ** l for l in range(n + 1)]
            for c, s in grid.trig]
    inv, det = _fraction_inverse([list(r) for r in rows])
    return ExactAngleMatrix(grid, tuple(tuple(r) for r in rows), det,
                            tuple(tuple(r) for r in inv))


def det_closed_form_exact(grid: ThetaGrid) -> Fraction:
    """Exact determinant product using sin(t_i - t_j) = s_i c_j - c_i s_j."""
    if grid.trig is None:
        raise ValueError("needs a grid with rational trig")
    n = grid.n
    out = Fraction(1)
    for k in range(n + 1):
        out *= math.comb(n, k)
    for i in range(n + 1):
        ci, si = grid.trig[i]
        for j in range(i + 1, n + 1):
            cj, sj = grid.trig[j]
            out *= si * cj - ci * sj
    return out


# -- derived coefficient families --------------------------------------------------


def hermite_to_complex_coeffs(n: int, theta) -> list:
    """Coefficients d_0..d_n with H_n(X(f) + Y(g)) = sum_k d_k J_{k,n-k}(Z(h)).

    Here |f|^2 + |g|^2 = 1 and h = sqrt(2) e^{i t} (f - i g).  Exact
    (cos, sin) input gives exact output.

        d_k = 2^-n sum_l W(k,l) p_l,   p_l = C(n,l) cos^l t (i sin t)^{n-l},
        W(k,l) = sum_{r+s=k} (-1)^s C(l,r) C(n-l,s)

    The powers of cos t and i sin t are built incrementally, so each p_l is
    formed once per call, and every W(k,l) is an integer.
    """
    if isinstance(theta, tuple):
        cos_t, sin_t = Fraction(theta[0]), Fraction(theta[1])
        if cos_t * cos_t + sin_t * sin_t != 1:
            raise ValueError("(cos, sin) must lie on the unit circle")
        cos_t, i_sin_t, one, zero = EC(cos_t), EC(0, sin_t), ONE, ZERO
    else:
        cos_t, i_sin_t, one, zero = math.cos(theta), 1j * math.sin(theta), 1.0, 0j
    cos_pow, i_sin_pow = [one], [one]
    for _ in range(n):
        cos_pow.append(cos_pow[-1] * cos_t)
        i_sin_pow.append(i_sin_pow[-1] * i_sin_t)
    p = [math.comb(n, l) * cos_pow[l] * i_sin_pow[n - l] for l in range(n + 1)]
    out = []
    for k in range(n + 1):
        acc = zero
        for l in range(n + 1):
            w = sum((-1) ** (k - r) * math.comb(l, r) * math.comb(n - l, k - r)
                    for r in range(min(k, l) + 1))
            if w:
                acc = acc + w * p[l]
        out.append(acc / 2 ** n)
    return out


def complex_to_hermite_coeffs(n: int, k: int, grid: ThetaGrid,
                              angle_matrix=None) -> list:
    """Coefficients c_0..c_n with J_{k,n-k}(Z(h)) = sum_i c_i H_n(X(f_i) + Y(g_i)).

    Here |h| = sqrt(2) and f_i + i g_i = 2^-1/2 e^{i t_i} conj(h).  Writing
    A for the complex-to-real conversion table at degree n, the weight of
    angle i is c_i = sum_j Minv[j][i] * A[k][j].
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if grid.n != n:
        raise ValueError("grid degree does not match n")
    c2r, _ = conversion_tables(n)
    if grid.trig is not None:
        row, zero = c2r.rows[k], ZERO
        angle_matrix = angle_matrix or build_angle_matrix_exact(grid)
    else:
        row, zero = [x.to_complex() for x in c2r.rows[k]], 0j
        angle_matrix = angle_matrix or build_angle_matrix(grid)
    out = []
    for i in range(n + 1):
        acc = zero
        for j in range(n + 1):
            acc = acc + angle_matrix.minv(j, i) * row[j]
        out.append(acc)
    return out


def table_csv_rows(table: ConversionTable) -> List[List[str]]:
    """Serialize a conversion table for golden-file review."""
    header = ["row"] + [f"col{j}" for j in range(table.degree + 1)]
    rows = [header]
    for i, row in enumerate(table.rows):
        rows.append([str(i)] + [_entry_str(x) for x in row])
    return rows


def _entry_str(x: ExactComplex) -> str:
    return x.rational_str().replace(" ", "")
