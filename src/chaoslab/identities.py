"""Exact identity suites behind the ``identities`` CLI subcommand.

Each suite verifies one family of symbolic identities by exact coefficient
comparison (rational-trig angles) plus, where meaningful, a floating check
at generic angles.  Suites return a result row instead of raising, so a
run reports every identity with a status and the first failure detail.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, List, Tuple

import numpy as np

from . import convert, hermite
from .exact import EC, ONE, ZERO

MAX_SYMBOLIC_DEGREE = 8
# sizes of the floating checks at random or generic inputs
OU_RANDOM_ANGLES = 20
PAIR_SAMPLE_POINTS = 100
DETERMINANT_RANDOM_GRIDS = 50


@dataclass(frozen=True)
class IdentityResult:
    """One suite's outcome.  ``seconds`` is its wall time, set by
    :func:`run_identity_suites`; it takes no part in equality."""

    name: str
    passed: bool
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)


def _exact_trig_pairs() -> List[Tuple[Fraction, Fraction]]:
    return [(Fraction(1), Fraction(0)), (Fraction(4, 5), Fraction(3, 5)),
            (Fraction(-3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13))]


def suite_conversion_roundtrip(max_degree: int) -> IdentityResult:
    """Both conversion tables compose to the identity, all degrees."""
    for n in range(max_degree + 1):
        c2r, r2c = convert.conversion_tables(n)
        for prod in (c2r.matmul(r2c), r2c.matmul(c2r)):
            for i in range(n + 1):
                for j in range(n + 1):
                    want = ONE if i == j else ZERO
                    if prod[i][j] != want:
                        return IdentityResult(
                            "conversion-roundtrip", False,
                            f"degree {n}: product entry ({i},{j}) = {prod[i][j]!r}")
    return IdentityResult("conversion-roundtrip", True)


def suite_basis_expansion(max_degree: int) -> IdentityResult:
    """Each row of both tables is a true polynomial identity."""
    for n in range(max_degree + 1):
        c2r, r2c = convert.conversion_tables(n)
        for m in range(n + 1):
            rhs = hermite.BiPoly()
            for k in range(n + 1):
                rhs = rhs + c2r.coefficient(m, k) * (
                    hermite.real_hermite(k) * hermite.real_hermite_y(n - k))
            if rhs != hermite.complex_hermite(m, n - m):
                return IdentityResult(
                    "basis-expansion", False,
                    f"complex-to-real row (n={n}, m={m}) fails")
        for k in range(n + 1):
            rhs = hermite.BiPoly()
            for m in range(n + 1):
                rhs = rhs + r2c.coefficient(k, m) * hermite.complex_hermite(m, n - m)
            want = hermite.real_hermite(k) * hermite.real_hermite_y(n - k)
            if rhs != want:
                return IdentityResult(
                    "basis-expansion", False,
                    f"real-to-complex row (n={n}, k={k}) fails")
    return IdentityResult("basis-expansion", True)


def suite_monomial_expansion(max_degree: int) -> IdentityResult:
    """z^r zbar^s reconstructs exactly from its complex Hermite coefficients."""
    bound = min(max_degree, 5)
    for r in range(bound + 1):
        for s in range(bound + 1):
            total = hermite.BiPoly()
            for (m, n), c in hermite.expand_monomial(r, s).items():
                total = total + c * hermite.complex_hermite(m, n)
            if total != hermite.BiPoly({(r, s): 1}):
                return IdentityResult("monomial-expansion", False,
                                      f"monomial ({r},{s}) fails")
    return IdentityResult("monomial-expansion", True)


def suite_conjugation_symmetry(max_degree: int) -> IdentityResult:
    for rho in (Fraction(1), Fraction(2)):
        for m in range(max_degree + 1):
            for n in range(max_degree + 1 - m):
                if hermite.complex_hermite(m, n, rho=rho).conj() != \
                        hermite.complex_hermite(n, m, rho=rho):
                    return IdentityResult("conjugation-symmetry", False,
                                          f"(m,n)=({m},{n}), rho={rho}")
    return IdentityResult("conjugation-symmetry", True)


def suite_ou_eigenrelation(max_degree: int) -> IdentityResult:
    """Generator eigenrelation: exact at rational-trig angles, 1e-12 at random ones."""
    trigs = [(Fraction(1), Fraction(0)), (Fraction(4, 5), Fraction(3, 5)),
             (Fraction(4, 5), Fraction(-3, 5)), (Fraction(3, 5), Fraction(4, 5))]
    for m in range(max_degree + 1):
        for n in range(max_degree + 1 - m):
            p = hermite.complex_hermite(m, n)
            for cos_t, sin_t in trigs:
                lhs = hermite.ou_apply(p, (cos_t, sin_t))
                lam = hermite.ou_eigenvalue(m, n, cos_t, sin_t)
                if lhs != lam * p:
                    return IdentityResult("ou-eigenrelation", False,
                                          f"exact (m,n)=({m},{n}), trig=({cos_t},{sin_t})")
    rng = random.Random(1812)
    for _ in range(OU_RANDOM_ANGLES):
        theta = rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05)
        for m in range(min(max_degree, 3) + 1):
            for n in range(min(max_degree, 3) + 1 - m):
                p = hermite.complex_hermite(m, n)
                lhs = hermite.ou_apply_numeric(p, theta)
                lam = hermite.ou_eigenvalue(m, n, math.cos(theta), math.sin(theta))
                want = {k: lam * c.to_complex() for k, c in p.terms().items()}
                keys = set(lhs) | set(want)
                err = max((abs(lhs.get(k, 0) - want.get(k, 0)) for k in keys), default=0.0)
                if err > 1e-12:
                    return IdentityResult("ou-eigenrelation", False,
                                          f"numeric error {err:.2e} at theta={theta:.4f}")
    return IdentityResult("ou-eigenrelation", True)


def suite_hermite_recurrence(max_degree: int) -> IdentityResult:
    """Derived check: the three-term recurrence against the derivative definition."""
    for n in range(1, max(max_degree, 12)):
        h_prev = hermite.hermite_coeffs(n - 1)
        h_cur = hermite.hermite_coeffs(n)
        h_next = hermite.hermite_coeffs(n + 1)
        # x H_n - n H_{n-1} term by term
        want = [0] * (n + 2)
        for k, c in enumerate(h_cur):
            want[k + 1] += c
        for k, c in enumerate(h_prev):
            want[k] -= n * c
        if tuple(want) != h_next:
            return IdentityResult("hermite-recurrence", False, f"fails at n={n}")
    return IdentityResult("hermite-recurrence", True)


def suite_rotation_identity(max_degree: int) -> IdentityResult:
    """H_n(x cos t + y sin t) = sum_l C(n,l) cos^l sin^(n-l) H_l(x) H_(n-l)(y)."""
    for n in range(max_degree + 1):
        for cos_t, sin_t in _exact_trig_pairs():
            coeffs = convert.rotation_expand(n, (cos_t, sin_t))
            rhs = hermite.BiPoly()
            for l in range(n + 1):
                rhs = rhs + EC(coeffs[l]) * (
                    hermite.real_hermite(l) * hermite.real_hermite_y(n - l))
            if rhs != hermite.hermite_of_linear(n, cos_t, sin_t):
                return IdentityResult("rotation-identity", False,
                                      f"n={n}, trig=({cos_t},{sin_t})")
    return IdentityResult("rotation-identity", True)


def suite_rotation_to_complex(max_degree: int) -> IdentityResult:
    """H_n(x cos t + y sin t) = sum_k d_k J_{k,n-k}(z); also d = rotation o table."""
    for n in range(max_degree + 1):
        _, r2c = convert.conversion_tables(n)
        for cos_t, sin_t in _exact_trig_pairs():
            d = convert.hermite_to_complex_coeffs(n, (cos_t, sin_t))
            rhs = hermite.BiPoly()
            for k in range(n + 1):
                rhs = rhs + d[k] * hermite.complex_hermite(k, n - k)
            if rhs != hermite.hermite_of_linear(n, cos_t, sin_t):
                return IdentityResult("rotation-to-complex", False,
                                      f"polynomial identity: n={n}, trig=({cos_t},{sin_t})")
            rot = convert.rotation_expand(n, (cos_t, sin_t))
            for k in range(n + 1):
                via_table = sum((EC(rot[l]) * r2c.coefficient(l, k)
                                 for l in range(n + 1)), ZERO)
                if via_table != d[k]:
                    return IdentityResult(
                        "rotation-to-complex", False,
                        f"coefficient route: n={n}, k={k}, trig=({cos_t},{sin_t})")
    return IdentityResult("rotation-to-complex", True)


def suite_pair_reconstruction(max_degree: int) -> IdentityResult:
    """H_l(x) H_(n-l)(y) from rank-one rotated Hermites through the inverse matrix."""
    for n in range(max_degree + 1):
        grid = convert.exact_grid(n)
        am = convert.build_angle_matrix_exact(grid)
        rotated = [hermite.hermite_of_linear(n, c, s) for c, s in grid.trig]
        for l in range(n + 1):
            rhs = hermite.BiPoly()
            for k in range(n + 1):
                rhs = rhs + EC(am.minv(l, k)) * rotated[k]
            want = hermite.real_hermite(l) * hermite.real_hermite_y(n - l)
            if rhs != want:
                return IdentityResult("pair-reconstruction", False,
                                      f"exact: n={n}, l={l}")
    # floating check at generic angles
    rng = random.Random(2718)
    pts = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(PAIR_SAMPLE_POINTS)]
    for n in range(min(max_degree, 6) + 1):
        grid = convert.ThetaGrid.default(n)
        am = convert.build_angle_matrix(grid)
        for l in range(n + 1):
            want = hermite.real_hermite(l) * hermite.real_hermite_y(n - l)
            for z in pts:
                x, y = z.real, z.imag
                total = 0.0
                for k, t in enumerate(grid.angles):
                    arg = x * math.cos(t) + y * math.sin(t)
                    total += am.minv(l, k) * _hermite_value(n, arg)
                if abs(total - want(z).real) > 1e-9:
                    return IdentityResult(
                        "pair-reconstruction", False,
                        f"floating: n={n}, l={l}, error {abs(total - want(z).real):.2e}")
    return IdentityResult("pair-reconstruction", True)


def _hermite_value(n: int, x: float) -> float:
    return float(sum(c * x ** k for k, c in enumerate(hermite.hermite_coeffs(n))))


def suite_complex_reconstruction(max_degree: int) -> IdentityResult:
    """J_{k,n-k}(z) as a combination of rank-one rotated Hermites, exactly."""
    for n in range(max_degree + 1):
        grid = convert.exact_grid(n)
        am = convert.build_angle_matrix_exact(grid)
        rotated = [hermite.hermite_of_linear(n, c, s) for c, s in grid.trig]
        for k in range(n + 1):
            coeffs = convert.complex_to_hermite_coeffs(n, k, grid, am)
            rhs = hermite.BiPoly()
            for c, poly in zip(coeffs, rotated):
                rhs = rhs + c * poly
            if rhs != hermite.complex_hermite(k, n - k):
                return IdentityResult("complex-reconstruction", False,
                                      f"n={n}, k={k}")
    return IdentityResult("complex-reconstruction", True)


def suite_angle_matrix_determinant(max_degree: int) -> IdentityResult:
    """LU determinant against the closed-form product, exact and floating."""
    for n in range(max_degree + 1):
        grid = convert.exact_grid(n)
        am = convert.build_angle_matrix_exact(grid)
        if am.determinant != convert.det_closed_form(grid):
            return IdentityResult("angle-matrix-determinant", False,
                                  f"exact mismatch at n={n}")
    rng = random.Random(31415)
    bound = min(max_degree, 8)
    for trial in range(DETERMINANT_RANDOM_GRIDS):
        n = rng.randint(0, bound)
        grid = _random_grid(n, rng)
        det = convert.build_angle_matrix(grid).determinant
        want = convert.det_closed_form(grid)
        if abs(det - want) > 1e-10 * max(abs(want), 1e-300):
            return IdentityResult(
                "angle-matrix-determinant", False,
                f"floating: trial {trial}, n={n}, rel err "
                f"{abs(det - want) / abs(want):.2e}")
    return IdentityResult("angle-matrix-determinant", True)


def _random_grid(n: int, rng: random.Random) -> convert.ThetaGrid:
    while True:
        angles = sorted((rng.uniform(0.05, math.pi - 0.05) for _ in range(n + 1)),
                        reverse=True)
        if all(a - b >= 0.12 for a, b in zip(angles, angles[1:])):
            return convert.ThetaGrid(tuple(angles))


def suite_angle_matrix_inverse(max_degree: int) -> IdentityResult:
    """Inverse residual certificate on the default grids."""
    for n in range(max_degree + 1):
        grid = convert.ThetaGrid.default(n)
        am = convert.build_angle_matrix(grid)
        resid = float(np.abs(am.matrix @ am.inverse - np.eye(n + 1)).max())
        if resid > 1e-10:
            return IdentityResult("angle-matrix-inverse", False,
                                  f"n={n}: residual {resid:.2e}")
    return IdentityResult("angle-matrix-inverse", True)


SUITES: List[Callable[[int], IdentityResult]] = [
    suite_conversion_roundtrip,
    suite_basis_expansion,
    suite_monomial_expansion,
    suite_conjugation_symmetry,
    suite_ou_eigenrelation,
    suite_hermite_recurrence,
    suite_rotation_identity,
    suite_rotation_to_complex,
    suite_pair_reconstruction,
    suite_complex_reconstruction,
    suite_angle_matrix_determinant,
    suite_angle_matrix_inverse,
]


def run_identity_suites(max_degree: int) -> List[IdentityResult]:
    """Every suite's result, in ``SUITES`` order, each with its wall time."""
    if not 0 <= max_degree <= MAX_SYMBOLIC_DEGREE:
        raise ValueError(f"max_degree must be within 0..{MAX_SYMBOLIC_DEGREE}")
    results = []
    for suite in SUITES:
        start = time.perf_counter()
        result = suite(max_degree)
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
