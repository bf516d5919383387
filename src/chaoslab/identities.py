"""Exact identity suites behind the ``identities`` CLI subcommand.

Each suite verifies one family of symbolic identities by exact coefficient
comparison (rational-trig angles) plus, where meaningful, a floating check
at generic angles.  Suites return a result row instead of raising, so a
run reports every identity with a status and the first failure detail.

Several suites read the same exact constructions: the product basis
H_l(x) H_(n-l)(y), the rank-one rotated Hermites H_n(x cos t + y sin t)
and the Fraction-eliminated angle matrix of each exact grid.  Each is built
once per :func:`run_identity_suites` call, inside the first suite that
reads it, so ``identities_manifest.json`` charges its cost to that suite.
Every suite still makes its own comparisons.  Nothing outlives the call, so
a constructor patched between runs is always seen; a suite called on its
own builds what it reads.
"""

from __future__ import annotations

import contextvars
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


# the shared constructions of the running run_identity_suites call, keyed
# by (builder, arguments); None outside a run
_RUN_MEMO = contextvars.ContextVar("identities_run_memo", default=None)


def _shared(build: Callable, *args):
    """``build(*args)``, built once per :func:`run_identity_suites` call and
    on every call outside one."""
    memo = _RUN_MEMO.get()
    if memo is None:
        return build(*args)
    key = (build, args)
    if key not in memo:
        memo[key] = build(*args)
    return memo[key]


def _product(l: int, m: int) -> hermite.BiPoly:
    """H_l(x) H_m(y)."""
    return hermite.real_hermite(l) * hermite.real_hermite_y(m)


def _exact_angle_matrix(n: int) -> convert.AngleMatrix:
    """The exact angle matrix of the default exact grid at degree n."""
    return convert.build_angle_matrix_exact(convert.exact_grid(n))


def _rotated(n: int, cos_t: Fraction, sin_t: Fraction) -> hermite.BiPoly:
    """H_n(x cos t + y sin t)."""
    return hermite.hermite_of_linear(n, cos_t, sin_t)


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
        products = [_shared(_product, k, n - k) for k in range(n + 1)]
        hermites = [hermite.complex_hermite(m, n - m) for m in range(n + 1)]
        for m in range(n + 1):
            if hermite.BiPoly().plus(zip(c2r.rows[m], products, strict=True)) != hermites[m]:
                return IdentityResult(
                    "basis-expansion", False,
                    f"complex-to-real row (n={n}, m={m}) fails")
        for k in range(n + 1):
            if hermite.BiPoly().plus(zip(r2c.rows[k], hermites, strict=True)) != products[k]:
                return IdentityResult(
                    "basis-expansion", False,
                    f"real-to-complex row (n={n}, k={k}) fails")
    return IdentityResult("basis-expansion", True)


def suite_monomial_expansion(max_degree: int) -> IdentityResult:
    """z^r zbar^s reconstructs exactly from its complex Hermite coefficients."""
    bound = min(max_degree, 5)
    for r in range(bound + 1):
        for s in range(bound + 1):
            expansion = hermite.expand_monomial(r, s).items()
            total = hermite.BiPoly().plus((c, hermite.complex_hermite(m, n))
                                          for (m, n), c in expansion)
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
        products = [_shared(_product, l, n - l) for l in range(n + 1)]
        for cos_t, sin_t in _exact_trig_pairs():
            coeffs = convert.rotation_expand(n, (cos_t, sin_t))
            rhs = hermite.BiPoly().plus(zip(coeffs, products, strict=True))
            if rhs != _shared(_rotated, n, cos_t, sin_t):
                return IdentityResult("rotation-identity", False,
                                      f"n={n}, trig=({cos_t},{sin_t})")
    return IdentityResult("rotation-identity", True)


def suite_rotation_to_complex(max_degree: int) -> IdentityResult:
    """H_n(x cos t + y sin t) = sum_k d_k J_{k,n-k}(z); also d = rotation o table."""
    for n in range(max_degree + 1):
        _, r2c = convert.conversion_tables(n)
        hermites = [hermite.complex_hermite(k, n - k) for k in range(n + 1)]
        for cos_t, sin_t in _exact_trig_pairs():
            d = convert.hermite_to_complex_coeffs(n, (cos_t, sin_t))
            rhs = hermite.BiPoly().plus(zip(d, hermites, strict=True))
            if rhs != _shared(_rotated, n, cos_t, sin_t):
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
        am = _shared(_exact_angle_matrix, n)
        rotated = [_shared(_rotated, n, c, s) for c, s in am.grid.trig]
        for l in range(n + 1):
            rhs = hermite.BiPoly().plus((am.minv(l, k), rotated[k]) for k in range(n + 1))
            if rhs != _shared(_product, l, n - l):
                return IdentityResult("pair-reconstruction", False,
                                      f"exact: n={n}, l={l}")
    # floating check at generic angles, all sample points at once
    rng = random.Random(2718)
    z = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                  for _ in range(PAIR_SAMPLE_POINTS)])
    for n in range(min(max_degree, 6) + 1):
        am = convert.build_angle_matrix(convert.ThetaGrid.default(n))
        angles = np.array(am.grid.angles)
        # arg[p, k] = x_p cos t_k + y_p sin t_k, and H_n of it by Horner
        arg = np.outer(z.real, np.cos(angles)) + np.outer(z.imag, np.sin(angles))
        h_n = np.zeros_like(arg)
        for c in reversed(hermite.hermite_coeffs(n)):
            h_n = h_n * arg + c
        total = h_n @ am.inverse.T  # column l: sum_k minv(l, k) H_n(arg[:, k])
        for l in range(n + 1):
            err = float(np.abs(total[:, l] - _shared(_product, l, n - l)(z).real).max())
            if err > 1e-9:
                return IdentityResult("pair-reconstruction", False,
                                      f"floating: n={n}, l={l}, error {err:.2e}")
    return IdentityResult("pair-reconstruction", True)


def suite_complex_reconstruction(max_degree: int) -> IdentityResult:
    """J_{k,n-k}(z) as a combination of rank-one rotated Hermites, exactly."""
    for n in range(max_degree + 1):
        am = _shared(_exact_angle_matrix, n)
        rotated = [_shared(_rotated, n, c, s) for c, s in am.grid.trig]
        for k in range(n + 1):
            coeffs = convert.complex_to_hermite_coeffs(n, k, am.grid, am)
            rhs = hermite.BiPoly().plus(zip(coeffs, rotated, strict=True))
            if rhs != hermite.complex_hermite(k, n - k):
                return IdentityResult("complex-reconstruction", False,
                                      f"n={n}, k={k}")
    return IdentityResult("complex-reconstruction", True)


def suite_angle_matrix_determinant(max_degree: int) -> IdentityResult:
    """LU determinant against the closed-form product, exact and floating."""
    for n in range(max_degree + 1):
        am = _shared(_exact_angle_matrix, n)
        if am.determinant != convert.det_closed_form(am.grid):
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
    """Every suite's result, in ``SUITES`` order, each with its wall time.

    The shared exact constructions (see the module docstring) are built once
    for this call and dropped when it returns.  Each is built inside the
    first suite that reads it, so its cost is part of that suite's time in
    ``identities_manifest.json``.
    """
    if not 0 <= max_degree <= MAX_SYMBOLIC_DEGREE:
        raise ValueError(f"max_degree must be within 0..{MAX_SYMBOLIC_DEGREE}")
    results = []
    token = _RUN_MEMO.set({})
    try:
        for suite in SUITES:
            start = time.perf_counter()
            result = suite(max_degree)
            results.append(replace(result, seconds=time.perf_counter() - start))
    finally:
        _RUN_MEMO.reset(token)
    return results
