"""Acceptance suite: one test per criterion, one printed line per criterion.

Each criterion runs at its stated tolerance; the printed summary line makes
the pass/fail status visible in the pytest output (run with -s or read the
captured stdout of failures).
"""

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import j0

from chaoslab import cli, convert, fourth_moment as fm, hermite
from chaoslab.chaos import decompose, eval_complex, eval_real, exact_moment, sample_batch
from chaoslab.cli import run_experiment
from chaoslab.exact import EC, ONE, ZERO, ExactComplex
from chaoslab.hermite import (BiPoly, complex_hermite, hermite_coeffs,
                              hermite_of_linear, ou_apply, ou_apply_numeric,
                              ou_eigenvalue, real_hermite, real_hermite_y)
from chaoslab.tensor import ComplexKernel, SymTensor, inner, kernel_inner, product_moment
from chaoslab.wick import GaussianFamily, expect_complex


def report(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag}" + (f" - {detail}" if detail else ""))


def random_exact_tensor(order, dim, rnd):
    data = {}
    for t in itertools.combinations_with_replacement(range(dim), order):
        data[t] = Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
    return SymTensor(order, dim, data)


def random_exact_kernel(m, n, dim, rnd):
    data = {}
    for ta in itertools.combinations_with_replacement(range(dim), m):
        for tb in itertools.combinations_with_replacement(range(dim), n):
            data[(ta, tb)] = ExactComplex(Fraction(rnd.randint(-2, 2)),
                                          Fraction(rnd.randint(-2, 2)))
    return ComplexKernel(m, n, dim, data)


def hermite_float(n, x):
    return sum(c * x ** k for k, c in enumerate(hermite_coeffs(n)))


# Reference law of one (1, 2) chaos block A = J_{1,2}(zeta) = conj(zeta) (|zeta|^2 - 2)
# with E|zeta|^2 = 1: in law A = sqrt(R) (R - 2) e^{-i Theta}, R ~ Exp(1) and
# Theta ~ U[0, 2 pi) independent.


def block_law_moment(p, q):
    """E[A^p conj(A)^q], exactly: the phase averages to 0 unless p == q, and
    then the moment is E[R^p (R - 2)^(2p)], expanded with E R^j = j!."""
    if p != q:
        return Fraction(0)
    n = 2 * p
    return Fraction(sum(math.comb(n, i) * (-2) ** (n - i) * math.factorial(p + i)
                        for i in range(n + 1)))


def block_sum_kolmogorov_distance(k, t_max=40.0, n_t=4001, n_x=801):
    """sup_x |P(Re F_k <= x) - Phi(x)| for F_k = k^-1/2 (A_1 + ... + A_k).

    Averaging over Theta, Re A has characteristic function
    psi(s) = E J0(s sqrt(R) (R - 2)), so Re F_k has psi(t / sqrt k)^k, and
    Gil-Pelaez inversion gives
    F_k(x) - Phi(x) = (1/pi) int_0^inf sin(t x) (psi(t / sqrt k)^k - e^{-t^2/2}) / t dt
    (trapezoid rule on [0, t_max]).  The law is symmetric, so x runs over
    [0, 4].  Im A has the law of Re A, so the distance holds for Im F_k too.
    """
    t = np.linspace(0.0, t_max, n_t)
    psi = np.array([quad(lambda r: math.exp(-r) * j0(s * math.sqrt(r) * (r - 2.0)),
                         0.0, math.inf, limit=200)[0]
                    for s in t / math.sqrt(k)])
    g = np.zeros(n_t)
    g[1:] = (psi[1:] ** k - np.exp(-t[1:] ** 2 / 2)) / t[1:]
    w = np.full(n_t, t[1] - t[0])
    w[0] = w[-1] = w[0] / 2
    x = np.linspace(0.0, 4.0, n_x)
    return float(np.max(np.abs(np.sin(np.outer(x, t)) @ (g * w)))) / math.pi


def test_criterion_1_conversion_tables_exact():
    """Both conversion directions and their round trip, exactly, n <= 6, < 10 s."""
    t0 = time.monotonic()
    for n in range(7):
        c2r, r2c = convert.conversion_tables(n)
        for prod in (c2r.matmul(r2c), r2c.matmul(c2r)):
            for i in range(n + 1):
                for j in range(n + 1):
                    assert prod[i][j] == (ONE if i == j else ZERO)
        for m in range(n + 1):
            total = BiPoly()
            for k in range(n + 1):
                total = total + c2r.coefficient(m, k) * (
                    real_hermite(k) * real_hermite_y(n - k))
            assert total == complex_hermite(m, n - m)
        for k in range(n + 1):
            total = BiPoly()
            for m in range(n + 1):
                total = total + r2c.coefficient(k, m) * complex_hermite(m, n - m)
            assert total == real_hermite(k) * real_hermite_y(n - k)
    elapsed = time.monotonic() - t0
    report(1, elapsed < 10.0, f"exact both directions n<=6 in {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_2_monomial_expansion():
    """z^r zbar^s reconstructs exactly from its complex Hermite coefficients."""
    for r in range(6):
        for s in range(6):
            total = BiPoly()
            for (m, n), c in hermite.expand_monomial(r, s).items():
                total = total + c * complex_hermite(m, n)
            assert total == BiPoly({(r, s): 1})
    report(2, True, "exact for r, s <= 5")


def test_criterion_3_eigenrelation():
    """Generator eigenrelation: exact at 3-4-5 angles, 1e-12 at random ones."""
    exact_trigs = [(Fraction(4, 5), Fraction(3, 5)), (Fraction(3, 5), Fraction(4, 5)),
                   (Fraction(4, 5), Fraction(-3, 5)), (Fraction(1), Fraction(0))]
    for m in range(7):
        for n in range(7 - m):
            p = complex_hermite(m, n)
            for cos_t, sin_t in exact_trigs:
                assert ou_apply(p, (cos_t, sin_t)) == \
                    ou_eigenvalue(m, n, cos_t, sin_t) * p
    rng = np.random.default_rng(404)
    worst = 0.0
    for theta in rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, size=20):
        for m in range(7):
            for n in range(7 - m):
                p = complex_hermite(m, n)
                got = ou_apply_numeric(p, float(theta))
                lam = ou_eigenvalue(m, n, math.cos(theta), math.sin(theta))
                want = {k: lam * c.to_complex() for k, c in p.terms().items()}
                for key in set(got) | set(want):
                    worst = max(worst, abs(got.get(key, 0) - want.get(key, 0)))
    report(3, worst <= 1e-12, f"exact at 3-4-5 angles; max numeric error {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_4_determinant_law():
    """LU determinant vs closed form, 50 random grids n <= 8; inverse residual."""
    rnd = random.Random(8128)
    worst_rel = 0.0
    for _ in range(50):
        n = rnd.randint(0, 8)
        while True:
            angles = sorted((rnd.uniform(0.05, math.pi - 0.05) for _ in range(n + 1)),
                            reverse=True)
            if all(a - b >= 0.12 for a, b in zip(angles, angles[1:])):
                break
        grid = convert.ThetaGrid(tuple(angles))
        det = convert.build_angle_matrix(grid).determinant
        want = convert.det_closed_form(grid)
        worst_rel = max(worst_rel, abs(det - want) / abs(want))
    worst_resid = 0.0
    for n in range(9):
        am = convert.build_angle_matrix(convert.ThetaGrid.default(n))
        resid = float(np.abs(am.matrix @ am.inverse - np.eye(n + 1)).max())
        worst_resid = max(worst_resid, resid)
    ok = worst_rel <= 1e-10 and worst_resid <= 1e-10
    report(4, ok, f"max det rel err {worst_rel:.2e}; max inverse residual {worst_resid:.2e}")
    assert ok


def test_criterion_5_reconstruction_identities():
    """The four Hermite reconstruction identities, exact and pathwise."""
    exact_trigs = [(Fraction(1), Fraction(0)), (Fraction(3, 5), Fraction(4, 5)),
                   (Fraction(-5, 13), Fraction(12, 13))]
    for n in range(7):
        # rotated Hermite into products (rotation identity)
        for cos_t, sin_t in exact_trigs:
            coeffs = convert.rotation_expand(n, (cos_t, sin_t))
            total = BiPoly()
            for l in range(n + 1):
                total = total + EC(coeffs[l]) * (
                    real_hermite(l) * real_hermite_y(n - l))
            assert total == hermite_of_linear(n, cos_t, sin_t)
        # products from rank-one rotated Hermites through the exact inverse
        grid = convert.exact_grid(n)
        am = convert.build_angle_matrix_exact(grid)
        for l in range(n + 1):
            total = BiPoly()
            for k, (c, s) in enumerate(grid.trig):
                total = total + EC(am.minv(l, k)) * hermite_of_linear(n, c, s)
            assert total == real_hermite(l) * real_hermite_y(n - l)
        # rotated Hermite into the complex family
        for trig in exact_trigs:
            d = convert.hermite_to_complex_coeffs(n, trig)
            total = BiPoly()
            for k in range(n + 1):
                total = total + d[k] * complex_hermite(k, n - k)
            assert total == hermite_of_linear(n, trig[0], trig[1])
        # complex Hermite from rank-one rotated Hermites
        for k in range(n + 1):
            coeffs = convert.complex_to_hermite_coeffs(n, k, grid, am)
            total = BiPoly()
            for i, (c, s) in enumerate(grid.trig):
                total = total + coeffs[i] * hermite_of_linear(n, c, s)
            assert total == complex_hermite(k, n - k)

    # pathwise at generic angles, 100 random sample points, tolerance 1e-9
    D = 3
    batch = sample_batch(D, 100, seed=1234)
    rng = np.random.default_rng(77)
    worst = 0.0
    for n in range(1, 7):
        f = rng.standard_normal(D)
        g = rng.standard_normal(D)
        scale = math.sqrt(f @ f + g @ g)
        f, g = f / scale, g / scale
        xf = batch.xi @ f
        yg = batch.eta @ g
        nf, ng = math.sqrt(f @ f), math.sqrt(g @ g)
        # sum of two independent directions, split by norms
        lhs = hermite_float(n, xf + yg)
        rhs = sum(math.comb(n, l) * nf ** l * ng ** (n - l)
                  * hermite_float(l, xf / nf) * hermite_float(n - l, yg / ng)
                  for l in range(n + 1))
        worst = max(worst, np.abs(lhs - rhs).max())
        # product reconstruction through the inverse angle matrix
        grid = convert.ThetaGrid.default(n)
        am = convert.build_angle_matrix(grid)
        fu, gu = f / nf, g / ng
        xfu, ygu = batch.xi @ fu, batch.eta @ gu
        for l in range(n + 1):
            lhs = hermite_float(l, xfu) * hermite_float(n - l, ygu)
            rhs = sum(am.minv(l, k) * hermite_float(
                n, math.cos(t) * xfu + math.sin(t) * ygu)
                for k, t in enumerate(grid.angles))
            worst = max(worst, np.abs(lhs - rhs).max())
        # rotated Hermite as a complex combination at a generic angle
        theta = float(rng.uniform(0.1, 1.4))
        d = convert.hermite_to_complex_coeffs(n, theta)
        h_vec = math.sqrt(2) * np.exp(1j * theta) * (f - 1j * g)
        z_h = (batch.zeta @ h_vec) / math.sqrt(2)
        lhs = hermite_float(n, xf + yg).astype(complex)
        rhs = sum(d[k] * complex_hermite(k, n - k)(z_h) for k in range(n + 1))
        worst = max(worst, np.abs(lhs - rhs).max())
        # complex Hermite from rank-one directions at generic angles
        h2 = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        h2 *= math.sqrt(2) / np.linalg.norm(h2)
        z_h2 = (batch.zeta @ h2) / math.sqrt(2)
        for k in range(n + 1):
            coeffs = convert.complex_to_hermite_coeffs(n, k, grid)
            rhs = np.zeros(100, dtype=complex)
            for i, t in enumerate(grid.angles):
                fg = np.exp(1j * t) * np.conj(h2) / math.sqrt(2)
                rhs = rhs + coeffs[i] * hermite_float(
                    n, batch.xi @ fg.real + batch.eta @ fg.imag)
            lhs = complex_hermite(k, n - k)(z_h2)
            worst = max(worst, np.abs(lhs - rhs).max())
    report(5, worst <= 1e-9,
           f"exact n<=6 at rational-trig angles; pathwise max error {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_6_product_orthogonality():
    """Diagonal m! n! 2^(m+n), off-diagonal zero, exact for m + n <= 4."""
    fam = GaussianFamily.complex_standard(1)
    idx = [(m, n) for m in range(5) for n in range(5) if m + n <= 4]
    for m1, n1 in idx:
        for m2, n2 in idx:
            got = expect_complex(fam, [(complex_hermite(m1, n1), 0),
                                       (complex_hermite(m2, n2).conj(), 0)])
            if (m1, n1) == (m2, n2):
                assert got == EC(math.factorial(m1) * math.factorial(n1) * 2 ** (m1 + n1))
            else:
                assert got == EC(0)
    report(6, True, "exact sweep of all index pairs with m + n <= 4")


def test_criterion_7_isometries():
    """Real p! <f,g> and complex m! n! <f,g> match oracle expectations exactly."""
    rnd = random.Random(2025)
    checked = 0
    for _ in range(20):
        order = rnd.randint(1, 4)
        dim = rnd.randint(1, 3)
        f = random_exact_tensor(order, dim, rnd)
        g = random_exact_tensor(order, dim, rnd)
        assert exact_moment([f, g]) == EC(math.factorial(order)) * inner(f, g)
        checked += 1
    pairs = [(m, n) for m in range(5) for n in range(5) if 1 <= m + n <= 4]
    for i in range(20):
        m, n = pairs[i % len(pairs)]
        dim = rnd.randint(1, 3)
        phi = random_exact_kernel(m, n, dim, rnd)
        psi = random_exact_kernel(m, n, dim, rnd)
        want = EC(math.factorial(m) * math.factorial(n)) * kernel_inner(phi, psi)
        assert exact_moment([phi, (psi, True)]) == want
        checked += 1
    # cross-bidegree expectations vanish
    rnd2 = random.Random(99)
    for (m1, n1) in ((1, 0), (1, 1), (2, 1)):
        for (m2, n2) in ((0, 1), (2, 0), (1, 2)):
            if (m1, n1) == (m2, n2):
                continue
            phi = random_exact_kernel(m1, n1, 2, rnd2)
            psi = random_exact_kernel(m2, n2, 2, rnd2)
            assert exact_moment([phi, (psi, True)]) == EC(0)
    report(7, True, f"{checked} random rational kernels, exact equality")


def test_criterion_8_decomposition():
    """Pathwise real-pair decomposition to 1e-9 over 1000 samples; exact
    orthogonality and equal norms for unbalanced bidegrees."""
    rnd = random.Random(31337)
    batch = sample_batch(3, 1000, seed=31337)
    worst = 0.0
    for m in range(5):
        for n in range(5 - m):
            if not 1 <= m + n <= 4:
                continue
            dim = rnd.randint(1, 3)
            phi = random_exact_kernel(m, n, dim, rnd)
            sub = sample_batch(dim, 1000, seed=97 + m + 10 * n)
            u, v = decompose(phi)
            lhs = eval_complex(phi, sub)
            rhs = eval_real(u, sub) + 1j * eval_real(v, sub)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
            if m != n:
                assert inner(u, v) == EC(0)
                assert inner(u, u) == inner(v, v)
    report(8, worst <= 1e-9, f"pathwise max error {worst:.2e}; "
           "unbalanced parts exactly orthogonal with equal norms")
    assert worst <= 1e-9


def test_criterion_9_product_moment_formula():
    """Contraction formula equals oracle E[U^2 V^2]; nonnegativity gaps >= 0."""
    rnd = random.Random(606)
    worst = 0.0
    for i in range(20):
        q = 1 + i % 3
        dim = rnd.randint(1, 3)
        u = random_exact_tensor(q, dim, rnd)
        v = random_exact_tensor(q, dim, rnd)
        lhs = product_moment(u, v)
        rhs = exact_moment([u, u, v, v])
        assert lhs == rhs  # exact; the 1e-9 bound follows
        worst = max(worst, abs(lhs.to_complex() - rhs.to_complex()))
        eu2 = exact_moment([u, u])
        ev2 = exact_moment([v, v])
        gaps = (exact_moment([u, u, u, u]) - 3 * eu2 * eu2,
                exact_moment([v, v, v, v]) - 3 * ev2 * ev2,
                rhs - eu2 * ev2)
        for gap in gaps:
            assert gap.is_real() and gap.real_sign() >= 0
    report(9, True, f"20 random kernels, exact equality (float gap {worst:.1e}); "
           "all three gaps nonnegative")


def test_criterion_10_fourth_moment_trajectory():
    """Block-kernel trajectory: exact 2 sigma^4 + c/k law, Monte Carlo verdict,
    and the KS distance at k = 64 against F_64's exact distance from N(0, 1)."""
    # exact trajectory law at k in {1, 2, 4}
    base = fm.exact_report(fm.gen_block_kernel(1, 2, 1))
    sigma2 = base.abs2
    limit = 2 * sigma2 * sigma2
    c = base.abs4 - limit
    law_ok = sigma2 == 2.0 and limit == 8.0
    for k in (2, 4):
        rep = fm.exact_report(fm.gen_block_kernel(1, 2, k))
        law_ok = law_ok and rep.abs4 == limit + c / k and rep.abs2 == sigma2
    report("10a", law_ok, f"oracle E|F_k|^4 = {limit} + {c}/k exact at k in {{1,2,4}}")

    # Monte Carlo trajectory at k in {4, 16, 64}, N = 1e5, verdict tolerance
    n_samples = 100_000
    seed = 20240817
    ks_values = (4, 16, 64)
    refs = fm.block_reference_trajectory(1, 2, ks_values)
    values = np.empty(n_samples, complex)  # F_64 from 10b's pass, read again by 10c
    reports = [(k, fm.estimate(fm.gen_block_kernel(1, 2, k), n_samples, seed,
                               out=values if k == 64 else None))
               for k in ks_values]
    spec = fm.CriterionSpec(case="gaussian-offdiag", sigma2=2.0, m=1, n=2)
    v = fm.verdict(reports, spec, refs)
    gaps = [abs(rep.abs4 - 8.0) for _, rep in reports]
    report("10b", v.passed,
           f"MC abs4 gaps to 2 sigma^4: {[round(g, 3) for g in gaps]}, verdict "
           f"{'PASS' if v.passed else 'FAIL'}")

    # KS side channel: Re F and Im F vs N(0, 1) at k = 64.  The reference law
    # behind d_K must be the block the oracle (and so the sampler) uses.
    law_moments = (block_law_moment(1, 1), block_law_moment(2, 0),
                   block_law_moment(2, 2), block_law_moment(4, 0),
                   block_law_moment(3, 0) + 3 * block_law_moment(2, 1))
    assert law_moments == (2, 0, 176, 0, 0)
    assert (base.abs2, base.sq, base.abs4, base.fourth, base.t3) == law_moments
    d_k = block_sum_kolmogorov_distance(64)
    eps = math.sqrt(math.log(2 / 0.01) / (2 * n_samples))  # DKW radius, level 0.01
    ks_results = {}
    for component in ("re", "im"):
        samples = fm.collect_component_samples(values, component)
        d, p = fm.ks_distance(samples, fm.normal_cdf(0.0, 1.0))
        ks_results[component] = (d, p)
    ks_ok = all(abs(d - d_k) <= eps for d, _ in ks_results.values())
    report("10c", ks_ok, f"KS vs N(0,1) at k=64, d_K={d_k:.4f}, eps={eps:.4f}: "
           + ", ".join(f"{comp}: D={d:.4f}, p={p:.3g}"
                       for comp, (d, p) in ks_results.items()))

    passed = law_ok and v.passed and ks_ok
    report(10, passed, "trajectory law + Monte Carlo verdict + KS side channel")
    assert law_ok
    assert v.passed
    # F_64 is d_K = 0.0168 from N(0, 1) (kappa_4(Re F_64) = 63/64), but p >= 0.01
    # at N = 1e5 needs D < 1.63/sqrt(N) = 0.0052, so D is checked against d_K.
    assert ks_ok


def test_criterion_11_determinism_across_workers(tmp_path):
    """Identical outputs byte-for-byte across worker counts for fixed seeds."""
    base = {
        "seed": 4242,
        "n_samples": 20_000,
        "kernel": {"block": {"m": 1, "n": 2}},
        "k_values": [4, 16],
        "criterion": {"case": "gaussian-offdiag", "sigma2": 2.0, "m": 1, "n": 2},
        "exact_reference": True,
    }
    outputs = []
    for workers in (1, 2, 5):
        csv_text, verdict_doc = run_experiment({**base, "workers": workers}, tmp_path)
        import json
        outputs.append((csv_text.encode(),
                        json.dumps(verdict_doc, sort_keys=True).encode()))
    ok = outputs[0] == outputs[1] == outputs[2]
    report(11, ok, "CSV and verdict bytes identical for 1, 2 and 5 workers")
    assert ok


# digests of the straddling run below, recorded from the per-k estimate calls
# that the trajectory pass replaced (x86-64, numpy 2.4, scipy 1.17)
STRADDLE_DIGESTS = {
    "moments.csv": "f10865232808bbff6a1c82efe087d26513dc72393cc621ba2b5b522d5230a8fa",
    "verdict.json": "6125ae65dfca2b040727417a776243541e806a4813cf9fabf1ae49bdf68c0045",
}


def test_criterion_11_determinism_across_workers_on_straddling_chunks(tmp_path):
    """Criterion 11 where the trajectory pass draws for straddling chunks.

    k = 5 and 6 read 12 words a sample and k = 3 reads 8, so at 97 samples
    a chunk, k = 3's chunks cut across the lead (k = 5) chunks' word ranges
    and draw batches of their own; the ks section keeps F_3 from them."""
    outputs = []
    for workers in (1, 2, 5):
        cfg = tmp_path / f"cfg{workers}.json"
        cfg.write_text(json.dumps({
            "seed": 4242, "n_samples": 2000, "workers": workers, "chunk_size": 97,
            "kernel": {"block": {"m": 1, "n": 2}}, "k_values": [3, 5, 6],
            "criterion": {"case": "gaussian-offdiag", "sigma2": 2.0, "m": 1, "n": 2},
            "exact_reference": True, "ks": {"k": 3, "component": "re"}}))
        out = tmp_path / f"out{workers}"
        assert cli.main(["experiment", str(cfg), "--out", str(out)]) == 0
        outputs.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in STRADDLE_DIGESTS})
    ok = outputs[0] == outputs[1] == outputs[2] == STRADDLE_DIGESTS
    report("11b", ok, "straddling chunks: CSV and verdict bytes identical for 1, 2 and "
           "5 workers and to the per-k calls")
    assert ok
