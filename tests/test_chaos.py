"""Sampling determinism, evaluation rules, decomposition, exact moments."""

import itertools
import math
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from chaoslab import chaos, fourth_moment as fm, hermite
from chaoslab.chaos import (decompose, element_poly, eval_complex, eval_real,
                            exact_moment, sample_batch)
from chaoslab.exact import EC, ExactComplex
from chaoslab.hermite import complex_hermite
from chaoslab.tensor import (ComplexKernel, SymTensor, inner, kernel_inner,
                             multiplicity_factor)
from chaoslab.wick import GaussianFamily, expect


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


class TestSampling:
    def test_reproducible(self):
        a = sample_batch(3, 50, seed=123)
        b = sample_batch(3, 50, seed=123)
        assert (a.xi == b.xi).all() and (a.eta == b.eta).all()

    def test_chunking_invariance(self):
        whole = sample_batch(2, 100, seed=9)
        parts = [sample_batch(2, n, seed=9, start=s)
                 for s, n in ((0, 37), (37, 13), (50, 50))]
        xi = np.vstack([p.xi for p in parts])
        eta = np.vstack([p.eta for p in parts])
        assert (xi == whole.xi).all() and (eta == whole.eta).all()

    def test_seeds_differ(self):
        assert not (sample_batch(2, 10, seed=1).xi == sample_batch(2, 10, seed=2).xi).all()

    def test_marginals_and_independence(self):
        n = 1_000_000
        batch = sample_batch(1, n, seed=2024)
        bound = 4 / math.sqrt(n)
        assert abs(batch.xi.mean()) < bound
        assert abs((batch.xi[:, 0] * batch.eta[:, 0]).mean()) < bound
        assert abs(batch.xi.var() - 1) < 6 / math.sqrt(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_batch(0, 1, seed=0)
        with pytest.raises(ValueError):
            sample_batch(1, 0, seed=0)

    def test_seed_must_be_a_128_bit_key(self):
        # the seed is the Philox key: 2**128 + 1 would replay seed 1's stream
        top = sample_batch(1, 2, seed=2 ** 128 - 1)
        assert not (top.xi == sample_batch(1, 2, seed=1).xi).all()
        for seed in (2 ** 128, 2 ** 128 + 1, -1):
            with pytest.raises(ValueError, match="seed"):
                sample_batch(1, 2, seed=seed)

    def test_single_sample_view(self):
        batch = sample_batch(2, 1, seed=5)
        assert len(batch) == 1 and batch.dim == 2
        assert (batch.zeta == batch.xi + 1j * batch.eta).all()


class TestEvalReal:
    def test_coordinate(self):
        batch = sample_batch(1, 20, seed=3)
        f = SymTensor(1, 2, {(0,): 1})
        assert np.allclose(eval_real(f, batch), batch.xi[:, 0])

    def test_squared_coordinate(self):
        batch = sample_batch(1, 20, seed=3)
        f = SymTensor(2, 2, {(0, 0): 1})
        assert np.allclose(eval_real(f, batch), batch.xi[:, 0] ** 2 - 1)

    def test_power_tensor_addition_rule(self):
        # h = (e0 + e1)/sqrt(2): I_2(h (x) h) = H_2((xi0 + xi1)/sqrt(2))
        batch = sample_batch(1, 64, seed=8)
        f = SymTensor(2, 2, {(0, 0): 0.5, (0, 1): 0.5, (1, 1): 0.5})  # h (x) h
        arg = (batch.xi[:, 0] + batch.eta[:, 0]) / math.sqrt(2)
        assert np.allclose(eval_real(f, batch), arg ** 2 - 1, atol=1e-12)

    def test_single_sample(self):
        # slots D..2D-1 of a real tensor are the eta coordinates
        batch = sample_batch(1, 1, seed=4)
        f = SymTensor(1, 2, {(1,): 1})
        assert (eval_real(f, batch) == batch.eta[:, 0]).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            eval_real(SymTensor(1, 4, {(0,): 1}), sample_batch(1, 2, seed=0))

    def test_bit_identical_to_a_per_coordinate_recurrence(self):
        """The coordinate-major layout changes where the values sit, not
        the arithmetic: every value equals, with ==, the same recurrence
        run on the sample-major columns."""
        batch = sample_batch(3, 300, seed=21)
        w = np.hstack([batch.xi, batch.eta])

        def he(x, degree):
            prev, cur = np.ones_like(x), x.copy()
            if degree == 0:
                return prev
            for j in range(1, degree):
                prev, cur = cur, x * cur - j * prev
            return cur

        rnd = random.Random(22)
        for order in (1, 2, 3, 5):
            f = random_exact_tensor(order, 6, rnd)
            want = np.zeros(len(batch))
            for key, val in f.data.items():
                term = np.full(len(batch), float(multiplicity_factor(key)))
                for coord in sorted(set(key)):
                    term = term * he(w[:, coord], key.count(coord))
                want += val.to_complex().real * term
            assert (eval_real(f, batch) == want).all()


class TestEvalComplex:
    def test_degree_one(self):
        batch = sample_batch(2, 30, seed=6)
        phi = ComplexKernel(1, 0, 2, {((0,), ()): 1})
        assert np.allclose(eval_complex(phi, batch), batch.zeta[:, 0] / math.sqrt(2))

    def test_scaled_pair(self):
        batch = sample_batch(1, 30, seed=6)
        phi = ComplexKernel(1, 1, 1, {((0,), (0,)): 2})  # h (x) hbar, h = sqrt2 e0
        z = batch.zeta[:, 0]
        assert np.allclose(eval_complex(phi, batch), np.abs(z) ** 2 - 2)

    def test_off_diagonal_product(self):
        batch = sample_batch(2, 30, seed=7)
        phi = ComplexKernel(1, 1, 2, {((0,), (1,)): 1})
        want = batch.zeta[:, 0] * np.conj(batch.zeta[:, 1]) / 2
        assert np.allclose(eval_complex(phi, batch), want)

    def test_rank_one_reduces_to_single_hermite(self):
        # |h| = sqrt(2): the integral of h^(xm) (x) hbar^(xn) is J_{m,n}(Z(h))
        batch = sample_batch(2, 200, seed=11)
        h = np.array([1, 1])  # norm sqrt(2)
        z_h = (batch.zeta @ h) / math.sqrt(2)
        for m in range(4):
            for n in range(4 - m):
                phi = ComplexKernel.rank_one([1, 1], m, n)
                got = eval_complex(phi, batch)
                want = complex_hermite(m, n)(z_h)
                assert np.abs(got - want).max() <= 1e-9


class TestEvalComplexWork:
    """What one evaluation computes: each distinct J factor once per call,
    and the kernel's term plan once per kernel."""

    def test_each_distinct_j_factor_evaluated_once_per_call(self, monkeypatch):
        rnd = random.Random(31)
        phi = random_exact_kernel(2, 2, 3, rnd)
        batch = sample_batch(3, 50, seed=32)
        zeta = batch.xi + 1j * batch.eta
        calls = []
        real_evaluate = hermite.evaluate

        def counting(p, z):
            coord = [k for k in range(3) if (z == zeta[:, k]).all()]
            calls.append((coord[0], p))
            return real_evaluate(p, z)

        want = {(k, ta.count(k), tb.count(k)) for ta, tb in phi.data for k in set(ta + tb)}
        monkeypatch.setattr(hermite, "evaluate", counting)
        for _ in range(2):  # the plan is cached; the J values are not
            calls.clear()
            eval_complex(phi, batch)
            assert len(calls) == len(want)
            assert set(calls) == {(k, complex_hermite(a, b)) for k, a, b in want}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_term_plan_built_once_per_kernel(self, monkeypatch, workers):
        built = []
        real_build = chaos._build_term_plan
        monkeypatch.setattr(chaos, "_build_term_plan",
                            lambda phi: built.append(phi) or real_build(phi))
        phi = fm.gen_block_kernel(1, 2, 4)
        other = fm.gen_block_kernel(1, 2, 2)
        for _ in range(2):
            fm.estimate(phi, 700, seed=3, workers=workers, chunk_size=100)
        fm.estimate(other, 300, seed=3, workers=workers, chunk_size=100)
        assert built == [phi, other]

    def test_term_plan_built_once_under_thread_contention(self, monkeypatch):
        built = []
        real_build = chaos._build_term_plan

        def slow_build(phi):
            built.append(phi)
            time.sleep(0.02)  # widen the window in which a second thread could build
            return real_build(phi)

        monkeypatch.setattr(chaos, "_build_term_plan", slow_build)
        phi = fm.gen_block_kernel(1, 2, 4)
        batch = sample_batch(4, 10, seed=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda _: eval_complex(phi, batch), range(16),
                                        timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert built == [phi]
        assert all((r == results[0]).all() for r in results)

    def test_constant_term_adds_its_value(self):
        batch = sample_batch(2, 5, seed=1)
        phi = ComplexKernel(0, 0, 2, {((), ()): EC(3)})
        assert (eval_complex(phi, batch) == 3).all()

    def test_matches_the_term_by_term_rule(self):
        rnd = random.Random(33)
        batch = sample_batch(3, 400, seed=34)
        zeta = batch.xi + 1j * batch.eta
        for m, n in ((1, 0), (2, 1), (1, 2), (2, 2)):
            phi = random_exact_kernel(m, n, 3, rnd)
            want = np.zeros(len(batch), dtype=complex)
            for (ta, tb), val in phi.data.items():
                term = multiplicity_factor(ta) * multiplicity_factor(tb) \
                    * 2.0 ** (-(m + n) / 2) * val.to_complex() * np.ones(len(batch))
                for k in set(ta + tb):
                    term = term * complex_hermite(ta.count(k), tb.count(k))(zeta[:, k])
                want += term
            assert np.abs(eval_complex(phi, batch) - want).max() <= 1e-12 * np.abs(want).max()


class TestIsometries:
    def test_real_isometry_exact(self):
        rnd = random.Random(100)
        for order in range(1, 5):
            for _ in range(5):
                f = random_exact_tensor(order, 3, rnd)
                g = random_exact_tensor(order, 3, rnd)
                want = EC(math.factorial(order)) * inner(f, g)
                assert exact_moment([f, g]) == want

    def test_complex_isometry_exact(self):
        rnd = random.Random(200)
        for m in range(3):
            for n in range(3 - m):
                if m + n == 0:
                    continue
                for _ in range(4):
                    phi = random_exact_kernel(m, n, 2, rnd)
                    psi = random_exact_kernel(m, n, 2, rnd)
                    want = EC(math.factorial(m) * math.factorial(n)) \
                        * kernel_inner(phi, psi)
                    assert exact_moment([phi, (psi, True)]) == want

    def test_cross_bidegree_orthogonality(self):
        rnd = random.Random(300)
        pairs = [(m, n) for m in range(3) for n in range(3 - m) if 1 <= m + n <= 3]
        for (m1, n1) in pairs:
            for (m2, n2) in pairs:
                if (m1, n1) == (m2, n2):
                    continue
                phi = random_exact_kernel(m1, n1, 2, rnd)
                psi = random_exact_kernel(m2, n2, 2, rnd)
                assert exact_moment([phi, (psi, True)]) == EC(0)

    def test_square_of_unbalanced_bidegree_vanishes(self):
        rnd = random.Random(400)
        for (m, n) in ((1, 0), (1, 2), (0, 3), (2, 1)):
            phi = random_exact_kernel(m, n, 2, rnd)
            assert exact_moment([phi, phi]) == EC(0)


class TestDecompose:
    def test_degree_one_structure(self):
        phi = ComplexKernel(1, 0, 1, {((0,), ()): 1})
        u, v = decompose(phi)
        assert u.data == {(0,): ExactComplex(0, 0, Fraction(1, 2), 0)}  # 1/sqrt2
        assert v.data == {(1,): ExactComplex(0, 0, Fraction(1, 2), 0)}
        assert inner(u, v) == EC(0)
        assert inner(u, u) == EC(Fraction(1, 2)) == inner(v, v)

    def test_pathwise_identity_sweep(self):
        rnd = random.Random(17)
        batch = sample_batch(3, 500, seed=555)
        for m in range(3):
            for n in range(3 - m):
                if m + n == 0:
                    continue
                phi = random_exact_kernel(m, n, 3, rnd)
                u, v = decompose(phi)
                lhs = eval_complex(phi, batch)
                rhs = eval_real(u, batch) + 1j * eval_real(v, batch)
                assert np.abs(lhs - rhs).max() <= 1e-9

    def test_unbalanced_parts_orthogonal_equal_norm(self):
        rnd = random.Random(18)
        for (m, n) in ((1, 0), (2, 1), (0, 2), (1, 2)):
            phi = random_exact_kernel(m, n, 2, rnd)
            u, v = decompose(phi)
            assert inner(u, v) == EC(0)
            assert inner(u, u) == inner(v, v)

    def test_balanced_parts_need_not_be_orthogonal(self):
        phi = ComplexKernel(1, 1, 1, {((0,), (0,)): EC(1, 1)})
        u, v = decompose(phi)
        assert inner(u, v) != EC(0)

    def test_requires_exact_kernel(self):
        with pytest.raises(ValueError):
            decompose(ComplexKernel(1, 0, 1, {((0,), ()): 0.5}))


class TestExactMoment:
    def test_isometry_example(self):
        phi = ComplexKernel(1, 0, 1, {((0,), ()): 1})
        assert exact_moment([phi, (phi, True)]) == EC(1)

    def test_radial_square(self):
        phi = ComplexKernel(1, 1, 1, {((0,), (0,)): 2})  # J_{1,1}(zeta)
        assert exact_moment([phi, phi]) == EC(4)

    def test_unbalanced_square_vanishes(self):
        phi = ComplexKernel(1, 2, 1, {((0,), (0, 0)): 1})
        assert exact_moment([phi, phi]) == EC(0)

    def test_conjugate_kernel_lemma(self):
        # conj of the (m, n) integral is the (n, m) integral of the swapped kernel
        rnd = random.Random(77)
        phi = random_exact_kernel(1, 2, 2, rnd)
        psi = ComplexKernel(2, 1, 2, {(tb, ta): v.conjugate()
                                      for (ta, tb), v in phi.data.items()})
        probe = random_exact_kernel(2, 1, 2, rnd)
        assert exact_moment([(phi, True), (probe, True)]) == \
            exact_moment([psi, (probe, True)])

    def test_degree_budget(self):
        t = SymTensor(5, 2, {(0,) * 5: 1})
        with pytest.raises(ValueError):
            exact_moment([t, t, t, t])

    def test_dimension_mismatch(self):
        f = SymTensor(1, 2, {(0,): 1})
        g = SymTensor(1, 4, {(0,): 1})
        with pytest.raises(ValueError):
            exact_moment([f, g])

    def test_real_element_matches_wick_directly(self):
        rnd = random.Random(90)
        f = random_exact_tensor(2, 3, rnd)
        poly = element_poly(f)
        fam = GaussianFamily.standard(3)
        assert exact_moment([f, f]) == expect(fam, poly * poly)
