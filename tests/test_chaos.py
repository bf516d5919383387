"""Sampling determinism, evaluation rules, decomposition, exact moments."""

import itertools
import math
import random
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtri

from chaoslab import chaos, fourth_moment as fm, hermite
from chaoslab.chaos import (decompose, element_poly, eval_complex, eval_real,
                            exact_moment, sample_batch)
from chaoslab.exact import EC, I_UNIT, ExactComplex, half_power
from chaoslab.hermite import complex_hermite
from chaoslab.tensor import (ComplexKernel, SymTensor, inner, kernel_inner,
                             multiplicity_factor)
from chaoslab.wick import GaussianFamily, GaussPoly, expect, expect_complex


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

    @pytest.mark.parametrize("D, N, start", [(1, 1, 0), (2, 13, 37), (3, 1, 24576),
                                             (5, 9, 0), (64, 7, 3), (65, 4, 1000)])
    def test_stream_is_the_philox_midpoint_formula(self, D, N, start):
        # every Monte Carlo byte rests on this stream: sample i takes the 2D
        # words of Philox blocks i*b .. i*b + b - 1, b = ceil(2D / 4), and
        # maps each through the midpoint of its top 53 bits and ndtri; an
        # odd D leaves the last two words of each sample unused
        seed = 2 ** 100 + 3
        blocks = (2 * D + 3) // 4
        raw = np.random.Philox(key=seed, counter=start * blocks).random_raw(4 * blocks * N)
        words = raw.reshape(N, 4 * blocks)[:, :2 * D]
        normals = ndtri((words >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54)
        batch = sample_batch(D, N, seed, start=start)
        assert batch.xi.tobytes() == normals[:, :D].tobytes()
        assert batch.eta.tobytes() == normals[:, D:].tobytes()


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
        half = Fraction(1, 2)
        f = SymTensor(2, 2, {(0, 0): half, (0, 1): half, (1, 1): half})  # h (x) h
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


@st.composite
def grouped_term_kernels(draw):
    """Kernels over up to 50 coordinates, so up to three groups of the term
    loop's layout, whose terms draw their coordinates from a few: factors
    are shared between terms, a coordinate repeats within a term, and the
    stored order jumps between groups and back."""
    d = draw(st.integers(1, 50))
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3 - m))
    pool = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=5))
    block = lambda size: st.lists(st.sampled_from(pool), min_size=size, max_size=size).map(
        lambda t: tuple(sorted(t)))
    keys = draw(st.lists(st.tuples(block(m), block(n)), min_size=1, max_size=12, unique=True))
    value = st.complex_numbers(min_magnitude=0.1, max_magnitude=3, allow_nan=False,
                               allow_infinity=False)
    return ComplexKernel(m, n, d, {key: draw(value) for key in keys})


# the third term returns to the first group after one that reads the
# third, and the fourth reads all three
REVISITING_KERNEL = ComplexKernel(2, 1, 48, {
    ((0, 0), (1,)): 1.5, ((33, 39), (33,)): -0.5j, ((0, 0), (0,)): 2 - 1j,
    ((1, 17), (33,)): 0.25, ((17, 17), (17,)): -1.0})


class TestEvalComplexWork:
    """What one evaluation computes: each distinct J factor once per call,
    and the kernel's term plan once per kernel."""

    def test_each_distinct_j_factor_evaluated_once_per_call(self, monkeypatch):
        rnd = random.Random(31)
        phi = random_exact_kernel(2, 2, 3, rnd)
        assert isinstance(chaos._plan_of(phi), chaos._TermLoop)  # J factors are the loop's
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

    @pytest.mark.parametrize("fortran", [False, True], ids=["sampled", "fortran"])
    @pytest.mark.parametrize("d", [1, 3, 64])
    def test_row_blocks_of_zeta_change_no_bit(self, monkeypatch, d, fortran):
        step = 4
        monkeypatch.setattr(chaos, "_BLOCK_BYTES", 16 * d * step)  # blocks of 4 rows
        loop = chaos._TermLoop(fm.gen_block_kernel(1, 2, d))
        for n in (1, step - 1, step, step + 1, 3 * step + 7):
            batch = sample_batch(d, n, seed=n)  # xi and eta are views of one array
            if fortran:
                batch = chaos.SampleBatch(np.asfortranarray(batch.xi),
                                          np.asfortranarray(batch.eta))
            assert np.array_equal(loop(batch), term_loop_on_a_whole_array_layout(loop, batch))

    # two samples at least: numpy rounds a one-element in-place complex
    # product (the loop's ``buf *=``) apart from ``a * b`` (the reference's)
    @given(grouped_term_kernels(), st.sampled_from(["sampled", "words", "fortran"]),
           st.integers(2, 40))
    @example(REVISITING_KERNEL, "sampled", 33)
    @example(REVISITING_KERNEL, "words", 33)
    @example(REVISITING_KERNEL, "fortran", 7)
    @example(fm.gen_block_kernel(1, 2, 40), "sampled", 9)  # a last group of 24
    @settings(max_examples=60, deadline=None)
    def test_groups_and_lifetimes_change_no_bit(self, phi, kind, n):
        batch = sample_batch(phi.dim, n, seed=n)
        if kind == "words":  # strided rows of a wider batch's buffer
            width, wide_dim = chaos.word_width(phi.dim), phi.dim + 3
            wide = sample_batch(wide_dim, -(-(n + 2) * width // chaos.word_width(wide_dim)), seed=n)
            batch = chaos.words_batch(wide, phi.dim, 2 * width, n)
        elif kind == "fortran":
            batch = chaos.SampleBatch(np.asfortranarray(batch.xi), np.asfortranarray(batch.eta))
        loop = chaos._TermLoop(phi)
        want = term_loop_on_a_whole_array_layout(loop, batch)
        assert np.array_equal(loop(batch).view(np.float64), want.view(np.float64))

    def test_one_call_holds_no_chunk_sized_table(self):
        # a k = 64 chunk's whole zeta and J rows are 8 MiB each; the call
        # holds one group of 16 coordinates (2 MiB) and a few J rows
        loop = chaos._TermLoop(fm.gen_block_kernel(1, 2, 64))
        batch = sample_batch(64, 8192, seed=1)
        loop(batch)  # the J polynomials' evaluation plans are built once
        tracemalloc.start()
        try:
            loop(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def term_loop_on_a_whole_array_layout(loop, batch):
    """``_TermLoop``'s call with zeta laid out by one transposing write of the
    whole batch, as before the row blocks; the products run in the same order."""
    zeta = np.empty((batch.dim, len(batch)), dtype=np.complex128)
    zeta.real = batch.xi.T
    zeta.imag = batch.eta.T
    jvals = [complex_hermite(a, b)(zeta[k]) for k, a, b in loop.factors]
    out = np.zeros(len(batch), dtype=np.complex128)
    for c, where in loop.terms:
        term = jvals[where[0]] * c if where else np.full(len(batch), c)
        for i in where[1:]:
            term = term * jvals[i]
        out += term
    return out


def dense_kernel_instance(d):
    """perfbench's dense-kernel kernel at seed 1: rank-one (2,2) over d coordinates."""
    rng = np.random.default_rng(1)
    h = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    h *= 2.0 ** -0.25 / np.linalg.norm(h)
    return ComplexKernel.rank_one([complex(x) for x in h], 2, 2)


nonzero_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def wick_trace_kernels(draw):
    """Exact kernels with m + n <= 5 over d <= 4, on up to 12 stored terms."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5 - m))
    d = draw(st.integers(1, 4))
    keys = [(ta, tb) for ta in itertools.combinations_with_replacement(range(d), m)
            for tb in itertools.combinations_with_replacement(range(d), n)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=12, unique=True))
    return ComplexKernel(m, n, d, {key: ExactComplex(draw(nonzero_rational), draw(nonzero_rational))
                                   for key in chosen})


class TestWickTrace:
    """The dense route against the term loop and the real-pair rule, and the
    cost rule's choice of route on named kernels."""

    @given(wick_trace_kernels())
    @example(ComplexKernel(0, 0, 2, {((), ()): EC(3)}))
    @example(ComplexKernel(0, 3, 2, {((), (0, 0, 1)): ExactComplex(1, -2)}))
    @example(ComplexKernel(3, 0, 2, {((0, 1, 1), ()): ExactComplex(-1, 2)}))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_term_loop_and_the_real_pair(self, phi):
        batch = sample_batch(phi.dim, 300, seed=41)
        dense = chaos._WickTrace(phi)(batch)
        loop = chaos._TermLoop(phi)(batch)
        scale = np.abs(loop).max()
        assert np.abs(dense - loop).max() <= 1e-12 * scale
        u, v = decompose(phi)
        pair = eval_real(u, batch) + 1j * eval_real(v, batch)
        assert np.abs(dense - pair).max() <= 1e-9 * scale

    def test_row_blocks_cover_the_batch(self, monkeypatch):
        phi = dense_kernel_instance(4)
        batch = sample_batch(4, 1000, seed=42)
        whole = chaos._WickTrace(phi)(batch)
        monkeypatch.setattr(chaos, "_BLOCK_BYTES", 16 * 16 * 300)  # blocks of 300 rows
        blocked = chaos._WickTrace(phi)(batch)
        assert np.abs(blocked - whole).max() <= 1e-12 * np.abs(whole).max()

    @pytest.mark.parametrize("phi, route", [
        pytest.param(dense_kernel_instance(8), "_WickTrace", id="dense-kernel full"),
        pytest.param(dense_kernel_instance(2), "_TermLoop", id="dense-kernel tiny"),
        *(pytest.param(fm.gen_block_kernel(1, 2, k), "_TermLoop", id=f"block (1,2) k={k}")
          for k in (1, 4, 16, 64)),
        pytest.param(random_exact_kernel(2, 2, 3, random.Random(31)), "_TermLoop",
                     id="random (2,2) d=3"),
    ])
    def test_route_of_named_kernels(self, phi, route):
        assert type(chaos._build_term_plan(phi)) is getattr(chaos, route)


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


exact_part = st.fractions(min_value=-3, max_value=3, max_denominator=4)
exact_values = st.builds(ExactComplex, exact_part, exact_part, exact_part, exact_part)


@st.composite
def kernel_pairs(draw):
    """Two exact kernels of one bidegree (m, n), 1 <= m + n <= 3, over
    d <= 2 complex coordinates, with sqrt(2) and complex parts in values."""
    m, n = draw(st.sampled_from([(m, n) for m in range(4) for n in range(4 - m) if m + n]))
    d = draw(st.integers(1, 2))
    keys = [(ta, tb) for ta in itertools.combinations_with_replacement(range(d), m)
            for tb in itertools.combinations_with_replacement(range(d), n)]

    def kernel():
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
        return ComplexKernel(m, n, d, {key: draw(exact_values) for key in chosen})

    return kernel(), kernel()


@given(kernel_pairs())
@settings(max_examples=40, deadline=None)
def test_exact_kernel_inner_with_sqrt2_parts_matches_the_wick_oracle(pair):
    # the sqrt(2) cross terms of kernel_inner's one Hermitian sum, with the
    # Wick oracle as the reference: E[I(phi) conj I(psi)] = m! n! <phi, psi>
    phi, psi = pair
    weight = math.factorial(phi.m) * math.factorial(phi.n)
    assert exact_moment([phi, (psi, True)]) == weight * kernel_inner(phi, psi)
    assert exact_moment([phi, (phi, True)]) == weight * kernel_inner(phi, phi)
    assert kernel_inner(psi, phi) == kernel_inner(phi, psi).conjugate()


@st.composite
def one_order_targets(draw):
    """A real pair (u, v) or 1 to 3 weighted terms, exact kernels and real
    tensors of one chaos order q <= 4 over d <= 3 complex coordinates, with
    sqrt(2) and complex parts in values and weights."""
    q = draw(st.integers(0, 4))
    d = draw(st.integers(1, 3))

    def stored(keys, value):
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6, unique=True))
        return {key: draw(value) for key in chosen}

    def tensor():
        keys = list(itertools.combinations_with_replacement(range(2 * d), q))
        real = st.builds(ExactComplex, exact_part, st.just(0), exact_part)
        return SymTensor(q, 2 * d, stored(keys, real))

    def kernel():
        m = draw(st.integers(0, q))
        keys = [(ta, tb) for ta in itertools.combinations_with_replacement(range(d), m)
                for tb in itertools.combinations_with_replacement(range(d), q - m)]
        return ComplexKernel(m, q - m, d, stored(keys, exact_values))

    if draw(st.booleans()) and draw(st.booleans()):
        return (tensor(), tensor())
    return [(draw(exact_values), kernel() if draw(st.booleans()) else tensor())
            for _ in range(draw(st.integers(1, 3)))]


class TestDecompose:
    @given(one_order_targets())
    @settings(max_examples=60, deadline=None)
    def test_real_pair_matches_the_wick_route_exactly(self, target):
        # the real pair reads the conversion tables, element_poly J_{a,b}
        # built from creation operators: two independent factor tables
        terms = [(EC(1), target[0]), (I_UNIT, target[1])] \
            if isinstance(target, tuple) else target
        polys = [(c, element_poly(elem)) for c, elem in terms]
        want = GaussPoly(polys[0][1].dim).plus(polys)
        u, v = fm._real_pair(target)
        assert element_poly(u) + I_UNIT * element_poly(v) == want
        for _, elem in terms:
            if isinstance(elem, ComplexKernel):
                du, dv = decompose(elem)
                assert element_poly(du) + I_UNIT * element_poly(dv) == element_poly(elem)

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

    def test_each_factor_is_built_once(self, monkeypatch):
        u = random_exact_kernel(1, 1, 2, random.Random(91))
        p, q = element_poly(u), element_poly(u, True)
        eye = GaussianFamily([[int(i == j) for j in range(4)] for i in range(4)])
        built = []
        monkeypatch.setattr(chaos, "element_poly",
                            lambda e, conj=False: built.append(conj) or element_poly(e, conj))
        assert exact_moment([u, u, u, u]) == expect(eye, p * p * p * p)
        assert built == [False]
        built.clear()
        assert exact_moment([u, (u, True), u]) == expect(eye, p * q * p)
        assert sorted(built) == [False, True]

    def test_standard_family_is_shared(self):
        fam = GaussianFamily.standard(4)
        assert GaussianFamily.standard(4) is fam
        assert type(fam.covariance) is tuple
        assert all(type(row) is tuple for row in fam.covariance)


@st.composite
def _point_factors(draw):
    """K complex coordinates and (a, b, k, conj, c) factors of total degree <= 10,
    c a small Gaussian integer.  Half the cases append each factor's mirror
    (conj flipped, a new c), so that many moments are nonzero."""
    dim, mirror = draw(st.integers(1, 3)), draw(st.booleans())
    factors, budget = [], 5 if mirror else 10
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.integers(0, min(4, budget)))
        b = draw(st.integers(0, min(4, budget - a)))
        budget -= a + b
        factors.append((a, b, draw(st.integers(0, dim - 1)), draw(st.booleans())))
    if mirror:
        factors += [(a, b, k, not conj) for a, b, k, conj in factors]
    return dim, [f + (EC(draw(st.integers(-2, 2)), draw(st.integers(-2, 2))),)
                 for f in factors]


@given(_point_factors())
@example((2, [(1, 0, 1, False, EC(1)), (1, 0, 0, True, EC(1))]))
@example((2, [(1, 0, 1, False, EC(1)), (1, 0, 1, True, EC(1))]))
@example((3, [(2, 1, 2, False, EC(1)), (2, 1, 2, True, EC(0, 1)), (1, 1, 0, False, EC(1)),
              (1, 1, 0, False, EC(2, -1))]))
@settings(max_examples=40, deadline=None)
def test_wick_oracle_front_door_matches_exact_moment(case):
    # prod c_i J_{a_i,b_i}(zeta_{k_i}) (conjugated where asked) under
    # expect_complex, against exact_moment of the point kernels
    # c_i e_k^(x a) (x) conj(e_k)^(x b): the two front doors place zeta_k and
    # scale J by 2^(-(a+b)/2) independently
    dim, factors = case
    fam = GaussianFamily.complex_standard(dim)
    polys = [((complex_hermite(a, b) * c).conj() if conj else complex_hermite(a, b) * c, k)
             for a, b, k, conj, c in factors]
    kernels = [(ComplexKernel(a, b, dim, {((k,) * a, (k,) * b): c}), conj)
               for a, b, k, conj, c in factors]
    degree = sum(a + b for a, b, *_ in factors)
    assert expect_complex(fam, polys) * half_power(degree) == exact_moment(kernels)
