"""Symmetric tensor algebra against dense brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaoslab import fourth_moment as fm, tensor as tensor_module
from chaoslab.chaos import decompose, element_poly, exact_moment
from chaoslab.exact import EC, ZERO, ExactComplex
from chaoslab.tensor import (ComplexKernel, SymTensor, _symmetrize_block, contract,
                             dump_kernel, inner, kernel_inner,
                             load_kernel, multiplicity_factor, pair_moments,
                             product_moment, symmetrize)
from chaoslab.wick import GaussianFamily, GaussPoly, expect


# -- dense brute-force oracles (test-only path) --------------------------------


def dense_of(t: SymTensor) -> np.ndarray:
    a = np.zeros((t.dim,) * t.order)
    for idx in itertools.product(range(t.dim), repeat=t.order):
        a[idx] = t.entry(idx).to_complex().real
    return a


def dense_inner(u, v):
    return float((dense_of(u) * dense_of(v)).sum())


def dense_contract(u, v, r):
    a, b = dense_of(u), dense_of(v)
    if r == 0:
        return np.multiply.outer(a, b)
    return np.tensordot(a, b, axes=(range(u.order - r, u.order),
                                    range(v.order - r, v.order)))


def dense_symmetrize(a: np.ndarray) -> np.ndarray:
    perms = list(itertools.permutations(range(a.ndim)))
    return sum(np.transpose(a, p) for p in perms) / len(perms)


def dense_items(t: SymTensor) -> dict:
    """The dense entries of t: its value at every arrangement of each key."""
    return {arr: v for key, v in t.data.items() for arr in itertools.permutations(key)}


def power_tensor(h, order) -> SymTensor:
    """h^(x order): dense entry prod_k h[i_k]."""
    return SymTensor(order, len(h), {
        t: math.prod(h[i] for i in t)
        for t in itertools.combinations_with_replacement(range(len(h)), order)})


def random_exact_tensor(order, dim, rnd) -> SymTensor:
    data = {}
    for t in itertools.combinations_with_replacement(range(dim), order):
        data[t] = Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
    return SymTensor(order, dim, data)


def random_sqrt2_tensor(order, dim, rnd) -> SymTensor:
    """Exact real tensor whose entries a + b*sqrt(2) have mixed denominators;
    about a quarter of its entries are zero."""
    data = {}
    for t in itertools.combinations_with_replacement(range(dim), order):
        if rnd.random() < 0.75:
            data[t] = ExactComplex(Fraction(rnd.randint(-4, 4), rnd.randint(1, 6)), 0,
                                   Fraction(rnd.randint(-3, 3), rnd.randint(1, 5)), 0)
    return SymTensor(order, dim, data)


def exact_dense(t: SymTensor) -> dict:
    """Every dense entry of an exact tensor as an ExactComplex, zeros included."""
    return {idx: t.entry(idx)
            for idx in itertools.product(range(t.dim), repeat=t.order)}


class TestSymmetrize:
    def test_two_slot_average(self):
        s = symmetrize({(0, 1): 1}, 2, 2)
        assert s.data == {(0, 1): EC(Fraction(1, 2))}
        assert s.entry((1, 0)) == EC(Fraction(1, 2))

    def test_idempotent_on_symmetric_input(self):
        s = symmetrize({(0, 1): 1, (2, 1): Fraction(3, 4)}, 2, 3)
        again = symmetrize(dense_items(s), 2, 3)
        assert again == s

    def test_fixed_point(self):
        s = symmetrize({(0, 0): 1}, 2, 2)
        assert s.data == {(0, 0): EC(1)}

    def test_matches_dense_symmetrization(self):
        rnd = random.Random(3)
        raw = {}
        for _ in range(5):
            key = tuple(rnd.randint(0, 2) for _ in range(3))
            raw[key] = Fraction(rnd.randint(-3, 3))
        s = symmetrize(raw, 3, 3)
        a = np.zeros((3, 3, 3))
        for k, v in raw.items():
            a[k] = float(v)
        assert np.allclose(dense_of(s), dense_symmetrize(a))

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            symmetrize({(0, 5): 1}, 2, 3)
        with pytest.raises(ValueError):  # used to be stored at key (0, 1)
            symmetrize({(0.9, 1.2): 1}, 2, 2)

    @pytest.mark.parametrize("order, key", [
        (1, (3,)),      # index equal to dim
        (1, (-1,)),     # negative index
        (1, (1.7,)),    # non-int index: used to be stored at index 1
        (1, (0, 0)),    # wrong length
        (2, (1, 0)),    # not sorted
    ])
    def test_symtensor_rejects_bad_keys(self, order, key):
        with pytest.raises(ValueError):
            SymTensor(order, 3, {key: 1})


class TestInner:
    def test_examples(self):
        e00 = SymTensor(2, 2, {(0, 0): 1})
        s01 = symmetrize({(0, 1): 1}, 2, 2)
        assert inner(e00, e00) == EC(1)
        assert inner(s01, s01) == EC(Fraction(1, 2))
        assert inner(e00, s01) == EC(0)

    def test_basis_norms_are_multiplicity_ratios(self):
        # |symm(e^{(x m)})|^2 = m! / p!
        for dim in (2, 3):
            for order in range(1, 5):
                for idx in itertools.combinations_with_replacement(range(dim), order):
                    t = symmetrize({idx: 1}, order, dim)
                    counts = [idx.count(i) for i in sorted(set(idx))]
                    want = Fraction(math.prod(math.factorial(c) for c in counts),
                                    math.factorial(order))
                    assert inner(t, t) == EC(want)

    def test_power_tensor_norm(self):
        h = [Fraction(1), Fraction(2), Fraction(-1)]
        t = power_tensor(h, 3)
        norm_h_sq = Fraction(6)
        assert inner(t, t) == EC(norm_h_sq ** 3)

    def test_matches_dense(self):
        rnd = random.Random(11)
        for _ in range(10):
            u = random_exact_tensor(3, 3, rnd)
            v = random_exact_tensor(3, 3, rnd)
            got = inner(u, v)
            assert got.to_complex().real == pytest.approx(dense_inner(u, v))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner(SymTensor(2, 2), SymTensor(2, 3))


class TestContract:
    def test_full_contraction_is_inner(self):
        rnd = random.Random(5)
        u = random_exact_tensor(2, 3, rnd)
        v = random_exact_tensor(2, 3, rnd)
        assert contract(u, v, 2).scalar() == inner(u, v)

    def test_absent_entries_are_exact_zero(self):
        # disjoint supports: the full contraction stores nothing, and its
        # scalar is the ExactComplex zero that inner gives
        u, v = SymTensor(2, 2, {(0, 0): 1}), SymTensor(2, 2, {(1, 1): 1})
        got = contract(u, v, 2).scalar()
        assert isinstance(got, ExactComplex) and got == inner(u, v) == ZERO
        assert got.to_complex() == 0
        assert isinstance(u.entry((1, 0)), ExactComplex) and u.entry((1, 0)) == ZERO

    def test_power_tensor_single_contraction(self):
        t = SymTensor(2, 2, {(0, 0): 1})
        b = contract(t, t, 1)
        assert b.data == {((0,), (0,)): EC(1)}
        assert b.norm_sq() == EC(1)

    def test_symmetrized_example(self):
        s = symmetrize({(0, 1): 1}, 2, 2)
        raw = contract(s, s, 1)
        assert raw.data == {((0,), (0,)): EC(Fraction(1, 4)),
                            ((1,), (1,)): EC(Fraction(1, 4))}
        sym = _symmetrize_block(contract(s, s, 1))
        assert sym.data == {(0, 0): EC(Fraction(1, 4)), (1, 1): EC(Fraction(1, 4))}

    def test_outer_product_norm_factorizes(self):
        a = power_tensor([Fraction(1), Fraction(1, 2)], 2)
        b = power_tensor([Fraction(-1), Fraction(2)], 2)
        raw = contract(a, b, 0)
        assert raw.norm_sq() == inner(a, a) * inner(b, b)

    def test_against_dense_oracle(self):
        rnd = random.Random(23)
        for order in (2, 3):
            for _ in range(6):
                u = random_exact_tensor(order, 3, rnd)
                v = random_exact_tensor(order, 3, rnd)
                for r in range(order + 1):
                    got = contract(u, v, r)
                    want = dense_contract(u, v, r)
                    if r == order:
                        val = got.scalar()
                        assert val.to_complex().real == pytest.approx(float(want))
                        continue
                    # raw block entries match the dense contraction
                    for i_idx in itertools.product(range(3), repeat=order - r):
                        for j_idx in itertools.product(range(3), repeat=order - r):
                            key = (tuple(sorted(i_idx)), tuple(sorted(j_idx)))
                            as_f = got.data.get(key, ZERO).to_complex().real
                            assert as_f == pytest.approx(float(want[i_idx + j_idx]))
                    # symmetrized variant matches dense symmetrization
                    sym = _symmetrize_block(contract(u, v, r))
                    assert np.allclose(dense_of(sym), dense_symmetrize(want))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_exact_results_equal_dense_sums(self, order, dim):
        # exact reference: ExactComplex sums over all index tuples
        rnd = random.Random(10 * order + dim)
        u, v = random_sqrt2_tensor(order, dim, rnd), random_sqrt2_tensor(order, dim, rnd)
        dense_u = exact_dense(u)
        assert inner(u, v) == sum((dense_u[i] * x for i, x in exact_dense(v).items()), ZERO)
        for x, y in ((u, v), (u, u), (v, u)):  # (u, u): one operand on both sides
            dense_x, dense_y = exact_dense(x), exact_dense(y)
            for r in range(order + 1):
                k = order - r
                dense = {i + j: sum((dense_x[i + s] * dense_y[j + s]
                                     for s in itertools.product(range(dim), repeat=r)), ZERO)
                         for i in itertools.product(range(dim), repeat=k)
                         for j in itertools.product(range(dim), repeat=k)}
                block, arrangements = {}, {}
                for idx, val in dense.items():
                    key = (tuple(sorted(idx[:k])), tuple(sorted(idx[k:])))
                    assert block.setdefault(key, val) == val  # symmetric in each block
                    st_key = tuple(sorted(idx))
                    arrangements.setdefault(st_key, []).append(val)
                got = contract(x, y, r)
                assert got.data == {key: val for key, val in block.items() if val}
                assert got.norm_sq() == sum((val * val for val in dense.values()), ZERO)
                # the symmetrization averages the dense entries over the
                # distinct arrangements of each sorted index tuple
                sym_want = {t: sum(vals, ZERO) * EC(Fraction(1, len(vals)))
                            for t, vals in arrangements.items()}
                sym = _symmetrize_block(got)
                assert sym.data == {t: val for t, val in sym_want.items() if val}
                assert sym.norm_sq() == sum((sym_want[tuple(sorted(idx))] ** 2 for idx in dense),
                                            ZERO)

    def test_cauchy_schwarz_chain(self):
        rnd = random.Random(29)
        for _ in range(8):
            u = random_exact_tensor(3, 2, rnd)
            v = random_exact_tensor(3, 2, rnd)
            nu = inner(u, u).to_complex().real
            nv = inner(v, v).to_complex().real
            for r in range(1, 3):
                raw = contract(u, v, r).norm_sq().to_complex().real
                sym = _symmetrize_block(contract(u, v, r)).norm_sq().to_complex().real
                assert sym <= raw + 1e-12
                assert raw <= nu * nv + 1e-12

    def test_bad_contraction_order(self):
        t = SymTensor(2, 2, {(0, 0): 1})
        with pytest.raises(ValueError):
            contract(t, t, 3)


class TestProductMoment:
    def test_order_one(self):
        e0 = SymTensor(1, 2, {(0,): 1})
        e1 = SymTensor(1, 2, {(1,): 1})
        assert product_moment(e0, e0) == EC(3)
        assert product_moment(e0, e1) == EC(1)

    def test_order_two_against_oracle(self):
        t = SymTensor(2, 1, {(0, 0): 1})
        # E[H_2(g)^4] through the Wick oracle
        assert exact_moment([t, t, t, t]) == EC(60)
        assert product_moment(t, t) == EC(60)

    def test_random_tensors_match_oracle(self):
        rnd = random.Random(41)
        for order in (1, 2, 3):
            for _ in range(4):
                u = random_exact_tensor(order, 2, rnd)
                v = random_exact_tensor(order, 2, rnd)
                assert product_moment(u, v) == exact_moment([u, u, v, v])

    def test_forms_each_contraction_once(self, monkeypatch):
        # pair_moments, and exact_report through it, contract each block
        # uu, uv, vv once per r = 1 .. q-1: 3(q-1) contractions in all
        calls = []

        def counting_contract(u, v, r):
            calls.append(r)
            return contract(u, v, r)

        monkeypatch.setattr(tensor_module, "contract", counting_contract)
        rnd = random.Random(7)
        for order in (1, 2, 3, 4):
            u = random_exact_tensor(order, 2, rnd)
            v = random_exact_tensor(order, 2, rnd)
            kern = random_exact_kernel(1, order - 1, 2, rnd)
            for run in (lambda: pair_moments(u, v), lambda: fm.exact_report(kern)):
                calls.clear()
                run()
                assert calls == [r for r in range(1, order) for _ in range(3)]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            product_moment(SymTensor(2, 2), SymTensor(3, 2))


# reals a + b*sqrt(2), b often zero
EXACT_REALS = st.builds(lambda a, b: ExactComplex(a, 0, b, 0),
                        st.fractions(-2, 2, max_denominator=3),
                        st.sampled_from([0, 0, Fraction(1, 2), -1]))


@st.composite
def exact_pairs(draw):
    """Exact real tensors (u, v) of one order 1..3 over dimension 2..3."""
    order, dim = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    keys = list(itertools.combinations_with_replacement(range(dim), order))
    return tuple(SymTensor(order, dim, {t: draw(EXACT_REALS) for t in keys})
                 for _ in range(2))


@given(exact_pairs())
@settings(max_examples=30, deadline=None)
def test_pair_moments_equal_the_wick_oracle(pair):
    u, v = pair
    table = pair_moments(u, v)
    assert sorted(table) == sorted((a, b) for a in range(5) for b in range(5)
                                   if 2 <= a + b <= 4)
    for (a, b), value in table.items():
        assert value == exact_moment([u] * a + [v] * b)


@pytest.mark.parametrize("m, n, dim", [(2, 2, 2), (1, 2, 3)])
def test_pair_moments_of_dense_kernels_equal_the_wick_oracle(m, n, dim):
    # every stored term of a random kernel, with complex and sqrt(2) parts
    rnd = random.Random(100 * m + 10 * n + dim)

    def part():
        return Fraction(rnd.randint(-3, 3), rnd.randint(1, 4))

    kern = ComplexKernel(m, n, dim, {
        (ta, tb): ExactComplex(part(), part(), part(), part())
        for ta in itertools.combinations_with_replacement(range(dim), m)
        for tb in itertools.combinations_with_replacement(range(dim), n)})
    u, v = decompose(kern)
    # a fourth moment is E[P Q] for P, Q among u u, u v, v v, each built once.
    # Over i.i.d. standard coordinates a monomial with an odd exponent has
    # mean 0, so E[P Q] sums E[P_c Q_c] over the exponent parity classes c,
    # and the Wick oracle forms only those products
    pu, pv = element_poly(u), element_poly(v)
    squares = {(2, 0): pu * pu, (1, 1): pu * pv, (0, 2): pv * pv}
    fam = GaussianFamily.standard(pu.dim)

    def parity_classes(poly):
        out = {}
        for e, c in poly.terms().items():
            out.setdefault(tuple(x % 2 for x in e), {})[e] = c
        return out

    for (a, b), value in pair_moments(u, v).items():
        if a + b < 4:
            assert value == exact_moment([u] * a + [v] * b)
            continue
        left = (min(a, 2), 2 - min(a, 2))
        cp, cq = (parity_classes(squares[k]) for k in (left, (a - left[0], b - left[1])))
        assert value == sum((expect(fam, GaussPoly(pu.dim, cp[c]) * GaussPoly(pu.dim, cq[c]))
                             for c in cp.keys() & cq.keys()), ZERO)


@pytest.mark.parametrize("m, n, k", [(1, 1, 1), (2, 0, 1), (1, 2, 1), (1, 2, 2),
                                     (2, 1, 1), (2, 2, 1)])
def test_pair_moments_give_the_component_gaps(m, n, k):
    kern = fm.gen_block_kernel(m, n, k)
    table = pair_moments(*decompose(kern))
    a, b = table[(2, 0)], table[(0, 2)]
    assert (table[(4, 0)] - 3 * a * a, table[(0, 4)] - 3 * b * b,
            table[(2, 2)] - a * b) == fm.component_gaps(kern)


class TestComplexKernel:
    def test_rank_one_entries(self):
        k = ComplexKernel.rank_one([EC(1), EC(0, 1)], 1, 1)
        assert k.data[((0,), (1,))] == EC(1) * EC(0, 1).conjugate()

    def test_norm_of_rank_one(self):
        h = [EC(1), EC(1)]
        k = ComplexKernel.rank_one(h, 2, 1)
        # |h^(x2) (x) hbar|^2 = |h|^(2*3)
        assert k.norm_sq() == EC(8)

    def test_kernel_inner_is_hermitian(self):
        f = ComplexKernel(1, 1, 2, {((0,), (1,)): EC(1, 2)})
        g = ComplexKernel(1, 1, 2, {((0,), (1,)): EC(0, 1), ((1,), (1,)): EC(3)})
        a = kernel_inner(f, g)
        b = kernel_inner(g, f)
        assert a == b.conjugate()

    def test_validation(self):
        with pytest.raises(ValueError):
            ComplexKernel(1, 1, 2, {((0, 1), (0,)): 1})
        with pytest.raises(ValueError):
            ComplexKernel(1, 1, 2, {((3,), (0,)): 1})
        with pytest.raises(ValueError):  # used to be stored at index 1
            ComplexKernel(1, 0, 3, {((1.7,), ()): 1})


def random_exact_kernel(m, n, dim, rnd) -> ComplexKernel:
    data = {}
    for ta in itertools.combinations_with_replacement(range(dim), m):
        for tb in itertools.combinations_with_replacement(range(dim), n):
            data[(ta, tb)] = ExactComplex(Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)),
                                          Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)))
    return ComplexKernel(m, n, dim, data)


class TestFloatingPath:
    """Float kernels run the same algorithms as exact ones and agree with
    them; real tensors refuse float values."""

    @staticmethod
    def assert_close(got, want):
        assert isinstance(got, (float, complex))  # the floating path ran
        assert complex(got) == pytest.approx(want.to_complex(), rel=1e-12, abs=1e-12)

    def test_real_tensor_algebra(self):
        # the TypeError of ExactComplex.coerce
        with pytest.raises(TypeError):
            SymTensor(2, 2, {(0, 0): 0.5})
        with pytest.raises(TypeError):
            symmetrize({(0, 1): 1, (1, 0): 0.25}, 2, 2)
        u = SymTensor(2, 2, {(0, 0): 1, (0, 1): Fraction(1, 2)})
        for scalar in (0.5, 1.0):
            with pytest.raises(TypeError):
                u * scalar
            with pytest.raises(TypeError):
                scalar * u
        assert 2 * u == u + u == SymTensor(2, 2, {(0, 0): 2, (0, 1): 1})

    def test_kernel_inner_and_norm(self):
        rnd = random.Random(19)
        for m, n in ((1, 1), (2, 1), (1, 2)):
            f = random_exact_kernel(m, n, 2, rnd)
            g = random_exact_kernel(m, n, 2, rnd)
            ff = ComplexKernel(m, n, 2, {k: x.to_complex() for k, x in f.data.items()})
            fg = ComplexKernel(m, n, 2, {k: x.to_complex() for k, x in g.data.items()})
            self.assert_close(kernel_inner(ff, fg), kernel_inner(f, g))
            # an exact kernel meets a floating one as its complex values
            self.assert_close(kernel_inner(f, fg), kernel_inner(f, g))
            self.assert_close(kernel_inner(ff, g), kernel_inner(f, g))
            norm = ff.norm_sq()
            assert type(norm) is float
            self.assert_close(norm, f.norm_sq())

    def test_one_scalar_type_per_tensor(self):
        with pytest.raises(TypeError):
            SymTensor(2, 2, {(0, 0): 1, (0, 1): 0.5, (1, 1): EC(Fraction(1, 3))})
        exact = SymTensor(2, 2, {(0, 0): 1, (0, 1): Fraction(1, 2), (1, 1): EC(3)})
        assert all(isinstance(x, ExactComplex) for x in exact.data.values())
        kernel = ComplexKernel(1, 1, 2, {((0,), (0,)): 1, ((0,), (1,)): 0.5j})
        assert all(type(x) is complex for x in kernel.data.values())


class TestFloatingResults:
    """Float kernels give float results, bit for bit as a plain loop does,
    also where an operand is empty; real-tensor results are ExactComplex
    in the same cases."""

    def test_kernel_inner_is_one_complex_sum(self):
        rnd = random.Random(29)
        keys = [(ta, tb) for ta in itertools.combinations_with_replacement(range(3), 2)
                for tb in itertools.combinations_with_replacement(range(3), 2)]
        f = ComplexKernel(2, 2, 3, {k: complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))
                                    for k in keys})
        g = ComplexKernel(2, 2, 3, {k: complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))
                                    for k in keys[1:]})
        want = 0.0
        for k in g.data:
            want = want + (multiplicity_factor(k[0]) * multiplicity_factor(k[1])
                           * f.data[k] * g.data[k].conjugate())
        assert kernel_inner(f, g) == want

    def test_self_contraction_sums_every_ordered_pair(self):
        # u (x)_r u gives what it gives for an equal copy of u, in the same order
        rnd = random.Random(37)
        keys = list(itertools.combinations_with_replacement(range(3), 3))
        u = SymTensor(3, 3, {t: Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)) for t in keys})
        copy = SymTensor(3, 3, dict(u.data))
        for r in range(4):
            assert (list(contract(u, u, r).data.items())
                    == list(contract(u, copy, r).data.items()))

    def test_empty_operands_and_contractions(self):
        a = SymTensor(2, 2, {(0, 0): 1})
        b = SymTensor(2, 2, {(1, 1): 1})
        zero = SymTensor(2, 2)
        assert zero.is_exact()
        # U = H_2(x0), V = H_2(x1): E U^2 = 2, E U^3 = 8, E U^4 = 60, and U, V
        # independent; a zero tensor's integral is 0
        moments_of_a = {(2, 0): 2, (3, 0): 8, (4, 0): 60}
        cases = ((a, b, {**moments_of_a, (0, 2): 2, (0, 3): 8, (0, 4): 60, (2, 2): 4}),
                 (a, zero, moments_of_a),
                 (zero, a, {(i, j): x for (j, i), x in moments_of_a.items()}))
        for u, v, nonzero in cases:
            want = {(i, j): EC(nonzero.get((i, j), 0))
                    for i in range(5) for j in range(5) if 2 <= i + j <= 4}
            got = pair_moments(u, v)
            assert all(isinstance(x, ExactComplex) for x in got.values())
            assert got == want
            assert product_moment(u, v) == want[(2, 2)]
            # disjoint supports: the (u, v) contractions are empty
            for r in (1, 2):
                block = contract(u, v, r)
                assert block.is_exact() and block.data == {}
                for x in (inner(u, v), block.norm_sq(), _symmetrize_block(block).norm_sq()):
                    assert isinstance(x, ExactComplex) and x == ZERO
        assert inner(zero, zero) == ZERO and isinstance(inner(zero, zero), ExactComplex)
        fk = ComplexKernel(1, 1, 2, {((0,), (1,)): 1 + 2j})
        empty = ComplexKernel(1, 1, 2)
        for x, y in ((empty, fk), (fk, empty)):
            assert type(kernel_inner(x, y)) is float and kernel_inner(x, y) == 0
        assert kernel_inner(empty, empty) == ZERO


class TestSerialization:
    def test_kernel_roundtrip_float(self):
        k = ComplexKernel(1, 1, 2, {((0,), (1,)): 0.125 - 2.5j, ((1,), (1,)): -3.5})
        back = load_kernel(dump_kernel(k))
        assert back.data == k.data
        assert all(type(x) is complex for x in back.data.values())

    def test_kernel_roundtrip(self):
        k = ComplexKernel(1, 2, 2, {
            ((0,), (0, 1)): ExactComplex(Fraction(1, 3), Fraction(-2, 5)),
            ((1,), (1, 1)): EC(2),
        })
        back = load_kernel(dump_kernel(k))
        assert (back.m, back.n, back.dim) == (1, 2, 2)
        assert back.data == k.data

    def test_scalar_kernel_header_only_lines(self):
        k = ComplexKernel(0, 0, 1, {((), ()): EC(Fraction(7, 2))})
        back = load_kernel(dump_kernel(k))
        assert back.data == k.data

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            load_kernel("")
        # a repeated entry: the second line would silently replace the first
        with pytest.raises(ValueError, match="kernel entry 0 0 is given twice"):
            load_kernel("1 1 1\n0 0 1 0\n0 0 3 0\n")

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 0), (1, 2), (2, 1), (2, 2), (0, 3)])
    @pytest.mark.parametrize("k", [2, 8])
    def test_block_kernel_roundtrip_stays_exact(self, m, n, k):
        # 1/sqrt(2) and sqrt(2)/4: values with a sqrt(2) part
        kern = fm.gen_block_kernel(m, n, k)
        back = load_kernel(dump_kernel(kern))
        assert back.is_exact() and back.data == kern.data
        assert fm.exact_report(back) == fm.exact_report(kern)

    def test_sqrt2_tokens(self):
        text = dump_kernel(ComplexKernel(1, 0, 2, {
            ((0,), ()): ExactComplex(3, Fraction(-2, 5), Fraction(-1, 2), 7),
            ((1,), ()): ExactComplex(0, Fraction(1, 3), Fraction(1, 2), 0)}))
        assert text == "1 0 2\n0 3-1/2*r2 -2/5+7*r2\n1 1/2*r2 1/3\n"
        # a float beside an exact token makes the value floating
        back = load_kernel("1 0 1\n0 0.5 1/2*r2\n")
        assert back.data[((0,), ())] == pytest.approx(0.5 + math.sqrt(0.5) * 1j)

    @pytest.mark.parametrize("token", ["1/2*r2*r2", "1.5*r2", "1e3*r2", "*r2", "1+*r2"])
    def test_rejects_malformed_sqrt2_tokens(self, token):
        with pytest.raises(ValueError):
            load_kernel(f"1 0 1\n0 {token} 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError, match="not finite"):
            load_kernel(f"1 1 1\n0 0 {value} 0\n")
        with pytest.raises(ValueError, match="not finite"):
            load_kernel(f"1 1 1\n0 0 1 {value}\n")


@st.composite
def exact_kernels(draw):
    """Exact kernels of bidegree up to (2, 2) over dimension 1..2 whose
    parts may have sqrt(2) components."""
    m, n, dim = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 2))
    keys = [(ta, tb) for ta in itertools.combinations_with_replacement(range(dim), m)
            for tb in itertools.combinations_with_replacement(range(dim), n)]
    return ComplexKernel(m, n, dim, {key: draw(EXACT_REALS) + draw(EXACT_REALS) * EC(0, 1)
                                     for key in keys})


@given(exact_kernels())
@settings(max_examples=50, deadline=None)
def test_exact_kernel_roundtrip(kern):
    back = load_kernel(dump_kernel(kern))
    assert (back.m, back.n, back.dim) == (kern.m, kern.n, kern.dim)
    assert back.data == kern.data
    assert back.is_exact()


@given(st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.fractions(min_value=-2, max_value=2, max_denominator=3)),
                min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_symmetrize_is_idempotent(raw_terms):
    raw = {k: v for k, v in raw_terms}
    s = symmetrize(raw, 2, 3)
    assert symmetrize(dense_items(s), 2, 3) == s


def _position_splits(t, r):
    """The position walk over subsets of t's slots, first occurrence of each
    split kept: the order in which ``_splits`` must yield."""
    seen, out = set(), []
    pos = range(len(t))
    for keep_pos in itertools.combinations(pos, len(t) - r):
        split = (tuple(t[i] for i in keep_pos), tuple(t[i] for i in pos if i not in keep_pos))
        if split not in seen:
            seen.add(split)
            out.append(split)
    return out


@given(st.lists(st.integers(0, 4), max_size=9).map(lambda xs: tuple(sorted(xs))))
@settings(max_examples=200, deadline=None)
def test_splits_follow_the_position_walk(t):
    # a contraction's entries come in this order
    for r in range(len(t) + 1):
        assert list(tensor_module._splits(t, r)) == _position_splits(t, r)


def test_multiplicity_factor():
    assert multiplicity_factor((0, 0, 0)) == 1
    assert multiplicity_factor((0, 1, 2)) == 6
    assert multiplicity_factor((0, 0, 1)) == 3
