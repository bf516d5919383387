"""Symmetric tensor algebra against dense brute-force oracles."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaoslab import tensor as tensor_module
from chaoslab.chaos import exact_moment
from chaoslab.exact import EC, ExactComplex
from chaoslab.tensor import (ComplexKernel, SymTensor, contract,
                             contract_sym, dump_kernel, dump_sym_tensor, inner,
                             kernel_inner, load_kernel, load_sym_tensor,
                             multiplicity_factor, product_moment, symmetrize)


# -- dense brute-force oracles (test-only path) --------------------------------


def dense_of(t: SymTensor) -> np.ndarray:
    a = np.zeros((t.dim,) * t.order)
    for idx in itertools.product(range(t.dim), repeat=t.order):
        v = t.entry(idx)
        a[idx] = v.to_complex().real if isinstance(v, ExactComplex) else float(v)
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
        sym = contract_sym(s, s, 1)
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
                            v_got = got.data.get(key, 0)
                            as_f = (v_got.to_complex().real
                                    if isinstance(v_got, ExactComplex) else float(v_got))
                            assert as_f == pytest.approx(float(want[i_idx + j_idx]))
                    # symmetrized variant matches dense symmetrization
                    sym = contract_sym(u, v, r)
                    assert np.allclose(dense_of(sym), dense_symmetrize(want))

    def test_cauchy_schwarz_chain(self):
        rnd = random.Random(29)
        for _ in range(8):
            u = random_exact_tensor(3, 2, rnd)
            v = random_exact_tensor(3, 2, rnd)
            nu = inner(u, u).to_complex().real
            nv = inner(v, v).to_complex().real
            for r in range(1, 3):
                raw = contract(u, v, r).norm_sq().to_complex().real
                sym = contract_sym(u, v, r).norm_sq().to_complex().real
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
        calls = []

        def counting_contract(u, v, r):
            calls.append(r)
            return contract(u, v, r)

        monkeypatch.setattr(tensor_module, "contract", counting_contract)
        rnd = random.Random(7)
        for order in (1, 2, 3, 4):
            u = random_exact_tensor(order, 2, rnd)
            v = random_exact_tensor(order, 2, rnd)
            calls.clear()
            product_moment(u, v)
            assert calls == list(range(1, order))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            product_moment(SymTensor(2, 2), SymTensor(3, 2))


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


def random_exact_kernel(m, n, dim, rnd) -> ComplexKernel:
    data = {}
    for ta in itertools.combinations_with_replacement(range(dim), m):
        for tb in itertools.combinations_with_replacement(range(dim), n):
            data[(ta, tb)] = ExactComplex(Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)),
                                          Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)))
    return ComplexKernel(m, n, dim, data)


class TestFloatingPath:
    """The same algorithms on float copies agree with the exact results."""

    @staticmethod
    def assert_close(got, want):
        assert isinstance(got, (float, complex))  # the floating path ran
        assert complex(got) == pytest.approx(want.to_complex(), rel=1e-12, abs=1e-12)

    def test_real_tensor_algebra(self):
        rnd = random.Random(17)
        for order in (1, 2, 3):
            for _ in range(3):
                u = random_exact_tensor(order, 3, rnd)
                v = random_exact_tensor(order, 3, rnd)
                fu = SymTensor(order, 3, {t: x.to_complex().real for t, x in u.data.items()})
                fv = SymTensor(order, 3, {t: x.to_complex().real for t, x in v.data.items()})
                assert not fu.is_exact() and not fv.is_exact()
                self.assert_close(inner(fu, fv), inner(u, v))
                # an exact operand meets a floating one in floating point
                self.assert_close(inner(u, fv), inner(u, v))
                for r in range(order + 1):
                    self.assert_close(contract(fu, fv, r).norm_sq(),
                                      contract(u, v, r).norm_sq())
                    got, want = contract_sym(fu, fv, r), contract_sym(u, v, r)
                    for key in got.data.keys() | want.data.keys():
                        self.assert_close(float(got.entry(key)), ExactComplex.coerce(want.entry(key)))
                self.assert_close(product_moment(fu, fv), product_moment(u, v))

    def test_kernel_inner_and_norm(self):
        rnd = random.Random(19)
        for m, n in ((1, 1), (2, 1), (1, 2)):
            f = random_exact_kernel(m, n, 2, rnd)
            g = random_exact_kernel(m, n, 2, rnd)
            ff = ComplexKernel(m, n, 2, {k: x.to_complex() for k, x in f.data.items()})
            fg = ComplexKernel(m, n, 2, {k: x.to_complex() for k, x in g.data.items()})
            self.assert_close(kernel_inner(ff, fg), kernel_inner(f, g))
            norm = ff.norm_sq()
            assert type(norm) is float
            self.assert_close(norm, f.norm_sq())

    def test_one_scalar_type_per_tensor(self):
        mixed = SymTensor(2, 2, {(0, 0): 1, (0, 1): 0.5, (1, 1): EC(Fraction(1, 3))})
        assert all(type(x) is float for x in mixed.data.values())
        assert mixed.data[(1, 1)] == pytest.approx(1 / 3)
        exact = SymTensor(2, 2, {(0, 0): 1, (0, 1): Fraction(1, 2), (1, 1): EC(3)})
        assert all(isinstance(x, ExactComplex) for x in exact.data.values())
        kernel = ComplexKernel(1, 1, 2, {((0,), (0,)): 1, ((0,), (1,)): 0.5j})
        assert all(type(x) is complex for x in kernel.data.values())


class TestSerialization:
    def test_tensor_roundtrip_exact(self):
        rnd = random.Random(4)
        t = random_exact_tensor(3, 3, rnd)
        back = load_sym_tensor(dump_sym_tensor(t))
        assert back == t

    def test_tensor_roundtrip_float(self):
        t = SymTensor(2, 2, {(0, 1): 0.125, (1, 1): -3.5})
        back = load_sym_tensor(dump_sym_tensor(t))
        assert back.data == t.data

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
            load_sym_tensor("2 2\n0 1\n")
        with pytest.raises(ValueError):
            load_kernel("")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError, match="not finite"):
            load_sym_tensor(f"2 2\n0 1 {value}\n")
        with pytest.raises(ValueError, match="not finite"):
            load_kernel(f"1 1 1\n0 0 {value} 0\n")
        with pytest.raises(ValueError, match="not finite"):
            load_kernel(f"1 1 1\n0 0 1 {value}\n")


@given(st.lists(st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.fractions(min_value=-2, max_value=2, max_denominator=3)),
                min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_symmetrize_is_idempotent(raw_terms):
    raw = {k: v for k, v in raw_terms}
    s = symmetrize(raw, 2, 3)
    assert symmetrize(dense_items(s), 2, 3) == s


def test_multiplicity_factor():
    assert multiplicity_factor((0, 0, 0)) == 1
    assert multiplicity_factor((0, 1, 2)) == 6
    assert multiplicity_factor((0, 0, 1)) == 3
