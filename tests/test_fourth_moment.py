"""Block kernels, estimation, verdict logic, and the KS side channel."""

import ctypes
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chaoslab import chaos, fourth_moment as fm
from chaoslab.chaos import decompose, element_poly, exact_moment, sample_batch
from chaoslab.exact import EC, ExactComplex, I_UNIT, ONE
from chaoslab.tensor import ComplexKernel
from chaoslab.wick import GaussianFamily, expect


class TestBlockKernel:
    def test_single_block_second_moment(self):
        phi = fm.gen_block_kernel(1, 2, 1)
        assert exact_moment([phi, (phi, True)]) == EC(2)

    def test_unbalanced_square_vanishes_for_all_k(self):
        for k in (1, 2, 4):
            phi = fm.gen_block_kernel(1, 2, k)
            assert exact_moment([phi, phi]) == EC(0)

    def test_balanced_single_block_is_degenerate(self):
        phi = fm.gen_block_kernel(1, 1, 1)
        sq = exact_moment([phi, phi])
        abs2 = exact_moment([phi, (phi, True)])
        assert sq == abs2 == EC(1)  # real-valued: a = 1, b = 0

    def test_second_moment_is_k_independent(self):
        for k in (1, 2, 4):
            phi = fm.gen_block_kernel(1, 2, k)
            assert exact_moment([phi, (phi, True)]) == EC(2)

    def test_exactness_window(self):
        assert fm.gen_block_kernel(1, 2, 2).is_exact()   # 1/sqrt(2) in the field
        assert fm.gen_block_kernel(1, 2, 9).is_exact()   # perfect square
        assert not fm.gen_block_kernel(1, 2, 3).is_exact()

    def test_validation(self):
        with pytest.raises(ValueError):
            fm.gen_block_kernel(1, 0, 2)
        with pytest.raises(ValueError):
            fm.gen_block_kernel(1, 2, 0)


class TestTrajectoryLaw:
    def test_offdiagonal_blocks(self):
        base = fm.exact_report(fm.gen_block_kernel(1, 2, 1))
        assert base.abs4 == 176.0
        limit = 2 * base.abs2 ** 2
        c = base.abs4 - limit
        for k in (2, 4):
            rep = fm.exact_report(fm.gen_block_kernel(1, 2, k))
            assert rep.abs4 == limit + c / k  # exact dyadic arithmetic

    def test_balanced_blocks(self):
        base = fm.exact_report(fm.gen_block_kernel(1, 1, 1))
        assert base.abs4 == 9.0
        limit = 2 * base.abs2 ** 2 + abs(base.sq) ** 2
        c = base.abs4 - limit
        rep = fm.exact_report(fm.gen_block_kernel(1, 1, 2))
        assert rep.abs4 == limit + c / 2

    def test_reference_trajectory_matches_exact_reports(self):
        refs = fm.block_reference_trajectory(1, 2, [1, 2, 4])
        for k in (1, 2, 4):
            rep = fm.exact_report(fm.gen_block_kernel(1, 2, k))
            assert refs[k]["abs4"].real == rep.abs4
            assert refs[k]["abs2"].real == rep.abs2
            assert refs[k]["sq"] == rep.sq


class TestEstimate:
    def test_deterministic_per_seed(self):
        phi = fm.gen_block_kernel(1, 2, 2)
        assert fm.estimate(phi, 5000, seed=3) == fm.estimate(phi, 5000, seed=3)

    def test_worker_count_invariance(self):
        phi = fm.gen_block_kernel(1, 2, 4)
        r1 = fm.estimate(phi, 20000, seed=5, workers=1)
        r4 = fm.estimate(phi, 20000, seed=5, workers=4)
        assert r1 == r4

    def test_worker_count_invariance_on_the_wick_trace_route(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        phi = ComplexKernel.rank_one([complex(x) for x in h / np.linalg.norm(h)], 2, 2)
        assert isinstance(chaos._plan_of(phi), chaos._WickTrace)
        reports = [fm.estimate(phi, 20_000, seed=8, workers=w, chunk_size=5000)
                   for w in (1, 2, 5)]
        assert repr(reports[0]) == repr(reports[1]) == repr(reports[2])

    def test_isonormal_variance(self):
        phi = ComplexKernel(1, 0, 1, {((0,), ()): 1})
        rep = fm.estimate(phi, 100_000, seed=21)
        assert abs(rep.abs2 - 1.0) <= 5 * rep.abs2_se

    def test_five_sigma_coverage_over_seeds(self):
        phi = fm.gen_block_kernel(1, 2, 1)
        oracle = fm.exact_report(phi)
        hits = 0
        trials = 100
        for seed in range(trials):
            rep = fm.estimate(phi, 2000, seed=seed)
            ok = (abs(rep.abs2 - oracle.abs2) <= 5 * rep.abs2_se
                  and abs(rep.sq - oracle.sq) <= 5 * rep.sq_se)
            hits += ok
        assert hits >= 99

    def test_decomposed_pair_target(self):
        from chaoslab.chaos import decompose
        phi = fm.gen_block_kernel(1, 2, 2)
        pair = decompose(phi)
        a = fm.estimate(phi, 4000, seed=9)
        b = fm.estimate(pair, 4000, seed=9)
        assert a.abs2 == pytest.approx(b.abs2, rel=1e-9)
        assert a.t3 == pytest.approx(b.t3, rel=1e-9)

    def test_summed_target(self):
        phi = fm.gen_block_kernel(1, 1, 2)
        psi = fm.gen_block_kernel(2, 0, 2)
        mixed = [(EC(Fraction(1, 2)), phi), (EC(Fraction(1, 2)), psi)]
        rep = fm.estimate(mixed, 4000, seed=13)
        exact = fm.exact_report(mixed)
        assert abs(rep.abs2 - exact.abs2) <= 5 * rep.abs2_se

    def test_out_keeps_the_values_of_the_pass(self):
        target = [(EC(Fraction(1, 2)), fm.gen_block_kernel(1, 1, 2)),
                  (I_UNIT, fm.gen_block_kernel(2, 0, 2))]
        out = np.empty(2500, complex)
        rep = fm.estimate(target, 2500, seed=17, workers=2, chunk_size=1000, out=out)
        assert (out == fm.eval_target(target, sample_batch(2, 2500, seed=17))).all()
        assert repr(rep) == repr(fm.estimate(target, 2500, seed=17, chunk_size=1000))

    def test_out_bytes_whatever_the_chunking(self):
        # at k = 64 the term loop lays zeta out in 512-row blocks, which the
        # chunks of 1000 and 777 samples cut across; at k = 4 one block is the chunk
        for k in (4, 64):
            phi = fm.gen_block_kernel(1, 2, k)
            kept = []
            for workers, chunk_size in ((1, 8192), (3, 1000), (5, 777)):
                out = np.empty(9000, complex)
                fm.estimate(phi, 9000, seed=23, workers=workers, chunk_size=chunk_size,
                            out=out)
                kept.append(out.tobytes())
            assert kept[0] == kept[1] == kept[2]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_chunks_stream_with_a_bounded_number_in_flight(self, workers):
        # the parent built every (start, size) job, then ran all 10**6 chunks
        # before the first result was read
        calls = []

        def fn(start, size):
            calls.append(start)
            return start, size

        chunks = fm._map_chunks(fn, 10 ** 6, 1, workers)
        assert next(chunks) == (0, 1)
        assert len(calls) <= 2 * workers + 1
        chunks.close()
        assert list(fm._map_chunks(fn, 10, 3, workers)) == [(0, 3), (3, 3), (6, 3), (9, 1)]

    @pytest.mark.parametrize("out", [np.empty(99, complex), np.empty((100, 1), complex),
                                     np.empty(100)], ids=["short", "2-d", "float"])
    def test_out_of_the_wrong_shape_is_refused(self, out):
        with pytest.raises(ValueError):
            fm.estimate(fm.gen_block_kernel(1, 2, 1), 100, seed=1, out=out)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            fm.MomentReport(n_samples=1, seed=0, exact=False, abs2=1, sq=0,
                            abs4=1, fourth=0, t3=0, abs2_se=-1)
        with pytest.raises(ValueError):
            fm.MomentReport(n_samples=0, seed=0, exact=True, abs2=1, sq=0,
                            abs4=1, fourth=0, t3=0, abs2_se=0.1)


def _lead_and_straddlers(kernels, n_samples, chunk_size):
    """(D, N, start) of every batch a trajectory estimate may draw: the lead
    target's chunks, and each chunk of another target whose first and last
    words fall in different lead chunks."""
    width = [chaos.word_width(phi.dim) for phi in kernels]
    lead = width.index(max(width))
    span = chunk_size * width[lead]  # the words of one lead chunk
    draws = []
    for phi, w in zip(kernels, width):
        for s in range(0, n_samples, chunk_size):
            n = min(chunk_size, n_samples - s)
            if phi is kernels[lead] or s * w // span != ((s + n) * w - 1) // span:
                draws.append((phi.dim, n, s))
    return sorted(draws)


class TestTrajectory:
    """``estimate`` over a list of kernels: one pass, the reports and the kept
    values of one call per kernel."""

    @given(ks=st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True),
           bidegree=st.sampled_from([(1, 1), (1, 2), (2, 0)]),
           n_samples=st.integers(2, 700), chunk_size=st.integers(1, 160),
           workers=st.integers(1, 3), keep=st.lists(st.booleans(), min_size=3, max_size=3))
    @example(ks=[3, 5, 6], bidegree=(1, 2), n_samples=600, chunk_size=97, workers=3,
             keep=[True, False, True])
    @example(ks=[1, 2, 7], bidegree=(1, 2), n_samples=700, chunk_size=100, workers=1,
             keep=[True, True, True])
    @settings(max_examples=30, deadline=None)
    def test_equals_one_call_per_kernel(self, ks, bidegree, n_samples, chunk_size, workers,
                                        keep):
        kernels = [fm.gen_block_kernel(*bidegree, k) for k in ks]
        outs = [np.empty(n_samples, complex) if kept else None for kept in keep[:len(ks)]]
        drawn = []

        def counting(D, N, seed, start=0):
            drawn.append((D, N, start))
            return sample_batch(D, N, seed, start=start)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fm, "sample_batch", counting)
            reports = fm.estimate(kernels, n_samples, seed=31, workers=workers,
                                  chunk_size=chunk_size, out=outs)
        assert sorted(drawn) == _lead_and_straddlers(kernels, n_samples, chunk_size)
        for phi, rep, kept in zip(kernels, reports, outs):
            own = None if kept is None else np.empty(n_samples, complex)
            assert rep == fm.estimate(phi, n_samples, seed=31, chunk_size=chunk_size, out=own)
            assert kept is None or kept.tobytes() == own.tobytes()

    def test_a_single_kernel_is_a_trajectory_of_one(self):
        phi = fm.gen_block_kernel(1, 2, 3)
        out, kept = np.empty(500, complex), [np.empty(500, complex)]
        assert fm.estimate([phi], 500, seed=2, chunk_size=70, out=kept) == [
            fm.estimate(phi, 500, seed=2, chunk_size=70, out=out)]
        assert kept[0].tobytes() == out.tobytes()

    @pytest.mark.parametrize("targets, out", [
        ([], None),
        ([], []),
        ([fm.gen_block_kernel(1, 2, 2)] * 2, [None]),
        ([fm.gen_block_kernel(1, 2, 2)] * 2, [None, None, None]),
        ([fm.gen_block_kernel(1, 2, 2)], np.empty(300, complex)),
        ([fm.gen_block_kernel(1, 2, 2)] * 2, [None, np.empty(299, complex)]),
        ([fm.gen_block_kernel(1, 2, 2)] * 2, [np.empty((300, 1), complex), None]),
        ([fm.gen_block_kernel(1, 2, 2)] * 2, [np.empty(300), None]),
        ([fm.gen_block_kernel(1, 2, 2)], [[0j] * 300]),
    ], ids=["empty", "empty-with-out", "out-short", "out-long", "out-not-a-list",
            "entry-short", "entry-2-d", "entry-float", "entry-a-list"])
    def test_bad_trajectory_input_is_refused_before_sampling(self, monkeypatch, targets, out):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the input was checked")

        monkeypatch.setattr(fm, "sample_batch", no_sampling)
        with pytest.raises(ValueError):
            fm.estimate(targets, 300, seed=1, out=out)


def _no_c_library(name):
    raise OSError("no C library")


class _NoMallopt:
    """A C library without ``mallopt``, as on macOS or Windows."""


class TestMallocThresholds:
    @pytest.fixture(autouse=True)
    def fresh_helper(self):
        # the helper runs once per process: forget that it ran, before and after
        fm._fix_malloc_thresholds.cache_clear()
        yield
        fm._fix_malloc_thresholds.cache_clear()

    @pytest.mark.parametrize("cdll", [_no_c_library, lambda name: _NoMallopt()],
                             ids=["CDLL-raises", "no-mallopt"])
    def test_without_mallopt_it_does_nothing(self, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        phi = fm.gen_block_kernel(1, 2, 2)
        assert fm.estimate(phi, 3000, seed=4, workers=2) == fm.estimate(phi, 3000, seed=4)
        assert fm._fix_malloc_thresholds.cache_info().misses == 1

    def test_sets_both_thresholds_once_per_process(self, monkeypatch):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc())
        fm._fix_malloc_thresholds()
        fm.estimate(fm.gen_block_kernel(1, 2, 2), 3000, seed=4, workers=2)
        fm._fix_malloc_thresholds()
        assert calls == [(fm._M_MMAP_THRESHOLD, fm._MMAP_THRESHOLD),
                         (fm._M_TRIM_THRESHOLD, fm._TRIM_THRESHOLD)]

    def test_report_is_the_same_before_and_after(self):
        # a fresh process, so that "before" runs under the allocator's own
        # dynamic thresholds, with the helper kept out of the first call
        code = (
            "from chaoslab import fourth_moment as fm\n"
            "phi = fm.gen_block_kernel(1, 2, 64)\n"
            "helper = fm._fix_malloc_thresholds\n"
            "fm._fix_malloc_thresholds = lambda: None\n"
            "before = fm.estimate(phi, 20_000, seed=6, workers=2)\n"
            "fm._fix_malloc_thresholds = helper\n"
            "after = fm.estimate(phi, 20_000, seed=6, workers=2)\n"
            "assert helper.cache_info().misses == 1\n"
            "print(repr(before) == repr(after))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(fm.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]


class TestThirdMomentCombination:
    def test_real_sequence_reduces_to_four_cubes(self):
        # for a real-valued F the combination E[F^3 + 3|F|^2 conj F] is 4 E[F^3]
        phi = fm.gen_block_kernel(1, 1, 1)
        rep = fm.exact_report(phi)
        cube = exact_moment([phi] * 3)
        assert rep.t3 == 4 * cube.to_complex()
        assert rep.t3.imag == 0

    def test_imaginary_sequence_matches_monte_carlo(self):
        # F = i G with G real: E F^3 = -i E G^3 and E[|F|^2 conj F] = -i E G^3,
        # so T3 = -4i E G^3 = -8i; conjugating the wrong factor gives +4i
        phi = I_UNIT * fm.gen_block_kernel(1, 1, 1)
        exact = fm.exact_report(phi)
        assert exact.t3 == -8j
        rep = fm.estimate(phi, 100_000, seed=3)
        for name in fm.QUANTITIES:
            assert abs(rep.value(name) - exact.value(name)) <= 5 * rep.se(name), name


rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def small_exact_kernels(draw):
    """Sparse kernels with m + n <= 3 over dim <= 2, rational-complex values."""
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3 - m).filter(lambda n: m + n >= 1))
    dim = draw(st.integers(1, 2))
    keys = [(ta, tb) for ta in combinations_with_replacement(range(dim), m)
            for tb in combinations_with_replacement(range(dim), n)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    return ComplexKernel(m, n, dim, {
        key: ExactComplex(draw(rational), draw(rational)) for key in chosen})


@st.composite
def summed_exact_targets(draw):
    """Two kernels of one total order q <= 3 and different bidegrees over
    dim <= 2, with exact coefficients that have a nonzero imaginary part."""
    q = draw(st.integers(1, 3))
    m1, m2 = draw(st.lists(st.integers(0, q), min_size=2, max_size=2, unique=True))
    dim = draw(st.integers(1, 2))
    target = []
    for m in (m1, m2):
        keys = [(ta, tb) for ta in combinations_with_replacement(range(dim), m)
                for tb in combinations_with_replacement(range(dim), q - m)]
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True))
        kern = ComplexKernel(m, q - m, dim, {
            key: ExactComplex(draw(rational), draw(rational)) for key in chosen})
        coeff = ExactComplex(draw(rational), draw(rational.filter(bool)),
                             draw(rational), draw(rational))
        target.append((coeff, kern))
    return target


class TestExactReport:
    @given(small_exact_kernels())
    @example(ComplexKernel(1, 1, 1, {((0,), (0,)): I_UNIT}))
    @settings(max_examples=20, deadline=None)
    def test_matches_conjugation_patterns(self, phi):
        def moment(*conj):
            return exact_moment([(phi, c) for c in conj])

        rep = fm.exact_report(phi)
        assert rep.abs2 == moment(False, True).to_complex().real
        assert rep.sq == moment(False, False).to_complex()
        assert rep.abs4 == moment(False, False, True, True).to_complex().real
        assert rep.fourth == moment(False, False, False, False).to_complex()
        # T3 = E[F^3] + 3 E[|F|^2 conj F], and |F|^2 conj F = F conj F conj F
        assert rep.t3 == (moment(False, False, False)
                          + 3 * moment(False, True, True)).to_complex()
        assert fm.exact_report(decompose(phi)) == rep

    @given(summed_exact_targets())
    @settings(max_examples=15, deadline=None)
    def test_summed_target_matches_wick(self, target):
        (c1, kern1), (c2, kern2) = target
        f = c1 * element_poly(kern1) + c2 * element_poly(kern2)
        fbar = f.conj()
        fam = GaussianFamily.standard(f.dim)

        def wick(poly):
            return expect(fam, poly).to_complex()

        a2, f2 = f * fbar, f * f
        rep = fm.exact_report(target)
        assert rep.abs2 == wick(a2).real
        assert rep.sq == wick(f2)
        assert rep.abs4 == wick(a2 * a2).real
        assert rep.fourth == wick(f2 * f2)
        assert rep.t3 == wick(f2 * f + 3 * (a2 * fbar))

    def test_degree_five_block_is_computed(self):
        phi = fm.gen_block_kernel(3, 2, 1)
        rep = fm.exact_report(phi)
        assert rep.abs2 == 12  # the isometry: 3! 2!
        assert rep.sq == rep.fourth == rep.t3 == 0
        # |F|^4 has Gaussian degree 20, beyond exact_moment's budget; the
        # oracle's pairing sum on the one polynomial is still quick
        f = element_poly(phi)
        a2 = f * f.conj()
        assert expect(GaussianFamily.standard(f.dim), a2 * a2) == EC(265248)
        assert rep.abs4 == 265248

    @pytest.mark.parametrize("m, n", [(10, 10), (12, 7)])
    def test_high_degree_block_is_computed(self, m, n):
        # a contraction splits multisets, so a one-coordinate block of
        # degree ~20 has few splits per key
        rep = fm.exact_report(fm.gen_block_kernel(m, n, 1))
        assert rep.abs2 == math.factorial(m) * math.factorial(n)  # the isometry
        assert rep.sq == (rep.abs2 if m == n else 0)

    def test_mixed_total_orders_rejected_before_decompose(self, monkeypatch):
        # _real_pair expands the terms in _hermite_pair, which may not run
        # before the order check
        def no_expansion(*args):
            raise AssertionError("expanded a term before the order check")

        monkeypatch.setattr(fm, "_hermite_pair", no_expansion)
        target = [(ONE, fm.gen_block_kernel(1, 1, 1)), (ONE, fm.gen_block_kernel(1, 2, 1))]
        with pytest.raises(ValueError, match="total orders"):
            fm.exact_report(target)

    def test_floating_kernel_rejected(self):
        with pytest.raises(ValueError, match="exact"):
            fm.exact_report(fm.gen_block_kernel(1, 2, 3))


class TestCriterionSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(fm.ConfigError):
            fm.CriterionSpec(case="gaussian-offdiag", sigma2=0.0)
        with pytest.raises(fm.ConfigError):
            fm.CriterionSpec(case="gaussian-diag", sigma2=1.0, a=1.0, b=0.5)
        with pytest.raises(fm.ConfigError):
            fm.CriterionSpec(case="unknown", sigma2=1.0)
        for sigma2 in (float("nan"), float("inf")):  # nan <= 0 is false
            with pytest.raises(fm.ConfigError, match="finite"):
                fm.CriterionSpec(case="gaussian-offdiag", sigma2=sigma2)

    @pytest.mark.parametrize("case, sigma2, a, plain, limit", [
        ("gaussian-offdiag", 1e200, 0.0, False, "abs4"),
        ("gaussian-offdiag", 1e154, 0.0, False, "abs4"),
        ("gaussian-diag", 1e200, 0.5, False, "abs4"),
        ("chi2-offdiag", 1e200, 0.0, False, "abs4"),
        # the stated limits fit in float, the plain-convention law's do not:
        # its abs4 is 8 sigma2^2 and its fourth inf - inf
        ("chi2-offdiag", 5e153, 0.0, True, "configured-law abs4"),
        ("chi2-diag", 1e154, 0.5, False, "abs4"),
    ])
    def test_limits_beyond_float_rejected(self, case, sigma2, a, plain, limit):
        spec = dict(case=case, sigma2=sigma2, a=a, m=1, n=1)
        with pytest.raises(fm.ConfigError, match=f"the {limit} limit out of float range"):
            fm.CriterionSpec(**spec, chi2_variance_is_alpha=not plain)
        if plain:  # the same sigma2 fits under the variance-equals-alpha law
            fm.CriterionSpec(**spec)

    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_chi2_law_needs_both_factors(self, a):
        # alpha2 or alpha1 = (1 -+ a) sigma2 / 2 is 0: no configured law
        with pytest.raises(fm.ConfigError, match="chi-square law"):
            fm.CriterionSpec(case="chi2-diag", sigma2=2.0, a=a, m=1, n=1)

    def test_chi2_odd_degree_excluded(self):
        with pytest.raises(fm.ConfigError):
            fm.CriterionSpec(case="chi2-offdiag", sigma2=2.0, m=1, n=2)
        fm.CriterionSpec(case="chi2-offdiag", sigma2=2.0, m=1, n=3)


class TestTargets:
    def test_gaussian_cases(self):
        offdiag = fm.case_targets(fm.CriterionSpec(case="gaussian-offdiag", sigma2=2.0))
        assert offdiag == {"abs2": 2.0, "sq": 0j, "abs4": 8.0}
        diag = fm.case_targets(
            fm.CriterionSpec(case="gaussian-diag", sigma2=1.0, a=0.5, b=0.0))
        assert diag["abs4"] == pytest.approx(2.25)
        dg = fm.case_targets(
            fm.CriterionSpec(case="gaussian-degenerate", sigma2=1.0, a=1.0))
        assert dg["abs4"] == 3.0 and dg["fourth"] == 3.0

    def test_chi2_targets_match_configured_law(self):
        # the stated limits coincide with the configured-law moments under
        # the variance-equals-alpha convention
        for a in (0.0, 0.5):
            sigma2 = 2.0
            spec = fm.CriterionSpec(case="chi2-diag" if a else "chi2-offdiag",
                                    sigma2=sigma2, a=a, m=1, n=1)
            targets = fm.case_targets(spec)
            law = fm.chi2_target_moments((1 + a) * sigma2 / 2, (1 - a) * sigma2 / 2)
            assert law["t3"] == pytest.approx(targets["t3"])
            assert law["abs4"] == pytest.approx(targets["abs4"])
            assert law["abs2"] == pytest.approx(targets["abs2"])

    def test_plain_convention_differs(self):
        law = fm.chi2_target_moments(1.0, 1.0, variance_is_alpha=False)
        assert law["abs2"] == 4.0  # Var = 2 alpha each


def synthetic_report(abs2, sq, abs4, se=0.01):
    return fm.MomentReport(n_samples=1000, seed=0, exact=False, abs2=abs2, sq=sq,
                           abs4=abs4, fourth=0j, t3=0j, abs2_se=se, sq_se=se,
                           abs4_se=se, fourth_se=se, t3_se=se)


class TestVerdict:
    def test_passing_trajectory(self):
        spec = fm.CriterionSpec(case="gaussian-offdiag", sigma2=1.0)
        reports = [(1, synthetic_report(1.0, 0j, 2.5)),
                   (4, synthetic_report(1.0, 0j, 2.1)),
                   (16, synthetic_report(1.0, 0j, 2.004))]
        v = fm.verdict(reports, spec)
        assert v.passed
        assert v.quantities["abs4"].trajectory_pass

    def test_fails_when_last_index_misses(self):
        spec = fm.CriterionSpec(case="gaussian-offdiag", sigma2=1.0)
        reports = [(1, synthetic_report(1.0, 0j, 2.5)),
                   (4, synthetic_report(1.0, 0j, 2.4))]
        v = fm.verdict(reports, spec)
        assert not v.passed
        assert not v.quantities["abs4"].rows[-1].passed

    def test_fails_on_growing_gap(self):
        spec = fm.CriterionSpec(case="gaussian-offdiag", sigma2=1.0)
        reports = [(1, synthetic_report(1.0, 0j, 2.004)),
                   (4, synthetic_report(1.0, 0j, 2.7))]
        v = fm.verdict(reports, spec)
        assert not v.quantities["abs4"].trajectory_pass

    def test_per_k_references(self):
        spec = fm.CriterionSpec(case="gaussian-offdiag", sigma2=1.0)
        refs = {1: {"abs4": 10.0}, 4: {"abs4": 4.0}, 16: {"abs4": 2.5}}
        reports = [(1, synthetic_report(1.0, 0j, 10.01)),
                   (4, synthetic_report(1.0, 0j, 3.99)),
                   (16, synthetic_report(1.0, 0j, 2.52))]
        v = fm.verdict(reports, spec, refs)
        assert v.passed  # per-k consistent and the gap to 2 sigma^4 shrinks

    def test_degenerate_autodetection(self):
        spec = fm.CriterionSpec(case="gaussian-diag", sigma2=1.0)
        reports = [(1, synthetic_report(1.0, 1.0 + 0j, 3.2)),
                   (4, synthetic_report(1.0, 1.0 + 0j, 3.01))]
        v = fm.verdict(reports, spec)
        assert v.case == "gaussian-degenerate"
        assert "fourth" in v.quantities
        assert any("degenerate" in note for note in v.notes)

    def test_explicit_degenerate_routing(self):
        spec = fm.CriterionSpec(case="gaussian-diag", sigma2=1.0, a=1.0, b=0.0)
        reports = [(1, synthetic_report(1.0, 1.0 + 0j, 3.0))]
        v = fm.verdict(reports, spec)
        assert "fourth" in v.quantities

    def test_reports_must_be_ordered(self):
        spec = fm.CriterionSpec(case="gaussian-offdiag", sigma2=1.0)
        with pytest.raises(ValueError):
            fm.verdict([(4, synthetic_report(1, 0j, 2)),
                        (1, synthetic_report(1, 0j, 2))], spec)

    def test_chi2_notes_carry_law_moments(self):
        spec = fm.CriterionSpec(case="chi2-offdiag", sigma2=2.0, m=1, n=1)
        reports = [(1, synthetic_report(2.0, 0j, 56.0))]
        v = fm.verdict(reports, spec)
        assert any("chi-square law" in note for note in v.notes)


class TestContractionTrajectory:
    def test_block_contractions_shrink(self):
        seq = [(k, fm.gen_block_kernel(1, 2, k)) for k in (1, 2, 4)]
        out = fm.contraction_trajectory(seq)
        vals = [r["max_contraction_norm_sq"] for r in out["rows"]]
        assert out["nonincreasing"] and out["pass"]
        assert vals[0] > vals[-1] > 0

    def test_an_exact_increase_is_caught(self):
        # the norms grow by a factor (1 + 1e-10)^4, far inside a 1e-9 slack
        kern = fm.gen_block_kernel(2, 2, 4)
        seq = [(1, kern), (2, EC(Fraction(10 ** 10 + 1, 10 ** 10)) * kern)]
        out = fm.contraction_trajectory(seq)
        assert not out["nonincreasing"] and not out["pass"]
        assert fm.contraction_trajectory(seq[:1] * 2)["nonincreasing"]

def mixed_degree_two_target(k):
    """Fixed total degree 2, mixed bidegrees (2,0) and (1,1)."""
    return [(EC(Fraction(1, 2)), fm.gen_block_kernel(2, 0, k)),
            (EC(Fraction(1, 2)), fm.gen_block_kernel(1, 1, k))]


class TestMultichaos:
    def test_mixed_bidegree_moments(self):
        rep = fm.exact_report(mixed_degree_two_target(1))
        assert rep.abs2 == 0.75
        assert rep.sq == 0.25 + 0j  # a + ib = 1/3

    def test_mixed_bidegree_verdict(self):
        ks = (1, 2, 4)
        refs = {k: {q: fm.exact_report(mixed_degree_two_target(k)).value(q)
                    for q in fm.QUANTITIES}
                for k in ks}
        reports = [(k, fm.estimate(mixed_degree_two_target(k), 40_000, seed=808))
                   for k in ks]
        spec = fm.CriterionSpec(case="multichaos", sigma2=0.75, a=1 / 3, b=0.0,
                                total_degree=2)
        v = fm.verdict(reports, spec, refs)
        assert v.passed
        assert v.quantities["abs4"].limit == pytest.approx((1 / 9 + 2) * 0.75 ** 2)

    def test_mixed_contraction_condition(self):
        from chaoslab.chaos import decompose
        half = EC(Fraction(1, 2))
        vals = []
        for k in (1, 2, 4):
            u = v = None
            for coeff, kern in mixed_degree_two_target(k):
                du, dv = decompose(kern)
                du, dv = coeff * du, coeff * dv
                u = du if u is None else u + du
                v = dv if v is None else v + dv
            norms = fm.contraction_norms_sq(u) + fm.contraction_norms_sq(v)
            vals.append(max(norms, key=cmp_to_key(lambda x, y: (x - y).real_sign())))
        # exact comparisons: each step is a strict decrease, and the last is positive
        assert all((b - a).real_sign() < 0 for a, b in zip(vals, vals[1:]))
        assert vals[2].real_sign() > 0


class TestComponentGaps:
    def test_gaps_are_nonnegative(self):
        for kern in (fm.gen_block_kernel(1, 2, 1), fm.gen_block_kernel(1, 1, 2),
                     fm.gen_block_kernel(2, 0, 1)):
            for gap in fm.component_gaps(kern):
                assert gap.is_real() and gap.real_sign() >= 0


class TestKolmogorovSmirnov:
    def test_exact_normals_pass(self):
        xs = sample_batch(1, 1_000_000, seed=29).xi[:, 0]
        d, p = fm.ks_distance(xs, fm.normal_cdf())
        assert d < 1.95 / math.sqrt(1_000_000)
        assert p > 0.01

    def test_constant_samples_maximal_mismatch(self):
        d, p = fm.ks_distance(np.zeros(1000), fm.normal_cdf())
        assert d >= 0.5
        assert p < 1e-6

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            fm.ks_distance(np.zeros(10), fm.normal_cdf())

    def test_degenerate_targets_rejected(self):
        with pytest.raises(ValueError):
            fm.normal_cdf(0.0, 0.0)

    def test_component_collection(self):
        phi = fm.gen_block_kernel(1, 2, 2)
        values = np.empty(500, complex)
        fm.estimate(phi, 500, seed=41, out=values)
        re = fm.collect_component_samples(values, component="re")
        im = fm.collect_component_samples(values, component="im")
        batch = sample_batch(2, 500, seed=41)
        from chaoslab.chaos import eval_complex
        f = eval_complex(phi, batch)
        assert (re == f.real).all() and (im == f.imag).all()
        with pytest.raises(ValueError):
            fm.collect_component_samples(values, component="abs")
