"""Finite-dimensional Gaussian chaos: sampling, evaluation, decomposition.

A draw of the underlying randomness is a pair of i.i.d. standard normal
vectors (xi, eta) of length D.  Real integrands are symmetric tensors over
the 2D coordinates (xi first, then eta); complex integrands are bidegree
(m, n) kernels over the D complex coordinates zeta_k = xi_k + i eta_k.

Evaluation rules (validated against the Wick oracle, never trusted bare):

    real:     I_p(f)     = sum_t (p!/t!) f[t] prod_k H_{t_k}(w_k)
    complex:  I_{m,n}(f) = sum_(a,b) (m!/a!)(n!/b!) f[a,b]
                            prod_k 2^(-(a_k+b_k)/2) J_{a_k,b_k}(zeta_k)

Sampling is counter-based (Philox keyed by the seed, counter derived from
the sample index), so batches are reproducible and independent of how work
is chunked across workers.

The real rule works coordinate-major: a batch is laid out as one contiguous
row of N samples per coordinate, (2D, N).

A complex kernel is evaluated on one of two routes, picked once per kernel
by a cost rule (``_wick_trace_pays``) and kept on the kernel with the plan
it builds:

- **The term loop** walks the stored terms.  Its plan holds each term's
  float constant (m!/a!)(n!/b!) 2^(-(m+n)/2) f[a,b] and its (k, a_k, b_k)
  J factors; a call lays the batch out coordinate-major, in row blocks of
  the budget that also sizes the trace route's blocks (``_BLOCK_BYTES``),
  evaluates every distinct J factor once and accumulates the terms into one
  buffer.  (One strided transpose of a whole chunk runs about 4x slower
  than blocks that fit the L2 cache.)  It serves sparse kernels (block
  kernels store d terms over d coordinates) and small ones.
- **The Wick-trace route** expands each J by Ito's product formula, which
  for a kernel f in the full tensor power gives

      2^((m+n)/2) I_{m,n}(f) = sum_r (-2)^r r! C(m,r) C(n,r)
                               <f_r, zeta^(x m-r) (x) conj(zeta)^(x n-r)>

  with f_r the kernel with r (z, z-bar) slot pairs traced.  Its plan holds
  each scaled f_r as a (d^(m-r), d^(n-r)) matrix; a call takes row-wise
  Kronecker powers of zeta over row blocks and adds one GEMM and one row
  dot per r.  It serves dense kernels, whose d^(m+n) entries are within a
  small multiple of their stored terms.

The cost rule sends a kernel to the Wick-trace route when it stores at
least 64 terms and 1.5 d^max(m,n) + d^(m+n)/32 <= terms; its docstring gives
the measurements behind the constants.  The two routes agree to rounding
(the trace route sums in another order); a kernel keeps its route, so it is
evaluated the same way on every call and at every worker count.

Every exact route expands a stored term as its constant times one factor
per coordinate (``_expand``).  The Wick route (``element_poly``) takes
J_{a,b} in monomials of (x, y), built from creation operators; the real
pair (``decompose``, ``exact_report``) takes J_{a,b}'s row of the exact
conversion table, over products H_j(x) H_{a+b-j}(y).  Neither table is
derived from the other, so the Wick oracle stays an independent check of
the real pair: a wrong entry on one side shows as a mismatch.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from itertools import chain, compress, product, repeat
from typing import Dict, Iterable, List, Tuple, Union

import numpy as np
from scipy.special import ndtri

from .convert import conversion_tables
from .exact import ONE, ExactComplex, half_power
from .hermite import complex_hermite, hermite_coeffs
from .tensor import (ComplexKernel, SymTensor, _complex, _float, _symmetrized,
                     multiplicity_factor)
from .wick import GaussianFamily, GaussPoly, embed, expect

ChaosElementT = Union[SymTensor, ComplexKernel]


# -- sampling ---------------------------------------------------------------------


class SampleBatch:
    """N samples held as (N, D) arrays."""

    __slots__ = ("xi", "eta")

    def __init__(self, xi: np.ndarray, eta: np.ndarray):
        if xi.shape != eta.shape or xi.ndim != 2:
            raise ValueError("xi and eta must be equal (N, D) arrays")
        self.xi = xi
        self.eta = eta

    @property
    def dim(self) -> int:
        return self.xi.shape[1]

    @property
    def zeta(self) -> np.ndarray:
        return self.xi + 1j * self.eta

    def __len__(self) -> int:
        return self.xi.shape[0]


SEED_LIMIT = 1 << 128


def sample_batch(D: int, N: int, seed: int, start: int = 0) -> SampleBatch:
    """Samples ``start .. start + N - 1`` of the stream keyed by ``seed``.

    The generator is counter-based: sample i always consumes the same
    Philox blocks no matter how the index range is chunked, so
    ``sample_batch(D, N, s)`` equals the concatenation of any partition of
    the range.  Normals come from the inverse normal CDF applied to the
    midpoints (raw >> 11) 2^-53 + 2^-54 of 53-bit uniforms.  The seed is the
    Philox key, so it must lie in [0, 2**128); a larger one would alias a
    smaller one's stream.

    One (N, 4 blocks) buffer holds every step: ``Generator.random`` writes
    (raw >> 11) 2^-53 into it, word for word as ``random_raw`` would, and
    the 2^-54 offset and ``ndtri`` run in place.  xi and eta are views of it; an
    odd D leaves two unused words per sample.  Per 8,192-sample batch this
    took 23.5-25.5 ms at D = 64 and 5.7-6.5 ms at D = 16, against 27.9-30.9
    and 7.6-8.3 ms with a separate array per step (2-CPU VM, best of 30
    alternating calls in each of four processes).
    """
    if D < 1 or N < 1 or start < 0:
        raise ValueError("need D >= 1, N >= 1, start >= 0")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**128): Philox takes a 128-bit key, "
                         f"got {seed}")
    blocks = (2 * D + 3) // 4  # Philox yields 4 uint64 words per block
    buf = np.empty((N, 4 * blocks))
    np.random.Generator(np.random.Philox(key=int(seed), counter=start * blocks)).random(out=buf)
    buf += 2.0 ** -54
    ndtri(buf, out=buf)
    return SampleBatch(buf[:, :D], buf[:, D:2 * D])


# -- pathwise evaluation -------------------------------------------------------------


class _HermiteCache:
    """Per-coordinate probabilists' Hermite values He_j(w), grown on demand;
    ``w`` holds one row of samples per coordinate."""

    def __init__(self, w: np.ndarray):
        self.w = w
        self.tables: Dict[int, List[np.ndarray]] = {}

    def value(self, coord: int, degree: int) -> np.ndarray:
        x = self.w[coord]
        tab = self.tables.setdefault(coord, [np.ones_like(x)])
        while len(tab) <= degree:
            j = len(tab) - 1
            tab.append(x * tab[j] - j * tab[j - 1] if j else x.copy())
        return tab[degree]


def eval_real(f: SymTensor, batch: SampleBatch) -> np.ndarray:
    """Pathwise value of the order-p integral of a symmetric tensor.

    The tensor lives over 2D coordinates: slots 0..D-1 are xi, D..2D-1 eta.
    """
    if f.dim != 2 * batch.dim:
        raise ValueError(f"tensor dim {f.dim} != 2 x sample dim {batch.dim}")
    cache = _HermiteCache(np.vstack((batch.xi.T, batch.eta.T)))
    out = np.zeros(len(batch))
    for key, val in f.data.items():
        term = np.full(len(batch), float(multiplicity_factor(key)))
        for coord in sorted(set(key)):
            term = term * cache.value(coord, key.count(coord))
        out += _float(val) * term
    return out


def _coord_degrees(ta: Tuple[int, ...], tb: Tuple[int, ...]) -> List[Tuple[int, int, int]]:
    """(k, a_k, b_k) for each coordinate k of a kernel key, in coordinate order:
    a_k and b_k count the occurrences of k in the two blocks."""
    return [(k, ta.count(k), tb.count(k)) for k in sorted(set(ta + tb))]


# bytes of one row block, one budget for both routes: of the term loop's zeta
# (16 D a row) and of the Wick trace's widest Kronecker power (16 d^max(m,n) a
# row); 512 rows at D = 64 or d^2 = 64.  Such blocks fit the L2 cache: laying
# out an 8,192 x 64 batch took 2.0-2.7 ms in them, 10.5-11.2 ms in one piece
_BLOCK_BYTES = 1 << 19


class _TermLoop:
    """The term plan: the distinct (k, a, b) J factors of phi, and per stored
    term its float constant (m!/a!)(n!/b!) 2^(-(m+n)/2) f[a,b] with the
    positions of its factors in ``factors``.  A call lays zeta out as a
    (D, N) array in row blocks of ``_BLOCK_BYTES``, the budget of the Wick
    trace's blocks, since one strided transpose of the whole batch runs
    about 4x slower; it then evaluates each factor once and accumulates the
    terms into one scratch buffer."""

    __slots__ = ("factors", "terms")

    def __init__(self, phi: ComplexKernel):
        scale = 2.0 ** (-(phi.m + phi.n) / 2)
        slots: Dict[Tuple[int, int, int], int] = {}
        terms = []
        for (ta, tb), val in phi.data.items():
            mult = multiplicity_factor(ta) * multiplicity_factor(tb)
            where = tuple(slots.setdefault(f, len(slots)) for f in _coord_degrees(ta, tb))
            terms.append(((mult * scale) * _complex(val), where))
        self.factors = tuple(slots)
        self.terms = tuple(terms)

    def __call__(self, batch: SampleBatch) -> np.ndarray:
        zeta = np.empty((batch.dim, len(batch)), dtype=np.complex128)
        re, im = zeta.real, zeta.imag
        step = max(1, _BLOCK_BYTES // (16 * batch.dim))
        for s in range(0, len(batch), step):
            re[:, s:s + step] = batch.xi[s:s + step].T
            im[:, s:s + step] = batch.eta[s:s + step].T
        jvals = [complex_hermite(a, b)(zeta[k]) for k, a, b in self.factors]
        out = np.zeros(len(batch), dtype=np.complex128)
        buf = np.empty_like(out)
        for c, where in self.terms:
            if not where:
                out += c
                continue
            np.multiply(jvals[where[0]], c, out=buf)
            for i in where[1:]:
                buf *= jvals[i]
            out += buf
        return out


class _WickTrace:
    """The dense plan: per r = 0..min(m, n) the matrix M_r = c_r f_r of the
    module docstring's trace rule, of shape (d^(m-r), d^(n-r)), kept with its
    wider side first: when n > m the plan holds conj(M_r)^T and a call
    conjugates its sum.  A call walks row blocks of at most ``_BLOCK_BYTES``
    in the widest Kronecker power.  Per block it forms the row-wise powers
    zeta^(x j), j = 0..max(m, n), once, and adds rowdot(Z_p @ M_r, conj(Z_q))
    for each r, where p = max(m, n) - r >= q = min(m, n) - r; the conjugate
    side is the conjugate of a power already formed."""

    __slots__ = ("hi", "flip", "mats")

    def __init__(self, phi: ComplexKernel):
        m, n, d = phi.m, phi.n, phi.dim
        vals = {key: _complex(val) for key, val in phi.data.items()}
        rows = [tuple(sorted(t)) for t in product(range(d), repeat=m)]
        cols = [tuple(sorted(t)) for t in product(range(d), repeat=n)]
        f = np.array([[vals.get((a, b), 0j) for b in cols] for a in rows], dtype=np.complex128)
        self.hi = max(m, n)
        self.flip = n > m
        self.mats = []
        for r in range(min(m, n) + 1):
            if r:  # trace the last z slot against the last z-bar slot
                f = np.einsum("aibi->ab", f.reshape(d ** (m - r), d, d ** (n - r), d))
            c = (2.0 ** (-(m + n) / 2) * (-2.0) ** r * math.factorial(r)
                 * math.comb(m, r) * math.comb(n, r))
            self.mats.append(np.ascontiguousarray((c * f).conj().T) if self.flip else c * f)

    def __call__(self, batch: SampleBatch) -> np.ndarray:
        hi, lo = self.hi, len(self.mats) - 1
        step = max(1, _BLOCK_BYTES // (16 * batch.dim ** hi))
        out = np.empty(len(batch), dtype=np.complex128)
        for start in range(0, len(batch), step):
            z = batch.xi[start:start + step] + 1j * batch.eta[start:start + step]
            rows = len(z)
            powers = [np.ones((rows, 1), dtype=np.complex128)]
            for _ in range(hi):
                powers.append((powers[-1][:, :, None] * z[:, None, :]).reshape(rows, -1))
            acc = np.zeros(rows, dtype=np.complex128)
            for r, mat in enumerate(self.mats):
                acc += np.einsum("ij,ij->i", powers[hi - r] @ mat, powers[lo - r].conj())
            out[start:start + rows] = acc.conj() if self.flip else acc
        return out


def _wick_trace_pays(m: int, n: int, d: int, n_terms: int) -> bool:
    """The cost rule: the dense route for at least 64 stored terms with
    1.5 d^max(m,n) + d^(m+n)/32 <= terms.

    Per sample, the term loop costs about 4 ns per stored term; the dense
    route about 6 ns per entry of its widest Kronecker power (forming it,
    conjugating it, feeding it to the GEMM) plus about 0.125 ns per complex
    multiply-add of its d^(m+n) GEMM work.  The dense route's fixed cost of
    about 0.3 ms per call (a GEMM, a row dot and a Python round per r and
    per block) is worth about 10 stored terms at 8,192 samples and 40 at
    2,000; the floor of 64 keeps small kernels and small chunks on the loop.
    Measured on 8,192 samples with one OpenBLAS thread (2-CPU Xeon VM,
    best of 5 per kernel), loop against dense: rank-one (2,2) d=8 with 1,296
    terms 42 against 12.8 ms; random (2,2) d=4 with 95 terms 5.3 against
    2.5; (2,1) d=5 with 75 terms 3.7 against 2.0; (3,2) d=4 with 193 terms
    9.4 against 6.4; (3,3) d=4 with 379 terms 17.0 against 13.5.  The rule
    sends those dense and keeps on the loop the kernels below, timed with
    the loop's row-blocked zeta (same machine, best of 15 in each of three
    rounds, the least of the rounds shown): (3,1) d=5 with 166 terms (6.9
    against 7.5), (4,1) d=4 with 134 terms (6.3 against 14.5), (3,0) d=8
    with 115 terms (4.2 against 14.7: with nothing to trace, (m,0) and
    (0,n) kernels are slow dense), rank-one (2,2) d=2 with 9 terms (0.8
    against 0.8, under the floor) and block kernels, which store d terms
    over d coordinates (gen_block_kernel(2, 2, 16): 1.3 against 93 ms).
    """
    return n_terms >= 64 and 1.5 * d ** max(m, n) + d ** (m + n) / 32 <= n_terms


def _build_term_plan(phi: ComplexKernel):
    """phi's evaluation plan, on the route ``_wick_trace_pays`` picks."""
    route = _WickTrace if _wick_trace_pays(phi.m, phi.n, phi.dim, len(phi.data)) else _TermLoop
    return route(phi)


_PLAN_LOCK = threading.Lock()


def _plan_of(phi: ComplexKernel):
    """phi's evaluation plan, built on first use and kept on the kernel
    (kernels are not mutated after construction); the lock makes concurrent
    chunks of one estimate build it once."""
    plan = phi._term_plan
    if plan is None:
        with _PLAN_LOCK:
            if phi._term_plan is None:
                phi._term_plan = _build_term_plan(phi)
            plan = phi._term_plan
    return plan


def eval_complex(phi: ComplexKernel, batch: SampleBatch) -> np.ndarray:
    """Pathwise value of the bidegree-(m, n) integral of a complex kernel."""
    if phi.dim != batch.dim:
        raise ValueError(f"kernel dim {phi.dim} != sample dim {batch.dim}")
    return _plan_of(phi)(batch)


# -- exact term expansion ------------------------------------------------------------


def _expand(elem: ChaosElementT, factor) -> GaussPoly:
    """Sum over elem's stored terms of the rule's constant (module docstring)
    times the small polynomial ``factor(real, a_k, b_k)`` placed at k for
    a real key t (read as (t, ())), at (k, D + k) for a kernel key.

    The stored value is not multiplied in: it weights the term in the one
    ``plus``, which runs on the polynomials' int numerators."""
    real = isinstance(elem, SymTensor)
    dim = elem.dim if real else 2 * elem.dim
    scale = ONE if real else half_power(elem.m + elem.n)
    pairs = []
    for key, val in elem.data.items():
        ta, tb = (key, ()) if real else key
        term = GaussPoly.constant(
            dim, scale * (multiplicity_factor(ta) * multiplicity_factor(tb)))
        for k, a, b in _coord_degrees(ta, tb):
            coords = (k,) if real else (k, elem.dim + k)
            term = term * embed(factor(real, a, b), coords, dim)
        pairs.append((val, term))
    return GaussPoly(dim).plus(pairs)


@lru_cache(maxsize=None)
def _hermite_factor(real: bool, a: int, b: int) -> GaussPoly:
    """One coordinate's small polynomial in the real Hermite-product basis:
    H_a, key (a,), for a real key; for a kernel key J_{a,b}(x + iy) as its row
    of the table ``conversion_tables(a + b)[0]``, key (j, l) for H_j(x) H_l(y)."""
    if real:
        return GaussPoly(1, {(a,): 1})
    row = conversion_tables(a + b)[0].rows[a]
    return GaussPoly(2, {(j, a + b - j): c for j, c in enumerate(row)})


def _hermite_pair(terms, order: int) -> Tuple[SymTensor, SymTensor]:
    """The real pair (u, v) of sum c I(elem) over exact (c, elem) terms of
    one chaos order: the weighted Hermite-basis expansions (``_expand`` with
    ``_hermite_factor``) summed in one pass over (xi, eta), then read off
    the sum's numerator form.

    Its exponent tuples are Hermite multi-indices: e stands for
    prod_i H_{e_i}(w_i) and carries order!/t! (u + iv)[t], t its sorted
    index tuple, so u and v are its (p, q) and (r, s) halves over order!/t!
    (``_symmetrized`` of t alone).  ``_expand``'s GaussPoly product is right
    for them only because a term's factors sit on distinct coordinates, so
    adding exponents concatenates."""
    polys = [(c, _expand(elem, _hermite_factor)) for c, elem in terms]
    total = GaussPoly(polys[0][1].dim).plus(polys)
    coords, flat = range(total.dim), chain.from_iterable
    # compress skips, in C, the zero exponents that fill a 2D-long tuple
    rows = [(tuple(flat(repeat(i, e[i]) for i in compress(coords, e))), v)
            for e, v in total._num.items()]
    return tuple(_symmetrized(SymTensor(order, total.dim), total._den,
                              ((t, x[i:i + 2]) for t, x in rows)) for i in (0, 2))


def decompose(phi: ComplexKernel) -> Tuple[SymTensor, SymTensor]:
    """Real tensors (u, v) with I_{m,n}(phi) = I_{m+n}(u) + i I_{m+n}(v) pathwise.

    Pipeline: expand each stored term as its constant times one factor per
    coordinate, J_{a_k,b_k} rewritten in the real Hermite-product basis by
    its row of the exact conversion table, sum the terms, and read the
    resulting real Fourier-Hermite coefficients back as a tensor over the
    2D coordinates (``_hermite_pair``).  Exact kernels give exact tensors
    (coefficients may carry a factor sqrt(2) when m + n is odd).

    When m != n the two tensors are exactly orthogonal with equal norms.
    """
    if not phi.is_exact():
        raise ValueError("decompose needs an exact kernel")
    return _hermite_pair([(ONE, phi)], phi.m + phi.n)


# -- exact moments ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _factor_terms(real: bool, a: int, b: int) -> GaussPoly:
    """One coordinate's factor as a small polynomial: H_a(x), or J_{a,b}(x + iy) in (x, y)."""
    if real:
        return GaussPoly(1, {(k,): c for k, c in enumerate(hermite_coeffs(a))})
    return GaussPoly(2, complex_hermite(a, b).to_xy())


def element_poly(elem: ChaosElementT, conj: bool = False) -> GaussPoly:
    """The integral of an exact chaos element as an exact polynomial,
    conjugated if asked, by the rules of the module docstring: I_p(f) over
    f.dim coordinates, I_{m,n}(phi) over the 2 phi.dim coordinates (xi, eta).

    Each stored term is its constant times one embedded factor per
    coordinate k (``_expand``): H_{a_k} at coordinate k for a real key t,
    J_{a_k,b_k} in monomials of (xi_k, eta_k) at (k, D + k) for a kernel key.
    """
    if not isinstance(elem, (SymTensor, ComplexKernel)):
        raise TypeError(f"not a chaos element: {type(elem).__name__}")
    if not elem.is_exact():
        raise ValueError("exact path needs exact values")
    poly = _expand(elem, _factor_terms)
    return poly.conj() if conj else poly


def top_degree(elem: ChaosElementT) -> int:
    """The chaos order of an element: p for I_p(f), m + n for I_{m,n}(phi)."""
    if isinstance(elem, SymTensor):
        return elem.order
    return elem.m + elem.n


WICK_DEGREE_BUDGET = 16


def exact_moment(factors: Iterable) -> ExactComplex:
    """Exact expectation of a product of chaos elements and conjugates.

    Each factor is a SymTensor, a ComplexKernel, or an (element, conj: bool)
    pair.  The total Gaussian degree of the product must not exceed
    ``WICK_DEGREE_BUDGET``; that is checked before any product is formed.

    Each (element, conj) factor is built into its polynomial once per call,
    however often it repeats, so [u, u, u, u] builds one.  The expectation
    is taken over the shared ``GaussianFamily.standard`` of the product's
    dimension, whose pairing memo carries over from earlier calls.
    """
    normalized = [(elem, bool(conj)) for elem, conj in
                  (f if isinstance(f, tuple) else (f, False) for f in factors)]
    if not normalized:
        raise ValueError("need at least one factor")
    total_degree = sum(top_degree(e) for e, _ in normalized)
    if total_degree > WICK_DEGREE_BUDGET:
        raise ValueError(f"total Gaussian degree {total_degree} exceeds the "
                         f"budget {WICK_DEGREE_BUDGET}")
    built: Dict[Tuple[int, bool], GaussPoly] = {}
    for e, conj in normalized:
        if (id(e), conj) not in built:
            built[id(e), conj] = element_poly(e, conj)
    polys = [built[id(e), conj] for e, conj in normalized]
    dims = {p.dim for p in polys}
    if len(dims) != 1:
        raise ValueError(f"factors live over different coordinate counts: {dims}")
    # balanced multiplication keeps intermediate term counts small
    while len(polys) > 1:
        polys.sort(key=lambda p: len(p._num))
        a, b = polys.pop(0), polys.pop(0)
        polys.append(a * b)
    return expect(GaussianFamily.standard(polys[0].dim), polys[0])
