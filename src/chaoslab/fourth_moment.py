"""Fourth-moment experiment harness.

Builds block-kernel sequences whose integrals are normalized i.i.d. sums
inside a fixed chaos, computes the moment quantities the limit theorems
compare, and renders a structured verdict: per-index consistency against
references, plus a monotone-approach check of the gap to the limit.  The
harness certifies moment trajectories; it never claims convergence in
distribution itself.  A KS side channel measures the empirical distance to
the limit law; the limit theorems promise nothing at one finite k, so there
its p-value measures the distance that remains and is not expected to clear
any threshold.  Its samples are the values F that :func:`estimate` keeps
from its own pass at that k, so no sample is drawn twice.

The five quantities of a chaos variable F are

    abs2 = E|F|^2      sq = E F^2      abs4 = E|F|^4      fourth = E F^4
    t3   = E[F^3 + 3 |F|^2 conj(F)]

:func:`moment_quantities` is their one definition.  The Monte Carlo chunk
sums apply it to sample arrays.  :func:`exact_report` applies it to
F = U + iV as a polynomial in two symbols, where F = I_q(u) + i I_q(v) is
the real pair of the target, and replaces each monomial U^a V^b by its
exact mean.  The real pair is read off the weighted sum of the terms'
expansions by the conversion tables, as :func:`chaoslab.chaos.decompose`
reads one kernel's.  The means are the table :func:`chaoslab.tensor.pair_moments`
reads off one set of contractions of u and v (the product formula), so the
cost is polynomial in the kernel size.  The Wick pairing oracle
(:mod:`chaoslab.wick`) stays the independent check; :func:`component_gaps`
uses it.

Chi-square targets: the limit law G1(alpha1) + i G2(alpha2) uses centered
chi-square factors whose normalization is configuration, not hardcoded
truth.  The default convention fixes Var(G_i) = alpha_i (i.e. alpha_i/2
degrees of freedom in the Var = 2k convention); that choice makes the
stated target moments mutually consistent.  Reports always carry both the
configured-law moments and the stated limits.
"""

from __future__ import annotations

import cmath
import ctypes
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import kolmogorov, ndtr

from .chaos import (SampleBatch, _hermite_pair, decompose, eval_complex, eval_real,
                    exact_moment, sample_batch, top_degree)
from .exact import EC, ExactComplex, I_UNIT, ONE, ZERO
from .tensor import ComplexKernel, SymTensor, _complex, contract, pair_moments
from .wick import GaussPoly

QUANTITIES = ("abs2", "sq", "abs4", "fourth", "t3")

# verdict tolerance policy: a moment passes at one index when the estimate
# is within max(5 SE, 2% of the reference + 0.01) of its reference
def _tolerance(reference: complex, se: float) -> float:
    return max(5.0 * se, 0.02 * abs(reference) + 0.01)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


# -- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    """Estimated or exact values of the five moment quantities."""

    n_samples: int
    seed: Optional[int]
    exact: bool
    abs2: float
    sq: complex
    abs4: float
    fourth: complex
    t3: complex
    abs2_se: float = 0.0
    sq_se: float = 0.0
    abs4_se: float = 0.0
    fourth_se: float = 0.0
    t3_se: float = 0.0

    def __post_init__(self):
        for name in QUANTITIES:
            se = getattr(self, name + "_se")
            if se < 0:
                raise ValueError("standard errors must be nonnegative")
            if self.exact and se != 0:
                raise ValueError("exact reports have zero standard error")

    def value(self, name: str) -> complex:
        return getattr(self, name)

    def se(self, name: str) -> float:
        return getattr(self, name + "_se")


def _jsonable(x):
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


# -- criterion specifications ------------------------------------------------------


_CASES = ("gaussian-offdiag", "gaussian-diag", "gaussian-degenerate",
          "chi2-offdiag", "chi2-diag", "multichaos")


@dataclass(frozen=True)
class CriterionSpec:
    """Target parameters for one limit-theorem case.

    ``m``/``n`` describe a fixed bidegree, ``total_degree`` a multichaos sum.
    ``sigma2`` and every limit it implies (:func:`case_targets`, and a
    chi-square case's configured law, which needs |a| < 1) must be finite:
    an infinite limit would pass any estimate with its infinite tolerance.
    """

    case: str
    sigma2: float
    a: float = 0.0
    b: float = 0.0
    m: Optional[int] = None
    n: Optional[int] = None
    total_degree: Optional[int] = None
    chi2_variance_is_alpha: bool = True

    def __post_init__(self):
        if self.case not in _CASES:
            raise ConfigError(f"unknown case {self.case!r}; expected one of {_CASES}")
        if not 0 < self.sigma2 < math.inf:  # a NaN fails both comparisons
            raise ConfigError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if self.a * self.a + self.b * self.b > 1 + 1e-12:
            raise ConfigError("need a^2 + b^2 <= 1")
        limits = list(case_targets(self).items())
        if self.case.startswith("chi2"):
            if self.m is None or self.n is None:
                raise ConfigError("chi-square cases need the bidegree (m, n)")
            if (self.m + self.n) % 2:
                raise ConfigError(
                    "no chi-square limit exists in an odd-degree chaos: no sequence "
                    "with bounded variances converges to the chi-square target when "
                    "m + n is odd")
            try:
                limits += [(f"configured-law {k}", v) for k, v in _chi2_law(self).items()]
            except ValueError as exc:
                raise ConfigError(f"no configured chi-square law at a={self.a}: {exc}")
        for name, value in limits:
            if not cmath.isfinite(value):
                raise ConfigError(f"sigma2={self.sigma2} puts the {name} limit out of float range")

    def is_degenerate(self) -> bool:
        return abs(self.a * self.a + self.b * self.b - 1.0) <= 1e-9


def case_targets(spec: CriterionSpec) -> Dict[str, complex]:
    """Limit values of the moment quantities for a criterion case."""
    s2 = spec.sigma2
    ab = complex(spec.a, spec.b)
    if spec.case == "gaussian-offdiag":
        return {"abs2": s2, "sq": 0j, "abs4": 2 * s2 * s2}
    diag = spec.case in ("gaussian-diag", "multichaos")
    if spec.case == "gaussian-degenerate" or (diag and spec.is_degenerate()):
        return {"abs2": s2, "sq": ab * s2, "abs4": 3 * s2 * s2,
                "fourth": 3 * ab * ab * s2 * s2}
    if diag:
        return {"abs2": s2, "sq": ab * s2,
                "abs4": (abs(ab) ** 2 + 2) * s2 * s2}
    if spec.case == "chi2-offdiag":
        return {"abs2": s2, "t3": 8 * (1 - 1j) * s2,
                "abs4": 2 * s2 * s2 + 24 * s2}
    if spec.case == "chi2-diag":
        a = spec.a
        return {"abs2": s2, "sq": ab * s2,
                "t3": 8 * complex(1 + a, -(1 - a)) * s2,
                "abs4": (2 + a * a) * s2 * s2 + 24 * s2}
    raise ConfigError(f"unknown case {spec.case!r}")


def chi2_target_moments(alpha1: float, alpha2: float,
                        variance_is_alpha: bool = True) -> Dict[str, complex]:
    """Moments of the configured limit law G1(alpha1) + i G2(alpha2).

    With variance_is_alpha (default) the centered chi-square factor G(a)
    has E G^2 = a, E G^3 = 4a, E G^4 = 3a^2 + 24a; with the plain
    convention it is a centered chi-square with a degrees of freedom
    (E G^2 = 2a, E G^3 = 8a, E G^4 = 12a^2 + 48a).
    """
    if alpha1 <= 0 or alpha2 <= 0:
        raise ValueError("degrees of freedom must be positive")

    def moments(a):
        if variance_is_alpha:
            return a, 4 * a, 3 * a * a + 24 * a
        return 2 * a, 8 * a, 12 * a * a + 48 * a

    m2_1, m3_1, m4_1 = moments(alpha1)
    m2_2, m3_2, m4_2 = moments(alpha2)
    return {
        "abs2": m2_1 + m2_2,
        "sq": complex(m2_1 - m2_2, 0.0),
        "abs4": m4_1 + 2 * m2_1 * m2_2 + m4_2,
        "fourth": complex(m4_1 - 6 * m2_1 * m2_2 + m4_2, 0.0),
        "t3": complex(4 * m3_1, -4 * m3_2),
    }


def _chi2_law(spec: CriterionSpec) -> Dict[str, complex]:
    """Moments of a chi-square case's configured law, alpha_{1,2} = (1 +- a) sigma2 / 2."""
    return chi2_target_moments((1 + spec.a) * spec.sigma2 / 2, (1 - spec.a) * spec.sigma2 / 2,
                               spec.chi2_variance_is_alpha)


# -- kernel generation ---------------------------------------------------------------


def _inv_sqrt_exact(k: int) -> Optional[ExactComplex]:
    r = math.isqrt(k)
    if r * r == k:
        return EC(Fraction(1, r))
    if k % 2 == 0:
        r = math.isqrt(k // 2)
        if 2 * r * r == k:
            # 1/sqrt(2 r^2) = sqrt(2) / (2 r)
            return ExactComplex(0, 0, Fraction(1, 2 * r), 0)
    return None


def gen_block_kernel(m: int, n: int, k: int) -> ComplexKernel:
    """k^-1/2 sum_j e_j^(x m) (x) conj(e_j)^(x n) over dimension k.

    Each block uses one coordinate, so the integral is a normalized sum of
    k i.i.d. chaos variables.  The coefficient is exact whenever k or k/2
    is a perfect square; otherwise it falls back to floating point (such
    kernels can be sampled but not fed to the exact oracle).
    """
    if m + n < 2:
        raise ValueError("need m + n >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    coeff = _inv_sqrt_exact(k)
    c = coeff if coeff is not None else 1.0 / math.sqrt(k)
    return ComplexKernel(m, n, k, {((j,) * m, (j,) * n): c for j in range(k)})


# -- estimation -----------------------------------------------------------------------


EstimateTarget = Union[ComplexKernel,
                       Tuple[SymTensor, SymTensor],
                       Sequence[Tuple[object, ComplexKernel]]]


def _terms_of(target: EstimateTarget) -> List[Tuple[ExactComplex, object]]:
    """Normalize a target to scalar-weighted chaos elements."""
    if isinstance(target, ComplexKernel):
        return [(ONE, target)]
    if isinstance(target, tuple) and len(target) == 2 and isinstance(target[0], SymTensor):
        u, v = target  # a real pair (u, v), meaning I(u) + i I(v)
        return [(ONE, u), (I_UNIT, v)]
    terms = [(ExactComplex.coerce(coeff) if not isinstance(coeff, (float, complex)) else coeff,
              kern) for coeff, kern in target]  # type: ignore[union-attr]
    if not terms:
        raise ValueError("empty target")
    return terms


def _target_sample_dim(target: EstimateTarget) -> int:
    dims = set()
    for _, elem in _terms_of(target):
        if isinstance(elem, SymTensor):
            if elem.dim % 2:
                raise ValueError("real tensors must live over an even dimension")
            dims.add(elem.dim // 2)
        else:
            dims.add(elem.dim)
    if len(dims) != 1:
        raise ValueError(f"target components live over different dimensions: {dims}")
    return dims.pop()


def eval_target(target: EstimateTarget, batch: SampleBatch) -> np.ndarray:
    """Pathwise complex values of a (possibly summed or decomposed) target."""
    out = np.zeros(len(batch), dtype=np.complex128)
    for coeff, elem in _terms_of(target):
        c = _complex(coeff)
        if isinstance(elem, SymTensor):
            out += c * eval_real(elem, batch)
        else:
            out += c * eval_complex(elem, batch)
    return out


DEFAULT_CHUNK = 8192


def _map_chunks(fn, n_samples: int, chunk_size: int, workers: int = 1):
    """Yield ``fn(start, size)`` over the chunks of the sample range in
    chunk-index order whatever the worker count, with at most 2 * workers
    chunks in flight, so memory does not grow with the number of chunks."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = []
        for start in range(0, n_samples, chunk_size):
            pending.append(pool.submit(fn, start, min(chunk_size, n_samples - start)))
            if len(pending) == 2 * workers:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()


# glibc's mallopt parameter numbers (malloc.h) and the values estimate sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 8 << 20
_TRIM_THRESHOLD = 32 << 20


@lru_cache(maxsize=None)
def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at 8 and 32 MiB, once per
    process; a no-op where the C library has no ``mallopt``.

    glibc raises both thresholds by itself whenever a freed block was
    mmapped, so whether a chunk's arrays come from the heap or from a fresh
    mmap, faulted in page by page, depends on what the process freed
    before.  Fixed, it depends on the sizes alone.  Blocks of 8 MiB or more,
    such as the sampler's buffer and the term loop's zeta at D = 64 and
    8,192 samples, are mmapped and returned on free; smaller ones stay on
    the heap, whose top is kept up to 32 MiB.

    Measured on 2 CPUs with glibc 2.36.  "Trio" is three ``estimate`` calls
    (block (1,2) at k = 4, 16, 64, 200,000 samples, workers 2) in a fresh
    process, six processes per row: minor page faults, and the median wall
    time.  "mc" is perfbench's mc-experiment (seed 1, 20 s, untraced), four
    alternating runs per row: ``wall_norm`` and ``peak_rss_mb``.  Without
    the helper the trio took 90-110 K faults and 1.01 s (with the
    three-array sampler that ``sample_batch`` replaced, 68-88 K and 0.90 s;
    mc 1.47-1.54 and 110.3-113.2).  At 4/32 MiB (mmap/trim) it took
    20-30 K and 0.84 s, mc 1.34-1.40 and 108.3-109.4; at 8/32, 22-30 K
    and 0.91 s, mc 1.33-1.39 and 108.9-109.5 (lower than 4/32 in 3 of 4
    pairs); at 12/32, 10.4 K and 0.81 s; at 16/32, 10.4 K and 0.76 s,
    mc 1.28-1.40 but 117.4-117.5; at 16/64 and 32/64, 10.1-10.4 K and
    0.82-0.83 s.  A trim threshold of 16 MiB under an mmap threshold of 9
    to 32 MiB gave 70-78 K (three processes each): the heap top goes back
    after each chunk and is faulted in again.  So an mmap threshold above
    8 MiB keeps the D = 64 arrays on the heap and faults least, but leaves
    the experiment's peak RSS 8 MB higher; 8/32 is the fastest measured
    setting that lowers both mc numbers.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # Windows' CDLL refuses None: TypeError
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _mean_se(total, sq_total: float, n: float) -> Tuple[complex, float]:
    """Plug-in mean of n samples and its standard error (sample sd / sqrt n)."""
    mean = total / n
    var = max((sq_total - n * abs(mean) ** 2) / (n - 1.0), 0.0)
    return mean, math.sqrt(var / n)


def moment_quantities(f, fbar, a2):
    """(abs2, sq, abs4, fourth, t3) of F, before the expectation, from F,
    conj(F) and |F|^2 (see the module docstring).

    Only ``*``, ``+`` and an int scale are used, so the operands may be numpy
    sample arrays or exact ``GaussPoly`` polynomials in the real pair's
    symbols U and V.
    """
    f2 = f * f
    return a2, f2, a2 * a2, f2 * f2, f2 * f + 3 * a2 * fbar


def _moment_arrays(f):
    abs2, sq, abs4, fourth, t3 = moment_quantities(f, np.conj(f), np.abs(f) ** 2)
    a8 = abs4 * abs4
    # squared moduli: |sq|^2 = abs2^2 = abs4 and |fourth|^2 = abs4^2
    return [(abs2, abs4), (sq, abs4), (abs4, a8), (fourth, a8), (t3, np.abs(t3) ** 2)]


def estimate(target: EstimateTarget, n_samples: int, seed: int, *,
             workers: int = 1, chunk_size: int = DEFAULT_CHUNK,
             out: Optional[np.ndarray] = None) -> MomentReport:
    """Monte Carlo moment report for a chaos target: plug-in means with
    (sample sd / sqrt N) standard errors.  Chunks stream through a pool
    with a bounded number in flight, their sums are added in chunk-index
    order and sampling is counter-based, so the report is the same for a
    given (seed, chunk_size) whatever the worker count.

    ``out`` (complex, n_samples) keeps this pass's values F, the KS side
    channel's samples.  Moments that overflow float are a ConfigError.

    The first call fixes glibc's mmap and trim thresholds for the whole
    process (:func:`_fix_malloc_thresholds`), so that a chunk's arrays do
    not come from fresh mmaps that are faulted in again chunk after chunk.
    Three calls (block (1,2) at k = 4, 16, 64, 200,000 samples, workers 2)
    in a fresh process took 61-93 K minor page faults before and 22-30 K
    after; the dense-kernel benchmark's call 1.9 K before and 1.1 K after.

    A dense-route kernel (``chaos``'s Wick-trace GEMMs) at workers >= 2
    runs OpenBLAS threads on top of the pool's, which oversubscribes the
    CPUs; run it with OPENBLAS_NUM_THREADS=1.  On 2 CPUs, 300,000 samples
    of a rank-one (2,2) kernel over d = 8 at workers 2 took 0.69-0.82 s
    with the variable unset and 0.33-0.34 s with it set to 1."""
    dim = _target_sample_dim(target)
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if out is not None and (out.shape != (n_samples,) or out.dtype != np.complex128):
        raise ValueError(f"out must be a complex array of shape ({n_samples},)")
    _fix_malloc_thresholds()

    def chunk_sums(start, size):
        # overflow is refused once, after the fold; numpy's error state is
        # per thread, so it is set here, in the worker
        with np.errstate(over="ignore", invalid="ignore"):
            f = eval_target(target, sample_batch(dim, size, seed, start=start))
            if out is not None:
                out[start:start + size] = f
            return [(complex(np.sum(value)), complex(np.sum(square)))
                    for value, square in _moment_arrays(f)]

    totals = [(0j, 0j)] * len(QUANTITIES)
    for part in _map_chunks(chunk_sums, n_samples, chunk_size, workers):
        totals = [(v + pv, s + ps) for (v, s), (pv, ps) in zip(totals, part)]
    if not all(cmath.isfinite(x) for pair in totals for x in pair):
        raise ConfigError("the moments overflow float: the kernel values are too large")
    (abs2, abs2_se), (sq, sq_se), (abs4, abs4_se), (fourth, fourth_se), (t3, t3_se) = (
        _mean_se(value_sum, sq_sum.real, float(n_samples)) for value_sum, sq_sum in totals)
    return MomentReport(n_samples=n_samples, seed=seed, exact=False,
                        abs2=abs2.real, sq=sq, abs4=abs4.real, fourth=fourth, t3=t3,
                        abs2_se=abs2_se, sq_se=sq_se, abs4_se=abs4_se,
                        fourth_se=fourth_se, t3_se=t3_se)


def _real_pair(target: EstimateTarget) -> Tuple[SymTensor, SymTensor]:
    """Exact real tensors (u, v) with target = I_q(u) + i I_q(v).

    The weighted Hermite-basis expansions of the target's terms are summed
    in one pass and (u, v) is read off the sum once, as
    :func:`chaoslab.chaos.decompose` does for one kernel.
    """
    terms = _terms_of(target)
    orders = {top_degree(elem) for _, elem in terms}
    if len(orders) != 1:
        raise ValueError(f"target mixes total orders {sorted(orders)}; the exact "
                         "report needs one chaos")
    if not all(isinstance(c, ExactComplex) and elem.is_exact() for c, elem in terms):
        raise ValueError("the exact report needs exact coefficients and kernel values")
    return _hermite_pair(terms, orders.pop())


def exact_report(target: EstimateTarget) -> MomentReport:
    """Exact values of the five quantities of the module docstring.

    The target folds into its real pair (u, v) of one chaos order q, and
    the table of E[U^a V^b] (:func:`chaoslab.tensor.pair_moments`) is read
    through :func:`moment_quantities` applied to F = U + iV as a polynomial
    in the two symbols U, V.  Requires an exact target of one total order; the
    cost is polynomial in the kernel size.
    """
    moments = pair_moments(*_real_pair(target))
    f = GaussPoly(2, {(1, 0): ONE, (0, 1): I_UNIT})
    fbar = f.conj()
    abs2, sq, abs4, fourth, t3 = (
        sum((c * moments[exps] for exps, c in poly.terms().items()), ZERO).to_complex()
        for poly in moment_quantities(f, fbar, f * fbar))
    return MomentReport(n_samples=0, seed=None, exact=True,
                        abs2=abs2.real, sq=sq, abs4=abs4.real, fourth=fourth, t3=t3)


# -- block-kernel reference trajectories ----------------------------------------------


def block_reference_trajectory(m: int, n: int, k_values: Sequence[int]
                               ) -> Dict[int, Dict[str, complex]]:
    """Per-k exact references for block kernels, from the k = 1 oracle.

    For a normalized sum of k i.i.d. centered blocks A:

        E|F_k|^2 = E|A|^2                 E F_k^2 = E A^2
        E|F_k|^4 = L + (E|A|^4 - L)/k,    L = 2 (E|A|^2)^2 + |E A^2|^2
        E F_k^4  = M + (E A^4 - M)/k,     M = 3 (E A^2)^2
        T3_k     = T3_1 / sqrt(k)
    """
    base = exact_report(gen_block_kernel(m, n, 1))
    l_abs4 = 2 * base.abs2 ** 2 + abs(base.sq) ** 2
    m_fourth = 3 * base.sq * base.sq
    out = {}
    for k in k_values:
        out[int(k)] = {
            "abs2": complex(base.abs2),
            "sq": base.sq,
            "abs4": complex(l_abs4 + (base.abs4 - l_abs4) / k),
            "fourth": m_fourth + (base.fourth - m_fourth) / k,
            "t3": base.t3 / math.sqrt(k),
        }
    return out


# -- verdict ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantityRow:
    k: int
    estimate: complex
    stderr: float
    reference: complex
    passed: bool


@dataclass(frozen=True)
class QuantityVerdict:
    quantity: str
    limit: complex
    rows: Tuple[QuantityRow, ...]
    trajectory_pass: bool
    passed: bool


@dataclass(frozen=True)
class Verdict:
    case: str
    passed: bool
    quantities: Dict[str, QuantityVerdict]
    notes: Tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "pass": self.passed,
            "notes": list(self.notes),
            "quantities": {
                name: {
                    "limit": _jsonable(q.limit),
                    "trajectory_pass": q.trajectory_pass,
                    "pass": q.passed,
                    "rows": [{
                        "k": r.k,
                        "estimate": _jsonable(r.estimate),
                        "stderr": r.stderr,
                        "reference": _jsonable(r.reference),
                        "pass": r.passed,
                    } for r in q.rows],
                } for name, q in self.quantities.items()
            },
        }


def verdict(reports: Sequence[Tuple[int, MomentReport]], spec: CriterionSpec,
            references: Optional[Dict[int, Dict[str, complex]]] = None) -> Verdict:
    """Judge a moment trajectory against a criterion case.

    Each quantity passes an index when it is within tolerance of its per-k
    reference (the limit when no reference trajectory is supplied); a
    quantity passes overall when the last index passes and the gap to the
    limit is nonincreasing within sampling noise.  The verdict is data:
    runs that complete always report, pass or fail.
    """
    if not reports:
        raise ValueError("need at least one report")
    ks = [k for k, _ in reports]
    if ks != sorted(ks):
        raise ValueError("reports must be ordered by sequence index")
    notes: List[str] = []
    effective = spec
    if spec.case == "gaussian-diag" and spec.is_degenerate():
        effective = CriterionSpec(case="gaussian-degenerate", sigma2=spec.sigma2,
                                  a=spec.a, b=spec.b, m=spec.m, n=spec.n)
        notes.append("a^2 + b^2 = 1: routed to the degenerate (line-supported) case")
    elif spec.case == "gaussian-diag":
        # detection from the estimates themselves
        last = reports[-1][1]
        if last.abs2 > 0 and abs(last.sq) / last.abs2 >= 1 - 1e-6:
            a_hat = last.sq.real / last.abs2
            b_hat = last.sq.imag / last.abs2
            effective = CriterionSpec(case="gaussian-degenerate", sigma2=spec.sigma2,
                                      a=a_hat, b=b_hat, m=spec.m, n=spec.n)
            notes.append("estimates show |E F^2| = E|F|^2: routed to the degenerate case")
    targets = case_targets(effective)
    if effective.case.startswith("chi2"):
        law = _chi2_law(effective)
        notes.append("configured chi-square law moments: "
                     + ", ".join(f"{k}={law[k]}" for k in sorted(law)))
    quantities: Dict[str, QuantityVerdict] = {}
    for name, limit in targets.items():
        rows, gaps, ses = [], [], []
        for k, rep in reports:
            ref = limit
            if references and k in references and name in references[k]:
                ref = references[k][name]
            est = complex(rep.value(name))
            se = rep.se(name)
            rows.append(QuantityRow(k=k, estimate=est, stderr=se,
                                    reference=complex(ref),
                                    passed=abs(est - complex(ref)) <= _tolerance(ref, se)))
            gaps.append(abs(est - complex(limit)))
            ses.append(se)
        trajectory = all(
            gaps[i + 1] <= gaps[i] + 5.0 * (ses[i] + ses[i + 1]) + 1e-12
            for i in range(len(gaps) - 1))
        passed = rows[-1].passed and trajectory
        quantities[name] = QuantityVerdict(quantity=name, limit=complex(limit),
                                           rows=tuple(rows),
                                           trajectory_pass=trajectory, passed=passed)
    return Verdict(case=effective.case,
                   passed=all(q.passed for q in quantities.values()),
                   quantities=quantities, notes=tuple(notes))


# -- contraction trajectories (multichaos condition) -----------------------------------


def contraction_norms_sq(t: SymTensor) -> list:
    """Exact squared norms of the contractions t (x)_r t for r = 1 .. order-1."""
    return [contract(t, t, r).norm_sq() for r in range(1, t.order)]


def contraction_trajectory(kernels_by_k: Sequence[Tuple[int, ComplexKernel]]
                           ) -> Dict[str, object]:
    """Max contraction norm of the decomposed real parts along a sequence.

    The multichaos criterion asks these to vanish along k; the harness
    reports the trajectory and whether it is nonincreasing, comparing the
    exact norms (the rows show them as floats).
    """
    rows, vals = [], []
    for k, phi in kernels_by_k:
        u, v = decompose(phi)
        vals.append(max(contraction_norms_sq(u) + contraction_norms_sq(v), default=ZERO,
                        key=cmp_to_key(lambda x, y: (x - y).real_sign())))
        rows.append({"k": k, "max_contraction_norm_sq": vals[-1].to_complex().real})
    nonincr = all((b - a).real_sign() <= 0 for a, b in zip(vals, vals[1:]))
    return {"rows": rows, "nonincreasing": nonincr,
            "pass": nonincr and (len(vals) < 2 or (vals[-1] - vals[0]).real_sign() < 0
                                 or not vals[-1])}


# -- nonnegativity gaps ------------------------------------------------------------------


def component_gaps(phi: ComplexKernel) -> Tuple[ExactComplex, ExactComplex, ExactComplex]:
    """The three exact nonnegativity gaps of the real pair (U, V) of a kernel.

    Returns (E[U^4] - 3 E[U^2]^2, E[V^4] - 3 E[V^2]^2, E[U^2 V^2] - E[U^2] E[V^2]);
    each is nonnegative for every kernel.
    """
    u, v = decompose(phi)
    eu2 = exact_moment([u, u])
    ev2 = exact_moment([v, v])
    eu4 = exact_moment([u, u, u, u])
    ev4 = exact_moment([v, v, v, v])
    eu2v2 = exact_moment([u, u, v, v])
    return (eu4 - 3 * eu2 * eu2, ev4 - 3 * ev2 * ev2, eu2v2 - eu2 * ev2)


# -- distributional side channel ----------------------------------------------------------


def normal_cdf(mean: float = 0.0, var: float = 1.0):
    """Normal CDF evaluator; rejects degenerate variance."""
    if var <= 0:
        raise ValueError("degenerate target: variance must be positive")
    sd = math.sqrt(var)

    def cdf(x):
        return ndtr((np.asarray(x, dtype=float) - mean) / sd)

    return cdf


KS_MIN_SAMPLES = 100


def ks_distance(samples: np.ndarray, cdf) -> Tuple[float, float]:
    """Two-sided Kolmogorov-Smirnov distance and an asymptotic p-value bound.

    Against a limit law at finite k, D estimates the remaining Kolmogorov
    distance of F_k from the limit, and the p-value only says how visible that
    distance is at this sample size; it is not expected to clear any threshold.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.shape[0]
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    d = max(float(np.max(f - (i - 1) / n)), float(np.max(i / n - f)))
    sn = math.sqrt(n)
    p = float(kolmogorov((sn + 0.12 + 0.11 / sn) * d))
    return d, p


def collect_component_samples(values: np.ndarray, component: str = "re") -> np.ndarray:
    """Re F or Im F of the values an :func:`estimate` kept in its ``out``,
    for distributional spot checks."""
    if component not in ("re", "im"):
        raise ValueError("component must be 're' or 'im'")
    return values.real if component == "re" else values.imag
