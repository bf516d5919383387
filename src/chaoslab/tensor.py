"""Symmetric tensors, contractions and the product-moment table.

Tensors are stored canonically: one coefficient per sorted index tuple,
equal to the dense entry at every permutation of that tuple.  Inner
products therefore carry multinomial weights.  With contractions they give
:func:`pair_moments`, the moment table that ``exact_report`` reads.

Real tensors (SymTensor, BlockTensor) are exact: their values are real
ExactComplex, and a float value or scalar is refused with the TypeError of
``ExactComplex.coerce``.  A ComplexKernel holds one scalar type, chosen
once when it is built: ExactComplex if every input value is exact (int,
Fraction or ExactComplex), otherwise complex, which the Monte Carlo path
evaluates.

The algebra (contractions, symmetrization, inner products) runs on the
numerator form of a tensor's entries (``exact`` module docstring): a real
tensor keeps its (p, q) half, an exact complex kernel is read as the full
(p, q, r, s) form.  A product of two real entries is four int multiplies,
and the denominator multiplies once per operation, not once per entry.
An ExactComplex is formed only for a returned scalar, with one
``exact._make``, and for a returned tensor's ``data``, filled from its
form when first read; results compare with ``==``.

The text format (:func:`dump_kernel`, :func:`load_kernel`) covers complex
kernels only: a header ``m n dim`` and one line per stored entry, its
indices then its real and imaginary parts, each a float or, exact, one
token ``a``, ``b*r2`` or ``a+b*r2`` (a, b rational, r2 = sqrt 2).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .exact import ExactComplex, I_UNIT, ZERO, _make, _numerators

IndexTuple = Tuple[int, ...]
ExactValue = Union[int, Fraction, ExactComplex]
Value = Union[ExactValue, float, complex]


@lru_cache(maxsize=1 << 16)
def multiplicity_factor(t: IndexTuple) -> int:
    """Number of distinct arrangements of the multiset t: p! / prod(mult!)."""
    out = math.factorial(len(t))
    run = 1
    for a, b in zip(t, t[1:]):
        run = run + 1 if a == b else 1
        if run > 1:
            out //= run
    return out


# -- scalar conversions -------------------------------------------------------------


def _converter(values: Iterable, exact: Callable, inexact: Callable) -> Callable:
    """The one converter for a kernel built from ``values``: ``exact`` when
    every value is exact, ``inexact`` otherwise."""
    if all(isinstance(v, (int, Fraction, ExactComplex)) for v in values):
        return exact
    return inexact


def _exact_real(v) -> ExactComplex:
    v = ExactComplex.coerce(v)
    if not v.is_real():
        raise ValueError("SymTensor values must be real")
    return v


def _float(v) -> float:
    return _exact_real(v).to_complex().real if isinstance(v, ExactComplex) else float(v)


def _complex(v) -> complex:
    return v.to_complex() if isinstance(v, ExactComplex) else complex(v)


# -- numerator forms ---------------------------------------------------------------


def _sum_products(a: Mapping, b: Mapping, weight: Callable):
    """(P, Q), the numerator over the product of the two denominators of the
    sum of weight(key) * a[key] * b[key] over the keys two numerator maps
    share.  It walks the smaller map."""
    if len(a) > len(b):
        a, b = b, a
    big_p = big_q = 0
    for key, (p1, q1) in a.items():
        y = b.get(key)
        if y is not None:
            p2, q2 = y
            w = weight(key)
            p1, q1 = w * p1, w * q1
            big_p += p1 * p2 + 2 * q1 * q2
            big_q += p1 * q2 + q1 * p2
    return big_p, big_q


class _RealTensor:
    """Base of SymTensor and BlockTensor, whose values are exact and real.

    The tensor algebra reads the (p, q) half of a tensor's numerator form,
    built from ``data`` on first use and kept in ``_num``.  A tensor the
    algebra returns holds only its form, and ``data`` is filled from it
    when first read.  Tensors are not mutated after construction."""

    __slots__ = ("_data", "_num")

    def is_exact(self) -> bool:
        """True: real tensors hold exact values only (module docstring)."""
        return True

    @property
    def data(self) -> Dict:
        if self._data is None:
            den, items = self._num
            self._data = {k: _make(p, q, 0, 0, den) for k, (p, q) in items.items()}
        return self._data

    def _form(self):
        if self._num is None:
            den, items = _numerators(self._data.items())
            self._num = den, {k: v[:2] for k, v in items.items()}
        return self._num


def _of_form(t: _RealTensor, den: int, items: Dict) -> _RealTensor:
    """The empty tensor t made to hold the numerator form (den, items),
    whose values are nonzero."""
    t._data, t._num = None, (den, items)
    return t


class SymTensor(_RealTensor):
    """Fully symmetric order-p tensor over R^dim in canonical sorted storage."""

    __slots__ = ("order", "dim")

    def __init__(self, order: int, dim: int,
                 data: Mapping[IndexTuple, ExactValue] | None = None):
        if order < 0 or dim < 1:
            raise ValueError("need order >= 0 and dim >= 1")
        self.order = int(order)
        self.dim = int(dim)
        self._data, self._num = {}, None
        for key, val in (data or {}).items():
            key, v = self._key(key), _exact_real(val)
            if v:
                self._data[key] = v

    def _key(self, key) -> IndexTuple:
        t = tuple(key)
        if len(t) != self.order:
            raise ValueError(f"tuple {t} has wrong length")
        if any(not isinstance(i, int) or not 0 <= i < self.dim for i in t):
            raise ValueError(f"index in {t} is not an int in 0..{self.dim - 1}")
        if tuple(sorted(t)) != t:
            raise ValueError(f"tuple {t} is not sorted")
        return t

    # -- access ---------------------------------------------------------------

    def entry(self, t: IndexTuple) -> ExactComplex:
        """Dense entry at an arbitrary (unsorted) index tuple."""
        return self.data.get(tuple(sorted(t)), ZERO)

    def __eq__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        return (self.order, self.dim, self.data) == (other.order, other.dim, other.data)

    def __hash__(self):
        return hash((self.order, self.dim, frozenset(self.data.items())))

    def __add__(self, other: "SymTensor") -> "SymTensor":
        if (other.order, other.dim) != (self.order, self.dim):
            raise ValueError("shape mismatch")
        out = dict(self.data)
        for t, v in other.data.items():
            out[t] = out[t] + v if t in out else v
        return SymTensor(self.order, self.dim, out)

    def __rmul__(self, scalar):
        c = ExactComplex.coerce(scalar)
        return SymTensor(self.order, self.dim, {t: c * v for t, v in self.data.items()})

    __mul__ = __rmul__

    def norm_sq(self) -> ExactComplex:
        return inner(self, self)

    def __repr__(self):
        return f"SymTensor(order={self.order}, dim={self.dim}, nnz={len(self.data)})"


def _symmetrized(out: SymTensor, den: int, items: Iterable) -> SymTensor:
    """out made to hold the symmetrization of dense entries given as (index
    tuple, numerator over den) pairs: each sorted key sums the entries
    listed at its arrangements and divides by their count."""
    acc: Dict[IndexTuple, Tuple] = {}
    for t, (p, q) in items:
        st = tuple(sorted(t))
        pq = acc.get(st)
        acc[st] = (pq[0] + p, pq[1] + q) if pq else (p, q)
    counts = [multiplicity_factor(st) for st in acc]
    scale = math.lcm(*counts)
    out_items = {}
    for (st, (p, q)), c in zip(acc.items(), counts):
        f = scale // c
        p, q = p * f, q * f
        if p or q:
            out_items[st] = (p, q)
    return _of_form(out, den * scale, out_items)


def symmetrize(raw: Mapping[IndexTuple, ExactValue], order: int, dim: int) -> SymTensor:
    """Average a raw dense coefficient map over all slot permutations.

    Unlisted positions are zero.  Idempotent on tensors that are already
    symmetric (feeding back the canonical entries at their sorted keys).
    """
    values = []
    for key, val in raw.items():
        t = tuple(key)
        if len(t) != order:
            raise ValueError(f"tuple {t} has wrong length")
        if any(not isinstance(i, int) or not 0 <= i < dim for i in t):
            raise ValueError(f"index in {t} is not an int in 0..{dim - 1}")
        values.append((t, _exact_real(val)))
    den, items = _numerators(values)
    return _symmetrized(SymTensor(order, dim), den, ((t, v[:2]) for t, v in items.items()))


def _weighted_inner(f: _RealTensor, g: _RealTensor, weight: Callable) -> ExactComplex:
    """The sum of weight(key) * f[key] * g[key] over the keys f and g share."""
    (df, a), (dg, b) = f._form(), g._form()
    return _make(*_sum_products(a, b, weight), 0, 0, df * dg)


def _block_weight(key: Tuple[IndexTuple, IndexTuple]) -> int:
    return multiplicity_factor(key[0]) * multiplicity_factor(key[1])


def inner(f: SymTensor, g: SymTensor) -> ExactComplex:
    """Full-tuple inner product: sum over all index tuples of f * g."""
    if (f.order, f.dim) != (g.order, g.dim):
        raise ValueError("shape mismatch")
    return _weighted_inner(f, g, multiplicity_factor)


# -- contractions -----------------------------------------------------------------


class BlockTensor(_RealTensor):
    """Tensor symmetric within two index blocks (the raw contraction shape).
    Built empty; :func:`contract` is what fills one."""

    __slots__ = ("orders", "dim")

    def __init__(self, orders: Tuple[int, int], dim: int):
        self.orders = (int(orders[0]), int(orders[1]))
        self.dim = int(dim)
        self._data, self._num = {}, None

    def inner(self, other: "BlockTensor") -> ExactComplex:
        """Full-tuple inner product: sum over all index tuples of self * other."""
        if (self.orders, self.dim) != (other.orders, other.dim):
            raise ValueError("shape mismatch")
        return _weighted_inner(self, other, _block_weight)

    def norm_sq(self) -> ExactComplex:
        return self.inner(self)

    def scalar(self) -> ExactComplex:
        """Value of an order-(0,0) block tensor."""
        if self.orders != (0, 0):
            raise ValueError("not a scalar tensor")
        return self.data.get(((), ()), ZERO)

    def __repr__(self):
        return f"BlockTensor(orders={self.orders}, dim={self.dim}, nnz={len(self.data)})"


def _splits(t: IndexTuple, r: int):
    """The distinct splits of sorted tuple t into (kept, contracted of size r):
    k of the c copies of t's first index are contracted, for each k the rest
    of t can complete, and the rest splits the same way.  Kept tuples come
    in increasing order, the first-occurrence order of a walk over position
    subsets, which fixes the order of a contraction's entries.  The
    recursion is as deep as t has distinct indices and costs one step per
    split, not C(len(t), r)."""
    if not t:
        yield (), ()
        return
    c = t.count(t[0])
    head, rest = t[:1], t[c:]
    for k in range(max(0, r - len(rest)), min(c, r) + 1):
        for kept, shared in _splits(rest, r - k):
            yield head * (c - k) + kept, head * k + shared


def contract(u: SymTensor, v: SymTensor, r: int) -> BlockTensor:
    """r-th contraction u (x)_r v: sum r shared slots over the dimension.

    r = order gives the scalar inner product; r = 0 the outer product.
    The result is symmetric within its two blocks but not across them;
    ``_symmetrize_block`` symmetrizes it over all of its slots.
    """
    if (u.order, u.dim) != (v.order, v.dim):
        raise ValueError("shape mismatch")
    order = u.order
    if not 0 <= r <= order:
        raise ValueError(f"contraction order {r} outside 0..{order}")
    (du, a), (dv, b) = u._form(), v._form()

    def split_map(items: Mapping):
        out: Dict[IndexTuple, List[Tuple[IndexTuple, Tuple]]] = {}
        for key, pq in items.items():
            for kept, shared in _splits(key, r):
                out.setdefault(shared, []).append((kept, pq))
        return out

    left = split_map(a)
    right = left if b is a else split_map(b)
    acc: Dict[Tuple[IndexTuple, IndexTuple], List] = {}  # (kept_l, kept_r) -> [p, q]
    for shared, lefts in left.items():
        rights = right.get(shared)
        if rights is None:
            continue
        # number of ordered r-sequences realizing the shared multiset
        w = multiplicity_factor(shared)
        for kept_l, (p1, q1) in lefts:
            p1, q1 = w * p1, w * q1
            q1x2 = 2 * q1
            for kept_r, (p2, q2) in rights:
                key = (kept_l, kept_r)
                pq = acc.get(key)
                if pq is None:
                    acc[key] = [p1 * p2 + q1x2 * q2, p1 * q2 + q1 * p2]
                else:
                    pq[0] += p1 * p2 + q1x2 * q2
                    pq[1] += p1 * q2 + q1 * p2
    out = {key: (p, q) for key, (p, q) in acc.items() if p or q}
    return _of_form(BlockTensor((order - r, order - r), u.dim), du * dv, out)


def _symmetrize_block(block: BlockTensor) -> SymTensor:
    """Symmetrization of a block tensor over all of its slots."""
    den, items = block._form()
    # the dense entries of the block over all arrangements of a key (t1, t2)
    # sum to the block entry times the per-block arrangement counts
    raw = []
    for (t1, t2), (p, q) in items.items():
        w = multiplicity_factor(t1) * multiplicity_factor(t2)
        raw.append((t1 + t2, (w * p, w * q)))
    return _symmetrized(SymTensor(sum(block.orders), block.dim), den, raw)


def pair_moments(u: SymTensor, v: SymTensor) -> Dict[Tuple[int, int], ExactComplex]:
    """E[U^a V^b] for 2 <= a + b <= 4, U and V the order-q integrals of u, v.

    The product formula (Nourdin-Peccati 2012, ch. 5) over one contraction
    of each block uu, uv, vv = x (x)_r y per r.  With a = E U^2, b = E V^2,
    c = E UV (E[I_q(x) I_q(y)] = q! <x, y>), a fourth moment over blocks
    (B_i, B_j), with symmetrizations (S_i, S_j), is a pairing constant plus
    sum_{r=1}^{q-1} C(q,r)^2 [(q!)^2 <B_i, B_j> + C(q,r)^2 (r!)^2 (2q-2r)! <S_i, S_j>]:

        U^4 (uu, uu) 3a^2    U^3 V (uu, uv) 3ac    U^2 V^2 (uv, uv) ab + 2c^2
        U V^3 (uv, vv) 3bc   V^4 (vv, vv) 3b^2

    A third moment is (q!/(q/2)!)^3 <x (x~)_{q/2} y, z>, zero for odd q.
    """
    if (u.order, u.dim) != (v.order, v.dim):
        raise ValueError("shape mismatch")
    q = u.order
    if q < 1:
        raise ValueError("order must be >= 1")
    qf = math.factorial(q)
    a, b, c = qf * inner(u, u), qf * inner(v, v), qf * inner(u, v)
    moments = {(2, 0): a, (1, 1): c, (0, 2): b,
               **dict.fromkeys(((3, 0), (2, 1), (1, 2), (0, 3)), ZERO),
               (4, 0): 3 * a * a, (3, 1): 3 * a * c, (2, 2): a * b + 2 * c * c,
               (1, 3): 3 * b * c, (0, 4): 3 * b * b}
    for r in range(1, q):
        blocks = [contract(x, y, r) for x, y in ((u, u), (u, v), (v, v))]
        syms = [_symmetrize_block(block) for block in blocks]
        cr = math.comb(q, r)
        w_raw = cr * cr * qf * qf
        w_sym = cr ** 4 * math.factorial(r) ** 2 * math.factorial(2 * q - 2 * r)
        # each fourth moment's pair of blocks among uu, uv, vv (docstring table)
        for key, i, j in (((4, 0), 0, 0), ((3, 1), 0, 1), ((2, 2), 1, 1), ((1, 3), 1, 2),
                          ((0, 4), 2, 2)):
            moments[key] = (moments[key] + w_raw * blocks[i].inner(blocks[j])
                            + w_sym * inner(syms[i], syms[j]))
        if 2 * r == q:
            c3 = (qf // math.factorial(r)) ** 3
            uu, uv, vv = syms
            moments.update({(3, 0): c3 * inner(uu, u), (2, 1): c3 * inner(uu, v),
                            (1, 2): c3 * inner(uv, v), (0, 3): c3 * inner(vv, v)})
    return moments


def product_moment(u: SymTensor, v: SymTensor) -> ExactComplex:
    """E[U^2 V^2] for U, V the order-q integrals of u, v (:func:`pair_moments`)."""
    return pair_moments(u, v)[(2, 2)]


# -- complex kernels ---------------------------------------------------------------


class ComplexKernel:
    """Element of the (m, n) bidegree kernel space over C^dim.

    Coefficients are indexed by a pair (sorted m-tuple, sorted n-tuple) in
    the basis e_{i1} x ... x conj(e_{j1}) x ...; the kernel is symmetric
    separately within each block.  Its values share one scalar type
    (module docstring): ``_exact`` is set once, when the kernel is built,
    true when every stored value is exact, so also when none is stored.
    Kernels are not mutated after construction; ``_term_plan`` holds
    ``chaos.eval_complex``'s evaluation plan, built on first use on the
    route its cost rule picks (the term loop or the Wick-trace matrices).
    """

    __slots__ = ("m", "n", "dim", "data", "_exact", "_term_plan")

    def __init__(self, m: int, n: int, dim: int,
                 data: Mapping[Tuple[IndexTuple, IndexTuple], Value] | None = None):
        if m < 0 or n < 0 or dim < 1:
            raise ValueError("need m, n >= 0 and dim >= 1")
        self.m, self.n, self.dim = int(m), int(n), int(dim)
        data = data or {}
        to_value = _converter(data.values(), ExactComplex.coerce, _complex)
        self.data = {}
        for key, val in data.items():
            key, v = self._key(key), to_value(val)
            if v:
                self.data[key] = v
        self._exact = to_value is not _complex or not self.data
        self._term_plan = None

    def _key(self, key) -> Tuple[IndexTuple, IndexTuple]:
        ta, tb = (tuple(t) for t in key)
        if len(ta) != self.m or len(tb) != self.n:
            raise ValueError("kernel tuple of wrong length")
        if any(not isinstance(i, int) or not 0 <= i < self.dim for i in ta + tb):
            raise ValueError(f"kernel index is not an int in 0..{self.dim - 1}")
        if tuple(sorted(ta)) != ta or tuple(sorted(tb)) != tb:
            raise ValueError("kernel tuples must be sorted")
        return ta, tb

    def is_exact(self) -> bool:
        return self._exact

    @classmethod
    def rank_one(cls, h: Sequence[Value], m: int, n: int) -> "ComplexKernel":
        """h^(x m) (x) conj(h)^(x n) for a coefficient vector h."""
        dim = len(h)
        to_value = _converter(h, ExactComplex.coerce, _complex)
        vals = [to_value(x) for x in h]
        conj = [v.conjugate() for v in vals]
        data = {}
        for ta in combinations_with_replacement(range(dim), m):
            pa = to_value(1)
            for i in ta:
                pa = pa * vals[i]
            for tb in combinations_with_replacement(range(dim), n):
                pb = pa
                for j in tb:
                    pb = pb * conj[j]
                data[(ta, tb)] = pb
        return cls(m, n, dim, data)

    def norm_sq(self):
        """Squared norm in the full (m+n)-fold tensor power, multinomial weights."""
        total = kernel_inner(self, self)
        return total if self.is_exact() else total.real

    def __rmul__(self, scalar):
        to_value = _converter([scalar, *self.data.values()], ExactComplex.coerce, _complex)
        c = to_value(scalar)
        return ComplexKernel(self.m, self.n, self.dim,
                             {k: c * to_value(v) for k, v in self.data.items()})

    __mul__ = __rmul__

    def __repr__(self):
        return (f"ComplexKernel(m={self.m}, n={self.n}, dim={self.dim}, "
                f"nnz={len(self.data)})")


def kernel_inner(f: ComplexKernel, g: ComplexKernel):
    """Hermitian inner product <f, g>, conjugate-linear in g.

    Exact, it is one sum of weight * f[key] * conj(g[key]) over the keys of
    f's (p, q, r, s) numerator form that g's form shares.  When either
    kernel is floating it is one complex sum over the keys of the smaller
    kernel, each term (weight * f[key]) * conj(g[key]), an exact entry
    taken as its complex value.
    """
    if (f.m, f.n, f.dim) != (g.m, g.n, g.dim):
        raise ValueError("shape mismatch")
    if not (f.is_exact() and g.is_exact()):
        a, b = f.data, g.data
        total = 0.0
        for key in (a if len(a) <= len(b) else b):
            if key in a and key in b:
                total += _block_weight(key) * _complex(a[key]) * _complex(b[key]).conjugate()
        return total
    df, a = _numerators(f.data.items())
    dg, b = (df, a) if g is f else _numerators(g.data.items())
    big_p = big_q = big_r = big_s = 0
    for key, (p1, q1, r1, s1) in a.items():
        y = b.get(key)
        if y is not None:
            # (x1 + i y1)(x2 - i y2) with x, y in Z[sqrt2] as (int, sqrt2) pairs
            p2, q2, r2, s2 = y
            w = _block_weight(key)
            big_p += w * (p1 * p2 + r1 * r2 + 2 * (q1 * q2 + s1 * s2))
            big_q += w * (p1 * q2 + q1 * p2 + r1 * s2 + s1 * r2)
            big_r += w * (r1 * p2 - p1 * r2 + 2 * (s1 * q2 - q1 * s2))
            big_s += w * (r1 * q2 + s1 * p2 - p1 * s2 - q1 * r2)
    return _make(big_p, big_q, big_r, big_s, df * dg)


# -- serialization -----------------------------------------------------------------


def _value_str(v) -> str:
    if not isinstance(v, ExactComplex):
        return repr(v)
    a, b = v.a, v.b  # v is a real part, a + b*sqrt(2)
    if not b:
        return str(a)
    return (f"{a}{'+' if b > 0 else ''}" if a else "") + f"{b}*r2"


_SQRT2_TOKEN = re.compile(r"(?:([+-]?\d+(?:/\d+)?)(?=[+-]))?([+-]?\d+(?:/\d+)?)\*r2")


def _parse_value(s: str):
    token = _SQRT2_TOKEN.fullmatch(s)  # a+b*r2 or b*r2
    if token:
        return ExactComplex(Fraction(token[1] or 0), 0, Fraction(token[2]), 0)
    if "/" in s:
        return Fraction(s)
    try:
        return int(s)
    except ValueError:
        x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"value {s!r} is not finite")
    return x


def dump_kernel(k: ComplexKernel) -> str:
    lines = [f"{k.m} {k.n} {k.dim}"]
    for (ta, tb) in sorted(k.data):
        v = k.data[(ta, tb)]
        parts = (v.real(), v.imag()) if isinstance(v, ExactComplex) else (v.real, v.imag)
        re_s, im_s = (_value_str(x) for x in parts)
        idx = " ".join(str(i) for i in ta + tb)
        lines.append((idx + " " if idx else "") + f"{re_s} {im_s}")
    return "\n".join(lines) + "\n"


def load_kernel(text: str) -> ComplexKernel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty kernel text")
    m, n, dim = (int(x) for x in lines[0].split())
    data = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != m + n + 2:
            raise ValueError(f"bad kernel line: {ln!r}")
        ta = tuple(int(x) for x in parts[:m])
        tb = tuple(int(x) for x in parts[m:m + n])
        if (ta, tb) in data:
            raise ValueError(f"kernel entry {' '.join(parts[:m + n])} is given twice")
        real, imag = _parse_value(parts[-2]), _parse_value(parts[-1])
        if isinstance(real, float) or isinstance(imag, float):
            data[(ta, tb)] = complex(_float(real), _float(imag))
        else:
            data[(ta, tb)] = ExactComplex.coerce(real) + I_UNIT * imag
    return ComplexKernel(m, n, dim, data)
