"""Symmetric tensors, contractions and the product-moment identity.

Tensors are stored canonically: one coefficient per sorted index tuple,
equal to the dense entry at every permutation of that tuple.  Inner
products therefore carry multinomial weights.

Each tensor holds one scalar type, chosen once when it is built: if every
input value is exact (int, Fraction or ExactComplex) the values become
ExactComplex, otherwise float (SymTensor) or complex (ComplexKernel).  Each
algorithm is written once with ``+``, ``*``, ``conjugate()`` and truthiness
and int or Fraction weights, so exact inputs give exact results that
compare with ``==``; an exact operand meets a floating one as floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .exact import ExactComplex, ZERO

IndexTuple = Tuple[int, ...]
Value = Union[int, Fraction, float, complex, ExactComplex]


def multiplicity_factor(t: IndexTuple) -> int:
    """Number of distinct arrangements of the multiset t: p! / prod(mult!)."""
    out = math.factorial(len(t))
    run = 1
    for a, b in zip(t, t[1:]):
        run = run + 1 if a == b else 1
        if run > 1:
            out //= run
    return out


# -- the scalar type of a tensor ---------------------------------------------------


def _converter(values: Iterable, exact: Callable, inexact: Callable) -> Callable:
    """The one converter for a tensor built from ``values``: ``exact`` when
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


class _OneScalarType:
    """Base of the tensor classes, whose values share one scalar type."""

    __slots__ = ()

    def is_exact(self) -> bool:
        # one value tells: the type is chosen once per tensor
        return isinstance(next(iter(self.data.values()), ZERO), ExactComplex)


def _zero(*tensors: _OneScalarType):
    """Additive identity of the operands' scalar type (a tensor without
    values counts as exact)."""
    return ZERO if all(t.is_exact() for t in tensors) else 0.0


def _one_type(f, g):
    """f and g over one scalar type: floating point if either is floating."""
    if f.is_exact() == g.is_exact():
        return f, g
    return 1.0 * f, 1.0 * g


class SymTensor(_OneScalarType):
    """Fully symmetric order-p tensor over R^dim in canonical sorted storage."""

    __slots__ = ("order", "dim", "data")

    def __init__(self, order: int, dim: int,
                 data: Mapping[IndexTuple, Value] | None = None):
        if order < 0 or dim < 1:
            raise ValueError("need order >= 0 and dim >= 1")
        self.order = int(order)
        self.dim = int(dim)
        store: Dict[IndexTuple, Value] = {}
        if data:
            to_value = _converter(data.values(), _exact_real, _float)
            for key, val in data.items():
                t = tuple(int(i) for i in key)
                if len(t) != self.order:
                    raise ValueError(f"tuple {t} has wrong length")
                if any(not 0 <= i < self.dim for i in t):
                    raise ValueError(f"index out of range in {t}")
                if tuple(sorted(t)) != t:
                    raise ValueError(f"tuple {t} is not sorted")
                v = to_value(val)
                if v:
                    store[t] = v
        self.data = store

    # -- access ---------------------------------------------------------------

    def entry(self, t: IndexTuple):
        """Dense entry at an arbitrary (unsorted) index tuple."""
        return self.data.get(tuple(sorted(t)), 0)

    def __eq__(self, other):
        if not isinstance(other, SymTensor):
            return NotImplemented
        return (self.order, self.dim, self.data) == (other.order, other.dim, other.data)

    def __hash__(self):
        return hash((self.order, self.dim, frozenset(self.data.items())))

    def __add__(self, other: "SymTensor") -> "SymTensor":
        if (other.order, other.dim) != (self.order, self.dim):
            raise ValueError("shape mismatch")
        a, b = _one_type(self, other)
        out = dict(a.data)
        for t, v in b.data.items():
            out[t] = out[t] + v if t in out else v
        return SymTensor(self.order, self.dim, out)

    def __rmul__(self, scalar):
        to_value = _converter([scalar, *self.data.values()], ExactComplex.coerce, _float)
        c = to_value(scalar)
        return SymTensor(self.order, self.dim,
                         {t: c * to_value(v) for t, v in self.data.items()})

    __mul__ = __rmul__

    def norm_sq(self):
        return inner(self, self)

    def __repr__(self):
        return f"SymTensor(order={self.order}, dim={self.dim}, nnz={len(self.data)})"


def symmetrize(raw: Mapping[IndexTuple, Value], order: int, dim: int) -> SymTensor:
    """Average a raw dense coefficient map over all slot permutations.

    Unlisted positions are zero.  Idempotent on tensors that are already
    symmetric (feeding back the canonical entries at their sorted keys).
    """
    to_value = _converter(raw.values(), ExactComplex.coerce, _float)
    acc: Dict[IndexTuple, Value] = {}
    for key, val in raw.items():
        t = tuple(int(i) for i in key)
        if len(t) != order:
            raise ValueError(f"tuple {t} has wrong length")
        if any(not 0 <= i < dim for i in t):
            raise ValueError(f"index {t} out of range for dim {dim}")
        st = tuple(sorted(t))
        v = to_value(val)
        acc[st] = acc[st] + v if st in acc else v
    # each sorted key now holds the sum over listed arrangements; the
    # symmetrized dense entry is that sum divided by the arrangement count
    return SymTensor(order, dim, {st: Fraction(1, multiplicity_factor(st)) * v
                                  for st, v in acc.items()})


def inner(f: SymTensor, g: SymTensor):
    """Full-tuple inner product: sum over all index tuples of f * g."""
    if (f.order, f.dim) != (g.order, g.dim):
        raise ValueError("shape mismatch")
    f, g = _one_type(f, g)
    small, big = (f, g) if len(f.data) <= len(g.data) else (g, f)
    total = _zero(f, g)
    for t, v in small.data.items():
        w = big.data.get(t)
        if w is not None:
            total = total + multiplicity_factor(t) * v * w
    return total


# -- contractions -----------------------------------------------------------------


class BlockTensor(_OneScalarType):
    """Tensor symmetric within two index blocks (the raw contraction shape)."""

    __slots__ = ("orders", "dim", "data")

    def __init__(self, orders: Tuple[int, int], dim: int,
                 data: Mapping[Tuple[IndexTuple, IndexTuple], Value] | None = None):
        self.orders = (int(orders[0]), int(orders[1]))
        self.dim = int(dim)
        store: Dict[Tuple[IndexTuple, IndexTuple], Value] = {}
        if data:
            for (t1, t2), val in data.items():
                t1, t2 = tuple(t1), tuple(t2)
                if len(t1) != self.orders[0] or len(t2) != self.orders[1]:
                    raise ValueError("block tuple of wrong length")
                if val:
                    store[(t1, t2)] = val
        self.data = store

    def norm_sq(self):
        total = _zero(self)
        for (t1, t2), v in self.data.items():
            total = total + multiplicity_factor(t1) * multiplicity_factor(t2) * v * v
        return total

    def scalar(self):
        """Value of an order-(0,0) block tensor."""
        if self.orders != (0, 0):
            raise ValueError("not a scalar tensor")
        return self.data.get(((), ()), 0)

    def __repr__(self):
        return f"BlockTensor(orders={self.orders}, dim={self.dim}, nnz={len(self.data)})"


def _splits(t: IndexTuple, r: int):
    """Distinct multiset splits of sorted tuple t into (kept, contracted of size r)."""
    seen = set()
    pos = range(len(t))
    for keep_pos in combinations(pos, len(t) - r):
        kept = tuple(t[i] for i in keep_pos)
        rest = tuple(t[i] for i in pos if i not in keep_pos)
        key = (kept, rest)
        if key not in seen:
            seen.add(key)
            yield kept, rest


def contract(u: SymTensor, v: SymTensor, r: int) -> BlockTensor:
    """r-th contraction u (x)_r v: sum r shared slots over the dimension.

    r = order gives the scalar inner product; r = 0 the outer product.
    The result is symmetric within its two blocks but not across them;
    use :func:`contract_sym` for the symmetrized variant.
    """
    if (u.order, u.dim) != (v.order, v.dim):
        raise ValueError("shape mismatch")
    q = u.order
    if not 0 <= r <= q:
        raise ValueError(f"contraction order {r} outside 0..{q}")
    u, v = _one_type(u, v)

    def split_map(t: SymTensor):
        out: Dict[IndexTuple, List[Tuple[IndexTuple, Value]]] = {}
        for key, val in t.data.items():
            for kept, shared in _splits(key, r):
                out.setdefault(shared, []).append((kept, val))
        return out

    left = split_map(u)
    right = split_map(v)
    data: Dict[Tuple[IndexTuple, IndexTuple], Value] = {}
    for shared, lefts in left.items():
        rights = right.get(shared)
        if rights is None:
            continue
        # number of ordered r-sequences realizing the shared multiset
        w = multiplicity_factor(shared)
        for kept_l, val_l in lefts:
            for kept_r, val_r in rights:
                key = (kept_l, kept_r)
                inc = w * val_l * val_r
                data[key] = data[key] + inc if key in data else inc
    return BlockTensor((q - r, q - r), u.dim, data)


def _symmetrize_block(block: BlockTensor) -> SymTensor:
    """Symmetrization of a block tensor over all of its slots."""
    # the dense entries of the block over all arrangements of a key (t1, t2)
    # sum to the block entry times the per-block arrangement counts
    raw = {t1 + t2: multiplicity_factor(t1) * multiplicity_factor(t2) * val
           for (t1, t2), val in block.data.items()}
    return symmetrize(raw, sum(block.orders), block.dim)


def contract_sym(u: SymTensor, v: SymTensor, r: int) -> SymTensor:
    """Symmetrization of the r-th contraction over all 2(q - r) slots."""
    return _symmetrize_block(contract(u, v, r))


def product_moment(u: SymTensor, v: SymTensor):
    """E[U^2 V^2] for U, V the order-q integrals of u, v.

    Closed form: 2 (E[UV])^2 + E[U^2] E[V^2]
    + sum_{r=1}^{q-1} C(q,r)^2 [ (q!)^2 |u (x)_r v|^2
                                 + (r!)^2 C(q,r)^2 (2q-2r)! |u (x~)_r v|^2 ]
    with E[UV] = q! <u, v>.
    """
    if (u.order, u.dim) != (v.order, v.dim):
        raise ValueError("shape mismatch")
    q = u.order
    if q < 1:
        raise ValueError("order must be >= 1")
    qf = math.factorial(q)
    euv = qf * inner(u, v)
    eu2 = qf * inner(u, u)
    ev2 = qf * inner(v, v)
    total = 2 * euv * euv + eu2 * ev2
    for r in range(1, q):
        block = contract(u, v, r)
        raw = block.norm_sq()
        sym = _symmetrize_block(block).norm_sq()
        c = math.comb(q, r)
        rf = math.factorial(r)
        w1 = c * c * qf * qf
        w2 = c ** 4 * rf * rf * math.factorial(2 * q - 2 * r)
        total = total + w1 * raw + w2 * sym
    return total


# -- complex kernels ---------------------------------------------------------------


class ComplexKernel(_OneScalarType):
    """Element of the (m, n) bidegree kernel space over C^dim.

    Coefficients are indexed by a pair (sorted m-tuple, sorted n-tuple) in
    the basis e_{i1} x ... x conj(e_{j1}) x ...; the kernel is symmetric
    separately within each block.  Kernels are not mutated after
    construction; ``_term_plan`` holds ``chaos.eval_complex``'s float term
    plan, built on first use.
    """

    __slots__ = ("m", "n", "dim", "data", "_term_plan")

    def __init__(self, m: int, n: int, dim: int,
                 data: Mapping[Tuple[IndexTuple, IndexTuple], Value] | None = None):
        if m < 0 or n < 0 or dim < 1:
            raise ValueError("need m, n >= 0 and dim >= 1")
        self.m, self.n, self.dim = int(m), int(n), int(dim)
        store: Dict[Tuple[IndexTuple, IndexTuple], Value] = {}
        if data:
            to_value = _converter(data.values(), ExactComplex.coerce, _complex)
            for (ta, tb), val in data.items():
                ta, tb = tuple(int(i) for i in ta), tuple(int(i) for i in tb)
                if len(ta) != self.m or len(tb) != self.n:
                    raise ValueError("kernel tuple of wrong length")
                if tuple(sorted(ta)) != ta or tuple(sorted(tb)) != tb:
                    raise ValueError("kernel tuples must be sorted")
                if any(not 0 <= i < self.dim for i in ta + tb):
                    raise ValueError("index out of range")
                v = to_value(val)
                if v:
                    store[(ta, tb)] = v
        self.data = store
        self._term_plan = None

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
    """Hermitian inner product <f, g>, conjugate-linear in g."""
    if (f.m, f.n, f.dim) != (g.m, g.n, g.dim):
        raise ValueError("shape mismatch")
    f, g = _one_type(f, g)
    total = _zero(f, g)
    for key, v in f.data.items():
        w = g.data.get(key)
        if w is not None:
            mult = multiplicity_factor(key[0]) * multiplicity_factor(key[1])
            total = total + mult * v * w.conjugate()
    return total


# -- serialization -----------------------------------------------------------------


def _value_str(v) -> str:
    if isinstance(v, ExactComplex):
        return str(v.as_fraction()) if v.is_rational() else repr(_float(v))
    return repr(v)


def _parse_value(s: str):
    if "/" in s:
        return Fraction(s)
    try:
        return int(s)
    except ValueError:
        x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"value {s!r} is not finite")
    return x


def dump_sym_tensor(t: SymTensor) -> str:
    lines = [f"{t.order} {t.dim}"]
    for key in sorted(t.data):
        lines.append(" ".join(str(i) for i in key) + " " + _value_str(t.data[key]))
    return "\n".join(lines) + "\n"


def load_sym_tensor(text: str) -> SymTensor:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty tensor text")
    order, dim = (int(x) for x in lines[0].split())
    data = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != order + 1:
            raise ValueError(f"bad tensor line: {ln!r}")
        key = tuple(int(x) for x in parts[:order])
        data[key] = _parse_value(parts[order])
    return SymTensor(order, dim, data)


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
        re, im = _parse_value(parts[-2]), _parse_value(parts[-1])
        if isinstance(re, float) or isinstance(im, float):
            data[(ta, tb)] = complex(re, im)
        else:
            data[(ta, tb)] = ExactComplex(Fraction(re), Fraction(im))
    return ComplexKernel(m, n, dim, data)
