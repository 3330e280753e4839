"""Exact arithmetic in the finite Grassmann algebra Lambda = C[beta_1..beta_n].

Elements are stored sparsely as a map ``mask -> complex`` where ``mask`` is a
bitmask over the n odd generators and the monomial is the ascending product of
the selected generators.  All structural operations (products, inverses of
elements with invertible body, exponentials of nilpotents) are exact in the
monomial structure; only the complex coefficients are floating point.

Products of two elements stay sparse: ``GrassmannScalar.__mul__`` pairs the
nonzero terms at every n under one merge sign (``sign_of_merge``): ascending
monomials a and b multiply to -(a | b) when a & P(b) has an odd number of
bits, P(b) setting bit i when b has an odd number of bits at or below i: at
a bit of a, which b does not hold, that counts the pairs i in a, j in b, j < i.

Matrices over Lambda are held as complex arrays of shape (2^n, rows, cols),
slot [m, i, j] holding the coefficient of monomial m in entry (i, j), with
optional batch axes between the monomial axis and the matrix axes.
``SuperMatrix``, the window operators, frames and flow symbols of ``sgr`` and
the period blocks of ``jacobian`` store nothing else, and every product of
two Lambda-matrices is ``array_mul``: it multiplies two such arrays through a
table of the 3^n disjoint mask pairs, whose merge signs it builds bit by bit
on its own, by one of two contractions, a batched ``matmul`` over the pairs
for the large matrices of ``sgr``, and vector multiply-adds with the pairs
innermost for the 1 x 1 to 4 x 4 blocks of the Berezinians, where one BLAS
call per pair costs more than its arithmetic.  ``parity_violations`` checks
the parity rule of a whole array at once.  Grids, lists of rows of elements,
appear only at the edge: in the public constructors, which convert them once
with ``grid_array``, in the ``entries`` (and ``Z_e``/``Z_o``) reads, which
``array_grid`` builds from the array, and in the JSON forms.  ``theta``
converts its grid of period souls once and multiplies no Lambda-matrices;
``elliptic`` builds its Baker matrix as a ``SuperMatrix``.

The number of generators is configuration (the underlying theory never fixes
it) and is capped at 12, the largest n at which a matrix product was measured:
a (3|3) product of full even matrices at n = 12 takes about 0.7 s, and its
pair table holds 531441 pairs (17 MB).  At n = 16 the table alone would hold
43 M.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Sequence, Union

import numpy as np

from .errors import DimensionError, NotInvertibleError, ParityError

MAX_GENERATORS = 12

Scalar = Union[int, float, complex]


def _prefix_parity(mask: int) -> int:
    """P(mask): bit i set when an odd number of mask's bits lie at or below i (exact for
    n <= 16).  At a bit i that mask does not hold, that counts the bits below i."""
    p = mask ^ (mask << 1)
    p ^= p << 2
    p ^= p << 4
    return p ^ (p << 8)


def sign_of_merge(mask_a: int, mask_b: int) -> int:
    """(-1)^inversions when interleaving two disjoint ascending monomials: an
    inversion pairs i in a with j < i in b, so their count has the parity of a & P(b)."""
    return -1 if (mask_a & _prefix_parity(mask_b)).bit_count() & 1 else 1


class GrassmannScalar:
    """An element of Lambda with exact sparse monomial arithmetic."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, complex] | None = None):
        if not 0 <= n <= MAX_GENERATORS:
            raise DimensionError(f"generator count {n} outside [0, {MAX_GENERATORS}]")
        self.n = n
        clean: Dict[int, complex] = {}
        if terms:
            limit = 1 << n
            for mask, c in terms.items():
                if not 0 <= mask < limit:
                    raise DimensionError(f"mask {mask:#x} references generators >= {n}")
                c = complex(c)
                if c != 0:
                    clean[mask] = c
        self.terms = clean

    @classmethod
    def _of(cls, n: int, terms: Dict[int, complex]) -> "GrassmannScalar":
        """An internal result: masks below 2^n, complex values, none zero; not checked."""
        x = cls.__new__(cls)
        x.n, x.terms = n, terms
        return x

    # -- constructors -------------------------------------------------------
    @classmethod
    def scalar(cls, n: int, value: Scalar) -> "GrassmannScalar":
        return cls(n, {0: complex(value)})

    @classmethod
    def generator(cls, n: int, i: int) -> "GrassmannScalar":
        if not 0 <= i < n:
            raise DimensionError(f"generator index {i} out of range for n={n}")
        return cls(n, {1 << i: 1.0 + 0j})

    @classmethod
    def monomial(cls, n: int, indices: Iterable[int], coeff: Scalar = 1.0) -> "GrassmannScalar":
        mask = 0
        for i in indices:
            bit = 1 << i
            if mask & bit:
                return cls(n)  # repeated generator annihilates
            mask |= bit
        return cls(n, {mask: complex(coeff)})

    @classmethod
    def zero(cls, n: int) -> "GrassmannScalar":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "GrassmannScalar":
        return cls(n, {0: 1.0 + 0j})

    # -- structure ----------------------------------------------------------
    def is_zero(self, tol: float = 0.0) -> bool:
        if tol == 0.0:
            return not self.terms
        return all(abs(c) <= tol for c in self.terms.values())

    @property
    def body(self) -> complex:
        return self.terms.get(0, 0j)

    def soul(self) -> "GrassmannScalar":
        return GrassmannScalar._of(self.n, {m: c for m, c in self.terms.items() if m})

    def reduce(self) -> complex:
        """Quotient out the nilpotents: the coefficient of the empty monomial."""
        return self.terms.get(0, 0j)

    def parity(self) -> int | None:
        """0 (even), 1 (odd) for homogeneous elements, None for mixed, 0 for zero."""
        par = None
        for mask in self.terms:
            p = mask.bit_count() & 1
            if par is None:
                par = p
            elif par != p:
                return None
        return 0 if par is None else par

    def is_even(self) -> bool:
        return self.parity() == 0

    def is_odd(self) -> bool:
        p = self.parity()
        return p == 1 or (p == 0 and not self.terms)

    def norm_inf(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def coeffs(self) -> np.ndarray:
        """The 2^n coefficients as a complex array indexed by monomial mask."""
        out = np.zeros(1 << self.n, dtype=complex)
        out[list(self.terms)] = list(self.terms.values())
        return out

    # -- ring operations ----------------------------------------------------
    def _check_same_algebra(self, other: "GrassmannScalar") -> None:
        if self.n != other.n:
            raise DimensionError(f"mixed generator counts {self.n} and {other.n}")

    def embed(self, n: int) -> "GrassmannScalar":
        """The canonical embedding into the algebra with n >= self.n generators."""
        if n < self.n:
            raise DimensionError("cannot embed into a smaller algebra")
        return self if n == self.n else GrassmannScalar._of(n, dict(self.terms))

    def __add__(self, other):
        if isinstance(other, GrassmannScalar):
            self._check_same_algebra(other)
            out = dict(self.terms)
            for m, c in other.terms.items():
                s = out.get(m, 0j) + c
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
            return GrassmannScalar._of(self.n, out)
        if isinstance(other, (int, float, complex)):
            return self + GrassmannScalar.scalar(self.n, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GrassmannScalar._of(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = GrassmannScalar.scalar(self.n, other)
        if isinstance(other, GrassmannScalar):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GrassmannScalar):
            self._check_same_algebra(other)
            right = [(sb, _prefix_parity(sb), cb) for sb, cb in other.terms.items()]
            out: Dict[int, complex] = {}
            for sa, ca in self.terms.items():
                for sb, pb, cb in right:
                    if sa & sb:
                        continue
                    k = sa | sb
                    v = ca * cb
                    if (sa & pb).bit_count() & 1:
                        v = -v
                    v += out.get(k, 0j)
                    if v == 0:
                        out.pop(k, None)
                    else:
                        out[k] = v
            return GrassmannScalar._of(self.n, out)
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            if c == 0:
                return GrassmannScalar(self.n)
            # a coefficient whose product underflows to 0 is dropped
            return GrassmannScalar._of(self.n, {m: w for m, v in self.terms.items() if (w := v * c)})
        return NotImplemented

    def __rmul__(self, other):
        # complex scalars are central, so this is safe
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * (1.0 / complex(other))
        if isinstance(other, GrassmannScalar):
            return self * other.invert()
        return NotImplemented

    def invert(self) -> "GrassmannScalar":
        """Exact inverse via the terminating Neumann series body^-1 sum (-soul/body)^m;
        a zero or non-finite body or a non-finite result raises."""
        b = self.body
        if b == 0 or not cmath.isfinite(b):
            raise NotInvertibleError(f"element body {b} is zero or not finite")
        acc = GrassmannScalar.one(self.n)
        for power in (self.soul() * (-1.0 / b))._powers():
            acc = acc + power
        out = acc * (1.0 / b)
        if not all(map(cmath.isfinite, out.terms.values())):
            raise NotInvertibleError(f"inverse of an element with body {b} is not finite")
        return out

    def exp(self) -> "GrassmannScalar":
        """exp(body) times the terminating Taylor series of the nilpotent part."""
        acc = GrassmannScalar.one(self.n)
        for m, power in enumerate(self.soul()._powers(), 1):
            acc = acc + power * (1.0 / math.factorial(m))
        return acc * cmath.exp(self.body)

    def _powers(self):
        """self, self^2, ... while nonzero, for a nilpotent self (at most n of them)."""
        power = self
        while power.terms:
            yield power
            power = power * self

    def conjugate(self, structure: "RealStructure") -> "GrassmannScalar":
        """Apply the real structure: antilinear, fixes generators, reverses products."""
        eps = structure.epsilon
        out = {}
        for mask, c in self.terms.items():
            m = mask.bit_count()
            flips = (m * (m - 1)) // 2
            sgn = 1.0
            if flips & 1:
                sgn = -eps  # reversal sign times epsilon^flips collapses to (-eps)^flips
            out[mask] = sgn * c.conjugate()
        return GrassmannScalar(self.n, out)

    def substitute(self, images: Mapping[int, "GrassmannScalar"]) -> "GrassmannScalar":
        """Algebra endomorphism sending generator i to images[i] (odd), fixing the rest."""
        for i, im in images.items():
            if not 0 <= i < self.n:
                raise DimensionError(f"generator index {i} out of range")
            if not im.is_odd():
                raise ParityError("substitution images must be odd elements")
        out = GrassmannScalar.zero(self.n)
        for mask, c in self.terms.items():
            factor = GrassmannScalar.scalar(self.n, c)
            m = mask
            while m:
                low = m & -m
                i = low.bit_length() - 1
                g = images.get(i)
                if g is None:
                    g = GrassmannScalar.generator(self.n, i)
                factor = factor * g
                if not factor.terms:
                    break
                m ^= low
            out = out + factor
        return out

    # -- comparisons / hashing ---------------------------------------------
    def isclose(self, other: "GrassmannScalar", tol: float = 1e-9) -> bool:
        self._check_same_algebra(other)
        return (self - other).norm_inf() <= tol

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = GrassmannScalar.scalar(self.n, other)
        if not isinstance(other, GrassmannScalar):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    # -- io ------------------------------------------------------------------
    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            c = self.terms[mask]
            if mask == 0:
                parts.append(f"{c:.6g}")
            else:
                gens = "".join(f"b{i + 1}" for i in range(self.n) if mask >> i & 1)
                parts.append(f"({c:.6g})*{gens}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        terms = []
        for mask in sorted(self.terms):
            c = self.terms[mask]
            idx = [i + 1 for i in range(self.n) if mask >> i & 1]
            terms.append({"mask": idx, "re": c.real, "im": c.imag})
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json(cls, data: Mapping) -> "GrassmannScalar":
        n = int(data["n"])
        terms: Dict[int, complex] = {}
        for t in data.get("terms", []):
            mask = 0
            for i in t.get("mask", []):
                mask |= 1 << (int(i) - 1)
            terms[mask] = terms.get(mask, 0j) + complex(float(t.get("re", 0.0)), float(t.get("im", 0.0)))
        return cls(n, terms)


class RealStructure:
    """A real structure omega on Lambda, parametrized by the sign epsilon."""

    __slots__ = ("epsilon",)

    def __init__(self, epsilon: int = 1):
        if epsilon not in (1, -1):
            raise DimensionError("epsilon must be +1 or -1")
        self.epsilon = epsilon

    def __repr__(self):
        return f"RealStructure(epsilon={self.epsilon:+d})"


def as_grassmann(value: Union[Scalar, GrassmannScalar], n: int) -> GrassmannScalar:
    """Coerce a plain number into Lambda (identity on GrassmannScalar of matching n)."""
    if isinstance(value, GrassmannScalar):
        if value.n != n:
            raise DimensionError(f"element lives over n={value.n}, expected {n}")
        return value
    return GrassmannScalar.scalar(n, value)


def random_element(rng, n: int, parity: int | None = None, scale: float = 1.0,
                   body: complex | None = None) -> GrassmannScalar:
    """Random element with independent complex gaussian coefficients.

    parity None gives a mixed element; 0/1 restrict to the even/odd part.
    A nonzero ``body`` overrides the empty-monomial coefficient.
    """
    terms: Dict[int, complex] = {}
    for mask in range(1 << n):
        if parity is not None and (mask.bit_count() & 1) != parity:
            continue
        c = complex(rng.standard_normal(), rng.standard_normal()) * scale
        terms[mask] = c
    if body is not None:
        terms[0] = complex(body)
    return GrassmannScalar(n, terms)


# -- matrices over Lambda: (2^n, rows, cols) arrays, grids at the edge ---------------

Grid = List[List[GrassmannScalar]]


# the disjoint mask pairs and their merge signs, built lazily per generator count
_PAIR_TABLES: Dict[int, tuple] = {}

# the parity of every monomial, shaped (2^n, 1, 1), keyed by 2^n
_MONOMIAL_PARITY: Dict[int, np.ndarray] = {}

# complex entries the kernel's temporaries may hold at once (16 bytes each)
_KERNEL_BUDGET = 1 << 14

# array_mul contracts with the pairs innermost up to this many number products per
# pair (rows * inner * cols) and from this many pairs on; the timings behind both
# are in its docstring
_TINY_PRODUCT = 64
_TINY_MIN_PAIRS = 32


def _pair_table(n: int) -> tuple:
    """The 3^n disjoint mask pairs as rows (a, b, a | b) and their merge signs, sorted by a | b.

    Built bit by bit: each generator j joins a, joins b or neither.  Joining
    a passes it over the generators already in b, all lower, which flips the
    sign once per such generator; joining b passes over nothing.
    """
    table = _PAIR_TABLES.get(n)
    if table is None:
        a = b = np.zeros(1, dtype=np.intp)
        odd_b = flip = np.zeros(1, dtype=bool)  # |b| odd; merge sign negative
        for j in range(n):
            bit = 1 << j
            a = np.concatenate([a, a | bit, a])
            b = np.concatenate([b, b, b | bit])
            flip = np.concatenate([flip, flip ^ odd_b, flip])
            odd_b = np.concatenate([odd_b, odd_b, ~odd_b])
        k = a | b
        order = np.argsort(k, kind="stable")
        table = _PAIR_TABLES[n] = (np.stack([a, b, k])[:, order],
                                   np.where(flip[order], -1.0, 1.0))
    return table


def grid_array(G: Sequence[Sequence], cols: int, n: int) -> np.ndarray:
    """A grid with ``cols`` columns as a complex array of shape (2^n, rows, cols).

    Slot [m, i, j] holds the coefficient of monomial m in entry (i, j).
    Entries may be plain complex numbers, which fill slot 0.
    """
    rows = len(G)
    size = rows * cols
    index: List[int] = []
    values: List[complex] = []
    for pos, e in enumerate(chain.from_iterable(G)):
        if isinstance(e, GrassmannScalar):
            terms = e.terms
            if terms:
                if e.n != n:
                    raise DimensionError(f"grid entry lives over n={e.n}, expected {n}")
                index.extend([m * size + pos for m in terms])
                values.extend(terms.values())
        elif e != 0:
            index.append(pos)
            values.append(e)
    D = np.zeros((1 << n, rows, cols), dtype=complex)
    D.put(index, values)
    return D


def array_elements(V: np.ndarray, n: int) -> List[GrassmannScalar]:
    """The elements whose coefficients are the columns of a (2^n, k) array.

    A column with no nonzero slot gives one shared zero.
    """
    out = [GrassmannScalar.zero(n)] * V.shape[1]
    live = V.any(axis=0).nonzero()[0]
    for pos, coeffs in zip(live.tolist(), V[:, live].T.tolist()):
        out[pos] = GrassmannScalar._of(n, {m: c for m, c in enumerate(coeffs) if c})
    return out


def array_grid(C: np.ndarray, n: int) -> Grid:
    """The grid of a (2^n, rows, cols) array; an entry with no nonzero slot is zero."""
    rows, cols = C.shape[1:]
    flat = array_elements(C.reshape(len(C), rows * cols), n)
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def parity_violations(D: np.ndarray, row_parity: Sequence[int],
                      col_parity: Sequence[int]) -> np.ndarray:
    """The (rows, cols) mask of the entries of D that break the parity rule.

    Entry (i, j) of an even matrix is homogeneous of parity row_parity[i] +
    col_parity[j] mod 2: it holds nonzero coefficients only at monomials of
    that parity.  Exact zeros satisfy every parity.
    """
    odd = _MONOMIAL_PARITY.get(len(D))
    if odd is None:  # a mask's top generator flips the parity of the masks below it
        odd = np.zeros(1, dtype=int)
        while len(odd) < len(D):
            odd = np.concatenate([odd, 1 - odd])
        odd = _MONOMIAL_PARITY[len(D)] = odd[:, None, None]
    want = np.add.outer(np.asarray(row_parity, dtype=int), np.asarray(col_parity, dtype=int))
    return ((D != 0) & (odd != want & 1)).any(axis=0)


def array_mul(A: np.ndarray, B: np.ndarray, n: int) -> np.ndarray:
    """The product of two grids held as arrays (see ``grid_array``), as an array.

    Slot k of entry (i, j) is the sum over inner r and over the disjoint pairs
    a | b = k of sign(a, b) A[a, i, r] B[b, r, j], for the pairs of monomials
    both operands use, run in chunks whose temporaries hold at most
    ``_KERNEL_BUDGET`` entries.  A slot that no pair reaches stays an exact
    zero.  Leading batch axes, (2^n, *batch, rows, cols), broadcast as in
    ``np.matmul``.

    Two contractions, chosen by the shape one pair multiplies and the number
    of pairs (timings on a 2-core Xeon VM, numpy 2.4, one BLAS thread).
    ``matmul`` makes one BLAS call per pair, about 0.35 us for a 2 x 2 or
    3 x 3 pair, far more than the pair's arithmetic.  Up to
    ``_TINY_PRODUCT`` products of numbers per pair (rows * inner * cols) the
    operands are instead gathered with the pair axis last, and each inner
    index is one vector multiply-add over all the pairs: at n = 6 (729
    pairs) a 2 x 2 product takes 70 us this way against 270 us by
    ``matmul``, a 4 x 4 one 280 us against 350 us.  A 5 x 5 pair costs more
    elementwise, as do the 48 x 48 window matrices of ``sgr``.  A
    matrix-vector pair whose inner length passes twice its short side also
    stays with ``matmul``, which runs no BLAS call for it, while its
    multiply-adds are many and thin: a 6 x 6 times 6 x 1 product at n = 6
    takes 210 us elementwise against 150 us.  The elementwise route costs
    about 8 us more to set up, so below ``_TINY_MIN_PAIRS`` pairs (a 3 x 3
    product at n = 4 whose left side has one generator in every monomial,
    say) ``matmul`` stays the faster one.
    """
    rows, inner = A.shape[-2:]
    cols = B.shape[-1]
    if B.shape[-2] != inner:
        raise DimensionError("inner dimension mismatch")
    if len(A) != 1 << n or len(B) != 1 << n:
        raise DimensionError(f"operands do not both live over n={n}")
    batch = A.shape[1:-2]
    if B.shape[1:-2] != batch:
        batch = np.broadcast_shapes(batch, B.shape[1:-2])
        # the same number of batch axes on both sides, behind the monomial axis
        A, B = (X.reshape(len(X), *[1] * (len(batch) + 3 - X.ndim), *X.shape[1:]) for X in (A, B))
    table, signs = _pair_table(n)
    axes = tuple(range(1, A.ndim))
    keep = A.any(axis=axes)[table[0]] & B.any(axis=axes)[table[1]]
    a, b, k = table.compress(keep, axis=1)
    sign = signs[keep]
    C = np.zeros((1 << n, *batch, rows, cols), dtype=complex)
    out = C
    tiny = _pairs_innermost(rows, inner, cols, len(k))
    if tiny:  # monomials last: (*batch, rows, cols, 2^n)
        last = (*range(1, C.ndim), 0)
        out = C.transpose(last)
        A, B = (np.ascontiguousarray(X.transpose(last)) for X in (A, B))
    else:
        sign = sign.reshape(-1, *[1] * (len(batch) + 2))
    # gathered operands and a product per pair; the tiny contraction also holds a
    # multiply-add buffer and numpy's buffers for its two broadcast operands
    per_pair = math.prod(batch) * (rows * inner + inner * cols + (1 + 3 * tiny) * rows * cols)
    step = max(1, _KERNEL_BUDGET // max(1, per_pair))
    for lo in range(0, len(k), step):
        ks = k[lo:lo + step]
        first = np.empty(len(ks), dtype=bool)  # where each merged mask's pairs start
        first[0] = True
        np.not_equal(ks[1:], ks[:-1], out=first[1:])
        starts = first.nonzero()[0]
        if tiny:
            prod = _pairs_last(A, B, a[lo:lo + step], b[lo:lo + step], sign[lo:lo + step])
            out[..., ks[starts]] += np.add.reduceat(prod, starts, axis=-1)
        else:
            prod = np.matmul(A[a[lo:lo + step]], B[b[lo:lo + step]])
            prod *= sign[lo:lo + step]
            C[ks[starts]] += np.add.reduceat(prod, starts)
    return C


def _pairs_innermost(rows: int, inner: int, cols: int, pairs: int) -> bool:
    """Whether ``array_mul`` takes the contraction with the pairs innermost."""
    return (pairs >= _TINY_MIN_PAIRS and rows * inner * cols <= _TINY_PRODUCT
            and inner <= 2 * min(rows, cols))


def _pairs_last(A: np.ndarray, B: np.ndarray, a, b, sign) -> np.ndarray:
    """sign * sum_r A[..., i, r, a] B[..., r, j, b] for arrays with the monomial axis last.

    The result has the pairs on its last axis.  Each inner index r is one
    vector multiply-add over all the pairs at once.
    """
    Ag, Bg = A.take(a, axis=-1), B.take(b, axis=-1)
    prod = Ag[..., :, 0, None, :] * Bg[..., None, 0, :, :]
    tmp = np.empty_like(prod) if Ag.shape[-2] > 1 else None
    for r in range(1, Ag.shape[-2]):
        prod += np.multiply(Ag[..., :, r, None, :], Bg[..., None, r, :, :], out=tmp)
    prod *= sign
    return prod
