"""Supermatrix algebra over a finite Grassmann algebra.

A matrix with (k|l) x (p|q) block parity structure: indices up to k (resp. p)
are the even class.  The matrix is *even* when entry (i, j) is homogeneous of
parity parity(i)+parity(j) mod 2.  For square even matrices this module
provides the Berezinian ber and its reciprocal ber*, Gelfand-Retakh
quasideterminants, exact inversion, and the generalized Cramer's rule solving
x A = y with Berezinian ratios (ber for even slots, ber* for odd slots),
together with a brute-force oracle that expands everything over the 2^n
monomial basis of the coefficient algebra.

A ``SuperMatrix`` holds one complex array of shape (2^n, rows, cols), the
layout of ``grassmann.grid_array``; products, sums, blocks, inverses and
Berezinians work on that array.  Grids of elements appear only at the edge:
the constructor, the ``entries``/``row``/``col`` views, JSON, and the public
functions that take raw grids or rows (``det_even`` and ``invert_even`` on a
grid, ``det_even_laplace``, the substituted rows, the right-hand side of the
oracle).

A determinant or Berezinian is carried as det(body) times the coefficient
vector of its nilpotent logarithm, read off the powers of body^-1 soul, and
ends in one exponential of that vector: no element arithmetic runs inside.
The factorization helpers take a single matrix or a stack (2^n, *batch, r, r)
alike.  Cramer's rule uses that: the minors A^{ij} of one parity class, each
row at its best-conditioned admissible column, are factored as one stack, and
x_i = (-1)^{i+j} |A_i(y)|_{ij} ber(A^{ij})/ber(A) is one product per class.
It takes nothing from ``invert_matrix(A)`` or y A^-1, the routes it is
checked against, and the oracle takes nothing from the Berezinian code or
the Lambda products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionError, NotInvertibleError, ParityError
from .grassmann import (Grid, GrassmannScalar, array_elements, array_grid, array_mul, grid_array,
                        parity_violations, sign_of_merge)

Shape = Tuple[int, int]

_BODY_TOL = 1e-10


class SuperMatrix:
    """Rectangular matrix over Lambda with block parity bookkeeping.

    The coefficients live in ``array`` alone; ``entries`` is a grid built
    from it on each read.
    """

    __slots__ = ("row_shape", "col_shape", "n", "array")

    def __init__(self, row_shape: Shape, col_shape: Shape, entries: Sequence[Sequence[GrassmannScalar]]):
        k, l = row_shape
        p, q = col_shape
        if min(k, l, p, q) < 0:
            raise DimensionError("negative block size")
        rows = k + l
        cols = p + q
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise DimensionError(f"entry grid is not {rows}x{cols}")
        ns = {e.n for row in entries for e in row}
        if len(ns) > 1:
            raise DimensionError("entries live over different Grassmann algebras")
        n = ns.pop() if ns else 0
        self.row_shape, self.col_shape, self.n = (k, l), (p, q), n
        self.array = grid_array(entries, cols, n)

    @classmethod
    def _of(cls, row_shape: Shape, col_shape: Shape, n: int, array: np.ndarray) -> "SuperMatrix":
        """The matrix holding ``array``, which the caller no longer writes to."""
        A = cls.__new__(cls)
        A.row_shape, A.col_shape, A.n, A.array = tuple(row_shape), tuple(col_shape), n, array
        return A

    # -- constructors --------------------------------------------------------
    @classmethod
    def identity(cls, shape: Shape, n: int) -> "SuperMatrix":
        m = shape[0] + shape[1]
        D = np.zeros((1 << n, m, m), dtype=complex)
        D[0] = np.eye(m)
        return cls._of(shape, shape, n, D)

    @classmethod
    def zero(cls, row_shape: Shape, col_shape: Shape, n: int) -> "SuperMatrix":
        return cls._of(row_shape, col_shape, n,
                       np.zeros((1 << n, sum(row_shape), sum(col_shape)), dtype=complex))

    # -- shape helpers -------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.row_shape[0] + self.row_shape[1]

    @property
    def ncols(self) -> int:
        return self.col_shape[0] + self.col_shape[1]

    def is_square(self) -> bool:
        return self.row_shape == self.col_shape

    def is_even(self) -> bool:
        """True when every entry is homogeneous of the parity its slot demands."""
        (k, l), (p, q) = self.row_shape, self.col_shape
        return not parity_violations(self.array, [0] * k + [1] * l, [0] * p + [1] * q).any()

    def require_even(self) -> None:
        if not self.is_even():
            raise ParityError("matrix is not even for its block structure")

    # -- views -----------------------------------------------------------------
    @property
    def entries(self) -> Grid:
        """The entries as a grid of elements, built from the array on each read."""
        return array_grid(self.array, self.n)

    def row(self, i: int) -> List[GrassmannScalar]:
        return array_elements(self.array[:, i, :], self.n)

    def col(self, j: int) -> List[GrassmannScalar]:
        return array_elements(self.array[:, :, j], self.n)

    # -- arithmetic -----------------------------------------------------------
    def _require_same_algebra(self, other: "SuperMatrix") -> None:
        if self.n != other.n:
            raise DimensionError(f"mixed generator counts {self.n} and {other.n}")

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        if self.row_shape != other.row_shape or self.col_shape != other.col_shape:
            raise DimensionError("shape mismatch in addition")
        self._require_same_algebra(other)
        return SuperMatrix._of(self.row_shape, self.col_shape, self.n, self.array + other.array)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "SuperMatrix":
        """Every entry times the complex number c."""
        return SuperMatrix._of(self.row_shape, self.col_shape, self.n, self.array * complex(c))

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        if self.col_shape != other.row_shape:
            raise DimensionError("inner shapes differ in product")
        self._require_same_algebra(other)
        return SuperMatrix._of(self.row_shape, other.col_shape, self.n,
                               array_mul(self.array, other.array, self.n))

    def with_row(self, i: int, new_row: Sequence[GrassmannScalar]) -> "SuperMatrix":
        D = self.array.copy()
        D[:, i] = _row_array(new_row, self.ncols, self.n)[:, 0]
        return SuperMatrix._of(self.row_shape, self.col_shape, self.n, D)

    def delete(self, i: int, j: int) -> "SuperMatrix":
        """Submatrix A^{ij} with the parity shapes adjusted for the dropped slots."""
        k, l = self.row_shape
        p, q = self.col_shape
        rshape = (k - 1, l) if i < k else (k, l - 1)
        cshape = (p - 1, q) if j < p else (p, q - 1)
        return SuperMatrix._of(rshape, cshape, self.n,
                               np.delete(np.delete(self.array, i, axis=1), j, axis=2))

    def blocks(self):
        """(X, alpha, beta, Y) as matrices: X is (k|0)x(p|0), alpha (k|0)x(0|q) and so on."""
        (k, l), (p, q) = self.row_shape, self.col_shape
        D = self.array
        return (SuperMatrix._of((k, 0), (p, 0), self.n, D[:, :k, :p]),
                SuperMatrix._of((k, 0), (0, q), self.n, D[:, :k, p:]),
                SuperMatrix._of((0, l), (p, 0), self.n, D[:, k:, :p]),
                SuperMatrix._of((0, l), (0, q), self.n, D[:, k:, p:]))

    def body(self) -> np.ndarray:
        return self.array[0].copy()

    def max_coeff(self) -> float:
        return float(np.abs(self.array).max(initial=0.0))

    def isclose(self, other: "SuperMatrix", tol: float = 1e-9) -> bool:
        return (self - other).max_coeff() <= tol

    def __repr__(self):
        return (f"SuperMatrix({self.row_shape}x{self.col_shape} over n={self.n}:\n " +
                "\n ".join(str([str(e) for e in row]) for row in self.entries) + ")")

    # -- io --------------------------------------------------------------------
    def to_json(self) -> dict:
        return {"rows": list(self.row_shape), "cols": list(self.col_shape),
                "entries": [[e.to_json() for e in row] for row in self.entries]}

    @classmethod
    def from_json(cls, data) -> "SuperMatrix":
        rows = tuple(int(x) for x in data["rows"])
        cols = tuple(int(x) for x in data["cols"])
        ent = [[GrassmannScalar.from_json(e) for e in row] for row in data["entries"]]
        return cls(rows, cols, ent)


# -- raw grid helpers ----------------------------------------------------------

def _require_invertible_body(body: np.ndarray, what: str) -> None:
    """Raise NotInvertibleError unless sigma_min > _BODY_TOL * sigma_max for the body.

    The one invertibility test for bodies: relative, so blind to scale, and
    catching a nearly singular direction whatever the size of the matrix.
    A stack of bodies (..., r, r) passes when each of them does.
    """
    if body.size == 0:
        return
    if not np.isfinite(body).all():
        raise NotInvertibleError(f"{what} is not finite")
    s = np.linalg.svd(body, compute_uv=False)
    singular = s[..., -1] <= _BODY_TOL * s[..., 0]
    if singular.any():
        s = s[singular][0]
        cond = s[0] / s[-1] if s[-1] else math.inf
        raise NotInvertibleError(f"{what} is singular (condition number {cond:.3g})")


def _require_even_entries(D: np.ndarray) -> None:
    if parity_violations(D, [0] * D.shape[1], [0] * D.shape[2]).any():
        raise ParityError("entry of a commutative determinant is not even")


def _row_array(y: Sequence[GrassmannScalar], m: int, n: int) -> np.ndarray:
    """A row of m elements as a (2^n, 1, m) array."""
    if len(y) != m:
        raise DimensionError(f"row has {len(y)} entries, expected {m}")
    return grid_array([y], m, n)


# -- determinants over the even (commutative) subring ---------------------------

def det_even_laplace(M, n: int) -> GrassmannScalar:
    """Leibniz/Laplace expansion, memoized over column subsets.

    Valid because even elements commute; used as the fallback and as the
    independent check for the exp-tr-log fast path.  M is a square grid or
    a ``SuperMatrix``.
    """
    if isinstance(M, SuperMatrix):
        M = M.entries
    m = len(M)
    if m == 0:
        return GrassmannScalar.one(n)
    _require_even_entries(grid_array(M, m, n))
    full = (1 << m) - 1
    memo = {0: GrassmannScalar.one(n)}

    def rec(colmask: int) -> GrassmannScalar:
        cached = memo.get(colmask)
        if cached is not None:
            return cached
        row = m - colmask.bit_count()  # rows consumed in order
        acc = GrassmannScalar.zero(n)
        pos = 0
        for j in range(m):
            bit = 1 << j
            if not colmask & bit:
                continue
            e = M[row][j]
            if e.terms:
                term = e * rec(colmask ^ bit)
                acc = acc + (term if pos % 2 == 0 else -term)
            pos += 1
        memo[colmask] = acc
        return acc

    return rec(full)


def _factor(D: np.ndarray, n: int, what: str, even: bool = False):
    """Factor a square matrix held as an array once.

    Runs the body test and returns (body, body^-1, [N, N^2, ...]) with
    N = body^-1 soul, the powers as arrays; see ``_series``.
    """
    body = D[0]
    _require_invertible_body(body, what)
    return (body, *_series(D, body, n, even))


def _series(D: np.ndarray, body: np.ndarray, n: int, even: bool = False):
    """(body^-1, [N, N^2, ...]) for square arrays whose bodies have passed the body test.

    D is (2^n, *batch, r, r) and body (*batch, r, r): a single matrix and a
    stack take the same path.  body^-1 is central, so N is one matrix product
    per monomial.  The powers stay arrays.  Each monomial of N has a
    generator, two when every entry of D is ``even``, so N^r vanishes beyond
    r = n (n // 2); the powers stop there or at the first zero one.  The
    inverse and the log-determinant are both read off this list.
    """
    binv = np.linalg.inv(body)
    N = np.matmul(binv, D)
    N[0] = 0  # body^-1 times the soul
    depth = n // 2 if even else n
    powers = []
    power = N
    while power.any():
        powers.append(power)
        if len(powers) == depth:
            break
        power = array_mul(power, N, n)
    return binv, powers


def _inverse(binv: np.ndarray, powers, n: int) -> np.ndarray:
    """(sum_r (-N)^r) body^-1 from the factorization of ``_factor``, as an array."""
    acc = np.zeros((1 << n, *binv.shape), dtype=complex)
    acc[0] = np.eye(binv.shape[-1])
    for r, power in enumerate(powers):
        acc += power if r % 2 else -power
    return np.matmul(acc, binv)


def _logdet(body: np.ndarray, powers, n: int) -> np.ndarray:
    """The nilpotent part of log det, sum_r (-1)^(r+1) tr(N^r)/r, as coefficients (2^n, *batch).

    det = det(body) exp(this) for matrices of even entries; the slot of the
    empty monomial is an exact zero, since N has no body.
    """
    out = np.zeros((1 << n, *body.shape[:-2]), dtype=complex)
    for r, power in enumerate(powers, 1):
        out += np.trace(power, axis1=-2, axis2=-1) * ((-1.0) ** (r + 1) / r)
    return out


def _exp(L: np.ndarray, n: int) -> np.ndarray:
    """exp(L) for even coefficient vectors (2^n, *batch) with no body: powers of one array.

    Each monomial of L has two generators or more, so the Taylor series ends
    at L^(n // 2) / (n // 2)!.
    """
    X = L[..., None, None]
    term, out = X, X.copy()
    out[0] += 1
    for r in range(2, n // 2 + 1):
        term = array_mul(term, X, n) / r
        out += term
    return out[..., 0, 0]


def _element(v: np.ndarray, n: int) -> GrassmannScalar:
    """The element with coefficient vector v (2^n,)."""
    return array_elements(v[:, None], n)[0]


def det_even(M, n: int | None = None) -> GrassmannScalar:
    """Determinant of a square matrix of even elements of Lambda.

    Uses det(body) * exp(tr log(I + body^-1 soul)) when the body is
    invertible (the series terminates by nilpotency), Laplace expansion
    otherwise.  The two routes agree identically.
    """
    if isinstance(M, SuperMatrix):
        n, D = M.n, M.array
    else:
        if n is None:
            raise DimensionError("generator count required for raw grids")
        if any(len(r) != len(M) for r in M):
            raise DimensionError("determinant of a non-square matrix")
        D = grid_array(M, len(M), n)
    if D.shape[1] != D.shape[2]:
        raise DimensionError("determinant of a non-square matrix")
    _require_even_entries(D)
    try:
        body, _, powers = _factor(D, n, "matrix body", even=True)
    except NotInvertibleError:
        return det_even_laplace(M, n)
    return _element(np.linalg.det(body) * _exp(_logdet(body, powers, n), n), n)


def invert_even(M: Grid, n: int) -> Grid:
    """Inverse of a square grid of even elements with invertible body."""
    _, binv, powers = _factor(grid_array(M, len(M), n), n, "matrix body")
    return array_grid(_inverse(binv, powers, n), n)


# -- Berezinians ----------------------------------------------------------------

def _log_ber(D: np.ndarray, k: int, star: bool, n: int):
    """ber (ber* when star) of even arrays (2^n, *batch, m, m) with k even rows, as (scale, L).

    The value is scale exp(L): det(S) det(P)^-1 with S = K - a P^-1 b and
    pivot P = Y for ber, P = X for ber*, so scale = det(body K)/det(body P)
    and L = L(S) - L(P) for the nilpotent log-determinants L of ``_logdet``.
    alpha and beta are odd, so S has the body of K.  The caller has run the
    body test, so P and S are factored without testing again.
    """
    X, alpha, beta, Y = D[..., :k, :k], D[..., :k, k:], D[..., k:, :k], D[..., k:, k:]
    K, a, P, b = (Y, beta, X, alpha) if star else (X, alpha, Y, beta)
    kbody, pbody = K[0], P[0]
    pinv, ppowers = _series(P, pbody, n, even=True)
    S = K - array_mul(array_mul(a, _inverse(pinv, ppowers, n), n), b, n)
    _, spowers = _series(S, kbody, n, even=True)
    return (np.linalg.det(kbody) / np.linalg.det(pbody),
            _logdet(kbody, spowers, n) - _logdet(pbody, ppowers, n))


def log_berezinian(A: SuperMatrix, star: bool = False) -> Tuple[complex, np.ndarray]:
    """ber(A) (ber*(A) when star) of a square even matrix as (scale, L), the value scale exp(L).

    L is the nilpotent coefficient vector of ``_log_ber``, so a quotient of
    Berezinians is one exponential of a difference (see ``exp_element``).
    A's body is diag(body X, body Y).  The one body test is the whole-matrix
    test of ``invert_matrix``, made before any Lambda product, so a singular
    matrix raises at once.
    """
    if not A.is_square():
        raise DimensionError("Berezinian of a non-square supermatrix")
    A.require_even()
    _require_invertible_body(A.array[0], "matrix body")
    return _log_ber(A.array, A.row_shape[0], star, A.n)


def exp_element(scale: complex, L: np.ndarray, n: int) -> GrassmannScalar:
    """The element scale exp(L) for a bodiless even coefficient vector L."""
    return _element(scale * _exp(L, n), n)


def berezinian(A: SuperMatrix) -> GrassmannScalar:
    """ber(A) = det(X - alpha Y^-1 beta) det(Y)^-1 for square even A."""
    return exp_element(*log_berezinian(A), A.n)


def berezinian_star(A: SuperMatrix) -> GrassmannScalar:
    """ber*(A) = det(X)^-1 det(Y - beta X^-1 alpha); equals ber(A)^-1."""
    return exp_element(*log_berezinian(A, star=True), A.n)


def invert_matrix(A: SuperMatrix) -> SuperMatrix:
    """Exact inverse of a square matrix with invertible body (Neumann series)."""
    if not A.is_square():
        raise DimensionError("inverse of a non-square supermatrix")
    _, binv, powers = _factor(A.array, A.n, "matrix body")
    return SuperMatrix._of(A.row_shape, A.col_shape, A.n, _inverse(binv, powers, A.n))


# -- quasideterminants -----------------------------------------------------------

def _same_class(A: SuperMatrix, i: int, j: int) -> bool:
    return (i < A.row_shape[0]) == (j < A.col_shape[0])


def _others(index, m: int) -> np.ndarray:
    """Row t lists range(m) without index[t]: the kept rows (or columns) of each minor."""
    return np.array([[r for r in range(m) if r != i] for i in index],
                    dtype=np.intp).reshape(len(index), m - 1)


def _best_columns(A: SuperMatrix, rows, columns) -> np.ndarray:
    """For each row i, the column j of ``columns`` whose minor A^{ij} has the best-conditioned body.

    The bodies of all the candidate minors go through one batched SVD, which
    is also their body test (that of ``_require_invertible_body``).
    """
    m = A.nrows
    if m == 1:
        return np.full(len(rows), columns[0])
    bodies = A.array[0][_others(rows, m)[:, None, :, None], _others(columns, m)[None, :, None, :]]
    finite = np.isfinite(bodies).all(axis=(-2, -1))
    s = np.linalg.svd(np.where(finite[..., None, None], bodies, 0), compute_uv=False)
    ok = finite & (s[..., -1] > _BODY_TOL * s[..., 0])
    cond = np.where(ok, s[..., 0] / np.where(ok, s[..., -1], 1), math.inf)
    best = cond.argmin(axis=1)
    if not ok[np.arange(len(rows)), best].all():
        raise NotInvertibleError("no admissible column for the substituted Berezinian: "
                                 "every candidate minor has a singular body")
    return np.asarray(columns)[best]


def _quasidet_functional(A: SuperMatrix, rows, cols):
    """Y -> |A_i(y)|_{ij} = y_j - sum_{p!=j, q!=i} y_p c^{(ij)}_{pq} a_qj, C = (A^{ij})^-1.

    One functional for each pair (i, j) = (rows[t], cols[t]), whose minor
    bodies have passed the body test.  The minors are stacked and factored by
    one ``_series``.  Y holds rows y as a (2^n, R, m) array; the result is
    (2^n, t, R), one quasideterminant per pair and row.  The column
    contraction sum_q c_pq a_qj is formed once, so all the rows cost one
    product.  Returns the functional and the stacked minors (2^n, t, m-1, m-1).
    """
    n, m = A.n, A.nrows
    rows, cols = np.asarray(rows), np.asarray(cols)
    keep_r, keep_c = _others(rows, m), _others(cols, m)
    minors = A.array[:, keep_r[:, :, None], keep_c[:, None, :]]
    binv, powers = _series(minors, minors[0], n)
    corr = array_mul(_inverse(binv, powers, n), A.array[:, keep_r, cols[:, None]][..., None], n)

    def evaluate(Y: np.ndarray) -> np.ndarray:
        if Y.shape[2] != m:
            raise DimensionError("substituted row has wrong length")
        rest = Y[:, :, keep_c].swapaxes(1, 2)
        return Y[:, :, cols].swapaxes(1, 2) - array_mul(rest, corr, n)[..., 0]

    return evaluate, minors


def quasideterminant(A: SuperMatrix, i: int, j: int) -> GrassmannScalar:
    """|A|_{ij} = a_ij - sum_{p!=j, q!=i} a_ip c^{(ij)}_{pq} a_qj, C = (A^{ij})^-1.

    Indices are 0-based; i and j must sit in the same parity class so that
    A^{ij} stays even.
    """
    if not A.is_square():
        raise DimensionError("quasideterminant of a non-square matrix")
    if not _same_class(A, i, j):
        raise ParityError("row and column index lie in different parity classes")
    if A.nrows == 1:
        return A.row(0)[0]
    _require_invertible_body(np.delete(np.delete(A.array[0], i, 0), j, 1), "matrix body")
    evaluate, _ = _quasidet_functional(A, [i], [j])
    return _element(evaluate(A.array[:, i:i + 1])[:, 0, 0], A.n)


def _substitution(A: SuperMatrix, rows, columns, star: bool):
    """The substituted Berezinians of rows of one parity class, stacked.

    Row i substitutes at the column j of ``columns`` whose minor body is best
    conditioned.  Returns (evaluate, scale, L): evaluate maps rows Y to
    |A_i(y)|_{ij}, (2^n, len(rows), R), and (-1)^{i+j} ber(A^{ij}) (ber* when
    star) is scale exp(L) for each row, from one Schur pass over the stacked
    minors.  ber(A_i(y)) = (-1)^{i+j} |A_i(y)|_{ij} ber(A^{ij}) for any
    admissible j.
    """
    rows = np.asarray(rows)
    cols = _best_columns(A, rows, columns)
    evaluate, minors = _quasidet_functional(A, rows, cols)
    k = A.row_shape[0]
    scale, L = _log_ber(minors, k - 1 if rows[0] < k else k, star, A.n)
    return evaluate, np.where((rows + cols) & 1, -scale, scale), L


def ber_substituted(A: SuperMatrix, i: int, y: Sequence[GrassmannScalar],
                    j: int | None = None) -> GrassmannScalar:
    """ber(A_i(y)) for i in the even class, by linear substitution of y into row i.

    Row i occurs only linearly in ber(A), so the substitution is well defined
    even when A_i(y) is not an even matrix; it is evaluated through
    (-1)^{i+j} |A_i(y)|_{ij} ber(A^{ij}), which is independent of the admissible
    column j.
    """
    if i >= A.row_shape[0]:
        raise ParityError("ber substitution requires an even-class row")
    return substitution_functional(A, i, j=j, star=False)(_row_array(y, A.nrows, A.n))[0]


def ber_star_substituted(A: SuperMatrix, i: int, y: Sequence[GrassmannScalar],
                         j: int | None = None) -> GrassmannScalar:
    """ber*(A_i(y)) for i in the odd class (the odd-slot analog)."""
    if i < A.row_shape[0]:
        raise ParityError("ber* substitution requires an odd-class row")
    return substitution_functional(A, i, j=j, star=True)(_row_array(y, A.nrows, A.n))[0]


def substitution_functional(A: SuperMatrix, i: int, j: int | None = None, star: bool = False):
    """Closure computing ber(A_i(y)) (or ber*) for arbitrary rows y.

    The closure takes the rows as a (2^n, rows, m) array and returns one
    element per row.  Without j, the column is the admissible one whose minor
    body is best conditioned.  The minor is factored and its Berezinian
    formed once, so sweeping many substituted rows (as the Baker-vector
    formulas do) costs one product for the quasideterminants and one for the
    factor.
    """
    A.require_even()
    if j is not None and not _same_class(A, i, j):
        raise ParityError("substitution column in the wrong parity class")
    columns = [c for c in range(A.ncols) if _same_class(A, i, c)] if j is None else [j]
    evaluate, scale, L = _substitution(A, [i], columns, star)
    factor = (scale * _exp(L, A.n))[:, :, None, None]
    return lambda Y: array_elements(array_mul(evaluate(Y)[..., None], factor, A.n)[:, 0, :, 0], A.n)


# -- linear systems ----------------------------------------------------------------

@dataclass
class SuperLinearSystem:
    """x A = y with A square and even; y may mix parities."""

    matrix: SuperMatrix
    rhs: List[GrassmannScalar]

    def __post_init__(self):
        if not self.matrix.is_square():
            raise DimensionError("system matrix must be square")
        if len(self.rhs) != self.matrix.nrows:
            raise DimensionError("right-hand side has wrong length")


def solve_cramer(system: SuperLinearSystem) -> List[GrassmannScalar]:
    """Solve x A = y via x_i = ber(A_i(y))/ber(A) (ber* in the odd slots).

    Each parity class is one stacked pass: its minors A^{ij} are factored
    together, and x_i = (-1)^{i+j} |A_i(y)|_{ij} ber(A^{ij})/ber(A) is one
    array product over the class, with ber(A^{ij})/ber(A) (in the odd class
    ber*(A^{ij}) ber(A), since ber* = 1/ber) one exponential of a
    coefficient difference.  Nothing is taken from invert_matrix(A) or y A^-1,
    the routes Cramer is checked against.
    """
    A = system.matrix
    A.require_even()
    n, k, m = A.n, A.row_shape[0], A.nrows
    Y = _row_array(system.rhs, m, n)
    _require_invertible_body(A.array[0], "matrix body")
    scale_A, L_A = _log_ber(A.array[:, None], k, False, n)  # a stack of one, to broadcast
    out: List[GrassmannScalar] = []
    for rows, star in ((range(k), False), (range(k, m), True)):
        if not rows:
            continue
        evaluate, scale, L = _substitution(A, rows, rows, star)
        if star:  # ber*(A^{ij}) / ber*(A) = ber*(A^{ij}) ber(A)
            ratio = scale * scale_A * _exp(L + L_A, n)
        else:
            ratio = scale / scale_A * _exp(L - L_A, n)
        x = array_mul(evaluate(Y)[..., None], ratio[..., None, None], n)
        out.extend(array_elements(x[:, :, 0, 0], n))
    return out


def solve_via_inverse(system: SuperLinearSystem) -> List[GrassmannScalar]:
    """x = y A^-1, the direct route used to cross-check Cramer."""
    return apply_row_vector(system.rhs, invert_matrix(system.matrix))


# -- the C-expansion oracle ---------------------------------------------------------

# the disjoint mask pairs of the oracle, built lazily per generator count
_ORACLE_TABLES: dict = {}


def _oracle_table(n: int) -> tuple:
    """(u, s, t, left sign, right sign) over the 3^n disjoint mask pairs (t, s), u = t | s.

    The operator of x -> a*x holds the left sign times a[t] at [u, s], and
    that of x -> x*a the right sign.  Built from merge signs directly,
    independent of ``GrassmannScalar.__mul__`` and of the pair table of
    ``array_mul``.
    """
    table = _ORACLE_TABLES.get(n)
    if table is None:
        dim = 1 << n
        pairs = [(t, s) for s in range(dim) for t in range(dim) if not t & s]
        left = [sign_of_merge(t, s) for t, s in pairs]
        right = [sign_of_merge(s, t) for t, s in pairs]
        t, s = np.array(pairs, dtype=np.intp).T
        table = _ORACLE_TABLES[n] = (t | s, s, t, np.array(left, dtype=float),
                                     np.array(right, dtype=float))
    return table


def _expansion(D: np.ndarray, n: int, left: bool) -> np.ndarray:
    """The C-expansion of a (2^n, rows, cols) array, (rows 2^n, cols 2^n).

    Block (i, j) is the matrix of x -> D_ij x (left) or x -> x D_ij on the
    2^n monomial basis: column s, row u holds the merge sign times
    D_ij[u ^ s] wherever s lies in u.  One gather through ``_oracle_table``.
    """
    u, s, t, lsign, rsign = _oracle_table(n)
    rows, cols = D.shape[1:]
    big = np.zeros((rows, 1 << n, cols, 1 << n), dtype=complex)
    big[:, u, :, s] = (lsign if left else rsign)[:, None, None] * D[t]
    return big.reshape(rows << n, cols << n)


def right_mult_operator(a: GrassmannScalar) -> np.ndarray:
    """Matrix of x -> x*a on the 2^n monomial basis (column index = mask of x)."""
    return _expansion(a.coeffs()[:, None, None], a.n, left=False)


def left_mult_operator(a: GrassmannScalar) -> np.ndarray:
    """Matrix of x -> a*x on the 2^n monomial basis."""
    return _expansion(a.coeffs()[:, None, None], a.n, left=True)


def expand_left_map(D: np.ndarray, n: int) -> np.ndarray:
    """C-expansion of x -> M x for the matrix M held as the (2^n, rows, cols) array D."""
    return _expansion(D, n, left=True)


def expand_vector(vs: Sequence[GrassmannScalar], n: int) -> np.ndarray:
    """The coefficients of the elements, one block of 2^n per element."""
    return np.array([v.coeffs() for v in vs], dtype=complex).reshape(len(vs) << n)


def assemble_vector(flat: np.ndarray, count: int, n: int) -> List[GrassmannScalar]:
    """Read count elements off a flat solution, dropping what is below 1e-12 of its largest entry."""
    V = flat.reshape(count, 1 << n).T
    size = np.abs(V)
    return array_elements(np.where(size > 1e-12 * size.max(initial=0.0), V, 0), n)


def oracle_solve(system: SuperLinearSystem) -> List[GrassmannScalar]:
    """Expand x A = y into one large complex linear system and solve it.

    Independent of the Berezinian machinery: each Lambda entry becomes a
    2^n x 2^n right-multiplication block and the flat system is solved by
    standard elimination.
    """
    A = system.matrix
    m = A.nrows
    n = A.n
    # block (j, i) is x -> x * a_ij, the right-multiplication operator of a_ij
    big = _expansion(A.array.transpose(0, 2, 1), n, left=False)
    rhs = expand_vector(system.rhs, n)
    try:
        flat = np.linalg.solve(big, rhs)
    except np.linalg.LinAlgError:
        flat, *_ = np.linalg.lstsq(big, rhs, rcond=None)
        residual = float(np.linalg.norm(big @ flat - rhs))
        if residual > 1e-8 * max(1.0, float(np.linalg.norm(rhs))):
            raise NotInvertibleError("expanded system is singular or inconsistent")
    return assemble_vector(flat, m, n)


def apply_row_vector(x: Sequence[GrassmannScalar], A: SuperMatrix) -> List[GrassmannScalar]:
    """(x A)_j = sum_i x_i a_ij, keeping the left/right order."""
    return array_elements(array_mul(_row_array(x, A.nrows, A.n), A.array, A.n)[:, 0], A.n)


# -- random generation (tests and the acceptance sweep) ------------------------------

def random_even_matrix(rng, shape: Shape, n: int, soul_scale: float = 0.6,
                       min_sv: float = 0.35) -> SuperMatrix:
    """Random even supermatrix whose diagonal body blocks are well conditioned."""
    from .grassmann import random_element

    k, l = shape
    m = k + l

    def block_body(size):
        while True:
            B = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            if size == 0 or np.linalg.svd(B, compute_uv=False).min() > min_sv:
                return B

    D = np.zeros((1 << n, m, m), dtype=complex)
    D[0, :k, :k] = block_body(k)
    D[0, k:, k:] = block_body(l)
    for i in range(m):
        for j in range(m):
            want = (int(i >= k) + int(j >= k)) & 1
            D[1:, i, j] = random_element(rng, n, parity=want, scale=soul_scale).coeffs()[1:]
    return SuperMatrix._of(shape, shape, n, D)


def random_vector(rng, m: int, n: int, scale: float = 1.0) -> List[GrassmannScalar]:
    from .grassmann import random_element

    return [random_element(rng, n, parity=None, scale=scale) for _ in range(m)]
