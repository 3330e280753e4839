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
grid, ``det_even_laplace``, the substituted rows, the oracle).
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
    """Raise NotInvertibleError unless sigma_min(body) > _BODY_TOL * sigma_max(body).

    The one invertibility test for bodies: relative, so blind to scale, and
    catching a nearly singular direction whatever the size of the matrix.
    """
    if body.size == 0:
        return
    if not np.isfinite(body).all():
        raise NotInvertibleError(f"{what} is not finite")
    s = np.linalg.svd(body, compute_uv=False)
    if s[-1] <= _BODY_TOL * s[0]:
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


def _factor(D: np.ndarray, n: int, what: str):
    """Factor a square matrix held as an array once.

    Runs the body test and returns (body, body^-1, [N, N^2, ...]) with
    N = body^-1 soul, the powers as arrays; see ``_series``.
    """
    body = D[0]
    _require_invertible_body(body, what)
    return (body, *_series(D, body, n))


def _series(D: np.ndarray, body: np.ndarray, n: int):
    """(body^-1, [N, N^2, ...]) for a square array whose body has passed the body test.

    body^-1 is central, so N is one matrix product per monomial.  The powers
    stay arrays and stop at the first zero one, which nilpotency of N
    guarantees.  The inverse and the determinant are both read off this list.
    """
    binv = np.linalg.inv(body)
    N = np.matmul(binv, D)
    N[0] = 0  # body^-1 times the soul
    powers = []
    power = N
    while power.any():
        powers.append(power)
        power = array_mul(power, N, n)
    return binv, powers


def _inverse(binv: np.ndarray, powers, n: int) -> np.ndarray:
    """(sum_r (-N)^r) body^-1 from the factorization of ``_factor``, as an array."""
    acc = np.zeros((1 << n, *binv.shape), dtype=complex)
    acc[0] = np.eye(len(binv))
    for r, power in enumerate(powers):
        acc += power if r % 2 else -power
    return np.matmul(acc, binv)


def _det(body: np.ndarray, powers, n: int) -> GrassmannScalar:
    """det(body) exp(sum_r (-1)^(r+1) tr(N^r)/r) for a matrix of even entries."""
    logdet = np.zeros(1 << n, dtype=complex)
    for r, power in enumerate(powers, 1):
        logdet += np.trace(power, axis1=1, axis2=2) * ((-1.0) ** (r + 1) / r)
    logdet = GrassmannScalar(n, {m: c for m, c in enumerate(logdet.tolist()) if c})
    return logdet.exp() * complex(np.linalg.det(body))


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
        body, _, powers = _factor(D, n, "matrix body")
    except NotInvertibleError:
        return det_even_laplace(M, n)
    return _det(body, powers, n)


def invert_even(M: Grid, n: int) -> Grid:
    """Inverse of a square grid of even elements with invertible body."""
    _, binv, powers = _factor(grid_array(M, len(M), n), n, "matrix body")
    return array_grid(_inverse(binv, powers, n), n)


# -- Berezinians ----------------------------------------------------------------

def _schur_ber(A: SuperMatrix, star: bool) -> GrassmannScalar:
    """det(S) det(P)^-1, S = K - a P^-1 b: ber with pivot P = Y, ber* with P = X.

    alpha and beta are odd, so A's body is diag(body X, body Y) and S has the
    body of K.  The one body test is the whole-matrix test of
    ``invert_matrix``, made before any Lambda product, so a singular matrix
    raises at once; P and S are then factored without testing again.
    """
    if not A.is_square():
        raise DimensionError("Berezinian of a non-square supermatrix")
    A.require_even()
    n, D = A.n, A.array
    body = D[0]
    _require_invertible_body(body, "matrix body")
    k = A.row_shape[0]
    X, alpha, beta, Y = D[:, :k, :k], D[:, :k, k:], D[:, k:, :k], D[:, k:, k:]
    xbody, ybody = body[:k, :k], body[k:, k:]
    K, a, P, b, kbody, pbody = ((Y, beta, X, alpha, ybody, xbody) if star
                                else (X, alpha, Y, beta, xbody, ybody))
    pinv, ppowers = _series(P, pbody, n)
    S = K - array_mul(array_mul(a, _inverse(pinv, ppowers, n), n), b, n)
    _, spowers = _series(S, kbody, n)
    dS, dP_inv = _det(kbody, spowers, n), _det(pbody, ppowers, n).invert()
    return dP_inv * dS if star else dS * dP_inv  # each formula's own factor order


def berezinian(A: SuperMatrix) -> GrassmannScalar:
    """ber(A) = det(X - alpha Y^-1 beta) det(Y)^-1 for square even A."""
    return _schur_ber(A, star=False)


def berezinian_star(A: SuperMatrix) -> GrassmannScalar:
    """ber*(A) = det(X)^-1 det(Y - beta X^-1 alpha); equals ber(A)^-1."""
    return _schur_ber(A, star=True)


def invert_matrix(A: SuperMatrix) -> SuperMatrix:
    """Exact inverse of a square matrix with invertible body (Neumann series)."""
    if not A.is_square():
        raise DimensionError("inverse of a non-square supermatrix")
    _, binv, powers = _factor(A.array, A.n, "matrix body")
    return SuperMatrix._of(A.row_shape, A.col_shape, A.n, _inverse(binv, powers, A.n))


# -- quasideterminants -----------------------------------------------------------

def _same_class(A: SuperMatrix, i: int, j: int) -> bool:
    return (i < A.row_shape[0]) == (j < A.col_shape[0])


def _quasidet_functional(A: SuperMatrix, i: int, j: int):
    """Y -> |A_i(y)|_{ij} = y_j - sum_{p!=j, q!=i} y_p c^{(ij)}_{pq} a_qj, C = (A^{ij})^-1.

    Y holds rows y as a (2^n, rows, m) array; the result is (2^n, rows), one
    quasideterminant per row.  The column contraction sum_q c_pq a_qj is
    formed once, so all the rows cost one product.
    """
    n = A.n
    corr = array_mul(invert_matrix(A.delete(i, j)).array,
                     np.delete(A.array[:, :, j:j + 1], i, axis=1), n)

    def evaluate(Y: np.ndarray) -> np.ndarray:
        if Y.shape[2] != A.nrows:
            raise DimensionError("substituted row has wrong length")
        return Y[:, :, j] - array_mul(np.delete(Y, j, axis=2), corr, n)[:, :, 0]

    return evaluate


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
    return array_elements(_quasidet_functional(A, i, j)(A.array[:, i:i + 1]), A.n)[0]


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
    element per row.  The inverse of A^{ij} and the minor Berezinian are
    cached, so sweeping many substituted rows (as the Baker-vector formulas
    do) costs one inversion and one product.
    """
    fn = berezinian_star if star else berezinian
    last_error: Exception | None = None
    columns = [j] if j is not None else [c for c in range(A.ncols) if _same_class(A, i, c)]
    for col in columns:
        if not _same_class(A, i, col):
            raise ParityError("substitution column in the wrong parity class")
        try:
            minor = fn(A.delete(i, col))
            qdet = _quasidet_functional(A, i, col)
        except NotInvertibleError as exc:
            last_error = exc
            continue
        signed_minor = minor * (-1.0 if (i + col) & 1 else 1.0)
        return lambda Y: [q * signed_minor for q in array_elements(qdet(Y), A.n)]
    raise NotInvertibleError("no admissible column for the substituted Berezinian") \
        from last_error


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
    """Solve x A = y via x_i = ber(A_i(y))/ber(A) (ber* in the odd slots)."""
    A = system.matrix
    A.require_even()
    Y = _row_array(system.rhs, A.nrows, A.n)
    ber_A = berezinian(A)
    ber_A_inv = ber_A.invert()
    ber_star_A_inv = ber_A  # ber* = 1/ber
    out = []
    for i in range(A.nrows):
        star = i >= A.row_shape[0]
        value = substitution_functional(A, i, star=star)(Y)[0]
        out.append(value * (ber_star_A_inv if star else ber_A_inv))
    return out


def solve_via_inverse(system: SuperLinearSystem) -> List[GrassmannScalar]:
    """x = y A^-1, the direct route used to cross-check Cramer."""
    return apply_row_vector(system.rhs, invert_matrix(system.matrix))


# -- the C-expansion oracle ---------------------------------------------------------

def _mult_operator(a: GrassmannScalar, left: bool) -> np.ndarray:
    """Matrix of x -> a*x (left) or x -> x*a on the 2^n monomial basis.

    Built from merge signs directly, independent of ``GrassmannScalar.__mul__``.
    """
    dim = 1 << a.n
    M = np.zeros((dim, dim), dtype=complex)
    for t, v in a.terms.items():
        for s in range(dim):
            if s & t:
                continue
            M[s | t, s] += (sign_of_merge(t, s) if left else sign_of_merge(s, t)) * v
    return M


def right_mult_operator(a: GrassmannScalar) -> np.ndarray:
    """Matrix of x -> x*a on the 2^n monomial basis (column index = mask of x)."""
    return _mult_operator(a, left=False)


def left_mult_operator(a: GrassmannScalar) -> np.ndarray:
    """Matrix of x -> a*x on the 2^n monomial basis."""
    return _mult_operator(a, left=True)


def expand_vector(vs: Sequence[GrassmannScalar], n: int) -> np.ndarray:
    dim = 1 << n
    out = np.zeros(len(vs) * dim, dtype=complex)
    for i, v in enumerate(vs):
        for m, c in v.terms.items():
            out[i * dim + m] = c
    return out


def assemble_vector(flat: np.ndarray, count: int, n: int) -> List[GrassmannScalar]:
    """Read count elements off a flat solution, dropping what is below 1e-12 of its largest entry."""
    dim = 1 << n
    cutoff = 1e-12 * float(np.abs(flat).max(initial=0.0))
    out = []
    for i in range(count):
        terms = {}
        for m in range(dim):
            c = flat[i * dim + m]
            if abs(c) > cutoff:
                terms[m] = complex(c)
        out.append(GrassmannScalar(n, terms))
    return out


def oracle_solve(system: SuperLinearSystem) -> List[GrassmannScalar]:
    """Expand x A = y into one large complex linear system and solve it.

    Independent of the Berezinian machinery: each Lambda entry becomes a
    2^n x 2^n right-multiplication block and the flat system is solved by
    standard elimination.
    """
    A = system.matrix
    m = A.nrows
    n = A.n
    dim = 1 << n
    entries = A.entries
    big = np.zeros((m * dim, m * dim), dtype=complex)
    for i in range(m):
        for j in range(m):
            a = entries[i][j]
            if a.terms:
                big[j * dim:(j + 1) * dim, i * dim:(i + 1) * dim] = right_mult_operator(a)
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
