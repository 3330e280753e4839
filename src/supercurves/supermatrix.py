"""Supermatrix algebra over a finite Grassmann algebra.

A matrix with (k|l) x (p|q) block parity structure: indices up to k (resp. p)
are the even class.  The matrix is *even* when entry (i, j) is homogeneous of
parity parity(i)+parity(j) mod 2.  For square even matrices this module
provides the Berezinian ber and its reciprocal ber*, Gelfand-Retakh
quasideterminants, exact inversion, and the generalized Cramer's rule solving
x A = y with Berezinian ratios (ber for even slots, ber* for odd slots),
together with a brute-force oracle that expands everything over the 2^n
monomial basis of the coefficient algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionError, NotInvertibleError, ParityError
from .grassmann import (GrassmannScalar, array_grid, array_mul, grid_array, grid_body, grid_mul,
                        grid_zeros, sign_of_merge)

Shape = Tuple[int, int]

_BODY_TOL = 1e-10


class SuperMatrix:
    """Rectangular matrix over Lambda with block parity bookkeeping."""

    __slots__ = ("row_shape", "col_shape", "n", "entries")

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
        self.row_shape = (k, l)
        self.col_shape = (p, q)
        self.n = ns.pop() if ns else 0
        self.entries = [list(row) for row in entries]

    # -- constructors --------------------------------------------------------
    @classmethod
    def identity(cls, shape: Shape, n: int) -> "SuperMatrix":
        m = shape[0] + shape[1]
        ent = [[GrassmannScalar.one(n) if i == j else GrassmannScalar.zero(n) for j in range(m)]
               for i in range(m)]
        return cls(shape, shape, ent)

    @classmethod
    def zero(cls, row_shape: Shape, col_shape: Shape, n: int) -> "SuperMatrix":
        return cls(row_shape, col_shape, grid_zeros(sum(row_shape), sum(col_shape), n))

    # -- shape helpers -------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.row_shape[0] + self.row_shape[1]

    @property
    def ncols(self) -> int:
        return self.col_shape[0] + self.col_shape[1]

    def is_square(self) -> bool:
        return self.row_shape == self.col_shape

    def row_parity(self, i: int) -> int:
        return 0 if i < self.row_shape[0] else 1

    def col_parity(self, j: int) -> int:
        return 0 if j < self.col_shape[0] else 1

    def is_even(self) -> bool:
        """True when every entry is homogeneous of the parity its slot demands."""
        for i, row in enumerate(self.entries):
            rp = self.row_parity(i)
            for j, e in enumerate(row):
                want = (rp + self.col_parity(j)) & 1
                par = e.parity()
                if par is not None and par != want and e.terms:
                    return False
                if par is None:
                    return False
        return True

    def require_even(self) -> None:
        if not self.is_even():
            raise ParityError("matrix is not even for its block structure")

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        if self.row_shape != other.row_shape or self.col_shape != other.col_shape:
            raise DimensionError("shape mismatch in addition")
        ent = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        return SuperMatrix(self.row_shape, self.col_shape, ent)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self + other.scale(-1.0)

    def scale(self, c) -> "SuperMatrix":
        ent = [[e * c for e in row] for row in self.entries]
        return SuperMatrix(self.row_shape, self.col_shape, ent)

    def __matmul__(self, other: "SuperMatrix") -> "SuperMatrix":
        if self.col_shape != other.row_shape:
            raise DimensionError("inner shapes differ in product")
        return SuperMatrix(self.row_shape, other.col_shape,
                           grid_mul(self.entries, other.entries, self.n))

    def row(self, i: int) -> List[GrassmannScalar]:
        return list(self.entries[i])

    def col(self, j: int) -> List[GrassmannScalar]:
        return [row[j] for row in self.entries]

    def with_row(self, i: int, new_row: Sequence[GrassmannScalar]) -> "SuperMatrix":
        ent = [list(r) for r in self.entries]
        ent[i] = list(new_row)
        return SuperMatrix(self.row_shape, self.col_shape, ent)

    def delete(self, i: int, j: int) -> "SuperMatrix":
        """Submatrix A^{ij} with the parity shapes adjusted for the dropped slots."""
        k, l = self.row_shape
        p, q = self.col_shape
        rshape = (k - 1, l) if i < k else (k, l - 1)
        cshape = (p - 1, q) if j < p else (p, q - 1)
        ent = [[e for jj, e in enumerate(row) if jj != j]
               for ii, row in enumerate(self.entries) if ii != i]
        return SuperMatrix(rshape, cshape, ent)

    def blocks(self):
        """(X, alpha, beta, Y) as plain entry grids."""
        k = self.row_shape[0]
        p = self.col_shape[0]
        X = [row[:p] for row in self.entries[:k]]
        alpha = [row[p:] for row in self.entries[:k]]
        beta = [row[:p] for row in self.entries[k:]]
        Y = [row[p:] for row in self.entries[k:]]
        return X, alpha, beta, Y

    def body(self) -> np.ndarray:
        return grid_body(self.entries, self.ncols)

    def max_coeff(self) -> float:
        return max((e.norm_inf() for row in self.entries for e in row), default=0.0)

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


def _require_even_entries(M) -> None:
    for row in M:
        for e in row:
            if e.terms and e.parity() != 0:
                raise ParityError("entry of a commutative determinant is not even")


# -- determinants over the even (commutative) subring ---------------------------

def det_even_laplace(M, n: int) -> GrassmannScalar:
    """Leibniz/Laplace expansion, memoized over column subsets.

    Valid because even elements commute; used as the fallback and as the
    independent check for the exp-tr-log fast path.
    """
    m = len(M)
    if m == 0:
        return GrassmannScalar.one(n)
    _require_even_entries(M)
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
    """Factor a square grid held as an array (``grid_array``) once.

    Runs the body test and returns (body, body^-1, [N, N^2, ...]) with
    N = body^-1 soul, the powers as arrays; see ``_series``.
    """
    body = D[0]
    _require_invertible_body(body, what)
    return (body, *_series(D, body, n))


def _series(D: np.ndarray, body: np.ndarray, n: int):
    """(body^-1, [N, N^2, ...]) for a grid array whose body has passed the body test.

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
    """det(body) exp(sum_r (-1)^(r+1) tr(N^r)/r) for a grid of even entries."""
    logdet = np.zeros(1 << n, dtype=complex)
    for r, power in enumerate(powers, 1):
        logdet += np.trace(power, axis1=1, axis2=2) * ((-1.0) ** (r + 1) / r)
    logdet = GrassmannScalar(n, {m: c for m, c in enumerate(logdet.tolist()) if c})
    return logdet.exp() * complex(np.linalg.det(body))


def _inverse_grid(M, n: int):
    """The inverse of a square grid with invertible body."""
    _, binv, powers = _factor(grid_array(M, len(M), n), n, "matrix body")
    return array_grid(_inverse(binv, powers, n), n)


def det_even(M, n: int | None = None) -> GrassmannScalar:
    """Determinant of a square matrix of even elements of Lambda.

    Uses det(body) * exp(tr log(I + body^-1 soul)) when the body is
    invertible (the series terminates by nilpotency), Laplace expansion
    otherwise.  The two routes agree identically.
    """
    if isinstance(M, SuperMatrix):
        n = M.n
        M = M.entries
    if n is None:
        raise DimensionError("generator count required for raw grids")
    if any(len(r) != len(M) for r in M):
        raise DimensionError("determinant of a non-square matrix")
    _require_even_entries(M)
    try:
        body, _, powers = _factor(grid_array(M, len(M), n), n, "matrix body")
    except NotInvertibleError:
        return det_even_laplace(M, n)
    return _det(body, powers, n)


def invert_even(M, n: int):
    """Inverse of a square matrix of even elements with invertible body."""
    return _inverse_grid(M, n)


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
    n = A.n
    D = grid_array(A.entries, A.ncols, n)
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
    return SuperMatrix(A.row_shape, A.col_shape, _inverse_grid(A.entries, A.n))


# -- quasideterminants -----------------------------------------------------------

def _same_class(A: SuperMatrix, i: int, j: int) -> bool:
    return (i < A.row_shape[0]) == (j < A.col_shape[0])


def _quasidet_functional(A: SuperMatrix, i: int, j: int):
    """y -> |A_i(y)|_{ij} = y_j - sum_{p!=j, q!=i} y_p c^{(ij)}_{pq} a_qj, C = (A^{ij})^-1.

    The column contraction sum_q c_pq a_qj is precomputed once, so each row y
    costs one product per nonzero slot.
    """
    m = A.nrows
    C = invert_matrix(A.delete(i, j))
    column = [[row[j]] for q, row in enumerate(A.entries) if q != i]
    corr = grid_mul(C.entries, column, A.n)
    slots = [(p, c) for p, (c,) in zip((p for p in range(m) if p != j), corr) if c.terms]

    def evaluate(y):
        if len(y) != m:
            raise DimensionError("substituted row has wrong length")
        return y[j] - sum((y[p] * c for p, c in slots if y[p].terms), GrassmannScalar.zero(A.n))

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
        return A.entries[0][0]
    return _quasidet_functional(A, i, j)(A.entries[i])


def _candidate_columns(A: SuperMatrix, i: int):
    k = A.row_shape[0]
    p = A.col_shape[0]
    if i < k:
        return range(p)
    return range(p, A.ncols)


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
    return substitution_functional(A, i, j=j, star=False)(y)


def ber_star_substituted(A: SuperMatrix, i: int, y: Sequence[GrassmannScalar],
                         j: int | None = None) -> GrassmannScalar:
    """ber*(A_i(y)) for i in the odd class (the odd-slot analog)."""
    if i < A.row_shape[0]:
        raise ParityError("ber* substitution requires an odd-class row")
    return substitution_functional(A, i, j=j, star=True)(y)


def substitution_functional(A: SuperMatrix, i: int, j: int | None = None, star: bool = False):
    """Closure computing ber(A_i(y)) (or ber*) for arbitrary rows y.

    The inverse of A^{ij} and the minor Berezinian are cached, so sweeping many
    substituted rows (as the Baker-vector formulas do) costs one inversion.
    """
    fn = berezinian_star if star else berezinian
    last_error: Exception | None = None
    columns = [j] if j is not None else list(_candidate_columns(A, i))
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
        return lambda y: qdet(y) * signed_minor
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
    y = system.rhs
    k = A.row_shape[0]
    ber_A = berezinian(A)
    ber_A_inv = ber_A.invert()
    ber_star_A_inv = ber_A  # ber* = 1/ber
    out = []
    for i in range(A.nrows):
        if i < k:
            out.append(ber_substituted(A, i, y) * ber_A_inv)
        else:
            out.append(ber_star_substituted(A, i, y) * ber_star_A_inv)
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
    dim = 1 << n
    out = []
    for i in range(count):
        terms = {}
        for m in range(dim):
            c = flat[i * dim + m]
            if abs(c) > 1e-12:
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
    big = np.zeros((m * dim, m * dim), dtype=complex)
    for i in range(m):
        for j in range(m):
            a = A.entries[i][j]
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
    return grid_mul([x], A.entries, A.n)[0]


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

    Xb = block_body(k)
    Yb = block_body(l)
    ent = []
    for i in range(m):
        row = []
        for j in range(m):
            want = (int(i >= k) + int(j >= k)) & 1
            e = random_element(rng, n, parity=want, scale=soul_scale)
            e = GrassmannScalar(n, {mask: c for mask, c in e.terms.items() if mask})
            if want == 0:
                if i < k and j < k:
                    e = e + GrassmannScalar.scalar(n, complex(Xb[i, j]))
                elif i >= k and j >= k:
                    e = e + GrassmannScalar.scalar(n, complex(Yb[i - k, j - k]))
            row.append(e)
        ent.append(row)
    return SuperMatrix(shape, shape, ent)


def random_vector(rng, m: int, n: int, scale: float = 1.0) -> List[GrassmannScalar]:
    from .grassmann import random_element

    return [random_element(rng, n, parity=None, scale=scale) for _ in range(m)]
