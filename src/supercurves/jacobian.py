"""Period-matrix invariants of generic SKP curves.

This module consumes normalized period data

    Pi = [[0, 1_g], [Z_o, Z_e]]

(the contour geometry that produces it is out of scope) and implements the
algebraic consequences: the connecting homomorphism Q = Pi^t I Pi, the
cohomology of the dual curve from kernels/cokernels of Z_o over the monomial
expansion, the Riemann bilinear identity, the pair relation
(Z_e - Z_e^t) a + Z_o A = 0, projectedness flags, super Riemann-Roch
bookkeeping, and the Jacobian lattice generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DomainError, ParityError
from .grassmann import Grid, GrassmannScalar, as_grassmann, grid_body, grid_mul, grid_zeros
from .supermatrix import SuperMatrix, left_mult_operator


def _coerce_grid(rows: int, cols: int, data, n: int) -> Grid:
    if len(data) != rows or any(len(r) != cols for r in data):
        raise DimensionError(f"grid must be {rows}x{cols}")
    return [[as_grassmann(e, n) for e in row] for row in data]


def _transpose(G: Grid) -> Grid:
    return [list(col) for col in zip(*G)]


def _apply(M: Grid, v: Sequence[GrassmannScalar], n: int) -> List[GrassmannScalar]:
    """The column vector M v."""
    return [row[0] for row in grid_mul(M, [[x] for x in v], n)]


def _antisymmetric_part(pd: "PeriodData") -> Grid:
    """Z_e - Z_e^t."""
    return [[a - b for a, b in zip(row, col)] for row, col in zip(pd.Z_e, zip(*pd.Z_e))]


@dataclass
class PeriodData:
    """Normalized period matrix blocks of a generic SKP curve."""

    g: int
    Z_e: Grid
    Z_o: Grid
    n: int

    def __post_init__(self):
        g = self.g
        if g < 1:
            raise DimensionError("genus must be positive")
        self.Z_e = _coerce_grid(g, g, self.Z_e, self.n)
        self.Z_o = _coerce_grid(g, max(g - 1, 0), self.Z_o, self.n)
        for row in self.Z_e:
            for e in row:
                if e.terms and e.parity() != 0:
                    raise ParityError("Z_e entries must be even")
        for row in self.Z_o:
            for e in row:
                if e.terms and (e.parity() != 1 or e.body != 0):
                    raise ParityError("Z_o entries must be odd (zero body)")
        im = grid_body(self.Z_e, g).imag
        if g and float(np.linalg.eigvalsh((im + im.T) / 2.0).min()) <= 0:
            raise DomainError("Im reduce(Z_e) is not positive definite")

    def reduced(self) -> np.ndarray:
        return grid_body(self.Z_e, self.g)

    def Z_o_transposed(self) -> Grid:
        return _transpose(self.Z_o)


@dataclass
class DualPeriodVector:
    """Periods of a dual-curve differential: a determines b through Z_e^t.

    Valid vectors satisfy Z_o^t a = 0 and b = Z_e^t a.
    """

    a: List[GrassmannScalar]
    b: List[GrassmannScalar]

    @classmethod
    def from_a_periods(cls, pd: PeriodData, a: Sequence[GrassmannScalar],
                       tol: float = 1e-10) -> "DualPeriodVector":
        g, n = pd.g, pd.n
        if len(a) != g:
            raise DimensionError("a-period vector must have length g")
        a = [as_grassmann(v, n) for v in a]
        for v in a:
            if v.terms and v.parity() != 1:
                raise ParityError("dual a-periods must be odd")
        if any(v.norm_inf() > tol for v in _apply(pd.Z_o_transposed(), a, n)):
            raise DomainError("a-periods do not lie in Ker(Z_o^t)")
        return cls(a=a, b=_apply(_transpose(pd.Z_e), a, n))


def full_period_matrix(pd: PeriodData) -> Grid:
    """Pi = [[0, 1_g], [Z_o, Z_e]], rows (a-periods | b-periods)."""
    g, n = pd.g, pd.n
    zero = GrassmannScalar.zero(n)
    one = GrassmannScalar.one(n)
    top = [[zero] * (g - 1) + [one if i == j else zero for j in range(g)] for i in range(g)]
    bot = [list(pd.Z_o[i]) + list(pd.Z_e[i]) for i in range(g)]
    return top + bot


def intersection_form(g: int, n: int) -> Grid:
    """I = [[0, -1_g], [1_g, 0]] on the symplectic homology basis."""
    one = GrassmannScalar.one(n)
    M = grid_zeros(2 * g, 2 * g, n)
    for i in range(g):
        M[i][g + i] = -one
        M[g + i][i] = one
    return M


def connecting_map(pd: PeriodData, via_full_matrix: bool = False) -> SuperMatrix:
    """Matrix of the connecting homomorphism: Q = Pi^t I Pi = [[0, Z_o^t], [-Z_o, Z_e^t - Z_e]].

    ``via_full_matrix`` computes the literal triple product instead of the
    block formula; the two agree exactly.
    """
    g, n = pd.g, pd.n
    m = 2 * g - 1
    if via_full_matrix:
        Pi = full_period_matrix(pd)
        I = intersection_form(g, n)
        Q = grid_mul(grid_mul(_transpose(Pi), I, n), Pi, n)
    else:
        Q = grid_zeros(m, m, n)
        for a in range(g - 1):
            for j in range(g):
                Q[a][g - 1 + j] = pd.Z_o[j][a]          # Z_o^t block
                Q[g - 1 + j][a] = -pd.Z_o[j][a]         # -Z_o block
        for i in range(g):
            for j in range(g):
                Q[g - 1 + i][g - 1 + j] = pd.Z_e[j][i] - pd.Z_e[i][j]
    return SuperMatrix((g - 1, g), (g - 1, g), Q)


# -- cohomology of the dual curve -------------------------------------------------


def expand_left_map(M: Grid, n: int) -> np.ndarray:
    """C-expansion of x -> M x over the 2^n monomial basis of each slot."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    dim = 1 << n
    big = np.zeros((rows * dim, cols * dim), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            e = M[i][j]
            if e.terms:
                big[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = left_mult_operator(e)
    return big


def _parity_mask_indices(n: int, parity: int) -> np.ndarray:
    return np.array([m for m in range(1 << n) if (m.bit_count() & 1) == parity], dtype=int)


def _restrict_columns(big: np.ndarray, cols: int, n: int, parity: int) -> np.ndarray:
    dim = 1 << n
    idx = _parity_mask_indices(n, parity)
    sel = np.concatenate([idx + c * dim for c in range(cols)]) if cols else np.array([], dtype=int)
    return big[:, sel]


def _rank(M: np.ndarray) -> int:
    """Singular values above 1e-9 of the largest: a rank blind to the scale of M."""
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int((s > 1e-9 * s[0]).sum())


@dataclass
class DualCohomologyReport:
    """C-dimensions and freeness verdicts for the dual-curve cohomology."""

    g: int
    n: int
    dim_ker: int            # H^0(X, O_dual)/Lambda  ~ Ker(Z_o)
    dim_coker: int          # H^1(X, O_dual)         ~ Coker(Z_o)
    dim_ker_t: int          # H^0(X, Ber_dual)       ~ Ker(Z_o^t)
    dim_coker_t: int        # submodule of H^1(X, Ber_dual) with quotient Lambda
    ker_free: bool
    coker_free: bool
    ker_t_free: bool
    coker_t_free: bool
    dim_ker_odd: int        # kernel of Z_o restricted to odd-parity inputs
    rank_odd: int           # rank of the same restriction
    dim_domain_odd: int     # (g-1) * 2^(n-1)

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def dual_cohomology(pd: PeriodData) -> DualCohomologyReport:
    """Kernel/cokernel data of Z_o and Z_o^t over the monomial expansion.

    A module is reported free when its C-dimension equals 2^n times the split
    (reduced) dimension, which is what freeness amounts to for these modules.
    """
    g, n = pd.g, pd.n
    dim = 1 << n
    big = expand_left_map(pd.Z_o, n) if g > 1 else np.zeros((g * dim, 0))
    rank = _rank(big)
    cols = g - 1
    dim_ker = cols * dim - rank
    dim_coker = g * dim - rank

    big_t = expand_left_map(pd.Z_o_transposed(), n) if g > 1 else np.zeros((0, g * dim))
    if g == 1:
        big_t = np.zeros((0, g * dim))
    rank_t = _rank(big_t)
    dim_ker_t = g * dim - rank_t
    dim_coker_t = cols * dim - rank_t

    odd = _restrict_columns(big, cols, n, parity=1)
    rank_odd = _rank(odd)
    dim_domain_odd = cols * (dim // 2) if n > 0 else 0
    dim_ker_odd = dim_domain_odd - rank_odd

    return DualCohomologyReport(
        g=g, n=n,
        dim_ker=dim_ker, dim_coker=dim_coker,
        dim_ker_t=dim_ker_t, dim_coker_t=dim_coker_t,
        ker_free=dim_ker == cols * dim,
        coker_free=dim_coker == g * dim,
        ker_t_free=dim_ker_t == g * dim,
        coker_t_free=dim_coker_t == cols * dim,
        dim_ker_odd=dim_ker_odd, rank_odd=rank_odd,
        dim_domain_odd=dim_domain_odd,
    )


def curve_cohomology(g: int) -> Dict[str, Tuple[int, int]]:
    """Free ranks (even | odd) of the structure and dualizing sheaf cohomology."""
    return {
        "H0_O": (1, 0),
        "H1_O": (g, g - 1),
        "H0_Ber": (g - 1, g),
        "H1_Ber": (0, 1),
    }


# -- bilinear relations --------------------------------------------------------------


def bilinear_check(periods: Tuple[Sequence[GrassmannScalar], Sequence[GrassmannScalar]],
                   periods_dual: Tuple[Sequence[GrassmannScalar], Sequence[GrassmannScalar]]
                   ) -> GrassmannScalar:
    """sum_i a_i(w) b_i(w_dual) - sum_i a_i(w_dual) b_i(w), evaluated in Lambda."""
    a, b = periods
    ah, bh = periods_dual
    if not len(a) == len(b) == len(ah) == len(bh):
        raise DimensionError("period vectors must share the genus")
    n = max((v.n for v in (*a, *b, *ah, *bh) if isinstance(v, GrassmannScalar)), default=0)
    acc = GrassmannScalar.zero(n)
    for ai, bi, ahi, bhi in zip(a, b, ah, bh):
        acc = acc + as_grassmann(ai, n) * as_grassmann(bhi, n) \
                  - as_grassmann(ahi, n) * as_grassmann(bi, n)
    return acc


def pair_relation_check(pd: PeriodData, a_omega: Sequence[GrassmannScalar],
                        A_vec: Sequence[GrassmannScalar]) -> List[GrassmannScalar]:
    """(Z_e - Z_e^t) a + Z_o A, zero iff the pair extends to a global section."""
    g, n = pd.g, pd.n
    if len(a_omega) != g or len(A_vec) != max(g - 1, 0):
        raise DimensionError("period vector lengths do not match the genus")
    left = [anti + zo for anti, zo in zip(_antisymmetric_part(pd), pd.Z_o)]
    return _apply(left, [as_grassmann(v, n) for v in (*a_omega, *A_vec)], n)


def construct_bilinear_pair(pd: PeriodData, rng=None):
    """A pair of differentials with opposite periods, built from the relation kernel.

    Solves (Z_e - Z_e^t) a + Z_o A = 0 together with Z_o^t a = 0 over the
    parity-restricted monomial expansion (a odd, A even), then completes the
    b-periods through the period matrix.  Returns (a, b, a_hat, b_hat, A).
    """
    g, n = pd.g, pd.n
    dim = 1 << n
    anti = _antisymmetric_part(pd)
    top = np.concatenate([expand_left_map(anti, n), expand_left_map(pd.Z_o, n)], axis=1) \
        if g > 1 else expand_left_map(anti, n)
    bot_a = expand_left_map(pd.Z_o_transposed(), n) if g > 1 else np.zeros((0, g * dim))
    bot = np.concatenate([bot_a, np.zeros((bot_a.shape[0], (g - 1) * dim))], axis=1)
    system = np.concatenate([top, bot], axis=0)

    # restrict: a-slots odd, A-slots even
    odd = _parity_mask_indices(n, 1)
    even = _parity_mask_indices(n, 0)
    sel = np.concatenate([np.concatenate([odd + c * dim for c in range(g)]),
                          np.concatenate([even + (g + c) * dim for c in range(g - 1)])
                          if g > 1 else np.array([], dtype=int)])
    restricted = system[:, sel]
    _, s, vh = np.linalg.svd(restricted)
    tol = max(restricted.shape) * (s[0] if s.size else 1.0) * 1e-12
    null = vh[np.sum(s > tol):].conj() if s.size else vh.conj()
    if null.shape[0] == 0:
        raise DomainError("relation kernel is trivial; no pair exists")
    if rng is None:
        vec = null[0]
    else:
        w = rng.standard_normal(null.shape[0]) + 1j * rng.standard_normal(null.shape[0])
        vec = w @ null
    half = dim // 2 if n > 0 else 1

    def scatter(offset: int, count: int, masks) -> List[GrassmannScalar]:
        out = []
        for c in range(count):
            terms = {}
            for r, mask in enumerate(masks):
                v = vec[offset + c * len(masks) + r]
                if abs(v) > 1e-12:
                    terms[int(mask)] = complex(v)
            out.append(GrassmannScalar(n, terms))
        return out

    a = scatter(0, g, odd)
    A = scatter(g * half, g - 1, even) if g > 1 else []
    b = _apply([ze + zo for ze, zo in zip(pd.Z_e, pd.Z_o)], a + A, n)
    a_hat = [-ai for ai in a]
    b_hat = _apply(_transpose(pd.Z_e), a_hat, n)
    return a, b, a_hat, b_hat, A


# -- flags and bookkeeping --------------------------------------------------------------


def projectedness_flags(pd: PeriodData, tol: float = 0.0) -> Dict[str, bool]:
    """Z_e symmetric and Z_o = 0 iff the curve is projected."""
    g = pd.g
    ze_sym = all((pd.Z_e[i][j] - pd.Z_e[j][i]).norm_inf() <= tol
                 for i in range(g) for j in range(g))
    zo_zero = all(e.norm_inf() <= tol for row in pd.Z_o for e in row)
    return {"Ze_symmetric": ze_sym, "Zo_zero": zo_zero, "projected": ze_sym and zo_zero}


def riemann_roch(deg_L: int, g: int, deg_N: int) -> Tuple[int, int]:
    """h0 - h1 = (deg L + 1 - g | deg L + deg N + 1 - g)."""
    return (deg_L + 1 - g, deg_L + deg_N + 1 - g)


@dataclass
class LatticeTranslation:
    """Affine lattice action on (z, eta) from one period-matrix column."""

    dz: List[GrassmannScalar]
    deta: List[GrassmannScalar]

    def apply(self, z: Sequence, eta: Sequence) -> Tuple[List[GrassmannScalar], List[GrassmannScalar]]:
        if len(z) != len(self.dz) or len(eta) != len(self.deta):
            raise DimensionError("argument lengths do not match the lattice shift")
        n = max([v.n for v in self.dz + self.deta] or [0])
        z2 = [as_grassmann(v, n) + d for v, d in zip(z, self.dz)]
        e2 = [as_grassmann(v, n) + d for v, d in zip(eta, self.deta)]
        return z2, e2

    def inverse(self) -> "LatticeTranslation":
        return LatticeTranslation([-d for d in self.dz], [-d for d in self.deta])


def lattice_generators(pd: PeriodData) -> List[LatticeTranslation]:
    """The 2g generators: unit shifts of z, then rows of (Z_e | Z_o)."""
    g, n = pd.g, pd.n
    zero = GrassmannScalar.zero(n)
    one = GrassmannScalar.one(n)
    gens = []
    for i in range(g):
        gens.append(LatticeTranslation([one if j == i else zero for j in range(g)],
                                       [zero] * (g - 1)))
    for i in range(g):
        gens.append(LatticeTranslation(list(pd.Z_e[i]), list(pd.Z_o[i])))
    return gens
