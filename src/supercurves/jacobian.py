"""Period-matrix invariants of generic SKP curves.

This module consumes normalized period data

    Pi = [[0, 1_g], [Z_o, Z_e]]

(the contour geometry that produces it is out of scope) and implements the
algebraic consequences: the connecting homomorphism Q = Pi^t I Pi, the
cohomology of the dual curve from kernels/cokernels of Z_o over the monomial
expansion, the Riemann bilinear identity, the pair relation
(Z_e - Z_e^t) a + Z_o A = 0, projectedness flags, super Riemann-Roch
bookkeeping, and the Jacobian lattice generators.

``PeriodData`` holds Z_e and Z_o as (2^n, rows, cols) arrays, the layout of
``grassmann.grid_array``, and nothing else; its grid-valued ``Z_e`` and
``Z_o`` are built from them on each read.  Q is slices and transposes of the
two arrays, or two ``array_mul`` products of the Pi and I arrays on the
literal route; the monomial expansions of the cohomology and the pair
construction are one gather each (``supermatrix.expand_left_map``), and
period vectors meet the blocks in one ``array_mul``.  Transposes here are
plain: entry (i, j) moves to (j, i) unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DomainError, ParityError
from .grassmann import (Grid, GrassmannScalar, array_elements, array_grid, array_mul, as_grassmann,
                        grid_array, parity_violations)
from .supermatrix import SuperMatrix, expand_left_map, expand_vector


def _column(v: Sequence, n: int) -> np.ndarray:
    """The elements (or numbers) of v as a (2^n, len(v), 1) column."""
    return expand_vector([as_grassmann(x, n) for x in v], n).reshape(len(v), 1 << n).T[:, :, None]


class PeriodData:
    """Normalized period matrix blocks of a generic SKP curve.

    The constructor takes grids (entries may be plain numbers) and keeps the
    arrays ``ze`` (2^n, g, g) and ``zo`` (2^n, g, g - 1) alone.
    """

    def __init__(self, g: int, Z_e: Grid, Z_o: Grid, n: int):
        if g < 1:
            raise DimensionError("genus must be positive")
        for data, cols in ((Z_e, g), (Z_o, g - 1)):
            if len(data) != g or any(len(r) != cols for r in data):
                raise DimensionError(f"grid must be {g}x{cols}")
        self.g, self.n = g, n
        self.ze, self.zo = grid_array(Z_e, g, n), grid_array(Z_o, g - 1, n)
        if parity_violations(self.ze, [0] * g, [0] * g).any():
            raise ParityError("Z_e entries must be even")
        if parity_violations(self.zo, [1] * g, [0] * (g - 1)).any():  # odd: no body either
            raise ParityError("Z_o entries must be odd (zero body)")
        im = self.ze[0].imag
        if float(np.linalg.eigvalsh((im + im.T) / 2.0).min()) <= 0:
            raise DomainError("Im reduce(Z_e) is not positive definite")

    @property
    def Z_e(self) -> Grid:
        return array_grid(self.ze, self.n)

    @property
    def Z_o(self) -> Grid:
        return array_grid(self.zo, self.n)

    def reduced(self) -> np.ndarray:
        return self.ze[0].copy()


def _antisymmetric_part(pd: PeriodData) -> np.ndarray:
    """Z_e - Z_e^t as an array."""
    return pd.ze - pd.ze.swapaxes(1, 2)


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
        col = _column(a, n)
        if np.abs(array_mul(pd.zo.swapaxes(1, 2), col, n)).max(initial=0.0) > tol:
            raise DomainError("a-periods do not lie in Ker(Z_o^t)")
        return cls(a=a, b=array_elements(array_mul(pd.ze.swapaxes(1, 2), col, n)[:, :, 0], n))


def full_period_matrix(pd: PeriodData) -> np.ndarray:
    """Pi = [[0, 1_g], [Z_o, Z_e]], rows (a-periods | b-periods), as a (2^n, 2g, 2g - 1) array."""
    g = pd.g
    Pi = np.zeros((1 << pd.n, 2 * g, 2 * g - 1), dtype=complex)
    Pi[0, :g, g - 1:] = np.eye(g)
    Pi[:, g:, :g - 1] = pd.zo
    Pi[:, g:, g - 1:] = pd.ze
    return Pi


def intersection_form(g: int, n: int) -> np.ndarray:
    """I = [[0, -1_g], [1_g, 0]] on the symplectic homology basis, as a (2^n, 2g, 2g) array."""
    I = np.zeros((1 << n, 2 * g, 2 * g), dtype=complex)
    I[0, :g, g:] = -np.eye(g)
    I[0, g:, :g] = np.eye(g)
    return I


def connecting_map(pd: PeriodData, via_full_matrix: bool = False) -> SuperMatrix:
    """Matrix of the connecting homomorphism: Q = Pi^t I Pi = [[0, Z_o^t], [-Z_o, Z_e^t - Z_e]].

    ``via_full_matrix`` computes the literal triple product instead of the
    block formula; the two agree exactly.
    """
    g, n = pd.g, pd.n
    if via_full_matrix:
        Pi = full_period_matrix(pd)
        Q = array_mul(array_mul(Pi.swapaxes(1, 2), intersection_form(g, n), n), Pi, n)
    else:
        Q = np.zeros((1 << n, 2 * g - 1, 2 * g - 1), dtype=complex)
        Q[:, :g - 1, g - 1:] = pd.zo.swapaxes(1, 2)
        Q[:, g - 1:, :g - 1] = -pd.zo
        Q[:, g - 1:, g - 1:] = pd.ze.swapaxes(1, 2) - pd.ze
    return SuperMatrix._of((g - 1, g), (g - 1, g), n, Q)


# -- cohomology of the dual curve -------------------------------------------------


def _parity_mask_indices(n: int, parity: int) -> np.ndarray:
    return np.array([m for m in range(1 << n) if (m.bit_count() & 1) == parity], dtype=int)


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
    At g = 1, Z_o has no columns and both expansions are empty.
    """
    g, n = pd.g, pd.n
    dim = 1 << n
    big = expand_left_map(pd.zo, n)
    rank = _rank(big)
    cols = g - 1
    dim_ker = cols * dim - rank
    dim_coker = g * dim - rank

    rank_t = _rank(expand_left_map(pd.zo.swapaxes(1, 2), n))
    dim_ker_t = g * dim - rank_t
    dim_coker_t = cols * dim - rank_t

    rank_odd = _rank(big[:, (np.arange(cols)[:, None] * dim + _parity_mask_indices(n, 1)).ravel()])
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
    if len(a_omega) != g or len(A_vec) != g - 1:
        raise DimensionError("period vector lengths do not match the genus")
    left = np.concatenate([_antisymmetric_part(pd), pd.zo], axis=2)
    return array_elements(array_mul(left, _column([*a_omega, *A_vec], n), n)[:, :, 0], n)


def construct_bilinear_pair(pd: PeriodData, rng=None):
    """A pair of differentials with opposite periods, built from the relation kernel.

    Solves (Z_e - Z_e^t) a + Z_o A = 0 together with Z_o^t a = 0 over the
    parity-restricted monomial expansion (a odd, A even), then completes the
    b-periods through the period matrix.  Returns (a, b, a_hat, b_hat, A).
    """
    g, n = pd.g, pd.n
    dim = 1 << n
    system = np.zeros((1 << n, 2 * g - 1, 2 * g - 1), dtype=complex)
    system[:, :g, :g] = _antisymmetric_part(pd)
    system[:, :g, g:] = pd.zo
    system[:, g:, :g] = pd.zo.swapaxes(1, 2)

    # restrict: a-slots odd, A-slots even; at n = 0 the a-slots hold nothing
    odd = _parity_mask_indices(n, 1)
    even = _parity_mask_indices(n, 0)
    sel = np.concatenate([(np.arange(g)[:, None] * dim + odd).ravel(),
                          (np.arange(g, 2 * g - 1)[:, None] * dim + even).ravel()])
    restricted = expand_left_map(system, n)[:, sel]
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
    vec = np.where(np.abs(vec) > 1e-12, vec, 0)
    coeffs = np.zeros((dim, 2 * g - 1), dtype=complex)  # column c holds slot c: a, then A
    split = g * len(odd)
    coeffs[odd[:, None], np.arange(g)] = vec[:split].reshape(g, len(odd)).T
    coeffs[even[:, None], np.arange(g, 2 * g - 1)] = vec[split:].reshape(g - 1, len(even)).T
    b = array_mul(np.concatenate([pd.ze, pd.zo], axis=2), coeffs[:, :, None], n)
    a_hat = -coeffs[:, :g, None]
    b_hat = array_mul(pd.ze.swapaxes(1, 2), a_hat, n)
    a, A = array_elements(coeffs[:, :g], n), array_elements(coeffs[:, g:], n)
    return a, array_elements(b[:, :, 0], n), array_elements(a_hat[:, :, 0], n), \
        array_elements(b_hat[:, :, 0], n), A


# -- flags and bookkeeping --------------------------------------------------------------


def projectedness_flags(pd: PeriodData, tol: float = 0.0) -> Dict[str, bool]:
    """Z_e symmetric and Z_o = 0 iff the curve is projected."""
    ze_sym = bool(np.abs(_antisymmetric_part(pd)).max() <= tol)
    zo_zero = bool(np.abs(pd.zo).max(initial=0.0) <= tol)
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
    for ze_row, zo_row in zip(pd.Z_e, pd.Z_o):
        gens.append(LatticeTranslation(ze_row, zo_row))
    return gens
