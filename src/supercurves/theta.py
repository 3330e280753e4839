"""Riemann theta functions with nilpotent-augmented arguments.

The quadratic-form convention is

    Theta(z; Z) = sum_n exp(pi i n^t Z n + 2 pi i n^t z),

with the entries of Z treated as independent (no symmetry is imposed at
evaluation time; symmetric inputs reproduce the classical values).  Nilpotent
parts of z and Z are expanded exactly around the complex bodies: the soul of
the exponent at a lattice point n is sum_m s_m(n) e_m over even monomials
e_m, with s_m(n) = 2 pi i n^t z_m + pi i n^t Z_m n.  Even monomials commute
and square to zero, so its exponential is the finite product
prod_m (1 + s_m(n) e_m), with no truncation; each monomial that product
reaches is one complex vector over the truncated lattice.

One argument z costs one lattice pass (``theta_jet``): Theta and every z-derivative
d^m Theta it needs are weight rows prod_j (2 pi i n_j)^{m_j} on the same sum.

The odd characteristic Theta_11 is realized by the half-integer shift of the
same sum.  Super theta functions are built by repeatedly applying

    H_alpha = eta_alpha + (1/2 pi i) sum_k Z_{k alpha} d/dz_k

to Theta; with vanishing odd periods this reduces to eta_alpha...eta_gamma
times Theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import DimensionError, DomainError, ParityError
from .grassmann import GrassmannScalar, as_grassmann, grid_array, parity_violations, sign_of_merge

TWO_PI_I = 2j * math.pi
PI_I = 1j * math.pi

CHAR_PLAIN = "0"
CHAR_ODD = "11"
_MAX_DERIVATIVE_ORDER = 4


def default_truncation(Z_red: np.ndarray) -> int:
    """The cube radius N = max(8, ceil(5 / sqrt(lambda_min(Im Z)))).

    A heuristic, not a tail bound: it counts neither the polynomial weights
    of derivatives nor the degree of the soul expansion.
    """
    lam = float(np.linalg.eigvalsh(Z_red.imag).min())
    if lam <= 0:
        raise DomainError("Im Z_red is not positive definite")
    return max(8, math.ceil(5.0 / math.sqrt(lam)))


@dataclass
class ThetaContext:
    """Evaluation context: reduced period matrix, nilpotent augmentation, cutoff."""

    genus: int
    Z_red: np.ndarray
    Z_soul: List[List[GrassmannScalar]] | None = None
    N: int | None = None
    characteristic: str = CHAR_PLAIN
    n_gens: int = 0

    def __post_init__(self):
        self.Z_red = np.asarray(self.Z_red, dtype=complex)
        g = self.genus
        if self.Z_red.shape != (g, g):
            raise DimensionError(f"Z_red must be {g}x{g}")
        N = default_truncation(self.Z_red)  # also checks that Im Z_red > 0
        if self.characteristic not in (CHAR_PLAIN, CHAR_ODD):
            raise DomainError(f"unsupported characteristic {self.characteristic!r}")
        if self.N is None:
            self.N = N
        if self.N < 1:
            raise DomainError("truncation radius must be >= 1")
        # the monomials of Z_soul that occur, and their g x g coefficient slices
        self._soul_masks: List[int] = []
        self._soul_coeffs = np.zeros((0, g, g), dtype=complex)
        if self.Z_soul is not None:
            if len(self.Z_soul) != g or any(len(row) != g for row in self.Z_soul):
                raise DimensionError(f"Z_soul must be {g}x{g}")
            self.n_gens = max([self.n_gens] + [e.n for row in self.Z_soul for e in row])
            S = grid_array([[e.embed(self.n_gens) for e in row] for row in self.Z_soul],
                           g, self.n_gens)
            if S[0].any() or parity_violations(S, [0] * g, [0] * g).any():
                raise ParityError("Z_soul entries must be even with zero body")
            self._soul_masks = S.any(axis=(1, 2)).nonzero()[0].tolist()
            self._soul_coeffs = S[self._soul_masks]
        self._lattice_cache: Dict[int, tuple] = {}

    # characteristic offsets: Theta[a,b](z) = sum exp(pi i P Z P + 2 pi i P (z+b)), P = n+a
    def _char_offsets(self) -> Tuple[float, float]:
        if self.characteristic == CHAR_ODD:
            return 0.5, 0.5
        return 0.0, 0.0

    def lattice(self) -> np.ndarray:
        return self._lattice_plan()[0]

    def _lattice_plan(self) -> tuple:
        """The points P, pi i P^t Z_red P at each, and the soul forms pi i P^t Z_m P
        of the monomials m of Z_soul, keyed by m: all of them z-independent."""
        N = self.N
        plan = self._lattice_cache.get(N)
        if plan is None:
            g = self.genus
            a, _ = self._char_offsets()
            P = np.indices((2 * N + 1,) * g, dtype=float).reshape(g, -1).T - (N - a)
            quad, *forms = [PI_I * np.einsum("ij,jk,ik->i", P, C, P)
                            for C in (self.Z_red, *self._soul_coeffs)]
            plan = self._lattice_cache[N] = (P, quad, dict(zip(self._soul_masks, forms)))
        return plan


def _split_argument(ctx: ThetaContext, z: Sequence) -> Tuple[np.ndarray, Dict[int, np.ndarray], int]:
    """The body of z, its soul as monomial mask -> coefficient vector, and the generator count."""
    g = ctx.genus
    if len(z) != g:
        raise DimensionError(f"argument must have length {g}")
    n = max([ctx.n_gens] + [v.n for v in z if isinstance(v, GrassmannScalar)])
    z0 = np.zeros(g, dtype=complex)
    souls: Dict[int, np.ndarray] = {}
    for j, v in enumerate(z):
        if not isinstance(v, GrassmannScalar):
            z0[j] = v
            continue
        if v.parity() != 0:
            raise ParityError("theta arguments must be even elements")
        for m, c in v.terms.items():
            if m:
                souls.setdefault(m, np.zeros(g, dtype=complex))[j] = c
            else:
                z0[j] = c
    return z0, souls, n


def _lattice_sum(ctx: ThetaContext, z: Sequence, rows: Sequence[Tuple[Sequence[int], complex]]
                 ) -> List[GrassmannScalar]:
    """c sum_n prod_(j in idx) n_j exp(pi i n^t Z n + 2 pi i n^t z) for each row (idx, c).

    The soul of the exponent at n is S(n) = sum_m s_m(n) e_m over even
    monomials e_m.  These commute and square to zero, so exp S(n) =
    prod_m (1 + s_m(n) e_m) exactly: the product is formed factor by factor,
    one lattice vector for each monomial it reaches, and the weight rows meet
    all of them in one matrix product.  Without souls the product is empty.
    """
    z0, z_souls, n = _split_argument(ctx, z)
    P = ctx.lattice()
    _, quad, souls = ctx._lattice_plan()
    _, b = ctx._char_offsets()
    souls = dict(souls)
    for m, c in z_souls.items():
        s = P @ (TWO_PI_I * c)
        souls[m] = souls[m] + s if m in souls else s
    terms = {0: np.exp(quad + P @ (TWO_PI_I * (z0 + b)))}
    for m, s in souls.items():
        for k, v in list(terms.items()):
            if k & m:
                continue
            t = v * s if sign_of_merge(k, m) > 0 else -(v * s)
            km = k | m
            terms[km] = terms[km] + t if km in terms else t
    W = np.ones((len(rows), len(P)))
    for w, (idx, _) in zip(W, rows):
        for j in idx:
            w *= P[:, j]
    sums = (W @ np.array(list(terms.values())).T).tolist()
    return [GrassmannScalar(n, {m: c * v for m, v in zip(terms, row)})
            for (_, c), row in zip(rows, sums)]


def theta_jet(ctx: ThetaContext, z: Sequence, derivs: Sequence[Sequence[int]]
              ) -> List[GrassmannScalar]:
    """d^|m| Theta / dz^m at z for each multi-index m in ``derivs``, from one lattice pass."""
    for m in derivs:
        if len(m) != ctx.genus:
            raise DimensionError("derivative multi-index has wrong length")
        if sum(m) > _MAX_DERIVATIVE_ORDER:
            raise DomainError(f"derivative order above {_MAX_DERIVATIVE_ORDER} unsupported")
    return _lattice_sum(ctx, z, [([j for j, mj in enumerate(m) for _ in range(mj)],
                                  TWO_PI_I ** sum(m)) for m in derivs])


def theta(ctx: ThetaContext, z: Sequence, deriv: Sequence[int] | None = None) -> GrassmannScalar:
    """Truncated lattice sum, exact in the nilpotent directions.

    ``deriv`` is an optional z-derivative multi-index applied term by term.
    """
    return theta_jet(ctx, z, [(0,) * ctx.genus if deriv is None else deriv])[0]


def theta_derivative(ctx: ThetaContext, z: Sequence, order: Sequence[int]) -> GrassmannScalar:
    """d^|order| Theta / dz^order, same truncation as ``theta``."""
    return theta_jet(ctx, z, [order])[0]


def theta_Z_derivative(ctx: ThetaContext, z: Sequence, jk: Tuple[int, int]) -> GrassmannScalar:
    """d Theta / d Z_jk in the independent-entry convention (factor pi i n_j n_k)."""
    return _lattice_sum(ctx, z, [(jk, PI_I)])[0]


# -- super theta functions ---------------------------------------------------------


@dataclass
class SuperThetaFunction:
    """Finite combination sum_m t_m(eta, Z_o) (d/dz)^m Theta attached to a context.

    The odd Jacobian coordinates eta_alpha are realized as designated
    generators of Lambda, so every coefficient t_m is an honest element of the
    coefficient algebra; ``eta_decomposition`` recovers the map from
    eta-monomials to derivative combinations.
    """

    ctx: ThetaContext
    eta_gens: Tuple[int, ...]
    Z_o: List[List[GrassmannScalar]] | None
    terms: Dict[Tuple[int, ...], GrassmannScalar] = field(default_factory=dict)
    n_gens: int = 0

    def evaluate(self, z: Sequence, eta_images: Mapping[int, GrassmannScalar] | None = None) -> GrassmannScalar:
        """H(z, eta); eta_images substitutes the eta generators (shifted arguments)."""
        n = self.n_gens
        zg = [v.embed(n) if isinstance(v, GrassmannScalar) else GrassmannScalar.scalar(n, v)
              for v in z]
        coeffs = {m: c.substitute(eta_images) if eta_images else c for m, c in self.terms.items()}
        coeffs = {m: c for m, c in coeffs.items() if c.terms}
        out = GrassmannScalar.zero(n)
        for coeff, value in zip(coeffs.values(), theta_jet(self.ctx, zg, list(coeffs))):
            out = out + coeff * value
        return out

    def eta_decomposition(self) -> Dict[int, Dict[Tuple[int, ...], GrassmannScalar]]:
        """Map eta-monomial mask -> derivative multi-index -> residual coefficient."""
        eta_mask_all = 0
        for i in self.eta_gens:
            eta_mask_all |= 1 << i
        out: Dict[int, Dict[Tuple[int, ...], GrassmannScalar]] = {}
        for m, coeff in self.terms.items():
            for mask, c in coeff.terms.items():
                emask = mask & eta_mask_all
                rest = mask & ~eta_mask_all
                slot = out.setdefault(emask, {})
                cur = slot.get(m, GrassmannScalar.zero(self.n_gens))
                slot[m] = cur + GrassmannScalar(self.n_gens, {rest: c})
        return out


def build_super_theta(ctx: ThetaContext, Z_o: List[List[GrassmannScalar]] | None,
                      alphas: Sequence[int], eta_gens: Sequence[int],
                      n_gens: int | None = None) -> SuperThetaFunction:
    """Apply H_alpha for each alpha in ``alphas`` (rightmost first) to Theta.

    ``eta_gens[alpha]`` names the Lambda generator playing eta_alpha; Z_o is the
    g x (g-1) odd period block (None for zero).  Repeated alphas are rejected:
    the odd operator component squares to zero and the construction degenerates.
    """
    g = ctx.genus
    if len(set(alphas)) != len(alphas):
        raise DomainError("repeated alpha in super theta construction")
    if any(a < 0 or a >= g - 1 for a in alphas) and g > 1:
        raise DimensionError("alpha out of range")
    if g > 1 and len(eta_gens) != g - 1:
        raise DimensionError("need one eta generator per odd coordinate")
    n = n_gens if n_gens is not None else ctx.n_gens
    for i in eta_gens:
        n = max(n, i + 1)
    if Z_o is not None:
        for col in Z_o:
            for e in col:
                n = max(n, e.n)
                if e.terms and e.parity() != 1:
                    raise ParityError("Z_o entries must be odd")
                if any(m >> i & 1 for m in e.terms for i in eta_gens):
                    raise DomainError("Z_o entries must not use the eta generators")
    terms: Dict[Tuple[int, ...], GrassmannScalar] = {tuple([0] * g): GrassmannScalar.one(n)}
    for alpha in reversed(list(alphas)):
        eta = GrassmannScalar.generator(n, eta_gens[alpha])
        new_terms: Dict[Tuple[int, ...], GrassmannScalar] = {}

        def add(m, coeff):
            cur = new_terms.get(m)
            new_terms[m] = coeff if cur is None else cur + coeff

        for m, coeff in terms.items():
            add(m, eta * coeff)
            for k in range(g):
                zk = Z_o[k][alpha].embed(n) if Z_o is not None else GrassmannScalar.zero(n)
                if zk.terms:
                    m2 = list(m)
                    m2[k] += 1
                    add(tuple(m2), zk * coeff * (1.0 / TWO_PI_I))
        terms = {m: c for m, c in new_terms.items() if c.terms}
    return SuperThetaFunction(ctx=ctx, eta_gens=tuple(eta_gens), Z_o=Z_o,
                              terms=terms, n_gens=n)


def check_multipliers(f: SuperThetaFunction, z: Sequence,
                      eta_images: Mapping[int, GrassmannScalar] | None = None) -> dict:
    """Residuals of the two multiplier families of a (super) theta function.

    Family 1: H(z + e_i, eta) - H(z, eta) for every i.
    Family 2: H(z_j + Z_ij, eta_alpha + Z_i alpha) - exp(-pi i (2 z_i + Z_ii)) H(z, eta).
    Returns the per-family maxima over all Lambda coefficients.
    """
    ctx = f.ctx
    g = ctx.genus
    n = f.n_gens
    zg = [as_grassmann(v, n) for v in z]
    base = f.evaluate(zg, eta_images)
    shift_res = 0.0
    for i in range(g):
        z2 = list(zg)
        z2[i] = z2[i] + 1.0
        shift_res = max(shift_res, (f.evaluate(z2, eta_images) - base).norm_inf())
    quasi_res = 0.0
    for i in range(g):
        z2 = []
        for j in range(g):
            zij = GrassmannScalar.scalar(n, complex(ctx.Z_red[i, j]))
            if ctx.Z_soul is not None and ctx.Z_soul[i][j].terms:
                zij = zij + ctx.Z_soul[i][j].embed(n)
            z2.append(zg[j] + zij)
        images: Dict[int, GrassmannScalar] = {}
        if eta_images:
            images.update(eta_images)
        if f.Z_o is not None:
            for alpha in range(g - 1):
                gen = f.eta_gens[alpha]
                cur = images.get(gen, GrassmannScalar.generator(n, gen))
                images[gen] = cur + f.Z_o[i][alpha].embed(n)
        z_ii = GrassmannScalar.scalar(n, complex(ctx.Z_red[i, i]))
        if ctx.Z_soul is not None and ctx.Z_soul[i][i].terms:
            z_ii = z_ii + ctx.Z_soul[i][i].embed(n)
        exponent = (zg[i] * 2.0 + z_ii) * (-PI_I)
        factor = exponent.exp()
        lhs = f.evaluate(z2, images if images else None)
        quasi_res = max(quasi_res, (lhs - factor * base).norm_inf())
    return {"shift_residual": shift_res, "quasi_residual": quasi_res,
            "max_residual": max(shift_res, quasi_res)}
