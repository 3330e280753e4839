"""Riemann theta functions with nilpotent-augmented arguments.

The quadratic-form convention is

    Theta(z; Z) = sum_n exp(pi i n^t Z n + 2 pi i n^t z),

with the entries of Z treated as independent (no symmetry is imposed at
evaluation time; symmetric inputs reproduce the classical values).  Nilpotent
parts of z and Z are handled by an exact, terminating Taylor expansion around
the complex bodies: the soul exponent of every lattice term is a linear
combination of finitely many even nilpotents with polynomial-in-n weights, so
the expansion reduces to complex moment sums over the truncated lattice.

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
from .grassmann import GrassmannScalar, as_grassmann

TWO_PI_I = 2j * math.pi
PI_I = 1j * math.pi

CHAR_PLAIN = "0"
CHAR_ODD = "11"
_MAX_DERIVATIVE_ORDER = 4


def default_truncation(Z_red: np.ndarray) -> int:
    """Gaussian tail bound: N = max(8, ceil(5 / sqrt(lambda_min(Im Z))))."""
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
        lam = float(np.linalg.eigvalsh(self.Z_red.imag).min())
        if lam <= 0:
            raise DomainError("Im Z_red is not positive definite")
        if self.characteristic not in (CHAR_PLAIN, CHAR_ODD):
            raise DomainError(f"unsupported characteristic {self.characteristic!r}")
        if self.N is None:
            self.N = default_truncation(self.Z_red)
        if self.N < 1:
            raise DomainError("truncation radius must be >= 1")
        if self.Z_soul is not None:
            for row in self.Z_soul:
                for e in row:
                    if e.body != 0 or (e.terms and e.parity() != 0):
                        raise ParityError("Z_soul entries must be even with zero body")
                    self.n_gens = max(self.n_gens, e.n)
        self._lattice_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # characteristic offsets: Theta[a,b](z) = sum exp(pi i P Z P + 2 pi i P (z+b)), P = n+a
    def _char_offsets(self) -> Tuple[float, float]:
        if self.characteristic == CHAR_ODD:
            return 0.5, 0.5
        return 0.0, 0.0

    def lattice(self) -> np.ndarray:
        return self._lattice_plan()[0]

    def quad_form(self) -> np.ndarray:
        """n^t Z_red n at each point of ``lattice()``; z-independent, so built with it."""
        return self._lattice_plan()[1]

    def _lattice_plan(self) -> Tuple[np.ndarray, np.ndarray]:
        N = self.N
        plan = self._lattice_cache.get(N)
        if plan is None:
            a, _ = self._char_offsets()
            axes = [np.arange(-N, N + 1, dtype=float) + a] * self.genus
            grid = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([g.ravel() for g in grid], axis=1)
            plan = self._lattice_cache[N] = (pts, np.einsum("ij,jk,ik->i", pts, self.Z_red, pts))
        return plan


def _split_argument(ctx: ThetaContext, z: Sequence) -> Tuple[np.ndarray, List[GrassmannScalar], int]:
    g = ctx.genus
    if len(z) != g:
        raise DimensionError(f"argument must have length {g}")
    n = ctx.n_gens
    for v in z:
        if isinstance(v, GrassmannScalar):
            n = max(n, v.n)
    zs: List[GrassmannScalar] = []
    z0 = np.zeros(g, dtype=complex)
    for j, v in enumerate(z):
        gv = v.embed(n) if isinstance(v, GrassmannScalar) else GrassmannScalar.scalar(n, v)
        if gv.terms and gv.parity() != 0:
            raise ParityError("theta arguments must be even elements")
        z0[j] = gv.body
        zs.append(gv.soul())
    return z0, zs, n


def _soul_basis(ctx: ThetaContext, zs: List[GrassmannScalar], P: np.ndarray, n: int):
    """Even nilpotent basis elements and their per-lattice-point complex weights."""
    basis: List[Tuple[GrassmannScalar, np.ndarray]] = []
    if ctx.Z_soul is not None:
        for j in range(ctx.genus):
            for k in range(ctx.genus):
                e = ctx.Z_soul[j][k]
                if e.terms:
                    basis.append((e.embed(n), PI_I * P[:, j] * P[:, k]))
    for j, e in enumerate(zs):
        if e.terms:
            basis.append((e, TWO_PI_I * P[:, j]))
    return basis


def _taylor_sum(n: int, basis, weights: np.ndarray) -> List[GrassmannScalar]:
    """Exact expansion of sum_n w_rn exp(sum_b c_b(n) G_b) for every weight row r."""
    totals = [GrassmannScalar.scalar(n, complex(s)) for s in weights.sum(axis=1)]
    nb = len(basis)

    # exp(sum x_b G_b) over commuting nilpotents: iterate non-decreasing index
    # multisets, each carrying 1/prod(multiplicity!) tracked by run length; the
    # product of a multiset's nilpotents is formed once and shared by all rows.
    def extend_exact(start: int, gprod: GrassmannScalar, warr: np.ndarray,
                     factor: float, run_b: int, run_len: int):
        for b in range(start, nb):
            G_b, w_b = basis[b]
            g2 = gprod * G_b
            if not g2.terms:
                continue
            rl = run_len + 1 if b == run_b else 1
            f2 = factor / rl
            w2 = warr * w_b
            for r, s in enumerate(w2.sum(axis=1)):
                totals[r] = totals[r] + g2 * (f2 * complex(s))
            extend_exact(b, g2, w2, f2, b, rl)

    extend_exact(0, GrassmannScalar.one(n), weights, 1.0, -1, 0)
    return totals


def _lattice_sum(ctx: ThetaContext, z: Sequence, weight) -> List[GrassmannScalar]:
    """sum_n w_r(n) exp(pi i n^t Z n + 2 pi i n^t z) over the truncated lattice, for each row r.

    ``weight`` maps the lattice points P to a (rows, points) array; the nilpotent
    parts of z and Z are expanded exactly.
    """
    z0, zs, n = _split_argument(ctx, z)
    P = ctx.lattice()
    _, b_off = ctx._char_offsets()
    lin = P @ (z0 + b_off)
    c = np.exp(PI_I * ctx.quad_form() + TWO_PI_I * lin)
    return _taylor_sum(n, _soul_basis(ctx, zs, P, n), c * weight(P))


def theta_jet(ctx: ThetaContext, z: Sequence, derivs: Sequence[Sequence[int]]
              ) -> List[GrassmannScalar]:
    """d^|m| Theta / dz^m at z for each multi-index m in ``derivs``, from one lattice pass."""
    for m in derivs:
        if len(m) != ctx.genus:
            raise DimensionError("derivative multi-index has wrong length")
        if sum(m) > _MAX_DERIVATIVE_ORDER:
            raise DomainError(f"derivative order above {_MAX_DERIVATIVE_ORDER} unsupported")

    def weight(P):
        w = np.ones((len(derivs), len(P)), dtype=complex)
        for r, m in enumerate(derivs):
            for j, mj in enumerate(m):
                for _ in range(mj):
                    w[r] = w[r] * (TWO_PI_I * P[:, j])
        return w

    return _lattice_sum(ctx, z, weight)


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
    j, k = jk
    return _lattice_sum(ctx, z, lambda P: (PI_I * P[:, j] * P[:, k])[None])[0]


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
