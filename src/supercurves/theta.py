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

The lattice is an ellipsoid.  With Y = Im Z_red and c = Y^-1 Im z, the term at
P = n + a has modulus exp(pi c^t Y c - pi (P + c)^t Y (P + c)) times its weights,
so the sum is concentrated around P = -c.  No centre lies farther than r from
its rounding round(c) in the metric pi x^t Y x, so the largest term has modulus
at least exp(pi c^t Y c - r^2).  The radius R comes from a proven tail bound
(``_log_tail``): outside pi (P + c)^t Y (P + c) <= R^2 the terms add at most
2^-52 of that largest term, for derivatives of order <= 4 and soul products of
degree <= n.  The points are enumerated once per generator count n, as the
ellipsoid of radius R + r around -a; shifted by -round(c) they cover the
ellipsoid of radius R around the exact centre for every z.  That radius is the
only truncation.  The forms pi i P^t Z P are cached per integer shift, so z,
z + e_j and z + Z e_j share them.  A bounding box of more than 2^20 points, at a
nearly singular Im Z_red, raises DomainError.
``ThetaContext.truncation`` reports R, the point count and a bound on the
omitted terms at a given argument.

The odd characteristic Theta_11 is realized by the half-integer shift of the
same sum.  Super theta functions are built by repeatedly applying

    H_alpha = eta_alpha + (1/2 pi i) sum_k Z_{k alpha} d/dz_k

to Theta; with vanishing odd periods this reduces to eta_alpha...eta_gamma
times Theta.
"""

from __future__ import annotations

import functools
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
_TAIL_TARGET = 2.0 ** -52  # omitted share of the largest term
_REPORT_MARGIN = 2.0       # the error report sums the omitted points this far out exactly
_PLAN_CACHE = 32           # integer shifts kept per context
_MAX_BOX_POINTS = 1 << 20  # lattice box cap; perfbench's widest theta box holds 9261


def _gauss_moments(R: float, count: int) -> np.ndarray:
    """exp(R^2) int_R^inf r^j exp(-r^2) dr for j < count, by the recurrence
    J_j = (R^(j-1) + (j-1) J_(j-2)) / 2.  Past R = 25, where exp(R^2) erfc(R) would
    lose its range, J_0 is replaced by its upper bound 1/(2R)."""
    first = 0.5 * math.sqrt(math.pi) * math.erfc(R) * math.exp(R * R) if R < 25 else 0.5 / R
    out = [first, 0.5]
    for j in range(2, count):
        out.append(0.5 * (R ** (j - 1) + (j - 1) * out[j - 2]))
    return np.array(out[:count])


def _log_tail(g: int, rho: float, R: float, weight: np.ndarray) -> float:
    """The log of a bound on sum Q(|v|) exp(-|v|^2) over the points v with |v| > R of a
    shifted g-dimensional lattice whose points lie at least rho apart; Q = ``weight``,
    with ascending coefficients, all >= 0.

    The balls of radius rho/2 around the points are disjoint, so at most
    M(r) = ((2r + rho)/rho)^g points lie within r.  Where h(r) = Q(r) exp(-r^2)
    decreases, which holds once R^2 >= deg Q / 2, summation by parts gives
    sum_{|v|>R} h(|v|) <= M(R) h(R) + int_R^inf M'(r) h(r) dr.
    """
    # numpy.polynomial is imported where the bound is formed, not with the package:
    # its import costs about 0.6 MB and 3 ms in every process, theta or not
    from numpy.polynomial import polynomial as poly

    if R * R < (len(weight) - 1) / 2:
        return math.inf
    shell = poly.polymul(poly.polypow([rho / 2, 1.0], g - 1), weight)
    edge = poly.polyval(R, weight) * (R + rho / 2) ** g
    scaled = edge + g * float(shell @ _gauss_moments(R, len(shell)))
    return g * math.log(2 / rho) + math.log(scaled) - R * R


@functools.lru_cache(maxsize=256)
def _radius(g: int, degree: int, rho: float, offset: float) -> float:
    """The least R, to within 1e-3, whose tail under the weight (1 + r/rho)^degree is
    at most _TAIL_TARGET exp(-offset^2).

    A point at |v| from the centre has |P| <= |v|/rho + |c|, so that weight covers
    every polynomial weight of that degree up to a factor that depends on c and the
    souls alone.  The factor exp(-offset^2) makes the bound relative to the largest
    term: its point lies within offset of the centre, so its modulus is at least
    exp(-offset^2) times the scale exp(pi c^t Y c) of the centre.
    """
    from numpy.polynomial import polynomial as poly

    weight = poly.polypow([1.0, 1 / rho], degree)
    log_target = math.log(_TAIL_TARGET) - offset * offset
    low = math.sqrt(degree / 2) + 1e-6
    R = max(low + 1.0, offset)
    for _ in range(6):  # R^2 <- log(A(R)) - log_target for tail = A(R) exp(-R^2)
        step = _log_tail(g, rho, R, weight) - log_target
        R = max(math.sqrt(max(R * R + step, 0.0)), low)
    while _log_tail(g, rho, R, weight) > log_target:
        R += 1e-3
    return R


@dataclass
class ThetaContext:
    """Evaluation context: reduced period matrix and nilpotent augmentation."""

    genus: int
    Z_red: np.ndarray
    Z_soul: List[List[GrassmannScalar]] | None = None
    characteristic: str = CHAR_PLAIN
    n_gens: int = 0

    def __post_init__(self):
        self.Z_red = np.asarray(self.Z_red, dtype=complex)
        g = self.genus
        if self.Z_red.shape != (g, g):
            raise DimensionError(f"Z_red must be {g}x{g}")
        self._Y = (self.Z_red.imag + self.Z_red.imag.T) / 2
        lam, V = np.linalg.eigh(self._Y)
        if lam[0] <= 0:
            raise DomainError("Im Z_red is not positive definite")
        if self.characteristic not in (CHAR_PLAIN, CHAR_ODD):
            raise DomainError(f"unsupported characteristic {self.characteristic!r}")
        self._Y_inv = (V / lam) @ V.T
        # in the metric pi x^t Y x no two lattice points lie closer than rho, and no
        # centre lies farther than _offset from its rounding: f = c - round(c) has
        # |f_i| <= 1/2, so pi f^t Y f <= pi/4 sum_ij |Y_ij|
        self._rho = math.sqrt(math.pi * lam[0])
        self._offset = math.sqrt(math.pi / 4 * sum(map(abs, self._Y.ravel().tolist())))
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
        self._point_sets: Dict[int, Tuple[np.ndarray, float]] = {}
        self._plans: Dict[tuple, tuple] = {}

    # characteristic offsets: Theta[a,b](z) = sum exp(pi i P Z P + 2 pi i P (z+b)), P = n+a
    def _char_offsets(self) -> Tuple[float, float]:
        if self.characteristic == CHAR_ODD:
            return 0.5, 0.5
        return 0.0, 0.0

    def _ellipsoid(self, radius: float, inner: float | None = None) -> np.ndarray:
        """The points X = m + a, m integral, with pi X^t Y X <= radius^2, one per row,
        and only those with pi X^t Y X > inner^2 when ``inner`` is given.

        A bounding box of more than _MAX_BOX_POINTS points raises before it is built.
        """
        a, _ = self._char_offsets()
        half = [radius * math.sqrt(d / math.pi) for d in np.diag(self._Y_inv).tolist()]
        low = [math.ceil(-h - a) for h in half]
        box = [math.floor(h - a) - lo + 1 for h, lo in zip(half, low)]
        if math.prod(box) > _MAX_BOX_POINTS:
            raise DomainError(f"the theta lattice box holds {math.prod(box)} points, more than "
                              f"{_MAX_BOX_POINTS}: Im Z_red is too close to singular")
        X = np.indices(box).reshape(self.genus, -1).T + np.add(low, a)
        q = np.einsum("ij,jk,ik->i", X, self._Y, X)
        keep = q <= radius * radius / math.pi
        if inner is not None:
            keep &= q > inner * inner / math.pi
        return X[keep]

    def _points(self, n: int) -> Tuple[np.ndarray, float]:
        """The summed points m + a around 0 at generator count n, and the radius R
        that they cover around every centre."""
        hit = self._point_sets.get(n)
        if hit is None:
            # rho rounded down and the offset up to a grid of 1/16 octave, so nearby
            # contexts share R
            rho = 2.0 ** (math.floor(16 * math.log2(self._rho)) / 16)
            offset = 2.0 ** (math.ceil(16 * math.log2(self._offset)) / 16)
            R = _radius(self.genus, _MAX_DERIVATIVE_ORDER + 2 * (n // 2), rho, offset)
            X = self._ellipsoid(R + self._offset)
            hit = self._point_sets[n] = (X, R)
        return hit

    def _shift(self, z0: np.ndarray) -> Tuple[np.ndarray, tuple]:
        """The centre c = Y^-1 Im z of the terms at body z0, and round(c)."""
        c = self._Y_inv @ z0.imag
        return c, tuple(map(round, c.tolist()))

    def _plan(self, shift: tuple, n: int) -> tuple:
        """The points P = m + a - shift, pi i P^t Z_red P at each, and the soul forms
        pi i P^t Z_m P of the monomials m of Z_soul, keyed by m: one lattice pass."""
        plan = self._plans.get((shift, n))
        if plan is None:
            if len(self._plans) >= _PLAN_CACHE:
                self._plans.clear()
            P = self._points(n)[0] - shift
            plan = self._plans[shift, n] = (P, *_forms(self, P))
        return plan

    def lattice(self, z: Sequence | None = None) -> np.ndarray:
        """The points P = n + a that the pass at argument z sums (default: z = 0)."""
        if z is None:
            return self._plan((0,) * self.genus, self.n_gens)[0]
        z0, _, n = _split_argument(self, z)
        return self._plan(self._shift(z0)[1], n)[0]

    def truncation(self, z: Sequence | None = None,
                   derivs: Sequence[Sequence[int]] | None = None) -> dict:
        """How the lattice sum is truncated, computed only when asked.

        ``radius`` is the R that the points cover around every centre, ``points``
        their count.  Given z, ``shift`` is round(c) and ``tail_bound`` bounds, for
        each multi-index m in ``derivs`` (default: Theta alone), the largest Lambda
        coefficient of the terms of d^m Theta that the pass at z omits.
        """
        if z is None:
            X, R = self._points(self.n_gens)
            return {"radius": R, "points": len(X)}
        rows = _derivative_rows(self, [(0,) * self.genus] if derivs is None else derivs)
        z0, _, n = _split_argument(self, z)
        X, R = self._points(n)
        return {"radius": R, "points": len(X), "shift": list(self._shift(z0)[1]),
                "tail_bound": _tail_bounds(self, z, rows)}


def _forms(ctx: ThetaContext, P: np.ndarray) -> tuple:
    """pi i P^t Z_red P at each point, and the soul forms keyed by monomial."""
    quad, *forms = [PI_I * np.einsum("ij,jk,ik->i", P, C, P)
                    for C in (ctx.Z_red, *ctx._soul_coeffs)]
    return quad, dict(zip(ctx._soul_masks, forms))


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


def _exponentials(P: np.ndarray, quad: np.ndarray, souls: Dict[int, np.ndarray],
                  z0: np.ndarray, z_souls: Dict[int, np.ndarray], b: float) -> Dict[int, np.ndarray]:
    """exp(pi i P^t Z P + 2 pi i P^t (z + b)) at each point P, as monomial mask -> vector.

    The soul of the exponent at P is S(P) = sum_m s_m(P) e_m over even monomials
    e_m.  These commute and square to zero, so exp S(P) = prod_m (1 + s_m(P) e_m)
    exactly: the product is formed factor by factor, one vector for each monomial
    it reaches.  Without souls the product is empty.
    """
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
    return terms


def _weights(P: np.ndarray, rows: Sequence[Tuple[Sequence[int], complex]]) -> np.ndarray:
    """prod_(j in idx) P_j at each point, one row per (idx, c)."""
    W = np.ones((len(rows), len(P)))
    for w, (idx, _) in zip(W, rows):
        for j in idx:
            w *= P[:, j]
    return W


def _lattice_sum(ctx: ThetaContext, z: Sequence, rows: Sequence[Tuple[Sequence[int], complex]]
                 ) -> List[GrassmannScalar]:
    """c sum_n prod_(j in idx) n_j exp(pi i n^t Z n + 2 pi i n^t z) for each row (idx, c).

    The weight rows meet every monomial vector of the exponentials in one matrix product.
    """
    z0, z_souls, n = _split_argument(ctx, z)
    P, quad, souls = ctx._plan(ctx._shift(z0)[1], n)
    terms = _exponentials(P, quad, souls, z0, z_souls, ctx._char_offsets()[1])
    sums = (_weights(P, rows) @ np.array(list(terms.values())).T).tolist()
    return [GrassmannScalar(n, {m: c * v for m, v in zip(terms, row)})
            for (_, c), row in zip(rows, sums)]


def _tail_bounds(ctx: ThetaContext, z: Sequence, rows: Sequence[Tuple[Sequence[int], complex]]
                 ) -> List[float]:
    """For each row, a bound on the largest Lambda coefficient of the terms that the
    pass at z omits.

    The omitted points out to radius R + r + _REPORT_MARGIN around -a, the shell
    beyond the summed R + r, are summed in absolute value, coefficient by
    coefficient.  Every point beyond lies farther than
    R + r + _REPORT_MARGIN - |f| from the centre, f = c - round(c), and has
    |P| <= u = |v|/rho + |c| in the metric pi x^t Y x.  There a row's weight is at
    most |coef| u^d, and the soul product, whose l1 norm bounds its coefficients,
    at most sum_(j <= n/2) sigma^j / j! with sigma = alpha u + beta u^2,
    alpha = 2 pi sum_m |z_m| and beta = pi sum_m |Z_m|_2; ``_log_tail`` bounds their sum.
    """
    from numpy.polynomial import polynomial as poly

    z0, z_souls, n = _split_argument(ctx, z)
    g = ctx.genus
    c, shift = ctx._shift(z0)
    R = ctx._points(n)[1]
    outer = R + ctx._offset + _REPORT_MARGIN
    P = ctx._ellipsoid(outer, R + ctx._offset) - shift
    quad, souls = _forms(ctx, P)
    b = ctx._char_offsets()[1]
    terms = np.abs(np.array(list(_exponentials(P, quad, souls, z0, z_souls, b).values())))
    coefs = np.abs([coef for _, coef in rows])
    near = coefs * (np.abs(_weights(P, rows)) @ terms.T).max(axis=1, initial=0.0)

    f = c - np.array(shift)
    reach = outer - math.sqrt(math.pi * f @ ctx._Y @ f)
    u = np.array([float(np.linalg.norm(c)), 1 / ctx._rho])
    alpha = 2 * math.pi * sum(float(np.linalg.norm(v)) for v in z_souls.values())
    beta = math.pi * sum(float(np.linalg.norm(C, 2)) for C in ctx._soul_coeffs)
    sigma = poly.polyadd(alpha * u, beta * poly.polypow(u, 2))
    soul = poly.polytrim(functools.reduce(poly.polyadd, (poly.polypow(sigma, j) / math.factorial(j)
                                                         for j in range(n // 2 + 1))))
    scale = math.pi * c @ ctx._Y @ c
    return [float(near_r + k * math.exp(scale + _log_tail(
                g, ctx._rho, reach, poly.polymul(poly.polypow(u, len(idx)), soul))))
            for near_r, k, (idx, _) in zip(near, coefs, rows)]


def _derivative_rows(ctx: ThetaContext, derivs: Sequence[Sequence[int]]) -> list:
    """The weight rows (idx, (2 pi i)^|m|) of the multi-indices m, checked."""
    for m in derivs:
        if len(m) != ctx.genus:
            raise DimensionError("derivative multi-index has wrong length")
        if sum(m) > _MAX_DERIVATIVE_ORDER:
            raise DomainError(f"derivative order above {_MAX_DERIVATIVE_ORDER} unsupported")
    return [([j for j, mj in enumerate(m) for _ in range(mj)], TWO_PI_I ** sum(m)) for m in derivs]


def theta_jet(ctx: ThetaContext, z: Sequence, derivs: Sequence[Sequence[int]]
              ) -> List[GrassmannScalar]:
    """d^|m| Theta / dz^m at z for each multi-index m in ``derivs``, from one lattice pass."""
    return _lattice_sum(ctx, z, _derivative_rows(ctx, derivs))


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
