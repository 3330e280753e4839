"""The genus-one worked example: super Baker matrix and its tau function.

The 2x2 Baker matrix of a super elliptic curve is assembled from quotients of
Theta_11 and its first two derivatives at the points a and zeta - a.  Its
Berezinian reproduces the closed-form tau ratio

    (1 - (alpha delta / 2 pi i) [log Theta(a - zeta)]'')
    / (1 - (alpha delta / 2 pi i) [log Theta(a)]''),

and the tau function itself is 1 - (alpha delta / 2 pi i) [log Theta(a)]''.
The logarithmic derivatives eliminate the theta multipliers, so the result is
a single-valued function of a on the Jacobian lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

import numpy as np

from .errors import DomainError, ParityError
from .grassmann import GrassmannScalar, as_grassmann
from .supermatrix import SuperMatrix, berezinian
from .theta import CHAR_ODD, ThetaContext, theta_jet

TWO_PI_I = 2j * math.pi


@dataclass
class SuperEllipticData:
    """Moduli and Jacobian coordinates for the genus-one tau computation."""

    tau_modulus: complex
    delta: GrassmannScalar
    a: GrassmannScalar
    alpha: GrassmannScalar
    zeta: GrassmannScalar
    n: int = 2
    # the Theta_11 context and the (tau_modulus, n) it was built for
    _theta: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tau_modulus = complex(self.tau_modulus)
        if self.tau_modulus.imag <= 0:
            raise DomainError("Im tau must be positive")
        self.delta = as_grassmann(self.delta, self.n)
        self.alpha = as_grassmann(self.alpha, self.n)
        self.a = as_grassmann(self.a, self.n)
        self.zeta = as_grassmann(self.zeta, self.n)
        for name, v in (("delta", self.delta), ("alpha", self.alpha)):
            if v.terms and v.parity() != 1:
                raise ParityError(f"{name} must be odd")
        for name, v in (("a", self.a), ("zeta", self.zeta)):
            if v.terms and v.parity() != 0:
                raise ParityError(f"{name} must be even")

    def context(self) -> ThetaContext:
        """The Theta_11 context, built once and again only when tau_modulus or n change."""
        key = (self.tau_modulus, self.n)
        if self._theta is None or self._theta[0] != key:
            ctx = ThetaContext(genus=1, Z_red=np.array([[self.tau_modulus]]),
                               characteristic=CHAR_ODD, n_gens=self.n)
            self._theta = (key, ctx)
        return self._theta[1]


def _theta_ratios(ctx: ThetaContext, x: GrassmannScalar
                  ) -> Tuple[GrassmannScalar, GrassmannScalar, GrassmannScalar]:
    """(Theta'/Theta, Theta''/Theta, [log Theta]'') at the even argument x.

    Theta vanishes at the body of x when |Theta| <= 1e-12 |Theta'|: near a
    simple zero their quotient is the distance to it, whatever the overall
    factor exp(pi i tau / 4) of Theta_11 makes of both.
    """
    t0, t1, t2 = theta_jet(ctx, [x], [(0,), (1,), (2,)])
    if abs(t0.body) <= 1e-12 * abs(t1.body):
        raise DomainError("theta vanishes at the evaluation body")
    inv = t0.invert()
    r1 = t1 * inv
    r2 = t2 * inv
    return r1, r2, r2 - r1 * r1


def baker_matrix(d: SuperEllipticData) -> SuperMatrix:
    """The (1|1) Baker matrix built from theta quotients at a and zeta - a.

    The diagonal entries are 1 plus alpha-delta corrections; the off-diagonal
    entries are proportional to alpha and delta respectively.  (The delta-part
    of the upper-right entry never survives into the Berezinian and is set to
    zero.)
    """
    ctx = d.context()
    n = d.n
    ad = d.alpha * d.delta
    r1_a, _, lt2_a = _theta_ratios(ctx, d.a)
    r1_za, _, lt2_za = _theta_ratios(ctx, d.zeta - d.a)
    c = 1.0 / TWO_PI_I
    b00 = GrassmannScalar.one(n) + ad * ((r1_a * r1_za + r1_a * r1_a) * c)
    b01 = d.alpha * r1_a
    b10 = d.delta * ((r1_za + r1_a) * c)
    b11 = GrassmannScalar.one(n) + ad * ((lt2_a - lt2_za) * c)
    return SuperMatrix((1, 1), (1, 1), [[b00, b01], [b10, b11]])


def tau_ratio(d: SuperEllipticData) -> GrassmannScalar:
    """(1 - (ad/2 pi i)[log Theta(a - zeta)]'') / (1 - (ad/2 pi i)[log Theta(a)]'')."""
    ctx = d.context()
    n = d.n
    ad = d.alpha * d.delta
    c = 1.0 / TWO_PI_I
    _, _, lt2_num = _theta_ratios(ctx, d.a - d.zeta)
    _, _, lt2_den = _theta_ratios(ctx, d.a)
    num = GrassmannScalar.one(n) - ad * (lt2_num * c)
    den = GrassmannScalar.one(n) - ad * (lt2_den * c)
    return num * den.invert()


def tau_closed_form(d: SuperEllipticData, a: GrassmannScalar | None = None) -> GrassmannScalar:
    """tau = 1 - (alpha delta / 2 pi i) [log Theta(a)]''."""
    ctx = d.context()
    n = d.n
    x = d.a if a is None else as_grassmann(a, n)
    _, _, lt2 = _theta_ratios(ctx, x)
    return GrassmannScalar.one(n) - (d.alpha * d.delta) * (lt2 * (1.0 / TWO_PI_I))


def ber_check_residual(d: SuperEllipticData) -> float:
    """Max coefficient gap between invert(ber(baker_matrix)) and tau_ratio."""
    lhs = berezinian(baker_matrix(d)).invert()
    return (lhs - tau_ratio(d)).norm_inf()


def convention_factor(d: SuperEllipticData) -> GrassmannScalar:
    """ber(B) * tau_ratio at alpha*delta = 0; unity confirms the conventions match."""
    stripped = replace(d, delta=GrassmannScalar.zero(d.n), alpha=GrassmannScalar.zero(d.n))
    stripped._theta = d._theta  # same modulus and n: the context carries over
    return berezinian(baker_matrix(stripped)) * tau_ratio(stripped)
