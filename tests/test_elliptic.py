import numpy as np
import pytest

from supercurves.errors import DomainError, ParityError
from supercurves.grassmann import GrassmannScalar
from supercurves.supermatrix import berezinian
from supercurves.theta import ThetaContext, theta, theta_derivative
from supercurves import elliptic as ell

N = 2
ALPHA = GrassmannScalar.generator(N, 0)
DELTA = GrassmannScalar.generator(N, 1)


def g(v):
    return GrassmannScalar.scalar(N, v)


def data(a=0.31 + 0.17j, zeta=0.12 - 0.05j, tau=2j, alpha=ALPHA, delta=DELTA):
    return ell.SuperEllipticData(tau_modulus=tau, delta=delta, a=g(a),
                                 alpha=alpha, zeta=g(zeta), n=N)


def test_baker_matrix_parity_pattern():
    B = ell.baker_matrix(data())
    (b00, b01), (b10, b11) = B.entries
    assert b00.is_even() and b11.is_even()
    assert b01.parity() == 1 and b10.parity() == 1
    assert B.is_even()


def test_baker_matrix_nilpotent_degenerations():
    # either odd modulus zero: diagonal collapses to 1
    for d in (data(alpha=g(0)), data(delta=g(0))):
        (b00, _), (_, b11) = ell.baker_matrix(d).entries
        assert b00 == g(1)
        assert b11 == g(1)
    # delta = 0: strictly upper triangular correction proportional to alpha
    (_, b01), (b10, _) = ell.baker_matrix(data(delta=g(0))).entries
    assert b10.is_zero()
    assert b01.terms and b01.parity() == 1


def test_ber_equals_inverse_tau_ratio():
    d = data()
    assert ell.ber_check_residual(d) < 1e-6
    lhs = berezinian(ell.baker_matrix(d)).invert()
    assert (lhs - ell.tau_ratio(d)).norm_inf() < 1e-6


def test_tau_ratio_degenerations():
    assert (ell.tau_ratio(data(zeta=0.0)) - g(1)).norm_inf() < 1e-12
    assert (ell.tau_ratio(data(alpha=g(0))) - g(1)).norm_inf() < 1e-12
    assert (ell.tau_ratio(data(delta=g(0))) - g(1)).norm_inf() < 1e-12


def test_closed_form_quotient_identity():
    d = data()
    tc = ell.tau_closed_form(d)
    shifted = ell.tau_closed_form(d, d.a - d.zeta)
    assert (shifted * tc.invert() - ell.tau_ratio(d)).norm_inf() < 1e-10


def test_closed_form_even_and_trivial_without_odd_moduli():
    d = data()
    tc = ell.tau_closed_form(d)
    assert tc.is_even()
    assert (ell.tau_closed_form(data(alpha=g(0))) - g(1)).norm_inf() < 1e-12


def test_lattice_single_valuedness():
    d = data(tau=2j)
    tc = ell.tau_closed_form(d)
    assert (ell.tau_closed_form(d, d.a + 1) - tc).norm_inf() < 1e-6
    assert (ell.tau_closed_form(d, d.a + 2j) - tc).norm_inf() < 1e-6


def test_convention_factor_is_unity():
    assert (ell.convention_factor(data()) - g(1)).norm_inf() < 1e-12


def test_theta_zero_flagged():
    # a = 0 is a zero of Theta_11: the logarithmic derivative diverges
    with pytest.raises(DomainError):
        ell.tau_closed_form(data(a=0.0))


def test_argument_validation():
    with pytest.raises(DomainError):
        ell.SuperEllipticData(tau_modulus=-1j, delta=DELTA, a=g(0.3),
                              alpha=ALPHA, zeta=g(0.1), n=N)
    with pytest.raises(ParityError):
        ell.SuperEllipticData(tau_modulus=2j, delta=g(1.0), a=g(0.3),
                              alpha=ALPHA, zeta=g(0.1), n=N)
    with pytest.raises(ParityError):
        ell.SuperEllipticData(tau_modulus=2j, delta=DELTA, a=ALPHA,
                              alpha=ALPHA, zeta=g(0.1), n=N)


def test_soul_arguments_supported():
    soul = ALPHA * DELTA * 0.2
    d = ell.SuperEllipticData(tau_modulus=2j, delta=DELTA, a=g(0.3) + soul,
                              alpha=ALPHA, zeta=g(0.1), n=N)
    assert ell.ber_check_residual(d) < 1e-6


def test_theta_ratios_read_the_lattice_once(lattice_reads):
    # x carries a soul and Z a soul, so the soul products are shared by all rows
    n = 4
    ctx = ThetaContext(genus=1, Z_red=np.array([[0.1 + 1.3j]]), characteristic="11", n_gens=n,
                       Z_soul=[[GrassmannScalar.monomial(n, [2, 3], 0.2 - 0.1j)]])
    x = GrassmannScalar.scalar(n, 0.27 + 0.08j) + GrassmannScalar.monomial(n, [0, 1], 0.3)
    lattice_reads.clear()
    r1, r2, lt2 = ell._theta_ratios(ctx, x)
    assert len(lattice_reads) == 1
    inv = theta(ctx, [x]).invert()
    want1 = theta_derivative(ctx, [x], (1,)) * inv
    want2 = theta_derivative(ctx, [x], (2,)) * inv
    assert len(r1.terms) == 4
    assert (r1 - want1).norm_inf() < 1e-12
    assert (r2 - want2).norm_inf() < 1e-12
    assert (lt2 - (want2 - want1 * want1)).norm_inf() < 1e-12


def test_one_context_per_data_object(monkeypatch):
    built = []

    class Counted(ThetaContext):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(ell, "ThetaContext", Counted)
    d = data()
    calls = (ell.baker_matrix, ell.tau_ratio, ell.tau_closed_form, ell.ber_check_residual,
             ell.convention_factor)
    first = [f(d) for f in calls]
    assert len(built) == 1
    # a changed modulus or generator count gets a context of its own, never a stale one
    wider = {k: getattr(d, k).embed(3) for k in ("a", "alpha", "delta", "zeta")}
    for change in ({"tau_modulus": 1.7j}, {"n": 3, **wider}):
        for k, v in change.items():
            setattr(d, k, v)
        count = len(built)
        fresh = ell.SuperEllipticData(tau_modulus=d.tau_modulus, delta=d.delta, a=d.a,
                                      alpha=d.alpha, zeta=d.zeta, n=d.n)
        assert ell.tau_ratio(d) == ell.tau_ratio(fresh)
        assert len(built) == count + 2
        assert ell.tau_closed_form(d) == ell.tau_closed_form(fresh)
        assert len(built) == count + 2
    assert ell.tau_ratio(d) != first[1]


@pytest.mark.parametrize("im_tau", [40.0, 200.0])
def test_theta_ratios_are_scale_free(im_tau):
    # Theta_11 carries the factor exp(pi i tau / 4): |Theta| is 4e-14 at Im tau = 40
    # and 1e-68 at 200, yet a = 0.3 + 0.1i is far from its zeros, where
    # [log Theta]'' = -pi^2 / sin^2(pi a) up to terms of order exp(-2 pi Im tau)
    a = 0.3 + 0.1j
    d = data(a=a, zeta=0.1, tau=1j * im_tau)
    lt2 = -np.pi ** 2 / np.sin(np.pi * a) ** 2
    want = g(1) - (ALPHA * DELTA) * (lt2 / (2j * np.pi))
    got = ell.tau_closed_form(d)
    assert (got - want).norm_inf() <= 1e-9 * want.norm_inf()
    assert ell.ber_check_residual(d) < 1e-9
    with pytest.raises(DomainError):
        ell.tau_closed_form(data(a=0.0, tau=1j * im_tau))
