import itertools

import numpy as np
import pytest

from supercurves.errors import DimensionError, DomainError, ParityError
from supercurves.grassmann import GrassmannScalar, random_element
from supercurves.theta import (
    ThetaContext,
    build_super_theta,
    check_multipliers,
    theta,
    theta_Z_derivative,
    theta_derivative,
    theta_jet,
)


@pytest.fixture
def ctx_g2():
    Z = np.array([[1.3j, 0.2 + 0.1j], [0.2 + 0.1j, 1.1j]])
    return ThetaContext(genus=2, Z_red=Z)


def test_theta11_odd_at_origin():
    ctx = ThetaContext(genus=1, Z_red=np.array([[1j]]), characteristic="11")
    assert abs(theta(ctx, [0.0]).body) < 1e-12
    assert abs(theta_derivative(ctx, [0.0], (1,)).body) > 0.1


def test_integer_shift_invariance(ctx_g2):
    z = [0.13 + 0.21j, -0.07 + 0.05j]
    base = theta(ctx_g2, z)
    for i in range(2):
        z2 = list(z)
        z2[i] += 1
        assert (theta(ctx_g2, z2) - base).norm_inf() < 1e-12


def test_quasi_periodicity_factor(ctx_g2):
    z = [0.13 + 0.21j, -0.07 + 0.05j]
    Z = ctx_g2.Z_red
    base = theta(ctx_g2, z)
    for i in range(2):
        shifted = theta(ctx_g2, [z[j] + Z[i, j] for j in range(2)])
        factor = np.exp(-1j * np.pi * (2 * z[i] + Z[i, i]))
        assert (shifted - base * factor).norm_inf() < 1e-10


def test_derivative_against_finite_differences(ctx_g2):
    z = [0.1 + 0.05j, 0.2 - 0.1j]
    h = 1e-4
    second = theta_derivative(ctx_g2, z, (2, 0)).body
    fd = (theta(ctx_g2, [z[0] + h, z[1]]).body - 2 * theta(ctx_g2, z).body
          + theta(ctx_g2, [z[0] - h, z[1]]).body) / h ** 2
    assert abs(second - fd) / abs(second) < 1e-6
    mixed = theta_derivative(ctx_g2, z, (1, 1)).body
    fd_mixed = (theta(ctx_g2, [z[0] + h, z[1] + h]).body
                - theta(ctx_g2, [z[0] + h, z[1] - h]).body
                - theta(ctx_g2, [z[0] - h, z[1] + h]).body
                + theta(ctx_g2, [z[0] - h, z[1] - h]).body) / (4 * h ** 2)
    assert abs(mixed - fd_mixed) / abs(mixed) < 1e-6


def test_log_derivative_simple_pole_at_zero():
    # Theta_11 has a simple zero at z = 0, so (log Theta)' ~ 1/z
    ctx = ThetaContext(genus=1, Z_red=np.array([[1j]]), characteristic="11")

    def logdiff(z):
        return theta_derivative(ctx, [z], (1,)).body / theta(ctx, [z]).body

    r1, r2 = 0.05, 0.08
    # z f(z) = c_-1 + c_1 z^2: solve from two radii
    a1, a2 = r1 * logdiff(r1), r2 * logdiff(r2)
    c_minus1 = (a1 * r2 ** 2 - a2 * r1 ** 2) / (r2 ** 2 - r1 ** 2)
    assert abs(c_minus1 - 1.0) < 1e-3


def _cube_sum(Z, z, orders, a=0.0, center=None, half=14):
    """sum_P prod_j (2 pi i P_j)^m_j exp(pi i P^t Z P + 2 pi i P^t (z + a)) over P = n + a with
    |n_i - center_i| <= half, for each multi-index m in ``orders``, in plain numpy."""
    g = len(z)
    center = np.zeros(g) if center is None else np.asarray(center)
    P = np.indices((2 * half + 1,) * g).reshape(g, -1).T - half + center + a
    terms = np.exp(1j * np.pi * np.einsum("ij,jk,ik->i", P, Z, P)
                   + 2j * np.pi * P @ (np.asarray(z) + a))
    return [np.sum(np.prod((2j * np.pi * P) ** np.array(m), axis=1) * terms) for m in orders]


def test_truncation_stability(ctx_g2):
    # the ellipsoid against the same sum over the cube |n_i| <= 14
    z = [0.3 + 0.1j, -0.2 + 0.15j]
    want, dwant = _cube_sum(ctx_g2.Z_red, z, [(0, 0), (1, 0)])
    assert abs(theta(ctx_g2, z).body - want) < 1e-10
    assert abs(theta_derivative(ctx_g2, z, (1, 0)).body - dwant) < 1e-10


@pytest.mark.parametrize("characteristic", ["0", "11"])
def test_shifted_plan_matches_a_large_cube(characteristic):
    # at z + Z k the points are the cached ellipsoid moved by round(c) != 0
    Z = np.array([[0.3 + 1.2j, 0.25 + 0.4j], [0.25 + 0.4j, -0.1 + 0.9j]])
    ctx = ThetaContext(genus=2, Z_red=Z, characteristic=characteristic)
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    a = 0.5 if characteristic == "11" else 0.0
    for k in ((1, 0), (0, 2), (2, -1)):
        z = list(np.array([0.21 - 0.08j, -0.13 + 0.11j]) + Z @ np.array(k))
        shift = ctx.truncation(z)["shift"]
        assert shift == list(k)
        want = _cube_sum(Z, z, orders, a=a, center=-np.array(shift), half=12)
        for m, value, w in zip(orders, theta_jet(ctx, z, orders), want):
            assert abs(value.body - w) < 1e-11 * abs(w), (k, m)


@pytest.mark.parametrize("Y, re, centres", [
    ([[60.0]], [[0.2]], [(0.5,), (0.45,), (-0.5,), (-0.55,)]),
    ([[200.0]], [[0.2]], [(0.5,), (0.45,), (-0.5,), (-0.55,)]),
    ([[80.0, 10.0], [10.0, 60.0]], [[0.1, 0.3], [0.3, -0.2]], [(0.5, 0.5), (0.45, -0.4), (1.5, 0.5)]),
])
def test_nearest_points_are_kept_at_large_lambda_min(Y, re, centres):
    # with c = Y^-1 Im z near half-integers the largest terms sit at lattice points far
    # from c in the metric pi x^t Y x (12.5 at Im tau = 200), and at g = 2 not at
    # round(c) itself: they must all be summed
    Y = np.array(Y)
    ctx = ThetaContext(genus=len(Y), Z_red=np.array(re) + 1j * Y)
    orders = [m for m in itertools.product(range(3), repeat=len(Y)) if sum(m) <= 2]
    for c in centres:
        z = list(1j * Y @ np.array(c) + 0.1)
        want = _cube_sum(ctx.Z_red, z, orders, center=-np.rint(c), half=3)
        for m, value, w in zip(orders, theta_jet(ctx, z, orders), want):
            assert abs(value.body - w) < 1e-12 * abs(w), (c, m)
    if len(Y) == 1:
        # Theta(tau/2): the terms at n = 0 and n = -1 are both exp(0)
        assert abs(theta(ctx, [ctx.Z_red[0, 0] / 2]).body - 2) < 1e-12


def test_multiplier_arguments_share_the_cached_points():
    # z, z + e_j and z + Z e_j: one integer shift for the first two, one more per j
    f, z, images = _super_g3_two_alphas()
    check_multipliers(f, z, images)
    assert len(f.ctx._plans) == f.ctx.genus + 1


def test_genus_one_against_mpmath():
    # independent implementation: jtheta conventions differ by argument scaling
    mpmath = pytest.importorskip("mpmath")
    tau_mod = 0.3 + 1.1j
    q = complex(np.exp(1j * np.pi * tau_mod))
    plain = ThetaContext(genus=1, Z_red=np.array([[tau_mod]]))
    odd = ThetaContext(genus=1, Z_red=np.array([[tau_mod]]), characteristic="11")
    for z in (0.17 - 0.04j, 0.52 + 0.21j, -0.33 + 0.08j):
        want3 = complex(mpmath.jtheta(3, np.pi * z, q))
        assert abs(theta(plain, [z]).body - want3) < 1e-10
        want1 = -complex(mpmath.jtheta(1, np.pi * z, q))
        assert abs(theta(odd, [z]).body - want1) < 1e-10
        dwant1 = -complex(mpmath.jtheta(1, np.pi * z, q, derivative=1)) * np.pi
        assert abs(theta_derivative(odd, [z], (1,)).body - dwant1) < 1e-8


@pytest.mark.parametrize("k", [1, 2])
def test_genus_one_against_mpmath_at_shifted_arguments(k):
    # at z + k tau the centre c = Im z / Im tau rounds to k, so the points move by k
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    tau_mod = 0.3 + 1.1j
    q = mp.exp(mp.pi * 1j * mp.mpc(tau_mod.real, tau_mod.imag))
    plain = ThetaContext(genus=1, Z_red=np.array([[tau_mod]]))
    odd = ThetaContext(genus=1, Z_red=np.array([[tau_mod]]), characteristic="11")
    for z0 in (0.17 - 0.04j, 0.52 + 0.21j, -0.33 + 0.08j):
        z = z0 + k * tau_mod
        assert odd.truncation([z])["shift"] == plain.truncation([z])["shift"] == [k]
        w = mp.pi * mp.mpc(z.real, z.imag)
        want3 = complex(mp.jtheta(3, w, q))
        assert abs(theta(plain, [z]).body - want3) < 1e-10 * abs(want3)
        w0, w1, w2 = (-complex(mp.jtheta(1, w, q, derivative=d) * mp.pi ** d) for d in range(3))
        t0, t1, t2 = (v.body for v in theta_jet(odd, [z], [(0,), (1,), (2,)]))
        assert abs(t0 - w0) < 1e-10 * abs(w0)
        assert abs(t1 - w1) < 1e-8 * abs(w1)
        want_log2 = w2 / w0 - (w1 / w0) ** 2
        assert abs(t2 / t0 - (t1 / t0) ** 2 - want_log2) < 1e-8 * abs(want_log2)
        # Theta_11 is odd, and -z sits at the opposite shift
        assert odd.truncation([-z])["shift"] == [-k]
        assert abs(theta(odd, [-z]).body + t0) < 1e-12 * abs(t0)


def test_taylor_consistency_single_nilpotent(ctx_g2):
    n = 4
    eps = GrassmannScalar.monomial(n, [0, 1])
    z = [0.13 + 0.21j, -0.07 + 0.05j]
    zg = [GrassmannScalar.scalar(n, z[0]) + eps * 0.3, GrassmannScalar.scalar(n, z[1])]
    val = theta(ctx_g2, zg)
    body = theta(ctx_g2, z).body
    deriv = theta_derivative(ctx_g2, z, (1, 0)).body
    assert abs(val.terms[0] - body) < 1e-12
    assert abs(val.terms.get(0b11, 0) - 0.3 * deriv) < 1e-12
    assert set(val.terms) <= {0, 0b11}


def test_soul_in_period_matrix_keeps_multipliers():
    n = 4
    soul = GrassmannScalar.monomial(n, [0, 1], 0.2)
    zero = GrassmannScalar.zero(n)
    Z_soul = [[soul, zero], [zero, soul * 0.5]]
    ctx = ThetaContext(genus=2, Z_red=np.array([[1.3j, 0.1], [0.1, 1.2j]]),
                       Z_soul=Z_soul, n_gens=n)
    f = build_super_theta(ctx, None, [], eta_gens=[2], n_gens=n)
    z = [GrassmannScalar.scalar(n, 0.11 + 0.07j) + soul * 0.4,
         GrassmannScalar.scalar(n, -0.05 + 0.13j)]
    rep = check_multipliers(f, z)
    assert rep["max_residual"] < 1e-8


def test_Z_derivative_independent_entry_convention(ctx_g2):
    z = [0.1 + 0.05j, -0.12 + 0.04j]
    h = 1e-4
    for (j, k) in [(0, 1), (1, 1)]:
        dz = theta_Z_derivative(ctx_g2, z, (j, k)).body
        Zp = ctx_g2.Z_red.copy()
        Zp[j, k] += h
        Zm = ctx_g2.Z_red.copy()
        Zm[j, k] -= h
        fd = (theta(ThetaContext(2, Zp), z).body - theta(ThetaContext(2, Zm), z).body) / (2 * h)
        assert abs(dz - fd) / max(abs(fd), 1e-12) < 1e-6


def test_positive_definiteness_enforced():
    with pytest.raises(DomainError):
        ThetaContext(genus=1, Z_red=np.array([[-1j]]))


def test_unaffordable_lattice_box_raises_before_it_is_built(monkeypatch):
    # Im Z = s (I + 0.15 J): the box around the ellipsoid holds 24.6 M points at
    # s = 0.001 (0.6 GB of points) against 4913 at s = 0.3
    import sys

    Z = 1j * 0.001 * (np.eye(3) + 0.15)
    with pytest.raises(DomainError, match=r"holds \d+ points"):
        theta(ThetaContext(genus=3, Z_red=Z), [0.1, 0.2, 0.05])
    with pytest.raises(DomainError, match=r"holds \d+ points"):
        ThetaContext(genus=3, Z_red=Z).truncation()
    # at s = 0.3 the report's outer box (9261 points) goes through the same check
    ctx = ThetaContext(genus=3, Z_red=1j * 0.3 * (np.eye(3) + 0.15))
    monkeypatch.setattr(sys.modules["supercurves.theta"], "_MAX_BOX_POINTS", 5000)
    theta(ctx, [0.1, 0.2, 0.05])
    with pytest.raises(DomainError, match="9261 points"):
        ctx.truncation([0.1, 0.2, 0.05])


def test_Z_soul_checked():
    n = 4
    Z = np.array([[1.2j, 0.1], [0.1, 1.1j]])
    even, zero = GrassmannScalar.monomial(n, [0, 1], 0.1), GrassmannScalar.zero(n)
    for bad in (GrassmannScalar.generator(n, 2), even + GrassmannScalar.scalar(n, 0.1),
                even + GrassmannScalar.generator(n, 3)):
        with pytest.raises(ParityError):
            ThetaContext(genus=2, Z_red=Z, Z_soul=[[even, zero], [zero, bad]])
    with pytest.raises(DimensionError):
        ThetaContext(genus=2, Z_red=Z, Z_soul=[[even, zero, zero], [zero, even]])
    # entries over fewer generators embed into the largest count
    ctx = ThetaContext(genus=2, Z_red=Z, Z_soul=[[even, GrassmannScalar.monomial(2, [0, 1])],
                                                [zero, zero]])
    assert ctx.n_gens == n


def test_odd_argument_rejected(ctx_g2):
    n = 2
    z = [GrassmannScalar.generator(n, 0), GrassmannScalar.zero(n)]
    with pytest.raises(ParityError):
        theta(ctx_g2, z)


def test_derivative_order_cap(ctx_g2):
    with pytest.raises(DomainError):
        theta_derivative(ctx_g2, [0.0, 0.0], (3, 2))
    # every multi-index of a jet is checked, not only the first
    with pytest.raises(DomainError):
        theta_jet(ctx_g2, [0.0, 0.0], [(0, 0), (3, 2)])
    with pytest.raises(DimensionError):
        theta_jet(ctx_g2, [0.0, 0.0], [(1, 0), (1,)])


@pytest.mark.parametrize("characteristic", ["0", "11"])
def test_genus_two_against_mpmath_direct_sum(characteristic):
    # independent oracle: the lattice sum and its z-derivatives at 30 digits, |n_i| <= 14
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 30
    Z = np.array([[0.3 + 1.2j, 0.25 + 0.4j], [0.25 + 0.4j, -0.1 + 0.9j]])
    z = [0.21 - 0.08j, -0.13 + 0.11j]
    ctx = ThetaContext(genus=2, Z_red=Z, characteristic=characteristic)
    shift = mp.mpf(1) / 2 if characteristic == "11" else mp.mpf(0)
    Zm = [[mp.mpc(Z[j, k].real, Z[j, k].imag) for k in range(2)] for j in range(2)]
    zm = [mp.mpc(v.real, v.imag) + shift for v in z]
    orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    want = {m: mp.mpc(0) for m in orders}
    for n0 in range(-14, 15):
        for n1 in range(-14, 15):
            P = (n0 + shift, n1 + shift)
            quad = sum(P[j] * Zm[j][k] * P[k] for j in range(2) for k in range(2))
            term = mp.exp(mp.pi * 1j * quad + 2 * mp.pi * 1j * (P[0] * zm[0] + P[1] * zm[1]))
            for m in orders:
                want[m] += term * (2 * mp.pi * 1j * P[0]) ** m[0] * (2 * mp.pi * 1j * P[1]) ** m[1]
    got = theta_jet(ctx, z, orders)
    for m, value in zip(orders, got):
        w = complex(want[m])
        assert abs(value.body - w) < 1e-10 * abs(w), (m, value.body, w)
        assert abs(theta_derivative(ctx, z, m).body - w) < 1e-10 * abs(w)


# -- one lattice pass per argument -------------------------------------------------


def _soul_g3():
    """Plain Theta at g = 3 with an even nilpotent Z_soul and a soul in z."""
    n = 4
    Z = np.array([[1.1j, 0.2 + 0.1j, 0.1], [0.2 + 0.1j, 1.3j, 0.15 + 0.05j],
                  [0.1, 0.15 + 0.05j, 1.2j]])
    c = np.array([[0.1, 0.05j, -0.02], [0.05j, 0.2, 0.03], [-0.02, 0.03, -0.1j]])
    soul = [[GrassmannScalar.monomial(n, [2, 3], c[j, k]) for k in range(3)] for j in range(3)]
    ctx = ThetaContext(genus=3, Z_red=Z, Z_soul=soul, n_gens=n)
    z = [GrassmannScalar.scalar(n, v) + GrassmannScalar.monomial(n, [0, 1], 0.2 * (j + 1))
         for j, v in enumerate([0.11 + 0.04j, -0.2 + 0.07j, 0.05 - 0.1j])]
    return build_super_theta(ctx, None, [], eta_gens=[0, 1], n_gens=n), z, None


def _super_g3_two_alphas():
    """H_0 H_1 Theta at g = 3 with Z_o != 0, evaluated at shifted eta images."""
    n = 4
    Z = np.array([[1.2j, 0.3 + 0.1j, -0.1], [0.3 + 0.1j, 1.0j, 0.2], [-0.1, 0.2, 1.4j]])
    Zo = [[GrassmannScalar.monomial(n, [2 + a], 0.3 + 0.1 * (i + a)) for a in range(2)]
          for i in range(3)]
    f = build_super_theta(ThetaContext(genus=3, Z_red=Z), Zo, [0, 1], eta_gens=[0, 1], n_gens=n)
    images = {a: GrassmannScalar.generator(n, a) + Zo[1][a] for a in range(2)}
    return f, [0.13 - 0.05j, 0.02 + 0.09j, -0.11 + 0.03j], images


@pytest.mark.parametrize("case", [_soul_g3, _super_g3_two_alphas])
def test_evaluate_is_one_pass_over_the_derivative_terms(case, lattice_reads):
    f, z, images = case()
    for eta in (None, images):
        lattice_reads.clear()
        got = f.evaluate(z, eta)
        assert len(lattice_reads) == 1
        want = GrassmannScalar.zero(f.n_gens)
        for m, coeff in f.terms.items():
            coeff = coeff.substitute(eta) if eta else coeff
            want = want + coeff * theta(f.ctx, z, deriv=m).embed(f.n_gens)
        assert got.terms
        assert (got - want).norm_inf() < 1e-12


# -- super theta construction ------------------------------------------------------


def test_empty_operator_product_is_plain_theta(ctx_g2):
    f = build_super_theta(ctx_g2, None, [], eta_gens=[0], n_gens=1)
    z = [0.1, 0.2]
    assert (f.evaluate(z) - theta(ctx_g2, z).embed(1)).norm_inf() < 1e-14


def test_zero_odd_periods_reduce_to_eta_times_theta(ctx_g2):
    n = 2
    f = build_super_theta(ctx_g2, None, [0], eta_gens=[0], n_gens=n)
    z = [0.1 + 0.02j, 0.2 - 0.01j]
    eta0 = GrassmannScalar.generator(n, 0)
    assert (f.evaluate(z) - eta0 * theta(ctx_g2, z).embed(n)).norm_inf() < 1e-14
    rep = check_multipliers(f, z)
    assert rep["max_residual"] < 1e-8


def test_super_theta_multipliers_with_odd_periods(ctx_g2):
    n = 4
    Zo = [[GrassmannScalar.monomial(n, [1], 0.4)], [GrassmannScalar.monomial(n, [2], 0.3)]]
    f = build_super_theta(ctx_g2, Zo, [0], eta_gens=[0], n_gens=n)
    z = [0.13 + 0.05j, -0.04 + 0.11j]
    rep = check_multipliers(f, z)
    assert rep["max_residual"] < 1e-8
    # eta decomposition exposes the H_alpha structure
    decomp = f.eta_decomposition()
    assert 0b1 in decomp          # the eta_alpha * Theta term
    assert any(sum(m) == 1 for m in decomp.get(0, {}))  # the Z d/dz corrections


def test_repeated_alpha_rejected(ctx_g2):
    with pytest.raises(DomainError):
        build_super_theta(ctx_g2, None, [0, 0], eta_gens=[0], n_gens=1)


def test_odd_periods_using_an_eta_generator_rejected(ctx_g2):
    # Z_o built on eta_0's own generator is outside the construction
    n = 4
    Zo = [[GrassmannScalar.monomial(n, [0], 0.4)], [GrassmannScalar.monomial(n, [2], 0.3)]]
    with pytest.raises(DomainError):
        build_super_theta(ctx_g2, Zo, [0], eta_gens=[0], n_gens=n)


def test_wrong_shift_is_detected(ctx_g2):
    # negative control: shifting z by half a period row must break the relation
    n = 1
    f = build_super_theta(ctx_g2, None, [], eta_gens=[0], n_gens=n)
    z = [0.1, 0.2]
    base = f.evaluate(z)
    Z = ctx_g2.Z_red
    i = 0
    bad = f.evaluate([z[j] + 0.5 * Z[i, j] for j in range(2)])
    factor = np.exp(-1j * np.pi * (2 * z[i] + Z[i, i]))
    assert (bad - base * factor).norm_inf() > 1e-2


# -- the soul product against the multiset Taylor sum ------------------------------


def _reference_lattice_sum(ctx, z, weights, n, P):
    """sum_P w_r(P) exp(pi i P^t Z P + 2 pi i P^t (z + b)) over the rows of P for each row of
    ``weights``, by the multiset Taylor recursion over GrassmannScalar products that the soul
    product replaced."""
    from supercurves.theta import PI_I, TWO_PI_I

    zg = [v.embed(n) if isinstance(v, GrassmannScalar) else GrassmannScalar.scalar(n, v)
          for v in z]
    b = 0.5 if ctx.characteristic == "11" else 0.0
    quad = np.einsum("ij,jk,ik->i", P, ctx.Z_red, P)
    c = np.exp(PI_I * quad + TWO_PI_I * (P @ (np.array([v.body for v in zg]) + b)))
    basis = []
    if ctx.Z_soul is not None:
        for j in range(ctx.genus):
            for k in range(ctx.genus):
                e = ctx.Z_soul[j][k]
                if e.terms:
                    basis.append((e.embed(n), PI_I * P[:, j] * P[:, k]))
    for j, v in enumerate(zg):
        if v.soul().terms:
            basis.append((v.soul(), TWO_PI_I * P[:, j]))
    weights = c * weights
    totals = [GrassmannScalar.scalar(n, complex(s)) for s in weights.sum(axis=1)]

    def extend(start, gprod, warr, factor, run_b, run_len):
        for i in range(start, len(basis)):
            G, w = basis[i]
            g2 = gprod * G
            if not g2.terms:
                continue
            rl = run_len + 1 if i == run_b else 1
            f2 = factor / rl
            w2 = warr * w
            for r, s in enumerate(w2.sum(axis=1)):
                totals[r] = totals[r] + g2 * (f2 * complex(s))
            extend(i, g2, w2, f2, i, rl)

    extend(0, GrassmannScalar.one(n), weights, 1.0, -1, 0)
    return totals


def _random_soul(rng, n, scale):
    e = random_element(rng, n, parity=0, scale=scale)
    return e - GrassmannScalar.scalar(n, e.body)


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_soul_product_matches_the_taylor_sum(genus, n):
    rng = np.random.default_rng(100 * genus + n)
    # Z and z carry full even souls over different generator counts, Z's the larger at
    # genus 2 and z's elsewhere; one entry of Z_soul is an exact zero
    n_Z, n_z = (n, max(n - 2, 2)) if genus == 2 else (max(n - 2, 2), n)
    Z = np.diag(rng.uniform(0.9, 1.3, genus)) * 1j + 0.1 * rng.standard_normal((genus, genus))
    Z_soul = [[_random_soul(rng, n_Z, 0.05) for _ in range(genus)] for _ in range(genus)]
    Z_soul[0][genus - 1] = GrassmannScalar.zero(n_Z)
    ctx = ThetaContext(genus=genus, Z_red=Z, Z_soul=Z_soul, N=5,
                       characteristic="11" if genus == 1 else "0")
    z = [GrassmannScalar.scalar(n_z, complex(*rng.uniform(-0.3, 0.3, 2))) + _random_soul(rng, n_z, 0.1)
         for _ in range(genus)]
    derivs = [m for m in itertools.product(range(3), repeat=genus) if sum(m) <= 2]
    jk = (0, genus - 1)
    P = ctx.lattice(z)
    weights = np.array([np.prod((2j * np.pi * P) ** np.array(m), axis=1) for m in derivs]
                       + [1j * np.pi * P[:, jk[0]] * P[:, jk[1]]])
    want = _reference_lattice_sum(ctx, z, weights, n, P)
    got = theta_jet(ctx, z, derivs) + [theta_Z_derivative(ctx, z, jk)]
    for m, value, ref in zip(derivs + [jk], got, want):
        assert value.n == n
        assert (value - ref).norm_inf() <= 1e-13 * ref.norm_inf(), m


def test_soul_lattice_pass_makes_no_element_products(monkeypatch):
    n = 4
    rng = np.random.default_rng(7)
    Z_soul = [[_random_soul(rng, n, 0.05) for _ in range(2)] for _ in range(2)]
    z = [GrassmannScalar.scalar(n, 0.1 + 0.02j) + _random_soul(rng, n, 0.1),
         GrassmannScalar.scalar(n, -0.2)]

    def refuse(*args):
        raise AssertionError("GrassmannScalar product inside the lattice pass")

    monkeypatch.setattr(GrassmannScalar, "__mul__", refuse)
    ctx = ThetaContext(genus=2, Z_red=np.array([[1.2j, 0.1], [0.1, 1.1j]]), Z_soul=Z_soul)
    values = theta_jet(ctx, z, [(0, 0), (1, 0), (1, 1)])
    assert all(len(v.terms) > 1 for v in values)
    assert theta_Z_derivative(ctx, z, (0, 1)).terms


# -- the tail bound ----------------------------------------------------------------


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("N", [None, 2])
def test_tail_bound_covers_the_omitted_terms(genus, shifted, N):
    # the omitted terms, summed directly over the cube |n_i + shift_i| <= 9 less the kept
    # points, against the reported bound for every derivative of order <= 2; Z and z
    # both carry souls, and N = 2 cuts the ellipsoid so that the gap is far above roundoff
    n = 4
    rng = np.random.default_rng(60 + genus)
    Z = np.diag(rng.uniform(0.9, 1.3, genus)) * 1j + 0.1 * rng.standard_normal((genus, genus))
    Z = (Z + Z.T) / 2
    Z_soul = [[_random_soul(rng, n, 0.05) for _ in range(genus)] for _ in range(genus)]
    ctx = ThetaContext(genus=genus, Z_red=Z, Z_soul=Z_soul, N=N,
                       characteristic="11" if genus == 1 else "0")
    body = rng.uniform(-0.3, 0.3, genus) + 1j * rng.uniform(-0.2, 0.2, genus)
    if shifted:
        body = body + Z @ np.arange(1, genus + 1)
    z = [GrassmannScalar.scalar(n, complex(v)) + _random_soul(rng, n, 0.1) for v in body]
    derivs = [m for m in itertools.product(range(3), repeat=genus) if sum(m) <= 2]
    report = ctx.truncation(z, derivs)
    assert (report["shift"] != [0] * genus) == shifted
    a = 0.5 if genus == 1 else 0.0
    kept = {tuple(p) for p in np.rint(ctx.lattice(z) - a).astype(int).tolist()}
    cube = np.indices((19,) * genus).reshape(genus, -1).T - 9 - np.array(report["shift"])
    omitted = np.array([p for p in cube.tolist() if tuple(p) not in kept]) + a
    weights = np.array([np.prod((2j * np.pi * omitted) ** np.array(m), axis=1) for m in derivs])
    gaps = [v.norm_inf() for v in _reference_lattice_sum(ctx, z, weights, n, omitted)]
    for m, bound, gap in zip(derivs, report["tail_bound"], gaps):
        assert bound >= gap > 0, m
        assert bound <= 100 * gap, (m, bound / gap)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_tail_formula_bounds_a_direct_sum(genus):
    # the bound that sets R: sum over |v| > R of (1 + |v|/rho)^D exp(-|v|^2), v running
    # over a shifted lattice whose points lie at least rho apart, summed directly
    from supercurves.theta import _log_tail, _radius

    rng = np.random.default_rng(80 + genus)
    A = rng.standard_normal((genus, genus)) * 0.3 + np.eye(genus)
    Y = A @ A.T
    rho = np.sqrt(np.pi * np.linalg.eigvalsh(Y).min())
    T = np.sqrt(np.pi) * np.linalg.cholesky(Y).T
    for degree, offset in ((0, 0.5), (4, 1.5), (8, 1.0)):
        weight = np.polynomial.polynomial.polypow([1.0, 1 / rho], degree)
        R0 = _radius(genus, degree, rho, offset)
        for R in (R0 - 2, R0):
            for _ in range(3):
                half = 40 // genus
                m = np.indices((2 * half + 1,) * genus).reshape(genus, -1).T - half
                r = np.linalg.norm((m + rng.uniform(-0.5, 0.5, genus)) @ T.T, axis=1)
                r = r[r > R]
                direct = np.sum(np.polynomial.polynomial.polyval(r, weight) * np.exp(-r * r))
                assert np.exp(_log_tail(genus, rho, R, weight)) >= direct > 0
        # relative to the largest term, which lies within offset of the centre
        assert np.exp(_log_tail(genus, rho, R0, weight) + offset ** 2) <= 2.0 ** -52
