import numpy as np
import pytest

from supercurves.errors import DimensionError, DomainError, ParityError
from supercurves.grassmann import GrassmannScalar, random_element
from supercurves import jacobian as jac

N = 4
G = 2


def g(v):
    return GrassmannScalar.scalar(N, v)


def mono(idx, c=1.0):
    return GrassmannScalar.monomial(N, idx, c)


@pytest.fixture
def pd_generic():
    Ze = [[g(1.3j) + mono([0, 1], 0.2), g(0.1 + 0.2j) + mono([2, 3], 0.3)],
          [g(0.1 + 0.2j) - mono([2, 3], 0.3), g(1.1j)]]
    Zo = [[mono([0], 0.7)], [mono([1], 0.4)]]
    return jac.PeriodData(g=G, Z_e=Ze, Z_o=Zo, n=N)


@pytest.fixture
def pd_split():
    Ze = [[g(1.3j), g(0.1)], [g(0.1), g(1.1j)]]
    Zo = [[g(0)], [g(0)]]
    return jac.PeriodData(g=G, Z_e=Ze, Z_o=Zo, n=N)


def test_period_data_validation():
    with pytest.raises(DomainError):
        jac.PeriodData(g=1, Z_e=[[g(-1j)]], Z_o=[[]], n=N)
    with pytest.raises(ParityError):
        jac.PeriodData(g=1, Z_e=[[mono([0], 1.0) + g(1j)]], Z_o=[[]], n=N)


def test_connecting_map_zero_for_projected(pd_split):
    Q = jac.connecting_map(pd_split)
    assert Q.max_coeff() == 0.0


def test_connecting_map_block_structure(pd_generic):
    Q = jac.connecting_map(pd_generic)
    Q2 = jac.connecting_map(pd_generic, via_full_matrix=True)
    assert Q.isclose(Q2, 0.0)
    assert Q.is_even()
    Qe = Q.entries
    # top-left (g-1)x(g-1) block vanishes identically
    assert Qe[0][0].is_zero()
    # Z_o^t / -Z_o / Z_e^t - Z_e blocks
    for a in range(G - 1):
        for j in range(G):
            assert Qe[a][G - 1 + j] == pd_generic.Z_o[j][a]
            assert Qe[G - 1 + j][a] == -pd_generic.Z_o[j][a]
    for i in range(G):
        for j in range(G):
            want = pd_generic.Z_e[j][i] - pd_generic.Z_e[i][j]
            assert Qe[G - 1 + i][G - 1 + j] == want


def test_dual_cohomology_split(pd_split):
    rep = jac.dual_cohomology(pd_split)
    dim = 1 << N
    assert rep.dim_ker == (G - 1) * dim and rep.ker_free
    assert rep.dim_coker == G * dim and rep.coker_free
    assert rep.dim_ker_t == G * dim and rep.ker_t_free
    assert rep.dim_coker_t == (G - 1) * dim and rep.coker_t_free


def test_dual_cohomology_annihilator_example(pd_split):
    Zo = [[GrassmannScalar.generator(N, 0)], [g(0)]]
    pd = jac.PeriodData(g=G, Z_e=pd_split.Z_e, Z_o=Zo, n=N)
    rep = jac.dual_cohomology(pd)
    # kernel = annihilator of beta_1 = beta_1 * Lambda, dimension 2^(n-1): not free
    assert rep.dim_ker == (1 << N) // 2
    assert not rep.ker_free


def test_dual_cohomology_rank_nullity(pd_generic):
    rep = jac.dual_cohomology(pd_generic)
    assert rep.dim_ker_odd + rep.rank_odd == rep.dim_domain_odd
    assert rep.dim_domain_odd == (G - 1) * (1 << N) // 2


def test_dual_cohomology_is_blind_to_the_scale_of_Zo(pd_generic):
    # scaling a map leaves its kernel alone; an absolute rank tolerance did not
    want = jac.dual_cohomology(pd_generic).as_dict()
    for scale in (1e-10, 1e10):
        Zo = [[e * scale for e in row] for row in pd_generic.Z_o]
        pd = jac.PeriodData(g=G, Z_e=pd_generic.Z_e, Z_o=Zo, n=N)
        assert jac.dual_cohomology(pd).as_dict() == want


def test_curve_cohomology_table():
    assert jac.curve_cohomology(3) == {
        "H0_O": (1, 0), "H1_O": (3, 2), "H0_Ber": (2, 3), "H1_Ber": (0, 1)}


def test_bilinear_disjoint_supports(rng):
    a = [random_element(rng, N, parity=1), g(0)]
    bh = [g(0), random_element(rng, N, parity=1)]
    zero = [g(0)] * G
    assert jac.bilinear_check((a, zero), (zero, bh)).norm_inf() == 0.0


def test_bilinear_constructed_pair(pd_generic, rng):
    a, b, ah, bh, A = jac.construct_bilinear_pair(pd_generic, rng)
    assert any(v.terms for v in a)  # nontrivial solution
    assert jac.bilinear_check((a, b), (ah, bh)).norm_inf() < 1e-12
    rel = jac.pair_relation_check(pd_generic, a, A)
    assert max(r.norm_inf() for r in rel) < 1e-12
    # the dual-vector constraints hold as well
    for al in range(G - 1):
        acc = GrassmannScalar.zero(N)
        for j in range(G):
            acc = acc + pd_generic.Z_o[j][al] * ah[j]
        assert acc.norm_inf() < 1e-12


def test_bilinear_negative_control(rng):
    rand = lambda: [random_element(rng, N) for _ in range(G)]
    assert jac.bilinear_check((rand(), rand()), (rand(), rand())).norm_inf() > 1e-3


def test_pair_relation_symmetric_cases(pd_split, rng):
    # Z_e symmetric, arbitrary a, A = 0 -> both terms vanish
    a = [random_element(rng, N, parity=1) for _ in range(G)]
    rel = jac.pair_relation_check(pd_split, a, [g(0)])
    assert max(r.norm_inf() for r in rel) == 0.0
    # Z_e symmetric, A in Ker Z_o (here Z_o = 0, so anything) -> 0
    rel = jac.pair_relation_check(pd_split, a, [random_element(rng, N, parity=0)])
    assert max(r.norm_inf() for r in rel) == 0.0


def test_pair_relation_antisymmetric_perturbation(pd_split, rng):
    Ze = [row[:] for row in pd_split.Z_e]
    bump = mono([0, 1], 0.4)
    Ze[0][1] = Ze[0][1] + bump
    Ze[1][0] = Ze[1][0] - bump
    pd = jac.PeriodData(g=G, Z_e=Ze, Z_o=pd_split.Z_o, n=N)
    a = [g(1), g(1)]
    rel = jac.pair_relation_check(pd, a, [g(0)])
    assert max(r.norm_inf() for r in rel) > 0.1


def test_projectedness_flags(pd_split, pd_generic):
    assert jac.projectedness_flags(pd_split) == {
        "Ze_symmetric": True, "Zo_zero": True, "projected": True}
    flags = jac.projectedness_flags(pd_generic)
    assert not flags["projected"]
    # nilpotent antisymmetric perturbation with Z_o = 0 still breaks projectedness
    Ze = [row[:] for row in pd_split.Z_e]
    bump = mono([0, 1], 0.4)
    Ze[0][1] = Ze[0][1] + bump
    Ze[1][0] = Ze[1][0] - bump
    pd = jac.PeriodData(g=G, Z_e=Ze, Z_o=pd_split.Z_o, n=N)
    flags = jac.projectedness_flags(pd)
    assert flags["Zo_zero"] and not flags["Ze_symmetric"] and not flags["projected"]


def test_riemann_roch_values():
    assert jac.riemann_roch(1, 2, 0) == (0, 0)       # deg L = g-1
    assert jac.riemann_roch(3, 2, 0) == (2, 2)       # deg L = 2g-1
    assert jac.riemann_roch(0, 1, 0) == (0, 0)
    assert jac.riemann_roch(5, 2, 1) == (4, 5)


def test_genus_one_edge_case():
    pd = jac.PeriodData(g=1, Z_e=[[g(1.5j)]], Z_o=[[]], n=N)
    Q = jac.connecting_map(pd)
    assert Q.nrows == 1 and Q.entries[0][0].is_zero()
    rep = jac.dual_cohomology(pd)
    assert rep.dim_ker == 0 and rep.dim_coker == (1 << N)
    assert rep.ker_free and rep.coker_free
    assert jac.projectedness_flags(pd)["projected"]
    assert len(jac.lattice_generators(pd)) == 2


def test_dual_period_vector(pd_generic, rng):
    a, b, ah, bh, A = jac.construct_bilinear_pair(pd_generic, rng)
    vec = jac.DualPeriodVector.from_a_periods(pd_generic, ah)
    for got, want in zip(vec.b, bh):
        assert (got - want).norm_inf() < 1e-12
    with pytest.raises(DomainError):
        # odd but outside Ker(Z_o^t)
        jac.DualPeriodVector.from_a_periods(
            pd_generic, [GrassmannScalar.generator(N, 3)] * G)
    with pytest.raises(ParityError):
        jac.DualPeriodVector.from_a_periods(pd_generic, [g(1)] * G)


def test_lattice_generators(pd_generic):
    gens = jac.lattice_generators(pd_generic)
    assert len(gens) == 2 * G
    z0 = [g(0)] * G
    e0 = [g(0)] * (G - 1)
    z1, e1 = gens[0].apply(z0, e0)
    assert z1[0] == g(1) and z1[1] == g(0) and e1[0] == g(0)
    zg, eg = gens[G].apply(z0, e0)
    assert all(zg[j] == pd_generic.Z_e[0][j] for j in range(G))
    assert eg[0] == pd_generic.Z_o[0][0]
    # composite with the inverse is the identity
    z2, e2 = gens[G].inverse().apply(zg, eg)
    assert all(v.is_zero() for v in z2 + e2)


@pytest.mark.parametrize("genus", [2, 3])
def test_bilinear_pair_without_generators(genus):
    # at n = 0 every element is even, so the a-periods vanish and the kernel is all A
    Ze = [[GrassmannScalar.scalar(0, 1.2j if i == j else 0.1 * (i + j)) for j in range(genus)]
          for i in range(genus)]
    Zo = [[GrassmannScalar.zero(0)] * (genus - 1) for _ in range(genus)]
    pd = jac.PeriodData(g=genus, Z_e=Ze, Z_o=Zo, n=0)
    a, b, ah, bh, A = jac.construct_bilinear_pair(pd, np.random.default_rng(genus))
    assert len(a) == genus and len(A) == genus - 1
    assert all(v.is_zero() for v in a) and any(v.terms for v in A)
    assert max(r.norm_inf() for r in jac.pair_relation_check(pd, a, A)) < 1e-12
    assert jac.bilinear_check((a, b), (ah, bh)).norm_inf() < 1e-12


def test_period_data_keeps_arrays_and_reads_grids(pd_generic):
    Ze = [[g(1.3j) + mono([0, 1], 0.2), g(0.1 + 0.2j) + mono([2, 3], 0.3)],
          [g(0.1 + 0.2j) - mono([2, 3], 0.3), g(1.1j)]]
    assert pd_generic.Z_e == Ze
    assert pd_generic.Z_o == [[mono([0], 0.7)], [mono([1], 0.4)]]
    assert pd_generic.ze.shape == (1 << N, G, G) and pd_generic.zo.shape == (1 << N, G, G - 1)
    with pytest.raises(ParityError):  # an odd entry has no body
        jac.PeriodData(g=G, Z_e=Ze, Z_o=[[mono([0]) + g(0.5)], [g(0)]], n=N)
    with pytest.raises(ParityError):
        jac.PeriodData(g=G, Z_e=Ze, Z_o=[[mono([0, 1])], [g(0)]], n=N)
    with pytest.raises(DimensionError):
        jac.PeriodData(g=G, Z_e=Ze, Z_o=[[g(0)]], n=N)


def test_period_work_makes_no_grid_conversion(pd_generic, rng, conversions):
    a, b, ah, bh, A = jac.construct_bilinear_pair(pd_generic, rng)
    conversions.clear()
    jac.connecting_map(pd_generic)
    jac.connecting_map(pd_generic, via_full_matrix=True)
    jac.dual_cohomology(pd_generic)
    jac.pair_relation_check(pd_generic, a, A)
    assert conversions == []


def test_period_matrix_work_runs_no_element_arithmetic(pd_generic, rng, monkeypatch):
    def refuse(*args):
        raise AssertionError("GrassmannScalar arithmetic in the period-matrix work")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(GrassmannScalar, op, refuse)
    jac.connecting_map(pd_generic)
    jac.connecting_map(pd_generic, via_full_matrix=True)
    jac.dual_cohomology(pd_generic)
    jac.construct_bilinear_pair(pd_generic, rng)
