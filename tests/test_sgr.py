import math

import numpy as np
import pytest

from supercurves.errors import BigCellError, DomainError, ParityError
from supercurves.grassmann import GrassmannScalar, array_elements, array_grid, array_mul, \
    random_element
from supercurves.supermatrix import berezinian
from supercurves import acceptance, sgr

N = 4


def g(v):
    return GrassmannScalar.scalar(N, v)


def mono(idx, c=1.0):
    return GrassmannScalar.monomial(N, idx, c)


@pytest.fixture
def window():
    return sgr.TruncationWindow(M=6)


@pytest.fixture
def banded_frame(window):
    sym = {("z", 1): g(0.22 - 0.1j) + mono([0, 1], 0.15),
           ("z", 2): g(-0.11 + 0.06j),
           ("ztheta", 1): mono([2], 0.3)}
    band, warn = sgr.multiplication_matrix(window, sym, N)
    assert not warn
    return sgr.exp_band_apply(band, sgr.standard_frame(window, N))


def _nonzero(op):
    """{(row d, col d): value} over the nonzero entries of a window operator."""
    grid = op.entries
    return {(r, c): grid[op.window.pos(r)][op.window.pos(c)]
            for r in op.window.indices for c in op.window.indices
            if grid[op.window.pos(r)][op.window.pos(c)].terms}


def _elementary(window, r, c):
    grid = sgr.WindowOperator.zero(window, N).entries
    grid[window.pos(r)][window.pos(c)] = g(1)
    return sgr.WindowOperator(window, N, grid)


# -- window positions and multiplication matrices -----------------------------------


def test_pos_is_index_in_window(window):
    for d in window.indices:
        assert window.pos(d) == window.indices.index(d)
    for d in window.neg_indices:
        assert window.pos(d) == window.neg_indices.index(d)


def test_unit_symbol_is_identity(window):
    op, _ = sgr.multiplication_matrix(window, {("z", 0): g(1)}, N)
    entries = _nonzero(op)
    assert sorted(entries) == sorted((d, d) for d in window.indices)
    assert all(v == g(1) for v in entries.values())


def test_z_inverse_band_covers_both_lines(window):
    op, _ = sgr.multiplication_matrix(window, {("z", -1): g(1)}, N)
    grid = op.entries
    for d in window.indices:
        if window.contains(d - 2):
            assert grid[window.pos(d - 2)][window.pos(d)] == g(1)


def test_lambda_plus_mu_is_z_power(window):
    for nn in (1, 2):
        combo, _ = sgr.multiplication_matrix(
            window, {("lambda", nn): g(1), ("mu", nn): g(1)}, N)
        direct, _ = sgr.multiplication_matrix(window, {("z", -nn): g(1)}, N)
        assert combo.entries == direct.entries


def test_keys_on_the_same_slots_add(window):
    # z^-1 and lambda_1 both lower the even lines by one step: those slots hold the sum
    a, b = g(0.3) + mono([0, 1], 0.2), g(-0.1j) + mono([2, 3], 0.5)
    both, _ = sgr.multiplication_matrix(window, {("z", -1): a, ("lambda", 1): b}, N)
    z, _ = sgr.multiplication_matrix(window, {("z", -1): a}, N)
    lam, _ = sgr.multiplication_matrix(window, {("lambda", 1): b}, N)
    assert np.array_equal(both.array, z.array + lam.array)
    assert (both.entries[window.pos(-2)][window.pos(0)] - (a + b)).norm_inf() == 0.0


def test_composition_matches_symbol_product(window):
    sym_a = {(1, 0): g(0.5), (-1, 1): mono([0], 0.3)}
    sym_b = {(-2, 0): g(1.0 + 0.5j), (1, 1): mono([1], 0.7)}
    a, _ = sgr.multiplication_matrix(window, sgr.symbol_of_jheis(sym_a), N)
    b, _ = sgr.multiplication_matrix(window, sgr.symbol_of_jheis(sym_b), N)
    prod = array_grid(array_mul(a.array, b.array, N), N)
    want, _ = sgr.multiplication_matrix(
        window, sgr.symbol_of_jheis(_dict_symbol_mul(sym_a, sym_b, N)), N)
    interior = [d for d in window.indices if abs(d) <= 2 * window.M - 6]
    want_grid = want.entries
    for r in interior:
        for c in interior:
            lhs = prod[window.pos(r)][window.pos(c)]
            rhs = want_grid[window.pos(r)][window.pos(c)]
            assert (lhs - rhs).norm_inf() < 1e-12


def test_band_warning_flag():
    win = sgr.TruncationWindow(M=2)
    _, warn = sgr.multiplication_matrix(win, {("z", -5): g(1)}, N)
    assert warn
    _, warn = sgr.multiplication_matrix(win, {("z", -1): g(1)}, N)
    assert not warn


def test_parity_enforcement(window):
    with pytest.raises(ParityError):
        sgr.multiplication_matrix(window, {("z", 1): mono([0], 1.0)}, N)
    with pytest.raises(ParityError):
        sgr.multiplication_matrix(window, {("ztheta", 1): g(1.0)}, N)


@pytest.mark.parametrize("sym", [{("z", 0): g(0.1)}, {("z", 1): g(0.1), ("z", -1): g(0.1)}],
                         ids=["diagonal", "both_sides"])
def test_exp_band_apply_needs_strictly_triangular_band(window, sym):
    band, _ = sgr.multiplication_matrix(window, sym, N)
    with pytest.raises(DomainError):
        sgr.exp_band_apply(band, sgr.standard_frame(window, N))


def test_exp_band_apply_inverse_flow_returns_frame(window, banded_frame):
    sym = {("z", 1): g(0.3 + 0.2j) + mono([0, 1], 0.4), ("ztheta", 1): mono([2], 0.5)}
    band, _ = sgr.multiplication_matrix(window, sym, N)
    there = sgr.exp_band_apply(band, banded_frame, 1.0)
    back = sgr.exp_band_apply(band, there, -1.0)
    assert max((a - b).norm_inf() for ra, rb in zip(back.entries, banded_frame.entries)
               for a, b in zip(ra, rb)) < 1e-12
    assert max((a - b).norm_inf() for ra, rb in zip(there.entries, banded_frame.entries)
               for a, b in zip(ra, rb)) > 0.1


def test_log_of_symbol_with_body_raises():
    with pytest.raises(DomainError):
        sgr.symbol_log_unipotent(sgr.symbol_array({(-1, 0): g(0.5)}, N), N)


def test_symbol_exp_of_one_key_is_the_taylor_series():
    c = 0.3 - 0.2j
    # grades 2, 4, 6, 8 below 9
    out = _symbol_dict(sgr.symbol_exp(sgr.symbol_array({(-1, 0): g(c)}, N), N, 9))
    want = {(-k, 0): c ** k / math.factorial(k) for k in range(5)}
    assert set(out) == set(want)
    assert all(abs(out[key].body - v) < 1e-15 for key, v in want.items())


def test_symbol_exp_inverts_symbol_log():
    u = {(-1, 0): mono([0, 1], 0.5), (-1, 1): mono([2], 0.3), (-2, 0): mono([1, 3], -0.2)}
    back = _symbol_dict(sgr.symbol_exp(sgr.symbol_log_unipotent(sgr.symbol_array(u, N), N), N, 40))
    want = dict(u)
    want[(0, 0)] = g(1)
    zero = g(0)
    assert max((back.get(key, zero) - want.get(key, zero)).norm_inf()
               for key in set(back) | set(want)) < 1e-15


@pytest.mark.parametrize("key", [(0, 0), (1, 1)])
def test_symbol_exp_needs_negative_degree(key):
    # theta alone, (0, 1), lowers the doubled index by one and is allowed; the
    # check runs where the dict symbol becomes a grade array
    with pytest.raises(DomainError):
        sgr.symbol_exp(sgr.symbol_array({key: mono([0, 1] if key[1] == 0 else [0])}, N), N, 8)


def test_symbol_exp_needs_an_even_symbol():
    with pytest.raises(ParityError):
        sgr.symbol_exp(sgr.symbol_array({(-1, 0): mono([0])}, N), N, 8)
    with pytest.raises(ParityError):  # a mixed coefficient
        sgr.symbol_array({(-1, 1): mono([0]) + g(1)}, N)


# -- the grade arrays against the dict symbol arithmetic ----------------------------------


def _symbol_dict(S, n=N):
    """The nonzero columns of a grade array as a dict symbol, grade j at key (-(j // 2), j & 1)."""
    return {(-(j // 2), j & 1): e for j, e in enumerate(array_elements(S, n)) if e.terms}


def _accumulate(out, key, c):
    s = out[key] + c if key in out else c
    if s.terms:
        out[key] = s
    else:
        out.pop(key, None)


def _dict_symbol_mul(a, b, n):
    """Product of dict symbols of any grades: theta^2 = 0, coefficients supercommute past theta."""
    out = {}
    for (m1, t1), c1 in a.items():
        for (m2, t2), c2 in b.items():
            if t1 and t2:
                continue
            c = c1 * c2
            if t1 and c2.terms:
                par = c2.parity()
                if par is None:
                    raise ParityError("mixed-parity symbol coefficient")
                if par == 1:
                    c = -c1 * c2  # move c2 past theta
            _accumulate(out, (m1 + m2, t1 | t2), c)
    return out


def _dict_symbol_log_unipotent(u, n):
    out = {}
    power = dict(u)
    sign = 1.0
    for k in range(1, n + 1):
        if not power:
            break
        for key, c in power.items():
            _accumulate(out, key, c * (sign / k))
        power = _dict_symbol_mul(power, u, n)
        sign = -sign
    if power:
        raise DomainError("log series did not terminate; coefficients not nilpotent")
    return out


def _dict_symbol_exp(s, n, order):
    """The Brent-Kung recurrence on dict symbols, one element product per pair of grades."""
    parts = {t - 2 * m: {(m, t): c} for (m, t), c in s.items()}
    grades = [{(0, 0): GrassmannScalar.one(n)}]
    for k in range(1, order):
        Ek = {}
        for j, sj in parts.items():
            if j <= k:
                for key, c in _dict_symbol_mul(sj, grades[k - j], n).items():
                    _accumulate(Ek, key, c * (j / k))
        grades.append(Ek)
    return {key: c for Ek in grades for key, c in Ek.items()}


def _gap_dicts(got, want):
    zero = g(0)
    return max((got.get(key, zero) - want.get(key, zero)).norm_inf()
               for key in set(got) | set(want))


def _random_even_symbol(rng, grades, scale, soul_only=False):
    out = {}
    for j in grades:
        c = random_element(rng, N, parity=j & 1, scale=scale)
        out[(-(j // 2), j & 1)] = c - c.body if soul_only else c
    return out


@pytest.mark.parametrize("order", [32, 48])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symbol_arrays_match_the_dict_arithmetic(order, seed):
    rng = np.random.default_rng([seed, order])
    flow = _random_even_symbol(rng, [1, 2, 3, 4, 7], 0.3)
    S = sgr.symbol_array(flow, N)
    assert _gap_dicts(_symbol_dict(sgr.symbol_exp(S, N, order)),
                      _dict_symbol_exp(flow, N, order)) < 1e-15
    other = _random_even_symbol(rng, [1, 2, 5, 6], 0.5)
    assert _gap_dicts(_symbol_dict(sgr.symbol_mul(S, sgr.symbol_array(other, N), N)),
                      _dict_symbol_mul(flow, other, N)) < 1e-15
    u = _random_even_symbol(rng, [1, 2, 3, 6], 0.5, soul_only=True)
    assert _gap_dicts(_symbol_dict(sgr.symbol_log_unipotent(sgr.symbol_array(u, N), N)),
                      _dict_symbol_log_unipotent(u, N)) < 1e-15


def test_flow_and_tau_make_no_element_product(monkeypatch):
    frame = acceptance._frame_at(8, N)
    t = acceptance._test_flow(N)

    def refuse(*args):
        raise AssertionError("GrassmannScalar product on the flow path")

    monkeypatch.setattr(GrassmannScalar, "__mul__", refuse)
    sgr.flowed_frame(frame, t)
    assert sgr.tau(frame, t).finite


# -- the flow as one product against the band exponential ------------------------------


def _flows():
    return {
        "acceptance": acceptance._test_flow(N),
        "odd only": sgr.HeisenbergElement(N, {1: mono([0], 0.3), 3: mono([1], -0.25) + mono([2], 0.1)}),
        "t2 only": sgr.HeisenbergElement(N, {4: g(0.2 - 0.1j)}),
    }


def _frames(M):
    rng = np.random.default_rng(M)
    window = sgr.TruncationWindow(M)
    return {"acceptance": acceptance._frame_at(M, N),
            "random": sgr.random_big_cell_frame(rng, window, N),
            "random, larger souls": sgr.random_big_cell_frame(rng, window, N, scale=0.4)}


def _gap(F, G):
    return max((a - b).norm_inf() for ra, rb in zip(F.entries, G.entries) for a, b in zip(ra, rb))


@pytest.mark.parametrize("M", [4, 8, 12])
def test_flowed_frame_equals_band_exponential(M):
    flows = _flows()
    flows["random odd"] = sgr.HeisenbergElement(N, {
        1: random_element(np.random.default_rng(M), N, parity=1, scale=0.2),
        2: g(0.1 + 0.05j)})
    for frame in _frames(M).values():
        for t in flows.values():
            band, _ = sgr.flow_band(frame.window, t)
            assert _gap(sgr.flowed_frame(frame, t), sgr.exp_band_apply(band, frame, -1.0)) < 1e-13


@pytest.mark.parametrize("M", [4, 8, 12])
def test_tau_equals_band_route(M):
    for frame in _frames(M).values():
        for t in _flows().values():
            band, _ = sgr.flow_band(frame.window, t)
            flowed = sgr.exp_band_apply(band, frame, -1.0)
            want = berezinian(sgr.minus_block(flowed)) * berezinian(sgr.minus_block(frame)).invert()
            assert (sgr.tau(frame, t).tau - want).norm_inf() < 1e-13


def test_window_operations_make_no_conversion(rng, window, conversions):
    frame = sgr.random_big_cell_frame(rng, window, N)
    t = sgr.HeisenbergElement(N, {2: g(0.2), 1: mono([0], 0.3)})
    X, _ = sgr.multiplication_matrix(window, {("z", -2): g(1), ("ztheta", 1): mono([1])}, N)
    Y, _ = sgr.multiplication_matrix(window, {("z", 2): g(1)}, N)
    conversions.clear()
    assert sgr.tau(frame, t).finite
    sgr.flowed_frame(frame, t)
    assert sgr.big_cell_test(frame)[0]
    sgr.cocycle(X, Y)
    assert conversions == []


# -- big cell ----------------------------------------------------------------------


def test_standard_frame_in_big_cell(window):
    ok, normalized = sgr.big_cell_test(sgr.standard_frame(window, N))
    assert ok
    assert all((a - b).norm_inf() == 0
               for ra, rb in zip(normalized.entries, sgr.standard_frame(window, N).entries)
               for a, b in zip(ra, rb))


def test_zero_body_column_fails(window):
    grid = sgr.standard_frame(window, N).entries
    col = window.neg_indices.index(-2)
    grid[window.indices.index(-2)][col] = mono([0, 1], 0.5)
    frame = sgr.TruncatedFrame(window, N, grid)
    ok, _ = sgr.big_cell_test(frame)
    assert not ok


def test_delta_example_fails_big_cell(window):
    # column delta + z with nilpotent delta does not project onto e_0
    delta = mono([0, 1], 0.4)
    grid = sgr.standard_frame(window, N).entries
    col0 = window.neg_indices.index(0)
    grid[window.indices.index(0)][col0] = delta
    grid[window.indices.index(2)][col0] = g(1)
    frame = sgr.TruncatedFrame(window, N, grid)
    ok, _ = sgr.big_cell_test(frame)
    assert not ok


def _ill_conditioned_frame():
    # minus-block body diag(100, 5e-9, 1, ...): full rank to an absolute 1e-9,
    # condition number 2e10 to the relative body test
    window = sgr.TruncationWindow(4)
    grid = sgr.standard_frame(window, 2).entries
    for d, v in zip(window.neg_indices[:2], (100.0, 5e-9)):
        grid[window.indices.index(d)][window.neg_indices.index(d)] = \
            GrassmannScalar.scalar(2, v)
    return sgr.TruncatedFrame(window, 2, grid)


def test_ill_conditioned_minus_block_is_outside_big_cell():
    frame = _ill_conditioned_frame()
    assert sgr.big_cell_test(frame) == (False, None)
    with pytest.raises(BigCellError):
        sgr.baker_vectors(frame)


def test_ill_conditioned_minus_block_has_no_tau():
    # X and Y bodies are each well conditioned; the whole minus block is not
    with pytest.raises(BigCellError):
        sgr.tau(_ill_conditioned_frame(), sgr.HeisenbergElement(2, {}))


def test_normalized_frame_has_unit_minus_block(banded_frame):
    ok, normalized = sgr.big_cell_test(banded_frame)
    assert ok
    A = sgr.minus_block(normalized)
    from supercurves.supermatrix import SuperMatrix
    assert A.isclose(SuperMatrix.identity(A.row_shape, N), 1e-12)


# -- Baker vectors -------------------------------------------------------------------


def test_standard_frame_baker_vectors(window):
    vec = sgr.baker_vectors(sgr.standard_frame(window, N))
    assert set(vec.w_even) == {0} and vec.w_even[0] == g(1)
    assert set(vec.w_odd) == {-1} and vec.w_odd[-1] == g(1)
    assert vec.route_discrepancy() == 0.0


def test_two_route_baker_equality_random(rng, window):
    for _ in range(3):
        frame = sgr.random_big_cell_frame(rng, window, N)
        vec = sgr.baker_vectors(frame)
        assert vec.route_discrepancy() < 1e-9


def test_flowed_frame_baker_polynomial_in_flow(banded_frame):
    # leading coefficients after a single even flow, two routes compared
    for t1 in (0.1, 0.25, 0.4):
        t = sgr.HeisenbergElement(N, {2: g(t1)})
        flowed = sgr.flowed_frame(banded_frame, t)
        vec = sgr.baker_vectors(flowed)
        assert vec.route_discrepancy() < 1e-9


def test_route_discrepancy_sees_a_missing_route(banded_frame):
    # every index d > 0 either route holds is compared, a missing entry reading as zero
    vec = sgr.baker_vectors(banded_frame)
    lost = sgr.BakerVectors(vec.window, vec.w_even, vec.w_odd, {}, {})
    largest = max(v.norm_inf() for w in (vec.w_even, vec.w_odd) for d, v in w.items() if d > 0)
    assert largest > 0.01
    assert lost.route_discrepancy() == largest
    swapped = sgr.BakerVectors(vec.window, {}, {}, vec.w_even_cramer, vec.w_odd_cramer)
    assert swapped.route_discrepancy() > 0.01


def test_baker_routes_invert_no_element(banded_frame, monkeypatch):
    # both Cramer routes are Berezinian ratios of coefficient vectors, not element inverses
    t = sgr.HeisenbergElement(N, {2: g(0.16 + 0.08j), 1: mono([0], 0.25)})
    want = (sgr.baker_vectors(banded_frame),
            sgr.baker_tau_quotient_check(banded_frame, t, [0.1, 0.2], mono([3], 0.8)))

    def forbidden(self):
        raise AssertionError("element inverse inside a Baker route")

    monkeypatch.setattr(GrassmannScalar, "invert", forbidden)
    vec = sgr.baker_vectors(banded_frame)
    rep = sgr.baker_tau_quotient_check(banded_frame, t, [0.1, 0.2], mono([3], 0.8))
    assert vec.route_discrepancy() == want[0].route_discrepancy() < 1e-9
    assert rep == want[1]


def test_baker_functions_leading_structure(banded_frame):
    w_even, w_odd = sgr.baker_functions(banded_frame)
    assert (w_even[(0, 0)] - g(1)).norm_inf() < 1e-12
    assert (w_odd[(0, 1)] - g(1)).norm_inf() < 1e-12
    assert all(m >= 0 for (m, _t) in w_even)
    assert all(m >= 0 for (m, _t) in w_odd)


def test_baker_functions_are_symbols_of_baker_vectors(banded_frame):
    w_even, w_odd = sgr.baker_functions(banded_frame)
    vec = sgr.baker_vectors(banded_frame)
    # e_i = z^i (d = 2i) and e_{i-1/2} = z^i theta (d = 2i - 1)
    assert w_even == {((d + 1) // 2, d & 1): v for d, v in vec.w_even.items()}
    assert w_odd == {((d + 1) // 2, d & 1): v for d, v in vec.w_odd.items()}
    assert vec.functions() == (w_even, w_odd)


def test_baker_requires_big_cell(window):
    grid = sgr.standard_frame(window, N).entries
    col0 = window.neg_indices.index(0)
    grid[window.indices.index(0)][col0] = g(0)
    frame = sgr.TruncatedFrame(window, N, grid)
    with pytest.raises(BigCellError):
        sgr.baker_vectors(frame)


# -- tau functions ---------------------------------------------------------------------


def test_tau_standard_frame_is_one(window, rng):
    frame = sgr.standard_frame(window, N)
    t = sgr.HeisenbergElement(N, {2: g(0.3 + 0.1j), 1: mono([0], 0.5), 4: g(-0.2)})
    val = sgr.tau(frame, t)
    assert val.finite
    assert (val.tau - g(1)).norm_inf() < 1e-12
    assert (val.tau_star - g(1)).norm_inf() < 1e-12


def test_tau_zero_flow_is_one(banded_frame):
    val = sgr.tau(banded_frame, sgr.HeisenbergElement(N, {}))
    assert (val.tau - g(1)).norm_inf() < 1e-12


def test_tau_times_tau_star_is_one(banded_frame):
    t = sgr.HeisenbergElement(N, {2: g(0.2), 1: mono([3], 0.4)})
    val = sgr.tau(banded_frame, t)
    assert val.finite
    assert (val.tau * val.tau_star - g(1)).norm_inf() < 1e-10


def test_tau_factorizable_shift_product_rule(window):
    # k = -log(1 + zeta/z + xi theta/z) with nilpotent zeta, xi: multiplication
    # by exp(-k) preserves the span of W = m(z) H_-, so tau(f + k) factorizes
    sym_m = {("z", 1): g(0.25), ("z", 2): g(0.1 - 0.05j)}
    band, _ = sgr.multiplication_matrix(window, sym_m, N)
    frame = sgr.exp_band_apply(band, sgr.standard_frame(window, N))
    phi_sym = {(-1, 0): mono([0, 1], 0.5), (-1, 1): mono([2], 0.3)}
    k_sym = sgr.symbol_log_unipotent(sgr.symbol_array(phi_sym, N), N)
    k = sgr.HeisenbergElement.from_symbol(_symbol_dict(-k_sym), N)
    f = sgr.HeisenbergElement(N, {2: g(0.12 + 0.04j), 4: g(-0.06), 1: mono([3], 0.3)})
    tau_f = sgr.tau(frame, f)
    tau_k = sgr.tau(frame, k)
    tau_fk = sgr.tau(frame, f + k)
    assert tau_f.finite and tau_k.finite and tau_fk.finite
    residual = (tau_fk.tau - tau_f.tau * tau_k.tau).norm_inf()
    assert residual < 1e-8


def test_tau_cocycle_property(window, rng):
    # tau_W(t+s) = tau_W(t) tau_{W(t)}(s) holds identically
    frame = sgr.random_big_cell_frame(rng, window, N)
    t = sgr.HeisenbergElement(N, {2: g(0.15)})
    s = sgr.HeisenbergElement(N, {4: g(0.1), 1: mono([0], 0.2)})
    lhs = sgr.tau(frame, t + s).tau
    rhs = sgr.tau(frame, t).tau * sgr.tau(sgr.flowed_frame(frame, t), s).tau
    assert (lhs - rhs).norm_inf() < 1e-10


def test_tau_pole_reported(window):
    # a frame engineered to leave the big cell under the flow
    grid = sgr.standard_frame(window, N).entries
    i0 = window.indices.index(0)
    col0 = window.neg_indices.index(0)
    grid[i0][col0] = g(0.25)          # shrunk diagonal entry
    grid[window.indices.index(2)][col0] = g(1.0)  # strong z-component
    frame = sgr.TruncatedFrame(window, N, grid)
    t = sgr.HeisenbergElement(N, {2: g(0.25)})  # exp(-t z^-1) pushes z down to e_0
    val = sgr.tau(frame, t)
    assert not val.finite and val.tau is None


def test_heisenberg_parity_validation():
    with pytest.raises(ParityError):
        sgr.HeisenbergElement(N, {2: mono([0], 1.0)})
    with pytest.raises(ParityError):
        sgr.HeisenbergElement(N, {1: g(1.0)})


# -- Baker-tau quotient ------------------------------------------------------------------


def test_baker_tau_quotient_standard_frame(window):
    frame = sgr.standard_frame(window, N)
    rep = sgr.baker_tau_quotient_check(frame, sgr.HeisenbergElement(N, {}),
                                       [0.1], mono([3], 0.7))
    assert rep["max_residual"] < 1e-12


def test_baker_tau_quotient_raises_off_the_big_cell(window):
    # the frame and flow of test_tau_pole_reported
    grid = sgr.standard_frame(window, N).entries
    col0 = window.neg_indices.index(0)
    grid[window.indices.index(0)][col0] = g(0.25)
    grid[window.indices.index(2)][col0] = g(1.0)
    frame = sgr.TruncatedFrame(window, N, grid)
    t = sgr.HeisenbergElement(N, {2: g(0.25)})
    with pytest.raises(BigCellError):
        sgr.baker_tau_quotient_check(frame, t, [0.1], mono([3], 0.7))


def test_baker_tau_quotient_generic(banded_frame):
    t = sgr.HeisenbergElement(N, {2: g(0.16 + 0.08j), 1: mono([0], 0.25)})
    rep = sgr.baker_tau_quotient_check(banded_frame, t, [0.1, 0.2], mono([3], 0.8))
    assert rep["max_residual"] < 1e-8


def test_window_stability(rng):
    sym = {("z", 1): g(0.22 - 0.1j) + mono([0, 1], 0.15),
           ("ztheta", 1): mono([2], 0.3)}
    t = sgr.HeisenbergElement(N, {2: g(0.16 + 0.08j), 1: mono([0], 0.25)})
    taus = []
    for M in (8, 12):
        win = sgr.TruncationWindow(M)
        band, _ = sgr.multiplication_matrix(win, sym, N)
        frame = sgr.exp_band_apply(band, sgr.standard_frame(win, N))
        taus.append(sgr.tau(frame, t).tau)
    assert (taus[0] - taus[1]).norm_inf() < 1e-6


# -- cocycle -----------------------------------------------------------------------------


def test_cocycle_vanishes_on_one_sided_pairs(window):
    X, _ = sgr.multiplication_matrix(window, {("z", -2): g(1)}, N)
    Y, _ = sgr.multiplication_matrix(window, {("z", -1): g(1)}, N)
    assert sgr.cocycle(X, Y).is_zero()
    Xp, _ = sgr.multiplication_matrix(window, {("z", 2): g(1)}, N)
    Yp, _ = sgr.multiplication_matrix(window, {("z", 1): g(1)}, N)
    assert sgr.cocycle(Xp, Yp).is_zero()


def test_jheis_commutator_supertrace_vanishes(window):
    val = sgr.jheis_commutator_supertrace(
        window, {(-1, 0): g(1)}, {(1, 0): g(1)}, N)
    assert val.is_zero()
    val = sgr.jheis_commutator_supertrace(
        window, {(-2, 0): g(0.5), (-1, 1): mono([0], 1.0)},
        {(2, 0): g(1), (1, 1): mono([1], 1.0)}, N)
    assert val.norm_inf() < 1e-14


def test_cocycle_quarter_form_agrees(window):
    X, _ = sgr.multiplication_matrix(window, {("z", -2): g(1)}, N)
    Y, _ = sgr.multiplication_matrix(window, {("z", 2): g(1)}, N)
    assert (sgr.cocycle(X, Y) - sgr.cocycle_quarter_form(X, Y)).norm_inf() < 1e-14


def test_cocycle_nonzero_off_jheis(window):
    # single elementary entry in the c-block against its transpose in the b-block
    X = _elementary(window, 2, 0)     # even line, c-block
    Y = _elementary(window, 0, 2)
    assert sgr.cocycle(X, Y) == g(1)
    Xo = _elementary(window, 1, -1)   # odd line: sign flips
    Yo = _elementary(window, -1, 1)
    assert sgr.cocycle(Xo, Yo) == g(-1)
    assert (sgr.cocycle(X, Y) - sgr.cocycle_quarter_form(X, Y)).norm_inf() < 1e-14
    assert (sgr.cocycle(Xo, Yo) - sgr.cocycle_quarter_form(Xo, Yo)).norm_inf() < 1e-14
