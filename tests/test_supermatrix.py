import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercurves.errors import DimensionError, NotInvertibleError, ParityError
from supercurves.grassmann import GrassmannScalar, grid_array
from supercurves.supermatrix import (
    SuperLinearSystem,
    SuperMatrix,
    apply_row_vector,
    ber_star_substituted,
    ber_substituted,
    berezinian,
    berezinian_star,
    cramer_ratios,
    det_even,
    det_even_laplace,
    invert_matrix,
    oracle_solve,
    quasideterminant,
    random_even_matrix,
    random_vector,
    solve_cramer,
    solve_via_inverse,
)

N = 2


def g(v):
    return GrassmannScalar.scalar(N, v)


def gen(i):
    return GrassmannScalar.generator(N, i)


@pytest.fixture
def example_11():
    """[[1, b1], [b2, 1]] of shape (1|1)."""
    return SuperMatrix((1, 1), (1, 1), [[g(1), gen(0)], [gen(1), g(1)]])


def test_ber_identity_matrix():
    for shape in [(1, 1), (2, 1), (2, 3)]:
        A = SuperMatrix.identity(shape, N)
        assert berezinian(A) == g(1)
        assert berezinian_star(A) == g(1)


def test_ber_example(example_11):
    b12 = gen(0) * gen(1)
    assert berezinian(example_11) == g(1) - b12
    assert berezinian_star(example_11) == g(1) + b12
    assert berezinian(example_11) * berezinian_star(example_11) == g(1)


def test_ber_pure_parity_blocks():
    one = GrassmannScalar.one(N)
    zero = GrassmannScalar.zero(N)
    Y = SuperMatrix((0, 2), (0, 2), [[one * 2, zero], [zero, one * 4]])
    assert berezinian(Y).isclose(g(1 / 8), 1e-14)
    assert berezinian_star(Y).isclose(g(8), 1e-13)
    X = SuperMatrix((2, 0), (2, 0), [[one * 2, zero], [zero, one * 4]])
    assert berezinian(X).isclose(g(8), 1e-13)
    assert berezinian_star(X).isclose(g(1 / 8), 1e-14)


@pytest.mark.parametrize("shape", [(0, 1), (0, 3), (1, 0), (3, 0), (1, 2), (3, 2)],
                         ids=lambda s: f"{s[0]}|{s[1]}")
def test_ber_schur_routine_over_shapes(rng, shape):
    n = 4
    A = random_even_matrix(rng, shape, n)
    B = random_even_matrix(rng, shape, n)
    one = GrassmannScalar.one(n)
    assert (berezinian(A) * berezinian_star(A) - one).norm_inf() < 1e-9
    assert (berezinian(A @ B) - berezinian(A) * berezinian(B)).norm_inf() < 1e-9
    X, _, _, Y = A.blocks()
    if shape[1] == 0:
        assert (berezinian(A) - det_even_laplace(X, n)).norm_inf() < 1e-9
    if shape[0] == 0:
        assert (berezinian(A) - det_even_laplace(Y, n).invert()).norm_inf() < 1e-9


def test_ber_requires_even(example_11):
    bad = SuperMatrix((1, 1), (1, 1), [[gen(0), g(1)], [g(1), g(1)]])
    with pytest.raises(ParityError):
        berezinian(bad)


def test_ber_singular_reduced_block():
    A = SuperMatrix((1, 1), (1, 1), [[g(1), gen(0)], [gen(1), g(0)]])
    with pytest.raises(NotInvertibleError):
        berezinian(A)


def test_det_even_examples():
    assert det_even([[g(2), g(0)], [g(0), g(3)]], N) == g(6)
    b12 = gen(0) * gen(1)
    M = [[g(1), b12], [b12, g(1)]]
    assert det_even(M, N) == g(1)  # cross term kills itself
    a = g(2) + b12
    assert det_even([[a]], N) == a


def test_det_even_agrees_with_laplace(rng):
    from supercurves.grassmann import random_element

    n = 4
    for size in (2, 3, 4):
        M = [[random_element(rng, n, parity=0) for _ in range(size)] for _ in range(size)]
        fast = det_even(M, n)
        slow = det_even_laplace(M, n)
        assert (fast - slow).norm_inf() < 1e-9


def test_det_even_rejects_odd_entries():
    with pytest.raises(ParityError):
        det_even([[gen(0)]], N)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), size=st.integers(1, 3))
def test_det_even_transpose_invariance(seed, size):
    from supercurves.grassmann import random_element

    r = np.random.default_rng(seed)
    M = [[random_element(r, 4, parity=0) for _ in range(size)] for _ in range(size)]
    Mt = [[M[j][i] for j in range(size)] for i in range(size)]
    assert (det_even(M, 4) - det_even(Mt, 4)).norm_inf() < 1e-9


def test_quasidet_commutative_degeneration(rng):
    # 2x2 over plain numbers: |A|_11 = a11 - a12 a22^-1 a21 = det A / a22
    vals = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    A = SuperMatrix((2, 0), (2, 0), [[g(vals[0, 0]), g(vals[0, 1])],
                                     [g(vals[1, 0]), g(vals[1, 1])]])
    q = quasideterminant(A, 0, 0)
    want = np.linalg.det(vals) / vals[1, 1]
    assert abs(q.body - want) < 1e-12


def test_quasidet_identity():
    A = SuperMatrix.identity((2, 1), N)
    for i in range(3):
        assert quasideterminant(A, i, i) == g(1)


def test_quasidet_berezinian_quotients(rng):
    n = 4
    for _ in range(10):
        A = random_even_matrix(rng, (2, 2), n)
        lhs = quasideterminant(A, 0, 0) * berezinian(A.delete(0, 0))
        assert (lhs - berezinian(A)).norm_inf() < 1e-9
        lhs_odd = quasideterminant(A, 3, 3) * berezinian_star(A.delete(3, 3))
        assert (lhs_odd - berezinian_star(A)).norm_inf() < 1e-9


def test_quasidet_mixed_parity_rejected(example_11):
    with pytest.raises(ParityError):
        quasideterminant(example_11, 0, 1)


@pytest.mark.parametrize("shape", [(2, 1), (1, 0)])
def test_quasidet_index_out_of_range(shape):
    A = SuperMatrix.identity(shape, N)
    m = sum(shape)
    for i, j in ((m, m), (m - 1, m + 2), (-1, -1), (0, -1), (7, 0)):
        with pytest.raises(DimensionError, match="outside"):
            quasideterminant(A, i, j)


def test_invert_matrix_examples():
    assert invert_matrix(SuperMatrix.identity((1, 1), N)).isclose(
        SuperMatrix.identity((1, 1), N), 0)
    A = SuperMatrix((1, 1), (1, 1), [[g(2), gen(0)], [gen(1), g(1)]])
    Ainv = invert_matrix(A)
    b12 = gen(0) * gen(1)
    expect = SuperMatrix((1, 1), (1, 1), [
        [g(0.5) + b12 * 0.25, gen(0) * (-0.5)],
        [gen(1) * (-0.5), g(1) - b12 * 0.5],
    ])
    assert Ainv.isclose(expect, 1e-13)
    assert (A @ Ainv).isclose(SuperMatrix.identity((1, 1), N), 1e-13)
    assert (Ainv @ A).isclose(SuperMatrix.identity((1, 1), N), 1e-13)


@pytest.mark.parametrize("shape", [(2, 1), (3, 3)], ids=["2x1", "3x3"])
def test_inverse_entries_are_quasidet_inverses(rng, shape):
    n = 4
    k = shape[0]
    m = sum(shape)
    A = random_even_matrix(rng, shape, n)
    B = invert_matrix(A).entries
    ber_A = berezinian(A)
    ber_star_A = berezinian_star(A)
    for i in range(m):
        for j in range(m):
            if (i < k) != (j < k):
                continue  # mixed-parity quasidets do not exist over Lambda
            q = quasideterminant(A, j, i)
            # (-1)^{i+j} |A|_ji ber(A^{ji}) = ber(A), with ber* in the odd class
            ber = berezinian if j < k else berezinian_star
            whole = ber_A if j < k else ber_star_A
            sign = -1.0 if (i + j) & 1 else 1.0
            assert (q * ber(A.delete(j, i)) * sign - whole).norm_inf() < 1e-9
            if abs(q.body) < 1e-6:
                continue
            assert (B[i][j] - q.invert()).norm_inf() < 1e-8


def test_singular_body_raises():
    A = SuperMatrix((1, 0), (1, 0), [[g(0) + gen(0) * gen(1)]])
    with pytest.raises(NotInvertibleError):
        invert_matrix(A)


# bodies that are singular or nearly so relative to their own scale
NEAR_SINGULAR_BODIES = {
    "diag_1_1e-13": np.diag([1.0, 1e-13]),
    "rank1_plus_1e-13": np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]),
    "exactly_singular": np.array([[1.0, 2.0], [2.0, 4.0]]),
    "3x3_scaled_1e6": 1e6 * np.diag([1.0, 0.5, 1e-12]),
}


def _even_grid(body, rng, n=4):
    """Square grid of even elements: the given body plus random even souls."""
    m = body.shape[0]
    return [[GrassmannScalar.scalar(n, complex(body[i, j]))
             + GrassmannScalar.monomial(n, [0, 1], complex(rng.standard_normal()))
             + GrassmannScalar.monomial(n, [2, 3], complex(rng.standard_normal()))
             for j in range(m)] for i in range(m)]


def _with_bad_block(body, odd_block, rng, n=4):
    """Even supermatrix whose even-even (or odd-odd) block has the given body;
    the other diagonal block is the 1x1 identity."""
    m = body.shape[0]
    bad = _even_grid(body, rng, n)
    one = GrassmannScalar.one(n)
    if odd_block:
        shape = (1, m)
        rows = [[one] + [GrassmannScalar.generator(n, 0)] * m]
        rows += [[GrassmannScalar.generator(n, 1)] + row for row in bad]
    else:
        shape = (m, 1)
        rows = [row + [GrassmannScalar.generator(n, 0)] for row in bad]
        rows += [[GrassmannScalar.generator(n, 1)] * m + [one]]
    return SuperMatrix(shape, shape, rows)


@pytest.mark.parametrize("name", sorted(NEAR_SINGULAR_BODIES))
def test_near_singular_body_raises(rng, name):
    body = NEAR_SINGULAR_BODIES[name]
    n = 4
    M = _even_grid(body, rng, n)
    m = body.shape[0]
    with pytest.raises(NotInvertibleError, match="condition number"):
        invert_matrix(SuperMatrix((m, 0), (m, 0), M))
    for odd_block in (False, True):
        A = _with_bad_block(body, odd_block, rng, n)
        with pytest.raises(NotInvertibleError, match="condition number"):
            berezinian(A)
        with pytest.raises(NotInvertibleError, match="condition number"):
            berezinian_star(A)
    lap = det_even_laplace(M, n)
    assert (det_even(M, n) - lap).norm_inf() <= 1e-12 * max(1.0, lap.norm_inf())


def test_ber_tests_the_whole_body():
    # the X and Y bodies are each well conditioned but 1e12 apart in scale:
    # the body diag(1e6, 1e-6) fails the one test invert_matrix also applies
    A = SuperMatrix((1, 1), (1, 1), [[g(1e6), gen(0)], [gen(1), g(1e-6)]])
    for fn in (invert_matrix, berezinian, berezinian_star):
        with pytest.raises(NotInvertibleError, match="condition number"):
            fn(A)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_body_raises(value):
    A = SuperMatrix((1, 0), (1, 0), [[g(value)]])
    for fn in (invert_matrix, berezinian, berezinian_star):
        with pytest.raises(NotInvertibleError, match="not finite"):
            fn(A)


def test_small_well_conditioned_body_is_invertible():
    # the invertibility test is relative: a uniformly small body is fine
    n = 4
    body = 1e-13 * np.array([[2.0, 1.0], [0.5, 3.0]])
    A = SuperMatrix((2, 0), (2, 0), [[GrassmannScalar.scalar(n, complex(v)) for v in row]
                                     for row in body])
    assert (A @ invert_matrix(A)).isclose(SuperMatrix.identity((2, 0), n), 1e-12)
    assert abs(berezinian(A).body - np.linalg.det(body)) <= 1e-12 * abs(np.linalg.det(body))


def test_body_of_matrix_without_rows():
    assert SuperMatrix((0, 0), (1, 1), []).body().shape == (0, 2)
    assert SuperMatrix.zero((1, 1), (0, 2), N).body().shape == (2, 2)


def test_cramer_worked_example():
    A = SuperMatrix((1, 1), (1, 1), [[g(2), gen(0)], [gen(1), g(1)]])
    y = [g(1), g(0)]
    x = solve_cramer(SuperLinearSystem(A, y))
    b12 = gen(0) * gen(1)
    assert (x[0] - (g(0.5) + b12 * 0.25)).norm_inf() < 1e-13
    assert (x[1] - gen(0) * (-0.5)).norm_inf() < 1e-13


def test_cramer_identity_any_rhs(rng):
    A = SuperMatrix.identity((2, 2), 4)
    y = random_vector(rng, 4, 4)
    x = solve_cramer(SuperLinearSystem(A, y))
    for a, b in zip(x, y):
        assert (a - b).norm_inf() < 1e-12


def test_cramer_three_routes_and_residual(rng):
    n = 4
    for shape in [(1, 1), (2, 1), (2, 2), (3, 3)]:
        A = random_even_matrix(rng, shape, n)
        y = random_vector(rng, shape[0] + shape[1], n)
        system = SuperLinearSystem(A, y)
        xc = solve_cramer(system)
        xo = oracle_solve(system)
        xi = solve_via_inverse(system)
        for a, b in zip(xc, xo):
            assert (a - b).norm_inf() < 1e-9
        for a, b in zip(xc, xi):
            assert (a - b).norm_inf() < 1e-9
        for a, b in zip(apply_row_vector(xc, A), y):
            assert (a - b).norm_inf() < 1e-9


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (2, 2), (3, 3)], ids=str)
def test_cramer_ratios_on_many_rows_match_the_inverse(rng, shape):
    # R = 3 rows at once; the last (odd-class) slot comes first, so the classes interleave
    n = 4
    m = sum(shape)
    A = random_even_matrix(rng, shape, n)
    rows = [random_vector(rng, m, n) for _ in range(3)]
    slots = [m - 1] + list(range(m - 1))
    got = cramer_ratios(A, slots, grid_array(rows, m, n))
    assert got.shape == (1 << n, m, 3)
    for r, y in enumerate(rows):
        want = solve_via_inverse(SuperLinearSystem(A, y))
        for t, i in enumerate(slots):
            assert np.abs(got[:, t, r] - want[i].coeffs()).max() < 1e-9


def test_substituted_ber_column_independence(rng):
    n = 4
    A = random_even_matrix(rng, (3, 3), n)
    y = random_vector(rng, 6, n)
    even_vals = [ber_substituted(A, 1, y, j=j) for j in range(3)]
    odd_vals = [ber_star_substituted(A, 4, y, j=j) for j in range(3, 6)]
    for v in even_vals[1:]:
        assert (v - even_vals[0]).norm_inf() < 1e-9
    for v in odd_vals[1:]:
        assert (v - odd_vals[0]).norm_inf() < 1e-9


def test_substituted_ber_recovers_plain_ber(rng):
    n = 4
    A = random_even_matrix(rng, (2, 2), n)
    assert (ber_substituted(A, 0, A.row(0)) - berezinian(A)).norm_inf() < 1e-9
    assert (ber_star_substituted(A, 3, A.row(3)) - berezinian_star(A)).norm_inf() < 1e-9
    # substituting a different row of A gives zero (solution of x A = row_k is e_k)
    assert ber_substituted(A, 0, A.row(1)).norm_inf() < 1e-9


def test_row_properties_P1_P2(rng):
    from supercurves.grassmann import random_element

    n = 4
    A = random_even_matrix(rng, (2, 2), n)
    lam = random_element(rng, n, parity=0, body=2.0 - 0.5j)
    B = A.with_row(0, [lam * e for e in A.entries[0]])
    assert (quasideterminant(B, 0, 0) - lam * quasideterminant(A, 0, 0)).norm_inf() < 1e-9
    assert (quasideterminant(B, 1, 1) - quasideterminant(A, 1, 1)).norm_inf() < 1e-9
    # P2: add last row to row 1; quasidets away from the added row are unchanged
    C = A.with_row(1, [a + b for a, b in zip(A.entries[1], A.entries[3])])
    assert (quasideterminant(C, 0, 0) - quasideterminant(A, 0, 0)).norm_inf() < 1e-9
    assert (quasideterminant(C, 1, 1) - quasideterminant(A, 1, 1)).norm_inf() < 1e-9


def test_cramer_all_odd_shape(rng):
    A = random_even_matrix(rng, (0, 2), 4)
    y = random_vector(rng, 2, 4)
    xc = solve_cramer(SuperLinearSystem(A, y))
    xo = oracle_solve(SuperLinearSystem(A, y))
    assert max((a - b).norm_inf() for a, b in zip(xc, xo)) < 1e-9


def test_six_generator_stress(rng):
    n = 6
    A = random_even_matrix(rng, (2, 2), n)
    B = random_even_matrix(rng, (2, 2), n)
    assert (berezinian(A @ B) - berezinian(A) * berezinian(B)).norm_inf() < 1e-9
    assert (berezinian(A) * berezinian_star(A) - GrassmannScalar.one(n)).norm_inf() < 1e-10
    y = random_vector(rng, 4, n)
    xc = solve_cramer(SuperLinearSystem(A, y))
    xo = oracle_solve(SuperLinearSystem(A, y))
    assert max((a - b).norm_inf() for a, b in zip(xc, xo)) < 1e-9


def test_oracle_on_singular_system():
    A = SuperMatrix((1, 0), (1, 0), [[g(0)]])
    with pytest.raises(NotInvertibleError):
        oracle_solve(SuperLinearSystem(A, [g(1)]))


def test_shape_mismatch():
    A = SuperMatrix.identity((1, 1), N)
    with pytest.raises(DimensionError):
        SuperLinearSystem(A, [g(1)])
    with pytest.raises(DimensionError):
        A @ SuperMatrix.identity((2, 1), N)


def _supertrace(M):
    k = M.row_shape[0]
    acc = GrassmannScalar.zero(M.n)
    entries = M.entries
    for i in range(M.nrows):
        acc = acc + (entries[i][i] if i < k else -entries[i][i])
    return acc


def _matrix_exp(X, terms=40):
    acc = SuperMatrix.identity(X.row_shape, X.n)
    power = SuperMatrix.identity(X.row_shape, X.n)
    for m in range(1, terms):
        power = power @ X
        power = power.scale(1.0 / m)
        acc = acc + power
        if power.max_coeff() < 1e-18:
            break
    return acc


def test_ber_of_exponential_is_exp_of_supertrace(rng):
    # independent route into the block formula: ber(exp X) = exp(Str X)
    n = 4
    for shape in [(1, 1), (2, 1), (2, 2)]:
        X = random_even_matrix(rng, shape, n, soul_scale=0.3)
        X = X.scale(0.35)  # keep the series well inside convergence
        lhs = berezinian(_matrix_exp(X))
        rhs = _supertrace(X).exp()
        assert (lhs - rhs).norm_inf() < 1e-9
        lhs_star = berezinian_star(_matrix_exp(X))
        rhs_star = (-_supertrace(X)).exp()
        assert (lhs_star - rhs_star).norm_inf() < 1e-9


def test_matrix_json_roundtrip(rng):
    A = random_even_matrix(rng, (2, 1), 4)
    B = SuperMatrix.from_json(A.to_json())
    assert B.isclose(A, 0)
    assert B.row_shape == A.row_shape and B.col_shape == A.col_shape


def test_oracle_scales_with_the_right_hand_side(rng):
    # an absolute cutoff of 1e-12 zeroed every coefficient of a solution this small
    n = 4
    A = random_even_matrix(rng, (2, 1), n)
    y = random_vector(rng, 3, n)
    x = oracle_solve(SuperLinearSystem(A, y))
    small = oracle_solve(SuperLinearSystem(A, [v * 1e-14 for v in y]))
    for a, b in zip(x, small):
        assert b.terms
        assert (b * 1e14 - a).norm_inf() < 1e-9 * a.norm_inf()


def test_operations_on_built_matrices_make_no_conversion(rng, conversions):
    n = 4
    A = random_even_matrix(rng, (2, 1), n)
    B = random_even_matrix(rng, (2, 1), n)
    conversions.clear()
    berezinian(A @ B)
    berezinian_star(A)
    invert_matrix(A)
    quasideterminant(A, 0, 0)
    assert conversions == []


# -- one parity rule, lossless storage ----------------------------------------------


def _entrywise_even(grid, row_parity, col_parity):
    """The entrywise rule: a nonzero entry is homogeneous of parity row + col mod 2."""
    return all(not e.terms or e.parity() == (rp + cp) & 1
               for row, rp in zip(grid, row_parity) for e, cp in zip(row, col_parity))


@st.composite
def _entry(draw, n, want):
    """Zero, or up to three terms; the masks have the slot's parity or are arbitrary."""
    right = [m for m in range(1 << n) if bin(m).count("1") & 1 == want]
    mask = st.integers(0, (1 << n) - 1)
    if right:
        mask = st.one_of(st.sampled_from(right), mask)
    terms = draw(st.lists(st.tuples(mask, st.sampled_from([1.0, -0.5 + 2j, 1e-300, 3e8j])),
                          max_size=3))
    return GrassmannScalar(n, dict(terms))


@st.composite
def _matrix_case(draw):
    n = draw(st.sampled_from([0, 2, 4]))
    k, l, p, q = (draw(st.integers(0, 2)) for _ in range(4))
    row_parity, col_parity = [0] * k + [1] * l, [0] * p + [1] * q
    grid = [[draw(_entry(n, (rp + cp) & 1)) for cp in col_parity] for rp in row_parity]
    return (k, l), (p, q), grid, row_parity, col_parity


@st.composite
def _frame_case(draw):
    from supercurves import sgr

    n = draw(st.sampled_from([0, 2, 4]))
    window = sgr.TruncationWindow(2)
    rows, cols = window.indices, window.neg_indices
    grid = [[GrassmannScalar.zero(n)] * len(cols) for _ in rows]
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                        st.integers(0, len(cols) - 1)), max_size=4)):
        grid[i][j] = draw(_entry(n, (rows[i] + cols[j]) & 1))
    return window, n, grid


@settings(max_examples=150, deadline=None)
@given(case=_matrix_case())
def test_matrix_parity_check_and_storage_match_the_entries(case):
    row_shape, col_shape, grid, row_parity, col_parity = case
    A = SuperMatrix(row_shape, col_shape, grid)
    assert A.is_even() == _entrywise_even(grid, row_parity, col_parity)
    assert A.entries == grid


@settings(max_examples=100, deadline=None)
@given(case=_frame_case())
def test_frame_parity_check_and_storage_match_the_entries(case):
    from supercurves import sgr

    window, n, grid = case
    frame = sgr.TruncatedFrame(window, n, grid)
    if _entrywise_even(grid, [d & 1 for d in window.indices], [d & 1 for d in window.neg_indices]):
        frame.require_even()
    else:
        with pytest.raises(ParityError):
            frame.require_even()
    assert frame.entries == grid


# -- Cramer per parity class ------------------------------------------------------------


def _ill_conditioned_minor_system(seed):
    """A (3|3) system at n = 4 whose minor A^{00} has a body of condition 1e3,
    while A and the minors A^{01}, A^{02} are well conditioned."""
    n = 4
    rng = np.random.default_rng(seed)
    A = random_even_matrix(rng, (3, 3), n)
    U, _, Vh = np.linalg.svd(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    D = A.array.copy()
    D[0, 1:3, 1:3] = U @ np.diag([1.0, 1e-3]) @ Vh
    return SuperLinearSystem(SuperMatrix._of((3, 3), (3, 3), n, D), random_vector(rng, 6, n))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cramer_takes_the_best_conditioned_column(seed):
    # the first admissible column of row 0 has a minor of condition 1e3, and
    # Cramer through it missed the oracle by up to 1e-7
    system = _ill_conditioned_minor_system(seed)
    body = system.matrix.body()
    assert 0.9e3 < np.linalg.cond(body[1:3, 1:3]) < 1.1e3
    assert np.linalg.cond(body) < 1e2
    xc = solve_cramer(system)
    xo = oracle_solve(system)
    assert max((a - b).norm_inf() for a, b in zip(xc, xo)) < 1e-9
    y0 = ber_substituted(system.matrix, 0, system.rhs)
    assert (y0 - ber_substituted(system.matrix, 0, system.rhs, j=1)).norm_inf() < 1e-9


def test_substitution_without_admissible_column_raises():
    # row 0 of the identity substitutes only at column 0; pinning j = 1 leaves a singular minor
    A = SuperMatrix.identity((2, 1), 4)
    y = [GrassmannScalar.one(4)] * 3
    with pytest.raises(NotInvertibleError, match="no admissible column"):
        ber_substituted(A, 0, y, j=1)
    assert (ber_substituted(A, 0, y) - GrassmannScalar.one(4)).norm_inf() < 1e-15


def test_berezinian_runs_no_element_arithmetic(rng, monkeypatch):
    # the Berezinians, det_even and Cramer end in one exponential of a coefficient
    # vector: no GrassmannScalar exp, inverse or product runs inside them
    n = 4
    A = random_even_matrix(rng, (2, 2), n)
    y = random_vector(rng, 4, n)
    X = A.blocks()[0]
    want = (berezinian(A), berezinian_star(A), det_even(X), solve_cramer(SuperLinearSystem(A, y)))

    def forbidden(*args, **kwargs):
        raise AssertionError("element arithmetic inside a Berezinian")

    for name in ("exp", "invert", "__mul__", "__rmul__", "__truediv__"):
        monkeypatch.setattr(GrassmannScalar, name, forbidden)
    got = (berezinian(A), berezinian_star(A), det_even(X), solve_cramer(SuperLinearSystem(A, y)))
    assert got[:3] == want[:3]
    assert all(a == b for a, b in zip(got[3], want[3]))


# -- the oracle's multiplication operators ------------------------------------------------


def _loop_operator(a, left):
    """x -> a*x (left) or x -> x*a from merge signs, one monomial pair at a time."""
    from supercurves.grassmann import sign_of_merge

    dim = 1 << a.n
    M = np.zeros((dim, dim), dtype=complex)
    for t, v in a.terms.items():
        for s in range(dim):
            if s & t:
                continue
            M[s | t, s] += (sign_of_merge(t, s) if left else sign_of_merge(s, t)) * v
    return M


@pytest.mark.parametrize("n", range(7))
def test_mult_operators_match_the_merge_sign_loop(rng, n):
    from supercurves.grassmann import random_element
    from supercurves.supermatrix import left_mult_operator, right_mult_operator

    for parity in (None, 0, 1):
        a = random_element(rng, n, parity=parity)
        assert np.array_equal(left_mult_operator(a), _loop_operator(a, True))
        assert np.array_equal(right_mult_operator(a), _loop_operator(a, False))
    zero = GrassmannScalar.zero(n)
    assert not left_mult_operator(zero).any() and not right_mult_operator(zero).any()


@pytest.mark.parametrize("n", range(7))
def test_expand_left_map_is_the_blocks_of_left_operators(rng, n):
    from supercurves.grassmann import array_elements, random_element
    from supercurves.supermatrix import expand_left_map, left_mult_operator

    rows, cols, dim = 3, 2, 1 << n
    D = np.stack([random_element(rng, n).coeffs() for _ in range(rows * cols)], axis=1)
    D = D.reshape(dim, rows, cols)
    D[:, 1, 0] = 0  # a zero entry gives a zero block
    want = np.zeros((rows * dim, cols * dim), dtype=complex)
    for i in range(rows):
        for j, e in enumerate(array_elements(D[:, i, :], n)):
            want[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = left_mult_operator(e)
    assert np.array_equal(expand_left_map(D, n), want)


def test_oracle_is_independent_of_the_lambda_products(rng, monkeypatch):
    from supercurves import grassmann, supermatrix

    n = 4
    A = random_even_matrix(rng, (2, 1), n)
    y = random_vector(rng, 3, n)
    xc = solve_cramer(SuperLinearSystem(A, y))

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the Lambda product code")

    monkeypatch.setattr(grassmann, "array_mul", forbidden)
    monkeypatch.setattr(supermatrix, "array_mul", forbidden)
    monkeypatch.setattr(grassmann, "_pair_table", forbidden)
    monkeypatch.setattr(GrassmannScalar, "__mul__", forbidden)
    xo = oracle_solve(SuperLinearSystem(A, y))
    assert max((a - b).norm_inf() for a, b in zip(xc, xo)) < 1e-9


# -- properties: Gelfand-Retakh and the log-domain determinants ------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 3), (0, 2), (2, 0)]),
       n=st.sampled_from([2, 4]))
def test_gelfand_retakh_quasidet_times_inverse_entry_is_one(seed, shape, n):
    # |A|_ij (A^-1)_ji = 1 for i, j in the same parity class
    A = random_even_matrix(np.random.default_rng(seed), shape, n)
    B = invert_matrix(A).entries
    one = GrassmannScalar.one(n)
    k, m = shape[0], sum(shape)
    for i in range(m):
        for j in range(m):
            if (i < k) != (j < k):
                continue
            q = quasideterminant(A, i, j)
            scale = max(1.0, q.norm_inf() * B[j][i].norm_inf())
            assert (q * B[j][i] - one).norm_inf() <= 1e-9 * scale


def _element_det(M, n):
    """det(body) exp(tr log(1 + body^-1 soul)) of a square grid of even elements,
    with GrassmannScalar products, exp and nothing from the array code."""
    m = len(M)
    body = np.array([[e.body for e in row] for row in M], dtype=complex).reshape(m, m)
    binv = np.linalg.inv(body)
    N = [[sum((M[p][c].soul() * complex(binv[r, p]) for p in range(m)), GrassmannScalar.zero(n))
          for c in range(m)] for r in range(m)]
    log = GrassmannScalar.zero(n)
    power = N
    for r in range(1, n + 1):
        trace = sum((power[i][i] for i in range(m)), GrassmannScalar.zero(n))
        log = log + trace * ((-1.0) ** (r + 1) / r)
        power = [[sum((power[i][p] * N[p][c] for p in range(m)), GrassmannScalar.zero(n))
                  for c in range(m)] for i in range(m)]
    return log.exp() * complex(np.linalg.det(body))


def _element_ber(A, star, det):
    """ber (ber* when star) as det(S) det(P)^-1, the inverse by GrassmannScalar.invert."""
    X, alpha, beta, Y = A.blocks()
    K, a, P, b = (Y, beta, X, alpha) if star else (X, alpha, Y, beta)
    S = K - a @ invert_matrix(P) @ b
    return det(S.entries, A.n) * det(P.entries, A.n).invert()


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_log_domain_determinants_match_the_element_routes(rng, shape):
    n = 6
    A = random_even_matrix(rng, shape, n)
    X = A.blocks()[0]
    for det in (_element_det, det_even_laplace):
        for got, want in ((berezinian(A), _element_ber(A, False, det)),
                          (berezinian_star(A), _element_ber(A, True, det)),
                          (det_even(X), det(X.entries, n))):
            assert (got - want).norm_inf() <= 1e-12 * want.norm_inf()
