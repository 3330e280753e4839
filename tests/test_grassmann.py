import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercurves.errors import DimensionError, NotInvertibleError, ParityError
from supercurves import grassmann
from supercurves.grassmann import (_KERNEL_BUDGET, _TINY_MIN_PAIRS, MAX_GENERATORS,
                                   GrassmannScalar, RealStructure, array_elements, array_grid,
                                   array_mul, grid_array, parity_violations,
                                   random_element, sign_of_merge)
from supercurves.supermatrix import left_mult_operator

N = 3


def gen(i, n=N):
    return GrassmannScalar.generator(n, i)


def one(n=N):
    return GrassmannScalar.one(n)


def test_ordered_product():
    b1, b2 = gen(0), gen(1)
    assert (b1 * b2).terms == {0b11: 1.0 + 0j}


def test_anticommutation():
    b1, b2 = gen(0), gen(1)
    assert (b2 * b1).terms == {0b11: -1.0 + 0j}
    assert (b1 * b1).is_zero()


def test_nilpotent_cancellation():
    b1, b2 = gen(0), gen(1)
    p = (one() + b1 * b2) * (one() - b1 * b2)
    assert p == one()


def test_invert_nilpotent_neumann():
    b1, b2 = gen(0), gen(1)
    a = one() + b1 * b2
    assert a.invert() == one() - b1 * b2
    b = GrassmannScalar.scalar(N, 2) - b1 * b2
    binv = b.invert()
    assert binv.isclose(GrassmannScalar.scalar(N, 0.5) + b1 * b2 * 0.25, 1e-14)
    assert (b * binv - one()).norm_inf() < 1e-14


def test_odd_elements_not_invertible():
    with pytest.raises(NotInvertibleError):
        gen(0).invert()
    with pytest.raises(NotInvertibleError):
        GrassmannScalar.zero(N).invert()


@pytest.mark.parametrize("body", [np.inf, np.nan, 1e-320])
def test_invert_raises_instead_of_returning_inf_or_nan(body):
    # unchecked, the Neumann series turns these into the zero element, a NaN element
    # and inf/NaN coefficients
    with pytest.raises(NotInvertibleError):
        GrassmannScalar(2, {0: body, 0b11: 1.0}).invert()


def test_reduce_examples():
    b1, b2 = gen(0), gen(1)
    assert (GrassmannScalar.scalar(N, 3) + b1).reduce() == 3
    assert (b1 * b2).reduce() == 0
    assert GrassmannScalar.zero(N).reduce() == 0


def test_conjugation_fixed_generators_antilinear():
    s = RealStructure(+1)
    assert (gen(0) * 1j).conjugate(s) == gen(0) * (-1j)
    assert gen(0).conjugate(s) == gen(0)


def test_conjugation_reverses_products():
    b1, b2 = gen(0), gen(1)
    assert (b1 * b2).conjugate(RealStructure(+1)) == -(b1 * b2)
    assert (b1 * b2).conjugate(RealStructure(-1)) == b1 * b2


@pytest.mark.parametrize("eps", [1, -1])
def test_conjugation_axioms_random(rng, eps):
    s = RealStructure(eps)
    for _ in range(30):
        pa, pb = rng.integers(0, 2), rng.integers(0, 2)
        a = random_element(rng, N, parity=int(pa))
        b = random_element(rng, N, parity=int(pb))
        lhs = (a * b).conjugate(s)
        sign = eps ** (int(pa) * int(pb))
        rhs = b.conjugate(s) * a.conjugate(s) * sign
        assert (lhs - rhs).norm_inf() < 1e-12
        assert (a.conjugate(s).conjugate(s) - a).norm_inf() < 1e-12


def test_reduce_is_ring_homomorphism(rng):
    for _ in range(20):
        a = random_element(rng, N)
        b = random_element(rng, N)
        assert abs((a * b).reduce() - a.reduce() * b.reduce()) < 1e-12
        assert abs((a + b).reduce() - (a.reduce() + b.reduce())) < 1e-12


@settings(max_examples=40, deadline=None)
@given(pa=st.integers(0, 1), pb=st.integers(0, 1), seed=st.integers(0, 2 ** 16))
def test_supercommutativity(pa, pb, seed):
    r = np.random.default_rng(seed)
    a = random_element(r, N, parity=pa)
    b = random_element(r, N, parity=pb)
    sign = -1.0 if pa and pb else 1.0
    assert (a * b - b * a * sign).norm_inf() < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_associativity(seed):
    r = np.random.default_rng(seed)
    a, b, c = (random_element(r, N) for _ in range(3))
    assert ((a * b) * c - a * (b * c)).norm_inf() < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16))
def test_invert_exactness(seed):
    r = np.random.default_rng(seed)
    a = random_element(r, N, body=1.0 + 0.5j)
    p = a * a.invert()
    assert abs(p.terms[0] - 1) < 1e-12
    assert all(abs(c) < 1e-12 for m, c in p.terms.items() if m)


def test_exp_inverse_relation():
    b1, b2, b3 = gen(0), gen(1), gen(2)
    a = b1 * b2 * 0.7 + b2 * b3 * (0.2 - 0.1j)
    e = a.exp()
    assert (e * (-a).exp() - one()).norm_inf() < 1e-14
    assert abs((GrassmannScalar.scalar(N, 1.5) + b1 * b2).exp().body - np.exp(1.5)) < 1e-12


def test_substitution_homomorphism(rng):
    images = {0: gen(1) + gen(2) * 0.5, 1: gen(0) * 2.0}
    for _ in range(10):
        a = random_element(rng, N)
        b = random_element(rng, N)
        lhs = (a * b).substitute(images)
        rhs = a.substitute(images) * b.substitute(images)
        assert (lhs - rhs).norm_inf() < 1e-12


def test_substitution_rejects_even_images():
    with pytest.raises(ParityError):
        one().substitute({0: one()})


def test_mismatched_algebras():
    with pytest.raises(DimensionError):
        GrassmannScalar.one(2) * GrassmannScalar.one(3)


def test_generator_cap():
    with pytest.raises(DimensionError):
        GrassmannScalar.zero(13)
    GrassmannScalar.zero(12)


def test_json_roundtrip(rng):
    a = random_element(rng, N)
    blob = json.dumps(a.to_json())
    back = GrassmannScalar.from_json(json.loads(blob))
    assert back == a
    assert json.dumps(a.to_json()) == blob  # deterministic serialization


def _assert_clean(x):
    """x has no zero-valued term, and agrees with the validated constructor on its terms."""
    assert all(c != 0 for c in x.terms.values())
    y = GrassmannScalar(x.n, x.terms)
    assert x == y and hash(x) == hash(y) and x.to_json() == y.to_json()
    assert x.is_zero() == y.is_zero()


def test_internal_results_hold_no_zero_terms():
    b1, b2 = gen(0), gen(1)
    x = GrassmannScalar(N, {0: 1e250, 0b011: 1.0, 0b101: 2.0})
    tiny = x * 1e-200 * 1e-200  # the soul underflows to 0, the body to 1e-150
    assert list(tiny.terms) == [0]
    assert (GrassmannScalar(N, {0b11: 1.0}) * 1e-200 * 1e-200).is_zero()
    sum_cancels = x + (-x)
    assert sum_cancels == GrassmannScalar.zero(N) and sum_cancels.is_zero()
    product_cancels = (b1 + b2) * (b1 + b2)  # b1 b2 + b2 b1
    assert product_cancels.is_zero()
    partial = (x + b1 * b2) * one() - b1 * b2
    assert partial.terms == x.terms
    column = np.array([[1.0, 0], [0, 0], [0, 0], [2j, 0], [0, 0], [0, 0], [0, 0], [0, 0]])
    for e in (tiny, sum_cancels, product_cancels, partial, x.soul(), -x, x.embed(N + 2),
              (b1 * 0.3 + one()).exp(), (one() + b1 * b2).invert(), *array_elements(column, N)):
        _assert_clean(e)


def test_json_format_matches_contract():
    a = GrassmannScalar(2, {0b11: 1j})
    assert a.to_json() == {"n": 2, "terms": [{"mask": [1, 2], "re": 0.0, "im": 1.0}]}


def _random_grid(rng, rows, cols, n, complex_entries):
    """Mixed-parity entries, about a quarter of them zero, and row 0 all zero."""
    grid = []
    for i in range(rows):
        row = []
        for _ in range(cols):
            zero = i == 0 or rng.random() < 0.25
            if complex_entries:
                row.append(0j if zero else complex(rng.standard_normal(), rng.standard_normal()))
            else:
                row.append(GrassmannScalar.zero(n) if zero else random_element(rng, n))
        grid.append(row)
    return grid


def _coeffs(x, n):
    v = np.zeros(1 << n, dtype=complex)
    if isinstance(x, GrassmannScalar):
        for mask, c in x.terms.items():
            v[mask] = c
    else:
        v[0] = x
    return v


def grid_product(A, B, n):
    """The grid product A B through array_mul: both grids become arrays, the product a grid.

    The ``test_grid_mul_*`` tests check this product, entry by entry.
    """
    inner, cols = len(B), len(B[0]) if B else 0
    return array_grid(array_mul(grid_array(A, inner, n), grid_array(B, cols, n), n), n)


@pytest.mark.parametrize("left_complex,right_complex", [(False, False), (True, False),
                                                        (False, True)],
                         ids=["lambda-lambda", "complex-lambda", "lambda-complex"])
def test_grid_mul_against_multiplication_operators(rng, left_complex, right_complex):
    # oracle: sum_r L(a_ir) coeffs(b_rj), with L the left-multiplication matrix
    # built from merge signs, not from GrassmannScalar.__mul__
    n, rows, inner, cols = 3, 4, 3, 5
    A = _random_grid(rng, rows, inner, n, left_complex)
    B = _random_grid(rng, inner, cols, n, right_complex)
    out = grid_product(A, B, n)
    assert len(out) == rows and all(len(row) == cols for row in out)
    for i in range(rows):
        for j in range(cols):
            want = sum(left_mult_operator(GrassmannScalar.scalar(n, A[i][r])
                                          if left_complex else A[i][r]) @ _coeffs(B[r][j], n)
                       for r in range(inner))
            assert np.abs(_coeffs(out[i][j], n) - want).max() <= 1e-12
    assert all(e.is_zero() for e in out[0])


def test_grid_mul_rejects_inner_mismatch():
    with pytest.raises(DimensionError):
        array_mul(grid_array([[one(), one()]], 2, N), grid_array([[one()]], 1, N), N)


# -- grid products through array_mul against the entrywise definition ---------------


def _entrywise(A, B, n):
    """sum_r a_ir b_rj with GrassmannScalar.__mul__, complex entries lifted into Lambda."""
    lift = lambda x: x if isinstance(x, GrassmannScalar) else GrassmannScalar.scalar(n, x)
    cols = len(B[0]) if B else 0
    return [[sum((lift(a) * lift(B[r][j]) for r, a in enumerate(row)), GrassmannScalar.zero(n))
             for j in range(cols)] for row in A]


def _assert_grids_close(got, want, tol=1e-12):
    assert len(got) == len(want)
    for grow, wrow in zip(got, want):
        assert len(grow) == len(wrow)
        for x, y in zip(grow, wrow):
            assert (x - y).norm_inf() <= tol


@pytest.mark.parametrize("n", [0, 1, 4, 6])
@pytest.mark.parametrize("left_complex,right_complex", [(False, False), (True, False),
                                                        (False, True)],
                         ids=["lambda-lambda", "complex-lambda", "lambda-complex"])
def test_grid_mul_matches_entrywise_products(rng, n, left_complex, right_complex):
    # mixed-parity entries, zero entries and an all-zero first row
    A = _random_grid(rng, 4, 3, n, left_complex)
    B = _random_grid(rng, 3, 5, n, right_complex)
    _assert_grids_close(grid_product(A, B, n), _entrywise(A, B, n))


def test_grid_mul_homogeneous_parities(rng):
    n = 4
    A = [[random_element(rng, n, parity=(i + r) & 1) for r in range(3)] for i in range(3)]
    B = [[random_element(rng, n, parity=(r + j) & 1) for j in range(2)] for r in range(3)]
    out = grid_product(A, B, n)
    _assert_grids_close(out, _entrywise(A, B, n))
    assert all(e.parity() == (i + j) & 1 for i, row in enumerate(out) for j, e in enumerate(row))


def test_grid_mul_at_the_generator_cap(rng):
    n = MAX_GENERATORS
    sparse = lambda: GrassmannScalar(n, {int(m): complex(rng.standard_normal(), rng.standard_normal())
                                         for m in rng.integers(0, 1 << n, size=6)})
    A = [[sparse() for _ in range(2)] for _ in range(2)]
    B = [[sparse() for _ in range(2)] for _ in range(2)]
    _assert_grids_close(grid_product(A, B, n), _entrywise(A, B, n))


def _sorting_sign(mask_a, mask_b):
    """(-1)^swaps of an insertion sort of a's generators followed by b's."""
    seq = [i for i in range(16) if mask_a >> i & 1] + [j for j in range(16) if mask_b >> j & 1]
    swaps = 0
    for k in range(1, len(seq)):
        while k and seq[k - 1] > seq[k]:
            seq[k - 1], seq[k] = seq[k], seq[k - 1]
            swaps += 1
            k -= 1
    return -1 if swaps & 1 else 1


def test_sign_of_merge_against_sorting():
    for a in range(1 << 8):  # every disjoint pair at n <= 8
        for b in range(1 << 8):
            if not a & b:
                assert sign_of_merge(a, b) == _sorting_sign(a, b), (a, b)
    rng = np.random.default_rng(12)
    bits = 1 << np.arange(12)
    for owner in rng.integers(0, 3, size=(10 ** 4, 12)):  # generator in a, in b or in neither
        a, b = int(bits[owner == 1].sum()), int(bits[owner == 2].sum())
        assert sign_of_merge(a, b) == _sorting_sign(a, b), (a, b)


@pytest.mark.parametrize("n, terms", [(9, None), (9, 40), (10, None), (10, 40), (12, 60)])
def test_element_products_above_eight_generators_against_array_mul(rng, n, terms):
    # array_mul's pair table builds its merge signs bit by bit, apart from sign_of_merge
    def element():
        if terms is None:
            return random_element(rng, n)
        return GrassmannScalar(n, {int(m): complex(*rng.standard_normal(2))
                                   for m in rng.integers(0, 1 << n, size=terms)})

    for _ in range(2):
        a, b = element(), element()
        want = array_mul(a.coeffs()[:, None, None], b.coeffs()[:, None, None], n)[:, 0, 0]
        got = (a * b).coeffs()
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert ((got != 0) <= (want != 0)).all()


def test_grid_mul_without_rows():
    B = [[one(), gen(0)]]
    assert grid_product([], B, N) == []
    assert grid_product([[one()]], [[]], N) == [[]]


def test_grid_mul_keeps_exact_zeros():
    b0, b1 = gen(0), gen(1)
    # (0, 0): b0 b0 has no disjoint pair; (0, 1): b0 b1 + b1 b0 cancels exactly
    out = grid_product([[b0, b1]], [[b0, b1], [GrassmannScalar.zero(N), b0]], N)
    assert out[0][0].terms == {}
    assert out[0][1].terms == {}
    out = grid_product([[b0]], [[b1 * 2.0]], N)
    assert out[0][0].terms == {0b011: 2.0 + 0j}


def test_grid_mul_of_even_frames_stays_even(rng):
    from supercurves import sgr

    window = sgr.TruncationWindow(4)
    W = sgr.random_big_cell_frame(rng, window, 4)
    square = W.array[:, [window.pos(d) for d in window.neg_indices]]
    sgr.TruncatedFrame._of(window, 4, array_mul(W.array, square, 4)).require_even()


# -- array_mul: both contractions, batch axes --------------------------------------

# per-pair shapes (rows, inner, cols) on either side of the contraction threshold
TINY_SHAPES = [(1, 1, 1), (2, 2, 1), (2, 2, 2), (3, 3, 3), (2, 4, 2), (4, 4, 4)]
MATMUL_SHAPES = [(3, 5, 5), (5, 5, 5), (2, 6, 6), (1, 8, 9), (6, 6, 1)]
EMPTY_SHAPES = [(0, 2, 2), (2, 0, 2), (2, 2, 0)]
assert all(grassmann._pairs_innermost(*shape, _TINY_MIN_PAIRS) for shape in TINY_SHAPES)
assert not any(grassmann._pairs_innermost(*shape, 3 ** 6) for shape in MATMUL_SHAPES)
assert not grassmann._pairs_innermost(2, 2, 2, _TINY_MIN_PAIRS - 1)


def _random_array(rng, n, shape, density):
    """Coefficients (2^n, *shape), each slot nonzero with probability ``density``."""
    D = rng.standard_normal((1 << n, *shape)) + 1j * rng.standard_normal((1 << n, *shape))
    return np.where(rng.random(D.shape) < density, D, 0)


def _elements(D, n):
    """The entries of a (2^n, rows, cols) array as a grid of elements."""
    rows, cols = D.shape[1:]
    flat = array_elements(D.reshape(len(D), rows * cols), n)
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def _batch_entry(X, full, index):
    """The matrix at batch position ``index`` of X broadcast to the batch shape ``full``."""
    X = X.reshape(len(X), *[1] * (len(full) + 3 - X.ndim), *X.shape[1:])
    return np.broadcast_to(X, (len(X), *full, *X.shape[-2:]))[(slice(None), *index)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 6), shape=st.sampled_from(TINY_SHAPES + MATMUL_SHAPES + EMPTY_SHAPES),
       batch=st.sampled_from([((), ()), ((2,), (2,)), ((2, 1), (1, 3)), ((2, 3), ()),
                              ((), (3,)), ((0,), (0,))]),
       density=st.sampled_from([0.0, 0.15, 1.0]), route=st.sampled_from([None, True, False]),
       seed=st.integers(0, 2**32 - 1))
def test_array_mul_matches_entrywise_products(n, shape, batch, density, route, seed):
    # route: the contraction array_mul picks (None) or one forced on it;
    # density 0 gives exact zeros everywhere: the product must be exactly zero
    rng = np.random.default_rng(seed)
    rows, inner, cols = shape
    if n == 6 and density == 1.0:
        density = 0.15  # keep the entrywise reference fast
    A = _random_array(rng, n, (*batch[0], rows, inner), density)
    B = _random_array(rng, n, (*batch[1], inner, cols), density)
    with pytest.MonkeyPatch.context() as mp:
        if route is not None:
            mp.setattr(grassmann, "_pairs_innermost", lambda *args: route)
        C = array_mul(A, B, n)
    full = np.broadcast_shapes(batch[0], batch[1])
    assert C.shape == (1 << n, *full, rows, cols)
    for index in np.ndindex(*full):
        a, b = (_batch_entry(X, full, index) for X in (A, B))
        got = _elements(C[(slice(None), *index)], n)
        ga, gb = _elements(a, n), _elements(b, n)
        want = [[sum((ga[i][r] * gb[r][j] for r in range(inner)), GrassmannScalar.zero(n))
                 for j in range(cols)] for i in range(rows)]
        _assert_grids_close(got, want)
        if density == 0.0:
            assert all(not e.terms for row in got for e in row)


@pytest.mark.parametrize("shape", TINY_SHAPES[1:] + MATMUL_SHAPES[:2])
def test_array_mul_contractions_agree(rng, monkeypatch, shape):
    # the same product through the other contraction, at n = 4 with full operands
    n = 4
    rows, inner, cols = shape
    A = _random_array(rng, n, (3, rows, inner), 1.0)
    B = _random_array(rng, n, (inner, cols), 1.0)
    C = array_mul(A, B, n)
    tiny = grassmann._pairs_innermost(*shape, 3 ** n)
    monkeypatch.setattr(grassmann, "_pairs_innermost", lambda *args: not tiny)
    assert np.abs(array_mul(A, B, n) - C).max() <= 1e-12 * np.abs(C).max()


def test_array_mul_tiny_path_stays_under_the_budget_at_the_generator_cap(rng, monkeypatch):
    # full operands at n = 12: all 3^12 pairs are kept, far more than one chunk
    # holds; the allocations of each chunk's products are measured from a reset peak
    n = MAX_GENERATORS
    A = _random_array(rng, n, (2, 2), 1.0)
    B = _random_array(rng, n, (2, 2), 1.0)
    peaks = []
    original = grassmann._pairs_last

    def measured(*args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        prod = original(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return prod

    monkeypatch.setattr(grassmann, "_pairs_last", measured)
    tracemalloc.start()
    try:
        C = array_mul(A, B, n)
    finally:
        tracemalloc.stop()
    assert len(peaks) > 100
    # the gathered operands, the product, a multiply-add buffer and numpy's
    # buffers for the two broadcast operands, as array_mul counts them, plus
    # the array objects themselves
    assert max(peaks) <= 16 * _KERNEL_BUDGET + 4096
    monkeypatch.setattr(grassmann, "_pairs_innermost", lambda *args: False)  # matmul
    assert np.abs(array_mul(A, B, n) - C).max() <= 1e-12 * np.abs(C).max()


@pytest.mark.parametrize("n", range(7))
def test_parity_violations_against_entrywise_check(rng, n):
    rows, cols = 3, 4
    row_parity, col_parity = rng.integers(0, 2, rows), rng.integers(0, 2, cols)
    odd = np.array([bin(m).count("1") & 1 for m in range(1 << n)])
    for density in (0.0, 0.3, 1.0):
        D = _random_array(rng, n, (rows, cols), density)
        # about half the entries keep only slots of their own parity, some of them none
        for i in range(rows):
            for j in range(cols):
                if rng.random() < 0.5:
                    D[odd != (row_parity[i] + col_parity[j]) % 2, i, j] = 0
        want = np.array([[any(D[m, i, j] != 0 and odd[m] != (row_parity[i] + col_parity[j]) % 2
                              for m in range(1 << n)) for j in range(cols)] for i in range(rows)])
        assert np.array_equal(parity_violations(D, row_parity, col_parity), want)
    assert not parity_violations(np.zeros((1 << n, 2, 2)), [0, 1], [1, 1]).any()
