"""The acceptance suite: one callable per criterion, shared by pytest and the CLI.

Each criterion function returns a dict with ``name``, ``passed``, ``detail``
and ``elapsed`` keys; ``run_all`` executes every criterion with a common seed
and prints one pass/fail line per item.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from .grassmann import GrassmannScalar, random_element
from .supermatrix import (
    SuperLinearSystem,
    SuperMatrix,
    apply_row_vector,
    berezinian,
    berezinian_star,
    oracle_solve,
    quasideterminant,
    random_even_matrix,
    random_vector,
    solve_cramer,
    solve_via_inverse,
)
from . import jacobian as jac
from . import sgr
from . import elliptic as ell
from .theta import ThetaContext, build_super_theta, check_multipliers

SHAPES = [(1, 1), (2, 1), (2, 2), (3, 3)]
N_GENS = 4


def _result(name: str, passed: bool, detail: str, t0: float) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail,
            "elapsed": round(time.time() - t0, 2)}


def criterion_1(seed: int = 0) -> dict:
    """Berezinian multiplicativity over 200 random pairs per shape."""
    t0 = time.time()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for shape in SHAPES:
        for _ in range(200):
            A = random_even_matrix(rng, shape, N_GENS)
            B = random_even_matrix(rng, shape, N_GENS)
            err = (berezinian(A @ B) - berezinian(A) * berezinian(B)).norm_inf()
            worst = max(worst, err)
    elapsed = time.time() - t0
    passed = worst < 1e-9 and elapsed < 30.0
    return _result("1 ber multiplicativity",
                   passed, f"max |ber(AB)-ber(A)ber(B)| = {worst:.3e}, {elapsed:.1f}s", t0)


def criterion_2(seed: int = 0) -> dict:
    """ber * ber* = 1 and the triangular super-Jacobian Berezinian = 1."""
    t0 = time.time()
    rng = np.random.default_rng(seed + 1)
    worst_recip = 0.0
    for shape in SHAPES:
        for _ in range(25):
            A = random_even_matrix(rng, shape, N_GENS)
            worst_recip = max(worst_recip,
                              (berezinian(A) * berezinian_star(A) - GrassmannScalar.one(N_GENS)).norm_inf())
    worst_tri = 0.0
    one = GrassmannScalar.one(N_GENS)
    for _ in range(25):
        J2 = random_even_matrix(rng, (1, 1), N_GENS)
        y = berezinian(J2)
        phi_z = random_element(rng, N_GENS, parity=1)      # d/dz of the rho-transition
        phi_th = random_element(rng, N_GENS, parity=0)     # d/dtheta of it
        zero = GrassmannScalar.zero(N_GENS)
        (j00, j01), (j10, j11) = J2.entries
        J3 = SuperMatrix((1, 2), (1, 2), [
            [j00, j01, phi_z],
            [j10, j11, phi_th],
            [zero, zero, y],
        ])
        worst_tri = max(worst_tri, (berezinian(J3) - one).norm_inf())
    passed = worst_recip < 1e-12 and worst_tri < 1e-12
    return _result("2 reciprocity + triangular Jacobian", passed,
                   f"reciprocity {worst_recip:.3e}, triangular {worst_tri:.3e}", t0)


def criterion_3(seed: int = 0) -> dict:
    """Quasideterminant-to-Berezinian quotient identity (both parity branches)
    and the row-operation properties (left scaling, row addition)."""
    t0 = time.time()
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for shape in SHAPES:
        m = shape[0] + shape[1]
        if m < 2:
            continue
        for _ in range(40):
            A = random_even_matrix(rng, shape, N_GENS)
            bA = berezinian(A)
            bsA = berezinian_star(A)
            # even branch at (0, 0); odd branch at (m-1, m-1)
            qd = quasideterminant(A, 0, 0)
            worst = max(worst, (qd * berezinian(A.delete(0, 0)) - bA).norm_inf())
            if shape[1] >= 1 and m - 1 >= shape[0]:
                qds = quasideterminant(A, m - 1, m - 1)
                worst = max(worst, (qds * berezinian_star(A.delete(m - 1, m - 1)) - bsA).norm_inf())
            # P1: left-scale row 0 by an even invertible lambda
            lam = random_element(rng, N_GENS, parity=0, body=1.5 + 0.3j)
            B = A.with_row(0, [lam * e for e in A.row(0)])
            worst = max(worst, (quasideterminant(B, 0, 0) - lam * qd).norm_inf())
            if m >= 2:
                worst = max(worst, (quasideterminant(B, 1, 1 if shape[0] > 1 else m - 1)
                                    - quasideterminant(A, 1, 1 if shape[0] > 1 else m - 1)).norm_inf())
            # P2: add row k to another row; |.|_{ij} for i != k unchanged
            if m >= 2:
                k_row = m - 1
                target = 1 if m > 2 else 0
                if target == k_row:
                    target = 0
                C = A.with_row(target, [a + b for a, b in zip(A.row(target), A.row(k_row))])
                worst = max(worst, (quasideterminant(C, 0, 0) - qd).norm_inf())
    passed = worst < 1e-9
    return _result("3 quasidet quotients + row ops", passed, f"max residual {worst:.3e}", t0)


def criterion_4(seed: int = 0) -> dict:
    """Super Cramer vs the expansion oracle vs y A^-1, plus the commutative limit."""
    t0 = time.time()
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    count = 0
    while count < 100:
        shape = SHAPES[count % len(SHAPES)]
        A = random_even_matrix(rng, shape, N_GENS)
        y = random_vector(rng, shape[0] + shape[1], N_GENS)
        system = SuperLinearSystem(A, y)
        xc = solve_cramer(system)
        xo = oracle_solve(system)
        xi = solve_via_inverse(system)
        for a, b in zip(xc, xo):
            worst = max(worst, (a - b).norm_inf())
        for a, b in zip(xc, xi):
            worst = max(worst, (a - b).norm_inf())
        for a, b in zip(apply_row_vector(xc, A), y):
            worst = max(worst, (a - b).norm_inf())
        count += 1
    # commutative degeneration: l = 0, n = 0
    worst_comm = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 5))
        body = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        while abs(np.linalg.det(body)) < 0.2:
            body = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        A = SuperMatrix((m, 0), (m, 0),
                        [[GrassmannScalar.scalar(0, body[i, j]) for j in range(m)] for i in range(m)])
        yv = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        y = [GrassmannScalar.scalar(0, v) for v in yv]
        xc = solve_cramer(SuperLinearSystem(A, y))
        for i in range(m):
            Ai = body.copy()
            Ai[i, :] = yv  # classical Cramer on the row system x A = y
            xi = np.linalg.det(Ai) / np.linalg.det(body)
            worst_comm = max(worst_comm, abs(xc[i].body - xi))
    passed = worst < 1e-9 and worst_comm < 1e-9
    return _result("4 super Cramer three routes", passed,
                   f"sweep {worst:.3e}, commutative {worst_comm:.3e}", t0)


def _symmetric_context(rng, g: int) -> ThetaContext:
    base = rng.standard_normal((g, g)) * 0.2
    re = (base + base.T) / 2
    im = np.eye(g) + 0.15 * np.ones((g, g))
    return ThetaContext(genus=g, Z_red=re + 1j * im)


def criterion_5(seed: int = 0) -> dict:
    """Theta multipliers at genus 1..3 and super theta relations with Z_o != 0."""
    t0 = time.time()
    rng = np.random.default_rng(seed + 4)
    worst_plain = 0.0
    for g in (1, 2, 3):
        for _ in range(5):
            ctx = _symmetric_context(rng, g)
            f = build_super_theta(ctx, None, [], eta_gens=list(range(max(g - 1, 1))),
                                  n_gens=max(g - 1, 1))
            z = [complex(rng.standard_normal() * 0.4, rng.standard_normal() * 0.2)
                 for _ in range(g)]
            rep = check_multipliers(f, z)
            worst_plain = max(worst_plain, rep["max_residual"])
    worst_super = 0.0
    for g in (2, 3):
        n = 2 * (g - 1)
        ctx = _symmetric_context(rng, g)
        ctx.n_gens = n
        Zo = [[GrassmannScalar.monomial(n, [g - 1 + a], 0.3 + 0.1 * k + 0.05j * a)
               for a in range(g - 1)] for k in range(g)]
        for count in range(1, g):
            alphas = list(range(count))
            f = build_super_theta(ctx, Zo, alphas, eta_gens=list(range(g - 1)), n_gens=n)
            z = [complex(rng.standard_normal() * 0.3, rng.standard_normal() * 0.2)
                 for _ in range(g)]
            rep = check_multipliers(f, z)
            worst_super = max(worst_super, rep["max_residual"])
    elapsed = time.time() - t0
    passed = worst_plain < 1e-8 and worst_super < 1e-8 and elapsed < 60.0
    return _result("5 theta + super theta multipliers", passed,
                   f"plain {worst_plain:.3e}, super {worst_super:.3e}, {elapsed:.1f}s", t0)


def _period_case(n: int, g: int, symmetric: bool, zo_zero: bool, rng) -> jac.PeriodData:
    base = rng.standard_normal((g, g)) * 0.3
    re = (base + base.T) / 2
    Z = re + 1j * (np.eye(g) + 0.1)
    Ze = [[GrassmannScalar.scalar(n, Z[i, j]) for j in range(g)] for i in range(g)]
    if not symmetric:
        bump = GrassmannScalar.monomial(n, [0, 1], 0.4)
        Ze[0][1] = Ze[0][1] + bump
        Ze[1][0] = Ze[1][0] - bump
    if zo_zero:
        Zo = [[GrassmannScalar.zero(n)] for _ in range(g)]
    else:
        Zo = [[GrassmannScalar.monomial(n, [2 + (i % 2)], 0.5 + 0.1 * i)] for i in range(g)]
    return jac.PeriodData(g=g, Z_e=Ze, Z_o=Zo, n=n)


def criterion_6(seed: int = 0) -> dict:
    """Connecting-map block structure and the projectedness truth table."""
    t0 = time.time()
    rng = np.random.default_rng(seed + 5)
    n, g = 4, 2
    ok = True
    detail = []
    for symmetric in (True, False):
        for zo_zero in (True, False):
            pd = _period_case(n, g, symmetric, zo_zero, rng)
            Q = jac.connecting_map(pd)
            Q2 = jac.connecting_map(pd, via_full_matrix=True)
            ok &= Q.isclose(Q2, 0.0)
            Qe, Ze, Zo = Q.entries, pd.Z_e, pd.Z_o  # grids built once, read entrywise
            for a in range(g - 1):
                for b in range(g - 1):
                    ok &= Qe[a][b].is_zero()
            for a in range(g - 1):
                for j in range(g):
                    ok &= (Qe[a][g - 1 + j] - Zo[j][a]).is_zero()
                    ok &= (Qe[g - 1 + j][a] + Zo[j][a]).is_zero()
            for i in range(g):
                for j in range(g):
                    want = Ze[j][i] - Ze[i][j]
                    ok &= (Qe[g - 1 + i][g - 1 + j] - want).is_zero()
            flags = jac.projectedness_flags(pd)
            ok &= flags["projected"] == (symmetric and zo_zero)
            ok &= flags["Ze_symmetric"] == symmetric and flags["Zo_zero"] == zo_zero
    # soul-only symmetry violation with Z_o = 0 is still not projected
    pd = _period_case(n, g, False, True, rng)
    ok &= not jac.projectedness_flags(pd)["projected"]
    pd = _period_case(n, g, True, True, rng)
    ok &= jac.projectedness_flags(pd)["projected"]
    detail.append("Q = [[0, Zo^t], [-Zo, Ze^t-Ze]] exact; truth table 6/6")
    return _result("6 connecting map + projectedness", ok, "; ".join(detail), t0)


def criterion_7(seed: int = 0) -> dict:
    """Dual cohomology: split table, non-free detection, rank-nullity bookkeeping."""
    t0 = time.time()
    rng = np.random.default_rng(seed + 6)
    n, g = 4, 2
    dim = 1 << n
    pd0 = _period_case(n, g, True, True, rng)
    rep0 = jac.dual_cohomology(pd0)
    ok = rep0.ker_free and rep0.coker_free and rep0.ker_t_free and rep0.coker_t_free
    ok &= rep0.dim_ker == (g - 1) * dim and rep0.dim_coker == g * dim
    ok &= rep0.dim_ker_t == g * dim and rep0.dim_coker_t == (g - 1) * dim
    table = jac.curve_cohomology(g)
    ok &= table == {"H0_O": (1, 0), "H1_O": (g, g - 1),
                    "H0_Ber": (g - 1, g), "H1_Ber": (0, 1)}
    # the annihilator example: Z_o = (beta_1, 0)^t has non-free kernel
    Zo = [[GrassmannScalar.generator(n, 0)], [GrassmannScalar.zero(n)]]
    pd1 = jac.PeriodData(g=g, Z_e=pd0.Z_e, Z_o=Zo, n=n)
    rep1 = jac.dual_cohomology(pd1)
    ok &= not rep1.ker_free
    ok &= rep1.dim_ker == dim // 2  # annihilator of beta_1
    # rank-nullity on the odd-restricted expansion, exact integers
    for rep in (rep0, rep1, jac.dual_cohomology(_period_case(n, g, False, False, rng))):
        ok &= rep.dim_ker_odd + rep.rank_odd == rep.dim_domain_odd
    return _result("7 dual cohomology", ok,
                   f"split table ok, non-free kernel dim {rep1.dim_ker} = 2^n/2", t0)


def criterion_8(seed: int = 0) -> dict:
    """Riemann bilinear identity and the pair relation, with negative controls."""
    t0 = time.time()
    rng = np.random.default_rng(seed + 7)
    n, g = 4, 2
    worst = 0.0
    for symmetric in (True, False):
        pd = _period_case(n, g, symmetric, False, rng)
        a, b, ah, bh, A = jac.construct_bilinear_pair(pd, rng)
        worst = max(worst, jac.bilinear_check((a, b), (ah, bh)).norm_inf())
        worst = max(worst, max(r.norm_inf() for r in jac.pair_relation_check(pd, a, A)))
    # omega with only a-periods against omega-hat with only b-periods, with
    # disjoint supports: both sides of the identity vanish term by term
    av = [random_element(rng, n, parity=1), GrassmannScalar.zero(n)]
    bv = [GrassmannScalar.zero(n), random_element(rng, n, parity=1)]
    zero = [GrassmannScalar.zero(n)] * g
    worst = max(worst, jac.bilinear_check((av, zero), (zero, bv)).norm_inf())
    # negative controls
    pd = _period_case(n, g, False, False, rng)
    bad_rel = max(r.norm_inf()
                  for r in jac.pair_relation_check(pd, [GrassmannScalar.one(n)] * g,
                                                   [GrassmannScalar.zero(n)] * (g - 1)))
    rand_res = jac.bilinear_check(
        ([random_element(rng, n) for _ in range(g)], [random_element(rng, n) for _ in range(g)]),
        ([random_element(rng, n) for _ in range(g)], [random_element(rng, n) for _ in range(g)]),
    ).norm_inf()
    passed = worst < 1e-10 and bad_rel > 1e-3 and rand_res > 1e-3
    return _result("8 bilinear + pair relation", passed,
                   f"constructed {worst:.3e}, controls {bad_rel:.2e}/{rand_res:.2e}", t0)


def _test_frame_symbol(n: int):
    return {
        ("z", 1): GrassmannScalar.scalar(n, 0.22 - 0.1j) + GrassmannScalar.monomial(n, [0, 1], 0.15),
        ("z", 2): GrassmannScalar.scalar(n, -0.11 + 0.06j),
        ("ztheta", 1): GrassmannScalar.monomial(n, [2], 0.3),
        ("ztheta", 2): GrassmannScalar.monomial(n, [3], -0.2),
    }


def _test_flow(n: int) -> sgr.HeisenbergElement:
    return sgr.HeisenbergElement(n, {
        2: GrassmannScalar.scalar(n, 0.16 + 0.08j),
        4: GrassmannScalar.scalar(n, -0.07),
        1: GrassmannScalar.monomial(n, [0], 0.25),
        3: GrassmannScalar.monomial(n, [1], 0.2),
    })


def _frame_at(M: int, n: int) -> sgr.TruncatedFrame:
    window = sgr.TruncationWindow(M)
    band, _ = sgr.multiplication_matrix(window, _test_frame_symbol(n), n)
    return sgr.exp_band_apply(band, sgr.standard_frame(window, n))


def criterion_9(seed: int = 0) -> dict:
    """Baker-tau quotient at M=12, drift under M->16, and cocycle vanishing."""
    t0 = time.time()
    n = 4
    phi = GrassmannScalar.monomial(n, [3], 0.8)
    u_values = [0.1, 0.2]
    frame12 = _frame_at(12, n)
    flow = _test_flow(n)
    rep12 = sgr.baker_tau_quotient_check(frame12, flow, u_values, phi)
    frame16 = _frame_at(16, n)
    rep16 = sgr.baker_tau_quotient_check(frame16, flow, u_values, phi)
    tau12 = sgr.tau(frame12, flow)
    tau16 = sgr.tau(frame16, flow)
    drift = (tau12.tau - tau16.tau).norm_inf()
    window = sgr.TruncationWindow(8)
    worst_cocycle = 0.0
    pairs = [({(-1, 0): GrassmannScalar.one(n)}, {(1, 0): GrassmannScalar.one(n)}),
             ({(-2, 0): GrassmannScalar.one(n)}, {(2, 0): GrassmannScalar.one(n)}),
             ({(-1, 1): GrassmannScalar.generator(n, 0)}, {(2, 0): GrassmannScalar.one(n)}),
             ({(-2, 0): GrassmannScalar.scalar(n, 0.5)},
              {(1, 1): GrassmannScalar.generator(n, 1)})]
    for sm, sp in pairs:
        worst_cocycle = max(worst_cocycle,
                            sgr.jheis_commutator_supertrace(window, sm, sp, n).norm_inf())
        X, _ = sgr.multiplication_matrix(window, sgr.symbol_of_jheis(sm), n)
        Y, _ = sgr.multiplication_matrix(window, sgr.symbol_of_jheis(sp), n)
        worst_cocycle = max(worst_cocycle, sgr.cocycle(X, Y).norm_inf())
    passed = (rep12["max_residual"] < 1e-8 and rep16["max_residual"] < 1e-8
              and drift < 1e-6 and worst_cocycle < 1e-14)
    return _result("9 Baker-tau quotient + cocycle", passed,
                   f"M=12 {rep12['max_residual']:.3e}, drift {drift:.3e}, "
                   f"cocycle {worst_cocycle:.1e}", t0)


def criterion_10(seed: int = 0) -> dict:
    """Genus-one closed form on a 3x3 grid of (a, zeta) at modulus 2i."""
    t0 = time.time()
    n = 2
    alpha = GrassmannScalar.generator(n, 0)
    delta = GrassmannScalar.generator(n, 1)
    worst_ber = worst_quot = worst_lattice = 0.0
    a_grid = [0.23 + 0.11j, 0.41 - 0.07j, -0.19 + 0.23j]
    z_grid = [0.0, 0.13 - 0.04j, -0.21 + 0.09j]
    for av in a_grid:
        for zv in z_grid:
            d = ell.SuperEllipticData(tau_modulus=2j, delta=delta,
                                      a=GrassmannScalar.scalar(n, av), alpha=alpha,
                                      zeta=GrassmannScalar.scalar(n, zv), n=n)
            worst_ber = max(worst_ber, ell.ber_check_residual(d))
            tc = ell.tau_closed_form(d)
            quot = ell.tau_closed_form(d, d.a - d.zeta) * tc.invert()
            worst_quot = max(worst_quot, (quot - ell.tau_ratio(d)).norm_inf())
            worst_lattice = max(worst_lattice,
                                (ell.tau_closed_form(d, d.a + 1) - tc).norm_inf(),
                                (ell.tau_closed_form(d, d.a + 2j) - tc).norm_inf())
    elapsed = time.time() - t0
    passed = (worst_ber < 1e-6 and worst_quot < 1e-6 and worst_lattice < 1e-6
              and elapsed < 10.0)
    return _result("10 super elliptic tau", passed,
                   f"ber {worst_ber:.3e}, quotient {worst_quot:.3e}, "
                   f"lattice {worst_lattice:.3e}, {elapsed:.1f}s", t0)


CRITERIA: List[Callable[[int], dict]] = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
]


def run_all(seed: int = 0, echo: bool = True) -> Dict:
    results = []
    for fn in CRITERIA:
        res = fn(seed)
        results.append(res)
        if echo:
            status = "PASS" if res["passed"] else "FAIL"
            print(f"[{status}] {res['name']}: {res['detail']} ({res['elapsed']}s)")
    summary = {"seed": seed, "results": results,
               "all_passed": all(r["passed"] for r in results)}
    if echo:
        print("all criteria passed" if summary["all_passed"] else "FAILURES present")
    return summary
