"""The four benchmark workloads, generated from a seed.

Each workload is a weighted list of cells.  A cell makes one task from a
random generator: a closure that calls into the library's public functions
and returns the residual of the paper's paired independent check, together
with the tolerance that residual must meet (the acceptance tolerances).

One *pass* is the full weighted list, shuffled.  The weights put the median
and the tail percentile of a run each inside one cell's population, or a
cluster of cells of equal latency (see ``TAIL_PERCENTILE``), and a run is made
of whole passes so that the mix is the same in every run.

Library functions are always reached through their module (``sm.berezinian``,
never a name imported into this file), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from supercurves.grassmann import GrassmannScalar, random_element

# the package re-exports the function ``theta`` under the module's name, so
# modules are taken from the import system rather than as package attributes
acc = importlib.import_module("supercurves.acceptance")
cli = importlib.import_module("supercurves.cli")
ell = importlib.import_module("supercurves.elliptic")
jac = importlib.import_module("supercurves.jacobian")
sgr = importlib.import_module("supercurves.sgr")
sm = importlib.import_module("supercurves.supermatrix")
th = importlib.import_module("supercurves.theta")

# acceptance tolerances
TOL_MULT = 1e-9          # multiplicativity, quasideterminants, solves
TOL_RECIP = 1e-12        # ber * ber* = 1
TOL_THETA = 1e-8         # theta multipliers
TOL_BAKER = 1e-8         # Baker routes and the Baker-tau quotient
TOL_ELLIPTIC = 1e-6      # genus-one closed form
TOL_COCYCLE = 1e-14      # cocycle vanishing
TOL_BILINEAR = 1e-10     # Riemann bilinear identity

# latency_tail_ms reports this percentile: a whole one with at least ten
# samples above it in a 25 s run on a 2-core Xeon VM (750-1250, 1900-2800,
# 90-140 and 2900-3600 tasks), inside the population of the workload's slowest
# heavily weighted cell
TAIL_PERCENTILE = {"superlinalg": 98, "theta": 99, "sgr_window": 85, "cli_mix": 99}


@dataclass
class Task:
    cell: str
    run: Callable[[], float]
    tol: float


# name, weight, maker: rng -> (task body returning its residual, tolerance)
Cell = Tuple[str, int, Callable[[np.random.Generator], Tuple[Callable[[], float], float]]]


def _worst(pairs) -> float:
    return max(((a - b).norm_inf() for a, b in pairs), default=0.0)


# -- superlinalg -----------------------------------------------------------------------

def _scaled(n: int, residual: float, magnitude: float) -> float:
    """The residual as the acceptance gate takes it at n = 4, where its tolerances
    are absolute.  Above n = 4 the soul coefficients grow (solutions reach 5e3
    at n = 6, where the oracle's absolute gap reaches 7e-9 at a relative gap of
    1.4e-12), so there it is taken relative to the magnitude of what is compared."""
    return residual if n <= acc.N_GENS else residual / max(1.0, magnitude)


def _ber_mult(n, shape):
    def make(rng):
        A = sm.random_even_matrix(rng, shape, n)
        B = sm.random_even_matrix(rng, shape, n)

        def run():
            bA, bB = sm.berezinian(A), sm.berezinian(B)
            residual = (sm.berezinian(A @ B) - bA * bB).norm_inf()
            return _scaled(n, residual, bA.norm_inf() * bB.norm_inf())
        return run, TOL_MULT
    return make


def _ber_recip(n, shape):
    def make(rng):
        A = sm.random_even_matrix(rng, shape, n)
        one = GrassmannScalar.one(n)

        def run():
            b, bs = sm.berezinian(A), sm.berezinian_star(A)
            return _scaled(n, (b * bs - one).norm_inf(), b.norm_inf() * bs.norm_inf())
        return run, TOL_RECIP
    return make


def _quasidet(n, shape):
    def make(rng):
        A = sm.random_even_matrix(rng, shape, n)
        last = sum(shape) - 1

        def run():
            qd, minor = sm.quasideterminant(A, 0, 0), sm.berezinian(A.delete(0, 0))
            even = _scaled(n, (qd * minor - sm.berezinian(A)).norm_inf(),
                           qd.norm_inf() * minor.norm_inf())
            qd = sm.quasideterminant(A, last, last)
            minor = sm.berezinian_star(A.delete(last, last))
            odd = _scaled(n, (qd * minor - sm.berezinian_star(A)).norm_inf(),
                          qd.norm_inf() * minor.norm_inf())
            return max(even, odd)
        return run, TOL_MULT
    return make


def _solve(n, shape):
    def make(rng):
        A = sm.random_even_matrix(rng, shape, n)
        y = sm.random_vector(rng, sum(shape), n)

        def run():
            system = sm.SuperLinearSystem(A, y)
            xc = sm.solve_cramer(system)
            xo = sm.oracle_solve(system)
            xi = sm.solve_via_inverse(system)
            residual = max(_worst(zip(xc, xo)), _worst(zip(xc, xi)),
                           _worst(zip(sm.apply_row_vector(xc, A), y)))
            return _scaled(n, residual, max(v.norm_inf() for v in xc))
        return run, TOL_MULT
    return make


def _superlinalg_cells() -> List[Cell]:
    kinds = {"mult": _ber_mult, "recip": _ber_recip, "quasidet": _quasidet, "solve": _solve}
    # (n, shape) -> weight per task kind; (2,2) at n=4 is doubled so that the
    # median sits inside its population, and the n=6 (2,2) solve is the tail
    weights = {
        (4, (1, 1)): 1, (4, (2, 1)): 1, (4, (2, 2)): 2, (4, (3, 3)): 1,
        (6, (1, 1)): 1, (6, (2, 1)): 1, (6, (2, 2)): 1,
    }
    cells = []
    for (n, shape), w in weights.items():
        for kind, maker in kinds.items():
            name = f"{kind}.n{n}.{shape[0]}x{shape[1]}"
            weight = 2 if (kind, n, shape) == ("solve", 6, (2, 2)) else w
            cells.append((name, weight, maker(n, shape)))
    return cells


# -- theta -----------------------------------------------------------------------------

def _z(rng, g, re=0.4, im=0.2):
    return [complex(rng.standard_normal() * re, rng.standard_normal() * im) for _ in range(g)]


def _multipliers(f, z):
    return th.check_multipliers(f, z)["max_residual"]


def _theta_plain(g):
    def make(rng):
        ctx = acc._symmetric_context(rng, g)
        eta = list(range(max(g - 1, 1)))
        z = _z(rng, g)

        def run():
            return _multipliers(th.build_super_theta(ctx, None, [], eta_gens=eta,
                                                     n_gens=len(eta)), z)
        return run, TOL_THETA
    return make


def _odd_periods(rng, g, n):
    return [[GrassmannScalar.monomial(n, [g - 1 + a], complex(*rng.uniform(0.1, 0.5, 2)))
             for a in range(g - 1)] for _ in range(g)]


def _theta_super(g, count, im_scale=1.0):
    """H_alpha ... Theta with Z_o != 0; im_scale < 1 shrinks lambda_min(Im Z)
    so that the default truncation radius N rises above 8."""
    def make(rng):
        n = 2 * (g - 1)
        ctx = acc._symmetric_context(rng, g)
        if im_scale != 1.0:
            ctx = th.ThetaContext(genus=g, Z_red=ctx.Z_red.real + 1j * im_scale * ctx.Z_red.imag)
        ctx.n_gens = n
        Zo = _odd_periods(rng, g, n)
        z = _z(rng, g, 0.3)

        def run():
            f = th.build_super_theta(ctx, Zo, list(range(count)),
                                     eta_gens=list(range(g - 1)), n_gens=n)
            return _multipliers(f, z)
        return run, TOL_THETA
    return make


def _theta_soul(g):
    """Plain theta with an even nilpotent, symmetric Z_soul and a soul in z."""
    def make(rng):
        n = 4
        base = acc._symmetric_context(rng, g)
        c = rng.standard_normal((g, g)) * 0.2 + 1j * rng.standard_normal((g, g)) * 0.1
        c = (c + c.T) / 2
        soul = [[GrassmannScalar.monomial(n, [2, 3], c[j, k]) for k in range(g)]
                for j in range(g)]
        ctx = th.ThetaContext(genus=g, Z_red=base.Z_red, Z_soul=soul, n_gens=n)
        z = [GrassmannScalar.scalar(n, v) + GrassmannScalar.monomial(n, [0, 1], 0.2 * (j + 1))
             for j, v in enumerate(_z(rng, g, 0.3))]

        def run():
            f = th.build_super_theta(ctx, None, [], eta_gens=list(range(g - 1)), n_gens=n)
            return _multipliers(f, z)
        return run, TOL_THETA
    return make


def elliptic_data(rng) -> ell.SuperEllipticData:
    n = 2
    a = complex(rng.uniform(-0.3, 0.45), rng.uniform(-0.1, 0.25))
    zeta = complex(rng.uniform(-0.25, 0.15), rng.uniform(-0.05, 0.1))
    return ell.SuperEllipticData(tau_modulus=complex(rng.uniform(-0.2, 0.2), rng.uniform(1.5, 2.5)),
                                 delta=GrassmannScalar.generator(n, 1),
                                 a=GrassmannScalar.scalar(n, a),
                                 alpha=GrassmannScalar.generator(n, 0),
                                 zeta=GrassmannScalar.scalar(n, zeta), n=n)


def _elliptic(kind):
    def make(rng):
        d = elliptic_data(rng)

        def ber():
            return ell.ber_check_residual(d)

        def quotient():
            tc = ell.tau_closed_form(d)
            quot = ell.tau_closed_form(d, d.a - d.zeta) * tc.invert()
            return (quot - ell.tau_ratio(d)).norm_inf()

        def lattice():
            tc = ell.tau_closed_form(d)
            return max((ell.tau_closed_form(d, d.a + 1) - tc).norm_inf(),
                       (ell.tau_closed_form(d, d.a + d.tau_modulus) - tc).norm_inf())
        return {"ber": ber, "quotient": quotient, "lattice": lattice}[kind], TOL_ELLIPTIC
    return make


def _theta_cells() -> List[Cell]:
    return [
        ("plain.g1", 2, _theta_plain(1)),
        ("plain.g2", 2, _theta_plain(2)),
        ("plain.g3", 2, _theta_plain(3)),
        ("super.g2.a1", 6, _theta_super(2, 1)),
        ("super.g3.a1", 4, _theta_super(3, 1)),
        ("super.g3.a2", 3, _theta_super(3, 2)),
        ("super.g3.a1.wideN", 1, _theta_super(3, 1, im_scale=0.3)),
        ("soul.g3", 2, _theta_soul(3)),
        ("elliptic.ber", 6, _elliptic("ber")),
        ("elliptic.quotient", 6, _elliptic("quotient")),
        ("elliptic.lattice", 6, _elliptic("lattice")),
    ]


# -- sgr_window -----------------------------------------------------------------------------

N_SGR = 4


@functools.cache
def acceptance_frame(M: int) -> sgr.TruncatedFrame:
    """The acceptance frame at window M; fixed, so built once per process."""
    return acc._frame_at(M, N_SGR)


def random_flow(rng, n: int) -> sgr.HeisenbergElement:
    return sgr.HeisenbergElement(n, {
        2: GrassmannScalar.scalar(n, complex(rng.uniform(0.05, 0.2), rng.uniform(-0.1, 0.1))),
        4: GrassmannScalar.scalar(n, complex(rng.uniform(-0.1, 0.1), 0.0)),
        1: random_element(rng, n, parity=1, scale=0.1),
        3: random_element(rng, n, parity=1, scale=0.1),
    })


def _frame_and_flow(rng, M, source):
    if source == "acc":
        return acceptance_frame(M), acc._test_flow(N_SGR)
    frame = sgr.random_big_cell_frame(rng, sgr.TruncationWindow(M), N_SGR)
    return frame, random_flow(rng, N_SGR)


def _tau(M, source):
    def make(rng):
        frame, flow = _frame_and_flow(rng, M, source)

        def run():
            value = sgr.tau(frame, flow)
            if not value.finite:
                return math.inf
            return (value.tau * value.tau_star - GrassmannScalar.one(frame.n)).norm_inf()
        return run, TOL_RECIP
    return make


def _baker(M, source):
    def make(rng):
        frame, _ = _frame_and_flow(rng, M, source)

        def run():
            return sgr.baker_vectors(frame).route_discrepancy()
        return run, TOL_BAKER
    return make


def _quotient(M, source):
    def make(rng):
        frame, flow = _frame_and_flow(rng, M, source)
        phi = GrassmannScalar.monomial(N_SGR, [3], complex(rng.uniform(0.5, 1.0)))
        # inside the acceptance range [0.1, 0.2]: the symbols carry negative
        # powers of u, and at u = 0.05 the window truncation alone leaves 3e-8
        u_values = [float(rng.uniform(0.1, 0.15)), float(rng.uniform(0.15, 0.2))]

        def run():
            return sgr.baker_tau_quotient_check(frame, flow, u_values, phi)["max_residual"]
        return run, TOL_BAKER
    return make


_COCYCLE_PAIRS = [((-1, 0), (1, 0), None, None), ((-2, 0), (2, 0), None, None),
                  ((-1, 1), (2, 0), 0, None), ((-2, 0), (1, 1), None, 1)]


def _cocycle(M, pairs):
    """Criterion 9's cocycle pairs: Str of the commutator and c(X, Y) vanish."""
    def make(rng):
        n = N_SGR
        window = sgr.TruncationWindow(M)

        def coeff(gen):
            return GrassmannScalar.generator(n, gen) if gen is not None \
                else GrassmannScalar.scalar(n, complex(rng.uniform(0.5, 1.5)))
        symbols = [({km: coeff(gm)}, {kp: coeff(gp)})
                   for km, kp, gm, gp in (_COCYCLE_PAIRS[p] for p in pairs)]

        def run():
            worst = 0.0
            for sym_m, sym_p in symbols:
                X, _ = sgr.multiplication_matrix(window, sgr.symbol_of_jheis(sym_m), n)
                Y, _ = sgr.multiplication_matrix(window, sgr.symbol_of_jheis(sym_p), n)
                worst = max(worst, sgr.cocycle(X, Y).norm_inf(),
                            sgr.jheis_commutator_supertrace(window, sym_m, sym_p, n).norm_inf())
            return worst
        return run, TOL_COCYCLE
    return make


def _sgr_cells() -> List[Cell]:
    # two cocycle pairs per task keeps the cheap tasks below a quarter of the
    # pass, so the median falls in the middle of the tau.M8 population
    cells: List[Cell] = [(f"cocycle.M{M}.p{pairs[0]}{pairs[1]}", 1, _cocycle(M, pairs))
                         for M in (8, 12) for pairs in ((0, 1), (2, 3))]
    cells += [
        ("tau.M8.acc", 1, _tau(8, "acc")),
        ("tau.M8.rand", 6, _tau(8, "rand")),
        ("baker.M8.acc", 1, _baker(8, "acc")),
        ("baker.M8.rand", 1, _baker(8, "rand")),
        ("baker.M12.acc", 1, _baker(12, "acc")),
        ("tau.M12.acc", 1, _tau(12, "acc")),
        ("tau.M12.rand", 2, _tau(12, "rand")),
        ("quotient.M8.rand", 1, _quotient(8, "rand")),
        ("quotient.M12.acc", 1, _quotient(12, "acc")),
    ]
    return cells


# -- cli_mix ---------------------------------------------------------------------------------

def call_cli(argv: List[str], stdin: str = "") -> Tuple[int, str]:
    """cli.main in process with stdin and stdout redirected."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _request(argv, payload, check, tol):
    """A CLI task: exit code 0 and check(parsed output) <= tol."""
    stdin = json.dumps(payload) if payload is not None else ""

    def run():
        code, text = call_cli(argv, stdin)
        if code != 0:
            return math.inf
        return check(json.loads(text))
    return run, tol


def _gs(data) -> GrassmannScalar:
    return GrassmannScalar.from_json(data)


def _cli_ber(rng):
    n = 4
    A = sm.random_even_matrix(rng, (2, 1), n)
    one = GrassmannScalar.one(n)
    return _request(["ber"], {"matrix": A.to_json()},
                    lambda o: (_gs(o["ber"]) * _gs(o["ber_star"]) - one).norm_inf(), TOL_RECIP)


def _cli_solve(rng):
    n = 4
    A = sm.random_even_matrix(rng, (1, 1), n)
    y = sm.random_vector(rng, 2, n)
    return _request(["solve"], {"matrix": A.to_json(), "rhs": [v.to_json() for v in y]},
                    lambda o: o["oracle_agreement"], TOL_MULT)


def _cli_quasidet(rng):
    n = 4
    A = sm.random_even_matrix(rng, (2, 1), n)
    # |A|_00 ber(A^00) = ber(A), both Berezinians computed when the request is
    # generated; the product form, as in the acceptance gate, since dividing by
    # a small ber(A^00) would amplify roundoff
    full, minor = sm.berezinian(A), sm.berezinian(A.delete(0, 0))
    return _request(["quasidet"], {"matrix": A.to_json(), "i": 0, "j": 0},
                    lambda o: (_gs(o["value"]) * minor - full).norm_inf(), TOL_MULT)


def _cli_theta(rng):
    g = 2
    ctx = acc._symmetric_context(rng, g)
    z = _z(rng, g)
    cplx = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731
    # the shift multiplier Theta(z + e_1) = Theta(z), evaluated when generated
    want = th.theta(ctx, [z[0] + 1.0, z[1]])
    payload = {"genus": g, "Z_red": [[cplx(v) for v in row] for row in ctx.Z_red],
               "z": [cplx(v) for v in z]}
    return _request(["theta"], payload,
                    lambda o: (_gs(o["value"]) - want).norm_inf(), TOL_THETA)


def _cli_super_theta(rng):
    g, n = 2, 2
    ctx = acc._symmetric_context(rng, g)
    Zo = _odd_periods(rng, g, n)
    cplx = lambda v: {"re": v.real, "im": v.imag}  # noqa: E731
    payload = {"genus": g, "n": n, "Z_red": [[cplx(v) for v in row] for row in ctx.Z_red],
               "Z_o": [[e.to_json() for e in row] for row in Zo], "alphas": [0],
               "eta_generators": [0], "z": [cplx(v) for v in _z(rng, g, 0.3)]}
    return _request(["super-theta"], payload,
                    lambda o: o["multipliers"]["max_residual"], TOL_THETA)


def _period_case(rng):
    symmetric = bool(rng.integers(2))
    return acc._period_case(4, 2, symmetric, False, rng)


def _period_json(pd):
    return {"n": pd.n, "g": pd.g, "Z_e": [[e.to_json() for e in row] for row in pd.Z_e],
            "Z_o": [[e.to_json() for e in row] for row in pd.Z_o]}


def _cli_period_q(rng):
    pd = _period_case(rng)
    # the full-period-matrix route, computed when the request is generated
    want = jac.connecting_map(pd, via_full_matrix=True)

    def check(o):
        Q = sm.SuperMatrix.from_json(o["Q"])
        return max(_worst(zip(ra, rb)) for ra, rb in zip(Q.entries, want.entries))
    return _request(["period-q"], _period_json(pd), check, TOL_MULT)


def _cli_dual_cohomology(rng):
    pd = _period_case(rng)

    def check(o):
        r = o["report"]
        return 0.0 if r["dim_ker_odd"] + r["rank_odd"] == r["dim_domain_odd"] else math.inf
    return _request(["dual-cohomology"], _period_json(pd), check, 0.0)


def _cli_bilinear(rng):
    pd = _period_case(rng)
    a, b, ah, bh, _ = jac.construct_bilinear_pair(pd, rng)
    payload = {"n": pd.n, "a": [v.to_json() for v in a], "b": [v.to_json() for v in b],
               "a_hat": [v.to_json() for v in ah], "b_hat": [v.to_json() for v in bh]}
    return _request(["bilinear-check"], payload, lambda o: o["max_coeff"], TOL_BILINEAR)


def _cli_rr(rng):
    deg_l, g, deg_n = (int(v) for v in rng.integers(0, 8, 3))
    want = {"even": deg_l + 1 - g, "odd": deg_l + deg_n + 1 - g}
    argv = ["rr", "--degL", str(deg_l), "--g", str(g), "--degN", str(deg_n)]
    return _request(argv, None, lambda o: 0.0 if o == want else math.inf, 0.0)


def _sgr_payload(rng):
    M, n = 4, 2
    frame = sgr.random_big_cell_frame(rng, sgr.TruncationWindow(M), n)
    flows = {"2": GrassmannScalar.scalar(n, complex(rng.uniform(0.05, 0.2))).to_json(),
             "1": GrassmannScalar.monomial(n, [0], complex(rng.uniform(0.1, 0.3))).to_json()}
    return {"window_M": M, "n": n, "frame": [[e.to_json() for e in row] for row in frame.entries],
            "flows": flows}


def _cli_sgr_tau(rng):
    def check(o):
        if not o["finite"]:
            return math.inf
        return (_gs(o["tau"]) * _gs(o["tau_star"]) - GrassmannScalar.one(2)).norm_inf()
    return _request(["sgr-tau"], _sgr_payload(rng), check, TOL_RECIP)


def _cli_sgr_baker(rng):
    return _request(["sgr-baker"], _sgr_payload(rng),
                    lambda o: o["diagnostics"]["route_discrepancy"], TOL_BAKER)


def _cli_tau_elliptic(rng):
    d = elliptic_data(rng)
    pair = lambda v: f"{v.real!r},{v.imag!r}"  # noqa: E731
    # "--flag=value", since a value starting with "-" would read as a flag
    argv = ["tau-elliptic", f"--tau={pair(d.tau_modulus)}", f"--a={pair(d.a.body)}",
            f"--zeta={pair(d.zeta.body)}"]
    return _request(argv, None, lambda o: o["ber_check_residual"], TOL_ELLIPTIC)


def _cli_cells() -> List[Cell]:
    return [
        ("ber", 4, _cli_ber),
        ("solve", 4, _cli_solve),
        ("quasidet", 8, _cli_quasidet),
        ("theta", 4, _cli_theta),
        ("super-theta", 4, _cli_super_theta),
        ("period-q", 4, _cli_period_q),
        ("dual-cohomology", 2, _cli_dual_cohomology),
        ("bilinear-check", 4, _cli_bilinear),
        ("rr", 4, _cli_rr),
        ("sgr-tau", 2, _cli_sgr_tau),
        ("sgr-baker", 2, _cli_sgr_baker),
        ("tau-elliptic", 4, _cli_tau_elliptic),
    ]


# -- registry ------------------------------------------------------------------------------

CELLS = {
    "superlinalg": _superlinalg_cells,
    "theta": _theta_cells,
    "sgr_window": _sgr_cells,
    "cli_mix": _cli_cells,
}

# the cell whose task stands in for "one warm-up task" in the set-up time
WARMUP_CELL = {"superlinalg": "solve.n4.1x1", "theta": "super.g2.a1",
               "sgr_window": "baker.M8.acc", "cli_mix": "ber"}


def _make(name, maker, rng) -> Task:
    run, tol = maker(rng)
    return Task(name, run, tol)


def make_pass(workload: str, seed: int, index: int) -> List[Task]:
    """Pass ``index`` of a run: every cell times its weight, in shuffled order."""
    rng = np.random.default_rng([seed, index])
    tasks = [_make(name, maker, rng) for name, weight, maker in CELLS[workload]()
             for _ in range(weight)]
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


def make_warmup(workload: str, seed: int) -> Task:
    cells = {name: maker for name, _, maker in CELLS[workload]()}
    name = WARMUP_CELL[workload]
    return _make(name, cells[name], np.random.default_rng([seed, 1 << 20]))
