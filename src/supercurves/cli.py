"""Command-line entry point: JSON in, JSON out, one object per invocation.

Exit codes: 0 success, 2 malformed input, 3 domain error from a module.
Output is canonicalized (sorted keys, sorted monomial masks) so identical
inputs and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

import numpy as np

from . import elliptic as ell
from . import jacobian as jac
from . import sgr
from .errors import SupercurvesError
from .grassmann import GrassmannScalar, json_int
from .supermatrix import SuperLinearSystem, SuperMatrix, berezinian, berezinian_star, \
    oracle_solve, quasideterminant, solve_cramer
from .theta import ThetaContext, build_super_theta, check_multipliers, theta


def _load_json(path: str | None):
    if path in (None, "-"):
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _gs(data, n: int | None = None) -> GrassmannScalar:
    if isinstance(data, dict) and "terms" in data:
        return GrassmannScalar.from_json(data)
    if isinstance(data, dict):
        return GrassmannScalar.scalar(n or 0, complex(data.get("re", 0.0), data.get("im", 0.0)))
    return GrassmannScalar.scalar(n or 0, complex(data))


def _emit(obj: Any) -> None:
    print(json.dumps(obj, sort_keys=True))


def _complex_matrix(rows):
    return np.array([[complex(c.get("re", 0.0), c.get("im", 0.0)) for c in row]
                     for row in rows])


def _grid(rows, n):
    return [[_gs(e, n) for e in row] for row in rows]


def cmd_ber(args) -> None:
    data = _load_json(args.json)
    A = SuperMatrix.from_json(data["matrix"])
    _emit({"ber": berezinian(A).to_json(), "ber_star": berezinian_star(A).to_json()})


def cmd_solve(args) -> None:
    data = _load_json(args.json)
    A = SuperMatrix.from_json(data["matrix"])
    rhs = [_gs(e, A.n) for e in data["rhs"]]
    system = SuperLinearSystem(A, rhs)
    x = solve_cramer(system)
    xo = oracle_solve(system)
    agree = max(((a - b).norm_inf() for a, b in zip(x, xo)), default=0.0)
    _emit({"x": [v.to_json() for v in x], "oracle_agreement": agree})


def cmd_quasidet(args) -> None:
    data = _load_json(args.json)
    A = SuperMatrix.from_json(data["matrix"])
    _emit({"value": quasideterminant(A, json_int(data["i"]), json_int(data["j"])).to_json()})


def _theta_context(data) -> ThetaContext:
    g = json_int(data["genus"])
    Z_red = _complex_matrix(data["Z_red"])
    n = json_int(data.get("n", 0))
    Z_soul = None
    if data.get("Z_soul"):
        Z_soul = _grid(data["Z_soul"], n)
        n = max(n, max(e.n for row in Z_soul for e in row))
    return ThetaContext(genus=g, Z_red=Z_red, Z_soul=Z_soul,
                        characteristic=str(data.get("characteristic", "0")), n_gens=n)


def cmd_theta(args) -> None:
    data = _load_json(args.json)
    ctx = _theta_context(data)
    z = [_gs(v, ctx.n_gens) for v in data["z"]]
    deriv = tuple(json_int(d) for d in data["derivative"]) if data.get("derivative") else None
    _emit({"value": theta(ctx, z, deriv=deriv).to_json()})


def cmd_super_theta(args) -> None:
    data = _load_json(args.json)
    ctx = _theta_context(data)
    n = max(ctx.n_gens, json_int(data.get("n", 0)))
    Z_o = _grid(data["Z_o"], n) if data.get("Z_o") else None
    eta_gens = [json_int(i) for i in data["eta_generators"]]
    f = build_super_theta(ctx, Z_o, [json_int(a) for a in data.get("alphas", [])],
                          eta_gens=eta_gens, n_gens=n)
    z = [_gs(v, f.n_gens) for v in data["z"]]
    out = {"value": f.evaluate(z).to_json()}
    if data.get("check_multipliers", True):
        out["multipliers"] = check_multipliers(f, z)
    _emit(out)


def _period_data(data) -> jac.PeriodData:
    n = json_int(data["n"])
    g = json_int(data["g"])
    return jac.PeriodData(g=g, Z_e=_grid(data["Z_e"], n), Z_o=_grid(data["Z_o"], n), n=n)


def cmd_period_q(args) -> None:
    pd = _period_data(_load_json(args.json))
    Q = jac.connecting_map(pd)
    _emit({"Q": Q.to_json(), "flags": jac.projectedness_flags(pd)})


def cmd_dual_cohomology(args) -> None:
    pd = _period_data(_load_json(args.json))
    rep = jac.dual_cohomology(pd)
    _emit({"report": rep.as_dict(), "curve_cohomology": {k: list(v) for k, v in
                                                         jac.curve_cohomology(pd.g).items()}})


def cmd_bilinear_check(args) -> None:
    data = _load_json(args.json)
    n = json_int(data.get("n", 0))
    a = [_gs(v, n) for v in data["a"]]
    b = [_gs(v, n) for v in data["b"]]
    ah = [_gs(v, n) for v in data["a_hat"]]
    bh = [_gs(v, n) for v in data["b_hat"]]
    res = jac.bilinear_check((a, b), (ah, bh))
    _emit({"residual": res.to_json(), "max_coeff": res.norm_inf()})


def cmd_rr(args) -> None:
    even, odd = jac.riemann_roch(args.degL, args.g, args.degN)
    _emit({"even": even, "odd": odd})


def _frame(data) -> sgr.TruncatedFrame:
    window = sgr.TruncationWindow(json_int(data["window_M"]))
    n = json_int(data["n"])
    ent = _grid(data["frame"], n)
    return sgr.TruncatedFrame(window, n, ent)


def _flows(data, n: int) -> sgr.HeisenbergElement:
    coeffs = {}
    for key, val in data.get("flows", {}).items():
        coeffs[int(key)] = _gs(val, n)
    return sgr.HeisenbergElement(n, coeffs)


def cmd_sgr_tau(args) -> None:
    data = _load_json(args.json)
    frame = _frame(data)
    t = _flows(data, frame.n)
    value = sgr.tau(frame, t)
    out = {"finite": value.finite,
           "diagnostics": {"window_M": frame.window.M, "n": frame.n,
                           "truncation_warning": value.truncation_warning,
                           "flow_max_shift": t.max_shift()}}
    if value.finite:
        out["tau"] = value.tau.to_json()
        out["tau_star"] = value.tau_star.to_json()
    _emit(out)


def cmd_sgr_baker(args) -> None:
    data = _load_json(args.json)
    frame = _frame(data)
    t = _flows(data, frame.n)
    if t.coeffs:
        frame = sgr.flowed_frame(frame, t)
    vec = sgr.baker_vectors(frame)
    w_even, w_odd = vec.functions()

    def sym_json(sym):
        return {f"z^{m}" + ("*theta" if tf else ""): c.to_json()
                for (m, tf), c in sorted(sym.items())}

    _emit({"w_even": sym_json(w_even), "w_odd": sym_json(w_odd),
           "diagnostics": {"window_M": frame.window.M, "n": frame.n,
                           "route_discrepancy": vec.route_discrepancy()}})


def cmd_tau_elliptic(args) -> None:
    n = 2
    alpha = GrassmannScalar.generator(n, 0) * args.alpha_delta_scale
    delta = GrassmannScalar.generator(n, 1)
    d = ell.SuperEllipticData(
        tau_modulus=complex(*args.tau), delta=delta,
        a=GrassmannScalar.scalar(n, complex(*args.a)), alpha=alpha,
        zeta=GrassmannScalar.scalar(n, complex(*args.zeta)), n=n)
    _emit({"tau_ratio": ell.tau_ratio(d).to_json(),
           "tau_closed_form": ell.tau_closed_form(d).to_json(),
           "ber_check_residual": ell.ber_check_residual(d),
           "convention_factor": ell.convention_factor(d).to_json()})


def cmd_acceptance(args) -> None:
    from . import acceptance  # imported here: no other subcommand pays for compiling it

    summary = acceptance.run_all(seed=args.seed, echo=True)
    _emit({"all_passed": summary["all_passed"], "seed": summary["seed"],
           "results": [{"name": r["name"], "passed": r["passed"], "detail": r["detail"]}
                       for r in summary["results"]]})
    if not summary["all_passed"]:
        sys.exit(1)


def _complex_pair(text: str):
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(f"expected re or re,im, got {text!r}")
    return (float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="supercurves",
                                description="super linear algebra, theta and tau computations")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, needs_json=True):
        sp = sub.add_parser(name)
        if needs_json:
            sp.add_argument("--json", default="-", help="input JSON path or - for stdin")
        return sp

    for name in ("ber", "solve", "quasidet", "theta", "super-theta", "period-q",
                 "dual-cohomology", "bilinear-check"):
        add(name)

    sp = add("rr", needs_json=False)
    sp.add_argument("--degL", type=int, required=True)
    sp.add_argument("--g", type=int, required=True)
    sp.add_argument("--degN", type=int, default=0)

    add("sgr-tau")
    add("sgr-baker")

    sp = add("tau-elliptic", needs_json=False)
    sp.add_argument("--tau", type=_complex_pair, default=(0.0, 2.0),
                    help="modulus as re,im")
    sp.add_argument("--a", type=_complex_pair, default=(0.3, 0.1))
    sp.add_argument("--zeta", type=_complex_pair, default=(0.1, 0.0))
    sp.add_argument("--alpha-delta-scale", type=float, default=1.0)

    sp = add("acceptance", needs_json=False)
    sp.add_argument("--seed", type=int, default=0)
    return p


# the parser depends on no input, so main builds it once per process.  It is bound to
# the function object, so a later rebinding of cli.build_parser never reaches it, and it
# holds no handler: main looks up cmd_<command> when it runs.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        handler(args)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SupercurvesError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
