import json
import math
import subprocess
import sys

import pytest

from supercurves import cli
from supercurves import elliptic as ell
from supercurves.cli import main
from supercurves.grassmann import GrassmannScalar

MATRIX_11 = {
    "rows": [1, 1], "cols": [1, 1],
    "entries": [
        [{"n": 2, "terms": [{"mask": [], "re": 1, "im": 0}]},
         {"n": 2, "terms": [{"mask": [1], "re": 1, "im": 0}]}],
        [{"n": 2, "terms": [{"mask": [2], "re": 1, "im": 0}]},
         {"n": 2, "terms": [{"mask": [], "re": 1, "im": 0}]}],
    ],
}


def run_cli(args, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "supercurves.cli", *args],
                          input=stdin, capture_output=True, text=True)
    return proc


def test_ber_subcommand(tmp_path):
    blob = json.dumps({"matrix": MATRIX_11})
    proc = run_cli(["ber"], stdin=blob)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["ber"]["terms"] == [{"im": 0.0, "mask": [], "re": 1.0},
                                   {"im": 0.0, "mask": [1, 2], "re": -1.0}]


def test_solve_subcommand():
    blob = json.dumps({
        "matrix": {"rows": [1, 1], "cols": [1, 1], "entries": [
            [{"n": 2, "terms": [{"mask": [], "re": 2, "im": 0}]},
             {"n": 2, "terms": [{"mask": [1], "re": 1, "im": 0}]}],
            [{"n": 2, "terms": [{"mask": [2], "re": 1, "im": 0}]},
             {"n": 2, "terms": [{"mask": [], "re": 1, "im": 0}]}],
        ]},
        "rhs": [{"n": 2, "terms": [{"mask": [], "re": 1, "im": 0}]},
                {"n": 2, "terms": []}],
    })
    proc = run_cli(["solve"], stdin=blob)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["oracle_agreement"] < 1e-9
    x0 = {tuple(t["mask"]): t["re"] for t in out["x"][0]["terms"]}
    assert abs(x0[()] - 0.5) < 1e-12 and abs(x0[(1, 2)] - 0.25) < 1e-12


def test_rr_subcommand():
    proc = run_cli(["rr", "--degL", "3", "--g", "2", "--degN", "0"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"even": 2, "odd": 2}


def test_theta_subcommand():
    blob = json.dumps({"genus": 1, "Z_red": [[{"re": 0, "im": 1}]],
                       "z": [{"re": 0.0, "im": 0.0}], "characteristic": "11"})
    proc = run_cli(["theta"], stdin=blob)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["value"]["terms"] == [] or abs(out["value"]["terms"][0]["re"]) < 1e-12


def test_tau_elliptic_subcommand():
    proc = run_cli(["tau-elliptic", "--tau", "0,2", "--a", "0.31,0.17",
                    "--zeta", "0.12,-0.05"])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["ber_check_residual"] < 1e-6
    assert out["convention_factor"]["terms"] == [{"im": 0.0, "mask": [], "re": 1.0}]


def test_exit_code_bad_json():
    proc = run_cli(["ber"], stdin="this is not json")
    assert proc.returncode == 2


def test_exit_code_domain_error():
    bad = {"matrix": {"rows": [0, 1], "cols": [0, 1],
                      "entries": [[{"n": 1, "terms": [{"mask": [1], "re": 1, "im": 0}]}]]}}
    proc = run_cli(["ber"], stdin=json.dumps(bad))
    assert proc.returncode == 3


def _element(n, *terms):
    return {"n": n, "terms": [{"mask": list(mask), "re": re, "im": 0} for mask, re in terms]}


MATRIX_21 = {"rows": [2, 1], "cols": [2, 1], "entries": [
    [_element(2, ((), 2)), _element(2, ((), 1)), _element(2, ((1,), 1))],
    [_element(2, ((), 1)), _element(2, ((), 3)), _element(2, ((2,), 1))],
    [_element(2, ((2,), 1)), _element(2, ((1,), 1)), _element(2, ((), 1))]]}
Z_RED_2 = [[{"re": 0, "im": 1.2}, {"re": 0.1}], [{"re": 0.1}, {"re": 0, "im": 1.1}]]
RAGGED_PERIODS = {"n": 2, "g": 2, "Z_e": [[_element(2, ((), 1)), _element(2, ((), 1))],
                                          [_element(2, ((), 1))]],
                  "Z_o": [[_element(2, ((1,), 1))], [_element(2, ((2,), 1))]]}
IDENTITY_FRAME = [[int(r == c) for c in range(4)] for r in range(8)]


@pytest.mark.parametrize("command, request_, code", [
    ("ber", {"matrix": {"rows": [1, 1], "cols": [1, 1],
                        "entries": [[_element(2, ((), 1)), _element(2, ((1,), 1))]]}}, 3),
    ("ber", {"matrix_": MATRIX_11}, 2),
    ("solve", {"matrix": MATRIX_21, "rhs": [_element(2, ((), 1))]}, 3),
    ("quasidet", {"matrix": MATRIX_21, "i": 7, "j": 7}, 3),
    ("quasidet", {"matrix": MATRIX_21, "i": 2, "j": 5}, 3),
    ("quasidet", {"matrix": MATRIX_21, "i": -1, "j": -1}, 3),
    ("theta", {"genus": 2, "Z_red": [[{"re": 0, "im": 1}]], "z": [0, 0]}, 3),
    ("theta", {"genus": 1, "Z_red": [[{"re": 0, "im": 1}]], "z": [0.1], "derivative": [5]}, 3),
    ("theta", {"genus": 1, "n": 13, "Z_red": [[{"re": 0, "im": 1}]], "z": [0.1]}, 3),
    ("super-theta", {"genus": 2, "Z_red": Z_RED_2, "alphas": [3], "eta_generators": [0],
                     "z": [0, 0]}, 3),
    ("period-q", RAGGED_PERIODS, 3),
    ("dual-cohomology", RAGGED_PERIODS, 3),
    ("bilinear-check", {"n": 13, "a": [1], "b": [1], "a_hat": [1], "b_hat": [1]}, 3),
    ("sgr-tau", {"window_M": 1, "n": 0, "frame": [[1, 0], [0, 1], [0, 0], [0, 0]]}, 3),
    ("sgr-tau", {"n": 0, "frame": IDENTITY_FRAME}, 2),
    ("sgr-tau", {"window_M": 2, "n": 0, "frame": IDENTITY_FRAME, "flows": {"0": 0.1}}, 3),
    ("sgr-baker", {"window_M": 2, "n": 0, "frame": IDENTITY_FRAME, "flows": {"0": 0.1}}, 3),
    # a count or index that is not a JSON integer is malformed, never truncated
    ("quasidet", {"matrix": MATRIX_21, "i": 1.9, "j": 0.2}, 2),
    ("quasidet", {"matrix": MATRIX_21, "i": True, "j": 0}, 2),
    ("ber", {"matrix": dict(MATRIX_11, rows=[1.9, 1])}, 2),
    ("ber", {"matrix": dict(MATRIX_11, entries=[[_element(2, ((), 1)), _element(2, ((1,), 1))],
                                                [dict(_element(2, ((2,), 1)), n=2.9),
                                                 _element(2, ((), 1))]])}, 2),
    ("ber", {"matrix": dict(MATRIX_11, entries=[[_element(2, ((), 1)), _element(2, ((1.7,), 1))],
                                                [_element(2, ((2,), 1)), _element(2, ((), 1))]])}, 2),
    ("theta", {"genus": math.inf, "Z_red": [[{"re": 0, "im": 1}]], "z": [0.1]}, 2),
    ("theta", {"genus": 1.0, "Z_red": [[{"re": 0, "im": 1}]], "z": [0.1]}, 2),
    ("theta", {"genus": 1, "n": 2.5, "Z_red": [[{"re": 0, "im": 1}]], "z": [0.1]}, 2),
    ("super-theta", {"genus": 2, "Z_red": Z_RED_2, "alphas": [0], "eta_generators": [0.5],
                     "z": [0, 0]}, 2),
    ("super-theta", {"genus": 2, "Z_red": Z_RED_2, "alphas": [0.5], "eta_generators": [0],
                     "z": [0, 0]}, 2),
    ("period-q", dict(RAGGED_PERIODS, g=2.5), 2),
    ("bilinear-check", {"n": 1.5, "a": [1], "b": [1], "a_hat": [1], "b_hat": [1]}, 2),
    ("sgr-tau", {"window_M": 2.5, "n": 0, "frame": IDENTITY_FRAME}, 2),
    ("sgr-baker", {"window_M": 2, "n": 0.5, "frame": IDENTITY_FRAME}, 2),
    ("theta", {"genus": 1, "Z_red": [[{"re": 0, "im": 1}]], "z": [0.1], "derivative": [True]}, 2),
])
def test_bad_requests_exit_2_or_3(command, request_, code, tmp_path, capsys):
    # an exception that escaped main would print a traceback and exit 1
    path = tmp_path / "request.json"
    path.write_text(json.dumps(request_))
    assert main([command, "--json", str(path)]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("domain error: " if code == 3 else "input error: ")


def test_sgr_baker_normalizes_the_frame_once(monkeypatch, capsys, tmp_path):
    from supercurves import sgr

    calls = []
    original = sgr.big_cell_test

    def counted(frame):
        calls.append(frame)
        return original(frame)

    monkeypatch.setattr(sgr, "big_cell_test", counted)
    request = {"window_M": 2, "n": 0, "frame": IDENTITY_FRAME}
    assert main(["sgr-baker", "--json", _write_json(tmp_path / "request.json", request)]) == 0
    assert len(calls) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["w_even"] == {"z^0": {"n": 0, "terms": [{"im": 0.0, "mask": [], "re": 1.0}]}}


def test_deterministic_output():
    blob = json.dumps({"matrix": MATRIX_11})
    a = run_cli(["ber"], stdin=blob)
    b = run_cli(["ber"], stdin=blob)
    assert a.stdout == b.stdout


def test_main_in_process(capsys):
    rc = main(["rr", "--degL", "1", "--g", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"even": 0, "odd": 0}


def test_sgr_tau_subcommand():
    M = 4
    window_indices = list(range(-2 * M + 1, 2 * M + 1))
    neg = [d for d in window_indices if d <= 0]
    one = {"n": 2, "terms": [{"mask": [], "re": 1, "im": 0}]}
    zero = {"n": 2, "terms": []}
    frame = [[one if rd == cd else zero for cd in neg] for rd in window_indices]
    blob = json.dumps({"window_M": M, "n": 2, "frame": frame,
                       "flows": {"2": {"n": 2, "terms": [{"mask": [], "re": 0.3, "im": 0}]}}})
    proc = run_cli(["sgr-tau"], stdin=blob)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["finite"] and out["tau"]["terms"] == [{"im": 0.0, "mask": [], "re": 1.0}]


def test_cli_import_leaves_the_acceptance_module_out():
    # only the acceptance subcommand imports (and compiles) the acceptance criteria
    code = "import sys, supercurves.cli; print('supercurves.acceptance' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# -- the acceptance seed, in process ---------------------------------------------


def _capture_seed(monkeypatch):
    from supercurves import acceptance

    seen = []

    def fake_run_all(seed=0, echo=True):
        seen.append(seed)
        return {"all_passed": True, "seed": seed, "results": []}

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    return seen


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_acceptance_seed_flag_reaches_run_all(monkeypatch, capsys):
    seen = _capture_seed(monkeypatch)
    assert main(["acceptance", "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["seed"] == 7
    assert main(["acceptance"]) == 0
    assert seen == [7, 0]


def test_seed_before_subcommand_is_rejected(monkeypatch):
    seen = _capture_seed(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "5", "acceptance"])
    assert exc.value.code == 2
    assert seen == []


# -- complex flags ----------------------------------------------------------------


@pytest.mark.parametrize("flag", ["--tau=0,2,7", "--a=0.3,0.1,5", "--zeta=0.1,0,"])
def test_complex_flag_rejects_extra_parts(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tau-elliptic", flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _tau_elliptic_json(tau: complex) -> dict:
    n = 2
    d = ell.SuperEllipticData(
        tau_modulus=tau, delta=GrassmannScalar.generator(n, 1),
        a=GrassmannScalar.scalar(n, 0.3 + 0.1j), alpha=GrassmannScalar.generator(n, 0),
        zeta=GrassmannScalar.scalar(n, 0.1), n=n)
    return {"tau_ratio": ell.tau_ratio(d).to_json(),
            "tau_closed_form": ell.tau_closed_form(d).to_json(),
            "ber_check_residual": ell.ber_check_residual(d),
            "convention_factor": ell.convention_factor(d).to_json()}


def test_complex_flag_takes_one_or_two_parts(capsys):
    outs = []
    for tau in ("--tau=0,2", "--tau=0.0,2.0"):
        assert main(["tau-elliptic", tau, "--zeta=0.1"]) == 0
        outs.append(capsys.readouterr().out)
    assert main(["tau-elliptic", "--tau=0,2", "--zeta=0.1,0"]) == 0
    assert outs == [outs[0], capsys.readouterr().out]
    assert json.loads(outs[0]) == _tau_elliptic_json(2j)


# -- one parser per process ---------------------------------------------------------

SUBCOMMANDS = ["ber", "solve", "quasidet", "theta", "super-theta", "period-q",
               "dual-cohomology", "bilinear-check", "rr", "sgr-tau", "sgr-baker",
               "tau-elliptic", "acceptance"]


def _outcome(parse_or_main, argv, capsys):
    """(exit code, stdout, stderr) of one call, with SystemExit read as its code."""
    capsys.readouterr()
    try:
        code = parse_or_main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    assert cli._parser() is cli._parser()

    def rebuilt():
        raise AssertionError("main reached cli.build_parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert main(["rr", "--degL", "3", "--g", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"even": 2, "odd": 2}


def test_shared_parser_calls_match_a_fresh_parser(monkeypatch, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    singular = _write_json(tmp_path / "singular.json", {"matrix": {
        "rows": [0, 1], "cols": [0, 1],
        "entries": [[{"n": 1, "terms": [{"mask": [1], "re": 1, "im": 0}]}]]}})
    calls = [["tau-elliptic", "--tau=0,0.5"], ["tau-elliptic"],
             ["ber", "--json", str(bad)], ["ber", "--json", singular],
             ["tau-elliptic", "--tau=0,0.5"], ["tau-elliptic"]]
    shared = [_outcome(main, argv, capsys) for argv in calls]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)  # a fresh parser on every call
        fresh = [_outcome(main, argv, capsys) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 3, 0, 0]
    assert shared[0][1] != shared[1][1]  # the flag reached the first call only
    assert shared[4:] == shared[:2]


@pytest.mark.parametrize("argv", [["-h"]] + [[name, "-h"] for name in SUBCOMMANDS]
                         + [[], ["nope"], ["--seed", "5", "acceptance"], ["rr"],
                            ["rr", "--degL", "x", "--g", "1"], ["--config", "x.json", "theta"]])
def test_shared_parser_help_and_usage_errors_match_a_fresh_parser(argv, capsys):
    main(["rr", "--degL", "1", "--g", "2"])  # the shared parser has served a call
    want = _outcome(cli.build_parser().parse_args, argv, capsys)
    assert want[0] in (0, 2)
    assert _outcome(main, argv, capsys) == want
    assert _outcome(main, argv, capsys) == want
