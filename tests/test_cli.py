import json
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


# -- seed and config handling, in process ------------------------------------------


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


def test_acceptance_seed_flag_reaches_run_all(monkeypatch, tmp_path, capsys):
    seen = _capture_seed(monkeypatch)
    assert main(["acceptance", "--seed", "7"]) == 0
    cfg = _write_json(tmp_path / "cfg.json", {"seed": 11})
    assert main(["--config", cfg, "acceptance", "--seed", "7"]) == 0
    assert seen == [7, 7]
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["seed"] == 7


def test_acceptance_seed_from_config(monkeypatch, tmp_path):
    seen = _capture_seed(monkeypatch)
    cfg = _write_json(tmp_path / "cfg.json", {"seed": 11})
    assert main(["--config", cfg, "acceptance"]) == 0
    assert main(["acceptance"]) == 0
    assert seen == [11, 0]


def test_seed_before_subcommand_is_rejected(monkeypatch):
    seen = _capture_seed(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "5", "acceptance"])
    assert exc.value.code == 2
    assert seen == []


def test_config_rejects_unread_keys(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {"tolerance": 1e-9})
    assert main(["--config", cfg, "rr", "--degL", "1", "--g", "2"]) == 2


def test_config_rejects_small_window(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {"window_M": 3})
    assert main(["--config", cfg, "rr", "--degL", "1", "--g", "2"]) == 2


@pytest.mark.parametrize("cfg", [{"theta_N": 0}, {"theta_N": 1.5}, {"theta_N": "x"},
                                 {"theta_N": True}, {"theta_N": None}, {"n_generators": -1},
                                 {"n_generators": 13}, {"n_generators": 2.0},
                                 {"n_generators": "4"}, {"n_generators": False},
                                 {"window_M": 4.5}, {"window_M": "x"}, {"seed": 1.5},
                                 {"seed": True}, {"seed": -1}])
def test_config_rejects_bad_integers(cfg, tmp_path, capsys):
    # checked when the file is loaded, before any input is read, whatever the subcommand
    path = _write_json(tmp_path / "cfg.json", cfg)
    for subcommand in (["rr", "--degL", "1", "--g", "2"], ["tau-elliptic"],
                       ["theta", "--json", "missing.json"]):
        assert main(["--config", path, *subcommand]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"bad config: {next(iter(cfg))} must be an integer")


@pytest.mark.parametrize("cfg", [{"theta_N": 1}, {"theta_N": 30}, {"n_generators": 0},
                                 {"n_generators": 12}, {"window_M": 4}, {"seed": 0}])
def test_config_accepts_integers_in_range(cfg, tmp_path, capsys):
    path = _write_json(tmp_path / "cfg.json", cfg)
    assert main(["--config", path, "rr", "--degL", "1", "--g", "2"]) == 0


def test_config_fills_theta_N(tmp_path, capsys):
    data = {"genus": 1, "Z_red": [[{"re": 0, "im": 1}]], "z": [{"re": 0.1, "im": 0.0}]}
    plain = _write_json(tmp_path / "plain.json", data)
    explicit = _write_json(tmp_path / "explicit.json", {**data, "N": 1})
    cfg = _write_json(tmp_path / "cfg.json", {"theta_N": 1})
    outs = []
    for argv in (["--config", cfg, "theta", "--json", plain], ["theta", "--json", explicit],
                 ["theta", "--json", plain]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_config_fills_window_M(tmp_path, capsys):
    M = 4
    window_indices = list(range(-2 * M + 1, 2 * M + 1))
    neg = [d for d in window_indices if d <= 0]
    one = {"n": 2, "terms": [{"mask": [], "re": 1, "im": 0}]}
    zero = {"n": 2, "terms": []}
    frame = [[one if rd == cd else zero for cd in neg] for rd in window_indices]
    data = {"n": 2, "frame": frame,
            "flows": {"2": {"n": 2, "terms": [{"mask": [], "re": 0.3, "im": 0}]}}}
    plain = _write_json(tmp_path / "plain.json", data)
    explicit = _write_json(tmp_path / "explicit.json", {**data, "window_M": M})
    cfg = _write_json(tmp_path / "cfg.json", {"window_M": M})
    assert main(["sgr-tau", "--json", plain]) == 2
    capsys.readouterr()
    outs = []
    for argv in (["--config", cfg, "sgr-tau", "--json", plain],
                 ["sgr-tau", "--json", explicit]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["diagnostics"]["window_M"] == M


# -- complex flags and tau-elliptic's lattice radius -----------------------------


@pytest.mark.parametrize("flag", ["--tau=0,2,7", "--a=0.3,0.1,5", "--zeta=0.1,0,"])
def test_complex_flag_rejects_extra_parts(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tau-elliptic", flag])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_complex_flag_takes_one_or_two_parts(capsys):
    outs = []
    for tau in ("--tau=0,2", "--tau=0.0,2.0"):
        assert main(["tau-elliptic", tau, "--zeta=0.1"]) == 0
        outs.append(capsys.readouterr().out)
    assert main(["tau-elliptic", "--tau=0,2", "--zeta=0.1,0"]) == 0
    assert outs == [outs[0], capsys.readouterr().out]


def _tau_elliptic_json(tau: complex, theta_N) -> dict:
    n = 2
    d = ell.SuperEllipticData(
        tau_modulus=tau, delta=GrassmannScalar.generator(n, 1),
        a=GrassmannScalar.scalar(n, 0.3 + 0.1j), alpha=GrassmannScalar.generator(n, 0),
        zeta=GrassmannScalar.scalar(n, 0.1), n=n, theta_N=theta_N)
    return {"tau_ratio": ell.tau_ratio(d).to_json(),
            "tau_closed_form": ell.tau_closed_form(d).to_json(),
            "ber_check_residual": ell.ber_check_residual(d),
            "convention_factor": ell.convention_factor(d).to_json()}


def test_config_sets_tau_elliptic_theta_N(tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"theta_N": 1})
    assert main(["--config", cfg, "tau-elliptic", "--tau=0,0.5"]) == 0
    configured = capsys.readouterr().out
    assert main(["tau-elliptic", "--tau=0,0.5"]) == 0
    default = capsys.readouterr().out
    assert json.loads(configured) == _tau_elliptic_json(0.5j, 1)
    assert json.loads(default) == _tau_elliptic_json(0.5j, None)
    assert configured != default


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
    data = {"genus": 1, "Z_red": [[{"re": 0, "im": 1}]], "z": [{"re": 0.1, "im": 0.0}]}
    plain = _write_json(tmp_path / "plain.json", data)
    cfg = _write_json(tmp_path / "cfg.json", {"theta_N": 1})
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    singular = _write_json(tmp_path / "singular.json", {"matrix": {
        "rows": [0, 1], "cols": [0, 1],
        "entries": [[{"n": 1, "terms": [{"mask": [1], "re": 1, "im": 0}]}]]}})
    calls = [["--config", cfg, "theta", "--json", plain], ["theta", "--json", plain],
             ["ber", "--json", str(bad)], ["ber", "--json", singular],
             ["--config", cfg, "theta", "--json", plain], ["theta", "--json", plain]]
    shared = [_outcome(main, argv, capsys) for argv in calls]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)  # a fresh parser on every call
        fresh = [_outcome(main, argv, capsys) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 3, 0, 0]
    assert shared[0][1] != shared[1][1]  # the config reached the first call only


@pytest.mark.parametrize("argv", [["-h"]] + [[name, "-h"] for name in SUBCOMMANDS]
                         + [[], ["nope"], ["--seed", "5", "acceptance"], ["rr"],
                            ["rr", "--degL", "x", "--g", "1"]])
def test_shared_parser_help_and_usage_errors_match_a_fresh_parser(argv, capsys):
    main(["rr", "--degL", "1", "--g", "2"])  # the shared parser has served a call
    want = _outcome(cli.build_parser().parse_args, argv, capsys)
    assert want[0] in (0, 2)
    assert _outcome(main, argv, capsys) == want
    assert _outcome(main, argv, capsys) == want


def test_config_flag_forms(tmp_path, capsys):
    data = {"genus": 1, "Z_red": [[{"re": 0, "im": 1}]], "z": [{"re": 0.1, "im": 0.0}]}
    plain = _write_json(tmp_path / "plain.json", data)
    cfg = _write_json(tmp_path / "cfg.json", {"theta_N": 1})
    outs = []
    for prefix in (["--config", cfg], ["--conf", cfg], [f"--config={cfg}"], []):
        assert main([*prefix, "theta", "--json", plain]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2] != outs[3]
