import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rmtorus import cli, coord_ring, heis_module
from rmtorus.qfield import QuadIrr
from rmtorus.torus_alg import TorusElement
from rmtorus.cli import main, parse_complex, parse_matrix, parse_theta


def _not_json(token):
    raise ValueError(f"stdout holds {token}, which is not JSON")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out:
        json.loads(captured.out, parse_constant=_not_json)
    return code, captured.out, captured.err


def _report(out):
    payload = json.loads(out)
    return payload["report"], payload


# -- parsing helpers --------------------------------------------------------------

def test_parse_complex_grammar():
    assert parse_complex("0.3+1.1i") == 0.3 + 1.1j
    assert parse_complex("-2+0.5i") == -2 + 0.5j
    assert parse_complex("1e-2-3e1i") == 0.01 - 30j
    for bad in ["1+2j", "i", "0.3", "0.3 + 1.1i", "1.1i", "1e400+1i", "0.3-1e309i"]:
        with pytest.raises(cli.InputError):
            parse_complex(bad)


def test_parse_matrix_validates_determinant():
    assert parse_matrix("[[2,1],[1,1]]").to_list() == [[2, 1], [1, 1]]
    with pytest.raises(cli.InputError):
        parse_matrix("[[1,1],[1,1]]")
    with pytest.raises(cli.InputError):
        parse_matrix("not json")


def test_parse_theta_error():
    with pytest.raises(cli.InputError):
        parse_theta("sqrt(-2)")
    with pytest.raises(cli.InputError):
        parse_theta("(1+sqrt5)/0")


@pytest.mark.parametrize("sub", ["fix", "algebra", "module-check", "ring"])
def test_zero_denominator_theta_exits_2(capsys, sub):
    code, out, err = _run(capsys, sub, "--theta", "(1+sqrt5)/0")
    assert code == 2
    assert out == ""
    assert "theta" in err


# -- fix ---------------------------------------------------------------------------

def test_fix_golden(capsys):
    code, out, err = _run(capsys, "fix", "--theta", "(1+sqrt5)/2")
    assert code == 0
    rep, payload = _report(out)
    assert rep["g"] == [[2, 1], [1, 1]]
    assert rep["trace"] == 3
    assert rep["minimal_polynomial"] == [1, -1, -1]
    assert rep["discriminant"] == 5
    assert rep["multiplier_conductor"] == 1
    assert rep["continued_fraction"]["period"] == [1]
    assert rep["conditions"] == {"generated": False, "quadratic": False, "koszul": False}
    assert payload["command"] == "fix"


def test_fix_ring_case(capsys):
    code, out, _ = _run(capsys, "fix", "--theta", "(-5+sqrt5)/10")
    assert code == 0
    rep, _ = _report(out)
    assert rep["g"] == [[-1, -1], [5, 4]]
    assert rep["conditions"] == {"generated": True, "quadratic": True, "koszul": True}


def test_fix_rational_rejected(capsys):
    code, out, err = _run(capsys, "fix", "--theta", "3/4")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_fix_missing_theta(capsys):
    code, out, err = _run(capsys, "fix")
    assert code == 2
    assert "--theta" in err


def test_fix_trace_cap_exit_code(capsys):
    # cap below the minimal trace: numerical/search failure, not bad input
    code, out, err = _run(capsys, "fix", "--theta", "sqrt2", "--max-trace", "5")
    assert code == 3
    assert "error" in err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["notacommand"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fix", "--theta", "sqrt2", "--precision", "extended"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, config", [
    (["module-check", "--theta", "(-5+sqrt5)/10", "--degrees", "0"], None),
    (["module-check", "--theta", "(-5+sqrt5)/10", "--degrees", "abc"], None),
    (["algebra", "--theta", "sqrt2"], {"count": "abc"}),
    (["algebra", "--theta", "sqrt2", "--support", "-3"], None),
    (["module-check", "--theta", "(-5+sqrt5)/10", "--degrees", ","], None),
    (["module-check", "--theta", "(-5+sqrt5)/10", "--degrees", " "], None),
    # a JSON true or false is a bool, not a count
    (["algebra", "--theta", "sqrt2"], {"count": True, "tol": True}),
    (["algebra", "--theta", "sqrt2", "--count", "1"], {"seed": False}),
    (["ring", "--theta", "(-5+sqrt5)/10", "--g", "[[-1,-1],[5,4]]"], {"max_degree": True}),
])
def test_bad_integer_input_exits_2(tmp_path, capsys, argv, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, config", [
    (["theta", "--r", "1/3", "--m", "0+2i", "--tol=0"], None),
    (["theta", "--r", "1/3", "--m", "0+2i", "--tol=nan"], None),
    (["theta", "--r", "1/3", "--m", "0+2i", "--tol=-1"], None),
    (["theta", "--r", "1/4", "--m", "0.3+1.1i", "--z", "0.1+0.2i", "--tol=inf"], None),
    (["algebra", "--theta", "sqrt2", "--count", "2", "--tol", "nan"], None),
    (["module-check", "--theta", "(-5+sqrt5)/10", "--tol", "nan"], None),
    (["module-check", "--theta", "(-5+sqrt5)/10"], {"tol": "abc"}),
    (["algebra", "--theta", "sqrt2", "--count", "1"], {"tol": True}),
    (["module-check", "--theta", "(-5+sqrt5)/10", "--degrees", "1"], {"tol": True}),
])
def test_bad_tolerance_exits_2(tmp_path, capsys, argv, config):
    # a tolerance <= 0 or NaN would certify nothing or switch the residual gate off
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--tol" in err
    assert "Traceback" not in err


# one valid command line per subcommand, and one malformed value per option;
# each value passes the flag's argparse type, so the option's own check refuses it
_VALID = {
    "fix": {"theta": "sqrt2"},
    "algebra": {"theta": "sqrt2", "count": "1", "support": "1"},
    "module-check": {"theta": "(-5+sqrt5)/10", "degrees": "1"},
    "theta": {"r": "1/3", "m": "0+2i"},
    "ring": {"theta": "(-5+sqrt5)/10", "g": "[[-1,-1],[5,4]]", "max_degree": "1"},
}
_MALFORMED = {
    "theta": "sqrt", "g": "[[1,1],[1,1]]", "tau": "0.3-1i", "degrees": "1,0", "tol": "nan",
    "count": "0", "support": "0", "seed": "-1", "max_trace": "0", "r": "1/x", "m": "1+0i",
    "z": "0.1+2j", "max_degree": "0", "assoc_triples": "-1",
}


@pytest.mark.parametrize("sub, name, where", [
    (sub, name, where) for sub, command in cli._COMMANDS.items()
    for name, opt in command.options.items()
    for where in (("flag", "config") if opt.type else ("config",))])
def test_every_malformed_option_exits_2(tmp_path, capsys, sub, name, where):
    # generated from the option table: a malformed value exits 2 before any
    # work, from a flag or from a config file alike
    valid = {k: v for k, v in _VALID[sub].items() if k != name}
    argv = [sub] + [f"--{k.replace('_', '-')}={v}" for k, v in valid.items()]
    if where == "flag":
        argv.append(f"--{name.replace('_', '-')}={_MALFORMED[name]}")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: _MALFORMED[name]}))
        argv += ["--config", str(cfg)]
    code, out, err = _run(capsys, *argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_options_are_checked_before_any_work(capsys, monkeypatch):
    # the fixing-matrix search of sqrt61 takes over a second and then fails;
    # the bad degree is refused first
    def no_search(*args, **kwargs):
        raise AssertionError("fixing matrix searched")

    monkeypatch.setattr(cli, "fixing_matrix", no_search)
    code, out, err = _run(capsys, "ring", "--theta", "sqrt61", "--max-degree", "0")
    assert (code, out) == (2, "")
    assert err == "error: --max-degree must be an integer >= 1, got 0\n"


@pytest.mark.parametrize("argv, config", [
    (["theta", "--r", "1/3", "--m=0.3+1e400i"], None),
    (["theta", "--r", "1/3", "--m", "0+2i", "--z=1e400+0i"], None),
    (["module-check", "--theta", "(-5+sqrt5)/10", "--tau=0.3+1e400i", "--degrees", "1"], None),
    (["module-check", "--theta", "(-5+sqrt5)/10", "--tau=1e400+1i", "--degrees", "1"], None),
    (["ring", "--theta", "(-5+sqrt5)/10", "--g", "[[-1,-1],[5,4]]"], {"tau": "-1e999+1i"}),
    (["theta", "--r", "1/3"], {"m": "0.3+1e400i"}),
], ids=["m", "z", "im-tau", "re-tau", "ring-config-tau", "config-m"])
def test_non_finite_complex_exits_2(tmp_path, capsys, argv, config):
    # float() reads 1e400 as inf: no report may carry it, and tau = inf+1i
    # used to end in a traceback
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "is beyond the double range" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tau, message", [
    ("3e306+1i", "module residual nan exceeds tolerance 1.0e-12"),
    ("1e307+1i", "module residuals cannot be evaluated at tau = (1e+307+1j): math domain error"),
], ids=["nan", "domain-error"])
def test_module_check_at_huge_tau_exits_3(capsys, tau, message):
    # the residuals overflow to NaN, which max() and a "worst > tol" gate let
    # through as a pass, or their evaluation raises a math domain error
    code, out, err = _run(capsys, "module-check", "--theta", "(-5+sqrt5)/10", f"--tau={tau}",
                          "--degrees", "1")
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


def test_algebra_nan_residual_exits_3(capsys, monkeypatch):
    # a NaN after the first sample used to vanish in max(res, nan)
    trace = TorusElement.trace
    calls = []

    def nan_on_the_second_call(self):
        calls.append(1)
        return complex("nan") if len(calls) == 2 else trace(self)

    monkeypatch.setattr(TorusElement, "trace", nan_on_the_second_call)
    code, out, err = _run(capsys, "algebra", "--theta", "sqrt2", "--count", "2", "--support", "3")
    assert (code, out) == (3, "")
    assert err == "error: algebra residual nan exceeds tolerance 1.0e-12\n"


def test_large_radicand_is_refused_up_front(capsys):
    # trial division of a 15-digit radicand took 3 s before the search
    code, out, err = _run(capsys, "fix", "--theta", "sqrt100000000000031", "--max-trace", "3")
    assert (code, out) == (2, "")
    assert err == ("error: cannot parse theta 'sqrt100000000000031': radicand "
                   "100000000000031 is above the limit of 10^12\n")


# -- determinism and output --------------------------------------------------------

def test_stdout_is_deterministic(capsys):
    _, first, _ = _run(capsys, "fix", "--theta", "sqrt2")
    _, second, _ = _run(capsys, "fix", "--theta", "sqrt2")
    assert first == second
    parsed = json.loads(first)
    assert list(parsed) == sorted(parsed)


def test_output_file_copy(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, "fix", "--theta", "(1+sqrt5)/2", "--output", str(target))
    assert code == 0
    assert target.read_text() == out  # stdout plus the same trailing newline
    json.loads(target.read_text())


# -- config file --------------------------------------------------------------------

def test_config_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": "(1+sqrt5)/2"}))
    code, out, _ = _run(capsys, "fix", "--config", str(cfg))
    assert code == 0
    rep, payload = _report(out)
    assert rep["g"] == [[2, 1], [1, 1]]
    assert payload["config"]["theta"] == "(1+sqrt5)/2"


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": "(1+sqrt5)/2", "max_trace": 1000}))
    code, out, _ = _run(capsys, "fix", "--config", str(cfg), "--theta", "sqrt2")
    assert code == 0
    rep, payload = _report(out)
    assert rep["g"] == [[3, 4], [2, 3]]
    assert payload["config"]["max_trace"] == 1000


@pytest.mark.parametrize("argv, config", [
    (["algebra", "--theta", "sqrt2"], {"suport": 5}),
    (["ring", "--theta", "(-5+sqrt5)/10"], {"tol": 1e-3, "bogus_key": 5}),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, argv, config):
    # a misspelt or removed option would otherwise be ignored and echoed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = _run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    for key in config:
        assert repr(key) in err


def test_config_takes_every_option_of_the_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": "sqrt2", "count": 2, "support": 3, "seed": 4,
                               "tol": 1e-12}))
    code, out, _ = _run(capsys, "algebra", "--config", str(cfg))
    assert code == 0
    assert _report(out)[1]["config"] == {"theta": "sqrt2", "count": 2, "support": 3,
                                         "seed": 4, "tol": 1e-12}
    # max_trace is a config-only option of module-check and ring; hitting the
    # cap is a search failure, exit 3 as in fix
    cfg.write_text(json.dumps({"theta": "(-5+sqrt5)/10", "max_trace": 2}))
    for argv in (["module-check", "--degrees", "1"], ["ring", "--max-degree", "1"]):
        code, _, err = _run(capsys, *argv, "--config", str(cfg))
        assert code == 3
        assert "no fixing matrix found" in err and "trace <= 2" in err


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1,2,3]")
    code, _, err = _run(capsys, "fix", "--config", str(cfg), "--theta", "sqrt2")
    assert code == 2
    code2, _, _ = _run(capsys, "fix", "--config", str(tmp_path / "missing.json"),
                       "--theta", "sqrt2")
    assert code2 == 2


# -- algebra --------------------------------------------------------------------------

def test_algebra_passes(capsys):
    code, out, _ = _run(capsys, "algebra", "--theta", "(-5+sqrt5)/10",
                        "--count", "10", "--support", "8")
    assert code == 0
    rep, payload = _report(out)
    assert rep["max_residual"] < 1e-12
    assert set(rep["residuals"]) == {"uv_relation", "associativity", "star_involution",
                                     "star_antimult", "tracial", "trace_positivity",
                                     "leibniz"}
    assert payload["config"]["count"] == 10


def test_algebra_report_matches_pair_loop_product(capsys, monkeypatch):
    # the array code against the dict-of-terms reference of every
    # TorusElement operation, the pair-loop product included: same stdout
    # byte for byte
    from test_torus_alg import _REFERENCE

    argvs = [["algebra", "--theta", "sqrt2", "--count", "5", "--support", "30", "--seed", "3"],
             ["algebra", "--theta", "(-5+sqrt5)/10", "--count", "3", "--support", "12",
              "--seed", "8"]]
    got = [_run(capsys, *argv)[:2] for argv in argvs]
    for name, ref in _REFERENCE.items():
        monkeypatch.setattr(TorusElement, name, ref)
    assert got == [_run(capsys, *argv)[:2] for argv in argvs]
    assert [code for code, _ in got] == [0, 0]


def test_fix_values_match_mpmath_float():
    # the "value" fields of fix are float(QuadIrr): over the 159 forms sqrt(D)
    # and (1+sqrt(D))/2, squarefree D <= 200, and the translates +-theta + k
    # that the benchmark feeds to fix, the integer bracket gives the double
    # that sqrt(D) at 35 digits of mpmath gave
    from test_qfield import _mpmath_float
    from test_torus_alg import _SQUAREFREE

    forms = [QuadIrr(0, 1, 1, D) for D in _SQUAREFREE]
    forms += [QuadIrr(1, 1, 2, D) for D in _SQUAREFREE if D % 4 == 1]
    assert len(forms) == 159
    for t in forms:
        for theta in (sign * t + k for sign in (1, -1) for k in range(-5, 6)):
            assert float(theta) == _mpmath_float(theta)


def test_algebra_impossible_tolerance(capsys):
    code, _, err = _run(capsys, "algebra", "--theta", "sqrt2",
                        "--count", "3", "--support", "5", "--tol", "1e-300")
    assert code == 3
    assert "tolerance" in err


# -- module-check -----------------------------------------------------------------------

def test_module_check_passes(capsys):
    code, out, _ = _run(capsys, "module-check", "--theta", "(-5+sqrt5)/10",
                        "--degrees", "1")
    assert code == 0
    rep, _ = _report(out)
    deg = rep["degrees"]["1"]
    for key in ("right_relation", "left_relation", "bimodule_commutation",
                "leibniz", "curvature", "holomorphic_annihilation"):
        assert deg[key] < 1e-12
    assert rep["heisenberg"]["finite_rep_exact"] is True
    assert rep["heisenberg"]["pairing_nondegenerate"] is True
    assert rep["max_residual"] < 1e-12


@pytest.mark.parametrize("degrees, n", [("1,40", 40), ("1000000000", 1000000000)])
def test_module_check_refuses_oversized_probe(capsys, monkeypatch, degrees, n):
    # c_40 of this data is about 10^17 and g^(10^9) is never formed: the
    # refusal comes before any probe is built or any degree is checked
    def no_probe(*args, **kwargs):
        raise AssertionError("probe built")

    monkeypatch.setattr(heis_module, "holomorphic_element", no_probe)
    monkeypatch.setattr(heis_module, "module_residuals", no_probe)
    code, out, err = _run(capsys, "module-check", "--theta", "(-5+sqrt5)/10",
                          "--degrees", degrees)
    assert code == 3
    assert out == ""
    assert f"c_{n}" in err


def test_module_check_rejects_real_tau(capsys):
    code, _, err = _run(capsys, "module-check", "--theta", "sqrt2",
                        "--tau", "0.3+0.0i")
    assert code == 2
    assert "tau" in err


# -- theta ---------------------------------------------------------------------------

def test_theta_reference_value(capsys):
    code, out, _ = _run(capsys, "theta", "--r", "0", "--m", "0+1i")
    assert code == 0
    rep, _ = _report(out)
    re, im = rep["value"]
    assert abs(re - 1.0864348112133080146) < 1e-12
    assert abs(im) < 1e-15
    assert rep["tail_bound"] <= 1e-14


def test_theta_with_argument(capsys):
    code, out, _ = _run(capsys, "theta", "--r", "1/4", "--m", "0.3+1.1i",
                        "--z", "0.1+0.2i")
    assert code == 0
    rep, _ = _report(out)
    val = complex(*rep["value"])
    assert abs(val - (0.9409357556338423202 + 0.14870195549561798467j)) < 1e-12


def test_theta_uncertifiable_is_exit_3(capsys):
    code, _, err = _run(capsys, "theta", "--r", "0", "--m", "0+1e-300i")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["theta", "--r", "1/3", "--m", "0+1i", "--z", "0+1e3i"],
    ["ring", "--theta", "(-5+sqrt5)/10", "--g", "[[-1,-1],[5,4]]", "--tau", "1e300+1i"],
    ["ring", "--theta", "(-5+sqrt5)/10", "--g", "[[-1,-1],[5,4]]", "--tau", "0.3+1e300i"],
], ids=["theta-huge-z", "ring-huge-re-tau", "ring-huge-im-tau"])
def test_overflow_is_exit_3(capsys, argv):
    # a majorant or rounding bound beyond the double range is not a certificate
    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err and "Infinity" not in err


def test_theta_rejects_bad_inputs(capsys):
    code, _, _ = _run(capsys, "theta", "--r", "1/3", "--m", "1-2i")
    assert code == 2
    code, _, _ = _run(capsys, "theta", "--r", "x", "--m", "0+1i")
    assert code == 2


# -- ring -----------------------------------------------------------------------------

def test_ring_small_run(capsys):
    code, out, _ = _run(capsys, "ring", "--theta", "(-5+sqrt5)/10",
                        "--g", "[[-1,-1],[5,4]]", "--tau", "0.3+1.1i",
                        "--max-degree", "2", "--assoc-triples", "2")
    assert code == 0
    rep, payload = _report(out)
    assert rep["dims"] == [1, 5, 15]
    assert rep["generation"] == [True]
    assert rep["assoc_residual"] < 1e-8
    assert rep["quadratic"] is None
    assert payload["config"]["max_degree"] == 2


def _key_paths(x, prefix=""):
    if isinstance(x, dict):
        return set().union(*(_key_paths(v, f"{prefix}.{k}" if prefix else k)
                             for k, v in x.items()))
    if isinstance(x, list):
        return set().union({prefix + "[]"} if not x else set(),
                           *(_key_paths(v, prefix + "[]") for v in x))
    return {prefix}


README_RING_PATHS = {
    "command", "config.assoc_triples", "config.g", "config.max_degree", "config.seed",
    "config.tau", "config.theta", "report.assoc_residual",
    "report.dims[]", "report.g[][]", "report.generation[]", "report.generation_detail[].rank",
    "report.generation_detail[].residual", "report.generation_detail[].source[]",
    "report.generation_detail[].surjective", "report.generation_detail[].target_dim",
    "report.quadratic", "report.quadratic_detail.dim_K",
    "report.quadratic_detail.expected_dim_K", "report.quadratic_detail.inclusion_residual",
    "report.quadratic_detail.ker3_dim", "report.quadratic_detail.max_product_residual",
    "report.quadratic_detail.span_dim", "report.tau[]",
    "report.tensors[].degrees[]",
    "report.tensors[].max_residual", "report.tensors[].shape[]", "report.theta.canonical",
    "report.theta.value",
}


def test_readme_ring_report_keeps_its_key_paths(capsys):
    code, out, _ = _run(capsys, "ring", "--theta", "(-5+sqrt5)/10", "--g", "[[-1,-1],[5,4]]",
                        "--tau", "0.3+1.1i", "--max-degree", "3")
    assert code == 0
    rep, payload = _report(out)
    assert _key_paths(payload) == README_RING_PATHS
    assert rep["dims"] == [1, 5, 15, 40]
    assert [d["rank"] for d in rep["generation_detail"]] == [15, 40]
    assert rep["quadratic"] is True
    q = rep["quadratic_detail"]
    assert (q["dim_K"], q["ker3_dim"], q["span_dim"]) == (10, 85, 85)


def test_ring_has_no_tol_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ring", "--theta", "(-5+sqrt5)/10", "--tol", "1e-3"])
    assert exc.value.code == 2


def test_ring_builds_each_tensor_once(capsys, monkeypatch):
    built = []
    build = coord_ring.structure_tensor

    def counting(m, n, data, tau):
        built.append((m, n))
        return build(m, n, data, tau)

    monkeypatch.setattr(coord_ring, "structure_tensor", counting)
    code, out, _ = _run(capsys, "ring", "--theta", "(-5+sqrt5)/10", "--g", "[[-1,-1],[5,4]]",
                        "--assoc-triples", "1")
    assert code == 0
    # generation, associativity and quadraticity all read these three, once each
    assert sorted(built) == [(1, 1), (1, 2), (2, 1)]
    assert _report(out)[0]["quadratic"] is True


@pytest.mark.parametrize("value", ["flag", "false", 0, 1, None, False, True])
def test_theta_diagnostic_is_an_input_error(tmp_path, capsys, value):
    # there is no theta diagnostic: every entry is theta at its own label, so
    # the flag is unknown to argparse and the config key (any value) unknown
    argv = ["ring", "--theta", "(-5+sqrt5)/10", "--g", "[[-1,-1],[5,4]]", "--max-degree", "1"]
    if value == "flag":
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--theta-diagnostic"])
        code, (out, err) = exc.value.code, capsys.readouterr()
        assert "unrecognized arguments: --theta-diagnostic" in err
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_diagnostic": value}))
        code, out, err = _run(capsys, *argv, "--config", str(cfg))
        assert "unknown config key(s) 'theta_diagnostic'" in err
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def _fail(*args, **kwargs):
    raise AssertionError("built past the budget")


@pytest.mark.parametrize("extra,estimate", [
    (["--max-degree", "7"], "6786000 entries, above the budget of 1000000"),
    (["--max-degree", "1000000000"], "6786000 entries"),
    (["--tau", "0.3+1e-9i", "--max-degree", "2"], "x 60691 terms = 485528, above the budget"),
    # the triples' draws alone would take 22.4 GiB
    (["--max-degree", "3", "--assoc-triples", str(10 ** 8)],
     "100000000 triples x 40 = 4000000000 entries, above the budget of 1000000"),
], ids=["entries", "huge-degree", "label-terms", "assoc-triples"])
def test_ring_over_budget_is_refused_up_front(capsys, monkeypatch, extra, estimate):
    monkeypatch.setattr(coord_ring, "structure_tensor", _fail)
    monkeypatch.setattr(coord_ring, "balanced_product", _fail)
    monkeypatch.setattr(heis_module, "balanced_product", _fail)
    monkeypatch.setattr(coord_ring, "associativity_residual", _fail)
    code, out, err = _run(capsys, "ring", "--theta", "(-5+sqrt5)/10", "--g", "[[-1,-1],[5,4]]",
                          *extra)
    assert code == 3
    assert out == ""
    assert estimate in err


@pytest.mark.parametrize("argv,cause", [
    (["--m", "0+2i", "--z", "0+1e300i"], "Im(m) = 2.0, |Im z| = 1e+300"),
    (["--m", "0+1e-15i"], "Im(m) = 1e-15, |Im z| = 0.0"),
], ids=["im-z", "im-m"])
def test_theta_refusal_names_the_term_cap_and_its_cause(capsys, argv, cause):
    code, out, err = _run(capsys, "theta", "--r", "1/3", *argv)
    assert code == 3
    assert out == ""
    assert err == ("error: theta series truncation did not certify within 10000000 terms at "
                   f"{cause}\n")


def test_ring_wrong_matrix_for_theta(capsys):
    code, _, err = _run(capsys, "ring", "--theta", "sqrt2",
                        "--g", "[[2,1],[1,1]]", "--tau", "0.3+1.1i")
    assert code == 2


# -- README ---------------------------------------------------------------------------

# report branches the README commands do not reach, each with the test that
# it was reached
_MORE_REPORTS = [
    ('rmtorus ring --theta "(1+sqrt5)/2" --max-degree 3',
     lambda rep: rep["quadratic"] is None and not any(rep["generation"])),
    ('rmtorus ring --theta "(-5+sqrt5)/10" --g "[[-1,-1],[5,4]]" --max-degree 1',
     lambda rep: rep["generation"] == [] and rep["quadratic"] is None),
    # c_1 = 8 > 6: no finite_rep_exact key
    ('rmtorus module-check --theta "sqrt17" --degrees 1',
     lambda rep: "finite_rep_exact" not in rep["heisenberg"]),
    ('rmtorus theta --r "2/5" --m "0.1+0.9i" --z=-0.3+0.05i', lambda rep: "z" in rep),
]


def test_readme_commands_exit_0(capsys):
    # every documented command line runs as written; each report, these and
    # _MORE_REPORTS, is plain JSON, since main's json.dumps has no default hook
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line.strip() for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.strip().startswith("rmtorus ")]
    assert {line.split()[1] for line in lines} == set(cli._COMMANDS)
    for line, reached in [(line, lambda rep: True) for line in lines] + _MORE_REPORTS:
        code, out, err = _run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
        assert reached(_report(out)[0]), line


def test_readme_quick_tour_runs():
    # the "Library quick tour" block runs as written, warnings as errors
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    (tour,) = re.findall(r"## Library quick tour\n\n```python\n(.*?)```", readme, re.S)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", tour], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
