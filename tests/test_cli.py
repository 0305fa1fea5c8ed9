import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from rmtorus import cli, coord_ring, heis_module, heis_rep
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


def _gate_failure(err):
    """(command, key, residual, bound) of a 'residual fails its rounding bound' exit."""
    m = re.fullmatch(r"error: (\S+) (\S+): residual (\S+) fails its rounding bound (\S+)\n", err)
    assert m, err
    return m[1], m[2], float(m[3]), float(m[4])


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
    (["algebra", "--theta", "sqrt2"], {"count": True}),
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
    (["theta", "--r", "1/3", "--m", "0+2i", "--tol=1e-400"], None),
    (["theta", "--r", "1/3", "--m", "0+2i", "--tol", "1e400"], None),
    (["theta", "--r", "1/3", "--m", "0+2i"], {"tol": "abc"}),
    (["theta", "--r", "1/3", "--m", "0+2i"], {"tol": True}),
    (["theta", "--r", "1/4", "--m", "0.3+1.1i", "--z", "0.1+0.2i"], {"tol": None}),
])
def test_bad_tolerance_exits_2(tmp_path, capsys, argv, config):
    # theta's tolerance: one <= 0, NaN or infinite would certify nothing, from a
    # flag or from a config file alike
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
    for where in ("flag", "config")])
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


@pytest.mark.parametrize("theta, g", [
    ("(-5+sqrt5)/10", [[-1, -1], [5.9, 4.9]]),
    ("(-5+sqrt5)/10", [[-1, -1], [5, "4"]]),
    ("(1+sqrt5)/2", [[2, True], [1, 1]]),
    ("(-5+sqrt5)/10", [[-1, -1], [5, 1e400]]),
], ids=["float", "string", "bool", "inf"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_g_takes_json_integers_only(tmp_path, capsys, theta, g, where):
    # 5.9 used to be truncated to 5, "4" and true read as 4 and 1, each without
    # a word; 1e400 (inf) ended in an OverflowError traceback
    argv = ["module-check", "--theta", theta, "--degrees", "1"]
    if where == "flag":
        argv.append("--g=" + json.dumps(g).replace("Infinity", "1e400"))
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": g}).replace("Infinity", "1e400"))
        argv += ["--config", str(cfg)]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse g ") and err.endswith(": entries must be integers\n")


@pytest.mark.parametrize("tau, message", [
    ("3e306+1i", "module-check degrees.1.right_relation: residual 1.995e+00 fails its "
                 "rounding bound inf, which is not below 1"),
    ("1e307+1i", "module residuals cannot be evaluated at tau = (1e+307+1j): math domain error"),
    ("0.3+1e-300i", "module-check heisenberg.real_rep_property: residual 1.414e+00 fails "
                    "its rounding bound 1.674e+136, which is not below 1"),
], ids=["nan", "domain-error", "flat-probe"])
def test_module_check_at_huge_tau_exits_3(capsys, tau, message):
    # at 3e306+1i the phases' arguments put every rounding bound above 1 (and
    # the curvature's coefficients overflow to NaN); at 1e307+1i an atom's
    # translation raises a math domain error; at Im tau = 1e-300 the probe's
    # width does the same to real_rep_property's bound.  No numpy warning
    # reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "module-check", "--theta", "(-5+sqrt5)/10", f"--tau={tau}",
                              "--degrees", "1")
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("tau", ["0.3+25i", "0.3+30i", "0.3+100i", "0.3+200i"])
def test_module_check_probe_fits_any_width(capsys, tau):
    # the real Heisenberg probe's y are scaled to f_tau's width: drawn from
    # N(0, 1) alone, a translation scaled f_tau by exp(-2 pi Im alpha y^2),
    # which underflowed to 0 from Im tau = 25 and exited 3
    code, out, err = _run(capsys, "module-check", "--theta", "(-5+sqrt5)/10", f"--tau={tau}",
                          "--degrees", "1")
    assert (code, err) == (0, "")
    assert 0 < _report(out)[0]["heisenberg"]["real_rep_property"] < 1e-12


@pytest.mark.parametrize("degrees", ["1", "2"])
def test_module_check_refuses_a_vanished_probe(capsys, degrees):
    # at Im tau = 1e300 every translated atom underflows to 0: compared on
    # samples, both sides were 0 and every residual read 0.0
    code, out, err = _run(capsys, "module-check", "--theta", "(-5+sqrt5)/10",
                          "--tau=0.3+1e300i", "--degrees", degrees)
    assert (code, out) == (3, "")
    assert err == ("error: module residuals cannot be evaluated at tau = (0.3+1e+300j): "
                   "the probe has no atoms left to compare\n")


def test_algebra_nan_residual_exits_3(capsys, monkeypatch):
    # a NaN after the first sample used to vanish in max(res, nan).  Each
    # suite step now takes the traces of all rounds in one call, and a NaN in
    # any slice of them, the first or a later one, fails the gate
    trace = TorusElement.trace
    calls = []

    def nan_on_the_second_call(self):
        t = trace(self)
        calls.append(np.shape(t))
        if len(calls) == 2:
            t[nan_slice] = complex("nan")
        return t

    monkeypatch.setattr(TorusElement, "trace", nan_on_the_second_call)
    for nan_slice in (1, 0):
        calls.clear()
        code, out, err = _run(capsys, "algebra", "--theta", "sqrt2", "--count", "2",
                              "--support", "3")
        assert (code, out) == (3, "")
        assert err == (f"error: algebra tracial: residual nan fails its rounding bound "
                       f"{cli._algebra_bounds(3)['tracial']:.3e}\n")
        assert calls[1] == (2,)


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


@pytest.mark.parametrize("where", ["missing/x.json", "file/x.json", "."],
                         ids=["no-folder", "folder-is-a-file", "a-folder"])
def test_unwritable_output_exits_2_before_any_work(tmp_path, capsys, monkeypatch, where):
    # the report used to be printed, and the write then failed with a traceback
    (tmp_path / "file").write_text("")
    target = str(tmp_path / where)

    def no_work(o):
        raise AssertionError("ran a job whose report cannot be written")

    monkeypatch.setitem(cli._COMMANDS, "fix", cli._COMMANDS["fix"]._replace(run=no_work))
    code, out, err = _run(capsys, "fix", "--theta", "sqrt2", "--output", target)
    assert (code, out) == (2, "")
    assert err == f"error: cannot write the report to --output {target!r}\n"


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
    (["module-check", "--theta", "(-5+sqrt5)/10"], {"max_trace": 2}),
    (["ring", "--theta", "(-5+sqrt5)/10"], {"max_trace": 2}),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, argv, config):
    # a misspelt or removed option would otherwise be ignored and echoed;
    # max_trace is an option of fix only (module-check and ring took it from a
    # config alone, with no flag)
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
    cfg.write_text(json.dumps({"theta": "sqrt2", "count": 2, "support": 3, "seed": 4}))
    code, out, _ = _run(capsys, "algebra", "--config", str(cfg))
    assert code == 0
    assert _report(out)[1]["config"] == {"theta": "sqrt2", "count": 2, "support": 3,
                                         "seed": 4}


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
    # the box code against the dict-of-terms reference of every TorusElement
    # operation, the pair-loop product included.  Each residual is the
    # rounding error of an exact identity, so on both runs it lies within the
    # bound that the CLI derives (cli._algebra_bounds; E = 3(support + 2) is
    # test_torus_alg._product_bound's constant), and so does the difference
    # of the two runs
    from test_torus_alg import _REFERENCE, _slice, _stack

    def per_slice(ref):
        # a reference acts on one element, so a batch goes through it slice by slice
        def run(*args):
            sizes = {a.a.shape[0] for a in args if isinstance(a, TorusElement) and a.a.ndim == 3}
            if not sizes:
                return ref(*args)
            (size,) = sizes
            outs = [ref(*(_slice(a, k) if isinstance(a, TorusElement) else a for a in args))
                    for k in range(size)]
            return _stack(outs) if isinstance(outs[0], TorusElement) else np.array(outs)
        return run

    argvs = [["algebra", "--theta", "sqrt2", "--count", "5", "--support", "30", "--seed", "3"],
             ["algebra", "--theta", "(-5+sqrt5)/10", "--count", "3", "--support", "12",
              "--seed", "8"]]
    got = [_run(capsys, *argv)[:2] for argv in argvs]
    for name, ref in _REFERENCE.items():
        monkeypatch.setattr(TorusElement, name, per_slice(ref))
    want = [_run(capsys, *argv)[:2] for argv in argvs]
    assert [code for code, _ in got + want] == [0, 0, 0, 0]
    for (_, out), (_, ref_out) in zip(got, want):
        rep, ref = _report(out)[0], _report(ref_out)[0]
        bounds = cli._algebra_bounds(rep["support"])
        assert set(rep["residuals"]) == set(ref["residuals"]) == set(bounds)
        for key, bound in bounds.items():
            values = rep["residuals"][key], ref["residuals"][key]
            assert 0.0 <= min(values) and max(values) <= bound * (1 + 1e-9), (key, values)
        for r in (rep, ref):
            assert r.pop("max_residual") == max(r.pop("residuals").values())
        assert rep == ref


def test_algebra_draws_match_per_element_draws():
    # one draw per chunk of rounds gives, for seed 0, the elements that one
    # draw per element gave: x, y and z per round, each term's exponents and
    # coefficient in turn, a later term with the same exponents winning
    theta, support = QuadIrr.parse("sqrt2"), 20
    sequential = random.Random(0)

    def per_element():
        d = coord_ring.uniform(sequential, 4 * support).reshape(support, 4)
        keys = map(tuple, (np.floor(6.5 * (d[:, :2] + 1)).astype(int) - 6).tolist())
        return TorusElement(theta, {k: complex(*c) for k, c in zip(keys, d[:, 2:].tolist())})

    rng, repeated = random.Random(0), 0
    for rounds in (5, 2):  # two chunks continue one stream
        batches = cli._algebra_draws(theta, rng, rounds, support)
        for k in range(rounds):
            for batch in batches:
                assert batch.lo == (-6, -6) and batch.a.shape == (rounds, 13, 13)
                want = per_element()
                repeated += len(want.coeffs) < support
                got = TorusElement.from_box(theta, batch.lo, batch.a[k])
                assert dict(got.coeffs) == dict(want.coeffs)
    assert repeated > 0 and rng.getstate() == sequential.getstate()


@pytest.mark.parametrize("count, support, peak, want", [
    (100, 20, 8.0, [47, 47, 6]),
    (47, cli._MAX_ALGEBRA_DRAWS // 47, 2.0, [2] * 23 + [1]),
    (1, cli._MAX_ALGEBRA_DRAWS, 24.0, [1]),
])
def test_algebra_suite_runs_in_chunks_within_the_cap(capsys, monkeypatch, count, support, peak,
                                                     want):
    # the README suite's 100 rounds run in chunks of 47, whose largest boxes
    # (47 x 37 x 37 cells) stay within torus_alg._MAX_CELLS; the job peaked at
    # 5.5 MiB, and at 0.55 MiB when it multiplied one round at a time.  A
    # chunk also draws at most _MAX_CELLS doubles (512 KiB) unless one round
    # alone draws more: at count*support = _MAX_ALGEBRA_DRAWS, 47 rounds of
    # 2,127 terms peaked at 1.3 MiB (0.84 MiB one element at a time), and one
    # round of 100,000 terms at 20.6 MiB (23.4 MiB one element at a time)
    from test_torus_alg import _peak_mib

    draws, chunks, runs = cli._algebra_draws, [], []

    def recording(theta, rng, rounds, support):
        chunks.append(rounds)
        return draws(theta, rng, rounds, support)

    monkeypatch.setattr(cli, "_algebra_draws", recording)
    argv = ["algebra", "--theta", "sqrt2", "--count", str(count), "--support", str(support)]
    assert _peak_mib(lambda: runs.append(_run(capsys, *argv))) <= peak
    assert runs[0][0] == 0 and chunks == want
    assert cli._ALGEBRA_CHUNK * 37 ** 2 <= cli._MAX_CELLS


def test_algebra_job_leaves_no_phase_state(capsys):
    # theta's row of phases dies with the job: a second run from an empty
    # unit_phase cache looks up as many phases as the first
    from rmtorus.qfield import unit_phase

    argv = ["algebra", "--theta", "(1+sqrt13)/2", "--count", "4", "--support", "12"]
    misses, outs = [], []
    for _ in range(2):
        unit_phase.cache_clear()
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        misses.append(unit_phase.cache_info().misses)
        outs.append(out)
    assert misses[0] == misses[1] > 0 and outs[0] == outs[1]


def test_algebra_gate_sees_a_small_defect(capsys, monkeypatch):
    # a star off by a relative 1e-13, which a fixed 1e-12 gate let through,
    # is far above star_involution's bound of 6u; each star takes all 10 rounds
    star = TorusElement.star
    batches = []

    def off_star(self):
        batches.append(self.a.shape[:-2])
        return star(self).scaled(1 + 1e-13)

    monkeypatch.setattr(TorusElement, "star", off_star)
    code, out, err = _run(capsys, "algebra", "--theta", "sqrt2", "--count", "10", "--support", "20")
    assert (code, out) == (3, "")
    assert set(batches) == {(10,)}
    what, key, residual, bound = _gate_failure(err)
    assert (what, key, bound) == ("algebra", "star_involution", float(f"{6 * 2.0 ** -53:.3e}"))
    assert 1.9e-13 < residual < 2.1e-13


@pytest.mark.parametrize("sub", ["algebra", "module-check"])
def test_algebra_and_module_check_have_no_tol_option(tmp_path, capsys, sub):
    # each residual is gated on a bound derived from the inputs: no flag, no config key
    argv = [sub, "--theta", "sqrt2", "--count", "1"] if sub == "algebra" else \
        [sub, "--theta", "(-5+sqrt5)/10", "--degrees", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": 1e-3}))
    code, out, err = _run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {sub}: unknown config key(s) 'tol'\n"


def test_algebra_leibniz_is_relative_to_its_own_terms(capsys):
    # leibniz is divided by ||dx||_1 ||y||_1 + ||x||_1 ||dy||_1, the size of
    # the identity's two sides; divided by ||x||_1 ||y||_1 ||z||_1 instead,
    # one-term elements read 5.7e-14 here
    code, out, _ = _run(capsys, "algebra", "--theta", "sqrt2", "--count", "100", "--support", "1")
    assert code == 0
    assert _report(out)[0]["residuals"]["leibniz"] < 1e-15


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


def test_algebra_refuses_oversized_draws_up_front(capsys, monkeypatch):
    # count*support above the draw limit exits 3 before anything is drawn; at
    # 30 us per drawn term, --support 1000000000 would otherwise run for hours
    def no_draws(rng, n):
        raise AssertionError("drew terms for a refused job")

    monkeypatch.setattr(cli.coord_ring, "uniform", no_draws)
    for count, support in [(1, 10**9), (100, 1001), (cli._MAX_ALGEBRA_DRAWS + 1, 1)]:
        code, out, err = _run(capsys, "algebra", "--theta", "sqrt2",
                              "--count", str(count), "--support", str(support))
        assert (code, out) == (3, "")
        assert err == (f"error: algebra: count*support = {count * support} exceeds the "
                       f"limit of {cli._MAX_ALGEBRA_DRAWS} drawn terms\n")


# -- module-check -----------------------------------------------------------------------

def test_module_check_passes(capsys):
    code, out, _ = _run(capsys, "module-check", "--theta", "(-5+sqrt5)/10",
                        "--degrees", "1")
    assert code == 0
    rep, _ = _report(out)
    deg = rep["degrees"]["1"]
    for key in ("right_relation", "left_relation", "bimodule_commutation",
                "leibniz", "curvature"):
        assert deg[key] < 1e-12
    assert rep["max_residual"] < 1e-12


# one report shape for every c_1: README data (c_1 = 5), (3+sqrt3)/6 with its
# g (6), sqrt17 (8) and sqrt19 (39); the finite Heisenberg groups and f_tau's
# annihilation hold for every input, so only the real representation property
# is reported
_MODULE_KEYS = {"degree", "right_relation", "left_relation", "bimodule_commutation",
                "leibniz", "curvature"}


@pytest.mark.parametrize("argv, c1", [
    (["--theta", "(-5+sqrt5)/10"], 5),
    (["--theta", "(3+sqrt3)/6", "--g", "[[5,-1],[6,-1]]"], 6),
    (["--theta", "sqrt17"], 8),
    (["--theta", "sqrt19"], 39)], ids=["c5", "c6", "c8", "c39"])
def test_module_check_report_keys_do_not_depend_on_c1(capsys, argv, c1):
    code, out, err = _run(capsys, "module-check", *argv, "--degrees", "1")
    assert code == 0, err
    rep, _ = _report(out)
    assert rep["g"][1][0] == c1
    assert set(rep["degrees"]["1"]) == _MODULE_KEYS
    assert set(rep["heisenberg"]) == {"real_rep_property"}


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


def test_module_check_computes_each_degree_once(capsys, monkeypatch):
    # a repeated degree is checked once; the config echo keeps the raw text
    seen = []
    residuals = heis_module.module_residuals

    def counted(data, degree, tau):
        seen.append(degree)
        return residuals(data, degree, tau)

    monkeypatch.setattr(heis_module, "module_residuals", counted)
    code, out, _ = _run(capsys, "module-check", "--theta", "(-5+sqrt5)/10",
                        "--degrees", "2,1,2")
    assert code == 0
    assert seen == [2, 1]
    rep, payload = _report(out)
    assert sorted(rep["degrees"]) == ["1", "2"]
    assert payload["config"]["degrees"] == "2,1,2"


def _unfused_real_act(self, h, f):
    """RealHeisenberg.act as three vector passes: translate, modulate, scale."""
    y1, y2 = h.y
    scalar = h.lam * heis_rep._e(y1 * y2 / (2.0 * self.eps))
    return f.translate(y1).modulate(y2 / self.eps).scaled(scalar)


def test_module_check_report_matches_reference_operators(capsys, monkeypatch):
    # the cached generator steps, the shared first steps and the one-pass real
    # action against the hand-written operators of each generator and the
    # vector-by-vector real action: same stdout byte for byte.  The README
    # theta with g and then with g^2 at degree 1 run in one process, so a step
    # kept beyond its own RMData would show
    from test_heis_module import _reference_gen

    readme = ["module-check", "--theta", "(-5+sqrt5)/10", "--tau", "0.3+1.1i"]
    argvs = [readme + ["--degrees", "1,2,3"],
             ["module-check", "--theta", "(3+sqrt3)/6", "--g", "[[5,-1],[6,-1]]",
              "--degrees", "1,2,3"],
             readme + ["--g", "[[-1,-1],[5,4]]", "--degrees", "1"],
             readme + ["--g", "[[-4,-3],[15,11]]", "--degrees", "1"]]
    got = [_run(capsys, *argv)[:2] for argv in argvs]
    monkeypatch.setattr(heis_module, "_apply_gen", _reference_gen)
    monkeypatch.setattr(heis_rep.RealHeisenberg, "act", _unfused_real_act)
    assert got == [_run(capsys, *argv)[:2] for argv in argvs]
    assert [code for code, _ in got] == [0, 0, 0, 0]


@pytest.mark.parametrize("tau", ["0.3+1e-9i", "0.3+1e-15i", "1000+1.1i", "1e6+1.1i"])
def test_module_check_gates_on_bounds_that_follow_tau(capsys, tau):
    # every residual is rounding: real_rep_property grows like 1/sqrt(Im tau)
    # (1.8e-11 at 1e-9i, 1.8e-8 at 1e-15i) and the relations like |tau|
    # (2.5e-10 at 1e6), each within its derived bound; a fixed 1e-12 gate
    # failed all four
    code, out, err = _run(capsys, "module-check", "--theta", "(-5+sqrt5)/10", f"--tau={tau}",
                          "--degrees", "1,2,3")
    assert (code, err) == (0, "")
    assert _report(out)[0]["max_residual"] > 1e-12


class _FirstPhaseOff(heis_rep.FiniteHeisenberg):
    """Finite steps whose first phase is off by a relative 1e-13."""

    def step(self, h):
        targets, phases = super().step(h)
        return targets, [phases[0] * (1 + 1e-13)] + phases[1:]


@pytest.mark.parametrize("defect, key, expected", [
    ("step", "degrees.1.right_relation", lambda r: 0.9e-13 < r < 1.1e-13),
    ("nan", "degrees.1.curvature", math.isnan),
], ids=["step", "nan"])
def test_module_check_gate_sees_a_small_defect(capsys, monkeypatch, defect, key, expected):
    # a generator step off by a relative 1e-13, which a fixed 1e-12 gate let
    # through, and a NaN at an ordinary tau both exit 3, naming the key
    if defect == "step":
        monkeypatch.setattr(heis_module, "FiniteHeisenberg", _FirstPhaseOff)
    else:
        monkeypatch.setattr(heis_module, "curvature_scalar", lambda data, degree: complex("nan"))
    code, out, err = _run(capsys, "module-check", "--theta", "(-5+sqrt5)/10", "--degrees", "1")
    assert (code, out) == (3, "")
    what, got_key, residual, bound = _gate_failure(err)
    assert (what, got_key) == ("module-check", key)
    assert expected(residual)
    assert bound < 6e-14


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


def test_ring_refuses_entries_their_bound_leaves_meaningless(capsys):
    # at tau = 1e15+1i T(1, 1)'s certified entry bound is 1.5e34 x max|T|, and
    # the ranks read from it were reported with exit 0; as the algebra and
    # module-check gates do, a bound not below 1 (relative to max|T|) exits 3
    code, out, err = _run(capsys, "ring", "--theta", "(-5+sqrt5)/10", "--g", "[[-1,-1],[5,4]]",
                          "--tau=1e15+1i", "--max-degree", "2", "--assoc-triples", "0")
    assert (code, out) == (3, "")
    assert err.startswith("error: T(1, 1): the theta entries cannot be certified at tau = "
                          "(1000000000000000+1j) (entry bound 1.5")
    assert err.endswith(", max|T| 1.0)\n")


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
    # c_1 = 8: the same report keys as the README data's c_1 = 5
    ('rmtorus module-check --theta "sqrt17" --degrees 1',
     lambda rep: set(rep["degrees"]["1"]) == _MODULE_KEYS
     and set(rep["heisenberg"]) == {"real_rep_property"}),
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


def test_readme_commands_load_neither_numpy_random_nor_polynomial():
    # every README command in one fresh interpreter: the draws come from
    # random.Random, and numpy.random's import alone costs a job 6.5 MB of peak
    # RSS; each module is named with the first command after which it was loaded
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    lines = [line.strip() for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.strip().startswith("rmtorus ")]
    assert {line.split()[1] for line in lines} == set(cli._COMMANDS)
    script = textwrap.dedent("""
        import contextlib, io, json, shlex, sys
        from rmtorus import cli
        first = {}
        for line in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(shlex.split(line)[1:]) == 0, line
            for name in ("numpy.random", "numpy.polynomial"):
                if name in sys.modules:
                    first.setdefault(name, line)
        print(json.dumps(first))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(lines)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {}


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
