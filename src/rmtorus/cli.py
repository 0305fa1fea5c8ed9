"""Command line front end.

Subcommands: fix, algebra, module-check, theta, ring.  Reports are JSON on
standard output (keys sorted, floats in round-trip form, so identical
invocations produce byte-identical bytes); diagnostics go to standard error.
Exit codes: 0 success, 2 input validation failure, 3 numerical conditioning
or tolerance failure.

Inputs follow a small grammar: theta as "(p+q*sqrtD)/r" (integer literals,
e.g. "(1+sqrt5)/2", "sqrt2", "(-5+sqrt5)/10"), complex numbers as "a+bi"
(e.g. "0.3+1.1i"), g as a JSON 2x2 integer matrix.  A JSON config file may
supply any long option of the subcommand (keys use underscores; any other key
is an input error); explicit flags win over the config, which wins over
defaults.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import inspect
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import coord_ring, heis_module
from .heis_rep import FiniteHeisenberg, RealHeisenberg, holomorphic_residual, holomorphic_vector
from .qfield import QuadIrr, RMData, SL2Matrix, cf_expand, fixing_matrix, multiplier_ring
from .theta import theta_const, theta_fn
from .torus_alg import TorusElement, phase


class InputError(Exception):
    """Maps to exit code 2."""


class ToleranceError(Exception):
    """Maps to exit code 3."""


_COMPLEX_RE = re.compile(
    r"^\s*(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i\s*$"
)


def parse_complex(s: str) -> complex:
    """Strict "a+bi" grammar."""
    m = _COMPLEX_RE.match(s)
    if not m:
        raise InputError(f"cannot parse complex number {s!r}; expected \"a+bi\"")
    return complex(float(m.group("re")), float(m.group("im")))


def parse_theta(s: str) -> QuadIrr:
    try:
        return QuadIrr.parse(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse theta {s!r}: {exc}") from None


def parse_matrix(s: str) -> SL2Matrix:
    try:
        rows = json.loads(s)
        return SL2Matrix.from_list(rows)
    except (ValueError, TypeError, IndexError) as exc:
        raise InputError(f"cannot parse g {s!r}: {exc}") from None


def parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational {s!r}: {exc}") from None


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


# -- option resolution ---------------------------------------------------------

# module-check refuses a degree whose probe would have more finite entries
# than this (degree 9 of the README data has c = 12,920, degree 12 has 231,840)
_MAX_PROBE_MODULUS = 10 ** 5

# The keys a --config file may set: these and the subcommand's own flags.
# max_trace is config-only for module-check and ring; a None default is left
# out of the echoed config, and fix echoes fixing_matrix's own default.
_DEFAULTS = {
    "fix": {"max_trace": inspect.signature(fixing_matrix).parameters["max_trace"].default},
    "algebra": {"count": 100, "support": 20, "seed": 0, "tol": 1e-12},
    "module-check": {"tau": "0.3+1.1i", "degrees": "1,2", "tol": 1e-12, "max_trace": None},
    "theta": {"tol": 1e-14},
    "ring": {"tau": "0.3+1.1i", "max_degree": 3, "assoc_triples": 20, "seed": 0,
             "theta_diagnostic": False, "max_trace": None},
}


def _resolve(sub: str, args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags."""
    opts = dict(_DEFAULTS.get(sub, {}))
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "output")}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read config {args.config!r}: {exc}") from None
        if not isinstance(loaded, dict):
            raise InputError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(opts) - set(flags))
        if unknown:
            raise InputError(f"{sub}: unknown config key(s) {', '.join(map(repr, unknown))}")
        opts.update(loaded)
    for key, val in flags.items():
        if val is not None:
            opts[key.replace("-", "_")] = val
    return opts


def _require(opts: dict, key: str, sub: str):
    if opts.get(key) in (None, ""):
        raise InputError(f"{sub}: missing required option --{key.replace('_', '-')}")
    return opts[key]


def _int_of(val, name: str, low: int) -> int:
    """An integer option value that is at least ``low``; anything else is bad input."""
    try:
        n = int(val)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or (n != val and not isinstance(val, str)) or n < low:
        raise InputError(f"--{name.replace('_', '-')} must be an integer >= {low}, got {val!r}")
    return n


def _tol_of(val) -> float:
    """A tolerance option value: a finite number > 0; anything else is bad input."""
    try:
        tol = float(val)
    except (TypeError, ValueError, OverflowError):
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"--tol must be a finite number > 0, got {val!r}")
    return tol


def _tau_of(opts: dict, sub: str) -> complex:
    tau = parse_complex(str(_require(opts, "tau", sub)))
    if not tau.imag > 0:
        raise InputError("tau must have positive imaginary part")
    return tau


def _data_of(opts: dict, sub: str) -> RMData:
    theta = parse_theta(str(_require(opts, "theta", sub)))
    if theta.is_rational:
        raise InputError("theta must be a quadratic irrationality, not rational")
    gspec, max_trace = opts.get("g"), opts.get("max_trace")
    try:
        if gspec is not None:
            g = parse_matrix(gspec if isinstance(gspec, str) else json.dumps(gspec))
        elif max_trace is None:
            g = fixing_matrix(theta)
        else:
            g = fixing_matrix(theta, max_trace=_int_of(max_trace, "max_trace", 1))
        return RMData(theta, g)
    except ValueError as exc:
        raise InputError(str(exc)) from None


# -- subcommands ----------------------------------------------------------------


def _cmd_fix(opts: dict) -> dict:
    theta = parse_theta(str(_require(opts, "theta", "fix")))
    if theta.is_rational:
        raise InputError("theta must be a quadratic irrationality, not rational")
    try:
        g = fixing_matrix(theta, max_trace=_int_of(opts["max_trace"], "max_trace", 1))
    except ValueError as exc:
        raise ToleranceError(f"no fixing matrix found: {exc}") from None
    data = RMData(theta, g)
    A, B, C = theta.minimal_polynomial()
    quotients, period = cf_expand(theta)
    conductor, _ = multiplier_ring(theta)
    a, d, c = g.a, g.d, g.c
    s = a + d
    return {
        "theta": {"canonical": str(theta), "fields": theta.to_json_dict(),
                  "value": float(theta)},
        "g": g.to_list(),
        "trace": s,
        "epsilon": {"fields": data.epsilon.to_json_dict(), "value": float(data.epsilon)},
        "minimal_polynomial": [A, B, C],
        "discriminant": theta.discriminant(),
        "multiplier_conductor": conductor,
        "continued_fraction": {"quotients": quotients, "period": period},
        "conditions": {
            "generated": c >= s,
            "quadratic": c >= s + 1,
            "koszul": c >= s + 2,
        },
    }


def _cmd_algebra(opts: dict) -> dict:
    theta = parse_theta(str(_require(opts, "theta", "algebra")))
    count = _int_of(opts["count"], "count", 1)
    support = _int_of(opts["support"], "support", 1)
    tol = _tol_of(opts["tol"])
    rng = np.random.default_rng(_int_of(opts["seed"], "seed", 0))

    def rand_elem():
        coeffs = {}
        for _ in range(support):
            n, m = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
            coeffs[(n, m)] = complex(rng.normal(), rng.normal())
        return TorusElement(theta, coeffs)

    u = TorusElement.u(theta)
    v = TorusElement.v(theta)
    rel = (u * v - v.scaled(phase(theta, 1)) * u).norm1()
    res = {"uv_relation": rel, "associativity": 0.0, "star_involution": 0.0,
           "star_antimult": 0.0, "tracial": 0.0, "trace_positivity": 0.0, "leibniz": 0.0}
    tau = 0.3 + 1.1j
    for _ in range(count):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        xy = x * y
        scale = max(x.norm1() * y.norm1() * z.norm1(), 1.0)
        res["associativity"] = max(res["associativity"],
                                   (xy * z - x * (y * z)).norm1() / scale)
        res["star_involution"] = max(res["star_involution"],
                                     (x.star().star() - x).norm1() / max(x.norm1(), 1.0))
        res["star_antimult"] = max(res["star_antimult"],
                                   (xy.star() - y.star() * x.star()).norm1()
                                   / max(x.norm1() * y.norm1(), 1.0))
        res["tracial"] = max(res["tracial"],
                             abs(xy.trace() - (y * x).trace())
                             / max(x.norm1() * y.norm1(), 1.0))
        t = (x * x.star()).trace()
        res["trace_positivity"] = max(res["trace_positivity"],
                                      max(-t.real, abs(t.imag)) / max(x.norm1() ** 2, 1.0))
        for which in ("d1", "d2", "dtau"):
            lhs = xy.derive(which, tau)
            rhs = x.derive(which, tau) * y + x * y.derive(which, tau)
            res["leibniz"] = max(res["leibniz"], (lhs - rhs).norm1() / scale)
    worst = max(res.values())
    if worst > tol:
        raise ToleranceError(f"algebra residual {worst:.3e} exceeds tolerance {tol:.1e}")
    return {"theta": {"canonical": str(theta), "value": float(theta)},
            "count": count, "support": support, "residuals": res, "max_residual": worst}


def _cmd_module_check(opts: dict) -> dict:
    data = _data_of(opts, "module-check")
    tau = _tau_of(opts, "module-check")
    tol = _tol_of(opts["tol"])
    degrees = opts.get("degrees", "1,2")
    if isinstance(degrees, str):
        degrees = [t for t in degrees.split(",") if t.strip()]
    if not isinstance(degrees, list):
        degrees = [degrees]
    degrees = [_int_of(t, "degrees", 1) for t in degrees]
    if not degrees:
        raise InputError("--degrees must name at least one module degree")
    for n in degrees:
        # c_k grows with k (g is hyperbolic with c > 0), so the first c_k past
        # the limit bounds c_n without computing g^n for a huge n
        for k in range(1, n + 1):
            c = data.power(k).c
            if c > _MAX_PROBE_MODULUS:
                raise ToleranceError(f"module degree {n}: c_{n} >= {c} exceeds the probe "
                                     f"limit of {_MAX_PROBE_MODULUS} finite entries")
    report = {"theta": {"canonical": str(data.theta), "value": float(data.theta)},
              "g": data.g.to_list(), "tau": _complex_pair(tau), "degrees": {}}
    worst = 0.0
    for n in degrees:
        res = heis_module.module_residuals(data, n, tau)
        # holomorphic vector is annihilated atom-exactly
        eps = data.power(n).eps
        ann = holomorphic_residual(tau, holomorphic_vector(tau, eps), eps)
        res["holomorphic_annihilation"] = 0.0 if ann.is_zero() else 1.0
        report["degrees"][str(n)] = res
        worst = max(worst, max(v for k, v in res.items() if k != "degree"))

    # representation property of the underlying Heisenberg groups
    c1 = data.power(1).c
    G = RealHeisenberg(float(data.epsilon))
    f = holomorphic_vector(tau, float(data.epsilon))
    xs = np.linspace(-4.0, 4.0, 33)
    rng = np.random.default_rng(0)
    rep_real = 0.0
    for _ in range(10):
        h1 = G.element(cmath.exp(1j * rng.normal()), rng.normal(), rng.normal())
        h2 = G.element(cmath.exp(1j * rng.normal()), rng.normal(), rng.normal())
        lhs = G.act(h1, G.act(h2, f))
        rhs = G.act(G.mul(h1, h2), f)
        rep_real = max(rep_real, float(np.max(np.abs(lhs.eval(xs) - rhs.eval(xs)))))
    report["heisenberg"] = {"real_rep_property": rep_real}
    worst = max(worst, rep_real)
    if c1 <= 6:
        exact = FiniteHeisenberg(c1).representation_exact(Fraction(1, 3), Fraction(2, 5))
        report["heisenberg"]["finite_rep_exact"] = exact
        if not exact:
            worst = max(worst, 1.0)
    if c1 <= 12:
        report["heisenberg"]["pairing_nondegenerate"] = FiniteHeisenberg(c1).pairing_nondegenerate()
    report["max_residual"] = worst
    if worst > tol:
        raise ToleranceError(f"module residual {worst:.3e} exceeds tolerance {tol:.1e}")
    return report


def _cmd_theta(opts: dict) -> dict:
    r = parse_fraction(str(_require(opts, "r", "theta")))
    m = parse_complex(str(_require(opts, "m", "theta")))
    if not m.imag > 0:
        raise InputError("m must have positive imaginary part")
    tol = _tol_of(opts["tol"])
    z = opts.get("z")
    try:
        if z is None:
            result = theta_const(r, m, tol=tol)
        else:
            result = theta_fn(r, parse_complex(str(z)), m, tol=tol)
    except RuntimeError as exc:
        raise ToleranceError(str(exc)) from None
    out = {"r": [r.numerator, r.denominator], "m": _complex_pair(m),
           "value": _complex_pair(result.value), "tail_bound": result.bound,
           "terms": result.terms, "tol": tol}
    if z is not None:
        out["z"] = _complex_pair(parse_complex(str(z)))
    return out


def _cmd_ring(opts: dict) -> dict:
    data = _data_of(opts, "ring")
    tau = _tau_of(opts, "ring")
    max_degree = _int_of(opts["max_degree"], "max_degree", 1)
    try:
        report = coord_ring.ring_report(
            data, tau, max_degree=max_degree,
            assoc_triples=_int_of(opts["assoc_triples"], "assoc_triples", 0),
            seed=_int_of(opts["seed"], "seed", 0),
            theta_diagnostic=bool(opts.get("theta_diagnostic")),
        )
    except heis_module.IllConditionedSolve as exc:
        raise ToleranceError(f"{exc}; report: {json.dumps(exc.report, sort_keys=True)}") from None
    except coord_ring.RingRefused as exc:
        raise ToleranceError(str(exc)) from None
    out = {"theta": {"canonical": str(data.theta), "value": float(data.theta)},
           "g": data.g.to_list(), "tau": _complex_pair(tau)}
    out.update(report)
    return out


_RUNNERS = {
    "fix": _cmd_fix,
    "algebra": _cmd_algebra,
    "module-check": _cmd_module_check,
    "theta": _cmd_theta,
    "ring": _cmd_ring,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rmtorus",
                                 description="real-multiplication torus toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON file of option defaults")
        p.add_argument("--output", default=None, help="also write the report to this path")

    p = sub.add_parser("fix", help="find the primitive fixing matrix of theta")
    p.add_argument("--theta", default=None)
    p.add_argument("--max-trace", dest="max_trace", type=int, default=None)
    common(p)

    p = sub.add_parser("algebra", help="torus algebra property suite on random elements")
    p.add_argument("--theta", default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--support", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    common(p)

    p = sub.add_parser("module-check", help="bimodule, connection and representation checks")
    p.add_argument("--theta", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--tau", default=None)
    p.add_argument("--degrees", default=None, help="comma-separated module degrees")
    p.add_argument("--tol", type=float, default=None)
    common(p)

    p = sub.add_parser("theta", help="certified theta constants")
    p.add_argument("--r", default=None, help="rational characteristic, e.g. 1/3")
    p.add_argument("--m", default=None, help="modular parameter, \"a+bi\" with b>0")
    p.add_argument("--z", default=None, help="optional argument for the two-variable series")
    p.add_argument("--tol", type=float, default=None)
    common(p)

    p = sub.add_parser("ring", help="graded coordinate ring report")
    p.add_argument("--theta", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--tau", default=None)
    p.add_argument("--max-degree", dest="max_degree", type=int, default=None)
    p.add_argument("--assoc-triples", dest="assoc_triples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--theta-diagnostic", dest="theta_diagnostic",
                   action="store_const", const=True, default=None)
    common(p)
    return ap


# built on the first call of main, not at import
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        opts = _resolve(args.command, args)
        report = _RUNNERS[args.command](opts)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    resolved = {k: v for k, v in opts.items() if v is not None}
    payload = {"command": args.command, "config": resolved, "report": report}
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return 0


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


if __name__ == "__main__":
    sys.exit(main())
