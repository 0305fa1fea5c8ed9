"""Command line front end.

Subcommands: fix, algebra, module-check, theta, ring.  Reports are JSON on
standard output (keys sorted, floats in round-trip form, so identical
invocations produce byte-identical bytes); diagnostics go to standard error.
Exit codes: 0 success, 2 input validation failure, 3 a refused job or a numerical
failure, such as a residual above the rounding bound derived from the inputs.

One table, ``_COMMANDS``, declares each subcommand's runner, help line and
options; an option's flag, config key, default and check come from it alone.
Every option is checked before any work starts.  Grammar: theta as
"(p+q*sqrtD)/r" with integer literals and D at most 10^12 ("(1+sqrt5)/2",
"sqrt2"), complex numbers as "a+bi" with finite parts ("0.3+1.1i"), g as a
JSON 2x2 integer matrix.  A JSON config file may set any option of the
subcommand (keys use underscores; any other key is an input error); explicit
flags win over the config, which wins over the defaults.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import random
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import coord_ring, heis_module
from .heis_rep import RealHeisenberg, holomorphic_vector, l2_distance
from .qfield import (MAX_TRACE, QuadIrr, RMData, SL2Matrix, cf_expand, fixing_matrix,
                     multiplier_ring)
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
    z = complex(float(m.group("re")), float(m.group("im")))
    if not cmath.isfinite(z):
        raise InputError(f"complex number {s!r} is beyond the double range")
    return z


def _parsing(what: str, parse, errors=(ValueError, ZeroDivisionError)):
    """A parser of a value's text that maps its errors to bad input; also an option check."""
    def check(val, name=None):
        s = str(val)
        try:
            return parse(s)
        except errors as exc:
            raise InputError(f"cannot parse {what} {s!r}: {exc}") from None
    return check


parse_theta = _parsing("theta", QuadIrr.parse)
parse_matrix = _parsing("g", lambda s: SL2Matrix.from_list(json.loads(s)),
                        (ValueError, TypeError, IndexError))
parse_fraction = _parsing("rational", Fraction)


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


# -- options ----------------------------------------------------------------------

def _int(val, name: str, low: int = 1) -> int:
    """An integer option value that is at least ``low``; anything else (a bool too) is bad input."""
    try:
        n = int(val)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or isinstance(val, bool) or (n != val and not isinstance(val, str)) or n < low:
        raise InputError(f"--{name.replace('_', '-')} must be an integer >= {low}, got {val!r}")
    return n


_nonneg = functools.partial(_int, low=0)


def _tol(val, name: str) -> float:
    """A tolerance option value: a finite number > 0; anything else (a bool too) is bad input."""
    try:
        tol = math.nan if isinstance(val, bool) else float(val)
    except (TypeError, ValueError, OverflowError):
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise InputError(f"--{name} must be a finite number > 0, got {val!r}")
    return tol


def _upper(val, name: str) -> complex:
    """A complex number in the upper half plane."""
    z = parse_complex(str(val))
    if not z.imag > 0:
        raise InputError(f"{name} must have positive imaginary part")
    return z


def _degrees(val, name: str) -> list[int]:
    """Module degrees >= 1: "1,2", a JSON list or one number."""
    if isinstance(val, str):
        val = [t for t in val.split(",") if t.strip()]
    degrees = [_int(t, name) for t in (val if isinstance(val, list) else [val])]
    if not degrees:
        raise InputError(f"--{name} must name at least one module degree")
    return degrees


def _maybe(check):
    """check, except that a value left out stays None."""
    return lambda val, name: None if val is None else check(val, name)


class Opt(NamedTuple):
    """One option of a subcommand: its check, default and flag."""
    check: Callable               # (value, config key) -> what the runner reads
    default: object = None
    type: Callable = str          # of the flag
    help: str | None = None
    required: bool = False        # None or "" is then a missing option


class Command(NamedTuple):
    run: Callable                 # checked options -> report
    help: str
    options: dict


def _resolve(sub: str, args: argparse.Namespace) -> tuple[dict, dict]:
    """defaults <- config file <- explicit flags; the merged options and their checked values."""
    options = _COMMANDS[sub].options
    opts = {name: opt.default for name, opt in options.items()}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read config {args.config!r}: {exc}") from None
        if not isinstance(loaded, dict):
            raise InputError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(options))
        if unknown:
            raise InputError(f"{sub}: unknown config key(s) {', '.join(map(repr, unknown))}")
        opts.update(loaded)
    opts.update((k, v) for k, v in vars(args).items() if k in options and v is not None)
    for name, opt in options.items():
        if opt.required and opts[name] in (None, ""):
            raise InputError(f"{sub}: missing required option --{name}")
    return opts, {name: opt.check(opts[name], name) for name, opt in options.items()}


def _check_output(path: str) -> None:
    """--output names a writable file, or a new file in an existing writable folder."""
    import os  # already loaded by the interpreter at startup

    folder = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else folder
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise InputError(f"cannot write the report to --output {path!r}")


def _data_of(o: dict) -> RMData:
    """theta with --g, or with the minimal-trace g; a search past max_trace exits 3."""
    theta, g = o["theta"], o.get("g")
    if theta.is_rational:
        raise InputError("theta must be a quadratic irrationality, not rational")
    if g is None:
        try:
            g = fixing_matrix(theta, o.get("max_trace") or MAX_TRACE)
        except ValueError as exc:
            raise ToleranceError(f"no fixing matrix found: {exc}") from None
    try:
        return RMData(theta, g)
    except ValueError as exc:
        raise InputError(str(exc)) from None


# -- subcommands ----------------------------------------------------------------

# module-check refuses a degree whose probe would have more finite entries
# than this (degree 9 of the README data has c = 12,920, degree 12 has 231,840)
_MAX_PROBE_MODULUS = 10 ** 5

# algebra refuses a count*support above this: each of the count rounds draws
# three elements of support terms (the README command has count*support = 2,000)
_MAX_ALGEBRA_DRAWS = 10 ** 5


def _cmd_fix(o: dict) -> dict:
    data = _data_of(o)
    theta, g = data.theta, data.g
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


def _nanmax(*values) -> float:
    """max(values), NaN if any is NaN: max() keeps a NaN only in first place."""
    return max(values, key=lambda v: (v != v, v))


def _gate(what: str, checks) -> None:
    """Exit 3 unless every (key, residual, bound) has residual <= bound < 1; NaN never passes."""
    for key, r, b in checks:
        if not r <= b < 1:
            raise ToleranceError(f"{what} {key}: residual {r:.3e} fails its rounding bound "
                                 f"{b:.3e}" + ("" if b < 1 else ", which is not below 1"))


def _algebra_bounds(support: int) -> dict:
    """Each algebra residual's rounding bound, to first order in u = 2^-53 with room for the
    second: a product of factors of at most k <= support terms is within E u |x| |y| of exact
    (1-norms), E = 3(k + 2); a star within 3u |x|; a derivation's factor 2 pi (tau n + m) within
    6u, and so a derivation of a product's error within E u (|dx| |y| + |x| |dy|)."""
    E = 3 * (support + 2)
    units = dict(uv_relation=8, associativity=4 * E, star_involution=6, star_antimult=2 * E + 9,
                 tracial=2 * E, trace_positivity=E + 3, leibniz=2 * E + 13)
    return {key: c * 2.0 ** -53 for key, c in units.items()}


def _cmd_algebra(o: dict) -> dict:
    theta, count, support = o["theta"], o["count"], o["support"]
    if count * support > _MAX_ALGEBRA_DRAWS:
        raise ToleranceError(f"algebra: count*support = {count * support} exceeds the "
                             f"limit of {_MAX_ALGEBRA_DRAWS} drawn terms")
    rng = random.Random(o["seed"])

    def rand_elem():
        # per term: exponents uniform on [-6, 6] (6.5 (d + 1) < 13 for d < 1), then
        # a coefficient uniform on [-1, 1)^2; a later draw of the same key wins
        d = coord_ring.uniform(rng, 4 * support).reshape(support, 4)
        keys = map(tuple, (np.floor(6.5 * (d[:, :2] + 1)).astype(int) - 6).tolist())
        return TorusElement(theta, {k: complex(*c) for k, c in zip(keys, d[:, 2:].tolist())})

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
        res["associativity"] = _nanmax(res["associativity"],
                                       (xy * z - x * (y * z)).norm1() / scale)
        res["star_involution"] = _nanmax(res["star_involution"],
                                         (x.star().star() - x).norm1() / max(x.norm1(), 1.0))
        res["star_antimult"] = _nanmax(res["star_antimult"],
                                       (xy.star() - y.star() * x.star()).norm1()
                                       / max(x.norm1() * y.norm1(), 1.0))
        res["tracial"] = _nanmax(res["tracial"],
                                 abs(xy.trace() - (y * x).trace())
                                 / max(x.norm1() * y.norm1(), 1.0))
        t = (x * x.star()).trace()
        res["trace_positivity"] = _nanmax(res["trace_positivity"],
                                          max(-t.real, abs(t.imag)) / max(x.norm1() ** 2, 1.0))
        for which in ("d1", "d2", "dtau"):
            lhs = xy.derive(which, tau)
            dx, dy = x.derive(which, tau), y.derive(which, tau)
            rhs = dx * y + x * dy
            res["leibniz"] = _nanmax(res["leibniz"], (lhs - rhs).norm1()
                                     / max(dx.norm1() * y.norm1() + x.norm1() * dy.norm1(), 1.0))
    _gate("algebra", [(key, res[key], b) for key, b in _algebra_bounds(support).items()])
    return {"theta": {"canonical": str(theta), "value": float(theta)}, "count": count,
            "support": support, "residuals": res, "max_residual": _nanmax(*res.values())}


def _cmd_module_check(o: dict) -> dict:
    data = _data_of(o)
    tau, degrees = o["tau"], o["degrees"]
    for n in degrees:
        # c_k grows with k (g is hyperbolic with c > 0), so the first c_k past
        # the limit bounds c_n without computing g^n for a huge n
        for k in range(1, n + 1):
            c = data.power(k).c
            if c > _MAX_PROBE_MODULUS:
                raise ToleranceError(f"module degree {n}: c_{n} >= {c} exceeds the probe "
                                     f"limit of {_MAX_PROBE_MODULUS} finite entries")
    try:
        report, checks = _module_report(data, tau, degrees)
    except (ValueError, OverflowError) as exc:
        raise ToleranceError(f"module residuals cannot be evaluated at tau = {tau}: {exc}") from None
    _gate("module-check", checks)
    return report


def _module_report(data: RMData, tau: complex, degrees: list[int]) -> tuple[dict, list]:
    """Relation residuals per degree and the real Heisenberg representation property at
    epsilon and tau (max_residual NaN if one is), and each (key, residual, bound).  For
    real_rep_property, to first order in u, with M = (4|alpha| + 2/eps) Y and Y the largest
    |y|: seven phases of argument below A = M Y turns, each within (3 + 16 pi A)u, and eleven
    3u products give 64 (1 + 2 pi A)u; the betas, sums of terms below M, differ by 12 M u,
    which l2_distance scales by 2 pi (|mu| + sqrt(var)) <= 2 pi (2Y + (8 pi Im alpha)^-1/2)."""
    report = {"theta": {"canonical": str(data.theta), "value": float(data.theta)},
              "g": data.g.to_list(), "tau": _complex_pair(tau), "degrees": {}}
    checks = []
    for n in dict.fromkeys(degrees):  # each distinct degree once, in first-seen order
        res, bounds = heis_module.module_residuals(data, n, tau)
        report["degrees"][str(n)] = res
        checks += [(f"degrees.{n}.{key}", res[key], b) for key, b in bounds.items()]

    # representation property of the real Heisenberg group at epsilon on ten
    # pairs of elements, each drawn as its phase's argument, y1 and y2 in turn,
    # uniform on [-2, 2) from seed 0; both sides are one atom, compared by their
    # relative L^2 distance.  Translating f by t scales it by exp(-2 pi Im alpha
    # t^2), t = y21 or y11 + y21; the y are scaled to keep that above e^-700, a
    # margin over the smallest normal double e^-708.4
    G = RealHeisenberg(float(data.epsilon))
    f = holomorphic_vector(tau, G.eps)
    draws = 2 * coord_ring.uniform(random.Random(0), 60).reshape(10, 6)
    T = float(np.abs(np.concatenate((draws[:, 4], draws[:, 1] + draws[:, 4]))).max())
    draws[:, [1, 2, 4, 5]] *= min(1.0, math.sqrt(700 / (2 * math.pi * f.alpha.imag)) / T)
    pairs = [(G.element(cmath.exp(1j * a1), y11, y12), G.element(cmath.exp(1j * a2), y21, y22))
             for a1, y11, y12, a2, y21, y22 in draws.tolist()]
    rep_real = _nanmax(*(l2_distance(G.act(h1, G.act(h2, f)), G.act(G.mul(h1, h2), f))
                         for h1, h2 in pairs))
    report["heisenberg"] = {"real_rep_property": rep_real}
    Y = float(np.abs(draws[:, [1, 2, 4, 5]]).max())
    M, width = (4 * abs(f.alpha) + 2 / G.eps) * Y, (8 * math.pi * f.alpha.imag) ** -0.5
    bound = (64 * (1 + 2 * math.pi * M * Y) + 24 * math.pi * M * (2 * Y + width)) * 2.0 ** -53
    checks.append(("heisenberg.real_rep_property", rep_real, bound))
    report["max_residual"] = _nanmax(*(r for _, r, _ in checks))
    return report, checks


def _cmd_theta(o: dict) -> dict:
    r, m, z, tol = o["r"], o["m"], o["z"], o["tol"]
    try:
        result = theta_const(r, m, tol=tol) if z is None else theta_fn(r, z, m, tol=tol)
    except RuntimeError as exc:
        raise ToleranceError(str(exc)) from None
    out = {"r": [r.numerator, r.denominator], "m": _complex_pair(m),
           "value": _complex_pair(result.value), "tail_bound": result.bound,
           "terms": result.terms, "tol": tol}
    if z is not None:
        out["z"] = _complex_pair(z)
    return out


def _cmd_ring(o: dict) -> dict:
    data = _data_of(o)
    try:
        report = coord_ring.ring_report(data, o["tau"], max_degree=o["max_degree"],
                                        assoc_triples=o["assoc_triples"], seed=o["seed"])
    except heis_module.IllConditionedSolve as exc:
        raise ToleranceError(f"{exc}; report: {json.dumps(exc.report, sort_keys=True)}") from None
    except coord_ring.RingRefused as exc:
        raise ToleranceError(str(exc)) from None
    out = {"theta": {"canonical": str(data.theta), "value": float(data.theta)},
           "g": data.g.to_list(), "tau": _complex_pair(o["tau"])}
    out.update(report)
    return out


# -- the option table -----------------------------------------------------------
# One entry per subcommand: its runner, help line and options.  An option's
# key is its config key and, with "-" for "_", its flag; the merged value is
# echoed, the checked one is what the runner reads.

_THETA = Opt(parse_theta, required=True)
_G = Opt(_maybe(lambda val, name: parse_matrix(val if isinstance(val, str) else json.dumps(val))))
_TAU = Opt(_upper, "0.3+1.1i", required=True)
_SEED = Opt(_nonneg, 0, int)

_COMMANDS = {
    "fix": Command(_cmd_fix, "find the primitive fixing matrix of theta", {
        "theta": _THETA, "max_trace": Opt(_maybe(_int), MAX_TRACE, int)}),
    "algebra": Command(_cmd_algebra, "torus algebra property suite on random elements", {
        "theta": _THETA, "count": Opt(_int, 100, int), "support": Opt(_int, 20, int),
        "seed": _SEED}),
    "module-check": Command(_cmd_module_check, "bimodule, connection and representation checks", {
        "theta": _THETA, "g": _G, "tau": _TAU,
        "degrees": Opt(_degrees, "1,2", help="comma-separated module degrees")}),
    "theta": Command(_cmd_theta, "certified theta constants", {
        "r": Opt(parse_fraction, required=True, help="rational characteristic, e.g. 1/3"),
        "m": Opt(_upper, required=True, help="modular parameter, \"a+bi\" with b>0"),
        "z": Opt(_maybe(lambda val, name: parse_complex(str(val))),
                 help="optional argument for the two-variable series"),
        "tol": Opt(_tol, 1e-14, float)}),
    "ring": Command(_cmd_ring, "graded coordinate ring report", {
        "theta": _THETA, "g": _G, "tau": _TAU, "max_degree": Opt(_int, 3, int),
        "assoc_triples": Opt(_nonneg, 20, int), "seed": _SEED}),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rmtorus", description="real-multiplication torus toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for key, opt in command.options.items():
            p.add_argument("--" + key.replace("_", "-"), type=opt.type, help=opt.help)
        p.add_argument("--config", help="JSON file of option defaults")
        p.add_argument("--output", help="also write the report to this path")
    return ap


# built on the first call of main, not at import
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        opts, checked = _resolve(args.command, args)
        report = _COMMANDS[args.command].run(checked)
    except (InputError, ToleranceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3
    resolved = {k: v for k, v in opts.items() if v is not None}
    payload = {"command": args.command, "config": resolved, "report": report}
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
