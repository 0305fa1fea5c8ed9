"""Independent references for every job kind, and the verdict on each job.

Nothing here calls rmtorus.  Exact data is recomputed with integers
(continued-fraction periods, matrix powers), theta values with mpmath at
50 digits.  A verdict is one of:

- ``ok``: the job exited 0 and its output passed every check;
- ``fail``: the job did not deliver a verified result: a non-zero exit where
  0 is correct, ``SystemExit``, a traceback, or a strict check broken by no
  more than floating-point rounding (a theta "certified" bound that leaves
  rounding out);
- ``wrong``: the job delivered a result that is false: exit 0 with an output
  that breaks an exact check, or a value outside its bound by more than
  rounding can explain, or a refusal that claims no answer exists when one
  does.

Every ``wrong`` is also a failure.  The benchmark reports ``correct: false``
when any job is ``wrong``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

RING_RESIDUAL_CEILING = 1e-8   # acceptance criterion 9: associativity < 1e-8
_U = 2.0 ** -53


@dataclass(frozen=True)
class Surd:
    """(P + S*sqrt(D)) / Q with S = +-1, Q > 0 and Q | D - P^2."""

    P: int
    S: int
    Q: int
    D: int

    def text(self) -> str:
        return f"({self.P}{'+' if self.S > 0 else '-'}sqrt{self.D})/{self.Q}"

    def sign_of(self, x: int, y: int) -> int:
        """Sign of x + y*sqrt(D)."""
        if x >= 0 and y >= 0:
            return 1 if (x or y) else 0
        if x <= 0 and y <= 0:
            return -1
        d = x * x - y * y * self.D
        return (1 if x > 0 else -1) if d > 0 else (1 if y > 0 else -1)


def mat_mul(a, b):
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def mat_pow(g, n: int):
    out = ((1, 0), (0, 1))
    for _ in range(n):
        out = mat_mul(out, g)
    return out


def fundamental_trace(s: Surd) -> int:
    """Least trace > 2 of a matrix in SL2(Z) fixing s, from its continued-fraction period.

    With x = (P + sqrt D)/Q, Q | D - P^2, the complete quotients stay in
    that form: a = floor(x), P' = a*Q - P, Q' = (D - P'^2)/Q.  The product of
    [[a_i, 1], [1, 0]] over the period generates the stabilizer in GL2(Z);
    its determinant is (-1)^period, so an odd period is squared, which maps
    the trace t to t^2 + 2.
    """
    P, Q = (s.P, s.Q) if s.S > 0 else (-s.P, -s.Q)
    root = math.isqrt(s.D)
    seen: dict[tuple[int, int], int] = {}
    quotients: list[int] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(quotients)
        a = (P + root) // Q if Q > 0 else (P + root + 1) // Q
        quotients.append(a)
        P = a * Q - P
        Q = (s.D - P * P) // Q
    period = quotients[seen[(P, Q)]:]
    m = ((1, 0), (0, 1))
    for a in period:
        m = mat_mul(m, ((a, 1), (1, 0)))
    t = m[0][0] + m[1][1]
    return t if len(period) % 2 == 0 else t * t + 2


def fixes(g, s: Surd) -> bool:
    """c*x^2 + (d - a)*x - b = 0 exactly, for x = (P + S sqrt D)/Q."""
    (a, b), (c, d) = g
    P, S, Q, D = s.P, s.S, s.Q, s.D
    rational = c * (P * P + D) + (d - a) * P * Q - b * Q * Q
    irrational = S * (2 * c * P + (d - a) * Q)
    return rational == 0 and irrational == 0


# -- per-kind checks: each returns (severity, reason) or None ------------------


def _check_fix(spec: dict, report: dict):
    s: Surd = spec["theta"]
    g = report["g"]
    (a, b), (c, d) = g
    if a * d - b * c != 1 or not fixes(g, s):
        return "wrong", "fix: g not in SL2(Z) or does not fix theta"
    if c <= 0 or s.sign_of(c * s.P + d * s.Q, c * s.S) <= 0:
        return "wrong", "fix: c <= 0 or c*theta + d <= 0"
    if report["trace"] != a + d or a + d != spec["fundamental_trace"]:
        return "wrong", "fix: trace is not the fundamental one"
    return None


def theta_reference(r: Fraction, m: complex, z: complex | None, terms: int):
    """mpmath sum at 50 digits, and the rounding allowance of an N-term double sum.

    The allowance bounds what IEEE double evaluation of the truncated series
    can add: per term (|argument| + 2N + 4) * 8u * |term|, u = 2^-53.
    """
    with mpmath.workdps(50):
        t = m.imag
        w = abs(z.imag) if z is not None else 0.0
        # |term| <= exp(-pi*t*x^2 + 2*pi*w*|x|): beyond K terms from the peak
        # the series is below 1e-60
        K = int(math.isqrt(int(60 * math.log(10) / (math.pi * t)) + 1)) + int(2 * w / t) + 3
        center = -round(float(r))
        mm = mpmath.mpc(m.real, m.imag)
        zz = mpmath.mpc(z.real, z.imag) if z is not None else mpmath.mpc(0)
        ipi = mpmath.mpc(0, 1) * mpmath.pi
        ref = mpmath.mpc(0)
        for n in range(center - K, center + K + 1):
            x = mpmath.mpf(n) + mpmath.mpf(r.numerator) / r.denominator
            ref += mpmath.exp(ipi * x * x * mm + 2 * ipi * x * zz)
        rr = r - math.floor(r)
        allowance = 0.0
        for n in range(-terms, terms + 1):
            x = float(n + rr)
            arg = 1j * math.pi * x * x * m + (2j * math.pi * x * z if z is not None else 0)
            mag = math.exp(arg.real) if arg.real > -745 else 0.0
            allowance += (abs(arg) + 2 * terms + 4) * 8 * _U * mag
        return complex(ref), allowance


def _check_theta(spec: dict, report: dict):
    value = complex(*report["value"])
    bound = report["tail_bound"]
    if not bound <= spec["tol"]:
        return "wrong", "theta: tail_bound above tol"
    ref, allowance = theta_reference(spec["r"], spec["m"], spec["z"], report["terms"])
    err = abs(value - ref)
    if err > bound + allowance:
        return "wrong", "theta: value outside bound plus rounding"
    if err > bound:
        return "fail", "theta: certified bound leaves rounding out"
    return None


def _check_residuals(spec: dict, report: dict, kind: str):
    tol = spec["tol"]
    values = []
    if kind == "algebra":
        values += report["residuals"].values()
    else:
        for res in report["degrees"].values():
            values += [v for k, v in res.items() if k != "degree"]
        heis = report["heisenberg"]
        values.append(heis["real_rep_property"])
        if heis.get("finite_rep_exact") is False or heis.get("pairing_nondegenerate") is False:
            return "wrong", f"{kind}: finite Heisenberg check false"
    values.append(report["max_residual"])
    if not all(v <= tol for v in values):
        return "wrong", f"{kind}: residual above tol with exit 0"
    return None


def _check_ring(spec: dict, report: dict):
    g, top = spec["g"], spec["max_degree"]
    c = [mat_pow(g, n)[1][0] for n in range(1, top + 2)]     # c[n-1] = c_n
    if [list(r) for r in g] != report["g"]:
        return "wrong", "ring: g differs from the fixing matrix"
    if report["dims"] != [1] + c[:top]:
        return "wrong", "ring: dims differ from c_n of g^n"
    detail = report["generation_detail"]
    if len(detail) != top - 1 or any(
            d["target_dim"] != c[n] or d["rank"] != c[n] or not d["surjective"]
            for n, d in enumerate(detail, start=1)):
        return "wrong", "ring: generation rank below target dim"
    residuals = [d["residual"] for d in detail] + [t["max_residual"] for t in report["tensors"]]
    residuals.append(report["assoc_residual"])
    if not all(r < RING_RESIDUAL_CEILING for r in residuals):
        return "wrong", "ring: residual above 1e-8"
    s = g[0][0] + g[1][1]
    if top >= 3 and c[0] >= s + 1:
        q = report.get("quadratic_detail", {})
        if report["quadratic"] is not True or q.get("dim_K") != c[0] ** 2 - c[1]:
            return "wrong", "ring: not quadratic or dim_K != c1^2 - c2"
    return None


_CHECKS = {
    "fix": _check_fix,
    "theta": _check_theta,
    "algebra": lambda spec, rep: _check_residuals(spec, rep, "algebra"),
    "module-check": lambda spec, rep: _check_residuals(spec, rep, "module-check"),
    "ring": _check_ring,
}


def verdict(kind: str, spec: dict, rc, stdout: str, error: str | None) -> tuple[str, str]:
    """(ok | fail | wrong, reason) for one job run."""
    if error is not None:
        return "fail", f"{kind}: {error.splitlines()[-1] if error else 'error'}"
    if rc == 3 and kind == "fix":
        if spec["fundamental_trace"] <= spec["max_trace"]:
            return "wrong", "fix: refused although a matrix within max_trace exists"
        return "fail", "fix: trace above max_trace refused (exit 3)"
    if rc != 0:
        return "fail", f"{kind}: exit {rc}"
    try:
        report = json.loads(stdout)["report"]
        found = _CHECKS[kind](spec, report)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "wrong", f"{kind}: malformed report ({type(exc).__name__})"
    return found if found is not None else ("ok", "")
