"""Certified evaluation of theta constants and the two-variable theta series.

The basic object is

    theta_r(m)    = sum_n exp[pi*i*(n+r)^2 * m]
    theta_r(z, m) = sum_n exp[pi*i*(n+r)^2 * m + 2*pi*i*(n+r)*z]

for rational characteristic r and m in the upper half-plane.  Truncation to
|n| <= N is certified by a geometric majorant: with t = Im(m), a = N+1-|r|
and r reduced into [0, 1), every discarded term of the constant series obeys

    exp(-pi*t*(n+r)^2) <= exp(-pi*t*a^2) * exp(-2*pi*t*a*(|n|-N-1)),

so the tail is at most 2*exp(-pi*t*a^2)/(1 - exp(-2*pi*t*a)).  For the
two-variable series the modulation contributes at most exp(2*pi*|Im z|*|n+r|)
per term and the same geometric argument applies once the decrement
2*pi*t*a - 2*pi*|Im z| is positive.  Truncation levels are chosen as the
smallest N whose certified tail is below the requested tolerance.

The tail bound covers truncation only.  rounding_bound adds the
floating-point error of the partial sum itself; callers that certify a value
to the last few units in the last place (the structure tensors of coord_ring)
add the two.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

_MAX_TERMS = 10**7

_UNIT = 2.0 ** -53      # unit roundoff of an IEEE double


@dataclass(frozen=True)
class ThetaQuery:
    """A theta evaluation request: characteristic r, modular parameter m,
    optional elliptic argument z, and a certified tolerance.  theta_const and
    theta_fn validate their arguments through it."""

    r: Fraction
    m: complex
    z: complex | None = None
    tol: float = 1e-14

    def __post_init__(self):
        if self.m.imag <= 0:
            raise ValueError("modular parameter must lie in the upper half-plane")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tolerance must be a finite number > 0")


@dataclass(frozen=True)
class ThetaResult:
    """Certified partial sum: |value - true sum| <= bound."""

    value: complex
    bound: float
    terms: int

    def __complex__(self) -> complex:
        return self.value


def _reduce_characteristic(r) -> Fraction:
    fr = Fraction(r)
    return fr - math.floor(fr)


def tail_bound(N: int, r, t: float) -> float:
    """Certified bound on sum_{|n| > N} exp(-pi*t*(n+r)^2), r reduced mod 1."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if t <= 0:
        raise ValueError("need Im(m) > 0")
    a = float(N + 1 - _reduce_characteristic(r))
    lead = math.exp(-math.pi * t * a * a)
    ratio = math.exp(-2.0 * math.pi * t * a)
    if ratio >= 1.0:
        return math.inf
    return 2.0 * lead / (1.0 - ratio)


def theta_partial(r, m: complex, N: int) -> complex:
    """Partial sum over |n| <= N of exp[pi*i*(n+r)^2*m], r reduced mod 1."""
    rr = _reduce_characteristic(r)
    total = 0.0 + 0.0j
    for n in range(-N, N + 1):
        x = float(n + rr)
        total += cmath.exp(1j * math.pi * x * x * m)
    return total


def rounding_bound(r, m: complex, N: int) -> float:
    """Bound on |theta_partial(r, m, N) - the exact partial sum at r, m|.

    Term n is cmath.exp(z_n) with z_n = pi*i*x^2*m, x = n + r.  Rounding x and
    pi, the three products, and an m that was itself rounded once (m = l*tau)
    move z_n by at most 16u|z_n| (u = 2^-53, twice the first-order count);
    exp, cos, sin and their products add at most 8u relative; the running sum
    of 2N+1 terms adds sqrt(2)*gamma_{2N+1} times the sum of the computed
    magnitudes.  The final factor and floor cover the bound's own arithmetic
    and underflowed terms.
    """
    rr = float(_reduce_characteristic(r))
    t, am = m.imag, abs(m)
    local = total = 0.0
    for n in range(-N, N + 1):
        x2 = (n + rr) ** 2
        mag = math.exp(-math.pi * t * x2)
        dz = 16.0 * _UNIT * math.pi * x2 * am
        local += mag * (math.expm1(dz) + math.exp(dz) * 8.0 * _UNIT)
        total += mag * math.exp(dz) * (1.0 + 8.0 * _UNIT)
    k = (2 * N + 1) * _UNIT
    return 1.001 * (local + math.sqrt(2.0) * k / (1.0 - k) * total) + 1e-300


def _certify_terms(bound_at, tol: float) -> int:
    """Smallest N >= 1 with bound_at(N) <= tol; bound_at decreases in N."""
    hi = 1
    while bound_at(hi) > tol:
        hi *= 2
        if hi > _MAX_TERMS:
            raise RuntimeError("theta series truncation did not certify; Im(m) too small")
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if bound_at(mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


def theta_const(r, m: complex, tol: float = 1e-14) -> ThetaResult:
    """theta_r(m) with certified truncation error below tol."""
    ThetaQuery(Fraction(r), m, tol=tol)
    t = m.imag
    N = _certify_terms(lambda n: tail_bound(n, r, t), tol)
    return ThetaResult(theta_partial(r, m, N), tail_bound(N, r, t), N)


def _fn_tail_bound(N: int, rr: Fraction, t: float, w: float) -> float:
    a = float(N + 1 - rr)
    dec = 2.0 * math.pi * (t * a - w)
    if dec <= 0:
        return math.inf
    ratio = math.exp(-dec)
    if ratio >= 1.0:
        return math.inf
    lead = math.exp(-math.pi * t * a * a + 2.0 * math.pi * w * (a + 2.0))
    return 2.0 * lead / (1.0 - ratio)


def theta_fn(r, z: complex, m: complex, tol: float = 1e-14) -> ThetaResult:
    """Two-variable series sum_n exp[pi*i*(n+r)^2*m + 2*pi*i*(n+r)*z], certified."""
    ThetaQuery(Fraction(r), m, complex(z), tol)
    t = m.imag
    w = abs(z.imag) if isinstance(z, complex) else 0.0
    z = complex(z)
    rr = _reduce_characteristic(r)
    N = _certify_terms(lambda n: _fn_tail_bound(n, rr, t, w), tol)
    total = 0.0 + 0.0j
    for n in range(-N, N + 1):
        x = float(n + rr)
        total += cmath.exp(1j * math.pi * x * x * m + 2j * math.pi * x * z)
    return ThetaResult(total, _fn_tail_bound(N, rr, t, w), N)
