"""Certified evaluation of theta constants and the two-variable theta series.

The basic object is

    theta_r(m)    = sum_n exp[pi*i*(n+r)^2 * m]
    theta_r(z, m) = sum_n exp[pi*i*(n+r)^2 * m + 2*pi*i*(n+r)*z]

for rational characteristic r and m in the upper half-plane.  Both are one
series: theta_partial(r, m, N, z=None) sums |n| <= N and adds the 2*pi*i*x*z
term only when z is given.  r is reduced to integers num/den with
0 <= num < den, so x = (n*den + num)/den is the correctly rounded double of
n + r and no term builds a Fraction.

Truncation is certified by one geometric majorant, tail_bound(N, r, t, w=0.0).
With t = Im(m), w = |Im z| (0 for theta constants) and a = N+1-r, every
discarded term obeys |term| <= exp(-pi*t*x^2 + 2*pi*w*|x|) with |x| >= a, and
consecutive terms on either side shrink at least by exp(-(2*pi*t*a - 2*pi*w)),
so once that decrement is positive the tail is at most

    2*exp(-pi*t*a^2 + 2*pi*w*(a+2)) / (1 - exp(-(2*pi*t*a - 2*pi*w))).

theta_const and theta_fn choose the smallest N whose bound is below the
requested tolerance.

The tail bound covers truncation only; it is ThetaResult.bound and the
"tail_bound" of the theta command.  rounding_bound adds the floating-point
error of the partial sum itself.  The structure tensors of coord_ring, which
certify a value to the last few units in the last place, add the two;
theta_const and theta_fn do not yet.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

_MAX_TERMS = 10**7

_UNIT = 2.0 ** -53      # unit roundoff of an IEEE double


@dataclass(frozen=True)
class ThetaResult:
    """Certified partial sum: |value - true sum| <= bound."""

    value: complex
    bound: float
    terms: int

    def __complex__(self) -> complex:
        return self.value


def _reduce_characteristic(r) -> tuple[int, int]:
    """r mod 1 as integers (num, den), 0 <= num < den, in lowest terms."""
    if not isinstance(r, numbers.Rational):
        r = Fraction(r)
    den = int(r.denominator)
    return int(r.numerator) % den, den


def tail_bound(N: int, r, t: float, w: float = 0.0) -> float:
    """Certified bound on sum_{|n| > N} exp(-pi*t*(n+r)^2 + 2*pi*w*|n+r|), r reduced mod 1.

    w = |Im z| bounds the modulation of the two-variable series; w = 0 gives
    the bound for theta constants.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if t <= 0:
        raise ValueError("need Im(m) > 0")
    num, den = _reduce_characteristic(r)
    a = ((N + 1) * den - num) / den
    dec = 2.0 * math.pi * t * a - 2.0 * math.pi * w
    if dec <= 0:
        return math.inf
    ratio = math.exp(-dec)
    if ratio >= 1.0:
        return math.inf
    lead = math.exp(-math.pi * t * a * a + 2.0 * math.pi * w * (a + 2.0))
    return 2.0 * lead / (1.0 - ratio)


def theta_partial(r, m: complex, N: int, z: complex | None = None) -> complex:
    """Partial sum over |n| <= N of exp[pi*i*(n+r)^2*m (+ 2*pi*i*(n+r)*z)], r reduced mod 1.

    x = (n*den + num)/den is the correctly rounded double of n + r.
    """
    num, den = _reduce_characteristic(r)
    total = 0.0 + 0.0j
    for n in range(-N, N + 1):
        x = (n * den + num) / den
        arg = 1j * math.pi * x * x * m
        if z is not None:
            arg += 2j * math.pi * x * z
        total += cmath.exp(arg)
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
    num, den = _reduce_characteristic(r)
    rr = num / den
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


def _theta(r, m: complex, z: complex | None, tol: float) -> ThetaResult:
    if m.imag <= 0:
        raise ValueError("modular parameter must lie in the upper half-plane")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be a finite number > 0")
    t = m.imag
    w = 0.0 if z is None else abs(z.imag)
    N = _certify_terms(lambda n: tail_bound(n, r, t, w), tol)
    return ThetaResult(theta_partial(r, m, N, z), tail_bound(N, r, t, w), N)


def theta_const(r, m: complex, tol: float = 1e-14) -> ThetaResult:
    """theta_r(m) with certified truncation error below tol."""
    return _theta(r, m, None, tol)


def theta_fn(r, z: complex, m: complex, tol: float = 1e-14) -> ThetaResult:
    """Two-variable series sum_n exp[pi*i*(n+r)^2*m + 2*pi*i*(n+r)*z], certified."""
    return _theta(r, m, complex(z), tol)
