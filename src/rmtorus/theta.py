"""Certified evaluation of theta constants and the two-variable theta series.

The basic object is

    theta_r(m)    = sum_n exp[pi*i*(n+r)^2 * m]
    theta_r(z, m) = sum_n exp[pi*i*(n+r)^2 * m + 2*pi*i*(n+r)*z]

for rational characteristic r and m in the upper half-plane.  Both are one
series, and theta_partial(nums, den, m, N, z=None) is its one term kernel: it
sums |n| <= N for a whole batch of characteristics r = num/den that share den,
m and N, and adds the 2*pi*i*x*z term only when z is given.  Numerators are
reduced to 0 <= num < den, so x = (n*den + num)/den is the correctly rounded
double of n + r and no term builds a Fraction.  The kernel works on blocks of
at most _BLOCK terms x labels: one complex exp per block, and each label
summed in term order (a cumulative sum down the block, continued from the
previous block), so every label is the same double that a term-by-term loop
gives.  theta_const and theta_fn are batches of one.

Truncation is certified by one geometric majorant, tail_bound(N, r, t, w=0.0).
With t = Im(m), w = |Im z| (0 for theta constants) and a = N+1-r, every
discarded term obeys |term| <= exp(-pi*t*x^2 + 2*pi*w*|x|) with |x| >= a, and
consecutive terms on either side shrink at least by exp(-(2*pi*t*a - 2*pi*w)),
so once that decrement is positive the tail is at most

    2*exp(-pi*t*a^2 + 2*pi*w*(a+2)) / (1 - exp(-(2*pi*t*a - 2*pi*w))).

A majorant that overflows a double reads as inf: not yet certified.
certified_terms(r, t, tol, w) is the smallest N whose bound is below tol; the
bound grows with r, so for the constant series (where theta_{-r} = theta_r
lets every r be folded into [0, 1/2]) one N certified at the largest folded r
serves a whole batch.

The tail bound covers truncation only; it is ThetaResult.bound and the
"tail_bound" of the theta command.  rounding_bound, batched like the kernel,
adds the floating-point error of the partial sum itself.  The structure
tensors of coord_ring, which certify a value to the last few units in the last
place, add the two; theta_const and theta_fn do not yet.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_MAX_TERMS = 10**7

_UNIT = 2.0 ** -53      # unit roundoff of an IEEE double

# terms x labels per block of theta_partial and rounding_bound: temporaries
# stay this size however many labels or terms (N reaches 10^5 near real m)
_BLOCK = 1 << 16


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
    the bound for theta constants.  A lead term beyond the double range gives
    inf.
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
    try:
        lead = math.exp(-math.pi * t * a * a + 2.0 * math.pi * w * (a + 2.0))
    except OverflowError:
        return math.inf
    return 2.0 * lead / (1.0 - ratio)


def _abscissae(nums, den: int, N: int):
    """Blocks (label slice, x) covering every numerator and n = -N..N in term order.

    x[i, c] = (n_i*den + num_c)/den with num_c reduced mod den: one division
    of integers that are exact in a double, so the correctly rounded n_i + r_c.
    Past 2^53 the integers are Python ints (an object array), whose division
    is also correctly rounded.
    """
    ints = np.int64 if (N + 1) * den < 2 ** 53 else object
    nums = np.asarray(nums, dtype=ints) % den
    width = min(nums.size, _BLOCK) or 1
    for c0 in range(0, nums.size, width):
        cols = nums[c0:c0 + width]
        rows = max(1, _BLOCK // cols.size)
        for n0 in range(-N, N + 1, rows):
            n = np.arange(n0, min(n0 + rows, N + 1), dtype=ints)[:, None]
            yield slice(c0, c0 + cols.size), np.asarray((n * den + cols) / den, dtype=float)


def theta_partial(nums, den: int, m: complex, N: int, z: complex | None = None) -> np.ndarray:
    """Partial sums over |n| <= N of exp[pi*i*(n+r)^2*m (+ 2*pi*i*(n+r)*z)], one per r = num/den.

    Every label is summed in term order from 0, so each entry is the double a
    loop over n = -N..N of cmath.exp gives.  A term beyond the double range
    makes its label non-finite.
    """
    total = np.zeros(len(nums), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for cols, x in _abscissae(nums, den, N):
            arg = 1j * math.pi * x * x * m
            if z is not None:
                arg += 2j * math.pi * x * z
            terms = np.exp(arg)
            terms[0] += total[cols]         # the running sum continues into this block
            total[cols] = np.cumsum(terms, axis=0)[-1]
    return total


def rounding_bound(nums, den: int, m: complex, N: int) -> np.ndarray:
    """Bounds on |theta_partial(nums, den, m, N) - the exact partial sums|, one per label.

    Term n is exp(z_n) with z_n = pi*i*x^2*m, x = n + r.  Rounding x and pi,
    the three products, and an m that was itself rounded once (m = l*tau)
    move z_n by at most 16u|z_n| (u = 2^-53, twice the first-order count);
    exp, cos, sin and their products add at most 8u relative; the running sum
    of 2N+1 terms adds sqrt(2)*gamma_{2N+1} times the sum of the computed
    magnitudes.  The final factor and floor cover the bound's own arithmetic
    and underflowed terms.  A bound beyond the double range is inf or nan.
    """
    t, am = m.imag, abs(m)
    local = np.zeros(len(nums))
    total = np.zeros(len(nums))
    with np.errstate(over="ignore", invalid="ignore"):
        for cols, x in _abscissae(nums, den, N):
            x2 = x * x
            mag = np.exp(-math.pi * t * x2)
            dz = 16.0 * _UNIT * math.pi * x2 * am
            grow = np.exp(dz)
            local[cols] += np.sum(mag * (np.expm1(dz) + grow * 8.0 * _UNIT), axis=0)
            total[cols] += np.sum(mag * grow, axis=0) * (1.0 + 8.0 * _UNIT)
    k = (2 * N + 1) * _UNIT
    return 1.001 * (local + math.sqrt(2.0) * k / (1.0 - k) * total) + 1e-300


def certified_terms(r, t: float, tol: float, w: float = 0.0) -> int:
    """Smallest N >= 1 with tail_bound(N, r, t, w) <= tol; RuntimeError past _MAX_TERMS.

    tail_bound decreases in N: doubling finds an upper end, bisection the least N.
    """
    hi = 1
    while tail_bound(hi, r, t, w) > tol:
        hi *= 2
        if hi > _MAX_TERMS:
            raise RuntimeError("theta series truncation did not certify; Im(m) too small")
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if tail_bound(mid, r, t, w) <= tol:
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
    N = certified_terms(r, t, tol, w)
    num, den = _reduce_characteristic(r)
    value = complex(theta_partial([num], den, m, N, z)[0])
    if not cmath.isfinite(value):
        raise RuntimeError("theta partial sum overflows a double")
    return ThetaResult(value, tail_bound(N, r, t, w), N)


def theta_const(r, m: complex, tol: float = 1e-14) -> ThetaResult:
    """theta_r(m) with certified truncation error below tol."""
    return _theta(r, m, None, tol)


def theta_fn(r, z: complex, m: complex, tol: float = 1e-14) -> ThetaResult:
    """Two-variable series sum_n exp[pi*i*(n+r)^2*m + 2*pi*i*(n+r)*z], certified."""
    return _theta(r, m, complex(z), tol)
