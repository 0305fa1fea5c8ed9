"""Smooth noncommutative torus elements with finitely supported coefficients.

An element is a finite series sum a_{n,m} U^n V^m subject to U V = e(theta) V U
with e(x) = exp(2*pi*i*x).  Finite support stands in for rapid decay: every
operation below maps finitely supported series to finitely supported series,
and the truncation is the caller's modelling choice, not an approximation
performed here.

The terms are two arrays: a (k, 2) int64 array of exponents (n, m) and a
complex128 array of nonzero coefficients, in the order a dict of the terms
would keep.  Every operation is an array pass whose output is bit for bit that
of the dict-of-terms loop: complex products are formed in real arithmetic as
CPython forms them (numpy's complex multiply may fuse multiply-adds), a sum
keeps self's keys and then the other's new keys, in the other's order, with
0.0 + b or 0.0 - b, exact zeros are dropped, and norm1, and so every reported
residual, sums hypot of the coefficients in key order.

Multiplication is the bilinear extension of

    (n, m) * (p, q)  ->  conj(e(theta*m*p)) * (n+p, m+q),

computed by one numpy kernel over all term pairs, block by block, with one
phase per distinct m*p; each coefficient is summed over its pairs in loop
order, and keys come out in order of first occurrence.

The star is a_{n,m} -> conj(a_{n,m}) * conj(e(theta*n*m)) placed at (-n,-m),
the canonical trace picks the (0,0) coefficient, and the derivations act
diagonally with delta_1 = 2*pi*i*n, delta_2 = 2*pi*i*m, delta_tau = tau*delta_1
+ delta_2.  When theta is a QuadIrr every phase argument is reduced mod 1
exactly, in integer arithmetic, before exponentiation.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .qfield import QuadIrr, unit_phase

_TWO_PI_I = 2j * math.pi

# term pairs per block of the product kernel: temporaries stay this size
# however many terms the factors have
_BLOCK = 1 << 12


def phase(theta, k: int) -> complex:
    """e(k*theta) for exact or floating theta."""
    if isinstance(theta, QuadIrr):
        return unit_phase(theta, k)
    return cmath.exp(_TWO_PI_I * (float(theta) * k % 1.0))


class TorusElement:
    """Finitely supported series over the twisted group ring of Z^2.

    ``keys`` is a (k, 2) int64 array of exponents (n, m) and ``vals`` the
    complex128 array of their nonzero coefficients, in the order a dict of the
    same terms would keep.  Operations share these arrays; neither is written
    after it is built.
    """

    __slots__ = ("theta", "keys", "vals")

    def __init__(self, theta, coeffs=None):
        items = [((int(n), int(m)), complex(a)) for (n, m), a in (coeffs or {}).items() if a != 0]
        self.theta = theta
        self.keys = np.array([k for k, _ in items], np.int64).reshape(-1, 2)
        self.vals = np.array([a for _, a in items], complex)

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only mapping (n, m) -> complex, in key order."""
        n, m = self.keys.T.tolist()
        return MappingProxyType(dict(zip(zip(n, m), self.vals.tolist())))

    # -- constructors -----------------------------------------------------

    @classmethod
    def unit(cls, theta):
        return cls(theta, {(0, 0): 1.0})

    @classmethod
    def monomial(cls, theta, n, m, coeff=1.0):
        return cls(theta, {(n, m): coeff})

    @classmethod
    def u(cls, theta):
        return cls.monomial(theta, 1, 0)

    @classmethod
    def v(cls, theta):
        return cls.monomial(theta, 0, 1)

    # -- linear structure ---------------------------------------------------

    def _check_same(self, other):
        if other.theta != self.theta:
            raise ValueError("elements live over different twisting angles")

    def _combine(self, other, op) -> "TorusElement":
        """op(a, b) on shared keys; other's new keys follow self's, with 0.0 op b."""
        self._check_same(other)
        pos = _positions(self.keys, other.keys)
        old = pos >= 0
        at = pos[old]
        vals = self.vals.copy()
        vals[at] = op(vals[at], other.vals[old])
        new = ~old
        return _element(self.theta, np.concatenate([self.keys, other.keys[new]]),
                        np.concatenate([vals, op(0.0, other.vals[new])]))

    def __add__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self._combine(other, operator.add)

    def __sub__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self._combine(other, operator.sub)

    def __neg__(self):
        return _element(self.theta, self.keys, -self.vals)

    def scaled(self, z) -> "TorusElement":
        z = complex(z)
        return _element(self.theta, self.keys,
                        _cmul(z.real, z.imag, self.vals.real, self.vals.imag))

    # -- ring structure ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check_same(other)
        return _element(self.theta,
                        *_product(self.theta, self.keys, self.vals, other.keys, other.vals))

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        return NotImplemented

    def star(self) -> "TorusElement":
        # n*m as Python ints: exponents near 2^62 overflow an int64 product
        n, m = self.keys.T.tolist()
        c = _conj_phases(self.theta, list(map(operator.mul, n, m)))
        vals = _cmul(self.vals.real, -self.vals.imag, c.real, c.imag)
        return _element(self.theta, -self.keys, vals)

    def trace(self) -> complex:
        hit = np.flatnonzero((self.keys[:, 0] == 0) & (self.keys[:, 1] == 0))
        return complex(self.vals[hit[0]]) if len(hit) else 0.0 + 0.0j

    def derive(self, which: str, tau: complex | None = None) -> "TorusElement":
        """Apply delta_1, delta_2 or delta_tau = tau*delta_1 + delta_2."""
        n, m = self.keys.T.astype(float)
        if which == "d1":
            f = _cmul(_TWO_PI_I.real, _TWO_PI_I.imag, n, 0.0)
        elif which == "d2":
            f = _cmul(_TWO_PI_I.real, _TWO_PI_I.imag, m, 0.0)
        elif which == "dtau":
            if tau is None:
                raise ValueError("delta_tau needs the complex modulus tau")
            tau = complex(tau)
            t = _cmul(tau.real, tau.imag, n, 0.0) + m
            f = _cmul(_TWO_PI_I.real, _TWO_PI_I.imag, t.real, t.imag)
        else:
            raise ValueError(f"unknown derivation {which!r}")
        return _element(self.theta, self.keys,
                        _cmul(f.real, f.imag, self.vals.real, self.vals.imag))

    # -- inspection -----------------------------------------------------------

    def support(self):
        return set(zip(*self.keys.T.tolist()))

    def norm1(self) -> float:
        # abs() of a Python complex is hypot; np.abs of a complex array may
        # round differently, and the sum runs in key order
        return sum(np.hypot(self.vals.real, self.vals.imag).tolist())

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.theta == other.theta and self.coeffs == other.coeffs

    def __repr__(self):
        if not len(self.vals):
            return "TorusElement(0)"
        bits = [f"({a:.4g})U^{n}V^{m}" for (n, m), a in sorted(self.coeffs.items())]
        return "TorusElement(" + " + ".join(bits) + ")"


def _element(theta, keys: np.ndarray, vals: np.ndarray) -> TorusElement:
    """Wrap key and value arrays as they are, dropping exact zeros."""
    if np.count_nonzero(vals) < len(vals):
        nonzero = vals != 0
        keys, vals = keys[nonzero], vals[nonzero]
    el = TorusElement.__new__(TorusElement)
    el.theta, el.keys, el.vals = theta, keys, vals
    return el


def _cmul(xr, xi, yr, yi) -> np.ndarray:
    """x*y formed in real arithmetic as CPython forms it: re = xr*yr - xi*yi,
    im = xr*yi + xi*yr.  numpy's complex multiply may fuse these into
    multiply-adds and round differently."""
    re = xr * yr - xi * yi
    out = np.empty(re.shape, complex)
    out.real = re
    np.add(xr * yi, xi * yr, out=out.imag)
    return out


def _bounds(keys: np.ndarray) -> tuple[list, list]:
    """Least and greatest n and m of a (k, 2) key array, as Python ints.

    Reduced column by column: keys.min(0) on this shape is about ten times
    slower.
    """
    cols = keys[:, 0], keys[:, 1]
    return [int(c.min()) for c in cols], [int(c.max()) for c in cols]


def _cells(keys: np.ndarray, lo, width: int) -> np.ndarray:
    """Row-major cell of each key in a box with corner lo and the given width."""
    return (keys[:, 0] - lo[0]) * width + (keys[:, 1] - lo[1])


def _positions(ka: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """Index into ka of each key of kb, or -1 where ka lacks it.

    Keys are numbered by their cell in the box both span; a box of more than
    2*keys + _BLOCK cells (sparse keys, up to the int64 edge) goes through a
    dict instead.
    """
    if not len(ka) or not len(kb):
        return np.full(len(kb), -1)
    keys = np.concatenate([ka, kb])
    lo, hi = _bounds(keys)
    width = hi[1] - lo[1] + 1
    box = (hi[0] - lo[0] + 1) * width
    if box > 2 * len(keys) + _BLOCK:
        index = dict(zip(map(tuple, ka.tolist()), range(len(ka))))
        return np.array([index.get(k, -1) for k in map(tuple, kb.tolist())])
    cells = _cells(keys, lo, width)
    index = np.full(box, -1)
    index[cells[:len(ka)]] = np.arange(len(ka))
    return index[cells[len(ka):]]


def _product(theta, ka: np.ndarray, a: np.ndarray, kb: np.ndarray, b: np.ndarray):
    """Keys and coefficients of the product, bit for bit those of the pair loop

        for (n, m), a in xs.items():
            for (p, q), b in ys.items():
                key = (n + p, m + q)
                out[key] = out.get(key, 0.0) + a * b * conj(e(theta*m*p))

    Term pairs run in that order (xs outer) through blocks of ``_BLOCK``.  Each
    complex product is formed in real arithmetic by _cmul, np.add.at adds each
    pair's weight to its key in pair order, and keys come out in order of first
    occurrence; coefficients that cancel to exact zeros are kept, for _element
    to drop.  Exponents, and the keys of a dense product, must fit in int64;
    numpy raises OverflowError otherwise.
    """
    if not len(a) or not len(b):
        return np.empty((0, 2), np.int64), np.empty(0, complex)
    # one exact phase per distinct m*p, in a table over (distinct m of xs) x
    # (distinct p of ys)
    ms, mi = _codes(ka[:, 1].tolist())
    ps, pj = _codes(kb[:, 0].tolist())
    table = _conj_phases(theta, [m * p for m in ms for p in ps])
    # the keys (n+p, m+q) span a box; dense keys are numbered by their cell in
    # it (ra and rb may wrap around in int64, their sum is exact), sparse ones
    # (a box of more than 2*pairs + _BLOCK cells) in order of first occurrence
    (lo_a, hi_a), (lo_b, hi_b) = _bounds(ka), _bounds(kb)
    lo, hi = [lo_a[0] + lo_b[0], lo_a[1] + lo_b[1]], [hi_a[0] + hi_b[0], hi_a[1] + hi_b[1]]
    width = hi[1] - lo[1] + 1
    size_b = len(b)
    total, rows = len(a) * size_b, max(1, _BLOCK // size_b)
    box = (hi[0] - lo[0] + 1) * width
    if box <= 2 * total + _BLOCK:
        sparse = None
        ra, rb = _cells(ka, lo, width), _cells(kb, (0, 0), width)
    else:
        index = {}
        kbl = kb.tolist()
        numbered = np.array([index.setdefault((n + p, m + q), len(index))
                             for n, m in ka.tolist() for p, q in kbl])
        box, sparse = len(index), list(index)
    acc = np.zeros(box, complex)
    first = np.full(box, total)
    for i0 in range(0, len(a), rows):
        i1 = min(i0 + rows, len(a))
        ai = a[i0:i1, None]
        t = _cmul(ai.real, ai.imag, b.real, b.imag)
        c = table[mi[i0:i1, None] * len(ps) + pj]
        w = _cmul(t.real, t.imag, c.real, c.imag)
        cell = (ra[i0:i1, None] + rb).ravel() if sparse is None else numbered[i0 * size_b:i1 * size_b]
        np.minimum.at(first, cell, np.arange(i0 * size_b, i1 * size_b))
        np.add.at(acc, cell, w.ravel())
    # occupied cells in order of first occurrence: mark the pair that first
    # hits each cell, then read the marked pairs in pair order
    marked = np.zeros(total, bool)
    marked[first[first < total]] = True
    pos = np.flatnonzero(marked)
    if sparse is not None:
        hit = numbered[pos]
        return np.array(sparse, np.int64)[hit], acc[hit]
    i, j = np.divmod(pos, size_b)
    hit = ra[i] + rb[j]
    keys = np.empty((len(hit), 2), np.int64)
    np.divmod(hit, width, out=(keys[:, 0], keys[:, 1]))
    keys += lo
    return keys, acc[hit]


def _codes(values: list) -> tuple[list, np.ndarray]:
    """The distinct values in first-seen order, and each value's index among them."""
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(map(index.__getitem__, values), np.intp, len(values))


def _conj_phases(theta, ks: list) -> np.ndarray:
    """conj(e(theta*k)) for each k, one phase() call per distinct k."""
    distinct, codes = _codes(ks)
    return np.array(list(map(phase, repeat(theta), distinct)), complex).conj()[codes]
