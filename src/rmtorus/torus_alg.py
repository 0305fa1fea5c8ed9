"""Smooth noncommutative torus elements with finitely supported coefficients.

An element is a finite series sum a_{n,m} U^n V^m subject to U V = e(theta) V U
with e(x) = exp(2*pi*i*x).  Finite support stands in for rapid decay: every
operation below maps finitely supported series to finitely supported series,
and the truncation is the caller's modelling choice, not an approximation
performed here.

Multiplication is the bilinear extension of

    (n, m) * (p, q)  ->  conj(e(theta*m*p)) * (n+p, m+q),

computed by one numpy kernel over all term pairs, block by block, with one
phase per distinct m*p.  Its output is bit for bit that of the pairwise loop:
each complex product is formed in real arithmetic as CPython forms it (numpy's
complex multiply may fuse multiply-adds), each coefficient is summed over its
pairs in loop order, and keys come out in order of first occurrence, the order
in which norm1, and so every reported residual, sums them.

The star is a_{n,m} -> conj(a_{n,m}) * conj(e(theta*n*m)) placed at (-n,-m),
the canonical trace picks the (0,0) coefficient, and the derivations act
diagonally with delta_1 = 2*pi*i*n, delta_2 = 2*pi*i*m, delta_tau = tau*delta_1
+ delta_2.  When theta is a QuadIrr every phase argument is reduced mod 1
exactly before exponentiation.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain

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
    """Finitely supported series over the twisted group ring of Z^2."""

    __slots__ = ("theta", "coeffs")

    def __init__(self, theta, coeffs=None):
        self.theta = theta
        self.coeffs = {}
        if coeffs:
            for (n, m), a in coeffs.items():
                if a != 0:
                    self.coeffs[(int(n), int(m))] = complex(a)

    @classmethod
    def _trusted(cls, theta, coeffs: dict) -> "TorusElement":
        """Wrap ``coeffs`` (int pairs -> complex) as is, dropping exact zeros."""
        return cls._wrap(theta, {k: a for k, a in coeffs.items() if a != 0})

    @classmethod
    def _wrap(cls, theta, coeffs: dict) -> "TorusElement":
        """Wrap ``coeffs`` (int pairs -> nonzero complex) as is."""
        el = cls.__new__(cls)
        el.theta = theta
        el.coeffs = coeffs
        return el

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

    def __add__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check_same(other)
        out = dict(self.coeffs)
        for k, a in other.coeffs.items():
            out[k] = out.get(k, 0.0) + a
        return TorusElement._trusted(self.theta, out)

    def __sub__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check_same(other)
        out = dict(self.coeffs)
        for k, a in other.coeffs.items():
            out[k] = out.get(k, 0.0) - a
        return TorusElement._trusted(self.theta, out)

    def __neg__(self):
        return TorusElement._trusted(self.theta, {k: -a for k, a in self.coeffs.items()})

    def scaled(self, z) -> "TorusElement":
        z = complex(z)  # a numpy scalar would otherwise leave numpy values behind
        return TorusElement._trusted(self.theta, {k: z * a for k, a in self.coeffs.items()})

    # -- ring structure ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check_same(other)
        return TorusElement._wrap(self.theta, _product(self.theta, self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        return NotImplemented

    def star(self) -> "TorusElement":
        out = {}
        for (n, m), a in self.coeffs.items():
            out[(-n, -m)] = a.conjugate() * phase(self.theta, n * m).conjugate()
        return TorusElement._trusted(self.theta, out)

    def trace(self) -> complex:
        return self.coeffs.get((0, 0), 0.0 + 0.0j)

    def derive(self, which: str, tau: complex | None = None) -> "TorusElement":
        """Apply delta_1, delta_2 or delta_tau = tau*delta_1 + delta_2."""
        if which == "d1":
            f = lambda n, m: _TWO_PI_I * n
        elif which == "d2":
            f = lambda n, m: _TWO_PI_I * m
        elif which == "dtau":
            if tau is None:
                raise ValueError("delta_tau needs the complex modulus tau")
            tau = complex(tau)
            f = lambda n, m: _TWO_PI_I * (tau * n + m)
        else:
            raise ValueError(f"unknown derivation {which!r}")
        return TorusElement._trusted(
            self.theta, {(n, m): f(n, m) * a for (n, m), a in self.coeffs.items()})

    # -- inspection -----------------------------------------------------------

    def support(self):
        return set(self.coeffs)

    def norm1(self) -> float:
        return sum(abs(a) for a in self.coeffs.values())

    def distance(self, other) -> float:
        return (self - other).norm1()

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.theta == other.theta and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "TorusElement(0)"
        bits = [f"({a:.4g})U^{n}V^{m}" for (n, m), a in sorted(self.coeffs.items())]
        return "TorusElement(" + " + ".join(bits) + ")"

    # -- io ---------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        theta = (
            self.theta.to_json_dict()
            if isinstance(self.theta, QuadIrr)
            else float(self.theta)
        )
        coeffs = [
            {"n": n, "m": m, "re": a.real, "im": a.imag}
            for (n, m), a in sorted(self.coeffs.items())
        ]
        return {"theta": theta, "coeffs": coeffs}

    @classmethod
    def from_json_dict(cls, d: dict) -> "TorusElement":
        theta = d["theta"]
        theta = QuadIrr.from_json_dict(theta) if isinstance(theta, dict) else float(theta)
        coeffs = {(int(c["n"]), int(c["m"])): complex(c["re"], c["im"]) for c in d["coeffs"]}
        return cls(theta, coeffs)


def _product(theta, xs: dict, ys: dict) -> dict:
    """Nonzero coefficients of the product, bit for bit those of the pair loop

        for (n, m), a in xs.items():
            for (p, q), b in ys.items():
                key = (n + p, m + q)
                out[key] = out.get(key, 0.0) + a * b * conj(e(theta*m*p))

    Term pairs run in that order (xs outer) through blocks of ``_BLOCK``.  Each
    complex product is formed in real arithmetic, re = ar*br - ai*bi and im =
    ar*bi + ai*br, as CPython forms it; numpy's complex multiply may fuse these
    into multiply-adds and round differently.  np.add.at adds each pair's weight
    to its key in pair order, and keys come out in order of first occurrence.
    Exponents, and the keys of a dense product, must fit in int64; numpy
    raises OverflowError otherwise.
    """
    if not xs or not ys:
        return {}
    ka = np.fromiter(chain.from_iterable(xs), np.int64, 2 * len(xs)).reshape(-1, 2)
    kb = np.fromiter(chain.from_iterable(ys), np.int64, 2 * len(ys)).reshape(-1, 2)
    a = np.fromiter(xs.values(), complex, len(xs))[:, None]
    b = np.fromiter(ys.values(), complex, len(ys))
    # one exact phase per distinct m*p, in a table over (distinct m of xs) x
    # (distinct p of ys)
    ms, mi = _codes(ka[:, 1].tolist())
    ps, pj = _codes(kb[:, 0].tolist())
    conj = {k: phase(theta, k).conjugate() for k in {m * p for m in ms for p in ps}}
    table = np.array([conj[m * p] for m in ms for p in ps])
    # the keys (n+p, m+q) span a box; dense keys are numbered by their cell in
    # it, row-major (ra and rb may wrap around in int64, their sum is exact),
    # sparse ones (a box of more than 2*pairs + _BLOCK cells) in order of first
    # occurrence
    n_lo, m_lo = map(sum, zip(ka.min(0).tolist(), kb.min(0).tolist()))
    n_hi, m_hi = map(sum, zip(ka.max(0).tolist(), kb.max(0).tolist()))
    width = m_hi - m_lo + 1
    size_b = len(ys)
    total, rows = len(xs) * size_b, max(1, _BLOCK // size_b)
    box = (n_hi - n_lo + 1) * width
    if box <= 2 * total + _BLOCK:
        keys = None
        ra = (ka[:, 0] - n_lo) * width + (ka[:, 1] - m_lo)
        rb = kb[:, 0] * width + kb[:, 1]
    else:
        index = {}
        numbered = np.array([index.setdefault((n + p, m + q), len(index))
                             for n, m in xs for p, q in ys])
        box, keys = len(index), list(index)
    acc = np.zeros(box, complex)
    first = np.full(box, total)
    for i0 in range(0, len(xs), rows):
        i1 = min(i0 + rows, len(xs))
        ar, ai = a[i0:i1].real, a[i0:i1].imag
        t_re = ar * b.real - ai * b.imag
        t_im = ar * b.imag + ai * b.real
        c = table[mi[i0:i1, None] * len(ps) + pj]
        w = np.empty(t_re.shape, complex)
        np.subtract(t_re * c.real, t_im * c.imag, out=w.real)
        np.add(t_re * c.imag, t_im * c.real, out=w.imag)
        cell = (ra[i0:i1, None] + rb).ravel() if keys is None else numbered[i0 * size_b:i1 * size_b]
        np.minimum.at(first, cell, np.arange(i0 * size_b, i1 * size_b))
        np.add.at(acc, cell, w.ravel())
    # occupied cells in order of first occurrence: mark the pair that first
    # hits each cell, then read the marked pairs in pair order
    marked = np.zeros(total, bool)
    marked[first[first < total]] = True
    pos = np.flatnonzero(marked)
    hit = numbered[pos] if keys is not None else ra[pos // size_b] + rb[pos % size_b]
    vals = acc[hit]
    nonzero = vals != 0
    hit, vals = hit[nonzero], vals[nonzero]
    if keys is not None:
        return dict(zip(map(keys.__getitem__, hit.tolist()), vals.tolist()))
    n, m = np.divmod(hit, width)
    return dict(zip(zip((n + n_lo).tolist(), (m + m_lo).tolist()), vals.tolist()))


def _codes(values: list) -> tuple[list, np.ndarray]:
    """The distinct values in first-seen order, and each value's index among them."""
    index = {}
    codes = [index.setdefault(v, len(index)) for v in values]
    return list(index), np.array(codes)
