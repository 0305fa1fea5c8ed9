"""Smooth noncommutative torus elements with finitely supported coefficients.

An element is a finite series sum a_{n,m} U^n V^m subject to U V = e(theta) V U
with e(x) = exp(2*pi*i*x).  Finite support stands in for rapid decay; the
truncation is the caller's modelling choice, not an approximation made here.

The coefficients are one dense complex box: a corner ``lo = (n0, m0)`` and a
2-D array whose cell (i, j) holds a_{n0+i, m0+j}, rows indexed by n and
columns by m.  No operation builds an array of more than ``_MAX_CELLS`` cells;
one that would raises ValueError, so exponents far apart are refused rather
than stored.  Results agree with a term-by-term loop to rounding.

Multiplication is the bilinear extension of

    (n, m) * (p, q)  ->  conj(e(theta*m*p)) * (n+p, m+q),

a twisted convolution: the right factor's rows p are scaled by
conj(e(theta*m*p)), and each column m of the left factor is convolved with
them along n, all columns in one batched Toeplitz matmul.  The star is
a_{n,m} -> conj(a_{n,m}) * conj(e(theta*n*m)) placed at (-n,-m), the trace
is the (0,0) coefficient, and the derivations act diagonally: delta_1 =
2*pi*i*n, delta_2 = 2*pi*i*m, delta_tau = tau*delta_1 + delta_2.  For a QuadIrr
theta every phase argument is reduced mod 1 exactly: a product or star indexes
theta's row of conj(e(k*theta)) (qfield.conj_phase_row), or, on a grid too
sparse to grow that row, takes one phase() per distinct k, as a float theta does.
"""

from __future__ import annotations

import cmath
import math
import operator
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .qfield import QuadIrr, conj_phase_row, unit_phase

_TWO_PI_I = 2j * math.pi

# cells of the largest array an operation may build (1 MiB of complex128):
# an element's box, or the product's stack of one Toeplitz window per column
_MAX_CELLS = 1 << 16


def phase(theta, k: int) -> complex:
    """e(k*theta) for exact or floating theta."""
    if isinstance(theta, QuadIrr):
        return unit_phase(theta, k)
    return cmath.exp(_TWO_PI_I * (float(theta) * k % 1.0))


class TorusElement:
    """Finitely supported series over the twisted group ring of Z^2.

    ``lo`` is the corner (n0, m0) of the box ``a``: a[i, j] is the coefficient
    of U^(n0+i) V^(m0+j).  Zero is the 1x1 box at the origin.  Operations share
    boxes; none is written after it is built.  Exponents must be integers.
    """

    __slots__ = ("theta", "lo", "a")

    def __init__(self, theta, coeffs=None):
        coeffs = {_exponents(k): complex(c) for k, c in (coeffs or {(0, 0): 0}).items()}
        ns, ms = zip(*coeffs)
        lo = (min(ns), min(ms))
        a = np.zeros(_checked(max(ns) - lo[0] + 1, max(ms) - lo[1] + 1), complex)
        a[[n - lo[0] for n in ns], [m - lo[1] for m in ms]] = list(coeffs.values())
        self.theta, self.lo, self.a = theta, lo, a

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only mapping (n, m) -> complex of the nonzero cells, in sorted order."""
        i, j = np.nonzero(self.a)
        keys = zip(map(self.lo[0].__add__, i.tolist()), map(self.lo[1].__add__, j.tolist()))
        return MappingProxyType(dict(zip(keys, self.a[i, j].tolist())))

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
        lo = (min(self.lo[0], other.lo[0]), min(self.lo[1], other.lo[1]))
        hi = [max(x.lo[k] + x.a.shape[k] for x in (self, other)) for k in (0, 1)]
        out = np.zeros(_checked(hi[0] - lo[0], hi[1] - lo[1]), complex)
        for x in (self, other):
            i, j = x.lo[0] - lo[0], x.lo[1] - lo[1]
            out[i:i + x.a.shape[0], j:j + x.a.shape[1]] += x.a
        return _element(self.theta, lo, out)

    def __sub__(self, other):
        return self + -other if isinstance(other, TorusElement) else NotImplemented

    def __neg__(self):
        return _element(self.theta, self.lo, -self.a)

    def scaled(self, z) -> "TorusElement":
        return _element(self.theta, self.lo, self.a * complex(z))

    # -- ring structure ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check_same(other)
        (n0, m0), (p0, q0) = self.lo, other.lo
        a, b = self.a, other.a
        (na, ma), (nb, mb) = a.shape, b.shape
        # the window and block stacks below hold ma*rows*nb and ma*rows*mb cells
        rows = _checked(na + nb - 1, ma * max(nb, mb))[0]
        # bm[j]: b's rows flipped, row p times conj(e(theta*m*p)) for column j's m = m0 + j
        w = _conj_phases(self.theta, m0, ma, p0, nb)
        bm = w[:, ::-1, None] * b[::-1]
        # pad[j] is column j of a between nb - 1 zeros on each side; its window
        # r times bm[j] sums the pairs with n + p = n0 + p0 + r
        pad = np.zeros((ma, na + 2 * nb - 2), complex)
        pad[:, nb - 1:nb - 1 + na] = a.T
        blocks = sliding_window_view(pad, nb, axis=1) @ bm
        out = np.zeros((rows, ma + mb - 1), complex)
        for j, block in enumerate(blocks):
            out[:, j:j + mb] += block
        return _element(self.theta, (n0 + p0, m0 + q0), out)

    # reached only with a left operand that is not a TorusElement: a scalar
    __rmul__ = __mul__

    def star(self) -> "TorusElement":
        (n0, m0), (n, m) = self.lo, self.a.shape
        lo = (1 - n0 - n, 1 - m0 - m)
        # (-n)*(-m) = n*m: each cell's phase from its new exponents
        w = _conj_phases(self.theta, lo[0], n, lo[1], m)
        return _element(self.theta, lo, self.a[::-1, ::-1].conj() * w)

    def trace(self) -> complex:
        (i, j), (n, m) = (-self.lo[0], -self.lo[1]), self.a.shape
        return complex(self.a[i, j]) if 0 <= i < n and 0 <= j < m else 0j

    def derive(self, which: str, tau: complex | None = None) -> "TorusElement":
        """Apply delta_1, delta_2 or delta_tau = tau*delta_1 + delta_2."""
        n = float(self.lo[0]) + np.arange(self.a.shape[0])[:, None]
        m = float(self.lo[1]) + np.arange(self.a.shape[1])
        if which == "d1":
            f = _TWO_PI_I * n
        elif which == "d2":
            f = _TWO_PI_I * m
        elif which == "dtau":
            if tau is None:
                raise ValueError("delta_tau needs the complex modulus tau")
            f = _TWO_PI_I * (complex(tau) * n + m)
        else:
            raise ValueError(f"unknown derivation {which!r}")
        return _element(self.theta, self.lo, self.a * f)

    # -- inspection -----------------------------------------------------------

    def support(self):
        return set(self.coeffs)

    def norm1(self) -> float:
        return float(np.abs(self.a).sum())

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.theta == other.theta and self.coeffs == other.coeffs

    def __repr__(self):
        bits = [f"({a:.4g})U^{n}V^{m}" for (n, m), a in self.coeffs.items()]
        return "TorusElement(" + (" + ".join(bits) or "0") + ")"


def _checked(rows: int, cols: int) -> tuple[int, int]:
    """(rows, cols), or ValueError if an array that size would exceed _MAX_CELLS."""
    if rows * cols > _MAX_CELLS:
        raise ValueError(f"an array of {rows}x{cols} cells exceeds the cap of {_MAX_CELLS}")
    return rows, cols


def _element(theta, lo: tuple[int, int], a: np.ndarray) -> TorusElement:
    el = TorusElement.__new__(TorusElement)
    el.theta, el.lo, el.a = theta, lo, a
    return el


def _exponents(key) -> tuple[int, int]:
    """(n, m) as ints; a key that is not a pair of integers raises TypeError naming it."""
    try:
        n, m = key
        return operator.index(n), operator.index(m)
    except (TypeError, ValueError):
        raise TypeError(f"exponents {key!r} are not a pair of integers") from None


def _conj_phases(theta, a0: int, na: int, b0: int, nb: int) -> np.ndarray:
    """conj(e(theta*k)) over the exact products k = (a0 + i)*(b0 + j), int64 where they fit:
    from a QuadIrr theta's row if the grid may grow it, else one phase() per distinct k."""
    ka, kb = max(abs(a0), abs(a0 + na - 1)), max(abs(b0), abs(b0 + nb - 1))
    dtype = object if max(ka, 1) * max(kb, 1) >= 1 << 63 else np.int64
    k = np.multiply.outer(np.arange(a0, a0 + na, dtype=dtype), np.arange(b0, b0 + nb, dtype=dtype))
    if dtype is np.int64 and isinstance(theta, QuadIrr):
        row = conj_phase_row(theta, ka * kb, k.size)
        if row is not None:
            return row[k + len(row) // 2]
    distinct, inverse = np.unique(k, return_inverse=True)
    table = np.array([phase(theta, d) for d in distinct.tolist()], complex).conj()
    return table[inverse].reshape(k.shape)
