"""Smooth noncommutative torus elements with finitely supported coefficients.

An element is a finite series sum a_{n,m} U^n V^m subject to U V = e(theta) V U
with e(x) = exp(2*pi*i*x).  Finite support stands in for rapid decay; the
truncation is the caller's modelling choice, not an approximation made here.

The coefficients are one dense complex box: a corner ``lo = (n0, m0)`` and a
2-D array whose cell (i, j) holds a_{n0+i, m0+j}, rows indexed by n and
columns by m.  The box may carry one leading batch axis, shape (B, rows,
cols): B elements on one corner and box, which every operation acts on slice
by slice in one call, each slice as it would act on that slice alone.  No
operation builds an array of more than ``_MAX_CELLS`` cells, the batch axis
counted, and no product scans more cells of windows and blocks per slice; one
that would raises ValueError, so exponents far apart are refused rather than
stored.  Results agree with a term-by-term loop to rounding.

Multiplication is the bilinear extension of

    (n, m) * (p, q)  ->  conj(e(theta*m*p)) * (n+p, m+q),

a twisted convolution: the right factor's rows p are scaled by
conj(e(theta*m*p)), and each column m of the left factor is convolved with
them along n, one Toeplitz matmul over the batch per column.  The star is
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

# cells of the largest array an operation may build (1 MiB of complex128), a
# batch's slices counted: a box, or a product's output or padded column
_MAX_CELLS = 1 << 16


def phase(theta, k: int) -> complex:
    """e(k*theta) for exact or floating theta."""
    if isinstance(theta, QuadIrr):
        return unit_phase(theta, k)
    return cmath.exp(_TWO_PI_I * (float(theta) * k % 1.0))


class TorusElement:
    """Finitely supported series over the twisted group ring of Z^2.

    ``lo`` is the corner (n0, m0) of the box ``a``: a[i, j] is the coefficient
    of U^(n0+i) V^(m0+j).  Zero is the 1x1 box at the origin.  A batch of B
    elements has a box of shape (B, rows, cols), a[k] being element k's
    (from_box).  Operations share boxes; none is written after it is built.
    Exponents must be integers.
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
        """Read-only mapping (n, m) -> complex of the nonzero cells, in sorted order.
        For a batch, (n, m) -> the tuple of its B values, over the cells nonzero in some slice."""
        a = self.a
        i, j = np.nonzero(a if a.ndim == 2 else a.any(axis=0))
        keys = zip(map(self.lo[0].__add__, i.tolist()), map(self.lo[1].__add__, j.tolist()))
        values = a[..., i, j]
        return MappingProxyType(dict(zip(keys, values.tolist() if a.ndim == 2
                                         else map(tuple, values.T.tolist()))))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_box(cls, theta, lo, a) -> "TorusElement":
        """The element with corner lo and box a (rows, cols), or the batch of B elements
        with box a (B, rows, cols) on that corner; a is copied."""
        a = np.array(a, complex)
        if a.ndim not in (2, 3) or a.size == 0:
            raise ValueError(f"a box has shape (rows, cols) or (B, rows, cols), not {a.shape}")
        _checked(*a.shape)
        return _element(theta, _exponents(lo), a)

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

    def _batch(self, other) -> tuple[int, ...]:
        """The batch shape of a result of self and other: () for two elements, (B,) otherwise."""
        if other.theta != self.theta:
            raise ValueError("elements live over different twisting angles")
        s, o = self.a.shape[:-2], other.a.shape[:-2]
        if s and o and s != o:
            raise ValueError(f"batches of {s[0]} and {o[0]} elements do not match")
        return s or o

    def _combine(self, other, op) -> "TorusElement":
        """self op other, op np.add or np.subtract, in the box that holds both."""
        batch = self._batch(other)
        lo = (min(self.lo[0], other.lo[0]), min(self.lo[1], other.lo[1]))
        hi = [max(x.lo[k] + x.a.shape[k - 2] for x in (self, other)) for k in (0, 1)]
        out = np.zeros(_checked(*batch, hi[0] - lo[0], hi[1] - lo[1]), complex)
        for x, f in ((self, np.add), (other, op)):
            i, j = x.lo[0] - lo[0], x.lo[1] - lo[1]
            cells = out[..., i:i + x.a.shape[-2], j:j + x.a.shape[-1]]
            f(cells, x.a, out=cells)
        return _element(self.theta, lo, out)

    def __add__(self, other):
        return self._combine(other, np.add) if isinstance(other, TorusElement) else NotImplemented

    def __sub__(self, other):
        # in place of self + -other, which would build the negation as well
        return (self._combine(other, np.subtract) if isinstance(other, TorusElement)
                else NotImplemented)

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
        batch = self._batch(other)
        (n0, m0), (p0, q0) = self.lo, other.lo
        a, b = self.a, other.a
        (na, ma), (nb, mb) = a.shape[-2:], b.shape[-2:]
        rows = na + nb - 1
        # the work per slice: ma columns of rows x nb windows and rows x mb blocks;
        # the memory over the batch: out, or the padded column (rows + nb - 1 <=
        # rows * nb cells)
        _checked(ma, rows, max(nb, mb))
        _checked(*batch, rows * max(nb, ma + mb - 1))
        # w[j, ::-1, None] * b: b's rows flipped, row p times conj(e(theta*m*p))
        # for column j's m = m0 + j
        w = _conj_phases(self.theta, m0, ma, p0, nb)
        b = b[..., ::-1, :]
        out = np.zeros(batch + (rows, ma + mb - 1), complex)
        # column j of a between nb - 1 zeros on each side: its window r times
        # column j's right box sums the pairs with n + p = n0 + p0 + r.  One
        # column at a time: all columns' blocks at once would hold ma times as much
        col = np.zeros(a.shape[:-2] + (na + 2 * nb - 2,), complex)
        windows = sliding_window_view(col, nb, axis=-1)
        for j in range(ma):
            col[..., nb - 1:nb - 1 + na] = a[..., j]
            out[..., j:j + mb] += windows @ (w[j, ::-1, None] * b)
        return _element(self.theta, (n0 + p0, m0 + q0), out)

    # reached only with a left operand that is not a TorusElement: a scalar
    __rmul__ = __mul__

    def star(self) -> "TorusElement":
        (n0, m0), (n, m) = self.lo, self.a.shape[-2:]
        lo = (1 - n0 - n, 1 - m0 - m)
        # (-n)*(-m) = n*m: each cell's phase from its new exponents
        w = _conj_phases(self.theta, lo[0], n, lo[1], m)
        return _element(self.theta, lo, self.a[..., ::-1, ::-1].conj() * w)

    def trace(self):
        """The (0, 0) coefficient: a complex, or an array of the B slices' for a batch."""
        (i, j), (n, m) = (-self.lo[0], -self.lo[1]), self.a.shape[-2:]
        inside = 0 <= i < n and 0 <= j < m
        t = self.a[..., i, j] if inside else np.zeros(self.a.shape[:-2], complex)
        return t.copy() if t.ndim else complex(t)

    def derive(self, which: str, tau: complex | None = None) -> "TorusElement":
        """Apply delta_1, delta_2 or delta_tau = tau*delta_1 + delta_2."""
        n = float(self.lo[0]) + np.arange(self.a.shape[-2])[:, None]
        m = float(self.lo[1]) + np.arange(self.a.shape[-1])
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
        """The exponents of the nonzero cells; for a batch, of the cells nonzero in some slice."""
        return set(self.coeffs)

    def norm1(self):
        """The sum of |a_{n,m}|: a float, or an array of the B slices' for a batch."""
        s = np.abs(self.a).sum(axis=(-2, -1))
        return s if s.ndim else float(s)

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return (self.theta == other.theta and self.a.shape[:-2] == other.a.shape[:-2]
                and self.coeffs == other.coeffs)

    def __repr__(self):
        bits = [f"({a:.4g})U^{n}V^{m}" if isinstance(a, complex)
                else "(" + ", ".join(f"{c:.4g}" for c in a) + f")U^{n}V^{m}"
                for (n, m), a in self.coeffs.items()]
        return "TorusElement(" + (" + ".join(bits) or "0") + ")"


def _checked(*shape: int) -> tuple[int, ...]:
    """shape, or ValueError if an array that shape would exceed _MAX_CELLS cells."""
    if math.prod(shape) > _MAX_CELLS:
        raise ValueError(f"an array of {'x'.join(map(str, shape))} cells exceeds the cap "
                         f"of {_MAX_CELLS}")
    return shape


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
