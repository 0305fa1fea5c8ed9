"""Smooth noncommutative torus elements with finitely supported coefficients.

An element is a finite series sum a_{n,m} U^n V^m subject to U V = e(theta) V U
with e(x) = exp(2*pi*i*x).  Finite support stands in for rapid decay: every
operation below maps finitely supported series to finitely supported series,
and the truncation is the caller's modelling choice, not an approximation
performed here.

Multiplication is the bilinear extension of

    (n, m) * (p, q)  ->  conj(e(theta*m*p)) * (n+p, m+q),

the star is a_{n,m} -> conj(a_{n,m}) * conj(e(theta*n*m)) placed at (-n,-m),
the canonical trace picks the (0,0) coefficient, and the derivations act
diagonally with delta_1 = 2*pi*i*n, delta_2 = 2*pi*i*m, delta_tau = tau*delta_1
+ delta_2.  When theta is a QuadIrr every phase argument is reduced mod 1
exactly before exponentiation.
"""

from __future__ import annotations

import cmath
import math

from .qfield import QuadIrr, unit_phase

_TWO_PI_I = 2j * math.pi


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
        el = cls.__new__(cls)
        el.theta = theta
        el.coeffs = {k: a for k, a in coeffs.items() if a != 0}
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
        return TorusElement(self.theta, out)

    def __sub__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check_same(other)
        out = dict(self.coeffs)
        for k, a in other.coeffs.items():
            out[k] = out.get(k, 0.0) - a
        return TorusElement(self.theta, out)

    def __neg__(self):
        return TorusElement(self.theta, {k: -a for k, a in self.coeffs.items()})

    def scaled(self, z) -> "TorusElement":
        return TorusElement(self.theta, {k: z * a for k, a in self.coeffs.items()})

    # -- ring structure ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        if not isinstance(other, TorusElement):
            return NotImplemented
        self._check_same(other)
        # one exact phase per distinct exponent m*p, not one per term pair
        ms = {m for _, m in self.coeffs}
        ps = {p for p, _ in other.coeffs}
        conj = {k: phase(self.theta, k).conjugate() for k in {m * p for m in ms for p in ps}}
        out: dict[tuple[int, int], complex] = {}
        for (n, m), a in self.coeffs.items():
            for (p, q), b in other.coeffs.items():
                w = a * b * conj[m * p]
                key = (n + p, m + q)
                out[key] = out.get(key, 0.0) + w
        return TorusElement._trusted(self.theta, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scaled(other)
        return NotImplemented

    def star(self) -> "TorusElement":
        out = {}
        for (n, m), a in self.coeffs.items():
            out[(-n, -m)] = a.conjugate() * phase(self.theta, n * m).conjugate()
        return TorusElement(self.theta, out)

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
            f = lambda n, m: _TWO_PI_I * (tau * n + m)
        else:
            raise ValueError(f"unknown derivation {which!r}")
        return TorusElement(self.theta, {(n, m): f(n, m) * a for (n, m), a in self.coeffs.items()})

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
