"""Heisenberg groups, their Stone-von Neumann representations, and the
closed family of Gaussian atoms the real representation acts on.

A Gaussian atom is poly(x) * e(alpha*x^2 + beta*x) with Im(alpha) > 0 and
e(z) = exp(2*pi*i*z); translations, modulations, multiplication by x and
differentiation all stay inside the family, so every operator below takes an
atom to one atom and is symbolic on its coefficients.  Sums of atoms are kept
one level up: a heis_module.ModuleElement is a sum of terms, each one atom
times a vector in C(Z/cZ).

Two Heisenberg groups are implemented over K = R^2 (parameter eps > 0, cocycle
psi(x, y) = e((x1*y2 - y1*x2)/(2*eps))) and over K = (Z/cZ)^2 (cocycle
psi = e((n1*m2 - m1*n2)/(2c))).  The finite group keeps its central phase as
an exact Fraction of a turn, so composition laws and the representation
property can be checked in exact rational arithmetic; complex numbers appear
only when a vector entry is finally produced.  One integer kernel (numerators
mod a multiple of 2c) carries the group law for single elements and for the
whole-group check alike.

The representation on an atom f is U_{(lam, y)} f(x) = lam * e((x*y2 +
y1*y2/2)/eps) * f(x + y1); on C(Z/cZ) it is U phi([n]) = lam * e((n*m2 +
m1*m2/2)/c) * phi([n + m1]).  Lie derivatives of the real representation along
the standard basis are d/dx, 2*pi*i*x/eps and 2*pi*i; the holomorphic vector
f_tau = e(tau*x^2/(2*eps)) spans the kernel of delta_A - tau*delta_B.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_TWO_PI_I = 2j * math.pi


def _e(z: complex) -> complex:
    return cmath.exp(_TWO_PI_I * z)


def horner(poly, x):
    """poly(x), coefficients in increasing degree, by Horner's rule.

    Not np.polynomial: importing it costs degree-0-only runs 0.7 MB.
    """
    p = poly[-1]
    for c in poly[-2::-1]:
        p = p * x + c
    return p


def cis_turns(t: Fraction) -> complex:
    """exp(2*pi*i*t) for an exact number of turns."""
    return cmath.exp(_TWO_PI_I * float(t % 1))


class GaussianAtom:
    """poly(x) * e(alpha*x^2 + beta*x), Im(alpha) > 0."""

    __slots__ = ("poly", "alpha", "beta")

    def __init__(self, poly, alpha, beta=0.0):
        alpha = complex(alpha)
        if not alpha.imag > 0:
            raise ValueError("need Im(alpha) > 0 for a decaying atom")
        poly = tuple(map(complex, poly))
        while len(poly) > 1 and poly[-1] == 0:
            poly = poly[:-1]
        if not poly:
            poly = (0.0 + 0.0j,)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", complex(beta))

    def __setattr__(self, *a):
        raise AttributeError("GaussianAtom is immutable")

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    def is_zero(self) -> bool:
        # trailing zeros are trimmed, so only a zero atom ends in 0
        return self.poly[-1] == 0

    def value(self, x):
        x = np.asarray(x)
        return horner(self.poly, x) * np.exp(_TWO_PI_I * (self.alpha * x ** 2 + self.beta * x))

    def scaled(self, z) -> "GaussianAtom":
        return GaussianAtom(tuple(z * c for c in self.poly), self.alpha, self.beta)

    def translate(self, t) -> "GaussianAtom":
        """Atom of x -> value(x + t); poly(x + t) by the Taylor shift (synthetic division)."""
        t = complex(t) if isinstance(t, complex) else float(t)
        c = list(self.poly)
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += t * c[j + 1]
        scalar = _e(self.alpha * t * t + self.beta * t)
        return GaussianAtom(tuple(scalar * x for x in c), self.alpha,
                            self.beta + (self.alpha + self.alpha) * t)

    def modulate(self, s) -> "GaussianAtom":
        """Multiply by e(s*x)."""
        return GaussianAtom(self.poly, self.alpha, self.beta + s)

    def times_x(self) -> "GaussianAtom":
        return GaussianAtom((0j,) + self.poly, self.alpha, self.beta)

    def derivative(self) -> "GaussianAtom":
        """d/dx: p' + 2*pi*i*(2*alpha*x + beta)*p, done on coefficients."""
        return self._linear_derivative(_TWO_PI_I * (self.alpha + self.alpha))

    def _linear_derivative(self, a) -> "GaussianAtom":
        """The atom of p' + (a*x + 2*pi*i*beta)*p: d/dx when a = 2*pi*i*2*alpha."""
        b = _TWO_PI_I * self.beta
        p = self.poly
        out = []
        for j in range(len(p) + 1):
            acc = 0j
            if j + 1 < len(p):
                acc += (j + 1) * p[j + 1]
            if j < len(p):
                acc += b * p[j]
            if j >= 1:
                acc += a * p[j - 1]
            out.append(acc)
        return GaussianAtom(tuple(out), self.alpha, self.beta)

    def __eq__(self, other):
        if not isinstance(other, GaussianAtom):
            return NotImplemented
        return (self.poly, self.alpha, self.beta) == (other.poly, other.alpha, other.beta)

    def __hash__(self):
        return hash((self.poly, self.alpha, self.beta))

    def __repr__(self):
        return f"GaussianAtom(poly={self.poly}, alpha={self.alpha}, beta={self.beta})"


class FiniteVector:
    """Vector in C(Z/cZ)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple(map(complex, entries)))
        if not self.entries:
            raise ValueError("modulus must be positive")

    def __setattr__(self, *a):
        raise AttributeError("FiniteVector is immutable")

    @classmethod
    def delta(cls, c: int, k: int) -> "FiniteVector":
        return cls([1.0 if n == k % c else 0.0 for n in range(c)])

    @property
    def c(self) -> int:
        return len(self.entries)

    def __getitem__(self, n: int) -> complex:
        return self.entries[n % self.c]

    def scaled(self, z) -> "FiniteVector":
        return FiniteVector([z * e for e in self.entries])

    def __eq__(self, other):
        if not isinstance(other, FiniteVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"FiniteVector({list(self.entries)!r})"


# -- group elements ----------------------------------------------------------


@dataclass(frozen=True)
class HeisElement:
    """Element (lam, y) of the real Heisenberg group; |lam| = 1."""

    lam: complex
    y: tuple[float, float]

    def __post_init__(self):
        if abs(abs(self.lam) - 1.0) > 1e-12:
            raise ValueError("central element must have modulus 1")
        object.__setattr__(self, "y", (float(self.y[0]), float(self.y[1])))


# -- integer kernel of the finite Heisenberg group ------------------------------
#
# A central phase of t/L turns is kept as its numerator t mod L, with L a
# multiple of 2c so that every cocycle and action phase is a whole number of
# 1/L turns.  _canon, _mul and _act are the only place the group law is
# written down; they take Python ints or integer numpy arrays alike.


def _turns_scale(c: int, *turns: Fraction) -> int:
    """Smallest L that is a multiple of 2c and of every denominator."""
    return math.lcm(2 * c, *(t.denominator for t in turns))


def _numerator(t: Fraction, L: int) -> int:
    return t.numerator * (L // t.denominator)


def _index_dtype(c: int, L: int):
    """Array dtype for the kernel at scale L: with phase numerators in [0, L) and
    indices in [0, c) its intermediates stay below 4*L*c in magnitude; past
    int64 the arrays hold exact Python ints instead."""
    return np.int64 if 4 * L * c < 2 ** 62 else object


def _canon(t, m1, m2, c: int, L: int):
    """Reduce a lift (t, m) to m in [0, c)^2, folding the half-turn correction into t."""
    k1, r1 = m1 // c, m1 % c
    k2, r2 = m2 // c, m2 % c
    return (t + L // 2 * (k1 * r2 + k2 * r1 + c * k1 * k2)) % L, r1, r2


def _mul(t, m1, m2, s, p1, p2, c: int, L: int):
    """(t, m) * (s, p) with cocycle (m1*p2 - p1*m2)/(2c), canonical."""
    return _canon(t + s + L // (2 * c) * (m1 * p2 - p1 * m2), m1 + p1, m2 + p2, c, L)


def _act(t, m1, m2, k, c: int, L: int):
    """U_{(t, m)} delta_k = e(phase/L) delta_n with n = k - m1: returns (phase, n)."""
    n = (k - m1) % c
    return (t + L // (2 * c) * (2 * n * m2 + m1 * m2)) % L, n


@dataclass(frozen=True)
class FiniteHeisElement:
    """Element of Heis((Z/cZ)^2): exact central phase in turns and a pair mod c.

    The cocycle denominator is 2c, so the operator attached to (turns, m)
    only depends on m mod 2c; reducing a lift into [0, c)^2 therefore costs a
    half-integer central correction, which canonicalization folds into turns.
    That keeps one representative per operator and makes the representation
    property an identity of exact rationals.
    """

    turns: Fraction
    m: tuple[int, int]
    c: int

    def __post_init__(self):
        turns = Fraction(self.turns)
        L = _turns_scale(self.c, turns)
        t, r1, r2 = _canon(_numerator(turns, L), self.m[0], self.m[1], self.c, L)
        object.__setattr__(self, "turns", Fraction(t, L))
        object.__setattr__(self, "m", (r1, r2))

    @property
    def lam(self) -> complex:
        return cis_turns(self.turns)


class RealHeisenberg:
    """Heisenberg group over R^2 with cocycle e((x1*y2 - y1*x2)/(2*eps))."""

    def __init__(self, eps: float):
        if not eps > 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)

    def element(self, lam: complex, y1: float, y2: float) -> HeisElement:
        return HeisElement(complex(lam), (y1, y2))

    def cocycle(self, x, y) -> complex:
        return _e((x[0] * y[1] - y[0] * x[1]) / (2.0 * self.eps))

    def pairing(self, x, y) -> complex:
        """psi(x,y)/psi(y,x) = e((x1*y2 - y1*x2)/eps)."""
        return _e((x[0] * y[1] - y[0] * x[1]) / self.eps)

    def mul(self, h1: HeisElement, h2: HeisElement) -> HeisElement:
        lam = h1.lam * h2.lam * self.cocycle(h1.y, h2.y)
        return HeisElement(lam, (h1.y[0] + h2.y[0], h1.y[1] + h2.y[1]))

    def inverse(self, h: HeisElement) -> HeisElement:
        return HeisElement(h.lam.conjugate(), (-h.y[0], -h.y[1]))

    def act(self, h: HeisElement, f: GaussianAtom) -> GaussianAtom:
        """U_{(lam,y)} f(x) = lam * e((x*y2 + y1*y2/2)/eps) * f(x + y1): the atom
        translated, then modulated and scaled in one step."""
        y1, y2 = h.y
        scalar = h.lam * _e(y1 * y2 / (2.0 * self.eps))
        f = f.translate(y1)
        return GaussianAtom(tuple(scalar * c for c in f.poly), f.alpha, f.beta + y2 / self.eps)


class FiniteHeisenberg:
    """Heisenberg group over (Z/cZ)^2 with exact rational phases."""

    def __init__(self, c: int):
        if c < 1:
            raise ValueError("modulus must be >= 1")
        self.c = int(c)

    def element(self, turns, m1: int, m2: int) -> FiniteHeisElement:
        return FiniteHeisElement(Fraction(turns), (m1, m2), self.c)

    def mul(self, h1: FiniteHeisElement, h2: FiniteHeisElement) -> FiniteHeisElement:
        L = _turns_scale(self.c, h1.turns, h2.turns)
        t, r1, r2 = _mul(_numerator(h1.turns, L), *h1.m, _numerator(h2.turns, L), *h2.m,
                         self.c, L)
        return FiniteHeisElement(Fraction(t, L), (r1, r2), self.c)

    def inverse(self, h: FiniteHeisElement) -> FiniteHeisElement:
        return self.element(-h.turns, -h.m[0], -h.m[1])

    def step(self, h: FiniteHeisElement) -> tuple[list[int], list[complex]]:
        """U_h as a target index and a phase per source index k, with U_h delta_k =
        phase_k * delta_{target_k}; apply_step applies it."""
        c = self.c
        L = _turns_scale(c, h.turns)
        t, n = _act(_numerator(h.turns, L), *h.m, np.arange(c, dtype=_index_dtype(c, L)), c, L)
        # t/L of two ints is correctly rounded, so each phase equals cis_turns(Fraction(t, L))
        return n.tolist(), [cmath.exp(_TWO_PI_I * (tk / L)) for tk in t.tolist()]

    def act(self, h: FiniteHeisElement, phi: FiniteVector) -> FiniteVector:
        """(U phi)[n] = lam * e((n*m2 + m1*m2/2)/c) * phi[n + m1]."""
        if phi.c != self.c:
            raise ValueError("vector modulus does not match the group")
        return apply_step(self.step(h), phi)

    def representation_exact(self, z1, z2) -> bool:
        """U_{h1} U_{h2} = U_{h1 h2} on every basis vector, for every h1 = (z1, m)
        and h2 = (z2, p) with m, p in (Z/cZ)^2, exactly in numerators mod L."""
        c = self.c
        z1, z2 = Fraction(z1), Fraction(z2)
        L = _turns_scale(c, z1, z2)
        # open grids, each c long on its own axis, which the kernel broadcasts
        m1, m2, p1, p2, k = np.indices((c,) * 5, dtype=_index_dtype(c, L), sparse=True)
        a, b = _numerator(z1, L) % L, _numerator(z2, L) % L
        t12, q1, q2 = _mul(a, m1, m2, b, p1, p2, c, L)
        t, n = _act(t12, q1, q2, k, c, L)
        t2, n2 = _act(b, p1, p2, k, c, L)
        t1, n1 = _act(a, m1, m2, n2, c, L)
        return bool(np.all((t1 + t2) % L == t) and np.all(n1 == n))

    def subgroup(self, generators) -> set[tuple[int, int]]:
        elems = {(0, 0)}
        frontier = [(g[0] % self.c, g[1] % self.c) for g in generators]
        while frontier:
            x = frontier.pop()
            if x in elems:
                continue
            elems.add(x)
            for y in list(elems):
                z = ((x[0] + y[0]) % self.c, (x[1] + y[1]) % self.c)
                if z not in elems:
                    frontier.append(z)
        return elems

    def perp(self, subgroup: set[tuple[int, int]]) -> set[tuple[int, int]]:
        out = set()
        for x1 in range(self.c):
            for x2 in range(self.c):
                if all((x1 * y2 - y1 * x2) % self.c == 0 for (y1, y2) in subgroup):
                    out.add((x1, x2))
        return out

    def isotropic_check(self, generators) -> str:
        """Classify the subgroup generated by ``generators`` under the pairing.

        Returns "maximal_isotropic", "isotropic" or "neither".
        """
        H = self.subgroup(generators)
        Hperp = self.perp(H)
        if H <= Hperp:
            return "maximal_isotropic" if H == Hperp else "isotropic"
        return "neither"

    def pairing_nondegenerate(self) -> bool:
        """Exhaustive check that x -> e(x, .) has trivial kernel: the perp of the
        whole group is {(0, 0)}."""
        return self.perp({(x1, x2) for x1 in range(self.c) for x2 in range(self.c)}) == {(0, 0)}


def apply_step(step: tuple[list[int], list[complex]], phi: FiniteVector) -> FiniteVector:
    """phi moved by a FiniteHeisenberg.step: entry k goes to target_k, times phase_k."""
    targets, phases = step
    out = [0j] * len(targets)
    for nk, pk, e in zip(targets, phases, phi.entries):
        out[nk] = pk * e
    return FiniteVector(out)


def lie_derivative(f: GaussianAtom, which: str, eps: float) -> GaussianAtom:
    """Derivative of the real representation along the standard Lie basis.

    "A" is d/dx, "B" is multiplication by 2*pi*i*x/eps, "C" (the central
    direction) is multiplication by 2*pi*i.  [A, B] = (1/eps) C.
    """
    if which == "A":
        return f.derivative()
    if which == "B":
        return f.times_x().scaled(_TWO_PI_I / eps)
    if which == "C":
        return f.scaled(_TWO_PI_I)
    raise ValueError(f"unknown Lie direction {which!r}")


def holomorphic_vector(tau: complex, eps: float) -> GaussianAtom:
    """f_tau(x) = e(tau*x^2/(2*eps)); requires Im(tau) > 0 and eps > 0."""
    tau = complex(tau)
    if not tau.imag > 0:
        raise ValueError("tau must lie in the upper half-plane")
    if not eps > 0:
        raise ValueError("eps must be positive")
    return GaussianAtom((1.0,), tau / (2.0 * eps), 0.0)


def holomorphic_residual(tau: complex, f: GaussianAtom, eps: float) -> GaussianAtom:
    """(delta_A - tau*delta_B) f computed on coefficients.

    The result is p' + 2*pi*i*((2*alpha - tau/eps)*x + beta)*p;
    the coefficient 2*alpha - tau/eps is an exact floating zero when alpha was
    built as tau/(2*eps), since halving and doubling are exact in IEEE
    arithmetic, so holomorphic atoms are annihilated exactly.
    """
    return f._linear_derivative(_TWO_PI_I * ((f.alpha + f.alpha) - tau / eps))


def l2_distance(p: GaussianAtom, q: GaussianAtom) -> float:
    """||p - q|| / ||p|| in L^2(R) for two nonzero degree-0 atoms p, q of one alpha.

    With p = a*e(alpha*x^2 + beta*x) and q/p = exp(L(x)), L(x) = log(b/a) + i*k*x,
    x is Gaussian under the weight |p|^2; there Re L has mean m and variance v,
    Im L has variance u, and E[exp(L)] has argument w.  So ||p - q||^2/||p||^2 =
    E|expm1(L)|^2 = expm1(m + v/2)^2 + e^(2m + v)*expm1(v) + 2*e^(m + v/2)*
    (-expm1(-u/2) + 2*e^(-u/2)*sin(w/2)^2), a sum of non-negative parts.
    """
    if p.degree or q.degree or p.alpha != q.alpha or p.is_zero() or q.is_zero():
        raise ValueError("the closed form needs one degree-0 atom of one alpha on each side")
    rho = (q.poly[0] - p.poly[0]) / p.poly[0]                # b/a - 1
    k = 2.0 * math.pi * (q.beta - p.beta)
    var = 1.0 / (8.0 * math.pi * p.alpha.imag)                # of x under |p|^2
    mu = -p.beta.imag / (2.0 * p.alpha.imag)
    # products, not **: a huge gap gives inf, not OverflowError
    v = var * k.imag * k.imag
    u = var * k.real * k.real
    log_r = 0.5 * math.log1p(rho.real * (2.0 + rho.real) + rho.imag * rho.imag)  # log|b/a|
    half = log_r - k.imag * mu + v / 2                        # m + v/2
    w = math.atan2(rho.imag, 1.0 + rho.real) + k.real * mu - var * k.real * k.imag
    phase = -math.expm1(-u / 2) + 2.0 * math.exp(-u / 2) * math.sin(w / 2) ** 2
    return math.sqrt(math.expm1(half) ** 2 + math.exp(2 * half) * math.expm1(v)
                     + 2.0 * math.exp(half) * phase)
