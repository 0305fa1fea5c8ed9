"""Exact arithmetic for real quadratic irrationalities and SL2(Z) data.

A value is stored in the canonical form (p + q*sqrt(D)) / r with

    * D squarefree, D > 1            (rationals are normalised to q = 0, D = 2)
    * r > 0
    * gcd(p, q, r) = 1

so equality and hashing are structural.  All predicates that the rest of the
package relies on (signs, orderings, floors, lattice membership, fixed-point
checks) are decided in integer arithmetic.  Signs, orderings, floors and
``float()`` all read one integer-square-root bracket of q*sqrt(D): an
irrational value's sign is that of its floor, and ``float()`` returns the
correctly rounded double between two such brackets, as ``unit_phase`` does
for the fractional part of k*t.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, isqrt

_RATIONAL_D = 2

# QuadIrr.parse refuses a larger radicand: its squarefree split trial-divides
# up to the square root, here at most 10^6 divisors (about 0.3 s)
MAX_RADICAND = 10 ** 12
MAX_TRACE = 10 ** 7  # fixing_matrix's default cap on the trace


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s*s*m and m squarefree."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, m, d = 1, n, 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
            s *= d
        d += 1
    return s, m


@total_ordering
class QuadIrr:
    """Element (p + q*sqrt(D))/r of a real quadratic field (or of Q)."""

    __slots__ = ("p", "q", "r", "D", "_hash")

    def __init__(self, p: int, q: int, r: int, D: int):
        if r == 0:
            raise ZeroDivisionError("zero denominator")
        if q != 0:
            s, m = _squarefree_split(D)
            if m == 1:
                p, q = p + q * s, 0
            else:
                q, D = q * s, m
        if q == 0:
            D = _RATIONAL_D
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(p, q), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "D", D)

    def __setattr__(self, *a):
        raise AttributeError("QuadIrr is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, x) -> "QuadIrr":
        f = Fraction(x)
        return cls(f.numerator, 0, f.denominator, _RATIONAL_D)

    @classmethod
    def parse(cls, text: str) -> "QuadIrr":
        """Parse the grammar "(p+q*sqrtD)/r" with integer literals.

        Accepted shapes include "(1+sqrt5)/2", "(-5+sqrt5)/10", "sqrt2",
        "2*sqrt3", "(1-2*sqrt3)/7", "3/4" and "7".
        """
        import re

        s = text.strip().replace(" ", "")
        m = re.fullmatch(
            r"(?:\((?P<inner>[^()]+)\)|(?P<bare>[^()/]+))(?:/(?P<den>-?\d+))?", s
        )
        if not m:
            raise ValueError(f"cannot parse quadratic irrationality {text!r}")
        body = m.group("inner") if m.group("inner") is not None else m.group("bare")
        r = int(m.group("den")) if m.group("den") else 1
        mm = re.fullmatch(
            r"(?:(?P<p>[+-]?\d+)(?=[+-]))?"
            r"(?P<sgn>[+-])?(?:(?P<q>\d+)\*?)?sqrt(?P<D>\d+)",
            body,
        )
        if mm:
            p = int(mm.group("p")) if mm.group("p") else 0
            q = int(mm.group("q")) if mm.group("q") else 1
            if mm.group("sgn") == "-":
                q = -q
            D = int(mm.group("D"))
            if D > MAX_RADICAND:
                raise ValueError(f"radicand {D} is above the limit of 10^12")
            return cls(p, q, r, D)
        mm = re.fullmatch(r"[+-]?\d+", body)
        if mm:
            return cls(int(body), 0, r, _RATIONAL_D)
        raise ValueError(f"cannot parse quadratic irrationality {text!r}")

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def conjugate(self) -> "QuadIrr":
        """Galois conjugate (p - q*sqrt(D))/r."""
        return QuadIrr(self.p, -self.q, self.r, self.D)

    def norm(self) -> Fraction:
        return Fraction(self.p * self.p - self.q * self.q * self.D, self.r * self.r)

    def minimal_polynomial(self) -> tuple[int, int, int]:
        """Primitive (A, B, C), A > 0, with A*x^2 + B*x + C = 0 at this value."""
        if self.is_rational:
            raise ValueError("rational value has no primitive quadratic polynomial")
        A = self.r * self.r
        B = -2 * self.p * self.r
        C = self.p * self.p - self.q * self.q * self.D
        g = gcd(gcd(A, B), C)
        return A // g, B // g, C // g

    def discriminant(self) -> int:
        A, B, C = self.minimal_polynomial()
        return B * B - 4 * A * C

    # -- arithmetic --------------------------------------------------------

    def _coerced(self, other) -> "QuadIrr | None":
        if isinstance(other, QuadIrr):
            if other.q == 0 or self.q == 0 or other.D == self.D:
                return other
            raise ValueError("mixed radicands")
        if isinstance(other, (int, Fraction)):
            return QuadIrr.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        D = self.D if self.q else o.D
        return QuadIrr(
            self.p * o.r + o.p * self.r,
            self.q * o.r + o.q * self.r,
            self.r * o.r,
            D,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadIrr(-self.p, -self.q, self.r, self.D)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        D = self.D if self.q else o.D
        return QuadIrr(
            self.p * o.p + self.q * o.q * D,
            self.p * o.q + self.q * o.p,
            self.r * o.r,
            D,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadIrr":
        n = self.p * self.p - self.q * self.q * self.D
        if self.q == 0:
            if self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return QuadIrr(self.r, 0, self.p, _RATIONAL_D)
        return QuadIrr(self.r * self.p, -self.r * self.q, n, self.D)

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        return _power(self, n, QuadIrr.from_rational(1))

    # -- order -------------------------------------------------------------

    def sign(self) -> int:
        # an irrational value is never an integer, so it is > 0 exactly when
        # its floor is >= 0
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        return 1 if _floor_scaled(self.p, self.q, self.D, 0) >= 0 else -1

    def __eq__(self, other):
        try:
            o = self._coerced(other)
        except ValueError:
            return False
        if o is None:
            return NotImplemented
        return (self.p, self.q, self.r, self.D) == (o.p, o.q, o.r, o.D)

    def __hash__(self):
        # computed on first use and kept: unit_phase's cache hashes the same
        # theta on every lookup, while most intermediate values are never hashed
        try:
            return self._hash
        except AttributeError:
            pass
        h = hash(Fraction(self.p, self.r)) if self.q == 0 else hash((self.p, self.q, self.r, self.D))
        object.__setattr__(self, "_hash", h)
        return h

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __floor__(self) -> int:
        return _floor(self.p, self.q, self.D, self.r)

    # -- numeric conversion --------------------------------------------------

    def __float__(self) -> float:
        return _to_float(self.p, self.q, self.D, self.r)

    # -- io ------------------------------------------------------------------

    def __str__(self):
        """Canonical "(p+q*sqrtD)/r" form, matching the parse grammar."""
        if self.q == 0:
            return str(self.p) if self.r == 1 else f"{self.p}/{self.r}"
        if self.q == 1:
            rad = f"sqrt{self.D}"
        elif self.q == -1:
            rad = f"-sqrt{self.D}"
        else:
            rad = f"{self.q}*sqrt{self.D}"
        inner = rad if self.p == 0 else f"{self.p}{'+' if self.q > 0 else ''}{rad}"
        if self.r == 1:
            return inner if self.p == 0 else f"({inner})"
        return f"({inner})/{self.r}"

    def __repr__(self):
        if self.q == 0:
            return f"QuadIrr({self.p}/{self.r})"
        return f"QuadIrr(({self.p}{self.q:+d}*sqrt{self.D})/{self.r})"

    def to_json_dict(self) -> dict:
        return {"p": self.p, "q": self.q, "r": self.r, "D": self.D}


def _floor_scaled(p: int, q: int, D: int, s: int) -> int:
    """floor((p + q*sqrt(D)) * 2^s) for q != 0 and squarefree D > 1.

    q^2 * D * 4^s is then never a square, so its isqrt t satisfies
    t < |q|*sqrt(D)*2^s < t + 1 strictly.
    """
    t = isqrt(q * q * D << 2 * s)
    return (p << s) + (t if q > 0 else -t - 1)


def _floor(p: int, q: int, D: int, r: int) -> int:
    """floor((p + q*sqrt(D))/r) for r > 0: floor(x/r) = floor(floor(x)/r)."""
    return (p if q == 0 else _floor_scaled(p, q, D, 0)) // r


def _to_float(p: int, q: int, D: int, r: int) -> float:
    """The correctly rounded double of (p + q*sqrt(D))/r, r > 0.

    At scale 2^s the value lies strictly between lo/den and (lo+1)/den.  int/int
    division is correctly rounded and rounding is monotone, so once both ends
    round to the same double, so does the value.  An irrational value is never a
    rounding boundary, so doubling s ends the loop.  A value beyond the double
    range rounds to an infinity of its sign.
    """
    if q == 0:
        return p / r
    s = 64
    while True:
        lo, den = _floor_scaled(p, q, D, s), r << s
        try:
            x, y = lo / den, (lo + 1) / den
        except OverflowError:
            return math.inf if lo > 0 else -math.inf
        if x == y:
            return x
        s *= 2


def _power(x, n: int, one):
    """x**n by square-and-multiply; a negative n inverts x first."""
    if n < 0:
        x, n = x.inverse(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        x = x * x
        n >>= 1
    return out


@dataclass(frozen=True)
class SL2Matrix:
    """Integer matrix [[a, b], [c, d]] with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.det != 1:
            raise ValueError(f"determinant is {self.det}, not 1")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d

    @classmethod
    def identity(cls) -> "SL2Matrix":
        return cls(1, 0, 0, 1)

    def __mul__(self, other: "SL2Matrix") -> "SL2Matrix":
        if not isinstance(other, SL2Matrix):
            return NotImplemented
        return SL2Matrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2Matrix":
        return SL2Matrix(self.d, -self.b, -self.c, self.a)

    def __pow__(self, n: int) -> "SL2Matrix":
        return _power(self, n, SL2Matrix.identity())

    def to_list(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]

    @classmethod
    def from_list(cls, rows) -> "SL2Matrix":
        (a, b), (c, d) = rows
        return cls(int(a), int(b), int(c), int(d))


@dataclass(frozen=True)
class LatticeElement:
    """Element m + n*theta of the lattice Z + theta*Z."""

    m: int
    n: int

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        return LatticeElement(self.m + other.m, self.n + other.n)

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        return LatticeElement(self.m - other.m, self.n - other.n)

    def value(self, theta: QuadIrr) -> QuadIrr:
        return theta * self.n + self.m


def moebius_act(g: SL2Matrix, t: QuadIrr) -> QuadIrr:
    """Fractional-linear action (a*t + b)/(c*t + d)."""
    den = t * g.c + g.d
    if den.sign() == 0:
        raise ZeroDivisionError("Moebius action has a pole at this value")
    return (t * g.a + g.b) / den


def fixes(g: SL2Matrix, t: QuadIrr) -> bool:
    """Exact check of c*t^2 + (d - a)*t - b = 0."""
    return (t * t * g.c + t * (g.d - g.a) - g.b).sign() == 0


def cf_expand(t: QuadIrr) -> tuple[list[int], list[int]]:
    """Continued fraction expansion with exact period detection.

    Returns (quotients, period): the partial quotients up to the first
    repeated complete quotient, and the repeating block.  By Lagrange's
    theorem the expansion of a quadratic irrationality is eventually
    periodic, so the loop ends.
    """
    if t.is_rational:
        raise ValueError("continued fraction period is defined for irrational values")
    quotients: list[int] = []
    seen: dict[QuadIrr, int] = {}
    x = t
    while x not in seen:
        seen[x] = len(quotients)
        a = math.floor(x)
        quotients.append(a)
        x = (x - a).inverse()
    return quotients, quotients[seen[x]:]


def fixing_matrix(t: QuadIrr, max_trace: int = MAX_TRACE) -> SL2Matrix:
    """Minimal-trace g in SL2(Z) with g*t = t, c > 0 and c*t + d > 0.

    g fixes t exactly when (c, d - a, -b) = k*(A, B, C) for the primitive
    minimal polynomial (A, B, C) of t and a positive integer k; det g = 1 then
    reads s^2 - Delta*k^2 = 4 with s = a + d and Delta the discriminant.  The
    search enumerates traces s = 3, 4, ... and checks the divisibility,
    squareness and parity conditions exactly, so the first hit is the
    minimal-trace solution (ties, which cannot occur since k is determined by
    the trace, would be broken lexicographically on (a, b, c, d)).
    """
    if t.is_rational:
        raise ValueError("rational values are not fixed by hyperbolic matrices")
    A, B, C = t.minimal_polynomial()
    delta = B * B - 4 * A * C
    if delta <= 0:
        raise ValueError("value is not a real quadratic irrationality")
    for s in range(3, max_trace + 1):
        m = s * s - 4
        if m % delta:
            continue
        k = isqrt(m // delta)
        if k == 0 or k * k * delta != m:
            continue
        if (s - B * k) % 2:
            continue
        a = (s - B * k) // 2
        cand = SL2Matrix(a, -C * k, A * k, s - a)
        ok = (
            cand.c > 0
            and fixes(cand, t)
            and (t * cand.c + cand.d).sign() > 0
            and cand.trace > 2
        )
        if ok:
            return cand
    raise ValueError(f"no fixing matrix with trace <= {max_trace}")


def rank_value(g: SL2Matrix, n: int, t: QuadIrr) -> QuadIrr:
    """Exact c_n*theta + d_n for the n-th power of g (n >= 0)."""
    if n < 0:
        raise ValueError("rank is defined for n >= 0")
    if not fixes(g, t):
        raise ValueError("matrix does not fix the value")
    gn = g**n
    return t * gn.c + gn.d


def lattice_coordinates(x: QuadIrr, theta: QuadIrr) -> LatticeElement:
    """Write x = m + n*theta exactly, or raise ValueError."""
    if theta.is_rational:
        raise ValueError("lattice basis must be irrational")
    if x.q != 0 and x.D != theta.D:
        raise ValueError("value is not in the lattice")
    n = Fraction(x.q * theta.r, x.r * theta.q)
    m = Fraction(x.p, x.r) - n * Fraction(theta.p, theta.r)
    if n.denominator != 1 or m.denominator != 1:
        raise ValueError("value is not in the lattice")
    return LatticeElement(int(m), int(n))


def in_theta_lattice(x: QuadIrr, theta: QuadIrr) -> bool:
    """Exact membership of x in Z + theta*Z."""
    if theta.is_rational:
        raise ValueError("lattice basis must be irrational")
    try:
        lattice_coordinates(x, theta)
    except ValueError:
        return False
    return True


def fundamental_discriminant(D: int) -> int:
    _, m = _squarefree_split(D)
    return m if m % 4 == 1 else 4 * m


def multiplier_ring(theta: QuadIrr):
    """Conductor f and membership test for {alpha : alpha*(Z + theta*Z) <= Z + theta*Z}.

    The multiplier ring of the lattice Z + theta*Z is the order Z + f*O_K of
    discriminant Delta = disc(minimal polynomial of theta), so f is read off
    from Delta = f^2 * d_K.  The returned predicate decides membership of any
    field element exactly (it checks that alpha*1 and alpha*theta stay in the
    lattice), independently of the conductor formula.
    """
    if theta.is_rational:
        raise ValueError("multiplier ring is defined for irrational values")
    delta = theta.discriminant()
    dk = fundamental_discriminant(theta.D)
    f2, rem = divmod(delta, dk)
    f = isqrt(f2)
    if rem or f * f != f2:
        raise ArithmeticError("discriminant is not f^2 * d_K")

    def is_multiplier(alpha: QuadIrr) -> bool:
        return in_theta_lattice(alpha, theta) and in_theta_lattice(alpha * theta, theta)

    return f, is_multiplier


class RMData:
    """A real quadratic theta together with a fixing matrix and module constant.

    epsilon = (c*theta + d)/c is kept exact; the powers g^n and the floating
    epsilon_n are cached since every module of degree n uses them.
    """

    def __init__(self, theta: QuadIrr, g: SL2Matrix | None = None):
        if theta.is_rational:
            raise ValueError("theta must be a real quadratic irrationality")
        if g is None:
            g = fixing_matrix(theta)
        if not fixes(g, theta):
            raise ValueError("matrix does not fix theta")
        if g.c <= 0:
            raise ValueError("need c > 0")
        if (theta * g.c + g.d).sign() <= 0:
            raise ValueError("need c*theta + d > 0")
        self.theta = theta
        self.g = g
        self.epsilon = (theta * g.c + g.d) / g.c
        self._powers: dict[int, "ModuleConstants"] = {}

    def power(self, n: int) -> "ModuleConstants":
        if n < 1:
            raise ValueError("module degree must be >= 1")
        if n not in self._powers:
            gn = self.g**n
            eps = (self.theta * gn.c + gn.d) / gn.c
            self._powers[n] = ModuleConstants(matrix=gn, eps=float(eps))
        return self._powers[n]

    def __repr__(self):
        return f"RMData(theta={self.theta!r}, g={self.g.to_list()})"


@dataclass(frozen=True)
class ModuleConstants:
    """Cached per-degree constants: g^n and epsilon_n = (c_n*theta + d_n)/c_n."""

    matrix: SL2Matrix
    eps: float

    @property
    def c(self) -> int:
        return self.matrix.c

    @property
    def a(self) -> int:
        return self.matrix.a

    @property
    def d(self) -> int:
        return self.matrix.d


@lru_cache(maxsize=4096)
def unit_phase(t: QuadIrr, k: int = 1) -> complex:
    """e(k*t) = exp(2*pi*i*k*t), evaluated after exact reduction of k*t mod 1.

    The reduction keeps the argument in [0, 1) no matter how large k*t is, so
    the phase is accurate to rounding even for huge exact numerators.  It runs
    on the integers of k*t = (k*p + k*q*sqrt(D))/r alone: one floor, then the
    correctly rounded double of the fractional part.
    """
    p, q = t.p * k, t.q * k
    frac = _to_float(p - _floor(p, q, t.D, t.r) * t.r, q, t.D, t.r)
    return cmath.exp(2j * math.pi * frac)
