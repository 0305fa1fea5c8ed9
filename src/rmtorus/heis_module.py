"""Heisenberg bimodules over the smooth torus algebra and their tensor products.

E = S(R) (x) C(Z/cZ) carries commuting left and right actions of the torus
algebra with the same parameter theta.  A ModuleElement is the one sum type:
a finite sum of terms f (x) phi, each f a single Gaussian atom of heis_rep
and phi a vector in C(Z/cZ).  E is a Heisenberg representation
restricted to lattice points, so each generator acts as one Heisenberg
element: a translation by t and a modulation e(s*x) on S(R), and the finite
Heisenberg element (0, m) of FiniteHeisenberg(c) on C(Z/cZ).  With
eps = (c*theta + d)/c and the entries of g^n for the degree-n module, the
generator table of (t, s, m) is

    right  (U) (-eps, 0, (-1, 0))       (V) (0, 1, (0, -d))
    left   (U) (-1/c, 0, (-a, 0))       (V) (0, 1/(c*eps), (0, -1))

and the inverses negate all three parts.  So the right action of the
generators sends f (x) phi to

    (U) f(x - eps) (x) phi([k-1])        (V) e(x) f (x) e(-d*k/c) phi([k])

and the left action to

    (U) f(x - 1/c) (x) phi([k-a])        (V) e(x/(c*eps)) f (x) e(-k/c) phi([k])

with e(z) = exp(2*pi*i*z).  Monomials U^n V^m act on the right by applying U
n times then V m times (xi.(ab) = (xi.a).b fixes all other compositions), and
on the left by applying V m times then U n times.  A generator's step, its
(t, s) and the target index and phase of each finite index, is built once per
degree of an RMData and kept with that degree's constants.  As every operator
moves each term's atom exactly in its parameters, the two sides of each
relation that module_residuals checks are finite sums of terms, compared on
coefficients, where terms whose atoms share (alpha, beta) add up; the first
step of every relation (right and left U and V of the probe) is taken once
and shared.

The balanced product E_{g^m} (x)_{A_theta} E_{g^n} -> E_{g^{m+n}} is realized
by averaging a plain tensor over the relation group generated by
W = (right action on the first factor) o (left action on the second)^{-1},
which makes the two-variable function descend to the quotient.  The invariant
functions are recovered along an affine section: writing N = m + n and
abbreviating the degree-k constants (a_k, c_k, d_k, eps_k), the value of the
product at (u, [j]) with u real and j mod c_N is the convergent series

    H(u, j) = sum_s  xi_S(x - s*eps_m) * xi_F[-s mod c_m]
                    * eta_S(y + s/c_n) * eta_F[(j + s*a_n) mod c_n]

with x = (u - j*eps_N)/(c_n*eps_n) and y = (u - j*eps_N) + j*eps_n.  One
checks directly from the operator table (using a_N = a_m*a_n + b_m*c_n,
c_m*eps_m*c_n*eps_n = c_N*eps_N and eps_n - eps_N = c_m/(c_n*c_N)) that H is
well defined in j mod c_N, balanced in the algebra action, and intertwines
the degree-N operator table on (u, j).  H is sampled for every j at once on a
deterministic grid, each nonzero-weight (j, s) term at every grid point, in
fixed-size blocks, with one s-window per pair of terms.  The exponents of
the pair's atoms at x and y add up to A*u^2 + L*u + C, where only L and C
depend on (j, s) and the offsets of x and y come from the exact integer
j*c_m + s*c_N; so a term costs one exp of L*u + C against the pair's
e(A*u^2).  The samples are summed per j and
expanded in the Gaussian-atom basis inherited from the factors by one
least-squares solve with a right-hand side per j, whose per-j residuals are
reported; max_residual is the largest residual norm over j divided by the
largest sample norm over j.  One SVD of the basis gives the solve and its
condition number.
For holomorphic factors (alpha_i = tau/(2*eps_i)) the
s-dependence of the u-linear phase cancels and the series collapses onto a
single atom per j whose coefficient is a theta constant; coord_ring builds the
ring's structure tensors from those closed forms and keeps balanced_product
as their independent witness.
"""

from __future__ import annotations

import math

import numpy as np

from .heis_rep import (FiniteHeisenberg, FiniteVector, GaussianAtom, apply_step,
                       holomorphic_vector, horner, lie_derivative)
from .qfield import RMData
from .torus_alg import TorusElement

_TWO_PI_I = 2j * math.pi

_COND_LIMIT = 1e12

# (j, s) candidates, and (pairs x points) values, per block of balanced_product;
# temporaries stay this size however large c_N times the s-window grows
_BLOCK = 1 << 14

# largest Im(A)*halfwidth^2 at which balanced_product splits e(A*u^2) off an
# atom pair's rows (_quadratic_part)
_SPLIT_DECAY = 50.0


class IllConditionedSolve(RuntimeError):
    """Basis expansion rejected; .report carries the grid and condition data."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


class ModuleElement:
    """Element of E_{g^n}: a finite sum of (Gaussian atom) (x) (finite vector)
    terms, in the order given; terms whose atom is zero are dropped."""

    __slots__ = ("data", "degree", "terms")

    def __init__(self, data: RMData, degree: int, terms):
        if degree < 1:
            raise ValueError("module degree must be >= 1")
        consts = data.power(degree)
        terms = tuple((a, f) for a, f in terms if not a.is_zero())
        for _, f in terms:
            if f.c != consts.c:
                raise ValueError(f"finite factor has modulus {f.c}, expected {consts.c}")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "degree", int(degree))
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("ModuleElement is immutable")

    @property
    def consts(self):
        return self.data.power(self.degree)

    @classmethod
    def single(cls, data: RMData, degree: int, f: GaussianAtom, phi: FiniteVector) -> "ModuleElement":
        return cls(data, degree, [(f, phi)])

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        if other.degree != self.degree:
            raise ValueError("cannot add elements of different degrees")
        return ModuleElement(self.data, self.degree, self.terms + other.terms)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + other.scaled(-1.0)

    def scaled(self, z) -> "ModuleElement":
        return ModuleElement(self.data, self.degree, [(a.scaled(z), f) for a, f in self.terms])

    def map_atoms(self, op) -> "ModuleElement":
        return ModuleElement(self.data, self.degree, [(op(a), f) for a, f in self.terms])

    def __repr__(self):
        return f"ModuleElement(degree={self.degree}, c={self.consts.c}, {len(self.terms)} terms)"


# -- generator actions --------------------------------------------------------


# the generator table of the module docstring, from the degree-n constants
_GENERATORS = {
    ("right", "U"): lambda k: (-k.eps, 0.0, (-1, 0)),
    ("right", "V"): lambda k: (0.0, 1.0, (0, -k.d)),
    ("left", "U"): lambda k: (-1.0 / k.c, 0.0, (-k.a, 0)),
    ("left", "V"): lambda k: (0.0, 1.0 / (k.c * k.eps), (0, -1)),
}


def _apply_gen(side: str, gen: str, elem: ModuleElement) -> ModuleElement:
    """One generator step: f (x) phi -> (translated, modulated f) (x) U_{(0, m)} phi.

    The step (t, s, FiniteHeisenberg step of (0, m)) is built on the first use
    of each (side, gen) at a degree and kept with that degree's constants.
    """
    if gen not in ("U", "Uinv", "V", "Vinv"):
        raise ValueError(f"unknown generator {gen!r}")
    k = elem.consts
    if (side, gen) not in k.steps:
        t, s, (m1, m2) = _GENERATORS[side, gen[0]](k)
        if gen.endswith("inv"):
            t, s, m1, m2 = -t, -s, -m1, -m2
        G = FiniteHeisenberg(k.c)
        k.steps[side, gen] = t, s, G.step(G.element(0, m1, m2))
    t, s, step = k.steps[side, gen]
    terms = []
    for f, phi in elem.terms:
        # each generator moves only one of the two; translate(0) would still
        # re-expand every atom
        if t:
            f = f.translate(t)
        if s:
            f = f.modulate(s)
        terms.append((f, apply_step(step, phi)))
    return ModuleElement(elem.data, elem.degree, terms)


def _act_monomials(side: str, a, xi: ModuleElement) -> ModuleElement:
    if isinstance(a, str):
        return _apply_gen(side, a, xi)
    if not isinstance(a, TorusElement) or a.a.ndim != 2:
        raise TypeError(f"{side}_act expects a generator name or a single TorusElement")
    out = ModuleElement(xi.data, xi.degree, [])
    for (n, m), coef in a.coeffs.items():
        us = ["U" if n > 0 else "Uinv"] * abs(n)
        vs = ["V" if m > 0 else "Vinv"] * abs(m)
        term = xi
        for gen in (us + vs if side == "right" else vs + us):
            term = _apply_gen(side, gen, term)
        out = out + term.scaled(coef)
    return out


def right_act(a, xi: ModuleElement) -> ModuleElement:
    """xi . a.  Strings name generators; a TorusElement acts monomial by monomial.

    A monomial U^n V^m acts as n right-U steps followed by m right-V steps,
    so that xi.(ab) = (xi.a).b holds for the algebra product.
    """
    return _act_monomials("right", a, xi)


def left_act(a, xi: ModuleElement) -> ModuleElement:
    """a . xi.  A monomial U^n V^m acts as m left-V steps then n left-U steps,
    so that (ab).xi = a.(b.xi)."""
    return _act_monomials("left", a, xi)


# -- connections ---------------------------------------------------------------


def connection(i: int, xi: ModuleElement) -> ModuleElement:
    """nabla_1 = multiplication by 2*pi*i*x/eps_n, nabla_2 = d/dx: the Lie
    derivatives B and A of the real representation with eps = eps_n."""
    if i not in (1, 2):
        raise ValueError("connection direction must be 1 or 2")
    eps = xi.consts.eps
    return xi.map_atoms(lambda a: lie_derivative(a, "BA"[i - 1], eps))


def curvature(xi: ModuleElement) -> ModuleElement:
    """[nabla_1, nabla_2] xi; its coefficients equal those of -(2*pi*i/eps_n) xi exactly."""
    return connection(1, connection(2, xi)) - connection(2, connection(1, xi))


def curvature_scalar(data: RMData, degree: int) -> complex:
    return -_TWO_PI_I / data.power(degree).eps


def holomorphic_element(data: RMData, degree: int, tau: complex, k: int = 0,
                        weights: FiniteVector | None = None) -> ModuleElement:
    """f_{tau,n} (x) phi with phi = delta_k by default."""
    consts = data.power(degree)
    f = holomorphic_vector(tau, consts.eps)
    phi = weights if weights is not None else FiniteVector.delta(consts.c, k)
    return ModuleElement.single(data, degree, f, phi)


# -- balanced product ----------------------------------------------------------


def _atom_center(at: GaussianAtom) -> float:
    # where |e(alpha w^2 + beta w)| peaks
    return -at.beta.imag / (2.0 * at.alpha.imag)


def _pair_columns(xi: ModuleElement, eta: ModuleElement):
    """Target-basis data for every atom pair: (alpha_N, beta_N, max poly degree)."""
    cn = eta.consts.c
    pn = 1.0 / (cn * eta.consts.eps)
    cols: dict[tuple[complex, complex], int] = {}
    for a1, _ in xi.terms:
        for a2, _ in eta.terms:
            alpha = a1.alpha * pn * pn + a2.alpha
            beta = a1.beta * pn + a2.beta
            deg = a1.degree + a2.degree
            key = (alpha, beta)
            cols[key] = max(cols.get(key, 0), deg)
    return cols


def _quadratic_part(A: complex, us: np.ndarray, halfwidth: float):
    """e(A*u^2) on the grid, the row-independent part of an atom pair's exponent.

    A row's remaining factor e(L*u + C) is the pair's value over e(A*u^2), so
    it grows up to exp(2*pi*Im(A)*halfwidth^2) at the grid's ends.  Above
    _SPLIT_DECAY in Im(A)*halfwidth^2 (a target atom far narrower than the
    grid) that could overflow, and the part is None: A*u^2 then stays in
    each row's exponent.
    """
    if A.imag * halfwidth * halfwidth > _SPLIT_DECAY:
        return None
    return np.exp(_TWO_PI_I * A * us * us)


def _row_values(a1: GaussianAtom, a2: GaussianAtom, quad, pn: float, us: np.ndarray,
                X: np.ndarray, Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows w * a1(pn*u + X) * a2(u + Y) on the grid us; quad is the pair's
    _quadratic_part.

    The pair's exponent alpha_1*x^2 + beta_1*x + alpha_2*y^2 + beta_2*y at
    x = pn*u + X, y = u + Y is A*u^2 + L*u + C, where only L and C depend on
    the row.  So each row costs one exp of L*u + C, times the pair's e(A*u^2);
    the polynomials multiply in only above degree 0.
    """
    L = (2.0 * a1.alpha * X + a1.beta) * pn + 2.0 * a2.alpha * Y + a2.beta
    C = X * (a1.alpha * X + a1.beta) + Y * (a2.alpha * Y + a2.beta)
    t = np.multiply.outer(_TWO_PI_I * L, us)
    t += (_TWO_PI_I * C)[:, None]
    if quad is None:
        t += _TWO_PI_I * (a1.alpha * pn * pn + a2.alpha) * us * us
    np.exp(t, out=t)
    if quad is not None:
        t *= quad
    coef = w
    if a1.degree:
        t *= horner(a1.poly, np.add.outer(X, pn * us))
    else:
        coef = coef * a1.poly[0]
    if a2.degree:
        t *= horner(a2.poly, np.add.outer(Y, us))
    else:
        coef = coef * a2.poly[0]
    t *= coef[:, None]
    return t


def balanced_product(xi: ModuleElement, eta: ModuleElement, *, tol: float = 1e-9):
    """Image of xi (x) eta in E_{g^{m+n}} plus a residual report.

    Averages the plain tensor over the relation group, samples the result on
    the affine section described in the module docstring for every output
    index j at once, and expands in the Gaussian-atom basis inherited from the
    factors by one least-squares solve with a right-hand side per j.  Returns
    (ModuleElement of degree m+n with one term per basis column: its atom
    times the column's coefficients over j, report dict); raises IllConditionedSolve
    when the expansion matrix has condition number above 1e12.
    """
    if xi.data != eta.data:
        raise ValueError("factors must share the same RMData")
    data = xi.data
    m, n = xi.degree, eta.degree
    N = m + n
    km, kn, kN = data.power(m), data.power(n), data.power(N)
    cm, cn, cN = km.c, kn.c, kN.c
    an = kn.a
    eps_m, eps_n = km.eps, kn.eps

    cols = _pair_columns(xi, eta)
    if not cols:
        return ModuleElement(data, N, []), {"max_residual": 0.0, "grid_points": 0,
                                            "grid_halfwidth": 0.0, "columns": 0,
                                            "s_terms": 0}

    # grid: +-4 standard deviations of the widest target Gaussian, 8 points per basis
    # column, the solve's unknowns (the c_N outputs are right-hand sides)
    min_im = min(alpha.imag for alpha, _ in cols)  # > 0, as every atom has Im alpha > 0
    sigma = 1.0 / (2.0 * math.sqrt(math.pi * min_im))
    max_deg = max(cols.values())
    halfwidth = 4.0 * sigma * (1.0 + 0.15 * max_deg)
    points = max(48, 8 * sum(d + 1 for d in cols.values()))
    us = np.linspace(-halfwidth, halfwidth, points)

    # truncation radius: Gaussian tail of the averaging series below 1e-3*tol
    q = min(min(a1.alpha.imag * eps_m * eps_m for a1, _ in xi.terms),
            min(a2.alpha.imag / (cn * cn) for a2, _ in eta.terms))
    radius = math.sqrt(max(math.log(1.0 / (1e-3 * tol)), 1.0) / (2.0 * math.pi * q))
    radius = int(math.ceil(radius)) + 2 + 2 * max_deg

    pn = 1.0 / (cn * eps_n)
    basis_keys = sorted(cols.keys(), key=lambda ab: (ab[0].real, ab[0].imag, ab[1].real, ab[1].imag))
    # one basis column per atom x^p * e(alpha*x^2 + beta*x), sampled on the grid
    columns = [GaussianAtom((0,) * p + (1,), alpha, beta) for alpha, beta in basis_keys
               for p in range(cols[(alpha, beta)] + 1)]
    B = np.column_stack([at.value(us) for at in columns])
    # one SVD gives the condition number and the least-squares solve
    U, sv, Vh = np.linalg.svd(B, full_matrices=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    report: dict = {
        "grid_points": points,
        "grid_halfwidth": halfwidth,
        "columns": len(columns),
        "cond": cond,
        "truncation_radius": radius,
        "per_j_residual": [],
    }
    if cond > _COND_LIMIT:
        raise IllConditionedSolve(
            f"expansion basis condition number {cond:.3e} exceeds {_COND_LIMIT:.1e}", report)

    s_terms_max = 0
    H = np.zeros((cN, points), dtype=complex)
    # the (j, s) term samples x = pn*u + X and y = u + Y at the offsets
    # X = x0[j] - s*eps_m = -eps_m*k/c_N and Y = y0[j] + s/c_n = k/(c_n*c_N) of
    # the exact integer k = j*c_m + s*c_N (c_m*eps_m*c_n*eps_n = c_N*eps_N and
    # eps_n - eps_N = c_m/(c_n*c_N)); no offset carries a cancellation error
    # into the u-linear phases
    js = np.arange(cN)
    x0 = -eps_m * cm * js / cN
    y0 = cm * js / (cn * cN)
    rows = max(1, _BLOCK // points)
    for a1, f1 in xi.terms:
        for a2, f2 in eta.terms:
            quad = _quadratic_part(a1.alpha * pn * pn + a2.alpha, us, halfwidth)
            # s-window of every j, then its (j, s) pairs walked in blocks; only
            # pairs of nonzero weight are evaluated, and summed per j in order
            centers = np.array([(x0 - _atom_center(a1) + sg * pn * halfwidth) / eps_m
                                for sg in (-1, 1)]
                               + [cn * (_atom_center(a2) - y0 + sg * halfwidth)
                                  for sg in (-1, 1)])
            s_lo = np.floor(centers.min(axis=0)).astype(int) - radius
            counts = np.ceil(centers.max(axis=0)).astype(int) + radius - s_lo + 1
            s_terms_max = max(s_terms_max, int(counts.max()))
            starts = np.concatenate(([0], np.cumsum(counts)))
            w1, w2 = np.array(f1.entries), np.array(f2.entries)
            for c0 in range(0, starts[-1], _BLOCK):
                cand = np.arange(c0, min(c0 + _BLOCK, starts[-1]))
                j = np.searchsorted(starts, cand, side="right") - 1
                s = s_lo[j] + cand - starts[j]
                w = w1[(-s) % cm] * w2[(j + s * an) % cn]
                hit = np.flatnonzero(w)
                for b in range(0, hit.size, rows):
                    p = hit[b:b + rows]
                    jp = j[p]
                    k = jp * cm + s[p] * cN
                    vals = _row_values(a1, a2, quad, pn, us, -eps_m * k / cN,
                                       k / (cn * cN), w[p])
                    first = np.flatnonzero(np.diff(jp, prepend=-1))
                    H[jp[first]] += np.add.reduceat(vals, first, axis=0)
    coef = (Vh.conj().T / sv) @ (U.conj().T @ H.T)
    hn = np.linalg.norm(H, axis=1)
    rn = np.linalg.norm(B @ coef - H.T, axis=0)
    report["per_j_residual"] = np.where(hn > 0, rn / np.maximum(hn, 1e-300), 0.0).tolist()
    # relative to the largest j: a j whose samples are zero to working
    # precision reads near 1 in per_j_residual, but is only rounding noise
    report["max_residual"] = float(rn.max() / max(hn.max(), 1e-300))
    # one term per basis column: the column's atom times its coefficients over j
    out_terms = [(at, FiniteVector(row.tolist()))
                 for at, row in zip(columns, coef) if np.any(row)]
    report["s_terms"] = s_terms_max
    return ModuleElement(data, N, out_terms), report


# -- relation diagnostics ------------------------------------------------------


def relative_distance(p: ModuleElement, q: ModuleElement) -> float:
    """max|P - Q| / max|P|, where P maps each (alpha, beta, k) to the coefficient
    of x^k * e(alpha*x^2 + beta*x) in p times its finite vector, summed over the
    terms of p whose atom has that key, and Q does the same for q.  NaN or inf if
    a coefficient overflowed; ValueError if P is 0, as when p's atoms underflowed."""
    P, Q = {}, {}
    # an overflow ends as NaN in the result, not as a warning
    with np.errstate(all="ignore"):
        for out, xi in ((P, p), (Q, q)):
            for at, f in xi.terms:
                phi = np.array(f.entries)
                for k, z in enumerate(at.poly):
                    out[at.alpha, at.beta, k] = out.get((at.alpha, at.beta, k), 0) + z * phi
        top = np.abs(list(P.values())).max(initial=0.0)
        gap = np.abs([P.get(k, 0) - Q.get(k, 0) for k in P.keys() | Q.keys()]).max(initial=0.0)
        if top == 0:
            raise ValueError("the probe has no atoms left to compare")
        return float(gap / top)


def module_residuals(data: RMData, degree: int, tau: complex = 0.3 + 1.1j) -> tuple[dict, dict]:
    """Named residuals of the bimodule relations on a probe vector, each the largest
    relative_distance of a relation's two sides over its cases (NaN if one is), and their
    rounding bound.  To first order in u = 2^-53: a side's two steps from beta = 0 each
    translate by |t| <= T = max(eps_n, 1/c_n), evaluating e(alpha t^2 + beta t), or add
    |s| <= S = max(1, 1/(c_n eps_n)) to beta, so with a turn for finite phases and e(theta)
    no phase argument exceeds A_n = 1 + 3|alpha| T^2 + S T; four translations within
    (3 + 16 pi A_n)u, five other phases within (3 + 6 pi)u and twelve 3u products sum to
    below 32 (1 + 2 pi A_n)u."""
    from .qfield import unit_phase

    k = data.power(degree)
    probe = holomorphic_element(data, degree, tau,
                                weights=FiniteVector([1.0 + 0.0j] * k.c))
    eth = unit_phase(data.theta)
    # the first step of every relation, taken once
    right = {b: right_act(b, probe) for b in ("U", "V")}
    left = {a: left_act(a, probe) for a in ("U", "V")}
    u, v = right["U"], right["V"]
    sides = {
        "right_relation": [(right_act("V", u), right_act("U", v).scaled(eth))],
        "left_relation": [(left_act("U", left["V"]), left_act("V", left["U"]).scaled(eth))],
        "bimodule_commutation": [(left_act(a, right[b]), right_act(b, left[a]))
                                 for a in ("U", "V") for b in ("U", "V")],
        # Leibniz: nabla_1 pairs with delta_1 (2*pi*i on U), nabla_2 with delta_2
        "leibniz": [(connection(1, u), right_act("U", connection(1, probe)) + u.scaled(_TWO_PI_I)),
                    (connection(2, v), right_act("V", connection(2, probe)) + v.scaled(_TWO_PI_I))],
        "curvature": [(curvature(probe), probe.scaled(curvature_scalar(data, degree)))],
    }
    res = {name: float(np.max([relative_distance(a, b) for a, b in pairs]))
           for name, pairs in sides.items()}
    T, S = max(k.eps, 1.0 / k.c), max(1.0, 1.0 / (k.c * k.eps))
    A = 1 + 1.5 * abs(tau) / k.eps * T * T + S * T
    return {"degree": degree, **res}, dict.fromkeys(res, 32 * (1 + 2 * math.pi * A) * 2.0 ** -53)
