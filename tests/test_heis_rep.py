import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmtorus import heis_rep
from rmtorus.heis_rep import (
    FiniteHeisElement,
    FiniteHeisenberg,
    FiniteVector,
    GaussianAtom,
    HeisElement,
    RealHeisenberg,
    _act,
    _canon,
    _index_dtype,
    _mul,
    _numerator,
    _turns_scale,
    cis_turns,
    holomorphic_residual,
    holomorphic_vector,
    l2_distance,
    lie_derivative,
)


# a degree-1 atom with complex beta and a real-beta degree-0 one
_SAMPLE_ATOMS = (GaussianAtom((1.0, 0.5j), 0.3 + 0.7j, 0.1 - 0.2j),
                 GaussianAtom((2.0,), 1.1j, 0.4))


XS = np.linspace(-2.3, 2.1, 11)


# -- atom calculus --------------------------------------------------------------

def test_atom_value():
    a = GaussianAtom((1.0, 2.0), 0.5j, 1.0)  # (1 + 2x) e(0.5i x^2 + x)
    x = 0.7
    want = (1 + 2 * x) * cmath.exp(2j * math.pi * (0.5j * x * x + x))
    assert abs(a.value(x) - want) < 1e-14


def test_translate_matches_pointwise():
    t = 0.37
    for f in _SAMPLE_ATOMS:
        g = f.translate(t)
        for x in XS:
            assert abs(g.value(x) - f.value(x + t)) < 1e-12


def _binomial_translate(f, t):
    """poly(x + t) by binomial re-expansion, the reference for the Taylor shift."""
    t = complex(t) if isinstance(t, complex) else float(t)
    n = len(f.poly)
    shifted = [0j] * n
    powers = [1.0 + 0j]
    for _ in range(n - 1):
        powers.append(powers[-1] * t)
    for k, c in enumerate(f.poly):
        if c == 0:
            continue
        binom = 1
        for j in range(k, -1, -1):
            shifted[j] += c * binom * powers[k - j]
            binom = binom * j // (k - j + 1) if j else binom
    scalar = heis_rep._e(f.alpha * t * t + f.beta * t)
    poly = tuple(scalar * c for c in shifted)
    return GaussianAtom(poly, f.alpha, f.beta + (f.alpha + f.alpha) * t)


_coefficients = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@given(poly=st.lists(_coefficients, min_size=1, max_size=6),
       t=st.one_of(st.floats(-4, 4), st.complex_numbers(max_magnitude=4, allow_nan=False,
                                                        allow_infinity=False)))
def test_translate_matches_the_binomial_reference(poly, t):
    # the same atom to rounding at every degree, and the same bits at degree
    # <= 1, the only translations module-check and the ring witness make
    f = GaussianAtom(poly, 0.3 + 0.7j, 0.1 - 0.2j)
    got, want = f.translate(t), _binomial_translate(f, t)
    assert (got.alpha, got.beta, got.degree) == (want.alpha, want.beta, f.degree)
    if f.degree <= 1:
        assert got.poly == want.poly
    scalar = abs(heis_rep._e(f.alpha * t * t + f.beta * t))
    for j, (a, b) in enumerate(zip(got.poly, want.poly)):
        size = sum(math.comb(k, j) * abs(c) * abs(t) ** (k - j)
                   for k, c in enumerate(f.poly) if k >= j)
        assert abs(a - b) <= 16 * len(poly) * 2.0 ** -53 * scalar * size


def test_modulate_matches_pointwise():
    s = -1.21
    for f in _SAMPLE_ATOMS:
        g = f.modulate(s)
        for x in XS:
            assert abs(g.value(x) - cmath.exp(2j * math.pi * s * x) * f.value(x)) < 1e-12


def test_times_x_matches_pointwise():
    for f in _SAMPLE_ATOMS:
        g = f.times_x()
        for x in XS:
            assert abs(g.value(x) - x * f.value(x)) < 1e-13


def test_derivative_matches_finite_difference():
    h = 1e-6
    for f in _SAMPLE_ATOMS:
        g = f.derivative()
        for x in XS:
            fd = (f.value(x + h) - f.value(x - h)) / (2 * h)
            assert abs(g.value(x) - fd) < 1e-7 * (1 + abs(fd))


def test_atom_requires_decay():
    with pytest.raises(ValueError):
        GaussianAtom((1.0,), 0.5 - 0.1j)
    with pytest.raises(ValueError):
        GaussianAtom((1.0,), 1.0)  # real alpha: no decay


# -- real Heisenberg group -------------------------------------------------------

def test_real_cocycle_identity():
    # psi(x,y) psi(x+y,z) = psi(y,z) psi(x,y+z)
    rng = np.random.default_rng(11)
    G = RealHeisenberg(0.8472)
    worst = 0.0
    for _ in range(50):
        x, y, z = (tuple(rng.uniform(-3, 3, 2)) for _ in range(3))
        xy = (x[0] + y[0], x[1] + y[1])
        yz = (y[0] + z[0], y[1] + z[1])
        lhs = G.cocycle(x, y) * G.cocycle(xy, z)
        rhs = G.cocycle(y, z) * G.cocycle(x, yz)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_real_representation_property():
    rng = np.random.default_rng(12)
    G = RealHeisenberg(1.618033988749895)
    worst = 0.0
    for _ in range(20):
        h1 = G.element(cmath.exp(2j * math.pi * rng.uniform()), *rng.uniform(-2, 2, 2))
        h2 = G.element(cmath.exp(2j * math.pi * rng.uniform()), *rng.uniform(-2, 2, 2))
        for f in _SAMPLE_ATOMS:
            lhs = G.act(h1, G.act(h2, f))
            rhs = G.act(G.mul(h1, h2), f)
            for x in XS:
                worst = max(worst, abs(lhs.value(x) - rhs.value(x)))
    assert worst < 1e-12


def _quad_l2_distance(ap, aq):
    """||p - q|| / ||p|| of two degree-0 atoms by 40-digit quadrature."""

    def atom(at, x):
        return mpmath.mpc(at.poly[0]) * mpmath.expjpi(
            2 * (mpmath.mpc(at.alpha) * x * x + mpmath.mpc(at.beta) * x))

    with mpmath.workdps(40):
        pts = [-mpmath.inf, mpmath.mpf(-ap.beta.imag) / (2 * mpmath.mpf(ap.alpha.imag)), mpmath.inf]
        num = mpmath.quad(lambda x: abs(atom(ap, x) - atom(aq, x)) ** 2, pts)
        den = mpmath.quad(lambda x: abs(atom(ap, x)) ** 2, pts)
        return mpmath.sqrt(num / den)


@pytest.mark.parametrize("dbeta, ratio, rel, absolute", [
    (1e-3 + 0.6e-3j, 1 + 2e-4j, 1e-10, 0.0),
    (1e-12 - 0.7e-12j, 1.0, 0.0, 1e-15),
    (0.0, 1 + 1e-14, 0.0, 1e-15),
    (0.3 - 0.2j, 0.5 + 0.8j, 1e-10, 0.0),
], ids=["dbeta-1e-3", "dbeta-1e-12", "coefficient-gap-1e-14", "far-apart"])
def test_l2_distance_matches_quadrature(dbeta, ratio, rel, absolute):
    # the closed form has no cancellation: a Gram expansion ||p||^2 + ||q||^2
    # - 2 Re<p, q> would lose everything below about 1e-8 here
    alpha, beta, a = 0.3 + 0.9j, 0.2 - 0.1j, 1.2 - 0.4j
    p = GaussianAtom((a,), alpha, beta)
    q = GaussianAtom((a * ratio,), alpha, beta + dbeta)
    got, want = l2_distance(p, q), _quad_l2_distance(p, q)
    assert abs(got - want) <= rel * want + absolute
    assert l2_distance(p, p) == 0.0


def test_l2_distance_needs_one_matching_atom():
    # another alpha, a degree-1 atom, a zero atom, on either side
    p = GaussianAtom((1.0,), 1j)
    for q in (GaussianAtom((1.0,), 2j), GaussianAtom((1.0, 1.0), 1j), GaussianAtom((0.0,), 1j)):
        for pair in ((p, q), (q, p)):
            with pytest.raises(ValueError):
                l2_distance(*pair)


def test_real_inverse():
    G = RealHeisenberg(0.5)
    h = G.element(cmath.exp(0.77j), 1.25, -0.5)
    e = G.mul(h, G.inverse(h))
    assert e.y == (0.0, 0.0)
    assert abs(e.lam - 1.0) < 1e-15


def test_real_pairing_is_commutator_phase():
    G = RealHeisenberg(0.9)
    x, y = (0.3, -1.2), (0.7, 0.4)
    assert abs(G.pairing(x, y) - G.cocycle(x, y) / G.cocycle(y, x)) < 1e-15


def test_heis_element_modulus_enforced():
    with pytest.raises(ValueError):
        HeisElement(1.5 + 0.0j, (0.0, 0.0))
    with pytest.raises(ValueError):
        RealHeisenberg(0.0)


# -- finite Heisenberg group ------------------------------------------------------

def act_basis(G, h, k: int) -> tuple[Fraction, int]:
    """Exact action on a basis delta through the integer kernel, one index at a
    time: U delta_k = e(turns) * delta_index; the reference for G.act."""
    L = _turns_scale(G.c, h.turns)
    t, n = _act(_numerator(h.turns, L), *h.m, k, G.c, L)
    return Fraction(t, L), n


def cocycle_turns(G, x, y) -> Fraction:
    """Central turns of (0, x)(0, y) against (0, x + y), read off the kernel's _mul."""
    c, L = G.c, 2 * G.c
    t = _mul(0, *x, 0, *y, c, L)[0] - _canon(0, x[0] + y[0], x[1] + y[1], c, L)[0]
    return Fraction(t % L, L)


def _representation_by_elements(G, z1, z2) -> bool:
    """The per-element check through mul and act_basis: U_{h1} U_{h2} delta_k
    = U_{h1 h2} delta_k for every h1 = (z1, m), h2 = (z2, p) and k."""
    c = G.c
    for m1 in range(c):
        for m2 in range(c):
            for p1 in range(c):
                for p2 in range(c):
                    h1 = G.element(z1, m1, m2)
                    h2 = G.element(z2, p1, p2)
                    h12 = G.mul(h1, h2)
                    for k in range(c):
                        t2, k2 = act_basis(G, h2, k)
                        t1, k1 = act_basis(G, h1, k2)
                        if act_basis(G, h12, k) != ((t1 + t2) % 1, k1):
                            return False
    return True


@pytest.mark.parametrize("z1, z2, cs", [(0, 0, range(1, 9)),
                                        (Fraction(1, 3), Fraction(2, 5), range(1, 9)),
                                        (Fraction(1, 3), Fraction(2, 7), range(1, 9)),
                                        (Fraction(1, 3), Fraction(2, 5), range(9, 13))],
                         ids=["0-0", "1_3-2_5", "1_3-2_7", "1_3-2_5-c9-12"])
def test_finite_rep_property_exhaustive_exact(z1, z2, cs):
    # U_{h1} U_{h2} = U_{h1 h2} on every basis vector, as exact rationals, by
    # elements (up to c = 8; beyond it the loop is too slow) and by the
    # whole-group integer check; the turns 1/3 and 2/5 for every c <= 12
    for c in cs:
        G = FiniteHeisenberg(c)
        assert c > 8 or _representation_by_elements(G, z1, z2)
        assert G.representation_exact(z1, z2)


def test_representation_exact_beyond_int64():
    # a denominator that pushes L*c past int64 switches to exact Python ints;
    # a huge numerator is reduced mod L and stays on int64
    G = FiniteHeisenberg(5)
    assert G.representation_exact(Fraction(1, 10 ** 30 + 7), Fraction(-2, 5))
    assert G.representation_exact(Fraction(10 ** 20 + 1, 3), Fraction(2, 7))


def _flipped_cocycle_mul(t, m1, m2, s, p1, p2, c, L):
    return heis_rep._canon(t + s - L // (2 * c) * (m1 * p2 - p1 * m2), m1 + p1, m2 + p2, c, L)


def _unfolded_canon(t, m1, m2, c, L):
    return t % L, m1 % c, m2 % c


@pytest.mark.parametrize("name, broken", [("_mul", _flipped_cocycle_mul),
                                          ("_canon", _unfolded_canon)],
                         ids=["flipped-cocycle", "no-half-turn-fold"])
def test_representation_exact_rejects_a_broken_kernel(monkeypatch, name, broken):
    # the whole-group check is not vacuous: with the cocycle's sign flipped, or
    # without the half-turn folded into the phase, it fails for every c > 1
    monkeypatch.setattr(heis_rep, name, broken)
    for c in range(2, 9):
        assert not FiniteHeisenberg(c).representation_exact(Fraction(1, 3), Fraction(2, 5))


def test_finite_mul_associative_and_inverse_exact():
    G = FiniteHeisenberg(5)
    a = G.element(Fraction(1, 3), 2, 4)
    b = G.element(Fraction(1, 7), 1, 3)
    d = G.element(Fraction(2, 5), 4, 2)
    assert G.mul(G.mul(a, b), d) == G.mul(a, G.mul(b, d))
    e = G.mul(a, G.inverse(a))
    assert e.turns == 0 and e.m == (0, 0)


def test_finite_cocycle_identity_exact():
    # cocycle_turns reads the cocycle off the integer kernel's product; a
    # sign-flipped kernel still satisfies the identity, so pin the values too
    G = FiniteHeisenberg(6)
    for x in [(1, 2), (5, 3)]:
        for y in [(2, 2), (4, 1)]:
            assert cocycle_turns(G, x, y) == Fraction(x[0] * y[1] - y[0] * x[1], 12) % 1
            for z in [(3, 5), (1, 0)]:
                xy = (x[0] + y[0], x[1] + y[1])
                yz = (y[0] + z[0], y[1] + z[1])
                lhs = (cocycle_turns(G, x, y) + cocycle_turns(G, xy, z)) % 1
                rhs = (cocycle_turns(G, y, z) + cocycle_turns(G, x, yz)) % 1
                assert lhs == rhs


def test_lift_canonicalization():
    # operators depend on the pair mod 2c; the mod-c representative keeps the
    # lost information as a half-turn central correction
    h = FiniteHeisElement(Fraction(0), (5, 3), 4)
    assert h.m == (1, 3) and h.turns == Fraction(1, 2)
    G = FiniteHeisenberg(4)
    phi = FiniteVector.delta(4, 1)
    lifted = G.element(0, 5, 3)
    direct = G.element(Fraction(1, 2), 1, 3)
    assert G.act(lifted, phi) == G.act(direct, phi)
    # and a full 2c period in either coordinate is invisible
    assert G.element(0, 5 + 8, 3) == G.element(0, 5, 3)


def test_act_matches_act_basis():
    # every h = (z, m) on every basis vector: the array kernel in act against
    # the exact single-index act_basis; the last z pushes 4*L*c past int64, so
    # act runs the kernel on arrays of Python ints
    big = Fraction(1, 10 ** 30 + 7)
    for c in range(1, 9):
        G = FiniteHeisenberg(c)
        assert _index_dtype(c, _turns_scale(c, big)) is object
        for z in (0, Fraction(1, 3), Fraction(2, 7), big):
            for m1 in range(c):
                for m2 in range(c):
                    h = G.element(z, m1, m2)
                    for k in range(c):
                        turns, idx = act_basis(G, h, k)
                        want = FiniteVector.delta(c, idx).scaled(cis_turns(turns))
                        assert G.act(h, FiniteVector.delta(c, k)) == want


def test_act_finite_wrapper_and_modulus_guard():
    G = FiniteHeisenberg(3)
    h = G.element(0, 1, 2)
    phi = FiniteVector((1.0, 2.0, 3.0))
    assert phi[4] == 2.0  # indices wrap
    with pytest.raises(ValueError):
        G.act(h, FiniteVector((1.0, 2.0)))


def test_isotropic_classification():
    G = FiniteHeisenberg(4)
    assert G.isotropic_check([(1, 0)]) == "maximal_isotropic"
    assert G.isotropic_check([(2, 0)]) == "isotropic"
    assert G.isotropic_check([(1, 0), (0, 1)]) == "neither"
    assert G.isotropic_check([(0, 2)]) == "isotropic"


def test_pairing_nondegenerate_exhaustive():
    for c in range(1, 13):
        assert FiniteHeisenberg(c).pairing_nondegenerate()


# -- Lie algebra and the holomorphic vector ---------------------------------------

def test_lie_bracket():
    # [A, B] = (1/eps) C on generic atoms, pointwise
    eps = 1.618033988749895
    for f in _SAMPLE_ATOMS:
        ab = lie_derivative(lie_derivative(f, "B", eps), "A", eps)
        ba = lie_derivative(lie_derivative(f, "A", eps), "B", eps)
        want = lie_derivative(f, "C", eps).scaled(1.0 / eps)
        worst = max(abs(ab.value(x) - ba.value(x) - want.value(x)) for x in XS)
        assert worst < 1e-12


def test_holomorphic_vector_annihilated_exactly():
    rng = np.random.default_rng(13)
    for _ in range(20):
        tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3.0))
        eps = float(rng.uniform(0.2, 3.0))
        f = holomorphic_vector(tau, eps)
        res = holomorphic_residual(tau, f, eps)
        # structural zero: every coefficient is exactly 0
        assert res.is_zero() and all(z == 0 for z in res.poly)


def test_holomorphic_residual_detects_mismatch():
    f = holomorphic_vector(0.3 + 1.1j, 1.0)
    res = holomorphic_residual(0.3 + 1.2j, f, 1.0)
    assert max(abs(res.value(x)) for x in XS) > 1e-3


def test_holomorphic_vector_validation():
    with pytest.raises(ValueError):
        holomorphic_vector(0.3 - 1.1j, 1.0)
    with pytest.raises(ValueError):
        holomorphic_vector(1j, -2.0)
    with pytest.raises(ValueError):
        lie_derivative(_SAMPLE_ATOMS[0], "D", 1.0)
