import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rmtorus.qfield import QuadIrr
from rmtorus.torus_alg import TorusElement, phase

GOLDEN = QuadIrr.parse("(1+sqrt5)/2")
TEST5 = QuadIrr.parse("(-5+sqrt5)/10")

_SQUAREFREE = [D for D in range(2, 201) if all(D % (k * k) for k in range(2, 15))]
# (p + q*sqrt(D))/r over random squarefree D <= 200; q = 0 gives rationals
quad_irrs = st.builds(QuadIrr, st.integers(-60, 60), st.integers(-9, 9),
                      st.integers(1, 40), st.sampled_from(_SQUAREFREE))
# exponents up to +-60, so that m*p*theta needs its exact reduction mod 1
supports = st.dictionaries(
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    max_size=12,
)


def _reference_mul(x, y):
    """The per-term product: one phase() call for every pair of terms."""
    out = {}
    for (n, m), a in x.coeffs.items():
        for (p, q), b in y.coeffs.items():
            w = a * b * phase(x.theta, m * p).conjugate()
            key = (n + p, m + q)
            out[key] = out.get(key, 0.0) + w
    return TorusElement(x.theta, out)


def _random_element(rng, theta, support=20):
    coeffs = {}
    for _ in range(support):
        n = int(rng.integers(-6, 7))
        m = int(rng.integers(-6, 7))
        coeffs[(n, m)] = complex(rng.standard_normal(), rng.standard_normal())
    return TorusElement(theta, coeffs)


def test_defining_relation():
    # U*V = e(theta) V*U; the only rounding is |e(theta)|^2 != 1, a few ulps
    for theta in [GOLDEN, TEST5, 0.3178]:
        u, v = TorusElement.u(theta), TorusElement.v(theta)
        lhs = u * v
        rhs = (v * u).scaled(phase(theta, 1))
        assert lhs.distance(rhs) < 1e-15


def test_monomial_product_rule():
    theta = GOLDEN
    x = TorusElement.monomial(theta, 2, 3, 1.5)
    y = TorusElement.monomial(theta, -1, 4, 2.0)
    z = x * y
    assert z.support() == {(1, 7)}
    expected = 3.0 * phase(theta, 3 * -1).conjugate()
    assert abs(z.coeffs[(1, 7)] - expected) < 1e-15


@given(theta=st.one_of(quad_irrs, st.floats(-10, 10)), xs=supports, ys=supports)
@example(theta=GOLDEN, xs={}, ys={(3, -60): 1 + 2j})
@example(theta=GOLDEN, xs={(-7, 41): -0.5j}, ys={})
@example(theta=0.3178, xs={}, ys={})
def test_product_matches_per_term_reference(theta, xs, ys):
    # the phase table changes no arithmetic: same coefficients, same key order
    x, y = TorusElement(theta, xs), TorusElement(theta, ys)
    got, want = x * y, _reference_mul(x, y)
    assert list(got.coeffs.items()) == list(want.coeffs.items())


@given(quad_irrs)
def test_quadirr_parse_round_trip(t):
    assert QuadIrr.parse(str(t)) == t


def test_unit_is_identity():
    rng = np.random.default_rng(1)
    one = TorusElement.unit(GOLDEN)
    x = _random_element(rng, GOLDEN)
    assert (one * x).distance(x) == 0.0
    assert (x * one).distance(x) == 0.0


def test_u_plus_v_square():
    # (U+V)^2 = U^2 + V^2 + (1 + e(-theta)) UV, a hand-checkable expansion
    theta = GOLDEN
    u, v = TorusElement.u(theta), TorusElement.v(theta)
    sq = (u + v) * (u + v)
    w = phase(theta, 1).conjugate()
    want = TorusElement(theta, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): 1.0 + w})
    assert sq.distance(want) < 1e-15


def test_associativity_random():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(30):
        x = _random_element(rng, TEST5, 8)
        y = _random_element(rng, TEST5, 8)
        z = _random_element(rng, TEST5, 8)
        scale = max(1.0, x.norm1() * y.norm1() * z.norm1())
        worst = max(worst, ((x * y) * z).distance(x * (y * z)) / scale)
    assert worst < 1e-12


def test_star_involution_and_antimultiplicativity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = _random_element(rng, GOLDEN, 10)
        y = _random_element(rng, GOLDEN, 10)
        assert x.star().star().distance(x) < 1e-14
        assert (x * y).star().distance(y.star() * x.star()) < 1e-12
        # star is conjugate-linear
        assert (x.scaled(2j)).star().distance(x.star().scaled(-2j)) == 0.0


def test_trace_properties():
    rng = np.random.default_rng(4)
    one = TorusElement.unit(TEST5)
    assert one.trace() == 1.0
    for _ in range(20):
        x = _random_element(rng, TEST5, 12)
        y = _random_element(rng, TEST5, 12)
        assert abs((x * y).trace() - (y * x).trace()) < 1e-12
        p = (x * x.star()).trace()
        assert abs(p.imag) < 1e-12
        assert p.real >= 0.0
        # trace(x* x) recovers the l2 mass of the coefficients
        mass = sum(abs(a) ** 2 for a in x.coeffs.values())
        assert abs(p.real - mass) < 1e-10


def test_derivations_on_monomials():
    theta = GOLDEN
    x = TorusElement.monomial(theta, 3, -2, 1.0 + 0.5j)
    d1 = x.derive("d1")
    d2 = x.derive("d2")
    assert d1.coeffs[(3, -2)] == 2j * math.pi * 3 * (1.0 + 0.5j)
    assert d2.coeffs[(3, -2)] == 2j * math.pi * -2 * (1.0 + 0.5j)
    tau = 0.3 + 1.1j
    dt = x.derive("dtau", tau)
    assert abs(dt.coeffs[(3, -2)] - 2j * math.pi * (3 * tau - 2) * (1.0 + 0.5j)) < 1e-15


def test_dtau_eigenvalue_on_uv():
    # UV is a delta_tau eigenvector with eigenvalue 2*pi*i*(tau + 1)
    theta, tau = TEST5, 0.3 + 1.1j
    uv = TorusElement.u(theta) * TorusElement.v(theta)
    assert uv.derive("dtau", tau).distance(uv.scaled(2j * math.pi * (tau + 1))) < 1e-14


def test_leibniz_rule():
    # residuals are relative: scaled by the norms of the factors
    rng = np.random.default_rng(5)
    tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
    worst = 0.0
    for _ in range(20):
        x = _random_element(rng, GOLDEN, 10)
        y = _random_element(rng, GOLDEN, 10)
        scale = max(1.0, x.norm1() * y.norm1())
        for which, arg in [("d1", None), ("d2", None), ("dtau", tau)]:
            lhs = (x * y).derive(which, arg)
            rhs = x.derive(which, arg) * y + x * y.derive(which, arg)
            worst = max(worst, lhs.distance(rhs) / scale)
    assert worst < 1e-12


def test_derivations_kill_trace():
    rng = np.random.default_rng(6)
    x = _random_element(rng, TEST5, 15)
    assert x.derive("d1").trace() == 0.0
    assert x.derive("d2").trace() == 0.0


def test_phase_exact_on_quadirr():
    # exact reduction: phase(theta, k) never loses the fractional part
    big = GOLDEN + 10**9
    assert abs(phase(big, 1) - phase(GOLDEN, 1)) == 0.0
    assert abs(abs(phase(GOLDEN, 7)) - 1.0) < 1e-15


def test_mixed_theta_rejected():
    with pytest.raises(ValueError):
        TorusElement.u(GOLDEN) * TorusElement.v(TEST5)
    with pytest.raises(ValueError):
        TorusElement.u(GOLDEN) + TorusElement.u(TEST5)


def test_unknown_derivation_rejected():
    with pytest.raises(ValueError):
        TorusElement.u(GOLDEN).derive("d3")
    with pytest.raises(ValueError):
        TorusElement.u(GOLDEN).derive("dtau")


def test_json_round_trip():
    rng = np.random.default_rng(8)
    x = _random_element(rng, TEST5, 9)
    y = TorusElement.from_json_dict(x.to_json_dict())
    assert y == x
    zf = TorusElement(0.25, {(1, 2): 1 - 1j})
    assert TorusElement.from_json_dict(zf.to_json_dict()) == zf
