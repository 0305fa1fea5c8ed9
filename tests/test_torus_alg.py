import math
import operator

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rmtorus import torus_alg
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


def _distance(x, y) -> float:
    return (x - y).norm1()


def _reference_mul(x, y):
    """The per-term product: one phase() call for every pair of terms."""
    out = {}
    for (n, m), a in x.coeffs.items():
        for (p, q), b in y.coeffs.items():
            w = a * b * phase(x.theta, m * p).conjugate()
            key = (n + p, m + q)
            out[key] = out.get(key, 0.0) + w
    return TorusElement(x.theta, out)


def _reference_combine(x, y, op):
    out = dict(x.coeffs)
    for k, b in y.coeffs.items():
        out[k] = op(out.get(k, 0.0), b)
    return TorusElement(x.theta, out)


def _reference_derive(x, which, tau=None):
    if which == "d1":
        f = lambda n, m: 2j * math.pi * n
    elif which == "d2":
        f = lambda n, m: 2j * math.pi * m
    else:
        tau = complex(tau)
        f = lambda n, m: 2j * math.pi * (tau * n + m)
    return TorusElement(x.theta, {(n, m): f(n, m) * a for (n, m), a in x.coeffs.items()})


# The dict-of-terms operations the arrays replaced, one per TorusElement
# method: the arrays must give the same terms, in the same order, bit for bit
_REFERENCE = {
    "__mul__": _reference_mul,
    "__add__": lambda x, y: _reference_combine(x, y, operator.add),
    "__sub__": lambda x, y: _reference_combine(x, y, operator.sub),
    "__neg__": lambda x: TorusElement(x.theta, {k: -a for k, a in x.coeffs.items()}),
    "scaled": lambda x, z: TorusElement(x.theta, {k: complex(z) * a for k, a in x.coeffs.items()}),
    "star": lambda x: TorusElement(x.theta, {
        (-n, -m): a.conjugate() * phase(x.theta, n * m).conjugate()
        for (n, m), a in x.coeffs.items()}),
    "trace": lambda x: x.coeffs.get((0, 0), 0.0 + 0.0j),
    "derive": _reference_derive,
    "norm1": lambda x: sum(abs(a) for a in x.coeffs.values()),
}


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
        assert _distance(lhs, rhs) < 1e-15


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


def _same_items(got, want):
    assert list(got.coeffs.items()) == list(want.coeffs.items())


def test_kernel_matches_reference_40x40():
    rng = np.random.default_rng(11)
    x, y = _random_element(rng, GOLDEN, 40), _random_element(rng, GOLDEN, 40)
    _same_items(x * y, _reference_mul(x, y))


def test_kernel_forms_products_in_real_arithmetic():
    # numpy's complex multiply (a*b*c on complex arrays) rounds 156 of these
    # 262 coefficients differently
    rng = np.random.default_rng(7)
    theta = QuadIrr.parse("sqrt2")
    x, y = _random_element(rng, theta), _random_element(rng, theta)
    _same_items(x * y, _reference_mul(x, y))


@pytest.mark.parametrize("block", [1, 7, 64, torus_alg._BLOCK])
def test_kernel_across_blocks(monkeypatch, block):
    # (x*y)*z spans several blocks of the default size (4096 pairs); small
    # blocks hold one row of pairs each
    monkeypatch.setattr(torus_alg, "_BLOCK", block)
    rng = np.random.default_rng(12)
    x, y, z = (_random_element(rng, TEST5, 30) for _ in range(3))
    xy = _reference_mul(x, y)
    assert len(xy.coeffs) * len(z.coeffs) > 2 * 4096
    _same_items(xy * z, _reference_mul(xy, z))
    _same_items(x * y, xy)


def test_kernel_float_theta_and_empty_operands():
    rng = np.random.default_rng(13)
    x, y = _random_element(rng, 0.3178), _random_element(rng, 0.3178)
    _same_items(x * y, _reference_mul(x, y))
    zero = TorusElement(0.3178)
    for got in (zero * y, x * zero, zero * zero):
        assert got.coeffs == {}


def _sparse_coeffs(rng, count=9):
    # exponents up to +-2^62: n*m overflows int64, and the keys span a box far
    # larger than their number
    return {(int(n), int(m)): complex(*rng.standard_normal(2))
            for n, m in rng.integers(-2**62, 2**62, size=(count, 2))}


def test_kernel_on_sparse_exponents():
    # keys far apart, up to the int64 edge: the kernel numbers the keys that
    # occur instead of every cell of their bounding box
    rng = np.random.default_rng(14)
    coeffs = [_sparse_coeffs(rng) for _ in range(2)]
    coeffs[0][(0, 0)] = 1.5 - 2j
    coeffs[1][(1, -1)] = -0.5j
    x, y = TorusElement(GOLDEN, coeffs[0]), TorusElement(GOLDEN, coeffs[1])
    _same_items(x * y, _reference_mul(x, y))
    _same_items(x * x.star(), _reference_mul(x, x.star()))


def _operand_pairs():
    rng = np.random.default_rng(15)
    x = _random_element(rng, GOLDEN, 30)
    ys = _random_element(rng, GOLDEN, 30).coeffs
    first = next(iter(x.coeffs.items()))
    y = TorusElement(GOLDEN, {**ys, first[0]: -first[1]})  # a sum that cancels
    fx = _random_element(rng, 0.3178, 20)
    sx, sy = _sparse_coeffs(rng), _sparse_coeffs(rng)
    sy[next(iter(sx))] = 2.5 - 1j
    sx[(0, 0)] = 0.25 + 3j
    return {
        "golden": (x, y),
        "float_theta": (fx, _random_element(rng, 0.3178, 20)),
        "empty_left": (TorusElement(GOLDEN), x),
        "empty_right": (fx, TorusElement(0.3178)),
        "empty_both": (TorusElement(GOLDEN), TorusElement(GOLDEN)),
        "sparse": (TorusElement(GOLDEN, sx), TorusElement(GOLDEN, sy)),
    }


def test_linear_operations_match_validating_constructor():
    tau = 0.3 + 1.1j
    for x, y in _operand_pairs().values():
        cases = [
            (x + y, _REFERENCE["__add__"](x, y)),
            (x - y, _REFERENCE["__sub__"](x, y)),
            (y - x, _REFERENCE["__sub__"](y, x)),
            (-x, _REFERENCE["__neg__"](x)),
            # not 0.5 - 2j: its products are exact, and numpy's complex
            # multiply then agrees with CPython's
            (x.scaled(0.3 - 1.7j), _REFERENCE["scaled"](x, 0.3 - 1.7j)),
            (x.scaled(0), TorusElement(x.theta)),
            (x.star(), _REFERENCE["star"](x)),
            (x.derive("d1"), _REFERENCE["derive"](x, "d1")),
            (x.derive("d2"), _REFERENCE["derive"](x, "d2")),
            (x.derive("dtau", tau), _REFERENCE["derive"](x, "dtau", tau)),
        ]
        for got, want in cases:
            _same_items(got, want)
            assert all(type(a) is complex for a in got.coeffs.values())
        for el in (x, y, x - y, x.star()):
            assert el.trace() == _REFERENCE["trace"](el) and type(el.trace()) is complex
            assert el.norm1() == _REFERENCE["norm1"](el)
        assert x.scaled(np.float64(2.0)).coeffs == x.scaled(2.0).coeffs
        assert all(type(a) is complex for a in x.scaled(np.float64(2.0)).coeffs.values())


def test_coeffs_is_a_read_only_view_in_key_order():
    coeffs = {(3, -1): 1j, (0, 0): 0.0, (-2, 5): 2.0, (1, 1): -1 + 0.5j}
    x = TorusElement(GOLDEN, coeffs)
    assert list(x.coeffs.items()) == [(k, complex(a)) for k, a in coeffs.items() if a != 0]
    with pytest.raises(TypeError):
        x.coeffs[(0, 0)] = 1.0
    assert x.keys.dtype == np.int64 and x.keys.shape == (3, 2)
    assert x.vals.dtype == complex and x.vals.shape == (3,)


@given(quad_irrs)
def test_quadirr_parse_round_trip(t):
    assert QuadIrr.parse(str(t)) == t


def test_unit_is_identity():
    rng = np.random.default_rng(1)
    one = TorusElement.unit(GOLDEN)
    x = _random_element(rng, GOLDEN)
    assert _distance(one * x, x) == 0.0
    assert _distance(x * one, x) == 0.0


def test_u_plus_v_square():
    # (U+V)^2 = U^2 + V^2 + (1 + e(-theta)) UV, a hand-checkable expansion
    theta = GOLDEN
    u, v = TorusElement.u(theta), TorusElement.v(theta)
    sq = (u + v) * (u + v)
    w = phase(theta, 1).conjugate()
    want = TorusElement(theta, {(2, 0): 1.0, (0, 2): 1.0, (1, 1): 1.0 + w})
    assert _distance(sq, want) < 1e-15


def test_associativity_random():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(30):
        x = _random_element(rng, TEST5, 8)
        y = _random_element(rng, TEST5, 8)
        z = _random_element(rng, TEST5, 8)
        scale = max(1.0, x.norm1() * y.norm1() * z.norm1())
        worst = max(worst, _distance((x * y) * z, x * (y * z)) / scale)
    assert worst < 1e-12


def test_star_involution_and_antimultiplicativity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = _random_element(rng, GOLDEN, 10)
        y = _random_element(rng, GOLDEN, 10)
        assert _distance(x.star().star(), x) < 1e-14
        assert _distance((x * y).star(), y.star() * x.star()) < 1e-12
        # star is conjugate-linear
        assert _distance(x.scaled(2j).star(), x.star().scaled(-2j)) == 0.0


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
    assert _distance(uv.derive("dtau", tau), uv.scaled(2j * math.pi * (tau + 1))) < 1e-14


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
            worst = max(worst, _distance(lhs, rhs) / scale)
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
