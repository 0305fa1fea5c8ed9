import cmath
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rmtorus.qfield import (
    LatticeElement,
    QuadIrr,
    RMData,
    SL2Matrix,
    cf_expand,
    fixing_matrix,
    fundamental_discriminant,
    in_theta_lattice,
    lattice_coordinates,
    moebius_act,
    multiplier_ring,
    rank_value,
    unit_phase,
)
from test_torus_alg import _SQUAREFREE, quad_irrs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from oracles import Surd, fundamental_trace  # noqa: E402

GOLDEN = QuadIrr.parse("(1+sqrt5)/2")
ROOT2 = QuadIrr.parse("sqrt2")
TEST5 = QuadIrr.parse("(-5+sqrt5)/10")
ALL_THETAS = [GOLDEN, ROOT2, TEST5]


# -- canonical forms and parsing ----------------------------------------------

def test_parse_round_trip():
    for s in ["(1+sqrt5)/2", "sqrt2", "(-5+sqrt5)/10", "(3-2*sqrt7)/4", "-sqrt3"]:
        t = QuadIrr.parse(s)
        assert QuadIrr.parse(str(t)) == t


def test_parse_refuses_a_radicand_above_the_limit():
    # the squarefree split trial-divides up to sqrt(D): at most 10^6 divisors
    assert QuadIrr.parse(f"sqrt{10 ** 12}") == 10 ** 6
    for text in (f"sqrt{10 ** 12 + 1}", f"(1+sqrt{10 ** 39 + 7})/2"):
        with pytest.raises(ValueError, match=r"above the limit of 10\^12"):
            QuadIrr.parse(text)


def test_canonicalization_removes_square_factors():
    # sqrt8 = 2*sqrt2, and the gcd of (p, q, r) is cleared
    t = QuadIrr(0, 1, 1, 8)
    assert (t.q, t.D) == (2, 2)
    s = QuadIrr(2, 4, 6, 18)  # (2 + 4*3*sqrt2)/6
    assert (s.p, s.q, s.r, s.D) == (1, 6, 3, 2)


def test_rational_normal_form():
    t = QuadIrr.from_rational(Fraction(6, 4))
    assert t.is_rational and (t.p, t.r) == (3, 2)
    assert QuadIrr.parse("3/4") == Fraction(3, 4)


def test_arithmetic_exact():
    t = GOLDEN
    assert t * t == t + 1          # golden ratio minimal relation
    assert t.inverse() == t - 1
    assert (ROOT2 * ROOT2).is_rational and ROOT2 * ROOT2 == 2
    assert (t - t).is_rational
    with pytest.raises(ValueError):
        GOLDEN + ROOT2             # mixed radicands have no canonical form here


def test_comparisons_and_floor():
    assert GOLDEN > 1 and GOLDEN < 2
    assert math.floor(GOLDEN) == 1
    assert math.floor(-GOLDEN) == -2
    assert math.floor(TEST5) == -1
    big = QuadIrr(10 ** 12, 1, 1, 2)
    assert math.floor(big) == 10 ** 12 + 1


# (p + q*sqrt(D))/r with p, q up to 2^200 in size, so that q*sqrt(D) carries
# far more digits than a double
big_quad_irrs = st.builds(QuadIrr, st.integers(-2**200, 2**200), st.integers(-2**200, 2**200),
                          st.integers(1, 2**100), st.sampled_from(_SQUAREFREE))


# p + q*sqrt2 = (3 + 2*sqrt2)^60, so q*sqrt2 - p = -(3 - 2*sqrt2)^60
_PELL = (3 + 2 * ROOT2) ** 60


def _mpmath_float(t):
    """float(QuadIrr) before the integer bracket: sqrt(D) at 35 digits of mpmath."""
    if t.q == 0:
        return t.p / t.r
    with mpmath.workdps(35):
        return float(+((mpmath.mpf(t.p) + mpmath.mpf(t.q) * mpmath.sqrt(t.D)) / t.r))


def _mpmath_unit_phase(t, k):
    """unit_phase before the integer path: exact frac, then _mpmath_float."""
    x = t * k
    return cmath.exp(2j * math.pi * _mpmath_float(x - math.floor(x)))


@given(big_quad_irrs)
@example(QuadIrr(10 ** 12, 1, 1, 2))
@example(QuadIrr(-(10 ** 30), 10 ** 15, 7, 2))
def test_floor_is_exact(t):
    n = math.floor(t)
    assert (t - n).sign() >= 0 and (t - (n + 1)).sign() < 0


def _sign_sum(p: int, q: int, D: int) -> int:
    """Exact sign of p + q*sqrt(D) by squaring, the rule sign() used before it read the floor."""
    def _sign(x):
        return (x > 0) - (x < 0)

    if q == 0:
        return _sign(p)
    if p == 0:
        return _sign(q)
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    if p > 0:
        return _sign(p * p - q * q * D)
    return _sign(q * q * D - p * p)


@st.composite
def _same_field_pairs(draw):
    """Two values of big_quad_irrs' size over one squarefree D."""
    D = draw(st.sampled_from(_SQUAREFREE))
    big, den = st.integers(-2**200, 2**200), st.integers(1, 2**100)
    return tuple(QuadIrr(draw(big), draw(big), draw(den), D) for _ in range(2))


@given(big_quad_irrs)
@example(QuadIrr(0, 0, 1, 2))
@example(QuadIrr(-_PELL.p, _PELL.q, 1, 2))
@example(QuadIrr(_PELL.p, -_PELL.q, 1, 2))
def test_sign_matches_squaring_reference(t):
    assert t.sign() == _sign_sum(t.p, t.q, t.D)


@given(_same_field_pairs())
@example((GOLDEN, GOLDEN))
@example((QuadIrr(-_PELL.p, _PELL.q, 1, 2), QuadIrr(0, 0, 1, 2)))
@example((QuadIrr(_PELL.p, 0, 1, 2), QuadIrr(0, _PELL.q, 1, 2)))
def test_orderings_match_squaring_reference(pair):
    # x - y = ((p1*r2 - p2*r1) + (q1*r2 - q2*r1)*sqrt(D)) / (r1*r2), worked out
    # in integers here rather than by QuadIrr subtraction
    x, y = pair
    D = x.D if x.q else y.D
    s = _sign_sum(x.p * y.r - y.p * x.r, x.q * y.r - y.q * x.r, D)
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (y > x, y >= x, y < x, y <= x) == (s < 0, s <= 0, s > 0, s >= 0)


@given(big_quad_irrs)
@example(QuadIrr(1, 1, 2, 5))
@example(QuadIrr(-141421356237, 10 ** 11, 1, 2))
@example(QuadIrr(-math.isqrt(2 * 10 ** 80), 10 ** 40, 1, 2))  # 40 digits cancel
@example(QuadIrr(-_PELL.p, _PELL.q, 1, 2))  # -(3 - 2*sqrt2)^60, about -1e-46
def test_float_is_correctly_rounded(t):
    # the value lies strictly inside (lo, lo+1) / (r * 2^s), a bracket 200 bits
    # below the value, which must lie between the midpoints to the
    # neighbouring doubles of float(t)
    x = float(t)
    s = 200 + max(0, -math.frexp(x)[1])
    root = math.isqrt(t.q * t.q * t.D << 2 * s)
    lo = (t.p << s) + (root if t.q > 0 else -root - 1)
    den = t.r << s
    below = (Fraction(math.nextafter(x, -math.inf)) + Fraction(x)) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    if t.q == 0:
        assert below <= Fraction(t.p, t.r) <= above
    else:
        assert below <= Fraction(lo, den) and Fraction(lo + 1, den) <= above


def test_float_beyond_double_range_is_infinite():
    # as sqrt(D) at 35 digits of mpmath gave; fix reports it as the theta value
    for t in (QuadIrr(10 ** 400, 1, 1, 2), QuadIrr(-(10 ** 400), 3, 7, 5)):
        assert float(t) == _mpmath_float(t) == (math.inf if t.p > 0 else -math.inf)


@given(quad_irrs, st.integers(-10 ** 6, 10 ** 6))
@example(GOLDEN, 0)
@example(TEST5, -(10 ** 6))
def test_integer_path_matches_mpmath(t, k):
    assert float(t) == _mpmath_float(t)
    assert unit_phase(t, k) == _mpmath_unit_phase(t, k)


def test_conjugate_norm_trace():
    t = TEST5
    A, B, C = t.minimal_polynomial()
    assert (A, B, C) == (5, 5, 1)
    # the conjugate satisfies the same polynomial
    s = t.conjugate()
    assert A * s * s + B * s + C == 0
    assert t.norm() == Fraction(C, A)
    assert t + s == Fraction(-B, A)


def test_discriminants():
    assert GOLDEN.discriminant() == 5
    assert ROOT2.discriminant() == 8
    assert TEST5.discriminant() == 5
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(2) == 8
    assert fundamental_discriminant(3) == 12


# -- fixing matrices -----------------------------------------------------------

def _oracle_fixing(theta: QuadIrr, bound: int = 12) -> SL2Matrix:
    """Independent brute-force search: minimal trace > 2 over a box."""
    best = None
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(1, bound + 1):
                if a == 0:
                    if b * c != -1:
                        continue
                    dvals = list(range(3, bound + 1))
                else:
                    k = 1 + b * c
                    if k % a != 0:
                        continue
                    dvals = [k // a]
                for d in dvals:
                    if a + d <= 2:
                        continue
                    g = SL2Matrix(a, b, c, d)
                    if moebius_act(g, theta) != theta:
                        continue
                    if not (theta * c + d) > 0:
                        continue
                    if best is None or g.trace < best.trace:
                        best = g
    return best


@pytest.mark.parametrize("theta,expected", [
    (GOLDEN, [[2, 1], [1, 1]]),
    (ROOT2, [[3, 4], [2, 3]]),
    (TEST5, [[-1, -1], [5, 4]]),
])
def test_fixing_matrix_known_values(theta, expected):
    g = fixing_matrix(theta)
    assert g.to_list() == expected
    assert g.det == 1
    assert moebius_act(g, theta) == theta
    assert g.c > 0 and (theta * g.c + g.d) > 0


@pytest.mark.parametrize("theta", ALL_THETAS)
def test_fixing_matrix_matches_brute_force(theta):
    assert fixing_matrix(theta).to_list() == _oracle_fixing(theta).to_list()


@st.composite
def _rm_forms(draw):
    """+-sqrt(D) + k or, for D = 1 mod 4, +-(1+sqrt(D))/2 + k, as oracle surds."""
    D = draw(st.sampled_from(_SQUAREFREE))
    S = draw(st.sampled_from((1, -1)))
    k = draw(st.integers(-5, 5))
    if D % 4 == 1 and draw(st.booleans()):
        return Surd(2 * k + S, S, 2, D)
    return Surd(k, S, 1, D)


@given(_rm_forms())
@example(Surd(0, 1, 1, 61))         # trace 2 * 1766319049, far past the search
@example(Surd(-5, 1, 10, 5))        # the README theta
def test_fixing_matrix_contract(s):
    # the contract a continued-fraction fixing_matrix must keep: the minimal
    # trace of the integer oracle, and a refusal below it
    theta = QuadIrr(s.P, s.S, s.Q, s.D)
    T = fundamental_trace(s)
    if T > 2 * 10 ** 4:
        with pytest.raises(ValueError):
            fixing_matrix(theta, max_trace=10 ** 3)
        return
    g = fixing_matrix(theta)
    assert g.det == 1 and g.c > 0 and theta * g.c + g.d > 0
    assert moebius_act(g, theta) == theta
    assert g.trace == T
    with pytest.raises(ValueError):
        fixing_matrix(theta, max_trace=T - 1)


def test_fixing_matrix_rejects_rationals():
    with pytest.raises(ValueError):
        fixing_matrix(QuadIrr.parse("3/4"))


def test_matrix_powers():
    g = SL2Matrix.from_list([[-1, -1], [5, 4]])
    g3 = g ** 3
    assert g3.to_list() == [[-11, -8], [40, 29]]
    assert (g ** -1 * g).to_list() == [[1, 0], [0, 1]]
    assert g3.a * g3.d - g3.b * g3.c == 1


@pytest.mark.parametrize("x", [GOLDEN, TEST5, QuadIrr(3, -2, 7, 13), QuadIrr.from_rational(Fraction(-2, 3)),
                               SL2Matrix(-1, -1, 5, 4), SL2Matrix(2, 1, 1, 1), SL2Matrix(1, 7, 0, 1)])
def test_power_matches_repeated_multiplication(x):
    one = QuadIrr.from_rational(1) if isinstance(x, QuadIrr) else SL2Matrix.identity()
    for n in range(-12, 13):
        want = one
        for _ in range(abs(n)):
            want = want * x
        if n < 0:
            want = want.inverse()
        assert x ** n == want


# -- rank lattice and powers ----------------------------------------------------

@pytest.mark.parametrize("theta", ALL_THETAS)
def test_rank_multiplicativity(theta):
    g = fixing_matrix(theta)
    lam = theta * g.c + g.d
    for n in range(1, 11):
        gn = g ** n
        assert rank_value(g, n, theta) == theta * gn.c + gn.d
        assert rank_value(g, n, theta) == lam ** n


def test_lattice_membership():
    for theta in ALL_THETAS:
        x = LatticeElement(3, -2).value(theta)
        for value, coords in [
            (x, LatticeElement(3, -2)),                      # a member
            (x / 2, None),                                   # half a member
            (QuadIrr.from_rational(7), LatticeElement(7, 0)),
            (QuadIrr.from_rational(Fraction(1, 2)), None),
            (theta * 5 - 4, LatticeElement(-4, 5)),
            (QuadIrr(1, 1, 1, 3), None),                     # another radicand
        ]:
            assert in_theta_lattice(value, theta) == (coords is not None)
            if coords is None:
                with pytest.raises(ValueError):
                    lattice_coordinates(value, theta)
            else:
                assert lattice_coordinates(value, theta) == coords
                assert coords.value(theta) == value


@given(quad_irrs, st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_lattice_coordinates_round_trip(theta, m, n):
    if theta.is_rational:
        with pytest.raises(ValueError):
            lattice_coordinates(QuadIrr.from_rational(m), theta)
        with pytest.raises(ValueError):
            in_theta_lattice(QuadIrr.from_rational(m), theta)
        return
    x = LatticeElement(m, n).value(theta)
    assert lattice_coordinates(x, theta) == LatticeElement(m, n)
    assert in_theta_lattice(x, theta)


def test_epsilon_recursion():
    # eps_2 = c*eps^2/(a+d) exactly, on all three test matrices
    for theta in ALL_THETAS:
        data = RMData(theta)
        g = data.g
        eps = data.epsilon
        e2 = rank_value(g, 2, theta) / data.power(2).c
        assert e2 == eps * eps * g.c / (g.a + g.d)
        assert float(e2) == data.power(2).eps


# -- continued fractions ---------------------------------------------------------

def test_cf_known_expansions():
    q, per = cf_expand(GOLDEN)
    assert per == [1]
    q2, per2 = cf_expand(ROOT2)
    assert q2[0] == 1 and per2 == [2]


def _convergents(quotients: list[int]) -> list[Fraction]:
    out = []
    h0, h1 = 1, quotients[0]
    k0, k1 = 0, 1
    out.append(Fraction(h1, k1))
    for a in quotients[1:]:
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        out.append(Fraction(h1, k1))
    return out


@pytest.mark.parametrize("theta", ALL_THETAS)
def test_cf_convergent_quality(theta):
    q, per = cf_expand(theta)
    assert per is not None
    for frac in _convergents(q[:12])[1:]:
        delta = theta - frac
        if delta < 0:
            delta = -delta
        # classical convergent bound, checked in exact arithmetic
        assert delta < Fraction(1, frac.denominator ** 2)


# -- multiplier rings -------------------------------------------------------------

@pytest.mark.parametrize("theta,conductor", [
    (GOLDEN, 1),
    (QuadIrr.parse("sqrt5"), 2),
    (ROOT2, 1),
    (TEST5, 1),
])
def test_multiplier_conductor(theta, conductor):
    f, ok = multiplier_ring(theta)
    assert ok and f == conductor


@pytest.mark.parametrize("theta", [GOLDEN, QuadIrr.parse("sqrt5"), ROOT2])
def test_multiplier_ring_minimality_oracle(theta):
    # f' * omega multiplies the lattice into itself exactly when f | f'
    f, _ = multiplier_ring(theta)
    # the standard generator of the maximal order; theta.D is squarefree
    omega = QuadIrr(1, 1, 2, theta.D) if theta.D % 4 == 1 else QuadIrr(0, 1, 1, theta.D)
    for fp in range(1, 2 * f + 1):
        lam = omega * fp
        preserved = in_theta_lattice(lam, theta) and in_theta_lattice(lam * theta, theta)
        assert preserved == (fp % f == 0)


# -- RMData and phases -------------------------------------------------------------

def test_rmdata_validation():
    with pytest.raises(ValueError):
        RMData(GOLDEN, SL2Matrix.from_list([[3, 4], [2, 3]]))  # fixes sqrt2, not golden
    data = RMData(TEST5)
    assert data.g.to_list() == [[-1, -1], [5, 4]]
    assert data.power(3).c == 40


def test_cached_hash_is_unchanged():
    # equal values hash equal, rationals as their Fraction and int twins, and
    # the cached hash is the one the fields give
    for t in ALL_THETAS + [QuadIrr.from_rational(Fraction(-7, 3)), QuadIrr(6, 0, 4, 5),
                           QuadIrr(5, 0, 1, 2), QuadIrr(0, 0, 9, 2)]:
        want = hash(Fraction(t.p, t.r)) if t.is_rational else hash((t.p, t.q, t.r, t.D))
        assert hash(t) == want and hash(t) == want  # computed, then cached
        assert hash(QuadIrr.parse(str(t))) == hash(t)
        if t.is_rational:
            assert t == Fraction(t.p, t.r) and hash(t) == hash(Fraction(t.p, t.r))
    assert hash(QuadIrr(6, 0, 4, 5)) == hash(Fraction(3, 2)) == hash(1.5)
    assert hash(QuadIrr(5, 0, 1, 2)) == hash(5)
    assert hash(QuadIrr(2, 2, 4, 3)) == hash(QuadIrr.parse("(1+sqrt3)/2"))
    assert {QuadIrr(0, 0, 9, 2): 1}[0] == 1


def test_unit_phase_periodicity():
    t = GOLDEN
    z1 = unit_phase(t, 1)
    # adding an integer to the argument cannot change the phase
    z2 = unit_phase(t + 5, 1)
    assert z1 == z2
    assert abs(abs(z1) - 1.0) < 1e-15


def test_unit_phase_cache_is_bounded():
    assert unit_phase.cache_info().maxsize is not None
    before = [unit_phase(t, k) for t in ALL_THETAS for k in (-61, 1, 3600)]
    unit_phase.cache_clear()
    assert unit_phase.cache_info().currsize == 0
    assert [unit_phase(t, k) for t in ALL_THETAS for k in (-61, 1, 3600)] == before
