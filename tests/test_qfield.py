import math
from fractions import Fraction

import pytest

from rmtorus.qfield import (
    LatticeElement,
    QuadIrr,
    RMData,
    SL2Matrix,
    cf_expand,
    convergents,
    fixing_matrix,
    fundamental_discriminant,
    in_theta_lattice,
    lattice_coordinates,
    moebius_act,
    multiplier_ring,
    rank_value,
    ring_generator,
    unit_phase,
)

GOLDEN = QuadIrr.parse("(1+sqrt5)/2")
ROOT2 = QuadIrr.parse("sqrt2")
TEST5 = QuadIrr.parse("(-5+sqrt5)/10")
ALL_THETAS = [GOLDEN, ROOT2, TEST5]


# -- canonical forms and parsing ----------------------------------------------

def test_parse_round_trip():
    for s in ["(1+sqrt5)/2", "sqrt2", "(-5+sqrt5)/10", "(3-2*sqrt7)/4", "-sqrt3"]:
        t = QuadIrr.parse(s)
        assert QuadIrr.parse(str(t)) == t


def test_canonicalization_removes_square_factors():
    # sqrt8 = 2*sqrt2, and the gcd of (p, q, r) is cleared
    t = QuadIrr(0, 1, 1, 8)
    assert (t.q, t.D) == (2, 2)
    s = QuadIrr(2, 4, 6, 18)  # (2 + 4*3*sqrt2)/6
    assert (s.p, s.q, s.r, s.D) == (1, 6, 3, 2)


def test_rational_normal_form():
    t = QuadIrr.from_rational(Fraction(6, 4))
    assert t.is_rational and (t.p, t.r) == (3, 2)
    assert QuadIrr.parse("3/4").as_fraction() == Fraction(3, 4)


def test_arithmetic_exact():
    t = GOLDEN
    assert t * t == t + 1          # golden ratio minimal relation
    assert t.inverse() == t - 1
    assert (ROOT2 * ROOT2).as_fraction() == 2
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


def test_conjugate_norm_trace():
    t = TEST5
    A, B, C = t.minimal_polynomial()
    assert (A, B, C) == (5, 5, 1)
    # the conjugate satisfies the same polynomial
    s = t.conjugate()
    assert A * s * s + B * s + C == 0
    assert t.norm() == Fraction(C, A)
    assert t.trace_rat() == Fraction(-B, A)


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


def test_fixing_matrix_rejects_rationals():
    with pytest.raises(ValueError):
        fixing_matrix(QuadIrr.parse("3/4"))


def test_matrix_powers():
    g = SL2Matrix.from_list([[-1, -1], [5, 4]])
    g3 = g ** 3
    assert g3.to_list() == [[-11, -8], [40, 29]]
    assert (g ** -1 * g).to_list() == [[1, 0], [0, 1]]
    assert g3.a * g3.d - g3.b * g3.c == 1


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
    t = GOLDEN
    x = LatticeElement(3, -2).value(t)
    assert in_theta_lattice(x, t)
    assert lattice_coordinates(x, t) == LatticeElement(3, -2)
    assert not in_theta_lattice(x / 2, t)


def test_epsilon_recursion():
    # eps_2 = c*eps^2/(a+d) exactly, on all three test matrices
    for theta in ALL_THETAS:
        data = RMData(theta)
        g = data.g
        eps = data.epsilon
        e2 = data.power(2).eps_exact
        assert e2 == eps * eps * g.c / (g.a + g.d)


# -- continued fractions ---------------------------------------------------------

def test_cf_known_expansions():
    q, per = cf_expand(GOLDEN)
    assert per == [1]
    q2, per2 = cf_expand(ROOT2)
    assert q2[0] == 1 and per2 == [2]


@pytest.mark.parametrize("theta", ALL_THETAS)
def test_cf_convergent_quality(theta):
    q, per = cf_expand(theta)
    assert per is not None
    for frac in convergents(q[:12])[1:]:
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
    omega = ring_generator(theta.D)
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
            assert t == t.as_fraction() and hash(t) == hash(t.as_fraction())
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


def test_json_round_trip():
    for theta in ALL_THETAS:
        assert QuadIrr.from_json_dict(theta.to_json_dict()) == theta
    data = RMData(TEST5)
    d2 = RMData.from_json_dict(data.to_json_dict())
    assert d2.theta == data.theta and d2.g.to_list() == data.g.to_list()
