import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from rmtorus.theta import (
    ThetaQuery,
    ThetaResult,
    tail_bound,
    theta_const,
    theta_fn,
    theta_partial,
)

# Reference values computed with a 50-digit brute-force summation and rounded
# to double precision.
THETA0_I = 1.0864348112133080146
THETA13_2I = 0.55879426688130456525
THETA12_HALF_I = 0.84089055026634234586 + 0.34830827039169381268j
THETAFN_REF = 0.9409357556338423202 + 0.14870195549561798467j


def test_reference_values():
    assert abs(theta_const(0, 1j).value - THETA0_I) < 1e-12
    assert abs(theta_const(Fraction(1, 3), 2j).value - THETA13_2I) < 1e-12
    assert abs(theta_const(Fraction(1, 2), 0.5 + 1j).value - THETA12_HALF_I) < 1e-12
    got = theta_fn(Fraction(1, 4), 0.1 + 0.2j, 0.3 + 1.1j).value
    assert abs(got - THETAFN_REF) < 1e-12


def test_result_is_certified():
    res = theta_const(0, 1j, tol=1e-14)
    assert isinstance(res, ThetaResult)
    assert res.bound <= 1e-14
    assert res.terms >= 1
    assert complex(res) == res.value


def test_tail_bound_dominates_observed_tail():
    rng = np.random.default_rng(7)
    for _ in range(40):
        r = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 9)))
        m = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3.0))
        N = int(rng.integers(1, 30))
        diff = abs(theta_partial(r, m, N) - theta_partial(r, m, N + 10))
        assert diff <= tail_bound(N, r, m.imag) + 1e-300


def test_tail_bound_monotone():
    for N in range(1, 40):
        assert tail_bound(N + 1, Fraction(1, 3), 0.7) <= tail_bound(N, Fraction(1, 3), 0.7)


def test_characteristic_reduction():
    m = 0.2 + 0.9j
    base = theta_const(Fraction(1, 3), m).value
    assert theta_const(Fraction(4, 3), m).value == base
    assert theta_const(Fraction(-2, 3), m).value == base
    z = 0.3 - 0.1j
    fn_base = theta_fn(Fraction(1, 3), z, m).value
    assert theta_fn(Fraction(7, 3), z, m).value == fn_base


def test_quasi_periodicity_z_plus_one():
    # shifting z by 1 multiplies the sum by e(r)
    r, z, m = Fraction(1, 5), 0.17 - 0.06j, 0.4 + 1.3j
    lhs = theta_fn(r, z + 1, m).value
    rhs = cmath.exp(2j * math.pi * float(r)) * theta_fn(r, z, m).value
    assert abs(lhs - rhs) < 1e-12


def test_quasi_periodicity_z_plus_m():
    # shifting z by m costs exp(-pi*i*m - 2*pi*i*z)
    r, z, m = Fraction(2, 7), 0.11 + 0.05j, 0.3 + 1.1j
    lhs = theta_fn(r, z + m, m).value
    rhs = cmath.exp(-1j * math.pi * m - 2j * math.pi * z) * theta_fn(r, z, m).value
    assert abs(lhs - rhs) < 1e-12


def test_fn_reduces_to_const_at_zero():
    r, m = Fraction(1, 3), 0.25 + 0.8j
    assert abs(theta_fn(r, 0.0, m).value - theta_const(r, m).value) < 1e-13


def test_minimal_term_count():
    res = theta_const(0, 1j, tol=1e-14)
    assert tail_bound(res.terms, 0, 1.0) <= 1e-14
    assert res.terms == 1 or tail_bound(res.terms - 1, 0, 1.0) > 1e-14


def test_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        theta_const(0, 1 - 2j)
    with pytest.raises(ValueError):
        theta_fn(0, 0.0, complex(2, 0))
    with pytest.raises(ValueError):
        ThetaQuery(Fraction(0), complex(1, -1))
    with pytest.raises(ValueError):
        ThetaQuery(Fraction(0), 1j, tol=0.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        theta_const(Fraction(1, 3), 2j, tol=tol)
    with pytest.raises(ValueError):
        theta_fn(Fraction(1, 4), 0.1 + 0.2j, 0.3 + 1.1j, tol=tol)
    with pytest.raises(ValueError):
        ThetaQuery(Fraction(0), 1j, tol=tol)


def test_uncertifiable_raises():
    with pytest.raises(RuntimeError):
        theta_const(0, complex(0, 1e-300))
    with pytest.raises(RuntimeError):
        theta_fn(0, 1e9j, 1j)


def test_tail_bound_guards():
    with pytest.raises(ValueError):
        tail_bound(-1, 0, 1.0)
    with pytest.raises(ValueError):
        tail_bound(3, 0, 0.0)
    assert tail_bound(1, 0, 1e-300) == math.inf
