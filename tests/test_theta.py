import cmath
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmtorus import theta as theta_mod
from rmtorus.theta import (
    ThetaResult,
    rounding_bound,
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


# Fraction-based term loops and tail bounds, kept here only as references:
# theta_partial and tail_bound must give the same doubles, except that the
# z-series bound may differ by rounding of its decrement.

def _reference_reduce(r) -> Fraction:
    fr = Fraction(r)
    return fr - math.floor(fr)


def _reference_tail_bound(N, r, t):
    a = float(N + 1 - _reference_reduce(r))
    lead = math.exp(-math.pi * t * a * a)
    ratio = math.exp(-2.0 * math.pi * t * a)
    if ratio >= 1.0:
        return math.inf
    return 2.0 * lead / (1.0 - ratio)


def _reference_fn_tail_bound(N, r, t, w):
    a = float(N + 1 - _reference_reduce(r))
    dec = 2.0 * math.pi * (t * a - w)
    if dec <= 0:
        return math.inf
    ratio = math.exp(-dec)
    if ratio >= 1.0:
        return math.inf
    lead = math.exp(-math.pi * t * a * a + 2.0 * math.pi * w * (a + 2.0))
    return 2.0 * lead / (1.0 - ratio)


def _reference_terms(bound_at, tol):
    """The least N >= 1 with bound_at(N) <= tol, by a plain scan."""
    return next(n for n in itertools.count(1) if bound_at(n) <= tol)


def _reference_theta_partial(r, m, N):
    rr = _reference_reduce(r)
    total = 0.0 + 0.0j
    for n in range(-N, N + 1):
        x = float(n + rr)
        total += cmath.exp(1j * math.pi * x * x * m)
    return total


def _reference_theta_fn_partial(r, z, m, N):
    rr = _reference_reduce(r)
    total = 0.0 + 0.0j
    for n in range(-N, N + 1):
        x = float(n + rr)
        total += cmath.exp(1j * math.pi * x * x * m + 2j * math.pi * x * z)
    return total


def _partial(r, m, N, z=None):
    """theta_partial on a batch of one characteristic."""
    r = Fraction(r)
    return theta_partial([r.numerator], r.denominator, m, N, z)[0]


characteristics = st.builds(lambda q, p: Fraction(p, q), st.integers(1, 12),
                            st.integers(-36, 36))
# Im(m) log-uniform in [1e-3, 3]: small Im(m) is where the geometric ratio of
# the tail bound is far from 0 and its rounding shows
modular = st.builds(complex, st.floats(-2, 2), st.floats(-3, 0.5).map(lambda e: 10 ** e))


@st.composite
def arguments(draw, m):
    """z with |Im z| <= Im(m)/2, as in the benchmark's theta panel."""
    return complex(draw(st.floats(-1, 1)), draw(st.floats(-0.5, 0.5)) * m.imag)


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
    for i in range(80):
        r = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 9)))
        m = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3.0))
        N = int(rng.integers(1, 30))
        z, w = None, 0.0
        if i % 2:
            # |Im z| <= Im(m) < Im(m)*(N+1-r): the z-series bound is finite
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1) * m.imag)
            w = abs(z.imag)
        bound = tail_bound(N, r, m.imag, w)
        assert math.isfinite(bound)
        diff = abs(_partial(r, m, N, z) - _partial(r, m, N + 10, z))
        assert diff <= bound + 1e-300


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


@given(r=characteristics, m=modular)
def test_fn_reduces_to_const_at_zero(r, m):
    fn, const = theta_fn(r, 0, m), theta_const(r, m)
    assert (fn.value, fn.bound, fn.terms) == (const.value, const.bound, const.terms)


tolerances = st.sampled_from([1e-6, 1e-10, 1e-14, 1e-16])


@given(r=characteristics, m=modular, tol=tolerances, K=st.integers(0, 200))
def test_const_matches_reference(r, m, tol, K):
    assert _partial(r, m, K) == _reference_theta_partial(r, m, K)
    assert tail_bound(K, r, m.imag) == _reference_tail_bound(K, r, m.imag)
    res = theta_const(r, m, tol=tol)
    N = _reference_terms(lambda n: _reference_tail_bound(n, r, m.imag), tol)
    assert res.terms == N
    assert res.value == _reference_theta_partial(r, m, N)
    assert res.bound == _reference_tail_bound(N, r, m.imag)


@given(r=characteristics, m=modular, tol=tolerances, K=st.integers(0, 60), data=st.data())
def test_fn_matches_reference(r, m, tol, K, data):
    z = data.draw(arguments(m))
    t, w = m.imag, abs(z.imag)
    assert _partial(r, m, K, z) == _reference_theta_fn_partial(r, z, m, K)
    res = theta_fn(r, z, m, tol=tol)
    N = _reference_terms(lambda n: _reference_fn_tail_bound(n, r, t, w), tol)
    assert res.terms == N
    assert res.value == _reference_theta_fn_partial(r, z, m, N)
    # the reference rounds the decrement as 2*pi*(t*a - w), tail_bound as
    # 2*pi*t*a - 2*pi*w, which keeps the constant series' bound unchanged
    ref = _reference_fn_tail_bound(N, r, t, w)
    assert abs(res.bound - ref) <= 1e-15 * ref


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
        theta_const(Fraction(0), complex(1, -1))
    with pytest.raises(ValueError):
        theta_const(Fraction(0), 1j, tol=0.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        theta_const(Fraction(1, 3), 2j, tol=tol)
    with pytest.raises(ValueError):
        theta_fn(Fraction(1, 4), 0.1 + 0.2j, 0.3 + 1.1j, tol=tol)
    with pytest.raises(ValueError):
        theta_const(Fraction(0), 1j, tol=tol)


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


# -- the batched kernel --------------------------------------------------------


def _reference_batch(nums, den, m, N, z):
    if z is None:
        return [_reference_theta_partial(Fraction(k, den), m, N) for k in nums]
    return [_reference_theta_fn_partial(Fraction(k, den), z, m, N) for k in nums]


@given(den=st.integers(1, 40), data=st.data(), m=modular, K=st.integers(0, 60),
       with_z=st.booleans())
def test_batched_kernel_matches_reference(den, data, m, K, with_z):
    # every label of a batch (a batch of one included) is the term-by-term
    # loop's double, signed zeros too
    nums = data.draw(st.lists(st.integers(-3 * den, 3 * den), min_size=1, max_size=12))
    z = data.draw(arguments(m)) if with_z else None
    got = theta_partial(nums, den, m, K, z)
    assert got.shape == (len(nums),)
    want = _reference_batch(nums, den, m, K, z)
    assert [repr(complex(g)) for g in got] == [repr(w) for w in want]


def test_batched_kernel_across_blocks(monkeypatch):
    # 7 terms x labels per block: 13 labels split over two column blocks and
    # 81 terms over one row at a time, each label still summed in term order
    monkeypatch.setattr(theta_mod, "_BLOCK", 7)
    m, z = 0.3 + 0.05j, 0.1 + 0.01j
    for zz in (None, z):
        got = theta_partial(range(13), 13, m, 40, zz)
        assert [repr(complex(g)) for g in got] == \
            [repr(w) for w in _reference_batch(range(13), 13, m, 40, zz)]


def test_batched_kernel_huge_denominator():
    # (N+1)*den beyond 2^53: the abscissae stay Python integers
    r = Fraction(1, 10 ** 20 + 7)
    assert _partial(r, 0.2 + 0.5j, 30) == _reference_theta_partial(r, 0.2 + 0.5j, 30)
    assert theta_partial([], 5, 1j, 3).shape == (0,)


def _mp_partial(num, den, m, N):
    r = mpmath.mpf(num) / den
    mm = mpmath.mpc(m.real, m.imag)
    return sum(mpmath.expjpi((n + r) ** 2 * mm) for n in range(-N, N + 1))


@pytest.mark.parametrize("den,m,N", [(75, 15 * (0.3 + 1.1j), 1), (600, 120 * (0.3 + 0.001j), 12),
                                     (7, 0.37 + 0.02j, 40), (12, 3.9 + 0.5j, 6)])
def test_rounding_bound_covers_exact_partial_sums(den, m, N):
    nums = list(range(0, den // 2 + 1, max(1, den // 30)))
    got = theta_partial(nums, den, m, N)
    bound = rounding_bound(nums, den, m, N)
    assert bound.shape == (len(nums),) and np.all(bound > 0)
    with mpmath.workdps(40):
        for k, g, b in zip(nums, got, bound):
            assert float(abs(complex(g) - _mp_partial(k, den, m, N))) <= b


def test_overflowing_majorant_reads_infinite():
    # exp(-pi*t*a^2 + 2*pi*w*(a+2)) beyond the double range: not yet certified
    assert tail_bound(1500, Fraction(1, 3), 1.0, 1e3) == math.inf
    assert tail_bound(3000, Fraction(1, 3), 1.0, 1e3) < 1e-14
    # certified, but the sum itself overflows: refused, not a traceback
    with pytest.raises(RuntimeError):
        theta_fn(Fraction(1, 3), 1e3j, 1j)
    assert not np.all(np.isfinite(rounding_bound([1, 2], 75, 0.3 + 1e300j, 1)))
