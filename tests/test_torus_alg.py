import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from rmtorus.qfield import QuadIrr, conj_phase_row
from rmtorus.torus_alg import _MAX_CELLS, TorusElement, phase

GOLDEN = QuadIrr.parse("(1+sqrt5)/2")
TEST5 = QuadIrr.parse("(-5+sqrt5)/10")

_SQUAREFREE = [D for D in range(2, 201) if all(D % (k * k) for k in range(2, 15))]
# (p + q*sqrt(D))/r over random squarefree D <= 200; q = 0 gives rationals
quad_irrs = st.builds(QuadIrr, st.integers(-60, 60), st.integers(-9, 9),
                      st.integers(1, 40), st.sampled_from(_SQUAREFREE))
# exponents up to +-15, so that m*p*theta needs its exact reduction mod 1, and
# the product of two such boxes (31x31) stays within the cell cap
supports = st.dictionaries(
    st.tuples(st.integers(-15, 15), st.integers(-15, 15)),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    max_size=12,
)

_U = 2.0 ** -53  # unit roundoff of a double


def _distance(x, y) -> float:
    return (x - y).norm1()


def _close(got, want, bound):
    """||got - want||_1 <= bound, summed term by term in Python.

    The relative slack 1e-9 covers the rounding of this sum and of the norms
    that make up the bound, a few hundred ulps at these sizes.
    """
    g, w = got.coeffs, want.coeffs
    dist = sum(abs(g.get(k, 0.0) - w.get(k, 0.0)) for k in g.keys() | w.keys())
    assert dist <= bound * (1 + 1e-9), (dist, bound)


def _exact_norm(x) -> float:
    return math.fsum(abs(a) for a in x.coeffs.values())


def _product_bound(x, y) -> float:
    """A bound on ||x*y - _reference_mul(x, y)||_1.

    A coefficient of the product sums at most k = min(#terms of x, #terms of y)
    pair terms a*b*w, where w = conj(phase()) is the same double on both sides
    and |w| <= 1 + 4u.  A complex product rounds by at most sqrt(2)*gamma_2
    (Higham, "Accuracy and Stability of Numerical Algorithms", §3.6), and a sum
    of j real terms by gamma_(j-1), in any order.  To first order in u:
    - the pair loop forms (a*b)*w, 2*sqrt(2)*2u, and sums k terms, (k - 1)u;
    - the box forms b*w, sqrt(2)*2u, and the matmul and the column adds sum
      the 2k real products of each part of the coefficient, sqrt(2)*2k*u.
    Together that is (3.83k + 7.49)u of sum |a||b||w| <= (1 + 4u)||x||_1 ||y||_1,
    and C = 4(k + 2) holds it with the second-order terms.
    """
    k = min(len(x.coeffs), len(y.coeffs))
    return 4 * (k + 2) * _U * _exact_norm(x) * _exact_norm(y)


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


# The dict-of-terms operations the boxes replaced, one per TorusElement
# method: the boxes must give the same terms, to within the bounds below
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
@example(theta=GOLDEN, xs={}, ys={(3, -15): 1 + 2j})
@example(theta=GOLDEN, xs={(-7, 11): -0.5j}, ys={})
@example(theta=0.3178, xs={}, ys={})
def test_product_matches_per_term_reference(theta, xs, ys):
    x, y = TorusElement(theta, xs), TorusElement(theta, ys)
    _close(x * y, _reference_mul(x, y), _product_bound(x, y))


def test_kernel_matches_reference_40x40():
    rng = np.random.default_rng(11)
    x, y = _random_element(rng, GOLDEN, 40), _random_element(rng, GOLDEN, 40)
    _close(x * y, _reference_mul(x, y), _product_bound(x, y))
    # a product of products: the (25x25)-box factor of the CLI's triple products
    xy, z = _reference_mul(x, y), _random_element(rng, GOLDEN, 40)
    _close(xy * z, _reference_mul(xy, z), _product_bound(xy, z))
    _close(z * xy, _reference_mul(z, xy), _product_bound(z, xy))


def test_kernel_float_theta_and_empty_operands():
    rng = np.random.default_rng(13)
    x, y = _random_element(rng, 0.3178), _random_element(rng, 0.3178)
    _close(x * y, _reference_mul(x, y), _product_bound(x, y))
    zero = TorusElement(0.3178)
    for got in (zero * y, x * zero, zero * zero):
        assert got.coeffs == {}


def test_kernel_on_sparse_exponents():
    # a box may hold at most _MAX_CELLS cells: keys far apart are refused
    # rather than stored, and so is a product whose windows would exceed the
    # cap, even when both factors fit
    rng = np.random.default_rng(14)
    sparse = {(int(n), int(m)): complex(*rng.standard_normal(2))
              for n, m in rng.integers(-2**62, 2**62, size=(9, 2))}
    with pytest.raises(ValueError, match="exceeds the cap"):
        TorusElement(GOLDEN, sparse)
    wide = TorusElement(GOLDEN, {(0, 0): 1.0, (300, 0): 2.0})
    with pytest.raises(ValueError, match="exceeds the cap"):
        wide * wide
    # a 1x65535 output fits, but each of the 32768 columns would add a block of
    # 32768 cells into it
    row = TorusElement(GOLDEN, {(0, 0): 1.0, (0, 32767): 2.0})
    with pytest.raises(ValueError, match="exceeds the cap"):
        row * row
    with pytest.raises(ValueError, match="exceeds the cap"):
        wide + TorusElement.monomial(GOLDEN, 0, 300)
    # one term far out is a 1x1 box: n*m overflows int64 and its phases come
    # from exact Python ints
    x = TorusElement.monomial(GOLDEN, 2**62, -2**62, 1.5 - 2j)
    _close(x * x, _reference_mul(x, x), _product_bound(x, x))
    _close(x * x.star(), _reference_mul(x, x.star()), _product_bound(x, x))
    _close(x.star(), _REFERENCE["star"](x), 6 * _U * _exact_norm(x))


def _distinct_conj_phases(theta, a0, na, b0, nb):
    """conj(e(theta*k)) over the grid k = (a0 + i)*(b0 + j), one phase() per
    distinct k, with k in Python ints where int64 would overflow."""
    big = max(abs(a0), abs(a0 + na - 1), 1) * max(abs(b0), abs(b0 + nb - 1), 1) >= 1 << 63
    dtype = object if big else np.int64
    k = np.multiply.outer(np.arange(a0, a0 + na, dtype=dtype), np.arange(b0, b0 + nb, dtype=dtype))
    distinct, inverse = np.unique(k, return_inverse=True)
    table = np.array([phase(theta, d) for d in distinct.tolist()], complex).conj()
    return table[inverse].reshape(k.shape)


def _column_loop_mul(x, y):
    """(lo, box) of x*y by the column-loop kernel: each column of x, padded and
    windowed, times y's phase-scaled rows, added into the output in column
    order, phases from the distinct k."""
    (n0, m0), (p0, q0) = x.lo, y.lo
    (na, ma), (nb, mb) = x.a.shape, y.a.shape
    w = _distinct_conj_phases(x.theta, m0, ma, p0, nb)
    out = np.zeros((na + nb - 1, ma + mb - 1), complex)
    for j in range(ma):
        col = np.zeros(na + 2 * nb - 2, complex)
        col[nb - 1:nb - 1 + na] = x.a[:, j]
        out[:, j:j + mb] += sliding_window_view(col, nb) @ (w[j, ::-1, None] * y.a[::-1])
    return (n0 + p0, m0 + q0), out


def _distinct_star(x):
    (n0, m0), (n, m) = x.lo, x.a.shape
    lo = (1 - n0 - n, 1 - m0 - m)
    return lo, x.a[::-1, ::-1].conj() * _distinct_conj_phases(x.theta, lo[0], n, lo[1], m)


def _shifted(theta, coeffs, shift):
    return TorusElement(theta, {(n + shift[0], m + shift[1]): c for (n, m), c in coeffs.items()})


_FAR = {(2**62, -2**62): 1.5 - 2j}
# dense 9x9 boxes: each product cell sums terms from up to 9 columns, so an
# addition order other than the column loop's shows in the last bits
_DENSE = [dict(zip([(n, m) for n in range(-4, 5) for m in range(-4, 5)],
                   map(complex, *np.random.default_rng(seed).normal(size=(2, 81)))))
          for seed in (16, 17)]


def _bit_for_bit_cases(test):
    """Two elements xs and ys shifted by dx and dy: float theta, empty operands,
    the 2^62 monomial and dense 9x9 boxes among the examples."""
    for ex in [
        dict(theta=GOLDEN, xs={}, ys={}, dx=(0, 0), dy=(0, 0)),
        dict(theta=GOLDEN, xs={}, ys={(3, -15): 1 + 2j}, dx=(0, 0), dy=(7, 9)),
        dict(theta=TEST5, xs={(-7, 11): -0.5j}, ys={}, dx=(-30, 25), dy=(0, 0)),
        dict(theta=GOLDEN, xs=_FAR, ys=_FAR, dx=(0, 0), dy=(0, 0)),
        dict(theta=TEST5, xs=_DENSE[0], ys=_DENSE[1], dx=(0, 0), dy=(0, 0)),
        dict(theta=GOLDEN, xs=_DENSE[1], ys=_DENSE[0], dx=(20, -30), dy=(-7, 11)),
        dict(theta=0.3178, xs={(1, 2): 1j, (-4, 5): 2.0}, ys={(6, -6): 1.0, (0, 0): -1j},
             dx=(0, 0), dy=(0, 0)),
    ][::-1]:
        test = example(**ex)(test)
    shifts = st.tuples(st.integers(-40, 40), st.integers(-40, 40))
    return given(theta=st.one_of(quad_irrs, st.floats(-10, 10)), xs=supports, ys=supports,
                 dx=shifts, dy=shifts)(test)


@_bit_for_bit_cases
def test_product_and_star_bit_for_bit(theta, xs, ys, dx, dy):
    # theta's row of exact phases changes no bit of the column loop with one
    # phase() per distinct k, on grids that grow the row, that reuse it, that
    # are too sparse for it and that have a float theta
    x, y = _shifted(theta, xs, dx), _shifted(theta, ys, dy)
    lo, box = _column_loop_mul(x, y)
    got = x * y
    assert got.lo == lo and np.array_equal(got.a, box)
    for el in (x, y, got):
        lo, box = _distinct_star(el)
        got = el.star()
        assert got.lo == lo and np.array_equal(got.a, box)


def _stack(elements):
    """The batch of elements, each placed in the box that holds them all."""
    lo = [min(e.lo[k] for e in elements) for k in (0, 1)]
    hi = [max(e.lo[k] + e.a.shape[k] for e in elements) for k in (0, 1)]
    a = np.zeros((len(elements), hi[0] - lo[0], hi[1] - lo[1]), complex)
    for box, e in zip(a, elements):
        i, j = e.lo[0] - lo[0], e.lo[1] - lo[1]
        box[i:i + e.a.shape[0], j:j + e.a.shape[1]] = e.a
    return TorusElement.from_box(elements[0].theta, lo, a)


def _slice(x, k):
    """Element k of a batch as an element of its own on the batch's box; x itself if single."""
    return TorusElement.from_box(x.theta, x.lo, x.a[k]) if x.a.ndim == 3 else x


@_bit_for_bit_cases
def test_batch_acts_slice_by_slice(theta, xs, ys, dx, dy):
    # a batch is its slices in one call: each slice of a product (batch by
    # batch, by element and element by batch), star, sum, difference,
    # negation, scaling, derivation, trace and norm1 is, to the bit, that of
    # the slices alone on the same boxes
    tau = 0.3 + 1.1j

    def scale(e):
        return e.scaled(0.5 - 2j)

    x, y = _shifted(theta, xs, dx), _shifted(theta, ys, dy)
    X = _stack([x, scale(x), x.derive("dtau", tau)])
    Y = _stack([y.derive("d2"), y, y.scaled(0)])
    binary = [(operator.mul, X, Y), (operator.mul, X, y), (operator.mul, x, Y),
              (operator.add, X, Y), (operator.sub, y, X)]
    unary = [(op, X) for op in (TorusElement.star, operator.neg, scale,
                                lambda e: e.derive("d1"), lambda e: e.derive("dtau", tau))]
    for op, *args in binary + unary:
        got = op(*args)
        assert got.a.shape[0] == 3
        for k in range(3):
            slices = [_slice(a, k) for a in args]
            want = op(*slices)
            assert got.lo == want.lo and np.array_equal(got.a[k], want.a)
    for k in range(3):
        assert X.trace()[k] == _slice(X, k).trace() and X.norm1()[k] == _slice(X, k).norm1()
    assert type(X.norm1()[0]) is np.float64 and X.trace().dtype == complex


def test_batch_inspection():
    # coeffs maps each cell nonzero in some slice to its slices' values;
    # support, == and repr follow it, and a box is checked when it is made
    a = np.zeros((2, 2, 3), complex)
    a[0, 0, 0], a[1, 1, 2] = 1.5, -2j
    x = TorusElement.from_box(GOLDEN, (-1, 4), a)
    assert dict(x.coeffs) == {(-1, 4): (1.5, 0j), (0, 6): (0j, -2j)}
    assert x.support() == {(-1, 4), (0, 6)}
    assert x == TorusElement.from_box(GOLDEN, (-1, 4), a) != _slice(x, 0)
    assert x != TorusElement.from_box(GOLDEN, (-1, 4), a[::-1])
    assert repr(x) == "TorusElement((1.5+0j, 0+0j)U^-1V^4 + (0+0j, -0-2j)U^0V^6)"
    assert x.trace().tolist() == [0j, 0j] and x.norm1().tolist() == [1.5, 2.0]
    with pytest.raises(ValueError, match="do not match"):
        x * TorusElement.from_box(GOLDEN, (0, 0), np.ones((3, 1, 1)))
    for bad in (np.ones(3), np.ones((2, 2, 2, 2)), np.ones((0, 2, 2))):
        with pytest.raises(ValueError, match="a box has shape"):
            TorusElement.from_box(GOLDEN, (0, 0), bad)
    with pytest.raises(ValueError, match="exceeds the cap"):
        TorusElement.from_box(GOLDEN, (0, 0), np.ones((17, 64, 64)))
    with pytest.raises(TypeError, match="not a pair of integers"):
        TorusElement.from_box(GOLDEN, (0.5, 0), np.ones((1, 1)))


def _peak_mib(op) -> float:
    """The most memory, in MiB, that op() holds at once, numpy's arrays included."""
    tracemalloc.start()
    try:
        op()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_product_memory_stays_within_the_cap():
    # no array of a product exceeds _MAX_CELLS cells (1 MiB), and a product
    # peaks within twice that: one column at a time, the three pairs peaked
    # at 0.03, 0.08 and 0.09 MiB
    def box(n, m):
        return TorusElement(GOLDEN, {(i - n // 2, j - m // 2): complex(i, j)
                                     for i in range(n) for j in range(m)})

    pairs = [(box(1, 1000), box(1, 1)), (box(37, 37), box(13, 13)), (box(16, 32), box(17, 33))]
    for x, y in pairs:
        assert _peak_mib(lambda: x * y) <= 2.0


def test_batched_product_memory_stays_within_the_cap():
    # a batch takes one column of the left box at a time: no array exceeds
    # _MAX_CELLS cells (1 MiB), and a product holds at most three such arrays
    # at once, its output, one column's scaled right boxes and their blocks.
    # The CLI's largest steps, 47 slices of 13x13 by 25x25 and of 25x25 by
    # 13x13 boxes, peaked at 2.1 and 1.6 MiB.  The cap bounds each column's
    # windows as well: a batch of one 1x1 box times a 65536x1 box, which would
    # make a 65536x65536 matmul of windows, is refused like the single product
    rng = np.random.default_rng(18)
    B = _MAX_CELLS // 37 ** 2

    def box(n, m):
        return TorusElement.from_box(GOLDEN, (-(n // 2), -(m // 2)),
                                     rng.normal(size=(B, n, m)) + 1j * rng.normal(size=(B, n, m)))

    pairs = [(box(13, 13), box(13, 13)), (box(25, 25), box(13, 13)), (box(13, 13), box(25, 25))]
    for x, y in pairs:
        assert _peak_mib(lambda: x * y) <= 3.0
    with pytest.raises(ValueError, match="exceeds the cap"):
        box(25, 25) * TorusElement.from_box(GOLDEN, (0, 0), np.ones((B, 14, 14)))
    tall = np.ones((1, _MAX_CELLS, 1))
    for one, column in [(np.ones((1, 1, 1)), tall), (np.ones((1, 1)), tall[0])]:
        with pytest.raises(ValueError, match="exceeds the cap"):
            TorusElement.from_box(GOLDEN, (0, 0), one) * TorusElement.from_box(GOLDEN, (0, 0), column)


def test_phase_row_stays_within_the_cap():
    # theta's row grows to a grid's largest |k| only while 2|k| + 1 is at most
    # the grid's cells, so it never holds more than _MAX_CELLS phases
    theta = QuadIrr.parse("sqrt3")
    far = TorusElement.monomial(theta, 0, 300) * TorusElement.monomial(theta, 300, 0)
    assert far.lo == (300, 300)
    assert len(conj_phase_row(theta, 0, 1)) == 1  # k = 90000 on one cell left no row
    widest = TorusElement(theta, {(n, m): 1.0 for n in (-127, 127) for m in (-128, 127)})
    widest.star()  # 255x256 cells, |n*m| <= 127*128
    row = conj_phase_row(theta, 0, 1)
    assert len(row) == 2 * 127 * 128 + 1 <= _MAX_CELLS
    assert all(row[k + len(row) // 2] == phase(theta, k).conjugate() for k in (-16256, -1, 0, 5, 16256))
    line = TorusElement(theta, {(100, 0): 1.0, (100, 200): 1.0})
    line.star()  # |k| up to 20000 > 16256 on 201 cells: the row stays as it was
    assert conj_phase_row(theta, 0, 1) is row


def test_exponents_must_be_integers():
    # a float exponent was once truncated without a word: U^1.5 V^0.9 became U
    with pytest.raises(TypeError, match=r"\(1\.5, 0\.9\)"):
        TorusElement(GOLDEN, {(1.5, 0.9): 1})
    with pytest.raises(TypeError, match=r"\(2\.7, -0\.5\)"):
        TorusElement.monomial(GOLDEN, 2.7, -0.5)
    with pytest.raises(TypeError, match="not a pair of integers"):
        TorusElement(GOLDEN, {(1, 2, 3): 1})
    x = TorusElement(GOLDEN, {(np.int64(2), np.int32(-1)): 1.0})
    assert x.coeffs == {(2, -1): 1} and type(x.lo[0]) is int


def _operand_pairs():
    rng = np.random.default_rng(15)
    x = _random_element(rng, GOLDEN, 30)
    ys = _random_element(rng, GOLDEN, 30).coeffs
    first = next(iter(x.coeffs.items()))
    y = TorusElement(GOLDEN, {**ys, first[0]: -first[1]})  # a sum that cancels
    fx = _random_element(rng, 0.3178, 20)
    return {
        "golden": (x, y),
        "float_theta": (fx, _random_element(rng, 0.3178, 20)),
        "empty_left": (TorusElement(GOLDEN), x),
        "empty_right": (fx, TorusElement(0.3178)),
        "empty_both": (TorusElement(GOLDEN), TorusElement(GOLDEN)),
    }


def _derive_scale(x, which, tau=None) -> float:
    """Sum over the terms of |a| times a bound on the derivation's factor:
    2*pi*|n|, 2*pi*|m| or 2*pi*(|tau||n| + |m|)."""
    t = abs(complex(tau)) if which == "dtau" else float(which == "d1")
    s = float(which != "d1")
    return math.fsum(2 * math.pi * (t * abs(n) + s * abs(m)) * abs(a)
                     for (n, m), a in x.coeffs.items())


def test_linear_operations_match_validating_constructor():
    # bounds per operation, both sides against the exact value, to first
    # order in u with room for the second: sums and negation round each part
    # once, as the dict loop does, so they agree exactly; a complex product
    # rounds by sqrt(2)*gamma_2 on each side (C = 6, also with |phase| <= 1 + 4u);
    # a derivation also rounds its factor 2*pi*n once (C = 8), or
    # 2*pi*(tau*n + m) three times (C = 12); norm1 sums k absolute values,
    # each within 2u, on each side (C = 2(k + 1))
    tau = 0.3 + 1.1j
    z = 0.3 - 1.7j
    for x, y in _operand_pairs().values():
        assert (x + y).coeffs == _REFERENCE["__add__"](x, y).coeffs
        assert (x - y).coeffs == _REFERENCE["__sub__"](x, y).coeffs
        assert (y - x).coeffs == _REFERENCE["__sub__"](y, x).coeffs
        assert (-x).coeffs == _REFERENCE["__neg__"](x).coeffs
        _close(x.scaled(z), _REFERENCE["scaled"](x, z), 6 * _U * abs(z) * _exact_norm(x))
        assert x.scaled(0).coeffs == {}
        _close(x.star(), _REFERENCE["star"](x), 6 * _U * _exact_norm(x))
        for which, c in (("d1", 8), ("d2", 8), ("dtau", 12)):
            _close(x.derive(which, tau), _REFERENCE["derive"](x, which, tau),
                   c * _U * _derive_scale(x, which, tau))
        for el in (x, y, x - y, x.star()):
            assert all(type(a) is complex for a in el.coeffs.values())
            assert el.trace() == _REFERENCE["trace"](el) and type(el.trace()) is complex
            k = len(el.coeffs)
            assert abs(el.norm1() - _REFERENCE["norm1"](el)) <= 2 * (k + 1) * _U * _exact_norm(el)
        assert x.scaled(np.float64(2.0)).coeffs == x.scaled(2.0).coeffs
        assert all(type(a) is complex for a in x.scaled(np.float64(2.0)).coeffs.values())


def test_coeffs_is_a_read_only_view_in_key_order():
    coeffs = {(3, -1): 1j, (0, 0): 0.0, (-2, 5): 2.0, (1, 1): -1 + 0.5j}
    x = TorusElement(GOLDEN, coeffs)
    assert list(x.coeffs.items()) == sorted((k, complex(a)) for k, a in coeffs.items() if a != 0)
    with pytest.raises(TypeError):
        x.coeffs[(0, 0)] = 1.0
    # the box runs from the least to the greatest exponent of each variable
    assert x.lo == (-2, -1)
    assert x.a.dtype == complex and x.a.shape == (6, 7)


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
        # star is conjugate-linear: scaling by 2j is exact, and each side rounds
        # one complex product by its phase, sqrt(2)*gamma_2 of 2|a| and of |a|
        _close(x.scaled(2j).star(), x.star().scaled(-2j), 12 * _U * _exact_norm(x))


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
