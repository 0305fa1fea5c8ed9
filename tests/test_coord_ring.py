import itertools
import json
import math
import time

import mpmath
import numpy as np
import pytest

from rmtorus import coord_ring
from rmtorus.cli import _json_default
from rmtorus.coord_ring import (
    _expand,
    _holomorphic_grid,
    RingElement,
    associativity_residual,
    check_generation,
    check_quadratic,
    cyclic_shifts,
    cyclic_symmetry_residual,
    mult,
    piece_dim,
    ring_report,
    structure_tensor,
    tensor_labels,
    theta_match_report,
)
from rmtorus.heis_module import balanced_product, holomorphic_element
from rmtorus.heis_rep import FiniteVector
from rmtorus.qfield import QuadIrr, RMData, SL2Matrix

TEST5 = RMData(QuadIrr.parse("(-5+sqrt5)/10"))
README = RMData(QuadIrr.parse("(-5+sqrt5)/10"), SL2Matrix.from_list([[-1, -1], [5, 4]]))
GOLDEN = RMData(QuadIrr.parse("(1+sqrt5)/2"))
ROOT2 = RMData(QuadIrr.parse("sqrt2"))
TAU = 0.3 + 1.1j
TAU2 = -0.2 + 0.9j


@pytest.fixture(scope="module")
def t11():
    return structure_tensor(1, 1, TEST5, TAU)


def test_piece_dims():
    assert [piece_dim(n, TEST5) for n in range(4)] == [1, 5, 15, 40]
    assert [piece_dim(n, GOLDEN) for n in range(4)] == [1, 1, 3, 8]


def test_unit_multiplication_exact():
    one = RingElement.unit(TEST5, TAU)
    x = RingElement.basis(TEST5, TAU, 1, 2)
    prod, report = mult(one, x)
    assert prod.distance(x) == 0.0
    assert report["max_residual"] == 0.0
    prod2, _ = mult(x, one.scaled(2.0))
    assert prod2.distance(x.scaled(2.0)) == 0.0


def test_grading(t11):
    u = RingElement.basis(TEST5, TAU, 1, 0) + RingElement.unit(TEST5, TAU)
    v = RingElement.basis(TEST5, TAU, 1, 3)
    prod, _ = mult(u, v)
    assert sorted(prod.degrees()) == [1, 2]
    # degree-2 part matches the structure tensor contraction
    x = np.zeros(5, dtype=complex)
    x[0] = 1.0
    y = np.zeros(5, dtype=complex)
    y[3] = 1.0
    want = t11.contract(x, y)
    got = prod.piece(2)
    assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def test_tensor_contract_matches_mult(t11):
    # mult contracts t11; the contraction agrees with one balanced product of
    # dense-weight elements, the route that builds no tensor
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        y = rng.normal(size=5) + 1j * rng.normal(size=5)
        prod, prep = balanced_product(
            holomorphic_element(TEST5, 1, TAU, weights=FiniteVector(x)),
            holomorphic_element(TEST5, 1, TAU, weights=FiniteVector(y)))
        got, res = _expand(prod, _holomorphic_grid(TEST5, TAU, 2))
        want = t11.contract(x, y)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) < 1e-10 * scale
        assert max(res, prep["max_residual"]) < 1e-8


def test_ring_report_builds_each_tensor_once(monkeypatch):
    built = []

    def counting(m, n, data, tau, tol=1e-9):
        built.append((m, n))
        return structure_tensor(m, n, data, tau, tol)

    monkeypatch.setattr(coord_ring, "structure_tensor", counting)
    ring_report(TEST5, TAU, max_degree=3, assoc_triples=2)
    assert sorted(built) == [(1, 1), (1, 2), (2, 1)]
    # a second report rebuilds them: no tensor outlives a call
    ring_report(TEST5, TAU, max_degree=3, assoc_triples=2)
    assert sorted(built) == sorted([(1, 1), (1, 2), (2, 1)] * 2)


def test_structure_tensor_residuals(t11):
    assert t11.tensor.shape == (15, 5, 5)
    assert t11.max_residual < 1e-8
    assert t11.max_cond < 1e12


def test_cyclic_shift_values():
    assert cyclic_shifts(1, 1, TEST5) == (3, 1, 4)
    assert cyclic_shifts(1, 2, TEST5) == (8, 1, 12)
    assert cyclic_shifts(2, 1, TEST5) == (8, 3, 1)


def test_cyclic_symmetry(t11):
    assert cyclic_symmetry_residual(t11, TEST5) < 1e-8
    t12 = structure_tensor(1, 2, TEST5, TAU)
    assert cyclic_symmetry_residual(t12, TEST5) < 1e-8
    t21 = structure_tensor(2, 1, TEST5, TAU)
    assert cyclic_symmetry_residual(t21, TEST5) < 1e-8


def test_generation_ranks():
    gen = check_generation(TEST5, TAU, 3)
    per = {tuple(d["source"]): d for d in gen["per_degree"]}
    assert per[(1, 1)]["rank"] == 15 and per[(1, 1)]["surjective"]
    assert per[(1, 2)]["rank"] == 40 and per[(1, 2)]["surjective"]
    assert gen["generated"]


def test_golden_ratio_fails_generation():
    # c = 1 = a + d - 1 < a + d: degree-1 products span a single line in R_2
    gen = check_generation(GOLDEN, TAU, 2)
    d = gen["per_degree"][0]
    assert d["target_dim"] == 3
    assert d["rank"] == 1
    assert not d["surjective"]
    assert not gen["generated"]


def test_quadratic_presentation():
    quad = check_quadratic(TEST5, TAU)
    assert quad["dim_K"] == 10
    assert quad["expected_dim_K"] == 10
    assert quad["ker3_dim"] == 85
    assert quad["span_dim"] == 85
    assert quad["inclusion_residual"] < 1e-8
    assert quad["quadratic"] is True


def test_associativity():
    assert associativity_residual(TEST5, TAU, triples=5, seed=3) < 1e-8


def test_ring_element_linear_ops():
    x = RingElement.basis(TEST5, TAU, 1, 0)
    y = RingElement.basis(TEST5, TAU, 1, 1)
    z = x.scaled(2.0) + y - x
    assert z.degrees() == [1]
    assert np.allclose(z.piece(1), [1, 1, 0, 0, 0])
    assert z.norm() > 0
    with pytest.raises(ValueError):
        mult(x, RingElement.basis(GOLDEN, TAU, 1, 0))


def test_theta_match_report_shape(t11):
    rows = theta_match_report(t11, TAU, entries=4)
    assert len(rows) == 4
    for row in rows:
        assert set(row) == {"index", "magnitude", "nearest"}
        assert set(row["nearest"]) == {"r", "l", "value", "rel_gap"}
        assert row["nearest"]["l"] == t11.level == 15
        assert row["nearest"]["rel_gap"] < 1e-12


def test_ring_report_serializable():
    rep = ring_report(TEST5, TAU, max_degree=2, assoc_triples=2, seed=0)
    assert rep["dims"] == [1, 5, 15]
    assert rep["generation"] == [True]
    assert rep["quadratic"] is None  # needs degree 3
    text = json.dumps(rep, sort_keys=True, default=_json_default)
    assert json.loads(text)["dims"] == [1, 5, 15]


# -- closed-form tensors against the grid/least-squares route ---------------------

def _reference_tensor(m, n, data, tau, pairs=None):
    """T(m, n) by one balanced_product per basis pair, each projected on the
    R_{m+n} basis on a sampling grid.  Columns outside ``pairs`` stay NaN."""
    cm, cn, cN = piece_dim(m, data), piece_dim(n, data), piece_dim(m + n, data)
    T = np.full((cN, cm, cn), np.nan, dtype=complex)
    grid = _holomorphic_grid(data, tau, m + n)
    for k, l in pairs or itertools.product(range(cm), range(cn)):
        prod, prep = balanced_product(holomorphic_element(data, m, tau, k=k),
                                      holomorphic_element(data, n, tau, k=l))
        T[:, k, l], res = _expand(prod, grid)
        assert max(res, prep["max_residual"]) < 1e-8
    return T


_REFERENCE_CASES = [(data, tau, mn) for data, tau in ((README, TAU), (ROOT2, TAU2))
                    for mn in ((1, 1), (1, 2), (2, 1), (2, 2))]


@pytest.mark.parametrize("data,tau,mn", _REFERENCE_CASES,
                         ids=[f"{'readme' if d is README else 'sqrt2'}-{m}{n}"
                              for d, _, (m, n) in _REFERENCE_CASES])
def test_structure_tensor_matches_reference(data, tau, mn):
    m, n = mn
    st = structure_tensor(m, n, data, tau)
    pairs = None
    if data is ROOT2 and mn == (2, 2):
        # 144 pairs of 408 outputs take about 35 s; eight seeded columns
        rng = np.random.default_rng(5)
        pairs = [tuple(p) for p in rng.integers(0, piece_dim(2, data), size=(8, 2))]
    want = _reference_tensor(m, n, data, tau, pairs)
    hit = ~np.isnan(want)
    assert np.max(np.abs(st.tensor[hit] - want[hit])) <= 1e-12 * np.max(np.abs(st.tensor))
    assert st.max_residual < 1e-8


def _mp_theta(num, den, level, tau):
    r = mpmath.mpf(num) / den
    m = level * mpmath.mpc(tau.real, tau.imag)
    N = int(mpmath.sqrt(150 / (mpmath.pi * m.imag))) + 2     # tail below 1e-60
    return sum(mpmath.expjpi((n + r) ** 2 * m) for n in range(-N, N + 1))


@pytest.mark.parametrize("data,tau,mn", [(README, TAU, (1, 1)), (README, TAU, (1, 2)),
                                         (README, 0.3 + 0.001j, (1, 1)),
                                         (README, 12.7 + 0.05j, (2, 1)),
                                         (ROOT2, TAU2, (1, 2))],
                         ids=["readme-11", "readme-12", "readme-11-near-real",
                              "readme-21-large-re", "sqrt2-12"])
def test_entry_bound_covers_50_digit_values(data, tau, mn):
    st = structure_tensor(*mn, data, tau)
    rng = np.random.default_rng(11)
    worst = 0.0
    with mpmath.workdps(50):
        for i in rng.choice(np.flatnonzero(st.labels.ravel() >= 0), 25):
            exact = _mp_theta(int(st.labels.flat[i]), st.denominator, st.level, tau)
            worst = max(worst, float(abs(complex(st.tensor.flat[i]) - exact)))
    assert worst <= st.entry_bound
    assert st.max_residual >= st.entry_bound / np.max(np.abs(st.tensor))


@pytest.mark.parametrize("data,mn", [(README, (1, 1)), (README, (1, 2)), (README, (2, 1)),
                                     (README, (2, 2)), (README, (1, 3)), (ROOT2, (1, 2)),
                                     (ROOT2, (2, 1)), (GOLDEN, (1, 2))],
                         ids=["readme-11", "readme-12", "readme-21", "readme-22", "readme-13",
                              "sqrt2-12", "sqrt2-21", "golden-12"])
def test_labels_are_cyclic_invariant(data, mn):
    labels, den, level = tensor_labels(*mn, data)
    sN, sm, sn = cyclic_shifts(*mn, data)
    shifted = np.roll(np.roll(np.roll(labels, sN, axis=0), sm, axis=1), sn, axis=2)
    assert np.array_equal(shifted, labels)
    # every (j, s mod P) pair meets its own entry, P = lcm(c_m, c_n) = den / c_N
    cN, cm, cn = labels.shape
    assert den == cN * math.lcm(cm, cn) and labels.max() < den
    assert np.count_nonzero(labels >= 0) == den
    assert level * cm * cn == cN * (den // cN) ** 2


def test_near_real_tau_report_is_generated():
    # Im(tau) = 0.001: the grid/least-squares tensors did not finish in 120 s
    t0 = time.perf_counter()
    rep = ring_report(README, 0.3 + 0.001j, max_degree=3, assoc_triples=2)
    assert time.perf_counter() - t0 < 10.0
    assert rep["generation"] == [True, True]
    assert rep["quadratic"] is True
    assert all(t["max_residual"] < 1e-8 for t in rep["tensors"])
