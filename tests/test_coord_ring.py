import json

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
    theta_match_report,
)
from rmtorus.heis_module import balanced_product, holomorphic_element
from rmtorus.heis_rep import FiniteVector
from rmtorus.qfield import QuadIrr, RMData

TEST5 = RMData(QuadIrr.parse("(-5+sqrt5)/10"))
GOLDEN = RMData(QuadIrr.parse("(1+sqrt5)/2"))
TAU = 0.3 + 1.1j


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
    # diagnostic only: structure, not values
    rows = theta_match_report(t11, TAU, l_max=2, entries=4)
    assert len(rows) <= 4
    for row in rows:
        assert set(row) == {"index", "magnitude", "nearest"}
        assert set(row["nearest"]) == {"r", "l", "value", "rel_gap"}
        assert row["nearest"]["rel_gap"] >= 0.0


def test_ring_report_serializable():
    rep = ring_report(TEST5, TAU, max_degree=2, assoc_triples=2, seed=0)
    assert rep["dims"] == [1, 5, 15]
    assert rep["generation"] == [True]
    assert rep["quadratic"] is None  # needs degree 3
    text = json.dumps(rep, sort_keys=True, default=_json_default)
    assert json.loads(text)["dims"] == [1, 5, 15]
