import itertools
import json
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from rmtorus import coord_ring
from rmtorus.cli import _json_default
from rmtorus.coord_ring import (
    _null_space,
    _relation_span,
    associativity_residual,
    build_tensors,
    check_generation,
    check_quadratic,
    cyclic_shifts,
    cyclic_symmetry_residual,
    label_plan,
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
from rmtorus.theta import tail_bound

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


def _basis(j, dim):
    vec = np.zeros(dim, dtype=complex)
    vec[j] = 1.0
    return vec


def test_unit_multiplication_exact(t11):
    one = {0: np.ones(1, dtype=complex)}
    x = {1: _basis(2, 5)}
    prod = mult(one, x, {(1, 1): t11})
    assert prod.keys() == {1} and np.array_equal(prod[1], x[1])
    prod2 = mult(x, {0: np.full(1, 2.0 + 0j)}, {})
    assert prod2.keys() == {1} and np.array_equal(prod2[1], 2.0 * x[1])


def test_grading(t11):
    u = {1: _basis(0, 5), 0: np.ones(1, dtype=complex)}
    v = {1: _basis(3, 5)}
    prod = mult(u, v, {(1, 1): t11})
    assert sorted(prod) == [1, 2]
    # degree-2 part matches the structure tensor contraction
    want = t11.contract(u[1], v[1])
    assert np.max(np.abs(prod[2] - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))
    assert np.array_equal(prod[1], v[1])


def _coefficients(prod, tau):
    """The coefficients over j of a holomorphic balanced product's one term,
    f_{tau,N} (x) (coefficients), N = prod.degree."""
    ((atom_sum, row),) = prod.terms
    (atom,) = atom_sum.atoms
    assert atom.poly == (1,) and atom.beta == 0
    assert abs(atom.alpha - tau / (2.0 * prod.consts.eps)) < 1e-14 * abs(atom.alpha)
    return np.array(row.entries)


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
        got = _coefficients(prod, TAU)
        want = mult({1: x}, {1: y}, {(1, 1): t11})[2]
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) < 1e-10 * scale
        assert prep["max_residual"] < 1e-8


def test_mult_is_bilinear_and_batched(t11):
    # a {degree: piece} map is a ring element; pieces may carry batch axes
    rng = np.random.default_rng(7)
    x, y, z = (rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)) for _ in range(3))
    units = rng.normal(size=(3, 1)) + 0j
    tensors = {(1, 1): t11}
    got = mult({0: units, 1: x + 2.0 * y}, {1: z}, tensors)
    want = t11.contract(x, z) + 2.0 * t11.contract(y, z)
    assert sorted(got) == [1, 2]
    assert np.allclose(got[2], want, rtol=1e-13, atol=0)
    assert np.array_equal(got[1], units * z)
    for b in range(3):
        one = mult({0: units[b], 1: x[b] + 2.0 * y[b]}, {1: z[b]}, tensors)
        assert np.allclose(one[2], got[2][b], rtol=1e-14, atol=0)
        assert np.array_equal(one[1], got[1][b])


def test_ring_report_builds_each_tensor_once(monkeypatch):
    built = []

    def counting(m, n, data, tau):
        built.append((m, n))
        return structure_tensor(m, n, data, tau)

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
    gen = check_generation(build_tensors(TEST5, TAU, [(1, 1), (1, 2)]), 3)
    per = {tuple(d["source"]): d for d in gen["per_degree"]}
    assert per[(1, 1)]["rank"] == 15 and per[(1, 1)]["surjective"]
    assert per[(1, 2)]["rank"] == 40 and per[(1, 2)]["surjective"]
    assert gen["generated"]


def test_golden_ratio_fails_generation():
    # c = 1 = a + d - 1 < a + d: degree-1 products span a single line in R_2
    gen = check_generation(build_tensors(GOLDEN, TAU, [(1, 1)]), 2)
    d = gen["per_degree"][0]
    assert d["target_dim"] == 3
    assert d["rank"] == 1
    assert not d["surjective"]
    assert not gen["generated"]


def test_quadratic_presentation():
    quad = check_quadratic(build_tensors(TEST5, TAU, [(1, 1), (2, 1)]))
    assert quad["dim_K"] == 10
    assert quad["expected_dim_K"] == 10
    assert quad["ker3_dim"] == 85
    assert quad["span_dim"] == 85
    assert quad["inclusion_residual"] < 1e-8
    assert quad["quadratic"] is True


def test_associativity():
    tensors = build_tensors(TEST5, TAU, [(1, 1), (2, 1), (1, 2)])
    assert associativity_residual(tensors, triples=5, seed=3) < 1e-8


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
    """T(m, n) by one balanced_product per basis pair, each read off its one
    f_{tau,m+n} term.  Columns outside ``pairs`` stay NaN."""
    cm, cn, cN = piece_dim(m, data), piece_dim(n, data), piece_dim(m + n, data)
    T = np.full((cN, cm, cn), np.nan, dtype=complex)
    for k, l in pairs or itertools.product(range(cm), range(cn)):
        prod, prep = balanced_product(holomorphic_element(data, m, tau, k=k),
                                      holomorphic_element(data, n, tau, k=l))
        T[:, k, l] = _coefficients(prod, tau)
        assert prep["max_residual"] < 1e-8
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


# -- one folded theta batch per tensor; batched checks ----------------------------

@pytest.mark.parametrize("mn,count", [((1, 1), 8), ((1, 2), 61), ((2, 1), 61), ((1, 3), 421),
                                      ((1, 4), 2888)])
def test_one_kernel_call_per_tensor_on_folded_labels(monkeypatch, mn, count):
    # theta_{-r} = theta_r: 15/120/120/840/5775 distinct labels fold to about half
    calls = []
    kernel = coord_ring.theta_partial

    def counting(nums, den, m, N, z=None):
        calls.append((len(nums), den, N))
        return kernel(nums, den, m, N, z)

    monkeypatch.setattr(coord_ring, "theta_partial", counting)
    st = structure_tensor(*mn, README, TAU)
    assert [c[0] for c in calls] == [count]
    # the folded batch is exactly the distinct labels, folded
    labels = st.labels[st.labels >= 0]
    folded = np.unique(np.minimum(labels, st.denominator - labels))
    assert folded.size == count
    step, den, level, N = label_plan(*mn, README, TAU)
    assert (den, level, N) == (st.denominator, st.level, calls[0][2])
    assert np.array_equal(folded, np.arange(0, den // 2 + 1, step))


@pytest.mark.parametrize("tau", [TAU, 0.3 + 0.001j], ids=["readme", "near-real"])
def test_one_n_certifies_the_largest_folded_label(tau):
    # the tail bound grows with r, so the N of the largest folded label
    # certifies every label; the N of any smaller one may not
    for mn in ((1, 1), (2, 1), (1, 3)):
        step, den, level, N = label_plan(*mn, README, tau)
        top, t = Fraction(den // 2 // step * step, den), (level * tau).imag
        assert tail_bound(N, top, t) <= coord_ring._THETA_TOL
        assert N == 1 or tail_bound(N - 1, top, t) > coord_ring._THETA_TOL


def _reference_relation_span(K, c1):
    cols = []
    eye = np.eye(c1, dtype=complex)
    for i in range(K.shape[1]):
        k = K[:, i].reshape(c1, c1)
        for r in range(c1):
            cols.append(np.einsum("pq,r->pqr", k, eye[r]).reshape(-1))
            cols.append(np.einsum("p,qr->pqr", eye[r], k).reshape(-1))
    return np.column_stack(cols) if cols else np.zeros((c1 ** 3, 0), dtype=complex)


def test_relation_span_matches_column_loop():
    # the README kernel K = ker(mu_2) (dim 10), and a seeded K with c1 = 4
    t11 = structure_tensor(1, 1, README, TAU)
    rng = np.random.default_rng(4)
    for c1, K in ((5, _null_space(t11.tensor.reshape(15, 25), 1e-7)),
                  (4, rng.normal(size=(16, 3)) - 1j * rng.normal(size=(16, 3)))):
        S = _relation_span(K, c1)
        assert S.shape == (c1 ** 3, 2 * c1 * K.shape[1])
        assert np.array_equal(S, _reference_relation_span(K, c1))
        assert _relation_span(K[:, :0], c1).shape == (c1 ** 3, 0)


def _reference_associativity(tensors, triples, seed):
    """One triple at a time, both bracketings by explicit einsums, without mult."""
    t11, t21, t12 = (tensors[pq].tensor for pq in ((1, 1), (2, 1), (1, 2)))
    rng = np.random.default_rng(seed)
    c1 = t11.shape[1]
    worst = 0.0
    for _ in range(triples):
        u, v, w = (rng.normal(size=c1) + 1j * rng.normal(size=c1) for _ in range(3))
        lhs = np.einsum("jkl,k,l->j", t21, np.einsum("jkl,k,l->j", t11, u, v), w)
        rhs = np.einsum("jkl,k,l->j", t12, u, np.einsum("jkl,k,l->j", t11, v, w))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / max(float(np.max(np.abs(rhs))),
                                                                   1e-300))
    return worst


@pytest.mark.parametrize("data,triples,seed", [(README, 20, 0), (README, 7, 3), (TEST5, 1, 967),
                                               (ROOT2, 5, 1)],
                         ids=["readme-20", "readme-7", "test5-1", "sqrt2-5"])
def test_associativity_matches_mult_loop(data, triples, seed):
    tensors = build_tensors(data, TAU, [(1, 1), (2, 1), (1, 2)])
    got = associativity_residual(tensors, triples, seed)
    assert got == _reference_associativity(tensors, triples, seed)
    assert 0.0 < got < 1e-8


def test_associativity_without_triples_builds_nothing():
    assert associativity_residual({}, triples=0) == 0.0


@pytest.mark.parametrize("max_degree", [1, 2, 3, 4])
@pytest.mark.parametrize("assoc_triples", [0, 2])
def test_ring_report_plans_every_tensor_before_building(monkeypatch, max_degree, assoc_triples):
    events = []
    plan, build = coord_ring.label_plan, coord_ring.structure_tensor

    def planning(m, n, data, tau):
        events.append(("plan", (m, n)))
        return plan(m, n, data, tau)

    def building(m, n, data, tau):
        events.append(("build", (m, n)))
        return build(m, n, data, tau)

    monkeypatch.setattr(coord_ring, "label_plan", planning)
    monkeypatch.setattr(coord_ring, "structure_tensor", building)
    ring_report(README, TAU, max_degree=max_degree, assoc_triples=assoc_triples)
    built = [pq for kind, pq in events if kind == "build"]
    first = events.index(("build", built[0])) if built else len(events)
    planned = {pq for kind, pq in events[:first] if kind == "plan"}
    assert set(built) <= planned
    assert len(built) == len(set(built))
    # the report reads T(1, n), n < max_degree, and the associativity tensors
    want = {(1, n) for n in range(1, max_degree)}
    if assoc_triples or max_degree >= 3:
        want |= {(1, 1), (2, 1), (1, 2)}
    assert set(built) == want


def test_batched_contract_matches_single():
    st = structure_tensor(2, 1, README, TAU)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 15)) + 1j * rng.normal(size=(4, 15))
    y = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
    got = st.contract(x, y)
    assert got.shape == (4, 40)
    for b in range(4):
        assert np.allclose(got[b], st.contract(x[b], y[b]), rtol=1e-14, atol=0)


def _fail(*args, **kwargs):
    raise AssertionError("built past the budget")


@pytest.mark.parametrize("tau,max_degree,estimate", [
    (TAU, 7, "1885 x 5 x 720 = 6786000 entries"),
    (TAU, 10 ** 9, "1885 x 5 x 720 = 6786000 entries"),
    (0.3 + 1e-9j, 2, "T\\(1, 1\\) would sum 8 theta labels x 60691 terms = 485528"),
], ids=["degree-7", "degree-1e9", "near-real"])
def test_ring_report_refuses_over_budget_before_building(monkeypatch, tau, max_degree, estimate):
    monkeypatch.setattr(coord_ring, "structure_tensor", _fail)
    monkeypatch.setattr(coord_ring, "balanced_product", _fail)
    with pytest.raises(coord_ring.RingRefused, match=estimate):
        ring_report(README, tau, max_degree=max_degree)


def test_non_finite_entry_bound_is_refused(monkeypatch):
    # |tau| near the double range: the rounding bound of the phases overflows
    monkeypatch.setattr(coord_ring, "balanced_product", _fail)
    for tau in (1e300 + 1j, 0.3 + 1e300j):
        with pytest.raises(coord_ring.RingRefused, match="cannot be certified"):
            structure_tensor(1, 1, README, tau)
