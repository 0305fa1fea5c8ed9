"""Acceptance gate: ten standalone criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines on
stdout (they are also captured into the failure report when a criterion
fails).  Tolerances and time budgets are asserted, not just reported.
"""

import math
import time
from fractions import Fraction

import numpy as np

from rmtorus import cli
from rmtorus.coord_ring import (
    associativity_residual,
    build_tensors,
    check_generation,
    check_quadratic,
    piece_dim,
)
from rmtorus.heis_module import (
    connection,
    curvature,
    curvature_scalar,
    holomorphic_element,
    module_residuals,
    right_act,
)
from rmtorus.heis_rep import (
    FiniteHeisenberg,
    GaussianAtom,
    RealHeisenberg,
    SchwartzVector,
    holomorphic_residual,
    holomorphic_vector,
)
from rmtorus.qfield import QuadIrr, RMData, SL2Matrix, fixes, fixing_matrix, rank_value
from rmtorus.theta import tail_bound, theta_const, theta_partial

THETAS = [
    QuadIrr.parse("(1+sqrt5)/2"),
    QuadIrr.parse("sqrt2"),
    QuadIrr.parse("(-5+sqrt5)/10"),
]
TAU = 0.3 + 1.1j


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_fixing_matrices():
    t0 = time.perf_counter()
    ok = True
    for theta in THETAS:
        g = fixing_matrix(theta)
        ok = ok and g.det == 1 and g.c > 0
        ok = ok and fixes(g, theta)
        ok = ok and (theta * g.c + g.d).sign() > 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(1, "fixing matrices exact with det 1, c>0, c*theta+d>0", ok,
             f"{elapsed:.3f}s")


def test_criterion_02_rank_lattice():
    t0 = time.perf_counter()
    ok = True
    for theta in THETAS:
        g = fixing_matrix(theta)
        lam = theta * g.c + g.d
        for n in range(0, 11):
            ok = ok and rank_value(g, n, theta) == lam ** n
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _verdict(2, "rank identity c_n*theta + d_n = (c*theta+d)^n for n <= 10", ok,
             f"{elapsed:.3f}s")


def test_criterion_03_algebra_suite():
    t0 = time.perf_counter()
    report = cli._cmd_algebra({
        "theta": QuadIrr.parse("(-5+sqrt5)/10"), "count": 100, "support": 20,
        "seed": 0, "tol": 1e-12,
    })
    elapsed = time.perf_counter() - t0
    res = report["residuals"]
    needed = ["associativity", "tracial", "trace_positivity",
              "star_antimult", "leibniz"]
    worst = max(res[k] for k in needed)
    ok = worst < 1e-12 and elapsed < 5.0
    _verdict(3, "algebra property suite on 100 random elements, support <= 20", ok,
             f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_heisenberg_representation():
    rng = np.random.default_rng(41)
    xs = np.linspace(-3.0, 3.0, 25)
    worst = 0.0
    for _ in range(10):
        eps = float(rng.uniform(0.3, 2.5))
        G = RealHeisenberg(eps)
        atom = GaussianAtom(
            tuple(complex(rng.normal(), rng.normal()) for _ in range(int(rng.integers(1, 3)))),
            complex(rng.normal(), rng.uniform(0.3, 1.5)),
            complex(rng.normal(), rng.normal()),
        )
        f = SchwartzVector.of(atom)
        h1 = G.element(np.exp(2j * math.pi * rng.uniform()), *rng.uniform(-1.5, 1.5, 2))
        h2 = G.element(np.exp(2j * math.pi * rng.uniform()), *rng.uniform(-1.5, 1.5, 2))
        lhs = G.act(h1, G.act(h2, f))
        rhs = G.act(G.mul(h1, h2), f)
        scale = max(1.0, float(np.max(np.abs(rhs.eval(xs)))))
        worst = max(worst, float(np.max(np.abs(lhs.eval(xs) - rhs.eval(xs)))) / scale)
    real_ok = worst < 1e-12

    finite_ok = all(FiniteHeisenberg(c).representation_exact(Fraction(1, 3), Fraction(2, 7))
                    for c in range(1, 7))

    nondeg_ok = all(FiniteHeisenberg(c).pairing_nondegenerate() for c in range(1, 13))
    ok = real_ok and finite_ok and nondeg_ok
    _verdict(4, "Heisenberg representation property (real/finite) and nondegeneracy", ok,
             f"real residual {worst:.2e}, finite exact={finite_ok}, nondeg c<=12={nondeg_ok}")


def test_criterion_05_holomorphic_vector():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(20):
        tau = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4.0))
        eps = float(rng.uniform(0.1, 4.0))
        res = holomorphic_residual(tau, holomorphic_vector(tau, eps), eps)
        ok = ok and all(z == 0 for at in res.atoms for z in at.poly)
    _verdict(5, "(delta_A - tau*delta_B) f_tau = 0 exactly, 20 random tau", ok)


def test_criterion_06_bimodule_phases():
    worst = 0.0
    for theta in THETAS:
        data = RMData(theta)
        for degree in (1, 2):
            res = module_residuals(data, degree, TAU)
            worst = max(worst, res["right_relation"], res["left_relation"],
                        res["bimodule_commutation"])
    ok = worst < 1e-12
    _verdict(6, "right/left actions realize UV = e(theta)VU and commute", ok,
             f"max residual {worst:.2e}")


def test_criterion_07_connection():
    worst = 0.0
    exact = True
    for theta in THETAS:
        data = RMData(theta)
        for degree in (1, 2):
            res = module_residuals(data, degree, TAU)
            worst = max(worst, res["leibniz"])
            xi = holomorphic_element(data, degree, TAU)
            diff = (curvature(xi) - xi.scaled(curvature_scalar(data, degree))).collect()
            exact = exact and diff.terms == ()
    ok = worst < 1e-12 and exact
    _verdict(7, "connection Leibniz and exact curvature -(2 pi i/eps) id", ok,
             f"leibniz {worst:.2e}, curvature exact={exact}")


def test_criterion_08_theta_certification():
    t0 = time.perf_counter()
    val = theta_const(0, 1j).value
    value_ok = abs(val - 1.086434811213308) < 1e-12
    rng = np.random.default_rng(8)
    cert_ok = True
    for _ in range(100):
        r = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13)))
        m = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3.0))
        N = int(rng.integers(1, 40))
        head, longer = (theta_partial([r.numerator], r.denominator, m, K)[0] for K in (N, N + 10))
        gap = abs(head - longer)
        cert_ok = cert_ok and gap <= tail_bound(N, r, m.imag) + 1e-300
    elapsed = time.perf_counter() - t0
    ok = value_ok and cert_ok and elapsed < 5.0
    _verdict(8, "theta_const(0,i) reference and 100 certified tail bounds", ok,
             f"|err| {abs(val - 1.086434811213308):.2e}, {elapsed:.2f}s")


def test_criterion_09_ring_desk_scale():
    t0 = time.perf_counter()
    data = RMData(QuadIrr.parse("(-5+sqrt5)/10"), SL2Matrix.from_list([[-1, -1], [5, 4]]))
    dims = [piece_dim(n, data) for n in range(4)]
    dims_ok = dims == [1, 5, 15, 40]
    tensors = build_tensors(data, TAU, [(1, 1), (2, 1), (1, 2)])
    gen = check_generation(tensors, 2)
    rank_ok = gen["per_degree"][0]["rank"] == 15
    quad = check_quadratic(tensors)
    quad_ok = quad["quadratic"] and quad["dim_K"] == 10
    assoc = associativity_residual(tensors, triples=20, seed=0)
    assoc_ok = assoc < 1e-8
    elapsed = time.perf_counter() - t0
    ok = dims_ok and rank_ok and quad_ok and assoc_ok and elapsed < 120.0
    _verdict(9, "ring: dims [1,5,15,40], R1xR1 rank 15, quadraticity, associativity", ok,
             f"dims={dims}, assoc {assoc:.2e}, {elapsed:.1f}s")


def test_criterion_10_negative_control():
    data = RMData(QuadIrr.parse("(1+sqrt5)/2"), SL2Matrix.from_list([[2, 1], [1, 1]]))
    gen = check_generation(build_tensors(data, TAU, [(1, 1)]), 2)
    d = gen["per_degree"][0]
    ok = d["rank"] == 1 and d["target_dim"] == 3 and not d["surjective"]
    _verdict(10, "golden ratio fails degree-1 generation (rank 1 < dim 3)", ok,
             f"rank {d['rank']} vs dim {d['target_dim']}")
