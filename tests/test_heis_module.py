import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rmtorus.heis_module import (
    IllConditionedSolve,
    _atom_center,
    _pair_columns,
    ModuleElement,
    balanced_product,
    connection,
    curvature,
    curvature_scalar,
    holomorphic_element,
    left_act,
    module_residuals,
    relative_distance,
    right_act,
)
from rmtorus.coord_ring import structure_tensor
from rmtorus.heis_rep import FiniteVector, GaussianAtom, cis_turns
from rmtorus.qfield import QuadIrr, RMData, rank_value, unit_phase
from rmtorus.torus_alg import TorusElement

from pointwise import sample, sup_distance, sup_norm

GOLDEN = RMData(QuadIrr.parse("(1+sqrt5)/2"))
ROOT2 = RMData(QuadIrr.parse("sqrt2"))
TEST5 = RMData(QuadIrr.parse("(-5+sqrt5)/10"))
ALL_DATA = [GOLDEN, ROOT2, TEST5]

TAU = 0.3 + 1.1j
XS = np.linspace(-5.0, 5.0, 41)


def _probe(data, degree, k=0):
    c = data.power(degree).c
    w = FiniteVector([complex(1 + (i % 3), -i % 2) for i in range(c)])
    return holomorphic_element(data, degree, TAU, weights=w)


# -- relations -------------------------------------------------------------------

@pytest.mark.parametrize("data", ALL_DATA)
@pytest.mark.parametrize("degree", [1, 2])
def test_module_residuals_small(data, degree):
    res, _ = module_residuals(data, degree, TAU)
    for key in ("right_relation", "left_relation", "bimodule_commutation",
                "leibniz", "curvature"):
        assert res[key] < 1e-12, key
    assert res["degree"] == degree


@pytest.mark.parametrize("degree", [1, 2])
def test_module_residuals_see_a_wrong_phase(monkeypatch, degree):
    # with e(theta) replaced by 1, UV = VU is false, and the coefficient
    # comparison must say so
    monkeypatch.setattr("rmtorus.qfield.unit_phase", lambda theta: 1.0)
    assert module_residuals(TEST5, degree, TAU)[0]["right_relation"] > 0.1


def test_relative_distance_on_coefficients():
    # keys of either side count, and terms that share a key add up
    phi = FiniteVector.delta(TEST5.power(1).c, 0)
    a, b = GaussianAtom((2.0,), 1j), GaussianAtom((0.5j,), 1j, 0.25)
    p = ModuleElement.single(TEST5, 1, a, phi)
    q = p + ModuleElement.single(TEST5, 1, b, phi)
    assert relative_distance(p, q) == relative_distance(q, p) == 0.25
    assert relative_distance(p + p, p.scaled(2.0)) == 0.0


def test_terms_of_one_atom_merge_in_relative_distance():
    # a (x) phi + a (x) psi is a (x) (phi + psi) to rounding: the two terms stay
    # apart in the element, and their coefficients add up under one key
    c = TEST5.power(1).c
    a = GaussianAtom((0.3 - 1.7j, 2.1), 0.4 + 1.3j, -0.6 + 0.1j)
    phi = FiniteVector([complex(0.1 * k + 1, -k) for k in range(c)])
    psi = FiniteVector([complex(-0.7, 0.3 * k * k) for k in range(c)])
    both = FiniteVector([u + v for u, v in zip(phi.entries, psi.entries)])
    split = ModuleElement(TEST5, 1, [(a, phi), (a, psi)])
    assert len(split.terms) == 2
    assert relative_distance(split, ModuleElement.single(TEST5, 1, a, both)) < 4e-16
    # a zero atom drops its term, and an element with no term left is refused
    zero = GaussianAtom((0.0, 0.0), 0.4 + 1.3j)
    assert ModuleElement.single(TEST5, 1, a.scaled(0.0), phi).terms == ()
    assert split.scaled(0.0).terms == ()
    q = ModuleElement(TEST5, 1, [(zero, phi), (a, both)])
    assert q.terms == ((a, both),)
    with pytest.raises(ValueError):
        relative_distance(split.scaled(0.0), q)


def test_module_residuals_keep_a_nan_case():
    # at Re tau = 10^307.5 the second Leibniz case overflows to NaN while the
    # first reads 0.0; max() would keep the 0.0
    assert math.isnan(module_residuals(TEST5, 1, 10 ** 307.5 + 1j)[0]["leibniz"])


@pytest.mark.parametrize("data", ALL_DATA)
def test_right_relation_phase(data):
    # xi.U.V = e(theta) xi.V.U
    xi = _probe(data, 1)
    uv = right_act("V", right_act("U", xi))
    vu = right_act("U", right_act("V", xi))
    w = unit_phase(data.theta)
    assert sup_distance(uv, vu.scaled(w), XS) < 1e-12 * max(1.0, sup_norm(uv, XS))


@pytest.mark.parametrize("data", ALL_DATA)
def test_left_relation_phase(data):
    # U.(V.xi) = e(theta) V.(U.xi)
    xi = _probe(data, 1)
    uv = left_act("U", left_act("V", xi))
    vu = left_act("V", left_act("U", xi))
    w = unit_phase(data.theta)
    assert sup_distance(uv, vu.scaled(w), XS) < 1e-12 * max(1.0, sup_norm(uv, XS))


def test_generator_inverses():
    xi = _probe(TEST5, 1)
    for side in (right_act, left_act):
        for g, ginv in [("U", "Uinv"), ("V", "Vinv")]:
            back = side(ginv, side(g, xi))
            assert sup_distance(back, xi, XS) < 1e-12


def test_torus_element_action_is_multiplicative():
    data = TEST5
    theta = data.theta
    xi = _probe(data, 1)
    rng = np.random.default_rng(21)
    for _ in range(6):
        a = TorusElement.monomial(theta, int(rng.integers(-2, 3)), int(rng.integers(-2, 3)),
                                  complex(rng.normal(), rng.normal()))
        b = TorusElement.monomial(theta, int(rng.integers(-2, 3)), int(rng.integers(-2, 3)),
                                  complex(rng.normal(), rng.normal()))
        lhs = right_act(a * b, xi)
        rhs = right_act(b, right_act(a, xi))
        scale = max(1.0, sup_norm(lhs, XS))
        assert sup_distance(lhs, rhs, XS) / scale < 1e-12
        llhs = left_act(a * b, xi)
        lrhs = left_act(a, left_act(b, xi))
        lscale = max(1.0, sup_norm(llhs, XS))
        assert sup_distance(llhs, lrhs, XS) / lscale < 1e-12


def test_action_takes_one_element():
    # a batch of torus elements (TorusElement.from_box) acts on nothing: it
    # used to reach GaussianAtom.scaled with a tuple of coefficients
    xi = _probe(TEST5, 1)
    batch = TorusElement.from_box(TEST5.theta, (0, 0), np.ones((2, 1, 1)))
    for side in (right_act, left_act):
        for a in (batch, 1.0):
            with pytest.raises(TypeError, match="a generator name or a single TorusElement"):
                side(a, xi)


def test_left_right_actions_commute():
    for data in ALL_DATA:
        xi = _probe(data, 1)
        for a in ("U", "V"):
            for b in ("U", "V"):
                lhs = left_act(a, right_act(b, xi))
                rhs = right_act(b, left_act(a, xi))
                assert sup_distance(lhs, rhs, XS) < 1e-12 * max(1.0, sup_norm(lhs, XS))


def _reference_gen(side, gen, elem):
    """The hand-written operator of one generator, branch by branch: the S(R)
    factor is translated or modulated, the C(Z/cZ) factor shifted or phased
    entry by entry."""
    k = elem.consts
    c, a, d, eps = k.c, k.a, k.d, k.eps

    def shift(phi, s):
        return FiniteVector([phi[n + s] for n in range(c)])

    def phased(phi, turns_of_index):
        return FiniteVector([cis_turns(turns_of_index(n)) * e for n, e in enumerate(phi.entries)])

    if side == "right":
        if gen == "U":
            terms = [(f.translate(-eps), shift(phi, -1)) for f, phi in elem.terms]
        elif gen == "Uinv":
            terms = [(f.translate(eps), shift(phi, 1)) for f, phi in elem.terms]
        elif gen == "V":
            terms = [(f.modulate(1.0), phased(phi, lambda n: Fraction(-d * n, c)))
                     for f, phi in elem.terms]
        else:
            terms = [(f.modulate(-1.0), phased(phi, lambda n: Fraction(d * n, c)))
                     for f, phi in elem.terms]
    else:
        if gen == "U":
            terms = [(f.translate(-1.0 / c), shift(phi, -a)) for f, phi in elem.terms]
        elif gen == "Uinv":
            terms = [(f.translate(1.0 / c), shift(phi, a)) for f, phi in elem.terms]
        elif gen == "V":
            terms = [(f.modulate(1.0 / (c * eps)), phased(phi, lambda n: Fraction(-n, c)))
                     for f, phi in elem.terms]
        else:
            terms = [(f.modulate(-1.0 / (c * eps)), phased(phi, lambda n: Fraction(n, c)))
                     for f, phi in elem.terms]
    return ModuleElement(elem.data, elem.degree, terms)


def _multi_term_probe(data, degree):
    c = data.power(degree).c
    eps = data.power(degree).eps
    w1 = FiniteVector([complex(1 + (i % 3), -i % 2) for i in range(c)])
    w2 = FiniteVector([complex(-0.5 * i, 0.25 + i % 4) for i in range(c)])
    return ModuleElement(data, degree, [
        (GaussianAtom((1.0,), TAU / (2 * eps), 0.0), w1),
        (GaussianAtom((0.5, -1j, 0.25), 0.2 + 0.9j, 0.3 - 0.1j), w1),
        (GaussianAtom((2.0 - 1j, 0.7), 1.3j, -0.4 + 0.2j), w2)])


def _assert_identical(got, want):
    assert got.degree == want.degree and len(got.terms) == len(want.terms)
    for (f, phi), (g, psi) in zip(got.terms, want.terms):
        assert f == g
        assert phi == psi


@pytest.mark.parametrize("data", ALL_DATA, ids=["golden", "root2", "test5"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_generator_table_matches_reference(data, degree):
    # the table of (translation, modulation, finite Heisenberg element) gives
    # bit for bit the operators it replaced
    xi = _multi_term_probe(data, degree)
    for side, act in (("right", right_act), ("left", left_act)):
        for gen in ("U", "Uinv", "V", "Vinv"):
            _assert_identical(act(gen, xi), _reference_gen(side, gen, xi))
    # a monomial U^2 V^-1: right steps U, U, Vinv; left steps Vinv, U, U
    mono = TorusElement.monomial(data.theta, 2, -1, 0.5 - 0.25j)
    want = xi
    for gen in ("U", "U", "Vinv"):
        want = _reference_gen("right", gen, want)
    _assert_identical(right_act(mono, xi), want.scaled(0.5 - 0.25j))
    want = xi
    for gen in ("Vinv", "U", "U"):
        want = _reference_gen("left", gen, want)
    _assert_identical(left_act(mono, xi), want.scaled(0.5 - 0.25j))


def test_action_rejects_garbage():
    xi = _probe(GOLDEN, 1)
    with pytest.raises(ValueError):
        right_act("W", xi)
    with pytest.raises(TypeError):
        right_act(3.14, xi)
    with pytest.raises(TypeError):
        left_act(object(), xi)


# -- connections -----------------------------------------------------------------

@pytest.mark.parametrize("data", ALL_DATA)
def test_connection_leibniz(data):
    # nabla_i(xi.a) = nabla_i(xi).a + xi.delta_i(a) for the generators
    xi = _probe(data, 1)
    u = right_act("U", xi)
    v = right_act("V", xi)
    two_pi_i = 2j * math.pi
    lhs1 = connection(1, u)
    rhs1 = right_act("U", connection(1, xi)) + u.scaled(two_pi_i)  # delta_1(U) = 2pi i U
    assert sup_distance(lhs1, rhs1, XS) < 1e-12 * max(1.0, sup_norm(lhs1, XS))
    lhs2 = connection(2, v)
    rhs2 = right_act("V", connection(2, xi)) + v.scaled(two_pi_i)  # delta_2(V) = 2pi i V
    assert sup_distance(lhs2, rhs2, XS) < 1e-12 * max(1.0, sup_norm(lhs2, XS))
    # cross terms: delta_1(V) = delta_2(U) = 0
    lhs3 = connection(1, v)
    rhs3 = right_act("V", connection(1, xi))
    assert sup_distance(lhs3, rhs3, XS) < 1e-12 * max(1.0, sup_norm(lhs3, XS))
    lhs4 = connection(2, u)
    rhs4 = right_act("U", connection(2, xi))
    assert sup_distance(lhs4, rhs4, XS) < 1e-12 * max(1.0, sup_norm(lhs4, XS))


def test_curvature_structurally_exact():
    # constant curvature -(2 pi i / eps_n): the commutator cancels to the exact
    # same atom coefficients, so the coefficient distance is exactly 0
    for data in ALL_DATA:
        for degree in (1, 2):
            xi = holomorphic_element(data, degree, TAU)
            want = xi.scaled(curvature_scalar(data, degree))
            assert relative_distance(curvature(xi), want) == 0.0


def test_curvature_random_atoms():
    rng = np.random.default_rng(22)
    data = TEST5
    for _ in range(10):
        atom = GaussianAtom(
            tuple(complex(rng.normal(), rng.normal()) for _ in range(int(rng.integers(1, 4)))),
            complex(rng.normal(), rng.uniform(0.3, 2.0)),
            complex(rng.normal(), rng.normal()),
        )
        xi = ModuleElement.single(data, 1, atom, FiniteVector.delta(data.power(1).c, 0))
        want = xi.scaled(curvature_scalar(data, 1))
        assert sup_distance(curvature(xi), want, XS) < 1e-12 * max(1.0, sup_norm(want, XS))


def test_connection_direction_validated():
    with pytest.raises(ValueError):
        connection(3, _probe(GOLDEN, 1))


# -- ranks and degrees -------------------------------------------------------------

def test_rank_and_dimensions():
    # dim E_{g^n} data for the ring test case: c_n = 5, 15, 40
    assert [TEST5.power(n).c for n in (1, 2, 3)] == [5, 15, 40]
    # module rank equals c_n*theta + d_n > 0
    for data in ALL_DATA:
        for n in (1, 2, 3):
            r = rank_value(data.g, n, data.theta)
            consts = data.power(n)
            assert r == data.theta * consts.c + consts.matrix.d
            assert r > 0


def test_degree_bookkeeping():
    # c_2 = c*(a+d) when c_2 comes from squaring g
    for data in ALL_DATA:
        g = data.g
        assert data.power(2).c == g.c * (g.a + g.d)


def test_module_element_validation():
    data = TEST5
    with pytest.raises(ValueError):
        ModuleElement(data, 0, [])
    with pytest.raises(ValueError):
        # wrong finite modulus for degree 1 (c_1 = 5)
        ModuleElement.single(data, 1, GaussianAtom((1.0,), 1j), FiniteVector.delta(4, 0))
    with pytest.raises(ValueError):
        holomorphic_element(data, 1, 0.3 - 1.1j)


# -- balanced products --------------------------------------------------------------

def test_balanced_product_degree_and_closure():
    # holomorphic x holomorphic lands on holomorphic degree-2 atoms
    data = TEST5
    xi = holomorphic_element(data, 1, TAU)
    eta = holomorphic_element(data, 1, TAU)
    prod, report = balanced_product(xi, eta)
    assert prod.degree == 2
    assert report["max_residual"] < 1e-8
    assert report["cond"] < 1e12
    alpha2 = TAU / (2.0 * data.power(2).eps)
    for at, _ in prod.terms:
        assert abs(at.alpha - alpha2) < 1e-9 * abs(alpha2)


def test_balanced_product_balancing():
    # (xi.U) x eta = xi x (U.eta): the defining balanced-tensor relation
    data = TEST5
    xi = holomorphic_element(data, 1, TAU)
    eta = holomorphic_element(data, 1, TAU, k=1)
    lhs, _ = balanced_product(right_act("U", xi), eta)
    rhs, _ = balanced_product(xi, left_act("U", eta))
    assert sup_distance(lhs, rhs, XS) < 1e-8 * max(1.0, sup_norm(lhs, XS))
    lhs2, _ = balanced_product(right_act("V", xi), eta)
    rhs2, _ = balanced_product(xi, left_act("V", eta))
    assert sup_distance(lhs2, rhs2, XS) < 1e-8 * max(1.0, sup_norm(lhs2, XS))


def test_balanced_product_bilinear():
    data = TEST5
    xi = holomorphic_element(data, 1, TAU)
    eta = holomorphic_element(data, 1, TAU, k=2)
    z = 0.7 - 0.4j
    p1, _ = balanced_product(xi.scaled(z), eta)
    p2, _ = balanced_product(xi, eta.scaled(z))
    p3, _ = balanced_product(xi, eta)
    assert sup_distance(p1, p3.scaled(z), XS) < 1e-10 * max(1.0, sup_norm(p1, XS))
    assert sup_distance(p2, p3.scaled(z), XS) < 1e-10 * max(1.0, sup_norm(p2, XS))
    s1, _ = balanced_product(xi + xi.scaled(1j), eta)
    assert sup_distance(s1, p3.scaled(1 + 1j), XS) < 1e-10 * max(1.0, sup_norm(s1, XS))


def test_balanced_product_respects_module_action():
    # a.(xi x eta) = (a.xi) x eta and (xi x eta).a = xi x (eta.a)
    data = TEST5
    xi = holomorphic_element(data, 1, TAU)
    eta = holomorphic_element(data, 1, TAU, k=1)
    prod, _ = balanced_product(xi, eta)
    lhs = left_act("U", prod)
    rhs, _ = balanced_product(left_act("U", xi), eta)
    assert sup_distance(lhs, rhs, XS) < 1e-8 * max(1.0, sup_norm(lhs, XS))
    lhs2 = right_act("V", prod)
    rhs2, _ = balanced_product(xi, right_act("V", eta))
    assert sup_distance(lhs2, rhs2, XS) < 1e-8 * max(1.0, sup_norm(lhs2, XS))


# -- the closed form for matched factors, kept as a reference ------------------------

def matched_product(xi: ModuleElement, eta: ModuleElement, *, tol: float = 1e-14):
    """Closed-form balanced product for matched degree-0 Gaussian factors.

    Requires every atom to satisfy alpha_1 * eps_m = alpha_2 * eps_n (both
    equal tau/2 for holomorphic vectors), in which case the averaging series
    collapses, for each output index j, onto a single atom whose coefficient
    is a convergent theta-like sum evaluated here term by term.  A reference
    route against the grid/least-squares expansion; the ring's structure
    tensors use the same collapse through exact theta labels.
    """
    if xi.data != eta.data:
        raise ValueError("factors must share the same RMData")
    data = xi.data
    m, n = xi.degree, eta.degree
    N = m + n
    km, kn, kN = data.power(m), data.power(n), data.power(N)
    cm, cn, cN = km.c, kn.c, kN.c
    an = kn.a
    eps_m, eps_n, eps_N = km.eps, kn.eps, kN.eps
    pn = 1.0 / (cn * eps_n)

    for at, _ in xi.terms + eta.terms:
        if at.degree > 0:
            raise ValueError("matched_product handles degree-0 atoms only")
    for a1, _ in xi.terms:
        for a2, _ in eta.terms:
            mism = abs(a1.alpha * eps_m - a2.alpha * eps_n)
            if mism > 1e-9 * max(abs(a1.alpha * eps_m), 1.0):
                raise ValueError("atoms are not matched; use balanced_product")

    out_terms = []
    for j in range(cN):
        x0 = -j * eps_N * pn
        y0 = j * (eps_n - eps_N)
        atoms: dict[tuple[complex, complex], complex] = {}
        for a1, f1 in xi.terms:
            for a2, f2 in eta.terms:
                w1 = a1.poly[0]
                w2 = a2.poly[0]
                alpha = a1.alpha * pn * pn + a2.alpha
                beta = (a1.beta * pn + a2.beta
                        + 2 * a1.alpha * pn * x0 + 2 * a2.alpha * y0)
                # minimize Im of the constant exponent over s
                b2 = a1.alpha.imag * eps_m * eps_m + a2.alpha.imag / (cn * cn)
                b1 = (-2 * a1.alpha.imag * eps_m * x0 - a1.beta.imag * eps_m
                      + 2 * a2.alpha.imag * y0 / cn + a2.beta.imag / cn)
                s_star = int(round(-b1 / (2 * b2)))
                # beyond |s - s_star| = R the summand is below tol
                # relative to the peak by the Gaussian envelope
                R = int(math.ceil(math.sqrt(
                    max(math.log(1.0 / tol), 1.0) / (2.0 * math.pi * b2)
                ))) + cm * cn + 2
                total = 0j
                for s in range(s_star - R, s_star + R + 1):
                    wf = f1[(-s) % cm] * f2[(j + s * an) % cn]
                    if wf == 0:
                        continue
                    xs = x0 - s * eps_m
                    ys = y0 + s / cn
                    const = (a1.alpha * xs * xs + a1.beta * xs
                             + a2.alpha * ys * ys + a2.beta * ys)
                    total += wf * np.exp(2j * math.pi * const)
                coef = w1 * w2 * total
                if coef != 0:
                    key = (alpha, beta)
                    atoms[key] = atoms.get(key, 0j) + coef
        out_terms += [(GaussianAtom((z,), alpha, beta), FiniteVector.delta(cN, j))
                      for (alpha, beta), z in atoms.items()]
    return ModuleElement(data, N, out_terms)


def test_matched_product_agrees_with_least_squares():
    data = TEST5
    for k in (0, 1):
        xi = holomorphic_element(data, 1, TAU)
        eta = holomorphic_element(data, 1, TAU, k=k)
        direct = matched_product(xi, eta)
        lsq, report = balanced_product(xi, eta, tol=1e-11)
        assert report["max_residual"] < 1e-10
        scale = max(1.0, sup_norm(direct, XS))
        assert sup_distance(direct, lsq, XS) / scale < 1e-9


def test_matched_product_matches_theta_labels():
    # each delta pair collapses onto one atom per j, alpha_N with a rounding-level
    # beta, whose coefficient is the structure constant theta_r(l*tau)
    st = structure_tensor(1, 1, TEST5, TAU)
    for k in range(5):
        for l in range(5):
            prod = matched_product(holomorphic_element(TEST5, 1, TAU, k=k),
                                   holomorphic_element(TEST5, 1, TAU, k=l))
            got = np.zeros(15, dtype=complex)
            js = [f.entries.index(1) for _, f in prod.terms]
            assert len(set(js)) == len(js)
            for (atom, _), j in zip(prod.terms, js):
                assert abs(atom.beta) < 1e-13
                got[j] = atom.poly[0]
            assert np.max(np.abs(got - st.tensor[:, k, l])) < 1e-13


def test_matched_product_rejects_mismatch():
    data = TEST5
    xi = holomorphic_element(data, 1, TAU)
    eta = holomorphic_element(data, 1, 0.4 + 0.9j)
    with pytest.raises(ValueError):
        matched_product(xi, eta)


def test_mixed_data_rejected():
    with pytest.raises(ValueError):
        balanced_product(holomorphic_element(GOLDEN, 1, TAU),
                         holomorphic_element(TEST5, 1, TAU))


def test_ill_conditioned_solve_reports():
    # two atoms differing only at the 1e-15 level make near-duplicate columns
    data = TEST5
    c1 = data.power(1).c
    eps1 = data.power(1).eps
    a1 = GaussianAtom((1.0,), TAU / (2 * eps1), 0.0)
    a2 = GaussianAtom((1.0,), TAU / (2 * eps1), 1e-15)
    phi = FiniteVector.delta(c1, 0)
    xi = ModuleElement(data, 1, [(a1, phi), (a2, phi)])
    eta = holomorphic_element(data, 1, TAU)
    with pytest.raises(IllConditionedSolve) as exc:
        balanced_product(xi, eta)
    assert exc.value.report["cond"] > 1e12
    assert "grid_points" in exc.value.report


# -- the blocked kernel against the per-(j, s) loop ------------------------------------

def _reference_product(xi, eta, report):
    """balanced_product as a plain loop over output index j and series index s.

    Grid and truncation radius are read from ``report``; every j gets its own
    least-squares solve.  Returns (samples of shape (c_N, points), report).
    """
    data = xi.data
    km, kn, kN = data.power(xi.degree), data.power(eta.degree), data.power(xi.degree + eta.degree)
    cm, cn, cN = km.c, kn.c, kN.c
    pn = 1.0 / (cn * kn.eps)
    hw, points = report["grid_halfwidth"], report["grid_points"]
    radius = report["truncation_radius"]
    us = np.linspace(-hw, hw, points)
    cols = _pair_columns(xi, eta)
    keys = sorted(cols, key=lambda ab: (ab[0].real, ab[0].imag, ab[1].real, ab[1].imag))
    B = np.column_stack([us ** p * np.exp(2j * math.pi * (alpha * us ** 2 + beta * us))
                         for alpha, beta in keys for p in range(cols[(alpha, beta)] + 1)])
    out = np.zeros((cN, points), dtype=complex)
    per_j, s_terms = [], 0
    for j in range(cN):
        x0 = -j * kN.eps * pn
        y0 = j * (kn.eps - kN.eps)
        h = np.zeros(points, dtype=complex)
        for a1, f1 in xi.terms:
            for a2, f2 in eta.terms:
                w1, w2 = _atom_center(a1), _atom_center(a2)
                centers = [(x0 - w1 - pn * hw) / km.eps, (x0 - w1 + pn * hw) / km.eps,
                           cn * (w2 - y0 - hw), cn * (w2 - y0 + hw)]
                s_lo = int(math.floor(min(centers))) - radius
                s_hi = int(math.ceil(max(centers))) + radius
                s_terms = max(s_terms, s_hi - s_lo + 1)
                for s in range(s_lo, s_hi + 1):
                    w = f1[(-s) % cm] * f2[(j + s * kn.a) % cn]
                    if w != 0:
                        h += (w * a1.value(pn * us + x0 - s * km.eps)
                              * a2.value(us + y0 + s / cn))
        coef = np.linalg.lstsq(B, h, rcond=None)[0]
        hn = float(np.linalg.norm(h))
        per_j.append(float(np.linalg.norm(B @ coef - h)) / hn if hn > 0 else 0.0)
        out[j] = B @ coef
    return out, {"s_terms": s_terms, "grid_points": points, "columns": B.shape[1],
                 "per_j_residual": per_j}


def _multi_atom(data, degree):
    # several terms with shifted, modulated and degree-1 atoms
    theta = data.theta
    a = TorusElement(theta, {(1, 0): 0.6, (0, 1): 0.3 - 0.2j, (0, 0): 1.0})
    xi = _probe(data, degree)
    return right_act(a, xi) + connection(1, xi).scaled(0.05)


def _deltas(m, k, n, ll):
    return holomorphic_element(TEST5, m, TAU, k=k), holomorphic_element(TEST5, n, TAU, k=ll)


def _shifted_poly(data, degree):
    # atoms of polynomial degree 0 to 2 whose beta is complex and differs
    # from atom to atom: translated, modulated off the real line, x*d/dx
    probe = _probe(data, degree)
    return (probe.map_atoms(lambda a: a.translate(0.3).modulate(0.15 - 0.1j))
            + probe.map_atoms(lambda a: a.times_x().derivative().scaled(0.05j)))


def _poly(data, degree):
    probe = _probe(data, degree)
    return (probe.map_atoms(lambda a: a.derivative())
            + probe.map_atoms(lambda a: a.times_x().scaled(0.1)))


def _wide_and_narrow(degree, k):
    # a target atom 150 times narrower than the grid's: e(A*u^2) of that pair
    # underflows at the grid's ends, so its rows keep A*u^2 in their exponent
    alpha = TAU / (2.0 * TEST5.power(degree).eps)
    phi = FiniteVector.delta(TEST5.power(degree).c, k)
    return ModuleElement(TEST5, degree, [(GaussianAtom((1.0,), alpha), phi),
                                         (GaussianAtom((0.5,), 150 * alpha), phi)])


_KERNEL_CASES = {
    "delta-11": lambda: _deltas(1, 1, 1, 3),
    "delta-12": lambda: _deltas(1, 2, 2, 7),
    "delta-21": lambda: _deltas(2, 4, 1, 0),
    "dense-12": lambda: (_probe(TEST5, 1), _probe(TEST5, 2)),
    "dense-golden-11": lambda: (_probe(GOLDEN, 1), _probe(GOLDEN, 1)),
    "multi-atom-11": lambda: (_multi_atom(TEST5, 1), left_act("U", _probe(TEST5, 1))),
    # factors that are not holomorphic: the pair exponents keep their
    # s-dependent linear phase and their polynomials
    "poly-complex-beta-11": lambda: (
        right_act(TorusElement(TEST5.theta, {(1, 0): 0.6, (0, 1): 0.3 - 0.2j}),
                  _shifted_poly(TEST5, 1)),
        left_act("V", _poly(TEST5, 1))),
    "poly-complex-beta-12": lambda: (right_act("U", _shifted_poly(TEST5, 1)),
                                     left_act("U", _poly(TEST5, 2))),
    "wide-narrow-12": lambda: (_wide_and_narrow(1, 0), _wide_and_narrow(2, 3)),
}


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_balanced_product_matches_per_index_loop(case):
    # the reference sums a1(x) * a2(y) term pair by term pair, at offsets
    # x0 - s*eps_m and y0 + s/c_n; the kernel fuses each atom pair's
    # exponents and takes its offsets from integers
    xi, eta = _KERNEL_CASES[case]()
    prod, report = balanced_product(xi, eta)
    want, ref = _reference_product(xi, eta, report)
    us = np.linspace(-report["grid_halfwidth"], report["grid_halfwidth"], report["grid_points"])
    got = sample(prod, us)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    for key in ("s_terms", "grid_points", "columns"):
        assert report[key] == ref[key], key
    assert len(report["per_j_residual"]) == len(ref["per_j_residual"]) == prod.consts.c
    assert np.allclose(report["per_j_residual"], ref["per_j_residual"], rtol=0, atol=1e-12)


def test_balanced_product_memory_is_blocked():
    # evaluating every nonzero (j, s) pair at once peaks near 43 MB here, in
    # blocks near 1.3 MB
    xi, eta = _probe(TEST5, 1), _probe(TEST5, 2)
    tracemalloc.start()
    try:
        balanced_product(xi, eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
