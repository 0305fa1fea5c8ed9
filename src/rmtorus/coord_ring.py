"""Graded coordinate ring of a real-multiplication torus with complex parameter tau.

B = C.1 (+) R_1 (+) R_2 (+) ... where the degree-n piece is spanned by
f_{tau,n} (x) delta_j for j mod c_n, f_{tau,n} the holomorphic Gaussian of the
degree-n module.  The product is fixed by its structure tensors: T(m, n) holds
the balanced products (heis_module) of all basis pairs R_m x R_n in the
R_{m+n} basis, and every entry is a theta constant with an exact label.  For
delta_k in R_m, delta_l in R_n and output index j mod c_N, N = m + n, the
averaging series of the balanced product has the u-independent exponent
pi*i*tau*lambda*(s + j*c_m/c_N)^2 with lambda = c_N/(c_m*c_n), summed over the
s with s = -k mod c_m and j + s*a_n = l mod c_n.  Those s form one coset
s0 + PZ, P the least P > 0 with c_m | P and c_n | P*a_n, hence

    T[j, k, l] = theta_r(lambda*P^2*tau),   r = (s0 + j*c_m/c_N)/P,

and T[j, k, l] = 0 when the coset is empty.  lambda*P^2 is an integer and r is
kept as an integer numerator over P*c_N.  The numerators are the multiples of
gcd(c_m, c_N) below P*c_N, and theta_{-r} = theta_r folds each onto
min(num, P*c_N - num), which halves them.  One N certifies every folded label
(the tail bound grows with r, so N is certified at the largest), and
theta.theta_partial sums all of them in one batch; the tail at that label plus
the largest rounding bound of the batch bound every entry.  label_plan finds
the folded labels and N from integers alone, so a tensor with too many
entries or label terms is refused (RingRefused) before any array is built.
One basis pair per tensor is also multiplied by balanced_product as an
independent witness: its one output term is f_{tau,N} times the coefficients
over j, which are compared with T[:, 0, 0].

The ring is its tensor map {(m, n): T(m, n)}.  build_tensors passes every
pair through label_plan before building any, then builds each tensor once;
ring_report plans, builds, and runs checks that only read the map.  A ring
element is a {degree: piece} map and mult, the one graded product, contracts
the tensors.  The degree-0 piece is a formal unit line: the matrix power g^0
has c_0 = 0 and no module realizes it, so scalars act by plain rescaling.

check_generation and check_quadratic implement the two desk-checkable ring
conditions: surjectivity of R_1 (x) R_n -> R_{n+1} by numerical rank, and the
degree-3 quadraticity comparison span(K (x) R_1 + R_1 (x) K) = ker(mu_3) with
K = ker(mu_2).  The cyclic symmetry of the structure constants is an identity
of the labels; theta_match_report lists the labels of the largest entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heis_module import balanced_product, holomorphic_element
from .qfield import RMData
from .theta import certified_terms, rounding_bound, tail_bound, theta_const, theta_partial

# truncation tolerance of each label's theta constant, below its rounding error
_THETA_TOL = 1e-16

# truncation tolerance of the witness's averaging series, and the relative
# singular-value cutoffs of the generation and degree-3 quadraticity ranks
_WITNESS_TOL = 1e-9
_GENERATION_RANK_TOL = 1e-8
_QUADRATIC_RANK_TOL = 1e-7

# work budget of one structure tensor: c_{m+n}*c_m*c_n entries (T(1, 5) of
# the README data holds 990,000), and folded labels times 2N+1 theta terms.
# Both the terms and the witness's averaging series grow like 1/sqrt(Im tau);
# near real tau the witness takes nearly all the time, about 11 s for
# README-data degree 2 at Im tau = 1e-7 (125,965 label terms in T(2, 1)).
_MAX_TENSOR_ENTRIES = 10 ** 6
_MAX_LABEL_TERMS = 2 * 10 ** 5


class RingRefused(RuntimeError):
    """A structure tensor over the work budget, or one whose entries cannot be certified."""


def piece_dim(n: int, data: RMData) -> int:
    """dim R_n: c_n from the exact matrix power, 1 for the unit piece."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return 1
    return data.power(n).c


def mult(u: dict, v: dict, tensors: dict) -> dict:
    """Graded product of {degree: piece} maps.

    A piece of degree n > 0 has last axis c_n, degree 0 is the unit line
    (last axis 1, plain rescaling), and u and v may carry the same leading
    batch axes.  Each pair of positive degrees (p, q) contracts tensors[(p, q)].
    """
    out: dict[int, np.ndarray] = {}
    for p, x in u.items():
        for q, y in v.items():
            if p == 0:
                z = x[..., :1] * y
            elif q == 0:
                z = y[..., :1] * x
            else:
                z = tensors[(p, q)].contract(x, y)
            out[p + q] = out[p + q] + z if p + q in out else z
    return out


# -- structure tensors ---------------------------------------------------------


@dataclass
class StructureTensor:
    degrees: tuple[int, int]
    tensor: np.ndarray            # shape (c_{m+n}, c_m, c_n)
    labels: np.ndarray            # numerators of r over `denominator`, -1 where T is 0
    denominator: int              # P * c_{m+n}
    level: int                    # lambda * P^2: the entries are theta_r(level * tau)
    max_residual: float           # relative to max|T|, see structure_tensor
    entry_bound: float            # certified absolute error of every entry
    max_cond: float               # condition number of the witness's expansion

    def contract(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """T(x, y); x and y may carry the same leading batch axes."""
        return np.einsum("jkl,...k,...l->...j", self.tensor, x, y)


def tensor_labels(m: int, n: int, data: RMData) -> tuple[np.ndarray, int, int]:
    """Exact theta labels of T(m, n): (numerators, denominator, level).

    Every residue s mod P together with an output index j meets exactly one
    entry, k = -s mod c_m and l = j + s*a_n mod c_n, with numerator
    s*c_N + j*c_m mod P*c_N; entries no (j, s) meets are 0 and keep -1.
    As a_n*d_n - b_n*c_n = 1, c_n | P*a_n means c_n | P, so P = lcm(c_m, c_n).
    """
    cm, cn, cN = piece_dim(m, data), piece_dim(n, data), piece_dim(m + n, data)
    P = math.lcm(cm, cn)
    j = np.arange(cN)[:, None]
    s = np.arange(P)[None, :]
    labels = np.full((cN, cm, cn), -1, dtype=np.int64)
    labels[j, -s % cm, (j + s * (data.power(n).a % cn)) % cn] = (s * cN + j * cm) % (P * cN)
    return labels, P * cN, cN * P * P // (cm * cn)


def label_plan(m: int, n: int, data: RMData, tau: complex) -> tuple[int, int, int, int]:
    """(step, denominator, level, N) of T(m, n), from integers alone.

    The label numerators (tensor_labels) are the subgroup of Z/(P*c_N)
    generated by c_N and c_m, the multiples of step = gcd(c_m, c_N); folded
    they are step*k, 0 <= k <= P*c_N/(2*step).  N certifies the tail of the
    largest folded label below _THETA_TOL, hence of every one.  Raises
    RingRefused, naming the estimate, when the tensor has more than
    _MAX_TENSOR_ENTRIES entries or its folded labels times 2N+1 terms exceed
    _MAX_LABEL_TERMS.
    """
    cm, cn, cN = piece_dim(m, data), piece_dim(n, data), piece_dim(m + n, data)
    entries = cN * cm * cn
    if entries > _MAX_TENSOR_ENTRIES:
        raise RingRefused(f"T({m}, {n}) would hold {cN} x {cm} x {cn} = {entries} entries, "
                          f"above the budget of {_MAX_TENSOR_ENTRIES}")
    P = math.lcm(cm, cn)
    den, step = P * cN, math.gcd(cm, cN)
    level = cN * P * P // (cm * cn)
    count = den // (2 * step) + 1
    try:
        N = certified_terms(Fraction(step * (count - 1), den), (level * complex(tau)).imag,
                            _THETA_TOL)
    except RuntimeError as exc:
        raise RingRefused(f"T({m}, {n}): {exc}") from None
    if count * (2 * N + 1) > _MAX_LABEL_TERMS:
        raise RingRefused(f"T({m}, {n}) would sum {count} theta labels x {2 * N + 1} terms = "
                          f"{count * (2 * N + 1)}, above the budget of {_MAX_LABEL_TERMS}")
    return step, den, level, N


def structure_tensor(m: int, n: int, data: RMData, tau: complex) -> StructureTensor:
    """T(m, n) gathered from one batch of certified theta constants, one per folded label.

    The witness is the basis pair (0, 0), multiplied by balanced_product at
    _WITNESS_TOL: for holomorphic factors its one output term is f_{tau,m+n}
    times the coefficients over j, which are read as T[:, 0, 0].  max_residual
    is the largest of the entry bound and the witness's gap to T[:, 0, 0],
    both relative to max|T|, and the witness's own relative residual.  A
    non-finite entry bound raises RingRefused before the witness is built.
    """
    step, den, level, N = label_plan(m, n, data, tau)
    mt = level * complex(tau)
    nums = np.arange(0, den // 2 + 1, step)
    values = theta_partial(nums, den, mt, N)
    bound = tail_bound(N, Fraction(int(nums[-1]), den), mt.imag) + float(
        np.max(rounding_bound(nums, den, mt, N)))
    if not math.isfinite(bound):
        raise RingRefused(f"T({m}, {n}): the theta entries cannot be certified "
                          f"at tau = {complex(tau)} (entry bound {bound})")
    labels, _, _ = tensor_labels(m, n, data)
    k = labels // step                  # -1 where T is 0, which picks the appended 0
    T = np.append(values, 0.0)[np.minimum(k, den // step - k)]
    prod, prep = balanced_product(holomorphic_element(data, m, tau),
                                  holomorphic_element(data, n, tau), tol=_WITNESS_TOL)
    ((_, witness),) = prod.terms
    scale = float(np.max(np.abs(T)))
    gap = float(np.max(np.abs(np.array(witness.entries) - T[:, 0, 0])))
    worst = max(bound / scale, gap / scale, prep["max_residual"])
    return StructureTensor((m, n), T, labels, den, level, worst, bound, prep["max_cond"])


def cyclic_shifts(m: int, n: int, data: RMData) -> tuple[int, int, int]:
    """Simultaneous index shifts fixing the structure tensor.

    Shifting the output index by sigma_N = c_N/gcd(c_m, c_N) is undone by
    reindexing the averaging series s -> s - delta with delta = sigma_N c_m /
    c_N = c_m/gcd, which shifts the degree-m index by delta and the degree-n
    index by sigma_N - delta*a_n.  The label numerator s*c_N + j*c_m is then
    unchanged, so the labels, and with them the gathered tensor, are exactly
    invariant under the simultaneous cyclic shift.
    """
    cm = data.power(m).c
    cn = data.power(n).c
    cN = data.power(m + n).c
    an = data.power(n).a
    g = math.gcd(cm, cN)
    sigma_N = cN // g
    delta = (sigma_N * cm) // cN
    sigma_m = delta
    sigma_n = sigma_N - delta * an
    return sigma_N, sigma_m % cm, sigma_n % cn


def cyclic_symmetry_residual(st: StructureTensor, data: RMData) -> float:
    m, n = st.degrees
    cN, cm, cn = st.tensor.shape
    sN, sm, sn = cyclic_shifts(m, n, data)
    shifted = np.roll(np.roll(np.roll(st.tensor, sN, axis=0), sm, axis=1), sn, axis=2)
    scale = float(np.max(np.abs(st.tensor)))
    if scale == 0:
        return 0.0
    return float(np.max(np.abs(shifted - st.tensor))) / scale


# -- ring condition checks -----------------------------------------------------


def _numerical_rank(M: np.ndarray, rel_tol: float) -> int:
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def check_generation(tensors: dict, max_degree: int) -> dict:
    """Surjectivity of R_1 (x) R_n -> R_{n+1} for n < max_degree, by numerical rank."""
    out = {"max_degree": max_degree, "per_degree": [], "generated": True}
    for n in range(1, max_degree):
        st = tensors[(1, n)]
        cN = st.tensor.shape[0]
        rank = _numerical_rank(st.tensor.reshape(cN, -1), _GENERATION_RANK_TOL)
        ok = rank == cN
        out["per_degree"].append({
            "source": [1, n], "target_dim": cN, "rank": rank,
            "surjective": ok, "residual": st.max_residual,
        })
        out["generated"] = out["generated"] and ok
    return out


def _null_space(M: np.ndarray, rel_tol: float) -> np.ndarray:
    u, sv, vh = np.linalg.svd(M)
    if sv.size == 0 or sv[0] == 0:
        return np.eye(M.shape[1], dtype=complex)
    rank = int(np.sum(sv > rel_tol * sv[0]))
    return vh[rank:].conj().T


def _relation_span(K: np.ndarray, c1: int) -> np.ndarray:
    """Columns spanning K (x) R_1 + R_1 (x) K inside C^{c1^3}, K's columns in C^{c1^2}.

    Column (i, r, side) is k_i (x) e_r for side 0 and e_r (x) k_i for side 1.
    """
    dim_K = K.shape[1]
    Kt = K.reshape(c1, c1, dim_K)
    eye = np.eye(c1, dtype=complex)
    S = np.stack([np.einsum("pqi,ts->pqtis", Kt, eye),
                  np.einsum("ps,qti->pqtis", eye, Kt)], axis=-1)
    return S.reshape(c1 ** 3, 2 * c1 * dim_K)


def check_quadratic(tensors: dict) -> dict:
    """Degree-3 quadraticity: span(K(x)R_1 + R_1(x)K) = ker(mu_3), K = ker(mu_2)."""
    t11, t21 = tensors[(1, 1)], tensors[(2, 1)]
    c3, c2, c1 = t21.tensor.shape
    M2 = t11.tensor.reshape(c2, c1 * c1)
    K = _null_space(M2, _QUADRATIC_RANK_TOL)
    dim_K = K.shape[1]

    # mu_3 = mu_2 o (mu_2 (x) id): index (j; p,q,r)
    M3 = np.einsum("jtr,tpq->jpqr", t21.tensor, t11.tensor).reshape(c3, c1 ** 3)
    ker3 = c1 ** 3 - _numerical_rank(M3, _QUADRATIC_RANK_TOL)

    S = _relation_span(K, c1)
    span_S = _numerical_rank(S, _QUADRATIC_RANK_TOL)

    # S must sit inside ker(mu_3) by associativity; record the violation level
    inclusion = 0.0
    if S.size:
        m3max = float(np.max(np.abs(M3))) or 1.0
        inclusion = float(np.max(np.abs(M3 @ S))) / m3max

    report = {
        "dim_K": dim_K,
        "expected_dim_K": c1 * c1 - c2,
        "ker3_dim": ker3,
        "span_dim": span_S,
        "inclusion_residual": inclusion,
        "max_product_residual": max(t11.max_residual, t21.max_residual),
        "quadratic": bool(span_S == ker3),
    }
    return report


def associativity_residual(tensors: dict, triples: int = 20, seed: int = 0) -> float:
    """Worst relative defect of (uv)w vs u(vw) over random degree-1 triples.

    Both bracketings go through mult: (uv)w contracts T(2,1) with T(1,1) and
    u(vw) contracts T(1,2) with T(1,1); T(1,2) and T(2,1) come from separate
    balanced products.  The triples are drawn in one call, in the order u, v,
    w (real parts, then imaginary) per triple, and multiplied as one batch.
    """
    if triples == 0:
        return 0.0
    c1 = tensors[(1, 1)].tensor.shape[1]
    draws = np.random.default_rng(seed).normal(size=(triples, 3, 2, c1))
    u, v, w = ({1: draws[:, i, 0] + 1j * draws[:, i, 1]} for i in range(3))
    lhs = mult(mult(u, v, tensors), w, tensors)[3]
    rhs = mult(u, mult(v, w, tensors), tensors)[3]
    defect = np.max(np.abs(lhs - rhs), axis=1) / np.maximum(np.max(np.abs(rhs), axis=1), 1e-300)
    return float(np.max(defect))


def theta_match_report(st: StructureTensor, tau: complex, entries: int = 8) -> list[dict]:
    """The theta labels (r, l) of the largest entries of ``st``, with |theta_r(l*tau)|
    evaluated from the label and its gap to the entry's magnitude."""
    flat = np.abs(st.tensor).ravel()
    out = []
    for i in np.argsort(flat)[::-1][:entries]:
        mag = float(flat[i])
        if mag == 0:
            continue
        r = Fraction(int(st.labels.flat[i]), st.denominator)
        value = abs(theta_const(r, st.level * complex(tau), tol=_THETA_TOL).value)
        out.append({
            "index": [int(x) for x in np.unravel_index(i, st.tensor.shape)],
            "magnitude": mag,
            "nearest": {"r": float(r), "l": st.level, "value": value,
                        "rel_gap": abs(value - mag) / mag},
        })
    return out


def _report_pairs(max_degree: int, assoc_triples: int, theta_diagnostic: bool):
    """The (m, n) of every tensor a report reads, lazily and possibly repeated:
    generation reads T(1, n) for n < max_degree, associativity T(1, 1),
    T(2, 1) and T(1, 2), quadraticity (degree >= 3) T(1, 1) and T(2, 1), and
    the theta diagnostic T(1, 1)."""
    yield from ((1, n) for n in range(1, max_degree))
    if assoc_triples or max_degree >= 3:
        yield from ((1, 1), (2, 1), (1, 2))
    if theta_diagnostic:
        yield (1, 1)


def build_tensors(data: RMData, tau: complex, pairs) -> dict:
    """{(m, n): T(m, n)} over ``pairs``, each tensor built once.

    Every pair passes label_plan before the first tensor is built.  ``pairs``
    is consumed lazily, so an endless one is refused (RingRefused) at the
    first pair over the budget; c_n grows with n, so that comes after a few
    degrees.
    """
    plans = {pair: label_plan(*pair, data, tau) for pair in pairs}
    return {pair: structure_tensor(*pair, data, tau) for pair in plans}


def ring_report(data: RMData, tau: complex, max_degree: int = 3, assoc_triples: int = 20,
                seed: int = 0, theta_diagnostic: bool = False) -> dict:
    """Full JSON-ready summary used by the command line runner.

    The tensors are planned and built once by build_tensors; the checks only
    read them.  With ``theta_diagnostic`` the report also lists the theta
    labels of the largest entries of T(1, 1) (theta_match_report).
    """
    tensors = build_tensors(data, tau, _report_pairs(max_degree, assoc_triples, theta_diagnostic))
    dims = [piece_dim(n, data) for n in range(max_degree + 1)]
    gen = check_generation(tensors, max_degree)
    summaries = [{
        "degrees": list(st.degrees),
        "shape": list(st.tensor.shape),
        "max_residual": st.max_residual,
        "cyclic_symmetry_residual": cyclic_symmetry_residual(st, data),
    } for st in (tensors[(1, n)] for n in range(1, max_degree))]
    report = {
        "dims": dims,
        "generation": [d["surjective"] for d in gen["per_degree"]],
        "generation_detail": gen["per_degree"],
        "assoc_residual": associativity_residual(tensors, assoc_triples, seed),
        "tensors": summaries,
    }
    if gen["generated"] and max_degree >= 3:
        quad = check_quadratic(tensors)
        report["quadratic"] = quad["quadratic"]
        report["quadratic_detail"] = {k: v for k, v in quad.items() if k != "quadratic"}
    else:
        report["quadratic"] = None
    if theta_diagnostic:
        report["theta_diagnostic"] = theta_match_report(tensors[(1, 1)], tau)
    return report
