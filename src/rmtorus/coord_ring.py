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
K = ker(mu_2).  The finite Heisenberg symmetry grades every map they factor
by Z/c_1: k = -s and l = j + s*a_n mod c_1 above, and c_1 divides every c_n,
so T(m, n)[j, k, l] = 0 unless j = l + a_n*k mod c_1.  A row j has weight j,
a mu_n column (k, l) weight l + a_n*k and a mu_3 column (p, q, r) weight
a_1^2*p + a_1*q + r, all from exact integers (StructureTensor.a).  The weight
blocks of one map all have the same shape, so each rank is one batched SVD of
its (c_1, rows/c_1, cols/c_1) stack, with the cutoff relative to the largest
singular value over all blocks, which is the dense one.  K is kept per weight,
and the relation span and the inclusion residual are built block by block.
The tensors themselves are stored dense.  Their cyclic shift and reflection
symmetries, and the match of each entry with theta at its own label, hold by
construction, so the tests check them on tensor_labels and no report
recomputes them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .heis_module import balanced_product, holomorphic_element
from .qfield import RMData
from .theta import certified_terms, rounding_bound, tail_bound, theta_partial

# truncation tolerance of each label's theta constant, below its rounding error
_THETA_TOL = 1e-16

# truncation tolerance of the witness's averaging series, and the relative
# singular-value cutoffs of the generation and degree-3 quadraticity ranks
_WITNESS_TOL = 1e-9
_GENERATION_RANK_TOL = 1e-8
_QUADRATIC_RANK_TOL = 1e-7

# work budget of one structure tensor: c_{m+n}*c_m*c_n entries (T(1, 5) of
# the README data holds 990,000), and folded labels times 2N+1 theta terms.
# The entry budget also caps the associativity batch at triples*c_3 entries.
# Both the terms and the witness's averaging series grow like 1/sqrt(Im tau),
# and near real tau the witness takes nearly all of a tensor's time.
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
    a: int                        # a_n of g^n: T[j, k, l] = 0 unless j = l + a*k mod c_1
    max_residual: float           # relative to max|T|, see structure_tensor
    entry_bound: float            # certified absolute error of every entry

    def contract(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """T(x, y); x and y may carry the same leading batch axes."""
        return np.einsum("jkl,...k,...l->...j", self.tensor, x, y)


def tensor_labels(m: int, n: int, data: RMData) -> np.ndarray:
    """Exact theta label numerators of T(m, n), over the denominator of label_plan.

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
    return labels


def label_plan(m: int, n: int, data: RMData, tau: complex) -> tuple[int, int, int, int]:
    """(step, denominator, level, N) of T(m, n), from integers alone: the
    entries are theta_r(level * tau) at r = numerator / denominator.

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
    both relative to max|T|, and the witness's own max_residual.  An entry
    bound that is not below max|T|, which leaves no entry meaningful, raises
    RingRefused before the witness is built.
    """
    step, den, level, N = label_plan(m, n, data, tau)
    mt = level * complex(tau)
    nums = np.arange(0, den // 2 + 1, step)
    values = theta_partial(nums, den, mt, N)
    bound = tail_bound(N, Fraction(int(nums[-1]), den), mt.imag) + float(
        np.max(rounding_bound(nums, den, mt, N)))
    k = tensor_labels(m, n, data) // step   # -1 where T is 0, which picks the appended 0
    T = np.append(values, 0.0)[np.minimum(k, den // step - k)]
    scale = float(np.max(np.abs(T)))
    if not bound < scale:
        raise RingRefused(f"T({m}, {n}): the theta entries cannot be certified at tau = "
                          f"{complex(tau)} (entry bound {bound}, max|T| {scale})")
    prod, prep = balanced_product(holomorphic_element(data, m, tau),
                                  holomorphic_element(data, n, tau), tol=_WITNESS_TOL)
    ((_, witness),) = prod.terms
    gap = float(np.max(np.abs(np.array(witness.entries) - T[:, 0, 0])))
    worst = max(bound / scale, gap / scale, prep["max_residual"])
    return StructureTensor((m, n), T, data.power(n).a, worst, bound)


# -- ring condition checks -----------------------------------------------------


def _blocks(M: np.ndarray, row_weight: np.ndarray, col_weight: np.ndarray, c1: int) -> np.ndarray:
    """M gathered into its (c1, rows/c1, cols/c1) stack of Z/c1 weight blocks.

    Block w holds the rows and the columns of weight w mod c1, each in their
    order in M; every weight has the same number of rows, and of columns.
    """
    rows = np.argsort(row_weight % c1, kind="stable").reshape(c1, -1)
    cols = np.argsort(col_weight % c1, kind="stable").reshape(c1, -1)
    return M[rows[:, :, None], cols[:, None, :]]


def _graded(st: StructureTensor, c1: int) -> np.ndarray:
    """The map R_m (x) R_n -> R_{m+n} of T(m, n) as its stack of weight blocks.

    Row j has weight j and column (k, l) weight l + a_n*k; T is 0 off the
    diagonal blocks (StructureTensor.a).  Block w's columns are the (k, l) of
    weight w in (k, l) order, so for c_m = c_n = c1 column p is (p, w - a_n*p).
    """
    cN, cm, cn = st.tensor.shape
    col_weight = np.arange(cn) + (st.a % c1) * np.arange(cm)[:, None]
    return _blocks(st.tensor.reshape(cN, cm * cn), np.arange(cN), col_weight.ravel(), c1)


def _block_ranks(sv: np.ndarray, rel_tol: float) -> np.ndarray:
    """Rank of each block from its singular values (one row per block): the
    cutoff is rel_tol times the largest over all blocks, as for the whole map."""
    return np.sum(sv > rel_tol * sv.max(initial=0.0), axis=-1)


def _rank(stack: np.ndarray, rel_tol: float) -> int:
    """Numerical rank of a block-diagonal map given as its stack of blocks."""
    return int(np.sum(_block_ranks(np.linalg.svd(stack, compute_uv=False), rel_tol)))


def check_generation(tensors: dict, max_degree: int) -> dict:
    """Surjectivity of R_1 (x) R_n -> R_{n+1} for n < max_degree, by numerical rank."""
    out = {"max_degree": max_degree, "per_degree": [], "generated": True}
    for n in range(1, max_degree):
        st = tensors[(1, n)]
        cN, c1 = st.tensor.shape[:2]
        rank = _rank(_graded(st, c1), _GENERATION_RANK_TOL)
        ok = rank == cN
        out["per_degree"].append({
            "source": [1, n], "target_dim": cN, "rank": rank,
            "surjective": ok, "residual": st.max_residual,
        })
        out["generated"] = out["generated"] and ok
    return out


def _relation_blocks(K: np.ndarray, weights: np.ndarray, a: int) -> np.ndarray:
    """K (x) R_1 + R_1 (x) K in the weight blocks of mu_3, shape (c1, c1^2, 2*dim K).

    Column i of K, of weight w = weights[i], holds a kernel vector of mu_2 in
    block coordinates: entry p sits at (p, w - a*p).  Block W of mu_3 has the
    (p, q, r) of weight a^2*p + a*q + r = W in (p, q) order, and a is a unit
    mod c1 (a*d - b*c = 1), so each K-column meets every block once per side:
    k (x) e_r has weight a*w + r and sits at (p, w - a*p) in every block;
    e_p (x) k has weight a^2*p + w, so it lies in block W at p = (W - w)/a^2,
    entry q at (p, q).
    """
    c1, dim_K = K.shape
    S = np.zeros((c1, c1 * c1, 2 * dim_K), dtype=complex)
    p = np.arange(c1)[:, None]
    i = np.arange(dim_K)
    S[:, p * c1 + (weights - a * p) % c1, i] = K
    W = np.arange(c1)[:, None, None]
    first = (W - weights) * pow(a * a, -1, c1) % c1
    S[W, first * c1 + p, dim_K + i] = K
    return S


def check_quadratic(tensors: dict) -> dict:
    """Degree-3 quadraticity: span(K(x)R_1 + R_1(x)K) = ker(mu_3), K = ker(mu_2).

    Every map is graded by Z/c1 (_graded), so each rank is one batched SVD
    of its weight blocks and K is kept per weight.
    """
    t11, t21 = tensors[(1, 1)], tensors[(2, 1)]
    c3, c2, c1 = t21.tensor.shape
    a = t11.a % c1
    _, sv, vh = np.linalg.svd(_graded(t11, c1))
    ranks = _block_ranks(sv, _QUADRATIC_RANK_TOL)
    K = np.concatenate([vh[w, r:].conj().T for w, r in enumerate(ranks)], axis=1)
    dim_K = K.shape[1]

    # mu_3 = mu_2 o (mu_2 (x) id): index (j; p,q,r), column weight a^2*p + a*q + r
    M3 = np.einsum("jtr,tpq->jpqr", t21.tensor, t11.tensor).reshape(c3, c1 ** 3)
    p, q, r = np.indices((c1, c1, c1)).reshape(3, -1)
    M3 = _blocks(M3, np.arange(c3), a * a * p + a * q + r, c1)
    ker3 = c1 ** 3 - _rank(M3, _QUADRATIC_RANK_TOL)

    S = _relation_blocks(K, np.repeat(np.arange(c1), c1 - ranks), a)
    span_S = _rank(S, _QUADRATIC_RANK_TOL)

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


def uniform(rng: random.Random, n: int) -> np.ndarray:
    """n doubles uniform on [-1, 1), each a multiple of 2^-52: the top 53 bits of
    rng's little-endian 64-bit words, so every platform draws the same values.

    Not np.random: importing it costs each drawing CLI job 6.5 MB of peak RSS.
    """
    return (np.frombuffer(rng.randbytes(8 * n), "<u8") >> 11) * 2.0 ** -52 - 1.0


def associativity_residual(tensors: dict, triples: int = 20, seed: int = 0) -> float:
    """Worst relative defect of (uv)w vs u(vw) over random degree-1 triples.

    Both bracketings go through mult: (uv)w contracts T(2,1) with T(1,1) and
    u(vw) contracts T(1,2) with T(1,1); T(1,2) and T(2,1) come from separate
    balanced products.  The triples' coordinates are uniform on [-1, 1), drawn
    from random.Random(seed) in one call, in the order u, v, w (real parts,
    then imaginary) per triple, and multiplied as one batch.
    """
    if triples == 0:
        return 0.0
    c1 = tensors[(1, 1)].tensor.shape[1]
    draws = uniform(random.Random(seed), triples * 6 * c1).reshape(triples, 3, 2, c1)
    u, v, w = ({1: draws[:, i, 0] + 1j * draws[:, i, 1]} for i in range(3))
    lhs = mult(mult(u, v, tensors), w, tensors)[3]
    rhs = mult(u, mult(v, w, tensors), tensors)[3]
    defect = np.max(np.abs(lhs - rhs), axis=1) / np.maximum(np.max(np.abs(rhs), axis=1), 1e-300)
    return float(np.max(defect))


def _report_pairs(max_degree: int, assoc_triples: int):
    """The (m, n) of every tensor a report reads, lazily and possibly repeated:
    generation reads T(1, n) for n < max_degree, associativity T(1, 1),
    T(2, 1) and T(1, 2), and quadraticity (degree >= 3) T(1, 1) and T(2, 1)."""
    yield from ((1, n) for n in range(1, max_degree))
    if assoc_triples or max_degree >= 3:
        yield from ((1, 1), (2, 1), (1, 2))


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
                seed: int = 0) -> dict:
    """Full JSON-ready summary used by the command line runner.

    The tensors are planned and built once by build_tensors; the checks only
    read them.  Before any is built, an associativity batch of more than
    _MAX_TENSOR_ENTRIES entries (assoc_triples x c_3) is refused (RingRefused).
    """
    c3 = piece_dim(3, data)
    if assoc_triples * c3 > _MAX_TENSOR_ENTRIES:
        raise RingRefused(f"the associativity check would hold {assoc_triples} triples x {c3} "
                          f"= {assoc_triples * c3} entries, above the budget of "
                          f"{_MAX_TENSOR_ENTRIES}")
    tensors = build_tensors(data, tau, _report_pairs(max_degree, assoc_triples))
    dims = [piece_dim(n, data) for n in range(max_degree + 1)]
    gen = check_generation(tensors, max_degree)
    summaries = [{
        "degrees": list(st.degrees),
        "shape": list(st.tensor.shape),
        "max_residual": st.max_residual,
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
    return report
