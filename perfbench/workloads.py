"""Seeded job generators, one per workload.

A job is one ``rmtorus.cli.main(argv)`` call.  The program sees only the
generated ``argv``; ``spec`` carries what the oracles need (exact theta,
the expected matrix, tolerances), computed here with integers and never by
the package under test.

Quadratic irrationalities are kept as ``Surd(P, S, Q, D)`` meaning
``(P + S*sqrt(D))/Q`` with ``S = +-1``, ``Q > 0`` and ``Q | D - P^2``.
Every option is passed as ``--name=value``, so that values with a leading
minus sign (``--tau=-0.2+0.8i``) are not read as flags by argparse.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracles import Surd, fundamental_trace, mat_mul

README_RING = ("ring", "--theta", "(-5+sqrt5)/10", "--g", "[[-1,-1],[5,4]]",
               "--tau", "0.3+1.1i", "--max-degree", "3")

# (theta for S=+1, fixing matrix): trace 3 with c = 5, and trace 4 with c = 6
TRACE3_C5 = (Surd(-5, 1, 10, 5), ((-1, -1), (5, 4)))
TRACE4_C6 = (Surd(3, 1, 6, 3), ((5, -1), (6, -1)))

WORKLOADS = ("ring", "ring-deep", "algebra", "arith")


@dataclass(frozen=True)
class Job:
    kind: str                 # fix | theta | algebra | module-check | ring
    argv: tuple[str, ...]
    spec: dict = field(default_factory=dict, compare=False)


def _opt(name: str, value) -> str:
    return f"--{name}={value}"


def _short(x: float) -> float:
    """x to 6 significant digits; repr() of the result parses back to it exactly."""
    return float(f"{x:.6g}")


def _complex_text(z: complex) -> str:
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _strata(rng: random.Random, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = [a + (b - a) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return [math.exp(v) for v in vals] if log else vals


def _balanced(rng: random.Random, choices, n: int) -> list:
    """n items cycling through choices, shuffled, so each batch has the same mix."""
    out = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(out)
    return out


def _translate(family, k: int, sign: int):
    """theta + k with g conjugated by [[1,k],[0,1]]; sign picks the root."""
    base, g = family
    theta = Surd(base.P + k * base.Q, sign, base.Q, base.D)
    gk = mat_mul(mat_mul(((1, k), (0, 1)), g), ((1, -k), (0, 1)))
    return theta, gk


def _g_text(g) -> str:
    return json.dumps([list(g[0]), list(g[1])], separators=(",", ":"))


def _tau(rng: random.Random, im: float) -> str:
    return _complex_text(complex(_short(rng.uniform(-0.5, 0.5)), _short(im)))


def _ring_job(rng, family, k, sign, tau, max_degree, triples, give_g=True) -> Job:
    theta, g = _translate(family, k, sign)
    argv = ["ring", _opt("theta", theta.text())]
    if give_g:
        argv.append(_opt("g", _g_text(g)))
    argv += [_opt("tau", tau), _opt("max-degree", max_degree),
             _opt("assoc-triples", triples), _opt("seed", rng.randrange(1000))]
    return Job("ring", tuple(argv), {"g": g, "max_degree": max_degree})


def gen_ring(rng: random.Random) -> list[Job]:
    """README ring command plus two seeded degree-3 reports with associativity."""
    jobs = [Job("ring", README_RING, {"g": TRACE3_C5[1], "max_degree": 3})]
    ims = _strata(rng, 2, 0.8, 1.4)
    signs = _balanced(rng, (1, -1), 2)
    give_g = _balanced(rng, (True, False), 2)
    for i in range(2):
        jobs.append(_ring_job(rng, TRACE3_C5, rng.randint(-3, 3), signs[i],
                              _tau(rng, ims[i]), 3, 1, give_g[i]))
    return jobs


def gen_ring_deep(rng: random.Random) -> list[Job]:
    """Degree-4 trace-3 and degree-3 trace-4 reports, no associativity."""
    plan = [(TRACE3_C5, 4), (TRACE4_C6, 3)]
    ims = _strata(rng, len(plan), 1.0, 1.2)
    jobs = [_ring_job(rng, fam, rng.randint(-3, 3), -1, _tau(rng, im), deg, 0)
            for (fam, deg), im in zip(plan, ims)]
    rng.shuffle(jobs)
    return jobs


def _squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def _small_theta(rng: random.Random) -> Surd:
    D = rng.choice([d for d in range(2, 31) if _squarefree(d)])
    if D % 4 == 1 and rng.random() < 0.5:
        return Surd(2 * rng.randint(-2, 2) + 1, rng.choice((1, -1)), 2, D)
    return Surd(rng.randint(-4, 4), rng.choice((1, -1)), 1, D)


def gen_algebra(rng: random.Random) -> list[Job]:
    """10 torus-algebra property suites mixed with 40 bimodule checks."""
    jobs = []
    for support in _strata(rng, 10, 10, 40):
        theta = _small_theta(rng)
        argv = ("algebra", _opt("theta", theta.text()), _opt("count", 8),
                _opt("support", int(support)), _opt("seed", rng.randrange(1000)))
        jobs.append(Job("algebra", argv, {"tol": 1e-12}))
    n = 40
    families = _balanced(rng, (TRACE3_C5,) * 9 + (TRACE4_C6,), n)
    degrees = _balanced(rng, ("1", "2", "3", "1,2", "2,3", "1,3", "1,2,3"), n)
    signs = _balanced(rng, (1, -1), n)
    give_g = _balanced(rng, (True, False), n)
    for i, im in enumerate(_strata(rng, n, 0.8, 1.4)):
        theta, g = _translate(families[i], rng.randint(-3, 3), signs[i])
        argv = ["module-check", _opt("theta", theta.text())]
        if give_g[i]:
            argv.append(_opt("g", _g_text(g)))
        argv += [_opt("tau", _tau(rng, im)), _opt("degrees", degrees[i])]
        jobs.append(Job("module-check", tuple(argv), {"tol": 1e-12}))
    rng.shuffle(jobs)
    return jobs


def quadratic_forms() -> list[Surd]:
    """sqrt(D) and (1+sqrt(D))/2 for squarefree 2 <= D <= 200 (159 forms)."""
    out = []
    for D in range(2, 201):
        if _squarefree(D):
            out.append(Surd(0, 1, 1, D))
            if D % 4 == 1:
                out.append(Surd(1, 1, 2, D))
    return out


def gen_arith(rng: random.Random) -> list[Job]:
    """53 fixing-matrix jobs, one third of the 159 forms, and 60 theta sums.

    The forms are sorted by the trace of their fundamental unit and cut into
    consecutive triples; one form is drawn per triple.  That keeps the cost
    of a batch within a few percent across seeds, and its share of forms
    beyond the default max_trace (6 of the 18 such forms) fixed, while every
    form is reachable.  Groups of six would halve the batch but let its cost
    vary by about 10% with the seed.

    The theta sums are one fixed panel, drawn once from its own stream; the
    seed only sets their place in the batch.  Whether a sum breaks its
    rounding-blind certificate depends on its inputs, so a seeded panel
    would make the failure count change with the seed.
    """
    forms = sorted(quadratic_forms(), key=lambda s: (fundamental_trace(s), s.text()))
    picks = [rng.choice(forms[i:i + 3]) for i in range(0, len(forms), 3)]
    jobs = []
    for s in picks:
        sign = rng.choice((1, -1))
        k = rng.randint(-5, 5)
        theta = Surd(sign * s.P + k * s.Q, sign * s.S, s.Q, s.D)
        jobs.append(Job("fix", ("fix", _opt("theta", theta.text())),
                        {"theta": theta, "fundamental_trace": fundamental_trace(theta),
                         "max_trace": 10 ** 7}))
    jobs += theta_panel()
    rng.shuffle(jobs)
    return jobs


def theta_panel() -> list[Job]:
    """60 theta sums: r = p/q with q <= 12, Im m stratified log-uniform in [1e-4, 2],
    half of them with a z, |Im z| <= Im m / 2."""
    rng = random.Random("arith:theta-panel")
    jobs = []
    n = 60
    with_z = _balanced(rng, (True, False), n)
    for i, im in enumerate(_strata(rng, n, 1e-4, 2.0, log=True)):
        den = rng.randint(1, 12)
        r = Fraction(rng.randint(-2 * den, 2 * den), den)
        m = complex(_short(rng.uniform(-1, 1)), _short(im))
        argv = ["theta", _opt("r", f"{r.numerator}/{r.denominator}"), _opt("m", _complex_text(m))]
        z = None
        if with_z[i]:
            z = complex(_short(rng.uniform(-1, 1)), _short(rng.uniform(-0.5, 0.5) * m.imag))
            argv.append(_opt("z", _complex_text(z)))
        jobs.append(Job("theta", tuple(argv), {"r": r, "m": m, "z": z, "tol": 1e-14}))
    return jobs


_GENERATORS = {"ring": gen_ring, "ring-deep": gen_ring_deep,
               "algebra": gen_algebra, "arith": gen_arith}


def generate(workload: str, seed: int) -> list[Job]:
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
